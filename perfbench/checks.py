"""Oracles that judge each benchmark operation without calling the timed code.

Every checker takes the expectation fixed when the input was generated
(the *spec*) and the operation's result, and returns the sorted names of
the package modules whose output was wrong; an empty list means the
operation passed.  The checkers use only numpy and the raw Cayley table,
so a defect in a layer cannot hide behind the same defect in its check.
"""

from __future__ import annotations

import json

import numpy as np

# Sample residual allowed for the homeomorphism round trip and the
# Plancherel identities; the library's own residual tolerance is 1e-8.
RESIDUAL = 1e-8
# Largest |B F - I| entry accepted for a homeomorphism's coefficient maps,
# the bound construct_affine_homeomorphism itself enforces.
ROUNDTRIP_BOUND = 1e-6


# --------------------------------------------------------------------------
# input generation shared by the workloads (numpy only)
# --------------------------------------------------------------------------

def vector_state_values(cayley: np.ndarray, inverses: np.ndarray, xi) -> np.ndarray:
    """phi(s) = <lambda_s xi, xi> for the unit vector along xi."""
    x = np.asarray(xi, dtype=complex)
    x = x / np.linalg.norm(x)
    return x[cayley[inverses]] @ np.conj(x)


def delta_mixture(cayley, inverses, identity: int, rng, weight: float, parts: int = 3):
    """weight * delta_e + (1 - weight) * (mixture of random vector states).

    Positive definite with a margin: the Gram matrix is at least
    ``weight`` times the identity, so the GNS representation is regular.
    """
    n = cayley.shape[0]
    mix = np.zeros(n, dtype=complex)
    for w in rng.dirichlet(np.ones(parts)):
        xi = rng.normal(size=n) + 1j * rng.normal(size=n)
        mix += w * vector_state_values(cayley, inverses, xi)
    out = (1.0 - weight) * mix
    out[identity] += weight
    return out


def involution(cayley: np.ndarray, identity: int, rng) -> int:
    """A seeded element s != e with s * s = e."""
    cands = [s for s in range(cayley.shape[0]) if s != identity and cayley[s, s] == identity]
    return int(cands[int(rng.integers(len(cands)))])


def spike(n: int, identity: int, s: int, c: float) -> np.ndarray:
    """delta_e + c * delta_s; for an involution s and c > 1 not positive
    definite (eigenvalue 1 - c), with A-norm exactly c."""
    v = np.zeros(n, dtype=complex)
    v[identity] = 1.0
    v[s] += c
    return v


def relabel_table(cayley: np.ndarray, perm: np.ndarray) -> np.ndarray:
    """Cayley table of the same group with element i renamed to perm^-1[i]."""
    inv = np.argsort(perm)
    return inv[cayley[np.ix_(perm, perm)]]


# --------------------------------------------------------------------------
# independent reference computations
# --------------------------------------------------------------------------

def gram_min_eig(cayley, inverses, values) -> tuple[float, float]:
    """Smallest eigenvalue of the Gram matrix phi(s_k^-1 s_j), and its scale."""
    v = np.asarray(values)
    g = v[cayley[inverses].T]
    g = (g + g.conj().T) / 2
    return float(np.linalg.eigvalsh(g)[0]), float(np.abs(g).max())


def class_sizes(cayley: np.ndarray, inverses: np.ndarray) -> list[int]:
    """Sorted conjugacy class sizes by brute force over all conjugators."""
    n = cayley.shape[0]
    # conj[g, x] = g x g^-1
    conj = cayley[np.arange(n)[:, None], cayley[:, inverses].T]
    seen = np.zeros(n, dtype=bool)
    sizes = []
    for x in range(n):
        if not seen[x]:
            orbit = np.unique(conj[:, x])
            seen[orbit] = True
            sizes.append(len(orbit))
    return sorted(sizes)


def state_value(coeffs, values, inverses) -> complex:
    """omega(p) = sum_s p(s) phi(s^-1) for the state with function phi."""
    return complex(np.sum(np.asarray(coeffs) * np.asarray(values)[inverses]))


def _close(a, b, tol=RESIDUAL) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b)), initial=0.0) <= tol)


# --------------------------------------------------------------------------
# classify
# --------------------------------------------------------------------------

def check_group(spec: dict, r: dict) -> list[str]:
    """One ladder group through classes, table, projections, blocks, faces."""
    bad = set()
    dims = tuple(spec["dims"])
    g = r["group"]
    n = g.order
    sizes = class_sizes(g.cayley, g.inverses)
    if n != sum(d * d for d in dims) or len(sizes) != len(dims):
        bad.add("groups")
    if sorted(r["partition"].class_sizes) != sizes:
        bad.add("groups")
    for other in (r["perm_group"], r["copy"]):
        if other is not None and (
            other.order != n or class_sizes(other.cayley, other.inverses) != sizes
        ):
            bad.add("groups")
    table_dims = tuple(sorted(r["table"].dims))
    if table_dims != dims or sum(d * d for d in table_dims) != n:
        bad.add("characters")
    ranks = sorted(int(round(np.trace(p.matrix).real)) for p in r["minimal"])
    if ranks != sorted(d * d for d in dims):
        bad.add("characters")
    if tuple(sorted(u.shape[0] for u in r["decomp"].units)) != dims:
        bad.add("vn")
    if tuple(r["invariant"].dims) != dims:
        bad.add("vn")
    # the face route: minimal split faces and chain lengths give the table's
    # multiset of block dimensions
    if r["faces"] is not None:
        faces = r["faces"]
        minimal_ranks = sorted(
            int(round(np.trace(f.matrix).real)) for f in faces if len(f.irreps) == 1
        )
        if len(faces) != 2 ** len(dims) or minimal_ranks != sorted(d * d for d in dims):
            bad.add("faces")
    if tuple(sorted(r["chains"])) != dims:
        bad.add("faces")
    return sorted(bad)


def check_pair(spec: dict, r: dict, stats: dict) -> list[str]:
    """Isomorphism verdict, then the homeomorphism's round trip and images."""
    verdict = r["verdict"]
    if verdict.isomorphic != spec["isomorphic"]:
        return ["vn"]
    homeo = r["homeo"]
    if not spec["isomorphic"]:
        return [] if homeo is None and r["refused"] == "NotIsomorphic" else ["vn"]
    if homeo is None:
        return ["vn"]
    src, dst = r["source"], r["target"]
    fwd, bwd = homeo.forward_matrix, homeo.backward_matrix
    roundtrip = float(np.abs(bwd @ fwd - np.eye(src.order)).max())
    stats["roundtrip_max"] = max(stats.get("roundtrip_max", 0.0), roundtrip)
    if roundtrip > ROUNDTRIP_BOUND:
        return ["vn"]
    rng = np.random.default_rng(spec["sample_seed"])
    for _ in range(spec["samples"]):
        phi = delta_mixture(src.cayley, src.inverses, src.identity, rng, 0.1)
        image = fwd @ phi
        if not _close(bwd @ image, phi):
            return ["vn"]
        low, scale = gram_min_eig(dst.cayley, dst.inverses, image)
        if low < -RESIDUAL * max(scale, 1.0) or abs(image[dst.identity] - 1.0) > RESIDUAL:
            return ["vn"]
    return []


# --------------------------------------------------------------------------
# state queries
# --------------------------------------------------------------------------

def check_query(spec: dict, r: dict) -> list[str]:
    """Verdict, norm, blocks, descriptor image, channels, state and faces."""
    bad = set()
    phi = spec["values"]
    group = spec["group"]
    inverses = group.inverses
    if r["pd"].is_psd != spec["pd"]:
        bad.add("posdef")
    if abs(r["a_norm"] - spec["a_norm"]) > 1e-6 * max(1.0, spec["a_norm"]):
        bad.add("posdef")
    # Plancherel: tau(x) = sum (d/n) tr B and tau(x* x) = sum (d/n) |B|_F^2
    n = group.order
    dims = spec["dims"]
    energy = float(np.sum(np.abs(phi) ** 2))
    trace = sum(d / n * np.trace(b) for d, b in zip(dims, r["blocks"]))
    frob = sum(d / n * float(np.sum(np.abs(b) ** 2)) for d, b in zip(dims, r["blocks"]))
    if abs(trace - phi[group.identity]) > RESIDUAL or abs(frob - energy) > RESIDUAL * max(energy, 1.0):
        bad.add("vn")
    image = r["image"].values
    if abs(image[group.identity] - phi[group.identity]) > RESIDUAL or abs(
        float(np.sum(np.abs(image) ** 2)) - energy
    ) > RESIDUAL * max(energy, 1.0):
        bad.add("vn")
    symbol = spec["symbol"]
    if not _close(r["applied"].values, symbol * phi, 1e-12) or not _close(
        r["composed"].symbol.values, symbol * phi, 1e-12
    ):
        bad.add("channels")
    if not spec["pd"]:
        if r["refused"] != "NotPositiveDefinite":
            bad.add("posdef")
        return sorted(bad)
    if r["refused"] is not None or not _close(r["back"].values, phi, 0.0):
        bad.add("posdef")
        return sorted(bad)
    if r["members"] != spec["members"]:
        bad.add("faces")
    coeffs = spec["projection_coeffs"]
    if abs(sum(state_value(c, phi, inverses) for c in coeffs) - 1.0) > RESIDUAL:
        bad.add("characters")
    t, w1, w2 = r["decomposition"]
    expected_t = state_value(coeffs[spec["split"]], phi, inverses).real
    # t is snapped to 0 or 1 within the library's residual tolerance
    if abs(t - expected_t) > 2 * RESIDUAL:
        bad.add("faces")
    if w1 is not None and w2 is not None and not _close(
        t * w1.coefficients + (1.0 - t) * w2.coefficients, phi
    ):
        bad.add("faces")
    return sorted(bad)


# --------------------------------------------------------------------------
# certify
# --------------------------------------------------------------------------

def check_extreme(spec: dict, r: dict) -> list[str]:
    """Extremality verdict and GNS dimension known by construction."""
    ok = r["extreme"] == spec["extreme"] and r["gns_dim"] == spec["gns_dim"]
    return [] if ok else ["posdef"]


def check_cp(spec: dict, r: dict) -> list[str]:
    """CP verdict matches the symbol's construction, and the symbol test is
    decided (the Choi matrix of a CP multiplier is singular, so the Choi
    test always sits in its undecided band)."""
    ok = r["verdict"] == spec["cp"] and not r["symbol_undecided"]
    return [] if ok else ["channels"]


def check_jordan(spec: dict, r: dict) -> list[str]:
    """The fit recovers the block permutation and the transpose flags."""
    ok = tuple(r["sigma"]) == tuple(spec["sigma"]) and tuple(r["transpose"]) == tuple(
        spec["transpose"]
    )
    return [] if ok else ["vn"]


# --------------------------------------------------------------------------
# cli
# --------------------------------------------------------------------------

def check_cli(spec: dict, r: dict) -> list[str]:
    """Exit code, then each expected JSON field (value or predicate)."""
    if r["exit"] != spec["exit"]:
        return ["cli"]
    text = r["stdout"].strip()
    try:
        out = json.loads(text) if text else None
    except json.JSONDecodeError:
        out = None
    for key, want in spec.get("fields", {}).items():
        if not isinstance(out, dict) or key not in out:
            return ["cli"]
        got = out[key]
        if callable(want):
            if not want(got):
                return ["cli"]
        elif got != want:
            return ["cli"]
    return []
