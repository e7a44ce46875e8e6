"""Shared fixtures and independent oracles used across the test suite."""

import gc
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from groupstates import (
    cyclic_group,
    dihedral_group,
    direct_product,
    quaternion_group,
    symmetric_group,
)
from groupstates.errors import DomainError
from groupstates.vn import block_decompose as _block_decompose


@pytest.fixture
def collector_off():
    """The cyclic garbage collector disabled for one test, so that only
    reference counting frees what the test drops."""
    enabled = gc.isenabled()
    gc.disable()
    yield
    if enabled:
        gc.enable()


@pytest.fixture(scope="session")
def z2():
    return cyclic_group(2)


@pytest.fixture(scope="session")
def z3():
    return cyclic_group(3)


@pytest.fixture(scope="session")
def z4():
    return cyclic_group(4)


@pytest.fixture(scope="session")
def s3():
    return symmetric_group(3)


@pytest.fixture(scope="session")
def s4():
    return symmetric_group(4)


@pytest.fixture(scope="session")
def s5():
    return symmetric_group(5)


@pytest.fixture(scope="session")
def d4():
    return dihedral_group(4)


@pytest.fixture(scope="session")
def q8():
    return quaternion_group()


# the benchmark ladder: label -> groups.build_named kind
LADDER = {
    "S3": "symmetric:3", "Q8": "quaternion8", "D6": "dihedral:6", "S4": "symmetric:4",
    "S4xZ2": "product:symmetric:4,cyclic:2", "D30": "dihedral:30", "S5": "symmetric:5",
}


# direct products of two small groups, of order at most 48: the generated
# groups of the property tests, as groups.build_named kinds
_FACTOR_ORDERS = {
    "cyclic:2": 2, "cyclic:3": 3, "cyclic:4": 4, "dihedral:3": 6, "dihedral:4": 8,
    "quaternion8": 8, "symmetric:3": 6,
}
PRODUCTS = [
    f"product:{a},{b}"
    for a, m in _FACTOR_ORDERS.items()
    for b, k in _FACTOR_ORDERS.items()
    if m * k <= 48
]


def _affine(m, a):
    """x -> x + 1 and x -> a x on Z/m, as permutations of 0..m-1."""
    return [tuple((x + 1) % m for x in range(m)), tuple(a * x % m for x in range(m))]


def _line(v, p):
    """The point of the line through v in F_p^k whose first nonzero
    coordinate is 1."""
    inv = pow(next(x for x in v if x), -1, p)
    return tuple(x * inv % p for x in v)


def _matrix_action(mats, p, projective=False):
    """The matrices over F_p as permutations of F_p^k minus 0, or of the
    projective space over F_p when ``projective``."""
    points = [v for v in itertools.product(range(p), repeat=len(mats[0])) if any(v)]
    if projective:
        points = sorted({_line(v, p) for v in points})
    index = {v: i for i, v in enumerate(points)}

    def image(m, v):
        w = tuple(sum(a * b for a, b in zip(row, v)) % p for row in m)
        return index[_line(w, p) if projective else w]

    return [tuple(image(m, v) for v in points) for m in mats]


def _dicyclic(m):
    """Right multiplication by a and by b on the elements a^k b^e of the
    dicyclic group of order 4m (a^2m = 1, b^2 = a^m, b^-1 a b = a^-1), as
    permutations of the indices 2m e + k: a sends (k, e) to (k + 1, e), b
    sends (k, 0) to (-k, 1) and (k, 1) to (m - k, 0), all mod 2m."""
    n = 2 * m
    a = [n * e + (k + 1) % n for e in (0, 1) for k in range(n)]
    b = [n + (-k) % n if e == 0 else (m - k) % n for e in (0, 1) for k in range(n)]
    return [tuple(a), tuple(b)]


_T, _S = ((1, 1), (0, 1)), ((0, -1), (1, 0))
# groups that are not direct products of the small named groups: label ->
# permutation generators for groups.from_permutation_generators.  The
# affine maps x -> a x of Z/8 with a = 7, 3, 5 give the dihedral,
# semidihedral and modular groups of order 16; the dicyclic groups of
# orders 12 and 16 are Dic3 and the generalized quaternion group Q16.
CORPUS = {
    "A4": [(1, 2, 0, 3), (0, 2, 3, 1)],
    "A5": [(1, 2, 0, 3, 4), (1, 2, 3, 4, 0)],
    "F20": _affine(5, 2), "F21": _affine(7, 2),
    "D8": _affine(8, 7), "SD16": _affine(8, 3), "M16": _affine(8, 5), "Z9:Z3": _affine(9, 4),
    "Dic3": _dicyclic(3), "Q16": _dicyclic(4),
    "SL(2,3)": _matrix_action([_T, _S], 3),
    "GL(2,3)": _matrix_action([_T, _S, ((2, 0), (0, 1))], 3),
    "SL(2,5)": _matrix_action([_T, _S], 5),
    "PSL(2,7)": _matrix_action([_T, _S], 7, projective=True),
    "Heis27": _matrix_action(
        [((1, 1, 0), (0, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 1), (0, 0, 1))], 3
    ),
}


def ladder_group(name):
    """A group of the benchmark ladder by its label."""
    from groupstates.groups import build_named

    return build_named(LADDER[name])


def corpus_group(name):
    """A group of the corpus by its label."""
    from groupstates.groups import from_permutation_generators

    return from_permutation_generators(CORPUS[name])


def class_partition(group, classes):
    """A ConjugacyPartition over the given classes, in that order."""
    from groupstates.groups import ConjugacyPartition

    classes = tuple(tuple(sorted(c)) for c in classes)
    class_of = np.empty(group.order, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_of[list(members)] = ci
    return ConjugacyPartition(classes, class_of, tuple(map(len, classes)), tuple(map(min, classes)))


def relabelled(group, seed):
    """The same group with its elements renamed by a seeded permutation."""
    from groupstates.groups import validate_group

    perm = np.random.default_rng(seed).permutation(group.order)
    table = np.empty_like(group.cayley)
    table[np.ix_(perm, perm)] = perm[group.cayley]
    return validate_group(table)


def builtin_catalog(max_order: int = 24):
    """Every named constructor instance with order up to the bound."""
    groups = []
    for n in range(1, max_order + 1):
        groups.append(cyclic_group(n))
    for n in range(2, max_order // 2 + 1):
        groups.append(dihedral_group(n))
    groups.append(quaternion_group())
    for n in (3, 4):
        if math.factorial(n) <= max_order:
            groups.append(symmetric_group(n))
    for a, b in [(2, 2), (2, 4), (2, 6), (3, 3), (2, 10), (4, 4)]:
        if a * b <= max_order:
            groups.append(direct_product(cyclic_group(a), cyclic_group(b)))
    groups.append(direct_product(cyclic_group(2), dihedral_group(3)))
    return [g for g in groups if g.order <= max_order]


def criterion_04_groups():
    """The groups of the CP sweep in acceptance criterion 04, all of order
    at most 12, where the literal Choi matrix is still affordable."""
    return [
        cyclic_group(2), cyclic_group(3), cyclic_group(4), cyclic_group(5),
        cyclic_group(6), cyclic_group(7), cyclic_group(8), cyclic_group(9),
        cyclic_group(10), cyclic_group(11), cyclic_group(12),
        symmetric_group(3), dihedral_group(4), quaternion_group(),
        dihedral_group(5), dihedral_group(6),
        direct_product(cyclic_group(2), cyclic_group(2)),
        direct_product(cyclic_group(2), cyclic_group(4)),
        direct_product(cyclic_group(2), symmetric_group(3)),
        direct_product(cyclic_group(3), cyclic_group(3)),
    ]


def brute_force_conjugacy_classes(group):
    """Independent conjugation-orbit enumeration by explicit looping."""
    n = group.order
    remaining = set(range(n))
    classes = []
    while remaining:
        s = min(remaining)
        orbit = set()
        for g in range(n):
            orbit.add(group.mul(group.mul(g, s), group.inv(g)))
        remaining -= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (group.identity not in c, len(c), c[0]))
    return classes


def regular_rep_dims_oracle(group, rng):
    """Block dimensions from eigenvalue multiplicities of a random
    self-adjoint algebra element: each block of size d contributes d distinct
    eigenvalues of multiplicity d in the regular representation."""
    from groupstates.groups import algebra_matrix

    n = group.order
    coeffs = np.zeros(n, dtype=complex)
    for s in range(n):
        t = group.inv(s)
        if s > t:
            continue
        if s == t:
            coeffs[s] = rng.normal()
        else:
            z = rng.normal() + 1j * rng.normal()
            coeffs[s] = z
            coeffs[t] = np.conj(z)
    mat = algebra_matrix(group, coeffs)
    evals = np.linalg.eigvalsh(mat)
    scale = max(float(np.abs(evals).max()), 1.0)
    groups = [[evals[0]]]
    for x in evals[1:]:
        if x - groups[-1][-1] > 1e-6 * scale:
            groups.append([x])
        else:
            groups[-1].append(x)
    mult_count = {}
    for cluster in groups:
        m = len(cluster)
        mult_count[m] = mult_count.get(m, 0) + 1
    dims = []
    for d, count in mult_count.items():
        assert count % d == 0, "multiplicity pattern is not block-like"
        dims.extend([d] * (count // d))
    return sorted(dims)


def dft_psd_oracle(fn, cutoff):
    """Bochner on cyclic groups: positive definite iff the DFT of the value
    vector is entrywise nonnegative."""
    spectrum = np.fft.fft(fn.values)
    return float(spectrum.real.min()), float(np.abs(spectrum.imag).max())


def random_hermitian(rng, n, scale=1.0):
    a = rng.normal(size=(n, n), scale=scale) + 1j * rng.normal(size=(n, n), scale=scale)
    return (a + a.conj().T) / 2


def random_unitary(rng, n):
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def loop_coefficient_transport(src, dst, matching):
    """Coefficient transport one basis vector at a time: block pi of the
    source decomposition is pushed onto block matching[pi] of the target."""
    n = src.group.order
    mat = np.empty((dst.group.order, n), dtype=complex)
    for s in range(n):
        basis = np.zeros(n, dtype=complex)
        basis[s] = 1.0
        blocks = src.from_coefficients(basis)
        pushed = [np.zeros((d, d), dtype=complex) for d in dst.block_dims]
        for pi, b in enumerate(blocks):
            pushed[matching[pi]] = b
        mat[:, s] = to_coefficients(dst, pushed)
    return mat


def literal_choi_matrix(a):
    """Literal Choi assembly of the Schur multiplier with symbol matrix A:
    the sum over (s, t) of A[s, t] (E_st tensor E_st), n^2 x n^2."""
    n = a.shape[0]
    choi = np.zeros((n * n, n * n), dtype=complex)
    unit = np.zeros((n, n), dtype=complex)
    for s in range(n):
        for t in range(n):
            if a[s, t] == 0:
                continue
            unit[s, t] = 1.0
            choi += a[s, t] * np.kron(unit, unit)
            unit[s, t] = 0.0
    return choi


@dataclass(eq=False)
class DenseGns:
    """A GNS representation held as the (n, dim, dim) array of all rho(s)."""

    group: object
    dim: int
    rep: np.ndarray
    cyclic_vector: np.ndarray


def dense_gns(fn, tol=None):
    """The literal GNS construction: rho(s) = project . lambda_s . lift built
    for every s in a loop, each checked for unitarity and for its matrix
    coefficient <rho(s) xi, xi> = phi(s) with one vdot."""
    from groupstates.errors import ConvergenceFailure, NotPositiveDefinite
    from groupstates.linalg import DEFAULT_TOL
    from groupstates.posdef import _require_hermitian_symmetric

    tol = DEFAULT_TOL if tol is None else tol
    g = fn.group
    _require_hermitian_symmetric(fn, tol)
    kernel = literal_gram_matrix(fn).T
    w, v = np.linalg.eigh((kernel + kernel.conj().T) / 2)
    cutoff = tol.eig_cutoff(kernel)
    if w[0] < -cutoff:
        raise NotPositiveDefinite(
            f"Gram matrix has eigenvalue {w[0]:.3e}",
            witness={"min_eigenvalue": float(w[0])},
        )
    keep = w > cutoff
    dim = int(np.count_nonzero(keep))
    if dim == 0:
        raise NotPositiveDefinite("form has rank zero", witness={})
    roots = np.sqrt(w[keep])
    vk = v[:, keep]
    project = roots[:, None] * vk.conj().T
    lift = vk * (1.0 / roots)[None, :]

    n = g.order
    rep = np.empty((n, dim, dim), dtype=complex)
    inv_rows = g.cayley[g.inverses]
    for s in range(n):
        rep[s] = project @ lift[inv_rows[s], :]
    cyclic = project[:, g.identity].copy()

    rep_dev = max(
        float(np.abs(rep[s].conj().T @ rep[s] - np.eye(dim)).max()) for s in range(n)
    )
    coeff_dev = max(
        abs(complex(np.vdot(cyclic, rep[s] @ cyclic)) - fn(s)) for s in range(n)
    )
    if rep_dev > tol.residual_tol or coeff_dev > tol.residual_tol:
        raise ConvergenceFailure(
            f"GNS verification failed (unitarity {rep_dev:.2e}, "
            f"coefficient {coeff_dev:.2e})",
            witness={"unitarity": rep_dev, "coefficient": coeff_dev},
        )
    return DenseGns(g, dim, rep, cyclic)


# complex entries one chunk of the stacked unitarity check in gram_gns
# gathers (1 MiB): a full-rank S5 state (dim = n = 120) is checked 4
# elements at a time, where one (n, dim, dim) array would take 27.6 MB
_UNITARITY_CHUNK_ENTRIES = 2**16


def unitarity_deviation(rep):
    """max over s of max|rho(s)^* rho(s) - 1| of a GnsRepresentation, one
    stacked product per chunk of elements."""
    g = rep.group
    translate = g.cayley[g.inverses]
    n, dim = rep.lift.shape
    step = max(1, _UNITARITY_CHUNK_ENTRIES // (n * dim))
    eye = np.eye(dim)
    dev = 0.0
    for start in range(0, n, step):
        rho = rep.project @ rep.lift[translate[start:start + step]]
        # a contiguous adjoint keeps the stacked product on BLAS
        gram = np.ascontiguousarray(rho.conj().transpose(0, 2, 1)) @ rho
        gram -= eye
        dev = max(dev, float(np.abs(gram).max()))
    return dev


def matrix_coefficient(rep, s):
    """<rho(s) xi, xi> of a GnsRepresentation, from ``rep.matrix(s)``."""
    xi = rep.cyclic_vector
    return complex(np.vdot(xi, rep.matrix(s) @ xi))


def gram_gns(fn, tol=None):
    """The GNS construction from the Gram kernel, batched: one
    np.linalg.eigh of the symmetrized transposed Gram matrix, eigenvectors
    above the Gram cutoff rescaled to project/lift, the character read from
    the kept spectral projector, and every s checked for its matrix
    coefficient (one gather) and for unitarity (stacked products over
    chunks)."""
    from groupstates.errors import ConvergenceFailure, NotPositiveDefinite
    from groupstates.linalg import DEFAULT_TOL
    from groupstates.posdef import (
        GnsRepresentation,
        _regular_traces,
        _require_hermitian_symmetric,
    )

    tol = DEFAULT_TOL if tol is None else tol
    g = fn.group
    _require_hermitian_symmetric(fn, tol)
    kernel = literal_gram_matrix(fn).T
    w, v = np.linalg.eigh((kernel + kernel.conj().T) / 2)
    cutoff = tol.eig_cutoff(kernel)
    if w[0] < -cutoff:
        raise NotPositiveDefinite(
            f"Gram matrix has eigenvalue {w[0]:.3e}",
            witness={"min_eigenvalue": float(w[0])},
        )
    keep = w > cutoff
    dim = int(np.count_nonzero(keep))
    if dim == 0:
        raise NotPositiveDefinite("form has rank zero", witness={})
    roots = np.sqrt(w[keep])
    vk = v[:, keep]
    project = roots[:, None] * vk.conj().T
    lift = vk * (1.0 / roots)[None, :]
    cyclic = project[:, g.identity].copy()
    translate = g.cayley[g.inverses]
    character = _regular_traces(translate, vk @ vk.conj().T)
    rep = GnsRepresentation(g, dim, project, lift, cyclic, character)

    coefficients = (lift @ cyclic)[translate] @ (cyclic.conj() @ project)
    coeff_dev = float(np.abs(coefficients - fn.values).max())
    rep_dev = unitarity_deviation(rep)
    if rep_dev > tol.residual_tol or coeff_dev > tol.residual_tol:
        raise ConvergenceFailure(
            f"GNS verification failed (unitarity {rep_dev:.2e}, "
            f"coefficient {coeff_dev:.2e})",
            witness={"unitarity": rep_dev, "coefficient": coeff_dev},
        )
    return rep


def word_length(group):
    """The longest word in the generating set (groups.generating_set) an
    element needs: the depth of a breadth-first search from the identity,
    one right multiplication by a generator per step."""
    from groupstates.groups import generating_set

    gens = generating_set(group) or [group.identity]
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    frontier = np.array([group.identity])
    depth = 0
    while not seen.all():
        frontier = np.unique(group.cayley[frontier][:, gens])
        frontier = frontier[~seen[frontier]]
        seen[frontier] = True
        depth += 1
    return max(depth, 1)


def gns_unitarity_bound(fn, decomp, tol=None):
    """The unitarity bound the posdef.gns docstring states for the
    block-form representation of ``fn``: 8 sqrt(kappa) l n beta, with
    beta = 10 residual_tol, l = word_length(group) and kappa the ratio of
    the largest to the smallest kept d w / n over the blocks of conj(phi)."""
    from groupstates.linalg import DEFAULT_TOL

    tol = DEFAULT_TOL if tol is None else tol
    n = fn.group.order
    cutoff = tol.eig_tol * n * float(np.abs(fn.values).max())
    scales = np.concatenate([
        d * w[w > cutoff] / n for d, _, _, w, _ in decomp.block_eigh(np.conj(fn.values))
    ])
    kappa = float(scales.max() / scales.min())
    return 8 * np.sqrt(kappa) * word_length(fn.group) * n * 10 * tol.residual_tol


def loop_apply_descriptor(desc, fn, decomp):
    """The descriptor's action one block at a time: each block of phi,
    transposed where flagged, conjugated by its unitary and placed in block
    sigma[pi]."""
    from groupstates.posdef import GroupFunction

    blocks = decomp.from_coefficients(fn.values)
    pushed = [np.zeros((d, d), dtype=complex) for d in decomp.block_dims]
    for pi, b in enumerate(blocks):
        u = desc.unitaries[pi]
        body = b.T if desc.transpose[pi] else b
        pushed[desc.sigma[pi]] = u @ body @ u.conj().T
    return GroupFunction(decomp.group, to_coefficients(decomp, pushed))


def kron_commutant_dimension(rep, tol):
    """Commutant dimension of a dense GNS representation (``dense_gns``) as
    the null space of the stacked maps X -> X rep(s) - rep(s) X over a
    generating set."""
    from groupstates.groups import generating_set

    g = rep.group
    d = rep.dim
    gens = generating_set(g) or [g.identity]
    eye = np.eye(d)
    stacked = np.vstack(
        [np.kron(eye, rep.rep[s]) - np.kron(rep.rep[s].T, eye) for s in gens]
    )
    svals = np.linalg.svd(stacked, compute_uv=False)
    top = float(svals[0]) if svals.size else 0.0
    cutoff = tol.eig_tol * max(stacked.shape) * max(top, 1.0)
    return int(np.count_nonzero(svals <= cutoff))


def loop_vector_state(group, xi):
    """phi(s) = <lambda_s xi, xi> for the unit vector along xi, one vdot
    per element."""
    from groupstates.posdef import GroupFunction

    x = np.asarray(xi, dtype=complex)
    x = x / np.linalg.norm(x)
    inv_rows = group.cayley[group.inverses]
    return GroupFunction(group, np.array([np.vdot(x, x[inv_rows[s]]) for s in group.elements()]))


def loop_random_p1(group, rng):
    """Dirichlet mixture of 1..n random vector states, one vector state
    (two normal(size=n) draws) per component."""
    from groupstates.posdef import GroupFunction

    n = group.order
    weights = rng.dirichlet(np.ones(int(rng.integers(1, n + 1))))
    vals = np.zeros(n, dtype=complex)
    for w in weights:
        xi = rng.normal(size=n) + 1j * rng.normal(size=n)
        vals += w * loop_vector_state(group, xi).values
    return GroupFunction(group, vals)


def literal_algebra_matrix(group, coeffs):
    """Regular-representation image, its index table rebuilt per call."""
    return np.asarray(coeffs, dtype=complex)[group.cayley[:, group.inverses]]


def literal_gram_matrix(fn):
    """Gram matrix phi(s_k^-1 s_j) at (j, k), its index table rebuilt per
    call: the library builds no Gram matrix, and this oracle shares no
    code with groups.algebra_matrix."""
    g = fn.group
    return fn.values[g.cayley[g.inverses].T]


def literal_centrality_deviation(group, coeffs):
    """max |c(g s g^-1) - c(s)| over every (g, s), one n x n conjugation gather."""
    conj = group.cayley[group.cayley, group.inverses[:, None]]
    return float(np.abs(coeffs[conj] - coeffs[None, :]).max())


def literal_random_p1(group, rng):
    """posdef.random_p1 with the translation table rebuilt per call: the
    same draws, and tr(lambda_s M) read by one flat gather."""
    from groupstates.posdef import GroupFunction

    n = group.order
    weights = rng.dirichlet(np.ones(int(rng.integers(1, n + 1))))
    draws = rng.normal(size=(weights.size, 2, n))
    xi = draws[:, 0] + 1j * draws[:, 1]
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    density = (weights[:, None] * xi).T @ xi.conj()
    translate = group.cayley[group.inverses]
    return GroupFunction(group, np.take(density, translate * n + np.arange(n)).sum(axis=1))


def rounded_row_order(dims, chars):
    """Irrep order by (dimension, row of (round(re, 8), round(im, 8))
    pairs), one scalar round per entry."""
    return sorted(
        range(len(dims)),
        key=lambda p: (dims[p], tuple((round(z.real, 8), round(z.imag, 8)) for z in chars[p])),
    )


def loop_convolve(group, a, b):
    """Group-algebra product one basis element at a time: a_s b_t lands on
    the coefficient of s t."""
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    out = np.zeros(group.order, dtype=complex)
    for s in range(group.order):
        if a[s] != 0:
            out[group.cayley[s]] += a[s] * b
    return out


def dense_state_decomposition(state, face):
    """The split of a state across a central projection, built from dense
    n x n matrices: w1 = p D p / t and w2 = q D q / (1 - t), with D the
    density, q = 1 - p and t = omega(p).  Components read off the column
    at the identity; None where t is 0 or 1."""
    from groupstates.groups import algebra_matrix
    from groupstates.posdef import GroupFunction, to_state

    group = state.group
    t = state.expectation(face.coeffs).real
    if t >= 1.0 - 1e-8:
        return 1.0, state.coefficients, None
    if t <= 1e-8:
        return 0.0, None, state.coefficients
    p = face.matrix
    q = np.eye(group.order, dtype=complex) - p
    d = algebra_matrix(group, state.coefficients)
    w1 = to_state(GroupFunction(group, algebra_coefficients(group, p @ d @ p / t)))
    w2 = to_state(GroupFunction(group, algebra_coefficients(group, q @ d @ q / (1 - t))))
    return t, w1.coefficients, w2.coefficients


def commutator_centrality_deviation(group, matrix):
    """Largest entry of [lambda_g, m] over every group element g."""
    dev = 0.0
    for g in range(group.order):
        lam = regular_representation(group, g)
        dev = max(dev, float(np.abs(lam @ matrix - matrix @ lam).max()))
    return dev


def unit_matrix(decomp, pi, j, k):
    """Regular-representation matrix of the matrix unit e^pi_jk."""
    from groupstates.groups import algebra_matrix

    return algebra_matrix(decomp.group, decomp.units[pi][j, k])


def cluster_spectrum(evals, scale):
    """Indices of eigenvalues grouped by gaps above vn._CLUSTER_GAP * scale."""
    from groupstates.vn import _CLUSTER_GAP

    order = np.argsort(evals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if evals[idx] - evals[clusters[-1][-1]] > _CLUSTER_GAP * scale:
            clusters.append([idx])
        else:
            clusters[-1].append(idx)
    return [np.array(c) for c in clusters]


def literal_ideal_rho(group, w):
    """rho[s] = W^* lambda_s W for every s, one (n, n, d) gather, with
    (lambda_s w)(t) = w(s^{-1} t)."""
    return w.conj().T @ w[group.cayley[group.inverses]]


def eig_character_table(group, seed=0):
    """(dims, chars) by the retired seeded solve: the non-Hermitian ``eig``
    of a random real combination of the class-sum matrices N_i[l, j] =
    a[i, j, l], central characters from Rayleigh quotients on its
    eigenvectors, rows in the table's canonical order."""
    from groupstates.characters import class_sum_structure_constants
    from groupstates.groups import conjugacy_classes

    part = conjugacy_classes(group)
    n, k = group.order, part.num_classes
    sizes = np.array(part.class_sizes, dtype=float)
    mats = class_sum_structure_constants(group, part).transpose(0, 2, 1).astype(float)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        m = np.tensordot(rng.uniform(1.0, 2.0, size=k), mats, axes=1)
        evals, vecs = np.linalg.eig(m)
        gaps = np.abs(np.subtract.outer(evals, evals)) + np.diag(np.full(k, np.inf))
        if gaps.min() > 1e-6 * max(float(np.abs(m).max()), 1.0):
            break
    else:
        raise AssertionError("no simple spectrum in 20 draws")
    omega = np.array([
        [vecs[:, p].conj() @ mats[i] @ vecs[:, p] / np.vdot(vecs[:, p], vecs[:, p])
         for i in range(k)]
        for p in range(k)
    ])
    dims = np.rint(np.sqrt(n / (np.abs(omega) ** 2 / sizes).sum(axis=1))).astype(int)
    chars = dims[:, None] * omega / sizes
    order = rounded_row_order(dims, chars)
    return tuple(int(dims[p]) for p in order), chars[order]


def per_block_decompose(group, table=None, seed=0, tol=None):
    """Matrix units one block at a time in n space: the QR of the block's
    regular-representation image applied to d^2 Gaussian columns, the
    compression of right multiplication by the Gram matrix of a random
    Hermitian-symmetric function, and rho from the literal gather
    W^* lambda_s W over the lowest eigenspace W."""
    from groupstates.characters import character_table, minimal_central_projections
    from groupstates.errors import DecompositionFailure
    from groupstates.groups import algebra_matrix
    from groupstates.linalg import DEFAULT_TOL
    from groupstates.posdef import random_hermitian_symmetric
    from groupstates.vn import _MAX_RETRIES, BlockDecomposition, _verify_decomposition

    tol = DEFAULT_TOL if tol is None else tol
    if table is None:
        table = character_table(group)
    projections = minimal_central_projections(group, table, tol)
    rng = np.random.default_rng(seed)
    n = group.order

    units = []
    for pi, proj in enumerate(projections):
        d = table.dims[pi]
        if d == 1:
            units.append(proj.coeffs.reshape(1, 1, n).copy())
            continue
        block_units = None
        for _ in range(_MAX_RETRIES):
            sketch = algebra_matrix(group, proj.coeffs) @ rng.normal(size=(n, d * d))
            basis = np.linalg.qr(sketch)[0]
            y = literal_gram_matrix(random_hermitian_symmetric(group, rng))
            evals, vecs = np.linalg.eigh(basis.conj().T @ y @ basis)
            clusters = cluster_spectrum(evals, max(float(np.abs(evals).max()), 1.0))
            if len(clusters) != d or any(len(c) != d for c in clusters):
                continue
            rho = literal_ideal_rho(group, basis @ vecs[:, clusters[0]])
            block_units = (d / n) * rho.conj().transpose(1, 2, 0)
            break
        if block_units is None:
            raise DecompositionFailure(
                f"no usable spectrum for block {pi} after {_MAX_RETRIES} retries",
                witness={"irrep": pi, "retries": _MAX_RETRIES},
            )
        units.append(block_units)

    decomp = BlockDecomposition(group, table, units)
    _verify_decomposition(decomp, tol)
    return decomp


def nspace_projection_residuals(group, coeffs):
    """Residuals of coefficient rows p_pi in n space: per row max|p - p*|,
    max|p p - p| and round(n p(e)); max|sum_pi p_pi - 1|; and the matrix
    of max|p_pi p_rho|, every product an n x n regular-representation
    matrix times a coefficient vector."""
    from groupstates.groups import algebra_matrix, convolve, star

    herm = np.array([np.abs(c - star(group, c)).max() for c in coeffs])
    idem = np.array([np.abs(convolve(group, c, c) - c).max() for c in coeffs])
    ranks = np.round(group.order * coeffs[:, group.identity].real)
    total = coeffs.sum(axis=0)
    total[group.identity] -= 1.0
    orth = np.stack([np.abs(algebra_matrix(group, c) @ coeffs.T).max(axis=0) for c in coeffs])
    return herm, idem, ranks, float(np.abs(total).max()), orth


def nspace_verified_projections(group, table, tol=None):
    """Minimal central projections checked in n space: groups.check_projection
    and the rank per irrep, the sum, then one n x n regular-representation
    matrix per irrep for the orthogonality of each pair; the same errors
    and witnesses, in the same order, as the class-space check."""
    from groupstates.errors import ConvergenceFailure
    from groupstates.groups import algebra_matrix, check_projection
    from groupstates.linalg import DEFAULT_TOL

    tol = DEFAULT_TOL if tol is None else tol
    n = group.order
    coeffs = np.conj(table.chars[:, table.partition.class_of]) * (
        np.array(table.dims)[:, None] / n
    )
    for pi, c in enumerate(coeffs):
        d = table.dims[pi]
        check_projection(group, c, tol, what=f"p_{pi}")
        rank = int(round(n * c[group.identity].real))
        if rank != d * d:
            raise ConvergenceFailure(
                f"central projection {pi} has rank {rank}, expected {d * d}",
                witness={"irrep": pi, "rank": rank, "expected": d * d},
            )
    total = coeffs.sum(axis=0)
    total[group.identity] -= 1.0
    if float(np.abs(total).max()) > tol.residual_tol:
        raise ConvergenceFailure(
            "minimal central projections do not sum to the identity",
            witness={"residual": float(np.abs(total).max())},
        )
    for i in range(len(coeffs) - 1):
        prods = np.abs(algebra_matrix(group, coeffs[i]) @ coeffs[i + 1:].T).max(axis=0)
        bad = np.flatnonzero(prods > tol.residual_tol)
        if bad.size:
            j = i + 1 + int(bad[0])
            raise ConvergenceFailure(
                f"projections {i} and {j} are not orthogonal",
                witness={"pair": [i, j]},
            )
    return coeffs


def dense_block_decompose(group, table=None, seed=0, tol=None):
    """Matrix units built in the full n-dimensional space: the spectral
    projections of p X p for a random self-adjoint X give the minimal
    projections of each block, and polar decompositions of sandwiched
    random elements give the partial isometries between them."""
    from groupstates.characters import character_table, minimal_central_projections
    from groupstates.errors import DecompositionFailure
    from groupstates.groups import algebra_matrix
    from groupstates.linalg import DEFAULT_TOL
    from groupstates.posdef import random_hermitian_symmetric
    from groupstates.vn import (
        _CLUSTER_GAP,
        _MAX_RETRIES,
        BlockDecomposition,
        _verify_decomposition,
    )

    tol = DEFAULT_TOL if tol is None else tol
    if table is None:
        table = character_table(group)
    projections = minimal_central_projections(group, table, tol)
    rng = np.random.default_rng(seed)
    n = group.order

    units = []
    for pi, proj in enumerate(projections):
        d = table.dims[pi]
        if d == 1:
            units.append(proj.coeffs.reshape(1, 1, n).copy())
            continue
        p = proj.matrix

        block_units = None
        for _ in range(_MAX_RETRIES):
            x = p @ algebra_matrix(group, random_hermitian_symmetric(group, rng).values) @ p
            x = (x + x.conj().T) / 2
            evals, vecs = np.linalg.eigh(x)
            scale = max(float(np.abs(evals).max()), 1.0)
            nonzero = np.abs(evals) > _CLUSTER_GAP * scale
            if int(nonzero.sum()) != d * d:
                continue
            clusters = cluster_spectrum(evals[nonzero], scale)
            if len(clusters) != d or any(len(c) != d for c in clusters):
                continue
            sub = vecs[:, nonzero]
            minimal = [
                np.ascontiguousarray(sub[:, c] @ sub[:, c].conj().T)
                for c in clusters
            ]

            y = algebra_matrix(group, random_hermitian_symmetric(group, rng).values)
            isometries = [minimal[0]]
            ok = True
            for j in range(1, d):
                b = minimal[j] @ y @ minimal[0]
                u, s, vh = np.linalg.svd(b)
                if s[d - 1] <= _CLUSTER_GAP * max(float(s[0]), 1.0):
                    ok = False
                    break
                isometries.append(u[:, :d] @ vh[:d, :])
            if not ok:
                continue
            # coefficients of e_jk = I_j I_k^*: its identity column,
            # I_j @ conj(I_k[e, :])
            stack = np.stack(isometries)
            block_units = (stack @ stack[:, group.identity, :].conj().T).transpose(0, 2, 1)
            break
        if block_units is None:
            raise DecompositionFailure(
                f"no usable spectrum for block {pi} after {_MAX_RETRIES} retries",
                witness={"irrep": pi, "retries": _MAX_RETRIES},
            )
        units.append(block_units)

    decomp = BlockDecomposition(group, table, units)
    _verify_decomposition(decomp, tol)
    return decomp


def gram_psd_verdict(fn, tol=None):
    """The dense Gram eigen-test: linalg.is_psd of the n x n Gram matrix."""
    from groupstates.linalg import DEFAULT_TOL, is_psd

    return is_psd(literal_gram_matrix(fn), DEFAULT_TOL if tol is None else tol)


def dense_a_norm(fn):
    """A-norm from the dense n x n density: its absolute eigenvalues
    summed and divided by n."""
    from groupstates.groups import algebra_matrix

    density = algebra_matrix(fn.group, fn.values)
    density = (density + density.conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(density)).sum()) / fn.group.order


def rebuilt_block_verdict(group, coeffs, tol=None):
    """Fourier-block PSD verdict from a decomposition rebuilt for this call:
    every symmetrized block through linalg.is_psd, PSD iff each block's
    smallest eigenvalue clears the Gram cutoff eig_tol * n * max|phi|.
    It calls block_decompose as bound when this module was imported, so a
    test counting the library's calls does not count the oracle's."""
    from groupstates.linalg import DEFAULT_TOL, PsdVerdict, is_psd

    tol = DEFAULT_TOL if tol is None else tol
    blocks = _block_decompose(group, tol=tol).from_coefficients(coeffs)
    wmin = min(is_psd((b + b.conj().T) / 2, tol).witness for b in blocks)
    cutoff = tol.eig_tol * group.order * float(np.abs(coeffs).max())
    return PsdVerdict(wmin >= -cutoff, wmin, abs(wmin) <= 10 * cutoff, cutoff)


def closure_generating_set(group):
    """Greedy generating set in element order, each generated subgroup
    closed under products in both orders one element pair at a time."""
    gens = []
    generated = {group.identity}
    for s in range(group.order):
        if s in generated:
            continue
        gens.append(s)
        frontier = list(generated | {s})
        generated.add(s)
        while frontier:
            nxt = []
            for a in frontier:
                for b in list(generated):
                    for c in (group.mul(a, b), group.mul(b, a)):
                        if c not in generated:
                            generated.add(c)
                            nxt.append(c)
            frontier = nxt
        if len(generated) == group.order:
            break
    return gens


def first_nonassociative_triple(table):
    """The first (a, b, c) in lexicographic order with (a b) c != a (b c),
    over all n^3 triples, or None: one O(n^2) slab per a."""
    table = np.asarray(table)
    for a in range(len(table)):
        lhs = table[table[a], :]
        rhs = table[a][table]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            return a, int(b), int(c)
    return None


def _model_table(elems, op):
    """Cayley table of a model: one op call and one dict lookup per pair."""
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = index[op(x, y)]
    return table


_QUATERNION_UNITS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def model_group_table(kind, n=None):
    """(table, labels) of the dihedral, quaternion or symmetric model,
    built pair by pair from tuples as the library once did."""
    if kind == "dihedral":
        def op(x, y):
            i, f = x
            j, g = y
            return ((i + j) % n if f == 0 else (i - j) % n, f ^ g)

        elems = [(i, f) for f in (0, 1) for i in range(n)]
        labels = tuple(f"r^{i}" if f == 0 else f"s*r^{i}" for i, f in elems)
    elif kind == "quaternion":
        def op(x, y):
            sz, az = _QUATERNION_UNITS[(x[1], y[1])]
            return (x[0] * y[0] * sz, az)

        elems = [(s, a) for a in range(4) for s in (1, -1)]
        base = ["1", "i", "j", "k"]
        labels = tuple(base[a] if s == 1 else "-" + base[a] for s, a in elems)
    elif kind == "symmetric":
        def op(p, q):
            return tuple(p[q[i]] for i in range(n))

        elems = list(itertools.permutations(range(n)))
        labels = tuple("".join(map(str, p)) for p in elems)
    else:
        raise ValueError(kind)
    return _model_table(elems, op), labels


def tuple_permutation_closure(gens):
    """(elements, table) of the breadth-first closure of permutation
    generators, one tuple composition per element pair."""
    gens = [tuple(int(x) for x in p) for p in gens]
    m = len(gens[0])
    ident = tuple(range(m))
    index = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for p in gens:
                z = tuple(p[x[i]] for i in range(m))
                if z not in index:
                    index[z] = len(elems)
                    elems.append(z)
                    nxt.append(z)
        frontier = nxt
    table = _model_table(elems, lambda x, y: tuple(x[y[t]] for t in range(m)))
    return elems, table


def identity_and_inverses(table):
    """The two-sided identity and every inverse, read entry by entry."""
    table = np.asarray(table).tolist()
    n = len(table)
    e = next(
        s for s in range(n)
        if all(table[s][t] == t and table[t][s] == t for t in range(n))
    )
    return e, [next(t for t in range(n) if table[s][t] == e) for s in range(n)]


def dense_from_algebra(decomp, mat):
    """Block coordinates of an n x n matrix by the literal trace formula:
    entry (j, k) of block pi is tr(e^pi_kj m) / d_pi."""
    idx = decomp.group.cayley[:, decomp.group.inverses]
    m = np.asarray(mat, dtype=complex)
    return [
        np.einsum("kjab,ba->jk", u[..., idx], m) / d
        for u, d in zip(decomp.units, decomp.block_dims)
    ]


def dense_to_algebra(decomp, blocks):
    """Matrix of sum_pi sum_jk blocks[pi][j, k] e^pi_jk, unit by unit."""
    idx = decomp.group.cayley[:, decomp.group.inverses]
    return sum(np.einsum("jk,jkab->ab", b, u[..., idx]) for u, b in zip(decomp.units, blocks))


def dense_projection_residuals(mat):
    """Hermitian and idempotent residuals of an n x n matrix, and the rank
    of its Hermitian part: the number of eigenvalues above 1/2."""
    m = np.asarray(mat, dtype=complex)
    herm = float(np.abs(m - m.conj().T).max())
    idem = float(np.abs(m @ m - m).max())
    rank = int(np.sum(np.linalg.eigvalsh((m + m.conj().T) / 2) > 0.5))
    return herm, idem, rank


class IndexOutOfRange(DomainError):
    """An element index outside 0..n-1, raised by regular_representation."""


def regular_representation(group, s):
    """Left translation by s as a 0/1 permutation matrix: row t has its 1
    in column s^-1 t, so the point mass at u goes to the one at s u."""
    n = group.order
    if not (0 <= s < n):
        raise IndexOutOfRange(
            f"element index {s} out of range for order {n}",
            witness={"index": s, "order": n},
        )
    mat = np.zeros((n, n), dtype=complex)
    mat[np.arange(n), group.cayley[group.inverses[s]]] = 1.0
    return mat


def algebra_coefficients(group, mat):
    """Coefficients of an algebra element given as a matrix: its column at
    the identity.  Valid only on the regular-representation image."""
    return np.asarray(mat, dtype=complex)[:, group.identity].copy()


def membership_residual(group, mat, coeffs=None):
    """Distance from a matrix to the regular-representation image of
    ``coeffs``, or of its own identity column when none are given."""
    from groupstates.groups import algebra_matrix

    m = np.asarray(mat, dtype=complex)
    if coeffs is None:
        coeffs = algebra_coefficients(group, m)
    return float(np.abs(m - algebra_matrix(group, coeffs)).max())


def trace_norm(a):
    """Sum of singular values."""
    m = np.asarray(a, dtype=complex)
    return float(np.linalg.svd(m, compute_uv=False).sum()) if m.size else 0.0


def matrix_from_json(obj):
    """Inverse of jsonio.matrix_to_json."""
    re = np.asarray(obj["re"], dtype=float)
    im = np.asarray(obj.get("im", np.zeros_like(re)), dtype=float)
    return (re + 1j * im).reshape(obj["rows"], obj["cols"])


def loop_random_hermitian_symmetric(group, rng):
    """Random Hermitian-symmetric phi with phi(e) = 1, one scalar normal
    draw per self-inverse element and two per pair {s, s^-1}, in element
    order."""
    from groupstates.posdef import GroupFunction

    n = group.order
    v = np.zeros(n, dtype=complex)
    for s in range(n):
        t = group.inv(s)
        if s > t:
            continue
        if s == t:
            v[s] = rng.normal()
        else:
            z = rng.normal() + 1j * rng.normal()
            v[s] = z
            v[t] = np.conj(z)
    v[group.identity] = 1.0
    return GroupFunction(group, v)


def literal_block_layout(dims):
    """The stacked layout of d x d blocks of dimensions ``dims``, one entry
    (pi, j, k) at a time: each block's rows, then per row its block,
    whether j = k and the row of entry (pi, k, j), and the maximal runs of
    equal dimension as (d, blocks, rows)."""
    rows, block_of_row, diagonal, transposed, runs = [], [], [], [], []
    start = 0
    for pi, d in enumerate(dims):
        rows.append(slice(start, start + d * d))
        for j in range(d):
            for k in range(d):
                block_of_row.append(pi)
                diagonal.append(j == k)
                transposed.append(start + k * d + j)
        if runs and runs[-1][0] == d:
            runs[-1][1].append(pi)
        else:
            runs.append((d, [pi]))
        start += d * d
    runs = [(d, blocks, slice(rows[blocks[0]].start, rows[blocks[-1]].stop)) for d, blocks in runs]
    return rows, block_of_row, diagonal, transposed, runs


def gathered_fourier(decomp):
    """The group Fourier transform as one n x n matrix, from the units
    alone: row (pi, j, k) is (n / d_pi) u^pi_kj(s^-1) over s, so that
    ``decomp.forward(c)`` is this matrix times c up to rounding."""
    n, inv = decomp.group.order, decomp.group.inverses
    return np.concatenate([
        (n / d) * u.transpose(1, 0, 2).reshape(d * d, n)[:, inv]
        for u, d in zip(decomp.units, decomp.block_dims)
    ])


def block_spectra(decomp, coeffs):
    """Ascending eigenvalues of each symmetrized block of
    sum_s coeffs[s] lambda_s on ``decomp``, as the function with these
    values reads them (in its canonical units), scaled back exactly."""
    from groupstates.posdef import GroupFunction

    fn = GroupFunction(decomp.group, coeffs)
    e = fn._canonical()[0]
    return [np.ldexp(w, e) for w in fn._spectra(decomp)]


def to_coefficients(decomp, blocks):
    """Coefficients of sum_pi sum_jk blocks[pi][j, k] e^pi_jk: the inverse
    transform of the stacked blocks."""
    flat = np.concatenate([np.asarray(b, dtype=complex).reshape(-1) for b in blocks])
    return decomp.inverse(flat)


def complementary_split_face(face, tol=None):
    """The complementary split face, supported by 1 - p; raises NotCentral
    for a face whose projection is not central.  It carries no irreps tag,
    since subset bookkeeping is relative to the full enumeration."""
    from groupstates.faces import FaceDescriptor, _centrality_deviation, _require_central
    from groupstates.linalg import DEFAULT_TOL

    group = face.group
    _require_central(_centrality_deviation(group, face.coeffs), tol or DEFAULT_TOL)
    coeffs = -face.coeffs.copy()
    coeffs[group.identity] += 1.0
    return FaceDescriptor(group, coeffs, None, True, True, irreps=None)


def inverse_descriptor(desc):
    """The descriptor of the inverse map: sigma^-1, and for each target
    block the adjoint unitary, or its transpose where the block was
    transposed (x -> u x^T u* inverts to x -> u^T x^T conj(u))."""
    from groupstates.vn import AffineHomeoDescriptor

    k = len(desc.sigma)
    unitaries, transpose = [None] * k, [False] * k
    for pi, target in enumerate(desc.sigma):
        u = desc.unitaries[pi]
        unitaries[target] = u.T if desc.transpose[pi] else u.conj().T
        transpose[target] = desc.transpose[pi]
    inv_sigma = tuple(int(x) for x in np.argsort(np.asarray(desc.sigma)))
    return AffineHomeoDescriptor(inv_sigma, tuple(unitaries), tuple(transpose))


def coefficient_face_chain(decomp, pi, tol=None):
    """The chain e_11 <= e_11 + e_22 <= ... of block pi certified in
    coefficient space, one element at a time: each partial sum passes
    groups.check_projection, its rank n q(e) grows strictly, and
    max|q_{j-1} q_j - q_{j-1}| stays within residual_tol.  Returns the
    projections, the ranks and the largest Hermitian, idempotent and order
    residuals; raises ConvergenceFailure as the checks fail."""
    from groupstates.errors import ConvergenceFailure
    from groupstates.groups import check_projection, convolve
    from groupstates.linalg import DEFAULT_TOL

    tol = tol or DEFAULT_TOL
    group = decomp.group
    n = group.order
    running = np.zeros(n, dtype=complex)
    projections, ranks, worst = [], [], [0.0, 0.0, 0.0]
    for j in range(decomp.block_dims[pi]):
        running = running + decomp.units[pi][j, j]
        herm, idem = check_projection(group, running, tol, what=f"chain element {j}")
        rank = int(round(n * running[group.identity].real))
        if ranks and rank <= ranks[-1]:
            raise ConvergenceFailure("chain ranks not strictly increasing", witness={"rank": rank})
        order = 0.0
        if projections:
            prev = projections[-1]
            order = float(np.abs(convolve(group, prev, running) - prev).max())
        if order > tol.residual_tol:
            raise ConvergenceFailure("chain order violated", witness={"deviation": order})
        worst = [max(worst[0], herm), max(worst[1], idem), max(worst[2], order)]
        projections.append(running)
        ranks.append(rank)
    return projections, ranks, tuple(worst)
