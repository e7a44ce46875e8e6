"""Block structure of the group algebra and the affine maps it induces.

The group algebra of a finite group is a direct sum of full matrix blocks,
one per irreducible character, of sizes d_pi with sum of squares |G|.  The
multiset {d_pi} classifies the algebra up to *-isomorphism.  A block
decomposition is one n x n group Fourier transform between coefficient
vectors and stacked block entries, so matching block structures of two
groups give explicit affine homeomorphisms between their spaces of
normalized positive definite functions as one matrix product.  The last
section fits a black-box affine map back to its (permutation, unitary,
transpose-flag) block description.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .characters import CharacterTable, character_table, minimal_central_projections
from .errors import (
    ConvergenceFailure,
    DecompositionFailure,
    DimensionMismatch,
    FitFailure,
    GroupMismatch,
    NotAffine,
    NotIsomorphic,
)
from .groups import FiniteGroup, algebra_matrix, generating_set, same_group
from .linalg import DEFAULT_TOL, Tolerance, polar_unitary
from .posdef import GroupFunction, convex_combine, random_p1

_CLUSTER_GAP = 1e-6


@dataclass(frozen=True)
class VNInvariant:
    """Sorted multiset of block dimensions; the *-isomorphism invariant."""

    dims: tuple[int, ...]

    def __post_init__(self):
        if not self.dims:
            raise ValueError("invariant must be nonempty")
        if list(self.dims) != sorted(self.dims):
            raise ValueError("dimensions must be sorted ascending")
        if 1 not in self.dims:
            raise ValueError("the trivial block of dimension 1 is always present")

    @property
    def order(self) -> int:
        return sum(d * d for d in self.dims)

    def multiplicities(self) -> dict[int, int]:
        return dict(sorted(Counter(self.dims).items()))


def vn_invariant(group: FiniteGroup, seed: int = 0, table: CharacterTable | None = None) -> VNInvariant:
    if table is None:
        table = character_table(group, seed=seed)
    return VNInvariant(tuple(sorted(table.dims)))


@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    invariant_g: VNInvariant
    invariant_h: VNInvariant


def vn_isomorphic(g: FiniteGroup, h: FiniteGroup, seed: int = 0) -> IsoVerdict:
    """Group von Neumann algebras are isomorphic iff the invariants match."""
    inv_g = vn_invariant(g, seed)
    inv_h = vn_invariant(h, seed)
    return IsoVerdict(inv_g.dims == inv_h.dims, inv_g, inv_h)


# --------------------------------------------------------------------------
# numerical block decomposition
# --------------------------------------------------------------------------

@dataclass(eq=False)
class BlockDecomposition:
    """Matrix units e^pi_{jk} realizing the group algebra as matrix blocks.

    ``units[pi]`` has shape (d, d, n): the coefficient vectors of the matrix
    units of block pi, n^2 numbers over all blocks.  Stacked over the index
    (pi, j, k) they are the columns of ``inverse_transform``; its inverse
    ``transform`` is the group Fourier transform, with
    ``transform[(pi, j, k), s] = (n / d_pi) u^pi_{kj}(s^{-1})``, which takes
    a coefficient vector to its stacked blocks.  The embedding in both
    directions is exposed through to_coefficients / from_coefficients (and
    the n x n matrix variants to_algebra / from_algebra), and is a verified
    *-isomorphism.
    """

    group: FiniteGroup
    table: CharacterTable
    units: list[np.ndarray]
    seed: int
    transform: np.ndarray = field(init=False, repr=False)
    inverse_transform: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = self.group.order
        dims = self.block_dims
        offsets = np.cumsum([0] + [d * d for d in dims])
        self._rows = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
        stacked = np.concatenate([u.reshape(-1, n) for u in self.units])
        self.units = [stacked[rows].reshape(d, d, n) for rows, d in zip(self._rows, dims)]
        self.inverse_transform = stacked.T
        swapped = np.concatenate([u.transpose(1, 0, 2).reshape(-1, n) for u in self.units])
        weights = np.repeat([n / d for d in dims], [d * d for d in dims])
        self.transform = weights[:, None] * swapped[:, self.group.inverses]

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self.table.dims

    @property
    def num_blocks(self) -> int:
        return len(self.units)

    def unit_matrix(self, pi: int, j: int, k: int) -> np.ndarray:
        return algebra_matrix(self.group, self.units[pi][j, k])

    def unit_coeffs(self, pi: int, j: int, k: int) -> np.ndarray:
        return self.units[pi][j, k].copy()

    def _split(self, stacked: np.ndarray) -> list[np.ndarray]:
        return [
            stacked[rows].reshape(d, d)
            for rows, d in zip(self._rows, self.block_dims)
        ]

    def to_coefficients(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Coefficients of sum_pi sum_jk blocks[pi][j, k] e^pi_{jk}."""
        if len(blocks) != self.num_blocks:
            raise DimensionMismatch(
                f"got {len(blocks)} blocks, the decomposition has {self.num_blocks}",
                witness={"blocks": len(blocks), "expected": self.num_blocks},
            )
        flat = []
        for pi, raw in enumerate(blocks):
            b = np.asarray(raw, dtype=complex)
            d = self.block_dims[pi]
            if b.shape != (d, d):
                raise DimensionMismatch(
                    f"block {pi} has shape {b.shape}, expected {(d, d)}",
                    witness={"block": pi},
                )
            flat.append(b.reshape(-1))
        return self.inverse_transform @ np.concatenate(flat)

    def to_algebra(self, blocks: Sequence[np.ndarray]) -> np.ndarray:
        """Matrix of sum_pi sum_jk blocks[pi][j, k] e^pi_{jk}."""
        return algebra_matrix(self.group, self.to_coefficients(blocks))

    def from_algebra(self, mat: np.ndarray) -> list[np.ndarray]:
        """Block coordinates of an n x n matrix by the trace formula.

        Entry (j, k) of block pi is tr(e^pi_{kj} x) / d_pi; the normalized
        trace of a diagonal unit is d_pi / |G|.  Only the sums
        w(s) = sum_b x[b, s b] enter, so any matrix is accepted, and a
        member of the algebra gets its exact coordinates.
        """
        m = np.asarray(mat, dtype=complex)
        n = self.group.order
        if m.shape != (n, n):
            raise DimensionMismatch(
                f"matrix has shape {m.shape}, group order is {n}",
                witness={"shape": list(m.shape), "order": n},
            )
        w = m[np.arange(n), self.group.cayley].sum(axis=1)
        return self._split(self.transform @ (w[self.group.inverses] / n))

    def from_coefficients(self, coeffs) -> list[np.ndarray]:
        """Blocks of sum_s coeffs[s] lambda_s: one product with ``transform``."""
        c = np.asarray(coeffs, dtype=complex)
        if c.shape != (self.group.order,):
            raise DimensionMismatch(
                f"coefficients have shape {c.shape}, group order is {self.group.order}",
                witness={"shape": list(c.shape), "order": self.group.order},
            )
        return self._split(self.transform @ c)


def _random_hermitian_coeffs(group: FiniteGroup, rng: np.random.Generator) -> np.ndarray:
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
    return v


def _cluster_spectrum(evals: np.ndarray, scale: float) -> list[np.ndarray]:
    """Indices of eigenvalues grouped by gaps above the cluster threshold."""
    order = np.argsort(evals)
    clusters = [[order[0]]]
    for idx in order[1:]:
        if evals[idx] - evals[clusters[-1][-1]] > _CLUSTER_GAP * scale:
            clusters.append([idx])
        else:
            clusters[-1].append(idx)
    return [np.array(c) for c in clusters]


def block_decompose(
    group: FiniteGroup,
    table: CharacterTable | None = None,
    seed: int = 0,
    max_retries: int = 20,
    tol: Tolerance = DEFAULT_TOL,
) -> BlockDecomposition:
    """Construct matrix units for every block, deterministically from a seed.

    For each minimal central projection, the spectral projections of a
    random self-adjoint element of the block give the minimal projections;
    partial isometries between them come from polar decompositions of
    sandwiched random elements.  Spectral collisions trigger a resample,
    then DecompositionFailure once the retry budget is exhausted.
    """
    if table is None:
        table = character_table(group, seed=seed)
    projections = minimal_central_projections(group, table, tol)
    rng = np.random.default_rng(seed)
    n = group.order

    units: list[np.ndarray] = []
    for pi, proj in enumerate(projections):
        d = table.dims[pi]
        p = proj.matrix
        if d == 1:
            units.append(proj.coeffs.reshape(1, 1, n).copy())
            continue

        block_units = None
        for _ in range(max_retries):
            x = p @ algebra_matrix(group, _random_hermitian_coeffs(group, rng)) @ p
            x = (x + x.conj().T) / 2
            evals, vecs = np.linalg.eigh(x)
            scale = max(float(np.abs(evals).max()), 1.0)
            nonzero = np.abs(evals) > _CLUSTER_GAP * scale
            if int(nonzero.sum()) != d * d:
                continue
            clusters = _cluster_spectrum(evals[nonzero], scale)
            if len(clusters) != d or any(len(c) != d for c in clusters):
                continue
            sub = vecs[:, nonzero]
            minimal = [
                np.ascontiguousarray(sub[:, c] @ sub[:, c].conj().T)
                for c in clusters
            ]

            y = algebra_matrix(group, _random_hermitian_coeffs(group, rng))
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
                f"no usable spectrum for block {pi} after {max_retries} retries",
                witness={"irrep": pi, "retries": max_retries},
            )
        units.append(block_units)

    decomp = BlockDecomposition(group, table, units, seed)
    _verify_decomposition(decomp, tol)
    return decomp


def _verify_decomposition(decomp: BlockDecomposition, tol: Tolerance) -> None:
    """Check that the units span a *-isomorphic copy of the blocks.

    Four checks, together equivalent to the relations e_jk^* = e_kj,
    sum_pi sum_j e^pi_jj = 1 and e^pi_jk e^rho_lm = delta_{pi rho}
    delta_kl e^pi_jm over all pairs of units: once the transform inverts the
    units and is multiplicative on a generating set, it is an algebra
    isomorphism sending each unit to its matrix unit, and the adjoint check
    makes it a *-isomorphism.  Cost O(n^3) instead of O(n^5).
    """
    group = decomp.group
    n = group.order
    bound = 10 * tol.residual_tol
    for pi, u in enumerate(decomp.units):
        adj = np.abs(u[:, :, group.inverses].conj() - u.transpose(1, 0, 2)).max(axis=2)
        j, k = (int(x) for x in np.unravel_index(int(np.argmax(adj)), adj.shape))
        if adj[j, k] > bound:
            raise DecompositionFailure(
                f"unit ({pi},{j},{k}) fails the adjoint check (adjoint {adj[j, k]:.2e})",
                witness={"unit": [pi, j, k], "adjoint": float(adj[j, k])},
            )
    total = sum(np.einsum("jjs->s", u) for u in decomp.units)
    total[group.identity] -= 1.0
    if float(np.abs(total).max()) > bound:
        raise DecompositionFailure(
            "diagonal units do not sum to the identity",
            witness={"residual": float(np.abs(total).max())},
        )
    gram = np.abs(decomp.transform @ decomp.inverse_transform - np.eye(n))
    row, col = (int(x) for x in np.unravel_index(int(np.argmax(gram)), gram.shape))
    if gram[row, col] > bound:
        labels = [
            [pi, j, k]
            for pi, d in enumerate(decomp.block_dims)
            for j in range(d)
            for k in range(d)
        ]
        raise DecompositionFailure(
            f"transform does not invert the units at row {tuple(labels[row])}, "
            f"column {tuple(labels[col])} (residual {gram[row, col]:.2e})",
            witness={"row": labels[row], "column": labels[col], "residual": float(gram[row, col])},
        )
    f = decomp.transform
    for g in generating_set(group) or [group.identity]:
        # F(lambda_g x) = F(lambda_g) F(x) blockwise, for every x at once
        shifted = f[:, group.cayley[g]]
        for pi, (rows, b) in enumerate(zip(decomp._rows, decomp._split(f[:, g]))):
            d = b.shape[0]
            expected = (b @ f[rows].reshape(d, d * n)).reshape(d * d, n)
            residual = float(np.abs(shifted[rows] - expected).max())
            if residual > bound:
                raise DecompositionFailure(
                    f"transform is not multiplicative at generator {g} in block {pi} "
                    f"(residual {residual:.2e})",
                    witness={"generator": g, "block": pi, "residual": residual},
                )


def pure_state_function(
    decomp: BlockDecomposition, pi: int, vector
) -> GroupFunction:
    """The pure state living in block pi with unit vector ``vector``."""
    v = np.asarray(vector, dtype=complex)
    d = decomp.block_dims[pi]
    if v.shape != (d,):
        raise DimensionMismatch(
            f"vector has shape {v.shape}, block dimension is {d}",
            witness={"block": pi},
        )
    v = v / np.linalg.norm(v)
    n = decomp.group.order
    blocks = [np.zeros((dd, dd), dtype=complex) for dd in decomp.block_dims]
    blocks[pi] = (n / d) * np.outer(v, v.conj())
    return GroupFunction(decomp.group, decomp.to_coefficients(blocks))


def central_state_function(table: CharacterTable, pi: int) -> GroupFunction:
    """The normalized-trace state of block pi, phi = conj(chi_pi) / d_pi."""
    return GroupFunction(
        table.group, np.conj(table.char_values(pi)) / table.dims[pi]
    )


# --------------------------------------------------------------------------
# affine homeomorphisms between the P1 sets of two groups
# --------------------------------------------------------------------------

@dataclass(eq=False)
class AffineHomeomorphism:
    """A linear coefficient map implementing P1(G) -> P1(H) with inverse.

    ``matching[pi]`` names the block of H that block pi of G is carried to;
    the choice of matching and of matrix units is a genuine degree of
    freedom, reported rather than normalized.
    """

    source: FiniteGroup
    target: FiniteGroup
    matching: tuple[int, ...]
    forward_matrix: np.ndarray
    backward_matrix: np.ndarray

    def forward(self, fn: GroupFunction) -> GroupFunction:
        if not same_group(fn.group, self.source):
            raise GroupMismatch("function not on the source group", witness={})
        return GroupFunction(self.target, self.forward_matrix @ fn.values)

    def backward(self, fn: GroupFunction) -> GroupFunction:
        if not same_group(fn.group, self.target):
            raise GroupMismatch("function not on the target group", witness={})
        return GroupFunction(self.source, self.backward_matrix @ fn.values)


def _matching_by_dimension(
    dims_g: Sequence[int], dims_h: Sequence[int]
) -> tuple[int, ...]:
    by_dim: dict[int, list[int]] = {}
    for pi, d in enumerate(dims_h):
        by_dim.setdefault(d, []).append(pi)
    matching = []
    cursor = {d: 0 for d in by_dim}
    for d in dims_g:
        matching.append(by_dim[d][cursor[d]])
        cursor[d] += 1
    return tuple(matching)


def _coefficient_transport(
    src: BlockDecomposition, dst: BlockDecomposition, matching: Sequence[int]
) -> np.ndarray:
    """Coefficient map carrying block pi of src onto block matching[pi] of dst."""
    rows = np.r_[tuple(dst._rows[m] for m in matching)]
    return dst.inverse_transform[:, rows] @ src.transform


def construct_affine_homeomorphism(
    g: FiniteGroup,
    h: FiniteGroup,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
) -> AffineHomeomorphism:
    """Explicit affine homeomorphism P1(G) -> P1(H) from matched blocks.

    Densities are pushed through the block identification; the resulting
    map on coefficient vectors is linear, and its inverse is built the same
    way from the reversed matching.
    """
    table_g = character_table(g, seed=seed)
    table_h = character_table(h, seed=seed)
    inv_g = vn_invariant(g, table=table_g)
    inv_h = vn_invariant(h, table=table_h)
    if inv_g.dims != inv_h.dims:
        raise NotIsomorphic(
            f"invariants differ: {list(inv_g.dims)} vs {list(inv_h.dims)}",
            witness={"invariant_g": list(inv_g.dims), "invariant_h": list(inv_h.dims)},
        )
    decomp_g = block_decompose(g, table_g, seed=seed, tol=tol)
    decomp_h = block_decompose(h, table_h, seed=seed, tol=tol)
    matching = _matching_by_dimension(table_g.dims, table_h.dims)
    reverse = tuple(int(x) for x in np.argsort(np.asarray(matching)))

    forward = _coefficient_transport(decomp_g, decomp_h, matching)
    backward = _coefficient_transport(decomp_h, decomp_g, reverse)
    roundtrip = float(np.abs(backward @ forward - np.eye(g.order)).max())
    if roundtrip > 100 * tol.residual_tol:
        raise ConvergenceFailure(
            f"forward/backward transport round trip residual {roundtrip:.3e}",
            witness={"residual": roundtrip},
        )
    return AffineHomeomorphism(g, h, matching, forward, backward)


@dataclass(frozen=True)
class HomeoFactor:
    dim: int
    multiplicity: int
    block_group: str
    label_permutations: str


@dataclass(frozen=True)
class HomeoGroupDescription:
    """Symbolic description of the affine homeomorphism group of P1(G)."""

    invariant: VNInvariant
    factors: tuple[HomeoFactor, ...]
    component_count: int

    def text(self) -> str:
        parts = [
            f"dim {f.dim} x{f.multiplicity}: {f.block_group} per block, "
            f"wreathed by {f.label_permutations}"
            for f in self.factors
        ]
        return (
            "; ".join(parts) + f"; connected components: {self.component_count}"
        )


def homeo_group_description(
    group: FiniteGroup, seed: int = 0
) -> HomeoGroupDescription:
    """Structure of the affine homeomorphism group of P1(G).

    Per block of dimension d >= 2 the symmetry is the projective unitary
    group extended by the transpose involution; 1-dimensional blocks are
    rigid.  Blocks of equal dimension may additionally be permuted.
    """
    inv = vn_invariant(group, seed)
    factors = []
    count = 1
    for d, m in inv.multiplicities().items():
        block = "PU(%d) x Z/2" % d if d >= 2 else "trivial"
        factors.append(
            HomeoFactor(
                dim=d,
                multiplicity=m,
                block_group=block,
                label_permutations=f"S_{m}",
            )
        )
        count *= math.factorial(m) * (2 if d >= 2 else 1) ** m
    return HomeoGroupDescription(inv, tuple(factors), count)


# --------------------------------------------------------------------------
# Jordan block descriptors: apply and recover
# --------------------------------------------------------------------------

@dataclass(eq=False)
class AffineHomeoDescriptor:
    """(sigma, unitaries, transpose flags): a Jordan automorphism blockwise.

    Block pi maps onto block sigma[pi] by x -> u x u* or x -> u x^T u*.
    For 1-dimensional blocks the unitary is an irrelevant phase and the
    transpose flag is canonicalized to False.
    """

    sigma: tuple[int, ...]
    unitaries: tuple[np.ndarray, ...]
    transpose: tuple[bool, ...]

    def __post_init__(self):
        k = len(self.sigma)
        if sorted(self.sigma) != list(range(k)):
            raise DimensionMismatch(
                "sigma is not a permutation", witness={"sigma": list(self.sigma)}
            )
        if len(self.unitaries) != k or len(self.transpose) != k:
            raise DimensionMismatch(
                "descriptor component counts differ",
                witness={
                    "sigma": k,
                    "unitaries": len(self.unitaries),
                    "transpose": len(self.transpose),
                },
            )
        dims = [u.shape[0] for u in self.unitaries]
        for pi, u in enumerate(self.unitaries):
            if u.ndim != 2 or u.shape[0] != u.shape[1]:
                raise DimensionMismatch(
                    f"unitary {pi} is not square", witness={"block": pi}
                )
            if dims[self.sigma[pi]] != dims[pi]:
                raise DimensionMismatch(
                    f"sigma does not preserve dimensions at block {pi}",
                    witness={"block": pi},
                )
        self.transpose = tuple(
            flag if dims[pi] >= 2 else False
            for pi, flag in enumerate(self.transpose)
        )

    @property
    def dims(self) -> tuple[int, ...]:
        return tuple(u.shape[0] for u in self.unitaries)


def apply_descriptor(
    desc: AffineHomeoDescriptor,
    fn: GroupFunction,
    decomp: BlockDecomposition,
) -> GroupFunction:
    """Push a function through the Jordan automorphism the descriptor names.

    The density transforms blockwise as B -> u B u* (or u B^T u*), landing
    in block sigma[pi]; transposition preserves positivity, so the image
    stays inside P1.
    """
    if desc.dims != decomp.block_dims:
        raise DimensionMismatch(
            f"descriptor dims {desc.dims} do not match decomposition "
            f"{decomp.block_dims}",
            witness={"descriptor": list(desc.dims), "decomposition": list(decomp.block_dims)},
        )
    blocks = decomp.from_coefficients(fn.values)
    pushed = [np.zeros((d, d), dtype=complex) for d in decomp.block_dims]
    for pi, b in enumerate(blocks):
        u = desc.unitaries[pi]
        body = b.T if desc.transpose[pi] else b
        pushed[desc.sigma[pi]] = u @ body @ u.conj().T
    return GroupFunction(decomp.group, decomp.to_coefficients(pushed))


def inverse_descriptor(desc: AffineHomeoDescriptor) -> AffineHomeoDescriptor:
    """The descriptor of the inverse map: (sigma^{-1}, adapted unitaries)."""
    k = len(desc.sigma)
    inv_sigma = tuple(int(x) for x in np.argsort(np.asarray(desc.sigma)))
    unitaries = [None] * k
    transpose = [False] * k
    for pi in range(k):
        target = desc.sigma[pi]
        u = desc.unitaries[pi]
        if desc.transpose[pi]:
            # inverse of x -> u x^T u* is x -> (u* x u)^T = u^T x^T conj(u)
            unitaries[target] = u.T
            transpose[target] = True
        else:
            unitaries[target] = u.conj().T
            transpose[target] = False
    return AffineHomeoDescriptor(inv_sigma, tuple(unitaries), tuple(transpose))


def random_descriptor(
    decomp: BlockDecomposition, rng: np.random.Generator
) -> AffineHomeoDescriptor:
    """Random dimension-preserving descriptor (for round-trip testing)."""
    dims = decomp.block_dims
    k = len(dims)
    sigma = np.arange(k)
    by_dim: dict[int, list[int]] = {}
    for pi, d in enumerate(dims):
        by_dim.setdefault(d, []).append(pi)
    for d, idxs in by_dim.items():
        perm = rng.permutation(len(idxs))
        for a, b in zip(idxs, perm):
            sigma[a] = idxs[b]
    unitaries = []
    transpose = []
    for d in dims:
        if d == 1:
            unitaries.append(np.ones((1, 1), dtype=complex))
            transpose.append(False)
        else:
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = np.linalg.qr(z)
            q = q * (np.diag(r) / np.abs(np.diag(r)))
            unitaries.append(q)
            transpose.append(bool(rng.integers(2)))
    return AffineHomeoDescriptor(tuple(int(x) for x in sigma), tuple(unitaries), tuple(transpose))


def canonical_phase(u: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Scale a unitary so the first nonzero entry of column 0 is real > 0."""
    col = u[:, 0]
    for entry in col:
        if abs(entry) > tol:
            return u * (np.conj(entry) / abs(entry))
    return u.copy()


def _density_frame(d: int) -> list[np.ndarray]:
    """d^2 density matrices spanning M_d: E_jj and two-level superpositions."""
    frame = []
    for j in range(d):
        e = np.zeros((d, d), dtype=complex)
        e[j, j] = 1.0
        frame.append(e)
    for j in range(d):
        for k in range(j + 1, d):
            re = np.zeros((d, d), dtype=complex)
            re[j, j] = re[k, k] = 0.5
            re[j, k] = re[k, j] = 0.5
            frame.append(re)
            im = np.zeros((d, d), dtype=complex)
            im[j, j] = im[k, k] = 0.5
            im[k, j] = 0.5j
            im[j, k] = -0.5j
            frame.append(im)
    return frame


def _matrix_unit_images(
    frame_images: list[np.ndarray], d: int
) -> np.ndarray:
    """Images M(E_jk) of all matrix units, from images of the frame."""
    out = np.empty((d, d, d, d), dtype=complex)
    diag = frame_images[:d]
    pos = d
    for j in range(d):
        out[j, j] = diag[j]
    for j in range(d):
        for k in range(j + 1, d):
            m_re = 2.0 * frame_images[pos] - diag[j] - diag[k]
            m_im = 2.0 * frame_images[pos + 1] - diag[j] - diag[k]
            pos += 2
            # E_jk = (A + i B) / 2 and E_kj = (A - i B) / 2 where
            # A = E_jk + E_kj and B = i(E_kj - E_jk)
            out[j, k] = (m_re + 1j * m_im) / 2.0
            out[k, j] = (m_re - 1j * m_im) / 2.0
    return out


def _fit_block_map(
    unit_images: np.ndarray, d: int, tol: Tolerance
) -> tuple[np.ndarray, bool]:
    """Recover (u, transpose flag) from the linear map E_jk -> unit_images[j,k].

    The Choi matrix of a unitary conjugation is rank one with top eigenvalue
    d; for the transpose form the same holds after pre-transposing.
    """
    def choi(images: np.ndarray) -> np.ndarray:
        c = np.zeros((d * d, d * d), dtype=complex)
        for j in range(d):
            for k in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[j, k] = 1.0
                c += np.kron(e, images[j, k])
        return (c + c.conj().T) / 2

    def extract(images: np.ndarray) -> tuple[np.ndarray, float] | None:
        c = choi(images)
        w, v = np.linalg.eigh(c)
        rest = float(np.abs(w[:-1]).max()) if d > 1 else 0.0
        if abs(w[-1] - d) > 1e-6 * d or rest > 1e-6 * d:
            return None
        vec = v[:, -1] * np.sqrt(d)
        u = vec.reshape(d, d).T
        u = polar_unitary(u, tol)
        resid = 0.0
        for j in range(d):
            for k in range(d):
                e = np.zeros((d, d), dtype=complex)
                e[j, k] = 1.0
                resid = max(
                    resid, float(np.abs(u @ e @ u.conj().T - images[j, k]).max())
                )
        return u, resid

    straight = extract(unit_images)
    transposed_images = np.transpose(unit_images, (1, 0, 2, 3))
    flipped = extract(transposed_images)

    fit_bound = 1e-7
    ok_straight = straight is not None and straight[1] <= fit_bound
    ok_flipped = flipped is not None and flipped[1] <= fit_bound
    if ok_straight:
        # tie-break: if both forms fit (d = 1 or accidental symmetry),
        # report the plain automorphism
        return canonical_phase(straight[0]), False
    if ok_flipped:
        return canonical_phase(flipped[0]), True
    raise FitFailure(
        "block map fits neither unitary conjugation form",
        witness={
            "straight_residual": None if straight is None else straight[1],
            "transpose_residual": None if flipped is None else flipped[1],
        },
    )


def verify_jordan_form(
    transform: Callable[[GroupFunction], GroupFunction],
    decomp: BlockDecomposition,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    affinity_samples: int = 8,
    holdout_samples: int = 12,
) -> AffineHomeoDescriptor:
    """Fit a black-box affine self-map of P1(G) to a block descriptor.

    Affinity is verified on random mixtures first; the block permutation is
    read off the images of the central block states; each block's unitary
    and transpose flag are fitted from the images of a spanning frame of
    block-supported states.  The result reproduces the map on held-out
    samples to 1e-7 or FitFailure is raised.
    """
    group = decomp.group
    table = decomp.table
    dims = decomp.block_dims
    k = len(dims)
    n = group.order
    rng = np.random.default_rng(seed)

    for _ in range(affinity_samples):
        f1 = random_p1(group, rng)
        f2 = random_p1(group, rng)
        t = float(rng.uniform(0.2, 0.8))
        mixed = convex_combine([t, 1.0 - t], [f1, f2])
        lhs = transform(mixed).values
        rhs = t * transform(f1).values + (1.0 - t) * transform(f2).values
        dev = float(np.abs(lhs - rhs).max())
        if dev > 100 * tol.residual_tol:
            raise NotAffine(
                f"map violates affinity on samples (deviation {dev:.3e})",
                witness={"deviation": dev},
            )

    projections = minimal_central_projections(group, table, tol)
    sigma = []
    for pi in range(k):
        image = transform(central_state_function(table, pi))
        weights = [
            float(
                np.sum(proj.coeffs * image.values[group.inverses]).real
            )
            for proj in projections
        ]
        best = int(np.argmax(weights))
        if abs(weights[best] - 1.0) > 1e-6:
            raise FitFailure(
                f"image of central state {pi} is not supported in one block",
                witness={"block": pi, "weights": weights},
            )
        sigma.append(best)
    if sorted(sigma) != list(range(k)):
        raise FitFailure(
            "block images do not form a permutation", witness={"sigma": sigma}
        )
    for pi in range(k):
        if dims[sigma[pi]] != dims[pi]:
            raise FitFailure(
                "block permutation does not preserve dimensions",
                witness={"sigma": sigma, "dims": list(dims)},
            )

    unitaries = []
    transpose = []
    for pi, d in enumerate(dims):
        if d == 1:
            unitaries.append(np.ones((1, 1), dtype=complex))
            transpose.append(False)
            continue
        frame = _density_frame(d)
        images = []
        for rho in frame:
            blocks = [np.zeros((dd, dd), dtype=complex) for dd in dims]
            blocks[pi] = (n / d) * rho
            fn = GroupFunction(group, decomp.to_coefficients(blocks))
            out_blocks = decomp.from_coefficients(transform(fn).values)
            images.append((d / n) * out_blocks[sigma[pi]])
        unit_images = _matrix_unit_images(images, d)
        u, flag = _fit_block_map(unit_images, d, tol)
        unitaries.append(u)
        transpose.append(flag)

    desc = AffineHomeoDescriptor(tuple(sigma), tuple(unitaries), tuple(transpose))
    worst = 0.0
    for _ in range(holdout_samples):
        fn = random_p1(group, rng)
        reproduced = apply_descriptor(desc, fn, decomp)
        worst = max(worst, float(np.abs(reproduced.values - transform(fn).values).max()))
    if worst > 1e-7:
        raise FitFailure(
            f"fitted descriptor reproduces the map to {worst:.3e} only",
            witness={"residual": worst},
        )
    return desc


def fit_affine_map_from_pairs(
    group: FiniteGroup,
    pairs: Sequence[tuple[GroupFunction, GroupFunction]],
    tol: Tolerance = DEFAULT_TOL,
) -> Callable[[GroupFunction], GroupFunction]:
    """Interpolate sampled (input, output) state pairs by an affine map.

    Least squares over the affine model out = A in + b; the fit is only
    trusted on the affine hull of states, which is where all probes live.
    Raises NotAffine when the samples do not fit any affine map.
    """
    n = group.order
    if len(pairs) < n + 1:
        raise NotAffine(
            f"need at least {n + 1} sample pairs, got {len(pairs)}",
            witness={"pairs": len(pairs), "needed": n + 1},
        )
    x = np.stack([p[0].values for p in pairs])
    y = np.stack([p[1].values for p in pairs])
    design = np.hstack([x, np.ones((len(pairs), 1), dtype=complex)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fit_residual = float(np.abs(design @ coef - y).max())
    if fit_residual > 100 * tol.residual_tol:
        raise NotAffine(
            f"samples are not affine (residual {fit_residual:.3e})",
            witness={"residual": fit_residual},
        )
    a = coef[:-1].T
    b = coef[-1]

    def apply_fit(fn: GroupFunction) -> GroupFunction:
        if not same_group(fn.group, group):
            raise GroupMismatch("function not on the fitted group", witness={})
        return GroupFunction(group, a @ fn.values + b)

    return apply_fit
