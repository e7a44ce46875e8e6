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

import functools
import itertools
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .characters import CharacterTable, _projection_coeffs, character_table
from .errors import (
    ConvergenceFailure,
    DecompositionFailure,
    DimensionMismatch,
    FitFailure,
    GroupMismatch,
    NotAffine,
    NotIsomorphic,
)
from .groups import (
    FiniteGroup,
    _group_repr,
    _keep,
    _WeakGroup,
    cached_block_decomposition,
    conjugacy_classes,
    generating_set,
    same_group,
)
from .linalg import (
    DEFAULT_TOL, Tolerance, hermitian_spectrum, polar_unitary, pow2_scaled, solver_call,
)
from .posdef import GroupFunction, random_p1

_CLUSTER_GAP = 1e-6
# resamples per block before block_decompose gives up
_MAX_RETRIES = 20
# stream of block_decompose's sketch and split draws; no unit depends on it
_DRAWS = 0
# random right translates p lambda_u mixed into each column of a block's
# range sketch; with one or two, small groups' sketches fell short of rank
_SKETCH_TRANSLATES = 3
# support elements h of the self-adjoint y = sum_h c_h lambda_h + conj(c_h)
# lambda_{h^-1} whose right multiplication splits a block
_SPLIT_SUPPORT = 3
# random mixtures of pairs of random states tested for affinity in
# verify_jordan_form; the fitted descriptor must reproduce the map on all
# of these probes
_AFFINITY_SAMPLES = 8


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


def vn_invariant(group: FiniteGroup, table: CharacterTable | None = None) -> VNInvariant:
    if table is None:
        table = character_table(group)
    return VNInvariant(tuple(sorted(table.dims)))


@dataclass(frozen=True)
class IsoVerdict:
    isomorphic: bool
    invariant_g: VNInvariant
    invariant_h: VNInvariant


def vn_isomorphic(g: FiniteGroup, h: FiniteGroup) -> IsoVerdict:
    """Group von Neumann algebras are isomorphic iff the invariants match."""
    inv_g, inv_h = vn_invariant(g), vn_invariant(h)
    return IsoVerdict(inv_g.dims == inv_h.dims, inv_g, inv_h)


class _StackedLayout:
    """Where the d x d blocks of dimensions ``dims`` sit in a stacked vector:
    entry (pi, j, k) is row ``rows[pi].start + j d + k``.  ``block_of_row``
    and ``diagonal`` say per row which block it is in and whether j = k,
    ``transposed`` takes row (pi, j, k) to row (pi, k, j), and ``slabs``
    are the maximal runs of blocks of equal dimension d, each (d, its
    blocks, its rows), one contiguous slice of rows.  A character table's
    dims ascend, so its decomposition has one slab per dimension.  Built
    once per ``dims`` (:func:`_stacked_layout`) and read-only."""

    def __init__(self, dims: tuple[int, ...]):
        sizes = [d * d for d in dims]
        offsets = np.cumsum([0] + sizes)
        self.rows = tuple(slice(int(a), int(b)) for a, b in zip(offsets, offsets[1:]))
        self.block_of_row = np.repeat(np.arange(len(dims)), sizes)
        d = np.array(dims, dtype=np.int64)[self.block_of_row]
        j, k = np.divmod(np.arange(offsets[-1]) - offsets[self.block_of_row], d)
        self.diagonal = j == k
        self.transposed = offsets[self.block_of_row] + k * d + j
        for a in (self.block_of_row, self.diagonal, self.transposed):
            a.setflags(write=False)
        ends = [0, *itertools.accumulate(len(list(run)) for _, run in itertools.groupby(dims))]
        self.slabs = tuple(
            (dims[a], range(a, b), slice(int(offsets[a]), int(offsets[b])))
            for a, b in zip(ends, ends[1:])
        )


# bounded: descriptors read from JSON may bring any number of dims
_stacked_layout = functools.lru_cache(maxsize=32)(_StackedLayout)


# --------------------------------------------------------------------------
# numerical block decomposition
# --------------------------------------------------------------------------

@dataclass(eq=False)
class BlockDecomposition:
    """Matrix units e^pi_{jk} realizing the group algebra as matrix blocks.

    ``units[pi]`` has shape (d, d, n): the coefficient vectors of the matrix
    units of block pi, n^2 numbers over all blocks, stored once, as the
    rows of one array stacked by the layout of ``block_dims``
    (:class:`_StackedLayout`); each slab's units are a view (m, d, d, n)
    into it too.  The group Fourier transform takes a coefficient vector
    to its stacked blocks, entry (pi, j, k) of sum_s c(s) lambda_s being
    (n / d_pi) sum_s u^pi_{kj}(s^{-1}) c(s): :meth:`forward`, a gather of c
    by inverses, one product with the stacked units, the ``transposed``
    row permutation and the weights.  Its inverse, :meth:`inverse`, weights
    each unit's coefficient vector by its stacked entry.  These two methods
    are the only way to the transform, and ``from_coefficients`` splits
    the stacked blocks into blocks.  The embedding is a verified
    *-isomorphism; only the verification and the transport read the
    transform as one n x n matrix (:meth:`_fourier_matrix`), and drop it.

    ``group`` is a weak back-reference (see ``groups._WeakGroup``): the
    group keeps its decomposition, and the decomposition does not keep its
    group alive.  The hot paths read ``_order`` and ``_inverses`` instead.
    """

    group: FiniteGroup = _WeakGroup()
    table: CharacterTable
    units: list[np.ndarray]

    def __post_init__(self):
        n = self._order = self.group.order
        self._inverses = self.group.inverses
        dims = self.block_dims
        layout = self._layout = _stacked_layout(dims)
        # row (pi, j, k) is the coefficient vector of e^pi_jk
        stacked = self._stacked = np.concatenate([u.reshape(-1, n) for u in self.units])
        self.units = [stacked[rows].reshape(d, d, n) for rows, d in zip(layout.rows, dims)]
        self._slab_units = [
            stacked[rows].reshape(len(blocks), d, d, n) for d, blocks, rows in layout.slabs
        ]
        self._weights = np.repeat([n / d for d in dims], [d * d for d in dims])

    def __repr__(self) -> str:
        return f"BlockDecomposition({_group_repr(self)}, dims={self.block_dims})"

    @property
    def block_dims(self) -> tuple[int, ...]:
        return self.table.dims

    @property
    def num_blocks(self) -> int:
        return len(self.units)

    def _split(self, stacked: np.ndarray) -> list[np.ndarray]:
        return [stacked[rows].reshape(d, d) for rows, d in zip(self._layout.rows, self.block_dims)]

    def _vectors(self, values) -> np.ndarray:
        c = np.asarray(values, dtype=complex)
        if c.ndim not in (1, 2) or c.shape[-1] != self._order:
            raise DimensionMismatch(
                f"values have shape {c.shape}, group order is {self._order}",
                witness={"shape": list(c.shape), "order": self._order},
            )
        return c

    def forward(self, values) -> np.ndarray:
        """Stacked blocks of sum_s values[s] lambda_s, for one coefficient
        vector (n,) or for a stack of them, one per row (m, n)."""
        # the transposes put the entries on the first axis, so one vector
        # takes plain 1-D gathers and a stack gathers whole rows
        c = self._vectors(values).T
        return (self._stacked @ c[self._inverses])[self._layout.transposed].T * self._weights

    def inverse(self, stacked) -> np.ndarray:
        """Coefficients of the element whose stacked blocks are ``stacked``,
        one vector (n,) or one per row (m, n): :meth:`forward` undone."""
        return self._vectors(stacked) @ self._stacked

    def from_coefficients(self, coeffs) -> list[np.ndarray]:
        """Blocks of sum_s coeffs[s] lambda_s: :meth:`forward`, split."""
        return self._split(self.forward(coeffs))

    def _fourier_matrix(self) -> np.ndarray:
        """The transform as one n x n matrix, its row (pi, j, k) the units'
        row (pi, k, j) read at inverses and weighted by n / d_pi: formed for
        the verification and the transport only, and not kept."""
        # gathered rows then columns, the result Fortran-ordered: one 2-D
        # gather gives C order, and products with it round differently
        return self._weights[:, None] * self._stacked[self._layout.transposed][:, self._inverses]

    def _block_states(self, pi: int, densities: np.ndarray) -> np.ndarray:
        """Coefficients of the states whose densities (m, d, d) live in block
        pi, one row each: density B is the block (n / d) B, embedded by one
        product with the block's units."""
        d = self.block_dims[pi]
        scaled = (self._order / d) * densities.reshape(-1, d * d)
        return scaled @ self.units[pi].reshape(d * d, -1)

    def _transport_to(self, dst: BlockDecomposition) -> np.ndarray:
        """Coefficient map carrying each block onto the same block of dst,
        whose block dimensions are the same."""
        return dst._stacked.T @ self._fourier_matrix()

    def _slab_spectra(self, stacked: np.ndarray, vectors: bool):
        """Per slab (d, blocks, rows, spectrum): ``hermitian_spectrum`` of
        the slab's blocks in the stacked blocks ``stacked``, one batched solve.

        The blocks of Hermitian-symmetric coefficients are Hermitian in
        exact arithmetic; rounding in the transform grows with the
        magnitude of the coefficients, so each block is symmetrized first,
        and callers transform coefficients in canonical units
        (``linalg.canonical_exponent``).
        """
        for d, blocks, rows in self._layout.slabs:
            yield d, blocks, rows, hermitian_spectrum(
                stacked[rows].reshape(len(blocks), d, d), vectors
            )

    def block_eigh(self, coeffs) -> list[tuple[int, range, slice, np.ndarray, np.ndarray]]:
        """Eigendecompositions of the symmetrized blocks of
        sum_s coeffs[s] lambda_s, one batched ``eigh`` per slab
        (:meth:`_slab_spectra` of :meth:`forward`).

        One (d, blocks, rows, w, v) per slab, in the order of
        ``_slab_units``: ``blocks`` the range of its blocks, ``rows`` the
        slice of their stacked rows, ``w`` (blocks, d) the ascending
        eigenvalues and ``v`` (blocks, d, d) the eigenvectors as columns.
        A 1 x 1 block's eigenvalue is the real part of its entry.
        """
        spectra = self._slab_spectra(self.forward(coeffs), True)
        return [(d, blocks, rows, *wv) for d, blocks, rows, wv in spectra]


def block_decompose(
    group: FiniteGroup,
    table: CharacterTable | None = None,
    tol: Tolerance = DEFAULT_TOL,
) -> BlockDecomposition:
    """Matrix units for every block, a function of the labelled group alone.

    The blocks of each dimension d >= 2 are built together, in one batched
    pass per attempt (:func:`_block_units`); a block of dimension 1 is its
    central projection.  Each block p_pi C[G] has dimension d^2; an
    orthonormal basis of it is the QR of d^2 random mixtures of right
    translates of p_pi.  Right multiplication by a random self-adjoint
    element commutes with the left action, and its compression to the
    block has d eigenvalues of multiplicity d.  One eigenspace is a minimal
    left ideal; with W an orthonormal basis of it, lambda_s W = W rho(s)
    for an irreducible unitary representation rho, and Schur orthogonality
    gives the units e_jk = (d/n) sum_s conj(rho(s)_jk) lambda_s (Serre,
    Linear Representations of Finite Groups, 2.2 and 2.6).  rho is unique
    up to a unitary, fixed by :func:`_canonical_basis`, so no unit depends
    on the draws, the threads or the table's last bits.  Every spectral
    step is on a d^2 x d^2 matrix, and no n x n matrix is formed before
    the units are assembled.  A rank-deficient sketch or a spectral
    collision triggers a resample of that block, then DecompositionFailure
    once the retry budget is exhausted.

    Served as ``characters.character_table`` is: with no ``table`` or one on
    the group's own partition, the kept one verified at ``tol`` or tighter;
    else one is built, verified and, on that partition, kept (``groups._keep``).
    """
    own = table is None or table.partition is conjugacy_classes(group)
    decomp = cached_block_decomposition(group, tol) if own else None
    if decomp is not None:
        return decomp
    if table is None:
        table = character_table(group, tol=tol)
    coeffs = _projection_coeffs(group, table, tol)
    rng = np.random.default_rng(_DRAWS)
    n = group.order

    units: list[np.ndarray] = [None] * len(coeffs)
    tree = _cayley_layers(group) if max(table.dims) > 1 else None
    for d, blocks, _ in _stacked_layout(table.dims).slabs:
        if d == 1:
            built = coeffs[blocks].reshape(-1, 1, 1, n)
        else:
            built = _block_units(group, coeffs[blocks], blocks, d, rng, tree)
        for pi, u in zip(blocks, built):
            units[pi] = u

    decomp = BlockDecomposition(group, table, units)
    _verify_decomposition(decomp, tol)
    if own:
        _keep(group, "decomposition", tol, decomp)
    return decomp


def _block_units(
    group: FiniteGroup,
    p: np.ndarray,
    blocks: range,
    d: int,
    rng: np.random.Generator,
    tree: tuple,
) -> np.ndarray:
    """Units (m, d, d, n) of the m blocks of dimension d with central
    projections ``p`` (m, n); block_decompose passes its one stream of
    draws, ``rng`` at ``_DRAWS``, to each slab of the layout in turn.

    Each attempt runs on the blocks still pending, at most _MAX_RETRIES
    times: a block passes when its range is full rank (:func:`_block_range`)
    and it splits (:func:`_lowest_ideal`), and rho on its ideal, in its
    canonical basis (:func:`_canonical_basis`), is then multiplied out
    along the breadth-first ``tree`` of :func:`_cayley_layers`
    (:func:`_ideal_rho`).  An attempt draws, in this order: the translates
    (pending, d^2, K) and the mixing weights (pending, d^2, K) of the range
    sketch, then the support (pending, S) and the real and imaginary parts
    (pending, S, 2) of the coefficients of the self-adjoint element, with
    K = _SKETCH_TRANSLATES and S = _SPLIT_SUPPORT.
    """
    units = np.empty((len(p), d, d, group.order), dtype=complex)
    pending = np.arange(len(p))
    for _ in range(_MAX_RETRIES):
        basis, full_rank = _block_range(group, p[pending], d, rng)
        split, ideal = _lowest_ideal(group, basis, d, rng)
        ok = full_rank & split
        if ok.any():
            w = _canonical_basis(group, ideal[ok], tree[0], [blocks[i] for i in pending[ok]])
            rho = _ideal_rho(group, w, tree)
            np.conjugate(rho, out=rho)
            rho *= d / group.order
            units[pending[ok]] = rho.transpose(0, 2, 3, 1)
        pending = pending[~ok]
        if not pending.size:
            return units
    pi = blocks[int(pending[0])]
    raise DecompositionFailure(
        f"no usable spectrum for block {pi} after {_MAX_RETRIES} retries",
        witness={"irrep": pi, "retries": _MAX_RETRIES},
    )


def _block_range(
    group: FiniteGroup, p: np.ndarray, d: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal bases (m, n, d^2) of the blocks p_b C[G], and which are
    full rank.  Column j of block b is sum_r w_jr p_b lambda_{u_jr}, whose
    entry t is p_b(t u^{-1}): one gather of n K d^2 values.  A QR whose R
    has a diagonal entry below _CLUSTER_GAP times its largest is
    rank-deficient.
    """
    m, n, dd = len(p), group.order, d * d
    translates = rng.integers(n, size=(m, dd, _SKETCH_TRANSLATES))
    weights = rng.normal(size=(m, dd, _SKETCH_TRANSLATES))
    # entry [t, b, j, r] indexes p_b(t u^{-1}) with u = translates[b, j, r]
    flat = group.cayley[:, group.inverses[translates]] + n * np.arange(m)[:, None, None]
    sketch = np.einsum("tbjr,bjr->btj", p.ravel()[flat], weights)
    basis, tri = solver_call("QR factorization", np.linalg.qr, sketch)
    pivots = np.abs(np.diagonal(tri, axis1=1, axis2=2))
    return basis, pivots.min(axis=1) > _CLUSTER_GAP * pivots.max(axis=1)


def _lowest_ideal(
    group: FiniteGroup, basis: np.ndarray, d: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Which blocks split, and orthonormal bases (m, n, d) of a minimal left
    ideal in each, from orthonormal bases (m, n, d^2) of the blocks.

    y = x + x^* with x = sum_h c_h lambda_h is self-adjoint.  Right
    multiplication by lambda_h moves row t h^{-1} of a basis to row t, so
    the basis times x is S gathers of n d^2 values, and the compression of
    y is H + H^* with H = basis^* (basis x).  A block splits when it has d
    clusters of d eigenvalues; the lowest cluster spans the ideal.
    """
    m, n, dd = basis.shape
    support = rng.integers(n, size=(m, _SPLIT_SUPPORT))
    parts = rng.normal(size=(m, _SPLIT_SUPPORT, 2))
    c = parts[..., 0] + 1j * parts[..., 1]
    at = np.arange(m)[:, None]
    image = np.zeros((m, n, dd), dtype=complex)
    for h in range(_SPLIT_SUPPORT):
        image += c[:, h, None, None] * basis[at, group.cayley[:, group.inverses[support[:, h]]].T]
    half = basis.conj().transpose(0, 2, 1) @ image
    # Hermitian bit for bit, so hermitian_spectrum solves it unchanged
    evals, vecs = hermitian_spectrum(half + half.conj().transpose(0, 2, 1), vectors=True)
    scale = np.maximum(np.abs(evals).max(axis=1), 1.0)
    # ascending eigenvalues: a gap after every d-th one and nowhere else
    gaps = np.diff(evals, axis=1) > _CLUSTER_GAP * scale[:, None]
    return (gaps == (np.arange(1, dd) % d == 0)).all(axis=1), basis @ vecs[:, :, :d]


def _cayley_layers(group: FiniteGroup) -> tuple[np.ndarray, list[tuple[np.ndarray, ...]]]:
    """Breadth-first layers of the Cayley graph from the identity.

    The steps are the generators (``generating_set``) and then their
    inverses.  Each layer is (elements, parents, steps): every element of
    the layer is its parent times that step, with the parent in the layer
    before, so rho(element) = rho(parent) rho(step) fills rho layer by layer.
    """
    gens = np.array(generating_set(group), dtype=np.int64)
    steps = np.concatenate([gens, group.inverses[gens]])
    seen = np.zeros(group.order, dtype=bool)
    seen[group.identity] = True
    first = np.empty(group.order, dtype=np.int64)
    frontier = np.array([group.identity])
    layers = []
    while True:
        # entry i * len(steps) + j is frontier[i] times steps[j]
        reached = group.cayley[frontier[:, None], steps].ravel()
        entry = np.flatnonzero(~seen[reached])
        if not entry.size:
            return steps, layers
        # keep the first entry reaching each new element: write in reverse
        elements = reached[entry]
        first[elements[::-1]] = entry[::-1]
        kept = first[elements] == entry
        elements, entry = elements[kept], entry[kept]
        seen[elements] = True
        layers.append((elements, frontier[entry // len(steps)], entry % len(steps)))
        frontier = elements


def _step_rho(group: FiniteGroup, w: np.ndarray, steps: np.ndarray) -> np.ndarray:
    """rho (m, len(steps), d, d) on the ``steps`` of :func:`_cayley_layers`
    for orthonormal bases W (m, n, d) of left ideals: on each generator g,
    rho(g) = W^* lambda_g W, one gather W[g^{-1} t] of n d values, and
    rho(g^{-1}) = rho(g)^*.  This compression is second-order in the error
    of W, which lies in orthogonal left ideals; interpolating rho from a
    few rows of W would be first-order, about 1e-12 on S5."""
    gens = steps[:len(steps) // 2]
    shifted = w[:, group.cayley[group.inverses[gens]]]
    on_gens = w.conj().transpose(0, 2, 1)[:, None] @ shifted
    return np.concatenate([on_gens, on_gens.conj().transpose(0, 1, 3, 2)], axis=1)


def _canonical_basis(group: FiniteGroup, w: np.ndarray, steps: np.ndarray, blocks) -> np.ndarray:
    """Ideal bases W (m, n, d) of ``blocks`` turned in place to W V, so that
    rho on W V, V^* rho V, depends on the class of rho alone: x = sum_s c_s
    lambda_s lies on the ``steps`` and their products of two, V diagonalises
    rho(x + x^*), eigenvalues ascending, and its column phases make entries
    1.. of row 0 of V^* rho(x) V positive (the phase left over cancels).
    The c_s come from a fixed stream of their own, default_rng(1); a block
    whose relative eigen-gap or row-0 entry is below _CLUSTER_GAP takes the
    next x, and after _MAX_RETRIES the rest raise DecompositionFailure."""
    on_steps = _step_rho(group, w, steps)
    pairs = on_steps[:, :, None] @ on_steps[:, None]
    rho = np.concatenate([on_steps, pairs.reshape(len(w), -1, *on_steps.shape[2:])], axis=1)
    pending = np.arange(len(w))
    rng = np.random.default_rng(1)
    for _ in range(_MAX_RETRIES):
        x = np.einsum("l,bljk->bjk", rng.normal(size=(rho.shape[1], 2)) @ [1, 1j], rho[pending])
        # the Hermitian part of rho(x) is half of rho(x + x^*)
        evals, vecs = hermitian_spectrum(x, vectors=True)
        row = (vecs[:, :, :1].conj().transpose(0, 2, 1) @ x @ vecs)[:, 0]
        floor = _CLUSTER_GAP * np.abs(evals).max(axis=1, keepdims=True)
        ok = (np.diff(evals, axis=1) > floor).all(axis=1) & (np.abs(row[:, 1:]) > floor).all(axis=1)
        row[:, 0] = 1.0
        w[pending[ok]] = w[pending[ok]] @ (vecs[ok] * (row[ok].conj() / np.abs(row[ok]))[:, None])
        pending = pending[~ok]
        if not pending.size:
            return w
    failed = [blocks[i] for i in pending]
    raise DecompositionFailure(
        f"no canonical frame for blocks {failed} after {_MAX_RETRIES} draws",
        witness={"blocks": failed, "retries": _MAX_RETRIES},
    )


def _ideal_rho(group: FiniteGroup, w: np.ndarray, tree: tuple) -> np.ndarray:
    """rho (m, n, d, d) with lambda_s W = W rho(s): :func:`_step_rho` on the
    steps, and every other element a product along the breadth-first
    ``tree`` of :func:`_cayley_layers`, n d^3 flops, one product per layer."""
    m, n, d = w.shape
    steps, layers = tree
    on_steps = _step_rho(group, w, steps)
    rho = np.empty((m, n, d, d), dtype=complex)
    rho[:, group.identity] = np.eye(d)
    for elements, parents, step in layers:
        rho[:, elements] = rho[:, parents] @ on_steps[:, step]
    return rho


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
    f = decomp._fourier_matrix()
    gram = np.abs(f @ decomp._stacked.T - np.eye(n))
    row, col = (int(x) for x in np.unravel_index(int(np.argmax(gram)), gram.shape))
    if gram[row, col] > bound:
        labels = {}
        for r in (row, col):
            pi = int(decomp._layout.block_of_row[r])
            labels[r] = [pi, *divmod(r - decomp._layout.rows[pi].start, decomp.block_dims[pi])]
        raise DecompositionFailure(
            f"transform does not invert the units at row {tuple(labels[row])}, "
            f"column {tuple(labels[col])} (residual {gram[row, col]:.2e})",
            witness={"row": labels[row], "column": labels[col], "residual": float(gram[row, col])},
        )
    for g in generating_set(group) or [group.identity]:
        # F(lambda_g x) = F(lambda_g) F(x) blockwise, for every x at once
        shifted = f[:, group.cayley[g]]
        for pi, (rows, b) in enumerate(zip(decomp._layout.rows, decomp._split(f[:, g]))):
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
    if not 0 <= pi < decomp.num_blocks:
        raise ValueError(f"irrep index {pi} out of range")
    v = np.asarray(vector, dtype=complex)
    d = decomp.block_dims[pi]
    if v.shape != (d,):
        raise DimensionMismatch(
            f"vector has shape {v.shape}, block dimension is {d}",
            witness={"block": pi},
        )
    norm = np.linalg.norm(v)
    if norm == 0:
        raise ValueError("the state vector is zero")
    v = v / norm
    return GroupFunction(decomp.group, decomp._block_states(pi, np.outer(v, v.conj()))[0])


def central_state_function(table: CharacterTable, pi: int) -> GroupFunction:
    """The normalized-trace state of block pi, phi = conj(chi_pi) / d_pi."""
    if not 0 <= pi < table.num_irreps:
        raise ValueError(f"irrep index {pi} out of range")
    return GroupFunction(
        table.group, np.conj(table.char_values(pi)) / table.dims[pi]
    )


# --------------------------------------------------------------------------
# affine homeomorphisms between the P1 sets of two groups
# --------------------------------------------------------------------------

@dataclass(eq=False)
class AffineHomeomorphism:
    """A linear coefficient map implementing P1(G) -> P1(H) with inverse.

    ``matching[pi]`` names the block of H that block pi of G is carried
    to.  Both character tables list their blocks by ascending dimension,
    so it is always the identity (0, ..., k - 1); the choice of matrix
    units, and so of the unitaries of each block, is the free part.
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


def construct_affine_homeomorphism(
    g: FiniteGroup,
    h: FiniteGroup,
    tol: Tolerance = DEFAULT_TOL,
) -> AffineHomeomorphism:
    """Explicit affine homeomorphism P1(G) -> P1(H) from matched blocks.

    Densities are pushed through the block identification; the resulting
    map on coefficient vectors is linear, and its inverse is built the same
    way.  Both character tables list their blocks by ascending dimension,
    so their dims are the sorted invariants, and when these agree block pi
    of G is carried onto block pi of H.  The groups' tables and
    decompositions are the ones they keep (see block_decompose).
    """
    table_g = character_table(g)
    table_h = character_table(h)
    dims = table_g.dims
    if dims != table_h.dims:
        raise NotIsomorphic(
            f"invariants differ: {list(dims)} vs {list(table_h.dims)}",
            witness={"invariant_g": list(dims), "invariant_h": list(table_h.dims)},
        )
    decomp_g = block_decompose(g, table_g, tol)
    decomp_h = block_decompose(h, table_h, tol)

    forward = decomp_g._transport_to(decomp_h)
    backward = decomp_h._transport_to(decomp_g)
    roundtrip = float(np.abs(backward @ forward - np.eye(g.order)).max())
    if roundtrip > 100 * tol.residual_tol:
        raise ConvergenceFailure(
            f"forward/backward transport round trip residual {roundtrip:.3e}",
            witness={"residual": roundtrip},
        )
    return AffineHomeomorphism(g, h, tuple(range(len(dims))), forward, backward)


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


def homeo_group_description(group: FiniteGroup) -> HomeoGroupDescription:
    """Structure of the affine homeomorphism group of P1(G).

    Per block of dimension d >= 2 the symmetry is the projective unitary
    group extended by the transpose involution; 1-dimensional blocks are
    rigid.  Blocks of equal dimension may additionally be permuted.
    """
    inv = vn_invariant(group)
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
    transpose flag is canonicalized to False.  The action on stacked block
    entries is fixed at construction (``_stacked_action``): per slab of the
    layout of ``dims`` (:class:`_StackedLayout`; one per dimension when the
    dims ascend), the stacked rows its blocks are read from (transposes
    folded into the order), the rows their images land in, and the
    unitaries and their adjoints stacked.  So are the block dimensions,
    ``dims``.
    """

    sigma: tuple[int, ...]
    unitaries: tuple[np.ndarray, ...]
    transpose: tuple[bool, ...]
    dims: tuple[int, ...] = field(init=False, repr=False)
    _stacked_action: list = field(init=False, repr=False)

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
        self.dims = tuple(dims)
        self.transpose = tuple(
            flag if dims[pi] >= 2 else False
            for pi, flag in enumerate(self.transpose)
        )
        layout = _stacked_layout(self.dims)
        every = np.arange(layout.block_of_row.size)
        flipped = np.array(self.transpose, dtype=bool)[layout.block_of_row]
        src = np.where(flipped, layout.transposed, every)
        self._stacked_action = []
        for d, blocks, rows in layout.slabs:
            dst = np.concatenate([every[layout.rows[self.sigma[pi]]] for pi in blocks])
            u = np.stack([np.asarray(self.unitaries[pi], dtype=complex) for pi in blocks])
            self._stacked_action.append(
                (d, src[rows], dst, u, np.ascontiguousarray(u.conj().transpose(0, 2, 1)))
            )

    def _push(self, stacked: np.ndarray) -> np.ndarray:
        """The action on the stacked block entries of one function, or of a
        stack of functions, one per row: per slab one gather, one
        batched product u B u* and one scatter.  The transposes put the
        entries on the first axis, so one function takes the plain 1-D
        gather and scatter."""
        pushed = np.empty_like(stacked)
        lead = stacked.shape[:-1]
        for d, src, dst, u, u_adj in self._stacked_action:
            blocks = stacked.T[src].T.reshape(lead + (-1, d, d))
            pushed.T[dst] = (u @ blocks @ u_adj).reshape(lead + (-1,)).T
        return pushed


def apply_descriptor(
    desc: AffineHomeoDescriptor,
    fn: GroupFunction,
    decomp: BlockDecomposition,
) -> GroupFunction:
    """Push a function through the Jordan automorphism the descriptor names.

    The density transforms blockwise as B -> u B u* (or u B^T u*), landing
    in block sigma[pi]; transposition preserves positivity, so the image
    stays inside P1.  In stacked coordinates: the blocks ``fn`` holds on
    ``decomp`` (``GroupFunction._blocks``), one gather, batched product
    and scatter per slab (``AffineHomeoDescriptor._push``), and
    ``decomp.inverse``, scaled back from the canonical units of ``fn``.
    """
    if desc.dims != decomp.block_dims:
        raise DimensionMismatch(
            f"descriptor dims {desc.dims} do not match decomposition "
            f"{decomp.block_dims}",
            witness={"descriptor": list(desc.dims), "decomposition": list(decomp.block_dims)},
        )
    image = decomp.inverse(desc._push(fn._blocks(decomp)))
    return GroupFunction(decomp.group, pow2_scaled(image, fn._canonical()[0]))


def random_descriptor(
    decomp: BlockDecomposition, rng: np.random.Generator
) -> AffineHomeoDescriptor:
    """Random dimension-preserving descriptor (for round-trip testing)."""
    dims = decomp.block_dims
    k = len(dims)
    sigma = np.arange(k)
    for _, blocks, _ in decomp._layout.slabs:
        sigma[blocks.start:blocks.stop] = blocks.start + rng.permutation(len(blocks))
    unitaries = []
    transpose = []
    for d in dims:
        if d == 1:
            unitaries.append(np.ones((1, 1), dtype=complex))
            transpose.append(False)
        else:
            z = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            q, r = solver_call("QR factorization", np.linalg.qr, z)
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


@functools.cache
def _density_frame(d: int) -> np.ndarray:
    """d^2 density matrices spanning M_d, stacked (d^2, d, d): the E_jj, then
    for each j < k in row-major order (E_jj + E_kk + A) / 2 and
    (E_jj + E_kk + B) / 2, with A = E_jk + E_kj and B = i(E_kj - E_jk).
    Built once per d and read-only: a build costs about 55 us, a tenth of
    a Q8 fit when repeated for every block of every fit."""
    j, k = np.triu_indices(d, 1)
    p = np.arange(len(j))
    pairs = np.zeros((len(j), 2, d, d), dtype=complex)
    pairs[p, :, j, j] = pairs[p, :, k, k] = 0.5
    pairs[p, 0, j, k] = pairs[p, 0, k, j] = 0.5
    pairs[p, 1, k, j] = 0.5j
    pairs[p, 1, j, k] = -0.5j
    diag = np.eye(d)[:, :, None] * np.eye(d)[:, None, :]
    frame = np.concatenate([diag, pairs.reshape(-1, d, d)])
    frame.setflags(write=False)
    return frame


def _matrix_unit_images(frame_images: np.ndarray, d: int) -> np.ndarray:
    """Images M(E_jk) of all matrix units from the images (d^2, d, d) of
    :func:`_density_frame`, by polarisation: 2 M(frame) - M(E_jj) - M(E_kk)
    is M(A) or M(B), and E_jk = (A + i B) / 2, E_kj = (A - i B) / 2."""
    diag = frame_images[:d]
    j, k = np.triu_indices(d, 1)
    m = 2.0 * frame_images[d:].reshape(len(j), 2, d, d) - diag[j, None] - diag[k, None]
    out = np.empty((d, d, d, d), dtype=complex)
    out[np.arange(d), np.arange(d)] = diag
    out[j, k] = (m[:, 0] + 1j * m[:, 1]) / 2.0
    out[k, j] = (m[:, 0] - 1j * m[:, 1]) / 2.0
    return out


def _fit_block_map(
    unit_images: np.ndarray, d: int, tol: Tolerance
) -> tuple[np.ndarray, bool]:
    """Recover (u, transpose flag) from the linear map E_jk -> unit_images[j,k].

    The Choi matrix of a unitary conjugation is rank one with top eigenvalue
    d; for the transpose form the same holds after pre-transposing.
    """
    def extract(images: np.ndarray) -> tuple[np.ndarray, float] | None:
        # Choi matrix sum_jk E_jk (x) M(E_jk): entry ((j, a), (k, b)) is
        # M(E_jk)[a, b]
        c = images.transpose(0, 2, 1, 3).reshape(d * d, d * d)
        w, v = hermitian_spectrum(c, vectors=True)
        rest = float(np.abs(w[:-1]).max()) if d > 1 else 0.0
        if abs(w[-1] - d) > 1e-6 * d or rest > 1e-6 * d:
            return None
        vec = v[:, -1] * np.sqrt(d)
        u = vec.reshape(d, d).T
        u = polar_unitary(u, tol)
        # u E_jk u* is the outer product of columns j and k of u
        conjugated = np.einsum("aj,bk->jkab", u, u.conj())
        return u, float(np.abs(conjugated - images).max())

    fit_bound = 1e-7
    # the transposed form is extracted only when the plain one does not
    # fit, so a map that fits both (d = 1 or accidental symmetry) is
    # reported as the plain automorphism
    straight = extract(unit_images)
    if straight is not None and straight[1] <= fit_bound:
        return canonical_phase(straight[0]), False
    flipped = extract(np.transpose(unit_images, (1, 0, 2, 3)))
    if flipped is not None and flipped[1] <= fit_bound:
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
) -> AffineHomeoDescriptor:
    """Fit a black-box affine self-map of P1(G) to a block descriptor.

    Affinity is verified first, on 8 random mixtures of pairs of 16 random
    states: 24 map calls, whose images are kept.  Then the map is read in
    one pass of n calls, on the d^2 states of a spanning frame of each
    block (:func:`_density_frame`), embedded by one product per block with
    its units and read back by one ``decomp.forward`` of every image.  The
    block permutation is read off the images of the central block states,
    each the mean image of its block's diagonal frame states; after the
    support, permutation and dimension checks, each block's unitary and
    transpose flag are fitted from its frame images, so the descriptor
    depends on the frame images alone.  The result must reproduce the kept
    images of all 24 affinity probes to 1e-7, checked on all of them at
    once by ``decomp.inverse`` of the descriptor's action on
    ``decomp.forward`` of the probes, or FitFailure is raised.  The map is
    called n + 24 times in all.
    """
    group = decomp.group
    dims = decomp.block_dims
    k = len(dims)
    n = group.order
    rng = np.random.default_rng(seed)

    # probes: the 2m draws f_j, then the m mixtures t_i f_2i + (1 - t_i) f_2i+1
    m = _AFFINITY_SAMPLES
    draws = [random_p1(group, rng) for _ in range(2 * m)]
    t = rng.uniform(0.2, 0.8, size=m)[:, None]
    values = np.stack([fn.values for fn in draws])
    mixtures = t * values[0::2] + (1.0 - t) * values[1::2]
    probes = np.concatenate([values, mixtures])
    probe_images = np.stack(
        [transform(fn).values for fn in draws]
        + [transform(GroupFunction(group, c)).values for c in mixtures]
    )
    mixed_images = t * probe_images[0:2 * m:2] + (1.0 - t) * probe_images[1:2 * m:2]
    dev = float(np.abs(probe_images[2 * m:] - mixed_images).max())
    if dev > 100 * tol.residual_tol:
        raise NotAffine(
            f"map violates affinity on samples (deviation {dev:.3e})",
            witness={"deviation": dev},
        )

    # row (pi, i) of ``images``: the stacked blocks of the image of frame
    # state i of block pi; the frame of block pi fills the rows of block pi
    states = np.concatenate(
        [decomp._block_states(pi, _density_frame(d)) for pi, d in enumerate(dims)]
    )
    images = decomp.forward(np.stack([transform(GroupFunction(group, c)).values for c in states]))

    sigma = []
    for pi, rows in enumerate(decomp._layout.rows):
        # the central state of block pi is the mean of its diagonal frame
        # states; omega(p_rho) = (d_rho / n) tr B_rho of its image's density
        central = images[rows.start:rows.start + dims[pi]].mean(axis=0)
        weights = [
            float((d / n) * np.trace(b).real) for d, b in zip(dims, decomp._split(central))
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
        frame_images = (d / n) * images[decomp._layout.rows[pi], decomp._layout.rows[sigma[pi]]]
        unit_images = _matrix_unit_images(frame_images.reshape(d * d, d, d), d)
        u, flag = _fit_block_map(unit_images, d, tol)
        unitaries.append(u)
        transpose.append(flag)

    desc = AffineHomeoDescriptor(tuple(sigma), tuple(unitaries), tuple(transpose))
    replay = decomp.inverse(desc._push(decomp.forward(probes)))
    worst = float(np.abs(replay - probe_images).max())
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
    coef, *_ = solver_call("least squares solver", np.linalg.lstsq, design, y, rcond=None)
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
