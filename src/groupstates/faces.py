"""Faces of the state space supported by projections in the group algebra.

Face(p) is the set of states with omega(p) = 1.  Split faces correspond
exactly to central projections; since the center is spanned by the minimal
central projections, all split faces can be enumerated exhaustively as
subset sums.  Maximal chain lengths inside a minimal split face recover the
block dimension through the rank argument in the block image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np

from .characters import CharacterTable, CentralProjection, minimal_central_projections
from .errors import (
    BoundsViolation,
    ConvergenceFailure,
    GroupMismatch,
    NotCentral,
    SizeLimitExceeded,
)
from .groups import (
    FiniteGroup,
    _frozen,
    algebra_matrix,
    check_projection,
    conjugacy_classes,
    same_group,
)
from .linalg import DEFAULT_TOL, Tolerance
from .posdef import GroupFunction, NormalState, to_state
from .vn import kept_block_decomposition

SPLIT_FACE_IRREP_LIMIT = 20


class FaceDescriptor:
    """A face given by the coefficient vector of its supporting projection.

    ``coeffs`` and ``matrix`` are read-only: an array passed in is kept as
    is when it is read-only and copied when it is writable, so the
    caller's array keeps its flags.  ``matrix`` is the n x n
    regular-representation image of the coefficients, built the first
    time it is read unless one is passed in.
    """

    def __init__(
        self,
        group: FiniteGroup,
        coeffs: np.ndarray,
        matrix: np.ndarray | None,
        is_central: bool,
        is_split: bool,
        irreps: tuple[int, ...] | None = None,
    ):
        if is_split != is_central:
            raise ValueError("a face is split exactly when its projection is central")
        if matrix is not None:
            self.__dict__["matrix"] = _frozen(matrix)
        self.group = group
        self.coeffs = _frozen(coeffs)
        self.is_central = is_central
        self.is_split = is_split
        self.irreps = irreps

    @cached_property
    def matrix(self) -> np.ndarray:
        m = algebra_matrix(self.group, self.coeffs)
        m.setflags(write=False)
        return m


@dataclass(frozen=True)
class FaceChain:
    """A strictly increasing chain of projections inside one block face,
    held as coefficient vectors, with their regular-representation ranks."""

    group: FiniteGroup
    irrep: int
    projections: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.projections)


def _centrality_deviation(group: FiniteGroup, coeffs: np.ndarray) -> float:
    """max |c(g s g^-1) - c(s)| over all (g, s).

    The commutator [lambda_g, x] has coefficients c(g^-1 v g) - c(v), so
    this is the largest commutator entry over the whole group: x is central
    exactly when c is a class function.  The pairs (g s g^-1, s) are the
    pairs (a, b) within one conjugacy class, so this reads sum |C|^2 <= n^2
    differences, class by class; ``np.max`` lets NaN through.
    """
    classes = conjugacy_classes(group).classes
    return float(np.max([np.abs(v[:, None] - v).max() for v in (coeffs[list(c)] for c in classes)]))


def _require_central(dev: float, tol: Tolerance) -> None:
    """Raise NotCentral when a centrality deviation exceeds ``residual_tol``."""
    if dev > tol.residual_tol:
        raise NotCentral(
            f"projection does not commute with the regular representation "
            f"(deviation {dev:.3e})",
            witness={"deviation": dev},
        )


@cache
def _block_layout(dims: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For stacked d x d blocks of dimensions ``dims``: the first row of each
    block, the block of each row and whether the row is a diagonal entry."""
    sizes = [d * d for d in dims]
    starts = np.cumsum([0] + sizes[:-1])
    block_of_row = np.repeat(np.arange(len(dims)), sizes)
    diagonal = np.concatenate([np.eye(d, dtype=bool).ravel() for d in dims])
    return starts, block_of_row, diagonal


def _block_mask(decomp, blocks: np.ndarray, tol: Tolerance) -> np.ndarray:
    """Certify that each stacked Fourier block of p is 0 or I within
    ``residual_tol`` entrywise, and return per stacked row whether its block
    is I.

    On failure, a block farther than ``residual_tol`` from its scalar part
    (trace / d) raises NotCentral with the largest such deviation as
    witness; otherwise the block farthest from 0 and I raises
    ConvergenceFailure with its index and scalar part.
    """
    starts, block_of_row, diagonal = _block_layout(decomp.block_dims)
    # a block within residual_tol of 0 or I has its first entry near 0 or 1
    keep = np.clip(np.rint(blocks[starts].real), 0.0, 1.0).astype(bool)
    rows = keep[block_of_row]
    off = np.abs(blocks - (rows & diagonal))
    if off.max() <= tol.residual_tol:
        return rows
    scalars = np.add.reduceat(blocks * diagonal, starts) / decomp.block_dims
    _require_central(float(np.abs(blocks - scalars[block_of_row] * diagonal).max()), tol)
    pi = int(block_of_row[np.argmax(off)])
    raise ConvergenceFailure(
        f"block {pi} of the face support is {scalars[pi]:.3e} times I, not 0 or I",
        witness={"block": pi, "scalar": [scalars[pi].real, scalars[pi].imag]},
    )


def descriptor_from_projection(
    group: FiniteGroup, coeffs, *, tol: Tolerance = DEFAULT_TOL
) -> FaceDescriptor:
    """Wrap a projection, given by its coefficients, as a face descriptor,
    detecting centrality.  The descriptor holds a read-only copy of
    ``coeffs``; the caller's array is left as it was."""
    c = np.array(coeffs, dtype=complex)
    c.setflags(write=False)
    check_projection(group, c, tol, what="face support")
    central = _centrality_deviation(group, c) <= tol.residual_tol
    return FaceDescriptor(group, c, None, central, central)


def face_membership(
    face: FaceDescriptor, state: NormalState, tol: Tolerance = DEFAULT_TOL
) -> bool:
    """True iff omega(p) = 1 within tolerance."""
    if not same_group(face.group, state.group):
        raise GroupMismatch(
            "face and state live on different groups",
            witness={"orders": [face.group.order, state.group.order]},
        )
    value = state.expectation(face.coeffs)
    if not (-tol.residual_tol <= value.real <= 1.0 + tol.residual_tol):
        raise BoundsViolation(
            f"omega(p) = {value} outside [0, 1]",
            witness={"value": [value.real, value.imag]},
        )
    return abs(value - 1.0) <= tol.residual_tol


def split_faces(
    group: FiniteGroup,
    table: CharacterTable,
    tol: Tolerance = DEFAULT_TOL,
    minimal: list[CentralProjection] | None = None,
) -> list[FaceDescriptor]:
    """All 2^k split faces, as subset sums of minimal central projections.

    Exhaustive enumeration replaces any maximality search: in finite
    dimension the split faces are exactly the central-projection faces.
    """
    k = table.num_irreps
    if k > SPLIT_FACE_IRREP_LIMIT:
        raise SizeLimitExceeded(
            f"{k} irreducible blocks exceed the enumeration limit "
            f"{SPLIT_FACE_IRREP_LIMIT}",
            witness={"irreps": k, "limit": SPLIT_FACE_IRREP_LIMIT},
        )
    if minimal is None:
        minimal = minimal_central_projections(group, table, tol)
    # row mask of the 0/1 indicators picks the projections in the bits of
    # mask: one real product with their interleaved real and imaginary parts
    indicators = (np.arange(2**k)[:, None] >> np.arange(k) & 1).astype(float)
    sums = indicators @ np.array([p.coeffs for p in minimal], dtype=complex).view(float)
    del indicators
    sums += 0.0  # sums from +0.0, as in a running sum: no coefficient is -0.0
    sums.setflags(write=False)  # each face keeps its row as a view
    return [
        FaceDescriptor(
            group, c, None, True, True, irreps=tuple(pi for pi in range(k) if mask >> pi & 1)
        )
        for mask, c in enumerate(sums.view(complex))
    ]


def state_decomposition(
    state: NormalState,
    face: FaceDescriptor,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, NormalState | None, NormalState | None]:
    """Split a state across a central projection: omega = t w1 + (1-t) w2.

    w1 lives in Face(p), w2 in Face(1-p), and t = omega(p).  At t = 0 or
    t = 1 the undetermined component is returned as None.  The cuts are
    p*phi*p / t and q*phi*q / (1 - t), with q = delta_e - p, formed in the
    Fourier blocks of the group's kept decomposition, built and kept on
    the first call when there is none (``vn.kept_block_decomposition``),
    so a fresh group splits bit for bit as one that kept
    ``block_decompose(group)``'s decomposition.

    p is central exactly when each of its blocks is scalar (Schur's
    lemma), and a central projection has every block 0 or I.  So p and
    phi are each transformed once, and every block of p is certified to
    be 0 or I within ``residual_tol``: a block off its scalar part raises
    NotCentral with the largest deviation as witness, a scalar block other
    than 0 or 1 raises ConvergenceFailure, whatever t is.  The cuts are
    ``decomp.inverse`` of phi's stacked blocks kept or dropped by that
    mask.

    The reconstruction residual is the max-abs coefficient of
    t w1 + (1 - t) w2 - omega, which equals the max-abs entry of its
    regular-representation matrix, and both components pass the PSD test
    of :func:`to_state`.
    """
    group = state.group
    if not same_group(face.group, group):
        raise GroupMismatch(
            "face and state live on different groups",
            witness={"orders": [face.group.order, group.order]},
        )
    p = face.coeffs
    phi = state.coefficients
    decomp = kept_block_decomposition(group, tol)
    keep = _block_mask(decomp, decomp.forward(p), tol)
    t = state.expectation(p).real
    if t >= 1.0 - tol.residual_tol:
        return 1.0, state, None
    if t <= tol.residual_tol:
        return 0.0, None, state

    # p phi p and q phi q keep and drop phi's blocks in the face
    blocks = decomp.forward(phi)
    cut1 = decomp.inverse(keep * blocks) / t
    cut2 = decomp.inverse(~keep * blocks) / (1.0 - t)
    recon = float(np.abs(t * cut1 + (1.0 - t) * cut2 - phi).max())
    if recon > tol.residual_tol:
        raise ConvergenceFailure(
            f"decomposition reconstruction residual {recon:.3e}",
            witness={"residual": recon},
        )
    w1 = to_state(GroupFunction(group, cut1), tol)
    w2 = to_state(GroupFunction(group, cut2), tol)
    return float(t), w1, w2


def block_face_chain(decomp, pi: int, tol: Tolerance = DEFAULT_TOL) -> FaceChain:
    """The canonical chain q_1 < q_2 < ... < q_d of projections under p_pi,
    built from the diagonal matrix units of the block decomposition.

    q_j is the coefficient vector of e_11 + ... + e_jj, and the chain is
    certified in the block image, read from one ``decomp.forward`` of all
    of them: block pi of q_j is self-adjoint, idempotent and above block
    pi of q_{j-1}, each within ``residual_tol``, its trace is j, and no
    other block of q_j exceeds ``10 residual_tol``.  A strictly increasing
    chain of projections in M_d has at most d elements, so the chain is
    maximal.  The regular-representation rank of q_j is its trace n q_j(e).
    """
    if not 0 <= pi < decomp.num_blocks:
        raise ValueError(f"irrep index {pi} out of range")
    group = decomp.group
    n, d = group.order, decomp.block_dims[pi]
    diag = np.arange(d)
    chain = np.cumsum(decomp.units[pi][diag, diag], axis=0) + 0.0  # no -0.0, as in split_faces
    # row j holds the stacked blocks of q_j
    stacked = decomp.forward(chain)
    rows = decomp._rows[pi]
    images = stacked[:, rows].reshape(d, d, d)
    herm = np.abs(images - images.conj().transpose(0, 2, 1)).max(axis=(1, 2))
    idem = np.abs(images @ images - images).max(axis=(1, 2))
    order = np.abs(images[:-1] @ images[1:] - images[:-1]).max(axis=(1, 2), initial=0.0)
    traces = np.rint(np.trace(images, axis1=1, axis2=2).real).astype(int)
    outside = np.abs(stacked)
    outside[:, rows] = 0.0
    leak = outside.argmax(axis=1)
    for j in range(d):
        if herm[j] > tol.residual_tol or idem[j] > tol.residual_tol:
            raise ConvergenceFailure(
                f"chain element {j} is not a projection in block {pi} "
                f"(herm {herm[j]:.2e}, idem {idem[j]:.2e})",
                witness={
                    "hermitian_residual": float(herm[j]),
                    "idempotent_residual": float(idem[j]),
                },
            )
        if traces[j] != j + 1:
            raise ConvergenceFailure(
                f"block image rank {traces[j]} != chain position {j + 1}",
                witness={"rank": int(traces[j]), "position": j + 1},
            )
        if j and order[j - 1] > tol.residual_tol:
            raise ConvergenceFailure(
                f"chain order violated at step {j}",
                witness={"deviation": float(order[j - 1])},
            )
        if outside[j, leak[j]] > 10 * tol.residual_tol:
            block = next(rho for rho, r in enumerate(decomp._rows) if leak[j] < r.stop)
            raise ConvergenceFailure(
                f"chain element {j} leaks into block {block}",
                witness={"block": block},
            )
    ranks = tuple(int(round(n * q[group.identity].real)) for q in chain)
    return FaceChain(group, pi, tuple(chain), ranks)


def maximal_chain_length(
    group: FiniteGroup,
    table: CharacterTable,
    pi: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    decomp=None,
) -> int:
    """Length of a maximal strictly increasing chain of faces inside the
    minimal split face of block pi: the length of :func:`block_face_chain`,
    which certifies the chain and its maximality in the block image.

    Without ``decomp``, the group's kept decomposition is used when it was
    built from ``table`` at ``seed``; otherwise one is built (and then kept
    on the group), see ``vn.kept_block_decomposition``.
    """
    if not 0 <= pi < table.num_irreps:
        raise ValueError(f"irrep index {pi} out of range")
    if decomp is None:
        decomp = kept_block_decomposition(group, tol, table, seed)
    return block_face_chain(decomp, pi, tol).length
