"""Faces of the state space supported by projections in the group algebra.

Face(p) is the set of states with omega(p) = 1.  Split faces correspond
exactly to central projections; since the center is spanned by the minimal
central projections, all split faces can be enumerated exhaustively as
subset sums.  Maximal chain lengths inside a minimal split face recover the
block dimension through the rank argument in the block image.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

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
    algebra_matrix,
    check_projection,
    convolve,
    same_group,
)
from .linalg import DEFAULT_TOL, Tolerance
from .posdef import GroupFunction, NormalState, to_state

SPLIT_FACE_IRREP_LIMIT = 20


class FaceDescriptor:
    """A face given by the coefficient vector of its supporting projection.

    ``matrix`` is the read-only n x n regular-representation image of the
    coefficients, built the first time it is read; a matrix passed in is
    kept as is (made read-only), not rebuilt.
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
        coeffs.setflags(write=False)
        if matrix is not None:
            matrix.setflags(write=False)
            self.__dict__["matrix"] = matrix
        self.group = group
        self.coeffs = coeffs
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
    exactly when c is a class function.
    """
    conj = group.cayley[group.cayley, group.inverses[:, None]]  # [g, s] = g s g^-1
    return float(np.abs(coeffs[conj] - coeffs[None, :]).max())


def _require_central(group: FiniteGroup, coeffs: np.ndarray, tol: Tolerance) -> None:
    dev = _centrality_deviation(group, coeffs)
    if dev > tol.residual_tol:
        raise NotCentral(
            f"projection does not commute with the regular representation "
            f"(deviation {dev:.3e})",
            witness={"deviation": dev},
        )


def descriptor_from_projection(
    group: FiniteGroup, coeffs, *, tol: Tolerance = DEFAULT_TOL
) -> FaceDescriptor:
    """Wrap a projection, given by its coefficients, as a face descriptor,
    detecting centrality."""
    c = np.asarray(coeffs, dtype=complex)
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
    n = group.order
    faces = []
    for mask in range(2**k):
        members = tuple(pi for pi in range(k) if mask >> pi & 1)
        coeffs = np.zeros(n, dtype=complex)
        for pi in members:
            coeffs = coeffs + minimal[pi].coeffs
        faces.append(FaceDescriptor(group, coeffs, None, True, True, irreps=members))
    return faces


def complementary_split_face(
    face: FaceDescriptor, tol: Tolerance = DEFAULT_TOL
) -> FaceDescriptor:
    """The complementary face, supported by 1 - p."""
    group = face.group
    _require_central(group, face.coeffs, tol)
    coeffs = -face.coeffs.copy()
    coeffs[group.identity] += 1.0
    # subset bookkeeping is only well-defined relative to the full
    # enumeration, so the complement carries no irreps tag
    return FaceDescriptor(group, coeffs, None, True, True, irreps=None)


def state_decomposition(
    state: NormalState,
    face: FaceDescriptor,
    tol: Tolerance = DEFAULT_TOL,
) -> tuple[float, NormalState | None, NormalState | None]:
    """Split a state across a central projection: omega = t w1 + (1-t) w2.

    w1 lives in Face(p), w2 in Face(1-p), and t = omega(p).  At t = 0 or
    t = 1 the undetermined component is returned as None.  Everything runs
    on coefficient vectors: the cuts p*phi*p / t and q*phi*q / (1 - t), with
    q = delta_e - p, are convolutions, and the reconstruction residual is
    the max-abs coefficient of t w1 + (1 - t) w2 - omega, which equals the
    max-abs entry of its regular-representation matrix.
    """
    group = state.group
    if not same_group(face.group, group):
        raise GroupMismatch(
            "face and state live on different groups",
            witness={"orders": [face.group.order, group.order]},
        )
    p = face.coeffs
    _require_central(group, p, tol)
    t = state.expectation(p).real
    if t >= 1.0 - tol.residual_tol:
        return 1.0, state, None
    if t <= tol.residual_tol:
        return 0.0, None, state

    q = -p
    q[group.identity] += 1.0
    phi = state.coefficients
    cut1 = convolve(group, convolve(group, p, phi), p) / t
    cut2 = convolve(group, convolve(group, q, phi), q) / (1.0 - t)
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

    Each q_j is the coefficient vector of e_11 + ... + e_jj; its
    regular-representation rank is its trace n q_j(e).
    """
    if not 0 <= pi < decomp.num_blocks:
        raise ValueError(f"irrep index {pi} out of range")
    group = decomp.group
    n = group.order
    running = np.zeros(n, dtype=complex)
    projections = []
    ranks = []
    prev_rank = 0
    for j in range(decomp.block_dims[pi]):
        running = running + decomp.units[pi][j, j]
        check_projection(group, running, tol, what=f"chain element {j}")
        rank = int(round(n * running[group.identity].real))
        if rank <= prev_rank:
            raise ConvergenceFailure(
                f"chain ranks not strictly increasing at step {j}",
                witness={"rank": rank, "previous": prev_rank},
            )
        if projections:
            prev = projections[-1]
            order_dev = float(np.abs(convolve(group, prev, running) - prev).max())
            if order_dev > tol.residual_tol:
                raise ConvergenceFailure(
                    f"chain order violated at step {j}",
                    witness={"deviation": order_dev},
                )
        projections.append(running)
        ranks.append(rank)
        prev_rank = rank
    return FaceChain(group, pi, tuple(projections), tuple(ranks))


def maximal_chain_length(
    group: FiniteGroup,
    table: CharacterTable,
    pi: int,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    decomp=None,
) -> int:
    """Length of a maximal strictly increasing chain of faces inside the
    minimal split face of block pi.

    The chain is built explicitly from the block decomposition; maximality
    is certified by the rank bound inside the d x d block image rather than
    by search.  Without ``decomp``, the group's kept decomposition is used
    when it was built from ``table`` at ``seed``; otherwise one is built (and
    then kept on the group), see ``vn.kept_block_decomposition``.
    """
    from .vn import kept_block_decomposition

    if not 0 <= pi < table.num_irreps:
        raise ValueError(f"irrep index {pi} out of range")
    if decomp is None:
        decomp = kept_block_decomposition(group, tol, table, seed)
    chain = block_face_chain(decomp, pi, tol)

    # certification in the block image: each chain element must be a
    # projection of rank k inside M_d, and any strictly increasing chain of
    # projections in M_d has length at most d
    d = decomp.block_dims[pi]
    for k, coeffs in enumerate(chain.projections, start=1):
        blocks = decomp.from_coefficients(coeffs)
        img = blocks[pi]
        idem = float(np.abs(img @ img - img).max())
        if idem > 10 * tol.residual_tol:
            raise ConvergenceFailure(
                f"block image of chain element {k} is not a projection",
                witness={"residual": idem},
            )
        img_rank = int(round(np.trace(img).real))
        if img_rank != k:
            raise ConvergenceFailure(
                f"block image rank {img_rank} != chain position {k}",
                witness={"rank": img_rank, "position": k},
            )
        for rho, other in enumerate(blocks):
            if rho != pi and float(np.abs(other).max()) > 10 * tol.residual_tol:
                raise ConvergenceFailure(
                    f"chain element {k} leaks into block {rho}",
                    witness={"block": rho},
                )
    if chain.length != d:
        raise ConvergenceFailure(
            f"constructed chain has length {chain.length}, block dimension {d}",
            witness={"length": chain.length, "dimension": d},
        )
    return chain.length
