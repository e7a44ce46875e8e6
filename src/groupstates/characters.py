"""Character tables and minimal central projections of finite groups.

The table is computed by the class-sum (Burnside) method: the matrices of
multiplication by class sums act on the center of the group algebra, a
random real combination of them has simple spectrum almost surely, and the
shared eigenvectors yield the central characters.  Dimensions come out of
row orthogonality and are rounded to exact integers, then re-verified.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

from .errors import ConvergenceFailure, DegenerateSpectrum
from .groups import (
    ConjugacyPartition,
    FiniteGroup,
    _group_repr,
    _WeakGroup,
    algebra_matrix,
    check_projection,
    conjugacy_classes,
)
from .linalg import DEFAULT_TOL, Tolerance

_GAP_FACTOR = 1e-6
_MAX_RESAMPLES = 20
_DIM_ROUNDING_TOL = 1e-6


@dataclass(frozen=True)
class CharacterTable:
    """Irreducible characters evaluated at class representatives.

    ``chars[pi][c]`` is the value of the pi-th irreducible character at the
    representative of class c.  Rows are sorted canonically by (dimension,
    lexicographic order of the rounded row), so the table is deterministic.

    ``_projections`` holds the ``residual_tol`` and the read-only
    coefficients, one row per irrep, of the minimal central projections
    once :func:`minimal_central_projections` has verified them for
    ``group``; a table made any other way starts without them.

    ``group`` is a weak back-reference (see ``groups._WeakGroup``): the
    group keeps its tables, and a table does not keep its group alive.
    """

    group: FiniteGroup = _WeakGroup()
    partition: ConjugacyPartition
    dims: tuple[int, ...]
    chars: np.ndarray
    _projections: tuple[float, np.ndarray] | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self):
        self.chars.setflags(write=False)

    def __repr__(self) -> str:
        return f"CharacterTable({_group_repr(self)}, dims={self.dims})"

    @property
    def num_irreps(self) -> int:
        return len(self.dims)

    @property
    def class_sizes(self) -> tuple[int, ...]:
        return self.partition.class_sizes

    @property
    def class_reps(self) -> tuple[int, ...]:
        return self.partition.class_reps

    def char_values(self, pi: int) -> np.ndarray:
        """Character pi as a function on all group elements."""
        return self.chars[pi][self.partition.class_of]


@dataclass(frozen=True)
class CentralProjection:
    """A central projection p = sum_s coeffs[s] lambda_s in the group algebra.

    ``irreps`` lists the irreducible blocks it supports; a singleton marks a
    minimal central projection.  ``matrix``, the read-only n x n
    regular-representation image, is built the first time it is read.
    """

    group: FiniteGroup
    coeffs: np.ndarray
    irreps: tuple[int, ...]

    def __post_init__(self):
        self.coeffs.setflags(write=False)

    @cached_property
    def matrix(self) -> np.ndarray:
        m = algebra_matrix(self.group, self.coeffs)
        m.setflags(write=False)
        return m


def class_sum_structure_constants(
    group: FiniteGroup, partition: ConjugacyPartition | None = None
) -> np.ndarray:
    """Integer tensor a with C_i C_j = sum_l a[i,j,l] C_l in the group algebra.

    a[i,j,l] counts pairs (x, y) in C_i x C_j with x y equal to the fixed
    representative of C_l; the count is independent of the representative.
    """
    if partition is None:
        partition = conjugacy_classes(group)
    k = partition.num_classes
    cls = partition.class_of
    a = np.zeros((k, k, k), dtype=np.int64)
    for l, rep in enumerate(partition.class_reps):
        # x * y = rep  <=>  y = x^{-1} rep
        y = group.cayley[group.inverses, rep]
        np.add.at(a, (cls, cls[y], l), 1)
    return a


def _class_sum_matrices(structure: np.ndarray) -> np.ndarray:
    # N_i acts on center coordinates: (N_i)[l, j] = a[i, j, l]
    return structure.transpose(0, 2, 1).astype(float)


def character_table(
    group: FiniteGroup,
    seed: int = 0,
    tol: Tolerance = DEFAULT_TOL,
    partition: ConjugacyPartition | None = None,
) -> CharacterTable:
    """The character table, computed once per group, seed and partition.

    The group keeps the last table built for each seed, with the
    ``residual_tol`` it was verified at.  It is returned again when it was
    built on the very partition object given (the group's own, which
    :func:`groupstates.groups.conjugacy_classes` returns, by default) and
    verified at ``tol`` or tighter: the build is deterministic, so a fresh
    one would hold the same values bit for bit.  Otherwise the table is
    built, verified and kept.
    """
    if partition is None:
        partition = conjugacy_classes(group)
    table, verified_tol = group._character_tables.get(seed, (None, 0.0))
    if table is not None and table.partition is partition:
        if verified_tol > tol.residual_tol:
            # the same values, now verified at a tighter tolerance
            _build_table(group, seed, tol, partition)
            group._character_tables[seed] = (table, tol.residual_tol)
        return table
    table = _build_table(group, seed, tol, partition)
    group._character_tables[seed] = (table, tol.residual_tol)
    return table


def _build_table(
    group: FiniteGroup, seed: int, tol: Tolerance, partition: ConjugacyPartition
) -> CharacterTable:
    k = partition.num_classes
    n = group.order
    sizes = np.array(partition.class_sizes, dtype=float)
    structure = class_sum_structure_constants(group, partition)
    mats = _class_sum_matrices(structure)

    rng = np.random.default_rng(seed)
    eigvecs = None
    for _ in range(_MAX_RESAMPLES):
        r = rng.uniform(1.0, 2.0, size=k)
        m = np.tensordot(r, mats, axes=1)
        evals, vecs = np.linalg.eig(m)
        order = np.argsort(evals.real, kind="stable")
        evals, vecs = evals[order], vecs[:, order]
        scale = max(float(np.abs(m).max()), 1.0)
        gaps = np.abs(np.subtract.outer(evals, evals))
        gaps[np.diag_indices(k)] = np.inf
        if gaps.min() > _GAP_FACTOR * scale:
            eigvecs = vecs
            break
    if eigvecs is None:
        raise DegenerateSpectrum(
            f"no eigenvalue separation after {_MAX_RESAMPLES} resamples",
            witness={"resamples": _MAX_RESAMPLES},
        )

    rows = []
    dims = []
    for p in range(k):
        v = eigvecs[:, p]
        nrm2 = float(np.vdot(v, v).real)
        # Rayleigh quotients give the central character omega(i) =
        # |C_i| chi(g_i) / d on the shared eigenvector
        omega = np.array([np.vdot(v, mats[i] @ v) / nrm2 for i in range(k)])
        d_raw = float(np.sqrt(n / np.sum(np.abs(omega) ** 2 / sizes)))
        d = int(round(d_raw))
        if d < 1 or abs(d_raw - d) > _DIM_ROUNDING_TOL:
            raise ConvergenceFailure(
                f"irrep dimension {d_raw} does not round to an integer",
                witness={"raw_dimension": d_raw},
            )
        rows.append(d * omega / sizes)
        dims.append(d)

    if sum(d * d for d in dims) != n:
        raise ConvergenceFailure(
            "sum of squared dimensions does not match the group order",
            witness={"dims": dims, "order": n},
        )

    chars = np.array(rows)
    # each row as its rounded (real, imaginary) pairs, interleaved
    rounded = np.round(chars, 8).view(float).tolist()
    order = sorted(range(k), key=lambda p: (dims[p], rounded[p]))
    chars = np.ascontiguousarray(chars[order])
    dims = tuple(dims[p] for p in order)

    gram = (chars * sizes) @ chars.conj().T / n
    resid = float(np.abs(gram - np.eye(k)).max())
    if resid > tol.residual_tol:
        raise ConvergenceFailure(
            f"row orthogonality residual {resid:.3e} exceeds tolerance",
            witness={"residual": resid},
        )
    return CharacterTable(group, partition, dims, chars)


def minimal_central_projections(
    group: FiniteGroup,
    table: CharacterTable,
    tol: Tolerance = DEFAULT_TOL,
) -> list[CentralProjection]:
    """The projections p_pi = (d_pi/|G|) sum_s conj(chi_pi(s)) lambda_s.

    Verified on coefficients: each a projection (groups.check_projection)
    of regular-representation rank d_pi^2, read from the trace n p(e), the
    set pairwise orthogonal and summing to the identity.  When ``group``
    is the table's own group the verified coefficients are kept on the
    table and reused at ``tol`` or looser; each call returns fresh
    ``CentralProjection`` objects over them.
    """
    own = group is table._group_ref()
    if own and table._projections is not None and table._projections[0] <= tol.residual_tol:
        coeffs = table._projections[1]
    else:
        coeffs = _verified_projections(group, table, tol)
        if own:
            object.__setattr__(table, "_projections", (tol.residual_tol, coeffs))
    return [CentralProjection(group, c, (pi,)) for pi, c in enumerate(coeffs)]


def _verified_projections(
    group: FiniteGroup, table: CharacterTable, tol: Tolerance
) -> np.ndarray:
    """Coefficients of the minimal central projections, one row per irrep,
    read-only, after the checks of :func:`minimal_central_projections`."""
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
        # p_i p_j for every j > i: one regular-representation matrix per i
        prods = np.abs(algebra_matrix(group, coeffs[i]) @ coeffs[i + 1:].T).max(axis=0)
        bad = np.flatnonzero(prods > tol.residual_tol)
        if bad.size:
            j = i + 1 + int(bad[0])
            raise ConvergenceFailure(
                f"projections {i} and {j} are not orthogonal",
                witness={"pair": [i, j]},
            )
    coeffs.setflags(write=False)
    return coeffs
