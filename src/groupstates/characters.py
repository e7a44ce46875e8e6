"""Character tables and minimal central projections of finite groups.

The table is computed by the class-sum (Burnside) method: the matrices of
multiplication by class sums act on the center of the group algebra, one
Hermitian element of their span, drawn from a fixed stream, has simple
spectrum almost surely, and its eigenvectors (``eigh``) yield the central
characters (Serre, Linear Representations of Finite Groups, 2.5 and 6.3;
Dixon, Numer. Math. 10, 1967), so the table depends on the group and the
partition alone.  Dimensions come out of row orthogonality and are rounded
to exact integers, then re-verified.

Central elements are checked in class space: a class function is k class
values, and the class-sum structure constants multiply two of them in
O(k^3), which equals the group-algebra product once the partition is
certified to be the conjugacy partition (Isaacs, Character Theory of
Finite Groups, ch. 2-3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
import numpy as np

from .errors import ConvergenceFailure, DegenerateSpectrum
from .groups import (
    ConjugacyPartition,
    FaceDescriptor,
    FiniteGroup,
    _group_repr,
    _keep,
    _read_only,
    _served,
    _WeakGroup,
    conjugacy_classes,
)
from .linalg import DEFAULT_TOL, Tolerance

_GAP_FACTOR = 1e-6
_MAX_RESAMPLES = 20
_DIM_ROUNDING_TOL = 1e-6


@dataclass(frozen=True, eq=False)
class CharacterTable:
    """Irreducible characters evaluated at class representatives.

    ``chars[pi][c]`` is the value of the pi-th irreducible character at the
    representative of class c.  Rows are sorted canonically by (dimension,
    lexicographic order of the rounded row), so the table is deterministic.

    ``_kept`` holds the projections :func:`minimal_central_projections`
    verified for ``group`` (see ``groups.FiniteGroup``).  ``group`` is a
    weak back-reference (``groups._WeakGroup``).  Tables compare by identity.
    ``structure``, the read-only class-sum structure constants of ``group``
    on ``partition`` (:func:`class_sum_structure_constants`), is built on
    first read; a built table carries the ones it was computed from.
    """

    group: FiniteGroup = _WeakGroup()
    partition: ConjugacyPartition
    dims: tuple[int, ...]
    chars: np.ndarray
    _kept: dict = field(default_factory=dict, init=False, repr=False)

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

    @cached_property
    def structure(self) -> np.ndarray:
        return _read_only(class_sum_structure_constants(self.group, self.partition))


def class_sum_structure_constants(
    group: FiniteGroup, partition: ConjugacyPartition | None = None
) -> np.ndarray:
    """Integer tensor a with C_i C_j = sum_l a[i,j,l] C_l in the group algebra.

    a[i,j,l] counts pairs (x, y) in C_i x C_j with x y equal to the fixed
    representative of C_l; the count is independent of the representative.
    One ``bincount`` over the n k pairs (x, x^{-1} rep_l).
    """
    if partition is None:
        partition = conjugacy_classes(group)
    k = partition.num_classes
    cls = partition.class_of
    # x * y = rep_l  <=>  y = x^{-1} rep_l, for every x and l
    y = group.cayley[group.inverses[:, None], list(partition.class_reps)]
    flat = (cls[:, None] * k + cls[y]) * k + np.arange(k)
    return np.bincount(flat.ravel(), minlength=k**3).reshape(k, k, k)


def character_table(
    group: FiniteGroup,
    tol: Tolerance = DEFAULT_TOL,
    partition: ConjugacyPartition | None = None,
) -> CharacterTable:
    """The character table, a function of the group and the partition alone:
    repeated builds, on this group object or a fresh one, are equal bit for
    bit.  The one built on the group's own partition (the default) is kept
    on the group under ``"table"``, see ``groups.FiniteGroup``; one built on
    any other partition is not."""
    own = conjugacy_classes(group)
    if partition is None or partition is own:
        table = _served(group, "table", tol)
        if table is None:
            table = _build_table(group, tol, own)
            _keep(group, "table", tol, table)
        return table
    return _build_table(group, tol, partition)


def _build_table(
    group: FiniteGroup, tol: Tolerance, partition: ConjugacyPartition
) -> CharacterTable:
    k = partition.num_classes
    n = group.order
    sizes = np.array(partition.class_sizes, dtype=float)
    structure = _read_only(class_sum_structure_constants(group, partition))
    # M_i = D^1/2 N_i D^-1/2, with (N_i)[l, j] = a[i, j, l] and D the class
    # sizes, acts on orthonormal center coordinates, and M_i^H = M_{i*}
    root = np.sqrt(sizes)
    mats = structure.transpose(0, 2, 1) * (root[:, None] / root)

    # x = A + A^H + i (B - B^H) with A, B real combinations of the M_i is
    # Hermitian, and on character pi its eigenvalue is
    # 2 Re omega_pi(A) - 2 Im omega_pi(B), which also parts conjugate pairs
    rng = np.random.default_rng(0)
    for _ in range(_MAX_RESAMPLES):
        a, b = np.tensordot(rng.uniform(1.0, 2.0, size=(2, k)), mats, axes=1)
        x = a + a.T + 1j * (b - b.T)
        evals, vecs = np.linalg.eigh(x)
        if (np.diff(evals) > _GAP_FACTOR * max(float(np.abs(x).max()), 1.0)).all():
            break
    else:
        raise DegenerateSpectrum(
            f"no eigenvalue separation after {_MAX_RESAMPLES} resamples",
            witness={"resamples": _MAX_RESAMPLES},
        )

    # Rayleigh quotients give the central characters omega_p(i) =
    # |C_i| chi_p(g_i) / d_p on the shared unit eigenvectors, in one product
    omega = np.einsum("lp,ilp->pi", vecs.conj(), mats @ vecs, order="C")
    d_raw = np.sqrt(n / (np.abs(omega) ** 2 / sizes).sum(axis=1))
    nearest = np.round(d_raw)
    # written so that a NaN dimension fails too
    bad = np.flatnonzero(~((nearest >= 1) & (np.abs(d_raw - nearest) <= _DIM_ROUNDING_TOL)))
    if bad.size:
        raw = float(d_raw[bad[0]])
        raise ConvergenceFailure(
            f"irrep dimension {raw} does not round to an integer",
            witness={"raw_dimension": raw},
        )
    dims = nearest.astype(int).tolist()

    if sum(d * d for d in dims) != n:
        raise ConvergenceFailure(
            "sum of squared dimensions does not match the group order",
            witness={"dims": dims, "order": n},
        )

    chars = np.array(dims)[:, None] * omega / sizes
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
    table = CharacterTable(group, partition, dims, chars)
    # the constants the table was computed from, in place of a second build
    vars(table)["structure"] = structure
    return table


def minimal_central_projections(
    group: FiniteGroup,
    table: CharacterTable,
    tol: Tolerance = DEFAULT_TOL,
) -> list[FaceDescriptor]:
    """The projections p_pi = (d_pi/|G|) sum_s conj(chi_pi(s)) lambda_s.

    Verified in class space (:func:`_verified_projections`): each a
    projection of regular-representation rank d_pi^2, read from the trace
    n p(e), the set pairwise orthogonal and summing to the identity.  When
    ``group`` is the table's own group the verified coefficients are kept
    on the table (see ``groups.FiniteGroup``); each call returns fresh
    ``groups.FaceDescriptor`` objects over them, the supports of the
    minimal split faces: central, split, with ``irreps == (pi,)``.
    """
    coeffs = _projection_coeffs(group, table, tol)
    return [
        FaceDescriptor(group, c, None, True, True, irreps=(pi,)) for pi, c in enumerate(coeffs)
    ]


def _projection_coeffs(
    group: FiniteGroup, table: CharacterTable, tol: Tolerance
) -> np.ndarray:
    """The verified coefficient rows of :func:`minimal_central_projections`,
    one per irrep, kept on the table when ``group`` is its own."""
    own = group is table._group_ref()
    coeffs = _served(table, "projections", tol) if own else None
    if coeffs is None:
        coeffs = _verified_projections(group, table, tol)
        if own:
            _keep(table, "projections", tol, coeffs)
    return coeffs


def _certify_partition(group: FiniteGroup, partition: ConjugacyPartition) -> None:
    """Check in O(n k) that ``partition`` is the conjugacy partition of
    ``group``: class_of labels each representative with its own class and
    class sizes are its label counts; the conjugation orbit of each
    representative lies in its class and has n / |centralizer| elements,
    the class size, so it is the whole class.  Raises ConvergenceFailure
    naming the first class that fails."""
    n, k = group.order, partition.num_classes
    cls = np.asarray(partition.class_of)
    reps = np.asarray(partition.class_reps, dtype=np.int64)
    sizes = np.asarray(partition.class_sizes, dtype=np.int64)
    if not (
        cls.shape == (n,) and reps.shape == sizes.shape == (k,)
        and ((0 <= cls) & (cls < k)).all() and ((0 <= reps) & (reps < n)).all()
    ):
        raise ConvergenceFailure(
            "partition does not label every group element with one of its classes",
            witness={"order": n, "classes": k},
        )
    labels = np.arange(k)
    # orbits[g, i] = g rep_i g^{-1}
    orbits = group.cayley[group.cayley[:, reps], group.inverses[:, None]]
    centralizers = (orbits == reps).sum(axis=0)
    bad = (
        (cls[reps] != labels)
        | (np.bincount(cls, minlength=k) != sizes)
        | (cls[orbits] != labels).any(axis=0)
        | (centralizers * sizes != n)
    )
    if bad.any():
        c = int(np.argmax(bad))
        raise ConvergenceFailure(
            f"class {c} is not the conjugacy class of its representative",
            witness={"class": c},
        )


def _projection_residuals(group: FiniteGroup, table: CharacterTable):
    """Class values and residuals of the minimal central projections.

    Returns (x, herm, idem, ranks, total, orth): ``x[pi, i]`` is p_pi on
    class i; per irrep the Hermitian residual max|p - p*|, the idempotent
    residual max|p p - p| and the rank round(n p(e)); the residual of the
    sum against the identity; and ``orth[pi, rho]`` = max|p_pi p_rho|.
    Products come from the structure constants in O(k^4) for all pairs at
    once; on the certified conjugacy partition they are the group-algebra
    products, and each maximum over classes is the one over elements.
    """
    partition = table.partition
    _certify_partition(group, partition)
    n = group.order
    structure = table.structure if group is table._group_ref() else (
        class_sum_structure_constants(group, partition)
    )
    cls = partition.class_of
    reps = list(partition.class_reps)
    x = np.conj(table.chars) * (np.array(table.dims)[:, None] / n)
    # s^{-1} lies in class inverse[i] for every s in class i
    herm = np.abs(x - np.conj(x[:, cls[group.inverses[reps]]])).max(axis=1)
    # prods[pi, rho, l] = sum_ij x[pi, i] a[i, j, l] x[rho, j]
    k = len(reps)
    half = (x @ structure.reshape(k, k * k).astype(float)).reshape(-1, k, k)
    prods = x @ half
    diag = np.arange(len(x))
    idem = np.abs(prods[diag, diag] - x).max(axis=1)
    ranks = np.round(n * x[:, cls[group.identity]].real)
    total = x.sum(axis=0)
    total[cls[group.identity]] -= 1.0
    orth = np.abs(prods).max(axis=2)
    return x, herm, idem, ranks, float(np.abs(total).max()), orth


def _verified_projections(
    group: FiniteGroup, table: CharacterTable, tol: Tolerance
) -> np.ndarray:
    """Coefficients of the minimal central projections, one row per irrep,
    read-only, after the checks of :func:`minimal_central_projections` on
    the residuals of :func:`_projection_residuals`, in this order: per
    irrep its projection residuals, then its rank; the sum; each pair."""
    x, herm, idem, ranks, total, orth = _projection_residuals(group, table)
    expected = np.array(table.dims) ** 2
    not_projection = (herm > tol.residual_tol) | (idem > tol.residual_tol)
    bad = np.flatnonzero(not_projection | (ranks != expected))
    if bad.size:
        pi = int(bad[0])
        if not_projection[pi]:
            h, i = float(herm[pi]), float(idem[pi])
            raise ConvergenceFailure(
                f"p_{pi} is not a projection (herm {h:.2e}, idem {i:.2e})",
                witness={"hermitian_residual": h, "idempotent_residual": i},
            )
        rank, d2 = int(ranks[pi]), int(expected[pi])
        raise ConvergenceFailure(
            f"central projection {pi} has rank {rank}, expected {d2}",
            witness={"irrep": pi, "rank": rank, "expected": d2},
        )
    if total > tol.residual_tol:
        raise ConvergenceFailure(
            "minimal central projections do not sum to the identity",
            witness={"residual": total},
        )
    bad = np.argwhere(np.triu(orth > tol.residual_tol, 1))
    if bad.size:
        i, j = (int(v) for v in bad[0])
        raise ConvergenceFailure(
            f"projections {i} and {j} are not orthogonal",
            witness={"pair": [i, j]},
        )
    coeffs = x[:, table.partition.class_of]
    coeffs.setflags(write=False)
    return coeffs
