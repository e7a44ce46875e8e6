"""Finite groups as dense Cayley tables.

Elements are dense integer indices 0..n-1; labels are cosmetic metadata.
The module also holds the small amount of group-algebra plumbing
(convolution, adjoint, the projection check, the regular-representation
image of a coefficient vector) that the state and channel modules build on.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .errors import (
    ConvergenceFailure,
    DimensionMismatch,
    NoIdentity,
    NotAssociative,
    NotLatinSquare,
    SizeLimitExceeded,
)
from .linalg import DEFAULT_TOL, Tolerance

if TYPE_CHECKING:
    from .vn import BlockDecomposition

DEFAULT_CLOSURE_LIMIT = 10000
SYMMETRIC_DEGREE_LIMIT = 8


@dataclass(eq=False)
class FiniteGroup:
    """A finite group: Cayley table, identity, inverses, optional labels.

    ``_block_decomposition`` is the verified decomposition that
    :func:`groupstates.vn.block_decompose` keeps for this group (the one
    verified at the tightest ``residual_tol``), or None; the PSD, A-norm,
    CP and extremality queries read its Fourier blocks when its tolerance
    allows (see ``vn.cached_block_decomposition``).
    """

    order: int
    cayley: np.ndarray
    identity: int
    inverses: np.ndarray
    labels: tuple[str, ...] | None = None
    name: str = "group"
    _block_decomposition: BlockDecomposition | None = field(
        default=None, init=False, repr=False
    )

    def __post_init__(self):
        self.cayley = np.ascontiguousarray(self.cayley, dtype=np.int64)
        self.inverses = np.ascontiguousarray(self.inverses, dtype=np.int64)
        self.cayley.setflags(write=False)
        self.inverses.setflags(write=False)

    def mul(self, a: int, b: int) -> int:
        return int(self.cayley[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def elements(self) -> range:
        return range(self.order)

    def label(self, s: int) -> str:
        return self.labels[s] if self.labels is not None else str(s)

    @property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.cayley, self.cayley.T))

    @functools.cached_property
    def _generators(self) -> tuple[int, ...]:
        # computed once per group, see generating_set
        gens: list[int] = []
        inside = np.zeros(self.order, dtype=bool)
        inside[self.identity] = True
        for s in range(self.order):
            if inside[s]:
                continue
            gens.append(s)
            # the generated subgroup: close the previous one under right
            # multiplication by every generator (finite, so inverses follow)
            frontier = np.flatnonzero(inside)
            while frontier.size:
                step = np.unique(self.cayley[np.ix_(frontier, gens)])
                frontier = step[~inside[step]]
                inside[frontier] = True
            if inside.all():
                break
        return tuple(gens)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


@dataclass(frozen=True)
class ConjugacyPartition:
    """Conjugation orbits: disjoint classes covering the group."""

    classes: tuple[tuple[int, ...], ...]
    class_of: np.ndarray
    class_sizes: tuple[int, ...]
    class_reps: tuple[int, ...]

    @property
    def num_classes(self) -> int:
        return len(self.classes)


def validate_group(cayley, labels=None, name: str = "group") -> FiniteGroup:
    """Check a multiplication table and build the group it defines.

    Verifies the Latin-square property, existence of a two-sided identity,
    and associativity over all triples; computes inverses.
    """
    table = np.asarray(cayley, dtype=np.int64)
    if table.ndim != 2 or table.shape[0] != table.shape[1]:
        raise NotLatinSquare(
            f"table must be square, got shape {table.shape}",
            witness={"shape": list(table.shape)},
        )
    n = table.shape[0]
    if n == 0:
        raise NotLatinSquare("empty table", witness={"shape": [0, 0]})
    if table.min() < 0 or table.max() >= n:
        bad = np.argwhere((table < 0) | (table >= n))[0]
        raise NotLatinSquare(
            f"entry out of range at {tuple(bad)}",
            witness={"position": [int(bad[0]), int(bad[1])]},
        )
    ref = np.arange(n)
    for i in range(n):
        if not np.array_equal(np.sort(table[i]), ref):
            raise NotLatinSquare(
                f"row {i} is not a permutation", witness={"row": i}
            )
        if not np.array_equal(np.sort(table[:, i]), ref):
            raise NotLatinSquare(
                f"column {i} is not a permutation", witness={"column": i}
            )

    identity = -1
    for e in range(n):
        if np.array_equal(table[e], ref) and np.array_equal(table[:, e], ref):
            identity = e
            break
    if identity < 0:
        raise NoIdentity("no two-sided identity element", witness={})

    # associativity: (a b) c == a (b c), one O(n^2) slab per a
    for a in range(n):
        lhs = table[table[a], :]
        rhs = table[a][table]
        if not np.array_equal(lhs, rhs):
            b, c = np.argwhere(lhs != rhs)[0]
            raise NotAssociative(
                f"(a*b)*c != a*(b*c) for (a,b,c)=({a},{int(b)},{int(c)})",
                witness={"triple": [a, int(b), int(c)]},
            )

    inverses = np.empty(n, dtype=np.int64)
    for s in range(n):
        inverses[s] = int(np.nonzero(table[s] == identity)[0][0])

    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} elements")
    return FiniteGroup(n, table, identity, inverses, labels, name)


def _table_from_model(elems, op, labels, name) -> FiniteGroup:
    index = {x: i for i, x in enumerate(elems)}
    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = index[op(x, y)]
    return validate_group(table, labels=labels, name=name)


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    labels = tuple(f"g^{k}" for k in range(n))
    return validate_group(table, labels=labels, name=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n (rotations r, flips s*r^i)."""
    if n < 1:
        raise ValueError("dihedral parameter must be positive")

    def op(x, y):
        i, f = x
        j, g = y
        return ((i + j) % n if f == 0 else (i - j) % n, f ^ g)

    elems = [(i, f) for f in (0, 1) for i in range(n)]
    labels = tuple(f"r^{i}" if f == 0 else f"s*r^{i}" for i, f in elems)
    return _table_from_model(elems, op, labels, f"D{n}")


_QUATERNION_AXIS = {
    (0, 0): (1, 0), (0, 1): (1, 1), (0, 2): (1, 2), (0, 3): (1, 3),
    (1, 0): (1, 1), (1, 1): (-1, 0), (1, 2): (1, 3), (1, 3): (-1, 2),
    (2, 0): (1, 2), (2, 1): (-1, 3), (2, 2): (-1, 0), (2, 3): (1, 1),
    (3, 0): (1, 3), (3, 1): (1, 2), (3, 2): (-1, 1), (3, 3): (-1, 0),
}


def quaternion_group() -> FiniteGroup:
    """The unit quaternions {±1, ±i, ±j, ±k}, in that element order."""

    def op(x, y):
        sx, ax = x
        sy, ay = y
        sz, az = _QUATERNION_AXIS[(ax, ay)]
        return (sx * sy * sz, az)

    elems = [(s, a) for a in range(4) for s in (1, -1)]
    base = ["1", "i", "j", "k"]
    labels = tuple(base[a] if s == 1 else "-" + base[a] for s, a in elems)
    return _table_from_model(elems, op, labels, "Q8")


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of {0..n-1} under composition, order n!."""
    if n < 1:
        raise ValueError("symmetric degree must be positive")
    if n > SYMMETRIC_DEGREE_LIMIT:
        raise SizeLimitExceeded(
            f"symmetric group degree {n} exceeds limit {SYMMETRIC_DEGREE_LIMIT}",
            witness={"degree": n, "limit": SYMMETRIC_DEGREE_LIMIT},
        )

    def op(p, q):
        return tuple(p[q[i]] for i in range(n))

    elems = list(itertools.permutations(range(n)))
    labels = tuple("".join(map(str, p)) for p in elems)
    return _table_from_model(elems, op, labels, f"S{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) packed as a * |H| + b."""
    n, m = g.order, h.order
    a = np.repeat(np.arange(n), m)
    b = np.tile(np.arange(m), n)
    table = g.cayley[np.ix_(a, a)] * m + h.cayley[np.ix_(b, b)]
    labels = tuple(
        f"({g.label(int(x))},{h.label(int(y))})" for x, y in zip(a, b)
    )
    return validate_group(table, labels=labels, name=f"{g.name}x{h.name}")


def build_named(kind: str) -> FiniteGroup:
    """Build a group from a CLI-style kind string.

    Supported kinds: ``cyclic:n``, ``dihedral:n``, ``quaternion8``,
    ``symmetric:n``, ``product:<kind>,<kind>``.
    """
    kind = kind.strip()
    if kind == "quaternion8":
        return quaternion_group()
    if kind.startswith("product:"):
        body = kind[len("product:"):]
        # factors are basic kinds (comma-free); the right factor may itself
        # be a product, so split at the first comma only
        split_at = body.find(",")
        if split_at < 0:
            raise ValueError(f"product kind needs two comma-separated factors: {kind!r}")
        return direct_product(build_named(body[:split_at]), build_named(body[split_at + 1:]))
    if ":" in kind:
        head, _, arg = kind.partition(":")
        n = int(arg)
        if head == "cyclic":
            return cyclic_group(n)
        if head == "dihedral":
            return dihedral_group(n)
        if head == "symmetric":
            return symmetric_group(n)
    raise ValueError(f"unknown group kind {kind!r}")


def from_permutation_generators(
    gens, max_order: int = DEFAULT_CLOSURE_LIMIT
) -> FiniteGroup:
    """Breadth-first closure of permutation generators under composition."""
    gens = [tuple(int(x) for x in p) for p in gens]
    if not gens:
        raise ValueError("need at least one generator")
    m = len(gens[0])
    for p in gens:
        if len(p) != m or sorted(p) != list(range(m)):
            raise ValueError(f"generator {p} is not a permutation of 0..{m - 1}")

    ident = tuple(range(m))
    index: dict[tuple[int, ...], int] = {ident: 0}
    elems = [ident]
    frontier = [ident]
    while frontier:
        nxt = []
        for x in frontier:
            for p in gens:
                z = tuple(p[x[i]] for i in range(m))
                if z not in index:
                    if len(elems) >= max_order:
                        raise SizeLimitExceeded(
                            f"closure exceeds {max_order} elements",
                            witness={"limit": max_order},
                        )
                    index[z] = len(elems)
                    elems.append(z)
                    nxt.append(z)
        frontier = nxt

    n = len(elems)
    table = np.empty((n, n), dtype=np.int64)
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            table[i, j] = index[tuple(x[y[t]] for t in range(m))]
    labels = tuple("".join(map(str, p)) for p in elems) if m <= 10 else None
    return validate_group(table, labels=labels, name=f"perm{n}")


def conjugacy_classes(group: FiniteGroup) -> ConjugacyPartition:
    """Orbits of the conjugation action, identity class first."""
    n = group.order
    table, inv = group.cayley, group.inverses
    all_g = np.arange(n)
    seen = np.zeros(n, dtype=bool)
    classes = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = np.unique(table[table[all_g, s], inv[all_g]])
        seen[orbit] = True
        classes.append(tuple(int(x) for x in orbit))
    classes.sort(key=lambda c: (group.identity not in c, len(c), c[0]))

    class_of = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(classes):
        for s in members:
            class_of[s] = ci
    class_of.setflags(write=False)
    return ConjugacyPartition(
        classes=tuple(classes),
        class_of=class_of,
        class_sizes=tuple(len(c) for c in classes),
        class_reps=tuple(min(c) for c in classes),
    )


def generating_set(group: FiniteGroup) -> list[int]:
    """A small generating set, greedily built in element order: each
    element outside the subgroup generated so far is added.  Computed once
    per group and kept on it."""
    return list(group._generators)


# --------------------------------------------------------------------------
# group-algebra plumbing: elements are complex coefficient vectors c with
# x = sum_s c[s] lambda_s; the regular representation realizes them as
# n x n matrices.
# --------------------------------------------------------------------------

def convolve(group: FiniteGroup, a, b) -> np.ndarray:
    """Coefficients of the product (sum a_s lambda_s)(sum b_t lambda_t)."""
    return algebra_matrix(group, a) @ np.asarray(b, dtype=complex)


def star(group: FiniteGroup, a) -> np.ndarray:
    """Coefficients of the adjoint: (a*)(s) = conj(a(s^{-1}))."""
    a = np.asarray(a, dtype=complex)
    return np.conj(a[group.inverses])


def check_projection(
    group: FiniteGroup, coeffs, tol: Tolerance = DEFAULT_TOL, what: str = "element"
) -> tuple[float, float]:
    """Hermitian and idempotent residuals max|c - c*| and max|c c - c|.

    Every regular-representation entry is a coefficient, so these are the
    max-abs entries of the n x n residual matrices.  Raises
    DimensionMismatch when ``coeffs`` is not one value per element, and
    ConvergenceFailure when either residual exceeds ``residual_tol``.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (group.order,):
        raise DimensionMismatch(
            f"{what} has coefficient shape {c.shape}, group order is {group.order}",
            witness={"shape": list(c.shape), "order": group.order},
        )
    herm = float(np.abs(c - star(group, c)).max())
    idem = float(np.abs(convolve(group, c, c) - c).max())
    if herm > tol.residual_tol or idem > tol.residual_tol:
        raise ConvergenceFailure(
            f"{what} is not a projection (herm {herm:.2e}, idem {idem:.2e})",
            witness={"hermitian_residual": herm, "idempotent_residual": idem},
        )
    return herm, idem


def algebra_matrix(group: FiniteGroup, coeffs) -> np.ndarray:
    """Regular-representation image of sum_s coeffs[s] lambda_s."""
    c = np.asarray(coeffs, dtype=complex)
    # row t, column u carries coeff(t u^{-1})
    idx = group.cayley[:, group.inverses]
    return c[idx]


def same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Identity of groups as data: equal tables (labels ignored)."""
    return g is h or (g.order == h.order and np.array_equal(g.cayley, h.cayley))
