"""Finite groups as dense Cayley tables.

Elements are dense integer indices 0..n-1; labels are cosmetic metadata.
The module also holds the small amount of group-algebra plumbing
(convolution, adjoint, the projection check, the regular-representation
image of a coefficient vector, and ``FaceDescriptor``, which holds a
projection's coefficients) that the other modules build on.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from dataclasses import dataclass, field

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

DEFAULT_CLOSURE_LIMIT = 10000
# entries of one chunk of the product gather in _permutation_table
_GATHER_ENTRIES = 2**20


@dataclass(eq=False)
class FiniteGroup:
    """A finite group: Cayley table, identity, inverses, optional labels.

    The group keeps what is built for it, so each piece is computed once:

    - ``_conjugacy`` (:func:`conjugacy_classes`) and ``_generators``
      (:func:`generating_set`);
    - in ``_kept``, with the ``residual_tol`` each was verified at: under
      ``"table"`` the table ``characters.character_table`` built on the
      group's own partition, and under ``"decomposition"`` the one
      ``vn.block_decompose`` built from such a table.  A table's ``_kept``
      holds, under ``"projections"``, the coefficient rows
      ``characters.minimal_central_projections`` verified for its group.
      One rule serves them all (:func:`_served`, :func:`_keep`): a value
      is served at its tolerance or a looser one, the tightest is kept,
      the latest among equals, and each equals a fresh build with the
      same arguments bit for bit.

    Kept tables and decompositions point back at the group weakly
    (:class:`_WeakGroup`), so dropping the last reference to the group
    frees it and everything it keeps without the cyclic collector.  A
    caller that keeps a table or a decomposition must hold its group.

    No n x n index is kept: each gather builds its index from ``cayley``
    and ``inverses`` where it is read (8 n^2 bytes while it lives).
    """

    order: int
    cayley: np.ndarray
    identity: int
    inverses: np.ndarray
    labels: tuple[str, ...] | None = None
    name: str = "group"
    _kept: dict = field(default_factory=dict, init=False, repr=False)

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
        return _closure_generators(self.cayley, self.identity)

    @functools.cached_property
    def _conjugacy(self) -> ConjugacyPartition:
        # computed once per group, see conjugacy_classes
        return _conjugacy_orbits(self)

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


def _served(holder, key, tol: Tolerance):
    """The value ``holder`` keeps under ``key`` when it was verified at
    ``tol.residual_tol`` or tighter, else None."""
    kept = holder._kept.get(key)
    return kept[1] if kept is not None and kept[0] <= tol.residual_tol else None


def _keep(holder, key, tol: Tolerance, value) -> None:
    """Keep ``value``, verified at ``tol``, under ``key`` unless a value
    verified at a tighter ``residual_tol`` is kept there: the tightest is
    kept, the latest among equals."""
    kept = holder._kept.get(key)
    if kept is None or kept[0] >= tol.residual_tol:
        holder._kept[key] = (tol.residual_tol, value)


def cached_block_decomposition(group: FiniteGroup, tol: Tolerance = DEFAULT_TOL):
    """The decomposition ``vn.block_decompose`` keeps for ``group``, or None
    when there is none verified at ``tol.residual_tol`` or tighter."""
    return _served(group, "decomposition", tol)


class _WeakGroup:
    """The ``group`` field of a structure that a group keeps: set once, by
    the constructor, and held as a weak reference in the instance's
    ``_group_ref``, so that the structure does not keep its group alive.

    Reading the field dereferences it and raises ReferenceError, naming
    the structure, once the group is gone; ``_group_ref()`` reads None
    instead.  As a dataclass field default it leaves the field required,
    since reading it on the class raises AttributeError.
    """

    def __get__(self, obj, owner=None) -> FiniteGroup:
        if obj is None:
            raise AttributeError("group is an instance field")
        group = obj._group_ref()
        if group is None:
            raise ReferenceError(
                f"the group of {obj!r} has been freed; hold the group while using it"
            )
        return group

    def __set__(self, obj, group: FiniteGroup) -> None:
        if "_group_ref" in vars(obj):
            raise AttributeError("group is read-only")
        vars(obj)["_group_ref"] = weakref.ref(group)


def _group_repr(obj) -> str:
    """repr of the group ``obj`` points back at, or a marker once it is gone."""
    group = obj._group_ref()
    return "<freed group>" if group is None else repr(group)


def _read_only(table: np.ndarray) -> np.ndarray:
    table.setflags(write=False)
    return table


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is already read-only, else a read-only copy, so
    that a holder never changes the flags of its caller's array."""
    return a if not a.flags.writeable else _read_only(a.copy())


def _closure_generators(table: np.ndarray, identity: int) -> tuple[int, ...]:
    """Each element outside the closure of the earlier ones under right
    multiplication, in element order: a generating set whose left-normed
    products reach every element.  Needs only a table and its identity, so
    validate_group runs it before associativity is known."""
    n = len(table)
    gens: list[int] = []
    inside = np.zeros(n, dtype=bool)
    inside[identity] = True
    for s in range(n):
        if inside[s]:
            continue
        gens.append(s)
        # the generated subgroup: close the previous one under right
        # multiplication by every generator (finite, so inverses follow)
        frontier = np.flatnonzero(inside)
        while frontier.size:
            step = np.unique(table[np.ix_(frontier, gens)])
            frontier = step[~inside[step]]
            inside[frontier] = True
        if inside.all():
            break
    return tuple(gens)


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

    Verifies the Latin-square property and the existence of a two-sided
    identity, then associativity by Light's test: (x a) y = x (a y) for
    every x, y and every a in a generating set.  The elements a passing it
    are closed under products and the identity passes it, so it covers
    every element (Clifford and Preston, Algebraic Theory of Semigroups I,
    1.2); the cost is O(n^2 |gens|) instead of n^3.  Computes inverses.
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
    bad_rows = np.flatnonzero((np.sort(table, axis=1) != ref).any(axis=1))
    bad_cols = np.flatnonzero((np.sort(table, axis=0) != ref[:, None]).any(axis=0))
    # the first offending index; at equal index the row is reported
    row = int(bad_rows[0]) if bad_rows.size else n
    col = int(bad_cols[0]) if bad_cols.size else n
    if row < n and row <= col:
        raise NotLatinSquare(f"row {row} is not a permutation", witness={"row": row})
    if col < n:
        raise NotLatinSquare(f"column {col} is not a permutation", witness={"column": col})

    two_sided = (table == ref).all(axis=1) & (table == ref[:, None]).all(axis=0)
    if not two_sided.any():
        raise NoIdentity("no two-sided identity element", witness={})
    identity = int(np.argmax(two_sided))

    gens = _closure_generators(table, identity)
    for a in gens:
        # (x a) y against x (a y) for every x, y
        lhs = table[table[:, a]]
        rhs = table[:, table[a]]
        if not np.array_equal(lhs, rhs):
            x, y = (int(v) for v in np.argwhere(lhs != rhs)[0])
            raise NotAssociative(
                f"(a*b)*c != a*(b*c) for (a,b,c)=({x},{a},{y})",
                witness={"triple": [x, a, y]},
            )

    inverses = np.argmax(table == identity, axis=1)

    if labels is not None:
        labels = tuple(str(x) for x in labels)
        if len(labels) != n:
            raise ValueError(f"got {len(labels)} labels for {n} elements")
    group = FiniteGroup(n, table, identity, inverses, labels, name)
    # the closure generating_set would compute from the same table
    group._generators = gens
    return group


def _permutation_keys(perms: np.ndarray) -> np.ndarray:
    """One sortable key per permutation along the last axis of ``perms``:
    the bytes of its int64 row, compared lexicographically."""
    rows = np.ascontiguousarray(perms, dtype=np.int64)
    return rows.view(np.dtype((np.void, 8 * perms.shape[-1])))[..., 0]


def _permutation_table(perms: np.ndarray) -> np.ndarray:
    """Cayley table of a composition-closed set of permutations, one per
    row of ``perms``: entry [i, j] is the row of perms[i] o perms[j].

    All products are one (n, n, m) gather, taken in row chunks of at most
    _GATHER_ENTRIES entries, and each is found by its key with searchsorted.
    """
    n, m = perms.shape
    keys = _permutation_keys(perms)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    table = np.empty((n, n), dtype=np.int64)
    step = max(1, _GATHER_ENTRIES // max(1, n * m))
    for start in range(0, n, step):
        # (p o q)[t] = p[q[t]] for every p in the chunk and every q
        products = perms[start:start + step][:, perms]
        table[start:start + step] = order[np.searchsorted(sorted_keys, _permutation_keys(products))]
    return table


def _refuse_order_above_limit(order: int) -> None:
    """Refuse a group of more than DEFAULT_CLOSURE_LIMIT elements before
    its n x n table is allocated.  An order too long to write out in
    decimal is reported by its bit length."""
    if order <= DEFAULT_CLOSURE_LIMIT:
        return
    try:
        text = str(order)
    except ValueError:  # more digits than int-to-str conversion allows
        bits = order.bit_length()
        raise SizeLimitExceeded(
            f"group order of {bits} bits exceeds limit {DEFAULT_CLOSURE_LIMIT}",
            witness={"order_bits": bits, "limit": DEFAULT_CLOSURE_LIMIT},
        ) from None
    raise SizeLimitExceeded(
        f"group order {text} exceeds limit {DEFAULT_CLOSURE_LIMIT}",
        witness={"order": order, "limit": DEFAULT_CLOSURE_LIMIT},
    )


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ValueError("cyclic group order must be positive")
    _refuse_order_above_limit(n)
    table = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    labels = tuple(f"g^{k}" for k in range(n))
    return validate_group(table, labels=labels, name=f"Z{n}")


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the regular n-gon, order 2n (rotations r, flips s*r^i)."""
    if n < 1:
        raise ValueError("dihedral parameter must be positive")
    _refuse_order_above_limit(2 * n)

    # element f * n + i is r^i (f = 0) or s*r^i (f = 1)
    i, f = np.arange(2 * n) % n, np.arange(2 * n) // n
    sign = np.where(f == 0, 1, -1)
    table = (i[:, None] + sign[:, None] * i[None, :]) % n + n * (f[:, None] ^ f[None, :])
    labels = tuple(f"r^{a}" if b == 0 else f"s*r^{a}" for a, b in zip(i, f))
    return validate_group(table, labels=labels, name=f"D{n}")


# unit products of the axes 1, i, j, k: axis_a * axis_b = SIGN[a, b] * axis_{AXIS[a, b]}
_QUATERNION_SIGN = np.array([[1, 1, 1, 1], [1, -1, 1, -1], [1, -1, -1, 1], [1, 1, -1, -1]])
_QUATERNION_AXIS = np.array([[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]])


def quaternion_group() -> FiniteGroup:
    """The unit quaternions {±1, ±i, ±j, ±k}, in that element order."""
    # element 2 * axis + (sign < 0)
    axis, neg = np.arange(8) // 2, np.arange(8) % 2
    sign = np.where(neg == 0, 1, -1)
    product_sign = sign[:, None] * sign[None, :] * _QUATERNION_SIGN[np.ix_(axis, axis)]
    table = 2 * _QUATERNION_AXIS[np.ix_(axis, axis)] + (product_sign < 0)
    base = ["1", "i", "j", "k"]
    labels = tuple(("-" if b else "") + base[a] for a, b in zip(axis, neg))
    return validate_group(table, labels=labels, name="Q8")


def symmetric_group(n: int) -> FiniteGroup:
    """All permutations of {0..n-1} under composition, order n!."""
    if n < 1:
        raise ValueError("symmetric degree must be positive")
    order = 1
    for k in range(2, n + 1):  # stop once k! passes the limit: no huge n!
        order *= k
        if order > DEFAULT_CLOSURE_LIMIT and k < n:
            raise SizeLimitExceeded(
                f"S{n} has order at least {k}! = {order}, above limit {DEFAULT_CLOSURE_LIMIT}",
                witness={"degree": n, "order_at_least": order, "limit": DEFAULT_CLOSURE_LIMIT},
            )
    _refuse_order_above_limit(order)
    # lexicographic order
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int64)
    labels = tuple("".join(map(str, p)) for p in perms.tolist())
    return validate_group(_permutation_table(perms), labels=labels, name=f"S{n}")


def direct_product(g: FiniteGroup, h: FiniteGroup) -> FiniteGroup:
    """Direct product with element (a, b) packed as a * |H| + b."""
    n, m = g.order, h.order
    _refuse_order_above_limit(n * m)
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

    # breadth first, one layer at a time: the products p o x for x in the
    # frontier and p in gens, new ones in order of first appearance
    gen_arr = np.array(gens, dtype=np.int64)
    frontier = np.arange(m, dtype=np.int64)[None, :]
    layers = [frontier]
    known = _permutation_keys(frontier)
    while frontier.size:
        candidates = gen_arr[:, frontier].transpose(1, 0, 2).reshape(len(frontier) * len(gens), m)
        keys = _permutation_keys(candidates)
        _, first = np.unique(keys, return_index=True)
        first.sort()
        first = first[~np.isin(keys[first], known)]
        if known.size + first.size > max_order:
            raise SizeLimitExceeded(
                f"closure exceeds {max_order} elements",
                witness={"limit": max_order},
            )
        frontier = candidates[first]
        layers.append(frontier)
        known = np.concatenate([known, keys[first]])
    elems = np.concatenate(layers)

    n = len(elems)
    table = _permutation_table(elems)
    labels = tuple("".join(map(str, p)) for p in elems.tolist()) if m <= 10 else None
    return validate_group(table, labels=labels, name=f"perm{n}")


def conjugacy_classes(group: FiniteGroup) -> ConjugacyPartition:
    """Orbits of the conjugation action, identity class first.  Computed
    once per group and kept on it, so every call returns the same object."""
    return group._conjugacy


def _conjugacy_orbits(group: FiniteGroup) -> ConjugacyPartition:
    n = group.order
    table, inv = group.cayley, group.inverses
    seen = np.zeros(n, dtype=bool)
    classes = []
    for s in range(n):
        if seen[s]:
            continue
        orbit = np.unique(table[table[:, s], inv])
        seen[orbit] = True
        classes.append(tuple(int(x) for x in orbit))
    classes.sort(key=lambda c: (group.identity not in c, len(c), c[0]))

    class_of = np.empty(n, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_of[list(members)] = ci
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
    DimensionMismatch when ``coeffs`` is not one value per element,
    ValueError when one is NaN or infinite, and ConvergenceFailure when
    either residual exceeds ``residual_tol``.
    """
    c = np.asarray(coeffs, dtype=complex)
    if c.shape != (group.order,):
        raise DimensionMismatch(
            f"{what} has coefficient shape {c.shape}, group order is {group.order}",
            witness={"shape": list(c.shape), "order": group.order},
        )
    if not np.isfinite(c).all():
        raise ValueError(f"{what} coefficients contain NaN or Inf")
    herm = float(np.abs(c - star(group, c)).max())
    idem = float(np.abs(convolve(group, c, c) - c).max())
    if herm > tol.residual_tol or idem > tol.residual_tol:
        raise ConvergenceFailure(
            f"{what} is not a projection (herm {herm:.2e}, idem {idem:.2e})",
            witness={"hermitian_residual": herm, "idempotent_residual": idem},
        )
    return herm, idem


def algebra_matrix(group: FiniteGroup, coeffs) -> np.ndarray:
    """Regular-representation image of sum_s coeffs[s] lambda_s, the one
    builder of it: the Schur symbol and the dense PSD test read it.  The
    Gram matrix [phi(s_k^{-1} s_j)] of a function is this image's
    transpose with rows and columns relabelled by inversion, so it has
    the same spectrum."""
    # row t, column u carries coeff(t u^{-1})
    return np.asarray(coeffs, dtype=complex)[group.cayley[:, group.inverses]]


class FaceDescriptor:
    """A projection, and the face of states it supports, given by its
    coefficient vector.

    ``coeffs`` and ``matrix`` are read-only: an array passed in is kept as
    is when it is read-only and copied when it is writable, so the
    caller's array keeps its flags.  ``matrix`` is the n x n
    regular-representation image of the coefficients, built the first
    time it is read unless one is passed in.  ``irreps`` lists the blocks
    of a central projection; a singleton marks a minimal one.
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

    @functools.cached_property
    def matrix(self) -> np.ndarray:
        return _read_only(algebra_matrix(self.group, self.coeffs))


def same_group(g: FiniteGroup, h: FiniteGroup) -> bool:
    """Identity of groups as data: equal tables (labels ignored)."""
    return g is h or (g.order == h.order and np.array_equal(g.cayley, h.cayley))
