"""Positive definite functions on a finite group and their state realization.

A function phi with phi(e) = 1 and PSD Gram matrix corresponds to exactly
one normal state of the group von Neumann algebra: the density element with
coefficients phi(s) in the lambda basis, paired against the normalized
trace.  The correspondence is affine, isometric and involutive, and both
directions are implemented here together with the GNS representation and
the extremality test.

Convention note: the Gram matrix puts phi(s_k^{-1} s_j) at entry (j, k).
The GNS inner-product kernel is its transpose, which makes the matrix
coefficient at the cyclic vector come out as phi(s) rather than phi(s^{-1}).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import (
    BadWeights,
    ConvergenceFailure,
    GroupMismatch,
    InternalDisagreement,
    NotHermitianSymmetric,
    NotNormalized,
    NotPositiveDefinite,
)
from .groups import (
    FiniteGroup,
    _frozen,
    algebra_matrix,
    cached_block_decomposition,
    same_group,
)
from .linalg import DEFAULT_TOL, PsdVerdict, Tolerance, is_psd


@dataclass(frozen=True, eq=False)
class GroupFunction:
    """A complex function on the group, values indexed by element.

    Immutable: ``values`` is a private read-only copy of the input and
    cannot be reassigned, so the PSD verdict that
    :func:`is_positive_definite` computes is cached per ``Tolerance`` and
    reused by later queries on the same object.  So are the ascending
    eigenvalues of its Fourier blocks (``BlockDecomposition.block_spectra``),
    for one decomposition at a time: ``_block_spectra`` maps the last
    decomposition asked for to them, and holds that decomposition alive.
    The PSD verdict, the A-norm and the block ranks of one function on one
    decomposition therefore cost one transform and one ``eigvalsh`` per
    block dimension between them.
    """

    group: FiniteGroup
    values: np.ndarray
    _psd_verdicts: dict = field(default_factory=dict, init=False, repr=False)
    _block_spectra: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        v = np.array(self.values, dtype=complex)
        if v.shape != (self.group.order,):
            raise ValueError(
                f"expected {self.group.order} values, got shape {v.shape}"
            )
        if not np.isfinite(v).all():
            raise ValueError("function values contain NaN or Inf")
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    def __call__(self, s: int) -> complex:
        return complex(self.values[s])

    def _spectra(self, decomp) -> list[np.ndarray]:
        """``decomp.block_spectra(self.values)``, computed once while
        ``decomp`` is the last decomposition asked for."""
        spectra = self._block_spectra.get(decomp)
        if spectra is None:
            spectra = decomp.block_spectra(self.values)
            self._block_spectra.clear()
            self._block_spectra[decomp] = spectra
        return spectra


def delta_e(group: FiniteGroup) -> GroupFunction:
    """The point mass at the identity (the tracial state's function)."""
    v = np.zeros(group.order, dtype=complex)
    v[group.identity] = 1.0
    return GroupFunction(group, v)


def constant_one(group: FiniteGroup) -> GroupFunction:
    """The constant function 1 (the trivial representation's character)."""
    return GroupFunction(group, np.ones(group.order, dtype=complex))


def hermitian_symmetry_deviation(fn: GroupFunction) -> float:
    """Max deviation of phi(s^{-1}) from conj(phi(s))."""
    v = fn.values
    return float(np.abs(v[fn.group.inverses] - np.conj(v)).max())


def _require_hermitian_symmetric(fn: GroupFunction, tol: Tolerance) -> None:
    dev = hermitian_symmetry_deviation(fn)
    if dev > tol.residual_tol:
        raise NotHermitianSymmetric(
            f"phi(s^-1) != conj(phi(s)), max deviation {dev:.3e}",
            witness={"deviation": dev},
        )


def _gram_cutoff(fn: GroupFunction, tol: Tolerance) -> float:
    """The Gram matrix's eigenvalue cutoff, eig_tol * n * max|phi|: every
    Gram entry is a value of phi."""
    return tol.eig_tol * fn.group.order * float(np.abs(fn.values).max())


def _block_psd_verdict(fn: GroupFunction, decomp, tol: Tolerance) -> PsdVerdict:
    """PSD verdict of phi = fn from its Fourier blocks on ``decomp``, read
    from the block spectra kept on ``fn`` (computed on the first read).

    The regular representation of sum_s phi(s) lambda_s is the direct sum
    of block pi taken d_pi times, and the Gram and Schur matrices of phi
    are that matrix up to transposition and relabelling, so the three
    spectra coincide (Serre, 6.2).  The witness is the smallest block
    eigenvalue; the cutoff is the Gram matrix's (:func:`_gram_cutoff`).
    Verdict, cutoff and undecided flag therefore equal the dense test's,
    and the witness equals it up to rounding.
    """
    wmin = min(float(w[0]) for w in fn._spectra(decomp))
    return PsdVerdict.from_witness(wmin, _gram_cutoff(fn, tol))


def gram_matrix(fn: GroupFunction) -> np.ndarray:
    """The |G| x |G| matrix with entry (j, k) = phi(s_k^{-1} s_j)."""
    return fn.values[fn.group.cayley[fn.group.inverses].T]


def is_positive_definite(fn: GroupFunction, tol: Tolerance = DEFAULT_TOL) -> PsdVerdict:
    """PSD verdict for phi, with witness eigenvalue.

    When the group holds a block decomposition verified at ``tol`` or
    tighter (``groups.cached_block_decomposition``), the verdict is read from
    the Fourier blocks of phi (:func:`_block_psd_verdict`: phi is positive
    definite iff every block is PSD); otherwise it is the eigen-test of
    the full Gram matrix (:func:`linalg.is_psd`).  Both see the same
    spectrum with the same cutoff.  The dense path stays for a group
    without one, such as a freshly loaded one: on S5 its Gram test takes
    about 1.7 ms, while the table, projections and decomposition a block
    verdict needs take 5.4-6.4 ms (best of 5, one BLAS thread, 2-vCPU
    machine), so building a decomposition here would slow the CLI.  The
    Hermitian-symmetry check runs on every call; the eigen-test runs once
    per function and tolerance, and its verdict is cached on ``fn``, as are
    the block spectra it reads.
    """
    _require_hermitian_symmetric(fn, tol)
    verdict = fn._psd_verdicts.get(tol)
    if verdict is None:
        decomp = cached_block_decomposition(fn.group, tol)
        if decomp is None:
            verdict = is_psd(gram_matrix(fn), tol)
        else:
            verdict = _block_psd_verdict(fn, decomp, tol)
        fn._psd_verdicts[tol] = verdict
    return verdict


@dataclass(eq=False)
class NormalState:
    """A normal state of the group algebra, held as its density element.

    ``coefficients`` are the lambda-basis coefficients of the density (equal
    to the values of the corresponding positive definite function).  The
    pairing is omega(x) = tr(x . density) / |G|.  They are read-only: a
    read-only array is kept as is, a writable one is copied.
    """

    group: FiniteGroup
    coefficients: np.ndarray

    def __post_init__(self):
        self.coefficients = _frozen(self.coefficients)

    def expectation(self, coeffs) -> complex:
        """omega applied to the algebra element sum_s coeffs[s] lambda_s."""
        c = np.asarray(coeffs, dtype=complex)
        return complex(np.sum(c * self.coefficients[self.group.inverses]))


def to_state(fn: GroupFunction, tol: Tolerance = DEFAULT_TOL) -> NormalState:
    """Realize a normalized positive definite function as a normal state.

    Membership in P1 is verified here, never taken from the caller: raises
    NotNormalized when phi(e) != 1 and NotPositiveDefinite when phi fails
    the PSD test, whose witness is the smallest eigenvalue of the Gram
    matrix (equal to the smallest Fourier-block eigenvalue).  The test is
    :func:`is_positive_definite`, on the Fourier blocks when the group
    holds a decomposition and on the Gram matrix otherwise, so a verdict
    it already cached on ``fn`` is reused, not recomputed.
    """
    g = fn.group
    fe = fn.values[g.identity]
    if abs(fe - 1.0) > tol.residual_tol:
        raise NotNormalized(
            f"phi(e) = {fe}, expected 1", witness={"value_at_identity": [fe.real, fe.imag]}
        )
    verdict = is_positive_definite(fn, tol)
    if not verdict.is_psd:
        raise NotPositiveDefinite(
            f"Gram matrix has eigenvalue {verdict.witness:.3e}",
            witness={"min_eigenvalue": verdict.witness, "cutoff": verdict.cutoff},
        )
    return NormalState(g, fn.values)


def from_state(state: NormalState) -> GroupFunction:
    """The positive definite function phi(s) = omega(lambda_s^*)."""
    return GroupFunction(state.group, state.coefficients)


def a_norm(fn: GroupFunction, tol: Tolerance = DEFAULT_TOL) -> float:
    """Fourier-algebra norm: trace norm of the density in the normalized trace.

    The density of a Hermitian-symmetric function is Hermitian, so its
    trace norm is the sum of the absolute eigenvalues.  When the group
    holds a block decomposition verified at ``tol`` or tighter this is
    sum_pi (d_pi / n) ||B_pi||_1 over the Fourier blocks B_pi of phi,
    whose spectra are kept on ``fn``; otherwise the eigenvalues are those
    of the dense n x n density, which costs less than building a
    decomposition: about 1.5 ms on a freshly loaded S5 against 5.4-6.4 ms
    (see is_positive_definite).
    """
    _require_hermitian_symmetric(fn, tol)
    decomp = cached_block_decomposition(fn.group, tol)
    if decomp is not None:
        # block pi contributes d_pi times each of its d_pi eigenvalues
        dims = decomp.block_dims
        evals = np.concatenate(fn._spectra(decomp))
        return float(np.repeat(dims, dims) @ np.abs(evals)) / fn.group.order
    density = algebra_matrix(fn.group, fn.values)
    density = (density + density.conj().T) / 2
    return float(np.abs(np.linalg.eigvalsh(density)).sum()) / fn.group.order


def convex_combine(
    weights: Sequence[float], fns: Sequence[GroupFunction]
) -> GroupFunction:
    """Pointwise convex combination of functions over one group."""
    w = np.asarray(weights, dtype=float)
    if len(fns) == 0 or w.shape != (len(fns),):
        raise BadWeights(
            f"{w.size} weights for {len(fns)} functions",
            witness={"weights": w.tolist(), "functions": len(fns)},
        )
    if w.min() < 0 or abs(w.sum() - 1.0) > 1e-12:
        raise BadWeights(
            f"weights must be nonnegative and sum to 1, got sum {w.sum()!r}",
            witness={"weights": w.tolist(), "sum": float(w.sum())},
        )
    base = fns[0].group
    for fn in fns[1:]:
        if not same_group(base, fn.group):
            raise GroupMismatch(
                "functions live on different groups",
                witness={"orders": [base.order, fn.group.order]},
            )
    mixed = np.tensordot(w, np.stack([fn.values for fn in fns]), axes=1)
    return GroupFunction(base, mixed)


def _regular_traces(translate: np.ndarray, m: np.ndarray) -> np.ndarray:
    """tr(lambda_s m) = sum_t m[s^{-1} t, t] for every s, as one n x n
    gather; ``translate[s, t]`` is the index of s^{-1} t."""
    n = len(m)
    return np.take(m, translate * n + np.arange(n)).sum(axis=1)


@dataclass(eq=False)
class GnsRepresentation:
    """The cyclic unitary representation built from a state.

    The GNS space is the quotient of the group algebra by the null space of
    the form phi induces.  ``project`` (dim x n) sends a coefficient vector
    to its class in an orthonormal basis, ``lift`` (n x dim) sends a basis
    vector back to a representative, and rho(s) = project . lambda_s . lift
    is built on demand by :meth:`matrix`; no (n, dim, dim) array is held.
    The cyclic vector satisfies <rho(s) xi, xi> = phi(s) (inner product
    linear in the first slot), and ``character[s]`` = tr rho(s).
    """

    group: FiniteGroup
    dim: int
    project: np.ndarray
    lift: np.ndarray
    cyclic_vector: np.ndarray
    character: np.ndarray

    def matrix(self, s: int) -> np.ndarray:
        """The dim x dim unitary rho(s): (lambda_s w)(t) = w(s^{-1} t)."""
        return self.project @ self.lift[self.group.cayley[self.group.inverses[s]]]


def gns(fn: GroupFunction, tol: Tolerance = DEFAULT_TOL) -> GnsRepresentation:
    """GNS construction in block form, on the group's kept decomposition
    (``vn.kept_block_decomposition``).

    The form <a, b> = sum_s (b^* a)_s phi(s) is tau(b^* a D) with density
    D = sum_s conj(phi(s)) lambda_s, so in Fourier blocks it is
    sum_pi (d_pi / n) tr(B_pi^* A_pi C_pi), C_pi the blocks of conj(phi)
    (those of phi give the representation of conj(phi)).  Left translation
    acts on the row index only, so the GNS representation is the sum of
    rho_pi (x) 1 on C^{d_pi} (x) ran(C_pi): dim = sum_pi d_pi rank(C_pi)
    and the character is sum_pi rank(C_pi) chi_pi, from the decomposition's
    table.  With C_pi = V diag(w) V^* (one batched ``eigh`` per block
    dimension) and w above the Gram cutoff eig_tol * n * max|phi|,
    ``project`` is block pi's rows of the forward transform (its units
    read at s^{-1} and weighted by n / d) rotated by V and scaled by
    sqrt(d w / n), ``lift`` the units themselves, the inverse's columns,
    rotated the same way and scaled by sqrt(n / (d w)).  A block
    eigenvalue below -cutoff raises NotPositiveDefinite with it as
    witness: the Gram spectrum is the union of the block spectra.

    The matrix coefficients <rho(s) xi, xi> = phi(s) are checked on every s
    (one gather and product); a deviation above ``residual_tol`` raises
    ConvergenceFailure.  Unitarity is not checked per element.  It follows
    from what ``_verify_decomposition`` checked on the transform to
    beta = 10 * residual_tol per entry: it inverts its units, its adjoint
    is its inverse up to the weights d/n, and it is multiplicative on the
    generating set.  An n x n residual with entries at most beta has
    operator norm at most n beta, a word of length l in the generators adds
    l of them, and ``project`` against ``lift`` scales an error by at most
    sqrt(kappa), kappa the ratio of the largest to the smallest kept
    d w / n.  So, to first order in beta,

        max_s ||rho(s)^* rho(s) - 1|| <= 8 sqrt(kappa) l n beta,

    with l the longest word an element needs in the generating set.
    """
    from .vn import kept_block_decomposition

    g = fn.group
    n = g.order
    _require_hermitian_symmetric(fn, tol)
    decomp = kept_block_decomposition(g, tol)
    cutoff = _gram_cutoff(fn, tol)
    spectra = decomp.block_eigh(np.conj(fn.values))
    wmin = min(float(w[:, 0].min()) for _, _, _, w, _ in spectra)
    if wmin < -cutoff:
        raise NotPositiveDefinite(
            f"Gram matrix has eigenvalue {wmin:.3e}",
            witness={"min_eigenvalue": wmin},
        )
    ranks = np.zeros(decomp.num_blocks)
    project, lift = [], []
    for d, blocks, _, w, v in spectra:
        keep = w > cutoff
        if not keep.any():
            continue
        ranks[blocks] = keep.sum(axis=1)
        # the units (b, k, j, s) of this dimension, so that rotating index k
        # is one batched product: row (b, m, j) of project is
        # sum_k v[b, k, m] (n / d) u^b_kj(s^-1), the forward transform's row
        # (b, j, k) at s, and of lift^T sum_k conj(v[b, k, m]) u^b_jk
        units = np.stack([decomp.units[pi] for pi in blocks])
        f = ((n / d) * units[..., g.inverses]).reshape(-1, d, d * n)
        finv = units.transpose(0, 2, 1, 3).reshape(-1, d, d * n)
        scale = np.sqrt(d * w[keep] / n)[:, None]
        project.append(((v.transpose(0, 2, 1) @ f)[keep] * scale).reshape(-1, n))
        lift.append(((v.conj().transpose(0, 2, 1) @ finv)[keep] / scale).reshape(-1, n))
    if not project:
        raise NotPositiveDefinite("form has rank zero", witness={})
    project = np.concatenate(project)
    lift = np.ascontiguousarray(np.concatenate(lift).T)
    table = decomp.table
    character = (ranks @ table.chars)[table.partition.class_of]
    cyclic = project[:, g.identity].copy()
    rep = GnsRepresentation(g, len(project), project, lift, cyclic, character)

    # <rho(s) xi, xi> = sum_t (xi^* project)[t] (lift xi)[s^{-1} t]
    coefficients = (lift @ cyclic)[g.cayley[g.inverses]] @ (cyclic.conj() @ project)
    coeff_dev = float(np.abs(coefficients - fn.values).max())
    if coeff_dev > tol.residual_tol:
        raise ConvergenceFailure(
            f"GNS verification failed (coefficient {coeff_dev:.2e})",
            witness={"coefficient": coeff_dev},
        )
    return rep


def _integer_character_norm(character: np.ndarray, order: int) -> int:
    """(1/|G|) sum_s |chi(s)|^2, an integer in exact arithmetic; a value
    more than 1e-6 (relative) from one raises ConvergenceFailure."""
    raw = float(np.sum(np.abs(character) ** 2)) / order
    dim = round(raw)
    if abs(raw - dim) > 1e-6 * raw:
        raise ConvergenceFailure(
            f"character norm {raw!r} is not an integer",
            witness={"character_norm": raw},
        )
    return dim


def commutant_dimension(rep: GnsRepresentation) -> int:
    """Dimension of {X : X rho(s) = rho(s) X for all s}.

    For rho = sum of m_pi copies of irreducibles this is sum m_pi^2, the
    character norm (1/|G|) sum_s |chi(s)|^2 of ``rep.character`` (Serre,
    Linear Representations of Finite Groups, 2.3 Thm 5).  The norm is an
    integer in exact arithmetic; a value more than 1e-6 (relative) from one
    raises ConvergenceFailure.
    """
    return _integer_character_norm(rep.character, rep.group.order)


def _gram_character(fn: GroupFunction, tol: Tolerance) -> tuple[int, np.ndarray]:
    """GNS dimension and character from the Gram kernel alone, with no
    Fourier input: one ``eigh`` of the symmetrized kernel, the rank above
    the Gram cutoff, and tr rho(s) = tr(lambda_s K) for the kept spectral
    projector K, one O(n^2) gather.  Raises NotPositiveDefinite with the
    smallest kernel eigenvalue as witness."""
    translate = fn.group.cayley[fn.group.inverses]
    kernel = fn.values[translate]  # the transposed Gram matrix
    w, v = np.linalg.eigh((kernel + kernel.conj().T) / 2)
    cutoff = _gram_cutoff(fn, tol)
    if w[0] < -cutoff:
        raise NotPositiveDefinite(
            f"Gram matrix has eigenvalue {w[0]:.3e}",
            witness={"min_eigenvalue": float(w[0])},
        )
    vk = v[:, w > cutoff]
    if vk.shape[1] == 0:
        raise NotPositiveDefinite("form has rank zero", witness={})
    return vk.shape[1], _regular_traces(translate, vk @ vk.conj().T)


def _block_ranks(fn: GroupFunction, tol: Tolerance) -> list[int]:
    """rank B_pi of every Fourier block of phi: the block eigenvalues above
    the Gram cutoff eig_tol * n * max|phi|, on the group's kept
    decomposition (``vn.kept_block_decomposition``)."""
    from .vn import kept_block_decomposition

    decomp = kept_block_decomposition(fn.group, tol)
    cutoff = _gram_cutoff(fn, tol)
    return [int(np.count_nonzero(w > cutoff)) for w in fn._spectra(decomp)]


def _extremality(fn: GroupFunction, tol: Tolerance) -> tuple[bool, int]:
    """The verdict of :func:`is_extreme` and the GNS dimension, the rank of
    the Gram kernel."""
    from .vn import kept_block_decomposition

    _require_hermitian_symmetric(fn, tol)
    rank, character = _gram_character(fn, tol)
    commutant = _integer_character_norm(character, fn.group.order)
    ranks = _block_ranks(fn, tol)
    dims = kept_block_decomposition(fn.group, tol).block_dims
    witness = {"commutant_dimension": commutant, "gram_rank": rank, "block_ranks": ranks}
    if (commutant == 1) != (sum(ranks) == 1):
        raise InternalDisagreement(
            "character-norm and Fourier-block extremality checks disagree",
            witness=witness,
        )
    if rank != sum(d * r for d, r in zip(dims, ranks)):
        raise InternalDisagreement(
            "Gram rank differs from sum_pi d_pi rank(B_pi)", witness=witness
        )
    return commutant == 1, rank


def is_extreme(fn: GroupFunction, tol: Tolerance = DEFAULT_TOL) -> bool:
    """Extreme point test: true iff the GNS representation is irreducible.

    Two independent verdicts, like the CP certificate, and no GNS
    representation is built.  The first reads only the Gram kernel: the
    character norm of the GNS representation, its character taken from the
    kernel's kept spectral projector, equal to 1.  The second reads the
    Fourier blocks B_pi of phi: the GNS representation has
    sum_pi rank(B_pi) irreducible summands and dimension
    sum_pi d_pi rank(B_pi) (see :func:`gns`; the blocks of conj(phi) it is
    built from have the ranks of the conjugate blocks), so it is
    irreducible iff sum_pi rank(B_pi) = 1.  Differing verdicts raise
    InternalDisagreement with both counts as witness, and so does a Gram
    rank other than sum_pi d_pi rank(B_pi).
    """
    return _extremality(fn, tol)[0]


# --------------------------------------------------------------------------
# samplers (seeded, used by property tests, demos and the CLI)
# --------------------------------------------------------------------------

def random_hermitian_symmetric(group: FiniteGroup, rng: np.random.Generator) -> GroupFunction:
    """Random phi with phi(s^{-1}) = conj(phi(s)) and phi(e) = 1, other
    values standard normal (complex ones in each part)."""
    inv = group.inverses
    # one draw per self-inverse s, a real and an imaginary part per pair
    # {s, s^-1}, taken in the order of the smaller element from one call
    first = np.flatnonzero(np.arange(group.order) <= inv)
    paired = first != inv[first]
    ends = np.cumsum(1 + paired)
    draws = rng.normal(size=int(ends[-1]))
    z = draws[ends - 1 - paired] + 1j * np.where(paired, draws[ends - 1], 0.0)
    v = np.zeros(group.order, dtype=complex)
    v[first] = z
    v[inv[first[paired]]] = z[paired].conj()
    v[group.identity] = 1.0
    return GroupFunction(group, v)


def random_p1(group: FiniteGroup, rng: np.random.Generator) -> GroupFunction:
    """Dirichlet mixture of 1..n random vector states: samples all of P1.

    Draws the weights, then m complex Gaussian vectors from one
    ``normal(size=(m, 2, n))`` (the stream of m pairs of ``normal(size=n)``,
    real parts first), and reads phi(s) = tr(lambda_s M) from the mixed
    density M = sum_i w_i xi_i xi_i^* of the normalized vectors.
    """
    n = group.order
    weights = rng.dirichlet(np.ones(int(rng.integers(1, n + 1))))
    draws = rng.normal(size=(weights.size, 2, n))
    xi = draws[:, 0] + 1j * draws[:, 1]
    xi /= np.linalg.norm(xi, axis=1, keepdims=True)
    density = (weights[:, None] * xi).T @ xi.conj()
    return GroupFunction(group, _regular_traces(group.cayley[group.inverses], density))
