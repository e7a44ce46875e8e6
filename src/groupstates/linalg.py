"""Dense complex-matrix kernel: the one Hermitian eigen-solve, PSD
verdicts from eigenvalues with a Cholesky certificate, polar decomposition.

All spectral verdicts use a dimension- and scale-aware cutoff (see
:class:`Tolerance`), and verdicts inside the band ``|lambda_min| <= 10 *
cutoff`` carry an ``undecided`` flag instead of being silently classified.
Every eigen-test runs in canonical power-of-two units
(:func:`canonical_exponent`): its input is scaled by 2**-e, exactly, so
that its largest entry lies in [sqrt(1/2), sqrt(2)), and only the witness,
cutoff or norm it reports is scaled back.  A verdict is therefore a function of the ray of
its input, and no symmetrization or eigenvalue overflows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, SingularInput


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances shared across the library.

    ``eig_tol`` is the per-unit eigenvalue cutoff scale: the effective
    negativity cutoff for a matrix A is ``eig_tol * dim(A) * max|A|``.
    ``residual_tol`` is the ceiling for algebraic identity residuals:
    absolute on normalized and constructed objects (phi(e) = 1,
    idempotency, unitarity, reconstruction, ...), and relative to max|x|
    on the Hermitian symmetry of a caller's function or matrix x.
    """

    eig_tol: float = 1e-9
    residual_tol: float = 1e-8

    def __post_init__(self):
        if not (0 < self.eig_tol < np.inf and 0 < self.residual_tol < np.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    def eig_cutoff(self, a: np.ndarray) -> float:
        a = np.asarray(a)
        scale = float(np.abs(a).max()) if a.size else 0.0
        return self.eig_tol * max(a.shape[0], 1) * scale


DEFAULT_TOL = Tolerance()


@dataclass(frozen=True)
class PsdVerdict:
    """Outcome of a PSD test: verdict, witness eigenvalue, undecided flag."""

    is_psd: bool
    witness: float
    undecided: bool
    cutoff: float

    def __bool__(self) -> bool:
        return self.is_psd

    @classmethod
    def from_witness(cls, wmin: float, cutoff: float, exponent: int = 0) -> PsdVerdict:
        """PSD iff ``wmin >= -cutoff``; undecided inside ``|wmin| <= 10 * cutoff``.

        ``wmin`` and ``cutoff`` are in units of 2**exponent: the verdict is
        decided in them, and the witness and cutoff are reported scaled
        back (:func:`scale_back`).
        """
        return cls(
            is_psd=wmin >= -cutoff,
            witness=scale_back(wmin, exponent),
            undecided=abs(wmin) <= 10.0 * cutoff,
            cutoff=scale_back(cutoff, exponent),
        )


def canonical_exponent(peak: float) -> int:
    """The e with peak * 2**-e in [sqrt(1/2), sqrt(2)), or 0 for peak 0:
    the canonical units of an input whose largest magnitude is ``peak``.
    The range is centred on 1 so that a normalized state takes e = 0 even
    when its phi(e) rounds to 1 - 2**-53, as it does for about a third of
    random states."""
    if not peak:
        return 0
    mantissa, e = math.frexp(peak)  # peak = mantissa * 2**e, mantissa in [1/2, 1)
    return e - (mantissa < _SQRT_HALF)


_SQRT_HALF = math.sqrt(0.5)


def pow2_scaled(x: np.ndarray, k: int) -> np.ndarray:
    """x * 2**k for a complex array x, exact unless an entry falls among the
    subnormals; x itself for k = 0."""
    if k == 0:
        return x
    out = np.empty_like(x)
    out.real = np.ldexp(x.real, k)
    out.imag = np.ldexp(x.imag, k)
    return out


def scale_back(x: float, e: int) -> float:
    """A value found in units of 2**e, as x * 2**e; +-inf past the float
    range."""
    if not e:
        return x
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return math.copysign(math.inf, x)


def hermitian_spectrum(a: np.ndarray, vectors: bool = False):
    """Ascending eigenvalues of the Hermitian part (A + A^*) / 2 of a matrix
    (d, d), or of every matrix of a stack (..., d, d), and with ``vectors``
    the pair (eigenvalues, eigenvectors as columns) of ``eigh``.

    The one eigen-solve behind every PSD, norm, rank and fit verdict.  A
    1 x 1 Hermitian part is the real part of its entry, exactly, and is read
    without a solver call (its eigenvector is 1).  Callers pass finite
    values in canonical units (:func:`canonical_exponent`), in which the
    sum cannot overflow; :func:`_solve_hermitian` solves the rest.
    """
    a = np.asarray(a)
    if a.shape[-1] == 1:
        w = a.real.reshape(a.shape[:-1])
        return (w, np.ones_like(a)) if vectors else w
    return _solve_hermitian((a + a.conj().swapaxes(-1, -2)) / 2, vectors)


def _solve_hermitian(sym: np.ndarray, vectors: bool):
    """``eigh`` (with ``vectors``) or ``eigvalsh`` of the Hermitian ``sym``.
    A solver failure or a non-finite eigenvalue raises ConvergenceFailure;
    one non-finite eigenvalue makes their sum non-finite, and finite ones in
    canonical units cannot sum past the float range."""
    try:
        spectrum = np.linalg.eigh(sym) if vectors else np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue solver failed: {exc}") from exc
    if not math.isfinite((spectrum[0] if vectors else spectrum).sum()):
        raise ConvergenceFailure("eigenvalue solver returned non-finite values")
    return spectrum


def as_matrix(a) -> np.ndarray:
    """Coerce to a finite complex square matrix; reject anything else."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    return m


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> PsdVerdict:
    """PSD test with witness: true iff the minimum eigenvalue >= -cutoff.

    The test runs in canonical units: A is scaled once by 2**-e
    (:func:`canonical_exponent` of max|A|), and only the witness and cutoff
    are scaled back, so the verdict and undecided flag at 2**k A are those
    at A, and the witness and cutoff are 2**k times theirs, bit for bit.
    Input within ``residual_tol * max|A|`` of Hermitian is symmetrized,
    anything farther raises ``NotHermitian``; verdict and witness come from
    the eigenvalues of the symmetrized A alone, solved by
    :func:`_solve_hermitian` as in :func:`hermitian_spectrum`.  A decided
    verdict is over 9 * cutoff from the boundary of A + cutoff*I, so its
    Cholesky factor certifies it: a finite factor for a non-PSD verdict, or
    none for a PSD one, raises ``ConvergenceFailure``.  Undecided verdicts
    go uncertified, as do those whose margin is within Cholesky's backward
    error n**2 * eps * max|A| (``eig_tol`` near n * eps); the input decides
    both.
    """
    m = as_matrix(a)
    n = m.shape[0]
    peak = float(np.abs(m).max()) if m.size else 0.0
    e = canonical_exponent(peak)
    m = pow2_scaled(m, -e)
    peak = math.ldexp(peak, -e)
    dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if dev > tol.residual_tol * peak:
        dev = scale_back(dev, e)
        raise NotHermitian(
            f"matrix is not Hermitian (max deviation {dev:.3e})",
            witness={"deviation": dev},
        )
    sym = (m + m.conj().T) / 2.0
    w = _solve_hermitian(sym, False)
    cutoff = tol.eig_tol * max(n, 1) * peak
    verdict = PsdVerdict.from_witness(float(w[0]) if n else 0.0, cutoff, e)
    # 9 * cutoff > n**2 * eps * max|A| iff 9 * eig_tol > n * eps
    if verdict.undecided or 9.0 * tol.eig_tol <= n * np.finfo(float).eps:
        return verdict
    sym[np.diag_indices(n)] += cutoff
    try:
        factored = bool(np.all(np.isfinite(np.linalg.cholesky(sym))))
    except np.linalg.LinAlgError:
        factored = False
    if factored != verdict.is_psd:
        raise ConvergenceFailure(
            f"smallest eigenvalue {verdict.witness:.3e} (cutoff {verdict.cutoff:.3e}), "
            f"but A + cutoff*I {'has a' if factored else 'has no'} Cholesky factor",
            witness={"min_eigenvalue": verdict.witness, "cholesky_factored": factored},
        )
    return verdict


def polar_unitary(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor U of the polar decomposition A = U (A*A)^(1/2)."""
    m = as_matrix(a)
    u, s, vh = np.linalg.svd(m)
    cutoff = tol.eig_cutoff(m)
    if s.size and float(s[-1]) <= cutoff:
        raise SingularInput(
            f"smallest singular value {s[-1]:.3e} below cutoff {cutoff:.3e}",
            witness={"sigma_min": float(s[-1]), "cutoff": cutoff},
        )
    return u @ vh

