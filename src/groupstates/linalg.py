"""Dense complex-matrix kernel: PSD verdicts from eigenvalues with a
Cholesky certificate, polar decomposition.

All spectral verdicts use a dimension- and scale-aware cutoff (see
:class:`Tolerance`), and verdicts inside the band ``|lambda_min| <= 10 *
cutoff`` carry an ``undecided`` flag instead of being silently classified.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, NotHermitian, SingularInput


@dataclass(frozen=True)
class Tolerance:
    """Numerical tolerances shared across the library.

    ``eig_tol`` is the per-unit eigenvalue cutoff scale: the effective
    negativity cutoff for a matrix A is ``eig_tol * dim(A) * max|A|``.
    ``residual_tol`` is the absolute ceiling for algebraic identity
    residuals (idempotency, unitarity, reconstruction, ...).
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
    def from_witness(cls, wmin: float, cutoff: float) -> PsdVerdict:
        """PSD iff ``wmin >= -cutoff``; undecided inside ``|wmin| <= 10 * cutoff``."""
        return cls(
            is_psd=wmin >= -cutoff,
            witness=wmin,
            undecided=abs(wmin) <= 10.0 * cutoff,
            cutoff=cutoff,
        )


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

    Input within ``residual_tol`` of Hermitian is symmetrized, anything
    farther raises ``NotHermitian``; verdict and witness come from
    ``eigvalsh`` alone.  A decided verdict is over 9 * cutoff from the
    boundary of A + cutoff*I, so its Cholesky factor certifies it: a finite
    factor for a non-PSD verdict, or none for a PSD one, raises
    ``ConvergenceFailure``.  Undecided verdicts go uncertified, as do those
    whose margin is within Cholesky's backward error n**2 * eps * max|A|
    (``eig_tol`` near n * eps); the input decides both.
    """
    m = as_matrix(a)
    n = m.shape[0]
    dev = float(np.abs(m - m.conj().T).max()) if m.size else 0.0
    if dev > tol.residual_tol:
        raise NotHermitian(
            f"matrix is not Hermitian (max deviation {dev:.3e})",
            witness={"deviation": dev},
        )
    sym = (m + m.conj().T) / 2.0
    try:
        w = np.linalg.eigvalsh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigenvalue solver failed: {exc}") from exc
    if not np.all(np.isfinite(w)):
        raise ConvergenceFailure("eigenvalue solver returned non-finite values")
    verdict = PsdVerdict.from_witness(float(w[0]) if n else 0.0, tol.eig_cutoff(m))
    # 9 * cutoff > n**2 * eps * max|A| iff 9 * eig_tol > n * eps
    if verdict.undecided or 9.0 * tol.eig_tol <= n * np.finfo(float).eps:
        return verdict
    sym[np.diag_indices(n)] += verdict.cutoff
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

