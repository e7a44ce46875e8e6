"""Dense complex-matrix kernel: Hermitian eigendecomposition, PSD tests,
polar decomposition.

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
    """Coerce to a finite complex matrix; reject NaN/Inf and non-2d input."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise ValueError(f"expected a matrix, got array of ndim {m.ndim}")
    if m.size and not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise ValueError("matrix contains NaN or Inf entries")
    return m


def hermitian_deviation(a: np.ndarray) -> float:
    """Max-entry distance from A to its adjoint."""
    a = np.asarray(a)
    return float(np.abs(a - a.conj().T).max()) if a.size else 0.0


def hermitian_eig(a, tol: Tolerance = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix.

    Returns ascending eigenvalues and a unitary matrix of eigenvectors
    (columns).  Input within ``residual_tol`` of Hermitian is symmetrized
    before decomposition; anything farther raises ``NotHermitian``.
    """
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    dev = hermitian_deviation(m)
    if dev > tol.residual_tol:
        raise NotHermitian(
            f"matrix is not Hermitian (max deviation {dev:.3e})",
            witness={"deviation": dev},
        )
    sym = (m + m.conj().T) / 2.0
    try:
        w, v = np.linalg.eigh(sym)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eigendecomposition failed: {exc}") from exc
    scale = float(np.abs(sym).max()) if sym.size else 0.0
    resid = float(np.abs((v * w) @ v.conj().T - sym).max()) if sym.size else 0.0
    if resid > tol.residual_tol * max(scale, 1.0):
        raise ConvergenceFailure(
            f"eigendecomposition residual {resid:.3e} exceeds tolerance",
            witness={"residual": resid, "scale": scale},
        )
    return w, v


def is_psd(a, tol: Tolerance = DEFAULT_TOL) -> PsdVerdict:
    """PSD test with witness: true iff the minimum eigenvalue >= -cutoff."""
    m = as_matrix(a)
    w, _ = hermitian_eig(m, tol)
    wmin = float(w[0]) if w.size else 0.0
    return PsdVerdict.from_witness(wmin, tol.eig_cutoff(m))


def polar_unitary(a, tol: Tolerance = DEFAULT_TOL) -> np.ndarray:
    """Unitary factor U of the polar decomposition A = U (A*A)^(1/2)."""
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise ValueError(f"matrix must be square, got shape {m.shape}")
    u, s, vh = np.linalg.svd(m)
    cutoff = tol.eig_cutoff(m)
    if s.size and float(s[-1]) <= cutoff:
        raise SingularInput(
            f"smallest singular value {s[-1]:.3e} below cutoff {cutoff:.3e}",
            witness={"sigma_min": float(s[-1]), "cutoff": cutoff},
        )
    return u @ vh

