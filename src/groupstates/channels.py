"""Fourier multiplier channels on the group von Neumann algebra.

The channel with symbol phi sends lambda_s to phi(s) lambda_s.  Complete
positivity is certified twice, by independently coded paths: the dense PSD
test of the Schur symbol matrix phi(s t^{-1}) and the PSD test of every
Fourier block of phi (Bochner/Plancherel: phi is positive definite exactly
when each block of sum_s phi(s) lambda_s is PSD).  The blocks come from
the group's cached block decomposition, built once when there is none.
Both tests use the same cutoff, so disagreement between them outside the
undecided band signals a convention bug and raises.

A channel is its symbol, so building one and composing two (a pointwise
product) cost O(n).  The Schur matrix is ``groups.algebra_matrix``, whose
index puts phi(u) along the support of every lambda_u for any group that
``groups.validate_group`` accepts; the tests check that convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GroupMismatch, InternalDisagreement
from .groups import FiniteGroup, algebra_matrix, same_group
from .linalg import DEFAULT_TOL, PsdVerdict, Tolerance, is_psd
from .posdef import GroupFunction, _block_psd_verdict, _require_hermitian_symmetric
from .vn import block_decompose


def schur_symbol(fn: GroupFunction) -> np.ndarray:
    """The |G| x |G| matrix with entry (s, t) = phi(s t^{-1}).

    This is the regular-representation image of sum_s phi(s) lambda_s
    (``groups.algebra_matrix``, which owns the index convention); the Gram
    matrix phi(s_k^{-1} s_j) of the state side is its transpose relabelled
    by inversion.
    """
    return algebra_matrix(fn.group, fn.values)


@dataclass(eq=False)
class FourierMultiplierChannel:
    """The map lambda_s -> phi(s) lambda_s, stored through its symbol.

    Construction checks that the symbol lives on ``group``; it is O(n).
    """

    group: FiniteGroup
    symbol: GroupFunction

    def __post_init__(self):
        if not same_group(self.group, self.symbol.group):
            raise GroupMismatch(
                "symbol lives on a different group",
                witness={"orders": [self.group.order, self.symbol.group.order]},
            )


def build_channel(fn: GroupFunction) -> FourierMultiplierChannel:
    """Wrap a symbol; phi need not be positive definite or normalized."""
    return FourierMultiplierChannel(fn.group, fn)


def apply(ch: FourierMultiplierChannel, element: GroupFunction) -> GroupFunction:
    """Apply the channel to a group-algebra element given by coefficients."""
    if not same_group(ch.group, element.group):
        raise GroupMismatch(
            "element lives on a different group",
            witness={"orders": [ch.group.order, element.group.order]},
        )
    return GroupFunction(ch.group, ch.symbol.values * element.values)


def is_unital(ch: FourierMultiplierChannel, tol: Tolerance = DEFAULT_TOL) -> bool:
    """True iff phi(e) = 1: the channel sends the unit lambda_e to
    phi(e) lambda_e."""
    return bool(abs(ch.symbol.values[ch.group.identity] - 1.0) <= tol.residual_tol)


@dataclass(frozen=True)
class ChoiCertificate:
    """Dual CP certificate: symbol PSD check and Fourier-block PSD check."""

    verdict: bool
    symbol_verdict: PsdVerdict
    block_verdict: PsdVerdict

    @property
    def undecided(self) -> bool:
        return self.symbol_verdict.undecided or self.block_verdict.undecided


def is_completely_positive(
    ch: FourierMultiplierChannel, tol: Tolerance = DEFAULT_TOL
) -> ChoiCertificate:
    """CP certificate; verdict must match is_positive_definite(symbol)."""
    _require_hermitian_symmetric(ch.symbol, tol)
    symbol_verdict = is_psd(schur_symbol(ch.symbol), tol)
    decomp = block_decompose(ch.group, tol=tol)
    block_verdict = _block_psd_verdict(ch.symbol, decomp, tol)
    if symbol_verdict.is_psd != block_verdict.is_psd and not (
        symbol_verdict.undecided or block_verdict.undecided
    ):
        raise InternalDisagreement(
            "Schur-symbol and Fourier-block PSD checks disagree",
            witness={
                "symbol_min": symbol_verdict.witness,
                "block_min": block_verdict.witness,
            },
        )
    return ChoiCertificate(
        verdict=symbol_verdict.is_psd,
        symbol_verdict=symbol_verdict,
        block_verdict=block_verdict,
    )


def compose(
    ch1: FourierMultiplierChannel, ch2: FourierMultiplierChannel
) -> FourierMultiplierChannel:
    """Composition of multipliers: the symbol is the pointwise product."""
    if not same_group(ch1.group, ch2.group):
        raise GroupMismatch(
            "channels live on different groups",
            witness={"orders": [ch1.group.order, ch2.group.order]},
        )
    product = GroupFunction(ch1.group, ch1.symbol.values * ch2.symbol.values)
    return FourierMultiplierChannel(ch1.group, product)
