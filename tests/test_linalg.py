import numpy as np
import pytest

from groupstates.errors import ConvergenceFailure, NotHermitian, SingularInput
from groupstates.linalg import (
    Tolerance,
    is_psd,
    polar_unitary,
)

from conftest import random_hermitian, random_unitary, trace_norm


def test_tolerance_must_be_positive():
    with pytest.raises(ValueError):
        Tolerance(eig_tol=0.0)
    with pytest.raises(ValueError):
        Tolerance(residual_tol=-1.0)


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("name", ["eig_tol", "residual_tol"])
def test_tolerance_must_be_finite(name, value):
    with pytest.raises(ValueError):
        Tolerance(**{name: value})


@pytest.mark.parametrize(
    "a, witness",
    [
        (np.eye(3), 1.0),
        (np.array([[0, 1], [1, 0]], dtype=complex), -1.0),
        (np.diag([2.0, 5.0, 7.0]), 2.0),
    ],
    ids=["identity", "pauli_x", "diagonal"],
)
def test_is_psd_witness_is_the_smallest_eigenvalue(a, witness):
    verdict = is_psd(a)
    assert abs(verdict.witness - witness) < 1e-12
    assert verdict.is_psd == (witness > 0) and not verdict.undecided


def test_is_psd_rejects_non_hermitian():
    with pytest.raises(NotHermitian) as info:
        is_psd(np.array([[0, 1], [0, 0]], dtype=complex))
    assert info.value.witness == {"deviation": 1.0}


def test_is_psd_certificate_never_raises_on_random_hermitian_matrices():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        n = int(rng.integers(2, 65))
        a = random_hermitian(rng, n)
        if rng.integers(2):
            a = a @ a  # PSD, so both sides of the boundary are certified
        verdict = is_psd(a)
        assert verdict.witness == pytest.approx(np.linalg.eigvalsh(a)[0], abs=1e-10)


def test_is_psd_reads_no_eigenvectors(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvectors computed")

    monkeypatch.setattr(np.linalg, "eigh", refuse)
    assert is_psd(np.diag([2.0, 5.0, 7.0])).witness == pytest.approx(2.0)
    assert not is_psd(np.array([[1, 2], [2, 1]], dtype=complex)).is_psd


@pytest.mark.parametrize("shift", [-2.0, 2.0])
def test_eigenvalues_across_a_decided_boundary_fail_the_certificate(monkeypatch, shift):
    # the true spectrum is {1, 1} (PSD) or {-1, -1} (not PSD); the solver
    # reports it moved by 2 to the other side, which the factor contradicts
    real = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: real(a) + shift)
    with pytest.raises(ConvergenceFailure) as info:
        is_psd(-np.sign(shift) * np.eye(2))
    assert info.value.witness["cholesky_factored"] == (shift < 0)


def test_a_non_finite_cholesky_factor_counts_as_none(monkeypatch):
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: np.full(a.shape, np.nan))
    with pytest.raises(ConvergenceFailure) as info:
        is_psd(np.eye(3))
    assert info.value.witness["cholesky_factored"] is False


def test_an_undecided_verdict_is_not_factored(monkeypatch):
    calls = []
    real = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or real(a))
    for a in ([[1, 1], [1, 1]], np.zeros((4, 4))):
        assert is_psd(np.array(a, dtype=complex)).undecided
    assert calls == []
    assert is_psd(np.eye(2)).is_psd and len(calls) == 1


def test_is_psd_rank_one_gram():
    verdict = is_psd(np.array([[1, 1], [1, 1]], dtype=complex))
    assert verdict.is_psd
    assert abs(verdict.witness) < 1e-12


def test_is_psd_indefinite_witness():
    verdict = is_psd(np.array([[1, 2], [2, 1]], dtype=complex))
    assert not verdict.is_psd
    assert abs(verdict.witness - (-1.0)) < 1e-12


def test_is_psd_zero_matrix():
    assert is_psd(np.zeros((4, 4))).is_psd


def _ldl_psd_oracle(a, cutoff):
    """Pivoted LDL-style elimination: PSD iff pivots stay positive until the
    remainder vanishes.  Independent of the eigenvalue path."""
    m = np.array(a, dtype=complex)
    n = m.shape[0]
    scale = max(float(np.abs(m).max()), 1.0)
    for _ in range(n):
        diag = m.diagonal().real
        idx = int(np.argmax(diag))
        pivot = float(diag[idx])
        if pivot <= cutoff:
            return float(np.abs(m).max()) <= 1e-6 * scale
        col = m[:, idx].copy()
        m -= np.outer(col, col.conj()) / pivot
        m[idx, :] = 0.0
        m[:, idx] = 0.0
    return True


def test_is_psd_agrees_with_ldl_oracle():
    rng = np.random.default_rng(11)
    undecided = 0
    for trial in range(400):
        n = int(rng.integers(2, 12))
        if trial % 2 == 0:
            b = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            a = b.conj().T @ b  # PSD by construction
        else:
            a = random_hermitian(rng, n)
        verdict = is_psd(a)
        if abs(verdict.witness) <= 10 * verdict.cutoff:
            undecided += 1
            continue
        assert _ldl_psd_oracle(a, verdict.cutoff) == verdict.is_psd, a
    assert undecided < 40  # the undecided zone is reported, not silently eaten


def test_polar_of_unitary_is_itself():
    rng = np.random.default_rng(3)
    u = random_unitary(rng, 5)
    assert np.abs(polar_unitary(u) - u).max() < 1e-10


def test_polar_of_positive_definite_is_identity():
    rng = np.random.default_rng(4)
    b = rng.normal(size=(4, 4))
    a = b.T @ b + 4 * np.eye(4)
    assert np.abs(polar_unitary(a) - np.eye(4)).max() < 1e-10


def test_polar_of_signed_diagonal():
    u = polar_unitary(np.diag([2.0, -3.0]))
    assert np.allclose(u, np.diag([1.0, -1.0]))


def test_polar_rejects_singular():
    with pytest.raises(SingularInput):
        polar_unitary(np.array([[1.0, 0.0], [0.0, 0.0]]))


def test_trace_norm_identity():
    assert abs(trace_norm(np.eye(6)) - 6.0) < 1e-12


def test_trace_norm_signature():
    assert abs(trace_norm(np.diag([1.0, -1.0])) - 2.0) < 1e-12


def test_trace_norm_rank_one_projection():
    v = np.array([1.0, 2.0, 2.0]) / 3.0
    assert abs(trace_norm(np.outer(v, v)) - 1.0) < 1e-12


def test_trace_norm_unitary_invariance():
    rng = np.random.default_rng(9)
    for _ in range(20):
        n = int(rng.integers(2, 10))
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        u, v = random_unitary(rng, n), random_unitary(rng, n)
        base = trace_norm(a)
        assert abs(trace_norm(u @ a @ v) - base) <= 1e-8 * max(base, 1.0)


def _prepared_calls():
    """(solver, public call) -> a function that builds the call's inputs and
    returns the call: S3 has a block of dimension 2, so its decomposition
    and descriptors run QR, its table and ideals eigh and its fit SVD."""
    from groupstates import (
        GroupFunction,
        a_norm,
        apply_descriptor,
        block_decompose,
        character_table,
        construct_affine_homeomorphism,
        fit_affine_map_from_pairs,
        is_positive_definite,
        random_descriptor,
        random_p1,
        symmetric_group,
        verify_jordan_form,
        vn_isomorphic,
    )

    def decompose():
        g = symmetric_group(3)
        table = character_table(g)
        return lambda: block_decompose(g, table)

    def describe():
        g = symmetric_group(3)
        decomp = block_decompose(g)
        # a decomposition holds its group weakly, so the call holds g
        return lambda: (g, random_descriptor(decomp, np.random.default_rng(0)))

    def fit():
        g = symmetric_group(3)
        decomp = block_decompose(g)
        desc = random_descriptor(decomp, np.random.default_rng(0))
        return lambda: (g, verify_jordan_form(lambda f: apply_descriptor(desc, f, decomp), decomp))

    def interpolate():
        g = symmetric_group(3)
        rng = np.random.default_rng(0)
        pairs = [(f, f) for f in (random_p1(g, rng) for _ in range(g.order + 1))]
        return lambda: fit_affine_map_from_pairs(g, pairs)

    def dense(query):
        fn = GroupFunction(symmetric_group(3), np.ones(6))
        return lambda: lambda: query(fn)

    return {
        ("eigh", "character_table"): lambda: lambda: character_table(symmetric_group(4)),
        ("eigh", "vn_isomorphic"):
            lambda: lambda: vn_isomorphic(symmetric_group(4), symmetric_group(4)),
        ("eigh", "construct_affine_homeomorphism"):
            lambda: lambda: construct_affine_homeomorphism(symmetric_group(3), symmetric_group(3)),
        ("eigh", "block_decompose"): decompose,
        ("eigvalsh", "is_positive_definite"): dense(is_positive_definite),
        ("eigvalsh", "a_norm"): dense(a_norm),
        ("qr", "block_decompose"): decompose,
        ("qr", "random_descriptor"): describe,
        ("svd", "polar_unitary"): lambda: lambda: polar_unitary(np.eye(2)),
        ("svd", "verify_jordan_form"): fit,
        ("lstsq", "fit_affine_map_from_pairs"): interpolate,
    }


@pytest.mark.parametrize("solver, entry", list(_prepared_calls()))
def test_no_numpy_linalg_error_leaves_the_library(monkeypatch, solver, entry):
    """A numpy solver that fails raises ConvergenceFailure, witness {},
    from every public call that reaches it."""
    call = _prepared_calls()[solver, entry]()

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError(f"{solver} did not converge")

    monkeypatch.setattr(np.linalg, solver, fail)
    with pytest.raises(ConvergenceFailure, match="failed") as info:
        call()
    assert info.value.witness == {}
