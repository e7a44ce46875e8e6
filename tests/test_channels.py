import gc
import json
import tracemalloc
import weakref

import numpy as np
import pytest

from groupstates import (
    GroupFunction,
    apply,
    build_channel,
    build_named,
    block_decompose,
    central_state_function,
    compose,
    constant_one,
    convex_combine,
    cyclic_group,
    delta_e,
    dihedral_group,
    direct_product,
    is_completely_positive,
    is_positive_definite,
    is_psd,
    is_unital,
    pure_state_function,
    quaternion_group,
    random_hermitian_symmetric,
    random_p1,
    schur_symbol,
    symmetric_group,
    to_state,
)
from groupstates.cli import dispatch
from groupstates import vn
from groupstates.errors import GroupMismatch, NotHermitianSymmetric
from groupstates.groups import algebra_matrix, cached_block_decomposition
from groupstates.jsonio import function_to_json
from groupstates.linalg import Tolerance

from conftest import (
    LADDER,
    PRODUCTS,
    criterion_04_groups,
    literal_choi_matrix,
    rebuilt_block_verdict,
    regular_representation,
    relabelled,
)


def _margin_symbol(group, rng):
    """0.3 delta_e + 0.7 (random P1 element): every Fourier block is at
    least 0.3 times the identity, so the CP verdict has a margin."""
    return convex_combine([0.3, 0.7], [delta_e(group), random_p1(group, rng)])


def test_identity_channel(z4):
    ch = build_channel(constant_one(z4))
    rng = np.random.default_rng(0)
    a = GroupFunction(z4, rng.normal(size=4) + 1j * rng.normal(size=4))
    assert np.array_equal(apply(ch, a).values, a.values)


def test_delta_channel_is_conditional_expectation(q8):
    ch = build_channel(delta_e(q8))
    rng = np.random.default_rng(1)
    a = GroupFunction(q8, rng.normal(size=8) + 1j * rng.normal(size=8))
    out = apply(ch, a)
    # tau(a) = coefficient at the identity; everything else is killed
    tau = np.trace(algebra_matrix(q8, a.values)) / 8
    expected = np.zeros(8, dtype=complex)
    expected[q8.identity] = tau
    assert np.abs(out.values - expected).max() < 1e-12


def test_scaling_channel_z2(z2):
    ch = build_channel(GroupFunction(z2, np.array([1.0, 0.5])))
    basis = GroupFunction(z2, np.array([0.0, 1.0]))
    assert np.array_equal(apply(ch, basis).values, np.array([0.0, 0.5]))


def test_apply_twice_is_squared_symbol(d4):
    rng = np.random.default_rng(2)
    fn = random_p1(d4, rng)
    ch = build_channel(fn)
    sq = build_channel(GroupFunction(d4, fn.values**2))
    a = GroupFunction(d4, rng.normal(size=8) + 1j * rng.normal(size=8))
    assert np.abs(apply(ch, apply(ch, a)).values - apply(sq, a).values).max() < 1e-12


def test_apply_group_mismatch(z2, z3):
    ch = build_channel(constant_one(z2))
    with pytest.raises(GroupMismatch):
        apply(ch, constant_one(z3))


def test_superoperator_diagonal_action(q8):
    rng = np.random.default_rng(3)
    fn = random_p1(q8, rng)
    ch = build_channel(fn)
    # action on each basis element: M(lambda_s) = phi(s) lambda_s
    for s in q8.elements():
        basis = np.zeros(8, dtype=complex)
        basis[s] = 1.0
        out = apply(ch, GroupFunction(q8, basis))
        assert np.array_equal(out.values, fn(s) * basis)
        lam = regular_representation(q8, s)
        assert np.abs(algebra_matrix(q8, out.values) - fn(s) * lam).max() < 1e-12


def test_unital_iff_normalized(q8):
    rng = np.random.default_rng(4)
    assert is_unital(build_channel(random_p1(q8, rng)))
    assert is_unital(build_channel(constant_one(q8)))
    doubled = GroupFunction(q8, 2.0 * delta_e(q8).values)
    assert not is_unital(build_channel(doubled))


def test_cp_matches_positive_definiteness_sweep():
    groups = [
        cyclic_group(5),
        cyclic_group(12),
        symmetric_group(3),
        dihedral_group(4),
        quaternion_group(),
        dihedral_group(6),
    ]
    rng = np.random.default_rng(5)
    positives = negatives = 0
    for g in groups:
        for i in range(40):
            fn = random_p1(g, rng) if i % 2 else random_hermitian_symmetric(g, rng)
            cert = is_completely_positive(build_channel(fn))
            verdict = is_positive_definite(fn)
            # random_p1 symbols of low rank put a zero eigenvalue in some
            # Fourier block; only symbol-side verdicts gate
            if cert.symbol_verdict.undecided or verdict.undecided:
                continue
            assert cert.verdict == verdict.is_psd
            if verdict.is_psd:
                positives += 1
            else:
                negatives += 1
    assert positives > 80 and negatives > 80


def test_cp_negative_z2(z2):
    fn = GroupFunction(z2, np.array([1.0, -1.5]))
    cert = is_completely_positive(build_channel(fn))
    assert not cert.verdict
    assert abs(cert.symbol_verdict.witness - (-0.5)) < 1e-12


def test_cp_delta(q8):
    cert = is_completely_positive(build_channel(delta_e(q8)))
    assert cert.verdict and not cert.undecided
    # every Fourier block of lambda_e is an identity matrix
    assert abs(cert.block_verdict.witness - 1.0) < 1e-12
    # literal Choi of the delta symbol: ones exactly on the pairs (s, s)
    choi = literal_choi_matrix(schur_symbol(delta_e(q8)))
    nz = [tuple(rc) for rc in np.argwhere(choi != 0).tolist()]
    assert nz == [(9 * s, 9 * s) for s in range(8)]


def test_cp_requires_hermitian_symmetry(z3):
    fn = GroupFunction(z3, np.array([1.0, 1j, 1j]))
    with pytest.raises(NotHermitianSymmetric):
        is_completely_positive(build_channel(fn))


def test_choi_and_symbol_spectra_relate():
    rng = np.random.default_rng(6)
    for g in (dihedral_group(4), quaternion_group(), symmetric_group(3),
              direct_product(cyclic_group(2), symmetric_group(3))):
        n = g.order
        decomp = block_decompose(g)
        for fn in (random_hermitian_symmetric(g, rng), random_p1(g, rng)):
            cert = is_completely_positive(build_channel(fn))
            sym_eigs = np.linalg.eigvalsh(schur_symbol(fn))
            # the literal Choi matrix is the symbol padded by a zero kernel
            choi_eigs = np.linalg.eigvalsh(literal_choi_matrix(schur_symbol(fn)))
            padded = np.sort(np.concatenate([sym_eigs, np.zeros(n * n - n)]))
            assert np.abs(np.sort(choi_eigs) - padded).max() < 1e-9
            # the symbol is the regular representation of sum phi(s) lambda_s:
            # block pi appears d_pi times
            blocks = decomp.from_coefficients(fn.values)
            union = np.concatenate([
                np.repeat(np.linalg.eigvalsh(b), d)
                for b, d in zip(blocks, decomp.block_dims)
            ])
            assert np.abs(np.sort(union) - sym_eigs).max() < 1e-9
            assert abs(cert.block_verdict.witness - sym_eigs[0]) < 1e-9


def test_block_verdict_matches_literal_choi():
    rng = np.random.default_rng(12)
    groups = criterion_04_groups()
    decided = {True: 0, False: 0}
    for g in groups:
        for fn in (random_hermitian_symmetric(g, rng), _margin_symbol(g, rng)):
            cert = is_completely_positive(build_channel(fn))
            if cert.undecided:
                continue
            # the literal Choi matrix of a CP multiplier is singular, so only
            # its verdict is compared, never its undecided flag
            assert is_psd(literal_choi_matrix(schur_symbol(fn))).is_psd == cert.verdict
            assert cert.block_verdict.is_psd == cert.verdict
            decided[cert.verdict] += 1
    assert decided[True] >= len(groups) and decided[False] > 10


def test_block_verdict_of_pure_and_central_states():
    # the Fourier blocks of these CP symbols are zero up to rounding except
    # one; each block is judged against the Schur matrix's cutoff, not a
    # cutoff scaled by its own rounding noise
    rng = np.random.default_rng(17)
    for g in (quaternion_group(), symmetric_group(3), symmetric_group(4)):
        decomp = block_decompose(g)
        fns = [central_state_function(decomp.table, pi) for pi in range(decomp.num_blocks)]
        for pi, d in enumerate(decomp.block_dims):
            fns += [pure_state_function(decomp, pi, e) for e in np.eye(d)]
            fns.append(pure_state_function(decomp, pi, rng.normal(size=d) + 1j * rng.normal(size=d)))
        for fn in fns:
            cert = is_completely_positive(build_channel(fn))
            assert cert.verdict and cert.block_verdict.is_psd
            assert cert.block_verdict.cutoff == cert.symbol_verdict.cutoff
            assert abs(cert.block_verdict.witness - cert.symbol_verdict.witness) < 1e-12


def test_block_verdict_reads_the_cached_decomposition(monkeypatch):
    built = []
    real = vn._verify_decomposition

    def counted(decomp, tol):
        built.append(decomp.group)
        return real(decomp, tol)

    monkeypatch.setattr(vn, "_verify_decomposition", counted)
    rng = np.random.default_rng(18)
    g = symmetric_group(4)
    assert cached_block_decomposition(g) is None
    fns = [random_hermitian_symmetric(g, rng), _margin_symbol(g, rng), random_p1(g, rng)]
    for fn in fns:
        cert = is_completely_positive(build_channel(fn))
        oracle = rebuilt_block_verdict(g, fn.values)
        assert cert.block_verdict.is_psd == oracle.is_psd
        assert cert.block_verdict.undecided == oracle.undecided
        assert cert.block_verdict.cutoff == oracle.cutoff
        assert abs(cert.block_verdict.witness - oracle.witness) < 1e-12
    # built once, on the first certificate, and kept by the group
    assert built == [g]
    # a certificate at a tighter residual tolerance builds its own
    tight = Tolerance(residual_tol=1e-9)
    is_completely_positive(build_channel(fns[0]), tight)
    assert built == [g, g] and cached_block_decomposition(g, tight) is not None


def test_cp_margin_symbol_is_decided(tmp_path, capsys):
    rng = np.random.default_rng(13)
    for g in (symmetric_group(3), quaternion_group(), symmetric_group(4)):
        fn = _margin_symbol(g, rng)
        cert = is_completely_positive(build_channel(fn))
        assert cert.verdict and not cert.undecided
        assert cert.block_verdict.witness >= 0.3 - 1e-9
        path = tmp_path / f"{g.name}.json"
        path.write_text(json.dumps(function_to_json(fn)))
        assert dispatch(["channel", "cp", "--fn", str(path)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["completely_positive"] and report["undecided"] is False
        assert abs(report["block_min_eigenvalue"] - cert.block_verdict.witness) < 1e-12


def test_cp_large_magnitude_symbol(s4):
    # the Fourier blocks of a symbol with entries near 1e8 carry rounding
    # far above the absolute Hermitian tolerance
    fn = _margin_symbol(s4, np.random.default_rng(14))
    cert = is_completely_positive(build_channel(GroupFunction(s4, 1e8 * fn.values)))
    assert cert.verdict and not cert.undecided


def test_cp_s5_without_quadratic_matrices():
    # the literal Choi matrix of S5 would take 120^4 complex entries (3.3 GB)
    s5 = symmetric_group(5)
    fn = _margin_symbol(s5, np.random.default_rng(15))
    channel = build_channel(fn)
    tracemalloc.start()
    try:
        cert = is_completely_positive(channel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cert.verdict and not cert.undecided
    assert peak < 64 * 2**20


def test_symbol_to_channel_is_affine(s3):
    rng = np.random.default_rng(7)
    f1, f2 = random_p1(s3, rng), random_p1(s3, rng)
    t = 0.3
    rhs = t * schur_symbol(f1) + (1 - t) * schur_symbol(f2)
    # identical arithmetic path: entrywise mixture of symbols, exact equality
    direct = GroupFunction(s3, t * f1.values + (1 - t) * f2.values)
    assert np.array_equal(schur_symbol(direct), rhs)
    # the library mixer sums in a different order; agreement to rounding
    mixed = convex_combine([t, 1 - t], [f1, f2])
    assert np.abs(schur_symbol(mixed) - rhs).max() < 1e-15
    # the channel action on an element mixes the same way
    elem = GroupFunction(s3, rng.normal(size=6) + 1j * rng.normal(size=6))
    images = t * apply(build_channel(f1), elem).values + (1 - t) * apply(
        build_channel(f2), elem
    ).values
    assert np.abs(apply(build_channel(mixed), elem).values - images).max() < 1e-15


def test_unital_cp_channel_preserves_states(q8):
    rng = np.random.default_rng(8)
    for _ in range(25):
        symbol = random_p1(q8, rng)
        state_fn = random_p1(q8, rng)
        ch = build_channel(symbol)
        # pullback of the state through the channel, as a function
        pulled = GroupFunction(
            q8, np.conj(symbol.values) * state_fn.values
        )
        to_state(pulled)  # raises if not a state


def test_compose_with_identity(d4):
    rng = np.random.default_rng(9)
    fn = random_p1(d4, rng)
    ch = compose(build_channel(fn), build_channel(constant_one(d4)))
    assert np.array_equal(ch.symbol.values, fn.values)


def test_compose_with_delta(q8):
    rng = np.random.default_rng(10)
    unital = build_channel(random_p1(q8, rng))
    ch = compose(build_channel(delta_e(q8)), unital)
    assert np.abs(ch.symbol.values - delta_e(q8).values).max() < 1e-12


def test_compose_preserves_positive_definiteness(q8):
    rng = np.random.default_rng(11)
    for _ in range(30):
        f1, f2 = random_p1(q8, rng), random_p1(q8, rng)
        prod = compose(build_channel(f1), build_channel(f2)).symbol
        assert is_positive_definite(prod).is_psd
        # Schur product oracle: the symbol of the product is the entrywise
        # product of the two PSD symbols
        assert (
            np.abs(schur_symbol(prod) - schur_symbol(f1) * schur_symbol(f2)).max()
            < 1e-12
        )


def _first_off_support(group, build):
    """The first element u with build(group, phi)[u t, t] != phi(u) for
    some t, or None: the index convention of a dense builder, read on the
    probe phi(s) = s, whose values are distinct.  The flat index of
    (u t, t) comes from the Cayley table, not from the builder."""
    n = group.order
    a = build(group, np.arange(n))
    along = a[group.cayley, np.arange(n)] == np.arange(n)[:, None]
    bad = np.flatnonzero(~along.all(axis=1))
    return int(bad[0]) if bad.size else None


def test_algebra_matrix_puts_phi_u_along_every_lambda_u():
    """a[u t, t] = phi(u) for every (u, t) on the ladder, the generated
    products and a relabelled D30: the Schur symbol, which is
    algebra_matrix, holds phi(u) on the support of lambda_u."""
    groups = [build_named(kind) for kind in (*LADDER.values(), *PRODUCTS)]
    groups.append(relabelled(dihedral_group(30), 3))
    assert groups[-1].identity != 0
    bad = {repr(g): u for g in groups if (u := _first_off_support(g, algebra_matrix)) is not None}
    assert bad == {}


def test_builders_off_the_convention_are_caught_with_the_first_bad_element():
    """The Gram (translation) convention phi(s^-1 t), and a matrix moved
    off phi(u) at two entries, fail the check of the test above, which
    names the first element whose support is wrong."""

    def translation(group, coeffs):
        return np.asarray(coeffs, dtype=complex)[group.cayley[group.inverses]]

    for g in (symmetric_group(3), quaternion_group(), relabelled(dihedral_group(30), 3)):
        a = translation(g, np.arange(g.order))
        first = next(
            u for u in g.elements()
            if any(a[g.mul(u, t), t] != u for t in g.elements())
        )
        assert _first_off_support(g, translation) == first

    s3 = symmetric_group(3)

    def moved(group, coeffs):
        a = algebra_matrix(group, coeffs)
        for u in (4, 2):  # lambda_u occupies the entries (u t, t)
            a[group.mul(u, 3), 3] += 1e-3
        return a

    assert _first_off_support(s3, moved) == 2


def test_a_dropped_channel_is_freed_without_the_cyclic_collector():
    """Channels and the structures their certificates keep on the group
    form no reference cycle with a channel."""
    rng = np.random.default_rng(16)
    g = symmetric_group(4)
    ch = build_channel(random_p1(g, rng))
    for _ in range(10):
        ch = compose(ch, build_channel(random_p1(g, rng)))
    assert is_completely_positive(ch).verdict
    dropped = weakref.ref(ch)
    gc.disable()
    try:
        del ch
        assert dropped() is None
    finally:
        gc.enable()
