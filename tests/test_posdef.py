import dataclasses
import functools
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from groupstates import (
    GroupFunction,
    a_norm,
    apply_descriptor,
    block_decompose,
    build_channel,
    central_state_function,
    character_table,
    constant_one,
    convex_combine,
    cyclic_group,
    delta_e,
    dihedral_group,
    direct_product,
    from_state,
    gns,
    is_completely_positive,
    is_extreme,
    is_positive_definite,
    is_psd,
    pure_state_function,
    quaternion_group,
    random_descriptor,
    random_hermitian_symmetric,
    random_p1,
    symmetric_group,
    to_state,
    verify_jordan_form,
)
from groupstates.errors import (
    BadWeights,
    ConvergenceFailure,
    GroupMismatch,
    InternalDisagreement,
    NotHermitianSymmetric,
    NotNormalized,
    NotPositiveDefinite,
)
from groupstates import posdef, vn
from groupstates.groups import algebra_matrix, build_named, cached_block_decomposition
from groupstates.linalg import DEFAULT_TOL, Tolerance
from groupstates.posdef import commutant_dimension
from groupstates.vn import BlockDecomposition

from conftest import (
    LADDER,
    PRODUCTS,
    corpus_group,
    dense_a_norm,
    dense_gns,
    gns_unitarity_bound,
    gram_gns,
    gram_psd_verdict,
    kron_commutant_dimension,
    ladder_group,
    literal_gram_matrix,
    loop_random_hermitian_symmetric,
    loop_random_p1,
    loop_vector_state,
    matrix_coefficient,
    trace_norm,
    unitarity_deviation,
)


# the Gram matrix (the oracle) and the dense image the PSD test reads
def test_gram_constant_one_z2(z2):
    fn = constant_one(z2)
    assert np.array_equal(literal_gram_matrix(fn), np.ones((2, 2)))
    assert np.array_equal(algebra_matrix(z2, fn.values), np.ones((2, 2)))


def test_gram_delta_is_identity(q8):
    fn = delta_e(q8)
    assert np.array_equal(literal_gram_matrix(fn), np.eye(8))
    assert np.array_equal(algebra_matrix(q8, fn.values), np.eye(8))


def test_gram_character_z3_rank_one(z3):
    w = np.exp(2j * np.pi / 3)
    fn = GroupFunction(z3, np.array([1.0, w, w**2]))
    for g in (literal_gram_matrix(fn), algebra_matrix(z3, fn.values)):
        assert np.linalg.matrix_rank(g, tol=1e-10) == 1
    assert is_positive_definite(fn).is_psd


def test_delta_positive_definite(s3):
    verdict = is_positive_definite(delta_e(s3))
    assert verdict.is_psd


def test_z2_negative_witness(z2):
    fn = GroupFunction(z2, np.array([1.0, -1.5]))
    verdict = is_positive_definite(fn)
    assert not verdict.is_psd
    assert abs(verdict.witness - (-0.5)) < 1e-12


def test_not_hermitian_symmetric_raises(z3):
    fn = GroupFunction(z3, np.array([1.0, 1j, 1j]))
    with pytest.raises(NotHermitianSymmetric):
        is_positive_definite(fn)


def test_bochner_agreement_sample(z4):
    rng = np.random.default_rng(23)
    for n in (3, 8, 13):
        g = cyclic_group(n)
        for _ in range(100):
            fn = random_hermitian_symmetric(g, rng)
            verdict = is_positive_definite(fn)
            oracle_min = float(np.fft.fft(fn.values).real.min())
            if verdict.undecided or abs(oracle_min) <= 10 * verdict.cutoff:
                continue
            assert verdict.is_psd == (oracle_min >= -verdict.cutoff)


def test_to_state_constant_one(z4):
    st = to_state(constant_one(z4))
    density = algebra_matrix(z4, st.coefficients)
    assert np.linalg.matrix_rank(density, tol=1e-10) == 1
    assert abs(np.trace(density) / 4 - 1.0) < 1e-12


def test_to_state_tracial(q8):
    st = to_state(delta_e(q8))
    assert np.array_equal(algebra_matrix(q8, st.coefficients), np.eye(8))
    assert from_state(st).values[q8.identity] == 1.0


def test_to_state_midpoint_z2(z2):
    fn = GroupFunction(z2, np.array([1.0, 0.0]))
    st = to_state(fn)
    assert np.array_equal(algebra_matrix(z2, st.coefficients), np.eye(2))


def test_state_pairing_identity(q8):
    rng = np.random.default_rng(2)
    fn = random_p1(q8, rng)
    st = to_state(fn)
    # omega(lambda_s^*) = phi(s): expectation of the adjoint basis element
    for s in q8.elements():
        coeffs = np.zeros(8, dtype=complex)
        coeffs[q8.inv(s)] = 1.0
        assert abs(st.expectation(coeffs) - fn(s)) < 1e-12


def test_round_trip_random_states(q8):
    rng = np.random.default_rng(3)
    for _ in range(100):
        fn = random_p1(q8, rng)
        back = from_state(to_state(fn))
        assert np.abs(back.values - fn.values).max() < 1e-10


def test_to_state_affine(d4):
    rng = np.random.default_rng(4)
    for _ in range(50):
        f1, f2 = random_p1(d4, rng), random_p1(d4, rng)
        t = float(rng.uniform())
        mixed = convex_combine([t, 1 - t], [f1, f2])
        lhs, d1, d2 = (
            algebra_matrix(d4, to_state(fn).coefficients) for fn in (mixed, f1, f2)
        )
        rhs = t * d1 + (1 - t) * d2
        assert np.abs(lhs - rhs).max() < 1e-10


def test_to_state_rejects_unnormalized(z2):
    with pytest.raises(NotNormalized):
        to_state(GroupFunction(z2, np.array([0.5, 0.0])))


def test_to_state_rejects_indefinite(z2):
    with pytest.raises(NotPositiveDefinite):
        to_state(GroupFunction(z2, np.array([1.0, -1.5])))


def test_a_norm_is_one_on_p1(s3, q8):
    rng = np.random.default_rng(5)
    for g in (s3, q8):
        for _ in range(20):
            assert abs(a_norm(random_p1(g, rng)) - 1.0) < 1e-10


def test_a_norm_character_difference_z2(z2):
    # chi_+ - chi_- = (0, 2): density 2*lambda_g has eigenvalues +-2
    fn = GroupFunction(z2, np.array([0.0, 2.0]))
    assert abs(a_norm(fn) - 2.0) < 1e-12


def test_a_norm_homogeneity(d4):
    rng = np.random.default_rng(6)
    fn = random_p1(d4, rng)
    doubled = GroupFunction(d4, 2.0 * fn.values)
    assert abs(a_norm(doubled) - 2.0) < 1e-10


def test_a_norm_subadditive(d4):
    rng = np.random.default_rng(7)
    for _ in range(25):
        f = random_hermitian_symmetric(d4, rng)
        g = random_hermitian_symmetric(d4, rng)
        total = GroupFunction(d4, f.values + g.values)
        assert a_norm(total) <= a_norm(f) + a_norm(g) + 1e-9


def test_a_norm_matches_state_trace_distance(q8):
    rng = np.random.default_rng(8)
    for _ in range(20):
        f1, f2 = random_p1(q8, rng), random_p1(q8, rng)
        diff = GroupFunction(q8, f1.values - f2.values)
        direct = a_norm(diff)
        d1 = algebra_matrix(q8, to_state(f1).coefficients)
        d2 = algebra_matrix(q8, to_state(f2).coefficients)
        via_states = trace_norm(d1 - d2) / q8.order
        assert abs(direct - via_states) < 1e-9


def test_convex_combine_single(z4):
    fn = constant_one(z4)
    assert np.array_equal(convex_combine([1.0], [fn]).values, fn.values)


def test_convex_combine_characters_z2(z2):
    chi_plus = GroupFunction(z2, np.array([1.0, 1.0]))
    chi_minus = GroupFunction(z2, np.array([1.0, -1.0]))
    mid = convex_combine([0.5, 0.5], [chi_plus, chi_minus])
    assert np.array_equal(mid.values, delta_e(z2).values)


def test_convex_combine_stays_positive_definite(d4):
    rng = np.random.default_rng(9)
    for _ in range(100):
        fns = [random_p1(d4, rng) for _ in range(3)]
        w = rng.dirichlet(np.ones(3))
        assert is_positive_definite(convex_combine(w, fns)).is_psd


def test_convex_combine_bad_weights(z2):
    fn = constant_one(z2)
    with pytest.raises(BadWeights):
        convex_combine([0.7, 0.7], [fn, fn])
    with pytest.raises(BadWeights):
        convex_combine([-0.5, 1.5], [fn, fn])


def test_convex_combine_group_mismatch(z2, z3):
    with pytest.raises(GroupMismatch):
        convex_combine([0.5, 0.5], [constant_one(z2), constant_one(z3)])


def test_gns_character_z3(z3):
    w = np.exp(2j * np.pi / 3)
    fn = GroupFunction(z3, np.array([1.0, w, w**2]))
    rep = gns(fn)
    assert rep.dim == 1
    for s in z3.elements():
        assert abs(rep.matrix(s)[0, 0] - fn(s)) < 1e-10


def test_gns_of_trace_is_regular(q8):
    rep = gns(delta_e(q8))
    assert rep.dim == 8
    # same character as the regular representation
    for s in q8.elements():
        expected = 8.0 if s == q8.identity else 0.0
        assert abs(np.trace(rep.matrix(s)) - expected) < 1e-9
        assert abs(rep.character[s] - expected) < 1e-9


def test_gns_q8_half_character_dim_four(q8):
    table = character_table(q8)
    two_dim = table.dims.index(2)
    fn = GroupFunction(q8, table.char_values(two_dim) / 2.0)
    assert gns(fn).dim == 4


def test_gns_invariants_random(d4):
    rng = np.random.default_rng(10)
    fn = random_p1(d4, rng)
    rep = gns(fn)
    for s in d4.elements():
        for t in d4.elements():
            assert (
                np.abs(rep.matrix(s) @ rep.matrix(t) - rep.matrix(d4.mul(s, t))).max() < 1e-9
            )
    assert np.abs(rep.matrix(d4.identity) - np.eye(rep.dim)).max() < 1e-10
    for s in d4.elements():
        assert abs(matrix_coefficient(rep, s) - fn(s)) < 1e-10


def test_extreme_examples(z2, q8):
    assert is_extreme(constant_one(q8))
    assert not is_extreme(delta_e(z2))
    # linear characters are extreme
    table = character_table(q8)
    for pi in range(4):
        assert is_extreme(GroupFunction(q8, table.char_values(pi)))


def test_extreme_pure_block_states(s3, d4, q8):
    rng = np.random.default_rng(11)
    for g in (s3, d4, q8):
        table = character_table(g)
        decomp = block_decompose(g, table, seed=1)
        for pi, d in enumerate(table.dims):
            v = rng.normal(size=d) + 1j * rng.normal(size=d)
            assert is_extreme(pure_state_function(decomp, pi, v))


def test_normalized_higher_character_is_a_proper_mixture(s3):
    """The d >= 2 normalized character is the average of d distinct pure
    states, hence not extreme; its GNS space has dimension d^2."""
    table = character_table(s3)
    pi = table.dims.index(2)
    decomp = block_decompose(s3, table, seed=2)
    p1 = pure_state_function(decomp, pi, np.array([1.0, 0.0]))
    p2 = pure_state_function(decomp, pi, np.array([0.0, 1.0]))
    assert np.abs(p1.values - p2.values).max() > 0.1  # genuinely distinct
    mid = convex_combine([0.5, 0.5], [p1, p2])
    central = central_state_function(table, pi)
    assert np.abs(mid.values - central.values).max() < 1e-9
    assert is_extreme(p1) and is_extreme(p2)
    assert not is_extreme(central)
    assert gns(central).dim == 4


def test_commutant_dimension_matches_kron_oracle():
    """Three routes to the commutant dimension agree: the kron null space
    on the dense GNS representation, the character norm of the block-form
    representation, and sum_pi rank(B_pi)^2 over the Fourier blocks.  The
    batched Gram construction matches the dense one matrix for matrix, and
    the block form is unitarily equivalent to both through the canonical
    map between their quotients."""
    rng = np.random.default_rng(14)
    for g in (symmetric_group(3), quaternion_group(), dihedral_group(4),
              dihedral_group(6), symmetric_group(4)):
        table = character_table(g)
        decomp = block_decompose(g, table, seed=4)
        pure = [
            pure_state_function(decomp, pi, rng.normal(size=d) + 1j * rng.normal(size=d))
            for pi, d in enumerate(table.dims)
        ]
        # (function, commutant dimension known by construction, or None)
        cases = [(fn, 1) for fn in pure]
        cases += [
            (central_state_function(table, pi), d * d)
            for pi, d in enumerate(table.dims)
        ]
        cases += [
            (convex_combine([0.4, 0.6], [pure[0], pure[-1]]), 2),
            (convex_combine([0.5, 0.5], [pure[1], pure[2]]), 2),
            (delta_e(g), sum(d * d for d in table.dims)),
            (convex_combine([0.3, 0.7], [delta_e(g), random_p1(g, rng)]),
             sum(d * d for d in table.dims)),
        ]
        # two pure states of the largest block: one block of rank 2
        top = int(np.argmax(table.dims))
        second = pure_state_function(decomp, top, rng.normal(size=table.dims[top]))
        cases.append((convex_combine([0.5, 0.5], [pure[top], second]), 4))
        cases += [(random_p1(g, rng), None) for _ in range(3)]
        for fn, expected in cases:
            rep = gns(fn)
            dense = dense_gns(fn)
            batched = gram_gns(fn)
            assert rep.dim == dense.dim == batched.dim
            # the block form is the Gram construction in another basis: the
            # map sending the class of a coefficient vector to its class is
            # unitary, fixes the cyclic vector and intertwines every rho(s)
            intertwiner = rep.project @ batched.lift
            eye = np.eye(rep.dim)
            assert np.abs(intertwiner.conj().T @ intertwiner - eye).max() < 1e-10
            assert np.abs(intertwiner @ batched.cyclic_vector - rep.cyclic_vector).max() < 1e-10
            for s in g.elements():
                assert np.abs(batched.matrix(s) - dense.rep[s]).max() < 1e-10
                assert np.abs(
                    intertwiner @ dense.rep[s] - rep.matrix(s) @ intertwiner
                ).max() < 1e-10
            gram_character = posdef._gram_character(fn, DEFAULT_TOL)[1]
            routes = {
                commutant_dimension(rep),
                posdef._integer_character_norm(gram_character, g.order),
                kron_commutant_dimension(dense, DEFAULT_TOL),
                sum(r * r for r in posdef._block_ranks(fn, DEFAULT_TOL)),
            }
            assert len(routes) == 1
            assert expected is None or routes == {expected}


def test_commutant_dimension_rejects_non_integer_norm(q8):
    rep = gns(constant_one(q8))
    scaled = dataclasses.replace(rep, character=1.01 * rep.character)
    with pytest.raises(ConvergenceFailure):
        commutant_dimension(scaled)


def test_is_extreme_raises_when_the_routes_disagree(monkeypatch, q8):
    pure = constant_one(q8)
    mixed = delta_e(q8)
    assert is_extreme(pure) and not is_extreme(mixed)
    with monkeypatch.context() as m:
        m.setattr(posdef, "_integer_character_norm", lambda character, order: 2)
        with pytest.raises(InternalDisagreement) as info:
            is_extreme(pure)
        witness = info.value.witness
        assert witness["commutant_dimension"] == 2
        assert sorted(witness["block_ranks"]) == [0, 0, 0, 0, 1]
    with monkeypatch.context() as m:
        m.setattr(posdef, "_block_ranks", lambda fn, tol: [1, 0, 0, 0, 0])
        with pytest.raises(InternalDisagreement) as info:
            is_extreme(mixed)
        assert info.value.witness["commutant_dimension"] == 8


def test_is_extreme_raises_when_gram_rank_and_block_ranks_disagree(monkeypatch, q8):
    """A rank in the 2-dimensional block where the pure state constant_one
    has its rank in a 1-dimensional one: both verdicts still say extreme,
    but sum_pi d_pi rank(B_pi) = 2 differs from the Gram rank 1."""
    pure = constant_one(q8)
    dims = vn.kept_block_decomposition(q8).block_dims
    moved = [int(d == 2) for d in dims]
    monkeypatch.setattr(posdef, "_block_ranks", lambda fn, tol: moved)
    with pytest.raises(InternalDisagreement) as info:
        is_extreme(pure)
    witness = info.value.witness
    assert witness["gram_rank"] == 1 and witness["block_ranks"] == moved
    assert witness["commutant_dimension"] == 1


def test_is_extreme_builds_no_gns(monkeypatch):
    calls = []
    real = posdef.gns
    monkeypatch.setattr(posdef, "gns", lambda *args: calls.append(args) or real(*args))
    rng = np.random.default_rng(23)
    for g in (quaternion_group(), symmetric_group(4)):
        decomp = block_decompose(g)
        assert is_extreme(pure_state_function(decomp, len(decomp.block_dims) - 1,
                                              rng.normal(size=decomp.block_dims[-1])))
        assert not is_extreme(random_p1(g, rng))
        assert not is_extreme(delta_e(g))
    assert calls == []


def _gns_cases(group, decomp, rng):
    """(label, function): a pure state per block, the normalized character
    of every block, a low-rank mix of two pure states and two full-rank
    states (a delta_e mixture and delta_e itself)."""
    dims = decomp.block_dims

    def pure(pi):
        v = rng.normal(size=dims[pi]) + 1j * rng.normal(size=dims[pi])
        return pure_state_function(decomp, pi, v)

    cases = [("pure", pure(pi)) for pi in range(len(dims))]
    cases += [("character", central_state_function(decomp.table, pi)) for pi in range(len(dims))]
    a, b = (int(x) for x in rng.choice(len(dims), size=2, replace=False))
    cases.append(("low rank", convex_combine([0.3, 0.7], [pure(a), pure(b)])))
    cases.append(("full rank", convex_combine([0.4, 0.6], [delta_e(group), random_p1(group, rng)])))
    cases.append(("full rank", delta_e(group)))
    return cases


@pytest.mark.parametrize("name", list(LADDER))
def test_block_gns_matches_gram_oracle(name):
    """On every ladder group the block-form GNS has the Gram construction's
    dimension and character, the matrix coefficients phi(s) at every s,
    and every rho(s) unitary within the bound its docstring states."""
    group = ladder_group(name)
    decomp = block_decompose(group)
    rng = np.random.default_rng(41)
    n = group.order
    translate = group.cayley[group.inverses]
    for label, fn in _gns_cases(group, decomp, rng):
        rep = gns(fn)
        oracle = gram_gns(fn)
        assert rep.dim == oracle.dim, label
        assert np.abs(rep.character - oracle.character).max() < 1e-10, label
        if label == "full rank":
            assert rep.dim == n
        # <rho(s) xi, xi> with rho(s) = project lambda_s lift, one s at a time
        xi = rep.cyclic_vector
        coefficients = [np.vdot(xi, rep.project @ (rep.lift[translate[s]] @ xi)) for s in range(n)]
        assert np.abs(np.array(coefficients) - fn.values).max() < 1e-10, label
        deviation = unitarity_deviation(rep)
        assert deviation <= gns_unitarity_bound(fn, decomp), label
        assert deviation < 1e-10, label


def test_block_gns_rejects_indefinite_with_the_gram_witness():
    rng = np.random.default_rng(43)
    for g in (symmetric_group(3), quaternion_group(), symmetric_group(4), dihedral_group(30)):
        block_decompose(g)
        for _ in range(3):
            fn = random_hermitian_symmetric(g, rng)
            gram_min = float(np.linalg.eigvalsh(literal_gram_matrix(fn))[0])
            assert gram_min < 0
            with pytest.raises(NotPositiveDefinite) as info:
                gns(fn)
            assert abs(info.value.witness["min_eigenvalue"] - gram_min) < 1e-10
            with pytest.raises(NotPositiveDefinite) as info:
                gram_gns(fn)
            assert abs(info.value.witness["min_eigenvalue"] - gram_min) < 1e-10


def test_zero_function_has_rank_zero(q8):
    zero = GroupFunction(q8, np.zeros(8))
    for call in (gns, gram_gns, is_extreme):
        with pytest.raises(NotPositiveDefinite, match="rank zero"):
            call(zero)


def test_block_gns_on_s6():
    """S6 (n = 720, largest block 16): a rank-2 state against the Gram
    oracle, and a full-rank state whose representation is the regular one."""
    s6 = symmetric_group(6)
    decomp = block_decompose(s6)
    rng = np.random.default_rng(47)
    top = int(np.argmax(decomp.block_dims))
    d = decomp.block_dims[top]
    rank_two = convex_combine([0.5, 0.5], [
        pure_state_function(decomp, top, rng.normal(size=d) + 1j * rng.normal(size=d)),
        pure_state_function(decomp, 0, np.ones(1)),
    ])
    rep = gns(rank_two)
    oracle = gram_gns(rank_two)
    assert rep.dim == oracle.dim == d + 1
    assert np.abs(rep.character - oracle.character).max() < 1e-10
    assert not is_extreme(rank_two)

    full = convex_combine([0.5, 0.5], [delta_e(s6), random_p1(s6, rng)])
    rep = gns(full)
    regular = np.zeros(720)
    regular[s6.identity] = 720
    assert rep.dim == 720
    assert np.abs(rep.character - regular).max() < 1e-8


def test_is_extreme_builds_a_decomposition_only_when_none_is_cached(monkeypatch):
    calls = []
    real = vn.block_decompose

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return real(*args, **kwargs)

    monkeypatch.setattr(vn, "block_decompose", counted)
    d6 = dihedral_group(6)
    rng = np.random.default_rng(17)
    for _ in range(3):
        is_extreme(random_p1(d6, rng))
    assert calls == [12]
    assert cached_block_decomposition(d6) is not None


def test_is_extreme_holds_no_per_element_stack(s5):
    """A full-rank S5 state has a 120-dimensional GNS space: one
    (n, dim, dim) complex array of every rho(s) is 120^3 * 16 B = 27.6 MB.
    is_extreme builds no representation; its largest arrays are n x n
    (230 kB), so 10 MB leaves room for numpy's temporaries."""
    block_decompose(s5)
    rng = np.random.default_rng(21)
    fn = convex_combine([0.3, 0.7], [delta_e(s5), random_p1(s5, rng)])
    tracemalloc.start()
    try:
        extreme = is_extreme(fn)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not extreme and gns(fn).dim == 120
    assert peak < 10 * 2**20


def test_extreme_on_d30():
    d30 = dihedral_group(30)
    table = character_table(d30)
    decomp = block_decompose(d30, table, seed=0)
    pi = table.dims.index(2)
    assert is_extreme(pure_state_function(decomp, pi, np.array([1.0, 1j])))
    assert not is_extreme(central_state_function(table, pi))
    # a full-rank state has a 60-dimensional GNS space: its commutant as a
    # null space of X -> X rep(s) - rep(s) X is 3600 x 3600 per generator
    rng = np.random.default_rng(15)
    assert not is_extreme(convex_combine([0.3, 0.7], [delta_e(d30), random_p1(d30, rng)]))


def test_extremality_closed_under_inner_automorphisms(d4):
    rng = np.random.default_rng(12)
    table = character_table(d4)
    decomp = block_decompose(d4, table, seed=3)
    samples = [
        pure_state_function(decomp, table.dims.index(2), rng.normal(size=2)),
        central_state_function(table, 0),
        random_p1(d4, rng),
    ]
    for fn in samples:
        verdict = is_extreme(fn)
        for g in d4.elements():
            twisted = GroupFunction(
                d4,
                np.array(
                    [fn(d4.mul(d4.mul(g, s), d4.inv(g))) for s in d4.elements()]
                ),
            )
            assert is_extreme(twisted) == verdict


def test_samplers_match_their_loop_versions():
    """random_p1 reads the same draws as the loop that takes one vector
    state (one vdot per element) per component, and
    random_hermitian_symmetric the same draws as one scalar normal per
    value, bit for bit."""
    for g in (symmetric_group(3), quaternion_group(), dihedral_group(6), symmetric_group(4)):
        for seed in range(10):
            fast, slow = np.random.default_rng(seed), np.random.default_rng(seed)
            assert np.abs(random_p1(g, fast).values - loop_random_p1(g, slow).values).max() < 1e-12
            assert fast.bit_generator.state == slow.bit_generator.state
            fn = random_hermitian_symmetric(g, fast)
            assert fn.values.tobytes() == loop_random_hermitian_symmetric(g, slow).values.tobytes()
            assert fast.bit_generator.state == slow.bit_generator.state


def test_vector_state_is_p1(s4):
    rng = np.random.default_rng(13)
    xi = rng.normal(size=24) + 1j * rng.normal(size=24)
    fn = loop_vector_state(s4, xi)
    assert abs(fn.values[s4.identity] - 1.0) < 1e-12
    assert is_positive_definite(fn).is_psd


def test_a_norm_matches_trace_norm_oracle():
    """Sum of |eigenvalues| of the Hermitian density = its singular values,
    on the dense density of a fresh group and on the Fourier blocks once
    the group holds a decomposition."""
    rng = np.random.default_rng(12)
    for group in (symmetric_group(3), quaternion_group(), dihedral_group(4)):
        fns = [random_p1(group, rng) for _ in range(3)]
        fns += [random_hermitian_symmetric(group, rng) for _ in range(3)]
        for path in ("dense", "blocks"):
            if path == "blocks":
                block_decompose(group)
            assert (cached_block_decomposition(group) is None) == (path == "dense")
            for fn in fns:
                oracle = trace_norm(algebra_matrix(group, fn.values)) / group.order
                assert abs(a_norm(fn) - oracle) < 1e-12 * max(1.0, oracle)


def _ladder_inputs(group, decomp, rng):
    """random_p1, random_hermitian_symmetric, a pure state, a central
    state, a two-block mix and an indefinite spike delta_e + c delta_s."""
    dims = decomp.block_dims
    k = len(dims)

    def pure(pi):
        v = rng.normal(size=dims[pi]) + 1j * rng.normal(size=dims[pi])
        return pure_state_function(decomp, pi, v)

    a, b = (int(x) for x in rng.choice(k, size=2, replace=False))
    involution = next(
        s for s in group.elements()
        if s != group.identity and group.inv(s) == s
    )
    spike = np.zeros(group.order, dtype=complex)
    spike[group.identity] = 1.0
    spike[involution] = float(rng.uniform(1.5, 3.0))
    return [
        random_p1(group, rng),
        random_hermitian_symmetric(group, rng),
        pure(int(rng.integers(k))),
        central_state_function(decomp.table, int(rng.integers(k))),
        convex_combine([0.4, 0.6], [pure(a), pure(b)]),
        GroupFunction(group, spike),
    ]


def test_blockwise_psd_matches_gram_oracle():
    rng = np.random.default_rng(31)
    ladder = (
        symmetric_group(3), quaternion_group(), dihedral_group(6), symmetric_group(4),
        direct_product(symmetric_group(4), cyclic_group(2)),
    )
    seen = {"psd": 0, "not psd": 0, "undecided": 0}
    for group in ladder:
        decomp = block_decompose(group)
        assert cached_block_decomposition(group) is decomp
        for fn in _ladder_inputs(group, decomp, rng):
            verdict = is_positive_definite(fn)
            oracle = gram_psd_verdict(fn)
            assert verdict.is_psd == oracle.is_psd
            assert verdict.cutoff == oracle.cutoff
            assert verdict.undecided == oracle.undecided
            assert abs(verdict.witness - oracle.witness) < 1e-12
            dense = dense_a_norm(fn)
            assert abs(a_norm(fn) - dense) < 1e-12 * max(1.0, dense)
            seen["psd" if verdict.is_psd else "not psd"] += 1
            seen["undecided"] += verdict.undecided
    assert min(seen.values()) >= len(ladder)


@functools.lru_cache(maxsize=None)
def _decomposed(kind):
    # the decomposition points back at its group only weakly, so the cache
    # holds the group too
    group = build_named(kind)
    return group, block_decompose(group)


@settings(max_examples=400, deadline=None)
@given(
    kind=st.sampled_from([LADDER[name] for name in ("S3", "Q8", "D6")] + PRODUCTS),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    weight=st.floats(min_value=0.0, max_value=1.0),
)
def test_fourier_and_gram_verdicts_agree_outside_the_band(kind, seed, weight):
    # a mix of a state and an arbitrary Hermitian-symmetric function lands
    # on either side of the PSD boundary; the Gram verdict is certified by
    # its Cholesky factor, on S3, Q8, D6 and every generated direct product
    _, decomp = _decomposed(kind)
    rng = np.random.default_rng(seed)
    state = random_p1(decomp.group, rng)
    other = random_hermitian_symmetric(decomp.group, rng)
    fn = GroupFunction(decomp.group, weight * state.values + (1 - weight) * other.values)
    fourier = posdef._block_psd_verdict(fn, decomp, DEFAULT_TOL)
    gram = gram_psd_verdict(fn)
    if not (fourier.undecided or gram.undecided):
        assert fourier.is_psd == gram.is_psd
    assert abs(fourier.witness - gram.witness) < 1e-12 * max(1.0, abs(gram.witness))


def _count_is_psd(monkeypatch):
    calls = []
    real = posdef.is_psd

    def counted(a, tol=DEFAULT_TOL):
        calls.append(a.shape)
        return real(a, tol)

    monkeypatch.setattr(posdef, "is_psd", counted)
    return calls


def _count_psd_verdicts(monkeypatch):
    calls = []
    real = posdef._block_psd_verdict

    def counted(fn, decomp, tol):
        calls.append(tol)
        return real(fn, decomp, tol)

    monkeypatch.setattr(posdef, "_block_psd_verdict", counted)
    return calls


def test_to_state_reuses_cached_verdict(monkeypatch):
    # a freshly built group holds no decomposition: the Gram path
    q8 = quaternion_group()
    assert cached_block_decomposition(q8) is None
    calls = _count_is_psd(monkeypatch)
    fn = random_p1(q8, np.random.default_rng(13))
    verdict = is_positive_definite(fn)
    state = to_state(fn)
    assert calls == [(8, 8)]
    assert is_positive_definite(fn) is verdict
    assert np.array_equal(state.coefficients, fn.values)
    # the cache is keyed by the tolerance
    is_positive_definite(fn, Tolerance(eig_tol=1e-6))
    assert len(calls) == 2


def test_to_state_reuses_cached_block_verdict(monkeypatch):
    # once the group holds a decomposition: the Fourier-block path, with
    # no Gram matrix
    q8 = quaternion_group()
    block_decompose(q8)
    gram_calls = _count_is_psd(monkeypatch)
    block_calls = _count_psd_verdicts(monkeypatch)
    fn = random_p1(q8, np.random.default_rng(13))
    verdict = is_positive_definite(fn)
    state = to_state(fn)
    assert len(block_calls) == 1 and gram_calls == []
    assert is_positive_definite(fn) is verdict
    assert np.array_equal(state.coefficients, fn.values)
    # the cache is keyed by the tolerance
    is_positive_definite(fn, Tolerance(eig_tol=1e-6))
    assert block_calls == [DEFAULT_TOL, Tolerance(eig_tol=1e-6)] and gram_calls == []


def test_block_spectra_are_computed_once_per_function(monkeypatch):
    s4 = symmetric_group(4)
    decomp = block_decompose(s4)
    calls = []
    real = BlockDecomposition.block_spectra

    def counted(self, coeffs):
        calls.append(self)
        return real(self, coeffs)

    monkeypatch.setattr(BlockDecomposition, "block_spectra", counted)
    fn = random_p1(s4, np.random.default_rng(21))
    is_positive_definite(fn)
    norm = a_norm(fn)
    to_state(fn)
    is_extreme(fn)
    assert calls == [decomp]
    assert abs(norm - dense_a_norm(fn)) < 1e-10
    # another function, and another kept decomposition, compute them again
    a_norm(random_p1(s4, np.random.default_rng(22)))
    assert calls == [decomp, decomp]
    rebuilt = block_decompose(s4, seed=1)
    assert a_norm(fn) == pytest.approx(norm, abs=1e-12)
    assert calls == [decomp, decomp, rebuilt]


def test_decomposition_at_looser_tolerance_is_not_reused(monkeypatch):
    q8 = quaternion_group()
    loose = Tolerance(residual_tol=1e-6)
    decomp = block_decompose(q8, tol=loose)
    assert cached_block_decomposition(q8) is None
    assert cached_block_decomposition(q8, loose) is decomp
    gram_calls = _count_is_psd(monkeypatch)
    block_calls = _count_psd_verdicts(monkeypatch)
    fn = random_p1(q8, np.random.default_rng(16))
    is_positive_definite(fn)
    a_norm(fn)
    assert len(gram_calls) == 1 and block_calls == []
    is_positive_definite(fn, loose)
    assert len(gram_calls) == 1 and block_calls == [loose]


def test_looser_decomposition_keeps_the_tighter_one():
    q8 = quaternion_group()
    tight = block_decompose(q8)
    loose = block_decompose(q8, tol=Tolerance(residual_tol=1e-6))
    assert cached_block_decomposition(q8) is tight
    assert cached_block_decomposition(q8, Tolerance(residual_tol=1e-6)) is tight
    # an equally tight one replaces it
    again = block_decompose(q8)
    assert loose is not tight and cached_block_decomposition(q8) is again


def test_repeated_query_still_checks_hermitian_symmetry(monkeypatch, z2):
    calls = _count_is_psd(monkeypatch)
    skew = GroupFunction(z2, np.array([1.0, 0.5 + 1e-6j]))
    for _ in range(2):
        with pytest.raises(NotHermitianSymmetric):
            is_positive_definite(skew)
    assert calls == []


def test_gns_decides_from_its_own_spectrum(monkeypatch, z2, q8):
    calls = _count_is_psd(monkeypatch)
    rep = gns(random_p1(q8, np.random.default_rng(14)))
    assert rep.dim >= 1 and calls == []
    bad = GroupFunction(z2, np.array([1.0, -1.5]))
    with pytest.raises(NotPositiveDefinite) as info:
        gns(bad)
    assert abs(info.value.witness["min_eigenvalue"] - is_positive_definite(bad).witness) < 1e-12


@pytest.mark.parametrize("bad", [
    complex(np.nan, 0.0), complex(0.25, np.nan), complex(np.inf, 0.0), complex(0.25, -np.inf),
])
def test_group_function_rejects_non_finite_values(z3, bad):
    """A NaN or an infinity in the real or in the imaginary part alone."""
    values = np.array([1.0, bad, 0.25], dtype=complex)
    assert np.isfinite(values.real).all() or np.isfinite(values.imag).all()
    with pytest.raises(ValueError, match="NaN or Inf"):
        GroupFunction(z3, values)


def test_group_function_is_immutable(z3):
    source = np.array([1.0, 0.25, 0.25])
    fn = GroupFunction(z3, source)
    with pytest.raises(dataclasses.FrozenInstanceError):
        fn.values = np.zeros(3)
    with pytest.raises(ValueError):
        fn.values[0] = 2.0
    # the values are a private copy, so the caller's array cannot change them
    source[1] = 9.0
    assert fn.values[1] == 0.25


def test_normal_state_leaves_the_callers_array_writable(z3):
    coefficients = np.array([1.0, 0.25, 0.25], dtype=complex)
    state = posdef.NormalState(z3, coefficients)
    assert coefficients.flags.writeable and not state.coefficients.flags.writeable
    coefficients[1] = 9.0
    assert state.coefficients[1] == 0.25
    # to_state keeps the function's read-only values, no copy
    fn = GroupFunction(z3, [1.0, 0.25, 0.25])
    assert to_state(fn).coefficients is fn.values


# --------------------------------------------------------------------------
# verdicts on the ray of phi: canonical power-of-two units
# --------------------------------------------------------------------------

# S3, Q8, S4 and D30 of the ladder, and three corpus groups
_SCALE_GROUPS = ["S3", "Q8", "S4", "D30", "A4", "Dic3", "SD16"]


def _scale_group(name):
    return ladder_group(name) if name in LADDER else corpus_group(name)


@functools.cache
def _kept_scale_group(name):
    """One group per name holding a decomposition: the block route."""
    g = _scale_group(name)
    block_decompose(g)
    return g


@functools.cache
def _fresh_scale_group(name):
    """One group per name that never holds a decomposition: the dense
    route, which only PSD verdicts and A-norms are read from."""
    return _scale_group(name)


def _scale_input(g, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "p1":
        return random_p1(g, rng).values
    if kind == "hermitian":
        return random_hermitian_symmetric(g, rng).values
    if kind == "spike":
        # delta_e + c (delta_s + delta_{s^-1}): positive definite iff c is small
        s = int(rng.integers(1, g.order))
        values = np.zeros(g.order, dtype=complex)
        values[g.identity] = 1.0
        values[s] += rng.uniform(0.0, 1.5)
        values[g.inverses[s]] = values[s]
        return values
    # a central state of one block minus one of another: indefinite, with
    # two blocks of full rank
    table = character_table(g)
    pi, rho = rng.choice(table.num_irreps, size=2, replace=False)
    t = rng.uniform(0.1, 0.9)
    return (t * central_state_function(table, pi).values
            - (1 - t) * central_state_function(table, rho).values)


def _outcome(query):
    """A query's value, or its exception's name and witness."""
    try:
        return query()
    except (NotPositiveDefinite, NotHermitianSymmetric) as exc:
        return exc.name, exc.witness


def _scaled_outcomes(fresh, kept, values):
    """Everything scale-dependent that the two routes report on phi:
    verdicts and flags, ranks, and the witnesses, cutoffs and norms."""
    def psd(g):
        v = is_positive_definite(GroupFunction(g, values))
        return v.is_psd, v.undecided, v.witness, v.cutoff

    def cp():
        cert = is_completely_positive(build_channel(GroupFunction(kept, values)))
        return (cert.verdict, cert.undecided, cert.symbol_verdict.witness,
                cert.symbol_verdict.cutoff, cert.block_verdict.witness, cert.block_verdict.cutoff)

    def on_blocks(query):
        return _outcome(lambda: query(GroupFunction(kept, values), DEFAULT_TOL))

    return {
        "dense psd": _outcome(lambda: psd(fresh)),
        "dense norm": _outcome(lambda: a_norm(GroupFunction(fresh, values))),
        "block psd": _outcome(lambda: psd(kept)),
        "block norm": on_blocks(a_norm),
        # the extremality verdict and the Gram rank
        "extremality": on_blocks(posdef._extremality),
        "block ranks": on_blocks(posdef._block_ranks),
        "cp": _outcome(cp),
    }


def _times_pow2(outcome, k):
    """``outcome`` with every float in it multiplied by 2**k: booleans and
    integers (verdicts, flags, ranks) are left as they are."""
    if isinstance(outcome, float):
        return float(np.ldexp(outcome, k))
    if isinstance(outcome, dict):
        return {key: _times_pow2(v, k) for key, v in outcome.items()}
    if isinstance(outcome, (tuple, list)):
        return type(outcome)(_times_pow2(v, k) for v in outcome)
    return outcome


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(_SCALE_GROUPS),
    kind=st.sampled_from(["p1", "hermitian", "spike", "two blocks"]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    k=st.integers(min_value=-900, max_value=900),
)
@example(name="S4", kind="p1", seed=3, k=29)
@example(name="S3", kind="hermitian", seed=0, k=900)
@example(name="D30", kind="two blocks", seed=1, k=-900)
def test_verdicts_are_functions_of_the_ray(name, kind, seed, k):
    """At 2**k phi the PSD, extremality and CP verdicts, the undecided
    flags, the Gram rank and the block ranks are those at phi, and every
    witness, cutoff and A-norm is 2**k times its value at phi, bit for bit,
    on the dense route (a group holding no decomposition) and the block
    route (a kept decomposition).  |k| <= 900 keeps every value of phi out
    of the subnormals, where scaling is not exact."""
    fresh, kept = _fresh_scale_group(name), _kept_scale_group(name)
    values = _scale_input(kept, kind, seed)
    scaled = np.ldexp(values.real, k) + 1j * np.ldexp(values.imag, k)
    assume(np.array_equal(np.ldexp(scaled.real, -k) + 1j * np.ldexp(scaled.imag, -k), values))
    assert cached_block_decomposition(fresh) is None
    at_phi = _scaled_outcomes(fresh, kept, values)
    assert _scaled_outcomes(fresh, kept, scaled) == _times_pow2(at_phi, k)
    assert cached_block_decomposition(fresh) is None


def _failing_solver(*args, **kwargs):
    raise np.linalg.LinAlgError("Eigenvalues did not converge")


_SOLVER_QUERIES = {
    "is_psd": lambda fresh, kept, decomp, values: is_psd(algebra_matrix(fresh, values)),
    "dense is_positive_definite":
        lambda fresh, kept, decomp, values: is_positive_definite(GroupFunction(fresh, values)),
    "dense a_norm": lambda fresh, kept, decomp, values: a_norm(GroupFunction(fresh, values)),
    "block is_positive_definite":
        lambda fresh, kept, decomp, values: is_positive_definite(GroupFunction(kept, values)),
    "block a_norm": lambda fresh, kept, decomp, values: a_norm(GroupFunction(kept, values)),
    "gns": lambda fresh, kept, decomp, values: gns(GroupFunction(kept, values)),
    "is_extreme": lambda fresh, kept, decomp, values: is_extreme(GroupFunction(kept, values)),
    "is_completely_positive": lambda fresh, kept, decomp, values: is_completely_positive(
        build_channel(GroupFunction(kept, values))),
    "verify_jordan_form": lambda fresh, kept, decomp, values: verify_jordan_form(
        functools.partial(apply_descriptor, random_descriptor(decomp, np.random.default_rng(1)),
                          decomp=decomp), decomp),
}


@pytest.mark.parametrize("query", list(_SOLVER_QUERIES))
def test_a_failed_solver_raises_convergence_failure_on_every_route(monkeypatch, query):
    """Every eigen-test reaches the solver through the one solve in linalg
    (hermitian_spectrum), which turns its failure into ConvergenceFailure.  ``fresh`` holds no
    decomposition (the dense route), ``kept`` holds one (the block route)."""
    kept, fresh = symmetric_group(3), symmetric_group(3)
    decomp = block_decompose(kept)
    values = random_p1(kept, np.random.default_rng(0)).values
    monkeypatch.setattr(np.linalg, "eigvalsh", _failing_solver)
    monkeypatch.setattr(np.linalg, "eigh", _failing_solver)
    with pytest.raises(ConvergenceFailure, match="solver failed"):
        _SOLVER_QUERIES[query](fresh, kept, decomp, values)
    assert cached_block_decomposition(fresh) is None
