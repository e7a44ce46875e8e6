import numpy as np
import pytest

from groupstates import (
    AffineHomeoDescriptor,
    GroupFunction,
    a_norm,
    apply_descriptor,
    block_decompose,
    canonical_phase,
    central_state_function,
    character_table,
    construct_affine_homeomorphism,
    convex_combine,
    cyclic_group,
    dihedral_group,
    direct_product,
    fit_affine_map_from_pairs,
    homeo_group_description,
    inverse_descriptor,
    is_extreme,
    is_positive_definite,
    minimal_central_projections,
    pure_state_function,
    quaternion_group,
    random_descriptor,
    random_p1,
    symmetric_group,
    verify_jordan_form,
    vn_invariant,
    vn_isomorphic,
)
from groupstates.errors import (
    DecompositionFailure,
    DimensionMismatch,
    NotAffine,
    NotIsomorphic,
)
from groupstates.groups import algebra_matrix, validate_group
from groupstates.linalg import DEFAULT_TOL
from groupstates.vn import (
    BlockDecomposition,
    _coefficient_transport,
    _matching_by_dimension,
    _verify_decomposition,
)

from conftest import loop_coefficient_transport, random_unitary


def test_invariants():
    assert vn_invariant(cyclic_group(8)).dims == (1,) * 8
    assert vn_invariant(quaternion_group()).dims == (1, 1, 1, 1, 2)
    assert vn_invariant(dihedral_group(4)).dims == (1, 1, 1, 1, 2)
    assert vn_invariant(symmetric_group(3)).dims == (1, 1, 2)
    assert vn_invariant(cyclic_group(6)).dims == (1,) * 6


def test_invariant_order_identity():
    inv = vn_invariant(symmetric_group(4))
    assert inv.order == 24
    assert inv.multiplicities() == {1: 2, 2: 1, 3: 2}


def test_isomorphism_verdicts():
    assert vn_isomorphic(quaternion_group(), dihedral_group(4)).isomorphic
    assert vn_isomorphic(
        cyclic_group(4), direct_product(cyclic_group(2), cyclic_group(2))
    ).isomorphic
    verdict = vn_isomorphic(symmetric_group(3), cyclic_group(6))
    assert not verdict.isomorphic
    assert verdict.invariant_g.dims == (1, 1, 2)
    assert verdict.invariant_h.dims == (1,) * 6
    assert not vn_isomorphic(quaternion_group(), cyclic_group(8)).isomorphic


def test_block_decomposition_abelian_units_are_projections():
    g = cyclic_group(5)
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    projs = minimal_central_projections(g, table)
    for pi in range(5):
        assert np.abs(decomp.unit_matrix(pi, 0, 0) - projs[pi].matrix).max() < 1e-12


@pytest.mark.parametrize("maker", [lambda: dihedral_group(4), lambda: symmetric_group(4)])
def test_block_decomposition_relations(maker):
    g = maker()
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    n = g.order
    units = [
        (pi, j, k, decomp.unit_matrix(pi, j, k))
        for pi, d in enumerate(decomp.block_dims)
        for j in range(d)
        for k in range(d)
    ]
    total = np.zeros((n, n), dtype=complex)
    for pi, j, k, e in units:
        assert np.abs(e.conj().T - decomp.unit_matrix(pi, k, j)).max() < 1e-9
        if j == k:
            total += e
    assert np.abs(total - np.eye(n)).max() < 1e-9
    for pi, j, k, e in units:
        for rho, l, m, f in units:
            expected = (
                decomp.unit_matrix(pi, j, m)
                if pi == rho and k == l
                else np.zeros((n, n))
            )
            assert np.abs(e @ f - expected).max() < 1e-9


def test_block_decomposition_d4_two_dim_identities():
    g = dihedral_group(4)
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    pi = table.dims.index(2)
    projs = minimal_central_projections(g, table)
    e11 = decomp.unit_matrix(pi, 0, 0)
    e22 = decomp.unit_matrix(pi, 1, 1)
    e12 = decomp.unit_matrix(pi, 0, 1)
    e21 = decomp.unit_matrix(pi, 1, 0)
    assert np.abs(e11 + e22 - projs[pi].matrix).max() < 1e-9
    assert np.abs(e12 @ e21 - e11).max() < 1e-9


def test_block_decomposition_tau_of_diagonal_units():
    g = symmetric_group(4)
    decomp = block_decompose(g, seed=0)
    for pi, d in enumerate(decomp.block_dims):
        for j in range(d):
            tau = np.trace(decomp.unit_matrix(pi, j, j)).real / g.order
            assert abs(tau - d / g.order) < 1e-10


def test_block_decomposition_deterministic():
    g = quaternion_group()
    d1 = block_decompose(g, seed=5)
    d2 = block_decompose(g, seed=5)
    for pi in range(d1.num_blocks):
        assert np.array_equal(d1.units[pi], d2.units[pi])


def _tampered(decomp, pi, edit):
    units = [u.copy() for u in decomp.units]
    edit(units[pi])
    return BlockDecomposition(decomp.group, decomp.table, units, decomp.seed)


def _add_phase(u):
    u[0, 1] *= np.exp(0.3j)


def _swap_diagonal(u):
    u[0, 0], u[1, 1] = u[1, 1].copy(), u[0, 0].copy()


def _perturb(u):
    u[0, 1] += 1e-6 * np.exp(1j * np.arange(u.shape[2]))


def _scale_pair(u):
    u[0, 1] *= 2.0
    u[1, 0] *= 2.0


@pytest.mark.parametrize(
    "edit, check",
    [
        (_add_phase, "adjoint"),
        (_swap_diagonal, "multiplicative"),
        (_perturb, "adjoint"),
        (_scale_pair, "does not invert"),
    ],
)
def test_verification_rejects_tampered_units(edit, check):
    g = symmetric_group(3)
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    _verify_decomposition(decomp, DEFAULT_TOL)
    bad = _tampered(decomp, table.dims.index(2), edit)
    with pytest.raises(DecompositionFailure, match=check):
        _verify_decomposition(bad, DEFAULT_TOL)


def test_block_transport_matches_basis_vector_loop():
    s4 = symmetric_group(4)
    perm = np.random.default_rng(11).permutation(s4.order)
    relabelled = np.empty_like(s4.cayley)
    relabelled[np.ix_(perm, perm)] = perm[s4.cayley]
    pairs = [
        (quaternion_group(), dihedral_group(4)),
        (s4, validate_group(relabelled)),
    ]
    for g, h in pairs:
        dg, dh = block_decompose(g, seed=0), block_decompose(h, seed=0)
        matching = _matching_by_dimension(dg.block_dims, dh.block_dims)
        fast = _coefficient_transport(dg, dh, matching)
        assert np.abs(fast - loop_coefficient_transport(dg, dh, matching)).max() < 1e-12


def test_from_algebra_matches_trace_formula_off_the_image():
    g = symmetric_group(3)
    decomp = block_decompose(g, seed=0)
    rng = np.random.default_rng(14)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    blocks = decomp.from_algebra(m)
    for pi, d in enumerate(decomp.block_dims):
        for j in range(d):
            for k in range(d):
                literal = np.trace(decomp.unit_matrix(pi, k, j) @ m) / d
                assert abs(blocks[pi][j, k] - literal) < 1e-12


def test_block_count_mismatch_is_rejected():
    g = symmetric_group(3)
    decomp = block_decompose(g, seed=0)
    blocks = [np.eye(d, dtype=complex) for d in decomp.block_dims]
    for wrong in (blocks[:1], blocks + [np.eye(1)]):
        with pytest.raises(DimensionMismatch):
            decomp.to_coefficients(wrong)
        with pytest.raises(DimensionMismatch):
            decomp.to_algebra(wrong)


def test_unit_storage_is_quadratic():
    g = direct_product(symmetric_group(4), cyclic_group(2))
    decomp = block_decompose(g, seed=0)
    n = g.order
    assert sum(u.nbytes for u in decomp.units) <= 16 * n * n


def test_embedding_is_star_isomorphism():
    g = dihedral_group(4)
    decomp = block_decompose(g, seed=1)
    rng = np.random.default_rng(2)
    n = g.order
    for _ in range(50):
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        x, y = algebra_matrix(g, a), algebra_matrix(g, b)
        bx, by = decomp.from_algebra(x), decomp.from_algebra(y)
        bxy = decomp.from_algebra(x @ y)
        for pi in range(decomp.num_blocks):
            assert np.abs(bx[pi] @ by[pi] - bxy[pi]).max() < 1e-9
        bstar = decomp.from_algebra(x.conj().T)
        for pi in range(decomp.num_blocks):
            assert np.abs(bx[pi].conj().T - bstar[pi]).max() < 1e-9
        # round trip through the coordinates
        assert np.abs(decomp.to_algebra(bx) - x).max() < 1e-9
    unit_blocks = decomp.from_algebra(np.eye(n))
    for pi, d in enumerate(decomp.block_dims):
        assert np.abs(unit_blocks[pi] - np.eye(d)).max() < 1e-9


def test_homeo_identity_matching():
    g = quaternion_group()
    homeo = construct_affine_homeomorphism(g, g, seed=0)
    assert homeo.matching == (0, 1, 2, 3, 4)
    assert np.abs(homeo.forward_matrix - np.eye(8)).max() < 1e-9


def test_homeo_q8_d4_properties():
    q8, d4 = quaternion_group(), dihedral_group(4)
    homeo = construct_affine_homeomorphism(q8, d4, seed=0)
    rng = np.random.default_rng(3)
    for _ in range(50):
        fn = random_p1(q8, rng)
        image = homeo.forward(fn)
        assert is_positive_definite(image).is_psd
        assert abs(image.values[d4.identity] - 1.0) < 1e-9
        back = homeo.backward(image)
        assert np.abs(back.values - fn.values).max() < 1e-8
    # affinity
    f1, f2 = random_p1(q8, rng), random_p1(q8, rng)
    mix = convex_combine([0.4, 0.6], [f1, f2])
    lhs = homeo.forward(mix).values
    rhs = 0.4 * homeo.forward(f1).values + 0.6 * homeo.forward(f2).values
    assert np.abs(lhs - rhs).max() < 1e-9
    # isometry for the Fourier-algebra norm
    diff = GroupFunction(q8, f1.values - f2.values)
    image_diff = GroupFunction(d4, homeo.forward(f1).values - homeo.forward(f2).values)
    assert abs(a_norm(diff) - a_norm(image_diff)) < 1e-9


def test_homeo_maps_extreme_to_extreme():
    q8, d4 = quaternion_group(), dihedral_group(4)
    homeo = construct_affine_homeomorphism(q8, d4, seed=0)
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    rng = np.random.default_rng(4)
    # linear characters and random pure states of the 2-dim block
    samples = [GroupFunction(q8, table.char_values(pi)) for pi in range(4)]
    samples += [
        pure_state_function(decomp, 4, rng.normal(size=2) + 1j * rng.normal(size=2))
        for _ in range(5)
    ]
    for fn in samples:
        assert is_extreme(fn)
        assert is_extreme(homeo.forward(fn))


def test_homeo_rejects_nonisomorphic():
    with pytest.raises(NotIsomorphic):
        construct_affine_homeomorphism(symmetric_group(3), cyclic_group(6))


def test_homeo_group_descriptions():
    assert homeo_group_description(cyclic_group(5)).component_count == 120
    assert homeo_group_description(quaternion_group()).component_count == 48
    assert homeo_group_description(symmetric_group(3)).component_count == 4
    desc = homeo_group_description(symmetric_group(4))
    # m1 = 2, m2 = 1, m3 = 2: 2! * 1 * (1! * 2) * (2! * 2^2)
    assert desc.component_count == 2 * 2 * 8
    assert "PU(3) x Z/2" in desc.text()


def test_apply_identity_descriptor():
    g = dihedral_group(4)
    decomp = block_decompose(g, seed=0)
    desc = AffineHomeoDescriptor(
        tuple(range(5)),
        tuple(np.eye(d, dtype=complex) for d in decomp.block_dims),
        (False,) * 5,
    )
    rng = np.random.default_rng(5)
    fn = random_p1(g, rng)
    out = apply_descriptor(desc, fn, decomp)
    assert np.abs(out.values - fn.values).max() < 1e-9


def test_transpose_descriptor_fixes_class_functions():
    g = quaternion_group()
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    pi = table.dims.index(2)
    unitaries = tuple(
        np.eye(d, dtype=complex) for d in decomp.block_dims
    )
    flags = tuple(i == pi for i in range(5))
    desc = AffineHomeoDescriptor(tuple(range(5)), unitaries, flags)
    # class functions (mixtures of normalized characters) are fixed
    chars = [central_state_function(table, p) for p in range(5)]
    rng = np.random.default_rng(6)
    w = rng.dirichlet(np.ones(5))
    class_fn = convex_combine(w, chars)
    out = apply_descriptor(desc, class_fn, decomp)
    assert np.abs(out.values - class_fn.values).max() < 1e-9
    # a generic state moves but stays positive definite
    fn = random_p1(g, rng)
    moved = apply_descriptor(desc, fn, decomp)
    assert is_positive_definite(moved).is_psd
    assert np.abs(moved.values - fn.values).max() > 1e-6


def test_descriptor_inverse_roundtrip():
    g = dihedral_group(4)
    decomp = block_decompose(g, seed=1)
    rng = np.random.default_rng(7)
    for _ in range(10):
        desc = random_descriptor(decomp, rng)
        inv = inverse_descriptor(desc)
        fn = random_p1(g, rng)
        back = apply_descriptor(inv, apply_descriptor(desc, fn, decomp), decomp)
        assert np.abs(back.values - fn.values).max() < 1e-9


def test_descriptor_validation():
    g = dihedral_group(4)
    decomp = block_decompose(g, seed=0)
    with pytest.raises(DimensionMismatch):
        AffineHomeoDescriptor((1, 0), (np.eye(1),) * 3, (False,) * 3)
    # sigma must preserve dimensions
    with pytest.raises(DimensionMismatch):
        AffineHomeoDescriptor(
            (4, 1, 2, 3, 0),
            tuple(np.eye(d, dtype=complex) for d in decomp.block_dims),
            (False,) * 5,
        )
    # flags on 1-dim blocks are canonicalized away
    desc = AffineHomeoDescriptor(
        tuple(range(5)),
        tuple(np.eye(d, dtype=complex) for d in decomp.block_dims),
        (True, True, False, False, True),
    )
    assert desc.transpose == (False, False, False, False, True)


def test_verify_identity_map():
    g = quaternion_group()
    decomp = block_decompose(g, seed=0)
    desc = verify_jordan_form(lambda fn: fn, decomp, seed=1)
    assert desc.sigma == (0, 1, 2, 3, 4)
    assert desc.transpose == (False,) * 5
    for u in desc.unitaries:
        assert np.abs(u - np.eye(u.shape[0])).max() < 1e-7


@pytest.mark.parametrize("maker", [lambda: dihedral_group(4), quaternion_group])
def test_verify_recovers_random_descriptors(maker):
    g = maker()
    decomp = block_decompose(g, seed=2)
    rng = np.random.default_rng(8)
    for trial in range(10):
        desc = random_descriptor(decomp, rng)
        recovered = verify_jordan_form(
            lambda fn: apply_descriptor(desc, fn, decomp), decomp, seed=100 + trial
        )
        assert recovered.sigma == desc.sigma
        assert recovered.transpose == desc.transpose
        for pi in range(len(desc.sigma)):
            if decomp.block_dims[pi] == 1:
                continue
            expected = canonical_phase(desc.unitaries[pi])
            assert np.abs(expected - recovered.unitaries[pi]).max() < 1e-7


def test_verify_inner_automorphism_pushforward():
    g = quaternion_group()
    decomp = block_decompose(g, seed=3)
    conjugator = 2  # the element i

    def pushforward(fn):
        values = np.array(
            [
                fn(g.mul(g.mul(g.inv(conjugator), s), conjugator))
                for s in g.elements()
            ]
        )
        return GroupFunction(g, values)

    desc = verify_jordan_form(pushforward, decomp, seed=4)
    assert desc.sigma == (0, 1, 2, 3, 4)  # inner maps fix every block
    assert desc.transpose == (False,) * 5


def test_verify_rejects_nonaffine():
    g = cyclic_group(4)
    decomp = block_decompose(g, seed=0)

    def squash(fn):
        squared = fn.values * np.conj(fn.values)
        squared = squared / squared[g.identity]
        return GroupFunction(g, squared)

    with pytest.raises(NotAffine):
        verify_jordan_form(squash, decomp, seed=5)


def test_fit_affine_map_from_pairs_roundtrip():
    g = dihedral_group(4)
    decomp = block_decompose(g, seed=4)
    rng = np.random.default_rng(9)
    desc = random_descriptor(decomp, rng)
    pairs = []
    for _ in range(3 * g.order):
        fn = random_p1(g, rng)
        pairs.append((fn, apply_descriptor(desc, fn, decomp)))
    fitted = fit_affine_map_from_pairs(g, pairs)
    recovered = verify_jordan_form(fitted, decomp, seed=6)
    assert recovered.sigma == desc.sigma
    assert recovered.transpose == desc.transpose


def test_fit_affine_map_rejects_nonaffine_samples():
    g = cyclic_group(3)
    rng = np.random.default_rng(10)
    pairs = []
    for _ in range(12):
        fn = random_p1(g, rng)
        warped = fn.values * np.conj(fn.values)
        pairs.append((fn, GroupFunction(g, warped / warped[g.identity])))
    with pytest.raises(NotAffine):
        fit_affine_map_from_pairs(g, pairs)


def test_descriptor_map_satisfies_defining_equation():
    """(T phi)(s) equals the original state paired with the inverse Jordan
    image of lambda_s^*, computed on the algebra side."""
    g = dihedral_group(4)
    decomp = block_decompose(g, seed=6)
    rng = np.random.default_rng(13)
    desc = random_descriptor(decomp, rng)
    inv = inverse_descriptor(desc)
    fn = random_p1(g, rng)
    out = apply_descriptor(desc, fn, decomp)

    def push_algebra(d, mat):
        blocks = decomp.from_algebra(mat)
        pushed = [np.zeros((dd, dd), dtype=complex) for dd in decomp.block_dims]
        for pi, b in enumerate(blocks):
            u = d.unitaries[pi]
            body = b.T if d.transpose[pi] else b
            pushed[d.sigma[pi]] = u @ body @ u.conj().T
        return decomp.to_algebra(pushed)

    from groupstates import regular_representation
    from groupstates.groups import algebra_coefficients

    for s in g.elements():
        lam_star = regular_representation(g, g.inv(s))
        coeffs = algebra_coefficients(g, push_algebra(inv, lam_star))
        paired = np.sum(coeffs * fn.values[g.inverses])
        assert abs(paired - out(s)) < 1e-9


def test_apply_descriptor_preserves_a_norm_distances():
    g = quaternion_group()
    decomp = block_decompose(g, seed=5)
    rng = np.random.default_rng(12)
    desc = random_descriptor(decomp, rng)
    for _ in range(10):
        f1, f2 = random_p1(g, rng), random_p1(g, rng)
        before = a_norm(GroupFunction(g, f1.values - f2.values))
        g1 = apply_descriptor(desc, f1, decomp)
        g2 = apply_descriptor(desc, f2, decomp)
        after = a_norm(GroupFunction(g, g1.values - g2.values))
        assert abs(before - after) < 1e-9


def test_canonical_phase():
    rng = np.random.default_rng(11)
    u = random_unitary(rng, 3)
    phased = u * np.exp(0.7j)
    assert np.abs(canonical_phase(u) - canonical_phase(phased)).max() < 1e-12
    fixed = canonical_phase(u)
    assert abs(fixed[0, 0].imag) < 1e-12 and fixed[0, 0].real > 0
