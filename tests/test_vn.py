import functools
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstates import (
    AffineHomeoDescriptor,
    GroupFunction,
    a_norm,
    apply_descriptor,
    block_decompose,
    build_channel,
    canonical_phase,
    central_state_function,
    character_table,
    conjugacy_classes,
    constant_one,
    construct_affine_homeomorphism,
    convex_combine,
    cyclic_group,
    delta_e,
    dihedral_group,
    direct_product,
    fit_affine_map_from_pairs,
    homeo_group_description,
    is_extreme,
    is_positive_definite,
    minimal_central_projections,
    pure_state_function,
    quaternion_group,
    random_descriptor,
    random_hermitian_symmetric,
    random_p1,
    symmetric_group,
    verify_jordan_form,
    vn_invariant,
    vn_isomorphic,
)
from groupstates import vn
from groupstates.characters import CharacterTable
from groupstates.errors import (
    ConvergenceFailure,
    DecompositionFailure,
    DimensionMismatch,
    FitFailure,
    NotAffine,
    NotIsomorphic,
)
from groupstates.groups import algebra_matrix, build_named, cached_block_decomposition, validate_group
from groupstates.linalg import DEFAULT_TOL, Tolerance
from groupstates.vn import (
    BlockDecomposition,
    _matching_by_dimension,
    _verify_decomposition,
)

from conftest import (
    LADDER,
    algebra_coefficients,
    dense_block_decompose,
    dense_from_algebra,
    dense_to_algebra,
    inverse_descriptor,
    ladder_group,
    literal_ideal_rho,
    loop_apply_descriptor,
    loop_coefficient_transport,
    per_block_decompose,
    random_unitary,
    regular_representation,
    to_coefficients,
    unit_matrix,
)


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
        assert np.abs(unit_matrix(decomp, pi, 0, 0) - projs[pi].matrix).max() < 1e-12


@pytest.mark.parametrize("maker", [lambda: dihedral_group(4), lambda: symmetric_group(4)])
def test_block_decomposition_relations(maker):
    g = maker()
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    n = g.order
    units = [
        (pi, j, k, unit_matrix(decomp, pi, j, k))
        for pi, d in enumerate(decomp.block_dims)
        for j in range(d)
        for k in range(d)
    ]
    total = np.zeros((n, n), dtype=complex)
    for pi, j, k, e in units:
        assert np.abs(e.conj().T - unit_matrix(decomp, pi, k, j)).max() < 1e-9
        if j == k:
            total += e
    assert np.abs(total - np.eye(n)).max() < 1e-9
    for pi, j, k, e in units:
        for rho, l, m, f in units:
            expected = (
                unit_matrix(decomp, pi, j, m)
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
    e11 = unit_matrix(decomp, pi, 0, 0)
    e22 = unit_matrix(decomp, pi, 1, 1)
    e12 = unit_matrix(decomp, pi, 0, 1)
    e21 = unit_matrix(decomp, pi, 1, 0)
    assert np.abs(e11 + e22 - projs[pi].matrix).max() < 1e-9
    assert np.abs(e12 @ e21 - e11).max() < 1e-9


def test_block_decomposition_tau_of_diagonal_units():
    g = symmetric_group(4)
    decomp = block_decompose(g, seed=0)
    for pi, d in enumerate(decomp.block_dims):
        for j in range(d):
            tau = np.trace(unit_matrix(decomp, pi, j, j)).real / g.order
            assert abs(tau - d / g.order) < 1e-10


def test_block_decomposition_deterministic():
    g = quaternion_group()
    d1 = block_decompose(g, seed=5)
    d2 = block_decompose(g, seed=5)
    for pi in range(d1.num_blocks):
        assert np.array_equal(d1.units[pi], d2.units[pi])


def test_block_decompose_keeps_its_verified_result_on_the_group():
    g = quaternion_group()
    assert cached_block_decomposition(g) is None
    first = block_decompose(g, seed=1)
    assert g._kept["decomposition"] == (DEFAULT_TOL.residual_tol, first)
    assert cached_block_decomposition(g) is first
    # it always builds, and the group keeps the last one
    second = block_decompose(g, seed=1)
    assert second is not first and cached_block_decomposition(g) is second
    assert all(np.array_equal(a, b) for a, b in zip(first.units, second.units))


def test_table_verified_tighter_is_new_and_its_decomposition_built_on_it():
    q8 = quaternion_group()
    loose = character_table(q8, tol=Tolerance(residual_tol=1e-6))
    on_loose = vn.kept_block_decomposition(q8, DEFAULT_TOL, loose, 0)
    # asked for at a tighter tolerance, the table is built and kept again
    table = character_table(q8)
    assert table is not loose and character_table(q8) is table
    fresh = character_table(quaternion_group())
    assert table.dims == fresh.dims and table.chars.tobytes() == fresh.chars.tobytes()
    # the decomposition kept on the old table is not served for the new one
    decomp = vn.kept_block_decomposition(q8, DEFAULT_TOL, table, 0)
    assert decomp.table is table and decomp is not on_loose
    assert all(np.array_equal(a, b) for a, b in zip(decomp.units, on_loose.units))


def test_failed_verification_leaves_the_cache_alone(monkeypatch):
    g = symmetric_group(3)
    kept = block_decompose(g)

    def reject(decomp, tol):
        raise DecompositionFailure("rejected", witness={})

    monkeypatch.setattr(vn, "_verify_decomposition", reject)
    with pytest.raises(DecompositionFailure):
        block_decompose(g, seed=1)
    assert cached_block_decomposition(g) is kept


def test_decomposition_cache_does_not_keep_the_group_alive(collector_off):
    # the decomposition points back at the group weakly, so reference
    # counting alone frees both once nothing else holds the group
    g = symmetric_group(4)
    block_decompose(g)
    assert is_positive_definite(random_p1(g, np.random.default_rng(3))).is_psd
    ref = weakref.ref(g)
    del g
    assert ref() is None



def _diagonal_sum_residual(decomp, projections):
    """Largest deviation of sum_j e^pi_jj from p_pi over all blocks."""
    return max(
        float(np.abs(np.einsum("jjs->s", u) - p.coeffs).max())
        for u, p in zip(decomp.units, projections)
    )


@pytest.mark.parametrize(
    "maker",
    [
        lambda: symmetric_group(3),
        quaternion_group,
        lambda: dihedral_group(6),
        lambda: symmetric_group(4),
        lambda: direct_product(symmetric_group(4), cyclic_group(2)),
    ],
    ids=["S3", "Q8", "D6", "S4", "S4xZ2"],
)
def test_block_decompose_agrees_with_dense_construction(maker):
    """Units from one irreducible representation per block, from the
    same construction one block at a time in n space, and from the
    full-space spectral construction differ by a unitary per block: all
    pass verification, refine the same central projections and give every
    Hermitian element the same block spectra."""
    g = maker()
    table = character_table(g)
    projections = minimal_central_projections(g, table)
    built = [
        block_decompose(g, table, seed=0),
        per_block_decompose(g, table, seed=0),
        dense_block_decompose(g, table, seed=0),
    ]
    for decomp in built:
        _verify_decomposition(decomp, DEFAULT_TOL)
        assert _diagonal_sum_residual(decomp, projections) < 1e-10
    rng = np.random.default_rng(21)
    for _ in range(5):
        c = random_hermitian_symmetric(g, rng).values
        fast, *oracles = (decomp.block_spectra(c) for decomp in built)
        for oracle in oracles:
            for got, expected in zip(fast, oracle):
                assert np.abs(got - expected).max() < 1e-9


def test_block_decompose_s5_memory(s5):
    # one n x n matrix is 230 kB on S5; per-block n x n work peaks near 8 MB
    table = character_table(s5)
    tracemalloc.start()
    try:
        decomp = block_decompose(s5, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert decomp.block_dims == table.dims
    assert peak < 4 * 2**20


_SEED_GROUPS = {
    "S3": lambda: symmetric_group(3),
    "Q8": quaternion_group,
    "D6": lambda: dihedral_group(6),
    "S4": lambda: symmetric_group(4),
}


@functools.lru_cache(maxsize=None)
def _seed_zero_reference(name):
    """Group, seed-0 table and projections, one fixed Hermitian element and
    its seed-0 block spectra."""
    g = _SEED_GROUPS[name]()
    decomp = block_decompose(g, seed=0)
    coeffs = random_hermitian_symmetric(g, np.random.default_rng(31)).values
    projections = minimal_central_projections(g, decomp.table)
    return g, decomp.table, projections, coeffs, decomp.block_spectra(coeffs)


@pytest.mark.parametrize("name", sorted(_SEED_GROUPS))
@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_block_structure_is_stable_under_seed(name, seed):
    g, table, projections, coeffs, spectra = _seed_zero_reference(name)
    decomp = block_decompose(g, seed=seed)
    assert decomp.block_dims == table.dims
    assert _diagonal_sum_residual(decomp, projections) < 1e-10
    for got, expected in zip(decomp.block_spectra(coeffs), spectra):
        assert np.abs(got - expected).max() < 1e-9


@pytest.mark.parametrize("maker", [lambda: symmetric_group(3), lambda: symmetric_group(4), quaternion_group])
def test_block_decompose_rejects_scaled_character_row(maker):
    """A caller's table is checked through its central projections: one
    d >= 2 row scaled by 1 + 1e-3 is refused."""
    g = maker()
    table = character_table(g)
    rows = [pi for pi, d in enumerate(table.dims) if d >= 2]
    assert rows
    for pi in rows:
        chars = table.chars.copy()
        chars[pi] *= 1 + 1e-3
        tampered = CharacterTable(g, table.partition, table.dims, chars)
        with pytest.raises(ConvergenceFailure):
            block_decompose(g, tampered, seed=0)


@pytest.mark.parametrize(
    "build",
    [
        lambda decomp, table: pure_state_function(decomp, -1, np.ones(2)),
        lambda decomp, table: pure_state_function(decomp, decomp.num_blocks, np.ones(2)),
        lambda decomp, table: pure_state_function(decomp, 4, np.zeros(2)),
        lambda decomp, table: central_state_function(table, -1),
        lambda decomp, table: central_state_function(table, table.num_irreps),
    ],
    ids=["pure-negative", "pure-past-end", "pure-zero-vector", "central-negative", "central-past-end"],
)
def test_state_constructors_reject_bad_block_or_vector(build):
    g = quaternion_group()
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    with pytest.raises(ValueError, match="out of range|zero"):
        build(decomp, table)

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
        fast = dg._transport_to(dh, matching)
        assert np.abs(fast - loop_coefficient_transport(dg, dh, matching)).max() < 1e-12


def test_trace_formula_oracle_matches_from_coefficients():
    g = symmetric_group(3)
    decomp = block_decompose(g, seed=0)
    rng = np.random.default_rng(14)
    for _ in range(5):
        c = rng.normal(size=6) + 1j * rng.normal(size=6)
        literal = dense_from_algebra(decomp, algebra_matrix(g, c))
        for fast, slow in zip(decomp.from_coefficients(c), literal):
            assert np.abs(fast - slow).max() < 1e-12
        assert np.abs(dense_to_algebra(decomp, literal) - algebra_matrix(g, c)).max() < 1e-12


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
        bx, by = dense_from_algebra(decomp, x), dense_from_algebra(decomp, y)
        bxy = dense_from_algebra(decomp, x @ y)
        for pi in range(decomp.num_blocks):
            assert np.abs(bx[pi] @ by[pi] - bxy[pi]).max() < 1e-9
        bstar = dense_from_algebra(decomp, x.conj().T)
        for pi in range(decomp.num_blocks):
            assert np.abs(bx[pi].conj().T - bstar[pi]).max() < 1e-9
        # round trip through the coordinates
        assert np.abs(dense_to_algebra(decomp, bx) - x).max() < 1e-9
    unit_blocks = dense_from_algebra(decomp, np.eye(n))
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


@pytest.mark.parametrize("name", list(LADDER))
def test_stacked_descriptor_action_matches_the_block_loop(name):
    """The stacked action is bit for bit the per-block loop, transpose
    flags included, and the inverse descriptor undoes it."""
    g = ladder_group(name)
    decomp = block_decompose(g)
    rng = np.random.default_rng(19)
    flags = set()
    for _ in range(6):
        desc = random_descriptor(decomp, rng)
        flags.update(desc.transpose[pi] for pi, d in enumerate(decomp.block_dims) if d >= 2)
        fn = random_p1(g, rng)
        out = apply_descriptor(desc, fn, decomp)
        assert np.array_equal(out.values, loop_apply_descriptor(desc, fn, decomp).values)
        back = apply_descriptor(inverse_descriptor(desc), out, decomp)
        assert np.abs(back.values - fn.values).max() < 1e-9
    assert flags == {False, True}


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
    # the transform takes one vector (n,) or a stack of them, one per row
    for shape in [(9,), (3, 9), (3, 2, 8)]:
        for method in (decomp.forward, decomp.inverse):
            with pytest.raises(DimensionMismatch):
                method(np.ones(shape))


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


def _blockwise(decomp, edit):
    """The linear map that applies ``edit`` to the list of Fourier blocks."""
    def mapped(fn):
        blocks = decomp.from_coefficients(fn.values)
        edit(blocks)
        return GroupFunction(decomp.group, to_coefficients(decomp, blocks))
    return mapped


def test_verify_rejects_map_leaving_one_block():
    # phi -> phi/2 + delta_e/2 spreads every central state over all blocks
    g = symmetric_group(3)
    decomp = block_decompose(g, seed=0)
    e = delta_e(g).values
    with pytest.raises(FitFailure) as info:
        verify_jordan_form(lambda fn: GroupFunction(g, (fn.values + e) / 2), decomp, seed=1)
    assert set(info.value.witness) == {"block", "weights"}


def test_verify_rejects_non_permutation():
    # every central state goes to the trivial block
    g = cyclic_group(3)
    decomp = block_decompose(g, seed=0)
    with pytest.raises(FitFailure) as info:
        verify_jordan_form(lambda fn: constant_one(g), decomp, seed=2)
    assert set(info.value.witness) == {"sigma"}


def test_verify_rejects_dimension_change():
    # the weights of block 0 and of the 2-dimensional block trade places
    g = quaternion_group()
    decomp = block_decompose(g, seed=0)
    n, big = g.order, decomp.block_dims.index(2)

    def swap(blocks):
        w0 = blocks[0][0, 0].real / n
        w_big = 2 * np.trace(blocks[big]).real / n
        blocks[0] = np.array([[n * w_big]])
        blocks[big] = (n / 4) * w0 * np.eye(2)

    with pytest.raises(FitFailure) as info:
        verify_jordan_form(_blockwise(decomp, swap), decomp, seed=3)
    assert set(info.value.witness) == {"sigma", "dims"}


def test_verify_rejects_pinching():
    # B -> diag B inside the 2-dimensional block is neither u B u* nor u B^T u*
    g = symmetric_group(3)
    decomp = block_decompose(g, seed=0)
    big = decomp.block_dims.index(2)

    def pinch(blocks):
        blocks[big] = np.diag(np.diag(blocks[big]))

    with pytest.raises(FitFailure) as info:
        verify_jordan_form(_blockwise(decomp, pinch), decomp, seed=4)
    assert set(info.value.witness) == {"straight_residual", "transpose_residual"}


@pytest.mark.parametrize("name, calls", [("S3", 30), ("Q8", 32), ("D6", 36), ("S4", 48)])
def test_verify_calls_the_map_once_per_frame_state(name, calls, monkeypatch):
    # n calls read sigma and every block's frame, besides 3 per affinity
    # sample (two draws and their mixture), whose images the reproduction
    # check reuses; no per-block list layout is used
    g = ladder_group(name)
    decomp = block_decompose(g, seed=0)
    desc = random_descriptor(decomp, np.random.default_rng(11))
    seen = []

    def counted(fn):
        seen.append(fn)
        return apply_descriptor(desc, fn, decomp)

    def forbidden(*args, **kwargs):
        raise AssertionError("per-block list layout used")

    monkeypatch.setattr(BlockDecomposition, "from_coefficients", forbidden)
    fit = verify_jordan_form(counted, decomp, seed=12)
    assert fit.sigma == desc.sigma
    assert g.order + 3 * vn._AFFINITY_SAMPLES == calls
    assert len(seen) == calls


@pytest.mark.parametrize("kind", ["symmetric:3", "quaternion8", "dihedral:4", "dihedral:6", "symmetric:4"])
def test_fit_does_not_depend_on_its_probes(kind):
    """The seed only picks the affinity probes, and the descriptor is
    fitted from the frame images alone: seeds 0-4 give the same sigma and
    flags and bit for bit the same unitaries."""
    g = build_named(kind)
    decomp = block_decompose(g, seed=0)
    desc = random_descriptor(decomp, np.random.default_rng(23))
    fits = [
        verify_jordan_form(lambda f: apply_descriptor(desc, f, decomp), decomp, seed=s)
        for s in range(5)
    ]
    for fit in fits:
        assert (fit.sigma, fit.transpose) == (desc.sigma, desc.transpose)
        assert all(np.array_equal(u, v) for u, v in zip(fit.unitaries, fits[0].unitaries))
    for pi, d in enumerate(decomp.block_dims):
        if d >= 2:
            assert np.abs(fits[0].unitaries[pi] - canonical_phase(desc.unitaries[pi])).max() < 1e-7


def test_verify_rejects_a_map_that_leaks_off_diagonal_entries():
    # the real part of the off-diagonal entry of the 2-dimensional block
    # moves weight between the 1-dimensional blocks: every central state and
    # the block's own frame images are untouched, so only the reproduction
    # check on the affinity probes sees it
    g = symmetric_group(3)
    decomp = block_decompose(g, seed=0)
    big = decomp.block_dims.index(2)
    ones = [pi for pi, d in enumerate(decomp.block_dims) if d == 1]

    def leak(blocks):
        shift = 0.1 * blocks[big][0, 1].real
        blocks[ones[0]] = blocks[ones[0]] + shift
        blocks[ones[1]] = blocks[ones[1]] - shift

    with pytest.raises(FitFailure) as info:
        verify_jordan_form(_blockwise(decomp, leak), decomp, seed=2)
    assert set(info.value.witness) == {"residual"}


@pytest.mark.parametrize("name", ["Q8", "S4"])
def test_stacked_replay_matches_apply_descriptor(name):
    """The reproduction check's product on a stack of functions agrees with
    apply_descriptor one function at a time, to rounding."""
    g = ladder_group(name)
    decomp = block_decompose(g)
    rng = np.random.default_rng(29)
    desc = random_descriptor(decomp, rng)
    rows = np.stack([random_p1(g, rng).values for _ in range(5)])
    replay = decomp.inverse(desc._push(decomp.forward(rows)))
    for row, out in zip(rows, replay):
        expected = apply_descriptor(desc, GroupFunction(g, row), decomp).values
        assert np.abs(out - expected).max() < 1e-12


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
        blocks = dense_from_algebra(decomp, mat)
        pushed = [np.zeros((dd, dd), dtype=complex) for dd in decomp.block_dims]
        for pi, b in enumerate(blocks):
            u = d.unitaries[pi]
            body = b.T if d.transpose[pi] else b
            pushed[d.sigma[pi]] = u @ body @ u.conj().T
        return dense_to_algebra(decomp, pushed)

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


def _relabelled(group, seed):
    """The same group with its elements renamed by a seeded permutation."""
    perm = np.random.default_rng(seed).permutation(group.order)
    table = np.empty_like(group.cayley)
    table[np.ix_(perm, perm)] = perm[group.cayley]
    return validate_group(table)


@pytest.mark.parametrize(
    "maker",
    [lambda: symmetric_group(3), quaternion_group, lambda: dihedral_group(30), lambda: symmetric_group(5)],
)
def test_homeomorphism_on_kept_structure_matches_fresh_copies(maker, monkeypatch):
    g, h = maker(), _relabelled(maker(), 3)
    # the source keeps the table, projections and decomposition classify builds
    table = character_table(g, partition=conjugacy_classes(g))
    minimal_central_projections(g, table)
    block_decompose(g, table)
    construct_affine_homeomorphism(h, g)
    built = []
    real = vn.block_decompose

    def counted(group, *args, **kwargs):
        built.append(group)
        return real(group, *args, **kwargs)

    monkeypatch.setattr(vn, "block_decompose", counted)
    kept = construct_affine_homeomorphism(g, h)
    assert built == []
    fresh = construct_affine_homeomorphism(maker(), _relabelled(maker(), 3))
    assert built and kept.matching == fresh.matching
    assert np.array_equal(kept.forward_matrix, fresh.forward_matrix)
    assert np.array_equal(kept.backward_matrix, fresh.backward_matrix)


def test_homeomorphism_at_another_seed_builds_its_own_decomposition(monkeypatch):
    g, h = quaternion_group(), dihedral_group(4)
    construct_affine_homeomorphism(g, h, seed=0)
    built = []
    real = vn.block_decompose

    def counted(group, *args, **kwargs):
        built.append(kwargs.get("seed"))
        return real(group, *args, **kwargs)

    monkeypatch.setattr(vn, "block_decompose", counted)
    other = construct_affine_homeomorphism(g, h, seed=5)
    assert built == [5, 5]
    fresh = construct_affine_homeomorphism(quaternion_group(), dihedral_group(4), seed=5)
    assert np.array_equal(other.forward_matrix, fresh.forward_matrix)


def test_kept_structure_does_not_keep_the_group_alive(collector_off):
    g = symmetric_group(4)
    table = character_table(g)
    minimal_central_projections(g, table)
    construct_affine_homeomorphism(g, symmetric_group(4))
    assert "projections" in table._kept and "_conjugacy" in vars(g)
    refs = [weakref.ref(x) for x in (g, table, cached_block_decomposition(g))]
    del g, table
    assert all(ref() is None for ref in refs)


def test_dropped_group_is_freed_without_the_collector(collector_off):
    g = symmetric_group(4)
    table = character_table(g)
    projections = minimal_central_projections(g, table)
    decomp = block_decompose(g, table)
    state = random_p1(g, np.random.default_rng(5))
    assert is_positive_definite(state).is_psd
    channel = build_channel(state)
    homeo = construct_affine_homeomorphism(g, symmetric_group(4))
    kept = [g, table, decomp, table._kept["projections"][1], decomp._fourier]
    refs = [weakref.ref(x) for x in kept]
    del g, table, projections, decomp, state, channel, homeo, kept
    assert [ref() for ref in refs] == [None] * len(refs)


def test_orphaned_structure_raises_on_reading_its_group():
    table = character_table(symmetric_group(3))
    decomp = block_decompose(symmetric_group(3))
    for orphan, name in ((table, "CharacterTable"), (decomp, "BlockDecomposition")):
        with pytest.raises(ReferenceError, match=name):
            orphan.group
        assert "<freed group>" in repr(orphan)
    # another group with the table's structure still gets its projections
    g = symmetric_group(3)
    projections = minimal_central_projections(g, table)
    assert [p.group for p in projections] == [g] * table.num_irreps
    assert "projections" not in table._kept


def test_kept_structure_group_is_read_only():
    g = symmetric_group(3)
    decomp = block_decompose(g)
    with pytest.raises(AttributeError):
        decomp.group = symmetric_group(3)
    with pytest.raises(AttributeError):
        decomp.table.group = symmetric_group(3)
    assert decomp.group is g and decomp.table.group is g


@pytest.mark.parametrize("name", list(LADDER))
def test_chunked_rho_matches_one_gather(monkeypatch, name):
    # rho is formed one Cayley-graph layer at a time from its compressions
    # on the generators; on every ideal the decomposition builds it agrees
    # with the single n x n x d gather W^* lambda_s W to 1e-12
    seen = []
    real = vn._ideal_rho

    def spy(group, w, tree):
        rho = real(group, w, tree)
        seen.append(max(
            float(np.abs(r - literal_ideal_rho(group, wb)).max()) for r, wb in zip(rho, w)
        ))
        return rho

    monkeypatch.setattr(vn, "_ideal_rho", spy)
    g = ladder_group(name)
    decomp = block_decompose(g)
    # one call per attempt of each block dimension d >= 2
    assert len(seen) >= len({d for d in decomp.block_dims if d > 1})
    assert max(seen, default=0.0) < 1e-12


def test_block_spectra_read_one_dimensional_blocks_exactly():
    rng = np.random.default_rng(12)
    for g in (symmetric_group(4), dihedral_group(30)):
        decomp = block_decompose(g)
        for fn in (random_p1(g, rng), random_hermitian_symmetric(g, rng)):
            spectra = decomp.block_spectra(fn.values)
            for b, w in zip(decomp.from_coefficients(fn.values), spectra):
                symmetrized = (b + b.conj().T) / 2
                if b.shape == (1, 1):
                    assert np.array_equal(w, np.linalg.eigvalsh(symmetrized))
                else:
                    assert np.abs(w - np.linalg.eigvalsh(symmetrized)).max() < 1e-12


def test_fresh_construction_uses_no_n_space_helpers(monkeypatch):
    """A fresh group's table, projections and blocks form no n x n matrix:
    none of algebra_matrix, gram_matrix or check_projection is called."""
    from groupstates import characters, groups, posdef

    def refuse(*args, **kwargs):
        raise AssertionError("n-space helper called")

    for module in (groups, characters, vn, posdef):
        for name in ("algebra_matrix", "gram_matrix", "check_projection"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    for kind in ("symmetric:5", "dihedral:30", "product:symmetric:4,cyclic:2"):
        g = build_named(kind)
        table = character_table(g)
        minimal_central_projections(g, table)
        decomp = block_decompose(g, table)
        assert decomp.block_dims == table.dims


_RETRY_GROUPS = [
    "symmetric:3", "quaternion8", "dihedral:5", "dihedral:6", "symmetric:4",
    "product:symmetric:4,cyclic:2", "product:quaternion8,symmetric:3",
    "product:dihedral:4,cyclic:3", "dihedral:30", "symmetric:5",
]


@pytest.mark.parametrize("kind", _RETRY_GROUPS)
def test_decompositions_stay_within_the_retry_budget(kind, monkeypatch):
    """Eight seeds on each of ten groups, small ones included where a
    sketch of d^2 mixed translates is most often rank-deficient: every
    block is built within _MAX_RETRIES attempts, about one on average."""
    g = build_named(kind)
    table = character_table(g)
    attempts = []
    real = vn._block_range

    def counted(group, p, d, rng):
        attempts.append(len(p))
        return real(group, p, d, rng)

    monkeypatch.setattr(vn, "_block_range", counted)
    for seed in range(8):
        assert block_decompose(g, table, seed=seed).block_dims == table.dims
    blocks = 8 * sum(d > 1 for d in table.dims)
    assert blocks <= sum(attempts) < 1.5 * blocks


@pytest.mark.parametrize("kind", ["symmetric:4", "quaternion8", "dihedral:6"])
def test_fit_extracts_the_transposed_form_only_when_needed(kind, monkeypatch):
    """A descriptor without transposes costs one d^2 x d^2 eigh per block of
    dimension d >= 2; a transposed block costs a second, and is still
    recovered with its flag."""
    g = build_named(kind)
    decomp = block_decompose(g, seed=1)
    dims = decomp.block_dims
    rng = np.random.default_rng(4)
    unitaries = tuple(random_unitary(rng, d) for d in dims)
    big = [pi for pi, d in enumerate(dims) if d > 1]
    calls = []
    real = np.linalg.eigh

    def eigh(a, *args, **kwargs):
        calls.append(a.shape)
        return real(a, *args, **kwargs)

    monkeypatch.setattr(vn.np.linalg, "eigh", eigh)
    for flagged in ([], big[-1:], big):
        flags = tuple(pi in flagged for pi in range(len(dims)))
        desc = AffineHomeoDescriptor(tuple(range(len(dims))), unitaries, flags)
        calls.clear()
        fitted = verify_jordan_form(lambda fn: apply_descriptor(desc, fn, decomp), decomp, seed=2)
        assert fitted.transpose == flags
        assert sorted(calls) == sorted((dims[pi] ** 2,) * 2 for pi in big + flagged)
