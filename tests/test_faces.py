import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstates import (
    BlockDecomposition,
    DEFAULT_TOL,
    GroupFunction,
    block_decompose,
    block_face_chain,
    build_named,
    central_state_function,
    character_table,
    convex_combine,
    cyclic_group,
    delta_e,
    descriptor_from_projection,
    dihedral_group,
    direct_product,
    face_membership,
    maximal_chain_length,
    minimal_central_projections,
    pure_state_function,
    quaternion_group,
    random_p1,
    split_faces,
    state_decomposition,
    symmetric_group,
    to_state,
)
from groupstates.errors import (
    ConvergenceFailure,
    DimensionMismatch,
    GroupMismatch,
    NotCentral,
    SizeLimitExceeded,
)
from groupstates.faces import FaceDescriptor, _centrality_deviation
from groupstates.groups import (
    algebra_matrix,
    cached_block_decomposition,
    check_projection,
    generating_set,
)

from conftest import (
    algebra_coefficients,
    coefficient_face_chain,
    complementary_split_face,
    commutator_centrality_deviation,
    dense_projection_residuals,
    dense_state_decomposition,
    ladder_group,
    regular_representation,
    to_coefficients,
    unit_matrix,
)


def _face_supported_state(decomp, members, rng):
    """A random state supported exactly on the given blocks."""
    dims = decomp.block_dims
    fns = []
    for pi in members:
        v = rng.normal(size=dims[pi]) + 1j * rng.normal(size=dims[pi])
        fns.append(pure_state_function(decomp, pi, v))
    w = rng.dirichlet(np.ones(len(fns)))
    return to_state(convex_combine(w, fns))


def test_face_of_unit_contains_everything(q8):
    table = character_table(q8)
    faces = split_faces(q8, table)
    full = faces[-1]
    assert full.irreps == tuple(range(5))
    rng = np.random.default_rng(0)
    for _ in range(20):
        assert face_membership(full, to_state(random_p1(q8, rng)))


def test_face_of_zero_is_empty(q8):
    table = character_table(q8)
    empty = split_faces(q8, table)[0]
    assert empty.irreps == ()
    rng = np.random.default_rng(1)
    for _ in range(20):
        assert not face_membership(empty, to_state(random_p1(q8, rng)))


def test_z2_character_memberships(z2):
    table = character_table(z2)
    projs = minimal_central_projections(z2, table)
    plus = [p for p in projs if p.coeffs[1].real > 0][0]
    minus = [p for p in projs if p.coeffs[1].real < 0][0]
    face_plus = descriptor_from_projection(z2, plus.coeffs)
    face_minus = descriptor_from_projection(z2, minus.coeffs)
    chi = to_state(GroupFunction(z2, np.array([1.0, 1.0])))
    assert face_membership(face_plus, chi)
    assert not face_membership(face_minus, chi)
    # tol is keyword-only: a third positional argument is refused
    with pytest.raises(TypeError):
        descriptor_from_projection(z2, plus.coeffs, plus.matrix)


def test_split_faces_hold_no_dense_matrices():
    # 1024 faces on S4 x Z2 (n = 48); a dense matrix per face would be 37 MB
    g = direct_product(symmetric_group(4), cyclic_group(2))
    table = character_table(g)
    tracemalloc.start()
    try:
        faces = split_faces(g, table)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(faces) == 1024
    assert peak < 4 * 2**20


def test_face_membership_group_mismatch(z2, z3):
    table = character_table(z2)
    face = split_faces(z2, table)[-1]
    with pytest.raises(GroupMismatch):
        face_membership(face, to_state(delta_e(z3)))


def test_split_faces_counts(z2, q8):
    assert len(split_faces(z2, character_table(z2))) == 4
    faces = split_faces(q8, character_table(q8))
    assert len(faces) == 32
    minimal = [f for f in faces if f.irreps is not None and len(f.irreps) == 1]
    assert len(minimal) == 5
    for f in faces:
        assert f.is_central and f.is_split


def test_split_faces_size_limit():
    g = symmetric_group(2)
    table = character_table(g)

    class FakeTable:
        num_irreps = 25

    with pytest.raises(SizeLimitExceeded):
        split_faces(g, FakeTable())


def test_order_correspondence(q8):
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    faces = split_faces(q8, table)
    by_set = {f.irreps: f for f in faces}
    rng = np.random.default_rng(2)
    for members in [(0,), (1, 4), (0, 2, 3)]:
        state = _face_supported_state(decomp, members, rng)
        for other, face in by_set.items():
            if set(members) <= set(other):
                assert face_membership(face, state)


def test_disjointness_correspondence(q8):
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    faces = split_faces(q8, table)
    by_set = {f.irreps: f for f in faces}
    rng = np.random.default_rng(3)
    state = _face_supported_state(decomp, (0, 4), rng)
    for other, face in by_set.items():
        if other and not (set((0, 4)) & set(other)):
            assert not face_membership(face, state)
            # the pairing actually vanishes on disjoint faces
            assert abs(state.expectation(face.coeffs)) < 1e-9


def test_complement_involution(q8):
    table = character_table(q8)
    faces = split_faces(q8, table)
    face = faces[5]
    comp = complementary_split_face(face)
    assert np.abs(face.matrix + comp.matrix - np.eye(8)).max() < 1e-10
    again = complementary_split_face(comp)
    assert np.abs(again.matrix - face.matrix).max() < 1e-10
    assert np.abs(again.coeffs - face.coeffs).max() < 1e-10


def test_complement_of_full_is_empty(q8):
    table = character_table(q8)
    faces = split_faces(q8, table)
    comp = complementary_split_face(faces[-1])
    assert np.abs(comp.matrix).max() < 1e-12


def test_complement_of_two_dim_block_q8(q8):
    table = character_table(q8)
    faces = split_faces(q8, table)
    two_dim = table.dims.index(2)
    block_face = [f for f in faces if f.irreps == (two_dim,)][0]
    comp = complementary_split_face(block_face)
    abelian = [f for f in faces if f.irreps == (0, 1, 2, 3)][0]
    assert np.abs(comp.matrix - abelian.matrix).max() < 1e-9


def test_complement_requires_central(q8):
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    two_dim = table.dims.index(2)
    # a minimal (non-central) projection inside the 2-dim block
    mat = unit_matrix(decomp, two_dim, 0, 0)
    face = FaceDescriptor(
        q8, algebra_coefficients(q8, mat), mat, is_central=False, is_split=False
    )
    with pytest.raises(NotCentral):
        complementary_split_face(face)


def test_chain_lengths(z4, s3, d4, q8, s4):
    for g in (z4, s3, d4, q8, s4):
        table = character_table(g)
        decomp = block_decompose(g, table, seed=0)
        for pi, d in enumerate(table.dims):
            assert maximal_chain_length(g, table, pi, decomp=decomp) == d


def test_chain_lengths_share_one_decomposition(monkeypatch):
    # without a decomposition passed in, the chains of every block read the
    # one the group keeps once the first of them has built it
    from groupstates import vn

    calls = []
    real = vn.block_decompose

    def counted(*args, **kwargs):
        calls.append(args[0].order)
        return real(*args, **kwargs)

    monkeypatch.setattr(vn, "block_decompose", counted)
    s4 = symmetric_group(4)
    table = character_table(s4)
    lengths = [maximal_chain_length(s4, table, pi) for pi in range(table.num_irreps)]
    assert lengths == list(table.dims)
    assert len(calls) <= 1


def test_chain_structure_d4(d4):
    table = character_table(d4)
    decomp = block_decompose(d4, table, seed=0)
    pi = table.dims.index(2)
    chain = block_face_chain(decomp, pi)
    assert chain.length == 2
    assert chain.ranks == (2, 4)  # regular-representation ranks grow by d
    q1, q2 = (algebra_matrix(d4, q) for q in chain.projections)
    assert np.abs(q1 @ q2 - q1).max() < 1e-9


def test_state_decomposition_supported_case(q8):
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    faces = split_faces(q8, table)
    rng = np.random.default_rng(4)
    state = _face_supported_state(decomp, (0, 1), rng)
    face = [f for f in faces if f.irreps == (0, 1)][0]
    t, w1, w2 = state_decomposition(state, face)
    assert t == 1.0 and w2 is None
    assert np.abs(w1.coefficients - state.coefficients).max() < 1e-12


def test_state_decomposition_tracial_z2(z2):
    table = character_table(z2)
    projs = minimal_central_projections(z2, table)
    plus = [p for p in projs if p.coeffs[1].real > 0][0]
    face = descriptor_from_projection(z2, plus.coeffs)
    t, w1, w2 = state_decomposition(to_state(delta_e(z2)), face)
    assert abs(t - 0.5) < 1e-12
    assert np.abs(w1.coefficients - np.array([1.0, 1.0])).max() < 1e-10
    assert np.abs(w2.coefficients - np.array([1.0, -1.0])).max() < 1e-10


def test_state_decomposition_reconstruction(q8):
    table = character_table(q8)
    faces = split_faces(q8, table)
    rng = np.random.default_rng(5)
    for _ in range(50):
        state = to_state(random_p1(q8, rng))
        face = faces[int(rng.integers(1, 31))]
        t, w1, w2 = state_decomposition(state, face)
        if w1 is None or w2 is None:
            continue
        recon = t * w1.coefficients + (1 - t) * w2.coefficients
        assert np.abs(recon - state.coefficients).max() < 1e-10
        assert face_membership(face, w1)
        assert face_membership(complementary_split_face(face), w2)


def test_state_decomposition_requires_central(q8):
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    two_dim = table.dims.index(2)
    mat = unit_matrix(decomp, two_dim, 0, 0)
    face = FaceDescriptor(
        q8, algebra_coefficients(q8, mat), mat, is_central=False, is_split=False
    )
    rng = np.random.default_rng(6)
    with pytest.raises(NotCentral):
        state_decomposition(to_state(random_p1(q8, rng)), face)


def test_complement_is_unique_free_partner(s3):
    """Among all central projections, only 1 - p pairs with p so that every
    state splits across the two faces: for any other candidate q the masses
    omega(p) + omega(q) miss 1 on a full-support state."""
    table = character_table(s3)
    faces = split_faces(s3, table)
    rng = np.random.default_rng(8)
    # a state with strictly positive weight on every block
    state = to_state(
        convex_combine(
            [1 / 3] * 3,
            [central_state_function(table, pi) for pi in range(3)],
        )
    )
    p_face = [f for f in faces if f.irreps == (0, 2)][0]
    partners = []
    for cand in faces:
        # a free partner must be disjoint from p and account for the
        # remaining mass of every state; the full-support state kills all
        # candidates that miss a block
        disjoint = np.abs(p_face.matrix @ cand.matrix).max() < 1e-9
        mass = (
            state.expectation(p_face.coeffs) + state.expectation(cand.coeffs)
        ).real
        if disjoint and abs(mass - 1.0) < 1e-9:
            partners.append(cand.irreps)
    assert partners == [(1,)]


def test_nonisomorphic_groups_have_different_face_data(s3):
    """The combinatorial face data (minimal split face count, chain lengths)
    separates groups with different invariants."""
    z6 = __import__("groupstates").cyclic_group(6)
    data = {}
    for g in (s3, z6):
        table = character_table(g)
        decomp = block_decompose(g, table, seed=0)
        lengths = sorted(
            maximal_chain_length(g, table, pi, decomp=decomp)
            for pi in range(table.num_irreps)
        )
        data[g.name] = (table.num_irreps, tuple(lengths))
    assert data["S3"] != data["Z6"]
    assert data["S3"] == (3, (1, 1, 2))
    assert data["Z6"] == (6, (1, 1, 1, 1, 1, 1))


def test_faces_are_convex(q8):
    table = character_table(q8)
    decomp = block_decompose(q8, table, seed=0)
    faces = split_faces(q8, table)
    face = [f for f in faces if f.irreps == (2, 4)][0]
    rng = np.random.default_rng(7)
    s1 = _face_supported_state(decomp, (2, 4), rng)
    s2 = _face_supported_state(decomp, (2, 4), rng)
    mix = to_state(
        convex_combine([0.3, 0.7], [GroupFunction(q8, s1.coefficients), GroupFunction(q8, s2.coefficients)])
    )
    assert face_membership(face, mix)


SPLIT_LADDER = ["S3", "Q8", "D6", "S4"]


def _split_oracle_pairs(state, face):
    """state_decomposition of ``state`` across ``face`` beside the dense
    p D p / q D q oracle's split, component by component."""
    t, w1, w2 = state_decomposition(state, face)
    t_ref, c1, c2 = dense_state_decomposition(state, face)
    return t, t_ref, ((w1, c1), (w2, c2))


@pytest.mark.parametrize("name", SPLIT_LADDER)
def test_state_decomposition_matches_dense_oracle(name):
    """The split matches the dense oracle over random states and every
    split face, to 1e-12, starting from a fresh group."""
    group = ladder_group(name)
    faces = split_faces(group, character_table(group))
    rng = np.random.default_rng(11)
    states = [to_state(random_p1(group, rng)) for _ in range(3)]
    for state in states:
        for face in faces:
            t, t_ref, pairs = _split_oracle_pairs(state, face)
            assert abs(t - t_ref) < 1e-12
            for got, ref in pairs:
                assert (got is None) == (ref is None)
                if got is not None:
                    assert np.abs(got.coefficients - ref).max() < 1e-12


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(SPLIT_LADDER),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    face_index=st.integers(min_value=0),
)
def test_split_does_not_depend_on_what_the_group_keeps(name, seed, face_index):
    """A fresh group, which builds and keeps a decomposition on the first
    split, and a copy that ran block_decompose(seed=0) before, split a
    random state across the same face with bit-identical t and
    components, both within 1e-12 of the dense oracle."""
    fresh, kept = ladder_group(name), ladder_group(name)
    block_decompose(kept, seed=0)
    assert cached_block_decomposition(fresh) is None
    values = random_p1(fresh, np.random.default_rng(seed)).values
    splits = []
    for group in (fresh, kept):
        faces = split_faces(group, character_table(group))
        face = faces[face_index % len(faces)]
        splits.append(_split_oracle_pairs(to_state(GroupFunction(group, values)), face))
    (t, t_ref, pairs), (t_kept, _, kept_pairs) = splits
    assert t_kept == t == t_ref
    for (got, ref), (other, _) in zip(pairs, kept_pairs):
        assert (got is None) == (ref is None) == (other is None)
        if got is not None:
            assert got.coefficients.tobytes() == other.coefficients.tobytes()
            assert np.abs(got.coefficients - ref).max() < 1e-12


def test_state_decomposition_routes_agree_on_s5():
    """On S5 the split matches the dense oracle, t exactly and the
    components to 1e-12, on every minimal split face and some unions."""
    group = symmetric_group(5)
    faces = split_faces(group, character_table(group))
    rng = np.random.default_rng(12)
    for _ in range(2):
        state = to_state(random_p1(group, rng))
        for mask in (1, 2, 4, 8, 16, 32, 64, 5, 42, 99, 126):
            t, t_ref, pairs = _split_oracle_pairs(state, faces[mask])
            assert t == t_ref
            for got, ref in pairs:
                assert (got is None) == (ref is None)
                if got is not None:
                    assert np.abs(got.coefficients - ref).max() < 1e-12


# What the group holds when the split is called: only its coefficient
# data (a fresh group, so the split builds the decomposition itself), or
# a decomposition kept from an earlier block_decompose.
SPLIT_STARTS = ("coefficients", "blocks")


def _group_from(name, start):
    """A fresh ``name`` group holding what ``start`` of SPLIT_STARTS says."""
    group = ladder_group(name)
    if start == "blocks":
        block_decompose(group, seed=0)
    assert (cached_block_decomposition(group) is None) == (start == "coefficients")
    return group


@pytest.mark.parametrize("start", SPLIT_STARTS)
def test_state_decomposition_rejects_a_non_central_face(start):
    """A diagonal matrix unit of the 2-dimensional block of Q8 is a
    projection but not central.  The unit comes from another copy of Q8,
    so on the "coefficients" start the split builds the group's
    decomposition itself."""
    group = _group_from("Q8", start)
    other = quaternion_group()
    decomp = block_decompose(other, character_table(other), seed=0)
    unit = decomp.units[decomp.block_dims.index(2)][0, 0]
    face = descriptor_from_projection(group, unit)
    assert not face.is_central
    state = to_state(random_p1(group, np.random.default_rng(6)))
    with pytest.raises(NotCentral) as info:
        state_decomposition(state, face)
    assert set(info.value.witness) == {"deviation"}


@pytest.mark.parametrize("start", SPLIT_STARTS)
def test_state_decomposition_rejects_half_a_central_projection(start):
    """0.5 p_pi is central but not a projection: its block pi is I / 2."""
    group = _group_from("S3", start)
    table = character_table(group)
    pi = table.dims.index(2)
    half = 0.5 * minimal_central_projections(group, table)[pi].coeffs
    face = FaceDescriptor(group, half, None, is_central=True, is_split=True)
    state = to_state(
        convex_combine(
            [0.5, 0.5], [central_state_function(table, 0), central_state_function(table, pi)]
        )
    )
    assert abs(state.expectation(half).real - 0.25) < 1e-12
    with pytest.raises(ConvergenceFailure):
        state_decomposition(state, face)


def test_descriptor_leaves_the_callers_array_writable(s3):
    coeffs = minimal_central_projections(s3, character_table(s3))[0].coeffs.astype(complex)
    assert coeffs.flags.writeable
    face = descriptor_from_projection(s3, coeffs)
    assert coeffs.flags.writeable and not face.coeffs.flags.writeable
    coeffs[0] += 1.0
    assert face.coeffs[0] != coeffs[0]


def test_direct_descriptor_leaves_the_callers_arrays_writable(s3):
    p = minimal_central_projections(s3, character_table(s3))[2]
    coeffs, matrix = p.coeffs.copy(), p.matrix.copy()
    face = FaceDescriptor(s3, coeffs, matrix, True, True, irreps=p.irreps)
    assert coeffs.flags.writeable and matrix.flags.writeable
    assert not face.coeffs.flags.writeable and not face.matrix.flags.writeable
    coeffs[:] = 0.0
    matrix[:] = 0.0
    assert np.array_equal(face.coeffs, p.coeffs) and np.array_equal(face.matrix, p.matrix)
    # read-only arrays are kept as they are, not copied
    kept = FaceDescriptor(s3, p.coeffs, p.matrix, True, True, irreps=p.irreps)
    assert kept.coeffs is p.coeffs and kept.matrix is p.matrix


def test_split_faces_share_one_read_only_base(q8):
    faces = split_faces(q8, character_table(q8))
    base = faces[0].coeffs.base
    assert base is not None and not base.flags.writeable
    assert all(f.coeffs.base is base for f in faces)


def test_coefficient_centrality_matches_commutators(q8, s3):
    """The class-function deviation equals the largest commutator entry with
    the regular representation over the whole group, and decides centrality
    as the commutators with a generating set do."""
    def generator_deviation(group, matrix):
        return max(
            float(np.abs(lam @ matrix - matrix @ lam).max())
            for lam in (regular_representation(group, s) for s in generating_set(group))
        )

    cases = []
    for group in (q8, s3):
        table = character_table(group)
        cases += [(group, f.coeffs, True) for f in split_faces(group, table)]
    decomp = block_decompose(q8, character_table(q8), seed=0)
    two_dim = decomp.block_dims.index(2)
    cases.append((q8, decomp.units[two_dim][0, 0], False))  # the unit e_00
    for group, coeffs, central in cases:
        matrix = algebra_matrix(group, coeffs)
        dev = _centrality_deviation(group, np.asarray(coeffs, dtype=complex))
        assert abs(dev - commutator_centrality_deviation(group, matrix)) < 1e-12
        assert (dev <= 1e-8) == central
        assert (generator_deviation(group, matrix) <= 1e-8) == central


def test_block_face_chain_rejects_out_of_range_irrep(s3):
    decomp = block_decompose(s3, character_table(s3), seed=0)
    for pi in (9, decomp.num_blocks, -1):
        with pytest.raises(ValueError, match="out of range"):
            block_face_chain(decomp, pi)


def _non_hermitian_idempotent(group):
    """e_00 + e_01 in the first block of dimension 2: idempotent, not
    self-adjoint."""
    decomp = block_decompose(group, character_table(group), seed=0)
    pi = decomp.block_dims.index(2)
    blocks = [np.zeros((d, d), dtype=complex) for d in decomp.block_dims]
    blocks[pi][0, :] = 1.0
    return to_coefficients(decomp, blocks)


def test_descriptor_rejects_non_projections(s3):
    twice = 2.0 * delta_e(s3).values
    with pytest.raises(ConvergenceFailure) as info:
        descriptor_from_projection(s3, twice)
    assert info.value.witness == {"hermitian_residual": 0.0, "idempotent_residual": 2.0}

    with pytest.raises(ConvergenceFailure) as info:
        descriptor_from_projection(s3, _non_hermitian_idempotent(s3))
    witness = info.value.witness
    assert set(witness) == {"hermitian_residual", "idempotent_residual"}
    assert witness["hermitian_residual"] > 0.1 and witness["idempotent_residual"] < 1e-12


@pytest.mark.parametrize("length", [3, 9])
@pytest.mark.parametrize(
    "check",
    [check_projection, descriptor_from_projection],
    ids=["check_projection", "descriptor_from_projection"],
)
def test_projection_check_rejects_wrong_coefficient_length(s3, check, length):
    with pytest.raises(DimensionMismatch) as info:
        check(s3, np.ones(length))
    assert info.value.witness == {"shape": [length], "order": 6}


def _coefficient_residuals(group, coeffs):
    try:
        return check_projection(group, coeffs)
    except ConvergenceFailure as exc:
        return exc.witness["hermitian_residual"], exc.witness["idempotent_residual"]


@pytest.mark.parametrize("name", ["s3", "q8", "d4"])
def test_projection_check_matches_dense_oracle(name, request):
    """The coefficient residuals equal the max-abs entries of the n x n
    residual matrices, on projections and non-projections alike, and the
    chain ranks read from the trace equal the eigenvalue count."""
    group = request.getfixturevalue(name)
    table = character_table(group)
    decomp = block_decompose(group, table, seed=0)
    rng = np.random.default_rng(15)
    candidates = [p.coeffs for p in minimal_central_projections(group, table)]
    candidates += [f.coeffs for f in split_faces(group, table)]
    candidates += [2.0 * delta_e(group).values, _non_hermitian_idempotent(group)]
    candidates.append(rng.normal(size=group.order) + 1j * rng.normal(size=group.order))
    for coeffs in candidates:
        herm, idem, _ = dense_projection_residuals(algebra_matrix(group, coeffs))
        fast = _coefficient_residuals(group, coeffs)
        assert abs(fast[0] - herm) < 1e-12 and abs(fast[1] - idem) < 1e-12
    for pi in range(decomp.num_blocks):
        chain = block_face_chain(decomp, pi)
        for coeffs, rank in zip(chain.projections, chain.ranks):
            herm, idem, dense_rank = dense_projection_residuals(algebra_matrix(group, coeffs))
            fast = _coefficient_residuals(group, coeffs)
            assert abs(fast[0] - herm) < 1e-12 and abs(fast[1] - idem) < 1e-12
            assert rank == dense_rank


@pytest.mark.parametrize("name", ["S3", "Q8", "D4", "D6", "S4", "S4xZ2", "D30", "S5"])
def test_chain_matches_the_coefficient_oracle(name):
    """The chain certified in the block image is the chain the coefficient
    oracle certifies one element at a time with check_projection and
    convolve: the same projections and ranks, bit for bit, and every
    Hermitian, idempotent and order residual of the dense n-space checks
    within residual_tol, at two decomposition seeds."""
    g = dihedral_group(4) if name == "D4" else ladder_group(name)
    table = character_table(g)
    for seed in (0, 7):
        decomp = block_decompose(g, table, seed=seed)
        for pi, d in enumerate(decomp.block_dims):
            chain = block_face_chain(decomp, pi)
            projections, ranks, residuals = coefficient_face_chain(decomp, pi)
            assert chain.length == d and chain.ranks == tuple(ranks)
            for got, want in zip(chain.projections, projections):
                assert got.tobytes() == want.tobytes()
            assert max(residuals) <= DEFAULT_TOL.residual_tol


def test_chain_is_certified_without_n_space_products(monkeypatch):
    """block_face_chain builds no regular-representation matrix and calls
    neither convolve nor check_projection, and maximal_chain_length reads
    no per-element blocks through from_coefficients."""
    from groupstates import faces, groups, vn

    def forbidden(name):
        def fail(*args, **kwargs):
            raise AssertionError(f"{name} called")
        return fail

    g = symmetric_group(4)
    table = character_table(g)
    decomp = block_decompose(g, table, seed=0)
    for name in ("algebra_matrix", "check_projection"):
        monkeypatch.setattr(faces, name, forbidden(name))
    monkeypatch.setattr(groups, "convolve", forbidden("convolve"))
    monkeypatch.setattr(vn.BlockDecomposition, "from_coefficients", forbidden("from_coefficients"))
    for pi, d in enumerate(table.dims):
        assert maximal_chain_length(g, table, pi, decomp=decomp) == d
        assert block_face_chain(decomp, pi).length == d


def _edited_decomposition(decomp, edit):
    units = [u.copy() for u in decomp.units]
    edit(units)
    return BlockDecomposition(decomp.group, decomp.table, units, decomp.seed)


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_chain_rejects_a_scaled_diagonal_unit(dim):
    """One diagonal unit scaled by 1.01 is no longer idempotent in the
    block image, whatever its position in the chain."""
    g = symmetric_group(4)
    decomp = block_decompose(g, character_table(g), seed=0)
    pi = decomp.block_dims.index(dim)

    def scale(units):
        units[pi][dim - 1, dim - 1] *= 1.01

    with pytest.raises(ConvergenceFailure) as info:
        block_face_chain(_edited_decomposition(decomp, scale), pi)
    assert info.value.witness["idempotent_residual"] > 1e-3


def test_chain_rejects_leakage_into_another_block():
    g = symmetric_group(4)
    decomp = block_decompose(g, character_table(g), seed=0)
    pi, other = decomp.block_dims.index(2), decomp.block_dims.index(3)

    def pollute(units):
        units[pi][0, 0] += 1e-6 * units[other][1, 1]

    with pytest.raises(ConvergenceFailure) as info:
        block_face_chain(_edited_decomposition(decomp, pollute), pi)
    assert info.value.witness == {"block": other}


@pytest.mark.parametrize("name", ["S3", "Q8", "D4", "D6", "S4", "S4xZ2", "S5", "Z12"])
def test_split_faces_are_the_subset_sums(name):
    """Each split face's coefficients are the sum from zero of its minimal
    central projections in index order, bit for bit, for every subset."""
    kinds = {"D4": "dihedral:4", "Z12": "cyclic:12"}
    g = build_named(kinds[name]) if name in kinds else ladder_group(name)
    table = character_table(g)
    minimal = minimal_central_projections(g, table)
    faces = split_faces(g, table)
    assert len(faces) == 2 ** table.num_irreps
    for mask, face in enumerate(faces):
        members = tuple(pi for pi in range(table.num_irreps) if mask >> pi & 1)
        coeffs = np.zeros(g.order, dtype=complex)
        for pi in members:
            coeffs = coeffs + minimal[pi].coeffs
        assert face.irreps == members and face.is_split and face.is_central
        assert face.coeffs.tobytes() == coeffs.tobytes()
