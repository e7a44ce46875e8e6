import json
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupstates import (
    block_decompose,
    build_channel,
    build_named,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    descriptor_from_projection,
    direct_product,
    from_permutation_generators,
    gns,
    is_completely_positive,
    is_extreme,
    is_positive_definite,
    minimal_central_projections,
    quaternion_group,
    symmetric_group,
    validate_group,
)
from groupstates.errors import (
    NotAssociative,
    NotLatinSquare,
    SizeLimitExceeded,
)
from groupstates.groups import (
    DEFAULT_CLOSURE_LIMIT,
    algebra_matrix,
    check_projection,
    convolve,
    generating_set,
    star,
)

from groupstates.characters import character_table
from groupstates.faces import _centrality_deviation
from groupstates.linalg import DEFAULT_TOL
from groupstates.posdef import random_hermitian_symmetric, random_p1

from conftest import (
    IndexOutOfRange,
    LADDER,
    PRODUCTS,
    algebra_coefficients,
    brute_force_conjugacy_classes,
    closure_generating_set,
    first_nonassociative_triple,
    identity_and_inverses,
    ladder_group,
    literal_algebra_matrix,
    literal_centrality_deviation,
    literal_gram_matrix,
    literal_random_p1,
    loop_convolve,
    membership_residual,
    model_group_table,
    regular_representation,
    tuple_permutation_closure,
)

# a Latin square with identity that is not a group (order-5 loop)
NONASSOC = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_validate_trivial():
    g = validate_group([[0]])
    assert g.order == 1 and g.identity == 0 and g.inv(0) == 0


def test_validate_z2():
    g = validate_group([[0, 1], [1, 0]])
    assert g.identity == 0
    assert list(g.inverses) == [0, 1]


def test_validate_rejects_repeated_entry():
    with pytest.raises(NotLatinSquare) as err:
        validate_group([[0, 1], [1, 1]])
    assert "row" in str(err.value) or "column" in str(err.value)


def test_validate_rejects_nonassociative_with_witness():
    with pytest.raises(NotAssociative) as err:
        validate_group(NONASSOC)
    triple = err.value.witness["triple"]
    a, b, c = triple
    t = np.array(NONASSOC)
    assert t[t[a, b], c] != t[a, t[b, c]]


def test_cyclic_4_is_abelian_with_singleton_classes():
    g = cyclic_group(4)
    assert g.is_abelian
    part = conjugacy_classes(g)
    assert part.class_sizes == (1, 1, 1, 1)


def test_quaternion_has_five_classes():
    g = quaternion_group()
    assert g.order == 8
    part = conjugacy_classes(g)
    assert sorted(part.class_sizes) == [1, 1, 2, 2, 2]
    assert tuple(part.classes) == tuple(brute_force_conjugacy_classes(g))


def test_dihedral_4_has_five_classes():
    g = dihedral_group(4)
    assert g.order == 8
    part = conjugacy_classes(g)
    assert sorted(part.class_sizes) == [1, 1, 2, 2, 2]
    assert tuple(part.classes) == tuple(brute_force_conjugacy_classes(g))


def test_s3_class_sizes():
    part = conjugacy_classes(symmetric_group(3))
    assert part.class_sizes == (1, 2, 3)


def test_symmetric_orders_and_limit():
    assert symmetric_group(3).order == 6
    assert symmetric_group(4).order == 24
    with pytest.raises(SizeLimitExceeded):
        symmetric_group(9)


def test_direct_product_z2_z3():
    g = direct_product(cyclic_group(2), cyclic_group(3))
    assert g.order == 6 and g.is_abelian
    assert conjugacy_classes(g).num_classes == 6


def test_build_named_kinds():
    assert build_named("cyclic:5").order == 5
    assert build_named("dihedral:4").order == 8
    assert build_named("quaternion8").name == "Q8"
    assert build_named("symmetric:3").order == 6
    assert build_named("product:cyclic:2,cyclic:2").order == 4
    with pytest.raises(ValueError):
        build_named("frobnitz:3")


def test_from_permutation_generators_identity():
    g = from_permutation_generators([(0, 1, 2)])
    assert g.order == 1


def test_from_permutation_generators_s3():
    g = from_permutation_generators([(1, 0, 2), (1, 2, 0)])
    assert g.order == 6
    # closure output revalidates cleanly
    revalidated = validate_group(g.cayley)
    assert revalidated.order == 6


def test_from_permutation_generators_4_cycle():
    g = from_permutation_generators([(1, 2, 3, 0)])
    assert g.order == 4 and g.is_abelian


def test_from_permutation_generators_cap():
    with pytest.raises(SizeLimitExceeded):
        from_permutation_generators([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], max_order=10)


def test_class_sizes_divide_order():
    for g in (symmetric_group(4), quaternion_group(), dihedral_group(6)):
        part = conjugacy_classes(g)
        assert sum(part.class_sizes) == g.order
        assert all(g.order % size == 0 for size in part.class_sizes)


def test_regular_representation_identity_element():
    g = quaternion_group()
    assert np.array_equal(regular_representation(g, g.identity), np.eye(8))


def test_regular_representation_z2_swap():
    g = cyclic_group(2)
    assert np.array_equal(
        regular_representation(g, 1), np.array([[0, 1], [1, 0]], dtype=complex)
    )


def test_regular_representation_is_homomorphism():
    g = symmetric_group(3)
    mats = [regular_representation(g, s) for s in g.elements()]
    for s in g.elements():
        for t in g.elements():
            assert np.array_equal(mats[s] @ mats[t], mats[g.mul(s, t)])
        assert np.array_equal(mats[s] @ mats[g.inv(s)], np.eye(6))
        assert np.array_equal(mats[s].conj().T, mats[g.inv(s)])


def test_regular_representation_range_check():
    with pytest.raises(IndexOutOfRange):
        regular_representation(cyclic_group(3), 3)


def test_generating_set_generates():
    for g in (quaternion_group(), symmetric_group(4), cyclic_group(12)):
        gens = generating_set(g)
        seen = {g.identity}
        frontier = [g.identity]
        while frontier:
            new = []
            for a in frontier:
                for s in gens:
                    for c in (g.mul(a, s), g.mul(s, a)):
                        if c not in seen:
                            seen.add(c)
                            new.append(c)
            frontier = new
        assert len(seen) == g.order


def test_generating_set_matches_closure_oracle():
    ladder = (
        symmetric_group(3), quaternion_group(), dihedral_group(6), symmetric_group(4),
        direct_product(symmetric_group(4), cyclic_group(2)), dihedral_group(30),
        symmetric_group(5), cyclic_group(1), cyclic_group(12),
    )
    for g in ladder:
        gens = generating_set(g)
        assert gens == closure_generating_set(g)
        # kept on the group; each caller gets its own list
        assert vars(g)["_generators"] == tuple(gens)
        gens.append(-1)
        assert generating_set(g) == closure_generating_set(g)


def test_algebra_matrix_and_convolution_agree():
    g = quaternion_group()
    rng = np.random.default_rng(5)
    a = rng.normal(size=8) + 1j * rng.normal(size=8)
    b = rng.normal(size=8) + 1j * rng.normal(size=8)
    prod = convolve(g, a, b)
    assert (
        np.abs(algebra_matrix(g, prod) - algebra_matrix(g, a) @ algebra_matrix(g, b)).max()
        < 1e-12
    )
    # adjoint corresponds to the star operation
    assert (
        np.abs(algebra_matrix(g, star(g, a)) - algebra_matrix(g, a).conj().T).max()
        < 1e-12
    )
    # coefficient extraction inverts the embedding
    assert np.abs(algebra_coefficients(g, algebra_matrix(g, a)) - a).max() < 1e-12
    assert membership_residual(g, algebra_matrix(g, a)) < 1e-12
    assert membership_residual(g, np.eye(8) + np.diag(np.arange(8.0))) > 0.5


def test_convolve_matches_loop_oracle(s3, q8, d4):
    rng = np.random.default_rng(9)
    for g in (s3, q8, d4, cyclic_group(5)):
        n = g.order
        a = rng.normal(size=n) + 1j * rng.normal(size=n)
        b = rng.normal(size=n) + 1j * rng.normal(size=n)
        a[rng.integers(n)] = 0.0  # the loop skips zero coefficients
        assert np.abs(convolve(g, a, b) - loop_convolve(g, a, b)).max() < 1e-12


def test_membership_residual_against_given_coefficients(z2):
    plus = np.array([0.5, 0.5])
    minus = np.array([0.5, -0.5])
    m = algebra_matrix(z2, plus)
    assert membership_residual(z2, m) == 0.0
    assert membership_residual(z2, m, plus) == 0.0
    assert membership_residual(z2, m, minus) == 1.0


@pytest.mark.parametrize(
    "build, kind, n",
    [(symmetric_group, "symmetric", n) for n in range(1, 7)]
    + [(dihedral_group, "dihedral", n) for n in range(1, 31)]
    + [(lambda _: quaternion_group(), "quaternion", None)],
)
def test_builders_match_the_model_tables(build, kind, n):
    g = build(n)
    table, labels = model_group_table(kind, n)
    identity, inverses = identity_and_inverses(table)
    assert np.array_equal(g.cayley, table)
    assert g.labels == labels
    assert g.identity == identity and g.inverses.tolist() == inverses


@pytest.mark.parametrize(
    "gens, order",
    [
        ([(1, 0, 2, 3), (1, 2, 3, 0)], 24),
        ([(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)], 120),
        # A4, a proper subgroup of S4
        ([(1, 2, 0, 3), (0, 2, 3, 1)], 12),
        # D20 on 20 points, past the int64 mixed-radix keys
        ([tuple((i + 1) % 20 for i in range(20)), tuple((-i) % 20 for i in range(20))], 40),
    ],
)
def test_permutation_closure_matches_the_tuple_closure(gens, order):
    g = from_permutation_generators(gens)
    elems, table = tuple_permutation_closure(gens)
    identity, inverses = identity_and_inverses(table)
    assert g.order == order
    assert np.array_equal(g.cayley, table)
    expected = tuple("".join(map(str, p)) for p in elems) if len(gens[0]) <= 10 else None
    assert g.labels == expected
    assert g.identity == identity == 0 and g.inverses.tolist() == inverses


def test_permutation_closure_cap_counts_every_element():
    # S4 has 24 elements: a cap of 24 admits it, 23 refuses it
    gens = [(1, 0, 2, 3), (1, 2, 3, 0)]
    assert from_permutation_generators(gens, max_order=24).order == 24
    with pytest.raises(SizeLimitExceeded):
        from_permutation_generators(gens, max_order=23)


def test_ladder_tables_pass_both_associativity_tests():
    ladder = (
        symmetric_group(3), quaternion_group(), dihedral_group(6), symmetric_group(4),
        direct_product(symmetric_group(4), cyclic_group(2)), dihedral_group(30),
        symmetric_group(5),
    )
    for g in ladder:
        assert first_nonassociative_triple(g.cayley) is None
        again = validate_group(g.cayley)
        assert again.identity == g.identity
        assert np.array_equal(again.inverses, g.inverses)


def _intercalates(table, identity):
    """(r1, r2, c1, c2) of every 2 x 2 subsquare [[a, b], [b, a]] off the
    identity's row and column: swapping a and b in it keeps a Latin square
    with the same identity."""
    n = len(table)
    others = [s for s in range(n) if s != identity]
    spots = []
    for i, r1 in enumerate(others):
        for r2 in others[i + 1:]:
            # sigma(c): the column where row r2 holds the value row r1 has at c
            where = np.argsort(table[r2])
            sigma = where[table[r1]]
            for c1 in others:
                c2 = int(sigma[c1])
                if c1 < c2 and c2 != identity and sigma[c2] == c1:
                    spots.append((r1, r2, c1, c2))
    return spots


_SWAP_TABLES = [
    (g.cayley, _intercalates(g.cayley, g.identity))
    for g in (
        cyclic_group(4), cyclic_group(6), cyclic_group(8),
        direct_product(cyclic_group(2), cyclic_group(2)), symmetric_group(3),
        quaternion_group(), dihedral_group(4), dihedral_group(6), symmetric_group(4),
    )
]


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_light_test_agrees_with_all_triples(data):
    table, spots = data.draw(st.sampled_from(_SWAP_TABLES))
    table = table.copy()
    if data.draw(st.booleans()):
        r1, r2, c1, c2 = data.draw(st.sampled_from(spots))
        table[[r1, r1, r2, r2], [c1, c2, c1, c2]] = table[[r1, r1, r2, r2], [c2, c1, c2, c1]]
    oracle = first_nonassociative_triple(table)
    if oracle is None:
        assert np.array_equal(validate_group(table).cayley, table)
    else:
        with pytest.raises(NotAssociative) as err:
            validate_group(table)
        x, a, y = err.value.witness["triple"]
        assert table[table[x, a], y] != table[x, table[a, y]]


def test_swapped_tables_include_both_verdicts():
    # the property above sees both verdicts
    verdicts = set()
    for table, spots in _SWAP_TABLES:
        for r1, r2, c1, c2 in spots[:3]:
            t = table.copy()
            t[[r1, r1, r2, r2], [c1, c2, c1, c2]] = t[[r1, r1, r2, r2], [c2, c1, c2, c1]]
            verdicts.add(first_nonassociative_triple(t) is None)
    assert verdicts == {True, False}


@pytest.mark.parametrize(
    "build, order",
    [
        (lambda: cyclic_group(10**12), 10**12),
        (lambda: dihedral_group(10**12), 2 * 10**12),
        (lambda: build_named("cyclic:1000000000000"), 10**12),
        # stand-ins with an order and nothing to gather: the limit must
        # fire before either table is read
        (lambda: direct_product(SimpleNamespace(order=10**6), SimpleNamespace(order=10**6)), 10**12),
        # 8! = 40320: refused before the permutations are listed
        (lambda: symmetric_group(8), 40320),
        (lambda: build_named("symmetric:8"), 40320),
        # 2n has 4301 digits, more than int-to-str conversion allows: the
        # witness gives its bit length instead
        (lambda: build_named("dihedral:" + "9" * 4300), None),
    ],
    ids=[
        "cyclic", "dihedral", "build_named", "direct_product", "symmetric",
        "build_named_symmetric", "dihedral_4300_nines",
    ],
)
def test_builders_refuse_orders_above_the_limit_before_allocating(build, order):
    with pytest.raises(SizeLimitExceeded) as info:
        build()
    if order is None:
        bits = (2 * (10**4300 - 1)).bit_length()
        assert info.value.witness == {"order_bits": bits, "limit": DEFAULT_CLOSURE_LIMIT}
        assert f"{bits} bits" in str(info.value)
    else:
        assert info.value.witness == {"order": order, "limit": DEFAULT_CLOSURE_LIMIT}
    json.dumps(info.value.witness)


@pytest.mark.parametrize(
    "build, degree",
    [
        (lambda: symmetric_group(9), 9),
        # 2000! has more digits than int-to-str allows, and 10^9! could not
        # be computed at all: both are refused without their factorial
        (lambda: symmetric_group(2000), 2000),
        (lambda: build_named("symmetric:1000000000"), 10**9),
    ],
    ids=["S9", "S2000", "build_named_S1e9"],
)
def test_symmetric_degrees_past_the_limit_are_refused_without_their_factorial(build, degree):
    with pytest.raises(SizeLimitExceeded) as info:
        build()
    # 8! = 40320 is the first factorial above the limit
    assert info.value.witness == {
        "degree": degree, "order_at_least": 40320, "limit": DEFAULT_CLOSURE_LIMIT,
    }
    assert "40320" in str(info.value)


def _relabelled_transpose(g, fn):
    """algebra_matrix(g, phi) with rows and columns relabelled by inversion,
    transposed: entry (j, k) is phi(k^-1 j), the Gram matrix."""
    return algebra_matrix(g, fn.values)[np.ix_(g.inverses, g.inverses)].T


@pytest.mark.parametrize("name", list(LADDER))
def test_readers_of_the_index_tables_match_their_literal_oracles(name):
    """algebra_matrix, the centrality deviation and seeded random_p1 give
    the per-call constructions' results bit for bit, and algebra_matrix
    relabelled by inversion and transposed is the Gram matrix."""
    g = ladder_group(name)
    rng = np.random.default_rng(31)
    c = rng.normal(size=g.order) + 1j * rng.normal(size=g.order)
    assert np.array_equal(algebra_matrix(g, c), literal_algebra_matrix(g, c))
    fn = random_hermitian_symmetric(g, rng)
    assert np.array_equal(_relabelled_transpose(g, fn), literal_gram_matrix(fn))
    # a class function (deviation 0) and a generic vector
    for coeffs in (character_table(g).char_values(1).astype(complex), c):
        assert _centrality_deviation(g, coeffs) == literal_centrality_deviation(g, coeffs)
    for seed in (0, 7):
        got = random_p1(g, np.random.default_rng(seed)).values
        assert np.array_equal(got, literal_random_p1(g, np.random.default_rng(seed)).values)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(PRODUCTS), seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_generated_products_gather_like_the_oracles_and_keep_no_n_by_n_index(kind, seed):
    """On a direct product of two small groups, algebra_matrix, random_p1
    and the centrality deviation equal their literal oracles bit for bit,
    and so does the Gram matrix read from algebra_matrix, a class function
    has deviation exactly 0, and after the whole pipeline the only n x n
    array the group holds is its Cayley table."""
    g = build_named(kind)
    n = g.order
    rng = np.random.default_rng(seed)
    c = rng.normal(size=n) + 1j * rng.normal(size=n)
    assert np.array_equal(algebra_matrix(g, c), literal_algebra_matrix(g, c))
    fn = random_hermitian_symmetric(g, rng)
    assert np.array_equal(_relabelled_transpose(g, fn), literal_gram_matrix(fn))
    assert _centrality_deviation(g, c) == literal_centrality_deviation(g, c)
    part = conjugacy_classes(g)
    k = part.num_classes
    class_fn = (rng.normal(size=k) + 1j * rng.normal(size=k))[part.class_of]
    assert _centrality_deviation(g, class_fn) == 0.0 == literal_centrality_deviation(g, class_fn)
    state = random_p1(g, np.random.default_rng(seed))
    assert np.array_equal(state.values, literal_random_p1(g, np.random.default_rng(seed)).values)

    table = character_table(g)
    projections = minimal_central_projections(g, table)
    decomp = block_decompose(g, table)
    assert sum(d * d for d in decomp.block_dims) == n
    # the round trip within n beta max|c|, beta the entry bound that
    # _verify_decomposition holds the transform to
    beta = 10 * DEFAULT_TOL.residual_tol
    assert np.abs(decomp.inverse(decomp.forward(c)) - c).max() <= n * beta * np.abs(c).max()
    # a stack of rows transforms as each row alone, to rounding: every
    # entry of the transform has modulus at most 1
    rows = np.stack([c, fn.values, state.values])
    one_by_one = np.stack([decomp.forward(row) for row in rows])
    bound = 4 * n * np.finfo(float).eps * np.abs(rows).sum(axis=1)
    assert (np.abs(decomp.forward(rows) - one_by_one).max(axis=1) <= bound).all()
    assert is_positive_definite(state).is_psd
    gns(state)
    is_extreme(state)
    assert is_completely_positive(build_channel(state)).verdict
    assert descriptor_from_projection(g, projections[0].coeffs).is_central
    square = [k for k, v in vars(g).items() if isinstance(v, np.ndarray) and v.shape == (n, n)]
    assert square == ["cayley"]


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_check_projection_rejects_non_finite_coefficients(s3, bad):
    """NaN and Inf are refused before any residual is formed, so neither
    check_projection nor a face descriptor lets them through."""
    coeffs = np.full(s3.order, bad)
    with pytest.raises(ValueError, match="NaN or Inf"):
        check_projection(s3, coeffs)
    with pytest.raises(ValueError, match="NaN or Inf"):
        descriptor_from_projection(s3, coeffs)
