import numpy as np
import pytest

from groupstates import (
    build_named,
    conjugacy_classes,
    cyclic_group,
    dihedral_group,
    direct_product,
    from_permutation_generators,
    quaternion_group,
    symmetric_group,
    validate_group,
)
from groupstates.errors import (
    IndexOutOfRange,
    NotAssociative,
    NotLatinSquare,
    SizeLimitExceeded,
)
from groupstates.groups import (
    algebra_matrix,
    convolve,
    generating_set,
    star,
)

from conftest import (
    algebra_coefficients,
    brute_force_conjugacy_classes,
    closure_generating_set,
    loop_convolve,
    membership_residual,
    regular_representation,
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
