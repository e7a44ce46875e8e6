import dataclasses
import json

import numpy as np
import pytest

from groupstates import (
    character_table,
    class_sum_structure_constants,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    minimal_central_projections,
    quaternion_group,
    symmetric_group,
    validate_group,
)
from groupstates.groups import ConjugacyPartition, convolve
from groupstates.jsonio import table_to_json

from conftest import (
    LADDER,
    builtin_catalog,
    ladder_group,
    regular_rep_dims_oracle,
    regular_representation,
    rounded_row_order,
)


def _structure_constants_convolution_oracle(group, partition):
    """Multiply class indicator vectors through the Cayley table and read
    off the coefficients; the independent path to the structure constants."""
    k = partition.num_classes
    out = np.zeros((k, k, k), dtype=np.int64)
    for i, ci in enumerate(partition.classes):
        a = np.zeros(group.order)
        a[list(ci)] = 1.0
        for j, cj in enumerate(partition.classes):
            b = np.zeros(group.order)
            b[list(cj)] = 1.0
            prod = convolve(group, a, b).real
            for l, rep in enumerate(partition.class_reps):
                out[i, j, l] = int(round(prod[rep]))
    return out


def test_structure_constants_identity_class():
    g = symmetric_group(3)
    part = conjugacy_classes(g)
    a = class_sum_structure_constants(g, part)
    k = part.num_classes
    assert np.array_equal(a[0], np.eye(k, dtype=np.int64))  # class {e} is the unit


def test_structure_constants_z2():
    g = cyclic_group(2)
    part = conjugacy_classes(g)
    a = class_sum_structure_constants(g, part)
    assert a[1, 1, 0] == 1


def test_structure_constants_s3_transpositions():
    g = symmetric_group(3)
    part = conjugacy_classes(g)
    a = class_sum_structure_constants(g, part)
    oracle = _structure_constants_convolution_oracle(g, part)
    assert np.array_equal(a, oracle)
    trans = part.class_sizes.index(3)
    cyc = part.class_sizes.index(2)
    assert a[trans, trans, 0] == 3
    assert a[trans, trans, cyc] == 3


def test_z4_table_is_dft():
    g = cyclic_group(4)
    table = character_table(g)
    assert table.dims == (1, 1, 1, 1)
    dft_rows = {
        tuple(np.round(np.exp(-2j * np.pi * j * np.arange(4) / 4), 8)) for j in range(4)
    }
    got_rows = {tuple(np.round(row, 8)) for row in table.chars}
    assert got_rows == dft_rows


@pytest.mark.parametrize(
    "maker,expected",
    [
        (lambda: symmetric_group(3), [1, 1, 2]),
        (quaternion_group, [1, 1, 1, 1, 2]),
        (lambda: symmetric_group(4), [1, 1, 2, 3, 3]),
    ],
)
def test_dims_match_regular_representation_oracle(maker, expected):
    g = maker()
    table = character_table(g)
    assert sorted(table.dims) == expected
    rng = np.random.default_rng(17)
    assert regular_rep_dims_oracle(g, rng) == expected


def test_table_invariants_on_catalog():
    for g in builtin_catalog(24):
        table = character_table(g)
        k = table.num_irreps
        sizes = np.array(table.class_sizes, dtype=float)
        gram = (table.chars * sizes) @ table.chars.conj().T / g.order
        assert np.abs(gram - np.eye(k)).max() < 1e-9, g.name
        assert sum(d * d for d in table.dims) == g.order
        assert list(table.dims) == sorted(table.dims)
        # chi(e) = d exactly after rounding
        e_class = table.partition.class_of[g.identity]
        assert np.abs(table.chars[:, e_class] - np.array(table.dims)).max() < 1e-9


def test_abelian_tables_are_all_linear():
    for n in (2, 3, 8, 15):
        table = character_table(cyclic_group(n))
        assert table.dims == (1,) * n


def test_product_table_is_tensor_of_tables():
    z2 = cyclic_group(2)
    g = direct_product(z2, z2)
    table = character_table(g)
    base = character_table(z2)
    lifted = {
        tuple(
            np.round(
                [
                    base.char_values(i)[s // 2] * base.char_values(j)[s % 2]
                    for s in range(4)
                ],
                8,
            )
        )
        for i in range(2)
        for j in range(2)
    }
    got = {tuple(np.round(table.char_values(p), 8)) for p in range(4)}
    assert got == lifted


def test_table_deterministic_given_seed():
    g = quaternion_group()
    t1 = character_table(g, seed=7)
    t2 = character_table(g, seed=7)
    assert json.dumps(table_to_json(t1), sort_keys=True) == json.dumps(
        table_to_json(t2), sort_keys=True
    )
    # canonical sorting makes the table stable across seeds as well
    t3 = character_table(g, seed=8)
    assert np.abs(t1.chars - t3.chars).max() < 1e-9


def test_projection_trivial_group():
    g = validate_group([[0]])
    projs = minimal_central_projections(g, character_table(g))
    assert len(projs) == 1
    assert np.allclose(projs[0].matrix, np.eye(1))


def test_projections_z2():
    g = cyclic_group(2)
    projs = minimal_central_projections(g, character_table(g))
    coeff_sets = {tuple(np.round(p.coeffs.real, 8)) for p in projs}
    assert coeff_sets == {(0.5, 0.5), (0.5, -0.5)}
    plus = [p for p in projs if p.coeffs[1].real > 0][0]
    v = np.array([1.0, 1.0]) / np.sqrt(2)
    assert np.abs(plus.matrix - np.outer(v, v)).max() < 1e-12


def test_projections_q8_ranks_and_resolution():
    g = quaternion_group()
    table = character_table(g)
    projs = minimal_central_projections(g, table)
    ranks = sorted(
        int(round(np.trace(p.matrix).real)) for p in projs
    )
    assert ranks == [1, 1, 1, 1, 4]
    total = sum(p.matrix for p in projs)
    assert np.abs(total - np.eye(8)).max() < 1e-10
    # centrality against the whole regular representation
    for p in projs:
        for s in g.elements():
            lam = regular_representation(g, s)
            assert np.abs(lam @ p.matrix - p.matrix @ lam).max() < 1e-10


def _count_table_and_projection_work(monkeypatch):
    """Counts the eigen-solves of the table build and the projection checks."""
    from groupstates import characters

    work = {"eig": 0, "check_projection": 0}
    real_eig, real_check = np.linalg.eig, characters.check_projection

    def eig(*args, **kwargs):
        work["eig"] += 1
        return real_eig(*args, **kwargs)

    def check(*args, **kwargs):
        work["check_projection"] += 1
        return real_check(*args, **kwargs)

    monkeypatch.setattr(characters.np.linalg, "eig", eig)
    monkeypatch.setattr(characters, "check_projection", check)
    return work


def test_second_table_and_projection_calls_do_no_work(monkeypatch):
    g = symmetric_group(4)
    work = _count_table_and_projection_work(monkeypatch)
    table = character_table(g)
    first = minimal_central_projections(g, table)
    assert work["eig"] >= 1 and work["check_projection"] == table.num_irreps
    done = dict(work)
    assert character_table(g) is table
    # an explicit partition equal to the group's own is the same call
    assert character_table(g, partition=conjugacy_classes(g)) is table
    again = minimal_central_projections(g, table)
    assert work == done
    # fresh projection objects over the verified coefficients, so a matrix
    # read from one of them is not pinned to the group
    first[0].matrix
    assert all(p is not q and np.array_equal(p.coeffs, q.coeffs) for p, q in zip(first, again))
    assert "matrix" not in vars(again[0])
    assert not again[0].coeffs.flags.writeable


def test_kept_table_and_projections_match_a_fresh_build():
    for make in (lambda: symmetric_group(4), quaternion_group, lambda: symmetric_group(5)):
        g, fresh = make(), make()
        for seed in (0, 7):
            table = character_table(g, seed=seed)
            minimal_central_projections(g, table)
            kept = character_table(g, seed=seed)
            built = character_table(fresh, seed=seed)
            assert kept.dims == built.dims and np.array_equal(kept.chars, built.chars)
            for p, q in zip(minimal_central_projections(g, kept),
                            minimal_central_projections(fresh, built)):
                assert np.array_equal(p.coeffs, q.coeffs)
            fresh = make()


def test_kept_table_is_not_served_across_seed_tolerance_or_group(monkeypatch):
    from groupstates.linalg import Tolerance

    g = quaternion_group()
    loose = Tolerance(residual_tol=1e-6)
    work = _count_table_and_projection_work(monkeypatch)

    def costs(call):
        before = dict(work)
        value = call()
        return value, {k: work[k] - before[k] for k in work}

    table, spent = costs(lambda: character_table(g, tol=loose))
    assert spent["eig"] >= 1
    # verified at a looser tolerance: the default tolerance builds again
    tight, spent = costs(lambda: character_table(g))
    assert spent["eig"] >= 1 and np.array_equal(tight.chars, table.chars)
    assert costs(lambda: character_table(g))[1]["eig"] == 0
    # another seed builds its own
    other_seed, spent = costs(lambda: character_table(g, seed=7))
    assert spent["eig"] >= 1 and other_seed is not tight
    # another group object with an equal table builds its own
    h = quaternion_group()
    other_group, spent = costs(lambda: character_table(h))
    assert spent["eig"] >= 1 and other_group.group is h
    # projections verified at a looser tolerance are verified again
    assert costs(lambda: minimal_central_projections(g, tight, loose))[1]["check_projection"] == 5
    assert costs(lambda: minimal_central_projections(g, tight))[1]["check_projection"] == 5
    assert costs(lambda: minimal_central_projections(g, tight, loose))[1]["check_projection"] == 0
    # a table of another group, or a copy of a kept one, is always verified
    assert costs(lambda: minimal_central_projections(h, tight))[1]["check_projection"] == 5
    assert costs(lambda: minimal_central_projections(h, tight))[1]["check_projection"] == 5
    copy = dataclasses.replace(tight)
    assert costs(lambda: minimal_central_projections(g, copy))[1]["check_projection"] == 5
    # a partition listing the classes in another order builds its own table
    part = conjugacy_classes(g)
    classes = part.classes[:1] + part.classes[:0:-1]
    class_of = np.empty(g.order, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_of[list(members)] = ci
    shuffled = ConjugacyPartition(
        classes, class_of, tuple(map(len, classes)), tuple(map(min, classes))
    )
    reordered, spent = costs(lambda: character_table(g, partition=shuffled))
    assert spent["eig"] >= 1 and reordered.partition is shuffled
    # it is returned, not kept: the group's own table and its verified
    # projections are still served
    again, spent = costs(lambda: character_table(g))
    assert again is tight and spent["eig"] == 0
    assert costs(lambda: minimal_central_projections(g, tight))[1]["check_projection"] == 0


def test_tables_and_projections_compare_and_hash_by_identity():
    g = symmetric_group(3)
    first, second = character_table(g, seed=0), character_table(g, seed=1)
    assert first == first and first != second
    assert len({first, second, first}) == 2
    p0, p1 = minimal_central_projections(g, first)[:2]
    assert p0 == p0 and p0 != p1
    assert len({p0, p1, p0}) == 2


@pytest.mark.parametrize("name", list(LADDER))
def test_irreps_are_ordered_by_their_scalar_rounded_rows(name):
    """The vectorised sort key orders the rows as the per-entry
    round(value, 8) key does, at several seeds."""
    g = ladder_group(name)
    for seed in (0, 3):
        table = character_table(g, seed=seed)
        assert rounded_row_order(table.dims, table.chars) == list(range(table.num_irreps))
