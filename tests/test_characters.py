import dataclasses
import json

import numpy as np
import pytest

from groupstates import (
    FaceDescriptor,
    character_table,
    class_sum_structure_constants,
    conjugacy_classes,
    cyclic_group,
    direct_product,
    minimal_central_projections,
    quaternion_group,
    split_faces,
    symmetric_group,
    validate_group,
)
from groupstates.characters import CharacterTable
from groupstates.groups import ConjugacyPartition, convolve
from groupstates.jsonio import table_to_json

from conftest import (
    LADDER,
    builtin_catalog,
    ladder_group,
    nspace_projection_residuals,
    literal_algebra_matrix,
    nspace_verified_projections,
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


@pytest.mark.parametrize("name", list(LADDER))
def test_minimal_central_projections_are_minimal_split_face_supports(name):
    """Each minimal central projection is the FaceDescriptor of its minimal
    split face: central, split, irreps (pi,), read-only coefficients that
    are the table's kept row itself, not a copy, and a matrix equal to the
    literal regular-representation image, built on its first read.
    split_faces takes them as its minimal projections, and its face of
    each single block is that block's projection."""
    g = ladder_group(name)
    table = character_table(g)
    projs = minimal_central_projections(g, table)
    kept = table._kept["projections"][1]
    assert len(projs) == table.num_irreps == len(kept)
    for pi, p in enumerate(projs):
        assert type(p) is FaceDescriptor and p.group is g
        assert p.is_central and p.is_split and p.irreps == (pi,)
        assert not p.coeffs.flags.writeable
        assert np.shares_memory(p.coeffs, kept[pi])
        assert np.array_equal(p.coeffs, kept[pi])
        assert "matrix" not in vars(p)
        m = p.matrix
        assert p.matrix is m and not m.flags.writeable
        assert np.array_equal(m, literal_algebra_matrix(g, p.coeffs))
    # one call: D30's 2^18 faces take about a second
    faces = split_faces(g, table, minimal=projs)
    assert len(faces) == 2 ** len(projs)
    for pi, p in enumerate(projs):
        face = faces[1 << pi]
        assert face.irreps == (pi,) and np.array_equal(face.coeffs, p.coeffs)


def _count_table_and_projection_work(monkeypatch):
    """Counts the eigen-solves of the table build and the verifications of
    a table's projections (one class-space check covers every irrep)."""
    from groupstates import characters

    work = {"eig": 0, "verify_projections": 0}
    real_eig, real_verify = np.linalg.eig, characters._verified_projections

    def eig(*args, **kwargs):
        work["eig"] += 1
        return real_eig(*args, **kwargs)

    def verify(*args, **kwargs):
        work["verify_projections"] += 1
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(characters.np.linalg, "eig", eig)
    monkeypatch.setattr(characters, "_verified_projections", verify)
    return work


def test_second_table_and_projection_calls_do_no_work(monkeypatch):
    g = symmetric_group(4)
    work = _count_table_and_projection_work(monkeypatch)
    table = character_table(g)
    first = minimal_central_projections(g, table)
    assert work["eig"] >= 1 and work["verify_projections"] == 1
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
    assert costs(lambda: minimal_central_projections(g, tight, loose))[1]["verify_projections"] == 1
    assert costs(lambda: minimal_central_projections(g, tight))[1]["verify_projections"] == 1
    assert costs(lambda: minimal_central_projections(g, tight, loose))[1]["verify_projections"] == 0
    # a table of another group, or a copy of a kept one, is always verified
    assert costs(lambda: minimal_central_projections(h, tight))[1]["verify_projections"] == 1
    assert costs(lambda: minimal_central_projections(h, tight))[1]["verify_projections"] == 1
    copy = dataclasses.replace(tight)
    assert costs(lambda: minimal_central_projections(g, copy))[1]["verify_projections"] == 1
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
    assert costs(lambda: minimal_central_projections(g, tight))[1]["verify_projections"] == 0


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


def _partition(group, classes):
    """A ConjugacyPartition over the given classes, in that order."""
    classes = tuple(tuple(sorted(c)) for c in classes)
    class_of = np.empty(group.order, dtype=np.int64)
    for ci, members in enumerate(classes):
        class_of[list(members)] = ci
    return ConjugacyPartition(classes, class_of, tuple(map(len, classes)), tuple(map(min, classes)))


@pytest.mark.parametrize("name", ["S3", "Q8", "D6", "S4"])
def test_structure_constants_match_convolutions_and_are_kept_read_only(name):
    g = ladder_group(name)
    table = character_table(g)
    oracle = _structure_constants_convolution_oracle(g, table.partition)
    assert np.array_equal(class_sum_structure_constants(g), oracle)
    # the table carries the constants it was built from, read-only
    assert np.array_equal(table.structure, oracle) and not table.structure.flags.writeable
    # a table made by hand builds them on first read
    copy = CharacterTable(g, table.partition, table.dims, table.chars)
    assert "structure" not in vars(copy) and np.array_equal(copy.structure, oracle)


@pytest.mark.parametrize("name", list(LADDER))
def test_class_space_residuals_match_n_space(name):
    """Each residual of the class-space check equals its n-space value,
    from n x n regular-representation products, to 1e-12, and the
    coefficients equal the n-space ones bit for bit."""
    from groupstates.characters import _projection_residuals, _verified_projections
    from groupstates.linalg import DEFAULT_TOL

    g = ladder_group(name)
    table = character_table(g)
    coeffs = _verified_projections(g, table, DEFAULT_TOL)
    assert np.array_equal(coeffs, nspace_verified_projections(g, table))
    x, *residuals = _projection_residuals(g, table)
    assert np.array_equal(x[:, table.partition.class_of], coeffs)
    for got, expected in zip(residuals, nspace_projection_residuals(g, coeffs)):
        assert np.abs(np.asarray(got) - np.asarray(expected)).max() < 1e-12


def _scaled_row(table, pi):
    chars = table.chars.copy()
    chars[pi] *= 1 + 1e-3
    return table.dims, chars


def _rotated_row(table, pi):
    chars = table.chars.astype(complex)
    chars[pi] *= np.exp(0.3j)
    return table.dims, chars


def _swapped_dims(table, pi):
    dims = list(table.dims)
    dims[0], dims[pi] = dims[pi], dims[0]
    return tuple(dims), table.chars


@pytest.mark.parametrize("tamper", [_scaled_row, _rotated_row, _swapped_dims])
@pytest.mark.parametrize("name", ["S3", "Q8", "S4", "D30"])
def test_tampered_rows_raise_the_n_space_errors_and_witnesses(name, tamper):
    from groupstates.errors import ConvergenceFailure

    g = ladder_group(name)
    table = character_table(g)
    pi = table.num_irreps - 1
    tampered = CharacterTable(g, table.partition, *tamper(table, pi))
    with pytest.raises(ConvergenceFailure) as expected:
        nspace_verified_projections(g, tampered)
    with pytest.raises(ConvergenceFailure) as got:
        minimal_central_projections(g, tampered)
    assert str(got.value).split("(")[0] == str(expected.value).split("(")[0]
    assert got.value.witness.keys() == expected.value.witness.keys()
    for key, value in expected.value.witness.items():
        assert np.abs(np.subtract(got.value.witness[key], value)).max() < 1e-12, key


@pytest.mark.parametrize("name", ["S3", "Q8", "D6", "S4"])
def test_projections_on_a_wrong_partition_raise(name):
    """A table on merged or split classes, or whose labels or
    representatives disagree with its classes, is refused before any
    class-space product; a valid reordering of the classes is accepted."""
    from groupstates.errors import ConvergenceFailure

    g = ladder_group(name)
    table = character_table(g)
    classes = list(table.partition.classes)
    big = max(range(len(classes)), key=lambda i: len(classes[i]))
    merged = _partition(g, classes[:-2] + [classes[-2] + classes[-1]])
    split = _partition(g, classes[:big] + classes[big + 1:] + [classes[big][:1], classes[big][1:]])
    for partition in (merged, split):
        with pytest.raises(ConvergenceFailure) as info:
            minimal_central_projections(g, CharacterTable(g, partition, table.dims, table.chars))
        assert set(info.value.witness) == {"class"}
        # the table build itself fails on these partitions
        with pytest.raises(ConvergenceFailure):
            character_table(g, partition=partition)
    own = table.partition
    moved_rep = ConjugacyPartition(
        own.classes, own.class_of, own.class_sizes, own.class_reps[:-1] + (own.class_reps[0],)
    )
    relabelled = own.class_of.copy()
    relabelled[own.class_reps[-1]] = 0
    mislabelled = ConjugacyPartition(own.classes, relabelled, own.class_sizes, own.class_reps)
    for partition in (moved_rep, mislabelled):
        with pytest.raises(ConvergenceFailure, match="conjugacy class"):
            minimal_central_projections(g, CharacterTable(g, partition, table.dims, table.chars))
    out_of_range = own.class_of.copy()
    out_of_range[-1] = own.num_classes
    for class_of in (own.class_of[:-1], out_of_range):
        partition = ConjugacyPartition(own.classes, class_of, own.class_sizes, own.class_reps)
        with pytest.raises(ConvergenceFailure, match="does not label"):
            minimal_central_projections(g, CharacterTable(g, partition, table.dims, table.chars))
    reordered = _partition(g, classes[:1] + classes[:0:-1])
    got = [p.coeffs for p in minimal_central_projections(g, character_table(g, partition=reordered))]
    for p in minimal_central_projections(g, table):
        assert min(np.abs(q - p.coeffs).max() for q in got) < 1e-12
