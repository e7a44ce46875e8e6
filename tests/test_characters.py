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
from groupstates.errors import DegenerateSpectrum
from groupstates.groups import ConjugacyPartition, build_named, convolve
from groupstates.jsonio import table_to_json
from groupstates.linalg import DEFAULT_TOL, Tolerance

from conftest import (
    CORPUS,
    LADDER,
    PRODUCTS,
    builtin_catalog,
    class_partition,
    corpus_group,
    eig_character_table,
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


@pytest.mark.parametrize("name", ["Q8", "S5", "A5", "PSL(2,7)"])
def test_table_is_bit_identical_across_builds_and_group_objects(name):
    """The table depends on the group alone: a rebuild at a tighter
    tolerance, a build on a copy of the partition and a build on a fresh
    group object all equal the kept table bit for bit."""
    make = (lambda: ladder_group(name)) if name in LADDER else (lambda: corpus_group(name))
    g = make()
    table = character_table(g, tol=Tolerance(residual_tol=1e-6))
    copy = class_partition(g, conjugacy_classes(g).classes)
    again = [character_table(g), character_table(g, partition=copy), character_table(make())]
    assert all(t is not table for t in again)
    for t in again:
        assert t.dims == table.dims and t.chars.tobytes() == table.chars.tobytes()
        assert json.dumps(table_to_json(t), sort_keys=True) == json.dumps(
            table_to_json(table), sort_keys=True
        )


_ORACLE_GROUPS = [("product", kind) for kind in PRODUCTS] + [
    ("ladder", name) for name in LADDER
] + [("corpus", name) for name in CORPUS] + [("named", "symmetric:6")]


def test_table_matches_the_retired_eig_solve():
    """At seed 0 the retired non-Hermitian solve gives the same dims, the
    same row order and entries within 1e-12, on the ladder, the generated
    products, the corpus and S6."""
    makers = {"product": build_named, "ladder": ladder_group, "corpus": corpus_group,
              "named": build_named}
    for source, name in _ORACLE_GROUPS:
        g = makers[source](name)
        table = character_table(g)
        dims, chars = eig_character_table(g, seed=0)
        assert table.dims == dims, name
        assert np.abs(table.chars - chars).max() < 1e-12, name


@pytest.mark.parametrize("kind", ["symmetric:4", "symmetric:5", "symmetric:6"])
def test_symmetric_group_tables_are_integers_within_1e_13(kind):
    chars = character_table(build_named(kind)).chars
    assert np.abs(chars - np.round(chars.real)).max() < 1e-13


# textbook irrep dimensions of the corpus groups, ascending
_CORPUS_DIMS = {
    "A4": (1, 1, 1, 3),
    "A5": (1, 3, 3, 4, 5),
    "F20": (1, 1, 1, 1, 4),
    "F21": (1, 1, 1, 3, 3),
    "D8": (1, 1, 1, 1, 2, 2, 2),
    "SD16": (1, 1, 1, 1, 2, 2, 2),
    "M16": (1,) * 8 + (2, 2),
    "Z9:Z3": (1,) * 9 + (3, 3),
    "Dic3": (1, 1, 1, 1, 2, 2),
    "Q16": (1, 1, 1, 1, 2, 2, 2),
    "SL(2,3)": (1, 1, 1, 2, 2, 2, 3),
    "GL(2,3)": (1, 1, 2, 2, 2, 3, 3, 4),
    "SL(2,5)": (1, 2, 2, 3, 3, 4, 4, 5, 6),
    "PSL(2,7)": (1, 3, 3, 6, 7, 8),
    "Heis27": (1,) * 9 + (3, 3),
}


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_tables_have_textbook_dims_and_orthogonal_rows(name):
    g = corpus_group(name)
    table = character_table(g)
    assert table.dims == _CORPUS_DIMS[name] and sum(d * d for d in table.dims) == g.order
    sizes = np.array(table.class_sizes, dtype=float)
    gram = (table.chars * sizes) @ table.chars.conj().T / g.order
    assert np.abs(gram - np.eye(table.num_irreps)).max() < 1e-12


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
    """Counts the eigen-solves (``eigh``) of the table build and the
    verifications of a table's projections (one class-space check covers
    every irrep)."""
    from groupstates import characters

    work = {"eigh": 0, "verify_projections": 0}
    real_eigh, real_verify = np.linalg.eigh, characters._verified_projections

    def eigh(*args, **kwargs):
        work["eigh"] += 1
        return real_eigh(*args, **kwargs)

    def verify(*args, **kwargs):
        work["verify_projections"] += 1
        return real_verify(*args, **kwargs)

    monkeypatch.setattr(characters.np.linalg, "eigh", eigh)
    monkeypatch.setattr(characters, "_verified_projections", verify)
    return work


@pytest.mark.parametrize("collisions", [1, 20])
def test_a_spectral_collision_takes_the_next_draw_of_the_stream(monkeypatch, collisions):
    """A solve whose eigenvalues collide takes the stream's next draw: one
    collision still gives the table, twenty raise DegenerateSpectrum."""
    from groupstates import characters

    real_eigh, calls = np.linalg.eigh, []

    def eigh(x):
        calls.append(x)
        if len(calls) <= collisions:
            return np.zeros(len(x)), np.eye(len(x), dtype=complex)
        return real_eigh(x)

    expected = character_table(symmetric_group(4))
    monkeypatch.setattr(characters.np.linalg, "eigh", eigh)
    if collisions < 20:
        table = character_table(symmetric_group(4))
        assert len(calls) == 2 and not np.array_equal(calls[0], calls[1])
        assert table.dims == expected.dims
        assert np.abs(table.chars - expected.chars).max() < 1e-12
    else:
        with pytest.raises(DegenerateSpectrum) as err:
            character_table(symmetric_group(4))
        assert len(calls) == 20 and err.value.witness == {"resamples": 20}


def test_second_table_and_projection_calls_do_no_work(monkeypatch):
    g = symmetric_group(4)
    work = _count_table_and_projection_work(monkeypatch)
    table = character_table(g)
    first = minimal_central_projections(g, table)
    assert work["eigh"] >= 1 and work["verify_projections"] == 1
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
        table = character_table(g)
        minimal_central_projections(g, table)
        kept = character_table(g)
        built = character_table(fresh)
        assert kept.dims == built.dims and np.array_equal(kept.chars, built.chars)
        for p, q in zip(minimal_central_projections(g, kept),
                        minimal_central_projections(fresh, built)):
            assert np.array_equal(p.coeffs, q.coeffs)


def test_kept_table_is_not_served_across_tolerance_or_group(monkeypatch):
    g = quaternion_group()
    loose = Tolerance(residual_tol=1e-6)
    work = _count_table_and_projection_work(monkeypatch)

    def costs(call):
        before = dict(work)
        value = call()
        return value, {k: work[k] - before[k] for k in work}

    table, spent = costs(lambda: character_table(g, tol=loose))
    assert spent["eigh"] >= 1
    # verified at a looser tolerance: the default tolerance builds again
    tight, spent = costs(lambda: character_table(g))
    assert spent["eigh"] >= 1 and np.array_equal(tight.chars, table.chars)
    assert costs(lambda: character_table(g))[1]["eigh"] == 0
    assert g._kept["table"] == (DEFAULT_TOL.residual_tol, tight)
    # another group object with an equal table builds its own
    h = quaternion_group()
    other_group, spent = costs(lambda: character_table(h))
    assert spent["eigh"] >= 1 and other_group.group is h
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
    assert spent["eigh"] >= 1 and reordered.partition is shuffled
    # it is returned, not kept: the group's own table and its verified
    # projections are still served
    again, spent = costs(lambda: character_table(g))
    assert again is tight and spent["eigh"] == 0
    assert costs(lambda: minimal_central_projections(g, tight))[1]["verify_projections"] == 0


def test_tables_and_projections_compare_and_hash_by_identity():
    g = symmetric_group(3)
    # equal values, two objects: the kept table and one on a copy of its partition
    first = character_table(g)
    second = character_table(g, partition=class_partition(g, first.partition.classes))
    assert np.array_equal(first.chars, second.chars)
    assert first == first and first != second
    assert len({first, second, first}) == 2
    p0, p1 = minimal_central_projections(g, first)[:2]
    assert p0 == p0 and p0 != p1
    assert len({p0, p1, p0}) == 2


@pytest.mark.parametrize("name", list(LADDER))
def test_irreps_are_ordered_by_their_scalar_rounded_rows(name):
    """The vectorised sort key orders the rows as the per-entry
    round(value, 8) key does."""
    table = character_table(ladder_group(name))
    assert rounded_row_order(table.dims, table.chars) == list(range(table.num_irreps))


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
    merged = class_partition(g, classes[:-2] + [classes[-2] + classes[-1]])
    split = class_partition(g, classes[:big] + classes[big + 1:] + [classes[big][:1], classes[big][1:]])
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
    reordered = class_partition(g, classes[:1] + classes[:0:-1])
    got = [p.coeffs for p in minimal_central_projections(g, character_table(g, partition=reordered))]
    for p in minimal_central_projections(g, table):
        assert min(np.abs(q - p.coeffs).max() for q in got) < 1e-12
