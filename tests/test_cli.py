import json

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from groupstates.cli import dispatch
from groupstates.errors import DomainError, InputFormatError
from groupstates.jsonio import (
    function_from_json,
    function_to_json,
    group_from_json,
    group_to_json,
    load_function,
)
from groupstates import (
    GroupFunction,
    character_table,
    cyclic_group,
    delta_e,
    minimal_central_projections,
    quaternion_group,
    random_p1,
    split_faces,
)

from conftest import matrix_from_json


def run(capsys, *argv):
    code = dispatch(list(argv))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv)
    return code, json.loads(out) if out.strip() else None


def _write_group(tmp_path, name, kind):
    path = tmp_path / name
    code = dispatch(["group", "build", "--kind", kind, "--out", str(path)])
    assert code == 0
    return path


def test_group_build_and_validate(tmp_path, capsys):
    path = _write_group(tmp_path, "d4.json", "dihedral:4")
    capsys.readouterr()
    code, report = run_json(capsys, "group", "validate", "--in", str(path))
    assert code == 0 and report["valid"] and report["order"] == 8


def test_group_classes(tmp_path, capsys):
    path = _write_group(tmp_path, "q8.json", "quaternion8")
    capsys.readouterr()
    code, report = run_json(capsys, "group", "classes", "--in", str(path))
    assert code == 0
    assert sorted(report["class_sizes"]) == [1, 1, 2, 2, 2]


def test_group_validate_nonassociative(tmp_path, capsys):
    bad = {
        "order": 5,
        "cayley": [
            [0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 3, 4, 0, 1],
            [3, 4, 1, 2, 0],
            [4, 2, 0, 1, 3],
        ],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    code, report = run_json(capsys, "group", "validate", "--in", str(path))
    assert code == 1
    assert report["error"] == "NotAssociative"
    assert len(report["witness"]["triple"]) == 3


def test_malformed_json_exits_2(tmp_path, capsys):
    _write_group(tmp_path, "s3.json", "symmetric:3")
    fit_group = {"group": "s3.json"}
    cases = [
        (("group", "validate", "--in"), "{not json"),
        (("posdef", "check", "--fn"), {"group": "s3.json", "re": {"a": 1}}),
        (("vn", "fit", "--map"), [fit_group]),
        (("vn", "fit", "--map"), {**fit_group, "pairs": 5}),
        (("vn", "fit", "--map"), {**fit_group, "pairs": [5]}),
    ]
    for i, (command, content) in enumerate(cases):
        path = tmp_path / f"mangled{i}.json"
        path.write_text(content if isinstance(content, str) else json.dumps(content))
        capsys.readouterr()
        code, report = run_json(capsys, *command, str(path))
        assert code == 2, command
        assert report["error"] == "InputFormatError"


@pytest.mark.parametrize(
    "content",
    [
        {"cayley": [[0, 1.7], [1.2, 0]]},  # a cast to int64 would truncate it to Z2
        {"cayley": [["0", "1"], ["1", "0"]]},
        {"cayley": [[True, False], [False, True]]},
        {"cayley": [[0, 2**70], [1, 0]]},
        {"cayley": [[0, 1], [1]]},
        {"order": 3, "cayley": [[0, 1], [1, 0]]},
        {"order": "2", "cayley": [[0, 1], [1, 0]]},
        {"order": True, "cayley": [[0]]},
        {"cayley": [[0, 1], [1, 0]], "labels": "ab"},
        {"cayley": [[0, 1], [1, 0]], "labels": [None, True]},
        {"cayley": [[0]], "labels": {"x": 1}},
        {"cayley": [[0]], "name": 5},
    ],
    ids=["floats", "strings", "booleans", "huge", "ragged", "order", "order-string", "order-bool",
         "labels-string", "labels-not-strings", "labels-object", "name-number"],
)
def test_malformed_group_tables_exit_2(tmp_path, capsys, content):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(content))
    code, report = run_json(capsys, "group", "validate", "--in", str(path))
    assert code == 2
    assert report["error"] == "InputFormatError"


@pytest.mark.parametrize("kind", ["directory", "nested", "not-utf8"])
def test_unreadable_input_files_exit_2(tmp_path, capsys, kind):
    path = tmp_path / "input.json"
    if kind == "directory":
        path.mkdir()
    elif kind == "nested":
        path.write_text("[" * 100_000)
    else:
        path.write_bytes(b'{"cayley": [[0]], "labels": ["\xff"]}')
    code, report = run_json(capsys, "group", "validate", "--in", str(path))
    assert code == 2
    assert report["error"] == "InputFormatError" and str(path) in report["message"]


@pytest.mark.parametrize(
    "command", ["group build", "chartable", "channel build", "vn decompose", "vn homeo"]
)
def test_out_into_a_missing_directory_exits_2(tmp_path, capsys, command):
    group = _write_group(tmp_path, "q8.json", "quaternion8")
    fn = tmp_path / "fn.json"
    symbol = function_to_json(delta_e(quaternion_group()), inline_group=False)
    fn.write_text(json.dumps({**symbol, "group": "q8.json"}))
    inputs = {
        "group build": ["--kind", "quaternion8"],
        "chartable": ["--in", str(group)],
        "channel build": ["--fn", str(fn)],
        "vn decompose": ["--in", str(group)],
        "vn homeo": ["--g1", str(group), "--g2", str(group)],
    }
    out = tmp_path / "missing" / "out.json"
    capsys.readouterr()
    code, report = run_json(capsys, *command.split(), *inputs[command], "--out", str(out))
    assert code == 2
    assert report["error"] == "InputFormatError" and str(out) in report["message"]
    assert not out.parent.exists()


_SOLVER_COMMANDS = ["posdef check", "posdef norm", "posdef extreme", "channel cp"]


@pytest.mark.parametrize("command", _SOLVER_COMMANDS)
def test_a_failed_solver_exits_1_whatever_the_command(tmp_path, capsys, monkeypatch, command):
    """numpy's LinAlgError is a ValueError, but the file is well formed:
    every command reports the failed eigensolver as ConvergenceFailure."""
    _write_group(tmp_path, "s3.json", "symmetric:3")
    fn = tmp_path / "one.json"
    fn.write_text(json.dumps({"group": "s3.json", "re": [1.0] * 6, "im": [0.0] * 6}))

    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", fail)
    monkeypatch.setattr(np.linalg, "eigh", fail)
    capsys.readouterr()
    code, report = run_json(capsys, *command.split(), "--fn", str(fn))
    assert code == 1
    assert report["error"] == "ConvergenceFailure" and report["witness"] == {}


def test_values_near_the_float_limit_get_the_answers_of_their_ray(tmp_path, capsys):
    """The constant 1e308 on S3 is 1e308 times the trivial character: a
    positive definite, extreme and completely positive function of A-norm
    1e308, whose Gram matrix has rank one, so its smallest eigenvalue is 0
    and inside the undecided band.  Every eigen-test runs in canonical
    power-of-two units, so no symmetrization or eigenvalue overflows."""
    _write_group(tmp_path, "s3.json", "symmetric:3")
    fn = tmp_path / "big.json"
    fn.write_text(json.dumps({"group": "s3.json", "re": [1e308] * 6, "im": [0.0] * 6}))
    capsys.readouterr()
    reports = {}
    for command in _SOLVER_COMMANDS:
        code, reports[command] = run_json(capsys, *command.split(), "--fn", str(fn))
        assert code == 0, reports[command]
    check = reports["posdef check"]
    assert check["positive_definite"] and not check["normalized"]
    # within the cutoff eig_tol * n * max|phi|
    assert abs(check["min_eigenvalue"]) <= 1e-9 * 6 * 1e308
    assert reports["posdef norm"]["a_norm"] == pytest.approx(1e308, rel=1e-12)
    assert reports["posdef extreme"] == {"extreme": True, "gns_dimension": 1}
    cp = reports["channel cp"]
    assert cp["completely_positive"] and not cp["unital"]
    assert cp["symbol_min_eigenvalue"] == check["min_eigenvalue"]


@pytest.mark.parametrize(
    "flag", [("--eig-tol", "-1"), ("--residual-tol", "nan"), ("--eig-tol", "inf")]
)
def test_bad_tolerance_flags_exit_2(tmp_path, capsys, flag):
    path = _write_group(tmp_path, "q8.json", "quaternion8")
    capsys.readouterr()
    code, report = run_json(capsys, "chartable", "--in", str(path), *flag)
    assert code == 2
    assert report["error"] == "ValueError" and "tolerances" in report["message"]


def test_group_build_refuses_a_huge_order(capsys):
    code, report = run_json(capsys, "group", "build", "--kind", "cyclic:1000000000000")
    assert code == 1
    assert report["error"] == "SizeLimitExceeded"
    assert report["witness"] == {"order": 10**12, "limit": 10000}


def test_group_build_refuses_a_huge_dihedral_order(capsys):
    """2n is refused whether or not it can be written out in decimal: a
    4300-digit n is accepted by int(), and its order 2n has 4301 digits."""
    code, report = run_json(capsys, "group", "build", "--kind", "dihedral:5001")
    assert code == 1 and report["error"] == "SizeLimitExceeded"
    assert report["witness"] == {"order": 10002, "limit": 10000}
    code, report = run_json(capsys, "group", "build", "--kind", "dihedral:" + "9" * 4300)
    assert code == 1 and report["error"] == "SizeLimitExceeded"
    assert report["witness"] == {"order_bits": (2 * (10**4300 - 1)).bit_length(), "limit": 10000}


def test_group_build_refuses_a_huge_symmetric_degree(capsys):
    code, report = run_json(capsys, "group", "build", "--kind", "symmetric:2000")
    assert code == 1
    assert report["error"] == "SizeLimitExceeded"
    assert report["witness"] == {"degree": 2000, "order_at_least": 40320, "limit": 10000}


def test_group_file_over_the_order_limit_is_refused_before_conversion(tmp_path, capsys):
    """The row count, and a stated order, are checked against the closure
    limit before the table becomes an array: 10 001 one-entry rows are
    refused for their count, not parsed into a ragged table."""
    from groupstates.errors import SizeLimitExceeded

    with pytest.raises(SizeLimitExceeded) as info:
        group_from_json({"cayley": [[0]] * 10001})
    assert info.value.witness == {"order": 10001, "limit": 10000}
    with pytest.raises(SizeLimitExceeded) as info:
        group_from_json({"order": 20000, "cayley": [[0]]})
    assert info.value.witness == {"order": 20000, "limit": 10000}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps({"cayley": [[0]] * 10001}))
    code, report = run_json(capsys, "group", "validate", "--in", str(path))
    assert code == 1 and report["error"] == "SizeLimitExceeded"
    assert report["witness"] == {"order": 10001, "limit": 10000}


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_memory_error_exits_1_with_its_report(monkeypatch, capsys, fmt):
    from groupstates import cli

    def exhausted(args, tol):
        raise MemoryError("Unable to allocate 12.1 GiB")

    monkeypatch.setattr(cli, "_handle_group", exhausted)
    code, out = run(capsys, "group", "build", "--kind", "cyclic:3", "--format", fmt)
    assert code == 1
    if fmt == "json":
        assert json.loads(out) == {"error": "MemoryError", "message": "Unable to allocate 12.1 GiB"}
    else:
        assert out == "ERROR MemoryError: Unable to allocate 12.1 GiB\n"


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-2, 2**70)
    | st.floats(allow_nan=False, allow_infinity=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=16,
)
_SMALL_TABLES = st.integers(1, 4).flatmap(
    lambda n: st.lists(st.lists(st.integers(-1, n), min_size=n, max_size=n), min_size=n, max_size=n)
)


@settings(max_examples=300, deadline=None)
@given(
    cayley=_SMALL_TABLES | _JSON_VALUES,
    order=st.none() | st.integers(0, 5) | _JSON_VALUES,
    labels=st.none() | _JSON_VALUES | st.lists(st.text(max_size=2), min_size=1, max_size=4),
)
@example(cayley=[[0, 1], [1, 0]], order=None, labels="ab")
@example(cayley=[[0, 1], [1, 0]], order=None, labels=[None, True])
@example(cayley=[[0]], order=None, labels={"x": 1})
def test_group_codec_accepts_exactly_the_integer_tables(cayley, order, labels):
    """Whatever the JSON, the codec either raises InputFormatError or a
    domain error, or returns the group of exactly the integer table it was
    given, of the stated order, with exactly the labels given; an accepted
    group survives a round trip."""
    obj = {"cayley": cayley}
    if order is not None:
        obj["order"] = order
    if labels is not None:
        obj["labels"] = labels
    obj = json.loads(json.dumps(obj))
    try:
        group = group_from_json(obj)
    except (InputFormatError, DomainError):
        return
    table = np.asarray(cayley)
    assert np.issubdtype(table.dtype, np.integer) and np.array_equal(group.cayley, table)
    assert order is None or order == group.order
    assert labels is None or list(group.labels) == obj["labels"]
    again = group_from_json(json.loads(json.dumps(group_to_json(group))))
    assert np.array_equal(again.cayley, group.cayley) and again.labels == group.labels


@pytest.mark.parametrize(
    "values",
    [
        {"re": ["1", True], "im": [0, False]},
        {"re": [1, 0], "im": [0, None]},
        {"re": [1, 0], "im": None},
        {"re": [1.0, 2**1100]},
        {"re": [[1], [0]]},
    ],
    ids=["strings-booleans", "null-entry", "null-list", "huge", "nested"],
)
def test_malformed_function_values_exit_2(tmp_path, capsys, values):
    _write_group(tmp_path, "z2.json", "cyclic:2")
    path = tmp_path / "fn.json"
    path.write_text(json.dumps({"group": "z2.json", **values}))
    capsys.readouterr()
    code, report = run_json(capsys, "posdef", "check", "--fn", str(path))
    assert code == 2
    assert report["error"] == "InputFormatError"


_NUMBER_LISTS = st.lists(
    st.integers(-(2**1100), 2**1100) | st.floats(allow_nan=False, allow_infinity=False),
    min_size=2, max_size=2,
)


@settings(max_examples=300, deadline=None)
@given(re=_NUMBER_LISTS | _JSON_VALUES, im=st.none() | _NUMBER_LISTS | _JSON_VALUES)
def test_function_codec_accepts_exactly_the_number_lists(re, im):
    """Whatever the JSON, the function codec either raises InputFormatError
    or returns the function of exactly the ints and floats it was given;
    an accepted function survives a round trip."""
    group = cyclic_group(2)
    obj = {"re": re} if im is None else {"re": re, "im": im}
    obj = json.loads(json.dumps(obj))
    try:
        fn = function_from_json(obj, group=group)
    except InputFormatError:
        return
    for part in (re, [0, 0] if im is None else im):
        assert isinstance(part, list) and len(part) == 2
        assert all(type(x) in (int, float) for x in part)
    expected = [complex(float(a), float(b)) for a, b in zip(re, [0, 0] if im is None else im)]
    assert fn.values.tolist() == expected
    again = function_from_json(json.loads(json.dumps(function_to_json(fn, inline_group=False))), group)
    assert np.array_equal(again.values, fn.values)


def test_chartable_deterministic(tmp_path, capsys):
    path = _write_group(tmp_path, "q8.json", "quaternion8")
    capsys.readouterr()
    code1, out1 = run(capsys, "chartable", "--in", str(path), "--seed", "7")
    code2, out2 = run(capsys, "chartable", "--in", str(path), "--seed", "7")
    assert code1 == code2 == 0
    assert out1 == out2  # byte-identical under a fixed seed
    report = json.loads(out1)
    assert report["dims"] == [1, 1, 1, 1, 2]


def test_posdef_check_and_p1(tmp_path, capsys):
    g = cyclic_group(2)
    fn = GroupFunction(g, np.array([1.0, 0.25]))
    path = tmp_path / "fn.json"
    path.write_text(json.dumps(function_to_json(fn)))
    code, report = run_json(capsys, "posdef", "check", "--fn", str(path))
    assert code == 0 and report["positive_definite"] and report["normalized"]

    bad = GroupFunction(g, np.array([0.5, 0.0]))
    bad_path = tmp_path / "bad.json"
    bad_path.write_text(json.dumps(function_to_json(bad)))
    code, report = run_json(capsys, "posdef", "check", "--fn", str(bad_path), "--p1")
    assert code == 1 and report["error"] == "NotNormalized"


def test_posdef_extreme_and_norm(tmp_path, capsys):
    g = quaternion_group()
    path = tmp_path / "one.json"
    path.write_text(
        json.dumps(function_to_json(GroupFunction(g, np.ones(8, dtype=complex))))
    )
    code, report = run_json(capsys, "posdef", "extreme", "--fn", str(path))
    assert code == 0 and report["extreme"] and report["gns_dimension"] == 1
    code, report = run_json(capsys, "posdef", "norm", "--fn", str(path))
    assert code == 0 and abs(report["a_norm"] - 1.0) < 1e-9


def test_channel_build_out(tmp_path, capsys):
    g = cyclic_group(3)
    rng = np.random.default_rng(0)
    sym = tmp_path / "sym.json"
    sym.write_text(json.dumps(function_to_json(random_p1(g, rng))))
    out = tmp_path / "ch.json"
    code, report = run_json(
        capsys, "channel", "build", "--fn", str(sym), "--out", str(out)
    )
    assert code == 0 and report["unital"]
    stored = load_function(out)
    assert stored.group.order == 3


def test_channel_cp_and_apply(tmp_path, capsys):
    g = cyclic_group(2)
    sym = tmp_path / "sym.json"
    sym.write_text(
        json.dumps(function_to_json(GroupFunction(g, np.array([1.0, 0.5]))))
    )
    code, report = run_json(capsys, "channel", "cp", "--fn", str(sym))
    assert code == 0 and report["completely_positive"] and report["unital"]

    bad = tmp_path / "badsym.json"
    bad.write_text(
        json.dumps(function_to_json(GroupFunction(g, np.array([1.0, -1.5]))))
    )
    code, report = run_json(capsys, "channel", "cp", "--fn", str(bad))
    assert code == 0 and not report["completely_positive"]
    assert abs(report["symbol_min_eigenvalue"] + 0.5) < 1e-9

    elem = tmp_path / "elem.json"
    elem.write_text(json.dumps({"re": [0.0, 1.0], "im": [0.0, 0.0]}))
    code, report = run_json(
        capsys, "channel", "apply", "--ch", str(sym), "--elem", str(elem)
    )
    assert code == 0
    assert report["re"] == [0.0, 0.5]


def test_faces_cli(tmp_path, capsys):
    path = _write_group(tmp_path, "q8.json", "quaternion8")
    capsys.readouterr()
    code, report = run_json(capsys, "faces", "list", "--in", str(path))
    assert code == 0
    assert report["num_split_faces"] == 32 and report["num_minimal"] == 5
    g = quaternion_group()
    faces = split_faces(g, character_table(g))
    assert [f["rank"] for f in report["faces"]] == [
        int(round(8 * face.coeffs[g.identity].real)) for face in faces
    ]

    code, report = run_json(
        capsys, "faces", "chain", "--in", str(path), "--irrep", "4"
    )
    assert code == 0 and report["chain_length"] == 2
    # an index outside the table is malformed input, like every other one
    for irrep in ("5", "-1"):
        code, report = run_json(capsys, "faces", "chain", "--in", str(path), "--irrep", irrep)
        assert code == 2 and report["error"] == "InputFormatError"

    g = quaternion_group()
    table = character_table(g)
    projs = minimal_central_projections(g, table)
    proj_path = tmp_path / "proj.json"
    agg = sum(p.coeffs for p in projs[:2])
    proj_path.write_text(
        json.dumps(function_to_json(GroupFunction(g, agg)))
    )
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(function_to_json(delta_e(g))))
    code, report = run_json(
        capsys, "faces", "member", "--proj", str(proj_path), "--state", str(state_path)
    )
    assert code == 0 and report["member"] is False and report["central"] is True

    code, report = run_json(
        capsys,
        "faces",
        "decompose",
        "--state",
        str(state_path),
        "--proj",
        str(proj_path),
    )
    assert code == 0
    assert abs(report["t"] - 0.25) < 1e-9  # two of eight dimensions


def test_faces_member_rejects_non_projection(tmp_path, capsys):
    g = quaternion_group()
    proj_path = tmp_path / "twice.json"
    proj_path.write_text(json.dumps(function_to_json(GroupFunction(g, 2.0 * delta_e(g).values))))
    state_path = tmp_path / "state.json"
    state_path.write_text(json.dumps(function_to_json(delta_e(g))))
    code, report = run_json(
        capsys, "faces", "member", "--proj", str(proj_path), "--state", str(state_path)
    )
    assert code == 1 and report["error"] == "ConvergenceFailure"
    assert report["witness"] == {"hermitian_residual": 0.0, "idempotent_residual": 2.0}


def test_vn_cli(tmp_path, capsys):
    q8 = _write_group(tmp_path, "q8.json", "quaternion8")
    d4 = _write_group(tmp_path, "d4.json", "dihedral:4")
    z8 = _write_group(tmp_path, "z8.json", "cyclic:8")
    capsys.readouterr()

    code, report = run_json(capsys, "vn", "invariant", "--in", str(q8))
    assert code == 0 and report["invariant"] == [1, 1, 1, 1, 2]

    code, report = run_json(capsys, "vn", "iso", "--g1", str(q8), "--g2", str(d4))
    assert code == 0 and report["isomorphic"] and report["invariant"] == [1, 1, 1, 1, 2]

    code, report = run_json(capsys, "vn", "iso", "--g1", str(q8), "--g2", str(z8))
    assert code == 0 and not report["isomorphic"]
    assert report["invariant_g2"] == [1] * 8

    code, report = run_json(capsys, "vn", "decompose", "--in", str(q8), "--seed", "3")
    assert code == 0 and report["dims"] == [1, 1, 1, 1, 2]

    out_path = tmp_path / "map.json"
    code, report = run_json(
        capsys, "vn", "homeo", "--g1", str(q8), "--g2", str(d4), "--out", str(out_path)
    )
    assert code == 0
    assert report["round_trip_residual"] < 1e-8
    stored = json.loads(out_path.read_text())
    assert matrix_from_json(stored["forward"]).shape == (8, 8)

    code, report = run_json(capsys, "vn", "homeo-group", "--in", str(q8))
    assert code == 0 and report["component_count"] == 48

    code, report = run_json(capsys, "vn", "homeo", "--g1", str(q8), "--g2", str(z8))
    assert code == 1 and report["error"] == "NotIsomorphic"


def test_vn_homeo_builds_its_file_payload_only_for_out(tmp_path, capsys, monkeypatch):
    from groupstates import jsonio
    from groupstates.vn import construct_affine_homeomorphism

    q8 = _write_group(tmp_path, "q8.json", "quaternion8")
    d4 = _write_group(tmp_path, "d4.json", "dihedral:4")
    capsys.readouterr()
    out_path = tmp_path / "map.json"
    code, with_out = run_json(
        capsys, "vn", "homeo", "--g1", str(q8), "--g2", str(d4), "--out", str(out_path)
    )
    assert code == 0
    homeo = construct_affine_homeomorphism(
        jsonio.load_group(q8), jsonio.load_group(d4), 0
    )
    assert json.loads(out_path.read_text()) == {
        "matching": list(homeo.matching),
        "forward": jsonio.matrix_to_json(homeo.forward_matrix),
        "backward": jsonio.matrix_to_json(homeo.backward_matrix),
    }

    def refuse(m):
        raise AssertionError("file payload built without --out")

    monkeypatch.setattr(jsonio, "matrix_to_json", refuse)
    code, report = run_json(capsys, "vn", "homeo", "--g1", str(q8), "--g2", str(d4))
    assert code == 0
    assert report == {**with_out, "written": None}


def test_vn_fit_cli(tmp_path, capsys):
    from groupstates import (
        apply_descriptor,
        block_decompose,
        dihedral_group,
        random_descriptor,
    )

    g = dihedral_group(4)
    decomp = block_decompose(g, seed=0)
    rng = np.random.default_rng(1)
    desc = random_descriptor(decomp, rng)
    pairs = []
    for _ in range(3 * g.order):
        fn = random_p1(g, rng)
        out = apply_descriptor(desc, fn, decomp)
        pairs.append(
            {
                "in": function_to_json(fn, inline_group=False),
                "out": function_to_json(out, inline_group=False),
            }
        )
    samples = {"group": group_to_json(g), "pairs": pairs}
    path = tmp_path / "samples.json"
    path.write_text(json.dumps(samples))
    code, report = run_json(capsys, "vn", "fit", "--map", str(path))
    assert code == 0
    assert report["sigma"] == list(desc.sigma)
    assert report["transpose"] == list(desc.transpose)
    assert report["reproduction_residual"] < 1e-7


def test_demos(capsys):
    code, report = run_json(capsys, "demo", "q8-vs-d4")
    assert code == 0
    assert report["isomorphic"] and report["max_round_trip_residual"] < 1e-8
    assert report["images_in_p1"] == report["samples"] == 200

    code, report = run_json(capsys, "demo", "bochner")
    assert code == 0
    assert report["disagreements"] == 0 and report["samples"] == 500

    code, report = run_json(capsys, "demo", "faces-tour")
    assert code == 0
    assert report["num_split_faces"] == 8
    assert report["chain_lengths"] == [1, 1, 2]


def test_text_format(capsys, tmp_path):
    path = _write_group(tmp_path, "z4.json", "cyclic:4")
    capsys.readouterr()
    code, out = run(capsys, "vn", "invariant", "--in", str(path), "--format", "text")
    assert code == 0
    assert "invariant" in out and "[" in out


def test_unknown_subcommand_exits_2(capsys):
    code = dispatch(["vn", "frobnicate"])
    capsys.readouterr()
    assert code == 2


def test_seed_changes_nothing_structural(tmp_path, capsys):
    """The table, the invariant, the isomorphism verdict, the homeomorphism
    group and a chain length are functions of the group: their stdout is
    byte-identical under --seed 0 and --seed 7."""
    s5 = _write_group(tmp_path, "s5.json", "symmetric:5")
    q8 = _write_group(tmp_path, "q8.json", "quaternion8")
    d4 = _write_group(tmp_path, "d4.json", "dihedral:4")
    capsys.readouterr()
    for command in (
        ["chartable", "--in", str(s5)],
        ["vn", "invariant", "--in", str(s5)],
        ["vn", "iso", "--g1", str(q8), "--g2", str(d4)],
        ["vn", "homeo-group", "--in", str(s5)],
        ["faces", "chain", "--in", str(s5), "--irrep", "6"],
    ):
        code0, out0 = run(capsys, *command, "--seed", "0")
        code7, out7 = run(capsys, *command, "--seed", "7")
        assert code0 == code7 == 0 and out0 == out7, command


def test_parser_is_built_once_and_keeps_no_state_between_calls(monkeypatch, capsys):
    from groupstates import cli

    builds = []
    real = cli._build_parser

    def counted():
        builds.append(1)
        return real()

    seen = []
    monkeypatch.setattr(cli, "_parser", None)
    monkeypatch.setattr(cli, "_build_parser", counted)
    monkeypatch.setattr(cli, "_handle_chartable",
                        lambda args, tol: seen.append((args.seed, tol.eig_tol)) or {})
    assert dispatch(["chartable", "--in", "g.json", "--seed", "7", "--eig-tol", "1e-6"]) == 0
    assert dispatch(["chartable", "--in", "g.json"]) == 0
    capsys.readouterr()
    assert seen == [(7, 1e-6), (0, 1e-9)]
    assert builds == [1]


def test_parser_error_leaves_the_next_command_unchanged(monkeypatch, tmp_path, capsys):
    from groupstates import cli

    path = _write_group(tmp_path, "q8.json", "quaternion8")
    monkeypatch.setattr(cli, "_parser", None)
    capsys.readouterr()
    first = run(capsys, "group", "classes", "--in", str(path))
    bad = ["group", "classes", "--in", str(path), "--format", "text", "--seed", "x"]
    assert dispatch(bad) == 2
    assert dispatch(["vn", "frobnicate"]) == 2
    capsys.readouterr()
    assert run(capsys, "group", "classes", "--in", str(path)) == first
    assert first[0] == 0 and json.loads(first[1])["num_classes"] == 5
