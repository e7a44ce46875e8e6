"""The names the traced benchmark run rebinds must exist in the package,
and the calls its workloads make must keep working.

``perfbench/spans.py`` wraps package functions by name when a traced run
starts; a name that no longer exists, or a call whose arguments no longer
fit, would break that run, not this suite.  The module is loaded from its
file and only its tables are read.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

import numpy as np

from groupstates import (
    character_table,
    cyclic_group,
    minimal_central_projections,
    split_faces,
    symmetric_group,
    to_state,
)
from groupstates.channels import ChoiCertificate
from groupstates.faces import FaceDescriptor
from groupstates.groups import algebra_matrix
from groupstates import posdef, vn
from groupstates.posdef import delta_e
from groupstates.vn import BlockDecomposition, block_decompose

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_functions_exist():
    spans = _load_spans()
    missing = [
        f"{layer}.{name}"
        for layer, names in spans.LAYER_FUNCTIONS.items()
        for name in names
        if not callable(getattr(importlib.import_module(f"groupstates.{layer}"), name, None))
    ]
    assert not missing


def test_rebound_method_and_read_fields_exist():
    # spans.py wraps BlockDecomposition.from_coefficients through the class
    # __dict__; the certify checks read these certificate fields
    assert "from_coefficients" in BlockDecomposition.__dict__
    fields = {f.name for f in dataclasses.fields(ChoiCertificate)}
    assert {"verdict", "symbol_verdict"} <= fields


def test_fields_read_by_the_workloads_exist():
    # the classify checks read projection and face matrices and unit shapes;
    # state_queries wraps projections as FaceDescriptor, positionally, and
    # reads state coefficients
    g = cyclic_group(3)
    table = character_table(g)
    p = minimal_central_projections(g, table)[0]
    assert p.matrix.shape == (3, 3)
    face = FaceDescriptor(g, p.coeffs, p.matrix, True, True, irreps=p.irreps)
    assert face.matrix is p.matrix
    assert np.array_equal(to_state(delta_e(g)).coefficients, delta_e(g).values)
    units = block_decompose(g, table, seed=0).units
    assert sorted(u.shape for u in units) == [(1, 1, 3)] * 3
    # the certify workload and the envelope probe read the GNS dimension
    # and call is_extreme
    assert type(posdef.gns(delta_e(g)).dim) is int
    assert callable(posdef.is_extreme)


def test_lazy_matrices_match_their_coefficients():
    # .matrix of projections and faces is built on first read; the classify
    # checks read its trace as the regular-representation rank
    g = symmetric_group(3)
    table = character_table(g)
    minimal = minimal_central_projections(g, table)
    for p in minimal:
        assert np.array_equal(p.matrix, algebra_matrix(g, p.coeffs))
        assert not p.matrix.flags.writeable
        assert round(np.trace(p.matrix).real) == table.dims[p.irreps[0]] ** 2
        face = FaceDescriptor(g, p.coeffs, p.matrix, True, True, irreps=p.irreps)
        assert face.matrix is p.matrix
    for f in split_faces(g, table, minimal=minimal):
        assert np.array_equal(f.matrix, algebra_matrix(g, f.coeffs))
        assert not f.matrix.flags.writeable
        assert round(np.trace(f.matrix).real) == sum(table.dims[pi] ** 2 for pi in f.irreps)


def test_vn_calls_made_by_the_workloads():
    # the state_queries and certify workloads call these vn functions
    # positionally, with these argument shapes, and read these fields
    g = symmetric_group(3)
    table = character_table(g)
    decomp = vn.block_decompose(g, table)
    rng = np.random.default_rng(0)
    dims = decomp.block_dims
    for pi, d in enumerate(dims):
        v = rng.normal(size=d) + 1j * rng.normal(size=d)
        assert vn.pure_state_function(decomp, pi, v).values.shape == (g.order,)
        assert vn.central_state_function(table, pi).values.shape == (g.order,)
    desc = vn.random_descriptor(decomp, rng)
    fn = posdef.GroupFunction(g, vn.pure_state_function(decomp, 0, np.ones(1)).values)
    assert vn.apply_descriptor(desc, fn, decomp).values.shape == (g.order,)
    fit = vn.verify_jordan_form(lambda f: vn.apply_descriptor(desc, f, decomp), decomp, seed=7)
    assert (fit.sigma, fit.transpose) == (desc.sigma, desc.transpose)
