"""The names the traced benchmark run rebinds must exist in the package.

``perfbench/spans.py`` wraps package functions by name when a traced run
starts; a name that no longer exists would break that run, not this suite.
The module is loaded from its file and only its tables are read.
"""

import dataclasses
import importlib
import importlib.util
from pathlib import Path

from groupstates.channels import ChoiCertificate
from groupstates.vn import BlockDecomposition

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
