"""Records: one immutable named-tuple idiom, and their JSON spelling."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest

from triseq import (
    CanonicalPair,
    CertificateReport,
    LoadedMeasurement,
    OptimalityReport,
    PlanePoint,
    Povm,
    PovmCheck,
    SequentialMeasurement,
    StateVectors,
    Tolerances,
    Transform,
    Triangle,
)
from triseq.serialize import json_dumps

RECORDS = (
    Tolerances,
    CanonicalPair,
    OptimalityReport,
    Povm,
    StateVectors,
    SequentialMeasurement,
    PovmCheck,
    CertificateReport,
    LoadedMeasurement,
    Transform,
    PlanePoint,
    Triangle,
)


def test_records_are_named_tuples_without_dataclasses():
    src = Path(__file__).resolve().parents[1] / "src" / "triseq"
    modules = sorted(src.glob("*.py"))
    assert len(modules) >= 8
    for path in modules:
        tree = ast.parse(path.read_text())
        names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                 for alias in node.names}
        names |= {node.module for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom) and node.module}
        assert "dataclasses" not in {n.split(".")[0] for n in names}, path.name
    for cls in RECORDS:
        assert issubclass(cls, tuple) and cls._fields, cls.__name__
        record = cls(*[None] * len(cls._fields))
        for name in cls._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)


def test_json_dumps_writes_complex_as_the_pair_of_parts():
    # each as the hand spelling json_dumps([z.real, z.imag]) wrote it
    for z in (complex(0.1, -0.0), np.complex128(-0.3 + 0.7j), complex(math.nan, 2.5)):
        assert json_dumps(z) == json_dumps([z.real, z.imag])
    assert json_dumps(complex(0.1, -0.0)) == "[0.10000000000000001,-0]"
    assert json_dumps(complex(math.nan, 2.5)) == "[null,2.5]"
    assert json_dumps({"z": np.complex128(1j)}) == '{"z":[0,1]}'
    floats = (0.1, -0.0, 1e22, math.inf)
    assert json_dumps(floats) == json_dumps(list(floats)) == "[0.10000000000000001,-0,1e+22,null]"


def test_json_dumps_spells_none_and_names_what_it_cannot_write():
    assert json_dumps(None) == "null"
    assert json_dumps({"pair": None}) == '{"pair":null}'
    with pytest.raises(TypeError, match="cannot serialize set"):
        json_dumps({1.0})
    with pytest.raises(TypeError, match="cannot serialize ndarray"):
        json_dumps([np.zeros(2)])
