"""The package root: its public names, and what a fresh interpreter loads.

`import triseq` and the `check` and `scan` commands run without numpy;
`povm` and `geometry` (and numpy with them) load on first access.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import triseq
from triseq import check_global_optimality
from triseq.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# defining module -> the public names the package root re-exports from it
PUBLIC = {
    "errors": (
        "CertificateViolation", "DegenerateStates", "DomainError", "InvalidPovm",
        "NoCanonicalForm", "NonHermitian", "NotGloballyOptimal", "RankDeficient",
        "SingularSystem", "TriseqError", "ZeroOperator",
    ),
    "geometry": (
        "PlanePoint", "Triangle", "chord_ratio", "chord_ratio_limit", "diagonal_point",
        "identity_membership", "in_triangle", "level_curve", "level_vector",
        "outcome_triangle",
    ),
    "multipartite": ("check_copies_psk", "check_multipartite"),
    "numerics": ("TOL", "Tolerances", "hermitian_eigen"),
    "optimality": ("BRANCHES", "OptimalityReport", "check_global_optimality"),
    "povm": (
        "LABELS", "CertificateReport", "LoadedMeasurement", "Povm", "PovmCheck",
        "SequentialMeasurement", "StateVectors", "binary_unambiguous", "build_sequential",
        "construct", "dual_certificate", "flatten", "frame", "joint_states", "load_povm",
        "sample_outcomes", "save_povm", "solve_weights", "state_vectors",
        "ternary_unambiguous", "verify_povm", "verify_unambiguous",
    ),
    "states": (
        "CanonicalPair", "Transform", "amplitudes_from_overlap", "canonicalize",
        "coherent_overlap", "lifted_trine_overlap", "ppm_overlap", "psk_overlap",
    ),
}
SUBMODULES = (*PUBLIC, "serialize")


def test_all_is_frozen():
    frozen = sorted([*SUBMODULES, *(name for names in PUBLIC.values() for name in names)])
    assert len(frozen) == 67
    assert sorted(triseq.__all__) == frozen


@pytest.mark.parametrize("module", sorted(PUBLIC))
def test_names_resolve_to_their_defining_module(module):
    defining = importlib.import_module(f"triseq.{module}")
    for name in PUBLIC[module]:
        assert getattr(triseq, name) is getattr(defining, name), name


def test_submodules_resolve():
    for module in SUBMODULES:
        assert getattr(triseq, module) is importlib.import_module(f"triseq.{module}")


def test_dir_and_star_import_cover_all():
    assert set(triseq.__all__) <= set(dir(triseq))
    namespace = {}
    exec("from triseq import *", namespace)
    assert set(triseq.__all__) <= set(namespace)


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        triseq.no_such_name  # noqa: B018


def _fresh(code, *args, cwd):
    """Run `code` in a fresh interpreter importing the package from src/."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run(
        [sys.executable, "-c", code, *args], cwd=cwd, env=env,
        capture_output=True, text=True, timeout=60,
    )


_CLI = """
import sys
from triseq.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
print(code, "numpy" in sys.modules, file=sys.stderr)
"""


@pytest.mark.parametrize("argv", [
    ["check", "--ka", "0.19", "0.062", "--kb", "0.27", "0.13"],
    ["check", "--psk", "0.4", "1.1"],
    ["scan", "--mode", "complex-k", "--resolution", "5", "--out", "out.csv"],
    ["scan", "--mode", "psk-grid", "--resolution", "4", "--out", "out.csv"],
    ["scan", "--mode", "copies", "--resolution", "3", "--n-max", "5", "--out", "out.csv"],
], ids=["check-ka-kb", "check-psk", "scan-complex-k", "scan-psk-grid", "scan-copies"])
def test_decision_commands_run_without_numpy(argv, tmp_path, monkeypatch, capsys):
    (tmp_path / "fresh").mkdir()
    (tmp_path / "inproc").mkdir()
    proc = _fresh(_CLI, *argv, cwd=tmp_path / "fresh")
    monkeypatch.chdir(tmp_path / "inproc")
    code = main(argv)
    assert proc.stderr.split() == [str(code), "False"], proc.stderr
    assert proc.stdout == capsys.readouterr().out
    if argv[0] == "scan":
        fresh = (tmp_path / "fresh" / "out.csv").read_bytes()
        assert fresh == (tmp_path / "inproc" / "out.csv").read_bytes()


def test_library_decision_runs_without_numpy(tmp_path):
    code = """
import sys
import triseq
print(repr(triseq.check_global_optimality(0.19 + 0.062j, 0.27 + 0.13j)))
print("numpy" in sys.modules, file=sys.stderr)
"""
    proc = _fresh(code, cwd=tmp_path)
    assert proc.stderr.split() == ["False"], proc.stderr
    assert proc.stdout == repr(check_global_optimality(0.19 + 0.062j, 0.27 + 0.13j)) + "\n"


def test_first_access_loads_only_the_defining_module(tmp_path):
    code = """
import sys
import triseq
loaded = lambda: [m in sys.modules for m in ("numpy", "triseq.geometry", "triseq.povm")]
print(*loaded())
curve = triseq.level_curve
print(*loaded(), curve is triseq.geometry.level_curve)
"""
    proc = _fresh(code, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == ["False False False", "True True False True", ""]
