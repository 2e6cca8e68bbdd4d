"""End-to-end command-line behavior, including exit codes."""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from helpers import random_overlap
from triseq import check_global_optimality, load_povm, psk_overlap, save_povm
from triseq.cli import _build_parser, main
from triseq.serialize import fmt_float


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


def test_check_true_pair(capsys):
    code = run(["check", "--ka", "0.25", "0", "--kb", "0.25", "0"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["verdict"] is True
    assert doc["branch"] == "PositiveRealB"
    assert doc["p_global"] == pytest.approx(0.9375, abs=1e-12)
    assert doc["canonical"]["shift_a"] == 0
    assert len(doc["offsets"]) == 3


def test_check_false_pair(capsys):
    code = run(["check", "--ka", "-0.2", "0", "--kb", "-0.2", "0"])
    doc = json.loads(capsys.readouterr().out)
    assert code == 1
    assert doc["verdict"] is False
    assert doc["branch"] == "Fails"
    assert doc["c1"] == pytest.approx(-0.024698924871162264, rel=1e-10)


def test_check_overlap_modes(capsys):
    assert run(["check", "--trine", "0.5"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ka"] == [0.25, 0.0]

    assert run(["check", "--psk", "0.3", "0.3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    k = psk_overlap(0.3)
    assert doc["ka"] == pytest.approx([k.real, k.imag], abs=1e-15)

    assert run(["check", "--ppm", "0.9", "0", "0", "0"]) in (0, 1)


def test_check_reads_its_own_exponent_spelling(capsys):
    code = run(["check", "--ka", "0.5", "0.1", "--kb", "0.3", "-1e-10"])
    doc = json.loads(capsys.readouterr().out)
    assert doc["kb"] == [0.3, -1e-10]
    assert doc["verdict"] == check_global_optimality(0.5 + 0.1j, 0.3 - 1e-10j).verdict
    argv = ["check", "--ka", *map(fmt_float, doc["ka"]), "--kb", *map(fmt_float, doc["kb"])]
    assert argv[-1] == "-1e-10"
    assert run(argv) == code
    again = json.loads(capsys.readouterr().out)
    assert (again["verdict"], again["branch"]) == (doc["verdict"], doc["branch"])
    assert run(["check", "--ka", "0.5", "0.1", "--kb", "0.3", "-1E-10"]) == code


def test_usage_errors():
    assert run(["check"]) == 64  # no overlap mode
    assert run(["check", "--trine", "0.5", "--psk", "1", "1"]) == 64  # two modes
    assert run(["check", "--ka", "0.2", "0"]) == 64  # --ka without --kb
    assert run([]) == 64  # missing subcommand
    assert run(["frobnicate"]) == 64


def test_parser_keeps_no_state_between_calls(tmp_path, capsys):
    refused, table = tmp_path / "refused.json", tmp_path / "copies.csv"
    argvs = [
        ["check", "--ka", "0.2", "0"],
        ["verify", "--help"],
        ["check", "--ka", "0.5", "0.1", "--kb", "0.3", "-1e-10"],
        ["construct", "--ka", "-0.2", "0", "--kb", "-0.2", "0", "--out", str(refused)],
        ["scan", "--mode", "copies", "--resolution", "3", "--n-max", "3", "--out", str(table)],
    ]
    runs = []
    for _ in range(2):
        results = []
        for argv in argvs:
            code = run(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err))
        results.append(table.read_text())
        runs.append(results)
    assert runs[0] == runs[1]
    assert [r[0] for r in runs[0][:5]] == [64, 0, 0, 1, 0]
    assert not refused.exists()
    assert _build_parser() is _build_parser()


def test_domain_errors_map_to_64():
    assert run(["check", "--ka", "1", "0", "--kb", "0.3", "0"]) == 64  # degenerate
    assert run(["check", "--ka", "-0.5", "0", "--kb", "0.3", "0"]) == 64  # rank drop
    assert run(["check", "--trine", "1.5"]) == 64
    assert run(["check", "--psk", "-1", "1"]) == 64


def test_construct_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = run([
        "construct", "--ka", "0.19021130325903071", "0.061803398874989479",
        "--kb", "0.19021130325903071", "0.061803398874989479", "--out", str(out),
    ])
    stdout = capsys.readouterr().out
    assert code == 0
    meta = json.loads(stdout)
    assert meta["branch"] == "Inequality"
    assert meta["success"] == pytest.approx(meta["p_global"], abs=1e-10)
    assert len(meta["kappa"]) == 3
    assert out.exists()

    code = run([
        "verify", str(out), "--ka", "0.19021130325903071", "0.061803398874989479",
        "--kb", "0.19021130325903071", "0.061803398874989479",
    ])
    report = capsys.readouterr().out
    assert code == 0
    assert "FAIL" not in report
    for name in ("psd", "completeness", "internal-consistency", "unambiguity",
                 "success-vs-global", "certificate"):
        assert f"ok   {name}" in report
    assert "success 0.92" in report


FIG_ARGS = ["--ka", "0.19021130325903071", "0.061803398874989479",
            "--kb", "0.19021130325903071", "0.061803398874989479"]


def test_verify_fails_cleanly_on_pair_without_canonical_form(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["construct", *FIG_ARGS, "--out", str(out)]) == 0
    capsys.readouterr()
    code = run(["verify", str(out), "--ka", "0.3", "0", "--kb", "0", "0"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL branch" in captured.out
    assert captured.err == ""


@pytest.mark.parametrize("overlaps", [
    ["--ka", "0", "0", "--kb", "0.38", "0.11"],  # ka ~ 0: canonical build
    ["--ka", "0.3", "0", "--kb", "0", "0"],  # kb ~ 0: Bob alone
    ["--ka", "0", "0", "--kb", "0", "0"],
    ["--ka", "0.3", "0", "--kb", "1.05e-9", "0"],  # too small for a strict Bob order
    ["--ka", "0", "1e-10", "--kb", "0.4", "-0.2"],  # ka tiny but nonzero
])
def test_orthogonal_routes(tmp_path, capsys, overlaps):
    out = tmp_path / "m.json"
    assert run(["construct", *overlaps, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["meta"]["branch"] == "Orthogonal"
    assert run(["verify", str(out), *overlaps]) == 0
    capsys.readouterr()
    argv = ["simulate", "--povm", str(out), "--state", "2", "--shots", "1000", "--seed", "3"]
    assert run(argv) == 0
    assert sum(json.loads(capsys.readouterr().out)["counts"]) == 1000


def _tiny(rng):
    """Overlap of modulus 10^U(-16, -9) and uniform phase: numerically zero."""
    return complex(10.0 ** rng.uniform(-16.0, -9.0) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi)))


def test_orthogonal_sweep_round_trips(tmp_path, capsys):
    rng = np.random.default_rng(29)
    pairs = [(_tiny(rng), random_overlap(rng)) for _ in range(40)]
    pairs += [(random_overlap(rng), _tiny(rng)) for _ in range(20)]
    out = tmp_path / "m.json"
    failed = []
    for ka, kb in pairs:
        overlaps = ["--ka", *map(fmt_float, (ka.real, ka.imag)),
                    "--kb", *map(fmt_float, (kb.real, kb.imag))]
        codes = [run(["construct", *overlaps, "--out", str(out)])]
        if codes == [0]:
            codes.append(run(["verify", str(out), *overlaps]))
            codes.append(run(["simulate", "--povm", str(out), "--state", "1",
                              "--shots", "100", "--seed", "5"]))
        capsys.readouterr()
        if codes != [0, 0, 0]:
            failed.append((overlaps, codes))
    assert failed == []


def test_verify_rejects_a_forged_orthogonal_label(tmp_path, capsys, psk_file):
    # Bob alone on a pair where Alice's states overlap: stamped Orthogonal,
    # it must still be held to the decision's optimum
    good = tmp_path / "good.json"
    good.write_text(psk_file)
    seq = load_povm(good).seq
    alice = np.zeros_like(seq.alice)
    alice[-1] = np.eye(3)  # defer
    forged = dataclasses.replace(seq, alice=alice, weights=(0.0, 0.0, 3.0), branch="Orthogonal")
    out = tmp_path / "forged.json"
    k = psk_overlap(0.3)
    save_povm(out, forged, k, k, 0.5)
    code = run(["verify", str(out), "--psk", "0.3", "0.3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL branch" in captured.out
    assert "FAIL success-vs-global" in captured.out
    assert captured.err == ""


def test_closed_stdout_is_not_a_verdict():
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": src}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "triseq.cli", "check",
             "--ka", "0.5", "0.1", "--kb", "0.3", "-1e-10"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert b"Traceback" not in proc.stderr
    assert proc.returncode not in (0, 1)


@pytest.mark.parametrize("argv", [
    ["construct", "--psk", "0.3", "0.3"],
    ["scan", "--mode", "copies", "--resolution", "2", "--n-max", "3"],
    ["curve", "--s-max", "0.1", "--step", "0.05"],
])
def test_unwritable_output_is_not_a_verdict(tmp_path, capsys, argv):
    out = tmp_path / "missing" / "out"
    code = run([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 73
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ")
    assert captured.err.count("\n") == 1
    assert not out.exists()


def test_construct_refuses_failing_pair(tmp_path, capsys):
    out = tmp_path / "m.json"
    code = run(["construct", "--ka", "-0.2", "0", "--kb", "-0.2", "0", "--out", str(out)])
    stdout = capsys.readouterr().out
    assert code == 1
    assert "no globally optimal sequential measurement" in stdout
    assert not out.exists()


def test_verify_detects_tampering(tmp_path, capsys):
    out = tmp_path / "m.json"
    args = ["--trine", "0.5"]
    assert run(["construct", *args, "--out", str(out)]) == 0
    capsys.readouterr()

    doc = json.loads(out.read_text())
    doc["outcomes"][0]["matrix"][0][0][0] += 1e-3
    out.write_text(json.dumps(doc))
    code = run(["verify", str(out), *args])
    report = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in report


def test_verify_unreadable_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 9, "outcomes": [')
    assert run(["verify", str(bad), "--trine", "0.5"]) == 65
    assert run(["verify", str(tmp_path / "missing.json"), "--trine", "0.5"]) == 65
    capsys.readouterr()


def test_scan_complex_grid(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    code = run(["scan", "--mode", "complex-k", "--resolution", "4", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,verdict,branch,c1,c2,p_global"
    assert len(lines) == 17  # header + 4x4
    assert any(",NA,NA,NA,NA,NA" in line for line in lines)  # |k| >= 1 corner
    assert any(",true," in line for line in lines)

    again = tmp_path / "scan2.csv"
    assert run(["scan", "--mode", "complex-k", "--resolution", "4", "--out", str(again)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == again.read_bytes()


def test_scan_psk_grid(tmp_path, capsys):
    out = tmp_path / "psk.csv"
    code = run([
        "scan", "--mode", "psk-grid", "--resolution", "3",
        "--s-min", "0.2", "--s-max", "2.0", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "sa,sb,verdict,branch,c1,c2,p_global"
    assert len(lines) == 10
    assert all(line.count(",") == 6 for line in lines)


def test_scan_copies(tmp_path, capsys):
    out = tmp_path / "copies.csv"
    code = run([
        "scan", "--mode", "copies", "--resolution", "3",
        "--s-min", "0.1", "--s-max", "3.0", "--n-max", "4", "--out", str(out),
    ])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s_total,n,sufficient"
    assert len(lines) == 10  # header + 3 grid points x n in {2,3,4}
    assert lines[1].startswith("0.10000000000000001,2,")  # 17g spelling of 0.1


def test_scan_resolution_too_small(tmp_path):
    out = tmp_path / "x.csv"
    assert run(["scan", "--mode", "complex-k", "--resolution", "1", "--out", str(out)]) == 64


@pytest.mark.parametrize("n_max", ["1", "-4"])
def test_scan_copies_needs_two_copies(tmp_path, capsys, n_max):
    out = tmp_path / "x.csv"
    argv = ["scan", "--mode", "copies", "--resolution", "3", "--n-max", n_max, "--out", str(out)]
    assert run(argv) == 64
    assert "--n-max must be at least 2" in capsys.readouterr().err
    assert not out.exists()


def test_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run(["curve", "--s-max", "0.2", "--step", "0.05", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "s,p_global,verdict,p_seq"
    assert len(lines) == 5
    for line in lines[1:]:
        s, p_global, verdict, p_seq = line.split(",")
        assert verdict == "true"  # all far below the first boundary
        ref = check_global_optimality(psk_overlap(float(s)), psk_overlap(float(s)))
        assert float(p_global) == pytest.approx(ref.p_global, rel=1e-12)
        assert float(p_seq) == pytest.approx(ref.p_global, abs=1e-9)
    assert run(["curve", "--s-max", "1.0", "--step", "0", "--out", str(out)]) == 64
    for s_max, step in (("1.0", "nan"), ("inf", "0.1"), ("nan", "0.1")):
        assert run(["curve", "--s-max", s_max, "--step", step, "--out", str(out)]) == 64
    assert run(["curve", "--mode", "psk-global", "--s-max", "0.2", "--step", "0.05",
                "--out", str(out)]) == 64  # the one-choice option is gone


def test_curve_leaves_p_seq_empty_when_false(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    code = run(["curve", "--s-max", "1.0", "--step", "0.5", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    by_s = {row[0]: row for row in rows}
    assert by_s["1"][2] == "false" and by_s["1"][3] == ""
    assert by_s["0.5"][2] == "true" and by_s["0.5"][3] != ""


def test_simulate(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["construct", "--trine", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()

    argv = ["simulate", "--povm", str(out), "--state", "1", "--shots", "50000", "--seed", "7"]
    assert run(argv) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["labels"] == ["0", "1", "2", "inconclusive"]
    assert sum(doc["counts"]) == 50000
    assert doc["counts"][0] == 0 and doc["counts"][2] == 0  # unambiguous
    assert doc["counts"][1] > 0
    assert sum(doc["probs"]) == pytest.approx(1.0, abs=1e-10)

    assert run(argv) == 0
    again = json.loads(capsys.readouterr().out)
    assert again["counts"] == doc["counts"]


def test_simulate_bad_arguments(tmp_path, capsys):
    out = tmp_path / "m.json"
    assert run(["construct", "--trine", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    assert run(["simulate", "--povm", str(out), "--state", "5", "--shots", "10",
                "--seed", "0"]) == 64
    assert run(["simulate", "--povm", str(out), "--state", "0", "--shots", "-1",
                "--seed", "0"]) == 64
    assert run(["simulate", "--povm", str(tmp_path / "no.json"), "--state", "0",
                "--shots", "10", "--seed", "0"]) == 65
    # the arguments are checked before the file is read
    assert run(["simulate", "--povm", str(tmp_path / "no.json"), "--state", "0",
                "--shots", "1", "--seed", "-1"]) == 64
    assert run(["verify", str(tmp_path / "no.json"), "--ka", "0.5", "0.1"]) == 64
    capsys.readouterr()


@pytest.mark.parametrize("shots, seed, message", [
    ("10", "-1", "--seed must be >= 0"),
    (str(2**63), "0", f"--shots must be at most {2**63 - 1}"),
])
def test_simulate_out_of_range_is_a_usage_error(tmp_path, capsys, shots, seed, message):
    out = tmp_path / "m.json"
    assert run(["construct", "--trine", "0.5", "--out", str(out)]) == 0
    capsys.readouterr()
    argv = ["simulate", "--povm", str(out), "--state", "0", "--shots", shots, "--seed", seed]
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines()[-1] == f"error: {message}"

    # the largest count numpy's multinomial takes still runs
    argv = ["simulate", "--povm", str(out), "--state", "0", "--shots", str(2**63 - 1),
            "--seed", "0"]
    assert run(argv) == 0
    assert sum(json.loads(capsys.readouterr().out)["counts"]) == 2**63 - 1


@pytest.fixture(scope="module")
def psk_file(tmp_path_factory):
    """Text of the measurement file `construct --psk 0.3 0.3` writes."""
    out = tmp_path_factory.mktemp("psk") / "m.json"
    assert main(["construct", "--psk", "0.3", "0.3", "--out", str(out)]) == 0
    return out.read_text()


def _set(path, value):
    def mutate(doc):
        node = doc
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return doc
    return mutate


def _edit(mutate):
    return lambda text: json.dumps(mutate(json.loads(text))).encode()


def _dim_overflow(text):
    assert '"dim":9,' in text
    return text.replace('"dim":9,', '"dim":1e400,').encode()


def _ragged(doc):
    doc["outcomes"][1]["matrix"][4].pop()
    return doc


def _no_bob_defer(doc):
    del doc["sequential"]["bob"]["defer"]
    return doc


def _two_by_two(doc):
    alice = doc["sequential"]["alice"]
    alice["exclude2"] = [row[:2] for row in alice["exclude2"][:2]]
    return doc


# each maps the text of a good file to the bytes of a bad one
MALFORMED = {
    "entry_object": _edit(_set(["outcomes", 0, "matrix", 0, 0], {"re": 1.0, "im": 0.0})),
    "outcomes_not_list": _edit(_set(["outcomes"], 5)),
    "dim_overflow": _dim_overflow,
    "huge_int_entry": _edit(_set(["outcomes", 0, "matrix", 0, 0, 0], 10**400)),
    "three_numbers": _edit(_set(["sequential", "alice", "announce0", 0, 0], [1.0, 0.0, 7.0])),
    "string_numbers": _edit(_set(["sequential", "bob", "exclude1", 2, 0, 0], ["1.0", "0"])),
    "bool_entry": _edit(_set(["outcomes", 2, "matrix", 1, 1, 0], True)),
    "null_entry": _edit(_set(["outcomes", 3, "matrix", 0, 0], None)),
    "nan_entry": _edit(_set(["sequential", "alice", "defer", 2, 2, 0], float("nan"))),
    "ragged_row": _edit(_ragged),
    "wrong_shape": _edit(_two_by_two),
    "missing_label": _edit(_no_bob_defer),
    "non_object": _edit(lambda doc: [1, 2, 3]),
    "meta_ka_three_numbers": _edit(_set(["meta", "ka"], [0.3, 0.0, 1.0])),
    "kappa_huge_int": _edit(_set(["meta", "kappa"], [10**400, 0.0, 0.0])),
    "kappa_string_bool": _edit(_set(["meta", "kappa"], ["1.5", True])),
    "kappa_two_numbers": _edit(_set(["meta", "kappa"], [0.25, 0.5])),
    "label_not_string": _edit(_set(["outcomes", 0, "label"], 0)),
    "meta_pairs": _edit(lambda doc: {**doc, "meta": list(doc["meta"].items())}),
    "branch_number": _edit(_set(["meta", "branch"], 7)),
    "branch_null": _edit(_set(["meta", "branch"], None)),
    "branch_unknown": _edit(_set(["meta", "branch"], "Bogus")),
    "success_string": _edit(_set(["meta", "success"], "lots")),
    "success_list": _edit(_set(["meta", "success"], [0.5])),
    "not_utf8": lambda text: b"\xff" + text.encode(),
    "deep_nesting": lambda text: b"[" * 100_000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_malformed_file_is_unreadable(tmp_path, capsys, psk_file, name):
    bad = tmp_path / "bad.json"
    bad.write_bytes(MALFORMED[name](psk_file))
    for argv in (["verify", str(bad), "--psk", "0.3", "0.3"],
                 ["simulate", "--povm", str(bad), "--state", "0", "--shots", "10", "--seed", "0"]):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 65, (argv[0], captured.err)
        assert captured.out == ""
        assert captured.err.startswith("cannot load measurement file: ")
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err


def test_loader_names_the_failing_piece(tmp_path, capsys, psk_file):
    bad = tmp_path / "bad.json"
    for path, name in ((["outcomes", 2, "matrix", 1, 1, 0], "outcome 2"),
                       (["sequential", "alice", "exclude0", 1, 1, 0], "alice exclude0"),
                       (["sequential", "bob", "announce1", 3, 1, 1, 0], "bob announce1"),
                       (["meta"], "meta"),
                       (["meta", "branch"], "meta branch"),
                       (["meta", "success"], "meta success")):
        bad.write_text(json.dumps(_set(path, "0.5")(json.loads(psk_file))))
        assert run(["verify", str(bad), "--psk", "0.3", "0.3"]) == 65
        assert f"cannot load measurement file: {name}: " in capsys.readouterr().err


def test_readable_invalid_file_is_not_an_internal_error(tmp_path, capsys, psk_file):
    # a non-Hermitian outcome fails verify's psd check
    doc = json.loads(psk_file)
    doc["outcomes"][0]["matrix"][0][1] = [0.3, 0.0]
    bad = tmp_path / "skew.json"
    bad.write_text(json.dumps(doc))
    code = run(["verify", str(bad), "--psk", "0.3", "0.3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL psd: outcome 0: symmetry residual" in captured.out
    assert captured.err == ""

    # the stacked check names the failing outcome by its label
    doc = json.loads(psk_file)
    doc["outcomes"][3]["matrix"][0][1] = [0.3, 0.0]
    bad.write_text(json.dumps(doc))
    code = run(["verify", str(bad), "--psk", "0.3", "0.3"])
    captured = capsys.readouterr()
    assert code == 1
    assert "FAIL psd: outcome inconclusive: symmetry residual" in captured.out
    assert captured.err == ""

    # outcome probabilities that do not sum to one make simulate refuse the file
    doc = json.loads(psk_file)
    for i in range(9):
        doc["outcomes"][0]["matrix"][i][i][0] += 0.2
    bad = tmp_path / "heavy.json"
    bad.write_text(json.dumps(doc))
    code = run(["simulate", "--povm", str(bad), "--state", "0", "--shots", "10", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("invalid measurement file: outcome probabilities sum to")
    assert len(captured.err.splitlines()) == 1

    # meta overlaps outside the state domain are the file's fault, not the command line's
    doc = json.loads(psk_file)
    doc["meta"]["ka"] = [1.5, 0.0]
    bad = tmp_path / "far.json"
    bad.write_text(json.dumps(doc))
    code = run(["simulate", "--povm", str(bad), "--state", "0", "--shots", "10", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err.startswith("invalid measurement file: meta overlaps: |K| = 1.5 exceeds 1")
    assert len(captured.err.splitlines()) == 1


def test_certificate_fails_a_nan_margin(tmp_path, capsys, psk_file):
    # a huge finite entry overflows announce0's kernel residual to NaN
    doc = json.loads(psk_file)
    doc["sequential"]["alice"]["announce0"][0][0] = [1e308, 0.0]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code = run(["verify", str(bad), "--psk", "0.3", "0.3"])
    captured = capsys.readouterr()
    assert code == 1
    (line,) = [ln for ln in captured.out.splitlines() if " certificate: " in ln]
    assert line.startswith("FAIL certificate: ")
    assert "announce0: kernel residual nan" in line
    assert captured.err == ""
