"""End-to-end command-line behavior, including exit codes."""

import cmath
import contextlib
import functools
import io
import itertools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from helpers import packed, random_overlap
from triseq import (
    LABELS,
    check_global_optimality,
    frame,
    joint_states,
    load_povm,
    psk_overlap,
    save_povm,
)
from triseq.cli import _COMMANDS, _build_parser, main
from triseq.errors import TriseqError
from triseq.serialize import fmt_float
from triseq.states import TAU


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


def _full_parse(argv):
    """The reference for main's parse: the top-level parser reads all of argv,
    its subparsers action hands the rest to the command's parser, then the
    command runs."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args, parser)
    except SystemExit as exc:
        return exc.code


def test_a_command_parses_its_argv_as_the_full_parse_does(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # usage and help wrap to the terminal width
    monkeypatch.chdir(tmp_path)
    pair = ["--ka", "0.19", "0.062", "--kb", "0.27", "0.13"]
    assert run(["construct", *pair, "--out", "m.json"]) == 0
    capsys.readouterr()
    argvs = [
        ["check", *pair, "extra", "--bogus", "-1"],  # tokens the command leaves
        ["construct", "-h"],
        ["verify", "--he"],  # an abbreviation of --help
        ["construct", *pair, "--ou", "out.json"],  # and of --out
        ["verify", *pair, "--", "m.json"],
        ["check", "--ka", "0.5", "0.1", "--kb", "0.3", "-1e-10"],
        ["check", "--ka", "0.5", "0.1", "--kb", "-1E-10", "0.3"],
        ["construct", *pair],  # --out missing
        ["simulate", "--povm", "m.json", "--state", "0", "--shots", "10"],  # --seed missing
        ["--help"],
        [],
        ["frobnicate", *pair],
    ]
    out = Path("out.json")
    for argv in argvs:
        results = []
        for parse in (run, _full_parse):
            out.unlink(missing_ok=True)
            code = parse(argv)
            captured = capsys.readouterr()
            results.append((code, captured.out, captured.err,
                            out.read_bytes() if out.exists() else None))
        assert results[0] == results[1], argv
    # a command's argv never reaches the top-level parse
    monkeypatch.setattr(_build_parser(), "parse_args", None)
    assert run(["check", *pair]) == 0
    assert run(["check", *pair, "extra"]) == 64


def test_domain_errors_map_to_64():
    assert run(["check", "--ka", "1", "0", "--kb", "0.3", "0"]) == 64  # degenerate
    assert run(["check", "--ka", "-0.5", "0", "--kb", "0.3", "0"]) == 64  # rank drop
    assert run(["check", "--trine", "1.5"]) == 64
    assert run(["check", "--psk", "-1", "1"]) == 64
    # |alpha|^2 beyond the float range
    assert run(["check", "--ppm", "1e200", "0", "0", "0"]) == 64
    assert run(["check", "--ppm", "1e200", "0", "1e200", "0"]) == 64
    assert run(["construct", "--ppm", "1e200", "0", "0", "0", "--out", os.devnull]) == 64
    # nearly equal amplitudes: the exponent cancels and rounds to a huge positive value
    assert run(["check", "--ppm", "1.5654550644419112e+115", "-9.639535358635898e+114",
                "1.5654550644419116e+115", "-9.639535358635913e+114"]) == 64


def test_rank_deficient_tells_a_negative_radicand_from_a_zero(capsys):
    # K = -0.6 leaves a radicand of -1/15: no states have that overlap; at
    # K = -1/2 one radicand is exactly 0, the edge of the state domain
    assert run(["check", "--ka", "-0.6", "0", "--kb", "0.3", "0"]) == 64
    assert capsys.readouterr().err == (
        "error: squared amplitudes (-0.06666666666666665, 0.5333333333333335,"
        " 0.5333333333333331) include a negative: no states have this overlap\n")
    assert run(["check", "--ka", "-0.5", "0", "--kb", "0.3", "0"]) == 64
    assert capsys.readouterr().err == (
        "error: squared amplitudes (0.0, 0.5000000000000001, 0.4999999999999997)"
        " include a numerical zero\n")


def test_untyped_package_error_is_internal(monkeypatch, capsys):
    def broken(args, parser):
        raise TriseqError("no handler maps this")

    monkeypatch.setitem(_COMMANDS, "check", broken)
    assert run(["check", "--ka", "0.25", "0", "--kb", "0.25", "0"]) == 2
    captured = capsys.readouterr()
    assert captured.err == "internal error: no handler maps this\n"
    assert captured.out == ""


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
    for name in ("psd", "completeness", "unambiguity", "success-vs-global", "certificate"):
        assert f"ok   {name}" in report
    assert "internal-consistency" not in report  # the file states the measurement once
    assert "success 0.92" in report


FIG_K = 0.19021130325903071 + 0.061803398874989479j
FIG_ARGS = ["--ka", "0.19021130325903071", "0.061803398874989479",
            "--kb", "0.19021130325903071", "0.061803398874989479"]


def test_verify_gates_sit_at_their_tolerances(tmp_path, capsys):
    # each edit adds s |v><v| to Bob's outcome k after one Alice label, so
    # that piece moves by s: its least eigenvalue and Bob's completeness
    # after that label by up to s, and outcome k on state j by
    # s <a_j|A_l|a_j> |<b_j|v>|^2, where <a_j|A_l|a_j> is 0.69 for announce j;
    # every value a case moves lands 14x to 200x beyond or inside its bound,
    # so a bound a thousand times looser or tighter changes which checks fail
    good = tmp_path / "m.json"
    assert run(["construct", *FIG_ARGS, "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    seq = load_povm(good).seq
    b = frame(FIG_K, FIG_K)[1].b  # Bob's states, unit rows
    e0 = np.eye(3)[0]
    cases = [
        ("defer", 3, e0, 3e-9, {"completeness"}),
        ("defer", 3, e0, 3e-12, set()),
        ("announce1", 0, b[2], -3e-11, {"psd"}),  # Bob's piece is 0, A_1 a_2 is rounding
        ("announce1", 0, b[2], -3e-14, set()),
        ("announce1", 0, b[1], 3e-9, {"unambiguity", "completeness"}),
        ("announce1", 0, b[1], 2e-12, set()),
        ("announce0", 0, b[0], 1e-8, {"success-vs-global", "completeness"}),
        ("announce0", 0, b[0], 2e-12, set()),
    ]
    bad = tmp_path / "bad.json"
    for label, k, v, s, failed in cases:
        edited = json.loads(json.dumps(doc))
        op = seq.bob[LABELS.index(label), k] + s * np.outer(v, v.conj())
        edited["sequential"]["bob"][label][k] = packed(op)
        bad.write_text(json.dumps(edited))
        code = run(["verify", str(bad), *FIG_ARGS])
        lines = capsys.readouterr().out.splitlines()
        assert {ln[5:].split(":")[0] for ln in lines if ln.startswith("FAIL")} == failed, (k, s)
        assert code == (1 if failed else 0)


@pytest.mark.parametrize("overlaps", [
    FIG_ARGS,  # Inequality
    ["--ka", "0.25", "0", "--kb", "0", "0.2"],  # PositiveRealA
    ["--ka", "0.3", "0", "--kb", "0.25", "0"],  # PositiveRealB
    ["--ka", "0", "0", "--kb", "0.38", "0.11"],  # Orthogonal, canonical build
    ["--ka", "0.3", "0", "--kb", "0", "0"],  # Orthogonal, Bob alone
])
def test_verify_refuses_a_skewed_bob_piece_under_every_label(tmp_path, capsys, overlaps):
    # Re H01 of Bob's piece moved by 1e-3 breaks his measurement after that
    # label, whether or not Alice ever announces it: verify checks each piece
    good, bad = tmp_path / "m.json", tmp_path / "bad.json"
    assert run(["construct", *overlaps, "--out", str(good)]) == 0
    assert run(["verify", str(good), *overlaps]) == 0
    doc = json.loads(good.read_text())
    for label, r in itertools.product(LABELS, range(4)):
        edited = json.loads(json.dumps(doc))
        edited["sequential"]["bob"][label][r][3] += 1e-3
        bad.write_text(json.dumps(edited))
        assert run(["verify", str(bad), *overlaps]) == 1, (label, r)
    capsys.readouterr()


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


def test_positive_real_a_beside_bob_top_tie_round_trips(tmp_path, capsys):
    # ka on Alice's positive-real orbit (her lower two amplitudes tie) and kb on
    # the negative-real orbit (Bob's top two tie) or just off it, where the
    # weight system is near-singular: check exit 0 must bring construct exit 0,
    # then verify exit 0
    rng = np.random.default_rng(43)
    pairs = [(0.5, -0.3)]
    for _ in range(60):
        ka = TAU ** int(rng.integers(3)) * rng.uniform(0.02, 0.95)
        off = 0.0 if rng.random() < 0.25 else 10.0 ** rng.uniform(-14.0, -5.0)
        off *= rng.choice((-1.0, 1.0))
        kb = -rng.uniform(0.02, 0.49) * TAU ** int(rng.integers(3)) * cmath.exp(1j * off)
        pairs.append((complex(ka), complex(kb)))
    out = tmp_path / "m.json"
    checked, failed = 0, []
    for ka, kb in pairs:
        overlaps = ["--ka", *map(fmt_float, (ka.real, ka.imag)),
                    "--kb", *map(fmt_float, (kb.real, kb.imag))]
        codes = [run(["check", *overlaps])]
        if codes == [0]:
            checked += 1
            codes.append(run(["construct", *overlaps, "--out", str(out)]))
            if codes[-1] == 0:
                codes.append(run(["verify", str(out), *overlaps]))
            if codes != [0, 0, 0]:
                failed.append((overlaps, codes))
        capsys.readouterr()
    assert checked >= 40
    assert failed == []


def test_inequality_pair_beside_bob_tie_axis_round_trips(tmp_path, capsys):
    # kb 6.0e-9 rad off the -2pi/3 axis: the defer witness keeps a kernel of
    # two dimensions to rounding, which optimality does not ask about
    overlaps = ["--ka", "-0.46690178432531976", "0.3416879238840304",
                "--kb", "-0.08221065186351635", "-0.14239302792801733"]
    out = tmp_path / "m.json"
    assert run(["construct", *overlaps, "--out", str(out)]) == 0
    assert json.loads(capsys.readouterr().out)["branch"] == "Inequality"
    assert run(["verify", str(out), *overlaps]) == 0
    assert "FAIL" not in capsys.readouterr().out


def test_verify_rejects_a_forged_orthogonal_label(tmp_path, capsys, psk_file):
    # Bob alone on a pair where Alice's states overlap: stamped Orthogonal,
    # it must still be held to the decision's optimum
    good = tmp_path / "good.json"
    good.write_text(psk_file)
    seq = load_povm(good).seq
    alice = np.zeros_like(seq.alice)
    alice[-1] = np.eye(3)  # defer
    forged = seq._replace(alice=alice, weights=(0.0, 0.0, 3.0), branch="Orthogonal")
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


_WRITERS = [
    ["construct", "--psk", "0.3", "0.3"],
    ["scan", "--mode", "copies", "--resolution", "2", "--n-max", "3"],
    ["curve", "--s-max", "0.1", "--step", "0.05"],
]


@pytest.mark.parametrize("argv", _WRITERS)
def test_output_over_a_longer_file_is_cut_to_length(tmp_path, capsys, argv):
    # --out writes over the old bytes in place and cuts the file at the new
    # length: nothing of 64 KiB of junk is left
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    target.write_bytes(bytes(range(256)) * 256)
    assert run([*argv, "--out", str(fresh)]) == 0
    assert run([*argv, "--out", str(target)]) == 0
    capsys.readouterr()
    assert target.read_bytes() == fresh.read_bytes()


def test_output_to_a_device_or_a_pipe(tmp_path, capsys):
    # /dev/null and a pipe are not regular files: written, never cut
    argv = ["construct", "--psk", "0.3", "0.3", "--out"]
    assert run([*argv, "/dev/null"]) == 0
    assert json.loads(capsys.readouterr().out)["out"] == "/dev/null"
    assert run([*argv, str(tmp_path / "m.json")]) == 0
    capsys.readouterr()
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run([sys.executable, "-m", "triseq.cli", *argv, "/dev/stdout"],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    written, report = proc.stdout.decode().splitlines()
    assert (written + "\n").encode() == (tmp_path / "m.json").read_bytes()
    assert json.loads(written)["format"] == 3
    assert json.loads(report)["out"] == "/dev/stdout"


def test_output_keeps_the_inode_mode_and_links(tmp_path, capsys):
    out, link = tmp_path / "m.json", tmp_path / "link.json"
    out.write_bytes(b"x" * 65536)
    out.chmod(0o600)
    link.symlink_to(out)
    before = out.stat()
    for target in (out, link):
        assert run(["construct", "--psk", "0.3", "0.3", "--out", str(target)]) == 0
        capsys.readouterr()
        after = out.stat()
        assert after.st_ino == before.st_ino
        assert after.st_mode == before.st_mode  # a regular file, still 0o600
        assert link.is_symlink()
    assert json.loads(out.read_text())["format"] == 3


@pytest.mark.parametrize("argv", _WRITERS)
def test_directory_output_is_not_a_verdict(tmp_path, capsys, argv):
    code = run([*argv, "--out", str(tmp_path)])
    captured = capsys.readouterr()
    assert code == 73
    assert captured.out == ""
    assert captured.err.startswith("cannot write output: ")
    assert captured.err.count("\n") == 1


def test_a_failed_write_leaves_a_prefix_of_the_new_text(tmp_path, capsys, monkeypatch):
    # each raw write takes at most 1000 bytes, as a pipe may; then the disk
    # fills after the first of them: the file holds those 1000 new bytes and
    # nothing of the old 64 KiB
    fresh, target = tmp_path / "fresh", tmp_path / "target"
    argv = ["construct", "--psk", "0.3", "0.3", "--out"]
    assert run([*argv, str(fresh)]) == 0
    new = fresh.read_bytes()
    assert len(new) > 2000
    real_write, calls = os.write, []

    def write(fd, data):
        calls.append(len(data))
        if fail and len(calls) > 1:
            raise OSError(28, "No space left on device")
        return real_write(fd, data[:1000])

    for fail in (False, True):
        target.write_bytes(b"\xff" * 65536)
        calls.clear()
        capsys.readouterr()
        with monkeypatch.context() as patch:
            patch.setattr(os, "write", write)
            code = run([*argv, str(target)])
        captured = capsys.readouterr()
        if fail:
            assert code == 73
            assert captured.err == "cannot write output: [Errno 28] No space left on device\n"
            assert target.read_bytes() == new[:1000]
        else:
            assert code == 0
            assert len(calls) == -(-len(new) // 1000)
            assert target.read_bytes() == new


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
    doc["sequential"]["bob"]["announce0"][0][0] += 1e-3  # H00 of Bob's outcome 0
    out.write_text(json.dumps(doc))
    code = run(["verify", str(out), *args])
    report = capsys.readouterr().out
    assert code == 1
    assert "FAIL" in report


def test_verify_unreadable_file(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"dim": 9, "format": 3, "meta": {')
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


def test_scan_copies_degenerate_signal_is_na(tmp_path, capsys):
    out = tmp_path / "copies.csv"
    argv = ["scan", "--mode", "copies", "--resolution", "2", "--s-min", "0", "--s-max", "1",
            "--n-max", "3", "--out", str(out)]
    assert run(argv) == 0
    capsys.readouterr()
    lines = out.read_text().splitlines()
    assert lines[1:3] == ["0,2,NA", "0,3,NA"]  # zero photons: every signal coincides


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


def test_each_command_decides_once(tmp_path, capsys, monkeypatch):
    # a validation computes both overlaps' amplitudes: two _amplitudes calls.
    # construct, verify and simulate decide the pair once each, and curve each
    # row once, its build sharing that row's decision; on the Orthogonal branch
    # too, with and without a canonical form
    import triseq.states

    calls = []
    amplitudes = triseq.states._amplitudes
    monkeypatch.setattr(triseq.states, "_amplitudes", lambda k: calls.append(k) or amplitudes(k))
    path = str(tmp_path / "m.json")
    for pair in (["--ka", "0.19", "0.062", "--kb", "0.27", "0.13"],
                 ["--ka", "1e-12", "0", "--kb", "0.3", "0.1"],
                 ["--ka", "0.3", "0.1", "--kb", "1e-12", "0"]):
        for argv in (["construct", *pair, "--out", path], ["verify", path, *pair],
                     ["simulate", "--povm", path, "--state", "0", "--shots", "10", "--seed", "1"]):
            calls.clear()
            assert run(argv) == 0, argv
            assert len(calls) == 2, argv
    calls.clear()
    assert run(["curve", "--s-max", "3", "--step", "0.01", "--out", str(tmp_path / "c.csv")]) == 0
    assert len(calls) == 2 * 300
    assert capsys.readouterr().out.endswith("wrote 300 rows to " + str(tmp_path / "c.csv") + "\n")


def test_curve_stops_past_s_max(tmp_path, capsys):
    # count = int(0.18 / 0.04 + 0.5) = 5, but 5 * 0.04 = 0.2 lies past
    # 0.18 + 0.04 / 2 = 0.19999999999999998, so the fifth row is not written
    out = tmp_path / "curve.csv"
    assert run(["curve", "--s-max", "0.18", "--step", "0.04", "--out", str(out)]) == 0
    capsys.readouterr()
    s = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
    assert s == ["0.040000000000000001", "0.080000000000000002", "0.12", "0.16"]


def test_curve_degenerate_rows_are_na(tmp_path, capsys):
    # signals this weak overlap within TOL.degenerate of 1
    out = tmp_path / "curve.csv"
    assert run(["curve", "--s-max", "2e-13", "--step", "1e-13", "--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_text().splitlines()[1:] == ["1e-13,NA,NA,", "2.0000000000000001e-13,NA,NA,"]


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
    piece = doc["sequential"]["bob"]["exclude0"][1]
    doc["sequential"]["bob"]["exclude0"][1] = [piece[:3], piece[3:6], piece[6:]]
    return doc


def _short_piece(doc):
    doc["sequential"]["bob"]["exclude0"][1].pop()
    return doc


def _no_bob_defer(doc):
    del doc["sequential"]["bob"]["defer"]
    return doc


def _two_by_two(doc):
    alice = doc["sequential"]["alice"]
    d0, d1, _, r01, i01, *_ = alice["exclude2"]
    alice["exclude2"] = [d0, d1, r01, i01]
    return doc


# each maps the text of a good file to the bytes of a bad one; three_numbers,
# ragged_row, wrong_shape and nested_in_format3 damage the nesting of a piece
MALFORMED = {
    "entry_object": _edit(_set(["sequential", "bob", "defer", 0, 0], {"re": 1.0, "im": 0.0})),
    "dim_overflow": _dim_overflow,
    "huge_int_entry": _edit(_set(["sequential", "alice", "announce2", 0], 10**400)),
    "three_numbers": _edit(_set(["sequential", "alice", "announce0", 0], [1.0, 0.0, 7.0])),
    "ten_numbers": _edit(lambda doc: _set(["sequential", "alice", "announce0"],
                                          doc["sequential"]["alice"]["announce0"] + [7.0])(doc)),
    "string_numbers": _edit(_set(["sequential", "bob", "exclude1", 2, 0], "1.0")),
    "bool_entry": _edit(_set(["sequential", "bob", "announce2", 2, 4], True)),
    "null_entry": _edit(_set(["sequential", "alice", "exclude1", 0], None)),
    "nan_entry": _edit(_set(["sequential", "alice", "defer", 2], float("nan"))),
    "ragged_row": _edit(_ragged),
    "short_piece": _edit(_short_piece),
    "wrong_shape": _edit(_two_by_two),
    # a piece as the [re, im] rows of format 2, and the nine numbers under format 2
    "nested_in_format3": _edit(_set(["sequential", "alice", "defer"], [[[0.5, 0.0]] * 3] * 3)),
    "packed_in_format2": _edit(_set(["format"], 2)),
    "missing_label": _edit(_no_bob_defer),
    "non_object": _edit(lambda doc: [1, 2, 3]),
    "meta_ka_three_numbers": _edit(_set(["meta", "ka"], [0.3, 0.0, 1.0])),
    "kappa_huge_int": _edit(_set(["meta", "kappa"], [10**400, 0.0, 0.0])),
    "kappa_string_bool": _edit(_set(["meta", "kappa"], ["1.5", True])),
    "kappa_two_numbers": _edit(_set(["meta", "kappa"], [0.25, 0.5])),
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

    def message(*edits):
        doc = json.loads(psk_file)
        for edit in edits:
            doc = edit(doc)
        bad.write_text(json.dumps(doc).replace('"1e400"', "1e400"))
        assert run(["verify", str(bad), "--psk", "0.3", "0.3"]) == 65
        return capsys.readouterr().err

    for path, name in ((["meta"], "meta"),
                       (["meta", "branch"], "meta branch"),
                       (["meta", "success"], "meta success")):
        assert f"cannot load measurement file: {name}: " in message(_set(path, "0.5"))

    # each kind of bad entry, and a short row, in each block
    head = "cannot load measurement file:"
    overflow = f"{head} missing or malformed field: int too large to convert to float\n"
    for row, name, shape in ((["sequential", "alice", "exclude0"], "alice exclude0", "(9,)"),
                             (["sequential", "bob", "announce1", 3], "bob announce1", "(4, 9)"),
                             (["sequential", "bob", "defer", 3], "bob defer", "(4, 9)")):
        numbers = f"{head} {name}: expected a {shape} array of numbers\n"
        for value, want in ((True, numbers), (None, numbers), ("0.5", numbers),
                            ("1e400", f"{head} {name}: non-finite entries\n"),
                            (10**400, overflow)):
            assert message(_set([*row, 4], value)) == want, (name, value)
        full = functools.reduce(operator.getitem, row, json.loads(psk_file))
        assert message(_set(row, full[:-1])) == numbers, name

    # two bad pieces: the one read first, piece by piece in label order, is named
    two = message(_set(["sequential", "alice", "announce1", 0], None),
                  _set(["sequential", "bob", "announce0", 0, 0], None))
    assert two.startswith(f"{head} bob announce0: "), two

    # Bob's 28 rows, one moved from defer to exclude0, are still 28 of nine numbers
    def moved(doc):
        bob = doc["sequential"]["bob"]
        bob["exclude0"].append(bob["defer"].pop())
        return doc

    assert message(moved) == f"{head} bob exclude0: expected a (4, 9) array of numbers\n"


def _no_format_key(doc):
    del doc["format"]
    return doc


# format 2 and version 1 (no format key) are refused, however their pieces are spelled
_REWRITE = "; construct with the file's meta overlaps writes format 3"
REFUSED = {
    "format_4": (_set(["format"], 4), f"format: expected 3, got 4{_REWRITE}"),
    "format_2": (_set(["format"], 2), f"format: expected 3, got 2{_REWRITE}"),
    "format_1": (_set(["format"], 1), f"format: expected 3, got 1{_REWRITE}"),
    "no_format_key": (_no_format_key, f"format: expected 3, got no key{_REWRITE}"),
}


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_disagreeing_version1_block_and_unknown_format_are_refused(tmp_path, capsys, psk_file,
                                                                   name):
    edit, cause = REFUSED[name]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(edit(json.loads(psk_file))))
    for argv in (["verify", str(bad), "--psk", "0.3", "0.3"],
                 ["simulate", "--povm", str(bad), "--state", "0", "--shots", "10", "--seed", "0"]):
        code = run(argv)
        captured = capsys.readouterr()
        assert code == 65, argv[0]
        assert captured.out == ""
        assert captured.err == f"cannot load measurement file: {cause}\n"


def test_readable_invalid_file_is_not_an_internal_error(tmp_path, capsys, psk_file):
    # outcome probabilities that do not sum to one make simulate refuse the file
    # (Bob's outcome 0 gains 0.2 I after every label, so outcome 0 gains 0.2 I)
    doc = json.loads(psk_file)
    for pieces in doc["sequential"]["bob"].values():
        for i in range(3):
            pieces[0][i] += 0.2
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


# finite parts whose modulus overflows the float range count as |K| > 1
_OVERFLOW_REFUSED = "error: |K| = inf exceeds 1: no states have this overlap\n"
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(_FINITE, _FINITE, _FINITE, _FINITE)
@example(1.7e308, 1.7e308, 0.1, 0.1)
@example(0.1, 0.1, -1.7e308, 1e308)
def test_check_decides_or_refuses_every_finite_pair(are, aim, bre, bim):
    argv = ["check", "--ka", repr(are), repr(aim), "--kb", repr(bre), repr(bim)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 64), (argv, err.getvalue())
    assert (code == 64) == (err.getvalue() != "")


@pytest.mark.parametrize("command", ["check", "construct", "verify"])
def test_overlap_whose_modulus_overflows_is_refused(tmp_path, capsys, psk_file, command):
    path = tmp_path / "m.json"
    path.write_text(psk_file)
    argv = {
        "check": ["check"],
        "construct": ["construct", "--out", str(tmp_path / "new.json")],
        "verify": ["verify", str(path)],
    }[command] + ["--ka", "1.7e308", "1.7e308", "--kb", "0.1", "0.1"]
    assert run(argv) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", _OVERFLOW_REFUSED)
    assert not (tmp_path / "new.json").exists()


def test_scan_writes_na_where_the_modulus_overflows(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    argv = ["scan", "--mode", "complex-k", "--resolution", "2", "--re-min", "0",
            "--re-max", "1.7e308", "--im-min", "0", "--im-max", "1.7e308", "--out", str(out)]
    assert run(argv) == 0
    assert capsys.readouterr().out == f"wrote 4 rows to {out}\n"
    lines = out.read_text().splitlines()
    assert lines[1].startswith("0,0,true,Orthogonal,")
    big = fmt_float(1.7e308)
    assert lines[2:] == [f"0,{big},NA,NA,NA,NA,NA", f"{big},0,NA,NA,NA,NA,NA",
                         f"{big},{big},NA,NA,NA,NA,NA"]


def test_scan_grid_between_far_finite_bounds_stays_finite(tmp_path, capsys):
    # hi - lo, or i (hi - lo), overflows here although both bounds are finite
    out = tmp_path / "scan.csv"
    big = fmt_float(1.7e308)
    assert run(["scan", "--mode", "complex-k", "--resolution", "2", "--re-min", "-1.7e308",
                "--re-max", "1.7e308", "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert out.read_text().splitlines()[1:] == [
        f"{re},{im},NA,NA,NA,NA,NA" for re in ("-" + big, big) for im in ("-0.87", "0.87")
    ]

    assert run(["scan", "--mode", "psk-grid", "--s-min", "0", "--s-max", "1.7e308",
                "--resolution", "3", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().splitlines()[1:]]
    assert sorted({float(row[0]) for row in rows}) == [0.0, 8.5e307, 1.7e308]
    assert all(math.isfinite(float(row[1])) for row in rows)


def test_simulate_refuses_meta_overlaps_whose_modulus_overflows(tmp_path, capsys, psk_file):
    doc = json.loads(psk_file)
    doc["meta"]["ka"] = [1.7e308, 1.7e308]
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code = run(["simulate", "--povm", str(bad), "--state", "0", "--shots", "10", "--seed", "0"])
    captured = capsys.readouterr()
    assert code == 65
    assert captured.out == ""
    assert captured.err == ("invalid measurement file: meta overlaps: "
                            + _OVERFLOW_REFUSED.removeprefix("error: "))


def test_certificate_fails_a_nan_margin(tmp_path, capsys, psk_file):
    # a huge finite entry overflows exclude0's kernel residual to NaN: the
    # exclude witness is not zero, so the residual gate has to fail on NaN
    # (the announce witness is rounding of zero, here exactly 0.0)
    doc = json.loads(psk_file)
    doc["sequential"]["alice"]["exclude0"][0] = 1e308
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code = run(["verify", str(bad), "--psk", "0.3", "0.3"])
    captured = capsys.readouterr()
    assert code == 1
    (line,) = [ln for ln in captured.out.splitlines() if " certificate: " in ln]
    assert line.startswith("FAIL certificate: ")
    assert "exclude0: kernel residual nan" in line
    assert captured.err == ""


@pytest.mark.parametrize("k", (0, 1, 2))
def test_certificate_reads_a_huge_defer_entry_against_its_kernel(tmp_path, capsys, k):
    # the pair's perm is (2, 1, 0), and the defer witness is diagonal with an
    # exact zero at slot perm[2] = 0: a 1e308 entry there stays in its kernel,
    # so only completeness fails; off the kernel the residual overflows to NaN
    pair = ["--ka", "0.19", "0.062", "--kb", "0.27", "0.13"]
    good = tmp_path / "m.json"
    assert run(["construct", *pair, "--out", str(good)]) == 0
    doc = json.loads(good.read_text())
    doc["sequential"]["alice"]["defer"][k] = 1e308  # H_kk
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    capsys.readouterr()
    code = run(["verify", str(bad), *pair])
    captured = capsys.readouterr()
    assert code == 1
    (line,) = [ln for ln in captured.out.splitlines() if " certificate: " in ln]
    if k == 0:
        assert line == "FAIL certificate: completeness residual 1.000e+308"
    else:
        assert line == "FAIL certificate: defer: kernel residual nan; completeness residual 1.000e+308"
    assert captured.err == ""


def test_huge_pieces_fail_without_numpy_warnings(tmp_path, capsys, psk_file):
    # 1.7e308 in every entry of the exclude and defer pieces overflows
    # their eigenvalues, Alice's completeness sum and the outcome
    # probabilities to inf or NaN; the gates fail on those, and no numpy
    # RuntimeWarning (an error under this suite) reaches stderr
    doc = json.loads(psk_file)
    for label in ("exclude0", "exclude1", "exclude2", "defer"):
        doc["sequential"]["alice"][label] = [1.7e308] * 9
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    assert run(["verify", str(bad), "--psk", "0.3", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines() == [
        "FAIL psd: nan", "FAIL completeness: inf", "FAIL unambiguity: nan",
        "FAIL success-vs-global: nan",
        "FAIL certificate: exclude0: kernel residual nan; exclude0: unambiguity leak nan;"
        " exclude1: kernel residual nan; exclude1: unambiguity leak 3.939e+307; exclude2:"
        " kernel residual nan; exclude2: unambiguity leak nan; defer: kernel residual nan;"
        " completeness residual inf", "success nan"]
    assert captured.err == ""
    argv = ["simulate", "--povm", str(bad), "--state", "0", "--shots", "10", "--seed", "0"]
    assert run(argv) == 65
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "invalid measurement file: outcome probabilities sum to nan\n"


def test_eigensolver_failure_fails_psd(tmp_path, capsys, psk_file, monkeypatch):
    # an eigensolve that does not converge leaves the pieces with no least
    # eigenvalue: psd reads nan and fails, and verify exits 1, not 2
    good = tmp_path / "m.json"
    good.write_text(psk_file)

    def no_convergence(a):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    assert run(["verify", str(good), "--psk", "0.3", "0.3"]) == 1
    captured = capsys.readouterr()
    assert captured.out.splitlines()[0] == "FAIL psd: nan"
    assert [line[:2] for line in captured.out.splitlines()[1:-1]] == ["ok"] * 4
    assert captured.err == ""
