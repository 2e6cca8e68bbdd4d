"""Command-line front end.

Subcommands:
  check      decide sequential optimality for one overlap pair
  construct  build the optimal sequential measurement, write it as JSON
  verify     re-validate a measurement file against an overlap pair
  scan       tabulate verdicts over a parameter grid (CSV)
  curve      success probabilities along the phase-keyed power axis (CSV)
  simulate   seeded outcome counts for a stored measurement

Only construct, verify, curve and simulate import povm (and with it
numpy), each when it runs; check and scan decide in plain floats.

Exit codes: 0 success / verdict true; 1 verdict false or verification
failure; 2 internal error; 64 usage or parameter domain; 65 unreadable
or invalid measurement file; 73 an output file cannot be written; 141
the reader closed standard output early (the status a shell reports for
a SIGPIPE death).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import re
import sys

from .errors import (
    CertificateViolation,
    DegenerateStates,
    DomainError,
    InvalidPovm,
    NotGloballyOptimal,
    RankDeficient,
    TriseqError,
)
from .multipartite import check_copies_psk
from .numerics import TOL
from .optimality import check_global_optimality
from .serialize import fmt_float, json_dumps, write_text
from .states import lifted_trine_overlap, ppm_overlap, psk_overlap


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own matcher misreads "-1e-10" as an option; accept the
        # exponent spelling fmt_float writes (no option here looks numeric)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(64)


def _add_overlap_args(sp):
    sp.add_argument("--ka", nargs=2, type=float, metavar=("RE", "IM"), help="Alice overlap")
    sp.add_argument("--kb", nargs=2, type=float, metavar=("RE", "IM"), help="Bob overlap")
    sp.add_argument(
        "--psk", nargs=2, type=float, metavar=("SA", "SB"),
        help="phase-keyed coherent signals with these mean photon numbers",
    )
    sp.add_argument("--trine", type=float, metavar="G", help="lifted trine with lift g")
    sp.add_argument(
        "--ppm", nargs=4, type=float, metavar=("AR", "AI", "BR", "BI"),
        help="two-slot pulse-position signals from coherent pulses alpha, beta",
    )


def _resolve_overlaps(args, parser):
    modes = [
        args.ka is not None or args.kb is not None,
        args.psk is not None,
        args.trine is not None,
        args.ppm is not None,
    ]
    if sum(modes) != 1:
        parser.error("give exactly one of --ka/--kb, --psk, --trine, --ppm")
    if modes[0]:
        if args.ka is None or args.kb is None:
            parser.error("--ka and --kb must be given together")
        return complex(*args.ka), complex(*args.kb)
    if args.psk is not None:
        return psk_overlap(args.psk[0]), psk_overlap(args.psk[1])
    if args.trine is not None:
        k = lifted_trine_overlap(args.trine)
        return k, k
    alpha = complex(args.ppm[0], args.ppm[1])
    beta = complex(args.ppm[2], args.ppm[3])
    k = ppm_overlap(alpha, beta)
    return k, k


def _report_json(report, ka, kb):
    doc = {
        "verdict": report.verdict,
        "branch": report.branch,
        "ka": ka,
        "kb": kb,
        "p_global": report.p_global,
        "threshold": report.threshold,
        "offsets": report.offsets,
        "joint": report.joint,
        "perm": report.perm,
        "c1": report.c1,
        "c2": report.c2,
    }
    pair = report.pair
    if pair is not None:
        doc["canonical"] = {
            "ka": pair.ka, "kb": pair.kb, "x": pair.x, "y": pair.y, **pair.record._asdict()
        }
    return doc


def cmd_check(args, parser) -> int:
    ka, kb = _resolve_overlaps(args, parser)
    report = check_global_optimality(ka, kb)
    print(json_dumps(_report_json(report, ka, kb)))
    return 0 if report.verdict else 1


def cmd_construct(args, parser) -> int:
    from .povm import construct, save_povm

    ka, kb = _resolve_overlaps(args, parser)
    try:
        report, seq, _, success = construct(ka, kb)
    except NotGloballyOptimal as exc:
        reason = f": {exc}" if str(exc) else ""
        print(f"no globally optimal sequential measurement exists for this pair{reason}")
        return 1
    save_povm(args.out, seq, ka, kb, success)
    print(json_dumps({
        "out": str(args.out),
        "branch": report.branch,
        "success": success,
        "p_global": report.p_global,
        "kappa": seq.weights,
    }))
    return 0


def cmd_verify(args, parser) -> int:
    from .povm import _local_check, dual_certificate, frame, load_povm

    ka, kb = _resolve_overlaps(args, parser)
    try:
        loaded = load_povm(args.povm)
    except (InvalidPovm, OSError) as exc:
        print(f"cannot load measurement file: {exc}", file=sys.stderr)
        return 65

    report = check_global_optimality(ka, kb)
    success, leak, margin, completeness = _local_check(loaded.seq, frame(ka, kb)[1])
    checks = [
        ("psd", margin >= -TOL.povm_psd, margin),
        ("completeness", completeness <= TOL.completeness, completeness),
        ("unambiguity", leak <= TOL.leak, leak),
    ]

    # the decision, not the file's label, chooses the checks; the label is only compared
    if loaded.seq.branch != report.branch:
        checks.append(("branch", False, f"file {loaded.seq.branch}, decision {report.branch}"))
    if report.pair is not None:
        gap = abs(success - report.p_global)
        checks.append(("success-vs-global", gap <= TOL.success_gap, gap))
        try:
            dual_certificate(report.pair, loaded.seq)
            checks.append(("certificate", True, 0.0))
        except CertificateViolation as exc:
            checks.append(("certificate", False, str(exc)))

    ok = all(passed for _, passed, _ in checks)
    for name, passed, value in checks:
        status = "ok" if passed else "FAIL"
        detail = fmt_float(value) if isinstance(value, float) else str(value)
        print(f"{status:4s} {name}: {detail}")
    print(f"success {fmt_float(success)}")
    return 0 if ok else 1


def _grid(lo, hi, count):
    """count points from lo to hi; one that overflows between finite bounds is lo (1-t) + hi t."""
    points = [lo + i * (hi - lo) / (count - 1) for i in range(count)]
    finite = math.isfinite(lo) and math.isfinite(hi)
    return [v if math.isfinite(v) or not finite else lo * (1 - t) + hi * t
            for v, t in zip(points, (i / (count - 1) for i in range(count)))]


def _scan_row(a, b, overlaps, na_errors) -> str:
    """One scan row: grid point a, b, then the decision on overlaps(a, b)
    (verdict, branch, c1, c2, p_global), or NA cells on na_errors."""
    cells = [fmt_float(a), fmt_float(b)]
    try:
        rep = check_global_optimality(*overlaps(a, b))
        cells += [
            "true" if rep.verdict else "false",
            rep.branch,
            fmt_float(rep.c1),
            fmt_float(rep.c2),
            fmt_float(rep.p_global),
        ]
    except na_errors:
        cells += ["NA"] * 5
    return ",".join(cells)


def _write_csv(path, lines) -> int:
    write_text(path, "\n".join(lines) + "\n")
    print(f"wrote {len(lines) - 1} rows to {path}")
    return 0


def cmd_scan(args, parser) -> int:
    res = args.resolution
    if res < 2:
        parser.error("--resolution must be at least 2")
    if args.mode == "complex-k":
        lines = ["re,im,verdict,branch,c1,c2,p_global"] + [
            _scan_row(re, im, lambda re, im: (complex(re, im),) * 2,
                      (DegenerateStates, RankDeficient))
            for re in _grid(args.re_min, args.re_max, res)
            for im in _grid(args.im_min, args.im_max, res)
        ]
    elif args.mode == "psk-grid":
        s_grid = _grid(args.s_min, args.s_max, res)
        lines = ["sa,sb,verdict,branch,c1,c2,p_global"] + [
            _scan_row(sa, sb, lambda sa, sb: (psk_overlap(sa), psk_overlap(sb)),
                      (DegenerateStates, RankDeficient, DomainError))
            for sa in s_grid
            for sb in s_grid
        ]
    else:  # copies
        if args.n_max < 2:
            parser.error("--n-max must be at least 2")
        lines = ["s_total,n,sufficient"]
        for s in _grid(args.s_min, args.s_max, res):
            for n in range(2, args.n_max + 1):
                try:
                    ok, _ = check_copies_psk(s, n)
                    verdict = "true" if ok else "false"
                except (DegenerateStates, RankDeficient, DomainError):
                    verdict = "NA"
                lines.append(f"{fmt_float(s)},{n},{verdict}")
    return _write_csv(args.out, lines)


def cmd_curve(args, parser) -> int:
    from .povm import construct

    if not args.step > 0:
        parser.error("--step must be positive")
    if not math.isfinite(args.s_max / args.step):
        parser.error("--s-max / --step must be finite")
    lines = ["s,p_global,verdict,p_seq"]
    count = int(args.s_max / args.step + 0.5)
    for i in range(1, count + 1):
        s = i * args.step
        if s > args.s_max + args.step / 2:
            break
        try:
            k = psk_overlap(s)
            rep = check_global_optimality(k, k)
        except (DegenerateStates, RankDeficient):
            lines.append(f"{fmt_float(s)},NA,NA,")
            continue
        if rep.verdict:
            success = construct(k, k)[3]
            p_seq = fmt_float(success)
        else:
            p_seq = ""
        verdict = "true" if rep.verdict else "false"
        lines.append(f"{fmt_float(s)},{fmt_float(rep.p_global)},{verdict},{p_seq}")
    return _write_csv(args.out, lines)


def cmd_simulate(args, parser) -> int:
    from .povm import _MAX_SHOTS, OUTCOME_LABELS, _draw, _outcomes, frame, load_povm

    if args.state not in (0, 1, 2):
        parser.error("--state must be 0, 1, or 2")
    if args.shots < 0:
        parser.error("--shots must be >= 0")
    if args.shots > _MAX_SHOTS:
        parser.error(f"--shots must be at most {_MAX_SHOTS}")
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        loaded = load_povm(args.povm)
    except (InvalidPovm, OSError) as exc:
        print(f"cannot load measurement file: {exc}", file=sys.stderr)
        return 65
    try:
        _, sv = frame(loaded.meta["ka"], loaded.meta["kb"])
    except (DomainError, DegenerateStates, RankDeficient) as exc:
        raise InvalidPovm(f"meta overlaps: {exc}") from exc  # the file's fault, not the command's
    counts, probs = _draw(_outcomes(loaded.seq, sv)[:, args.state], args.shots, args.seed)
    print(json_dumps({
        "labels": OUTCOME_LABELS,
        "counts": [int(c) for c in counts],
        "probs": probs.tolist(),
        "shots": args.shots,
        "seed": args.seed,
        "state": args.state,
    }))
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built once per process: parse_args keeps no state between
    calls, and usage and help read the terminal width only when printed."""
    parser = _Parser(prog="triseq", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    sp = sub.add_parser("check", help="decide sequential optimality")
    _add_overlap_args(sp)

    sp = sub.add_parser("construct", help="build and save the optimal measurement")
    _add_overlap_args(sp)
    sp.add_argument("--out", required=True, help="output JSON path")

    sp = sub.add_parser("verify", help="re-validate a measurement file")
    sp.add_argument("povm", help="measurement JSON path")
    _add_overlap_args(sp)

    sp = sub.add_parser("scan", help="tabulate verdicts over a grid")
    sp.add_argument("--mode", required=True, choices=("complex-k", "psk-grid", "copies"))
    sp.add_argument("--resolution", type=int, required=True, help="grid steps per axis")
    sp.add_argument("--out", required=True, help="output CSV path")
    sp.add_argument("--re-min", type=float, default=-0.5)
    sp.add_argument("--re-max", type=float, default=1.0)
    sp.add_argument("--im-min", type=float, default=-0.87)
    sp.add_argument("--im-max", type=float, default=0.87)
    sp.add_argument("--s-min", type=float, default=0.01)
    sp.add_argument("--s-max", type=float, default=4.0)
    sp.add_argument("--n-max", type=int, default=20)

    sp = sub.add_parser("curve", help="success curve along the phase-keyed axis")
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--step", type=float, required=True)
    sp.add_argument("--out", required=True, help="output CSV path")

    sp = sub.add_parser("simulate", help="sample outcome counts from a stored measurement")
    sp.add_argument("--povm", required=True, help="measurement JSON path")
    sp.add_argument("--state", type=int, required=True, help="which state to prepare (0..2)")
    sp.add_argument("--shots", type=int, required=True)
    sp.add_argument("--seed", type=int, required=True)

    return parser


_COMMANDS = {
    "check": cmd_check,
    "construct": cmd_construct,
    "verify": cmd_verify,
    "scan": cmd_scan,
    "curve": cmd_curve,
    "simulate": cmd_simulate,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        code = _COMMANDS[args.command](args, parser)
        sys.stdout.flush()  # a closed pipe surfaces here, not at exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout again on exit; let that land in devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        return 141
    except OSError as exc:
        # the file reads catch their own OSError (exit 65); this is a write
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 73
    except (DomainError, DegenerateStates, RankDeficient) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 64
    except InvalidPovm as exc:  # a file that loads but is not a measurement
        print(f"invalid measurement file: {exc}", file=sys.stderr)
        return 65
    except TriseqError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
