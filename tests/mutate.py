"""Break every tolerance site of the package, and the certificate, `verify`, writer
and loader gates around them, one at a time; list what tier 1 misses.

    python tests/mutate.py

Copies src/, tests/, demos/, perfbench/ and pyproject.toml (what the suite
reads) into a temporary directory.  Each mutant rewrites one site of
src/triseq in that copy.  The targets are every function that reads a TOL
field (but `optimality.check_global_optimality`, whose |k| < tie cut to
the Orthogonal branch has no pinned width yet), and beside them
`povm.verify_povm`, `povm.save_povm` (the writer's finite and Hermitian
gates), `povm.load_povm` (the format check among them), `povm._meta_fields`
(the meta checks the writer and the reader share), `povm._numbers`
(the shape and type checks of every stored number, the meta numbers'
plain-float path among them), `povm._from_packed` (the format-3 decoder,
which rebuilds each piece's lower triangle from its upper one),
`povm._pieces` (the one-block decode of a file's 35 pieces and its
piece-by-piece fallback), `povm.binary_unambiguous`, `povm._bob_stack`,
and `povm._local_check` and `povm._outcomes` (the per-piece checks and
outcome table `verify` gates on), `cli.main` (its dispatch of a command's
argv to that command's parser), and `serialize.write_text` (the `--out`
writer: its write loop, and the cut to length with its regular-file
guard).  In them:

  - a comparison negated (`a <= b` becomes `not (a <= b)`);
  - a `failures.append(...)` in `dual_certificate` and the
    `os.ftruncate(...)` of `write_text`, dropped;
  - a unary minus on a name or expression dropped (`-x` becomes `x`; a
    negative literal stays) and an integer slice start moved one on
    (`a[3::2]` becomes `a[4::2]`);
  - a TOL field, scaled by 1e3 and by 1e-3 at that site only.  The scaled
    table is defined in the copy's numerics.py, so no tolerance literal
    lands in another module (a tier-1 test refuses one).

The unmutated copy runs the suite first and must pass.  Each mutant then
runs it in a fresh process, stopping at the first failure, with the tests
of the mutated module, then the certificate and command-line tests, first.
The script prints each mutant as `killed` or `SURVIVED` with
`path:line: change`, then the survivors again and their count.  Its exit
status is 1 when a mutant survives.  pytest does not collect this file.
"""

import ast
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "demos", "perfbench", "pyproject.toml")
TARGETS = {
    "numerics.py": ("hermitian_eigen",),
    "states.py": ("_check_overlap", "_orient"),
    "optimality.py": ("_tie_branch",),
    "geometry.py": ("_check_trace", "outcome_triangle", "_level_rows", "identity_membership"),
    "povm.py": ("dual_certificate", "verify_povm", "save_povm", "load_povm", "_meta_fields",
                "_numbers", "_from_packed", "_pieces", "binary_unambiguous", "_binary_stack",
                "_bob_stack", "build_sequential", "_draw", "_local_check", "_outcomes"),
    "cli.py": ("cmd_verify", "main"),
    "serialize.py": ("write_text",),
}
DROPPED = ("failures.append", "os.ftruncate")  # call statements a mutant drops
# run after the mutated module's own tests: a broken gate fails a test in
# these soonest, and -x stops there
FIRST = ("tests/test_povm.py", "tests/test_cli.py")
FACTORS = ("1e3", "1e-3")


def _offsets(source: bytes):
    """Byte offset of each line start, for ast's (lineno, byte col) positions."""
    starts, pos = [0], 0
    for line in source.splitlines(keepends=True):
        pos += len(line)
        starts.append(pos)
    return starts


def sites(source: bytes, functions):
    """(line, start, end, replacement, description, scaled) for every
    mutation in the named functions of one module's source; scaled is
    (field, factor) for a TOL site, else None."""
    tree = ast.parse(source)
    starts = _offsets(source)
    found = []

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    for fn in ast.walk(tree):
        if not isinstance(fn, ast.FunctionDef) or fn.name not in functions:
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.Compare):
                text = source[slice(*span(node))].decode()
                found.append((node, f"not ({text})", f"negate `{text}`", None))
            elif (isinstance(node, ast.Expr) and isinstance(node.value, ast.Call)
                  and ast.unparse(node.value.func) in DROPPED):
                found.append((node, "pass", f"drop {ast.unparse(node.value.func)}", None))
            elif (isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub)
                  and not isinstance(node.operand, ast.Constant)):
                text = source[slice(*span(node.operand))].decode()
                found.append((node, text, f"drop the minus of `{text}`", None))
            elif (isinstance(node, ast.Slice) and isinstance(node.lower, ast.Constant)
                  and type(node.lower.value) is int):
                start = node.lower.value
                found.append((node.lower, str(start + 1), f"slice start {start} -> {start + 1}",
                              None))
            elif isinstance(node, ast.Attribute) and ast.unparse(node.value) == "TOL":
                for factor in FACTORS:
                    found.append((node, f"_SCALED.{node.attr}", f"TOL.{node.attr} * {factor}",
                                  (node.attr, factor)))
    found.sort(key=lambda site: span(site[0]))
    return [(node.lineno, *span(node), *rest) for node, *rest in found]


def run_suite(root: Path, first=FIRST) -> int:
    tests = [str(root / t) for t in first if (root / t).is_file()]
    tests += sorted(str(p) for p in (root / "tests").glob("test_*.py") if str(p) not in tests)
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors", *tests]
    proc = subprocess.run(cmd, cwd=root, env=env, capture_output=True, text=True, timeout=900)
    return proc.returncode


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, root / name)
        package = root / "src" / "triseq"
        numerics = (package / "numerics.py").read_bytes()
        if run_suite(root) != 0:
            print("the unmutated copy fails the suite; no mutant was run")
            return 2

        survivors, total = [], 0
        for module, functions in TARGETS.items():
            path = package / module
            original = path.read_bytes()
            first = tuple(dict.fromkeys((f"tests/test_{path.stem}.py", *FIRST)))
            for line, a, b, replacement, what, scaled in sites(original, functions):
                total += 1
                mutated = original[:a] + replacement.encode() + original[b:]
                if scaled is not None:
                    field, factor = scaled
                    table = f"\n_SCALED = TOL._replace({field}=TOL.{field} * {factor})\n"
                    if module == "numerics.py":
                        mutated += table.encode()
                    else:
                        mutated += b"\nfrom .numerics import _SCALED  # noqa: E402\n"
                        (package / "numerics.py").write_bytes(numerics + table.encode())
                path.write_bytes(mutated)
                try:
                    killed = run_suite(root, first) != 0
                except subprocess.TimeoutExpired:
                    killed = True  # the suite did not pass
                finally:
                    path.write_bytes(original)
                    (package / "numerics.py").write_bytes(numerics)
                status = "killed" if killed else "SURVIVED"
                print(f"{status:8s} src/triseq/{module}:{line}: {what}", flush=True)
                if not killed:
                    survivors.append(f"src/triseq/{module}:{line}: {what}")

    print()
    for entry in survivors:
        print(f"survives: {entry}")
    print(f"{len(survivors)} of {total} mutants survive the tier-1 suite")
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main())
