"""Compare the CLI output of this checkout with that of another source tree.

Usage:
    python tools/compare_outputs.py PARENT_DIR

PARENT_DIR is a second copy of the repository (a ``git archive`` of the parent
commit, say); its ``src/`` is compared with this checkout's.  Each tree runs
the same matrix of ``octospin`` command lines in-process, in its own
interpreter, and every run is recorded as its exit code, the sha256 of its
standard output and the text of its standard error.  The script prints each
run whose record differs and exits 1 if any does, else 0.

The matrix:
- ``verify`` on the exact backend at seeds 1-3, trials 2;
- ``verify`` on floats at seed 11, trials 2, at six epsilons from 1e-15 to 2
  (epsilon 2 checks the rejection of a tolerance of 1 or more: exit 2, with
  stderr naming epsilon);
- the first 60 seed-1 requests of the benchmark's eval-height workload, each
  exact, on floats, and on floats at epsilon 1e-15;
- ``table`` on the plane e1,e2, exact and float, with the default w and five
  others (admissible or not);
- ``table`` and ``eval f7`` on four inadmissible planes;
- ``eval f7`` with a zero denominator in the angle, the plane, ``--w`` or the
  angle parameter ``u=``, exact and float;
- ``gen-frame`` at four settings.

Only the standard library is used.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import io
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EVAL_REQUESTS = 60
EPSILONS = ("1e-9", "1e-13", "1e-15", "1e-3", "0.5", "2")
FLOAT_FLAGS = {"exact": [], "float": ["--backend", "float"],
               "float-1e-15": ["--backend", "float", "--epsilon", "1e-15"]}
TABLE_W = {"default": [], "e4": ["--w", "e4"], "e3": ["--w", "e3"], "e0": ["--w", "e0"],
           "zero": ["--w", "0,0,0,0,0,0,0,0"], "e0+e4": ["--w", "1,0,0,0,1,0,0,0"]}
INADMISSIBLE_PLANES = ("e1,e1", "0,0,0,0,0,0,0,0;0,0,0,0,0,0,0,0",
                       "0,1,0,0,0,0,0,0;0,0,2,0,0,0,0,0", "e0,e1")
ZERO_DENOMINATORS = {"angle": ["--plane", "e1,e2", "--angle", "1/0,0"],
                     "plane": ["--plane", "1/0,0,0,0,0,0,0,0;e2", "--angle", "1,0"],
                     "w": ["--plane", "e1,e2", "--angle", "1,0", "--w", "0,0,0,0,1/0,0,0,0"],
                     "u": ["--plane", "e1,e2", "--angle", "u=1/0"]}
GEN_FRAME = ([], ["--seed", "7", "--index", "3"], ["--subspace", "R5"],
             ["--seed", "11", "--subspace", "R5", "--index", "2"])


def _eval_requests() -> list:
    """The first seed-1 eval-height requests, from the benchmark's generator."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    return [list(argv) for argv in workloads.EvalWorkload().requests(1, EVAL_REQUESTS)]


def matrix() -> list:
    """[name, argv] of every run, in order."""
    runs = [[f"verify exact seed {s}", ["verify", "--seed", str(s), "--trials", "2"]]
            for s in (1, 2, 3)]
    runs += [[f"verify float eps {e}", ["verify", "--backend", "float", "--epsilon", e,
                                        "--seed", "11", "--trials", "2"]] for e in EPSILONS]
    for i, argv in enumerate(_eval_requests()):
        runs += [[f"eval-height {i} {b}", argv + flags] for b, flags in FLOAT_FLAGS.items()]
    for backend in ("exact", "float"):
        for w, flags in TABLE_W.items():
            runs.append([f"table e1,e2 {backend} w={w}",
                         ["table", "--plane", "e1,e2", "--backend", backend] + flags])
    for plane in INADMISSIBLE_PLANES:
        runs.append([f"table {plane}", ["table", "--plane", plane]])
        runs.append([f"eval f7 {plane}", ["eval", "f7", "--plane", plane, "--angle", "u=1/2"]])
    for backend in ("exact", "float"):
        for name, flags in ZERO_DENOMINATORS.items():
            runs.append([f"eval f7 zero denominator {name} {backend}",
                         ["eval", "f7"] + flags + ["--backend", backend]])
    runs += [[f"gen-frame {' '.join(flags) or 'default'}", ["gen-frame"] + flags]
             for flags in GEN_FRAME]
    return runs


def emit(src: str) -> None:
    """Run the matrix read from stdin on the octospin under ``src``; print the records."""
    sys.path.insert(0, src)
    from octospin import cli

    if not Path(cli.__file__).resolve().is_relative_to(Path(src).resolve()):
        sys.exit(f"octospin was imported from {cli.__file__}, not from {src}")
    records = {}
    for name, argv in json.load(sys.stdin):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        records[name] = [code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
                         err.getvalue()]
    json.dump(records, sys.stdout)


def _records(src: Path, runs: list) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, __file__, "--emit", str(src)], input=json.dumps(runs),
                          capture_output=True, text=True, env=env, check=False)
    if proc.returncode:
        sys.exit(f"running the matrix on {src} failed:\n{proc.stderr}")
    return json.loads(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", nargs="?", help="the other source tree")
    parser.add_argument("--emit", metavar="SRC", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.emit:
        emit(args.emit)
        return 0
    if args.parent is None:
        parser.error("PARENT_DIR is required")
    runs = matrix()
    theirs = _records(Path(args.parent) / "src", runs)
    ours = _records(ROOT / "src", runs)
    fields = ("exit code", "stdout", "stderr")
    differing = 0
    for name, _ in runs:
        diff = [f for f, a, b in zip(fields, theirs[name], ours[name]) if a != b]
        if diff:
            differing += 1
            print(f"DIFFERS {name}: {', '.join(diff)} "
                  f"(exit {theirs[name][0]} -> {ours[name][0]})")
    codes = [record[0] for record in ours.values()]
    print(f"{len(runs)} runs, {differing} differ; exit codes here: "
          + ", ".join(f"{c}: {codes.count(c)}" for c in sorted(set(codes))))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
