"""Branch-deletion probe: the branch tests a verify report cannot see.

Usage:
    python tools/mutation_probe.py [MODULE ...]

MODULE names modules of ``src/octospin`` (default: scalar, octonion, geometry,
spinmaps, degree and suites).  The probe makes one mutant at a time, each a
single edit of one module:
- the test of an ``if`` statement, an ``if`` expression or a comprehension
  ``if`` forced to True, and then to False;
- one operand of an ``and`` / ``or`` dropped.

Each mutant is written to a temporary copy of ``src/``, never to the checkout,
and run in a fresh interpreter: ``run_verify_suite(RunConfig(backend,
seed=42, trials=1))`` on the exact and on the float backend, each recorded as
its exit code and the sha256 of the rendered report, or as the exception type
it raises.  A mutant is stopped after TIMEOUT seconds: forcing the test of
``suites._orthogonal_to`` to False loops forever.  A mutant survives when both
records equal those of the unmutated copy.  The probe prints every survivor
and a summary line, and exits 0; on all six modules it takes a few minutes.

A survivor is a test that the report at this seed does not depend on.  At
the last count, 176 of 333 mutants survived and 2 timed out, in 129 s on a
shared 2-core host, in six expected groups:
- pure shortcuts, which skip work whose result is the same:
  ``mul_numerators``' test of the table identities (a run rebinds no table,
  and generating the product again gives the same one),
  ``Cleared.scaled``'s ``g != 1``, ``project_out``'s zero-dot skip and
  int-scale test, ``determinant``'s int scale, ``_bareiss``' ``piv != k``,
  the fast paths of ``cleared_eq``, either operand of ``cleared``'s float
  test, ``so_check``'s residue path forced off and ``_orthogonal_determinant``'s
  fallback for a prime dividing the scale either way (``determinant`` gives
  the same +-1), ``_relation_failures``' exact list equality forced to the
  per-coordinate ``eq`` (which is ``==`` there), and
  ``_rotation_product``'s int-scale sum, which equals the chain of products
  exactly, and its frame-scale test dropped, which sends a float frame at the
  exact quarter turn to the float J, equal to the chain within the tolerance,
  ``over_one_scale``'s scale-1 test forced False (a quotient over 1 is the
  value itself), and the commuting square's reuse within one run;
- checks forced to their passing side: the unmutated run passes every claim,
  so a verdict forced to pass (among them ``_orthogonal_determinant``'s sign
  forced to +1), or an error forced not to raise (the plane,
  frame, singular-system and zero-division guards, ``circle_samples``' test
  of the sample count, the winding count's antipode test, which no wound
  map reaches, and ``Cleared.__getattr__``'s test of the name, as a run
  looks up no missing attribute but the field), leaves it unchanged;
- conventions that any consistent choice meets: ``_is_upper``'s tie-break
  with either operand dropped moves the image points on the real axis (the
  lattice samples include (-m, 0) and (m, 0)) to the other side, and a closed
  loop crosses the cut the same net number of times either way;
- what only a failure or another seed would show: a passing report prints
  few scalars, so ``_describe``'s formatting of failure records leaves it
  unchanged, and ``so_check``'s zero-residual test dropped sends only a matrix
  that fails anyway to the residue path;
- code the verify command does not run: parsing (``parse_circle_point``,
  ``FloatBackend.parse``, and ``Matrix8.from_rows``' shape check, which only
  ``parse_matrix`` reaches), ``format_frame_table``, ``make_backend``,
  ``spin8_map``, ``f5``'s support test and argument validation, and
  ``over_one_scale``'s scale-1 test forced True, which misreads only a
  rational operand over another scale beside floats (a float run converts
  every input; only an API caller builds one, as the tests do);
- checks of what a construction guarantees, kept so that a defect in the
  construction turns the report red: ``verify_spin7``'s ``fixes_e0``
  (``project_double_cover`` builds g(e0) = e0).
A new survivor outside these groups marks a condition that no report can
decide; it should be given an input that reaches it, or be removed.

The body of the octonion product is code that ``mul_numerators`` generates
from ``FANO_SIGN`` / ``FANO_INDEX`` at run time, so it has no branch to
mutate here: only edits of the tables, as in the table-flip defects of the
tests, reach it.

Only the standard library is used.  The probe is opt-in: pytest does not
collect it.
"""

from __future__ import annotations

import ast
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MODULES = ("scalar", "octonion", "geometry", "spinmaps", "degree", "suites")
TIMEOUT = 30

CHILD = """
import hashlib
import octospin
from octospin.suites import RunConfig, render_report, run_verify_suite

assert octospin.__file__.startswith({src!r}), octospin.__file__
for backend in ("exact", "float"):
    try:
        code, report = run_verify_suite(RunConfig(backend, seed=42, trials=1))
    except Exception as exc:
        print(backend, "raises", type(exc).__name__)
    else:
        print(backend, code, hashlib.sha256(render_report(report).encode()).hexdigest())
"""


def mutants(source: str):
    """(line, description, start, end, replacement) of every mutant of a
    module; start and end are byte offsets into its UTF-8 text."""
    data = source.encode()
    starts = [0]
    for line in data.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))

    def span(node):
        return (starts[node.lineno - 1] + node.col_offset,
                starts[node.end_lineno - 1] + node.end_col_offset)

    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.If, ast.IfExp)):
            tests = [node.test]
        elif isinstance(node, ast.comprehension):
            tests = node.ifs
        else:
            tests = []
        for test in tests:
            for value in ("True", "False"):
                yield (test.lineno, f"if-test -> {value}", *span(test), f"({value})")
        if isinstance(node, ast.BoolOp):
            op = " and " if isinstance(node.op, ast.And) else " or "
            segments = [ast.get_source_segment(source, v) for v in node.values]
            for k in range(len(segments)):
                kept = op.join(segments[:k] + segments[k + 1:])
                yield (node.lineno, f"{op.strip()} drops operand {k + 1}", *span(node),
                       f"({kept})")


def records(tmp: Path) -> str:
    """The two verify records of the copy under ``tmp``, or how it ended."""
    env = dict(os.environ, PYTHONPATH=str(tmp / "src"), PYTHONDONTWRITEBYTECODE="1")
    try:
        proc = subprocess.run([sys.executable, "-c", CHILD.format(src=str(tmp / "src"))],
                              capture_output=True, text=True, env=env, cwd=tmp,
                              timeout=TIMEOUT, check=False)
    except subprocess.TimeoutExpired:
        return "timeout"
    return proc.stdout if proc.returncode == 0 else f"exit {proc.returncode}"


def main(argv=None) -> int:
    names = (sys.argv[1:] if argv is None else argv) or MODULES
    started = time.perf_counter()
    total = survived = timed_out = 0
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        shutil.copytree(ROOT / "src", tmp / "src",
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        baseline = records(tmp)
        if not baseline.startswith("exact 0 ") or "\nfloat 0 " not in baseline:
            print(f"the unmutated copy does not pass: {baseline}")
            return 1
        for name in names:
            path = tmp / "src" / "octospin" / f"{name}.py"
            source = path.read_text(encoding="utf-8")
            data = source.encode()
            lines = source.splitlines()
            for line, what, start, end, replacement in mutants(source):
                path.write_bytes(data[:start] + replacement.encode() + data[end:])
                outcome = records(tmp)
                total += 1
                timed_out += outcome == "timeout"
                if outcome == baseline:
                    survived += 1
                    print(f"SURVIVES {name}.py:{line} {what}: {lines[line - 1].strip()}",
                          flush=True)
            path.write_text(source, encoding="utf-8")
    print(f"{total} mutants of {', '.join(names)}: {survived} survive, {timed_out} timed out "
          f"({time.perf_counter() - started:.0f} s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
