"""One cold set-up: import octospin and serve one warm-up request.

    python3 perfbench/cold_setup.py SRC KERNEL verify BACKEND SEED TRIALS
    python3 perfbench/cold_setup.py SRC KERNEL eval ARG...

Runs in a fresh interpreter, and only ``sys``, ``io`` (loaded at start-up
anyway) and ``time`` are imported before the clock starts, so every module
octospin pulls in is paid for in the time.  The pace kernel KERNEL
(``pace.py``) runs only after the clock stops, in this process, so it sees
the CPU the set-up ran on.  Prints the seconds taken and the kernel times on
the first line, the exit code on the second, then the request's output.
"""

import io
import sys
from time import perf_counter


def main(argv) -> None:
    src, kernel, kind, *args = argv
    sys.path.insert(0, src)
    stdout = sys.stdout
    t0 = perf_counter()
    if kind == "verify":
        from octospin import suites

        backend, seed, trials = args
        config = suites.RunConfig(backend=backend, seed=int(seed), trials=int(trials))
        code, report = suites.run_verify_suite(config)
        text = suites.render_report(report)
    else:
        from octospin import cli

        sys.stdout = io.StringIO()
        try:
            code = cli.main(list(args))
            text = sys.stdout.getvalue()
        finally:
            sys.stdout = stdout
    elapsed = perf_counter() - t0
    import pace

    samples = " ".join(repr(pace.kernel_time(kernel)) for _ in range(2 * pace.RUNS))
    stdout.write(f"{elapsed!r} {samples}\n{code}\n{text}")


if __name__ == "__main__":
    main(sys.argv[1:])
