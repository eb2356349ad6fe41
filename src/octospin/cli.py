"""Command-line surface: run verification suites, evaluate maps, export data.

Commands:
    verify     run selected verification suites and write a JSON report
    eval       evaluate one of the maps and export the matrix with checks
    table      check a plane's frame against FRAME_TABLE and print the table
    gen-frame  print an exact random orthonormal pair

Exit codes: 0 success, 1 verification failure, 2 usage or config error
(an unwritable --out included).
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

from .geometry import (SUBSPACE_COORDS, OrientedPlane, random_orthonormal_pair,
                       serialize_matrix, so_check)
from .octonion import Octonion, inner, norm_sq, parse_octonion, serialize
from .scalar import Backend, EXACT, make_backend, parse_circle_point
from .spinmaps import (
    FRAME_NAMES,
    FRAME_TABLE,
    basis_b,
    f5,
    f7,
    f7xf5,
    format_frame_table,
    frame_table,
    h70,
    spin8_map,
    verify_spin7,
)
from .suites import SUITE_NAMES, RunConfig, render_report, run_verify_suite

_BASIS_RE = re.compile(r"^e([0-7])$")


def _parse_vector(text: str, backend: Backend) -> Octonion:
    text = text.strip()
    m = _BASIS_RE.match(text)
    if m:
        return backend.convert(Octonion.basis(int(m.group(1))))
    parts = text.split(",")
    if len(parts) != 8:
        raise ValueError(f"vector must be e0..e7 or 8 comma-separated rationals, got {text!r}")
    return parse_octonion(parts, backend)


def _parse_plane(text: str, backend: Backend) -> OrientedPlane:
    text = text.strip()
    if ";" in text:
        u_text, v_text = text.split(";", 1)
        return OrientedPlane(_parse_vector(u_text, backend), _parse_vector(v_text, backend))
    parts = text.split(",")
    if len(parts) == 2:
        return OrientedPlane(
            _parse_vector(parts[0], backend), _parse_vector(parts[1], backend)
        )
    raise ValueError(
        "plane must be 'ei,ej' or two 8-tuples separated by ';', got " + repr(text)
    )


def _write_output(payload: str, path) -> None:
    if path in (None, "-"):
        sys.stdout.write(payload)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(payload)


def _check_writable(path) -> None:
    """Raise the OSError naming path that ``_write_output`` would, creating and
    truncating nothing: append to an existing path, or look up its directory
    (an empty path is looked up itself and, as in ``open``, not found)."""
    try:
        if path != "-" and os.path.exists(path):
            open(path, "a").close()
        else:
            os.stat(path and os.path.join(os.path.dirname(path), "."))
    except OSError as err:
        raise type(err)(err.errno, err.strerror, path) from None


def _add_backend_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--backend", choices=("exact", "float"), default=RunConfig.backend)
    parser.add_argument("--epsilon", type=float, default=RunConfig.epsilon)


def _cmd_verify(args) -> int:
    names = [s.strip() for s in args.suites.split(",") if s.strip()]
    config = RunConfig(
        backend=args.backend, epsilon=args.epsilon, seed=args.seed, trials=args.trials
    )
    _check_writable(args.out)
    code, report = run_verify_suite(config, None if args.suites == "all" else names)
    _write_output(render_report(report), args.out)
    return code


def _cmd_eval(args) -> int:
    needs_second = args.map in ("f7xf5", "h70", "spin8")
    reads = {"w": args.map == "f7", "s_vector": args.map == "spin8",
             "plane2": needs_second, "angle2": needs_second}
    for flag, read in reads.items():
        if getattr(args, flag) is not None and not read:
            raise ValueError(f"map {args.map} does not take --{flag.replace('_', '-')}")
    backend = make_backend(args.backend, args.epsilon)
    plane = _parse_plane(args.plane, backend)
    angle = parse_circle_point(args.angle, backend)
    payload = {"map": args.map}
    if needs_second:
        if args.plane2 is None or args.angle2 is None:
            raise ValueError(f"map {args.map} needs --plane2 and --angle2")
        plane2 = _parse_plane(args.plane2, backend)
        angle2 = parse_circle_point(args.angle2, backend)
    if args.map == "f7":
        w = _parse_vector(args.w, backend) if args.w else None
        matrix = f7(plane, angle, w, backend)
    elif args.map == "f5":
        matrix = f5(plane, angle, backend)
    elif args.map == "f7xf5":
        matrix = f7xf5(plane, angle, plane2, angle2, backend)
    elif args.map == "h70":
        matrix = h70(plane, angle, plane2, angle2, backend)
    else:  # "spin8"; argparse restricts the choices
        if args.s_vector is None:
            raise ValueError("spin8 needs --s-vector")
        s = _parse_vector(args.s_vector, backend)
        matrix, s_out = spin8_map(plane, angle, plane2, angle2, s, backend)
        payload["s_vector"] = serialize(s_out, backend)
    payload["matrix"] = serialize_matrix(matrix, backend)
    so = so_check(matrix, backend)
    payload["so_check"] = {
        "orthogonality_residual": backend.format(so.orthogonality_residual),
        "determinant": backend.format(so.determinant),
        "passed": so.passed,
    }
    membership = verify_spin7(matrix, backend)
    payload["spin7_membership"] = membership.to_dict(backend)
    _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def _cmd_table(args) -> int:
    backend = make_backend(args.backend, args.epsilon)
    plane = _parse_plane(args.plane, backend)
    w = _parse_vector(args.w, backend) if args.w else None
    frame = basis_b(plane, w, backend)
    mismatches = frame_table(frame, backend)
    if mismatches:
        sys.stderr.write(f"frame products {list(mismatches)} disagree with FRAME_TABLE\n")
        return 1
    lines = [
        "frame: " + ", ".join(FRAME_NAMES),
        "w = [" + ", ".join(serialize(frame.elements[4], backend)) + "]",
        "|w|^2 = N = " + backend.format(frame.norm_w),
        "",
        format_frame_table(FRAME_TABLE),
        "",
    ]
    _write_output("\n".join(lines), args.out)
    return 0


def _cmd_gen_frame(args) -> int:
    plane = random_orthonormal_pair(args.seed, args.subspace, args.index)
    payload = {
        "seed": args.seed,
        "index": args.index,
        "subspace": args.subspace,
        "u": serialize(plane.u, EXACT),
        "v": serialize(plane.v, EXACT),
        "inner": EXACT.format(inner(plane.u, plane.v)),
        "norm_sq": EXACT.format(norm_sq(plane.u)),
    }
    _write_output(json.dumps(payload, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="octospin",
        description="Exact verification of the octonion rotation-product "
        "construction of Spin(7).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    p_verify.add_argument(
        "--suites",
        default="all",
        help="comma-separated subset of: " + ", ".join(SUITE_NAMES),
    )
    _add_backend_flags(p_verify)
    p_verify.add_argument("--seed", type=int, default=RunConfig.seed)
    p_verify.add_argument("--trials", type=int, default=RunConfig.trials)
    p_verify.add_argument("--out", default="-")
    p_verify.set_defaults(func=_cmd_verify)

    p_eval = sub.add_parser("eval", help="evaluate a map and export the matrix")
    p_eval.add_argument("map", choices=("f7", "f5", "f7xf5", "h70", "spin8"))
    p_eval.add_argument("--plane", required=True, help="'e1,e2' or 'u-tuple;v-tuple'")
    p_eval.add_argument("--angle", required=True, help="'c,s' or 'u=p/q'")
    p_eval.add_argument("--plane2")
    p_eval.add_argument("--angle2")
    p_eval.add_argument("--w", help="override the orthogonal vector w (f7 only)")
    p_eval.add_argument("--s-vector", help="unit vector for the spin8 map")
    _add_backend_flags(p_eval)
    p_eval.add_argument("--out", default="-")
    p_eval.set_defaults(func=_cmd_eval)

    p_table = sub.add_parser("table", help="print a frame multiplication table")
    p_table.add_argument("--plane", required=True)
    p_table.add_argument("--w")
    _add_backend_flags(p_table)
    p_table.add_argument("--out", default="-")
    p_table.set_defaults(func=_cmd_table)

    p_gen = sub.add_parser("gen-frame", help="print an exact random orthonormal pair")
    p_gen.add_argument("--seed", type=int, default=RunConfig.seed)
    p_gen.add_argument("--index", type=int, default=0)
    p_gen.add_argument("--subspace", choices=tuple(SUBSPACE_COORDS), default="R7")
    p_gen.add_argument("--out", default="-")
    p_gen.set_defaults(func=_cmd_gen_frame)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (OSError, ValueError, ZeroDivisionError) as err:
        sys.stderr.write(f"error: {err}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
