"""Named verification suites and the report-producing runner.

Every claim of the report is data in one table, ``CLAIMS``: per suite, a
sequence of entries, each holding the claim ids and statements it decides,
a generator of the exact inputs of its instances per (seed, trials), and a
check.  One runner turns an entry into report records: it converts the
exact inputs to the backend, runs the check on each instance, counts the
instances, records an error the check raises as a failure of that
instance, describes failures and truncates them.  The records are the
report's claim dicts: the suite callables return them and
``run_verify_suite`` puts them into the report as they are.  All
randomness derives from (seed, suite, claim) streams, so a report is a pure
function of its configuration and two runs with the same config are
byte-identical.

Instances are always generated in exact rational arithmetic; the float
backend receives the same instances converted to floats, which keeps the
two backends comparable seed-for-seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, Iterable, List, Optional

from . import degree as degree_mod
from .geometry import (
    Matrix8,
    OrientedPlane,
    apply,
    cayley_columns,
    cayley_orthogonal,
    choose_w,
    compose,
    mat_eq,
    plane_rotation,
    project_out,
    random_antisymmetric,
    random_orthonormal_pair,
    rotate_plane_basis,
    so_check,
)
from .octonion import (
    FANO_CYCLES,
    FANO_INDEX,
    FANO_SIGN,
    Octonion,
    conj,
    mul,
    norm_sq,
    oct_eq,
    random_octonion,
    right_divide,
    serialize,
)
from .scalar import (
    Backend,
    CIRCLE_HALF,
    CIRCLE_QUARTER,
    CirclePoint,
    EXACT,
    angle_sum,
    circle_from_parameter,
    derived_rng,
    double_angle,
    make_backend,
    random_rational,
)
from .spinmaps import (
    basis_b,
    f5,
    f7,
    f7_factors,
    f7xf5,
    frame_table,
    p_map,
    project_double_cover,
    spin8_map,
    triality_check,
    verify_spin7,
)

MAX_REPORTED_FAILURES = 5


@dataclass(frozen=True)
class RunConfig:
    """Configuration shared by every suite in one verification run."""

    backend: str = "exact"
    epsilon: float = 1e-9
    seed: int = 42
    trials: int = 100


@dataclass(frozen=True)
class Claim:
    """One table entry: the claims that one check decides per instance.

    ``statements`` maps each claim id to its formula text, in report order.
    ``inputs(seed, trials)`` yields one tuple of exact inputs per instance,
    and the entry has as many instances as it yields.
    ``check(backend, *inputs)`` returns a verdict, or a tuple of verdicts
    (one per claim id) when the entry decides several claims from one
    computation.  A verdict is None for a pass, a failure record, or a
    ``Tally``.
    """

    statements: Dict[str, str]
    inputs: Callable[[int, int], Iterable[tuple]]
    check: Callable[..., object]


@dataclass
class Tally:
    """Verdict of a check that decides a whole claim in one run.

    It replaces the claim's instance count and failures, and adds details.
    """

    instances: int
    failures: list
    details: Optional[dict]


def _describe(x, backend: Backend):
    """JSON form of a failure record, on the backend the check ran on."""
    if isinstance(x, Octonion):
        return serialize(x, backend)
    if isinstance(x, OrientedPlane):
        return {"u": serialize(x.u, backend), "v": serialize(x.v, backend)}
    if isinstance(x, CirclePoint):
        return {"c": backend.format(x.c), "s": backend.format(x.s)}
    if isinstance(x, Fraction):
        return EXACT.format(x)
    if isinstance(x, dict):
        return {key: _describe(value, backend) for key, value in x.items()}
    if isinstance(x, (list, tuple)):
        return [_describe(value, backend) for value in x]
    return x


def _run(entry: Claim, backend: Backend, seed: int, trials: int, squares) -> List[dict]:
    """Check every instance of one table entry and build its report records.

    Every input goes through ``backend.convert``; indices, coefficients and
    the squares dict stay as they are.  A ValueError or ArithmeticError raised
    by the check becomes a failure record of that instance for each claim;
    errors raised while generating inputs, and other exception types, propagate.
    """
    ids = list(entry.statements)
    tallies = {cid: Tally(0, [], None) for cid in ids}
    run = (seed, trials, squares) if entry.inputs is _run_config else (seed, trials)
    for k, inputs in enumerate(entry.inputs(*run)):
        try:
            verdicts = entry.check(backend, *map(backend.convert, inputs))
        except (ValueError, ArithmeticError) as err:
            verdicts = ({"trial": k, "error": f"{type(err).__name__}: {err}"},) * len(ids)
        else:
            if len(ids) == 1:
                verdicts = (verdicts,)
        for cid, verdict in zip(ids, verdicts):
            if isinstance(verdict, Tally):
                tallies[cid] = verdict
            else:
                tallies[cid].instances += 1
                if verdict is not None:
                    tallies[cid].failures.append(_describe(verdict, backend))
    return [
        {
            "claim": cid,
            "statement": entry.statements[cid],
            "instances": tally.instances,
            "failure_count": len(tally.failures),
            "failures": tally.failures[:MAX_REPORTED_FAILURES],
            "passed": not tally.failures,
            **({} if tally.details is None else {"details": tally.details}),
        }
        for cid, tally in tallies.items()
    ]


# --------------------------------------------------------------------------
# Exact input generators: inputs(seed, trials) yields one tuple per instance


def _once(*values):
    """One instance with the given inputs."""
    return lambda seed, trials: [values]


def _run_config(seed: int, trials: int, squares):
    """The run's (seed, trials) and squares dict (new if None), for checks that draw their own."""
    return [(seed, trials, {} if squares is None else squares)]


def _indexed(make):
    """``trials`` instances, made afresh by ``make(seed, k)`` for each index k."""
    return lambda seed, trials: (make(seed, k) for k in range(trials))


def _streamed(tag, name, draw):
    """``trials`` instances drawn by ``draw(rng)`` from one (seed, tag, name) stream."""

    def inputs(seed, trials):
        rng = derived_rng(seed, tag, name)
        for _ in range(trials):
            yield draw(rng)

    return inputs


def _joined(*parts):
    """Instance by instance, the concatenated inputs of several generators."""
    return lambda seed, trials: (
        sum(xs, ()) for xs in zip(*(part(seed, trials) for part in parts))
    )


_index = _indexed(lambda seed, k: (k,))


def _random_angle(rng) -> CirclePoint:
    return circle_from_parameter(random_rational(rng, 8, 5))


def _orthogonal_to(rng, others) -> Octonion:
    """Random nonzero imaginary octonion orthogonal to the given vectors."""
    while True:
        a = project_out(random_octonion(rng, imaginary=True), others)
        if norm_sq(a) != 0:
            return a


def _plane(tag, name, angles=1, extra=None, restrict="R7"):
    """A random plane, then ``angles`` circle points and ``extra(rng, plane)``
    drawn in that order from the (seed, tag, name, k) stream of instance k."""

    def make(seed, k):
        p = random_orthonormal_pair(seed, restrict, (name, k))
        rng = derived_rng(seed, tag, name, k)
        drawn = (p,) + tuple(_random_angle(rng) for _ in range(angles))
        return drawn + (extra(rng, p) if extra else ())

    return _indexed(make)


def _pair(rng):
    return random_octonion(rng), random_octonion(rng)


def _triple(rng):
    return tuple(random_octonion(rng) for _ in range(3))


def _orthogonal_pair(rng):
    x = _orthogonal_to(rng, ())
    return x, _orthogonal_to(rng, [x])


def _orthogonal_triple(rng):
    x, y = _orthogonal_pair(rng)
    return x, y, _orthogonal_to(rng, [x, y, mul(x, y)])


def _divisible_pair(rng):
    b = random_octonion(rng)
    u = random_octonion(rng)
    while norm_sq(u) == 0:
        u = random_octonion(rng)
    return b, u


def _unit_triple_inputs(seed, trials):
    """The basis pairs of the Fano lines, then ``trials`` random orthonormal pairs."""
    for a, b, _ in FANO_CYCLES:
        yield Octonion.basis(a), Octonion.basis(b)
    for k in range(len(FANO_CYCLES), len(FANO_CYCLES) + trials):
        p = random_orthonormal_pair(seed, "R7", ("unit-triple", k))
        yield p.u, p.v


def _complement_vector(rng, p):
    return (_orthogonal_to(rng, [p.u, p.v]),)


def _scaled_plane(rng, p):
    a = random_rational(rng, 9, 4)
    while a == 0:
        a = random_rational(rng, 9, 4)
    return OrientedPlane(p.u.scale(a), p.v.scale(a)), a


def _w_coefficients(rng, p):
    """Exact coefficients (a, b, c, d), not all zero, of w' in the w-frame."""
    while True:
        coeffs = tuple(random_rational(rng, 6, 4) for _ in range(4))
        if any(coeffs):
            return (coeffs,)


def _cayley_inputs(seed, k):
    rng = derived_rng(seed, "rotation", "cayley", k)
    return cayley_orthogonal(random_antisymmetric(rng, range(8))), k


def _unit_vector(seed, k):
    rng = derived_rng(seed, "unit-vector", k)
    a = random_antisymmetric(rng, range(8))
    (column,) = cayley_columns(a, (rng.randrange(8),))
    return column, k


def _angle_parameters(seed, k):
    rng = derived_rng(seed, "square", "p-map", k)
    return random_rational(rng, 8, 5), random_rational(rng, 8, 5), k


# --------------------------------------------------------------------------
# Checks: check(backend, *inputs) -> verdict(s)


def _e3_e2(b, e3, e2, e1):
    return None if oct_eq(mul(e3, e2), -e1, b) else "e3*e2 != -e1"


def _alternative(b, x, y):
    left = oct_eq(mul(x, mul(x, y)), mul(mul(x, x), y), b)
    right = oct_eq(mul(mul(y, x), x), mul(y, mul(x, x)), b)
    return None if left and right else {"x": x, "y": y}


def _moufang_bimultiplication(b, x, y, z):
    p = mul(mul(x, mul(y, z)), x)
    q = mul(x, mul(mul(y, z), x))
    r = mul(mul(x, y), mul(z, x))
    return None if oct_eq(p, q, b) and oct_eq(q, r, b) else {"x": x}


def _moufang_left(b, x, y, z):
    ok = oct_eq(mul(mul(x, mul(y, x)), z), mul(x, mul(y, mul(x, z))), b)
    return None if ok else {"x": x}


def _moufang_right(b, x, y, z):
    ok = oct_eq(mul(y, mul(x, mul(z, x))), mul(mul(mul(y, x), z), x), b)
    return None if ok else {"x": x}


def _anticommute(b, x, y):
    return None if oct_eq(mul(x, y), -mul(y, x), b) else {"x": x, "y": y}


def _unit_triple(b, x, y):
    return None if oct_eq(mul(y, mul(x, y)), x, b) else {"x": x, "y": y}


def _anti_associative(b, x, y, z):
    ok = oct_eq(mul(x, mul(y, z)), -mul(mul(x, y), z), b)
    return None if ok else {"x": x, "y": y, "z": z}


def _norm_multiplicative(b, x, y):
    ok = b.eq(norm_sq(mul(x, y)), norm_sq(x) * norm_sq(y))
    return None if ok else {"x": x, "y": y}


def _conjugation(b, x):
    e0 = Octonion.basis(0)
    ok = oct_eq(conj(conj(x)), x, b) and oct_eq(mul(x, conj(x)), e0.scale(norm_sq(x)), b)
    return None if ok else {"x": x}


def _right_division(b, v, u):
    return None if oct_eq(right_divide(mul(v, u), u, b), v, b) else {"b": v, "u": u}


def _fano_consistency(b):
    seen = {}
    for x, y, z in FANO_CYCLES:
        for pair in ((x, y), (y, z), (z, x)):
            key = frozenset(pair)
            if key in seen:
                return f"pair {sorted(key)} appears on two lines"
            seen[key] = True
    if len(seen) != 21:
        return "table does not cover all 21 imaginary pairs"
    for i in range(1, 8):
        for j in range(1, 8):
            if i == j:
                continue
            if FANO_INDEX[i][j] != FANO_INDEX[j][i]:
                return f"index table not symmetric at ({i},{j})"
            if FANO_SIGN[i][j] != -FANO_SIGN[j][i]:
                return f"sign table not antisymmetric at ({i},{j})"
    return None


def _one_parameter(b, p, t, t2):
    lhs = plane_rotation(p, angle_sum(t, t2), b)
    rhs = compose(plane_rotation(p, t, b), plane_rotation(p, t2, b))
    return None if mat_eq(lhs, rhs, b) else {"plane": p, "t": t}


def _fixes_complement(b, p, t, t2, z):
    ok = oct_eq(apply(plane_rotation(p, t, b), z), z, b)
    return None if ok else {"plane": p, "z": z}


def _orientation_reversal(b, p, t):
    rhs = plane_rotation(OrientedPlane(p.v, p.u), t.inverse(), b)
    return None if mat_eq(plane_rotation(p, t, b), rhs, b) else {"plane": p}


def _scaling_invariance(b, p, t, t2, scaled, lam):
    ok = mat_eq(plane_rotation(scaled, t, b), plane_rotation(p, t, b), b)
    return None if ok else {"plane": p, "lambda": lam}


def _basis_invariance(b, p, t, s):
    lhs = plane_rotation(rotate_plane_basis(p, s), t, b)
    return None if mat_eq(lhs, plane_rotation(p, t, b), b) else {"plane": p, "s": s}


def _rotation_is_special_orthogonal(b, p, t):
    ok = so_check(plane_rotation(p, t, b), b).passed
    return None if ok else {"plane": p, "t": t}


def _cayley_special_orthogonal(b, q, k):
    return None if so_check(q, b).passed else {"trial": k}


def _combination(coeffs, vectors):
    a, b, c, d = coeffs
    return vectors[0].scale(a) + vectors[1].scale(b) + vectors[2].scale(c) + vectors[3].scale(d)


def _orthogonal_frame(b, p, t):
    failures = frame_table(basis_b(p, backend=b), b)
    return {"plane": p, "pairs": failures[:4]} if failures else None


def _f7_plane_basis_invariance(b, p, t, s):
    w = choose_w(p, b)
    lhs = f7(rotate_plane_basis(p, s), t, w, b)
    return None if mat_eq(lhs, f7(p, t, w, b), b) else {"plane": p, "s": s}


def _w_choice_invariance(b, p, t, coeffs):
    frame = basis_b(p, backend=b).elements
    w2 = _combination(coeffs, frame[4:])
    ok = mat_eq(f7(p, t, w2, b), f7(p, t, frame[4], b), b)
    return None if ok else {"plane": p, "coefficients": coeffs}


#: For each factor of w'*factor: its frame index and the coefficients of
#: (w, wx, wy, w(xy)) in the product, from those (a, b, c, d) of w'.
_EXPANSIONS = {
    "x": (1, lambda a, b, c, d: (-b, a, -d, c)),
    "y": (2, lambda a, b, c, d: (-c, d, a, -b)),
    "xy": (3, lambda a, b, c, d: (-d, -c, b, a)),
}


def _w_expansion(which):
    index, product = _EXPANSIONS[which]

    def check(b, p, t, coeffs):
        frame = basis_b(p, backend=b).elements
        lhs = mul(_combination(coeffs, frame[4:]), frame[index])
        ok = oct_eq(lhs, _combination(product(*coeffs), frame[4:]), b)
        return None if ok else {"plane": p}

    return check


def _tail_pair_action(b, p, t, coeffs):
    frame = basis_b(p, backend=b)
    w2 = _combination(coeffs, frame.elements[4:])
    _, _, r3, r4 = f7_factors(frame, t, b)
    lhs = apply(compose(r3, r4), w2)
    rhs = w2.scale(t.c) + mul(w2, frame.elements[3]).scale(t.s)
    return None if oct_eq(lhs, rhs, b) else {"plane": p, "t": t}


def _f7_image(b, p, t):
    report = verify_spin7(f7(p, t, None, b), b)
    if report.is_member:
        return None
    return {"plane": p, "t": t, "relation_failures": report.relation_failures[:4]}


def _f5_image(b, p, t):
    return None if verify_spin7(f5(p, t, b), b).is_member else {"plane": p}


def _product_image(b, p7, t, p5, t2, k):
    ok = verify_spin7(f7xf5(p7, t, p5, t2, b), b).is_member
    return None if ok else {"trial": k}


def _minus_identity(b, minus_identity):
    ok = verify_spin7(minus_identity, b).is_member
    return None if ok else "verify_spin7(-I) rejected"


def _single_rotation_rejected(b, plane, quarter):
    report = verify_spin7(plane_rotation(plane, quarter, b), b)
    if not report.is_member and report.relation_failures:
        return None
    return "a single-plane rotation of R^8 was accepted as a member"


def _spin8_coordinates(b, p7, t, p5, t2, s, k):
    matrix, s_out = spin8_map(p7, t, p5, t2, s, b)
    if not verify_spin7(matrix, b).is_member:
        return {"trial": k, "reason": "first component not a member"}
    if not oct_eq(s_out, s, b):
        return {"trial": k, "reason": "s vector did not pass through"}
    return None


def _triality(b, p, t, k):
    report = triality_check(p, t, b)
    return (
        {"trial": k, "failures": report.pair_failures[:4]} if report.pair_failures else None,
        None if report.explicit_case_ok else {"trial": k},
        {"trial": k} if report.half_turn_failures else None,
    )


def _factors_commute(b, p, t, k):
    factors = f7_factors(basis_b(p, backend=b), t, b)
    for i in range(4):
        for j in range(i + 1, 4):
            if not mat_eq(compose(factors[i], factors[j]), compose(factors[j], factors[i]), b):
                return {"trial": k, "pair": [i, j]}
    return None


def _projection(b, p, t):
    lhs = project_double_cover(f7(p, t, None, b))
    rhs = plane_rotation(p, double_angle(t), b)
    return None if mat_eq(lhs, rhs, b) else {"plane": p, "t": t}


def _center(b, p, t):
    identity = Matrix8.identity()
    if not mat_eq(f7(p, CIRCLE_HALF, None, b), -identity, b):
        return {"plane": p, "reason": "f7 at angle pi != -I"}
    # -I is an exact constant on every backend, and so is its projection.
    if project_double_cover(-identity) != identity:
        return {"reason": "-I did not project to the identity"}
    return None


def _cover_homomorphism(b, p7, t, p5, t2, k):
    x, y = f7(p7, t, None, b), f5(p5, t2, b)
    lhs = project_double_cover(compose(x, y))
    rhs = compose(project_double_cover(x), project_double_cover(y))
    return None if mat_eq(lhs, rhs, b) else {"trial": k}


def _square(b, seed, trials, squares):
    """``verify_square(seed, trials, b)``, computed once per run into ``squares``."""
    if (seed, trials) not in squares:
        squares[seed, trials] = degree_mod.verify_square(seed, trials, b)
    return squares[seed, trials]


def _square_pointwise(b, seed, trials, squares):
    square = _square(b, seed, trials, squares)
    details = {"max_residual": float(square.max_residual)}
    return Tally(square.trials, list(square.failures), details)


def _angle_doubling(b, u, u2, k):
    # The circle points are built here, from the exact stereographic
    # parameters, so the reparametrization is checked exactly on any backend.
    t, t2 = circle_from_parameter(u), circle_from_parameter(u2)
    d1, d2 = p_map(t, t2)
    ok = d1 == angle_sum(t, t) and d2 == angle_sum(t2, t2) and d1.c * d1.c + d1.s * d1.s == 1
    return None if ok else {"trial": k}


def _circle_degrees(b):
    wind = degree_mod.winding_degree
    doubling = wind(double_angle)
    degrees = (
        wind(lambda p: p) == 1,
        doubling == 2,
        wind(lambda p: CirclePoint(1, 0)) == 0,
        wind(lambda p: double_angle(double_angle(p))) == 4,
        doubling == wind(double_angle, 1024),
    )
    return tuple(None if ok else "mismatch" for ok in degrees)


def _degree_ledger(b, seed, trials, squares):
    # The ledger winds the doubling map itself, so an error in the square
    # check stays in this entry and leaves the circle claims alone.
    doubling = degree_mod.winding_degree(double_angle)
    square = _square(b, seed, max(1, min(trials, 10)), squares)
    try:
        ledger = degree_mod.degree_ledger(square, doubling, doubling)
    except degree_mod.LedgerError as err:
        return Tally(1, [str(err)], {"error": str(err)})
    details = ledger.to_dict()
    details["square"] = square.to_dict()
    ok = ledger.conclusion_magnitude == 8
    failures = [] if ok else ["ledger arithmetic did not yield magnitude 8"]
    return Tally(1, failures, details)


# --------------------------------------------------------------------------
# The claim table


CLAIMS: Dict[str, tuple] = {
    "octonion-identities": (
        Claim({"octonion.e3e2-equals-minus-e1": "e3 * e2 = -e1"},
              _once(Octonion.basis(3), Octonion.basis(2), Octonion.basis(1)), _e3_e2),
        Claim({"octonion.alternative": "x*(x*y) = (x*x)*y and (y*x)*x = y*(x*x)"},
              _streamed("octonion", "alternative", _pair), _alternative),
        Claim({"octonion.moufang-bimultiplication": "(x*(y*z))*x = x*((y*z)*x) = (x*y)*(z*x)"},
              _streamed("octonion", "moufang-1", _triple), _moufang_bimultiplication),
        Claim({"octonion.moufang-left": "(x*(y*x))*z = x*(y*(x*z))"},
              _streamed("octonion", "moufang-2", _triple), _moufang_left),
        Claim({"octonion.moufang-right": "y*(x*(z*x)) = ((y*x)*z)*x"},
              _streamed("octonion", "moufang-3", _triple), _moufang_right),
        Claim({"octonion.anticommute-orthogonal":
               "x*y = -y*x for orthogonal purely imaginary x, y"},
              _streamed("octonion", "anticommute", _orthogonal_pair), _anticommute),
        Claim({"octonion.unit-triple-cycle": "y*(x*y) = x for orthonormal purely imaginary x, y"},
              _unit_triple_inputs, _unit_triple),
        Claim({"octonion.orthogonal-anti-associative":
               "x*(y*z) = -(x*y)*z when x, y, z, x*y are mutually orthogonal imaginary"},
              _streamed("octonion", "anti-associative", _orthogonal_triple), _anti_associative),
        Claim({"octonion.norm-multiplicative": "|x*y|^2 = |x|^2 * |y|^2"},
              _streamed("octonion", "norm", _pair), _norm_multiplicative),
        Claim({"octonion.conjugation": "conj(conj(x)) = x and x*conj(x) = |x|^2 e0"},
              _streamed("octonion", "conjugation", lambda rng: (random_octonion(rng),)),
              _conjugation),
        Claim({"octonion.right-division": "right_divide(b*u, u) = b for u != 0"},
              _streamed("octonion", "right-division", _divisible_pair), _right_division),
        Claim({"octonion.fano-consistency":
               "every imaginary pair lies on exactly one oriented line; ei*ej = -ej*ei"},
              _once(), _fano_consistency),
    ),
    "rotation-laws": (
        Claim({"rotation.one-parameter": "rot(P, t + t') = rot(P, t) * rot(P, t')"},
              _plane("rotation", "one-parameter", 2), _one_parameter),
        Claim({"rotation.fixes-complement": "rot(P, t) fixes every vector orthogonal to the plane"},
              _plane("rotation", "fixes-complement", 2, _complement_vector), _fixes_complement),
        Claim({"rotation.orientation-reversal": "rot([u,v], t) = rot([v,u], -t)"},
              _plane("rotation", "orientation"), _orientation_reversal),
        Claim({"rotation.scaling-invariance": "rot([a*u, a*v], t) = rot([u, v], t) for a != 0"},
              _plane("rotation", "scaling", 2, _scaled_plane), _scaling_invariance),
        Claim({"rotation.basis-invariance": "rot(P, t) does not depend on the spanning pair of P"},
              _plane("rotation", "basis", 2), _basis_invariance),
        Claim({"rotation.special-orthogonal": "every plane rotation passes the SO(8) check"},
              _plane("rotation", "so"), _rotation_is_special_orthogonal),
        Claim({"geometry.cayley-special-orthogonal":
               "Cayley transforms of antisymmetric matrices pass the SO(8) check"},
              _indexed(_cayley_inputs), _cayley_special_orthogonal),
    ),
    "f7-well-defined": (
        Claim({"frame.orthogonal-basis": "(e0, x, y, xy, w, wx, wy, w(xy)) is orthogonal and "
               "multiplies into signed frame elements"},
              _plane("f7wd", "frame"), _orthogonal_frame),
        Claim({"f7.plane-basis-invariance":
               "the rotation product is invariant under rotating the spanning pair"},
              _plane("f7wd", "plane-basis", 2), _f7_plane_basis_invariance),
        Claim({"f7.w-choice-invariance":
               "any nonzero w' = a*w + b*wx + c*wy + d*w(xy) gives the same map"},
              _plane("f7wd", "w-invariance", 1, _w_coefficients), _w_choice_invariance),
        Claim({"f7.w-expansion-x": "w'*x = -b*w + a*wx - d*wy + c*w(xy)"},
              _plane("f7wd", "w-expansion-x", 1, _w_coefficients), _w_expansion("x")),
        Claim({"f7.w-expansion-y": "w'*y = -c*w + d*wx + a*wy - b*w(xy)"},
              _plane("f7wd", "w-expansion-y", 1, _w_coefficients), _w_expansion("y")),
        Claim({"f7.w-expansion-xy": "w'*(xy) = -d*w - c*wx + b*wy + a*w(xy)"},
              _plane("f7wd", "w-expansion-xy", 1, _w_coefficients), _w_expansion("xy")),
        Claim({"f7.tail-pair-action":
               "the last two rotation factors send w' to c*w' + s*(w'*(xy))"},
              _plane("f7wd", "tail-action", 1, _w_coefficients), _tail_pair_action),
    ),
    "spin7-membership": (
        Claim({"spin7.f7-image": "every value of the four-rotation product satisfies the "
               "membership relation g(a) g~(b) = g~(a*b)"},
              _plane("membership", "f7"), _f7_image),
        Claim({"spin7.f5-image": "every value of the restricted map lies in Spin(7)"},
              _plane("membership", "f5", restrict="R5"), _f5_image),
        Claim({"spin7.product-image": "pointwise products of the two maps lie in Spin(7)"},
              _joined(_plane("membership", "product7"),
                      _plane("membership", "product5", restrict="R5"), _index),
              _product_image),
        Claim({"spin7.minus-identity": "-I lies in Spin(7) (the nontrivial deck transformation)"},
              _once(-Matrix8.identity()), _minus_identity),
        Claim({"spin7.single-rotation-rejected":
               "a generic single-plane rotation of R^8 violates the membership relation"},
              _once(OrientedPlane(Octonion.basis(0), Octonion.basis(1)), CIRCLE_QUARTER),
              _single_rotation_rejected),
        Claim({"spin8.product-coordinates": "the Spin(8)-valued map has a Spin(7) first "
               "component and passes s through unchanged"},
              _joined(_plane("membership", "spin8-7"),
                      _plane("membership", "spin8-5", restrict="R5"), _indexed(_unit_vector)),
              _spin8_coordinates),
    ),
    "triality": (
        Claim({"triality.sixty-four-pairs":
               "g(a) psi(b) = psi(a*b) for all 64 ordered frame pairs",
               "triality.explicit-case": "g(x) psi(y) = -s*e0 + c*xy = psi(xy)",
               "triality.quarter-turn":
               "a * psi_quarter(b) = psi_quarter(a*b) for frame elements a outside {x, y}"},
              _joined(_plane("triality", "pairs"), _index), _triality),
        Claim({"f7.factors-commute": "the four rotation factors commute pairwise"},
              _joined(_plane("triality", "commute"), _index), _factors_commute),
    ),
    "double-cover": (
        Claim({"cover.projects-to-doubled-rotation": "projecting the four-rotation product "
               "yields the plane rotation at the doubled angle"},
              _plane("cover", "projection"), _projection),
        Claim({"cover.center": "the angle-pi value of the rotation product is -I, and -I "
               "projects to the identity"},
              _plane("cover", "center"), _center),
        Claim({"cover.homomorphism": "the projection is multiplicative on products of map values"},
              _joined(_plane("cover", "hom7"), _plane("cover", "hom5", restrict="R5"), _index),
              _cover_homomorphism),
    ),
    "commutative-square": (
        Claim({"square.pointwise": "cover(f7(P,t) * f5(P',t')) = h70(P, 2t, P', 2t') pointwise"},
              _run_config, _square_pointwise),
        Claim({"square.angle-doubling":
               "the reparametrization doubles both circle factors and stays on the circle"},
              _indexed(_angle_parameters), _angle_doubling),
    ),
    "degree-ledger": (
        Claim({"degree.identity-map": "the identity circle map has winding degree 1",
               "degree.double-angle": "the angle-doubling map has winding degree 2",
               "degree.constant-map": "a constant circle map has winding degree 0",
               "degree.composition":
               "winding degree is multiplicative: doubling twice has degree 4",
               "degree.sample-stability":
               "the degree of the doubling map is the same at 256 and 1024 samples"},
              _once(), _circle_degrees),
        Claim({"degree.ledger": "combining the computed circle degrees (2 and 2) with the "
               "cited multipliers (2 and 4) yields magnitude 8, sign undetermined"},
              _run_config, _degree_ledger),
    ),
}

SUITE_NAMES = tuple(CLAIMS)


def _suite(name: str) -> Callable:
    def run(backend: Backend, seed: int, trials: int, squares=None) -> List[dict]:
        """The report records of one suite's table entries, in report order."""
        return [r for entry in CLAIMS[name] for r in _run(entry, backend, seed, trials, squares)]

    run.__name__ = run.__qualname__ = "suite_" + name.replace("-", "_")
    return run


SUITES: Dict[str, Callable] = {name: _suite(name) for name in SUITE_NAMES}
suite_octonion_identities = SUITES["octonion-identities"]
suite_rotation_laws = SUITES["rotation-laws"]
suite_f7_well_defined = SUITES["f7-well-defined"]
suite_spin7_membership = SUITES["spin7-membership"]
suite_triality = SUITES["triality"]
suite_double_cover = SUITES["double-cover"]
suite_commutative_square = SUITES["commutative-square"]
suite_degree_ledger = SUITES["degree-ledger"]


def run_verify_suite(config: RunConfig, suite_names=None):
    """Run the selected suites and build the deterministic report.

    Returns (exit_code, report_dict): exit code 0 when every claim passed,
    1 otherwise.  Invalid configurations raise ValueError before any suite
    runs (the CLI maps that to exit code 2).
    """
    backend = make_backend(config.backend, config.epsilon)
    if config.trials < 1:
        raise ValueError("trials must be at least 1")
    if suite_names is None:
        suite_names = SUITE_NAMES
    unknown = [s for s in suite_names if s not in SUITES]
    if unknown:
        raise ValueError(f"unknown suites: {', '.join(unknown)}")
    selected = [s for s in SUITE_NAMES if s in suite_names]
    if not selected:
        raise ValueError("no suites selected")
    run = (backend, config.seed, config.trials, {})  # one dict of squares for all suites
    results = {name: SUITES[name](*run) for name in selected}
    all_passed = all(c["passed"] for records in results.values() for c in records)
    report = {
        "config": {
            "backend": config.backend,
            "epsilon": config.epsilon if config.backend == "float" else None,
            "seed": config.seed,
            "trials": config.trials,
            "suites": selected,
        },
        "results": results,
        "all_passed": all_passed,
    }
    return (0 if all_passed else 1), report


def render_report(report: dict) -> str:
    """Canonical JSON text; byte-identical for identical configurations."""
    return json.dumps(report, indent=2, sort_keys=True) + "\n"
