"""Rotation products landing in Spin(7), and the membership machinery.

The central map sends an oriented plane [x, y] of purely imaginary unit
vectors and a circle point t to the product of four plane rotations, all by
the angle t, through the mutually orthogonal planes

    [x, y], [e0, x*y], [w, w*(x*y)], [w*x, w*y],

where w is any nonzero vector orthogonal to span{e0, x, y, x*y}.  The planes
span R^8, so the product is c*I + s*J, J the frame's complex structure on
R^8 = C^4.  Together with its restriction to planes inside span{e1..e5},
pointwise products of the two, and the projection to SO(7), this module
provides everything the verification suites exercise: the eight-element
frame and its product table, the double-cover projection, the Spin(7)
membership decision procedure, and the octonion-multiplication compatibility
check.

Every frame multiplies like one signed table, ``FRAME_TABLE`` (N = |w|^2 on
the w-block).  One loop checks a relation g(a) h(b) = h(a*b) against a table:
the basis table for membership, ``FRAME_TABLE`` for triality and the frame.

Spin(7) is realized inside SO(8) as the set of g~ admitting a g in SO(7)
with g(a) * g~(b) = g~(a*b) for all octonions a, b; the projection
g~ -> g is the double covering.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Optional, Tuple

from .geometry import (
    Matrix8,
    OrientedPlane,
    PlaneError,
    apply,
    check_plane,
    complement_vector,
    compose,
    plane_rotation,
    serialize_matrix,
    so_check,
)
from .octonion import (
    FANO_INDEX,
    FANO_SIGN,
    Octonion,
    Vector8,
    conj_numerators,
    inner_cleared,
    mul,
    mul_numerators,
    norm_sq,
    oct_eq,
)
from .scalar import (
    Backend,
    CIRCLE_QUARTER,
    CirclePoint,
    EXACT,
    ExactBackend,
    Scalar,
    cleared,
    cleared_eq,
    double_angle,
    over_one_scale,
)


class FrameError(ValueError):
    """The eight-element frame failed one of its orthogonality contracts."""


FRAME_NAMES = ("e0", "x", "y", "xy", "w", "wx", "wy", "w(xy)")
_UPPER = [(i, j) for i in range(8) for j in range(i + 1, 8)]


@dataclass(frozen=True)
class FrameB:
    """Orthogonal frame (e0, x, y, xy, w, wx, wy, w(xy)) of R^8.

    The first four elements are unit; the last four share the squared norm
    ``norm_w`` of w (w is not required to be unit).
    """

    elements: Tuple[Octonion, ...]
    norm_w: Scalar

    def planes(self) -> Tuple[OrientedPlane, ...]:
        """The planes [x, y], [e0, xy], [w, w(xy)], [wx, wy] of the f7 rotations."""
        e0, x, y, xy, wv, wx, wy, wxy = self.elements
        return tuple(map(OrientedPlane, (x, e0, wv, wx), (y, xy, wxy, wy)))

    @cached_property
    def complex_structure(self) -> Matrix8:
        """J = sum_k (v_k u_k^T - u_k v_k^T) / N_k over the ``planes`` [u_k, v_k]
        of exact elements: the four ``_plane_term``s brought ``over_one_scale``
        and summed, negated below the diagonal.  J^2 = -I; f7 at (c, s) is c*I + s*J."""
        terms, den = over_one_scale([_plane_term(q) for q in self.planes()])
        upper = map(sum, zip(*terms))
        nums = [0] * 64
        for (i, j), x in zip(_UPPER, upper):
            nums[8 * i + j], nums[8 * j + i] = x, -x
        return Matrix8.scaled(nums, den)


def _plane_term(p: OrientedPlane):
    """(v u^T - u v^T) / |u|^2 of the plane [u, v]: the int numerators V_i U_j -
    U_i V_j, (i, j) in ``_UPPER``, over U.U, for u = U/S, v = V/S on the one
    scale S of ``over_one_scale``, which cancels."""
    (u, v), _ = over_one_scale([p.u.cleared, p.v.cleared])
    return [v[i] * u[j] - u[i] * v[j] for i, j in _UPPER], sum(x * x for x in u)


def basis_b(
    p: OrientedPlane, w: Optional[Vector8] = None, backend: Backend = EXACT
) -> FrameB:
    """Build and validate the frame spanned by the plane [x, y] and w.

    w defaults to ``choose_w(p)``, chosen after the plane passes
    ``check_plane`` (which raises PlaneError first) from the same product
    x*y that becomes the frame element.  Every other contract raises
    FrameError: N = |w|^2 must be nonzero; the 28 pairwise inner products
    must vanish, taken column by column so the first failure names the later
    element (a real part of x fails against e0, a w inside span{e0, x, y, xy}
    against that span); the first four squared norms must be 1 and the last
    four N, each decided with ``backend.eq`` on ``inner_cleared`` numerators.
    """
    check_plane(p, backend)
    x, y = p.u, p.v
    xy = mul(x, y)
    if w is None:
        w = complement_vector(x, y, xy, backend)
    elements = (Octonion.basis(0), x, y, xy, w, mul(w, x), mul(w, y), mul(w, xy))
    nw = inner_cleared(w, w)
    if backend.eq(nw[0], 0):
        raise FrameError("w must be nonzero")
    for j in range(8):
        for i in range(j):
            if not backend.eq(inner_cleared(elements[i], elements[j])[0], 0):
                raise FrameError(
                    f"frame elements {FRAME_NAMES[i]} and {FRAME_NAMES[j]} "
                    "are not orthogonal"
                )
    for i, el in enumerate(elements):
        num, scale = inner_cleared(el, el)
        want, wscale = (1, 1) if i < 4 else nw
        if not cleared_eq([num], scale, [want], wscale, backend):
            raise FrameError(f"frame element {FRAME_NAMES[i]} has the wrong norm")
    return FrameB(elements, norm_sq(w))


def _standard_frame_table():
    """The table read off FANO_SIGN/FANO_INDEX on the frame of [e1, e2], w = e4.

    That frame is (e0, e1, e2, e3, e4, -e5, e6, -e7), element i = sign_i * e_i.
    """
    e1, e2, e4 = (Octonion.basis(i) for i in (1, 2, 4))
    signs = [int(el.coords[i]) for i, el in enumerate(basis_b(OrientedPlane(e1, e2), e4).elements)]
    return tuple(
        tuple(
            (signs[i] * signs[j] * signs[k] * FANO_SIGN[i][j], k, int(i >= 4 and j >= 4))
            for j in range(8)
            for k in (FANO_INDEX[i][j],)
        )
        for i in range(8)
    )


#: FRAME_TABLE[i][j] = (sign, k, power): elements[i] * elements[j] =
#: sign * N**power * elements[k] in every frame, N = |w|^2; power is 1
#: exactly when both factors come from the last four elements.
FRAME_TABLE = _standard_frame_table()


def frame_table(f: FrameB, backend: Backend = EXACT) -> Tuple[Tuple[int, int], ...]:
    """The pairs (i, j) whose product elements[i] * elements[j], multiplied
    out, disagrees with its ``FRAME_TABLE`` entry; () for a valid frame."""
    return _relation_failures(f.elements, f.elements, FRAME_TABLE, f.norm_w, backend)


def format_frame_table(table) -> str:
    """Human-readable grid for the frame product table."""
    def cell(entry):
        sign, k, power = entry
        body = ("N*" if power else "") + FRAME_NAMES[k]
        return ("-" if sign < 0 else "+") + body

    width = max(len(cell(e)) for row in table for e in row)
    width = max(width, max(len(n) for n in FRAME_NAMES))
    header = " " * (width + 2) + " ".join(n.rjust(width) for n in FRAME_NAMES)
    lines = [header]
    for i, row in enumerate(table):
        cells = " ".join(cell(e).rjust(width) for e in row)
        lines.append(FRAME_NAMES[i].rjust(width + 2) + " " + cells)
    return "\n".join(lines)


def f7_factors(
    frame: FrameB, t: CirclePoint, backend: Backend = EXACT
) -> Tuple[Matrix8, Matrix8, Matrix8, Matrix8]:
    """The four commuting plane rotations at angle t whose product is the
    Spin(7) map, through the ``planes`` of a frame that ``basis_b`` built and
    validated."""
    return tuple(plane_rotation(q, t, backend) for q in frame.planes())


def _rotation_product(frame: FrameB, t: CirclePoint, backend: Backend) -> Matrix8:
    """The product of the four ``f7_factors``.  On exact elements and angle it
    is c*I + s*J: with J = JN/L the frame's ``complex_structure`` and
    (c, s) = (C, S)/d, C*L on the diagonal plus S*JN, over d*L.  A float frame
    or angle keeps the chain and its bits; a float frame is orthogonal only
    within the tolerance."""
    (c, s), d = cleared([t.c, t.s])
    if type(d) is not int or any(type(e.cleared[1]) is not int for e in frame.elements):
        return reduce(compose, f7_factors(frame, t, backend))
    jn, den = frame.complex_structure.cleared
    return Matrix8.scaled([s * x + (k % 9 == 0 and c * den) for k, x in enumerate(jn)], d * den)


def f7(
    p: OrientedPlane,
    t: CirclePoint,
    w: Optional[Vector8] = None,
    backend: Backend = EXACT,
) -> Matrix8:
    """Product of the four plane rotations at angle t; lands in Spin(7).

    The result does not depend on the admissible w (nor on the spanning
    pair chosen for the plane); w defaults as in ``basis_b``.  On exact input
    it is c*I + s*J, see ``_rotation_product``.
    """
    return _rotation_product(basis_b(p, w, backend), t, backend)


def f5(p: OrientedPlane, t: CirclePoint, backend: Backend = EXACT) -> Matrix8:
    """Restriction of the Spin(7) map to planes inside span{e1..e5}."""
    if not all(backend.eq(vec.coords[i], 0) for vec in (p.u, p.v) for i in (0, 6, 7)):
        raise PlaneError("plane must be supported on coordinates 1..5")
    return f7(p, t, None, backend)


def f7xf5(
    p7: OrientedPlane,
    t: CirclePoint,
    p5: OrientedPlane,
    t2: CirclePoint,
    backend: Backend = EXACT,
) -> Matrix8:
    """Pointwise product of the two Spin(7)-valued rotation maps."""
    return compose(f7(p7, t, None, backend), f5(p5, t2, backend))


def h70(
    p7: OrientedPlane,
    t: CirclePoint,
    p5: OrientedPlane,
    t2: CirclePoint,
    backend: Backend = EXACT,
) -> Matrix8:
    """Product of the two bare plane rotations; fixes e0, lands in SO(7)."""
    return compose(plane_rotation(p7, t, backend), plane_rotation(p5, t2, backend))


def p_map(t: CirclePoint, t2: CirclePoint) -> Tuple[CirclePoint, CirclePoint]:
    """Double both circle parameters; plane arguments pass through unchanged."""
    return double_angle(t), double_angle(t2)


def project_double_cover(gt: Matrix8) -> Matrix8:
    """Candidate SO(7) image of g~ under the double covering.

    The defining relation g(a) g~(b) = g~(a*b) at b = e0 forces
    g(a) = g~(a) * g~(e0)^-1; the matrix built column-by-column from that
    formula (with g(e0) = e0) is the canonical covering image whenever
    g~ lies in Spin(7), and the candidate tested for membership otherwise.

    With g~ = G/S and |g~(e0)|^2 = nn/S^2, column i is
    (G_i conj(G_0)) / nn: one product of numerators per column, and one
    ``Matrix8.scaled`` over nn, of the type of S (a float g~ may hold an int
    first column).  Raises ZeroDivisionError when g~(e0) is exactly zero.
    """
    nums, scale = gt.cleared
    cols = [nums[j::8] for j in range(8)]
    nn = type(scale)(sum(x * x for x in cols[0]))
    if not nn:
        raise ZeroDivisionError("division by the zero octonion")
    inv = conj_numerators(cols[0])
    cols = [(nn,) + (0,) * 7] + [mul_numerators(c, inv) for c in cols[1:]]
    return Matrix8.scaled([col[i] for i in range(8) for col in cols], nn)


@dataclass(frozen=True)
class MembershipReport:
    """Spin(7) membership verdict for one candidate matrix."""

    candidate_g: Matrix8
    relation_failures: Tuple[Tuple[int, int], ...]
    g_in_so7: bool
    is_member: bool

    def to_dict(self, backend: Backend = EXACT) -> dict:
        return {
            "is_member": self.is_member,
            "g_in_so7": self.g_in_so7,
            "relation_failures": [list(p) for p in self.relation_failures],
            "candidate_g": serialize_matrix(self.candidate_g, backend),
        }


def _relation_failures(left, images, table, n, backend: Backend, rows=range(8)):
    """The pairs (i, j), i in rows, where g(a_i) h(b_j) != h(a_i * b_j).

    a and b run over one basis, with ``table`` giving a_i * b_j =
    sign * n**power * b_k, power 0 or 1.  ``left[i]`` = g(a_i) and
    ``images[j]`` = h(b_j) are multiplied out, each side ``over_one_scale``:
    h(b_j) = H_j/S, and g(a_i) = A_i/L with n = N/L on the same scale L.  The
    relation is A_i H_j == sign * (N if power else L) * H_k, its right side
    built once per table entry; on floats L is 1.0 and the numerators are
    values, compared by ``backend.eq``.
    """
    (*lefts, (nn,)), lscale = over_one_scale([left[i].cleared for i in rows] + [cleared([n])])
    hs = over_one_scale([h.cleared for h in images])[0]
    targets = {(sign, k, power): [sign * (nn if power else lscale) * x for x in hs[k]]
               for sign, k, power in {e for i in rows for e in table[i]}}
    exact = isinstance(backend, ExactBackend)
    failures = []
    for i, an in zip(rows, lefts):
        for j, bn in enumerate(hs):
            prod, target = mul_numerators(an, bn), targets[table[i][j]]
            if not (prod == target if exact else all(map(backend.eq, prod, target))):
                failures.append((i, j))
    return tuple(failures)


def verify_spin7(gt: Matrix8, backend: Backend = EXACT) -> MembershipReport:
    """Decide whether g~ lies in Spin(7).

    Extracts the unique candidate g with g(a) g~(e0) = g~(a), checks that g
    fixes e0 and is special orthogonal, and checks the relation
    g(ei) * g~(ej) = g~(ei*ej) on all 64 basis pairs (bilinearity extends the
    basis check to all octonion pairs).  A g in SO(8) fixing e0 preserves the
    imaginary subspace: once g(e0) = e0, the first row of g^T g is the first
    row of g, so the ``so_check`` residual bounds it.

    When ``backend.eq(|g~(e0)|^2, 0)`` (the test ``right_divide`` applies)
    there is no candidate: the report is a non-member with a zero
    candidate_g and no relation failures.
    """
    if backend.eq(norm_sq(gt.column(0)), 0):
        return MembershipReport(Matrix8(((0,) * 8,) * 8), (), False, False)
    g = project_double_cover(gt)
    fixes_e0 = oct_eq(g.column(0), Octonion.basis(0), backend)
    in_so7 = fixes_e0 and so_check(g, backend).passed
    g_cols, cols = ([m.column(j) for j in range(8)] for m in (g, gt))
    basis_table = [[(FANO_SIGN[i][j], FANO_INDEX[i][j], 0) for j in range(8)] for i in range(8)]
    failures = _relation_failures(g_cols, cols, basis_table, 1, backend)
    return MembershipReport(g, failures, in_so7, in_so7 and not failures)


@dataclass(frozen=True)
class TrialityReport:
    """Octonion-compatibility check of one rotation-product instance."""

    pair_failures: Tuple[Tuple[int, int], ...]
    half_turn_failures: Tuple[Tuple[int, int], ...]
    explicit_case_ok: bool


def triality_check(p: OrientedPlane, t: CirclePoint, backend: Backend = EXACT) -> TrialityReport:
    """Check g(a) psi(b) = psi(a*b) on all 64 ordered frame pairs.

    Here psi is the four-rotation ``_rotation_product`` at angle t on the
    default-w frame (c*I + s*J on exact input; psi_quarter is J) and g the bare
    plane rotation at the doubled angle.  Also checks the quarter-turn identity
    a * psi_quarter(b) = psi_quarter(a*b) for frame elements a outside {x, y},
    and g(x) psi(y) = -s*e0 + c*xy.  The left sides are multiplied out;
    psi(a*b) is read from ``FRAME_TABLE`` and the frame's images, psi linear.
    """
    frame = basis_b(p, None, backend)
    e, n = frame.elements, frame.norm_w
    g = plane_rotation(p, double_angle(t), backend)
    psi, psi_q = (_rotation_product(frame, s, backend) for s in (t, CIRCLE_QUARTER))
    g_images, psi_images, psi_q_images = ([apply(m, b) for b in e] for m in (g, psi, psi_q))

    pair_failures = _relation_failures(g_images, psi_images, FRAME_TABLE, n, backend)
    half_turn_failures = _relation_failures(
        e, psi_q_images, FRAME_TABLE, n, backend, rows=(0, 3, 4, 5, 6, 7)
    )
    closed_form = Octonion.basis(0).scale(-t.s) + e[3].scale(t.c)
    explicit_ok = oct_eq(mul(g_images[1], psi_images[2]), closed_form, backend) and oct_eq(
        psi_images[3], closed_form, backend
    )
    return TrialityReport(pair_failures, half_turn_failures, explicit_ok)


def spin8_map(
    p7: OrientedPlane,
    t: CirclePoint,
    p5: OrientedPlane,
    t2: CirclePoint,
    s: Vector8,
    backend: Backend = EXACT,
) -> Tuple[Matrix8, Vector8]:
    """The Spin(8)-valued map in Spin(7) x S^7 product coordinates.

    Returns the rotation-product matrix together with the unit vector s,
    which passes through unchanged.
    """
    if not backend.eq(norm_sq(s), 1):
        raise ValueError("s must be a unit vector")
    return f7xf5(p7, t, p5, t2, backend), s
