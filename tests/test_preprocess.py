import random
from fractions import Fraction

import pytest

from ltireach.forward import reach_within
from ltireach.geometry import ControlSet, GenPolyhedron, contains_point, linear_image, minkowski_sum
from ltireach.linalg import RatMatrix, krylov_invariant_span, vec, zero_vec
from ltireach.preprocess import LtiSystem, NonSimpleError, check_simple, to_simple_form
from oracles import decompose, lifted_horizon, reduced_witness_lifts

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])
SQUARE = GenPolyhedron.polytope([vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)])
ROT90_HALF = RatMatrix.from_rows([[0, F(-1, 2)], [F(1, 2), 0]])
ROT_IRRATIONAL = RatMatrix.from_rows([[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]])


def quad_system(target=None):
    target = target or GenPolyhedron.point(vec(1, 1))
    return LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(0, 0), target)


def reduced_system(form):
    return LtiSystem(form.a_reduced, ControlSet.single(form.u_reduced),
                     zero_vec(form.dim), form.q_reduced)


# ---------------------------------------------------------------------------
# check_simple
# ---------------------------------------------------------------------------


def test_quad_system_is_simple():
    rep = check_simple(quad_system())
    assert rep.failing_conditions() == [] and rep.real_power == 1
    assert rep.source_is_zero


def test_skolem_shape_not_schur():
    a = RatMatrix.block_diag([RatMatrix.from_rows([[0, 1], [-1, 0]]), RatMatrix.diag(2)])
    zero = GenPolyhedron.point(vec(0, 0, 0))
    affine = GenPolyhedron(3, (vec(0, 0, 1),), (), (vec(0, 1, 0),))
    sys = LtiSystem(a, ControlSet((zero, affine)), vec(0, 1, 0), GenPolyhedron.point(vec(0, 0, 1)))
    rep = check_simple(sys)
    assert rep.schur is False
    assert set(rep.failing_conditions()) - {"source state is not the origin"}
    assert rep.is_polytope is False  # union of two components


def test_irrational_rotation_not_simple():
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys = LtiSystem(ROT_IRRATIONAL, ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.point(vec(2, 2)))
    rep = check_simple(sys)
    assert rep.real_power is None
    assert "real spectrum" in "; ".join(rep.failing_conditions())


def cross_polytope(d: int) -> GenPolyhedron:
    return GenPolyhedron.polytope([vec(*(s if j == i else 0 for j in range(d)))
                                   for i in range(d) for s in (-1, 1)])


def test_check_simple_is_quick_on_a_double_irrational_rotation():
    """Two copies of (1/2) rot(arccos 3/5) and I/2: no power of A is real,
    and the scan over every power up to the 6-D bound (2520) did not
    return within a minute.  The answer comes from the characteristic
    polynomial alone."""
    import time

    a = RatMatrix.block_diag([ROT_IRRATIONAL, ROT_IRRATIONAL, RatMatrix.diag(*[F(1, 2)] * 2)])
    sys = LtiSystem(a, ControlSet.single(cross_polytope(6)), zero_vec(6), GenPolyhedron.point(zero_vec(6)))
    t0 = time.perf_counter()
    rep = check_simple(sys)
    assert time.perf_counter() - t0 < 1.0
    assert rep.real_power is None and rep.schur and rep.origin_in_rel_interior


def test_check_simple_finds_the_eighth_power_in_ten_dimensions():
    """A (1/2) rotation by pi/4 next to eight distinct positive eigenvalues,
    conjugated by a shear: A^8 is the first power with a real nonnegative
    spectrum."""
    import time

    rot = RatMatrix.from_rows([[F(1, 2), F(-1, 2)], [F(1, 2), F(1, 2)]])
    core = RatMatrix.block_diag([rot, RatMatrix.diag(*(F(k, 11) for k in range(1, 9)))])
    shear = RatMatrix.identity(10).to_rows()
    shear[0][9] = shear[4][1] = F(1)
    p = RatMatrix.from_rows(shear)
    a = p @ core @ p.inverse()
    sys = LtiSystem(a, ControlSet.single(cross_polytope(10)), zero_vec(10), GenPolyhedron.point(zero_vec(10)))
    t0 = time.perf_counter()
    rep = check_simple(sys)
    assert time.perf_counter() - t0 < 5.0
    assert rep.real_power == 8 and rep.schur
    # rot^4 = -I/4, so rot^8 = I/16 is the first power with a real spectrum
    assert rot.power(4) == RatMatrix.diag(*[F(-1, 4)] * 2)
    assert rot.power(8) == RatMatrix.diag(*[F(1, 16)] * 2)


# ---------------------------------------------------------------------------
# to_simple_form
# ---------------------------------------------------------------------------


def test_identity_reduction_quad():
    sys = quad_system()
    form = to_simple_form(sys, check_simple(sys))
    assert form.a_reduced == DIAG_A
    assert set(form.u_reduced.vertices) == set(QUAD_U.vertices)
    assert set(form.q_reduced.vertices) == {(F(1), F(1))}
    assert form.power == 1
    assert not form.span_applied


def test_rejects_non_simple():
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys = LtiSystem(ROT_IRRATIONAL, ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.point(vec(2, 2)))
    with pytest.raises(NonSimpleError):
        to_simple_form(sys, check_simple(sys))
    shifted = LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(1, 0),
                        GenPolyhedron.point(vec(1, 1)))
    with pytest.raises(NonSimpleError):
        to_simple_form(shifted, check_simple(shifted))


def test_power_reduction_rot90():
    sys = LtiSystem(ROT90_HALF, ControlSet.single(SQUARE), vec(0, 0),
                    GenPolyhedron.point(vec(1, 1)))
    form = to_simple_form(sys, check_simple(sys))
    assert form.power == 4
    assert form.a_reduced == RatMatrix.diag(*[F(1, 16)] * 2)
    # oracle: the reduced controls equal the explicit 4-term input sum
    expected = SQUARE
    for i in range(1, 4):
        expected = minkowski_sum(expected, linear_image(ROT90_HALF.power(i), SQUARE))
    assert set(form.u_reduced.vertices) == set(expected.vertices)


NILPOTENT_BLOCK_BOX = GenPolyhedron.polytope([vec(0, F(3, 2)), vec(1, F(3, 2)),
                                               vec(1, 2), vec(0, 2)])


def test_fitting_reduction_nilpotent_block():
    # a zero eigenvalue takes no reduction step: the system keeps its matrix,
    # controls and target, and the zero block shows as a transient of 1
    a = RatMatrix.diag(0, F(1, 2))
    sys = LtiSystem(a, ControlSet.single(SQUARE), vec(0, 0), NILPOTENT_BLOCK_BOX)
    form = to_simple_form(sys, check_simple(sys))
    assert (form.power, form.span_applied, form.dim) == (1, False, 2)
    assert form.a_reduced == a and form.q_reduced == NILPOTENT_BLOCK_BOX
    assert set(form.u_reduced.vertices) == set(SQUARE.vertices)
    assert decompose(form.a_reduced).transient == 1
    # oracle by hand: A^2(U) = {0} x [-1/4, 1/4], the zero block is gone
    # after one step
    image = linear_image(a.power(2), SQUARE)
    assert {v[0] for v in image.vertices} == {0}
    ys = sorted(v[1] for v in image.vertices)
    assert (ys[0], ys[-1]) == (F(-1, 4), F(1, 4))


def test_invertibility_step_runs_exactly_on_singular_matrices():
    """A singular A goes through the power step like any other: the reduced
    matrix is A^M, and its zero eigenvalues become the transient of the
    spectral data, which is nonzero exactly when A is singular."""
    target = GenPolyhedron.point(vec(3, 3))
    cases = [(RatMatrix.diag(0, F(1, 2)), 1, 1), (RatMatrix.diag(F(1, 3), F(1, 2)), 1, 0),
             (RatMatrix.from_rows([[0, 1], [0, 0]]), 1, 2),
             (RatMatrix.diag(0, F(-1, 2)), 2, 1), (RatMatrix.diag(F(1, 3), F(-1, 2)), 2, 0)]
    for a, power, transient in cases:
        sys = LtiSystem(a, ControlSet.single(SQUARE), vec(0, 0), target)
        form = to_simple_form(sys, check_simple(sys))
        assert (form.power, form.span_applied) == (power, False)
        assert form.a_reduced == a.power(power) and form.q_reduced == target
        assert decompose(form.a_reduced).transient == transient
        assert (transient > 0) == (a.det() == 0)


def test_lift_fitting_reduction():
    # with no step for the zero block, a reduced witness at n lifts to the
    # original system at horizon M n = n
    sys = LtiSystem(RatMatrix.diag(0, F(1, 2)), ControlSet.single(SQUARE), vec(0, 0),
                    NILPOTENT_BLOCK_BOX)
    form = to_simple_form(sys, check_simple(sys))
    w = reach_within(reduced_system(form), 4)
    assert w is not None and w.horizon == 2
    assert lifted_horizon(form, w.horizon) == w.horizon
    assert reduced_witness_lifts(sys, form, w)


def test_span_reduction():
    # controls live on the x axis only and A preserves that axis
    seg = GenPolyhedron.polytope([vec(-1, 0), vec(1, 0)])
    a = RatMatrix.diag(F(1, 2), F(1, 3))
    sys = LtiSystem(a, ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.polytope([vec(F(3, 2), 0), vec(3, 0)]))
    form = to_simple_form(sys, check_simple(sys))
    assert form.span_applied
    assert form.dim == 1
    assert form.a_reduced.to_rows() == [[F(1, 2)]]
    # reachable set on the line is (-2, 2); target [3/2, 3] clipped stays
    assert not form.q_reduced.is_empty


def test_empty_reduced_target():
    # the controls and their orbits stay on the x axis, and the target lies
    # off it, so the span step leaves no target
    seg = GenPolyhedron.polytope([vec(-1, 0), vec(1, 0)])
    sys = LtiSystem(RatMatrix.diag(F(1, 2), 0), ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.point(vec(0, 5)))
    form = to_simple_form(sys, check_simple(sys))
    assert form.span_applied and form.dim == 1
    assert form.q_reduced.is_empty


# ---------------------------------------------------------------------------
# the converse horizon: a reduced witness at n means the original system
# reaches its target at exactly M n
# ---------------------------------------------------------------------------


def test_lift_identity_is_noop():
    sys = quad_system()
    form = to_simple_form(sys, check_simple(sys))
    w = reach_within(reduced_system(form), 4)
    assert w is not None
    assert lifted_horizon(form, w.horizon) == w.horizon
    assert reduced_witness_lifts(sys, form, w)


def test_lift_power_reduction():
    sys = LtiSystem(ROT90_HALF, ControlSet.single(SQUARE), vec(0, 0),
                    GenPolyhedron.point(vec(1, 1)))
    form = to_simple_form(sys, check_simple(sys))
    w = reach_within(reduced_system(form), 3)
    assert w is not None
    assert lifted_horizon(form, w.horizon) == 4 * w.horizon
    assert reduced_witness_lifts(sys, form, w)


def random_simple_system(rng, d):
    lams = [F(rng.randint(1, 9), 10) for _ in range(d)]
    rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
    core = RatMatrix.from_rows(rows)
    p = RatMatrix.identity(d)
    for _ in range(2):
        i, j = (rng.sample(range(d), 2) if d > 1 else (0, 0))
        if i == j:
            continue
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-1, 1))
        p = p @ RatMatrix.from_rows(e)
    a = p @ core @ p.inverse()
    pts = []
    for i in range(d):
        e = [F(0)] * d
        e[i] = F(rng.randint(1, 2))
        pts.append(vec(*e))
        pts.append(vec(*[-x for x in e]))
    u = GenPolyhedron.polytope(pts)
    return a, u


def test_reduced_form_invariants():
    cases = [
        quad_system(),
        LtiSystem(ROT90_HALF, ControlSet.single(SQUARE), vec(0, 0),
                  GenPolyhedron.point(vec(1, 1))),
        LtiSystem(RatMatrix.diag(0, F(1, 2)), ControlSet.single(SQUARE), vec(0, 0),
                  GenPolyhedron.polytope([vec(0, F(3, 2)), vec(1, 2)])),
    ]
    for sys in cases:
        form = to_simple_form(sys, check_simple(sys))
        s = decompose(form.a_reduced)  # must succeed: nonnegative real
        assert all(l > 0 for l in s.eigenvalues)
        assert (s.transient > 0) == (form.a_reduced.det() == 0)
        if form.dim:
            span = krylov_invariant_span(form.a_reduced, list(form.u_reduced.vertices))
            assert len(span) == form.dim  # reachable set is full dimensional


def test_reduced_target_membership_crosscheck():
    # q in Q_reduced iff the point it names in the span of the controls'
    # orbits lies in Q: the controls stay in the plane x3 = 0, which the
    # target box crosses
    a = RatMatrix.diag(F(1, 2), 0, F(1, 3))
    square = GenPolyhedron.polytope([vec(x, y, 0) for x in (-1, 1) for y in (-1, 1)])
    target = GenPolyhedron.polytope([vec(x, y, z) for x in (0, 2) for y in (F(1, 2), 3) for z in (-1, 1)])
    sys = LtiSystem(a, ControlSet.single(square), zero_vec(3), target)
    form = to_simple_form(sys, check_simple(sys))
    assert form.span_applied and form.dim == 2
    basis = krylov_invariant_span(a, list(square.vertices))
    rng = random.Random(99)
    for _ in range(25):
        q = (F(rng.randint(-8, 8), 2), F(rng.randint(-8, 8), 2))
        lifted = tuple(q[0] * x + q[1] * y for x, y in zip(*basis))
        assert contains_point(form.q_reduced, q) == contains_point(target, lifted)


def test_reduction_soundness_randomized():
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        a, u = random_simple_system(rng, d)
        q = GenPolyhedron.point(vec(*[F(rng.randint(-3, 3), 2) for _ in range(d)]))
        sys = LtiSystem(a, ControlSet.single(u), zero_vec(d), q)
        if check_simple(sys).failing_conditions():
            continue
        form = to_simple_form(sys, check_simple(sys))
        red = reduced_system(form)
        m = form.power
        budget = 6
        w_orig = reach_within(sys, budget)
        red_budget = (budget + m - 1) // m
        w_red = reach_within(red, red_budget)
        if w_orig is not None:
            assert w_red is not None  # original reachable implies reduced reachable
        if w_red is not None:
            assert reduced_witness_lifts(sys, form, w_red)
        checked += 1
    assert checked >= 25


def test_lift_power_and_span_over_a_zero_block():
    # the quarter-turn needs M = 4, the zero block stays in the reduced
    # system as a zero eigenvalue, and the last coordinate, which no
    # control reaches, is cut by the span step.  Controls: the cross polytope of the first three
    # coordinates.  The first two coordinates reach the L1 ball of radius
    # 2(1 - 2^-k) after k steps, so (2 - 2^-17, 0) first at k = 18.
    a = RatMatrix.block_diag([ROT90_HALF, RatMatrix.diag(0), RatMatrix.diag(F(1, 2))])
    cross = GenPolyhedron.polytope([vec(*(s if i == j else 0 for j in range(4)))
                                    for i in range(3) for s in (1, -1)])
    sys = LtiSystem(a, ControlSet.single(cross), zero_vec(4),
                    GenPolyhedron.point(vec(2 - F(1, 2 ** 17), 0, 0, 0)))
    form = to_simple_form(sys, check_simple(sys))
    assert (form.power, form.span_applied, form.dim) == (4, True, 3)
    assert decompose(form.a_reduced).transient == 1
    w = reach_within(reduced_system(form), 5)
    assert w is not None and w.horizon == 5
    assert lifted_horizon(form, w.horizon) == 20
    assert reduced_witness_lifts(sys, form, w)
    assert reach_within(sys, 20).horizon == 18
