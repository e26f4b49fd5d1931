import random
from fractions import Fraction

import pytest

from ltireach.forward import reach_within, verify_witness
from ltireach.geometry import ControlSet, GenPolyhedron, contains_point, linear_image, minkowski_sum
from ltireach.linalg import RatMatrix, vec, zero_vec
from ltireach.preprocess import (
    LtiSystem,
    NonSimpleError,
    check_simple,
    lift_witness,
    to_simple_form,
)

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
    assert rep.simple and rep.real_power == 1
    assert rep.source_is_zero


def test_skolem_shape_not_schur():
    a = RatMatrix.block_diag([RatMatrix.from_rows([[0, 1], [-1, 0]]), RatMatrix.diag(2)])
    zero = GenPolyhedron.point(vec(0, 0, 0))
    affine = GenPolyhedron(3, (vec(0, 0, 1),), (), (vec(0, 1, 0),))
    sys = LtiSystem(a, ControlSet((zero, affine)), vec(0, 1, 0), GenPolyhedron.point(vec(0, 0, 1)))
    rep = check_simple(sys)
    assert rep.schur is False
    assert rep.simple is False
    assert rep.is_polytope is False  # union of two components


def test_irrational_rotation_not_simple():
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys = LtiSystem(ROT_IRRATIONAL, ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.point(vec(2, 2)))
    rep = check_simple(sys)
    assert rep.real_power is None
    assert rep.simple is False
    assert "real spectrum" in "; ".join(rep.failing_conditions())


# ---------------------------------------------------------------------------
# to_simple_form
# ---------------------------------------------------------------------------


def test_identity_reduction_quad():
    form = to_simple_form(quad_system())
    assert form.a_reduced == DIAG_A
    assert set(form.u_reduced.vertices) == set(QUAD_U.vertices)
    assert set(form.q_reduced.vertices) == {(F(1), F(1))}
    assert form.back_map.m_power == 1
    assert not form.back_map.fit_applied
    assert not form.back_map.span_applied


def test_rejects_non_simple():
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys = LtiSystem(ROT_IRRATIONAL, ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.point(vec(2, 2)))
    with pytest.raises(NonSimpleError):
        to_simple_form(sys)
    shifted = LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(1, 0),
                        GenPolyhedron.point(vec(1, 1)))
    with pytest.raises(NonSimpleError):
        to_simple_form(shifted)


def test_power_reduction_rot90():
    sys = LtiSystem(ROT90_HALF, ControlSet.single(SQUARE), vec(0, 0),
                    GenPolyhedron.point(vec(1, 1)))
    form = to_simple_form(sys)
    assert form.back_map.m_power == 4
    assert form.a_reduced == RatMatrix.identity(2).scale(F(1, 16))
    # oracle: the reduced controls equal the explicit 4-term input sum
    expected = SQUARE
    for i in range(1, 4):
        expected = minkowski_sum(expected, linear_image(ROT90_HALF.power(i), SQUARE))
    assert set(form.u_reduced.vertices) == set(expected.vertices)


def test_fitting_reduction_nilpotent_block():
    a = RatMatrix.diag(0, F(1, 2))
    sys = LtiSystem(a, ControlSet.single(SQUARE), vec(0, 0),
                    GenPolyhedron.polytope([vec(0, F(3, 2)), vec(1, F(3, 2)),
                                            vec(1, 2), vec(0, 2)]))
    form = to_simple_form(sys)
    assert form.back_map.fit_applied
    assert form.dim == 1
    assert form.a_reduced.entries == (F(1, 2),)
    # oracle by hand: V1 = span{e2} and A^2(U) = {0} x [-1/4, 1/4]; the
    # coordinates are relative to the recorded basis vector, so lift back
    assert not form.q_reduced.is_empty
    basis = form.back_map.v1_basis[0]
    ys = sorted(v[0] * basis[1] for v in form.u_reduced.vertices)
    assert (ys[0], ys[-1]) == (F(-1, 4), F(1, 4))
    assert basis[0] == 0


def test_span_reduction():
    # controls live on the x axis only and A preserves that axis
    seg = GenPolyhedron.polytope([vec(-1, 0), vec(1, 0)])
    a = RatMatrix.diag(F(1, 2), F(1, 3))
    sys = LtiSystem(a, ControlSet.single(seg), vec(0, 0),
                    GenPolyhedron.polytope([vec(F(3, 2), 0), vec(3, 0)]))
    form = to_simple_form(sys)
    assert form.back_map.span_applied
    assert form.dim == 1
    assert form.a_reduced.entries == (F(1, 2),)
    # reachable set on the line is (-2, 2); target [3/2, 3] clipped stays
    assert not form.q_reduced.is_empty


def test_empty_reduced_target():
    a = RatMatrix.diag(0)
    u = GenPolyhedron.polytope([vec(-1), vec(1)])
    sys = LtiSystem(a, ControlSet.single(u), vec(0), GenPolyhedron.point(vec(5)))
    form = to_simple_form(sys)
    assert form.dim == 0
    assert form.q_reduced.is_empty


# ---------------------------------------------------------------------------
# witness lifting
# ---------------------------------------------------------------------------


def test_lift_identity_is_noop():
    sys = quad_system()
    form = to_simple_form(sys)
    w = reach_within(reduced_system(form), 4)
    assert w is not None
    lifted = lift_witness(form, w)
    assert lifted is w


def test_lift_power_reduction():
    sys = LtiSystem(ROT90_HALF, ControlSet.single(SQUARE), vec(0, 0),
                    GenPolyhedron.point(vec(1, 1)))
    form = to_simple_form(sys)
    w = reach_within(reduced_system(form), 3)
    assert w is not None
    lifted = lift_witness(form, w)
    assert lifted.horizon == 4 * w.horizon
    assert verify_witness(sys, lifted)


def test_lift_fitting_reduction():
    a = RatMatrix.diag(0, F(1, 2))
    sys = LtiSystem(a, ControlSet.single(SQUARE), vec(0, 0),
                    GenPolyhedron.polytope([vec(0, F(3, 2)), vec(1, F(3, 2)),
                                            vec(1, 2), vec(0, 2)]))
    form = to_simple_form(sys)
    w = reach_within(reduced_system(form), 4)
    assert w is not None
    lifted = lift_witness(form, w)
    assert lifted.horizon == w.horizon + 2
    assert verify_witness(sys, lifted)


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
    from ltireach.linalg import krylov_invariant_span, spectral_decompose

    cases = [
        quad_system(),
        LtiSystem(ROT90_HALF, ControlSet.single(SQUARE), vec(0, 0),
                  GenPolyhedron.point(vec(1, 1))),
        LtiSystem(RatMatrix.diag(0, F(1, 2)), ControlSet.single(SQUARE), vec(0, 0),
                  GenPolyhedron.polytope([vec(0, F(3, 2)), vec(1, 2)])),
    ]
    for sys in cases:
        form = to_simple_form(sys)
        s = spectral_decompose(form.a_reduced)  # must succeed: positive real
        assert all(l > 0 for l in s.eigenvalues)
        if form.dim:
            assert form.a_reduced.det() != 0
            span = krylov_invariant_span(form.a_reduced, list(form.u_reduced.vertices))
            assert len(span) == form.dim  # reachable set is full dimensional


def test_reduced_target_membership_crosscheck():
    # q in Q_reduced iff the lifted point lands in Q shifted by the
    # absorbed-step sum: lifted + s in Q for some s in the d-step sum
    from ltireach.geometry import contains_point, linear_image, minkowski_sum, negate

    a = RatMatrix.diag(0, F(1, 2))
    target = GenPolyhedron.polytope([vec(0, F(3, 2)), vec(1, F(3, 2)), vec(1, 2), vec(0, 2)])
    sys = LtiSystem(a, ControlSet.single(SQUARE), vec(0, 0), target)
    form = to_simple_form(sys)
    basis = form.back_map.v1_basis[0]
    prefix = SQUARE
    power = RatMatrix.identity(2)
    for _ in range(1, form.back_map.fit_steps):
        power = power @ a
        prefix = minkowski_sum(prefix, linear_image(power, SQUARE))
    shifted_target = minkowski_sum(target, negate(prefix))
    rng = random.Random(99)
    for _ in range(25):
        qc = F(rng.randint(-8, 8), 2)
        inside = contains_point(form.q_reduced, (qc,))
        lifted = vec(qc * basis[0], qc * basis[1])
        assert inside == contains_point(shifted_target, lifted)


def test_reduction_soundness_randomized():
    rng = random.Random(77)
    checked = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        a, u = random_simple_system(rng, d)
        q = GenPolyhedron.point(vec(*[F(rng.randint(-3, 3), 2) for _ in range(d)]))
        sys = LtiSystem(a, ControlSet.single(u), zero_vec(d), q)
        rep = check_simple(sys)
        if not rep.simple:
            continue
        form = to_simple_form(sys)
        red = reduced_system(form)
        m = form.back_map.m_power
        dfit = form.back_map.fit_steps
        budget = 6
        w_orig = reach_within(sys, budget)
        red_budget = (budget + m - 1) // m
        w_red = reach_within(red, red_budget)
        if w_orig is not None:
            assert w_red is not None  # original reachable implies reduced reachable
        if w_red is not None:
            lifted = lift_witness(form, w_red)
            assert verify_witness(sys, lifted)
            assert lifted.horizon <= m * (w_red.horizon + dfit)
        checked += 1
    assert checked >= 25
