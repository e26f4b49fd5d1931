import itertools
import random
from collections import Counter
from fractions import Fraction

import pytest

from ltireach.forward import (
    MalformedWitnessError,
    ReachWitness,
    WitnessStep,
    reach_exactly,
    reach_within,
    replay,
    verify_witness,
)
from ltireach.geometry import (
    ControlSet,
    GenPolyhedron,
    constraint,
    contains_point,
    linear_image,
    lp_solve,
    minkowski_sum,
)
from ltireach.linalg import RatMatrix, vec
from ltireach.preprocess import LtiSystem
from oracles import fraction_lp_solve

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])


def quad_system(target: GenPolyhedron) -> LtiSystem:
    return LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(0, 0), target)


def test_horizon_zero():
    sys = quad_system(GenPolyhedron.polytope([vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)]))
    w = reach_exactly(sys, 0)
    assert w is not None and w.horizon == 0
    assert verify_witness(sys, w)


def test_quad_one_step_vertex():
    sys = quad_system(GenPolyhedron.point(vec(2, 1)))
    w = reach_exactly(sys, 1)
    assert w is not None
    # oracle: hand replay, x1 = A*0 + u0 must equal (2,1)
    assert replay(sys, w) == (F(2), F(1))
    assert verify_witness(sys, w)


def test_quad_interior_point_one_step():
    # (1,1) lies on the top edge of the control polytope itself
    sys = quad_system(GenPolyhedron.point(vec(1, 1)))
    w = reach_within(sys, 5)
    assert w is not None
    assert verify_witness(sys, w)
    assert w.horizon == 1


def test_quad_two_step_point():
    # x extent after one step is 2; (7/3, 1) needs two steps
    sys = quad_system(GenPolyhedron.point(vec(F(7, 3), 1)))
    assert reach_exactly(sys, 1) is None
    w = reach_within(sys, 5)
    assert w is not None and w.horizon == 2
    assert verify_witness(sys, w)


def test_minimal_horizon_and_zero_target():
    sys = quad_system(GenPolyhedron.point(vec(0, 0)))
    w = reach_within(sys, 4)
    assert w is not None and w.horizon == 0


def test_unreachable_far_target():
    sys = quad_system(GenPolyhedron.polytope([vec(F(7, 2), F(-1, 2)), vec(F(9, 2), F(-1, 2)),
                                              vec(F(9, 2), F(1, 2)), vec(F(7, 2), F(1, 2))]))
    for budget in (0, 3, 6):
        assert reach_within(sys, budget) is None


def test_monotonicity_with_zero_in_controls():
    # once reachable, reachable at every later horizon (prepend idle steps)
    sys = quad_system(GenPolyhedron.point(vec(1, 1)))
    first = reach_within(sys, 6)
    assert first is not None
    for n in range(first.horizon, first.horizon + 3):
        assert reach_exactly(sys, n) is not None


def test_verify_rejects_perturbed_coefficients():
    sys = quad_system(GenPolyhedron.point(vec(2, 1)))
    w = reach_exactly(sys, 1)
    assert w is not None
    step = w.steps[0]
    bumped = list(step.vertex_coeffs)
    bumped[0] += F(1, 1000)
    bad = ReachWitness(1, (WitnessStep(0, tuple(bumped), step.ray_coeffs, step.line_coeffs),))
    with pytest.raises(MalformedWitnessError):
        verify_witness(sys, bad)
    # renormalized but wrong endpoint: well-formed, returns False
    idx = [i for i, v in enumerate(QUAD_U.vertices)]
    other = [F(1) if i == 0 else F(0) for i in idx]
    wrong = ReachWitness(1, (WitnessStep(0, tuple(other), (), ()),))
    assert verify_witness(sys, wrong) is False


def test_empty_witness_verifies_when_source_in_target():
    sys = quad_system(GenPolyhedron.polytope([vec(-1, -1), vec(1, 1), vec(1, -1), vec(-1, 1)]))
    assert verify_witness(sys, ReachWitness(0, ()))


def test_union_controls_skolem_like():
    # controls: {0} union affine subspace {(0, t, 1)}; dynamics diag(M, 2)
    m = RatMatrix.from_rows([[0, 1], [-1, 0]])
    a = RatMatrix.block_diag([m, RatMatrix.diag(2)])
    zero = GenPolyhedron.point(vec(0, 0, 0))
    affine = GenPolyhedron(3, (vec(0, 0, 1),), (), (vec(0, 1, 0),))
    sys = LtiSystem(a, ControlSet((zero, affine)), vec(0, 1, 0),
                    GenPolyhedron.point(vec(0, 0, 1)))
    w = reach_within(sys, 4)
    assert w is not None
    assert w.horizon == 2
    assert verify_witness(sys, w)


def reachable_under(sys, n, assign) -> bool:
    """Brute-force oracle for one fixed component assignment: is the target
    point in A^n source + sum_t A^(n-1-t) U_{assign[t]}?  Built from matrix
    powers and Minkowski sums, independent of the forward LP."""
    acc = GenPolyhedron.point(sys.a.power(n).matvec(sys.source))
    for t, c in enumerate(assign):
        acc = minkowski_sum(acc, linear_image(sys.a.power(n - 1 - t), sys.controls.components[c]))
    (q,) = sys.target.vertices
    return contains_point(acc, q)


def bruteforce_min_horizon(sys, budget):
    ncomps = len(sys.controls.components)
    for n in range(budget + 1):
        hits = [a for a in itertools.product(range(ncomps), repeat=n) if reachable_under(sys, n, a)]
        if hits:
            return n, hits
    return None, []


def naive_rows(sys, n, step_gens):
    """The horizon-n LP rows, column by column from A.power(k).matvec(g)."""
    q = sys.target
    cols, blocks = [], []
    for t, (vs, rs, ls) in enumerate(step_gens):
        blocks.append((len(cols), len(vs)))
        cols += [sys.a.power(n - 1 - t).matvec(g) for g in (*vs, *rs, *ls)]
    blocks.append((len(cols), len(q.vertices)))
    cols += [tuple(-x for x in g) for g in (*q.vertices, *q.rays, *q.lines)]
    base = sys.a.power(n).matvec(sys.source)
    rows = [(tuple(c[i] for c in cols), "==", -base[i]) for i in range(sys.dim)]
    for start, nv in blocks:
        rows.append((tuple(F(int(start <= j < start + nv)) for j in range(len(cols))), "==", F(1)))
    return rows


def test_union_matches_bruteforce_enumeration():
    rng = random.Random(19)
    comp0 = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    comp1 = GenPolyhedron.polytope([vec(0, 1), vec(0, 2)])
    comp2 = GenPolyhedron.point(vec(-1, -1))
    a = RatMatrix.diag(F(1, 2), F(1, 2))
    for _ in range(12):
        target = GenPolyhedron.point(vec(F(rng.randint(-4, 4), 2), F(rng.randint(-4, 4), 2)))
        sys = LtiSystem(a, ControlSet((comp0, comp1, comp2)), vec(0, 0), target)
        for n in range(0, 4):
            got = reach_exactly(sys, n)
            expected = any(reachable_under(sys, n, assign)
                           for assign in itertools.product(range(3), repeat=n))
            assert (got is not None) == expected
            if got is not None:
                assert verify_witness(sys, got)


def rays_and_lines_system():
    # y gains 1, 0 or at most -2 per step, so y = 1 at horizon 2 needs one
    # step in comp0 and one in comp1; rays and lines leave x free
    comp0 = GenPolyhedron(2, (vec(0, 1),), (vec(1, 0),), ())
    comp1 = GenPolyhedron(2, (vec(0, 0),), (), (vec(1, 0),))
    comp2 = GenPolyhedron(2, (vec(0, -2), vec(1, -2)), (vec(0, -1),), ())
    a = RatMatrix.from_rows([[1, 1], [0, 1]])
    return LtiSystem(a, ControlSet((comp0, comp1, comp2)), vec(0, 0),
                     GenPolyhedron.point(vec(-5, 1)))


def test_union_with_rays_and_lines_needs_mixed_assignment():
    sys = rays_and_lines_system()
    horizon, hits = bruteforce_min_horizon(sys, 3)
    assert horizon == 2 and all(len(set(h)) == 2 for h in hits)
    w = reach_within(sys, 3)
    assert w is not None and w.horizon == horizon
    assert tuple(s.component for s in w.steps) in hits
    assert verify_witness(sys, w)


def union_systems():
    comps = (GenPolyhedron.polytope([vec(0, 0), vec(1, 0)]), GenPolyhedron.polytope([vec(0, 1), vec(0, 2)]),
             GenPolyhedron.point(vec(-1, -1)))
    a = RatMatrix.diag(F(1, 2), F(1, 3))
    return [LtiSystem(a, ControlSet(comps), vec(0, 0), GenPolyhedron.point(q))
            for q in (vec(F(3, 4), F(4, 3)), vec(F(-1, 2), F(1, 3)), vec(5, 5))]


def unscaled(cons, scales):
    """The LP in the generator coefficients themselves: column j over its
    scale."""
    return [constraint([F(c, s) for c, s in zip(con.coeffs, scales)], con.rel, con.rhs) for con in cons]


def test_every_dfs_lp_matches_fraction_oracle(monkeypatch):
    """Each LP the union search solves, at every DFS node and horizon, gives
    the Fraction simplex's status, value and point, and its point times
    the column scales is the Fraction simplex's point on the unscaled LP."""
    from ltireach import forward

    statuses = Counter()
    layouts = []

    def build(*args):
        cons, layout = _build_lp(*args)
        layouts.append(layout)
        return cons, layout

    def both(objective, constraints, num_vars, nonneg=None):
        got = lp_solve(objective, constraints, num_vars, nonneg=nonneg)
        want = fraction_lp_solve(objective, constraints, num_vars, nonneg=nonneg)
        assert (got.status, got.value, got.point) == (want.status, want.value, want.point)
        scales = layouts[-1].scales
        orig = fraction_lp_solve(objective, unscaled(constraints, scales), num_vars, nonneg=nonneg)
        assert orig.status == got.status
        if got.point is not None:
            assert tuple(y * s for y, s in zip(got.point, scales)) == orig.point
        statuses[got.status] += 1
        return got

    _build_lp = forward._build_lp
    monkeypatch.setattr(forward, "_build_lp", build)
    monkeypatch.setattr(forward, "lp_solve", both)
    for sys in (*union_systems(), rays_and_lines_system()):
        for n in range(1, 4):
            reach_exactly(sys, n)
    assert statuses["optimal"] > 10 and statuses["infeasible"] > 10


def test_build_lp_rows_match_naive_construction():
    """Every coefficient is an int; dividing each column by its scale gives
    back the rows built from A.power(k).matvec(g)."""
    from ltireach.forward import StepColumns, _build_lp

    sys = rays_and_lines_system()
    comps = sys.controls.components
    gens = [(c.vertices, c.rays, c.lines) for c in comps]
    pooled = (tuple(v for c in comps for v in c.vertices), tuple(r for c in comps for r in c.rays),
              tuple(l for c in comps for l in c.lines))
    cols = StepColumns(sys)
    for n in range(1, 4):
        cols.grow(n)
        for assign in itertools.product(range(len(comps)), repeat=n):
            for pooled_from in range(n + 1):
                step_gens = [gens[assign[t]] if t < pooled_from else pooled for t in range(n)]
                cons, layout = _build_lp(list(assign), pooled_from, cols)
                assert all(type(c) is int for con in cons for c in con.coeffs)
                assert all(s > 0 for s in layout.scales)
                rows = [(c.coeffs, c.rel, c.rhs) for c in unscaled(cons, layout.scales)]
                assert rows == naive_rows(sys, n, step_gens)
                assert layout.ncols == len(cons[0].coeffs)


def test_each_power_is_formed_once_per_decision(monkeypatch):
    """reach_within(sys, 6) forms A^k g once for every generator g and
    k < 6, and A^k source once for k <= 6; decide uses one column object
    for all its horizons."""
    from ltireach import driver, forward

    made = []

    class Recorded(forward.StepColumns):
        def __init__(self, sys):
            super().__init__(sys)
            made.append(self)

    monkeypatch.setattr(forward, "StepColumns", Recorded)
    monkeypatch.setattr(driver, "StepColumns", Recorded)
    sys = union_systems()[2]  # (5, 5) lies outside every reachable set
    gens = sum(len(c.vertices) + len(c.rays) + len(c.lines) for c in sys.controls.components)
    assert reach_within(sys, 6) is None
    (cols,) = made
    assert [len(table) for table in cols.comps] == [6, 6, 6] and len(cols.pooled) == 6
    assert len(cols.bases) == 7
    assert cols.products == gens * 5 + 6
    with pytest.raises(ValueError):
        reach_exactly(union_systems()[0], 1, cols)
    verdict = driver.decide(sys, driver.Budgets(max_steps=6))
    assert verdict.kind == "unknown" and len(made) == 2
    assert made[1].products == gens * 5 + 6


def test_single_component_solves_one_lp_per_horizon(monkeypatch):
    """A lone component is its own pooled hull, so the search stops at its
    root: one LP per horizon, reachable or not."""
    from ltireach import forward

    solved = []

    def counted(*args, **kwargs):
        solved.append(1)
        return lp_solve(*args, **kwargs)

    monkeypatch.setattr(forward, "lp_solve", counted)
    sys = quad_system(GenPolyhedron.point(vec(F(7, 3), 1)))
    assert reach_exactly(sys, 1) is None and len(solved) == 1
    w = reach_exactly(sys, 2)
    assert w is not None and verify_witness(sys, w) and len(solved) == 2
    assert [s.component for s in w.steps] == [0, 0]


def test_sequential_lp_agrees_with_minkowski_membership():
    # q reachable at exactly n iff q in the n-step forward sum
    rng = random.Random(43)
    for _ in range(8):
        q = vec(F(rng.randint(-6, 6), 2), F(rng.randint(-6, 6), 2))
        sys = quad_system(GenPolyhedron.point(q))
        for n in range(0, 4):
            acc = GenPolyhedron.point(vec(0, 0))
            for i in range(n):
                acc = minkowski_sum(acc, linear_image(DIAG_A.power(i), QUAD_U))
            direct = contains_point(acc, q)
            assert (reach_exactly(sys, n) is not None) == direct

