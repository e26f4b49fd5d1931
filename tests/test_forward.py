import dataclasses
import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ltireach.forward import (
    MalformedWitnessError,
    ReachWitness,
    StepColumns,
    WitnessStep,
    reach_exactly,
    reach_within,
    replay,
    verify_witness,
)
from ltireach import forward, geometry
from ltireach.geometry import (
    ControlSet,
    GenPolyhedron,
    contains_point,
    linear_image,
    minkowski_sum,
)
from ltireach.linalg import RatMatrix, vec, vec_add
from ltireach.preprocess import LtiSystem
import oracles
from oracles import (basic_values, build_lp, cold_reach_exactly, fraction_replay, lp_contains_point, old_root,
                     old_search, solve_forward_lp, witness_from_solution)

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])


def quad_system(target: GenPolyhedron) -> LtiSystem:
    return LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(0, 0), target)


def test_horizon_zero():
    sys = quad_system(GenPolyhedron.polytope([vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)]))
    w = reach_exactly(StepColumns(sys), 0)
    assert w is not None and w.horizon == 0
    assert verify_witness(sys, w)


def test_quad_one_step_vertex():
    sys = quad_system(GenPolyhedron.point(vec(2, 1)))
    w = reach_exactly(StepColumns(sys), 1)
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
    assert reach_exactly(StepColumns(sys), 1) is None
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
        assert reach_exactly(StepColumns(sys), n) is not None


def test_verify_rejects_perturbed_coefficients():
    sys = quad_system(GenPolyhedron.point(vec(2, 1)))
    w = reach_exactly(StepColumns(sys), 1)
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


def random_witness(rng, sys: LtiSystem, n: int) -> ReachWitness:
    """n well-formed steps: convex vertex weights, nonnegative ray and free
    line coefficients, over a random component each."""
    steps = []
    for _ in range(n):
        c = rng.randrange(len(sys.controls.components))
        comp = sys.controls.components[c]
        weights = [F(rng.randint(0, 5)) for _ in comp.vertices]
        if not any(weights):
            weights[0] = F(1)
        total = sum(weights)
        steps.append(WitnessStep(c, tuple(w / total for w in weights),
                                 tuple(F(rng.randint(0, 6), rng.randint(1, 4)) for _ in comp.rays),
                                 tuple(F(rng.randint(-6, 6), rng.randint(1, 4)) for _ in comp.lines)))
    return ReachWitness(n, tuple(steps))


def test_integer_replay_matches_fraction_replay():
    """replay's integer state over one denominator ends where the Fraction
    replay does, on seeded systems with several components, rays and
    lines; verify_witness agrees with the Fraction simplex's membership of
    that endpoint, for point and polytope targets."""
    rng = random.Random(606)
    hits = Counter()
    for _ in range(150):
        d = rng.randint(1, 3)
        a = RatMatrix.from_rows([[F(rng.randint(-4, 4), rng.randint(1, 6)) for _ in range(d)] for _ in range(d)])

        def gen():
            return vec(*(F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)))

        comps = tuple(GenPolyhedron(d, tuple(gen() for _ in range(rng.randint(1, 3))),
                                    tuple(gen() for _ in range(rng.randint(0, 1))),
                                    tuple(gen() for _ in range(rng.randint(0, 1))))
                      for _ in range(rng.randint(1, 3)))
        source = gen()
        probe = LtiSystem(a, ControlSet(comps), source, GenPolyhedron.point(source))
        w = random_witness(rng, probe, rng.randint(0, 4))
        end = fraction_replay(probe, w)
        got = replay(probe, w)
        assert got == end and all(type(x) is F for x in got)
        targets = [GenPolyhedron.point(end), GenPolyhedron.point(gen()),
                   GenPolyhedron.polytope([gen() for _ in range(rng.randint(2, 4))])]
        for q in targets:
            sys = LtiSystem(a, ControlSet(comps), source, q)
            expected = lp_contains_point(q, end)
            assert verify_witness(sys, w) is expected
            hits[expected] += 1
    assert hits[True] >= 150 and hits[False] >= 150


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
    powers and generator-wise Minkowski sums (every sum of vertices, every
    image of a ray or a line, nothing pruned), independent of the forward
    LP and of geometry's polytope-only operations."""
    verts, rays, lines = [sys.a.power(n).matvec(sys.source)], [], []
    for t, c in enumerate(assign):
        power, comp = sys.a.power(n - 1 - t), sys.controls.components[c]
        verts = list(dict.fromkeys(vec_add(v, power.matvec(w)) for v in verts for w in comp.vertices))
        rays += [power.matvec(r) for r in comp.rays]
        lines += [power.matvec(l) for l in comp.lines]
    (q,) = sys.target.vertices
    return contains_point(GenPolyhedron(sys.dim, tuple(verts), tuple(rays), tuple(lines)), q)


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
            got = reach_exactly(StepColumns(sys), n)
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


def unscaled(rows, dens, scales):
    """The forward LP in the generator coefficients themselves: column j
    over its scale."""
    return [(tuple(F(x, den * sc) for x, sc in zip(row, scales)), "==", F(row[-1], den))
            for row, den in zip(rows, dens)]


def test_every_dfs_lp_matches_fraction_oracle(monkeypatch):
    """At every DFS node of every horizon, the search's tableau (grown at
    the root, restricted from the parent's below it) is feasible exactly
    when the Fraction simplex finds the node's LP, build_lp(assignment,
    depth), feasible.  A leaf's tableau keeps the root's layout, every
    step a pooled block: its point satisfies the root LP,
    build_lp(assignment, 0), exactly, with every sign-restricted variable
    nonnegative and every variable of another component than its step's
    at 0.  Read at the assigned components' columns, that point satisfies
    the leaf's LP, and the witness is it times the column scales; it
    replays, and the LP in the generator coefficients themselves holds at
    it."""
    feasible = Counter()
    witnesses = []

    def search(cols, assignment, depth, tab):
        res, _ = solve_forward_lp(assignment, depth, cols)
        assert (tab is not None) == res.is_feasible
        feasible[res.is_feasible] += 1
        return _search(cols, assignment, depth, tab)

    def witness(cols, assignment, tab):
        got = _witness(cols, assignment, tab)
        n = len(assignment)
        root_rows, _, root_layout = build_lp(assignment, 0, cols)
        pooled = tab.point(root_layout.nonneg)
        assert all(y >= 0 for y, nn in zip(pooled, root_layout.nonneg) if nn)
        assert all(sum(map(F.__mul__, pooled, row[:-1])) == row[-1] for row in root_rows)
        size = len(cols.pooled[0].dens)
        kept = [t * size + i for t, c in enumerate(assignment) for i in cols.members[c]]
        kept += range(n * size, len(pooled))
        assert all(y == 0 for j, y in enumerate(pooled) if j not in kept)
        point = [pooled[j] for j in kept]
        rows, dens, layout = build_lp(assignment, n, cols)
        assert all(y >= 0 for y, nn in zip(point, layout.nonneg) if nn)
        assert all(sum(map(F.__mul__, point, row[:-1])) == row[-1] for row in rows)
        assert got == witness_from_solution(n, assignment, layout, point)
        coeffs = [y * sc for y, sc in zip(point, layout.scales)]
        for lhs, _, rhs in unscaled(rows, dens, layout.scales):
            assert sum(map(F.__mul__, lhs, coeffs)) == rhs
        assert verify_witness(cols.system, got)
        witnesses.append(got)
        return got

    _search, _witness = forward._search, forward._witness
    monkeypatch.setattr(forward, "_search", search)
    monkeypatch.setattr(forward, "_witness", witness)
    for sys in (*union_systems(), rays_and_lines_system(), quad_system(GenPolyhedron.point(vec(F(7, 3), 1)))):
        for n in range(1, 4):
            reach_exactly(StepColumns(sys), n)
    assert feasible[True] > 10 and feasible[False] > 10 and len(witnesses) >= 5


def test_build_lp_rows_match_naive_construction():
    """Every row is integers in lowest terms over a positive denominator;
    dividing each column by its scale gives back the rows built from
    A.power(k).matvec(g), with a source whose powers have denominators.
    build_lp is the reference copy in the oracles, which the search no
    longer uses."""
    for sys in (rays_and_lines_system(),
                dataclasses.replace(rays_and_lines_system(), source=vec(F(1, 2), F(-1, 3)))):
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
                    rows, dens, layout = build_lp(list(assign), pooled_from, cols)
                    assert all(type(x) is int for row in rows for x in row)
                    assert all(den > 0 and math.gcd(den, *row) == 1 for row, den in zip(rows, dens))
                    assert all(sc > 0 for sc in layout.scales)
                    assert unscaled(rows, dens, layout.scales) == naive_rows(sys, n, step_gens)
                    assert all(len(row) == layout.ncols + 1 for row in rows)


def test_each_power_is_formed_once_per_decision(monkeypatch):
    """reach_within(sys, 6) forms A^k g once for every generator g and
    k < 6, and A^k source once for k <= 6; decide uses one column object
    for all its horizons."""
    from ltireach import driver, forward

    made = []
    products = Counter()

    class Recorded(forward.StepColumns):
        def __init__(self, sys):
            super().__init__(sys)
            made.append(self)

        def _matvec(self, num, den):
            products[id(self)] += 1
            return super()._matvec(num, den)

    monkeypatch.setattr(forward, "StepColumns", Recorded)
    monkeypatch.setattr(driver, "StepColumns", Recorded)
    sys = union_systems()[2]  # (5, 5) lies outside every reachable set
    gens = sum(len(c.vertices) + len(c.rays) + len(c.lines) for c in sys.controls.components)
    assert reach_within(sys, 6) is None
    (cols,) = made
    assert [len(table) for table in cols.comps] == [6, 6, 6] and len(cols.pooled) == 6
    assert len(cols.bases) == 7
    assert products[id(cols)] == gens * 5 + 6
    verdict = driver.decide(sys, driver.Budgets(max_steps=6))
    assert verdict.kind == "unknown" and len(made) == 2
    assert products[id(made[1])] == gens * 5 + 6


def count_lp_builds(monkeypatch) -> Counter:
    """Count the root tableaus seeded, by `PhaseOneTableau.__init__`, and
    the LPs solved from scratch by `feasible_tableau`, wherever they are
    called from.  The forward search has no other way to build an LP."""
    events = Counter()
    assert not hasattr(forward, "feasible_tableau")

    def feasible(*args):
        events["cold"] += 1
        return _feasible(*args)

    def seeded(self, *args):
        events["seeds"] += 1
        _init(self, *args)

    _feasible, _init = geometry.feasible_tableau, geometry.PhaseOneTableau.__init__
    monkeypatch.setattr(geometry, "feasible_tableau", feasible)
    monkeypatch.setattr(geometry.PhaseOneTableau, "__init__", seeded)
    return events


def test_single_component_solves_one_lp_per_horizon(monkeypatch):
    """A lone component is a union of one: each DFS node has one child,
    which keeps its parent's tableau.  A StepColumns seeds one root, from
    the empty LP, whichever horizon is asked first, and grows every later
    horizon from it; a witness is read off its leaf's tableau, at horizon
    0 too, so no LP is solved from scratch."""
    events = count_lp_builds(monkeypatch)
    sys = quad_system(GenPolyhedron.point(vec(F(7, 3), 1)))
    assert reach_exactly(StepColumns(sys), 1) is None and events["seeds"] == 1
    w = reach_exactly(StepColumns(sys), 2)
    assert w is not None and verify_witness(sys, w) and events["seeds"] == 2
    assert [s.component for s in w.steps] == [0, 0]
    events.clear()
    cols = StepColumns(sys)
    assert reach_exactly(cols, 0) is None and reach_exactly(cols, 1) is None and events["seeds"] == 1
    assert reach_exactly(cols, 2) == w and events["seeds"] == 1
    home = quad_system(GenPolyhedron.point(vec(0, 0)))
    assert reach_exactly(StepColumns(home), 0) == ReachWitness(0, ()) and events["seeds"] == 2
    events.clear()
    w = reach_within(sys, 3)
    assert w is not None and w.horizon == 2 and events == {"seeds": 1}


def test_union_solves_one_seed_per_search_and_one_leaf_per_witness(monkeypatch):
    """With several components, reach_within seeds one root for the whole
    search, grows each later horizon's root from the previous one's and
    restricts a parent's tableau at every other DFS node; the witness is
    the point of the one leaf it reaches, so no LP is solved from
    scratch."""
    events = count_lp_builds(monkeypatch)
    nodes = []

    def search(*args):
        nodes.append(1)
        return _search(*args)

    _search = forward._search
    monkeypatch.setattr(forward, "_search", search)
    reachable, far = union_systems()[0], union_systems()[2]
    w = reach_within(reachable, 5)
    assert w is not None and w.horizon == 3 and events == {"seeds": 1}
    assert len(nodes) > w.horizon + 1
    assert verify_witness(reachable, w)
    events.clear()
    assert reach_within(far, 5) is None and events == {"seeds": 1}


def kernel_systems():
    """The union test systems whose every DFS node the kernel tests below
    compare, each with its horizons."""
    return [(sys, n) for sys in (*union_systems(), rays_and_lines_system()) for n in range(1, 4)]


def entry_bits(tab) -> int:
    return max((abs(x).bit_length() for row in tab.rows for x in row), default=0)


def test_search_takes_the_old_kernels_pivots(monkeypatch):
    """On every DFS node of the union test systems at horizons 1 to 3, the
    kernel whose restrictions mask their banned columns takes the pivots
    of the one that rebuilt every row without them (oracles.OldTableau),
    in the same order, each named by its entering column and its leaving
    basic column in the root's layout; it visits the same nodes, with the
    same basic point at each, and returns the same witness.  No node
    changes its parent's row list or rows: a child shares the parent's
    rows until it pivots, and then copies the list first.  Every row is in
    lowest terms or over a denominator below the bound at which rows are
    reduced, and no entry is more than that bound's bits longer than the
    old kernel's longest."""
    new_log, old_log, new_nodes, old_nodes, bits = [], [], [], [], Counter()

    def pivot(self, r, c):
        new_log.append((c, self.basis[r]))
        _pivot(self, r, c)
        for row, den in zip(self.rows, self.dens):
            assert den > 0 and (den < geometry._REDUCE_AT or math.gcd(den, *row) == 1)
        bits["new"] = max(bits["new"], entry_bits(self))

    def old_pivot(self, r, c):
        _old_pivot(self, r, c)
        bits["old"] = max(bits["old"], entry_bits(self))

    def search(cols, assignment, depth, tab):
        new_nodes.append((tuple(assignment[:depth]), basic_values(tab)))
        if tab is None:
            return _search(cols, assignment, depth, tab)
        rows, contents = list(tab.rows), [list(row) for row in tab.rows]
        dens, basis = list(tab.dens), list(tab.basis)
        found = _search(cols, assignment, depth, tab)
        assert all(a is b for a, b in zip(tab.rows, rows)) and len(tab.rows) == len(rows)
        assert [list(row) for row in tab.rows] == contents and tab.dens == dens and tab.basis == basis
        return found

    _pivot, _old_pivot, _search = geometry._Tableau.pivot, oracles.OldTableau.pivot, forward._search
    monkeypatch.setattr(geometry._Tableau, "pivot", pivot)
    monkeypatch.setattr(oracles.OldTableau, "pivot", old_pivot)
    monkeypatch.setattr(oracles.OldTableau, "log", old_log)
    monkeypatch.setattr(forward, "_search", search)
    witnesses = 0
    for sys, n in kernel_systems():
        new_log.clear(), old_log.clear(), new_nodes.clear(), old_nodes.clear()
        got = reach_exactly(StepColumns(sys), n)
        cols = StepColumns(sys)
        cols.grow(n)
        want = old_search(cols, [0] * n, 0, old_root(cols, n),
                          lambda prefix, tab: old_nodes.append((prefix, basic_values(tab))))
        assert new_log == old_log and new_nodes == old_nodes and got == want
        witnesses += got is not None
        bits["pivots"] += len(new_log)
        bits["infeasible nodes"] += sum(values is None for _, values in new_nodes)
    assert witnesses >= 3 and bits["pivots"] > 100 and bits["infeasible nodes"] > 20, bits
    assert bits["new"] <= bits["old"] + geometry._REDUCE_AT.bit_length(), bits


def test_forward_search_work_is_pinned(monkeypatch):
    """The work of the DFS below the root, over the union test systems at
    horizons 1 to 3: the pivots (those the old kernel takes, see
    test_search_takes_the_old_kernels_pivots), the children that copy
    their parent's row list because they pivot, and the tableaux rebuilt
    without some columns, which no node of the search makes.  A change
    that adds forward work fails here."""
    work = Counter()

    def pivot(self, r, c):
        work["pivots"] += 1
        _pivot(self, r, c)

    def restricted(self, banned):
        out = _restricted(self, banned)
        work["copies"] += out is not None and out.rows is not self.rows
        return out

    def compacted(self):
        work["rebuilds"] += 1
        return _compacted(self)

    _pivot, _restricted, _compacted = (geometry._Tableau.pivot, geometry._Tableau.restricted,
                                       geometry._Tableau.compacted)
    for sys, n in kernel_systems():
        cols = StepColumns(sys)
        cols.grow(n)
        root = cols.root_at(n).without_artificials()
        with monkeypatch.context() as m:
            m.setattr(geometry._Tableau, "pivot", pivot)
            m.setattr(geometry._Tableau, "restricted", restricted)
            m.setattr(geometry._Tableau, "compacted", compacted)
            forward._search(cols, [0] * n, 0, root)
    assert (work["pivots"], work["copies"], work["rebuilds"]) == (72, 17, 0), work


def random_union_system(rng: random.Random) -> LtiSystem:
    """2 or 3 components of one to three vertices, some with a ray or a line
    and some sharing a vertex, a point or line target and a zero or
    nonzero source, over small rationals."""
    def point(d, size=2):
        return tuple(F(rng.randint(-size, size), rng.choice([1, 1, 2, 3])) for _ in range(d))

    d = rng.choice([2, 2, 3])
    a = RatMatrix.from_rows([[F(rng.randint(-3, 3), rng.choice([2, 3, 4])) for _ in range(d)]
                             for _ in range(d)])
    shared = point(d)
    comps = []
    for _ in range(rng.choice([2, 2, 3])):
        vertices = [point(d) for _ in range(rng.choice([1, 1, 2, 3]))]
        if rng.random() < 0.3:
            vertices[0] = shared
        rays = tuple(r for r in [point(d) for _ in range(rng.choice([0, 0, 1]))] if any(r))
        lines = tuple(l for l in [point(d) for _ in range(rng.choice([0, 0, 0, 1]))] if any(l))
        comps.append(GenPolyhedron(d, tuple(dict.fromkeys(vertices)), rays, lines))
    if rng.random() < 0.25:
        target = GenPolyhedron(d, (point(d),), (), (point(d),))
    else:
        target = GenPolyhedron.point(point(d, 4))
    source = point(d) if rng.random() < 0.5 else (F(0),) * d
    return LtiSystem(a, ControlSet(tuple(comps)), source, target)


def matches_cold_search(sys: LtiSystem, got: ReachWitness | None, n: int) -> bool:
    """Check got, reach_exactly's answer at horizon n, against the search
    that solves every DFS node from scratch: None exactly when its answer
    is, and otherwise a witness of horizon n with its components that
    replays.  The coefficients may differ, since the cold LP may stop at
    another point.  True when got is a witness."""
    cold = cold_reach_exactly(sys, n)
    assert (got is None) == (cold is None)
    if got is None:
        return False
    assert got.horizon == cold.horizon == n
    assert [s.component for s in got.steps] == [s.component for s in cold.steps]
    assert verify_witness(sys, got)
    return True


def test_union_search_matches_cold_oracle(monkeypatch):
    """On seeded random unions, reach_exactly finds a witness exactly when
    the search that solves every DFS node from scratch does, for every
    n <= 4, with the same horizon and components, and the witness
    replays.  The corpus includes restrictions that find a banned column
    basic at 0 and restrictions that leave a redundant row basic in a dead
    column."""
    events = Counter()

    def restricted(self, banned):
        out = _restricted(self, banned)
        ban = set(banned)
        events["restrictions"] += 1
        if any(b in ban and row[-1] == 0 for row, b in zip(self.rows, self.basis)):
            events["banned basic at 0"] += 1
        if out is not None and any(b in ban for b in out.basis):
            events["redundant row kept"] += 1
        return out

    _restricted = geometry._Tableau.restricted
    monkeypatch.setattr(geometry._Tableau, "restricted", restricted)
    rng = random.Random(53)
    reached = 0
    for _ in range(60):
        sys = random_union_system(rng)
        for n in range(5):
            if matches_cold_search(sys, reach_exactly(StepColumns(sys), n), n):
                reached += 1
    assert reached > 30
    assert events["banned basic at 0"] > 10 and events["redundant row kept"] > 10, events


def random_forward_system(rng: random.Random) -> LtiSystem:
    """A random union system cut to one, two or three components, its A
    made singular one time in four (the last row repeats the first)."""
    k = rng.choice([1, 2, 3])
    sys = random_union_system(rng)
    while len(sys.controls.components) < k:
        sys = random_union_system(rng)
    comps = sys.controls.components[:k]
    a = sys.a
    if rng.random() < 0.25:
        rows = [list(a.entries[i * a.cols:(i + 1) * a.cols]) for i in range(a.rows)]
        a = RatMatrix.from_rows(rows[:-1] + rows[:1])
    return dataclasses.replace(sys, a=a, controls=ControlSet(comps))


def test_warm_horizons_match_cold_oracle(monkeypatch):
    """reach_exactly asked for n = 0, ..., 6 on one StepColumns, as decide
    asks, grows each horizon's root from the previous one's basis, and
    still finds a witness exactly when the search that solves every DFS
    node from scratch does, with its horizon and components.  The corpus has zero and nonzero sources,
    horizons at which a basic value turns negative under the new
    right-hand side, singular A, rays, lines, point and line targets, and
    one to three components."""
    events = Counter()

    def extend(self, columns, nonneg, row, rhs, rhs_den):
        events["extensions"] += 1
        m = len(self.signs)
        if any(sum(a * s * b for a, s, b in zip(r[self.first_art:self.first_art + m], self.signs, rhs)) < 0
               for r in self.tab.rows):
            events["negative basic value"] += 1
        return _extend(self, columns, nonneg, row, rhs, rhs_den)

    _extend = geometry.PhaseOneTableau.extend
    monkeypatch.setattr(geometry.PhaseOneTableau, "extend", extend)
    rng = random.Random(71)
    for _ in range(30):
        sys = random_forward_system(rng)
        comps = sys.controls.components
        events[f"{len(comps)} components"] += 1
        events["zero source" if not any(sys.source) else "nonzero source"] += 1
        events["singular A" if sys.a.det() == 0 else "invertible A"] += 1
        events["rays or lines"] += any(c.rays or c.lines for c in comps)
        events["line target" if sys.target.lines else "point target"] += 1
        cols = StepColumns(sys)
        for n in range(7):
            if matches_cold_search(sys, reach_exactly(cols, n), n):
                events["reached"] += 1
    assert all(events[k] >= 5 for k in ("1 components", "2 components", "3 components", "zero source",
                                       "nonzero source", "singular A", "rays or lines", "line target",
                                       "negative basic value", "reached")), events
    # the target's block at the seed, then horizons 1 to 6 each grow from the one before
    assert events["extensions"] == 30 * 7


def test_horizons_out_of_order_match_cold_oracle(monkeypatch):
    """One StepColumns asked for horizons 3, 1, 4, 0, 2 seeds its root from
    the empty LP on the first call and again on each call below the last
    horizon asked (1 and 0), each seed followed by the target's block, and
    grows it one horizon at a time otherwise; at every horizon it finds a
    witness exactly when the search that solves every DFS node from
    scratch does, with its horizon and components."""
    events = Counter()

    class Seeded(geometry.PhaseOneTableau):
        def __init__(self, *args):
            events["seeds"] += 1
            super().__init__(*args)

        def extend(self, *args):
            events["extensions"] += 1
            return super().extend(*args)

    monkeypatch.setattr(forward, "PhaseOneTableau", Seeded)
    rng = random.Random(89)
    for _ in range(20):
        sys = random_forward_system(rng)
        cols = StepColumns(sys)
        for n in (3, 1, 4, 0, 2):
            if matches_cold_search(sys, reach_exactly(cols, n), n):
                events["reached"] += 1
    assert events["seeds"] == 20 * 3
    assert events["extensions"] == 20 * (3 + 1 + 3 + 0 + 2 + 3)  # the last 3: one target block per seed
    assert events["reached"] >= 10, events


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
            assert (reach_exactly(StepColumns(sys), n) is not None) == direct

