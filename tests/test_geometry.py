import dataclasses
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from ltireach import geometry
from ltireach.geometry import (
    DimensionCeilingError,
    GenPolyhedron,
    canonical,
    constraint,
    contains_point,
    facet_normals,
    feasible_tableau,
    h_representation,
    intersect_with_subspace,
    linear_image,
    lp_solve,
    membership_coefficients,
    minkowski_sum,
    relative_interior_contains_origin,
    vertices_from_h_rep,
)
from ltireach.linalg import RatMatrix, vec
from oracles import fraction_lp_solve, lp_contains_point, max_t_interior_contains_origin, maximize_over, negate

F = Fraction

QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])
DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
SQUARE = GenPolyhedron.polytope([vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)])


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------


def test_lp_simple_max():
    res = lp_solve([1], [constraint([1], "<=", 3)], 1, nonneg=[False])
    assert res.status == "optimal" and res.value == 3


def test_lp_infeasible():
    res = lp_solve(None, [constraint([1], ">=", 1), constraint([1], "<=", 0)], 1, nonneg=[False])
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_solve([1], [constraint([1], ">=", 0)], 1, nonneg=[False])
    assert res.status == "unbounded"


def test_lp_geometric_sum_partial():
    # maximize x over the 9-step forward sums of the quadrilateral system:
    # variables are per-step convex coefficients
    n = 9
    verts = list(QUAD_U.vertices)
    nv = len(verts)
    cons = []
    obj = []
    powers = [DIAG_A.power(i) for i in range(n)]
    for step in range(n):
        row = [0] * (n * nv)
        for j in range(nv):
            row[step * nv + j] = 1
        cons.append(constraint(row, "==", 1))
    for j in range(n * nv):
        step, k = divmod(j, nv)
        obj.append(powers[step].matvec(verts[k])[0])
    res = lp_solve(obj, cons, n * nv, nonneg=[True] * (n * nv))
    expected = 2 * (1 - F(1, 3) ** 9) / (1 - F(1, 3))  # closed-form geometric sum
    assert res.value == expected


def test_lp_degenerate_cycling_guard():
    # classic Beale instance; Bland's rule must terminate
    cons = [
        constraint([F(1, 4), -8, -1, 9], "<=", 0),
        constraint([F(1, 2), -12, F(-1, 2), 3], "<=", 0),
        constraint([0, 0, 1, 0], "<=", 1),
    ]
    obj = [F(3, 4), -20, F(1, 2), -6]
    res = lp_solve(obj, cons, 4, nonneg=[True] * 4)
    assert res.status == "optimal"
    x = res.point
    assert all(sum(c * v for c, v in zip(con.coeffs, x)) <= con.rhs for con in cons)
    assert all(v >= 0 for v in x)
    # optimality sanity: beats a handful of feasible probes
    for probe in ([F(0)] * 4, [F(1, 25), F(0), F(1), F(0)], [F(4), F(1, 8), F(0), F(0)]):
        feasible = all(sum(c * v for c, v in zip(con.coeffs, probe)) <= con.rhs for con in cons)
        if feasible:
            assert sum(o * v for o, v in zip(obj, probe)) <= res.value


def test_lp_row_scaling_invariance():
    rng = random.Random(17)
    for _ in range(15):
        cons = [
            constraint([1, 2], "<=", 4),
            constraint([-1, 1], "<=", 1),
            constraint([0, -1], "<=", 0),
        ]
        obj = [F(rng.randint(-3, 3)), F(rng.randint(-3, 3))]
        base = lp_solve(obj, cons, 2, nonneg=[False] * 2)
        scaled = [constraint([c * F(rng.randint(1, 5)) for c in con.coeffs], con.rel,
                             con.rhs * 1) for con in cons]
        # scale rows consistently (coeffs and rhs together)
        factor = [F(rng.randint(1, 5)) for _ in cons]
        scaled = [constraint([c * f for c in con.coeffs], con.rel, con.rhs * f)
                  for con, f in zip(cons, factor)]
        again = lp_solve(obj, scaled, 2, nonneg=[False] * 2)
        assert base.status == again.status
        if base.status == "optimal":
            assert base.value == again.value


def _rational(rng):
    """Half small integers, half fractions over mixed denominators."""
    if rng.random() < 0.5:
        return F(rng.randint(-2, 2))
    return F(rng.randint(-6, 6), rng.choice([1, 2, 3, 4, 6, 9]))


def random_lps(seed, count):
    """Small LPs with rational coefficients over mixed denominators and many
    zero right-hand sides, so that degenerate vertices and tied ratios are
    common.  Two in five also get a redundant equality row, a combination
    of two others with right-hand side 0, so that phase 1 ends with
    artificials to drive out or rows to drop."""
    rng = random.Random(seed)
    for _ in range(count):
        nvars = rng.randint(2, 5)
        rows = [([_rational(rng) for _ in range(nvars)], rng.choice(["<=", "<=", ">=", "=="]),
                 rng.choice([0, 0, 0, 1, 2, -1, F(1, 3)]))
                for _ in range(rng.randint(2, 6))]
        if rng.random() < 0.4:
            (a, _, _), (b, _, _) = rng.sample(rows, 2)
            ka, kb = _rational(rng), _rational(rng)
            rows.append(([ka * x + kb * y for x, y in zip(a, b)], "==", 0))
        cons = [constraint(*row) for row in rows]
        obj = [_rational(rng) for _ in range(nvars)] if rng.random() < 0.8 else None
        nonneg = [rng.random() < 0.7 for _ in range(nvars)]
        yield obj, cons, nvars, nonneg, rng.random() < 0.5


BEALE = ([F(3, 4), -20, F(1, 2), -6],
         [constraint([F(1, 4), -8, -1, 9], "<=", 0), constraint([F(1, 2), -12, F(-1, 2), 3], "<=", 0),
          constraint([0, 0, 1, 0], "<=", 1)], 4, [True] * 4, True)


def lp_solve_as_drawn(obj, cons, n, nn, mx):
    """lp_solve on a drawn LP.  lp_solve only maximizes, so an LP drawn to
    minimize (mx false) maximizes the negated objective, and its value is
    negated back."""
    if obj is None or mx:
        return lp_solve(obj, cons, n, nonneg=nn)
    res = lp_solve([-c for c in obj], cons, n, nonneg=nn)
    return res if res.value is None else dataclasses.replace(res, value=-res.value)


def test_lp_carries_exact_reduced_costs(monkeypatch):
    """After every pivot, each row is in lowest terms over a positive
    denominator, each basic column is a unit column, and the carried
    reduced costs equal, as values, the ones recomputed from the basis."""
    checked = []

    class Checked(geometry._Tableau):
        def maximize(self, cost, cost_den=1):
            self.cost = [F(c, cost_den) for c in cost]
            return super().maximize(cost, cost_den)

        def pivot(self, r, c):
            super().pivot(r, c)
            rows = [[F(x, den) for x in row] for row, den in zip(self.rows, self.dens)]
            for i, (row, den) in enumerate(zip(self.rows, self.dens)):
                assert den > 0 and math.gcd(den, *row) == 1
                assert [rw[self.basis[i]] for rw in rows] == [int(k == i) for k in range(len(rows))]
            if self.red is None:
                return
            fresh = self.cost + [F(0)]
            for row, b in zip(rows, self.basis):
                fresh = [x - self.cost[b] * y for x, y in zip(fresh, row)]
            assert [F(x, self.red_den) for x in self.red] == fresh
            checked.append(1)

    monkeypatch.setattr(geometry, "_Tableau", Checked)
    for case in random_lps(5, 300):
        lp_solve_as_drawn(*case)
    assert len(checked) > 300


def test_lp_matches_fraction_oracle():
    """Same status, value and point as the Fraction simplex, on LPs that
    exercise tied ratios and drive-out pivots on negative entries."""
    counts = Counter()
    cases = [BEALE, *random_lps(23, 600)]
    for obj, cons, n, nn, mx in cases:
        got = lp_solve_as_drawn(obj, cons, n, nn, mx)
        want = fraction_lp_solve(obj, cons, n, nonneg=nn, maximize=mx, counts=counts)
        assert (got.status, got.value, got.point) == (want.status, want.value, want.point)
        assert all(type(x) is F for x in got.point or ())
    assert counts["tied_ratio"] > 100 and counts["negative_driveout"] > 10


def test_lp_column_scaling_keeps_pivots():
    """Substituting x_j = s_j·y_j with s_j > 0 leaves every Bland choice
    alone, so the scaled LP has the same status and value and y times s is
    the Fraction simplex's point on the original LP.  Half the cases scale
    each column by a multiple of its denominators, which makes every
    coefficient an int, as the forward LP's columns are."""
    rng = random.Random(41)
    counts = Counter()
    for obj, cons, n, nn, mx in [BEALE, *random_lps(29, 500)]:
        if rng.random() < 0.5:
            scales = [math.lcm(*(F(c.coeffs[j]).denominator for c in cons)) * rng.randint(1, 3)
                      for j in range(n)]
        else:
            scales = [rng.choice([1, 1, 2, 3, 5, 12]) for _ in range(n)]
        scaled = [constraint([c * s for c, s in zip(con.coeffs, scales)], con.rel, con.rhs) for con in cons]
        sobj = [o * s for o, s in zip(obj, scales)] if obj is not None else None
        want = fraction_lp_solve(obj, cons, n, nonneg=nn, maximize=mx, counts=counts)
        got = lp_solve_as_drawn(sobj, scaled, n, nn, mx)
        assert (got.status, got.value) == (want.status, want.value)
        if got.point is not None:
            assert tuple(y * s for y, s in zip(got.point, scales)) == want.point
    assert counts["tied_ratio"] > 100 and counts["negative_driveout"] > 10


def integer_rows(cons, n):
    """Each constraint as integer numerators over the lcm of its
    denominators, the form feasible_tableau reads."""
    rows, dens = [], []
    for con in cons:
        values = [F(c) for c in con.coeffs] + [F(con.rhs)]
        den = math.lcm(*(v.denominator for v in values))
        rows.append([int(v * den) for v in values])
        dens.append(den)
    return rows, dens, [con.rel for con in cons]


def without(cons, banned):
    """The constraints with the banned variables' coefficients removed."""
    return [constraint([c for j, c in enumerate(con.coeffs) if j not in banned], con.rel, con.rhs)
            for con in cons]


def test_restricted_tableau_is_the_lp_without_the_banned_variables(monkeypatch):
    """Restricting a feasible tableau to the columns of the variables not
    banned gives a feasible tableau exactly when the Fraction simplex finds
    the LP without the banned variables feasible, twice in a row.  Its
    point satisfies that LP, its rows are in lowest terms with unit basic
    columns, the parent is left as it was, and with no banned column basic
    it is the parent with those columns dropped.  An infeasible restriction
    that one row proves (a banned basic column, a positive right-hand side,
    no positive entry in a kept column) returns without running phase 1,
    and the Fraction simplex agrees that it is infeasible."""
    rng = random.Random(37)
    counts = Counter()
    phase_ones = []
    phase_one = geometry._Tableau.phase_one

    def counting(self, banned):
        phase_ones.append(banned)
        return phase_one(self, banned)

    monkeypatch.setattr(geometry._Tableau, "phase_one", counting)
    for _, cons, n, nn, _ in random_lps(31, 400):
        tab = feasible_tableau(*integer_rows(cons, n), nn)
        if tab is None:
            continue
        for _ in range(2):
            banned = {j for j in range(n) if rng.random() < 0.4}
            kept_nn = [k for j, k in enumerate(nn) if j not in banned]
            col_of, _ = geometry.tableau_columns(nn)
            cols = {c for j in banned for c in col_of[j] if c is not None}
            before = ([list(row) for row in tab.rows], list(tab.dens), list(tab.basis))
            phase_ones.clear()
            child = tab.restricted(sorted(cols))
            early = child is None and not phase_ones
            assert early == any(b in cols and row[-1] > 0 and all(row[j] <= 0 for j in range(tab.ncols)
                                                                  if j not in cols)
                                for row, b in zip(tab.rows, tab.basis))
            assert ([list(row) for row in tab.rows], tab.dens, tab.basis) == before
            cons = without(cons, banned)
            want = fraction_lp_solve(None, cons, n - len(banned), nonneg=kept_nn)
            assert (child is not None) == want.is_feasible
            if not any(b in cols for b in tab.basis):
                counts["no pivot"] += 1
                dropped = [_lowest_terms_row([x for j, x in enumerate(row) if j not in cols], den)
                           for row, den in zip(tab.rows, tab.dens)]
                assert [(row, den) for row, den in zip(child.rows, child.dens)] == dropped
            if child is None:
                counts["infeasible"] += 1
                counts["early exit"] += early
                break
            counts["feasible"] += 1
            counts["rows dropped"] += len(child.rows) < len(tab.rows)
            for i, (row, den) in enumerate(zip(child.rows, child.dens)):
                assert den > 0 and math.gcd(den, *row) == 1 and len(row) == child.ncols + 1
                unit = [den * (k == i) for k in range(len(child.rows))]
                assert [r[child.basis[i]] for r in child.rows] == unit
            x = child.point(kept_nn)
            assert all(xj >= 0 for xj, k in zip(x, kept_nn) if k)
            for con in cons:
                lhs = sum(c * xj for c, xj in zip(con.coeffs, x))
                assert {"<=": lhs <= con.rhs, ">=": lhs >= con.rhs, "==": lhs == con.rhs}[con.rel]
            tab, n, nn = child, n - len(banned), kept_nn
    assert counts["infeasible"] > 20 and counts["feasible"] > 100
    assert counts["no pivot"] > 50 and counts["rows dropped"] > 5
    assert 30 <= counts["early exit"] < counts["infeasible"], counts


def test_phase_one_tableau_grown_from_no_variables_matches_cold_solves():
    """A PhaseOneTableau seeded with no variables, whose d rows read 0 = 0,
    and extended block by block (each block's columns put before the
    others, its one new row after the others, a new right-hand side on
    every row) is feasible after each block exactly when feasible_tableau
    finds the whole LP so far feasible, and its point satisfies that LP
    exactly.  Half the right-hand sides come from a point of the LP, so
    both answers are common, and many turn a basic value negative, where
    the extra artificial enters."""
    rng = random.Random(61)
    counts = Counter()
    for _ in range(120):
        grown = geometry.PhaseOneTableau(rng.randint(1, 3))
        assert grown.feasible
        matrix = [[] for _ in grown.signs]  # the LP's integer rows, variables only
        nonneg = []
        for _ in range(rng.randint(1, 4)):
            k = rng.randint(1, 3)
            columns = [[rng.randint(-3, 3) for _ in matrix] for _ in range(k)]
            nn = [rng.random() < 0.8 for _ in range(k)]
            row = [rng.randint(0, 3) for _ in range(k)]
            matrix = [[c[i] for c in columns] + old for i, old in enumerate(matrix)]
            matrix.append(row + [0] * len(nonneg))
            nonneg = nn + nonneg
            if rng.random() < 0.5:
                x = [rng.randint(0 if keep else -2, 2) for keep in nonneg]
                rhs, rhs_den = [sum(map(int.__mul__, r, x)) for r in matrix], 1
            else:
                rhs, rhs_den = [rng.randint(-4, 4) for _ in matrix], rng.choice([1, 2, 3])
            m = len(grown.signs)
            inv = [r[grown.first_art:grown.first_art + m] for r in grown.tab.rows]
            if any(sum(a * s * v for a, s, v in zip(r, grown.signs, rhs)) < 0 for r in inv):
                counts["negative basic value"] += 1
            grown.extend(columns, nn, row, rhs, rhs_den)
            rows, dens = [], []
            for r, v in zip(matrix, rhs):
                row, den = _lowest_terms_row([c * rhs_den for c in r] + [v], rhs_den)
                rows.append(row)
                dens.append(den)
            cold = feasible_tableau(rows, dens, ["=="] * len(rows), nonneg)
            assert grown.feasible == (cold is not None)
            tab = grown.without_artificials()
            assert (tab is None) == (cold is None)
            counts["feasible" if tab else "infeasible"] += 1
            if tab is not None:
                point = tab.point(nonneg)
                assert all(y >= 0 for y, keep in zip(point, nonneg) if keep)
                assert all(sum(map(F.__mul__, point, r)) == F(v, rhs_den) for r, v in zip(matrix, rhs))
    assert counts["feasible"] > 100 and counts["infeasible"] > 80
    assert counts["negative basic value"] > 100, counts


def _lowest_terms_row(row, den):
    g = math.gcd(den, *row)
    return [x // g for x in row], den // g


def test_linear_constraint_keeps_ints_and_fractions():
    con = constraint([1, F(1, 2), "3/4", 0], "<=", 2)
    assert [type(c) for c in con.coeffs] == [int, F, F, int] and type(con.rhs) is int
    assert con.coeffs == (1, F(1, 2), F(3, 4), 0)


# ---------------------------------------------------------------------------
# minkowski sum and linear image
# ---------------------------------------------------------------------------


def test_minkowski_identity_element():
    zero = GenPolyhedron.point(vec(0, 0))
    assert minkowski_sum(QUAD_U, zero).vertices == QUAD_U.vertices


def test_minkowski_segments_make_square():
    s1 = GenPolyhedron.polytope([vec(-1, 0), vec(1, 0)])
    s2 = GenPolyhedron.polytope([vec(0, -1), vec(0, 1)])
    sq = minkowski_sum(s1, s2)
    assert set(sq.vertices) == {(F(-1), F(-1)), (F(1), F(-1)), (F(1), F(1)), (F(-1), F(1))}


def test_minkowski_quad_partial_sum():
    scaled = linear_image(DIAG_A, QUAD_U)
    total = minkowski_sum(QUAD_U, scaled)
    # oracle: every candidate pairwise sum is either a kept vertex or an
    # LP-member of the hull of the kept ones
    candidates = [tuple(a + b for a, b in zip(u, w))
                  for u in QUAD_U.vertices for w in scaled.vertices]
    for c in candidates:
        assert contains_point(total, c)
    for v in total.vertices:
        others = [w for w in total.vertices if w != v]
        assert not contains_point(GenPolyhedron(2, tuple(others)), v)


def test_minkowski_associates_randomized():
    rng = random.Random(53)
    for _ in range(6):
        polys = [GenPolyhedron.polytope([vec(rng.randint(-2, 2), rng.randint(-2, 2))
                                         for _ in range(3)]) for _ in range(3)]
        left = minkowski_sum(minkowski_sum(polys[0], polys[1]), polys[2])
        right = minkowski_sum(polys[0], minkowski_sum(polys[1], polys[2]))
        # set equality by mutual vertex membership
        assert all(contains_point(right, v) for v in left.vertices)
        assert all(contains_point(left, v) for v in right.vertices)


def test_minkowski_commutes_randomized():
    rng = random.Random(23)
    for _ in range(10):
        p = GenPolyhedron.polytope([vec(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
        q = GenPolyhedron.polytope([vec(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
        a = minkowski_sum(p, q)
        b = minkowski_sum(q, p)
        assert set(a.vertices) == set(b.vertices)


def test_linear_image_examples():
    assert linear_image(RatMatrix.identity(2), QUAD_U).vertices == QUAD_U.vertices
    img = linear_image(DIAG_A, QUAD_U)
    assert set(img.vertices) == {(F(-2, 3), F(-2, 3)), (F(0), F(-2, 3)), (F(0), F(2, 3)), (F(2, 3), F(2, 3))}
    z = linear_image(RatMatrix.zeros(2, 2), QUAD_U)
    assert z.vertices == ((F(0), F(0)),)


def test_linear_image_composition_randomized():
    rng = random.Random(29)
    for _ in range(10):
        a = RatMatrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
        b = RatMatrix.from_rows([[F(rng.randint(-2, 2)) for _ in range(2)] for _ in range(2)])
        p = GenPolyhedron.polytope([vec(rng.randint(-3, 3), rng.randint(-3, 3)) for _ in range(4)])
        lhs = linear_image(a, linear_image(b, p))
        rhs = linear_image(a @ b, p)
        assert set(lhs.vertices) == set(rhs.vertices)


def test_generator_operations_refuse_rays_and_lines():
    # canonical, minkowski_sum and linear_image take polytopes only, as
    # h_representation does; an unbounded input is refused, not truncated
    ray = GenPolyhedron(2, (vec(0, 0),), (vec(1, 0),))
    line = GenPolyhedron(2, (vec(0, 0),), (), (vec(0, 1),))
    for p in (ray, line):
        for op in (canonical, lambda p: minkowski_sum(QUAD_U, p), lambda p: minkowski_sum(p, QUAD_U),
                   lambda p: linear_image(DIAG_A, p), h_representation):
            with pytest.raises(ValueError, match="polytope"):
                op(p)


def test_lp_vertex_redundancy_agrees_with_2d_hull():
    rng = random.Random(41)
    from ltireach.geometry import _extreme_vertices_lp, _hull_2d

    for _ in range(12):
        pts = [vec(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(7)]
        pts = list(dict.fromkeys(pts))
        hull = set(_hull_2d(pts))
        lp_kept = set(_extreme_vertices_lp(pts))
        assert hull == lp_kept


# ---------------------------------------------------------------------------
# facets
# ---------------------------------------------------------------------------


def test_facets_unit_square():
    normals = set(facet_normals(SQUARE))
    assert normals == {(F(1), F(0)), (F(-1), F(0)), (F(0), F(1)), (F(0), F(-1))}


def test_facets_quadrilateral():
    normals = set(facet_normals(QUAD_U))
    assert normals == {(F(0), F(-1)), (F(-1), F(1)), (F(1), F(-1)), (F(0), F(1))}


def test_facets_simplex():
    tri = GenPolyhedron.polytope([vec(0, 0), vec(1, 0), vec(0, 1)])
    assert len(facet_normals(tri)) == 3


def test_facets_support_property():
    rng = random.Random(37)
    for _ in range(8):
        pts = [vec(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(6)]
        p = GenPolyhedron.polytope(pts)
        if len(p.vertices) < 4:
            continue
        for n in facet_normals(p):
            best = max(sum(a * b for a, b in zip(n, v)) for v in p.vertices)
            argmax = [v for v in p.vertices if sum(a * b for a, b in zip(n, v)) == best]
            assert len(argmax) >= 3
            diffs = [[x - y for x, y in zip(v, argmax[0])] for v in argmax[1:]]
            assert RatMatrix.from_rows(diffs).rank() == 2  # a 2-dimensional face in 3-space


def test_facet_ceiling():
    cross = GenPolyhedron.polytope([vec(*(s if j == i else 0 for j in range(6)))
                                    for i in range(6) for s in (1, -1)])
    with pytest.raises(DimensionCeilingError):
        facet_normals(cross)
    # the ceiling is on the affine dimension: a segment in 6-D has two facets
    segment = GenPolyhedron.polytope([vec(*([0] * 6)), vec(*([1] * 6))])
    assert sorted(facet_normals(segment)) == [vec(*([-1] * 6)), vec(*([1] * 6))]


def test_point_has_no_facets():
    assert facet_normals(GenPolyhedron.point(vec(0, 3))) == []


# ---------------------------------------------------------------------------
# relative interior, membership, intersection
# ---------------------------------------------------------------------------


def test_relative_interior_examples():
    assert relative_interior_contains_origin(SQUARE) is True
    assert relative_interior_contains_origin(QUAD_U) is True
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    assert relative_interior_contains_origin(seg) is False
    seg2 = GenPolyhedron.polytope([vec(-1, 0), vec(1, 0)])
    assert relative_interior_contains_origin(seg2) is True
    assert relative_interior_contains_origin(GenPolyhedron.point(vec(0, 0))) is True


def seeded_polytope(rng, d: int) -> tuple[str, GenPolyhedron]:
    """A seeded polytope in dimension d and its kind: full or lower
    dimensional around the origin, with the origin on a facet, at a
    vertex or outside, or a single point."""
    def point(k):
        return [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(k)]

    kind = rng.choice(["full", "centered", "lower", "facet", "vertex", "outside", "point"])
    if kind == "point":
        return kind, GenPolyhedron.point(vec(*(point(d) if rng.random() < 0.5 else [0] * d)))
    if kind == "lower":
        # an origin-symmetric or random set in k < d dimensions, mapped in
        k = rng.randint(1, d - 1) if d > 1 else 1
        basis = [point(d) for _ in range(k)]
        low = [point(k) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:
            low += [[-x for x in v] for v in low]
        pts = [[sum(c * b[i] for c, b in zip(v, basis)) for i in range(d)] for v in low]
    else:
        pts = [point(d) for _ in range(rng.randint(1, 2 * d + 2))]
        if kind == "centered":
            pts += [[-x for x in v] for v in pts]
        elif kind in ("facet", "vertex", "outside"):
            # every point in x_0 >= 0: the origin is on the face x_0 = 0, at
            # one of its vertices, or (x_0 >= 1) outside
            pts = [[abs(v[0]) + (1 if kind == "outside" else 0)] + v[1:] for v in pts]
            if kind == "facet":
                face = [[F(0)] + point(d - 1) for _ in range(2)]
                pts += face + [[-x for x in v] for v in face]
            elif kind == "vertex":
                pts = [[x + 1 if i == 0 else x for i, x in enumerate(v)] for v in pts] + [[F(0)] * d]
    return kind, GenPolyhedron.polytope([vec(*v) for v in pts])


def test_relative_interior_matches_max_t_oracle_on_seeded_polytopes(monkeypatch):
    """The d-row feasibility test equals the max-t LP on seeded polytopes
    of every kind, with both answers common.  Exactly the polytopes whose
    vertices sum to 0, among them every centrally symmetric one, are
    answered without a tableau, and the others, inside or not, by the LP."""
    rng = random.Random(4242)
    answers = Counter()
    solved = []
    feasible = geometry.feasible_tableau

    def counting(*args):
        solved.append(args)
        return feasible(*args)

    monkeypatch.setattr(geometry, "feasible_tableau", counting)
    for _ in range(600):
        kind, p = seeded_polytope(rng, rng.randint(1, 4))
        solved.clear()
        got = relative_interior_contains_origin(p)
        symmetric = not any(sum(v[i] for v in p.vertices) for i in range(p.dim))
        assert bool(solved) is not symmetric
        assert got is max_t_interior_contains_origin(p), (kind, p)
        answers[kind, got] += 1
        answers["shortcut" if symmetric else "lp", got] += 1
        if kind == "centered":
            assert symmetric
    assert answers["shortcut", True] >= 100 and answers["lp", True] >= 30 and answers["lp", False] >= 100, answers
    assert answers["centered", True] and answers["outside", False] and answers["vertex", False]
    assert answers["lower", True] and answers["lower", False] and answers["facet", False]
    assert answers["point", True] and answers["point", False] and answers["full", True] and answers["full", False]


def test_point_membership_is_an_equality_test(monkeypatch):
    """On a one-vertex polytope, membership needs no LP and agrees with the
    Fraction simplex; the coefficients are the single convex weight 1."""
    def no_lp(*args, **kwargs):
        raise AssertionError("point membership solved an LP")

    monkeypatch.setattr(geometry, "lp_solve", no_lp)
    rng = random.Random(77)
    for _ in range(200):
        d = rng.randint(0, 4)
        v = vec(*(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)))
        x = v if rng.random() < 0.5 else vec(*(F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)))
        p = GenPolyhedron.point(v)
        assert contains_point(p, x) is lp_contains_point(p, x) is (x == v)
        assert membership_coefficients(p, x) == (((F(1),), (), ()) if x == v else None)


def test_membership_with_lines():
    # affine subspace {(0, t, 1)} via a line generator
    p = GenPolyhedron(3, (vec(0, 0, 1),), (), (vec(0, 1, 0),))
    assert contains_point(p, vec(0, 5, 1))
    assert not contains_point(p, vec(1, 0, 1))
    coeffs = membership_coefficients(p, vec(0, -7, 1))
    assert coeffs is not None and coeffs[2][0] == -7


def test_intersect_square_with_axis():
    res = intersect_with_subspace(SQUARE, [vec(1, 0)])
    assert set(res.vertices) == {(F(-1),), (F(1),)}


def test_intersect_full_space():
    res = intersect_with_subspace(QUAD_U, [vec(1, 0), vec(0, 1)])
    got = {tuple(v) for v in res.vertices}
    # coordinates are in the given basis = standard, so vertices match
    assert got == set(QUAD_U.vertices)


def test_intersect_triangle_with_axis():
    tri = GenPolyhedron.polytope([vec(0, 1), vec(1, -1), vec(-1, -1)])
    res = intersect_with_subspace(tri, [vec(1, 0)])
    # oracle: edge-line intersection by hand gives x in [-1/2, 1/2]
    assert set(res.vertices) == {(F(-1, 2),), (F(1, 2),)}


def test_intersect_empty():
    res = intersect_with_subspace(GenPolyhedron.polytope([vec(2, 2), vec(3, 2), vec(2, 3)]),
                                  [vec(1, 0)])
    assert res.is_empty


def test_vertices_from_h_rep_square():
    ineqs = [((F(1), F(0)), F(1)), ((F(-1), F(0)), F(1)), ((F(0), F(1)), F(1)), ((F(0), F(-1)), F(1))]
    verts = vertices_from_h_rep(ineqs, [], 2)
    assert set(verts) == {(F(1), F(1)), (F(1), F(-1)), (F(-1), F(1)), (F(-1), F(-1))}


def test_h_representation_roundtrip():
    ineqs, eqs = h_representation(QUAD_U)
    assert eqs == []
    verts = vertices_from_h_rep(ineqs, eqs, 2)
    assert set(verts) == set(QUAD_U.vertices)


def test_maximize_over():
    res = maximize_over(QUAD_U, vec(1, 0))
    assert res.value == 2
    res = maximize_over(negate(QUAD_U), vec(1, 0))
    assert res.value == 2


def test_lp_value_invariant_under_vertex_reordering():
    rng = random.Random(61)
    verts = list(QUAD_U.vertices)
    base = maximize_over(QUAD_U, vec(1, 1)).value
    for _ in range(6):
        rng.shuffle(verts)
        shuffled = GenPolyhedron(2, tuple(verts))
        assert maximize_over(shuffled, vec(1, 1)).value == base
