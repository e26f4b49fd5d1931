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
    constraint,
    contains_point,
    facet_normals,
    h_representation,
    intersect_with_subspace,
    linear_image,
    lp_solve,
    membership_coefficients,
    minkowski_sum,
    negate,
    relative_interior_contains_origin,
    vertices_from_h_rep,
)
from ltireach.linalg import RatMatrix, vec
from oracles import fraction_lp_solve, maximize_over

F = Fraction

QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])
DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
SQUARE = GenPolyhedron.polytope([vec(-1, -1), vec(1, -1), vec(1, 1), vec(-1, 1)])


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------


def test_lp_simple_max():
    res = lp_solve([1], [constraint([1], "<=", 3)], 1)
    assert res.status == "optimal" and res.value == 3


def test_lp_infeasible():
    res = lp_solve(None, [constraint([1], ">=", 1), constraint([1], "<=", 0)], 1)
    assert res.status == "infeasible"


def test_lp_unbounded():
    res = lp_solve([1], [constraint([1], ">=", 0)], 1)
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
        base = lp_solve(obj, cons, 2)
        scaled = [constraint([c * F(rng.randint(1, 5)) for c in con.coeffs], con.rel,
                             con.rhs * 1) for con in cons]
        # scale rows consistently (coeffs and rhs together)
        factor = [F(rng.randint(1, 5)) for _ in cons]
        scaled = [constraint([c * f for c in con.coeffs], con.rel, con.rhs * f)
                  for con, f in zip(cons, factor)]
        again = lp_solve(obj, scaled, 2)
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


def test_lp_vertex_redundancy_agrees_with_2d_hull():
    rng = random.Random(41)
    from ltireach.geometry import _extreme_vertices_lp, _hull_2d

    for _ in range(12):
        pts = [vec(rng.randint(-4, 4), rng.randint(-4, 4)) for _ in range(7)]
        pts = list(dict.fromkeys(pts))
        hull = set(_hull_2d(pts))
        lp_kept = set(_extreme_vertices_lp(pts, (), ()))
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
