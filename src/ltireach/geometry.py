"""Exact polyhedral computation over the rationals.

Polyhedra are kept in generator form (vertices + rays + lines); the
half-space form is derived on demand for subspace intersections.  One
exact primitive, a two-phase simplex with Bland's anti-cycling rule,
backs every predicate: point membership, vertex redundancy, relative
interior tests, and optimization.  Its tableau is fraction-free: each row
is a list of integer numerators over one positive integer denominator,
and a pivot combines rows by integer products and one gcd (Edmonds 1967;
Bareiss 1968).  It takes the pivots a Fraction tableau would take, so
it returns the same point; Fractions appear only in that point and the
objective value.  Constraints keep int coefficients as ints, so a caller
that scales its columns to integers (the forward LP gives each variable
its column's denominator) pays no conversion.

Facet enumeration is brute force over vertex subsets inside the affine
hull, guarded by a ceiling on the affine dimension of the polytope (not
of the space it lies in); instances here are small by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from .linalg import RatMatrix, Vec, vec_add, vec_dot, vec_is_zero, vec_scale, vec_sub, zero_vec

FACET_DIMENSION_CEILING = 5


class DimensionCeilingError(Exception):
    """Facet enumeration requested above the supported affine dimension."""


# ---------------------------------------------------------------------------
# linear programming
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class LinearConstraint:
    """One row of an LP.  Coefficients and right-hand side are ints or
    Fractions; anything else is converted to a Fraction here, the one
    conversion, since lp_solve reads only `.numerator` and `.denominator`."""

    coeffs: tuple[int | Fraction, ...]
    rel: str  # "<=", ">=", "=="
    rhs: int | Fraction

    def __post_init__(self):
        if self.rel not in ("<=", ">=", "=="):
            raise ValueError(f"bad relation {self.rel!r}")
        if not {*map(type, self.coeffs)} <= _EXACT:
            object.__setattr__(self, "coeffs", tuple(
                c if type(c) in _EXACT else Fraction(c) for c in self.coeffs))
        if type(self.rhs) not in _EXACT:
            object.__setattr__(self, "rhs", Fraction(self.rhs))


_EXACT = {int, Fraction}


def constraint(coeffs, rel, rhs) -> LinearConstraint:
    return LinearConstraint(tuple(coeffs), rel, rhs)


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: Fraction | None = None
    point: tuple[Fraction, ...] | None = None

    @property
    def is_feasible(self) -> bool:
        return self.status == "optimal"


class _Tableau:
    """Simplex tableau in fraction-free form.

    Row i stands for rows[i] / dens[i]: Python ints, one per column and
    then the right-hand side, over a positive int, with their common gcd
    divided out.  A basic column holds dens[i] in its own row and 0 in the
    others.  While `maximize` runs, red / red_den is the reduced-cost row
    in the same form; its last entry is minus the objective value."""

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int]):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.red: list[int] | None = None
        self.red_den = 1

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c).  The pivot row keeps its numerators, negated when
        the entry is negative, over the entry's absolute value, all divided
        by their gcd; rows with a zero in column c are not touched."""
        prow = self.rows[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
            self.rows[r] = prow
        s = prow[c]
        self.dens[r] = s
        rows, dens = self.rows, self.dens
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i], dens[i] = _eliminate(row, dens[i], f, prow, s)
        if self.red is not None and self.red[c]:
            self.red, self.red_den = _eliminate(self.red, self.red_den, self.red[c], prow, s)
        self.basis[r] = c

    def reduced_costs(self, cost: list[int], cost_den: int) -> tuple[list[int], int]:
        """cost / cost_den minus the basic rows weighted by their costs."""
        red, den = cost + [0], cost_den
        for r, b in enumerate(self.basis):
            f = red[b]
            if f:
                red, den = _eliminate(red, den, f, self.rows[r], self.dens[r])
        return red, den

    def maximize(self, cost: list[int], cost_den: int = 1) -> str:
        """Bland's rule simplex on the current basis; returns 'optimal' or
        'unbounded'.  The reduced costs are computed once and then carried
        through the pivots."""
        self.red, self.red_den = self.reduced_costs(cost, cost_den)
        ncols = len(cost)
        while True:
            # first positive reduced cost; stopping on the last slot, the
            # objective's, means there is none
            for enter, x in enumerate(self.red):
                if x > 0:
                    break
            if enter == ncols:
                return "optimal"
            # least ratio rhs / entry (the row denominators cancel), ties to
            # the least basic column
            leave = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    b = row[-1]
                    if leave is None:
                        leave, best_a, best_b = i, a, b
                        continue
                    lhs, rhs = b * best_a, best_b * a
                    if lhs < rhs or (lhs == rhs and self.basis[i] < self.basis[leave]):
                        leave, best_a, best_b = i, a, b
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter)


def _eliminate(row: list[int], den: int, f: int, prow: list[int], s: int) -> tuple[list[int], int]:
    """row / den minus (f / den) times prow / s, where prow / s is 1 in the
    pivot column: s·row − f·prow over den·s."""
    if s == 1:
        return _lowest_terms([x - f * y for x, y in zip(row, prow)], den)
    return _lowest_terms([s * x - f * y for x, y in zip(row, prow)], den * s)


def _lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g != 1:
        return [x // g for x in row], den // g
    return row, den


def lp_solve(objective, constraints, num_vars: int, nonneg=None) -> LpResult:
    """Exact simplex over free or sign-restricted variables.

    objective: coefficient sequence to maximize, or None for pure
    feasibility.
    nonneg: per-variable bools (default all False, i.e. free variables).
    Every returned point satisfies the constraints exactly; optimality is
    certified by nonpositive reduced costs at termination.  The tableau
    holds integers only; Fractions are built for the returned point and
    value.
    """
    if nonneg is None:
        nonneg = [False] * num_vars
    obj = [Fraction(c) for c in objective] if objective is not None else None

    # column layout: each free variable splits into (+, -); nonneg keeps one
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for j in range(num_vars):
        if nonneg[j]:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    nstruct = ncols

    # each constraint as integer numerators over the lcm of its denominators
    rows: list[list[int]] = []
    dens: list[int] = []
    rels: list[str] = []
    for con in constraints:
        coeffs = con.coeffs[:num_vars]
        den = lcm(con.rhs.denominator, *(c.denominator for c in coeffs))
        row = [0] * nstruct
        for (p, m), c in zip(col_of, coeffs):
            if c:
                k = c.numerator * (den // c.denominator)
                row[p] = k
                if m is not None:
                    row[m] = -k
        b = con.rhs.numerator * (den // con.rhs.denominator)
        rel = con.rel
        if b < 0:
            row = [-x for x in row]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        row.append(b)
        rows.append(row)
        dens.append(den)
        rels.append(rel)

    # slacks / surplus, then artificials, as the last columns
    nslack = sum(rel != "==" for rel in rels)
    first_art = nstruct + nslack
    total = first_art + sum(rel != "<=" for rel in rels)
    basis = []
    slack = nstruct
    art = first_art
    for row, den, rel in zip(rows, dens, rels):
        ext = [0] * (total - nstruct)
        if rel != "==":
            ext[slack - nstruct] = den if rel == "<=" else -den
            slack += 1
        if rel == "<=":
            basis.append(slack - 1)
        else:
            ext[art - nstruct] = den
            basis.append(art)
            art += 1
        row[nstruct:nstruct] = ext

    tab = _Tableau(rows, dens, basis)
    if total > first_art:
        phase1 = [0] * first_art + [-1] * (total - first_art)
        status = tab.maximize(phase1)
        assert status == "optimal", "phase 1 is bounded"
        if tab.red[-1] != 0:  # minus the phase-1 optimum: an artificial stays positive
            return LpResult("infeasible")
        tab.red = None
        # drive remaining artificials out of the basis; the pivot entry may
        # be negative, and pivot normalizes its sign
        for r in range(len(tab.rows)):
            if tab.basis[r] >= first_art:
                row = tab.rows[r]
                for j in range(first_art):
                    if row[j]:
                        tab.pivot(r, j)
                        break
        # drop rows still basic in an artificial (redundant constraints) and
        # the artificial columns, which phase 2 keeps at zero
        kept = [(_lowest_terms(row[:first_art] + row[-1:], den), b)
                for row, den, b in zip(tab.rows, tab.dens, tab.basis) if b < first_art]
        tab.rows = [row for (row, _), _ in kept]
        tab.dens = [den for (_, den), _ in kept]
        tab.basis = [b for _, b in kept]
        total = first_art

    if obj is not None:
        cost_den = lcm(*(o.denominator for o in obj))
        cost = [0] * total
        for (p, m), o in zip(col_of, obj):
            if o:
                k = o.numerator * (cost_den // o.denominator)
                cost[p] = k
                if m is not None:
                    cost[m] = -k
        if tab.maximize(cost, cost_den) == "unbounded":
            return LpResult("unbounded")

    values = [Fraction(0)] * total
    for row, den, b in zip(tab.rows, tab.dens, tab.basis):
        values[b] = Fraction(row[-1], den)
    point = []
    for p, m in col_of:
        point.append(values[p] - (values[m] if m is not None else Fraction(0)))
    value = None
    if obj is not None:
        value = sum(o * x for o, x in zip(obj, point))
    return LpResult("optimal", value, tuple(point))


# ---------------------------------------------------------------------------
# generator-form polyhedra
# ---------------------------------------------------------------------------


def _primitive_direction(v: Vec) -> Vec:
    """Scale to a primitive integer vector, keeping orientation."""
    den = 1
    for x in v:
        den = den * x.denominator // gcd(den, x.denominator)
    ints = [int(x * den) for x in v]
    g = 0
    for x in ints:
        g = gcd(g, abs(x))
    if g == 0:
        return tuple(Fraction(0) for _ in v)
    return tuple(Fraction(x, g) for x in ints)


@dataclass(frozen=True)
class GenPolyhedron:
    """conv(vertices) + cone(rays) + span(lines); empty vertex list means
    the empty set."""

    dim: int
    vertices: tuple[Vec, ...] = ()
    rays: tuple[Vec, ...] = ()
    lines: tuple[Vec, ...] = ()

    def __post_init__(self):
        for group in (self.vertices, self.rays, self.lines):
            for v in group:
                if len(v) != self.dim:
                    raise ValueError("generator dimension mismatch")

    @staticmethod
    def polytope(vertices, dim=None) -> "GenPolyhedron":
        vertices = [tuple(Fraction(x) for x in v) for v in vertices]
        if dim is None:
            if not vertices:
                raise ValueError("dimension required for empty polytope")
            dim = len(vertices[0])
        return canonical(GenPolyhedron(dim, tuple(vertices)))

    @staticmethod
    def point(v) -> "GenPolyhedron":
        v = tuple(Fraction(x) for x in v)
        return GenPolyhedron(len(v), (v,))

    @staticmethod
    def empty(dim: int) -> "GenPolyhedron":
        return GenPolyhedron(dim, ())

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    @property
    def is_polytope(self) -> bool:
        return bool(self.vertices) and not self.rays and not self.lines


@dataclass(frozen=True)
class ControlSet:
    """Finite union of generator-form polyhedra in one ambient dimension."""

    components: tuple[GenPolyhedron, ...]

    def __post_init__(self):
        if not self.components:
            raise ValueError("control set needs at least one component")
        d = self.components[0].dim
        if any(c.dim != d for c in self.components):
            raise ValueError("components must share the ambient dimension")

    @property
    def dim(self) -> int:
        return self.components[0].dim

    @property
    def is_single_polytope(self) -> bool:
        return len(self.components) == 1 and self.components[0].is_polytope

    @staticmethod
    def single(p: GenPolyhedron) -> "ControlSet":
        return ControlSet((p,))


def contains_point(p: GenPolyhedron, x: Vec) -> bool:
    return membership_coefficients(p, x) is not None


def membership_coefficients(p: GenPolyhedron, x: Vec):
    """Convex/conic/free coefficients expressing x in the generators, or
    None when x is outside."""
    if p.is_empty:
        return None
    nv, nr, nl = len(p.vertices), len(p.rays), len(p.lines)
    n = nv + nr + nl
    cons = []
    for i in range(p.dim):
        coeffs = [g[i] for g in p.vertices] + [g[i] for g in p.rays] + [g[i] for g in p.lines]
        cons.append(constraint(coeffs, "==", x[i]))
    cons.append(constraint([1] * nv + [0] * (nr + nl), "==", 1))
    nonneg = [True] * (nv + nr) + [False] * nl
    res = lp_solve(None, cons, n, nonneg=nonneg)
    if not res.is_feasible:
        return None
    pt = res.point
    return pt[:nv], pt[nv:nv + nr], pt[nv + nr:]


def _hull_2d(points: list[Vec]) -> list[Vec]:
    """Exact monotone-chain convex hull (strict turns only)."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[Vec] = []
    for pt in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], pt) <= 0:
            lower.pop()
        lower.append(pt)
    upper: list[Vec] = []
    for pt in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], pt) <= 0:
            upper.pop()
        upper.append(pt)
    return lower[:-1] + upper[:-1]


def _extreme_vertices_lp(vertices: list[Vec], rays, lines) -> list[Vec]:
    kept = []
    for i, v in enumerate(vertices):
        others = vertices[:i] + vertices[i + 1:]
        if not others:
            kept.append(v)
            continue
        q = GenPolyhedron(len(v), tuple(others), tuple(rays), tuple(lines))
        if not contains_point(q, v):
            kept.append(v)
    return kept


def canonical(p: GenPolyhedron) -> GenPolyhedron:
    """Deduplicate generators and drop redundant ones."""
    vertices = list(dict.fromkeys(p.vertices))
    lines = []
    if p.lines:
        m = RatMatrix.from_rows([list(l) for l in p.lines])
        red, pivots = m.rref()
        lines = [_primitive_direction(tuple(red[i])) for i in range(len(pivots))]
    rays = []
    seen = set()
    for r in p.rays:
        d = _primitive_direction(r)
        if vec_is_zero(d) or d in seen:
            continue
        seen.add(d)
        rays.append(d)
    if lines:
        # rays inside the lineality space are redundant
        lm = RatMatrix.from_rows([list(l) for l in lines]).transpose()
        rays = [r for r in rays if lm.solve(r) is None]
    if len(rays) > 1:
        kept_rays = []
        for i, r in enumerate(rays):
            others = rays[:i] + rays[i + 1:]
            cons = []
            n = len(others) + len(lines)
            for k in range(p.dim):
                coeffs = [o[k] for o in others] + [l[k] for l in lines]
                cons.append(constraint(coeffs, "==", r[k]))
            nonneg = [True] * len(others) + [False] * len(lines)
            res = lp_solve(None, cons, n, nonneg=nonneg)
            if not res.is_feasible:
                kept_rays.append(r)
        rays = kept_rays
    if len(vertices) > 1:
        if p.dim == 2 and not rays and not lines:
            vertices = _hull_2d(vertices)
        else:
            vertices = _extreme_vertices_lp(vertices, rays, lines)
    return GenPolyhedron(p.dim, tuple(vertices), tuple(rays), tuple(lines))


def minkowski_sum(p: GenPolyhedron, q: GenPolyhedron) -> GenPolyhedron:
    if p.dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    if p.is_empty or q.is_empty:
        return GenPolyhedron.empty(p.dim)
    vertices = tuple(vec_add(a, b) for a in p.vertices for b in q.vertices)
    return canonical(GenPolyhedron(p.dim, vertices, p.rays + q.rays, p.lines + q.lines))


def negate(p: GenPolyhedron) -> GenPolyhedron:
    return GenPolyhedron(
        p.dim,
        tuple(vec_scale(v, Fraction(-1)) for v in p.vertices),
        tuple(vec_scale(r, Fraction(-1)) for r in p.rays),
        p.lines,
    )


def linear_image(a: RatMatrix, p: GenPolyhedron) -> GenPolyhedron:
    if a.cols != p.dim:
        raise ValueError("matrix columns must match polyhedron dimension")
    if p.is_empty:
        return GenPolyhedron.empty(a.rows)
    return canonical(GenPolyhedron(
        a.rows,
        tuple(a.matvec(v) for v in p.vertices),
        tuple(a.matvec(r) for r in p.rays),
        tuple(a.matvec(l) for l in p.lines),
    ))


# ---------------------------------------------------------------------------
# facets and half-space form
# ---------------------------------------------------------------------------


def _affine_basis(vertices: tuple[Vec, ...]) -> tuple[Vec, list[Vec]]:
    """(base point, independent difference directions)."""
    v0 = vertices[0]
    diffs = [vec_sub(v, v0) for v in vertices[1:]]
    if not diffs:
        return v0, []
    m = RatMatrix.from_rows([list(d) for d in diffs])
    red, pivots = m.rref()
    return v0, [tuple(red[i]) for i in range(len(pivots))]


def check_facet_dimension(dim: int, ceiling: int = FACET_DIMENSION_CEILING) -> None:
    """Raise DimensionCeilingError if facet enumeration refuses a polytope
    of this affine dimension."""
    if dim > ceiling:
        raise DimensionCeilingError(
            f"dimension {dim} exceeds the facet-enumeration ceiling {ceiling}")


def facet_normals(p: GenPolyhedron, ceiling: int = FACET_DIMENSION_CEILING) -> list[Vec]:
    """Outward normals of the facets of conv(vertices), primitive rational,
    deduplicated up to positive scaling.

    Facets are taken relative to the affine hull; a polytope of affine
    dimension zero has none.  Normals of lower-dimensional polytopes are
    lifted back to the ambient space orthogonally to the hull.
    """
    if not p.is_polytope:
        raise ValueError("facet enumeration requires a polytope")
    v0, basis = _affine_basis(p.vertices)
    adim = len(basis)
    # the subsets below have adim points: the cost grows with the affine
    # dimension, not with the ambient one
    check_facet_dimension(adim, ceiling)
    if adim == 0:
        return []
    bmat = RatMatrix.from_rows([list(b) for b in basis])  # adim x dim
    gram_inv = (bmat @ bmat.transpose()).inverse()
    assert gram_inv is not None

    def coords(v: Vec) -> Vec:
        return gram_inv.matvec(bmat.matvec(vec_sub(v, v0)))

    pts = [coords(v) for v in p.vertices]
    normals: list[Vec] = []
    seen: set[Vec] = set()
    for subset in itertools.combinations(range(len(pts)), adim):
        chosen = [pts[i] for i in subset]
        if adim == 1:
            n_local: Vec | None = (Fraction(1),)
        else:
            diffs = [vec_sub(c, chosen[0]) for c in chosen[1:]]
            m = RatMatrix.from_rows([list(d) for d in diffs])
            kb = m.kernel_basis()
            n_local = kb[0] if len(kb) == 1 else None
        if n_local is None:
            continue
        c_local = vec_dot(n_local, chosen[0])
        sides = [vec_dot(n_local, q) - c_local for q in pts]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            n_local = vec_scale(n_local, Fraction(-1))
            c_local = -c_local
            sides = [-s for s in sides]
        else:
            continue
        support = [i for i, s in enumerate(sides) if s == 0]
        if len(support) < adim:
            continue
        sdiffs = [vec_sub(pts[i], pts[support[0]]) for i in support[1:]]
        if sdiffs and RatMatrix.from_rows([list(d) for d in sdiffs]).rank() != adim - 1:
            continue
        if adim == 1 and len(support) != 1:
            continue
        # lift: N = B^T gram_inv^T n_local is orthogonal to nothing extra
        lifted = bmat.transpose().matvec(gram_inv.transpose().matvec(n_local))
        lifted = _primitive_direction(lifted)
        if lifted not in seen and not vec_is_zero(lifted):
            seen.add(lifted)
            normals.append(lifted)
    return normals


def h_representation(p: GenPolyhedron, ceiling: int = FACET_DIMENSION_CEILING):
    """(inequalities, equalities) with rows (normal, offset): n.x <= c and
    n.x == c; together they carve out the polytope exactly."""
    if not p.is_polytope:
        raise ValueError("half-space form requires a polytope")
    v0, basis = _affine_basis(p.vertices)
    eqs = []
    bm = RatMatrix.from_rows([list(b) for b in basis]) if basis else None
    if bm is None:
        complement = RatMatrix.identity(p.dim).to_rows()
        comp_rows = [tuple(r) for r in complement]
    else:
        comp_rows = bm.kernel_basis()
    for n in comp_rows:
        eqs.append((tuple(n), vec_dot(n, v0)))
    ineqs = []
    for n in facet_normals(p, ceiling):
        c = max(vec_dot(n, v) for v in p.vertices)
        ineqs.append((n, c))
    return ineqs, eqs


def vertices_from_h_rep(ineqs, eqs, dim: int) -> list[Vec]:
    """Brute-force vertex enumeration of a bounded H-polytope."""
    eq_rows = [list(n) for n, _ in eqs]
    eq_rhs = [c for _, c in eqs]
    base_rank = RatMatrix.from_rows(eq_rows).rank() if eq_rows else 0
    need = dim - base_rank
    out: list[Vec] = []
    seen = set()
    idx = range(len(ineqs))
    for subset in itertools.combinations(idx, need):
        rows = eq_rows + [list(ineqs[i][0]) for i in subset]
        rhs = eq_rhs + [ineqs[i][1] for i in subset]
        m = RatMatrix.from_rows(rows) if rows else RatMatrix.zeros(0, dim)
        if rows and m.rank() != dim:
            continue
        if not rows and dim > 0:
            continue
        sol = m.solve(tuple(rhs)) if rows else zero_vec(dim)
        if sol is None:
            continue
        ok = all(vec_dot(n, sol) <= c for n, c in ineqs) and \
            all(vec_dot(n, sol) == c for n, c in eqs)
        if ok and sol not in seen:
            seen.add(sol)
            out.append(sol)
    return out


def relative_interior_contains_origin(p: GenPolyhedron) -> bool:
    """True iff 0 is a strictly positive convex combination of the vertices."""
    if not p.is_polytope:
        raise ValueError("relative interior test requires a polytope")
    m = len(p.vertices)
    # variables: lambda_1..lambda_m, t; maximize t subject to
    # sum lambda v = 0, sum lambda = 1, lambda_i >= t
    cons = []
    for i in range(p.dim):
        cons.append(constraint([v[i] for v in p.vertices] + [0], "==", 0))
    cons.append(constraint([1] * m + [0], "==", 1))
    for i in range(m):
        coeffs = [0] * (m + 1)
        coeffs[i] = 1
        coeffs[m] = -1
        cons.append(constraint(coeffs, ">=", 0))
    obj = [0] * m + [1]
    res = lp_solve(obj, cons, m + 1)
    return res.is_feasible and res.value is not None and res.value > 0


def intersect_with_subspace(p: GenPolyhedron, basis: list[Vec],
                            ceiling: int = FACET_DIMENSION_CEILING) -> GenPolyhedron:
    """Intersect a polytope with span(basis), returned in basis coordinates."""
    if not p.is_polytope and not p.is_empty:
        raise ValueError("subspace intersection requires a polytope")
    k = len(basis)
    if p.is_empty:
        return GenPolyhedron.empty(k)
    ineqs, eqs = h_representation(p, ceiling)
    sub_ineqs = []
    for n, c in ineqs:
        coeffs = tuple(vec_dot(n, b) for b in basis)
        sub_ineqs.append((coeffs, c))
    sub_eqs = []
    for n, c in eqs:
        coeffs = tuple(vec_dot(n, b) for b in basis)
        sub_eqs.append((coeffs, c))
    if k == 0:
        ok = all(c >= 0 for _, c in sub_ineqs) and all(c == 0 for _, c in sub_eqs)
        return GenPolyhedron(0, ((),)) if ok else GenPolyhedron.empty(0)
    verts = vertices_from_h_rep(sub_ineqs, sub_eqs, k)
    if not verts:
        return GenPolyhedron.empty(k)
    return canonical(GenPolyhedron(k, tuple(verts)))
