"""Exact polyhedral computation over the rationals.

Polyhedra are kept in generator form (vertices + rays + lines); the
half-space form is derived on demand for subspace intersections.  One
exact primitive, a two-phase simplex with Bland's anti-cycling rule,
backs every predicate: point membership, vertex redundancy, relative
interior tests, and optimization.  Two need less: membership in a
one-point polytope is an equality test, and the relative-interior test
is a feasibility LP with one row per coordinate, or none at all when the
vertices sum to 0.  The tableau is
fraction-free: each row is a list of integer numerators over one
positive integer denominator, and a pivot combines rows by integer
products along the pivot row's nonzero columns (Edmonds 1967; Bareiss
1968).  A row is divided by its gcd only once its denominator has grown
past a word-sized bound, since every decision reads signs and
cross-multiplied ratios that a common factor does not move.  It takes
the pivots a Fraction tableau would take, so it returns the same point;
Fractions appear only in that point and the objective value.

One routine fixes columns at zero: `_Tableau.restricted` marks the
banned columns of a feasible tableau dead, by a phase 1 from its
current basis that maximizes minus their sum, unless one row of the
tableau already proves the restriction infeasible.  Every column keeps
its index, and a tableau in which no banned column is basic shares its
parent's rows.  A column leaves for good only through
`_Tableau.compacted`.  Phase 1 of `lp_solve` is `restricted` with the
artificial columns banned and then compacted, and `feasible_tableau`
runs it on rows that are already integers.  `PhaseOneTableau` runs the
same phase 1 on equality rows but keeps the artificial columns, which
then hold the inverse of the basis: `extend` adds columns, a row and a
new right-hand side to the LP and decides it again from the basis it
has.  The forward search builds every LP that way, from an LP with no
variables, and restricts a parent's tableau to reach each child's.

Facet enumeration is brute force over vertex subsets inside the affine
hull, guarded by a ceiling on the affine dimension of the polytope (not
of the space it lies in); instances here are small by construction.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactnum import as_fraction
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
    then the right-hand side, over a positive int, reduced by their common
    gcd once the denominator grows (`_lowest_terms`).  A basic column holds
    dens[i] in its own row and 0 in the others.  ncols counts the columns.
    The columns in dead are held at 0: none of them enters, and a row left
    basic in one is 0 on every other column, a redundant row.  While
    `maximize` runs, red / red_den is the reduced-cost row in the same
    form; its last entry is minus the objective value."""

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int], ncols: int,
                 dead: frozenset[int] = frozenset()):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.ncols = ncols
        self.dead = dead
        self.red: list[int] | None = None
        self.red_den = 1

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c).  The pivot row keeps its numerators, negated when
        the entry is negative, over the entry's absolute value, all divided
        by their gcd; rows with a zero in column c are not touched, and the
        others change only in the pivot row's nonzero columns."""
        prow = self.rows[r]
        g = gcd(*prow)
        if prow[c] < 0:
            g = -g
        if g != 1:
            prow = [x // g for x in prow]
            self.rows[r] = prow
        s = prow[c]
        self.dens[r] = s
        nonzero = [j for j, x in enumerate(prow) if x]
        rows, dens = self.rows, self.dens
        for i, row in enumerate(rows):
            f = row[c]
            if f and i != r:
                rows[i], dens[i] = _eliminate(row, dens[i], f, prow, s, nonzero)
        if self.red is not None and self.red[c]:
            self.red, self.red_den = _eliminate(self.red, self.red_den, self.red[c], prow, s, nonzero)
        self.basis[r] = c

    def reduced_costs(self, cost: list[int], cost_den: int) -> tuple[list[int], int]:
        """cost / cost_den minus the basic rows weighted by their costs."""
        red, den = cost + [0], cost_den
        for r, b in enumerate(self.basis):
            f = red[b]
            if f:
                prow = self.rows[r]
                red, den = _eliminate(red, den, f, prow, self.dens[r], [j for j, x in enumerate(prow) if x])
        return red, den

    def maximize(self, cost: list[int], cost_den: int = 1) -> str:
        """Bland's rule simplex on the current basis, over the columns not
        dead; returns 'optimal' or 'unbounded'.  The reduced costs are
        computed once and then carried through the pivots."""
        self.red, self.red_den = self.reduced_costs(cost, cost_den)
        ncols, dead = len(cost), self.dead
        while True:
            # first positive reduced cost of a live column; stopping on the
            # last slot, the objective's, means there is none
            for enter, x in enumerate(self.red):
                if x > 0 and enter not in dead:
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

    def phase_one(self, banned) -> bool:
        """Maximize minus the banned columns' sum from the current basis,
        which is feasible, in place: True when the optimum is 0, that is
        when some feasible point has them all at 0."""
        cost = [0] * self.ncols
        for j in banned:
            cost[j] = -1
        status = self.maximize(cost)
        assert status == "optimal", "the banned columns' sum is bounded below by 0"
        feasible = self.red[-1] == 0  # minus the optimum
        self.red = None
        return feasible

    def restricted(self, banned) -> _Tableau | None:
        """This feasible tableau's LP with the live banned columns held at
        0: a feasible tableau in which they are dead, or None when no
        feasible point has them all at 0 (self when nothing is banned).
        self, its row list and its rows are unchanged, and every column
        keeps its index.

        A child in which no banned column is basic needs no pivot, so it
        shares self's row list, dens and basis: such a child must not be
        pivoted or maximized in place, since that would change self too;
        restrict it again, which copies before its first pivot, or copy
        its lists first.  A row that proves the LP infeasible
        returns None before any copy: its basic column is banned, its
        right-hand side positive, and no live column has a positive entry,
        so with the dead columns at 0 its left side is at most 0 for every
        nonnegative point.  Otherwise the child copies the row list (not
        the rows, which a pivot replaces and never changes) and runs
        `phase_one` on the banned columns from the current basis, with the
        columns already dead kept out.  A banned column still basic, at 0,
        is driven out on its row's first nonzero entry in a live column (the
        entry may be negative; pivot normalizes its sign); a row without
        one stays, basic in a dead column.  Bland's rule sees the live
        columns in the order and with the basic indices of the LP that
        drops the dead ones, so it takes that LP's pivots."""
        ban = set(banned)
        if not ban:
            return self
        dead = self.dead | ban
        if ban.isdisjoint(self.basis):
            return _Tableau(self.rows, self.dens, self.basis, self.ncols, dead)
        for row, b in zip(self.rows, self.basis):
            if b in ban and row[-1] > 0 and all(row[j] <= 0 or j in dead for j in range(self.ncols)):
                return None
        tab = _Tableau(list(self.rows), list(self.dens), list(self.basis), self.ncols, self.dead)
        if not tab.phase_one(ban):
            return None
        tab.dead = dead
        for r in range(len(tab.rows)):
            if tab.basis[r] in ban:
                row = tab.rows[r]
                for j in range(self.ncols):
                    if row[j] and j not in dead:
                        tab.pivot(r, j)
                        break
        return tab

    def compacted(self) -> _Tableau:
        """The same tableau without its dead columns and the rows basic in
        them, the other columns kept in their order: how a column leaves for
        good.  self when nothing is dead."""
        if not self.dead:
            return self
        kept = [j for j in range(self.ncols) if j not in self.dead]
        new_index = {j: i for i, j in enumerate(kept)}
        kept.append(self.ncols)  # the right-hand side
        rows, dens, basis = [], [], []
        for row, den, b in zip(self.rows, self.dens, self.basis):
            if b in new_index:
                row, den = _lowest_terms([row[j] for j in kept], den)
                rows.append(row)
                dens.append(den)
                basis.append(new_index[b])
        return _Tableau(rows, dens, basis, len(kept) - 1)

    def point(self, nonneg) -> tuple[Fraction, ...]:
        """The basic solution in the variables of `feasible_tableau`'s
        layout, each free variable its positive part minus its negative
        part."""
        values = {b: Fraction(row[-1], den) for row, den, b in zip(self.rows, self.dens, self.basis)}
        zero = Fraction(0)
        point = []
        for p, m in tableau_columns(nonneg)[0]:
            x = values.get(p, zero)
            if m is not None and m in values:
                x = x - values[m]
            point.append(x)
        return tuple(point)


def _eliminate(row: list[int], den: int, f: int, prow: list[int], s: int,
               nonzero: list[int]) -> tuple[list[int], int]:
    """row / den minus (f / den) times prow / s, where prow / s is 1 in the
    pivot column and nonzero lists prow's nonzero columns: s·row − f·prow
    over den·s, subtracting only where prow is not 0."""
    if s == 1:
        new = row.copy()
    else:
        new = [s * x for x in row]
        den *= s
    for j in nonzero:
        new[j] -= f * prow[j]
    return _lowest_terms(new, den)


# A row is divided by its gcd only once its denominator reaches 2^40.  Every
# decision of the simplex reads a sign, a cross-multiplied ratio or a zero,
# which a common factor of a row leaves alone, so no pivot depends on it.
# The factor divides the denominator, so below the bound an entry is at most
# 40 bits (two 30-bit int digits) longer than in lowest terms, and the gcd
# over the row that each elimination would take is saved: 3-9 % of the
# decide time of the forward_union bench decisions (in-process, best of 5,
# 2-CPU x86-64 host).
_REDUCE_AT = 1 << 40


def _lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    """row / den, divided by the gcd of den and the row when den has reached
    _REDUCE_AT, else unchanged."""
    if den < _REDUCE_AT:
        return row, den
    g = gcd(den, *row)
    if g != 1:
        return [x // g for x in row], den // g
    return row, den


def tableau_columns(nonneg) -> tuple[list[tuple[int, int | None]], int]:
    """The tableau columns of each variable, as `feasible_tableau` lays
    them out, and their number: a sign-restricted variable takes one, a
    free one two adjacent ones, (+, -)."""
    col_of: list[tuple[int, int | None]] = []
    ncols = 0
    for keep_sign in nonneg:
        if keep_sign:
            col_of.append((ncols, None))
            ncols += 1
        else:
            col_of.append((ncols, ncols + 1))
            ncols += 2
    return col_of, ncols


def feasible_tableau(rows: list[list[int]], dens: list[int], rels: list[str], nonneg) -> _Tableau | None:
    """Phase 1 of the simplex on integer rows: a feasible tableau of the LP,
    or None when it is infeasible.

    Row i stands for rows[i] / dens[i], in lowest terms: one int
    coefficient per variable and then the right-hand side, over a
    positive int; rels[i] is its relation, "<=", ">=" or "==".  The
    tableau's columns are the variables' (`tableau_columns`), then one slack or
    surplus per inequality, then one artificial per row that is not a
    "<=", which start basic.  Phase 1 restricts that tableau to the other
    columns, so the artificials, being last, change no choice of Bland's
    rule, and compacts it without them.  `lp_solve` reads its constraints
    into such rows."""
    col_of, nstruct = tableau_columns(nonneg)
    split = not all(nonneg)
    body: list[list[int]] = []
    flipped: list[str] = []
    for row, rel in zip(rows, rels):
        b = row[-1]
        if split:
            ext = [0] * nstruct
            for (p, m), c in zip(col_of, row):
                if c:
                    ext[p] = c
                    if m is not None:
                        ext[m] = -c
        else:
            ext = row[:-1]
        if b < 0:
            ext = [-x for x in ext]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        ext.append(b)
        body.append(ext)
        flipped.append(rel)

    # slacks / surplus, then artificials, as the last columns
    nslack = sum(rel != "==" for rel in flipped)
    first_art = nstruct + nslack
    total = first_art + sum(rel != "<=" for rel in flipped)
    basis = []
    slack = nstruct
    art = first_art
    for row, den, rel in zip(body, dens, flipped):
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
    tab = _Tableau(body, list(dens), basis, total).restricted(range(first_art, total))
    return None if tab is None else tab.compacted()


class PhaseOneTableau:
    """Phase 1 of an equality LP that keeps its artificial columns, so that
    the LP can grow and be decided again from the basis it reached.

    It starts as the LP with no variables and d rows 0 = 0, its tableau
    the d artificials basic on the identity.  The artificials stay one per
    row in the order the rows came, after the variables' columns (from
    `first_art` on); a row added with a negative right-hand side is
    negated (signs[i] = -1), so for the current basis B they hold B^-1 D,
    D the diagonal of the signs: the tableau column of any new column c
    is that block times D c, which is what `extend` uses.  `feasible`
    tells whether the LP has a point with every artificial at 0, and
    `without_artificials` gives the feasible tableau that
    `feasible_tableau` would."""

    def __init__(self, d: int):
        self.signs = [1] * d
        identity = [[int(i == j) for j in range(d + 1)] for i in range(d)]  # right-hand sides 0
        self.tab = _Tableau(identity, [1] * d, list(range(d)), d)
        self.first_art = 0
        self.feasible = True

    def without_artificials(self) -> _Tableau | None:
        """The LP's feasible tableau over its variables' columns, or None."""
        if not self.feasible:
            return None
        return self.tab.restricted(range(self.first_art, self.tab.ncols)).compacted()

    def extend(self, columns, nonneg, row: list[int], rhs: list[int], rhs_den: int) -> None:
        """Put new variables before the others and one new equality row after
        the others, set every row's right-hand side, and run phase 1 again
        from the current basis.

        columns[k] is new variable k's integer coefficients in the rows so
        far (zero past its end), row[k] its coefficient in the new row and
        nonneg[k] its sign restriction; the other variables have 0 in the
        new row.  rhs / rhs_den is the new right-hand side of every row, the
        new row's last.  The old basis plus the new row's artificial is a
        basis of the grown LP, since no old basic column meets the new row.
        Where a basic value comes out negative, one more artificial, with
        -1 in each such row, enters on the most negative one, which makes
        every basic value nonnegative (Chvatal, Linear Programming, 1983,
        ch. 3); phase 1 then minimizes the sum of every artificial, and the
        extra one leaves the tableau."""
        tab = self.tab
        col_of, width = tableau_columns(nonneg)
        first, signs = self.first_art, self.signs
        negated = -1 in signs
        rows, dens = [], []
        for old, den in zip(tab.rows, tab.dens):
            # this row of B^-1, over den: the artificials' entries times D
            inv = old[first:first + len(signs)]
            if negated:
                inv = [a * s for a, s in zip(inv, signs)]
            ext = [0] * width
            for (p, q), col in zip(col_of, columns):
                x = sum(map(mul, inv, col))
                ext[p] = x
                if q is not None:
                    ext[q] = -x
            new = [*ext, *old]
            if rhs_den != 1:
                new = [x * rhs_den for x in new]
                den *= rhs_den
            new[-1] = 0  # the new artificial, where the old right-hand side was
            new.append(sum(map(mul, inv, rhs)))
            new, den = _lowest_terms(new, den)
            rows.append(new)
            dens.append(den)
        sign = -1 if rhs[-1] < 0 else 1
        ext = [0] * width
        for (p, q), c in zip(col_of, row):
            ext[p] = sign * c * rhs_den
            if q is not None:
                ext[q] = -sign * c * rhs_den
        new, den = _lowest_terms([*ext, *[0] * tab.ncols, rhs_den, sign * rhs[-1]], rhs_den)
        rows.append(new)
        dens.append(den)
        total = width + tab.ncols + 1
        basis = [b + width for b in tab.basis] + [total - 1]
        self.signs.append(sign)
        self.first_art += width
        self.tab = tab = _Tableau(rows, dens, basis, total)

        arts = range(self.first_art, total)
        below = [i for i, r in enumerate(rows) if r[-1] < 0]
        if not below:
            self.feasible = tab.phase_one(arts)
            return
        extra = total
        for i, r in enumerate(rows):
            r.insert(extra, -dens[i] if r[-1] < 0 else 0)
        tab.ncols += 1
        tab.pivot(min(below, key=lambda i: Fraction(rows[i][-1], dens[i])), extra)
        self.feasible = tab.phase_one([*arts, extra])
        if extra in tab.basis:
            r = tab.basis.index(extra)
            tab.pivot(r, next(j for j, x in enumerate(tab.rows[r][:-1]) if x and j != extra))
        for i, r in enumerate(tab.rows):
            del r[extra]
            tab.rows[i], tab.dens[i] = _lowest_terms(r, tab.dens[i])
        tab.ncols -= 1


def lp_solve(objective, constraints, num_vars: int, nonneg) -> LpResult:
    """Exact simplex over free or sign-restricted variables.

    objective: coefficient sequence to maximize, or None for pure
    feasibility.
    nonneg: per-variable bools, True for a variable restricted to >= 0 and
    False for a free one.
    Every returned point satisfies the constraints exactly; optimality is
    certified by nonpositive reduced costs at termination.  Each
    constraint is read as integer numerators over the lcm of its
    denominators for `feasible_tableau`; Fractions are built for the
    returned point and value only.
    """
    obj = [Fraction(c) for c in objective] if objective is not None else None

    rows: list[list[int]] = []
    dens: list[int] = []
    for con in constraints:
        coeffs = con.coeffs[:num_vars]
        den = lcm(con.rhs.denominator, *(c.denominator for c in coeffs))
        row = [c.numerator * (den // c.denominator) if c else 0 for c in coeffs]
        row += [0] * (num_vars - len(row))
        row.append(con.rhs.numerator * (den // con.rhs.denominator))
        rows.append(row)
        dens.append(den)
    tab = feasible_tableau(rows, dens, [con.rel for con in constraints], nonneg)
    if tab is None:
        return LpResult("infeasible")

    if obj is not None:
        cost_den = lcm(*(o.denominator for o in obj))
        cost = [0] * tab.ncols
        for (p, m), o in zip(tableau_columns(nonneg)[0], obj):
            if o:
                k = o.numerator * (cost_den // o.denominator)
                cost[p] = k
                if m is not None:
                    cost[m] = -k
        if tab.maximize(cost, cost_den) == "unbounded":
            return LpResult("unbounded")

    point = tab.point(nonneg)
    value = None
    if obj is not None:
        value = sum(o * x for o, x in zip(obj, point))
    return LpResult("optimal", value, point)


# ---------------------------------------------------------------------------
# generator-form polyhedra
# ---------------------------------------------------------------------------


def _primitive_direction(v: Vec) -> Vec:
    """Scale to a primitive integer vector, keeping orientation."""
    den = lcm(*(x.denominator for x in v))
    ints = [x.numerator * (den // x.denominator) for x in v]
    g = gcd(*ints)
    if g == 0:
        return tuple(Fraction(0) for _ in v)
    return tuple(Fraction(x // g) for x in ints)


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
        vertices = [tuple(map(as_fraction, v)) for v in vertices]
        if dim is None:
            if not vertices:
                raise ValueError("dimension required for empty polytope")
            dim = len(vertices[0])
        return canonical(GenPolyhedron(dim, tuple(vertices)))

    @staticmethod
    def point(v) -> "GenPolyhedron":
        v = tuple(map(as_fraction, v))
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
    None when x is outside.  For a single point it is an equality test."""
    if p.is_empty:
        return None
    nv, nr, nl = len(p.vertices), len(p.rays), len(p.lines)
    if nv == 1 and not nr and not nl:
        return ((Fraction(1),), (), ()) if tuple(x) == p.vertices[0] else None
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


def _extreme_vertices_lp(vertices: list[Vec]) -> list[Vec]:
    kept = []
    for i, v in enumerate(vertices):
        others = vertices[:i] + vertices[i + 1:]
        if not others or not contains_point(GenPolyhedron(len(v), tuple(others)), v):
            kept.append(v)
    return kept


def _require_polytopes(what: str, *ps: GenPolyhedron) -> None:
    if any(p.rays or p.lines for p in ps):
        raise ValueError(f"{what} requires polytopes")


def canonical(p: GenPolyhedron) -> GenPolyhedron:
    """The polytope p with repeated and redundant vertices dropped."""
    _require_polytopes("canonical form", p)
    vertices = list(dict.fromkeys(p.vertices))
    if len(vertices) > 1:
        vertices = _hull_2d(vertices) if p.dim == 2 else _extreme_vertices_lp(vertices)
    return GenPolyhedron(p.dim, tuple(vertices))


def minkowski_sum(p: GenPolyhedron, q: GenPolyhedron) -> GenPolyhedron:
    if p.dim != q.dim:
        raise ValueError("ambient dimension mismatch")
    _require_polytopes("Minkowski sum", p, q)
    if p.is_empty or q.is_empty:
        return GenPolyhedron.empty(p.dim)
    return canonical(GenPolyhedron(p.dim, tuple(vec_add(a, b) for a in p.vertices for b in q.vertices)))


def linear_image(a: RatMatrix, p: GenPolyhedron) -> GenPolyhedron:
    if a.cols != p.dim:
        raise ValueError("matrix columns must match polyhedron dimension")
    _require_polytopes("linear image", p)
    return canonical(GenPolyhedron(a.rows, tuple(a.matvec(v) for v in p.vertices)))


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


def check_facet_dimension(dim: int) -> None:
    """Raise DimensionCeilingError if facet enumeration refuses a polytope
    of this affine dimension."""
    if dim > FACET_DIMENSION_CEILING:
        raise DimensionCeilingError(
            f"dimension {dim} exceeds the facet-enumeration ceiling {FACET_DIMENSION_CEILING}")


def facet_normals(p: GenPolyhedron) -> list[Vec]:
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
    check_facet_dimension(adim)
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


def h_representation(p: GenPolyhedron):
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
    for n in facet_normals(p):
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
    """True iff 0 is a strictly positive convex combination of the vertices.

    Some lambda > 0 with sum lambda_i v_i = 0 exists exactly when one with
    every lambda_i >= 1 does (scale it), so the test is the feasibility of
    mu >= 0 with sum mu_i v_i = -sum v_i: one integer row per coordinate
    for `feasible_tableau`.  When the vertices sum to 0, as those of a
    centrally symmetric polytope do, every right-hand side is 0 and mu = 0
    solves it, so no tableau is built."""
    if not p.is_polytope:
        raise ValueError("relative interior test requires a polytope")
    columns = [[v[i] for v in p.vertices] for i in range(p.dim)]
    sums = [sum(coeffs) for coeffs in columns]
    if not any(sums):
        return True
    rows: list[list[int]] = []
    dens: list[int] = []
    for coeffs, total in zip(columns, sums):
        coeffs.append(-total)
        den = lcm(*(c.denominator for c in coeffs))
        rows.append([c.numerator * (den // c.denominator) for c in coeffs])
        dens.append(den)
    return feasible_tableau(rows, dens, ["=="] * p.dim, [True] * len(p.vertices)) is not None


def intersect_with_subspace(p: GenPolyhedron, basis: list[Vec]) -> GenPolyhedron:
    """Intersect a polytope with span(basis), returned in basis coordinates."""
    if not p.is_polytope and not p.is_empty:
        raise ValueError("subspace intersection requires a polytope")
    k = len(basis)
    if p.is_empty:
        return GenPolyhedron.empty(k)
    ineqs, eqs = h_representation(p)
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
