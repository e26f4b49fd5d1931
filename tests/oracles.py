"""Reference computations the tests check the library against.

Each one recomputes a value the library derives another way: the closed
form of <A^n u, tau> evaluated term by term, its coefficients from the
spectral projectors and all powers of the nilpotent part, a maximum over a polyhedron
solved as one LP over its generators, and the simplex over a `Fraction`
tableau that the integer tableau replaced.  `rat` checks the representation
rule that a rational value is always a `Fraction`, never a `RealAlg`.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import comb

from ltireach.exactnum import Alg
from ltireach.geometry import GenPolyhedron, LpResult, constraint, lp_solve
from ltireach.linalg import SpectralData, Vec, vec_add, vec_dot, vec_scale, zero_vec


def rat(x) -> Fraction:
    """x itself, after asserting that it is a Fraction: a rational value
    must never come back as a RealAlg (or an int)."""
    assert type(x) is Fraction, f"expected a Fraction, got {x!r}"
    return x


def inner_product_at(s: SpectralData, coeffs: list[list[Alg]], n: int) -> Alg:
    """Evaluate the expanded form sum_{i,j} C(n,j) lam_i^n c[i][j] of
    `linalg.expand_inner_product` at integer n >= 0, over the coefficients
    it gives for each eigenvalue."""
    acc = Fraction(0)
    for lam, row in zip(s.eigenvalues, coeffs):
        lam_n = lam ** n
        for j, c in enumerate(row):
            if c != 0 and comb(n, j) != 0:
                acc = acc + c * comb(n, j) * lam_n
    return acc


def alg_dot(xs, ys) -> Alg:
    return sum((x * y for x, y in zip(xs, ys)), Fraction(0))


def alg_matmul(a, b) -> list[list[Alg]]:
    """Product of two matrices given as lists of rows of RealAlg or
    rational entries."""
    return [[alg_dot(row, col) for col in zip(*b)] for row in a]


def bilinear_coeff(s: SpectralData, i: int, j: int, u, tau) -> Alg:
    """tau^T P_i N^j lam_i^-j u for any j >= 0, from the projector and the
    matrix power N^j themselves."""
    pn = alg_matmul(s.projectors[i], s.nilpotent.power(j).to_rows())
    return alg_dot(tau, [alg_dot(row, u) for row in pn]) * s.eigenvalues[i] ** -j


def maximize_over(p: GenPolyhedron, direction: Vec) -> LpResult:
    """Maximize <direction, x> over the polyhedron via its generators."""
    if p.is_empty:
        return LpResult("infeasible")
    nv, nr, nl = len(p.vertices), len(p.rays), len(p.lines)
    n = nv + nr + nl
    cons = [constraint([1] * nv + [0] * (nr + nl), "==", 1)]
    obj = [vec_dot(direction, g) for g in p.vertices + p.rays + p.lines]
    nonneg = [True] * (nv + nr) + [False] * nl
    res = lp_solve(obj, cons, n, nonneg=nonneg)
    if res.status != "optimal":
        return res
    coeffs = res.point
    x = zero_vec(p.dim)
    for c, g in zip(coeffs, p.vertices + p.rays + p.lines):
        x = vec_add(x, vec_scale(g, c))
    return LpResult("optimal", res.value, x)


# ---------------------------------------------------------------------------
# the Fraction simplex
# ---------------------------------------------------------------------------


class _FractionTableau:
    def __init__(self, rows: list[list[Fraction]], rhs: list[Fraction], basis: list[int], ncols: int,
                 counts: Counter):
        self.counts = counts
        self.rows = rows
        self.rhs = rhs
        self.basis = basis
        self.ncols = ncols

    def pivot(self, r: int, c: int, red: list[Fraction] | None = None) -> None:
        """Pivot on (r, c).  Only the columns where the pivot row is nonzero
        change; `red`, a reduced-cost row, is updated like one more row."""
        prow = self.rows[r]
        inv = 1 / prow[c]
        nz = [j for j, x in enumerate(prow) if x]
        for j in nz:
            prow[j] *= inv
        self.rhs[r] *= inv
        b = self.rhs[r]
        for i, row in enumerate(self.rows):
            f = row[c]
            if f and i != r:
                for j in nz:
                    row[j] -= f * prow[j]
                self.rhs[i] -= f * b
        if red is not None:
            f = red[c]
            if f:
                for j in nz:
                    red[j] -= f * prow[j]
        self.basis[r] = c

    def reduced_costs(self, cost: list[Fraction]) -> list[Fraction]:
        red = list(cost)
        for r, b in enumerate(self.basis):
            cb = cost[b]
            if cb != 0:
                row = self.rows[r]
                for j in range(self.ncols):
                    if row[j] != 0:
                        red[j] -= cb * row[j]
        return red

    def maximize(self, cost: list[Fraction]) -> str:
        """Bland's rule simplex on the current basis; returns 'optimal' or
        'unbounded'.  The reduced costs are computed once and then carried
        through the pivots."""
        red = self.reduced_costs(cost)
        while True:
            enter = None
            for j, x in enumerate(red):
                if x > 0:
                    enter = j
                    break
            if enter is None:
                return "optimal"
            leave = None
            best = None
            for i, row in enumerate(self.rows):
                a = row[enter]
                if a > 0:
                    ratio = self.rhs[i] / a
                    key = (ratio, self.basis[i])
                    if best is not None and ratio == best[0]:
                        self.counts["tied_ratio"] += 1
                    if best is None or key < best:
                        best = key
                        leave = i
            if leave is None:
                return "unbounded"
            self.pivot(leave, enter, red)

    def objective_value(self, cost: list[Fraction]) -> Fraction:
        return sum(cost[b] * self.rhs[r] for r, b in enumerate(self.basis))


def fraction_lp_solve(objective, constraints, num_vars: int, nonneg=None, maximize: bool = True,
                      counts: Counter | None = None) -> LpResult:
    """`geometry.lp_solve` as it was over a `Fraction` tableau, kept as the
    reference the integer tableau must match exactly.  `counts`, when
    given, gathers "tied_ratio" (ratio tests decided by the basis index)
    and "negative_driveout" (artificials driven out on a negative entry)."""
    if counts is None:
        counts = Counter()
    if nonneg is None:
        nonneg = [False] * num_vars
    obj = [Fraction(c) for c in objective] if objective is not None else None
    if obj is not None and not maximize:
        obj = [-c for c in obj]

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

    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    rels: list[str] = []
    for con in constraints:
        coeffs = [Fraction(0)] * nstruct
        for j in range(num_vars):
            c = con.coeffs[j] if j < len(con.coeffs) else 0
            if not c:
                continue
            p, m = col_of[j]
            coeffs[p] += c
            if m is not None:
                coeffs[m] -= c
        b = con.rhs
        rel = con.rel
        if b < 0:
            coeffs = [-x for x in coeffs]
            b = -b
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append(coeffs)
        rhs.append(b)
        rels.append(rel)

    # slacks / surplus / artificials
    total = nstruct
    slack_col: list[int | None] = []
    for rel in rels:
        if rel == "<=":
            slack_col.append(total)
            total += 1
        elif rel == ">=":
            slack_col.append(total)
            total += 1
        else:
            slack_col.append(None)
    art_col: list[int | None] = []
    for rel in rels:
        if rel == "<=":
            art_col.append(None)
        else:
            art_col.append(total)
            total += 1

    full_rows = []
    basis = []
    for i, row in enumerate(rows):
        ext = row + [Fraction(0)] * (total - nstruct)
        if rels[i] == "<=":
            ext[slack_col[i]] = Fraction(1)
            basis.append(slack_col[i])
        elif rels[i] == ">=":
            ext[slack_col[i]] = Fraction(-1)
            ext[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        else:
            ext[art_col[i]] = Fraction(1)
            basis.append(art_col[i])
        full_rows.append(ext)

    tab = _FractionTableau(full_rows, list(rhs), basis, total, counts)
    artificials = {c for c in art_col if c is not None}

    if artificials:
        phase1 = [Fraction(-1) if j in artificials else Fraction(0) for j in range(total)]
        status = tab.maximize(phase1)
        assert status == "optimal", "phase 1 is bounded"
        if tab.objective_value(phase1) != 0:
            return LpResult("infeasible")
        # drive remaining artificials out of the basis
        for r in range(len(tab.rows)):
            if tab.basis[r] in artificials:
                pivot_col = None
                for j in range(total):
                    if j not in artificials and tab.rows[r][j] != 0:
                        pivot_col = j
                        break
                if pivot_col is not None:
                    if tab.rows[r][pivot_col] < 0:
                        counts["negative_driveout"] += 1
                    tab.pivot(r, pivot_col)
        # drop rows still basic in an artificial (redundant constraints)
        keep = [r for r in range(len(tab.rows)) if tab.basis[r] not in artificials]
        tab.rows = [tab.rows[r] for r in keep]
        tab.rhs = [tab.rhs[r] for r in keep]
        tab.basis = [tab.basis[r] for r in keep]
        # freeze artificial columns at zero
        for row in tab.rows:
            for c in artificials:
                row[c] = Fraction(0)

    cost = [Fraction(0)] * total
    if obj is not None:
        for j in range(num_vars):
            p, m = col_of[j]
            cost[p] += obj[j]
            if m is not None:
                cost[m] -= obj[j]
        status = tab.maximize(cost)
        if status == "unbounded":
            return LpResult("unbounded")

    values = [Fraction(0)] * total
    for r, b in enumerate(tab.basis):
        values[b] = tab.rhs[r]
    point = []
    for j in range(num_vars):
        p, m = col_of[j]
        point.append(values[p] - (values[m] if m is not None else Fraction(0)))
    value = None
    if obj is not None:
        value = sum(o * x for o, x in zip(obj, point))
        if not maximize:
            value = -value
    return LpResult("optimal", value, tuple(point))
