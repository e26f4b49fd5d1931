"""Reference computations the tests check the library against.

Each one recomputes a value the library derives another way: the closed
form of <A^n u, tau> evaluated term by term, its coefficients from the
spectral projectors and all powers of the nilpotent part, a maximum over a polyhedron
solved as one LP over its generators, the simplex over a `Fraction`
tableau that the integer tableau replaced, and the characteristic
polynomial by the `Fraction` Berkowitz recursion that the integer one
replaced, and `all_bilinear_rows` multiplies out the bilinear rows
that the library stops at the first zero row.  `fraction_poly_gcd` and
`fraction_squarefree_part` run Euclid over Q where the library follows
an integer pseudo-remainder sequence, and `FractionPrefixSums` and
`fraction_sup_from` step each direction's vertex images by Fraction
products where the library reads one integer table per decision, and
invert I - A over Fractions where the library holds it as integer rows;
`fraction_fails_prefix_check` compares those Fraction sums with the
Fraction minimum over the target's vertices, where the library's
pre-check cross-multiplies integers over their denominators.
The certificate layer's Fraction closed form is kept whole:
`fraction_bilinear_rows` steps the rows as values by A / lam_i,
`fraction_classify_sequence` searches thresholds on the eigenvalues
lam_i and the coefficient values where the library compares numerators
and betas D lam_i, and `pairwise_eventual_maximizer`, `fraction_sup_from`
and `fraction_certificate` build on them.  `projector_values`,
`bilinear_row_values` and `expansion_values` read the library's
numerators over their denominators as values.
`cold_reach_exactly` is the union search that builds every DFS node's
LP in one piece (`build_lp`) and solves it from scratch, where the
library grows one root from the empty LP and restricts the parent's
tableau; its witnesses are the cold LP's points, so a library witness
is compared with it by horizon and components and judged by replay.
`reduced_witness_lifts` checks the converse of the normalization on the
original system itself, and `negate` forms -P for the tests that need it.  `rat` checks the
representation rule that a rational value is always a `Fraction`, never
a `RealAlg`.  `scan_real_spectrum_power` tries every power of A up to the
bound where the library reads the least one off the characteristic
polynomial; `fraction_schur_stable` takes the Hurwitz minors by Fraction
LU where the library runs Bareiss in integers; the max-t LP decides the
relative interior where the library solves a feasibility LP, or none when
the vertices sum to 0; `whole_polynomial_report` runs both spectral tests
on the whole polynomial of the nonzero eigenvalues where the library reads
them factor by factor off the eigenvalues it isolates; and
`fraction_replay` steps Fraction vectors where the library keeps an
integer state over one denominator.  `pairwise_eventual_maximizer` runs
the full threshold search on every pair the tournament compares, where
the library reads only signs until it has the winner, and
`fraction_inverse` is Gauss-Jordan over Fractions where the library
eliminates fraction-free in integers.  `fraction_spectral_decompose` is
the spectral decomposition over Fraction and RealAlg, Hermite
interpolation summed over the Fraction powers of A and the semisimple
part by Newton's iteration, where the library interpolates without a
division on the integer powers of D·A and keeps no nilpotent part: it
returns Newton's nilpotent part N beside its decomposition, so the Jordan
chains the library steps by A - lam_i I can be checked against N; it
reads the transient off the factor x of the characteristic polynomial,
where the library strips the zero roots before it factors.
`decompose` calls the library's with the characteristic polynomial and
the eigenvalues it takes.  `FractionQuad` is a quadratic irrational as
Fraction coordinates (a, b, d), with the formulas exactnum used before it held integer
coordinates, including which discriminant d a result carries and the
intervals that d gives.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from math import comb, gcd, isqrt, lcm
from operator import mul

from ltireach.certify import (PREFIX_CHECK_DEPTH, PrefixSums, SeparatorCertificate, SeqClass, SeqKind, VertexImages,
                              classify_sequence)
from ltireach.exactnum import (Alg, IntPoly, RealAlg, _isolate_squarefree, count_roots_halfopen, factor_int_poly,
                               sturm_chain, sturm_isolate_real_roots)
from ltireach.forward import ReachWitness, StepColumns, WitnessStep, reach_exactly, verify_witness
from ltireach.geometry import ControlSet, GenPolyhedron, LpResult, constraint, lp_solve, tableau_columns
from ltireach.linalg import (RatMatrix, SpectralData, SpectralError, Vec, bilinear_rows, charpoly_primitive,
                             eigen_factors, expand_inner_product, nonzero_eigen_poly, real_spectrum_power,
                             real_spectrum_power_bound, schur_stable, spectral_decompose, vec_add, vec_dot,
                             vec_scale, vec_sub, zero_vec)
from ltireach.preprocess import LtiSystem, SimpleForm, SimplicityReport


def rat(x) -> Fraction:
    """x itself, after asserting that it is a Fraction: a rational value
    must never come back as a RealAlg (or an int)."""
    assert type(x) is Fraction, f"expected a Fraction, got {x!r}"
    return x


def sign(x) -> int:
    """Sign of a Fraction, int or RealAlg."""
    if isinstance(x, RealAlg):
        return x.sign()
    return (x > 0) - (x < 0)


def int_poly(*coeffs: int) -> IntPoly:
    """The integer polynomial with these coefficients, lowest degree first."""
    return IntPoly(tuple(coeffs))


def lifted_horizon(form: SimpleForm, n: int) -> int:
    """M n: the horizon at which the original system reaches its target
    when the reduced one reaches its own at n, for M the power."""
    return form.power * n


def reduced_witness_lifts(sys: LtiSystem, form: SimpleForm, witness: ReachWitness) -> bool:
    """The witness replays in the reduced system, and the original system
    has a replaying witness at exactly the lifted horizon."""
    reduced = LtiSystem(form.a_reduced, ControlSet.single(form.u_reduced),
                        zero_vec(form.dim), form.q_reduced)
    if not verify_witness(reduced, witness):
        return False
    lifted = reach_exactly(StepColumns(sys), lifted_horizon(form, witness.horizon))
    return lifted is not None and verify_witness(sys, lifted)


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


def bilinear_coeff(s: SpectralData, nilpotent: RatMatrix, i: int, j: int, u, tau) -> Alg:
    """tau^T P_i N^j lam_i^-j u for any j >= 0, from the projector and the
    matrix power N^j themselves, for N the nilpotent part of A
    (fraction_spectral_decompose)."""
    pn = alg_matmul(projector_values(s)[i], nilpotent.power(j).to_rows())
    return alg_dot(tau, [alg_dot(row, u) for row in pn]) * s.eigenvalues[i] ** -j


def all_bilinear_rows(s: SpectralData, nilpotent: RatMatrix, tau) -> list[list[list[Alg]]]:
    """`linalg.bilinear_rows` as it was: every row r[i][j], j < mu_i, is
    the product r[i][j-1] N / lam_i, zero rows included, for N the
    nilpotent part of A (fraction_spectral_decompose)."""
    ncols = [nilpotent.col(k) for k in range(s.dim)]
    out = []
    for lam, mu, proj in zip(s.eigenvalues, s.multiplicities, projector_values(s)):
        row = [alg_dot(tau, col) for col in zip(*proj)]
        rows_i = [row]
        for _ in range(1, mu):
            row = [sum((row[t] * x for t, x in enumerate(col) if x), Fraction(0)) * (1 / lam)
                   for col in ncols]
            rows_i.append(row)
        out.append(rows_i)
    return out


def over(x, den: int) -> Alg:
    """x / den as a value: a Fraction for an integer numerator."""
    return Fraction(x, den) if isinstance(x, int) else x / den


def projector_values(s: SpectralData) -> list[list[list[Alg]]]:
    """Each projector P_i as rows of values, from the rows over one scale
    that SpectralData holds."""
    return [[[over(x, scale) for x in row] for row in rows] for rows, scale in s.projectors]


def bilinear_row_values(s: SpectralData, tau) -> list[list[list[Alg]]]:
    """The rows tau^T P_i (A - lam_i I)^j lam_i^-j as values: each numerator
    of `linalg.bilinear_rows` over its denominator."""
    rows, den = bilinear_rows(s, tau)
    return [[[over(x, den) for x in row] for row in chain] for chain in rows]


def expansion_values(s: SpectralData, tau, u) -> list[list[Alg]]:
    """The coefficients of <A^n u, tau> as values: each numerator of
    `linalg.expand_inner_product` over the rows' denominator."""
    rows, den = bilinear_rows(s, tau)
    return [[over(c, den) for c in row] for row in expand_inner_product(rows, u)]


def fraction_bilinear_rows(s: SpectralData, tau) -> list[list[list[Alg]]]:
    """`linalg.bilinear_rows` as it was, on values: r[i][0] = tau^T P_i and
    r[i][j] = r[i][j-1] A / lam_i - r[i][j-1] from A's Fraction columns,
    zero rows once a row is zero."""
    acols = [s.matrix.col(k) for k in range(s.dim)]
    out = []
    for lam, mu, proj in zip(s.eigenvalues, s.multiplicities, projector_values(s)):
        row = [alg_dot(tau, col) for col in zip(*proj)]
        rows_i = [row]
        while len(rows_i) < mu and any(row):
            row = [sum((row[t] * x for t, x in enumerate(col) if x), Fraction(0)) * (1 / lam) - row[k]
                   for k, col in enumerate(acols)]
            rows_i.append(row)
        out.append(rows_i + [[Fraction(0)] * s.dim for _ in range(mu - len(rows_i))])
    return out


def fraction_classify_sequence(s: SpectralData, coeffs: list[list[Alg]]) -> SeqClass:
    """`certify.classify_sequence` as it was, on the coefficient values and
    the eigenvalues lam_i themselves: the least N from which
    |c0| C(n,j0) lam0^n > sum |c| C(n,j) lam^n holds for good, every
    comparison exact, searched from the onset where every ratio to the
    dominant term falls."""
    nonzero = [(i, j, c) for i, row in enumerate(coeffs) for j, c in enumerate(row) if c]
    if not nonzero:
        return SeqClass(SeqKind.IDENTICALLY_ZERO)
    i0, j0, c0 = max(nonzero, key=lambda t: (t[0], t[1]))
    lam0 = s.eigenvalues[i0]
    others = [(i, j, abs(c)) for i, j, c in nonzero if (i, j) != (i0, j0)]
    powers: dict[tuple[int, int], Alg] = {}

    def power(i, n):
        if (i, n) not in powers:
            powers[i, n] = s.eigenvalues[i] ** n
        return powers[i, n]

    def first_true(start, pred):
        n = start
        while not pred(n):
            n += 1
        return n

    onset = j0
    for i, j, _ in others:
        lam = s.eigenvalues[i]
        onset = max(onset, first_true(max(j, j0), lambda n: lam * (n + 1 - j0) < lam0 * (n + 1 - j)))

    def dominates(n):
        rhs = Fraction(0)
        for i, j, absc in others:
            rhs = rhs + absc * comb(n, j) * power(i, n)
        return abs(c0) * comb(n, j0) * power(i0, n) > rhs

    threshold = first_true(onset, dominates)
    while threshold > 0 and dominates(threshold - 1):
        threshold -= 1
    return SeqClass(SeqKind.ULTIMATELY_POSITIVE if c0 > 0 else SeqKind.ULTIMATELY_NEGATIVE, threshold)


def negate(p: GenPolyhedron) -> GenPolyhedron:
    """-P, generator by generator."""
    return GenPolyhedron(p.dim, tuple(vec_scale(v, Fraction(-1)) for v in p.vertices),
                         tuple(vec_scale(r, Fraction(-1)) for r in p.rays), p.lines)


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


# ---------------------------------------------------------------------------
# the Fraction characteristic polynomial
# ---------------------------------------------------------------------------


def fraction_charpoly(a: RatMatrix) -> tuple[Fraction, ...]:
    """`linalg.charpoly` as it was: the Samuelson-Berkowitz recursion over
    the Fraction entries of A, monic, lowest degree first."""
    n = a.rows
    if n == 0:
        return (Fraction(1),)
    # coefficients highest degree first, built up one leading block at a time
    c = [Fraction(1)]
    for r in range(1, n + 1):
        d = a.get(r - 1, r - 1)
        row = [a.get(r - 1, j) for j in range(r - 1)]
        col = [a.get(i, r - 1) for i in range(r - 1)]
        block = [[a.get(i, j) for j in range(r - 1)] for i in range(r - 1)]
        # s_i = row . block^i . col for i = 0..r-2
        s = []
        cur = col
        for _ in range(r - 1):
            s.append(sum(x * y for x, y in zip(row, cur)))
            cur = [sum(block[i][j] * cur[j] for j in range(r - 1)) for i in range(r - 1)]
        first_col = [Fraction(1), -d] + [-x for x in s]
        new = [Fraction(0)] * (r + 1)
        for i in range(r + 1):
            for j in range(len(c)):
                k = i - j
                if 0 <= k < len(first_col):
                    new[i] += first_col[k] * c[j]
        c = new
    return tuple(reversed(c))


def fraction_inverse(a: RatMatrix) -> RatMatrix | None:
    """`RatMatrix.inverse` as it was: Gauss-Jordan over Fractions on the
    augmented matrix [A | I]; None when A is singular."""
    n = a.rows
    aug = RatMatrix(n, 2 * n, tuple(x for i in range(n)
                                    for x in (*a.row(i), *RatMatrix.identity(n).row(i))))
    m, pivots = aug.rref()
    if pivots[:n] != list(range(n)):
        return None
    return RatMatrix.from_rows([r[n:] for r in m[:n]])


# ---------------------------------------------------------------------------
# Fraction polynomial arithmetic
# ---------------------------------------------------------------------------


def frac_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
    """Quotient and remainder of a by b over Q, coefficients lowest degree
    first, without trailing zeros."""
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    b = list(b)
    while b and b[-1] == 0:
        b.pop()
    if not b:
        raise ZeroDivisionError("polynomial division by zero")
    q = [Fraction(0)] * max(0, len(a) - len(b) + 1)
    r = list(a)
    while len(r) >= len(b) and any(c != 0 for c in r):
        while r and r[-1] == 0:
            r.pop()
        if len(r) < len(b):
            break
        f = r[-1] / b[-1]
        k = len(r) - len(b)
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
    while r and r[-1] == 0:
        r.pop()
    return q, r


def frac_to_int_poly(coeffs: list[Fraction]) -> IntPoly:
    """The polynomial cleared of denominators, primitive, positive lead."""
    den = lcm(*(Fraction(c).denominator for c in coeffs))
    return IntPoly(tuple(int(c * den) for c in coeffs)).primitive()


def fraction_poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """`exactnum.poly_gcd` as it was: Euclid over Q, then the primitive
    part with positive lead."""
    a, b = [Fraction(c) for c in p.coeffs], [Fraction(c) for c in q.coeffs]
    while any(c != 0 for c in b):
        _, r = frac_divmod(a, b)
        a, b = b, r
    return frac_to_int_poly(a)


def fraction_squarefree_part(p: IntPoly) -> IntPoly:
    """`IntPoly.squarefree_part` as it was: p over its Euclid gcd with p',
    divided over Q."""
    g = fraction_poly_gcd(p, p.derivative())
    if g.degree <= 0:
        return p.primitive()
    q, r = frac_divmod([Fraction(c) for c in p.coeffs], [Fraction(c) for c in g.coeffs])
    assert not r
    return frac_to_int_poly(q)


# ---------------------------------------------------------------------------
# quadratic irrationals as Fraction coordinates
# ---------------------------------------------------------------------------


def _fraction_quad_sign(a: Fraction, b: Fraction, d: int) -> int:
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    return sa if a * a > b * b * d else sb


@dataclass(frozen=True)
class FractionQuad:
    """a + b sqrt(d) with a, b Fractions and d a positive non-square: the
    arithmetic `RealAlg` ran on Fraction coordinates.  b = 0 is the
    rational a.  A result carries the discriminant of its left operand, or
    of the one irrational operand, as the library's results do; over
    another discriminant f of the same field, sqrt(f) = (isqrt(d f) / d)
    sqrt(d)."""

    a: Fraction
    b: Fraction
    d: int

    @staticmethod
    def of_root(coeffs: tuple[int, ...], hi: Fraction) -> FractionQuad:
        """The root of the irreducible c0 + c1 x + c2 x^2 (c2 > 0) that an
        isolating interval ending at hi holds: (-c1 -+ sqrt(d)) / 2c2 with d
        its discriminant, the larger root when the polynomial is positive
        at hi."""
        c0, c1, c2 = coeffs
        up = c0 + c1 * hi + c2 * hi * hi > 0
        return FractionQuad(Fraction(-c1, 2 * c2), Fraction(1 if up else -1, 2 * c2), c1 * c1 - 4 * c0 * c2)

    def coords(self, other) -> tuple[Fraction, Fraction]:
        """other, a rational or a FractionQuad of this field, as (c, e)
        with other = c + e sqrt(self.d)."""
        if not isinstance(other, FractionQuad):
            return Fraction(other), Fraction(0)
        if other.d == self.d:
            return other.a, other.b
        s = isqrt(self.d * other.d)
        assert s * s == self.d * other.d, "one quadratic field"
        return other.a, other.b * Fraction(s, self.d)

    def __add__(self, other) -> FractionQuad:
        c, e = self.coords(other)
        return FractionQuad(self.a + c, self.b + e, self.d)

    __radd__ = __add__

    def __neg__(self) -> FractionQuad:
        return FractionQuad(-self.a, -self.b, self.d)

    def __sub__(self, other) -> FractionQuad:
        return self + (-other)

    def __rsub__(self, other) -> FractionQuad:
        return -self + other

    def __mul__(self, other) -> FractionQuad:
        c, e = self.coords(other)
        return FractionQuad(self.a * c + self.b * e * self.d, self.a * e + self.b * c, self.d)

    __rmul__ = __mul__

    def inverse(self) -> FractionQuad:
        norm = self.a * self.a - self.b * self.b * self.d
        return FractionQuad(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other) -> FractionQuad:
        if isinstance(other, FractionQuad):
            return self * other.inverse()
        return self * (1 / Fraction(other))

    def __rtruediv__(self, other) -> FractionQuad:
        return self.inverse() * other

    def compare(self, other) -> int:
        c, e = self.coords(other)
        return _fraction_quad_sign(self.a - c, self.b - e, self.d)

    def value(self) -> Fraction | None:
        """The rational value, or None for an irrational one."""
        return self.a if self.b == 0 else None

    def minpoly(self) -> IntPoly:
        """(x - a)^2 - b^2 d cleared of denominators, primitive."""
        return frac_to_int_poly([self.a * self.a - self.b * self.b * self.d, -2 * self.a, Fraction(1)])

    def interval(self, k: int = 0) -> tuple[Fraction, Fraction]:
        """a + b (s, s + 1) / 2^k ordered, s = isqrt(d 4^k): width |b| / 2^k."""
        s = isqrt(self.d << (2 * k))
        lo, hi = self.a + self.b * Fraction(s, 1 << k), self.a + self.b * Fraction(s + 1, 1 << k)
        return (lo, hi) if self.b > 0 else (hi, lo)

    def refined_below(self, width: Fraction) -> tuple[Fraction, Fraction]:
        """The interval of the least k whose width |b| / 2^k is at most
        `width`, when the interval at 0 is wider."""
        k = 0
        while abs(self.b) / 2 ** k > width:
            k += 1
        return self.interval(k)

    def isolating_interval(self) -> tuple[Fraction, Fraction]:
        """The interval of the minimal polynomial's root isolation that
        holds this value."""
        (interval,) = [(lo, hi) for lo, hi in _isolate_squarefree(self.minpoly())
                       if self.compare(lo) > 0 and self.compare(hi) < 0]
        return interval


# ---------------------------------------------------------------------------
# the spectral decomposition over Fraction and RealAlg
# ---------------------------------------------------------------------------


def decompose(a: RatMatrix) -> SpectralData:
    """`linalg.spectral_decompose` of A, given the characteristic
    polynomial and the eigenvalues that it takes."""
    p = charpoly_primitive(a)
    return spectral_decompose(a, p, eigen_factors(nonzero_eigen_poly(p)))


def fraction_spectral_decompose(a: RatMatrix) -> tuple[SpectralData, RatMatrix]:
    """`linalg.spectral_decompose` as it was, and the nilpotent part it
    kept: the characteristic polynomial by the Fraction recursion, each
    projector h(A) from Hermite interpolation over Q(lam) summed over the
    Fraction powers A^k, and the nilpotent part N = A - S with S the
    semisimple part by Newton's iteration on the squarefree part of the
    characteristic polynomial.  P_i N = P_i (A - lam_i I), so N steps the
    Jordan chains that the library steps by A itself.  The factor x of the
    characteristic polynomial, to the power k, gives the transient k and no
    projector."""
    d = a.rows
    if d == 0:
        return SpectralData(a, [], [], [], [], 0), a
    p = frac_to_int_poly(list(fraction_charpoly(a)))
    factors = factor_int_poly(p.coeffs)
    eig: list[tuple[Alg, int]] = []
    transient = 0
    for fcoeffs, mult in factors:
        if fcoeffs == (0, 1):  # the root 0: no projector, only the transient
            transient = mult
            continue
        f = IntPoly(fcoeffs)
        roots = sturm_isolate_real_roots(f)
        if len(roots) != f.degree:
            raise SpectralError("non-real eigenvalue detected")
        for r in roots:
            if r < 0:
                raise SpectralError("negative eigenvalue detected")
            eig.append((r, mult))
    eig.sort(key=lambda e: e[0])
    squarefree = IntPoly((1,))
    for f, _ in factors:
        squarefree = squarefree * IntPoly(f)
    nilpotent = a - newton_semisimple_part(a, squarefree)
    powers = [RatMatrix.identity(d)]
    projectors = []
    for lam, mu in eig:
        h = _fraction_projector_poly(p, lam, mu)
        while len(powers) < len(h):
            powers.append(powers[-1] @ a)
        terms = [(c, m.entries) for c, m in zip(h, powers)]
        projectors.append([[sum((c * m[k] for c, m in terms if m[k]), Fraction(0))
                            for k in range(r * d, (r + 1) * d)] for r in range(d)])
    den = lcm(*(x.denominator for x in a.entries))
    return SpectralData(a, [lam for lam, _ in eig], [lam * den for lam, _ in eig], [mu for _, mu in eig],
                        [(rows, 1) for rows in projectors], transient), nilpotent


def newton_semisimple_part(a: RatMatrix, p: IntPoly) -> RatMatrix:
    """The semisimple part of A by Newton's iteration x <- x - p'(x)^-1 p(x)
    from x = A, for p the squarefree part of its characteristic polynomial,
    over Fraction matrices, also when p has full degree."""
    pf = [Fraction(c) for c in p.coeffs]
    dpf = [Fraction(i * c) for i, c in enumerate(p.coeffs)][1:]

    def eval_at(coeffs, m: RatMatrix) -> RatMatrix:
        acc = RatMatrix.zeros(m.rows, m.rows)
        for c in reversed(coeffs):
            acc = acc @ m + RatMatrix.diag(*[c] * m.rows)
        return acc

    x = a
    for _ in range(a.rows + 2):
        px = eval_at(pf, x)
        if all(e == 0 for e in px.entries):
            return x
        x = x - fraction_inverse(eval_at(dpf, x)) @ px
    raise SpectralError("semisimple splitting did not converge")


def _fraction_synthetic_divide(coeffs: list[Alg], lam: Alg) -> tuple[Alg, list[Alg]]:
    """(p(lam), p(x) / (x - lam)); (0, []) for the zero polynomial []."""
    if not coeffs:
        return Fraction(0), []
    carry = coeffs[-1]
    out: list[Alg] = [Fraction(0)] * (len(coeffs) - 1)
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * lam
    return carry, out


def _fraction_projector_poly(charp: IntPoly, lam: Alg, mu: int) -> list[Alg]:
    """The polynomial h, lowest first, with h == 1 mod (x - lam)^mu and
    h == 0 modulo the rest of charp: the cofactor charp / (x - lam)^mu times
    the inverse of its Taylor series at lam modulo (x - lam)^mu."""
    cofactor: list[Alg] = [Fraction(c) for c in charp.coeffs]
    for _ in range(mu):
        cofactor = _fraction_synthetic_divide(cofactor, lam)[1]
    taylor: list[Alg] = []
    work = list(cofactor)
    for _ in range(mu):
        rem, work = _fraction_synthetic_divide(work, lam)
        taylor.append(rem)
    inv: list[Alg] = [1 / taylor[0]]
    for k in range(1, mu):
        acc = Fraction(0)
        for t in range(1, k + 1):
            acc = acc + taylor[t] * inv[k - t]
        inv.append(-(acc * inv[0]))
    # sum_k inv_k (x - lam)^k in the standard basis
    series: list[Alg] = [Fraction(0)] * mu
    basis: list[Alg] = [Fraction(1)]
    for k in range(mu):
        for i, b in enumerate(basis):
            series[i] = series[i] + inv[k] * b
        nb: list[Alg] = [Fraction(0)] * (len(basis) + 1)
        for i, b in enumerate(basis):
            nb[i + 1] = nb[i + 1] + b
            nb[i] = nb[i] - lam * b
        basis = nb
    h: list[Alg] = [Fraction(0)] * (len(cofactor) + mu - 1)
    for i, x in enumerate(cofactor):
        for j, y in enumerate(series):
            if x and y:
                h[i + j] = h[i + j] + x * y
    while h and not h[-1]:
        h.pop()
    return h


# ---------------------------------------------------------------------------
# prefix sums stepped per direction
# ---------------------------------------------------------------------------


class FractionPrefixSums:
    """`certify.PrefixSums` as it was: each direction steps its own vertex
    images A^i v one Fraction matrix-vector product at a time and sums the
    maxima of <tau, A^i v>."""

    def __init__(self, s: SpectralData, u: GenPolyhedron, tau):
        self.s = s
        self.tau = tuple(tau)
        self.images = list(u.vertices)
        self.sums: list[Alg] = [Fraction(0)]

    def at(self, k: int) -> Alg:
        while len(self.sums) <= k:
            if len(self.sums) > 1:
                self.images = [self.s.matrix.matvec(x) for x in self.images]
            self.sums.append(self.sums[-1] + max(alg_dot(self.tau, x) for x in self.images))
        return self.sums[k]


def fraction_fails_prefix_check(s: SpectralData, u: GenPolyhedron, q: GenPolyhedron, tau) -> bool:
    """`certify.fails_prefix_check` as it was: some FractionPrefixSums S_k,
    k <= PREFIX_CHECK_DEPTH, above the least <tau, v> over the target's
    vertices."""
    sums = FractionPrefixSums(s, u, tau)
    low = min(alg_dot(tau, v) for v in q.vertices)
    return any(sums.at(k) > low for k in range(1, PREFIX_CHECK_DEPTH + 1))


def prefix_sums(s: SpectralData, u: GenPolyhedron, tau) -> PrefixSums:
    """The prefix sums of tau over a vertex-image table of their own, as a
    test that checks one direction at a time builds them."""
    return PrefixSums(VertexImages(s.matrix, u.vertices), tau)


def classify(s: SpectralData, v: Vec, w: Vec, tau) -> SeqClass:
    """classify_sequence on the expansion of v - w against tau."""
    return classify_sequence(s, expand_inner_product(bilinear_rows(s, tau)[0], vec_sub(v, w)))


def dominant_index(coeffs: list[list[Alg]]) -> tuple[int, int] | None:
    """The (i, j) of the dominant coefficient of an expansion: the largest
    index pair with a nonzero coefficient (eigenvalues ascend), or None when
    every coefficient is zero."""
    return max(((i, j) for i, row in enumerate(coeffs) for j, c in enumerate(row) if c), default=None)


def fraction_sup_from(s: SpectralData, u: GenPolyhedron, tau, maximizer: Vec, threshold: int) -> Alg:
    """`certify.sup_from` as it was: S_threshold from FractionPrefixSums,
    the maximizer walked to its threshold by Fraction products and (I - A)^-1
    by Fraction Gauss-Jordan."""
    x = maximizer
    for _ in range(threshold):
        x = s.matrix.matvec(x)
    resolvent = fraction_inverse(RatMatrix.identity(s.dim) - s.matrix)
    return FractionPrefixSums(s, u, tau).at(threshold) + alg_dot(tau, resolvent.matvec(x))


def pairwise_eventual_maximizer(s: SpectralData, u: GenPolyhedron, tau) -> tuple[Vec, int]:
    """`certify.eventual_maximizer` as it was, in values: every pair the
    tournament compares runs fraction_classify_sequence on the expansion of
    v - w by fraction_bilinear_rows, once per ordered pair; a scan for the
    maximal vertex, a pass that moves to the lexicographically first vertex
    tied with it, and the threshold as the largest against the winner, and
    at least the transient."""
    rows = fraction_bilinear_rows(s, tau)
    verts = sorted(u.vertices)
    cache: dict[tuple[int, int], SeqClass] = {}

    def cls(ia: int, ib: int) -> SeqClass:
        key = (ia, ib)
        if key not in cache:
            diff = vec_sub(verts[ia], verts[ib])
            cache[key] = fraction_classify_sequence(s, [[alg_dot(r, diff) for r in row_i] for row_i in rows])
        return cache[key]

    best = 0
    for i in range(1, len(verts)):
        if cls(best, i).kind is SeqKind.ULTIMATELY_NEGATIVE:
            best = i
    for i in range(len(verts)):
        if i == best:
            break
        if cls(i, best).kind is SeqKind.IDENTICALLY_ZERO:
            best = i
            break
    n = s.transient
    for i in range(len(verts)):
        if i == best:
            continue
        c = cls(best, i)
        if c.kind is SeqKind.ULTIMATELY_NEGATIVE:
            raise AssertionError("maximizer scan failed; preorder not respected")
        if c.kind is SeqKind.ULTIMATELY_POSITIVE:
            n = max(n, c.threshold or 0)
    return verts[best], n


def fraction_certificate(s: SpectralData, u: GenPolyhedron, q: GenPolyhedron, tau, maximizer: Vec,
                         threshold: int) -> SeparatorCertificate | None:
    """`certify.verify_separator` as it was, for a nonempty target and the
    maximizer and threshold of pairwise_eventual_maximizer: the supremum of
    fraction_sup_from and the same acceptance rule."""
    sup = fraction_sup_from(s, u, tau, maximizer, threshold)
    low = min(alg_dot(tau, v) for v in q.vertices)
    if sup < low or (sup == low and sup != FractionPrefixSums(s, u, tau).at(threshold)):
        return SeparatorCertificate(tuple(tau), maximizer, threshold, sup, low)
    return None


# ---------------------------------------------------------------------------
# the cold-start union search
# ---------------------------------------------------------------------------


@dataclass
class Layout:
    """Column layout of the horizon LP: per-step generator blocks followed
    by the target block.  Variable j is the coefficient of its generator
    divided by scales[j]."""

    step_slices: list[tuple[int, int, int, int]]  # (start, nv, nr, nl)
    ncols: int
    nonneg: list[bool]
    scales: list[int]


def build_lp(assignment, pooled_from: int, cols: StepColumns):
    """The equations of: A^n source + sum_t A^(n-1-t) u_t in target, where
    steps before pooled_from use their assigned component and later steps
    use the pooled hull of all components, built in one piece from the
    blocks of cols.

    Each variable is its generator's coefficient over the generator's
    denominator, so every row is an integer row: a state row holds the
    generators' numerators and minus the entry of A^n source, and a
    convexity row their denominators and 1.  Returns the rows, each in
    lowest terms over its denominator, their denominators and the
    layout."""
    n = len(assignment)
    blocks = [cols.comps[assignment[t]][n - 1 - t] if t < pooled_from else cols.pooled[n - 1 - t]
              for t in range(n)]
    blocks.append(cols.target)
    columns: list[tuple[int, ...]] = []
    scales: list[int] = []
    nonneg: list[bool] = []
    slices = []
    for b in blocks:
        slices.append((len(columns), b.nv, b.nr, b.nl))
        columns += b.nums
        scales += b.dens
        nonneg += b.nonneg
    ncols = len(columns)

    base, base_den = cols.bases[n]
    rows: list[list[int]] = []
    dens: list[int] = []
    for row, b in zip(zip(*columns), base):
        g = gcd(b, base_den)
        den = base_den // g
        rows.append([*row, -b // g] if den == 1 else [x * den for x in row] + [-b // g])
        dens.append(den)
    for start, nv, _, _ in slices:
        row = [0] * (ncols + 1)
        row[start:start + nv] = scales[start:start + nv]
        row[-1] = 1
        rows.append(row)
        dens.append(1)

    return rows, dens, Layout(slices[:-1], ncols, nonneg, scales)


def witness_from_solution(n: int, assignment, layout: Layout, point) -> ReachWitness:
    """The witness at the LP's point, each variable times its scale."""
    coeffs = [y * s for y, s in zip(point, layout.scales)]
    steps = []
    for t in range(n):
        start, nv, nr, nl = layout.step_slices[t]
        steps.append(WitnessStep(
            assignment[t],
            tuple(coeffs[start:start + nv]),
            tuple(coeffs[start + nv:start + nv + nr]),
            tuple(coeffs[start + nv + nr:start + nv + nr + nl]),
        ))
    return ReachWitness(n, tuple(steps))


def forward_constraints(rows, dens):
    """The forward LP's integer rows, each over its denominator, as
    equality constraints."""
    return [constraint([Fraction(x, den) for x in row[:-1]], "==", Fraction(row[-1], den))
            for row, den in zip(rows, dens)]


def solve_forward_lp(assignment, pooled_from: int, cols):
    """build_lp(assignment, pooled_from, cols) solved from scratch by the
    Fraction simplex: its LpResult and layout."""
    rows, dens, layout = build_lp(assignment, pooled_from, cols)
    res = fraction_lp_solve(None, forward_constraints(rows, dens), layout.ncols, nonneg=layout.nonneg)
    return res, layout


def cold_reach_exactly(sys: LtiSystem, n: int) -> ReachWitness | None:
    """`forward.reach_exactly` as a DFS that solves every node's LP from
    scratch: the node that assigns the steps before `depth` solves
    build_lp(assignment, depth), and the first feasible leaf's point is
    the witness.  It visits the nodes the library visits, so its witness
    has the library's horizon and components, though not always its
    coefficients.  Horizon 0 is the membership of the source in the target,
    decided by the Fraction simplex."""
    if sys.target.is_empty:
        return None
    if n == 0:
        return ReachWitness(0, ()) if lp_contains_point(sys.target, sys.source) else None
    cols = StepColumns(sys)
    cols.grow(n)
    ncomps = len(sys.controls.components)

    def search(assignment, depth):
        res, layout = solve_forward_lp(assignment, depth, cols)
        if not res.is_feasible:
            return None
        if depth == n or ncomps == 1:
            return witness_from_solution(n, assignment, layout, res.point)
        for c in range(ncomps):
            assignment[depth] = c
            found = search(assignment, depth + 1)
            if found is not None:
                return found
        assignment[depth] = 0
        return None

    return search([0] * n, 0)


# ---------------------------------------------------------------------------
# the simplex kernel as it was: rows in lowest terms, restrictions rebuilt
# ---------------------------------------------------------------------------
#
# `OldTableau`, `old_feasible_tableau` and `OldPhaseOneTableau` are the
# integer tableau before restrictions masked their banned columns: a
# restriction rebuilt every row without them, every row was kept in
# lowest terms, and an elimination ran over every column.  `old_search`
# is the forward DFS on it, each step's block the assigned component's
# columns.  The library must take the same pivots, named in the root's
# layout, and reach the same basic points.


class OldTableau:
    """Simplex tableau in fraction-free form.

    Row i stands for rows[i] / dens[i]: Python ints, one per column and
    then the right-hand side, over a positive int, with their common gcd
    divided out.  A basic column holds dens[i] in its own row and 0 in the
    others.  ncols counts the columns.  While `maximize` runs, red / red_den
    is the reduced-cost row in the same form; its last entry is minus the
    objective value.

    Added for the tests: origin[j] is column j's index in the tableau that
    the restrictions started from (None: the same index), and every pivot
    is appended to `log`, when it is a list, as (entering column, leaving
    basic column) named by origin."""

    log: list | None = None

    def __init__(self, rows: list[list[int]], dens: list[int], basis: list[int], ncols: int, origin=None):
        self.rows = rows
        self.dens = dens
        self.basis = basis
        self.ncols = ncols
        self.red: list[int] | None = None
        self.red_den = 1
        self.origin = origin

    def pivot(self, r: int, c: int) -> None:
        """Pivot on (r, c).  The pivot row keeps its numerators, negated when
        the entry is negative, over the entry's absolute value, all divided
        by their gcd; rows with a zero in column c are not touched."""
        if self.log is not None:
            name = self.origin or range(self.ncols + 1)
            self.log.append((name[c], name[self.basis[r]]))
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
                rows[i], dens[i] = _old_eliminate(row, dens[i], f, prow, s)
        if self.red is not None and self.red[c]:
            self.red, self.red_den = _old_eliminate(self.red, self.red_den, self.red[c], prow, s)
        self.basis[r] = c

    def reduced_costs(self, cost: list[int], cost_den: int) -> tuple[list[int], int]:
        """cost / cost_den minus the basic rows weighted by their costs."""
        red, den = cost + [0], cost_den
        for r, b in enumerate(self.basis):
            f = red[b]
            if f:
                red, den = _old_eliminate(red, den, f, self.rows[r], self.dens[r])
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

    def restricted(self, banned) -> OldTableau | None:
        """This feasible tableau's LP with the banned columns held at 0: a
        feasible tableau over the other columns, kept in their order, or
        None when no feasible point has them all at 0 (self when nothing is
        banned).  self is unchanged.

        From the current basis it runs `phase_one` on the banned columns,
        so it takes no pivot when no banned column is basic.  A row that
        proves the LP infeasible returns None before any copy: its basic
        column is banned, its right-hand side positive, and no kept column
        has a positive entry, so with the banned columns at 0 its left side
        is at most 0 for every nonnegative point.  A banned
        column still basic, at 0, is driven out on its row's first nonzero
        entry in a kept column (the entry may be negative; pivot normalizes
        its sign).  Rows left basic in a banned column are redundant and
        are dropped, and so are the banned columns."""
        ban = set(banned)
        if not ban:
            return self
        tab = self
        if any(b in ban for b in self.basis):
            for row, b in zip(self.rows, self.basis):
                if b in ban and row[-1] > 0 and all(row[j] <= 0 or j in ban for j in range(self.ncols)):
                    return None
            tab = OldTableau(list(self.rows), list(self.dens), list(self.basis), self.ncols, self.origin)
            if not tab.phase_one(ban):
                return None
            for r in range(len(tab.rows)):
                if tab.basis[r] in ban:
                    row = tab.rows[r]
                    for j in range(self.ncols):
                        if row[j] and j not in ban:
                            tab.pivot(r, j)
                            break
        kept = [j for j in range(self.ncols) if j not in ban]
        new_index = {j: i for i, j in enumerate(kept)}
        kept.append(self.ncols)  # the right-hand side
        rows, dens, basis = [], [], []
        for row, den, b in zip(tab.rows, tab.dens, tab.basis):
            if b not in ban:
                row, den = _old_lowest_terms([row[j] for j in kept], den)
                rows.append(row)
                dens.append(den)
                basis.append(new_index[b])
        origin = self.origin or range(self.ncols)
        return OldTableau(rows, dens, basis, len(kept) - 1, [origin[j] for j in kept[:-1]])

    def point(self, nonneg) -> tuple[Fraction, ...]:
        """The basic solution in the variables of `old_feasible_tableau`'s
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


def _old_eliminate(row: list[int], den: int, f: int, prow: list[int], s: int) -> tuple[list[int], int]:
    """row / den minus (f / den) times prow / s, where prow / s is 1 in the
    pivot column: s·row − f·prow over den·s."""
    if s == 1:
        return _old_lowest_terms([x - f * y for x, y in zip(row, prow)], den)
    return _old_lowest_terms([s * x - f * y for x, y in zip(row, prow)], den * s)


def _old_lowest_terms(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g != 1:
        return [x // g for x in row], den // g
    return row, den


def old_feasible_tableau(rows: list[list[int]], dens: list[int], rels: list[str], nonneg) -> OldTableau | None:
    """Phase 1 of the simplex on integer rows: a feasible tableau of the LP,
    or None when it is infeasible.

    Row i stands for rows[i] / dens[i], in lowest terms: one int
    coefficient per variable and then the right-hand side, over a
    positive int; rels[i] is its relation, "<=", ">=" or "==".  The
    tableau's columns are the variables' (`tableau_columns`), then one slack or
    surplus per inequality, then one artificial per row that is not a
    "<=", which start basic.  Phase 1 restricts that tableau to the other
    columns, so the artificials, being last, change no choice of Bland's
    rule.  `lp_solve` reads its constraints into such rows."""
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
    tab = OldTableau(body, list(dens), basis, total)
    if total > first_art:
        return tab.restricted(range(first_art, total))
    return tab


class OldPhaseOneTableau:
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
    `old_feasible_tableau` would."""

    def __init__(self, d: int):
        self.signs = [1] * d
        identity = [[int(i == j) for j in range(d + 1)] for i in range(d)]  # right-hand sides 0
        self.tab = OldTableau(identity, [1] * d, list(range(d)), d)
        self.first_art = 0
        self.feasible = True

    def without_artificials(self) -> OldTableau | None:
        """The LP's feasible tableau over its variables' columns, or None."""
        if not self.feasible:
            return None
        return self.tab.restricted(range(self.first_art, self.tab.ncols))

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
        rows, dens = [], []
        for old, den in zip(tab.rows, tab.dens):
            # this row of B^-1, over den: the artificials' entries times D
            inv = [a * s for a, s in zip(old[first:first + len(signs)], signs)]
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
            new, den = _old_lowest_terms(new, den)
            rows.append(new)
            dens.append(den)
        sign = -1 if rhs[-1] < 0 else 1
        ext = [0] * width
        for (p, q), c in zip(col_of, row):
            ext[p] = sign * c * rhs_den
            if q is not None:
                ext[q] = -sign * c * rhs_den
        new, den = _old_lowest_terms([*ext, *[0] * tab.ncols, rhs_den, sign * rhs[-1]], rhs_den)
        rows.append(new)
        dens.append(den)
        total = width + tab.ncols + 1
        basis = [b + width for b in tab.basis] + [total - 1]
        self.signs.append(sign)
        self.first_art += width
        self.tab = tab = OldTableau(rows, dens, basis, total)

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
            tab.rows[i], tab.dens[i] = _old_lowest_terms(r, tab.dens[i])
        tab.ncols -= 1


def old_root(cols: StepColumns, n: int) -> OldTableau | None:
    """The feasible tableau of horizon n's pooled root LP, grown as
    `StepColumns.root_at` grows it, by the old kernel; cols.grow(n) first."""
    root = OldPhaseOneTableau(cols.system.dim)
    for k in range(n + 1):
        b = cols.pooled[k - 1] if k else cols.target
        base, den = cols.bases[k]
        convexity = [*b.dens[:b.nv], *[0] * (b.nr + b.nl)]
        root.extend(b.nums, b.nonneg, convexity, [*(-x for x in base), *[den] * (k + 1)], den)
    return root.without_artificials()


def old_search(cols: StepColumns, assignment: list[int], depth: int, tab, visit) -> ReachWitness | None:
    """`forward._search` on the old kernel: step depth's pooled block
    follows the assigned components' blocks of the earlier steps.  Calls
    visit(assignment[:depth], tab) at every node."""
    visit(tuple(assignment[:depth]), tab)
    if tab is None:
        return None
    n = len(assignment)
    if depth == n:
        blocks = [cols.comps[c][n - 1 - t] for t, c in enumerate(assignment)]
        point = iter(tab.point([x for b in (*blocks, cols.target) for x in b.nonneg]))
        steps = []
        for c, b in zip(assignment, blocks):
            coeffs = [den * y for den, y in zip(b.dens, point)]
            i, j = b.nv, b.nv + b.nr
            steps.append(WitnessStep(c, tuple(coeffs[:i]), tuple(coeffs[i:j]), tuple(coeffs[j:])))
        return ReachWitness(n, tuple(steps))
    widths = [tableau_columns(table[0].nonneg)[1] for table in cols.comps]
    offset = sum(widths[c] for c in assignment[:depth])
    for c, foreign in enumerate(cols.foreign):
        assignment[depth] = c
        found = old_search(cols, assignment, depth + 1, tab.restricted([offset + j for j in foreign]), visit)
        if found is not None:
            return found
    assignment[depth] = 0
    return None


def basic_values(tab) -> dict[int, Fraction] | None:
    """A tableau's basic point as {column in the root's layout: value},
    without the rows left basic in a dead column; None for no tableau."""
    if tab is None:
        return None
    origin = getattr(tab, "origin", None) or range(tab.ncols)
    dead = getattr(tab, "dead", ())
    return {origin[b]: Fraction(row[-1], den) for row, den, b in zip(tab.rows, tab.dens, tab.basis)
            if b not in dead}


# ---------------------------------------------------------------------------
# the spectral tests, the interior test and the replay as they were
# ---------------------------------------------------------------------------


def fraction_real_nonneg_spectrum(a: RatMatrix) -> bool:
    """Every nonzero eigenvalue of A real and positive, from one squarefree
    part and one Sturm chain of the characteristic polynomial of A itself."""
    p = charpoly_primitive(a)
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    p = IntPoly(tuple(coeffs))
    if p.degree <= 0:
        return True
    sf = p.squarefree_part()
    chain = sturm_chain(sf)
    if count_roots_halfopen(chain, "-inf", "+inf") != sf.degree:
        return False
    return count_roots_halfopen(chain, "-inf", Fraction(0)) == 0


def scan_real_spectrum_power(a: RatMatrix, bound: int | None = None) -> int | None:
    """`linalg.real_spectrum_power` as a scan: the least M in 1..bound with
    fraction_real_nonneg_spectrum(A^M), over the Fraction powers of A;
    `bound` defaults to real_spectrum_power_bound(d)."""
    if bound is None:
        bound = real_spectrum_power_bound(a.rows) if a.rows > 0 else 1
    power = a
    for m in range(1, bound + 1):
        if m > 1:
            power = power @ a
        if fraction_real_nonneg_spectrum(power):
            return m
    return None


def _fraction_cayley_transform(coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    """(1-w)^n p((1+w)/(1-w)) for p given lowest first, term by term."""
    n = len(coeffs) - 1
    acc = [Fraction(0)] * (n + 1)
    for k, a in enumerate(coeffs):
        if a == 0:
            continue
        term = [Fraction(0)] * (n + 1)
        for i in range(k + 1):
            for j in range(n - k + 1):
                term[i + j] += comb(k, i) * comb(n - k, j) * (-1) ** j
        for i in range(n + 1):
            acc[i] += a * term[i]
    return acc


def _fraction_hurwitz_stable(b: list[Fraction]) -> bool:
    """Leading principal minors of the Hurwitz matrix all positive, by
    Fraction LU without pivoting: a nonpositive pivot means a minor <= 0."""
    while b and b[-1] == 0:
        b = b[:-1]
    n = len(b) - 1
    if n < 0:
        return False
    if n == 0:
        return True
    if b[-1] < 0:
        b = [-x for x in b]
    if any(x <= 0 for x in b):
        return False

    def coeff(k: int) -> Fraction:
        return b[k] if 0 <= k <= n else Fraction(0)
    m = [[coeff(n - 2 * (j + 1) + (i + 1)) for j in range(n)] for i in range(n)]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def fraction_schur_stable(a: RatMatrix) -> bool:
    """`linalg.schur_stable` over Fractions: the Cayley transform of the
    monic characteristic polynomial without its zero roots, then the
    Hurwitz minors by Fraction LU."""
    coeffs = list(fraction_charpoly(a))
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    n = len(coeffs) - 1
    if n <= 0:
        return True
    q = _fraction_cayley_transform(tuple(coeffs))
    if q[n] == 0:
        return False
    return _fraction_hurwitz_stable(q)


def whole_polynomial_report(sys: LtiSystem) -> SimplicityReport:
    """`preprocess.check_simple` as it was: both spectral tests on the whole
    polynomial of the nonzero eigenvalues, for every system, with no
    factorization and no eigenvalues kept; the relative interior by the
    max-t LP."""
    is_poly = sys.controls.is_single_polytope
    charpoly = charpoly_primitive(sys.a)
    p = nonzero_eigen_poly(charpoly)
    return SimplicityReport(
        charpoly=charpoly,
        eigenvalues=None,
        is_polytope=is_poly,
        origin_in_rel_interior=bool(is_poly and max_t_interior_contains_origin(sys.controls.components[0])),
        schur=schur_stable(p),
        real_power=real_spectrum_power(p, sys.dim),
        source_is_zero=all(x == 0 for x in sys.source),
        target_bounded=sys.target.is_empty or sys.target.is_polytope,
    )


def max_t_interior_contains_origin(p: GenPolyhedron) -> bool:
    """`geometry.relative_interior_contains_origin` as a max-t LP over free
    variables: maximize t subject to sum lambda v = 0, sum lambda = 1 and
    lambda_i >= t; the origin is inside when the optimum is positive."""
    m = len(p.vertices)
    cons = [constraint([v[i] for v in p.vertices] + [0], "==", 0) for i in range(p.dim)]
    cons.append(constraint([1] * m + [0], "==", 1))
    for i in range(m):
        coeffs = [0] * (m + 1)
        coeffs[i] = 1
        coeffs[m] = -1
        cons.append(constraint(coeffs, ">=", 0))
    res = lp_solve([0] * m + [1], cons, m + 1, nonneg=[False] * (m + 1))
    return res.is_feasible and res.value is not None and res.value > 0


def lp_contains_point(p: GenPolyhedron, x: Vec) -> bool:
    """Membership as the Fraction simplex's feasibility of x = sum of
    generators with convex, conic and free coefficients."""
    if p.is_empty:
        return False
    gens = (*p.vertices, *p.rays, *p.lines)
    nv = len(p.vertices)
    cons = [constraint([g[i] for g in gens], "==", x[i]) for i in range(p.dim)]
    cons.append(constraint([1] * nv + [0] * (len(gens) - nv), "==", 1))
    nonneg = [True] * (nv + len(p.rays)) + [False] * len(p.lines)
    return fraction_lp_solve(None, cons, len(gens), nonneg=nonneg).is_feasible


def fraction_replay(sys: LtiSystem, witness: ReachWitness) -> Vec:
    """`forward.replay` over Fraction vectors: x <- A x + u with u the
    witness combination of the step's generators."""
    x = sys.source
    for step in witness.steps:
        comp = sys.controls.components[step.component]
        u = zero_vec(comp.dim)
        for coeffs, gens in ((step.vertex_coeffs, comp.vertices), (step.ray_coeffs, comp.rays),
                             (step.line_coeffs, comp.lines)):
            for c, g in zip(coeffs, gens):
                u = vec_add(u, vec_scale(g, c))
        x = vec_add(sys.a.matvec(x), u)
    return x

