"""Non-reachability certificates for normalized systems.

Directions tau are tested as separators of the closure of the reachable
set from the target: the supremum of <x, tau> over the closure has the
closed form

    sum_{i<N} max_{v in Ext(U)} <A^i v, tau>  +  <A^N (I-A)^{-1} u, tau>

where u is a vertex that eventually maximizes <A^n ., tau> and N a
threshold past which it dominates every other vertex.  Both are computed
exactly: the sequence <A^n (v-w), tau> expands over the eigenvalue basis
as sum C(n,j) lam_i^n c_ij, its eventual sign is the sign of the
dominant coefficient, and the threshold is the least n from which an
explicit tail-domination inequality, checked with exact algebraic
comparisons, holds for good; classify_sequence finds it with one search.
Those comparisons weigh sums of terms k |c| lam^n.  Each is first decided
on rational interval enclosures of the terms, built from the intervals of
c and lam without computing lam^n; only when the enclosures still overlap
after refining c and lam to two fixed widths (and always at n = 0, where no
product of irrationals arises) is it decided by exact algebraic arithmetic.
Either way the predicate has its exact value, so thresholds do not change.
Rational c and lam are Fractions and enter the enclosures as points, so on
a rational spectrum every comparison is plain Fraction arithmetic.

Each direction pays for its algebraic parts once: eventual_maximizer
builds the rows r_ij = tau^T P_i N^j lam_i^-j (j below the multiplicity of
lam_i) a single time and expands each vertex v once, as the products
r_ij . v; a vertex pair's coefficients are the differences of two
expansions, exactly, by linearity.  The tournament's scan reads only
the sign of a pair's dominant coefficient, and only the winner's pairs
with the other vertices run classify_sequence's threshold search: |V| - 1
searches for |V| vertices.  sup_from
is the one routine that evaluates the closed form.  verify_separator
feeds it the maximizer and threshold it has just found, and the audit
(recompute_sup_from_certificate) feeds it the ones a certificate stores.

Most candidate directions fail, and the driver rejects nearly all of them
before the maximizer tournament, by the prefix sums

    S_k = sum_{i<k} max_{v in Ext(U)} <A^i v, tau>,

the supremum over F_k = sum_{i<k} A^i U, the states reachable in exactly
k steps.  Because 0 is in U, F_k is contained in F_{k+1} and so in the
reachable set; every S_k is therefore an exact lower bound on the
supremum, and tau cannot separate once S_k > min_Q tau
(fails_prefix_check, for k up to PREFIX_CHECK_DEPTH).  The check rejects
only directions that verify_separator rejects too, so the first accepted
direction, and the verdict, do not change.  The vertex images A^i v do
not depend on tau, so one VertexImages table per decision forms each of
them once, in integers: A as integer rows over one denominator, and each
step's images as integer vectors over one common denominator, grown
lazily.  PrefixSums holds the S_k of one direction in a lazily extended
list read from that table; a rational tau is cleared to integers, so each
<tau, A^i v> is an integer dot product and only a step's maximum becomes a
Fraction.  sup_from reads its first threshold terms from the same list
and the maximizer's image A^N u from the same table, so a direction that
passes computes no term twice.  The audit calls verify_separator without
the check (an honest certificate never fails it, so there it would only
add cost), and its verification and its rebuild of the supremum share
one table.

Candidate directions come from geometry (the target's facets and the
complement of its affine hull, then the left eigenvectors) and, as the
completeness fallback, from a fair enumeration of all vectors with real
algebraic entries.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import comb, gcd, lcm

from .exactnum import Alg, IntPoly, RealAlg, interval, sturm_isolate_real_roots
from .geometry import (
    DimensionCeilingError,
    GenPolyhedron,
    _affine_basis,
    _primitive_direction,
    facet_normals,
)
from .linalg import (
    IntRows,
    RatMatrix,
    SpectralData,
    Vec,
    alg_dot,
    alg_kernel_basis,
    bilinear_rows,
    expand_inner_product,
    vec_sub,
)

AlgVec = tuple[Alg, ...]


class SeqKind(Enum):
    IDENTICALLY_ZERO = "identically_zero"
    ULTIMATELY_POSITIVE = "ultimately_positive"
    ULTIMATELY_NEGATIVE = "ultimately_negative"


@dataclass(frozen=True)
class SeqClass:
    kind: SeqKind
    threshold: int | None = None
    dominant: tuple[int, int] | None = None


@dataclass(frozen=True)
class SeparatorCertificate:
    """Everything an auditor needs to recheck sup <= min from scratch.

    min_over_q is None when the target is empty (minimum over the empty
    set, +infinity); the certificate is then vacuously valid.
    """

    tau: AlgVec
    bound: Alg
    maximizer: Vec
    threshold: int
    sup_value: Alg
    min_over_q: Alg | None


def _first_true_at_least(start: int, pred) -> int:
    """Least n >= start with pred(n) true, for a predicate that stays true
    once true; doubling then bisection."""
    lo = start
    hi = start
    while not pred(hi):
        lo = hi + 1
        hi = 2 * hi + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if pred(mid):
            hi = mid
        else:
            lo = mid + 1
    return lo


# widths that c and lam are refined to, in turn, before a threshold predicate
# whose enclosures overlap falls back to exact arithmetic
_WIDTHS = (Fraction(1, 2 ** 24), Fraction(1, 2 ** 64))


def _power_bounds(lo: Fraction, hi: Fraction, n: int) -> tuple[Fraction, Fraction]:
    """A rational interval containing x^n for every x in [lo, hi]."""
    a, b = lo ** n, hi ** n
    if lo >= 0 or n % 2:
        return a, b
    if hi <= 0:
        return b, a
    return Fraction(0), max(a, b)


def _sum_bounds(terms, n: int) -> tuple[Fraction, Fraction]:
    """A rational interval containing sum k * c * lam^n over the terms
    (k, c, lam), k >= 0."""
    lo = hi = Fraction(0)
    for k, c, lam in terms:
        plo, phi = _power_bounds(*interval(lam), n)
        clo, chi = interval(c)
        prods = (clo * plo, clo * phi, chi * plo, chi * phi)
        lo += k * min(prods)
        hi += k * max(prods)
    return lo, hi


def _sum_less(left, right, n: int, exact) -> bool:
    """Whether sum k c lam^n over `left` is below the same sum over `right`.

    Decided on rational enclosures when they separate (or touch the wrong
    way round), first as the intervals stand, then with every irrational c
    and lam refined to each width of _WIDTHS (a rational is its own
    interval); `exact()` decides the rest, and decides n = 0 at once."""
    if n > 0:
        for width in (None, *_WIDTHS):
            if width is not None:
                for _, c, lam in left + right:
                    for x in (c, lam):
                        if isinstance(x, RealAlg):
                            x.refine_below(width)
            llo, lhi = _sum_bounds(left, n)
            rlo, rhi = _sum_bounds(right, n)
            if lhi < rlo:
                return True
            if llo >= rhi:
                return False
    return exact()


class _PowerCache:
    def __init__(self, base: Alg):
        self.base = base
        self.cache: dict[int, Alg] = {0: Fraction(1), 1: base}

    def get(self, n: int) -> Alg:
        if n in self.cache:
            return self.cache[n]
        half = self.get(n // 2)
        val = half * half
        if n % 2:
            val = val * self.base
        self.cache[n] = val
        return val


def classify_sequence(s: SpectralData, v: Vec, w: Vec, tau, rows=None, coeffs=None) -> SeqClass:
    """Eventual sign of <A^n (v-w), tau>, with a certified threshold.

    The returned threshold N is the least n from which the tail-domination
    inequality |c0| C(n,j0) lam0^n > sum of the other |c| C(n,j) lam^n
    holds for every larger n, so the sign is the dominant coefficient's
    sign from N on.  From the onset, the first n past which every other
    term's ratio to the dominant term falls, the inequality stays true once
    true: one search above the onset finds the first n where it holds, and a
    walk down lowers that n while the inequality still holds one below.
    `rows` are bilinear_rows(s, tau) when the caller has them already;
    `coeffs` are the expansion of v - w itself, when the caller has it.
    """
    if coeffs is None:
        coeffs = expand_inner_product(s, vec_sub(v, w), tau, rows)
    nonzero = [(i, j, c) for i, row in enumerate(coeffs) for j, c in enumerate(row) if c]
    if not nonzero:
        return SeqClass(SeqKind.IDENTICALLY_ZERO)
    i0, j0, c0 = max(nonzero, key=lambda t: (t[0], t[1]))
    kind = SeqKind.ULTIMATELY_POSITIVE if c0 > 0 else SeqKind.ULTIMATELY_NEGATIVE
    lam0 = s.eigenvalues[i0]
    pow0 = _PowerCache(lam0)
    abs_c0 = abs(c0)
    term_caches = []
    onset = j0
    for (i, j, c) in nonzero:
        if (i, j) == (i0, j0):
            continue
        lam = s.eigenvalues[i]
        term_caches.append((lam, j, abs(c), _PowerCache(lam)))

        def ratio_decreasing(n, lam=lam, j=j):
            lhs = lam * (n + 1 - j0)
            rhs = lam0 * (n + 1 - j)
            return lhs < rhs

        onset = max(onset, _first_true_at_least(max(j, j0), ratio_decreasing))

    def domination_holds(n: int) -> bool:
        def exact():
            lhs = abs_c0 * comb(n, j0) * pow0.get(n)
            rhs = Fraction(0)
            for (_, j, absc, powi) in term_caches:
                rhs = rhs + absc * comb(n, j) * powi.get(n)
            return lhs > rhs

        return _sum_less([(comb(n, j), absc, lam) for (lam, j, absc, _) in term_caches],
                         [(comb(n, j0), abs_c0, lam0)], n, exact)

    threshold = _first_true_at_least(onset, domination_holds)
    while threshold > 0 and domination_holds(threshold - 1):
        threshold -= 1
    return SeqClass(kind, threshold, (i0, j0))


def _eventually_above(cv: list[list[Alg]], cw: list[list[Alg]]) -> bool:
    """Whether <A^n (v-w), tau> is ultimately positive, from the expansions
    cv of v and cw of w: whether the dominant coefficient of v - w, the
    nonzero one with the greatest (i, j) (eigenvalues ascend), is positive,
    found without forming the rest."""
    for rv, rw in zip(reversed(cv), reversed(cw)):
        for a, b in zip(reversed(rv), reversed(rw)):
            if a != b:
                return a > b
    return False


def eventual_maximizer(s: SpectralData, u: GenPolyhedron, tau) -> tuple[Vec, int]:
    """A vertex maximizing <A^n ., tau> for all large n (lexicographically
    smallest among ties) and a threshold N from which it beats every
    vertex at every step.

    Each vertex is expanded once; a pair's coefficients are the difference
    of two expansions.  The scan reads only the sign of a pair's dominant
    coefficient, and only the winner's pairs run the threshold search.
    That sign compares the expansions lexicographically from the dominant
    end, a total preorder, and a tie never replaces the leader, so the
    scan ends on the first of the maximal vertices in sorted order."""
    rows = bilinear_rows(s, tau)
    verts = sorted(u.vertices)
    coeffs = [expand_inner_product(s, v, tau, rows) for v in verts]
    best = 0
    for i in range(1, len(verts)):
        if _eventually_above(coeffs[i], coeffs[best]):
            best = i
    n = 0
    for i in range(len(verts)):
        if i == best:
            continue
        diff = [[a - b for a, b in zip(rv, rw)] for rv, rw in zip(coeffs[best], coeffs[i])]
        c = classify_sequence(s, verts[best], verts[i], tau, coeffs=diff)
        if c.kind is SeqKind.ULTIMATELY_NEGATIVE:
            raise AssertionError("maximizer scan failed; preorder not respected")
        if c.kind is SeqKind.ULTIMATELY_POSITIVE:
            n = max(n, c.threshold or 0)
    return verts[best], n


class VertexImages:
    """The images A^i v of the control vertices, shared by every direction
    of one decision and grown one step at a time.

    A is held as integer rows over one denominator (linalg.IntRows), and
    step i as integer vectors over one denominator: at(i) is (nums, den)
    with nums[k] / den = A^i v_k, and den shares no factor with every
    numerator of the step, so the integers stay as small as one common
    denominator allows."""

    def __init__(self, a: RatMatrix, vertices):
        self.index = {v: k for k, v in enumerate(vertices)}
        self._a = IntRows(a)
        den = lcm(*(x.denominator for v in vertices for x in v))
        self._steps = [([tuple(x.numerator * (den // x.denominator) for x in v) for v in vertices], den)]

    def at(self, i: int) -> tuple[list[tuple[int, ...]], int]:
        """(nums, den) of step i: nums[k] / den = A^i v_k."""
        while len(self._steps) <= i:
            nums, den = self._steps[-1]
            out = [self._a.times(num) for num in nums]
            den *= self._a.den
            g = gcd(den, *(x for num in out for x in num))
            self._steps.append(([tuple(x // g for x in num) for num in out], den // g))
        return self._steps[i]

    def image(self, v: Vec, i: int) -> tuple[tuple[int, ...], int]:
        """(num, den) with num / den = A^i v, for a control vertex v."""
        k = self.index.get(tuple(v))
        if k is None:
            raise ValueError("not a control vertex")
        nums, den = self.at(i)
        return nums[k], den


class PrefixSums:
    """The prefix sums S_k = sum_{i<k} max_{v in Ext(U)} <A^i v, tau>, the
    supremum of <x, tau> over the states reachable in exactly k steps;
    extended lazily, so the pre-check and sup_from share every term either
    of them computes.

    The vertex images come from `images`, the decision's VertexImages when
    the caller has it.  A rational tau is cleared to integers over one
    denominator, so each <tau, A^i v> is an integer dot product and only
    the step's maximum becomes a Fraction; an algebraic tau is dotted with
    the integer numerators and its maximum divided once by the step's
    denominator."""

    def __init__(self, s: SpectralData, u: GenPolyhedron, tau, images: VertexImages | None = None):
        self.images = images if images is not None else VertexImages(s.matrix, u.vertices)
        self.tau = tuple(tau)
        self.sums: list[Alg] = [Fraction(0)]
        self._int_tau = None
        if not any(isinstance(x, RealAlg) for x in self.tau):
            den = lcm(*(x.denominator for x in self.tau))
            self._int_tau = [x.numerator * (den // x.denominator) for x in self.tau], den

    def at(self, k: int) -> Alg:
        """S_k."""
        while len(self.sums) <= k:
            nums, den = self.images.at(len(self.sums) - 1)
            if self._int_tau is not None:
                tau, tau_den = self._int_tau
                best = Fraction(max(sum(t * x for t, x in zip(tau, num)) for num in nums),
                                tau_den * den)
            else:
                best = max(alg_dot(self.tau, num) for num in nums) / den
            self.sums.append(self.sums[-1] + best)
        return self.sums[k]


# how many prefix sums the driver's pre-check compares with min_Q tau: most
# failing directions fail at k = 1 or 2, and a direction that passes pays
# for every term up to this depth whatever its threshold
PREFIX_CHECK_DEPTH = 3


def fails_prefix_check(sums: PrefixSums, low: Alg) -> bool:
    """Whether S_k > low for some k <= PREFIX_CHECK_DEPTH, so that tau
    cannot separate a target whose minimum of <., tau> is low: S_k is a
    lower bound on the supremum, since 0 in U nests F_k in F_infinity."""
    return any(sums.at(k) > low for k in range(1, PREFIX_CHECK_DEPTH + 1))


def sup_from(s: SpectralData, u: GenPolyhedron, tau, maximizer: Vec, threshold: int,
             sums: PrefixSums | None = None) -> Alg:
    """The closed-form supremum of <x, tau> over the reachable closure,
    given an eventual maximizer and its threshold: the best vertex at each
    step below the threshold, S_threshold, then the maximizer's geometric
    tail.  `sums` are the prefix sums of tau when the caller has them."""
    if s.dim == 0:
        return Fraction(0)
    if sums is None:
        sums = PrefixSums(s, u, tau)
    # A^N (I-A)^{-1} u = (I-A)^{-1} A^N u, with A^N u = num / den
    num, den = sums.images.image(maximizer, threshold)
    return sums.at(threshold) + alg_dot(tau, s.geometric_sum_matrix().matvec(num)) / den


def sup_in_direction(s: SpectralData, u: GenPolyhedron, tau) -> Alg:
    """Exact supremum of <x, tau> over the closure of the reachable set."""
    maximizer, n = eventual_maximizer(s, u, tau)
    return sup_from(s, u, tau, maximizer, n)


def min_over_vertices(q: GenPolyhedron, tau) -> Alg | None:
    best = None
    for v in q.vertices:
        val = alg_dot(tau, v)
        if best is None or val < best:
            best = val
    return best


def verify_separator(s: SpectralData, u: GenPolyhedron, q: GenPolyhedron, tau,
                     sums: PrefixSums | None = None) -> SeparatorCertificate | None:
    """Certificate iff sup over the reachable closure <= min over the
    target (nonstrict: the reachable set itself is open).  `sums` are the
    prefix sums of tau when the caller has them."""
    tau = tuple(tau)
    if q.is_empty:
        zero_tau = tuple(Fraction(0) for _ in range(s.dim))
        maximizer = u.vertices[0] if u.vertices else ()
        return SeparatorCertificate(zero_tau, Fraction(0), maximizer, 0, Fraction(0), None)
    maximizer, n = eventual_maximizer(s, u, tau)
    sup = sup_from(s, u, tau, maximizer, n, sums)
    low = min_over_vertices(q, tau)
    assert low is not None
    if sup <= low:
        return SeparatorCertificate(tau, sup, maximizer, n, sup, low)
    return None


def recompute_sup_from_certificate(s: SpectralData, u: GenPolyhedron, cert: SeparatorCertificate,
                                   images: VertexImages | None = None) -> Alg:
    """Audit path: rebuild the supremum from (tau, maximizer, threshold)
    alone, without rerunning the maximizer search.  `images` are the
    vertex images when the caller has them; the prefix sums are formed
    afresh."""
    return sup_from(s, u, cert.tau, cert.maximizer, cert.threshold, PrefixSums(s, u, cert.tau, images))


# ---------------------------------------------------------------------------
# candidate streams
# ---------------------------------------------------------------------------


def left_eigenvectors(s: SpectralData) -> list[AlgVec]:
    """Kernel bases of (A^T - lam I) for each eigenvalue."""
    out = []
    at = s.matrix.transpose()
    for lam in s.eigenvalues:
        rows = [[x - lam if i == j else x for j, x in enumerate(at.row(i))]
                for i in range(s.dim)]
        out.extend(tuple(v) for v in alg_kernel_basis(rows))
    return out


def _target_direction_seeds(q: GenPolyhedron) -> list[Vec]:
    """Negated facet normals of the target; for lower-dimensional targets,
    also the +/- orthogonal complement directions of its affine hull."""
    try:
        seeds = [tuple(-x for x in n) for n in facet_normals(q)]
    except DimensionCeilingError:
        seeds = []
    v0, basis = _affine_basis(q.vertices)
    if len(basis) < q.dim:
        if basis:
            comp = RatMatrix.from_rows([list(b) for b in basis]).kernel_basis()
        else:
            comp = [tuple(Fraction(1 if i == j else 0) for j in range(q.dim))
                    for i in range(q.dim)]
        for n in comp:
            n = _primitive_direction(n)
            seeds.append(n)
            seeds.append(tuple(-x for x in n))
    return seeds


def extremal_candidates(s: SpectralData, q: GenPolyhedron, budget: int):
    """Stream of geometry-derived separator candidates.

    Stages: (1) target-derived directions; (2) when budget > 0, the left
    eigenvectors with both signs.  Directions may repeat up to positive
    scaling; the driver's candidate stream removes the repeats.
    """
    if not q.is_empty:
        for n in _target_direction_seeds(q):
            yield n
    if budget <= 0:
        return
    for ev in left_eigenvectors(s):
        yield ev
        yield tuple(-x for x in ev)


def enumerate_algebraic_vectors(dim: int, budget: tuple[int, int]):
    """Fair dovetailed enumeration of nonzero vectors with real algebraic
    entries.

    Batches walk (degree, height) pairs along increasing degree + height;
    batch (D, H) isolates the real roots of every integer polynomial with
    degree exactly D and height exactly H, and emits every dim-tuple over
    the cumulative root pool that uses at least one new root.  Positive
    multiples of earlier vectors are emitted too; the driver's candidate
    stream removes them.  Every vector with algebraic entries appears once
    the budget covers the degrees and heights of its entries' minimal
    polynomials.
    """
    max_deg, max_height = budget
    known: list[Alg] = []
    seen: set[Alg] = set()  # a RealAlg hashes by minimal polynomial

    for total in range(2, max_deg + max_height + 1):
        for deg in range(1, total):
            height = total - deg
            if deg > max_deg or height > max_height:
                continue
            new_roots: list[Alg] = []
            for coeffs in _int_polys(deg, height):
                for root in sturm_isolate_real_roots(IntPoly(coeffs)):
                    if root not in seen:
                        seen.add(root)
                        new_roots.append(root)
            if not new_roots:
                continue
            pool = known + new_roots
            first_new = len(known)
            for idxs in itertools.product(range(len(pool)), repeat=dim):
                if all(i < first_new for i in idxs):
                    continue
                v = tuple(pool[i] for i in idxs)
                if any(v):
                    yield v
            known = pool


def _int_polys(deg: int, height: int):
    """Coefficient tuples with degree exactly deg, max |coeff| exactly
    height, positive leading coefficient."""
    ranges = [range(-height, height + 1)] * deg + [range(1, height + 1)]
    for coeffs in itertools.product(*ranges):
        if max(abs(c) for c in coeffs) == height:
            yield coeffs
