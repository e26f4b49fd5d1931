"""Non-reachability certificates for normalized systems.

Directions tau are tested as separators of the closure of the reachable
set from the target: the supremum of <x, tau> over the closure has the
closed form

    sum_{i<N} max_{v in Ext(U)} <A^i v, tau>  +  <A^N (I-A)^{-1} u, tau>

where u is a vertex that eventually maximizes <A^n ., tau> and N a
threshold past which it dominates every other vertex.  Both are computed
exactly: the sequence <A^n (v-w), tau> expands over the nonzero
eigenvalues as sum C(n,j) lam_i^n c_ij from n = transient on (the
multiplicity of the eigenvalue 0, past which A^n vanishes on its
generalized eigenspace), its eventual sign is the sign of the dominant
coefficient, and the threshold is the least n from which an explicit
tail-domination inequality, checked with exact algebraic comparisons,
holds for good; classify_sequence finds it with one search, and
eventual_maximizer raises it to the transient when it is below.
Those comparisons weigh sums of terms k |c| lam^n.  Multiplied by D^n,
for D the least common denominator of A, and by the coefficients' common
denominator, they weigh k |N| beta^n instead, for the numerators N and
beta = D lam (SpectralData.betas), so on a rational spectrum with a
rational direction every term is an int and each comparison is decided
at once by integer arithmetic; the same holds for quadratic terms in one
field, on integer coordinates in Q(sqrt d).  Any other comparison, with a
term of degree 3 or more or terms from two fields, is first decided on
rational interval enclosures of the terms, built from the intervals of N
and beta without computing beta^n; only when the enclosures still overlap
after refining N and beta to two fixed widths (and always at n = 0, where
no product of irrationals arises) is it decided by exact algebraic
arithmetic.  Either way the predicate has its exact value, so thresholds
do not change.

Each direction pays for its algebraic parts once: eventual_maximizer
builds the rows r_ij = tau^T P_i (A - lam_i I)^j lam_i^-j (j below the
multiplicity of lam_i, each row the one before times (B - beta_i I) /
beta_i) a single time, as numerators over one denominator, and expands
each vertex, cleared to integers over one denominator, once, as the
products r_ij . v.  The tournament's scan reads only the sign of a pair's
dominant coefficient, and only the winner's pairs with the other
vertices run classify_sequence's threshold search, each on r_ij . (v - w)
over the nonzero coordinates of the integer difference: |V| - 1 searches
for |V| vertices.  sup_from is the one routine that evaluates the closed
form, for the direction of the PrefixSums it is given, with (I - A)^{-1}
(SpectralData.resolvent) applied in integers by RatMatrix.step, so on a
rational direction the supremum is the one Fraction formed past the
prefix sums; verify_separator feeds it the maximizer and threshold it has
just found.  The audit runs verify_separator on the
stored direction and compares the certificate it returns whole with the
stored one, so a stored maximizer or threshold is checked by equality,
never fed to sup_from.  Each routine takes the decision's table, or
prefix sums read from it, as a required argument, and tau is read from
the sums, so no caller can pass one direction beside the sums of
another; only sup_in_direction, which checks one direction on its own,
builds a table of its own.  It and recompute_sup_from_certificate have
no caller in the library: the benchmark's span table still names them.

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
them once, in integers: each step's images are one RatMatrix, a row per
vertex over one common denominator, the step before times A^T, grown
lazily.  PrefixSums holds the S_k of one direction in a lazily extended
list read from that table; a rational tau is cleared to integers over its
denominator t, so each <tau, A^i v> is an integer dot product and t S_k
is kept as an integer over the steps' common denominator.  The target's
vertices are one RatMatrix, a row per vertex, formed once per decision,
so t min_Q tau is one integer dot product per vertex over its
denominator, t cancels, and the check cross-multiplies
integers: no Fraction is formed for a direction it rejects.  sup_from
reads S_N from the same list and the maximizer's image A^N u from the
same table, so a direction that passes computes no term twice.  The
audit calls verify_separator without
the check: an honest certificate never fails it, so there it would only
add cost.

The supremum is S_N plus the tail <A^N (I-A)^{-1} u, tau>, a sum of
nonnegative terms.  When the tail is positive the supremum is not
attained, since every later tail is positive too, and sup <= min_Q tau
separates; when it is 0 the supremum is S_N, attained in N steps, and
only sup < min_Q tau does.  On an invertible A restricted to the span of
its controls' orbits the tail is always positive: 0 is in the relative
interior of U and tau is nonzero on that span.

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
from math import comb, lcm

from .exactnum import Alg, IntPoly, RealAlg, cleared, in_one_quadratic_field, interval, sturm_isolate_real_roots
from .geometry import (
    DimensionCeilingError,
    GenPolyhedron,
    _affine_basis,
    _primitive_direction,
    facet_normals,
)
from .linalg import RatMatrix, SpectralData, Vec, alg_dot, alg_kernel_basis, bilinear_rows, expand_inner_product

AlgVec = tuple[Alg, ...]


class SeqKind(Enum):
    IDENTICALLY_ZERO = "identically_zero"
    ULTIMATELY_POSITIVE = "ultimately_positive"
    ULTIMATELY_NEGATIVE = "ultimately_negative"


@dataclass(frozen=True)
class SeqClass:
    kind: SeqKind
    threshold: int | None = None


@dataclass(frozen=True)
class SeparatorCertificate:
    """Everything an auditor needs to recheck sup <= min from scratch.

    min_over_q is None when the target is empty (minimum over the empty
    set, +infinity); the certificate is then vacuously valid, and the one
    verify_separator returns holds the zero direction, the first control
    vertex, threshold 0 and supremum 0.
    """

    tau: AlgVec
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


# widths that c and beta are refined to, in turn, before a threshold predicate
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
    """A rational interval containing sum k * c * beta^n over the terms
    (k, c, beta), k >= 0."""
    lo = hi = Fraction(0)
    for k, c, beta in terms:
        plo, phi = _power_bounds(*interval(beta), n)
        clo, chi = interval(c)
        prods = (clo * plo, clo * phi, chi * plo, chi * phi)
        lo += k * min(prods)
        hi += k * max(prods)
    return lo, hi


def _sum_less(left, right, n: int, exact) -> bool:
    """Whether sum k c beta^n over `left` is below the same sum over `right`.

    `exact()` decides at once when n = 0 or every c and beta is an integer,
    a rational or quadratic in one field, where exact arithmetic needs no
    composed polynomial.  Otherwise the enclosures decide when they separate
    (or touch the wrong way round), first as the intervals stand, then with
    every irrational c and beta refined to each width of _WIDTHS (a rational
    is its own interval); `exact()` decides the rest."""
    if n > 0 and not in_one_quadratic_field(x for _, c, beta in left + right for x in (c, beta)):
        for width in (None, *_WIDTHS):
            if width is not None:
                for _, c, beta in left + right:
                    for x in (c, beta):
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
        self.cache: dict[int, Alg] = {0: 1, 1: base}

    def get(self, n: int) -> Alg:
        if n in self.cache:
            return self.cache[n]
        half = self.get(n // 2)
        val = half * half
        if n % 2:
            val = val * self.base
        self.cache[n] = val
        return val


def classify_sequence(s: SpectralData, coeffs: list[list[Alg]]) -> SeqClass:
    """Eventual sign of <A^n (v-w), tau>, with a certified threshold, from
    coeffs, the expansion of v - w against tau (expand_inner_product):
    numerators over a positive denominator, which no comparison reads.

    The returned threshold N is the least n from which the tail-domination
    inequality |c0| C(n,j0) lam0^n > sum of the other |c| C(n,j) lam^n
    holds for every larger n, so the sign is the dominant coefficient's
    sign from N on.  Multiplied by D^n and the denominator, it compares the
    numerators with the betas, |N0| C(n,j0) beta0^n > sum |N| C(n,j)
    beta^n, in integers on a rational spectrum.  From the onset, the first
    n past which every other term's ratio to the dominant term falls, the
    inequality stays true once true: one search above the onset finds the
    first n where it holds, and a walk down lowers that n while the
    inequality still holds one below.
    """
    nonzero = [(i, j, c) for i, row in enumerate(coeffs) for j, c in enumerate(row) if c]
    if not nonzero:
        return SeqClass(SeqKind.IDENTICALLY_ZERO)
    i0, j0, c0 = max(nonzero, key=lambda t: (t[0], t[1]))
    kind = SeqKind.ULTIMATELY_POSITIVE if c0 > 0 else SeqKind.ULTIMATELY_NEGATIVE
    beta0 = s.betas[i0]
    pow0 = _PowerCache(beta0)
    abs_c0 = abs(c0)
    term_caches = []
    onset = j0
    for (i, j, c) in nonzero:
        if (i, j) == (i0, j0):
            continue
        beta = s.betas[i]
        term_caches.append((beta, j, abs(c), _PowerCache(beta)))

        def ratio_decreasing(n, beta=beta, j=j):
            return beta * (n + 1 - j0) < beta0 * (n + 1 - j)

        onset = max(onset, _first_true_at_least(max(j, j0), ratio_decreasing))

    def domination_holds(n: int) -> bool:
        def exact():
            lhs = abs_c0 * comb(n, j0) * pow0.get(n)
            rhs = 0
            for (_, j, absc, powi) in term_caches:
                rhs = rhs + absc * comb(n, j) * powi.get(n)
            return lhs > rhs

        return _sum_less([(comb(n, j), absc, beta) for (beta, j, absc, _) in term_caches],
                         [(comb(n, j0), abs_c0, beta0)], n, exact)

    threshold = _first_true_at_least(onset, domination_holds)
    while threshold > 0 and domination_holds(threshold - 1):
        threshold -= 1
    return SeqClass(kind, threshold)


def _eventually_above(cv: list[list[Alg]], cw: list[list[Alg]]) -> bool:
    """Whether <A^n (v-w), tau> is ultimately positive, from the expansions
    cv of v and cw of w over one denominator: whether the dominant
    coefficient of v - w, the nonzero one with the greatest (i, j)
    (eigenvalues ascend), is positive, found without forming the rest."""
    for rv, rw in zip(reversed(cv), reversed(cw)):
        for a, b in zip(reversed(rv), reversed(rw)):
            if a != b:
                return a > b
    return False


def eventual_maximizer(s: SpectralData, u: GenPolyhedron, tau) -> tuple[Vec, int]:
    """A vertex maximizing <A^n ., tau> for all large n (lexicographically
    smallest among ties) and a threshold N from which it beats every
    vertex at every step, at least s.transient, where the expansion starts
    to hold.

    The vertices are read as integers over one denominator, a RatMatrix
    with a row per vertex, and each is expanded once against the rows of
    tau; the scan reads only the sign of a pair's dominant coefficient,
    and only the winner's pairs run the threshold search, each on the
    expansion of the integer difference of the two vertices.  That sign compares the expansions lexicographically
    from the dominant end, a total preorder, and a tie never replaces the
    leader, so the scan ends on the first of the maximal vertices in sorted
    order."""
    rows, _ = bilinear_rows(s, tau)
    # over one positive denominator the numerators sort as the vertices do
    verts, nums = zip(*sorted(zip(u.vertices, RatMatrix.from_rows(u.vertices).nums), key=lambda pair: pair[1]))
    coeffs = [expand_inner_product(rows, v) for v in nums]
    best = 0
    for i in range(1, len(verts)):
        if _eventually_above(coeffs[i], coeffs[best]):
            best = i
    n = s.transient
    top = nums[best]
    for i, v in enumerate(nums):
        if i == best:
            continue
        c = classify_sequence(s, expand_inner_product(rows, [a - b for a, b in zip(top, v)]))
        if c.kind is SeqKind.ULTIMATELY_NEGATIVE:
            raise AssertionError("maximizer scan failed; preorder not respected")
        if c.kind is SeqKind.ULTIMATELY_POSITIVE:
            n = max(n, c.threshold or 0)
    return verts[best], n


class VertexImages:
    """The images A^i v of the control vertices, shared by every direction
    of one decision and grown one step at a time.

    Step i is the RatMatrix whose row k is A^i v_k, the step before times
    A^T, so its rows are integers over one denominator in lowest terms and
    stay as small as one common denominator allows; the product multiplies
    only the nonzero entries of A."""

    def __init__(self, a: RatMatrix, vertices):
        self.index = {v: k for k, v in enumerate(vertices)}
        self._at = a.transpose()
        self._steps = [RatMatrix.from_rows(vertices)]

    def at(self, i: int) -> tuple[tuple[tuple[int, ...], ...], int]:
        """(nums, den) of step i: nums[k] / den = A^i v_k."""
        while len(self._steps) <= i:
            self._steps.append(self._steps[-1] @ self._at)
        step = self._steps[i]
        return step.nums, step.den

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

    The vertex images come from `images`, the decision's VertexImages.  tau
    is cleared to integers over one denominator t when it is rational
    (exactnum.cleared), and each S_k is kept as t S_k = num_k / den_k, with
    den_k the lcm of the step denominators so far: each <tau, A^i v> is
    then an integer dot product, a step adds its maximum by integer
    products, and no Fraction is formed until at(k) asks for S_k itself.
    An algebraic tau is dotted as it is, over t = 1, so num_k is a real
    algebraic number and den_k still an integer."""

    def __init__(self, images: VertexImages, tau):
        self.images = images
        self.tau = tuple(tau)
        self._tau_nums, self._tau_den = cleared(self.tau)
        self._scaled: list[tuple[Alg, int]] = [(0, 1)]

    def dot(self, num):
        """t <tau, num> for an integer vector num: an int when tau is
        rational."""
        return sum(t * x for t, x in zip(self._tau_nums, num))

    def _over(self, x, den: int) -> Alg:
        """x / (den t), for x a dot product."""
        den *= self._tau_den
        return Fraction(x, den) if isinstance(x, int) else x / den

    def scaled(self, k: int) -> tuple[Alg, int]:
        """(num_k, den_k) with num_k / den_k = t S_k, den_k > 0."""
        while len(self._scaled) <= k:
            nums, den = self.images.at(len(self._scaled) - 1)
            total, prev = self._scaled[-1]
            common = lcm(prev, den)
            top = max(self.dot(num) for num in nums)
            self._scaled.append((total * (common // prev) + top * (common // den), common))
        return self._scaled[k]

    def at(self, k: int) -> Alg:
        """S_k."""
        return self._over(*self.scaled(k))

    def value(self, num, den: int) -> Alg:
        """<tau, num / den> for an integer vector num."""
        return self._over(self.dot(num), den)


# how many prefix sums the driver's pre-check compares with min_Q tau: most
# failing directions fail at k = 1 or 2, and a direction that passes pays
# for every term up to this depth whatever its threshold
PREFIX_CHECK_DEPTH = 3


def fails_prefix_check(sums: PrefixSums, target: RatMatrix) -> bool:
    """Whether S_k > min_Q tau for some k <= PREFIX_CHECK_DEPTH, so that tau
    cannot separate the target: S_k is a lower bound on the supremum, since
    0 in U nests F_k in F_infinity.  target is the decision's table of the
    target vertices, a RatMatrix with a row per vertex.  With t tau's
    denominator, t min_Q tau is the least dot product over den, and t S_k
    is num_k / den_k (PrefixSums.scaled): t cancels, and the test is
    num_k den > low den_k, in integers when tau is rational."""
    den = target.den
    low = min(sums.dot(num) for num in target.nums)
    for k in range(1, PREFIX_CHECK_DEPTH + 1):
        num_k, den_k = sums.scaled(k)
        if num_k * den > low * den_k:
            return True
    return False


def sup_from(s: SpectralData, sums: PrefixSums, maximizer: Vec, threshold: int) -> Alg:
    """The closed-form supremum of <x, tau> over the reachable closure, for
    the direction tau of `sums`, given an eventual maximizer and its
    threshold: the best vertex at each step below the threshold,
    S_threshold, then the maximizer's geometric tail."""
    if s.dim == 0:
        return Fraction(0)
    # A^N (I-A)^{-1} u = (I-A)^{-1} A^N u, with A^N u = num / den
    num, den = s.resolvent().step(*sums.images.image(maximizer, threshold))
    return sums.at(threshold) + sums.value(num, den)


def sup_in_direction(s: SpectralData, u: GenPolyhedron, tau) -> Alg:
    """Exact supremum of <x, tau> over the closure of the reachable set,
    with a vertex-image table of its own."""
    sums = PrefixSums(VertexImages(s.matrix, u.vertices), tau)
    maximizer, n = eventual_maximizer(s, u, sums.tau)
    return sup_from(s, sums, maximizer, n)


def min_over_vertices(q: GenPolyhedron, tau) -> Alg | None:
    best = None
    for v in q.vertices:
        val = alg_dot(tau, v)
        if best is None or val < best:
            best = val
    return best


def verify_separator(s: SpectralData, u: GenPolyhedron, q: GenPolyhedron,
                     sums: PrefixSums) -> SeparatorCertificate | None:
    """Certificate iff sup over the reachable closure <= min over the
    target, for the direction tau of `sums`: nonstrict when the tail past
    S_N is positive, so that no reachable state attains the supremum, and
    strict when it is 0 and S_N attains it."""
    if q.is_empty:
        zero_tau = tuple(Fraction(0) for _ in range(s.dim))
        maximizer = u.vertices[0] if u.vertices else ()
        return SeparatorCertificate(zero_tau, maximizer, 0, Fraction(0), None)
    tau = sums.tau
    maximizer, n = eventual_maximizer(s, u, tau)
    sup = sup_from(s, sums, maximizer, n)
    low = min_over_vertices(q, tau)
    assert low is not None
    if sup < low or (sup == low and sup != sums.at(n)):
        return SeparatorCertificate(tau, maximizer, n, sup, low)
    return None


def recompute_sup_from_certificate(s: SpectralData, cert: SeparatorCertificate,
                                   images: VertexImages) -> Alg:
    """The supremum rebuilt from (tau, maximizer, threshold) alone,
    without rerunning the maximizer search; the prefix sums are formed
    afresh from `images`."""
    return sup_from(s, PrefixSums(images, cert.tau), cert.maximizer, cert.threshold)


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
