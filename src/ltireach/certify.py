"""Non-reachability certificates for normalized systems.

Directions tau are tested as separators of the closure of the reachable
set from the target: the supremum of <x, tau> over the closure has the
closed form

    sum_{i<N} max_{v in Ext(U)} <A^i v, tau>  +  <A^N (I-A)^{-1} u, tau>

where u is a vertex that eventually maximizes <A^n ., tau> and N a
threshold past which it dominates every other vertex.  Both are computed
exactly: the sequence <A^n (v-w), tau> expands over the eigenvalue basis
as sum C(n,j) lam_i^n c_ij, its eventual sign is the sign of the
dominant coefficient, and the threshold is certified by an explicit
tail-domination inequality checked with exact algebraic comparisons.
Those comparisons weigh sums of terms k |c| lam^n.  Each is first decided
on rational interval enclosures of the terms, built from the intervals of
c and lam without computing lam^n; only when the enclosures still overlap
after refining c and lam to two fixed widths (and always at n = 0, where no
product of irrationals arises) is it decided by exact algebraic arithmetic.
Either way the predicate has its exact value, so thresholds do not change.

Each direction pays for its algebraic parts once: eventual_maximizer
builds the rows r_ij = tau^T P_i N^j lam_i^-j (j below the multiplicity of
lam_i) a single time, so every vertex pair's coefficients are the products
r_ij . (v-w) with rational v-w.  sup_from
is the one routine that evaluates the closed form.  verify_separator
feeds it the maximizer and threshold it has just found, and the audit
(recompute_sup_from_certificate) feeds it the ones a certificate stores.

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
from math import comb

from .exactnum import ALG_ONE, ALG_ZERO, IntPoly, RealAlg, as_alg, sturm_isolate_real_roots
from .geometry import (
    DimensionCeilingError,
    GenPolyhedron,
    _affine_basis,
    _primitive_direction,
    facet_normals,
)
from .linalg import (
    RatMatrix,
    SpectralData,
    Vec,
    alg_kernel_basis,
    bilinear_rows,
    expand_inner_product,
    vec_sub,
)

AlgVec = tuple[RealAlg, ...]


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
    bound: RealAlg
    maximizer: Vec
    threshold: int
    sup_value: RealAlg
    min_over_q: RealAlg | None


def _alg_vec(v) -> AlgVec:
    return tuple(as_alg(x) for x in v)


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
        plo, phi = _power_bounds(*lam.interval(), n)
        clo, chi = c.interval()
        prods = (clo * plo, clo * phi, chi * plo, chi * phi)
        lo += k * min(prods)
        hi += k * max(prods)
    return lo, hi


def _sum_less(left, right, n: int, exact) -> bool:
    """Whether sum k c lam^n over `left` is below the same sum over `right`.

    Decided on rational enclosures when they separate (or touch the wrong
    way round), first as the intervals stand, then with every c and lam
    refined to each width of _WIDTHS; `exact()` decides the rest, and
    decides n = 0 at once."""
    if n > 0:
        for width in (None, *_WIDTHS):
            if width is not None:
                for _, c, lam in left + right:
                    c.refine_below(width)
                    lam.refine_below(width)
            llo, lhi = _sum_bounds(left, n)
            rlo, rhi = _sum_bounds(right, n)
            if lhi < rlo:
                return True
            if llo >= rhi:
                return False
    return exact()


class _PowerCache:
    def __init__(self, base: RealAlg):
        self.base = base
        self.cache: dict[int, RealAlg] = {0: ALG_ONE, 1: base}

    def get(self, n: int) -> RealAlg:
        if n in self.cache:
            return self.cache[n]
        half = self.get(n // 2)
        val = half * half
        if n % 2:
            val = val * self.base
        self.cache[n] = val
        return val


def classify_sequence(s: SpectralData, v: Vec, w: Vec, tau, rows=None) -> SeqClass:
    """Eventual sign of <A^n (v-w), tau>, with a certified threshold.

    The returned threshold N satisfies the tail-domination inequality
    |c0| C(n,j0) lam0^n > sum of the other |c| C(n,j) lam^n for every
    n >= N, so the sign is the dominant coefficient's sign from N on.
    `rows` are bilinear_rows(s, tau) when the caller has them already.
    """
    coeffs = expand_inner_product(s, vec_sub(v, w), tau, rows)
    nonzero = [(i, j, c) for i, row in enumerate(coeffs) for j, c in enumerate(row)
               if c.sign() != 0]
    if not nonzero:
        return SeqClass(SeqKind.IDENTICALLY_ZERO)
    i0, j0, c0 = max(nonzero, key=lambda t: (t[0], t[1]))
    kind = SeqKind.ULTIMATELY_POSITIVE if c0.sign() > 0 else SeqKind.ULTIMATELY_NEGATIVE
    others = [(i, j, c) for (i, j, c) in nonzero if (i, j) != (i0, j0)]

    lam0 = s.eigenvalues[i0]
    pow0 = _PowerCache(lam0)
    abs_c0 = abs(c0)
    t_count = len(others)
    crossovers = []
    term_caches = []
    for (i, j, c) in others:
        lam = s.eigenvalues[i]
        powi = _PowerCache(lam)
        absc = abs(c)
        term_caches.append((lam, j, absc, powi))
        start = max(j, j0)

        def ratio_decreasing(n, lam=lam, j=j):
            lhs = lam * (n + 1 - j0)
            rhs = lam0 * (n + 1 - j)
            return lhs.compare(rhs) < 0

        onset = _first_true_at_least(start, ratio_decreasing)

        def share_small(n, lam=lam, j=j, absc=absc, powi=powi):
            def exact():
                lhs = absc * (t_count * comb(n, j)) * powi.get(n)
                rhs = abs_c0 * comb(n, j0) * pow0.get(n)
                return lhs.compare(rhs) < 0

            return _sum_less([(t_count * comb(n, j), absc, lam)],
                             [(comb(n, j0), abs_c0, lam0)], n, exact)

        crossovers.append(_first_true_at_least(onset, share_small))
    n_star = max(crossovers, default=j0)
    n_star = max(n_star, j0)

    def domination_holds(n: int) -> bool:
        def exact():
            lhs = abs_c0 * comb(n, j0) * pow0.get(n)
            rhs = ALG_ZERO
            for (_, j, absc, powi) in term_caches:
                rhs = rhs + absc * comb(n, j) * powi.get(n)
            return lhs.compare(rhs) > 0

        return _sum_less([(comb(n, j), absc, lam) for (lam, j, absc, _) in term_caches],
                         [(comb(n, j0), abs_c0, lam0)], n, exact)

    threshold = n_star
    while threshold > 0 and domination_holds(threshold - 1):
        threshold -= 1
    return SeqClass(kind, threshold, (i0, j0))


def eventual_maximizer(s: SpectralData, u: GenPolyhedron, tau) -> tuple[Vec, int]:
    """A vertex maximizing <A^n ., tau> for all large n (lexicographically
    smallest among ties) and a threshold N from which it beats every
    vertex at every step."""
    tau = _alg_vec(tau)
    rows = bilinear_rows(s, tau)
    verts = sorted(u.vertices)
    cache: dict[tuple[int, int], SeqClass] = {}

    def cls(ia: int, ib: int) -> SeqClass:
        key = (ia, ib)
        if key not in cache:
            cache[key] = classify_sequence(s, verts[ia], verts[ib], tau, rows)
        return cache[key]

    best = 0
    for i in range(1, len(verts)):
        if cls(best, i).kind is SeqKind.ULTIMATELY_NEGATIVE:
            best = i
    # lexicographically first among vertices tied with the maximal one
    for i in range(len(verts)):
        if i == best:
            break
        if cls(i, best).kind is SeqKind.IDENTICALLY_ZERO:
            best = i
            break
    n = 0
    for i in range(len(verts)):
        if i == best:
            continue
        c = cls(best, i)
        if c.kind is SeqKind.ULTIMATELY_NEGATIVE:
            raise AssertionError("maximizer scan failed; preorder not respected")
        if c.kind is SeqKind.ULTIMATELY_POSITIVE:
            n = max(n, c.threshold or 0)
    return verts[best], n


def sup_from(s: SpectralData, u: GenPolyhedron, tau, maximizer: Vec, threshold: int) -> RealAlg:
    """The closed-form supremum of <x, tau> over the reachable closure,
    given an eventual maximizer and its threshold: the best vertex at each
    step below the threshold, then the maximizer's geometric tail."""
    tau = _alg_vec(tau)
    if s.dim == 0:
        return ALG_ZERO
    total = ALG_ZERO
    power = RatMatrix.identity(s.dim)
    for _ in range(threshold):
        best = None
        for v in u.vertices:
            val = _tau_dot(tau, power.matvec(v))
            if best is None or val.compare(best) > 0:
                best = val
        total = total + best
        power = power @ s.matrix
    tail = power @ s.geometric_sum_matrix()
    return total + _tau_dot(tau, tail.matvec(maximizer))


def sup_in_direction(s: SpectralData, u: GenPolyhedron, tau) -> RealAlg:
    """Exact supremum of <x, tau> over the closure of the reachable set."""
    maximizer, n = eventual_maximizer(s, u, tau)
    return sup_from(s, u, tau, maximizer, n)


def _tau_dot(tau: AlgVec, v) -> RealAlg:
    acc = ALG_ZERO
    for t, x in zip(tau, v):
        acc = acc + t * as_alg(x)
    return acc


def min_over_vertices(q: GenPolyhedron, tau) -> RealAlg | None:
    tau = _alg_vec(tau)
    best = None
    for v in q.vertices:
        val = _tau_dot(tau, v)
        if best is None or val.compare(best) < 0:
            best = val
    return best


def verify_separator(s: SpectralData, u: GenPolyhedron, q: GenPolyhedron, tau) -> SeparatorCertificate | None:
    """Certificate iff sup over the reachable closure <= min over the
    target (nonstrict: the reachable set itself is open)."""
    tau = _alg_vec(tau)
    if q.is_empty:
        zero_tau = tuple(ALG_ZERO for _ in range(s.dim))
        maximizer = u.vertices[0] if u.vertices else ()
        return SeparatorCertificate(zero_tau, ALG_ZERO, maximizer, 0, ALG_ZERO, None)
    maximizer, n = eventual_maximizer(s, u, tau)
    sup = sup_from(s, u, tau, maximizer, n)
    low = min_over_vertices(q, tau)
    assert low is not None
    if sup.compare(low) <= 0:
        return SeparatorCertificate(tau, sup, maximizer, n, sup, low)
    return None


def recompute_sup_from_certificate(s: SpectralData, u: GenPolyhedron, cert: SeparatorCertificate) -> RealAlg:
    """Audit path: rebuild the supremum from (tau, maximizer, threshold)
    alone, without rerunning the maximizer search."""
    return sup_from(s, u, cert.tau, cert.maximizer, cert.threshold)


# ---------------------------------------------------------------------------
# candidate streams
# ---------------------------------------------------------------------------


def left_eigenvectors(s: SpectralData) -> list[AlgVec]:
    """Kernel bases of (A^T - lam I) for each eigenvalue."""
    out = []
    at = s.matrix.transpose()
    for lam in s.eigenvalues:
        rows = [[as_alg(x) - lam if i == j else as_alg(x) for j, x in enumerate(at.row(i))]
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
            yield _alg_vec(n)
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
    known: list[RealAlg] = []
    buckets: dict[tuple, list[RealAlg]] = {}

    def is_new(root: RealAlg) -> bool:
        bucket = buckets.setdefault(root.minpoly.coeffs, [])
        if any(root.equals(r) for r in bucket):
            return False
        bucket.append(root)
        return True

    for total in range(2, max_deg + max_height + 1):
        for deg in range(1, total):
            height = total - deg
            if deg > max_deg or height > max_height:
                continue
            new_roots: list[RealAlg] = []
            for coeffs in _int_polys(deg, height):
                for root in sturm_isolate_real_roots(IntPoly(coeffs)):
                    if is_new(root):
                        new_roots.append(root)
            if not new_roots:
                continue
            pool = known + new_roots
            first_new = len(known)
            for idxs in itertools.product(range(len(pool)), repeat=dim):
                if all(i < first_new for i in idxs):
                    continue
                v = tuple(pool[i] for i in idxs)
                if any(x.sign() != 0 for x in v):
                    yield v
            known = pool


def _int_polys(deg: int, height: int):
    """Coefficient tuples with degree exactly deg, max |coeff| exactly
    height, positive leading coefficient."""
    ranges = [range(-height, height + 1)] * deg + [range(1, height + 1)]
    for coeffs in itertools.product(*ranges):
        if max(abs(c) for c in coeffs) == height:
            yield coeffs
