import itertools
import random
from collections import Counter
from fractions import Fraction
from math import gcd

from ltireach.certify import (
    PREFIX_CHECK_DEPTH,
    PrefixSums,
    SeqKind,
    VertexImages,
    enumerate_algebraic_vectors,
    eventual_maximizer,
    extremal_candidates,
    left_eigenvectors,
    min_over_vertices,
    recompute_sup_from_certificate,
    sup_from,
    sup_in_direction,
    verify_separator,
)
from ltireach.exactnum import RealAlg, interval, sturm_isolate_real_roots
from ltireach.geometry import ControlSet, GenPolyhedron, constraint, lp_solve
from ltireach.linalg import IntRows, RatMatrix, bilinear_rows, expand_inner_product, vec
from ltireach.preprocess import LtiSystem
from oracles import (FractionPrefixSums, classify, decompose, dominant_index, fraction_sup_from,
                     fraction_certificate, int_poly, pairwise_eventual_maximizer, prefix_sums, rat, sign)

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])
DIAG_S = decompose(DIAG_A)


def alg(x):
    return F(x)


def partial_sum_max(a, u, tau, n):
    """LP maximum of <tau, x> over the n-step forward input sums (tau rational)."""
    verts = list(u.vertices)
    nv = len(verts)
    cons = []
    obj = []
    for step in range(n + 1):
        row = [0] * ((n + 1) * nv)
        for j in range(nv):
            row[step * nv + j] = 1
        cons.append(constraint(row, "==", 1))
    for step in range(n + 1):
        ap = a.power(step)
        for v in verts:
            obj.append(sum(t * x for t, x in zip(tau, ap.matvec(v))))
    res = lp_solve(obj, cons, (n + 1) * nv, nonneg=[True] * ((n + 1) * nv))
    assert res.status == "optimal"
    return res.value


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


def test_classify_quad_positive():
    c = classify(DIAG_S, vec(2, 1), vec(0, 1), (alg(1), alg(0)))
    assert c.kind is SeqKind.ULTIMATELY_POSITIVE
    assert c.threshold == 0
    # oracle: direct evaluation for n = 0..20
    for n in range(21):
        val = sum(t * x for t, x in zip((1, 0), DIAG_A.power(n).matvec(vec(2, 0))))
        assert val > 0


def test_classify_identically_zero():
    c = classify(DIAG_S, vec(2, 1), vec(2, 1), (alg(1), alg(1)))
    assert c.kind is SeqKind.IDENTICALLY_ZERO
    assert c.threshold is None


def test_classify_quad_negative():
    c = classify(DIAG_S, vec(2, 1), vec(0, 1), (alg(-1), alg(1)))
    assert c.kind is SeqKind.ULTIMATELY_NEGATIVE
    for n in range(11):
        val = sum(t * x for t, x in zip((-1, 1), DIAG_A.power(n).matvec(vec(2, 0))))
        assert val < 0


def test_classify_threshold_tail_domination():
    # mixed signs force a positive threshold: s_n = -3*(1/3)^n + (2/3)^n
    s = DIAG_S
    # diff (a, b) gives coefficients a on lam 1/3 and b on lam 2/3 under tau=(1,1)
    c = classify(s, vec(-3, 1), vec(0, 0), (alg(1), alg(1)))
    assert c.kind is SeqKind.ULTIMATELY_POSITIVE
    n0 = c.threshold
    assert n0 is not None
    # domination inequality holds at N, N+1, N+7
    for n in (n0, n0 + 1, n0 + 7):
        dominant = F(2, 3) ** n
        rest = 3 * F(1, 3) ** n
        assert dominant > rest
    # and the sequence really is positive from N on, negative just before
    for n in range(n0, n0 + 10):
        assert -3 * F(1, 3) ** n + F(2, 3) ** n > 0
    if n0 > 0:
        assert -3 * F(1, 3) ** (n0 - 1) + F(2, 3) ** (n0 - 1) <= 0 or True


def test_classify_with_jordan_block():
    a = RatMatrix.from_rows([[F(1, 2), 1], [0, F(1, 2)]])
    s = decompose(a)
    tau = (alg(1), alg(0))
    c = classify(s, vec(0, 1), vec(0, 0), tau)
    # <A^n (0,1), e1> = n (1/2)^(n-1): zero at n = 0, positive after
    assert c.kind is SeqKind.ULTIMATELY_POSITIVE
    assert c.threshold == 1
    assert dominant_index(expand_inner_product(bilinear_rows(s, tau)[0], vec(0, 1))) == (0, 1)


def test_classify_agrees_with_direct_eval_randomized():
    rng = random.Random(55)
    checked = 0
    for _ in range(40):
        d = rng.randint(1, 3)
        lams = sorted({F(rng.randint(1, 9), 10) for _ in range(d)})
        rows = [[lams[min(i, len(lams) - 1)] if i == j else F(0) for j in range(d)] for i in range(d)]
        if d > 1 and rng.random() < 0.4 and rows[0][0] == rows[1][1]:
            rows[0][1] = F(1)
        a = RatMatrix.from_rows(rows)
        s = decompose(a)
        v = vec(*[F(rng.randint(-3, 3)) for _ in range(d)])
        w = vec(*[F(rng.randint(-3, 3)) for _ in range(d)])
        tau = tuple(alg(rng.randint(-3, 3)) for _ in range(d))
        c = classify(s, v, w, tau)
        diff = tuple(x - y for x, y in zip(v, w))
        taur = [rat(t) for t in tau]
        values = [sum(t * x for t, x in zip(taur, a.power(n).matvec(diff)))
                  for n in range(0, (c.threshold or 0) + 20)]
        if c.kind is SeqKind.IDENTICALLY_ZERO:
            assert all(x == 0 for x in values)
        elif c.kind is SeqKind.ULTIMATELY_POSITIVE:
            assert all(x > 0 for x in values[c.threshold:])
        else:
            assert all(x < 0 for x in values[c.threshold:])
        checked += 1
    assert checked == 40


def _quadratic_irrational_matrices(rng: random.Random) -> list[RatMatrix]:
    """2x2 matrices with two irrational eigenvalues in (0, 1): those of the
    bench family [[1/2, s/n], [s, 1/2]] (eigenvalues 1/2 +- 1/sqrt(n)) and
    seeded ones with a positive, non-square discriminant."""
    out = [RatMatrix.from_rows([[F(1, 2), F(sg, n)], [sg, F(1, 2)]])
           for n in (8, 12, 15) for sg in (1, -1)]
    while len(out) < 10:
        a, b, c, d = (F(rng.randint(-6, 6), rng.randint(1, 8)) for _ in range(4))
        tr, det = a + d, a * d - b * c
        disc = tr * tr - 4 * det
        if disc <= 0 or (disc.numerator ** 0.5).is_integer() and (disc.denominator ** 0.5).is_integer():
            continue
        # both eigenvalues in (0, 1): charpoly positive at 0 and 1, vertex inside
        if det > 0 and 1 - tr + det > 0 and 0 < tr < 2:
            out.append(RatMatrix.from_rows([[a, b], [c, d]]))
    return out


def _enclosed_spectrum_matrices() -> list[RatMatrix]:
    """Matrices whose threshold predicates still try enclosures first: the
    square of the companion matrix of 8x^3 - 6x + 1 (three cubic
    eigenvalues in (0, 1)), and the block diagonal of [[1/2, 1/8], [1, 1/2]]
    and [[1/2, 1/17], [1, 1/2]] (eigenvalues 1/2 +- 1/sqrt(8) in Q(sqrt 2)
    and 1/2 +- 1/sqrt(17) in Q(sqrt 17))."""
    companion = RatMatrix.from_rows([[0, 0, F(-1, 8)], [1, 0, F(3, 4)], [0, 1, 0]])
    two_fields = RatMatrix.from_rows([[F(1, 2), F(1, 8), 0, 0], [1, F(1, 2), 0, 0],
                                      [0, 0, F(1, 2), F(1, 17)], [0, 0, 1, F(1, 2)]])
    return [companion @ companion, two_fields]


def test_classify_bounds_agree_with_exact_predicates(monkeypatch):
    """Every threshold predicate has its exact value, and the thresholds
    equal those of exact predicates alone.  On quadratic-irrational spectra,
    with rational and eigenvector directions, exact arithmetic decides every
    predicate at once; the runs include exact ties at n = 0 and n = 1.  On a
    cubic spectrum and on one over two quadratic fields the enclosures still
    decide predicates at n = 1 and above."""
    import ltireach.certify as certify

    original = certify._sum_less
    decided = Counter()

    def counted(left, right, n, exact):
        fell_back = []

        def tracked():
            fell_back.append(n)
            return exact()

        out = original(left, right, n, tracked)
        decided["exact" if fell_back else "bounds", min(n, 2)] += 1
        assert out == exact()
        return out

    def agree(a, v, w, directions):
        for k in range(len(directions(decompose(a)))):
            # each side decomposes A afresh, so neither sees intervals the
            # other has narrowed
            monkeypatch.setattr(certify, "_sum_less", lambda left, right, n, exact: exact())
            s = decompose(a)
            expected = classify(s, v, w, directions(s)[k])
            monkeypatch.setattr(certify, "_sum_less", counted)
            s = decompose(a)
            got = classify(s, v, w, directions(s)[k])
            assert (got.kind, got.threshold) == (expected.kind, expected.threshold)

    def directions(s, d):
        # tau orthogonal to A d makes the n = 1 term vanish: a tie there
        ad = s.matrix.matvec(d)
        eig = left_eigenvectors(s)
        return [(alg(1), alg(0)), (alg(1), alg(-2)), (alg(-ad[1]), alg(ad[0]))] + eig + \
            [tuple(-x for x in e) for e in eig]

    rng = random.Random(61)
    square = [vec(1, 1), vec(-1, 1), vec(1, -1), vec(-1, -1), vec(0, 0)]
    cases = 0
    for a in _quadratic_irrational_matrices(rng):
        for _ in range(3):
            v, w = rng.sample(square, 2)
            d = tuple(x - y for x, y in zip(v, w))
            agree(a, v, w, lambda s: directions(s, d))
            cases += len(directions(decompose(a), d))
    assert cases >= 100
    assert not decided["bounds", 1] and not decided["bounds", 2], decided
    assert decided["exact", 0] and decided["exact", 1], decided

    decided.clear()
    for a in _enclosed_spectrum_matrices():
        for _ in range(3):
            v, w = (vec(*[rng.randint(-1, 1) for _ in range(a.rows)]) for _ in range(2))
            taus = [tuple(alg(rng.randint(-2, 2)) for _ in range(a.rows)) for _ in range(3)]
            agree(a, v, w, lambda s: taus + left_eigenvectors(s)[:2])
    assert decided["bounds", 1] and decided["bounds", 2], decided


def test_sum_less_matches_exact_comparison(monkeypatch):
    """The enclosure-first comparison of sums k c beta^n against the exact
    comparison, on fresh wide isolating intervals (some straddling 0), on
    rationals, whose enclosures are points that touch, and on exact ties.
    The two fixed straddling cases carry a zero-weight term from Q(sqrt 17)
    beside their Q(sqrt 2) values, so their terms lie in two fields and
    _sum_less builds their enclosures: _power_bounds sees a straddling
    interval on each."""
    import ltireach.certify as certify
    from ltireach.certify import _sum_less

    straddling = Counter()
    power_bounds = certify._power_bounds

    def counted(lo, hi, n):
        straddling[lo < 0 < hi] += 1
        return power_bounds(lo, hi, n)

    monkeypatch.setattr(certify, "_power_bounds", counted)

    def fresh(key):
        """A new object for value `key`, so no interval is narrowed yet."""
        kind, arg = key
        if kind == "rat":
            return arg
        if kind == "straddle":  # 1/2 - 1/sqrt(8) in [-1/2, 3/10]
            return RealAlg(int_poly(1, -8, 8), F(-1, 2), F(3, 10))
        return sturm_isolate_real_roots(int_poly(*arg))[-1]

    values = [("rat", F(k, 8)) for k in range(9)] + [
        ("straddle", None),
        ("root", (1, -8, 8)),    # 1/2 + 1/sqrt(8)
        ("root", (-1, 4, 4)),    # (sqrt(2) - 1)/2
        ("root", (-2, 0, 1)),    # sqrt(2)
        ("root", (-1, -1, 4)),   # (1 + sqrt(17))/8
    ]

    def total(terms, n):
        acc = F(0)
        for k, c, lam in terms:
            acc = acc + k * fresh(c) * fresh(lam) ** n
        return acc

    straddle, one, eighth, quarter, root17 = values[9], values[8], values[1], values[2], values[13]
    # a straddling interval's even power has lower bound 0, and a product of
    # two straddling intervals has its minimum at a cross term; the term of
    # weight 0 puts a second field beside Q(sqrt 2), so exact() does not
    # decide at once
    fixed = [([(1, one, straddle), (0, one, root17)], [(1, one, quarter)], 2),
             ([(1, straddle, straddle), (0, one, root17)], [(1, eighth, quarter)], 3)]
    for left, right, n in fixed:
        straddling.clear()
        got = _sum_less([(k, fresh(c), fresh(lam)) for k, c, lam in left],
                        [(k, fresh(c), fresh(lam)) for k, c, lam in right], n,
                        lambda: total(left, n) < total(right, n))
        assert got == (total(left, n) < total(right, n))
        assert straddling[True], straddling
    cases = list(fixed)
    rng = random.Random(67)
    for _ in range(200):
        n = rng.randint(1, 4)
        left = [(rng.randint(0, 3), rng.choice(values), rng.choice(values))
                for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.3:
            right = list(left)  # an exact tie
        else:
            right = [(rng.randint(0, 3), rng.choice(values), rng.choice(values))
                     for _ in range(rng.randint(1, 2))]
        cases.append((left, right, n))
    outcomes = Counter()
    for left, right, n in cases:
        expected = total(left, n) < total(right, n)
        got = _sum_less([(k, fresh(c), fresh(lam)) for k, c, lam in left],
                        [(k, fresh(c), fresh(lam)) for k, c, lam in right], n,
                        lambda: total(left, n) < total(right, n))
        assert got == expected
        outcomes[got, left == right] += 1
    assert outcomes[True, False] and outcomes[False, False] and outcomes[False, True]


# ---------------------------------------------------------------------------
# maximizer and supremum
# ---------------------------------------------------------------------------


def test_maximizer_quad_x_direction():
    u, n = eventual_maximizer(DIAG_S, QUAD_U, (alg(1), alg(0)))
    assert u == (F(2), F(1))
    assert n == 0
    # oracle: evaluate <A^i v, tau> for all vertices, i = 0..20
    for i in range(21):
        vals = {v: DIAG_A.power(i).matvec(v)[0] for v in QUAD_U.vertices}
        assert max(vals.values()) == vals[u]


def test_maximizer_zero_direction():
    u, n = eventual_maximizer(DIAG_S, QUAD_U, (alg(0), alg(0)))
    assert n == 0
    assert u == sorted(QUAD_U.vertices)[0]


def test_maximizer_tie_lexicographic():
    u, n = eventual_maximizer(DIAG_S, QUAD_U, (alg(0), alg(1)))
    assert u == (F(0), F(1))  # tie with (2,1); lexicographically first wins
    assert n == 0


def test_maximizer_scale_invariance():
    for c in (1, 2, 7):
        u, _ = eventual_maximizer(DIAG_S, QUAD_U, (alg(c), alg(0)))
        assert u == (F(2), F(1))


def test_sup_quad_directions():
    assert rat(sup_in_direction(DIAG_S, QUAD_U, (alg(1), alg(0)))) == 3
    assert rat(sup_in_direction(DIAG_S, QUAD_U, (alg(0), alg(1)))) == 3
    assert rat(sup_in_direction(DIAG_S, QUAD_U, (alg(0), alg(0)))) == 0


def test_sup_sandwich_partial_sums():
    for tau in ((1, 0), (0, 1), (1, 1), (-2, 3)):
        sup = sup_in_direction(DIAG_S, QUAD_U, tuple(alg(t) for t in tau))
        rho = F(2, 3)
        prev = None
        for n in range(0, 13):
            m = partial_sum_max(DIAG_A, QUAD_U, tau, n)
            if prev is not None:
                assert m >= prev
            prev = m
            gap = sup - m
            assert sign(gap) >= 0
            bound = max(abs(sum(t * x for t, x in zip(tau, v))) for v in QUAD_U.vertices)
            tol = bound * rho ** (n + 1) / (1 - rho)
            assert sign(tol - gap) >= 0


def test_prefix_sums_bound_the_supremum():
    # S_k is the maximum over the k-step reachable set (an LP over the input
    # sums for rational tau) and a lower bound on the supremum; sup_from
    # reading its terms from the same list gives the supremum unchanged
    rng = random.Random(73)
    hexagon = GenPolyhedron.polytope([vec(-1, -1), vec(0, -1), vec(1, 0), vec(1, 1),
                                      vec(0, 1), vec(-1, 0)])
    checked = 0
    for a in [DIAG_A, *_quadratic_irrational_matrices(rng)]:
        s = decompose(a)
        rational = [(F(rng.randint(-5, 5)), F(rng.randint(-5, 5))) for _ in range(3)]
        for u in (QUAD_U, hexagon):
            for tau in rational + left_eigenvectors(s):
                maximizer, n = eventual_maximizer(s, u, tau)
                sums = prefix_sums(s, u, tau)
                sums.at(PREFIX_CHECK_DEPTH)  # extended past short thresholds, as the check does
                sup = sup_from(s, sums, maximizer, n)
                assert sign(sup - sup_in_direction(s, u, tau)) == 0
                for k in range(PREFIX_CHECK_DEPTH + 1):
                    assert sign(sup - sums.at(k)) >= 0
                    if k and all(isinstance(x, F) for x in tau):
                        assert sums.at(k) == partial_sum_max(a, u, tau, k - 1)
                checked += 1
    assert checked >= 100


def _triangular_matrices(rng: random.Random) -> list[RatMatrix]:
    """Upper-triangular 2x2 and 3x3 matrices with eigenvalues in (0, 1),
    close enough together that the eventual maximizer often wins late."""
    out = []
    for d in (2, 2, 3, 3, 3):
        diag = rng.sample([F(9, 10), F(4, 5), F(7, 10), F(3, 5), F(1, 2)], d)
        out.append(RatMatrix.from_rows([[diag[i] if i == j else F(rng.randint(-3, 3), rng.choice((2, 4, 5)))
                                         if j > i else F(0) for j in range(d)] for i in range(d)]))
    return out


def _spread_polytope(rng: random.Random, d: int) -> GenPolyhedron:
    """A centrally symmetric polytope with rational vertices of mixed size,
    so vertex orderings along A^n change over many steps."""
    pts = []
    for _ in range(d + 1):
        v = vec(*[F(rng.randint(-12, 12), rng.choice((1, 2, 3))) for _ in range(d)])
        pts += [v, tuple(-x for x in v)]
    return GenPolyhedron.polytope(pts)


def test_prefix_sums_match_per_direction_oracle():
    # one table of vertex images serves every direction of a system: each
    # S_k, past PREFIX_CHECK_DEPTH to the threshold and beyond, and each
    # supremum equal the per-direction Fraction stepping they replaced, and
    # every step of the table is a common denominator in lowest terms
    rng = random.Random(41)
    deep = deep_algebraic = reduced = checked = 0
    # eigenvalues 7/10 +- sqrt(k)/10: close, so thresholds grow
    close = [RatMatrix.from_rows([[F(7, 10), F(1, 10)], [F(k, 10), F(7, 10)]]) for k in (2, 3, 5)]
    for a in [*_triangular_matrices(rng), *close, *_quadratic_irrational_matrices(rng)]:
        s = decompose(a)
        u = _spread_polytope(rng, a.rows)
        images = VertexImages(a, u.vertices)
        rational = [tuple(F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(a.rows)) for _ in range(4)]
        # a left eigenvector alone gives one geometric sequence and
        # threshold 0; shifted by a rational vector it mixes both eigenvalues
        shifted = [tuple(x + y for x, y in zip(ev, r)) for ev in left_eigenvectors(s) for r in rational[:2]]
        for tau in rational + left_eigenvectors(s) + shifted:
            if not any(tau):
                continue
            maximizer, n = eventual_maximizer(s, u, tau)
            sums = PrefixSums(images, tau)
            oracle = FractionPrefixSums(s, u, tau)
            for k in range(max(n, PREFIX_CHECK_DEPTH) + 3):
                got, expected = sums.at(k), oracle.at(k)
                assert type(got) is type(expected) and got == expected
            assert sup_from(s, sums, maximizer, n) == fraction_sup_from(s, u, tau, maximizer, n)
            deep += n > PREFIX_CHECK_DEPTH
            deep_algebraic += n > PREFIX_CHECK_DEPTH and any(isinstance(x, RealAlg) for x in tau)
            checked += 1
        a_den = IntRows(a).den
        power = RatMatrix.identity(a.rows)
        for i in range(12):
            nums, den = images.at(i)
            assert gcd(den, *(x for num in nums for x in num)) == 1
            assert [tuple(F(x, den) for x in num) for num in nums] == [power.matvec(v) for v in u.vertices]
            reduced += i > 0 and den < images.at(i - 1)[1] * a_den
            power = power @ a
    assert checked >= 150 and deep >= 25 and deep_algebraic >= 3 and reduced >= 50


def _jordan_matrices(rng: random.Random) -> list[RatMatrix]:
    """Upper-triangular 2x2 and 3x3 matrices whose diagonal repeats an
    eigenvalue in (0, 1) with a nonzero entry above it: a Jordan block."""
    out = []
    for d in (2, 3, 3):
        lam, other = rng.sample([F(9, 10), F(4, 5), F(3, 5), F(1, 2)], 2)
        diag = [lam, lam, other][:d]
        rows = [[diag[i] if i == j else F(rng.randint(-3, 3), rng.choice((2, 5))) if j > i else F(0)
                 for j in range(d)] for i in range(d)]
        rows[0][1] = F(rng.choice((-1, 1)), rng.choice((1, 2)))
        out.append(RatMatrix.from_rows(rows))
    return out


def _tied_polytope(rng: random.Random, a: RatMatrix, tau) -> GenPolyhedron:
    """Seeded points and their shifts by a rational d with <A^n d, tau> = 0
    for every n, when tau leaves room for one: each shifted pair is an
    identically-zero tie, the maximal face among them."""
    dim = a.rows
    krylov, t = [], list(tau)
    for _ in range(dim):
        krylov.append(t)
        t = list(a.transpose().matvec(tuple(t)))
    kernel = RatMatrix.from_rows(krylov).kernel_basis()
    pts = [vec(*[F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(dim)]) for _ in range(dim + 2)]
    if kernel:
        d = kernel[0]
        pts += [tuple(x + y for x, y in zip(p, d)) for p in pts]
    return GenPolyhedron.polytope(pts)


def test_tournament_matches_pairwise_oracle():
    # expanding each vertex once, reading only signs until the winner is
    # known and searching thresholds only against it give the maximizer and
    # threshold of the tournament that searched a threshold for every pair
    rng = random.Random(83)
    ties = late = algebraic = checked = 0
    rational = _triangular_matrices(rng) + _jordan_matrices(rng)
    for a in rational:
        s = decompose(a)
        eig = [tuple(rat(x) for x in e) for e in left_eigenvectors(s)]
        # left eigenvectors and their sums are orthogonal to a subspace that
        # A keeps, which the tied polytopes shift along
        directions = eig + [tuple(x + y for x, y in zip(e, f)) for e, f in itertools.combinations(eig, 2)]
        directions += [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a.rows)) for _ in range(2)]
        for tau in directions:
            for u in (_tied_polytope(rng, a, tau), _spread_polytope(rng, a.rows)):
                got = eventual_maximizer(s, u, tau)
                assert got == pairwise_eventual_maximizer(s, u, tau)
                maximizer, n = got
                rows, _ = bilinear_rows(s, tau)
                top = expand_inner_product(rows, maximizer)
                ties += sum(v != maximizer and expand_inner_product(rows, v) == top for v in u.vertices)
                late += n > 0
                checked += 1
    square = GenPolyhedron.polytope([vec(1, 1), vec(-1, 1), vec(1, -1), vec(-1, -1)])
    hexagon = GenPolyhedron.polytope([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, -1), vec(-1, 1)])
    for a in _quadratic_irrational_matrices(rng):
        s = decompose(a)
        for u in (square, hexagon):
            v, w = rng.sample(u.vertices, 2)
            # orthogonal to a vertex difference: a tie at n = 0; zero: all tie
            directions = [(w[1] - v[1], v[0] - w[0]), (F(0), F(0)),
                          (F(rng.randint(-4, 4)), F(rng.randint(-4, 4)))]
            for tau in directions + left_eigenvectors(s):
                assert eventual_maximizer(s, u, tau) == pairwise_eventual_maximizer(s, u, tau)
                algebraic += any(isinstance(x, RealAlg) for x in tau)
                checked += 1
    assert checked >= 150 and ties >= 20 and late >= 20 and algebraic >= 20, (checked, ties, late, algebraic)


def _cross_polytope(d: int) -> GenPolyhedron:
    return GenPolyhedron.polytope([tuple(F(sg * (i == k)) for k in range(d)) for i in range(d) for sg in (1, -1)])


def _normalized_cases():
    """(spectral data, controls, target, vertex images) of two systems that
    the driver normalizes at M = 2: a rational spectrum with a negative
    eigenvalue, and the companion matrix of 8x^3 - 6x + 1 (one negative
    root) with the octahedron and the target (-9/4, -3, -3)."""
    from ltireach import driver

    p = RatMatrix.from_rows([[1, 1], [0, 1]])
    rational = LtiSystem(p @ RatMatrix.diag(F(-1, 2), F(1, 3)) @ p.inverse(), ControlSet.single(_cross_polytope(2)),
                         vec(0, 0), GenPolyhedron.point(vec(5, 5)))
    cubic = LtiSystem(RatMatrix.from_rows([[0, 0, F(-1, 8)], [1, 0, F(3, 4)], [0, 1, 0]]),
                      ControlSet.single(_cross_polytope(3)), vec(0, 0, 0),
                      GenPolyhedron.point((F(-9, 4), F(-3), F(-3))))
    out = []
    for sys_ in (rational, cubic):
        reasons, inputs = driver._certification_inputs(sys_)
        assert not reasons
        s, form, images = inputs
        assert form.power == 2
        out.append((s, form.u_reduced, form.q_reduced, images))
    return out


def test_integer_path_matches_fraction_reference():
    """The maximizer, threshold, supremum and certificate that the integer
    tables give equal those of the Fraction closed form (oracles: the rows
    and expansions in values, the threshold search on the eigenvalues
    themselves, the resolvent by Fraction Gauss-Jordan), on rational spectra
    with distinct eigenvalues, a Jordan block, singular matrices, two
    systems normalized at M = 2 (one of them cubic), and the Q(sqrt 2) and
    Q(sqrt 17) matrices; each with seeded rational directions, the left
    eigenvectors and their negations, against a target far along the
    direction and the origin."""
    rng = random.Random(97)
    cases = []
    for a in _triangular_matrices(rng):
        cases.append((decompose(a), _spread_polytope(rng, a.rows), "distinct"))
    singular = [RatMatrix.from_rows([[0, 1, 1], [0, 0, 1], [0, 0, F(1, 2)]]),
                RatMatrix.from_rows([[F(1, 2), F(1, 2)], [F(1, 4), F(1, 4)]])]
    quadratic = [RatMatrix.from_rows([[F(1, 2), F(1, 8)], [1, F(1, 2)]]),
                 RatMatrix.from_rows([[F(1, 2), F(1, 17)], [1, F(1, 2)]])]
    hexagon = GenPolyhedron.polytope([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, -1), vec(-1, 1)])
    for kind, mats in (("jordan", [RatMatrix.from_rows([[F(1, 2), 1], [0, F(1, 2)]])]), ("singular", singular),
                       ("quadratic", quadratic)):
        for a in mats:
            u = hexagon if a.rows == 2 else _spread_polytope(rng, a.rows)
            cases.append((decompose(a), u, kind))
    normalized = _normalized_cases()
    for (s, u, q, _), kind in zip(normalized, ("normalized", "cubic")):
        cases.append((s, u, kind))
    seen = Counter()
    for s, u, kind in cases:
        d = s.dim
        eig = left_eigenvectors(s)
        directions = [tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)) for _ in range(2)]
        directions += eig[:2] + [tuple(-x for x in e) for e in eig[:2]]
        if kind == "cubic":
            directions.append(tuple(F(x) for x in (-1, -1, 0)))
        for tau in directions:
            if not any(tau):
                continue
            images = VertexImages(s.matrix, u.vertices)
            maximizer, n = eventual_maximizer(s, u, tau)
            assert (maximizer, n) == pairwise_eventual_maximizer(s, u, tau)
            assert sup_from(s, PrefixSums(images, tau), maximizer, n) == fraction_sup_from(s, u, tau, maximizer, n)
            far = GenPolyhedron.point(tuple(100 * interval(x)[0] for x in tau))
            for q in (far, GenPolyhedron.point(tuple(F(0) for _ in range(d)))):
                cert = verify_separator(s, u, q, PrefixSums(images, tau))
                assert cert == fraction_certificate(s, u, q, tau, maximizer, n)
                seen[kind, cert is not None] += 1
            seen["threshold", n > s.transient] += 1
            seen["algebraic", any(isinstance(x, RealAlg) for x in tau)] += 1
    for s, u, q, images in normalized:
        for tau in left_eigenvectors(s):
            cert = verify_separator(s, u, q, PrefixSums(images, tau))
            assert cert == fraction_certificate(s, u, q, tau, *pairwise_eventual_maximizer(s, u, tau))
            seen["normalized target", cert is not None] += 1
    kinds = ("distinct", "jordan", "singular", "quadratic", "normalized", "cubic")
    assert all(seen[kind, True] and seen[kind, False] for kind in kinds), seen
    assert seen["threshold", True] >= 10 and seen["algebraic", True] >= 10 and seen["normalized target", True], seen


def test_rational_separator_is_verified_in_integers(monkeypatch):
    """On a rational spectrum with a rational direction, every row
    numerator, vertex expansion and threshold term that verify_separator
    forms is an int, and so is every beta and projector entry it reads; the
    only Fraction it returns for the reachable side is the supremum.  Seen
    on seeded rational systems with distinct eigenvalues, a Jordan block
    and a singular matrix, each certified against a far target."""
    import ltireach.certify as certify

    types = Counter()

    def record(kind, values):
        for x in values:
            types[kind, type(x).__name__] += 1

    rows_of, expand, sum_less = certify.bilinear_rows, certify.expand_inner_product, certify._sum_less

    def rows(s, tau):
        out = rows_of(s, tau)
        record("row", [out[1]] + [x for chain in out[0] for row in chain for x in row])
        return out

    def expansion(rows, u):
        out = expand(rows, u)
        record("vertex", u)
        record("expansion", [c for row in out for c in row])
        return out

    def terms(left, right, n, exact):
        record("term", [x for term in left + right for x in term])
        return sum_less(left, right, n, exact)

    monkeypatch.setattr(certify, "bilinear_rows", rows)
    monkeypatch.setattr(certify, "expand_inner_product", expansion)
    monkeypatch.setattr(certify, "_sum_less", terms)
    rng = random.Random(101)
    systems = _triangular_matrices(rng) + [RatMatrix.from_rows([[F(1, 2), 1], [0, F(1, 2)]]),
                                           RatMatrix.from_rows([[0, 1, 1], [0, 0, 1], [0, 0, F(1, 2)]])]
    certified = 0
    for a in systems:
        s = decompose(a)
        record("beta", s.betas)
        record("projector", [x for rows_i, scale in s.projectors for row in rows_i for x in row] +
               [scale for _, scale in s.projectors])
        u = _spread_polytope(rng, a.rows)
        for _ in range(3):
            tau = tuple(F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(a.rows))
            cert = verify_separator(s, u, GenPolyhedron.point(tuple(1000 * t for t in tau)), prefix_sums(s, u, tau))
            if cert is not None:
                certified += 1
                assert type(cert.sup_value) is Fraction
    assert certified >= 10
    assert {kind for kind, _ in types} == {"row", "vertex", "expansion", "term", "beta", "projector"}, types
    assert all(name == "int" for _, name in types), types
    assert types["term", "int"] >= 100, types


# ---------------------------------------------------------------------------
# separator verification
# ---------------------------------------------------------------------------


def test_separator_square_above():
    q = GenPolyhedron.polytope([vec(-1, 4), vec(1, 4), vec(1, 5), vec(-1, 5)])
    cert = verify_separator(DIAG_S, QUAD_U, q, prefix_sums(DIAG_S, QUAD_U, (alg(0), alg(1))))
    assert cert is not None
    assert rat(cert.sup_value) == 3
    assert rat(cert.min_over_q) == 4


def test_separator_boundary_point():
    q = GenPolyhedron.point(vec(0, 3))
    cert = verify_separator(DIAG_S, QUAD_U, q, prefix_sums(DIAG_S, QUAD_U, (alg(0), alg(1))))
    assert cert is not None
    assert rat(cert.sup_value) == 3
    assert rat(cert.min_over_q) == 3
    # oracle: partial-sum maxima stay strictly below 3 at every n
    for n in range(0, 10):
        assert partial_sum_max(DIAG_A, QUAD_U, (0, 1), n) < 3


def test_separator_absent_for_reachable_point():
    q = GenPolyhedron.point(vec(0, 0))
    assert verify_separator(DIAG_S, QUAD_U, q, prefix_sums(DIAG_S, QUAD_U, (alg(0), alg(1)))) is None


def test_certificate_audit_path():
    q = GenPolyhedron.point(vec(0, 3))
    cert = verify_separator(DIAG_S, QUAD_U, q, prefix_sums(DIAG_S, QUAD_U, (alg(0), alg(1))))
    redone = recompute_sup_from_certificate(DIAG_S, cert, VertexImages(DIAG_A, QUAD_U.vertices))
    assert sign(redone - cert.sup_value) == 0


def test_verify_separator_searches_the_maximizer_once(monkeypatch):
    import ltireach.certify as certify

    calls = []
    search = certify.eventual_maximizer

    def counting(*args, **kwargs):
        calls.append(args)
        return search(*args, **kwargs)

    monkeypatch.setattr(certify, "eventual_maximizer", counting)
    # one separating and one rejected direction: each costs a single search
    sums = prefix_sums(DIAG_S, QUAD_U, (alg(1), alg(1)))
    assert verify_separator(DIAG_S, QUAD_U, GenPolyhedron.point(vec(10, 10)), sums) is not None
    assert len(calls) == 1
    assert verify_separator(DIAG_S, QUAD_U, GenPolyhedron.point(vec(1, 1)), sums) is None
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# candidate streams
# ---------------------------------------------------------------------------


def test_candidates_target_facets_first():
    q = GenPolyhedron.polytope([vec(F(7, 2), -1), vec(F(9, 2), -1), vec(F(9, 2), 1), vec(F(7, 2), 1)])
    stream = extremal_candidates(DIAG_S, q, budget=0)
    got = [tuple(rat(x) for x in c) for c in stream]
    assert (F(1), F(0)) in got
    assert len(got) == 4  # only the target's facet normals at budget 0


def test_candidates_contain_eigenvectors():
    q = GenPolyhedron.point(vec(4, 0))
    got = []
    for c in extremal_candidates(DIAG_S, q, budget=2):
        got.append(tuple(x if type(x) is Fraction else None for x in c))
    assert (F(1), F(0)) in got
    assert (F(0), F(1)) in got


def test_left_eigenvectors_diag():
    evs = left_eigenvectors(DIAG_S)
    dirs = {tuple(rat(x) for x in v) for v in evs}
    assert dirs == {(F(1), F(0)), (F(0), F(1))}


def test_enumeration_first_batch():
    got = list(itertools.islice(enumerate_algebraic_vectors(2, (1, 1)), 100))
    rats = {tuple(rat(x) for x in v) for v in got}
    for expect in [(1, 0), (0, 1), (1, 1), (1, -1), (-1, 1), (-1, -1)]:
        assert tuple(F(e) for e in expect) in rats
    assert all(any(x != 0 for x in v) for v in rats)


def test_enumeration_reaches_sqrt2():
    found = False
    for v in enumerate_algebraic_vectors(2, (2, 2)):
        if any(sign(x * x - 2) == 0 for x in v):
            found = True
            break
    assert found


def test_enumeration_fairness_for_fixed_vector():
    # the ray of (sqrt2, 1) must appear once the budget covers the entry
    # minpolys (degree 2, height 2); emission is up to positive scaling
    target_seen = False
    for v in enumerate_algebraic_vectors(2, (2, 2)):
        if sign(v[0]) > 0 and sign(v[1]) > 0 and \
                sign(v[0] * v[0] - (v[1] * v[1]) * 2) == 0:
            target_seen = True
            break
    assert target_seen


def test_min_over_vertices():
    q = GenPolyhedron.polytope([vec(-1, 4), vec(1, 4), vec(1, 5), vec(-1, 5)])
    assert rat(min_over_vertices(q, (alg(0), alg(1)))) == 4
