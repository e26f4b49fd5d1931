import itertools
import random
from collections import Counter
from fractions import Fraction
from math import comb
from types import SimpleNamespace

import pytest

from ltireach.exactnum import (
    Alg,
    DegreeCeilingError,
    IntPoly,
    RealAlg,
    _combination_poly,
    _count_roots_closed,
    _isolate_squarefree,
    _sign_at,
    cleared,
    count_roots_halfopen,
    factor_int_poly,
    interval,
    poly_gcd,
    rat_from_str,
    rat_to_str,
    root_bound,
    sign_variations,
    sturm_chain,
    sturm_isolate_real_roots,
)
from ltireach.instances import Rationals, alg_from_json, alg_to_json
from oracles import (FractionQuad, decompose, expansion_values, frac_divmod, fraction_poly_gcd,
                     fraction_squarefree_part, int_poly, prefix_sums, projector_values, rat, sign)

F = Fraction


def sqrt_of(n: int) -> RealAlg:
    roots = sturm_isolate_real_roots(int_poly(-n, 0, 1))
    return roots[-1]


# ---------------------------------------------------------------------------
# rationals
# ---------------------------------------------------------------------------


def test_rat_parse_roundtrip():
    assert rat_from_str("3/4") == F(3, 4)
    assert rat_from_str("-7") == F(-7)
    assert rat_to_str(F(6, 4)) == "3/2"
    assert rat_to_str(F(-5)) == "-5"
    with pytest.raises(ValueError):
        rat_from_str("1/0")


def test_rat_field_axioms_randomized():
    rng = random.Random(7)

    def rnd():
        return F(rng.randint(-40, 40), rng.randint(1, 17))

    for _ in range(200):
        a, b, c = rnd(), rnd(), rnd()
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a + b) - b == a
        if a != 0:
            assert a * (1 / a) == 1


# ---------------------------------------------------------------------------
# integer polynomials
# ---------------------------------------------------------------------------


def test_intpoly_basics():
    p = int_poly(-2, 0, 1)  # x^2 - 2
    assert p.degree == 2
    assert [_sign_at(p.coeffs, x, 1) for x in (-2, -1, 0, 1, 2)] == [1, -1, -1, -1, 1]
    assert _sign_at(p.coeffs, 7, 5) == -1 and _sign_at(p.coeffs, 3, 2) == 1
    assert p.derivative() == int_poly(0, 2)
    assert (p * int_poly(1, 1)).coeffs == (-2, -2, 1, 1)


def test_squarefree_part():
    p = int_poly(-1, 1) * int_poly(-1, 1) * int_poly(-2, 1)  # (x-1)^2 (x-2)
    assert p.squarefree_part() == int_poly(-1, 1) * int_poly(-2, 1)


def random_poly(rng: random.Random) -> IntPoly:
    """A product of small factors, some repeated, under a random constant
    of either sign: the zero polynomial, constants, negative leads and
    repeated factors all occur."""
    p = int_poly(rng.choice((-6, -3, -1, 1, 2, 4)))
    for _ in range(rng.randint(0, 4)):
        factor = IntPoly(tuple(rng.randint(-4, 4) for _ in range(rng.randint(1, 3))))
        p = p * factor
        if rng.random() < 0.4:
            p = p * factor
    return p


def test_integer_gcd_and_squarefree_part_match_fraction_euclid():
    # the primitive pseudo-remainder sequence gives the same primitive
    # positive-lead results as Euclid over Q
    rng = random.Random(29)
    shapes = set()
    for _ in range(1500):
        p, q = random_poly(rng), random_poly(rng)
        if rng.random() < 0.3:
            q = q * p  # p divides q
        assert poly_gcd(p, q) == fraction_poly_gcd(p, q)
        assert poly_gcd(q, p) == fraction_poly_gcd(q, p)
        if p:
            assert p.squarefree_part() == fraction_squarefree_part(p)
        shapes.add(("zero" if not p else "const" if p.degree == 0 else
                    "negative" if p.coeffs[-1] < 0 else "positive",
                    p.squarefree_part().degree < p.degree if p.degree > 0 else None))
    assert {("zero", None), ("const", None), ("negative", True), ("negative", False),
            ("positive", True), ("positive", False)} <= shapes
    for p, q, g in [(int_poly(5), int_poly(3), int_poly(1)), (int_poly(-4), IntPoly(()), int_poly(1)),
                    (IntPoly(()), IntPoly(()), IntPoly(())),
                    (int_poly(2, -2), int_poly(-3, 0, 3), int_poly(-1, 1)),
                    (int_poly(-1, 0, -1), int_poly(0, 1), int_poly(1))]:
        assert poly_gcd(p, q) == g == fraction_poly_gcd(p, q)
    assert int_poly(-2, 0, -2).squarefree_part() == int_poly(1, 0, 1)


def brute_force_factor_has_quadratic_divisor(p: IntPoly) -> bool:
    """Independent trial search for a monic-ish quadratic integer divisor.

    Scans a bounded coefficient box; enough to refute such divisors for
    small polynomials like x^4 - 10x^2 + 1.
    """
    bound = 12
    for a2 in (1,):
        for a1 in range(-bound, bound + 1):
            for a0 in range(-bound, bound + 1):
                cand = int_poly(a0, a1, a2)
                q, r = divmod_int(p, cand)
                if r is not None and all(c == 0 for c in r):
                    return True
    return False


def divmod_int(p: IntPoly, d: IntPoly):
    """Exact division attempt over Q, returning (quotient, remainder coeffs)."""
    a = [F(c) for c in p.coeffs]
    b = [F(c) for c in d.coeffs]
    q = [F(0)] * (len(a) - len(b) + 1)
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
    return q, r


def test_factorization_matches_trial_division():
    # (x-1)(x+2)(x^2-2)
    p = int_poly(-1, 1) * int_poly(2, 1) * int_poly(-2, 0, 1)
    factors = factor_int_poly(p.coeffs)
    assert (tuple(int_poly(-1, 1).coeffs), 1) in factors
    assert (tuple(int_poly(2, 1).coeffs), 1) in factors
    assert (tuple(int_poly(-2, 0, 1).coeffs), 1) in factors


# ---------------------------------------------------------------------------
# Sturm isolation
# ---------------------------------------------------------------------------


def test_isolate_sqrt2():
    roots = sturm_isolate_real_roots(int_poly(-2, 0, 1))
    assert len(roots) == 2
    neg, pos = roots
    assert sign(neg) == -1 and sign(pos) == 1
    lo, hi = pos.interval()
    assert lo * lo < 2 < hi * hi


def test_isolate_linear_exact():
    (root,) = sturm_isolate_real_roots(int_poly(-3, 1))
    assert rat(root) == 3
    assert interval(root) == (F(3), F(3))


def test_isolate_diag_charpoly():
    # (x - 1/3)(x - 2/3) cleared of denominators: 9x^2 - 9x + 2
    roots = sturm_isolate_real_roots(int_poly(2, -9, 9))
    assert [rat(r) for r in roots] == [F(1, 3), F(2, 3)]


def test_root_count_against_variation_oracle():
    rng = random.Random(11)
    for _ in range(40):
        deg = rng.randint(1, 5)
        coeffs = [rng.randint(-6, 6) for _ in range(deg)] + [rng.randint(1, 6)]
        p = IntPoly(tuple(coeffs))
        if p.degree < 1:
            continue
        roots = sturm_isolate_real_roots(p)
        sf = p.squarefree_part()
        chain = sturm_chain(sf)
        expected = count_roots_halfopen(chain, "-inf", "+inf")
        assert len(roots) == expected
        for a, b in zip(roots, roots[1:]):
            assert a < b


# ---------------------------------------------------------------------------
# algebraic arithmetic
# ---------------------------------------------------------------------------


def test_sqrt2_squared_is_two():
    r = sqrt_of(2)
    sq = r * r
    assert rat(sq) == 2


def test_add_zero_identity():
    rng = random.Random(3)
    for _ in range(10):
        q = F(rng.randint(-20, 20), rng.randint(1, 9))
        a = RealAlg.from_rational(q)
        assert rat(a + RealAlg.from_rational(0)) == q
    r = sqrt_of(3)
    assert (r + 0).compare(r) == 0


def test_sqrt2_plus_sqrt3():
    s = sqrt_of(2) + sqrt_of(3)
    # Oracle 1: the stated minimal polynomial, checked by a sign change of
    # x^4 - 10x^2 + 1 on a high-precision enclosure of sqrt(2)+sqrt(3).
    expected = int_poly(1, 0, -10, 0, 1)
    a, b = sqrt_of(2), sqrt_of(3)
    a.refine_below(F(1, 10**9))
    b.refine_below(F(1, 10**9))
    lo = a.interval()[0] + b.interval()[0]
    hi = a.interval()[1] + b.interval()[1]
    assert horner(expected.coeffs, lo) * horner(expected.coeffs, hi) < 0
    assert s.minpoly == expected
    slo, shi = s.interval()
    assert F(3) <= slo or slo <= F(3)  # interval is rational
    assert 3 < float(s) < 3.5
    # Oracle 2: no quadratic integer divisor exists (brute-force search),
    # so the quartic really is the minimal polynomial.
    assert not brute_force_factor_has_quadratic_divisor(expected)


def test_alg_sign_cases():
    r = sqrt_of(2)
    assert sign(r - F(3, 2)) == -1
    assert sign(F(0)) == 0
    # (sqrt2 + sqrt3)^2 - 5 - 2*sqrt6 == 0, by symbolic expansion
    s = sqrt_of(2) + sqrt_of(3)
    val = s * s - 5 - 2 * sqrt_of(6)
    assert sign(val) == 0


def test_alg_compare_cases():
    assert F(1, 3) < F(2, 3)
    r = sqrt_of(2)
    assert r.compare(r) == 0
    # squaring oracle: sqrt2 > 1.41421356 because 2 > 1.41421356^2
    approx = F(141421356, 10 ** 8)
    assert approx * approx < 2
    assert r.compare(approx) == 1
    assert approx < r


def test_sign_agrees_with_compare_randomized():
    rng = random.Random(5)
    pool = [F(rng.randint(-9, 9), rng.randint(1, 7)) for _ in range(8)]
    pool += [sqrt_of(2), sqrt_of(3), -sqrt_of(2), sqrt_of(2) / 2]
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        assert sign(a - b) == (a > b) - (a < b)


def test_rational_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        q = F(rng.randint(-50, 50), rng.randint(1, 23))
        assert rat(RealAlg.from_rational(q)) == q
        # the degree-1 root form reads back as the Fraction itself
        linear = IntPoly((-q.numerator, q.denominator))
        assert rat(RealAlg.from_root(linear, q, q)) == q


def test_linear_from_root_accepts_what_the_sturm_count_accepts(monkeypatch):
    """A linear p is read as its root -c0/c1 on lo <= root <= hi, with no
    factoring and no Sturm chain; the general path, factoring p and counting
    roots on [lo, hi] with a Sturm chain, accepts exactly the same cases."""
    import ltireach.exactnum as exactnum

    def sturm_path(p, lo, hi):
        (f, _), = factor_int_poly(p.coeffs)
        if _count_roots_closed(sturm_chain(IntPoly(f)), lo, hi) != 1:
            return None
        return F(-f[0], f[1])

    rng = random.Random(97)
    cases = []
    for _ in range(600):
        # non-primitive, either sign of leading coefficient, zero constants
        k = rng.choice((1, 1, 2, 6))
        c1 = rng.choice((-1, 1)) * rng.randint(1, 9) * k
        c0 = rng.choice((0, rng.randint(-20, 20))) * k
        p = IntPoly((c0, c1))
        root = F(-c0, c1)
        ends = [root, root + F(1, rng.randint(1, 9)), root - F(1, rng.randint(1, 9)),
                F(rng.randint(-9, 9), rng.randint(1, 4))]
        lo, hi = rng.choice(ends), rng.choice(ends)
        cases.append((p, lo, hi))
    cases += [(IntPoly((0, -3)), F(0), F(0)), (IntPoly((4, 6)), F(-2, 3), F(-2, 3)),
              (IntPoly((4, 6)), F(0), F(-1)), (IntPoly((-5, 10)), F(1), F(2))]
    expected = [sturm_path(p, lo, hi) for p, lo, hi in cases]

    def banned(*args):
        raise AssertionError("a linear polynomial needs no factoring or Sturm chain")

    monkeypatch.setattr(exactnum, "factor_int_poly", banned)
    monkeypatch.setattr(exactnum, "sturm_chain", banned)
    outcomes = Counter()
    for (p, lo, hi), want in zip(cases, expected):
        if want is None:
            with pytest.raises(ValueError):
                RealAlg.from_root(p, lo, hi)
        else:
            assert rat(RealAlg.from_root(p, lo, hi)) == want
        outcomes[want is not None, lo == hi, lo > hi] += 1
    assert outcomes[True, True, False] and outcomes[True, False, False]
    assert outcomes[False, False, True] and outcomes[False, False, False] and outcomes[False, True, False]
    # a rational certificate entry (q x - p) parses without factoring
    assert rat(alg_from_json(alg_to_json(F(-7, 3)), Rationals())) == F(-7, 3)
    assert rat(alg_from_json({"minpoly": [0, 5], "lo": "0", "hi": "0"}, Rationals())) == 0
    monkeypatch.undo()
    for p in (IntPoly(()), IntPoly((3,)), IntPoly((-2,))):
        with pytest.raises(ValueError):
            RealAlg.from_root(p, F(-1), F(1))


def test_division_by_zero_signaled():
    with pytest.raises(ZeroDivisionError):
        sqrt_of(2) / F(0)


def test_division_exact():
    r = sqrt_of(2)
    assert rat(r / r) == 1
    third = F(1, 3)
    assert rat((r / third) / r) == 3


def test_powers():
    r = sqrt_of(2)
    assert rat(r ** 4) == 4
    assert rat(r ** -2) == F(1, 2)


def test_ring_axioms_on_quadratic_irrationals():
    # distributivity/associativity drive the coordinate arithmetic inside one
    # field (sqrt8 = 2 sqrt2 has another discriminant) and the resultant +
    # factoring path across fields; equal results hash alike
    rng = random.Random(17)
    pool = [sqrt_of(2), sqrt_of(3), -sqrt_of(2), sqrt_of(2) / 2,
            sqrt_of(2) + 1, F(3, 7), sqrt_of(5) - 2, sqrt_of(8), 99 - 70 * sqrt_of(2)]
    for _ in range(12):
        a, b, c = (rng.choice(pool) for _ in range(3))
        for lhs, rhs in (((a + b) * c, a * c + b * c), ((a * b) * c, a * (b * c)), (a + b, b + a)):
            assert sign(lhs - rhs) == 0
            assert lhs == rhs and hash(lhs) == hash(rhs)


def test_mixed_field_products_reduce():
    # sqrt2 * sqrt3 lands in a third quadratic field with exact minpoly
    prod = sqrt_of(2) * sqrt_of(3)
    assert prod.minpoly == int_poly(-6, 0, 1)
    assert prod.compare(sqrt_of(6)) == 0
    # and collapses to a rational when the fields cancel
    collapsed = (sqrt_of(2) + 1) * (sqrt_of(2) - 1)
    assert rat(collapsed) == 1


def test_degree_ceiling_guard(monkeypatch):
    from ltireach import exactnum

    monkeypatch.setattr(exactnum, "DEGREE_CEILING", 4)
    a = sqrt_of(2)
    b = sturm_isolate_real_roots(int_poly(-2, 0, 0, 0, 0, 1))[-1]  # 2^(1/5)
    with pytest.raises(DegreeCeilingError):
        a + b


# ---------------------------------------------------------------------------
# frozen Fraction and resultant oracles for the integer fast paths
# ---------------------------------------------------------------------------


def horner(coeffs, x: Fraction) -> Fraction:
    acc = F(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def frac_sign(coeffs, x: Fraction) -> int:
    v = horner(coeffs, x)
    return (v > 0) - (v < 0)


def frac_sturm_chain(p: IntPoly) -> list[list[Fraction]]:
    """The classical Sturm chain in Fraction arithmetic."""
    chain = [[F(c) for c in p.coeffs], [F(c) for c in p.derivative().coeffs]]
    while any(c != 0 for c in chain[-1]):
        _, r = frac_divmod(chain[-2], chain[-1])
        if not any(c != 0 for c in r):
            break
        chain.append([-c for c in r])
    return [row for row in chain if any(x != 0 for x in row)]


def frac_variations(chain, x: Fraction) -> int:
    signs = [s for s in (frac_sign(row, x) for row in chain) if s != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def bareiss_det(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def sylvester_resultant(p: list[int], q: list[int]) -> int:
    while p and p[-1] == 0:
        p = p[:-1]
    while q and q[-1] == 0:
        q = q[:-1]
    m, n = len(p) - 1, len(q) - 1
    if m < 0 or n < 0:
        return 0
    if m == 0:
        return p[0] ** n
    if n == 0:
        return q[0] ** m
    size = m + n
    ph, qh = list(reversed(p)), list(reversed(q))
    rows = [[0] * i + ph + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + qh + [0] * (size - n - 1 - i) for i in range(m)]
    return bareiss_det(rows)


def interp_integer_poly(points: list[tuple[int, int]]) -> IntPoly:
    n = len(points)
    coeffs = [F(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis, denom = [F(1)], F(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [F(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k + 1] += b
                new[k] -= b * xj
            basis = new
            denom *= xi - xj
        w = F(yi) / denom
        for k, b in enumerate(basis):
            coeffs[k] += w * b
    assert all(c.denominator == 1 for c in coeffs)
    return IntPoly(tuple(int(c) for c in coeffs))


def resultant_combination_poly(a: RealAlg, b: RealAlg, op: str) -> IntPoly:
    """Res_y(p(y), q(t - y)) or Res_y(p(y), y^n q(t/y)), by evaluation at
    integer points and Lagrange interpolation."""
    p, q = a.minpoly.coeffs, b.minpoly.coeffs
    m, n = len(p) - 1, len(q) - 1
    points = []
    t = 0
    while len(points) < m * n + 1:
        qy = [0] * (n + 1)
        if op == "add":
            for i, qi in enumerate(q):  # qi * (t - y)^i
                for k in range(i + 1):
                    qy[k] += qi * comb(i, k) * t ** (i - k) * (-1) ** k
        else:
            for i, qi in enumerate(q):
                qy[n - i] += qi * t ** i
        points.append((t, sylvester_resultant(list(p), qy)))
        t = -t + (1 if t <= 0 else 0)
    return interp_integer_poly(points)


def seeded_irrationals(seed: int, count: int) -> list[RealAlg]:
    """Real roots of random irreducible integer polynomials of degree 2-4,
    with leading coefficients other than 1 among them."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        deg = rng.randint(2, 4)
        coeffs = [rng.randint(-5, 5) for _ in range(deg)] + [rng.randint(1, 3)]
        p = IntPoly(tuple(coeffs))
        factors = factor_int_poly(p.coeffs)
        if len(factors) != 1 or factors[0][1] != 1 or len(factors[0][0]) != deg + 1:
            continue
        roots = sturm_isolate_real_roots(p)
        if roots:
            out.append(rng.choice(roots))
    return out


def test_composed_poly_matches_resultant_oracle():
    pool = seeded_irrationals(23, 12)
    assert any(x.minpoly.coeffs[-1] > 1 for x in pool)
    assert any(x.degree == 4 for x in pool)
    rng = random.Random(29)
    pairs = [(x, x) for x in pool[:4]] + [(rng.choice(pool), rng.choice(pool)) for _ in range(16)]
    # a root with each of its conjugates: the composed polynomial has a
    # rational root (a + conj is a trace, a * conj a norm)
    for x in pool[:3]:
        pairs += [(x, y) for y in sturm_isolate_real_roots(x.minpoly)]
    for a, b in pairs:
        if a.degree * b.degree > 9:
            continue  # keep the Sylvester oracle cheap
        for op in ("add", "mul"):
            got = _combination_poly(a, b, op)
            assert got.degree == a.degree * b.degree
            assert got.primitive() == resultant_combination_poly(a, b, op).primitive()


def test_composed_results_match_enclosures():
    pool = seeded_irrationals(31, 8)
    for a, b in zip(pool, pool[1:] + pool[:1]):
        for op, fn in (("add", lambda x, y: x + y), ("mul", lambda x, y: x * y)):
            r = fn(a, b)
            a.refine_below(F(1, 2 ** 40))
            b.refine_below(F(1, 2 ** 40))
            (alo, ahi), (blo, bhi) = a.interval(), b.interval()
            ends = [fn(x, y) for x in (alo, ahi) for y in (blo, bhi)]
            r.refine_below(F(1, 2 ** 40))
            rlo, rhi = r.interval()
            assert rlo <= max(ends) and min(ends) <= rhi


def polys_with_rational_roots(seed: int, count: int) -> list[IntPoly]:
    """Products of linear factors (q x - p), an irreducible quadratic and a
    random cubic, so that roots fall on rational points."""
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        p = int_poly(rng.randint(-4, 4), rng.randint(1, 3))
        for _ in range(rng.randint(0, 2)):
            p = p * int_poly(rng.randint(-4, 4), rng.randint(1, 3))
        if rng.random() < 0.5:
            p = p * int_poly(-rng.choice((2, 3, 5)), 0, 1)
        if rng.random() < 0.5:
            p = p * IntPoly(tuple(rng.randint(-3, 3) for _ in range(3)) + (rng.randint(1, 2),))
        out.append(p)
    return out


def test_integer_sign_test_matches_fraction_horner():
    rng = random.Random(37)
    for p in polys_with_rational_roots(41, 60):
        points = [F(rng.randint(-30, 30), rng.randint(1, 12)) for _ in range(10)]
        points += [r for r in sturm_isolate_real_roots(p) if type(r) is Fraction]
        for x in points:
            assert _sign_at(p.coeffs, x.numerator, x.denominator) == frac_sign(p.coeffs, x)
            # any positive denominator gives the same sign
            assert _sign_at(p.coeffs, 6 * x.numerator, 6 * x.denominator) == frac_sign(p.coeffs, x)


def test_integer_sturm_rows_match_fraction_chain():
    rng = random.Random(43)
    for p in polys_with_rational_roots(47, 60):
        sf = p.squarefree_part()
        if sf.degree < 1:
            continue
        rows, oracle = sturm_chain(sf), frac_sturm_chain(sf)
        assert len(rows) == len(oracle)
        assert all(isinstance(c, int) for row in rows for c in row)
        all_roots = sturm_isolate_real_roots(sf)
        roots = [r for r in all_roots if type(r) is Fraction]
        points = [F(rng.randint(-20, 20), rng.randint(1, 8)) for _ in range(8)] + roots
        for x in points:
            assert [_sign_at(r, x.numerator, x.denominator) for r in rows] == \
                [frac_sign(r, x) for r in oracle]
            assert sign_variations(rows, x) == frac_variations(oracle, x)
        variations = {x: frac_variations(oracle, x) for x in points}
        for lo in points:
            for hi in points:
                if lo > hi:
                    continue
                expected = variations[lo] - variations[hi]
                assert count_roots_halfopen(rows, lo, hi) == expected
                closed = expected + (horner(sf.coeffs, lo) == 0)
                assert _count_roots_closed(rows, lo, hi) == closed
                assert closed == sum(1 for r in all_roots if lo <= r <= hi)


def test_refine_matches_fraction_bisection():
    """Degree >= 3 refines by bisection.  A quadratic number takes the
    isqrt interval of the least level no wider than asked, which still
    isolates it and holds it."""
    xs = seeded_irrationals(53, 10)
    assert {x.degree for x in xs} == {2, 3, 4}
    for x in xs:
        lo, hi = x.interval()
        p = x.minpoly.coeffs
        chain = sturm_chain(x.minpoly)
        for steps in (1, 3, 17, 40):
            y = RealAlg(x.minpoly, lo, hi)
            y.refine(steps)
            if x.degree == 2:
                ylo, yhi = y.interval()
                width = (hi - lo) / 2 ** steps
                assert yhi - ylo <= width
                assert x.compare(ylo) > 0 > x.compare(yhi)
                assert _count_roots_closed(chain, ylo, yhi) == 1
                continue
            a, b = lo, hi
            for _ in range(steps):
                mid = (a + b) / 2
                if frac_sign(p, mid) == frac_sign(p, a):
                    a = mid
                else:
                    b = mid
            assert y.interval() == (a, b)
        if x.degree == 2:
            continue
        z = RealAlg(x.minpoly, lo, hi)
        z.refine_below(F(1, 1000))
        a, b = lo, hi
        while b - a > F(1, 1000):
            mid = (a + b) / 2
            a, b = (mid, b) if frac_sign(p, mid) == frac_sign(p, a) else (a, mid)
        assert z.interval() == (a, b)


# ---------------------------------------------------------------------------
# one representation per value: a Fraction exactly when rational
# ---------------------------------------------------------------------------


def test_degree_one_realalg_is_rejected():
    with pytest.raises(ValueError):
        RealAlg(int_poly(-3, 1), F(3), F(3))
    with pytest.raises(ValueError):
        RealAlg(int_poly(-3, 1), F(2), F(4))


def test_rational_results_are_fractions():
    r = sqrt_of(2)
    results = {
        "sqrt2 * sqrt2": (r * r, 2),
        "(sqrt2 + 1) - sqrt2": ((r + 1) - r, 1),
        "sqrt2 / sqrt2": (r / r, 1),
        "sqrt2 ** 2": (r ** 2, 2),
        "sqrt2 * 0": (r * 0, 0),
        "0 * sqrt2": (0 * r, 0),
    }
    for name, (got, want) in results.items():
        assert type(got) is Fraction, name
        assert got == want, name


def test_mixed_operands_agree_in_either_order():
    irrationals = [sqrt_of(2), -sqrt_of(3), sqrt_of(5) - 2, sqrt_of(2) / 7]
    rationals = [0, 3, -2, F(1, 3), F(-7, 5), F(0), F(141421356, 10 ** 8)]
    for a in irrationals:
        for q in rationals:
            assert sign(a + q - (q + a)) == 0
            assert sign((a - q) + (q - a)) == 0
            assert sign(a * q - q * a) == 0
            if q != 0:
                assert rat((a / q) * (q / a)) == 1
            assert (a < q) == (q > a) and (a > q) == (q < a)
            assert (a <= q) == (q >= a) and (a >= q) == (q <= a)
            assert (a == q) is (q == a) is False
            assert (a != q) is (q != a) is True
            assert a.compare(q) == (q < a) - (a < q) != 0
            assert type(a + q) is type(q + a) is RealAlg
            assert type(a * q) is type(q * a) is (Fraction if q == 0 else RealAlg)


def test_float_and_bool():
    r = sqrt_of(2)
    assert abs(float(r) - 2 ** 0.5) < 1e-11
    assert abs(float(-sqrt_of(3) + 1) - (1 - 3 ** 0.5)) < 1e-11
    assert bool(r) is True and bool(-r) is True
    assert bool(r - r) is False  # the rational zero, a Fraction
    assert bool(sqrt_of(2) * sqrt_of(2) - 2) is False


def test_seeded_rational_systems_stay_in_fractions():
    from ltireach.certify import verify_separator
    from ltireach.geometry import GenPolyhedron
    from ltireach.linalg import RatMatrix

    rng = random.Random(59)
    certified = 0
    for _ in range(12):
        d = rng.randint(1, 3)
        # upper triangular with rational diagonal in (0, 1), conjugated by a
        # unimodular integer matrix: a rational spectrum, not a diagonal matrix
        rows = [[F(rng.randint(1, 9), 10) if i == j else
                 (F(rng.randint(-3, 3), rng.randint(1, 4)) if j > i else F(0))
                 for j in range(d)] for i in range(d)]
        p = [[F(int(i == j) + (rng.randint(-1, 1) if j == i + 1 else 0)) for j in range(d)]
             for i in range(d)]
        pm = RatMatrix.from_rows(p)
        a = pm @ RatMatrix.from_rows(rows) @ pm.inverse()
        s = decompose(a)
        for lam in s.eigenvalues:
            rat(lam)
        for proj in projector_values(s):
            for row in proj:
                for x in row:
                    rat(x)
        box = GenPolyhedron.polytope([tuple(F(c) for c in corner)
                                      for corner in itertools.product((-1, 1), repeat=d)])
        tau = tuple(F(rng.randint(-3, 3) or 1) for _ in range(d))
        for row in expansion_values(s, tau, box.vertices[0]):
            for c in row:
                rat(c)
        far = GenPolyhedron.point(tuple(F(1000) * t for t in tau))
        cert = verify_separator(s, box, far, prefix_sums(s, box, tau))
        assert cert is not None
        certified += 1
        for x in cert.tau:
            rat(x)
        rat(cert.sup_value)
        rat(cert.min_over_q)
    assert certified == 12


# ---------------------------------------------------------------------------
# property test against Q(sqrt n) kept as pairs of Fractions
# ---------------------------------------------------------------------------


class QuadOracle:
    """p + r sqrt(n) as the pair (p, r): exact arithmetic in Q(sqrt n)."""

    def __init__(self, n: int, p: Fraction, r: Fraction):
        self.n, self.p, self.r = n, F(p), F(r)

    def __add__(self, o):
        return QuadOracle(self.n, self.p + o.p, self.r + o.r)

    def __sub__(self, o):
        return QuadOracle(self.n, self.p - o.p, self.r - o.r)

    def __mul__(self, o):
        return QuadOracle(self.n, self.p * o.p + self.n * self.r * o.r, self.p * o.r + self.r * o.p)

    def __truediv__(self, o):
        norm = o.p * o.p - self.n * o.r * o.r  # nonzero: sqrt n is irrational
        return self * QuadOracle(self.n, o.p / norm, -o.r / norm)

    def sign(self) -> int:
        sp, sr = (self.p > 0) - (self.p < 0), (self.r > 0) - (self.r < 0)
        if sp == sr or sr == 0:
            return sp
        if sp == 0:
            return sr
        # opposite signs: p + r sqrt n has the sign of the larger square
        big = (self.p * self.p > self.n * self.r * self.r) - (self.p * self.p < self.n * self.r * self.r)
        return sp * big

    def value(self):
        """The library's value, built from the minimal polynomial alone:
        (x - p)^2 - r^2 n, the larger root when r > 0."""
        if self.r == 0:
            return self.p
        lead = (self.p * self.p - self.r * self.r * self.n).denominator * self.p.denominator
        coeffs = [lead * (self.p * self.p - self.r * self.r * self.n), lead * -2 * self.p, lead]
        low, high = sturm_isolate_real_roots(IntPoly(tuple(int(c) for c in coeffs)))
        return high if self.r > 0 else low


def check_against_oracle(got, want: QuadOracle) -> None:
    if want.r == 0:
        assert rat(got) == want.p
    else:
        assert type(got) is RealAlg
        expected = want.value()
        assert got.minpoly == expected.minpoly
        assert got == expected and hash(got) == hash(expected)
        assert got.isolating_interval() == expected.isolating_interval()


def test_quadratic_field_property():
    rng = random.Random(61)

    def draw(n):
        p = F(rng.randint(-6, 6), rng.randint(1, 4))
        r = F(0) if rng.random() < 0.35 else F(rng.choice((-1, 1)) * rng.randint(1, 5), rng.randint(1, 3))
        return QuadOracle(n, p, r)

    ops = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
           "mul": lambda x, y: x * y, "div": lambda x, y: x / y}
    kinds = Counter()
    for _ in range(120):
        n = rng.choice((2, 3, 5))
        x, y = draw(n), draw(n)
        # a pair whose sum or product is rational while both are irrational
        if rng.random() < 0.2:
            y = QuadOracle(n, draw(n).p, -x.r)
        a, b = x.value(), y.value()
        kinds[type(a).__name__, type(b).__name__] += 1
        for name, fn in ops.items():
            if name == "div" and y.sign() == 0:
                with pytest.raises(ZeroDivisionError):
                    fn(a, b)
                continue
            want = fn(x, y)
            got = fn(a, b)
            check_against_oracle(got, want)
            assert fn(a, b) == got  # again, after the first run refined a and b
            kinds["collapse"] += want.r == 0 and type(a) is type(b) is RealAlg
        s = (x - y).sign()
        assert (a < b, a == b, a > b) == (s < 0, s == 0, s > 0)
        assert (b > a, b == a, b < a) == (s < 0, s == 0, s > 0)
        assert sign(a - b) == s == -sign(b - a)
        assert sign(a) == x.sign()
        check_against_oracle(-a, QuadOracle(n, -x.p, -x.r))
    # every mix of operand types, and rational results from irrational
    # operands, occurred
    assert all(kinds[k] > 0 for k in [("Fraction", "RealAlg"), ("RealAlg", "Fraction"),
                                       ("RealAlg", "RealAlg"), ("Fraction", "Fraction")])
    assert kinds["collapse"] > 0


def test_integer_coordinates_match_fraction_reference():
    """Values of Q(sqrt2) over the discriminants 8 (x^2 - 2) and 32 (x^2 - 8),
    built by arithmetic or from a minimal polynomial and an interval, and
    rationals: every operation gives the value, the discriminant, and so the
    intervals, that the Fraction coordinates of FractionQuad give."""
    rng = random.Random(71)
    bases = [(RealAlg(int_poly(-2, 0, 1), F(1), F(2)), FractionQuad.of_root((-2, 0, 1), F(2))),
             (RealAlg(int_poly(-8, 0, 1), F(2), F(3)), FractionQuad.of_root((-8, 0, 1), F(3)))]
    kinds = Counter()

    def rational():
        return F(rng.randint(-9, 9), rng.randint(1, 6))

    def draw():
        """(library value, reference) for a random irrational in Q(sqrt2)."""
        base, ref = rng.choice(bases)
        a, b = rational(), rational() or F(1)
        got, ref = base * b + a, ref * b + a
        if rng.random() < 0.3:
            # from its minimal polynomial and isolating interval: the
            # discriminant is the minimal polynomial's
            lo, hi = ref.isolating_interval()
            got, ref = RealAlg(ref.minpoly(), lo, hi), FractionQuad.of_root(ref.minpoly().coeffs, hi)
        return got, ref

    def check(got, ref, operands):
        if ref.value() is not None:
            assert type(got) is Fraction and got == ref.value()
            kinds["rational result"] += 1
            return
        assert isinstance(got, RealAlg)
        assert got.minpoly == ref.minpoly()
        assert got.sign() == ref.compare(0)
        if all(got is not x for x in operands):  # a new value, not narrowed yet
            assert got.interval() == ref.interval()
            width = F(1, rng.choice((3, 100, 2 ** 20, 10 ** 9)))
            got.refine_below(width)
            assert got.interval() == ref.refined_below(width)
        assert got.isolating_interval() == ref.isolating_interval()
        twin = RealAlg(ref.minpoly(), *ref.isolating_interval())
        assert got == twin and twin == got and hash(got) == hash(twin)

    for _ in range(150):
        x, rx = draw()
        roll = rng.random()
        if roll < 0.25:
            y = ry = rational()
        elif roll < 0.4:
            # -x plus a rational: sums collapse to rationals
            r = rational()
            y, ry = r - x, r - rx
        elif roll < 0.5:
            # the value of x over the other discriminant
            other = bases[1] if rx.d == 8 else bases[0]
            c, e = other[1].coords(rx)
            y, ry = other[0] * (e / other[1].b) + c, other[1] * (e / other[1].b) + c
            assert ry.compare(rx) == 0
            kinds["equal across discriminants"] += ry.d != rx.d
        else:
            y, ry = draw()
        if isinstance(y, RealAlg):
            kinds["same discriminant" if ry.d == rx.d else "two discriminants"] += 1
        results = [(x + y, rx + ry), (x - y, rx - ry), (x * y, rx * ry), (y + x, ry + rx), (y - x, ry - rx),
                   (y * x, ry * rx), (y / x, ry / rx), (-x, -rx), (x.inverse(), rx.inverse())]
        if y:
            results.append((x / y, rx / ry))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        for got, ref in results:
            check(got, ref, (x, y))
        assert x.compare(y) == rx.compare(ry)
        assert (x < y, x == y, x > y) == (rx.compare(ry) < 0, rx.compare(ry) == 0, rx.compare(ry) > 0)
        if isinstance(y, RealAlg):
            assert y.compare(x) == -rx.compare(ry)
            assert (y == x) == (x == y)
            if x == y:
                assert hash(x) == hash(y)
        check(x, rx, (x,))
    assert all(kinds[k] for k in ("rational result", "equal across discriminants", "same discriminant",
                                  "two discriminants")), kinds


# ---------------------------------------------------------------------------
# quadratic coordinates against the composed-polynomial path
# ---------------------------------------------------------------------------


def isolated_quadratic(p, r, n: int) -> Alg:
    """p + r sqrt(n) from its minimal polynomial (x - p)^2 - r^2 n alone: the
    larger Sturm-isolated root when r > 0.  The RealAlg is built from the
    polynomial and an interval, and nothing here derives its coordinates."""
    p, r = F(p), F(r)
    if r == 0:
        return p
    (coeffs, _), = factor_int_poly(cleared([p * p - r * r * n, -2 * p, F(1)])[0])
    f = IntPoly(coeffs)
    lo, hi = _isolate_squarefree(f)[1 if r > 0 else 0]
    return RealAlg(f, lo, hi)


def enclosure(x, width) -> tuple[Fraction, Fraction]:
    if isinstance(x, RealAlg):
        x.refine_below(width)
    return interval(x)


def root_in(poly: IntPoly, enclose) -> Alg:
    """The root of poly inside every enclosure enclose(width) gives, found by
    factoring and Sturm isolation; its irrational candidates are RealAlgs
    narrowed only by bisection."""
    roots = []
    for coeffs, _ in factor_int_poly(poly.primitive().coeffs):
        f = IntPoly(coeffs)
        if f.degree == 1:
            roots.append(F(-f.coeffs[0], f.coeffs[1]))
        else:
            roots += [RealAlg(f, lo, hi) for lo, hi in _isolate_squarefree(f)]
    width = F(1, 2 ** 16)
    while True:
        lo, hi = enclose(width)
        live = [x for x, (xlo, xhi) in ((x, enclosure(x, width)) for x in roots)
                if xlo <= hi and lo <= xhi]
        if len(live) == 1:
            return live[0]
        width /= 2 ** 16


def composed_reference(a, b, op: str) -> Alg:
    """a + b, a - b, a * b or a / b by composed polynomials: the root of
    _combination_poly (a rational operand enters as the root of its linear
    polynomial) that lies in the sum or product of the operands' enclosures."""
    if op == "sub":
        return composed_reference(a, composed_reference(b, F(-1), "mul"), "add")
    if op == "div":
        if isinstance(b, Fraction):
            return composed_reference(a, 1 / b, "mul")
        inverted = b.minpoly.with_root_inverted()

        def enclose_inverse(width):
            lo, hi = enclosure(b, width)
            if lo <= 0 <= hi:
                bound = root_bound(inverted)
                return -bound, bound
            return 1 / hi, 1 / lo

        return composed_reference(a, root_in(inverted, enclose_inverse), "mul")

    def as_root(x):
        return x if isinstance(x, RealAlg) else SimpleNamespace(minpoly=IntPoly((-x.numerator, x.denominator)))

    def enclose(width):
        (alo, ahi), (blo, bhi) = enclosure(a, width), enclosure(b, width)
        if op == "add":
            return alo + blo, ahi + bhi
        prods = [x * y for x in (alo, ahi) for y in (blo, bhi)]
        return min(prods), max(prods)

    return root_in(_combination_poly(as_root(a), as_root(b), op), enclose)


def reference_sign(x) -> int:
    """Sign of a reference value: an irrational one is bisected until its
    interval excludes 0."""
    if not isinstance(x, RealAlg):
        return (x > 0) - (x < 0)
    while True:
        lo, hi = x.interval()
        if lo > 0 or hi < 0:
            return 1 if lo > 0 else -1
        x.refine(1)


def assert_same_value(got, want) -> None:
    """got, from coordinate arithmetic, is the reference value want: the
    same type, minimal polynomial, canonical interval, sign, order, equality,
    hash and artifact bytes, and it reads back equal with an equal hash."""
    want_sign = reference_sign(want)
    assert type(got) is type(want)
    if isinstance(want, Fraction):
        assert got == want
        return
    assert got.minpoly == want.minpoly
    assert got.isolating_interval() == want.isolating_interval()
    assert sign(got) == want_sign
    assert got.compare(want) == want.compare(got) == 0
    assert got == want and want == got
    assert hash(got) == hash(want)
    assert alg_to_json(got) == alg_to_json(want)
    back = alg_from_json(alg_to_json(got), Rationals())
    assert back == got and hash(back) == hash(got)


# (p, r, n) stands for p + r sqrt(n); an int or Fraction for itself
QUAD_SPECS = [
    (0, 1, 2), (1, 1, 2), (0, 1, 8), (1, -2, 8), (F(-1, 3), F(5, 2), 8), (0, 3, 18),
    (99, -70, 2), (3, -2, 2),  # near-ties: 99 - 70 sqrt2 = (3 - 2 sqrt2)^3, about 1/198
    (0, 1, 3), (2, -1, 12), (F(1, 2), F(1, 4), 5),
    3, -2, F(1, 198), F(17, 99), F(-7, 5),
]


def built_by_arithmetic(spec) -> Alg:
    """The value of a spec as coordinate arithmetic gives it."""
    if not isinstance(spec, tuple):
        return spec
    p, r, n = spec
    return p + r * sqrt_of(n)


def reference_of(spec) -> Alg:
    return isolated_quadratic(*spec) if isinstance(spec, tuple) else F(spec)


OPS = {"add": lambda x, y: x + y, "sub": lambda x, y: x - y,
       "mul": lambda x, y: x * y, "div": lambda x, y: x / y}


def check_pair(x, y) -> None:
    a, b = built_by_arithmetic(x), built_by_arithmetic(y)
    for op, fn in OPS.items():
        if op == "div" and b == 0:
            continue
        assert_same_value(fn(a, b), composed_reference(reference_of(x), reference_of(y), op))
    s = reference_sign(composed_reference(reference_of(x), reference_of(y), "sub"))
    assert (a < b, a == b, a > b) == (s < 0, s == 0, s > 0)
    assert (b > a, b == a, b < a) == (s < 0, s == 0, s > 0)
    assert sign(a - b) == s


def test_coordinates_match_composed_polynomials_on_named_cases():
    cases = [
        ((0, 1, 2), (0, 1, 2)),  # sqrt2 sqrt2 = 2
        ((1, 1, 2), (0, 1, 2)),  # (1 + sqrt2) - sqrt2 = 1
        ((0, 1, 2), (0, 1, 8)),  # one field, two discriminants: sqrt8 = 2 sqrt2
        ((1, -2, 8), (0, 3, 18)),
        ((0, 1, 2), (0, 1, 3)),  # cross-field: sqrt2 + sqrt3 has degree 4
        ((99, -70, 2), (3, -2, 2)),
        ((99, -70, 2), F(1, 198)),
        ((3, -2, 2), F(17, 99)),
        (3, (F(-1, 3), F(5, 2), 8)),
        ((F(-1, 3), F(5, 2), 8), -2),
        (F(-7, 5), (2, -1, 12)),
    ]
    for x, y in cases:
        check_pair(x, y)
        check_pair(y, x)
    s2 = sqrt_of(2)
    assert type(s2 * s2) is Fraction and s2 * s2 == 2
    assert type((1 + s2) - s2) is Fraction and (1 + s2) - s2 == 1
    assert (sqrt_of(2) + sqrt_of(3)).degree == 4
    assert (3 - 2 * s2) ** 3 == 99 - 70 * s2
    assert 99 - 70 * s2 > F(1, 198) > 99 - 70 * s2 - F(1, 10 ** 6)


def test_coordinates_match_composed_polynomials_on_seeded_pairs():
    rng = random.Random(67)
    for _ in range(30):
        check_pair(rng.choice(QUAD_SPECS), rng.choice(QUAD_SPECS))
