import random
from fractions import Fraction
from math import comb

import pytest

from ltireach.exactnum import (
    DegreeCeilingError,
    IntPoly,
    RealAlg,
    _combination_poly,
    _count_roots_closed,
    _frac_divmod,
    _sign_at,
    alg_arith,
    alg_compare,
    alg_sign,
    count_roots_halfopen,
    factor_int_poly,
    int_poly,
    rat_from_str,
    rat_to_str,
    sign_variations,
    sturm_chain,
    sturm_isolate_real_roots,
)

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
    assert neg.sign() == -1 and pos.sign() == 1
    lo, hi = pos.interval()
    assert lo * lo < 2 < hi * hi


def test_isolate_linear_exact():
    (root,) = sturm_isolate_real_roots(int_poly(-3, 1))
    assert root.is_rational and root.to_rational() == 3
    assert root.interval() == (F(3), F(3))


def test_isolate_diag_charpoly():
    # (x - 1/3)(x - 2/3) cleared of denominators: 9x^2 - 9x + 2
    roots = sturm_isolate_real_roots(int_poly(2, -9, 9))
    assert [r.to_rational() for r in roots] == [F(1, 3), F(2, 3)]


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
            assert alg_compare(a, b) < 0


# ---------------------------------------------------------------------------
# algebraic arithmetic
# ---------------------------------------------------------------------------


def test_sqrt2_squared_is_two():
    r = sqrt_of(2)
    sq = alg_arith(r, r, "mul")
    assert sq.is_rational and sq.to_rational() == 2


def test_add_zero_identity():
    rng = random.Random(3)
    for _ in range(10):
        q = F(rng.randint(-20, 20), rng.randint(1, 9))
        a = RealAlg.from_rational(q)
        assert (a + RealAlg.from_rational(0)).to_rational() == q
    r = sqrt_of(3)
    assert alg_compare(r + 0, r) == 0


def test_sqrt2_plus_sqrt3():
    s = alg_arith(sqrt_of(2), sqrt_of(3), "add")
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
    assert 3 < s.approx_float() < 3.5
    # Oracle 2: no quadratic integer divisor exists (brute-force search),
    # so the quartic really is the minimal polynomial.
    assert not brute_force_factor_has_quadratic_divisor(expected)


def test_alg_sign_cases():
    r = sqrt_of(2)
    assert alg_sign(r - F(3, 2)) == -1
    assert alg_sign(RealAlg.from_rational(0)) == 0
    # (sqrt2 + sqrt3)^2 - 5 - 2*sqrt6 == 0, by symbolic expansion
    s = sqrt_of(2) + sqrt_of(3)
    val = s * s - 5 - 2 * sqrt_of(6)
    assert alg_sign(val) == 0


def test_alg_compare_cases():
    assert alg_compare(RealAlg.from_rational(F(1, 3)), RealAlg.from_rational(F(2, 3))) == -1
    r = sqrt_of(2)
    assert alg_compare(r, r) == 0
    # squaring oracle: sqrt2 > 1.41421356 because 2 > 1.41421356^2
    approx = F(141421356, 10 ** 8)
    assert approx * approx < 2
    assert alg_compare(r, RealAlg.from_rational(approx)) == 1


def test_sign_agrees_with_compare_randomized():
    rng = random.Random(5)
    pool = [RealAlg.from_rational(F(rng.randint(-9, 9), rng.randint(1, 7))) for _ in range(8)]
    pool += [sqrt_of(2), sqrt_of(3), -sqrt_of(2), sqrt_of(2) / 2]
    for _ in range(60):
        a, b = rng.choice(pool), rng.choice(pool)
        assert alg_sign(a - b) == alg_compare(a, b)


def test_rational_roundtrip():
    rng = random.Random(13)
    for _ in range(30):
        q = F(rng.randint(-50, 50), rng.randint(1, 23))
        assert RealAlg.from_rational(q).to_rational() == q


def test_division_by_zero_signaled():
    with pytest.raises(ZeroDivisionError):
        alg_arith(sqrt_of(2), RealAlg.from_rational(0), "div")


def test_division_exact():
    r = sqrt_of(2)
    assert alg_compare(r / r, RealAlg.from_rational(1)) == 0
    third = RealAlg.from_rational(F(1, 3))
    assert ((r / third) / r).to_rational() == 3


def test_powers():
    r = sqrt_of(2)
    assert (r ** 4).to_rational() == 4
    assert alg_compare(r ** -2, RealAlg.from_rational(F(1, 2))) == 0


def test_ring_axioms_on_quadratic_irrationals():
    # distributivity/associativity drive the resultant + factoring path
    rng = random.Random(17)
    pool = [sqrt_of(2), sqrt_of(3), -sqrt_of(2), sqrt_of(2) / 2,
            sqrt_of(2) + 1, RealAlg.from_rational(F(3, 7)), sqrt_of(5) - 2]
    for _ in range(12):
        a, b, c = (rng.choice(pool) for _ in range(3))
        assert alg_sign((a + b) * c - (a * c + b * c)) == 0
        assert alg_sign((a * b) * c - a * (b * c)) == 0
        assert alg_sign((a + b) - (b + a)) == 0


def test_mixed_field_products_reduce():
    # sqrt2 * sqrt3 lands in a third quadratic field with exact minpoly
    prod = sqrt_of(2) * sqrt_of(3)
    assert prod.minpoly == int_poly(-6, 0, 1)
    assert alg_compare(prod, sqrt_of(6)) == 0
    # and collapses to a rational when the fields cancel
    collapsed = (sqrt_of(2) + 1) * (sqrt_of(2) - 1)
    assert collapsed.to_rational() == 1


def test_degree_ceiling_guard(monkeypatch):
    from ltireach import exactnum

    monkeypatch.setattr(exactnum, "DEGREE_CEILING", 4)
    a = sqrt_of(2)
    b = sturm_isolate_real_roots(int_poly(-2, 0, 0, 0, 0, 1))[-1]  # 2^(1/5)
    with pytest.raises(DegreeCeilingError):
        alg_arith(a, b, "add")


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
        _, r = _frac_divmod(chain[-2], chain[-1])
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
            r = alg_arith(a, b, op)
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
        points += [r.to_rational() for r in sturm_isolate_real_roots(p) if r.is_rational]
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
        roots = [r.to_rational() for r in all_roots if r.is_rational]
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
                assert closed == sum(1 for r in all_roots if r.compare(lo) >= 0 and r.compare(hi) <= 0)


def test_refine_matches_fraction_bisection():
    for x in seeded_irrationals(53, 10):
        lo, hi = x.interval()
        p = x.minpoly.coeffs
        for steps in (1, 3, 17, 40):
            y = RealAlg(x.minpoly, lo, hi)
            y.refine(steps)
            a, b = lo, hi
            for _ in range(steps):
                mid = (a + b) / 2
                if frac_sign(p, mid) == frac_sign(p, a):
                    a = mid
                else:
                    b = mid
            assert y.interval() == (a, b)
        z = RealAlg(x.minpoly, lo, hi)
        z.refine_below(F(1, 1000))
        a, b = lo, hi
        while b - a > F(1, 1000):
            mid = (a + b) / 2
            a, b = (mid, b) if frac_sign(p, mid) == frac_sign(p, a) else (a, mid)
        assert z.interval() == (a, b)
