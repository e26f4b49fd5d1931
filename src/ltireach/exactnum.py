"""Exact scalar arithmetic: rationals, integer polynomials, real algebraic numbers.

A number has one representation: a Fraction if and only if it is rational.
An irrational real algebraic number is a RealAlg, stored as a pair
(minimal polynomial, isolating interval).  The minimal polynomial is an
irreducible primitive integer polynomial of degree >= 2 with positive
leading coefficient; the interval is a rational interval containing
exactly one of its real roots.  RealAlg arithmetic takes int and Fraction
operands directly, and an operation whose result is rational (sqrt2 *
sqrt2, or any product with 0) returns a Fraction.  interval() serves
callers that hold either type.

Signs and comparisons are decided exactly: unless the coordinates below
decide them, intervals are refined by bisection until the question
resolves.  Refinement always terminates because an irreducible polynomial
of degree >= 2 has no rational roots, so a rational bisection point, or a
rational compared against, is never itself a root.  The sign of an integer polynomial at a rational p/q is
read off the homogenized integer form sum c_i p^i q^(d-i), and Sturm
chains are stored as primitive integer rows, so sign tests and root
counts never build a Fraction.  Polynomial remainders, gcds and
squarefree parts run in integers too: a pseudo-remainder is a positive
multiple of the remainder over Q, and the gcd follows the primitive
pseudo-remainder sequence (Cohen, GTM 138, section 3.3).

A quadratic irrational is also held as integer coordinates in Q(sqrt d),
the value (p + q sqrt(d)) / den with den > 0, gcd(p, q, den) = 1 and d the
discriminant of its minimal polynomial (Cohen, GTM 138, section 4.2).  Two
quadratic fields agree when the product of their discriminants is a
square.  Sums, products, inverses, negation and shifts or scalings by a
rational stay on the coordinates when every operand is rational or in one
quadratic field, as integer products reduced by one gcd, and the sign of
p + q sqrt(d) follows from the signs of p and q and the comparison of p^2
with q^2 d, so no interval is refined and no Fraction is built.  A value
that such arithmetic builds stores only its coordinates; its minimal
polynomial and interval are derived from them when something reads them.
in_one_quadratic_field tells a caller when a set of values stays on
coordinates, without reading them.

Any other sum or product of two irrational numbers is a root of the
composed sum or product of their minimal polynomials, built from power
sums with Newton's identities (Bostan, Flajolet, Salvy & Schost, 2006);
the factor of it that owns the root becomes the result's minimal
polynomial, and a linear factor makes the result a Fraction.  The same
power sums give linalg's real-spectrum test the polynomial of the ratios
of two eigenvalues and the polynomial of their m-th powers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, gcd, isqrt, lcm


# no real algebraic number, parsed or computed, has a higher degree
DEGREE_CEILING = 64


class DegreeCeilingError(Exception):
    """Raised when an algebraic operation would exceed the degree guard."""


# a rational numeral: an optional sign and ASCII digits, then optionally
# "/" and ASCII digits ([0-9] matches no other digits in a str pattern)
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rat_from_str(text: str) -> Fraction:
    """Parse 'p/q' or 'p': an optional sign and ASCII digits, then
    optionally '/' and ASCII digits.  Anything else (decimals, spaces,
    underscores, other digits) raises ValueError, as does a zero
    denominator."""
    m = _RATIONAL.fullmatch(text)
    if m is None:
        raise ValueError(f"malformed rational {text!r}")
    num, den = m.groups()
    if den is None:
        return Fraction(int(num))
    q = int(den)
    if q == 0:
        raise ValueError(f"zero denominator in rational {text!r}")
    return Fraction(int(num), q)


def as_fraction(x) -> Fraction:
    """x itself when it is a Fraction, else Fraction(x): a value already
    exact is not formed again."""
    return x if type(x) is Fraction else Fraction(x)


def cleared(xs) -> tuple[tuple, int]:
    """(nums, den) with xs[k] = nums[k] / den: for a sequence of rationals,
    ints or Fractions, their numerators over their least common
    denominator, which leaves them in lowest terms; for one with a RealAlg
    entry, the entries themselves over 1.  The one place where
    denominators are cleared."""
    try:
        den = lcm(*[x.denominator for x in xs])
    except AttributeError:
        if not any(isinstance(x, RealAlg) for x in xs):
            raise
        return tuple(xs), 1
    return tuple([x.numerator * (den // x.denominator) for x in xs]), den


def rat_to_str(q: Fraction) -> str:
    q = as_fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


# ---------------------------------------------------------------------------
# Integer polynomials, coefficients stored lowest degree first.
# ---------------------------------------------------------------------------


def _strip(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    i = len(coeffs)
    while i > 0 and coeffs[i - 1] == 0:
        i -= 1
    return tuple(coeffs[:i])


@dataclass(frozen=True)
class IntPoly:
    """Integer polynomial; () is the zero polynomial."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _strip(tuple(int(c) for c in self.coeffs)))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def derivative(self) -> "IntPoly":
        return IntPoly(tuple(i * c for i, c in enumerate(self.coeffs) if i > 0))

    def __neg__(self) -> "IntPoly":
        return IntPoly(tuple(-c for c in self.coeffs))

    def __add__(self, other: "IntPoly") -> "IntPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        return IntPoly(tuple(x + y for x, y in zip(a, b)) + a[len(b):])

    def __sub__(self, other: "IntPoly") -> "IntPoly":
        return self + (-other)

    def __mul__(self, other: "IntPoly") -> "IntPoly":
        if self.is_zero or other.is_zero:
            return IntPoly(())
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return IntPoly(tuple(out))

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, abs(c))
        return g

    def primitive(self) -> "IntPoly":
        """Divide out the content and normalize the leading sign to +."""
        if self.is_zero:
            return self
        g = self.content()
        sign = 1 if self.coeffs[-1] > 0 else -1
        return IntPoly(tuple(c * sign // g for c in self.coeffs))

    def squarefree_part(self) -> "IntPoly":
        """The product of the distinct irreducible factors, primitive with
        positive lead: self over its gcd with the derivative, a division
        that stays in the integers since the gcd is primitive (Gauss's
        lemma)."""
        g = poly_gcd(self, self.derivative())
        if g.degree <= 0:
            return self.primitive()
        return IntPoly(_exact_quotient(self.coeffs, g.coeffs)).primitive()

    # Root transformations used by the rational-operand fast paths.  Each
    # preserves irreducibility (it is composition with an invertible
    # rational affine or inversion map).

    def with_root_shifted(self, r: Fraction) -> "IntPoly":
        """Roots move from a to a + r; computes p(x - r) cleared of denominators."""
        # Horner in (x - r): acc = acc*(x - r) + c
        acc: list[Fraction] = []
        for c in reversed(self.coeffs):
            nxt = [Fraction(0)] * (len(acc) + 1)
            for i, a in enumerate(acc):
                nxt[i + 1] += a
                nxt[i] -= a * r
            nxt[0] += c
            acc = nxt
        return IntPoly(cleared(acc)[0]).primitive()

    def with_root_scaled(self, r: Fraction) -> "IntPoly":
        """Roots move from a to a*r (r nonzero); computes p(x/r) cleared."""
        if r == 0:
            raise ValueError("scale by zero")
        r = Fraction(r)
        out = [c / (r ** i) for i, c in enumerate(self.coeffs)]
        return IntPoly(cleared(out)[0]).primitive()

    def with_root_inverted(self) -> "IntPoly":
        """Roots move from a to 1/a; requires nonzero constant term."""
        if not self.coeffs or self.coeffs[0] == 0:
            raise ValueError("zero is a root; cannot invert")
        return IntPoly(tuple(reversed(self.coeffs))).primitive()

    def with_root_negated(self) -> "IntPoly":
        return IntPoly(tuple(c if i % 2 == 0 else -c for i, c in enumerate(self.coeffs))).primitive()

    def __repr__(self) -> str:
        if self.is_zero:
            return "IntPoly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c:
                if i == 0:
                    terms.append(str(c))
                elif i == 1:
                    terms.append(f"{c}*x")
                else:
                    terms.append(f"{c}*x^{i}")
        return "IntPoly(" + " + ".join(terms) + ")"


def _pseudo_remainder(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """A positive multiple of the remainder of a by b (b nonzero, both
    without trailing zeros): each step multiplies the partial remainder by
    |lc(b)| and cancels its leading term, so it stays in the integers."""
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    r = list(a)
    while len(r) >= len(b):
        f = r[-1] * sign
        k = len(r) - len(b)
        r = [x * scale for x in r]
        for i, c in enumerate(b):
            r[k + i] -= f * c
        r.pop()
        while r and r[-1] == 0:
            r.pop()
    return tuple(r)


def _exact_quotient(a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
    """a / b for an integer polynomial b that divides a with an integer
    quotient (b primitive, by Gauss's lemma)."""
    r = list(a)
    q = [0] * (len(a) - len(b) + 1)
    for k in range(len(q) - 1, -1, -1):
        f, rem = divmod(r[k + len(b) - 1], b[-1])
        assert rem == 0, "divisor must divide"
        q[k] = f
        for i, c in enumerate(b):
            r[k + i] -= f * c
    assert not any(r), "divisor must divide"
    return tuple(q)


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over the integers, positive lead, by the primitive
    pseudo-remainder sequence (Cohen, GTM 138, section 3.3): every
    remainder is divided by its content, so no Fraction is built."""
    a, b = p.primitive().coeffs, q.primitive().coeffs
    while b:
        a, b = b, IntPoly(_pseudo_remainder(a, b)).primitive().coeffs
    return IntPoly(a).primitive()


@lru_cache(maxsize=4096)
def factor_int_poly(coeffs: tuple[int, ...]) -> tuple[tuple[tuple[int, ...], int], ...]:
    """Irreducible factorization over Z, constants dropped.

    Returns ((factor_coeffs, multiplicity), ...) with factors primitive,
    positive leading coefficient, sorted by (degree, coefficients).
    """
    p = IntPoly(coeffs)
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.degree == 0:
        return ()
    if p.degree <= 2:
        return _factor_low_degree(p.primitive())
    import sympy

    x = sympy.Symbol("x")
    poly = sympy.Poly(list(reversed(p.coeffs)), x, domain="ZZ")
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        fcoeffs = IntPoly(tuple(int(c) for c in reversed(fac.all_coeffs()))).primitive()
        if fcoeffs.degree >= 1:
            out.append((fcoeffs.coeffs, int(mult)))
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return tuple(out)


def _factor_low_degree(p: IntPoly) -> tuple[tuple[tuple[int, ...], int], ...]:
    """factor_int_poly for a primitive p of degree 1 or 2, without sympy:
    c0 + c1 x + c2 x^2 splits over Q exactly when d = c1^2 - 4 c0 c2 is a
    square s^2, into the primitive parts of 2 c2 x + c1 -+ s (Gauss's
    lemma), so the cost is one integer square root at any coefficient size."""
    if p.degree == 1:
        return ((p.coeffs, 1),)
    c0, c1, c2 = p.coeffs
    d = c1 * c1 - 4 * c0 * c2
    s = isqrt(d) if d >= 0 else -1
    if s * s != d:
        return ((p.coeffs, 1),)
    if s == 0:
        return ((IntPoly((c1, 2 * c2)).primitive().coeffs, 2),)
    out = [(IntPoly((c1 - s, 2 * c2)).primitive().coeffs, 1),
           (IntPoly((c1 + s, 2 * c2)).primitive().coeffs, 1)]
    out.sort(key=lambda fm: (len(fm[0]), fm[0]))
    return tuple(out)


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------


def sturm_chain(p: IntPoly) -> list[list[int]]:
    return [list(row) for row in _sturm_chain_cached(p.coeffs)]


def _positive_primitive(coeffs) -> tuple[int, ...]:
    """Divide out the content, keeping the sign of every coefficient."""
    g = 0
    for c in coeffs:
        g = gcd(g, c)
    return tuple(c // g for c in coeffs)


@lru_cache(maxsize=4096)
def _sturm_chain_cached(coeffs: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Sturm chain of p.  Each row is a primitive integer polynomial and a
    positive multiple of the classical row, so it has the same signs: the
    remainder of a positive multiple of a by any multiple of b is a positive
    multiple of the remainder of a by b."""
    p = IntPoly(coeffs)
    chain = [_positive_primitive(p.coeffs)]
    dp = p.derivative()
    if dp:
        chain.append(_positive_primitive(dp.coeffs))
    while len(chain) > 1:
        r = _pseudo_remainder(chain[-2], chain[-1])
        if not r:
            break
        chain.append(_positive_primitive([-c for c in r]))
    return tuple(row for row in chain if row)


def _sign_at(coeffs, num: int, den: int) -> int:
    """Sign of the polynomial at num/den (den > 0, not necessarily in lowest
    terms), from the homogenized integer form sum c_i num^i den^(d-i)."""
    if not coeffs:
        return 0
    acc = coeffs[-1]
    den_k = 1
    for c in reversed(coeffs[:-1]):
        den_k *= den
        acc = acc * num + c * den_k
    return (acc > 0) - (acc < 0)


def _sign_at_inf(coeffs, positive: bool) -> int:
    lead = coeffs[-1]
    s = (lead > 0) - (lead < 0)
    if not positive and (len(coeffs) - 1) % 2 == 1:
        s = -s
    return s


def sign_variations(chain: list[list[int]], x) -> int:
    """x is a Fraction, or '+inf' / '-inf'."""
    signs = []
    for coeffs in chain:
        if x == "+inf":
            s = _sign_at_inf(coeffs, True)
        elif x == "-inf":
            s = _sign_at_inf(coeffs, False)
        else:
            s = _sign_at(coeffs, x.numerator, x.denominator)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[list[int]], lo, hi) -> int:
    """Distinct real roots in (lo, hi]; endpoints may be '+inf'/'-inf'."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def _count_roots_closed(chain: list[list[int]], lo: Fraction, hi: Fraction) -> int:
    """Distinct real roots in [lo, hi] of the chain's first row."""
    cnt = count_roots_halfopen(chain, lo, hi)
    if _sign_at(chain[0], lo.numerator, lo.denominator) == 0:
        cnt += 1
    return cnt


def root_bound(p: IntPoly) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    lead = abs(p.coeffs[-1])
    m = max(abs(c) for c in p.coeffs)
    return 1 + Fraction(m, lead)


@lru_cache(maxsize=4096)
def _isolate_squarefree(p: IntPoly) -> tuple[tuple[Fraction, Fraction], ...]:
    """Isolating intervals (open, endpoints not roots) for a squarefree p
    with no rational roots, sorted ascending."""
    chain = sturm_chain(p)
    bound = root_bound(p)
    total = count_roots_halfopen(chain, -bound, bound)
    out: list[tuple[Fraction, Fraction]] = []
    stack = [(-bound, bound, total)]
    while stack:
        lo, hi, cnt = stack.pop()
        if cnt == 0:
            continue
        if cnt == 1:
            out.append((lo, hi))
            continue
        mid = (lo + hi) / 2
        left = count_roots_halfopen(chain, lo, mid)
        stack.append((mid, hi, cnt - left))
        stack.append((lo, mid, left))
    return tuple(sorted(out))


# ---------------------------------------------------------------------------
# Real algebraic numbers
# ---------------------------------------------------------------------------


class RealAlg:
    """An irrational real algebraic number: irreducible minimal polynomial
    of degree >= 2 and an isolating interval.  Rational values are Fractions,
    never RealAlg; an operation whose result is rational returns a Fraction.

    A quadratic number also has integer coordinates (p, q, den, d): it is
    (p + q sqrt(d)) / den with q nonzero, den > 0, gcd(p, q, den) = 1 and d
    the discriminant of its minimal polynomial.  Arithmetic on a quadratic
    number and a rational, or on two quadratic numbers of one field, sets
    the result's coordinates and nothing else; its minimal polynomial,
    (den x - p)^2 - q^2 d made primitive, and its interval are derived when
    something reads them.  A value from a minimal polynomial and an interval
    derives its coordinates when it is built.

    Publicly immutable.  The interval is narrowed in place on demand, and
    the minimal polynomial and interval are filled in on first use; none
    of this changes the represented number, so concurrent refinement is
    benign.  Every quadratic number narrows its interval by one integer
    square root, and every other number by bisection.
    """

    __slots__ = ("_minpoly", "_lo", "_hi", "_quad")

    def __init__(self, minpoly: IntPoly, lo: Fraction, hi: Fraction, _trusted: bool = False):
        self._minpoly = minpoly
        self._lo = as_fraction(lo)
        self._hi = as_fraction(hi)
        if not _trusted:
            self._validate()
        self._quad = _root_coords(minpoly.coeffs, self._hi) if minpoly.degree == 2 else None

    def _validate(self) -> None:
        p = self._minpoly
        if p.degree < 2:
            raise ValueError("minimal polynomial must have degree >= 2; rationals are Fractions")
        if p.coeffs[-1] < 0 or p.content() != 1:
            raise ValueError("minimal polynomial must be primitive with positive lead")
        if p.degree > DEGREE_CEILING:
            raise DegreeCeilingError(f"degree {p.degree} exceeds ceiling {DEGREE_CEILING}")
        if self._lo > self._hi:
            raise ValueError("interval endpoints out of order")
        if _count_roots_closed(sturm_chain(p), self._lo, self._hi) != 1:
            raise ValueError("interval does not isolate exactly one root")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> Fraction:
        """The one place a rational result leaves exactnum: as a Fraction."""
        return as_fraction(q)

    @staticmethod
    def from_root(p: IntPoly, lo, hi) -> Alg:
        """Validated constructor: [lo, hi] must isolate one real root of p.

        p need not be irreducible; the irreducible factor owning the root
        becomes the minimal polynomial, so equality stays structural.  A
        root of a linear factor is returned as a Fraction.  A linear p has
        the one root -c0/c1, accepted exactly when lo <= root <= hi, which
        is what the closed Sturm count decides, so it is read without
        factoring or a Sturm chain.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if p.is_zero:
            raise ValueError("zero polynomial")
        if p.degree == 1:
            root = Fraction(-p.coeffs[0], p.coeffs[1])
            if not lo <= root <= hi:
                raise ValueError("interval does not isolate exactly one root")
            return RealAlg.from_rational(root)
        owners = []
        for fcoeffs, _ in factor_int_poly(p.coeffs):
            f = IntPoly(fcoeffs)
            owners += [f] * _count_roots_closed(sturm_chain(f), lo, hi)
        if len(owners) != 1:
            raise ValueError("interval does not isolate exactly one root")
        f = owners[0]
        if f.degree == 1:
            return RealAlg.from_rational(Fraction(-f.coeffs[0], f.coeffs[1]))
        # factor_int_poly's factors are primitive with positive lead, and the
        # count above isolated the root, so only the ceiling is left to check
        if f.degree > DEGREE_CEILING:
            raise DegreeCeilingError(f"degree {f.degree} exceeds ceiling {DEGREE_CEILING}")
        return RealAlg(f, lo, hi, _trusted=True)

    @staticmethod
    def _from_coords(p: int, q: int, den: int, d: int) -> Alg:
        """(p + q sqrt(d)) / den for integers with den nonzero, and d the
        discriminant of a quadratic number's minimal polynomial (a positive
        non-square); a Fraction when q = 0.  One gcd reduces the coordinates
        to den > 0 and gcd(p, q, den) = 1."""
        if not q:
            return RealAlg.from_rational(Fraction(p, den))
        g = gcd(p, q, den)
        if den < 0:
            g = -g
        if g != 1:
            p, q, den = p // g, q // g, den // g
        x = object.__new__(RealAlg)
        x._minpoly = x._lo = x._hi = None
        x._quad = (p, q, den, d)
        return x

    # -- basic queries ------------------------------------------------

    @property
    def minpoly(self) -> IntPoly:
        if self._minpoly is None:
            p, q, den, d = self._quad
            # (den x - p)^2 = q^2 d, irreducible since sqrt(d) is irrational
            self._minpoly = IntPoly((p * p - q * q * d, -2 * p * den, den * den)).primitive()
        return self._minpoly

    @property
    def degree(self) -> int:
        return 2 if self._quad is not None else self._minpoly.degree

    def interval(self) -> tuple[Fraction, Fraction]:
        if self._lo is None:
            self._set_quad_interval(0)
        return self._lo, self._hi

    def _set_quad_interval(self, k: int) -> None:
        """Set the interval from sqrt(d) in (s, s + 1) / 2^k, s = isqrt(d 4^k):
        it has width |q| / (den 2^k) and isolates self, since the conjugate
        (p - q sqrt(d)) / den lies 2 |q| sqrt(d) / den > |q| / den away."""
        p, q, den, d = self._quad
        s = isqrt(d << (2 * k))
        base, scale = p << k, den << k
        lo, hi = Fraction(base + q * s, scale), Fraction(base + q * (s + 1), scale)
        self._lo, self._hi = (lo, hi) if q > 0 else (hi, lo)

    def isolating_interval(self) -> tuple[Fraction, Fraction]:
        """The interval that root isolation of the minimal polynomial gives
        this root: a function of the value alone, unlike interval(), which
        reflects how far this object has been narrowed."""
        return next((lo, hi) for lo, hi in _isolate_squarefree(self.minpoly)
                    if self.compare(hi) < 0)

    def refine(self, steps: int = 1) -> None:
        """Narrow the interval to at most 2^-steps of its width.

        A number with coordinates takes its interval from one integer
        square root.  Otherwise the interval is halved `steps` times,
        bisecting the integers lo*den and hi*den over a common denominator
        den that doubles each step, so no step builds a Fraction."""
        if steps <= 0:
            return
        if self._quad is not None:
            lo, hi = self.interval()
            self.refine_below((hi - lo) / 2 ** steps)
            return
        p = self._minpoly.coeffs
        lo, hi = self._lo, self._hi
        den = lo.denominator * hi.denominator
        a, b = lo.numerator * hi.denominator, hi.numerator * lo.denominator
        slo = _sign_at(p, a, den)
        for _ in range(steps):
            mid = a + b
            den *= 2
            # mid/den is never a root: p is irreducible of degree >= 2
            if _sign_at(p, mid, den) == slo:
                a, b = mid, 2 * b
            else:
                a, b = 2 * a, mid
        self._lo, self._hi = Fraction(a, den), Fraction(b, den)

    def refine_below(self, width: Fraction) -> None:
        """Narrow the interval until it is no wider than `width`."""
        lo, hi = self.interval()
        if hi - lo <= width:
            return
        if self._quad is not None:
            # the least k with |q| / (den 2^k) <= width, from the ceiling of
            # |q| / (den width)
            _, q, den, _ = self._quad
            width = as_fraction(width)
            ceiling = -(-abs(q) * width.denominator // (den * width.numerator))
            self._set_quad_interval((ceiling - 1).bit_length())
            return
        steps = 0
        w = hi - lo
        while w > width:
            w /= 2
            steps += 1
        self.refine(steps)

    def sign(self) -> int:
        coords = self._quad
        if coords is not None:
            return _quad_sign(coords[0], coords[1], coords[3])
        while True:
            if self._lo > 0:
                return 1
            if self._hi < 0:
                return -1
            self.refine()

    def __bool__(self) -> bool:
        return True  # an irrational number is never zero

    def __float__(self) -> float:
        self.refine_below(Fraction(1, 10 ** 12))
        return float((self._lo + self._hi) / 2)

    # -- arithmetic ----------------------------------------------------

    def _shift(self, r) -> "RealAlg":
        """self + r for rational r; never rational."""
        if r == 0:
            return self
        coords = self._quad
        if coords is not None:
            p, q, den, d = coords
            n, m = r.numerator, r.denominator
            return RealAlg._from_coords(p * m + n * den, q * m, den * m, d)
        return RealAlg(self._minpoly.with_root_shifted(r), self._lo + r, self._hi + r, _trusted=True)

    def _scale(self, r) -> Alg:
        """self * r for rational r; rational only when r is zero."""
        if r == 0:
            return RealAlg.from_rational(0)
        if r == 1:
            return self
        coords = self._quad
        if coords is not None:
            p, q, den, d = coords
            n, m = r.numerator, r.denominator
            return RealAlg._from_coords(p * n, q * n, den * m, d)
        lo, hi = self._lo * r, self._hi * r
        if r < 0:
            lo, hi = hi, lo
        return RealAlg(self._minpoly.with_root_scaled(r), lo, hi, _trusted=True)

    def inverse(self) -> "RealAlg":
        coords = self._quad
        if coords is not None:
            p, q, den, d = coords
            norm = p * p - q * q * d  # nonzero: sqrt(d) is irrational
            return RealAlg._from_coords(den * p, -den * q, norm, d)
        while self._lo <= 0 <= self._hi:
            self.refine()
        lo, hi = 1 / self._hi, 1 / self._lo
        return RealAlg(self._minpoly.with_root_inverted(), lo, hi, _trusted=True)

    def __neg__(self) -> "RealAlg":
        coords = self._quad
        if coords is not None:
            return RealAlg._from_coords(-coords[0], -coords[1], coords[2], coords[3])
        return RealAlg(self._minpoly.with_root_negated(), -self._hi, -self._lo, _trusted=True)

    def __add__(self, other) -> Alg:
        if isinstance(other, RealAlg):
            pair = _same_field(self, other)
            if pair is not None:
                (p, q, den, d), (p2, q2, den2) = pair
                return RealAlg._from_coords(p * den2 + p2 * den, q * den2 + q2 * den, den * den2, d)
            return _resultant_combine(self, other, "add")
        if isinstance(other, (int, Fraction)):
            return self._shift(other)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other) -> Alg:
        if isinstance(other, (RealAlg, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other) -> "RealAlg":
        if isinstance(other, (int, Fraction)):
            return (-self)._shift(other)
        return NotImplemented

    def __mul__(self, other) -> Alg:
        if isinstance(other, RealAlg):
            pair = _same_field(self, other)
            if pair is not None:
                (p, q, den, d), (p2, q2, den2) = pair
                return RealAlg._from_coords(p * p2 + q * q2 * d, p * q2 + q * p2, den * den2, d)
            return _resultant_combine(self, other, "mul")
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other) -> Alg:
        if isinstance(other, RealAlg):
            return self * other.inverse()
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of an algebraic number by zero")
            return self._scale(Fraction(1) / other)
        return NotImplemented

    def __rtruediv__(self, other) -> Alg:
        if isinstance(other, (int, Fraction)):
            return self.inverse()._scale(other)
        return NotImplemented

    def __pow__(self, n: int) -> Alg:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = RealAlg.from_rational(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base_needed = n >> 1
            if base_needed:
                base = base * base
            n >>= 1
        return result

    def __abs__(self) -> "RealAlg":
        return -self if self.sign() < 0 else self

    # -- comparisons ----------------------------------------------------

    def compare(self, other) -> int:
        if isinstance(other, (int, Fraction)):
            coords = self._quad
            if coords is not None:
                p, q, den, d = coords
                n, m = other.numerator, other.denominator
                return _quad_sign(p * m - n * den, q * m, d)
            # refine until the rational falls outside the interval; it is
            # never the root itself
            while True:
                if self._hi < other:
                    return -1
                if other < self._lo:
                    return 1
                self.refine()
        if not isinstance(other, RealAlg):
            raise TypeError("cannot compare")
        pair = _same_field(self, other)
        if pair is not None:
            (p, q, den, d), (p2, q2, den2) = pair
            return _quad_sign(p * den2 - p2 * den, q * den2 - q2 * den, d)
        a, b = self, other
        while True:
            (alo, ahi), (blo, bhi) = a.interval(), b.interval()
            if ahi < blo:
                return -1
            if bhi < alo:
                return 1
            if a.minpoly == b.minpoly:
                # overlapping intervals isolate the same root iff the hull
                # contains exactly one root of the shared minimal polynomial
                chain = sturm_chain(a.minpoly)
                if _count_roots_closed(chain, min(alo, blo), max(ahi, bhi)) == 1:
                    return 0
            a.refine()
            b.refine()

    def __eq__(self, other) -> bool:
        """Exact equality: coordinate equality in one quadratic field, else
        cheap because equal values share the canonical minimal polynomial,
        so differing minpolys decide immediately.  A rational is never
        equal: it is no root of an irreducible polynomial of degree >= 2."""
        if isinstance(other, (int, Fraction)):
            return False
        if not isinstance(other, RealAlg):
            return NotImplemented
        pair = _same_field(self, other)
        if pair is not None:
            (p, q, den, _), (p2, q2, den2) = pair
            return p * den2 == p2 * den and q * den2 == q2 * den
        return self.minpoly == other.minpoly and self.compare(other) == 0

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self) -> int:
        return hash(self.minpoly.coeffs)

    def __repr__(self) -> str:
        lo, hi = self.interval()
        return f"RealAlg({self.minpoly!r} in [{rat_to_str(lo)}, {rat_to_str(hi)}])"


def _root_coords(coeffs: tuple[int, ...], hi: Fraction) -> tuple[int, int, int, int]:
    """(p, q, den, d) with (p + q sqrt(d)) / den the root of the irreducible
    quadratic c0 + c1 x + c2 x^2 (c2 > 0) that an isolating interval ending
    at hi holds.  The roots are (-c1 -+ sqrt(d)) / 2c2, and hi lies above the
    isolated root, so the polynomial is positive at hi exactly when that
    root is the larger one.  q = +-1, so the coordinates are reduced."""
    c0, c1, c2 = coeffs
    up = _sign_at(coeffs, hi.numerator, hi.denominator) > 0
    return -c1, 1 if up else -1, 2 * c2, c1 * c1 - 4 * c0 * c2


def _quad_sign(a: int, b: int, d: int) -> int:
    """Sign of a + b sqrt(d), for integers a, b and d a positive non-square."""
    sa, sb = (a > 0) - (a < 0), (b > 0) - (b < 0)
    if sa == sb or sb == 0:
        return sa
    if sa == 0:
        return sb
    # opposite signs: the larger square wins, and a^2 = b^2 d never holds
    return sa if a * a > b * b * d else sb


def _same_field(x: RealAlg, y: RealAlg) -> tuple[tuple[int, int, int, int], tuple[int, int, int]] | None:
    """((p, q, den, d), (p2, q2, den2)) with x = (p + q sqrt(d)) / den and
    y = (p2 + q2 sqrt(d)) / den2, when both are quadratic in one field; else
    None.  Q(sqrt d) = Q(sqrt f) exactly when d f is a square s^2, and then
    sqrt(f) = (s / d) sqrt(d), so y's coordinates over f become
    (p2 d, q2 s, den2 d) over d, not reduced."""
    a, b = x._quad, y._quad
    if a is None or b is None:
        return None
    d, f = a[3], b[3]
    if d == f:
        return a, b[:3]
    s = isqrt(d * f)
    if s * s != d * f:
        return None
    return a, (b[0] * d, b[1] * s, b[2] * d)


def in_one_quadratic_field(values) -> bool:
    """Whether every value is rational or a quadratic number, all the
    quadratic ones in one field: then every sum, product, inverse and
    comparison among them runs on integer coordinates."""
    d = None
    for x in values:
        if isinstance(x, RealAlg):
            if x._quad is None:
                return False
            f = x._quad[3]
            if d is None:
                d = f
            elif f != d:
                s = isqrt(d * f)
                if s * s != d * f:
                    return False
    return True


# a real algebraic number: a Fraction exactly when it is rational
Alg = Fraction | RealAlg


def interval(x) -> tuple[Fraction, Fraction]:
    """A rational interval containing x: [x, x] for a rational."""
    if isinstance(x, RealAlg):
        return x.interval()
    return x, x


# ---------------------------------------------------------------------------
# Composed sum and product of two irrational numbers
# ---------------------------------------------------------------------------


def _scaled_power_sums(p: tuple[int, ...], count: int) -> list[int]:
    """Power sums s_0..s_count of the numbers lead(p) * alpha over the roots
    alpha of p, by Newton's identities.  Those numbers are the roots of the
    monic integer polynomial lead^(m-1) p(x / lead), so the sums are integers."""
    m = len(p) - 1
    lead = p[-1]
    c = [p[j] * lead ** (m - 1 - j) for j in range(m)]  # monic: c_m = 1
    sums = [m]
    for k in range(1, count + 1):
        acc = -k * c[m - k] if k <= m else 0
        for i in range(1, min(k - 1, m) + 1):
            acc -= c[m - i] * sums[k - i]
        sums.append(acc)
    return sums


def _monic_from_power_sums(sums: list[int]) -> list[int]:
    """Coefficients, lowest first, of the monic polynomial of degree
    len(sums) - 1 whose roots have power sums sums[1..]: Newton's identities
    k r_(deg-k) = -sum_{i=1..k} r_(deg-k+i) s_i with r_deg = 1.  The roots
    are algebraic integers whenever the sums come from a monic integer
    polynomial, so every division is exact."""
    deg = len(sums) - 1
    r = [0] * deg + [1]
    for k in range(1, deg + 1):
        r[deg - k], rem = divmod(-sum(r[deg - k + i] * sums[i] for i in range(1, k + 1)), k)
        assert rem == 0, "a monic polynomial over algebraic integers has integer coefficients"
    return r


def composed_poly(p: tuple[int, ...], q: tuple[int, ...], op: str) -> IntPoly:
    """Integer polynomial whose roots are alpha + beta (op='add') or
    alpha * beta (op='mul') over the roots alpha of p and beta of q, with
    multiplicity.

    Built from power sums, with no resultant determinant.  With leads la, lb
    of p and q, the numbers la*lb*gamma over all gamma = alpha_i + beta_j
    (or alpha_i * beta_j) are algebraic integers.  Their power sums follow
    from those of the two root sets, s_k(ab) = s_k(a) s_k(b) and
    s_k(a+b) = sum_i C(k,i) s_i(a) s_(k-i)(b); Newton's identities turn them
    into the monic integer polynomial with these roots, and x -> la*lb*x
    scales the roots back.  The result equals Res_y(p(y), q(x - y)) (or
    Res_y(p(y), y^n q(x/y))) up to a constant.
    """
    deg = (len(p) - 1) * (len(q) - 1)
    la, lb = p[-1], q[-1]
    sa, sb = _scaled_power_sums(p, deg), _scaled_power_sums(q, deg)
    if op == "add":
        # power sums of la*lb*alpha = lb*(la*alpha) and of la*lb*beta
        sa = [s * lb ** k for k, s in enumerate(sa)]
        sb = [s * la ** k for k, s in enumerate(sb)]
        sums = [sum(comb(k, i) * sa[i] * sb[k - i] for i in range(k + 1)) for k in range(deg + 1)]
    else:
        sums = [x * y for x, y in zip(sa, sb)]
    scale = la * lb
    return IntPoly(tuple(c * scale ** j for j, c in enumerate(_monic_from_power_sums(sums))))


def powered_roots_poly(p: tuple[int, ...], m: int) -> tuple[int, ...]:
    """Coefficients, lowest first, of the monic integer polynomial whose
    roots are the numbers (lead(p) * alpha)^m over the roots alpha of p,
    with multiplicity (alpha^m when p is monic): the power sums s_m, s_2m,
    ... of the numbers lead(p) * alpha are those of their m-th powers."""
    n = len(p) - 1
    sums = _scaled_power_sums(p, n * m)
    return tuple(_monic_from_power_sums(sums[::m]))


def _combination_poly(a: RealAlg, b: RealAlg, op: str) -> IntPoly:
    """Integer polynomial vanishing at a+b (op='add') or a*b (op='mul'):
    the composed sum or product of the two minimal polynomials."""
    p, q = a.minpoly.coeffs, b.minpoly.coeffs
    deg = (len(p) - 1) * (len(q) - 1)
    if deg > DEGREE_CEILING:
        raise DegreeCeilingError(f"combination degree {deg} exceeds ceiling {DEGREE_CEILING}")
    return composed_poly(p, q, op)


def _resultant_combine(a: RealAlg, b: RealAlg, op: str) -> RealAlg:
    rpoly = _combination_poly(a, b, op).primitive()
    factors = [IntPoly(f) for f, _ in factor_int_poly(rpoly.coeffs)]
    chains = {f: sturm_chain(f) for f in factors}

    def enclosure() -> tuple[Fraction, Fraction]:
        (alo, ahi), (blo, bhi) = a.interval(), b.interval()
        if op == "add":
            return alo + blo, ahi + bhi
        prods = [alo * blo, alo * bhi, ahi * blo, ahi * bhi]
        return min(prods), max(prods)

    while True:
        lo, hi = enclosure()
        hits = [(f, _count_roots_closed(chains[f], lo, hi)) for f in factors]
        live = [(f, c) for f, c in hits if c > 0]
        if len(live) == 1 and live[0][1] == 1:
            f = live[0][0]
            if f.degree == 1:
                return RealAlg.from_rational(Fraction(-f.coeffs[0], f.coeffs[1]))
            return RealAlg(f, lo, hi, _trusted=True)
        a.refine(2)
        b.refine(2)


def sturm_isolate_real_roots(p: IntPoly) -> list[Alg]:
    """All distinct real roots of p, ascending, multiplicities discarded;
    the rational ones as Fractions."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    roots = [r for fcoeffs, _ in factor_int_poly(p.coeffs) for r in irreducible_real_roots(IntPoly(fcoeffs))]
    roots.sort()
    return roots


def irreducible_real_roots(f: IntPoly) -> list[Alg]:
    """The real roots of an irreducible f (a factor from factor_int_poly),
    ascending: the one root of a linear f as a Fraction, otherwise each
    root from one isolation, so f is not factored again."""
    if f.degree == 1:
        return [RealAlg.from_rational(Fraction(-f.coeffs[0], f.coeffs[1]))]
    return [RealAlg(f, lo, hi, _trusted=True) for lo, hi in _isolate_squarefree(f)]
