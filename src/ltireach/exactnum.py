"""Exact scalar arithmetic: rationals, integer polynomials, real algebraic numbers.

A real algebraic number is stored as a pair (minimal polynomial, isolating
interval).  The minimal polynomial is an irreducible primitive integer
polynomial with positive leading coefficient; the interval is a rational
interval containing exactly one of its real roots.  Rational values are
pinned with a degenerate interval (lo == hi), so degree-1 numbers
round-trip with Fraction exactly.

Signs and comparisons are decided exactly: intervals are refined by
bisection until the question resolves.  Refinement always terminates
because an irreducible polynomial of degree >= 2 has no rational roots,
so a rational bisection point is never itself a root.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd

Rat = Fraction

DEFAULT_DEGREE_CEILING = 64
_degree_ceiling = DEFAULT_DEGREE_CEILING


class DegreeCeilingError(Exception):
    """Raised when an algebraic operation would exceed the degree guard."""


def set_degree_ceiling(limit: int) -> None:
    global _degree_ceiling
    if limit < 1:
        raise ValueError("degree ceiling must be positive")
    _degree_ceiling = limit


def degree_ceiling() -> int:
    return _degree_ceiling


def rat_from_str(text: str) -> Fraction:
    """Parse 'p/q' or 'p' integer text (no decimals)."""
    text = text.strip()
    if "/" in text:
        num, den = text.split("/", 1)
        p, q = int(num), int(den)
        if q == 0:
            raise ValueError(f"zero denominator in rational {text!r}")
        return Fraction(p, q)
    return Fraction(int(text))


def rat_to_str(q: Fraction) -> str:
    q = Fraction(q)
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

    def eval_at(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

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
        g = poly_gcd(self, self.derivative())
        if g.degree <= 0:
            return self.primitive()
        q, r = _frac_divmod(_to_frac(self), _to_frac(g))
        assert not r, "gcd must divide"
        return _from_frac(q).primitive()

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
        return _from_frac(acc or [Fraction(0)]).primitive()

    def with_root_scaled(self, r: Fraction) -> "IntPoly":
        """Roots move from a to a*r (r nonzero); computes p(x/r) cleared."""
        if r == 0:
            raise ValueError("scale by zero")
        out = [c / (r ** i) for i, c in enumerate(self.coeffs)]
        return _from_frac(out).primitive()

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


def int_poly(*coeffs: int) -> IntPoly:
    return IntPoly(tuple(coeffs))


def _to_frac(p: IntPoly) -> list[Fraction]:
    return [Fraction(c) for c in p.coeffs]


def _from_frac(coeffs: list[Fraction]) -> IntPoly:
    """Clear denominators of a Fraction-coefficient polynomial."""
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    if not coeffs:
        return IntPoly(())
    den = 1
    for c in coeffs:
        den = den * c.denominator // gcd(den, c.denominator)
    return IntPoly(tuple(int(c * den) for c in coeffs))


def _frac_divmod(a: list[Fraction], b: list[Fraction]) -> tuple[list[Fraction], list[Fraction]]:
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


def poly_gcd(p: IntPoly, q: IntPoly) -> IntPoly:
    """Primitive gcd over the integers (Euclid with Fraction arithmetic)."""
    a, b = _to_frac(p), _to_frac(q)
    while any(c != 0 for c in b):
        _, r = _frac_divmod(a, b)
        a, b = b, r
    return _from_frac(a).primitive()


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


# ---------------------------------------------------------------------------
# Sturm sequences
# ---------------------------------------------------------------------------


def sturm_chain(p: IntPoly) -> list[list[Fraction]]:
    return [list(row) for row in _sturm_chain_cached(p.coeffs)]


@lru_cache(maxsize=4096)
def _sturm_chain_cached(coeffs: tuple[int, ...]) -> tuple[tuple[Fraction, ...], ...]:
    p = IntPoly(coeffs)
    chain = [_to_frac(p), _to_frac(p.derivative())]
    while any(c != 0 for c in chain[-1]):
        _, r = _frac_divmod(chain[-2], chain[-1])
        if not any(c != 0 for c in r):
            break
        chain.append([-c for c in r])
    return tuple(tuple(c) for c in chain if any(x != 0 for x in c))


def _sign_at(coeffs: list[Fraction], x: Fraction) -> int:
    acc = Fraction(0)
    for c in reversed(coeffs):
        acc = acc * x + c
    return (acc > 0) - (acc < 0)


def _sign_at_inf(coeffs: list[Fraction], positive: bool) -> int:
    lead = coeffs[-1]
    s = (lead > 0) - (lead < 0)
    if not positive and (len(coeffs) - 1) % 2 == 1:
        s = -s
    return s


def sign_variations(chain: list[list[Fraction]], x) -> int:
    """x is a Fraction, or '+inf' / '-inf'."""
    signs = []
    for coeffs in chain:
        if x == "+inf":
            s = _sign_at_inf(coeffs, True)
        elif x == "-inf":
            s = _sign_at_inf(coeffs, False)
        else:
            s = _sign_at(coeffs, x)
        if s != 0:
            signs.append(s)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def count_roots_halfopen(chain: list[list[Fraction]], lo, hi) -> int:
    """Distinct real roots in (lo, hi]; endpoints may be '+inf'/'-inf'."""
    return sign_variations(chain, lo) - sign_variations(chain, hi)


def count_real_roots(p: IntPoly) -> int:
    """Distinct real roots of p over the whole line."""
    sf = p.squarefree_part()
    if sf.degree <= 0:
        return 0
    chain = sturm_chain(sf)
    return count_roots_halfopen(chain, "-inf", "+inf")


def root_bound(p: IntPoly) -> Fraction:
    """Cauchy bound: every real root lies in (-B, B)."""
    lead = abs(p.coeffs[-1])
    m = max(abs(c) for c in p.coeffs)
    return 1 + Fraction(m, lead)


def _isolate_squarefree(p: IntPoly) -> list[tuple[Fraction, Fraction]]:
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
    out.sort()
    return out


# ---------------------------------------------------------------------------
# Real algebraic numbers
# ---------------------------------------------------------------------------


class RealAlg:
    """A real algebraic number: irreducible minpoly + isolating interval.

    Publicly immutable.  The interval is narrowed in place on demand;
    narrowing never changes the represented number, so concurrent
    refinement is benign.
    """

    __slots__ = ("minpoly", "_lo", "_hi")

    def __init__(self, minpoly: IntPoly, lo: Fraction, hi: Fraction, _trusted: bool = False):
        self.minpoly = minpoly
        self._lo = Fraction(lo)
        self._hi = Fraction(hi)
        if not _trusted:
            self._validate()

    def _validate(self) -> None:
        p = self.minpoly
        if p.is_zero or p.degree < 1:
            raise ValueError("minimal polynomial must have degree >= 1")
        if p.coeffs[-1] < 0 or p.content() != 1:
            raise ValueError("minimal polynomial must be primitive with positive lead")
        if p.degree > _degree_ceiling:
            raise DegreeCeilingError(f"degree {p.degree} exceeds ceiling {_degree_ceiling}")
        if self._lo > self._hi:
            raise ValueError("interval endpoints out of order")
        if p.degree == 1:
            root = -Fraction(p.coeffs[0], p.coeffs[1])
            if self._lo != root or self._hi != root:
                raise ValueError("degree-1 value must pin its rational root exactly")
        else:
            chain = sturm_chain(p)
            inside = count_roots_halfopen(chain, self._lo, self._hi)
            if p.eval_at(self._lo) == 0:
                inside += 1
            if inside != 1:
                raise ValueError("interval does not isolate exactly one root")

    # -- constructors -------------------------------------------------

    @staticmethod
    def from_rational(q) -> "RealAlg":
        q = Fraction(q)
        poly = IntPoly((-q.numerator, q.denominator)).primitive()
        return RealAlg(poly, q, q, _trusted=True)

    @staticmethod
    def from_root(p: IntPoly, lo, hi) -> "RealAlg":
        """Validated constructor: [lo, hi] must isolate one real root of p.

        p need not be irreducible; the irreducible factor owning the root
        becomes the minimal polynomial, so equality stays structural.
        """
        lo, hi = Fraction(lo), Fraction(hi)
        if p.is_zero:
            raise ValueError("zero polynomial")
        owners = []
        for fcoeffs, _ in factor_int_poly(p.coeffs):
            f = IntPoly(fcoeffs)
            if f.degree == 1:
                root = -Fraction(f.coeffs[0], f.coeffs[1])
                if lo <= root <= hi:
                    owners.append((f, root, root))
            else:
                chain = sturm_chain(f)
                cnt = count_roots_halfopen(chain, lo, hi)
                if f.eval_at(lo) == 0:
                    cnt += 1
                if cnt:
                    owners.append((f, lo, hi) if cnt == 1 else (f, None, None))
        if len(owners) != 1 or owners[0][1] is None:
            raise ValueError("interval does not isolate exactly one root")
        f, flo, fhi = owners[0]
        return RealAlg(f, flo, fhi)

    # -- basic queries ------------------------------------------------

    @property
    def degree(self) -> int:
        return self.minpoly.degree

    @property
    def is_rational(self) -> bool:
        return self.minpoly.degree == 1

    def to_rational(self) -> Fraction | None:
        if self.is_rational:
            return -Fraction(self.minpoly.coeffs[0], self.minpoly.coeffs[1])
        return None

    def interval(self) -> tuple[Fraction, Fraction]:
        return self._lo, self._hi

    def isolating_interval(self) -> tuple[Fraction, Fraction]:
        """The interval that root isolation of the minimal polynomial gives
        this root: a function of the value alone, unlike interval(), which
        reflects how far this object has been narrowed."""
        if self.is_rational:
            return self._lo, self._hi
        return next((lo, hi) for lo, hi in _isolate_squarefree(self.minpoly)
                    if self.compare(hi) < 0)

    def refine(self, steps: int = 1) -> None:
        """Halve the isolating interval `steps` times (no-op for rationals)."""
        if self.is_rational:
            return
        p = self.minpoly
        lo, hi = self._lo, self._hi
        slo = (p.eval_at(lo) > 0) - (p.eval_at(lo) < 0)
        for _ in range(steps):
            mid = (lo + hi) / 2
            smid_val = p.eval_at(mid)
            smid = (smid_val > 0) - (smid_val < 0)
            # mid is never a root: p is irreducible of degree >= 2
            if smid == slo:
                lo = mid
            else:
                hi = mid
        self._lo, self._hi = lo, hi

    def refine_below(self, width: Fraction) -> None:
        while self._hi - self._lo > width:
            self.refine()

    def sign(self) -> int:
        if self.is_rational:
            v = self.to_rational()
            return (v > 0) - (v < 0)
        while True:
            if self._lo > 0:
                return 1
            if self._hi < 0:
                return -1
            self.refine()

    def approx_float(self, width: Fraction = Fraction(1, 10 ** 12)) -> float:
        if self.is_rational:
            return float(self.to_rational())
        self.refine_below(width)
        return float((self._lo + self._hi) / 2)

    # -- arithmetic ----------------------------------------------------

    def _shift(self, r: Fraction) -> "RealAlg":
        if r == 0:
            return self
        if self.is_rational:
            return RealAlg.from_rational(self.to_rational() + r)
        return RealAlg(self.minpoly.with_root_shifted(r), self._lo + r, self._hi + r, _trusted=True)

    def _scale(self, r: Fraction) -> "RealAlg":
        if r == 0:
            return RealAlg.from_rational(0)
        if r == 1:
            return self
        if self.is_rational:
            return RealAlg.from_rational(self.to_rational() * r)
        lo, hi = self._lo * r, self._hi * r
        if r < 0:
            lo, hi = hi, lo
        return RealAlg(self.minpoly.with_root_scaled(r), lo, hi, _trusted=True)

    def inverse(self) -> "RealAlg":
        if self.is_rational:
            v = self.to_rational()
            if v == 0:
                raise ZeroDivisionError("inverse of zero")
            return RealAlg.from_rational(1 / v)
        while self._lo <= 0 <= self._hi:
            self.refine()
        lo, hi = 1 / self._hi, 1 / self._lo
        return RealAlg(self.minpoly.with_root_inverted(), lo, hi, _trusted=True)

    def __neg__(self) -> "RealAlg":
        if self.is_rational:
            return RealAlg.from_rational(-self.to_rational())
        return RealAlg(self.minpoly.with_root_negated(), -self._hi, -self._lo, _trusted=True)

    def __add__(self, other) -> "RealAlg":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_rational:
            return other._shift(self.to_rational())
        if other.is_rational:
            return self._shift(other.to_rational())
        return _resultant_combine(self, other, "add")

    __radd__ = __add__

    def __sub__(self, other) -> "RealAlg":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "RealAlg":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other) -> "RealAlg":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_rational:
            return other._scale(self.to_rational())
        if other.is_rational:
            return self._scale(other.to_rational())
        return _resultant_combine(self, other, "mul")

    __rmul__ = __mul__

    def __truediv__(self, other) -> "RealAlg":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        if other.sign() == 0:
            raise ZeroDivisionError("division by zero algebraic number")
        if other.is_rational:
            return self._scale(1 / other.to_rational())
        return self * other.inverse()

    def __rtruediv__(self, other) -> "RealAlg":
        other = _coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other / self

    def __pow__(self, n: int) -> "RealAlg":
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

    def equals(self, other) -> bool:
        """Exact equality; cheap because equal values share the canonical
        minimal polynomial, so differing minpolys decide immediately."""
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare")
        if self.minpoly != other.minpoly:
            return False
        if self.is_rational:
            return True  # same degree-1 minpoly pins the same rational
        a, b = self, other
        chain = sturm_chain(a.minpoly)
        while True:
            if a._hi < b._lo or b._hi < a._lo:
                return False
            lo, hi = min(a._lo, b._lo), max(a._hi, b._hi)
            cnt = count_roots_halfopen(chain, lo, hi)
            if a.minpoly.eval_at(lo) == 0:
                cnt += 1
            if cnt == 1:
                return True
            a.refine()
            b.refine()

    def compare(self, other) -> int:
        other = _coerce(other)
        if other is NotImplemented:
            raise TypeError("cannot compare")
        a, b = self, other
        if a.is_rational and b.is_rational:
            x, y = a.to_rational(), b.to_rational()
            return (x > y) - (x < y)
        while True:
            if a._hi < b._lo:
                return -1
            if b._hi < a._lo:
                return 1
            if a.minpoly == b.minpoly:
                # overlapping intervals isolate the same root iff the hull
                # contains exactly one root of the shared minimal polynomial
                lo, hi = min(a._lo, b._lo), max(a._hi, b._hi)
                chain = sturm_chain(a.minpoly)
                cnt = count_roots_halfopen(chain, lo, hi)
                if a.minpoly.eval_at(lo) == 0:
                    cnt += 1
                if cnt == 1:
                    return 0
            a.refine()
            b.refine()

    def __eq__(self, other) -> bool:
        coerced = _coerce(other)
        if coerced is NotImplemented:
            return NotImplemented
        return self.equals(coerced)

    def __lt__(self, other):
        return self.compare(other) < 0

    def __le__(self, other):
        return self.compare(other) <= 0

    def __gt__(self, other):
        return self.compare(other) > 0

    def __ge__(self, other):
        return self.compare(other) >= 0

    def __hash__(self) -> int:
        if self.is_rational:
            return hash(self.to_rational())
        return hash(self.minpoly.coeffs)

    def __repr__(self) -> str:
        if self.is_rational:
            return f"RealAlg({rat_to_str(self.to_rational())})"
        return f"RealAlg({self.minpoly!r} in [{rat_to_str(self._lo)}, {rat_to_str(self._hi)}])"


def _coerce(value) -> "RealAlg":
    if isinstance(value, RealAlg):
        return value
    if isinstance(value, (int, Fraction)):
        return RealAlg.from_rational(value)
    return NotImplemented


def as_alg(value) -> "RealAlg":
    """Coerce an int / Fraction / RealAlg to RealAlg."""
    out = _coerce(value)
    if out is NotImplemented:
        raise TypeError(f"cannot interpret {value!r} as a real algebraic number")
    return out


ALG_ZERO = RealAlg.from_rational(0)
ALG_ONE = RealAlg.from_rational(1)


# ---------------------------------------------------------------------------
# Resultant-based combination of two irrational numbers
# ---------------------------------------------------------------------------


def _bareiss_det(m: list[list[int]]) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
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


def _sylvester_resultant(p: list[int], q: list[int]) -> int:
    """Resultant of integer polynomials given lowest-first coefficients."""
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
    rows = []
    ph = list(reversed(p))
    qh = list(reversed(q))
    for i in range(n):
        rows.append([0] * i + ph + [0] * (size - m - 1 - i))
    for i in range(m):
        rows.append([0] * i + qh + [0] * (size - n - 1 - i))
    return _bareiss_det(rows)


def _interp_integer_poly(points: list[tuple[int, int]]) -> IntPoly:
    """Lagrange interpolation; the result must have integer coefficients."""
    n = len(points)
    coeffs = [Fraction(0)] * n
    for i, (xi, yi) in enumerate(points):
        basis = [Fraction(1)]
        denom = Fraction(1)
        for j, (xj, _) in enumerate(points):
            if j == i:
                continue
            new = [Fraction(0)] * (len(basis) + 1)
            for k, b in enumerate(basis):
                new[k + 1] += b
                new[k] -= b * xj
            basis = new
            denom *= xi - xj
        w = Fraction(yi) / denom
        for k, b in enumerate(basis):
            coeffs[k] += w * b
    assert all(c.denominator == 1 for c in coeffs), "resultant interpolation must be integral"
    return IntPoly(tuple(int(c) for c in coeffs))


def _combination_poly(a: RealAlg, b: RealAlg, op: str) -> IntPoly:
    """Integer polynomial vanishing at a+b (op='add') or a*b (op='mul').

    Computed as a resultant in an eliminated variable, by evaluation at
    enough integer points followed by exact interpolation.
    """
    p, q = a.minpoly.coeffs, b.minpoly.coeffs
    m, n = len(p) - 1, len(q) - 1
    if m * n > _degree_ceiling:
        raise DegreeCeilingError(f"combination degree {m * n} exceeds ceiling {_degree_ceiling}")
    npts = m * n + 1
    points = []
    t = 0
    while len(points) < npts:
        if op == "add":
            # q(t - y) as a polynomial in y
            qy = [0] * (n + 1)
            for i, qi in enumerate(q):
                # (t - y)^i expanded
                term = [0] * (i + 1)
                term[0] = 1
                for _ in range(i):
                    new = [0] * (len(term) + 1)
                    for k, c in enumerate(term):
                        new[k] += c * t
                        new[k + 1] -= c
                    term = new[: i + 1] if len(new) > i + 1 else new
                for k, c in enumerate(term):
                    qy[k] += qi * c
        else:
            # y^n * q(t/y) = sum q_i t^i y^(n-i)
            qy = [0] * (n + 1)
            for i, qi in enumerate(q):
                qy[n - i] += qi * t ** i
        res = _sylvester_resultant(list(p), qy)
        points.append((t, res))
        t = -t + (1 if t <= 0 else 0)
    return _interp_integer_poly(points)


def _count_roots_closed(p: IntPoly, chain, lo: Fraction, hi: Fraction) -> int:
    cnt = count_roots_halfopen(chain, lo, hi)
    if p.eval_at(lo) == 0:
        cnt += 1
    return cnt


def _resultant_combine(a: RealAlg, b: RealAlg, op: str) -> RealAlg:
    rpoly = _combination_poly(a, b, op).squarefree_part()
    factors = [IntPoly(f) for f, _ in factor_int_poly(rpoly.coeffs)]
    chains = {f: sturm_chain(f) for f in factors}

    def enclosure() -> tuple[Fraction, Fraction]:
        if op == "add":
            return a._lo + b._lo, a._hi + b._hi
        prods = [a._lo * b._lo, a._lo * b._hi, a._hi * b._lo, a._hi * b._hi]
        return min(prods), max(prods)

    while True:
        lo, hi = enclosure()
        hits = [(f, _count_roots_closed(f, chains[f], lo, hi)) for f in factors]
        live = [(f, c) for f, c in hits if c > 0]
        if len(live) == 1 and live[0][1] == 1:
            f = live[0][0]
            if f.degree == 1:
                return RealAlg.from_rational(-Fraction(f.coeffs[0], f.coeffs[1]))
            return RealAlg(f, lo, hi, _trusted=True)
        a.refine(2)
        b.refine(2)


# ---------------------------------------------------------------------------
# Module-level operation surface
# ---------------------------------------------------------------------------


def alg_arith(a: RealAlg, b: RealAlg, op: str) -> RealAlg:
    """op in {'add', 'sub', 'mul', 'div'}; div signals ZeroDivisionError."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown op {op!r}")


def alg_sign(a: RealAlg) -> int:
    return a.sign()


def alg_compare(a: RealAlg, b: RealAlg) -> int:
    """-1, 0, +1 consistent with the real order."""
    return a.compare(b)


def sturm_isolate_real_roots(p: IntPoly) -> list[RealAlg]:
    """All distinct real roots of p, ascending, multiplicities discarded."""
    if p.is_zero:
        raise ValueError("zero polynomial has no isolated roots")
    roots: list[RealAlg] = []
    for fcoeffs, _ in factor_int_poly(p.coeffs):
        f = IntPoly(fcoeffs)
        if f.degree == 1:
            roots.append(RealAlg.from_rational(-Fraction(f.coeffs[0], f.coeffs[1])))
        else:
            for lo, hi in _isolate_squarefree(f):
                roots.append(RealAlg(f, lo, hi, _trusted=True))
    roots.sort(key=_SortKey)
    return roots


class _SortKey:
    __slots__ = ("value",)

    def __init__(self, value: RealAlg):
        self.value = value

    def __lt__(self, other: "_SortKey") -> bool:
        return self.value.compare(other.value) < 0
