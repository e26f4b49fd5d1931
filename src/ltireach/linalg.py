"""Exact linear algebra over Q and over real algebraic numbers.

RatMatrix is the rational workhorse (Fraction entries).  IntRows holds a
matrix as integer rows over one denominator, for callers that step
integer vectors by it many times (the forward columns, the certificate
search's vertex images, the Krylov span, the Jordan chains of the
bilinear rows) and for (I - A)^{-1}; _int_inverse forms an inverse that
way, by fraction-free elimination.  Values that may be irrational (the
projectors of irrational eigenvalues, the matrices of the certificate
search) are plain lists of rows whose entries are Fractions where
rational and RealAlg where not.

The characteristic polynomial is formed once per matrix, in integers
(charpoly_primitive), and every spectral step takes it as an argument.
The spectral tests read it without its zero roots (nonzero_eigen_poly),
and neither powers A.  eigen_factors factors that polynomial once and
isolates each factor's real roots once; the spectral decomposition takes
its result as an argument, and factored_spectral_tests reads both
spectral conditions off it, a factor with only real roots by comparing
its roots with -1, 0 and 1.  A factor with non-real roots, or a whole
polynomial that is not factored, goes to the polynomial tests.
schur_stable checks the Hurwitz minors of the integer Cayley transform
by Bareiss elimination.  real_spectrum_power settles a real spectrum with
one squarefree part and one Sturm chain (M = 1, or 2 when a root is
negative); otherwise the cyclotomic factors of the polynomial of root
ratios give a multiple L of the least power, and tests on the polynomial
of the m-th powers of the roots divide L down to it.

spectral_decompose computes, for a matrix with real, nonnegative
eigenvalues, the spectral projector onto the generalized eigenspace of
each nonzero eigenvalue as a polynomial in the matrix, by Hermite
interpolation without a division, evaluated on the integer powers of
B = D·A, so no eigenvector basis over an extension field is ever
constructed.  A rational eigenvalue's projector is kept as an integer
matrix over one integer scale, and an irrational one's as rows of real
algebraic numbers over 1; beside each eigenvalue lam_i is beta_i = D
lam_i, an int when lam_i is rational.  No nilpotent part is stored:
A - lam_i I is nilpotent on the range of P_i, so bilinear_rows builds, for
one direction tau, the rows tau^T P_i (A - lam_i I)^j lam_i^-j for j below
the multiplicity of lam_i, each from the one before by (B - beta_i I) /
beta_i; P_i (A - lam_i I)^j vanishes from there on.  The rows come as
numerators over one positive denominator, ints when the spectrum and tau
are rational, so a certificate over a rational spectrum is found and
checked in integers.  A zero eigenvalue of multiplicity k gets no
projector: A^n vanishes on its generalized eigenspace once n >= k, so the
expansion over the nonzero eigenvalues holds from n = k on, and k is kept
as the transient that every threshold must reach.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd, lcm
from operator import mul

from .exactnum import (
    Alg,
    IntPoly,
    RealAlg,
    as_fraction,
    composed_poly,
    count_roots_halfopen,
    factor_int_poly,
    irreducible_real_roots,
    powered_roots_poly,
    sturm_chain,
)

Vec = tuple[Fraction, ...]
# an irreducible factor of a nonzero_eigen_poly, its multiplicity and its
# real roots ascending (eigen_factors)
EigenFactor = tuple[IntPoly, int, tuple[Alg, ...]]


class SpectralError(Exception):
    """Raised when a decomposition precondition fails (non-real or
    negative eigenvalue detected)."""


def vec(*entries) -> Vec:
    return tuple(Fraction(e) for e in entries)


def vec_add(a: Vec, b: Vec) -> Vec:
    return tuple(x + y for x, y in zip(a, b))


def vec_sub(a: Vec, b: Vec) -> Vec:
    return tuple(x - y for x, y in zip(a, b))


def vec_scale(a: Vec, s: Fraction) -> Vec:
    return tuple(x * s for x in a)


def vec_dot(a: Vec, b: Vec) -> Fraction:
    return sum((x * y for x, y in zip(a, b)), Fraction(0))


def vec_is_zero(a: Vec) -> bool:
    return all(x == 0 for x in a)


def zero_vec(n: int) -> Vec:
    return tuple(Fraction(0) for _ in range(n))


def unit_vec(n: int, i: int) -> Vec:
    return tuple(Fraction(1 if j == i else 0) for j in range(n))


@dataclass(frozen=True)
class RatMatrix:
    rows: int
    cols: int
    entries: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError("entry count does not match dimensions")
        entries = self.entries
        if type(entries) is not tuple or any(type(e) is not Fraction for e in entries):
            object.__setattr__(self, "entries", tuple(map(as_fraction, entries)))

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return RatMatrix(nr, nc, tuple(x for r in rows for x in r))

    @staticmethod
    def identity(n: int) -> "RatMatrix":
        return RatMatrix(n, n, tuple(Fraction(1 if i == j else 0) for i in range(n) for j in range(n)))

    @staticmethod
    def zeros(r: int, c: int) -> "RatMatrix":
        return RatMatrix(r, c, tuple(Fraction(0) for _ in range(r * c)))

    @staticmethod
    def diag(*values) -> "RatMatrix":
        n = len(values)
        return RatMatrix(n, n, tuple(Fraction(values[i]) if i == j else Fraction(0)
                                     for i in range(n) for j in range(n)))

    @staticmethod
    def block_diag(blocks) -> "RatMatrix":
        n = sum(b.rows for b in blocks)
        m = sum(b.cols for b in blocks)
        out = [[Fraction(0)] * m for _ in range(n)]
        r0 = c0 = 0
        for b in blocks:
            for i in range(b.rows):
                for j in range(b.cols):
                    out[r0 + i][c0 + j] = b.get(i, j)
            r0 += b.rows
            c0 += b.cols
        return RatMatrix.from_rows(out)

    def get(self, i: int, j: int) -> Fraction:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> Vec:
        return self.entries[i * self.cols:(i + 1) * self.cols]

    def col(self, j: int) -> Vec:
        return tuple(self.entries[i * self.cols + j] for i in range(self.rows))

    def to_rows(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def __add__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(a + b for a, b in zip(self.entries, other.entries)))

    def __sub__(self, other: "RatMatrix") -> "RatMatrix":
        return RatMatrix(self.rows, self.cols, tuple(a - b for a, b in zip(self.entries, other.entries)))

    def __matmul__(self, other: "RatMatrix") -> "RatMatrix":
        if self.cols != other.rows:
            raise ValueError("dimension mismatch")
        out = []
        ocols = [other.col(j) for j in range(other.cols)]
        for i in range(self.rows):
            r = self.row(i)
            out.extend(vec_dot(r, c) for c in ocols)
        return RatMatrix(self.rows, other.cols, tuple(out))

    def matvec(self, v: Vec) -> Vec:
        if self.cols != len(v):
            raise ValueError("dimension mismatch")
        return tuple(vec_dot(self.row(i), v) for i in range(self.rows))

    def transpose(self) -> "RatMatrix":
        return RatMatrix(self.cols, self.rows, tuple(self.get(i, j) for j in range(self.cols) for i in range(self.rows)))

    def power(self, n: int) -> "RatMatrix":
        if not self.is_square:
            raise ValueError("power of non-square matrix")
        if n < 0:
            inv = self.inverse()
            if inv is None:
                raise ValueError("negative power of singular matrix")
            return inv.power(-n)
        result = RatMatrix.identity(self.rows)
        base = self
        while n:
            if n & 1:
                result = result @ base
            n >>= 1
            if n:
                base = base @ base
        return result

    def det(self) -> Fraction:
        """Fraction-free Bareiss on the denominator-cleared matrix."""
        if not self.is_square:
            raise ValueError("determinant of non-square matrix")
        n = self.rows
        if n == 0:
            return Fraction(1)
        den = lcm(*(e.denominator for e in self.entries))
        m = [[e.numerator * (den // e.denominator) for e in self.row(i)] for i in range(n)]
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
                    return Fraction(0)
            for i in range(k + 1, n):
                for j in range(k + 1, n):
                    m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
                m[i][k] = 0
            prev = m[k][k]
        return Fraction(sign * m[n - 1][n - 1], den ** n)

    def rref(self) -> tuple[list[list[Fraction]], list[int]]:
        """Reduced row echelon form and pivot column indices."""
        return _gauss_jordan(self.to_rows(), self.cols)

    def rank(self) -> int:
        return len(self.rref()[1])

    def kernel_basis(self) -> list[Vec]:
        return [tuple(v) for v in alg_kernel_basis(self.to_rows(), self.cols)]

    def solve(self, b: Vec) -> Vec | None:
        """One solution of Ax = b, or None if inconsistent."""
        aug = RatMatrix(self.rows, self.cols + 1,
                        tuple(x for i in range(self.rows) for x in (*self.row(i), b[i])))
        m, pivots = aug.rref()
        if self.cols in pivots:
            return None
        x = [Fraction(0)] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = m[r][self.cols]
        return tuple(x)

    def inverse(self) -> "RatMatrix | None":
        """A^-1, or None when A is singular: _int_inverse of the integer
        matrix D·A, for D the least common denominator, each entry becoming
        one Fraction at the end."""
        if not self.is_square:
            raise ValueError("inverse of non-square matrix")
        den = lcm(*(x.denominator for x in self.entries))
        inv = _int_inverse([[x.numerator * (den // x.denominator) for x in self.row(i)] for i in range(self.rows)],
                           den)
        if inv is None:
            return None
        rows, d = inv
        return RatMatrix(self.rows, self.cols, tuple(Fraction(x, d) for r in rows for x in r))

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix[{body}]"


def _int_inverse(m: list[list[int]], den: int) -> tuple[list[list[int]], int] | None:
    """(rows, d) with (m / den)^-1 = rows / d, d > 0 and no factor common to
    d and every entry, for a square integer matrix m and den > 0; None when
    m is singular.

    Fraction-free (Bareiss) Gauss-Jordan on [m | I]: every division is
    exact, and the left block ends as p I for the last pivot p, so
    (m / den)^-1 = den·right / p."""
    n = len(m)
    m = [list(r) + [int(i == j) for j in range(n)] for i, r in enumerate(m)]
    prev = 1
    for k in range(n):
        pivot = next((i for i in range(k, n) if m[i][k]), None)
        if pivot is None:
            return None
        m[k], m[pivot] = m[pivot], m[k]
        mk = m[k]
        p = mk[k]
        for i in range(n):
            if i != k:
                mi = m[i]
                f = mi[k]
                m[i] = [(p * x - f * y) // prev for x, y in zip(mi, mk)]
        prev = p
    rows = [[den * x for x in r[n:]] for r in m]
    g = gcd(prev, *(x for r in rows for x in r))
    if prev < 0:
        g = -g
    return [[x // g for x in r] for r in rows], prev // g


class IntRows:
    """A square rational matrix as integer rows over one positive
    denominator: row i of den * A is rows[i], its nonzero entries as
    (column, value) pairs.  times() applies den * A to an integer vector, so
    a caller that holds its vectors as integers over a denominator steps
    them by A without building a Fraction; row_times() multiplies a row
    vector by den * A."""

    def __init__(self, a: RatMatrix):
        self.den = lcm(*(x.denominator for x in a.entries))
        self.rows = [[(j, x.numerator * (self.den // x.denominator)) for j, x in enumerate(a.row(i)) if x]
                     for i in range(a.rows)]

    @staticmethod
    def _from_ints(rows: list[list[int]], den: int) -> "IntRows":
        """The matrix rows / den, for integer rows and den > 0."""
        out = object.__new__(IntRows)
        out.den = den
        out.rows = [[(j, x) for j, x in enumerate(r) if x] for r in rows]
        return out

    def times(self, num) -> list[int]:
        """den * A * num."""
        return [sum(x * num[j] for j, x in row) for row in self.rows]

    def row_times(self, row) -> list:
        """row * den * A, for a row of integers or real algebraic numbers."""
        out = [0] * len(self.rows)
        for r, pairs in zip(row, self.rows):
            if r:
                for j, x in pairs:
                    out[j] = out[j] + r * x
        return out


def cleared(xs) -> tuple[list, int]:
    """(nums, den) with xs[k] = nums[k] / den: integers over the least
    common denominator when every entry is rational, otherwise the entries
    themselves over 1."""
    if any(isinstance(x, RealAlg) for x in xs):
        return list(xs), 1
    den = lcm(*(x.denominator for x in xs))
    return [x.numerator * (den // x.denominator) for x in xs], den


# ---------------------------------------------------------------------------
# characteristic polynomial and spectral tests
# ---------------------------------------------------------------------------


def charpoly_primitive(a: RatMatrix) -> IntPoly:
    """det(xI - A) cleared of denominators, primitive, positive lead.

    Samuelson-Berkowitz recursion, which is division-free, run in integers
    on B = D·A for D the least common denominator of A's entries; then
    D^n p_A(x) = p_B(Dx), so the coefficient of x^k is that of p_B times
    D^k, and no Fraction is built.
    """
    if not a.is_square:
        raise ValueError("characteristic polynomial of non-square matrix")
    n = a.rows
    den = lcm(*(e.denominator for e in a.entries))
    b = [[e.numerator * (den // e.denominator) for e in a.row(i)] for i in range(n)]
    # coefficients of p_B highest degree first, built up one leading block
    # at a time: block r+1 has c = T·c, T lower-triangular Toeplitz with
    # first column (1, -b_rr, -row·col, -row·B_r·col, ...)
    c = [1]
    for r in range(n):
        row = b[r][:r]
        block = [bi[:r] for bi in b[:r]]
        cur = [bi[r] for bi in b[:r]]
        first = [1, -b[r][r]]
        for k in range(r):
            first.append(-sum(map(mul, row, cur)))
            if k + 1 < r:
                cur = [sum(map(mul, bi, cur)) for bi in block]
        # the new c[i] is the sum of first[i - j] c[j] over j <= min(i, r)
        c = [sum(map(mul, first[i::-1], c)) for i in range(r + 2)]
    return IntPoly(tuple(c[n - k] * den ** k for k in range(n + 1))).primitive()


def nonzero_eigen_poly(p: IntPoly) -> IntPoly:
    """The characteristic polynomial p (charpoly_primitive) without its
    roots at zero: its roots are the nonzero eigenvalues with their
    multiplicities.  Both spectral tests read it, and an eigenvalue 0
    passes both."""
    coeffs = p.coeffs
    return IntPoly(coeffs[next(i for i, c in enumerate(coeffs) if c):])


def eigen_factors(p: IntPoly) -> tuple[EigenFactor, ...]:
    """The nonzero eigenvalues, for p a nonzero_eigen_poly: each irreducible
    factor f of p with its multiplicity and its real roots ascending, from
    one factorization of p and one isolation per factor.  The roots of f
    are all real exactly when there are deg f of them."""
    out = []
    for coeffs, mult in factor_int_poly(p.coeffs):
        f = IntPoly(coeffs)
        out.append((f, mult, tuple(irreducible_real_roots(f))))
    return tuple(out)


def _cayley_transform(coeffs: tuple[int, ...]) -> list[int]:
    """(1-w)^n p((1+w)/(1-w)) for p given lowest first, in integers; maps
    the open unit disk to the open left half-plane.  Horner's rule in
    (1+w)/(1-w): acc <- acc (1+w) + p_k (1-w)^(n-k) from k = n down."""
    n = len(coeffs) - 1
    acc = [coeffs[n]]
    minus = [1]  # (1-w)^(n-k)
    for k in range(n - 1, -1, -1):
        minus = [x - y for x, y in zip(minus + [0], [0] + minus)]
        acc = [x + y + coeffs[k] * z for x, y, z in zip(acc + [0], [0] + acc, minus)]
    return acc


def _hurwitz_stable(b: list[int]) -> bool:
    """All roots in the open left half-plane, by positivity of the leading
    principal minors of the Hurwitz matrix (with positive leading coeff).
    Bareiss's fraction-free elimination without pivoting leaves the k-th
    leading principal minor as its k-th pivot, so the test stops at the
    first pivot that is not positive."""
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

    def coeff(k: int) -> int:
        return b[k] if 0 <= k <= n else 0
    m = [[coeff(n - 2 * (j + 1) + (i + 1)) for j in range(n)] for i in range(n)]
    prev = 1
    for k in range(n):
        piv = m[k][k]
        if piv <= 0:
            return False
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * piv - m[i][k] * m[k][j]) // prev
        prev = piv
    return True


def schur_stable(p: IntPoly) -> bool:
    """True iff every eigenvalue has modulus strictly below one, for p the
    matrix's nonzero_eigen_poly."""
    coeffs = p.coeffs
    n = len(coeffs) - 1
    if n <= 0:
        return True
    q = _cayley_transform(coeffs)
    if q[n] == 0:
        # -1 is an eigenvalue
        return False
    return _hurwitz_stable(q)


def _totients(limit: int) -> list[int]:
    """phi(r) for r = 0..limit, by a sieve."""
    phi = list(range(limit + 1))
    for q in range(2, limit + 1):
        if phi[q] == q:  # q is prime
            for k in range(q, limit + 1, q):
                phi[k] -= phi[k] // q
    return phi


def _prime_factors(r: int) -> list[int]:
    """The distinct primes dividing r, ascending."""
    out = []
    q = 2
    while q * q <= r:
        if r % q == 0:
            out.append(q)
            while r % q == 0:
                r //= q
        q += 1
    if r > 1:
        out.append(r)
    return out


def real_spectrum_power_bound(d: int) -> int:
    """lcm of all r with phi(r) <= d (phi(r) >= sqrt(r/2) bounds the scan)."""
    phi = _totients(2 * d * d + 1)
    return lcm(*(r for r in range(1, len(phi)) if phi[r] <= d))


def _cyclotomic(r: int) -> list[int]:
    """Coefficients of Phi_r, lowest first: the product of (x^e - 1)^mu(r/e)
    over the divisors e of r, multiplications first, so that every division
    by a binomial is exact."""
    primes = _prime_factors(r)
    num = [1]
    divisors = []
    for mask in range(1 << len(primes)):
        e = r
        for i, q in enumerate(primes):
            if mask >> i & 1:
                e //= q
        if bin(mask).count("1") % 2:
            divisors.append(e)
        else:
            num = [x - y for x, y in zip([0] * e + num, num + [0] * e)]
    for e in divisors:
        # f = g (x^e - 1): g_k = f_(k+e) + g_(k+e), from the top
        g = [0] * (len(num) - e)
        for k in range(len(g) - 1, -1, -1):
            g[k] = num[k + e] + (g[k + e] if k + e < len(g) else 0)
        num = g
    return num


def _monic_divides(g: list[int], f: list[int]) -> bool:
    """Whether the monic integer polynomial g divides f, by long division."""
    r = list(f)
    dg = len(g) - 1
    terms = [(i, c) for i, c in enumerate(g[:-1]) if c]
    for k in range(len(r) - 1, dg - 1, -1):
        c = r[k]
        if c:
            for i, x in terms:
                r[k - dg + i] -= c * x
    return not any(r[:dg])


def _cyclotomic_orders(f: IntPoly) -> list[int]:
    """Every r >= 2 whose cyclotomic polynomial Phi_r divides f: Phi_r has
    degree phi(r), so r ranges over phi(r) <= deg f."""
    deg, coeffs = f.degree, list(f.coeffs)
    phi = _totients(2 * deg * deg)
    return [r for r in range(2, len(phi)) if phi[r] <= deg and _monic_divides(_cyclotomic(r), coeffs)]


def _real_roots(sf: IntPoly) -> tuple[bool, bool]:
    """For a squarefree sf without root 0: whether every root is real, and
    whether every real root is positive, from one Sturm chain."""
    chain = sturm_chain(sf)
    return (count_roots_halfopen(chain, "-inf", "+inf") == sf.degree,
            count_roots_halfopen(chain, "-inf", Fraction(0)) == 0)


def real_spectrum_power(p: IntPoly, d: int) -> int | None:
    """Least M >= 1 with A^M having exclusively real nonnegative spectrum,
    for p the nonzero_eigen_poly of a d x d matrix A, or None when no M up
    to real_spectrum_power_bound(d) works.

    A^m passes exactly when lam^m > 0 for every nonzero eigenvalue lam,
    that is when m is a multiple of the order k of lam/|lam| for every lam:
    the powers that pass are the multiples of the least one, M*.  When
    every root is real, M* is 1, or 2 if one is negative.  Otherwise
    lam/conj(lam) = (lam/|lam|)^2, a root of unity of an order r with
    k | 2r, is a root of R, the polynomial of the ratios of two roots, so
    Phi_r divides R (Bradford & Davenport, ISSAC 1988, read cyclotomic
    factors off a polynomial the same way).  So M* divides
    L = 2 lcm{r >= 2 : Phi_r | R}: if A^L fails no power passes, and
    otherwise dividing primes out of L while the test holds leaves M*.
    The test on A^m reads the polynomial of the m-th powers of the roots,
    raised one prime at a time, never a matrix power.
    """
    if p.degree <= 0:
        return 1
    sf = p.squarefree_part()
    all_real, positive = _real_roots(sf)
    if all_real:
        return 1 if positive else 2
    ratios = composed_poly(sf.coeffs, sf.coeffs[::-1], "mul").coeffs
    # each root over itself gives the factor (x - 1)^n, and no other ratio is 1
    for _ in range(sf.degree):
        ratios = _synthetic_divide_with_rem(list(ratios), 1)[1]
    orders = _cyclotomic_orders(IntPoly(tuple(ratios)).primitive())

    def passes(m: int) -> bool:
        t = sf.coeffs
        for q in _prime_factors(m):
            while m % q == 0:
                t = powered_roots_poly(t, q)
                m //= q
        return all(_real_roots(IntPoly(t).squarefree_part()))

    m = 2 * lcm(*orders)
    if not passes(m):
        return None
    for q in _prime_factors(m):
        while m % q == 0 and passes(m // q):
            m //= q
    return m if m <= real_spectrum_power_bound(d) else None


def factored_spectral_tests(eigen: tuple[EigenFactor, ...], d: int) -> tuple[bool, int | None]:
    """(schur_stable, real_spectrum_power) of a d x d matrix, read factor by
    factor off its eigen_factors.  A factor whose roots are all real gives
    both at once: it is stable when every root has |lam| < 1, and its least
    power is 1, or 2 when a root is negative.  Only a factor with non-real
    roots runs the polynomial tests, on itself alone.  The powers that pass
    are the multiples of each factor's least power, so M is their lcm,
    None past real_spectrum_power_bound(d)."""
    schur, powers = True, []
    for f, _, roots in eigen:
        if len(roots) == f.degree:
            schur = schur and -1 < roots[0] and roots[-1] < 1
            powers.append(2 if roots[0] < 0 else 1)
        else:
            schur = schur and schur_stable(f)
            powers.append(real_spectrum_power(f, d))
    if None in powers:
        return schur, None
    m = lcm(*powers)
    return schur, m if m <= real_spectrum_power_bound(d) else None


def krylov_invariant_span(a: RatMatrix, generators) -> list[Vec]:
    """Basis of span{A^i g : i >= 0, g in generators} in reduced row
    echelon form.  The echelon basis grows one vector at a time, and a
    generator's powers stop at the first one already in the span: every
    later power then lies in it too.  Once the basis has a.rows vectors it
    is the identity and spans everything, so the scan stops there.

    Fraction-free: a scaling leaves a span alone, so each generator is
    cleared to integers and stepped by the integer matrix D·A, and each
    echelon row is kept as an integer multiple of its reduced row, divided
    by the gcd of its entries; the reduced rows, each over its pivot,
    become Fractions at the end."""
    ints = IntRows(a)
    basis: dict[int, list[int]] = {}  # pivot column -> row, 0 in the other pivot columns
    for g in generators:
        if len(basis) == a.rows:
            break
        den = lcm(*(x.denominator for x in g))
        cur = [x.numerator * (den // x.denominator) for x in g]
        for k in range(a.rows - len(basis)):
            if k:
                cur = ints.times(cur)
            v = cur
            for c, row in basis.items():
                f = v[c]
                if f:
                    p = row[c]
                    v = [p * x - f * y for x, y in zip(v, row)]
            piv = next((j for j, x in enumerate(v) if x), None)
            if piv is None:
                break
            v = _primitive_row(v)
            for c, row in basis.items():
                f = row[piv]
                if f:
                    basis[c] = _primitive_row([v[piv] * x - f * y for x, y in zip(row, v)])
            basis[piv] = v
    return [tuple(Fraction(x, basis[c][c]) for x in basis[c]) for c in sorted(basis)]


def _primitive_row(v: list[int]) -> list[int]:
    """v over the gcd of its entries, for v not zero."""
    g = gcd(*v)
    return [x // g for x in v]


# ---------------------------------------------------------------------------
# rows of real algebraic numbers
# ---------------------------------------------------------------------------


def _gauss_jordan(rows: list[list[Alg]], ncols: int) -> tuple[list[list[Alg]], list[int]]:
    """Reduced row echelon form of the matrix with these rows (rows of
    Fractions and RealAlgs, left unmodified) and its pivot columns, by
    Gauss-Jordan elimination with exact zero tests."""
    m = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        f = m[r][c]
        m[r] = [x / f for x in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                g = m[i][c]
                m[i] = [x - g * y for x, y in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m, pivots


def alg_kernel_basis(matrix_rows: list[list[Alg]], ncols: int | None = None) -> list[list[Alg]]:
    """Kernel basis of the matrix with these rows and ncols columns (by
    default the length of the first row), one vector per free column of
    its reduced row echelon form."""
    if ncols is None:
        ncols = len(matrix_rows[0]) if matrix_rows else 0
    red, pivots = _gauss_jordan(matrix_rows, ncols)
    basis = []
    for fc in (c for c in range(ncols) if c not in pivots):
        v: list[Alg] = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


@dataclass
class SpectralData:
    """The nonzero eigenvalues ascending with their multiplicities mu_i and
    the spectral projectors P_i, so that for n >= transient

        <A^n u, tau> = sum_{i, j < mu_i} C(n,j) lam_i^n (tau^T P_i (A - lam_i I)^j lam_i^-j u).

    P_i commutes with A, and A - lam_i I is nilpotent on the range of P_i
    (the primary decomposition), so A^n P_i = (lam_i I + (A - lam_i I))^n P_i
    expands binomially and stops at j = mu_i.  transient is the
    multiplicity k of the eigenvalue 0 (0 when A is invertible): the P_i sum
    to I less the projector onto the generalized 0-eigenspace, on which A^n
    vanishes once n >= k.

    Everything the certificate search reads is held over integers.  For D
    the least common denominator of A's entries, betas[i] = D lam_i is an
    eigenvalue of the integer matrix B = D·A (int_matrix()): an int when
    lam_i is rational, and D^n cancels from every comparison of terms
    C(n,j) lam_i^n c, so they compare C(n,j) beta_i^n c instead.  Each
    projector is (rows, scale) with P_i = rows / scale: integer rows over a
    positive integer scale for a rational eigenvalue, rows of real algebraic
    numbers over 1 for an irrational one.  resolvent() is (I - A)^{-1} as
    integer rows over one denominator.
    """

    matrix: RatMatrix
    eigenvalues: list[Alg]
    betas: list[Alg | int]
    multiplicities: list[int]
    projectors: list[tuple[list[list], int]]
    transient: int
    _int_matrix: IntRows | None = field(default=None, repr=False)
    _resolvent: IntRows | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def int_matrix(self) -> IntRows:
        """A as integer rows over D: the rows of B = D·A."""
        if self._int_matrix is None:
            self._int_matrix = IntRows(self.matrix)
        return self._int_matrix

    def resolvent(self) -> IntRows:
        """(I - A)^{-1} as integer rows over one denominator; requires
        spectral radius < 1 so 1 is no eigenvalue."""
        if self._resolvent is None:
            # I - A = (D I - B) / D
            b = self.int_matrix()
            m = [[b.den * (i == j) for j in range(self.dim)] for i in range(self.dim)]
            for i, row in enumerate(b.rows):
                for j, x in row:
                    m[i][j] -= x
            inv = _int_inverse(m, b.den)
            if inv is None:
                raise SpectralError("I - A singular; spectral radius not below one")
            self._resolvent = IntRows._from_ints(*inv)
        return self._resolvent


def spectral_decompose(a: RatMatrix, p: IntPoly, eigen: tuple[EigenFactor, ...]) -> SpectralData:
    """The spectral data of A, for p its characteristic polynomial
    (charpoly_primitive(a)) and eigen the eigen_factors of p without its
    zero roots, both formed by the caller, so nothing is factored or
    isolated here.  Requires every eigenvalue real and nonnegative; fails
    loudly otherwise.  A root 0 of multiplicity k gives no eigenvalue and
    no projector, only the transient k.

    The projectors are evaluated in y = D x on the integer powers of
    B = D·A, whose characteristic polynomial p_B is monic in integers.  A
    rational eigenvalue of A is beta / D for an integer root beta of p_B,
    so its projector polynomial is an integer one over one integer scale,
    and its projector is kept as that integer matrix over that scale,
    divided by their common factor.  An irrational eigenvalue's projector
    comes from the same interpolation over Q(lam), on the same integer
    powers, as rows of real algebraic numbers over 1.  The betas D·lam_i
    are kept beside the eigenvalues.  Every spectrum takes this one path,
    and no nilpotent part is formed: bilinear_rows steps each Jordan chain
    by B - beta_i I."""
    if not a.is_square:
        raise ValueError("non-square matrix")
    d = a.rows
    if p.degree != d:
        raise ValueError("the polynomial is not the matrix's characteristic polynomial")
    transient = d - nonzero_eigen_poly(p).degree
    if sum(f.degree * mult for f, mult, _ in eigen) != d - transient:
        raise ValueError("the eigenvalues are not those of the polynomial")
    if transient == d:
        return SpectralData(a, [], [], [], [], transient)
    eig: list[tuple[Alg, int]] = []
    for f, mult, roots in eigen:
        if len(roots) != f.degree:
            raise SpectralError("non-real eigenvalue detected")
        if roots[0] < 0:
            raise SpectralError("negative eigenvalue detected")
        eig += [(r, mult) for r in roots]
    eig.sort(key=lambda e: e[0])

    den = lcm(*(x.denominator for x in a.entries))
    b = [x.numerator * (den // x.denominator) for x in a.entries]
    lead = p.coeffs[-1]
    pb = [c * den ** (d - k) // lead for k, c in enumerate(p.coeffs)]  # p_B(y) = D^d p(y/D) / lead
    betas = [lam.numerator * (den // lam.denominator) if isinstance(lam, Fraction) else lam * den
             for lam, _ in eig]
    polys = [_projector_poly(pb, beta, mu) for beta, (_, mu) in zip(betas, eig)]
    powers = _int_powers(b, d, max(len(h) for h, _ in polys))

    projectors = []
    for beta, (h, scale) in zip(betas, polys):
        if isinstance(beta, int):
            entries = [sum(c * m[e] for c, m in zip(h, powers)) for e in range(d * d)]
            g = gcd(scale, *entries)
            if scale < 0:
                g = -g
            entries, scale = [x // g for x in entries], scale // g
        else:
            inv = Fraction(1) / scale
            h = [c * inv for c in h]
            entries, scale = [sum((c * m[e] for c, m in zip(h, powers) if m[e]), Fraction(0))
                              for e in range(d * d)], 1
        projectors.append(([entries[r * d:(r + 1) * d] for r in range(d)], scale))
    return SpectralData(a, [lam for lam, _ in eig], betas, [mu for _, mu in eig], projectors, transient)


def _projector_poly(pb: list[int], beta: Alg | int, mu: int) -> tuple[list, Alg | int]:
    """(s h, s): the coefficients of s h, lowest first and without trailing
    zeros, and the scale s, for h the polynomial with h(B) the spectral
    projector onto the generalized eigenspace of the eigenvalue beta, of
    multiplicity mu, of a matrix B with monic characteristic polynomial
    pb: h == 1 mod (y - beta)^mu and h == 0 modulo the rest of pb.

    Hermite interpolation without a division, so an integer beta keeps
    every coefficient and the scale an integer.  With q = pb / (y - beta)^mu
    and q(beta + t) = sum_k c_k t^k, h = q w for w the inverse of that
    series modulo t^mu, and v_k = c_0^(k+1) w_k satisfies v_0 = 1 and
    v_k = -sum_{l=1..k} c_l c_0^(l-1) v_(k-l); s = c_0^mu."""
    q = pb
    for _ in range(mu):
        q = _synthetic_divide(q, beta)
    # Taylor coefficients of q around beta: repeated division
    taylor = []
    work = q
    for _ in range(mu):
        rem, work = _synthetic_divide_with_rem(work, beta)
        taylor.append(rem)
    c0 = taylor[0]
    v = [1]
    for k in range(1, mu):
        v.append(-sum(taylor[l] * c0 ** (l - 1) * v[k - l] for l in range(1, k + 1)))
    # s w = sum_k c0^(mu-1-k) v_k (y - beta)^k, by Horner's rule in (y - beta)
    series = [v[mu - 1]]
    for k in range(mu - 2, -1, -1):
        series = [x - beta * y for x, y in zip([0] + series, series + [0])]
        series[0] = series[0] + c0 ** (mu - 1 - k) * v[k]
    h = _poly_mul_alg(q, series)
    while h and not h[-1]:
        h.pop()
    return h, c0 ** mu


def _int_powers(b: list[int], d: int, count: int) -> list[list[int]]:
    """B^0, ..., B^(count-1) for the d x d integer matrix B, each as its
    entries row by row, as b is."""
    cols = [b[c::d] for c in range(d)]
    powers = [[int(i == j) for i in range(d) for j in range(d)], b][:count]
    while len(powers) < count:
        last = powers[-1]
        powers.append([sum(x * y for x, y in zip(last[r * d:(r + 1) * d], col))
                       for r in range(d) for col in cols])
    return powers


def _synthetic_divide(coeffs: list[Alg], lam: Alg) -> list[Alg]:
    """coeffs / (x - lam), remainder discarded (vanishes when lam is a root)."""
    return _synthetic_divide_with_rem(coeffs, lam)[1]


def _synthetic_divide_with_rem(coeffs: list[Alg], lam: Alg) -> tuple[Alg, list[Alg]]:
    """Return (p(lam), p(x)/(x-lam) quotient)."""
    if not coeffs:
        return 0, []
    carry = coeffs[-1]
    out: list[Alg] = [0] * (len(coeffs) - 1)
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * lam
    return carry, out


def _poly_mul_alg(a: list[Alg], b: list[Alg]) -> list[Alg]:
    out: list[Alg] = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if not y:
                continue
            out[i + j] = out[i + j] + x * y
    return out


def alg_dot(xs, ys) -> Alg:
    return sum((x * y for x, y in zip(xs, ys)), Fraction(0))


def bilinear_rows(s: SpectralData, tau) -> tuple[list[list[list]], int]:
    """(rows, den): numerator rows over one positive integer den, with
    rows[i][j] / den = tau^T P_i (A - lam_i I)^j lam_i^-j for j < mu_i, the
    rows of the bilinear forms for one direction.

    Row j of eigenvalue i is row j-1 times (A - lam_i I) / lam_i =
    (B - beta_i I) / beta_i, read from the integer rows of B: an integer
    beta_i goes into that row's denominator, an irrational one divides the
    row.  A rational tau is cleared to integers and a rational eigenvalue's
    projector is integer rows over a scale, so on a rational spectrum with
    a rational direction every numerator is an int; otherwise they are
    real algebraic numbers.  P_i (A - lam_i I)^j vanishes once j >= mu_i,
    so those rows are not built, and once a row is zero every later one
    is, so those are zero rows, not products.

    Computed once per tau, they turn every coefficient of a vector u into
    the row-vector product rows[i][j] . u (expand_inner_product), over den
    times u's denominator."""
    d = s.dim
    if len(tau) != d:
        raise ValueError(f"direction has {len(tau)} entries, expected {d}")
    t, tau_den = cleared(tau)
    chains = []
    for beta, mu, (proj, scale) in zip(s.betas, s.multiplicities, s.projectors):
        row = [sum(x * y for x, y in zip(t, col)) for col in zip(*proj)]
        den = tau_den * scale
        chain = [(row, den)]
        inv = 1 / beta if mu > 1 and not isinstance(beta, int) else None
        while len(chain) < mu and any(row):
            step = s.int_matrix().row_times(row)
            if inv is None:
                row = [x - beta * y for x, y in zip(step, row)]
                den *= beta
            else:
                row = [x * inv - y for x, y in zip(step, row)]
            chain.append((row, den))
        chains.append(chain + [([0] * d, den)] * (mu - len(chain)))
    common = lcm(*(den for chain in chains for _, den in chain))
    return [[[x * (common // den) for x in row] for row, den in chain] for chain in chains], common


def expand_inner_product(rows, u) -> list[list]:
    """Numerators c[i][j] = rows[i][j] . u, j < mu_i, of the closed form
    <A^n u, tau> = sum_{i,j} C(n,j) lam_i^n c[i][j] / den, for (rows, den)
    the bilinear_rows(s, tau) of one direction, built once for every vector
    expanded against it.  The products run over u's nonzero coordinates
    only, so an integer u, or the difference of two integer vectors, costs
    one product per coordinate that is not zero."""
    if rows and len(u) != len(rows[0][0]):
        raise ValueError(f"vector has {len(u)} entries, expected {len(rows[0][0])}")
    nonzero = [(k, x) for k, x in enumerate(u) if x]
    return [[sum(r[k] * x for k, x in nonzero) for r in row_i] for row_i in rows]
