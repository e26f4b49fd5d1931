"""Exact linear algebra over Q and over real algebraic numbers.

RatMatrix is the rational workhorse (Fraction entries).  Values that may
be irrational (spectral projectors, bilinear-form rows, the matrices of
the certificate search) are plain lists of rows whose entries are
Fractions where rational and RealAlg where not, so a rational spectrum
never leaves Fraction arithmetic.

spectral_decompose splits a matrix with real, strictly positive
eigenvalues into its commuting diagonalizable + nilpotent parts and
computes the spectral projector onto each generalized eigenspace as a
polynomial in the matrix, h(A) = sum_k h_k A^k over the rational powers
A^k, so no eigenvector basis over an extension field is ever constructed.
bilinear_rows then builds, for one direction tau, the rows
tau^T P_i N^j lam_i^-j for j below the multiplicity of lam_i; P_i N^j
vanishes from there on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import comb, gcd, lcm

from .exactnum import (
    Alg,
    IntPoly,
    count_real_roots,
    count_roots_halfopen,
    factor_int_poly,
    sturm_chain,
    sturm_isolate_real_roots,
)

Vec = tuple[Fraction, ...]


class SpectralError(Exception):
    """Raised when a decomposition precondition fails (non-real or
    non-positive eigenvalue detected)."""


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
        object.__setattr__(self, "entries", tuple(Fraction(e) for e in self.entries))

    @staticmethod
    def from_rows(rows) -> "RatMatrix":
        rows = [list(r) for r in rows]
        nr = len(rows)
        nc = len(rows[0]) if rows else 0
        if any(len(r) != nc for r in rows):
            raise ValueError("ragged rows")
        return RatMatrix(nr, nc, tuple(Fraction(x) for r in rows for x in r))

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

    def scale(self, s) -> "RatMatrix":
        s = Fraction(s)
        return RatMatrix(self.rows, self.cols, tuple(a * s for a in self.entries))

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
        den = 1
        for e in self.entries:
            den = den * e.denominator // gcd(den, e.denominator)
        m = [[int(self.get(i, j) * den) for j in range(n)] for i in range(n)]
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

    def column_space_basis(self) -> list[Vec]:
        _, pivots = self.rref()
        return [self.col(c) for c in pivots]

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
        if not self.is_square:
            raise ValueError("inverse of non-square matrix")
        n = self.rows
        aug = RatMatrix(n, 2 * n, tuple(x for i in range(n)
                                        for x in (*self.row(i), *RatMatrix.identity(n).row(i))))
        m, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            return None
        return RatMatrix.from_rows([r[n:] for r in m[:n]])

    def __repr__(self) -> str:
        body = "; ".join(" ".join(str(x) for x in self.row(i)) for i in range(self.rows))
        return f"RatMatrix[{body}]"


# ---------------------------------------------------------------------------
# characteristic polynomial and spectral tests
# ---------------------------------------------------------------------------


def charpoly(a: RatMatrix) -> tuple[Fraction, ...]:
    """Monic coefficients of det(xI - A), lowest degree first.

    Samuelson-Berkowitz recursion, which is division-free, run in integers
    on B = D·A for D the least common denominator of A's entries; then
    p_A(x) = D^-n p_B(Dx), so the coefficient of x^k is that of p_B over
    D^(n-k).
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
            first.append(-sum(x * y for x, y in zip(row, cur)))
            if k + 1 < r:
                cur = [sum(x * y for x, y in zip(bi, cur)) for bi in block]
        c = [sum(first[i - j] * c[j] for j in range(max(0, i - r - 1), min(i, r) + 1))
             for i in range(r + 2)]
    return tuple(Fraction(c[n - k], den ** (n - k)) for k in range(n + 1))


def charpoly_primitive(a: RatMatrix, charp: tuple[Fraction, ...] | None = None) -> IntPoly:
    """det(xI - A) cleared of denominators, primitive, positive lead;
    `charp` is charpoly(a) when the caller has it already."""
    coeffs = charpoly(a) if charp is None else charp
    den = lcm(*(x.denominator for x in coeffs))
    return IntPoly(tuple(x.numerator * (den // x.denominator) for x in coeffs)).primitive()


def _cayley_transform(coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    """(1-w)^n p((1+w)/(1-w)) for p given lowest-first; maps the open unit
    disk to the open left half-plane."""
    n = len(coeffs) - 1
    acc = [Fraction(0)] * (n + 1)
    for k, a in enumerate(coeffs):
        if a == 0:
            continue
        # (1+w)^k (1-w)^(n-k)
        term = [Fraction(0)] * (n + 1)
        for i in range(k + 1):
            for j in range(n - k + 1):
                term[i + j] += comb(k, i) * comb(n - k, j) * (-1) ** j
        for i in range(n + 1):
            acc[i] += a * term[i]
    return acc


def _hurwitz_stable(b: list[Fraction]) -> bool:
    """All roots in the open left half-plane, by positivity of the leading
    principal minors of the Hurwitz matrix (with positive leading coeff)."""
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
    h = [[coeff(n - 2 * (j + 1) + (i + 1)) for j in range(n)] for i in range(n)]
    # leading principal minors via LU without pivoting: a nonpositive pivot
    # at any stage means some minor is <= 0, hence not Hurwitz
    m = [row[:] for row in h]
    for k in range(n):
        if m[k][k] <= 0:
            return False
        for i in range(k + 1, n):
            if m[i][k] != 0:
                f = m[i][k] / m[k][k]
                for j in range(k, n):
                    m[i][j] -= f * m[k][j]
    return True


def schur_stable(a: RatMatrix, charp: tuple[Fraction, ...] | None = None) -> bool:
    """True iff every eigenvalue has modulus strictly below one; `charp` is
    charpoly(a) when the caller has it already."""
    coeffs = list(charpoly(a) if charp is None else charp)
    # roots at zero have modulus zero; strip them
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    n = len(coeffs) - 1
    if n <= 0:
        return True
    q = _cayley_transform(tuple(coeffs))
    if q[n] == 0:
        # -1 is an eigenvalue
        return False
    return _hurwitz_stable(q)


def _real_nonneg_spectrum(a: RatMatrix, charp: tuple[Fraction, ...] | None = None) -> bool:
    p = charpoly_primitive(a, charp)
    coeffs = list(p.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs = coeffs[1:]
    p = IntPoly(tuple(coeffs))
    if p.degree <= 0:
        return True
    sf = p.squarefree_part()
    if count_real_roots(sf) != sf.degree:
        return False
    chain = sturm_chain(sf)
    # no roots in (-inf, 0]; zero roots were stripped so sf(0) != 0
    return count_roots_halfopen(chain, "-inf", Fraction(0)) == 0


def _euler_phi(r: int) -> int:
    result = r
    n = r
    p = 2
    while p * p <= n:
        if n % p == 0:
            while n % p == 0:
                n //= p
            result -= result // p
        p += 1
    if n > 1:
        result -= result // n
    return result


def real_spectrum_power_bound(d: int) -> int:
    """lcm of all r with phi(r) <= d (phi(r) >= sqrt(r/2) bounds the scan)."""
    m = 1
    r = 1
    while r <= 2 * d * d + 1:
        if _euler_phi(r) <= d:
            m = m * r // gcd(m, r)
        r += 1
    return m


def real_spectrum_power(a: RatMatrix, charp: tuple[Fraction, ...] | None = None) -> int | None:
    """Least M >= 1 with A^M having exclusively real nonnegative spectrum,
    or None when no M up to the degree-derived bound works; `charp` is
    charpoly(a) when the caller has it already, and serves the test at
    M = 1."""
    if not a.is_square:
        raise ValueError("non-square matrix")
    if _real_nonneg_spectrum(a, charp):
        return 1
    bound = real_spectrum_power_bound(a.rows) if a.rows > 0 else 1
    power = a
    for m in range(2, bound + 1):
        power = power @ a
        if _real_nonneg_spectrum(power):
            return m
    return None


def fitting_split(a: RatMatrix) -> tuple[list[Vec], list[Vec]]:
    """Bases of ker(A^d) and im(A^d); A is nilpotent on the first,
    invertible on the second, and both are A-invariant."""
    if not a.is_square:
        raise ValueError("non-square matrix")
    ad = a.power(a.rows)
    return ad.kernel_basis(), ad.column_space_basis()


def krylov_invariant_span(a: RatMatrix, generators) -> list[Vec]:
    """Basis of span{A^i g : i >= 0, g in generators} in reduced row
    echelon form.  The echelon basis grows one vector at a time, and a
    generator's powers stop at the first one already in the span: every
    later power then lies in it too."""
    basis: dict[int, list[Fraction]] = {}  # pivot column -> row, 0 in the other pivot columns
    for g in generators:
        cur = tuple(Fraction(x) for x in g)
        for _ in range(a.rows):
            v = list(cur)
            for c, row in basis.items():
                f = v[c]
                if f:
                    v = [x - f * y for x, y in zip(v, row)]
            piv = next((j for j, x in enumerate(v) if x), None)
            if piv is None:
                break
            inv = 1 / v[piv]
            v = [x * inv for x in v]
            for c, row in basis.items():
                f = row[piv]
                if f:
                    basis[c] = [x - f * y for x, y in zip(row, v)]
            basis[piv] = v
            cur = a.matvec(cur)
    return [tuple(basis[c]) for c in sorted(basis)]


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
    """Eigenvalues ascending with their multiplicities mu_i, the spectral
    projectors P_i (d rows each) and the rational nilpotent part
    N, so that A = sum_i lam_i P_i + N and

        <A^n u, tau> = sum_{i, j < mu_i} C(n,j) lam_i^n (tau^T P_i N^j lam_i^-j u).
    """

    matrix: RatMatrix
    eigenvalues: list[Alg]
    multiplicities: list[int]
    projectors: list[list[list[Alg]]]
    nilpotent: RatMatrix
    _resolvent: RatMatrix | None = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.matrix.rows

    def geometric_sum_matrix(self) -> RatMatrix:
        """(I - A)^{-1}; requires spectral radius < 1 so 1 is no eigenvalue."""
        if self._resolvent is None:
            inv = (RatMatrix.identity(self.dim) - self.matrix).inverse()
            if inv is None:
                raise SpectralError("I - A singular; spectral radius not below one")
            self._resolvent = inv
        return self._resolvent


def _semisimple_part(a: RatMatrix, charp: IntPoly) -> RatMatrix:
    """Rational semisimple part S of A (Newton iteration on the squarefree
    part of its characteristic polynomial charp); A - S is nilpotent."""
    p = charp.squarefree_part()
    pf = [Fraction(c) for c in p.coeffs]
    dpf = [Fraction(i * c) for i, c in enumerate(p.coeffs)][1:]

    def eval_at(coeffs, m: RatMatrix) -> RatMatrix:
        acc = RatMatrix.zeros(m.rows, m.rows)
        ident = RatMatrix.identity(m.rows)
        for c in reversed(coeffs):
            acc = acc @ m + ident.scale(c)
        return acc

    x = a
    for _ in range(a.rows + 2):
        px = eval_at(pf, x)
        if all(e == 0 for e in px.entries):
            return x
        dpx_inv = eval_at(dpf, x).inverse()
        if dpx_inv is None:
            raise SpectralError("derivative evaluation singular during splitting")
        x = x - dpx_inv @ px
    raise SpectralError("semisimple splitting did not converge")


def spectral_decompose(a: RatMatrix) -> SpectralData:
    """Requires every eigenvalue real and strictly positive; fails loudly
    otherwise."""
    if not a.is_square:
        raise ValueError("non-square matrix")
    d = a.rows
    if d == 0:
        return SpectralData(a, [], [], [], a)
    p = charpoly_primitive(a)
    factors = factor_int_poly(p.coeffs)
    eig: list[tuple[Alg, int]] = []
    for fcoeffs, mult in factors:
        f = IntPoly(fcoeffs)
        roots = sturm_isolate_real_roots(f)
        if len(roots) != f.degree:
            raise SpectralError("non-real eigenvalue detected")
        for r in roots:
            if r <= 0:
                raise SpectralError("non-positive eigenvalue detected")
            eig.append((r, mult))
    eig.sort(key=lambda e: e[0])

    nilpotent = a - _semisimple_part(a, p)

    # the rational powers A^k, shared by every projector and built only as
    # far as the highest nonzero coefficient of a projector polynomial
    powers = [RatMatrix.identity(d)]
    projectors = []
    for lam, mu in eig:
        h = _projector_for(p, lam, mu)
        while len(powers) < len(h):
            powers.append(powers[-1] @ a)
        projectors.append(_poly_at_powers(h, powers))

    return SpectralData(a, [lam for lam, _ in eig], [mu for _, mu in eig], projectors, nilpotent)


def _projector_for(charp: IntPoly, lam: Alg, mu: int) -> list[Alg]:
    """Coefficients, lowest first and without trailing zeros, of the
    polynomial h with h(A) the spectral projector onto the generalized
    eigenspace of lam: h == 1 mod (x-lam)^mu and h == 0 modulo the rest of
    the characteristic polynomial."""
    # deflate charpoly by (x - lam)^mu via synthetic division over Q(lam)
    coeffs: list[Alg] = [Fraction(c) for c in charp.coeffs]
    for _ in range(mu):
        coeffs = _synthetic_divide(coeffs, lam)
    cofactor = coeffs  # charp / (x-lam)^mu, degree d - mu (up to constant)
    # Taylor coefficients of the cofactor around lam: repeated division
    taylor: list[Alg] = []
    work = list(cofactor)
    for _ in range(mu):
        rem_val, work_next = _synthetic_divide_with_rem(work, lam)
        taylor.append(rem_val)
        work = work_next
    # invert the truncated series: w with (sum taylor_s t^s) * w == 1 + O(t^mu)
    inv: list[Alg] = [1 / taylor[0]]
    for s in range(1, mu):
        acc = Fraction(0)
        for t in range(1, s + 1):
            acc = acc + taylor[t] * inv[s - t]
        inv.append(-(acc * inv[0]))
    # expand sum_s inv_s (x - lam)^s into standard-basis coefficients
    series: list[Alg] = [Fraction(0)] * mu
    basis: list[Alg] = [Fraction(1)]
    for s in range(mu):
        for k, b in enumerate(basis):
            series[k] = series[k] + inv[s] * b
        nb: list[Alg] = [Fraction(0)] * (len(basis) + 1)
        for k, b in enumerate(basis):
            nb[k + 1] = nb[k + 1] + b
            nb[k] = nb[k] - lam * b
        basis = nb
    # h == 1 modulo (x-lam)^mu and vanishes to full order at the other
    # eigenvalues, so h(A) is the spectral projector
    h = _poly_mul_alg(cofactor, series)
    while h and not h[-1]:
        h.pop()
    return h


def _poly_at_powers(h: list[Alg], powers: list[RatMatrix]) -> list[list[Alg]]:
    """Rows of h(A) = sum_k h_k A^k from the rational powers A^k."""
    d = powers[0].rows
    terms = [(c, m.entries) for c, m in zip(h, powers)]
    return [[sum((c * m[k] for c, m in terms if m[k]), Fraction(0))
             for k in range(r * d, (r + 1) * d)]
            for r in range(d)]


def _synthetic_divide(coeffs: list[Alg], lam: Alg) -> list[Alg]:
    """coeffs / (x - lam), remainder discarded (vanishes when lam is a root)."""
    return _synthetic_divide_with_rem(coeffs, lam)[1]


def _synthetic_divide_with_rem(coeffs: list[Alg], lam: Alg) -> tuple[Alg, list[Alg]]:
    """Return (p(lam), p(x)/(x-lam) quotient)."""
    if not coeffs:
        return Fraction(0), []
    carry = coeffs[-1]
    out: list[Alg] = [Fraction(0)] * (len(coeffs) - 1)
    for k in range(len(coeffs) - 2, -1, -1):
        out[k] = carry
        carry = coeffs[k] + carry * lam
    return carry, out


def _poly_mul_alg(a: list[Alg], b: list[Alg]) -> list[Alg]:
    out: list[Alg] = [Fraction(0)] * (len(a) + len(b) - 1)
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


def bilinear_rows(s: SpectralData, tau) -> list[list[list[Alg]]]:
    """Rows r[i][j] = tau^T P_i N^j lam_i^-j, j < mu_i, of the bilinear forms
    for one direction: r[i][0] = tau^T P_i and r[i][j] = r[i][j-1] N / lam_i.
    P_i N^j vanishes once j >= mu_i, so those rows are not built.

    Computed once per tau, they turn every coefficient c[i][j] of a vector
    u into the row-vector product r[i][j] . u."""
    d = s.dim
    if len(tau) != d:
        raise ValueError(f"direction has {len(tau)} entries, expected {d}")
    ncols = [s.nilpotent.col(k) for k in range(d)]
    out: list[list[list[Alg]]] = []
    for lam, mu, proj in zip(s.eigenvalues, s.multiplicities, s.projectors):
        row = [alg_dot(tau, col) for col in zip(*proj)]
        rows_i = [row]
        if mu > 1:
            lam_inv = 1 / lam
            for _ in range(1, mu):
                row = [sum((row[t] * x for t, x in enumerate(col) if x), Fraction(0)) * lam_inv
                       for col in ncols]
                rows_i.append(row)
        out.append(rows_i)
    return out


def expand_inner_product(s: SpectralData, u, tau, rows=None) -> list[list[Alg]]:
    """Coefficients c[i][j] = tau^T P_i N^j lam_i^-j u, j < mu_i, of the
    closed form <A^n u, tau> = sum_{i,j} C(n,j) lam_i^n c[i][j].

    `rows` are bilinear_rows(s, tau); a caller expanding many vectors
    against one direction passes them so they are built once."""
    if rows is None:
        rows = bilinear_rows(s, tau)
    if len(u) != s.dim:
        raise ValueError(f"vector has {len(u)} entries, expected {s.dim}")
    return [[alg_dot(r, u) for r in row_i] for row_i in rows]
