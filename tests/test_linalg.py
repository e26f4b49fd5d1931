import random
from collections import Counter
import time
from fractions import Fraction
from math import gcd, lcm

import pytest

from ltireach.exactnum import sturm_isolate_real_roots
from ltireach.linalg import (
    RatMatrix,
    SpectralError,
    alg_kernel_basis,
    charpoly_primitive,
    krylov_invariant_span,
    nonzero_eigen_poly,
    real_spectrum_power,
    real_spectrum_power_bound,
    schur_stable,
    vec,
)
from oracles import (alg_dot, alg_matmul, all_bilinear_rows, bilinear_coeff, bilinear_row_values, decompose,
                     expansion_values, frac_to_int_poly, fraction_charpoly, fraction_inverse,
                     fraction_real_nonneg_spectrum, fraction_schur_stable, fraction_spectral_decompose,
                     inner_product_at, int_poly, projector_values, rat, scan_real_spectrum_power, sign)

F = Fraction


def mat(rows):
    return RatMatrix.from_rows(rows)


def monic(a: RatMatrix) -> tuple[Fraction, ...]:
    """The monic characteristic polynomial of A, from charpoly_primitive."""
    p = charpoly_primitive(a).coeffs
    return tuple(F(c, p[-1]) for c in p)


def eigen_poly(a: RatMatrix):
    return nonzero_eigen_poly(charpoly_primitive(a))


QUAD = mat([[F(1, 3), 0], [0, F(2, 3)]])
ROT90_HALF = mat([[0, F(-1, 2)], [F(1, 2), 0]])  # (1/2) * rotation by pi/2
ROT_IRRATIONAL = mat([[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]])  # (1/2) * rot, cos = 3/5


def random_positive_spectrum_matrix(rng, d, allow_jordan=True):
    """Conjugate of an upper-triangular matrix with rational eigenvalues in
    (0,1) by a random unimodular integer matrix."""
    lams = sorted(F(rng.randint(1, 9), 10) for _ in range(d))
    rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
    if allow_jordan:
        for i in range(d - 1):
            if lams[i] == lams[i + 1] and rng.random() < 0.5:
                rows[i][i + 1] = F(1)
    core = mat(rows)
    p = RatMatrix.identity(d)
    for _ in range(3):
        i, j = rng.sample(range(d), 2) if d > 1 else (0, 0)
        if i == j:
            continue
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-2, 2))
        p = p @ mat(e)
    pinv = p.inverse()
    return p @ core @ pinv


# ---------------------------------------------------------------------------
# basic matrix ops
# ---------------------------------------------------------------------------


def test_matmul_inverse_roundtrip():
    rng = random.Random(2)
    for _ in range(20):
        d = rng.randint(1, 4)
        a = mat([[F(rng.randint(-5, 5), rng.randint(1, 4)) for _ in range(d)] for _ in range(d)])
        inv = a.inverse()
        if inv is not None:
            assert inv @ a == RatMatrix.identity(d)
            assert a.det() != 0
        else:
            assert a.det() == 0


def test_integer_inverse_matches_fraction_oracle():
    """The fraction-free elimination in integers gives the inverse that
    Gauss-Jordan over Fractions gives, and None on the same singular
    matrices; (I - A)^-1 of a stable A with it."""
    rng = random.Random(89)
    cases = [RatMatrix.identity(d) for d in range(1, 6)] + [mat([[0]]), mat([[F(-3, 7)]])]
    while len(cases) < 3000:
        d = rng.randint(1, 5)
        zero_share = rng.choice((0.1, 0.5))
        rows = [[F(0) if rng.random() < zero_share else F(rng.randint(-5, 5), rng.choice((1, 1, 2, 3, 7)))
                 for _ in range(d)] for _ in range(d)]
        if d > 1 and rng.random() < 0.2:
            # one row a combination of the others: singular
            i = rng.randrange(d)
            others = [k for k in range(d) if k != i]
            rows[i] = [F(0)] * d
            for k in rng.sample(others, min(2, len(others))):
                c = F(rng.randint(-3, 3), rng.randint(1, 3))
                rows[i] = [x + c * y for x, y in zip(rows[i], rows[k])]
        cases.append(mat(rows))
    singular = 0
    for a in cases:
        got = a.inverse()
        assert got == fraction_inverse(a)
        singular += got is None
    assert 300 <= singular <= 2000
    for d in (1, 2, 3, 4):
        for _ in range(15):
            a = random_positive_spectrum_matrix(rng, d)
            expected = fraction_inverse(RatMatrix.identity(d) - a)
            resolvent = decompose(a).resolvent()
            assert resolvent.den > 0 and gcd(resolvent.den, *(x for row in resolvent.rows for _, x in row)) == 1
            dense = [dict(row) for row in resolvent.rows]
            assert [[F(row.get(j, 0), resolvent.den) for j in range(d)] for row in dense] == expected.to_rows()


def test_kernel_and_column_space():
    a = mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    kb = a.kernel_basis()
    assert len(kb) == 1
    assert a.matvec(kb[0]) == (0, 0, 0)
    assert a.rank() == 2


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------


def test_charpoly_diag_thirds():
    # (x - 1/3)(x - 2/3) = x^2 - x + 2/9
    assert charpoly_primitive(QUAD) == int_poly(2, -9, 9)
    assert monic(QUAD) == (F(2, 9), F(-1), F(1))


def test_charpoly_identity3():
    ident = RatMatrix.identity(3)
    assert charpoly_primitive(ident) == int_poly(-1, 3, -3, 1)


def test_charpoly_rotation():
    a = mat([[0, 1], [-1, 0]])
    assert charpoly_primitive(a) == int_poly(1, 0, 1)


def test_charpoly_matches_bareiss_det_randomized():
    rng = random.Random(9)
    for _ in range(25):
        d = rng.randint(1, 4)
        a = mat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)])
        coeffs = monic(a)
        x = F(rng.randint(-7, 7), rng.randint(1, 5))
        lhs = sum(c * x ** i for i, c in enumerate(coeffs))
        rhs = (RatMatrix.diag(*[x] * d) - a).det()
        assert lhs == rhs


def test_charpoly_matches_fraction_berkowitz_randomized():
    """The integer recursion on D·A, rescaled, equals the Fraction recursion
    on A cleared of denominators, also with zero rows and columns and
    denominators that share factors or do not."""
    rng = random.Random(31)
    for _ in range(120):
        d = rng.randint(0, 9)
        rows = [[F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 4, 6, 7, 12])) if rng.random() < 0.6 else F(0)
                 for _ in range(d)] for _ in range(d)]
        if d and rng.random() < 0.5:
            rows[rng.randrange(d)] = [F(0)] * d
        if d and rng.random() < 0.5:
            j = rng.randrange(d)
            for r in rows:
                r[j] = F(0)
        a = RatMatrix(d, d, tuple(x for r in rows for x in r))
        got = charpoly_primitive(a)
        assert got == frac_to_int_poly(list(fraction_charpoly(a)))
        assert got.coeffs[-1] > 0 and all(type(c) is int for c in got.coeffs)


def test_charpoly_matches_fraction_berkowitz_on_gadget_lifts():
    from ltireach.gadgets import PoweringInstance, VectorReachInstance, powering_to_vector_reach, vector_reach_to_lti

    a1, a2 = mat([[1, 1], [0, 1]]), mat([[2, 0], [1, F(1, 2)]])
    lifts = [
        vector_reach_to_lti(VectorReachInstance((a1, a2), vec(0, 1), vec(2, 1))).system.a,
        vector_reach_to_lti(powering_to_vector_reach(PoweringInstance((a2,), a2.power(2)))).system.a,
    ]
    assert [a.rows for a in lifts] == [8, 9]
    for a in lifts:
        assert monic(a) == fraction_charpoly(a)


# ---------------------------------------------------------------------------
# schur stability
# ---------------------------------------------------------------------------


def test_schur_examples():
    assert schur_stable(eigen_poly(QUAD)) is True
    assert schur_stable(eigen_poly(RatMatrix.diag(2))) is False
    assert schur_stable(eigen_poly(RatMatrix.identity(2))) is False
    assert schur_stable(eigen_poly(ROT90_HALF)) is True
    assert schur_stable(eigen_poly(mat([[0, 1], [-1, 0]]))) is False  # modulus exactly 1
    assert schur_stable(eigen_poly(RatMatrix.diag(F(-9, 10), F(1, 2)))) is True
    assert schur_stable(eigen_poly(RatMatrix.diag(F(-1)))) is False


def test_schur_agrees_with_root_isolation_on_real_spectra():
    rng = random.Random(21)
    for _ in range(40):
        d = rng.randint(1, 4)
        lams = [F(rng.randint(-15, 15), 10) for _ in range(d)]
        rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
        if d > 1:
            rows[0][d - 1] = F(rng.randint(-2, 2))
        a = mat(rows)
        expected = all(abs(l) < 1 for l in lams)
        assert schur_stable(eigen_poly(a)) is expected
        # cross-check against isolated roots of the characteristic polynomial
        roots = sturm_isolate_real_roots(charpoly_primitive(a))
        assert all(abs(rat(r)) < 1 for r in roots) == expected


# ---------------------------------------------------------------------------
# real spectrum power
# ---------------------------------------------------------------------------


def test_power_bound_d2():
    assert real_spectrum_power_bound(2) == 12


def test_real_spectrum_power_examples():
    assert real_spectrum_power(eigen_poly(QUAD), QUAD.rows) == 1
    # (1/2)*rot(pi/2): A^4 = (1/16) I, verified directly.  lam/conj(lam) = -1
    # has order 2, but lam/|lam| = i has order 4: L = 2 lcm(2) = 4
    m = real_spectrum_power(eigen_poly(ROT90_HALF), ROT90_HALF.rows)
    assert m == 4
    assert ROT90_HALF.power(4) == RatMatrix.diag(*[F(1, 16)] * 2)
    for k in range(1, 4):
        p = charpoly_primitive(ROT90_HALF.power(k))
        roots = sturm_isolate_real_roots(p)
        assert len(roots) < p.degree or any(sign(r) < 0 for r in roots)
    # re-run the accept test on A^M independently of the search loop
    assert fraction_real_nonneg_spectrum(ROT90_HALF.power(m))


def test_real_spectrum_power_absent_for_irrational_angle():
    # oracle: direct check of all M up to the d=2 bound
    assert real_spectrum_power(eigen_poly(ROT_IRRATIONAL), ROT_IRRATIONAL.rows) is None
    for m in range(1, 13):
        p = charpoly_primitive(ROT_IRRATIONAL.power(m)).squarefree_part()
        roots = sturm_isolate_real_roots(p)
        assert len(roots) < p.degree  # complex pair never becomes real


def test_real_spectrum_power_negative_eigenvalue():
    a = RatMatrix.diag(F(-1, 2), F(1, 3))
    assert real_spectrum_power(eigen_poly(a), a.rows) == 2


def naive_totient(r: int) -> int:
    return sum(1 for k in range(1, r + 1) if gcd(k, r) == 1)


def test_power_bound_matches_naive_totients():
    for d in range(1, 9):
        rs = [r for r in range(1, 2 * d * d + 2) if naive_totient(r) <= d]
        assert real_spectrum_power_bound(d) == lcm(*rs)


def companion(c0, c1) -> list[list[Fraction]]:
    """The 2x2 companion matrix of x^2 + c1 x + c0."""
    return [[F(0), -F(c0)], [F(1), -F(c1)]]


# 2x2 blocks by the argument of their eigenvalues: (c0, c1) of x^2 + c1 x + c0
# as a function of a rational scale s; the modulus is s, s*sqrt(2) or s*sqrt(3)
ANGLE_BLOCKS = {
    "pi/2": lambda s: (s * s, 0),
    "pi/3": lambda s: (s * s, -s),
    "2pi/3": lambda s: (s * s, s),
    "pi/4": lambda s: (2 * s * s, -2 * s),
    "3pi/4": lambda s: (2 * s * s, 2 * s),
    "pi/6": lambda s: (3 * s * s, -3 * s),
    "5pi/6": lambda s: (3 * s * s, 3 * s),
}
# modulus exactly one: rotations by pi/2, pi/3, 2pi/3 and by arccos(3/5)
UNIT_BLOCKS = ((1, 0), (1, -1), (1, 1), (1, F(-6, 5)))


def seeded_block(rng):
    """One block of a seeded matrix: a real eigenvalue (negative, zero, on
    the unit circle or not), a Jordan block, a rotation by a rational
    multiple of pi or by an irrational angle, scaled, or a unit rotation."""
    kind = rng.choice(["real", "real", "jordan", "angle", "angle", "angle", "irrational", "unit"])
    scale = F(rng.randint(1, 7), rng.randint(1, 6))
    if kind == "real":
        return [[rng.choice([F(0), F(1), F(-1), scale, -scale])]]
    if kind == "jordan":
        lam = rng.choice([F(0), F(-1), scale, -scale])
        return [[lam, F(1)], [F(0), lam]]
    if kind == "angle":
        return companion(*ANGLE_BLOCKS[rng.choice(sorted(ANGLE_BLOCKS))](scale))
    if kind == "irrational":
        re, im = F(rng.randint(-4, 4), 5), F(rng.randint(1, 4), 5)
        return companion(re * re + im * im, -2 * re)
    return companion(*rng.choice(UNIT_BLOCKS))


def seeded_matrix(rng, d: int) -> RatMatrix:
    """A d x d matrix from seeded blocks (a block may repeat, and a complex
    pair may get a Jordan partner), conjugated by integer shears; or, one
    time in six, a matrix of small random entries."""
    if rng.random() < 1 / 6:
        return mat([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)])
    blocks = []
    size = 0
    while size < d:
        b = seeded_block(rng)
        if size + len(b) > d:
            continue
        if len(b) == 2 and size + 4 <= d and rng.random() < 0.3:
            # the block twice: repeated complex eigenvalues, as a Jordan pair or not
            link = F(rng.randint(0, 1))
            b = [b[0] + [link, F(0)], b[1] + [F(0), link], [F(0)] * 2 + b[0], [F(0)] * 2 + b[1]]
        blocks.append(mat(b))
        size += len(b)
    core = RatMatrix.block_diag(blocks)
    p = RatMatrix.identity(d)
    for _ in range(3 if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-2, 2))
        p = p @ mat(e)
    return p @ core @ p.inverse()


def test_spectral_tests_match_the_scan_and_fraction_oracles():
    """On 1,000 seeded matrices with d <= 4, real_spectrum_power equals the
    scan over Fraction matrix powers and schur_stable the Fraction
    Cayley/Hurwitz test."""
    rng = random.Random(1701)
    seen = set()
    stable = set()
    for _ in range(1000):
        a = seeded_matrix(rng, rng.randint(1, 4))
        got = real_spectrum_power(eigen_poly(a), a.rows)
        assert got == scan_real_spectrum_power(a), a
        seen.add(got)
        schur = schur_stable(eigen_poly(a))
        assert schur is fraction_schur_stable(a), a
        stable.add(schur)
    assert {1, 2, 3, 4, 6, 8, 12, None} <= seen
    assert stable == {True, False}


def test_real_spectrum_power_answers_none_above_the_bound(monkeypatch):
    """M* is returned only up to real_spectrum_power_bound(d), as the scan
    stops there: with the bound just below M*, both answer None."""
    from ltireach import linalg

    cases = [mat(companion(*ANGLE_BLOCKS[k](F(1, 2)))) for k in ("pi/2", "pi/3", "pi/4", "pi/6")]
    cases.append(RatMatrix.block_diag([cases[2], cases[3]]))
    for a in cases:
        p = eigen_poly(a)
        want = real_spectrum_power(p, a.rows)
        assert want == scan_real_spectrum_power(a) and want >= 3
        for bound, expected in ((want - 1, None), (want, want)):
            monkeypatch.setattr(linalg, "real_spectrum_power_bound", lambda d, b=bound: b)
            assert real_spectrum_power(p, a.rows) == expected == scan_real_spectrum_power(a, bound)
        monkeypatch.undo()



# ---------------------------------------------------------------------------
# krylov span
# ---------------------------------------------------------------------------


def test_krylov_span_examples():
    a = RatMatrix.diag(F(1, 2), F(1, 3))
    basis = krylov_invariant_span(a, [vec(1, 0)])
    assert len(basis) == 1
    basis = krylov_invariant_span(a, [vec(1, 0), vec(0, 1)])
    assert len(basis) == 2
    swap_half = mat([[0, F(1, 2)], [F(1, 2), 0]])
    basis = krylov_invariant_span(swap_half, [vec(1, 0)])
    assert len(basis) == 2
    # oracle: rank of [g, Ag]
    g = vec(1, 0)
    assert RatMatrix.from_rows([g, swap_half.matvec(g)]).rank() == 2


def all_powers_span(a, generators):
    """The span as built before: A^i g for every g and i < d stacked into
    one matrix, then one rref."""
    rows = []
    for g in generators:
        cur = tuple(F(x) for x in g)
        for _ in range(a.rows):
            rows.append(cur)
            cur = a.matvec(cur)
    if not rows:
        return []
    red, pivots = RatMatrix.from_rows(rows).rref()
    return [tuple(red[i]) for i in range(len(pivots))]


def test_krylov_span_matches_all_powers_rref():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 5)
        entries = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) if rng.random() < 0.6 else F(0)
                   for _ in range(d * d)]
        a = RatMatrix(d, d, tuple(entries))
        gens = [tuple(F(rng.randint(-2, 2)) for _ in range(d)) for _ in range(rng.randint(0, 3))]
        if gens and rng.random() < 0.5:
            gens.append(a.matvec(gens[0]))  # already in the span
        got = krylov_invariant_span(a, gens)
        assert got == all_powers_span(a, gens)
        assert all(type(x) is F for row in got for x in row)


def test_krylov_span_of_40d_cross_polytope_is_quick():
    # A = I/2 with the 80 vertices of a cross-polytope: each generator
    # stops at its first power, so the span takes 80 reductions, not an
    # rref of 3,200 stacked rows
    d = 40
    a = RatMatrix.diag(*[F(1, 2)] * d)
    gens = [tuple(F(s * (1 + i % 2)) if k == i else F(0) for k in range(d))
            for i in range(d) for s in (1, -1)]
    start = time.perf_counter()
    basis = krylov_invariant_span(a, gens)
    assert time.perf_counter() - start < 10
    assert basis == [RatMatrix.identity(d).row(i) for i in range(d)]


# ---------------------------------------------------------------------------
# spectral decomposition
# ---------------------------------------------------------------------------


def rows_equal(a, b) -> bool:
    if [len(r) for r in a] != [len(r) for r in b]:
        return False
    return all(x == y for ra, rb in zip(a, b) for x, y in zip(ra, rb))


def rows_add(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rat_rows(rows):
    return [[rat(x) for x in r] for r in rows]


def check_spectral_invariants(s):
    d = s.dim
    zeros = RatMatrix.zeros(d, d).to_rows()
    total = zeros
    projectors = projector_values(s)
    for i, pi in enumerate(projectors):
        total = rows_add(total, pi)
        for j, pj in enumerate(projectors):
            assert rows_equal(alg_matmul(pi, pj), pi if i == j else zeros)
    # the projectors sum to I on the range of A^k, k the transient (I itself
    # when A is invertible): A^k vanishes on the generalized 0-eigenspace
    a_k = s.matrix.power(s.transient).to_rows()
    assert rows_equal(alg_matmul(total, a_k), a_k)
    # each projector commutes with A, and A - lam_i I is nilpotent of index
    # at most mu_i on its range
    a = s.matrix.to_rows()
    for lam, mu, proj in zip(s.eigenvalues, s.multiplicities, projectors):
        assert rows_equal(alg_matmul(a, proj), alg_matmul(proj, a))
        shifted = [[x - lam if k == r else x for k, x in enumerate(row)] for r, row in enumerate(a)]
        chain = proj
        for _ in range(mu):
            chain = alg_matmul(shifted, chain)
        assert rows_equal(chain, zeros)


def second_rows(s, tau):
    """Row j = 1 of each eigenvalue's Jordan chain for tau, None where
    mu_i = 1."""
    return [rows[1] if len(rows) > 1 else None for rows in bilinear_row_values(s, tau)]


def test_spectral_diag_thirds():
    s = decompose(QUAD)
    assert [rat(l) for l in s.eigenvalues] == [F(1, 3), F(2, 3)]
    assert rat_rows(projector_values(s)[0]) == RatMatrix.diag(1, 0).to_rows()
    assert rat_rows(projector_values(s)[1]) == RatMatrix.diag(0, 1).to_rows()
    assert s.multiplicities == [1, 1]
    check_spectral_invariants(s)


def test_spectral_scaled_identity():
    s = decompose(RatMatrix.diag(*[F(1, 2)] * 2))
    assert [rat(l) for l in s.eigenvalues] == [F(1, 2)]
    assert rat_rows(projector_values(s)[0]) == RatMatrix.identity(2).to_rows()
    # no chain: the second row is zero for every direction
    assert [second_rows(s, tau) for tau in (vec(1, 0), vec(0, 1), vec(3, -2))] == [[[0, 0]]] * 3
    check_spectral_invariants(s)


def test_spectral_jordan_block():
    a = mat([[F(1, 2), 1], [0, F(1, 2)]])
    s = decompose(a)
    assert [rat(l) for l in s.eigenvalues] == [F(1, 2)]
    assert rat_rows(projector_values(s)[0]) == RatMatrix.identity(2).to_rows()
    # e1^T (A - I/2) / (1/2) = (0, 2), and e2^T starts no chain
    assert rat_rows(bilinear_row_values(s, vec(1, 0))[0]) == [[1, 0], [0, 2]]
    assert rat_rows(bilinear_row_values(s, vec(0, 1))[0]) == [[0, 1], [0, 0]]
    check_spectral_invariants(s)


def test_spectral_rejects_bad_spectra():
    with pytest.raises(SpectralError):
        decompose(mat([[0, 1], [-1, 0]]))  # complex eigenvalues
    with pytest.raises(SpectralError):
        decompose(RatMatrix.diag(F(-1, 2), F(1, 3)))  # negative
    # a zero eigenvalue gets no projector, only the transient
    s = decompose(RatMatrix.diag(0, F(1, 3)))
    assert [rat(l) for l in s.eigenvalues] == [F(1, 3)] and s.transient == 1
    assert rat_rows(projector_values(s)[0]) == RatMatrix.diag(0, 1).to_rows()


def test_spectral_irrational_eigenvalues():
    # charpoly x^2 - x + 1/8: roots (2 +- sqrt 2)/4, both in (0,1)
    a = mat([[F(1, 2), F(1, 8)], [1, F(1, 2)]])
    s = decompose(a)
    assert len(s.eigenvalues) == 2
    assert all(l.degree == 2 for l in s.eigenvalues)
    assert s.eigenvalues[0] < s.eigenvalues[1]
    check_spectral_invariants(s)


def irrational_jordan_matrix():
    """Companion matrix of (8x^2 - 8x + 1)^2: a repeated irrational pair."""
    from ltireach.exactnum import IntPoly

    p = IntPoly((1, -8, 8)) * IntPoly((1, -8, 8))
    monic = [F(c, p.coeffs[-1]) for c in p.coeffs]
    d = 4
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = F(1)
    for i in range(d):
        rows[i][d - 1] = -monic[i]
    return mat(rows)


def test_spectral_irrational_jordan():
    d = 4
    s = decompose(irrational_jordan_matrix())
    assert len(s.eigenvalues) == 2
    assert s.multiplicities == [2, 2]
    # tau^T P_i (A - lam_i I) is nonzero for some unit tau at each eigenvalue
    seconds = [second_rows(s, tuple(F(int(k == i)) for k in range(d))) for i in range(d)]
    assert all(any(any(rows[i]) for rows in seconds) for i in range(2))
    check_spectral_invariants(s)


def types(values):
    return [type(x) for x in values]


def assert_same_decomposition(got, want):
    """Equal eigenvalues, betas, multiplicities and projector values, each
    value of the same type (a rational value is a Fraction); a rational
    eigenvalue's beta and projector rows are ints over a positive scale in
    lowest terms."""
    assert got.matrix == want.matrix
    assert got.eigenvalues == want.eigenvalues and types(got.eigenvalues) == types(want.eigenvalues)
    assert got.betas == want.betas
    assert [type(b) is int for b in got.betas] == [type(lam) is F for lam in got.eigenvalues]
    assert got.multiplicities == want.multiplicities
    assert got.transient == want.transient
    got_p, want_p = projector_values(got), projector_values(want)
    assert got_p == want_p
    assert [types(x for r in p for x in r) for p in got_p] == [types(x for r in p for x in r) for p in want_p]
    for beta, (rows, scale) in zip(got.betas, got.projectors):
        entries = [x for r in rows for x in r]
        if type(beta) is int:
            assert all(type(x) is int for x in entries) and scale > 0 and gcd(scale, *entries) == 1
        else:
            assert scale == 1


def assert_same_chains(got, want, nilpotent, taus):
    """bilinear_rows(got, tau), stepped by A - lam_i I, equals entry for
    entry and type for type the rows tau^T P_i N^j lam_i^-j that the oracle
    steps by its nilpotent part N, for each tau."""
    for tau in taus:
        rows, oracle = bilinear_row_values(got, tau), all_bilinear_rows(want, nilpotent, tau)
        assert rows == oracle
        assert [[types(r) for r in rs] for rs in rows] == [[types(r) for r in rs] for rs in oracle]


def test_spectral_decompose_matches_the_fraction_oracle():
    """The integer decomposition of a rational spectrum, and the Hermite
    interpolation on the integer powers of D·A of an irrational one, equal
    the Fraction/RealAlg decomposition: on seeded conjugates of triangular
    matrices with d <= 6 and distinct, repeated and defective rational
    eigenvalues, on fixed Jordan blocks and the d = 20 scaled identity,
    and on quadratic, irrational Jordan and mixed spectra.  On each, the
    Jordan chains that bilinear_rows steps by A - lam_i I equal those
    stepped by the oracle's Newton nilpotent part, for a rational
    direction, its negation and a direction in Q(sqrt 2)."""
    sqrt2 = sturm_isolate_real_roots(int_poly(-2, 0, 1))[-1]
    tau_rng = random.Random(2719)  # its own stream, so the matrices stay those of rng

    def directions(d):
        tau = tuple(F(tau_rng.randint(-4, 4), tau_rng.randint(1, 3)) for _ in range(d))
        return [tau, tuple(-x for x in tau),
                tuple(F(tau_rng.randint(-3, 3), 2) + tau_rng.randint(-2, 2) * sqrt2 for _ in range(d))]

    rng = random.Random(2718)
    kinds = {"distinct": 0, "repeated": 0, "defective": 0}
    for _ in range(150):
        d = rng.randint(1, 6)
        lams = sorted(F(rng.randint(1, 9), rng.choice((2, 3, 5, 10))) for _ in range(d))
        lams = sorted(min(x, F(9, 10)) for x in lams)
        rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
        for i in range(d - 1):
            if lams[i] == lams[i + 1] and rng.random() < 0.6:
                rows[i][i + 1] = F(rng.choice((1, 2, F(1, 3))))
        p = RatMatrix.identity(d)
        for _ in range(4 if d > 1 else 0):
            i, j = rng.sample(range(d), 2)
            e = RatMatrix.identity(d).to_rows()
            e[i][j] = F(rng.randint(-2, 2))
            p = p @ mat(e)
        a = p @ mat(rows) @ p.inverse()
        s = decompose(a)
        want, nilpotent = fraction_spectral_decompose(a)
        assert_same_decomposition(s, want)
        assert_same_chains(s, want, nilpotent, directions(d))
        if any(x != 0 for x in nilpotent.entries):
            kinds["defective"] += 1
        elif len(s.eigenvalues) < d:
            kinds["repeated"] += 1
        else:
            kinds["distinct"] += 1
    assert min(kinds.values()) >= 20, kinds
    jordan2 = mat([[F(1, 2), 1], [0, F(1, 2)]])
    jordan3 = mat([[F(1, 3), 1, 0], [0, F(1, 3), 1], [0, 0, F(1, 3)]])
    quad = mat([[F(1, 2), F(1, 8)], [1, F(1, 2)]])
    fixed = [jordan2, RatMatrix.block_diag([jordan2, jordan3, RatMatrix.diag(F(1, 2), F(1, 7))]),
             RatMatrix.diag(*[F(1, 2)] * 20), quad, irrational_jordan_matrix(),
             RatMatrix.block_diag([quad, quad, quad]), RatMatrix.block_diag([quad, jordan2])]
    for a in fixed:
        s = decompose(a)
        want, nilpotent = fraction_spectral_decompose(a)
        assert_same_decomposition(s, want)
        assert_same_chains(s, want, nilpotent, directions(a.rows))


def singular_matrix(rng, d):
    """A conjugate of an upper-triangular matrix whose diagonal holds 0 at
    least once and otherwise 0 or k/5, with a random strictly upper part,
    by a random unimodular integer matrix."""
    diag = [F(rng.choice((0, 0, 1, 2, 3, 4)), 5) for _ in range(d)]
    diag[rng.randrange(d)] = F(0)
    rows = [[diag[i] if i == j else (F(rng.randint(-1, 1), rng.choice((1, 2))) if j > i else F(0))
             for j in range(d)] for i in range(d)]
    p = RatMatrix.identity(d)
    for _ in range(3 if d > 1 else 0):
        i, j = rng.sample(range(d), 2)
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-2, 2))
        p = p @ mat(e)
    return p @ mat(rows) @ p.inverse()


# a size-2 nilpotent Jordan block coupled to the stable eigenvalue 1/2
NILPOTENT_COUPLED = mat([[0, 1, 1], [0, 0, 1], [0, 0, F(1, 2)]])


def test_spectral_decompose_of_singular_matrices_matches_the_fraction_oracle():
    """A zero eigenvalue of multiplicity k gives no projector and the
    transient k, in the library and in the Fraction oracle alike: on seeded
    singular triangular conjugates with d <= 4, on the coupled nilpotent
    block and on nilpotent matrices, whose decomposition is empty."""
    rng = random.Random(3141)
    transients = Counter()
    cases = [singular_matrix(rng, rng.randint(1, 4)) for _ in range(40)]
    cases += [NILPOTENT_COUPLED, mat([[0, 1], [0, 0]]), RatMatrix.zeros(3, 3)]
    for a in cases:
        s = decompose(a)
        want, nilpotent = fraction_spectral_decompose(a)
        assert_same_decomposition(s, want)
        assert_same_chains(s, want, nilpotent, [tuple(F(rng.randint(-3, 3)) for _ in range(a.rows))])
        assert s.transient == a.rows - nonzero_eigen_poly(charpoly_primitive(a)).degree >= 1
        check_spectral_invariants(s)
        transients[s.transient] += 1
    assert transients[1] >= 10 and transients[2] >= 5
    s = decompose(NILPOTENT_COUPLED)
    assert ([rat(l) for l in s.eigenvalues], s.multiplicities, s.transient) == ([F(1, 2)], [1], 2)
    nilpotent = decompose(mat([[0, 1], [0, 0]]))
    assert (nilpotent.eigenvalues, nilpotent.projectors, nilpotent.transient) == ([], [], 2)


def test_expansion_holds_from_the_transient_on():
    """<A^n u, tau> equals the expansion over the nonzero eigenvalues at
    every n >= transient, and on the coupled nilpotent block it differs at
    n = 1 < transient = 2, so a threshold below the transient is unsound:
    e2 lies in the generalized 0-eigenspace, so its expansion is 0, yet
    A e2 = e1."""
    rng = random.Random(2729)
    for a in [singular_matrix(rng, rng.randint(2, 4)) for _ in range(20)] + [NILPOTENT_COUPLED]:
        s = decompose(a)
        d = a.rows
        u = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        tau = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        coeffs = expansion_values(s, tau, u)
        for n in range(s.transient, s.transient + 8):
            assert inner_product_at(s, coeffs, n) == sum(x * y for x, y in zip(a.power(n).matvec(u), tau))
    s = decompose(NILPOTENT_COUPLED)
    coeffs = expansion_values(s, vec(1, 0, 0), vec(0, 1, 0))
    direct = [NILPOTENT_COUPLED.power(n).matvec(vec(0, 1, 0))[0] for n in range(6)]
    assert direct == [0, 1, 0, 0, 0, 0]
    assert [inner_product_at(s, coeffs, n) for n in range(6)] == [0] * 6


# ---------------------------------------------------------------------------
# bilinear expansion
# ---------------------------------------------------------------------------


def test_expand_diag_example():
    s = decompose(QUAD)
    coeffs = expansion_values(s, vec(1, 0), vec(2, 1))
    # one coefficient per simple eigenvalue; only lam = 1/3's is nonzero
    assert [len(row) for row in coeffs] == s.multiplicities == [1, 1]
    assert rat(coeffs[0][0]) == 2
    assert rat(coeffs[1][0]) == 0
    # oracle: <A^n u, tau> = 2 (1/3)^n directly for n = 0..10
    for n in range(11):
        direct = QUAD.power(n).matvec(vec(2, 1))[0]
        assert direct == 2 * F(1, 3) ** n
        assert rat(inner_product_at(s, coeffs, n)) == direct


def test_expand_zero_vector():
    s = decompose(QUAD)
    coeffs = expansion_values(s, vec(1, 1), vec(0, 0))
    assert all(rat(c) == 0 for row in coeffs for c in row)


def test_expand_jordan_example():
    a = mat([[F(1, 2), 1], [0, F(1, 2)]])
    s = decompose(a)
    coeffs = expansion_values(s, vec(1, 0), vec(0, 1))
    assert rat(coeffs[0][1]) == 2
    for n in range(11):
        direct = a.power(n).matvec(vec(0, 1))[0]
        assert direct == (n * F(1, 2) ** (n - 1) if n >= 1 else 0)
        assert rat(inner_product_at(s, coeffs, n)) == direct


def test_bilinear_reconstruction_randomized():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 3)
        a = random_positive_spectrum_matrix(rng, d)
        s = decompose(a)
        u = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        tau = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        coeffs = expansion_values(s, tau, u)
        for n in (0, 1, 2, 5, 11, 30):
            direct = sum(x * y for x, y in zip(a.power(n).matvec(u), tau))
            got = inner_product_at(s, coeffs, n)
            assert sign(got - direct) == 0


def jordan_system(rng, d):
    """Conjugate of a matrix with eigenvalues from {1/5, 1/2}, mostly in
    Jordan chains, by a random unimodular integer matrix."""
    lams = sorted(rng.choice((F(1, 5), F(1, 2))) for _ in range(d))
    rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
    for i in range(d - 1):
        if lams[i] == lams[i + 1] and rng.random() < 0.7:
            rows[i][i + 1] = F(1)
    p = RatMatrix.identity(d)
    for _ in range(3):
        i, j = rng.sample(range(d), 2)
        e = RatMatrix.identity(d).to_rows()
        e[i][j] = F(rng.randint(-2, 2))
        p = p @ mat(e)
    return p @ mat(rows) @ p.inverse()


def check_expansion_against_all_j(a, u, tau):
    """expand_inner_product gives mu_i coefficients per eigenvalue, equal to
    tau^T P_i N^j lam_i^-j u for N the oracle's nilpotent part of A; the
    same product is 0 for mu_i <= j < d."""
    s = decompose(a)
    nilpotent = fraction_spectral_decompose(a)[1]
    coeffs = expansion_values(s, tau, u)
    assert [len(row) for row in coeffs] == s.multiplicities
    for i, mu in enumerate(s.multiplicities):
        for j in range(s.dim):
            want = bilinear_coeff(s, nilpotent, i, j, u, tau)
            if j < mu:
                assert coeffs[i][j] == want
            else:
                assert sign(want) == 0


def test_expansion_matches_all_j_oracle_on_jordan_systems():
    rng = random.Random(47)
    for _ in range(12):
        d = rng.randint(2, 4)
        a = jordan_system(rng, d)
        u = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        tau = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        check_expansion_against_all_j(a, u, tau)
    check_expansion_against_all_j(irrational_jordan_matrix(), vec(1, -2, 0, 3), vec(0, 1, 1, -1))


def test_bilinear_rows_stop_at_the_first_zero_row():
    """bilinear_rows, and expand_inner_product over them, equal entry for
    entry and type for type the construction that multiplies every row by
    the oracle's nilpotent part N and every row by u: on A = I/2 at
    d = 20, where every row after the first is zero; on seeded conjugated
    Jordan chains, against each row of the conjugating matrix's inverse
    (whose rows reach zero before mu_i) and a dense direction; and on an
    irrational pair repeated three times without a chain."""
    def check(a, taus, u):
        s = decompose(a)
        nilpotent = fraction_spectral_decompose(a)[1]
        early = 0
        for tau in taus:
            got, want = bilinear_row_values(s, tau), all_bilinear_rows(s, nilpotent, tau)
            assert got == want and [[types(r) for r in rows] for rows in got] == \
                [[types(r) for r in rows] for rows in want]
            coeffs = expansion_values(s, tau, u)
            products = [[alg_dot(r, u) for r in rows] for rows in want]
            assert coeffs == products and [types(c) for c in coeffs] == [types(c) for c in products]
            # the rows that follow a zero row, which bilinear_rows does not multiply out
            early += sum(not any(rows[j - 1]) for rows in got for j in range(1, len(rows)))
        return early

    half = RatMatrix.diag(*[F(1, 2)] * 20)
    assert check(half, [vec(*[F(k - 7, k % 3 + 1) for k in range(20)])], vec(*range(20))) == 18
    rng = random.Random(59)
    early = 0
    for _ in range(15):
        d = rng.randint(2, 5)
        lams = sorted(rng.choice((F(1, 5), F(1, 3), F(1, 2))) for _ in range(d))
        rows = [[lams[i] if i == j else F(0) for j in range(d)] for i in range(d)]
        for i in range(d - 1):
            if lams[i] == lams[i + 1] and rng.random() < 0.7:
                rows[i][i + 1] = F(1)
        p = RatMatrix.identity(d)
        for _ in range(3):
            i, j = rng.sample(range(d), 2)
            e = RatMatrix.identity(d).to_rows()
            e[i][j] = F(rng.randint(-2, 2))
            p = p @ mat(e)
        u = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        taus = [*p.inverse().to_rows(), [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)]]
        early += check(p @ mat(rows) @ p.inverse(), [vec(*tau) for tau in taus], u)
    assert early > 20
    quad = mat([[F(1, 2), F(1, 8)], [1, F(1, 2)]])
    triple = RatMatrix.block_diag([quad, quad, quad])
    assert decompose(triple).multiplicities == [3, 3]
    assert check(triple, [vec(1, -2, 0, 3, F(1, 2), 5)], vec(2, 0, -1, 1, 1, F(1, 3))) == 2


def test_spectral_decompose_d20_scaled_identity_is_fast():
    a = RatMatrix.diag(*[F(1, 2)] * 20)
    start = time.perf_counter()
    s = decompose(a)
    assert time.perf_counter() - start < 5
    assert s.multiplicities == [20]
    assert rat_rows(projector_values(s)[0]) == RatMatrix.identity(20).to_rows()


def test_alg_kernel_basis():
    two_roots = sturm_isolate_real_roots(int_poly(-2, 0, 1))
    r2 = two_roots[-1]
    basis = alg_kernel_basis([[r2, F(-1)]])
    assert len(basis) == 1
    v = basis[0]
    # kernel vector satisfies sqrt2 * v0 - v1 == 0
    assert sign(r2 * v[0] - v[1]) == 0
    # rational rows: the same vectors as RatMatrix.kernel_basis, entries
    # Fractions, each one in the kernel
    rng = random.Random(8)
    for rows, cols in [([], 3), ([[0, 0, 0]], 3), ([[1, 2, 3], [2, 4, 6]], 3)] + [
            ([[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(c)] for _ in range(r)], c)
            for r, c in [(2, 4), (3, 3), (4, 2), (3, 5)] for _ in range(3)]:
        m = RatMatrix(len(rows), cols, tuple(F(x) for row in rows for x in row))
        got = alg_kernel_basis(m.to_rows(), cols)
        assert [tuple(v) for v in got] == m.kernel_basis()
        assert len(got) == cols - m.rank()
        for v in got:
            assert m.matvec(tuple(rat(x) for x in v)) == (0,) * len(rows)
