import random
import time
from fractions import Fraction
import pytest

from ltireach.exactnum import RealAlg, alg_compare, alg_sign, sturm_isolate_real_roots
from ltireach.linalg import (
    AlgMatrix,
    RatMatrix,
    SpectralError,
    alg_kernel_basis,
    charpoly,
    charpoly_primitive,
    expand_inner_product,
    fitting_split,
    krylov_invariant_span,
    real_spectrum_power,
    real_spectrum_power_bound,
    schur_stable,
    spectral_decompose,
    vec,
)
from oracles import inner_product_at

F = Fraction


def mat(rows):
    return RatMatrix.from_rows(rows)


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


def test_kernel_and_column_space():
    a = mat([[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    kb = a.kernel_basis()
    assert len(kb) == 1
    assert a.matvec(kb[0]) == (0, 0, 0)
    assert len(a.column_space_basis()) == 2


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------


def test_charpoly_diag_thirds():
    # (x - 1/3)(x - 2/3) = x^2 - x + 2/9
    assert charpoly(QUAD) == (F(2, 9), F(-1), F(1))


def test_charpoly_identity3():
    ident = RatMatrix.identity(3)
    assert charpoly(ident) == (F(-1), F(3), F(-3), F(1))


def test_charpoly_rotation():
    a = mat([[0, 1], [-1, 0]])
    assert charpoly(a) == (F(1), F(0), F(1))


def test_charpoly_matches_bareiss_det_randomized():
    rng = random.Random(9)
    for _ in range(25):
        d = rng.randint(1, 4)
        a = mat([[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)] for _ in range(d)])
        coeffs = charpoly(a)
        x = F(rng.randint(-7, 7), rng.randint(1, 5))
        lhs = sum(c * x ** i for i, c in enumerate(coeffs))
        rhs = (RatMatrix.identity(d).scale(x) - a).det()
        assert lhs == rhs


# ---------------------------------------------------------------------------
# schur stability
# ---------------------------------------------------------------------------


def test_schur_examples():
    assert schur_stable(QUAD) is True
    assert schur_stable(RatMatrix.diag(2)) is False
    assert schur_stable(RatMatrix.identity(2)) is False
    assert schur_stable(ROT90_HALF) is True
    assert schur_stable(mat([[0, 1], [-1, 0]])) is False  # modulus exactly 1
    assert schur_stable(RatMatrix.diag(F(-9, 10), F(1, 2))) is True
    assert schur_stable(RatMatrix.diag(F(-1))) is False


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
        assert schur_stable(a) is expected
        # cross-check against isolated roots of the characteristic polynomial
        roots = sturm_isolate_real_roots(charpoly_primitive(a))
        assert all(abs(r.to_rational()) < 1 for r in roots) == expected


# ---------------------------------------------------------------------------
# real spectrum power
# ---------------------------------------------------------------------------


def test_power_bound_d2():
    assert real_spectrum_power_bound(2) == 12


def test_real_spectrum_power_examples():
    assert real_spectrum_power(QUAD) == 1
    # (1/2)*rot(pi/2): A^4 = (1/16) I, verified directly
    m = real_spectrum_power(ROT90_HALF)
    assert m == 4
    assert ROT90_HALF.power(4) == RatMatrix.identity(2).scale(F(1, 16))
    for k in range(1, 4):
        p = charpoly_primitive(ROT90_HALF.power(k))
        roots = sturm_isolate_real_roots(p)
        assert len(roots) < p.degree or any(r.sign() < 0 for r in roots)
    # re-run the accept test on A^M independently of the search loop
    from ltireach.linalg import _real_nonneg_spectrum

    assert _real_nonneg_spectrum(ROT90_HALF.power(m))


def test_real_spectrum_power_absent_for_irrational_angle():
    # oracle: direct check of all M up to the d=2 bound
    assert real_spectrum_power(ROT_IRRATIONAL) is None
    for m in range(1, 13):
        p = charpoly_primitive(ROT_IRRATIONAL.power(m)).squarefree_part()
        roots = sturm_isolate_real_roots(p)
        assert len(roots) < p.degree  # complex pair never becomes real


def test_real_spectrum_power_negative_eigenvalue():
    a = RatMatrix.diag(F(-1, 2), F(1, 3))
    assert real_spectrum_power(a) == 2


# ---------------------------------------------------------------------------
# fitting split and krylov span
# ---------------------------------------------------------------------------


def test_fitting_split_examples():
    v0, v1 = fitting_split(RatMatrix.diag(0, F(1, 2)))
    assert v0 == [(F(1), F(0))]
    assert len(v1) == 1 and v1[0][0] == 0 and v1[0][1] != 0

    v0, v1 = fitting_split(QUAD)
    assert v0 == [] and len(v1) == 2

    v0, v1 = fitting_split(mat([[0, 1], [0, 0]]))
    assert len(v0) == 2 and v1 == []


def test_fitting_invariance():
    rng = random.Random(4)
    for _ in range(20):
        d = rng.randint(1, 4)
        a = mat([[F(rng.randint(-3, 3), rng.randint(1, 2)) for _ in range(d)] for _ in range(d)])
        v0, v1 = fitting_split(a)
        assert len(v0) + len(v1) == d
        ad = a.power(d)
        for b in v0:
            assert ad.matvec(b) == tuple(F(0) for _ in range(d))
        if v1:
            m = RatMatrix.from_rows(v1).transpose()
            # A maps V1 into V1: each A b is a combination of the basis
            for b in v1:
                assert m.solve(a.matvec(b)) is not None


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


def check_spectral_invariants(s):
    d = s.dim
    k = len(s.eigenvalues)
    total = AlgMatrix.zeros(d, d)
    for i in range(k):
        total = total + s.projectors[i]
        for j in range(k):
            prod = s.projectors[i] @ s.projectors[j]
            if i == j:
                assert (prod - s.projectors[i]).is_zero()
            else:
                assert prod.is_zero()
    assert (total - AlgMatrix.identity(d)).is_zero()
    # semisimple + nilpotent recombination
    smat = AlgMatrix.zeros(d, d)
    for lam, proj in zip(s.eigenvalues, s.projectors):
        smat = smat + proj.scale(lam)
    recomposed = smat + AlgMatrix.from_rat(s.nilpotent)
    assert (recomposed - AlgMatrix.from_rat(s.matrix)).is_zero()
    assert s.nilpotent.power(d) == RatMatrix.zeros(d, d)
    # S and N commute
    srat = smat.to_rat()
    assert srat is not None or d == 0
    if srat is not None:
        assert srat @ s.nilpotent == s.nilpotent @ srat


def test_spectral_diag_thirds():
    s = spectral_decompose(QUAD)
    assert [l.to_rational() for l in s.eigenvalues] == [F(1, 3), F(2, 3)]
    assert s.projectors[0].to_rat() == RatMatrix.diag(1, 0)
    assert s.projectors[1].to_rat() == RatMatrix.diag(0, 1)
    assert s.nilpotent == RatMatrix.zeros(2, 2)
    check_spectral_invariants(s)


def test_spectral_scaled_identity():
    s = spectral_decompose(RatMatrix.identity(2).scale(F(1, 2)))
    assert [l.to_rational() for l in s.eigenvalues] == [F(1, 2)]
    assert s.projectors[0].to_rat() == RatMatrix.identity(2)
    assert s.nilpotent == RatMatrix.zeros(2, 2)


def test_spectral_jordan_block():
    a = mat([[F(1, 2), 1], [0, F(1, 2)]])
    s = spectral_decompose(a)
    assert [l.to_rational() for l in s.eigenvalues] == [F(1, 2)]
    assert s.projectors[0].to_rat() == RatMatrix.identity(2)
    assert s.nilpotent == mat([[0, 1], [0, 0]])
    check_spectral_invariants(s)


def test_spectral_rejects_bad_spectra():
    with pytest.raises(SpectralError):
        spectral_decompose(mat([[0, 1], [-1, 0]]))  # complex eigenvalues
    with pytest.raises(SpectralError):
        spectral_decompose(RatMatrix.diag(F(-1, 2), F(1, 3)))  # negative
    with pytest.raises(SpectralError):
        spectral_decompose(RatMatrix.diag(0, F(1, 3)))  # zero


def test_spectral_irrational_eigenvalues():
    # charpoly x^2 - x + 1/8: roots (2 +- sqrt 2)/4, both in (0,1)
    a = mat([[F(1, 2), F(1, 8)], [1, F(1, 2)]])
    s = spectral_decompose(a)
    assert len(s.eigenvalues) == 2
    assert all(l.degree == 2 for l in s.eigenvalues)
    assert alg_compare(s.eigenvalues[0], s.eigenvalues[1]) < 0
    check_spectral_invariants(s)


def test_spectral_irrational_jordan():
    # companion matrix of (8x^2 - 8x + 1)^2: repeated irrational pair
    from ltireach.exactnum import IntPoly

    p = IntPoly((1, -8, 8)) * IntPoly((1, -8, 8))
    monic = [F(c, p.coeffs[-1]) for c in p.coeffs]
    d = 4
    rows = [[F(0)] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = F(1)
    for i in range(d):
        rows[i][d - 1] = -monic[i]
    a = mat(rows)
    s = spectral_decompose(a)
    assert len(s.eigenvalues) == 2
    assert s.multiplicities == [2, 2]
    assert not (s.nilpotent == RatMatrix.zeros(d, d))
    check_spectral_invariants(s)


# ---------------------------------------------------------------------------
# bilinear expansion
# ---------------------------------------------------------------------------


def test_expand_diag_example():
    s = spectral_decompose(QUAD)
    coeffs = expand_inner_product(s, vec(2, 1), vec(1, 0))
    # only the (lam=1/3, j=0) coefficient is nonzero and equals 2
    assert coeffs[0][0].to_rational() == 2
    assert coeffs[0][1].sign() == 0
    assert coeffs[1][0].sign() == 0 and coeffs[1][1].sign() == 0
    # oracle: <A^n u, tau> = 2 (1/3)^n directly for n = 0..10
    for n in range(11):
        direct = QUAD.power(n).matvec(vec(2, 1))[0]
        assert direct == 2 * F(1, 3) ** n
        assert inner_product_at(s, coeffs, n).to_rational() == direct


def test_expand_zero_vector():
    s = spectral_decompose(QUAD)
    coeffs = expand_inner_product(s, vec(0, 0), vec(1, 1))
    assert all(c.sign() == 0 for row in coeffs for c in row)


def test_expand_jordan_example():
    a = mat([[F(1, 2), 1], [0, F(1, 2)]])
    s = spectral_decompose(a)
    coeffs = expand_inner_product(s, vec(0, 1), vec(1, 0))
    assert coeffs[0][1].to_rational() == 2
    for n in range(11):
        direct = a.power(n).matvec(vec(0, 1))[0]
        assert direct == (n * F(1, 2) ** (n - 1) if n >= 1 else 0)
        assert inner_product_at(s, coeffs, n).to_rational() == direct


def test_bilinear_reconstruction_randomized():
    rng = random.Random(31)
    for _ in range(60):
        d = rng.randint(1, 3)
        a = random_positive_spectrum_matrix(rng, d)
        s = spectral_decompose(a)
        u = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        tau = vec(*[F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(d)])
        coeffs = expand_inner_product(s, u, tau)
        for n in (0, 1, 2, 5, 11, 30):
            direct = sum(x * y for x, y in zip(a.power(n).matvec(u), tau))
            got = inner_product_at(s, coeffs, n)
            assert alg_sign(got - RealAlg.from_rational(direct)) == 0


def test_alg_kernel_basis():
    two_roots = sturm_isolate_real_roots(__import__("ltireach.exactnum", fromlist=["int_poly"]).int_poly(-2, 0, 1))
    r2 = two_roots[-1]
    m = AlgMatrix(1, 2, [r2, RealAlg.from_rational(-1)])
    basis = alg_kernel_basis(m)
    assert len(basis) == 1
    v = basis[0]
    # kernel vector satisfies sqrt2 * v0 - v1 == 0
    assert (r2 * v[0] - v[1]).sign() == 0
