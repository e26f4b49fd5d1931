"""End-to-end case where only an irrational separator exists.

For A = [[1/2, 1/8], [1, 1/2]] (eigenvalues (2 +- sqrt2)/4) and the
hexagonal control set conv{+-(1,0), +-(0,1), +-(1,-1)}, the point
(I - A)^{-1} (1,-1) = (3, 4) sits on the boundary of the reachable
closure and its normal cone degenerates to the single ray spanned by the
small-eigenvalue left eigenvector (4, -sqrt2): the (1,-1) vertex
maximizes that direction while other vertices straddle it in the
dominant direction, so every rational direction is beaten at some step.
A certificate therefore must carry algebraic entries.
"""

import json
import random
from collections import Counter
from fractions import Fraction

from ltireach import driver, instances
from ltireach.certify import VertexImages, recompute_sup_from_certificate, sup_in_direction, verify_separator
from ltireach.exactnum import IntPoly, RealAlg
from ltireach.forward import reach_within
from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.linalg import RatMatrix, vec
from ltireach.preprocess import LtiSystem, check_simple
from oracles import decompose, prefix_sums, sign

F = Fraction

A = RatMatrix.from_rows([[F(1, 2), F(1, 8)], [1, F(1, 2)]])
HEX_U = GenPolyhedron.polytope(
    [vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1), vec(1, -1), vec(-1, 1)])
S = decompose(A)
TARGET = (RatMatrix.identity(2) - A).inverse().matvec(vec(1, -1))  # (3, 4)


def hex_system(target_point):
    return LtiSystem(A, ControlSet.single(HEX_U), vec(0, 0),
                     GenPolyhedron.point(target_point))


def test_target_is_the_boundary_accumulation_point():
    assert TARGET == (F(3), F(4))
    assert check_simple(hex_system(TARGET)).failing_conditions() == []
    # forward search never reaches it (the reachable set is open)
    assert reach_within(hex_system(TARGET), 6) is None


def test_rational_directions_never_separate():
    rng = random.Random(12)
    q = GenPolyhedron.point(TARGET)
    probes = [(1, 0), (0, -1), (1, -1), (2, -1), (3, -1), (4, -1), (4, -2),
              (7, -2), (10, -3), (14, -5), (17, -6), (24, -8), (41, -14)]
    probes += [(rng.randint(1, 40), -rng.randint(1, 15)) for _ in range(12)]
    for tau in probes:
        cand = tuple(F(t) for t in tau)
        assert verify_separator(S, HEX_U, q, prefix_sums(S, HEX_U, cand)) is None


def test_eigenvector_direction_separates_exactly():
    # left eigenvector of the smaller eigenvalue, normalized (2 sqrt2, -1)
    sqrt2 = RealAlg.from_root(IntPoly((-2, 0, 1)), F(1), F(3, 2))
    tau = (2 * sqrt2, F(-1))
    cert = verify_separator(S, HEX_U, GenPolyhedron.point(TARGET), prefix_sums(S, HEX_U, tau))
    assert cert is not None
    # sup = <(3,4), tau> = 6 sqrt2 - 4, minimal polynomial x^2 + 8x - 56
    assert cert.sup_value.minpoly == IntPoly((-56, 8, 1))
    expected = 6 * sqrt2 - 4
    assert sign(cert.sup_value - expected) == 0
    assert sign(cert.min_over_q - expected) == 0


def test_decide_finds_algebraic_certificate_and_audits():
    sys_ = hex_system(TARGET)
    v = driver.decide(sys_, driver.Budgets(max_steps=5, max_candidates=300,
                                           extremal_budget=3))
    assert v.kind == "unreachable"
    assert any(isinstance(x, RealAlg) for x in v.certificate.tau)
    payload = instances.verdict_to_json(v)
    assert driver.audit(sys_, payload) is True
    # the same point nudged inside is reachable, never certified
    inside = driver.decide(hex_system(vec(F(5, 2), F(7, 2))),
                           driver.Budgets(max_steps=6, max_candidates=64))
    assert inside.kind == "reachable"


def test_quadratic_spectrum_makes_no_composed_polynomials(monkeypatch):
    """The spectrum, the left-eigenvector separator and every sum and
    product the decision and its audit form lie in Q(sqrt2), so exact
    arithmetic stays on coordinates: no composed sum or product, and no
    polynomial rewritten for a shifted or scaled root."""
    from ltireach import exactnum

    calls = Counter()

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(exactnum, "_resultant_combine")
    count(exactnum.IntPoly, "with_root_shifted")
    count(exactnum.IntPoly, "with_root_scaled")
    sys_ = hex_system(TARGET)
    v = driver.decide(sys_, driver.Budgets(max_steps=4, max_candidates=48, max_degree=2,
                                           max_height=2, extremal_budget=1))
    assert v.kind == "unreachable"
    assert any(isinstance(x, RealAlg) for x in v.certificate.tau)
    payload = json.loads(instances.dump_json(instances.verdict_to_json(v)))
    assert driver.audit(sys_, payload) is True
    assert calls == Counter()


# the companion matrix of 8x^3 - 6x + 1 (three cubic eigenvalues) with the
# octahedron as controls and the target (4, 0, 0)
CUBIC = LtiSystem(RatMatrix.from_rows([[0, 0, F(-1, 8)], [1, 0, F(3, 4)], [0, 1, 0]]),
                  ControlSet.single(GenPolyhedron.polytope([vec(1, 0, 0), vec(-1, 0, 0), vec(0, 1, 0),
                                                            vec(0, -1, 0), vec(0, 0, 1), vec(0, 0, -1)])),
                  vec(0, 0, 0), GenPolyhedron.point(vec(4, 0, 0)))


def test_one_field_thresholds_build_no_enclosure(monkeypatch):
    """Every threshold predicate whose terms are rational or lie in Q(sqrt2)
    is decided by exact arithmetic at once: deciding the boundary target
    under the benchmark's algebraic_2d budgets builds no rational enclosure.
    The cubic instance's predicates still try enclosures first."""
    from ltireach import certify

    calls = Counter()
    original = certify._sum_bounds

    def counted(terms, n):
        calls["sum_bounds"] += 1
        return original(terms, n)

    monkeypatch.setattr(certify, "_sum_bounds", counted)
    v = driver.decide(hex_system(TARGET), driver.Budgets(max_steps=4, max_candidates=48, max_degree=2,
                                                         max_height=2, extremal_budget=1))
    assert v.kind == "unreachable"
    assert calls["sum_bounds"] == 0
    assert driver.decide(CUBIC, driver.Budgets(max_steps=6)).kind == "unreachable"
    assert calls["sum_bounds"] > 0


def test_supremum_dominates_partial_sums_in_eigen_direction():
    sqrt2 = RealAlg.from_root(IntPoly((-2, 0, 1)), F(1), F(3, 2))
    tau = (2 * sqrt2, F(-1))
    sup = sup_in_direction(S, HEX_U, tau)
    from ltireach.geometry import linear_image, minkowski_sum

    partial = HEX_U
    power = RatMatrix.identity(2)
    prev = None
    for n in range(8):
        if n:
            power = power @ A
            partial = minkowski_sum(partial, linear_image(power, HEX_U))
        best = None
        for vtx in partial.vertices:
            val = tau[0] * vtx[0] + tau[1] * vtx[1]
            if best is None or sign(val - best) > 0:
                best = val
        assert sign(sup - best) > 0  # strictly below the supremum
        if prev is not None:
            assert sign(best - prev) >= 0  # nondecreasing
        prev = best


def test_supremum_routes_agree_on_quad_and_hex():
    """The search path (sup_in_direction), the decide path (verify_separator)
    and the audit path (the stored maximizer and threshold) give one value."""
    quad_a = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
    quad_u = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])
    sqrt2 = RealAlg.from_root(IntPoly((-2, 0, 1)), F(1), F(3, 2))
    cases = [(decompose(quad_a), quad_u, vec(10, 10), tau)
             for tau in ((1, 0), (0, 1), (1, 1), (1, 2))]
    cases += [(S, HEX_U, vec(6, 8), tau) for tau in ((2 * sqrt2, -1), (1, 1), (1, 0))]
    thresholds = set()
    for s, u, point, tau in cases:
        tau = tuple(t if isinstance(t, RealAlg) else F(t) for t in tau)
        cert = verify_separator(s, u, GenPolyhedron.point(point), prefix_sums(s, u, tau))
        assert cert is not None
        thresholds.add(cert.threshold)
        assert sign(sup_in_direction(s, u, tau) - cert.sup_value) == 0
        images = VertexImages(s.matrix, u.vertices)
        assert sign(recompute_sup_from_certificate(s, cert, images) - cert.sup_value) == 0
    assert thresholds == {0, 1, 2}  # the loop below the threshold is exercised
