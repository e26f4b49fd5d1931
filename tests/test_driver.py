import contextlib
import dataclasses
import functools
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltireach import cli, driver, exactnum, forward, instances, render
from ltireach.certify import enumerate_algebraic_vectors, extremal_candidates, sup_in_direction, verify_separator
from ltireach.exactnum import IntPoly, RealAlg, interval
from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.linalg import RatMatrix, vec, vec_add, zero_vec
from ltireach.preprocess import LtiSystem, check_simple, to_simple_form
from oracles import decompose, prefix_sums, rat

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])


def quad_system(target):
    return LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(0, 0), target)


def small_budgets(**kw):
    base = dict(max_steps=6, max_candidates=64, max_degree=2, max_height=2,
                extremal_budget=3)
    base.update(kw)
    return driver.Budgets(**base)


# ---------------------------------------------------------------------------
# decide
# ---------------------------------------------------------------------------


def test_decide_reachable_point():
    v = driver.decide(quad_system(GenPolyhedron.point(vec(1, 1))), small_budgets())
    assert v.kind == "reachable"
    assert v.witness is not None and v.witness.horizon == 1


def test_decide_unreachable_square():
    target = GenPolyhedron.polytope([vec(F(7, 2), F(-1, 2)), vec(F(9, 2), F(-1, 2)),
                                     vec(F(9, 2), F(1, 2)), vec(F(7, 2), F(1, 2))])
    v = driver.decide(quad_system(target), small_budgets())
    assert v.kind == "unreachable"
    assert rat(v.certificate.sup_value) == 3
    assert rat(v.certificate.min_over_q) == F(7, 2)


def test_decide_boundary_point_unreachable():
    v = driver.decide(quad_system(GenPolyhedron.point(vec(0, 3))), small_budgets())
    assert v.kind == "unreachable"
    assert rat(v.certificate.sup_value) == 3
    assert rat(v.certificate.min_over_q) == 3


def test_decide_non_simple_degrades_with_warning():
    rot = RatMatrix.from_rows([[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]])
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys_ = LtiSystem(rot, ControlSet.single(seg), vec(0, 0), GenPolyhedron.point(vec(2, 2)))
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "unknown"
    assert any("real spectrum" in w for w in v.warnings)
    assert any("forward search only" in w for w in v.warnings)


def test_decide_raises_on_non_replaying_witness(monkeypatch):
    monkeypatch.setattr(driver, "verify_witness", lambda sys_, witness: False)
    with pytest.raises(driver.SoundnessError):
        driver.decide(quad_system(GenPolyhedron.point(vec(1, 1))), small_budgets())


def test_decide_empty_reduced_target():
    # the controls and their orbits stay on the x axis, and the target lies
    # off it, so the span step leaves no target
    a = RatMatrix.diag(F(1, 2), 0)
    u = GenPolyhedron.polytope([vec(-1, 0), vec(1, 0)])
    sys_ = LtiSystem(a, ControlSet.single(u), vec(0, 0), GenPolyhedron.point(vec(0, 5)))
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "unreachable"
    assert v.certificate.min_over_q is None
    # the degenerate certificate must survive the from-scratch audit too
    payload = instances.verdict_to_json(v)
    assert driver.audit(sys_, payload) is True
    # but not against a system whose reduced target is nonempty
    near = LtiSystem(a, ControlSet.single(u), vec(0, 0), GenPolyhedron.point(vec(F(1, 2), 0)))
    payload["instance_sha256"] = instances.instance_sha256(near)
    if "certificate" in payload:
        assert driver.audit(near, payload) is False


def test_decide_markov_identity_unknown():
    from ltireach.gadgets import markov_to_lti

    g = markov_to_lti(RatMatrix.identity(2))
    v = driver.decide(g.system, small_budgets(max_steps=4))
    assert v.kind == "unknown"
    assert any("forward search only" in w for w in v.warnings)


def test_decide_single_worker_deterministic():
    target = GenPolyhedron.point(vec(0, 3))
    a = driver.decide(quad_system(target), small_budgets())
    b = driver.decide(quad_system(target), small_budgets())
    assert a.kind == b.kind == "unreachable"
    assert [interval(x) for x in a.certificate.tau] == [interval(x) for x in b.certificate.tau]
    assert a.certificate.threshold == b.certificate.threshold
    assert instances.verdict_to_json(a) == instances.verdict_to_json(b)


# Instance texts from the benchmark's seed-1 streams, with the budgets of
# their workloads, and the sha256 of each verdict JSON.  The digests were
# recorded before rationals stopped being degree-1 RealAlg values; a change
# of number representation must leave every artifact byte unchanged.  The
# unreachable ones were re-pinned when the reduced system lost its
# fit_applied key, the only bytes that moved, and the decided ones again
# when the artifact lost its repeated and unchecked keys (the certificate's
# bound, the nested kind and instance_sha256, and warnings on a decided
# verdict); the unknown one kept its bytes.
ALGEBRAIC_BUDGETS = dict(max_steps=4, max_candidates=48, max_degree=2, max_height=2,
                         extremal_budget=1)
RATIONAL_BUDGETS = dict(max_steps=4, max_candidates=16, max_degree=1, max_height=2,
                        extremal_budget=2)
HEX_CONTROL = "control\nvertices\n-1 -1\n0 -1\n1 0\n1 1\n0 1\n-1 0\n"
DIAMOND_CONTROL = "control\nvertices\n-1 0\n0 -1\n1 0\n0 1\n"
GOLDEN_VERDICTS = [
    # algebraic_2d: hex controls, target on the boundary (degree-2 certificate)
    ("dim 2\nmatrix\n1/2 -1/8\n-1 1/2\n" + HEX_CONTROL
     + "source\n0 0\ntarget\nvertices\n3 -4\n", ALGEBRAIC_BUDGETS, "unreachable",
     "232fddae8649aceee817abeeee91bd2475186d06597e0e01efc1c13cb63d39d8"),
    # algebraic_2d: hex controls, interior target
    ("dim 2\nmatrix\n1/2 -1/8\n-1 1/2\n" + HEX_CONTROL
     + "source\n0 0\ntarget\nvertices\n-1/2 -1/4\n", ALGEBRAIC_BUDGETS, "reachable",
     "9b9a7e0f8450d44af2be288b26675ff0de367f3e3b65ae2c632319cd09f57b10"),
    # rational_batch: a point outside the reachable closure
    ("dim 2\nmatrix\n-7/10 18/5\n-3/10 7/5\ncontrol\nvertices\n-2 0\n0 -1\n2 0\n0 1\n"
     "source\n0 0\ntarget\nvertices\n51/2 73/8\n", RATIONAL_BUDGETS, "unreachable",
     "5e112ce2b1e1e3eba3b6734c0dfdc77cd75dd5133e4da284a9c6b8623bb9c762"),
    # rational_batch: a diagonal system and a grid point it cannot reach
    ("dim 2\nmatrix\n1/5 0\n0 3/10\n" + DIAMOND_CONTROL
     + "source\n0 0\ntarget\nvertices\n4 -3\n", RATIONAL_BUDGETS, "unreachable",
     "8621a0538434529343e37e37948c9ad76eee43c40fadb3ff2f07ec9daaa258bb"),
    # rational_batch: a point reached in one step
    ("dim 2\nmatrix\n-17/5 21/10\n-7 43/10\n" + DIAMOND_CONTROL
     + "source\n0 0\ntarget\nvertices\n-1/2 1/2\n", RATIONAL_BUDGETS, "reachable",
     "5bb4c15318fe7fe84f374d0343f3a8fa6f34572c3bafceea451e55d6d4d5cf87"),
    # rational_batch: a one-dimensional system the budgets leave undecided
    ("dim 1\nmatrix\n4/5\ncontrol\nvertices\n1\n-1\nsource\n0\ntarget\nvertices\n4\n",
     RATIONAL_BUDGETS, "unknown",
     "ca9b0bdc4e1eca29007cac75d1fb57d2a67eedc26259dcf1d13afc49342b71a8"),
]


def test_verdict_bytes_golden():
    for text, budgets, kind, digest in GOLDEN_VERDICTS:
        body = instances.verdict_to_json(
            driver.decide(instances.parse_instance(text), driver.Budgets(**budgets)))
        assert body["verdict"] == kind
        assert hashlib.sha256(instances.dump_json(body).encode()).hexdigest() == digest


def test_decide_unknown_when_budgets_tiny():
    # reachable only at horizon 2, but forward budget stops at 1 and the
    # point target is inside the reachable set so no certificate exists
    target = GenPolyhedron.point(vec(F(7, 3), 1))
    v = driver.decide(quad_system(target), small_budgets(max_steps=1, max_candidates=8))
    assert v.kind == "unknown"
    assert v.exhausted["max_steps"] == 1


def test_candidate_stream_order_dedup_and_cap():
    # A's left eigenvectors are (1, -1) and (1, 0); the target segment runs
    # along (1, 1), so its complement direction (1, -1) is an eigenvector too
    a = RatMatrix.from_rows([[F(1, 4), 0], [F(-1, 4), F(1, 2)]])
    sys_ = LtiSystem(a, ControlSet.single(QUAD_U), vec(0, 0),
                     GenPolyhedron.polytope([vec(4, 4), vec(5, 5)]))
    _, (s, form, _) = driver._certification_inputs(sys_)
    budgets = small_budgets(max_candidates=20, max_degree=1, max_height=2, extremal_budget=1)

    def rays(stream):
        return [tuple(rat(x) for x in c) for c in stream]

    got = rays(driver._candidate_stream(s, form, budgets))
    assert len(got) == budgets.max_candidates
    # each direction once up to positive scaling, across both sources
    canon = [tuple(x / abs(next(y for y in v if y)) for x in v) for v in got]
    assert len(set(canon)) == len(canon)
    # budget 0 yields the target directions alone; they come first
    target_dirs = rays(extremal_candidates(s, form.q_reduced, 0))
    assert set(target_dirs) == {(1, 1), (-1, -1), (1, -1), (-1, 1)}
    assert got[:4] == target_dirs
    # then the signed eigenvectors not seen yet
    assert got[4:6] == [(1, 0), (-1, 0)]
    # then the enumeration, in its own order
    enumerated = iter(rays(enumerate_algebraic_vectors(2, (1, 2))))
    assert all(v in enumerated for v in got[6:])  # consumes: an ordered subsequence
    capped = dataclasses.replace(budgets, max_candidates=7)
    assert rays(driver._candidate_stream(s, form, capped)) == got[:7]


# A = [[1/2, 1/8], [1, 1/2]] (eigenvalues 1/2 +- 1/sqrt(8)) under the
# benchmark's hex controls: the point (5/2, 7/2) is reached at horizon 6
DEEP_HEX = LtiSystem(
    RatMatrix.from_rows([[F(1, 2), F(1, 8)], [1, F(1, 2)]]),
    ControlSet.single(GenPolyhedron.polytope([vec(1, 0), vec(-1, 0), vec(0, 1), vec(0, -1),
                                              vec(1, -1), vec(-1, 1)])),
    vec(0, 0), GenPolyhedron.point(vec(F(5, 2), F(7, 2))))


@pytest.mark.parametrize("sys_, budgets, horizon, drawn, verified", [
    (quad_system(GenPolyhedron.point(vec(1, 1))), small_budgets(), 1, 1, 0),
    # 1 + 2 + 4 + 8 + 16 + 16 candidates before horizon 6
    (DEEP_HEX, driver.Budgets(), 6, 47, 15),
], ids=["one-step", "deep-hex"])
def test_candidate_batches_slow_start(monkeypatch, sys_, budgets, horizon, drawn, verified):
    """The batches between forward horizons hold 1, 2, 4, 8, then
    CANDIDATE_BATCH candidates: every candidate drawn builds one PrefixSums,
    and one that passes the prefix check is verified."""
    calls = {"drawn": 0, "verified": 0}

    def counting(key, fn):
        def wrapped(*args):
            calls[key] += 1
            return fn(*args)
        return wrapped

    monkeypatch.setattr(driver, "PrefixSums", counting("drawn", driver.PrefixSums))
    monkeypatch.setattr(driver, "verify_separator", counting("verified", driver.verify_separator))
    v = driver.decide(sys_, budgets)
    assert v.kind == "reachable" and v.warnings == ()
    assert v.witness.horizon == horizon
    assert calls == {"drawn": drawn, "verified": verified}


def shear_system(rng):
    """A 2-D system with eigenvalues k/10 conjugated by two integer shears,
    a cross polytope as controls and as target a point reached in 1 to 4
    steps, a far integer point or a point of the quarter grid."""
    lams = [F(rng.randint(1, 9), 10) for _ in range(2)]
    p = (RatMatrix.from_rows([[1, rng.randint(-2, 2)], [0, 1]])
         @ RatMatrix.from_rows([[1, 0], [rng.randint(-2, 2), 1]]))
    a = p @ RatMatrix.diag(*lams) @ p.inverse()
    r1, r2 = rng.randint(1, 2), rng.randint(1, 2)
    cross = [vec(r1, 0), vec(-r1, 0), vec(0, r2), vec(0, -r2)]
    kind = rng.randrange(3)
    if kind == 0:
        x, power = zero_vec(2), RatMatrix.identity(2)
        for _ in range(rng.randint(1, 4)):
            x = vec_add(x, power.matvec(rng.choice(cross)))
            power = power @ a
    elif kind == 1:
        x = tuple(F(rng.randint(-12, 12)) for _ in range(2))
    else:
        x = tuple(F(rng.randint(-9, 9), 4) for _ in range(2))
    return LtiSystem(a, ControlSet.single(GenPolyhedron.polytope(cross)), zero_vec(2), GenPolyhedron.point(x))


def test_candidate_batch_size_moves_no_verdict_byte(monkeypatch):
    """Whether the batches between forward horizons stay at 1 candidate or
    double without a cap, each verdict JSON of a seeded corpus is the same: the
    witness is at the least horizon, the certificate is the first candidate
    in stream order that verifies, and an unknown verdict has drawn them
    all."""
    rng = random.Random(31)
    corpus = [shear_system(rng) for _ in range(18)]
    budgets = driver.Budgets(max_steps=2, max_candidates=24, max_degree=1, max_height=2,
                             extremal_budget=2)

    def verdicts():
        return [instances.dump_json(instances.verdict_to_json(driver.decide(s, budgets)))
                for s in corpus]

    default = verdicts()
    assert {json.loads(text)["verdict"] for text in default} == {"reachable", "unreachable", "unknown"}
    for batch in (1, 10 ** 6):
        monkeypatch.setattr(driver, "CANDIDATE_BATCH", batch)
        assert verdicts() == default


CROSS_TEXT = """\
dim 2
matrix
{matrix}
control
vertices
-{r1} 0
0 -{r2}
{r1} 0
0 {r2}
source
0 0
target
vertices
{target}
"""


@pytest.mark.parametrize("matrix, r1, r2, target, budgets", [
    # seed-1 rational_batch r4.outside4, formerly won by a partial-sum facet
    ("3 -21/5\n7/5 -19/10", 1, 1, "615/16 165/8",
     driver.Budgets(max_steps=4, max_candidates=16, max_degree=1, max_height=2,
                    extremal_budget=2)),
    # seed-2 rational_batch r3.grid7, formerly won by the partial-sum facet
    # (-7, 2); the default enumeration finds another separator
    ("-3/10 3/10\n-9/5 6/5", 2, 2, "-5/2 1", driver.Budgets()),
    # seed-1 rational_batch r32.grid7, formerly won by the partial-sum facet
    # (-338, 119); (-3, 1) separates too, but lies above that workload's
    # max_height of 2
    ("-1/2 2/5\n-2 13/10", 1, 2, "-1 1", driver.Budgets()),
], ids=["r4.outside4", "r3.grid7", "r32.grid7"])
def test_former_partial_sum_wins_still_certified(matrix, r1, r2, target, budgets):
    text = CROSS_TEXT.format(matrix=matrix, r1=r1, r2=r2, target=target)
    sys_ = instances.parse_instance(text)
    v = driver.decide(sys_, budgets)
    assert v.kind == "unreachable"
    assert driver.audit(sys_, instances.verdict_to_json(v)) is True


# ---------------------------------------------------------------------------
# audit
# ---------------------------------------------------------------------------


def test_audit_witness_roundtrip():
    sys_ = quad_system(GenPolyhedron.point(vec(1, 1)))
    v = driver.decide(sys_, small_budgets())
    payload = instances.verdict_to_json(v)
    assert driver.audit(sys_, payload) is True


def test_audit_certificate_roundtrip():
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    v = driver.decide(sys_, small_budgets())
    payload = instances.verdict_to_json(v)
    assert driver.audit(sys_, payload) is True


def test_audit_detects_tampered_sup():
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    v = driver.decide(sys_, small_budgets())
    payload = instances.verdict_to_json(v)
    payload["certificate"]["sup_value"] = {"minpoly": [-2, 1], "lo": "2", "hi": "2"}
    assert driver.audit(sys_, payload) is False


def test_audit_detects_wrong_instance():
    sys_ = quad_system(GenPolyhedron.point(vec(1, 1)))
    other = quad_system(GenPolyhedron.point(vec(0, 3)))
    v = driver.decide(sys_, small_budgets())
    payload = instances.verdict_to_json(v)
    with pytest.raises(driver.AuditHashError):
        driver.audit(other, payload)


# r0.hex.outside of the algebraic_2d benchmark workload at seed 1: its
# certificate has threshold 1, and its maximizer gives the same supremum at
# threshold 0, so only a comparison of the threshold itself rejects 0
HEX_OUTSIDE_TEXT = "dim 2\nmatrix\n1/2 -1/8\n-1 1/2\n" + HEX_CONTROL + "source\n0 0\ntarget\nvertices\n6 -8\n"


@pytest.mark.parametrize("shift", ["negative", "below_fresh", "above_fresh", "huge"])
def test_audit_rejects_out_of_range_threshold(shift):
    """Any threshold but the one the audit derives fails it."""
    sys_ = instances.parse_instance(HEX_OUTSIDE_TEXT)
    v = driver.decide(sys_, driver.Budgets(**ALGEBRAIC_BUDGETS))
    assert v.certificate.threshold >= 1
    payload = instances.verdict_to_json(v)
    assert driver.audit(sys_, payload) is True
    payload["certificate"]["threshold"] = {"negative": -5, "below_fresh": v.certificate.threshold - 1,
                                           "above_fresh": v.certificate.threshold + 1,
                                           "huge": 10 ** 9}[shift]
    start = time.perf_counter()
    assert driver.audit(sys_, payload) is False
    assert time.perf_counter() - start < 30  # rejected before any work linear in it


def test_decide_and_audit_check_simplicity_once(monkeypatch):
    from ltireach import preprocess

    calls = []
    check = preprocess.check_simple

    def counting(sys_):
        calls.append(sys_)
        return check(sys_)

    monkeypatch.setattr(preprocess, "check_simple", counting)
    monkeypatch.setattr(driver, "check_simple", counting)
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "unreachable"
    assert len(calls) == 1
    assert driver.audit(sys_, instances.verdict_to_json(v)) is True
    assert len(calls) == 2


@pytest.mark.parametrize("a, power", [
    (DIAG_A, 1),
    (RatMatrix.diag(F(-1, 3), F(2, 3)), 2),  # a negative eigenvalue: M = 2
    (RatMatrix.diag(0, F(2, 3)), 1),  # singular: no step changes the matrix
], ids=["invertible", "negative_eigenvalue", "singular"])
def test_decide_and_audit_form_one_characteristic_polynomial(monkeypatch, a, power):
    """check_simple forms A's characteristic polynomial and the spectral
    decomposition reads it when the reduced matrix is A; a normalization
    step that changes the matrix costs exactly one more, in decide and in
    the audit alike."""
    from ltireach import linalg, preprocess

    calls = []
    original = linalg.charpoly_primitive

    def counting(m):
        calls.append(m)
        return original(m)

    for module in (linalg, preprocess, driver):
        monkeypatch.setattr(module, "charpoly_primitive", counting)
    sys_ = LtiSystem(a, ControlSet.single(QUAD_U), vec(0, 0), GenPolyhedron.point(vec(0, 4)))
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "unreachable"
    assert v.simple_form.power == power
    changed = v.simple_form.a_reduced != a
    assert changed == (power > 1)
    assert calls[0] is a and len(calls) == 1 + changed
    calls.clear()
    assert driver.audit(sys_, instances.verdict_to_json(v)) is True
    assert calls[0] is a and len(calls) == 1 + changed


def test_audit_unknown_is_vacuous():
    sys_ = quad_system(GenPolyhedron.point(vec(1, 1)))
    payload = {"verdict": "unknown", "instance_sha256": instances.instance_sha256(sys_),
               "warnings": [], "budgets_exhausted": {}}
    assert driver.audit(sys_, payload) is True


# ---------------------------------------------------------------------------
# render
# ---------------------------------------------------------------------------


def test_render_partial_reach(tmp_path):
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    out = tmp_path / "fig.svg"
    render.render_partial_reach(sys_, 12, str(out))
    text = out.read_text()
    assert text.startswith("<?xml")
    assert "<svg" in text and "polygon" in text
    desc = json.loads(text.split("<desc>")[1].split("</desc>")[0])
    xs = [F(v[0]) for v in desc["reach_vertices"]]
    # vertex x-extent within 1e-3 of +-3 at n = 12 (oracle: geometric sums)
    assert abs(float(max(xs)) - 3) < 1e-3
    assert abs(float(min(xs)) + 3) < 1e-3


def test_render_zero_steps_is_controls(tmp_path):
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    out = tmp_path / "u.svg"
    render.render_partial_reach(sys_, 0, str(out))
    desc = json.loads(out.read_text().split("<desc>")[1].split("</desc>")[0])
    got = {tuple(v) for v in desc["reach_vertices"]}
    assert got == {("-2", "-1"), ("0", "-1"), ("0", "1"), ("2", "1")}


def test_render_certificate_line(tmp_path):
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    out = tmp_path / "cert.svg"
    render.render_partial_reach(sys_, 6, str(out), driver.decide(sys_, small_budgets()).certificate)
    assert "<line" in out.read_text()


def test_render_rejects_non_2d():
    a = RatMatrix.diag(*[F(1, 2)] * 3)
    u = GenPolyhedron.polytope([vec(*v) for v in
                                [(-1, -1, -1), (1, -1, -1), (0, 1, -1), (0, 0, 1)]])
    sys_ = LtiSystem(a, ControlSet.single(u), vec(0, 0, 0), GenPolyhedron.point(vec(0, 0, 0)))
    with pytest.raises(render.RenderError):
        render.render_partial_reach(sys_, 2, "/tmp/nope.svg")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

QUAD_TEXT = """\
dim 2
matrix
1/3 0
0 2/3
control
vertices
-2 -1
0 -1
0 1
2 1
source
0 0
target
vertices
{target}
"""


def write_instance(tmp_path, name, target_row):
    path = tmp_path / name
    path.write_text(QUAD_TEXT.format(target=target_row))
    return str(path)


def test_cli_decide_exit_codes(tmp_path):
    reachable = write_instance(tmp_path, "r.lti", "1 1")
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    assert cli.main(["decide", "--input", reachable, "--max-steps", "4"]) == 0
    assert cli.main(["decide", "--input", unreachable, "--max-steps", "4",
                     "--max-candidates", "64"]) == 1


HALF_CROSS_TEXT = """\
dim 2
matrix
1/2 0
0 1/2
control
vertices
1 0
-1 0
0 1
0 -1
source
0 0
target
vertices
{vertex}
{generators}
"""


@pytest.mark.parametrize("vertex, generators, code", [
    ("1/2 0", "rays\n1 0", cli.EXIT_REACHABLE),  # (1/2, 0) lies in U: reached at horizon 1
    ("3 0", "rays\n1 0", cli.EXIT_UNKNOWN),  # the first coordinate stays below 2
    ("3 0", "lines\n0 1", cli.EXIT_UNKNOWN),
], ids=["reachable_ray", "unreachable_ray", "unreachable_line"])
def test_cli_decide_on_an_unbounded_target(tmp_path, capsys, vertex, generators, code):
    """A target with rays or lines fails a condition of the certificate
    search, whose bound min_Q <x, tau> reads only the vertices: decide
    falls back to forward search and names the reason."""
    path = tmp_path / "unbounded.lti"
    path.write_text(HALF_CROSS_TEXT.format(vertex=vertex, generators=generators))
    sys_ = instances.parse_instance(path.read_text())
    assert check_simple(sys_).failing_conditions() == ["target is unbounded (it has rays or lines)"]
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(path), "--max-steps", "8", "--out", str(out)]) == code
    assert "target is unbounded" in capsys.readouterr().err
    verdict = json.loads(out.read_text())
    if code == cli.EXIT_REACHABLE:
        assert len(verdict["witness"]["steps"]) == 1
    assert cli.main(["audit", str(path), str(out)]) == 0


def test_check_simple_keeps_an_empty_target_certifiable():
    empty = quad_system(GenPolyhedron(2, (), (vec(1, 0),)))
    assert empty.target.is_empty and check_simple(empty).failing_conditions() == []


def test_cli_decide_writes_auditable_verdict(tmp_path):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    code = cli.main(["decide", "--input", unreachable, "--max-steps", "4",
                     "--out", str(out)])
    assert code == 1
    assert cli.main(["audit", unreachable, str(out)]) == 0



def fresh_cli(*args, timeout: float) -> subprocess.CompletedProcess:
    """Run the command line in a fresh process, failing past timeout s."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    return subprocess.run([sys.executable, "-m", "ltireach.cli", *map(str, args)],
                          capture_output=True, text=True, env=env, timeout=timeout)


def cross_instance_text(dim: int) -> str:
    """A = diag(0, 1/2, ..., 1/2), the cross polytope as controls and the
    point (5, ..., 5) as target: singular, and unreachable, since every
    coordinate stays below 2."""
    rows = [" ".join("0" if j != i else ("0" if i == 0 else "1/2") for j in range(dim)) for i in range(dim)]
    verts = [" ".join(str(s) if j == i else "0" for j in range(dim)) for i in range(dim) for s in (1, -1)]
    return "\n".join([f"dim {dim}", "matrix", *rows, "control", "vertices", *verts,
                      "source", " ".join(["0"] * dim), "target", "vertices", " ".join(["5"] * dim), ""])


@pytest.mark.parametrize("dim", [5, 6])
def test_decide_singular_cross_polytope_systems_in_bounded_time(tmp_path, dim):
    """The zero eigenvalue needs no normalization step, so certificate
    search applies in any dimension, and decide and audit each finish
    within 15 s in a fresh process."""
    path = tmp_path / "cross.lti"
    path.write_text(cross_instance_text(dim))
    out = tmp_path / "verdict.json"
    proc = fresh_cli("decide", "--input", path, "--out", out, timeout=15)
    assert proc.returncode == cli.EXIT_UNREACHABLE, proc.stdout + proc.stderr
    assert "forward search only" not in proc.stderr
    proc = fresh_cli("audit", path, out, timeout=15)
    assert proc.returncode == cli.EXIT_REACHABLE, proc.stdout + proc.stderr


def facet_ceiling_instance_text() -> str:
    """A = I/2 in 7-D, controls +-e1 and as target the simplex 3 e1 + conv(0,
    e2, ..., e7) of affine dimension 6: simple, so certifiable, but the span
    step intersects the target with the line of e1, which needs the facets
    of a 6-D polytope, above the enumeration ceiling."""
    rows = [" ".join("1/2" if j == i else "0" for j in range(7)) for i in range(7)]
    e1 = " ".join(["1"] + ["0"] * 6)
    targets = [" ".join(["3"] + ["1" if j == i else "0" for j in range(6)]) for i in range(-1, 6)]
    return "\n".join(["dim 7", "matrix", *rows, "control", "vertices", e1, "-" + e1,
                      "source", " ".join(["0"] * 7), "target", "vertices", *targets, ""])


def test_decide_above_the_facet_ceiling_falls_back_to_forward_search(tmp_path, capsys):
    path = tmp_path / "ceiling.lti"
    path.write_text(facet_ceiling_instance_text())
    sys_ = instances.parse_instance(path.read_text())
    assert check_simple(sys_).failing_conditions() == []
    assert cli.main(["decide", "--input", str(path)]) == cli.EXIT_UNKNOWN
    err = capsys.readouterr().err
    assert "facet-enumeration ceiling" in err and "forward search only" in err
    v = driver.decide(sys_, small_budgets(max_steps=2))
    assert v.kind == "unknown" and v.exhausted["candidates_tried"] == 0
    # a certificate claimed for it cannot be rechecked, so it fails the audit
    quad = quad_system(GenPolyhedron.point(vec(0, 3)))
    artifact = instances.verdict_to_json(driver.decide(quad, small_budgets()))
    artifact["instance_sha256"] = instances.instance_sha256(sys_)
    assert driver.audit(sys_, artifact) is False


@pytest.mark.parametrize("flag", [False, True])
def test_audit_fails_a_reduced_system_that_carries_fit_applied(tmp_path, flag):
    """A reduced system with the fit_applied key of the older artifact
    format differs from the one the audit forms, so the audit fails it
    (exit 3) and never reads it as a verdict (0, 1 or 2)."""
    path = tmp_path / "singular.lti"
    path.write_text("dim 2\nmatrix\n0 0\n0 2/3\ncontrol\nvertices\n-2 -1\n0 -1\n0 1\n2 1\n"
                    "source\n0 0\ntarget\nvertices\n0 4\n")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(path), "--out", str(out)]) == cli.EXIT_UNREACHABLE
    artifact = json.loads(out.read_text())
    artifact["certificate"]["reduced_system"]["fit_applied"] = flag
    out.write_text(instances.dump_json(artifact))
    assert cli.main(["audit", str(path), str(out)]) == cli.EXIT_AUDIT_FAILED


# ---------------------------------------------------------------------------
# soundness on singular systems
# ---------------------------------------------------------------------------

NILPOTENT_TEXT = ("dim 2\nmatrix\n0 -1\n0 0\ncontrol\nvertices\n1 0\n-1 0\n0 1\n0 -1\n"
                  "source\n0 0\ntarget\nvertices\n3/2 1/2\n")


def test_a_supremum_attained_at_the_threshold_does_not_separate():
    """A = [[0, -1], [0, 0]] with controls +-e1 and +-e2 reaches (3/2, 1/2)
    at horizon 2.  A^2 = 0, so every reachable set is F_2, and tau = (1, 1)
    has sup = S_2 = 2 = min over the target with a tail of 0: the supremum
    is attained, so tau does not separate, and no candidate does."""
    sys_ = instances.parse_instance(NILPOTENT_TEXT)
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "reachable" and v.witness.horizon == 2
    form = to_simple_form(sys_, check_simple(sys_))
    s = decompose(form.a_reduced)
    assert s.transient == 2
    sums = prefix_sums(s, form.u_reduced, (F(1), F(1)))
    assert verify_separator(s, form.u_reduced, form.q_reduced, sums) is None
    assert sums.at(2) == sup_in_direction(s, form.u_reduced, (F(1), F(1))) == 2
    # with the forward search stopped at horizon 0, certificate search alone
    # certifies nothing
    assert driver.decide(sys_, small_budgets(max_steps=0)).kind == "unknown"


def singular_system(rng, d):
    """An upper-triangular A whose diagonal holds 0 at least once and
    otherwise 0 or +-k/5, with entries in {-1, 0, 1}/2 above it, conjugated
    by a permutation; the cross polytope as controls; and as target a point
    reached in 1 to 3 steps, that point scaled by 5/4, or a grid point."""
    diag = [F(rng.choice((-1, 1)) * rng.randint(1, 4), 5) if rng.random() < 0.6 else F(0) for _ in range(d)]
    diag[rng.randrange(d)] = F(0)
    rows = [[diag[i] if i == j else (F(rng.randint(-1, 1), 2) if j > i else F(0)) for j in range(d)]
            for i in range(d)]
    perm = rng.sample(range(d), d)
    a = RatMatrix.from_rows([[rows[perm[i]][perm[j]] for j in range(d)] for i in range(d)])
    cross = [tuple(F(sg) if j == i else F(0) for j in range(d)) for i in range(d) for sg in (1, -1)]
    kind = rng.randrange(3)
    if kind < 2:
        x, power = zero_vec(d), RatMatrix.identity(d)
        for _ in range(rng.randint(1, 3)):
            x = vec_add(x, power.matvec(rng.choice(cross)))
            power = power @ a
        x = x if kind == 0 else tuple(c * F(5, 4) for c in x)
    else:
        x = tuple(F(rng.randint(-6, 6), 2) for _ in range(d))
    return LtiSystem(a, ControlSet.single(GenPolyhedron.polytope(cross)), zero_vec(d), GenPolyhedron.point(x))


def test_singular_systems_are_never_certified_when_reached(tmp_path):
    """On seeded 2-4-D singular systems: no instance that reach_within(sys,
    12) reaches is certified, by decide or by certificate search alone
    (forward search stopped at horizon 0); every artifact audits, the first
    few also in a fresh process."""
    rng = random.Random(2027)
    counts = {"reachable": 0, "unreachable": 0, "unknown": 0}
    fresh = 0
    for k in range(80):
        sys_ = singular_system(rng, rng.randint(2, 4))
        assert sys_.a.det() == 0 and check_simple(sys_).failing_conditions() == []
        reached = forward.reach_within(sys_, 12)
        for v in (driver.decide(sys_, small_budgets()), driver.decide(sys_, small_budgets(max_steps=0))):
            assert not (reached is not None and v.kind == "unreachable"), instances.emit_instance(sys_)
            payload = instances.verdict_to_json(v)
            assert driver.audit(sys_, payload) is True
            if v.kind == "unreachable" and fresh < 3:
                fresh += 1
                path, out = tmp_path / f"s{k}.lti", tmp_path / f"s{k}.json"
                path.write_text(instances.emit_instance(sys_))
                out.write_text(instances.dump_json(payload))
                assert fresh_cli("audit", path, out, timeout=60).returncode == cli.EXIT_REACHABLE
        counts[v.kind] += 1
    assert counts["unreachable"] >= 20 and fresh == 3, counts


def segment_instance_text(dim: int) -> str:
    """A = I/2, controls on the segment +-e1 and the point 3 e1 as target:
    unreachable (the first coordinate stays below 2), and the reduced
    system is one-dimensional, so its only directions are +1 and -1."""
    rows = [" ".join("1/2" if j == i else "0" for j in range(dim)) for i in range(dim)]
    e1 = ["0"] * (dim - 1)
    return "\n".join(["dim %d" % dim, "matrix", *rows, "control", "vertices",
                      " ".join(["1", *e1]), " ".join(["-1", *e1]), "source", " ".join(["0"] * dim),
                      "target", "vertices", " ".join(["3", *e1]), ""])


@pytest.mark.parametrize("dim", [2, 6])
def test_decide_one_dimensional_reduction_in_bounded_time(tmp_path, dim):
    # the stream has no new direction after +1 and -1 but takes long to end,
    # so a certificate must be verified as it is drawn; in 6-D the span step
    # also intersects a point target, which has no facets in any dimension
    path = tmp_path / "segment.lti"
    path.write_text(segment_instance_text(dim))
    out = tmp_path / "verdict.json"
    proc = fresh_cli("decide", "--input", path, "--out", out, timeout=30)
    assert proc.returncode == cli.EXIT_UNREACHABLE, proc.stdout + proc.stderr
    assert cli.main(["audit", str(path), str(out)]) == 0


def test_audit_never_runs_the_prefix_check(tmp_path, monkeypatch):
    from ltireach import certify

    probed = []
    probe = certify.fails_prefix_check

    def counting(*args):
        probed.append(args)
        return probe(*args)

    monkeypatch.setattr(driver, "fails_prefix_check", counting)
    artifacts = []
    for i, (text, budgets, _, _) in enumerate(GOLDEN_VERDICTS):
        sys_ = instances.parse_instance(text)
        body = instances.verdict_to_json(driver.decide(sys_, driver.Budgets(**budgets)))
        ipath, apath = tmp_path / f"i{i}.lti", tmp_path / f"a{i}.json"
        ipath.write_text(text)
        apath.write_text(instances.dump_json(body))
        artifacts.append((sys_, body, str(ipath), str(apath)))
    assert probed  # the decide path ran the check

    def refuse(*args):
        raise AssertionError("prefix check on the audit path")

    monkeypatch.setattr(certify, "fails_prefix_check", refuse)
    monkeypatch.setattr(driver, "fails_prefix_check", refuse)
    for sys_, body, ipath, apath in artifacts:
        assert driver.audit(sys_, body) is True
        assert cli.main(["audit", ipath, apath]) == 0


def test_cli_audit_hash_mismatch(tmp_path):
    reachable = write_instance(tmp_path, "r.lti", "1 1")
    other = write_instance(tmp_path, "o.lti", "0 3")
    out = tmp_path / "v.json"
    cli.main(["decide", "--input", reachable, "--max-steps", "4", "--out", str(out)])
    assert cli.main(["audit", other, str(out)]) == 4


def test_cli_render_refuses_a_verdict_of_another_instance(tmp_path, capsys):
    """render --verdict checks the instance hash as the audit does."""
    decided = write_instance(tmp_path, "u.lti", "0 3")
    other = write_instance(tmp_path, "o.lti", "9 9")
    vjson, svg = tmp_path / "v.json", tmp_path / "fig.svg"
    assert cli.main(["decide", "--input", decided, "--out", str(vjson)]) == cli.EXIT_UNREACHABLE
    capsys.readouterr()
    assert cli.main(["audit", other, str(vjson)]) == cli.EXIT_HASH_MISMATCH
    audit_err = capsys.readouterr().err
    assert cli.main(["render", "--input", other, "--steps", "3", "--out", str(svg),
                     "--verdict", str(vjson)]) == cli.EXIT_HASH_MISMATCH
    assert capsys.readouterr().err == audit_err
    assert audit_err.startswith("hash mismatch: ")
    assert not svg.exists()


def test_cli_budget_defaults_are_the_driver_defaults():
    parser = cli.build_parser()
    for command in ("decide", "certify"):
        assert cli._budgets_from(parser.parse_args([command, "--input", "x.lti"])) == driver.Budgets()
    assert parser.parse_args(["forward", "--input", "x.lti"]).max_steps == driver.Budgets().max_steps


def test_cli_forward_and_unknown(tmp_path):
    far = write_instance(tmp_path, "far.lti", "9 9")
    assert cli.main(["forward", "--input", far, "--max-steps", "3"]) == 2
    near = write_instance(tmp_path, "near.lti", "0 0")
    out = tmp_path / "w.json"
    assert cli.main(["forward", "--input", near, "--max-steps", "3",
                     "--out", str(out)]) == 0
    assert cli.main(["audit", near, str(out)]) == 0


def test_cli_certify(tmp_path):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    assert cli.main(["certify", "--input", unreachable, "--max-candidates", "64"]) == 1


def test_cli_gadget_emit_and_parse(tmp_path):
    out = tmp_path / "g.lti"
    assert cli.main(["gadget", "skolem", "--matrix", "0 1; -1 0", "--out", str(out)]) == 0
    sys_ = instances.parse_instance(out.read_text())
    assert sys_.dim == 3
    out2 = tmp_path / "m.lti"
    assert cli.main(["gadget", "markov", "--matrix", "0 1; 1 0", "--out", str(out2)]) == 0
    sys2 = instances.parse_instance(out2.read_text())
    assert sys2.dim == 5
    out3 = tmp_path / "v.lti"
    assert cli.main(["gadget", "vecreach", "--matrices", "1 1; 0 1",
                     "--x", "0 1", "--y", "2 1", "--out", str(out3)]) == 0
    assert instances.parse_instance(out3.read_text()).dim == 5


def test_cli_render(tmp_path):
    inst = write_instance(tmp_path, "r.lti", "0 3")
    out = tmp_path / "fig.svg"
    assert cli.main(["render", "--input", inst, "--steps", "3", "--out", str(out)]) == 0
    assert out.read_text().startswith("<?xml")
    assert "<line" not in out.read_text()
    # with a verdict file, the certificate hyperplane is drawn
    vjson = tmp_path / "v.json"
    assert cli.main(["decide", "--input", inst, "--max-steps", "4", "--out", str(vjson)]) == 1
    out2 = tmp_path / "quad.svg"
    assert cli.main(["render", "--input", inst, "--steps", "3", "--out", str(out2),
                     "--verdict", str(vjson)]) == 0
    assert "<line" in out2.read_text()


def _svg_line(text: str) -> tuple[tuple[float, float], tuple[float, float]]:
    """The endpoints of the certificate line, in the instance's coordinates."""
    view = json.loads(text.split("<desc>")[1].split("</desc>")[0])["viewport"]
    attrs = text.split("<line ")[1].split("/>")[0]
    x1, y1, x2, y2 = (float(attrs.split(f'{k}="')[1].split('"')[0]) for k in ("x1", "y1", "x2", "y2"))

    def back(x, y):
        return x / view["scale"] + view["minx"], view["maxy_pad"] - y / view["scale"]

    return back(x1, y1), back(x2, y2)


@pytest.mark.parametrize("target", ["0 3", "-1 3"])
def test_cli_render_draws_the_certificate_line_at_sup_value(tmp_path, target):
    """A 2-D certificate with no span step draws <x, tau> = sup_value."""
    inst = write_instance(tmp_path, "u.lti", target)
    vjson, svg = tmp_path / "v.json", tmp_path / "fig.svg"
    assert cli.main(["decide", "--input", inst, "--out", str(vjson)]) == cli.EXIT_UNREACHABLE
    cert = instances.verdict_from_json(json.loads(vjson.read_text())).certificate
    assert len(cert.tau) == 2
    assert cli.main(["render", "--input", inst, "--steps", "3", "--out", str(svg),
                     "--verdict", str(vjson)]) == cli.EXIT_REACHABLE
    tau = [float(x) for x in cert.tau]
    for p in _svg_line(svg.read_text()):
        assert abs(tau[0] * p[0] + tau[1] * p[1] - float(cert.sup_value)) < 1e-6


def test_cli_render_refuses_a_span_reduced_certificate(tmp_path, capsys):
    """A = I/2, controls +-e1, target (3, 0): the span step leaves one
    coordinate, so tau has one entry and no line of the plane."""
    path = tmp_path / "segment.lti"
    path.write_text(segment_instance_text(2))
    vjson = tmp_path / "v.json"
    assert cli.main(["decide", "--input", str(path), "--out", str(vjson)]) == cli.EXIT_UNREACHABLE
    assert len(json.loads(vjson.read_text())["certificate"]["tau"]) == 1
    capsys.readouterr()
    assert cli.main(["render", "--input", str(path), "--steps", "3", "--out", str(tmp_path / "fig.svg"),
                     "--verdict", str(vjson)]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert "span step's coordinates" in err and "unpack" not in err


def test_cli_render_draws_no_line_for_an_empty_target(tmp_path):
    """A target with a ray and no vertex is empty: its certificate has the
    zero direction, which has no line."""
    path = tmp_path / "empty.lti"
    path.write_text(QUAD_TEXT.format(target="").replace("vertices\n\n", "rays\n1 0\n"))
    vjson, svg = tmp_path / "v.json", tmp_path / "fig.svg"
    assert cli.main(["decide", "--input", str(path), "--out", str(vjson)]) == cli.EXIT_UNREACHABLE
    assert cli.main(["render", "--input", str(path), "--steps", "3", "--out", str(svg),
                     "--verdict", str(vjson)]) == cli.EXIT_REACHABLE
    assert "<line" not in svg.read_text()


def test_cli_bad_input_is_error(tmp_path):
    bad = tmp_path / "bad.lti"
    bad.write_text("dim 2\nmatrix\n1/0 0\n0 1\n")
    assert cli.main(["decide", "--input", str(bad)]) == 5
    assert cli.main(["nonsense"]) == 5


@pytest.mark.parametrize("command, flag", [
    *[("decide", f) for f in ("--max-steps", "--max-candidates", "--max-degree",
                              "--max-height", "--extremal-budget")],
    ("certify", "--max-candidates"),
    ("certify", "--extremal-budget"),
    ("forward", "--max-steps"),
    ("render", "--steps"),
])
def test_cli_negative_count_is_usage_error(tmp_path, capsys, command, flag):
    inst = write_instance(tmp_path, "u.lti", "0 3")
    argv = [command, "--input", inst, flag, "-1"]
    if command == "render":
        argv += ["--out", str(tmp_path / "fig.svg")]
    assert cli.main(argv) == 5
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("count", ["\u0663", " 7 ", "7 ", "\u00a07", "+7", "7\u200b", "\uff17"])
def test_cli_count_takes_only_ascii_digits(tmp_path, capsys, count):
    """A count is ASCII digits and nothing else, as an instance file's
    dimension: other decimal digits and surrounding blanks are refused."""
    inst = write_instance(tmp_path, "u.lti", "0 3")
    assert cli.main(["decide", "--input", inst, "--max-steps", count]) == cli.EXIT_ERROR
    assert "non-negative" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["vecreach", "--matrices", "1 1; 0 1", "--x", "0 1", "--y", "2\u00a01"],
    ["vecreach", "--matrices", "1\u20031; 0 1", "--x", "0 1", "--y", "2 1"],
    ["vecreach", "--matrices", "1 1; 0 1", "--x", "0\n1", "--y", "2 1"],
    ["skolem", "--matrix", "0 1;\u00a0-1 0"],
    ["powering", "--matrices", "1 1; 0 1", "--target", "1 2;\u30000 1"],
])
def test_cli_gadget_entries_split_only_at_ascii_blanks(tmp_path, capsys, argv):
    """Command-line entries are separated by ASCII spaces and tabs, as in
    an instance file, which refuses a row with any other whitespace."""
    out = tmp_path / "g.lti"
    assert cli.main(["gadget", *argv, "--out", str(out)]) == cli.EXIT_ERROR
    assert not out.exists() and "Traceback" not in capsys.readouterr().err
    blank = [a.replace("\u00a0", " ").replace("\u2003", "\t").replace("\n", " ").replace("\u3000", " ")
             for a in argv]
    assert cli.main(["gadget", *blank, "--out", str(out)]) == cli.EXIT_REACHABLE
    instances.parse_instance(out.read_text())


@pytest.mark.parametrize("tau", ["missing", 7, [7], "x"])
def test_cli_audit_malformed_certificate_is_input_error(tmp_path, capsys, tau):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", unreachable, "--max-steps", "4", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    if tau == "missing":
        del data["certificate"]["tau"]
    else:
        data["certificate"]["tau"] = tau
    out.write_text(json.dumps(data))
    capsys.readouterr()
    assert cli.main(["audit", unreachable, str(out)]) == 5
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("artifact", [
    [],
    {"verdict": "reachable", "witness": {"horizon": 1, "steps": "x"}},
    {"verdict": "reachable", "witness": {"horizon": "1", "steps": []}},
    {"verdict": "unreachable", "certificate": {"tau": [{"minpoly": [1], "lo": "0", "hi": "0"}]}},
])
def test_cli_audit_malformed_artifact_is_input_error(tmp_path, capsys, artifact):
    inst = write_instance(tmp_path, "r.lti", "1 1")
    if isinstance(artifact, dict):
        artifact["instance_sha256"] = instances.instance_sha256(
            instances.parse_instance((tmp_path / "r.lti").read_text()))
    out = tmp_path / "bad.json"
    out.write_text(json.dumps(artifact))
    assert cli.main(["audit", inst, str(out)]) == 5
    assert "Traceback" not in capsys.readouterr().err


def test_cli_audit_oversized_minimal_polynomial_is_input_error(tmp_path):
    # a degree-60 minimal polynomial with 800-digit coefficients: factoring
    # and Sturm chains on it would run for minutes, so parsing refuses it
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", unreachable, "--max-steps", "4", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    rng = random.Random(71)
    coeffs = [rng.randrange(10 ** 799, 10 ** 800) * rng.choice((1, -1)) for _ in range(61)]
    data["certificate"]["tau"][0] = {"minpoly": coeffs, "lo": "0", "hi": "1"}
    out.write_text(json.dumps(data))
    start = time.monotonic()
    proc = fresh_cli("audit", unreachable, out, timeout=60)
    assert time.monotonic() - start < 30
    assert proc.returncode == cli.EXIT_ERROR, proc.stdout + proc.stderr
    assert proc.stderr.startswith("error:") and "Traceback" not in proc.stderr


def minpoly_sizes(payload) -> list[tuple[int, int]]:
    """(degree, largest coefficient bits) of every algebraic entry."""
    if isinstance(payload, dict):
        own = []
        if "minpoly" in payload:
            c = payload["minpoly"]
            own = [(len(c) - 1, max(abs(x).bit_length() for x in c))]
        return own + [s for v in payload.values() for s in minpoly_sizes(v)]
    if isinstance(payload, list):
        return [s for v in payload for s in minpoly_sizes(v)]
    return []


TINY = Fraction(1, 2 ** 5000)


@pytest.mark.parametrize("text, degree", [
    # a rational bound with a 5002-bit numerator
    (QUAD_TEXT.format(target=f"0 {3 + TINY}"), 1),
    # a sup value in Q(sqrt2) with 10003-bit minimal polynomial coefficients
    ("dim 2\nmatrix\n1/2 -1/8\n-1 1/2\n" + HEX_CONTROL
     + f"source\n0 0\ntarget\nvertices\n{3 + TINY} -4\n", 2),
], ids=["rational-bound", "quadratic-sup"])
def test_cli_audits_certificates_with_large_entries(tmp_path, text, degree):
    """Linear and quadratic entries parse at any size, so whatever decide
    writes for a target with a 5000-bit coordinate audits."""
    inst = tmp_path / "big.lti"
    inst.write_text(text)
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(inst), "--max-steps", "4", "--max-candidates", "48",
                     "--max-degree", "2", "--max-height", "2", "--extremal-budget", "1",
                     "--out", str(out)]) == 1
    sizes = minpoly_sizes(json.loads(out.read_text()))
    assert max(n for n, _ in sizes) == degree
    assert max(n * bits for n, bits in sizes) > 2 * instances.MINPOLY_SIZE_CEILING
    assert cli.main(["audit", str(inst), str(out)]) == 0


def test_cli_decide_passes_over_certificates_too_long_to_write(tmp_path, monkeypatch, capsys):
    """Python converts no integer of more than sys.get_int_max_str_digits()
    digits to or from text.  With a target coordinate 2^-8000 off 3, one
    separator's minimum over the target is quadratic with 4818-digit
    minimal polynomial coefficients; decide counts it as not found, and
    the certificate it writes instead audits."""
    refused = []

    def within_ceiling(cert):
        ok = _within_ceiling(cert)
        refused.append(not ok)
        return ok

    _within_ceiling = driver._within_ceiling
    monkeypatch.setattr(driver, "_within_ceiling", within_ceiling)
    inst = tmp_path / "long.lti"
    inst.write_text("dim 2\nmatrix\n1/2 -1/8\n-1 1/2\n" + DIAMOND_CONTROL
                    + f"source\n0 0\ntarget\nvertices\n{3 + Fraction(1, 2 ** 8000)} -4\n")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(inst), "--out", str(out)]) == cli.EXIT_UNREACHABLE
    assert capsys.readouterr().out == "verdict: unreachable\nseparator sup: 4\n"
    assert refused[0] and not refused[-1]
    assert cli.main(["audit", str(inst), str(out)]) == cli.EXIT_REACHABLE


def test_cli_decide_searches_forward_only_when_the_reduced_system_is_too_long_to_write(tmp_path, capsys):
    """A = diag(-1/2 + 2^-8000, 1/3) has a negative eigenvalue, so the
    reduced system holds A^2, whose first entry has more digits than
    Python writes as text.  No certificate of it could be written, so
    decide searches forward only, with a warning, and its verdict audits."""
    inst = tmp_path / "long.lti"
    inst.write_text(f"dim 2\nmatrix\n{Fraction(-1, 2) + Fraction(1, 2 ** 8000)} 0\n0 1/3\n" + DIAMOND_CONTROL
                    + "source\n0 0\ntarget\nvertices\n5 0\n")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(inst), "--max-steps", "3", "--out", str(out)]) == cli.EXIT_UNKNOWN
    assert "integers too long to write as text" in capsys.readouterr().err
    assert cli.main(["audit", str(inst), str(out)]) == cli.EXIT_REACHABLE


# the companion matrix of 8x^3 - 6x + 1 (eigenvalues cos 40, cos 160 and
# cos 280 degrees) with the octahedron as controls; the power step applies
CUBIC_TEXT = ("dim 3\nmatrix\n0 0 -1/8\n1 0 3/4\n0 1 0\ncontrol\nvertices\n"
              "1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n0 0 -1\nsource\n0 0 0\n"
              "target\nvertices\n{target}\n")


@pytest.mark.parametrize("target", [
    "4 0 0",  # separated by a rational axis: every entry is rational
    "-9/4 -3 -3",  # only a left eigenvector separates: tau, sup and min are cubic
])
def test_decide_writes_no_certificate_that_audit_refuses(tmp_path, monkeypatch, target):
    """decide keeps to the minimal-polynomial size rule of the audit's
    parser: with the ceiling lowered below a certificate's cubic entries,
    the audit refuses that certificate, and decide passes over its
    separator, so its verdict is unknown or a certificate that audits."""
    inst = tmp_path / "cubic.lti"
    inst.write_text(CUBIC_TEXT.format(target=target))
    flags = ["--max-steps", "2", "--max-candidates", "16", "--max-degree", "1", "--max-height", "1",
             "--extremal-budget", "1"]
    full = tmp_path / "full.json"
    assert cli.main(["decide", "--input", str(inst), *flags, "--out", str(full)]) == cli.EXIT_UNREACHABLE
    cubic = [n * bits for n, bits in minpoly_sizes(json.loads(full.read_text())) if n >= 3]
    assert bool(cubic) == (target != "4 0 0")
    monkeypatch.setattr(instances, "MINPOLY_SIZE_CEILING", min(cubic, default=1) - 1)
    if cubic:
        assert cli.main(["audit", str(inst), str(full)]) == cli.EXIT_ERROR
    out = tmp_path / "lowered.json"
    code = cli.main(["decide", "--input", str(inst), *flags, "--out", str(out)])
    assert code in (cli.EXIT_UNREACHABLE, cli.EXIT_UNKNOWN)
    assert cli.main(["audit", str(inst), str(out)]) == cli.EXIT_REACHABLE
    assert not any(n >= 3 for n, _ in minpoly_sizes(json.loads(out.read_text())))


def swinnerton_dyer(primes) -> list[int]:
    """Minimal polynomial of sqrt p1 + ... + sqrt pk: irreducible of degree
    2^k, yet split into factors of degree <= 2 modulo every prime."""
    total = sum(RealAlg.from_root(IntPoly((-p, 0, 1)), 1, p) for p in primes)
    return list(total.minpoly.coeffs)


def random_poly(seed: int, degree: int, bits: int) -> list[int]:
    rng = random.Random(seed)
    return [rng.randrange(2 ** (bits - 1), 2 ** bits) * rng.choice((1, -1))
            for _ in range(degree)] + [2 ** (bits - 1)]


@pytest.mark.parametrize("coeffs", [
    random_poly(5, 64, 32),
    swinnerton_dyer([2, 3, 5, 7, 11]),
], ids=["degree-64-32-bit", "swinnerton-dyer-32"])
def test_worst_admitted_minimal_polynomials_parse_quickly(coeffs):
    """The inputs that the size ceiling still admits and that cost parsing
    the most (under a second on one Xeon core) stay in a fixed time bound."""
    size = (len(coeffs) - 1) * max(abs(c).bit_length() for c in coeffs)
    assert size <= instances.MINPOLY_SIZE_CEILING
    exactnum.factor_int_poly.cache_clear()
    exactnum._sturm_chain_cached.cache_clear()
    start = time.monotonic()
    for lo, hi in (("-100", "100"), ("0", "1/1000")):
        try:
            instances.alg_from_json({"minpoly": coeffs, "lo": lo, "hi": hi})
        except instances.ParseError:
            pass
    assert time.monotonic() - start < 15


@pytest.mark.parametrize("field, value", [
    ("sup_value", {"minpoly": [-2, 1], "lo": "2", "hi": "2"}),  # a sup below the true 3
    ("min_over_q", {"minpoly": [-4, 1], "lo": "4", "hi": "4"}),  # a minimum above the true 3
    ("maximizer", ["100", "1"]),
    ("maximizer", ["2", "1"]),  # a vertex tied with the stored one in direction (0, 1)
    ("reduced_system", "abc"),
])
def test_cli_audit_rejects_tampered_certificate_field(tmp_path, field, value):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", unreachable, "--max-steps", "4", "--out", str(out)]) == 1
    data = json.loads(out.read_text())
    assert data["certificate"][field] != value
    data["certificate"][field] = value
    out.write_text(json.dumps(data))
    assert cli.main(["audit", unreachable, str(out)]) == cli.EXIT_AUDIT_FAILED


@pytest.mark.parametrize("fields", [
    {"tau": [{"minpoly": [-5, 1], "lo": "5", "hi": "5"}]},
    {"threshold": 10 ** 9},
    {"sup_value": {"minpoly": [-42, 1], "lo": "42", "hi": "42"}},
    {"tau": [{"minpoly": [-5, 1], "lo": "5", "hi": "5"}], "threshold": 10 ** 9,
     "sup_value": {"minpoly": [-42, 1], "lo": "42", "hi": "42"}},
], ids=["tau", "threshold", "sup_value", "all"])
def test_cli_audit_checks_every_field_of_an_empty_target_certificate(tmp_path, fields):
    """A = I/2, controls +-e1, target (0, 3): the span step leaves no target,
    and decide writes the zero direction with threshold 0 and supremum 0.
    An empty reduced target is no reason to leave the other fields
    unchecked."""
    path = tmp_path / "empty.lti"
    path.write_text(segment_instance_text(2).replace("vertices\n3 0\n", "vertices\n0 3\n"))
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(path), "--out", str(out)]) == cli.EXIT_UNREACHABLE
    data = json.loads(out.read_text())
    assert data["certificate"]["min_over_q"] is None
    assert cli.main(["audit", str(path), str(out)]) == cli.EXIT_REACHABLE
    for field, value in fields.items():
        assert data["certificate"][field] != value
        data["certificate"][field] = value
    out.write_text(json.dumps(data))
    assert cli.main(["audit", str(path), str(out)]) == cli.EXIT_AUDIT_FAILED


@functools.cache
def _quad_unreachable_verdict() -> str:
    sys_ = instances.parse_instance(QUAD_TEXT.format(target="0 3"))
    return instances.dump_json(instances.verdict_to_json(driver.decide(sys_, small_budgets())))


def _leaf_paths(node, path=()):
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return [path]
    return [p for key, child in items for p in _leaf_paths(child, path + (key,))]


def _object_paths(node, path=()):
    """The paths of every JSON object in node, node itself included."""
    own = [path] if isinstance(node, dict) else []
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return own + [p for key, child in items for p in _object_paths(child, path + (key,))]


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_audit_of_a_mutated_verdict_never_reads_as_a_verdict(data):
    """A leaf replaced, a key deleted or a key inserted anywhere: the audit
    never exits 1 or 2, and a deleted or inserted key never passes, since
    the reader requires every key and the audit compares the reduced
    system whole."""
    verdict = json.loads(_quad_unreachable_verdict())
    edit = data.draw(st.sampled_from(["replace", "delete", "insert"]))
    paths = _leaf_paths(verdict) if edit == "replace" else [p + (None,) for p in _object_paths(verdict)]
    path = data.draw(st.sampled_from(paths))
    node = verdict
    for key in path[:-1]:
        node = node[key]
    if edit == "replace":
        node[path[-1]] = data.draw(_JSON_VALUES)
    elif edit == "delete":
        del node[data.draw(st.sampled_from(sorted(node)))]
    else:
        node[data.draw(st.text(max_size=4).filter(lambda k: k not in node))] = data.draw(_JSON_VALUES)
    with tempfile.TemporaryDirectory() as tmp:
        inst = os.path.join(tmp, "u.lti")
        art = os.path.join(tmp, "v.json")
        with open(inst, "w") as fh:
            fh.write(QUAD_TEXT.format(target="0 3"))
        with open(art, "w") as fh:
            fh.write(json.dumps(verdict))
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = cli.main(["audit", inst, art])
    assert code in (cli.EXIT_REACHABLE, cli.EXIT_AUDIT_FAILED, cli.EXIT_HASH_MISMATCH,
                    cli.EXIT_ERROR), (path, code)
    if edit != "replace":
        assert code in (cli.EXIT_AUDIT_FAILED, cli.EXIT_ERROR), (edit, path, code)
    assert "Traceback" not in err.getvalue()


def _shape_edit(verdict: dict, edit: str) -> dict:
    """The quad verdict edited into a shape no command writes."""
    cert = verdict["certificate"]
    if edit == "nested_hash":
        cert["instance_sha256"] = "deadbeef"
    elif edit == "nested_kind":
        cert["kind"] = "witness"
    elif edit == "warnings":
        verdict["warnings"] = ["anything at all"]
    elif edit == "extra_key":
        verdict["note"] = "unchecked"
    elif edit == "certificate_at_top_level":
        verdict.update(verdict.pop("certificate"))
    else:  # the bare certificate object that certify --out once wrote
        verdict = {"kind": "certificate", "instance_sha256": verdict["instance_sha256"], **cert}
    return verdict


@pytest.mark.parametrize("edit", ["nested_hash", "nested_kind", "warnings", "extra_key",
                                  "certificate_at_top_level", "bare_certificate"])
def test_cli_audit_refuses_a_shape_no_command_writes(tmp_path, capsys, edit):
    inst = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    out.write_text(json.dumps(_shape_edit(json.loads(_quad_unreachable_verdict()), edit)))
    assert cli.main(["audit", inst, str(out)]) in (cli.EXIT_AUDIT_FAILED, cli.EXIT_ERROR)
    assert "Traceback" not in capsys.readouterr().err


class _ReadLog(dict):
    """A JSON object that logs the path of every key read from it."""

    def __init__(self, data, path, log):
        super().__init__(data)
        self.path, self.log = path, log

    def __getitem__(self, key):
        self.log.add(self.path + (key,))
        return super().__getitem__(key)


def _logged(node, log, path=()):
    if isinstance(node, dict):
        return _ReadLog({k: _logged(v, log, path + (k,)) for k, v in node.items()}, path, log)
    if isinstance(node, list):
        return [_logged(v, log, path + (i,)) for i, v in enumerate(node)]
    return node


# values the reader takes whole: the audit compares the reduced system with
# its own, and an unknown verdict's budgets explain it without a claim
WHOLE = ("reduced_system", "budgets_exhausted")


def _key_paths(node, path=()):
    """The path of every key in node, none below a value read whole."""
    if isinstance(node, list):
        return {p for i, child in enumerate(node) for p in _key_paths(child, path + (i,))}
    out = set()
    for key, child in node.items() if isinstance(node, dict) else ():
        out.add(path + (key,))
        if key not in WHOLE:
            out |= _key_paths(child, path + (key,))
    return out


@pytest.mark.parametrize("target, budgets, kind", [
    ((1, 1), {}, "reachable"),
    ((0, 3), {}, "unreachable"),
    ((F(7, 3), 1), dict(max_steps=1, max_candidates=8), "unknown"),
])
def test_the_reader_reads_exactly_the_keys_the_writer_writes(target, budgets, kind):
    v = driver.decide(quad_system(GenPolyhedron.point(vec(*target))), small_budgets(**budgets))
    assert v.kind == kind
    body = json.loads(instances.dump_json(instances.verdict_to_json(v)))
    log = set()
    instances.verdict_from_json(_logged(body, log))
    assert log == _key_paths(body)


def test_cli_forward_and_decide_write_the_same_reachable_verdict(tmp_path):
    inst = write_instance(tmp_path, "r.lti", "1 1")
    fwd, dec = tmp_path / "forward.json", tmp_path / "decide.json"
    assert cli.main(["forward", "--input", inst, "--out", str(fwd)]) == cli.EXIT_REACHABLE
    assert cli.main(["decide", "--input", inst, "--out", str(dec)]) == cli.EXIT_REACHABLE
    assert fwd.read_bytes() == dec.read_bytes()
    for out in (fwd, dec):
        assert cli.main(["audit", inst, str(out)]) == cli.EXIT_REACHABLE


def test_cli_decide_writes_warnings_only_to_stderr_on_a_decided_verdict(tmp_path, capsys):
    """Union controls disable the certificate search; the reachable verdict
    of such a system carries no warnings key, and stderr names the reason."""
    inst = tmp_path / "union.lti"
    inst.write_text("dim 2\nmatrix\n1/2 0\n0 1/2\ncontrol\nvertices\n1 0\n0 1\n"
                    "control\nvertices\n-1 0\n0 -1\nsource\n0 0\ntarget\nvertices\n1 0\n")
    out = tmp_path / "verdict.json"
    assert cli.main(["decide", "--input", str(inst), "--out", str(out)]) == cli.EXIT_REACHABLE
    assert "forward search only" in capsys.readouterr().err
    assert sorted(json.loads(out.read_text())) == ["instance_sha256", "verdict", "witness"]
    assert cli.main(["audit", str(inst), str(out)]) == cli.EXIT_REACHABLE


def test_cli_audit_unexpected_error_is_not_a_verdict(tmp_path, monkeypatch):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    cli.main(["decide", "--input", unreachable, "--max-steps", "4", "--out", str(out)])

    def broken(sys_, artifact):
        raise RuntimeError("hostile artifact")

    monkeypatch.setattr(driver, "audit", broken)
    assert cli.main(["audit", unreachable, str(out)]) == cli.EXIT_AUDIT_FAILED


@pytest.mark.parametrize("command", ["decide", "certify", "forward"])
def test_cli_internal_error_is_not_a_verdict(tmp_path, capsys, monkeypatch, command):
    inst = write_instance(tmp_path, "u.lti", "0 3")

    def broken(*args, **kwargs):
        raise RuntimeError("internal fault")

    monkeypatch.setattr(driver, "decide", broken)
    monkeypatch.setattr(forward, "reach_within", broken)
    capsys.readouterr()
    assert cli.main([command, "--input", inst, "--max-steps", "2"]) == cli.EXIT_ERROR
    err = capsys.readouterr().err
    assert err == "error: RuntimeError: internal fault\n"


@pytest.mark.parametrize("command", ["decide", "certify"])
def test_cli_artifact_error_prints_no_verdict(tmp_path, capsys, monkeypatch, command):
    # the artifact text is formed before the verdict is reported, so a
    # failure to form it exits 5 with no verdict line on stdout
    inst = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"

    def refuse(body):
        raise ValueError("Exceeds the limit (4300 digits) for integer string conversion")

    monkeypatch.setattr(instances, "dump_json", refuse)
    capsys.readouterr()
    assert cli.main([command, "--input", inst, "--max-steps", "4", "--out", str(out)]) == cli.EXIT_ERROR
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: Exceeds the limit (4300 digits) for integer string conversion\n"
    assert not out.exists()


def test_cli_builds_one_parser_per_process(tmp_path, capsys, monkeypatch):
    """main builds its parser on the first call and reuses it: a usage
    error after a successful call reads as it does first, and a function
    patched after the first call still takes effect."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    fresh = subprocess.run([sys.executable, "-c", "import ltireach.cli as c; print(c._PARSER is None)"],
                           capture_output=True, text=True, env=env, timeout=60)
    assert fresh.stdout == "True\n", fresh.stderr

    built = []
    build = cli.build_parser

    def counting():
        built.append(1)
        return build()

    monkeypatch.setattr(cli, "_PARSER", None)
    monkeypatch.setattr(cli, "build_parser", counting)
    inst = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    assert cli.main(["nonsense"]) == cli.EXIT_ERROR
    first_error = capsys.readouterr().err
    assert cli.main(["decide", "--input", inst, "--max-steps", "4", "--out", str(out)]) == cli.EXIT_UNREACHABLE
    assert cli.main(["audit", inst, str(out)]) == cli.EXIT_REACHABLE
    capsys.readouterr()
    assert cli.main(["nonsense"]) == cli.EXIT_ERROR
    assert capsys.readouterr().err == first_error
    assert cli.main(["decide", "--input", inst, "--max-steps", "-1"]) == cli.EXIT_ERROR
    assert "non-negative" in capsys.readouterr().err
    monkeypatch.setattr(driver, "audit", lambda sys_, artifact: False)
    assert cli.main(["audit", inst, str(out)]) == cli.EXIT_AUDIT_FAILED
    assert len(built) == 1


def test_cli_out_of_process_audit(tmp_path):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    cli.main(["decide", "--input", unreachable, "--max-steps", "4", "--out", str(out)])
    proc = fresh_cli("audit", unreachable, out, timeout=60)
    assert proc.returncode == 0, proc.stderr
