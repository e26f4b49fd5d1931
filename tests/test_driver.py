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
from ltireach.certify import enumerate_algebraic_vectors, extremal_candidates
from ltireach.exactnum import IntPoly, RealAlg, interval
from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.linalg import RatMatrix, vec
from ltireach.preprocess import LtiSystem, check_simple
from oracles import rat

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
    a = RatMatrix.diag(0)
    u = GenPolyhedron.polytope([vec(-1), vec(1)])
    sys_ = LtiSystem(a, ControlSet.single(u), vec(0), GenPolyhedron.point(vec(5)))
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "unreachable"
    assert v.certificate.min_over_q is None
    # the degenerate certificate must survive the from-scratch audit too
    payload = instances.verdict_to_json(v)
    assert driver.audit(sys_, payload) is True
    # but not against a system whose reduced target is nonempty
    near = LtiSystem(a, ControlSet.single(u), vec(0), GenPolyhedron.point(vec(F(1, 2))))
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
# of number representation must leave every artifact byte unchanged.
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
     "1d1af213bb93e397f603645a859a9ebe526be97edde24b4970e3150ff5e0f54c"),
    # algebraic_2d: hex controls, interior target
    ("dim 2\nmatrix\n1/2 -1/8\n-1 1/2\n" + HEX_CONTROL
     + "source\n0 0\ntarget\nvertices\n-1/2 -1/4\n", ALGEBRAIC_BUDGETS, "reachable",
     "d3789219fa3ef6428cdd71af17d344b5067a8f1d0897d34469fe1d7774705fd0"),
    # rational_batch: a point outside the reachable closure
    ("dim 2\nmatrix\n-7/10 18/5\n-3/10 7/5\ncontrol\nvertices\n-2 0\n0 -1\n2 0\n0 1\n"
     "source\n0 0\ntarget\nvertices\n51/2 73/8\n", RATIONAL_BUDGETS, "unreachable",
     "2ca2ea857b5b154867f3d1126a4b7e2656ac4ed8d7d0104e47f68a78d1b35de7"),
    # rational_batch: a diagonal system and a grid point it cannot reach
    ("dim 2\nmatrix\n1/5 0\n0 3/10\n" + DIAMOND_CONTROL
     + "source\n0 0\ntarget\nvertices\n4 -3\n", RATIONAL_BUDGETS, "unreachable",
     "78e54efd42e9c21857cdbe313f5efec2a27d953bb838a31da930294338801788"),
    # rational_batch: a point reached in one step
    ("dim 2\nmatrix\n-17/5 21/10\n-7 43/10\n" + DIAMOND_CONTROL
     + "source\n0 0\ntarget\nvertices\n-1/2 1/2\n", RATIONAL_BUDGETS, "reachable",
     "00f6dbda377a0049521a58a6eaa87a91361b0aa9280639582d818a0641ff5d6f"),
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
    s, form = driver._prepare_certification(sys_, check_simple(sys_))
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


@pytest.mark.parametrize("shift", ["negative", "above_fresh", "huge"])
def test_audit_rejects_out_of_range_threshold(shift):
    sys_ = quad_system(GenPolyhedron.point(vec(0, 3)))
    v = driver.decide(sys_, small_budgets())
    payload = instances.verdict_to_json(v)
    payload["certificate"]["threshold"] = {"negative": -5, "above_fresh": v.certificate.threshold + 1,
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


@pytest.mark.parametrize("a, power, fit", [
    (DIAG_A, 1, False),
    (RatMatrix.diag(F(-1, 3), F(2, 3)), 2, False),  # a negative eigenvalue: M = 2
    (RatMatrix.diag(0, F(2, 3)), 1, True),  # singular: the invertibility step
], ids=["invertible", "negative_eigenvalue", "singular"])
def test_decide_and_audit_form_one_characteristic_polynomial(monkeypatch, a, power, fit):
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
    assert (v.simple_form.power, v.simple_form.fit_applied) == (power, fit)
    changed = v.simple_form.a_reduced != a
    assert changed == (power > 1 or fit)
    assert calls[0] is a and len(calls) == 1 + changed
    calls.clear()
    assert driver.audit(sys_, instances.verdict_to_json(v)) is True
    assert calls[0] is a and len(calls) == 1 + changed


def test_audit_unknown_is_vacuous():
    sys_ = quad_system(GenPolyhedron.point(vec(1, 1)))
    payload = {"verdict": "unknown", "instance_sha256": instances.instance_sha256(sys_)}
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
    render.render_partial_reach(sys_, 6, str(out), {"tau": (0.0, 1.0), "bound": 3.0})
    assert "<line" in out.read_text()


def test_render_rejects_non_2d():
    a = RatMatrix.identity(3).scale(F(1, 2))
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



def cross_6d_instance_text() -> str:
    """A = diag(0, 1/2, ..., 1/2), the cross polytope as controls and the
    point (5, ..., 5) as target: simple, so certifiable, but normalizing
    it needs facets of a 6-D polytope, above the enumeration ceiling."""
    rows = [" ".join("0" if j != i else ("0" if i == 0 else "1/2") for j in range(6)) for i in range(6)]
    verts = [" ".join(str(s) if j == i else "0" for j in range(6)) for i in range(6) for s in (1, -1)]
    return "\n".join(["dim 6", "matrix", *rows, "control", "vertices", *verts,
                      "source", "0 0 0 0 0 0", "target", "vertices", "5 5 5 5 5 5", ""])


def test_decide_above_the_facet_ceiling_falls_back_to_forward_search(tmp_path, capsys):
    path = tmp_path / "cross6.lti"
    path.write_text(cross_6d_instance_text())
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-m", "ltireach.cli", "decide", "--input", str(path), "--out", str(out)],
        capture_output=True, text=True, env=env, timeout=30)
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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    start = time.monotonic()
    proc = subprocess.run([sys.executable, "-m", "ltireach.cli", "audit", unreachable, str(out)],
                          capture_output=True, text=True, env=env, timeout=60)
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
    ("bound", {"minpoly": [-5, 1], "lo": "5", "hi": "5"}),
    ("bound", {"minpoly": [1, 1], "lo": "-1", "hi": "-1"}),
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


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_cli_audit_of_a_mutated_verdict_never_reads_as_a_verdict(data):
    verdict = json.loads(_quad_unreachable_verdict())
    path = data.draw(st.sampled_from(_leaf_paths(verdict)))
    node = verdict
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = data.draw(_JSON_VALUES)
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
    assert "Traceback" not in err.getvalue()


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
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(__file__), "..", "src")] +
        env.get("PYTHONPATH", "").split(os.pathsep))
    proc = subprocess.run(
        [sys.executable, "-m", "ltireach.cli", "audit", unreachable, str(out)],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
