import json
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ltireach import cli, driver, forward, instances, render
from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.linalg import RatMatrix, vec
from ltireach.preprocess import LtiSystem

F = Fraction

DIAG_A = RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
QUAD_U = GenPolyhedron.polytope([vec(-2, -1), vec(0, -1), vec(0, 1), vec(2, 1)])


def quad_system(target):
    return LtiSystem(DIAG_A, ControlSet.single(QUAD_U), vec(0, 0), target)


def small_budgets(**kw):
    base = dict(max_steps=6, max_candidates=64, max_degree=2, max_height=2,
                extremal_budget=3, workers=1)
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
    assert v.certificate.sup_value.to_rational() == 3
    assert v.certificate.min_over_q.to_rational() == F(7, 2)


def test_decide_boundary_point_unreachable():
    v = driver.decide(quad_system(GenPolyhedron.point(vec(0, 3))), small_budgets())
    assert v.kind == "unreachable"
    assert v.certificate.sup_value.to_rational() == 3
    assert v.certificate.min_over_q.to_rational() == 3


def test_decide_non_simple_degrades_with_warning():
    rot = RatMatrix.from_rows([[F(3, 10), F(-2, 5)], [F(2, 5), F(3, 10)]])
    seg = GenPolyhedron.polytope([vec(0, 0), vec(1, 0)])
    sys_ = LtiSystem(rot, ControlSet.single(seg), vec(0, 0), GenPolyhedron.point(vec(2, 2)))
    v = driver.decide(sys_, small_budgets())
    assert v.kind == "unknown"
    assert any("real spectrum" in w for w in v.warnings)
    assert any("forward search only" in w for w in v.warnings)


def test_decide_threaded_agrees_on_kind():
    target = GenPolyhedron.point(vec(0, 3))
    single = driver.decide(quad_system(target), small_budgets())
    threaded = driver.decide(quad_system(target), small_budgets(workers=2))
    assert single.kind == threaded.kind == "unreachable"
    target2 = GenPolyhedron.point(vec(1, 1))
    assert driver.decide(quad_system(target2), small_budgets(workers=2)).kind == "reachable"


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
    assert [x.interval() for x in a.certificate.tau] == [x.interval() for x in b.certificate.tau]
    assert a.certificate.threshold == b.certificate.threshold
    assert instances.verdict_to_json(a) == instances.verdict_to_json(b)


def test_decide_unknown_when_budgets_tiny():
    # reachable only at horizon 2, but forward budget stops at 1 and the
    # point target is inside the reachable set so no certificate exists
    target = GenPolyhedron.point(vec(F(7, 3), 1))
    v = driver.decide(quad_system(target), small_budgets(max_steps=1, max_candidates=8))
    assert v.kind == "unknown"
    assert v.exhausted["max_steps"] == 1


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


def test_cli_decide_writes_auditable_verdict(tmp_path):
    unreachable = write_instance(tmp_path, "u.lti", "0 3")
    out = tmp_path / "verdict.json"
    code = cli.main(["decide", "--input", unreachable, "--max-steps", "4",
                     "--single-worker", "--out", str(out)])
    assert code == 1
    assert cli.main(["audit", unreachable, str(out)]) == 0


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
