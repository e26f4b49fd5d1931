from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.instances import (
    ParseError,
    alg_from_json,
    alg_to_json,
    dump_json,
    emit_instance,
    instance_sha256,
    load_json,
    parse_instance,
    witness_from_json,
    witness_to_json,
)
from ltireach.linalg import RatMatrix, vec
from ltireach.preprocess import LtiSystem
from oracles import int_poly, rat, sign

F = Fraction

QUAD_TEXT = """\
# quadrilateral example
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
1 1
"""


def test_parse_quad_instance():
    sys = parse_instance(QUAD_TEXT)
    assert sys.a == RatMatrix.from_rows([[F(1, 3), 0], [0, F(2, 3)]])
    assert len(sys.controls.components) == 1
    assert set(sys.controls.components[0].vertices) == {
        (F(-2), F(-1)), (F(0), F(-1)), (F(0), F(1)), (F(2), F(1))}
    assert sys.source == (F(0), F(0))
    assert sys.target.vertices == ((F(1), F(1)),)


def test_emit_parse_roundtrip():
    sys = parse_instance(QUAD_TEXT)
    text = emit_instance(sys)
    again = parse_instance(text)
    assert again == sys
    assert emit_instance(again) == text  # byte-stable after canonicalization


def test_roundtrip_with_union_and_lines():
    a = RatMatrix.from_rows([[0, 1, 0], [-1, 0, 0], [0, 0, 2]])
    zero = GenPolyhedron.point(vec(0, 0, 0))
    affine = GenPolyhedron(3, (vec(0, 0, 1),), (), (vec(0, 1, 0),))
    sys = LtiSystem(a, ControlSet((zero, affine)), vec(0, 1, 0),
                    GenPolyhedron.point(vec(0, 0, 1)))
    text = emit_instance(sys)
    again = parse_instance(text)
    assert again == sys
    assert instance_sha256(again) == instance_sha256(sys)


def test_parse_error_zero_denominator():
    bad = QUAD_TEXT.replace("1/3", "1/0")
    with pytest.raises(ParseError) as err:
        parse_instance(bad)
    assert "line" in str(err.value)


def test_parse_error_wrong_arity():
    bad = QUAD_TEXT.replace("0 0", "0 0 0")
    with pytest.raises(ParseError):
        parse_instance(bad)


def test_parse_error_missing_section():
    with pytest.raises(ParseError):
        parse_instance("dim 2\nmatrix\n1 0\n0 1\n")


_TOKENS = ("dim 0", "dim -1", "dim 3", "dim x", "matrix", "control", "vertices", "rays",
           "lines", "source", "target", "0", "1/0", "0 0", "0 0 0", "1/3 -2", "x y", "")


@st.composite
def _mangled_quad(draw):
    """The quad instance with a few lines replaced, dropped or repeated."""
    lines = QUAD_TEXT.splitlines()
    for _ in range(draw(st.integers(1, 3))):
        i = draw(st.integers(0, len(lines) - 1))
        edit = draw(st.sampled_from(["replace", "drop", "repeat"]))
        if edit == "replace":
            lines[i] = draw(st.sampled_from(_TOKENS) | st.text(max_size=12))
        elif edit == "drop":
            del lines[i]
            if not lines:
                break
        else:
            lines.insert(i, lines[i])
    return "\n".join(lines)


@pytest.mark.parametrize("text, line", [
    (QUAD_TEXT.replace("control\nvertices\n", "control\n-2 -1\nvertices\n"), 7),
    (QUAD_TEXT.replace("target\nvertices\n", "target\n1 1\nvertices\n"), 15),
    (QUAD_TEXT + "matrix\n1 0\n0 1\n", 17),
    (QUAD_TEXT + "source\n0 0\n", 17),
    (QUAD_TEXT + "target\nvertices\n2 2\n", 17),
], ids=["control-row", "target-row", "matrix-twice", "source-twice", "target-twice"])
def test_misplaced_row_or_repeated_section_is_a_parse_error(tmp_path, text, line):
    """A row before the first vertices/rays/lines header, in a control or
    the target section, and a second matrix, source or target section are
    refused with the line they are on, and the CLI exits 5."""
    from ltireach import cli

    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line_no == line
    path = tmp_path / "bad.lti"
    path.write_text(text)
    assert cli.main(["decide", "--input", str(path)]) == 5


@settings(max_examples=200, deadline=None)
@given(st.text(max_size=200) | _mangled_quad())
def test_parse_instance_parses_or_raises_parse_error(text):
    try:
        sys_ = parse_instance(text)
    except ParseError:
        return
    assert isinstance(sys_, LtiSystem)


def test_alg_json_roundtrip():
    from ltireach.exactnum import sturm_isolate_real_roots

    r = sturm_isolate_real_roots(int_poly(-2, 0, 1))[-1]
    again = alg_from_json(alg_to_json(r))
    assert sign(again - r) == 0
    q = alg_from_json(alg_to_json(F(5, 3)))
    assert rat(q) == F(5, 3)


def test_rational_alg_json_golden():
    """A Fraction is written as the degree-1 number the format has always
    carried: minpoly [-p, q] and lo = hi = p/q, byte for byte."""
    golden = {
        F(0): '{\n "hi": "0",\n "lo": "0",\n "minpoly": [\n  0,\n  1\n ]\n}\n',
        F(-5, 3): '{\n "hi": "-5/3",\n "lo": "-5/3",\n "minpoly": [\n  5,\n  3\n ]\n}\n',
        F(7): '{\n "hi": "7",\n "lo": "7",\n "minpoly": [\n  -7,\n  1\n ]\n}\n',
    }
    for q, text in golden.items():
        assert dump_json(alg_to_json(q)) == text
        assert rat(alg_from_json(load_json(text))) == q


def test_irrational_entry_counts_its_roots_once(monkeypatch):
    """Reading an irrational entry isolates its root with one closed Sturm
    count: the owning factor the count finds is not validated again."""
    from ltireach import exactnum

    calls = []
    count = exactnum._count_roots_closed

    def counted(*args):
        calls.append(args)
        return count(*args)

    monkeypatch.setattr(exactnum, "_count_roots_closed", counted)
    r = alg_from_json({"minpoly": [-2, 0, 1], "lo": "1", "hi": "2"})
    assert r.minpoly == int_poly(-2, 0, 1) and len(calls) == 1


def test_witness_json_roundtrip():
    from ltireach.forward import reach_within, verify_witness

    sys = parse_instance(QUAD_TEXT)
    w = reach_within(sys, 4)
    data = witness_to_json(w, instance_sha256(sys))
    again = witness_from_json(data)
    assert again == w
    assert verify_witness(sys, again)


def test_alg_json_is_canonical():
    from ltireach.exactnum import sturm_isolate_real_roots

    r = sturm_isolate_real_roots(int_poly(-2, 0, 1))[-1]
    before = dump_json(alg_to_json(r))
    r.refine(20)
    assert dump_json(alg_to_json(r)) == before
    # the same value reached by arithmetic serializes to the same bytes
    same = (r + 1) * (r - 1) * r  # (r^2 - 1) r = r
    assert sign(same - r) == 0
    assert dump_json(alg_to_json(same)) == before


def test_artifact_loaders_raise_parse_error():
    from ltireach.instances import certificate_from_json

    good = {"minpoly": [-2, 0, 1], "lo": "1", "hi": "2"}
    for bad in (7, {"minpoly": [-2, 0, 1], "lo": "1"}, {"minpoly": "x", "lo": "1", "hi": "2"},
                {"minpoly": [-2, 0, 1], "lo": 1, "hi": "2"}, {"minpoly": [-2, 0, 1], "lo": "3", "hi": "4"},
                {"minpoly": [0], "lo": "0", "hi": "0"}, {"minpoly": [1, True], "lo": "0", "hi": "1"}):
        with pytest.raises(ParseError):
            alg_from_json(bad)
    assert alg_from_json(good).degree == 2
    for bad in ({}, {"horizon": 1, "steps": [{"component": 0}]},
                {"horizon": 1, "steps": [{"component": 0, "vertex_coeffs": ["1/0"],
                                          "ray_coeffs": [], "line_coeffs": []}]}):
        with pytest.raises(ParseError):
            witness_from_json(bad)
    cert = {"tau": [good], "bound": good, "maximizer": ["1"], "threshold": 0,
            "sup_value": good, "min_over_q": None}
    assert certificate_from_json(cert).threshold == 0
    for key, value in (("tau", 7), ("threshold", "0"), ("threshold", 1.5), ("min_over_q", []),
                       ("maximizer", "1")):
        with pytest.raises(ParseError):
            certificate_from_json({**cert, key: value})
