from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltireach.geometry import ControlSet, GenPolyhedron
from ltireach.instances import (
    ParseError,
    Rationals,
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
    # a system of dimension 0, whose rows the text would write as blank
    # lines, cannot be built, so it is never emitted or hashed
    empty = GenPolyhedron(0, ((),))
    with pytest.raises(ValueError):
        LtiSystem(RatMatrix.zeros(0, 0), ControlSet.single(empty), (), empty)


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


DIM1_TEXT = "dim 1\nmatrix\n4/5\ncontrol\nvertices\n1\n-1\nsource\n0\ntarget\nvertices\n4\n"


@pytest.mark.parametrize("text, line", [
    (DIM1_TEXT.replace("dim 1", "dimension 1 extra"), 1),
    (DIM1_TEXT.replace("dim 1", "dim 1 extra"), 1),
    (DIM1_TEXT.replace("dim 1", "dim"), 1),
    (DIM1_TEXT.replace("dim 1", "dim -1"), 1),
    (DIM1_TEXT.replace("dim 1", "dim +1"), 1),
    (DIM1_TEXT.replace("dim 1", "dim 1.0"), 1),
    (DIM1_TEXT.replace("dim 1", "dim \u0661"), 1),
    ("dim 0\nmatrix\ncontrol\nvertices\n\nsource\n\ntarget\nvertices\n\n", 1),
    (DIM1_TEXT.replace("4/5", "1_0"), 3),
    (DIM1_TEXT.replace("4/5", "\u0661"), 3),
    (DIM1_TEXT.replace("4/5", "\uff14/5"), 3),
    (DIM1_TEXT.replace("4/5", "0.8"), 3),
    (DIM1_TEXT.replace("4/5", "4/-5"), 3),
    (DIM1_TEXT.replace("4/5", "4/5/1"), 3),
    (DIM1_TEXT.replace("4/5", "--4/5"), 3),
    (DIM1_TEXT.replace("4/5", "4/+5"), 3),
    (DIM1_TEXT.replace("4/5", "4e0"), 3),
    (DIM1_TEXT.replace("target\nvertices\n4", "target\nvertices\n0x4"), 12),
    (DIM1_TEXT.replace("dim 1", "dim\u00a01"), 1),
    (DIM1_TEXT.replace("4/5", "4/5\u2028"), 3),
    (DIM1_TEXT.replace("vertices\n1\n-1", "vertices\n1\x1c-1"), 6),
], ids=["dimension-word", "dim-extra-token", "dim-no-number", "dim-negative", "dim-signed", "dim-decimal",
        "dim-arabic-indic", "dim-zero", "underscore", "arabic-indic-digit", "fullwidth-digit", "decimal",
        "signed-denominator", "two-slashes", "two-signs", "plus-denominator", "exponent", "hex",
        "no-break-space", "unicode-line-separator", "ascii-file-separator"])
def test_text_outside_the_format_is_a_parse_error(tmp_path, text, line):
    """The first line is exactly 'dim N', every entry an optional sign and
    ASCII digits, optionally '/' and ASCII digits, entries are separated
    by ASCII blanks and lines end at a newline: anything else is refused
    with its line, and the CLI exits 5."""
    from ltireach import cli

    with pytest.raises(ParseError) as err:
        parse_instance(text)
    assert err.value.line_no == line
    path = tmp_path / "bad.lti"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["decide", "--input", str(path)]) == 5


def test_numerals_in_the_format_parse():
    """Signs, leading zeros, a denominator of 1, tabs and CRLF line ends
    are in the grammar."""
    sys = parse_instance(DIM1_TEXT.replace("4/5", "+008/010").replace("vertices\n1\n-1", "vertices\n1/1\n-01"))
    assert sys == parse_instance(DIM1_TEXT)
    assert parse_instance(DIM1_TEXT.replace("dim 1", "dim 01")) == sys
    assert parse_instance(DIM1_TEXT.replace("dim 1", "dim\t 1").replace("\n", " \r\n")) == sys


def test_artifact_rationals_follow_the_instance_grammar():
    """Rational strings in artifacts are read by the same grammar."""
    step = {"component": 0, "vertex_coeffs": ["1"], "ray_coeffs": [], "line_coeffs": []}
    assert witness_from_json({"horizon": 1, "steps": [step]}, Rationals()).steps[0].vertex_coeffs == (F(1),)
    for bad in ("1_0", "\u0661", " 1", "1 ", "1.0", "1/-1", "+-1", ""):
        with pytest.raises(ParseError):
            witness_from_json({"horizon": 1, "steps": [{**step, "vertex_coeffs": [bad]}]}, Rationals())
        with pytest.raises(ParseError):
            alg_from_json({"minpoly": [-2, 0, 1], "lo": bad, "hi": "2"}, Rationals())


def test_benchmark_instances_parse_to_their_systems():
    """Every instance of rounds 0-1 of each benchmark workload at seed 1
    parses back to the system it was written from."""
    from test_tooling import load_workloads

    workloads = load_workloads()
    count = 0
    for wl in workloads.WORKLOADS.values():
        stream = workloads.rounds(wl, 1)
        for _ in range(2):
            for inst in next(stream):
                assert parse_instance(inst.text) == inst.system
                count += 1
    assert count >= 50


def test_constructors_keep_the_fractions_they_are_given():
    """A Fraction handed to a constructor is kept, not formed again; ints,
    strings and floats still convert."""
    from ltireach.exactnum import IntPoly, RealAlg, rat_to_str

    x, y, z, w = F(1, 3), F(-2, 5), F(7), F(0)
    for m in (RatMatrix(2, 2, (x, y, z, w)), RatMatrix.from_rows([[x, y], [z, w]])):
        assert all(a is b for a, b in zip(m.row(0) + m.row(1), (x, y, z, w), strict=True))
        assert m.get(0, 1) is y and m.col(0)[1] is z
        assert all(a is b for a, b in zip(sum(m.to_rows(), []), (x, y, z, w), strict=True))
    assert RatMatrix.from_rows([[1, "1/2"], [0.5, F(2)]]).to_rows() == [[F(1), F(1, 2)], [F(1, 2), F(2)]]
    (v,) = GenPolyhedron.point((x, y)).vertices
    assert v[0] is x and v[1] is y
    verts = GenPolyhedron.polytope([(x, w), (z, y)]).vertices
    assert {id(e) for v in verts for e in v} == {id(x), id(w), id(z), id(y)}
    assert GenPolyhedron.point((1, "2/3")).vertices == ((F(1), F(2, 3)),)
    lo, hi = F(1), F(3, 2)
    r = RealAlg(IntPoly((-2, 0, 1)), lo, hi)
    assert r._lo is lo and r._hi is hi
    assert rat_to_str(x) == "1/3" and rat_to_str(3) == "3"


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
    again = alg_from_json(alg_to_json(r), Rationals())
    assert sign(again - r) == 0
    q = alg_from_json(alg_to_json(F(5, 3)), Rationals())
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
        assert rat(alg_from_json(load_json(text), Rationals())) == q


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
    r = alg_from_json({"minpoly": [-2, 0, 1], "lo": "1", "hi": "2"}, Rationals())
    assert r.minpoly == int_poly(-2, 0, 1) and len(calls) == 1


def test_witness_json_roundtrip():
    from ltireach.forward import reach_within, verify_witness

    sys = parse_instance(QUAD_TEXT)
    w = reach_within(sys, 4)
    data = witness_to_json(w)
    again = witness_from_json(data, Rationals())
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
                {"minpoly": [0], "lo": "0", "hi": "0"}, {"minpoly": [1, True], "lo": "0", "hi": "1"},
                {**good, "kind": "alg"}):
        with pytest.raises(ParseError):
            alg_from_json(bad, Rationals())
    assert alg_from_json(good, Rationals()).degree == 2
    for bad in ({}, {"horizon": 1, "steps": [{"component": 0}]}, {"horizon": 0, "steps": [], "kind": "witness"},
                {"horizon": 1, "steps": [{"component": 0, "vertex_coeffs": ["1/0"],
                                          "ray_coeffs": [], "line_coeffs": []}]}):
        with pytest.raises(ParseError):
            witness_from_json(bad, Rationals())
    cert = {"tau": [good], "maximizer": ["1"], "threshold": 0,
            "sup_value": good, "min_over_q": None, "reduced_system": {}}
    assert certificate_from_json(cert, Rationals()).threshold == 0
    for key, value in (("tau", 7), ("threshold", "0"), ("threshold", 1.5), ("min_over_q", []),
                       ("maximizer", "1"), ("bound", good)):
        with pytest.raises(ParseError):
            certificate_from_json({**cert, key: value}, Rationals())


# the benchmark rounds whose instances and verdict bodies are compared with
# the reference writers, by workload: (rounds, seeds)
BENCH_ROUNDS = {"forward_union": 10, "algebraic_2d": 8, "rational_batch": 35}


def test_writers_match_the_references_on_the_bench():
    """On every instance and verdict body of the bench rounds above at
    seeds 1 and 7, emit_instance writes what rat_to_str on every entry
    wrote, for the system the benchmark built and for the one parsed back
    from its text, and dump_json writes json.dumps's bytes."""
    from test_tooling import load_workloads

    from ltireach import driver
    from ltireach.instances import verdict_to_json
    from oracles import reference_dump_json, reference_emit_instance

    workloads = load_workloads()
    kinds = set()
    for name, count in BENCH_ROUNDS.items():
        wl = workloads.WORKLOADS[name]
        for seed in (1, 7):
            stream = workloads.rounds(wl, seed)
            for _ in range(count):
                for inst in next(stream):
                    sys_ = parse_instance(inst.text)
                    assert emit_instance(sys_) == reference_emit_instance(sys_) == inst.text
                    assert emit_instance(inst.system) == reference_emit_instance(inst.system)
                    body = verdict_to_json(driver.decide(sys_, wl.budgets))
                    assert dump_json(body) == reference_dump_json(body)
                    kinds.add(body["verdict"])
    assert kinds == {"reachable", "unreachable", "unknown"}


_CERT = {"tau": [{"minpoly": [-2, 0, 1], "lo": "1", "hi": "2"}], "maximizer": ["1", "-1/2"], "threshold": 3,
         "sup_value": {"minpoly": [-7, 3], "lo": "7/3", "hi": "7/3"}, "min_over_q": None,
         "reduced_system": {"dim": 1, "matrix": [["1/2"]], "control_vertices": [["-1"], ["1"]],
                            "target_vertices": [], "power": 1, "span_applied": False}}


@pytest.mark.parametrize("body", [
    {"verdict": "unknown", "instance_sha256": "ab", "budgets_exhausted": {},
     "warnings": ["café – 日本 \U0001f600", 'say "no" \\ twice', "tab\tnew\nline\r\x00\x1f\x7f",
                  "", "</script>"]},
    {"verdict": "unknown", "instance_sha256": "", "warnings": [],
     "budgets_exhausted": {"max_steps": 0, "enumeration": [], "nested": {"b": [[]], "a": {}}, "zß": -10**40}},
    {"verdict": "unreachable", "instance_sha256": "00", "certificate": _CERT},
    {"verdict": "reachable", "instance_sha256": "ff",
     "witness": {"horizon": 0, "steps": [{"component": 0, "vertex_coeffs": [], "ray_coeffs": [],
                                          "line_coeffs": []}]}},
    [True, False, None, 0, -1, (1, 2), ()],
], ids=["unicode-quotes-controls", "empty-containers", "min-over-q-null", "empty-steps", "scalars"])
def test_dump_json_matches_json_dumps_on_hand_made_bodies(body):
    """Non-ASCII, quote, backslash and control characters, empty lists and
    objects, nested objects, big integers, null, booleans and tuples are
    written as json.dumps writes them."""
    from oracles import reference_dump_json

    assert dump_json(body) == reference_dump_json(body)


def test_dump_json_refuses_what_an_artifact_never_holds():
    for bad in ({"x": 0.5}, {1: "a"}, {"x": {1, 2}}, {"x": F(1, 2)}):
        with pytest.raises(TypeError):
            dump_json(bad)


def test_parses_share_fractions_within_a_call_and_never_across_calls():
    """Equal tokens of one parse or one artifact read share one Fraction,
    and no Fraction is shared between two calls."""
    from ltireach.instances import verdict_from_json

    def entries(sys_):
        rows = [sys_.a.row(i) for i in range(sys_.dim)] + [sys_.source, *sys_.target.vertices]
        return [x for comp in sys_.controls.components for v in comp.vertices for x in v] + \
            [x for r in rows for x in r]

    first, second = entries(parse_instance(QUAD_TEXT)), entries(parse_instance(QUAD_TEXT))
    assert first == second and not {id(x) for x in first} & {id(x) for x in second}
    zeros = [x for x in first if x == 0]
    assert len(zeros) > 1 and len({id(x) for x in zeros}) == 1
    step = {"component": 0, "vertex_coeffs": ["1/2", "1/2"], "ray_coeffs": [], "line_coeffs": ["1/2"]}
    body = {"verdict": "reachable", "instance_sha256": "00", "witness": {"horizon": 1, "steps": [step]}}
    reads = [verdict_from_json(body).witness.steps[0] for _ in range(2)]
    halves = [[*s.vertex_coeffs, *s.line_coeffs] for s in reads]
    assert [len({id(x) for x in h}) for h in halves] == [1, 1] and halves[0][0] is not halves[1][0]


def test_non_canonical_tokens_hash_as_their_canonical_text():
    """Signs, leading zeros, unreduced fractions and -0 hash as the
    canonical text of the same system, which emit_instance writes."""
    import hashlib

    odd = DIM1_TEXT.replace("4/5", "8/10").replace("vertices\n1\n-1", "vertices\n+1\n-001") \
        .replace("source\n0", "source\n-0").replace("vertices\n4", "vertices\n004/1")
    assert odd != DIM1_TEXT
    sys_ = parse_instance(odd)
    assert emit_instance(sys_) == DIM1_TEXT
    assert instance_sha256(sys_) == hashlib.sha256(DIM1_TEXT.encode()).hexdigest() == \
        instance_sha256(parse_instance(DIM1_TEXT))
