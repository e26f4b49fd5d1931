"""Instance files and artifact serialization.

The instance format is line-oriented text with exact rational entries
("p/q" or "p", never decimals), diff-friendly and language-neutral:

    # comment
    dim 2
    matrix
    1/3 0
    0 2/3
    control            # one block per union component
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

`control` blocks may contain `vertices`, `rays`, and `lines` sections.
parse(emit(sys)) is the identity, and emit(parse(text)) is byte-stable
after canonicalization.

Witnesses and separator certificates serialize as JSON; real algebraic
numbers carry their minimal polynomial and isolating interval so an
auditor can recompute everything from scratch.  The interval written is
the canonical one that root isolation of the minimal polynomial gives,
so equal numbers serialize to equal bytes however they were computed.
A rational p/q (a Fraction in memory) is written in the same form, as the
root of q x - p with lo = hi = p/q, and reads back as a Fraction.
Loading an artifact checks every key and type it reads and raises
ParseError on anything malformed.
"""

from __future__ import annotations

import hashlib
import json

from . import exactnum
from .certify import SeparatorCertificate
from .exactnum import (
    Alg,
    DegreeCeilingError,
    IntPoly,
    RealAlg,
    rat_from_str,
    rat_to_str,
)
from .forward import ReachWitness, WitnessStep
from .geometry import ControlSet, GenPolyhedron
from .linalg import RatMatrix, Vec
from .preprocess import LtiSystem, SimpleForm


class ParseError(Exception):
    """Malformed instance text (with its line) or artifact JSON (line None)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


def _parse_row(line_no: int, text: str, dim: int) -> Vec:
    parts = text.split()
    if len(parts) != dim:
        raise ParseError(line_no, f"expected {dim} entries, got {len(parts)}")
    try:
        return tuple(rat_from_str(p) for p in parts)
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_instance(text: str) -> LtiSystem:
    lines = []
    for i, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.split("#", 1)[0].strip()
        if stripped:
            lines.append((i, stripped))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (len(lines) + 1, None)

    def take():
        nonlocal pos
        item = peek()
        pos += 1
        return item

    line_no, first = take()
    if first is None or not first.startswith("dim"):
        raise ParseError(line_no, "instance must start with 'dim N'")
    try:
        dim = int(first.split()[1])
    except (IndexError, ValueError):
        raise ParseError(line_no, "malformed dimension") from None
    if dim < 0:
        raise ParseError(line_no, "dimension must be nonnegative")

    matrix = None
    components: list[GenPolyhedron] = []
    source = None
    target = None

    while pos < len(lines):
        line_no, word = take()
        if word == "matrix":
            rows = []
            for _ in range(dim):
                ln, row = take()
                if row is None:
                    raise ParseError(ln, "matrix row missing")
                rows.append(_parse_row(ln, row, dim))
            matrix = RatMatrix.from_rows(rows)
        elif word == "control":
            groups = {"vertices": [], "rays": [], "lines": []}
            current = None
            while pos < len(lines):
                ln, nxt = peek()
                if nxt in ("control", "source", "target", "matrix"):
                    break
                take()
                if nxt in groups:
                    current = nxt
                elif current is None:
                    raise ParseError(ln, "expected vertices/rays/lines header")
                else:
                    groups[current].append(_parse_row(ln, nxt, dim))
            components.append(GenPolyhedron(
                dim, tuple(groups["vertices"]), tuple(groups["rays"]), tuple(groups["lines"])))
        elif word == "source":
            ln, row = take()
            if row is None:
                raise ParseError(ln, "source row missing")
            source = _parse_row(ln, row, dim)
        elif word == "target":
            groups = {"vertices": [], "rays": [], "lines": []}
            current = None
            while pos < len(lines):
                ln, nxt = peek()
                if nxt in ("control", "source", "target", "matrix"):
                    break
                take()
                if nxt in groups:
                    current = nxt
                elif current is None:
                    raise ParseError(ln, "expected vertices header")
                else:
                    groups[current].append(_parse_row(ln, nxt, dim))
            target = GenPolyhedron(
                dim, tuple(groups["vertices"]), tuple(groups["rays"]), tuple(groups["lines"]))
        else:
            raise ParseError(line_no, f"unknown section {word!r}")

    if matrix is None:
        raise ParseError(len(lines) + 1, "missing matrix section")
    if not components:
        raise ParseError(len(lines) + 1, "missing control section")
    if source is None:
        raise ParseError(len(lines) + 1, "missing source section")
    if target is None:
        raise ParseError(len(lines) + 1, "missing target section")
    return LtiSystem(matrix, ControlSet(tuple(components)), source, target)


def _emit_rows(out: list[str], rows) -> None:
    for r in rows:
        out.append(" ".join(rat_to_str(x) for x in r))


def emit_instance(sys: LtiSystem) -> str:
    out = [f"dim {sys.dim}", "matrix"]
    _emit_rows(out, (sys.a.row(i) for i in range(sys.dim)))
    for comp in sys.controls.components:
        out.append("control")
        out.append("vertices")
        _emit_rows(out, comp.vertices)
        if comp.rays:
            out.append("rays")
            _emit_rows(out, comp.rays)
        if comp.lines:
            out.append("lines")
            _emit_rows(out, comp.lines)
    out.append("source")
    _emit_rows(out, [sys.source])
    out.append("target")
    out.append("vertices")
    _emit_rows(out, sys.target.vertices)
    if sys.target.rays:
        out.append("rays")
        _emit_rows(out, sys.target.rays)
    if sys.target.lines:
        out.append("lines")
        _emit_rows(out, sys.target.lines)
    return "\n".join(out) + "\n"


def instance_sha256(sys: LtiSystem) -> str:
    return hashlib.sha256(emit_instance(sys).encode()).hexdigest()


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def _vec_json(v) -> list[str]:
    return [rat_to_str(x) for x in v]


def _field(data, key: str, kind):
    """data[key], which must exist and be an instance of `kind`."""
    if not isinstance(data, dict):
        raise ParseError(None, f"expected a JSON object holding {key!r}")
    if key not in data:
        raise ParseError(None, f"missing key {key!r}")
    value = data[key]
    if isinstance(value, bool) or not isinstance(value, kind):
        raise ParseError(None, f"key {key!r} has the wrong type")
    return value


def _rat_from_json(text):
    if not isinstance(text, str):
        raise ParseError(None, "rational entries must be strings")
    try:
        return rat_from_str(text)
    except ValueError as exc:
        raise ParseError(None, str(exc)) from None


def _vec_field(data, key: str) -> Vec:
    return tuple(_rat_from_json(x) for x in _field(data, key, list))


def alg_to_json(a: Alg) -> dict:
    """A rational p/q is written as the root of q x - p, with lo = hi = p/q."""
    if isinstance(a, RealAlg):
        minpoly, (lo, hi) = list(a.minpoly.coeffs), a.isolating_interval()
    else:
        minpoly, lo, hi = [-a.numerator, a.denominator], a, a
    return {"minpoly": minpoly, "lo": rat_to_str(lo), "hi": rat_to_str(hi)}


# the largest degree x coefficient bit length of a parsed minimal polynomial
# of degree >= 3.  Factoring and Sturm chains grow fast in both.  On one
# Xeon core, the worst inputs at the ceiling parse in under a second (a
# random degree-64 polynomial with 32-bit coefficients; the degree-32
# Swinnerton-Dyer polynomial, size 1856, which splits into quadratics modulo
# every prime), while degree 64 with 64-bit coefficients takes 2.5 s and the
# degree-64 Swinnerton-Dyer polynomial (size 8384) runs for minutes.  The
# test suite's degree >= 3 artifacts stay at 68.  Degree <= 2 is exempt: it
# factors by one integer square root and has a three-row Sturm chain, so a
# 4300-digit coefficient (the most JSON text holds) parses in milliseconds,
# and decide writes bounds and sup values as large as the instance asks.
# decide applies the same rule (minpoly_within_ceiling) to every certificate
# entry it would write, and treats a separator that breaks it as not found.
MINPOLY_SIZE_CEILING = 2048


def _minpoly_size(coeffs) -> int:
    return (len(coeffs) - 1) * max((abs(c).bit_length() for c in coeffs), default=0)


def minpoly_within_ceiling(coeffs) -> bool:
    """The size rule on a minimal polynomial (integer coefficients, lowest
    degree first) that alg_from_json applies and decide keeps to: degree at
    most 2, or degree x largest coefficient bit length at most
    MINPOLY_SIZE_CEILING."""
    return len(coeffs) <= 3 or _minpoly_size(coeffs) <= MINPOLY_SIZE_CEILING


def alg_from_json(data) -> Alg:
    """A Fraction for a degree-1 minimal polynomial, else a RealAlg."""
    coeffs = _field(data, "minpoly", list)
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
        raise ParseError(None, "minimal polynomial coefficients must be integers")
    if len(coeffs) - 1 > exactnum.DEGREE_CEILING:
        raise ParseError(None, f"minimal polynomial degree exceeds {exactnum.DEGREE_CEILING}")
    if not minpoly_within_ceiling(coeffs):
        raise ParseError(None, f"minimal polynomial degree x coefficient bits {_minpoly_size(coeffs)} "
                               f"exceeds {MINPOLY_SIZE_CEILING}")
    lo = _rat_from_json(_field(data, "lo", str))
    hi = _rat_from_json(_field(data, "hi", str))
    try:
        return RealAlg.from_root(IntPoly(tuple(coeffs)), lo, hi)
    except (ValueError, DegreeCeilingError) as exc:
        raise ParseError(None, f"not an algebraic number: {exc}") from None


def witness_to_json(w: ReachWitness, instance_hash: str) -> dict:
    return {
        "kind": "witness",
        "instance_sha256": instance_hash,
        "horizon": w.horizon,
        "steps": [
            {
                "component": s.component,
                "vertex_coeffs": _vec_json(s.vertex_coeffs),
                "ray_coeffs": _vec_json(s.ray_coeffs),
                "line_coeffs": _vec_json(s.line_coeffs),
            }
            for s in w.steps
        ],
    }


def witness_from_json(data) -> ReachWitness:
    steps = tuple(
        WitnessStep(
            _field(step, "component", int),
            _vec_field(step, "vertex_coeffs"),
            _vec_field(step, "ray_coeffs"),
            _vec_field(step, "line_coeffs"),
        )
        for step in _field(data, "steps", list)
    )
    return ReachWitness(_field(data, "horizon", int), steps)


def reduced_system_to_json(form: SimpleForm) -> dict:
    return {
        "dim": form.dim,
        "matrix": [_vec_json(form.a_reduced.row(i)) for i in range(form.dim)],
        "control_vertices": [_vec_json(v) for v in form.u_reduced.vertices],
        "target_vertices": [_vec_json(v) for v in form.q_reduced.vertices],
        "power": form.power,
        "fit_applied": form.fit_applied,
        "span_applied": form.span_applied,
    }


def certificate_to_json(cert: SeparatorCertificate, form: SimpleForm, instance_hash: str) -> dict:
    return {
        "kind": "certificate",
        "instance_sha256": instance_hash,
        "tau": [alg_to_json(x) for x in cert.tau],
        "bound": alg_to_json(cert.bound),
        "maximizer": _vec_json(cert.maximizer),
        "threshold": cert.threshold,
        "sup_value": alg_to_json(cert.sup_value),
        "min_over_q": None if cert.min_over_q is None else alg_to_json(cert.min_over_q),
        "reduced_system": reduced_system_to_json(form),
    }


def certificate_from_json(data) -> SeparatorCertificate:
    min_over_q = _field(data, "min_over_q", (dict, type(None)))
    return SeparatorCertificate(
        tau=tuple(alg_from_json(x) for x in _field(data, "tau", list)),
        bound=alg_from_json(_field(data, "bound", dict)),
        maximizer=_vec_field(data, "maximizer"),
        threshold=_field(data, "threshold", int),
        sup_value=alg_from_json(_field(data, "sup_value", dict)),
        min_over_q=None if min_over_q is None else alg_from_json(min_over_q),
    )


def verdict_to_json(verdict) -> dict:
    from .driver import Verdict

    assert isinstance(verdict, Verdict)
    body = {
        "verdict": verdict.kind,
        "instance_sha256": verdict.instance_hash,
        "warnings": list(verdict.warnings),
    }
    if verdict.kind == "reachable":
        body["witness"] = witness_to_json(verdict.witness, verdict.instance_hash)
    elif verdict.kind == "unreachable":
        body["certificate"] = certificate_to_json(
            verdict.certificate, verdict.simple_form, verdict.instance_hash)
    else:
        body["budgets_exhausted"] = verdict.exhausted
    return body


def dump_json(data: dict) -> str:
    return json.dumps(data, indent=1, sort_keys=True) + "\n"


def load_json(text: str) -> dict:
    return json.loads(text)
