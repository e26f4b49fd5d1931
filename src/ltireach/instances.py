"""Instance files and artifact serialization.

The instance format is line-oriented text with exact rational entries
("p/q" or "p": an optional sign and ASCII digits, then optionally "/" and
ASCII digits, never decimals) after a first line that is exactly
"dim N", diff-friendly and language-neutral:

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
N is at least 1: a system of dimension 0 cannot be built.
parse(emit(sys)) is the identity, and emit(parse(text)) is byte-stable
after canonicalization.

Every table here lives for one call and nothing outlives it, so a second
parse, hash or audit in one process costs what the first did.
parse_instance and the artifact readers read rationals through one
`Rationals` table per call, so each distinct token goes through
rat_from_str once and equal tokens of one call share a Fraction; two
calls share none.  emit_instance, which instance_sha256 hashes, formats
each distinct entry object once per call.

A verdict is one JSON object, written by verdict_to_json and read by
verdict_from_json: `verdict` and `instance_sha256`, then a reachable
verdict's witness {horizon, steps}, an unreachable one's certificate
{tau, maximizer, threshold, sup_value, min_over_q, reduced_system}, or an
unknown one's warnings and budgets_exhausted, the only keys that the audit
does not check.  The reader refuses a missing key, a key of the wrong
type and any other key.  Real algebraic numbers carry their minimal
polynomial and isolating interval so an auditor can recompute everything
from scratch.  The interval written is the canonical one that root
isolation of the minimal polynomial gives, so equal numbers serialize to
equal bytes however they were computed.  A rational p/q (a Fraction in
memory) is written in the same form, as the root of q x - p with
lo = hi = p/q, and reads back as a Fraction.  dump_json writes the bytes
of json.dumps(body, indent=1, sort_keys=True) + "\n" directly, escaping
strings with json's own ASCII encoder.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii

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


# the dimension on the first line, and a command-line count: ASCII digits only
DIGITS = re.compile(r"[0-9]+")
# what separates entries, in a file or on the command line: ASCII blanks only
BLANKS = re.compile(r"[ \t]+")
# the words that open a section of an instance
SECTIONS = frozenset(("matrix", "control", "source", "target"))


class ParseError(Exception):
    """Malformed instance text (with its line) or artifact JSON (line None)."""

    def __init__(self, line_no: int | None, message: str):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")
        self.line_no = line_no


class Rationals(dict):
    """Token -> Fraction for one parse or one artifact read: each distinct
    token goes through rat_from_str once, and its repeats share that
    Fraction.  The call that makes a table drops it when it returns, so no
    Fraction is shared between two calls; a malformed token raises
    rat_from_str's ValueError and is not stored."""

    def __missing__(self, token: str) -> Fraction:
        value = self[token] = rat_from_str(token)
        return value


def _parse_row(line_no: int, text: str, dim: int, rats: Rationals) -> Vec:
    parts = BLANKS.split(text)
    if len(parts) != dim:
        raise ParseError(line_no, f"expected {dim} entries, got {len(parts)}")
    try:
        return tuple([rats[p] for p in parts])
    except ValueError as exc:
        raise ParseError(line_no, str(exc)) from None


def parse_instance(text: str) -> LtiSystem:
    rats = Rationals()
    lines = []
    # lines end at "\n" (a "\r" before it is dropped) and entries are
    # separated by ASCII blanks, so other Unicode whitespace stays in a
    # token, and the token is refused
    for i, raw in enumerate(text.split("\n"), start=1):
        stripped = raw.split("#", 1)[0].strip(" \t\r")
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
    parts = BLANKS.split(first) if first is not None else []
    if not parts or parts[0] != "dim":
        raise ParseError(line_no, "instance must start with 'dim N'")
    try:
        dim = int(parts[1]) if len(parts) == 2 and DIGITS.fullmatch(parts[1]) else -1
    except ValueError:  # past Python's limit on the digits of an int
        dim = -1
    if dim < 1:
        raise ParseError(line_no, "malformed dimension: expected 'dim N', N >= 1 in ASCII digits")

    def generators() -> GenPolyhedron:
        """The vertices, rays and lines rows up to the next section."""
        nonlocal pos
        groups = {"vertices": [], "rays": [], "lines": []}
        current = None
        for ln, nxt in lines[pos:]:
            if nxt in SECTIONS:
                break
            pos += 1
            if nxt in groups:
                current = groups[nxt]
            elif current is None:
                raise ParseError(ln, "expected vertices/rays/lines header")
            else:
                current.append(_parse_row(ln, nxt, dim, rats))
        return GenPolyhedron(dim, tuple(groups["vertices"]), tuple(groups["rays"]), tuple(groups["lines"]))

    matrix = None
    components: list[GenPolyhedron] = []
    source = None
    target = None
    seen = set()

    while pos < len(lines):
        line_no, word = take()
        # a system has one matrix, source and target, and any number of controls
        if word in seen:
            raise ParseError(line_no, f"repeated section {word!r}")
        if word != "control":
            seen.add(word)
        if word == "matrix":
            rows = []
            for _ in range(dim):
                ln, row = take()
                if row is None:
                    raise ParseError(ln, "matrix row missing")
                rows.append(_parse_row(ln, row, dim, rats))
            matrix = RatMatrix.from_rows(rows)
        elif word == "control":
            components.append(generators())
        elif word == "source":
            ln, row = take()
            if row is None:
                raise ParseError(ln, "source row missing")
            source = _parse_row(ln, row, dim, rats)
        elif word == "target":
            target = generators()
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


class _RowWriter:
    """The text of instance rows for one emit_instance call.  Each distinct
    entry object is formatted once, keyed by its id: a parsed system's
    equal tokens share one Fraction (Rationals), and Fraction hashing runs
    in Python, so a value-keyed table would cost more than rat_to_str.  The
    writer holds every entry it keys, so no id is reused while it lives."""

    def __init__(self):
        self.out: list[str] = []
        self.texts: dict[int, str] = {}
        self.held: list = []

    def rows(self, rows) -> None:
        texts, held = self.texts, self.held
        for r in rows:
            parts = []
            for x in r:
                text = texts.get(id(x))
                if text is None:
                    text = texts[id(x)] = rat_to_str(x)
                    held.append(x)
                parts.append(text)
            self.out.append(" ".join(parts))

    def block(self, header: str, p: GenPolyhedron) -> None:
        """A control or target block: its vertices, then its rays and its
        lines when it has any."""
        self.out += [header, "vertices"]
        self.rows(p.vertices)
        for name, gens in (("rays", p.rays), ("lines", p.lines)):
            if gens:
                self.out.append(name)
                self.rows(gens)


def emit_instance(sys: LtiSystem) -> str:
    w = _RowWriter()
    w.out += [f"dim {sys.dim}", "matrix"]
    w.rows(sys.a.row(i) for i in range(sys.dim))
    for comp in sys.controls.components:
        w.block("control", comp)
    w.out.append("source")
    w.rows([sys.source])
    w.block("target", sys.target)
    return "\n".join(w.out) + "\n"


def instance_sha256(sys: LtiSystem) -> str:
    return hashlib.sha256(emit_instance(sys).encode()).hexdigest()


# ---------------------------------------------------------------------------
# JSON payloads
# ---------------------------------------------------------------------------


def _vec_json(v) -> list[str]:
    return [rat_to_str(x) for x in v]


def _fields(data, **kinds) -> tuple:
    """The values of a JSON object that holds exactly the keys of `kinds`,
    each an instance of its kind; a boolean passes only as an object."""
    if not isinstance(data, dict) or set(data) != set(kinds):
        raise ParseError(None, "expected a JSON object holding exactly " + ", ".join(kinds))
    for key, kind in kinds.items():
        if not isinstance(data[key], kind) or (isinstance(data[key], bool) and kind is not object):
            raise ParseError(None, f"key {key!r} has the wrong type")
    return tuple(data[key] for key in kinds)


def _rat_from_json(text, rats: Rationals) -> Fraction:
    if not isinstance(text, str):
        raise ParseError(None, "rational entries must be strings")
    try:
        return rats[text]
    except ValueError as exc:
        raise ParseError(None, str(exc)) from None


def _vec_from_json(entries: list, rats: Rationals) -> Vec:
    return tuple([_rat_from_json(x, rats) for x in entries])


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


def alg_from_json(data, rats: Rationals) -> Alg:
    """A Fraction for a degree-1 minimal polynomial, else a RealAlg; its
    endpoints are read through the caller's table."""
    coeffs, lo, hi = _fields(data, minpoly=list, lo=str, hi=str)
    if not all(isinstance(c, int) and not isinstance(c, bool) for c in coeffs):
        raise ParseError(None, "minimal polynomial coefficients must be integers")
    if len(coeffs) - 1 > exactnum.DEGREE_CEILING:
        raise ParseError(None, f"minimal polynomial degree exceeds {exactnum.DEGREE_CEILING}")
    if not minpoly_within_ceiling(coeffs):
        raise ParseError(None, f"minimal polynomial degree x coefficient bits {_minpoly_size(coeffs)} "
                               f"exceeds {MINPOLY_SIZE_CEILING}")
    try:
        return RealAlg.from_root(IntPoly(tuple(coeffs)), _rat_from_json(lo, rats), _rat_from_json(hi, rats))
    except (ValueError, DegreeCeilingError) as exc:
        raise ParseError(None, f"not an algebraic number: {exc}") from None


def witness_to_json(w: ReachWitness) -> dict:
    return {
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


def witness_from_json(data, rats: Rationals) -> ReachWitness:
    horizon, steps = _fields(data, horizon=int, steps=list)
    out = []
    for step in steps:
        component, *coeffs = _fields(step, component=int, vertex_coeffs=list, ray_coeffs=list,
                                     line_coeffs=list)
        out.append(WitnessStep(component, *(_vec_from_json(c, rats) for c in coeffs)))
    return ReachWitness(horizon, tuple(out))


def reduced_system_to_json(form: SimpleForm) -> dict:
    return {
        "dim": form.dim,
        "matrix": [_vec_json(form.a_reduced.row(i)) for i in range(form.dim)],
        "control_vertices": [_vec_json(v) for v in form.u_reduced.vertices],
        "target_vertices": [_vec_json(v) for v in form.q_reduced.vertices],
        "power": form.power,
        "span_applied": form.span_applied,
    }


def certificate_to_json(cert: SeparatorCertificate, form: SimpleForm) -> dict:
    return {
        "tau": [alg_to_json(x) for x in cert.tau],
        "maximizer": _vec_json(cert.maximizer),
        "threshold": cert.threshold,
        "sup_value": alg_to_json(cert.sup_value),
        "min_over_q": None if cert.min_over_q is None else alg_to_json(cert.min_over_q),
        "reduced_system": reduced_system_to_json(form),
    }


def certificate_from_json(data, rats: Rationals) -> SeparatorCertificate:
    """The reduced system, which the audit compares whole, stays JSON."""
    tau, maximizer, threshold, sup_value, min_over_q, _ = _fields(
        data, tau=list, maximizer=list, threshold=int, sup_value=dict, min_over_q=(dict, type(None)),
        reduced_system=object)
    return SeparatorCertificate(
        tau=tuple(alg_from_json(x, rats) for x in tau),
        maximizer=_vec_from_json(maximizer, rats),
        threshold=threshold,
        sup_value=alg_from_json(sup_value, rats),
        min_over_q=None if min_over_q is None else alg_from_json(min_over_q, rats),
    )


def verdict_to_json(verdict) -> dict:
    """The one artifact writer, of the shape in the module docstring."""
    from .driver import Verdict

    assert isinstance(verdict, Verdict)
    body = {"verdict": verdict.kind, "instance_sha256": verdict.instance_hash}
    if verdict.kind == "reachable":
        body["witness"] = witness_to_json(verdict.witness)
    elif verdict.kind == "unreachable":
        body["certificate"] = certificate_to_json(verdict.certificate, verdict.simple_form)
    else:
        body["warnings"] = list(verdict.warnings)
        body["budgets_exhausted"] = verdict.exhausted
    return body


@dataclass(frozen=True)
class Artifact:
    """A verdict artifact as read: the claims that the audit rechecks."""
    verdict: str
    instance_sha256: str
    witness: ReachWitness | None = None
    certificate: SeparatorCertificate | None = None
    reduced_system: object = None  # as written, for a comparison as a whole


def verdict_from_json(data) -> Artifact:
    """The one artifact reader, of the shape verdict_to_json writes, with
    one Rationals table for the whole artifact."""
    kind = data.get("verdict") if isinstance(data, dict) else None
    head = dict(verdict=str, instance_sha256=str)
    if kind == "reachable":
        _, instance_hash, witness = _fields(data, **head, witness=dict)
        return Artifact(kind, instance_hash, witness=witness_from_json(witness, Rationals()))
    if kind == "unreachable":
        _, instance_hash, cert = _fields(data, **head, certificate=dict)
        return Artifact(kind, instance_hash, certificate=certificate_from_json(cert, Rationals()),
                        reduced_system=cert["reduced_system"])
    if kind != "unknown":
        raise ParseError(None, "an artifact's verdict is reachable, unreachable or unknown")
    # an unknown verdict is not audited: its explanation is typed, not read
    _, instance_hash, warnings, _ = _fields(data, **head, warnings=list, budgets_exhausted=dict)
    if not all(isinstance(w, str) for w in warnings):
        raise ParseError(None, "warnings must be strings")
    return Artifact(kind, instance_hash)


def _json_text(value, newline: str) -> str:
    """The indent-1, sorted-key, ASCII-only JSON text of value, whose lines
    after the first start with newline and one more blank per level of
    nesting.  A key that is not a string raises TypeError, where json.dumps
    would convert it."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = newline + " "
        # a string, the most common entry, is written without a call
        items = [encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = newline + " "
        items = [encode_basestring_ascii(key) + ": "
                 + (encode_basestring_ascii(v) if type(v) is str else _json_text(v, inner))
                 for key, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"an artifact holds no {type(value).__name__}")


def dump_json(data: dict) -> str:
    """json.dumps(data, indent=1, sort_keys=True) + "\n", byte for byte, for
    data of dicts with string keys, lists and tuples, strings, ints,
    booleans and None; anything else raises TypeError.  Python 3.10 and
    3.11 run json.dumps's pure-Python encoder whenever an indent is set,
    so the artifact writer is this direct one."""
    return _json_text(data, "\n") + "\n"


def load_json(text: str) -> dict:
    return json.loads(text)
