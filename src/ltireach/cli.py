"""Command-line front end.

Exit codes: 0 reachable, 1 unreachable, 2 unknown, 3 failed audit,
4 artifact/instance hash mismatch, 5 usage or input errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys as _sys

from . import driver, instances, render
from .exactnum import rat_from_str
from .gadgets import (
    PoweringInstance,
    VectorReachInstance,
    markov_to_lti,
    powering_to_vector_reach,
    skolem_to_lti,
    vector_reach_to_lti,
)
from .linalg import RatMatrix

EXIT_REACHABLE = 0
EXIT_UNREACHABLE = 1
EXIT_UNKNOWN = 2
EXIT_AUDIT_FAILED = 3
EXIT_HASH_MISMATCH = 4
EXIT_ERROR = 5


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(_sys.stderr)
        print(f"error: {message}", file=_sys.stderr)
        raise SystemExit(EXIT_ERROR)


def parse_matrix_text(text: str) -> RatMatrix:
    """Rows separated by ';', entries as parse_vector_text reads them."""
    return RatMatrix.from_rows([parse_vector_text(r) for r in text.split(";") if r.strip(" \t")])


def parse_vector_text(text: str):
    """Rationals separated by ASCII blanks only, as in an instance file."""
    return tuple(rat_from_str(x) for x in instances.BLANKS.split(text) if x)


def _budgets_from(args) -> driver.Budgets:
    return driver.Budgets(
        max_steps=args.max_steps,
        max_candidates=args.max_candidates,
        max_degree=args.max_degree,
        max_height=args.max_height,
        extremal_budget=args.extremal_budget,
    )


def _count(text: str) -> int:
    """argparse type for budgets and step counts: ASCII digits only."""
    if not instances.DIGITS.fullmatch(text):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {text!r}")
    return int(text)


# the flags' defaults are driver.Budgets' own
DEFAULT_BUDGETS = driver.Budgets()


def _add_budget_flags(p):
    p.add_argument("--max-steps", type=_count, default=DEFAULT_BUDGETS.max_steps)
    p.add_argument("--max-candidates", type=_count, default=DEFAULT_BUDGETS.max_candidates)
    p.add_argument("--max-degree", type=_count, default=DEFAULT_BUDGETS.max_degree)
    p.add_argument("--max-height", type=_count, default=DEFAULT_BUDGETS.max_height)
    p.add_argument("--extremal-budget", type=_count, default=DEFAULT_BUDGETS.extremal_budget,
                   help="0: target directions only; > 0: also left eigenvectors")


def _load_instance(path: str):
    with open(path) as fh:
        return instances.parse_instance(fh.read())


def _write_or_print(text: str, out: str | None):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _verdict_exit(verdict: driver.Verdict) -> int:
    return {"reachable": EXIT_REACHABLE,
            "unreachable": EXIT_UNREACHABLE,
            "unknown": EXIT_UNKNOWN}[verdict.kind]


def _write_verdict(verdict: driver.Verdict, out: str | None) -> None:
    """Write the verdict artifact, when asked for, before anything reports
    the verdict: a failure to form or write it then exits 5 with no
    verdict line printed."""
    if out:
        _write_or_print(instances.dump_json(instances.verdict_to_json(verdict)), out)


def cmd_decide(args) -> int:
    sys_ = _load_instance(args.input)
    verdict = driver.decide(sys_, _budgets_from(args))
    _write_verdict(verdict, args.out)
    for w in verdict.warnings:
        print(f"warning: {w}", file=_sys.stderr)
    print(f"verdict: {verdict.kind}")
    if verdict.kind == "reachable":
        print(f"horizon: {verdict.witness.horizon}")
    elif verdict.kind == "unreachable":
        sup = float(verdict.certificate.sup_value)
        print(f"separator sup: {sup:.6g}")
    return _verdict_exit(verdict)


def cmd_forward(args) -> int:
    from .forward import reach_within

    sys_ = _load_instance(args.input)
    witness = reach_within(sys_, args.max_steps)
    if witness is None:
        print(f"no witness within {args.max_steps} steps")
        return EXIT_UNKNOWN
    _write_verdict(driver.Verdict("reachable", instances.instance_sha256(sys_), witness=witness), args.out)
    print(f"reachable at horizon {witness.horizon}")
    return EXIT_REACHABLE


def cmd_certify(args) -> int:
    sys_ = _load_instance(args.input)
    verdict = driver.decide(sys_, dataclasses.replace(_budgets_from(args), max_steps=-1))
    if verdict.kind == "unreachable":
        _write_verdict(verdict, args.out)
    for w in verdict.warnings:
        print(f"warning: {w}", file=_sys.stderr)
    if verdict.kind == "unreachable":
        print("unreachable: separator certificate found")
        return EXIT_UNREACHABLE
    print("no certificate within budgets")
    return EXIT_UNKNOWN


def cmd_audit(args) -> int:
    sys_ = _load_instance(args.instance)
    with open(args.artifact) as fh:
        artifact = instances.load_json(fh.read())
    try:
        ok = driver.audit(sys_, artifact)
    except (driver.AuditHashError, instances.ParseError):
        raise
    except Exception as exc:
        # an artifact the auditor cannot recheck must never read as a verdict
        print(f"audit: FAILED ({type(exc).__name__}: {exc})", file=_sys.stderr)
        return EXIT_AUDIT_FAILED
    print("audit: verdict stands" if ok else "audit: FAILED")
    return EXIT_REACHABLE if ok else EXIT_AUDIT_FAILED


def cmd_gadget(args) -> int:
    if args.family == "skolem":
        sys_ = skolem_to_lti(parse_matrix_text(args.matrix)).system
    elif args.family == "markov":
        sys_ = markov_to_lti(parse_matrix_text(args.matrix)).system
    elif args.family == "vecreach":
        mats = tuple(parse_matrix_text(m) for m in args.matrices.split("|"))
        inst = VectorReachInstance(mats, parse_vector_text(args.x), parse_vector_text(args.y))
        sys_ = vector_reach_to_lti(inst).system
    elif args.family == "powering":
        mats = tuple(parse_matrix_text(m) for m in args.matrices.split("|"))
        inst = PoweringInstance(mats, parse_matrix_text(args.target))
        sys_ = vector_reach_to_lti(powering_to_vector_reach(inst)).system
    else:  # pragma: no cover - argparse restricts choices
        raise ValueError(args.family)
    _write_or_print(instances.emit_instance(sys_), args.out)
    return EXIT_REACHABLE


def cmd_render(args) -> int:
    sys_ = _load_instance(args.input)
    certificate = None
    if args.verdict:
        with open(args.verdict) as fh:
            certificate = driver.read_artifact(sys_, instances.load_json(fh.read())).certificate
    render.render_partial_reach(sys_, args.steps, args.out, certificate)
    print(f"wrote {args.out}")
    return EXIT_REACHABLE


def build_parser() -> _Parser:
    parser = _Parser(prog="ltireach",
                     description="exact reachability decisions for linear systems")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="run both semi-procedures, interleaved")
    p.add_argument("--input", required=True)
    _add_budget_flags(p)
    p.add_argument("--out", help="write the verdict (with payload) as JSON")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("forward", help="bounded forward search only")
    p.add_argument("--input", required=True)
    p.add_argument("--max-steps", type=_count, default=DEFAULT_BUDGETS.max_steps)
    p.add_argument("--out", help="write the reachable verdict (with its witness) as JSON")
    p.set_defaults(func=cmd_forward)

    p = sub.add_parser("certify", help="separator-certificate search only")
    p.add_argument("--input", required=True)
    _add_budget_flags(p)
    p.add_argument("--out", help="write the certificate verdict as JSON")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("audit", help="re-verify an artifact against an instance")
    p.add_argument("instance")
    p.add_argument("artifact")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("gadget", help="emit a reduction instance")
    fam = p.add_subparsers(dest="family", required=True)
    g = fam.add_parser("skolem")
    g.add_argument("--matrix", required=True, help="rows ';'-separated, e.g. '0 1; -1 0'")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gadget)
    g = fam.add_parser("markov")
    g.add_argument("--matrix", required=True, help="column-stochastic matrix")
    g.add_argument("--out")
    g.set_defaults(func=cmd_gadget)
    g = fam.add_parser("vecreach")
    g.add_argument("--matrices", required=True, help="matrices separated by '|'")
    g.add_argument("--x", required=True)
    g.add_argument("--y", required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gadget)
    g = fam.add_parser("powering")
    g.add_argument("--matrices", required=True, help="matrices separated by '|'")
    g.add_argument("--target", required=True)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gadget)

    p = sub.add_parser("render", help="draw a 2-D instance as SVG")
    p.add_argument("--input", required=True)
    p.add_argument("--steps", type=_count, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--verdict", help="verdict JSON; draws the certificate hyperplane")
    p.set_defaults(func=cmd_render)

    return parser


# built by the first call to main and reused by every later call in the
# process: parsing leaves a parser as it was, and building the subparser
# tree costs more than auditing a rational certificate
_PARSER: _Parser | None = None


def main(argv=None) -> int:
    global _PARSER
    if _PARSER is None:
        _PARSER = build_parser()
    try:
        args = _PARSER.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_ERROR
    try:
        return args.func(args)
    except driver.AuditHashError as exc:
        print(f"hash mismatch: {exc}", file=_sys.stderr)
        return EXIT_HASH_MISMATCH
    except (OSError, ValueError, instances.ParseError) as exc:
        print(f"error: {exc}", file=_sys.stderr)
        return EXIT_ERROR
    except Exception as exc:
        # an internal failure must never exit 1, which reads as "unreachable"
        print(f"error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":  # pragma: no cover
    _sys.exit(main())
