"""One benchmark process: `setup`, `decide` or `audit`.

run.py starts each in a fresh interpreter.  The process prints `ready` on
stdout once set-up is done (run.py times process start to that line), then
writes its findings as JSON to `--result`.

    python3 perfbench/worker.py decide --workload NAME --seed N --seconds S \
        --work DIR --result FILE [--rounds R] [--trace]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time
from fractions import Fraction

import clock

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

# generated rounds cover the window about twice over at baseline speed; the
# minimum keeps at least 10 samples beyond each tail on a slow stretch
MAX_ROUNDS = {"forward_union": 10, "algebraic_2d": 8, "rational_batch": 35}
MIN_ROUNDS = {"forward_union": 3, "algebraic_2d": 4, "rational_batch": 18}
REDECIDE_SHARE = 0.05  # of --seconds, spent re-deciding in the audit process
WITNESS_REPEATS = 3


def setup(workload_name: str, seed: int, rounds: int, tracer=None):
    """Import the program, force sympy's lazy import, generate the workload
    and emit the instance texts."""
    import ltireach.cli  # noqa: F401
    import ltireach.driver  # noqa: F401
    import sympy

    x = sympy.Symbol("x")
    sympy.Poly([1, 0, -2], x, domain="ZZ").factor_list()
    import workloads

    if tracer is not None:
        import spans

        spans.install(tracer, extra_modules=[workloads])
    wl = workloads.WORKLOADS[workload_name]
    stream = workloads.rounds(wl, seed)
    return wl, [next(stream) for _ in range(rounds)]


def replay_witness(system, witness: dict) -> bool:
    """Independent exact replay: x_{t+1} = A x_t + u_t from the JSON
    coefficients; the target of every generated instance is one point."""
    a = system.a.to_rows()
    comps = system.controls.components
    x = list(system.source)
    if int(witness["horizon"]) != len(witness["steps"]):
        return False
    for step in witness["steps"]:
        comp = comps[int(step["component"])]
        groups = ((comp.vertices, step["vertex_coeffs"]), (comp.rays, step["ray_coeffs"]),
                  (comp.lines, step["line_coeffs"]))
        lam = [Fraction(c) for c in step["vertex_coeffs"]]
        mu = [Fraction(c) for c in step["ray_coeffs"]]
        if sum(lam) != 1 or min(lam + mu, default=0) < 0:
            return False
        u = [Fraction(0)] * len(x)
        for gens, coeffs in groups:
            if len(gens) != len(coeffs):
                return False
            for g, c in zip(gens, coeffs):
                u = [ui + Fraction(c) * gi for ui, gi in zip(u, g)]
        x = [sum(r * xi for r, xi in zip(row, x)) + ui for row, ui in zip(a, u)]
    return system.target.vertices == (tuple(x),)


def check_verdict(inst, expected: str, body: dict) -> str | None:
    """None when the verdict agrees with the oracle and proves itself."""
    kind = body["verdict"]
    allowed = {"reachable": {"reachable"}, "unknown": {"unknown"},
               "not-reachable": {"unreachable", "unknown"},
               "self-proof": {"reachable", "unreachable", "unknown"}}[expected]
    if kind not in allowed:
        return f"verdict {kind}, oracle says {expected}"
    if kind == "reachable" and not replay_witness(inst.system, body["witness"]):
        return "witness does not replay"
    return None


def decide_loop(wl, all_rounds, seconds: float, min_rounds: int | None, tracer, work: str):
    """Decide whole rounds: at least `min_rounds` and until `seconds` of raw
    decide time have passed, or every round when `min_rounds` is None."""
    from ltireach import driver, instances

    records = []
    total = 0.0
    loops = [clock.reference_loop()]
    for r, rnd in enumerate(all_rounds):
        if min_rounds is not None and r >= min_rounds and total >= seconds:
            break
        for inst in rnd:
            if tracer is not None:
                tracer.request = inst.ident
            rec = {"id": inst.ident, "family": inst.family, "expected": inst.expected,
                   "text": inst.text}
            t0 = time.perf_counter()
            try:
                body = instances.verdict_to_json(driver.decide(instances.parse_instance(inst.text),
                                                               wl.budgets))
                text = instances.dump_json(body)
            except Exception as exc:  # a crash is a failed operation, not the end of the run
                body, rec["kind"], rec["failure"] = None, "error", repr(exc)
            rec["raw_s"] = time.perf_counter() - t0
            loops.append(clock.reference_loop())
            total += rec["raw_s"]
            records.append(rec)
            if body is None:
                continue
            rec["kind"] = body["verdict"]
            rec["digest"] = hashlib.sha256(text.encode()).hexdigest()
            rec["failure"] = check_verdict(inst, rec["expected"], body)
            if rec["kind"] in ("reachable", "unreachable"):
                ipath = os.path.join(work, f"{inst.ident}.lti")
                apath = os.path.join(work, f"{inst.ident}.json")
                with open(ipath, "w") as fh:
                    fh.write(inst.text)
                with open(apath, "w") as fh:
                    fh.write(text)
                rec["artifact"] = [ipath, apath]
    if tracer is not None:
        tracer.request = None
    for rec, s in zip(records, clock.normalize_series([r["raw_s"] for r in records], loops)):
        rec["seconds"] = s
    return records, sum(r["seconds"] for r in records)


def layer_metrics(tracer, records, factor_before, factor_after) -> dict[str, float]:
    tot = tracer.totals()
    decides = max(1, len(records))

    def s(name):
        return tot[name]["s"] if name in tot else 0.0

    def calls(name):
        return tot[name]["calls"] if name in tot else 0

    reach_ids = {r["id"] for r in records if r.get("kind") == "reachable"}
    before_reach = sum(1 for name, _, _, _, req in tracer.spans
                       if name == "certify.verify_separator" and req in reach_ids)
    verified = calls("certify.verify_separator")
    found = sum(1 for r in records if r.get("kind") == "unreachable")
    m = {
        "driver.decide.s": s("driver.decide"),
        "driver.candidates_before_reach": before_reach,
        "preprocess.check_simple.calls_per_decide": calls("preprocess.check_simple") / decides,
        "preprocess.check_simple.s": s("preprocess.check_simple"),
        "preprocess.to_simple_form.s": s("preprocess.to_simple_form"),
        "linalg.spectral_decompose.s": s("linalg.spectral_decompose"),
        "linalg.expand_inner_product.calls": calls("linalg.expand_inner_product"),
        "linalg.expand_inner_product.s": s("linalg.expand_inner_product"),
        "geometry.lp_solve.calls": calls("geometry.lp_solve"),
        "geometry.lp_solve.s": s("geometry.lp_solve"),
        "geometry.lp_solve.cells": tracer.lp_cells,
        "geometry.facet_normals.s": s("geometry.facet_normals"),
        "geometry.minkowski_sum.s": s("geometry.minkowski_sum"),
        "forward.reach_exactly.calls": calls("forward.reach_exactly"),
        "forward.reach_exactly.s": s("forward.reach_exactly"),
        "forward.reach_exactly.self_s": tot["forward.reach_exactly"]["self_s"]
        if "forward.reach_exactly" in tot else 0.0,
        "forward.verify_witness.s": s("forward.verify_witness"),
        "certify.verify_separator.calls": verified,
        "certify.verify_separator.s": s("certify.verify_separator"),
        "certify.eventual_maximizer.calls": calls("certify.eventual_maximizer"),
        "certify.eventual_maximizer.s": s("certify.eventual_maximizer"),
        "certify.classify_sequence.calls": calls("certify.classify_sequence"),
        "certify.classify_sequence.s": s("certify.classify_sequence"),
        "certify.sup_in_direction.s": s("certify.sup_in_direction"),
        "certify.candidates.extremal": tracer.counts["certify.candidates.extremal"],
        "certify.candidates.enumerated": tracer.counts["certify.candidates.enumerated"],
        "certify.candidate_gen.s": s("certify.candidate_gen"),
        "certify.hit_ratio": found / verified if verified else 0.0,
        "exactnum.factor.misses": factor_after.misses - factor_before.misses,
        "exactnum.factor.hits": factor_after.hits - factor_before.hits,
        "exactnum.factor.s": s("exactnum.factor"),
        "exactnum.sturm_chain.calls": tracer.counts["exactnum.sturm_chain.calls"],
        "exactnum.from_rational.calls": tracer.counts["exactnum.from_rational.calls"],
        "exactnum.realalg_arith.calls": tracer.counts["exactnum.realalg_arith.calls"],
        "exactnum.compare.calls": tracer.counts["exactnum.compare.calls"],
        "instances.parse_instance.s": s("instances.parse_instance"),
        "instances.verdict_to_json.s": s("instances.verdict_to_json"),
        "gadgets.build.s": s("gadgets.build"),
    }
    return m


def _normalize_layers(layers: dict, timed: list[dict]) -> dict:
    """Scale span seconds by the run's normalized/raw ratio (see clock.py);
    set-up spans (gadget builders) get the same factor."""
    raw = sum(t["raw_s"] for t in timed)
    factor = sum(t["seconds"] for t in timed) / raw if raw else 1.0
    return {k: v * factor if k.endswith((".s", ".self_s")) else v for k, v in layers.items()}


def cmd_setup(args) -> None:
    setup(args.workload, args.seed, MAX_ROUNDS[args.workload])
    print("ready", flush=True)


def cmd_decide(args) -> None:
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
    rounds = args.rounds or MAX_ROUNDS[args.workload]
    wl, all_rounds = setup(args.workload, args.seed, rounds, tracer)
    if tracer is not None:
        from ltireach import exactnum

        factor = exactnum.factor_int_poly.__wrapped__  # the lru_cache under the wrapper
        factor_before = factor.cache_info()
    print("ready", flush=True)
    min_rounds = None if args.rounds else MIN_ROUNDS[args.workload]
    records, window = decide_loop(wl, all_rounds, args.seconds, min_rounds, tracer, args.work)
    out = {
        "records": records,
        "decide_s_total": window,
        "rounds_decided": 1 + max((int(r["id"][1:].split(".")[0]) for r in records), default=-1),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        layers = layer_metrics(tracer, records, factor_before, factor.cache_info())
        out["layers"] = _normalize_layers(layers, records)
        if args.spans:
            tracer.write(args.spans)
    with open(args.result, "w") as fh:
        json.dump(out, fh)


def cmd_audit(args) -> None:
    """Audit every artifact through the CLI, then re-decide instances (in
    stream order, for a bounded time) to check that verdict bytes repeat."""
    from ltireach import cli, driver, instances

    with open(args.decided) as fh:
        decided = json.load(fh)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    print("ready", flush=True)
    audits = []
    with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
            contextlib.redirect_stderr(sink):
        # warm the interpreter on one witness audit (untimed); a witness
        # touches none of the program's caches, so certificates stay cold
        witnesses = [r for r in decided["records"] if r.get("kind") == "reachable"]
        if witnesses:
            cli.main(["audit", *witnesses[-1]["artifact"]])
        loops = [clock.reference_loop()]
        for rec in decided["records"]:
            if "artifact" not in rec:
                continue
            if tracer is not None:
                tracer.request = rec["id"]
            # a witness replay takes milliseconds and touches no cache, so its
            # time is the median of several audits; a certificate is audited
            # once, cold, as a fresh auditor sees it
            for _ in range(WITNESS_REPEATS if rec["kind"] == "reachable" else 1):
                t0 = time.perf_counter()
                try:
                    code = cli.main(["audit", *rec["artifact"]])
                except Exception as exc:  # reported as a failed audit
                    code = repr(exc)
                audits.append({"id": rec["id"], "raw_s": time.perf_counter() - t0, "code": code})
                loops.append(clock.reference_loop())
    for a, s in zip(audits, clock.normalize_series([a["raw_s"] for a in audits], loops)):
        a["seconds"] = s
    by_id: dict[str, list[dict]] = {}
    for a in audits:
        by_id.setdefault(a["id"], []).append(a)
    audits = [{"id": i, "code": next((a["code"] for a in calls if a["code"] != 0), 0),
               "raw_s": statistics.median(a["raw_s"] for a in calls),
               "seconds": statistics.median(a["seconds"] for a in calls)}
              for i, calls in by_id.items()]
    out = {"audits": audits, "redecided": []}
    if tracer is not None:
        tot = tracer.totals()
        out["layers"] = _normalize_layers({
            "driver.audit.s": tot["driver.audit"]["s"] if "driver.audit" in tot else 0.0,
            "certify.recompute_sup.s": tot["certify.recompute_sup"]["s"]
            if "certify.recompute_sup" in tot else 0.0,
        }, audits)
    else:
        import workloads

        wl = workloads.WORKLOADS[args.workload]
        deadline = time.perf_counter() + REDECIDE_SHARE * args.seconds
        for rec in decided["records"]:
            if "digest" not in rec:
                continue
            try:
                body = instances.verdict_to_json(
                    driver.decide(instances.parse_instance(rec["text"]), wl.budgets))
                kind, text = body["verdict"], instances.dump_json(body)
            except Exception as exc:  # reported as a failed re-decide
                kind, text = repr(exc), ""
            out["redecided"].append({"id": rec["id"], "kind": kind,
                                     "same": hashlib.sha256(text.encode()).hexdigest() == rec["digest"]})
            if time.perf_counter() >= deadline:
                break
    with open(args.result, "w") as fh:
        json.dump(out, fh)


def main() -> None:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "decide", "audit"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--rounds", type=int, default=0)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--work")
    p.add_argument("--result")
    p.add_argument("--decided")
    p.add_argument("--spans")
    args = p.parse_args()
    {"setup": cmd_setup, "decide": cmd_decide, "audit": cmd_audit}[args.mode](args)


if __name__ == "__main__":
    main()
