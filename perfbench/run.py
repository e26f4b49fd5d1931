"""ltireach benchmark: seeded workloads, exact verdicts, fresh-process audits.

    python3 perfbench/run.py --workload forward_union --seed 1 --seconds 15 --trace 0

Run from the root of a checkout.  `--trace 0` prints the end-to-end metrics,
`--trace 1` the per-layer metrics of a traced run and its overhead.  The last
line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
Every process is a single thread; the audit process starts after the decide
process has exited.  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("forward_union", "algebraic_2d", "rational_batch")
SETUP_PROBES = 2  # extra set-up-only processes; the decide process adds one more
RUN_LIMIT_S = 170.0
# percentiles for the tails, fixed per workload so that runs compare; each is
# the highest that leaves at least 10 samples beyond it at baseline speed
DECIDE_TAIL = {"forward_union": 69, "algebraic_2d": 58, "rational_batch": 93}
AUDIT_TAIL = {"forward_union": 58, "algebraic_2d": 58, "rational_batch": 92}
TRACE_ROUNDS = {"forward_union": 2, "algebraic_2d": 2, "rational_batch": 4}

END_TO_END_UNITS = {
    "setup_s": "s", "decide_s.p50": "s", "decide_s.tail": "s", "instances_per_s": "1/s",
    "decided_ratio": "ratio", "audit_s.p50": "s", "audit_s.tail": "s", "failed_ratio": "ratio",
    "peak_rss_mb": "MB",
}
# failed_ratio is 0 on a correct run; it is reported, and counted by
# "attempted"/"failed", but is not a comparable metric of the JSON line
JSON_END_TO_END = [m for m in END_TO_END_UNITS if m != "failed_ratio"]


class RunError(Exception):
    """The benchmark itself could not run (not a failed operation)."""


def percentile(values: list[float], pct: int) -> tuple[float, int]:
    """Nearest-rank percentile and the number of samples above its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + RUN_LIMIT_S
        self.work = os.path.join(OUT, f"{args.workload}-seed{args.seed}-{os.getpid()}")
        os.makedirs(self.work, exist_ok=True)

    def _env(self, hash_seed: int) -> dict:
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = str(hash_seed)
        return env

    def worker(self, mode: str, *extra: str, hash_seed: int = 0) -> tuple[float, dict | None]:
        """Start a worker; return (seconds from start to `ready`, result).
        Set-up time stays raw: a reference loop in this process does not
        follow the child's start-up (see README.md)."""
        result = os.path.join(self.work, f"{mode}-{time.monotonic_ns()}.json")
        cmd = [sys.executable, WORKER, mode, "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--work", self.work, "--result", result, *extra]
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                                env=self._env(hash_seed), cwd=ROOT)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter() - t0
            _, err = proc.communicate(timeout=max(1.0, self.deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RunError(f"{mode} process exceeded the run limit") from None
        if proc.returncode != 0 or line.strip() != "ready":
            raise RunError(f"{mode} process exited with {proc.returncode}: {err.strip()[-2000:]}")
        if mode == "setup":
            return ready, None
        with open(result) as fh:
            return ready, json.load(fh)

    def audit(self, decided: dict, *extra: str) -> dict:
        path = os.path.join(self.work, f"decided-{time.monotonic_ns()}.json")
        with open(path, "w") as fh:
            json.dump(decided, fh)
        # another hash seed: a verdict that depends on set order shows up
        return self.worker("audit", "--decided", path, *extra, hash_seed=1)[1]


def failures(decided: dict, audited: dict) -> tuple[int, list[str]]:
    """(operations attempted, failure descriptions)."""
    problems = []
    records = decided["records"]
    for rec in records:
        if rec.get("failure"):
            problems.append(f"decide {rec['id']}: {rec['failure']}")
    for a in audited["audits"]:
        if a["code"] != 0:
            problems.append(f"audit {a['id']}: exit {a['code']}")
    for r in audited["redecided"]:
        if not r["same"]:
            problems.append(f"determinism {r['id']}: verdict bytes differ on re-decide ({r['kind']})")
    attempted = len(records) + len(audited["audits"]) + len(audited["redecided"])
    return attempted, problems


def end_to_end(runner: Runner) -> tuple[dict, int, list[str], list[str], list[dict]]:
    """Metrics, operations attempted, failures, report lines, timings."""
    wl = runner.args.workload
    t0 = time.monotonic()
    setups = [runner.worker("setup")[0] for _ in range(SETUP_PROBES)]
    t1 = time.monotonic()
    ready, decided = runner.worker("decide")
    setups.append(ready)
    t2 = time.monotonic()
    audited = runner.audit(decided)
    t3 = time.monotonic()
    attempted, problems = failures(decided, audited)

    ok = [r for r in decided["records"] if r["kind"] != "error"]
    times = [r["seconds"] for r in ok]
    audit_times = [a["seconds"] for a in audited["audits"]]
    if not times or not audit_times:
        raise RunError("no instance was decided or audited")
    tail, beyond = percentile(times, DECIDE_TAIL[wl])
    atail, abeyond = percentile(audit_times, AUDIT_TAIL[wl])
    metrics = {
        "setup_s": statistics.median(setups),
        "decide_s.p50": statistics.median(times),
        "decide_s.tail": tail,
        "instances_per_s": len(times) / sum(times),
        "decided_ratio": sum(r["kind"] in ("reachable", "unreachable") for r in ok) / len(times),
        "audit_s.p50": statistics.median(audit_times),
        "audit_s.tail": atail,
        "failed_ratio": len(problems) / attempted,
        "peak_rss_mb": decided["peak_rss_mb"],
    }
    first_rounds = [f"{r['id']}:{r.get('digest')}" for r in decided["records"]
                    if r["id"].split(".")[0] in ("r0", "r1")]
    notes = [
        f"decide: {len(times)} instances in {decided['rounds_decided']} whole rounds, "
        f"{decided['decide_s_total']:.1f} s; tail = p{DECIDE_TAIL[wl]}, {beyond} samples beyond",
        f"audit: {len(audit_times)} artifacts in a fresh process; tail = p{AUDIT_TAIL[wl]}, "
        f"{abeyond} samples beyond; {len(audited['redecided'])} instances re-decided under "
        f"another hash seed",
        f"setup samples (s): {' '.join(f'{s:.4f}' for s in setups)}",
        f"wall time (s): set-up probes {t1 - t0:.1f}, decide process {t2 - t1:.1f}, "
        f"audit process {t3 - t2:.1f}",
        "raw, not normalized (s): "
        f"decide p50 {statistics.median(r['raw_s'] for r in ok):.4f}, "
        f"audit p50 {statistics.median(a['raw_s'] for a in audited['audits']):.4f}",
        "verdict digest of rounds 0-1: "
        + hashlib.sha256("\n".join(first_rounds).encode()).hexdigest(),
    ]
    return metrics, attempted, problems, notes, decided["records"] + audited["audits"]


def traced(runner: Runner) -> tuple[dict, int, list[str], list[str], list[dict]]:
    wl = runner.args.workload
    rounds = str(TRACE_ROUNDS[wl])
    _, plain = runner.worker("decide", "--rounds", rounds)
    spans = os.path.join(OUT, f"spans-{wl}-seed{runner.args.seed}.jsonl")
    _, decided = runner.worker("decide", "--rounds", rounds, "--trace", "--spans", spans)
    audited = runner.audit(decided, "--trace")
    attempted, problems = failures(decided, audited)
    metrics = dict(decided["layers"])
    metrics.update(audited["layers"])
    t_plain = sum(r["seconds"] for r in plain["records"])
    t_traced = sum(r["seconds"] for r in decided["records"])
    metrics["trace.overhead"] = t_traced / t_plain - 1.0
    if wl == "forward_union":
        certify_calls = sum(v for k, v in metrics.items()
                            if k.startswith("certify.") and k.endswith((".calls", "extremal",
                                                                        "enumerated")))
        factor_calls = metrics["exactnum.factor.misses"] + metrics["exactnum.factor.hits"]
        if certify_calls or factor_calls:
            problems.append(f"forward_union reached the certificate layers: {certify_calls} "
                            f"certify calls, {factor_calls} factor calls")
    notes = [
        f"traced: {len(decided['records'])} instances ({rounds} rounds), "
        f"untraced {t_plain:.3f} s, traced {t_traced:.3f} s; spans in {os.path.relpath(spans, ROOT)}",
        "render is on neither the decide nor the audit path and is not measured",
    ]
    return metrics, attempted, problems, notes, decided["records"]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=15)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ltireach", "__init__.py")):
        print(f"error: no ltireach sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    runner = Runner(args)
    try:
        metrics, attempted, problems, notes, records = (traced if args.trace else end_to_end)(runner)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    units = END_TO_END_UNITS if not args.trace else None
    env = {"python": platform.python_version(), "sympy": metadata.version("sympy"),
           "nproc": os.cpu_count(), "seed": args.seed, "workload": args.workload,
           "seconds": args.seconds, "trace": args.trace}
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items()))
    for note in notes:
        print(note)
    for name, value in metrics.items():
        unit = units[name] if units else _layer_unit(name)
        print(f"{name:44s} {value:14.6g} {unit}")
    for problem in problems[:50]:
        print(f"FAILED {problem}")
    keep = JSON_END_TO_END if not args.trace else list(metrics)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": len(problems),
        "metrics": {k: {"value": metrics[k], "unit": units[k] if units else _layer_unit(k)}
                    for k in keep},
    }
    with open(os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"),
              "w") as fh:
        json.dump({"environment": env, "notes": notes, "problems": problems, **result,
                   "timings": [{k: rec.get(k) for k in ("id", "kind", "code", "seconds", "raw_s",
                                                        "digest") if k in rec}
                               for rec in records]}, fh, indent=1)
    if not problems:
        shutil.rmtree(runner.work, ignore_errors=True)
    print(json.dumps(result))
    return 0 if not problems else 1


def _layer_unit(name: str) -> str:
    if name.endswith(".s") or name.endswith(".self_s"):
        return "s"
    if name.endswith(("ratio", "overhead", "calls_per_decide")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
