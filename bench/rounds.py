"""Run and check one round of a workload, optionally traced.

``run_round`` works in-process (the benchmark's tests call it directly);
``main`` is the body of ``worker.py`` and prints the round's record as one
JSON line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import resource
import time
from pathlib import Path

import carrychain

import gauge
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent


def run_round(workload: str, seed: int, scale: str = "full", tracer: spans.Tracer | None = None) -> dict:
    """Run every operation of the workload once, timing each, then check
    every output.  An operation that raises or exits non-zero counts as
    failed; a wrong output of one that did not fail is a problem.  The
    gauge kernel runs before the first operation and after each one; an
    operation's ``gauge_s`` is the mean of the two gauge times around it."""
    ops = workloads.build(workload, seed, scale)
    results: dict = {}
    op_s: dict[str, float] = {}
    gauge_s: dict[str, float] = {}
    errors: list[str] = []
    kind = gauge.KIND[workload]
    gauge.kernel_s(kind)  # the first run in a fresh process warms its code paths up
    before = gauge.kernel_s(kind)
    with tracer if tracer is not None else contextlib.nullcontext():
        for op in ops:
            start = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a crash is a failed operation, not the end of the round
                out = exc
            op_s[op.name] = time.perf_counter() - start
            after = gauge.kernel_s(kind)
            gauge_s[op.name], before = (before + after) / 2, after
            if isinstance(out, Exception):
                errors.append(f"{op.name}: {type(out).__name__}: {out}")
            elif op.cli and out.code != 0:
                errors.append(f"{op.name}: exit code {out.code}: {out.stderr.strip()[-300:]}")
            else:
                results[op.name] = out
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    problems = []
    for op in ops:
        if op.name in results:
            try:
                op.check(results[op.name], results)
            except Exception as exc:  # malformed output fails its check the same way
                problems.append(f"{op.name}: {type(exc).__name__}: {exc}")
    stdout = {op.name: results[op.name].stdout for op in ops if op.cli and op.name in results}
    if tracer is not None:
        tracer.counters["cli.output_bytes"] += sum(len(text.encode()) for text in stdout.values())
    return {
        "wall_s": sum(op_s.values()),
        "peak_rss_mib": peak_rss_mib,
        "attempted": len(ops),
        "failed": len(errors),
        "errors": errors,
        "problems": problems,
        "digests": {name: hashlib.sha256(text.encode()).hexdigest() for name, text in stdout.items()},
        "op_s": op_s,
        "gauge_s": gauge_s,
        "layers": None,
    }


def main(argv: list[str], imported_ns: int) -> int:
    parser = argparse.ArgumentParser(description="one round of a carrychain benchmark workload")
    parser.add_argument("--spawned-ns", type=int, required=True, help="CLOCK_MONOTONIC at spawn, in ns")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true", help="trace, report the per-layer metrics, write the spans")
    args = parser.parse_args(argv)
    tracer = spans.Tracer() if args.trace else None
    record = run_round(args.workload, args.seed, tracer=tracer)
    record["setup_s"] = (imported_ns - args.spawned_ns) / 1e9
    record["module"] = carrychain.__file__
    if tracer is not None:
        contract = json.loads((ROOT / "BENCHMARK.json").read_text())
        record["layers"] = tracer.layer_metrics(m["name"] for m in contract["per_layer"])
        tracer.write(ROOT / ".bench_out" / f"spans-{args.workload}.jsonl")
    print(json.dumps(record))
    return 0
