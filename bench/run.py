"""Run one workload of the carrychain benchmark and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  The run repeats whole rounds of the workload until ``--seconds``
have passed.  Each round runs in a fresh process, so the package's lazy
caches start empty, as for a CLI user.  Every round checks every output.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones of BENCHMARK.json: the median ``peak_rss_mib`` of the
rounds, and ``setup_s`` and ``wall_s`` at the reference host speed, medians
over the rounds (see ``gauged_wall`` and ``gauge.py``).  With
``--trace 1`` the first round runs untraced, as the reference for the
stdout comparison and the tracing overhead; the later rounds are traced,
and the metrics are the per-layer ones, medians over the traced rounds.
Raw records and the last traced round's spans go to ``.bench_out/``.

Exit codes: 0 a correct run, 1 a wrong output or a round that broke down,
2 the checkout lacks the program or BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import gauge

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
ROUND_TIMEOUT_S = 150
RUN_LIMIT_S = 160  # start no round that could end after this


class RoundFailed(RuntimeError):
    pass


def now_ns() -> int:
    return time.clock_gettime_ns(time.CLOCK_MONOTONIC)


def spawn(args: list[str]) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every round
    try:
        setup_gauge_s = gauge.interpreter_s(ROOT, env)
    except (subprocess.SubprocessError, OSError) as exc:
        raise RoundFailed(f"the set-up gauge failed: {exc}") from exc
    argv = [sys.executable, str(BENCH / "worker.py"), "--spawned-ns", str(now_ns()), *args]
    try:
        proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise RoundFailed(f"round did not end within {ROUND_TIMEOUT_S} s") from exc
    if proc.returncode == 0:
        try:
            return {**json.loads(proc.stdout.splitlines()[-1]), "setup_gauge_s": setup_gauge_s}
        except (IndexError, json.JSONDecodeError):
            pass
    raise RoundFailed(f"worker exited {proc.returncode} without a record: {proc.stderr.strip()[-2000:]}")


def run(args) -> list[dict]:
    start = time.monotonic()
    base = ["--workload", args.workload, "--seed", str(args.seed)]
    rounds: list[dict] = []
    longest = 0.0
    while True:
        round_start = time.monotonic()
        rounds.append(spawn(base + (["--trace"] if args.trace and rounds else [])))
        module = Path(rounds[-1]["module"]).resolve()
        if ROOT / "src" not in module.parents:
            raise RoundFailed(f"imported carrychain from {module}, not from this checkout")
        longest = max(longest, time.monotonic() - round_start)
        elapsed = time.monotonic() - start
        need_more = args.trace and len(rounds) < 2
        if not need_more and (elapsed >= args.seconds or elapsed + longest > RUN_LIMIT_S):
            break
    return rounds


def best_wall(rounds: list[dict]) -> float:
    """The summed time of the operations, each at its fastest round."""
    return sum(min(r["op_s"][name] for r in rounds) for name in rounds[0]["op_s"])


def gauged_wall(rounds: list[dict], workload: str) -> float:
    """The summed time of the operations at the reference host speed.

    Each operation's time is divided by the gauge kernel's time around it,
    the median of that ratio is taken over the rounds, and the sum of the
    medians is turned back into seconds with the kernel's reference time.
    The host this was tuned on changes speed by up to 2x, in episodes from
    tens of milliseconds to minutes, so a whole run can fall in a slow one;
    the ratio moves far less with the host's state than either time does.
    """
    kind = gauge.KIND[workload]
    ratios = (statistics.median(r["op_s"][name] / r["gauge_s"][name] for r in rounds) for name in rounds[0]["op_s"])
    return gauge.REFERENCE_S[kind] * sum(ratios)


def gauged_setup(rounds: list[dict]) -> float:
    """The median set-up time at the reference host speed, gauged as in
    ``gauged_wall`` by a bare interpreter started just before the round."""
    return gauge.REFERENCE_S["interpreter"] * statistics.median(r["setup_s"] / r["setup_gauge_s"] for r in rounds)


def summarize(args, contract: dict, rounds: list[dict]) -> dict:
    plain = [r for r in rounds if r["layers"] is None]
    traced = [r for r in rounds if r["layers"] is not None]
    problems = [p for r in rounds for p in r["problems"]]
    reference = rounds[0]["digests"]
    for k, r in enumerate(rounds[1:], start=1):
        differ = [name for name in reference.keys() & r["digests"].keys() if reference[name] != r["digests"][name]]
        if differ:
            kind = "traced" if r["layers"] is not None else "untraced"
            problems.append(f"round {k} ({kind}) stdout differs from round 0 for {sorted(differ)}")
    if args.trace:
        values = {m["name"]: statistics.median_low(r["layers"][m["name"]] for r in traced) for m in contract["per_layer"]}
        units = {m["name"]: m["unit"] for m in contract["per_layer"]}
    else:
        values = {
            "setup_s": gauged_setup(rounds),
            "wall_s": gauged_wall(plain, args.workload),
            "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in plain),
        }
        units = {m["name"]: m["unit"] for m in contract["end_to_end"]}
    for r in rounds:
        for error in r["errors"]:
            print(f"failed: {error}", file=sys.stderr)
    for problem in problems:
        print(f"WRONG: {problem}", file=sys.stderr)
    walls = " ".join(f"{r['wall_s']:.3f}" for r in plain)
    print(f"{args.workload}: {len(rounds)} rounds, untraced measured wall_s {walls}, "
          f"fastest per operation {best_wall(plain):.3f}, fastest setup_s {min(r['setup_s'] for r in rounds):.3f}",
          file=sys.stderr)
    if traced:
        traced_wall, plain_wall = gauged_wall(traced, args.workload), gauged_wall(plain, args.workload)
        print(f"traced wall_s {traced_wall:.3f}, overhead {traced_wall - plain_wall:+.3f} s "
              f"({(traced_wall - plain_wall) / plain_wall:+.1%})", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }


def main(argv: list[str] | None = None) -> int:
    if not (ROOT / "src" / "carrychain" / "__init__.py").is_file() or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} holds no carrychain source checkout (src/carrychain, BENCHMARK.json)", file=sys.stderr)
        return 2
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description="carrychain benchmark: one workload, one run")
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in contract["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    OUT.mkdir(exist_ok=True)
    try:
        rounds = run(args)
    except RoundFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    (OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(rounds))
    result = summarize(args, contract, rounds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
