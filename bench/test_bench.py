"""Tests of the benchmark itself: every workload runs clean at a tiny size,
tracing leaves stdout unchanged, the reference code is self-consistent, and
a corrupted output is caught by the check that guards it."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import types
from dataclasses import replace
from pathlib import Path

import pytest

import carrychain.matrix
import refimpl as ref
import rounds
import run
import spans
import workloads

BENCH = Path(__file__).resolve().parent
CONTRACT = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def tiny_outputs(workload: str, seed: int = 5) -> tuple[dict, dict]:
    ops = {op.name: op for op in workloads.build(workload, seed, "tiny")}
    results: dict = {}
    for op in ops.values():
        results[op.name] = op.run()
    return ops, results


def assert_caught(op, output, results) -> None:
    with pytest.raises(workloads.CheckFailed):
        op.check(output, results)


def edit_stdout(out: workloads.CliOutput, change) -> workloads.CliOutput:
    doc = json.loads(out.stdout)
    change(doc)
    return replace(out, stdout=json.dumps(doc))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_round_is_clean(workload):
    record = rounds.run_round(workload, seed=11, scale="tiny")
    assert record["errors"] == [] and record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] == len(workloads.build(workload, 11, "tiny"))
    assert record["wall_s"] > 0
    assert record["gauge_s"].keys() == record["op_s"].keys() and min(record["gauge_s"].values()) > 0


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tracing_keeps_stdout_and_restores_the_program(workload):
    plain = rounds.run_round(workload, seed=3, scale="tiny")
    tracer = spans.Tracer()
    traced = rounds.run_round(workload, seed=3, scale="tiny", tracer=tracer)
    assert traced["digests"] == plain["digests"] and traced["problems"] == []
    assert tracer.spans and all(end >= start for _, start, end, _ in tracer.spans)
    assert carrychain.matrix.amazing_matrix.__module__ == "carrychain.matrix"
    metrics = tracer.layer_metrics([m["name"] for m in CONTRACT["per_layer"]])
    assert metrics["cli.main.self_s"] > 0 and metrics["cli.output_bytes"] > 0


def test_layer_metrics_follow_the_work():
    tracer = spans.Tracer()
    rounds.run_round("oracle-crosscheck", seed=1, scale="tiny", tracer=tracer)
    m = tracer.layer_metrics([x["name"] for x in CONTRACT["per_layer"]])
    assert m["oracle.group_product.pairs"] > 0 and m["oracle.enumerate_b_shuffles.words"] > 0
    assert m["rng.values"] == 0 and m["simulate.samples"] == 0
    tracer = spans.Tracer()
    rounds.run_round("monte-carlo", seed=1, scale="tiny", tracer=tracer)
    m = tracer.layer_metrics([x["name"] for x in CONTRACT["per_layer"]])
    sizes = workloads.SIZES["tiny"]
    assert m["simulate.samples"] >= sizes["shuffle_small"][2] + sizes["carries"][2]
    assert m["rng.values"] >= m["simulate.samples"] and m["rng.stream_block.self_s"] > 0


def test_reference_is_self_consistent():
    for n in range(1, 6):
        for b in range(1, 4):
            assert ref.gsr_matrix(n, b) == ref.closed_matrix(n, b)
        assert sum(ref.eulerian_numbers(n)) == math.factorial(n)
        F, W = ref.foulkes_matrix(n), ref.worpitzky_matrix(n)
        assert [[sum(F[i][t] * W[t][j] for t in range(n)) for j in range(n)] for i in range(n)] == [
            [int(i == j) for j in range(n)] for i in range(n)
        ]
    assert ref.mat_pow(ref.closed_matrix(4, 3), 5) == ref.closed_matrix(4, 3**5)


def test_corrupted_closed_form_outputs_are_caught():
    ops, results = tiny_outputs("closed-form-wide")

    def bump(doc):
        doc["matrix"][0][0] += 1

    def move_within_unsampled_row(doc):
        row = doc["matrix"][1]
        j = next(j for j, v in enumerate(row) if v > 0)
        row[j] -= 1
        row[(j + 1) % len(row)] += 1

    assert 2 not in workloads.sample_rows(len(json.loads(results["amazing"].stdout)["matrix"]))
    assert_caught(ops["amazing"], edit_stdout(results["amazing"], bump), results)
    assert_caught(ops["amazing"], edit_stdout(results["amazing"], move_within_unsampled_row), results)
    assert_caught(ops["foulkes-det"], edit_stdout(results["foulkes-det"], lambda d: d.update(determinant="1")), results)

    ops, results = tiny_outputs("closed-form-deep")
    entries = [list(row) for row in results["amazing-deep"].entries]
    entries[1][2] += 1
    entries[1][3] -= 1
    assert_caught(ops["amazing-deep"], types.SimpleNamespace(entries=entries), results)


def test_corrupted_oracle_outputs_are_caught():
    ops, results = tiny_outputs("oracle-crosscheck")

    def unset_ok(doc):
        doc["report"]["suites"][3]["ok"] = False

    def swap_entry(doc):
        row = doc["matrix"][1]
        row[0], row[1] = row[1], row[0]

    assert_caught(ops["verify-all"], edit_stdout(results["verify-all"], unset_ok), results)
    assert_caught(ops["oracle-transition"], edit_stdout(results["oracle-transition"], swap_entry), results)


def test_corrupted_simulation_outputs_are_caught():
    ops, results = tiny_outputs("monte-carlo")

    def move_count(doc):
        row = doc["counts"][1]
        j = next(j for j, v in enumerate(row) if v > 0)
        row[j] -= 1
        row[(j + 1) % len(row)] += 1

    assert_caught(ops["simulate-shuffle-small"], edit_stdout(results["simulate-shuffle-small"], move_count), results)
    tail = results["carries-tail"]
    counts = [list(row) for row in tail.counts]
    j = next(j for j, v in enumerate(counts[0]) if v > 0)
    counts[0][j] -= 1
    counts[0][(j + 1) % len(counts[0])] += 1
    assert_caught(ops["carries-tail"], replace(tail, counts=tuple(map(tuple, counts))), results)


def test_tv_bound_rejects_a_biased_row():
    exact = [ref.Fraction(1, 2), ref.Fraction(1, 2)]
    with pytest.raises(workloads.CheckFailed):
        workloads.check_counts([[60_000, 40_000]], [exact], 100_000, "biased")
    workloads.check_counts([[50_100, 49_900]], [exact], 100_000, "fair")


def test_gauged_times_ignore_a_uniform_slowdown():
    fast = [{"op_s": {"a": 0.5 + k / 100, "b": 0.1}, "gauge_s": {"a": 0.0012, "b": 0.0013},
             "setup_s": 0.2, "setup_gauge_s": 0.17} for k in range(3)]
    slow = [{key: {n: 1.9 * t for n, t in v.items()} if isinstance(v, dict) else 1.9 * v for key, v in r.items()}
            for r in fast]
    assert run.gauged_wall(slow, "closed-form-wide") == pytest.approx(run.gauged_wall(fast, "closed-form-wide"))
    assert run.gauged_setup(slow) == pytest.approx(run.gauged_setup(fast))
    assert run.gauged_wall(fast, "closed-form-wide") == pytest.approx(0.0012 * (0.51 / 0.0012 + 0.1 / 0.0013))


def test_contract_names_match_the_code():
    assert tuple(w["name"] for w in CONTRACT["workloads"]) == workloads.WORKLOADS
    assert [m["name"] for m in CONTRACT["end_to_end"]] == ["setup_s", "wall_s", "peak_rss_mib"]


def copy_checkout(dest: Path, with_program: bool = True) -> None:
    """A checkout in ``dest``, so that runs leave the repository's .bench_out alone."""
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, dest / "bench", ignore=skip)
    shutil.copy(BENCH.parent / "BENCHMARK.json", dest)
    if with_program:
        shutil.copytree(BENCH.parent / "src", dest / "src", ignore=skip)


def test_run_prints_per_layer_metrics_end_to_end(tmp_path):
    copy_checkout(tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "closed-form-deep", "--seed", "2",
         "--seconds", "0", "--trace", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=150,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    ops = len(workloads.build("closed-form-deep", 2))
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] == 2 * ops
    assert list(result["metrics"]) == [m["name"] for m in CONTRACT["per_layer"]]
    assert (tmp_path / ".bench_out" / "spans-closed-form-deep.jsonl").stat().st_size > 0


def test_run_refuses_a_directory_without_the_program(tmp_path):
    copy_checkout(tmp_path, with_program=False)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "monte-carlo", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
