"""Self-tests for the benchmark code.

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
from harness import Checker, Runner, load_program, percentile  # noqa: E402
from workloads import Job, build_workload, ladder_digraph  # noqa: E402


@pytest.fixture(scope="module")
def wc():
    return load_program(ROOT / "src")


def test_ladder_builder_is_deterministic_per_seed(wc):
    first = ladder_digraph(wc, 16, 2, seed=7)
    assert first.arcs == ladder_digraph(wc, 16, 2, seed=7).arcs
    assert first.arcs != ladder_digraph(wc, 16, 2, seed=8).arcs
    assert first.n == 32 and len(first.arcs) == 2 * (16 + 2 * 15)


def test_workload_texts_are_deterministic_per_seed(wc, tmp_path):
    def texts(seed):
        return [(job.name, job.instance.text) for job in build_workload(wc, "ladder", seed, tmp_path).jobs]

    assert texts(3) == texts(3)
    assert texts(3) != texts(4)


def _probe(wc, tmp_path) -> Job:
    (probe,) = build_workload(wc, "ladder", 1, tmp_path).probes
    return probe


def test_crashed_job_is_charged_its_deadline(wc, tmp_path):
    runner = Runner(wc, deadline_s=5.0)
    execution = runner.run(_probe(wc, tmp_path))  # k = 128 chain: RecursionError
    assert execution.error == "RecursionError"
    assert execution.outcome is None
    assert execution.latency_s == 5.0


def test_timed_out_job_is_charged_its_deadline(wc, tmp_path):
    jobs = build_workload(wc, "ladder", 1, tmp_path).jobs
    slow = next(job for job in jobs if job.name == "ladder-k64-b3/fpt-budget")
    runner = Runner(wc, deadline_s=0.05)
    execution = runner.run(slow)
    assert execution.error == "deadline"
    assert execution.latency_s == 0.05


def test_finished_job_passes_the_checks(wc, tmp_path):
    workload = build_workload(wc, "ladder", 1, tmp_path)
    job = next(job for job in workload.jobs if job.name == "ladder-k8-b2/fpt-budget")
    runner, checker = Runner(wc, workload.deadline_s), Checker(wc)
    for _ in range(2):  # the second run must repeat the first run's counts
        execution = runner.run(job)
        assert execution.error is None and execution.latency_s < workload.deadline_s
        checker.check(execution)
    assert set(execution.outcome.counts) == {
        "memo_entries", "memo_color_entries", "memo_distribute_entries", "memo_hits"
    }


def test_percentile_reports_its_sample_count():
    assert percentile([4.0, 1.0, 3.0, 2.0], 50) == (2.5, 4)
    assert percentile([1.0] * 10 + [11.0], 90) == (1.0, 11)
    with pytest.raises(ValueError):
        percentile([], 50)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_smoke_run_emits_every_metric_with_its_unit(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = run.main(["--workload", "subcubic", "--seed", "1", "--seconds", "0", "--trace", str(trace)])
    assert code == 0
    result = json.loads(out.getvalue().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] >= 1 and result["failed"] == 0
    expected = {m["name"]: m["unit"] for m in spec[section]}
    assert {name: entry["unit"] for name, entry in result["metrics"].items()} == expected
