"""Self-test of the benchmark harness.

Run from the repository root:

    python3 -m pytest bench/test_bench.py -q

It checks that tracing never changes the CLI's output bytes, that every
metric is emitted with its unit, that the seed reaches the coupling job
and nothing else, that the Monte Carlo band accepts honest counts and
rejects wrong ones, and that the benchmark refuses to run without the
package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_bench(workload: str, trace: int, cwd: Path = run.ROOT, script: Path = run.HERE / "run.py"):
    cmd = [sys.executable, str(script), "--workload", workload, "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_and_untraced_outputs_are_byte_identical(workload, tmp_path):
    for job in run.WORKLOADS[workload].jobs:
        argv = run.job_argv(job, 12345)
        plain, traced = tmp_path / "plain.out", tmp_path / "traced.out"
        for output, spans in ((plain, None), (traced, tmp_path / "spans.json")):
            proc = run.spawn(run.cli_cmd(argv, output, spans), tmp_path, run.JOB_TIMEOUT_S)
            assert proc.code == job.exit_code, proc.stderr
        assert plain.read_bytes() == traced.read_bytes(), job.name
        spans = json.loads((tmp_path / "spans.json").read_text())
        assert spans["spans"][0]["name"] == "cli.main"


def _last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_every_metric_is_emitted_with_its_unit():
    plain = _run_bench("exact", 0)
    assert plain.returncode == 0, plain.stderr
    result = _last_json(plain.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    for name, unit in want.items():
        assert f"{name} = " in plain.stdout and plain.stdout.count(f" {unit}") >= 1
    # reported next to the JSON metrics, by name and with their units
    assert "failed_frac: 0 (failed/attempted jobs" in plain.stdout
    assert "probe_failed: " in plain.stdout and " count (of 5 known-defect cases)" in plain.stdout
    assert "wall_s: median " in plain.stdout and " rounds" in plain.stdout
    for job in run.WORKLOADS["exact"].jobs:
        assert f"  {job.name}: wall_s median " in plain.stdout
    assert plain.stdout.count("work_per_s = ") == len(run.WORKLOADS["exact"].jobs)
    assert "machine: " in plain.stdout

    traced = _run_bench("exact", 1)
    assert traced.returncode == 0, traced.stderr
    result = _last_json(traced.stdout)
    want = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert [(n, u, b) for n, u, b in run.LAYER_METRICS] == [
        (m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]
    ]
    assert result["metrics"]["coupling.verify_pick_fraction_bounds.cells"]["value"] == run._cells(run.VERIFY_N_MAX)


def test_seed_reaches_coupling_and_nothing_else():
    for wl in run.WORKLOADS.values():
        for job in wl.jobs:
            a, b = run.job_argv(job, 1), run.job_argv(job, 2)
            if job.name == "couple":
                assert a[-2:] == ["--seed", "1"] and b[-2:] == ["--seed", "2"]
                assert a[:-2] == b[:-2] == list(job.argv)
            else:
                assert a == b == list(job.argv)
                assert "--seed" not in a
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)


def test_monte_carlo_band():
    trials = 4000
    assert run.mc_within_band(2000, trials, Fraction(1, 2))
    assert run.mc_within_band(2000 + 150, trials, Fraction(1, 2))  # 4.7 SE
    assert not run.mc_within_band(2000 + 170, trials, Fraction(1, 2))  # 5.4 SE
    # a tail within 3e-8 of 1: one early coalescence is likely enough to pass,
    # five are not
    near_one = 1 - Fraction(286, 10**10)
    assert run.mc_within_band(trials, trials, near_one)
    assert run.mc_within_band(trials - 1, trials, near_one)
    assert not run.mc_within_band(trials - 5, trials, near_one)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run_bench("float-mc", 0, cwd=tmp_path, script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
