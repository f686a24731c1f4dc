"""Smoke test of the benchmark itself, at the tiny size.

    python3 -m pytest bench/test_bench.py -q

Runs every workload untraced and traced, checks that each prints every
metric BENCHMARK.json names with its unit, that the output checks pass
apart from the documented known defects, that tracing restores every
binding it patched, and that the benchmark refuses to run without the
program's sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
KNOWN = {"ce-vector-scalar-zpart-notce": "vector-scalar-degenerate",
         "rays-born-infeld-flux": "rays-start-off-cone"}


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_passes_checks(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    names = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m: v["unit"] for m, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in names}
    record = json.loads((ROOT / ".bench_out" /
                         f"result-{workload}-seed3-trace{trace}.json").read_text())
    for job in record["jobs"]:
        if job["status"] == "ok":
            continue
        assert job["status"] == "known-defect", job
        assert {f["defect"] for f in job["failures"]} == {KNOWN[job["name"]]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "classify-grid", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_patches_every_binding_and_restores_them():
    from cewave import cli, jets, lagrangians, shock1d
    originals = (cli.classify, shock1d.scalar_system, shock1d.crossing_time,
                 lagrangians.LagrangianModel.jet_at, jets.Jet3.__add__)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.classify is not originals[0]
        assert shock1d.scalar_system is not originals[1]
        assert shock1d.crossing_time is not originals[2]
        assert lagrangians.LagrangianModel.jet_at is not originals[3]
        assert jets.Jet3.__add__ is not originals[4]
        lagrangians.builtin("born-infeld").jet_at(jets.InvariantPoint(a=0.1, b=0.2))
        assert tracer.counts["jets.Jet3.ops"] > 0
        assert tracer.names[tracer.name[0]] == "lagrangians.jet_at"
    finally:
        tracer.restore()
    assert (cli.classify, shock1d.scalar_system, shock1d.crossing_time,
            lagrangians.LagrangianModel.jet_at, jets.Jet3.__add__) == originals


def test_removed_function_is_recorded_as_absent(monkeypatch):
    monkeypatch.setitem(tracing.SPANS, "ce.removed", ("ce", "removed"))
    tracer = tracing.Tracer()
    tracer.install()
    tracer.restore()
    assert tracer.absent == ["ce.removed"]
    metrics = tracer.layer_metrics([], {"cli.bytes_out": 0.0,
                                        "trace.overhead_s": 0.0})
    assert [m for m, _ in tracing.PER_LAYER] == list(metrics)


def test_jobs_depend_only_on_the_seed():
    for name in workloads.WORKLOADS:
        assert workloads.generate(name, 5) == workloads.generate(name, 5)
        assert workloads.generate(name, 5) != workloads.generate(name, 6)
