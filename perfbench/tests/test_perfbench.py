"""Tests of the benchmark harness itself.

Run from the repository root with ``python3 -m pytest perfbench/tests``.
"""

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _one_pass(wl, tracer=None):
    with speed.Speed() as cpu:
        res = run.run_passes(wl, random.Random(0), 0, cpu, tracer)
    assert res.failed == 0, res.problems
    return res


def test_traced_and_untraced_certificates_are_byte_identical():
    wl = workloads.Fixtures(0)
    wl.setup()
    plain = _one_pass(wl)
    tracer = tracing.Tracer()
    tracer.install(wl.api)
    try:
        traced = _one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert tracer.missing == []
    assert len(wl.certificates(plain.first)) == 33
    assert wl.outputs(traced.first) == wl.outputs(plain.first)
    metrics = tracer.layer_metrics(1)
    assert metrics["statements.workflow_steps"] == 3
    assert metrics["rewrite.overlaps_s"] > 0
    assert metrics["matcheck.check_s"] > 0


def test_completion_counters_in_fixture_order():
    wl = workloads.Completion(None)  # the fixture's own assumption order
    wl.setup()
    tracer = tracing.Tracer()
    tracer.install(wl.api)
    try:
        res = _one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert res.attempted == 1
    c = tracer.counts
    assert c["rewrite.obstructions_processed"] == 11_265
    assert c["rewrite.elements_added"] == 2_214
    assert c["rewrite.skipped_degree"] == 361_198
    assert c["rewrite.active_at_stop"] == 2_008
    assert c["rewrite.queued_at_stop"] == 0
    selfs = tracer.self_times()
    assert max(selfs, key=selfs.get) == "rewrite.overlaps"


def test_verify_runs_no_rewrite_code():
    wl = workloads.Verify(3)
    wl.setup()
    tracer = tracing.Tracer()
    tracer.install(wl.api)
    try:
        res = _one_pass(wl, tracer)
    finally:
        tracer.uninstall()
    assert res.attempted == 68
    metrics = tracer.layer_metrics(1)
    assert all(v == 0 for m, v in metrics.items()
               if m.startswith("rewrite.")), metrics
    assert metrics["certify.verify_s"] > 0


def test_reported_metrics_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    layers = set(tracing.Tracer().layer_metrics(1)) | {"trace.overhead_s"}
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        {m: run.layer_unit(m) for m in layers}
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "fixtures",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    for line in proc.stdout.splitlines():
        try:
            json.loads(line)
        except ValueError:
            continue
        raise AssertionError(f"printed a result: {line}")
