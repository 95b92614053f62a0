"""Tests of the benchmark itself: seeded inputs, metric names and units,
``BENCHMARK.json`` against the benchmark contract, and a smoke run."""

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

from perfbench.inputs import WORKLOADS, digest, make_inputs  # noqa: E402
from perfbench.spans import Span, self_times  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    E2E_UNITS, LAYER_UNITS, RECORD_UNITS, same_bytes,
)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: the end-to-end metrics the benchmark's specification names
NAMED_E2E = {
    "setup_s", "peak_rss_mib", "failed_frac", "mstencils_per_s",
    "latency_p50_ms", "latency_p90_ms", "latency_p99_ms",
    "saturation_rps", "solves_per_s",
}
#: the per-layer metrics it names
NAMED_LAYERS = {
    "pipeline.compile_ms",
    *(f"executor.{s}_{k}" for s in ("pad", "gather", "gemm", "scatter", "store")
      for k in ("ms", "gbs", "roof")),
    "fused.dense_macs", "fused.useful_macs", "fused.useful_mac_ratio",
    "fused.gemm_gflops", "fused.gemm_roof", "macpool.cpu_per_wall",
    "service.submit_us_p50", "service.submit_us_p99",
    "batching.queue_wait_ms_p50", "batching.occupancy_mean",
    "plan_cache.hit_rate", "plan_cache.compiles", "plan_cache.workspace_mib",
    *(f"workers.{s}_ms" for s in ("pack", "ipc", "decode", "unpack", "resolve")),
    "shm.backpressure_stalls", "shm.ipc_bytes_per_request",
    "workers.retries", "workers.restarts", "workers.inline_batches",
    "multigrid.iterations_per_solve", "sessions.iteration_ms",
    "baseline.numpy_sweep_ms", "machine.copy_gbs", "machine.mac_gflops",
    "driver.late_ms_p99", "trace.overhead_frac",
}

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")
PATH = re.compile(r"^[A-Za-z0-9_.\-/]{1,200}$")


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_inputs_other_seed_other_inputs(workload):
    a = digest(make_inputs(workload, 3, 2.0))
    assert digest(make_inputs(workload, 3, 2.0)) == a
    assert digest(make_inputs(workload, 4, 2.0)) != a


def test_every_named_metric_has_a_unit():
    e2e = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert e2e == E2E_UNITS
    assert layers == LAYER_UNITS
    assert NAMED_E2E == set(E2E_UNITS) | set(RECORD_UNITS)
    assert NAMED_LAYERS == set(LAYER_UNITS)
    for unit in (*E2E_UNITS.values(), *LAYER_UNITS.values(), *RECORD_UNITS.values()):
        assert UNIT.match(unit)


def test_benchmark_json_meets_the_contract():
    raw = (ROOT / "BENCHMARK.json").read_bytes()
    assert len(raw) <= 64 * 1024
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert 1 <= len(SPEC["paths"]) <= 16
    for p in SPEC["paths"]:
        assert PATH.match(p) and not p.startswith("/") and ".." not in p.split("/")
        assert (ROOT / p).is_dir()
    cmd = SPEC["command"]
    assert 1 <= len(cmd) <= 32 and all(len(c) <= 200 for c in cmd)
    for arg in cmd[1:]:
        if "/" in arg:
            assert any(arg.startswith(p + "/") for p in SPEC["paths"])
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
        names.append(m["name"])
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
        names.append(m["name"])
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert m["better"] in ("higher", "lower") and UNIT.match(m["unit"])
    assert all(NAME.match(n) for n in names) and len(set(names)) == len(names)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def _run(args, cwd):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_validates_benchmark_json(workload, trace):
    p = _run(
        ["--workload", workload, "--seed", "5", "--seconds", "0.5", "--trace", trace],
        ROOT,
    )
    assert p.returncode == 0, p.stderr
    result = json.loads(p.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    listed = SPEC["end_to_end"] if trace == "0" else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()
    }
    values = [v["value"] for v in result["metrics"].values()]
    assert all(isinstance(v, float) and math.isfinite(v) for v in values)
    if trace == "0":
        assert all(v > 0 for v in values)
    record = json.loads(p.stdout.splitlines()[-2])["record"]
    assert record["machine"]["nproc"] >= 1
    assert record["machine"]["copy_gbs"] > 0 and record["machine"]["mac_gflops"] > 0
    assert "steal_frac" in record["machine"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for p in SPEC["paths"]:
        shutil.copytree(ROOT / p, tmp_path / p, ignore=shutil.ignore_patterns("out", "__pycache__"))
    p = _run(["--workload", "sweep-star", "--seed", "1", "--seconds", "1", "--trace", "0"], tmp_path)
    assert p.returncode != 0
    assert '"correct"' not in p.stdout


def test_self_time_subtracts_the_union_of_children():
    spans = [
        Span("run", 0.0, 10.0, "a"),
        Span("gemm", 2.0, 5.0, "b", parent="a"),
        Span("gemm", 4.0, 7.0, "c", parent="a"),
    ]
    rows = self_times(spans)
    assert rows["run"]["self_ms"] == pytest.approx(5e3)
    assert rows["gemm"]["total_ms"] == pytest.approx(6e3)


def test_oracle_compares_bytes_not_values():
    assert not same_bytes(np.array([0.0]), np.array([-0.0]))
    assert same_bytes(np.arange(4.0), np.arange(4.0))
    assert not same_bytes(np.arange(4.0), np.arange(4.0).astype(np.float32))
