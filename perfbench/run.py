"""Run one benchmark workload and print its record and result.

Usage, from the root of a checkout (no install, no ``PYTHONPATH``)::

    python3 perfbench/run.py --workload sweep-star --seed 1 --seconds 10 --trace 0

The next-to-last line of standard output is the full record (machine
fingerprint, input digest, per-phase counts, every metric with its
unit); the last line is the result::

    {"correct": true, "attempted": 1203, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` runs the workload twice on the same inputs, half the
seconds each, untraced then traced, and reports the per-layer metrics
plus ``trace.overhead_frac`` (traced over untraced median latency,
minus one).  Traced runs also write their spans to
``perfbench/out/trace-<workload>-seed<seed>.json``.

Exits 0 only when every output matched its oracle, and 1 when one did
not.  Exits non-zero without a result when the checkout holds no
``src/repro`` to measure or an argument is invalid.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: why a per-layer metric reads 0 on a workload, by metric prefix
NOT_ON_PATH = {
    "executor.": "served sweeps run in batches whose geometry stays inside the program; bytes and rates need it",
    "fused.": "served sweeps run in batches whose geometry stays inside the program; MAC counts need it",
    "macpool.": "the MAC shares its process with serving threads, so its CPU time cannot be told apart from outside",
    "service.": "no StencilService on this workload's path",
    "batching.": "no StencilService on this workload's path",
    "plan_cache.": "no StencilService on this workload's path",
    "workers.": "no worker processes on this workload's path (no service on sweep-star, the thread backend on solve-closed)",
    "shm.": "no StencilService on this workload's path",
    "multigrid.": "no solver sessions on this workload",
    "sessions.": "no solver sessions on this workload",
    "driver.": "closed loop: there is no arrival schedule to fall behind",
}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    """Put the checkout's ``src`` first on the path and make sure the
    ``repro`` measured is the one in this checkout."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(
            f"perfbench: {src / 'repro'} not found; run from a checkout "
            "of the repository"
        )
    sys.path[:0] = [str(src), str(ROOT)]
    import repro

    if src not in Path(repro.__file__).resolve().parents:
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {src}")


def _with_units(values, units):
    return {k: {"value": float(values[k]), "unit": units[k]} for k in values}


def _probe(record) -> dict:
    """Run both roofline probes into ``record["machine"]``.  Called after
    the workload, which has read its peak RSS by then, so the copy
    arrays never count toward it."""
    from perfbench import machine

    probe = machine.copy_gbs()
    probe["mac_gflops"] = machine.mac_gflops()
    record["machine"].update(probe)
    return probe


def run(workload: str, seed: int, seconds: float, trace: bool):
    """One run; returns ``(record, result)`` dicts."""
    from perfbench import machine
    from perfbench.inputs import WORKLOADS, digest, make_inputs
    from perfbench.spans import SpanLog, self_times
    from perfbench.workloads import (
        DRIVERS, E2E_UNITS, LAYER_UNITS, RECORD_UNITS, SETUP_MAX_REPS, STAGES,
    )

    if workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {workload!r}; choose one of {WORKLOADS}")
    if seconds <= 0:
        sys.exit("perfbench: --seconds must be > 0")
    drive = DRIVERS[workload]
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "machine": machine.fingerprint(ROOT),
    }
    ticks = machine.cpu_ticks()
    if not trace:
        inputs = make_inputs(workload, seed, seconds)
        out = drive(inputs, seconds, SpanLog(False), SETUP_MAX_REPS)
        record["machine"]["steal_frac"] = machine.steal_frac(ticks, machine.cpu_ticks())
        _probe(record)
        metrics = _with_units(out.e2e, E2E_UNITS)
        attempted, failed = out.attempted, out.failed
    else:
        half = seconds / 2
        inputs = make_inputs(workload, seed, half)
        base = drive(inputs, half, SpanLog(False), 1)
        log = SpanLog(True)
        out = drive(inputs, half, log, 1)
        record["machine"]["steal_frac"] = machine.steal_frac(ticks, machine.cpu_ticks())
        probe = _probe(record)
        layers = {name: 0.0 for name in LAYER_UNITS}
        layers.update(out.layers)
        layers["machine.copy_gbs"] = probe["copy_gbs"]
        layers["machine.mac_gflops"] = probe["mac_gflops"]
        layers["trace.overhead_frac"] = (
            out.e2e["latency_p50_ms"] / base.e2e["latency_p50_ms"] - 1.0
        )
        measured = set(out.layers) | {
            "machine.copy_gbs", "machine.mac_gflops", "trace.overhead_frac",
        }
        if "executor.gemm_gbs" in out.layers:
            for s in STAGES:
                name = f"executor.{s}_roof"
                layers[name] = layers[f"executor.{s}_gbs"] / probe["copy_gbs"]
                measured.add(name)
            # the probe is one thread's rate; the plan's MAC spans its pool
            peak = probe["mac_gflops"] * out.record["mac_threads"]
            layers["fused.gemm_roof"] = layers["fused.gemm_gflops"] / peak
            measured.add("fused.gemm_roof")
        metrics = _with_units(layers, LAYER_UNITS)
        record["not_measured"] = {
            name: next(r for p, r in NOT_ON_PATH.items() if name.startswith(p))
            for name in LAYER_UNITS
            if name not in measured
        }
        record["traced_half"] = {
            "metrics": _with_units(out.e2e, E2E_UNITS),
            "details": out.record,
        }
        record["self_time_ms"] = self_times(log.spans)
        spans_path = ROOT / "perfbench" / "out" / f"trace-{workload}-seed{seed}.json"
        log.write(spans_path)
        record["spans_file"] = str(spans_path.relative_to(ROOT))
        attempted = base.attempted + out.attempted
        failed = base.failed + out.failed
        out = base  # the record's end-to-end numbers are untraced ones
    extras = {k: v for k, v in out.record.items() if k in RECORD_UNITS}
    extras["failed_frac"] = failed / max(attempted, 1)
    record["inputs_sha256"] = digest(inputs)
    record["metrics"] = {
        **_with_units(out.e2e, E2E_UNITS),
        **_with_units(extras, RECORD_UNITS),
    }
    record["details"] = {k: v for k, v in out.record.items() if k not in RECORD_UNITS}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    return record, result


def _stop_resource_tracker() -> None:
    """Stop multiprocessing's resource tracker, which the shm transport
    starts, and wait for it: no process may outlive the run."""
    from multiprocessing import resource_tracker

    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    args = _parse(argv)
    _import_program()
    try:
        record, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        _stop_resource_tracker()
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
