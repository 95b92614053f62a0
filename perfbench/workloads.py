"""The three workload drivers and the metrics each one measures.

Each driver sets the program up several times (``setup_s`` is the
median), measures for the requested seconds through ``repro``'s public
API, and checks every output against an oracle computed off the clock.
With a :class:`~spans.SpanLog` enabled, the same driver records the
benchmark's spans around each public call, harvests the spans the
program emits, and fills the per-layer metrics.
"""

from __future__ import annotations

import math
import os
import statistics
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

import repro.core.executor as executor_mod
from repro import Spider, StencilService
from repro.core.pipeline import build_compile_plan
from repro.stencil import Grid, multigrid
from repro.stencil.reference import vectorized_stencil
from repro.stencil.solvers import default_plan_executor

from .inputs import ServeInputs, SolveInputs, SweepInputs
from .machine import peak_rss_mib
from .spans import SpanLog, busy_s, clock, over_windows, pct

#: end-to-end metrics (measured with tracing off) and their units
E2E_UNITS = {
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "mstencils_per_s": "Mstencil/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: per-layer metrics (the traced run) and their units
STAGES = ("pad", "gather", "gemm", "scatter", "store")
LAYER_UNITS = {
    "pipeline.compile_ms": "ms",
    **{f"executor.{s}_ms": "ms" for s in STAGES},
    **{f"executor.{s}_gbs": "GB/s" for s in STAGES},
    **{f"executor.{s}_roof": "ratio" for s in STAGES},
    "fused.dense_macs": "count",
    "fused.useful_macs": "count",
    "fused.useful_mac_ratio": "ratio",
    "fused.gemm_gflops": "GFLOP/s",
    "fused.gemm_roof": "ratio",
    "macpool.cpu_per_wall": "ratio",
    "service.submit_us_p50": "us",
    "service.submit_us_p99": "us",
    "batching.queue_wait_ms_p50": "ms",
    "batching.occupancy_mean": "count",
    "plan_cache.hit_rate": "ratio",
    "plan_cache.compiles": "count",
    "plan_cache.workspace_mib": "MiB",
    **{f"workers.{s}_ms": "ms" for s in ("pack", "ipc", "decode", "unpack", "resolve")},
    "shm.backpressure_stalls": "count",
    "shm.ipc_bytes_per_request": "B",
    "workers.retries": "count",
    "workers.restarts": "count",
    "workers.inline_batches": "count",
    "multigrid.iterations_per_solve": "count",
    "sessions.iteration_ms": "ms",
    "baseline.numpy_sweep_ms": "ms",
    "machine.copy_gbs": "GB/s",
    "machine.mac_gflops": "GFLOP/s",
    "driver.late_ms_p99": "ms",
    "trace.overhead_frac": "ratio",
}

#: metrics printed in the record line only: they are either 0 on a
#: correct run (``failed_frac``) or exist on one workload only
RECORD_UNITS = {
    "failed_frac": "ratio",
    "latency_p99_ms": "ms",
    "saturation_rps": "1/s",
    "solves_per_s": "1/s",
}

#: set-ups per run: at least SETUP_REPS, then more, up to SETUP_MAX_REPS,
#: until they add up to SETUP_MIN_S; ``setup_s`` is their median
SETUP_REPS = 5
SETUP_MIN_S = 2.0
SETUP_MAX_REPS = 25
#: window length of the windowed latency and rate statistics
WINDOW_S = 2.0
#: window length of the overload phase's completion rate
OVERLOAD_WINDOW_S = 0.5
#: serving workers, as the workloads specify
SERVE_WORKERS = 2
#: longest wait for outstanding work after the measured phase
DRAIN_LIMIT_S = 60.0
#: repetitions of each off-path timing (compile, NumPy baseline)
CONTEXT_REPS = 3
#: arrivals between harvests of a traced service's span buffers
HARVEST_EVERY = 256


@dataclass
class Outcome:
    """What one measured phase of a workload produced."""

    attempted: int = 0
    failed: int = 0
    e2e: Dict[str, float] = field(default_factory=dict)
    layers: Dict[str, float] = field(default_factory=dict)
    record: Dict[str, object] = field(default_factory=dict)

    def check(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += not ok
        return ok


def same_bytes(a, b) -> bool:
    """Byte equality: same shape, dtype and every byte (signed zeros too)."""
    a = np.ascontiguousarray(a)
    b = np.ascontiguousarray(b)
    return (
        a.shape == b.shape
        and a.dtype == b.dtype
        and np.array_equal(a.reshape(-1).view(np.uint8), b.reshape(-1).view(np.uint8))
    )


def _set_ups(max_reps: int, setups: List[float]):
    """Count set-up rounds: ``SETUP_REPS`` (or ``max_reps`` if lower),
    then more, up to ``max_reps``, until ``setups`` add up to
    ``SETUP_MIN_S``."""
    n = 0
    while n < min(max_reps, SETUP_REPS) or (
        n < max_reps and sum(setups) < SETUP_MIN_S
    ):
        yield n
        n += 1


def _p90(values: np.ndarray) -> float:
    return float(np.percentile(values, 90))


def _median_time(fn: Callable[[], object], reps: int = CONTEXT_REPS) -> float:
    times = []
    for _ in range(reps):
        t0 = clock()
        fn()
        times.append(clock() - t0)
    return statistics.median(times)


def _compile_ms(specs, log: SpanLog) -> float:
    """Mean over distinct plans of the median ``build_compile_plan`` time."""
    per_spec = []
    for spec in specs:
        with log.span("build_compile_plan"):
            t = _median_time(lambda: build_compile_plan(spec))
        per_spec.append(t * 1e3)
    return float(np.mean(per_spec))


def _numpy_sweep_ms(pairs, log: SpanLog) -> float:
    """Mean over (spec, grid) pairs of the median ``vectorized_stencil``
    time: the plain NumPy floor, context only."""
    per_pair = []
    for spec, grid in pairs:
        with log.span("vectorized_stencil"):
            t = _median_time(lambda: vectorized_stencil(spec, grid))
        per_pair.append(t * 1e3)
    return float(np.mean(per_pair))


# ----------------------------------------------------------------------
# sweep-star: the library path
# ----------------------------------------------------------------------


def sweep_geometry(spider: Spider, shape) -> Dict[str, float]:
    """Computed bytes per stage and MAC counts of one batch-1 sweep.

    Bytes are read plus written array bytes of each stage, from the
    fused operator's public geometry (not measured traffic): pad reads
    the grid and writes the padded buffer; gather copies ``n_x_rows``
    strided rows; the GEMM reads X and the operand and writes Y; the
    scatter does, per active kernel row, a take (read + write) and an
    accumulate (two reads + a write) over the output; store copies the
    interior out.
    """
    op = spider.executor.fused_operator
    r, L = spider.spec.radius, op.L
    item = np.dtype(op.acc_dtype).itemsize
    n, lead = shape[-1], shape[:-1]
    chunks = math.ceil(n / L)
    chunks_ext = math.ceil((chunks * L - L + op.width) / L)
    pad_lines = math.prod(s + 2 * r for s in lead)
    lines = math.prod(lead)
    points = math.prod(shape)
    cols = pad_lines * chunks
    out_elems = lines * chunks * L
    return {
        "points": points,
        "pad": (points + pad_lines * chunks_ext * L) * 8,
        "gather": 2 * op.n_x_rows * cols * 8,
        "gemm": (op.n_x_rows * cols + op.m_active * cols + op.kernel_compact.size) * item,
        "scatter": 5 * len(op.active_kernel_rows) * out_elems * item,
        "store": 2 * points * item,
        "dense_macs": op.m_active * op.n_x_rows * cols,
        "useful_macs": int(np.count_nonzero(op.kernel_compact)) * cols,
    }


def _release(spiders) -> None:
    for sp in spiders:
        sp.executor.release_mac_pool()


def run_sweep(inp: SweepInputs, seconds: float, log: SpanLog, reps: int) -> Outcome:
    out = Outcome()
    cases = inp.cases
    setups: List[float] = []
    firsts: Optional[List[np.ndarray]] = None
    spiders: List[Spider] = []
    for _ in _set_ups(reps, setups):
        _release(spiders)
        spiders = []  # free the previous set-up's workspaces first
        t0 = clock()
        spiders = [Spider(spec) for _, spec, _ in cases]
        results = [sp.run(grid) for sp, (_, _, grid) in zip(spiders, cases)]
        setups.append(clock() - t0)
        log.add("Spider+first_run", t0, t0 + setups[-1])
        if firsts is None:
            firsts = [np.array(r) for r in results]
        for r, f in zip(results, firsts):
            out.check(same_bytes(r, f))
        del results

    # the sweeps' stage spans hang under the Spider.run span that caused them
    current = [None]
    stage_hook = None
    if log.enabled:

        def stage_hook():
            parent = current[0]

            def emit(stage: str, start: float, dur: float) -> None:
                log.add(stage, start, start + dur, parent=parent)

            return emit

    prev_hook = executor_mod._STAGE_HOOK
    executor_mod.set_stage_hook(stage_hook)
    rounds: List[float] = []
    round_t: List[float] = []
    per_case: List[List[float]] = [[] for _ in cases]
    cpu = 0.0
    try:
        end = clock() + seconds
        while clock() < end:
            round_s = 0.0
            round_t.append(clock())
            for k, (sp, (_, _, grid)) in enumerate(zip(spiders, cases)):
                current[0] = sid = log.new_id() if log.enabled else None
                c0 = time.process_time()
                t0 = clock()
                res = sp.run(grid)
                t1 = clock()
                cpu += time.process_time() - c0
                log.add("Spider.run", t0, t1, span_id=sid)
                per_case[k].append(t1 - t0)
                round_s += t1 - t0
                out.check(same_bytes(res, firsts[k]))
            rounds.append(round_s)
    finally:
        executor_mod.set_stage_hook(prev_hook)
    rss = peak_rss_mib()

    # oracle, off the clock: each stencil's first sweep against the
    # per-row reference path
    for sp, (_, _, grid), first in zip(spiders, cases, firsts):
        out.check(same_bytes(sp.executor._reference_run([grid])[0], first))

    geoms = [sweep_geometry(sp, grid.shape) for sp, (_, _, grid) in zip(spiders, cases)]
    busy = sum(sum(t) for t in per_case)
    sweeps = sum(len(t) for t in per_case)
    round_points = sum(g["points"] for g in geoms)
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
        "mstencils_per_s": over_windows(
            round_t, rounds, WINDOW_S, lambda v: round_points / v.mean()
        ) / 1e6,
        "latency_p50_ms": over_windows(round_t, rounds, WINDOW_S, np.median) * 1e3,
        "latency_p90_ms": over_windows(round_t, rounds, WINDOW_S, _p90) * 1e3,
    }
    out.record["sweeps"] = sweeps
    out.record["rounds"] = len(rounds)
    out.record["run_ms_p50"] = {
        name: pct(t, 50) * 1e3 for (name, _, _), t in zip(cases, per_case)
    }
    if log.enabled:
        _sweep_layers(out, spiders, cases, geoms, per_case, cpu, busy, log)
    _release(spiders)
    return out


def _sweep_layers(out, spiders, cases, geoms, per_case, cpu, busy, log) -> None:
    sweeps = sum(len(t) for t in per_case)
    weight = [len(t) for t in per_case]
    # wall time per stage: the MAC pool's concurrent gemm blocks count once
    stage_s = {s: busy_s(log.named(f"mac.{s}")) for s in STAGES}
    for s in STAGES:
        nbytes = sum(w * g[s] for w, g in zip(weight, geoms))
        out.layers[f"executor.{s}_ms"] = stage_s[s] / sweeps * 1e3
        out.layers[f"executor.{s}_gbs"] = nbytes / stage_s[s] / 1e9 if stage_s[s] else 0.0
    dense = sum(w * g["dense_macs"] for w, g in zip(weight, geoms))
    useful = sum(w * g["useful_macs"] for w, g in zip(weight, geoms))
    out.layers["fused.dense_macs"] = dense / sweeps
    out.layers["fused.useful_macs"] = useful / sweeps
    out.layers["fused.useful_mac_ratio"] = useful / dense
    out.layers["fused.gemm_gflops"] = 2 * dense / stage_s["gemm"] / 1e9
    out.record["mac_threads"] = spiders[0].executor.fused_operator.mac_threads
    out.layers["macpool.cpu_per_wall"] = cpu / busy
    out.layers["pipeline.compile_ms"] = _compile_ms([c[1] for c in cases], log)
    out.layers["baseline.numpy_sweep_ms"] = _numpy_sweep_ms(
        [(spec, grid) for _, spec, grid in cases], log
    )


# ----------------------------------------------------------------------
# serve-open: Poisson arrivals into the process backend
# ----------------------------------------------------------------------


@dataclass
class _Sent:
    req: object
    due: float
    key: tuple
    work: int  # grid points x sweeps


@dataclass
class _Phase:
    sent: int = 0
    succeeded: int = 0
    failed: int = 0
    latency: List[float] = field(default_factory=list)
    due: List[float] = field(default_factory=list)
    finish: List[float] = field(default_factory=list)
    work: List[int] = field(default_factory=list)
    late: List[float] = field(default_factory=list)
    submit: List[float] = field(default_factory=list)

    def summary(self) -> Dict[str, int]:
        return {"sent": self.sent, "succeeded": self.succeeded, "failed": self.failed}


def _serve_oracle(inp: ServeInputs) -> Dict[tuple, np.ndarray]:
    """Every pooled (kind, grid, steps) result from the ``workers=0``
    synchronous path: the served results must equal these bytes."""
    steps_used = sorted(
        set(inp.fixed.steps.tolist()) | set(inp.overload.steps.tolist()) | {1}
    )
    oracle = {}
    with StencilService(workers=0) as sync:
        for k, (_, spec) in enumerate(inp.kinds):
            for slot, grid in enumerate(inp.pool[k]):
                for steps in steps_used:
                    oracle[(k, slot, steps)] = sync.submit(
                        spec, grid, steps=steps
                    ).result()
    return oracle


def _settle(out: Outcome, phase: _Phase, sent: _Sent, oracle, log: SpanLog) -> None:
    """Check one completed request and book it to its phase."""
    req = sent.req
    try:
        ok = same_bytes(req.result(), oracle[sent.key])
    except Exception:
        ok = False
    out.check(ok)
    if ok:
        phase.succeeded += 1
        phase.latency.append(req.finished_s - sent.due)
        phase.due.append(sent.due)
        phase.finish.append(req.finished_s)
        phase.work.append(sent.work)
    else:
        phase.failed += 1
    if log.enabled and req.trace is not None:
        log.add(
            "ServeRequest",
            sent.due,
            req.finished_s,
            span_id=("client", req.trace[0]),
            trace_id=req.trace[0],
        )


def _open_loop(svc, inp, sched, oracle, out, phase, pending, log, spans) -> float:
    """Submit ``sched`` on time from this thread, settling completed
    requests in the slack between arrivals; returns the phase start.

    With a ``spans`` list, the service's spans are moved into it every
    :data:`HARVEST_EVERY` arrivals, before its per-thread ring buffers
    can drop them.
    """
    t0 = clock()
    kinds, pool = inp.kinds, inp.pool
    for i in range(len(sched)):
        due = t0 + float(sched.due_s[i])
        if spans is not None and i % HARVEST_EVERY == 0:
            spans.extend(svc.tracer.drain())
        # one settle per arrival even when late, so that under overload
        # completed results are released as fast as they are produced
        if pending and pending[0][1].req.done():
            ph, sent = pending.popleft()
            _settle(out, ph, sent, oracle, log)
        while True:
            now = clock()
            if now >= due:
                break
            if pending and pending[0][1].req.done():
                ph, sent = pending.popleft()
                _settle(out, ph, sent, oracle, log)
            else:
                time.sleep(due - now)
        k, slot, steps = int(sched.kind[i]), int(sched.slot[i]), int(sched.steps[i])
        grid = pool[k][slot]
        s0 = clock()
        req = svc.submit(kinds[k][1], grid, steps=steps)
        s1 = clock()
        phase.late.append(s0 - due)
        phase.submit.append(s1 - s0)
        phase.sent += 1
        log.add("StencilService.submit", s0, s1, parent=("client", req.trace[0]) if req.trace else None)
        pending.append(
            (phase, _Sent(req, due, (k, slot, steps), grid.data.size * steps))
        )
    return t0


def _await_single_thread(limit_s: float = 5.0) -> None:
    """Wait for a closed service's queue feeder threads to exit.

    The process backend forks its workers only from a single-threaded
    parent (else it starts them through a fork server); every set-up
    must start from the state of the first, as in a fresh process.
    """
    end = clock() + limit_s
    while threading.active_count() > 1 and clock() < end:
        time.sleep(0.001)


def _drain(out, pending, oracle, log) -> None:
    limit = clock() + DRAIN_LIMIT_S
    while pending:
        phase, sent = pending.popleft()
        if not sent.req.wait(max(0.0, limit - clock())):
            phase.failed += 1
            out.check(False)
            continue
        _settle(out, phase, sent, oracle, log)


def run_serve(inp: ServeInputs, seconds: float, log: SpanLog, reps: int) -> Outcome:
    out = Outcome()
    oracle = _serve_oracle(inp)
    spec0, grid0 = inp.kinds[0][1], inp.pool[0][0]
    setups = []
    svc = None
    for _ in _set_ups(reps, setups):
        if svc is not None:
            svc.close()
        _await_single_thread()
        t0 = clock()
        svc = StencilService(
            workers=SERVE_WORKERS,
            backend="process",
            transport="shm",
            trace=log.enabled,
        )
        res = svc.submit(spec0, grid0).result(DRAIN_LIMIT_S)
        setups.append(clock() - t0)
        out.check(same_bytes(res, oracle[(0, 0, 1)]))
    try:
        # warm every plan and batch geometry before the clock starts
        warm = [
            (key, svc.submit(inp.kinds[key[0]][1], inp.pool[key[0]][key[1]], steps=key[2]))
            for key in oracle
        ]
        for key, req in warm:
            out.check(same_bytes(req.result(DRAIN_LIMIT_S), oracle[key]))
        svc.tracer.clear()

        # per-layer numbers come from the fixed-rate phase only: it is
        # drained before the overload phase starts
        fixed, over = _Phase(), _Phase()
        pending: deque = deque()
        spans = [] if log.enabled else None
        _open_loop(svc, inp, inp.fixed, oracle, out, fixed, pending, log, spans)
        _drain(out, pending, oracle, log)
        # the overload backlog's size follows the measured capacity, so
        # the gated peak is the one at the fixed rate
        rss = peak_rss_mib()
        if log.enabled:
            spans.extend(svc.tracer.drain())
            out.record["spans_dropped"] = svc.tracer.dropped
            stats = svc.stats()
        quiet = SpanLog(False)
        t_over = _open_loop(svc, inp, inp.overload, oracle, out, over, pending, quiet, None)
        _drain(out, pending, oracle, quiet)
        out.record["peak_rss_overload_mib"] = peak_rss_mib()
    finally:
        svc.close()

    t_end = t_over + float(inp.overload.due_s[-1])
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
        "mstencils_per_s": _completion_rate(over, t_over, t_end, over.work) / 1e6,
        "latency_p50_ms": over_windows(
            fixed.due, fixed.latency, WINDOW_S, np.median
        ) * 1e3,
        "latency_p90_ms": over_windows(
            fixed.due, fixed.latency, WINDOW_S, _p90
        ) * 1e3,
    }
    out.record.update(
        latency_p99_ms=pct(fixed.latency, 99) * 1e3,
        latency_samples=len(fixed.latency),
        saturation_rps=_completion_rate(over, t_over, t_end, [1] * over.succeeded),
        offered_rps={"fixed": inp.rate_rps, "overload": inp.overload_rps},
        phases={"fixed": fixed.summary(), "overload": over.summary()},
        driver_late_ms_p99=pct(fixed.late, 99) * 1e3,
    )
    if log.enabled:
        log.harvest(spans)
        _service_layers(out, stats, spans)
        out.layers["service.submit_us_p50"] = pct(fixed.submit, 50) * 1e6
        out.layers["service.submit_us_p99"] = pct(fixed.submit, 99) * 1e6
        out.layers["driver.late_ms_p99"] = pct(fixed.late, 99) * 1e3
        out.layers["pipeline.compile_ms"] = _compile_ms([s for _, s in inp.kinds], log)
        out.layers["baseline.numpy_sweep_ms"] = _numpy_sweep_ms(
            [(spec, inp.pool[k][0]) for k, (_, spec) in enumerate(inp.kinds)], log
        )
    return out


def _completion_rate(phase: _Phase, t0: float, t1: float, weights) -> float:
    """Completed ``weights`` per second while the phase offered its load,
    from ``t0`` to ``t1``: the median over full ``OVERLOAD_WINDOW_S``
    windows, or the mean until the last completion when that span holds
    fewer than two windows.

    The backlog left at ``t1`` is drained at a lower rate, with no
    arrivals to offer, so it is not part of the measure."""
    edges = np.arange(t0, t1, OVERLOAD_WINDOW_S)
    if len(edges) < 3:
        end = max(phase.finish, default=t0)
        return sum(weights) / max(end - t0, 1e-9)
    sums, _ = np.histogram(phase.finish, bins=edges, weights=weights)
    return float(np.median(sums)) / OVERLOAD_WINDOW_S


def _mean_dur_ms(spans, name: str) -> float:
    durs = [s.dur_s for s in spans if s.name == name]
    return float(np.mean(durs)) * 1e3 if durs else 0.0


def _service_layers(out: Outcome, stats, spans) -> None:
    """Per-layer metrics a served workload reads from ``stats()`` and
    from the spans ``StencilService(trace=True)`` recorded."""
    sweeps = sum(1 for s in spans if s.name == "mac.pad")
    for s in STAGES:
        total = sum(x.dur_s for x in spans if x.name == f"mac.{s}")
        out.layers[f"executor.{s}_ms"] = total / sweeps * 1e3 if sweeps else 0.0
    queue = [s.dur_s for s in spans if s.name == "queue"]
    batches = [s.args["batch"] for s in spans if s.name == "coalesce" and s.args]
    out.layers["batching.queue_wait_ms_p50"] = pct(queue, 50) * 1e3
    out.layers["batching.occupancy_mean"] = float(np.mean(batches)) if batches else 0.0
    for s in ("pack", "ipc", "decode", "unpack", "resolve"):
        if any(x.name == s for x in spans):
            out.layers[f"workers.{s}_ms"] = _mean_dur_ms(spans, s)
    cache, tel = stats.cache, stats.telemetry
    out.layers["plan_cache.hit_rate"] = cache.hit_rate
    out.layers["plan_cache.compiles"] = float(cache.misses)
    out.layers["plan_cache.workspace_mib"] = cache.workspace_bytes / 2**20
    stalls = [
        m.value for m in stats.metrics
        if m.name == "repro_serve_shm_backpressure_stalls_total"
    ]
    out.layers["shm.backpressure_stalls"] = float(sum(stalls))
    out.layers["shm.ipc_bytes_per_request"] = tel.ipc_bytes_per_request
    out.layers["workers.retries"] = float(tel.retries)
    out.layers["workers.restarts"] = float(tel.worker_restarts)
    out.layers["workers.inline_batches"] = float(tel.inline_batches)


# ----------------------------------------------------------------------
# solve-closed: nproc outstanding V-cycle solves on the thread backend
# ----------------------------------------------------------------------


def _solve_oracle(inp: SolveInputs):
    """Per pooled right-hand side: the synchronous ``multigrid.solve``
    result, and the grid points x sweeps its operator applications do."""
    base = default_plan_executor()
    oracle = []
    for rhs in inp.rhs:
        work = [0]

        def counting(spec, grid):
            res = base(spec, grid)
            work[0] += res.size
            return res

        res = multigrid.solve(inp.spec, rhs, executor=counting, tol=inp.tol)
        oracle.append((res, work[0]))
    return oracle


def run_solve(inp: SolveInputs, seconds: float, log: SpanLog, reps: int) -> Outcome:
    out = Outcome()
    oracle = _solve_oracle(inp)
    outstanding_n = len(os.sched_getaffinity(0))

    def check(handle, idx: int) -> Optional[object]:
        try:
            res = handle.result(DRAIN_LIMIT_S)
        except Exception:
            out.check(False)
            return None
        ref = oracle[idx][0]
        ok = res.iterations == ref.iterations and same_bytes(res.solution, ref.solution)
        return res if out.check(ok) else None

    setups = []
    svc = None
    order = [int(i) for i in inp.order]
    for _ in _set_ups(reps, setups):
        if svc is not None:
            svc.close()
        t0 = clock()
        svc = StencilService(workers=SERVE_WORKERS, backend="thread", trace=log.enabled)
        h = svc.submit_solve(inp.spec, inp.rhs[order[0]], tol=inp.tol)
        h.wait(DRAIN_LIMIT_S)
        setups.append(clock() - t0)
        check(h, order[0])
    try:
        svc.tracer.clear()
        latency: List[float] = []
        iterations: List[int] = []
        submit_s: List[float] = []
        work = 0
        outstanding: deque = deque()
        nxt = [1]
        spans: list = []

        def launch() -> None:
            idx = order[nxt[0] % len(order)]
            nxt[0] += 1
            s0 = clock()
            h = svc.submit_solve(inp.spec, inp.rhs[idx], tol=inp.tol)
            s1 = clock()
            submit_s.append(s1 - s0)
            log.add("StencilService.submit_solve", s0, s1)
            outstanding.append((h, s0, idx))

        t_start = clock()
        end, limit = t_start + seconds, t_start + seconds + DRAIN_LIMIT_S
        last = t_start
        for _ in range(outstanding_n):
            launch()
        while outstanding:
            done = [x for x in outstanding if x[0].done()]
            if not done:
                if clock() > limit:
                    for _ in outstanding:
                        out.check(False)
                    break
                outstanding[0][0].wait(0.002)
                continue
            now = clock()
            if log.enabled:  # before the ring buffers can drop any
                spans.extend(svc.tracer.drain())
            for x in done:
                outstanding.remove(x)
                h, s0, idx = x
                log.add("SolveHandle.result", s0, now)
                res = check(h, idx)
                if res is not None:
                    latency.append(now - s0)
                    iterations.append(res.iterations)
                    work += oracle[idx][1]
                    last = now
                if now < end:
                    launch()
        rss = peak_rss_mib()
        stats = svc.stats()
        if log.enabled:
            spans.extend(svc.tracer.drain())
            out.record["spans_dropped"] = svc.tracer.dropped
    finally:
        svc.close()

    elapsed = max(last - t_start, 1e-9)
    out.e2e = {
        "setup_s": statistics.median(setups),
        "peak_rss_mib": rss,
        "mstencils_per_s": work / elapsed / 1e6,
        "latency_p50_ms": pct(latency, 50) * 1e3,
        "latency_p90_ms": pct(latency, 90) * 1e3,
    }
    out.record.update(
        solves_per_s=len(latency) / elapsed,
        solves=len(latency),
        outstanding=outstanding_n,
        iterations_per_solve=float(np.mean(iterations)) if iterations else 0.0,
    )
    if log.enabled:
        log.harvest(spans)
        _service_layers(out, stats, spans)
        out.layers["service.submit_us_p50"] = pct(submit_s, 50) * 1e6
        out.layers["service.submit_us_p99"] = pct(submit_s, 99) * 1e6
        out.layers["multigrid.iterations_per_solve"] = out.record["iterations_per_solve"]
        out.layers["sessions.iteration_ms"] = _mean_dur_ms(spans, "solver_iteration")
        ops = multigrid.multigrid_operators(inp.spec)
        out.layers["pipeline.compile_ms"] = _compile_ms(ops.all_specs(), log)
        out.layers["baseline.numpy_sweep_ms"] = _numpy_sweep_ms(
            [(inp.spec, Grid(inp.rhs[0]))], log
        )
    return out


DRIVERS = {
    "sweep-star": run_sweep,
    "serve-open": run_serve,
    "solve-closed": run_solve,
}
