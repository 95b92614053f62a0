"""Batch fusion (`run_batch`) equivalence and coalescing-queue policy."""

import inspect
import threading
import time

import numpy as np
import pytest

from repro.core import Spider, SpiderVariant
from repro.core.executor import SpiderExecutor
from repro.cli import build_parser
from repro.serve import BatchQueue, ServeRequest, StencilService, plan_key_for
from repro.serve.batching import DEFAULT_MAX_WAIT_S
from repro.serve.workers import WorkerPool
from repro.stencil import (
    Grid,
    make_box_kernel,
    make_star_kernel,
    named_stencil,
)


# ----------------------------------------------------------------------
# run_batch
# ----------------------------------------------------------------------

BATCH_CASES = [
    ("heat1d", (96,)),
    ("wave1d", (130,)),
    ("heat2d", (20, 33)),
    ("blur2d", (17, 40)),
    ("wave2d", (24, 24)),
    ("heat3d", (9, 11, 13)),
    ("blur3d", (8, 8, 8)),
]


@pytest.mark.parametrize("name,shape", BATCH_CASES)
def test_run_batch_bit_identical_to_per_grid_run(name, shape, rng):
    ex = SpiderExecutor(named_stencil(name))
    grids = [Grid.random(shape, rng) for _ in range(5)]
    ref = np.stack([ex.run(g) for g in grids])
    got = ex.run_batch(grids)
    assert got.shape == (5,) + shape
    assert np.array_equal(ref, got)


@pytest.mark.parametrize("variant", list(SpiderVariant))
@pytest.mark.parametrize("precision", ["exact", "fp16"])
def test_run_batch_all_variants_and_precisions(variant, precision, rng):
    spec = make_box_kernel(2, 3, rng, symmetric=True)
    sp = Spider(spec, precision, variant)
    grids = [Grid.random((24, 32), rng) for _ in range(4)]
    ref = np.stack([sp.run(g) for g in grids])
    got = sp.executor.run_batch(grids)
    assert got.dtype == ref.dtype
    assert np.array_equal(ref, got)


def test_run_batch_singleton_matches_run(rng):
    ex = SpiderExecutor(make_star_kernel(2, 2, rng))
    g = Grid.random((19, 27), rng)
    assert np.array_equal(ex.run_batch([g])[0], ex.run(g))


def test_run_batch_crosses_batch_rows_chunking(rng):
    """Fused batches spanning multiple batch_rows chunks stay exact."""
    ex = SpiderExecutor(named_stencil("heat2d"), batch_rows=16)
    grids = [Grid.random((24, 20), rng) for _ in range(3)]  # 72 lines, 5 chunks
    ref = np.stack([ex.run(g) for g in grids])
    assert np.array_equal(ref, ex.run_batch(grids))


def test_run_batch_input_validation(rng):
    ex = SpiderExecutor(named_stencil("heat2d"))
    with pytest.raises(ValueError):
        ex.run_batch([])
    with pytest.raises(ValueError):
        ex.run_batch([Grid.random((16,), rng)])  # 1D grid, 2D executor
    with pytest.raises(ValueError):
        ex.run_batch([Grid.random((16, 16), rng), Grid.random((16, 18), rng)])


# ----------------------------------------------------------------------
# BatchQueue
# ----------------------------------------------------------------------


def _req(spec, grid_shape, req_id=0, rng=None):
    rng = rng or np.random.default_rng(req_id)
    grid = Grid.random(grid_shape, rng)
    key = plan_key_for(spec, grid_shape=grid_shape)
    return ServeRequest(req_id, spec, grid, key, submitted_s=time.monotonic())


def test_queue_coalesces_same_key_only():
    q = BatchQueue(max_batch_size=8, max_wait_s=0.0)
    heat, blur = named_stencil("heat2d"), named_stencil("blur2d")
    reqs = [
        _req(heat, (16, 16), 0),
        _req(heat, (16, 16), 1),
        _req(blur, (16, 16), 2),
        _req(heat, (16, 16), 3),
    ]
    for r in reqs:
        q.put(r)
    first = q.get_batch()
    assert [r.req_id for r in first] == [0, 1, 3]
    second = q.get_batch()
    assert [r.req_id for r in second] == [2]
    assert len(q) == 0


def test_queue_respects_max_batch_size():
    q = BatchQueue(max_batch_size=2, max_wait_s=0.0)
    spec = named_stencil("heat2d")
    for i in range(5):
        q.put(_req(spec, (16, 16), i))
    sizes = [len(q.get_batch()) for _ in range(3)]
    assert sizes == [2, 2, 1]


def test_queue_shape_splits_batches():
    """Same spec, different grid shape -> different plan key -> no fusion."""
    q = BatchQueue(max_batch_size=8, max_wait_s=0.0)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))
    q.put(_req(spec, (32, 32), 1))
    assert [r.req_id for r in q.get_batch()] == [0]
    assert [r.req_id for r in q.get_batch()] == [1]


def test_queue_waits_deadline_for_late_arrivals():
    q = BatchQueue(max_batch_size=4, max_wait_s=0.25)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))

    def late_producer():
        time.sleep(0.03)
        q.put(_req(spec, (16, 16), 1))

    t = threading.Thread(target=late_producer)
    t.start()
    batch = q.get_batch()
    t.join()
    assert [r.req_id for r in batch] == [0, 1]


def test_queue_releases_early_when_full():
    q = BatchQueue(max_batch_size=2, max_wait_s=60.0)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))
    q.put(_req(spec, (16, 16), 1))
    start = time.monotonic()
    batch = q.get_batch()
    assert len(batch) == 2
    assert time.monotonic() - start < 1.0  # did not sit out the deadline


def test_queue_serves_oldest_head_first_no_starvation():
    """A sustained hot key must not starve a colder key on the shard."""
    q = BatchQueue(max_batch_size=2, max_wait_s=0.0)
    heat, blur = named_stencil("heat2d"), named_stencil("blur2d")
    # arrival order: A0 A1 B2 A3 A4 — B arrives before A3/A4
    for spec, rid in [(heat, 0), (heat, 1), (blur, 2), (heat, 3), (heat, 4)]:
        q.put(_req(spec, (16, 16), rid))
    batches = [[r.req_id for r in q.get_batch()] for _ in range(3)]
    assert batches[0] == [0, 1]
    assert batches[1] == [2]  # B served before the younger A requests
    assert batches[2] == [3, 4]


def test_queue_full_key_preempts_older_coalescing_window():
    """A full batch releases immediately even while an older-headed key is
    still waiting out its coalescing deadline."""
    q = BatchQueue(max_batch_size=2, max_wait_s=30.0)
    heat, blur = named_stencil("heat2d"), named_stencil("blur2d")
    q.put(_req(heat, (16, 16), 0))  # older head, alone in its window
    q.put(_req(blur, (16, 16), 1))
    q.put(_req(blur, (16, 16), 2))  # blur is now full
    start = time.monotonic()
    first = q.get_batch()
    assert time.monotonic() - start < 1.0  # did not wait out heat's window
    assert [r.req_id for r in first] == [1, 2]
    q.close()
    assert [r.req_id for r in q.get_batch()] == [0]


def test_queue_close_semantics():
    q = BatchQueue(max_batch_size=4, max_wait_s=10.0)
    spec = named_stencil("heat2d")
    q.put(_req(spec, (16, 16), 0))
    q.close()
    assert [r.req_id for r in q.get_batch()] == [0]  # drains without waiting
    assert q.get_batch() is None
    with pytest.raises(RuntimeError):
        q.put(_req(spec, (16, 16), 1))


def test_default_queue_releases_on_consumer_free_and_coalesces_behind_it():
    """The default policy is work-conserving: with a clock that never
    advances no hold window can ever expire, yet a lone request is handed
    over at once; requests that queued while no consumer was waiting still
    fuse, up to the cap."""
    t0 = time.monotonic()
    q = BatchQueue(clock=lambda: t0)
    spec = named_stencil("heat2d")
    lone = _req(spec, (16, 16), 0)
    lone.submitted_s = t0
    q.put(lone)
    got = []
    consumer = threading.Thread(target=lambda: got.append(q.get_batch()))
    consumer.daemon = True
    consumer.start()
    consumer.join(2.0)
    alive = consumer.is_alive()
    if alive:
        q.close()  # let the held consumer drain and exit
        consumer.join(2.0)
    assert not alive, "get_batch held a lone request behind a timer"
    assert [r.req_id for r in got[0]] == [0]

    n = q.max_batch_size + 3
    for i in range(1, n + 1):
        r = _req(spec, (16, 16), i)
        r.submitted_s = t0
        q.put(r)
    first = q.get_batch()
    assert [r.req_id for r in first] == list(
        range(1, 1 + min(n, q.max_batch_size))
    )
    assert [r.req_id for r in q.get_batch()] == list(
        range(1 + q.max_batch_size, n + 1)
    )
    assert len(q) == 0


def test_release_policy_default_is_one_constant():
    """Every entry point defaults to the one release policy constant."""
    for ctor in (BatchQueue, WorkerPool, StencilService):
        param = inspect.signature(ctor).parameters["max_wait_s"]
        assert param.default == DEFAULT_MAX_WAIT_S, ctor.__name__
    parser = build_parser()
    for argv in (["serve-bench"], ["trace", "out.json"]):
        args = parser.parse_args(argv)
        assert args.wait_ms / 1e3 == DEFAULT_MAX_WAIT_S, argv[0]


def test_queue_parameter_validation():
    with pytest.raises(ValueError):
        BatchQueue(max_batch_size=0)
    with pytest.raises(ValueError):
        BatchQueue(max_wait_s=-1.0)


def test_request_handle_lifecycle():
    spec = named_stencil("heat2d")
    req = _req(spec, (8, 8), 7)
    assert not req.done()
    assert req.latency_s is None
    with pytest.raises(TimeoutError):
        req.result(timeout=0.01)
    out = np.ones((8, 8))
    req._resolve(out, batch_size=3, started_s=req.submitted_s + 0.5,
                 finished_s=req.submitted_s + 1.0)
    assert req.done() and not req.failed
    assert req.result() is out
    assert req.batch_size == 3
    assert req.latency_s == pytest.approx(1.0)
    assert req.queue_wait_s == pytest.approx(0.5)

    failed = _req(spec, (8, 8), 8)
    failed._fail(ValueError("boom"), started_s=0.0, finished_s=0.0)
    assert failed.failed
    with pytest.raises(ValueError, match="boom"):
        failed.result()
