"""Seeded workload inputs: the only thing the program receives.

Everything a run feeds the program — stencil weights, grids, the
arrival schedule of the open loop, the order of solves — is drawn here
from ``numpy.random.default_rng(seed)``, so the same seed replays the
same inputs and :func:`digest` changes with the seed.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.stencil import Grid, StencilSpec, named_stencil
from repro.stencil.multigrid import poisson_operator_spec
from repro.stencil.spec import make_box_kernel, make_star_kernel

WORKLOADS = ("sweep-star", "serve-open", "solve-closed")

#: sweep-star alternates these; both grids hold 262,144 points and fit
#: in cache (workspace about 20 MiB)
STAR_CASES = (("Star-2D2R", (512, 512)), ("Star-3D2R", (64, 64, 64)))

#: serve-open traffic mix: small grids, so serving overheads dominate
SERVE_MIX = (
    ("heat2d", (96, 96)),
    ("blur2d", (96, 96)),
    ("Box-2D3R", (96, 96)),
    ("wave1d", (9216,)),
)
#: the mix's stencil weights do not depend on the seed: shard routing
#: hashes the stencil, so seeded weights would move the load balance
#: between the two workers from seed to seed
SERVE_WEIGHT_SEED = 0
#: pooled grids per mix entry (the oracle is computed once per grid)
SERVE_POOL = 8
#: share of requests that advance 4 sweeps instead of 1
SERVE_MULTI_SHARE = 0.25
SERVE_MULTI_STEPS = 4
#: offered rate of the fixed-rate phase: well below the knee on 2 vCPUs
#: (p90 latency more than doubles between 500 and 700 rps), so latency
#: stays steady when other load on the host takes CPU time away
SERVE_RATE_RPS = 200.0
#: offered rate of the overload phase: above the 1400-1700 rps the
#: service completes at saturation on 2 vCPUs, yet low enough that the
#: backlog (whose results the service holds until drained) stays small
SERVE_OVERLOAD_RPS = 2400.0
#: share of the run spent at the fixed rate; the rest is overload
SERVE_FIXED_SHARE = 0.8

#: solve-closed: V-cycle Poisson solves on a 63x63 vertex-centred grid.
#: The right-hand sides are non-negative random sources (uniform on
#: [0, 1)): their mean component sets the V-cycle count, so every solve
#: takes the same 13 iterations to 1e-8 and the seed varies the data,
#: not the work.  Zero-mean normal sources take 11 or 12, at random.
SOLVE_SHAPE = (63, 63)
SOLVE_TOL = 1e-8
SOLVE_POOL = 4
#: long enough that a closed loop never runs out of drawn solves
SOLVE_ORDER_LEN = 4096


def _spec(name: str, dims: int, rng: np.random.Generator) -> StencilSpec:
    """A paper-id stencil with seeded weights, or a named one."""
    if name.startswith("Star-"):
        radius = int(name[-2])
        return make_star_kernel(dims, radius, rng, symmetric=True, name=name)
    if name.startswith("Box-"):
        radius = int(name[-2])
        return make_box_kernel(dims, radius, rng, symmetric=True, name=name)
    return named_stencil(name)


@dataclass
class Schedule:
    """An open-loop arrival schedule: offsets from phase start (s) and,
    per request, the mix entry, pooled-grid slot and sweep count."""

    due_s: np.ndarray
    kind: np.ndarray
    slot: np.ndarray
    steps: np.ndarray

    def __len__(self) -> int:
        return len(self.due_s)


@dataclass
class SweepInputs:
    cases: List[Tuple[str, StencilSpec, Grid]]


@dataclass
class ServeInputs:
    kinds: List[Tuple[str, StencilSpec]]
    pool: List[List[Grid]]
    fixed: Schedule
    overload: Schedule
    rate_rps: float
    overload_rps: float


@dataclass
class SolveInputs:
    spec: StencilSpec
    rhs: List[np.ndarray]
    order: np.ndarray
    tol: float


def _schedule(
    rng: np.random.Generator, rate: float, seconds: float, n_kinds: int
) -> Schedule:
    n = max(1, int(rate * seconds * 1.5) + 16)
    due = np.cumsum(rng.exponential(1.0 / rate, size=n))
    due = due[due < seconds] if due[0] < seconds else due[:1]
    m = len(due)
    return Schedule(
        due_s=due,
        kind=rng.integers(0, n_kinds, size=m),
        slot=rng.integers(0, SERVE_POOL, size=m),
        steps=np.where(
            rng.random(m) < SERVE_MULTI_SHARE, SERVE_MULTI_STEPS, 1
        ),
    )


def make_inputs(workload: str, seed: int, seconds: float):
    """All inputs of one run of ``workload``."""
    rng = np.random.default_rng(seed)
    if workload == "sweep-star":
        return SweepInputs(
            [
                (name, _spec(name, len(shape), rng), Grid.random(shape, rng))
                for name, shape in STAR_CASES
            ]
        )
    if workload == "serve-open":
        weights = np.random.default_rng(SERVE_WEIGHT_SEED)
        kinds = [(n, _spec(n, len(s), weights)) for n, s in SERVE_MIX]
        pool = [
            [Grid.random(shape, rng) for _ in range(SERVE_POOL)]
            for _, shape in SERVE_MIX
        ]
        fixed_s = seconds * SERVE_FIXED_SHARE
        return ServeInputs(
            kinds=kinds,
            pool=pool,
            fixed=_schedule(rng, SERVE_RATE_RPS, fixed_s, len(kinds)),
            overload=_schedule(
                rng, SERVE_OVERLOAD_RPS, seconds - fixed_s, len(kinds)
            ),
            rate_rps=SERVE_RATE_RPS,
            overload_rps=SERVE_OVERLOAD_RPS,
        )
    if workload == "solve-closed":
        return SolveInputs(
            spec=poisson_operator_spec(len(SOLVE_SHAPE)),
            rhs=[rng.random(SOLVE_SHAPE) for _ in range(SOLVE_POOL)],
            order=rng.integers(0, SOLVE_POOL, size=SOLVE_ORDER_LEN),
            tol=SOLVE_TOL,
        )
    raise ValueError(f"unknown workload {workload!r}; choose one of {WORKLOADS}")


def digest(inputs) -> str:
    """SHA-256 over every array and schedule a run's inputs contain."""
    h = hashlib.sha256()

    def feed(obj) -> None:
        if isinstance(obj, np.ndarray):
            h.update(str((obj.dtype, obj.shape)).encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, Grid):
            feed(obj.data)
        elif isinstance(obj, StencilSpec):
            feed(np.asarray(obj.weights))
        elif isinstance(obj, (list, tuple)):
            for item in obj:
                feed(item)
        elif isinstance(obj, Schedule):
            for arr in (obj.due_s, obj.kind, obj.slot, obj.steps):
                feed(arr)
        else:
            h.update(repr(obj).encode())

    for value in vars(inputs).values():
        feed(value)
    return h.hexdigest()
