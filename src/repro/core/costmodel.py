"""Calibrated roofline cost model for the serving stack's knobs.

:mod:`repro.analysis.perfmodel` models the *paper's* A100 — fixed,
hand-calibrated constants mapping Table-1 costs to Figure-10 bars.  This
module models the *emulator serving stack itself*, on whatever machine it
is running on, and its constants are **fit from serve telemetry** rather
than transcribed: the tracer's per-stage spans (``mac.pad`` /
``mac.gather`` / ``mac.gemm`` / ``mac.scatter``), payload bytes and batch
service times are exactly the observations a roofline needs.

Model form (per served batch)::

    ops_eff = ops * (serial_frac + (1 - serial_frac) / parallel)
    t       = overhead_s * batch_overheads
            + block_overhead_s * n_blocks
            + max(ops_eff * inv_peak,  bytes_moved * inv_bw)

The max() is the classic roofline hinge (SNIPPETS #1: runtime = ops /
min(peak, intensity × bandwidth), rearranged to seconds); the Amdahl
factor models the ordered MAC's column-block threading (pad/gather/GEMM
parallelize, the ordered scatter-accumulate does not); the two overhead
terms absorb per-batch serving cost and per-GEMM-block dispatch cost
(csl-experiments' measured-constant style: analytic counts × fitted
overheads).  Five parameters, all fit by :func:`calibrate`.

Feature extraction (:func:`batch_features`) mirrors the fused executor's
actual geometry — line blocks of ``batch_rows`` padded lines, ``ceil(n/L)``
chunks per line, the operator's ``_plan_blocks`` column-split rule — so
knob changes (``mac_threads``, ``mac_col_block``, ``temporal_mode``, batch
cap) move the features the same way they move the real pipeline.

On top sit the tuned-profile artifacts: :class:`KnobConfig` /
:func:`enumerate_knob_configs` span the knob space, and
:class:`TunedProfile` is the JSON artifact ``repro tune`` emits and
:class:`~repro.serve.service.StencilService` loads at startup (explicit
constructor arguments always win; see the precedence rules there).

This module must not import :mod:`repro.serve` (the serving layer imports
core); profile plan keys are therefore stored as pure strings/tuples, and
the serve side converts its ``PlanKey`` fields directly.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..sptc.fused import FusedStencilOperator
from ..sptc.macpool import col_blocks
from .kernel_matrix import choose_L, padded_width

__all__ = [
    "PROFILE_FORMAT",
    "PROFILE_VERSION",
    "BatchFeatures",
    "batch_features",
    "CostModel",
    "CalibrationSample",
    "CalibrationResult",
    "calibrate",
    "KnobConfig",
    "enumerate_knob_configs",
    "TunedPlan",
    "TunedProfile",
    "rank_correlation",
    "rank_agreement",
]

PROFILE_FORMAT = "repro-tuned-profile"
PROFILE_VERSION = 1

#: serial_frac values the calibration grid-searches (the Amdahl knee is
#: shallow; a coarse grid suffices and keeps the fit deterministic)
_SERIAL_FRACS = (0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9, 1.0)


# ----------------------------------------------------------------------
# features: knobs + workload geometry -> roofline inputs
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class BatchFeatures:
    """Roofline inputs for one served batch (analytic, no measurement)."""

    #: fused-GEMM multiply-adds over the whole batch (all sweeps)
    ops: float
    #: workspace traffic in bytes (padded buffer + X + Y + accumulator)
    bytes_moved: float
    #: GEMM dispatch count: line blocks × column blocks × sweeps
    n_blocks: float
    #: effective parallel ways = min(mac_threads, column blocks per GEMM)
    parallel: int
    #: per-batch overhead units: 1 for a fused super-sweep, ``steps`` for
    #: exact temporal mode (each step pays batching/validation again)
    batch_overheads: int

    @property
    def intensity(self) -> float:
        """Arithmetic intensity (MACs per byte) — diagnostic only."""
        return self.ops / max(self.bytes_moved, 1.0)


def _kernel_rows(radius: int, dims: int) -> int:
    side = 2 * radius + 1
    if dims == 1:
        return 1
    if dims == 2:
        return side
    return side * side


def _sweep_geometry(
    radius: int,
    grid_shape: Tuple[int, ...],
    batch: int,
    *,
    mac_threads: int,
    mac_col_block: int,
    batch_rows: int,
    itemsize: int,
) -> Tuple[float, float, float, int]:
    """(ops, bytes, n_blocks, parallel) of ONE fused sweep.

    Follows the fused operator's ``_plan_blocks`` column-split rule.  Ops
    and bytes are those of the dense-expanded operator (every kernel row
    times every compact column), an upper bound on what the sparse-tap
    MAC executes; the calibrated constants absorb the gap.
    """
    L = choose_L(radius)
    width = padded_width(radius)
    n = grid_shape[-1]
    lead = grid_shape[:-1]
    dims = len(grid_shape)
    chunks = math.ceil(n / L)
    chunks_ext = math.ceil((chunks * L - L + width) / L)
    n_rows = _kernel_rows(radius, dims)
    m_active = n_rows * L
    n_x_rows = width  # upper bound on compact X rows; fit absorbs the gap
    lines_per_grid = int(np.prod(lead)) if lead else 1
    pad_lines_per_grid = (
        int(np.prod([s + 2 * radius for s in lead])) if lead else 1
    )
    n_lines = batch * lines_per_grid
    n_pad_lines = batch * pad_lines_per_grid
    blk = min(batch_rows, n_pad_lines)
    n_line_blocks = math.ceil(n_pad_lines / blk)
    cells_total = n_pad_lines * chunks

    ops = float(m_active) * n_x_rows * cells_total
    acc_elems = n_lines * chunks * L
    elems = (
        n_pad_lines * chunks_ext * L  # padded input buffer
        + n_x_rows * cells_total  # X gather
        + m_active * cells_total  # Y
        + 2.0 * acc_elems  # scatter-accumulate read+write
    )
    bytes_moved = float(itemsize) * elems

    # column split of one line-block GEMM: the operator's _plan_blocks rule
    cells_blk = max(blk * chunks, 2)
    if mac_threads < 2 or cells_blk < mac_col_block:
        n_col_blocks = 1
    else:
        block = min(
            mac_col_block,
            max(
                FusedStencilOperator.MIN_COL_BLOCK,
                math.ceil(cells_blk / (2 * mac_threads)),
            ),
        )
        n_col_blocks = len(col_blocks(cells_blk, max(2, block)))
        if n_col_blocks < 2:
            n_col_blocks = 1
    parallel = min(mac_threads, n_col_blocks) if n_col_blocks > 1 else 1
    n_blocks = float(n_line_blocks * n_col_blocks)
    return ops, bytes_moved, n_blocks, parallel


def batch_features(
    radius: int,
    grid_shape: Tuple[int, ...],
    batch: int,
    *,
    steps: int = 1,
    temporal_mode: str = "exact",
    mac_threads: int = 1,
    mac_col_block: int = FusedStencilOperator.COL_BLOCK,
    precision: str = "exact",
    batch_rows: int = 512,
) -> BatchFeatures:
    """Features of one served batch under the given knobs.

    ``temporal_mode="fused"`` with ``steps > 1`` models the serving
    runtime's temporal super-sweep: one sweep of the ``steps``-fold
    self-convolved kernel (radius ``steps·r``), paying the batch overhead
    once.  ``"exact"`` models ``steps`` chained base-radius sweeps, each
    with its own per-sweep overhead.
    """
    if batch < 1:
        raise ValueError(f"batch must be >= 1, got {batch}")
    if steps < 1:
        raise ValueError(f"steps must be >= 1, got {steps}")
    itemsize = 4 if precision == "fp16" else 8
    fused = temporal_mode == "fused" and steps > 1
    eff_radius = radius * steps if fused else radius
    sweeps = 1 if fused else steps
    ops, bts, blocks, parallel = _sweep_geometry(
        eff_radius,
        tuple(grid_shape),
        batch,
        mac_threads=mac_threads,
        mac_col_block=mac_col_block,
        batch_rows=batch_rows,
        itemsize=itemsize,
    )
    return BatchFeatures(
        ops=ops * sweeps,
        bytes_moved=bts * sweeps,
        n_blocks=blocks * sweeps,
        parallel=parallel,
        batch_overheads=sweeps,
    )


# ----------------------------------------------------------------------
# the model
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class CostModel:
    """Roofline predictor with fitted constants (see module docstring)."""

    overhead_s: float
    block_overhead_s: float
    inv_peak: float  # seconds per MAC
    inv_bw: float  # seconds per byte
    serial_frac: float

    def predict_s(self, f: BatchFeatures) -> float:
        """Predicted service seconds for one batch."""
        par = max(1, f.parallel)
        ops_eff = f.ops * (
            self.serial_frac + (1.0 - self.serial_frac) / par
        )
        roof = max(ops_eff * self.inv_peak, f.bytes_moved * self.inv_bw)
        return (
            self.overhead_s * f.batch_overheads
            + self.block_overhead_s * f.n_blocks
            + roof
        )

    def predict_ms(self, f: BatchFeatures) -> float:
        return 1e3 * self.predict_s(f)

    def bound(self, f: BatchFeatures) -> str:
        """Which roofline term binds: ``"compute"`` or ``"memory"``."""
        par = max(1, f.parallel)
        ops_eff = f.ops * (
            self.serial_frac + (1.0 - self.serial_frac) / par
        )
        return (
            "compute"
            if ops_eff * self.inv_peak >= f.bytes_moved * self.inv_bw
            else "memory"
        )

    def to_dict(self) -> dict:
        return {
            "overhead_s": float(self.overhead_s),
            "block_overhead_s": float(self.block_overhead_s),
            "inv_peak": float(self.inv_peak),
            "inv_bw": float(self.inv_bw),
            "serial_frac": float(self.serial_frac),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "CostModel":
        return cls(
            overhead_s=float(data["overhead_s"]),
            block_overhead_s=float(data["block_overhead_s"]),
            inv_peak=float(data["inv_peak"]),
            inv_bw=float(data["inv_bw"]),
            serial_frac=float(data["serial_frac"]),
        )


@dataclass(frozen=True)
class CalibrationSample:
    """One observation: the features the stack served, and how long it took."""

    features: BatchFeatures
    measured_s: float
    #: optional provenance (knob label, batch size, ...) for reports
    label: str = ""


@dataclass(frozen=True)
class CalibrationResult:
    model: CostModel
    rel_rmse: float
    n_samples: int
    iterations: int


def _fit_at_serial_frac(
    samples: Sequence[CalibrationSample],
    serial_frac: float,
    max_iter: int,
) -> Tuple[CostModel, float, int]:
    """Alternating least squares at one fixed Amdahl serial fraction.

    The roofline max() makes the model piecewise-linear; conditioned on
    each sample's *binding term* it is linear in the four remaining
    parameters, so: assign every sample a binding term, solve the linear
    system, re-assign under the fitted constants, repeat to fixpoint.
    """
    y = np.array([s.measured_s for s in samples], dtype=np.float64)
    n = len(samples)
    ops_eff = np.array(
        [
            s.features.ops
            * (serial_frac + (1.0 - serial_frac) / max(1, s.features.parallel))
            for s in samples
        ]
    )
    bts = np.array([s.features.bytes_moved for s in samples])
    over = np.array(
        [float(s.features.batch_overheads) for s in samples]
    )
    blocks = np.array([s.features.n_blocks for s in samples])

    def solve(compute_bound: np.ndarray) -> np.ndarray:
        A = np.zeros((n, 4))
        A[:, 0] = over
        A[:, 1] = blocks
        A[compute_bound, 2] = ops_eff[compute_bound]
        A[~compute_bound, 3] = bts[~compute_bound]
        sol, *_ = np.linalg.lstsq(A, y, rcond=None)
        return np.clip(sol, 0.0, None)  # all constants are physical

    # joint (ungated-sum) solve seeds one starting assignment; all-compute
    # and all-memory seed the other two.  Multiple starts matter: from an
    # all-compute start a memory-dominant workload fits inv_bw = 0, and
    # the reassignment rule can then never move a sample off the compute
    # term — the alternation is only locally convergent.
    A_joint = np.stack([over, blocks, ops_eff, bts], axis=1)
    joint, *_ = np.linalg.lstsq(A_joint, y, rcond=None)
    joint = np.clip(joint, 0.0, None)
    starts = [
        np.ones(n, dtype=bool),
        np.zeros(n, dtype=bool),
        ops_eff * joint[2] >= bts * joint[3],
    ]

    best_params = None
    best_rel = math.inf
    best_iters = 0
    for compute_bound in starts:
        compute_bound = compute_bound.copy()
        params = solve(compute_bound)
        iters = 1
        for iters in range(2, max_iter + 1):
            new_assign = ops_eff * params[2] >= bts * params[3]
            if np.array_equal(new_assign, compute_bound):
                break
            compute_bound = new_assign
            params = solve(compute_bound)
        roof = np.maximum(ops_eff * params[2], bts * params[3])
        pred = params[0] * over + params[1] * blocks + roof
        rel = float(
            np.sqrt(np.mean(((pred - y) / np.maximum(y, 1e-12)) ** 2))
        )
        if rel < best_rel:
            best_rel, best_params, best_iters = rel, params, iters
    model = CostModel(
        overhead_s=float(best_params[0]),
        block_overhead_s=float(best_params[1]),
        inv_peak=float(best_params[2]),
        inv_bw=float(best_params[3]),
        serial_frac=float(serial_frac),
    )
    return model, best_rel, best_iters


def calibrate(
    samples: Sequence[CalibrationSample],
    *,
    serial_fracs: Sequence[float] = _SERIAL_FRACS,
    max_iter: int = 25,
) -> CalibrationResult:
    """Fit the five roofline constants from measured batches.

    Needs at least 4 samples (four linear parameters); spanning several
    batch sizes and thread counts makes the system well-conditioned —
    the ``repro tune`` probe stage is designed to do exactly that.
    """
    if len(samples) < 4:
        raise ValueError(
            f"calibration needs >= 4 samples, got {len(samples)}"
        )
    best: Optional[Tuple[CostModel, float, int]] = None
    for sf in serial_fracs:
        fit = _fit_at_serial_frac(samples, sf, max_iter)
        if best is None or fit[1] < best[1]:
            best = fit
    model, rel_rmse, iters = best
    return CalibrationResult(
        model=model,
        rel_rmse=rel_rmse,
        n_samples=len(samples),
        iterations=iters,
    )


# ----------------------------------------------------------------------
# knob space
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class KnobConfig:
    """One point of the tunable-knob space the model ranks."""

    mac_threads: int
    mac_col_block: int
    temporal_mode: str
    max_batch_size: int

    @property
    def label(self) -> str:
        return (
            f"t{self.mac_threads}-b{self.mac_col_block}-"
            f"{self.temporal_mode}-cap{self.max_batch_size}"
        )


def enumerate_knob_configs(
    *,
    thread_counts: Optional[Sequence[int]] = None,
    col_block_widths: Sequence[int] = (64, 1024, FusedStencilOperator.COL_BLOCK),
    temporal_modes: Sequence[str] = ("exact", "fused"),
    batch_caps: Sequence[int] = (8,),
) -> List[KnobConfig]:
    """The candidate grid ``repro tune`` searches.

    ``thread_counts`` defaults to powers of two up to the machine's core
    count (always including 1, the serial baseline).  Serial configs keep
    only one column width — the block split is inert at ``mac_threads=1``,
    so enumerating widths there would only pad the search with duplicates.
    """
    if thread_counts is None:
        cores = os.cpu_count() or 1
        thread_counts = sorted(
            {1, 2, cores} | {1 << k for k in range(cores.bit_length())}
        )
        thread_counts = [t for t in thread_counts if 1 <= t <= max(2, cores)]
    configs: List[KnobConfig] = []
    seen = set()
    for mode in temporal_modes:
        for cap in batch_caps:
            for t in thread_counts:
                widths = col_block_widths if t > 1 else col_block_widths[:1]
                for w in widths:
                    key = (t, w if t > 1 else 0, mode, cap)
                    if key in seen:
                        continue
                    seen.add(key)
                    configs.append(
                        KnobConfig(
                            mac_threads=int(t),
                            mac_col_block=int(w),
                            temporal_mode=mode,
                            max_batch_size=int(cap),
                        )
                    )
    return configs


# ----------------------------------------------------------------------
# rank diagnostics
# ----------------------------------------------------------------------


def rank_correlation(
    predicted: Sequence[float], measured: Sequence[float]
) -> float:
    """Spearman rank correlation (scipy-free; ordinal ranks)."""
    p = np.asarray(predicted, dtype=np.float64)
    m = np.asarray(measured, dtype=np.float64)
    if p.shape != m.shape or p.size < 2:
        raise ValueError("need two equal-length sequences of >= 2 values")
    rp = np.argsort(np.argsort(p)).astype(np.float64)
    rm = np.argsort(np.argsort(m)).astype(np.float64)
    if np.all(rp == rp[0]) or np.all(rm == rm[0]):
        return 0.0
    return float(np.corrcoef(rp, rm)[0, 1])


def rank_agreement(
    predicted: Sequence[float],
    measured: Sequence[float],
    *,
    tie_rel: float = 0.05,
) -> bool:
    """Does the model's top pick win (or near-tie) the measurement?

    The model's argmin must be within ``tie_rel`` of the measured best —
    near-ties count as agreement because on a tied machine (e.g. one
    core, where threads=1 vs 2 measure identically) strict argmin
    equality is a coin flip the model cannot and need not call.
    """
    p = np.asarray(predicted, dtype=np.float64)
    m = np.asarray(measured, dtype=np.float64)
    best_by_model = int(np.argmin(p))
    best_measured = float(np.min(m))
    return float(m[best_by_model]) <= best_measured * (1.0 + tie_rel)


# ----------------------------------------------------------------------
# tuned-profile artifact
# ----------------------------------------------------------------------


@dataclass(frozen=True)
class TunedPlan:
    """Tuned per-plan knobs, keyed by the serving layer's PlanKey fields.

    ``tile_key = ()`` is the wildcard: applies to any grid shape of the
    (fingerprint, variant, precision) plan family that has no exact-shape
    entry.
    """

    fingerprint: str
    variant: str
    precision: str
    tile_key: Tuple[int, ...] = ()
    mac_threads: Optional[int] = None
    mac_col_block: Optional[int] = None
    predicted_ms: Optional[float] = None
    measured_ms: Optional[float] = None

    @property
    def index_key(self) -> Tuple[str, str, str, Tuple[int, ...]]:
        return (
            self.fingerprint,
            self.variant,
            self.precision,
            tuple(self.tile_key),
        )

    def to_dict(self) -> dict:
        return {
            "fingerprint": self.fingerprint,
            "variant": self.variant,
            "precision": self.precision,
            "tile_key": list(self.tile_key),
            "mac_threads": self.mac_threads,
            "mac_col_block": self.mac_col_block,
            "predicted_ms": self.predicted_ms,
            "measured_ms": self.measured_ms,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TunedPlan":
        mt = data.get("mac_threads")
        mb = data.get("mac_col_block")
        return cls(
            fingerprint=str(data["fingerprint"]),
            variant=str(data["variant"]),
            precision=str(data["precision"]),
            tile_key=tuple(int(s) for s in data.get("tile_key", ())),
            mac_threads=None if mt is None else int(mt),
            mac_col_block=None if mb is None else int(mb),
            predicted_ms=data.get("predicted_ms"),
            measured_ms=data.get("measured_ms"),
        )


@dataclass(frozen=True)
class TunedProfile:
    """The ``repro tune`` JSON artifact a service loads at startup.

    Precedence contract (enforced by :class:`StencilService`): explicit
    constructor arguments beat the profile, the profile beats built-in
    defaults.  The profile carries both service-level knobs
    (``temporal_mode``, ``max_batch_size``) and per-plan MAC knobs.
    """

    model: Optional[CostModel] = None
    temporal_mode: Optional[str] = None
    max_batch_size: Optional[int] = None
    plans: Tuple[TunedPlan, ...] = ()
    #: free-form provenance: workload description, fit quality, host info,
    #: creation time (stamped by the tuner, not here — core code must stay
    #: deterministic)
    meta: Dict[str, object] = field(default_factory=dict)

    # -- serialization -------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "format": PROFILE_FORMAT,
            "version": PROFILE_VERSION,
            "model": None if self.model is None else self.model.to_dict(),
            "service": {
                "temporal_mode": self.temporal_mode,
                "max_batch_size": self.max_batch_size,
            },
            "plans": [p.to_dict() for p in self.plans],
            "meta": dict(self.meta),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "TunedProfile":
        cls.validate(data)
        service = data.get("service") or {}
        cap = service.get("max_batch_size")
        return cls(
            model=(
                None
                if data.get("model") is None
                else CostModel.from_dict(data["model"])
            ),
            temporal_mode=service.get("temporal_mode"),
            max_batch_size=None if cap is None else int(cap),
            plans=tuple(
                TunedPlan.from_dict(p) for p in data.get("plans", ())
            ),
            meta=dict(data.get("meta") or {}),
        )

    @staticmethod
    def validate(data: dict) -> None:
        """Raise ``ValueError`` describing every schema violation found."""
        errors: List[str] = []
        if not isinstance(data, dict):
            raise ValueError("tuned profile must be a JSON object")
        if data.get("format") != PROFILE_FORMAT:
            errors.append(
                f"format must be {PROFILE_FORMAT!r}, got {data.get('format')!r}"
            )
        if data.get("version") != PROFILE_VERSION:
            errors.append(
                f"version must be {PROFILE_VERSION}, got {data.get('version')!r}"
            )
        model = data.get("model")
        if model is not None:
            missing = [
                k
                for k in (
                    "overhead_s",
                    "block_overhead_s",
                    "inv_peak",
                    "inv_bw",
                    "serial_frac",
                )
                if k not in model
            ]
            if missing:
                errors.append(f"model missing keys: {missing}")
        service = data.get("service")
        if service is not None:
            mode = service.get("temporal_mode")
            if mode is not None and mode not in ("exact", "fused"):
                errors.append(f"service.temporal_mode invalid: {mode!r}")
            cap = service.get("max_batch_size")
            if cap is not None and int(cap) < 1:
                errors.append(f"service.max_batch_size must be >= 1: {cap}")
        for i, p in enumerate(data.get("plans", ())):
            for k in ("fingerprint", "variant", "precision"):
                if not p.get(k):
                    errors.append(f"plans[{i}] missing {k!r}")
            mt = p.get("mac_threads")
            if mt is not None and int(mt) < 1:
                errors.append(f"plans[{i}].mac_threads must be >= 1: {mt}")
            mb = p.get("mac_col_block")
            if mb is not None and int(mb) < 2:
                errors.append(f"plans[{i}].mac_col_block must be >= 2: {mb}")
        if errors:
            raise ValueError(
                "invalid tuned profile: " + "; ".join(errors)
            )

    def save(self, path: str) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path: str) -> "TunedProfile":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    # -- consumption ---------------------------------------------------
    def plan_index(
        self,
    ) -> Dict[Tuple[str, str, str, Tuple[int, ...]], TunedPlan]:
        return {p.index_key: p for p in self.plans}

    def plan_for(
        self,
        fingerprint: str,
        variant: str,
        precision: str,
        tile_key: Tuple[int, ...] = (),
    ) -> Optional[TunedPlan]:
        """Exact-shape entry if present, else the ``()`` wildcard entry."""
        idx = self.plan_index()
        hit = idx.get((fingerprint, variant, precision, tuple(tile_key)))
        if hit is not None:
            return hit
        return idx.get((fingerprint, variant, precision, ()))

    def without_service_knobs(self) -> "TunedProfile":
        """Copy with service-level knobs cleared (explicit args won)."""
        return replace(self, temporal_mode=None, max_batch_size=None)

    def without_mac_knobs(self) -> "TunedProfile":
        """Copy with per-plan MAC knobs cleared (explicit args won)."""
        return replace(
            self,
            plans=tuple(
                replace(p, mac_threads=None, mac_col_block=None)
                for p in self.plans
            ),
        )
