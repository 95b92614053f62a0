"""Functional SPIDER execution on the SpTC emulator.

Three execution paths:

* :class:`SpiderExecutor` ``.run()`` / ``.run_batch()`` — the *fused fast
  path*: at compile time every encoded kernel row is stacked into one
  precompiled block operator ``K_all`` (m = n_rows * L, see
  :class:`repro.sptc.fused.FusedStencilOperator`), and a sweep is, per
  line block, one gather of the shared input matrix ``X`` plus one
  sparse-tap MAC that runs only ``K_all``'s non-zero taps into a
  lane-major accumulator — instead of one line-gather, one windowing pass
  and one GEMM *per kernel row*.  All large buffers live in a plan-owned
  workspace arena reused across calls, so steady-state serving performs
  zero large allocations.
* ``._reference_run()`` — the original per-row fast path, kept verbatim in
  structure (per-row line gather, windowing, GEMM, accumulate) as the
  equivalence oracle the fused path is tested bit-identical against.
* ``.run_faithful()`` — the warp-level path: shared-memory tiles, per-lane
  B-fragment loads through the swapped offset functions, metadata
  registers, sparsity selectors and ``mma.sp.m16n8k16`` issues.  Slow;
  used by the test suite and the Table-3 experiment.

All paths support every stencil the substrate can express (1D/2D/3D,
star/box, any radius) because the transformation is rule-based and shape
agnostic (§3.1.2: "does not require the stencil kernel to follow a
particular shape or numerical pattern").

Numerics contract
-----------------
Per output element, both fast paths sum each kernel row's non-zero taps
over the swapped-k slots in ascending order and accumulate kernel-row
contributions in ascending row order ``q``; the fused MAC states and
keeps that fold itself (scaled adds and an ordered einsum, never the
platform BLAS, whose per-element reduction order changes with call shape
— see :mod:`repro.sptc.fused`), so fused and per-row execution are
bit-identical by construction, independent of batch size, grid shape,
line-block boundaries and thread count.  Under ``precision="fp16"`` both
paths accumulate in float32 **from the start** (the MAC dtype); earlier
revisions accumulated in float64 and rounded once at the end, which
differed from pure float32 accumulation by up to one ulp per element and
forced an extra full-array ``astype`` round-trip.  Results are compared with ``np.array_equal``
(``==``) semantics: dropping structurally-zero terms can flip the sign of
an all-zero output, never a value.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..gpu.memory import AccessAudit, audit_warp_access
from ..sptc.formats import Sparse24Matrix
from ..sptc.fused import FusedStencilOperator
from ..sptc.instruction import InstructionStream
from ..sptc.macpool import split_ranges
from ..sptc.mma import MmaPrecision
from ..sptc.mma_sp import (
    mma_sp_lanewise,
    sparse_matmul,
    synthesize_metadata_registers,
)
from ..sptc.warp import Warp
from ..stencil.grid import BoundaryCondition, Grid
from ..stencil.spec import StencilSpec
from .encoding import EncodedKernelRow, build_fused_operator, encode_kernel_row
from .row_swap import baseline_row_offset_fn, swapped_row_offset_fn

__all__ = ["SpiderExecutor", "FaithfulRunReport", "set_stage_hook"]

#: Optional tracing hook.  ``_STAGE_HOOK()`` is called once per fused
#: sweep and returns an ``emit(stage, start_s, dur_s)`` callable — or
#: ``None``, in which case the sweep takes no clock reads at all.  The
#: serving layer's tracer installs it (:mod:`repro.serve.tracing`); the
#: executor itself never imports the serving layer.
_STAGE_HOOK: Optional[
    Callable[[], Optional[Callable[[str, float, float], None]]]
] = None


def set_stage_hook(
    hook: Optional[Callable[[], Optional[Callable[[str, float, float], None]]]],
) -> None:
    """Install (or clear, with ``None``) the per-sweep stage-span hook."""
    global _STAGE_HOOK
    _STAGE_HOOK = hook


def _rebuild_executor(
    spec_dict: dict,
    precision: str,
    use_sptc: bool,
    batch_rows: int,
    mac_threads: Optional[int] = None,
    mac_col_block: Optional[int] = None,
) -> "SpiderExecutor":
    """Unpickle hook for :class:`SpiderExecutor` (module-level for pickle)."""
    return SpiderExecutor(
        StencilSpec.from_dict(spec_dict),
        precision,
        use_sptc=use_sptc,
        batch_rows=batch_rows,
        mac_threads=mac_threads,
        mac_col_block=mac_col_block,
    )


def _kernel_row_table(spec: StencilSpec) -> Tuple[np.ndarray, Tuple[int, ...]]:
    """Kernel rows plus the leading-axis offsets each row applies at.

    Returns ``(rows, lead_radius)`` where ``rows`` has shape
    ``(n_rows, 2r+1)`` and row ``q`` applies at leading-axis offset(s)
    ``unravel(q) - lead_radius``.
    """
    side = spec.side
    if spec.dims == 1:
        return spec.weights.reshape(1, side), ()
    if spec.dims == 2:
        return spec.weights.reshape(side, side), (spec.radius,)
    return spec.weights.reshape(side * side, side), (spec.radius, spec.radius)


@dataclass
class FaithfulRunReport:
    """Artifacts of a warp-level run (for Table 3 and the test oracle)."""

    output: np.ndarray
    stream: InstructionStream
    smem_audit: AccessAudit

    @property
    def mma_sp_issues(self) -> int:
        return self.stream.count("mma.sp")

    @property
    def lds_issues(self) -> int:
        return self.stream.count("lds")


class _PlanWorkspace:
    """Preallocated buffers and the line-block plan for one geometry.

    A workspace is keyed by grid shape and sized for the largest batch it
    has served (``batch`` is a *capacity*: every per-batch array is a
    prefix of the capacity-sized buffer, so smaller batches run in views
    of the same buffers and variable coalesced batch sizes never thrash
    the arena).  The executor keeps a small LRU of workspaces so
    steady-state serving (same plan, same shapes) never allocates
    grid-sized arrays per call.  Everything here is a pure function of the
    geometry.

    Output lines are indexed in the *padded* line geometry: output line
    ``(b, i0, i1)`` is accumulator line ``b·P + i0·P1 + i1`` (``P`` the
    padded lines per grid, ``P1`` the padded extent of the last leading
    axis), exactly the index of the padded line kernel row 0 reads for
    it.  Kernel row ``q`` then reads padded line ``line + shifts[q]``, a
    constant shift, so a line block is any contiguous range of
    accumulator lines and each row's input is one contiguous range of the
    gathered ``X``.  The halo positions in between are computed and never
    stored.

    * ``padded`` — the stacked, halo-padded input buffer, one row per
      padded *line* (last-axis vector), right-extended with the structural
      x-pad the windowing needs;
    * ``x*`` — the gathered input of one line block plus its halo;
    * ``y`` — MAC scratch: one multi-tap row's einsum output (``L`` rows)
      or one single-tap lane's products;
    * ``acc`` — the lane-major output accumulator, ``(L, lines, chunks)``
      in the MAC dtype, transposed once when results are stored.
    """

    __slots__ = (
        "batch",
        "shape",
        "n",
        "lead_shape",
        "pad_lead",
        "batch_rows",
        "chunks",
        "chunks_ext",
        "pad_lines_per_grid",
        "last_line",
        "shifts",
        "halo",
        "padded",
        "x_flat",
        "x16_flat",
        "x32_flat",
        "y_flat",
        "acc",
    )

    def __init__(
        self,
        batch: int,
        shape: Tuple[int, ...],
        *,
        radius: int,
        L: int,
        width: int,
        n_x_rows: int,
        lead_offset_table: Sequence[Tuple[int, ...]],
        batch_rows: int,
        acc_dtype: type,
        fp16: bool,
    ) -> None:
        self.batch = batch
        self.shape = shape
        n = shape[-1]
        lead_shape = shape[:-1]
        r = radius
        self.n = n
        self.lead_shape = lead_shape
        self.pad_lead = tuple(s + 2 * r for s in lead_shape)
        self.batch_rows = batch_rows
        self.chunks = math.ceil(n / L)
        need = self.chunks * L - L + width
        # padded-line length rounded to L so lines reshape into an
        # (line, chunk, lane) view the X gather can slice directly
        self.chunks_ext = math.ceil(need / L)
        self.pad_lines_per_grid = (
            int(np.prod(self.pad_lead)) if self.pad_lead else 1
        )
        # flat padded-line strides of the leading axes
        strides = np.cumprod((1,) + self.pad_lead[:0:-1])[::-1]
        #: accumulator line of a grid's last interior line
        self.last_line = int(
            sum((s - 1) * st for s, st in zip(lead_shape, strides))
        )
        #: per kernel row, the padded-line shift of its leading offsets
        self.shifts = tuple(
            int(sum(o * st for o, st in zip(off, strides)))
            for off in lead_offset_table
        )
        #: extra padded lines a line block reads past its last output line
        self.halo = max(self.shifts)

        self.padded = np.empty(
            (batch * self.pad_lines_per_grid, self.chunks_ext * L)
        )
        blk = min(batch_rows, self.span(batch))
        # one column past the block's cells: the einsum widens a 1-cell
        # block to two columns (see FusedStencilOperator.execute)
        x_cells = (blk + self.halo) * self.chunks + 1
        if fp16:
            self.x_flat = None
            self.x16_flat = np.empty(n_x_rows * x_cells, dtype=np.float16)
            self.x32_flat = np.empty(n_x_rows * x_cells, dtype=np.float32)
        else:
            self.x_flat = np.empty(n_x_rows * x_cells)
            self.x16_flat = None
            self.x32_flat = None
        self.y_flat = np.empty(L * max(blk * self.chunks, 2), dtype=acc_dtype)
        self.acc = np.empty(
            L * batch * self.pad_lines_per_grid * self.chunks, dtype=acc_dtype
        )

    def span(self, batch: int) -> int:
        """Accumulator lines from the first grid's first output line to
        the last grid's last one."""
        return (batch - 1) * self.pad_lines_per_grid + self.last_line + 1

    def nbytes(self) -> int:
        total = self.padded.nbytes + self.y_flat.nbytes + self.acc.nbytes
        for buf in (self.x_flat, self.x16_flat, self.x32_flat):
            if buf is not None:
                total += buf.nbytes
        return int(total)


class SpiderExecutor:
    """Compiled SPIDER pipeline for one stencil spec.

    Parameters
    ----------
    spec:
        The stencil to execute.
    precision:
        ``"exact"`` (float64; bitwise-comparable to the reference) or
        ``"fp16"`` (hardware-like numerics: float16 storage, float32
        accumulation end-to-end).
    use_sptc:
        True — strided-swapped kernel + ``mma.sp`` semantics (SPIDER);
        False — unswapped dense kernel matrix + dense ``mma`` semantics
        (the ablation variant *SPIDER w. TC*, §4.4).
    batch_rows:
        Line-block granularity of the fused pipeline (and of the per-row
        reference path's X construction), to bound peak workspace memory
        on large grids.
    mac_threads / mac_col_block:
        Ordered-MAC parallelism plan parameters, forwarded to the fused
        operator (see :class:`~repro.sptc.fused.FusedStencilOperator`):
        thread count (``None`` = adaptive — ``REPRO_MAC_THREADS`` or the
        usable core count) and column-block width.  Bit-identical output
        for every setting; carried through pickling as the *requested*
        values so a rehydrated executor re-resolves in its own
        environment.
    """

    #: workspaces kept per executor (distinct (batch, shape) geometries)
    MAX_WORKSPACES = 8

    #: per-grid padded-element floor below which batch padding stays
    #: serial (a small pad loop is cheaper than pool dispatch)
    PAD_PARALLEL_MIN = 1 << 15

    #: floor on a line block's ``n_x_rows * output cells`` below which
    #: the X-row gather stays serial
    GATHER_PARALLEL_MIN = 1 << 16

    def __init__(
        self,
        spec: StencilSpec,
        precision: str = MmaPrecision.EXACT,
        *,
        use_sptc: bool = True,
        batch_rows: int = 512,
        mac_threads: Optional[int] = None,
        mac_col_block: Optional[int] = None,
    ) -> None:
        self.spec = spec
        self.precision = MmaPrecision.validate(precision)
        self.use_sptc = use_sptc
        self.batch_rows = int(batch_rows)
        if self.batch_rows < 1:
            raise ValueError("batch_rows must be >= 1")
        self.mac_threads = mac_threads
        self.mac_col_block = mac_col_block
        self.stream = InstructionStream()

        rows, self._lead_radius = _kernel_row_table(spec)
        self._rows = rows
        # AOT compilation: encode every kernel row once (offline, §3.1.2)
        self._encoded: List[EncodedKernelRow] = [
            encode_kernel_row(rows[q]) for q in range(rows.shape[0])
        ]
        enc0 = self._encoded[0]
        self.L = enc0.L
        self.width = enc0.width
        self.permutation = enc0.permutation
        self.n_rows = rows.shape[0]
        # AOT stage ➍: the fused block operator K_all (m = n_rows * L)
        self._fused = build_fused_operator(
            self._encoded,
            self.precision,
            use_sptc=use_sptc,
            mac_threads=mac_threads,
            mac_col_block=mac_col_block,
        )
        self._lead_offset_table: Tuple[Tuple[int, ...], ...] = tuple(
            self._lead_offsets(q) for q in range(self.n_rows)
        )
        # guards the arena *bookkeeping* (dict mutation vs. the stats
        # reader); buffer contents are still single-writer — the serving
        # layer routes each plan to exactly one worker
        self._ws_lock = threading.Lock()
        self._workspaces: "OrderedDict[Tuple, _PlanWorkspace]" = OrderedDict()
        self._workspace_builds = 0

    def __reduce__(self):
        """Pickle as a recompile recipe (the executor holds locks, an
        instruction stream and a workspace arena — none of which should
        cross a process boundary).  Compilation is deterministic, so the
        rebuilt executor's encoded rows and fused operand are bit-identical
        to the original's; its arena starts empty and refills on first use.
        """
        return (
            _rebuild_executor,
            (
                self.spec.to_dict(),
                self.precision,
                self.use_sptc,
                self.batch_rows,
                self.mac_threads,
                self.mac_col_block,
            ),
        )

    # ------------------------------------------------------------------
    # Fused fast path
    # ------------------------------------------------------------------
    @property
    def fused_operator(self) -> FusedStencilOperator:
        """The precompiled single-GEMM operator (compile-time artifact)."""
        return self._fused

    @property
    def acc_dtype(self) -> type:
        """Accumulator/output dtype: float64 exact, float32 under fp16."""
        return self._fused.acc_dtype

    def workspace_nbytes(self) -> int:
        """Resident bytes of the plan-owned arena + fused operand.

        Safe to call from a monitoring thread while the owning worker is
        serving (the arena lock covers the bookkeeping).
        """
        with self._ws_lock:
            ws = sum(w.nbytes() for w in self._workspaces.values())
        return int(ws + self._fused.nbytes())

    def trim_workspaces(self, keep: int = 0) -> int:
        """Drop all but the ``keep`` most-recently-used workspace
        geometries from the arena; returns the bytes freed.

        Trimmed geometries rebuild lazily on their next request (compiled
        artifacts are untouched), so this is the cheap way for a serving
        cache to reclaim memory from plans whose cold grid shapes — not
        the plans themselves — are pinning bytes.
        """
        if keep < 0:
            raise ValueError(f"keep must be >= 0, got {keep}")
        freed = 0
        with self._ws_lock:
            while len(self._workspaces) > keep:
                _, ws = self._workspaces.popitem(last=False)
                freed += ws.nbytes()
        return int(freed)

    def release_mac_pool(self) -> None:
        """Shut down the fused operator's MAC pool threads (idempotent).

        The serving plan cache calls this on eviction and trim so an
        evicted plan never leaves parked helper threads behind; the pool
        re-creates lazily if the plan executes again.
        """
        self._fused.shutdown_pool()

    def run(self, grid: Grid) -> np.ndarray:
        """One stencil sweep; returns the updated interior.

        A batch-of-one :meth:`run_batch` (the fused pipeline is the single
        implementation; batching a lone grid is bit-neutral).
        """
        return self.run_batch([grid])[0]

    def run_batch(self, grids: Sequence[Grid]) -> np.ndarray:
        """Fused sweep over a batch of same-shape grids.

        The grids are stacked along a leading batch axis *after* per-grid
        halo padding (so boundary conditions never couple across requests)
        and the whole batch then flows through the fused pipeline: per
        line block, one gather of ``X`` spanning every request and one
        sparse-tap MAC that adds every kernel row's contribution in
        ascending q.

        Returns an array of shape ``(len(grids), *grid_shape)`` whose
        slice ``b`` is bit-identical to ``self.run(grids[b])`` — each X
        column holds one chunk of one padded line, and per output element
        the reduction order is fixed (ascending swapped-k inside a kernel
        row, ascending kernel row ``q`` across rows), so batching never
        perturbs the numerics.  Under ``fp16`` the result
        is float32, accumulated in float32 throughout (see the module
        docstring's numerics contract).
        """
        grids, shape = self._validate_batch(grids)
        out = np.empty((len(grids),) + shape, dtype=self.acc_dtype)
        self._run_fused(grids, shape, out)
        return out

    def run_batch_split(
        self,
        grids: Sequence[Grid],
        out: Optional[List[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """Fused sweep returning one freshly-owned array per request.

        Identical numerics to :meth:`run_batch`; the results are written
        straight from the workspace accumulator into per-request
        contiguous arrays, so a caller retaining one result neither pins a
        whole-batch buffer nor pays a second copy (the serving worker's
        old ``out.copy()``).

        ``out`` supplies the per-request destination arrays instead of
        allocating fresh ones — the shared-memory transport passes
        slab-backed views here, so results are materialized directly into
        shared memory with no intermediate buffer.
        """
        grids, shape = self._validate_batch(grids)
        outs = self._check_out(out, len(grids), shape)
        self._run_fused(grids, shape, outs)
        return outs

    def _check_out(
        self,
        out: Optional[List[np.ndarray]],
        batch: int,
        shape: Tuple[int, ...],
    ) -> List[np.ndarray]:
        """Validate caller-supplied destinations (or allocate fresh ones)."""
        if out is None:
            return [
                np.empty(shape, dtype=self.acc_dtype) for _ in range(batch)
            ]
        if len(out) != batch:
            raise ValueError(
                f"out supplies {len(out)} arrays for a batch of {batch}"
            )
        for o in out:
            if o.shape != shape or o.dtype != self.acc_dtype:
                raise ValueError(
                    f"out arrays must be shape {shape} dtype "
                    f"{np.dtype(self.acc_dtype)}, got {o.shape} {o.dtype}"
                )
            if not o.flags.c_contiguous:
                # results are written through a reshape view of the
                # destination; a non-contiguous array would reshape to a
                # copy and silently never receive the data
                raise ValueError("out arrays must be C-contiguous")
        return list(out)

    def run_batch_steps(
        self,
        grids: Sequence[Grid],
        steps: int,
        out: Optional[List[np.ndarray]] = None,
    ) -> List[np.ndarray]:
        """``steps`` chained sweeps of a batch — the temporal super-sweep.

        Byte-identical to the client-visible alternative (run one sweep,
        wrap each result in a ``Grid`` with the same boundary condition,
        resubmit, ``steps`` times): every sweep performs the same
        floating-point operations in the same order, and the intermediate
        float64 re-wrap under ``fp16`` is bit-neutral because
        float32→float64 widening is exact.  What the chained form *skips*
        is the per-sweep serving overhead — per-grid ``Grid``
        construction, batch re-validation, and a fresh whole-batch output
        allocation + copy per sweep; intermediates live in one reused
        ping buffer and feed the next sweep's halo pad directly.
        """
        grids, shape = self._validate_batch(grids)
        if steps < 1:
            raise ValueError(f"steps must be >= 1, got {steps}")
        bcs = [g.bc for g in grids]
        sources: List[Tuple[np.ndarray, BoundaryCondition]] = [
            (g.data, g.bc) for g in grids
        ]
        # a chained ZERO-BC sweep can skip the pad altogether: the
        # previous sweep left the halo and structural pad zero and stored
        # its results in the interior (value-dependent BCs re-pad their
        # halos every sweep)
        all_zero = all(bc is BoundaryCondition.ZERO for bc in bcs)
        pad_mode = "full"
        for _ in range(steps - 1):
            # intermediates land in the padded buffer's interior, which
            # is where the next sweep reads its input
            views = self._sweep_sources(sources, shape, None, pad_mode)
            sources = list(zip(views, bcs))
            if all_zero:
                pad_mode = "none"
        outs = self._check_out(out, len(grids), shape)
        self._sweep_sources(sources, shape, outs, pad_mode)
        return outs

    # -- fused internals ------------------------------------------------
    def _validate_batch(
        self, grids: Sequence[Grid]
    ) -> Tuple[List[Grid], Tuple[int, ...]]:
        grids = list(grids)
        if not grids:
            raise ValueError("run_batch needs at least one grid")
        shape = grids[0].shape
        for g in grids:
            if g.dims != self.spec.dims:
                raise ValueError(
                    f"{self.spec.dims}D executor got a {g.dims}D grid"
                )
            if g.shape != shape:
                raise ValueError(
                    f"all grids in a batch must share one shape; got "
                    f"{g.shape} vs {shape}"
                )
        return grids, shape

    def _workspace_for(
        self, batch: int, shape: Tuple[int, ...]
    ) -> _PlanWorkspace:
        """Fetch (or build/grow) the arena for one grid shape.

        Keyed by shape alone: a workspace built for batch ``B`` serves
        every batch ``<= B`` through prefix views, and grows (one rebuild)
        when a larger batch arrives — so mixed coalesced batch sizes reuse
        one arena instead of thrashing the LRU.
        """
        with self._ws_lock:
            ws = self._workspaces.get(shape)
            if ws is None or ws.batch < batch:
                ws = _PlanWorkspace(
                    batch,
                    shape,
                    radius=self.spec.radius,
                    L=self.L,
                    width=self.width,
                    n_x_rows=self._fused.n_x_rows,
                    lead_offset_table=self._lead_offset_table,
                    batch_rows=self.batch_rows,
                    acc_dtype=self.acc_dtype,
                    fp16=self.precision == MmaPrecision.FP16,
                )
                self._workspaces[shape] = ws
                self._workspace_builds += 1
                while len(self._workspaces) > self.MAX_WORKSPACES:
                    self._workspaces.popitem(last=False)
            self._workspaces.move_to_end(shape)
            return ws

    def _run_fused(
        self,
        grids: List[Grid],
        shape: Tuple[int, ...],
        dest: Union[np.ndarray, List[np.ndarray]],
    ) -> None:
        """One fused sweep into ``dest`` (a (B, *shape) array or B views)."""
        self._sweep_sources([(g.data, g.bc) for g in grids], shape, dest)

    def _sweep_sources(
        self,
        sources: Sequence[Tuple[np.ndarray, BoundaryCondition]],
        shape: Tuple[int, ...],
        dest: Union[np.ndarray, List[np.ndarray], None],
        pad_mode: str = "full",
    ) -> Optional[List[np.ndarray]]:
        """One fused sweep of ``(data, bc)`` sources into ``dest``.

        The ``Grid``-free inner form shared by the single-sweep entry
        points and the chained :meth:`run_batch_steps`.  ``dest=None``
        stores the results in the interior of the workspace's padded
        buffer and returns per-grid views of it, valid until the next
        sweep through this workspace (the chained path feeds them straight
        back as that sweep's sources).  ``pad_mode="none"`` skips the pad:
        the sources already sit in the padded interior and the halos are
        still zero from a previous ZERO-BC sweep.
        """
        B = len(sources)
        hook = _STAGE_HOOK
        emit = hook() if hook is not None else None
        ws = self._workspace_for(B, shape)
        op = self._fused
        L = self.L
        chunks = ws.chunks
        fp16 = self.precision == MmaPrecision.FP16
        n_x = op.n_x_rows
        # the workspace is sized for its largest batch so far; this call's
        # batch runs in leading-dim prefix views of the same buffers
        n_pad_lines = B * ws.pad_lines_per_grid

        padded2d = ws.padded[:n_pad_lines]
        padded_grids = padded2d.reshape(
            (B,) + ws.pad_lead + (ws.chunks_ext * L,)
        )
        if emit is not None:
            t_pad = time.monotonic()
        # per-grid pads write disjoint padded_grids[b] slices, so large
        # batches spread over the MAC pool (order-free: no grid's halo
        # reads another grid's buffer)
        def pad_one(b: int) -> None:
            data, bc = sources[b]
            self._pad_into(data, bc, padded_grids[b])

        if pad_mode == "none":
            pass  # the sources already sit in the padded interior
        elif (
            op.mac_threads > 1
            and B >= 2
            and padded_grids[0].size >= self.PAD_PARALLEL_MIN
        ):
            op.map_tasks(pad_one, [(b,) for b in range(B)])
        else:
            for b in range(B):
                pad_one(b)
        if emit is not None:
            emit("mac.pad", t_pad, time.monotonic() - t_pad)
        # (line, chunk, lane) view: element [p, j, t] = padded[p, j*L + t],
        # so swapped X row i is the strided slice [:, sh_i : sh_i+chunks, t_i]
        padded_lanes = padded2d.reshape(n_pad_lines, ws.chunks_ext, L)

        # lane-major accumulator over the padded line geometry:
        # acc[t, line, j] is output element j*L + t of that line
        acc = ws.acc[: L * n_pad_lines * chunks].reshape(L, -1)
        # each active kernel row's first X cell within a block
        offsets = [ws.shifts[q] * chunks for q in op.active_kernel_rows]
        span = ws.span(B)
        for a0 in range(0, span, ws.batch_rows):
            a1 = min(a0 + ws.batch_rows, span)
            if emit is not None:
                t_gather = time.monotonic()
            # output lines [a0, a1) read padded lines [a0, a1 + halo)
            pl = a1 - a0 + ws.halo
            cells = pl * chunks
            # sized by the block's output cells: the halo re-read is not
            # work a second thread would win back
            gather_parallel = (
                op.mac_threads > 1
                and n_x >= 2
                and n_x * (a1 - a0) * chunks >= self.GATHER_PARALLEL_MIN
            )
            buf = ws.x16_flat if fp16 else ws.x_flat
            xg = buf[: n_x * (cells + 1)].reshape(n_x, cells + 1)
            xg[:, cells] = 0
            x3 = xg[:, :cells].reshape(n_x, pl, chunks)
            src = padded_lanes[a0 : a0 + pl]

            # each compact X row is a disjoint strided copy, so row
            # ranges spread over the MAC pool when the gather is large
            def gather_rows(i0: int, i1: int) -> None:
                for i in range(i0, i1):
                    sh, t = op.x_row_shift[i], op.x_row_lane[i]
                    np.copyto(x3[i], src[:, sh : sh + chunks, t])

            if gather_parallel:
                op.map_tasks(
                    gather_rows, split_ranges(n_x, 2 * op.mac_threads)
                )
            else:
                gather_rows(0, n_x)
            if fp16:
                x = ws.x32_flat[: xg.size].reshape(xg.shape)
                np.copyto(x, xg)
            else:
                x = xg
            if emit is not None:
                emit("mac.gather", t_gather, time.monotonic() - t_gather)
            acc_blk = acc[:, a0 * chunks : a1 * chunks]
            acc_blk[...] = 0
            op.execute(x, acc_blk, offsets, ws.y_flat, self.stream, emit)

        if emit is not None:
            t_store = time.monotonic()
        chained = dest is None
        if chained:
            # the padded buffer is free once every block is gathered: the
            # results land in its interior, where the next chained sweep
            # reads them without another copy
            r = self.spec.radius
            center = tuple(slice(r, r + s) for s in shape)
            dest = [padded_grids[b][center] for b in range(B)]
        # the one transpose: lane t of every chunk is output column t::L
        acc_g = acc.reshape((L, B) + ws.pad_lead + (chunks,))
        interior = tuple(slice(0, s) for s in ws.lead_shape)
        for b in range(B):
            for t in range(min(L, ws.n)):
                cols = dest[b][..., t::L]
                lane = acc_g[(t, b) + interior]
                np.copyto(cols, lane[..., : cols.shape[-1]])
        if emit is not None:
            emit("mac.store", t_store, time.monotonic() - t_store)
        return dest if chained else None

    def _pad_into(
        self, data: np.ndarray, bc: BoundaryCondition, dest: np.ndarray
    ) -> None:
        """Halo-pad an array into a preallocated buffer (np.pad semantics).

        Fills ``dest`` of shape ``tuple(s + 2r) + (need,)`` exactly as the
        reference path's ``np.pad(grid.padded(r), ...)`` would, axis by
        axis (np.pad pads sequentially, later axes reading earlier axes'
        halos), without allocating.  The structural x-pad beyond
        ``n + 2r`` is zero.  ``data`` may be any dtype that widens exactly
        to the buffer's float64 (the chained multi-sweep path feeds
        float32 intermediates under fp16).
        """
        r = self.spec.radius
        d = data.ndim
        n = data.shape[-1]
        if bc is BoundaryCondition.REFLECT and any(
            s < r + 1 for s in data.shape
        ):
            raise ValueError(
                "REFLECT boundary needs every grid side > radius"
            )
        dest[..., n + 2 * r :] = 0.0
        center = tuple(slice(r, r + s) for s in data.shape)
        # a chained sweep's results already sit in the interior
        if not np.may_share_memory(data, dest):
            dest[center] = data
        for axis in range(d):
            s = data.shape[axis]

            def at(idx):
                return (slice(None),) * axis + (idx,)

            left, right = at(slice(0, r)), at(slice(r + s, 2 * r + s))
            if bc is BoundaryCondition.ZERO:
                dest[left] = 0.0
                dest[right] = 0.0
            elif bc is BoundaryCondition.PERIODIC:
                # modular gather handles halos wider than the period too
                dest[left] = dest[at((np.arange(-r, 0) % s) + r)]
                dest[right] = dest[at((np.arange(s, s + r) % s) + r)]
            elif bc is BoundaryCondition.NEAREST:
                dest[left] = dest[at(slice(r, r + 1))]
                dest[right] = dest[at(slice(r + s - 1, r + s))]
            else:  # REFLECT (edge value not repeated)
                dest[left] = dest[at(slice(2 * r, r, -1))]
                dest[right] = dest[at(slice(r + s - 2, s - 2, -1))]

    # ------------------------------------------------------------------
    # Per-row reference path (the pre-fusion fast path, kept as oracle)
    # ------------------------------------------------------------------
    def _reference_run(self, grids: Sequence[Grid]) -> np.ndarray:
        """The original per-row fast path: one line gather, one windowing
        pass and one GEMM **per kernel row**.

        Kept (allocations and all) as the equivalence oracle: the fused
        pipeline must reproduce this bit-for-bit wherever the platform
        GEMM is stacking-deterministic, and the benchmark suite measures
        the fused path's speedup against it.  Shares the numerics contract
        of :meth:`run_batch` (float32 accumulation under fp16) through the
        emulator's select-then-MAC datapath (:meth:`_gemm`).
        """
        grids, shape = self._validate_batch(grids)
        B = len(grids)
        r = self.spec.radius
        n = shape[-1]
        lead_shape = shape[:-1]
        L, W = self.L, self.width
        chunks = math.ceil(n / L)
        npad = chunks * L

        stacked = np.stack([self._pad_lines(g) for g in grids])
        need = npad - L + W
        extra = need - stacked.shape[-1]
        if extra > 0:
            pad_spec = [(0, 0)] * (stacked.ndim - 1) + [(0, extra)]
            stacked = np.pad(stacked, pad_spec)
        lines_view = stacked.reshape(-1, stacked.shape[-1])

        # the batch axis joins the leading geometry, unpadded (offset 0)
        full_lead = (B,) + lead_shape
        pad_lead = (B,) + tuple(s + 2 * r for s in lead_shape)
        n_lines = B * (int(np.prod(lead_shape)) if lead_shape else 1)
        out2d = np.zeros((n_lines, n), dtype=self.acc_dtype)

        for q in range(self.n_rows):
            lead_off = (0,) + self._lead_offsets(q)
            for l0 in range(0, n_lines, self.batch_rows):
                l1 = min(l0 + self.batch_rows, n_lines)
                src = self._gather_lines(
                    lines_view, full_lead, pad_lead, lead_off, l0, l1
                )
                windows = sliding_window_view(src, W, axis=1)[:, ::L, :]
                windows = windows[:, :chunks, :]
                x = windows.transpose(2, 0, 1).reshape(W, -1)
                y = self._gemm(self._encoded[q], x)
                y = (
                    y.reshape(L, l1 - l0, chunks)
                    .transpose(1, 2, 0)
                    .reshape(l1 - l0, npad)[:, :n]
                )
                out2d[l0:l1] += y
        return out2d.reshape((B,) + shape)

    def _gemm(self, enc: EncodedKernelRow, x: np.ndarray) -> np.ndarray:
        """Seed per-row ``K @ X`` through the emulator datapath (sparse
        select-then-MAC, or the dense ablation)."""
        if self.use_sptc:
            x_perm = x[enc.permutation]
            return sparse_matmul(
                enc.sparse, x_perm, precision=self.precision, stream=self.stream
            )
        dense = enc.dense_unswapped
        if self.precision == MmaPrecision.FP16:
            d = dense.astype(np.float16).astype(np.float32) @ x.astype(
                np.float16
            ).astype(np.float32)
        else:
            d = dense @ x
        issues = (
            -(-dense.shape[0] // 16) * -(-x.shape[1] // 8) * -(-dense.shape[1] // 16)
        )
        self.stream.emit("mma", "m16n8k16", count=issues)
        return d

    # -- helpers --------------------------------------------------------
    def _pad_lines(self, grid: Grid) -> np.ndarray:
        """BC-pad: radius r on every axis except structural x-pad (added later)."""
        return grid.padded(self.spec.radius)

    def _lead_offsets(self, q: int) -> Tuple[int, ...]:
        """Leading-axis offsets (0-based into the padded array) for row q."""
        if self.spec.dims == 1:
            return ()
        if self.spec.dims == 2:
            return (q,)
        side = self.spec.side
        return (q // side, q % side)

    def _gather_lines(
        self,
        lines_view: np.ndarray,
        lead_shape: Tuple[int, ...],
        pad_lead: Tuple[int, ...],
        lead_off: Tuple[int, ...],
        l0: int,
        l1: int,
    ) -> np.ndarray:
        """Line gather shared by the reference and faithful paths: rows of
        the padded array feeding output lines [l0, l1) for one kernel row
        (padded line index = interior index + per-axis offset), with
        explicit padded leading geometry so a batch axis can be prepended
        unpadded."""
        if not lead_shape:
            return lines_view[l0:l1]
        idx = np.arange(l0, l1)
        coords = np.unravel_index(idx, lead_shape)
        flat = np.zeros_like(idx)
        stride = 1
        padded_coords = [c + o for c, o in zip(coords, lead_off)]
        for dim in reversed(range(len(pad_lead))):
            flat = flat + padded_coords[dim] * stride
            stride *= pad_lead[dim]
        return lines_view[flat]

    # ------------------------------------------------------------------
    # Faithful warp-level path
    # ------------------------------------------------------------------
    def run_faithful(
        self, grid: Grid, *, apply_row_swap: bool = True
    ) -> FaithfulRunReport:
        """Warp-level emulated sweep (small grids only).

        ``apply_row_swap=False`` runs the *without row swapping* kernel of
        Table 3: identical workload and addressing structure, but loading
        from an explicitly pre-permuted shared-memory tile with baseline
        offsets (the explicit-copy alternative §3.2 argues against).  Both
        settings produce the correct result; what Table 3 compares is their
        cost, which the report captures.
        """
        if grid.num_points > 1 << 16:
            raise ValueError(
                "the faithful path is an emulator oracle; use grids of at "
                "most 65536 points"
            )
        shape = grid.shape
        n = shape[-1]
        lead_shape = shape[:-1]
        n_lines = int(np.prod(lead_shape)) if lead_shape else 1
        pad_lead = tuple(s + 2 * self.spec.radius for s in lead_shape)
        out2d = np.zeros((n_lines, n), dtype=np.float64)
        padded = self._pad_lines(grid)
        L, W = self.L, self.width
        chunks = math.ceil(n / L)
        npad = chunks * L
        need = npad - L + W
        extra = need - padded.shape[-1]
        if extra > 0:
            pad_spec = [(0, 0)] * (padded.ndim - 1) + [(0, extra)]
            padded = np.pad(padded, pad_spec)
        lines_view = padded.reshape(-1, padded.shape[-1])

        stream = InstructionStream()
        audit = AccessAudit(0, 0, 0, 0)
        warp = Warp(stream=stream)

        for q in range(self._rows.shape[0]):
            enc = self._encoded[q]
            lead_off = self._lead_offsets(q)
            src = self._gather_lines(
                lines_view, lead_shape, pad_lead, lead_off, 0, n_lines
            )
            windows = sliding_window_view(src, W, axis=1)[:, ::L, :]
            windows = windows[:, :chunks, :]
            x = windows.transpose(2, 0, 1).reshape(W, -1)  # "shared memory"
            if apply_row_swap:
                smem = x
            else:
                smem = x[enc.permutation]  # explicit pre-permuted copy
                stream.emit(
                    "sts", "row_swap_copy", count=x.shape[0], nbytes=x.nbytes
                )
            y, tile_audit = self._gemm_lanewise(
                enc, smem, warp, swapped=apply_row_swap
            )
            audit = audit.merge(tile_audit)
            y = (
                y.reshape(L, n_lines, chunks)
                .transpose(1, 2, 0)
                .reshape(n_lines, npad)[:, :n]
            )
            out2d += y
        return FaithfulRunReport(
            output=out2d.reshape(grid.shape), stream=stream, smem_audit=audit
        )

    def _k_tile(self, enc: EncodedKernelRow, kk: int) -> Sparse24Matrix:
        """Compressed (16-row padded) A tile for mma.sp invocation kk."""
        vals = enc.sparse.values[:, 8 * kk : 8 * kk + 8]
        poss = enc.sparse.positions[:, 8 * kk : 8 * kk + 8]
        m = vals.shape[0]
        if m < 16:
            vals = np.vstack([vals, np.zeros((16 - m, 8), dtype=vals.dtype)])
            pad_pos = np.tile(
                np.array([0, 1], dtype=np.uint8), (16 - m, 4)
            )
            poss = np.vstack([poss, pad_pos])
        return Sparse24Matrix(vals, poss, 16)

    def _gemm_lanewise(
        self,
        enc: EncodedKernelRow,
        smem: np.ndarray,
        warp: Warp,
        *,
        swapped: bool,
    ) -> Tuple[np.ndarray, AccessAudit]:
        if not self.use_sptc:
            raise ValueError("the faithful path emulates the SpTC variant")
        L, W = enc.L, enc.width
        c_total = smem.shape[1]
        num_k_tiles = W // 16
        y = np.zeros((16, c_total), dtype=np.float64)
        audit = AccessAudit(0, 0, 0, 0)
        selector = 0
        for n0 in range(0, c_total, 8):
            acc = np.zeros((32, 4), dtype=np.float64)
            for kk in range(num_k_tiles):
                a_tile = self._k_tile(enc, kk)
                if swapped:
                    offset_fn = swapped_row_offset_fn(enc.radius, kk, L)
                else:
                    offset_fn = baseline_row_offset_fn(kk)
                regs, addrs = warp.load_b_fragment(
                    smem, k_base=0, n_base=n0, row_offset_fn=offset_fn
                )
                audit = audit.merge(audit_warp_access(addrs, elem_bytes=2))
                meta = synthesize_metadata_registers(a_tile, selector)
                acc = mma_sp_lanewise(
                    a_tile,
                    regs,
                    acc,
                    metadata_regs=meta,
                    selector=selector,
                    precision=self.precision,
                    stream=warp.stream,
                )
            tile = np.zeros((16, 8), dtype=np.float64)
            warp.store_acc_fragment(tile, acc, m_base=0, n_base=0)
            n_hi = min(n0 + 8, c_total)
            y[:, n0:n_hi] += tile[:, : n_hi - n0]
        return y[:L], audit
