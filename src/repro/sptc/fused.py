"""Precompiled fused SpTC operator: all kernel rows, one sparse-tap MAC.

The paper's thesis is that a stencil becomes *one* sparse-tensor-core GEMM
after the 2:4 transformation.  At compile time every encoded row's
compressed matrix is stacked vertically into one block operator ``K_all``
with ``m = n_rows * L``, the selection stage is applied **once** through
the precomputed index tensor
(:meth:`~repro.sptc.formats.Sparse24Matrix.selection_indices`), and the
structural zeros are compacted away: all-zero kernel-row blocks and
all-zero k-columns are dropped, leaving ``kernel_compact``.

Like ``mma.sp``, which multiplies only the stored non-zeros, the MAC then
runs only the non-zero taps.  Each kernel-row block repeats one tap
multiset in every lane, so every active row falls into one of two cases
fixed at build time:

* **single-tap rows** (every off-centre row of a star stencil) hold one
  non-zero weight ``v_t`` per lane ``t``.  The row runs as a scaled add,
  ``acc[t] += v_t * X[w_t]``, one ``multiply`` and one ``add`` per lane.
* **multi-tap rows** (the centre row of a star, every row of a box) run
  an ``np.einsum("mw,wn->mn")`` over the row block's sub-operand — its
  ``L`` rows of ``kernel_compact``, trimmed to the span of compact
  columns holding its non-zeros — and the result is added to ``acc``.

Numerics contract
-----------------
``w`` is a swapped-k slot: a column of the strided-swapped operand, i.e.
``mma.sp``'s k index, in the order the compact columns keep.  Per output
element the result is the fold

    acc = 0
    for q in ascending active kernel rows:
        s = 0
        for w in ascending non-zero taps of (q, lane):
            s = s + k[q, lane, w] * x[w]
        acc = acc + s

with every product and every sum rounded once, in the MAC dtype (float64,
or float32 under ``fp16``) and without fused multiply-adds.  A single-tap
row adds ``v·x`` itself: ``acc + v·x`` and ``acc + (0 + v·x)`` differ
only if ``v·x`` is ``-0`` and ``acc`` is too, and ``acc``, starting at
``+0``, is never ``-0``.  The einsum honours
the fold because its sum-of-products loop for ``"mw,wn->mn"`` with at
least two output columns adds one ``k·x`` term per w, in ascending w, to
each output element; the zero weights its sub-operand still carries add
``±0`` to a finite partial sum, which changes nothing but the sign of a
zero.  The one call shape with another kernel is a single output column
(n = 1 degenerates into an unrolled inner product), so :meth:`execute`
never issues it.  ``tests/test_sparse_tap_order.py`` pins the fold
against an explicit Python loop on operands where any other order, or an
FMA, changes the bits.

The fold is the one the per-row reference path
(:meth:`~repro.core.executor.SpiderExecutor._reference_run`) computes, so
the fused sweep is byte-equal to it for finite inputs, and nothing in the
fold depends on batch size, grid shape, line-block boundaries or thread
count.  Results are compared with ``np.array_equal`` semantics: dropping
structural zeros may flip the sign of an all-zero output, never a value.

Only the einsum is threaded: its column blocks are disjoint
``out[:, c0:c1]`` slices, which cannot change any element's fold.  The
scaled adds and the adds into ``acc`` run serially in ascending q,
because that order is the contract.
"""

from __future__ import annotations

import os
import time
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .formats import Sparse24Matrix
from .instruction import InstructionStream
from .macpool import MacThreadPool, col_blocks, resolve_mac_threads
from .mma import MmaPrecision
from .mma_sp import MMA_SP_M16N8K16

__all__ = ["FusedStencilOperator"]


def _rebuild_fused_operator(
    stacked: Sparse24Matrix,
    L: int,
    permutation: Optional[np.ndarray],
    dense_rows: Optional[List[np.ndarray]],
    precision: str,
    mac_threads: Optional[int] = None,
    mac_col_block: Optional[int] = None,
) -> "FusedStencilOperator":
    """Unpickle hook for :class:`FusedStencilOperator` (module-level for
    pickle): re-run the build from the compressed operand, so compaction,
    selection expansion and index tensors are regenerated rather than
    shipped.  The thread pool is likewise never shipped — the rebuilt
    operator re-creates it lazily on its first parallel execute."""
    return FusedStencilOperator(
        stacked,
        L,
        permutation,
        dense_rows=dense_rows,
        precision=precision,
        mac_threads=mac_threads,
        mac_col_block=mac_col_block,
    )


class FusedStencilOperator:
    """All kernel rows of one stencil as a single precompiled operator.

    Parameters
    ----------
    stacked:
        ``K_all`` in compressed 2:4 form — every kernel row's matrix
        stacked along ``m`` (see
        :func:`repro.core.encoding.stack_encoded_rows`, which also
        validates that the rows share geometry and permutation).
    L:
        Output rows per kernel row; ``stacked.m`` must be a multiple.
    permutation:
        The shared input-row permutation of the strided swap (identical
        for every row of one stencil).  ``None`` for the dense-TC ablation,
        where the operator multiplies unswapped operands.
    dense_rows:
        Unswapped dense kernel matrices; required iff ``permutation`` is
        None (the ``SPIDER w. TC`` variant).
    precision:
        ``"exact"`` or ``"fp16"``; the operand is cast once at build time
        (float64, or float16 storage widened to float32 for the MAC).
    mac_threads:
        Threads the ordered MAC spreads its column blocks over.  ``None``
        (the default) resolves adaptively — ``REPRO_MAC_THREADS`` or the
        usable core count (see
        :func:`~repro.sptc.macpool.resolve_mac_threads`); the serving
        layer passes an explicit per-shard budget instead.  Results are
        bit-identical for every thread count: blocks are disjoint
        ``out[:, c0:c1]`` slices and einsum's per-element reduction order
        depends only on the w axis (module docstring).
    mac_col_block:
        Column-block width of the MAC (default :data:`COL_BLOCK`).  A
        plan parameter since the multi-threaded MAC: the serial fast path
        keeps the cache-resident default, while the threaded path may
        subdivide further (never below 2 columns) for load balance.
    """

    #: column block of the ordered MAC — sized so one block of operand,
    #: input and output stays cache-resident
    COL_BLOCK = 4096

    #: floor on threaded subdivision: blocks narrower than this pay more
    #: in dispatch than they win in overlap
    MIN_COL_BLOCK = 64

    def __init__(
        self,
        stacked: Sparse24Matrix,
        L: int,
        permutation: Optional[np.ndarray],
        *,
        dense_rows: Optional[Sequence[np.ndarray]] = None,
        precision: str = MmaPrecision.EXACT,
        mac_threads: Optional[int] = None,
        mac_col_block: Optional[int] = None,
    ) -> None:
        self.precision = MmaPrecision.validate(precision)
        # requested (possibly None) values are what __reduce__ ships, so a
        # rehydrated operator re-resolves in *its* environment; resolved
        # values are what execution reads
        self._mac_threads_requested = mac_threads
        self._mac_col_block_requested = mac_col_block
        self.mac_threads = resolve_mac_threads(mac_threads)
        self.mac_col_block = (
            self.COL_BLOCK if mac_col_block is None else int(mac_col_block)
        )
        if self.mac_col_block < 2:
            raise ValueError(
                f"mac_col_block must be >= 2 (einsum's n = 1 call shape "
                f"uses a different kernel), got {self.mac_col_block}"
            )
        #: lazily-created MAC pool — never pickled, never inherited
        #: across fork (``_pool()`` checks the owning pid)
        self._mac_pool: Optional[MacThreadPool] = None
        if L < 1 or stacked.m % L:
            raise ValueError(
                f"stacked operator rows ({stacked.m}) must be a multiple of "
                f"L ({L})"
            )
        self.L = L
        self.width = stacked.k
        self.n_rows = stacked.m // L
        self.m = stacked.m
        self.use_sptc = permutation is not None

        #: K_all in compressed 2:4 form (m = n_rows * L) — the block
        #: operator itself; kept for diagnostics and storage accounting.
        self.sparse = stacked
        # warm the static selection-index tensor once per plan
        self.sparse.selection_indices()

        if self.use_sptc:
            assert permutation is not None
            self.permutation = np.asarray(permutation)
            expanded = self.sparse.selection_expand()
        else:
            if dense_rows is None:
                raise ValueError("the dense-TC variant needs dense_rows")
            self.permutation = np.arange(self.width)
            expanded = np.vstack(list(dense_rows))
        if self.precision == MmaPrecision.FP16:
            self.kernel = expanded.astype(np.float16).astype(np.float32)
        else:
            self.kernel = expanded.astype(np.float64)

        # -- structural compaction (exact up to signs of zero outputs) --
        # a kernel-row block is all-or-nothing: each of its L matrix rows
        # repeats the same tap multiset, so blocks with any non-zero tap
        # have no all-zero rows
        blocks = self.kernel.reshape(self.n_rows, self.L, self.width)
        self.active_kernel_rows: List[int] = [
            q for q in range(self.n_rows) if np.any(blocks[q])
        ]
        self.m_active = len(self.active_kernel_rows) * self.L
        if self.active_kernel_rows:
            act = self.kernel.reshape(self.n_rows, self.L, self.width)[
                self.active_kernel_rows
            ].reshape(self.m_active, self.width)
            cols = np.where(np.any(act != 0, axis=0))[0]
        else:
            act = self.kernel[:0]
            cols = np.array([], dtype=np.int64)
        self.active_cols = cols
        self.kernel_compact = np.ascontiguousarray(act[:, cols])
        #: window-column index feeding each compact X row (the strided
        #: swap folded into the gather: X_swapped[i] = window column
        #: permutation[active_cols[i]])
        src = self.permutation[cols]
        self.x_row_shift = src // self.L
        self.x_row_lane = src % self.L

        # -- the sparse-tap MAC program, one entry per active row --
        #: per active row: ``(i_t, v_t)`` for each lane t of a single-tap
        #: row (compact X row and weight), else ``None``
        self.row_taps: List[Optional[Tuple[Tuple[int, np.generic], ...]]] = []
        #: per active row: ``(sub, c0, c1)`` for a multi-tap row — its
        #: sub-operand over compact columns ``[c0, c1)`` — else ``None``
        self.row_operands: List[Optional[Tuple[np.ndarray, int, int]]] = []
        for qi in range(len(self.active_kernel_rows)):
            blk = self.kernel_compact[qi * self.L : (qi + 1) * self.L]
            lane_nz = [np.flatnonzero(lane) for lane in blk]
            if all(len(nz) == 1 for nz in lane_nz):
                self.row_taps.append(
                    tuple(
                        (int(nz[0]), blk[t, nz[0]])
                        for t, nz in enumerate(lane_nz)
                    )
                )
                self.row_operands.append(None)
            else:
                nz = np.flatnonzero(np.any(blk != 0, axis=0))
                c0, c1 = int(nz[0]), int(nz[-1]) + 1
                self.row_taps.append(None)
                self.row_operands.append(
                    (np.ascontiguousarray(blk[:, c0:c1]), c0, c1)
                )

    # ------------------------------------------------------------------
    def __reduce__(self):
        """Pickle as constructor arguments (compressed operand + geometry).

        The expanded/compacted operands and index tensors are deterministic
        functions of the build inputs, so the rebuilt operator is
        bit-identical.  For the dense-TC ablation the original
        ``dense_rows`` are recovered from the stored operand: under
        ``"exact"`` the operand *is* the float64 input, and under
        ``"fp16"`` the stored values are already float16-representable, so
        the rebuild's fp16 cast is exact (idempotent).
        """
        if self.use_sptc:
            dense_rows = None
            permutation: Optional[np.ndarray] = self.permutation
        else:
            blocks = self.kernel.reshape(self.n_rows, self.L, self.width)
            dense_rows = [np.asarray(blocks[q]) for q in range(self.n_rows)]
            permutation = None
        # ship the compressed operand *without* its warmed selection-index
        # cache (the rebuild re-derives and re-warms it), keeping the
        # payload to values + positions
        sparse = Sparse24Matrix(
            self.sparse.values, self.sparse.positions, self.sparse.k
        )
        return (
            _rebuild_fused_operator,
            (
                sparse,
                self.L,
                permutation,
                dense_rows,
                self.precision,
                self._mac_threads_requested,
                self._mac_col_block_requested,
            ),
        )

    @property
    def n_x_rows(self) -> int:
        """Input rows the fused GEMM actually consumes (compact width)."""
        return len(self.active_cols)

    @property
    def acc_dtype(self) -> type:
        return (
            np.float32 if self.precision == MmaPrecision.FP16 else np.float64
        )

    def nbytes(self) -> int:
        """Resident bytes of the precompiled operand."""
        return int(
            self.kernel.nbytes
            + self.kernel_compact.nbytes
            + self.sparse.values.nbytes
            + self.sparse.positions.nbytes
            + self.sparse.selection_indices().nbytes
            + sum(o[0].nbytes for o in self.row_operands if o is not None)
        )

    def _emit(
        self, stream: Optional[InstructionStream], n_cols: int
    ) -> None:
        """Hardware-issue accounting for one fused GEMM call.

        Stacking rows into one operator packs them densely into m16 tiles,
        so the fused operator needs fewer ``mma.sp`` issues than the
        per-row loop (whose ragged ``L``-row operands each round up to a
        full tile) — the instruction-level form of the fusion win.
        """
        if stream is None:
            return
        shape = MMA_SP_M16N8K16
        issues = (
            -(-self.m_active // shape.m)
            * -(-n_cols // shape.n)
            * -(-self.width // shape.k)
        )
        stream.emit(
            "mma.sp" if self.use_sptc else "mma", shape.name, count=issues
        )

    # ------------------------------------------------------------------
    # MAC thread pool (plan-owned, lazy, fork-safe, never pickled)
    # ------------------------------------------------------------------
    def _pool(self) -> MacThreadPool:
        """The persistent MAC pool, (re)created lazily.

        A pool object that crossed a ``fork`` is dropped without joining
        — its helper threads do not exist in the child and its condition
        variable may have been captured mid-acquire — and a fresh pool is
        built under the child's pid.  Only a same-pid stale pool (e.g.
        one an earlier shutdown closed) is shut down before replacement.
        """
        pool = self._mac_pool
        if pool is not None and pool.pid == os.getpid() and not pool.closed:
            return pool
        if pool is not None and pool.pid == os.getpid():
            pool.shutdown()
        pool = MacThreadPool(self.mac_threads)
        self._mac_pool = pool
        return pool

    def shutdown_pool(self) -> None:
        """Stop the MAC pool's helper threads (idempotent).

        Called by the serving plan cache on eviction/trim; the pool
        re-creates lazily if the operator executes again.  A pool object
        inherited from another process is dropped, never joined.
        """
        pool = self._mac_pool
        self._mac_pool = None
        if pool is not None and pool.pid == os.getpid():
            pool.shutdown()

    def map_tasks(
        self, fn: Callable[..., None], tasks: Sequence[tuple]
    ) -> None:
        """Run order-free tasks on the MAC pool (or inline when serial).

        The executor uses this to give the pad and gather stages the same
        disjoint-slice treatment as the MAC itself — tasks must write to
        disjoint destinations.
        """
        if self.mac_threads > 1 and len(tasks) > 1:
            self._pool().run(fn, tasks)
        else:
            for task in tasks:
                fn(*task)

    def _plan_blocks(self, n: int) -> Optional[List[Tuple[int, int]]]:
        """Column blocks for a threaded MAC over ``n`` columns, or
        ``None`` for the serial fast path.

        Serial below the column-count threshold (``n < mac_col_block``:
        tiny grids never pay pool dispatch) and whenever a single block
        would result.  The threaded path subdivides the plan's block
        width — never below :data:`MIN_COL_BLOCK`, never below 2 — so
        every thread has around two blocks to draw, which load-balances
        without perturbing numerics (blocking is order-free, module
        docstring).
        """
        if self.mac_threads < 2 or n < self.mac_col_block:
            return None
        block = min(
            self.mac_col_block,
            max(self.MIN_COL_BLOCK, -(-n // (2 * self.mac_threads))),
        )
        blocks = col_blocks(n, max(2, block))
        if len(blocks) < 2:
            return None
        return blocks

    def _gemm_block(
        self,
        sub: np.ndarray,
        x: np.ndarray,
        out: np.ndarray,
        c0: int,
        c1: int,
        emit: Optional[Callable[[str, float, float], None]],
    ) -> None:
        """One ordered-einsum column block, optionally traced."""
        if emit is None:
            np.einsum("mw,wn->mn", sub, x[:, c0:c1], out=out[:, c0:c1])
            return
        t0 = time.monotonic()
        np.einsum("mw,wn->mn", sub, x[:, c0:c1], out=out[:, c0:c1])
        emit("mac.gemm", t0, time.monotonic() - t0)

    def _gemm(
        self,
        sub: np.ndarray,
        x: np.ndarray,
        out: np.ndarray,
        emit: Optional[Callable[[str, float, float], None]],
    ) -> None:
        """``out = sub @ x`` in ordered column blocks, serially or over the
        plan-owned pool (:meth:`_plan_blocks`)."""
        n = x.shape[1]
        blocks = self._plan_blocks(n)
        if blocks is None:
            for c0, c1 in col_blocks(n, self.mac_col_block):
                self._gemm_block(sub, x, out, c0, c1, emit)
        else:
            self._pool().run(
                lambda c0, c1: self._gemm_block(sub, x, out, c0, c1, emit),
                blocks,
            )

    # ------------------------------------------------------------------
    def execute(
        self,
        x: np.ndarray,
        acc: np.ndarray,
        offsets: Sequence[int],
        scratch: np.ndarray,
        stream: Optional[InstructionStream] = None,
        emit: Optional[Callable[[str, float, float], None]] = None,
    ) -> None:
        """Accumulate one line block's stencil into ``acc``.

        ``acc`` is the lane-major ``(L, n)`` accumulator view of the
        block's ``n`` output cells.  ``x`` is the gathered compact input,
        ``(n_x_rows, m)`` in swapped row order and the MAC dtype: active
        kernel row ``k`` reads cells ``x[:, offsets[k] : offsets[k] + n]``
        (its leading offset, flattened), and ``x`` holds at least one
        cell past the last row's, zero when ``n`` is 1.  ``scratch`` is a
        flat buffer of the accumulator dtype with at least
        ``L * max(n, 2)`` elements.

        Each row adds its contribution in ascending q, as the module
        docstring's fold states: single-tap rows as per-lane scaled adds,
        multi-tap rows as an ordered einsum (column blocked, and threaded
        above the plan's column threshold) followed by one add.  An
        einsum over one column is widened to two, since n = 1 is the call
        shape with a different kernel.

        ``emit`` (the executor's tracing stage hook) receives one
        ``mac.gemm`` span per einsum column block, from whichever thread
        ran it, and ``mac.scatter`` spans for the scaled adds and the
        adds into ``acc``.
        """
        n = acc.shape[1]
        n_gemm = max(n, 2)
        y = scratch[: self.L * n_gemm].reshape(self.L, n_gemm)
        tmp = scratch[:n]
        t_add = time.monotonic() if emit is not None else 0.0
        rows = zip(self.row_taps, self.row_operands, offsets)
        for taps, operand, off in rows:
            if taps is not None:
                for t, (i, v) in enumerate(taps):
                    np.multiply(x[i, off : off + n], v, out=tmp)
                    np.add(acc[t], tmp, out=acc[t])
                continue
            if emit is not None:
                emit("mac.scatter", t_add, time.monotonic() - t_add)
            sub, c0, c1 = operand
            self._gemm(sub, x[c0:c1, off : off + n_gemm], y, emit)
            if emit is not None:
                t_add = time.monotonic()
            np.add(acc, y[:, :n], out=acc)
        if emit is not None:
            emit("mac.scatter", t_add, time.monotonic() - t_add)
        self._emit(stream, n_gemm)
