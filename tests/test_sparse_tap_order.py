"""The fused MAC's reduction order, pinned by our own fold.

The numerics contract of :mod:`repro.sptc.fused` says that every output
element is

    acc = 0
    for q in ascending kernel rows:
        s = 0
        for w in ascending swapped-k slots with a non-zero weight:
            s = s + k[q, lane, w] * x[w]
        acc = acc + s

with one rounding per product and per sum.  These tests compute that fold
with an explicit Python loop (each step one element-wise multiply and one
add over all output elements, so no library reduction is involved) and
assert the executor reproduces it byte for byte.  The weights pair huge
taps of opposite sign with a small one, so the operands are checked to
discriminate: reordering the taps, or fusing a multiply-add, changes the
bits.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

from repro.core.executor import SpiderExecutor
from repro.stencil import Grid, make_box_kernel, make_star_kernel

#: a tap large enough to swamp the small one, per MAC dtype; 30000 is
#: float16-representable, so the fp16 cast keeps the cancellation exact
BIG = {"exact": 1e16, "fp16": 30000.0}


def _adversarial_spec(kind, dims, precision):
    """Radius-1 stencil whose every kernel row reads ``+big, 1/3, -big``
    along x (box) or, for a star, whose off-centre taps are ``+big`` then
    ``-big`` and whose centre row is ``+big, 1/3, -big``."""
    big = BIG[precision]
    make = make_box_kernel if kind == "box" else make_star_kernel
    spec = make(dims, 1, np.random.default_rng(0))
    w = np.zeros_like(np.asarray(spec.weights))
    if kind == "box":
        w[..., :] = [big, 1 / 3, -big]
    else:
        centre = (1,) * (dims - 1)
        w[centre] = [big, 1 / 3, -big]
        for axis in range(dims - 1):
            lo = list(centre) + [1]
            hi = list(centre) + [1]
            lo[axis], hi[axis] = 0, 2
            w[tuple(lo)], w[tuple(hi)] = big, -big
    return spec.with_weights(w)


def _folds(ex, grid, order="swapped", fma=False):
    """The contract's fold, computed tap by tap.

    ``order="swapped"`` is the contract (ascending swapped-k slot);
    ``"descending"`` and ``"window"`` (ascending stencil column) are the
    alternatives the discrimination check compares against.  ``fma=True``
    rounds ``s + k*x`` once, exactly, through :class:`~fractions.Fraction`
    (float64 only).
    """
    fp16 = ex.precision == "fp16"
    dt = np.float32 if fp16 else np.float64
    r, L, W = ex.spec.radius, ex.L, ex.width
    shape = grid.shape
    n, lead = shape[-1], shape[:-1]
    chunks = math.ceil(n / L)
    padded = grid.padded(r)
    extra = chunks * L - L + W - padded.shape[-1]
    if extra > 0:
        padded = np.pad(padded, [(0, 0)] * (len(shape) - 1) + [(0, extra)])
    if fp16:
        padded = padded.astype(np.float16).astype(np.float32)
    acc = np.zeros(lead + (chunks, L), dtype=dt)
    for q, enc in enumerate(ex._encoded):
        if ex.use_sptc:
            kq, perm = enc.swapped_matrix, enc.permutation
        else:
            kq, perm = enc.dense_unswapped, np.arange(W)
        if fp16:
            kq = kq.astype(np.float16).astype(np.float32)
        kq = kq.astype(dt)
        off = ex._lead_offsets(q)
        rows = padded[tuple(slice(o, o + s) for o, s in zip(off, lead))]
        for t in range(L):
            taps = [w for w in range(W) if kq[t, w] != 0]
            if order == "descending":
                taps = taps[::-1]
            elif order == "window":
                taps = sorted(taps, key=lambda w: perm[w])
            s = np.zeros(lead + (chunks,), dtype=dt)
            for w in taps:
                x = rows[..., perm[w] : perm[w] + chunks * L : L]
                if fma:
                    k = Fraction(float(kq[t, w]))
                    s = np.vectorize(
                        lambda a, b: float(k * Fraction(a) + Fraction(b))
                    )(x, s)
                else:
                    s = s + kq[t, w] * x
            acc[..., t] = acc[..., t] + s
    return acc.reshape(lead + (chunks * L,))[..., :n]


CASES = [
    ("star", 2, (9, 14)),  # single-tap rows 0 and 2 around a multi-tap centre
    ("box", 2, (7, 13)),  # every row multi-tap
    ("star", 3, (4, 5, 9)),  # 4 single-tap rows, one multi-tap
]


@pytest.mark.parametrize("precision", ["exact", "fp16"])
@pytest.mark.parametrize(
    "kind,dims,shape", CASES, ids=[f"{k}{d}D" for k, d, _ in CASES]
)
def test_fused_mac_is_the_explicit_fold(kind, dims, shape, precision):
    rng = np.random.default_rng(dims)
    spec = _adversarial_spec(kind, dims, precision)
    grid = Grid(rng.standard_normal(shape))
    ex = SpiderExecutor(spec, precision, mac_threads=1)
    fold = _folds(ex, grid)
    got = ex.run(grid)
    assert got.dtype == fold.dtype
    assert got.tobytes() == fold.tobytes()
    assert ex._reference_run([grid])[0].tobytes() == fold.tobytes()
    # threaded einsum blocks and single-grid line blocks keep the fold
    exN = SpiderExecutor(
        spec, precision, mac_threads=3, mac_col_block=2, batch_rows=1
    )
    try:
        assert exN.run(grid).tobytes() == fold.tobytes()
    finally:
        exN.release_mac_pool()
    # the operands discriminate: another order changes the bits
    for order in ("descending", "window"):
        assert not np.array_equal(_folds(ex, grid, order), fold), order


def test_fused_mac_rows_split_by_tap_count():
    """Star off-centre rows compile to scaled adds, centre and box rows to
    einsum sub-operands; each lane of a single-tap row has one weight."""
    star = SpiderExecutor(_adversarial_spec("star", 2, "exact")).fused_operator
    assert [t is None for t in star.row_taps] == [False, True, False]
    assert [o is None for o in star.row_operands] == [True, False, True]
    for taps in (star.row_taps[0], star.row_taps[2]):
        assert len(taps) == star.L
        assert len({float(v) for _, v in taps}) == 1
    box = SpiderExecutor(_adversarial_spec("box", 2, "exact")).fused_operator
    assert all(t is None for t in box.row_taps)


def test_fma_would_change_the_bits():
    """An FMA fold (``s + k*x`` rounded once) differs from the contract's
    two roundings on these operands, so the byte-equality above also
    rules out fused multiply-adds in either MAC path."""
    rng = np.random.default_rng(5)
    spec = _adversarial_spec("star", 2, "exact")
    grid = Grid(rng.standard_normal((5, 8)))
    ex = SpiderExecutor(spec, mac_threads=1)
    fold = _folds(ex, grid)
    assert ex.run(grid).tobytes() == fold.tobytes()
    assert not np.array_equal(_folds(ex, grid, fma=True), fold)
