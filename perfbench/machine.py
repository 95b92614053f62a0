"""Machine fingerprint, roofline probes and peak-RSS accounting.

Every record names the box it ran on (cores, affinity, interpreter and
NumPy versions, git sha, last-level cache) so that two records are only
compared when they come from the same machine.  The two roofline probes
give the ceilings the per-stage rates are divided by:

* ``copy_gbs`` — ``np.copyto`` between two float64 arrays that are each
  at least four times the last-level cache, counting bytes read plus
  bytes written (STREAM "copy" convention);
* ``mac_gflops`` — the ordered ``einsum("mw,wn->mn")`` the fused
  executor runs, on a fixed operand shape.
"""

from __future__ import annotations

import os
import platform
import resource
import time
from pathlib import Path
from typing import Dict, Iterator, Optional

import numpy as np

#: assumed last-level cache when ``/sys`` does not report one
FALLBACK_LLC_BYTES = 32 << 20

#: fixed ordered-MAC probe shape: one fused operand of a radius-3 box
#: kernel (m = 7 rows x L = 8) against one default column block
MAC_PROBE_SHAPE = (56, 16, 4096)


def llc_bytes() -> Optional[int]:
    """Largest cache size ``/sys`` reports for cpu0 (the L3 here)."""
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            text = (idx / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        digits = text.rstrip("KMG")
        if digits.isdigit():
            size = int(digits) * scale
            best = size if best is None else max(best, size)
    return best


def git_sha(root: Path) -> str:
    """HEAD commit of the checkout, read from ``.git`` without running git;
    ``"unknown"`` when the checkout is not a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_file = git / ref
        if ref_file.is_file():
            return ref_file.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def fingerprint(root: Path) -> Dict[str, object]:
    """The machine a record was measured on."""
    return {
        "nproc": os.cpu_count(),
        "affinity": sorted(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "git_sha": git_sha(root),
        "llc_bytes": llc_bytes(),
    }


def cpu_ticks() -> Optional[list]:
    """Machine-wide CPU time counters (the first line of ``/proc/stat``),
    or ``None`` where the file does not exist."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_frac(before: Optional[list], after: Optional[list]) -> Optional[float]:
    """Share of CPU time between two :func:`cpu_ticks` readings that the
    hypervisor gave to other guests (``steal``).  A run that saw a high
    share measured a busy host, not the program."""
    if not before or not after or len(before) < 8:
        return None
    # user, nice, system, idle, iowait, irq, softirq, steal; the guest
    # fields that follow are already counted in user and nice
    delta = [b - a for a, b in zip(before[:8], after[:8])]
    total = sum(delta)
    return delta[7] / total if total > 0 else 0.0


def copy_gbs(reps: int = 5) -> Dict[str, float]:
    """Sustained copy bandwidth (GB/s, read + write bytes), best of
    ``reps`` copies between arrays each >= 4x the last-level cache."""
    llc = llc_bytes() or FALLBACK_LLC_BYTES
    n = (4 * llc) // 8
    src = np.ones(n)
    dst = np.empty_like(src)
    np.copyto(dst, src)  # fault every page in before timing
    best = float("inf")
    for _ in range(reps):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        best = min(best, time.perf_counter() - t0)
    nbytes = src.nbytes
    del src, dst
    return {
        "copy_gbs": 2 * nbytes / best / 1e9,
        "copy_array_bytes": float(nbytes),
        "llc_bytes": float(llc),
    }


def mac_gflops(seconds: float = 0.2) -> float:
    """Ordered-einsum MAC rate (GFLOP/s, 2 flops per MAC), median call."""
    m, w, n = MAC_PROBE_SHAPE
    rng = np.random.default_rng(0)
    k = rng.standard_normal((m, w))
    x = rng.standard_normal((w, n))
    out = np.empty((m, n))
    times = []
    end = time.perf_counter() + seconds
    while time.perf_counter() < end or len(times) < 5:
        t0 = time.perf_counter()
        np.einsum("mw,wn->mn", k, x, out=out)
        times.append(time.perf_counter() - t0)
    return 2.0 * m * w * n / float(np.median(times)) / 1e9


def _child_pids() -> Iterator[int]:
    for task in Path("/proc/self/task").glob("*"):
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        for pid in text.split():
            yield int(pid)


def _vmhwm_kib(pid: int) -> int:
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mib() -> float:
    """Peak resident set of this process plus every live child process
    (the serving worker processes and multiprocessing's helpers), MiB."""
    kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kib += sum(_vmhwm_kib(pid) for pid in set(_child_pids()))
    return kib / 1024.0
