"""Small measurement helpers shared by the perf ledger.

Nothing here touches the program under test: a percentile helper, the
median/quartile summary attached to every timing, the fixed calibration
kernel, and the interpreter's peak resident set.
"""

from __future__ import annotations

import resource
import time

import numpy as np


def percentile(values, fraction: float) -> float:
    """The ``fraction`` quantile by linear interpolation between the two
    closest ranks (NumPy's default).  ``fraction`` is in [0, 1]."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction {fraction} outside [0, 1]")
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def summary(values) -> dict:
    """Sample count, median and quartiles — stated beside every median
    so a reader can tell a 3-sample number from a 40-sample one."""
    return {
        "n": len(values),
        "median": percentile(values, 0.5),
        "q1": percentile(values, 0.25),
        "q3": percentile(values, 0.75),
    }


_CAL_MODULUS = (1 << 89) - 1
_CAL_NUMPY_MODULUS = 268435399  # 28-bit prime, the width of an RNS limb


def _calibration_pass() -> float:
    started = time.perf_counter()
    # Pure Python: bigint multiply-reduce, the shape of the polyring and
    # ChaCha inner loops.
    x = 3
    for i in range(150_000):
        x = (x * x + i) % _CAL_MODULUS
    # NumPy: int64 multiply-reduce over one SMALL-ring-sized vector
    # batch, the shape of the RNS pointwise kernels.
    lanes = np.arange(1 << 15, dtype=np.int64) % _CAL_NUMPY_MODULUS
    for _ in range(200):
        lanes = (lanes * lanes + 7) % _CAL_NUMPY_MODULUS
    if x < 0 or int(lanes[0]) < 0:  # consume both results
        raise AssertionError("calibration kernel produced a negative residue")
    return time.perf_counter() - started


def calibration_seconds() -> float:
    """Best of three passes of the fixed kernel.  Records from different
    machines compare as ratios against this number; two readings in one
    run that disagree flag a noisy neighbour."""
    return min(_calibration_pass() for _ in range(3))


def peak_rss_mib() -> float:
    """``ru_maxrss`` of this interpreter in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
