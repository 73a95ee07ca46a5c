"""The Laplace mechanism (§2.3).

Adding Laplace(sensitivity / epsilon) noise to each released value gives
epsilon-differential privacy.  In Mycelium the committee samples this
noise inside the decryption MPC, so no single party ever sees the
un-noised aggregate: each member contributes a seed share, and one
sampler draws from the XOR of the shares
(:func:`repro.core.committee.committee_noise`).  This module provides
that sampler.
"""

from __future__ import annotations

import math
import random

from repro.errors import ParameterError


def sample_laplace(scale: float, rng: random.Random) -> float:
    """One draw from Laplace(0, scale) via inverse-CDF sampling.

    ``rng.random()`` lies in [0, 1); its one value ``0.0`` would take
    ``log(0)``, so that draw (and only that one) is redrawn.
    """
    if scale < 0:
        raise ParameterError("Laplace scale must be non-negative")
    if scale == 0:
        return 0.0
    r = rng.random()
    while r == 0.0:
        r = rng.random()
    u = r - 0.5
    return -scale * math.copysign(math.log(1 - 2 * abs(u)), u)


def add_noise(
    values: list[float], scale: float, rng: random.Random
) -> list[float]:
    """Independently noise each released value (histogram bins / group
    sums each get their own draw)."""
    return [v + sample_laplace(scale, rng) for v in values]


def noisy_value(value: float, sensitivity: float, epsilon: float, rng: random.Random) -> float:
    """Release a single value with epsilon-DP."""
    if epsilon <= 0:
        raise ParameterError("epsilon must be positive")
    return value + sample_laplace(sensitivity / epsilon, rng)
