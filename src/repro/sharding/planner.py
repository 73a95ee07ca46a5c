"""Deterministic shard layout over device origins.

The planner partitions the *ordered* origin list into K contiguous,
balanced ranges.  Contiguity is the load-bearing property: concatenating
the shards' per-origin outputs in shard order reproduces the exact
global submission order, which is what lets the sharded aggregation
replay the unsharded path's accepted/rejected lists, Merkle leaf order,
and verification-seconds float fold bit-for-bit (docs/SHARDING.md).

Each shard also carries a domain-separated seed derived from the run's
master seed — live-simulation device streams draw from it, so a shard's
behaviour is a pure function of ``(master_seed, shard index)`` and never
of the layout K of the shards around it.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.aggregator import shard_bounds
from repro.errors import ParameterError
from repro.runtime.seeding import derive_seed


@dataclass(frozen=True)
class Shard:
    """One contiguous range of the origin order.

    ``start``/``stop`` are positions in the ordered origin list (not
    origin ids): ``origins[start:stop]`` is exactly this shard's slice.
    A shard may be empty when K exceeds the device count.
    """

    index: int
    start: int
    stop: int
    seed: int

    @property
    def size(self) -> int:
        return self.stop - self.start


@dataclass(frozen=True)
class ShardPlan:
    """A full layout: K shards covering ``total`` positions."""

    total: int
    shards: tuple[Shard, ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)


def plan_shards(
    total: int, num_shards: int, master_seed: int = 0
) -> ShardPlan:
    """Lay out K balanced contiguous shards deterministically.

    The ranges are the aggregator's own
    (:func:`repro.core.aggregator.shard_bounds`: the first ``total % K``
    shards take one extra item), so the plan is a pure function of
    ``(total, num_shards, master_seed)`` — identical on every resume and
    at any worker count or backend.
    """
    if num_shards < 1:
        raise ParameterError("plan_shards needs num_shards >= 1")
    if total < 0:
        raise ParameterError("cannot shard a negative item count")
    shards = tuple(
        Shard(
            index=index,
            start=start,
            stop=stop,
            seed=derive_seed(master_seed, "shard", index),
        )
        for index, (start, stop) in enumerate(shard_bounds(total, num_shards))
    )
    return ShardPlan(total=total, shards=shards)
