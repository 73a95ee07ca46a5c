"""Deterministic shard layout over device origins.

The planner partitions the *ordered* origin list into K contiguous,
balanced ranges.  Contiguity is the load-bearing property: concatenating
the shards' per-origin outputs in shard order reproduces the exact
global submission order, which is what lets the sharded aggregation
replay the unsharded path's accepted/rejected lists, Merkle leaf order,
and verification-seconds float fold bit-for-bit (docs/SHARDING.md).

Each shard also carries a domain-separated seed derived from the run's
master seed — per-shard mixnet worlds and live-simulation device streams
draw from it, so a shard's behaviour is a pure function of
``(master_seed, shard index)`` and never of the layout K of the shards
around it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence, TypeVar

from repro.core.aggregator import shard_bounds
from repro.errors import ParameterError
from repro.runtime.seeding import derive_seed

T = TypeVar("T")


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

    def slice(self, items: Sequence[T]) -> Sequence[T]:
        return items[self.start : self.stop]


@dataclass(frozen=True)
class ShardPlan:
    """A full layout: K shards covering ``total`` positions."""

    total: int
    shards: tuple[Shard, ...]

    @property
    def num_shards(self) -> int:
        return len(self.shards)

    def shard_of(self, position: int) -> Shard:
        """The shard holding a given position in the origin order."""
        if not 0 <= position < self.total:
            raise ParameterError(
                f"position {position} outside [0, {self.total})"
            )
        for shard in self.shards:
            if shard.start <= position < shard.stop:
                return shard
        raise AssertionError("contiguous shards must cover every position")

    def split(self, items: Sequence[T]) -> Iterator[tuple[Shard, Sequence[T]]]:
        """Yield ``(shard, items[start:stop])`` pairs in shard order."""
        if len(items) != self.total:
            raise ParameterError(
                f"plan covers {self.total} items, got {len(items)}"
            )
        for shard in self.shards:
            yield shard, shard.slice(items)


@dataclass(frozen=True)
class ShardPlanner:
    """Lay out K balanced contiguous shards deterministically.

    The ranges are the aggregator's own
    (:func:`repro.core.aggregator.shard_bounds`: the first ``total % K``
    shards take one extra item), so the plan is a pure function of
    ``(total, num_shards, master_seed)`` — identical on every resume and
    at any worker count or backend.
    """

    num_shards: int

    def __post_init__(self) -> None:
        if self.num_shards < 1:
            raise ParameterError("ShardPlanner.num_shards must be >= 1")

    def plan(self, total: int, master_seed: int = 0) -> ShardPlan:
        if total < 0:
            raise ParameterError("cannot shard a negative item count")
        shards = tuple(
            Shard(
                index=index,
                start=start,
                stop=stop,
                seed=derive_seed(master_seed, "shard", index),
            )
            for index, (start, stop) in enumerate(
                shard_bounds(total, self.num_shards)
            )
        )
        return ShardPlan(total=total, shards=shards)


def plan_shards(
    total: int, num_shards: int, master_seed: int = 0
) -> ShardPlan:
    """Convenience one-shot: ``ShardPlanner(K).plan(total, seed)``."""
    return ShardPlanner(num_shards).plan(total, master_seed)
