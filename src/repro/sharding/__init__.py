"""Sharded deployment around the aggregator (docs/SHARDING.md).

The aggregation itself — K contiguous shards, per-shard
verify/chunk, claim-checked root reduction, one relinearization — is
:class:`repro.core.aggregator.QueryAggregator` with ``num_shards=K``.
This package holds what surrounds it: the deterministic seeded shard
layout (:mod:`repro.sharding.planner`), the streaming pairwise fold
(:mod:`repro.sharding.reduce`) and the streaming 10^6-device live
simulation (:mod:`repro.sharding.livesim`).
"""

from repro.sharding.livesim import (
    ContributionBank,
    LiveSimReport,
    run_live_simulation,
)
from repro.sharding.planner import Shard, ShardPlan, plan_shards
from repro.sharding.reduce import PairwiseAccumulator

__all__ = [
    "ContributionBank",
    "LiveSimReport",
    "PairwiseAccumulator",
    "Shard",
    "ShardPlan",
    "plan_shards",
    "run_live_simulation",
]
