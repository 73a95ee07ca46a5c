"""``plan_shards`` layout invariants: balance, contiguity, determinism."""

from __future__ import annotations

import pytest

from repro.errors import ParameterError
from repro.runtime.seeding import derive_seed
from repro.sharding import plan_shards


@pytest.mark.parametrize("total", [0, 1, 7, 8, 9, 64, 1001])
@pytest.mark.parametrize("num_shards", [1, 2, 3, 8, 13])
def test_layout_is_balanced_contiguous_and_complete(total, num_shards):
    plan = plan_shards(total, num_shards)
    assert plan.num_shards == num_shards
    sizes = [shard.size for shard in plan.shards]
    assert sum(sizes) == total
    # Balanced: sizes differ by at most one, larger shards first.
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)
    # Contiguous cover of [0, total).
    position = 0
    for index, shard in enumerate(plan.shards):
        assert shard.index == index
        assert shard.start == position
        position = shard.stop
    assert position == total


def test_more_shards_than_items_yields_empty_tail():
    plan = plan_shards(3, 8)
    assert [s.size for s in plan.shards] == [1, 1, 1, 0, 0, 0, 0, 0]


def test_seeds_are_domain_separated_and_layout_independent():
    plan_a = plan_shards(100, 4, master_seed=9)
    plan_b = plan_shards(64, 4, master_seed=9)
    for shard_a, shard_b in zip(plan_a.shards, plan_b.shards):
        # Seed depends on (master, index) only — never on the layout.
        assert shard_a.seed == shard_b.seed
        assert shard_a.seed == derive_seed(9, "shard", shard_a.index)
    assert len({s.seed for s in plan_a.shards}) == 4
    assert plan_shards(100, 4, master_seed=10).shards[0].seed != (
        plan_a.shards[0].seed
    )


def test_plan_is_deterministic():
    assert plan_shards(997, 13, 5) == plan_shards(997, 13, 5)


def test_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        plan_shards(4, 0)
    with pytest.raises(ParameterError):
        plan_shards(-1, 2)
