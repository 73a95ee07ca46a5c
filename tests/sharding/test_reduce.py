"""Reduction-tree invariants: the streaming accumulator is bit-identical
to the flat pairwise fold (satellite: uneven shard sizes, K=1, K >
devices), and the root refuses tampered shard claims."""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import (
    SUM_CHUNK,
    ReductionTree,
    ShardPartial,
    _pairwise_sum,
    chunked_partials,
    tree_reduce,
)
from repro.crypto import bgv
from repro.errors import ProtocolError, ShardIntegrityError
from repro.sharding import PairwiseAccumulator, plan_shards


def fresh_cts(public_key, count, seed=1):
    rng = random.Random(seed)
    return [
        bgv.encrypt_monomial(public_key, i % public_key.profile.n, rng)
        for i in range(count)
    ]


def flat_tree_sum(cts):
    """The flat aggregator's exact shape: chunk sums, then pairwise."""
    if not cts:
        return None
    partials = [
        _pairwise_sum(cts[i : i + SUM_CHUNK])
        for i in range(0, len(cts), SUM_CHUNK)
    ]
    return _pairwise_sum(partials)


@pytest.mark.parametrize(
    "count", [1, 2, 3, 4, 5, 6, 7, 8, 9, 11, 12, 13, 16, 17, 25, 31, 32, 40]
)
def test_accumulator_matches_pairwise_sum_bit_for_bit(public_key, count):
    cts = fresh_cts(public_key, count)
    accumulator = PairwiseAccumulator()
    for ct in cts:
        accumulator.push(ct)
    assert len(accumulator) == count
    streamed = accumulator.result()
    flat = _pairwise_sum(list(cts))
    # Same association exactly: components AND the analytic noise tag.
    assert streamed.serialize() == flat.serialize()
    assert streamed.noise_bits == flat.noise_bits


def test_accumulator_empty_returns_none():
    assert PairwiseAccumulator().result() is None


@pytest.mark.parametrize("count", [0, 1, 5, 8, 9, 24, 40])
def test_tree_reduce_matches_flat_tree_shape(public_key, count):
    cts = fresh_cts(public_key, count, seed=3)
    ours = tree_reduce(list(cts))
    flat = flat_tree_sum(cts)
    if count == 0:
        assert ours is None and flat is None
        return
    assert ours.serialize() == flat.serialize()
    assert ours.noise_bits == flat.noise_bits


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8, 50])
def test_sharded_reduction_components_equal_flat(public_key, num_shards):
    """Satellite check: K not dividing the count, K=1 degenerate, and
    K > count all reduce to the flat sum's exact components."""
    cts = fresh_cts(public_key, 23, seed=7)
    flat = flat_tree_sum(cts)
    tree = ReductionTree()
    for shard in plan_shards(len(cts), num_shards).shards:
        chunk = cts[shard.start : shard.stop]
        chunks = chunked_partials(list(chunk))
        tree.add(
            ShardPartial(
                shard_index=shard.index,
                accepted=tuple(range(shard.start, shard.stop)),
                rejected=(),
                accepted_digests=tuple(ct.digest() for ct in chunk),
                seconds=(0.0,) * shard.size,
                proofs=(0,) * shard.size,
                chunk_partials=tuple(chunks),
                partial=_pairwise_sum(list(chunks)) if chunks else None,
            )
        )
    combined = tree.reduce()
    assert combined.serialize() == flat.serialize()
    if num_shards == 1:
        # Degenerate layout: identical including the noise metadata.
        assert combined.noise_bits == flat.noise_bits


def make_partial(public_key, shard_index, count, seed, tamper=False):
    cts = fresh_cts(public_key, count, seed=seed)
    chunks = tuple(chunked_partials(cts))
    claimed = _pairwise_sum(list(chunks))
    if tamper:
        claimed = bgv.add(claimed, cts[0])  # inflate one bin
    return ShardPartial(
        shard_index=shard_index,
        accepted=tuple(range(count)),
        rejected=(),
        accepted_digests=tuple(ct.digest() for ct in cts),
        seconds=(0.0,) * count,
        proofs=(1,) * count,
        chunk_partials=chunks,
        partial=claimed,
    )


def test_root_rejects_tampered_claim(public_key):
    tree = ReductionTree()
    tree.add(make_partial(public_key, 0, 5, seed=11))
    with pytest.raises(ShardIntegrityError):
        tree.add(make_partial(public_key, 1, 5, seed=12, tamper=True))


def test_root_rejects_missing_partial_with_claimed_accepts(public_key):
    cts = fresh_cts(public_key, 2, seed=13)
    bogus = ShardPartial(
        shard_index=0,
        accepted=(0, 1),
        rejected=(),
        accepted_digests=tuple(ct.digest() for ct in cts),
        seconds=(0.0, 0.0),
        proofs=(1, 1),
        chunk_partials=(),
        partial=None,
    )
    with pytest.raises(ShardIntegrityError):
        ReductionTree().add(bogus)


def test_empty_shards_are_fine_but_zero_shards_are_not(public_key):
    tree = ReductionTree()
    empty = ShardPartial(
        shard_index=0,
        accepted=(),
        rejected=(),
        accepted_digests=(),
        seconds=(),
        proofs=(),
        chunk_partials=(),
        partial=None,
    )
    tree.add(empty)
    assert tree.reduce() is None
    with pytest.raises(ProtocolError):
        ReductionTree().reduce()
