"""QueryAggregator bit-identity across shard counts.

The contract under test (docs/SHARDING.md): at ANY shard count — K=1,
K dividing the submissions, K uneven, K exceeding the device count —
the one aggregator class reproduces its own K=1 ciphertext components,
accepted/rejected lists, Merkle summation root, verification-seconds
float fold, and proof counts, including when Byzantine submissions are
rejected mid-stream.  K=1 itself is anchored to an independent
reference: one ``bgv.relinearize`` of a pairwise fold over SUM_CHUNK
chunk sums of the submitted ciphertexts, written out here with
``bgv.add`` only.
"""

from __future__ import annotations

import random

import pytest

from repro.core.aggregator import SUM_CHUNK, QueryAggregator
from repro.crypto import bgv
from repro.engine.malicious import Behavior
from repro.errors import ProtocolError
from repro.runtime import RuntimeConfig, TaskFabric, backends
from repro.sharding import plan_shards
from tests.conftest import build_epidemic_graph, build_system


@pytest.fixture(scope="module")
def submissions():
    """Real per-origin submissions, two of them Byzantine."""
    system = build_system(people=12)
    graph = build_epidemic_graph(people=12)
    plan = system.compile(
        "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"
    )
    config = RuntimeConfig()
    with backends.use_backend(config.backend), TaskFabric.from_config(
        config
    ) as fabric:
        subs = system.submit_phase(
            plan,
            graph,
            random.Random(11),
            fabric,
            behaviors={
                3: Behavior.FORGED_PROOF,
                7: Behavior.OVERSIZED_EXPONENT,
            },
        )
    return system, subs


def aggregator(system, **kwargs) -> QueryAggregator:
    return QueryAggregator(
        zk=system.zk, relin_keys=system.relin_keys, **kwargs
    )


@pytest.fixture(scope="module")
def flat(submissions):
    system, subs = submissions
    return aggregator(system).aggregate(subs)


def pairwise(cts):
    """In-order pairwise halving with ``bgv.add`` only."""
    while len(cts) > 1:
        cts = [
            bgv.add(cts[i], cts[i + 1]) if i + 1 < len(cts) else cts[i]
            for i in range(0, len(cts), 2)
        ]
    return cts[0]


def test_k1_matches_independent_chunked_pairwise_fold(submissions, flat):
    """The K=1 root equals one relinearization of the submitted
    ciphertexts' chunk sums folded pairwise, recomputed here without any
    aggregator code — components and noise metadata."""
    system, subs = submissions
    submitted = [s.ciphertext for s in subs if s.origin in set(flat.accepted)]
    chunk_sums = [
        pairwise(submitted[i : i + SUM_CHUNK])
        for i in range(0, len(submitted), SUM_CHUNK)
    ]
    assert len(chunk_sums) > 1  # the fixture exercises both tree levels
    reference = bgv.relinearize(pairwise(chunk_sums), system.relin_keys)
    assert flat.ciphertext.degree == 1
    assert flat.ciphertext.serialize() == reference.serialize()
    assert flat.ciphertext.noise_bits == reference.noise_bits
    assert 3 in flat.rejected  # the forged proof never reaches the sum


@pytest.mark.parametrize("num_shards", [1, 2, 3, 5, 8, 64])
def test_bit_identical_to_flat_at_any_k(submissions, flat, num_shards):
    """On every backend, against the K=1 run on the pure reference."""
    system, subs = submissions
    for backend in backends.available_backends():
        with backends.use_backend(backend):
            sharded = aggregator(system, num_shards=num_shards).aggregate(subs)
        assert sharded.ciphertext.serialize() == flat.ciphertext.serialize()
        assert sharded.accepted == flat.accepted
        assert sharded.rejected == flat.rejected
        assert sharded.summation_root == flat.summation_root
        # Exact float equality: every layout replays the same left fold
        # in the same global submission order.
        assert sharded.verification_seconds == flat.verification_seconds
        assert sharded.proofs_verified == flat.proofs_verified


def test_k1_matches_flat_noise_metadata_too(submissions, flat):
    system, subs = submissions
    explicit = aggregator(system, num_shards=1).aggregate(subs)
    assert explicit.ciphertext.noise_bits == flat.ciphertext.noise_bits


def test_fabric_path_matches_sequential(submissions, flat):
    system, subs = submissions
    config = RuntimeConfig(workers=2, chunk_size=2)
    with backends.use_backend(config.backend), TaskFabric.from_config(
        config
    ) as fabric:
        sharded = aggregator(system, num_shards=3, fabric=fabric).aggregate(
            subs
        )
        unsharded = aggregator(system, fabric=fabric).aggregate(subs)
    assert sharded.ciphertext.serialize() == flat.ciphertext.serialize()
    assert sharded.accepted == flat.accepted
    assert sharded.verification_seconds == flat.verification_seconds
    # Worker count moves nothing at K=1 either, noise metadata included.
    assert unsharded.ciphertext.serialize() == flat.ciphertext.serialize()
    assert unsharded.ciphertext.noise_bits == flat.ciphertext.noise_bits


def test_inclusion_proofs_cover_global_leaf_order(submissions, flat):
    system, subs = submissions
    sharded = aggregator(system, num_shards=3)
    with pytest.raises(ProtocolError):
        sharded.inclusion_proof(0)
    result = sharded.aggregate(subs)
    flat_aggregator = aggregator(system)
    flat_aggregator.aggregate(subs)
    for position in range(len(result.accepted)):
        proof = sharded.inclusion_proof(position)
        digest = flat_aggregator._accepted_digests[position]
        assert sharded.verify_inclusion(position, digest, proof)


def test_shard_partial_bookkeeping_is_contiguous(submissions):
    system, subs = submissions
    plan = plan_shards(len(subs), 3)
    reassembled = []
    for shard in plan.shards:
        chunk = subs[shard.start : shard.stop]
        partial = aggregator(system).aggregate_shard(shard.index, list(chunk))
        assert partial.shard_index == shard.index
        assert partial.num_submissions == shard.size
        reassembled.extend(partial.accepted)
        reassembled.extend(partial.rejected)
    assert sorted(reassembled) == sorted(s.origin for s in subs)


def test_rejects_nonpositive_shard_count(submissions):
    system, _ = submissions
    with pytest.raises(ProtocolError):
        aggregator(system, num_shards=0)


def test_system_aggregate_phase_routes_by_shards(submissions, flat):
    system, subs = submissions
    config = RuntimeConfig(shards=4)
    with backends.use_backend(config.backend), TaskFabric.from_config(
        config
    ) as fabric:
        sharded = system.aggregate_phase(subs, fabric, shards=config.shards)
    assert sharded.ciphertext.serialize() == flat.ciphertext.serialize()
    assert sharded.summation_root == flat.summation_root
