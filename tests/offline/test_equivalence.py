"""The offline/online bit-identity contract at the system level.

A run consuming precomputed pools must be byte-for-byte identical to
the inline run — at any backend, any
worker count, any shard count, through pool exhaustion mid-batch, and
through a full campaign under churn.
"""

from __future__ import annotations

import random

import pytest

from repro import telemetry
from repro.durability.serialize import submissions_digest
from repro.engine.encrypted import EncryptedExecutor
from repro.offline.store import OfflineStore
from repro.query.schema import scaled_schema
from repro.runtime import RuntimeConfig, TaskFabric, backends

from tests.conftest import build_epidemic_graph, build_system

MASTER = 0xD1CE
QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1)"


def _available_backends() -> list[str]:
    names = ["pure"]
    if "numpy" in backends.available_backends():
        names.append("numpy")
    return names


class TestEngineBitIdentity:
    @pytest.mark.parametrize("backend", _available_backends())
    @pytest.mark.parametrize("workers", [1, 2])
    def test_pooled_matches_inline(self, backend, workers):
        """Property: across backends x workers, pooled and inline
        submissions serialize identically."""
        system = build_system(people=10)
        graph = build_epidemic_graph(people=10)
        plan = system.compile(QUERY)

        with backends.use_backend(backend), TaskFabric(
            workers=workers, chunk_size=2
        ) as fabric:
            inline = EncryptedExecutor(
                plan,
                system.public_key,
                system.zk,
                random.Random(1),
                fabric=fabric,
            )
            inline_subs = inline.run(graph, master_seed=MASTER)

            store = OfflineStore(system.public_key)
            store.ensure_encryption_pools(
                system.public_key, MASTER, range(10), 4
            )
            pooled = EncryptedExecutor(
                plan,
                system.public_key,
                system.zk,
                random.Random(1),
                fabric=fabric,
                offline_store=store,
            )
            pooled_subs = pooled.run(graph, master_seed=MASTER)

        assert submissions_digest(pooled_subs) == submissions_digest(
            inline_subs
        )
        assert pooled.stats.pool_misses == 0
        assert pooled.stats.pool_hits > 0

    def test_exhausted_pool_refills_same_chain(self):
        """Satellite regression: a one-entry pool exhausted mid-batch
        must block-and-refill along the same derivation chain — the
        output stays bit-identical and the refills are observable.  (A
        differently-seeded inline fallback would produce valid but
        divergent ciphertexts.)"""
        system = build_system(people=10)
        graph = build_epidemic_graph(people=10)
        plan = system.compile(QUERY)

        with TaskFabric(workers=1, chunk_size=2) as fabric:
            inline_subs = EncryptedExecutor(
                plan, system.public_key, system.zk, random.Random(1),
                fabric=fabric,
            ).run(graph, master_seed=MASTER)

            store = OfflineStore(system.public_key)
            store.ensure_encryption_pools(
                system.public_key, MASTER, range(10), 1
            )
            pooled = EncryptedExecutor(
                plan, system.public_key, system.zk, random.Random(1),
                fabric=fabric, offline_store=store,
            )
            pooled_subs = pooled.run(graph, master_seed=MASTER)

        assert submissions_digest(pooled_subs) == submissions_digest(
            inline_subs
        )
        assert pooled.stats.pool_refills > 0  # the pool did run dry
        assert pooled.stats.pool_misses == 0  # ...and never fell back


class TestSystemBitIdentity:
    @pytest.mark.parametrize("shards", [1, 3])
    def test_run_query_pooled_matches_inline(self, shards):
        """End to end through run_query: same noisy released result,
        with pools and sharded aggregation."""
        store = OfflineStore()
        system_a = build_system(people=10)
        store.public_key = system_a.public_key
        store.ensure_encryption_pools(
            system_a.public_key, MASTER, range(10), 4
        )
        runtime = RuntimeConfig(workers=1, shards=shards)
        graph = build_epidemic_graph(people=10)

        result_pooled = system_a.run_query(
            QUERY, graph, epsilon=0.5, runtime=runtime,
            offline_store=store, submission_seed=MASTER,
        )
        system_b = build_system(people=10)
        result_inline = system_b.run_query(
            QUERY, graph, epsilon=0.5, runtime=runtime,
            submission_seed=MASTER,
        )
        assert result_pooled.groups == result_inline.groups
        assert (
            result_pooled.metadata.noise_scale
            == result_inline.metadata.noise_scale
        )


@pytest.mark.chaos
class TestCampaignUnderChurn:
    def test_campaign_with_store_digest_equal_under_churn(self, tmp_path):
        """Satellite regression: a churning campaign consuming pools is
        digest-identical to the storeless run — exhaustion and device
        churn cannot make the pooled path diverge."""
        from repro.durability.campaign import CampaignConfig, CampaignRunner
        from repro.offline.store import campaign_public_key, submission_seed

        def config():
            return CampaignConfig(
                master_seed=0xC0C0A,
                queries=(("Q1", 0.5), ("Q2", 0.5)),
                people=10,
                degree=3,
                total_epsilon=5.0,
                rotate_every=0,
                churn_fraction=0.2,
                fault_seed=3,
                checkpoint_every=0,
            )

        inline = CampaignRunner.start(config(), tmp_path / "inline").run()

        store = OfflineStore()
        public = campaign_public_key(0xC0C0A)
        store.public_key = public
        for qi in range(2):
            # One-entry pools: every origin's pool is exhausted almost
            # immediately, so the whole campaign runs on refills.
            store.ensure_encryption_pools(
                public, submission_seed(0xC0C0A, qi), range(10), 1
            )
        pooled = CampaignRunner.start(
            config(), tmp_path / "pooled", offline_store=store
        ).run()

        assert pooled.digest == inline.digest
        assert pooled.results == inline.results
