"""Pool derivation chains: the bit-identity contract at the unit level.

Entry ``i`` of any pool is exactly what the inline path derives for
index ``i`` — precomputed, lazily derived, and refilled-after-exhaustion
entries must be indistinguishable (see ``src/repro/offline/pools.py``).
"""

from __future__ import annotations

import random

from repro.crypto import bgv
from repro.offline.pools import (
    EncryptionPool,
    LeafRandomnessSource,
    leaf_randomness,
    prepared_leaf_randomness,
)
from repro.offline.store import OfflineStore, POOL_LOW_WATER
from repro.params import TEST

MASTER = 0xFEED
ORIGIN = 3


class TestLeafRandomness:
    def test_stateless_rederivation(self):
        a = leaf_randomness(TEST, MASTER, ORIGIN, 5)
        b = leaf_randomness(TEST, MASTER, ORIGIN, 5)
        assert (a.u.coeffs, a.e0.coeffs, a.e1.coeffs) == (
            b.u.coeffs, b.e0.coeffs, b.e1.coeffs,
        )

    def test_distinct_indices_differ(self):
        a = leaf_randomness(TEST, MASTER, ORIGIN, 0)
        b = leaf_randomness(TEST, MASTER, ORIGIN, 1)
        assert a.u.coeffs != b.u.coeffs

    def test_prepared_matches_plain(self, public_key):
        plain = leaf_randomness(TEST, MASTER, ORIGIN, 2)
        prepared = prepared_leaf_randomness(public_key, MASTER, ORIGIN, 2)
        assert prepared.u.coeffs == plain.u.coeffs
        assert prepared.e0.coeffs == plain.e0.coeffs
        assert prepared.e1.coeffs == plain.e1.coeffs
        # The masks are what .prepare computes for this key.
        reference = bgv.PreparedRandomness.prepare(public_key, plain)
        assert prepared.mask0.coeffs == reference.mask0.coeffs
        assert prepared.mask1.coeffs == reference.mask1.coeffs

    def test_prepared_encrypts_identically(self, public_key):
        """A ciphertext built from a prepared entry is bit-identical to
        one built from the plain randomness at the same index."""
        plain = leaf_randomness(TEST, MASTER, ORIGIN, 0)
        prepared = prepared_leaf_randomness(public_key, MASTER, ORIGIN, 0)
        rng = random.Random(0)  # never drawn: randomness is pinned
        ct_plain = bgv.encrypt_monomial(public_key, 7, rng, randomness=plain)
        ct_prepared = bgv.encrypt_monomial(
            public_key, 7, rng, randomness=prepared
        )
        assert ct_plain.serialize() == ct_prepared.serialize()


class TestEncryptionPool:
    def test_fill_matches_lazy_chain(self, public_key):
        pool = EncryptionPool.fill(public_key, MASTER, ORIGIN, 4)
        assert pool.level == 4
        assert pool.refills == 0
        for i in range(4):
            expected = leaf_randomness(TEST, MASTER, ORIGIN, i)
            assert pool.entry(i).u.coeffs == expected.u.coeffs

    def test_exhaustion_extends_same_chain(self, public_key):
        """Block-and-refill: indexing past the materialized prefix must
        continue the same derivation chain, never a fallback RNG."""
        pool = EncryptionPool.fill(public_key, MASTER, ORIGIN, 2)
        entry = pool.entry(6)  # four entries past the prefix
        assert pool.refills == 5  # indices 2..6 derived on demand
        expected = leaf_randomness(TEST, MASTER, ORIGIN, 6)
        assert entry.u.coeffs == expected.u.coeffs
        assert entry.e0.coeffs == expected.e0.coeffs
        assert entry.e1.coeffs == expected.e1.coeffs

    def test_extend_to_is_idempotent(self, public_key):
        pool = EncryptionPool.fill(public_key, MASTER, ORIGIN, 3)
        before = [e.u.coeffs for e in pool.entries]
        pool.extend_to(3)
        pool.extend_to(2)
        assert [e.u.coeffs for e in pool.entries] == before
        assert pool.refills == 0


class TestLeafRandomnessSource:
    def test_pooled_and_lazy_streams_identical(self, public_key):
        pool = EncryptionPool.fill(public_key, MASTER, ORIGIN, 3)
        pooled = LeafRandomnessSource(TEST, MASTER, ORIGIN, pool=pool)
        lazy = LeafRandomnessSource(TEST, MASTER, ORIGIN)
        # Draw past the pool so the refill path is in the comparison.
        for _ in range(6):
            a, b = pooled.next(), lazy.next()
            assert a.u.coeffs == b.u.coeffs
            assert a.e0.coeffs == b.e0.coeffs
            assert a.e1.coeffs == b.e1.coeffs
        assert pooled.hits == 6
        assert pooled.misses == 0
        assert pooled.refills == 3
        assert lazy.misses == 6

    def test_pooled_entries_are_prepared(self, public_key):
        pool = EncryptionPool.fill(public_key, MASTER, ORIGIN, 1)
        source = LeafRandomnessSource(TEST, MASTER, ORIGIN, pool=pool)
        assert isinstance(source.next(), bgv.PreparedRandomness)


class TestOfflineStore:
    def test_ensure_then_topup_counts_derived(self, public_key):
        store = OfflineStore(public_key)
        derived = store.ensure_encryption_pools(
            public_key, MASTER, range(3), 2
        )
        assert derived == 6
        assert store.ensure_encryption_pools(
            public_key, MASTER, range(3), 2
        ) == 0  # already at level — a no-op refill pass
        assert store.ensure_encryption_pools(
            public_key, MASTER, range(3), 4
        ) == 6  # top-up derives only the delta

    def test_retire_drops_only_that_seed(self, public_key):
        store = OfflineStore(public_key)
        store.ensure_encryption_pools(public_key, MASTER, range(2), 1)
        store.ensure_encryption_pools(public_key, MASTER + 1, range(2), 1)
        store.retire(MASTER)
        assert store.encryption_pool(MASTER, 0) is None
        assert store.encryption_pool(MASTER + 1, 0) is not None

    def test_observe_levels_counts_low_pools(self, public_key):
        store = OfflineStore(public_key)
        store.ensure_encryption_pools(
            public_key, MASTER, range(2), POOL_LOW_WATER
        )
        store.ensure_encryption_pools(
            public_key, MASTER + 1, range(1), POOL_LOW_WATER + 3
        )
        assert store.observe_levels() == 2
