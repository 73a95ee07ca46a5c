"""The journaled offline phase: kill/resume bit-identity and the
seed-prediction mirrors the scheduler relies on."""

from __future__ import annotations

import hashlib
import random

import pytest

from repro import telemetry
from repro.crypto import bgv
from repro.durability.journal import Journal, load_records
from repro.errors import CoordinatorCrash, DurabilityError
from repro.offline.precompute import (
    START_RECORD,
    UNIT_RECORD,
    OfflineConfig,
    PrecomputeRunner,
    decode_pool,
    encode_pool,
    run_precompute,
)
from repro.offline.pools import EncryptionPool
from repro.offline.store import (
    campaign_keys,
    campaign_public_key,
    submission_seed,
)
from repro.params import TEST


def small_config(**overrides) -> OfflineConfig:
    base = dict(
        master_seed=0xA11CE,
        num_queries=2,
        origins=(0, 1, 2),
        entries=2,
        relin_powers=(2, 3),
    )
    base.update(overrides)
    return OfflineConfig(**base)


def store_fingerprint(store) -> list[tuple]:
    """Order-independent content digest of a store's pools."""
    pools = sorted(
        (
            (p.master_seed, p.origin, hashlib.sha256(encode_pool(p)).hexdigest())
            for p in store.encryption_pools()
        )
    )
    return pools


class TestCodec:
    def test_roundtrip(self, public_key):
        pool = EncryptionPool.fill(public_key, 0xFEED, 1, 3)
        raw = encode_pool(pool)
        decoded = decode_pool(public_key, 0xFEED, 1, raw)
        assert encode_pool(decoded) == raw
        for a, b in zip(pool.entries, decoded.entries):
            assert a.u.coeffs == b.u.coeffs
            assert a.mask0.coeffs == b.mask0.coeffs
            assert a.mask1.coeffs == b.mask1.coeffs

    def test_truncated_artifact_rejected(self, public_key):
        raw = encode_pool(EncryptionPool.fill(public_key, 1, 0, 1))
        with pytest.raises(DurabilityError):
            decode_pool(public_key, 1, 0, raw[:-1])


class TestPrecomputeRun:
    def test_run_materializes_everything(self, tmp_path, relin_keys):
        config = small_config()
        _, public = bgv.keygen(TEST, random.Random(1))
        store = run_precompute(
            config, tmp_path, public_key=public, relin_keys=relin_keys
        )
        assert len(store.encryption_pools()) == 6  # 2 queries x 3 origins
        for qi in range(2):
            seed = submission_seed(config.master_seed, qi)
            for origin in config.origins:
                pool = store.encryption_pool(seed, origin)
                assert pool is not None and pool.level == 2

    @pytest.mark.parametrize("kill", ["before:enc-1-1", "after:enc-0-2"])
    def test_kill_then_resume_is_bit_identical(
        self, tmp_path, relin_keys, kill
    ):
        config = small_config()
        _, public = bgv.keygen(TEST, random.Random(1))
        baseline = run_precompute(
            config, tmp_path / "clean", public_key=public,
            relin_keys=relin_keys,
        )
        with pytest.raises(CoordinatorCrash):
            run_precompute(
                config, tmp_path / "killed", public_key=public,
                relin_keys=relin_keys, kill=kill,
            )
        resumed = PrecomputeRunner.resume(
            tmp_path / "killed", public_key=public, relin_keys=relin_keys
        ).run()
        assert store_fingerprint(resumed) == store_fingerprint(baseline)

    def test_resume_over_complete_journal_is_verify_pass(
        self, tmp_path, relin_keys
    ):
        config = small_config()
        _, public = bgv.keygen(TEST, random.Random(1))
        run_precompute(
            config, tmp_path, public_key=public, relin_keys=relin_keys
        )
        with telemetry.session() as active:
            PrecomputeRunner.resume(
                tmp_path, public_key=public, relin_keys=relin_keys
            ).run()
        counters = active.snapshot()["counters"]
        assert counters.get("offline.precompute.resumed") == 9
        assert "offline.precompute.units" not in counters

    def test_stale_artifact_rederives_and_verifies(
        self, tmp_path, relin_keys
    ):
        """A lost artifact is re-derived; a *wrong-chain* journal is a
        hard error, never silently papered over."""
        config = small_config()
        _, public = bgv.keygen(TEST, random.Random(1))
        run_precompute(
            config, tmp_path, public_key=public, relin_keys=relin_keys
        )
        # Delete one artifact: resume re-derives it from the chain and
        # the journaled digest still matches.
        (tmp_path / "enc-0-0.bin").unlink()
        resumed = PrecomputeRunner.resume(
            tmp_path, public_key=public, relin_keys=relin_keys
        ).run()
        seed = submission_seed(config.master_seed, 0)
        assert resumed.encryption_pool(seed, 0).level == 2
        # Resume under a different public key: the re-derived pool can
        # no longer match the journaled digest.
        _, other_public = bgv.keygen(TEST, random.Random(2))
        (tmp_path / "enc-0-0.bin").unlink()
        with pytest.raises(DurabilityError, match="stale"):
            PrecomputeRunner.resume(
                tmp_path, public_key=other_public, relin_keys=relin_keys
            ).run()


class TestParentJournals:
    """What a journal written before the dummy-stream units were removed
    still promises, and what it can no longer be resumed for."""

    #: SHA-256 over the sorted ``unit:digest`` lines of the seeded run
    #: below, taken at the commit that still journaled ``dummy-*`` units.
    PARENT_UNITS = (
        "6190fda3fcd49cda5dd25888629c365692b80a14fe028cc59c065cc8027463e1"
    )

    def test_ntt_relin_and_enc_unit_digests_unchanged(self, tmp_path):
        public, relin = campaign_keys(7, 3)
        config = OfflineConfig(
            master_seed=7, num_queries=2, origins=(0, 1, 2), entries=2,
            relin_powers=(2, 3),
        )
        run_precompute(
            config, tmp_path, public_key=public, relin_keys=relin, fsync=False
        )
        units = {
            r.data["unit"]: r.data["digest"]
            for r in load_records(tmp_path)
            if r.type == UNIT_RECORD
        }
        assert sorted(units) == sorted(
            ["ntt", "relin-2", "relin-3"]
            + [f"enc-{q}-{o}" for q in range(2) for o in range(3)]
        )
        lines = "\n".join(f"{k}:{v}" for k, v in sorted(units.items()))
        assert hashlib.sha256(lines.encode()).hexdigest() == self.PARENT_UNITS

    def _parent_journal(self, directory, **dummy):
        config = small_config().to_json()
        config.update(
            {"dummy_seed": 5, "dummy_devices": [0, 1], "dummy_blocks": 1, **dummy}
        )
        Journal.create(directory, fsync=False).append(
            START_RECORD, {"version": 1, "config": config}
        )

    def test_resume_refuses_a_journal_that_names_dummy_devices(
        self, tmp_path, public_key, relin_keys
    ):
        from repro.cli import main

        self._parent_journal(tmp_path)
        with pytest.raises(DurabilityError, match="'dummy-\\*'.*removed"):
            PrecomputeRunner.resume(
                tmp_path, public_key=public_key, relin_keys=relin_keys
            )
        with pytest.raises(DurabilityError, match="dummy"):
            main(["precompute", "--dir", str(tmp_path), "--resume"])

    def test_resume_accepts_a_parent_journal_without_dummy_units(
        self, tmp_path, public_key, relin_keys
    ):
        self._parent_journal(tmp_path, dummy_seed=None, dummy_devices=[])
        runner = PrecomputeRunner.resume(
            tmp_path, public_key=public_key, relin_keys=relin_keys
        )
        assert runner.config == small_config()


class TestSeedPrediction:
    """The mirrors must track the online phase exactly — these pin them
    against the real campaign runner, not against a copy of its code."""

    def _campaign_runner(self, tmp_path, master_seed=0xBEEF):
        from repro.durability.campaign import CampaignConfig, CampaignRunner

        config = CampaignConfig(
            master_seed=master_seed,
            queries=(("Q1", 0.5),),
            people=8,
            degree=3,
            total_epsilon=5.0,
            rotate_every=0,
            checkpoint_every=0,
        )
        return CampaignRunner.start(config, tmp_path / "campaign")

    def test_campaign_public_key_mirror(self, tmp_path):
        runner = self._campaign_runner(tmp_path)
        system = runner._build_system()
        predicted = campaign_public_key(0xBEEF)
        assert predicted.pk0.coeffs == system.public_key.pk0.coeffs
        assert predicted.pk1.coeffs == system.public_key.pk1.coeffs

    def test_campaign_relin_mirror_and_prefix_stability(self, tmp_path):
        runner = self._campaign_runner(tmp_path)
        system = runner._build_system()
        max_power = max(system.relin_keys.keys)
        _, predicted = campaign_keys(0xBEEF, max_power)
        assert set(predicted.keys) == set(system.relin_keys.keys)
        for power, key in system.relin_keys.keys.items():
            for (b0, a0), (b1, a1) in zip(
                key.pieces, predicted.keys[power].pieces
            ):
                assert b0.coeffs == b1.coeffs and a0.coeffs == a1.coeffs
        # Prefix stability: a larger max power never changes the pieces
        # of a smaller power (what lets resume over-provision safely).
        _, larger = campaign_keys(0xBEEF, max_power + 2)
        for (b0, a0), (b1, a1) in zip(
            predicted.keys[2].pieces, larger.keys[2].pieces
        ):
            assert b0.coeffs == b1.coeffs and a0.coeffs == a1.coeffs

    def test_submission_seed_mirror(self, tmp_path):
        """A store keyed by the predicted seeds must be *hit* by the
        real campaign — zero pool misses across the whole run."""
        from repro.durability.campaign import CampaignConfig, CampaignRunner
        from repro.offline.store import OfflineStore

        master = 0xBEEF
        store = OfflineStore()
        public = campaign_public_key(master)
        store.public_key = public
        store.ensure_encryption_pools(
            public, submission_seed(master, 0), range(8), 4
        )
        config = CampaignConfig(
            master_seed=master,
            queries=(("Q1", 0.5),),
            people=8,
            degree=3,
            total_epsilon=5.0,
            rotate_every=0,
            checkpoint_every=0,
        )
        with telemetry.session() as active:
            CampaignRunner.start(
                config, tmp_path / "hit", offline_store=store
            ).run()
        counters = active.snapshot()["counters"]
        assert counters.get("offline.pool.hits", 0) > 0
        assert counters.get("offline.pool.misses", 0) == 0
