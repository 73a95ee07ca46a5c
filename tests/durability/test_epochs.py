"""Committee epoch lifecycle under churn: liveness pings, emergency
resharing, and the acceptance scenario — a campaign spanning >= 3 epochs
with >= 1 emergency reshare and zero decryption failures."""

from __future__ import annotations

import pytest

from repro.core.committee import open_quorum
from repro.core.rounds import CampaignClock
from repro.durability.campaign import (
    CampaignConfig,
    KillSpec,
    needs_reshare,
    resume_campaign,
    run_campaign,
)
from repro.durability.journal import load_records
from repro.errors import CoordinatorCrash
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChurnWindow, FaultPlan
from repro.workloads.epidemic import campaign_queries


def churn_config(**overrides) -> CampaignConfig:
    """Knock one genesis committee member offline long enough that the
    monitor sees live membership decay to the threshold."""
    defaults = dict(
        master_seed=11,
        queries=campaign_queries(4),
        people=10,
        degree=3,
        rotate_every=2,
        committee_churn_members=1,
        committee_churn_start=0,
        committee_churn_rounds=40,
        fault_seed=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


class TestCampaignClock:
    def test_monotonic_advance(self):
        clock = CampaignClock()
        assert clock.advance(3) == 3
        assert clock.advance(0) == 3
        assert clock.round == 3

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CampaignClock().advance(-1)


class TestHealthMonitor:
    def _committee_of(self, member_ids):
        import random

        from repro.core.committee import genesis_share_key
        from repro.crypto import bgv
        from repro.params import TEST

        secret, _ = bgv.keygen(TEST, random.Random(5))
        return genesis_share_key(
            secret, list(member_ids), 2, random.Random(6)
        )

    def test_no_injector_means_all_live(self):
        """An empty plan — what a campaign without faults gets — finds
        every member live and never waits."""
        committee = self._committee_of([1, 4, 7])
        injector = FaultInjector(FaultPlan(seed=0))
        assert injector.await_quorum(
            [1, 4, 7], 5, lambda live, _: len(live) >= committee.threshold
        ) == (5, [1, 4, 7])
        assert not needs_reshare(committee, [1, 4, 7])

    def test_one_member_down_triggers_reshare_at_threshold(self):
        committee = self._committee_of([1, 4, 7])
        plan = FaultPlan(
            seed=0,
            churn_windows=(
                ChurnWindow(device_id=4, start_round=0, end_round=8),
            ),
        )
        injector = FaultInjector(plan)
        live = injector.live([1, 4, 7], 2)
        assert live == [1, 7]
        # Still a quorum (threshold 2) but with zero slack: reshare now.
        assert open_quorum(committee, live, False) == [1, 7]
        assert needs_reshare(committee, live)
        # Outside the window the committee is healthy again.
        later = injector.live([1, 4, 7], 20)
        assert later == [1, 4, 7] and not needs_reshare(committee, later)

    def test_below_threshold_is_not_quorate(self):
        committee = self._committee_of([1, 2, 3])
        assert open_quorum(committee, [3], False) is None
        assert needs_reshare(committee, [3])

    def test_live_devices_excludes_churned(self):
        plan = FaultPlan(
            seed=0,
            churn_windows=(
                ChurnWindow(device_id=0, start_round=0, end_round=4),
                ChurnWindow(device_id=3, start_round=0, end_round=4),
            ),
        )
        injector = FaultInjector(plan)
        assert injector.live(range(5), 1) == [1, 2, 4]
        assert injector.live(range(5), 10) == [0, 1, 2, 3, 4]


class TestEpochLifecycleUnderChurn:
    @pytest.fixture(scope="class")
    def churn_oracle(self, tmp_path_factory):
        return run_campaign(
            churn_config(), tmp_path_factory.mktemp("churn-oracle")
        )

    def test_acceptance_scenario(self, churn_oracle):
        result = churn_oracle
        # >= 3 committee epochs beyond genesis.
        assert len(result.epochs) >= 4
        assert result.epochs[0]["reason"] == "genesis"
        # >= 1 emergency reshare, triggered by a liveness ping.
        assert result.emergency_reshares >= 1
        assert any(e["reason"] == "emergency" for e in result.epochs)
        # Zero decryption failures: every query released a result.
        assert len(result.results) == 4

    def test_emergency_reshare_excludes_downed_dealer(self, churn_oracle):
        emergency = next(
            e for e in churn_oracle.epochs if e["reason"] == "emergency"
        )
        genesis_members = churn_oracle.epochs[0]["members"]
        downed = genesis_members[0]
        assert downed not in emergency["dealers"]

    def test_epoch_numbers_are_contiguous(self, churn_oracle):
        assert [e["epoch"] for e in churn_oracle.epochs] == list(
            range(len(churn_oracle.epochs))
        )

    def test_crash_during_emergency_handoff_resumes_identically(
        self, churn_oracle, tmp_path
    ):
        with pytest.raises(CoordinatorCrash):
            run_campaign(
                churn_config(), tmp_path, kill=KillSpec("handoff-start")
            )
        resumed = resume_campaign(tmp_path)
        assert resumed.digest == churn_oracle.digest
        assert resumed.emergency_reshares == churn_oracle.emergency_reshares

    def test_kill_every_phase_under_churn(self, churn_oracle, tmp_path):
        # The full matrix runs in CI; here one representative early and
        # one late boundary keep tier-1 fast.
        for phase, query in (("open", 0), ("handoff", 3)):
            directory = tmp_path / f"{phase}-{query}"
            with pytest.raises(CoordinatorCrash):
                run_campaign(
                    churn_config(),
                    directory,
                    kill=KillSpec(phase=phase, query=query),
                )
            assert resume_campaign(directory).digest == churn_oracle.digest

    def test_committee_epoch_recorded_in_result_metadata(self, churn_oracle):
        epochs_seen = [
            r["metadata"]["committee_epoch"] for r in churn_oracle.results
        ]
        # The campaign advanced epochs between queries, and results bind
        # the epoch that decrypted them.
        assert epochs_seen == sorted(epochs_seen)
        assert epochs_seen[-1] >= 2


class TestCorruptMemberUnderChurn:
    """A lying member among churned ones: the open needs threshold + 1
    live members, and the campaign waits for exactly that many — the
    same quorum rule the open step applies, not the bare threshold."""

    @staticmethod
    def config() -> CampaignConfig:
        return CampaignConfig(
            master_seed=11,
            queries=campaign_queries(1),
            people=8,
            committee_size=5,
            committee_threshold=2,
            committee_corrupt_members=1,
            committee_churn_members=3,
            committee_churn_rounds=40,
        )

    @pytest.fixture(scope="class")
    def corrupt_oracle(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("corrupt-churn")
        return directory, run_campaign(self.config(), directory)

    def test_waits_for_the_redundant_quorum_and_flags(self, corrupt_oracle):
        directory, result = corrupt_oracle
        assert result.quorum_wait_rounds >= 1
        assert len(result.results) == 1
        (open_record,) = [
            r.data
            for r in load_records(directory)
            if r.type == "phase" and r.data["phase"] == "open"
        ]
        liar = result.epochs[0]["members"][0]
        assert open_record["flagged"] == [liar]
        assert open_record["participating"] == result.epochs[0]["members"]

    def test_kill_at_open_resumes_identically(self, corrupt_oracle, tmp_path):
        _, result = corrupt_oracle
        with pytest.raises(CoordinatorCrash):
            run_campaign(
                self.config(), tmp_path, kill=KillSpec(phase="open", query=0)
            )
        resumed = resume_campaign(tmp_path)
        assert resumed.digest == result.digest
        assert resumed.quorum_wait_rounds == result.quorum_wait_rounds
