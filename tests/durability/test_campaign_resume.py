"""Crash/resume correctness: kill at every phase boundary, resume, and
require the released results, budget ledger, and epoch commitments to be
bit-identical to an uninterrupted run — at any worker count, on any
backend."""

from __future__ import annotations

import pytest

from repro.durability.campaign import (
    PHASES,
    CampaignConfig,
    CampaignRunner,
    KillSpec,
    resume_campaign,
    run_campaign,
)
from repro.errors import CampaignResumeError, CoordinatorCrash, ProtocolError
from repro.runtime import RuntimeConfig
from repro.runtime.backends import available_backends
from repro.workloads.epidemic import campaign_queries


def small_config(**overrides) -> CampaignConfig:
    defaults = dict(
        master_seed=7,
        queries=campaign_queries(2),
        people=8,
        degree=3,
    )
    defaults.update(overrides)
    return CampaignConfig(**defaults)


@pytest.fixture(scope="module")
def oracle(tmp_path_factory):
    """One uninterrupted run of the canonical small campaign."""
    directory = tmp_path_factory.mktemp("oracle")
    return run_campaign(small_config(), directory)


def kill_and_resume(config, directory, kill, runtime=None):
    with pytest.raises(CoordinatorCrash):
        run_campaign(config, directory, kill=kill, runtime=runtime)
    return resume_campaign(directory, runtime=runtime)


class TestKillAtEveryPhase:
    @pytest.mark.parametrize("phase", PHASES)
    def test_kill_after_commit_resumes_bit_identical(
        self, phase, oracle, tmp_path
    ):
        resumed = kill_and_resume(
            small_config(), tmp_path, KillSpec(phase=phase, query=0)
        )
        assert resumed.digest == oracle.digest
        assert resumed.ledger == oracle.ledger
        assert resumed.epochs == oracle.epochs
        assert resumed.results == oracle.results

    @pytest.mark.parametrize("phase", PHASES)
    def test_kill_before_commit_reruns_bit_identical(
        self, phase, oracle, tmp_path
    ):
        resumed = kill_and_resume(
            small_config(),
            tmp_path,
            KillSpec(phase=phase, query=1, before=True),
        )
        assert resumed.digest == oracle.digest

    def test_kill_mid_handoff_retries_with_recorded_intent(
        self, oracle, tmp_path
    ):
        # The handoff-start record is durable but the commit is not: the
        # crash lands mid-redistribution and resume must retry the same
        # handoff (same electorate, same dealers) rather than electing a
        # different committee.
        resumed = kill_and_resume(
            small_config(), tmp_path, KillSpec(phase="handoff-start", query=0)
        )
        assert resumed.digest == oracle.digest

    def test_double_crash_then_resume(self, oracle, tmp_path):
        config = small_config()
        with pytest.raises(CoordinatorCrash):
            run_campaign(config, tmp_path, kill=KillSpec("charge", query=0))
        with pytest.raises(CoordinatorCrash):
            resume_campaign(tmp_path, kill=KillSpec("open", query=1))
        assert resume_campaign(tmp_path).digest == oracle.digest

    def test_unknown_kill_point_rejected(self):
        with pytest.raises(ProtocolError):
            KillSpec(phase="no-such-phase")

    @pytest.mark.parametrize("phase", ["noise", "no-such-phase"])
    def test_unknown_planned_kill_phase_rejected(self, phase):
        # A kill at a name no boundary carries would silently never fire.
        with pytest.raises(ProtocolError, match="unknown kill point"):
            small_config(coordinator_kills=((0, phase),))

    def test_killspec_parse(self):
        spec = KillSpec.parse("open:2", before=True)
        assert (spec.phase, spec.query, spec.before) == ("open", 2, True)
        assert KillSpec.parse("compile").query is None


class TestCrossBackendResume:
    def test_resume_prefix_plus_rest_matches_any_runtime(
        self, oracle, tmp_path
    ):
        # run(prefix) under one runtime + resume(rest) under another must
        # equal run(all): the journal pins the computation, not the
        # execution engine.
        backends = available_backends()
        other = RuntimeConfig(
            workers=2,
            backend=backends[-1],
            chunk_size=2,
        )
        with pytest.raises(CoordinatorCrash):
            run_campaign(
                small_config(),
                tmp_path,
                kill=KillSpec("aggregate", query=0),
                runtime=RuntimeConfig(workers=1, backend=backends[0]),
            )
        resumed = resume_campaign(tmp_path, runtime=other)
        assert resumed.digest == oracle.digest


class TestPlanDrivenCrash:
    def test_fault_plan_kill_is_journaled_and_not_retaken(self, tmp_path):
        config = small_config(coordinator_kills=((0, "open"),))
        with pytest.raises(CoordinatorCrash):
            run_campaign(config, tmp_path)
        # The crash record is durable, so the resumed process sails past
        # the same boundary instead of dying again.
        resumed = resume_campaign(tmp_path)
        assert len(resumed.results) == 2

    def test_plan_driven_and_oracle_agree(self, oracle, tmp_path):
        config = small_config(coordinator_kills=((1, "open"),))
        with pytest.raises(CoordinatorCrash):
            run_campaign(config, tmp_path)
        resumed = resume_campaign(tmp_path)
        # coordinator_kills is part of the config (and journal), so the
        # acceptance trio still matches a kill-free campaign.
        assert resumed.results == oracle.results
        assert resumed.ledger == oracle.ledger
        assert resumed.epochs == oracle.epochs


class TestResumeSafety:
    def test_resume_of_completed_campaign_is_idempotent(
        self, oracle, tmp_path
    ):
        run_campaign(small_config(), tmp_path)
        again = resume_campaign(tmp_path)
        assert again.digest == oracle.digest

    def test_resume_refuses_foreign_directory(self, tmp_path):
        from repro.durability.journal import Journal

        Journal.create(tmp_path).append("phase", {"query": 0, "phase": "x"})
        with pytest.raises(CampaignResumeError):
            CampaignRunner.resume(tmp_path)

    def test_resume_detects_changed_seed(self, tmp_path):
        import json

        from repro.durability.journal import JOURNAL_NAME, load_records

        with pytest.raises(CoordinatorCrash):
            run_campaign(
                small_config(), tmp_path, kill=KillSpec("submit", query=0)
            )
        # Tamper with the recorded master seed, keeping checksums valid:
        # the replayed genesis no longer matches the setup record.
        records = load_records(tmp_path)
        config = json.loads(json.dumps(records[0].data))
        config["config"]["master_seed"] = 999
        from repro.durability.journal import JournalRecord

        records[0] = JournalRecord(seq=0, type="campaign-start", data=config)
        (tmp_path / JOURNAL_NAME).write_text(
            "".join(r.line() + "\n" for r in records), "utf-8"
        )
        with pytest.raises(CampaignResumeError):
            resume_campaign(tmp_path)

    def test_resume_refuses_other_journal_version(self, tmp_path):
        from repro.durability.journal import (
            JOURNAL_NAME,
            JournalRecord,
            load_records,
        )

        CampaignRunner.start(small_config(), tmp_path, fsync=False)
        (record,) = load_records(tmp_path)
        # A journal written before the open phase (decrypt/noise/release
        # records) must be refused, not half-replayed; re-checksum the
        # edited record so only the version is wrong.
        edited = JournalRecord(
            seq=0, type=record.type, data={**record.data, "version": 1}
        )
        (tmp_path / JOURNAL_NAME).write_text(edited.line() + "\n", "utf-8")
        with pytest.raises(CampaignResumeError, match="version"):
            CampaignRunner.resume(tmp_path)

    def test_corrupt_checkpoint_falls_back_to_journal(self, oracle, tmp_path):
        with pytest.raises(CoordinatorCrash):
            run_campaign(
                small_config(), tmp_path, kill=KillSpec("open", query=1)
            )
        for checkpoint in tmp_path.glob("checkpoint-*.json"):
            checkpoint.write_text("{garbage", "utf-8")
        resumed = resume_campaign(tmp_path)
        assert resumed.digest == oracle.digest

    def test_checkpoints_disabled_still_resumes(self, oracle, tmp_path):
        config = small_config(checkpoint_every=0)
        with pytest.raises(CoordinatorCrash):
            run_campaign(config, tmp_path, kill=KillSpec("open", query=1))
        assert not list(tmp_path.glob("checkpoint-*.json"))
        resumed = resume_campaign(tmp_path)
        assert resumed.results == oracle.results
