"""Crash/resume correctness: kill at every phase boundary, resume, and
require the released results, budget ledger, and epoch commitments to be
bit-identical to an uninterrupted run — at any worker count, on any
backend."""

from __future__ import annotations

import re

import pytest

from repro import telemetry
from repro.durability.campaign import (
    PHASES,
    RESULTS_NAME,
    CampaignConfig,
    CampaignRunner,
    KillSpec,
    resume_campaign,
    run_campaign,
)
from repro.durability.journal import JOURNAL_NAME, JournalRecord, load_records
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
        with pytest.raises(ProtocolError, match="unknown kill point"):
            KillSpec(phase="no-such-phase")

    @pytest.mark.parametrize(
        "text, message",
        [("no-such-phase", "unknown kill point"),
         ("noise:1", "unknown kill point"),
         ("open:-1", "negative"),
         ("open:x", "not an integer"),
         ("open:", "not an integer")],
    )
    def test_bad_kill_point_text_rejected(self, text, message):
        # A kill point no boundary reaches would silently never fire.
        with pytest.raises(ProtocolError, match=message):
            KillSpec.parse(text)

    def test_killspec_parse(self):
        spec = KillSpec.parse("open:2", before=True)
        assert (spec.phase, spec.query, spec.before) == ("open", 2, True)
        assert KillSpec.parse("compile").query is None
        assert KillSpec.parse("open:0").query == 0


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
        with pytest.raises(CoordinatorCrash):
            run_campaign(
                small_config(), tmp_path, kill=KillSpec("submit", query=0)
            )
        # Tamper with the recorded master seed, keeping checksums valid:
        # the replayed genesis no longer matches the setup record.
        start = load_records(tmp_path)[0].data
        _rewrite_start(
            tmp_path,
            {**start, "config": {**start["config"], "master_seed": 999}},
        )
        with pytest.raises(CampaignResumeError):
            resume_campaign(tmp_path)

    def test_resume_refuses_other_journal_version(self, tmp_path):
        # A journal written before the open phase (decrypt/noise/release
        # records) must be refused, not half-replayed.
        self._refuse_journal_version(tmp_path, 1, {})

    def test_resume_refuses_v3_journal(self, tmp_path):
        # v3 open records named every live member as participating, not
        # the quorum that decrypted.
        self._refuse_journal_version(tmp_path, 3, {})

    def test_resume_refuses_journal_with_checkpoint_config(self, tmp_path):
        # v2 configs carried the checkpoint cadence and planned kills: the
        # refusal names the version, not a TypeError from the config keys.
        self._refuse_journal_version(
            tmp_path, 2, {"checkpoint_every": 1, "coordinator_kills": []}
        )

    @staticmethod
    def _refuse_journal_version(tmp_path, version, legacy_keys):
        CampaignRunner.start(small_config(), tmp_path, fsync=False)
        (record,) = load_records(tmp_path)
        data = {
            "version": version,
            "config": {**record.data["config"], **legacy_keys},
        }
        _rewrite_start(tmp_path, data)
        with pytest.raises(
            CampaignResumeError, match=f"journal version {version} "
        ):
            CampaignRunner.resume(tmp_path)

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda cfg: cfg.update(colour="blue"), "unknown keys"),
            (lambda cfg: cfg.pop("queries"), "missing keys"),
            (lambda cfg: cfg.update(people="eight"), "people='eight'"),
            (lambda cfg: cfg.update(queries=[["Q5"]]), "queries="),
            (lambda cfg: cfg.update(total_epsilon=True), "total_epsilon="),
        ],
        ids=["unknown", "missing", "people", "queries", "epsilon"],
    )
    def test_resume_refuses_malformed_config(self, edit, message, tmp_path):
        # A hand-edited campaign-start record with valid checksums: the
        # config is refused on resume, never half-applied mid-run.
        CampaignRunner.start(small_config(), tmp_path, fsync=False)
        (record,) = load_records(tmp_path)
        config = dict(record.data["config"])
        edit(config)
        _rewrite_start(tmp_path, {**record.data, "config": config})
        with pytest.raises(CampaignResumeError, match=re.escape(message)):
            CampaignRunner.resume(tmp_path)

    @pytest.mark.parametrize(
        "kill", [None, KillSpec("open", query=1)], ids=["whole", "resumed"]
    )
    def test_journal_is_the_only_state_on_disk(self, kill, tmp_path):
        if kill is None:
            run_campaign(small_config(), tmp_path, fsync=False)
        else:
            kill_and_resume(small_config(), tmp_path, kill)
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
            [JOURNAL_NAME, RESULTS_NAME]
        )


class TestOpenRecord:
    """The ``open`` record journals the quorum that decrypted."""

    @staticmethod
    def _open_and_partials(config, directory):
        with telemetry.session() as session:
            run_campaign(config, directory)
            partials = session.snapshot()["counters"][
                "committee.decrypt.partials"
            ]
        opens = [
            r.data
            for r in load_records(directory)
            if r.type == "phase" and r.data["phase"] == "open"
        ]
        return opens, partials

    def test_participating_is_the_decrypting_quorum(self, tmp_path):
        opens, partials = self._open_and_partials(small_config(), tmp_path)
        assert [len(o["participating"]) for o in opens] == [2, 2]
        assert sum(len(o["participating"]) for o in opens) == partials

    def test_corruption_hook_opens_with_every_live_member(self, tmp_path):
        # 4:2 corrects one liar; at 3:2 a liar is only detectable.
        opens, partials = self._open_and_partials(
            small_config(committee_size=4, committee_corrupt_members=1),
            tmp_path,
        )
        assert [len(o["participating"]) for o in opens] == [4, 4]
        assert all(len(o["flagged"]) == 1 for o in opens)
        assert sum(len(o["participating"]) for o in opens) == partials


def _rewrite_start(directory, data: dict) -> None:
    """Replace the campaign-start record, re-checksummed, so only its
    content is wrong."""
    records = load_records(directory)
    records[0] = JournalRecord(seq=0, type="campaign-start", data=data)
    (directory / JOURNAL_NAME).write_text(
        "".join(r.line() + "\n" for r in records), "utf-8"
    )
