"""The byzantine_survival / quarantine_soundness trial kinds and the
unquarantined-attacker mutant (PR 10)."""

from __future__ import annotations

from repro.audit.bench import get_bench
from repro.audit.generator import generate_case
from repro.audit.mutants import MUTANTS
from repro.audit.runner import run_audit, run_single_case
from repro.audit.trials import KINDS, SCHEDULE


def _scheduled(index: int) -> str:
    return SCHEDULE[index % len(SCHEDULE)]


def test_kinds_registered_and_scheduled():
    assert "byzantine_survival" in KINDS
    assert "quarantine_soundness" in KINDS
    assert _scheduled(8) == "byzantine_survival"
    assert _scheduled(20) == "quarantine_soundness"
    assert _scheduled(32) == "byzantine_survival"
    assert _scheduled(44) == "quarantine_soundness"


class TestGeneratedCases:
    def test_byzantine_cases_use_only_detectable_origin_rejectors(self):
        for seed in range(4):
            case = generate_case(seed, 8)
            assert case.kind == "byzantine_survival"
            # Honest bit-identity vs the attackers-offline baseline only
            # holds for forged-proof (leaf-breaking AND origin-rejecting).
            assert set(case.behaviors.values()) <= {"forged-proof"}
            assert case.behaviors  # at least one attacker
            assert 2 <= case.num_queries <= 3

    def test_quarantine_cases_draw_from_rejecting_pool(self):
        for seed in range(4):
            case = generate_case(seed, 20)
            assert case.kind == "quarantine_soundness"
            assert set(case.behaviors.values()) <= {
                "forged-proof",
                "bad-aggregation",
            }
            assert case.behaviors

    def test_attackers_stay_online_and_one_honest_origin_remains(self):
        # Quarantine completeness needs attackers online for every query
        # (threshold 2 over >= 2 queries) and the query needs a live
        # honest origin.
        for seed in range(6):
            for index in (8, 20):
                case = generate_case(seed, index)
                n = len(case.graph.vertices)
                assert not set(case.behaviors) & set(case.offline)
                live_honest = [
                    v
                    for v in range(n)
                    if v not in case.behaviors and v not in case.offline
                ]
                assert live_honest

    def test_kind_override_matches_schedule(self):
        assert generate_case(3, 8) == generate_case(
            3, 8, kind="byzantine_survival"
        )


class TestTrials:
    def test_byzantine_survival_trial_passes(self):
        case = generate_case(0, 8)
        outcome = run_single_case(case, get_bench())
        assert outcome.passed, outcome.failed_checks
        names = {check.name for check in outcome.checks}
        assert "byzantine.attackers-quarantined" in names
        assert "byzantine.quarantine-subset-of-attackers" in names
        assert any(
            name.startswith("byzantine.honest-bit-identical")
            for name in names
        )

    def test_quarantine_soundness_trial_passes(self):
        case = generate_case(0, 20)
        outcome = run_single_case(case, get_bench())
        assert outcome.passed, outcome.failed_checks
        names = {check.name for check in outcome.checks}
        assert "quarantine.honest-never-suspected" in names
        assert "quarantine.soundness" in names
        assert "quarantine.attackers-quarantined" in names
        assert any(
            name.startswith("quarantine.quarantined-never-resubmit")
            for name in names
        )


class TestFilteredRuns:
    def test_kinds_filter_round_robins(self):
        report = run_audit(
            0, 4, kinds=("byzantine_survival", "quarantine_soundness")
        )
        assert report.passed, report.summary()
        kinds = [outcome.case.kind for outcome in report.outcomes]
        assert kinds == [
            "byzantine_survival",
            "quarantine_soundness",
            "byzantine_survival",
            "quarantine_soundness",
        ]

    def test_unknown_kind_rejected(self):
        import pytest

        with pytest.raises(ValueError, match="unknown trial kinds"):
            run_audit(0, 1, kinds=("not-a-kind",))


def test_unquarantined_attacker_mutant_is_caught():
    mutant = next(
        m for m in MUTANTS if m.name == "unquarantined-attacker"
    )
    bench = get_bench()
    for case in mutant.cases:
        assert run_single_case(case, bench).passed  # clean baseline
    with mutant.patch():
        failed = [
            check.name
            for case in mutant.cases
            for check in run_single_case(case, bench).failed_checks
        ]
    assert "quarantine.attackers-quarantined" in failed
