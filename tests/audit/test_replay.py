"""Replay bundles: serialization round trips and deterministic re-runs."""

from __future__ import annotations

import json

import pytest

from repro.audit.cases import TrialCase
from repro.audit.generator import generate_case
from repro.audit.replay import ReplayBundle, load_bundle, write_bundle
from repro.audit.runner import run_single_case


class TestBundleRoundTrip:
    def test_round_trip_via_file(self, tmp_path):
        bundle = ReplayBundle(
            master_seed=42,
            trial_index=7,
            case=generate_case(42, 7),
            shrunk=generate_case(42, 3),
            failed_checks=("budget.remaining-monotone",),
        )
        path = write_bundle(tmp_path / "bundle.json", bundle)
        assert load_bundle(path) == bundle

    def test_reproducer_prefers_shrunk(self):
        case = generate_case(1, 0)
        shrunk = generate_case(1, 4)
        with_shrunk = ReplayBundle(1, 0, case, shrunk=shrunk)
        without = ReplayBundle(1, 0, case)
        assert with_shrunk.reproducer == shrunk
        assert without.reproducer == case

    def test_missing_fields_load_defaults(self):
        case = TrialCase.from_dict({"kind": "budget", "seed": 5})
        assert case == TrialCase(kind="budget", seed=5)

    def test_write_creates_directories(self, tmp_path):
        bundle = ReplayBundle(0, 0, generate_case(0, 1))
        path = write_bundle(tmp_path / "deep" / "dir" / "b.json", bundle)
        assert load_bundle(path) == bundle


class TestReplayDeterminism:
    def test_same_case_same_checks(self):
        # A budget trial (cheap) run twice yields identical check
        # names, verdicts, and details — the property --replay relies on.
        case = generate_case(0, 1)
        assert case.kind == "budget"
        first = run_single_case(case)
        second = run_single_case(case)
        assert [
            (c.name, c.passed, c.detail) for c in first.checks
        ] == [(c.name, c.passed, c.detail) for c in second.checks]
        assert first.passed and second.passed

    def test_identical_verdicts_across_backends_and_workers(self):
        # The checker verdicts for one trial are a function of the case
        # alone — not of the compute backend or worker count it ran on.
        from dataclasses import replace

        from repro.runtime.backends import available_backends

        base = TrialCase(
            kind="equivalence",
            seed=33,
            query="SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            graph=generate_case(0, 0).graph,
        )
        outcomes = []
        for backend in available_backends():
            for workers in (1, 2):
                case = replace(base, backend=backend, workers=workers)
                outcome = run_single_case(case)
                outcomes.append(
                    [(c.name, c.passed) for c in outcome.checks]
                )
                assert outcome.passed, outcome.checks
        assert all(o == outcomes[0] for o in outcomes)

    def test_round_tripped_case_runs_identically(self):
        case = generate_case(0, 1)
        restored = TrialCase.from_dict(case.to_dict())
        direct = run_single_case(case)
        replayed = run_single_case(restored)
        assert [(c.name, c.passed) for c in direct.checks] == [
            (c.name, c.passed) for c in replayed.checks
        ]


class TestUnknownKind:
    def test_bundle_naming_unknown_kind_is_refused(self, tmp_path):
        data = ReplayBundle(0, 1, generate_case(0, 1)).to_dict()
        data["case"]["kind"] = "nope"
        path = tmp_path / "bundle.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="unknown trial kind 'nope'"):
            load_bundle(path)

    def test_unknown_kind_override_is_refused(self):
        # run_audit(kinds=...) is covered in test_byzantine_kinds.py.
        with pytest.raises(ValueError, match="unknown trial kind 'nope'"):
            generate_case(0, 0, kind="nope")
