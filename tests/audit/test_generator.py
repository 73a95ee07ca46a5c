"""The case generator: deterministic, serializable, covering."""

from __future__ import annotations

from repro.audit.cases import TrialCase
from repro.audit.generator import generate_case
from repro.audit.trials import KINDS


class TestDeterminism:
    def test_same_seed_same_case(self):
        for index in range(12):
            assert generate_case(7, index) == generate_case(7, index)

    def test_different_seeds_differ(self):
        # At least one of the first dozen cases must change with the
        # master seed (the schedule of kinds is fixed, the content not).
        assert any(
            generate_case(1, i) != generate_case(2, i) for i in range(12)
        )

    def test_index_independence(self):
        # Case i does not depend on whether cases 0..i-1 were generated.
        fresh = generate_case(5, 9)
        for i in range(9):
            generate_case(5, i)
        assert generate_case(5, 9) == fresh


class TestCoverage:
    def test_all_kinds_within_one_cycle(self):
        # The schedule cycles every 24 indices (the byzantine and
        # quarantine slots fire at 8 and 20 mod 24).
        kinds = {generate_case(0, i).kind for i in range(24)}
        assert kinds == set(KINDS)

    def test_shard_cases_use_plural_layouts(self):
        # Every generated shard_equivalence case must actually shard:
        # K=1 would collapse to the flat path and test nothing.
        seen = 0
        for i in range(48):
            case = generate_case(2, i)
            if case.kind != "shard_equivalence":
                assert case.shards == 1
                continue
            seen += 1
            assert case.shards >= 2
        assert seen == 4  # one slot per 12-index cycle

    def test_graphs_are_valid(self):
        for i in range(24):
            case = generate_case(3, i)
            if case.graph is None:
                continue
            graph = case.graph.build()
            assert graph.num_vertices == len(case.graph.vertices)
            for device in case.offline:
                assert 0 <= device < graph.num_vertices
            for device in case.behaviors:
                assert 0 <= device < graph.num_vertices
                assert device not in case.offline


class TestSerialization:
    def test_case_round_trip(self):
        for i in range(12):
            case = generate_case(11, i)
            assert TrialCase.from_dict(case.to_dict()) == case

    def test_dict_is_json_safe(self):
        import json

        for i in range(12):
            payload = json.dumps(generate_case(11, i).to_dict())
            restored = TrialCase.from_dict(json.loads(payload))
            assert restored == generate_case(11, i)
