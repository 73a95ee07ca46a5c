"""End-to-end MyceliumSystem tests."""

import random
import statistics

import pytest

from repro.engine.malicious import Behavior
from repro.errors import NoiseBudgetExceeded, PrivacyBudgetExceeded
from repro.query.ast import OutputKind
from repro.query.catalog import CATALOG
from tests.conftest import build_epidemic_graph, build_system


@pytest.fixture(scope="module")
def world():
    system = build_system(seed=50)
    graph = build_epidemic_graph(seed=51)
    return system, graph


class TestEndToEnd:
    def test_histo_matches_plaintext_noiseless(self, world):
        system, graph = world
        query = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"
        reference = system.plaintext_answer(query, graph)
        result = system.run_query(query, graph, epsilon=1.0, noiseless=True)
        assert result.kind is OutputKind.HISTO
        expected = tuple(float(c) for c in reference.histograms[0].counts)
        assert result.groups[0].counts == expected

    def test_gsum_matches_plaintext_noiseless(self, world):
        system, graph = world
        result = system.run_query(
            CATALOG["Q8"], graph, epsilon=1.0, noiseless=True
        )
        reference = system.plaintext_answer(CATALOG["Q8"], graph)
        assert result.kind is OutputKind.GSUM
        assert list(result.values) == pytest.approx(reference.gsums)

    def test_noise_statistics(self):
        """Across repeated runs, the released value is centered on the
        truth with spread matching the Laplace scale."""
        graph = build_epidemic_graph(seed=52, people=10, degree=2)
        errors = []
        scale = None
        for seed in range(20):
            system = build_system(seed=500 + seed, people=10, degree=2)
            result = system.run_query(
                "SELECT GSUM(SUM(dest.inf)) FROM neigh(1) CLIP [0, 2]",
                graph,
                epsilon=2.0,
            )
            truth = system.plaintext_answer(
                "SELECT GSUM(SUM(dest.inf)) FROM neigh(1) CLIP [0, 2]", graph
            ).gsums[0]
            errors.append(result.values[0] - truth)
            scale = result.metadata.noise_scale
        assert scale > 0
        assert abs(statistics.fmean(errors)) < 4 * scale  # centered-ish
        assert max(abs(e) for e in errors) > 0  # noise actually applied

    def test_metadata_populated(self, world):
        system, graph = world
        result = system.run_query(
            CATALOG["Q5"], graph, epsilon=1.0, noiseless=True
        )
        md = result.metadata
        assert md.epsilon == 1.0
        assert md.sensitivity > 0
        assert md.contributing_origins == graph.num_vertices
        assert md.rejected_origins == 0
        assert md.verification_seconds > 0

    def test_query_log_grows(self, world):
        system, graph = world
        before = len(system.query_log)
        system.run_query(CATALOG["Q4"], graph, epsilon=0.5, noiseless=True)
        assert len(system.query_log) == before + 1


class TestBudgetEnforcement:
    def test_budget_exhaustion(self):
        system = build_system(seed=60, total_epsilon=1.5)
        graph = build_epidemic_graph(seed=61, people=8, degree=2)
        system.run_query(CATALOG["Q5"], graph, epsilon=1.0, noiseless=True)
        with pytest.raises(PrivacyBudgetExceeded):
            system.run_query(CATALOG["Q5"], graph, epsilon=1.0, noiseless=True)

    def test_infeasible_query_not_charged(self):
        """Q1 needs more multiplications than the TEST budget at d=4;
        the rejection must happen before budget is spent."""
        system = build_system(seed=62)
        graph = build_epidemic_graph(seed=63, people=8, degree=2)
        # d=3, k=2 -> 9 mults: feasible.  Crank degree up via params to
        # force infeasibility at the TEST profile (18 mults max).
        from repro.params import SystemParameters

        system.params = SystemParameters(
            num_devices=8, degree_bound=5, hops=2
        )
        before = system.budget.remaining
        with pytest.raises(NoiseBudgetExceeded):
            system.run_query(CATALOG["Q1"], graph, epsilon=1.0)
        assert system.budget.remaining == before


class TestRotationIntegration:
    def test_query_after_rotation(self):
        system = build_system(seed=64)
        graph = build_epidemic_graph(seed=65, people=8, degree=2)
        first = system.run_query(
            CATALOG["Q5"], graph, epsilon=1.0, noiseless=True, rotate=True
        )
        assert system.committee.epoch == 1
        second = system.run_query(
            CATALOG["Q5"], graph, epsilon=1.0, noiseless=True
        )
        assert second.metadata.committee_epoch == 1
        assert first.groups[0].counts == second.groups[0].counts


class TestByzantineIntegration:
    def test_full_pipeline_with_attackers(self):
        system = build_system(seed=66)
        graph = build_epidemic_graph(seed=67)
        result = system.run_query(
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            graph,
            epsilon=1.0,
            noiseless=True,
            behaviors={
                0: Behavior.MULTI_COEFFICIENT,
                1: Behavior.BAD_AGGREGATION,
            },
        )
        assert result.metadata.rejected_origins == 1  # the bad aggregator
        # Total mass bounded by number of accepted origins.
        assert result.total_mass() <= graph.num_vertices - 1

    def test_offline_devices(self):
        system = build_system(seed=68)
        graph = build_epidemic_graph(seed=69)
        result = system.run_query(
            CATALOG["Q5"],
            graph,
            epsilon=1.0,
            noiseless=True,
            offline={2, 5},
        )
        assert result.metadata.contributing_origins == graph.num_vertices - 2


class TestGenesisBackend:
    def test_genesis_is_the_same_under_either_backend(self, monkeypatch):
        """Genesis runs on the configured backend; the key material it
        produces does not depend on which one that is."""
        pytest.importorskip("numpy")
        from repro.crypto import bgv
        from repro.runtime import RuntimeConfig, active_backend, use_runtime

        ran_on = []
        keygen = bgv.keygen

        def watched_keygen(profile, rng):
            ran_on.append(active_backend().name)
            return keygen(profile, rng)

        monkeypatch.setattr(bgv, "keygen", watched_keygen)

        def genesis(backend):
            with use_runtime(RuntimeConfig(backend=backend)):
                return build_system(seed=70, people=8, degree=2)

        before = active_backend().name
        pure, vectorized = genesis("pure"), genesis("numpy")
        assert ran_on == ["pure", "numpy"]
        assert active_backend().name == before  # scoped to setup
        assert vectorized._genesis_secret == pure._genesis_secret
        assert vectorized.public_key == pure.public_key
        assert vectorized.relin_keys == pure.relin_keys
        assert vectorized.committee.members == pure.committee.members
        assert vectorized.committee.commitments == pure.committee.commitments
