"""Laplace mechanism and privacy-budget tests."""

import math
import random
import statistics

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dp import budget, laplace
from repro.errors import ParameterError, PrivacyBudgetExceeded


class TestLaplace:
    def test_zero_scale_is_exact(self, rng):
        assert laplace.sample_laplace(0.0, rng) == 0.0

    def test_negative_scale_rejected(self, rng):
        with pytest.raises(ParameterError):
            laplace.sample_laplace(-1.0, rng)

    def test_distribution_moments(self):
        rng = random.Random(5)
        scale = 3.0
        samples = [laplace.sample_laplace(scale, rng) for _ in range(20000)]
        # Laplace(0, b): mean 0, variance 2 b^2.
        assert abs(statistics.fmean(samples)) < 0.2
        assert abs(statistics.variance(samples) - 2 * scale * scale) < 2.0

    def test_symmetry(self):
        rng = random.Random(6)
        samples = [laplace.sample_laplace(1.0, rng) for _ in range(10000)]
        positive = sum(1 for s in samples if s > 0)
        assert 0.45 < positive / len(samples) < 0.55

    def test_zero_uniform_draw_is_redrawn(self):
        """``random()`` may return exactly 0.0, where the inverse CDF is
        ``log(0)``: the sampler redraws that value and uses the next."""

        class ZeroFirst(random.Random):
            def __init__(self, values):
                super().__init__(0)
                self.values = list(values)

            def random(self):
                return self.values.pop(0)

        sample = laplace.sample_laplace(2.0, ZeroFirst([0.0, 0.75]))
        assert sample == laplace.sample_laplace(2.0, ZeroFirst([0.75]))
        assert sample == pytest.approx(-2.0 * -math.log(0.5))

    def test_add_noise_length(self, rng):
        noised = laplace.add_noise([1.0, 2.0, 3.0], 0.5, rng)
        assert len(noised) == 3

    def test_noisy_value_epsilon_guard(self, rng):
        with pytest.raises(ParameterError):
            laplace.noisy_value(1.0, 1.0, 0.0, rng)

    def test_dp_bound_empirical(self):
        """Crude DP check: the ratio of densities of outputs under two
        adjacent inputs stays within e^eps for a grid of outputs."""
        eps = 0.5
        sensitivity = 1.0
        b = sensitivity / eps
        for x in [-3.0, -1.0, 0.0, 1.0, 3.0]:
            density0 = math.exp(-abs(x - 0.0) / b)
            density1 = math.exp(-abs(x - 1.0) / b)
            assert density0 / density1 <= math.exp(eps) + 1e-9


class TestBudget:
    def test_charge_and_remaining(self):
        accountant = budget.PrivacyBudget(total_epsilon=3.0)
        accountant.charge(1.0, "Q5")
        accountant.charge(1.5, "Q8")
        assert accountant.remaining == pytest.approx(0.5)
        assert [label for label, _ in accountant.history] == ["Q5", "Q8"]

    def test_exhaustion_raises(self):
        accountant = budget.PrivacyBudget(total_epsilon=1.0)
        accountant.charge(0.9)
        with pytest.raises(PrivacyBudgetExceeded):
            accountant.charge(0.2)

    def test_exact_exhaustion_allowed(self):
        accountant = budget.PrivacyBudget(total_epsilon=1.0)
        accountant.charge(1.0)
        assert accountant.remaining == 0.0

    def test_bad_parameters(self):
        with pytest.raises(ParameterError):
            budget.PrivacyBudget(total_epsilon=0)
        accountant = budget.PrivacyBudget(total_epsilon=1.0)
        with pytest.raises(ParameterError):
            accountant.charge(-0.5)

    @given(st.floats(min_value=0.01, max_value=0.2), st.integers(2, 200))
    @settings(max_examples=25, deadline=None)
    def test_advanced_composition_beats_sequential(self, eps, k):
        """For small per-query epsilon and enough queries, advanced
        composition's total is below k*eps."""
        total = budget.advanced_composition_epsilon(eps, k, delta=1e-6)
        if k >= 150 and eps <= 0.05:
            assert total < k * eps

    def test_queries_supported(self):
        sequential = budget.queries_supported(10.0, 0.05)
        advanced = budget.queries_supported(10.0, 0.05, delta=1e-6)
        assert sequential == 200
        assert advanced > sequential

    def test_advanced_composition_guards(self):
        with pytest.raises(ParameterError):
            budget.advanced_composition_epsilon(0.1, 5, delta=2.0)
        with pytest.raises(ParameterError):
            budget.advanced_composition_epsilon(-0.1, 5, delta=0.1)


class TestAdvancedCompositionBudget:
    def test_stretches_past_sequential(self):
        accountant = budget.AdvancedCompositionBudget(
            total_epsilon=2.0, per_query_epsilon=0.05, delta=1e-6
        )
        sequential_limit = int(2.0 / 0.05)  # 40
        for _ in range(sequential_limit + 10):
            accountant.charge()
        assert accountant.queries_run > sequential_limit
        assert accountant.spent <= 2.0 + 1e-9

    def test_exhaustion_raises(self):
        accountant = budget.AdvancedCompositionBudget(
            total_epsilon=0.3, per_query_epsilon=0.2, delta=1e-6
        )
        accountant.charge()
        with pytest.raises(PrivacyBudgetExceeded):
            accountant.charge()

    def test_remaining_queries_consistent(self):
        accountant = budget.AdvancedCompositionBudget(
            total_epsilon=1.0, per_query_epsilon=0.05, delta=1e-6
        )
        remaining = accountant.remaining_queries
        for _ in range(remaining):
            accountant.charge()
        assert not accountant.can_afford_next()

    def test_guards(self):
        with pytest.raises(ParameterError):
            budget.AdvancedCompositionBudget(0, 0.1, 1e-6)
        with pytest.raises(ParameterError):
            budget.AdvancedCompositionBudget(1.0, 0.1, 2.0)
