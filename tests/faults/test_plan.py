"""FaultPlan: deterministic generation, validation, absence windows."""

from types import SimpleNamespace

import pytest

from repro.errors import ParameterError
from repro.faults import ChurnWindow, FaultInjector, FaultKind, FaultPlan
from repro.faults.plan import NEVER_RECOVERS


class TestGenerate:
    def test_same_seed_same_plan(self):
        kwargs = dict(
            churn_fraction=0.3,
            churn_window_rounds=4,
            horizon_rounds=40,
            wire_drop_rate=0.1,
        )
        a = FaultPlan.generate(seed=17, num_devices=20, **kwargs)
        b = FaultPlan.generate(seed=17, num_devices=20, **kwargs)
        assert a == b

    def test_different_seed_different_windows(self):
        a = FaultPlan.generate(seed=1, num_devices=30, churn_fraction=0.5)
        b = FaultPlan.generate(seed=2, num_devices=30, churn_fraction=0.5)
        assert a.churn_windows != b.churn_windows

    def test_protected_devices_never_churn(self):
        plan = FaultPlan.generate(
            seed=5,
            num_devices=10,
            churn_fraction=0.9,
            horizon_rounds=40,
            protected_devices=(0, 1),
        )
        assert plan.churn_windows  # 0.9 over 10 windows x 8 devices
        assert not {0, 1} & plan.managed_devices()

    def test_crash_windows_never_recover(self):
        plan = FaultPlan.generate(
            seed=5, num_devices=10, crash_devices=(3,), crash_round=12
        )
        (window,) = plan.churn_windows
        assert window.kind is FaultKind.CRASH
        assert window.start_round == 12
        assert window.end_round == NEVER_RECOVERS
        assert window.covers(10**6)
        assert not window.covers(11)

    def test_churn_respects_start_round(self):
        plan = FaultPlan.generate(
            seed=9,
            num_devices=10,
            churn_fraction=0.5,
            start_round=20,
            horizon_rounds=20,
        )
        assert plan.churn_windows
        for window in plan.churn_windows:
            assert window.start_round >= 20


class TestValidation:
    def test_wire_rates_must_sum_below_one(self):
        with pytest.raises(ParameterError):
            FaultPlan(seed=1, wire_drop_rate=0.6, wire_delay_rate=0.5)

    def test_rates_must_be_probabilities(self):
        with pytest.raises(ParameterError):
            FaultPlan(seed=1, receive_drop_rate=-0.1)

    def test_delay_rounds_positive(self):
        with pytest.raises(ParameterError):
            FaultPlan(seed=1, delay_rounds=0)

    def test_empty_plan_has_no_wire_faults(self):
        plan = FaultPlan(seed=1)
        assert not plan.has_wire_faults
        assert plan.managed_devices() == frozenset()


class TestCommitteeSchedules:
    def test_committee_dropout_is_away_only_from_the_committee(self):
        """A ``COMMITTEE_DROPOUT`` window keeps a member from the quorum
        but not from the mix network."""
        plan = FaultPlan(seed=0).with_absence(
            [4], 0, 8, FaultKind.COMMITTEE_DROPOUT
        )
        injector = FaultInjector(plan)
        assert plan.managed_devices() == frozenset()
        world = SimpleNamespace(
            devices={4: SimpleNamespace(online=True, pending_deposits=[])}
        )
        injector.begin_round(world, 2)
        assert world.devices[4].online
        assert injector.live([1, 4], 2) == [1]
        round_number, live = injector.await_quorum(
            [1, 4], 0, lambda live, _: len(live) == 2
        )
        assert (round_number, live) == (8, [1, 4])
        assert injector.fault_counts() == {
            FaultKind.COMMITTEE_DROPOUT.value: 1
        }

    def test_with_absence_appends_one_window_per_device(self):
        plan = FaultPlan(seed=0).with_absence([2, 5], 3, 9)
        assert plan.churn_windows == (
            ChurnWindow(2, 3, 9),
            ChurnWindow(5, 3, 9),
        )
        assert plan.managed_devices() == frozenset({2, 5})

    def test_corrupt_members(self):
        plan = FaultPlan(seed=3, corrupt_committee=(4,))
        injector = FaultInjector(plan)
        assert injector.corrupt_members([3, 4, 5]) == {4}


class TestChurnWindow:
    def test_covers_half_open(self):
        window = ChurnWindow(device_id=0, start_round=2, end_round=5)
        assert not window.covers(1)
        assert window.covers(2)
        assert window.covers(4)
        assert not window.covers(5)
