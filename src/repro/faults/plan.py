"""Seeded, deterministic fault schedules.

A :class:`FaultPlan` is pure data: which devices go offline in which
C-round windows (a committee member's absence is one too), which
wire-fault rates apply from which round, and which committee members
lie in their partial decryptions.  The
same ``(seed, parameters)`` pair always yields the same plan, and every
per-message verdict drawn from the plan (see
:class:`repro.faults.injector.FaultInjector`) hashes the plan seed with
the round number and message bytes, so chaos runs are replayable
bit-for-bit — no hidden RNG state, no dependence on Python hash
randomization.
"""

from __future__ import annotations

import dataclasses
import enum
import random
from collections.abc import Iterable
from dataclasses import dataclass, field

from repro.errors import ParameterError

#: "Forever" for crash faults — a round no simulation reaches.
NEVER_RECOVERS = 1 << 31


class FaultKind(enum.Enum):
    """The fault families the injector can schedule."""

    CHURN = "churn"
    CRASH = "crash"
    WIRE_DROP = "wire-drop"
    WIRE_DELAY = "wire-delay"
    WIRE_CORRUPT = "wire-corrupt"
    #: A window in which a committee member misses the committee's
    #: liveness ping but stays on the mix network: only the committee's
    #: wait honours it (§6.5).
    COMMITTEE_DROPOUT = "committee-dropout"
    COMMITTEE_CORRUPT = "committee-corrupt"
    #: One member's partial decryption perturbed on the wire — the
    #: per-value fault :meth:`FaultInjector.corrupt_partial` applies
    #: inside the robust-decode path (§5).
    CORRUPT_PARTIAL = "corrupt-partial"


@dataclass(frozen=True)
class ChurnWindow:
    """One device-offline interval: [start_round, end_round)."""

    device_id: int
    start_round: int
    end_round: int
    kind: FaultKind = FaultKind.CHURN

    def covers(self, round_number: int) -> bool:
        return self.start_round <= round_number < self.end_round

    @property
    def on_mixnet(self) -> bool:
        """Whether the device is off the mix network too, not only
        away from the committee."""
        return self.kind is not FaultKind.COMMITTEE_DROPOUT


@dataclass(frozen=True)
class FaultPlan:
    """A complete, replayable fault schedule for one chaos run."""

    seed: int
    churn_windows: tuple[ChurnWindow, ...] = ()
    #: Per-deposit fault probabilities, applied from
    #: ``wire_fault_start`` onward.  Their sum must stay <= 1.
    wire_drop_rate: float = 0.0
    wire_delay_rate: float = 0.0
    wire_corrupt_rate: float = 0.0
    #: Fetch-side silent loss (the aggregator serves the batch but the
    #: device never sees one payload) — recovered purely by retransmission.
    receive_drop_rate: float = 0.0
    wire_fault_start: int = 0
    #: How many C-rounds a delayed deposit is held back.  Round-keyed
    #: AEAD nonces mean a late message no longer decrypts, so a delay is
    #: a loss the sender can only fix by retransmitting (§3.5).
    delay_rounds: int = 2
    #: Committee members that return corrupted partial decryptions,
    #: corrected and flagged by ``threshold_decrypt`` (§5).
    corrupt_committee: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        total = self.wire_drop_rate + self.wire_delay_rate + self.wire_corrupt_rate
        if total > 1.0:
            raise ParameterError(
                f"wire fault rates sum to {total:.3f} > 1"
            )
        for rate in (
            self.wire_drop_rate,
            self.wire_delay_rate,
            self.wire_corrupt_rate,
            self.receive_drop_rate,
        ):
            if not 0.0 <= rate <= 1.0:
                raise ParameterError(f"fault rate {rate} outside [0, 1]")
        if self.delay_rounds < 1:
            raise ParameterError("delay_rounds must be >= 1")

    @property
    def has_wire_faults(self) -> bool:
        return bool(
            self.wire_drop_rate
            or self.wire_delay_rate
            or self.wire_corrupt_rate
            or self.receive_drop_rate
        )

    def managed_devices(self) -> frozenset[int]:
        """Devices whose ``online`` flag the injector owns."""
        return frozenset(
            w.device_id for w in self.churn_windows if w.on_mixnet
        )

    def with_absence(
        self,
        device_ids: Iterable[int],
        start_round: int,
        end_round: int,
        kind: FaultKind = FaultKind.CHURN,
    ) -> FaultPlan:
        """This plan plus one ``[start_round, end_round)`` window of
        ``kind`` per device — how a caller takes chosen devices (or,
        with ``COMMITTEE_DROPOUT``, committee members) away."""
        return dataclasses.replace(
            self,
            churn_windows=self.churn_windows + tuple(
                ChurnWindow(d, start_round, end_round, kind)
                for d in device_ids
            ),
        )

    @classmethod
    def generate(
        cls,
        seed: int,
        num_devices: int,
        *,
        churn_fraction: float = 0.0,
        churn_window_rounds: int = 4,
        horizon_rounds: int = 64,
        start_round: int = 0,
        protected_devices: tuple[int, ...] = (),
        crash_devices: tuple[int, ...] = (),
        crash_round: int | None = None,
        wire_drop_rate: float = 0.0,
        wire_delay_rate: float = 0.0,
        wire_corrupt_rate: float = 0.0,
        receive_drop_rate: float = 0.0,
        wire_fault_start: int = 0,
        delay_rounds: int = 2,
        corrupt_committee: tuple[int, ...] = (),
    ) -> FaultPlan:
        """Sample a plan: iid per-window churn plus the given wire rates.

        ``churn_fraction`` is the probability that an eligible device is
        offline during any given window of ``churn_window_rounds``
        C-rounds — the quantity ``SystemParameters.churn_fraction``
        models analytically in ``analysis/goodput.py``.
        ``protected_devices`` never churn (e.g. the endpoints a test is
        measuring); ``crash_devices`` go down at ``crash_round`` (default
        ``start_round``) and never come back.
        """
        rng = random.Random(seed)
        windows: list[ChurnWindow] = []
        excluded = set(protected_devices) | set(crash_devices)
        eligible = [d for d in range(num_devices) if d not in excluded]
        if churn_fraction > 0:
            for window_start in range(
                start_round, start_round + horizon_rounds, churn_window_rounds
            ):
                for device_id in eligible:
                    if rng.random() < churn_fraction:
                        windows.append(
                            ChurnWindow(
                                device_id=device_id,
                                start_round=window_start,
                                end_round=window_start + churn_window_rounds,
                            )
                        )
        for device_id in crash_devices:
            windows.append(
                ChurnWindow(
                    device_id=device_id,
                    start_round=(
                        start_round if crash_round is None else crash_round
                    ),
                    end_round=NEVER_RECOVERS,
                    kind=FaultKind.CRASH,
                )
            )
        return cls(
            seed=seed,
            churn_windows=tuple(windows),
            wire_drop_rate=wire_drop_rate,
            wire_delay_rate=wire_delay_rate,
            wire_corrupt_rate=wire_corrupt_rate,
            receive_drop_rate=receive_drop_rate,
            wire_fault_start=wire_fault_start,
            delay_rounds=delay_rounds,
            corrupt_committee=tuple(corrupt_committee),
        )
