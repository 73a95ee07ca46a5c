"""Applying a :class:`FaultPlan` from inside the mixnet clock.

The injector is consulted by :meth:`MixnetWorld.run_round` (churn, wire
faults on deposit), :meth:`MixDevice.process_wire` (fetch-side loss),
and :meth:`MyceliumSystem.run_query` (committee availability and
corruption, handed to the committee's one open step,
:meth:`MyceliumSystem.open_phase`).  It is
duck-typed — attached as ``world.fault_injector`` — so the mixnet layer
never imports this package and the dependency points one way.

Determinism: every per-message verdict is a pure function of
``(plan.seed, round, device, message bytes)`` via the protocol hash, so
re-running the same seeded world replays the exact same fault sequence.
The injector only ever toggles ``online`` for devices named in its own
churn windows; devices a test manages by hand are untouched.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro import telemetry
from repro.crypto.hashes import hash_fraction, hash_to_int, protocol_hash
from repro.crypto.polyring import RingElement
from repro.faults.plan import ChurnWindow, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mixnet.network import MixnetWorld

#: Wire verdicts returned by :meth:`FaultInjector.on_deposit`.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"
CORRUPT = "corrupt"


def _corrupted(data: bytes) -> bytes:
    """Flip the last byte: same shape, different digest."""
    if not data:
        return data
    return data[:-1] + bytes([data[-1] ^ 0xFF])


class FaultInjector:
    """Applies one plan to one world; tracks what it injected."""

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._seed_bytes = plan.seed.to_bytes(8, "big", signed=False)
        self.counts: dict[str, int] = {}
        self._windows: dict[int, list[ChurnWindow]] = {}
        for window in plan.churn_windows:
            self._windows.setdefault(window.device_id, []).append(window)
        #: (due_round, device_id, mailbox, data) held back by DELAY.
        self._delayed: list[tuple[int, int, bytes, bytes]] = []
        #: Released (device, digest) pairs exempt from a second verdict —
        #: a message is faulted at most once, else a delay never resolves.
        self._released: set[tuple[int, bytes]] = set()
        #: Windows already counted as a fault event (one per window).
        self._counted_windows: set[ChurnWindow] = set()

    # -- bookkeeping --------------------------------------------------------

    def _record(self, kind: FaultKind, count: int = 1) -> None:
        self.counts[kind.value] = self.counts.get(kind.value, 0) + count
        telemetry.count("faults.injected.total", count)

    def fault_counts(self) -> dict[str, int]:
        return dict(self.counts)

    # -- attachment ---------------------------------------------------------

    def attach(self, world: MixnetWorld) -> FaultInjector:
        world.fault_injector = self
        return self

    # -- churn + delayed release (start of every C-round) -------------------

    def begin_round(self, world: MixnetWorld, round_number: int) -> None:
        due = [d for d in self._delayed if d[0] <= round_number]
        if due:
            self._delayed = [d for d in self._delayed if d[0] > round_number]
            for _, device_id, mailbox, data in due:
                self._released.add((device_id, protocol_hash(data)))
                world.devices[device_id].pending_deposits.append(
                    (mailbox, data)
                )
        for device_id, windows in self._windows.items():
            device = world.devices.get(device_id)
            if device is None:
                continue
            active = [w for w in windows if w.covers(round_number)]
            if active:
                if device.online:
                    device.online = False
                    telemetry.count("faults.churn.offline")
                    for window in active:
                        if window not in self._counted_windows:
                            self._counted_windows.add(window)
                            self._record(window.kind)
            elif not device.online:
                device.online = True

    # -- wire faults --------------------------------------------------------

    def _uniform(
        self, domain: bytes, round_number: int, device_id: int, data: bytes
    ) -> float:
        return hash_fraction(
            self._seed_bytes,
            domain,
            round_number.to_bytes(8, "big", signed=False),
            device_id.to_bytes(8, "big", signed=False),
            protocol_hash(data),
        )

    def on_deposit(
        self, round_number: int, device_id: int, mailbox: bytes, data: bytes
    ) -> tuple[str, bytes]:
        """Verdict for one mailbox deposit: (action, wire bytes)."""
        plan = self.plan
        if round_number < plan.wire_fault_start or not plan.has_wire_faults:
            return DELIVER, data
        key = (device_id, protocol_hash(data))
        if key in self._released:
            self._released.discard(key)
            return DELIVER, data
        u = self._uniform(b"wire-deposit", round_number, device_id, data)
        if u < plan.wire_drop_rate:
            self._record(FaultKind.WIRE_DROP)
            telemetry.count("faults.wire.dropped")
            return DROP, data
        u -= plan.wire_drop_rate
        if u < plan.wire_delay_rate:
            self._record(FaultKind.WIRE_DELAY)
            telemetry.count("faults.wire.delayed")
            self._delayed.append(
                (round_number + plan.delay_rounds, device_id, mailbox, data)
            )
            return DELAY, data
        u -= plan.wire_delay_rate
        if u < plan.wire_corrupt_rate:
            self._record(FaultKind.WIRE_CORRUPT)
            telemetry.count("faults.wire.corrupted")
            return CORRUPT, _corrupted(data)
        return DELIVER, data

    def drop_on_receive(
        self, round_number: int, device_id: int, handle: bytes, data: bytes
    ) -> bool:
        """Fetch-side silent loss: the batch verified, but this device
        never processes one payload (e.g. a flaky local link)."""
        plan = self.plan
        if (
            round_number < plan.wire_fault_start
            or not plan.receive_drop_rate
        ):
            return False
        u = self._uniform(b"wire-receive", round_number, device_id, data)
        if u < plan.receive_drop_rate:
            self._record(FaultKind.WIRE_DROP)
            telemetry.count("faults.wire.dropped")
            return True
        return False

    # -- committee faults ---------------------------------------------------

    def committee_schedule(self, member_ids: list[int]) -> list[list[int]]:
        """Availability schedule for ``open_phase(schedule=...)``
        (the ``decrypt_with_liveness_retry`` loop): dropouts sit out the
        first attempts, then everyone returns."""
        away = [m for m in member_ids if m in self.plan.committee_dropouts]
        if not away:
            return [list(member_ids)]
        self._record(FaultKind.COMMITTEE_DROPOUT, len(away))
        telemetry.count("faults.committee.dropouts", len(away))
        present = [m for m in member_ids if m not in away]
        attempts = max(1, self.plan.committee_offline_attempts)
        return [list(present) for _ in range(attempts)] + [list(member_ids)]

    def corrupt_members(self, member_ids: list[int]) -> set[int]:
        """Members that will submit bad partials; records the fault.
        The lie itself is :meth:`corrupt_partial`."""
        corrupt = {
            m for m in member_ids if m in self.plan.corrupt_committee
        }
        if corrupt:
            self._record(FaultKind.COMMITTEE_CORRUPT, len(corrupt))
            telemetry.count("faults.committee.dropouts", len(corrupt))
        return corrupt

    def corrupt_partial(
        self, device_id: int, value: RingElement
    ) -> RingElement:
        """Per-value corruption hook: ``open_phase(corrupt=...)``.

        Passing it raises the quorum of the one liveness loop to every
        present member, and at least ``threshold + 1``, so the decoder
        has the redundancy to correct and flag.

        Members named in ``plan.corrupt_committee`` have every partial
        decryption perturbed by a seed-derived nonzero constant, so the
        robust decoder must correct *and* flag them; everyone else's
        value passes through untouched.  Deterministic in
        ``(plan.seed, device_id)`` — a resumed campaign injects the
        exact same lie and reproduces the same flagged set.
        """
        if device_id not in self.plan.corrupt_committee:
            return value
        q = value.params.q
        offset = (
            hash_to_int(
                self._seed_bytes,
                b"corrupt-partial",
                device_id.to_bytes(8, "big", signed=False),
            )
            % (q - 1)
        ) + 1
        self._record(FaultKind.CORRUPT_PARTIAL)
        telemetry.count("faults.committee.corrupted")
        return value + RingElement.constant(value.params, offset)

    # -- liveness pings (campaign health monitor) ---------------------------

    def device_online(self, device_id: int, round_number: int) -> bool:
        """One liveness ping: is the device inside any of its churn
        windows at this round?  Pure function of (plan, round), so a
        resumed campaign re-derives the same answer."""
        return not any(
            w.covers(round_number)
            for w in self._windows.get(device_id, ())
        )
