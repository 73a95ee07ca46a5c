"""Applying a :class:`FaultPlan` from inside the mixnet clock.

The injector is consulted by :meth:`MixnetWorld.run_round` (churn, wire
faults on deposit), :meth:`MixDevice.process_wire` (fetch-side loss),
and by every committee step that needs a quorum: the open of
:meth:`MyceliumSystem.run_query` and the campaign's ``open`` and
``handoff`` all wait in :meth:`FaultInjector.await_quorum`, the one
§6.5 liveness wait, and corrupt partials come from
:meth:`FaultInjector.corrupt_partial`.  It is
duck-typed — attached as ``world.fault_injector`` — so the mixnet layer
never imports this package and the dependency points one way.

Determinism: every per-message verdict is a pure function of
``(plan.seed, round, device, message bytes)`` via the protocol hash, and
every liveness ping a pure function of ``(plan, device, round)``, so
re-running the same seeded world replays the exact same fault sequence.
The injector only ever toggles ``online`` for devices named in its own
mixnet churn windows; devices a test manages by hand are untouched.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TYPE_CHECKING

from repro import telemetry
from repro.crypto.hashes import hash_fraction, hash_to_int, protocol_hash
from repro.crypto.polyring import RingElement
from repro.errors import LivenessQuorumError
from repro.faults.plan import ChurnWindow, FaultKind, FaultPlan

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.mixnet.network import MixnetWorld

#: Wire verdicts returned by :meth:`FaultInjector.on_deposit`.
DELIVER = "deliver"
DROP = "drop"
DELAY = "delay"
CORRUPT = "corrupt"

#: How many C-rounds a committee waits for enough members to come back
#: (§6.5) before :meth:`FaultInjector.await_quorum` gives up.
QUORUM_WAIT_LIMIT = 1024


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
        #: Every absence, by device: what a liveness ping consults.
        self._windows: dict[int, list[ChurnWindow]] = {}
        #: The mixnet's churn: every absence but a committee-only one.
        self._churn: dict[int, list[ChurnWindow]] = {}
        for window in plan.churn_windows:
            self._windows.setdefault(window.device_id, []).append(window)
            if window.on_mixnet:
                self._churn.setdefault(window.device_id, []).append(window)
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

    def _record_windows(self, windows: list[ChurnWindow]) -> int:
        """Record each window once, the first time it takes a device
        away; returns how many were new."""
        new = [w for w in windows if w not in self._counted_windows]
        for window in new:
            self._counted_windows.add(window)
            self._record(window.kind)
        return len(new)

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
        for device_id, windows in self._churn.items():
            device = world.devices.get(device_id)
            if device is None:
                continue
            active = [w for w in windows if w.covers(round_number)]
            if active:
                if device.online:
                    device.online = False
                    telemetry.count("faults.churn.offline")
                    self._record_windows(active)
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

        Passing it raises the open quorum
        (:func:`repro.core.committee.open_quorum`) to every live member,
        and at least ``threshold + 1``, so the decoder has the
        redundancy to correct and flag.

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

    # -- liveness: the committee's one wait (§6.5) ---------------------------

    def device_online(self, device_id: int, round_number: int) -> bool:
        """One liveness ping: is the device outside every absence window
        at this round?  Pure function of (plan, round), so a resumed
        campaign re-derives the same answer."""
        return not any(
            w.covers(round_number)
            for w in self._windows.get(device_id, ())
        )

    def live(
        self, device_ids: Sequence[int], round_number: int
    ) -> list[int]:
        """The devices of ``device_ids`` a ping finds live, in order."""
        return [d for d in device_ids if self.device_online(d, round_number)]

    def await_quorum(
        self,
        member_ids: Sequence[int],
        start_round: int,
        ready: Callable[[list[int], int], bool],
    ) -> tuple[int, list[int]]:
        """§6.5: "If there aren't enough members for liveness, we simply
        have to wait for some amount of time before enough members are
        back."  Ping ``member_ids`` at each C-round from ``start_round``
        and return ``(round, live members)`` for the first round at
        which ``ready(live members, round)`` holds.

        Every open and every handoff waits here, so one absence model
        (the plan's windows, of every kind) and one bound serve them
        all.  A pure function of the plan and the arguments: a resumed
        campaign re-derives the same round.  Each committee dropout
        window met is recorded once (the mixnet records the rest as it
        applies them).  Raises
        :class:`~repro.errors.LivenessQuorumError` when no round within
        :data:`QUORUM_WAIT_LIMIT` is ready.
        """
        last = start_round + QUORUM_WAIT_LIMIT
        for round_number in range(start_round, last + 1):
            telemetry.count("durability.monitor.pings", len(member_ids))
            live = self.live(member_ids, round_number)
            dropouts = self._record_windows([
                w
                for d in member_ids
                if d not in live
                for w in self._windows[d]
                if not w.on_mixnet and w.covers(round_number)
            ])
            if dropouts:
                telemetry.count("faults.committee.dropouts", dropouts)
            if ready(live, round_number):
                if round_number > start_round:
                    telemetry.count(
                        "durability.monitor.quorum_wait_rounds",
                        round_number - start_round,
                    )
                return round_number, live
        raise LivenessQuorumError(
            f"no committee quorum within {QUORUM_WAIT_LIMIT} C-rounds of "
            f"round {start_round}"
        )
