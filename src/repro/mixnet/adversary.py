"""The adversary's view of the mixnet (§3.2, §6.3).

The aggregator observes every mailbox operation: which device deposited
into which mailbox in which C-round (contents are encrypted).  Colluding
(malicious) forwarders additionally reveal their link tables — the exact
in-path-id to out-path-id mapping — so the adversary can trace a message
*through* a malicious hop but only *to the batch* at an honest hop.

:func:`anonymity_set` reconstructs, for a message deposited into a
target mailbox, the set of devices that could have originated it.  Each
honest hop widens the set to everything that hop downloaded in the
previous round; each malicious hop collapses it back to one sender.
This is the mechanism behind Figure 5(a): with k honest hops the set is
roughly (r/f)^k, and a path of fully malicious hops identifies the
sender exactly (Figure 5(b)).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.mixnet.network import MixnetWorld


@dataclass
class DepositEvent:
    """One observed mailbox deposit."""

    round_number: int
    depositor: int
    mailbox: bytes
    data: bytes


@dataclass
class AdversaryView:
    """Everything the (aggregator + colluders) adversary knows."""

    world: MixnetWorld
    malicious_devices: set[int] = field(default_factory=set)

    def mark_malicious(self, device_ids: set[int]) -> None:
        self.malicious_devices |= device_ids
        for device_id in device_ids:
            self.world.devices[device_id].malicious = True

    # -- raw observables ------------------------------------------------------

    def deposits(self) -> list[DepositEvent]:
        return [
            DepositEvent(round_number=r, depositor=d, mailbox=m, data=data)
            for (r, d, m, data) in self.world.deposit_log
        ]

    def deposits_into(self, mailbox: bytes) -> list[DepositEvent]:
        return [e for e in self.deposits() if e.mailbox == mailbox]

    def deposits_received_by(
        self, device_id: int, round_number: int
    ) -> list[DepositEvent]:
        """Messages the device downloaded when it fetched in
        ``round_number`` (i.e. deposits into its mailboxes in the round
        before)."""
        handles = set(self.world.devices[device_id].handles)
        return [
            e
            for e in self.deposits()
            if e.mailbox in handles and e.round_number == round_number - 1
        ]

    # -- inference --------------------------------------------------------------

    def _malicious_link_source(
        self, forwarder: int, event: DepositEvent
    ) -> DepositEvent | None:
        """A colluding forwarder tells the adversary which *input*
        message produced a given output: look up the out-path-id in its
        link table and find the matching input deposit."""
        device = self.world.devices[forwarder]
        if len(event.data) < 16:
            return None
        out_pid = event.data[:16]
        in_pid = device.out_to_in.get(out_pid)
        if in_pid is None and out_pid in device.in_links:
            # Reverse traffic: the output went backward along the in-link.
            in_pid = device.in_links[out_pid].out_path_id
        if in_pid is None:
            return None
        for candidate in self.deposits_received_by(forwarder, event.round_number):
            if candidate.data[:16] == in_pid:
                return candidate
        return None

    def candidate_sources(
        self, event: DepositEvent, max_depth: int = 12
    ) -> set[int]:
        """Devices that could have originated ``event``'s message."""
        sources: set[int] = set()
        frontier = [(event, 0)]
        seen: set[tuple[int, int, bytes]] = set()
        while frontier:
            current, depth = frontier.pop()
            key = (current.round_number, current.depositor, current.data[:16])
            if key in seen or depth > max_depth:
                continue
            seen.add(key)
            forwarder = current.depositor
            inputs = self.deposits_received_by(forwarder, current.round_number)
            if not inputs:
                # The depositor received nothing: it must be the source.
                sources.add(forwarder)
                continue
            if forwarder in self.malicious_devices:
                exact = self._malicious_link_source(forwarder, current)
                if exact is None:
                    # The colluder reports this output as self-originated.
                    sources.add(forwarder)
                else:
                    frontier.append((exact, depth + 1))
                continue
            # Honest hop: any downloaded message (or the hop itself) could
            # be the predecessor.
            sources.add(forwarder)
            for candidate in inputs:
                frontier.append((candidate, depth + 1))
        return sources

    def anonymity_set_for_delivery(
        self, dest_handle: bytes, round_number: int
    ) -> set[int]:
        """Union of candidate sources over every message deposited into
        ``dest_handle`` at ``round_number`` — the sender anonymity set
        the aggregator is left with."""
        sources: set[int] = set()
        for event in self.deposits_into(dest_handle):
            if event.round_number == round_number:
                sources |= self.candidate_sources(event)
        return sources

    def identified_exactly(self, dest_handle: bytes, round_number: int) -> bool:
        """Whether the adversary pinned the sender to a single device
        (the Figure 5(b) event)."""
        return len(self.anonymity_set_for_delivery(dest_handle, round_number)) == 1
