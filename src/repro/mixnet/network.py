"""The mixnet world: devices, aggregator-side services, and the C-round
clock.

This module holds the *state machine* each device runs (link tables,
onion peeling, reverse routing, dummy injection) and the shared world
object that the protocol drivers in :mod:`repro.mixnet.telescope` and
:mod:`repro.mixnet.forwarding` advance round by round.

Faithfulness notes:

* Devices act only on information they legitimately hold: mailbox
  batches for their own pseudonyms, verified directory lookups, bulletin
  entries, and link state established by the telescoping protocol.
* Every fetch verifies the mailbox batch against the committed C-round
  root, and every deposit is receipt-checked after the round closes, so
  an aggregator that drops messages is detected and challenged (§3.4).
* Devices can be marked offline (churn) or malicious (colluding with the
  aggregator); malicious devices follow the protocol but report their
  link tables to the adversary (honest-but-curious collusion, §3.2).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import telemetry
from repro.crypto import rsa
from repro.crypto.hashes import derive_key
from repro.errors import CryptoError, ProtocolError
from repro.mixnet import maps, onion
from repro.mixnet.bulletin import BulletinBoard, derive_beacon
from repro.mixnet.mailbox import MailboxServer, verify_batch, verify_receipt
from repro.mixnet.pseudonym import DeviceIdentity, mint_device
from repro.params import SystemParameters

# Wire tags (first byte of a peeled onion layer / mailbox body).
TAG_FORWARD = b"F"
TAG_CONNECT = b"C"
TAG_REVERSE = b"V"
TAG_PAYLOAD = b"P"

COMPLAINT_TAG = "complaint/path-setup"


def link_keys(base_key: bytes) -> tuple[bytes, bytes, bytes]:
    """Derive the per-direction keys of one source-hop link.

    Separate forward / request / reverse keys keep (key, nonce) pairs
    unique even though every layer uses the C-round number as its nonce.
    """
    return (
        derive_key(base_key, b"fwd"),
        derive_key(base_key, b"req"),
        derive_key(base_key, b"rev"),
    )


@dataclass
class InLink:
    """Hop-side state for one incoming path segment."""

    path_id: bytes
    base_key: bytes
    prev_mailbox: bytes
    my_handle: bytes
    out_path_id: bytes | None = None
    next_mailbox: bytes | None = None
    pending_next: bytes | None = None  # next hop's handle, learned via EXT lookup
    pending_dst: bytes | None = None  # destination handle awaiting key fetch
    position: int = 0  # 1-based hop position on the path
    expects_forward_traffic: bool = False
    last_traffic_round: int = -1


@dataclass
class SourcePathState:
    """Source-side state for one of its r*d paths."""

    key: tuple[int, int]  # (message slot, replica)
    dest_handle: bytes
    hop_indices: list[int]
    source_handle: bytes
    first_path_id: bytes = b""
    hop_handles: list[bytes] = field(default_factory=list)
    hop_pks: list[rsa.RsaPublicKey] = field(default_factory=list)
    hop_keys: list[bytes] = field(default_factory=list)  # base keys
    connect_round: int = -1  # round the latest CONNECT was deposited
    next_level: int = 1  # which hop we are extending to next (1-based)
    got_ack: bool = False
    dest_pk: rsa.RsaPublicKey | None = None
    established: bool = False
    failed: bool = False


@dataclass
class ReceivedPayload:
    """A payload delivered to a destination pseudonym."""

    round_number: int
    dest_handle: bytes
    plaintext: bytes


class MixDevice:
    """One participant's mixnet state machine."""

    def __init__(self, identity: DeviceIdentity, rng: random.Random):
        self.identity = identity
        self.rng = rng
        self.online = True
        self.malicious = False
        self.in_links: dict[bytes, InLink] = {}
        self.out_to_in: dict[bytes, bytes] = {}
        self.paths: dict[tuple[int, int], SourcePathState] = {}
        self.received: list[ReceivedPayload] = []
        self.pending_deposits: list[tuple[bytes, bytes]] = []  # (mailbox, data)
        self._scheduled: list[tuple[int, str, bytes]] = []  # (round, action, pid)
        self.protocol_violations: list[str] = []

    @property
    def device_id(self) -> int:
        return self.identity.device_id

    @property
    def handles(self) -> list[bytes]:
        return [p.handle for p in self.identity.pseudonyms]

    # -- deposit helpers ----------------------------------------------------

    def queue_deposit(self, mailbox: bytes, path_id: bytes, body: bytes) -> None:
        self.pending_deposits.append(
            (mailbox, onion.WireMessage(path_id, body).encode())
        )

    def drain_deposits(self) -> list[tuple[bytes, bytes]]:
        out = self.pending_deposits
        self.pending_deposits = []
        return out

    def schedule(self, due_round: int, action: str, path_id: bytes) -> None:
        self._scheduled.append((due_round, action, path_id))

    def due_actions(self, round_number: int) -> list[tuple[str, bytes]]:
        due = [(a, p) for (r, a, p) in self._scheduled if r == round_number]
        self._scheduled = [
            (r, a, p) for (r, a, p) in self._scheduled if r != round_number
        ]
        return due

    # -- message processing --------------------------------------------------

    def process_wire(
        self, world: MixnetWorld, round_number: int, dest_handle: bytes, data: bytes
    ) -> None:
        """Handle one mailbox message fetched in ``round_number`` (it was
        deposited in ``round_number - 1``)."""
        injector = world.fault_injector
        if injector is not None and injector.drop_on_receive(
            round_number, self.device_id, dest_handle, data
        ):
            return
        try:
            message = onion.WireMessage.decode(data)
        except ProtocolError:
            return
        # Routing is by (path id, mailbox): the same device may serve
        # two consecutive hop positions under different pseudonyms, in
        # which case one path id legitimately appears in both its link
        # tables — the mailbox the message arrived in disambiguates.
        link = self.in_links.get(message.path_id)
        if link is not None and link.my_handle == dest_handle:
            self._process_forward(world, round_number, message)
            return
        in_pid = self.out_to_in.get(message.path_id)
        if (
            in_pid is not None
            and self.in_links[in_pid].my_handle == dest_handle
        ):
            self._process_reverse(world, round_number, message)
            return
        self._process_new(world, round_number, dest_handle, message)

    def _process_forward(
        self, world: MixnetWorld, round_number: int, message: onion.WireMessage
    ) -> None:
        link = self.in_links[message.path_id]
        k_fwd, _, _ = link_keys(link.base_key)
        inner = onion.peel(k_fwd, round_number, message.body)
        if not inner:
            return
        tag, rest = inner[:1], inner[1:]
        link.last_traffic_round = round_number
        if tag == TAG_FORWARD:
            if link.out_path_id is None or link.next_mailbox is None:
                # Garbled or dummy traffic: keep the pattern unchanged by
                # emitting a dummy of the same shape (§3.5).
                return
            self.queue_deposit(link.next_mailbox, link.out_path_id, rest)
        elif tag == TAG_CONNECT:
            if link.pending_next is None:
                self.protocol_violations.append("connect without pending lookup")
                return
            link.next_mailbox = link.pending_next
            link.pending_next = None
            link.out_path_id = onion.new_path_id(self.rng)
            self.out_to_in[link.out_path_id] = link.path_id
            # The blob is deposited as-is: the next hop parses it as a
            # fresh CONNECT.
            self.queue_deposit(link.next_mailbox, link.out_path_id, rest)
        elif link.expects_forward_traffic and link.out_path_id is not None:
            # A dummy injected upstream peels to garbage with a random
            # tag; the hop cannot tell (§3.5) and forwards it like any
            # other message, keeping the traffic pattern intact.
            self.queue_deposit(link.next_mailbox, link.out_path_id, rest)

    def _process_reverse(
        self, world: MixnetWorld, round_number: int, message: onion.WireMessage
    ) -> None:
        in_pid = self.out_to_in[message.path_id]
        link = self.in_links[in_pid]
        if not message.body.startswith(TAG_REVERSE):
            # Addressed to one of our links by path id and mailbox, yet
            # not reverse traffic: dropping it silently would swallow a
            # payload, so say so where the source will look (§3.4).
            telemetry.count("mixnet.route.misdirected")
            world.complain(self.device_id, b"misdirected")
            return
        _, _, k_rev = link_keys(link.base_key)
        wrapped = TAG_REVERSE + onion.peel(
            k_rev, round_number, message.body[1:]
        )
        self.queue_deposit(link.prev_mailbox, link.path_id, wrapped)

    def _process_new(
        self,
        world: MixnetWorld,
        round_number: int,
        dest_handle: bytes,
        message: onion.WireMessage,
    ) -> None:
        """A message with an unknown path id: either a CONNECT blob
        creating a new in-link, a reverse message for one of our source
        paths, or an end-to-end payload for us as destination."""
        # Reverse traffic arriving at the source?
        for path in self.paths.values():
            if path.first_path_id == message.path_id:
                if message.body.startswith(TAG_REVERSE):
                    world.telescope_handler.source_reverse(
                        world, self, path, round_number, message.body[1:]
                    )
                return
        if message.body.startswith(TAG_PAYLOAD):
            self._receive_payload(world, round_number, dest_handle, message.body[1:])
            return
        self._receive_connect(world, round_number, dest_handle, message)

    def _receive_connect(
        self,
        world: MixnetWorld,
        round_number: int,
        dest_handle: bytes,
        message: onion.WireMessage,
    ) -> None:
        world.telescope_handler.hop_connect(
            world, self, round_number, dest_handle, message
        )

    def emit_dummies(self, world: MixnetWorld, round_number: int) -> None:
        """§3.5: in the round where a hop should forward a path's
        message, a missing input is masked with a random dummy so the
        communication pattern is unchanged."""
        start = world.forwarding_phase_start
        if start is None:
            return
        for link in self.in_links.values():
            if not link.expects_forward_traffic or link.out_path_id is None:
                continue
            if start + link.position != round_number:
                continue
            if link.last_traffic_round == round_number:
                continue
            length = world.forwarding_body_bytes + (
                world.params.hops - link.position
            )
            telemetry.count("mixnet.round.dummies")
            body = onion.dummy_body(length, self.rng)
            self.queue_deposit(link.next_mailbox, link.out_path_id, body)

    def _receive_payload(
        self, world: MixnetWorld, round_number: int, dest_handle: bytes, body: bytes
    ) -> None:
        """Final-destination handling: PEnc-unwrap the session key, then
        AE-open the payload; garbage (dummies) fails and is dropped."""
        from repro.crypto import aead  # local import to avoid cycle noise

        try:
            identity = self.identity.identity_for_handle(dest_handle)
        except ProtocolError:
            return
        if len(body) < 2:
            return
        penc_len = int.from_bytes(body[:2], "big")
        if len(body) < 2 + penc_len:
            return
        try:
            session_key = rsa.decrypt(identity.private_key, body[2 : 2 + penc_len])
            if len(session_key) != 32:
                return
            plaintext = aead.ae_open(
                session_key, round_number, body[2 + penc_len :]
            )
        except CryptoError:
            return  # dummy or corrupted replica
        self.received.append(
            ReceivedPayload(
                round_number=round_number,
                dest_handle=dest_handle,
                plaintext=plaintext,
            )
        )


class MixnetWorld:
    """Shared state: devices, aggregator services, clock, adversary log."""

    def __init__(
        self,
        params: SystemParameters,
        num_devices: int,
        rng: random.Random,
        rsa_bits: int = 512,
        pseudonyms_per_device: int | None = None,
        collective_beacon: bool = False,
    ):
        self.params = params
        self.rng = rng
        self.board = BulletinBoard()
        self.mailboxes = MailboxServer(self.board)
        per_device = pseudonyms_per_device or params.pseudonyms_per_device
        self.devices: dict[int, MixDevice] = {}
        for device_id in range(num_devices):
            identity = mint_device(device_id, per_device, rng, rsa_bits)
            self.devices[device_id] = MixDevice(
                identity, random.Random(rng.getrandbits(64))
            )
        registrations = {
            d.device_id: [p.pseudonym for p in d.identity.pseudonyms]
            for d in self.devices.values()
        }
        self.directory = maps.build_directory(registrations, rng)
        self.board.post("aggregator", "m1-root", self.directory.m1_root)
        self.board.post("aggregator", "m2-root", self.directory.m2_root)
        if collective_beacon:
            # The Honeycrisp-style commit-reveal exchange (§3.4): the
            # aggregator cannot bias B because the directory roots were
            # committed before any seed is revealed.
            from repro.mixnet.beacon import run_beacon_protocol

            self.beacon = run_beacon_protocol(
                self.board, "epoch-0", sorted(self.devices), rng
            )
        else:
            self.beacon = derive_beacon(self.board, "epoch-0")
        self.handle_owner: dict[bytes, int] = {}
        for device in self.devices.values():
            for handle in device.handles:
                self.handle_owner[handle] = device.device_id
        # Filled in by the telescoping driver; device callbacks route
        # protocol-specific events through it.
        self.telescope_handler = None
        # Adversary wiretap: (round, depositor_device, mailbox, data digest)
        self.deposit_log: list[tuple[int, int, bytes, bytes]] = []
        self.aggregator_drop_predicate = None
        # Optional chaos hook (duck-typed FaultInjector; see repro.faults):
        # consulted at the top of run_round (churn, delayed releases), per
        # deposit (drop/delay/corrupt), and per fetched payload.
        self.fault_injector = None
        # Forwarding-phase bookkeeping (set by the forwarding driver).
        self.forwarding_phase_start: int | None = None
        self.forwarding_body_bytes: int = 0

    # -- directory plumbing --------------------------------------------------

    @property
    def m1_root(self) -> bytes:
        return self.board.require_unique("m1-root").payload

    @property
    def m2_root(self) -> bytes:
        return self.board.require_unique("m2-root").payload

    def verified_lookup(self, index: int) -> maps.M1Lookup:
        """A device-side lookup by pseudonym number, proof-checked."""
        lookup = self.directory.lookup(index)
        if not maps.verify_m1_lookup(self.m1_root, lookup):
            raise ProtocolError("aggregator served an invalid M1 lookup")
        return lookup

    def verified_lookup_by_handle(self, handle: bytes) -> maps.M1Lookup:
        index = self.directory.index_of_handle(handle)
        return self.verified_lookup(index)

    def run_audits(self, sample_devices: int = 5, samples_each: int = 8) -> bool:
        """Run the §3.3 audits from a sample of devices' perspectives."""
        device_ids = self.rng.sample(
            sorted(self.devices), min(sample_devices, len(self.devices))
        )
        for device_id in device_ids:
            device = self.devices[device_id]
            own = [p.pseudonym for p in device.identity.pseudonyms]
            served = [
                self.directory.lookup(self.directory.index_of_handle(p.handle))
                for p in own
            ]
            if not maps.audit_own_pseudonyms(self.m1_root, own, served):
                return False
            if not maps.cross_audit(
                self.m1_root,
                self.m2_root,
                self.directory,
                device.rng,
                samples_each,
            ):
                return False
        return True

    # -- clock ---------------------------------------------------------------

    @property
    def current_round(self) -> int:
        return self.mailboxes.current_round

    def run_round(self) -> int:
        """Advance one C-round.

        Order of events: every online device processes the batches from
        the *previous* round and its due scheduled actions, queueing
        deposits; the aggregator (possibly Byzantine) commits the round;
        every depositor receipt-checks, challenging drops on the bulletin
        board.
        """
        round_number = self.current_round
        fetch_round = round_number - 1
        injector = self.fault_injector
        if injector is not None:
            injector.begin_round(self, round_number)
        deposits_by_device: dict[int, list] = {}
        injected_drops: list = []
        num_fetched = 0
        num_deposits = 0
        bytes_out = 0
        telemetry.count("mixnet.rounds.total")
        for device in self.devices.values():
            if not device.online:
                continue
            if fetch_round >= 0:
                for handle in device.handles:
                    batch = self.mailboxes.fetch(fetch_round, handle)
                    if not verify_batch(self.board, batch):
                        self.complain(device.device_id, b"mailbox-batch-invalid")
                        continue
                    num_fetched += len(batch.payloads)
                    for payload in batch.payloads:
                        device.process_wire(self, round_number, handle, payload)
            for action, path_id in device.due_actions(round_number):
                if self.telescope_handler is not None:
                    self.telescope_handler.scheduled(
                        self, device, round_number, action, path_id
                    )
            device.emit_dummies(self, round_number)
            for mailbox, data in device.drain_deposits():
                action, wire_data = "deliver", data
                if injector is not None:
                    action, wire_data = injector.on_deposit(
                        round_number, device.device_id, mailbox, data
                    )
                if action == "delay":
                    # The injector holds the message and re-queues it
                    # later; round-keyed AEAD nonces mean the late copy
                    # no longer decrypts (§3.5), so the depositor's
                    # receipt check below never sees it this round.
                    continue
                deposit = self.mailboxes.deposit(
                    mailbox, wire_data, device.device_id
                )
                if action == "drop":
                    injected_drops.append(deposit)
                # Receipt-check against the bytes the device *meant* to
                # send — a corrupted wire copy then fails verification.
                deposits_by_device.setdefault(device.device_id, []).append(
                    (deposit, data)
                )
                num_deposits += 1
                bytes_out += len(wire_data)
                self.deposit_log.append(
                    (round_number, device.device_id, mailbox, wire_data)
                )
        if num_fetched:
            telemetry.count("mixnet.round.fetches", num_fetched)
        if num_deposits:
            telemetry.count("mixnet.round.deposits", num_deposits)
            telemetry.count("mixnet.round.bytes_out", bytes_out)
        if injected_drops:
            dropped_ids = {id(d) for d in injected_drops}
            self.mailboxes.drop_pending(lambda dep: id(dep) in dropped_ids)
        if self.aggregator_drop_predicate is not None:
            self.mailboxes.drop_pending(self.aggregator_drop_predicate)
        closed = self.mailboxes.end_round()
        for device_id, deposits in deposits_by_device.items():
            for deposit, original in deposits:
                reason = b"deposit-dropped"
                try:
                    receipt = self.mailboxes.receipt(closed, deposit)
                    ok = verify_receipt(self.board, original, receipt)
                    if not ok:
                        # Round committed, but not over our bytes: the
                        # wire copy was tampered with, not dropped.
                        reason = b"deposit-tampered"
                except ProtocolError:
                    ok = False
                if not ok:
                    self.complain(device_id, reason)
        return closed

    def complain(self, device_id: int, reason: bytes) -> None:
        """Post a public complaint to the bulletin board (§3.4)."""
        telemetry.count("mixnet.complaints.total")
        self.board.post(f"device-{device_id}", COMPLAINT_TAG, reason)

    def complaints(self) -> list[bytes]:
        return [e.payload for e in self.board.find(COMPLAINT_TAG)]
