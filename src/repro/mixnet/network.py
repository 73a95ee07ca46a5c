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
from repro.crypto import aead, chacha20, rsa
from repro.crypto.hashes import derive_key
from repro.crypto.poly1305 import TAG_BYTES
from repro.errors import CryptoError, ProtocolError
from repro.mixnet import maps, onion
from repro.mixnet.bulletin import BulletinBoard, derive_beacon
from repro.mixnet.mailbox import MailboxServer, verify_batch, verify_receipt
from repro.mixnet.pseudonym import DeviceIdentity, PseudonymIdentity, mint_device
from repro.params import SystemParameters

# Wire tags (first byte of a peeled onion layer / mailbox body).
TAG_FORWARD = b"F"
TAG_CONNECT = b"C"
TAG_REVERSE = b"V"
TAG_PAYLOAD = b"P"

COMPLAINT_TAG = "complaint/path-setup"

# Where MixDevice.process_wire sends a fetched message (MixDevice._route).
ROUTE_FORWARD = "forward"  # a hop's in-link: peel and pass on
ROUTE_REVERSE = "reverse"  # a hop's out-link: wrap and pass back
ROUTE_SOURCE = "source"  # reverse traffic reaching one of our source paths
ROUTE_PAYLOAD = "payload"  # an end-to-end payload for us as destination
ROUTE_CONNECT = "connect"  # anything else: a CONNECT creating an in-link


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
    keys: tuple[bytes, bytes, bytes] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self.keys = link_keys(self.base_key)


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
    # link_keys of each hop's base key
    hop_keys: list[tuple[bytes, bytes, bytes]] = field(default_factory=list)
    connect_round: int = -1  # round the latest CONNECT was deposited
    next_level: int = 1  # which hop we are extending to next (1-based)
    got_ack: bool = False
    dest_pk: rsa.RsaPublicKey | None = None
    established: bool = False
    failed: bool = False


@dataclass
class PendingSeal:
    """A deposit whose body is ``layers(head || AE(key, round, plaintext))``,
    queued with :meth:`MixnetWorld.deposit_sealed` and filled in by the
    next :meth:`MixnetWorld.seal_wave`.

    ``layers`` run from the innermost out as ``(key, round, tag)``: each
    SEnc-encrypts the body so far under ``(key, round)`` and puts
    ``tag`` in front of the result.
    """

    path_id: bytes
    head: bytes
    key: bytes
    round_number: int
    plaintext: bytes
    layers: tuple[tuple[bytes, int, bytes], ...] = ()
    wire: bytes | None = None

    def streams(self) -> list[tuple[bytes, bytes, int, int]]:
        """The keystreams :meth:`seal` runs on."""
        streams = [aead.ae_stream(self.key, self.round_number, len(self.plaintext))]
        length = len(self.head) + len(self.plaintext) + TAG_BYTES
        for key, round_number, tag in self.layers:
            streams.append(aead.senc_stream(key, round_number, length))
            length += len(tag)
        return streams

    def seal(self) -> None:
        body = self.head + aead.ae_seal(self.key, self.round_number, self.plaintext)
        for key, round_number, tag in self.layers:
            body = tag + aead.senc(key, round_number, body)
        self.wire = onion.WireMessage(self.path_id, body).encode()


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
        # (mailbox, wire bytes or a seal the next seal wave fills in)
        self.pending_deposits: list[tuple[bytes, bytes | PendingSeal]] = []
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
        return [
            (mailbox, data if isinstance(data, bytes) else data.wire)
            for mailbox, data in out
        ]

    def schedule(self, due_round: int, action: str, path_id: bytes) -> None:
        self._scheduled.append((due_round, action, path_id))

    def due_actions(self, round_number: int) -> list[tuple[str, bytes]]:
        due = [(a, p) for (r, a, p) in self._scheduled if r == round_number]
        self._scheduled = [
            (r, a, p) for (r, a, p) in self._scheduled if r != round_number
        ]
        return due

    # -- message processing --------------------------------------------------

    def _route(
        self, dest_handle: bytes, message: onion.WireMessage
    ) -> tuple[str, InLink | SourcePathState | None]:
        """Where a message fetched from ``dest_handle`` goes, by this
        device's link state now: a ``ROUTE_*`` name and the in-link or
        source path it concerns."""
        # Routing is by (path id, mailbox): the same device may serve
        # two consecutive hop positions under different pseudonyms, in
        # which case one path id legitimately appears in both its link
        # tables — the mailbox the message arrived in disambiguates.
        link = self.in_links.get(message.path_id)
        if link is not None and link.my_handle == dest_handle:
            return ROUTE_FORWARD, link
        in_pid = self.out_to_in.get(message.path_id)
        if in_pid is not None and self.in_links[in_pid].my_handle == dest_handle:
            return ROUTE_REVERSE, self.in_links[in_pid]
        for path in self.paths.values():
            if path.first_path_id == message.path_id:
                return ROUTE_SOURCE, path
        if message.body.startswith(TAG_PAYLOAD):
            return ROUTE_PAYLOAD, None
        return ROUTE_CONNECT, None

    def keystreams_for(
        self, world: MixnetWorld, round_number: int, dest_handle: bytes, data: bytes
    ) -> list[tuple[bytes, bytes, int, int]]:
        """The keystreams :meth:`process_wire` will run on when it
        handles ``data`` in ``round_number``, read from the link state as
        it is now.  Decrypting a PEnc header (kept by
        :meth:`MixnetWorld.penc_open`) is the only work; input that
        routing drops asks for nothing."""
        try:
            message = onion.WireMessage.decode(data)
            route, state = self._route(dest_handle, message)
            body = message.body
            if route == ROUTE_FORWARD:
                k_fwd, _, _ = state.keys
                return [aead.senc_stream(k_fwd, round_number, len(body))]
            if route in (ROUTE_REVERSE, ROUTE_SOURCE) and not body.startswith(
                TAG_REVERSE
            ):
                return []
            if route == ROUTE_REVERSE:
                _, _, k_rev = state.keys
                return [aead.senc_stream(k_rev, round_number, len(body) - 1)]
            if route == ROUTE_SOURCE:
                return world.telescope_handler.reverse_streams(
                    state, round_number, body[1:]
                )
            if route == ROUTE_PAYLOAD:
                key, sealed = self.open_envelope(world, dest_handle, body[1:])
            else:
                base_key, sealed = self.open_envelope(world, dest_handle, body)
                _, key, _ = link_keys(base_key)
        except (CryptoError, ProtocolError):
            return []
        if len(sealed) < TAG_BYTES:
            return []
        return [aead.ae_stream(key, round_number, len(sealed) - TAG_BYTES)]

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
            telemetry.count("mixnet.route.undecodable")
            return
        route, state = self._route(dest_handle, message)
        if route == ROUTE_FORWARD:
            self._process_forward(round_number, state, message)
        elif route == ROUTE_REVERSE:
            self._process_reverse(world, round_number, state, message)
        elif route == ROUTE_SOURCE:
            if message.body.startswith(TAG_REVERSE):
                world.telescope_handler.source_reverse(
                    world, self, state, round_number, message.body[1:]
                )
            else:
                telemetry.count("mixnet.reverse.dropped")
        elif route == ROUTE_PAYLOAD:
            self._receive_payload(world, round_number, dest_handle, message.body[1:])
        else:
            world.telescope_handler.hop_connect(
                world, self, round_number, dest_handle, message
            )

    def _process_forward(
        self, round_number: int, link: InLink, message: onion.WireMessage
    ) -> None:
        k_fwd, _, _ = link.keys
        inner = onion.peel(k_fwd, round_number, message.body)
        if not inner:
            telemetry.count("mixnet.route.unforwardable")
            return
        tag, rest = inner[:1], inner[1:]
        link.last_traffic_round = round_number
        if tag == TAG_FORWARD:
            if link.out_path_id is None or link.next_mailbox is None:
                # Garbled or dummy traffic: keep the pattern unchanged by
                # emitting a dummy of the same shape (§3.5).
                telemetry.count("mixnet.route.unforwardable")
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
        else:
            telemetry.count("mixnet.route.unforwardable")

    def _process_reverse(
        self,
        world: MixnetWorld,
        round_number: int,
        link: InLink,
        message: onion.WireMessage,
    ) -> None:
        if not message.body.startswith(TAG_REVERSE):
            # Addressed to one of our links by path id and mailbox, yet
            # not reverse traffic: dropping it silently would swallow a
            # payload, so say so where the source will look (§3.4).
            telemetry.count("mixnet.route.misdirected")
            world.complain(self.device_id, b"misdirected")
            return
        _, _, k_rev = link.keys
        wrapped = TAG_REVERSE + onion.peel(
            k_rev, round_number, message.body[1:]
        )
        self.queue_deposit(link.prev_mailbox, link.path_id, wrapped)

    def open_envelope(
        self, world: MixnetWorld, dest_handle: bytes, body: bytes
    ) -> tuple[bytes, bytes]:
        """Split ``len(PEnc) || PEnc || sealed`` addressed to
        ``dest_handle`` and decrypt its PEnc header: ``(key, sealed)``.

        A body too short for its two-byte header or for the PEnc that
        header announces is a ``ProtocolError``; a header that does not
        decrypt to a 32-byte key under this handle's private key is a
        ``CryptoError``.
        """
        # A shorter body reads a header of 0 or 1 byte and fails too.
        penc_len = int.from_bytes(body[:2], "big")
        if len(body) < 2 + penc_len:
            raise ProtocolError("PEnc header runs past the body")
        try:
            identity = self.identity.identity_for_handle(dest_handle)
        except ProtocolError as exc:
            raise CryptoError("no private key for this mailbox") from exc
        key = world.penc_open(identity, body[2 : 2 + penc_len])
        if key is None or len(key) != 32:
            raise CryptoError("PEnc header holds no 32-byte key")
        return key, body[2 + penc_len :]

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
        try:
            session_key, sealed = self.open_envelope(world, dest_handle, body)
            plaintext = aead.ae_open(session_key, round_number, sealed)
        except ProtocolError:
            telemetry.count("mixnet.payload.malformed")
            return
        except CryptoError:
            telemetry.count("mixnet.payload.undecryptable")
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
        # Deposits waiting for the next seal wave, and this round's
        # decrypted PEnc headers (see run_round).
        self._pending_seals: list[PendingSeal] = []
        self._penc_keys: dict[tuple[bytes, bytes], bytes | None] = {}

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

        The devices' cipher work takes two keystream requests however
        much the round holds (:func:`repro.crypto.chacha20.prefetch`):

        * **Open.**  Every online device fetches and verifies its
          batches, and :meth:`MixDevice.keystreams_for` names the
          keystream each payload's peel or AE open will run on, from the
          link state before the round (decrypting PEnc headers on the
          way, which :meth:`penc_open` keeps).  All of them are computed
          on one request.  Nothing else happens: no injector verdict, no
          RNG draw, no board post, no link change.
        * **Route.**  The device loop — each device's batches, due
          actions and dummies, device by device — makes its
          single-message cipher calls, each served from those
          keystreams.  The AE seals it emits (hop responses, CONNECTs)
          wait as :class:`PendingSeal` and are sealed on one more
          request (:meth:`seal_wave`) before any deposit reaches the
          injector or a mailbox; then each device's deposits go out, in
          device order.

        Routing of message *i* can read link state that message *i − 1*
        of the same round wrote: a CONNECT creates the in-link a later
        message could arrive on, and a reverse response advances the path
        that a later one is unwrapped against.  The open phase planned
        from the state before the round, so such a message asks for a
        keystream that was not computed; its cipher call then makes its
        own request, through the same code, and every byte is what it
        would be with no open phase at all.  Fault-free rounds never get
        there: traffic on a link starts rounds after the CONNECT that
        made it, and a path's source gets one response a round.
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
        online = [device for device in self.devices.values() if device.online]
        # Open phase.
        self._penc_keys = {}
        inboxes: dict[int, list] = {}
        streams: list[tuple[bytes, bytes, int, int]] = []
        for device in online:
            inbox = inboxes[device.device_id] = []
            for handle in device.handles if fetch_round >= 0 else ():
                batch = self.mailboxes.fetch(fetch_round, handle)
                valid = verify_batch(self.board, batch)
                inbox.append((handle, batch, valid))
                for payload in batch.payloads if valid else ():
                    streams += device.keystreams_for(
                        self, round_number, handle, payload
                    )
        # Route phase.
        with chacha20.prefetch(streams):
            for device in online:
                for handle, batch, valid in inboxes[device.device_id]:
                    if not valid:
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
        self.seal_wave()
        for device in online:
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

    def penc_open(self, identity: PseudonymIdentity, penc: bytes) -> bytes | None:
        """``rsa.decrypt`` of a PEnc header under ``identity``'s key, or
        None when it does not decrypt.  Each header is decrypted once a
        round: the open phase decrypts it to learn which keystream the
        AE open behind it needs, and routing reads the answer back."""
        memo = (identity.handle, penc)
        if memo not in self._penc_keys:
            try:
                self._penc_keys[memo] = rsa.decrypt(identity.private_key, penc)
            except CryptoError:
                self._penc_keys[memo] = None
        return self._penc_keys[memo]

    def deposit_sealed(
        self, device: MixDevice, mailbox: bytes, seal: PendingSeal
    ) -> None:
        """Queue ``seal`` as ``device``'s next deposit into ``mailbox``;
        the next :meth:`seal_wave` fills in its bytes."""
        self._pending_seals.append(seal)
        device.pending_deposits.append((mailbox, seal))

    def seal_wave(self) -> None:
        """Seal every deposit queued with :meth:`deposit_sealed` since the
        last wave, on one keystream request."""
        wave, self._pending_seals = self._pending_seals, []
        with chacha20.prefetch(
            stream for seal in wave for stream in seal.streams()
        ):
            for seal in wave:
                seal.seal()

    def complain(self, device_id: int, reason: bytes) -> None:
        """Post a public complaint to the bulletin board (§3.4)."""
        telemetry.count("mixnet.complaints.total")
        self.board.post(f"device-{device_id}", COMPLAINT_TAG, reason)

    def complaints(self) -> list[bytes]:
        return [e.payload for e in self.board.find(COMPLAINT_TAG)]
