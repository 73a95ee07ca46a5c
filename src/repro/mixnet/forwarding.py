"""Message forwarding over established telescoping paths (§3.5).

One communication round of the vertex program costs k+1 C-rounds: the
source deposits its onion in C-round F, hop j forwards in C-round F+j,
and the destination picks the payload up in C-round F+k+1 (the fetch of
round F+k's deposits).

Payload envelope (end-to-end protected, independent of the hops):

    "P" || len(PEnc) || PEnc(pk_dst, session_key) || AE(session_key, m)

The AE nonce is the destination's delivery round, which both ends derive
from the globally known phase schedule.  Forwarders only ever see SEnc
layers, so a hop that lost an input substitutes a random dummy that
downstream colluders cannot flag (dummy injection lives in
:meth:`repro.mixnet.network.MixDevice.emit_dummies`).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

from repro import telemetry
from repro.crypto import aead, rsa
from repro.errors import ProtocolError
from repro.mixnet import onion
from repro.mixnet.network import (
    MixnetWorld,
    SourcePathState,
    TAG_FORWARD,
    TAG_PAYLOAD,
)


@dataclass(frozen=True)
class SendRequest:
    """One message to deliver: which device sends what over which path."""

    device_id: int
    path_key: tuple[int, int]
    payload: bytes


@dataclass
class ReliableSendResult:
    """Outcome of :meth:`ForwardingDriver.send_reliable`."""

    #: (device_id, original path_key) -> delivery confirmed.
    delivered: dict[tuple[int, tuple[int, int]], bool]
    retransmissions: int = 0
    failovers: int = 0
    #: Requests still unconfirmed after the attempt budget.
    undelivered: tuple[tuple[int, tuple[int, int]], ...] = ()


def _forward_keys(path: SourcePathState) -> tuple[bytes, ...]:
    """The per-hop forwarding keys an onion for ``path`` wraps under."""
    return tuple(k_fwd for k_fwd, _, _ in path.hop_keys)


class ForwardingDriver:
    """Run one vertex-program communication round for a batch of sends.

    Session keys and RSA padding are drawn from each device's RNG in
    request order; the symmetric work — sealing the wave's envelopes and
    the k onion layers over all of them — is k+1 batched cipher calls.
    """

    def __init__(self, world: MixnetWorld):
        self.world = world

    def send_batch(
        self, sends: list[SendRequest], payload_bytes: int
    ) -> dict[tuple[int, tuple[int, int]], bool]:
        """Deposit every send, run k+1 C-rounds, and report which paths
        were exercised.

        ``payload_bytes`` is the protocol-fixed payload size for this
        phase; callers pad shorter payloads so every message (and every
        dummy) has identical shape.
        """
        world = self.world
        k = world.params.hops
        base_round = world.current_round
        delivery_round = base_round + k + 1
        sent: dict[tuple[int, tuple[int, int]], bool] = {}
        with telemetry.span("mixnet.send_batch", sends=len(sends), hops=k):
            # Stage 1 (serial): resolve paths and draw each envelope's
            # session key and RSA padding from the device's RNG, in
            # request order.
            headers: list[bytes] = []
            seals: list[tuple[bytes, int, bytes]] = []
            deposits: list[tuple[object, SourcePathState]] = []
            for request in sends:
                device = world.devices[request.device_id]
                path = device.paths.get(request.path_key)
                key = (request.device_id, request.path_key)
                if (
                    path is None
                    or not path.established
                    or not device.online
                ):
                    sent[key] = False
                    continue
                if len(request.payload) > payload_bytes:
                    raise ProtocolError(
                        "payload exceeds the phase's fixed size"
                    )
                if path.dest_pk is None:
                    raise ProtocolError("path has no destination key")
                rng = device.rng
                session_key = bytes(rng.randrange(256) for _ in range(32))
                penc = rsa.encrypt(path.dest_pk, session_key, rng)
                headers.append(TAG_PAYLOAD + struct.pack(">H", len(penc)) + penc)
                padded = request.payload.ljust(payload_bytes, b"\x00")
                seals.append((session_key, delivery_round, padded))
                deposits.append((device, path))
                sent[key] = True
            # Stage 2 (batched, pure): seal every envelope, then wrap
            # them all.  Hop j peels its layer with nonce base_round + j
            # (its processing round) and reads TAG_FORWARD first; the
            # innermost peel at hop k reveals the envelope, which hop k
            # deposits into the destination's mailbox.
            envelopes = [
                header + sealed
                for header, sealed in zip(headers, aead.ae_seal_many(seals))
            ]
            bodies = onion.wrap_many(
                envelopes,
                [_forward_keys(path) for _, path in deposits],
                base_round + 1,
                TAG_FORWARD,
            )
            # Stage 3 (serial): mailbox deposits in request order.
            for (device, path), body in zip(deposits, bodies):
                device.queue_deposit(
                    path.hop_handles[0], path.first_path_id, body
                )
            # Arm dummy injection: a hop at position p that sees no message
            # on an expecting link in round base+p emits a dummy of matching
            # size.
            if envelopes:
                world.forwarding_phase_start = base_round
                # A hop at position p deposits bodies of exactly
                # envelope + (k - p) bytes (one TAG_FORWARD byte per layer
                # still to peel); emit_dummies matches that shape.
                world.forwarding_body_bytes = len(envelopes[-1])
            delivered = sum(1 for ok in sent.values() if ok)
            telemetry.count("mixnet.send.messages", delivered)
            for _ in range(delivered):
                telemetry.observe("mixnet.send.hop_latency_rounds", k + 1)
            # Deposits land in C-round `base`, hop j forwards in base+j, and
            # the destination opens its mailbox in base+k+1 — k+1 C-rounds
            # of latency (§3.5), spanning k+2 round boundaries of the
            # simulator.
            try:
                for _ in range(k + 2):
                    world.run_round()
            finally:
                world.forwarding_phase_start = None
        return sent

    def send_reliable(
        self,
        sends: list[SendRequest],
        payload_bytes: int,
        confirm,
        max_attempts: int = 3,
    ) -> ReliableSendResult:
        """Bounded retransmission with replica failover.

        Runs :meth:`send_batch` waves until ``confirm(request)`` is true
        for every request or the attempt budget runs out.  Between
        attempts the clock idles ``2**attempt`` C-rounds plus a seeded
        jitter of up to ``2**attempt - 1`` more (exponential backoff
        with full jitter — a real deployment waits for churned devices
        to come back, and jitter keeps retry waves from thundering in
        phase, §3.4).  The jitter is drawn from the world RNG, so chaos
        replays stay bit-identical.  Each retry rotates to the next
        pre-established
        replica path for the same slot, and a request whose chosen
        replica was never established fails over immediately to any
        established sibling — the paper's telescoping circuits are cheap
        to set up in redundant pairs precisely so the source has a
        second route ready (§3.4, Figure 5c).

        ``confirm`` is the caller's delivery oracle (e.g. "the
        destination's mailbox state shows the payload"); requests whose
        payload is pure padding should confirm trivially.
        """
        world = self.world
        replicas = world.params.replicas
        delivered = {
            (req.device_id, req.path_key): False for req in sends
        }
        pending = list(enumerate(sends))
        attempts_used: dict[int, int] = {}
        retransmissions = 0
        failovers = 0
        with telemetry.span(
            "mixnet.send_reliable",
            sends=len(sends),
            max_attempts=max_attempts,
        ):
            for attempt in range(max_attempts):
                batch = []
                for _, request in pending:
                    slot, primary = request.path_key
                    key = (slot, (primary + attempt) % replicas)
                    device = world.devices[request.device_id]
                    path = device.paths.get(key)
                    if path is None or not path.established:
                        for alt in range(replicas):
                            candidate = device.paths.get((slot, alt))
                            if candidate is not None and candidate.established:
                                key = (slot, alt)
                                break
                    if attempt > 0:
                        retransmissions += 1
                    if key != request.path_key:
                        failovers += 1
                    batch.append(
                        SendRequest(request.device_id, key, request.payload)
                    )
                self.send_batch(batch, payload_bytes)
                still_pending = []
                for index, request in pending:
                    if confirm(request):
                        delivered[(request.device_id, request.path_key)] = True
                        attempts_used[index] = attempt + 1
                    else:
                        still_pending.append((index, request))
                pending = still_pending
                if not pending:
                    break
                if attempt < max_attempts - 1:
                    # Seeded jitter from the world RNG keeps replays
                    # bit-identical; randrange(1) == 0 leaves the first
                    # backoff untouched.
                    backoff = 2**attempt + world.rng.randrange(2**attempt)
                    for _ in range(backoff):
                        world.run_round()
            for count in attempts_used.values():
                telemetry.observe("mixnet.send.attempts", count)
            if retransmissions:
                telemetry.count(
                    "mixnet.retransmissions.total", retransmissions
                )
            if failovers:
                telemetry.count("mixnet.failovers.total", failovers)
            undelivered = tuple(
                (req.device_id, req.path_key) for _, req in pending
            )
            if undelivered:
                telemetry.count("mixnet.send.undelivered", len(undelivered))
        return ReliableSendResult(
            delivered=delivered,
            retransmissions=retransmissions,
            failovers=failovers,
            undelivered=undelivered,
        )


def strip_padding(payload: bytes) -> bytes:
    """Inverse of the ljust padding used by :meth:`send_batch`."""
    return payload.rstrip(b"\x00")
