"""Running a query over the real mix network (§3 + §4 together).

The in-process transport used by :meth:`MyceliumSystem.run_query` hands
ciphertexts between devices with function calls.  This module is the
full-stack alternative: graph vertices map one-to-one onto mixnet
devices, every vertex telescopes onion paths to each of its d neighbor
slots (padding with self-loops to hide its degree, §3.2), the query
floods as onion-routed mailbox payloads, and neighbors send their
encrypted contributions back the same way.  The aggregator then
verifies, aggregates, and hands the result to the committee exactly as
in the in-process flow.

Wire formats (inside the end-to-end AE envelope):

* query:    "Q" || origin primary handle (32 bytes)
* response: "R" || sender primary handle || count ||
            count * [ len | ciphertext | Groth16 token ]

Receivers rebuild the ZKP statements from the ciphertexts themselves
(the statement is a public function of ciphertext, key, and plan), so
only the 192-byte proof tokens travel.
"""

from __future__ import annotations

import random
import struct
from dataclasses import dataclass, field

from repro.crypto import bgv, zksnark
from repro.engine import semantics, zkcircuits
from repro.engine.encrypted import (
    EncryptedExecutor,
    LeafMessage,
    OriginSubmission,
    dest_compute,
    leaf_max_exponent,
)
from repro.engine.malicious import Behavior
from repro.errors import ProtocolError, UnsupportedQueryError
from repro.faults.report import RecoveryReport
from repro.mixnet.forwarding import ForwardingDriver, SendRequest
from repro.mixnet.network import MixnetWorld
from repro.mixnet.telescope import TelescopeDriver
from repro.query.plans import ExecutionPlan
from repro.workloads.graphgen import ContactGraph

_TAG_QUERY = b"Q"
_TAG_RESPONSE = b"R"


def _frame(content: bytes) -> bytes:
    """Length-prefix a payload so mailbox padding (which may not be
    stripped safely — proofs and ciphertexts can end in zero bytes) is
    unambiguous."""
    return struct.pack(">I", len(content)) + content


def _unframe(payload: bytes) -> bytes | None:
    if len(payload) < 4:
        return None
    (length,) = struct.unpack(">I", payload[:4])
    if length == 0 or len(payload) < 4 + length:
        return None
    return payload[4 : 4 + length]


def encode_response(messages: list[LeafMessage], sender_handle: bytes) -> bytes:
    chunks = [_TAG_RESPONSE, sender_handle, struct.pack(">H", len(messages))]
    for message in messages:
        ct_bytes = message.ciphertext.serialize()
        chunks.append(struct.pack(">I", len(ct_bytes)))
        chunks.append(ct_bytes)
        chunks.append(message.proof.token)
    return b"".join(chunks)


def decode_response(
    payload: bytes,
    plan: ExecutionPlan,
    pk: bgv.PublicKey,
    profile,
) -> tuple[bytes, list[LeafMessage]] | None:
    """Parse a response payload; returns (sender handle, messages)."""
    if not payload.startswith(_TAG_RESPONSE) or len(payload) < 35:
        return None
    sender = payload[1:33]
    (count,) = struct.unpack(">H", payload[33:35])
    offset = 35
    messages = []
    max_exponent = leaf_max_exponent(plan)
    for _ in range(count):
        (ct_len,) = struct.unpack(">I", payload[offset : offset + 4])
        offset += 4
        ciphertext = bgv.Ciphertext.deserialize(
            payload[offset : offset + ct_len], profile
        )
        offset += ct_len
        token = payload[offset : offset + zksnark.PROOF_BYTES]
        offset += zksnark.PROOF_BYTES
        statement = zkcircuits.leaf_statement(ciphertext, pk, max_exponent)
        proof = zksnark.Proof(
            circuit=zkcircuits.LEAF_CIRCUIT,
            statement_digest=statement.digest(),
            token=token,
        )
        messages.append(
            LeafMessage(
                sender=-1, ciphertext=ciphertext, statement=statement, proof=proof
            )
        )
    return sender, messages


@dataclass
class MixnetTransport:
    """Drives one query's communication over a :class:`MixnetWorld`.

    Graph vertex i must correspond to mixnet device i.  Only one-hop
    plans are supported (multi-hop flooding over the mixnet multiplies
    round counts without adding new mechanism).
    """

    world: MixnetWorld
    graph: ContactGraph
    plan: ExecutionPlan
    public_key: bgv.PublicKey
    zk: zksnark.Groth16System
    rng: random.Random
    crounds_used: dict[str, int] = field(default_factory=dict)
    #: Delivery attempts per payload when a fault injector is attached.
    max_attempts: int = 3
    #: What recovery did for this query (docs/RESILIENCE.md); attached
    #: to the result metadata by MyceliumSystem.run_query.
    recovery: RecoveryReport = field(default_factory=RecoveryReport)
    _phase_start_round: int = field(default=0, init=False)
    #: Round the response wave began; collection ignores older payloads.
    _response_round: int = field(default=0, init=False)
    #: vertex -> slot -> destination vertex (self for padding slots).
    _slots: dict[int, list[int]] = field(default_factory=dict, init=False)

    def __post_init__(self) -> None:
        if self.plan.hops != 1:
            raise UnsupportedQueryError(
                "the mixnet transport demo supports one-hop plans"
            )
        if self.graph.num_vertices > len(self.world.devices):
            raise ProtocolError("graph larger than the mixnet population")

    def _primary(self, vertex: int) -> bytes:
        return self.world.devices[vertex].identity.primary().handle

    def establish_paths(self) -> int:
        """Every vertex telescopes r paths for each of its d slots
        (§3.2: always d messages, self-loops pad short degrees)."""
        d = self.plan.degree_bound
        r = self.world.params.replicas
        requests = []
        for vertex in range(self.graph.num_vertices):
            neighbors = self.graph.neighbors(vertex)
            slots = [
                neighbors[i] if i < len(neighbors) else vertex
                for i in range(d)
            ]
            self._slots[vertex] = slots
            for slot, target in enumerate(slots):
                for replica in range(r):
                    requests.append(
                        (vertex, slot, replica, self._primary(target))
                    )
        driver = TelescopeDriver(self.world)
        start = self.world.current_round
        paths = driver.setup_paths(requests)
        self.crounds_used["telescoping"] = self.world.current_round - start
        established = sum(p.established for p in paths.values())
        if established == 0:
            raise ProtocolError("no paths established")
        return established

    def _send_wave(self, payload_for, payload_bytes: int) -> None:
        """One communication wave: every vertex sends on every slot
        (real payloads where it has something to say, padding elsewhere
        — the degree-hiding guarantee)."""
        r = self.world.params.replicas
        if self.world.fault_injector is None:
            # Fault-free: blast every replica at once, exactly one wave.
            sends = []
            for vertex in range(self.graph.num_vertices):
                for slot, target in enumerate(self._slots[vertex]):
                    payload = payload_for(vertex, slot, target)
                    for replica in range(r):
                        sends.append(
                            SendRequest(vertex, (slot, replica), payload)
                        )
            ForwardingDriver(self.world).send_batch(sends, payload_bytes)
            return
        # Chaos mode: one primary send per slot, then bounded
        # retransmission with exponential backoff and failover onto the
        # redundant replica paths (docs/RESILIENCE.md).
        wave_start = self.world.current_round
        sends = []
        payloads: dict[tuple[int, int], tuple[bytes, int]] = {}
        for vertex in range(self.graph.num_vertices):
            for slot, target in enumerate(self._slots[vertex]):
                payload = payload_for(vertex, slot, target)
                payloads[(vertex, slot)] = (payload, target)
                sends.append(SendRequest(vertex, (slot, 0), payload))

        def confirm(request: SendRequest) -> bool:
            payload, target = payloads[
                (request.device_id, request.path_key[0])
            ]
            if not payload:
                return True  # pure padding: nothing to deliver
            return self._delivered(target, payload, wave_start)

        result = ForwardingDriver(self.world).send_reliable(
            sends, payload_bytes, confirm, max_attempts=self.max_attempts
        )
        self.recovery.retransmissions += result.retransmissions
        self.recovery.failovers += result.failovers
        self.recovery.undelivered += len(result.undelivered)

    def _delivered(
        self, target: int, payload: bytes, since_round: int
    ) -> bool:
        """Has ``target`` received ``payload`` since ``since_round``?

        The delivery oracle for reliable sends: payloads are framed with
        a length prefix and padded with zeros, so a prefix match on the
        opened plaintext identifies the message unambiguously.
        """
        for received in self.world.devices[target].received:
            if received.round_number <= since_round:
                continue
            if received.plaintext.startswith(payload):
                return True
        return False

    def flood_query(self) -> None:
        start = self.world.current_round
        self._phase_start_round = start

        def payload(vertex, slot, target):
            return _frame(_TAG_QUERY + self._primary(vertex))

        self._send_wave(payload, payload_bytes=4 + 33)
        self.crounds_used["query_flood"] = self.world.current_round - start

    def send_responses(
        self, behaviors: dict[int, Behavior] | None = None
    ) -> None:
        """Each device answers every query it received in its mailbox."""
        behaviors = behaviors or {}
        start = self.world.current_round
        # Which origins asked each vertex? Read from received payloads.
        requests: dict[int, list[int]] = {v: [] for v in self._slots}
        for vertex in self._slots:
            device = self.world.devices[vertex]
            for received in device.received:
                if received.round_number < self._phase_start_round:
                    continue
                data = _unframe(received.plaintext)
                if data is None:
                    continue
                if data.startswith(_TAG_QUERY) and len(data) == 33:
                    origin_handle = data[1:]
                    origin = self.world.handle_owner.get(origin_handle)
                    if origin is None or origin == vertex:
                        continue
                    if origin in self.graph.neighbors(vertex):
                        requests[vertex].append(origin)
        responses: dict[tuple[int, int], bytes] = {}
        payload_sizes = [0]
        for vertex, origins in requests.items():
            behavior = behaviors.get(vertex, Behavior.HONEST)
            for origin in origins:
                response = dest_compute(
                    self.plan,
                    self.public_key,
                    self.zk,
                    self.graph,
                    origin,
                    vertex,
                    self.world.devices[vertex].rng,
                    behavior,
                )
                if response is None:
                    continue
                payload = _frame(
                    encode_response(
                        list(response.messages), self._primary(vertex)
                    )
                )
                slot = self._slots[vertex].index(origin)
                responses[(vertex, slot)] = payload
                payload_sizes.append(len(payload))
        payload_bytes = max(payload_sizes) or 64
        self._response_round = self.world.current_round

        def payload_for(vertex, slot, target):
            return responses.get((vertex, slot), b"")

        self._send_wave(payload_for, payload_bytes)
        self.crounds_used["responses"] = self.world.current_round - start

    def collect_submissions(self) -> list[OriginSubmission]:
        """Origins decode responses from their mailboxes, verify leaf
        proofs, combine homomorphically, and prove the aggregation."""
        executor = EncryptedExecutor(
            self.plan, self.public_key, self.zk, self.rng
        )
        submissions = []
        skipped: list[int] = []
        for origin in range(self.graph.num_vertices):
            device = self.world.devices[origin]
            if not device.online:
                # An origin that is offline at collection time submits
                # nothing; the aggregator proceeds without it (§4.4).
                skipped.append(origin)
                continue
            neighbor_handles = {
                self._primary(n): n for n in self.graph.neighbors(origin)
            }
            inputs: dict[int, tuple[bgv.Ciphertext, ...]] = {}
            leaves: list[LeafMessage] = []
            expected = (
                self.plan.cross.num_buckets if self.plan.cross else 1
            )
            for received in device.received:
                if received.round_number < self._response_round:
                    continue
                data = _unframe(received.plaintext)
                if data is None:
                    continue
                decoded = decode_response(
                    data, self.plan, self.public_key, self.public_key.profile
                )
                if decoded is None:
                    continue
                sender_handle, messages = decoded
                sender = neighbor_handles.get(sender_handle)
                if sender is None or sender in inputs:
                    continue  # not my neighbor, or a duplicate replica
                if len(messages) != expected:
                    continue
                if not all(
                    self.zk.verify(m.statement, m.proof) for m in messages
                ):
                    executor.stats.origin_filtered_leaves += 1
                    continue
                inputs[sender] = tuple(m.ciphertext for m in messages)
                leaves.extend(
                    LeafMessage(
                        sender=sender,
                        ciphertext=m.ciphertext,
                        statement=m.statement,
                        proof=m.proof,
                    )
                    for m in messages
                )
            decisions = semantics.origin_decisions(self.plan, self.graph, origin)
            inputs = {
                n: cts
                for n, cts in inputs.items()
                if n in decisions.selected_neighbors
            }
            leaves = [m for m in leaves if m.sender in inputs]
            missing = sorted(
                n for n in decisions.selected_neighbors if n not in inputs
            )
            if missing:
                # These neighbors never answered (churn, exhausted
                # retries): their terms default to Enc(x^0) inside
                # build_origin_submission.
                self.recovery.defaulted_by_origin[origin] = tuple(missing)
            submissions.append(
                executor.build_origin_submission(
                    self.graph, origin, decisions, inputs, leaves
                )
            )
        self.recovery.skipped_origins = tuple(skipped)
        return submissions

    def run(
        self, behaviors: dict[int, Behavior] | None = None
    ) -> list[OriginSubmission]:
        """The full communication schedule for one query."""
        self.establish_paths()
        self.flood_query()
        self.send_responses(behaviors)
        return self.collect_submissions()
