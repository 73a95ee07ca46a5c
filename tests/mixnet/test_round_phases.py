"""A C-round's cipher work in two keystream requests.

``MixnetWorld.run_round`` computes ahead of routing the keystream of
every peel and AE open its fetched payloads will ask for (the open
phase), and seals the responses and CONNECTs that routing emits in one
wave.  Routing makes its single-message cipher calls, each served from
those keystreams.  These tests pin that a round makes at most two
keystream requests, that the wire bytes depend on neither phase, and
that a message whose link appeared earlier in the same round is routed
exactly as with no open phase.
"""

import random
import struct

import pytest

from repro import telemetry
from repro.crypto import aead, rsa
from repro.mixnet import onion
from repro.mixnet.network import (
    TAG_CONNECT,
    TAG_FORWARD,
    TAG_PAYLOAD,
    TAG_REVERSE,
    InLink,
    MixDevice,
    MixnetWorld,
    PendingSeal,
    SourcePathState,
    link_keys,
)
from repro.mixnet.telescope import TelescopeHandler
from repro.params import SystemParameters
from repro.runtime import available_backends, backends, use_backend
from tests.crypto.test_chacha20_backends import PARENT_WIRE_DIGEST, wire_digest


@pytest.fixture(params=available_backends())
def backend(request):
    with use_backend(request.param) as active:
        yield active


@pytest.fixture
def requests_per_round(monkeypatch):
    """The keystream requests each ``run_round`` makes, in round order."""
    calls = []
    rounds = []
    real_keystreams = backends.chacha20_keystreams
    real_round = MixnetWorld.run_round

    def keystreams(streams):
        calls.append(len(streams))
        return real_keystreams(streams)

    def run_round(world):
        mark = len(calls)
        try:
            return real_round(world)
        finally:
            rounds.append(len(calls) - mark)

    monkeypatch.setattr(backends, "chacha20_keystreams", keystreams)
    monkeypatch.setattr(MixnetWorld, "run_round", run_round)
    return rounds


def test_a_round_makes_at_most_two_keystream_requests(backend, requests_per_round):
    """One for the open phase, one for the seal wave, across every
    device of the round; 15 rounds of telescoping and one send_batch."""
    assert wire_digest() == (PARENT_WIRE_DIGEST, 33)
    assert len(requests_per_round) == 15
    assert max(requests_per_round) <= 2


@pytest.mark.parametrize("phase", ["open", "seal"])
def test_each_phase_only_moves_keystream_requests(
    backend, requests_per_round, monkeypatch, phase
):
    """With a phase's prefetch switched off, its cipher calls each make
    their own keystream request, and every wire byte is the same."""
    if phase == "open":
        monkeypatch.setattr(MixDevice, "keystreams_for", lambda *args: [])
    else:
        monkeypatch.setattr(PendingSeal, "streams", lambda self: [])
    assert wire_digest() == (PARENT_WIRE_DIGEST, 33)
    assert max(requests_per_round) > 2


def small_world(seed):
    params = SystemParameters(
        num_devices=6,
        hops=2,
        replicas=1,
        forwarder_fraction=0.5,
        degree_bound=2,
        pseudonyms_per_device=2,
    )
    world = MixnetWorld(
        params,
        num_devices=6,
        rng=random.Random(seed),
        rsa_bits=512,
        pseudonyms_per_device=2,
    )
    TelescopeHandler(world)
    return world


def connect_then_forward(world):
    """Device 0 deposits, in one round and into one of device 1's
    mailboxes, a CONNECT on a fresh path id and then a FORWARD-direction
    message on that same path id.  Returns the path id, the hop device
    and the mailbox the hop's CONNECT lookup names."""
    sender, hop, target = (world.devices[i] for i in range(3))
    handle = hop.handles[0]
    next_handle = target.handles[0]
    arrival = world.current_round + 1
    base_key = bytes(range(32))
    k_fwd, k_req, _ = link_keys(base_key)
    hop_pk = world.verified_lookup_by_handle(handle).leaf.public_key
    penc = rsa.encrypt(hop_pk, base_key, random.Random(1))
    request = (
        sender.handles[0]
        + bytes([1])
        + b"E"
        + struct.pack(">Q", world.directory.index_of_handle(next_handle))
    )
    sealed = aead.ae_seal(k_req, arrival, request)
    connect = struct.pack(">H", len(penc)) + penc + sealed
    forward = aead.senc(k_fwd, arrival, TAG_CONNECT + b"the blob hop 2 would parse")
    path_id = onion.new_path_id(random.Random(2))
    for body in (connect, forward):
        sender.pending_deposits.append(
            (handle, onion.WireMessage(path_id, body).encode())
        )
    return path_id, hop, next_handle


def test_a_link_made_earlier_in_the_round_routes_as_without_the_open_phase(
    backend, requests_per_round, monkeypatch
):
    """The replay argument: the open phase plans from the link state
    before the round, so it takes the second message for a CONNECT too.
    Routing reads the link the first message made, peels the second on
    a keystream request of its own and extends the link, and the round
    deposits what it deposits with no open phase at all."""
    logs = []
    for run_open_phase in (True, False):
        if not run_open_phase:
            monkeypatch.setattr(MixDevice, "keystreams_for", lambda *args: [])
        world = small_world(5)
        path_id, hop, next_handle = connect_then_forward(world)
        world.run_round()
        world.run_round()
        link = hop.in_links[path_id]
        assert link.next_mailbox == next_handle
        assert hop.out_to_in == {link.out_path_id: path_id}
        logs.append(world.deposit_log)
    assert logs[0] == logs[1]
    # Open phase, the unforeseen peel, seal wave -- then, with the open
    # phase off, the CONNECT's open takes the first request's place.
    assert requests_per_round[1] == 3
    assert requests_per_round[3] == 3


def deliver(device, world, handle, path_id, body):
    with telemetry.session() as session:
        device.process_wire(
            world, 1, handle, onion.WireMessage(path_id, body).encode()
        )
        counters = session.snapshot()["counters"]
    return {name: n for name, n in counters.items() if name.startswith("mixnet.")}


def test_dropped_input_is_counted():
    """Every message routing drops for being unroutable or not opening
    counts one metric, and nothing is deposited."""
    world = small_world(7)
    device = world.devices[3]
    handle = device.handles[0]
    fresh = random.Random(11)
    undecryptable = struct.pack(">H", 64) + bytes(64) + bytes(40)

    counters = deliver(device, world, handle, onion.new_path_id(fresh), b"\x00\x05")
    assert counters == {"mixnet.connect.malformed": 1}
    counters = deliver(device, world, handle, onion.new_path_id(fresh), undecryptable)
    assert counters == {"mixnet.connect.undecryptable": 1}
    counters = deliver(
        device, world, handle, onion.new_path_id(fresh), TAG_PAYLOAD + undecryptable
    )
    assert counters == {"mixnet.payload.undecryptable": 1}

    # A hop's link with no out-link yet: FORWARD traffic and an empty
    # layer have nowhere to go.
    in_pid = onion.new_path_id(fresh)
    device.in_links[in_pid] = InLink(
        path_id=in_pid,
        base_key=bytes(32),
        prev_mailbox=world.devices[4].handles[0],
        my_handle=handle,
    )
    k_fwd, _, _ = link_keys(bytes(32))
    for body in (aead.senc(k_fwd, 1, TAG_FORWARD + b"payload"), b""):
        counters = deliver(device, world, handle, in_pid, body)
        assert counters == {"mixnet.route.unforwardable": 1}

    # Traffic on a source's own path that is untagged or does not open.
    source_pid = onion.new_path_id(fresh)
    device.paths[(0, 0)] = SourcePathState(
        key=(0, 0),
        dest_handle=world.devices[5].handles[0],
        hop_indices=[0, 1],
        source_handle=handle,
        first_path_id=source_pid,
        hop_keys=[link_keys(bytes(32))],
        connect_round=0,
    )
    for body in (b"junk", TAG_REVERSE + bytes(40)):
        counters = deliver(device, world, handle, source_pid, body)
        assert counters == {"mixnet.reverse.dropped": 1}
    assert not device.pending_deposits and not device.received


def test_dropped_destination_lookups_are_counted():
    """A scheduled ``dst-lookup`` a last hop cannot serve counts one
    metric and deposits nothing: no pending lookup on the link, a
    complaint on the board, or a handle with no verified lookup."""
    world = small_world(8)
    device = world.devices[2]
    handler = world.telescope_handler
    fresh = random.Random(12)

    def scheduled(path_id):
        with telemetry.session() as session:
            handler.scheduled(world, device, 1, "dst-lookup", path_id)
            counters = session.snapshot()["counters"]
        return {n: v for n, v in counters.items() if n.startswith("mixnet.")}

    assert scheduled(onion.new_path_id(fresh)) == {"mixnet.dst_lookup.unmatched": 1}
    in_pid = onion.new_path_id(fresh)
    link = device.in_links[in_pid] = InLink(
        path_id=in_pid,
        base_key=bytes(32),
        prev_mailbox=world.devices[4].handles[0],
        my_handle=device.handles[0],
    )
    assert scheduled(in_pid) == {"mixnet.dst_lookup.unmatched": 1}
    link.pending_dst = b"\xee" * len(device.handles[0])
    assert scheduled(in_pid) == {"mixnet.dst_lookup.unverified": 1}
    assert link.next_mailbox is None
    link.pending_dst = world.devices[5].handles[0]
    world.complain(0, b"test")
    assert scheduled(in_pid) == {"mixnet.dst_lookup.aborted": 1}
    assert link.next_mailbox is None and not device.pending_deposits
