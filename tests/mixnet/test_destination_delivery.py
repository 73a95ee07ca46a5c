"""A path must not end at its own destination's pseudonym.

When the last hop *was* the destination pseudonym, the final deposit
landed in a mailbox that matched one of that device's own in-links, was
routed as reverse traffic, and vanished.  ``start_path`` now keeps the
destination out of hop sampling, and a message that still reaches a
link with the wrong direction tag is counted and complained about.
"""

import random

from repro import telemetry
from repro.core.system import MyceliumSystem
from repro.mixnet import onion
from repro.mixnet.network import (
    TAG_PAYLOAD,
    TAG_REVERSE,
    InLink,
    MixnetWorld,
)
from repro.mixnet.telescope import TelescopeDriver
from repro.params import TEST, SystemParameters
from repro.query.schema import scaled_schema
from repro.workloads.epidemic import build_campaign_graph

# The perf ledger's ``mixnet_onehop`` shape.
DEVICES, DEGREE = 12, 2
QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"
DEGREE_SEQUENCE = (1, 1) + (2,) * 10
PARAMS = SystemParameters(
    num_devices=DEVICES,
    degree_bound=DEGREE,
    hops=2,
    committee_size=3,
    replicas=2,
    forwarder_fraction=0.45,
    pseudonyms_per_device=2,
)


def make_world(seed):
    return MixnetWorld(
        PARAMS,
        num_devices=DEVICES,
        rng=random.Random(seed),
        rsa_bits=512,
        pseudonyms_per_device=2,
    )


def shaped_graph():
    for attempt in range(20_000):
        graph = build_campaign_graph(DEVICES, DEGREE, random.Random(1000 + attempt))
        degrees = sorted(len(graph.neighbors(v)) for v in range(DEVICES))
        if tuple(degrees) == DEGREE_SEQUENCE:
            return graph
    raise AssertionError("no graph of the mixnet_onehop shape")


def test_no_path_picks_its_destination_as_a_hop():
    world = make_world(308)
    driver = TelescopeDriver(world)
    requests = [
        (source, 0, replica, world.devices[(source + 1) % DEVICES].identity.primary().handle)
        for source in range(DEVICES)
        for replica in range(2)
    ]
    for path in driver.setup_paths(requests).values():
        assert path.established
        assert path.dest_handle not in path.hop_handles


def test_fault_free_worlds_deliver_every_replica_and_release_the_oracle():
    """Seeds 301–310: at the parent commit six of these ten worlds lose
    replica deliveries and seed 308 releases a degraded answer."""
    graph = shaped_graph()
    system = MyceliumSystem.setup(
        num_devices=DEVICES,
        rng=random.Random(9),
        profile=TEST,
        params=PARAMS,
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=1e9,
    )
    reference = system.plaintext_answer(QUERY, graph)
    oracle = [tuple(float(c) for c in h.counts) for h in reference.histograms]
    # Two waves (query flood, responses), every vertex sending on every
    # slot over every replica path.
    every_replica = 2 * DEVICES * DEGREE * PARAMS.replicas
    for seed in range(301, 311):
        world = make_world(seed)
        with telemetry.session() as session:
            result = system.run_query(
                QUERY, graph, epsilon=1.0, noiseless=True, world=world
            )
            counters = session.snapshot()["counters"]
        recovery = result.metadata.recovery
        received = sum(len(d.received) for d in world.devices.values())
        assert received == every_replica, seed
        assert not recovery.defaulted_by_origin, seed
        assert not recovery.complaints, seed
        assert counters.get("mixnet.route.misdirected", 0) == 0, seed
        assert [tuple(g.counts) for g in result.groups] == oracle, seed


def test_wrong_direction_on_a_link_is_counted_and_complained_about():
    world = make_world(7)
    device = world.devices[3]
    handle = device.handles[0]
    in_pid, out_pid = onion.new_path_id(device.rng), onion.new_path_id(device.rng)
    device.in_links[in_pid] = InLink(
        path_id=in_pid,
        base_key=bytes(32),
        prev_mailbox=world.devices[4].handles[0],
        my_handle=handle,
        out_path_id=out_pid,
    )
    device.out_to_in[out_pid] = in_pid

    def deliver(body):
        with telemetry.session() as session:
            device.process_wire(
                world, 1, handle, onion.WireMessage(out_pid, body).encode()
            )
            return session.snapshot()["counters"]

    counters = deliver(TAG_PAYLOAD + b"swallowed at the parent")
    assert counters["mixnet.route.misdirected"] == 1
    assert world.complaints() == [b"misdirected"]
    assert not device.received and not device.pending_deposits

    # Genuine reverse traffic on the same link is relayed, not flagged.
    counters = deliver(TAG_REVERSE + b"\x00" * 48)
    assert "mixnet.route.misdirected" not in counters
    assert len(device.pending_deposits) == 1
    assert world.complaints() == [b"misdirected"]
