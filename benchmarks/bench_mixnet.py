"""Mixnet micro-benchmarks: telescoping setup and forwarding cost.

Complements Figure 5(d) with measured message counts: every device
participates in every C-round (the §4.7 defence against intersection
attacks), so mailbox traffic per round is the quantity that scales.
"""

import random

from benchmarks.conftest import format_table
from repro.mixnet.forwarding import ForwardingDriver, SendRequest
from repro.mixnet.network import MixnetWorld
from repro.mixnet.telescope import TelescopeDriver
from repro.params import SystemParameters


def _build_world(seed=7, devices=24, hops=2):
    params = SystemParameters(
        num_devices=devices,
        hops=hops,
        replicas=1,
        forwarder_fraction=0.4,
        degree_bound=2,
        pseudonyms_per_device=2,
    )
    return MixnetWorld(
        params,
        num_devices=devices,
        rng=random.Random(seed),
        rsa_bits=512,
        pseudonyms_per_device=2,
    )


def test_telescoping_setup(benchmark, report):
    def setup():
        world = _build_world()
        driver = TelescopeDriver(world)
        dests = [
            world.devices[d].identity.primary().handle for d in (10, 11, 12)
        ]
        requests = [(s, 0, 0, dest) for s, dest in zip((0, 1, 2), dests)]
        paths = driver.setup_paths(requests)
        assert all(p.established for p in paths.values())
        return world

    world = benchmark.pedantic(setup, rounds=1, iterations=1)
    per_round = {}
    for round_number, _, _, _ in world.deposit_log:
        per_round[round_number] = per_round.get(round_number, 0) + 1
    rows = [[r, n] for r, n in sorted(per_round.items())]
    report(
        *format_table(
            "Telescoping (k=2, 3 concurrent paths): mailbox deposits per "
            "C-round",
            ["C-round", "deposits"],
            rows,
        )
    )


def test_forwarding_round(benchmark, report):
    world = _build_world(seed=8)
    driver = TelescopeDriver(world)
    dests = [world.devices[d].identity.primary().handle for d in (10, 11)]
    requests = [(s, 0, 0, dest) for s, dest in zip((0, 1), dests)]
    paths = driver.setup_paths(requests)
    assert all(p.established for p in paths.values())

    def forward():
        fw = ForwardingDriver(world)
        return fw.send_batch(
            [SendRequest(0, (0, 0), b"q"), SendRequest(1, (0, 0), b"q")],
            payload_bytes=64,
        )

    sent = benchmark.pedantic(forward, rounds=1, iterations=1)
    delivered = sum(
        1 for d in (10, 11) if world.devices[d].received
    )
    report(
        f"forwarding round: {sum(sent.values())} messages sent, "
        f"{delivered} destinations reached, "
        f"{world.params.hops + 1} C-rounds of latency"
    )
    assert delivered == 2


def test_audit_cost(benchmark, report):
    """Directory audits (§3.3) are cheap: a handful of Merkle proofs."""
    world = _build_world(seed=9)
    passed = benchmark(
        lambda: world.run_audits(sample_devices=3, samples_each=6)
    )
    assert passed
    report("directory audits (3 devices x 6 samples): pass")
