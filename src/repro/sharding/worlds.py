"""Per-shard mixnet worlds.

One :class:`~repro.mixnet.network.MixnetWorld` per shard: each shard's
devices register pseudonyms, telescope paths, and deposit mailbox
traffic against *their own* shard aggregator's bulletin board and
mailbox server, so the mixnet state (RSA identities, link tables,
mailboxes) for a live run is resident for **one shard at a time** rather
than for every device at once.  A shard's world is seeded exclusively
from ``shard.seed`` — a pure function of ``(master_seed, shard index)``
— so adding shards around it never perturbs its behaviour, and a resumed
run rebuilds the identical world.

Trust boundary (docs/SHARDING.md): each shard aggregator is exactly as
untrusted as the flat aggregator — devices inside a shard verify mailbox
batches and receipts against their shard's committed roots, and the
*cryptographic* output of a shard (its partial sum) is re-verified by the
root :class:`~repro.core.aggregator.ReductionTree`.  Sharding the mixnet
therefore changes who operates the mailbox servers, not what any
operator can get away with.

The vertex program still evaluates on the global contact graph;
:func:`shard_subgraph` extracts the shard-local induced view used when a
shard simulates only its own devices' traffic (cross-shard edges are
reported, not silently dropped).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from typing import Iterator

from repro import telemetry
from repro.errors import ParameterError
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters
from repro.sharding.planner import Shard, ShardPlan
from repro.workloads.graphgen import ContactGraph


@dataclass
class ShardWorld:
    """One shard's mixnet world plus the local/global id mapping.

    Local device ids are ``0..shard.size-1``; global origin ids are the
    shard's contiguous range ``shard.start..shard.stop-1``.
    """

    shard: Shard
    world: MixnetWorld

    def to_local(self, global_id: int) -> int:
        if not self.shard.start <= global_id < self.shard.stop:
            raise ParameterError(
                f"origin {global_id} is not in shard {self.shard.index} "
                f"[{self.shard.start}, {self.shard.stop})"
            )
        return global_id - self.shard.start

    def to_global(self, local_id: int) -> int:
        if not 0 <= local_id < self.shard.size:
            raise ParameterError(
                f"local id {local_id} outside shard of size {self.shard.size}"
            )
        return local_id + self.shard.start


def build_shard_world(
    shard: Shard,
    params: SystemParameters,
    rsa_bits: int = 512,
    pseudonyms_per_device: int | None = None,
    collective_beacon: bool = False,
) -> ShardWorld:
    """Construct one shard's mixnet world, seeded from the shard seed."""
    if shard.size < 1:
        raise ParameterError(
            f"shard {shard.index} is empty; skip it rather than building "
            "a world with no devices"
        )
    shard_params = replace(params, num_devices=shard.size)
    world = MixnetWorld(
        shard_params,
        shard.size,
        random.Random(shard.seed),
        rsa_bits=rsa_bits,
        pseudonyms_per_device=pseudonyms_per_device,
        collective_beacon=collective_beacon,
    )
    telemetry.count("sharding.worlds.built")
    return ShardWorld(shard=shard, world=world)


def iter_shard_worlds(
    plan: ShardPlan,
    params: SystemParameters,
    rsa_bits: int = 512,
    pseudonyms_per_device: int | None = None,
) -> Iterator[ShardWorld]:
    """Yield one shard world at a time (empty shards are skipped).

    Generator-fed on purpose: the caller drives a shard's devices to
    completion, drops the world, and only then is the next one built —
    peak mixnet residency is bounded by the largest shard, not by the
    total device count.
    """
    for shard in plan.shards:
        if shard.size == 0:
            continue
        yield build_shard_world(
            shard,
            params,
            rsa_bits=rsa_bits,
            pseudonyms_per_device=pseudonyms_per_device,
        )


def shard_subgraph(
    graph: ContactGraph, shard: Shard
) -> tuple[ContactGraph, int]:
    """The induced subgraph over a shard's contiguous vertex range.

    Vertices are relabelled to local ids (global ``v`` becomes
    ``v - shard.start``); vertex and shared-edge attribute records are
    referenced, not copied.  Returns the subgraph and the number of
    cross-shard edges that fall outside it — callers that need exact
    global query semantics must route those through the global graph
    instead of ignoring them.
    """
    local = ContactGraph(degree_bound=graph.degree_bound)
    for v in range(shard.start, min(shard.stop, graph.num_vertices)):
        local.add_vertex(**graph.vertex_attrs[v])
    cut_edges = 0
    for v in range(shard.start, min(shard.stop, graph.num_vertices)):
        for u in graph.neighbors(v):
            if not shard.start <= u < shard.stop:
                # The out-of-shard endpoint is never visited, so each
                # cut edge is seen exactly once.
                cut_edges += 1
                continue
            if u < v:
                continue  # shared record; wire each in-shard edge once
            lu, lv = u - shard.start, v - shard.start
            local.adjacency[lv][lu] = graph.adjacency[v][u]
            local.adjacency[lu][lv] = graph.adjacency[v][u]
    return local, cut_edges
