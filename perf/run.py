"""Perf ledger v1: four workloads, end-to-end metrics, an outside-in layer trace.

    python3 perf/run.py                       # every workload, each in a fresh interpreter
    python3 perf/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perf/run.py --self-test

The benchmark reaches the program only through these public entry
points (imported below; ``perf/trace.py`` wraps more of them by name,
but calls none):

    entry point                                        used for
    -------------------------------------------------  ---------------------------------
    repro.core.system.MyceliumSystem.setup             genesis (setup_s)
    MyceliumSystem.run_query                           every direct query
    MyceliumSystem.plaintext_answer                    the correctness oracle
    repro.mixnet.network.MixnetWorld                   mixnet_onehop's transport
    repro.service.QueryService / ServiceConfig         served_mix's server
    repro.service.ServiceClient                        served_mix's analysts
    repro.runtime.RuntimeConfig                        backend=numpy, workers=1, shards=1
    repro.params.SystemParameters / SMALL / TEST       deployment shape and ring profile
    repro.query.catalog.CATALOG                        Q3 on exec_fanout
    repro.query.schema.scaled_schema                   attribute ranges that fit the rings
    repro.workloads.epidemic.build_campaign_graph      households + epidemic from --seed

Definitions of every workload and metric, and the table of which layer
metric should move which end-to-end metric, are in perf/README.md.
"""

from __future__ import annotations

import time

_INTERPRETER_START = time.perf_counter()  # the earliest instant this file can see

import argparse
import asyncio
import hashlib
import itertools
import json
import math
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

PERF_DIR = Path(__file__).resolve().parent
ROOT = PERF_DIR.parent
WORK_DIR = ROOT / ".perf_work"
sys.path.insert(0, str(ROOT / "src"))
# workers=1 means one thread of arithmetic: the NumPy kernel's float64
# matmuls would otherwise fan out over OpenBLAS threads, which on two
# noisy cores widened the run-to-run spread without making it faster.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy

import measure
import trace
from repro.core.system import MyceliumSystem
from repro.mixnet.network import MixnetWorld
from repro.params import SMALL, TEST, BGVProfile, SystemParameters
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.runtime import RuntimeConfig
from repro.service import QueryService, ServiceClient, ServiceConfig
from repro.workloads.epidemic import build_campaign_graph

IMPORT_SECONDS = time.perf_counter() - _INTERPRETER_START

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}

#: Fixed for every workload (ISSUE 12): the NumPy kernel, no process
#: pool, the flat aggregator.
RUNTIME = RuntimeConfig(workers=1, backend="numpy", shards=1)

#: Set-up is sampled until this many samples or this many seconds, so the
#: TEST-ring workloads (genesis well under a second) report a median of
#: three and ring_small (genesis ~11 s) pays for genesis once.
SETUP_SAMPLES = 3
SETUP_BUDGET_SECONDS = 6.0

#: Calibration readings further apart than this flag a noisy neighbour.
CALIBRATION_TOLERANCE = 0.10

DERIVED_METRICS = (
    "engine.upload_bytes_per_origin",
    "engine.proofs_per_origin",
    "core.aggregator.relins_per_origin",
    "runtime.backends.products_per_origin",
    "mixnet.crounds_per_query",
    "mixnet.reuse_growth",
    "durability.journal_bytes_per_query",
    "service.queue_wait_s",
    "bench.first_query_s",
    "bench.world_build_s",
    "bench.trace_overhead",
    "bench.calibration_s",
)


def timed_repetitions(at_run_seconds: int, seconds: float) -> int:
    """How many timed repetitions ``--seconds`` buys.

    Counts are fixed per workload for the contract's ``run_seconds``
    (where a repetition costs 2 to 8 s, so the timed part takes 9 to
    16 s) and scale with any other ``--seconds``.  A fixed count, not
    "loop until the time is up", so that two runs of one commit take
    the same samples; a change that makes a workload faster shortens its
    run, it does not add samples.
    """
    return max(1, round(at_run_seconds * seconds / SPEC["run_seconds"]))


def remove_work_dir_if_empty() -> None:
    if WORK_DIR.exists() and not any(WORK_DIR.iterdir()):
        WORK_DIR.rmdir()


def derive(seed: int, *labels: object) -> int:
    """A 63-bit seed for one labelled use of ``--seed``."""
    digest = hashlib.sha256(repr((seed, *labels)).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def degree_sequence(graph) -> tuple[int, ...]:
    return tuple(sorted(len(graph.neighbors(v)) for v in range(graph.num_vertices)))


def infected_slots(graph) -> tuple[int, int]:
    """(infected vertices, neighbour slots they hold): a ``WHERE
    self.inf`` query encrypts and proves per slot of an infected origin."""
    infected = [
        v for v in range(graph.num_vertices) if graph.vertex_attrs[v].get("inf", 0)
    ]
    return len(infected), sum(len(graph.neighbors(v)) for v in infected)


def build_shaped_graph(seed: int, name: str, spec: "DirectSpec"):
    """The first graph drawn from ``seed`` whose ``spec.shape`` is
    ``spec.shape_target``.

    The engine's work follows the graph (exec_fanout: 504 to 1572
    encryptions over twelve seeds, 1.0 to 3.4 s a query), so an
    unconditioned draw would put the input's variance on every metric.
    Holding the property the work depends on fixed keeps the operation
    counts equal for every seed while the graph itself still varies.
    """
    for attempt in range(20_000):
        # Households plus an epidemic, edge attributes clamped into
        # scaled_schema()'s ranges; the program sees only this graph.
        graph = build_campaign_graph(
            spec.devices, spec.degree, random.Random(derive(seed, name, "graph", attempt))
        )
        if spec.shape(graph) == spec.shape_target:
            return graph
    raise RuntimeError(f"{name}: no graph of shape {spec.shape_target} from seed {seed}")


def released_counts(result) -> list[tuple[float, ...]]:
    return [tuple(group.counts) for group in result.groups]


def oracle_counts(system: MyceliumSystem, query, graph) -> list[tuple[float, ...]]:
    """What a noiseless HISTO query must release."""
    reference = system.plaintext_answer(query, graph)
    return [tuple(float(c) for c in h.counts) for h in reference.histograms]


def submission_observer(args, submissions) -> tuple[int, int]:
    """(bytes uploaded, proofs attached) over one query's submissions."""
    size = proofs = 0
    for sub in submissions:
        size += sub.ciphertext.size_bytes + sub.aggregate_proof.size_bytes
        proofs += 1 + len(sub.leaves) + len(sub.intermediates)
        for leaf in sub.leaves:
            size += leaf.ciphertext.size_bytes + leaf.proof.size_bytes
        for ciphertext, _statement, proof in sub.intermediates:
            size += ciphertext.size_bytes + proof.size_bytes
    return size, proofs


OBSERVERS = {
    "engine.encrypted.run": submission_observer,
    "core.transport.run": submission_observer,
    # relinearize() returns degree-1 inputs untouched; count real folds.
    "crypto.bgv.relinearize": lambda args, result: int(args[0].degree > 1),
}

#: Layers every query reaches, whatever the transport.
QUERY_LAYERS = frozenset(
    {
        "core.system.setup",
        "query.compile",
        "core.aggregator.aggregate",
        "core.aggregator.verify_submission",
        "core.committee.threshold_decrypt",
        "crypto.bgv.encrypt",
        "crypto.bgv.multiply",
        "crypto.bgv.relinearize",
        "crypto.bgv.add",
        "crypto.zksnark.prove",
        "crypto.zksnark.verify",
        "runtime.backends.ring_multiply",
        "runtime.fabric.map",
        "dp.budget.charge",
    }
)
IN_PROCESS_LAYERS = frozenset({"engine.encrypted.run"})
MIXNET_LAYERS = frozenset(
    {
        "core.transport.run",
        "mixnet.telescope.setup_paths",
        "mixnet.forwarding.send_batch",
        "mixnet.network.run_round",
        # mixnet.onion.wrap is traced but never called on the live path:
        # ForwardingDriver wraps with its own fabric task (perf/README.md).
        "mixnet.onion.peel",
        "crypto.aead.senc",
        "crypto.aead.ae_seal",
        "crypto.aead.ae_open",
        "crypto.chacha20.chacha20_xor",
        "crypto.rsa.encrypt",
        "crypto.rsa.decrypt",
    }
)
SERVED_LAYERS = frozenset(
    {
        "core.committee.committee_noise",
        "durability.campaign.run",
        "durability.journal.append",
        "service.admission.admit",
        "service.protocol.encode_frame",
        "service.protocol.decode_body",
    }
)


class NothingMeasured(Exception):
    """No timed query completed, so there is no latency to report."""


class Tally:
    """Queries attempted and failed.  Every failure — a query that
    raised or released a wrong value, an unconserved ledger, a silent
    trace target — counts one failed query and keeps its reason."""

    def __init__(self) -> None:
        self.attempted = 0
        self.errors: list[str] = []

    def fail(self, reason: str) -> None:
        self.errors.append(reason)

    @property
    def failed(self) -> int:
        return min(len(self.errors), max(self.attempted, 1))


# -- direct workloads --------------------------------------------------------------


@dataclass(frozen=True)
class DirectSpec:
    devices: int
    degree: int
    hops: int
    profile: BGVProfile
    query: object
    #: The graph property this query's work depends on, and the value
    #: every generated graph is held to (see build_shaped_graph).
    shape: object
    shape_target: tuple
    #: Timed queries at BENCHMARK.json's ``run_seconds``; another
    #: ``--seconds`` scales the count (see timed_repetitions).
    timed_queries: int
    #: Repetitions of (genesis + query) in the traced pass.
    traced_repetitions: int
    #: MixnetWorld shape; None runs the in-process transport.
    mixnet: dict | None = None


DIRECT = {
    "ring_small": DirectSpec(
        devices=6, degree=2, hops=1, profile=SMALL,
        query="SELECT HISTO(COUNT(*)) FROM neigh(1)",
        shape=degree_sequence, shape_target=(1, 1, 2, 2, 2, 2),
        timed_queries=2,
        traced_repetitions=1,
    ),
    "exec_fanout": DirectSpec(
        devices=48, degree=3, hops=2, profile=TEST,
        query=CATALOG["Q3"],
        shape=infected_slots, shape_target=(12, 32),
        timed_queries=4,
        traced_repetitions=2,
    ),
    "mixnet_onehop": DirectSpec(
        devices=12, degree=2, hops=2, profile=TEST,
        query="SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
        shape=degree_sequence, shape_target=(1, 1) + (2,) * 10,
        timed_queries=3,
        traced_repetitions=2,
        mixnet={
            "replicas": 2,
            "forwarder_fraction": 0.45,
            "pseudonyms_per_device": 2,
            "rsa_bits": 512,
        },
    ),
}

#: mixnet.reuse_growth: consecutive queries on one reused world.
REUSE_QUERIES = 3
#: Worlds a run may redraw because they lost messages (see _query).
DEGRADED_WORLD_LIMIT = 6


class DirectWorkload:
    """``MyceliumSystem.run_query`` on a graph built here from ``--seed``."""

    def __init__(self, name: str, seed: int, tally: Tally):
        self.name = name
        self.spec = DIRECT[name]
        self.seed = seed
        self.tally = tally
        self.devices = self.spec.devices
        self.world_builds: list[float] = []
        self.degraded_worlds = 0
        self._queries = itertools.count()
        self._timed = itertools.count()
        mixnet = self.spec.mixnet or {}
        self.params = SystemParameters(
            num_devices=self.devices,
            degree_bound=self.spec.degree,
            hops=self.spec.hops,
            committee_size=3,
            replicas=mixnet.get("replicas", 1),
            forwarder_fraction=mixnet.get("forwarder_fraction", 0.3),
            pseudonyms_per_device=mixnet.get("pseudonyms_per_device", 2),
        )
        self.graph = build_shaped_graph(seed, name, self.spec)
        self.system = None
        self.expected = None

    # set-up -------------------------------------------------------------------

    def _genesis(self, label: object) -> MyceliumSystem:
        return MyceliumSystem.setup(
            num_devices=self.devices,
            rng=random.Random(derive(self.seed, self.name, "genesis", label)),
            profile=self.spec.profile,
            params=self.params,
            schema=scaled_schema(),
            committee_size=3,
            committee_threshold=2,
            total_epsilon=1e9,
        )

    def _build_world(self, label: object):
        if self.spec.mixnet is None:
            return None
        started = time.perf_counter()
        world = MixnetWorld(
            self.params,
            num_devices=self.devices,
            rng=random.Random(derive(self.seed, self.name, "world", label)),
            rsa_bits=self.spec.mixnet["rsa_bits"],
            pseudonyms_per_device=self.spec.mixnet["pseudonyms_per_device"],
        )
        self.world_builds.append(time.perf_counter() - started)
        return world

    def setup_sample(self, index: int) -> float:
        """One genesis (plus one world build on the mixnet); the first
        sample's system is the one the queries run on."""
        started = time.perf_counter()
        system = self._genesis(("sample", index))
        self._build_world(("sample", index))
        elapsed = time.perf_counter() - started
        if index == 0:
            self.system = system
            self.expected = oracle_counts(system, self.spec.query, self.graph)
        return elapsed

    # queries ------------------------------------------------------------------

    def _run_on(self, system: MyceliumSystem, world) -> tuple[float | None, bool]:
        """One checked query: (latency or None when it failed, whether
        the mixnet reported contributions it had to default)."""
        repetition = next(self._queries)
        self.tally.attempted += 1
        started = time.perf_counter()
        try:
            result = system.run_query(
                self.spec.query,
                self.graph,
                epsilon=1.0,
                noiseless=True,
                world=world,
                runtime=RUNTIME,
                submission_seed=derive(self.seed, self.name, "submission", repetition),
            )
        except Exception as exc:  # noqa: BLE001 - any raise is a failed query
            self.tally.fail(f"query {repetition} raised {type(exc).__name__}: {exc}")
            return None, False
        elapsed = time.perf_counter() - started
        if world is not None and result.metadata.recovery.defaulted_by_origin:
            return None, True
        if released_counts(result) != self.expected:
            self.tally.fail(
                f"query {repetition} released {released_counts(result)}, "
                f"oracle says {self.expected}"
            )
            return None, False
        return elapsed, False

    def _query(self, system: MyceliumSystem, label: object, spans: list | None = None):
        """One checked query on a fresh world; its latency, or None when
        it failed.

        With no fault injected, a payload whose path's last hop is its
        own destination device is lost, and in 5 to 20% of worlds that
        takes both replicas of some message; the program then releases a
        degraded answer and says so in ``recovery.defaulted_by_origin``.  A
        benchmark workload is one on which no operation fails, so such a
        world is redrawn — rejection by outcome, as the graph is
        rejected by shape — counted, and capped per run so that a change
        which breaks delivery still fails.  ``spans`` is the tracer's
        list; a redrawn attempt's spans are dropped from it.
        """
        for attempt in itertools.count():
            world = self._build_world((label, attempt))
            mark = len(spans) if spans is not None else 0
            latency, degraded = self._run_on(system, world)
            if not degraded:
                return latency
            self.degraded_worlds += 1
            if self.degraded_worlds > DEGRADED_WORLD_LIMIT:
                self.tally.fail(
                    f"{self.degraded_worlds} worlds in one run lost messages "
                    "with no fault injected"
                )
                return None
            if spans is not None:
                del spans[mark:]

    def warm_up(self) -> float | None:
        return self._query(self.system, "warm")

    def repetitions(self, seconds: float) -> int:
        return timed_repetitions(self.spec.timed_queries, seconds)

    def repetition(self) -> tuple[list[float], float]:
        """(latencies of the queries that completed, timed seconds)."""
        latency = self._query(self.system, ("timed", next(self._timed)))
        return ([latency], latency) if latency is not None else ([], 0.0)

    # traced pass --------------------------------------------------------------

    def traced_pass(self, tracer: trace.Tracer) -> dict:
        """Each traced repetition is a fresh genesis (and world) plus one
        query, so every layer reads per query."""
        latencies = []
        extra = {}
        with tracer:
            for index in range(self.spec.traced_repetitions):
                system = self._genesis(("traced", index))
                latency = self._query(system, ("traced", index), tracer.spans)
                if latency is not None:
                    latencies.append(latency)
            spans = tracer.drain()
            if self.spec.mixnet is not None:
                world = self._build_world("reuse")
                reuse = [self._run_on(self.system, world)[0] for _ in range(REUSE_QUERIES)]
                tracer.drain()  # the probe stays out of the layer numbers
                if None not in reuse:
                    extra["mixnet.reuse_growth"] = reuse[-1] / reuse[0]
        return {"spans": spans, "latencies": latencies, "baseline": None, "extra": extra}

    def expected_layers(self) -> frozenset[str]:
        transport = MIXNET_LAYERS if self.spec.mixnet else IN_PROCESS_LAYERS
        return QUERY_LAYERS | {"core.system.run_query"} | transport

    def finish(self) -> None:
        pass


# -- the served workload -----------------------------------------------------------

SERVED_CLIENTS = 2  # = nproc on the sizing machine
SERVED_CYCLE = ("Q5", "Q4", "Q2", "Q8")
SERVED_EPSILON = 0.1
SERVED_PEOPLE = 8
#: Timed cycles (4 rounds of 2 queries each) at ``run_seconds``.
SERVED_TIMED_CYCLES = 3
#: The service draws every round's graph and keys from its master seed,
#: and a round's work follows that draw (0.5 to 1.75 s a round).  A run
#: covers about a dozen rounds, too few to average that out, so the
#: traffic is one fixed trace: ``--seed`` does not reach this workload.
SERVED_MASTER_SEED = 2


@dataclass
class Deployment:
    """One listening service and its connected analysts."""

    service: QueryService
    clients: list
    submitted: int = 0


class ServedWorkload:
    """Closed-loop analysts against an in-process ``QueryService`` over
    loopback: a client submits its next query only after the previous
    one released, because an analyst reads an answer before spending
    more epsilon."""

    devices = SERVED_PEOPLE

    def __init__(self, name: str, seed: int, tally: Tally):
        self.name = name
        self.seed = seed
        self.tally = tally
        self.world_builds: list[float] = []
        self.degraded_worlds = 0
        self.loop = asyncio.new_event_loop()
        self.directory = WORK_DIR / f"served-{os.getpid()}"
        self._deployments = itertools.count()
        self.deployment: Deployment | None = None
        #: (client, turn) -> outcome of the first timed cycle, which the
        #: traced pass replays.
        self.first_cycle: dict[tuple[int, int], dict] = {}

    def _run(self, coroutine):
        return self.loop.run_until_complete(coroutine)

    # set-up -------------------------------------------------------------------

    async def _deploy(self) -> Deployment:
        """A listening service with every analyst connected and answered
        a ping: ready to take queries."""
        directory = self.directory / f"deployment-{next(self._deployments)}"
        directory.mkdir(parents=True)
        config = ServiceConfig(
            master_seed=SERVED_MASTER_SEED,
            people=SERVED_PEOPLE,
            degree=3,
            total_epsilon=1e9,
            max_batch=4,
            max_inflight=64,
            directory=str(directory),
            fsync=False,
            offline_pools=False,
        )
        service = QueryService(config, runtime=RUNTIME)
        server = await service.serve(port=0)
        port = server.sockets[0].getsockname()[1]
        clients = [
            await ServiceClient.connect(port=port) for _ in range(SERVED_CLIENTS)
        ]
        for client in clients:
            await client.ping()
        return Deployment(service, clients)

    def _retire(self, deployment: Deployment) -> None:
        """Check the deployment's ledger, then close it."""

        async def close() -> None:
            for client in deployment.clients:
                await client.close()
            await deployment.service.shutdown()

        try:
            self._check_ledger(deployment)
        finally:
            self._run(close())

    def setup_sample(self, index: int) -> float:
        started = time.perf_counter()
        deployment = self._run(self._deploy())
        elapsed = time.perf_counter() - started
        if index == 0:
            self.deployment = deployment
        else:
            self._retire(deployment)
        return elapsed

    # queries ------------------------------------------------------------------

    async def _turns(self, deployment: Deployment, queries) -> tuple[dict, float]:
        """Every client submits ``queries`` in order, each waiting for
        its own release before the next.  Returns the outcomes by
        (client, turn), each with its ``client_latency``, and the wall."""
        outcomes: dict[tuple[int, int], dict] = {}

        async def analyst(index: int, client) -> None:
            for turn, query in enumerate(queries):
                self.tally.attempted += 1
                deployment.submitted += 1
                label = f"c{index}-{deployment.submitted}-{query}"
                started = time.perf_counter()
                try:
                    outcome = await client.submit(query, SERVED_EPSILON, label=label)
                except Exception as exc:  # noqa: BLE001 - refusals fail too
                    self.tally.fail(f"{label} raised {type(exc).__name__}: {exc}")
                    continue
                outcome["client_latency"] = time.perf_counter() - started
                outcomes[index, turn] = outcome

        started = time.perf_counter()
        await asyncio.gather(
            *(analyst(i, c) for i, c in enumerate(deployment.clients))
        )
        return outcomes, time.perf_counter() - started

    @staticmethod
    def _latencies(outcomes: dict) -> list[float]:
        return [o["client_latency"] for o in outcomes.values()]

    def warm_up(self) -> float | None:
        outcomes, _ = self._run(self._turns(self.deployment, SERVED_CYCLE[:1]))
        return measure.percentile(self._latencies(outcomes), 0.5) if outcomes else None

    def repetitions(self, seconds: float) -> int:
        return timed_repetitions(SERVED_TIMED_CYCLES, seconds)

    def repetition(self) -> tuple[list[float], float]:
        """One cycle by every client: (latencies, wall seconds)."""
        outcomes, wall = self._run(self._turns(self.deployment, SERVED_CYCLE))
        if not self.first_cycle:
            self.first_cycle = outcomes
        return self._latencies(outcomes), wall

    # traced pass --------------------------------------------------------------

    def traced_pass(self, tracer: trace.Tracer) -> dict:
        """A second deployment with the same master seed replays the
        first deployment's opening rounds under the tracer, so the two
        passes did identical work and must release identical values."""
        deployment = self._run(self._deploy())
        try:
            self._run(self._turns(deployment, SERVED_CYCLE[:1]))
            with tracer:
                traced, _ = self._run(self._turns(deployment, SERVED_CYCLE))
        finally:
            self._retire(deployment)
        spans = tracer.drain()
        for key, outcome in traced.items():
            twin = self.first_cycle.get(key)
            if twin is None or twin["result"] != outcome["result"]:
                self.tally.fail(f"client/turn {key}: traced and untraced releases differ")
        extra = {}
        rounds = sorted({o["round"] for o in traced.values()})
        campaigns = trace.roots(spans, "durability.campaign.run")
        setups = [
            s for s in trace.visible_spans(spans) if s[trace.NAME] == "core.system.setup"
        ]
        if not (len(campaigns) == len(setups) == len(rounds)):
            # Every served round is one campaign with its own genesis.
            self.tally.fail(
                f"{len(rounds)} traced rounds but {len(campaigns)} campaign "
                f"spans and {len(setups)} genesis spans"
            )
        elif traced:
            duration = {
                r: c[trace.END] - c[trace.START] for r, c in zip(rounds, campaigns)
            }
            waits = [
                o["client_latency"] - duration[o["round"]] for o in traced.values()
            ]
            extra["service.queue_wait_s"] = math.fsum(waits) / len(waits)
            journal_bytes = sum(
                (deployment.service.directory / f"round-{r:04d}" / "journal.jsonl")
                .stat()
                .st_size
                for r in rounds
            )
            extra["durability.journal_bytes_per_query"] = journal_bytes / len(traced)
        return {
            "spans": spans,
            "latencies": self._latencies(traced),
            "baseline": self._latencies(self.first_cycle),
            "extra": extra,
        }

    def expected_layers(self) -> frozenset[str]:
        return QUERY_LAYERS | IN_PROCESS_LAYERS | SERVED_LAYERS

    # the served correctness gate ------------------------------------------------

    def _check_ledger(self, deployment: Deployment) -> None:
        """Every submission accounted for, epsilon conserved and spent
        exactly once per submission."""
        stats = deployment.service.stats()
        submitted = deployment.submitted
        results, budget = stats["results"], stats["budget"]
        if results["completed"] != submitted or results["failed"] != 0:
            self.tally.fail(
                f"served ledger: completed {results['completed']}, failed "
                f"{results['failed']} of {submitted} submitted"
            )
        if not budget["conserved"]:
            self.tally.fail("served ledger: epsilon not conserved")
        if budget["spent"] != math.fsum([SERVED_EPSILON] * submitted):
            self.tally.fail(
                f"served ledger: spent {budget['spent']!r} for {submitted} "
                f"submissions of {SERVED_EPSILON}"
            )
        if stats["admitted"] != submitted or stats["rejected_budget"] != 0:
            self.tally.fail(
                f"served ledger: admitted {stats['admitted']}, refused "
                f"{stats['rejected_budget']} of {submitted}"
            )

    def finish(self) -> None:
        try:
            if self.deployment is not None:
                self._retire(self.deployment)
        finally:
            self.loop.close()
            shutil.rmtree(self.directory, ignore_errors=True)
            remove_work_dir_if_empty()


WORKLOAD_CLASSES = {**{name: DirectWorkload for name in DIRECT}, "served_mix": ServedWorkload}


# -- one workload, one interpreter ---------------------------------------------------


def sample_setup(workload) -> list[float]:
    samples = []
    while len(samples) < SETUP_SAMPLES and (
        not samples or math.fsum(samples) < SETUP_BUDGET_SECONDS
    ):
        samples.append(workload.setup_sample(len(samples)))
    return samples


def per_layer_metrics(workload, passed: dict) -> tuple[dict, dict]:
    """(the per-layer metrics by name, the fuller layer table), both per
    traced query."""
    queries = len(passed["latencies"])
    if not queries:
        raise trace.TraceError("no traced query completed")
    table = trace.layer_table(passed["spans"])
    trace.require_calls(table, workload.expected_layers(), workload.name)
    metrics = {}
    for name in trace.SPAN_NAMES:
        row = table.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        metrics[f"{name}.calls"] = row["calls"] / queries
        metrics[f"{name}.self_s"] = row["self_s"] / queries
    origins = queries * workload.devices
    uploads = trace.notes(passed["spans"], "engine.encrypted.run") + trace.notes(
        passed["spans"], "core.transport.run"
    )
    metrics["engine.upload_bytes_per_origin"] = sum(u[0] for u in uploads) / origins
    metrics["engine.proofs_per_origin"] = sum(u[1] for u in uploads) / origins
    metrics["core.aggregator.relins_per_origin"] = (
        sum(trace.notes(passed["spans"], "crypto.bgv.relinearize")) / origins
    )
    metrics["runtime.backends.products_per_origin"] = (
        table.get("runtime.backends.ring_multiply", {"calls": 0})["calls"] / origins
    )
    metrics["mixnet.crounds_per_query"] = (
        table.get("mixnet.network.run_round", {"calls": 0})["calls"] / queries
    )
    metrics["bench.trace_overhead"] = (
        statistics.fmean(passed["latencies"]) / statistics.fmean(passed["baseline"]) - 1.0
    )
    metrics.update(passed["extra"])
    # layer_table has checked that self times add up to the root spans.
    root_seconds = sum(row["self_s"] for row in table.values())
    layers = {
        name: {
            "calls": row["calls"] / queries,
            "self_s": row["self_s"] / queries,
            "total_s": row["total_s"] / queries,
            "self_share_of_roots": row["self_s"] / root_seconds,
        }
        for name, row in sorted(table.items())
    }
    return metrics, layers


def environment(args) -> dict:
    commit = "unknown"
    if (ROOT / ".git").exists():
        probe = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, check=False,
        )
        if probe.returncode == 0:
            commit = probe.stdout.strip()
    return {
        "git_commit": commit,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "backend": RUNTIME.backend,
        "workers": RUNTIME.workers,
        "shards": RUNTIME.shards,
        "seed": args.seed,
        "seconds": args.seconds,
    }


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> dict:
    """Set up, warm up, time, (trace,) check.  Returns the full record."""
    calibration_start = measure.calibration_seconds()
    tally = Tally()
    workload = WORKLOAD_CLASSES[name](name, seed, tally)
    per_layer = layers = None
    try:
        setups = [IMPORT_SECONDS + s for s in sample_setup(workload)]
        first_query = workload.warm_up()
        latencies: list[float] = []
        busy = 0.0
        for _ in range(workload.repetitions(seconds)):
            done, spent = workload.repetition()
            latencies.extend(done)
            busy += spent
        peak_rss = measure.peak_rss_mib()  # before the tracer's spans inflate it
        if not latencies:
            raise NothingMeasured(tally.errors)
        end_to_end = {
            "query_s": measure.percentile(latencies, 0.5),
            "query_p75_s": measure.percentile(latencies, 0.75),
            "origins_per_s": workload.devices * len(latencies) / busy,
            "setup_s": measure.percentile(setups, 0.5),
            "peak_rss_mb": peak_rss,
        }
        if traced:
            try:
                passed = workload.traced_pass(trace.Tracer(observers=OBSERVERS))
                passed["baseline"] = passed["baseline"] or latencies
                per_layer, layers = per_layer_metrics(workload, passed)
            except trace.TraceError as exc:
                tally.fail(f"tracer: {exc}")
    finally:
        workload.finish()
    calibration_end = measure.calibration_seconds()
    world_builds = workload.world_builds
    if abs(calibration_end - calibration_start) > CALIBRATION_TOLERANCE * min(
        calibration_start, calibration_end
    ):
        print(
            f"warning: calibration kernel read {calibration_start:.4f}s before and "
            f"{calibration_end:.4f}s after {name} (noisy neighbour?)",
            file=sys.stderr,
        )
    if per_layer is not None:
        per_layer["bench.first_query_s"] = first_query or 0.0
        per_layer["bench.world_build_s"] = (
            measure.percentile(world_builds, 0.5) if world_builds else 0.0
        )
        per_layer["bench.calibration_s"] = min(calibration_start, calibration_end)
        for metric in DERIVED_METRICS:
            # Not every derived metric applies to every workload (no
            # mixnet rounds on ring_small); those read 0.
            per_layer.setdefault(metric, 0.0)
    return {
        "workload": name,
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_share": tally.failed / tally.attempted,
        "errors": tally.errors,
        "degraded_worlds": workload.degraded_worlds,
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "layers": layers,
        "samples": {
            "query_s": measure.summary(latencies),
            "setup_s": measure.summary(setups),
            **({"world_build_s": measure.summary(world_builds)} if world_builds else {}),
        },
        "calibration_s": {"start": calibration_start, "end": calibration_end},
    }


# -- output ----------------------------------------------------------------------


def with_units(metrics: dict) -> dict:
    return {
        name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()
    }


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, value in record["end_to_end"].items():
        stated = record["samples"].get(metric)
        spread = (
            f"   (n={stated['n']}, q1={stated['q1']:.4f}, q3={stated['q3']:.4f})"
            if stated
            else ""
        )
        print(f"{name:14s} {metric:48s} {value:14.6f} {UNITS[metric]}{spread}")
    print(
        f"{name:14s} {'failed_share':48s} {record['failed_share']:14.6f} ratio"
        f"   ({record['failed']} of {record['attempted']} queries)"
    )
    for metric, value in (record["per_layer"] or {}).items():
        print(f"{name:14s} {metric:48s} {value:14.6f} {UNITS[metric]}")
    for error in record["errors"]:
        print(f"{name:14s} FAILED: {error}", file=sys.stderr)


def run_one(args) -> int:
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except NothingMeasured as exc:
        for error in exc.args[0]:
            print(f"{args.workload:14s} FAILED: {error}", file=sys.stderr)
        return 1
    record["environment"] = environment(args)
    print_record(record)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    reported = record["per_layer"] if args.trace else record["end_to_end"]
    if reported is None:  # the traced pass itself failed
        return 1
    print(
        json.dumps(
            {
                "correct": record["correct"],
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": with_units(reported),
            }
        )
    )
    return 0 if record["correct"] else 1


def run_all(args) -> int:
    """Every workload, each in a fresh interpreter, one after another."""
    WORK_DIR.mkdir(exist_ok=True)
    ledger = {"schema": "perf-ledger-v1", "workloads": {}}
    status = 0
    started = time.perf_counter()
    try:
        for workload in (w["name"] for w in SPEC["workloads"]):
            record_path = WORK_DIR / f"record-{os.getpid()}-{workload}.json"
            child = subprocess.run(
                [
                    sys.executable, str(PERF_DIR / "run.py"),
                    "--workload", workload,
                    "--seed", str(args.seed),
                    "--seconds", str(args.seconds),
                    "--trace", "1",
                    "--out", str(record_path),
                ],
                stdout=subprocess.PIPE, text=True, check=False,
            )
            sys.stdout.write("\n".join(child.stdout.splitlines()[:-1]) + "\n")
            status = status or child.returncode
            if record_path.exists():
                record = json.loads(record_path.read_text())
                ledger["environment"] = record.pop("environment")
                ledger["workloads"][workload] = record
                record_path.unlink()
            else:
                status = 1
    finally:
        remove_work_dir_if_empty()
    ledger["wall_s"] = time.perf_counter() - started
    print(f"total wall {ledger['wall_s']:.1f} s, exit {status}")
    if args.out:
        Path(args.out).write_text(json.dumps(ledger, indent=1) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[w["name"] for w in SPEC["workloads"]])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="write the full record (JSON) here")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if args.self_test:
        import selftest

        return selftest.main()
    if args.workload:
        return run_one(args)
    return run_all(args)


if __name__ == "__main__":
    sys.exit(main())
