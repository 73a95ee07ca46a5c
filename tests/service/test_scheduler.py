"""Scheduler behaviour: deterministic batching, backpressure, draining.

Round *contents* are exercised against the real campaign runner only in
the determinism test (the seeded-stream property needs real results);
the queueing tests swap ``Scheduler._run_campaign`` for an in-test fake
so the timing-sensitive scenarios — a stalled round backing up the
bounded queue, shutdown racing in-flight work — stay fast and fully
deterministic.
"""

from __future__ import annotations

import asyncio
import threading

import pytest

from repro import telemetry
from repro.errors import QueueFullRejected, ServiceShutdown
from repro.query.catalog import CATALOG
from repro.service import (
    QueryService,
    ResultStream,
    Scheduler,
    ServiceConfig,
    Submission,
)
from repro.service.scheduler import SHUTDOWN


class FakeCampaignResult:
    def __init__(self, count: int):
        self.results = [{"fake": i} for i in range(count)]


def instant_rounds(service: QueryService):
    """Replace real campaign execution with an instant fake."""

    def fake(config, directory):
        return FakeCampaignResult(len(config.queries))

    service.scheduler._run_campaign = fake


def stalled_rounds(service: QueryService) -> threading.Event:
    """Replace campaign execution with one that blocks (in its worker
    thread) until the returned event is set."""
    release = threading.Event()

    def fake(config, directory):
        assert release.wait(timeout=30), "test forgot to release the round"
        return FakeCampaignResult(len(config.queries))

    service.scheduler._run_campaign = fake
    return release


# -- seeded determinism ------------------------------------------------------


async def _drain_seeded_stream(tmp_path, tag: str):
    """Push a fixed submission stream through a fresh scheduler and
    collect (batch_log, ordered result payloads)."""
    specs = [("Q5", 0.5), ("Q4", 0.5), ("Q2", 0.5)]
    queue: asyncio.Queue = asyncio.Queue()
    stream = ResultStream()
    scheduler = Scheduler(
        queue,
        stream,
        tmp_path / tag,
        master_seed=7,
        people=8,
        degree=3,
        max_batch=2,
        fsync=False,
    )
    loop = asyncio.get_running_loop()
    futures = []
    for index, (name, epsilon) in enumerate(specs):
        future = loop.create_future()
        futures.append(future)
        queue.put_nowait(
            Submission(
                text=CATALOG[name].text,
                epsilon=epsilon,
                label=f"{name}#{index}",
                future=future,
            )
        )
    queue.put_nowait(SHUTDOWN)
    await scheduler.run()
    outcomes = [future.result() for future in futures]
    return scheduler.batch_log, [o["result"] for o in outcomes], [
        o["round"] for o in outcomes
    ]


def test_seeded_stream_batches_and_results_are_deterministic(tmp_path):
    """The same seeded submission stream, drained twice by fresh
    schedulers, forms identical batches and produces identical released
    results (round seeds derive from ``(master_seed, "service", n)``)."""
    batches_a, results_a, rounds_a = asyncio.run(
        _drain_seeded_stream(tmp_path, "a")
    )
    batches_b, results_b, rounds_b = asyncio.run(
        _drain_seeded_stream(tmp_path, "b")
    )
    # FIFO batching at max_batch=2 over three submissions: [2, 1].
    assert batches_a == [["Q5#0", "Q4#1"], ["Q2#2"]]
    assert batches_a == batches_b
    assert rounds_a == [0, 0, 1] == rounds_b
    # Bit-identical released payloads, run to run.
    assert results_a == results_b
    # Each round left a resumable journal on disk.
    assert (tmp_path / "a" / "round-0000").is_dir()
    assert (tmp_path / "a" / "round-0001").is_dir()


# -- backpressure ------------------------------------------------------------


def test_bounded_queue_rejects_with_typed_backpressure(tmp_path):
    """With one queue slot and a stalled round, a third submission gets
    a typed QueueFullRejected and its epsilon is refunded."""

    async def scenario():
        service = QueryService(
            ServiceConfig(
                max_inflight=1, total_epsilon=10.0, directory=str(tmp_path)
            )
        )
        release = stalled_rounds(service)
        await service.start()
        first = asyncio.ensure_future(service.submit("Q1", 0.5, label="first"))
        await asyncio.sleep(0.05)  # scheduler pulls `first` into the round
        second = asyncio.ensure_future(
            service.submit("Q1", 0.5, label="second")
        )
        await asyncio.sleep(0.05)  # `second` now holds the only queue slot
        with pytest.raises(QueueFullRejected):
            await service.submit("Q1", 0.5, label="third")
        # The rejected submission's charge was rolled back: only the two
        # admitted epsilons are on the ledger.
        assert service.admission.spent == 1.0
        assert [label for label, _ in service.admission.ledger()] == [
            "first",
            "second",
        ]
        release.set()
        outcomes = await asyncio.gather(first, second)
        await service.shutdown()
        return service, outcomes

    service, outcomes = asyncio.run(scenario())
    assert [o["round"] for o in outcomes] == [0, 1]
    assert service.admission.conserved()


# -- graceful shutdown -------------------------------------------------------


def test_shutdown_drains_inflight_rounds(tmp_path):
    """shutdown() stops admission immediately but resolves everything
    already admitted — queued submissions are not dropped."""

    async def scenario():
        service = QueryService(
            ServiceConfig(
                max_batch=2, total_epsilon=10.0, directory=str(tmp_path)
            )
        )
        instant_rounds(service)
        await service.start()
        tasks = [
            asyncio.ensure_future(service.submit("Q2", 0.1, label=f"q{i}"))
            for i in range(5)
        ]
        await asyncio.sleep(0.05)  # all five admitted and queued
        shutdown = asyncio.ensure_future(service.shutdown())
        outcomes = await asyncio.gather(*tasks)
        await shutdown
        # Admission is closed after shutdown.
        with pytest.raises(ServiceShutdown):
            await service.submit("Q2", 0.1)
        return service, outcomes

    service, outcomes = asyncio.run(scenario())
    assert len(outcomes) == 5
    assert all("result" in o for o in outcomes)
    assert not service.accepting
    assert service.stream.ok_count == 5
    # Everything already admitted ran to completion before exit.
    assert service.scheduler.rounds_run >= 3  # ceil(5 / max_batch=2)


# -- round failure -----------------------------------------------------------


def test_failed_round_fails_its_whole_batch_and_keeps_epsilon_spent(tmp_path):
    """A round that dies forwards the error to every rider; the charged
    epsilon stays spent (conservative DP accounting, docs/SERVICE.md)."""

    async def scenario():
        service = QueryService(
            ServiceConfig(
                max_batch=4, total_epsilon=10.0, directory=str(tmp_path)
            )
        )

        def exploding(config, directory):
            raise RuntimeError("round died mid-campaign")

        service.scheduler._run_campaign = exploding
        await service.start()
        outcomes = await asyncio.gather(
            service.submit("Q1", 0.5, label="a"),
            service.submit("Q2", 0.5, label="b"),
            return_exceptions=True,
        )
        await service.shutdown()
        return service, outcomes

    service, outcomes = asyncio.run(scenario())
    assert all(isinstance(o, RuntimeError) for o in outcomes)
    assert service.stream.failed_count == 2
    assert service.stream.ok_count == 0
    # Conservative: a failed round's epsilon is NOT refunded.
    assert service.admission.spent == 1.0
    assert service.admission.conserved()


# -- offline pools -----------------------------------------------------------


async def _serve_one_round(tmp_path, tag: str, offline_pools: bool):
    service = QueryService(
        ServiceConfig(
            master_seed=7,
            people=8,
            directory=str(tmp_path / tag),
            fsync=False,
            offline_pools=offline_pools,
            pool_entries=2,
        )
    )
    await service.start()
    outcomes = await asyncio.gather(
        service.submit("Q5", 0.5), service.submit("Q4", 0.5)
    )
    await service.shutdown()
    return service, [o["result"] for o in outcomes]


def test_offline_pools_round_releases_the_inline_values_and_retires(tmp_path):
    """``ServiceConfig(offline_pools=True)``: the scheduler refills the
    store for the round's predicted seeds, the campaign draws from it,
    and the released values are those of the inline round at the same
    master seed; the single-use pools are gone afterwards."""
    _, inline = asyncio.run(_serve_one_round(tmp_path, "inline", False))
    with telemetry.session() as active:
        service, pooled = asyncio.run(_serve_one_round(tmp_path, "pooled", True))
    assert pooled == inline
    counters = active.snapshot()["counters"]
    assert counters.get("offline.pool.hits", 0) > 0
    assert counters.get("offline.precompute.units", 0) > 0
    assert service.scheduler.offline_store.encryption_pools() == []
