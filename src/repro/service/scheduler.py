"""Round scheduling: batch admitted submissions, run each batch as a
journaled campaign.

The scheduler consumes the bounded admission queue and forms *rounds*:
FIFO batches of up to ``max_batch`` already-admitted submissions.  A
round executes as one :class:`repro.durability.CampaignRunner` campaign
in a worker thread — every round is therefore write-ahead journaled
under ``<service dir>/round-NNNN/``, and a crashed round is resumable
with the ordinary ``python -m repro campaign --resume`` machinery.
Queries batched into one round share the campaign's telescoping paths
(`reuse_paths` applies from the second query on), which is the §3.4
amortization that makes batching worth doing.

Determinism: round ``n`` of a service seeded with ``master_seed`` runs
its campaign with ``derive_seed(master_seed, "service", n)``, so a
seeded submission stream drained by the scheduler produces bit-identical
batches, campaigns, and results on every run — the property
``tests/service/test_scheduler.py`` pins.

Rounds run strictly one at a time.  That keeps the telemetry tracer's
span stack coherent (one campaign thread at a time) and makes admission
order the only scheduling freedom; concurrency lives in the *clients*,
whose submissions overlap the in-flight round through the queue.
"""

from __future__ import annotations

import asyncio
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.durability.campaign import CampaignConfig, CampaignRunner
from repro.runtime import RuntimeConfig
from repro.runtime.seeding import derive_seed
from repro.service.results import CompletedQuery, ResultStream
from repro.telemetry import clock

#: Queue sentinel: drain what remains, then exit the scheduler loop.
SHUTDOWN = object()


@dataclass
class Submission:
    """One admitted query waiting for (or riding in) a round."""

    text: str
    epsilon: float
    label: str
    future: asyncio.Future
    submitted_at: float = field(default_factory=clock.perf_counter)
    #: Per-query deadline (seconds from submission, end to end through
    #: admission → campaign → decode); ``None`` means no deadline.
    deadline_seconds: float | None = None
    #: Aborted-round re-queues consumed (at most ``max_retries``).
    retries: int = 0

    def expired(self, now: float | None = None) -> bool:
        if self.deadline_seconds is None:
            return False
        now = clock.perf_counter() if now is None else now
        return now - self.submitted_at >= self.deadline_seconds

    def resolve(self, round_index: int, payload: dict) -> CompletedQuery:
        latency = clock.perf_counter() - self.submitted_at
        entry = CompletedQuery(
            label=self.label,
            round_index=round_index,
            latency_seconds=latency,
            result=payload,
        )
        if not self.future.done():
            self.future.set_result(
                {
                    "result": payload,
                    "latency_seconds": latency,
                    "round": round_index,
                }
            )
        return entry

    def fail(self, round_index: int, exc: Exception) -> CompletedQuery:
        latency = clock.perf_counter() - self.submitted_at
        if not self.future.done():
            self.future.set_exception(exc)
        return CompletedQuery(
            label=self.label,
            round_index=round_index,
            latency_seconds=latency,
            error=f"{type(exc).__name__}: {exc}",
        )


class Scheduler:
    """Drains the admission queue into sequential journaled rounds."""

    def __init__(
        self,
        queue: asyncio.Queue,
        stream: ResultStream,
        directory: Path,
        *,
        master_seed: int,
        people: int,
        degree: int,
        committee_size: int = 3,
        committee_threshold: int = 2,
        rotate_every: int = 0,
        max_batch: int = 4,
        fsync: bool = True,
        runtime: RuntimeConfig | None = None,
        admission=None,
        max_retries: int = 1,
    ):
        self.queue = queue
        self.stream = stream
        self.directory = Path(directory)
        self.master_seed = master_seed
        self.people = people
        self.degree = degree
        self.committee_size = committee_size
        self.committee_threshold = committee_threshold
        self.rotate_every = rotate_every
        self.max_batch = max(1, max_batch)
        self.fsync = fsync
        self.runtime = runtime
        #: The service's AdmissionController, when attached: deadline
        #: drops that never executed refund their epsilon through it.
        self.admission = admission
        #: How many aborted rounds a submission may ride out before its
        #: round's exception is forwarded to the client.
        self.max_retries = max(0, max_retries)
        self.rounds_run = 0
        self.rounds_aborted = 0
        self.batch_log: list[list[str]] = []
        #: Survivors of an aborted round, re-queued internally (the
        #: shared asyncio queue may already hold the SHUTDOWN sentinel
        #: behind them, so retries never travel through it).
        self._retry: list[Submission] = []

    async def run(self) -> None:
        """The scheduler loop: block for work, drain a batch, execute.

        Re-queued survivors of an aborted round take priority over new
        queue work and are drained even after SHUTDOWN is seen — a
        poisoned round never wedges the service or strands a client
        future (blast-radius isolation; docs/RESILIENCE.md).
        """
        stopping = False
        while True:
            if self._retry:
                batch, self._retry = self._retry, []
                await self._execute_round(batch)
                continue
            if stopping:
                break
            head = await self.queue.get()
            if head is SHUTDOWN:
                stopping = True
                continue
            batch = [head]
            while len(batch) < self.max_batch:
                try:
                    item = self.queue.get_nowait()
                except asyncio.QueueEmpty:
                    break
                if item is SHUTDOWN:
                    stopping = True
                    break
                batch.append(item)
            await self._execute_round(batch)

    # -- one round -----------------------------------------------------------

    def _campaign_config(self, batch: list[Submission]) -> CampaignConfig:
        return CampaignConfig(
            master_seed=derive_seed(
                self.master_seed, "service", self.rounds_run
            ),
            queries=tuple((s.text, s.epsilon) for s in batch),
            people=self.people,
            degree=self.degree,
            # The service ledger already charged these epsilons; the
            # campaign's internal budget only needs to admit exactly
            # this batch (fsum matches can_afford's exact arithmetic).
            total_epsilon=math.fsum(s.epsilon for s in batch),
            committee_size=self.committee_size,
            committee_threshold=self.committee_threshold,
            rotate_every=self.rotate_every,
        )

    def _run_campaign(self, config: CampaignConfig, directory: Path):
        """Executed in a worker thread; the only place service spans may
        open, so they nest cleanly around the campaign's own spans."""
        with telemetry.span(
            "service.round",
            round=self.rounds_run,
            batch=len(config.queries),
        ):
            return CampaignRunner.start(
                config, directory, runtime=self.runtime, fsync=self.fsync
            ).run()

    def _drop_expired_before_round(
        self, batch: list[Submission]
    ) -> list[Submission]:
        """Shed submissions whose deadline passed before their round
        launched.  These never executed, so their epsilon charge is
        refunded to the ledger."""
        from repro.errors import DeadlineExceeded

        now = clock.perf_counter()
        live: list[Submission] = []
        for submission in batch:
            if not submission.expired(now):
                live.append(submission)
                continue
            telemetry.count("service.rejected.deadline")
            if self.admission is not None:
                self.admission.refund(submission.label, submission.epsilon)
            self.stream.record(
                submission.fail(
                    self.rounds_run,
                    DeadlineExceeded(
                        f"query {submission.label!r} missed its "
                        f"{submission.deadline_seconds}s deadline before "
                        "its round launched; epsilon refunded"
                    ),
                )
            )
        return live

    async def _execute_round(self, batch: list[Submission]) -> None:
        from repro.errors import DeadlineExceeded

        batch = self._drop_expired_before_round(batch)
        if not batch:
            return
        round_index = self.rounds_run
        config = self._campaign_config(batch)
        directory = self.directory / f"round-{round_index:04d}"
        self.batch_log.append([s.label for s in batch])
        telemetry.count("service.rounds.total")
        telemetry.observe("service.batch.size", float(len(batch)))
        loop = asyncio.get_running_loop()
        try:
            result = await loop.run_in_executor(
                None, self._run_campaign, config, directory
            )
        except Exception as exc:  # noqa: BLE001 - forwarded to clients
            # Blast-radius isolation: the poisoned round is aborted and
            # each survivor is re-queued once.  The retry round runs
            # under a fresh seed and a fresh round-NNNN/ journal (the
            # rounds_run bump below renumbers both), so a seed-dependent
            # poison cannot strike the same queries twice.  The epsilon
            # stays charged either way — the round *executed*; only its
            # answer was lost (docs/SERVICE.md).
            self.rounds_aborted += 1
            telemetry.count("service.rounds.aborted")
            for submission in batch:
                if submission.retries < self.max_retries:
                    submission.retries += 1
                    telemetry.count("service.requeued.total")
                    self._retry.append(submission)
                else:
                    self.stream.record(submission.fail(round_index, exc))
        else:
            now = clock.perf_counter()
            for submission, payload in zip(batch, result.results):
                if submission.expired(now):
                    # The query ran — the charge stands — but the answer
                    # came back past the deadline, so it is withheld.
                    telemetry.count("service.rejected.deadline")
                    self.stream.record(
                        submission.fail(
                            round_index,
                            DeadlineExceeded(
                                f"query {submission.label!r} completed "
                                "after its "
                                f"{submission.deadline_seconds}s deadline"
                            ),
                        )
                    )
                else:
                    self.stream.record(
                        submission.resolve(round_index, payload)
                    )
        finally:
            self.rounds_run += 1

    # -- introspection -------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        return {
            "rounds": self.rounds_run,
            "rounds_aborted": self.rounds_aborted,
            "max_batch": self.max_batch,
            "batches": [list(b) for b in self.batch_log],
        }
