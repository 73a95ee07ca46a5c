"""The long-lived asyncio query service (ROADMAP item 1).

``QueryService`` promotes the one-shot campaign runner into a persistent
server: analysts submit a *stream* of queries, a
:class:`~repro.service.scheduler.Scheduler` batches compatible queries
into rounds, each round executes as one write-ahead-journaled campaign,
and results stream back with latency/goodput percentiles.  Admission is
gated by the DP epsilon ledger through the
:class:`~repro.service.admission.AdmissionController`; the ledger is
the deployment's authoritative privacy budget, and its conservation is
an audited invariant.

Two client surfaces share one submission path:

* **in-process** — ``await service.submit("Q5", epsilon=0.5)`` from any
  coroutine in the same process (used by tests and the sustained-traffic
  benchmark);
* **socket** — ``await service.serve(host, port)`` speaks the
  length-prefixed JSON frame protocol of
  :mod:`repro.service.protocol`; :class:`repro.service.client.ServiceClient`
  is the reference client.  ``python -m repro serve`` wires this up.

Submission lifecycle (documented with its state machine in
``docs/SERVICE.md``)::

    received -> validated -> admitted -> queued -> batched -> done
                   |            |                     |
                   v            v                     v
               bad_query   budget/queue-full      round error
               (rejected)     (rejected)           (failed)

Shutdown is graceful by default: the service stops admitting, the
scheduler drains every queued round, and in-flight clients get their
results before ``shutdown()`` returns.
"""

from __future__ import annotations

import asyncio
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.dp.budget import PrivacyBudget
from repro.errors import ParameterError, QueueFullRejected, ServiceShutdown
from repro.params import SystemParameters
from repro.query.catalog import CATALOG
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.runtime import RuntimeConfig
from repro.service import protocol
from repro.service.admission import AdmissionController
from repro.service.results import ResultStream
from repro.service.scheduler import SHUTDOWN, Scheduler, Submission


@dataclass(frozen=True)
class ServiceConfig:
    """Everything that defines one service deployment."""

    master_seed: int = 7
    people: int = 8
    degree: int = 3
    #: The deployment's total epsilon ledger (admission gate).
    total_epsilon: float = 10.0
    committee_size: int = 3
    committee_threshold: int = 2
    #: Scheduled VSR handoff cadence inside each round's campaign
    #: (0 = never; served rounds default to no rotation).
    rotate_every: int = 0
    #: Most submissions batched into one scheduled round.
    max_batch: int = 4
    #: Bound of the admission queue — backpressure past this depth.
    max_inflight: int = 64
    #: Root directory for per-round campaign journals (``round-NNNN/``);
    #: ``None`` uses a fresh temporary directory.
    directory: str | None = None
    #: Per-record fsync in the round journals (disable for benchmarks).
    fsync: bool = True
    #: Accepts only ``False``: the offline phase was removed and every
    #: round encrypts inline (docs/PERFORMANCE.md).
    offline_pools: bool = False
    #: Default per-query deadline in seconds (``None`` = none); a
    #: submission may override it per request.  Enforced end to end:
    #: before the round launches (epsilon refunded) and after decode
    #: (answer withheld, epsilon stands) — docs/SERVICE.md.
    default_deadline_seconds: float | None = None
    #: How many aborted rounds a submission survives by re-queueing
    #: (blast-radius isolation; 1 = re-queue once with a fresh seed).
    max_round_retries: int = 1

    def __post_init__(self) -> None:
        if self.offline_pools:
            raise ParameterError(
                "offline_pools=True is not supported: the offline phase "
                "was removed and every round encrypts inline"
            )


class QueryService:
    """A persistent, budget-gated query service over one deployment."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        runtime: RuntimeConfig | None = None,
    ):
        self.config = config or ServiceConfig()
        self.runtime = runtime
        self.directory = Path(
            self.config.directory
            or tempfile.mkdtemp(prefix="mycelium-service-")
        )
        self.admission = AdmissionController(
            PrivacyBudget(total_epsilon=self.config.total_epsilon)
        )
        self.stream = ResultStream()
        self.queue: asyncio.Queue = asyncio.Queue(
            maxsize=max(1, self.config.max_inflight)
        )
        self.scheduler = Scheduler(
            self.queue,
            self.stream,
            self.directory,
            master_seed=self.config.master_seed,
            people=self.config.people,
            degree=self.config.degree,
            committee_size=self.config.committee_size,
            committee_threshold=self.config.committee_threshold,
            rotate_every=self.config.rotate_every,
            max_batch=self.config.max_batch,
            fsync=self.config.fsync,
            runtime=runtime,
            admission=self.admission,
            max_retries=self.config.max_round_retries,
        )
        self._params = SystemParameters(
            num_devices=self.config.people,
            degree_bound=self.config.degree,
            hops=2,
            committee_size=self.config.committee_size,
            replicas=2,
            forwarder_fraction=0.3,
        )
        self._schema = scaled_schema()
        self._scheduler_task: asyncio.Task | None = None
        self._accepting = False
        self._server: asyncio.Server | None = None
        self.submissions_seen = 0
        self.inflight = 0

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> None:
        """Start the scheduler loop; idempotent."""
        if self._scheduler_task is None or self._scheduler_task.done():
            self._scheduler_task = asyncio.ensure_future(
                self.scheduler.run()
            )
        self._accepting = True

    async def shutdown(self) -> None:
        """Stop admitting, drain every queued round, close the socket
        server.  In-flight submissions resolve before this returns."""
        self._accepting = False
        if self._scheduler_task is not None:
            await self.queue.put(SHUTDOWN)
            await self._scheduler_task
            self._scheduler_task = None
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    @property
    def accepting(self) -> bool:
        return self._accepting

    # -- in-process client API ----------------------------------------------

    def _validate(self, query: str) -> str:
        """Resolve catalog ids and compile at the door, so malformed or
        infeasible queries are rejected before touching the ledger."""
        text = CATALOG[query].text if query in CATALOG else query
        compile_query(parse(text), self._params, self._schema)
        return text

    async def submit(
        self,
        query: str,
        epsilon: float,
        label: str | None = None,
        deadline_seconds: float | None = None,
    ) -> dict:
        """Submit one query; resolves when its round releases.

        Returns ``{"result": <released payload>, "latency_seconds": ...,
        "round": <int>}``.  Raises a typed error on rejection:
        :class:`~repro.errors.QueryError` (invalid/unsupported query),
        :class:`~repro.errors.BudgetRejected`,
        :class:`~repro.errors.QueueFullRejected`,
        :class:`~repro.errors.DeadlineExceeded` (per-query deadline
        expired anywhere along admission → campaign → decode), or
        :class:`~repro.errors.ServiceShutdown`.

        ``deadline_seconds`` overrides the config's default deadline for
        this submission (``None`` inherits the default; pass a
        non-positive value to fail immediately without charging).
        """
        from repro.errors import DeadlineExceeded

        self.submissions_seen += 1
        telemetry.count("service.submissions.total")
        if not self._accepting:
            raise ServiceShutdown("service is not accepting submissions")
        text = self._validate(query)
        label = label or query
        if deadline_seconds is None:
            deadline_seconds = self.config.default_deadline_seconds
        if deadline_seconds is not None and deadline_seconds <= 0:
            # Already expired at the door: reject before the ledger is
            # ever touched.
            telemetry.count("service.rejected.deadline")
            raise DeadlineExceeded(
                f"query {label!r} arrived with a non-positive deadline "
                f"({deadline_seconds}s)"
            )
        future: asyncio.Future = asyncio.get_running_loop().create_future()
        submission = Submission(
            text=text, epsilon=epsilon, label=label, future=future,
            deadline_seconds=deadline_seconds,
        )

        def enqueue() -> None:
            try:
                self.queue.put_nowait(submission)
            except asyncio.QueueFull:
                telemetry.count("service.rejected.queue_full")
                raise QueueFullRejected(
                    f"admission queue is full "
                    f"({self.config.max_inflight} in flight); retry later"
                ) from None
            self.inflight += 1
            telemetry.set_gauge("service.inflight", float(self.inflight))

        await self.admission.admit(epsilon, label, enqueue=enqueue)
        try:
            return await future
        finally:
            self.inflight -= 1
            telemetry.set_gauge("service.inflight", float(self.inflight))

    def stats(self) -> dict[str, Any]:
        """Operator snapshot: ledger, queue, rounds, and SLO numbers."""
        return {
            "accepting": self._accepting,
            "submissions": self.submissions_seen,
            "admitted": self.admission.admitted,
            "rejected_budget": self.admission.rejected_budget,
            "inflight": self.inflight,
            "budget": {
                "total_epsilon": self.admission.budget.total_epsilon,
                "spent": self.admission.spent,
                "remaining": self.admission.remaining,
                "ledger": [
                    [label, eps] for label, eps in self.admission.ledger()
                ],
                "conserved": self.admission.conserved(),
            },
            "scheduler": self.scheduler.stats(),
            "results": self.stream.summary(),
        }

    # -- socket server -------------------------------------------------------

    async def serve(
        self, host: str = "127.0.0.1", port: int = 0
    ) -> asyncio.Server:
        """Listen for frame-protocol clients; returns the live server
        (its first socket's port is ``server.sockets[0].getsockname()[1]``)."""
        await self.start()
        self._server = await asyncio.start_server(
            self._handle_connection, host, port
        )
        return self._server

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        write_lock = asyncio.Lock()
        pending: set[asyncio.Task] = set()

        async def respond(payload: dict) -> None:
            async with write_lock:
                await protocol.write_frame(writer, payload)

        async def handle_submit(request: dict) -> None:
            request_id = request.get("id")
            try:
                deadline = request.get("deadline_seconds")
                outcome = await self.submit(
                    str(request["query"]),
                    float(request["epsilon"]),
                    label=request.get("label"),
                    deadline_seconds=(
                        None if deadline is None else float(deadline)
                    ),
                )
            except Exception as exc:  # noqa: BLE001 - typed on the wire
                await respond(protocol.error_frame(request_id, exc))
            else:
                await respond(
                    {"type": "result", "id": request_id, **outcome}
                )

        try:
            while True:
                try:
                    request = await protocol.read_frame(reader)
                except protocol.FrameError as exc:
                    await respond(protocol.error_frame(None, exc))
                    break
                if request is None:
                    break
                kind = request.get("type")
                request_id = request.get("id")
                if kind == "submit":
                    # Per-request task: one slow round must not block
                    # this connection's later frames.
                    task = asyncio.ensure_future(handle_submit(request))
                    pending.add(task)
                    task.add_done_callback(pending.discard)
                elif kind == "stats":
                    await respond(
                        {
                            "type": "stats",
                            "id": request_id,
                            "stats": self.stats(),
                        }
                    )
                elif kind == "ping":
                    await respond({"type": "pong", "id": request_id})
                else:
                    await respond(
                        protocol.error_frame(
                            request_id,
                            protocol.FrameError(
                                f"unknown request type {kind!r}"
                            ),
                        )
                    )
        finally:
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass
