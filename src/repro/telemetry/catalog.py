"""The normative metric and span catalog — the telemetry *contract*.

Every metric the pipeline can emit is declared here, once, with its
kind, unit, and (for histograms) fixed bucket boundaries; every span
name the tracer may open is declared alongside.  Instrumentation sites
refer to these names as string literals, the strict
:class:`repro.telemetry.metrics.MetricsRegistry` refuses names that are
not declared here, and ``docs/OBSERVABILITY.md`` documents exactly this
set — a correspondence enforced by :mod:`repro.telemetry.contract`
(``make docs-check``), so neither the docs nor the code can drift
silently.

Naming scheme: dotted lowercase ``subsystem.object.measure`` names, e.g.
``mixnet.round.bytes_out``.  Units are annotations for humans and
dashboards; values are never rescaled by the library.
"""

from __future__ import annotations

from dataclasses import dataclass

COUNTER = "counter"
GAUGE = "gauge"
HISTOGRAM = "histogram"

#: Fixed boundaries for wall-clock timing histograms (seconds).  The
#: last bucket is the implicit overflow (+inf) bucket.
TIME_BUCKETS = (0.0001, 0.001, 0.01, 0.1, 1.0, 10.0, 60.0)

#: Boundaries for the simulated Groth16 verification cost model, whose
#: per-query totals can reach minutes at paper scale.
MODEL_SECONDS_BUCKETS = (0.001, 0.01, 0.1, 1.0, 10.0, 100.0, 1000.0)

#: Boundaries for mixnet latencies measured in C-rounds.
CROUND_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0, 16.0)

#: Boundaries for per-payload delivery attempts under reliable sends.
ATTEMPT_BUCKETS = (1.0, 2.0, 3.0, 4.0, 6.0, 8.0)

#: Boundaries for per-round batch sizes in the query service.
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0)


@dataclass(frozen=True)
class MetricSpec:
    """Declaration of one metric: its stable name, kind, and unit."""

    name: str
    kind: str  # COUNTER | GAUGE | HISTOGRAM
    unit: str
    description: str
    buckets: tuple[float, ...] | None = None  # histograms only

    def __post_init__(self) -> None:
        if self.kind not in (COUNTER, GAUGE, HISTOGRAM):
            raise ValueError(f"unknown metric kind {self.kind!r}")
        if (self.kind == HISTOGRAM) != (self.buckets is not None):
            raise ValueError(
                f"{self.name}: buckets are required for histograms and "
                "forbidden otherwise"
            )


@dataclass(frozen=True)
class SpanSpec:
    """Declaration of one span name and where it sits in the tree."""

    name: str
    parent: str | None  # span name of the canonical parent; None = root
    description: str


def _specs(*specs: MetricSpec) -> dict[str, MetricSpec]:
    return {spec.name: spec for spec in specs}


METRICS: dict[str, MetricSpec] = _specs(
    # -- mixnet ------------------------------------------------------------
    MetricSpec(
        "mixnet.rounds.total", COUNTER, "C-rounds",
        "C-rounds advanced by MixnetWorld.run_round",
    ),
    MetricSpec(
        "mixnet.round.deposits", COUNTER, "messages",
        "mailbox deposits made by online devices",
    ),
    MetricSpec(
        "mixnet.round.bytes_out", COUNTER, "bytes",
        "bytes deposited into mailboxes (wire bytes, path id included)",
    ),
    MetricSpec(
        "mixnet.round.fetches", COUNTER, "messages",
        "mailbox payloads fetched and dispatched by devices",
    ),
    MetricSpec(
        "mixnet.round.dummies", COUNTER, "messages",
        "traffic-pattern dummies injected by hops (§3.5)",
    ),
    MetricSpec(
        "mixnet.complaints.total", COUNTER, "complaints",
        "public complaints posted to the bulletin board",
    ),
    MetricSpec(
        "mixnet.route.misdirected", COUNTER, "messages",
        "messages that matched a hop's link by path id and mailbox but "
        "carried the wrong direction tag (complained about, not relayed)",
    ),
    MetricSpec(
        "mixnet.send.messages", COUNTER, "messages",
        "end-to-end payloads deposited by ForwardingDriver.send_batch",
    ),
    MetricSpec(
        "mixnet.send.hop_latency_rounds", HISTOGRAM, "C-rounds",
        "delivery latency of one forwarded payload (k+1 C-rounds)",
        buckets=CROUND_BUCKETS,
    ),
    MetricSpec(
        "mixnet.retransmissions.total", COUNTER, "messages",
        "payload re-sends by ForwardingDriver.send_reliable after an "
        "unconfirmed delivery",
    ),
    MetricSpec(
        "mixnet.failovers.total", COUNTER, "messages",
        "sends diverted to a redundant pre-established replica path "
        "after a primary-path failure",
    ),
    MetricSpec(
        "mixnet.send.undelivered", COUNTER, "messages",
        "payloads still unconfirmed after the bounded retransmission "
        "budget",
    ),
    MetricSpec(
        "mixnet.send.attempts", HISTOGRAM, "attempts",
        "delivery attempts used per confirmed payload under reliable "
        "sends",
        buckets=ATTEMPT_BUCKETS,
    ),
    # -- fault injection (repro.faults) ------------------------------------
    MetricSpec(
        "faults.injected.total", COUNTER, "faults",
        "fault events applied by the deterministic FaultInjector "
        "(all kinds)",
    ),
    MetricSpec(
        "faults.churn.offline", COUNTER, "devices",
        "device offline transitions applied by churn windows and "
        "forwarder crashes",
    ),
    MetricSpec(
        "faults.wire.dropped", COUNTER, "messages",
        "wire messages dropped by fault injection (deposit- or "
        "fetch-side)",
    ),
    MetricSpec(
        "faults.wire.delayed", COUNTER, "messages",
        "wire messages held back past their C-round by fault injection",
    ),
    MetricSpec(
        "faults.wire.corrupted", COUNTER, "messages",
        "wire messages corrupted in transit by fault injection",
    ),
    MetricSpec(
        "faults.committee.dropouts", COUNTER, "members",
        "committee members made unavailable or corrupt at decryption "
        "time",
    ),
    MetricSpec(
        "faults.committee.corrupted", COUNTER, "partials",
        "partial decryptions perturbed by the corrupt-partial fault "
        "kind (robust decode must correct and flag each one)",
    ),
    # -- BGV / NTT ---------------------------------------------------------
    MetricSpec(
        "bgv.encrypt.count", COUNTER, "ops", "fresh BGV encryptions",
    ),
    MetricSpec(
        "bgv.encrypt.prepared", COUNTER, "ops",
        "encryptions served by precomputed public-key masks (the "
        "offline fast path: one ring addition instead of two "
        "multiplies)",
    ),
    MetricSpec(
        "bgv.decrypt.count", COUNTER, "ops", "secret-key decryptions",
    ),
    MetricSpec(
        "bgv.add.count", COUNTER, "ops", "homomorphic additions",
    ),
    MetricSpec(
        "bgv.sub.count", COUNTER, "ops", "homomorphic subtractions",
    ),
    MetricSpec(
        "bgv.mul.count", COUNTER, "ops",
        "homomorphic ciphertext-ciphertext multiplications",
    ),
    MetricSpec(
        "bgv.mul_plain.count", COUNTER, "ops",
        "ciphertext-plaintext multiplications",
    ),
    MetricSpec(
        "bgv.relinearize.count", COUNTER, "ops",
        "relinearizations of degree>1 ciphertexts back to degree 1",
    ),
    MetricSpec(
        "ntt.forward.count", COUNTER, "transforms",
        "forward negacyclic NTTs",
    ),
    MetricSpec(
        "ntt.inverse.count", COUNTER, "transforms",
        "inverse negacyclic NTTs",
    ),
    MetricSpec(
        "ntt.cache.hits", COUNTER, "lookups",
        "NttContext table-cache hits in get_context",
    ),
    MetricSpec(
        "ntt.cache.misses", COUNTER, "lookups",
        "NttContext table-cache misses (tables built)",
    ),
    # -- aggregator --------------------------------------------------------
    MetricSpec(
        "aggregator.proofs.verified", COUNTER, "proofs",
        "Groth16 proofs checked during submission verification",
    ),
    MetricSpec(
        "aggregator.verify.seconds", HISTOGRAM, "seconds",
        "simulated Groth16 verification seconds per submission "
        "(the paper's aggregator cost model, Figure 9b)",
        buckets=MODEL_SECONDS_BUCKETS,
    ),
    MetricSpec(
        "aggregator.submissions.accepted", COUNTER, "submissions",
        "origin submissions whose proof stack verified",
    ),
    MetricSpec(
        "aggregator.submissions.rejected", COUNTER, "submissions",
        "origin submissions discarded as Byzantine",
    ),
    # -- committee ---------------------------------------------------------
    MetricSpec(
        "committee.decrypt.partials", COUNTER, "shares",
        "partial decryptions combined during threshold decryption",
    ),
    MetricSpec(
        "committee.decrypt.seconds", HISTOGRAM, "seconds",
        "wall-clock duration of one threshold decryption",
        buckets=TIME_BUCKETS,
    ),
    MetricSpec(
        "committee.noise.samples", COUNTER, "draws",
        "Laplace draws sampled inside the committee MPC",
    ),
    MetricSpec(
        "committee.rotations.total", COUNTER, "rotations",
        "VSR key handoffs to a new committee",
    ),
    MetricSpec(
        "committee.rotate.seconds", HISTOGRAM, "seconds",
        "wall-clock duration of one VSR rotation",
        buckets=TIME_BUCKETS,
    ),
    MetricSpec(
        "committee.decrypt.retries", COUNTER, "attempts",
        "extra threshold-decryption attempts forced by committee "
        "dropouts (§6.5 liveness retry)",
    ),
    MetricSpec(
        "committee.robust.errors", COUNTER, "values",
        "wrong share values corrected by Reed-Solomon robust decoding "
        "(summed over all coefficients of a batch)",
    ),
    MetricSpec(
        "committee.robust.batch_width", HISTOGRAM, "codewords",
        "codewords (ring coefficients) opened per robust batch decode "
        "against one share-index set",
        buckets=(1.0, 16.0, 64.0, 256.0, 1024.0, 4096.0),
    ),
    MetricSpec(
        "committee.robust.decode.seconds", HISTOGRAM, "seconds",
        "wall-clock duration of one robust batch decode (partials, "
        "error locator, and batch opening)",
        buckets=TIME_BUCKETS,
    ),
    MetricSpec(
        "committee.robust.fallbacks", COUNTER, "rows",
        "batch rows that failed the shared-locator consistency check "
        "and needed their own Gao decode (extra error locators)",
    ),
    # -- engine ------------------------------------------------------------
    MetricSpec(
        "engine.defaults.total", COUNTER, "contributions",
        "neighbor contributions defaulted to Enc(x^0) because the "
        "neighbor never responded (§4.4 graceful degradation)",
    ),
    # -- query-level robustness --------------------------------------------
    MetricSpec(
        "query.complaints.observed", COUNTER, "complaints",
        "bulletin-board complaints attached to a query's result "
        "metadata",
    ),
    # -- parallel runtime (repro.runtime) ----------------------------------
    MetricSpec(
        "runtime.tasks.total", COUNTER, "tasks",
        "work items executed through TaskFabric.map (any worker count)",
    ),
    MetricSpec(
        "runtime.chunks.total", COUNTER, "chunks",
        "fixed-size chunks dispatched by TaskFabric.map (chunking is "
        "worker-count independent)",
    ),
    MetricSpec(
        "runtime.map.seconds", HISTOGRAM, "seconds",
        "wall-clock duration of one TaskFabric.map fan-out",
        buckets=TIME_BUCKETS,
    ),
    MetricSpec(
        "runtime.workers", GAUGE, "processes",
        "worker-pool size of the most recent TaskFabric.map",
    ),
    MetricSpec(
        "runtime.backend.multiplies", COUNTER, "ops",
        "negacyclic ring multiplications dispatched to the active "
        "compute backend (parent process only; see docs/PERFORMANCE.md)",
    ),
    MetricSpec(
        "runtime.backend.fold_products", COUNTER, "ops",
        "ring products the relinearization folds stand for: two per key "
        "piece per fold, none of them a runtime.backend.multiplies call",
    ),
    MetricSpec(
        "runtime.backend.multiply_cache_hits", COUNTER, "ops",
        "ring products served from the content-keyed product cache "
        "instead of the backend kernel (e.g. the ZK aggregate proof "
        "replaying the origin compute)",
    ),
    MetricSpec(
        "runtime.backend.chacha20_blocks", COUNTER, "blocks",
        "64-byte ChaCha20 keystream blocks requested from the active "
        "compute backend: every SEnc/AE operation of the mixnet, whole "
        "send_batch waves in one request each",
    ),
    # -- differential privacy ----------------------------------------------
    MetricSpec(
        "dp.budget.epsilon_spent", GAUGE, "epsilon",
        "cumulative epsilon charged to the sequential-composition budget",
    ),
    MetricSpec(
        "dp.budget.epsilon_remaining", GAUGE, "epsilon",
        "epsilon remaining in the budget",
    ),
    MetricSpec(
        "dp.queries.total", COUNTER, "queries",
        "queries successfully charged against the budget",
    ),
    # -- audit harness (repro.audit) ---------------------------------------
    MetricSpec(
        "audit.trials.total", COUNTER, "trials",
        "seeded trials executed by the invariant-audit harness",
    ),
    MetricSpec(
        "audit.checks.total", COUNTER, "checks",
        "invariant checks asserted across all audit trials",
    ),
    MetricSpec(
        "audit.checks.failed", COUNTER, "checks",
        "invariant checks that failed (a clean tree keeps this at zero)",
    ),
    MetricSpec(
        "audit.trial.seconds", HISTOGRAM, "seconds",
        "wall-clock duration of one audit trial",
        buckets=TIME_BUCKETS,
    ),
    MetricSpec(
        "audit.shrink.executions", COUNTER, "runs",
        "trial executions spent minimizing failing cases to reproducers",
    ),
    # -- durable campaign runtime (repro.durability) -----------------------
    MetricSpec(
        "durability.journal.appends", COUNTER, "records",
        "records durably appended to a campaign's write-ahead journal",
    ),
    MetricSpec(
        "durability.journal.bytes", COUNTER, "bytes",
        "bytes written to the write-ahead journal (checksummed lines)",
    ),
    MetricSpec(
        "durability.journal.fsyncs", COUNTER, "syncs",
        "fsync barriers issued by journal appends (one per record "
        "unless fsync is disabled for benchmarking)",
    ),
    MetricSpec(
        "durability.resume.replayed", COUNTER, "records",
        "journaled phases restored (not re-run) while resuming a "
        "crashed campaign",
    ),
    MetricSpec(
        "durability.checkpoints.written", COUNTER, "checkpoints",
        "sidecar checkpoint snapshots written between queries",
    ),
    MetricSpec(
        "durability.checkpoints.rejected", COUNTER, "checkpoints",
        "corrupt or unreadable checkpoint candidates skipped on resume "
        "(resume falls back to full journal replay)",
    ),
    MetricSpec(
        "durability.campaign.queries", COUNTER, "queries",
        "campaign queries driven to release through the phase loop",
    ),
    MetricSpec(
        "durability.campaign.crashes", COUNTER, "crashes",
        "coordinator kills taken at phase boundaries (KillSpec or "
        "fault-plan driven)",
    ),
    MetricSpec(
        "durability.handoffs.committed", COUNTER, "handoffs",
        "epoch handoffs atomically committed through the journal "
        "(scheduled rotations plus emergency reshares)",
    ),
    MetricSpec(
        "durability.reshares.emergency", COUNTER, "reshares",
        "handoffs triggered by the health monitor because live "
        "committee membership decayed to the liveness threshold",
    ),
    MetricSpec(
        "durability.monitor.pings", COUNTER, "pings",
        "committee liveness pings issued through the fault injector",
    ),
    MetricSpec(
        "durability.monitor.quorum_wait_rounds", COUNTER, "C-rounds",
        "C-rounds the campaign clock advanced while waiting for a "
        "decryption or dealer quorum (§6.5 wait-and-retry)",
    ),
    # -- sharded aggregation (repro.sharding) --------------------------------
    MetricSpec(
        "sharding.shards.planned", COUNTER, "shards",
        "shards laid out by the deterministic planner for one sharded "
        "aggregation or live-simulation run",
    ),
    MetricSpec(
        "sharding.shard.submissions", COUNTER, "submissions",
        "origin submissions routed to a shard aggregator for "
        "verification",
    ),
    MetricSpec(
        "sharding.partials.verified", COUNTER, "partials",
        "shard partial sums whose claim matched the root's independent "
        "recomputation from chunk evidence",
    ),
    MetricSpec(
        "sharding.integrity.failures", COUNTER, "partials",
        "shard partial sums rejected because the claim did not reduce "
        "from the shard's own chunk evidence (ShardIntegrityError)",
    ),
    MetricSpec(
        "sharding.partials.reduced", COUNTER, "partials",
        "verified shard partials combined by the root reduction tree",
    ),
    MetricSpec(
        "sharding.reduce.seconds", HISTOGRAM, "seconds",
        "wall-clock duration of the root reduction over verified shard "
        "partials",
        buckets=TIME_BUCKETS,
    ),
    # -- query service (repro.service) --------------------------------------
    MetricSpec(
        "service.submissions.total", COUNTER, "queries",
        "query submissions received by the service (in-process API or "
        "socket protocol), before admission",
    ),
    MetricSpec(
        "service.admitted.total", COUNTER, "queries",
        "submissions atomically admitted and charged against the "
        "privacy-budget ledger",
    ),
    MetricSpec(
        "service.rejected.budget", COUNTER, "queries",
        "submissions rejected because the epsilon ledger could not "
        "afford them (BudgetRejected)",
    ),
    MetricSpec(
        "service.rejected.queue_full", COUNTER, "queries",
        "submissions rejected by bounded-queue backpressure "
        "(QueueFullRejected); the ledger is rolled back",
    ),
    MetricSpec(
        "service.rounds.total", COUNTER, "rounds",
        "scheduled rounds executed, each as one journaled campaign",
    ),
    MetricSpec(
        "service.batch.size", HISTOGRAM, "queries",
        "admitted submissions batched into one scheduled round",
        buckets=BATCH_BUCKETS,
    ),
    MetricSpec(
        "service.query.seconds", HISTOGRAM, "seconds",
        "end-to-end latency of one served query, submission to result",
        buckets=TIME_BUCKETS,
    ),
    MetricSpec(
        "service.inflight", GAUGE, "queries",
        "admitted submissions currently queued or executing",
    ),
    MetricSpec(
        "service.rejected.deadline", COUNTER, "queries",
        "submissions dropped because their per-query deadline expired "
        "(DeadlineExceeded); unexecuted drops refund the ledger",
    ),
    MetricSpec(
        "service.rounds.aborted", COUNTER, "rounds",
        "scheduled rounds aborted because the campaign raised "
        "(blast-radius isolation; survivors are re-queued once)",
    ),
    MetricSpec(
        "service.requeued.total", COUNTER, "queries",
        "submissions re-queued with a fresh round seed after their "
        "round aborted (at most once per submission)",
    ),
    # -- adversary engine (repro.adversary) ----------------------------------
    MetricSpec(
        "adversary.suspicion.total", COUNTER, "rejections",
        "suspicion points charged to origins whose submission the "
        "aggregator rejected (one per origin per query)",
    ),
    MetricSpec(
        "adversary.quarantined.total", COUNTER, "origins",
        "origins demoted to quarantine after reaching the suspicion "
        "ledger's rejection threshold",
    ),
    MetricSpec(
        "adversary.queries.failed", COUNTER, "queries",
        "survivability-sweep queries that failed outright under attack "
        "(a typed MyceliumError instead of a released answer)",
    ),
    # -- offline precomputation (repro.offline) ------------------------------
    MetricSpec(
        "offline.pool.hits", COUNTER, "entries",
        "leaf-encryption randomness served from a precomputed pool "
        "(masked fast-path encryptions)",
    ),
    MetricSpec(
        "offline.pool.misses", COUNTER, "entries",
        "leaf-encryption randomness derived inline because no pool "
        "covered the run's submission seed",
    ),
    MetricSpec(
        "offline.pool.refills", COUNTER, "entries",
        "pool entries derived on demand after exhaustion — the "
        "block-and-refill path that continues the pool's own derivation "
        "chain instead of falling back to a differently-seeded RNG",
    ),
    MetricSpec(
        "offline.pool.level", HISTOGRAM, "entries",
        "pool fill level observed when the service scheduler checks "
        "pools before a round",
        buckets=(0.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0),
    ),
    MetricSpec(
        "offline.pool.low", COUNTER, "pools",
        "pools found below the scheduler's low watermark before a "
        "round (each triggers a blocking refill)",
    ),
    MetricSpec(
        "offline.precompute.units", COUNTER, "units",
        "precompute units (NTT warm, relin prep, encryption pool) "
        "journaled as durable by the offline phase",
    ),
    MetricSpec(
        "offline.precompute.resumed", COUNTER, "units",
        "units restored from journaled artifacts (not re-derived) "
        "while resuming a crashed offline phase",
    ),
)


SPANS: dict[str, SpanSpec] = {
    spec.name: spec
    for spec in (
        SpanSpec(
            "system.setup", None,
            "MyceliumSystem.setup: the genesis ceremony plus first election",
        ),
        SpanSpec(
            "query.genesis", "system.setup",
            "one-time key material: BGV keygen, relinearization keys, "
            "Groth16 trusted setup, first committee sharing (§4.2)",
        ),
        SpanSpec(
            "query.run", None,
            "one end-to-end query (MyceliumSystem.run_query); "
            "attributes: query, epsilon",
        ),
        SpanSpec(
            "query.compile", "query.run",
            "parse + compile + feasibility check",
        ),
        SpanSpec(
            "query.execute", "query.run",
            "encrypted vertex-program execution (in-process or over the "
            "real mixnet when a MixnetWorld is supplied)",
        ),
        SpanSpec(
            "query.aggregate", "query.run",
            "aggregator: proof verification, relinearization, global sum",
        ),
        SpanSpec(
            "query.decrypt", "query.run",
            "committee threshold decryption of the global ciphertext",
        ),
        SpanSpec(
            "committee.robust_decode", "query.decrypt",
            "single-pass Reed-Solomon robust decode of all ring "
            "coefficients as one batch: codeword partials, shared error "
            "locator, flagged-member identification; "
            "attributes: members, width",
        ),
        SpanSpec(
            "query.release", "query.run",
            "decode, in-MPC Laplace noise, result assembly",
        ),
        SpanSpec(
            "query.rotate", "query.run",
            "extended-VSR key handoff to the next committee",
        ),
        SpanSpec(
            "runtime.map", None,
            "one TaskFabric.map fan-out over a stage's work items; "
            "attributes: label, items, workers (parent varies by stage, "
            "e.g. query.execute or query.aggregate)",
        ),
        SpanSpec(
            "mixnet.send_batch", "query.execute",
            "one forwarding wave over established telescoping paths "
            "(k+2 simulator rounds); attributes: sends, hops",
        ),
        SpanSpec(
            "mixnet.send_reliable", "query.execute",
            "reliable delivery: send waves plus bounded retransmission "
            "with exponential backoff and replica failover; "
            "attributes: sends, max_attempts",
        ),
        SpanSpec(
            "sharding.reduce", "query.aggregate",
            "root reduction: claim-checked shard partials combined "
            "through the fixed-shape summation tree into the one "
            "ciphertext handed to the committee; "
            "attributes: shards, partials",
        ),
        SpanSpec(
            "audit.run", None,
            "one invariant-audit run over N seeded trials; "
            "attributes: seed, trials",
        ),
        SpanSpec(
            "audit.trial", "audit.run",
            "one generated trial through its oracle and checks; "
            "attributes: kind, index",
        ),
        SpanSpec(
            "campaign.run", None,
            "one durable campaign execution (fresh or resumed) through "
            "the write-ahead journal; attributes: queries, resumed",
        ),
        SpanSpec(
            "campaign.resume", "campaign.run",
            "journal validation, checkpoint fast-forward, and seeded "
            "state replay before the phase loop continues",
        ),
        SpanSpec(
            "campaign.phase", "campaign.run",
            "one journaled phase of one campaign query (run live or "
            "restored from its record); attributes: query, phase",
        ),
        SpanSpec(
            "service.round", None,
            "one scheduled round of the query service, executed as a "
            "journaled campaign (campaign.run is its child); "
            "attributes: round, batch",
        ),
        SpanSpec(
            "service.admit", None,
            "one atomic admission decision: budget check, charge, and "
            "enqueue under the admission lock; attributes: epsilon",
        ),
        SpanSpec(
            "offline.precompute", None,
            "one journaled offline-precomputation pass (fresh, resumed, "
            "or a between-round pool refill); attributes: units",
        ),
        SpanSpec(
            "adversary.sweep", None,
            "one survivability sweep: a full attack profile driven "
            "across its intensity range with quarantine active; "
            "attributes: profile, seed",
        ),
    )
}
