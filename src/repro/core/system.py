"""MyceliumSystem: the end-to-end orchestration and public API.

Lifecycle (§4.2, §5):

1. **Genesis** — a genesis committee generates the BGV key pair, the
   relinearization keys, and the Groth16 trusted setup *once*; the
   secret key is Shamir-shared (with Feldman commitments) to the first
   randomly elected user committee.  No per-query key generation ever
   happens again.
2. **Queries** — the analyst submits query text; the system parses,
   compiles, checks the privacy budget and HE feasibility, executes the
   vertex program over the (encrypted) graph, verifies proofs and
   aggregates at the aggregator, threshold-decrypts at the committee,
   adds in-MPC Laplace noise, and releases the result.
3. **Rotation** — after each query the committee redistributes the key
   shares to a freshly elected committee via extended VSR.

Typical use::

    system = MyceliumSystem.setup(num_devices=30, rng=random.Random(7))
    result = system.run_query(
        "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf",
        graph=my_graph, epsilon=1.0,
    )
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro import telemetry
from repro.core import committee as committee_mod
from repro.core.aggregator import AggregationResult, QueryAggregator
from repro.core.results import (
    GsumResult,
    HistogramResult,
    QueryMetadata,
    QueryResult,
)
from repro.crypto import bgv, zksnark
from repro.dp.budget import PrivacyBudget
from repro.engine import histogram as histogram_mod
from repro.engine.encrypted import EncryptedExecutor, OriginSubmission
from repro.engine.malicious import Behavior
from repro.engine.plaintext import run_plaintext
from repro.engine.zkcircuits import build_circuits
from repro.errors import ProtocolError, QueryError
from repro.params import BGVProfile, SystemParameters, TEST
from repro.query import sensitivity as sensitivity_mod
from repro.query.ast import OutputKind
from repro.query.catalog import CatalogEntry
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.plans import ExecutionPlan
from repro.query.schema import DEFAULT_SCHEMA, Schema
from repro.runtime import (
    RuntimeConfig,
    TaskFabric,
    backends,
    get_runtime_config,
)
from repro.workloads.graphgen import ContactGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.report import RecoveryReport
    from repro.mixnet.network import MixnetWorld


@dataclass
class MyceliumSystem:
    """A running deployment: keys, committee, budget, and parameters."""

    profile: BGVProfile
    params: SystemParameters
    schema: Schema
    public_key: bgv.PublicKey
    relin_keys: bgv.RelinKeySet
    zk: zksnark.Groth16System
    committee: committee_mod.Committee
    budget: PrivacyBudget
    rng: random.Random
    num_devices: int
    #: Kept only for test oracles; the deployed system never holds this
    #: outside the genesis ceremony.
    _genesis_secret: bgv.SecretKey | None = field(default=None, repr=False)
    query_log: list[QueryMetadata] = field(default_factory=list)

    # -- setup -----------------------------------------------------------------

    @classmethod
    def setup(
        cls,
        num_devices: int,
        rng: random.Random,
        profile: BGVProfile = TEST,
        params: SystemParameters | None = None,
        schema: Schema = DEFAULT_SCHEMA,
        committee_size: int = 3,
        committee_threshold: int = 2,
        total_epsilon: float = 10.0,
        max_relin_power: int | None = None,
        keep_genesis_secret: bool = True,
    ) -> MyceliumSystem:
        """Run the genesis ceremony and elect the first committee."""
        if params is None:
            params = SystemParameters(
                num_devices=num_devices,
                committee_size=committee_size,
                degree_bound=4,
                hops=2,
                replicas=2,
                forwarder_fraction=0.3,
            )
        # Genesis is a hundred-odd ring products (the relinearization
        # pieces); run them on the configured backend like every query.
        with backends.use_backend(get_runtime_config().backend), telemetry.span(
            "system.setup", num_devices=num_devices
        ):
            with telemetry.span("query.genesis"):
                secret, public = bgv.keygen(profile, rng)
                # Deferred relinearization means device outputs reach degree
                # ~|k-hop neighborhood|; cover it with margin.
                if max_relin_power is None:
                    neighborhood = 1 + sum(
                        params.degree_bound**i
                        for i in range(1, params.hops + 1)
                    )
                    max_relin_power = max(2, neighborhood + 2)
                relin = bgv.make_relin_keys(secret, max_relin_power, rng)
                zk = zksnark.Groth16System.setup(build_circuits(), rng)
                member_ids = committee_mod.elect_committee(
                    list(range(num_devices)), committee_size, rng
                )
                first_committee = committee_mod.genesis_share_key(
                    secret, member_ids, committee_threshold, rng
                )
        return cls(
            profile=profile,
            params=params,
            schema=schema,
            public_key=public,
            relin_keys=relin,
            zk=zk,
            committee=first_committee,
            budget=PrivacyBudget(total_epsilon),
            rng=rng,
            num_devices=num_devices,
            _genesis_secret=secret if keep_genesis_secret else None,
        )

    # -- compilation ---------------------------------------------------------

    def compile(self, query: str | CatalogEntry) -> ExecutionPlan:
        if isinstance(query, CatalogEntry):
            parsed = query.parsed()
        else:
            parsed = parse(query)
        plan = compile_query(parsed, self.params, self.schema)
        plan.validate_feasible(self.profile)
        return plan

    # -- query execution --------------------------------------------------------

    def run_query(
        self,
        query: str | CatalogEntry,
        graph: ContactGraph,
        epsilon: float,
        behaviors: dict[int, Behavior] | None = None,
        offline: set[int] | None = None,
        rotate: bool = False,
        noiseless: bool = False,
        world: MixnetWorld | None = None,
        runtime: RuntimeConfig | None = None,
        offline_store=None,
        submission_seed: int | None = None,
        quarantined: set[int] | None = None,
    ) -> QueryResult:
        """Execute one query end to end and release the noisy answer.

        ``noiseless=True`` skips the Laplace noise — a testing facility
        for comparing against the plaintext oracle; it does *not* charge
        less budget.

        ``world`` switches the execute phase from the in-process
        transport to the real mix network: graph vertex i must be mixnet
        device i, and contributions travel as onion-routed mailbox
        payloads (one-hop plans only; see
        :class:`repro.core.transport.MixnetTransport`).  ``offline`` is
        an in-process-transport facility and cannot be combined with it
        — mark devices offline on the world instead.

        ``runtime`` selects the parallel worker count and the compute
        backend for this query (defaults to the process-wide
        :func:`repro.runtime.get_runtime_config`).  Results are
        bit-identical at any worker count and across backends; see
        docs/PERFORMANCE.md.

        ``quarantined`` lists origins the suspicion ledger has demoted:
        they are treated as offline (their contribution defaults to
        ``Enc(x^0)``) and recorded in ``QueryMetadata`` so the analyst
        can see which devices were shed (docs/RESILIENCE.md).
        """
        config = runtime if runtime is not None else get_runtime_config()
        quarantined = set(quarantined or ())
        with backends.use_backend(config.backend), TaskFabric.from_config(
            config
        ) as fabric, telemetry.span("query.run", epsilon=epsilon) as query_span:
            with telemetry.span("query.compile"):
                plan = self.compile(query)
            label = str(plan.query)
            query_span.set_attribute("query", label)
            self.budget.charge(epsilon, label)

            injector = recovery = None
            if world is not None:
                if offline is not None or quarantined:
                    raise QueryError(
                        "offline=/quarantined= are the in-process "
                        "transport's churn model; mark devices offline "
                        "on the MixnetWorld"
                    )
                from repro.core.transport import MixnetTransport

                transport = MixnetTransport(
                    world=world,
                    graph=graph,
                    plan=plan,
                    public_key=self.public_key,
                    zk=self.zk,
                    rng=self.rng,
                )
                start_round = world.current_round
                with telemetry.span("query.execute"):
                    submissions = transport.run(behaviors)
                injector, recovery = world.fault_injector, transport.recovery
            else:
                submissions = self.submit_phase(
                    plan, graph, self.rng, fabric,
                    behaviors=behaviors,
                    offline=set(offline or ()) | quarantined,
                    offline_store=offline_store,
                    submission_seed=submission_seed,
                )
            aggregation = self.aggregate_phase(submissions, fabric, config.shards)

            # Committee faults come from the world's fault plan: dropouts
            # become an availability schedule, corrupt members a
            # per-partial corruption hook (docs/RESILIENCE.md).
            schedule = corrupt = None
            if injector is not None:
                member_ids = [m.device_id for m in self.committee.members]
                if injector.plan.corrupt_committee:
                    injector.corrupt_members(member_ids)
                    corrupt = injector.corrupt_partial
                if injector.plan.committee_dropouts:
                    schedule = injector.committee_schedule(member_ids)
            coefficients, attempts, flagged = self.decrypt_phase(
                plan, aggregation.ciphertext, self.rng,
                schedule=schedule, corrupt=corrupt,
            )

            if recovery is not None:
                recovery.complaints = tuple(
                    c.decode("utf-8", errors="replace")
                    for c in world.complaints()
                )
                if recovery.complaints:
                    telemetry.count(
                        "query.complaints.observed", len(recovery.complaints)
                    )
                recovery.decrypt_attempts = attempts
                recovery.flagged_members = tuple(sorted(flagged))
                recovery.crounds = world.current_round - start_round
                if injector is not None:
                    recovery.faults_injected = injector.fault_counts()

            sensitivity = sensitivity_mod.analyze(plan).sensitivity
            scale = 0.0 if noiseless else sensitivity / epsilon
            metadata = self.query_metadata(
                label, epsilon, sensitivity, scale, aggregation,
                recovery=recovery, quarantined=quarantined,
            )
            with telemetry.span("query.release"):
                noise = self.compute_noise(plan, coefficients, scale)
                result = self.release_with_noise(
                    plan, coefficients, noise, metadata
                )
            self.query_log.append(metadata)
            if rotate:
                with telemetry.span("query.rotate"):
                    self.rotate_committee()
            return result

    # -- explicit query phases -----------------------------------------------
    #
    # run_query above is the plain in-order composition of these phase
    # methods; the durable campaign runner (repro.durability) drives the
    # same methods one at a time, journaling each boundary.  Every
    # method is a pure function of its arguments plus the system's
    # long-lived state, so a resumed process that rebuilds the system
    # and replays the journal re-enters any phase bit-identically.

    def submit_phase(
        self,
        plan: ExecutionPlan,
        graph: ContactGraph,
        rng: random.Random,
        fabric: TaskFabric,
        behaviors: dict[int, Behavior] | None = None,
        offline: set[int] | None = None,
        offline_store=None,
        submission_seed: int | None = None,
    ) -> list[OriginSubmission]:
        """Per-origin encrypted execution over the in-process transport.

        ``offline_store`` supplies precomputed leaf-encryption pools
        (:mod:`repro.offline`); ``submission_seed`` pins the run's master
        seed so a caller holding the offline phase's seed prediction can
        bind the run to its pools.  Both default to the inline path,
        which is bit-identical.
        """
        with telemetry.span("query.execute"):
            executor = EncryptedExecutor(
                plan,
                self.public_key,
                self.zk,
                rng,
                fabric=fabric,
                offline_store=offline_store,
            )
            return executor.run(
                graph,
                behaviors=behaviors,
                offline=offline,
                master_seed=submission_seed,
            )

    def aggregate_phase(
        self,
        submissions: list[OriginSubmission],
        fabric: TaskFabric,
        shards: int = 1,
    ):
        """Proof verification + relinearized summation at the aggregator.

        ``shards`` is the aggregator's K (docs/SHARDING.md): K
        independent shard folds under the claim-checked root reduction,
        the flat aggregator being K=1.  The result is bit-identical at
        any K, so the shard count — like the worker count and backend —
        is a runtime knob, never part of a query's identity.
        """
        with telemetry.span("query.aggregate"):
            aggregation = QueryAggregator(
                zk=self.zk,
                relin_keys=self.relin_keys,
                fabric=fabric,
                num_shards=shards,
            ).aggregate(submissions)
        if aggregation.ciphertext is None:
            raise ProtocolError("no valid contributions to aggregate")
        return aggregation

    def decrypt_phase(
        self,
        plan: ExecutionPlan,
        ciphertext: bgv.Ciphertext,
        rng: random.Random,
        *,
        participating: list[int] | None = None,
        schedule: list[list[int]] | None = None,
        corrupt=None,
    ) -> tuple[list[int], int, set[int]]:
        """Threshold decryption down to the plan's coefficient vector.

        The one decrypt entry for every driver.  ``schedule`` is a
        per-attempt availability schedule (§6.5 wait-and-retry); without
        one there is a single attempt by ``participating`` (default: the
        whole committee).  ``corrupt`` is the fault injector's
        per-partial corruption hook, present exactly when the fault plan
        names corrupt members, and selects the robust single-pass
        decoder.  Returns ``(coefficients, attempts, flagged device
        ids)``.
        """
        if schedule is None:
            if participating is None:
                participating = [m.device_id for m in self.committee.members]
            schedule = [participating]
        with telemetry.span("query.decrypt"):
            plaintext, attempts, flagged = (
                committee_mod.decrypt_with_liveness_retry(
                    self.committee, ciphertext, rng, schedule, corrupt=corrupt
                )
            )
            if attempts > 1:
                telemetry.count("committee.decrypt.retries", attempts - 1)
            coefficients = [
                plaintext.coeffs[i]
                for i in range(plan.layout.total_coefficients)
            ]
        return coefficients, attempts, flagged

    def compute_noise(
        self, plan: ExecutionPlan, coefficients: list[int], scale: float
    ) -> list[list[float]]:
        """The committee's in-MPC Laplace draws, one list per output group.

        Deterministic given the committee epoch (the member seed shares
        are derived from device id XOR epoch), so replaying this phase
        after a crash reproduces the exact noise.
        """
        if plan.output is OutputKind.HISTO:
            widths = [
                len(group.counts)
                for group in histogram_mod.decode_histogram(coefficients, plan)
            ]
        else:
            widths = [len(histogram_mod.decode_gsum(coefficients, plan))]
        return [
            committee_mod.committee_noise(self.committee, width, scale)
            if scale
            else [0.0] * width
            for width in widths
        ]

    def release_with_noise(
        self,
        plan: ExecutionPlan,
        coefficients: list[int],
        noise: list[list[float]],
        metadata: QueryMetadata,
    ) -> QueryResult:
        """Decode the plaintext coefficients and apply precomputed noise."""
        if plan.output is OutputKind.HISTO:
            groups = histogram_mod.decode_histogram(coefficients, plan)
            noised = [
                histogram_mod.GroupHistogram(
                    group=group.group,
                    counts=tuple(
                        c + n for c, n in zip(group.counts, group_noise)
                    ),
                    bin_edges=group.bin_edges,
                )
                for group, group_noise in zip(groups, noise)
            ]
            return HistogramResult(groups=tuple(noised), metadata=metadata)
        values = histogram_mod.decode_gsum(coefficients, plan)
        return GsumResult(
            values=tuple(v + n for v, n in zip(values, noise[0])),
            metadata=metadata,
        )

    def query_metadata(
        self,
        label: str,
        epsilon: float,
        sensitivity: float,
        scale: float,
        aggregation: AggregationResult,
        *,
        recovery: RecoveryReport | None = None,
        quarantined: set[int] | frozenset[int] = frozenset(),
    ) -> QueryMetadata:
        """The bookkeeping released with an answer — the one assembly
        site, so every driver reports the same fields."""
        return QueryMetadata(
            query_text=label,
            epsilon=epsilon,
            sensitivity=sensitivity,
            noise_scale=scale,
            contributing_origins=aggregation.num_accepted,
            rejected_origins=len(aggregation.rejected),
            committee_epoch=self.committee.epoch,
            verification_seconds=aggregation.verification_seconds,
            complaints=0 if recovery is None else len(recovery.complaints),
            recovery=recovery,
            quarantined_origins=tuple(sorted(quarantined)),
            byzantine_origins=tuple(sorted(aggregation.rejected)),
        )

    # -- committee lifecycle -----------------------------------------------------

    def rotate_committee(
        self, corrupt_dealers: set[int] | None = None
    ) -> None:
        """VSR handoff to a freshly elected committee (§4.2)."""
        new_members = committee_mod.elect_committee(
            list(range(self.num_devices)), self.committee.size, self.rng
        )
        self.committee = committee_mod.rotate_committee(
            self.committee,
            new_members,
            self.committee.threshold,
            self.rng,
            corrupt_dealers=corrupt_dealers,
        )

    # -- oracles ------------------------------------------------------------------

    def plaintext_answer(
        self, query: str | CatalogEntry, graph: ContactGraph
    ):
        """The noise-free reference answer (testing / evaluation only)."""
        plan = self.compile(query)
        return run_plaintext(plan, graph)
