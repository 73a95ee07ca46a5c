"""The durable campaign runner: multi-query, multi-epoch, crash-safe.

A *campaign* is the deployed shape of Mycelium: one genesis ceremony,
then a seeded sequence of queries over a fixed contact graph, with the
decryption key handed between committee epochs (scheduled rotations
plus health-monitor-triggered emergency reshares).  Every phase
boundary is journaled (:mod:`repro.durability.journal`); killing the
coordinator at *any* boundary and resuming with
``python -m repro campaign --resume <dir>`` produces released results,
budget ledger, and epoch commitments bit-identical to an uninterrupted
run.

Determinism contract: all randomness is derived from the recorded
master seed with domain-separated labels
(:func:`repro.runtime.seeding.derive_rng`)::

    setup            derive_rng(master, "setup")
    workload         derive_rng(master, "workload")
    query qi, phase  derive_rng(master, "query", qi, "<phase>")
    epoch e          derive_rng(master, "epoch", e, "elect" / "deal")

so re-running any phase from a rebuilt process consumes exactly the
same random stream as the first attempt, at any worker count and on
any compute backend.  Secrets (the BGV key, committee shares) are never
journaled — setup and every committed handoff are *replayed* on resume
and digest-checked against the journal.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.core import committee as committee_mod
from repro.core.rounds import CampaignClock, build_schedule
from repro.core.system import MyceliumSystem
from repro.durability import checkpoint as checkpoint_mod
from repro.durability import serialize
from repro.durability.journal import Journal, JournalRecord
from repro.durability.monitor import CommitteeHealthMonitor
from repro.errors import (
    CampaignResumeError,
    CoordinatorCrash,
    ProtocolError,
    SecretSharingError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import ChurnWindow, FaultPlan
from repro.params import SystemParameters, TEST
from repro.query import sensitivity as sensitivity_mod
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.runtime import (
    RuntimeConfig,
    TaskFabric,
    backends,
    get_runtime_config,
)
from repro.runtime.seeding import derive_rng
from repro.workloads.epidemic import build_campaign_graph

#: The explicit, idempotent phases of one query, in execution order.
#: Each gets exactly one journal record; the record is the commit point.
PHASES = (
    "compile",
    "charge",
    "rounds",
    "submit",
    "aggregate",
    "decrypt",
    "noise",
    "release",
    "handoff",
)

#: Extra kill points outside the per-query phase loop.
KILL_POINTS = PHASES + ("setup", "start", "handoff-start", "complete")

#: How many C-rounds the runner will wait for a decryption quorum (or a
#: dealer quorum) before declaring the campaign stuck.
QUORUM_WAIT_LIMIT = 1024

RESULTS_NAME = "results.json"


@dataclass(frozen=True)
class KillSpec:
    """Where to simulate a coordinator kill (tests, chaos, CI matrix).

    ``before=False`` (the default, ``--kill-at``) crashes immediately
    *after* the phase's journal record is durable; ``before=True``
    (``--kill-before``) crashes after computing the phase but before
    the record is written, exercising the re-run path.
    """

    phase: str
    query: int | None = None
    before: bool = False

    def __post_init__(self) -> None:
        if self.phase not in KILL_POINTS:
            raise ProtocolError(
                f"unknown kill point {self.phase!r}; "
                f"choose from {', '.join(KILL_POINTS)}"
            )

    @classmethod
    def parse(cls, text: str, before: bool = False) -> KillSpec:
        """``"decrypt"`` or ``"decrypt:2"`` (phase at query index 2)."""
        if ":" in text:
            phase, _, query = text.partition(":")
            return cls(phase=phase, query=int(query), before=before)
        return cls(phase=text, before=before)

    def matches(self, phase: str, query_index: int | None) -> bool:
        if self.phase != phase:
            return False
        return self.query is None or self.query == query_index


@dataclass(frozen=True)
class CampaignConfig:
    """Everything that defines a campaign, all JSON-serializable.

    The config is journaled in the ``campaign-start`` record; a resume
    reads it back from the journal, never from flags.
    """

    master_seed: int
    #: ``(query, epsilon)`` pairs; a query is a catalog id ("Q5") or SQL.
    queries: tuple[tuple[str, float], ...]
    people: int = 12
    degree: int = 3
    total_epsilon: float = 10.0
    committee_size: int = 3
    committee_threshold: int = 2
    #: Scheduled VSR handoff after every k-th query (0 = never).
    rotate_every: int = 1
    #: Random device churn (iid per window, fault-plan seeded).
    churn_fraction: float = 0.0
    churn_window_rounds: int = 4
    fault_seed: int = 0
    #: Targeted committee churn: the first ``committee_churn_members``
    #: members of the *genesis* committee go offline for
    #: ``committee_churn_rounds`` C-rounds starting at
    #: ``committee_churn_start`` — the deterministic way to exercise the
    #: health monitor's emergency resharing.
    committee_churn_members: int = 0
    committee_churn_start: int = 0
    committee_churn_rounds: int = 0
    #: Byzantine committee members: the first ``committee_corrupt_members``
    #: members of the *genesis* committee submit corrupt-partial faults at
    #: every decryption — the robust decoder must correct and flag them
    #: without changing any released result (§5).
    committee_corrupt_members: int = 0
    #: Plan-driven process kills: ``(query_index, phase)`` pairs.
    coordinator_kills: tuple[tuple[int, str], ...] = ()
    #: Sidecar checkpoint cadence, in completed queries (0 = never).
    checkpoint_every: int = 1

    def to_json(self) -> dict:
        data = dataclasses.asdict(self)
        data["queries"] = [list(q) for q in self.queries]
        data["coordinator_kills"] = [
            list(k) for k in self.coordinator_kills
        ]
        return data

    @classmethod
    def from_json(cls, data: dict) -> CampaignConfig:
        kwargs = dict(data)
        kwargs["queries"] = tuple(
            (str(q), float(e)) for q, e in data["queries"]
        )
        kwargs["coordinator_kills"] = tuple(
            (int(q), str(p)) for q, p in data.get("coordinator_kills", [])
        )
        return cls(**kwargs)


@dataclass
class CampaignResult:
    """The campaign's released artifact (also written to results.json)."""

    config: CampaignConfig
    #: Serialized released results, in query order (serialize.result_to_json).
    results: list[dict]
    #: The privacy-budget ledger: ``[label, epsilon]`` in charge order.
    ledger: list[list]
    #: Committed epochs, including genesis: member ids + commitment digest.
    epochs: list[dict]
    emergency_reshares: int
    quorum_wait_rounds: int
    clock_rounds: int

    @property
    def digest(self) -> str:
        """Binds the bit-identical acceptance trio: released results,
        budget ledger, and epoch commitments."""
        return serialize.digest_json(
            {
                "results": self.results,
                "ledger": self.ledger,
                "epochs": self.epochs,
            }
        )

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "results": self.results,
            "ledger": self.ledger,
            "epochs": self.epochs,
            "emergency_reshares": self.emergency_reshares,
            "quorum_wait_rounds": self.quorum_wait_rounds,
            "clock_rounds": self.clock_rounds,
            "digest": self.digest,
        }


class CampaignRunner:
    """Drives one campaign directory: fresh start or journal resume."""

    def __init__(
        self,
        config: CampaignConfig,
        directory: str | Path,
        journal: Journal,
        records: list[JournalRecord],
        runtime: RuntimeConfig | None = None,
        kill: KillSpec | None = None,
        offline_store=None,
    ):
        self.config = config
        self.directory = Path(directory)
        self.journal = journal
        self.runtime = runtime
        self.kill = kill
        #: Optional repro.offline.store.OfflineStore of precomputed
        #: pools.  Never journaled: journaled digests are identical with
        #: and without it, so a campaign may crash with a store and
        #: resume without one (or vice versa) bit-identically.
        self.offline_store = offline_store
        self.resumed = bool(records[1:])  # anything beyond campaign-start
        #: Index of already-durable records, keyed by identity.
        self._existing: dict[tuple, JournalRecord] = {}
        self._last_seq = records[-1].seq if records else -1
        for record in records:
            self._existing[self._key(record)] = record

        # -- mutable campaign state (rebuilt on resume) --
        self.system: MyceliumSystem | None = None
        self.graph = None
        self.clock = CampaignClock()
        self.injector: FaultInjector | None = None
        self.monitor = CommitteeHealthMonitor(None)
        self.results: list[dict] = []
        self.epochs: list[dict] = []
        self.emergency_reshares = 0
        self.quorum_wait_rounds = 0
        self._start_query = 0
        self._active_fabric: TaskFabric | None = None
        # Shard count of the *current process*, taken from the runtime
        # config in run().  Deliberately not journaled: like workers and
        # backend, the shard layout never affects results, so a campaign
        # may crash under one K and resume under another bit-identically.
        self._active_shards = 1

    # -- construction -------------------------------------------------------

    @staticmethod
    def _key(record: JournalRecord) -> tuple:
        data = record.data
        if record.type == "phase":
            return ("phase", data["query"], data["phase"])
        if record.type in ("query-start", "handoff-start"):
            return (record.type, data["query"])
        if record.type == "crash":
            return ("crash", data["query"], data["phase"])
        return (record.type,)

    @classmethod
    def start(
        cls,
        config: CampaignConfig,
        directory: str | Path,
        runtime: RuntimeConfig | None = None,
        kill: KillSpec | None = None,
        fsync: bool = True,
        offline_store=None,
    ) -> CampaignRunner:
        journal = Journal.create(directory, fsync=fsync)
        record = journal.append(
            "campaign-start", {"version": 1, "config": config.to_json()}
        )
        return cls(
            config, directory, journal, [record], runtime, kill, offline_store
        )

    @classmethod
    def resume(
        cls,
        directory: str | Path,
        runtime: RuntimeConfig | None = None,
        kill: KillSpec | None = None,
        fsync: bool = True,
        offline_store=None,
    ) -> CampaignRunner:
        journal, records = Journal.resume(directory, fsync=fsync)
        if not records or records[0].type != "campaign-start":
            raise CampaignResumeError(
                "journal does not begin with a campaign-start record"
            )
        config = CampaignConfig.from_json(records[0].data["config"])
        return cls(
            config, directory, journal, records, runtime, kill, offline_store
        )

    # -- journal plumbing ---------------------------------------------------

    def _append(self, record_type: str, data: dict) -> JournalRecord:
        record = self.journal.append(record_type, data)
        self._existing[self._key(record)] = record
        self._last_seq = record.seq
        return record

    def _crash(self, phase: str, query_index: int | None) -> None:
        telemetry.count("durability.campaign.crashes")
        raise CoordinatorCrash(phase, query_index)

    def _kill_before(self, phase: str, query_index: int | None) -> None:
        if self.kill and self.kill.before and self.kill.matches(
            phase, query_index
        ):
            self._crash(phase, query_index)

    def _kill_after(self, phase: str, query_index: int | None) -> None:
        """Post-commit kills: the explicit KillSpec, then the fault plan.

        Plan-driven kills are journaled (a ``crash`` record) before the
        process dies, so a resumed run sees the record and does not die
        at the same boundary again.
        """
        if self.kill and not self.kill.before and self.kill.matches(
            phase, query_index
        ):
            self._crash(phase, query_index)
        if (
            self.injector is not None
            and query_index is not None
            and self.injector.coordinator_crash_due(query_index, phase)
            and ("crash", query_index, phase) not in self._existing
        ):
            self._append("crash", {"query": query_index, "phase": phase})
            self.injector.record_coordinator_crash()
            self._crash(phase, query_index)

    def _commit(
        self, record_type: str, phase: str, query_index: int | None,
        data: dict,
    ) -> None:
        self._kill_before(phase, query_index)
        self._append(record_type, data)
        self._kill_after(phase, query_index)

    # -- deterministic environment ------------------------------------------

    def _system_params(self) -> SystemParameters:
        return SystemParameters(
            num_devices=self.config.people,
            degree_bound=self.config.degree,
            hops=2,
            committee_size=self.config.committee_size,
            replicas=2,
            forwarder_fraction=0.3,
        )

    def _build_system(self) -> MyceliumSystem:
        cfg = self.config
        return MyceliumSystem.setup(
            num_devices=cfg.people,
            rng=derive_rng(cfg.master_seed, "setup"),
            profile=TEST,
            params=self._system_params(),
            schema=scaled_schema(),
            committee_size=cfg.committee_size,
            committee_threshold=cfg.committee_threshold,
            total_epsilon=cfg.total_epsilon,
            keep_genesis_secret=False,
        )

    def _build_faults(self) -> None:
        """The fault plan is pure data derived from the config plus the
        genesis committee — identical on every resume."""
        cfg = self.config
        assert self.system is not None
        if not (
            cfg.churn_fraction
            or cfg.committee_churn_members
            or cfg.committee_corrupt_members
            or cfg.coordinator_kills
        ):
            return
        corrupt_committee = tuple(
            m.device_id
            for m in self.system.committee.members[
                : cfg.committee_corrupt_members
            ]
        )
        plan = FaultPlan.generate(
            cfg.fault_seed,
            num_devices=cfg.people,
            churn_fraction=cfg.churn_fraction,
            churn_window_rounds=cfg.churn_window_rounds,
            horizon_rounds=256,
            corrupt_committee=corrupt_committee,
            coordinator_kills=cfg.coordinator_kills,
        )
        if cfg.committee_churn_members:
            targets = [
                m.device_id
                for m in self.system.committee.members[
                    : cfg.committee_churn_members
                ]
            ]
            extra = tuple(
                ChurnWindow(
                    device_id=d,
                    start_round=cfg.committee_churn_start,
                    end_round=(
                        cfg.committee_churn_start + cfg.committee_churn_rounds
                    ),
                )
                for d in targets
            )
            plan = dataclasses.replace(
                plan, churn_windows=plan.churn_windows + extra
            )
        self.injector = FaultInjector(plan)
        self.monitor = CommitteeHealthMonitor(self.injector)

    def _resolve_query(self, text: str):
        return CATALOG[text] if text in CATALOG else text

    # -- setup phase --------------------------------------------------------

    def _ensure_setup(self) -> None:
        """Genesis: run it (fresh) or replay + digest-check it (resume).

        Key material is deterministic in ``derive_rng(master, "setup")``
        and never journaled; the setup record holds only public facts.
        """
        self.system = self._build_system()
        self.graph = build_campaign_graph(
            self.config.people,
            self.config.degree,
            derive_rng(self.config.master_seed, "workload"),
        )
        self._build_faults()
        genesis = {
            "epoch": 0,
            "members": [
                m.device_id for m in self.system.committee.members
            ],
            "digest": serialize.committee_digest(self.system.committee),
            "reason": "genesis",
        }
        existing = self._existing.get(("setup",))
        if existing is None:
            data = {
                "public_key": self.system.public_key.fingerprint().hex(),
                "committee": genesis,
            }
            self._commit("setup", "setup", None, data)
        else:
            recorded = existing.data
            if (
                recorded["public_key"]
                != self.system.public_key.fingerprint().hex()
                or recorded["committee"]["digest"] != genesis["digest"]
            ):
                raise CampaignResumeError(
                    "replayed genesis ceremony does not match the journal "
                    "(master seed or code changed under a live campaign)"
                )
        self.epochs.append(genesis)

    # -- checkpointing ------------------------------------------------------

    def _write_checkpoint(self, queries_done: int) -> None:
        assert self.system is not None
        state = {
            "queries_done": queries_done,
            "clock_round": self.clock.round,
            "ledger": [
                [label, eps] for label, eps in self.system.budget.history
            ],
            "results": self.results,
            "epochs": self.epochs,
            "emergency_reshares": self.emergency_reshares,
            "quorum_wait_rounds": self.quorum_wait_rounds,
        }
        checkpoint_mod.write_checkpoint(
            self.directory, self._last_seq, state
        )

    def _apply_checkpoint(self) -> None:
        """Fast-forward from the newest valid checkpoint, if any.

        The checkpoint restores small state directly; the committee is
        *replayed* (re-dealt from derived randomness using the recorded
        public facts) and digest-checked, because shares are never on
        disk.  A corrupt checkpoint is skipped — full journal replay
        covers everything it would have.
        """
        found = checkpoint_mod.load_latest_checkpoint(
            self.directory, self._last_seq
        )
        if found is None:
            return
        _, state = found
        assert self.system is not None
        for epoch_fact in state["epochs"]:
            if epoch_fact["epoch"] == 0:
                continue
            self._replay_handoff(epoch_fact)
        self.clock.advance(state["clock_round"] - self.clock.round)
        for label, eps in state["ledger"]:
            self.system.budget.charge(eps, label)
        self.results = list(state["results"])
        self.epochs = [self.epochs[0]] + [
            dict(e) for e in state["epochs"] if e["epoch"] != 0
        ]
        self.emergency_reshares = state["emergency_reshares"]
        self.quorum_wait_rounds = state["quorum_wait_rounds"]
        for payload in self.results:
            self.system.query_log.append(
                serialize.metadata_from_json(payload["metadata"])
            )
        self._start_query = state["queries_done"]
        telemetry.count(
            "durability.resume.replayed", len(state["results"])
        )

    def _replay_handoff(self, fact: dict) -> None:
        """Re-derive one committed epoch from recorded public facts plus
        the derived deal randomness; digest-check the outcome."""
        assert self.system is not None
        committee = self.system.committee
        if committee.epoch + 1 != fact["epoch"]:
            raise CampaignResumeError(
                f"epoch replay out of order: at {committee.epoch}, "
                f"journal wants {fact['epoch']}"
            )
        deal_rng = derive_rng(
            self.config.master_seed, "epoch", fact["epoch"], "deal"
        )
        proposal = committee_mod.deal_rotation(
            committee,
            list(fact["members"]),
            self.config.committee_threshold,
            deal_rng,
            dealer_ids=list(fact["dealers"]),
        )
        new_committee = committee_mod.commit_rotation(committee, proposal)
        if serialize.committee_digest(new_committee) != fact["digest"]:
            raise CampaignResumeError(
                f"replayed epoch {fact['epoch']} commitment digest does "
                "not match the journal"
            )
        self.system.committee = new_committee

    # -- the run loop -------------------------------------------------------

    def run(self) -> CampaignResult:
        """Execute (or finish) the campaign; returns the released result.

        Raises :class:`~repro.errors.CoordinatorCrash` when a kill point
        fires — the journal is left resumable.
        """
        runtime = (
            self.runtime if self.runtime is not None else get_runtime_config()
        )
        self._active_shards = runtime.shards
        with telemetry.span(
            "campaign.run",
            queries=len(self.config.queries),
            resumed=self.resumed,
        ):
            with backends.use_backend(runtime.backend), \
                    TaskFabric.from_config(runtime) as fabric:
                self._active_fabric = fabric
                if self.resumed:
                    with telemetry.span("campaign.resume"):
                        self._ensure_setup()
                        self._apply_checkpoint()
                else:
                    self._ensure_setup()
                for query_index in range(
                    self._start_query, len(self.config.queries)
                ):
                    self._run_query(query_index, fabric)
                    if (
                        self.config.checkpoint_every
                        and (query_index + 1) % self.config.checkpoint_every
                        == 0
                        and query_index + 1 < len(self.config.queries)
                    ):
                        self._write_checkpoint(query_index + 1)
                return self._complete()

    def _complete(self) -> CampaignResult:
        result = CampaignResult(
            config=self.config,
            results=self.results,
            ledger=[
                [label, eps]
                for label, eps in (
                    self.system.budget.history if self.system else []
                )
            ],
            epochs=self.epochs,
            emergency_reshares=self.emergency_reshares,
            quorum_wait_rounds=self.quorum_wait_rounds,
            clock_rounds=self.clock.round,
        )
        existing = self._existing.get(("campaign-complete",))
        if existing is None:
            self._commit(
                "campaign-complete",
                "complete",
                None,
                {"digest": result.digest, "queries": len(self.results)},
            )
        elif existing.data["digest"] != result.digest:
            raise CampaignResumeError(
                "replayed campaign digest does not match the completion "
                "record"
            )
        (self.directory / RESULTS_NAME).write_text(
            serialize.canonical_json(result.to_json()), "utf-8"
        )
        return result

    # -- one query ----------------------------------------------------------

    def _run_query(self, query_index: int, fabric: TaskFabric) -> None:
        text, epsilon = self.config.queries[query_index]
        if ("query-start", query_index) not in self._existing:
            self._commit(
                "query-start",
                "start",
                query_index,
                {"query": query_index, "text": text, "epsilon": epsilon},
            )
        ctx: dict[str, Any] = {"text": text, "epsilon": epsilon}
        for phase in PHASES:
            record = self._existing.get(("phase", query_index, phase))
            with telemetry.span(
                "campaign.phase", query=query_index, phase=phase
            ):
                if record is not None:
                    getattr(self, f"_restore_{phase}")(
                        query_index, record.data, ctx
                    )
                    telemetry.count("durability.resume.replayed")
                else:
                    data = getattr(self, f"_phase_{phase}")(
                        query_index, ctx, fabric
                    )
                    self._commit(
                        "phase",
                        phase,
                        query_index,
                        {"query": query_index, "phase": phase, **data},
                    )
        telemetry.count("durability.campaign.queries")

    # -- phase: compile -----------------------------------------------------

    def _phase_compile(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        plan = self.system.compile(self._resolve_query(ctx["text"]))
        ctx["plan"] = plan
        ctx["label"] = str(plan.query)
        return {
            "label": ctx["label"],
            "coefficients": plan.layout.total_coefficients,
        }

    def _restore_compile(self, query_index, data, ctx) -> None:
        self._phase_compile(query_index, ctx, None)
        if ctx["label"] != data["label"]:
            raise CampaignResumeError(
                f"query {query_index} recompiled to {ctx['label']!r}, "
                f"journal says {data['label']!r}"
            )

    # -- phase: charge ------------------------------------------------------

    def _phase_charge(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        self.system.budget.charge(ctx["epsilon"], ctx["label"])
        return {"epsilon": ctx["epsilon"], "label": ctx["label"]}

    def _restore_charge(self, query_index, data, ctx) -> None:
        # Applied exactly once per durable record — the mutant the audit
        # self-test hunts applies it twice.
        assert self.system is not None
        self.system.budget.charge(data["epsilon"], data["label"])

    # -- phase: rounds ------------------------------------------------------

    def _phase_rounds(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        schedule = build_schedule(
            ctx["plan"], self.system.params, reuse_paths=query_index > 0
        )
        crounds = schedule.total_crounds
        self.clock.advance(crounds)
        return {"crounds": crounds, "round": self.clock.round}

    def _restore_rounds(self, query_index, data, ctx) -> None:
        self.clock.advance(data["crounds"])
        if self.clock.round != data["round"]:
            raise CampaignResumeError(
                f"campaign clock diverged at query {query_index}: "
                f"{self.clock.round} != {data['round']}"
            )

    # -- phase: submit ------------------------------------------------------

    def _offline_devices(self) -> set[int]:
        if self.injector is None:
            return set()
        return {
            d
            for d in range(self.config.people)
            if not self.injector.device_online(d, self.clock.round)
        }

    def _phase_submit(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        offline = self._offline_devices()
        rng = derive_rng(
            self.config.master_seed, "query", query_index, "submit"
        )
        submissions = self.system.submit_phase(
            ctx["plan"],
            self.graph,
            rng,
            fabric,
            offline=offline or None,
            offline_store=self.offline_store,
        )
        ctx["submissions"] = submissions
        return {
            "digest": serialize.submissions_digest(submissions),
            "count": len(submissions),
            "offline": sorted(offline),
        }

    def _restore_submit(self, query_index, data, ctx) -> None:
        # Submissions carry per-origin proofs — heavy, so they are
        # journaled by digest only.  If the aggregate record is already
        # durable we never need them again; otherwise re-execute the
        # seeded run and check the digest.
        if ("phase", query_index, "aggregate") in self._existing:
            ctx["submissions"] = None
            return
        replayed = self._phase_submit(query_index, ctx, self._active_fabric)
        if replayed["digest"] != data["digest"]:
            raise CampaignResumeError(
                f"query {query_index} submissions replayed to digest "
                f"{replayed['digest'][:12]}, journal says "
                f"{data['digest'][:12]}"
            )

    # -- phase: aggregate ---------------------------------------------------

    def _phase_aggregate(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        aggregation = self.system.aggregate_phase(
            ctx["submissions"], fabric, self._active_shards
        )
        ctx["aggregation"] = aggregation
        return {
            "ciphertext": serialize.ciphertext_to_json(
                aggregation.ciphertext
            ),
            "accepted": list(aggregation.accepted),
            "rejected": list(aggregation.rejected),
            "root": aggregation.summation_root.hex(),
            "verification_seconds": aggregation.verification_seconds,
            "proofs_verified": aggregation.proofs_verified,
        }

    def _restore_aggregate(self, query_index, data, ctx) -> None:
        from repro.core.aggregator import AggregationResult

        assert self.system is not None
        ctx["aggregation"] = AggregationResult(
            ciphertext=serialize.ciphertext_from_json(
                self.system.profile, data["ciphertext"]
            ),
            accepted=list(data["accepted"]),
            rejected=list(data["rejected"]),
            summation_root=bytes.fromhex(data["root"]),
            verification_seconds=data["verification_seconds"],
            proofs_verified=data["proofs_verified"],
        )

    # -- phase: decrypt -----------------------------------------------------

    def _await_quorum(self) -> tuple:
        """Ping until ``threshold`` members are live (§6.5: wait and
        retry), advancing the campaign clock one C-round per miss."""
        assert self.system is not None
        waited = 0
        report = self.monitor.ping(self.system.committee, self.clock.round)
        while not report.quorate:
            waited += 1
            if waited > QUORUM_WAIT_LIMIT:
                raise ProtocolError(
                    "no decryption quorum within "
                    f"{QUORUM_WAIT_LIMIT} C-rounds"
                )
            self.clock.advance(1)
            report = self.monitor.ping(
                self.system.committee, self.clock.round
            )
        if waited:
            telemetry.count("durability.monitor.quorum_wait_rounds", waited)
            self.quorum_wait_rounds += waited
        return report, waited

    def _phase_decrypt(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        report, waited = self._await_quorum()
        rng = derive_rng(
            self.config.master_seed, "query", query_index, "decrypt"
        )
        corrupt = (
            self.injector.corrupt_partial
            if self.injector is not None
            and self.injector.plan.corrupt_committee
            else None
        )
        coefficients, _, flagged = self.system.decrypt_phase(
            ctx["plan"],
            ctx["aggregation"].ciphertext,
            rng,
            participating=list(report.live),
            corrupt=corrupt,
        )
        ctx["coefficients"] = coefficients
        return {
            "coefficients": coefficients,
            "participating": list(report.live),
            "flagged": sorted(flagged),
            "waited": waited,
            "round": self.clock.round,
        }

    def _restore_decrypt(self, query_index, data, ctx) -> None:
        self.clock.advance(data["waited"])
        self.quorum_wait_rounds += data["waited"]
        if self.clock.round != data["round"]:
            raise CampaignResumeError(
                f"clock diverged restoring decrypt of query {query_index}"
            )
        ctx["coefficients"] = list(data["coefficients"])

    # -- phase: noise -------------------------------------------------------

    def _phase_noise(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        report = sensitivity_mod.analyze(ctx["plan"])
        scale = report.sensitivity / ctx["epsilon"]
        noise = self.system.compute_noise(
            ctx["plan"], ctx["coefficients"], scale
        )
        ctx["noise"] = noise
        ctx["scale"] = scale
        ctx["sensitivity"] = report.sensitivity
        return {
            "scale": scale,
            "sensitivity": report.sensitivity,
            "noise": noise,
        }

    def _restore_noise(self, query_index, data, ctx) -> None:
        ctx["noise"] = [list(group) for group in data["noise"]]
        ctx["scale"] = data["scale"]
        ctx["sensitivity"] = data["sensitivity"]

    # -- phase: release -----------------------------------------------------

    def _phase_release(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        metadata = self.system.query_metadata(
            ctx["label"],
            ctx["epsilon"],
            ctx["sensitivity"],
            ctx["scale"],
            ctx["aggregation"],
        )
        result = self.system.release_with_noise(
            ctx["plan"], ctx["coefficients"], ctx["noise"], metadata
        )
        payload = serialize.result_to_json(result)
        self.results.append(payload)
        self.system.query_log.append(metadata)
        return {"result": payload}

    def _restore_release(self, query_index, data, ctx) -> None:
        assert self.system is not None
        payload = data["result"]
        self.results.append(payload)
        self.system.query_log.append(
            serialize.metadata_from_json(payload["metadata"])
        )

    # -- phase: handoff -----------------------------------------------------

    def _phase_handoff(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None
        committee = self.system.committee
        report = self.monitor.ping(committee, self.clock.round)
        scheduled = (
            self.config.rotate_every > 0
            and (query_index + 1) % self.config.rotate_every == 0
        )
        emergency = report.needs_reshare
        if not scheduled and not emergency:
            return {"rotated": False}
        epoch_to = committee.epoch + 1
        reason = "emergency" if emergency else "scheduled"

        started = self._existing.get(("handoff-start", query_index))
        if started is not None and started.data["epoch_to"] == epoch_to:
            # Crash mid-redistribution: retry with the recorded intent —
            # the old committee is still authoritative.
            intent = started.data
            new_members = list(intent["members"])
            dealers = list(intent["dealers"])
            reason = intent["reason"]
        else:
            if emergency:
                dealers = list(report.live)
                candidates = self.monitor.live_devices(
                    self.config.people, self.clock.round
                )
            else:
                dealers = [m.device_id for m in committee.members]
                candidates = list(range(self.config.people))
            waited = 0
            while (
                len(dealers) < committee.threshold
                or len(candidates) < self.config.committee_size
            ):
                waited += 1
                if waited > QUORUM_WAIT_LIMIT:
                    raise ProtocolError(
                        "no dealer quorum for the handoff within "
                        f"{QUORUM_WAIT_LIMIT} C-rounds"
                    )
                self.clock.advance(1)
                report = self.monitor.ping(committee, self.clock.round)
                dealers = list(report.live)
                candidates = self.monitor.live_devices(
                    self.config.people, self.clock.round
                )
            if waited:
                telemetry.count(
                    "durability.monitor.quorum_wait_rounds", waited
                )
                self.quorum_wait_rounds += waited
            new_members = committee_mod.elect_committee(
                candidates,
                self.config.committee_size,
                derive_rng(
                    self.config.master_seed, "epoch", epoch_to, "elect"
                ),
            )
            self._commit(
                "handoff-start",
                "handoff-start",
                query_index,
                {
                    "query": query_index,
                    "epoch_from": committee.epoch,
                    "epoch_to": epoch_to,
                    "members": new_members,
                    "dealers": dealers,
                    "reason": reason,
                    "round": self.clock.round,
                },
            )

        deal_rng = derive_rng(
            self.config.master_seed, "epoch", epoch_to, "deal"
        )
        proposal = committee_mod.deal_rotation(
            committee,
            new_members,
            self.config.committee_threshold,
            deal_rng,
            dealer_ids=dealers,
        )
        try:
            new_committee = committee_mod.commit_rotation(
                committee, proposal
            )
        except SecretSharingError as exc:
            # Not enough dealers survived agreement: the handoff aborts
            # atomically; the old committee keeps the key.
            return {
                "rotated": False,
                "aborted": str(exc),
                "reason": reason,
            }
        self.system.committee = new_committee
        fact = {
            "epoch": new_committee.epoch,
            "members": list(new_members),
            "dealers": list(dealers),
            "digest": serialize.committee_digest(new_committee),
            "reason": reason,
        }
        self.epochs.append(fact)
        telemetry.count("durability.handoffs.committed")
        if reason == "emergency":
            self.emergency_reshares += 1
            telemetry.count("durability.reshares.emergency")
        return {"rotated": True, "round": self.clock.round, **fact}

    def _restore_handoff(self, query_index, data, ctx) -> None:
        if not data["rotated"]:
            return
        self.clock.advance(data["round"] - self.clock.round)
        fact = {
            "epoch": data["epoch"],
            "members": list(data["members"]),
            "dealers": list(data["dealers"]),
            "digest": data["digest"],
            "reason": data["reason"],
        }
        self._replay_handoff(fact)
        self.epochs.append(fact)
        if data["reason"] == "emergency":
            self.emergency_reshares += 1

def run_campaign(
    config: CampaignConfig,
    directory: str | Path,
    runtime: RuntimeConfig | None = None,
    kill: KillSpec | None = None,
    fsync: bool = True,
    offline_store=None,
) -> CampaignResult:
    """Convenience one-shot: start and run a fresh campaign."""
    return CampaignRunner.start(
        config, directory, runtime=runtime, kill=kill, fsync=fsync,
        offline_store=offline_store,
    ).run()


def resume_campaign(
    directory: str | Path,
    runtime: RuntimeConfig | None = None,
    kill: KillSpec | None = None,
    fsync: bool = True,
    offline_store=None,
) -> CampaignResult:
    """Convenience one-shot: resume a crashed campaign to completion."""
    return CampaignRunner.resume(
        directory, runtime=runtime, kill=kill, fsync=fsync,
        offline_store=offline_store,
    ).run()
