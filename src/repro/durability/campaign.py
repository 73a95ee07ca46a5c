"""The durable campaign runner: multi-query, multi-epoch, crash-safe.

A *campaign* is the deployed shape of Mycelium: one genesis ceremony,
then a seeded sequence of queries over a fixed contact graph, with the
decryption key handed between committee epochs (scheduled rotations
plus emergency reshares when live membership decays to the
threshold).  Every phase
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

A resume is journal replay and nothing else: validate the journal,
replay genesis and the committed epochs, restore every durable phase
record, then continue live from the first phase without one.  The only
way to kill the coordinator is a :class:`KillSpec`.
"""

from __future__ import annotations

import dataclasses
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro import telemetry
from repro.core import committee as committee_mod
from repro.core.rounds import CampaignClock, build_schedule
from repro.core.system import MyceliumSystem
from repro.durability import serialize
from repro.durability.journal import Journal, JournalRecord
from repro.errors import (
    CampaignResumeError,
    CoordinatorCrash,
    ProtocolError,
    SecretSharingError,
)
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan
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
    "open",
    "handoff",
)

#: Extra kill points outside the per-query phase loop.
KILL_POINTS = PHASES + ("setup", "start", "handoff-start", "complete")

RESULTS_NAME = "results.json"

#: The journal layout; :meth:`CampaignRunner.resume` refuses any other.
#: Version 4: the ``open`` record's ``participating`` is the quorum that
#: decrypted, not every live member.
JOURNAL_VERSION = 4


def needs_reshare(
    committee: committee_mod.Committee, live: list[int]
) -> bool:
    """Whether a handoff must happen now: members are down and live
    membership is at (or below) the threshold — one more loss and the
    key is unreachable until churn reverses, so the live members hand
    it on while they still can."""
    return len(live) < committee.size and len(live) <= committee.threshold


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
        # A kill point no boundary carries would silently never fire.
        if self.phase not in KILL_POINTS:
            raise ProtocolError(
                f"unknown kill point {self.phase!r}; "
                f"choose from {', '.join(KILL_POINTS)}"
            )
        if self.query is not None and self.query < 0:
            raise ProtocolError(
                f"kill point query index {self.query} is negative"
            )

    @classmethod
    def parse(cls, text: str, before: bool = False) -> KillSpec:
        """``"open"`` or ``"open:2"`` (phase at query index 2)."""
        phase, colon, query = text.partition(":")
        if not colon:
            return cls(phase=text, before=before)
        try:
            index = int(query)
        except ValueError:
            raise ProtocolError(
                f"kill point {text!r}: query index {query!r} is not an "
                "integer"
            ) from None
        return cls(phase=phase, query=index, before=before)

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
    #: quorum wait and emergency resharing.
    committee_churn_members: int = 0
    committee_churn_start: int = 0
    committee_churn_rounds: int = 0
    #: Byzantine committee members: the first ``committee_corrupt_members``
    #: members of the *genesis* committee submit corrupt-partial faults at
    #: every decryption — the robust decoder must correct and flag them
    #: without changing any released result (§5).
    committee_corrupt_members: int = 0

    def system_params(self) -> SystemParameters:
        return SystemParameters(
            num_devices=self.people,
            degree_bound=self.degree,
            hops=2,
            committee_size=self.committee_size,
            replicas=2,
            forwarder_fraction=0.3,
        )

    def to_json(self) -> dict:
        return dataclasses.asdict(self)  # JSON writes the tuples as lists

    @classmethod
    def from_json(cls, data: dict) -> CampaignConfig:
        """Rebuild the journaled config; a key the dataclass does not
        declare, a missing key, or a value of the wrong JSON type is a
        :class:`CampaignResumeError`."""
        hints = typing.get_type_hints(cls)
        for problem, names in (
            ("unknown", set(data) - set(hints)),
            ("missing", set(hints) - set(data)),
        ):
            if names:
                raise CampaignResumeError(
                    f"campaign-start config has {problem} keys "
                    f"{sorted(names)}"
                )
        for name, value in data.items():
            if not _json_fits(value, hints[name]):
                raise CampaignResumeError(
                    f"campaign-start config {name}={value!r} does not fit "
                    f"{cls.__annotations__[name]}"
                )
        queries = tuple((q, float(e)) for q, e in data["queries"])
        return cls(**{**data, "queries": queries})


def _json_fits(value: Any, hint: Any) -> bool:
    """Whether decoded JSON ``value`` has the shape of type ``hint``
    (``int``, ``float``, ``str`` or a ``tuple[...]`` written as a list)."""
    if hint is float:
        hint = (int, float)
    elif typing.get_origin(hint) is tuple:
        args = typing.get_args(hint)
        if not isinstance(value, list):
            return False
        if args[-1] is Ellipsis:
            return all(_json_fits(item, args[0]) for item in value)
        return len(value) == len(args) and all(map(_json_fits, value, args))
    return isinstance(value, hint) and not isinstance(value, bool)


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
        return {**dataclasses.asdict(self), "digest": self.digest}


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
    ):
        self.config = config
        self.directory = Path(directory)
        self.journal = journal
        self.runtime = runtime
        self.kill = kill
        self.resumed = bool(records[1:])  # anything beyond campaign-start
        #: Index of already-durable records, keyed by identity.
        self._existing: dict[tuple, JournalRecord] = {}
        for record in records:
            self._existing[self._key(record)] = record

        # -- mutable campaign state (rebuilt on resume) --
        self.system: MyceliumSystem | None = None
        self.graph = None
        self.clock = CampaignClock()
        self.injector: FaultInjector | None = None
        self.results: list[dict] = []
        self.epochs: list[dict] = []
        self.emergency_reshares = 0
        self.quorum_wait_rounds = 0
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
        return (record.type,)

    @classmethod
    def start(
        cls,
        config: CampaignConfig,
        directory: str | Path,
        runtime: RuntimeConfig | None = None,
        kill: KillSpec | None = None,
        fsync: bool = True,
    ) -> CampaignRunner:
        journal = Journal.create(directory, fsync=fsync)
        record = journal.append(
            "campaign-start",
            {"version": JOURNAL_VERSION, "config": config.to_json()},
        )
        return cls(config, directory, journal, [record], runtime, kill)

    @classmethod
    def resume(
        cls,
        directory: str | Path,
        runtime: RuntimeConfig | None = None,
        kill: KillSpec | None = None,
        fsync: bool = True,
    ) -> CampaignRunner:
        journal, records = Journal.resume(directory, fsync=fsync)
        if not records or records[0].type != "campaign-start":
            raise CampaignResumeError(
                "journal does not begin with a campaign-start record"
            )
        version = records[0].data.get("version")
        if version != JOURNAL_VERSION:
            raise CampaignResumeError(
                f"journal version {version!r} is not {JOURNAL_VERSION}; "
                "finish it with the release that wrote it"
            )
        config = CampaignConfig.from_json(records[0].data["config"])
        return cls(config, directory, journal, records, runtime, kill)

    # -- journal plumbing ---------------------------------------------------

    def _commit(
        self, record_type: str, phase: str, query_index: int | None,
        data: dict,
    ) -> None:
        """Append one record, firing the KillSpec on its side of the
        commit point: ``before`` the append or after it is durable."""
        kill = self.kill is not None and self.kill.matches(phase, query_index)
        if kill and self.kill.before:
            self._crash(phase, query_index)
        record = self.journal.append(record_type, data)
        self._existing[self._key(record)] = record
        if kill:
            self._crash(phase, query_index)

    def _crash(self, phase: str, query_index: int | None) -> None:
        telemetry.count("durability.campaign.crashes")
        raise CoordinatorCrash(phase, query_index)

    # -- deterministic environment ------------------------------------------

    def _build_system(self) -> MyceliumSystem:
        cfg = self.config
        return MyceliumSystem.setup(
            num_devices=cfg.people,
            rng=derive_rng(cfg.master_seed, "setup"),
            profile=TEST,
            params=cfg.system_params(),
            schema=scaled_schema(),
            committee_size=cfg.committee_size,
            committee_threshold=cfg.committee_threshold,
            total_epsilon=cfg.total_epsilon,
        )

    def _build_faults(self) -> None:
        """The fault plan is pure data derived from the config plus the
        genesis committee — identical on every resume.  A campaign
        without faults gets an empty plan: every ping finds everyone
        live."""
        cfg = self.config
        assert self.system is not None
        genesis = [m.device_id for m in self.system.committee.members]
        start = cfg.committee_churn_start
        self.injector = FaultInjector(
            FaultPlan.generate(
                cfg.fault_seed,
                num_devices=cfg.people,
                churn_fraction=cfg.churn_fraction,
                churn_window_rounds=cfg.churn_window_rounds,
                horizon_rounds=256,
                corrupt_committee=tuple(
                    genesis[: cfg.committee_corrupt_members]
                ),
            ).with_absence(
                genesis[: cfg.committee_churn_members],
                start,
                start + cfg.committee_churn_rounds,
            )
        )

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
        new_committee = self._deal(fact["members"], fact["dealers"])
        if serialize.committee_digest(new_committee) != fact["digest"]:
            raise CampaignResumeError(
                f"replayed epoch {fact['epoch']} commitment digest does "
                "not match the journal"
            )
        self.system.committee = new_committee

    def _deal(self, members: list[int], dealers: list[int]):
        """The VSR handoff to the next epoch's ``members``, dealt by
        ``dealers`` from the epoch's derived randomness; raises
        :class:`SecretSharingError` if too few dealers survive."""
        assert self.system is not None
        committee = self.system.committee
        proposal = committee_mod.deal_rotation(
            committee,
            list(members),
            self.config.committee_threshold,
            derive_rng(
                self.config.master_seed, "epoch", committee.epoch + 1, "deal"
            ),
            dealer_ids=list(dealers),
        )
        return committee_mod.commit_rotation(committee, proposal)

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
                else:
                    self._ensure_setup()
                for query_index in range(len(self.config.queries)):
                    self._run_query(query_index, fabric)
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
            "width": plan.layout.total_coefficients,
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

    # -- phase: open (decrypt, decode, noise: only the release is kept) -----

    def _wait_until(self, round_number: int) -> int:
        """Advance the clock over a quorum wait; returns its length."""
        waited = round_number - self.clock.round
        self.clock.advance(waited)
        self.quorum_wait_rounds += waited
        return waited

    def _phase_open(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None and self.injector is not None
        corrupt = (
            self.injector.corrupt_partial
            if self.injector.plan.corrupt_committee
            else None
        )
        open_round, live = self.system.await_open(
            self.injector, self.clock.round, corrupt
        )
        waited = self._wait_until(open_round)
        rng = derive_rng(
            self.config.master_seed, "query", query_index, "decrypt"
        )
        sensitivity = sensitivity_mod.analyze(ctx["plan"]).sensitivity
        metadata = self.system.query_metadata(
            ctx["label"], ctx["epsilon"], sensitivity,
            sensitivity / ctx["epsilon"], ctx["aggregation"],
        )
        result, quorum, flagged = self.system.open_phase(
            ctx["plan"], ctx["aggregation"].ciphertext, rng, metadata,
            live=live, corrupt=corrupt,
        )
        payload = serialize.result_to_json(result)
        self.results.append(payload)
        self.system.query_log.append(metadata)
        return {
            "result": payload,
            "participating": quorum,
            "flagged": sorted(flagged),
            "waited": waited,
            "round": self.clock.round,
        }

    def _restore_open(self, query_index, data, ctx) -> None:
        assert self.system is not None
        self._wait_until(self.clock.round + data["waited"])
        if self.clock.round != data["round"]:
            raise CampaignResumeError(
                f"clock diverged restoring open of query {query_index}"
            )
        payload = data["result"]
        self.results.append(payload)
        self.system.query_log.append(
            serialize.metadata_from_json(payload["metadata"])
        )

    # -- phase: handoff -----------------------------------------------------

    def _phase_handoff(self, query_index, ctx, fabric) -> dict:
        assert self.system is not None and self.injector is not None
        cfg, injector = self.config, self.injector
        committee = self.system.committee
        member_ids = [m.device_id for m in committee.members]
        scheduled = (
            cfg.rotate_every > 0 and (query_index + 1) % cfg.rotate_every == 0
        )
        emergency = needs_reshare(
            committee, injector.live(member_ids, self.clock.round)
        )
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
            self._wait_until(intent["round"])
        else:
            devices = range(cfg.people)
            if emergency:
                # Only live members deal, to a committee of live devices.
                handoff_round, dealers = injector.await_quorum(
                    member_ids,
                    self.clock.round,
                    lambda up, r: len(up) >= committee.threshold
                    and len(injector.live(devices, r)) >= cfg.committee_size,
                )
                self._wait_until(handoff_round)
                candidates = injector.live(devices, handoff_round)
            else:
                dealers, candidates = member_ids, list(devices)
            new_members = committee_mod.elect_committee(
                candidates,
                cfg.committee_size,
                derive_rng(cfg.master_seed, "epoch", epoch_to, "elect"),
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

        try:
            new_committee = self._deal(new_members, dealers)
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
        self._wait_until(data["round"])
        fact = {
            key: data[key]
            for key in ("epoch", "members", "dealers", "digest", "reason")
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
) -> CampaignResult:
    """Convenience one-shot: start and run a fresh campaign."""
    return CampaignRunner.start(
        config, directory, runtime=runtime, kill=kill, fsync=fsync
    ).run()


def resume_campaign(
    directory: str | Path,
    runtime: RuntimeConfig | None = None,
    kill: KillSpec | None = None,
    fsync: bool = True,
) -> CampaignResult:
    """Convenience one-shot: resume a crashed campaign to completion."""
    return CampaignRunner.resume(
        directory, runtime=runtime, kill=kill, fsync=fsync
    ).run()
