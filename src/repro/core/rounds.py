"""C-round scheduling: the wall-clock timeline of a query (§3.4, §6.3).

Mycelium is not interactive — C-rounds are hours long so devices with
intermittent connectivity can participate.  This module turns a compiled
plan plus system parameters into the query's full communication
schedule, phase by phase, in C-rounds and hours.  "The duration depends
only on the number of hops and not on what specifically the query
computes" (§6.3) — which the schedule makes explicit: only ``hops`` and
the vertex program's round count appear.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.costmodel import CROUND_HOURS
from repro.params import SystemParameters
from repro.query.plans import ExecutionPlan


@dataclass(frozen=True)
class Phase:
    """One contiguous stretch of the schedule."""

    name: str
    crounds: int
    description: str

    def hours(self, cround_hours: float = CROUND_HOURS) -> float:
        return self.crounds * cround_hours


@dataclass(frozen=True)
class QuerySchedule:
    """The end-to-end timeline of one query."""

    phases: tuple[Phase, ...]
    reuses_paths: bool

    @property
    def total_crounds(self) -> int:
        return sum(p.crounds for p in self.phases)

    def total_hours(self, cround_hours: float = CROUND_HOURS) -> float:
        return self.total_crounds * cround_hours

    def table(self) -> list[tuple[str, int, str]]:
        return [(p.name, p.crounds, p.description) for p in self.phases]


def build_schedule(
    plan: ExecutionPlan,
    params: SystemParameters,
    reuse_paths: bool = False,
) -> QuerySchedule:
    """Lay out the query's phases.

    ``reuse_paths`` models the steady state: telescoping "is run
    infrequently in order to let new devices join the system" (§3.4),
    so consecutive queries skip it.
    """
    k = params.hops
    phases: list[Phase] = []
    if not reuse_paths:
        phases.append(
            Phase(
                name="path setup",
                crounds=k * k + 2 * k,
                description=(
                    f"telescoping: {k - 1} extensions plus the "
                    f"DST/ACK/complaint-window exchange"
                ),
            )
        )
    # The vertex program runs 2 * hops message waves (flood out,
    # aggregate back, §4.4); each wave costs k+1 C-rounds of mixnet
    # latency (§3.5).
    waves = 2 * plan.hops
    phases.append(
        Phase(
            name="vertex program",
            crounds=waves * (k + 1),
            description=(
                f"{waves} communication waves of a neigh({plan.hops}) "
                f"query, each k+1 = {k + 1} C-rounds through the mixnet"
            ),
        )
    )
    phases.append(
        Phase(
            name="aggregation + decryption",
            crounds=1,
            description=(
                "aggregator verifies proofs, sums and relinearizes once; the "
                "committee threshold-decrypts and noises within one round"
            ),
        )
    )
    return QuerySchedule(phases=tuple(phases), reuses_paths=reuse_paths)


@dataclass
class CampaignClock:
    """The campaign's monotonic C-round clock.

    A multi-query campaign lives on one shared timeline: each query's
    schedule (:func:`build_schedule`) advances the clock by its total
    C-rounds, and quorum waits advance it round by round.  Churn windows
    in a :class:`repro.faults.plan.FaultPlan` are keyed to this clock,
    so committee liveness is a pure function of (plan, clock) — which is
    what lets a resumed campaign re-derive exactly which members were
    alive at every past decryption.
    """

    round: int = 0

    def advance(self, crounds: int) -> int:
        """Move time forward; returns the new current round."""
        if crounds < 0:
            raise ValueError("the campaign clock never runs backwards")
        self.round += crounds
        return self.round


def queries_per_path_epoch(
    plan: ExecutionPlan,
    params: SystemParameters,
    epoch_days: float = 7.0,
    cround_hours: float = CROUND_HOURS,
) -> int:
    """How many queries fit between path re-establishments if paths are
    refreshed every ``epoch_days`` (to let new devices join)."""
    setup = build_schedule(plan, params, reuse_paths=False)
    follow_up = build_schedule(plan, params, reuse_paths=True)
    budget_hours = epoch_days * 24
    remaining = budget_hours - setup.total_hours(cround_hours)
    if remaining < 0:
        return 0
    return 1 + int(remaining // follow_up.total_hours(cround_hours))
