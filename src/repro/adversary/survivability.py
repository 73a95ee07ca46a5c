"""Attack-intensity sweep: goodput and accuracy under Byzantine load.

``run_survivability`` drives the full in-process pipeline (submit →
aggregate → threshold-decrypt → release) against one attack profile at
a range of intensities, with the suspicion ledger quarantining repeat
offenders between queries.  Every point records:

* **goodput** — the fraction of honest-device contributions that made
  it into the released answer, against the Figure 5(c) delivery model
  at the equivalent effective loss rate;
* **accuracy** — whether every completed query matched the degraded
  plaintext oracle bit-for-bit (the attacker may remove its *own* data,
  never corrupt an honest device's);
* **quarantine** — which origins the ledger demoted, and that no honest
  origin was ever flagged;
* **committee** — for equivocating profiles, that robust decode flagged
  exactly the corrupt members and still landed on the exact plaintext.

Everything derives from ``(seed, profile)``; the same pair replays the
same report bit-for-bit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro import telemetry
from repro.adversary.profiles import AttackProfile
from repro.adversary.quarantine import SuspicionLedger
from repro.analysis.goodput import message_success
from repro.core import committee as committee_mod
from repro.core.system import MyceliumSystem
from repro.crypto import bgv
from repro.crypto.polyring import RingElement
from repro.engine import histogram as histogram_mod
from repro.engine import plaintext as plaintext_mod
from repro.errors import MyceliumError, RobustDecodingError
from repro.faults.injector import FaultInjector
from repro.params import SystemParameters
from repro.query.schema import scaled_schema
from repro.runtime import derive_rng
from repro.workloads.epidemic import build_campaign_graph

#: The honest workload every sweep runs (one-hop: the degraded oracle
#: covers faults exactly at one hop).
SURVIVABILITY_QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"


@dataclass(frozen=True)
class SurvivabilityPoint:
    """One (profile, intensity) measurement."""

    intensity: float
    num_devices: int
    attackers: tuple[int, ...]
    queries_total: int
    queries_completed: int
    #: Queries whose released counts matched the degraded oracle exactly.
    queries_exact: int
    #: Honest-device contribution slots lost to churn, summed over queries.
    churned_slots: int
    quarantined: tuple[int, ...]
    #: Empirical honest goodput: accepted honest contributions / honest
    #: contribution slots.
    goodput: float
    #: Figure 5(c) delivery model at the equivalent effective loss.
    model_goodput: float
    #: Committee equivocation probe (0/0/True when not applicable).
    committee_corrupt: int = 0
    committee_flagged: int = 0
    committee_exact: bool = True

    @property
    def honest_devices(self) -> int:
        return self.num_devices - len(self.attackers)

    @property
    def survived(self) -> bool:
        """The defense held: every query completed exactly, quarantine
        stayed inside the attacker set, goodput met the benign model,
        and the committee probe (if any) decoded exactly."""
        return (
            self.queries_completed == self.queries_total
            and self.queries_exact == self.queries_total
            and set(self.quarantined) <= set(self.attackers)
            and self.goodput >= self.model_goodput - 1e-12
            and self.committee_exact
        )


@dataclass
class SurvivabilityReport:
    """Attack intensity vs goodput/accuracy for one profile."""

    profile: str
    seed: int
    num_devices: int
    num_queries: int
    points: list[SurvivabilityPoint] = field(default_factory=list)

    @property
    def survived(self) -> bool:
        return all(p.survived for p in self.points)

    def to_json(self) -> dict:
        return {
            "profile": self.profile,
            "seed": self.seed,
            "num_devices": self.num_devices,
            "num_queries": self.num_queries,
            "survived": self.survived,
            "points": [
                {
                    "intensity": p.intensity,
                    "attackers": list(p.attackers),
                    "queries_total": p.queries_total,
                    "queries_completed": p.queries_completed,
                    "queries_exact": p.queries_exact,
                    "churned_slots": p.churned_slots,
                    "quarantined": list(p.quarantined),
                    "goodput": p.goodput,
                    "model_goodput": p.model_goodput,
                    "committee_corrupt": p.committee_corrupt,
                    "committee_flagged": p.committee_flagged,
                    "committee_exact": p.committee_exact,
                    "survived": p.survived,
                }
                for p in self.points
            ],
        }

    def summary(self) -> str:
        lines = [
            f"survivability: profile={self.profile} seed={self.seed} "
            f"devices={self.num_devices} queries/point={self.num_queries} "
            f"=> {'SURVIVED' if self.survived else 'DEGRADED'}",
            "  intensity  attackers  quarantined  goodput  model   exact",
        ]
        for p in self.points:
            lines.append(
                f"  {p.intensity:9.2f}  {len(p.attackers):9d}  "
                f"{len(p.quarantined):11d}  {p.goodput:7.3f}  "
                f"{p.model_goodput:5.3f}  {p.queries_exact}/{p.queries_total}"
            )
        return "\n".join(lines)


def _decoded_counts(result) -> list[list[int]]:
    return [[int(round(c)) for c in g.counts] for g in result.groups]


def _expected_counts(plan, expectation) -> list[list[int]]:
    return [
        [int(c) for c in g.counts]
        for g in histogram_mod.decode_histogram(
            list(expectation.coefficients), plan
        )
    ]


def _committee_probe(
    system: MyceliumSystem, profile: AttackProfile, seed: int
) -> tuple[int, int, bool]:
    """Equivocating-partial check: robust decode must flag exactly the
    corrupt members and still produce the exact plaintext."""
    member_ids = tuple(m.device_id for m in system.committee.members)
    corrupt = set(profile.corrupt_members(member_ids))
    if not corrupt:
        return 0, 0, True
    rng = derive_rng(seed, "adversary", profile.name, "probe")
    exponent = rng.randrange(system.profile.n)
    ciphertext = bgv.encrypt_monomial(system.public_key, exponent, rng)
    # The probe encrypted x^exponent itself: that monomial is the oracle.
    oracle = RingElement.monomial(system.profile.plaintext_ring, exponent)
    radius = (len(member_ids) - system.committee.threshold) // 2
    injector = FaultInjector(
        profile.fault_plan(
            seed, system.num_devices, committee_members=member_ids
        )
    )
    try:
        plain, flagged = committee_mod.threshold_decrypt(
            system.committee,
            ciphertext,
            derive_rng(seed, "adversary", profile.name, "probe-decrypt"),
            corrupt=injector.corrupt_partial,
        )
    except RobustDecodingError:
        # Past the unique decoding radius the specified behaviour is a
        # typed refusal, never a silently wrong plaintext (the
        # RESILIENCE.md tolerance table) — the defense held, so the
        # point survives; within the radius a refusal is a failure.
        return len(corrupt), 0, len(corrupt) > radius
    exact = tuple(plain.coeffs) == tuple(oracle.coeffs) and flagged == corrupt
    return len(corrupt), len(flagged), exact


def run_survivability(
    profile: AttackProfile,
    seed: int,
    num_devices: int = 10,
    num_queries: int = 3,
    intensities: tuple[float, ...] = (0.0, 0.5, 1.0, 1.5),
    epsilon: float = 0.5,
    log=None,
) -> SurvivabilityReport:
    """Sweep one profile across ``intensities``; see the module docstring."""
    report = SurvivabilityReport(
        profile=profile.name,
        seed=seed,
        num_devices=num_devices,
        num_queries=num_queries,
    )
    with telemetry.span(
        "adversary.sweep", profile=profile.name, seed=seed
    ):
        for index, intensity in enumerate(intensities):
            point = _run_point(
                profile.scaled(intensity), seed, index, num_devices,
                num_queries, epsilon,
            )
            report.points.append(point)
            if log is not None:
                log(
                    f"adversary: {profile.name} intensity={intensity:g} "
                    f"goodput={point.goodput:.3f} "
                    f"quarantined={len(point.quarantined)}"
                )
    return report


def _run_point(
    scaled: AttackProfile,
    seed: int,
    index: int,
    num_devices: int,
    num_queries: int,
    epsilon: float,
) -> SurvivabilityPoint:
    graph_rng = derive_rng(seed, "adversary", scaled.name, "graph", index)
    graph = build_campaign_graph(num_devices, 2, graph_rng)
    n = graph.num_vertices
    params = SystemParameters(
        num_devices=n, degree_bound=2, hops=2, replicas=2,
        forwarder_fraction=0.3,
    )
    sys_seed = derive_rng(seed, "adversary", scaled.name, "system", index)
    system = MyceliumSystem.setup(
        num_devices=n,
        rng=random.Random(sys_seed.getrandbits(48)),
        params=params,
        schema=scaled_schema(),
        committee_size=5,
        committee_threshold=2,
        total_epsilon=max(10.0, num_queries * epsilon + 1.0),
    )
    behaviors = scaled.behaviors_for(seed, n)
    attackers = tuple(sorted(behaviors))
    honest = tuple(d for d in range(n) if d not in behaviors)
    ledger = SuspicionLedger()

    completed = 0
    exact = 0
    churned_slots = 0
    accepted_honest = 0
    for q in range(num_queries):
        churned = set(
            scaled.churn_for_round(seed, q, honest)
        )
        churned_slots += len(churned)
        quarantined = set(ledger.quarantined)
        try:
            result = system.run_query(
                SURVIVABILITY_QUERY,
                graph,
                epsilon=epsilon,
                behaviors=behaviors,
                offline=set(churned),
                noiseless=True,
                quarantined=quarantined,
            )
        except MyceliumError:
            telemetry.count("adversary.queries.failed")
            continue
        completed += 1
        ledger.record_rejections(result.metadata.byzantine_origins)
        plan = system.compile(SURVIVABILITY_QUERY)
        expectation = plaintext_mod.expected_under_faults(
            plan,
            graph,
            offline=churned | quarantined,
            behaviors=behaviors,
        )
        if _decoded_counts(result) == _expected_counts(plan, expectation):
            exact += 1
        accepted_honest += len(honest) - len(churned)

    honest_slots = len(honest) * num_queries
    goodput = accepted_honest / honest_slots if honest_slots else 1.0
    effective_loss = churned_slots / honest_slots if honest_slots else 0.0
    # In-process transport delivers directly (one hop, one replica), so
    # Figure 5(c) collapses to 1 - f at the empirical loss rate.
    model = message_success(1, 1, effective_loss)
    corrupt, flagged, committee_exact = _committee_probe(
        system, scaled, seed
    )
    return SurvivabilityPoint(
        intensity=scaled.intensity,
        num_devices=n,
        attackers=attackers,
        queries_total=num_queries,
        queries_completed=completed,
        queries_exact=exact,
        churned_slots=churned_slots,
        quarantined=ledger.quarantined,
        goodput=goodput,
        model_goodput=model,
        committee_corrupt=corrupt,
        committee_flagged=flagged,
        committee_exact=committee_exact,
    )
