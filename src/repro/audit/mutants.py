"""Known-bad mutants for the harness self-test.

Each mutant re-introduces a realistic bug — several are the very bugs
this harness was built after (ledger drift, non-monotone composition,
phantom-query admission) — as a reversible monkey-patch, plus a small
set of trial cases guaranteed to expose it.  ``repro audit --self-test``
verifies two things per mutant: the cases pass on the clean tree
(baseline) and at least one check fails under the patch (caught).  A
harness that cannot re-find these bugs has no business vouching for the
pipeline.
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass

from repro.audit.cases import GraphSpec, TrialCase
from repro.core import committee as committee_mod
from repro.core import aggregator as aggregator_mod
from repro.crypto import bgv, shamir
from repro.crypto.polyring import RingElement
from repro.dp import budget as budget_mod
from repro.errors import PrivacyBudgetExceeded
from repro.query import sensitivity as sensitivity_mod


@contextmanager
def _patched(obj, name: str, value) -> Iterator[None]:
    original = getattr(obj, name)
    setattr(obj, name, value)
    try:
        yield
    finally:
        setattr(obj, name, original)


# ---------------------------------------------------------------------------
# Fixed cases dense enough to exercise every code path a mutant breaks
# ---------------------------------------------------------------------------


def _k4_graph() -> GraphSpec:
    """A complete graph on four vertices (degree 3 everywhere): every
    origin multiplies three leaf ciphertexts, so noise actually grows."""
    vertex = {"inf": 1, "tInf": 3, "tInfec": 3, "age": 30}
    edge = {
        "duration": 2,
        "contacts": 1,
        "last_contact": 1,
        "location": 1,
        "setting": 1,
    }
    return GraphSpec(
        degree_bound=3,
        vertices=tuple(dict(vertex) for _ in range(4)),
        edges=tuple(
            (u, v, dict(edge)) for u in range(4) for v in range(u + 1, 4)
        ),
    )


def _equivalence_case(seed: int, behaviors: dict[int, str] | None = None) -> TrialCase:
    return TrialCase(
        kind="equivalence",
        seed=seed,
        query="SELECT HISTO(COUNT(*)) FROM neigh(1)",
        graph=_k4_graph(),
        behaviors=behaviors or {},
    )


def _budget_case(seed: int) -> TrialCase:
    return TrialCase(
        kind="budget",
        seed=seed,
        total_epsilon=1.0,
        epsilons=(0.1,) * 8,
        per_query_epsilon=0.5,
        delta=1e-6,
    )


def _sensitivity_case(seed: int) -> TrialCase:
    return TrialCase(
        kind="sensitivity",
        seed=seed,
        query="SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
        graph=_k4_graph(),
    )


def _shamir_case(seed: int) -> TrialCase:
    return TrialCase(kind="shamir", seed=seed, threshold=2, num_shares=4)


def _flagging_case(seed: int) -> TrialCase:
    # No injected corruption: the honest-run-flags-nobody check is what
    # exposes a partial-decryption computation that silently perturbs a
    # share (the decoder *corrects* the lie, so oracle equality passes).
    return TrialCase(kind="flagging", seed=seed, threshold=2, num_shares=6)


def _robust_case(seed: int) -> TrialCase:
    return TrialCase(
        kind="robust", seed=seed, threshold=2, num_shares=6, corrupt=(1,)
    )


def _shard_equivalence_case(seed: int, shards: int = 3) -> TrialCase:
    return TrialCase(
        kind="shard_equivalence",
        seed=seed,
        query="SELECT HISTO(COUNT(*)) FROM neigh(1)",
        graph=_k4_graph(),
        shards=shards,
    )


def _quarantine_case(seed: int) -> TrialCase:
    # One persistent forged-proof attacker and one claim tamperer over
    # three queries: both must be quarantined by query 2, so a ledger
    # that never records rejections fails the completeness check.
    return TrialCase(
        kind="quarantine_soundness",
        seed=seed,
        query="SELECT HISTO(COUNT(*)) FROM neigh(1)",
        graph=_k4_graph(),
        behaviors={0: "forged-proof", 2: "bad-aggregation"},
        num_queries=3,
    )


def _crash_case(seed: int) -> TrialCase:
    # Kill right after the open record of query 0 so the resume path
    # restores (rather than re-runs) the charge record — the exact path
    # the double-apply mutant corrupts.
    return TrialCase(
        kind="crash",
        seed=seed,
        people=8,
        kill_phase="open",
        kill_query=0,
        num_queries=2,
        rotate_every=1,
    )


# ---------------------------------------------------------------------------
# The mutants
# ---------------------------------------------------------------------------


def _mutant_drop_coefficient():
    original = committee_mod.threshold_decrypt

    def bad(committee, ciphertext, rng, participating=None, corrupt=None):
        plain, flagged = original(
            committee, ciphertext, rng, participating=participating,
            corrupt=corrupt,
        )
        coeffs = list(plain.coeffs)
        for i, c in enumerate(coeffs):
            if c:
                coeffs[i] = 0
                break
        return RingElement(plain.params, tuple(coeffs)), flagged

    return _patched(committee_mod, "threshold_decrypt", bad)


def _mutant_charge_skips_ledger():
    def bad(self, epsilon, label=""):
        if not self.can_afford(epsilon):
            raise PrivacyBudgetExceeded("budget exhausted")
        # the bug: forgets self.history.append((label, epsilon))

    return _patched(budget_mod.PrivacyBudget, "charge", bad)


def _mutant_admission_slack():
    def bad(self, epsilon):
        return self.spent + epsilon <= self.total_epsilon + 1e-6

    return _patched(budget_mod.PrivacyBudget, "can_afford", bad)


def _mutant_composition_missing_min():
    def bad(per_query_epsilon, num_queries, delta):
        if num_queries == 0:
            return 0.0
        return budget_mod.advanced_composition_epsilon(
            per_query_epsilon, num_queries, delta
        )

    return _patched(budget_mod, "composed_epsilon", bad)


def _mutant_phantom_query():
    original = budget_mod.queries_supported

    def bad(total_epsilon, per_query_epsilon, delta=None):
        return max(1, original(total_epsilon, per_query_epsilon, delta))

    return _patched(budget_mod, "queries_supported", bad)


def _mutant_sensitivity_halved():
    original = sensitivity_mod.analyze

    def bad(plan):
        report = original(plan)
        return sensitivity_mod.SensitivityReport(
            influenced_queries=report.influenced_queries,
            per_query_contribution=report.per_query_contribution,
            sensitivity=report.sensitivity / 2,
        )

    return _patched(sensitivity_mod, "analyze", bad)


def _mutant_multiply_undercounts_noise():
    original = bgv.multiply

    def bad(a, b):
        ct = original(a, b)
        return dataclasses.replace(
            ct, noise_bits=max(a.noise_bits, b.noise_bits) + 1
        )

    return _patched(bgv, "multiply", bad)


def _mutant_lagrange_shifted():
    original = shamir.lagrange_coefficients_at_zero

    def bad(indices, field):
        coeffs = original(indices, field)
        first = min(coeffs)
        coeffs[first] = (coeffs[first] + 1) % field
        return coeffs

    return _patched(shamir, "lagrange_coefficients_at_zero", bad)


def _mutant_wrong_share():
    original = committee_mod.partial_decrypt

    def bad(member, ciphertext, profile, smudge_share, product=None):
        partial = original(member, ciphertext, profile, smudge_share, product)
        if member.share_index == 1:
            # the bug: one member's partial decryption is off by one
            return partial + RingElement.constant(profile.ring, 1)
        return partial

    return _patched(committee_mod, "partial_decrypt", bad)


def _mutant_journal_double_apply():
    from repro.durability import campaign as campaign_mod

    original = campaign_mod.CampaignRunner._restore_charge

    def bad(self, query_index, data, ctx):
        # the bug: a journaled budget charge is applied twice on resume
        original(self, query_index, data, ctx)
        original(self, query_index, data, ctx)

    return _patched(campaign_mod.CampaignRunner, "_restore_charge", bad)


def _mutant_journal_exact():
    from repro.durability import campaign as campaign_mod

    original = campaign_mod.CampaignRunner._phase_open

    def bad(self, query_index, ctx, fabric):
        # the bug: the open record journals the decrypted coefficients
        plaintext, _ = committee_mod.threshold_decrypt(
            self.system.committee, ctx["aggregation"].ciphertext,
            self.system.rng,
        )
        width = ctx["plan"].layout.total_coefficients
        data = original(self, query_index, ctx, fabric)
        return {**data, "coefficients": list(plaintext.coeffs[:width])}

    return _patched(campaign_mod.CampaignRunner, "_phase_open", bad)


def _mutant_colluding_shard():
    original = aggregator_mod.shard_claimed_partial

    def bad(chunk_partials):
        claimed = original(chunk_partials)
        if claimed is not None:
            # the bug: a colluding shard aggregator replays its first
            # chunk into the claimed partial, inflating those bins
            return bgv.add(claimed, list(chunk_partials)[0])
        return claimed

    return _patched(aggregator_mod, "shard_claimed_partial", bad)


def _mutant_unquarantined_attacker():
    from repro.adversary import quarantine as quarantine_mod

    def bad(self, rejected):
        # the bug: rejections are observed but never tallied, so no
        # origin ever crosses the quarantine threshold
        return ()

    return _patched(
        quarantine_mod.SuspicionLedger, "record_rejections", bad
    )


def _mutant_aggregator_accepts_everything():
    def bad(self, submission):
        return True, 0.0, 0

    return _patched(
        aggregator_mod.QueryAggregator, "verify_submission", bad
    )


@dataclass(frozen=True)
class Mutant:
    """One injectable bug plus the cases that must expose it."""

    name: str
    description: str
    patch: Callable[[], object]
    cases: tuple[TrialCase, ...]


MUTANTS: tuple[Mutant, ...] = (
    Mutant(
        name="decrypt-drops-coefficient",
        description="threshold decryption silently zeroes one coefficient",
        patch=_mutant_drop_coefficient,
        cases=(_shamir_case(101), _equivalence_case(102)),
    ),
    Mutant(
        name="charge-skips-ledger",
        description="PrivacyBudget.charge deducts nothing from the ledger",
        patch=_mutant_charge_skips_ledger,
        cases=(_budget_case(201),),
    ),
    Mutant(
        name="admission-slack",
        description="can_afford admits epsilon-dust past an exhausted budget",
        patch=_mutant_admission_slack,
        cases=(_budget_case(301),),
    ),
    Mutant(
        name="composition-missing-min",
        description="composed epsilon uses raw Thm 3.20 (worse than k*eps)",
        patch=_mutant_composition_missing_min,
        cases=(_budget_case(401),),
    ),
    Mutant(
        name="phantom-query",
        description="queries_supported reports >= 1 even when nothing fits",
        patch=_mutant_phantom_query,
        cases=(_budget_case(501),),
    ),
    Mutant(
        name="sensitivity-halved",
        description="static sensitivity analysis returns half the bound",
        patch=_mutant_sensitivity_halved,
        cases=(_sensitivity_case(601),),
    ),
    Mutant(
        name="multiply-undercounts-noise",
        description="homomorphic multiply tags noise as max(a,b)+1 bits",
        patch=_mutant_multiply_undercounts_noise,
        cases=(_equivalence_case(701),),
    ),
    Mutant(
        name="lagrange-shifted",
        description="one Lagrange coefficient is off by one",
        patch=_mutant_lagrange_shifted,
        cases=(_shamir_case(801),),
    ),
    Mutant(
        name="aggregator-accepts-everything",
        description="submission verification never rejects",
        patch=_mutant_aggregator_accepts_everything,
        cases=(_equivalence_case(901, behaviors={0: "bad-aggregation"}),),
    ),
    Mutant(
        name="wrong_share",
        description="one member's robust partial decryption is off by one",
        patch=_mutant_wrong_share,
        cases=(_flagging_case(1101), _robust_case(1102)),
    ),
    Mutant(
        name="colluding-shard",
        description="a shard aggregator tampers its claimed partial sum",
        patch=_mutant_colluding_shard,
        cases=(_shard_equivalence_case(1201),),
    ),
    Mutant(
        name="unquarantined-attacker",
        description="the suspicion ledger never quarantines rejected origins",
        patch=_mutant_unquarantined_attacker,
        cases=(_quarantine_case(1401),),
    ),
    Mutant(
        name="journal-double-apply",
        description="a journaled budget charge is applied twice on resume",
        patch=_mutant_journal_double_apply,
        cases=(_crash_case(1001),),
    ),
    Mutant(
        name="journal-exact",
        description="the open record journals the decrypted coefficients",
        patch=_mutant_journal_exact,
        cases=(_crash_case(1501),),
    ),
)
