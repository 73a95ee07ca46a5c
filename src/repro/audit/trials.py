"""The audit kinds: how each case is drawn, and the trial that checks it.

:data:`KINDS` is the one table of audit kinds.  Each row holds a kind's
case draw — its fields, drawn from the case RNG right after the case
seed — and its trial body, which runs the case and returns every check
result; all bodies share the ``(case, bench)`` signature.
:data:`SCHEDULE` spells out the cycle of kinds over trial indices.
Adding a kind means adding a row and a schedule slot.

Each trial family targets one slice of the protocol:

* ``equivalence`` — the encrypted pipeline (executor → aggregator →
  threshold decryption) against the plaintext oracle, including the
  *degraded* oracle under offline devices and Byzantine behaviours, plus
  BGV noise soundness on every ciphertext it produces.
* ``budget`` — privacy-budget conservation, monotonicity, and the
  advanced-composition admission arithmetic.
* ``sensitivity`` — the §4.7 static sensitivity bound against the
  empirically measured L1 influence of one device's data.
* ``shamir`` — threshold reconstruction, VSR redistribution, and
  committee threshold decryption against direct decryption.
* ``mixnet`` — a full onion-routed query under injected faults must
  either match the degraded oracle or fail with a typed error.
* ``shard_equivalence`` — the aggregator at K shards (per-shard
  partial sums claim-checked at the reduction root) must be
  bit-identical to itself at K=1 and to a plain left fold of the
  accepted ciphertexts, including under Byzantine submissions.
* ``byzantine_survival`` — a multi-query run under forged-proof
  attackers feeding the suspicion ledger: every answer must match the
  degraded oracle, and the honest devices' answer must be bit-identical
  to a baseline run with the attackers simply offline.
* ``quarantine_soundness`` — the quarantine ledger under forged-proof
  and claim-tampering attackers: honest origins are never suspected,
  quarantined origins are always real attackers, and every persistent
  attacker is quarantined once its rejections reach the threshold.

Deliberate style point: cross-module entry points the mutant self-test
patches (``threshold_decrypt``, ``composed_epsilon``, ``analyze``, …)
are always called through their module object, never imported as bare
names, so a patched module attribute is what the trial exercises.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable
from dataclasses import dataclass

from repro.adversary import quarantine as quarantine_mod
from repro.audit.bench import AuditBench
from repro.audit.cases import TrialCase
from repro.audit.checks import CheckResult, check, check_equal, check_le
from repro.audit.generator import (
    audit_params,
    audit_schema,
    random_attrs,
    random_backend,
    random_faults,
    random_graph,
)
from repro.core import committee as committee_mod
from repro.core.aggregator import QueryAggregator
from repro.crypto import bgv, shamir, vsr
from repro.dp import budget as budget_mod
from repro.durability import campaign as campaign_mod
from repro.engine import histogram as histogram_mod
from repro.engine import plaintext as plaintext_mod
from repro.engine.encrypted import EncryptedExecutor
from repro.engine.malicious import Behavior
from repro.errors import (
    CoordinatorCrash,
    MyceliumError,
    PrivacyBudgetExceeded,
    RobustDecodingError,
    ShardIntegrityError,
)
from repro.faults import FaultInjector, FaultPlan
from repro.faults.chaos import HORIZON_ROUNDS, ChaosQuery
from repro.query import sensitivity as sensitivity_mod
from repro.query.ast import OutputKind
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.plans import ExecutionPlan
from repro.query.randgen import random_query
from repro.params import TEST
from repro.query.schema import ColumnGroup
from repro.runtime import TaskFabric, backends, derive_rng


def compile_case_plan(case: TrialCase) -> ExecutionPlan:
    """Compile a case's query exactly as the generator did."""
    plan = compile_query(parse(case.query), audit_params(), audit_schema())
    plan.validate_feasible(TEST)
    return plan


# ---------------------------------------------------------------------------
# The encrypted round every engine kind runs
# ---------------------------------------------------------------------------


def _draw_plan(
    rng: random.Random, ungrouped_only: bool = False, faulty: bool = False
) -> dict:
    """A random graph and query; ``faulty`` adds a random fault
    assignment to one-hop plans."""
    schema = audit_schema()
    graph = random_graph(rng, schema)
    text, plan = random_query(
        rng,
        audit_params(),
        schema=schema,
        profile=TEST,
        ungrouped_only=ungrouped_only,
    )
    fields: dict = {"query": text, "graph": graph}
    if faulty and plan.hops == 1:
        fields["offline"], fields["behaviors"] = random_faults(
            rng, len(graph.vertices)
        )
    fields["backend"] = random_backend(rng)
    return fields


def _behaviors(case: TrialCase) -> dict[int, Behavior]:
    return {d: Behavior(v) for d, v in case.behaviors.items()}


def _encrypted_round(
    case: TrialCase,
    bench: AuditBench,
    plan: ExecutionPlan,
    graph,
    behaviors: dict[int, Behavior],
    offline,
    rng: random.Random,
    shards: tuple[int, ...] = (1,),
):
    """Run ``plan`` encrypted under ``behaviors`` and ``offline``, and
    aggregate the submissions once per shard count in ``shards``.

    Returns the degraded plaintext oracle for the same faults, the
    executor (for its stats), the submissions and the aggregations.
    """
    oracle = plaintext_mod.expected_under_faults(
        plan, graph, offline=offline, behaviors=behaviors
    )
    with backends.use_backend(case.backend), TaskFabric(
        workers=case.workers, chunk_size=2
    ) as fabric:
        executor = EncryptedExecutor(
            plan, bench.public, bench.zk, rng, fabric=fabric
        )
        submissions = executor.run(
            graph, behaviors=behaviors, offline=set(offline)
        )
        aggregations = [
            QueryAggregator(
                zk=bench.zk,
                relin_keys=bench.relin_keys,
                fabric=fabric,
                num_shards=num_shards,
            ).aggregate(submissions)
            for num_shards in shards
        ]
    return oracle, executor, submissions, aggregations


def _decrypt(bench: AuditBench, plan: ExecutionPlan, ciphertext, rng):
    """Committee threshold decryption: the plaintext, and the plan's
    coefficients read from it."""
    plain, _ = committee_mod.threshold_decrypt(
        bench.committee, ciphertext, rng
    )
    return plain, tuple(
        plain.coeffs[i] for i in range(plan.layout.total_coefficients)
    )


# ---------------------------------------------------------------------------
# Equivalence: encrypted pipeline vs (degraded) plaintext oracle
# ---------------------------------------------------------------------------


def _noise_checks(
    bench: AuditBench, label: str, ct: bgv.Ciphertext
) -> list[CheckResult]:
    """exact <= tagged (estimate soundness); tagged <= capacity when the
    ciphertext must still decrypt correctly."""
    exact = bgv.exact_noise_bits(bench.secret, ct)
    capacity = bgv.noise_capacity_bits(bench.profile)
    return [
        check(
            f"{label}.noise-estimate-sound",
            exact <= ct.noise_bits,
            f"measured {exact:.1f} bits, tagged {ct.noise_bits:.1f}",
        ),
        check(
            f"{label}.noise-within-capacity",
            ct.noise_bits <= capacity,
            f"tagged {ct.noise_bits:.1f} bits, capacity {capacity:.1f}",
        ),
    ]


def _draw_equivalence(rng: random.Random) -> dict:
    fields = _draw_plan(rng, faulty=True)
    fields["workers"] = 2 if rng.random() < 0.2 else 1
    return fields


def _run_equivalence(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    graph = case.graph.build()
    expectation, executor, submissions, (aggregation,) = _encrypted_round(
        case, bench, plan, graph, _behaviors(case), case.offline,
        random.Random(case.seed),
    )
    results.append(
        check_equal(
            "equivalence.rejected-origins",
            frozenset(aggregation.rejected),
            expectation.rejected_origins,
        )
    )
    expected_accepted = frozenset(
        range(graph.num_vertices)
    ) - frozenset(case.offline) - expectation.rejected_origins
    results.append(
        check_equal(
            "equivalence.accepted-origins",
            frozenset(aggregation.accepted),
            expected_accepted,
        )
    )
    results.append(
        check_equal(
            "equivalence.defaulted-pairs",
            executor.stats.defaulted_members,
            expectation.defaulted_pairs,
        )
    )
    neighborhood = sensitivity_mod.influenced_local_queries(
        plan.hops, plan.degree_bound
    )
    results.append(
        check_le(
            "equivalence.multiplication-bound",
            executor.stats.multiplications,
            graph.num_vertices * neighborhood,
        )
    )
    # Device outputs are pre-relinearization (arbitrary degree): only the
    # estimate-soundness half applies; the capacity bound is an
    # aggregate-level property.  Report one summary check.
    unsound = [
        s.origin
        for s in submissions
        if bgv.exact_noise_bits(bench.secret, s.ciphertext)
        > s.ciphertext.noise_bits
    ]
    results.append(
        check(
            "equivalence.submission-noise-estimates-sound",
            not unsound,
            f"origins with under-tagged noise: {unsound}" if unsound else "",
        )
    )

    if aggregation.ciphertext is None:
        results.append(
            check(
                "equivalence.empty-aggregate-means-zero",
                not any(expectation.coefficients),
                f"expected coefficients {expectation.coefficients}",
            )
        )
        return results

    results.extend(
        _noise_checks(bench, "equivalence.aggregate", aggregation.ciphertext)
    )
    plain, decrypted = _decrypt(
        bench, plan, aggregation.ciphertext, derive_rng(case.seed, "decrypt")
    )
    results.append(
        check_equal(
            "equivalence.coefficients", decrypted, expectation.coefficients
        )
    )
    direct = bgv.decrypt(bench.secret, aggregation.ciphertext)
    results.append(
        check_equal(
            "equivalence.threshold-matches-direct",
            tuple(plain.coeffs),
            tuple(direct.coeffs),
        )
    )
    return results


# ---------------------------------------------------------------------------
# Shard equivalence: the aggregator at K shards vs the same class at K=1
# ---------------------------------------------------------------------------


def _draw_shard_equivalence(rng: random.Random) -> dict:
    fields = _draw_plan(rng, faulty=True)
    # Deliberately allowed to exceed the vertex count: trailing empty
    # shards must be a no-op at the reduction root.
    fields["shards"] = rng.choice((2, 3, 5, 8))
    return fields


def _run_shard_equivalence(
    case: TrialCase, bench: AuditBench
) -> list[CheckResult]:
    plan = compile_case_plan(case)
    graph = case.graph.build()
    try:
        expectation, _, submissions, (flat, sharded) = _encrypted_round(
            case, bench, plan, graph, _behaviors(case), case.offline,
            random.Random(case.seed), shards=(1, case.shards),
        )
    except ShardIntegrityError as exc:
        # An honest run must never trip the root's claim check — a
        # shard aggregator lying about its partial sum lands here.
        return [
            check(
                "shard-equivalence.root-accepts-honest-partials",
                False,
                f"{type(exc).__name__}: {exc}",
            )
        ]
    results = [check("shard-equivalence.root-accepts-honest-partials", True)]

    # Field for field against K=1 — floats included: every layout
    # replays the same left fold in global submission order.
    for field in (
        "accepted",
        "rejected",
        "summation_root",
        "verification_seconds",
        "proofs_verified",
    ):
        results.append(
            check_equal(
                f"shard-equivalence.{field.replace('_', '-')}",
                getattr(sharded, field),
                getattr(flat, field),
            )
        )
    results.append(
        check_equal(
            "shard-equivalence.rejected-match-oracle",
            frozenset(sharded.rejected),
            expectation.rejected_origins,
        )
    )

    if flat.ciphertext is None or sharded.ciphertext is None:
        results.append(
            check(
                "shard-equivalence.both-empty",
                flat.ciphertext is None and sharded.ciphertext is None,
                "one path produced a ciphertext and the other none",
            )
        )
        return results

    results.append(
        check(
            "shard-equivalence.ciphertext-bit-identical",
            sharded.ciphertext.serialize() == flat.ciphertext.serialize(),
            f"K={case.shards} components diverge from the flat fold",
        )
    )
    # Independent of the aggregator's tree: addition is exact, so one
    # relinearization of a plain left fold of the accepted submitted
    # ciphertexts must land on the same components.
    reference = bgv.relinearize(
        functools.reduce(
            bgv.add,
            [s.ciphertext for s in submissions if s.origin in flat.accepted],
        ),
        bench.relin_keys,
    )
    results.append(
        check(
            "shard-equivalence.matches-left-fold",
            flat.ciphertext.serialize() == reference.serialize(),
            "K=1 components diverge from one relinearization of a left "
            "fold of the accepted set",
        )
    )
    results.extend(
        _noise_checks(bench, "shard-equivalence.aggregate", sharded.ciphertext)
    )
    _, decrypted = _decrypt(
        bench, plan, sharded.ciphertext, derive_rng(case.seed, "decrypt")
    )
    results.append(
        check_equal(
            "shard-equivalence.coefficients",
            decrypted,
            expectation.coefficients,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Byzantine survival / quarantine soundness: the suspicion ledger under
# seeded attackers, checked against the degraded oracle every query
# ---------------------------------------------------------------------------


def _draw_ledger(rng: random.Random, pool: tuple[str, ...]) -> dict:
    """Persistent attackers drawn from ``pool`` plus honest churn."""
    graph = random_graph(rng, audit_schema())
    n = len(graph.vertices)
    num_attackers = rng.randint(1, max(1, min(2, n - 1)))
    attackers = sorted(rng.sample(range(n), num_attackers))
    behaviors = {device: rng.choice(pool) for device in attackers}
    honest = [v for v in range(n) if v not in behaviors]
    # Honest churn rides along, but at least one honest origin stays
    # online so the aggregate is non-empty.
    offline = tuple(v for v in honest[:-1] if rng.random() < 0.15)
    query = rng.choice(
        (
            "SELECT HISTO(COUNT(*)) FROM neigh(1)",
            "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
        )
    )
    return {
        "query": query,
        "graph": graph,
        "offline": offline,
        "behaviors": behaviors,
        "backend": random_backend(rng),
        "num_queries": rng.randint(2, 3),
    }


def _ledger_round(
    case: TrialCase,
    bench: AuditBench,
    plan: ExecutionPlan,
    graph,
    behaviors: dict[int, Behavior],
    offline: frozenset[int],
    tag: str,
    query_index: int,
):
    """One seeded encrypted round; returns the oracle, the aggregation
    and the decoded coefficients (zeros when the aggregate is empty, so
    callers compare uniformly)."""
    oracle, _, _, (aggregation,) = _encrypted_round(
        case, bench, plan, graph, behaviors, offline,
        random.Random(derive_rng(case.seed, tag, query_index).getrandbits(48)),
    )
    if aggregation.ciphertext is None:
        return oracle, aggregation, (0,) * plan.layout.total_coefficients
    _, decoded = _decrypt(
        bench, plan, aggregation.ciphertext,
        derive_rng(case.seed, tag, "decrypt", query_index),
    )
    return oracle, aggregation, decoded


def _run_ledger(
    case: TrialCase,
    bench: AuditBench,
    plan: ExecutionPlan,
    graph,
    prefix: str,
    tag: str,
    round_checks: Callable[..., list[CheckResult]],
):
    """The query loop both ledger kinds share.

    Each query runs with the quarantined origins offline and checks the
    rejected set and the coefficients against the degraded oracle; then
    ``round_checks(q, quarantined, aggregation, decoded)`` adds the
    kind's own checks and the ledger records the rejections.  Returns
    the checks and the ledger.
    """
    results: list[CheckResult] = []
    behaviors = _behaviors(case)
    ledger = quarantine_mod.SuspicionLedger()
    for q in range(case.num_queries):
        quarantined = frozenset(ledger.quarantined)
        offline = frozenset(case.offline) | quarantined
        active = {d: b for d, b in behaviors.items() if d not in offline}
        oracle, aggregation, decoded = _ledger_round(
            case, bench, plan, graph, active, offline, tag, q
        )
        results.append(
            check_equal(
                f"{prefix}.rejected-matches-oracle[{q}]",
                frozenset(aggregation.rejected),
                oracle.rejected_origins,
            )
        )
        results.append(
            check_equal(
                f"{prefix}.coefficients[{q}]", decoded, oracle.coefficients
            )
        )
        results.extend(round_checks(q, quarantined, aggregation, decoded))
        ledger.record_rejections(aggregation.rejected)
    return results, ledger


def _run_byzantine_survival(
    case: TrialCase, bench: AuditBench
) -> list[CheckResult]:
    plan = compile_case_plan(case)
    graph = case.graph.build()
    attackers = frozenset(case.behaviors)

    def honest_bit_identical(q, quarantined, aggregation, decoded):
        # Forged-proof attackers are both origin-rejecting and
        # leaf-breaking, so the attacked answer must equal a run where
        # the attackers were simply offline — the attack's blast radius
        # never reaches honest answers.
        _, _, baseline = _ledger_round(
            case, bench, plan, graph, {}, frozenset(case.offline) | attackers,
            "byz", q,
        )
        return [
            check_equal(
                f"byzantine.honest-bit-identical[{q}]", decoded, baseline
            )
        ]

    results, ledger = _run_ledger(
        case, bench, plan, graph, "byzantine", "byz", honest_bit_identical
    )
    final = frozenset(ledger.quarantined)
    results.append(
        check(
            "byzantine.quarantine-subset-of-attackers",
            final <= attackers,
            f"quarantined {sorted(final)} vs attackers {sorted(attackers)}",
        )
    )
    # Every case runs >= threshold queries, and a forged proof is
    # rejected every round its origin stays online, so persistence
    # must land every attacker in quarantine by the end.
    results.append(
        check_equal(
            "byzantine.attackers-quarantined", final, attackers
        )
    )
    return results


def _run_quarantine_soundness(
    case: TrialCase, bench: AuditBench
) -> list[CheckResult]:
    attackers = frozenset(case.behaviors)

    def never_resubmit(q, quarantined, aggregation, decoded):
        # A quarantined origin defaults to Enc(x^0) server-side — it
        # must never reach the aggregator again, accepted or rejected.
        return [
            check(
                f"quarantine.quarantined-never-resubmit[{q}]",
                not quarantined
                & (set(aggregation.accepted) | set(aggregation.rejected)),
                f"quarantined {sorted(quarantined)} reappeared in round {q}",
            )
        ]

    results, ledger = _run_ledger(
        case, bench, compile_case_plan(case), case.graph.build(),
        "quarantine", "quar", never_resubmit,
    )
    suspected = frozenset(ledger.suspicion)
    final = frozenset(ledger.quarantined)
    results.append(
        check(
            "quarantine.honest-never-suspected",
            suspected <= attackers,
            f"suspected {sorted(suspected)} vs attackers {sorted(attackers)}",
        )
    )
    results.append(
        check(
            "quarantine.soundness",
            final <= attackers,
            f"quarantined {sorted(final)} vs attackers {sorted(attackers)}",
        )
    )
    # Completeness: every attacker misbehaves each round it is online,
    # and the case runs at least ``threshold`` queries, so each must be
    # quarantined by the end.  The unquarantined-attacker mutant (a
    # ledger that never records rejections) fails exactly here.
    results.append(
        check_equal("quarantine.attackers-quarantined", final, attackers)
    )
    return results


# ---------------------------------------------------------------------------
# Budget: conservation, monotonicity, admission arithmetic
# ---------------------------------------------------------------------------


def _draw_budget(rng: random.Random) -> dict:
    total = round(rng.uniform(0.5, 3.0), 3)
    epsilons = tuple(
        round(rng.choice([0.01, 0.05, 0.1, 0.25]) * rng.uniform(0.5, 2.0), 6)
        for _ in range(rng.randint(5, 30))
    )
    per_query = round(total * rng.choice([0.02, 0.05, 0.1, 0.5, 1.2]), 6)
    return {
        "total_epsilon": total,
        "epsilons": epsilons,
        "per_query_epsilon": per_query,
    }


def _run_budget(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    budget = budget_mod.PrivacyBudget(case.total_epsilon)
    ledger: list[float] = []
    previous_remaining = budget.remaining
    conserved = True
    monotone = True
    rejected_cleanly = True
    for epsilon in case.epsilons:
        if budget.can_afford(epsilon):
            budget.charge(epsilon)
            ledger.append(epsilon)
        else:
            try:
                budget.charge(epsilon)
                rejected_cleanly = False
            except PrivacyBudgetExceeded:
                pass
        if budget.spent != math.fsum(ledger):
            conserved = False
        if math.fsum(ledger) > case.total_epsilon:
            conserved = False
        if budget.remaining > previous_remaining:
            monotone = False
        previous_remaining = budget.remaining
    results.append(
        check(
            "budget.spent-equals-ledger",
            conserved,
            f"spent {budget.spent!r} after {len(ledger)} charges of "
            f"{case.total_epsilon}",
        )
    )
    results.append(check("budget.remaining-monotone", monotone))
    results.append(
        check(
            "budget.charge-raises-when-unaffordable",
            rejected_cleanly,
        )
    )
    if ledger:
        results.append(
            check(
                "budget.no-overcharge-admission",
                not budget.can_afford(case.total_epsilon),
                "a full-budget charge on a non-empty ledger must be refused",
            )
        )

    # Advanced composition: the closed-form count must equal what the
    # accountant actually admits, and the composed bound must be monotone
    # and never worse than sequential composition.
    adv = budget_mod.AdvancedCompositionBudget(
        case.total_epsilon, case.per_query_epsilon, case.delta
    )
    admitted = 0
    while adv.can_afford_next() and admitted <= 100_000:
        adv.charge()
        admitted += 1
    supported = budget_mod.queries_supported(
        case.total_epsilon, case.per_query_epsilon, case.delta
    )
    results.append(
        check_equal("budget.supported-matches-admission", supported, admitted)
    )
    composed = [
        budget_mod.composed_epsilon(case.per_query_epsilon, k, case.delta)
        for k in range(0, 13)
    ]
    results.append(
        check(
            "budget.composed-monotone",
            all(a <= b + 1e-12 for a, b in zip(composed, composed[1:])),
            f"composed sequence {composed}",
        )
    )
    results.append(
        check(
            "budget.composed-not-worse-than-sequential",
            all(
                composed[k] <= k * case.per_query_epsilon + 1e-12
                for k in range(len(composed))
            ),
        )
    )
    # A budget smaller than one query's composed epsilon supports zero
    # queries — a fixed probe for the classic off-by-one.
    results.append(
        check_equal(
            "budget.zero-queries-when-nothing-fits",
            budget_mod.queries_supported(0.5, 1.0, 1e-6),
            0,
        )
    )
    # A budget filled to exactly its limit must refuse even epsilon-dust:
    # this is the boundary an absolute admission slack silently crosses.
    probe = budget_mod.PrivacyBudget(1.0)
    for _ in range(4):
        probe.charge(0.25)
    results.append(
        check(
            "budget.exhausted-refuses-epsilon-dust",
            not probe.can_afford(1e-7),
            "an exactly-full budget admitted a 1e-7 charge",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Sensitivity: static bound vs measured L1 influence
# ---------------------------------------------------------------------------


def _decoded(plan: ExecutionPlan, coefficients) -> list[list[float]]:
    """The exact value vector of each output group (before noise)."""
    if plan.output is OutputKind.HISTO:
        groups = histogram_mod.decode_histogram(list(coefficients), plan)
        return [[float(c) for c in g.counts] for g in groups]
    return [[float(v) for v in histogram_mod.decode_gsum(list(coefficients), plan)]]


def _perturb_device(graph, device: int, rng: random.Random) -> None:
    schema = audit_schema()
    graph.vertex_attrs[device].update(
        random_attrs(rng, schema, ColumnGroup.SELF)
    )
    for neighbor in graph.neighbors(device):
        values = random_attrs(rng, schema, ColumnGroup.EDGE)
        graph.edge(device, neighbor).update(values)
        graph.edge(neighbor, device).update(values)


def _run_sensitivity(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    report = sensitivity_mod.analyze(plan)

    # Independent recomputation of the §4.7 formula.
    influenced = 1 + sum(
        plan.degree_bound**i for i in range(1, plan.hops + 1)
    )
    if plan.output is OutputKind.HISTO:
        per_query = 2.0
    else:
        low, high = plan.clip
        per_query = float(high - low) or 1.0
    results.append(
        check_equal(
            "sensitivity.static-formula",
            (report.influenced_queries, report.sensitivity),
            (influenced, per_query * influenced),
        )
    )

    base = plaintext_mod.run_plaintext(plan, case.graph.build())
    base_values = sum(_decoded(plan, base.coefficients), [])
    rng = random.Random(case.seed)
    worst = 0.0
    for _ in range(3):
        perturbed_graph = case.graph.build()
        device = rng.randrange(perturbed_graph.num_vertices)
        _perturb_device(perturbed_graph, device, rng)
        other = plaintext_mod.run_plaintext(plan, perturbed_graph)
        other_values = sum(_decoded(plan, other.coefficients), [])
        l1 = sum(
            abs(a - b) for a, b in zip(base_values, other_values)
        )
        worst = max(worst, l1)
    results.append(
        check_le(
            "sensitivity.static-bounds-empirical",
            worst,
            report.sensitivity,
            tol=1e-9,
        )
    )
    return results


# ---------------------------------------------------------------------------
# Shamir / VSR / threshold decryption
# ---------------------------------------------------------------------------


def _draw_shamir(rng: random.Random) -> dict:
    threshold = rng.randint(2, 3)
    return {"threshold": threshold, "num_shares": threshold + rng.randint(1, 2)}


def _run_shamir(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    field = bench.shamir_field
    rng = random.Random(case.seed)
    secret = rng.randrange(field)
    t, n = case.threshold, case.num_shares
    shares = shamir.share_secret(secret, t, n, field, rng)

    reconstructed_ok = all(
        shamir.reconstruct_secret(rng.sample(shares, t), field) == secret
        for _ in range(3)
    )
    results.append(
        check("shamir.threshold-reconstructs", reconstructed_ok)
    )
    below = shamir.reconstruct_secret(rng.sample(shares, t - 1), field)
    results.append(
        check(
            "shamir.below-threshold-fails",
            below != secret,
            "t-1 shares interpolated the secret exactly",
        )
    )
    vector = [rng.randrange(field) for _ in range(4)]
    vector_shares = shamir.share_vector(vector, t, n, field, rng)
    results.append(
        check_equal(
            "shamir.vector-roundtrip",
            shamir.reconstruct_vector(rng.sample(vector_shares, t), field),
            vector,
        )
    )

    group = bench.committee.group
    dealt = vsr.deal_initial(secret, t, n, group, rng)
    new_n = n + 1
    new_shares, _ = vsr.redistribute(
        dealt.shares,
        dealt.commitment,
        old_threshold=t,
        new_threshold=t,
        new_size=new_n,
        group=group,
        rng=rng,
    )
    results.append(
        check_equal(
            "shamir.vsr-preserves-secret",
            shamir.reconstruct_secret(new_shares[:t], field),
            secret,
        )
    )
    if n > t:
        corrupt_shares, _ = vsr.redistribute(
            dealt.shares,
            dealt.commitment,
            old_threshold=t,
            new_threshold=t,
            new_size=new_n,
            group=group,
            rng=rng,
            corrupt_dealers={dealt.shares[0].index},
        )
        results.append(
            check_equal(
                "shamir.vsr-survives-corrupt-dealer",
                shamir.reconstruct_secret(corrupt_shares[:t], field),
                secret,
            )
        )

    # Committee threshold decryption must agree with direct decryption.
    exponent = rng.randrange(bench.profile.n)
    ciphertext = bgv.encrypt_monomial(bench.public, exponent, rng)
    plain, _ = committee_mod.threshold_decrypt(
        bench.committee, ciphertext, derive_rng(case.seed, "decrypt")
    )
    results.append(
        check_equal(
            "shamir.threshold-decrypt-matches-direct",
            tuple(plain.coeffs),
            tuple(bgv.decrypt(bench.secret, ciphertext).coeffs),
        )
    )
    return results


# ---------------------------------------------------------------------------
# Robust decode: single-pass Reed-Solomon decryption vs the honest oracle
# ---------------------------------------------------------------------------


def _draw_committee(rng: random.Random, full_radius: bool) -> dict:
    """A committee large enough to *correct* errors: with threshold 2
    and n in 4..7 the unique-decoding radius (n - 2) // 2 is 1..2.
    ``full_radius`` corrupts exactly radius members, else up to it."""
    threshold = 2
    num_shares = rng.randint(4, 7)
    radius = (num_shares - threshold) // 2
    num_corrupt = radius if full_radius else rng.randint(0, radius)
    return {
        "threshold": threshold,
        "num_shares": num_shares,
        "corrupt": tuple(sorted(rng.sample(range(num_shares), num_corrupt))),
    }


def _robust_committee(case: TrialCase, bench: AuditBench, rng: random.Random):
    """A trial-sized committee sharing the bench secret key.

    The bench committee (3 members, threshold 2) has a unique-decoding
    radius of 0, so robust trials deal their own larger committee —
    cheap next to keygen, and the bench secret stays the oracle.
    """
    member_ids = sorted(rng.sample(range(100), case.num_shares))
    trial_committee = committee_mod.genesis_share_key(
        bench.secret, member_ids, case.threshold, rng
    )
    corrupt_ids = {member_ids[p] for p in case.corrupt}
    return trial_committee, corrupt_ids


def _lie(corrupt_ids: set[int]):
    """The corrupt-partial fault kind's hook for ``corrupt_ids``."""
    plan = FaultPlan(seed=0, corrupt_committee=tuple(sorted(corrupt_ids)))
    return FaultInjector(plan).corrupt_partial


def _run_robust(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = random.Random(case.seed)
    trial_committee, corrupt_ids = _robust_committee(case, bench, rng)
    exponent = rng.randrange(bench.profile.n)
    ciphertext = bgv.encrypt_monomial(bench.public, exponent, rng)
    oracle = bgv.decrypt(bench.secret, ciphertext)

    plain, flagged = committee_mod.threshold_decrypt(
        trial_committee,
        ciphertext,
        derive_rng(case.seed, "decrypt"),
        corrupt=_lie(corrupt_ids),
    )
    results.append(
        check_equal(
            "robust.decode-matches-oracle",
            tuple(plain.coeffs),
            tuple(oracle.coeffs),
        )
    )
    results.append(
        check_equal("robust.flags-exactly-corrupt", flagged, corrupt_ids)
    )

    # Field-level batch opening: many codewords on one index set must
    # cost exactly one error-locator computation.
    from repro.crypto import robust as robust_mod

    field = bench.shamir_field
    vector = [rng.randrange(field) for _ in range(8)]
    vector_shares = shamir.share_vector(
        vector, case.threshold, case.num_shares, field, rng
    )
    indices = [s.index for s in vector_shares]
    rows = [
        [s.values[j] for s in vector_shares] for j in range(len(vector))
    ]
    for p in case.corrupt:
        for j in range(len(rows)):
            rows[j][p] = (rows[j][p] + 1 + p) % field
    secrets, flagged_idx, stats = robust_mod.batch_robust_reconstruct(
        indices, rows, case.threshold, field
    )
    results.append(
        check_equal("robust.batch-secrets", secrets, vector)
    )
    results.append(
        check_equal(
            "robust.batch-flags-exactly-corrupt",
            flagged_idx,
            {indices[p] for p in case.corrupt},
        )
    )
    results.append(
        check_equal(
            "robust.batch-single-locator", stats.locator_computations, 1
        )
    )
    return results


# ---------------------------------------------------------------------------
# Flagging: soundness — flagged members are a subset of the actual liars
# ---------------------------------------------------------------------------


def _run_flagging(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = random.Random(case.seed)
    trial_committee, corrupt_ids = _robust_committee(case, bench, rng)
    exponent = rng.randrange(bench.profile.n)
    ciphertext = bgv.encrypt_monomial(bench.public, exponent, rng)
    oracle = bgv.decrypt(bench.secret, ciphertext)

    # An all-honest committee must flag nobody — a decoder (or a partial
    # computation) that silently perturbs a share is caught right here.
    plain, flagged = committee_mod.threshold_decrypt(
        trial_committee,
        ciphertext,
        derive_rng(case.seed, "decrypt"),
    )
    results.append(
        check_equal(
            "flagging.honest-run-matches-oracle",
            tuple(plain.coeffs),
            tuple(oracle.coeffs),
        )
    )
    results.append(
        check_equal("flagging.honest-run-flags-nobody", flagged, set())
    )

    # At the full decoding radius, every flagged member must really be
    # corrupt (soundness) and the plaintext must still be exact.
    plain, flagged = committee_mod.threshold_decrypt(
        trial_committee,
        ciphertext,
        derive_rng(case.seed, "decrypt", "corrupt"),
        corrupt=_lie(corrupt_ids),
    )
    results.append(
        check(
            "flagging.flagged-subset-of-corrupt",
            flagged <= corrupt_ids,
            f"flagged {sorted(flagged)} vs corrupt {sorted(corrupt_ids)}",
        )
    )
    results.append(
        check_equal(
            "flagging.radius-decode-matches-oracle",
            tuple(plain.coeffs),
            tuple(oracle.coeffs),
        )
    )

    # One liar past the radius: the decoder must refuse (typed error) or
    # still land on the exact plaintext — never a silently wrong one.
    radius = (case.num_shares - case.threshold) // 2
    overload = {
        m.device_id for m in trial_committee.members[: radius + 1]
    }
    try:
        plain, _ = committee_mod.threshold_decrypt(
            trial_committee,
            ciphertext,
            derive_rng(case.seed, "decrypt", "overload"),
            corrupt=_lie(overload),
        )
    except RobustDecodingError:
        results.append(check("flagging.overload-never-wrong", True))
    else:
        results.append(
            check(
                "flagging.overload-never-wrong",
                tuple(plain.coeffs) == tuple(oracle.coeffs),
                "decode past the radius returned a wrong plaintext",
            )
        )
    return results


# ---------------------------------------------------------------------------
# Crash: kill the campaign coordinator at a phase boundary, resume, and
# require bit-identical released results, ledger, and epoch commitments
# ---------------------------------------------------------------------------


def _draw_crash(rng: random.Random) -> dict:
    num_queries = rng.randint(1, 2)
    return {
        "kill_phase": rng.choice(campaign_mod.PHASES),
        "kill_query": rng.randrange(num_queries),
        "kill_before": rng.random() < 0.5,
        "num_queries": num_queries,
        "rotate_every": rng.choice([0, 1]),
    }


def _run_crash(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    import shutil
    import tempfile

    from repro.workloads.epidemic import campaign_queries

    results: list[CheckResult] = []
    config = campaign_mod.CampaignConfig(
        master_seed=case.seed,
        queries=campaign_queries(case.num_queries),
        people=case.people,
        degree=3,
        rotate_every=case.rotate_every,
    )
    oracle_dir = tempfile.mkdtemp(prefix="audit-crash-oracle-")
    victim_dir = tempfile.mkdtemp(prefix="audit-crash-victim-")
    try:
        oracle = campaign_mod.run_campaign(config, oracle_dir)
        kill = campaign_mod.KillSpec(
            phase=case.kill_phase,
            query=case.kill_query,
            before=case.kill_before,
        )
        crashed = False
        try:
            campaign_mod.run_campaign(config, victim_dir, kill=kill)
        except CoordinatorCrash:
            crashed = True
        results.append(
            check(
                "crash.kill-point-fired",
                crashed,
                f"kill at {case.kill_phase}:{case.kill_query} "
                f"(before={case.kill_before}) never triggered",
            )
        )
        resumed = campaign_mod.resume_campaign(victim_dir)
        results.append(
            check_equal(
                "crash.ledger-identical", resumed.ledger, oracle.ledger
            )
        )
        results.append(
            check_equal(
                "crash.epochs-identical", resumed.epochs, oracle.epochs
            )
        )
        results.append(
            check_equal(
                "crash.results-identical", resumed.results, oracle.results
            )
        )
        results.append(
            check_equal(
                "crash.digest-identical", resumed.digest, oracle.digest
            )
        )
        leaks = _disk_leaks(victim_dir, config)
        results.append(check("crash.no-exact-on-disk", not leaks, leaks))
    finally:
        shutil.rmtree(oracle_dir, ignore_errors=True)
        shutil.rmtree(victim_dir, ignore_errors=True)
    return results


#: Journaled lists of device ids, not of answers.
_ID_LISTS = {"accepted", "rejected", "offline", "participating", "flagged",
             "members", "dealers"}


def _disk_leaks(directory: str, config) -> str:
    """What a fault-free campaign's directory reveals of an exact answer:
    a list equal to the plaintext oracle's coefficients or decoded
    values, or one that leaves integers when subtracted from a released
    vector (the noise that masks it)."""
    import json
    from pathlib import Path

    from repro.query.catalog import CATALOG
    from repro.query.schema import scaled_schema
    from repro.workloads.epidemic import build_campaign_graph

    graph = build_campaign_graph(
        config.people, config.degree, derive_rng(config.master_seed, "workload")
    )
    exact = []
    for text, _ in config.queries:
        plan = compile_query(
            CATALOG[text].parsed(), config.system_params(), scaled_schema()
        )
        coefficients = plaintext_mod.run_plaintext(plan, graph).coefficients
        exact += [list(coefficients), *_decoded(plan, coefficients)]
    found: list[tuple[str, list]] = []

    def walk(node, key: str = "") -> None:
        children = node.items() if isinstance(node, dict) else []
        if isinstance(node, list):
            children = [("", item) for item in node]
            if node and key not in _ID_LISTS and all(
                isinstance(x, (int, float)) and abs(x) < 2**53 for x in node
            ):
                found.append((key, node))
        for child_key, child in children:
            walk(child, child_key)

    for path in Path(directory).rglob("*.json*"):
        text = path.read_text("utf-8")
        for doc in text.splitlines() if path.suffix == ".jsonl" else [text]:
            walk(json.loads(doc))
    released = [v for key, v in found if key in ("counts", "values")]
    return "; ".join(
        f"{key or 'list'} {values}"
        for key, values in found
        if values in exact or values not in released and any(
            len(r) == len(values)
            and all(abs(a - b - round(a - b)) < 1e-6 for a, b in zip(r, values))
            for r in released
        )
    )


# ---------------------------------------------------------------------------
# Mixnet: onion-routed query under faults
# ---------------------------------------------------------------------------


def _draw_mixnet(rng: random.Random) -> dict:
    return {"failure": round(rng.uniform(0.05, 0.2), 3)}


def _run_mixnet(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    chaos = ChaosQuery.build(case.people, case.failure, case.seed)
    try:
        result, got_counts, expected_counts = chaos.run()
    except MyceliumError as exc:
        return [
            check("mixnet.typed-failure", True, f"{type(exc).__name__}: {exc}")
        ]
    report = result.metadata.recovery
    return [
        check_equal(
            "mixnet.matches-degraded-oracle", got_counts, expected_counts
        ),
        check_equal(
            "mixnet.complaint-count-consistent",
            result.metadata.complaints,
            len(report.complaints),
        ),
        check(
            "mixnet.quorum-wait-bounded",
            0 <= report.quorum_wait_rounds <= HORIZON_ROUNDS,
            f"quorum wait {report.quorum_wait_rounds} C-rounds",
        ),
        check(
            "mixnet.crounds-bounded",
            0 < report.crounds <= HORIZON_ROUNDS + chaos.fault_start,
            f"crounds {report.crounds}",
        ),
    ]


# ---------------------------------------------------------------------------
# The kind table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TrialKind:
    """One audit kind: its case draw and its trial body."""

    #: The kind's case fields, drawn from the case RNG after the seed.
    draw: Callable[[random.Random], dict]
    run: Callable[[TrialCase, AuditBench], list[CheckResult]]


#: Every audit kind, by name.
KINDS: dict[str, TrialKind] = {
    "equivalence": TrialKind(_draw_equivalence, _run_equivalence),
    "budget": TrialKind(_draw_budget, _run_budget),
    "sensitivity": TrialKind(
        functools.partial(_draw_plan, ungrouped_only=True), _run_sensitivity
    ),
    "shamir": TrialKind(_draw_shamir, _run_shamir),
    "mixnet": TrialKind(_draw_mixnet, _run_mixnet),
    "crash": TrialKind(_draw_crash, _run_crash),
    "robust": TrialKind(
        functools.partial(_draw_committee, full_radius=False), _run_robust
    ),
    "flagging": TrialKind(
        functools.partial(_draw_committee, full_radius=True), _run_flagging
    ),
    "shard_equivalence": TrialKind(
        _draw_shard_equivalence, _run_shard_equivalence
    ),
    # byzantine_survival pins honest bit-identity against an
    # attackers-offline baseline, which only forged-proof attackers
    # guarantee (they are both leaf-breaking and origin-rejecting);
    # quarantine_soundness only needs origin rejection, so it also
    # draws bad-aggregation claim tamperers.
    "byzantine_survival": TrialKind(
        functools.partial(_draw_ledger, pool=("forged-proof",)),
        _run_byzantine_survival,
    ),
    "quarantine_soundness": TrialKind(
        functools.partial(
            _draw_ledger, pool=("forged-proof", "bad-aggregation")
        ),
        _run_quarantine_soundness,
    ),
}

#: The kind of trial ``index`` is ``SCHEDULE[index % len(SCHEDULE)]``:
#: every kind within one cycle, mixnet trials (a full onion-routing
#: world, the most expensive) at the smallest share.
SCHEDULE: tuple[str, ...] = (
    "equivalence",           # 0
    "budget",                # 1
    "shard_equivalence",     # 2
    "sensitivity",           # 3
    "equivalence",           # 4
    "budget",                # 5
    "robust",                # 6
    "shamir",                # 7
    "byzantine_survival",    # 8
    "crash",                 # 9
    "flagging",              # 10
    "mixnet",                # 11
    "equivalence",           # 12
    "budget",                # 13
    "shard_equivalence",     # 14
    "shamir",                # 15
    "equivalence",           # 16
    "budget",                # 17
    "robust",                # 18
    "sensitivity",           # 19
    "quarantine_soundness",  # 20
    "crash",                 # 21
    "flagging",              # 22
    "mixnet",                # 23
)
