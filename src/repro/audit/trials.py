"""Trial bodies: run one case through the system and check invariants.

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
* ``offline_equivalence`` — the offline/online split: a run consuming
  precomputed encryption-randomness pools must serialize
  bit-identically to the inline run on the same derivation
  chain, including when small pools exhaust and refill mid-run.  Only
  a serialization comparison can catch a stale pool — wrong-seed
  entries still produce valid encryptions, proofs, and decryptions.
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

from repro.audit.bench import AuditBench
from repro.audit.cases import TrialCase
from repro.audit.checks import CheckResult, check, check_equal, check_le
from repro.audit.generator import audit_params, audit_schema
from repro.core import committee as committee_mod
from repro.core.aggregator import QueryAggregator
from repro.crypto import bgv, shamir, vsr
from repro.dp import budget as budget_mod
from repro.engine import histogram as histogram_mod
from repro.engine import plaintext as plaintext_mod
from repro.engine.encrypted import EncryptedExecutor
from repro.engine.malicious import Behavior
from repro.errors import MyceliumError, PrivacyBudgetExceeded
from repro.query import sensitivity as sensitivity_mod
from repro.query.ast import OutputKind
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.plans import ExecutionPlan
from repro.params import TEST
from repro.query.schema import ColumnGroup
from repro.runtime import TaskFabric, backends, derive_rng


def compile_case_plan(case: TrialCase) -> ExecutionPlan:
    """Compile a case's query exactly as the generator did."""
    plan = compile_query(parse(case.query), audit_params(), audit_schema())
    plan.validate_feasible(TEST)
    return plan


def run_trial(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    """Dispatch a case to its trial body; returns every check result."""
    if case.kind == "equivalence":
        return _run_equivalence(case, bench)
    if case.kind == "budget":
        return _run_budget(case)
    if case.kind == "sensitivity":
        return _run_sensitivity(case, bench)
    if case.kind == "shamir":
        return _run_shamir(case, bench)
    if case.kind == "mixnet":
        return _run_mixnet(case)
    if case.kind == "crash":
        return _run_crash(case)
    if case.kind == "robust":
        return _run_robust(case, bench)
    if case.kind == "flagging":
        return _run_flagging(case, bench)
    if case.kind == "shard_equivalence":
        return _run_shard_equivalence(case, bench)
    if case.kind == "offline_equivalence":
        return _run_offline_equivalence(case, bench)
    if case.kind == "byzantine_survival":
        return _run_byzantine_survival(case, bench)
    if case.kind == "quarantine_soundness":
        return _run_quarantine_soundness(case, bench)
    raise ValueError(f"unknown trial kind {case.kind!r}")


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


def _run_equivalence(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    graph = case.graph.build()
    behaviors = {d: Behavior(v) for d, v in case.behaviors.items()}
    expectation = plaintext_mod.expected_under_faults(
        plan, graph, offline=case.offline, behaviors=behaviors
    )

    with backends.use_backend(case.backend), TaskFabric(
        workers=case.workers, chunk_size=2
    ) as fabric:
        executor = EncryptedExecutor(
            plan, bench.public, bench.zk, random.Random(case.seed), fabric=fabric
        )
        submissions = executor.run(
            graph, behaviors=behaviors, offline=set(case.offline)
        )
        aggregator = QueryAggregator(
            zk=bench.zk, relin_keys=bench.relin_keys, fabric=fabric
        )
        aggregation = aggregator.aggregate(submissions)

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
    plain = committee_mod.threshold_decrypt(
        bench.committee,
        aggregation.ciphertext,
        derive_rng(case.seed, "decrypt"),
    )
    decrypted = tuple(
        plain.coeffs[i] for i in range(plan.layout.total_coefficients)
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


def _run_shard_equivalence(
    case: TrialCase, bench: AuditBench
) -> list[CheckResult]:
    from repro.errors import ShardIntegrityError

    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    graph = case.graph.build()
    behaviors = {d: Behavior(v) for d, v in case.behaviors.items()}
    expectation = plaintext_mod.expected_under_faults(
        plan, graph, offline=case.offline, behaviors=behaviors
    )

    with backends.use_backend(case.backend), TaskFabric(
        workers=case.workers, chunk_size=2
    ) as fabric:
        executor = EncryptedExecutor(
            plan, bench.public, bench.zk, random.Random(case.seed), fabric=fabric
        )
        submissions = executor.run(
            graph, behaviors=behaviors, offline=set(case.offline)
        )
        try:
            flat, sharded = (
                QueryAggregator(
                    zk=bench.zk,
                    relin_keys=bench.relin_keys,
                    fabric=fabric,
                    num_shards=num_shards,
                ).aggregate(submissions)
                for num_shards in (1, case.shards)
            )
        except ShardIntegrityError as exc:
            # An honest run must never trip the root's claim check — a
            # shard aggregator lying about its partial sum lands here.
            results.append(
                check(
                    "shard-equivalence.root-accepts-honest-partials",
                    False,
                    f"{type(exc).__name__}: {exc}",
                )
            )
            return results
    results.append(
        check("shard-equivalence.root-accepts-honest-partials", True)
    )

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
    # Independent of the aggregator's tree: addition is exact, so a
    # plain left fold of the accepted relinearized ciphertexts must land
    # on the same components.
    reference = functools.reduce(
        bgv.add,
        [
            bgv.relinearize(s.ciphertext, bench.relin_keys)
            for s in submissions
            if s.origin in flat.accepted
        ],
    )
    results.append(
        check(
            "shard-equivalence.matches-left-fold",
            flat.ciphertext.serialize() == reference.serialize(),
            "K=1 components diverge from a left fold of the accepted set",
        )
    )
    results.extend(
        _noise_checks(bench, "shard-equivalence.aggregate", sharded.ciphertext)
    )
    plain = committee_mod.threshold_decrypt(
        bench.committee,
        sharded.ciphertext,
        derive_rng(case.seed, "decrypt"),
    )
    decrypted = tuple(
        plain.coeffs[i] for i in range(plan.layout.total_coefficients)
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
# Offline equivalence: precomputed pools vs the inline derivation chain
# ---------------------------------------------------------------------------


def _run_offline_equivalence(
    case: TrialCase, bench: AuditBench
) -> list[CheckResult]:
    from repro.durability.serialize import submissions_digest
    from repro.offline import store as offline_store_mod

    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    graph = case.graph.build()
    behaviors = {d: Behavior(v) for d, v in case.behaviors.items()}
    master = derive_rng(case.seed, "offline-audit").getrandbits(64)

    with backends.use_backend(case.backend), TaskFabric(
        workers=case.workers, chunk_size=2
    ) as fabric:
        inline = EncryptedExecutor(
            plan, bench.public, bench.zk, random.Random(case.seed), fabric=fabric
        ).run(
            graph,
            behaviors=behaviors,
            offline=set(case.offline),
            master_seed=master,
        )
        # The offline phase: pools derived through the store module so
        # the stale-pool mutant can poison the derivation chain.
        store = offline_store_mod.OfflineStore(bench.public)
        store.ensure_encryption_pools(
            bench.public, master, range(graph.num_vertices), case.pool_entries
        )
        pooled_executor = EncryptedExecutor(
            plan,
            bench.public,
            bench.zk,
            random.Random(case.seed),
            fabric=fabric,
            offline_store=store,
        )
        pooled = pooled_executor.run(
            graph,
            behaviors=behaviors,
            offline=set(case.offline),
            master_seed=master,
        )
        stats = pooled_executor.stats

        flat = QueryAggregator(
            zk=bench.zk, relin_keys=bench.relin_keys, fabric=fabric
        ).aggregate(inline)
        from_pools = QueryAggregator(
            zk=bench.zk, relin_keys=bench.relin_keys, fabric=fabric
        ).aggregate(pooled)

    # Every online origin gets a pool, so every draw must be a pool hit
    # (hits may be zero only when nothing was encrypted at all — e.g.
    # every vertex offline).
    results.append(
        check(
            "offline-equivalence.pool-consumed",
            stats.pool_misses == 0,
            f"hits={stats.pool_hits} misses={stats.pool_misses} — "
            "draws bypassed the precomputed pools",
        )
    )
    results.append(
        check_equal(
            "offline-equivalence.submissions-digest",
            submissions_digest(pooled),
            submissions_digest(inline),
        )
    )
    results.append(
        check_equal(
            "offline-equivalence.rejected",
            tuple(from_pools.rejected),
            tuple(flat.rejected),
        )
    )
    if flat.ciphertext is None or from_pools.ciphertext is None:
        results.append(
            check(
                "offline-equivalence.both-empty",
                flat.ciphertext is None and from_pools.ciphertext is None,
                "one path produced a ciphertext and the other none",
            )
        )
        return results
    results.append(
        check(
            "offline-equivalence.aggregate-bit-identical",
            from_pools.ciphertext.serialize() == flat.ciphertext.serialize(),
            "the aggregate over pooled submissions diverges from the inline one",
        )
    )
    return results


# ---------------------------------------------------------------------------
# Byzantine survival / quarantine soundness: the suspicion ledger under
# seeded attackers, checked against the degraded oracle every query
# ---------------------------------------------------------------------------


def _encrypted_round(
    case: TrialCase,
    bench: AuditBench,
    plan: ExecutionPlan,
    graph,
    behaviors: dict[int, Behavior],
    offline: frozenset[int],
    tag: str,
    query_index: int,
):
    """One encrypted submit→aggregate→decrypt pass; returns the
    aggregation plus the decoded coefficient tuple (zeros when the
    aggregate is empty, so callers compare uniformly)."""
    with backends.use_backend(case.backend), TaskFabric(
        workers=1, chunk_size=2
    ) as fabric:
        executor = EncryptedExecutor(
            plan,
            bench.public,
            bench.zk,
            random.Random(
                derive_rng(case.seed, tag, query_index).getrandbits(48)
            ),
            fabric=fabric,
        )
        submissions = executor.run(
            graph, behaviors=behaviors, offline=set(offline)
        )
        aggregation = QueryAggregator(
            zk=bench.zk, relin_keys=bench.relin_keys, fabric=fabric
        ).aggregate(submissions)
    total = plan.layout.total_coefficients
    if aggregation.ciphertext is None:
        return aggregation, (0,) * total
    plain = committee_mod.threshold_decrypt(
        bench.committee,
        aggregation.ciphertext,
        derive_rng(case.seed, tag, "decrypt", query_index),
    )
    return aggregation, tuple(plain.coeffs[i] for i in range(total))


def _run_byzantine_survival(
    case: TrialCase, bench: AuditBench
) -> list[CheckResult]:
    from repro.adversary import quarantine as quarantine_mod

    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    graph = case.graph.build()
    behaviors = {d: Behavior(v) for d, v in case.behaviors.items()}
    attackers = frozenset(behaviors)
    ledger = quarantine_mod.SuspicionLedger()

    for q in range(case.num_queries):
        quarantined = frozenset(ledger.quarantined)
        offline = frozenset(case.offline) | quarantined
        active = {d: b for d, b in behaviors.items() if d not in offline}
        oracle = plaintext_mod.expected_under_faults(
            plan, graph, offline=offline, behaviors=active
        )
        aggregation, decoded = _encrypted_round(
            case, bench, plan, graph, active, offline, "byz", q
        )
        results.append(
            check_equal(
                f"byzantine.rejected-matches-oracle[{q}]",
                frozenset(aggregation.rejected),
                oracle.rejected_origins,
            )
        )
        results.append(
            check_equal(
                f"byzantine.coefficients[{q}]",
                decoded,
                oracle.coefficients,
            )
        )
        # Honest-only bit-identity: forged-proof attackers are both
        # origin-rejecting and leaf-breaking, so the attacked answer
        # must equal a run where the attackers were simply offline —
        # the attack's blast radius never reaches honest answers.
        _, baseline = _encrypted_round(
            case,
            bench,
            plan,
            graph,
            {},
            frozenset(case.offline) | attackers,
            "byz",
            q,
        )
        results.append(
            check_equal(
                f"byzantine.honest-bit-identical[{q}]",
                decoded,
                baseline,
            )
        )
        ledger.record_rejections(aggregation.rejected)

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
    from repro.adversary import quarantine as quarantine_mod

    results: list[CheckResult] = []
    plan = compile_case_plan(case)
    graph = case.graph.build()
    behaviors = {d: Behavior(v) for d, v in case.behaviors.items()}
    attackers = frozenset(behaviors)
    ledger = quarantine_mod.SuspicionLedger()

    for q in range(case.num_queries):
        quarantined = frozenset(ledger.quarantined)
        offline = frozenset(case.offline) | quarantined
        active = {d: b for d, b in behaviors.items() if d not in offline}
        oracle = plaintext_mod.expected_under_faults(
            plan, graph, offline=offline, behaviors=active
        )
        aggregation, decoded = _encrypted_round(
            case, bench, plan, graph, active, offline, "quar", q
        )
        results.append(
            check_equal(
                f"quarantine.rejected-matches-oracle[{q}]",
                frozenset(aggregation.rejected),
                oracle.rejected_origins,
            )
        )
        results.append(
            check_equal(
                f"quarantine.coefficients[{q}]",
                decoded,
                oracle.coefficients,
            )
        )
        # A quarantined origin defaults to Enc(x^0) server-side — it
        # must never reach the aggregator again, accepted or rejected.
        results.append(
            check(
                f"quarantine.quarantined-never-resubmit[{q}]",
                not quarantined
                & (set(aggregation.accepted) | set(aggregation.rejected)),
                f"quarantined {sorted(quarantined)} reappeared in round {q}",
            )
        )
        ledger.record_rejections(aggregation.rejected)

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


def _run_budget(case: TrialCase) -> list[CheckResult]:
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


def _released_values(plan: ExecutionPlan, coefficients: tuple[int, ...]) -> list[float]:
    if plan.output is OutputKind.HISTO:
        groups = histogram_mod.decode_histogram(list(coefficients), plan)
        return [float(c) for g in groups for c in g.counts]
    return [float(v) for v in histogram_mod.decode_gsum(list(coefficients), plan)]


def _perturb_device(graph, device: int, rng: random.Random) -> None:
    schema = audit_schema()
    for name in schema.column_names():
        try:
            spec = schema.lookup(ColumnGroup.SELF, name)
        except MyceliumError:
            continue
        graph.vertex_attrs[device][name] = rng.randint(spec.low, spec.high)
    for neighbor in graph.neighbors(device):
        record = graph.edge(device, neighbor)
        for name in schema.column_names():
            try:
                spec = schema.lookup(ColumnGroup.EDGE, name)
            except MyceliumError:
                continue
            value = rng.randint(spec.low, spec.high)
            record[name] = value
            graph.edge(neighbor, device)[name] = value


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
    base_values = _released_values(plan, base.coefficients)
    rng = random.Random(case.seed)
    worst = 0.0
    for _ in range(3):
        perturbed_graph = case.graph.build()
        device = rng.randrange(perturbed_graph.num_vertices)
        _perturb_device(perturbed_graph, device, rng)
        other = plaintext_mod.run_plaintext(plan, perturbed_graph)
        other_values = _released_values(plan, other.coefficients)
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
    plain = committee_mod.threshold_decrypt(
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


def _run_robust(case: TrialCase, bench: AuditBench) -> list[CheckResult]:
    results: list[CheckResult] = []
    rng = random.Random(case.seed)
    trial_committee, corrupt_ids = _robust_committee(case, bench, rng)
    exponent = rng.randrange(bench.profile.n)
    ciphertext = bgv.encrypt_monomial(bench.public, exponent, rng)
    oracle = bgv.decrypt(bench.secret, ciphertext)

    plain, flagged = committee_mod.robust_threshold_decrypt(
        trial_committee,
        ciphertext,
        derive_rng(case.seed, "decrypt"),
        corrupt_members=corrupt_ids,
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
    from repro.errors import RobustDecodingError

    results: list[CheckResult] = []
    rng = random.Random(case.seed)
    trial_committee, corrupt_ids = _robust_committee(case, bench, rng)
    exponent = rng.randrange(bench.profile.n)
    ciphertext = bgv.encrypt_monomial(bench.public, exponent, rng)
    oracle = bgv.decrypt(bench.secret, ciphertext)

    # An all-honest committee must flag nobody — a decoder (or a partial
    # computation) that silently perturbs a share is caught right here.
    plain, flagged = committee_mod.robust_threshold_decrypt(
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
    plain, flagged = committee_mod.robust_threshold_decrypt(
        trial_committee,
        ciphertext,
        derive_rng(case.seed, "decrypt", "corrupt"),
        corrupt_members=corrupt_ids,
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
        plain, _ = committee_mod.robust_threshold_decrypt(
            trial_committee,
            ciphertext,
            derive_rng(case.seed, "decrypt", "overload"),
            corrupt_members=overload,
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


def _run_crash(case: TrialCase) -> list[CheckResult]:
    import shutil
    import tempfile

    from repro.durability import campaign as campaign_mod
    from repro.errors import CoordinatorCrash
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
    finally:
        shutil.rmtree(oracle_dir, ignore_errors=True)
        shutil.rmtree(victim_dir, ignore_errors=True)
    return results


# ---------------------------------------------------------------------------
# Mixnet: onion-routed query under faults
# ---------------------------------------------------------------------------


def _run_mixnet(case: TrialCase) -> list[CheckResult]:
    from repro.core.system import MyceliumSystem
    from repro.faults import FaultInjector, FaultPlan
    from repro.mixnet.network import MixnetWorld
    from repro.params import SystemParameters
    from repro.query.schema import scaled_schema
    from repro.workloads.epidemic import run_epidemic
    from repro.workloads.graphgen import generate_household_graph

    results: list[CheckResult] = []
    rng = random.Random(case.seed)
    graph = generate_household_graph(
        case.people, degree_bound=2, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    for u in range(graph.num_vertices):
        for v in graph.neighbors(u):
            edge = graph.edge(u, v)
            edge["duration"] = min(edge["duration"], 20)
            edge["contacts"] = min(edge["contacts"], 8)
    params = SystemParameters(
        num_devices=graph.num_vertices,
        hops=2,
        replicas=2,
        forwarder_fraction=0.45,
        degree_bound=2,
        pseudonyms_per_device=2,
        churn_fraction=min(0.9, case.failure),
    )
    world = MixnetWorld(
        params,
        num_devices=graph.num_vertices,
        rng=rng,
        rsa_bits=512,
        pseudonyms_per_device=2,
    )
    system = MyceliumSystem.setup(
        num_devices=graph.num_vertices,
        rng=rng,
        params=params,
        schema=scaled_schema(),
        committee_size=3,
        committee_threshold=2,
        total_epsilon=10.0,
    )
    fault_start = params.telescoping_crounds + 4
    fault_plan = FaultPlan.generate(
        seed=case.seed,
        num_devices=graph.num_vertices,
        churn_fraction=case.failure / 2,
        churn_window_rounds=4,
        horizon_rounds=96,
        start_round=fault_start,
        wire_drop_rate=case.failure / 2,
        wire_delay_rate=case.failure / 4,
        wire_corrupt_rate=case.failure / 4,
        wire_fault_start=fault_start,
    )
    FaultInjector(fault_plan).attach(world)
    query = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf"
    try:
        result = system.run_query(
            query, graph, epsilon=1.0, noiseless=True, world=world
        )
    except MyceliumError as exc:
        results.append(
            check(
                "mixnet.typed-failure",
                True,
                f"{type(exc).__name__}: {exc}",
            )
        )
        return results

    report = result.metadata.recovery
    plan = system.compile(query)
    expected, _ = plaintext_mod.aggregate_coefficients(
        plan,
        graph,
        skipped_origins=report.skipped_origins,
        defaulted=report.defaulted_by_origin,
    )
    expected_counts = [
        [int(c) for c in g.counts]
        for g in histogram_mod.decode_histogram(expected, plan)
    ]
    got_counts = [[int(round(c)) for c in g.counts] for g in result.groups]
    results.append(
        check_equal(
            "mixnet.matches-degraded-oracle", got_counts, expected_counts
        )
    )
    results.append(
        check_equal(
            "mixnet.complaint-count-consistent",
            result.metadata.complaints,
            len(report.complaints),
        )
    )
    results.append(
        check(
            "mixnet.decrypt-attempts-positive",
            report.decrypt_attempts >= 1,
            f"attempts {report.decrypt_attempts}",
        )
    )
    results.append(
        check(
            "mixnet.crounds-bounded",
            0 < report.crounds <= 96 + fault_start,
            f"crounds {report.crounds}",
        )
    )
    return results
