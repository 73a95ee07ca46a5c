"""Draw random trial cases from one master seed.

``generate_case(master_seed, index)`` is a pure function: every random
choice comes from an RNG derived from ``(master_seed, "case", index)``
via :func:`repro.runtime.derive_rng`, so any trial can be regenerated
from the two integers alone — the property the replay bundle and the
shrinker both rely on.

The trial-kind schedule is a fixed function of the index so a run of N
trials covers every invariant family at a predictable ratio (mixnet
trials build a full onion-routing world and are the most expensive, so
they get the smallest share).
"""

from __future__ import annotations

import random
from functools import lru_cache

from repro.audit.cases import GraphSpec, TrialCase
from repro.engine.malicious import Behavior
from repro.params import TEST, SystemParameters
from repro.query.randgen import random_query
from repro.query.schema import ColumnGroup, Schema, scaled_schema
from repro.runtime import derive_rng
from repro.runtime.backends import available_backends
from repro.workloads.graphgen import ContactGraph

#: Degree bound for generated graphs/plans: 3 keeps two-hop plans (d^2=9
#: multiplications) inside the TEST profile's noise budget.
DEGREE_BOUND = 3

#: Behaviours the generator draws from — everything except LIE_IN_RANGE,
#: which is undetectable by design and has no exact oracle (§4.7).
FAULT_BEHAVIORS = (
    Behavior.DROP_MESSAGE,
    Behavior.FORGED_PROOF,
    Behavior.OVERSIZED_EXPONENT,
    Behavior.MULTI_COEFFICIENT,
    Behavior.LARGE_COEFFICIENT,
    Behavior.BAD_AGGREGATION,
)


def audit_params() -> SystemParameters:
    """The compilation parameters every generated plan uses."""
    return SystemParameters(degree_bound=DEGREE_BOUND)


def audit_schema() -> Schema:
    """Domain-reduced schema so SUM queries fit the TEST ring."""
    return scaled_schema(10, 5)


@lru_cache(maxsize=1)
def _backends() -> tuple[str, ...]:
    return tuple(available_backends())


def _random_attrs(
    rng: random.Random, schema: Schema, group: ColumnGroup
) -> dict[str, int]:
    attrs = {}
    for name in schema.column_names():
        try:
            spec = schema.lookup(group, name)
        except Exception:
            continue
        attrs[name] = rng.randint(spec.low, spec.high)
    return attrs


def random_graph(rng: random.Random, schema: Schema | None = None) -> GraphSpec:
    """A small random contact graph with schema-conformant attributes."""
    schema = schema if schema is not None else audit_schema()
    num_vertices = rng.randint(2, 8)
    graph = ContactGraph(degree_bound=DEGREE_BOUND)
    for _ in range(num_vertices):
        graph.add_vertex(**_random_attrs(rng, schema, ColumnGroup.SELF))
    pairs = [
        (u, v)
        for u in range(num_vertices)
        for v in range(u + 1, num_vertices)
    ]
    rng.shuffle(pairs)
    target = rng.randint(max(1, num_vertices - 1), len(pairs))
    added = 0
    for u, v in pairs:
        if added >= target:
            break
        if graph.add_edge(u, v, **_random_attrs(rng, schema, ColumnGroup.EDGE)):
            added += 1
    return GraphSpec.from_graph(graph)


def _random_faults(
    rng: random.Random, num_vertices: int
) -> tuple[tuple[int, ...], dict[int, str]]:
    """Offline devices plus Byzantine behaviour assignments."""
    if rng.random() >= 0.6:
        return (), {}
    offline = tuple(
        v for v in range(num_vertices) if rng.random() < 0.15
    )
    behaviors = {
        v: rng.choice(FAULT_BEHAVIORS).value
        for v in range(num_vertices)
        if v not in offline and rng.random() < 0.2
    }
    return offline, behaviors


def _kind_for_index(index: int) -> str:
    if index % 12 == 11:
        return "mixnet"
    if index % 12 == 9:
        return "crash"
    if index % 12 == 6:
        return "robust"
    if index % 12 == 10:
        return "flagging"
    if index % 12 == 2:
        return "shard_equivalence"
    if index % 24 == 8:
        return "byzantine_survival"
    if index % 24 == 20:
        return "quarantine_soundness"
    if index % 4 == 1:
        return "budget"
    if index % 4 == 3:
        return "sensitivity" if index % 8 == 3 else "shamir"
    return "equivalence"


def generate_case(
    master_seed: int, index: int, kind: str | None = None
) -> TrialCase:
    """Deterministically draw trial ``index`` of a run seeded with
    ``master_seed``.

    ``kind`` overrides the index schedule (used by ``--kinds`` filtered
    runs); the case data still derives purely from the two integers.
    """
    rng = derive_rng(master_seed, "case", index)
    kind = kind if kind is not None else _kind_for_index(index)
    seed = rng.getrandbits(48)

    if kind == "budget":
        total = round(rng.uniform(0.5, 3.0), 3)
        epsilons = tuple(
            round(rng.choice([0.01, 0.05, 0.1, 0.25]) * rng.uniform(0.5, 2.0), 6)
            for _ in range(rng.randint(5, 30))
        )
        per_query = round(
            total * rng.choice([0.02, 0.05, 0.1, 0.5, 1.2]), 6
        )
        return TrialCase(
            kind=kind,
            seed=seed,
            index=index,
            total_epsilon=total,
            epsilons=epsilons,
            per_query_epsilon=per_query,
            delta=1e-6,
        )

    if kind == "shamir":
        threshold = rng.randint(2, 3)
        return TrialCase(
            kind=kind,
            seed=seed,
            index=index,
            threshold=threshold,
            num_shares=threshold + rng.randint(1, 2),
        )

    if kind in ("robust", "flagging"):
        # A committee large enough to *correct* errors: with threshold 2
        # and n in 4..7 the unique-decoding radius (n - 2) // 2 is 1..2.
        threshold = 2
        num_shares = rng.randint(4, 7)
        radius = (num_shares - threshold) // 2
        if kind == "robust":
            num_corrupt = rng.randint(0, radius)
        else:
            num_corrupt = radius
        corrupt = tuple(
            sorted(rng.sample(range(num_shares), num_corrupt))
        )
        return TrialCase(
            kind=kind,
            seed=seed,
            index=index,
            threshold=threshold,
            num_shares=num_shares,
            corrupt=corrupt,
        )

    if kind == "mixnet":
        return TrialCase(
            kind=kind,
            seed=seed,
            index=index,
            people=8,
            failure=round(rng.uniform(0.05, 0.2), 3),
        )

    if kind == "crash":
        from repro.durability.campaign import PHASES

        num_queries = rng.randint(1, 2)
        return TrialCase(
            kind=kind,
            seed=seed,
            index=index,
            people=8,
            kill_phase=rng.choice(PHASES),
            kill_query=rng.randrange(num_queries),
            kill_before=rng.random() < 0.5,
            num_queries=num_queries,
            rotate_every=rng.choice([0, 1]),
        )

    if kind in ("byzantine_survival", "quarantine_soundness"):
        schema = audit_schema()
        graph = random_graph(rng, schema)
        n = len(graph.vertices)
        # byzantine_survival pins honest bit-identity against an
        # attackers-offline baseline, which only forged-proof attackers
        # guarantee (they are both leaf-breaking and origin-rejecting);
        # quarantine_soundness only needs origin rejection, so it also
        # draws bad-aggregation claim tamperers.
        pool = (
            ("forged-proof",)
            if kind == "byzantine_survival"
            else ("forged-proof", "bad-aggregation")
        )
        num_attackers = rng.randint(1, max(1, min(2, n - 1)))
        attackers = sorted(rng.sample(range(n), num_attackers))
        behaviors = {device: rng.choice(pool) for device in attackers}
        honest = [v for v in range(n) if v not in behaviors]
        # Honest churn rides along, but at least one honest origin stays
        # online so the aggregate is non-empty.
        offline = tuple(
            v for v in honest[:-1] if rng.random() < 0.15
        )
        query = rng.choice(
            (
                "SELECT HISTO(COUNT(*)) FROM neigh(1)",
                "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf",
            )
        )
        return TrialCase(
            kind=kind,
            seed=seed,
            index=index,
            query=query,
            graph=graph,
            offline=offline,
            behaviors=behaviors,
            backend=rng.choice(_backends()) if _backends() else "pure",
            num_queries=rng.randint(2, 3),
        )

    params = audit_params()
    schema = audit_schema()
    graph = random_graph(rng, schema)
    text, plan = random_query(
        rng,
        params,
        schema=schema,
        profile=TEST,
        ungrouped_only=(kind == "sensitivity"),
    )
    offline: tuple[int, ...] = ()
    behaviors: dict[int, str] = {}
    if kind in ("equivalence", "shard_equivalence") and plan.hops == 1:
        offline, behaviors = _random_faults(rng, len(graph.vertices))
    backend = rng.choice(_backends()) if _backends() else "pure"
    workers = 2 if kind == "equivalence" and rng.random() < 0.2 else 1
    # Deliberately allowed to exceed the vertex count: trailing empty
    # shards must be a no-op at the reduction root.
    shards = rng.choice((2, 3, 5, 8)) if kind == "shard_equivalence" else 1
    return TrialCase(
        kind=kind,
        seed=seed,
        index=index,
        query=text,
        graph=graph,
        offline=offline,
        behaviors=behaviors,
        backend=backend,
        workers=workers,
        shards=shards,
    )
