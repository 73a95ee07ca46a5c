"""Draw random trial cases from one master seed.

``generate_case(master_seed, index)`` is a pure function: every random
choice comes from an RNG derived from ``(master_seed, "case", index)``
via :func:`repro.runtime.derive_rng`, so any trial can be regenerated
from the two integers alone — the property the replay bundle and the
shrinker both rely on.  This module holds the random primitives the
kinds' case draws share; the draws themselves are rows of the one kind
table, :data:`repro.audit.trials.KINDS`, and the kind of each index
comes from :data:`repro.audit.trials.SCHEDULE`.
"""

from __future__ import annotations

import random
from dataclasses import replace
from functools import lru_cache

from repro.audit.cases import GraphSpec, TrialCase
from repro.engine.malicious import Behavior
from repro.errors import QueryError
from repro.params import SystemParameters
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


def random_backend(rng: random.Random) -> str:
    """One of the compute backends that instantiate on this machine."""
    return rng.choice(_backends())


def random_attrs(
    rng: random.Random, schema: Schema, group: ColumnGroup
) -> dict[str, int]:
    """A uniform in-range value for every column available in ``group``."""
    attrs = {}
    for name in schema.column_names():
        try:
            spec = schema.lookup(group, name)
        except QueryError:
            continue
        attrs[name] = rng.randint(spec.low, spec.high)
    return attrs


def random_graph(rng: random.Random, schema: Schema | None = None) -> GraphSpec:
    """A small random contact graph with schema-conformant attributes."""
    schema = schema if schema is not None else audit_schema()
    num_vertices = rng.randint(2, 8)
    graph = ContactGraph(degree_bound=DEGREE_BOUND)
    for _ in range(num_vertices):
        graph.add_vertex(**random_attrs(rng, schema, ColumnGroup.SELF))
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
        if graph.add_edge(u, v, **random_attrs(rng, schema, ColumnGroup.EDGE)):
            added += 1
    return GraphSpec.from_graph(graph)


def random_faults(
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


def generate_case(
    master_seed: int, index: int, kind: str | None = None
) -> TrialCase:
    """Deterministically draw trial ``index`` of a run seeded with
    ``master_seed``.

    ``kind`` overrides the index schedule (used by ``--kinds`` filtered
    runs).  The case derives purely from the two integers given the
    same backend set: cases that draw a compute backend choose among
    those that instantiate here.
    """
    from repro.audit.trials import KINDS, SCHEDULE

    rng = derive_rng(master_seed, "case", index)
    case = TrialCase(
        kind=kind if kind is not None else SCHEDULE[index % len(SCHEDULE)],
        seed=rng.getrandbits(48),
        index=index,
    )
    return replace(case, **KINDS[case.kind].draw(rng))
