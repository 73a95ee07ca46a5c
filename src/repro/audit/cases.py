"""Serializable trial cases — the unit of generation, replay, and shrinking.

A :class:`TrialCase` is pure data: everything one audit trial needs to
run, as JSON-compatible values.  Replay bundles serialize cases with
:meth:`TrialCase.to_dict`; the shrinker produces smaller cases by
transforming this data, never live objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.workloads.graphgen import ContactGraph

#: The trial families the harness audits.
TRIAL_KINDS = (
    "equivalence", "budget", "sensitivity", "shamir", "mixnet", "crash",
    "robust", "flagging", "shard_equivalence", "offline_equivalence",
    "byzantine_survival", "quarantine_soundness",
)


@dataclass(frozen=True)
class GraphSpec:
    """A contact graph as plain data (vertex attrs + edge records)."""

    degree_bound: int
    vertices: tuple[dict, ...]
    edges: tuple[tuple[int, int, dict], ...]

    def build(self) -> ContactGraph:
        graph = ContactGraph(degree_bound=self.degree_bound)
        for attrs in self.vertices:
            graph.add_vertex(**attrs)
        for u, v, attrs in self.edges:
            graph.add_edge(u, v, **attrs)
        return graph

    @classmethod
    def from_graph(cls, graph: ContactGraph) -> GraphSpec:
        edges = []
        for u in range(graph.num_vertices):
            for v in graph.neighbors(u):
                if u < v:
                    edges.append((u, v, dict(graph.edge(u, v))))
        return cls(
            degree_bound=graph.degree_bound,
            vertices=tuple(dict(a) for a in graph.vertex_attrs),
            edges=tuple(edges),
        )

    def to_dict(self) -> dict:
        return {
            "degree_bound": self.degree_bound,
            "vertices": [dict(a) for a in self.vertices],
            "edges": [[u, v, dict(a)] for u, v, a in self.edges],
        }

    @classmethod
    def from_dict(cls, data: dict) -> GraphSpec:
        return cls(
            degree_bound=int(data["degree_bound"]),
            vertices=tuple(dict(a) for a in data["vertices"]),
            edges=tuple(
                (int(u), int(v), dict(a)) for u, v, a in data["edges"]
            ),
        )

    def drop_vertex(self, vertex: int) -> GraphSpec:
        """Remove the highest-index vertex (no renumbering needed)."""
        if vertex != len(self.vertices) - 1:
            raise ValueError("only the last vertex can be dropped")
        return GraphSpec(
            degree_bound=self.degree_bound,
            vertices=self.vertices[:-1],
            edges=tuple(
                (u, v, a) for u, v, a in self.edges if u != vertex and v != vertex
            ),
        )

    def drop_edge(self, index: int) -> GraphSpec:
        return replace(
            self,
            edges=self.edges[:index] + self.edges[index + 1 :],
        )


@dataclass(frozen=True)
class TrialCase:
    """One audit trial, fully determined by this data plus the bench keys.

    Only the fields relevant to ``kind`` are meaningful; the rest keep
    their defaults so every case serializes uniformly.
    """

    kind: str
    seed: int
    index: int = 0
    # -- equivalence / sensitivity / mixnet --------------------------------
    query: str = ""
    graph: GraphSpec | None = None
    offline: tuple[int, ...] = ()
    behaviors: dict[int, str] = field(default_factory=dict)
    backend: str = "pure"
    workers: int = 1
    #: Shard count for shard_equivalence trials: the aggregator at this
    #: K must be bit-identical to itself at K=1.
    shards: int = 1
    #: Pool size for offline_equivalence trials — deliberately small so
    #: some trials exhaust their pools and exercise the same-chain
    #: refill path mid-run.
    pool_entries: int = 4
    # -- budget ------------------------------------------------------------
    total_epsilon: float = 1.0
    epsilons: tuple[float, ...] = ()
    per_query_epsilon: float = 0.1
    delta: float = 1e-6
    # -- shamir / vsr / robust ---------------------------------------------
    threshold: int = 2
    num_shares: int = 3
    #: Member positions (0-based, into the trial committee's member
    #: list) whose partial decryptions are corrupted — robust decode
    #: must correct through them and flag exactly these members.
    corrupt: tuple[int, ...] = ()
    # -- mixnet ------------------------------------------------------------
    people: int = 8
    failure: float = 0.1
    # -- crash (durable campaign kill/resume) ------------------------------
    kill_phase: str = ""
    kill_query: int = 0
    kill_before: bool = False
    num_queries: int = 2
    rotate_every: int = 1

    def __post_init__(self) -> None:
        if self.kind not in TRIAL_KINDS:
            raise ValueError(f"unknown trial kind {self.kind!r}")

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "seed": self.seed,
            "index": self.index,
            "query": self.query,
            "graph": self.graph.to_dict() if self.graph is not None else None,
            "offline": list(self.offline),
            "behaviors": {str(k): v for k, v in self.behaviors.items()},
            "backend": self.backend,
            "workers": self.workers,
            "shards": self.shards,
            "pool_entries": self.pool_entries,
            "total_epsilon": self.total_epsilon,
            "epsilons": list(self.epsilons),
            "per_query_epsilon": self.per_query_epsilon,
            "delta": self.delta,
            "threshold": self.threshold,
            "num_shares": self.num_shares,
            "corrupt": list(self.corrupt),
            "people": self.people,
            "failure": self.failure,
            "kill_phase": self.kill_phase,
            "kill_query": self.kill_query,
            "kill_before": self.kill_before,
            "num_queries": self.num_queries,
            "rotate_every": self.rotate_every,
        }

    @classmethod
    def from_dict(cls, data: dict) -> TrialCase:
        graph = data.get("graph")
        return cls(
            kind=data["kind"],
            seed=int(data["seed"]),
            index=int(data.get("index", 0)),
            query=data.get("query", ""),
            graph=GraphSpec.from_dict(graph) if graph is not None else None,
            offline=tuple(int(d) for d in data.get("offline", ())),
            behaviors={
                int(k): str(v) for k, v in data.get("behaviors", {}).items()
            },
            backend=data.get("backend", "pure"),
            workers=int(data.get("workers", 1)),
            shards=int(data.get("shards", 1)),
            pool_entries=int(data.get("pool_entries", 4)),
            total_epsilon=float(data.get("total_epsilon", 1.0)),
            epsilons=tuple(float(e) for e in data.get("epsilons", ())),
            per_query_epsilon=float(data.get("per_query_epsilon", 0.1)),
            delta=float(data.get("delta", 1e-6)),
            threshold=int(data.get("threshold", 2)),
            num_shares=int(data.get("num_shares", 3)),
            corrupt=tuple(int(c) for c in data.get("corrupt", ())),
            people=int(data.get("people", 8)),
            failure=float(data.get("failure", 0.1)),
            kill_phase=data.get("kill_phase", ""),
            kill_query=int(data.get("kill_query", 0)),
            kill_before=bool(data.get("kill_before", False)),
            num_queries=int(data.get("num_queries", 2)),
            rotate_every=int(data.get("rotate_every", 1)),
        )
