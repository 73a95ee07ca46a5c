"""Serializable trial cases — the unit of generation, replay, and shrinking.

A :class:`TrialCase` is pure data: everything one audit trial needs to
run, as JSON-compatible values.  Replay bundles serialize cases with
:meth:`TrialCase.to_dict`; the shrinker produces smaller cases by
transforming this data, never live objects.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

from repro.workloads.graphgen import ContactGraph


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
        from repro.audit.trials import KINDS

        if self.kind not in KINDS:
            raise ValueError(f"unknown trial kind {self.kind!r}")

    def to_dict(self) -> dict:
        data = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, GraphSpec):
                value = value.to_dict()
            elif isinstance(value, tuple):
                value = list(value)
            elif isinstance(value, dict):
                value = {str(k): v for k, v in value.items()}
            data[f.name] = value
        return data

    @classmethod
    def from_dict(cls, data: dict) -> TrialCase:
        """Inverse of :meth:`to_dict`; a missing field keeps its default."""
        values = {}
        for f in fields(cls):
            if f.name not in data:
                continue
            value = data[f.name]
            if f.name == "graph" and value is not None:
                value = GraphSpec.from_dict(value)
            elif f.name == "behaviors":
                value = {int(k): str(v) for k, v in value.items()}
            elif isinstance(f.default, tuple):
                value = tuple(value)
            values[f.name] = value
        return cls(**values)
