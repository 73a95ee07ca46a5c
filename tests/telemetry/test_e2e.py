"""Acceptance: one end-to-end query under an enabled tracer.

Runs setup + one query over the *real* mixnet transport inside a single
telemetry session and checks the export carries the complete documented
contract: all six query phases as spans, at least one metric from every
instrumented subsystem, and no name that ``docs/OBSERVABILITY.md``
doesn't document.
"""

import io
import random
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.system import MyceliumSystem
from repro.errors import QueryError
from repro.mixnet.network import MixnetWorld
from repro.params import SystemParameters
from repro.query.schema import scaled_schema
from repro.runtime import RuntimeConfig, use_runtime
from repro.telemetry.contract import documented_names, find_repo_root
from repro.telemetry.export import (
    export_jsonl,
    load_jsonl,
    metric_names,
    span_names,
    span_tree,
)
from repro.workloads.epidemic import run_epidemic
from repro.workloads.graphgen import generate_household_graph

QUERY = "SELECT HISTO(COUNT(*)) FROM neigh(1) WHERE dest.inf AND self.inf"

QUERY_PHASES = {
    "query.genesis",
    "query.compile",
    "query.execute",
    "query.aggregate",
    "query.decrypt",
    "query.rotate",
}

SUBSYSTEM_PREFIXES = ("mixnet.", "bgv.", "aggregator.", "committee.", "dp.")


@pytest.fixture(scope="module")
def traced_run():
    rng = random.Random(91)
    graph = generate_household_graph(
        10, degree_bound=2, rng=rng, external_contacts=1
    )
    run_epidemic(graph, rng)
    params = SystemParameters(
        num_devices=10, hops=2, replicas=1, forwarder_fraction=0.45,
        degree_bound=2, pseudonyms_per_device=2,
    )
    # The reference kernel is the one that reports ``ntt.*``; genesis and
    # the query both follow the configured backend.
    with use_runtime(RuntimeConfig(backend="pure")), telemetry.session() as session:
        system = MyceliumSystem.setup(
            num_devices=10, rng=rng, params=params, schema=scaled_schema()
        )
        world = MixnetWorld(
            params, num_devices=10, rng=rng, rsa_bits=512,
            pseudonyms_per_device=2,
        )
        result = system.run_query(
            QUERY, graph=graph, epsilon=1.0, rotate=True, world=world
        )
    buffer = io.StringIO()
    export_jsonl(session, buffer)
    records = load_jsonl(io.StringIO(buffer.getvalue()))
    return result, records


class TestSpanContract:
    def test_all_six_query_phases_present(self, traced_run):
        _, records = traced_run
        assert QUERY_PHASES <= span_names(records)

    def test_phases_nest_under_their_roots(self, traced_run):
        _, records = traced_run
        roots = {r["name"]: r for r in span_tree(records)}
        assert set(roots) == {"system.setup", "query.run"}
        assert [c["name"] for c in roots["system.setup"]["children"]] == [
            "query.genesis"
        ]
        run_children = [
            c["name"] for c in roots["query.run"]["children"]
        ]
        assert run_children == [
            "query.compile", "query.execute", "query.aggregate",
            "query.decrypt", "query.release", "query.rotate",
        ]

    def test_mixnet_waves_nest_under_execute(self, traced_run):
        _, records = traced_run
        (run_root,) = [
            r for r in span_tree(records) if r["name"] == "query.run"
        ]
        (execute,) = [
            c for c in run_root["children"] if c["name"] == "query.execute"
        ]
        batches = [
            c for c in execute["children"] if c["name"] == "mixnet.send_batch"
        ]
        assert batches, "no forwarding wave was traced"
        assert all(b["attrs"]["hops"] == 2 for b in batches)


class TestMetricContract:
    def test_every_subsystem_reported(self, traced_run):
        _, records = traced_run
        names = metric_names(records)
        for prefix in SUBSYSTEM_PREFIXES:
            assert any(n.startswith(prefix) for n in names), prefix
        assert any(n.startswith("ntt.") for n in names)

    def test_every_exported_name_is_documented(self, traced_run):
        _, records = traced_run
        root = find_repo_root(Path(__file__).resolve())
        doc = (root / "docs" / "OBSERVABILITY.md").read_text()
        doc_metrics, doc_spans = documented_names(doc)
        assert metric_names(records) <= set(doc_metrics)
        assert span_names(records) <= set(doc_spans)

    def test_budget_gauges_reflect_the_charge(self, traced_run):
        _, records = traced_run
        gauges = {
            r["name"]: r["value"]
            for r in records
            if r["type"] == "gauge"
        }
        assert gauges["dp.budget.epsilon_spent"] == pytest.approx(1.0)
        assert gauges["dp.budget.epsilon_remaining"] == pytest.approx(9.0)

    def test_query_result_is_released(self, traced_run):
        result, _ = traced_run
        assert result.metadata.epsilon == 1.0
        assert result.metadata.contributing_origins == 10


class TestWorldOfflineConflict:
    def test_world_plus_offline_is_rejected(self):
        rng = random.Random(5)
        graph = generate_household_graph(
            10, degree_bound=2, rng=rng, external_contacts=1
        )
        params = SystemParameters(
            num_devices=10, hops=2, replicas=1, forwarder_fraction=0.45,
            degree_bound=2, pseudonyms_per_device=2,
        )
        system = MyceliumSystem.setup(
            num_devices=10, rng=rng, params=params, schema=scaled_schema()
        )
        world = MixnetWorld(
            params, num_devices=10, rng=rng, rsa_bits=512,
            pseudonyms_per_device=2,
        )
        with pytest.raises(QueryError):
            system.run_query(
                QUERY, graph=graph, epsilon=1.0, world=world, offline={3}
            )
