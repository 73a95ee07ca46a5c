"""The exact answer never reaches disk.

The committee's ``open`` step decrypts, decodes and noises in one call,
so no journal record or results file holds the decrypted coefficients
or the noise that masks a release.  Three runs leave files
behind — a campaign, a served run and a campaign killed at ``open`` and
resumed — and every file is walked: no record has a ``noise`` or
``coefficients`` field, and no numeric list on disk, subtracted from a
released vector, gives the plaintext oracle's answer.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.durability.campaign import (
    CampaignConfig,
    KillSpec,
    resume_campaign,
    run_campaign,
)
from repro.durability.journal import JOURNAL_NAME, load_records
from repro.engine.plaintext import run_plaintext
from repro.errors import CoordinatorCrash
from repro.query.ast import OutputKind
from repro.query.catalog import CATALOG
from repro.query.compiler import compile_query
from repro.query.parser import parse
from repro.query.schema import scaled_schema
from repro.runtime import derive_rng
from repro.service import QueryService, ServiceConfig
from repro.workloads.epidemic import build_campaign_graph, campaign_queries


def _config() -> CampaignConfig:
    return CampaignConfig(
        master_seed=7, queries=campaign_queries(2), people=8, degree=3
    )


def _campaign(directory):
    run_campaign(_config(), directory, fsync=False)


def _served(directory):
    async def scenario():
        service = QueryService(
            ServiceConfig(directory=str(directory), fsync=False)
        )
        await service.start()
        await asyncio.gather(
            service.submit("Q4", 0.5), service.submit("Q5", 0.5)
        )
        await service.shutdown()

    asyncio.run(scenario())


def _killed_and_resumed(directory):
    with pytest.raises(CoordinatorCrash):
        run_campaign(
            _config(), directory, kill=KillSpec("open", query=1), fsync=False
        )
    resume_campaign(directory, fsync=False)


def _nodes(node):
    """Every value in a JSON document, depth first."""
    yield node
    if isinstance(node, dict):
        node = list(node.values())
    if isinstance(node, list):
        for child in node:
            yield from _nodes(child)


def _oracles(directory) -> list[tuple]:
    """The plaintext answer, per output group, of every query that any
    journal under ``directory`` ran."""
    answers: list[tuple] = []
    for journal in sorted(directory.rglob(JOURNAL_NAME)):
        config = CampaignConfig.from_json(
            load_records(journal.parent)[0].data["config"]
        )
        graph = build_campaign_graph(
            config.people,
            config.degree,
            derive_rng(config.master_seed, "workload"),
        )
        for text, _ in config.queries:
            parsed = CATALOG[text].parsed() if text in CATALOG else parse(text)
            plan = compile_query(parsed, config.system_params(), scaled_schema())
            run = run_plaintext(plan, graph)
            if plan.output is OutputKind.HISTO:
                answers += [group.counts for group in run.histograms]
            else:
                answers.append(tuple(run.gsums))
    return answers


@pytest.mark.parametrize(
    "produce",
    [_campaign, _served, _killed_and_resumed],
    ids=["campaign", "served", "killed-and-resumed"],
)
def test_no_exact_answer_on_disk(produce, tmp_path):
    produce(tmp_path)
    nodes = []
    for path in sorted(tmp_path.rglob("*.json*")):
        text = path.read_text("utf-8")
        lines = text.splitlines() if path.suffix == ".jsonl" else [text]
        for line in filter(str.strip, lines):
            nodes += _nodes(json.loads(line))
    records = [n for n in nodes if isinstance(n, dict)]
    assert not [r for r in records if "noise" in r or "coefficients" in r]

    releases = [
        r[key] for r in records for key in ("counts", "values") if key in r
    ]
    vectors = [
        n
        for n in nodes
        if isinstance(n, list)
        and n
        and all(isinstance(x, (int, float)) for x in n)
    ]
    oracles = _oracles(tmp_path)
    assert releases and oracles
    for release in releases:
        for vector in vectors:
            if vector == release or len(vector) != len(release):
                continue
            for oracle in oracles:
                assert len(oracle) != len(release) or any(
                    abs(r - v - o) > 1e-6
                    for r, v, o in zip(release, vector, oracle)
                ), f"{release} - {vector} is the exact answer {oracle}"
