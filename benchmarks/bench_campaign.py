"""Durable campaign runtime: what the write-ahead journal costs.

The campaign runner fsyncs one checksummed JSONL record per phase
boundary (``docs/RESILIENCE.md``).  This benchmark prices that
durability against a no-journal baseline — the same queries driven
straight through ``MyceliumSystem.run_query`` — and records the
overhead (target: <10% wall-clock) into the BENCH snapshot alongside
the ``durability.*`` counters the run emits.
"""

import time

from benchmarks.conftest import format_table
from repro.core.system import MyceliumSystem
from repro.durability.campaign import (
    CampaignConfig,
    KillSpec,
    resume_campaign,
    run_campaign,
)
from repro.durability.journal import JOURNAL_NAME
from repro.errors import CoordinatorCrash
from repro.params import TEST, SystemParameters
from repro.query.catalog import CATALOG
from repro.query.schema import scaled_schema
from repro.runtime.seeding import derive_rng
from repro.workloads.epidemic import build_campaign_graph, campaign_queries

import pytest

PEOPLE, DEGREE, SEED = 8, 3, 7
QUERIES = campaign_queries(2)
OVERHEAD_TARGET = 0.10


def _config() -> CampaignConfig:
    # rotate_every=0 disables scheduled handoffs so both sides of the
    # comparison run exactly the same per-query pipeline.
    return CampaignConfig(
        master_seed=SEED,
        queries=QUERIES,
        people=PEOPLE,
        degree=DEGREE,
        rotate_every=0,
    )


def _no_journal_baseline() -> None:
    """The same compute with no durability layer at all: the campaign's
    own setup/workload seeds, driven straight through run_query."""
    system = MyceliumSystem.setup(
        num_devices=PEOPLE,
        rng=derive_rng(SEED, "setup"),
        profile=TEST,
        params=SystemParameters(
            num_devices=PEOPLE,
            degree_bound=DEGREE,
            hops=2,
            committee_size=3,
            replicas=2,
            forwarder_fraction=0.3,
        ),
        schema=scaled_schema(),
    )
    graph = build_campaign_graph(PEOPLE, DEGREE, derive_rng(SEED, "workload"))
    for name, epsilon in QUERIES:
        system.run_query(CATALOG[name], graph, epsilon=epsilon)


def test_journal_overhead(benchmark, report, tmp_path):
    started = time.perf_counter()
    _no_journal_baseline()
    baseline_s = time.perf_counter() - started

    started = time.perf_counter()
    nofsync = run_campaign(_config(), tmp_path / "nofsync", fsync=False)
    nofsync_s = time.perf_counter() - started

    timing = {}

    def run():
        started = time.perf_counter()
        result = run_campaign(_config(), tmp_path / "durable")
        timing["s"] = time.perf_counter() - started
        return result

    durable = benchmark.pedantic(run, rounds=1, iterations=1)
    durable_s = timing["s"]
    journal_bytes = (tmp_path / "durable" / JOURNAL_NAME).stat().st_size

    overhead = durable_s / baseline_s - 1
    report(
        *format_table(
            f"Journal overhead ({len(QUERIES)} queries, "
            f"{PEOPLE} devices, TEST ring)",
            ["cell", "wall_s", "vs baseline"],
            [
                ["no journal (run_query x2)", baseline_s, "1.00x"],
                [
                    "journaled, no fsync",
                    nofsync_s,
                    f"{nofsync_s / baseline_s:.2f}x",
                ],
                [
                    "journaled + fsync/record",
                    durable_s,
                    f"{durable_s / baseline_s:.2f}x",
                ],
            ],
        ),
        f"journal: {journal_bytes} bytes on disk, "
        f"overhead {100 * overhead:+.1f}% (target < "
        f"{100 * OVERHEAD_TARGET:.0f}%)",
    )
    # Durability must not change the answer...
    assert durable.digest == nofsync.digest
    # ...and must cost less than the acceptance target.
    assert overhead < OVERHEAD_TARGET


def test_resume_is_cheaper_than_rerun(benchmark, report, tmp_path):
    """Resuming after a crash at the last phase boundary replays journal
    records instead of redoing ciphertext work, so it must beat a full
    run by a wide margin."""
    started = time.perf_counter()
    with pytest.raises(CoordinatorCrash):
        run_campaign(
            _config(),
            tmp_path,
            kill=KillSpec(phase="open", query=len(QUERIES) - 1),
        )
    full_s = time.perf_counter() - started

    timing = {}

    def resume():
        started = time.perf_counter()
        result = resume_campaign(tmp_path)
        timing["s"] = time.perf_counter() - started
        return result

    resumed = benchmark.pedantic(resume, rounds=1, iterations=1)
    resume_s = timing["s"]
    report(
        *format_table(
            "Crash at the final phase boundary, then resume",
            ["cell", "wall_s"],
            [
                ["run until crash", full_s],
                ["resume to completion", resume_s],
            ],
        )
    )
    assert len(resumed.results) == len(QUERIES)
    assert resume_s < full_s
