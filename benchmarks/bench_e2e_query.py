"""End-to-end pipeline benchmark: one full private query.

Covers the whole §4 stack at simulation scale: encrypted vertex
program, proof verification, relinearization + summation, threshold
decryption, noise, release.

The offline/online split axis (``test_offline_online_split``) measures
the served-latency lever of ``src/repro/offline``: the same query, once
paying all query-independent crypto inline and once consuming
precomputed pools.  Full mode runs at the SMALL ring, quick mode (the
CI smoke) at the TEST ring; both check bit-identity and report the
ratio::

    PYTHONPATH=src python benchmarks/bench_e2e_query.py --quick
"""

import os
import sys
import time
from pathlib import Path

if __package__ in (None, ""):  # invoked as a script: --quick smoke
    sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

import pytest

from benchmarks.conftest import format_table
from repro.query.catalog import CATALOG
from repro.runtime import RuntimeConfig, available_backends
from tests.conftest import build_epidemic_graph, build_system


def test_end_to_end_query(benchmark, report):
    graph = build_epidemic_graph(seed=71, people=12, degree=3)

    def run():
        system = build_system(seed=72, people=12, degree=3)
        return system.run_query(CATALOG["Q5"], graph, epsilon=1.0)

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    md = result.metadata
    report(
        *format_table(
            "End-to-end private query (Q5, 12 devices, TEST ring)",
            ["metric", "value"],
            [
                ["contributing origins", md.contributing_origins],
                ["rejected origins", md.rejected_origins],
                ["sensitivity", md.sensitivity],
                ["noise scale", md.noise_scale],
                ["modeled ZKP verify seconds", md.verification_seconds],
            ],
        )
    )
    assert md.contributing_origins == graph.num_vertices


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("backend", available_backends())
def test_end_to_end_backend_worker_sweep(benchmark, report, backend, workers):
    """Q5 end to end at every backend × worker combination.

    Every cell must produce the same answer (the runtime's determinism
    contract); the per-cell wall time is what the sweep measures.
    """
    graph = build_epidemic_graph(seed=71, people=12, degree=3)

    def run():
        system = build_system(seed=72, people=12, degree=3)
        return system.run_query(
            CATALOG["Q5"], graph, epsilon=1.0,
            runtime=RuntimeConfig(workers=workers, backend=backend),
        )

    result = benchmark.pedantic(run, rounds=1, iterations=1)
    md = result.metadata
    report(
        f"e2e Q5 backend={backend} workers={workers}: "
        f"origins={md.contributing_origins} rejected={md.rejected_origins}"
    )
    assert md.contributing_origins == graph.num_vertices


def _quick() -> bool:
    return os.environ.get("MYCELIUM_BENCH_QUICK") == "1"


def test_offline_online_split(benchmark, report):
    """Inline vs offline+online latency for one full private query.

    Both arms run ``noiseless=True`` with a pinned ``submission_seed``,
    so the released group values must be *identical* — the offline
    phase's bit-identity contract, asserted here end to end.  The
    content-keyed product cache is cleared before each timed arm so
    neither inherits the other's work.  The ratio is reported, not
    gated: the inline arm relinearizes in the evaluation domain too, so
    what the split still buys is the leaf encryptions' ring products
    (the perf ledger, ``perf/``, is where speed is gated).
    """
    import random

    from repro.core.system import MyceliumSystem
    from repro.offline.store import OfflineStore
    from repro.params import SMALL, TEST, SystemParameters
    from repro.query.schema import scaled_schema
    from repro.runtime import backends

    profile = TEST if _quick() else SMALL
    people, master = 12, 0xA5ED
    backend = "numpy" if "numpy" in available_backends() else "pure"
    runtime = RuntimeConfig(workers=1, backend=backend)
    query = "SELECT HISTO(COUNT(*)) FROM neigh(1)"

    params = SystemParameters(
        num_devices=people, degree_bound=3, hops=2, committee_size=3,
        replicas=1, forwarder_fraction=0.3,
    )
    system = MyceliumSystem.setup(
        num_devices=people, rng=random.Random(72), profile=profile,
        params=params, schema=scaled_schema(), committee_threshold=2,
        total_epsilon=1000.0,
    )
    graph = build_epidemic_graph(seed=71, people=people, degree=3)

    backends.clear_multiply_cache()
    started = time.perf_counter()
    inline_result = system.run_query(
        query, graph, epsilon=1.0, noiseless=True, runtime=runtime,
        submission_seed=master,
    )
    inline_seconds = time.perf_counter() - started

    # The offline phase: pools of per-origin encryption randomness,
    # outside the timed window.  (Relinearization folds against the key
    # set's own resident forms in both arms.)
    store = OfflineStore(system.public_key)
    started = time.perf_counter()
    store.ensure_encryption_pools(
        system.public_key, master, range(people), 4
    )
    offline_seconds = time.perf_counter() - started

    backends.clear_multiply_cache()

    def run_online():
        return system.run_query(
            query, graph, epsilon=1.0, noiseless=True, runtime=runtime,
            offline_store=store, submission_seed=master,
        )

    started = time.perf_counter()
    pooled_result = benchmark.pedantic(run_online, rounds=1, iterations=1)
    online_seconds = time.perf_counter() - started

    speedup = inline_seconds / online_seconds
    mode = "quick" if _quick() else "full"
    report(
        *format_table(
            f"Offline/online split ({mode}, {profile.name.upper()} ring, "
            f"backend={backend}, {people} devices)",
            ["arm", "seconds"],
            [
                ["inline (no offline phase)", inline_seconds],
                ["offline precompute (untimed arm)", offline_seconds],
                ["online (pools)", online_seconds],
                ["speedup (inline / online)", speedup],
            ],
        )
    )
    assert pooled_result.groups == inline_result.groups


def test_end_to_end_ratio_query(benchmark, report):
    graph = build_epidemic_graph(seed=73, people=12, degree=3)

    def run():
        system = build_system(seed=74, people=12, degree=3)
        noisy = system.run_query(CATALOG["Q8"], graph, epsilon=1.0)
        truth = system.plaintext_answer(CATALOG["Q8"], graph)
        return noisy, truth

    noisy, truth = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [
        [group, truth.gsums[group], noisy.values[group]]
        for group in range(len(noisy.values))
    ]
    report(
        *format_table(
            "Q8 secondary attack rates: household vs non-household",
            ["group (isHousehold)", "true clipped sum", "released (noisy)"],
            rows,
        )
    )
    assert len(noisy.values) == 2

if __name__ == "__main__":
    import argparse

    parser = argparse.ArgumentParser(
        description="end-to-end private query benchmarks"
    )
    parser.add_argument(
        "--quick",
        action="store_true",
        help="TEST-ring smoke for CI (the offline split runs at TEST, not SMALL)",
    )
    cli_args = parser.parse_args()
    if cli_args.quick:
        os.environ["MYCELIUM_BENCH_QUICK"] = "1"

    raise SystemExit(pytest.main([__file__, "-q"]))
