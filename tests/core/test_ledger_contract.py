"""What the perf ledger (``perf/``, BENCHMARK.json) needs from ``src/``.

Two cheap contracts a refactor can break without any other test
noticing:

* ``served_mix · setup_s`` is almost all import time, so the service
  must not start pulling the live-simulation / mixnet stack in at
  import;
* ``perf/trace.py`` wraps its targets by name and hard-fails on a miss,
  so every target must still resolve to a callable at its path;
* the ledger's ``chacha20_xor`` rows count cipher operations, so every
  single-message entry point is exactly one ``chacha20_xor`` call and a
  batched one is none.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[2]

HEAVY = ("repro.sharding.livesim", "repro.mixnet.network")


def test_importing_the_service_stays_off_the_mixnet_and_livesim_stack():
    probe = (
        "import sys, repro.service, repro.core.system\n"
        f"print([m for m in {HEAVY!r} if m in sys.modules])\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        check=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src")},
    )
    assert done.stdout.strip() == "[]"


def _load_perf_trace():
    spec = importlib.util.spec_from_file_location(
        "perf_trace_under_test", REPO_ROOT / "perf" / "trace.py"
    )
    trace = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = trace  # NamedTuple resolves its own module
    try:
        spec.loader.exec_module(trace)
    finally:
        del sys.modules[spec.name]
    return trace


def test_every_ledger_trace_target_resolves_to_a_callable():
    trace = _load_perf_trace()
    assert trace.TARGETS
    for target in trace.TARGETS:
        # The rule Tracer.install applies before it wraps anything.
        module = importlib.import_module(target.module)
        holder = getattr(module, target.owner) if target.owner else module
        raw = inspect.getattr_static(holder, target.attr)
        if isinstance(raw, (classmethod, staticmethod)):
            raw = raw.__func__
        assert callable(raw), f"{target.span} -> {target.module}:{target.attr}"


def test_single_message_cipher_calls_are_one_traced_chacha20_xor_each():
    """``perf/selftest.py`` requires it of ``senc``, and ``perf/run.py``
    fails a mixnet query whose per-message sites stop reaching the
    traced names; the ``_many`` forms go to the kernel directly."""
    from repro.crypto import aead
    from repro.mixnet import onion

    trace = _load_perf_trace()
    span = "crypto.chacha20.chacha20_xor"
    tracer = trace.Tracer(tuple(t for t in trace.TARGETS if t.span == span))
    key, items = b"k" * 32, [(b"k" * 32, 1, b"payload"), (b"j" * 32, 2, b"")]
    with tracer:
        sealed = aead.ae_seal(key, 1, b"payload")
        singles = [
            lambda: aead.senc(key, 1, b"payload"),
            lambda: onion.peel(key, 1, b"payload"),
            lambda: aead.ae_seal(key, 1, b"payload"),
            lambda: aead.ae_open(key, 1, sealed),
        ]
        tracer.drain()
        for call in singles:
            call()
            assert [s[trace.NAME] for s in tracer.drain()] == [span]
        aead.senc_many(items)
        aead.ae_seal_many(items)
        onion.wrap_many([b"a", b"b"], [[key, key], [key, key]], 1, b"F")
        assert tracer.drain() == []


def test_newest_committed_record_covers_every_workload_and_metric():
    """``BENCH_<pr>.json`` at the repo root is the trajectory a later
    change is compared against; a record that lost a workload, a metric
    or a query is not one."""
    spec = json.loads((REPO_ROOT / "BENCHMARK.json").read_text())
    records = sorted(
        REPO_ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1])
    )
    assert records, "no BENCH_<pr>.json committed at the repo root"
    ledger = json.loads(records[-1].read_text())
    for workload in spec["workloads"]:
        record = ledger["workloads"][workload["name"]]
        assert record["failed"] == 0, workload["name"]
        assert {m["name"] for m in spec["end_to_end"]} <= set(record["end_to_end"])
