"""TaskFabric: ordering, chunking, determinism, and real worker pools."""

import os
import time

import pytest

from repro.runtime import RuntimeConfig, TaskFabric, use_runtime


def _square_task(context, item):
    """Module-level so worker processes can unpickle it by reference."""
    return (context or 0) + item * item


def _pid_task(context, item):
    return os.getpid()


def _ctx_first_task(context, item):
    return context[0] + item


def test_in_process_map_preserves_order():
    fabric = TaskFabric(workers=1)
    assert fabric.map(_square_task, [3, 1, 2]) == [9, 1, 4]
    assert fabric.last_out_of_process is False


def test_context_is_passed_through():
    fabric = TaskFabric(workers=1)
    assert fabric.map(_square_task, [2], context=100) == [104]


def test_single_chunk_stays_in_process():
    # One chunk means no parallelism to win; the fabric must not pay
    # for a pool (and last_out_of_process must say so).
    with TaskFabric(workers=4, chunk_size=16) as fabric:
        assert fabric.map(_square_task, list(range(10))) == [
            i * i for i in range(10)
        ]
        assert fabric.last_out_of_process is False


def test_out_of_process_map_matches_in_process():
    items = list(range(23))
    expected = TaskFabric(workers=1, chunk_size=4).map(
        _square_task, items, context=7
    )
    with TaskFabric(workers=4, chunk_size=4) as fabric:
        got = fabric.map(_square_task, items, context=7)
        assert fabric.last_out_of_process is True
    assert got == expected


def test_workers_really_run_out_of_process():
    with TaskFabric(workers=2, chunk_size=1) as fabric:
        pids = set(fabric.map(_pid_task, list(range(6))))
    assert os.getpid() not in pids


def test_pool_is_reused_for_same_context():
    context = (100,)
    with TaskFabric(workers=2, chunk_size=1) as fabric:
        assert fabric.map(_ctx_first_task, [1, 2], context=context) == [101, 102]
        pool = fabric._pools[id(context)]
        fabric.map(_ctx_first_task, [3, 4], context=context)
        assert fabric._pools[id(context)] is pool


def test_from_config_reads_global_default():
    with use_runtime(RuntimeConfig(workers=3, chunk_size=2)):
        fabric = TaskFabric.from_config()
    assert fabric.workers == 3
    assert fabric.chunk_size == 2


def test_explicit_config_beats_global():
    fabric = TaskFabric.from_config(RuntimeConfig(workers=2, chunk_size=5))
    assert fabric.workers == 2
    assert fabric.chunk_size == 5


def test_chunking_is_worker_count_independent():
    # The chunk layout is a function of chunk_size alone; growing the
    # pool must never move a chunk boundary.
    items = list(range(10))
    for workers in (1, 2, 4, 8):
        fabric = TaskFabric(workers=workers, chunk_size=3)
        chunks = [
            items[i : i + fabric.chunk_size]
            for i in range(0, len(items), fabric.chunk_size)
        ]
        assert chunks == [[0, 1, 2], [3, 4, 5], [6, 7, 8], [9]]


def _fail_on_zero_task(context, item):
    if item == 0:
        raise RuntimeError("boom on item 0")
    time.sleep(0.3)
    return item


def test_worker_counts_above_the_ceiling_are_refused():
    # Constructed only, never mapped: a refused count starts no pool.
    from repro.errors import ParameterError
    from repro.runtime.config import MAX_WORKERS

    with pytest.raises(ParameterError, match="workers"):
        TaskFabric(workers=MAX_WORKERS + 1)
    with pytest.raises(ParameterError, match="workers"):
        TaskFabric(workers=10**6)


def test_parallel_reflects_worker_count_only():
    assert TaskFabric(workers=1).parallel is False
    assert TaskFabric(workers=2).parallel is True


def test_out_of_process_failure_reraises_original_exception():
    with TaskFabric(workers=2, chunk_size=1) as fabric:
        with pytest.raises(RuntimeError, match="boom on item 0"):
            fabric.map(_fail_on_zero_task, [0, 1, 2, 3])


def test_out_of_process_failure_cancels_pending_futures():
    # Item 0 raises immediately; the other chunks sleep, so at the
    # moment the failure surfaces most of them are still queued.  A
    # clean failure cancels them rather than letting the pool grind on.
    with TaskFabric(workers=2, chunk_size=1) as fabric:
        pool = fabric._pool(None)
        captured = []
        original_submit = pool.submit

        def capturing_submit(*args, **kwargs):
            future = original_submit(*args, **kwargs)
            captured.append(future)
            return future

        pool.submit = capturing_submit
        with pytest.raises(RuntimeError, match="boom on item 0"):
            fabric.map(_fail_on_zero_task, list(range(12)))
        assert len(captured) == 12
        assert any(future.cancelled() for future in captured)


def test_fabric_usable_after_out_of_process_failure():
    with TaskFabric(workers=2, chunk_size=1) as fabric:
        with pytest.raises(RuntimeError):
            fabric.map(_fail_on_zero_task, [0, 1])
        assert fabric.map(_square_task, [1, 2, 3], context=0) == [1, 4, 9]


def test_in_process_failure_propagates_too():
    fabric = TaskFabric(workers=1)
    with pytest.raises(RuntimeError, match="boom on item 0"):
        fabric.map(_fail_on_zero_task, [0])


def test_map_emits_runtime_telemetry():
    from repro import telemetry

    with telemetry.session() as session:
        TaskFabric(workers=1).map(_square_task, [1, 2, 3])
        snapshot = session.snapshot()
    assert snapshot["counters"]["runtime.tasks.total"] == 3
    assert snapshot["counters"]["runtime.chunks.total"] == 1
    assert snapshot["gauges"]["runtime.workers"] == 1
    assert snapshot["spans"]["runtime.map"]["count"] == 1
