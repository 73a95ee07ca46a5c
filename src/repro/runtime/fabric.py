"""Deterministic worker-pool fabric for embarrassingly parallel stages.

:class:`TaskFabric` maps a module-level function over a list of work
items, either in-process (``workers=1``, the default) or across a
``ProcessPoolExecutor``.  Determinism contract, at any worker count:

* **Stable order** — results come back in item order; chunks are
  submitted and joined in order.
* **Worker-independent chunking** — items are grouped into fixed-size
  chunks (``chunk_size`` from :class:`~repro.runtime.config.RuntimeConfig`),
  never into ``len(items)/workers`` slices, so chunk boundaries do not
  move when the pool grows.
* **No shared RNG** — task functions receive explicit inputs only.  A
  caller that needs randomness derives a per-item seed with
  :func:`repro.runtime.seeding.derive_seed` *before* dispatch.
* **Same code path** — the in-process mode calls the identical
  ``fn(context, item)`` closure-free entry point the workers do, so
  ``workers=1`` and ``workers=N`` differ only in scheduling.

The shared, read-only ``context`` (keys, proof systems, plans) is
shipped to each worker once via the pool initializer rather than per
task.  Task functions must be module-level (picklable by reference).

Worker processes run with telemetry inactive (sessions are
per-process), so task functions that want metrics return them as data
and the caller accounts for them parent-side; see
``docs/PERFORMANCE.md``.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Callable, Sequence

from repro.runtime import backends
from repro.runtime.config import RuntimeConfig, get_runtime_config
from repro.telemetry import runtime as telemetry

# Per-worker-process slot for the shared read-only context, installed by
# the pool initializer so it is pickled once per worker, not per chunk.
_WORKER_CONTEXT: Any = None


def _init_worker(context: Any, backend_name: str) -> None:
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    backends.activate(backend_name)
    # A forked worker inherits the parent's populated NTT context cache;
    # its hit/miss counters would then describe the parent's warm-up and
    # a parent cache at the LRU bound would start every worker at the
    # bound.  Start each worker cold (ntt.get_context also self-heals on
    # pid change, but the explicit reset keeps spawn/fork symmetric).
    from repro.crypto import ntt

    ntt.clear_context_cache()


def _run_chunk(fn: Callable[[Any, Any], Any], chunk: list[Any]) -> list[Any]:
    return [fn(_WORKER_CONTEXT, item) for item in chunk]


class TaskFabric:
    """Shards independent work items across processes, deterministically."""

    def __init__(self, workers: int = 1, chunk_size: int = 8) -> None:
        self.workers = RuntimeConfig(workers=max(1, int(workers))).workers
        self.chunk_size = max(1, int(chunk_size))
        self._pools: dict[int, ProcessPoolExecutor] = {}
        #: Whether the most recent :meth:`map` dispatched to worker
        #: processes.  Callers use this to decide whether to account for
        #: telemetry their task functions could not emit (worker
        #: processes collect nothing) without double-counting the
        #: in-process path.
        self.last_out_of_process = False

    @classmethod
    def from_config(cls, config: RuntimeConfig | None = None) -> "TaskFabric":
        cfg = config if config is not None else get_runtime_config()
        return cls(workers=cfg.workers, chunk_size=cfg.chunk_size)

    @property
    def parallel(self) -> bool:
        """Whether this fabric may run work out-of-process."""
        return self.workers > 1

    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Sequence[Any],
        *,
        context: Any = None,
        label: str = "fabric",
    ) -> list[Any]:
        """``[fn(context, item) for item in items]``, possibly sharded.

        ``fn`` must be a module-level function taking ``(context, item)``
        and must not mutate ``context``.  Results preserve item order.
        """
        items = list(items)
        chunks = [
            items[i : i + self.chunk_size]
            for i in range(0, len(items), self.chunk_size)
        ]
        out_of_process = self.workers > 1 and len(chunks) > 1
        self.last_out_of_process = out_of_process
        started = time.perf_counter()
        with telemetry.span(
            "runtime.map", label=label, items=len(items), workers=self.workers
        ):
            if not out_of_process:
                results: list[Any] = [fn(context, item) for item in items]
            else:
                pool = self._pool(context)
                futures = [pool.submit(_run_chunk, fn, chunk) for chunk in chunks]
                results = []
                try:
                    for future in futures:
                        results.extend(future.result())
                except BaseException:
                    # A chunk raised out-of-process.  Cancel whatever has
                    # not started (no point finishing work the caller
                    # will never see) and surface the original exception
                    # unchanged.
                    for future in futures:
                        future.cancel()
                    raise
        telemetry.count("runtime.tasks.total", len(items))
        telemetry.count("runtime.chunks.total", len(chunks))
        telemetry.observe("runtime.map.seconds", time.perf_counter() - started)
        telemetry.set_gauge("runtime.workers", self.workers)
        return results

    def _pool(self, context: Any) -> ProcessPoolExecutor:
        """A pool whose workers hold ``context``; reused across map calls.

        Pools are keyed by context identity: mapping with a different
        context object tears the old pool down so workers never see
        stale state.
        """
        key = id(context)
        pool = self._pools.get(key)
        if pool is None:
            self.close()
            pool = ProcessPoolExecutor(
                max_workers=self.workers,
                initializer=_init_worker,
                initargs=(context, backends.active_backend().name),
            )
            self._pools[key] = pool
        return pool

    def close(self) -> None:
        """Shut down any worker pools this fabric created."""
        for pool in self._pools.values():
            pool.shutdown(wait=False, cancel_futures=True)
        self._pools.clear()

    def __enter__(self) -> "TaskFabric":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()
