"""Runtime configuration: workers, compute backend, and shard layout.

A :class:`RuntimeConfig` is a small immutable value that the query
pipeline threads through to every parallelizable stage.  The process
holds one global default (``workers=1``, ``backend="auto"``,
``shards=1``) which can be replaced with :func:`set_runtime_config`,
scoped with :func:`use_runtime`, or overridden per call site.

Environment overrides (read once per :func:`from_env` call, used by the
CLI and the benchmark harness):

* ``MYCELIUM_WORKERS`` — integer worker count.
* ``MYCELIUM_BACKEND`` — backend name (``pure``, ``numpy``, ``auto``).
* ``MYCELIUM_SHARDS`` — integer aggregator shard count.

Garbage values raise a typed :class:`~repro.errors.ParameterError`
naming the offending variable — never a silent fallback: a run that
*thinks* it is sharded (or on the NumPy backend) but silently is not
would invalidate every measurement made with it.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, replace

from repro.errors import ParameterError

#: Backend name meaning "fastest available": resolves to the vectorized
#: NumPy kernel when NumPy imports, else the pure-Python reference.
AUTO_BACKEND = "auto"

WORKERS_ENV = "MYCELIUM_WORKERS"
BACKEND_ENV = "MYCELIUM_BACKEND"
SHARDS_ENV = "MYCELIUM_SHARDS"


def _env_int(name: str, raw: str, minimum: int = 1) -> int:
    try:
        value = int(raw)
    except ValueError:
        raise ParameterError(
            f"{name} must be an integer, got {raw!r}"
        ) from None
    if value < minimum:
        raise ParameterError(f"{name} must be >= {minimum}, got {value}")
    return value


def _env_backend(name: str, raw: str) -> str:
    # Imported lazily: backends.py imports AUTO_BACKEND from this module.
    from repro.runtime import backends

    known = backends.known_backends()
    if raw not in known:
        raise ParameterError(
            f"{name} must be one of {', '.join(known)}; got {raw!r}"
        )
    return raw


@dataclass(frozen=True)
class RuntimeConfig:
    """How hot-path work is executed.

    ``workers``
        Process-pool size for :class:`repro.runtime.fabric.TaskFabric`.
        ``1`` (the default) runs every task in-process; results are
        bit-identical at any value.
    ``backend``
        Compute-backend name for the negacyclic-NTT/polyring kernel, or
        ``"auto"`` to pick the fastest one available.
    ``chunk_size``
        Items per dispatched chunk.  Fixed independently of ``workers``
        so chunk boundaries (and therefore any per-chunk derived
        randomness) never depend on the pool size.
    ``shards``
        Aggregator shard count for the hierarchical reduction
        (:class:`repro.core.aggregator.QueryAggregator`'s
        ``num_shards``).  ``1`` is the flat aggregator; results are
        bit-identical at any value (docs/SHARDING.md).
    """

    workers: int = 1
    backend: str = AUTO_BACKEND
    chunk_size: int = 8
    shards: int = 1

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ParameterError("RuntimeConfig.workers must be >= 1")
        if self.chunk_size < 1:
            raise ParameterError("RuntimeConfig.chunk_size must be >= 1")
        if self.shards < 1:
            raise ParameterError("RuntimeConfig.shards must be >= 1")

    @classmethod
    def from_env(cls, base: RuntimeConfig | None = None) -> RuntimeConfig:
        """``base`` (or the default) with environment overrides applied.

        Raises :class:`~repro.errors.ParameterError` for values that do
        not parse or name an unknown backend.
        """
        cfg = base if base is not None else cls()
        workers = os.environ.get(WORKERS_ENV)
        if workers:
            cfg = replace(cfg, workers=_env_int(WORKERS_ENV, workers))
        backend = os.environ.get(BACKEND_ENV)
        if backend:
            cfg = replace(cfg, backend=_env_backend(BACKEND_ENV, backend))
        shards = os.environ.get(SHARDS_ENV)
        if shards:
            cfg = replace(cfg, shards=_env_int(SHARDS_ENV, shards))
        return cfg


_global_config = RuntimeConfig()


def get_runtime_config() -> RuntimeConfig:
    """The process-wide default runtime configuration."""
    return _global_config


def set_runtime_config(config: RuntimeConfig) -> RuntimeConfig:
    """Replace the process-wide default; returns the previous one."""
    global _global_config
    previous = _global_config
    _global_config = config
    return previous


@contextlib.contextmanager
def use_runtime(config: RuntimeConfig):
    """Scope the process-wide default to a ``with`` block."""
    previous = set_runtime_config(config)
    try:
        yield config
    finally:
        set_runtime_config(previous)
