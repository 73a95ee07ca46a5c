"""Parallel execution runtime and pluggable compute backends.

Two layers (docs/PERFORMANCE.md):

* :mod:`repro.runtime.fabric` — a deterministic worker-pool fabric.
  :class:`TaskFabric` shards independent work items (per-origin
  ciphertext generation, proof verification, ciphertext summation)
  across a ``ProcessPoolExecutor`` while guaranteeing that results are
  *bit-identical at any worker count*: item order is stable, chunking
  is independent of the pool size, and any randomness a task needs is
  derived per item with :func:`repro.runtime.seeding.derive_rng`.
  ``workers=1`` (the default) runs everything in-process with zero
  pickling, which is what the test suite exercises.

* :mod:`repro.runtime.backends` — a pluggable compute-backend registry
  for the crypto hot paths.  The :class:`ComputeBackend` protocol covers
  the negacyclic-NTT/polynomial-ring kernel under every BGV operation
  and the ChaCha20 keystream kernel under the mixnet's SEnc/AE; the
  reference implementations are the existing pure-Python
  :class:`repro.crypto.ntt.NttContext` and the RFC 8439 block function,
  and :mod:`repro.runtime.numpy_backend` provides exact vectorized NumPy
  kernels (auto-detected; NumPy stays an optional import).

:class:`repro.runtime.config.RuntimeConfig` selects both knobs and can
be set globally, per ``with`` block, or per query via
``MyceliumSystem.run_query(..., runtime=...)``.
"""

from repro.runtime.backends import (
    ComputeBackend,
    active_backend,
    available_backends,
    known_backends,
    resolve_backend,
    use_backend,
)
from repro.runtime.config import (
    RuntimeConfig,
    get_runtime_config,
    set_runtime_config,
    use_runtime,
)
from repro.runtime.fabric import TaskFabric
from repro.runtime.seeding import derive_rng, derive_seed

__all__ = [
    "ComputeBackend",
    "RuntimeConfig",
    "TaskFabric",
    "active_backend",
    "available_backends",
    "derive_rng",
    "derive_seed",
    "get_runtime_config",
    "known_backends",
    "resolve_backend",
    "set_runtime_config",
    "use_backend",
    "use_runtime",
]
