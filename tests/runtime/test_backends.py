"""Backend registry: resolution, scoping, and the dispatch seam."""

import pytest

from repro.errors import ParameterError
from repro.runtime import (
    active_backend,
    available_backends,
    resolve_backend,
    use_backend,
)
from repro.runtime import backends


def test_pure_is_always_available():
    assert "pure" in available_backends()


def test_unknown_backend_is_a_parameter_error():
    with pytest.raises(ParameterError):
        resolve_backend("cuda")


def test_auto_resolves_to_something_available():
    backend = resolve_backend("auto")
    assert backend.name in available_backends()


def test_default_active_backend_is_pure():
    assert active_backend().name == "pure"


def test_use_backend_scopes_and_restores():
    before = active_backend()
    with use_backend("pure") as backend:
        assert active_backend() is backend
    assert active_backend() is before


def test_activate_sets_process_default():
    before = active_backend()
    try:
        assert backends.activate("pure").name == "pure"
        assert active_backend().name == "pure"
    finally:
        backends._active = before


def test_registered_factories_instantiate_lazily():
    calls = []

    class _Fake:
        name = "fake"

        def negacyclic_multiply(self, a, b, n, q):
            return list(a)

    def factory():
        calls.append(1)
        return _Fake()

    backends.register_backend("fake", factory)
    try:
        assert not calls
        assert resolve_backend("fake").name == "fake"
        resolve_backend("fake")
        assert len(calls) == 1  # instantiated once, cached
    finally:
        backends._factories.pop("fake", None)
        backends._instances.pop("fake", None)


def test_ring_multiply_dispatches_to_active_backend():
    # x * x = x^2 in Z_17[x]/(x^4 + 1) on whatever backend is active.
    with use_backend("pure"):
        assert backends.ring_multiply([0, 1, 0, 0], [0, 1, 0, 0], 4, 17) == [
            0, 0, 1, 0,
        ]


def test_ring_multiply_counts_telemetry():
    from repro import telemetry

    with telemetry.session() as session:
        backends.ring_multiply([1, 0], [1, 0], 2, 13)
        snapshot = session.snapshot()
    assert snapshot["counters"]["runtime.backend.multiplies"] == 1
