"""RuntimeConfig defaults, validation, and override plumbing."""

import pytest

from repro.errors import ParameterError
from repro.runtime import (
    RuntimeConfig,
    get_runtime_config,
    set_runtime_config,
    use_runtime,
)
from repro.runtime.config import BACKEND_ENV, MAX_WORKERS, SHARDS_ENV, WORKERS_ENV


def test_defaults():
    config = RuntimeConfig()
    assert config.workers == 1
    assert config.backend == "auto"
    assert config.chunk_size == 8
    assert config.shards == 1


def test_validation():
    with pytest.raises(ParameterError):
        RuntimeConfig(workers=0)
    with pytest.raises(ParameterError):
        RuntimeConfig(chunk_size=0)
    with pytest.raises(ParameterError):
        RuntimeConfig(shards=0)


def test_from_env_overrides(monkeypatch):
    monkeypatch.setenv(WORKERS_ENV, "3")
    monkeypatch.setenv(BACKEND_ENV, "pure")
    monkeypatch.setenv(SHARDS_ENV, "4")
    config = RuntimeConfig.from_env()
    assert config.workers == 3
    assert config.backend == "pure"
    assert config.shards == 4


def test_from_env_keeps_base_without_vars(monkeypatch):
    monkeypatch.delenv(WORKERS_ENV, raising=False)
    monkeypatch.delenv(BACKEND_ENV, raising=False)
    monkeypatch.delenv(SHARDS_ENV, raising=False)
    base = RuntimeConfig(workers=5, backend="pure", chunk_size=4, shards=3)
    assert RuntimeConfig.from_env(base) == base


@pytest.mark.parametrize("env", [WORKERS_ENV, SHARDS_ENV])
@pytest.mark.parametrize("garbage", ["banana", "2.5", "", "0x4", "1 2"])
def test_from_env_rejects_garbage_integers(monkeypatch, env, garbage):
    # Empty string means "unset" (shell convention); everything else
    # non-integer must fail loudly, never fall back silently.
    monkeypatch.setenv(env, garbage)
    if garbage == "":
        assert RuntimeConfig.from_env() == RuntimeConfig()
        return
    with pytest.raises(ParameterError, match=env):
        RuntimeConfig.from_env()


@pytest.mark.parametrize("env", [WORKERS_ENV, SHARDS_ENV])
@pytest.mark.parametrize("bad", ["0", "-3"])
def test_from_env_rejects_non_positive(monkeypatch, env, bad):
    monkeypatch.setenv(env, bad)
    with pytest.raises(ParameterError, match=env):
        RuntimeConfig.from_env()


def test_worker_counts_above_the_ceiling_are_refused(monkeypatch):
    # Only constructed: no pool is ever started with these counts.
    assert RuntimeConfig(workers=MAX_WORKERS).workers == MAX_WORKERS
    with pytest.raises(ParameterError, match="workers"):
        RuntimeConfig(workers=MAX_WORKERS + 1)
    with pytest.raises(ParameterError, match="workers"):
        RuntimeConfig(workers=10**6)
    for raw in (str(MAX_WORKERS + 1), "99999999999999999999"):
        monkeypatch.setenv(WORKERS_ENV, raw)
        with pytest.raises(ParameterError, match="workers"):
            RuntimeConfig.from_env()


def test_from_env_rejects_unknown_backend(monkeypatch):
    monkeypatch.setenv(BACKEND_ENV, "cuda")
    with pytest.raises(ParameterError, match=BACKEND_ENV):
        RuntimeConfig.from_env()


def test_from_env_accepts_every_known_backend(monkeypatch):
    from repro.runtime import known_backends

    for name in known_backends():
        monkeypatch.setenv(BACKEND_ENV, name)
        assert RuntimeConfig.from_env().backend == name


def test_set_and_use_runtime():
    original = get_runtime_config()
    scoped = RuntimeConfig(workers=2)
    with use_runtime(scoped):
        assert get_runtime_config() == scoped
    assert get_runtime_config() == original
    previous = set_runtime_config(scoped)
    try:
        assert previous == original
        assert get_runtime_config() == scoped
    finally:
        set_runtime_config(original)
