"""Outside-in layer tracer for the perf ledger.

The program under test is not edited and its own telemetry is not read.
Instead the public callables in :data:`TARGETS` are wrapped by
``setattr`` on their module or class for the duration of the traced
pass.  Every call becomes a span ``[name, parent, start, end, note]``
kept in memory; the parent link comes from a ``ContextVar``, which
behaves as a per-thread stack for the executor thread served rounds run
in and as a per-task stack for the one ``async`` target
(``AdmissionController.admit``), whose awaits interleave on the event
loop thread.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover, so self times over one root add up to
the root's duration — :func:`layer_table` checks that they do.

``core.system.setup`` is *opaque*: spans opened beneath it are dropped,
so its self time is the whole of genesis and the ring products genesis
performs are not mixed into the per-query ``ring_multiply`` numbers.
"""

from __future__ import annotations

import contextvars
import functools
import importlib
import inspect
import sys
import time
from typing import Callable, NamedTuple


class TraceError(Exception):
    """The tracer could not wrap a target, or a layer the workload is
    expected to exercise recorded no call."""


class Target(NamedTuple):
    span: str
    module: str
    owner: str | None  # class inside ``module``; None = module-level function
    attr: str


TARGETS: tuple[Target, ...] = (
    Target("core.system.setup", "repro.core.system", "MyceliumSystem", "setup"),
    Target("core.system.run_query", "repro.core.system", "MyceliumSystem", "run_query"),
    Target("query.compile", "repro.query.compiler", None, "compile_query"),
    Target("engine.encrypted.run", "repro.engine.encrypted", "EncryptedExecutor", "run"),
    Target("core.transport.run", "repro.core.transport", "MixnetTransport", "run"),
    Target("core.aggregator.aggregate", "repro.core.aggregator", "QueryAggregator", "aggregate"),
    Target("core.aggregator.verify_submission", "repro.core.aggregator", "QueryAggregator", "verify_submission"),
    Target("core.committee.threshold_decrypt", "repro.core.committee", None, "threshold_decrypt"),
    Target("core.committee.committee_noise", "repro.core.committee", None, "committee_noise"),
    Target("crypto.bgv.encrypt", "repro.crypto.bgv", None, "encrypt"),
    Target("crypto.bgv.multiply", "repro.crypto.bgv", None, "multiply"),
    Target("crypto.bgv.relinearize", "repro.crypto.bgv", None, "relinearize"),
    Target("crypto.bgv.add", "repro.crypto.bgv", None, "add"),
    Target("crypto.zksnark.prove", "repro.crypto.zksnark", "Groth16System", "prove"),
    Target("crypto.zksnark.verify", "repro.crypto.zksnark", "Groth16System", "verify"),
    Target("runtime.backends.ring_multiply", "repro.runtime.backends", None, "ring_multiply"),
    Target("runtime.backends.fold_multiply_accumulate", "repro.runtime.backends", None, "fold_multiply_accumulate"),
    Target("runtime.fabric.map", "repro.runtime.fabric", "TaskFabric", "map"),
    Target("mixnet.telescope.setup_paths", "repro.mixnet.telescope", "TelescopeDriver", "setup_paths"),
    Target("mixnet.forwarding.send_batch", "repro.mixnet.forwarding", "ForwardingDriver", "send_batch"),
    Target("mixnet.network.run_round", "repro.mixnet.network", "MixnetWorld", "run_round"),
    Target("mixnet.onion.wrap", "repro.mixnet.onion", None, "wrap"),
    Target("mixnet.onion.peel", "repro.mixnet.onion", None, "peel"),
    Target("crypto.aead.senc", "repro.crypto.aead", None, "senc"),
    Target("crypto.aead.ae_seal", "repro.crypto.aead", None, "ae_seal"),
    Target("crypto.aead.ae_open", "repro.crypto.aead", None, "ae_open"),
    Target("crypto.chacha20.chacha20_xor", "repro.crypto.chacha20", None, "chacha20_xor"),
    Target("crypto.rsa.encrypt", "repro.crypto.rsa", None, "encrypt"),
    Target("crypto.rsa.decrypt", "repro.crypto.rsa", None, "decrypt"),
    Target("durability.campaign.run", "repro.durability.campaign", "CampaignRunner", "run"),
    Target("durability.journal.append", "repro.durability.journal", "Journal", "append"),
    Target("service.admission.admit", "repro.service.admission", "AdmissionController", "admit"),
    Target("service.protocol.encode_frame", "repro.service.protocol", None, "encode_frame"),
    Target("service.protocol.decode_body", "repro.service.protocol", None, "decode_body"),
    Target("dp.budget.charge", "repro.dp.budget", "PrivacyBudget", "charge"),
)

SPAN_NAMES: tuple[str, ...] = tuple(t.span for t in TARGETS)

#: Spans whose subtree is dropped (see the module docstring).
OPAQUE: frozenset[str] = frozenset({"core.system.setup"})

# Span fields.
NAME, PARENT, START, END, NOTE = range(5)


class Tracer:
    """Wraps :data:`TARGETS` while installed and collects their spans.

    ``observers`` maps a span name to ``fn(args, result)``; its return
    value is stored as the span's note after the span has closed, so the
    observer's own cost never lands inside the span it annotates.
    """

    def __init__(
        self,
        targets: tuple[Target, ...] = TARGETS,
        observers: dict[str, Callable] | None = None,
    ):
        self.targets = targets
        self.observers = observers or {}
        self.spans: list[list] = []
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perf_trace_span", default=None
        )
        self._undo: list[tuple[object, str, object]] = []

    # -- wrapping --------------------------------------------------------------

    def _wrap(self, name: str, fn: Callable) -> Callable:
        current = self._current
        spans = self.spans
        clock = time.perf_counter
        observe = self.observers.get(name)

        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def traced_async(*args, **kwargs):
                span = [name, current.get(), clock(), 0.0, None]
                token = current.set(span)
                try:
                    return await fn(*args, **kwargs)
                finally:
                    span[END] = clock()
                    current.reset(token)
                    spans.append(span)

            return traced_async

        if observe is None:

            @functools.wraps(fn)
            def traced(*args, **kwargs):
                span = [name, current.get(), clock(), 0.0, None]
                token = current.set(span)
                try:
                    return fn(*args, **kwargs)
                finally:
                    span[END] = clock()
                    current.reset(token)
                    spans.append(span)

            return traced

        @functools.wraps(fn)
        def traced_observed(*args, **kwargs):
            span = [name, current.get(), clock(), 0.0, None]
            token = current.set(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                current.reset(token)
                spans.append(span)
            span[NOTE] = observe(args, result)
            return result

        return traced_observed

    def _set(self, holder: object, attr: str, value: object) -> None:
        self._undo.append((holder, attr, inspect.getattr_static(holder, attr)))
        setattr(holder, attr, value)

    def install(self) -> None:
        """Wrap every target; a target that does not resolve is a hard
        :class:`TraceError` naming it, never a silent zero."""
        by_name_imports: dict[int, Callable] = {}
        for target in self.targets:
            label = f"{target.span} -> {target.module}:" + (
                f"{target.owner}.{target.attr}" if target.owner else target.attr
            )
            try:
                module = importlib.import_module(target.module)
                holder = getattr(module, target.owner) if target.owner else module
                raw = inspect.getattr_static(holder, target.attr)
            except (ImportError, AttributeError) as exc:
                self.uninstall()
                raise TraceError(f"cannot wrap {label}: {exc}") from exc
            if isinstance(raw, (classmethod, staticmethod)):
                wrapped = type(raw)(self._wrap(target.span, raw.__func__))
            elif callable(raw):
                wrapped = self._wrap(target.span, raw)
                if target.owner is None:
                    by_name_imports[id(raw)] = wrapped
            else:
                self.uninstall()
                raise TraceError(f"cannot wrap {label}: not callable")
            self._set(holder, target.attr, wrapped)
        # ``from module import function`` copies made before install.
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                wrapped = by_name_imports.get(id(value))
                if wrapped is not None:
                    self._set(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._undo:
            holder, attr, original = self._undo.pop()
            setattr(holder, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc: object) -> None:
        self.uninstall()

    def drain(self) -> list[list]:
        """The spans finished so far; the tracer starts over empty."""
        finished = list(self.spans)
        del self.spans[: len(finished)]
        return finished


# -- analysis --------------------------------------------------------------------


def visible_spans(spans: list[list], opaque: frozenset[str] = OPAQUE) -> list[list]:
    """``spans`` without those that have an opaque ancestor."""
    hidden: dict[int, bool] = {}

    def is_hidden(span: list) -> bool:
        chain = []
        node = span
        while True:
            key = id(node)
            if key in hidden:
                verdict = hidden[key]
                break
            parent = node[PARENT]
            if parent is None:
                verdict = False
                hidden[key] = verdict
                break
            if parent[NAME] in opaque:
                verdict = True
                hidden[key] = verdict
                break
            chain.append(key)
            node = parent
        for key in chain:
            hidden[key] = verdict
        return verdict

    return [span for span in spans if not is_hidden(span)]


def covered(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo = max(lo, cursor)
        hi = min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_times(spans: list[list]) -> list[float]:
    """Self time of each span, in the order given: duration minus the
    part of it covered by its direct children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[PARENT]
        if parent is not None:
            children.setdefault(id(parent), []).append((span[START], span[END]))
    return [
        (span[END] - span[START])
        - covered(span[START], span[END], children.get(id(span), ()))
        for span in spans
    ]


def layer_table(spans: list[list], tolerance: float = 0.02) -> dict[str, dict]:
    """Per span name: ``calls``, ``self_s`` and inclusive ``total_s``
    summed over ``spans``.

    Raises :class:`TraceError` when self times do not add up to the root
    spans' durations within ``tolerance`` — the bookkeeping check that an
    unclosed or mis-parented span would trip.
    """
    spans = visible_spans(spans)
    table: dict[str, dict] = {}
    root_total = 0.0
    self_total = 0.0
    for span, self_s in zip(spans, self_times(spans)):
        row = table.setdefault(
            span[NAME], {"calls": 0, "self_s": 0.0, "total_s": 0.0}
        )
        row["calls"] += 1
        row["self_s"] += self_s
        row["total_s"] += span[END] - span[START]
        self_total += self_s
        if span[PARENT] is None:
            root_total += span[END] - span[START]
    if abs(self_total - root_total) > tolerance * root_total:
        raise TraceError(
            f"self times sum to {self_total:.6f}s but root spans to "
            f"{root_total:.6f}s (tolerance {tolerance:.0%})"
        )
    return table


def roots(spans: list[list], name: str) -> list[list]:
    """Root spans called ``name``, in start order."""
    return sorted(
        (s for s in spans if s[PARENT] is None and s[NAME] == name),
        key=lambda s: s[START],
    )


def notes(spans: list[list], name: str) -> list:
    """Observer notes of the visible spans called ``name``."""
    return [
        s[NOTE]
        for s in visible_spans(spans)
        if s[NAME] == name and s[NOTE] is not None
    ]


def require_calls(table: dict[str, dict], expected: frozenset[str], workload: str) -> None:
    """A layer this workload is expected to move recorded nothing:
    the wrap missed (renamed callable, by-name import) — fail loudly."""
    silent = sorted(name for name in expected if not table.get(name, {}).get("calls"))
    if silent:
        raise TraceError(
            f"{workload}: expected calls but recorded none for: "
            + ", ".join(silent)
        )
