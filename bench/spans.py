"""Span recorder for the benchmark's traced run.

Wrappers are installed around the public functions of each trlinksim
layer, in every module namespace that binds them, because the modules
look each other's functions up in different ways: ``experiments``
imports ``compute_sinr``, ``propagate``, ``precode`` and the detector
functions by name, ``compute_sinr`` reaches ``effective_response``,
``full_rate_response`` and ``link_filter`` through ``linksim`` globals,
and ``cli`` reaches ``chanmodel.*`` and ``experiments.sweep`` through
module attributes. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import hashlib
import inspect
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Callable

# Public functions timed in the traced run, as "module.function".
TRACED = (
    "cli.main",
    "cli.parse_config",
    "cli.realize_channels",
    "cli.write_sweep_csv",
    "chanmodel.synth_reverberant",
    "chanmodel.read_cir_csv",
    "experiments.sweep",
    "experiments.run_trial",
    "sigchain.modulate_ask",
    "sigchain.precode",
    "sigchain.scale_to_power",
    "linksim.propagate",
    "linksim.compute_sinr",
    "linksim.effective_response",
    "linksim.full_rate_response",
    "linksim.link_filter",
    "detector.train_threshold",
    "detector.demodulate",
    "detector.count_errors",
)

BOOKKEEPING = "trace.bookkeeping"


def _digest(*parts: Any) -> str:
    h = hashlib.sha1()
    for part in parts:
        h.update(part.tobytes() if hasattr(part, "tobytes") else repr(part).encode())
    return h.hexdigest()


# Input identity per call, for distinct-input ratios.
_KEYS: dict[str, Callable[[dict, Any], Any]] = {
    "chanmodel.synth_reverberant": lambda a, r: (a["seed"], a["params"]),
    "chanmodel.read_cir_csv": lambda a, r: str(a["path"]),
    "linksim.full_rate_response": lambda a, r: _digest(
        a["tx_filter"].samples, a["channel"].samples, a["params"]
    ),
}

# Work done per call, as (counter name, amount).
_AMOUNTS: dict[str, tuple[str, Callable[[dict, Any], int]]] = {
    "cli.write_sweep_csv": ("bytes", lambda a, r: os.path.getsize(a["path"])),
    "sigchain.precode": ("samples_out", lambda a, r: r.samples.size),
    "linksim.propagate": ("samples_out", lambda a, r: sum(w.samples.size for w in r.values())),
}


@dataclass
class Span:
    name: str
    parent: int  # index into Recorder.spans, -1 for a root span
    start_ns: int
    end_ns: int = 0

    @property
    def duration_ns(self) -> int:
        return self.end_ns - self.start_ns


@dataclass
class Recorder:
    """In-memory spans plus per-name input keys and work counters."""

    spans: list[Span] = field(default_factory=list)
    keys: dict[str, set] = field(default_factory=lambda: defaultdict(set))
    amounts: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    _stack: list[int] = field(default_factory=list)

    def wrap(self, name: str, fn: Callable) -> Callable:
        key_of = _KEYS.get(name)
        amount = _AMOUNTS.get(name)
        signature = inspect.signature(fn) if key_of or amount else None

        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            index = len(self.spans)
            span = Span(name, parent, time.perf_counter_ns())
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end_ns = time.perf_counter_ns()
                self._stack.pop()
            if signature is not None:
                bound = signature.bind(*args, **kwargs).arguments
                if key_of:
                    self.keys[name].add(key_of(bound, result))
                if amount:
                    self.amounts[f"{name}.{amount[0]}"] += amount[1](bound, result)
                # Keep bookkeeping out of the caller's self time.
                self.spans.append(Span(BOOKKEEPING, parent, span.end_ns, time.perf_counter_ns()))
            return result

        traced.__wrapped__ = fn
        return traced


def self_times(spans: list[Span]) -> dict[str, float]:
    """Seconds per span name of span time minus the time of its child spans."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.duration_ns
    out: dict[str, float] = defaultdict(float)
    for span, children in zip(spans, child_ns):
        out[span.name] += (span.duration_ns - children) / 1e9
    return dict(out)


def call_counts(spans: list[Span]) -> dict[str, int]:
    out: dict[str, int] = defaultdict(int)
    for span in spans:
        out[span.name] += 1
    return dict(out)


def durations(spans: list[Span], name: str) -> list[float]:
    return [s.duration_ns / 1e9 for s in spans if s.name == name]


class Installed:
    """Wrappers bound in every trlinksim namespace; ``restore`` puts the originals back."""

    def __init__(self, recorder: Recorder, package: str = "trlinksim") -> None:
        modules = [m for n, m in sys.modules.items() if n == package or n.startswith(package + ".")]
        self._patched: list[tuple[Any, str, Callable]] = []
        for dotted in TRACED:
            module_name, fn_name = dotted.split(".")
            original = getattr(sys.modules[f"{package}.{module_name}"], fn_name)
            wrapper = recorder.wrap(dotted, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, original))

    def restore(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def __enter__(self) -> "Installed":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
