"""Span tracing of swapqkd from outside the package.

The package binds many names directly (``protocol.round_stream``,
``analysis.run_session``, ``cli.run_session``), so a function is wrapped at
every module attribute that holds it, and a method on its class. Wrappers
exist only between ``install`` and ``uninstall``: untraced passes run the
original code.

Each wrapped call records one span (name, start, end, parent) in flat
arrays; self time is a span's duration minus its children's.
"""

from __future__ import annotations

import functools
import gc
import inspect
import statistics
import sys
import time
from array import array
from collections import Counter

LAYERS = (
    "bell", "knowledge", "rng", "protocol", "adversary",
    "analysis", "transcript", "cli", "oracle", "verify",
)


def _public_methods(cls) -> list[str]:
    return [
        name for name, value in vars(cls).items()
        if inspect.isfunction(value) and (name == "__init__" or not name.startswith("_"))
    ]


def _module_api(module) -> list[str]:
    """Public functions and public-class methods defined in `module`."""
    paths = []
    for name, value in vars(module).items():
        if name.startswith("_") or getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value):
            paths.append(name)
        elif inspect.isclass(value) and not issubclass(value, BaseException):
            paths.extend(f"{name}.{m}" for m in _public_methods(value))
    return paths


def targets(pkg) -> list[tuple[str, object, str]]:
    """(span name, owning module, dotted attribute) for every traced call.

    Span names are ``<layer>.<function>``; the adversary and knowledge
    layers are traced as a whole, every public function and method.
    """
    m = {layer: sys.modules[f"{pkg.__name__}.{layer}"] for layer in LAYERS}
    spans = [
        ("bell.bsm", m["bell"], "PairTable.bsm"),
        ("bell.apply_pauli", m["bell"], "PairTable.apply_pauli"),
        ("rng.round_stream", m["rng"], "round_stream"),
        ("rng.session_seeds", m["rng"], "session_seeds"),
        ("protocol.session_init", m["protocol"], "Session.__init__"),
        ("protocol.run_round", m["protocol"], "Session.run_round"),
        ("protocol.reset_round", m["protocol"], "Session.reset_round"),
        ("protocol.run_session", m["protocol"], "run_session"),
        ("analysis.eavesdropping_test", m["analysis"], "eavesdropping_test"),
        ("analysis.rate_report", m["analysis"], "rate_report"),
        ("analysis.estimate_detection", m["analysis"], "estimate_detection"),
        ("transcript.emit_lines", m["transcript"], "emit_lines"),
        ("transcript.parse_lines", m["transcript"], "parse_lines"),
        ("cli.main", m["cli"], "main"),
        ("oracle.prepare", m["oracle"], "prepare"),
        ("oracle.oracle_bsm", m["oracle"], "oracle_bsm"),
        ("oracle.oracle_apply_pauli", m["oracle"], "oracle_apply_pauli"),
        ("oracle.bell_label_of", m["oracle"], "bell_label_of"),
        ("verify.run_all", m["verify"], "run_all"),
    ]
    for layer in ("adversary", "knowledge"):
        spans += [(f"{layer}.{p}", m[layer], p) for p in _module_api(m[layer])]
    return spans


def _resolve(module, dotted: str):
    owner = module
    *path, attr = dotted.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


class Tracer:
    """Collects spans and counts while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- wrapping ------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        nid = len(self.names)
        self.names.append(name)
        name_of, parent, start, end = self.name_of, self.parent, self.start, self.end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                start[i] = t0
                stack.pop()
            if after is not None:
                after(result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def _patch_everywhere(self, pkg, original, wrapper) -> int:
        """Replace `original` at every package module attribute bound to it."""
        sites = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != pkg.__name__ and not mod_name.startswith(pkg.__name__ + "."):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrapper)
                    sites += 1
        return sites

    def install(self, pkg) -> None:
        """Wrap every traced call of the imported package `pkg`."""
        bell = sys.modules[f"{pkg.__name__}.bell"]
        rng = sys.modules[f"{pkg.__name__}.rng"]
        self._partners = bell.PairTable.are_partners
        hooks = {
            "bell.bsm": (self._classify_bsm, None),
            "transcript.emit_lines": (None, self._measure_emit),
        }
        for name, module, dotted in targets(pkg):
            owner, attr = _resolve(module, dotted)
            original = vars(owner)[attr]
            wrapper = self._span(name, original, *hooks.get(name, (None, None)))
            if inspect.isclass(owner):
                self._patched.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            elif self._patch_everywhere(pkg, original, wrapper) == 0:
                raise RuntimeError(f"no import site found for {name}")
        # every Generator the package builds goes through rng.stream
        self._patch_everywhere(pkg, rng.stream, self._count("rng.streams", rng.stream))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _classify_bsm(self, args, kwargs) -> None:
        table, a, b, *rest = args
        if self._partners(table, a, b):
            self.counts["bell.bsm.readouts"] += 1
            return
        self.counts["bell.bsm.swaps"] += 1
        force = rest[1] if len(rest) > 1 else kwargs.get("force")
        if force is None:
            self.counts["rng.draws"] += 1

    def _measure_emit(self, lines) -> None:
        self.counts["transcript.emit_bytes"] += sum(len(line) + 1 for line in lines)
        self.counts["transcript.emit_rounds"] += max(len(lines) - 2, 0)

    # -- results -------------------------------------------------------------

    def summary(self, timed: str) -> tuple[Counter, Counter, list[float]]:
        """(calls per span name, self seconds per name, durations of `timed`)."""
        n = len(self.start)
        child = array("d", bytes(8 * n))
        calls: Counter[str] = Counter()
        self_s: Counter[str] = Counter()
        names, name_of, parent, start, end = self.names, self.name_of, self.parent, self.start, self.end
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        timed_ids = {nid for nid, name in enumerate(names) if name == timed}
        durations = []
        for i in range(n):
            nid = name_of[i]
            d = end[i] - start[i]
            calls[names[nid]] += 1
            self_s[names[nid]] += d - child[i]
            if nid in timed_ids:
                durations.append(d)
        return calls, self_s, durations


class GcClock:
    """Collector time and collections, from ``gc.callbacks``."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self._t0 = 0.0

    def _callback(self, phase, info) -> None:
        if phase == "start":
            self._t0 = time.perf_counter()
        else:
            self.seconds += time.perf_counter() - self._t0
            self.collections += 1

    def __enter__(self):
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc):
        gc.callbacks.remove(self._callback)


def percentile_us(samples: list[float], q: int) -> float:
    """q-th percentile of durations in seconds, in microseconds."""
    if len(samples) < 2:
        return samples[0] * 1e6 if samples else 0.0
    return statistics.quantiles(samples, n=100, method="inclusive")[q - 1] * 1e6
