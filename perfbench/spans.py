"""Span tracing from outside the package: timing wrappers, self time, percentiles.

A traced pass swaps module attributes of the `styleswap` package for timing
wrappers, then restores them. Every wrapped call records one span (name,
start, end, parent) into flat in-memory arrays; nothing is written until the
run ends. A name that other modules bound with `from .x import y` is the
same function object, so every binding of it is swapped for the same
wrapper and its span carries the defining module's name.

Untraced passes run with the package untouched.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from array import array
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

PACKAGE = "styleswap"
# `config` does no measurable work, so it is not a layer.
LAYERS = ("cli", "data", "store", "model", "autograd", "training", "decoding", "metrics")

# Hook failures that mean a wrapped function changed shape at some commit;
# the dependent metrics are then reported absent rather than crashing the run.
HOOK_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError, OSError)


class Tracer:
    """In-memory span store plus counters and samples taken at span boundaries."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = [-1]
        self.counters: Counter = Counter()
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.absent: list[str] = []
        self.hook_errors: Counter = Counter()

    def intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(self.intern(name))
        try:
            yield idx
        finally:
            self.close(idx)

    def parent_name(self, idx: int) -> str | None:
        p = self.parent[idx]
        return self.names[self.name[p]] if p >= 0 else None

    def duration(self, idx: int) -> float:
        return self.end[idx] - self.start[idx]

    def freeze(self) -> "Spans":
        return Spans(list(self.names), np.frombuffer(self.name, dtype=np.int32).copy(),
                     np.frombuffer(self.start, dtype=np.float64).copy(),
                     np.frombuffer(self.end, dtype=np.float64).copy(),
                     np.frombuffer(self.parent, dtype=np.int32).copy())


@dataclass
class Spans:
    """Immutable column view of recorded spans; parents precede children."""

    names: list[str]
    name: np.ndarray
    start: np.ndarray
    end: np.ndarray
    parent: np.ndarray

    @property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    def self_time(self) -> np.ndarray:
        """Span time minus the time its child spans cover.

        Spans come from one thread and nest properly, so children never
        overlap and the covered time is the sum of their durations.
        """
        dur = self.duration
        covered = np.zeros_like(dur)
        has_parent = self.parent >= 0
        np.add.at(covered, self.parent[has_parent], dur[has_parent])
        return dur - covered

    def is_named(self, *names: str) -> np.ndarray:
        ids = [self.names.index(n) for n in names if n in self.names]
        return np.isin(self.name, ids)

    def child_of(self, *names: str) -> np.ndarray:
        target = self.is_named(*names)
        has_parent = self.parent >= 0
        out = np.zeros(len(self.name), dtype=bool)
        out[has_parent] = target[self.parent[has_parent]]
        return out

    def under(self, *names: str) -> np.ndarray:
        """True where some ancestor span has one of `names`."""
        target = self.is_named(*names)
        out = np.zeros(len(self.name), dtype=bool)
        hop = self.parent.copy()
        while True:
            live = hop >= 0
            if not live.any():
                return out
            out[live] |= target[hop[live]]
            hop[live] = self.parent[hop[live]]

    def save(self, path: Path) -> None:
        np.savez(path, names=np.asarray(self.names), name=self.name, start=self.start,
                 end=self.end, parent=self.parent)


# ---------------------------------------------------------------------------
# percentiles


TAIL_LADDER = (99.9, 99.0, 90.0)


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least ten samples beyond it; else 50."""
    for pct in TAIL_LADDER:
        if n * (100.0 - pct) / 100.0 >= 10.0 - 1e-9:
            return pct
    return 50.0


def timing_summary(samples_ms) -> dict[str, float]:
    """Median, the tail percentile chosen for the sample count, and the count."""
    values = np.asarray(samples_ms, dtype=np.float64)
    if values.size == 0:
        return {"p50": 0.0, "tail": 0.0, "tail_pct": 0.0, "n": 0}
    pct = tail_percentile(values.size)
    return {"p50": float(np.percentile(values, 50)), "tail": float(np.percentile(values, pct)),
            "tail_pct": pct, "n": int(values.size)}


# ---------------------------------------------------------------------------
# wrapping


def _run_post(tracer, name, post, idx, args, kwargs, result):
    try:
        post(tracer, idx, args, kwargs, result)
    except HOOK_ERRORS:
        tracer.hook_errors[name] += 1


def timed(tracer: Tracer, name: str, fn, pre=None, post=None):
    """Wrap `fn` so every call records a span; `pre` may rewrite the arguments."""
    nid = tracer.intern(name)
    open_, close = tracer.open, tracer.close

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if pre is not None:
            try:
                args, kwargs = pre(tracer, args, kwargs)
            except HOOK_ERRORS:
                tracer.hook_errors[name] += 1
        idx = open_(nid)
        try:
            result = fn(*args, **kwargs)
        finally:
            close(idx)
        if post is not None:
            _run_post(tracer, name, post, idx, args, kwargs, result)
        return result

    return wrapper


def timed_iteration(tracer: Tracer, name: str, fn):
    """Wrap a generator function so that each `next()` on its result is a span."""
    nid = tracer.intern(name)

    def iterate(it):
        while True:
            idx = tracer.open(nid)
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.close(idx)
            yield item

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return iterate(fn(*args, **kwargs))

    return wrapper


def package_modules() -> list:
    return [mod for name, mod in list(sys.modules.items())
            if mod is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def public_functions(layer: str) -> list[str]:
    """`layer.func` for each public function the layer module defines."""
    mod = importlib.import_module(f"{PACKAGE}.{layer}")
    return sorted(f"{layer}.{n}" for n, f in vars(mod).items()
                  if inspect.isfunction(f) and f.__module__ == mod.__name__
                  and not n.startswith("_"))


def resolve(qualname: str):
    """(owner, attribute, object) for `layer.name[.method]`, or None if missing."""
    layer, _, rest = qualname.partition(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{layer}")
    except ImportError:
        return None
    parts = rest.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if inspect.isclass(owner):
        obj = vars(owner).get(parts[-1])  # a method the class itself defines
    else:
        obj = getattr(owner, parts[-1], None)
    if obj is None or not callable(obj):
        return None
    return owner, parts[-1], obj


@contextmanager
def patched(tracer: Tracer, required, special):
    """Swap every layer's public functions plus `required` names for wrappers.

    `special` maps a qualified name to a factory `(tracer, name, fn) -> wrapper`
    that replaces the plain timing wrapper. Required names missing at this
    commit are recorded in `tracer.absent` and skipped.
    """
    targets = set(required)
    for layer in LAYERS:
        try:
            targets.update(public_functions(layer))
        except ImportError:
            continue
    modules = package_modules()
    undo = []
    try:
        for qualname in sorted(targets):
            found = resolve(qualname)
            if found is None:
                if qualname not in tracer.absent:
                    tracer.absent.append(qualname)
                continue
            owner, attr, fn = found
            factory = special.get(qualname, timed)
            wrapper = factory(tracer, qualname, fn)
            if inspect.isclass(owner):
                undo.append((owner, attr, vars(owner)[attr]))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        yield
    finally:
        for owner, attr, value in reversed(undo):
            setattr(owner, attr, value)
