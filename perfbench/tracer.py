"""Span recording from outside the program.

The benchmark never edits ``src/``.  It replaces public functions and
methods with thin wrappers that record one span per call: name, start,
end, parent span and request id.  Spans live in per-thread ``array``
buffers (about 40 bytes a span) and are written out once, when the run
ends, as one ``.npz`` file per process.

A layer's *self time* is its span's duration minus the part of that
interval its child spans cover (:func:`self_times`).  Calls nest, so the
children of one span, all on the span's own thread, never overlap and
their coverage is the sum of their clipped durations.
"""

from __future__ import annotations

import array
import dataclasses
import functools
import importlib
import json
import os
import sys
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

import numpy as np

#: Span ids pack the recording thread's buffer number above its position.
_POSITION_BITS = 40


class _Buffer:
    """One thread's spans, as parallel arrays."""

    __slots__ = ("base", "starts", "ends", "names", "parents", "requests",
                 "stack", "request")

    def __init__(self, number: int) -> None:
        self.base = number << _POSITION_BITS
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.names = array.array("i")
        self.parents = array.array("q")
        self.requests = array.array("i")
        self.stack: List[int] = []
        self.request = 0


class Tracer:
    """Collects spans from wrapped callables in one process.

    ``install`` swaps a wrapper in for every module binding and class
    attribute that holds the original, and ``uninstall`` puts the
    originals back.  Request ids are per thread: ``set_request`` tags
    every span the calling thread opens from then on.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: List[_Buffer] = []
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.requests: List[str] = [""]
        self._request_ids: Dict[str, int] = {"": 0}
        self.counters: Dict[str, float] = {}
        self.errors: Dict[str, int] = {}
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- recording ---------------------------------------------------------

    def _buffer(self) -> _Buffer:
        try:
            return self._local.buffer
        except AttributeError:
            with self._lock:
                buffer = _Buffer(len(self._buffers))
                self._buffers.append(buffer)
            self._local.buffer = buffer
            return buffer

    def name_id(self, name: str) -> int:
        """The integer id spans of ``name`` are stored under."""
        with self._lock:
            if name not in self._name_ids:
                self._name_ids[name] = len(self.names)
                self.names.append(name)
            return self._name_ids[name]

    def set_request(self, request: str) -> None:
        """Tag the calling thread's next spans with ``request``."""
        with self._lock:
            if request not in self._request_ids:
                self._request_ids[request] = len(self.requests)
                self.requests.append(request)
            rid = self._request_ids[request]
        self._buffer().request = rid

    def count(self, name: str, amount: float = 1) -> None:
        """Add ``amount`` to a named counter."""
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, name: str, fn: Callable,
             after: Optional[Callable] = None) -> Callable:
        """A span-recording wrapper around ``fn``.

        ``after(tracer, args, kwargs, result)`` runs once the call
        returns, to read counts off the call (batch sizes, bytes
        written).  A raised exception is counted under ``name`` in
        :attr:`errors` and re-raised.
        """
        nid = self.name_id(name)
        perf = time.perf_counter
        get_buffer = self._buffer

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            buffer = get_buffer()
            stack = buffer.stack
            position = len(buffer.starts)
            buffer.names.append(nid)
            buffer.parents.append(stack[-1] if stack else -1)
            buffer.requests.append(buffer.request)
            buffer.ends.append(0.0)
            stack.append(buffer.base + position)
            buffer.starts.append(perf())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.errors[name] = self.errors.get(name, 0) + 1
                raise
            finally:
                buffer.ends[position] = perf()
                stack.pop()
            if after is not None:
                after(self, args, kwargs, result)
            return result

        traced.__wrapped_by_tracer__ = True
        return traced

    # -- installation ------------------------------------------------------

    def install(self, target: str, name: str,
                after: Optional[Callable] = None) -> None:
        """Wrap ``"package.module:Attr"`` or ``"package.module:Class.attr"``.

        A module-level function is replaced in every loaded module that
        imported it by name, so ``from x import f`` call sites are traced
        too.  A method is replaced on its class only.
        """
        module_name, _, path = target.partition(":")
        owner: Any = importlib.import_module(module_name)
        parts = path.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        attr = parts[-1]
        original = getattr(owner, attr)
        if getattr(original, "__wrapped_by_tracer__", False):
            raise RuntimeError(f"{target} is already traced")
        wrapper = self.wrap(name, original, after)
        if isinstance(owner, type):
            self._installed.append((owner, attr, owner.__dict__.get(attr)))
            setattr(owner, attr, wrapper)
            return
        for module in list(sys.modules.values()):
            namespace = getattr(module, "__dict__", None)
            if namespace is None:
                continue
            for key, value in list(namespace.items()):
                if value is original:
                    self._installed.append((module, key, original))
                    setattr(module, key, wrapper)

    def uninstall(self) -> None:
        """Restore every original the tracer replaced."""
        for owner, attr, original in reversed(self._installed):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._installed.clear()

    def reset(self) -> None:
        """Drop every recorded span and counter (a forked worker's copy
        of its parent's)."""
        self.take()
        with self._lock:
            self.counters, self.errors = {}, {}

    # -- output ------------------------------------------------------------

    def take(self) -> Dict[str, np.ndarray]:
        """Move the spans of every thread with no open span out of the
        buffers, as arrays; a thread inside a wrapped call is skipped."""
        parts: Dict[str, List[np.ndarray]] = {
            key: [] for key in ("id", "start", "end", "name", "parent",
                                "request")
        }
        with self._lock:
            buffers = list(self._buffers)
        for buffer in buffers:
            keep = len(buffer.starts)
            if buffer.stack or keep == 0:
                continue
            parts["id"].append(buffer.base + np.arange(keep, dtype=np.int64))
            parts["start"].append(np.frombuffer(buffer.starts, "d")[:keep].copy())
            parts["end"].append(np.frombuffer(buffer.ends, "d")[:keep].copy())
            parts["name"].append(np.frombuffer(buffer.names, "i")[:keep].copy())
            parts["parent"].append(
                np.frombuffer(buffer.parents, "q")[:keep].copy())
            parts["request"].append(
                np.frombuffer(buffer.requests, "i")[:keep].copy())
            for field in ("starts", "ends", "names", "parents", "requests"):
                del getattr(buffer, field)[:keep]
            buffer.base += keep
        return {
            key: np.concatenate(chunks) if chunks else np.zeros(
                0, np.float64 if key in ("start", "end") else np.int64)
            for key, chunks in parts.items()
        }

    def dump(self, path: str) -> None:
        """Move the finished spans and the counters to ``path`` (.npz)."""
        spans = self.take()
        with self._lock:
            meta = {
                "pid": os.getpid(),
                "names": list(self.names),
                "requests": list(self.requests),
                "counters": self.counters,
                "errors": self.errors,
            }
            self.counters, self.errors = {}, {}
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = f"{path}.tmp.npz"
        np.savez(tmp, meta=np.array(json.dumps(meta)), **spans)
        os.replace(tmp, path)


# -- reading and summarising -------------------------------------------------


@dataclasses.dataclass
class Spans:
    """Spans of one or more processes, one array per field, with the
    name and request tables their integer ids index."""

    start: np.ndarray
    end: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    request: np.ndarray
    process: np.ndarray
    span_id: np.ndarray
    names: List[str]
    requests: List[str]
    counters: Dict[str, float]
    errors: Dict[str, int]

    def __len__(self) -> int:
        return len(self.start)


def load(paths: List[str]) -> Spans:
    """Merge span files into one table with shared name/request ids."""
    names: Dict[str, int] = {}
    requests: Dict[str, int] = {"": 0}
    counters: Dict[str, float] = {}
    errors: Dict[str, int] = {}
    columns: Dict[str, List[np.ndarray]] = {
        key: [] for key in ("start", "end", "name", "parent", "request",
                            "process", "id")
    }
    for process, path in enumerate(sorted(paths)):
        with np.load(path) as data:
            meta = json.loads(str(data["meta"]))
            name_map = np.array(
                [names.setdefault(n, len(names)) for n in meta["names"]]
                or [0], dtype=np.int64)
            request_map = np.array(
                [requests.setdefault(r, len(requests))
                 for r in meta["requests"]], dtype=np.int64)
            columns["start"].append(data["start"])
            columns["end"].append(data["end"])
            columns["name"].append(name_map[data["name"]])
            columns["parent"].append(data["parent"])
            columns["request"].append(request_map[data["request"]])
            columns["id"].append(data["id"])
            columns["process"].append(
                np.full(len(data["start"]), process, dtype=np.int64))
        for key, value in meta["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for key, value in meta["errors"].items():
            errors[key] = errors.get(key, 0) + value

    def cat(key, dtype):
        chunks = columns[key]
        return np.concatenate(chunks) if chunks else np.zeros(0, dtype)

    return Spans(
        start=cat("start", np.float64), end=cat("end", np.float64),
        name=cat("name", np.int64), parent=cat("parent", np.int64),
        request=cat("request", np.int64), process=cat("process", np.int64),
        span_id=cat("id", np.int64),
        names=sorted(names, key=names.get),
        requests=sorted(requests, key=requests.get),
        counters=counters, errors=errors,
    )


def parent_index(spans: Spans) -> np.ndarray:
    """Row of each span's parent in ``spans`` (-1 for a root)."""
    out = np.full(len(spans), -1, dtype=np.int64)
    if len(spans) == 0:
        return out
    # Key every span by (process, id) so parents resolve within a process.
    key = spans.process * (1 << 56) + spans.span_id
    order = np.argsort(key, kind="stable")
    has_parent = np.flatnonzero(spans.parent >= 0)
    parent_key = spans.process[has_parent] * (1 << 56) \
        + spans.parent[has_parent]
    slot = np.minimum(np.searchsorted(key[order], parent_key), len(order) - 1)
    found = key[order][slot] == parent_key
    out[has_parent[found]] = order[slot][found]
    return out


def self_times(spans: Spans, parents: Optional[np.ndarray] = None
               ) -> np.ndarray:
    """Each span's duration minus the part its children cover."""
    if parents is None:
        parents = parent_index(spans)
    child = np.flatnonzero(parents >= 0)
    parent = parents[child]
    clipped = (
        np.minimum(spans.end[child], spans.end[parent])
        - np.maximum(spans.start[child], spans.start[parent])
    ).clip(min=0.0)
    covered = np.bincount(parent, weights=clipped, minlength=len(spans))
    return spans.end - spans.start - covered


def per_name(spans: Spans, parent: Optional[str] = None
             ) -> Dict[str, Tuple[int, float]]:
    """``{name: (calls, self seconds)}`` over all spans, or over those
    whose direct parent span is named ``parent``."""
    parents = parent_index(spans)
    own = self_times(spans, parents)
    pick = np.ones(len(spans), dtype=bool)
    if parent is not None:
        if parent not in spans.names:
            return {}
        pick = parents >= 0
        pick[pick] = spans.name[parents[pick]] == spans.names.index(parent)
    calls = np.bincount(spans.name[pick], minlength=len(spans.names))
    seconds = np.bincount(spans.name[pick], weights=own[pick],
                          minlength=len(spans.names))
    return {
        name: (int(calls[i]), float(seconds[i]))
        for i, name in enumerate(spans.names)
    }


def covered_seconds(spans: Spans, request: str, lo: float, hi: float) -> float:
    """Seconds of ``[lo, hi]`` covered by any span tagged ``request``.

    Only root spans are merged: a child lies inside its parent.
    """
    if request not in spans.requests:
        return 0.0
    rid = spans.requests.index(request)
    pick = (spans.request == rid) & (spans.parent < 0)
    starts = np.clip(spans.start[pick], lo, hi)
    ends = np.clip(spans.end[pick], lo, hi)
    order = np.argsort(starts, kind="stable")
    total = 0.0
    run_lo = run_hi = None
    for s, e in zip(starts[order].tolist(), ends[order].tolist()):
        if run_hi is None or s > run_hi:
            if run_hi is not None:
                total += run_hi - run_lo
            run_lo, run_hi = s, e
        elif e > run_hi:
            run_hi = e
    if run_hi is not None:
        total += run_hi - run_lo
    return total


def span_cost_us(calls: int = 200_000, repeats: int = 5) -> float:
    """Cost of one wrapped call to an empty function, in microseconds.

    The best of ``repeats`` timings of ``calls`` wrapped calls, minus the
    best timing of the same number of bare calls.
    """
    def empty():
        return None

    tracer = Tracer()
    wrapped = tracer.wrap("trace.calibration", empty)

    def best(fn) -> float:
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            for _ in range(calls):
                fn()
            times.append(time.perf_counter() - t0)
            tracer.take()
        return min(times)

    return (best(wrapped) - best(empty)) / calls * 1e6
