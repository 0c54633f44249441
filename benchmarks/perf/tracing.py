"""Span recording around the public entry points of each layer.

Trace runs only: a :class:`Recorder` replaces each listed callable *at the
name where callers look it up* (a module attribute or a class attribute)
with a wrapper that records ``(id, parent, name, start, end, thread, meta)``
in memory.  Nothing inside ``src/`` changes; untraced runs install nothing.

* Parents come from a :class:`contextvars.ContextVar`, so nesting is right
  per thread and per asyncio task.  Work handed to another thread or
  process (``run_in_executor``, the fleet's node processes) starts a new
  root; the ledger links it back to its request explicitly.
* Fleet nodes are forked, so they inherit the wrappers.  Wrapping
  :func:`repro.serve.fleet.node_subprocess_main` clears the spans a node
  inherited and writes its own when it exits.
* Recording is switched by a flag in shared memory, so the benchmark can
  time an untraced pass and a traced pass with the same wrappers (and the
  same forked nodes) in place.
* High-frequency leaf calls are *tallied* (count and total time) instead of
  recorded one span each.

:func:`chrome_trace` turns the dumps of every process into Chrome
trace-event JSON, which Perfetto (ui.perfetto.dev) opens directly.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import itertools
import json
import mmap
import os
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

Meta = Optional[Callable[[tuple, dict, Any], dict]]


@dataclass(frozen=True)
class Span:
    """One recorded call; ``parent`` is a span id in the same process."""

    pid: int
    sid: int
    parent: Optional[int]
    name: str
    start: float
    end: float
    tid: int
    meta: Optional[dict] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """The spans and tallies of one process, plus the wrappers that feed them."""

    def __init__(self, out_dir: str) -> None:
        self.out_dir = out_dir
        # One anonymous shared byte, inherited by forked nodes: one switch.
        self._flag = mmap.mmap(-1, 1)
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "perf_span", default=None
        )
        self._ids = itertools.count(1)
        self._tally_lock = threading.Lock()
        self._patches: List[Tuple[object, str, object, bool]] = []
        self.spans: List[tuple] = []
        self.tallies: Dict[str, List[float]] = {}

    # ------------------------------------------------------------- switching
    @property
    def enabled(self) -> bool:
        return bool(self._flag[0])

    def enable(self, on: bool = True) -> None:
        self._flag[0] = 1 if on else 0

    # ------------------------------------------------------------- recording
    def _begin(self) -> Tuple[int, Optional[int], contextvars.Token]:
        sid = next(self._ids)
        parent = self._current.get()
        return sid, parent, self._current.set(sid)

    def _record(self, sid, parent, token, name, start, end, meta) -> None:
        self._current.reset(token)
        self.spans.append((sid, parent, name, start, end, threading.get_ident(), meta))

    def span(self, name: str, meta: Optional[dict] = None) -> "_ManualSpan":
        """Context manager recording the enclosed block as span ``name``."""
        return _ManualSpan(self, name, meta)

    # -------------------------------------------------------------- wrapping
    def wrap(self, owner: object, attr: str, name: str, meta: Meta = None) -> None:
        """Record every call of ``owner.attr`` as a span named ``name``.

        Coroutine functions get an async wrapper.  ``meta(args, kwargs,
        result)`` may return a small JSON-able dict stored with the span.
        """
        original = getattr(owner, attr)
        if inspect.iscoroutinefunction(original):
            wrapper = self._async_wrapper(original, name, meta)
        else:
            wrapper = self._sync_wrapper(original, name, meta)
        self._install(owner, attr, original, wrapper)

    def wrap_iterator(self, owner: object, attr: str, name: str) -> None:
        """Record each ``next()`` of the iterator ``owner.attr()`` returns."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = iter(original(*args, **kwargs))

            def timed():
                while True:
                    if not recorder._flag[0]:
                        try:
                            item = next(iterator)
                        except StopIteration:
                            return
                        yield item
                        continue
                    sid, parent, token = recorder._begin()
                    start = time.perf_counter()
                    try:
                        item = next(iterator)
                    except StopIteration:
                        recorder._current.reset(token)
                        return
                    end = time.perf_counter()
                    recorder._record(sid, parent, token, name, start, end, None)
                    yield item

            return timed()

        self._install(owner, attr, original, wrapper)

    def tally(self, owner: object, attr: str, name: str) -> None:
        """Count calls of ``owner.attr`` and their total time, without spans."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder._flag[0]:
                return original(*args, **kwargs)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                with recorder._tally_lock:
                    entry = recorder.tallies.setdefault(name, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        self._install(owner, attr, original, wrapper)

    def wrap_process_main(self, owner: object, attr: str) -> None:
        """Make the forked process entry ``owner.attr`` record only its own
        spans and write them to :attr:`out_dir` when it returns."""
        original = getattr(owner, attr)
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            recorder.spans = []
            recorder.tallies = {}
            try:
                return original(*args, **kwargs)
            finally:
                recorder.dump("node")

        self._install(owner, attr, original, wrapper)

    def restore(self) -> None:
        """Put every wrapped callable back."""
        for owner, attr, original, owned in reversed(self._patches):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    def _install(self, owner, attr, original, wrapper) -> None:
        owned = not isinstance(owner, type) or attr in vars(owner)
        self._patches.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)

    def _sync_wrapper(self, original, name: str, meta: Meta):
        recorder = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not recorder._flag[0]:
                return original(*args, **kwargs)
            sid, parent, token = recorder._begin()
            start = time.perf_counter()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                described = meta(args, kwargs, result) if meta is not None else None
                recorder._record(sid, parent, token, name, start, end, described)

        return wrapper

    def _async_wrapper(self, original, name: str, meta: Meta):
        recorder = self

        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not recorder._flag[0]:
                return await original(*args, **kwargs)
            sid, parent, token = recorder._begin()
            start = time.perf_counter()
            result = None
            try:
                result = await original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                described = meta(args, kwargs, result) if meta is not None else None
                recorder._record(sid, parent, token, name, start, end, described)

        return wrapper

    # ---------------------------------------------------------------- output
    def dump(self, role: str) -> str:
        """Write this process's spans and tallies to ``out_dir``; returns the path."""
        pid = os.getpid()
        path = os.path.join(self.out_dir, f"spans-{pid}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {"pid": pid, "role": role, "spans": self.spans, "tallies": self.tallies},
                handle,
            )
        return path


class _ManualSpan:
    def __init__(self, recorder: Recorder, name: str, meta: Optional[dict]) -> None:
        self._recorder = recorder
        self._name = name
        self._meta = meta

    def __enter__(self) -> "_ManualSpan":
        self._state = None
        if self._recorder.enabled:
            self._state = self._recorder._begin()
            self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._state is not None:
            end = time.perf_counter()
            sid, parent, token = self._state
            self._recorder._record(
                sid, parent, token, self._name, self._start, end, self._meta
            )


def load_dumps(out_dir: str) -> Tuple[List[Span], Dict[int, dict]]:
    """Every process's spans (merged) and ``{pid: {"role", "tallies"}}``."""
    spans: List[Span] = []
    processes: Dict[int, dict] = {}
    for entry in sorted(os.listdir(out_dir)):
        if not (entry.startswith("spans-") and entry.endswith(".json")):
            continue
        with open(os.path.join(out_dir, entry), encoding="utf-8") as handle:
            dump = json.load(handle)
        pid = int(dump["pid"])
        processes[pid] = {"role": dump["role"], "tallies": dump["tallies"]}
        spans.extend(Span(pid, *fields) for fields in dump["spans"])
    return spans, processes


def chrome_trace(
    spans: Iterable[Span],
    processes: Dict[int, dict],
    layer_of: Callable[[str], str],
    links: Iterable[Tuple[Span, Span]] = (),
) -> dict:
    """Chrome trace-event JSON: one complete event per span, one track per
    process and thread, and a flow arrow per ``(from, to)`` link."""
    spans = list(spans)
    origin = min((s.start for s in spans), default=0.0)

    def micros(t: float) -> float:
        return round((t - origin) * 1e6, 3)

    events: List[dict] = [
        {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": f"{info['role']} {pid}"}}
        for pid, info in sorted(processes.items())
    ]
    for span in spans:
        event = {
            "name": span.name,
            "cat": layer_of(span.name),
            "ph": "X",
            "ts": micros(span.start),
            "dur": round(span.duration * 1e6, 3),
            "pid": span.pid,
            "tid": span.tid,
        }
        if span.meta:
            event["args"] = span.meta
        events.append(event)
    for flow_id, (source, target) in enumerate(links, start=1):
        events.append(
            {"name": "link", "cat": "link", "ph": "s", "id": flow_id,
             "pid": source.pid, "tid": source.tid, "ts": micros(source.start)}
        )
        events.append(
            {"name": "link", "cat": "link", "ph": "f", "bp": "e", "id": flow_id,
             "pid": target.pid, "tid": target.tid, "ts": micros(target.start)}
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}
