"""Host-time spans around calls into flagsim's layers.

The traced run wraps public functions of each layer from here, without
touching ``src/``: a :class:`LayerTracer` replaces a module or class
attribute with a timing wrapper and puts the original back on exit.
Spans nest per thread, so every span knows its *self* time (its
duration minus the part its child spans cover), and per-layer figures
are sums of self times.  Spans stay in memory and are written once, at
the end, as Chrome ``trace_event`` JSON through ``repro.obs.chrome``.

Names bound with ``from x import f`` are separate attributes of every
importing module, so a layer function is wrapped at each binding its
callers read (see the ``*_TARGETS`` tables in the workload modules).
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Spans kept for the Chrome trace; aggregates count every span.
MAX_KEPT_SPANS = 200_000


def _resolve(target: str) -> Tuple[Any, str]:
    """``"pkg.mod:Class.attr"`` -> (owner object, attribute name)."""
    module_name, _, path = target.partition(":")
    owner: Any = importlib.import_module(module_name)
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name)
    return owner, attr


class LayerTracer:
    """Installs timing wrappers; aggregates self time per span name.

    Use as a context manager: wrappers go in with :meth:`wrap` (or
    :meth:`patch` for hand-written ones) and all come out on exit, in
    reverse order.
    """

    def __init__(self) -> None:
        self.t0 = time.perf_counter()
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        self.spans: List[Tuple[str, str, float, float, str]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: List[Tuple[Any, str, Any]] = []
        self.active = True

    # -- installing -------------------------------------------------------

    def patch(self, target: str, make: Callable[[Any], Any]) -> None:
        """Replace ``target`` with ``make(original)``; undone on exit.

        ``classmethod``/``staticmethod`` descriptors are unwrapped before
        ``make`` sees them and re-wrapped after.
        """
        owner, attr = _resolve(target)
        raw = (owner.__dict__[attr] if isinstance(owner, type)
               else getattr(owner, attr))
        if isinstance(raw, (classmethod, staticmethod)):
            replacement = type(raw)(make(raw.__func__))
        else:
            replacement = make(raw)
        self._undo.append((owner, attr, raw))
        setattr(owner, attr, replacement)

    def wrap(self, target: str, name: str, *,
             after: Optional[Callable[[Any], None]] = None) -> None:
        """Time every call through ``target`` as a span named ``name``.

        ``after(result)`` runs on each return value, outside the span,
        to count the work the call did.
        """
        self.patch(target, lambda fn: self.timed(fn, name, after=after))

    def timed(self, fn: Callable, name: str, *,
              after: Optional[Callable[[Any], None]] = None) -> Callable:
        """``fn`` wrapped in a span named ``name``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            frame = [time.perf_counter(), 0.0]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - frame[0]
                if stack:
                    stack[-1][1] += duration
                tracer.record(name, frame[0], end,
                              self_s=duration - frame[1])
            if after is not None:
                after(result)
            return result

        return wrapper

    @contextlib.contextmanager
    def paused(self):
        """Let calls through untimed, e.g. while outputs are checked."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def __enter__(self) -> "LayerTracer":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    # -- recording --------------------------------------------------------

    def _stack(self) -> List[List[float]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def record(self, name: str, start: float, end: float, *,
               self_s: Optional[float] = None) -> None:
        """Add one finished span (``self_s`` defaults to its duration)."""
        duration = end - start
        track = threading.current_thread().name
        with self._lock:
            self.calls[name] += 1
            self.total_s[name] += duration
            self.self_s[name] += duration if self_s is None else self_s
            if len(self.spans) < MAX_KEPT_SPANS:
                self.spans.append((name, name.split(":")[0], start, end,
                                   track))

    def count(self, name: str, n: float = 1.0) -> None:
        """Add ``n`` to a work counter."""
        with self._lock:
            self.counts[name] += n

    # -- reading ----------------------------------------------------------

    def self_ms(self, *names: str) -> float:
        """Summed self time of the named spans, in ms."""
        return 1e3 * sum(self.self_s.get(n, 0.0) for n in names)

    def total_ms(self, *names: str) -> float:
        """Summed inclusive time of the named spans, in ms."""
        return 1e3 * sum(self.total_s.get(n, 0.0) for n in names)

    def n_calls(self, *names: str) -> int:
        """Summed call counts of the named spans."""
        return sum(self.calls.get(n, 0) for n in names)

    def write_chrome(self, path, *, process_name: str) -> int:
        """Write the kept spans as Chrome ``trace_event`` JSON.

        Host seconds since the tracer started become trace
        microseconds; each thread is a track.  Returns the span count.
        """
        from repro.obs.chrome import dump_chrome_trace, to_chrome_trace
        from repro.obs.spans import Span

        spans = [Span(sid=i, name=name, category=category,
                      track=track, start=start - self.t0,
                      end=end - self.t0)
                 for i, (name, category, start, end, track)
                 in enumerate(self.spans)]
        doc = to_chrome_trace(spans, process_name=process_name)
        doc["otherData"] = {"producer": "perfbench",
                            "time_unit": "1 trace us == 1 host us"}
        with open(path, "w") as fp:
            dump_chrome_trace(doc, fp)
        return len(spans)


def per(total: float, n: float) -> float:
    """``total / n``, or 0 when nothing was counted."""
    return total / n if n else 0.0
