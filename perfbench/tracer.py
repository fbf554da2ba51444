"""A span tracer that wraps a fixed list of gridmono functions.

start() replaces each watched function, everywhere gridmono binds it (the
defining module, every module that imported it by name, or its class), by
a wrapper that records a span: (span id, parent span id, op id, name,
start, end).  The parent is the innermost enclosing watched call on the
same thread; the op id is the benchmark operation (verdict, report or
verify) that caused it.  Per name the tracer keeps the call count,
inclusive time and self time, where self time is the span's duration minus
the time covered by its child spans.  Return values of some functions go
to capture callbacks, which is how the tester's transcripts are counted.
Predicates handed to the BoolFunc constructor are wrapped too, so the time
spent evaluating them is a span of its own.  stop() puts every original
back.

Only calls of watched functions pay for tracing.  A `sys.setprofile` hook
would pay on every Python and C call instead: on this code even an empty
hook runs about 3x slower, and the acceptance run would not fit its time
limit.

Spans are kept in memory and written out by the caller when the run ends.
Past SPAN_CAP spans only those of at least LONG_SPAN_S are kept, so that a
long run cannot grow without bound.  Counts and times are kept for every
call, including the spans not kept.
"""

from __future__ import annotations

import functools
import gc
import inspect
import itertools
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

SPAN_CAP = 100_000
# spans at least this long are kept past the cap: they are the coarse
# structure of a run, and there can be at most run time / LONG_SPAN_S of them
LONG_SPAN_S = 1e-3


class _ThreadState:
    def __init__(self, k: int):
        self.stack: list = []   # [name index, start, child time, span id]
        self.calls = [0] * k
        self.incl_s = [0.0] * k
        self.self_s = [0.0] * k


class Tracer:
    """Wraps the functions named in `watched`.

    `watched` is a sequence of (name, owner, attribute): the function is
    `getattr(owner, attribute)`, where owner is a gridmono module or class.
    Several entries may share a name.  `captures` maps a name to a callback
    that receives each return value of that name's functions together with
    the call's duration.  `predicate_name`, if given, names the span of
    every predicate passed to `init_owner.__init__` as `predicate=`.
    """

    def __init__(self, watched, captures: Optional[Dict[str, Callable]] = None,
                 predicate_name: Optional[str] = None, init_owner=None):
        self._watched = list(watched)
        names = {name for name, _, _ in self._watched}
        if predicate_name:
            names.add(predicate_name)
        self.names: List[str] = sorted(names)
        self._index = {name: k for k, name in enumerate(self.names)}
        self._captures = captures or {}
        self._predicate = predicate_name
        self._init_owner = init_owner
        self._local = threading.local()
        self._states: List[_ThreadState] = []
        self._lock = threading.Lock()
        self._ids = itertools.count()
        self._patched: List[Tuple[object, str, object]] = []
        self.spans: list = []
        self.spans_dropped = 0
        self.op = -1
        self.gc_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._gc_start = 0.0

    # -- spans ----------------------------------------------------------

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(len(self.names))
            with self._lock:
                self._states.append(state)
            self._local.state = state
            return state

    def _close(self, state: _ThreadState, entry: list) -> float:
        end = time.perf_counter()
        k, start, child, span = entry
        state.stack.pop()
        dur = end - start
        state.calls[k] += 1
        state.incl_s[k] += dur
        state.self_s[k] += dur - child
        parent = -1
        if state.stack:
            top = state.stack[-1]
            top[2] += dur
            parent = top[3]
        if len(self.spans) < SPAN_CAP or dur >= LONG_SPAN_S:
            self.spans.append((span, parent, self.op, k, start, end))
        else:
            self.spans_dropped += 1
        return dur

    def _wrap(self, fn, name: str):
        k = self._index[name]
        capture = self._captures.get(name)
        ids = self._ids
        clock = time.perf_counter

        if inspect.isgeneratorfunction(inspect.unwrap(fn)):
            # time each resume of the generator, not its creation
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    state = self._state()
                    entry = [k, clock(), 0.0, next(ids)]
                    state.stack.append(entry)
                    try:
                        value = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._close(state, entry)
                    yield value

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state = self._state()
            entry = [k, clock(), 0.0, next(ids)]
            state.stack.append(entry)
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = self._close(state, entry)
            if capture is not None:
                capture(result, dur)
            return result

        return wrapper

    def _wrap_init(self, init):
        # BoolFunc(shape, table=None, predicate=None): time the predicate too
        wrap_predicate = functools.partial(self._wrap, name=self._predicate)

        @functools.wraps(init)
        def traced_init(obj, *args, **kwargs):
            if kwargs.get("predicate") is not None:
                kwargs["predicate"] = wrap_predicate(kwargs["predicate"])
            return init(obj, *args, **kwargs)

        return traced_init

    # -- install ----------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def start(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "gridmono" or name.startswith("gridmono.")]
        for name, owner, attr in self._watched:
            original = owner.__dict__[attr]
            wrapped = self._wrap(original, name)
            if inspect.isclass(owner):
                if attr == "__init__" and self._predicate and owner is self._init_owner:
                    wrapped = self._wrap(self._wrap_init(original), name)
                self._set(owner, attr, wrapped)
                continue
            for module in modules:
                for binding, value in list(vars(module).items()):
                    if value is original:
                        self._set(module, binding, wrapped)
        gc.callbacks.append(self._gc_callback)

    def stop(self) -> None:
        gc.callbacks.remove(self._gc_callback)
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _gc_callback(self, phase, info):
        if phase == "start":
            self._gc_start = time.perf_counter()
        else:
            self.gc_s += time.perf_counter() - self._gc_start
            self.gc_collections[info["generation"]] += 1

    # -- results ----------------------------------------------------------

    def totals(self) -> Dict[str, Dict[str, float]]:
        """Per name: calls, inclusive seconds and self seconds, all threads."""
        out = {name: {"calls": 0, "incl_s": 0.0, "self_s": 0.0} for name in self.names}
        with self._lock:
            states = list(self._states)
        for state in states:
            for k, name in enumerate(self.names):
                row = out[name]
                row["calls"] += state.calls[k]
                row["incl_s"] += state.incl_s[k]
                row["self_s"] += state.self_s[k]
        return out

    def span_records(self) -> list:
        return [[span, parent, op, self.names[k], start, end]
                for span, parent, op, k, start, end in self.spans]
