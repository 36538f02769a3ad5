"""In-memory span recording around calls into the program's layers.

The benchmark measures each layer from outside: :class:`Instrumenter`
replaces a public function or method with a wrapper that opens a span
on entry and closes it on exit, and puts the original back when the
traced phase ends.  Everything the benchmark drives runs on one thread
(the asyncio loop of a live cell, or the simulator's run loop), so the
open spans form a stack and every span nests inside the span that was
open when it started.

Generator functions (the protocol's process code) are wrapped step by
step: each resumption of the generator is its own span under the
layer's name, so a span covers only the time the layer's code actually
ran, never the simulated or wall time it spent waiting.

A span has a name, start, end, parent and request id; ``parent`` is
the index of the enclosing span (-1 for a top-level span).  Self time is a
span's duration minus the time its child spans cover.
"""

from __future__ import annotations

import gzip
import json
import time
from array import array
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["SpanRecorder", "Instrumenter", "LayerStats"]


class SpanRecorder:
    """Stack-disciplined span store; spans stay in memory until dumped.

    Spans are kept column-wise (a name id, start, end, parent and
    request id per span) so a traced simulator run of a million spans
    stays in tens of megabytes.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_of = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.request: List[Optional[str]] = []
        self._stack: List[int] = []
        self._request_of: Dict[str, str] = {}
        self._next_request = 0

    def __len__(self) -> int:
        return len(self.start)

    # -- request ids -----------------------------------------------------------
    def bind(self, user: str, request_id: str) -> None:
        """Attribute later spans about ``user`` to ``request_id``."""
        self._request_of[user] = request_id

    def request_for(self, user: Optional[str]) -> Optional[str]:
        if user is None:
            return None
        return self._request_of.get(user)

    def new_request(self, user: str) -> str:
        """Bind ``user`` to a fresh request id and return it."""
        self._next_request += 1
        request_id = f"{user}#{self._next_request}"
        self._request_of[user] = request_id
        return request_id

    # -- spans -------------------------------------------------------------------
    def open(self, name: str, request_id: Optional[str] = None) -> int:
        stack = self._stack
        parent = stack[-1] if stack else -1
        if request_id is None and parent >= 0:
            request_id = self.request[parent]
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_of.append(name_id)
        self.parent.append(parent)
        self.request.append(request_id)
        self.end.append(0.0)
        stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int) -> None:
        self.end[index] = self.clock()
        top = self._stack.pop()
        if top != index:
            raise RuntimeError(
                f"span {self.name(index)!r} closed out of order "
                f"(innermost open span is {self.name(top)!r})"
            )

    def name(self, index: int) -> str:
        return self.names[self.name_of[index]]

    @property
    def depth(self) -> int:
        return len(self._stack)

    def dump(self, path: str) -> None:
        """Write every span, column-wise, as gzipped JSON."""
        document = {
            "names": self.names,
            "name": self.name_of.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "request": self.request,
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            json.dump(document, handle)


class LayerStats:
    """Per-name call counts and self times of recorded spans."""

    def __init__(self, recorder: SpanRecorder) -> None:
        n = len(recorder)
        starts, ends, parents = recorder.start, recorder.end, recorder.parent
        child_time = [0.0] * n
        for index in range(n):
            parent = parents[index]
            if parent >= 0:
                child_time[parent] += ends[index] - starts[index]
        names = recorder.names
        calls = [0] * len(names)
        self_time = [0.0] * len(names)
        for index, name_id in enumerate(recorder.name_of):
            duration = ends[index] - starts[index]
            calls[name_id] += 1
            self_time[name_id] += duration - child_time[index]
        self.calls: Dict[str, int] = dict(zip(names, calls))
        self.self_time: Dict[str, float] = dict(zip(names, self_time))

    def self_us_per_call(self, name: str) -> float:
        calls = self.calls.get(name, 0)
        return self.self_time.get(name, 0.0) / calls * 1e6 if calls else 0.0

    @property
    def total_self_time(self) -> float:
        """Self times sum to the time the top-level spans cover."""
        return sum(self.self_time.values())


def _user_of(value: Any) -> Optional[str]:
    """The user a message or request is about, if it names one."""
    user = getattr(value, "user", None)
    if user is None:
        user = getattr(getattr(value, "payload", None), "user", None)
    if user is None:
        user = getattr(getattr(value, "update", None), "user", None)
    return user if isinstance(user, str) else None


class Instrumenter:
    """Installs span wrappers and removes them again.

    ``user_arg`` is the index of the positional argument (``self``
    included, for a method wrapped on its class) that carries the user
    or a message naming one; spans about a bound user carry that user's
    request id, and other spans inherit their parent's.
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._undo: List[Tuple[Any, str, Any, bool]] = []

    # -- wrappers ----------------------------------------------------------------
    def _request_id(self, args: tuple, user_arg: Optional[int]) -> Optional[str]:
        if user_arg is None or user_arg >= len(args):
            return None
        value = args[user_arg]
        user = value if isinstance(value, str) else _user_of(value)
        return self.recorder.request_for(user)

    def call_wrapper(self, name: str, fn: Callable, user_arg: Optional[int] = None,
                     on_result: Optional[Callable[[Any], None]] = None) -> Callable:
        recorder = self.recorder
        request_id = self._request_id

        def traced(*args: Any, **kwargs: Any) -> Any:
            index = recorder.open(name, request_id(args, user_arg))
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_result is not None:
                on_result(result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def generator_wrapper(self, name: str, fn: Callable, user_arg: Optional[int] = None,
                          on_start: Optional[Callable[[tuple], None]] = None) -> Callable:
        recorder = self.recorder
        request_id = self._request_id

        def traced(*args: Any, **kwargs: Any) -> Iterator[Any]:
            if on_start is not None:
                on_start(args)
            return _stepped(recorder, name, fn(*args, **kwargs), request_id(args, user_arg))

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    # -- patching ------------------------------------------------------------------
    def patch(self, owner: Any, attr: str, wrapper_of: Callable[[Callable], Callable]) -> None:
        """Replace ``owner.attr`` with ``wrapper_of(original)`` until :meth:`restore`."""
        namespace = vars(owner)
        own = attr in namespace
        # A class's own function is wrapped unbound (the wrapper receives
        # ``self``); an inherited one or an instance attribute via getattr.
        original = namespace[attr] if own else getattr(owner, attr)
        self._undo.append((owner, attr, original, own))
        setattr(owner, attr, wrapper_of(original))

    def patch_call(self, owner: Any, attr: str, name: str, user_arg: Optional[int] = None,
                   on_result: Optional[Callable[[Any], None]] = None) -> None:
        self.patch(owner, attr, lambda fn: self.call_wrapper(name, fn, user_arg, on_result))

    def patch_generator(self, owner: Any, attr: str, name: str, user_arg: Optional[int] = None,
                        on_start: Optional[Callable[[tuple], None]] = None) -> None:
        self.patch(owner, attr, lambda fn: self.generator_wrapper(name, fn, user_arg, on_start))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original, own = self._undo.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def _stepped(recorder: SpanRecorder, name: str, generator: Iterator[Any],
             request_id: Optional[str]) -> Iterator[Any]:
    """Drive ``generator``, recording one span per resumption."""
    to_send: Any = None
    to_throw: Optional[BaseException] = None
    while True:
        index = recorder.open(name, request_id)
        try:
            if to_throw is None:
                yielded = generator.send(to_send)
            else:
                error, to_throw = to_throw, None
                yielded = generator.throw(error)
        except StopIteration as stop:
            return stop.value
        finally:
            recorder.close(index)
        try:
            to_send = yield yielded
        except GeneratorExit:
            generator.close()
            raise
        except BaseException as error:  # delivered into the wrapped generator
            to_throw = error
