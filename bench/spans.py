"""Spans around calls into cubesum's layers, recorded from the benchmark side.

`Tracer.patch` replaces a public function of a cubesum module by a timing
wrapper, in every loaded cubesum module that bound it (``from .rings import
represent_eisenstein`` binds a second name), so calls one layer makes into
another are timed too. The program's files are not changed. `Tracer.span`
times a block of the benchmark's own code. Spans stay in memory and are
written out when the run ends.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, work counts]
        self._stack: list[int] = []
        self._active: dict[str, int] = {}
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, {}])
        self._stack.append(idx)
        self._active[name] = self._active.get(name, 0) + 1
        return idx

    def _close(self, idx: int, work: dict) -> None:
        span = self.spans[idx]
        span[2] = time.perf_counter()
        span[4] = work
        self._stack.pop()
        self._active[span[0]] -= 1

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx, {})

    def patch(self, module, attr: str, name: str, work=None) -> None:
        """Time every outermost call of module.attr as span `name`.

        A call made while a span of the same name is open (recursion) is not
        recorded again. work(args, kwargs, result) gives the span's work counts
        as a dict.
        """
        original = getattr(module, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if self._active.get(name):
                return original(*args, **kwargs)
            idx = self._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(idx, work(args, kwargs, result) if work and result is not None else {})

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "cubesum":
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, timed)
                    self._restore.append((mod, key, original))

    def unpatch(self) -> None:
        for mod, key, original in reversed(self._restore):
            setattr(mod, key, original)
        self._restore.clear()

    def totals(self, since: int = 0) -> dict[str, tuple[float, dict]]:
        """name -> (seconds, summed work counts) over the spans from index `since`."""
        out: dict[str, tuple[float, dict]] = {}
        for name, start, end, _parent, work in self.spans[since:]:
            seconds, counts = out.get(name, (0.0, {}))
            for key, value in work.items():
                counts[key] = counts.get(key, 0) + value
            out[name] = (seconds + end - start, counts)
        return out


class NullTracer:
    """Stands in for Tracer in untraced runs: spans cost one function call."""

    spans: list = []

    @contextmanager
    def span(self, name: str):
        yield

    def unpatch(self) -> None:
        pass
