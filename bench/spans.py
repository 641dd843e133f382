"""In-memory spans recorded around calls into the package's public functions.

The package itself carries no tracing: ``instrument`` swaps a module (or
class) attribute for a wrapper that opens a span, calls the original and
closes the span, and puts the original back on exit. Calls the package makes
through its own module globals (``compute_interactive`` calling
``ittc_risk``) then show up as child spans, so self times add up without
double counting. A target marked opaque hides the calls it makes:
``inner_update`` is timed as one operation, whatever per-sample calls it is
built from today.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter


class Tracer:
    """Spans (name, start, end, parent) plus per-name self time."""

    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.self_s: dict[str, float] = {}
        self._stack: list[int] = []
        self._child: list[float] = []
        self._opaque = 0

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, perf_counter(), 0.0, parent])
        self._child.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        end = perf_counter()
        span = self.spans[idx]
        span[2] = end
        self._stack.pop()
        duration = end - span[1]
        self.self_s[span[0]] = self.self_s.get(span[0], 0.0) + duration - self._child[idx]
        if span[3] >= 0:
            self._child[span[3]] += duration

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn, opaque: bool = False):
        """``fn`` inside a span; an opaque span records no spans for the calls it makes."""

        def traced(*args, **kwargs):
            if self._opaque:
                return fn(*args, **kwargs)
            idx = self._open(name)
            self._opaque += opaque
            try:
                return fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self._close(idx)

        return traced

    def dump(self, path: Path) -> None:
        """Write every span once, names interned, times relative to the first span."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], round(a - t0, 9), round(b - t0, 9), p] for n, a, b, p in self.spans]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": ["name", "start_s", "end_s", "parent"], "names": names, "spans": rows}))


@contextmanager
def instrument(tracer: Tracer, targets):
    """Wrap ``(owner, attribute, span name[, opaque])`` targets for the duration of the block.

    ``owner`` is a module or a class; class attributes are looked up in the
    class ``__dict__`` so classmethods are restored as classmethods.
    """
    saved = []
    try:
        for owner, attr, name, *opaque in targets:
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            saved.append((owner, attr, raw))
            wrapped = tracer.wrap(name, getattr(owner, attr), *opaque)
            setattr(owner, attr, staticmethod(wrapped) if isinstance(owner, type) else wrapped)
        yield tracer
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)
