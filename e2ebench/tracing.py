"""In-memory span recorder wrapped around the layers' public entry points.

The benchmark never edits the program: each layer is timed from outside by
replacing one callable with a thin wrapper that opens a span, calls the
original, and closes the span.  Instance methods are wrapped per object
(``Tracer.wrap``); the few entry points that have no single owning object
(``Tensor.backward``, ``pretrain_grouper``, the checkpoint writers) are
patched on their module or class by ``Tracer.installed`` and restored when
the block exits.

A span is ``(id, name, start, end, parent, search)``: ``parent`` is the id of
the span that was open when it started (-1 at top level) and ``search`` the
id of the search it belongs to.  Spans stay in memory until ``dump`` writes
them out at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
import time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

from repro.core import checkpoint
from repro.grouping import pretrain
from repro.nn.tensor import Tensor

Span = Tuple[int, str, float, float, int, int]


class Tracer:
    """Collects spans; ``enabled=False`` makes every hook a no-op."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self.search = -1
        self._stack: List[Tuple[int, str]] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    def inside(self, name: str) -> bool:
        """True while a span called ``name`` is open."""
        return any(open_name == name for _id, open_name in self._stack)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        span_id = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        self._stack.append((span_id, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans.append((span_id, name, start, end, parent, self.search))

    def timed(self, name: str, fn: Callable, only_inside: Optional[str] = None) -> Callable:
        """``fn`` wrapped in a ``name`` span (only within ``only_inside``)."""

        def wrapper(*args, **kwargs):
            if only_inside is not None and not self.inside(only_inside):
                return fn(*args, **kwargs)
            with self.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def wrap(self, obj, attr: str, name: str, only_inside: Optional[str] = None) -> None:
        """Time ``obj.attr`` calls by shadowing the bound method on ``obj``."""
        if self.enabled:
            setattr(obj, attr, self.timed(name, getattr(obj, attr), only_inside))

    @contextlib.contextmanager
    def installed(self) -> Iterator[None]:
        """Patch the module- and class-level entry points for the block."""
        if not self.enabled:
            yield
            return
        patches = [
            (pretrain, "pretrain_grouper", "grouping.pretrain", None),
            (checkpoint, "save_engine_checkpoint", "core.checkpoint", None),
            (checkpoint, "save_checkpoint", "core.checkpoint", None),
            (Tensor, "backward", "nn.backward", "rl.update"),
        ]
        saved = []
        for owner, attr, name, within in patches:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self.timed(name, original, within))
        try:
            yield
        finally:
            for owner, attr, original in saved:
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def durations(self, name: str) -> List[float]:
        return [end - start for _id, span_name, start, end, _parent, _sid in self.spans
                if span_name == name]

    def total(self, name: str) -> float:
        return float(sum(self.durations(name)))

    def dump(self, path: str, metrics: Dict[str, Dict[str, object]]) -> None:
        """Write every span (times relative to the first) and the metrics."""
        origin = min((span[2] for span in self.spans), default=0.0)
        rows = [
            {"id": i, "name": n, "start": s - origin, "end": e - origin,
             "parent": p, "search": sid}
            for i, n, s, e, p, sid in sorted(self.spans)
        ]
        with open(path, "w") as fh:
            json.dump({"metrics": metrics, "spans": rows}, fh)
