"""Phase-scoped tracing: spans, the tracer, and the no-op default.

A :class:`Span` is one timed region of the scan — the whole run, a phase
(``discover``, ``scan``, ``predict``), a per-file stage (``lex``,
``parse``, ``taint``, ``split``), a cache access, or a worker chunk.
Spans nest: the tracer keeps a stack of open spans and each new span is
parented on the innermost open one, so exporting the span list yields the
full tree of where scan time went.

Two properties matter for the scan pipeline:

* **Cross-process merging** — analysis workers record spans into their own
  tracer; each chunk ships them home in its
  :meth:`repro.telemetry.Telemetry.drain` batch, stamped with the worker
  id, and the parent's :meth:`~repro.telemetry.Telemetry.absorb` files
  them in its trace, parenting the worker's root spans on the open scan
  span.  Span ids are remapped there, so ids stay unique even though
  every worker numbers its own spans from 1.

* **Near-zero disabled overhead** — the module-level :data:`NULL_TRACER`
  never allocates: ``span()`` hands back one shared no-op context manager.
  Hot per-file code paths additionally guard on ``telemetry.enabled`` so a
  scan without telemetry performs no tracing calls at all (the throughput
  benchmark pins this).
"""

from __future__ import annotations

import time


class Span:
    """One timed, named region of the scan.

    Attributes:
        span_id: tracer-unique integer id.
        parent_id: id of the enclosing span, ``None`` for roots.
        name: region name (``file``, ``lex``, ``chunk``, ...).
        phase: coarse phase bucket the region belongs to.
        start: wall-clock start (``time.time()``), comparable across
            processes to within clock skew.
        duration: elapsed seconds (monotonic, from ``perf_counter``).
        worker: process id of the recording worker; ``None`` in-process.
        attrs: free-form string attributes (``file``, ``cause``, ...).
    """

    __slots__ = ("span_id", "parent_id", "name", "phase", "start",
                 "duration", "worker", "attrs", "_t0")

    def __init__(self, span_id: int, parent_id: int | None, name: str,
                 phase: str, attrs: dict | None = None) -> None:
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.phase = phase
        self.start = time.time()
        self.duration = 0.0
        self.worker: int | None = None
        self.attrs = attrs or {}
        self._t0 = time.perf_counter()

    def set(self, **attrs) -> "Span":
        """Attach attributes to an open (or closed) span."""
        self.attrs.update(attrs)
        return self

    def to_record(self) -> dict:
        """JSON-serializable representation (the trace wire format)."""
        return {
            "id": self.span_id,
            "parent": self.parent_id,
            "name": self.name,
            "phase": self.phase,
            "start": round(self.start, 6),
            "duration": round(self.duration, 6),
            "worker": self.worker,
            "attrs": self.attrs,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Span({self.name!r}, phase={self.phase!r}, "
                f"{self.duration:.6f}s)")


class _ActiveSpan:
    """Context manager that closes a span and files it with its tracer."""

    __slots__ = ("tracer", "span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self.tracer = tracer
        self.span = span

    def __enter__(self) -> Span:
        return self.span

    def __exit__(self, *exc) -> bool:
        self.tracer._close(self.span)
        return False


class Tracer:
    """Collects spans for one process; nested via an open-span stack."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 1

    # ------------------------------------------------------------------
    def span(self, name: str, phase: str = "", **attrs) -> _ActiveSpan:
        """Open a span parented on the innermost open span."""
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(self._next_id, parent, name, phase or name,
                    attrs if attrs else None)
        self._next_id += 1
        self._stack.append(span)
        return _ActiveSpan(self, span)

    def _close(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._t0
        # tolerate out-of-order exits (exceptions unwinding): pop to span
        while self._stack:
            top = self._stack.pop()
            if top is span:
                break
        self.spans.append(span)

    @property
    def current_id(self) -> int | None:
        """Id of the innermost open span (where worker spans go)."""
        return self._stack[-1].span_id if self._stack else None

    # ------------------------------------------------------------------
    def children_of(self, span_id: int) -> list[Span]:
        return [s for s in self.spans if s.parent_id == span_id]

    def descendants_of(self, span_id: int) -> list[Span]:
        """Every span transitively below *span_id* (closed spans only)."""
        by_parent: dict[int | None, list[Span]] = {}
        for span in self.spans:
            by_parent.setdefault(span.parent_id, []).append(span)
        out: list[Span] = []
        todo = [span_id]
        while todo:
            for child in by_parent.get(todo.pop(), ()):
                out.append(child)
                todo.append(child.span_id)
        return out


class _NullSpan:
    """Shared do-nothing span/context-manager (the disabled path)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class NullTracer:
    """Tracer that records nothing; ``span()`` allocates nothing."""

    enabled = False
    spans: list = []
    current_id = None

    def span(self, name: str, phase: str = "", **attrs) -> _NullSpan:
        return NULL_SPAN


NULL_TRACER = NullTracer()
