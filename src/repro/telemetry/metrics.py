"""Pipeline metrics: counters, gauges and latency histograms.

A :class:`Metrics` registry is a flat namespace of named instruments:

* :class:`Counter` — monotonically increasing totals (files scanned,
  cache hits, worker crashes, candidates per class).
* :class:`Gauge` — last-value measurements (LoC/sec, predictor FP rate).
* :class:`Histogram` — latency distributions with p50/p95/max summaries
  (per-phase seconds).

Counters recorded inside analysis workers ride home in each chunk's
:meth:`repro.telemetry.Telemetry.drain` batch and add up in the parent
registry (gauges and histograms are parent-side only: per-phase
latencies travel as spans).  The :data:`NULL_METRICS` registry hands out
shared no-op instruments so disabled telemetry costs nothing.
"""

from __future__ import annotations


class Counter:
    """Monotonic counter."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def inc(self, n: int = 1) -> None:
        self.value += n


class Gauge:
    """Last-value measurement."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value


class Histogram:
    """Observation list with percentile summaries."""

    __slots__ = ("observations",)

    def __init__(self) -> None:
        self.observations: list[float] = []

    def observe(self, value: float) -> None:
        self.observations.append(value)

    @property
    def count(self) -> int:
        return len(self.observations)

    @property
    def total(self) -> float:
        return sum(self.observations)

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observations (0 <= q <= 1)."""
        if not self.observations:
            return 0.0
        ordered = sorted(self.observations)
        index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
        return ordered[index]

    def summary(self) -> dict:
        return {
            "count": self.count,
            "sum": round(self.total, 6),
            "p50": round(self.percentile(0.50), 6),
            "p95": round(self.percentile(0.95), 6),
            "max": round(max(self.observations), 6)
            if self.observations else 0.0,
        }


class Metrics:
    """Registry of named instruments; instruments are created on demand."""

    enabled = True

    def __init__(self) -> None:
        self.counters: dict[str, Counter] = {}
        self.gauges: dict[str, Gauge] = {}
        self.histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        inst = self.counters.get(name)
        if inst is None:
            inst = self.counters[name] = Counter()
        return inst

    def gauge(self, name: str) -> Gauge:
        inst = self.gauges.get(name)
        if inst is None:
            inst = self.gauges[name] = Gauge()
        return inst

    def histogram(self, name: str) -> Histogram:
        inst = self.histograms.get(name)
        if inst is None:
            inst = self.histograms[name] = Histogram()
        return inst

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """JSON-serializable dump of every instrument."""
        return {
            "counters": {name: c.value
                         for name, c in sorted(self.counters.items())},
            "gauges": {name: round(g.value, 6)
                       for name, g in sorted(self.gauges.items())},
            "histograms": {name: h.summary()
                           for name, h in sorted(self.histograms.items())},
        }


class _NullInstrument:
    """Shared no-op counter/gauge/histogram."""

    __slots__ = ()
    value = 0
    observations: list = []
    count = 0
    total = 0.0

    def inc(self, n: int = 1) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass

    def percentile(self, q: float) -> float:
        return 0.0

    def summary(self) -> dict:
        return {"count": 0, "sum": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0}


NULL_INSTRUMENT = _NullInstrument()


class NullMetrics:
    """Registry that records nothing."""

    enabled = False
    counters: dict = {}
    gauges: dict = {}
    histograms: dict = {}

    def counter(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def gauge(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def histogram(self, name: str) -> _NullInstrument:
        return NULL_INSTRUMENT

    def snapshot(self) -> dict:
        return {"counters": {}, "gauges": {}, "histograms": {}}


NULL_METRICS = NullMetrics()
