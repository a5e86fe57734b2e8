"""Structured JSONL logging, one log per run across processes.

One scan produces events in several processes: the parent (discovery,
include resolution, cache bookkeeping, worker faults) and every pool
worker (per-file parse errors, recovery warnings, chunk completions).
:class:`JsonlLogger` covers both sides with one class:

* **Sink mode** (a ``path`` or ``stream`` is given) — each event is one
  JSON object per line, written immediately under a lock.  This is the
  parent-side logger the CLI builds for ``--log``.
* **Segment mode** (no sink) — events are buffered in :attr:`records`.
  Analysis workers run in this mode: the log is part of the worker's
  :class:`repro.telemetry.Telemetry`, whose per-chunk ``drain`` batch
  carries the records home with the spans and counters, stamped with
  the worker pid, and the parent's ``absorb`` files them in its own log
  with :meth:`emit_record`.

Every record carries ``ts``, ``level``, ``event`` plus any bound fields
(:meth:`bind`) — the scan's ``run_id`` above all, which the run's
``Telemetry`` binds, and the service's ``request_id`` in daemon mode —
so one grep over the merged file follows one logical run across every
process that touched it.

The disabled default :data:`NULL_LOG` is a shared no-op: hot paths guard
on ``log.enabled`` and a scan without ``--log`` performs no logging
calls at all.
"""

from __future__ import annotations

import copy
import json
import os
import threading
import time

#: level name -> numeric threshold (stdlib-compatible values).
LOG_LEVELS = {"debug": 10, "info": 20, "warning": 30, "error": 40}


def new_run_id() -> str:
    """A unique, sortable scan run id (``run-<utc stamp>-<nonce>``)."""
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    return f"run-{stamp}-{os.urandom(4).hex()}"


class JsonlLogger:
    """Leveled, field-structured JSONL logger (see module docstring).

    Args:
        path: append events to this file (opened lazily, line-buffered).
        stream: write events to an open text stream instead.
        level: minimum level recorded (``"debug"``/``"info"``/
            ``"warning"``/``"error"``).
        fields: extra fields bound onto every record.

    With neither *path* nor *stream* the logger runs in segment mode:
    records accumulate in :attr:`records` until the owning
    :class:`repro.telemetry.Telemetry` drains them.
    """

    enabled = True

    def __init__(self, path: str | None = None, stream=None,
                 level: str = "info", fields: dict | None = None) -> None:
        self.level = level
        self._threshold = LOG_LEVELS.get(level, LOG_LEVELS["info"])
        self._path = path
        self._stream = stream
        self._own_stream = False
        self._lock = threading.Lock()
        self.records: list[dict] = []
        self.bound: dict = dict(fields or {})
        #: the logger whose sink this one writes through: itself, or
        #: the logger a child was bound from
        self._owner = self

    # ------------------------------------------------------------------
    def bind(self, **fields) -> "JsonlLogger":
        """A child logger sharing this sink, lock and buffer with extra
        bound fields."""
        child = copy.copy(self)
        child.bound = {**self.bound, **fields}
        return child

    @property
    def _sink(self):
        owner = self._owner
        if owner._stream is None and owner._path is not None:
            owner._stream = open(owner._path, "a", encoding="utf-8")
            owner._own_stream = True
        return owner._stream

    # ------------------------------------------------------------------
    def log(self, level: str, event: str, **fields) -> None:
        if LOG_LEVELS.get(level, 0) < self._threshold:
            return
        record = {"ts": round(time.time(), 6), "level": level,
                  "event": event}
        record.update(self.bound)
        record.update(fields)
        self.emit_record(record)

    def debug(self, event: str, **fields) -> None:
        self.log("debug", event, **fields)

    def info(self, event: str, **fields) -> None:
        self.log("info", event, **fields)

    def warning(self, event: str, **fields) -> None:
        self.log("warning", event, **fields)

    def error(self, event: str, **fields) -> None:
        self.log("error", event, **fields)

    def emit_record(self, record: dict) -> None:
        """File one already-built record (the worker-merge entry point).

        Unlike :meth:`log`, no level filtering is applied: a record the
        worker deemed loggable stays in the merged log.
        """
        with self._lock:
            sink = self._sink
            if sink is None:
                self.records.append(record)
            else:
                sink.write(json.dumps(record, sort_keys=True,
                                      default=str) + "\n")
                sink.flush()

    def close(self) -> None:
        owner = self._owner
        if owner._own_stream and owner._stream is not None:
            owner._stream.close()
            owner._stream = None
            owner._own_stream = False


class NullLogger:
    """Shared do-nothing logger (the disabled default)."""

    enabled = False
    level = "info"
    records: list = []
    bound: dict = {}

    def bind(self, **fields) -> "NullLogger":
        return self

    def log(self, level: str, event: str, **fields) -> None:
        pass

    def debug(self, event: str, **fields) -> None:
        pass

    def info(self, event: str, **fields) -> None:
        pass

    def warning(self, event: str, **fields) -> None:
        pass

    def error(self, event: str, **fields) -> None:
        pass

    def emit_record(self, record: dict) -> None:
        pass

    def close(self) -> None:
        pass


NULL_LOG = NullLogger()
