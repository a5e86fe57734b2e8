"""The observability plane: structured logs, run ledger, profilers.

``repro.telemetry`` (PR 2) instruments a single scan *invocation*:
spans, counters and the ``--stats`` footer all die with the process.
This package is the durable layer on top of it — the pieces that let
operations questions be answered across runs and across processes:

* :mod:`repro.obs.log` — a stdlib-only JSONL structured logger with
  leveled, field-carrying events.  A scan logs through the log of its
  :class:`repro.telemetry.Telemetry`, the run's one recorder, which
  binds the run id onto every record (the service adds the request
  id); pool workers buffer their records into per-worker segments that
  reach the parent in each chunk's one telemetry batch, so one log file
  tells the whole cross-process story.
* :mod:`repro.obs.ledger` — an append-only, versioned run ledger: one
  compact JSON record per scan (fingerprints, per-phase wall times,
  per-tier cache hit rates, findings digest, cpu/jobs facts).  The
  ``wape history`` subcommand renders trend tables over it and a
  rolling-baseline detector flags phase-time or hit-rate regressions.
* :mod:`repro.obs.profile` — ``wape scan --profile``: a phase-scoped
  sampling profiler emitting folded-stack (flamegraph-compatible)
  output and a top-N hot-function table, plus the renderers for the IR
  interpreter's per-opcode dispatch histogram.

Everything here is dependency-free and, like the telemetry layer, built
so the *disabled* path costs nothing: no logger means :data:`NULL_LOG`
no-ops, no ``--profile`` means the IR dispatch loop is byte-identical
to the unprofiled one.
"""

from repro.obs.ledger import (  # noqa: F401
    LEDGER_VERSION,
    Regression,
    RunLedger,
    build_record,
    default_ledger_path,
    detect_regressions,
    findings_digest,
    render_history,
)
from repro.obs.log import (  # noqa: F401
    LOG_LEVELS,
    NULL_LOG,
    JsonlLogger,
    NullLogger,
    new_run_id,
)
from repro.obs.profile import (  # noqa: F401
    SamplingProfiler,
    opcode_table,
    render_top_functions,
)

__all__ = [
    "JsonlLogger",
    "NullLogger",
    "NULL_LOG",
    "LOG_LEVELS",
    "new_run_id",
    "RunLedger",
    "LEDGER_VERSION",
    "Regression",
    "build_record",
    "default_ledger_path",
    "detect_regressions",
    "findings_digest",
    "render_history",
    "SamplingProfiler",
    "opcode_table",
    "render_top_functions",
]
