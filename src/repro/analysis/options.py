"""Scan configuration: one options object threaded end to end.

The scan stack used to grow a keyword argument per feature —
``analyze_tree(root, jobs=..., cache_dir=..., telemetry=..., includes=...)``
and the same sprawl again on :class:`~repro.analysis.pipeline.ScanScheduler`
— which made every new knob a signature change on three layers.
:class:`ScanOptions` is the single carrier instead: the tool facades, the
scheduler, the :class:`repro.api.Scanner` facade and the scan service all
accept one frozen options value.  (The pre-options keyword shims were
removed after their deprecation cycle; passing ``jobs=`` and friends to
the facades now raises ``TypeError`` pointing here.)
"""

from __future__ import annotations

import os
from dataclasses import dataclass


@dataclass(frozen=True)
class ScanOptions:
    """Everything a scan run can be configured with.

    Attributes:
        jobs: analysis worker processes; ``1`` (the default) keeps the
            whole scan in-process, ``None`` or ``"auto"`` means one per
            CPU (capped at ``os.cpu_count()`` — oversubscribing a small
            box slows scans down), and an explicit integer is honored
            as-is.
        cache_dir: the on-disk cache directory (result, AST and
            function-summary tiers); ``None`` disables on-disk caching
            (warm in-memory state is unaffected).
        includes: statically resolve ``include``/``require`` targets so
            taint crosses file boundaries; ``False`` restores strictly
            per-file analysis.
        project: whole-project policy (``wape scan --project``): the
            include graph also links each file to the home file of every
            function or method it calls by literal name and gets from
            neither itself nor its includes, so calls into files nothing
            includes resolve too.  Parses every file up front; requires
            ``includes``.
        prefilter: classify files from raw bytes against the compiled
            knowledge catalogs (:mod:`repro.analysis.prefilter`) and
            skip the lex/parse/taint pipeline for files whose include
            closure cannot contain a finding; ``False``
            (``--no-prefilter``) analyzes every file.
        telemetry: the run's recorder.  ``True`` builds a fresh enabled
            :class:`~repro.telemetry.Telemetry`, ``False`` / ``None``
            runs unrecorded, and an explicit ``Telemetry`` instance is
            used as-is: the CLI passes its own so ``--trace-out`` can
            export it afterwards, and one carrying a
            :class:`repro.obs.JsonlLogger` logs the scan's structured
            events (pool workers' records included) under its run id.
        predictor: override the tool's false-positive predictor for this
            run; ``None`` uses the tool's own.
        profile: collect the IR per-opcode dispatch histogram during the
            scan (``wape scan --profile``); off by default so the
            interpreter's dispatch loop carries zero instrumentation.
    """

    jobs: int | str | None = 1
    cache_dir: str | None = None
    includes: bool = True
    project: bool = False
    prefilter: bool = True
    telemetry: object | None = None
    predictor: object | None = None
    profile: bool = False

    def __post_init__(self) -> None:
        if self.project and not self.includes:
            raise ValueError("project=True needs includes=True: call "
                             "edges live in the include graph")

    # ------------------------------------------------------------------
    def resolved_jobs(self) -> int:
        """Effective worker count (``None``/``"auto"`` = one per CPU)."""
        if self.jobs is None or self.jobs == "auto":
            return os.cpu_count() or 1
        return max(1, int(self.jobs))

    def resolve_telemetry(self):
        """The run's ``Telemetry``: never ``None``, disabled by default."""
        from repro.telemetry import NULL_TELEMETRY, Telemetry

        if self.telemetry is None or self.telemetry is False:
            return NULL_TELEMETRY
        if self.telemetry is True:
            return Telemetry()
        return self.telemetry
