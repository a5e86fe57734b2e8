"""The tool facades: WAP v2.1 and WAPe.

Both run the full Fig. 1 pipeline — code analyzer → false positive
predictor → (optionally) code corrector — and differ exactly where the
paper says they do:

=====================  ==========================  =========================
aspect                 :class:`Wap21`              :class:`Wape`
=====================  ==========================  =========================
vulnerability classes  the original 8              8 + SF, CS, LDAPI, XPathI
weapons                none                        ``-nosqli -hei -wpsqli``
                                                   + user weapons
attributes             16 (15 + class)             61 (60 + class)
training set           76 instances                256 instances
top-3 classifiers      SVM, LR, Random Tree        SVM, LR, Random Forest
configurable ep/ss/san no (hard-coded)             yes (external data)
=====================  ==========================  =========================
"""

from __future__ import annotations

import time

from repro.exceptions import WeaponConfigError
from repro.analysis.knowledge import extend_config
from repro.analysis.model import CandidateVulnerability
from repro.analysis.options import ScanOptions
from repro.analysis.pipeline import (
    ConfigGroup,
    FusedDetector,
    ScanScheduler,
    ScanState,
)
from repro.corrector import CodeCorrector, CorrectionResult
from repro.exceptions import PhpSyntaxError
from repro.mining.extraction import NO_DYNAMIC_SYMPTOMS, DynamicSymptoms
from repro.mining.predictor import (
    FalsePositivePredictor,
    new_predictor,
    original_predictor,
)
from repro.php.source import content_bytes, line_count
from repro.telemetry import NULL_TELEMETRY, Telemetry, build_scan_stats
from repro.tool.report import AnalysisReport, CandidateOutcome, FileReport
from repro.vulnerabilities import (
    SubModule,
    VulnRegistry,
    build_submodules,
    original_registry,
    wape_registry,
)
from repro.weapons import Weapon, WeaponRegistry


class _BaseTool:
    """Shared pipeline driver for both tool versions."""

    version = "wap-base"

    def __init__(self) -> None:
        self.submodules: dict[str, SubModule] = {}
        self.weapons: list[Weapon] = []
        self.predictor: FalsePositivePredictor | None = None
        self.corrector = CodeCorrector()
        self.groups: dict[str, str] = {}
        self._fused: FusedDetector | None = None

    # -- pipeline -------------------------------------------------------
    def _config_groups(self) -> list[ConfigGroup]:
        """Detection units (sub-modules + armed weapons) for the pipeline."""
        groups: list[ConfigGroup] = []
        for name, sub in self.submodules.items():
            if sub.detector is None:
                continue
            groups.append(ConfigGroup(name, tuple(sub.detector.configs),
                                      split_rfi_lfi=sub.refines_lfi))
        for weapon in self.weapons:
            groups.append(ConfigGroup(f"weapon:{weapon.name}",
                                      tuple(weapon.configs)))
        return groups

    @property
    def fused_detector(self) -> FusedDetector:
        """The single-traversal detector over every sub-module and weapon.

        Built once per tool configuration; arming a weapon rebuilds it.
        """
        if self._fused is None:
            self._fused = FusedDetector(self._config_groups())
        return self._fused

    def _detect(self, source: bytes, filename: str,
                telemetry: Telemetry | None = None
                ) -> list[CandidateVulnerability]:
        if telemetry is not None and telemetry.enabled:
            # traced runs get their own detector so spans land in the
            # run's tracer; the shared fused detector stays untouched
            detector = FusedDetector(self._config_groups(),
                                     telemetry=telemetry)
            return detector.detect_source(source, filename)
        return self.fused_detector.detect_source(source, filename)

    def analyze_source(self, source: str | bytes,
                       filename: str = "<source>",
                       telemetry: Telemetry | None = None
                       ) -> AnalysisReport:
        """Run the pipeline on source text or a file's bytes (see
        :mod:`repro.php.source`), returning a full report."""
        source = content_bytes(source)
        telem = telemetry if telemetry is not None else NULL_TELEMETRY
        report = AnalysisReport(self.version, filename,
                                groups=dict(self.groups))
        assert self.predictor is not None
        with telem.tracer.span("analyze_source", phase="run",
                               file=filename) as root_span:
            start = time.perf_counter()
            file_report = FileReport(filename,
                                     lines_of_code=line_count(source))
            try:
                candidates = self._detect(source, filename, telem)
            except PhpSyntaxError as exc:
                file_report.parse_error = str(exc)
                candidates = []
            with telem.tracer.span("predict", phase="predict"):
                for cand in candidates:
                    prediction = self.predictor.predict(cand)
                    file_report.outcomes.append(
                        CandidateOutcome(cand, prediction))
            file_report.seconds = time.perf_counter() - start
            report.files.append(file_report)
        if telem.enabled:
            report.stats = build_scan_stats(report, telem, root_span)
        return report

    def analyze_file(self, path: str,
                     telemetry: Telemetry | None = None) -> AnalysisReport:
        with open(path, "rb") as f:
            source = f.read()
        return self.analyze_source(source, path, telemetry=telemetry)

    def analyze_tree(self, root: str, options: ScanOptions | None = None
                     ) -> AnalysisReport:
        """Analyze every PHP file under *root*.

        Args:
            options: the run's :class:`ScanOptions` — worker count, cache
                directory, include resolution (and the whole-project
                call-edge policy, ``project=True``), prefilter and
                telemetry.
        """
        scheduler = ScanScheduler(self._config_groups(),
                                  tool_version=self.version,
                                  options=options)
        return self.run_scheduler(scheduler, root)

    def run_scheduler(self, scheduler: ScanScheduler, root: str,
                      paths: list[str] | None = None,
                      hashes: dict[str, str] | None = None,
                      on_file=None) -> AnalysisReport:
        """Scan *root* with a caller-built scheduler, predict, report.

        Every scan runs here: :meth:`analyze_tree` with a fresh
        scheduler, the warm :class:`repro.api.Scanner` with one that
        carries the previous scan of the tree.  A file whose result the
        scheduler kept from that scan keeps its file report too (same
        predictor, report groups and include counts): only the other
        files are predicted, and the scan's state keeps every report
        for the next scan.  Kept reports are shared between the two
        scans' reports, so they are read-only but for the fingerprint
        memo :func:`~repro.tool.report.file_report_dict` fills.

        Args:
            paths: exact file list to scan; defaults to discovering
                *root*.  Lets a caller that already walked the tree pin
                the set (no re-discovery race).
            hashes: the content hashes the caller vouches for, such as
                a warm scanner's hashes of the files whose stat signature
                is unchanged (see :meth:`ScanScheduler.scan_files`);
                needs *paths*.
            on_file: optional ``callable(FileReport)`` invoked per file
                as its verdicts are finalized, in report order — the
                daemon's streaming hook (``POST /v1/scan?stream=1``).
        """
        telem = scheduler.telemetry
        predictor = self.predictor
        report = AnalysisReport(self.version, root,
                                groups=dict(self.groups))
        assert predictor is not None
        memo0 = (predictor.memo_hits, predictor.memo_misses)
        with telem.tracer.span("analyze_tree", phase="run",
                               root=root) as root_span:
            results = scheduler.scan_files(paths, hashes, root) \
                if paths is not None else scheduler.scan_tree(root)
            previous = scheduler.previous
            if previous is not None and (previous.predictor is not predictor
                                         or previous.groups != report.groups):
                previous = None
            with telem.tracer.span("predict", phase="predict",
                                   files=len(results)):
                for result in results:
                    file_report = _kept_report(previous, result) \
                        if previous is not None else None
                    if file_report is None:
                        file_report = self._predict_result(result, telem)
                    report.files.append(file_report)
                    if on_file is not None:
                        on_file(file_report)
        state = scheduler.state  # every scan leaves one
        state.reports = {f.filename: f for f in report.files}
        state.predictor = predictor
        state.groups = report.groups
        report.cache = scheduler.cache_stats
        report.prefilter = scheduler.prefilter_stats
        if telem.enabled:
            telem.metrics.counter("predictor_memo_hits").inc(
                predictor.memo_hits - memo0[0])
            telem.metrics.counter("predictor_memo_misses").inc(
                predictor.memo_misses - memo0[1])
            report.stats = build_scan_stats(
                report, telem, root_span, cache=report.cache,
                retries=scheduler.retries, crashes=scheduler.crashes)
        return report

    def _predict_result(self, result, telem: Telemetry) -> FileReport:
        """Classify one scan result's candidates into a file report."""
        predictor = self.predictor
        assert predictor is not None
        start = time.perf_counter()
        file_report = FileReport(
            result.filename,
            result.lines_of_code,
            parse_error=result.parse_error,
            parse_warning=getattr(result, "parse_warning", None),
            recovered_statements=getattr(result, "recovered_statements", 0),
            resolved_includes=getattr(result, "resolved_includes", 0),
            unresolved_includes=getattr(result, "unresolved_includes", 0))
        if telem.enabled and result.candidates:
            with telem.tracer.span("predict_file", phase="predict",
                                   file=result.filename) as span:
                for cand in result.candidates:
                    file_report.outcomes.append(CandidateOutcome(
                        cand, predictor.predict(cand)))
                span.set(candidates=len(result.candidates))
        else:
            for cand in result.candidates:
                file_report.outcomes.append(
                    CandidateOutcome(cand, predictor.predict(cand)))
        file_report.seconds = result.seconds + \
            (time.perf_counter() - start)
        return file_report

    # -- correction -----------------------------------------------------
    def correct_source(self, source: str,
                       report: AnalysisReport | None = None,
                       filename: str = "<source>") -> CorrectionResult:
        """Fix the real vulnerabilities of *source* (Fig. 1, box 3)."""
        if report is None:
            report = self.analyze_source(source, filename)
        real = [o.candidate for o in report.real_vulnerabilities]
        return self.corrector.correct_source(source, real, filename)

    def correct_file(self, path: str,
                     output_path: str | None = None) -> CorrectionResult:
        report = self.analyze_file(path)
        real = [o.candidate for o in report.real_vulnerabilities]
        return self.corrector.correct_file(path, real, output_path)

    # -- introspection ---------------------------------------------------
    @property
    def class_ids(self) -> list[str]:
        out: list[str] = []
        for sub in self.submodules.values():
            out.extend(sub.class_ids)
        for weapon in self.weapons:
            out.extend(weapon.class_ids)
        return sorted(set(out))


class Wap21(_BaseTool):
    """The original WAP v2.1: 8 classes, 16 attributes, no extensibility."""

    version = "WAP v2.1"

    def __init__(self) -> None:
        super().__init__()
        registry = original_registry()
        self.registry = registry
        self.submodules = build_submodules(registry)
        self.predictor = original_predictor()
        self.groups = {info.class_id: info.group() for info in registry}
        self._fused = FusedDetector(self._config_groups())


class Wape(_BaseTool):
    """WAPe: the modular, extensible version presented by the paper.

    Args:
        weapon_flags: activation flags for weapons (``["-nosqli",
            "-hei", "-wpsqli"]`` for the builtins, plus any user weapon
            registered in *weapon_registry*).
        weapon_registry: where flags are resolved; defaults to the builtin
            registry.
        extra_sanitizers: per-class extra sanitization functions — the
            §V-A scenario of feeding vfront's ``escape`` helper to the
            tool: ``{"sqli": {"escape"}}``.
        dynamic_symptoms: extra user dynamic symptoms (§III-B2), merged
            with those carried by activated weapons.
    """

    version = "WAPe"

    def __init__(self,
                 weapon_flags: list[str] | tuple[str, ...] = (),
                 weapon_registry: WeaponRegistry | None = None,
                 extra_sanitizers: dict[str, set[str]] | None = None,
                 dynamic_symptoms: DynamicSymptoms = NO_DYNAMIC_SYMPTOMS,
                 class_registry: VulnRegistry | None = None,
                 ) -> None:
        super().__init__()
        registry = class_registry or wape_registry(include_weapons=False)
        self.registry = registry
        self.weapon_registry = weapon_registry or \
            WeaponRegistry.with_builtins()

        if extra_sanitizers:
            registry = _extend_registry(registry, extra_sanitizers)
            self.registry = registry
        self.submodules = build_submodules(registry)
        self.groups = {info.class_id: info.group() for info in registry}

        dynamic = dynamic_symptoms
        for flag in weapon_flags:
            weapon = self.weapon_registry.by_flag(flag)
            self.weapons.append(weapon)
            dynamic = dynamic.merged(weapon.dynamic_symptoms)
            for class_id in weapon.class_ids:
                self.groups[class_id] = weapon.report_group(class_id)
            self.corrector.register_fix(weapon.class_ids[0], weapon.fix)
            for class_id in weapon.class_ids[1:]:
                self.corrector.class_fixes[class_id] = weapon.fix.fix_id

        self.predictor = new_predictor(dynamic)
        self._fused = FusedDetector(self._config_groups())

    def arm(self, weapon: Weapon) -> None:
        """Register and activate a freshly generated weapon."""
        if weapon.name not in self.weapon_registry:
            self.weapon_registry.register(weapon)
        elif self.weapon_registry.by_name(weapon.name) is not weapon:
            raise WeaponConfigError(
                f"a different weapon named {weapon.name!r} exists")
        self.weapons.append(weapon)
        for class_id in weapon.class_ids:
            self.groups[class_id] = weapon.report_group(class_id)
        self.corrector.register_fix(weapon.class_ids[0], weapon.fix)
        for class_id in weapon.class_ids[1:]:
            self.corrector.class_fixes[class_id] = weapon.fix.fix_id
        assert self.predictor is not None
        self.predictor = self.predictor.with_dynamic(
            weapon.dynamic_symptoms)
        self._fused = FusedDetector(self._config_groups())


def _kept_report(previous: ScanState, result) -> FileReport | None:
    """The previous scan's report of *result*, when the scheduler kept
    the result and the report's include counts still match it."""
    if result is not previous.results.get(result.filename):
        return None
    kept = previous.reports.get(result.filename)
    if kept is None \
            or kept.resolved_includes != result.resolved_includes \
            or kept.unresolved_includes != result.unresolved_includes:
        return None
    return kept


def _extend_registry(registry: VulnRegistry,
                     extra_sanitizers: dict[str, set[str]]) -> VulnRegistry:
    """Clone *registry* with extra sanitizers merged into named classes."""
    import dataclasses
    out = VulnRegistry()
    for info in registry:
        extra = extra_sanitizers.get(info.class_id)
        if extra:
            out.add(dataclasses.replace(
                info, config=extend_config(info.config,
                                           sanitizers=set(extra))))
        else:
            out.add(info)
    return out
