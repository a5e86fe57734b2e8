"""The three detector sub-modules of Fig. 2 and their class-specific
refinements.

§III-A: each sub-module is fed entry points, sensitive sinks and
sanitization functions, and owns "specific characteristics" of its classes.
The one genuinely class-specific characteristic in this reproduction is the
RFI/LFI split: both fire on tainted ``include``-family sinks, and the
sub-module classifies each report by the *shape* of the tainted path —
an include target concatenated with literal path fragments is a local-file
inclusion, a fully attacker-controlled target is a remote-file inclusion.
"""

from __future__ import annotations

from repro.analysis.detector import Detector
from repro.analysis.model import CandidateVulnerability
from repro.analysis.pipeline import split_rfi_lfi
from repro.vulnerabilities.classes import (
    SUBMODULE_CLIENT_SIDE,
    SUBMODULE_QUERY,
    SUBMODULE_RCE_FILE,
    VulnClassInfo,
    VulnRegistry,
)


class SubModule:
    """A group of vulnerability classes analyzed together.

    Wraps a :class:`~repro.analysis.detector.Detector` over the group's
    configurations and applies class-specific refinement to the raw
    candidates.
    """

    def __init__(self, name: str, infos: list[VulnClassInfo]) -> None:
        self.name = name
        self.infos = list(infos)
        configs = [info.config for info in infos if info.config.sinks
                   or info.config.source_functions]
        #: whether this group applies the RFI/LFI shape refinement
        self.refines_lfi = any(info.class_id == "lfi" for info in infos)
        self.detector = Detector(configs) if configs else None

    @property
    def class_ids(self) -> list[str]:
        return [info.class_id for info in self.infos]

    def detect_source(self, source: str, filename: str = "<source>"
                      ) -> list[CandidateVulnerability]:
        if self.detector is None:
            return []
        return self.refine(self.detector.detect_source(source, filename))

    def refine(self, candidates: list[CandidateVulnerability]
               ) -> list[CandidateVulnerability]:
        """Apply class-specific post-processing to raw engine reports."""
        if not self.refines_lfi:
            return candidates
        return [split_rfi_lfi(c) for c in candidates]


def build_submodules(registry: VulnRegistry) -> dict[str, SubModule]:
    """Instantiate the three Fig. 2 sub-modules from a registry.

    Weapon-origin classes are not included here — weapons are separate
    detectors plugged in next to the sub-modules (§III-D).
    """
    out: dict[str, SubModule] = {}
    for name in (SUBMODULE_RCE_FILE, SUBMODULE_CLIENT_SIDE,
                 SUBMODULE_QUERY):
        infos = registry.by_submodule(name)
        if infos:
            out[name] = SubModule(name, infos)
    return out
