"""Vulnerability class registry.

Each of the 15 classes the tool handles is described by a
:class:`VulnClassInfo`: its detector configuration (the ep/ss/san triple),
which Fig. 2 sub-module owns it, whether it shipped with WAP v2.1 or was
added in WAPe (via sub-module reuse or via a weapon), and the data the code
corrector needs to build its fix.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.model import DetectorConfig

# sub-module names (Fig. 2)
SUBMODULE_RCE_FILE = "rce_file_injection"
SUBMODULE_CLIENT_SIDE = "client_side_injection"
SUBMODULE_QUERY = "query_injection"
SUBMODULE_WEAPON = "weapon"

# how the class entered the tool
ORIGIN_V21 = "wap-v2.1"            # one of the original eight
ORIGIN_SUBMODULE = "wape-submodule"  # §IV-B: reused sub-modules
ORIGIN_WEAPON = "wape-weapon"        # §IV-C: generated weapon


@dataclass(frozen=True)
class VulnClassInfo:
    """Static metadata for one vulnerability class.

    Attributes:
        class_id: machine id (``sqli``).
        display_name: human name ("SQL injection").
        table_label: the label used in the paper's tables ("SQLI").
        submodule: owning Fig. 2 sub-module.
        origin: one of the ``ORIGIN_*`` constants.
        config: the detector configuration (ep/ss/san).
        fix_id: name of the fix the corrector applies (``san_sqli``).
        malicious_chars: characters an attacker needs, used by the
            user-sanitization / user-validation fix templates.
        report_group: column this class is counted under in Table VI/VII
            ("Files" merges DT & RFI, LFI).
    """

    class_id: str
    display_name: str
    table_label: str
    submodule: str
    origin: str
    config: DetectorConfig
    fix_id: str = ""
    malicious_chars: tuple[str, ...] = ()
    report_group: str = ""

    def group(self) -> str:
        return self.report_group or self.table_label


@dataclass
class VulnRegistry:
    """A mutable collection of vulnerability classes (the tool's loadout)."""

    classes: dict[str, VulnClassInfo] = field(default_factory=dict)

    def add(self, info: VulnClassInfo) -> None:
        if info.class_id in self.classes:
            raise ValueError(f"duplicate class {info.class_id}")
        self.classes[info.class_id] = info

    def get(self, class_id: str) -> VulnClassInfo:
        return self.classes[class_id]

    def __contains__(self, class_id: str) -> bool:
        return class_id in self.classes

    def __iter__(self):
        return iter(self.classes.values())

    def __len__(self) -> int:
        return len(self.classes)

    def configs(self) -> list[DetectorConfig]:
        return [info.config for info in self.classes.values()]

    def by_submodule(self, submodule: str) -> list[VulnClassInfo]:
        return [info for info in self.classes.values()
                if info.submodule == submodule]
