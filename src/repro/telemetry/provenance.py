"""Explainable candidate provenance.

Every :class:`~repro.analysis.model.CandidateVulnerability` already
carries the raw data-flow path the taint engine walked.  This module
turns that path into an *explained* decision trace: for each hop it
states what the engine concluded and why — the entry point is attacker
controlled, an assignment or concatenation propagated the taint, a
function call did **not** untaint because it is not a registered
sanitizer for the class, a validation guard was recorded as a symptom
(not as sanitization), the sink was reached, and finally what the
false-positive predictor decided and on which symptom vector.

This is the per-candidate analogue of WAP's false-positive justification
(Fig. 3): instead of explaining only why a candidate was *dismissed*, the
provenance explains why it was *kept* at every step.  The
``repro.tool.explain`` command renders it; ``Provenance.to_dict`` feeds
the JSON report.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable

from repro.analysis.model import (
    STEP_ASSIGN,
    STEP_CALL,
    STEP_CONCAT,
    STEP_GUARD,
    STEP_PARAM,
    STEP_RETURN,
    STEP_SINK,
    STEP_SOURCE,
    CandidateVulnerability,
)

#: provenance event stages, in path order.
STAGE_SOURCE = "source"
STAGE_PROPAGATE = "propagate"
STAGE_GUARD = "guard"
STAGE_SINK = "sink"


@dataclass(frozen=True)
class ProvenanceEvent:
    """One explained decision along a candidate's data-flow path."""

    stage: str
    detail: str
    line: int
    note: str = ""
    #: set when the hop happened in a *different* file than the candidate
    #: (cross-file flow through a resolved include); empty otherwise.
    file: str = ""

    def to_dict(self) -> dict:
        out = {"stage": self.stage, "detail": self.detail,
               "line": self.line, "note": self.note}
        if self.file:
            out["file"] = self.file
        return out


@dataclass(frozen=True)
class Provenance:
    """The full explained trace of one candidate (plus the verdict)."""

    vuln_class: str
    filename: str
    events: tuple[ProvenanceEvent, ...]
    verdict: str | None = None          # "real" | "false_positive" | None
    symptoms: tuple[str, ...] = ()
    votes: tuple[tuple[str, int], ...] = ()

    def to_dict(self) -> dict:
        return {
            "class": self.vuln_class,
            "file": self.filename,
            "verdict": self.verdict,
            "symptoms": list(self.symptoms),
            "votes": dict(self.votes),
            "events": [e.to_dict() for e in self.events],
        }

    def render(self) -> str:
        """Human-readable provenance (what ``explain`` prints)."""
        head = next((e for e in self.events if e.stage == STAGE_SINK), None)
        title = (f"{self.vuln_class} candidate at "
                 f"{self.filename}:{head.line if head else '?'}")
        lines = [title]
        for event in self.events:
            if event.file:
                where = f" ({event.file}:{event.line})"
            else:
                where = f" (line {event.line})" if event.line else ""
            note = f" — {event.note}" if event.note else ""
            lines.append(f"  {event.stage:>9}: {event.detail}"
                         f"{where}{note}")
        if self.verdict is not None:
            verdict = ("REAL vulnerability" if self.verdict == "real"
                       else "predicted FALSE POSITIVE")
            symptoms = ", ".join(self.symptoms) or "none"
            votes = ", ".join(f"{name}={'FP' if v else 'RV'}"
                              for name, v in self.votes)
            lines.append(f"    verdict: {verdict}")
            lines.append(f"             symptoms: {symptoms}")
            if votes:
                lines.append(f"             votes: {votes}")
        return "\n".join(lines)


def build_provenance(candidate: CandidateVulnerability,
                     prediction=None,
                     sanitizers: Iterable[str] = ()) -> Provenance:
    """Explain one candidate's path, decision by decision.

    Args:
        candidate: the flagged data flow.
        prediction: the predictor's
            :class:`~repro.mining.predictor.Prediction`, if available —
            contributes the verdict, symptom vector and classifier votes.
        sanitizers: the sanitization functions registered for the
            candidate's class; used to state, per call hop, that the
            function did *not* untaint (the §V-A ``escape`` scenario).
    """
    known = {s.lower() for s in sanitizers}
    cls = candidate.vuln_class
    events: list[ProvenanceEvent] = []
    for step in candidate.path:
        if step.kind == STEP_SOURCE:
            events.append(ProvenanceEvent(
                STAGE_SOURCE, f"read of {step.detail}", step.line,
                "attacker-controlled entry point — taint born here"))
        elif step.kind == STEP_ASSIGN:
            events.append(ProvenanceEvent(
                STAGE_PROPAGATE, f"assigned to {step.detail}", step.line,
                "taint propagated by assignment"))
        elif step.kind == STEP_CONCAT:
            events.append(ProvenanceEvent(
                STAGE_PROPAGATE, f"string built via {step.detail}",
                step.line,
                "concatenation keeps the payload attacker-controlled"))
        elif step.kind == STEP_CALL:
            name = step.detail.lower().rstrip("()")
            if name in known:
                note = (f"registered {cls} sanitizer — would untaint "
                        "(taint reached the sink by another hop)")
            else:
                note = (f"not a registered {cls} sanitizer — "
                        "taint preserved")
            events.append(ProvenanceEvent(
                STAGE_PROPAGATE, f"passed through {step.detail}()",
                step.line, note))
        elif step.kind == STEP_GUARD:
            events.append(ProvenanceEvent(
                STAGE_GUARD, f"validated by {step.detail}", step.line,
                "recorded as a symptom for the predictor, "
                "does not untaint"))
        elif step.kind == STEP_PARAM:
            events.append(ProvenanceEvent(
                STAGE_PROPAGATE, f"entered function as {step.detail}",
                step.line, "inter-procedural propagation into a callee"))
        elif step.kind == STEP_RETURN:
            events.append(ProvenanceEvent(
                STAGE_PROPAGATE, "returned to the caller", step.line,
                "inter-procedural propagation out of a callee"))
        elif step.kind == STEP_SINK:
            detail = f"reached sensitive sink {step.detail}"
            if candidate.tainted_args:
                args = ", ".join(str(i) for i in candidate.tainted_args)
                detail += f" (tainted argument {args})"
            events.append(ProvenanceEvent(
                STAGE_SINK, detail, step.line,
                f"{candidate.sink_kind} sink of class {cls} — "
                "candidate emitted"))
        else:  # future step kinds degrade gracefully
            events.append(ProvenanceEvent(
                STAGE_PROPAGATE, f"{step.kind}: {step.detail}", step.line))
        hop_file = getattr(step, "file", "")
        if hop_file and hop_file != candidate.filename:
            note = events[-1].note
            if step.kind in (STEP_PARAM, STEP_RETURN):
                # inter-procedural hops in a foreign file are replayed
                # from the dependency's function summary, not from
                # re-executing its body in the includer's analysis
                origin = ("replayed from the include closure's "
                          "composed function summary")
                note = f"{note}; {origin}" if note else origin
            events[-1] = replace(events[-1], file=hop_file, note=note)

    verdict = None
    symptoms: tuple[str, ...] = ()
    votes: tuple[tuple[str, int], ...] = ()
    if prediction is not None:
        verdict = ("false_positive" if prediction.is_false_positive
                   else "real")
        symptoms = tuple(sorted(prediction.symptoms))
        votes = tuple(sorted(prediction.votes.items()))
    return Provenance(cls, candidate.filename, tuple(events),
                      verdict, symptoms, votes)
