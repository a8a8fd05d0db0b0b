"""Screen synthetic candidates with the source-domain classifier.

Three screens, all pure functions of (intended label, predicted label,
confusion map, frequency table):

  strict     keep iff the prediction matches the intended label
  confusion  keep unless the prediction is the intended label's most
             frequent misprediction
  combi      confusion screen for rare intended labels, strict otherwise

An intended label without a confusion-map entry has no misprediction to
screen out, so the confusion screen keeps it. An exact match always
survives the confusion screen (confuse(L') != L' by construction), so per
instance strict pass => combi pass => confusion pass.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from .records import ArgumentPair, _iter_json_lines, write_records
from .taxonomy import (
    ConfusionMap,
    FrequencyTable,
    RelationLabel,
    is_rare,
    resolve_label,
)


class ScreenKind(str, Enum):
    STRICT = "strict"
    CONFUSION = "confusion"
    COMBI = "combi"

    @property
    def short_name(self) -> str:
        """Report column name; the confusion screen prints as ``confuse``."""
        return "confuse" if self is ScreenKind.CONFUSION else self.value


class ScreeningError(ValueError):
    """A screen lacks the map it needs, or its report does not add up."""


@dataclass(frozen=True)
class SyntheticInstance:
    """A generated candidate pair with its intended label and generation provenance."""

    pair: ArgumentPair
    intended: RelationLabel
    backend: str
    template: str
    domain: str
    connective: str | None = None
    example_id: str = ""
    decoding: Mapping[str, object] = field(default_factory=dict)


def strict_screen(intended: RelationLabel, predicted: RelationLabel) -> bool:
    """Keep iff the base model predicted the intended label."""
    return predicted == intended


def confusion_screen(
    intended: RelationLabel, predicted: RelationLabel, cmap: ConfusionMap
) -> bool:
    """Keep unless the prediction equals confuse(intended).

    An intended label without a map entry has no misprediction to screen
    out, so its instances are kept.
    """
    return intended not in cmap or predicted != cmap.confusion_of(intended)


def combi_screen(
    intended: RelationLabel, predicted: RelationLabel, cmap: ConfusionMap, freq: FrequencyTable
) -> bool:
    """Confusion screen for rare intended labels, strict screen otherwise."""
    if is_rare(intended, freq):
        return confusion_screen(intended, predicted, cmap)
    return strict_screen(intended, predicted)


@dataclass
class StratumStats:
    candidates: int = 0
    kept: int = 0
    kept_per_label: dict[str, int] = field(default_factory=dict)


@dataclass
class ScreeningReport:
    """Kept/candidate counts per (domain, backend, template) stratum."""

    screen: ScreenKind
    strata: dict[tuple[str, str, str], StratumStats] = field(default_factory=dict)

    def record(self, inst: SyntheticInstance, kept: bool) -> None:
        key = (inst.domain, inst.backend, inst.template)
        stats = self.strata.setdefault(key, StratumStats())
        stats.candidates += 1
        if kept:
            stats.kept += 1
            name = inst.intended.level2
            stats.kept_per_label[name] = stats.kept_per_label.get(name, 0) + 1

    def validate(self) -> None:
        for key, stats in self.strata.items():
            if stats.kept > stats.candidates:
                raise ScreeningError(f"stratum {key} kept more than its candidates")
            if sum(stats.kept_per_label.values()) != stats.kept:
                raise ScreeningError(f"stratum {key} histogram does not sum to kept")


def screen_batch(
    batch: Sequence[SyntheticInstance],
    predicted: Sequence[RelationLabel],
    kind: ScreenKind,
    cmap: ConfusionMap | None = None,
    freq: FrequencyTable | None = None,
) -> tuple[list[SyntheticInstance], ScreeningReport]:
    """Apply one screen to a whole batch, given the base model's label for each instance.

    Input order is preserved; ``predicted`` must be as long as ``batch``.
    """
    if kind in (ScreenKind.CONFUSION, ScreenKind.COMBI) and cmap is None:
        raise ScreeningError(f"{kind.value} screen needs a confusion map")
    if kind is ScreenKind.COMBI and freq is None:
        raise ScreeningError("combi screen needs a frequency table")
    report = ScreeningReport(screen=kind)
    kept: list[SyntheticInstance] = []
    for inst, label in zip(batch, predicted, strict=True):
        if kind is ScreenKind.STRICT:
            verdict = strict_screen(inst.intended, label)
        elif kind is ScreenKind.CONFUSION:
            verdict = confusion_screen(inst.intended, label, cmap)
        else:
            verdict = combi_screen(inst.intended, label, cmap, freq)
        report.record(inst, verdict)
        if verdict:
            kept.append(inst)
    report.validate()
    return kept, report


def render_screening_report(report: ScreeningReport, domains: Sequence[str]) -> str:
    """Delimited table: one row per domain, one column per (backend, template)."""
    columns = list(dict.fromkeys((backend, template) for _, backend, template in report.strata))
    header = ["domain"] + [f"{b}/{t}/{report.screen.short_name}" for b, t in columns]
    lines = ["\t".join(header)]
    for domain in domains:
        stats = [report.strata.get((domain, b, t)) for b, t in columns]
        lines.append("\t".join([domain] + ["" if st is None else str(st.kept) for st in stats]))
    return "\n".join(lines) + "\n"


def synthetic_record(inst: SyntheticInstance) -> dict:
    record = {
        "arg1": inst.pair.arg1,
        "arg2": inst.pair.arg2,
        "doc_id": inst.pair.doc_id,
        "domain": inst.domain,
        "label": inst.intended.level2,
        "provenance": "synthetic",
        "backend": inst.backend,
        "template": inst.template,
        "example_id": inst.example_id,
        "decoding": dict(inst.decoding),
    }
    if inst.connective is not None:
        record["connective"] = inst.connective
    return record


def write_synthetic_records(instances: Iterable[SyntheticInstance], path: str | Path) -> None:
    write_records((synthetic_record(i) for i in instances), path)


def read_synthetic_records(path: str | Path) -> list[SyntheticInstance]:
    return [
        SyntheticInstance(
            pair=ArgumentPair(
                arg1=record["arg1"], arg2=record["arg2"], doc_id=record.get("doc_id", "")
            ),
            intended=resolve_label(record["label"]),
            backend=record["backend"],
            template=record["template"],
            domain=record["domain"],
            connective=record.get("connective"),
            example_id=record.get("example_id", ""),
            decoding=record.get("decoding", {}),
        )
        for _, record in _iter_json_lines(path)
    ]


def report_to_json(report: ScreeningReport) -> str:
    payload = {
        "screen": report.screen.value,
        "strata": [
            {
                "domain": domain,
                "backend": backend,
                "template": template,
                "candidates": stats.candidates,
                "kept": stats.kept,
                "kept_per_label": dict(sorted(stats.kept_per_label.items())),
            }
            for (domain, backend, template), stats in sorted(report.strata.items())
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2)
