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

from .records import ArgumentPair
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
    """A screen was applied to an instance that is not ready for it."""


@dataclass
class SyntheticInstance:
    """A generated candidate pair with intended label and screening state."""

    pair: ArgumentPair
    intended: RelationLabel
    backend: str
    template: str
    domain: str
    predicted: RelationLabel | None = None
    connective: str | None = None
    example_id: str = ""
    cache_hit: bool = False  # in memory only: records must not depend on cache state
    decoding: Mapping[str, object] = field(default_factory=dict)
    verdicts: dict[ScreenKind, bool] = field(default_factory=dict)

    def set_predicted(self, label: RelationLabel) -> None:
        if self.predicted is not None and self.predicted != label:
            raise ScreeningError("prediction already set to a different label")
        self.predicted = label

    def set_verdict(self, kind: ScreenKind, keep: bool) -> None:
        if kind in self.verdicts and self.verdicts[kind] != keep:
            raise ScreeningError(f"{kind.value} verdict already set")
        self.verdicts[kind] = keep

    def _require_prediction(self) -> RelationLabel:
        if self.predicted is None:
            raise ScreeningError("instance has no base-model prediction yet")
        return self.predicted


def strict_screen(inst: SyntheticInstance) -> bool:
    """Keep iff the base model predicted the intended label."""
    return inst._require_prediction() == inst.intended


def confusion_screen(inst: SyntheticInstance, cmap: ConfusionMap) -> bool:
    """Keep unless the prediction equals confuse(intended).

    An intended label without a map entry has no misprediction to screen
    out, so its instances are kept.
    """
    predicted = inst._require_prediction()
    return inst.intended not in cmap or predicted != cmap.confusion_of(inst.intended)


def combi_screen(inst: SyntheticInstance, cmap: ConfusionMap, freq: FrequencyTable) -> bool:
    """Confusion screen for rare intended labels, strict screen otherwise."""
    if is_rare(inst.intended, freq):
        return confusion_screen(inst, cmap)
    return strict_screen(inst)


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

    @property
    def candidates(self) -> int:
        return sum(s.candidates for s in self.strata.values())

    @property
    def kept(self) -> int:
        return sum(s.kept for s in self.strata.values())

    def validate(self) -> None:
        for key, stats in self.strata.items():
            if stats.kept > stats.candidates:
                raise ScreeningError(f"stratum {key} kept more than its candidates")
            if sum(stats.kept_per_label.values()) != stats.kept:
                raise ScreeningError(f"stratum {key} histogram does not sum to kept")


def screen_batch(
    batch: Sequence[SyntheticInstance],
    kind: ScreenKind,
    cmap: ConfusionMap | None = None,
    freq: FrequencyTable | None = None,
) -> tuple[list[SyntheticInstance], ScreeningReport]:
    """Apply one screen to a whole batch, preserving input order."""
    if kind in (ScreenKind.CONFUSION, ScreenKind.COMBI) and cmap is None:
        raise ScreeningError(f"{kind.value} screen needs a confusion map")
    if kind is ScreenKind.COMBI and freq is None:
        raise ScreeningError("combi screen needs a frequency table")
    report = ScreeningReport(screen=kind)
    kept: list[SyntheticInstance] = []
    for inst in batch:
        if kind is ScreenKind.STRICT:
            verdict = strict_screen(inst)
        elif kind is ScreenKind.CONFUSION:
            verdict = confusion_screen(inst, cmap)
        else:
            verdict = combi_screen(inst, cmap, freq)
        inst.set_verdict(kind, verdict)
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
        "verdicts": {kind.value: keep for kind, keep in inst.verdicts.items()},
    }
    if inst.connective is not None:
        record["connective"] = inst.connective
    if inst.predicted is not None:
        record["predicted"] = inst.predicted.level2
    return record


def write_synthetic_records(instances: Iterable[SyntheticInstance], path: str | Path) -> None:
    from .records import write_records

    write_records((synthetic_record(i) for i in instances), path)


def read_synthetic_records(path: str | Path) -> list[SyntheticInstance]:
    from .records import _iter_json_lines

    instances: list[SyntheticInstance] = []
    for _, record in _iter_json_lines(path):
        inst = SyntheticInstance(
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
        if "predicted" in record:
            inst.predicted = resolve_label(record["predicted"])
        for name, keep in record.get("verdicts", {}).items():
            inst.verdicts[ScreenKind(name)] = bool(keep)
        instances.append(inst)
    return instances


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
