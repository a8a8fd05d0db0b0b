"""Relation label hierarchy, connective and confusion maps, frequency tables.

The classifier is trained on 14 level-2 labels. A few further labels occur
only in crowd-annotated target data (similarity, disjunction, exception) or
mark the absence of a relation (no-relation); they are representable so that
vote distributions and confusion maps can mention them, but they are never
part of the training label set.

Tie-breaking anywhere in the package uses the single global label order:
the 14 training labels in their canonical order, then the remaining labels
alphabetically.
"""

from __future__ import annotations

import logging
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources
from typing import Iterable, Mapping

logger = logging.getLogger(__name__)


class LabelError(KeyError):
    """Unknown label string or a label missing from a map."""

    def __str__(self) -> str:  # KeyError would quote the message
        return str(self.args[0]) if self.args else ""


@dataclass(frozen=True)
class RelationLabel:
    """A level-2 relation label with its level-1 group."""

    level2: str
    level1: str

    def __str__(self) -> str:
        return self.level2

    @property
    def title_name(self) -> str:
        """Display form with a leading capital, e.g. ``Level-of-detail``."""
        return self.level2.capitalize()

    @property
    def upper_name(self) -> str:
        return self.level2.upper()


# Canonical order: the 14 training labels first, extras after.
_TRAINING_SPECS = (
    ("conjunction", "Expansion"),
    ("level-of-detail", "Expansion"),
    ("instantiation", "Expansion"),
    ("manner", "Expansion"),
    ("substitution", "Expansion"),
    ("equivalence", "Expansion"),
    ("cause", "Contingency"),
    ("purpose", "Contingency"),
    ("cause+belief", "Contingency"),
    ("condition", "Contingency"),
    ("concession", "Contrast"),
    ("contrast", "Contrast"),
    ("asynchronous", "Temporal"),
    ("synchronous", "Temporal"),
)
# Labels seen only in crowd-annotated data, alphabetical. no-relation is the
# marker crowdworkers use when they see no implicit relation at all; it sits
# outside the level-1 hierarchy.
_EXTRA_SPECS = (
    ("disjunction", "Expansion"),
    ("exception", "Expansion"),
    ("no-relation", "NoRel"),
    ("similarity", "Contrast"),
)

_REGISTRY: dict[str, RelationLabel] = {
    name: RelationLabel(name, group) for name, group in _TRAINING_SPECS + _EXTRA_SPECS
}
_GLOBAL_ORDER: dict[str, int] = {name: i for i, name in enumerate(_REGISTRY)}

NO_RELATION = _REGISTRY["no-relation"]


def normalize_label_string(raw: str) -> str:
    """Fold case, whitespace, and underscores so corpus spellings converge."""
    folded = re.sub(r"[\s_]+", "-", raw.strip().lower())
    return re.sub(r"-+", "-", folded)


def resolve_label(raw: str) -> RelationLabel:
    """Resolve a corpus label string to its canonical RelationLabel.

    Raises LabelError naming the offending string when it is unknown.
    """
    key = normalize_label_string(raw)
    try:
        return _REGISTRY[key]
    except KeyError:
        raise LabelError(f"unknown relation label: {raw!r}") from None


def all_labels() -> list[RelationLabel]:
    """Every representable label, in global order."""
    return list(_REGISTRY.values())


def training_label_set() -> list[RelationLabel]:
    """The 14 level-2 labels the classifier is trained on, canonical order."""
    return [_REGISTRY[name] for name, _ in _TRAINING_SPECS]


def generation_label_set(include_similarity: bool = False) -> list[RelationLabel]:
    """Labels used to steer generation: the training set, optionally +similarity."""
    labels = training_label_set()
    if include_similarity:
        labels.append(_REGISTRY["similarity"])
    return labels


def label_order(label: RelationLabel) -> int:
    """Position in the global tie-breaking order."""
    return _GLOBAL_ORDER[label.level2]


def first_in_order(labels: Iterable[RelationLabel]) -> RelationLabel:
    """Earliest label in the global order; the documented tie-break."""
    candidates = list(labels)
    if not candidates:
        raise LabelError("cannot tie-break an empty label collection")
    return min(candidates, key=label_order)


def _strip_comments(text: str) -> list[str]:
    lines = []
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            lines.append(line)
    return lines


def _read_resource(name: str) -> str:
    return resources.files("drsynth.resources").joinpath(name).read_text("utf-8")


@dataclass(frozen=True)
class ConnectiveMap:
    """Two connective options per training label, for DC-style prompts."""

    entries: Mapping[RelationLabel, tuple[str, str]]

    def __post_init__(self) -> None:
        expected = set(training_label_set())
        got = set(self.entries)
        if got != expected:
            missing = sorted(l.level2 for l in expected - got)
            extra = sorted(l.level2 for l in got - expected)
            raise ValueError(
                f"connective map must cover exactly the training labels; "
                f"missing={missing} extra={extra}"
            )
        for label, options in self.entries.items():
            if len(options) != 2 or not all(o.strip() for o in options):
                raise ValueError(f"label {label} needs two non-empty connective options")

    def options(self, label: RelationLabel) -> tuple[str, str]:
        try:
            return self.entries[label]
        except KeyError:
            raise LabelError(f"no connectives for label {label}") from None


def parse_connective_map(text: str) -> ConnectiveMap:
    """Parse ``label: option1 | option2`` lines."""
    entries: dict[RelationLabel, tuple[str, str]] = {}
    for line in _strip_comments(text):
        name, _, rest = line.partition(":")
        options = tuple(part.strip() for part in rest.split("|"))
        if len(options) != 2:
            raise ValueError(f"expected two |-separated options: {line!r}")
        entries[resolve_label(name)] = options  # type: ignore[assignment]
    return ConnectiveMap(entries)


@lru_cache(maxsize=1)
def default_connective_map() -> ConnectiveMap:
    return parse_connective_map(_read_resource("connectives.txt"))


@dataclass(frozen=True)
class ConfusionMap:
    """Most frequent misprediction of each intended label."""

    entries: Mapping[RelationLabel, RelationLabel]

    def __post_init__(self) -> None:
        for intended, confused in self.entries.items():
            if intended == confused:
                raise ValueError(f"confusion map maps {intended} to itself")

    def __contains__(self, label: RelationLabel) -> bool:
        return label in self.entries

    def confusion_of(self, label: RelationLabel) -> RelationLabel:
        try:
            return self.entries[label]
        except KeyError:
            raise LabelError(f"no confusion entry for label {label}") from None


def parse_confusion_map(text: str) -> ConfusionMap:
    """Parse ``intended -> confused`` lines."""
    entries: dict[RelationLabel, RelationLabel] = {}
    for line in _strip_comments(text):
        left, arrow, right = line.partition("->")
        if not arrow:
            raise ValueError(f"expected 'label -> label': {line!r}")
        entries[resolve_label(left.strip())] = resolve_label(right.strip())
    return ConfusionMap(entries)


def load_confusion_map(path: str | None = None) -> ConfusionMap:
    """Load the bundled confusion map, or a user-edited copy from ``path``."""
    if path is None:
        return default_confusion_map()
    with open(path, encoding="utf-8") as handle:
        return parse_confusion_map(handle.read())


@lru_cache(maxsize=1)
def default_confusion_map() -> ConfusionMap:
    return parse_confusion_map(_read_resource("confusion.txt"))


def confusion_of(label: RelationLabel, cmap: ConfusionMap) -> RelationLabel:
    return cmap.confusion_of(label)


def derive_confusion_map(
    matrix: Mapping[RelationLabel, Mapping[RelationLabel, int]],
) -> ConfusionMap:
    """Derive confuse(L') from a dev-set confusion matrix.

    ``matrix[true][predicted]`` holds prediction counts. For each true label
    the most frequent off-diagonal prediction wins; ties break by global
    label order. Rows with no off-diagonal mass are omitted with a warning.
    """
    entries: dict[RelationLabel, RelationLabel] = {}
    for true_label in sorted(matrix, key=label_order):
        row = matrix[true_label]
        off_diagonal = {pred: n for pred, n in row.items() if pred != true_label and n > 0}
        if not off_diagonal:
            logger.warning(
                "confusion matrix row %s has no off-diagonal mass; entry omitted",
                true_label,
            )
            continue
        best = max(off_diagonal.values())
        entries[true_label] = first_in_order(
            pred for pred, n in off_diagonal.items() if n == best
        )
    return ConfusionMap(entries)


@dataclass(frozen=True)
class FrequencyTable:
    """Relative label frequencies over a corpus slice.

    ``scope`` records whether intra-sentential instances were counted; the
    rarity reference defaults to inter-sentential-only.
    """

    counts: Mapping[RelationLabel, int]
    total: int
    scope: str = "inter-sentential-only"

    def __post_init__(self) -> None:
        if self.total != sum(self.counts.values()):
            raise ValueError("frequency table total does not match its counts")
        if self.total <= 0:
            raise ValueError("frequency table needs at least one instance")

    def fraction(self, label: RelationLabel) -> Fraction:
        try:
            return Fraction(self.counts[label], self.total)
        except KeyError:
            raise LabelError(f"label {label} not covered by frequency table") from None

    def __contains__(self, label: RelationLabel) -> bool:
        return label in self.counts


RARE_THRESHOLD = 0.05


def is_rare(label: RelationLabel, freq: FrequencyTable, threshold: float = RARE_THRESHOLD) -> bool:
    """True when the label's share is strictly below the threshold.

    The threshold is interpreted as a decimal literal, so a share of exactly
    5% is not rare.
    """
    return freq.fraction(label) < Fraction(str(threshold))
