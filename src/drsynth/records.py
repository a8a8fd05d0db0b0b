"""Canonical data model and ingestion.

Native discourse corpora are licensed and heterogeneous, so everything in
this package speaks one canonical line-delimited format: UTF-8 JSON objects,
one per line, sorted keys. Thin adapters (outside this package) convert
native formats into it; fixtures and tests never require licensed data.

Record kinds:
  source  {arg1, arg2, doc_id, domain, label, adjacency, provenance, section}
  target  {arg1, arg2, doc_id, domain, votes}
  raw     {doc_id, domain, sentence}   (consecutive lines form a document)

Source labels hold a single sense string (the first-sense field); a
``|``-joined value is tolerated and truncated to its first component.
"""

from __future__ import annotations

import json
import logging
import os
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, Mapping, NamedTuple, Sequence, TextIO

import numpy as np

from .taxonomy import (
    NO_RELATION,
    RelationLabel,
    all_labels,
    label_order,
    resolve_label,
    training_label_set,
)

logger = logging.getLogger(__name__)

DEFAULT_DOMAINS = ("EP", "WK", "NV")
ANNOTATORS_PER_ITEM = 10


class CorpusFormatError(ValueError):
    """Malformed canonical record; message carries the line number."""


class Adjacency(str, Enum):
    INTER = "inter"
    INTRA = "intra"


class Provenance(str, Enum):
    SOURCE = "source-annotated"
    SYNTHETIC = "synthetic"
    PSEUDO = "pseudo-labeled"


def _normalize_span(text: str) -> str:
    return " ".join(text.split())


@dataclass(frozen=True)
class ArgumentPair:
    """An (Arg1, Arg2) span pair; spans are whitespace-normalized on entry."""

    arg1: str
    arg2: str
    doc_id: str = ""
    adjacency: Adjacency = Adjacency.INTER

    def __post_init__(self) -> None:
        object.__setattr__(self, "arg1", _normalize_span(self.arg1))
        object.__setattr__(self, "arg2", _normalize_span(self.arg2))
        if not self.arg1 or not self.arg2:
            raise ValueError("argument spans must be non-empty")


@dataclass(frozen=True)
class LabeledInstance:
    """A single-label training pair with provenance and domain tag."""

    pair: ArgumentPair
    label: RelationLabel
    domain: str
    provenance: Provenance = Provenance.SOURCE


@dataclass(frozen=True)
class CrowdAnnotatedInstance:
    """A test pair with a vote distribution over labels."""

    pair: ArgumentPair
    votes: tuple[tuple[RelationLabel, int], ...]
    domain: str

    @classmethod
    def from_votes(
        cls,
        pair: ArgumentPair,
        votes: dict[RelationLabel, int],
        domain: str,
    ) -> "CrowdAnnotatedInstance":
        total = sum(votes.values())
        if total != ANNOTATORS_PER_ITEM:
            raise ValueError(f"votes sum to {total}, expected {ANNOTATORS_PER_ITEM}")
        if any(count < 0 for count in votes.values()):
            raise ValueError("vote counts must be non-negative")
        ordered = tuple(sorted(votes.items(), key=lambda kv: kv[0].level2))
        return cls(pair=pair, votes=ordered, domain=domain)


def vote_matrix(instances: Sequence[CrowdAnnotatedInstance]) -> np.ndarray:
    """The instances' votes as an n x 18 ``uint8`` matrix, one column per label of
    ``all_labels()``, so in the global order; a count is at most the annotator count."""
    votes = np.zeros((len(instances), len(all_labels())), dtype=np.uint8)
    for row, instance in enumerate(instances):
        for label, count in instance.votes:
            votes[row, label_order(label)] = count
    return votes


def majority_columns(votes: np.ndarray) -> np.ndarray:
    """Each ``vote_matrix`` row's majority label, as its column: the first column
    holding the row's most votes, so ties break by the global label order."""
    return votes.argmax(axis=1)


def gold_label_masks(votes: np.ndarray, threshold: float = 0.4) -> tuple[np.ndarray, np.ndarray]:
    """Each row's gold label set, as a boolean mask over ``vote_matrix`` columns,
    and its majority label's column.

    A gold set holds every label with at least ``threshold`` of the row's
    votes, plus the majority label. Dispersed vote distributions can leave
    the plurality label below the threshold; including the majority
    unconditionally keeps the gold set non-empty for every retained
    instance. no-relation never enters a gold set: it marks the absence of
    an implicit relation and is not a predictable class. The majority comes
    from ``majority_columns``, the rule ingest's no-relation exclusion uses.
    """
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    cutoff = Fraction(str(threshold))
    counts = votes.astype(np.int64)
    # count / total >= num / den is count * den >= num * total, exact in integers:
    # with integer counts, count >= ceil(num * total / den), taken once per distinct total
    totals, row_total = np.unique(counts.sum(axis=1), return_inverse=True)
    need = np.array([-(-cutoff.numerator * t // cutoff.denominator) for t in totals.tolist()])
    gold = counts >= need[row_total][:, None]
    no_relation = label_order(NO_RELATION)
    gold[:, no_relation] = False
    majority = majority_columns(votes)
    gold[np.arange(len(majority)), majority] |= majority != no_relation
    return gold, majority


@dataclass(frozen=True)
class RawDocument:
    """Ordered sentences of one unlabeled document."""

    doc_id: str
    domain: str
    sentences: tuple[str, ...]

    def __post_init__(self) -> None:
        cleaned = tuple(_normalize_span(s) for s in self.sentences)
        if any(not s for s in cleaned):
            raise ValueError(f"document {self.doc_id} contains an empty sentence")
        object.__setattr__(self, "sentences", cleaned)


def make_adjacent_pairs(doc: RawDocument) -> list[ArgumentPair]:
    """All (sentence_i, sentence_i+1) pairs of a document, in order."""
    if len(doc.sentences) < 2:
        logger.warning("document %s has fewer than 2 sentences; no pairs", doc.doc_id)
        return []
    return [
        ArgumentPair(arg1=a, arg2=b, doc_id=doc.doc_id, adjacency=Adjacency.INTER)
        for a, b in zip(doc.sentences, doc.sentences[1:])
    ]


@dataclass(frozen=True)
class SplitSpec:
    """Disjoint train/dev section sets.

    When the two ranges overlap (the default quoted convention assigns
    section 2 to both), the dev set wins and the overlap is removed from
    train, with a warning.
    """

    train_sections: frozenset[int]
    dev_sections: frozenset[int]

    def __post_init__(self) -> None:
        overlap = self.train_sections & self.dev_sections
        if overlap:
            logger.warning(
                "split sections %s appear in both train and dev; assigning to dev",
                sorted(overlap),
            )
            object.__setattr__(
                self, "train_sections", self.train_sections - self.dev_sections
            )

    @classmethod
    def parse(cls, spec: str) -> "SplitSpec":
        """Parse ``"2-20:0-1"`` (train-range:dev-range; comma lists allowed)."""
        try:
            train_part, dev_part = spec.split(":")
            return cls(_parse_sections(train_part), _parse_sections(dev_part))
        except ValueError as exc:
            raise ValueError(f"bad split spec {spec!r}: {exc}") from exc


def _parse_sections(part: str) -> frozenset[int]:
    sections: set[int] = set()
    for chunk in part.split(","):
        lo, dash, hi = chunk.partition("-")
        if dash:
            sections.update(range(int(lo), int(hi) + 1))
        else:
            sections.add(int(lo))
    return frozenset(sections)


# The quoted source-corpus convention ("sections 2-20 train, 1-2 dev")
# overlaps at section 2; dev wins, so the effective default is 3-20 train,
# 1-2 dev. Pass e.g. "2-20:0-1" for the non-overlapping convention of
# earlier work.
DEFAULT_SPLIT = SplitSpec(frozenset(range(3, 21)), frozenset({1, 2}))


def _iter_json_lines(path: str | Path) -> Iterator[tuple[int, dict]]:
    with open(path, encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise CorpusFormatError(f"{path}:{lineno}: invalid record: {exc}") from exc
            if not isinstance(record, dict):
                raise CorpusFormatError(f"{path}:{lineno}: record is not an object")
            yield lineno, record


def _require(record: dict, keys: Sequence[str], where: str) -> None:
    missing = [k for k in keys if k not in record]
    if missing:
        raise CorpusFormatError(f"{where}: missing fields {missing}")


class SourceIngest(NamedTuple):
    train: list[LabeledInstance]
    dev: list[LabeledInstance]
    dropped: int


def ingest_source_corpus(
    path: str | Path, split: SplitSpec = DEFAULT_SPLIT
) -> SourceIngest:
    """Load source-annotated records and split them by section.

    Instances whose label falls outside the training label set are dropped
    and counted; records in sections outside both splits are skipped.
    """
    trainable = set(training_label_set())
    train: list[LabeledInstance] = []
    dev: list[LabeledInstance] = []
    dropped = 0
    skipped_sections = 0
    for lineno, record in _iter_json_lines(path):
        where = f"{path}:{lineno}"
        _require(record, ("arg1", "arg2", "doc_id", "domain", "label", "section"), where)
        try:
            section = int(record["section"])
        except (TypeError, ValueError):
            raise CorpusFormatError(f"{where}: section must be an integer") from None
        # first-sense field: tolerate multi-sense adapters
        label = resolve_label(str(record["label"]).split("|")[0])
        if label not in trainable:
            dropped += 1
            continue
        if section in split.train_sections:
            bucket = train
        elif section in split.dev_sections:
            bucket = dev
        else:
            skipped_sections += 1
            continue
        try:
            pair = ArgumentPair(
                arg1=record["arg1"],
                arg2=record["arg2"],
                doc_id=str(record["doc_id"]),
                adjacency=Adjacency(record.get("adjacency", "inter")),
            )
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
        bucket.append(
            LabeledInstance(
                pair=pair,
                label=label,
                domain=str(record["domain"]),
                provenance=Provenance(record.get("provenance", "source-annotated")),
            )
        )
    logger.info(
        "source ingest: %d train, %d dev, %d dropped (label outside training set), "
        "%d outside split sections",
        len(train), len(dev), dropped, skipped_sections,
    )
    return SourceIngest(train=train, dev=dev, dropped=dropped)


def ingest_target_corpus(path: str | Path) -> list[CrowdAnnotatedInstance]:
    """Load crowd-annotated records, excluding the items whose ``majority_columns``
    label is no-relation."""
    parsed: list[CrowdAnnotatedInstance] = []
    for lineno, record in _iter_json_lines(path):
        where = f"{path}:{lineno}"
        _require(record, ("arg1", "arg2", "doc_id", "domain", "votes"), where)
        if not isinstance(record["votes"], dict) or not record["votes"]:
            raise CorpusFormatError(f"{where}: votes must be a non-empty object")
        try:
            votes = {
                resolve_label(name): int(count)
                for name, count in record["votes"].items()
            }
            pair = ArgumentPair(
                arg1=record["arg1"],
                arg2=record["arg2"],
                doc_id=str(record["doc_id"]),
                adjacency=Adjacency(record.get("adjacency", "inter")),
            )
            parsed.append(CrowdAnnotatedInstance.from_votes(pair, votes, str(record["domain"])))
        except ValueError as exc:
            raise CorpusFormatError(f"{where}: {exc}") from exc
    kept = majority_columns(vote_matrix(parsed)) != label_order(NO_RELATION)
    instances = [instance for instance, keep in zip(parsed, kept.tolist()) if keep]
    logger.info(
        "target ingest: %d instances kept, %d excluded as no-relation",
        len(instances), len(parsed) - len(instances),
    )
    return instances


def ingest_raw_corpus(path: str | Path) -> list[RawDocument]:
    """Load raw documents; consecutive lines with one doc_id form a document."""
    docs: list[RawDocument] = []
    current_id: str | None = None
    current_domain = ""
    sentences: list[str] = []

    def flush() -> None:
        if current_id is not None:
            docs.append(
                RawDocument(doc_id=current_id, domain=current_domain, sentences=tuple(sentences))
            )

    for lineno, record in _iter_json_lines(path):
        _require(record, ("doc_id", "domain", "sentence"), f"{path}:{lineno}")
        doc_id = str(record["doc_id"])
        if doc_id != current_id:
            flush()
            current_id = doc_id
            current_domain = str(record["domain"])
            sentences = []
        sentences.append(record["sentence"])
    flush()
    return docs


# one encoder for every canonical row: ``json.dumps`` with keyword arguments
# builds a new encoder per call
_CANONICAL = json.JSONEncoder(sort_keys=True, ensure_ascii=False, separators=(",", ":"))


def _dump(record: dict) -> str:
    return _CANONICAL.encode(record)


def source_record(instance: LabeledInstance, section: int) -> dict:
    return {
        "arg1": instance.pair.arg1,
        "arg2": instance.pair.arg2,
        "doc_id": instance.pair.doc_id,
        "domain": instance.domain,
        "label": instance.label.level2,
        "adjacency": instance.pair.adjacency.value,
        "provenance": instance.provenance.value,
        "section": section,
    }


def target_record(instance: CrowdAnnotatedInstance) -> dict:
    return {
        "arg1": instance.pair.arg1,
        "arg2": instance.pair.arg2,
        "doc_id": instance.pair.doc_id,
        "domain": instance.domain,
        "votes": {label.level2: count for label, count in instance.votes},
    }


@contextmanager
def _atomic(path: str | Path, binary: bool = False) -> Iterator[TextIO | BinaryIO]:
    """A handle on a temp file beside ``path``, renamed over it once the block succeeds.

    Readers see the old file or the complete new one, never a partial write;
    a write or rename that fails removes the temp file.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with (open(tmp, "wb") if binary else open(tmp, "w", encoding="utf-8", newline="\n")) as handle:
            yield handle
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_text(path: str | Path, content: str) -> None:
    """Write ``content`` atomically."""
    with _atomic(path) as handle:
        handle.write(content)


def write_json(path: str | Path, payload: object) -> None:
    """Write ``payload`` atomically as indented JSON with sorted keys."""
    write_text(path, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def write_arrays(path: str | Path, arrays: Mapping[str, np.ndarray]) -> None:
    """Write named arrays atomically as an uncompressed ``.npz``."""
    with _atomic(path, binary=True) as handle:
        np.savez(handle, **arrays)


def write_records(records: Iterable[dict], path: str | Path) -> None:
    """Write canonical records atomically, one row at a time; identical inputs, identical bytes."""
    with _atomic(path) as handle:
        for record in records:
            handle.write(_dump(record) + "\n")


def write_raw_corpus(docs: Iterable[RawDocument], path: str | Path) -> None:
    write_records(
        (
            {"doc_id": doc.doc_id, "domain": doc.domain, "sentence": sentence}
            for doc in docs
            for sentence in doc.sentences
        ),
        path,
    )
