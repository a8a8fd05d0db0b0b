"""Deterministic fixture corpora.

Real discourse corpora are licensed, so tests and the demo pipeline run on
generated stand-ins written in the canonical record format. Label counts
mirror the reference corpus statistics so ingestion totals are meaningful;
texts are synthetic, with a per-label marker token embedded in Arg2 that
makes the fixtures separable by a bag-of-tokens classifier.

One reconciliation: the reference target-domain table prints an exception
row of 0/1/6 with a row total of 10 and an EP column total of 2704, which
is only consistent if EP has 3 exception instances; the fixture uses 3.
"""

from __future__ import annotations

import random
import re
from pathlib import Path
from typing import Mapping, Sequence

from .prompts import InContextExample
from .records import (
    Adjacency,
    ArgumentPair,
    CrowdAnnotatedInstance,
    DEFAULT_DOMAINS,
    LabeledInstance,
    Provenance,
    RawDocument,
    source_record,
    target_record,
    write_raw_corpus,
    write_records,
)
from .taxonomy import (
    RelationLabel,
    all_labels,
    generation_label_set,
    resolve_label,
    training_label_set,
)

SOURCE_DOMAIN = "SRC"

# Share of source fixture pairs marked intra-sentential.
INTRA_RATE = 0.15

# (train, dev) counts per training label in the source fixture.
SOURCE_LABEL_COUNTS: Mapping[str, tuple[int, int]] = {
    "conjunction": (3584, 298),
    "level-of-detail": (2493, 262),
    "instantiation": (1117, 116),
    "manner": (191, 14),
    "substitution": (278, 27),
    "equivalence": (252, 25),
    "cause": (4469, 450),
    "purpose": (1102, 97),
    "cause+belief": (157, 13),
    "condition": (152, 18),
    "concession": (1164, 103),
    "contrast": (639, 82),
    "asynchronous": (985, 102),
    "synchronous": (433, 34),
}

# Majority-label counts per (label -> EP, WK, NV) in the target fixture.
TARGET_LABEL_COUNTS: Mapping[str, tuple[int, int, int]] = {
    "conjunction": (314, 177, 323),
    "level-of-detail": (532, 161, 460),
    "instantiation": (212, 37, 94),
    "manner": (20, 0, 6),
    "substitution": (41, 4, 47),
    "equivalence": (50, 2, 38),
    "disjunction": (0, 0, 5),
    "exception": (3, 1, 6),
    "cause": (885, 86, 857),
    "purpose": (139, 10, 49),
    "cause+belief": (0, 0, 0),
    "condition": (85, 3, 19),
    "concession": (229, 23, 186),
    "contrast": (38, 19, 58),
    "similarity": (65, 6, 42),
    "asynchronous": (18, 70, 536),
    "synchronous": (73, 16, 158),
}

_SUBJECTS = (
    "The council", "A local committee", "The measure", "Several delegates",
    "The survey", "One researcher", "The narrator", "Their spokesman",
    "The assembly", "A visiting scholar", "The report", "The villagers",
)
_VERBS = (
    "reviewed", "endorsed", "questioned", "described", "documented",
    "rejected", "summarized", "observed", "recounted", "examined",
)
_OBJECTS = (
    "the proposal", "an earlier draft", "the negotiations", "the findings",
    "the procedure", "a long dispute", "the settlement", "its main clause",
    "the archive", "the timetable",
)
_TAILS = (
    "across the region", "after some delay", "in plain terms", "with care",
    "despite objections", "for the record", "near the border", "last spring",
)


def marker_token(label: RelationLabel) -> str:
    """Class-identifying token embedded in fixture Arg2 spans."""
    return "tok" + re.sub(r"[^a-z0-9]", "", label.level2)


def _sentence(rng: random.Random, marker: str | None = None) -> str:
    parts = [
        rng.choice(_SUBJECTS),
        rng.choice(_VERBS),
        rng.choice(_OBJECTS),
    ]
    if marker:
        parts.append(marker)
    parts.append(rng.choice(_TAILS))
    return " ".join(parts) + "."


def _labeled_instance(
    rng: random.Random, label: RelationLabel, domain: str, doc_id: str
) -> LabeledInstance:
    adjacency = Adjacency.INTRA if rng.random() < INTRA_RATE else Adjacency.INTER
    pair = ArgumentPair(
        arg1=_sentence(rng),
        arg2=_sentence(rng, marker_token(label)),
        doc_id=doc_id,
        adjacency=adjacency,
    )
    return LabeledInstance(pair=pair, label=label, domain=domain, provenance=Provenance.SOURCE)


def build_source_corpus(
    path: str | Path,
    counts: Mapping[str, tuple[int, int]] = SOURCE_LABEL_COUNTS,
    seed: int = 0,
) -> None:
    """Write a source-annotated fixture; train in sections 3-20, dev in 1-2."""
    rng = random.Random(seed)
    records = []
    serial = 0
    for name, (n_train, n_dev) in counts.items():
        label = resolve_label(name)
        for bucket, n, sections in (("train", n_train, range(3, 21)), ("dev", n_dev, range(1, 3))):
            section_list = list(sections)
            for i in range(n):
                serial += 1
                section = section_list[i % len(section_list)]
                doc_id = f"src_{section:02d}{serial:05d}"
                inst = _labeled_instance(rng, label, SOURCE_DOMAIN, doc_id)
                records.append(source_record(inst, section))
    write_records(records, path)


def _vote_pattern(
    rng: random.Random,
    majority: RelationLabel,
    alternates: Sequence[RelationLabel],
    norel: RelationLabel,
) -> dict[RelationLabel, int]:
    """Cycle unanimous / clear-majority / two-gold vote shapes."""
    other = alternates[rng.randrange(len(alternates))]
    roll = rng.random()
    if roll < 0.15:
        return {majority: 10}
    if roll < 0.40:
        return {majority: 5, other: 4, norel: 1}
    return {majority: 7, other: 3}


def build_target_corpus(
    path: str | Path,
    counts: Mapping[str, tuple[int, int, int]] = TARGET_LABEL_COUNTS,
    domains: Sequence[str] = DEFAULT_DOMAINS,
    seed: int = 1,
    no_relation_extra: int = 25,
) -> None:
    """Write a crowd-annotated fixture with 10-vote distributions.

    ``no_relation_extra`` additional records get a no-relation majority so
    ingestion's exclusion rule is exercised; they do not count toward the
    per-domain totals.
    """
    rng = random.Random(seed)
    norel = resolve_label("no-relation")
    label_pool = [l for l in all_labels() if l is not norel]
    records = []
    serial = 0
    for name, per_domain in counts.items():
        majority = resolve_label(name)
        alternates = [l for l in label_pool if l != majority]
        for domain, n in zip(domains, per_domain):
            for _ in range(n):
                serial += 1
                votes = _vote_pattern(rng, majority, alternates, norel)
                pair = ArgumentPair(
                    arg1=_sentence(rng),
                    arg2=_sentence(rng, marker_token(majority)),
                    doc_id=f"{domain.lower()}_{serial:05d}",
                )
                inst = CrowdAnnotatedInstance.from_votes(pair, votes, domain)
                records.append(target_record(inst))
    for i in range(no_relation_extra):
        serial += 1
        domain = domains[i % len(domains)]
        filler = label_pool[i % len(label_pool)]
        pair = ArgumentPair(
            arg1=_sentence(rng), arg2=_sentence(rng), doc_id=f"{domain.lower()}_{serial:05d}"
        )
        inst = CrowdAnnotatedInstance.from_votes(pair, {norel: 6, filler: 4}, domain)
        records.append(target_record(inst))
    write_records(records, path)


def build_raw_corpus(
    path: str | Path,
    domains: Sequence[str] = DEFAULT_DOMAINS,
    docs_per_domain: int = 4,
    sentences_per_doc: int = 30,
    seed: int = 2,
) -> None:
    """Write raw documents whose sentences carry random label markers."""
    write_raw_corpus(
        make_raw_documents(domains, docs_per_domain, sentences_per_doc, seed), path
    )


def make_raw_documents(
    domains: Sequence[str] = DEFAULT_DOMAINS,
    docs_per_domain: int = 4,
    sentences_per_doc: int = 30,
    seed: int = 2,
) -> list[RawDocument]:
    """In-memory variant of build_raw_corpus, sharing the fixture vocabulary."""
    rng = random.Random(seed)
    labels = training_label_set()
    docs = []
    for domain in domains:
        for d in range(docs_per_domain):
            sentences = tuple(
                _sentence(rng, marker_token(rng.choice(labels)))
                for _ in range(sentences_per_doc)
            )
            docs.append(
                RawDocument(doc_id=f"raw_{domain.lower()}_{d:03d}", domain=domain, sentences=sentences)
            )
    return docs


def tiny_source_counts() -> dict[str, tuple[int, int]]:
    """14 train and 3 dev records per training label."""
    return {name: (14, 3) for name in SOURCE_LABEL_COUNTS}


def tiny_target_counts(per_domain: int = 1) -> dict[str, tuple[int, int, int]]:
    labels = [l.level2 for l in training_label_set()]
    return {name: (per_domain, per_domain, per_domain) for name in labels}


def example_pool(domains: Sequence[str] = DEFAULT_DOMAINS) -> list[InContextExample]:
    """One in-context example per (domain, generation label, similarity included)."""
    rng = random.Random(3)
    pool = []
    for domain in domains:
        for label in generation_label_set(include_similarity=True):
            pool.append(
                InContextExample(
                    arg1=_sentence(rng),
                    arg2=_sentence(rng, marker_token(label)),
                    label=label,
                    domain=domain,
                )
            )
    return pool
