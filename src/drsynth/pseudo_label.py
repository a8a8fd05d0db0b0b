"""Pseudo-label adjacent sentence pairs from raw target-domain text.

The baseline classifier labels every adjacent pair; a per-domain uniform
sample of the requested size becomes training data. No confidence
thresholding is applied.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .adaptation import Model, batch_predict
from .records import (
    ArgumentPair,
    Provenance,
    RawDocument,
    _iter_json_lines,
    make_adjacent_pairs,
    write_records,
)
from .taxonomy import RelationLabel, resolve_label

logger = logging.getLogger(__name__)


class PseudoLabelError(ValueError):
    pass


@dataclass(frozen=True)
class PseudoLabeledInstance:
    """An adjacent pair carrying the baseline's prediction as its label.

    ``scores`` holds the softmax distribution in the labeling model's label
    order; the label is always the argmax of that vector.
    """

    pair: ArgumentPair
    label: RelationLabel
    confidence: float
    scores: tuple[float, ...]
    domain: str
    provenance: Provenance = Provenance.PSEUDO


def assert_argmax_consistent(
    instances: Sequence[PseudoLabeledInstance], label_order: Sequence[RelationLabel]
) -> None:
    """Raise unless every pseudo label is the argmax of its score vector."""
    index = {label: i for i, label in enumerate(label_order)}
    for inst in instances:
        if int(np.argmax(inst.scores)) != index[inst.label]:
            raise PseudoLabelError(
                f"pseudo label {inst.label} is not the argmax of its scores"
            )


def _softmax(scores: np.ndarray) -> np.ndarray:
    shifted = scores - scores.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


def pseudo_label_corpus(
    docs: Sequence[RawDocument],
    model: Model,
    *,
    per_domain_n: int,
    seed: int = 0,
    domains: Sequence[str],
) -> list[PseudoLabeledInstance]:
    """Label all adjacent pairs of each of ``domains``, then sample ``per_domain_n`` per domain.

    Domains are processed in sorted order; sampling is uniform without
    replacement under the seed. A domain with fewer pairs keeps all of them
    with a warning; a requested domain with no pairs at all is an error.
    """
    requested = sorted(domains)
    by_domain: dict[str, list[ArgumentPair]] = {domain: [] for domain in requested}
    for doc in docs:
        if doc.domain in by_domain:
            by_domain[doc.domain].extend(make_adjacent_pairs(doc))

    rng = np.random.default_rng(seed)
    out: list[PseudoLabeledInstance] = []
    for domain in requested:
        pairs = by_domain[domain]
        if not pairs:
            raise PseudoLabelError(f"domain {domain} yields no adjacent pairs")
        labels, raw_scores = batch_predict(model, pairs)
        probs = _softmax(raw_scores)
        if len(pairs) <= per_domain_n:
            if len(pairs) < per_domain_n:
                logger.warning(
                    "domain %s has only %d pairs (requested %d); keeping all",
                    domain, len(pairs), per_domain_n,
                )
            picked = range(len(pairs))
        else:
            picked = np.sort(rng.choice(len(pairs), size=per_domain_n, replace=False))
        for index in picked:
            index = int(index)
            out.append(
                PseudoLabeledInstance(
                    pair=pairs[index],
                    label=labels[index],
                    confidence=float(probs[index].max()),
                    scores=tuple(float(v) for v in probs[index]),
                    domain=domain,
                )
            )
    assert_argmax_consistent(out, model.labels)
    return out


def pseudo_record(inst: PseudoLabeledInstance) -> dict:
    return {
        "arg1": inst.pair.arg1,
        "arg2": inst.pair.arg2,
        "doc_id": inst.pair.doc_id,
        "domain": inst.domain,
        "label": inst.label.level2,
        "provenance": inst.provenance.value,
        "confidence": inst.confidence,
        "scores": list(inst.scores),
    }


def write_pseudo_records(instances: Iterable[PseudoLabeledInstance], path: str | Path) -> None:
    write_records((pseudo_record(i) for i in instances), path)


def read_pseudo_records(path: str | Path) -> list[PseudoLabeledInstance]:
    instances = []
    for _, record in _iter_json_lines(path):
        instances.append(
            PseudoLabeledInstance(
                pair=ArgumentPair(
                    arg1=record["arg1"], arg2=record["arg2"], doc_id=record.get("doc_id", "")
                ),
                label=resolve_label(record["label"]),
                confidence=float(record["confidence"]),
                scores=tuple(float(v) for v in record["scores"]),
                domain=record["domain"],
            )
        )
    return instances
