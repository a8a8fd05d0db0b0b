import numpy as np
import pytest

from drsynth.fixtures import make_raw_documents, marker_token
from drsynth.pseudo_label import (
    PseudoLabelError,
    assert_argmax_consistent,
    pseudo_label_corpus,
    read_pseudo_records,
    write_pseudo_records,
)
from drsynth.records import RawDocument


def _docs(domain, n_docs, sentences_per_doc, seed=0):
    return make_raw_documents(
        domains=[domain],
        docs_per_domain=n_docs,
        sentences_per_doc=sentences_per_doc,
        seed=seed,
    )


class TestPseudoLabelCorpus:
    def test_exact_sample_when_ample(self, base_model):
        model, _ = base_model
        docs = _docs("EP", 4, 20) + _docs("WK", 4, 20, seed=1) + _docs("NV", 4, 20, seed=2)
        out = pseudo_label_corpus(docs, model, per_domain_n=30, seed=0, domains=["EP", "WK", "NV"])
        per_domain = {}
        for inst in out:
            per_domain[inst.domain] = per_domain.get(inst.domain, 0) + 1
        assert per_domain == {"EP": 30, "NV": 30, "WK": 30}

    def test_exhausted_domain_keeps_all_with_warning(self, base_model, caplog):
        model, _ = base_model
        docs = _docs("EP", 2, 11)  # 20 pairs
        with caplog.at_level("WARNING"):
            out = pseudo_label_corpus(docs, model, per_domain_n=12000, seed=0, domains=["EP"])
        assert len(out) == 20
        assert any("keeping all" in m for m in caplog.messages)

    def test_same_seed_identical_sample(self, base_model):
        model, _ = base_model
        docs = _docs("EP", 5, 30)
        first = pseudo_label_corpus(docs, model, per_domain_n=40, seed=9, domains=["EP"])
        second = pseudo_label_corpus(docs, model, per_domain_n=40, seed=9, domains=["EP"])
        assert first == second

    def test_zero_pair_domain_named_in_error(self, base_model):
        model, _ = base_model
        docs = _docs("EP", 2, 10) + [
            RawDocument(doc_id="wk-short", domain="WK", sentences=("only one sentence.",))
        ]
        with pytest.raises(PseudoLabelError, match="WK"):
            pseudo_label_corpus(docs, model, per_domain_n=5, seed=0, domains=["EP", "WK"])

    def test_labels_are_argmax_of_scores(self, base_model):
        model, _ = base_model
        docs = _docs("EP", 3, 25, seed=7)
        out = pseudo_label_corpus(docs, model, per_domain_n=50, seed=3, domains=["EP"])
        assert_argmax_consistent(out, model.labels)
        index = {label: i for i, label in enumerate(model.labels)}
        for inst in out:
            assert int(np.argmax(inst.scores)) == index[inst.label]
            assert inst.confidence == pytest.approx(max(inst.scores))

    def test_marker_tokens_steer_labels(self, base_model):
        model, _ = base_model
        docs = _docs("EP", 5, 30, seed=3)
        out = pseudo_label_corpus(docs, model, per_domain_n=80, seed=1, domains=["EP"])
        hits = sum(marker_token(inst.label) in inst.pair.arg2 for inst in out)
        assert hits / len(out) >= 0.8


def test_record_round_trip(base_model, tmp_path):
    model, _ = base_model
    out = pseudo_label_corpus(_docs("EP", 2, 12), model, per_domain_n=15, seed=2, domains=["EP"])
    path = tmp_path / "pseudo.jsonl"
    write_pseudo_records(out, path)
    loaded = read_pseudo_records(path)
    assert len(loaded) == len(out)
    for original, copy in zip(out, loaded):
        assert copy.pair == original.pair
        assert copy.label == original.label
        assert copy.confidence == pytest.approx(original.confidence)
