import errno
import itertools
import json
import os
import random
import tempfile
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from drsynth import fixtures, records
from drsynth.records import (
    Adjacency,
    ArgumentPair,
    CorpusFormatError,
    CrowdAnnotatedInstance,
    DEFAULT_SPLIT,
    RawDocument,
    SplitSpec,
    gold_label_masks,
    ingest_raw_corpus,
    ingest_source_corpus,
    ingest_target_corpus,
    majority_columns,
    make_adjacent_pairs,
    source_record,
    target_record,
    vote_matrix,
    write_records,
)
from drsynth.adaptation import frequency_table, training_set
from drsynth.reference_backend import ReferenceBackend
from drsynth.taxonomy import NO_RELATION, LabelError, all_labels, first_in_order, resolve_label


def _votes(**kwargs):
    return {resolve_label(name.replace("_", "-")): n for name, n in kwargs.items()}


def _crowd(votes, domain="EP"):
    pair = ArgumentPair(arg1="First span.", arg2="Second span.", doc_id="d1")
    return CrowdAnnotatedInstance.from_votes(pair, votes, domain)


def majority_label(instance):
    """Oracle: the per-instance majority rule that ``majority_columns`` replaced, over a
    dict of the votes; ties break by the global label order."""
    votes = dict(instance.votes)
    top = max(votes.values())
    return first_in_order(label for label, count in votes.items() if count == top)


def _gold_label_set(instance, threshold=0.4):
    """Oracle: the per-instance gold rule that ``gold_label_masks`` replaced, in exact integers."""
    if not 0 < threshold <= 1:
        raise ValueError("threshold must be in (0, 1]")
    cutoff = Fraction(str(threshold))
    need = cutoff.numerator * sum(count for _, count in instance.votes)
    gold = {
        label
        for label, count in instance.votes
        if label is not NO_RELATION and count * cutoff.denominator >= need
    }
    top = max(count for _, count in instance.votes)
    majority = first_in_order(label for label, count in instance.votes if count == top)
    if majority is not NO_RELATION:
        gold.add(majority)
    return gold


def _gold(instance, threshold=0.4):
    """``gold_label_masks`` of one instance, as a label set."""
    gold, _ = gold_label_masks(vote_matrix([instance]), threshold)
    return {label for label, member in zip(all_labels(), gold[0]) if member}


class TestGoldLabelSet:
    def test_two_labels_reach_threshold(self):
        inst = _crowd(_votes(cause=5, concession=4, conjunction=1))
        assert _gold(inst) == {resolve_label("cause"), resolve_label("concession")}

    def test_unanimous(self):
        inst = _crowd(_votes(cause=10))
        assert _gold(inst) == {resolve_label("cause")}

    def test_only_majority_reaches_threshold(self):
        inst = _crowd(_votes(cause=4, concession=3, conjunction=3))
        assert _gold(inst) == {resolve_label("cause")}

    def test_exact_forty_percent_included(self):
        inst = _crowd(_votes(cause=4, concession=6))
        assert resolve_label("cause") in _gold(inst)

    def test_no_relation_never_in_gold_set(self):
        inst = _crowd({**_votes(cause=6), resolve_label("no-relation"): 4})
        assert _gold(inst) == {resolve_label("cause")}

    def test_majority_always_included_at_half_threshold(self):
        rng = random.Random(5)
        labels = [resolve_label(n) for n in ("cause", "concession", "conjunction", "contrast")]
        for _ in range(200):
            counts = [rng.randrange(0, 11) for _ in labels]
            if sum(counts) == 0:
                continue
            votes = {l: c for l, c in zip(labels, counts) if c}
            pair = ArgumentPair(arg1="a", arg2="b")
            inst = CrowdAnnotatedInstance(pair, tuple(votes.items()), "EP")
            assert majority_label(inst) in _gold(inst, threshold=0.5)

    def test_threshold_validation(self):
        inst = _crowd(_votes(cause=10))
        with pytest.raises(ValueError):
            _gold(inst, threshold=0.0)

    def test_every_ten_vote_split_matches_the_fraction_rule(self):
        labels = [resolve_label(n) for n in ("cause", "concession", "conjunction")]
        splits = [c for c in itertools.product(range(11), repeat=3) if sum(c) == 10]
        for step in range(1, 11):
            threshold = step / 10
            cutoff = Fraction(str(threshold))
            for counts in splits:
                inst = _crowd({l: c for l, c in zip(labels, counts) if c})
                expected = {
                    l for l, c in zip(labels, counts) if c and Fraction(c, 10) >= cutoff
                } | {majority_label(inst)}
                assert _gold(inst, threshold=threshold) == expected, (counts, threshold)


class TestVoteMatrix:
    def test_columns_follow_the_global_label_order(self):
        inst = _crowd({**_votes(cause=5, similarity=2), NO_RELATION: 3})
        votes = vote_matrix([inst, _crowd(_votes(conjunction=10))])
        assert votes.dtype == np.uint8 and votes.shape == (2, len(all_labels()))
        names = [label.level2 for label in all_labels()]
        assert dict(zip(names, votes[0].tolist())) == {
            **dict.fromkeys(names, 0), "cause": 5, "similarity": 2, "no-relation": 3
        }
        assert votes[1, names.index("conjunction")] == 10

    def test_majority_column_is_majority_label(self):
        rng = random.Random(7)
        labels = all_labels()
        instances = []
        for _ in range(300):
            counts = {label: rng.randrange(0, 4) for label in rng.sample(labels, 4)}
            if sum(counts.values()):
                pair = ArgumentPair(arg1="a", arg2="b")
                instances.append(CrowdAnnotatedInstance(pair, tuple(counts.items()), "EP"))
        gold, majority = gold_label_masks(vote_matrix(instances), 0.3)
        for row, inst in enumerate(instances):
            assert labels[majority[row]] is majority_label(inst)
            assert {labels[c] for c in np.flatnonzero(gold[row])} == _gold_label_set(inst, 0.3)

    def test_empty(self):
        gold, majority = gold_label_masks(vote_matrix([]), 0.4)
        assert gold.shape == (0, len(all_labels())) and majority.shape == (0,)


class TestMajority:
    def test_tie_breaks_by_global_label_order(self):
        inst = _crowd(_votes(cause=5, conjunction=5))
        assert all_labels()[majority_columns(vote_matrix([inst]))[0]] == resolve_label("conjunction")
        assert majority_label(inst) == resolve_label("conjunction")

    def test_vote_sum_enforced(self):
        pair = ArgumentPair(arg1="a", arg2="b")
        with pytest.raises(ValueError, match="sum"):
            CrowdAnnotatedInstance.from_votes(pair, _votes(cause=7), "EP")


class TestAdjacentPairs:
    def test_three_sentences_two_pairs(self):
        doc = RawDocument(doc_id="d", domain="EP", sentences=("s one.", "s two.", "s three."))
        pairs = make_adjacent_pairs(doc)
        assert [(p.arg1, p.arg2) for p in pairs] == [
            ("s one.", "s two."),
            ("s two.", "s three."),
        ]
        assert all(p.adjacency is Adjacency.INTER for p in pairs)

    def test_single_sentence_yields_nothing(self, caplog):
        doc = RawDocument(doc_id="d", domain="EP", sentences=("only one.",))
        with caplog.at_level("WARNING"):
            assert make_adjacent_pairs(doc) == []
        assert any("fewer than 2" in m for m in caplog.messages)

    def test_large_document_count(self):
        doc = RawDocument(
            doc_id="big", domain="NV", sentences=tuple(f"sentence {i}." for i in range(4000))
        )
        assert len(make_adjacent_pairs(doc)) == 3999


class TestSplitSpec:
    def test_parse_ranges(self):
        split = SplitSpec.parse("2-20:0-1")
        assert split.train_sections == frozenset(range(2, 21))
        assert split.dev_sections == frozenset({0, 1})

    def test_overlap_resolved_dev_wins(self, caplog):
        with caplog.at_level("WARNING"):
            split = SplitSpec.parse("2-20:1-2")
        assert split.dev_sections == frozenset({1, 2})
        assert split.train_sections == frozenset(range(3, 21))
        assert not split.train_sections & split.dev_sections

    def test_default_split_is_disjoint(self):
        assert not DEFAULT_SPLIT.train_sections & DEFAULT_SPLIT.dev_sections
        assert DEFAULT_SPLIT.dev_sections == frozenset({1, 2})

    def test_comma_lists(self):
        split = SplitSpec.parse("2,4,6:1")
        assert split.train_sections == frozenset({2, 4, 6})


class TestSourceIngestion:
    def test_full_fixture_totals(self, tmp_path):
        path = tmp_path / "source.jsonl"
        fixtures.build_source_corpus(path, seed=0)
        result = ingest_source_corpus(path)
        assert len(result.train) == 17016
        assert len(result.dev) == 1641
        assert result.dropped == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        result = ingest_source_corpus(path)
        assert result == ([], [], 0)

    def test_out_of_set_label_dropped(self, tmp_path):
        records = [
            {"arg1": "a", "arg2": "b", "doc_id": "d", "domain": "SRC",
             "label": "cause", "section": 5},
            {"arg1": "a", "arg2": "b", "doc_id": "d", "domain": "SRC",
             "label": "conjunction", "section": 5},
            {"arg1": "a", "arg2": "b", "doc_id": "d", "domain": "SRC",
             "label": "disjunction", "section": 5},
        ]
        path = tmp_path / "three.jsonl"
        write_records(records, path)
        result = ingest_source_corpus(path)
        assert len(result.train) == 2
        assert result.dropped == 1

    def test_first_sense_field_wins(self, tmp_path):
        records = [
            {"arg1": "a", "arg2": "b", "doc_id": "d", "domain": "SRC",
             "label": "cause|concession", "section": 5},
        ]
        path = tmp_path / "multi.jsonl"
        write_records(records, path)
        result = ingest_source_corpus(path)
        assert result.train[0].label == resolve_label("cause")

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"arg1": "a"}\nnot json at all\n')
        with pytest.raises(CorpusFormatError, match=":1"):
            ingest_source_corpus(path)

    def test_unknown_label_named(self, tmp_path):
        records = [
            {"arg1": "a", "arg2": "b", "doc_id": "d", "domain": "SRC",
             "label": "totally-made-up", "section": 5},
        ]
        path = tmp_path / "unknown.jsonl"
        write_records(records, path)
        with pytest.raises(LabelError, match="totally-made-up"):
            ingest_source_corpus(path)


_TIE_LABELS = ("cause", "conjunction", "exception", "no-relation", "similarity")


class TestTargetIngestion:
    def test_full_fixture_domain_totals(self, tmp_path):
        path = tmp_path / "target.jsonl"
        fixtures.build_target_corpus(path, seed=1)
        instances = ingest_target_corpus(path)
        per_domain = {}
        for inst in instances:
            per_domain[inst.domain] = per_domain.get(inst.domain, 0) + 1
        assert per_domain == {"EP": 2704, "WK": 615, "NV": 2884}
        assert len(instances) == 6203

    def test_unanimous_record(self, tmp_path):
        inst = _crowd(_votes(cause=10))
        path = tmp_path / "one.jsonl"
        write_records([target_record(inst)], path)
        loaded = ingest_target_corpus(path)
        assert len(loaded) == 1
        assert majority_label(loaded[0]) == resolve_label("cause")

    def test_no_relation_majority_excluded(self, tmp_path):
        votes = {**_votes(cause=4), resolve_label("no-relation"): 6}
        inst = _crowd(votes)
        path = tmp_path / "norel.jsonl"
        write_records([target_record(inst)], path)
        assert ingest_target_corpus(path) == []

    # every annotator picks one of few labels, so ties are common; no-relation
    # (column 16) sorts after every label but similarity (column 17)
    @settings(max_examples=200, deadline=None)
    @given(st.lists(
        st.lists(st.sampled_from(_TIE_LABELS), min_size=10, max_size=10).map(Counter),
        min_size=1, max_size=12,
    ))
    @example([Counter({"cause": 5, "no-relation": 5})])  # kept
    @example([Counter({"no-relation": 5, "similarity": 5})])  # excluded
    @example([  # three-way ties: all kept
        Counter({"cause": 3, "no-relation": 3, "similarity": 3, "exception": 1}),
        Counter({"no-relation": 3, "similarity": 3, "exception": 3, "cause": 1}),
        Counter({"conjunction": 3, "cause": 3, "exception": 3, "no-relation": 1}),
    ])
    def test_exclusion_matches_the_majority_oracle(self, rows):
        records = [
            {"arg1": f"a {n}", "arg2": "b", "doc_id": f"d{n}", "domain": "EP", "votes": dict(votes)}
            for n, votes in enumerate(rows)
        ]
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "target.jsonl"
            write_records(records, path)
            loaded = ingest_target_corpus(path)
        parsed = [
            CrowdAnnotatedInstance.from_votes(
                ArgumentPair(r["arg1"], r["arg2"], r["doc_id"]),
                {resolve_label(name): count for name, count in r["votes"].items()},
                "EP",
            )
            for r in records
        ]
        assert loaded == [inst for inst in parsed if majority_label(inst) is not NO_RELATION]

    def test_vote_sum_error(self, tmp_path):
        record = {
            "arg1": "a", "arg2": "b", "doc_id": "d", "domain": "EP",
            "votes": {"cause": 3},
        }
        path = tmp_path / "badvotes.jsonl"
        write_records([record], path)
        with pytest.raises(CorpusFormatError, match="sum"):
            ingest_target_corpus(path)


class TestRoundTrip:
    def test_source_round_trip(self, tiny_corpus_dir, tmp_path):
        first = ingest_source_corpus(tiny_corpus_dir / "source.jsonl")
        out = tmp_path / "rewritten.jsonl"
        write_records(
            [source_record(i, section=5) for i in first.train]
            + [source_record(i, section=1) for i in first.dev],
            out,
        )
        second = ingest_source_corpus(out)
        assert second.train == first.train
        assert second.dev == first.dev

    def test_target_round_trip(self, tiny_corpus_dir, tmp_path):
        first = ingest_target_corpus(tiny_corpus_dir / "target.jsonl")
        out = tmp_path / "rewritten.jsonl"
        write_records([target_record(i) for i in first], out)
        assert ingest_target_corpus(out) == first

    def test_canonical_row_bytes_match_json_dumps(self):
        row = {"arg2": "Tokyo は 東京 — naïve", "arg1": "é \U0001F600 \u2028", "n": [1, 2.5, None]}
        assert records._dump(row) == json.dumps(
            row, sort_keys=True, ensure_ascii=False, separators=(",", ":")
        )

    def test_failed_write_leaves_no_temp_file_and_the_old_target(self, tmp_path, monkeypatch):
        out = tmp_path / "rows.jsonl"
        out.write_text("old\n", encoding="utf-8")
        real_dump = records._dump
        calls = []

        def full_disk_on_third(record):
            calls.append(record)
            if len(calls) == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            return real_dump(record)

        monkeypatch.setattr(records, "_dump", full_disk_on_third)
        with pytest.raises(OSError) as raised:
            write_records([{"i": i} for i in range(5)], out)
        assert raised.value.errno == errno.ENOSPC
        assert list(tmp_path.glob("*.tmp")) == []
        assert out.read_bytes() == b"old\n"

    def test_failed_rename_leaves_no_temp_file(self, tmp_path, monkeypatch):
        out = tmp_path / "rows.jsonl"

        def failing_replace(src, dst):
            raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError):
            write_records([{"i": 1}], out)
        assert list(tmp_path.iterdir()) == []

    def test_fixture_build_is_byte_deterministic(self, tmp_path):
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        fixtures.build_source_corpus(a, counts=fixtures.tiny_source_counts(), seed=3)
        fixtures.build_source_corpus(b, counts=fixtures.tiny_source_counts(), seed=3)
        assert a.read_bytes() == b.read_bytes()


class TestRawIngestion:
    def test_documents_group_by_doc_id(self, tmp_path):
        records = [
            {"doc_id": "d1", "domain": "EP", "sentence": "one."},
            {"doc_id": "d1", "domain": "EP", "sentence": "two."},
            {"doc_id": "d2", "domain": "WK", "sentence": "three."},
        ]
        path = tmp_path / "raw.jsonl"
        write_records(records, path)
        docs = ingest_raw_corpus(path)
        assert [(d.doc_id, len(d.sentences)) for d in docs] == [("d1", 2), ("d2", 1)]
        assert docs[0].sentences == ("one.", "two.")

    def test_empty_sentence_rejected(self):
        with pytest.raises(ValueError, match="empty sentence"):
            RawDocument(doc_id="d", domain="EP", sentences=("ok.", "   "))


class TestArgumentPair:
    def test_whitespace_normalized(self):
        pair = ArgumentPair(arg1="  a   b  ", arg2="c\t d")
        assert pair.arg1 == "a b"
        assert pair.arg2 == "c d"

    def test_empty_span_rejected(self):
        with pytest.raises(ValueError):
            ArgumentPair(arg1="  ", arg2="b")


def test_frequency_scope_filters_intra_sentential(tiny_source):
    backend = ReferenceBackend()
    train = training_set(tiny_source.train, backend)
    table_all = frequency_table(train, backend.labels, scope="all")
    table_inter = frequency_table(train, backend.labels)
    assert table_all.total == len(tiny_source.train)
    assert table_inter.total <= table_all.total
    assert table_inter.scope == "inter-sentential-only"
    with pytest.raises(ValueError):
        frequency_table(train, backend.labels, scope="bogus")
