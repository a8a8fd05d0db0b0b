import dataclasses
import random

import pytest

from drsynth.records import ArgumentPair
from drsynth.screening import (
    ScreenKind,
    ScreeningError,
    SyntheticInstance,
    combi_screen,
    confusion_screen,
    read_synthetic_records,
    render_screening_report,
    screen_batch,
    strict_screen,
    write_synthetic_records,
)
from drsynth.taxonomy import (
    ConfusionMap,
    FrequencyTable,
    default_confusion_map,
    resolve_label,
    training_label_set,
)


def _inst(intended, domain="EP", backend="mock", template="DC"):
    return SyntheticInstance(
        pair=ArgumentPair(arg1="Lead sentence.", arg2="Generated continuation."),
        intended=resolve_label(intended),
        backend=backend,
        template=template,
        domain=domain,
    )


def _labels(*names):
    return [resolve_label(name) for name in names]


def _reference_freq():
    # mirrors the source fixture's train distribution: cause frequent,
    # cause+belief rare
    counts = {
        resolve_label("cause"): 4469,
        resolve_label("cause+belief"): 157,
        resolve_label("conjunction"): 3584,
        resolve_label("level-of-detail"): 2493,
        resolve_label("instantiation"): 1117,
        resolve_label("manner"): 191,
        resolve_label("substitution"): 278,
        resolve_label("equivalence"): 252,
        resolve_label("purpose"): 1102,
        resolve_label("condition"): 152,
        resolve_label("concession"): 1164,
        resolve_label("contrast"): 639,
        resolve_label("asynchronous"): 985,
        resolve_label("synchronous"): 433,
    }
    return FrequencyTable(counts=counts, total=sum(counts.values()))


def _kept(report):
    return sum(stats.kept for stats in report.strata.values())


class TestStrictScreen:
    def test_match_kept(self):
        assert strict_screen(*_labels("cause", "cause")) is True

    def test_mismatch_dropped(self):
        assert strict_screen(*_labels("cause", "level-of-detail")) is False


class TestConfusionScreen:
    def test_frequent_misprediction_dropped(self):
        cmap = default_confusion_map()
        assert confusion_screen(*_labels("cause+belief", "cause"), cmap) is False

    def test_other_misprediction_kept(self):
        cmap = default_confusion_map()
        assert confusion_screen(*_labels("cause+belief", "concession"), cmap) is True

    def test_exact_match_always_kept(self):
        cmap = default_confusion_map()
        for label in training_label_set():
            assert confusion_screen(label, label, cmap) is True

    def test_missing_label_pass_through(self):
        # a label without an entry has no misprediction to screen out
        partial = ConfusionMap({resolve_label("cause+belief"): resolve_label("cause")})
        assert confusion_screen(*_labels("disjunction", "cause"), default_confusion_map()) is True
        for predicted in ("cause", "contrast", "purpose"):
            assert confusion_screen(*_labels("purpose", predicted), partial) is True
        assert confusion_screen(*_labels("cause+belief", "cause"), partial) is False


class TestCombiScreen:
    def test_rare_label_uses_confusion_branch(self):
        # cause+belief is rare; synchronous is not its frequent misprediction
        kept = combi_screen(
            *_labels("cause+belief", "synchronous"), default_confusion_map(), _reference_freq()
        )
        assert kept is True

    def test_frequent_label_uses_strict_branch(self):
        kept = combi_screen(
            *_labels("cause", "level-of-detail"), default_confusion_map(), _reference_freq()
        )
        assert kept is False

    def test_frequent_exact_match_kept(self):
        kept = combi_screen(*_labels("cause", "cause"), default_confusion_map(), _reference_freq())
        assert kept is True


def _random_batch(n, seed=0):
    """``n`` instances and a base-model label for each."""
    rng = random.Random(seed)
    labels = training_label_set()
    batch, predicted = [], []
    for i in range(n):
        batch.append(_inst(rng.choice(labels).level2, domain=rng.choice(("EP", "WK", "NV"))))
        predicted.append(rng.choice(labels))
    return batch, predicted


class TestScreenBatch:
    def test_perfect_predictions_survive_all_screens(self):
        labels = training_label_set()
        batch = [_inst(l.level2) for l in labels]
        for kind in ScreenKind:
            kept, report = screen_batch(
                batch, labels, kind, default_confusion_map(), _reference_freq()
            )
            assert len(kept) == len(batch)
            assert _kept(report) == len(batch)

    def test_monotonic_nesting_on_random_batch(self):
        batch, predicted = _random_batch(1000, seed=4)
        cmap, freq = default_confusion_map(), _reference_freq()
        kept_strict, _ = screen_batch(batch, predicted, ScreenKind.STRICT, cmap, freq)
        kept_combi, _ = screen_batch(batch, predicted, ScreenKind.COMBI, cmap, freq)
        kept_confusion, _ = screen_batch(batch, predicted, ScreenKind.CONFUSION, cmap, freq)
        ids = lambda items: {id(i) for i in items}
        assert ids(kept_strict) <= ids(kept_combi) <= ids(kept_confusion)

    def test_monotonic_nesting_with_partial_map(self):
        # as a derived map does, drop the entries of some labels (rare ones included)
        dropped = {resolve_label(n) for n in ("cause+belief", "level-of-detail", "manner")}
        full = default_confusion_map().entries
        cmap = ConfusionMap({k: v for k, v in full.items() if k not in dropped})
        (batch, predicted), freq = _random_batch(1000, seed=7), _reference_freq()
        kept = {
            kind: {id(i) for i in screen_batch(batch, predicted, kind, cmap, freq)[0]}
            for kind in ScreenKind
        }
        assert kept[ScreenKind.STRICT] <= kept[ScreenKind.COMBI] <= kept[ScreenKind.CONFUSION]
        assert all(id(i) in kept[ScreenKind.CONFUSION] for i in batch if i.intended in dropped)

    def test_empty_batch(self):
        kept, report = screen_batch([], [], ScreenKind.STRICT)
        assert kept == []
        assert report.strata == {}

    def test_order_preserved_and_report_consistent(self):
        batch, predicted = _random_batch(200, seed=9)
        kept, report = screen_batch(batch, predicted, ScreenKind.STRICT)
        positions = [next(n for n, i in enumerate(batch) if i is k) for k in kept]
        assert positions == sorted(positions)
        assert _kept(report) == len(kept)
        for stats in report.strata.values():
            assert stats.kept <= stats.candidates
            assert sum(stats.kept_per_label.values()) == stats.kept

    def test_prediction_count_must_match_batch(self):
        batch, predicted = _random_batch(10, seed=2)
        for wrong in (predicted[:-1], predicted + predicted[:1]):
            with pytest.raises(ValueError):
                screen_batch(batch, wrong, ScreenKind.STRICT)

    def test_missing_map_arguments_rejected(self):
        batch, predicted = _random_batch(3)
        with pytest.raises(ScreeningError):
            screen_batch(batch, predicted, ScreenKind.CONFUSION)
        with pytest.raises(ScreeningError):
            screen_batch(batch, predicted, ScreenKind.COMBI, default_confusion_map())


def test_report_rendering_mirrors_strata():
    _, report = screen_batch(*_random_batch(300, seed=5), ScreenKind.STRICT)
    table = render_screening_report(report, domains=("EP", "WK", "NV"))
    lines = table.strip().splitlines()
    assert lines[0] == "domain\tmock/DC/strict"
    assert len(lines) == 4


def test_synthetic_record_round_trip(tmp_path):
    batch = [
        dataclasses.replace(
            inst,
            pair=dataclasses.replace(inst.pair, doc_id=f"doc-{n}"),
            connective=None if n % 3 == 0 else "because",
            example_id=f"ex-{n}",
            decoding={"max_new_tokens": 40, "seed": n, "temperature": 0.0},
        )
        for n, inst in enumerate(_random_batch(25, seed=6)[0])
    ]
    path = tmp_path / "synthetic.jsonl"
    write_synthetic_records(batch, path)
    assert read_synthetic_records(path) == batch
