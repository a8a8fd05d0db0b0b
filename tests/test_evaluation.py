import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

import drsynth
from drsynth.evaluation import (
    ClassScores,
    EvalProtocol,
    EvaluationError,
    MetricReport,
    MetricSummary,
    RunSummary,
    ScoreBatch,
    SignificanceResult,
    VariantMeta,
    _two_tailed_p,
    aggregate_runs,
    render_results_table,
    report_payload,
    results_tsv,
    score,
    t_test,
)
from drsynth.records import ArgumentPair, CrowdAnnotatedInstance, gold_label_masks, vote_matrix
from drsynth.taxonomy import NO_RELATION, RelationLabel, all_labels, label_order, resolve_label
from test_records import _gold_label_set, majority_label

CAUSE = resolve_label("cause")
CONCESSION = resolve_label("concession")
CONJUNCTION = resolve_label("conjunction")
CONTRAST = resolve_label("contrast")
SYNCHRONOUS = resolve_label("synchronous")
ASYNCHRONOUS = resolve_label("asynchronous")


class Item(NamedTuple):
    """One scored item, as the per-item oracle reads it."""

    predicted: RelationLabel
    gold: frozenset[RelationLabel]
    majority: RelationLabel


def _item(predicted, gold, majority=None):
    gold = frozenset(gold)
    return Item(predicted, gold, majority if majority is not None else next(iter(gold)))


def _batch(items):
    """The items as a ``ScoreBatch``: label ids and a gold mask over ``all_labels()``."""
    gold = np.zeros((len(items), len(all_labels())), dtype=bool)
    for row, item in enumerate(items):
        gold[row, [label_order(label) for label in item.gold]] = True
    return ScoreBatch(
        np.array([label_order(item.predicted) for item in items], dtype=np.intp),
        gold,
        np.array([label_order(item.majority) for item in items], dtype=np.intp),
    )


# Twelve hand-tallied items. Under discard-alternatives:
#   cause:        TP 3 (1,2,10)  FP 2 (5,7)  FN 1 (4)   -> P 3/5, R 3/4, F1 2/3
#   conjunction:  TP 2 (8,12)    FP 1 (4)    FN 1 (5)   -> P 2/3, R 2/3, F1 2/3
#   concession:   TP 1 (3)       FP 1 (11)   FN 1 (7)   -> P 1/2, R 1/2, F1 1/2
#   contrast:     TP 1 (6)       FP 0        FN 1 (11)  -> P 1,   R 1/2, F1 2/3
#   asynchronous: TP 0           FP 0        FN 1 (9)   -> F1 0 (occurs in gold)
#   synchronous:  TP 0           FP 1 (9)    FN 0       -> prediction-only, no macro
# accuracy 7/12; macro over {cause, conjunction, concession, contrast,
# asynchronous} = (2/3 + 2/3 + 1/2 + 2/3 + 0) / 5 = 1/2
TWELVE_ITEMS = [
    _item(CAUSE, {CAUSE}),
    _item(CAUSE, {CAUSE, CONCESSION}, majority=CONCESSION),
    _item(CONCESSION, {CAUSE, CONCESSION}, majority=CAUSE),
    _item(CONJUNCTION, {CAUSE}, majority=CAUSE),
    _item(CAUSE, {CONJUNCTION}, majority=CONJUNCTION),
    _item(CONTRAST, {CONCESSION, CONTRAST}, majority=CONCESSION),
    _item(CAUSE, {CONCESSION}, majority=CONCESSION),
    _item(CONJUNCTION, {CONJUNCTION, CAUSE}, majority=CONJUNCTION),
    _item(SYNCHRONOUS, {ASYNCHRONOUS}, majority=ASYNCHRONOUS),
    _item(CAUSE, {CAUSE, CONJUNCTION}, majority=CAUSE),
    _item(CONCESSION, {CONTRAST}, majority=CONTRAST),
    _item(CONJUNCTION, {CONJUNCTION}),
]

TWELVE_EXPECTED = {
    CAUSE: (3, 2, 1, Fraction(3, 5), Fraction(3, 4), Fraction(2, 3)),
    CONJUNCTION: (2, 1, 1, Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
    CONCESSION: (1, 1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
    CONTRAST: (1, 0, 1, Fraction(1), Fraction(1, 2), Fraction(2, 3)),
    ASYNCHRONOUS: (0, 0, 1, Fraction(0), Fraction(0), Fraction(0)),
    SYNCHRONOUS: (0, 1, 0, Fraction(0), Fraction(0), Fraction(0)),
}


class TestScoreDiscardAlternatives:
    def test_twelve_item_hand_tally(self):
        report = score(_batch(TWELVE_ITEMS))
        assert report.accuracy == Fraction(7, 12)
        assert report.macro_f1 == Fraction(1, 2)
        for label, (tp, fp, fn, p, r, f1) in TWELVE_EXPECTED.items():
            scores = report.per_class[label]
            assert (scores.tp, scores.fp, scores.fn) == (tp, fp, fn)
            assert scores.precision == p
            assert scores.recall == r
            assert scores.f1 == f1

    def test_perfect_singleton(self):
        report = score(_batch([_item(CAUSE, {CAUSE})]))
        assert report.accuracy == Fraction(1)
        assert report.per_class[CAUSE].f1 == Fraction(1)
        assert report.macro_f1 == Fraction(1)

    def test_two_record_spec_case(self):
        records = [
            _item(CAUSE, {CAUSE, CONCESSION}, majority=CAUSE),
            _item(CONJUNCTION, {CONCESSION}, majority=CONCESSION),
        ]
        report = score(_batch(records))
        assert report.accuracy == Fraction(1, 2)
        assert (report.per_class[CAUSE].tp, report.per_class[CAUSE].fp) == (1, 0)
        assert report.per_class[CONJUNCTION].fp == 1
        assert report.per_class[CONCESSION].fn == 1
        # conjunction occurs only as a prediction: excluded from the macro
        assert report.macro_f1 == Fraction(1, 2)

    def test_six_item_fixture_fixed_tally(self):
        records = [
            _item(CAUSE, {CAUSE}),
            _item(CAUSE, {CONCESSION}),
            _item(CONCESSION, {CONCESSION, CAUSE}, majority=CAUSE),
            _item(CONJUNCTION, {CONJUNCTION}),
            _item(CAUSE, {CAUSE, CONJUNCTION}, majority=CAUSE),
            _item(CONJUNCTION, {CAUSE}),
        ]
        report = score(_batch(records))
        assert report.accuracy == Fraction(2, 3)
        assert report.macro_f1 == Fraction(2, 3)
        for label in (CAUSE, CONCESSION, CONJUNCTION):
            assert report.per_class[label].f1 == Fraction(2, 3)

    def test_per_item_contribution_is_exactly_one_count(self):
        report = score(_batch(TWELVE_ITEMS))
        total_tp = sum(c.tp for c in report.per_class.values())
        total_fp = sum(c.fp for c in report.per_class.values())
        total_fn = sum(c.fn for c in report.per_class.values())
        assert total_tp + total_fp == len(TWELVE_ITEMS)
        assert total_fp == total_fn

    def test_permutation_invariance(self):
        shuffled = list(reversed(TWELVE_ITEMS))
        assert score(_batch(shuffled)) == score(_batch(TWELVE_ITEMS))

    def test_empty_records_rejected(self):
        with pytest.raises(EvaluationError):
            score(_batch([]))

    def test_empty_gold_rejected(self):
        with pytest.raises(EvaluationError):
            _batch([_item(CAUSE, set(), CAUSE)])

    def test_majority_outside_gold_rejected(self):
        with pytest.raises(EvaluationError):
            _batch([_item(CAUSE, {CAUSE}, CONCESSION)])


class TestProtocols:
    def test_accuracy_is_protocol_independent(self):
        accuracies = {
            protocol: score(_batch(TWELVE_ITEMS), protocol).accuracy for protocol in EvalProtocol
        }
        assert len(set(accuracies.values())) == 1

    def test_protocols_agree_on_single_gold_subset(self):
        single_gold = [r for r in TWELVE_ITEMS if len(r.gold) == 1]
        reports = [score(_batch(single_gold), protocol) for protocol in EvalProtocol]
        first = reports[0]
        for other in reports[1:]:
            assert other.accuracy == first.accuracy
            assert other.macro_f1 == first.macro_f1
            assert {
                l: (c.tp, c.fp, c.fn) for l, c in other.per_class.items()
            } == {l: (c.tp, c.fp, c.fn) for l, c in first.per_class.items()}

    def test_all_gold_fn_charges_every_gold_label(self):
        records = [_item(SYNCHRONOUS, {CAUSE, CONCESSION}, majority=CAUSE)]
        report = score(_batch(records), EvalProtocol.ALL_GOLD_FN)
        assert report.per_class[CAUSE].fn == 1
        assert report.per_class[CONCESSION].fn == 1

    def test_alternatives_as_tp_credits_alternatives(self):
        records = [_item(CAUSE, {CAUSE, CONCESSION}, majority=CONCESSION)]
        report = score(_batch(records), EvalProtocol.ALTERNATIVES_AS_TP)
        assert report.per_class[CAUSE].tp == 1
        assert report.per_class[CONCESSION].tp == 1

    def test_macro_never_includes_prediction_only_classes(self):
        records = [_item(SYNCHRONOUS, {CAUSE}, majority=CAUSE)]
        for protocol in EvalProtocol:
            report = score(_batch(records), protocol)
            assert report.macro_f1 == report.per_class[CAUSE].f1


def _score_oracle(records, protocol=EvalProtocol.DISCARD_ALTERNATIVES):
    """Oracle: the per-record counting loop that ``score``'s kernel replaced, over ``Item``s."""
    tp, fp, fn = {}, {}, {}
    occurring = set()
    hits = 0

    def bump(counter, label):
        counter[label] = counter.get(label, 0) + 1

    for record in records:
        occurring.update(record.gold)
        if record.predicted in record.gold:
            hits += 1
            bump(tp, record.predicted)
            if protocol is EvalProtocol.ALTERNATIVES_AS_TP:
                for alt in record.gold - {record.predicted}:
                    bump(tp, alt)
        else:
            bump(fp, record.predicted)
            if protocol is EvalProtocol.ALL_GOLD_FN:
                for gold in record.gold:
                    bump(fn, gold)
            else:
                bump(fn, record.majority)
                if protocol is EvalProtocol.ALTERNATIVES_AS_TP:
                    for alt in record.gold - {record.majority}:
                        bump(tp, alt)

    seen = occurring | set(tp) | set(fp) | set(fn)
    per_class = {
        label: ClassScores(tp.get(label, 0), fp.get(label, 0), fn.get(label, 0))
        for label in sorted(seen, key=lambda l: l.level2)
    }
    macro = sum((per_class[label].f1 for label in occurring), start=Fraction(0)) / len(occurring)
    return MetricReport(
        accuracy=Fraction(hits, len(records)), per_class=per_class, macro_f1=macro,
        n_items=len(records), protocol=protocol,
    )


LABELS = all_labels()
_VOTES = st.dictionaries(st.sampled_from(LABELS), st.integers(0, 4), min_size=1, max_size=6).filter(
    lambda votes: sum(votes.values()) > 0
)
# small counts make ties common; every label, no-relation and the labels
# outside the training set included, can be voted for and predicted
_ITEMS = st.lists(st.tuples(_VOTES, st.sampled_from(LABELS)), min_size=1, max_size=40)
_THRESHOLDS = st.one_of(
    st.integers(1, 10).map(lambda tenths: tenths / 10), st.floats(0.1, 1.0)
)


class TestKernelAgainstOracles:
    @settings(max_examples=300, deadline=None)
    @given(items=_ITEMS, threshold=_THRESHOLDS)
    def test_gold_masks_and_score_match_the_per_record_loop(self, items, threshold):
        pair = ArgumentPair(arg1="a", arg2="b")
        instances = [
            CrowdAnnotatedInstance(pair, tuple(votes.items()), "EP")
            for votes, _ in items
        ]
        gold, majority = gold_label_masks(vote_matrix(instances), threshold)
        for row, inst in enumerate(instances):
            assert {LABELS[c] for c in np.flatnonzero(gold[row])} == _gold_label_set(inst, threshold)
            assert LABELS[majority[row]] is majority_label(inst)
        # ingest drops the items whose majority is no-relation; the rest are scored
        kept = [row for row, inst in enumerate(instances) if majority_label(inst) is not NO_RELATION]
        if not kept:
            return
        records = [
            Item(items[row][1], frozenset(_gold_label_set(instances[row], threshold)),
                 majority_label(instances[row]))
            for row in kept
        ]
        batch = ScoreBatch(
            np.array([label_order(items[row][1]) for row in kept]), gold[kept], majority[kept]
        )
        assert len(batch) == len(records)
        for protocol in EvalProtocol:
            expected = report_payload(_score_oracle(records, protocol))
            assert report_payload(score(batch, protocol)) == expected
            assert report_payload(score(_batch(records), protocol)) == expected


class TestScoreBatch:
    def test_columns_must_agree(self):
        gold = np.zeros((2, len(LABELS)), dtype=bool)
        gold[:, 0] = True
        with pytest.raises(EvaluationError):
            ScoreBatch(np.array([0]), gold, np.array([0, 0]))
        with pytest.raises(EvaluationError):
            ScoreBatch(np.array([0, 0]), gold[:, :14], np.array([0, 0]))

    def test_majority_outside_gold_rejected(self):
        gold = np.zeros((1, len(LABELS)), dtype=bool)
        gold[0, 0] = True
        with pytest.raises(EvaluationError):
            ScoreBatch(np.array([0]), gold, np.array([1]))

    def test_counts_are_python_ints(self):
        report = score(_batch(TWELVE_ITEMS))
        assert all(
            type(count) is int
            for scores in report.per_class.values()
            for count in (scores.tp, scores.fp, scores.fn)
        )


class TestAggregateRuns:
    def _report(self, macro, accuracy):
        base = score(_batch([_item(CAUSE, {CAUSE})]))
        # synthesize runs with controlled values
        return type(base)(
            accuracy=Fraction(accuracy).limit_denominator(10**6),
            per_class=base.per_class,
            macro_f1=Fraction(macro).limit_denominator(10**6),
            n_items=base.n_items,
            protocol=base.protocol,
        )

    def test_mean_min_max(self):
        reports = [self._report(m / 100, 0.42) for m in (21.0, 21.5, 22.0)]
        summary = aggregate_runs(reports)
        assert summary.metrics["macro_f1"].mean == pytest.approx(21.5)
        assert summary.metrics["macro_f1"].min == pytest.approx(21.0)
        assert summary.metrics["macro_f1"].max == pytest.approx(22.0)
        assert summary.n_runs == 3

    def test_single_run(self):
        summary = aggregate_runs([self._report(0.215, 0.42)])
        assert summary.metrics["macro_f1"].mean == pytest.approx(21.5)

    def test_three_known_reports_match_recomputation(self):
        values = (19.25, 23.75, 21.0)
        reports = [self._report(v / 100, 0.4) for v in values]
        summary = aggregate_runs(reports)
        assert summary.metrics["macro_f1"].mean == pytest.approx(sum(values) / 3)
        assert summary.runs("macro_f1") == pytest.approx(list(values))

    def test_mismatched_protocols_rejected(self):
        a = score(_batch([_item(CAUSE, {CAUSE})]))
        b = score(_batch([_item(CAUSE, {CAUSE})]), EvalProtocol.ALL_GOLD_FN)
        with pytest.raises(EvaluationError):
            aggregate_runs([a, b])


def _t4_two_tailed(t_abs):
    # independent oracle: quadrature of the t density with 4 degrees of freedom
    pdf = lambda x: (3.0 / 8.0) * (1.0 + x * x / 4.0) ** -2.5
    tail, _ = integrate.quad(pdf, t_abs, math.inf)
    return 2.0 * tail


class TestTTest:
    def test_hand_computed_welch_case(self):
        result = t_test([10.0, 11.0, 12.0], [20.0, 21.0, 22.0])
        # means 11 vs 21, s^2 = 1 each, n = 3: t = -10 / sqrt(2/3), df = 4
        assert result.t_statistic == pytest.approx(-math.sqrt(150.0), abs=1e-9)
        assert result.p_value == pytest.approx(_t4_two_tailed(math.sqrt(150.0)), abs=1e-6)
        assert result.p_value < 0.01
        assert result.significant

    def test_identical_samples_no_effect(self):
        result = t_test([21.0, 21.5, 22.0], [21.0, 21.5, 22.0])
        # equal means with equal variances: t = 0, clearly not significant
        assert not result.significant
        assert result.p_value == pytest.approx(1.0)

    def test_close_samples_not_significant(self):
        result = t_test([21.0, 21.5, 22.0], [21.1, 21.4, 21.9])
        assert not result.significant
        assert result.p_value > 0.5

    def test_zero_variance_equal_means(self):
        result = t_test([5.0, 5.0], [5.0, 5.0])
        assert result.t_statistic == 0.0
        assert result.p_value == 1.0

    def test_zero_variance_different_means(self):
        result = t_test([5.0, 5.0], [7.0, 7.0])
        assert math.isinf(result.t_statistic)
        assert result.p_value == 0.0
        assert result.significant

    def test_short_samples_rejected(self):
        with pytest.raises(EvaluationError):
            t_test([1.0], [2.0, 3.0])

    @pytest.mark.parametrize("df", [0.5, 1.0, 2.0, 4.0, 37.3, 1e10])
    @pytest.mark.parametrize("t_abs", [0.0, 5e-324, 1e-300, 0.7, 12.2, 40.0, 1e6])
    def test_p_value_is_bit_equal_to_scipy_stats(self, df, t_abs):
        for t_stat in (t_abs, -t_abs):
            assert _two_tailed_p(t_stat, df) == 2.0 * float(stats.t.sf(abs(t_stat), df))


def test_cli_import_leaves_scipy_stats_unloaded():
    src = str(Path(drsynth.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    child = subprocess.run(
        [sys.executable, "-c", "import drsynth.cli, sys; print('scipy.stats' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.strip() == "False"


def _summary(macro_mean, acc_mean, values=None):
    values = values or (macro_mean,)
    return RunSummary(
        protocol=EvalProtocol.DISCARD_ALTERNATIVES,
        n_items=100,
        n_runs=len(values),
        metrics={
            "macro_f1": MetricSummary(macro_mean, macro_mean, macro_mean, tuple(values)),
            "accuracy": MetricSummary(acc_mean, acc_mean, acc_mean, (acc_mean,)),
        },
    )


class TestResultsTable:
    def test_baseline_only_single_unstarred_row(self):
        variants = [VariantMeta("baseline", "baseline", baseline=True)]
        summaries = {
            ("baseline", d): _summary(21.0 + i, 42.0 + i)
            for i, d in enumerate(("EP", "WK", "NV"))
        }
        table = render_results_table(variants, summaries)
        body = table.splitlines()[2:]
        assert len(body) == 1
        assert "*" not in body[0].replace("**", "")

    def test_size_column_averages_domain_specific_sizes(self):
        variants = [
            VariantMeta("baseline", "baseline", baseline=True),
            VariantMeta(
                "prefix-specific-syn", "base>syn", llm="mistral", template="DC",
                screen="strict", config="specific",
            ),
        ]
        summaries = {}
        for d in ("EP", "WK", "NV"):
            summaries[("baseline", d)] = _summary(21.0, 42.0)
            summaries[("prefix-specific-syn", d)] = _summary(22.0, 43.0)
        sizes = {
            ("prefix-specific-syn", "EP"): 10724,
            ("prefix-specific-syn", "WK"): 10689,
            ("prefix-specific-syn", "NV"): 10224,
        }
        table = render_results_table(variants, summaries, sizes=sizes)
        row = [l for l in table.splitlines() if l.startswith("base>syn")][0]
        assert "10546" in row

    def test_significant_cells_starred(self):
        variants = [
            VariantMeta("baseline", "baseline", baseline=True),
            VariantMeta("v", "model-v", config="specific"),
        ]
        summaries = {}
        for d in ("EP", "WK", "NV"):
            summaries[("baseline", d)] = _summary(21.0, 42.0)
            summaries[("v", d)] = _summary(25.0, 42.5)
        significance = {
            ("v", "EP", "macro_f1"): SignificanceResult(
                "macro_f1", 25.0, 21.0, 5.0, 0.004, 0.05, True
            )
        }
        table = render_results_table(variants, summaries, significance)
        row = [l for l in table.splitlines() if l.startswith("model-v")][0]
        assert "**25.00***" in row  # best in column and significant
        # exactly the one significant cell is starred
        stars = table.replace("**", "").count("*")
        assert stars == 1

    def test_missing_baseline_rejected(self):
        with pytest.raises(EvaluationError):
            render_results_table([VariantMeta("v", "m")], {})

    def test_tsv_contains_all_cells(self):
        variants = [VariantMeta("baseline", "baseline", baseline=True)]
        summaries = {
            ("baseline", d): _summary(21.0, 42.0) for d in ("EP", "WK", "NV")
        }
        tsv = results_tsv(variants, summaries)
        assert len(tsv.strip().splitlines()) == 4


def test_results_table_golden_regeneration():
    """Stored run values render to the frozen golden table byte-for-byte."""
    from pathlib import Path

    def summary(values_f1, values_acc):
        def metric(values):
            return MetricSummary(
                sum(values) / len(values), min(values), max(values), tuple(values)
            )

        return RunSummary(
            protocol=EvalProtocol.DISCARD_ALTERNATIVES,
            n_items=6203,
            n_runs=len(values_f1),
            metrics={"macro_f1": metric(values_f1), "accuracy": metric(values_acc)},
        )

    variants = [
        VariantMeta("baseline", "baseline", baseline=True),
        VariantMeta(
            "prefix-specific-syn", "base>syn", llm="mistral", template="DC",
            screen="strict", config="specific",
        ),
        VariantMeta(
            "prefix-specific-syn-confuse", "base>syn", llm="mistral", template="DC",
            screen="confuse", config="specific",
        ),
        VariantMeta("pseudo-specific-pseudo", "base+pseudo", config="specific"),
    ]
    stored = {
        ("baseline", "EP"): ([21.0, 21.2, 20.9], [42.1, 41.9, 42.0]),
        ("baseline", "WK"): ([22.7, 22.9, 22.8], [45.5, 45.6, 45.6]),
        ("baseline", "NV"): ([21.9, 22.0, 21.9], [44.0, 44.0, 43.9]),
        ("prefix-specific-syn", "EP"): ([21.4, 21.5, 21.5], [40.5, 40.6, 40.5]),
        ("prefix-specific-syn", "WK"): ([24.4, 24.5, 24.4], [47.0, 47.1, 47.0]),
        ("prefix-specific-syn", "NV"): ([22.6, 22.7, 22.7], [44.9, 44.9, 44.8]),
        ("prefix-specific-syn-confuse", "EP"): ([11.9, 11.8, 12.0], [21.7, 21.7, 21.8]),
        ("prefix-specific-syn-confuse", "WK"): ([16.9, 17.0, 16.9], [35.0, 35.1, 35.1]),
        ("prefix-specific-syn-confuse", "NV"): ([15.4, 15.5, 15.5], [31.5, 31.6, 31.5]),
        ("pseudo-specific-pseudo", "EP"): ([20.8, 20.8, 20.8], [41.2, 41.3, 41.3]),
        ("pseudo-specific-pseudo", "WK"): ([23.6, 23.7, 23.6], [46.2, 46.3, 46.3]),
        ("pseudo-specific-pseudo", "NV"): ([23.0, 23.1, 23.1], [44.1, 44.1, 44.1]),
    }
    summaries = {key: summary(*vals) for key, vals in stored.items()}
    sizes = {
        ("prefix-specific-syn", "EP"): 10724,
        ("prefix-specific-syn", "WK"): 10689,
        ("prefix-specific-syn", "NV"): 10224,
        ("prefix-specific-syn-confuse", "EP"): 39846,
        ("prefix-specific-syn-confuse", "WK"): 44833,
        ("prefix-specific-syn-confuse", "NV"): 44962,
        ("pseudo-specific-pseudo", "EP"): 12000,
        ("pseudo-specific-pseudo", "WK"): 12000,
        ("pseudo-specific-pseudo", "NV"): 12000,
    }
    significance = {}
    for meta in variants:
        if meta.baseline:
            continue
        for domain in ("EP", "WK", "NV"):
            for metric in ("macro_f1", "accuracy"):
                significance[(meta.variant_id, domain, metric)] = t_test(
                    summaries[(meta.variant_id, domain)].runs(metric),
                    summaries[("baseline", domain)].runs(metric),
                    metric=metric,
                )
    table = render_results_table(variants, summaries, significance, sizes)
    golden = Path(__file__).parent / "golden" / "results_table.txt"
    assert table.encode("utf-8") == golden.read_bytes()
