"""Tests of the benchmark's own arithmetic.

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import statistics
import sys
import unittest
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import (  # noqa: E402
    Span,
    manifest_diff,
    percentile,
    quartiles,
    ratio,
    self_times,
    stage_kind,
)
from tracing import layer_metrics  # noqa: E402


def span(span_id, name, start, end, parent=None, op="cold"):
    return Span(span_id, name, start, end, parent, op)


class SelfTimeTest(unittest.TestCase):
    def test_leaf_span_is_all_self_time(self):
        self.assertEqual(self_times([span(1, "a", 2.0, 5.0)]), {1: 3.0})

    def test_featurize_inside_featurize_pairs_inside_batch_predict(self):
        spans = [
            span(1, "adaptation.batch_predict", 0.0, 10.0),
            span(2, "reference_backend.featurize_pairs", 1.0, 7.0, parent=1),
            span(3, "reference_backend.featurize", 1.5, 3.5, parent=2),
            span(4, "reference_backend.featurize", 4.0, 6.0, parent=2),
            span(5, "reference_backend.score", 7.5, 9.0, parent=1),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own[3], 2.0)
        self.assertAlmostEqual(own[4], 2.0)
        self.assertAlmostEqual(own[2], 6.0 - 4.0)
        self.assertAlmostEqual(own[5], 1.5)
        self.assertAlmostEqual(own[1], 10.0 - 6.0 - 1.5)
        # self times partition the root span exactly
        self.assertAlmostEqual(sum(own.values()), 10.0)

    def test_overlapping_children_count_once(self):
        spans = [
            span(1, "p", 0.0, 10.0),
            span(2, "c", 1.0, 5.0, parent=1),
            span(3, "c", 3.0, 6.0, parent=1),
        ]
        self.assertAlmostEqual(self_times(spans)[1], 10.0 - 5.0)

    def test_child_outside_parent_is_clipped(self):
        spans = [span(1, "p", 0.0, 4.0), span(2, "c", 3.0, 9.0, parent=1)]
        self.assertAlmostEqual(self_times(spans)[1], 3.0)


class QuantileTest(unittest.TestCase):
    def test_quartiles_match_statistics_quantiles(self):
        values = [5.5, 7.5, 6.1, 5.9, 6.0, 6.3, 5.7, 7.0, 6.6, 5.8]
        q1, q2, q3 = statistics.quantiles(values, n=4)
        self.assertEqual(quartiles(values), (q1, q2, q3))
        self.assertEqual(q2, statistics.median(values))

    def test_quartiles_of_known_sample(self):
        # exclusive method: positions (n+1)p = 1.25, 2.5, 3.75 on [1, 2, 3, 4]
        self.assertEqual(quartiles([4.0, 1.0, 3.0, 2.0]), (1.25, 2.5, 3.75))

    def test_single_sample_is_its_own_median(self):
        self.assertEqual(quartiles([3.2]), (3.2, 3.2, 3.2))

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            quartiles([])

    def test_nearest_rank_percentile(self):
        values = list(range(1, 101))
        self.assertEqual(percentile(values, 50), 50)
        self.assertEqual(percentile(values, 99), 99)
        self.assertEqual(percentile([7.0], 99), 7.0)
        self.assertEqual(percentile([1, 2, 3], 50), 2)


class RatioTest(unittest.TestCase):
    def test_ratio_and_zero_base(self):
        self.assertEqual(ratio(3, 4), 0.75)
        self.assertEqual(ratio(0, 0), 0.0)

    def test_layer_ratios_use_their_bases(self):
        spans = [
            span(1, "generation.batch", 0.0, 2.0),
            span(2, "generation.request", 0.1, 0.5, parent=1),
            span(3, "generation.request", 0.6, 1.0, parent=1),
            span(4, "generation.request", 1.1, 1.5, parent=1),
            span(5, "generation.request", 1.6, 1.9, parent=1),
            span(6, "reference_backend.featurize", 3.0, 3.1),
            span(7, "reference_backend.featurize", 3.1, 3.2),
            span(8, "reference_backend.featurize", 3.2, 3.3),
        ]
        counts = Counter(
            {
                "generation.cache_hits": 1,
                "screening.candidates": 40,
                "screening.kept": 30,
                "pipeline.digest_bytes": 2_500_000,
            }
        )
        metrics = layer_metrics(spans, counts, distinct_featurize=2)
        self.assertEqual(metrics["generation.requests"], 4)
        self.assertEqual(metrics["generation.cache_hit_ratio"], 1 / 4)
        # inclusive generate_batch time over requests
        self.assertAlmostEqual(metrics["generation.per_request_us"], 2.0 / 4 * 1e6)
        # batch and request self time together: 2.0 - nothing nested below requests
        self.assertAlmostEqual(metrics["generation.batch_self_s"], 2.0)
        self.assertEqual(metrics["screening.keep_ratio"], 30 / 40)
        self.assertEqual(metrics["reference_backend.featurize_calls"], 3)
        self.assertEqual(metrics["reference_backend.featurize_distinct_ratio"], 2 / 3)
        self.assertEqual(metrics["pipeline.digest_mb"], 2.5)

    def test_unused_layer_reads_zero(self):
        metrics = layer_metrics([], Counter(), distinct_featurize=0)
        self.assertEqual(metrics["generation.cache_hit_ratio"], 0.0)
        self.assertEqual(metrics["reference_backend.ce_step_p99_ms"], 0.0)
        self.assertEqual(metrics["pseudo_label.pairs"], 0)


class ManifestDiffTest(unittest.TestCase):
    BEFORE = {
        "ingest": {"digest": "a", "outputs": {"train": "t"}, "wall_clock": 0.5},
        "screen": {"digest": "s1", "outputs": {"screened": "x"}, "wall_clock": 0.2},
        "adapt:prefix-specific-syn:seed1": {"digest": "p", "outputs": {}, "wall_clock": 1.0},
        "pseudo-label": {"digest": "q", "outputs": {}, "wall_clock": 0.1},
    }

    def test_changed_new_unchanged_and_pruned(self):
        after = {
            "ingest": dict(self.BEFORE["ingest"]),
            "screen": {"digest": "s2", "outputs": {"screened": "y"}, "wall_clock": 0.3},
            "adapt:prefix-specific-syn:seed1": {"digest": "p", "outputs": {}, "wall_clock": 1.1},
            "report": {"digest": "r", "outputs": {}, "wall_clock": 0.01},
        }
        diff = manifest_diff(self.BEFORE, after)
        # a re-run with equal digests still rewrites wall_clock, so it counts as run
        self.assertEqual(diff.run, ["adapt:prefix-specific-syn:seed1", "report", "screen"])
        self.assertEqual(diff.skipped, ["ingest"])
        self.assertEqual(diff.pruned, ["pseudo-label"])

    def test_fresh_workdir_runs_everything(self):
        diff = manifest_diff({}, self.BEFORE)
        self.assertEqual(len(diff.run), 4)
        self.assertEqual(diff.skipped, [])

    def test_noop_skips_everything(self):
        diff = manifest_diff(self.BEFORE, {k: dict(v) for k, v in self.BEFORE.items()})
        self.assertEqual((diff.run, len(diff.skipped), diff.pruned), ([], 4, []))

    def test_stage_kinds(self):
        self.assertEqual(stage_kind("adapt:concat-mixed-syn:seed1"), "adapt")
        self.assertEqual(stage_kind("evaluate:baseline:seed2"), "evaluate")
        self.assertEqual(stage_kind("train-base:seed1"), "train-base")
        self.assertEqual(stage_kind("report"), "report")


if __name__ == "__main__":
    unittest.main()
