"""Multi-gold evaluation, significance testing, and the results table.

Test items carry every label that reached the vote threshold. A prediction
matching any gold label counts as correct, so accuracy is protocol
independent. Classwise F1 depends on how the unmatched alternative gold
labels are treated; three protocols are implemented:

  discard-alternatives (default)
      hit: one TP for the predicted label; alternatives contribute nothing.
      miss: one FP for the predicted label, one FN for the majority label.
  all-gold-fn
      like the default, but a miss charges an FN to every gold label.
  alternatives-as-tp
      alternatives are credited as TPs (the reading used by some prior
      evaluations, kept for comparability).

All per-class arithmetic is exact (integer counts, fraction metrics);
macro-F1 averages over the classes that occur in at least one gold set,
never over classes that only appear as predictions.

``score`` has one counting kernel. It takes a ``ScoreBatch``: the items as
columns of label ids (a column of ``taxonomy.all_labels()``, the global
order, as in ``records.vote_matrix``) and a gold mask over those columns,
which ``records.gold_label_masks`` derives from the vote rows. Under every
protocol each item adds a fixed (tp, fp, fn) vector per class, so the
kernel counts them all at once with ``bincount`` and mask sums.

A run's report rests on one path: ``report_payload`` stores each scored
domain's fractions as [numerator, denominator] pairs, the report stage turns
each pair into a per-seed percent, ``t_test`` compares a variant's percents
with the baseline's, and the two renderers print each cell's mean.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .taxonomy import RelationLabel, all_labels

_LABELS = all_labels()
# the label columns in the order of their names, the order of a report's per-class table
_BY_NAME = sorted(range(len(_LABELS)), key=lambda column: _LABELS[column].level2)
# the two metrics of a payload, and their order in each domain's columns of the report
METRICS = ("macro_f1", "accuracy")


class EvalProtocol(str, Enum):
    DISCARD_ALTERNATIVES = "discard-alternatives"
    ALL_GOLD_FN = "all-gold-fn"
    ALTERNATIVES_AS_TP = "alternatives-as-tp"


class EvaluationError(ValueError):
    pass


@dataclass(frozen=True)
class ClassScores:
    tp: int
    fp: int
    fn: int

    @property
    def precision(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fp) if self.tp + self.fp else Fraction(0)

    @property
    def recall(self) -> Fraction:
        return Fraction(self.tp, self.tp + self.fn) if self.tp + self.fn else Fraction(0)

    @property
    def f1(self) -> Fraction:
        p, r = self.precision, self.recall
        return 2 * p * r / (p + r) if p + r else Fraction(0)


@dataclass(frozen=True)
class MetricReport:
    """Exact per-class and aggregate scores for one run."""

    accuracy: Fraction
    per_class: Mapping[RelationLabel, ClassScores]
    macro_f1: Fraction
    n_items: int
    protocol: EvalProtocol
    run_id: str = ""


def report_payload(report: MetricReport) -> dict:
    """JSON form of a report: fractions as [numerator, denominator] pairs."""
    return {
        "accuracy": [report.accuracy.numerator, report.accuracy.denominator],
        "macro_f1": [report.macro_f1.numerator, report.macro_f1.denominator],
        "n_items": report.n_items,
        "protocol": report.protocol.value,
        "run_id": report.run_id,
        "per_class": {
            label.level2: [cs.tp, cs.fp, cs.fn] for label, cs in report.per_class.items()
        },
    }


@dataclass(frozen=True)
class ScoreBatch:
    """Scored items as columns; a label is its column in ``all_labels()``.

    ``predicted`` and ``majority`` hold one label column per item, ``gold``
    one row per item with ``True`` at the columns of its gold labels. Each
    item's majority label is in its gold set.
    """

    predicted: np.ndarray
    gold: np.ndarray
    majority: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.predicted)
        if self.gold.shape != (n, len(_LABELS)) or len(self.majority) != n:
            raise EvaluationError("batch columns disagree on the item count or the label columns")
        if not self.gold[np.arange(n), self.majority].all():
            raise EvaluationError("majority label outside gold set")

    def __len__(self) -> int:
        return len(self.predicted)


def score(batch: ScoreBatch, protocol: EvalProtocol, run_id: str = "") -> MetricReport:
    """Score predictions against multi-gold sets under one protocol.

    A hit adds a TP for the predicted label; a miss adds an FP for it and an
    FN for the majority label, or for every gold label under
    ``all-gold-fn``. Under ``alternatives-as-tp`` every gold label but the
    one already counted (the prediction on a hit, the majority on a miss)
    adds a TP too, so the TPs are the gold counts less the missed majorities.
    """
    if not len(batch):
        raise EvaluationError("cannot score an empty batch")
    if not isinstance(protocol, EvalProtocol):
        raise EvaluationError(f"unknown protocol {protocol!r}")
    n, width = len(batch), len(_LABELS)
    hit = batch.gold[np.arange(n), batch.predicted]
    miss = ~hit
    missed_majority = np.bincount(batch.majority[miss], minlength=width)
    if protocol is EvalProtocol.ALTERNATIVES_AS_TP:
        tp = batch.gold.sum(axis=0) - missed_majority
    else:
        tp = np.bincount(batch.predicted[hit], minlength=width)
    fp = np.bincount(batch.predicted[miss], minlength=width)
    if protocol is EvalProtocol.ALL_GOLD_FN:
        fn = batch.gold[miss].sum(axis=0)
    else:
        fn = missed_majority
    occurring = batch.gold.any(axis=0)
    seen = occurring | (tp > 0) | (fp > 0) | (fn > 0)
    tp, fp, fn = tp.tolist(), fp.tolist(), fn.tolist()  # Python ints for exact fractions
    per_class = {
        _LABELS[c]: ClassScores(tp[c], fp[c], fn[c]) for c in _BY_NAME if seen[c]
    }
    occurring_f1 = [per_class[_LABELS[c]].f1 for c in np.flatnonzero(occurring).tolist()]
    macro = sum(occurring_f1, start=Fraction(0)) / len(occurring_f1)
    return MetricReport(
        accuracy=Fraction(int(hit.sum()), n),
        per_class=per_class,
        macro_f1=macro,
        n_items=n,
        protocol=protocol,
        run_id=run_id,
    )


@dataclass(frozen=True)
class SignificanceResult:
    p_value: float
    significant: bool


def t_test(
    model_runs: Sequence[float], baseline_runs: Sequence[float], alpha: float
) -> SignificanceResult:
    """Two-tailed Welch t-test of model vs baseline runs.

    Welch-Satterthwaite degrees of freedom; no pairing across runs is
    assumed. Two zero-variance samples yield p=1.0 at equal means (no
    effect) and p=0.0 otherwise.
    """
    if len(model_runs) < 2 or len(baseline_runs) < 2:
        raise EvaluationError("t-test needs at least two runs per side")
    n_m, n_b = len(model_runs), len(baseline_runs)
    mean_m = _mean(model_runs)
    mean_b = _mean(baseline_runs)
    var_m = sum((x - mean_m) ** 2 for x in model_runs) / (n_m - 1)
    var_b = sum((x - mean_b) ** 2 for x in baseline_runs) / (n_b - 1)
    if var_m == 0.0 and var_b == 0.0:
        p_value = 1.0 if mean_m == mean_b else 0.0
    else:
        se_sq = var_m / n_m + var_b / n_b
        t_stat = (mean_m - mean_b) / math.sqrt(se_sq)
        df = se_sq**2 / (
            (var_m / n_m) ** 2 / (n_m - 1) + (var_b / n_b) ** 2 / (n_b - 1)
        )
        p_value = _two_tailed_p(t_stat, df)
    return SignificanceResult(p_value=p_value, significant=p_value < alpha)


def _mean(values: Sequence[float]) -> float:
    return sum(values) / len(values)


def _two_tailed_p(t_stat: float, df: float) -> float:
    # scipy.stats.t.sf(x, df) evaluates stdtr(df, -x); calling scipy.special
    # directly keeps scipy.stats, about 0.6 s of import, out of every start-up
    return 2.0 * float(special.stdtr(df, -abs(t_stat)))


@dataclass(frozen=True)
class VariantMeta:
    """Row identity and settings metadata for the results table."""

    variant_id: str
    model: str
    llm: str = "-"
    template: str = "-"
    screen: str = "-"
    config: str = "-"
    baseline: bool = False


def render_results_table(
    variants: Sequence[VariantMeta],
    runs: Mapping[tuple[str, str, str], Sequence[float]],
    significance: Mapping[tuple[str, str, str], SignificanceResult],
    sizes: Mapping[tuple[str, str], int],
    domains: Sequence[str],
) -> str:
    """Fixed-width report: one row per variant, F1/Acc per domain.

    ``runs`` holds each (variant, domain, metric) cell's per-seed percents, and
    a cell shows their mean. The size column of a domain-specific variant is
    the rounded mean of its per-domain training sizes. The best value per
    column is wrapped in ``**``; values significantly different from the
    baseline get a ``*``.
    """
    if not any(v.baseline for v in variants):
        raise EvaluationError("results table needs a baseline variant")
    means = {cell: _mean(values) for cell, values in runs.items()}
    columns = [(domain, metric) for domain in domains for metric in METRICS]
    best = {
        (domain, metric): max(means[(v.variant_id, domain, metric)] for v in variants)
        for domain, metric in columns
    }

    header = ["model", "LLM", "tpl.", "screen", "config.", "size"]
    for domain in domains:
        header += [f"{domain} F1", f"{domain} Acc"]
    rows = [header]
    for variant in variants:
        size = _mean([sizes[(variant.variant_id, domain)] for domain in domains])
        row = [variant.model, variant.llm, variant.template, variant.screen, variant.config,
               str(round(size))]
        for domain, metric in columns:
            value = means[(variant.variant_id, domain, metric)]
            cell = f"{value:.2f}"
            if best[(domain, metric)] == value:
                cell = f"**{cell}**"
            result = significance.get((variant.variant_id, domain, metric))
            if result is not None and result.significant and not variant.baseline:
                cell += "*"
            row.append(cell)
        rows.append(row)

    widths = [max(len(row[i]) for row in rows) for i in range(len(header))]
    lines = []
    for idx, row in enumerate(rows):
        lines.append(" | ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip())
        if idx == 0:
            lines.append("-+-".join("-" * width for width in widths))
    return "\n".join(lines) + "\n"


def results_tsv(
    variants: Sequence[VariantMeta],
    runs: Mapping[tuple[str, str, str], Sequence[float]],
    significance: Mapping[tuple[str, str, str], SignificanceResult],
    sizes: Mapping[tuple[str, str], int],
    domains: Sequence[str],
) -> str:
    """Machine-readable companion to the formatted table."""
    lines = ["variant\tdomain\tsize\tmacro_f1\taccuracy\tp_f1\tp_acc"]
    for variant in variants:
        for domain in domains:
            cells = [(variant.variant_id, domain, metric) for metric in METRICS]
            results = [significance.get(cell) for cell in cells]
            lines.append("\t".join([
                variant.variant_id,
                domain,
                str(sizes[(variant.variant_id, domain)]),
                *(f"{_mean(runs[cell]):.6f}" for cell in cells),
                *("" if result is None else f"{result.p_value:.6g}" for result in results),
            ]))
    return "\n".join(lines) + "\n"
