"""Multi-gold evaluation, cross-run aggregation, and significance testing.

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
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from scipy import special

from .taxonomy import RelationLabel, all_labels, resolve_label

_LABELS = all_labels()
# the label columns in the order of their names, the order of a report's per-class table
_BY_NAME = sorted(range(len(_LABELS)), key=lambda column: _LABELS[column].level2)


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

    @property
    def accuracy_pct(self) -> float:
        return float(self.accuracy) * 100.0

    @property
    def macro_f1_pct(self) -> float:
        return float(self.macro_f1) * 100.0


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


def report_from_payload(payload: dict) -> MetricReport:
    """Inverse of ``report_payload``."""
    per_class = {
        resolve_label(name): ClassScores(*counts)
        for name, counts in payload["per_class"].items()
    }
    return MetricReport(
        accuracy=Fraction(*payload["accuracy"]),
        per_class=per_class,
        macro_f1=Fraction(*payload["macro_f1"]),
        n_items=int(payload["n_items"]),
        protocol=EvalProtocol(payload["protocol"]),
        run_id=payload.get("run_id", ""),
    )


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


def score(
    batch: ScoreBatch,
    protocol: EvalProtocol = EvalProtocol.DISCARD_ALTERNATIVES,
    run_id: str = "",
) -> MetricReport:
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
class MetricSummary:
    mean: float
    min: float
    max: float
    values: tuple[float, ...]


@dataclass(frozen=True)
class RunSummary:
    """Cross-seed aggregate; per-run values retained for significance tests."""

    protocol: EvalProtocol
    n_items: int
    n_runs: int
    metrics: Mapping[str, MetricSummary]

    def runs(self, metric: str) -> list[float]:
        return list(self.metrics[metric].values)


def aggregate_runs(reports: Sequence[MetricReport]) -> RunSummary:
    """Mean/min/max of macro-F1 and accuracy (in percent) across runs."""
    if not reports:
        raise EvaluationError("no reports to aggregate")
    first = reports[0]
    for report in reports[1:]:
        if report.protocol is not first.protocol:
            raise EvaluationError("reports mix evaluation protocols")
        if report.n_items != first.n_items:
            raise EvaluationError("reports cover different test sets")
    metrics = {}
    for name, getter in (("macro_f1", lambda r: r.macro_f1_pct), ("accuracy", lambda r: r.accuracy_pct)):
        values = tuple(getter(r) for r in reports)
        metrics[name] = MetricSummary(
            mean=sum(values) / len(values), min=min(values), max=max(values), values=values
        )
    return RunSummary(
        protocol=first.protocol, n_items=first.n_items, n_runs=len(reports), metrics=metrics
    )


@dataclass(frozen=True)
class SignificanceResult:
    metric: str
    model_mean: float
    baseline_mean: float
    t_statistic: float
    p_value: float
    alpha: float
    significant: bool


def t_test(
    model_runs: Sequence[float],
    baseline_runs: Sequence[float],
    alpha: float = 0.05,
    metric: str = "",
) -> SignificanceResult:
    """Two-tailed Welch t-test of model vs baseline runs.

    Welch-Satterthwaite degrees of freedom; no pairing across runs is
    assumed. Two zero-variance samples yield p=1.0 at equal means (no
    effect) and p=0.0 otherwise.
    """
    if len(model_runs) < 2 or len(baseline_runs) < 2:
        raise EvaluationError("t-test needs at least two runs per side")
    n_m, n_b = len(model_runs), len(baseline_runs)
    mean_m = sum(model_runs) / n_m
    mean_b = sum(baseline_runs) / n_b
    var_m = sum((x - mean_m) ** 2 for x in model_runs) / (n_m - 1)
    var_b = sum((x - mean_b) ** 2 for x in baseline_runs) / (n_b - 1)
    if var_m == 0.0 and var_b == 0.0:
        t_stat, p_value = _degenerate(mean_m - mean_b)
    else:
        se_sq = var_m / n_m + var_b / n_b
        t_stat = (mean_m - mean_b) / math.sqrt(se_sq)
        df = se_sq**2 / (
            (var_m / n_m) ** 2 / (n_m - 1) + (var_b / n_b) ** 2 / (n_b - 1)
        )
        p_value = _two_tailed_p(t_stat, df)

    return SignificanceResult(
        metric=metric,
        model_mean=mean_m,
        baseline_mean=mean_b,
        t_statistic=t_stat,
        p_value=p_value,
        alpha=alpha,
        significant=p_value < alpha,
    )


def _degenerate(mean_difference: float) -> tuple[float, float]:
    if mean_difference == 0.0:
        return 0.0, 1.0
    return math.copysign(math.inf, mean_difference), 0.0


def _two_tailed_p(t_stat: float, df: float) -> float:
    # scipy.stats.t.sf(x, df) evaluates stdtr(df, -x); calling scipy.special
    # directly keeps scipy.stats, about 0.6 s of import, out of every start-up
    return 2.0 * float(special.stdtr(df, -abs(t_stat)))


DEFAULT_DOMAIN_ORDER = ("EP", "WK", "NV")


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
    summaries: Mapping[tuple[str, str], RunSummary],
    significance: Mapping[tuple[str, str, str], SignificanceResult] | None = None,
    sizes: Mapping[tuple[str, str], int] | None = None,
    domains: Sequence[str] = DEFAULT_DOMAIN_ORDER,
) -> str:
    """Fixed-width report: one row per variant, F1/Acc per domain.

    The size column of a domain-specific variant is the rounded mean of its
    per-domain training sizes. The best value per column is wrapped in
    ``**``; values significantly different from the baseline get a ``*``.
    """
    significance = significance or {}
    sizes = sizes or {}
    if not any(v.baseline for v in variants):
        raise EvaluationError("results table needs a baseline variant")

    metric_keys = [(domain, metric) for domain in domains for metric in ("macro_f1", "accuracy")]
    best: dict[tuple[str, str], float] = {}
    for variant in variants:
        for domain, metric in metric_keys:
            summary = summaries.get((variant.variant_id, domain))
            if summary is None:
                continue
            value = summary.metrics[metric].mean
            key = (domain, metric)
            if key not in best or value > best[key]:
                best[key] = value

    def size_cell(variant: VariantMeta) -> str:
        per_domain = [
            sizes[(variant.variant_id, domain)]
            for domain in domains
            if (variant.variant_id, domain) in sizes
        ]
        if not per_domain:
            return "0"
        return str(round(sum(per_domain) / len(per_domain)))

    header = ["model", "LLM", "tpl.", "screen", "config.", "size"]
    for domain in domains:
        header += [f"{domain} F1", f"{domain} Acc"]
    rows = [header]
    for variant in variants:
        row = [variant.model, variant.llm, variant.template, variant.screen, variant.config,
               size_cell(variant)]
        for domain, metric in metric_keys:
            summary = summaries.get((variant.variant_id, domain))
            if summary is None:
                row.append("-")
                continue
            value = summary.metrics[metric].mean
            cell = f"{value:.2f}"
            if best.get((domain, metric)) == value:
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
    summaries: Mapping[tuple[str, str], RunSummary],
    significance: Mapping[tuple[str, str, str], SignificanceResult] | None = None,
    sizes: Mapping[tuple[str, str], int] | None = None,
    domains: Sequence[str] = DEFAULT_DOMAIN_ORDER,
) -> str:
    """Machine-readable companion to the formatted table."""
    significance = significance or {}
    sizes = sizes or {}
    lines = ["variant\tdomain\tsize\tmacro_f1\taccuracy\tp_f1\tp_acc"]
    for variant in variants:
        for domain in domains:
            summary = summaries.get((variant.variant_id, domain))
            if summary is None:
                continue
            sig_f1 = significance.get((variant.variant_id, domain, "macro_f1"))
            sig_acc = significance.get((variant.variant_id, domain, "accuracy"))
            lines.append(
                "\t".join(
                    [
                        variant.variant_id,
                        domain,
                        str(sizes.get((variant.variant_id, domain), 0)),
                        f"{summary.metrics['macro_f1'].mean:.6f}",
                        f"{summary.metrics['accuracy'].mean:.6f}",
                        f"{sig_f1.p_value:.6g}" if sig_f1 else "",
                        f"{sig_acc.p_value:.6g}" if sig_acc else "",
                    ]
                )
            )
    return "\n".join(lines) + "\n"
