"""Spans around drsynth's public functions, recorded from outside the package.

``Tracer.install()`` replaces each traced function with a wrapper that
records a span (name, start, end, parent span, op) and, for some functions,
counts taken from the arguments or the result. ``drsynth`` modules bind
names with ``from … import``, so the wrapper replaces the defining module's
attribute *and* every other binding of the same object in any loaded
``drsynth`` module; methods are replaced on their class. Spans stay in
memory until ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Callable

from stats import Span, percentile, ratio, self_times

# (module, attribute or Class.method, span name)
TRACED: tuple[tuple[str, str, str], ...] = (
    ("drsynth.reference_backend", "ReferenceBackend.ce_loss_and_grads", "reference_backend.ce_step"),
    ("drsynth.reference_backend", "ReferenceBackend.iv_loss_and_grads", "reference_backend.iv_step"),
    ("drsynth.reference_backend", "ReferenceBackend.featurize", "reference_backend.featurize"),
    ("drsynth.reference_backend", "ReferenceBackend.featurize_pairs", "reference_backend.featurize_pairs"),
    ("drsynth.reference_backend", "ReferenceBackend.score_matrix", "reference_backend.score"),
    ("drsynth.adaptation", "train_base", "adaptation.train_base"),
    ("drsynth.adaptation", "adapt_concat", "adaptation.adapt_concat"),
    ("drsynth.adaptation", "adapt_prefix", "adaptation.adapt_prefix"),
    ("drsynth.adaptation", "adapt_invariance", "adaptation.adapt_invariance"),
    ("drsynth.adaptation", "batch_predict", "adaptation.batch_predict"),
    ("drsynth.adaptation", "save_model", "adaptation.save_model"),
    ("drsynth.adaptation", "load_model", "adaptation.load_model"),
    ("drsynth.records", "ingest_source_corpus", "records.ingest"),
    ("drsynth.records", "ingest_target_corpus", "records.ingest"),
    ("drsynth.records", "ingest_raw_corpus", "records.ingest"),
    ("drsynth.records", "write_records", "records.write"),
    ("drsynth.generation", "generate_batch", "generation.batch"),
    ("drsynth.generation", "generate_arg2", "generation.request"),
    ("drsynth.generation", "MockBackend.complete", "generation.complete"),
    ("drsynth.generation", "postprocess", "generation.postprocess"),
    ("drsynth.generation", "GenerationCache.put", "generation.cache_put"),
    ("drsynth.generation", "GenerationCache.__init__", "generation.cache_load"),
    ("drsynth.prompts", "render_dc_prompt", "prompts.render"),
    ("drsynth.screening", "screen_batch", "screening.screen"),
    ("drsynth.pseudo_label", "pseudo_label_corpus", "pseudo_label.label"),
    ("drsynth.evaluation", "score", "evaluation.score"),
    ("drsynth.evaluation", "t_test", "evaluation.t_test"),
    ("drsynth.evaluation", "render_results_table", "evaluation.render"),
    ("drsynth.evaluation", "results_tsv", "evaluation.render"),
    ("drsynth.pipeline", "digest_path", "pipeline.digest"),
    ("drsynth.pipeline", "RunManifest.save", "pipeline.manifest_save"),
)


def _tree_bytes(path) -> int:
    path = Path(path)
    if path.is_file():
        return path.stat().st_size
    return sum(f.stat().st_size for f in path.rglob("*") if f.is_file())


def _written_rows(counter: Counter, args: tuple) -> tuple:
    """Wrap the iterable argument of a writer so its rows get counted."""

    def counted(rows):
        for row in rows:
            counter["records.rows_written"] += 1
            yield row

    return (counted(args[0]),) + args[1:]


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, Counter] = {}
        self.featurize_inputs: dict[str, set] = {}  # op -> distinct (arg1, arg2, token)
        self.op = ""
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []

    def set_op(self, op: str) -> None:
        self.op = op
        self.counts.setdefault(op, Counter())
        self.featurize_inputs.setdefault(op, set())

    # --- wrapping --------------------------------------------------------------

    def _count(self, name: str, args: tuple, kwargs: dict, result) -> None:
        counter = self.counts[self.op]
        if name == "reference_backend.featurize":
            token = args[2] if len(args) > 2 else kwargs.get("domain_token")
            self.featurize_inputs[self.op].add((args[1].arg1, args[1].arg2, token))
        elif name == "records.ingest":
            if hasattr(result, "dropped"):
                counter["records.rows_parsed"] += len(result.train) + len(result.dev) + result.dropped
            elif result and hasattr(result[0], "sentences"):
                counter["records.rows_parsed"] += sum(len(d.sentences) for d in result)
            else:
                counter["records.rows_parsed"] += len(result)
        elif name == "generation.request" and result.cache_hit:
            counter["generation.cache_hits"] += 1
        elif name == "screening.screen":
            counter["screening.candidates"] += len(args[0])
            counter["screening.kept"] += len(result[0])
        elif name == "pseudo_label.label":
            counter["pseudo_label.pairs"] += len(result)
        elif name == "evaluation.score":
            counter["evaluation.items_scored"] += len(args[0])
        elif name == "pipeline.digest":
            counter["pipeline.digest_bytes"] += _tree_bytes(args[0])

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self
        local = self._local
        rejected = importlib.import_module("drsynth.generation").GenerationRejected

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            parent = stack[-1] if stack else None
            span_id = next(tracer._ids)
            if name == "records.write":
                args = _written_rows(tracer.counts[tracer.op], args)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except rejected:
                if name == "generation.request":
                    tracer.counts[tracer.op]["generation.rejected"] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(span_id, name, start, end, parent, tracer.op))
            tracer._count(name, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        loaded = [m for n, m in sys.modules.items() if n == "drsynth" or n.startswith("drsynth.")]
        for module_name, attr, name in TRACED:
            module = importlib.import_module(module_name)
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method, self._wrap(name, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original)
            for other in loaded:
                for bound, value in list(vars(other).items()):
                    if value is original:
                        self._restore.append((other, bound, original))
                        setattr(other, bound, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# --- spans to per-layer metrics ------------------------------------------------

SELF_SECONDS = {
    "reference_backend.ce_step_s": ("reference_backend.ce_step",),
    "reference_backend.iv_step_s": ("reference_backend.iv_step",),
    "reference_backend.featurize_s": ("reference_backend.featurize",),
    "reference_backend.score_s": ("reference_backend.score",),
    "adaptation.train_base_s": ("adaptation.train_base",),
    "adaptation.adapt_concat_s": ("adaptation.adapt_concat",),
    "adaptation.adapt_prefix_s": ("adaptation.adapt_prefix",),
    "adaptation.adapt_invariance_s": ("adaptation.adapt_invariance",),
    "adaptation.batch_predict_s": ("adaptation.batch_predict",),
    "adaptation.save_model_s": ("adaptation.save_model",),
    "adaptation.load_model_s": ("adaptation.load_model",),
    "records.ingest_s": ("records.ingest",),
    "records.write_s": ("records.write",),
    "generation.batch_self_s": ("generation.batch", "generation.request"),
    "generation.complete_s": ("generation.complete",),
    "generation.postprocess_s": ("generation.postprocess",),
    "generation.cache_put_s": ("generation.cache_put",),
    "generation.cache_load_s": ("generation.cache_load",),
    "prompts.render_s": ("prompts.render",),
    "screening.screen_s": ("screening.screen",),
    "pseudo_label.label_s": ("pseudo_label.label",),
    "evaluation.score_s": ("evaluation.score",),
    "evaluation.t_test_s": ("evaluation.t_test",),
    "evaluation.render_s": ("evaluation.render",),
    "pipeline.digest_s": ("pipeline.digest",),
    "pipeline.manifest_save_s": ("pipeline.manifest_save",),
}

CALLS = {
    "reference_backend.ce_step_calls": ("reference_backend.ce_step",),
    "reference_backend.iv_step_calls": ("reference_backend.iv_step",),
    "reference_backend.featurize_calls": ("reference_backend.featurize",),
    "adaptation.model_io_calls": ("adaptation.save_model", "adaptation.load_model"),
    "records.ingest_calls": ("records.ingest",),
    "generation.requests": ("generation.request",),
    "prompts.render_calls": ("prompts.render",),
    "evaluation.score_calls": ("evaluation.score",),
    "pipeline.digest_calls": ("pipeline.digest",),
}

COUNTED = (
    "records.rows_parsed",
    "records.rows_written",
    "generation.cache_hits",
    "generation.rejected",
    "screening.candidates",
    "screening.kept",
    "pseudo_label.pairs",
    "evaluation.items_scored",
)


def layer_metrics(spans: list[Span], counts: Counter, distinct_featurize: int) -> dict[str, float]:
    """Per-layer numbers for one set of spans and the counts taken beside them."""
    own = self_times(spans)
    by_name: dict[str, list[Span]] = {}
    for span in spans:
        by_name.setdefault(span.name, []).append(span)

    def self_s(names) -> float:
        return sum(own[s.span_id] for n in names for s in by_name.get(n, ()))

    metrics: dict[str, float] = {}
    for metric, names in SELF_SECONDS.items():
        metrics[metric] = self_s(names)
    for metric, names in CALLS.items():
        metrics[metric] = sum(len(by_name.get(n, ())) for n in names)
    for metric in COUNTED:
        metrics[metric] = counts.get(metric, 0)

    ce_ms = [own[s.span_id] * 1e3 for s in by_name.get("reference_backend.ce_step", ())]
    metrics["reference_backend.ce_step_p50_ms"] = percentile(ce_ms, 50) if ce_ms else 0.0
    metrics["reference_backend.ce_step_p99_ms"] = percentile(ce_ms, 99) if ce_ms else 0.0
    metrics["reference_backend.featurize_distinct_ratio"] = ratio(
        distinct_featurize, metrics["reference_backend.featurize_calls"]
    )
    requests = metrics["generation.requests"]
    metrics["generation.cache_hit_ratio"] = ratio(metrics["generation.cache_hits"], requests)
    batch_total = sum(s.end - s.start for s in by_name.get("generation.batch", ()))
    metrics["generation.per_request_us"] = ratio(batch_total * 1e6, requests)
    metrics["screening.keep_ratio"] = ratio(metrics["screening.kept"], metrics["screening.candidates"])
    metrics["pipeline.digest_mb"] = counts.get("pipeline.digest_bytes", 0) / 1e6
    return metrics
