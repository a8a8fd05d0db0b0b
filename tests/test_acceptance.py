"""Acceptance suite: one test per release criterion.

Each test prints a PASS line with its measured runtime so the whole gate
can be read off a single `pytest -s tests/test_acceptance.py` run. All
checks are property-based or exact; nothing here needs licensed corpora,
GPUs, or network access.
"""

import math
import random
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

from drsynth import fixtures
from drsynth.adaptation import (
    LossKind,
    LossSpec,
    TrainingConfig,
    adapt_ce,
    adapt_invariance,
    adapt_prefix,
    all_checksums,
    stratified_downsample,
    train_base,
    training_set,
)
from drsynth.evaluation import (
    METRICS,
    EvalProtocol,
    VariantMeta,
    render_results_table,
    score,
    t_test,
)
from drsynth.generation import DecodingParams, GenerationCache, MockBackend, generate_batch
from drsynth.pipeline import PipelineConfig, run_experiment
from drsynth.prompts import (
    InContextExample,
    PromptTemplateKind,
    load_definitions,
    render_dc_prompt,
    render_dr_prompt,
)
from drsynth.pseudo_label import assert_argmax_consistent, pseudo_label_corpus
from drsynth.records import ArgumentPair, ingest_source_corpus
from drsynth.reference_backend import ReferenceBackend
from drsynth.screening import ScreenKind, SyntheticInstance, screen_batch
from drsynth.taxonomy import (
    FrequencyTable,
    default_confusion_map,
    generation_label_set,
    resolve_label,
    training_label_set,
)
from test_evaluation import _batch, _item

GOLDEN = Path(__file__).parent / "golden"


class Stopwatch:
    def __enter__(self):
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.elapsed = time.perf_counter() - self.start
        return False


def _report(name: str, watch: Stopwatch) -> None:
    print(f"PASS: {name} ({watch.elapsed:.2f}s)")


def test_metric_oracle():
    """score() under discard-alternatives matches a hand-tallied table exactly."""
    c = resolve_label("cause")
    j = resolve_label("conjunction")
    n = resolve_label("concession")
    t = resolve_label("contrast")
    s = resolve_label("synchronous")
    a = resolve_label("asynchronous")
    records = [
        _item(c, {c}),
        _item(c, {c, n}, majority=n),
        _item(n, {c, n}, majority=c),
        _item(j, {c}, majority=c),
        _item(c, {j}, majority=j),
        _item(t, {n, t}, majority=n),
        _item(c, {n}, majority=n),
        _item(j, {j, c}, majority=j),
        _item(s, {a}, majority=a),
        _item(c, {c, j}, majority=c),
        _item(n, {t}, majority=t),
        _item(j, {j}),
    ]
    hand_tally = {
        c: (3, 2, 1, Fraction(3, 5), Fraction(3, 4), Fraction(2, 3)),
        j: (2, 1, 1, Fraction(2, 3), Fraction(2, 3), Fraction(2, 3)),
        n: (1, 1, 1, Fraction(1, 2), Fraction(1, 2), Fraction(1, 2)),
        t: (1, 0, 1, Fraction(1), Fraction(1, 2), Fraction(2, 3)),
        a: (0, 0, 1, Fraction(0), Fraction(0), Fraction(0)),
        s: (0, 1, 0, Fraction(0), Fraction(0), Fraction(0)),
    }
    with Stopwatch() as watch:
        report = score(_batch(records), EvalProtocol.DISCARD_ALTERNATIVES)
        assert report.accuracy == Fraction(7, 12)
        assert report.macro_f1 == Fraction(1, 2)
        for label, (tp, fp, fn, precision, recall, f1) in hand_tally.items():
            cs = report.per_class[label]
            assert (cs.tp, cs.fp, cs.fn) == (tp, fp, fn)
            assert (cs.precision, cs.recall, cs.f1) == (precision, recall, f1)

        single_gold = [r for r in records if len(r.gold) == 1]
        per_protocol = [score(_batch(single_gold), protocol) for protocol in EvalProtocol]
        for other in per_protocol[1:]:
            assert other.accuracy == per_protocol[0].accuracy
            assert other.macro_f1 == per_protocol[0].macro_f1
            assert {
                l: (x.tp, x.fp, x.fn) for l, x in other.per_class.items()
            } == {l: (x.tp, x.fp, x.fn) for l, x in per_protocol[0].per_class.items()}
    assert watch.elapsed < 1.0
    _report("metric oracle (12-item hand tally, 3 protocols on single-gold)", watch)


def test_screening_monotonicity_and_confusion_entries():
    """kept(strict) <= kept(combi) <= kept(confusion) with zero violations."""
    table6 = {
        "conjunction": "cause", "level-of-detail": "cause", "substitution": "cause",
        "equivalence": "cause", "cause+belief": "cause", "condition": "cause",
        "concession": "cause", "asynchronous": "cause",
        "instantiation": "level-of-detail", "manner": "level-of-detail",
        "cause": "level-of-detail",
        "synchronous": "conjunction", "similarity": "conjunction",
        "purpose": "condition", "contrast": "concession",
    }
    with Stopwatch() as watch:
        cmap = default_confusion_map()
        assert len(cmap.entries) == 15
        for intended, confused in table6.items():
            assert cmap.confusion_of(resolve_label(intended)).level2 == confused

        labels = training_label_set()
        freq = FrequencyTable(
            counts={resolve_label(k): v[0] for k, v in fixtures.SOURCE_LABEL_COUNTS.items()},
            total=sum(v[0] for v in fixtures.SOURCE_LABEL_COUNTS.values()),
        )
        rng = random.Random(1234)
        batch, predicted = [], []
        for i in range(10000):
            batch.append(
                SyntheticInstance(
                    pair=ArgumentPair(arg1=f"lead {i}.", arg2=f"tail {i}."),
                    intended=rng.choice(labels),
                    backend="mock",
                    template="DC",
                    domain=rng.choice(("EP", "WK", "NV")),
                )
            )
            predicted.append(rng.choice(labels))
        kept_strict, _ = screen_batch(batch, predicted, ScreenKind.STRICT, cmap, freq)
        kept_combi, _ = screen_batch(batch, predicted, ScreenKind.COMBI, cmap, freq)
        kept_confusion, _ = screen_batch(batch, predicted, ScreenKind.CONFUSION, cmap, freq)
        strict_ids = {id(x) for x in kept_strict}
        combi_ids = {id(x) for x in kept_combi}
        confusion_ids = {id(x) for x in kept_confusion}
        assert strict_ids <= combi_ids <= confusion_ids
        violations = sum(
            1
            for inst in batch
            if (id(inst) in strict_ids and id(inst) not in combi_ids)
            or (id(inst) in combi_ids and id(inst) not in confusion_ids)
        )
        assert violations == 0
    assert watch.elapsed < 5.0
    _report("screening monotonicity on 10000 randomized instances + 15 map entries", watch)


def test_prompt_golden_files():
    """Both prompt styles reproduce their golden skeletons byte-for-byte."""
    with Stopwatch() as watch:
        dc_example = InContextExample(
            arg1="The Artist has his routine. He spends his days sketching "
            "passers-by, or trying to.",
            arg2="at night he returns to the condemned building he calls home.",
            label=resolve_label("asynchronous"),
            domain="NV",
        )
        dc = render_dc_prompt(
            "The brokerage firms learned a lesson the last time around.",
            resolve_label("cause"),
            dc_example,
            choice=1,
        )
        assert dc.text == (GOLDEN / "dc_prompt.txt").read_bytes().decode("utf-8")
        assert dc.connective == "Therefore,"

        dr_example = InContextExample(
            arg1="She, out of gratitude, had her arms wrapped around his neck "
            "as they slept.",
            arg2="Various articles of their clothing lay intermingled around the bed.",
            label=resolve_label("conjunction"),
            domain="NV",
        )
        dr = render_dr_prompt(
            "And over the desert plain one heard only the moan of squalls "
            "through the broken trellises of the enclosures.",
            resolve_label("conjunction"),
            load_definitions()[resolve_label("conjunction")],
            dr_example,
        )
        assert dr.text == (GOLDEN / "dr_prompt.txt").read_bytes().decode("utf-8")
    assert watch.elapsed < 1.0
    _report("prompt golden files (both panels byte-for-byte)", watch)


def test_batch_arithmetic_and_size_column(tmp_path):
    """4000 Arg1s x 15 labels -> 60000 candidates; size column averages to 10546."""
    with Stopwatch() as watch:
        rng = random.Random(0)
        sentences = [fixtures._sentence(rng) for _ in range(4000)]
        labels = generation_label_set(include_similarity=True)
        assert len(labels) == 15
        result = generate_batch(
            {"EP": sentences},
            labels,
            [MockBackend(name="mock", decoding=DecodingParams())],
            PromptTemplateKind.DR,
            fixtures.example_pool(["EP"]),
            cache=GenerationCache(tmp_path / "cache.jsonl"),
        )
        assert len(result.instances) == 60000
        assert result.failures == []

        variants = [
            VariantMeta("baseline", "baseline", baseline=True),
            VariantMeta(
                "prefix-specific-syn", "base>syn", llm="mistral", template="DC",
                screen="strict", config="specific",
            ),
        ]
        runs = {}
        for domain, value in (("EP", 21.47), ("WK", 24.42), ("NV", 22.68)):
            for metric in METRICS:
                runs[("baseline", domain, metric)] = [21.0]
                runs[("prefix-specific-syn", domain, metric)] = [value]
        sizes = {
            ("baseline", "EP"): 0,
            ("baseline", "WK"): 0,
            ("baseline", "NV"): 0,
            ("prefix-specific-syn", "EP"): 10724,
            ("prefix-specific-syn", "WK"): 10689,
            ("prefix-specific-syn", "NV"): 10224,
        }
        table = render_results_table(variants, runs, {}, sizes, ("EP", "WK", "NV"))
        row = next(l for l in table.splitlines() if l.startswith("base>syn"))
        cells = [cell.strip() for cell in row.split("|")]
        assert cells[5] == "10546"
        assert round((10724 + 10689 + 10224) / 3) == 10546
    assert watch.elapsed < 30.0
    _report("batch arithmetic (60000 candidates; size column 10546)", watch)


@pytest.fixture(scope="module")
def adaptation_setup(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance-adaptation")
    fixtures.build_source_corpus(
        root / "source.jsonl", counts=fixtures.tiny_source_counts(), seed=500
    )
    ingested = ingest_source_corpus(root / "source.jsonl")
    backend = ReferenceBackend()
    base, _ = train_base(
        training_set(ingested.train, backend),
        ingested.dev,
        TrainingConfig(epochs=300, learning_rate=2.0, seed=11),
        backend,
    )
    rng = random.Random(3)
    labels = training_label_set()
    synthetic = []
    for i in range(120):
        label = rng.choice(labels)
        synthetic.append(
            SyntheticInstance(
                pair=ArgumentPair(
                    arg1=fixtures._sentence(rng),
                    arg2=fixtures._sentence(rng, fixtures.marker_token(label)),
                ),
                intended=label,
                backend="mock",
                template="DC",
                domain="EP",
            )
        )
    return base, training_set(ingested.train, backend), training_set(synthetic, backend)


def test_adaptation_contracts(adaptation_setup):
    """Frozen base, lambda-0 identity, gradient check."""
    base, train, synthetic = adaptation_setup
    with Stopwatch() as watch:
        # (a) prefix adaptation leaves base parameter checksums unchanged
        before = all_checksums(base.params)
        prefixed = adapt_prefix(
            base,
            synthetic,
            TrainingConfig(
                epochs=40, learning_rate=0.5, seed=5, trainable_groups=("prefix",)
            ),
        )
        after = all_checksums(prefixed.params)
        for group in ("encoder", "head", "discriminator"):
            assert before[group] == after[group]

        # (b) lambda=0 invariance adaptation == CE adaptation, exactly
        shared = dict(epochs=30, learning_rate=0.5, seed=17)
        adapted_iv = adapt_invariance(
            base, synthetic, train,
            TrainingConfig(loss=LossSpec(LossKind.CE_MINUS_IV, lam=0.0), **shared),
        )
        adapted_ce = adapt_ce(
            base, synthetic, TrainingConfig(loss=LossSpec(LossKind.CE, lam=0.0), **shared)
        )
        assert set(adapted_iv.params) == set(adapted_ce.params)
        for key in adapted_iv.params:
            assert np.array_equal(adapted_iv.params[key], adapted_ce.params[key])

        # (c) the descent direction matches central differences on 10 coordinates:
        # classifier keys descend CE - lam*IV, the discriminator descends IV
        backend = ReferenceBackend(feature_dim=64, hidden_dim=16)
        rng = np.random.default_rng(23)
        params = backend.init_params(rng)
        for key in params:
            params[key] = params[key] + rng.normal(0.0, 0.3, size=params[key].shape)
        x = rng.normal(0.0, 0.6, size=(12, backend.feature_dim))
        y = rng.integers(0, len(backend.labels), size=12)
        x_domain = rng.normal(0.0, 0.6, size=(20, backend.feature_dim))
        domain = np.concatenate([np.ones(12), np.zeros(8)])
        lam = 0.1

        def loss_at(p, key):
            if key.startswith("disc."):
                value, _ = backend.iv_loss_and_grads(p, x_domain, domain)
            else:
                value, _ = backend.descent_direction(p, x, y, lam, x_domain, domain, x.T)
            return value

        _, grads = backend.descent_direction(params, x, y, lam, x_domain, domain, x.T)
        keys = sorted(params)
        for _ in range(10):
            key = keys[rng.integers(len(keys))]
            index = int(rng.integers(params[key].size))
            theta = params[key].ravel()
            original = theta[index]
            step = 1e-6
            theta[index] = original + step
            plus = loss_at(params, key)
            theta[index] = original - step
            minus = loss_at(params, key)
            theta[index] = original
            numeric = (plus - minus) / (2 * step)
            analytic = grads[key].ravel()[index]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-4
    assert watch.elapsed < 120.0
    _report(
        "adaptation contracts (frozen base, lambda-0 identity, gradients)",
        watch,
    )


def test_stratified_downsampling_shares():
    """30000 instances over 3 domains x 14 labels -> shares within one."""
    with Stopwatch() as watch:
        rng = random.Random(29)
        labels = training_label_set()
        pool = []
        for i in range(30000):
            label = rng.choice(labels)
            pool.append(
                SyntheticInstance(
                    pair=ArgumentPair(arg1=f"lead {i}.", arg2=f"tail {i}."),
                    intended=label,
                    backend="mock",
                    template="DC",
                    domain=rng.choice(("EP", "WK", "NV")),
                )
            )
        target = 10000
        sample = stratified_downsample(pool, target, seed=7)
        totals, kept = {}, {}
        for inst in pool:
            key = (inst.domain, inst.intended.level2)
            totals[key] = totals.get(key, 0) + 1
        for inst in sample:
            key = (inst.domain, inst.intended.level2)
            kept[key] = kept.get(key, 0) + 1
        assert len(totals) == 42
        assert abs(len(sample) - target) <= 42  # exact apportionment: == target
        assert len(sample) == target
        for key, total in totals.items():
            share = target * total / len(pool)
            assert abs(kept.get(key, 0) - share) < 1.0
    assert watch.elapsed < 5.0
    _report("stratified downsampling (42 strata within one of proportional)", watch)


def test_significance_oracle():
    """The Welch p-value matches hand computation and an independent quadrature."""
    with Stopwatch() as watch:
        result = t_test([10.0, 11.0, 12.0], [20.0, 21.0, 22.0], 0.05)
        # means 11 vs 21, both variances 1, n=3: t = -10/sqrt(2/3), df = 4

        def t4_pdf(x):
            return (3.0 / 8.0) * (1.0 + x * x / 4.0) ** -2.5

        tail, _ = integrate.quad(t4_pdf, math.sqrt(150.0), math.inf)
        assert abs(result.p_value - 2.0 * tail) <= 1e-4
        assert result.p_value < 0.01
        assert result.significant

        identical = t_test([21.0, 21.5, 22.0], [21.0, 21.5, 22.0], 0.05)
        assert identical.p_value == pytest.approx(1.0, abs=1e-4)
        assert not identical.significant
    assert watch.elapsed < 1.0
    _report("significance oracle (Welch t, quadrature p, identical-sample p=1)", watch)


def test_end_to_end_smoke(tmp_path):
    """Full pipeline, all four adaptation regimes, 2 seeds, byte-identical."""
    overrides = {
        "adaptation.methods": ["concat", "prefix", "invariance", "pseudo"],
        "adaptation.domain_modes": ["specific", "mixed"],
        "seeds": [1, 2],
        "pseudo.per_domain_n": 30,
        "screening.kind": "strict",
    }
    with Stopwatch() as watch:
        first = run_experiment(
            PipelineConfig.from_mapping({"workdir": str(tmp_path / "one"), **overrides})
        )
        second = run_experiment(
            PipelineConfig.from_mapping({"workdir": str(tmp_path / "two"), **overrides})
        )
        table = (tmp_path / "one" / "results.txt").read_bytes()
        assert table == (tmp_path / "two" / "results.txt").read_bytes()
        assert first.identity_digest() == second.identity_digest()

        text = table.decode("utf-8")
        lines = text.splitlines()
        assert lines[2].startswith("baseline")
        assert len(lines) == 2 + 1 + 8  # header, rule, baseline + 4 methods x 2 modes
        for marker in ("base+syn", "base>syn", "base>IV>syn", "base+pseudo"):
            assert any(line.startswith(marker) for line in lines)
        assert "EP F1" in lines[0] and "NV Acc" in lines[0]
        tsv = (tmp_path / "one" / "results.tsv").read_text()
        assert len(tsv.strip().splitlines()) == 1 + 9 * 3
    assert watch.elapsed < 300.0
    _report("end-to-end smoke (4 regimes x 2 modes x 2 seeds, byte-identical)", watch)


def test_pseudo_label_counts(base_model):
    """Exactly min(12000, available) per domain; labels equal score argmax."""
    model, _ = base_model
    with Stopwatch() as watch:
        docs = fixtures.make_raw_documents(
            domains=["EP"], docs_per_domain=12, sentences_per_doc=420, seed=31
        ) + fixtures.make_raw_documents(
            domains=["WK"], docs_per_domain=2, sentences_per_doc=151, seed=32
        )
        available = {"EP": 12 * 419, "WK": 2 * 150}
        assert available["EP"] >= 5000

        kept_all = pseudo_label_corpus(docs, model, per_domain_n=12000, seed=3, domains=["EP", "WK"])
        per_domain = {}
        for inst in kept_all:
            per_domain[inst.domain] = per_domain.get(inst.domain, 0) + 1
        assert per_domain == {
            domain: min(12000, n) for domain, n in available.items()
        }
        assert_argmax_consistent(kept_all, model.labels)
        index = {label: i for i, label in enumerate(model.labels)}
        violations = sum(
            int(np.argmax(inst.scores)) != index[inst.label] for inst in kept_all
        )
        assert violations == 0

        sampled = pseudo_label_corpus(docs, model, per_domain_n=150, seed=3, domains=["EP", "WK"])
        counts = {}
        for inst in sampled:
            counts[inst.domain] = counts.get(inst.domain, 0) + 1
        assert counts == {"EP": 150, "WK": 150}
    assert watch.elapsed < 30.0
    _report("pseudo-label counts (min(n, available) per domain, argmax exact)", watch)
