import os
import random

import numpy as np
import pytest
from scipy import sparse

from drsynth.adaptation import (
    AdapterState,
    ConfigurationError,
    LossKind,
    LossSpec,
    PREFIX_EMBED_DIM,
    PREFIX_PARAM_BUDGET,
    REFERENCE_TRANSFORMER,
    TrainingConfig,
    adapt_ce,
    adapt_concat,
    adapt_invariance,
    adapt_prefix,
    all_checksums,
    batch_predict,
    default_prefix_length,
    domain_token_literal,
    load_model,
    prefix_parameter_count,
    prepend_domain_token,
    save_model,
    stratified_downsample,
    train_base,
)
from drsynth.records import ArgumentPair, LabeledInstance, Provenance
from drsynth.reference_backend import ReferenceBackend
from drsynth.screening import SyntheticInstance
from drsynth.taxonomy import resolve_label, training_label_set


def _params_equal(a, b):
    return set(a) == set(b) and all(np.array_equal(a[k], b[k]) for k in a)


def _synthetic(n, seed=0, domain="EP"):
    rng = random.Random(seed)
    labels = training_label_set()
    out = []
    for i in range(n):
        label = rng.choice(labels)
        out.append(
            SyntheticInstance(
                pair=ArgumentPair(
                    arg1=f"synthetic lead {i} about {rng.randrange(100)}.",
                    arg2=f"generated follow-up tok{label.level2.replace('-', '').replace('+', '')} item {i}.",
                ),
                intended=label,
                backend="mock",
                template="DC",
                domain=domain,
            )
        )
    return out


class TestTrainBase:
    def test_separable_fixture_dev_accuracy(self, tiny_source, base_model):
        model, _ = base_model
        predictions, _ = batch_predict(model, [i.pair for i in tiny_source.dev])
        accuracy = sum(
            p == inst.label for p, inst in zip(predictions, tiny_source.dev)
        ) / len(tiny_source.dev)
        assert accuracy >= 0.95

    def test_repeat_seed_identical_confusion_and_params(self, tiny_source):
        config = TrainingConfig(epochs=60, learning_rate=2.0, seed=13)
        first, confusion_a = train_base(
            tiny_source.train, tiny_source.dev, config, ReferenceBackend()
        )
        second, confusion_b = train_base(
            tiny_source.train, tiny_source.dev, config, ReferenceBackend()
        )
        assert confusion_a == confusion_b
        assert _params_equal(first.params, second.params)
        assert first.artifact_id == second.artifact_id

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigurationError):
            train_base([], [], TrainingConfig(), ReferenceBackend())

    def test_label_outside_training_set_rejected(self, tiny_source):
        rogue = LabeledInstance(
            pair=ArgumentPair(arg1="a", arg2="b"),
            label=resolve_label("similarity"),
            domain="SRC",
            provenance=Provenance.SOURCE,
        )
        with pytest.raises(ConfigurationError, match="similarity"):
            train_base(
                tiny_source.train[:5] + [rogue], [], TrainingConfig(), ReferenceBackend()
            )


class TestPredict:
    def test_memorizes_training_item(self, tiny_source, base_model):
        model, _ = base_model
        inst = tiny_source.train[0]
        (label,), _ = batch_predict(model, [inst.pair])
        assert label == inst.label

    def test_all_equal_scores_tie_break_to_first_label(self, base_model):
        model, _ = base_model
        flattened = {key: np.zeros_like(value) for key, value in model.params.items()}
        tied = type(model)(
            backend=model.backend,
            params=flattened,
            artifact_id="tied",
            manifest={},
        )
        (label,), (scores,) = batch_predict(tied, [ArgumentPair(arg1="anything", arg2="else")])
        assert len(set(scores.tolist())) == 1
        assert label == training_label_set()[0]

    def test_batch_matches_single(self, tiny_source, base_model):
        model, _ = base_model
        pairs = [inst.pair for inst in tiny_source.dev[:25]]
        batched, batch_scores = batch_predict(model, pairs)
        for i, pair in enumerate(pairs):
            (single,), (single_scores,) = batch_predict(model, [pair])
            assert single == batched[i]
            assert np.allclose(single_scores, batch_scores[i])


class TestAdaptConcat:
    def test_empty_synthetic_equals_train_base(self, tiny_source):
        config = TrainingConfig(epochs=40, learning_rate=2.0, seed=21)
        base, _ = train_base(tiny_source.train, [], config, ReferenceBackend())
        combined = adapt_concat(tiny_source.train, [], config, ReferenceBackend())
        assert _params_equal(base.params, combined.params)

    def test_manifest_counts(self, tiny_source):
        synthetic = _synthetic(100)
        config = TrainingConfig(epochs=5, learning_rate=0.5, seed=3)
        model = adapt_concat(tiny_source.train[:100], synthetic, config, ReferenceBackend())
        assert model.manifest["n_source"] == 100
        assert model.manifest["n_synthetic"] == 100
        assert model.manifest["n_instances"] == 200

    def test_seed_changes_shuffle_not_counts(self, tiny_source):
        synthetic = _synthetic(60)
        a = adapt_concat(
            tiny_source.train[:60], synthetic,
            TrainingConfig(epochs=5, learning_rate=0.5, seed=1), ReferenceBackend(),
        )
        b = adapt_concat(
            tiny_source.train[:60], synthetic,
            TrainingConfig(epochs=5, learning_rate=0.5, seed=2), ReferenceBackend(),
        )
        assert a.manifest["n_instances"] == b.manifest["n_instances"]
        assert a.manifest["data_fingerprint"] == b.manifest["data_fingerprint"]
        assert not _params_equal(a.params, b.params)


class TestAdaptPrefix:
    def _config(self, epochs=25, seed=5):
        return TrainingConfig(
            epochs=epochs, learning_rate=0.5, seed=seed, trainable_groups=("prefix",)
        )

    def test_base_checksums_unchanged(self, base_model):
        model, _ = base_model
        before = all_checksums(model.params)
        adapted = adapt_prefix(model, _synthetic(80), self._config())
        after = all_checksums(adapted.params)
        for group in ("encoder", "head", "discriminator"):
            assert before[group] == after[group]
        assert not np.array_equal(adapted.params["prefix.p"], model.params["prefix.p"])
        assert adapted.adapter.base_checksums == {
            g: before[g] for g in ("encoder", "head", "discriminator")
        }

    def test_zero_epochs_is_noop(self, base_model):
        model, _ = base_model
        adapted = adapt_prefix(model, _synthetic(10), self._config(epochs=0))
        assert _params_equal(adapted.params, model.params)
        assert np.array_equal(adapted.adapter.prefix, model.params["prefix.p"])

    def test_encoder_in_trainable_groups_rejected(self, base_model):
        model, _ = base_model
        config = TrainingConfig(trainable_groups=("encoder", "prefix"), seed=1)
        with pytest.raises(ConfigurationError):
            adapt_prefix(model, _synthetic(10), config)

    def test_parameter_budget_at_reference_shape(self):
        length = default_prefix_length(REFERENCE_TRANSFORMER)
        count = prefix_parameter_count(REFERENCE_TRANSFORMER, length)
        assert abs(count - PREFIX_PARAM_BUDGET) / PREFIX_PARAM_BUDGET <= 0.10
        assert prefix_parameter_count(REFERENCE_TRANSFORMER, 1) == 2 * 12 * PREFIX_EMBED_DIM


class TestAdaptInvariance:
    def test_lambda_zero_matches_plain_ce(self, base_model, tiny_source):
        model, _ = base_model
        synthetic = _synthetic(70, seed=4)
        shared = dict(epochs=30, learning_rate=0.5, seed=17)
        iv_config = TrainingConfig(
            loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.0), **shared
        )
        ce_config = TrainingConfig(loss=LossSpec(kind=LossKind.CE, lam=0.0), **shared)
        adapted_iv = adapt_invariance(model, synthetic, tiny_source.train, iv_config)
        adapted_ce = adapt_ce(model, synthetic, ce_config)
        assert _params_equal(adapted_iv.params, adapted_ce.params)

    def test_lambda_recorded_in_manifest(self, base_model, tiny_source):
        model, _ = base_model
        config = TrainingConfig(
            epochs=5, learning_rate=0.1, seed=2,
            loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.1),
        )
        adapted = adapt_invariance(model, _synthetic(30), tiny_source.train, config)
        assert adapted.manifest["lambda"] == 0.1
        assert adapted.manifest["config"]["loss"]["lambda"] == 0.1

    def test_positive_lambda_changes_discriminator(self, base_model, tiny_source):
        model, _ = base_model
        config = TrainingConfig(
            epochs=20, learning_rate=0.5, seed=9,
            loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.1),
        )
        adapted = adapt_invariance(model, _synthetic(50), tiny_source.train, config)
        assert not np.array_equal(adapted.params["disc.w"], model.params["disc.w"])

    def test_empty_real_reference_rejected(self, base_model):
        model, _ = base_model
        config = TrainingConfig(loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.1), seed=1)
        with pytest.raises(ConfigurationError):
            adapt_invariance(model, _synthetic(10), [], config)

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            LossSpec(kind=LossKind.CE_MINUS_IV, lam=-0.5)

    def test_discriminator_as_trainable_group_rejected(self):
        # the kernels give it no cross-entropy gradient; invariance training steps it itself
        with pytest.raises(ConfigurationError, match="discriminator"):
            TrainingConfig(trainable_groups=("encoder", "head", "discriminator"))


class TestGradients:
    def _setup(self, seed=3, csr=False):
        backend = ReferenceBackend(feature_dim=64, hidden_dim=16)
        rng = np.random.default_rng(seed)
        params = backend.init_params(rng)
        for key in params:
            params[key] = params[key] + rng.normal(0.0, 0.3, size=params[key].shape)
        x = rng.normal(0.0, 0.6, size=(12, backend.feature_dim))
        y = rng.integers(0, len(backend.labels), size=12)
        x_domain = rng.normal(0.0, 0.6, size=(20, backend.feature_dim))
        domain = np.concatenate([np.ones(12), np.zeros(8)])
        if csr:  # mostly-zero rows, as the hashed featurizer produces
            x, x_domain = (
                sparse.csr_array(np.where(rng.random(m.shape) < 0.2, m, 0.0)) for m in (x, x_domain)
            )
        return backend, params, x, y, x_domain, domain

    @staticmethod
    def _central_difference(evaluate, params, key, index, step=1e-6):
        theta = params[key].ravel()
        original = theta[index]
        theta[index] = original + step
        plus = evaluate(params)
        theta[index] = original - step
        minus = evaluate(params)
        theta[index] = original
        return (plus - minus) / (2.0 * step)

    def test_total_loss_gradient_matches_central_differences(self):
        self._check_total_loss_gradient(*self._setup())

    def test_total_loss_gradient_on_csr_matches_central_differences(self):
        self._check_total_loss_gradient(*self._setup(csr=True))

    def _check_total_loss_gradient(self, backend, params, x, y, x_domain, domain):
        lam = 0.1

        def evaluate(p):
            loss, _ = backend.total_loss_and_grads(p, x, y, x_domain, domain, lam)
            return loss

        _, grads = backend.total_loss_and_grads(params, x, y, x_domain, domain, lam)
        rng = np.random.default_rng(77)
        keys = sorted(params)
        for _ in range(10):
            key = keys[rng.integers(len(keys))]
            index = int(rng.integers(params[key].size))
            numeric = self._central_difference(evaluate, params, key, index)
            analytic = grads[key].ravel()[index]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-4

    def test_ce_only_gradient_matches_central_differences(self):
        self._check_ce_gradient(*self._setup(seed=11))

    def test_ce_only_gradient_on_csr_matches_central_differences(self):
        self._check_ce_gradient(*self._setup(seed=11, csr=True))

    def _check_ce_gradient(self, backend, params, x, y, _x_domain, _domain):
        def evaluate(p):
            loss, _ = backend.ce_loss_and_grads(p, x, y)
            return loss

        _, grads = backend.ce_loss_and_grads(params, x, y)
        rng = np.random.default_rng(5)
        for key in ("encoder.W", "head.W", "prefix.p", "encoder.b", "head.b"):
            index = int(rng.integers(params[key].size))
            numeric = self._central_difference(evaluate, params, key, index)
            analytic = grads[key].ravel()[index]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-4

    def test_csr_and_dense_input_agree(self):
        backend, params, x, y, x_domain, domain = self._setup(seed=31, csr=True)
        dense, dense_domain = x.toarray(), x_domain.toarray()
        for (loss, grads), (dense_loss, dense_grads) in (
            (backend.ce_loss_and_grads(params, x, y), backend.ce_loss_and_grads(params, dense, y)),
            (
                backend.iv_loss_and_grads(params, x_domain, domain),
                backend.iv_loss_and_grads(params, dense_domain, domain),
            ),
        ):
            assert abs(loss - dense_loss) <= 1e-12
            for key in grads:
                assert np.max(np.abs(grads[key] - dense_grads[key])) <= 1e-12, key
        scores = backend.score_matrix(params, x)
        assert isinstance(scores, np.ndarray)
        assert np.max(np.abs(scores - backend.score_matrix(params, dense))) <= 1e-12

    def test_total_loss_value_composition(self):
        backend, params, x, y, x_domain, domain = self._setup(seed=21)
        ce, _ = backend.ce_loss_and_grads(params, x, y)
        iv, _ = backend.iv_loss_and_grads(params, x_domain, domain)
        total, _ = backend.total_loss_and_grads(params, x, y, x_domain, domain, 0.3)
        assert total == pytest.approx(ce - 0.3 * iv)


class TestDomainTokens:
    def test_prepend_construction(self):
        inst = LabeledInstance(
            pair=ArgumentPair(arg1="The vote passed.", arg2="It was close."),
            label=resolve_label("cause"),
            domain="EP",
        )
        tagged = prepend_domain_token(inst, "EP")
        assert tagged.pair.arg1 == "⟨EP⟩ The vote passed."
        assert tagged.pair.arg2 == "It was close."

    def test_idempotent(self):
        inst = LabeledInstance(
            pair=ArgumentPair(arg1="The vote passed.", arg2="b"),
            label=resolve_label("cause"),
            domain="EP",
        )
        once = prepend_domain_token(inst, "EP")
        twice = prepend_domain_token(once, "EP")
        assert twice.pair.arg1 == "⟨EP⟩ The vote passed."
        assert twice is once

    def test_mixed_batch_each_carries_own_token(self):
        batch = []
        for domain in ("EP", "WK", "NV"):
            batch.extend(_synthetic(5, seed=hash(domain) % 100, domain=domain))
        tagged = [prepend_domain_token(inst) for inst in batch]
        for inst in tagged:
            assert inst.pair.arg1.startswith(domain_token_literal(inst.domain) + " ")
            assert inst.pair.arg1.count("⟨") == 1


class TestStratifiedDownsample:
    def _pool(self, per_domain=10000, domains=("EP", "WK", "NV"), seed=0):
        out = []
        for domain in domains:
            out.extend(_synthetic(per_domain, seed=seed + hash(domain) % 7, domain=domain))
        return out

    def test_uniform_domains_split_ten_thousand(self):
        pool = self._pool(per_domain=10000)
        sample = stratified_downsample(pool, 10000, seed=3, stratum=lambda i: i.domain)
        counts = {}
        for inst in sample:
            counts[inst.domain] = counts.get(inst.domain, 0) + 1
        assert sum(counts.values()) == 10000
        assert sorted(counts.values()) == [3333, 3333, 3334]

    def test_identity_when_target_is_pool_size(self):
        pool = self._pool(per_domain=50)
        assert stratified_downsample(pool, len(pool), seed=1) == pool

    def test_single_instance_stratum_largest_remainder(self):
        # 1-instance stratum with proportional share 0.4 resolves to 0 or 1
        pool = _synthetic(4, seed=1, domain="EP") + _synthetic(1, seed=2, domain="WK")
        sample = stratified_downsample(pool, 2, seed=5, stratum=lambda i: i.domain)
        wk = [i for i in sample if i.domain == "WK"]
        assert len(sample) == 2
        assert len(wk) in (0, 1)

    def test_deterministic_under_seed(self):
        pool = self._pool(per_domain=300)
        a = stratified_downsample(pool, 500, seed=11)
        b = stratified_downsample(pool, 500, seed=11)
        assert a == b

    def test_oversized_target_rejected(self):
        with pytest.raises(ConfigurationError):
            stratified_downsample(_synthetic(5), 6)

    def test_every_stratum_within_one_of_share(self):
        rng = random.Random(8)
        pool = []
        for domain in ("EP", "WK", "NV"):
            pool.extend(_synthetic(rng.randrange(200, 1200), seed=rng.random(), domain=domain))
        target = 700
        sample = stratified_downsample(pool, target, seed=2)
        totals = {}
        kept = {}
        for inst in pool:
            key = (inst.domain, inst.intended.level2)
            totals[key] = totals.get(key, 0) + 1
        for inst in sample:
            key = (inst.domain, inst.intended.level2)
            kept[key] = kept.get(key, 0) + 1
        assert sum(kept.values()) == target
        for key, n in totals.items():
            share = target * n / len(pool)
            assert abs(kept.get(key, 0) - share) < 1.0


class TestArtifacts:
    def test_save_load_round_trip(self, base_model, tmp_path):
        model, _ = base_model
        save_model(model, tmp_path / "artifact")
        loaded = load_model(tmp_path / "artifact")
        assert _params_equal(loaded.params, model.params)
        assert loaded.artifact_id == model.artifact_id
        assert loaded.manifest == model.manifest

    def test_saved_bytes_deterministic(self, base_model, tmp_path):
        model, _ = base_model
        save_model(model, tmp_path / "a")
        save_model(model, tmp_path / "b")
        a_files = sorted((tmp_path / "a").rglob("*.npy")) + [tmp_path / "a" / "manifest.json"]
        for file_a in a_files:
            file_b = tmp_path / "b" / file_a.relative_to(tmp_path / "a")
            assert file_a.read_bytes() == file_b.read_bytes()

    def test_adapter_state_round_trips_prefix(self, base_model):
        model, _ = base_model
        adapted = adapt_prefix(
            model, _synthetic(40),
            TrainingConfig(epochs=10, learning_rate=0.5, seed=3, trainable_groups=("prefix",)),
        )
        assert isinstance(adapted.adapter, AdapterState)
        assert np.array_equal(adapted.adapter.prefix, adapted.params["prefix.p"])

    def test_prefix_adapter_survives_save_and_load(self, base_model, tmp_path):
        model, _ = base_model
        adapted = adapt_prefix(
            model, _synthetic(40),
            TrainingConfig(epochs=10, learning_rate=0.5, seed=3, trainable_groups=("prefix",)),
            prefix_dim=256,
        )
        save_model(adapted, tmp_path / "prefix")
        loaded = load_model(tmp_path / "prefix")
        assert isinstance(loaded.adapter, AdapterState)
        assert np.array_equal(loaded.adapter.prefix, adapted.adapter.prefix)
        assert loaded.adapter.base_checksums == adapted.adapter.base_checksums
        assert loaded.adapter.embed_dim == adapted.adapter.embed_dim == 256
        save_model(model, tmp_path / "base")
        assert load_model(tmp_path / "base").adapter is None

    def test_failed_swap_keeps_the_old_artifact(self, base_model, tmp_path, monkeypatch):
        model, _ = base_model
        path = save_model(model, tmp_path / "artifact")
        newer = adapt_prefix(
            model, _synthetic(10),
            TrainingConfig(epochs=2, learning_rate=0.5, seed=3, trainable_groups=("prefix",)),
        )
        replace = os.replace

        def failing_replace(src, dst):
            if str(src).endswith(".tmp"):
                raise OSError("swap failed")
            replace(src, dst)

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="swap failed"):
            save_model(newer, path)
        monkeypatch.undo()
        loaded = load_model(path)
        assert loaded.artifact_id == model.artifact_id
        assert _params_equal(loaded.params, model.params)
        save_model(newer, path)  # the next save cleans up and swaps in
        assert load_model(path).artifact_id == newer.artifact_id
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]
