import os
import random
from dataclasses import replace

import numpy as np
import pytest
from scipy import sparse

from drsynth.adaptation import (
    ConfigurationError,
    LossKind,
    LossSpec,
    TrainingConfig,
    adapt_ce,
    adapt_concat,
    adapt_invariance,
    adapt_prefix,
    all_checksums,
    batch_predict,
    domain_token_literal,
    load_model,
    prepend_domain_token,
    save_model,
    stratified_downsample,
    train_base,
    training_set,
    _instance_label,
    _train_loop,
)
from drsynth.records import ArgumentPair, LabeledInstance, Provenance
from drsynth.reference_backend import ReferenceBackend, group_keys
from drsynth.screening import SyntheticInstance
from drsynth.taxonomy import resolve_label, training_label_set
from test_reference_backend import _ce_oracle, _iv_oracle


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
        backend_a, backend_b = ReferenceBackend(), ReferenceBackend()
        first, confusion_a = train_base(
            training_set(tiny_source.train, backend_a), tiny_source.dev, config, backend_a
        )
        second, confusion_b = train_base(
            training_set(tiny_source.train, backend_b), tiny_source.dev, config, backend_b
        )
        assert confusion_a == confusion_b
        assert _params_equal(first.params, second.params)
        assert first.artifact_id == second.artifact_id

    def test_empty_train_rejected(self):
        with pytest.raises(ConfigurationError):
            backend = ReferenceBackend()
            train_base(training_set([], backend), [], TrainingConfig(), backend)

    def test_label_outside_training_set_rejected(self, tiny_source):
        rogue = LabeledInstance(
            pair=ArgumentPair(arg1="a", arg2="b"),
            label=resolve_label("similarity"),
            domain="SRC",
            provenance=Provenance.SOURCE,
        )
        with pytest.raises(ConfigurationError, match="similarity"):
            backend = ReferenceBackend()
            train_base(
                training_set(tiny_source.train[:5] + [rogue], backend), [], TrainingConfig(), backend
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
        backend_a, backend_b = ReferenceBackend(), ReferenceBackend()
        base, _ = train_base(training_set(tiny_source.train, backend_a), [], config, backend_a)
        combined = adapt_concat(
            training_set(tiny_source.train, backend_b), training_set([], backend_b), config, backend_b
        )
        assert _params_equal(base.params, combined.params)

    def test_manifest_counts(self, tiny_source):
        synthetic = _synthetic(100)
        config = TrainingConfig(epochs=5, learning_rate=0.5, seed=3)
        backend = ReferenceBackend()
        model = adapt_concat(
            training_set(tiny_source.train[:100], backend), training_set(synthetic, backend),
            config, backend,
        )
        assert model.manifest["n_source"] == 100
        assert model.manifest["n_synthetic"] == 100
        assert model.manifest["n_instances"] == 200

    def test_seed_changes_shuffle_not_counts(self, tiny_source):
        backend = ReferenceBackend()
        source, synthetic = training_set(tiny_source.train[:60], backend), training_set(_synthetic(60), backend)
        a = adapt_concat(
            source, synthetic,
            TrainingConfig(epochs=5, learning_rate=0.5, seed=1), backend,
        )
        b = adapt_concat(
            source, synthetic,
            TrainingConfig(epochs=5, learning_rate=0.5, seed=2), backend,
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
        adapted = adapt_prefix(model, training_set(_synthetic(80), model.backend), self._config())
        after = all_checksums(adapted.params)
        for group in ("encoder", "head", "discriminator"):
            assert before[group] == after[group]
        assert not np.array_equal(adapted.params["prefix.p"], model.params["prefix.p"])

    def test_zero_epochs_is_noop(self, base_model):
        model, _ = base_model
        adapted = adapt_prefix(model, training_set(_synthetic(10), model.backend), self._config(epochs=0))
        assert _params_equal(adapted.params, model.params)

    def test_encoder_in_trainable_groups_rejected(self, base_model):
        model, _ = base_model
        config = TrainingConfig(trainable_groups=("encoder", "prefix"), seed=1)
        with pytest.raises(ConfigurationError):
            adapt_prefix(model, training_set(_synthetic(10), model.backend), config)


class TestAdaptInvariance:
    def test_lambda_zero_matches_plain_ce(self, base_model, tiny_source):
        model, _ = base_model
        synthetic = training_set(_synthetic(70, seed=4), model.backend)
        real = training_set(tiny_source.train, model.backend)
        shared = dict(epochs=30, learning_rate=0.5, seed=17)
        iv_config = TrainingConfig(
            loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.0), **shared
        )
        ce_config = TrainingConfig(loss=LossSpec(kind=LossKind.CE, lam=0.0), **shared)
        adapted_iv = adapt_invariance(model, synthetic, real, iv_config)
        adapted_ce = adapt_ce(model, synthetic, ce_config)
        assert _params_equal(adapted_iv.params, adapted_ce.params)

    def test_lambda_recorded_in_manifest(self, base_model, tiny_source):
        model, _ = base_model
        config = TrainingConfig(
            epochs=5, learning_rate=0.1, seed=2,
            loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.1),
        )
        adapted = adapt_invariance(
            model, training_set(_synthetic(30), model.backend),
            training_set(tiny_source.train, model.backend), config,
        )
        assert adapted.manifest["lambda"] == 0.1
        assert adapted.manifest["config"]["loss"]["lambda"] == 0.1

    def test_positive_lambda_changes_discriminator(self, base_model, tiny_source):
        model, _ = base_model
        config = TrainingConfig(
            epochs=20, learning_rate=0.5, seed=9,
            loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.1),
        )
        adapted = adapt_invariance(
            model, training_set(_synthetic(50), model.backend),
            training_set(tiny_source.train, model.backend), config,
        )
        assert not np.array_equal(adapted.params["disc.w"], model.params["disc.w"])

    def test_epoch_steps_along_the_checked_gradients(self, base_model, tiny_source):
        """One epoch, replayed from the loop's random draws: the trainable groups and
        the discriminator step along ``descent_direction`` and the prefix stays put,
        bit for bit."""
        model, _ = base_model
        backend, params, real = model.backend, model.params, tiny_source.train
        synthetic = _synthetic(30, seed=6)
        lam, lr = 0.3, 0.5
        config = TrainingConfig(
            epochs=1, learning_rate=lr, seed=8, loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=lam)
        )
        trained = adapt_invariance(
            model, training_set(synthetic, backend), training_set(real, backend), config
        ).params

        rng = np.random.default_rng(config.seed)
        shuffled = [synthetic[i] for i in rng.permutation(len(synthetic))]
        x = backend.featurize_pairs([inst.pair for inst in shuffled])
        y = np.array([backend.label_index[inst.intended] for inst in shuffled])
        picked = rng.choice(len(real), size=len(shuffled), replace=False)
        x_real = backend.featurize_pairs([inst.pair for inst in real])[picked]
        x_domain = sparse.vstack([x, x_real], format="csr")
        domain = np.concatenate([np.ones(len(shuffled)), np.zeros(len(picked))])
        _, direction = backend.descent_direction(params, x, y, lam, x_domain, domain, x.T)
        for key in group_keys(("encoder", "head", "discriminator")):
            assert np.array_equal(trained[key], params[key] - lr * direction[key]), key
        assert np.array_equal(trained["prefix.p"], params["prefix.p"])

    def test_empty_real_reference_rejected(self, base_model):
        model, _ = base_model
        config = TrainingConfig(loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.1), seed=1)
        with pytest.raises(ConfigurationError):
            adapt_invariance(
                model, training_set(_synthetic(10), model.backend),
                training_set([], model.backend), config,
            )

    def test_negative_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            LossSpec(kind=LossKind.CE_MINUS_IV, lam=-0.5)

    def test_discriminator_as_trainable_group_rejected(self):
        # the kernels give it no cross-entropy gradient; invariance training steps it itself
        with pytest.raises(ConfigurationError, match="discriminator"):
            TrainingConfig(trainable_groups=("encoder", "head", "discriminator"))


def _reference_loop(backend, params, data, config, groups, real_reference=None):
    """``_train_loop`` as first written: row-major parameters, and ``x.T`` and
    the ``[rows, y]`` gather built anew on every step (inside the oracles)."""
    lam = config.loss.effective_lambda
    rng = np.random.default_rng(config.seed)
    shuffled = [data[i] for i in rng.permutation(len(data))]
    x = backend.featurize_pairs([inst.pair for inst in shuffled])
    y = np.array([backend.label_index[_instance_label(inst)] for inst in shuffled])
    if lam:
        x_real_all = backend.featurize_pairs([inst.pair for inst in real_reference])
    params = {key: value.copy() for key, value in params.items()}
    update_keys = group_keys(groups) + group_keys(("discriminator",) if lam else ())
    for _ in range(config.epochs):
        _, direction = _ce_oracle(params, x, y)
        if lam:
            take = min(len(shuffled), len(real_reference))
            picked = rng.choice(len(real_reference), size=take, replace=False)
            x_domain = sparse.vstack([x, x_real_all[picked]], format="csr")
            domain = np.concatenate([np.ones(len(shuffled)), np.zeros(take)])
            _, iv = _iv_oracle(params, x_domain, domain)
            direction = {
                key: iv[key] if key.startswith("disc.") else value - lam * iv[key]
                for key, value in direction.items()
            }
        for key in update_keys:
            params[key] -= config.learning_rate * direction[key]
    return params


class TestTrainLoop:
    @pytest.mark.parametrize("case", ["ce from scratch", "prefix only", "invariance"])
    def test_loop_equals_the_plain_reference_loop(self, case, base_model, tiny_source, monkeypatch):
        """The per-loop set-up (``x.T`` once, ``encoder.W`` column-major) changes no bit,
        and each epoch calls the gradient-checked CE kernel exactly once."""
        model, _ = base_model
        backend, params, real = model.backend, model.params, None
        data, groups = _synthetic(40, seed=6), ("encoder", "head")
        if case == "ce from scratch":
            config = TrainingConfig(epochs=40, learning_rate=2.0, seed=5)
            params, data = backend.init_params(np.random.default_rng(5)), tiny_source.train
        elif case == "prefix only":
            config = TrainingConfig(epochs=25, learning_rate=0.5, seed=6)
            groups = ("prefix",)
        else:
            loss = LossSpec(kind=LossKind.CE_MINUS_IV, lam=0.3)
            config = TrainingConfig(epochs=25, learning_rate=0.5, seed=8, loss=loss)
            real = tiny_source.train
        expected = _reference_loop(backend, params, data, config, groups, real)

        calls = []
        ce_kernel = ReferenceBackend.ce_loss_and_grads

        def counted(self, *args, **kwargs):
            calls.append(args)
            return ce_kernel(self, *args, **kwargs)

        monkeypatch.setattr(ReferenceBackend, "ce_loss_and_grads", counted)
        trained = _train_loop(
            backend, params, [training_set(data, backend)], config, groups,
            real_reference=None if real is None else training_set(real, backend),
        )
        assert len(calls) == config.epochs
        assert _params_equal(trained, expected)
        assert all(value.flags.c_contiguous for value in trained.values())
        assert not _params_equal(trained, params)  # the loop did move something


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
        """Classifier keys descend CE - lam*IV; the discriminator descends IV."""
        lam = 0.1

        def evaluate(key):
            if key.startswith("disc."):
                return lambda p: backend.iv_loss_and_grads(p, x_domain, domain)[0]
            return lambda p: backend.descent_direction(p, x, y, lam, x_domain, domain, x.T)[0]

        _, direction = backend.descent_direction(params, x, y, lam, x_domain, domain, x.T)
        rng = np.random.default_rng(77)
        keys = sorted(params)
        for _ in range(10):
            key = keys[rng.integers(len(keys))]
            index = int(rng.integers(params[key].size))
            numeric = self._central_difference(evaluate(key), params, key, index)
            analytic = direction[key].ravel()[index]
            denom = max(abs(analytic), abs(numeric), 1e-8)
            assert abs(analytic - numeric) / denom <= 1e-4

    def test_ce_only_gradient_matches_central_differences(self):
        self._check_ce_gradient(*self._setup(seed=11))

    def test_ce_only_gradient_on_csr_matches_central_differences(self):
        self._check_ce_gradient(*self._setup(seed=11, csr=True))

    def _check_ce_gradient(self, backend, params, x, y, _x_domain, _domain):
        def evaluate(p):
            loss, _ = backend.ce_loss_and_grads(p, x, y, x.T)
            return loss

        _, grads = backend.ce_loss_and_grads(params, x, y, x.T)
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
            (
                backend.ce_loss_and_grads(params, x, y, x.T),
                backend.ce_loss_and_grads(params, dense, y, dense.T),
            ),
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
        ce, _ = backend.ce_loss_and_grads(params, x, y, x.T)
        iv, _ = backend.iv_loss_and_grads(params, x_domain, domain)
        total, _ = backend.descent_direction(params, x, y, 0.3, x_domain, domain, x.T)
        assert total == pytest.approx(ce - 0.3 * iv)


class TestDomainTokens:
    def test_prepend_construction(self):
        inst = LabeledInstance(
            pair=ArgumentPair(arg1="The vote passed.", arg2="It was close."),
            label=resolve_label("cause"),
            domain="EP",
        )
        tagged = prepend_domain_token(inst)
        assert tagged.pair.arg1 == "⟨EP⟩ The vote passed."
        assert tagged.pair.arg2 == "It was close."

    def test_idempotent(self):
        inst = LabeledInstance(
            pair=ArgumentPair(arg1="The vote passed.", arg2="b"),
            label=resolve_label("cause"),
            domain="EP",
        )
        once = prepend_domain_token(inst)
        twice = prepend_domain_token(once)
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
        # one label, so that the (domain, label) strata are the domains
        cause = resolve_label("cause")
        pool = [replace(inst, intended=cause) for inst in self._pool(per_domain=10000)]
        sample = stratified_downsample(pool, 10000, seed=3)
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
        pool = [
            replace(inst, intended=resolve_label("cause"))
            for inst in _synthetic(4, seed=1, domain="EP") + _synthetic(1, seed=2, domain="WK")
        ]
        sample = stratified_downsample(pool, 2, seed=5)
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
        loaded = load_model(tmp_path / "artifact", ReferenceBackend())
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

    def test_prefix_adapter_survives_save_and_load(self, base_model, tmp_path):
        model, _ = base_model
        adapted = adapt_prefix(
            model, training_set(_synthetic(40), model.backend),
            TrainingConfig(epochs=10, learning_rate=0.5, seed=3, trainable_groups=("prefix",)),
        )
        save_model(adapted, tmp_path / "prefix")
        loaded = load_model(tmp_path / "prefix", ReferenceBackend())
        assert np.array_equal(loaded.params["prefix.p"], adapted.params["prefix.p"])
        assert not np.array_equal(loaded.params["prefix.p"], model.params["prefix.p"])
        frozen = ("encoder", "head", "discriminator")
        loaded_checksums, base_checksums = all_checksums(loaded.params), all_checksums(model.params)
        assert {g: loaded_checksums[g] for g in frozen} == {g: base_checksums[g] for g in frozen}
        assert loaded.manifest["kind"] == "prefix"
        assert loaded.manifest["parent"] == model.artifact_id

    def test_failed_swap_keeps_the_old_artifact(self, base_model, tmp_path, monkeypatch):
        model, _ = base_model
        path = save_model(model, tmp_path / "artifact")
        newer = adapt_prefix(
            model, training_set(_synthetic(10), model.backend),
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
        loaded = load_model(path, ReferenceBackend())
        assert loaded.artifact_id == model.artifact_id
        assert _params_equal(loaded.params, model.params)
        save_model(newer, path)  # the next save cleans up and swaps in
        assert load_model(path, ReferenceBackend()).artifact_id == newer.artifact_id
        assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]
