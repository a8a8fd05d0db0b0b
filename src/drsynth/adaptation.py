"""Adaptation regimes over the classifier backend contract.

Four ways to move a source-trained classifier toward target-domain data:

  concat      retrain from scratch on the shuffled union of source and
              synthetic data
  prefix      continue training with only the prefix parameter group
              trainable; the base encoder and head stay bit-identical
  invariance  continue training on cross-entropy minus lam times an
              invariance term: the negative log-likelihood of a domain
              discriminator on real-vs-synthetic features. Each epoch takes
              one step along the backend's ``descent_direction``: the
              classifier groups descend the total loss (which pushes
              features toward domain indistinguishability) and the
              discriminator descends its own loss (gradient reversal).
  ce          plain continued training (the lam=0 degenerate case of
              invariance, kept as its own entry point)

Plus the domain-mixed utilities: domain-token prepending and stratified
downsampling with largest-remainder apportionment.
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
import re
import shutil
from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from pathlib import Path
from typing import Callable, Sequence

import numpy as np
from scipy import sparse

from .records import ArgumentPair, LabeledInstance, write_json
from .reference_backend import PARAMETER_GROUPS, Params, ReferenceBackend, group_keys
from .taxonomy import RelationLabel, resolve_label

logger = logging.getLogger(__name__)


class ConfigurationError(ValueError):
    pass


class LossKind(str, Enum):
    CE = "CE"
    CE_MINUS_IV = "CE_minus_IV"


@dataclass(frozen=True)
class LossSpec:
    kind: LossKind = LossKind.CE
    lam: float = 0.1

    def __post_init__(self) -> None:
        if self.lam < 0:
            raise ConfigurationError("lambda must be non-negative")

    @property
    def effective_lambda(self) -> float:
        return self.lam if self.kind is LossKind.CE_MINUS_IV else 0.0


@dataclass(frozen=True)
class TrainingConfig:
    epochs: int = 3
    learning_rate: float = 1e-4
    seed: int = 0
    loss: LossSpec = field(default_factory=LossSpec)
    trainable_groups: tuple[str, ...] = ("encoder", "head")

    def __post_init__(self) -> None:
        # epochs=0 is the documented no-op: artifacts equal their initialization
        if self.epochs < 0:
            raise ConfigurationError("epochs must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning rate must be positive")
        for group in self.trainable_groups:
            if group not in PARAMETER_GROUPS:
                raise ConfigurationError(f"unknown trainable group {group!r}")
            if group == "discriminator":
                # it has no cross-entropy gradient; invariance training updates it on its own
                raise ConfigurationError("the discriminator is not a trainable classifier group")

    def snapshot(self) -> dict:
        return {
            "epochs": self.epochs,
            "learning_rate": self.learning_rate,
            "seed": self.seed,
            "loss": {"kind": self.loss.kind.value, "lambda": self.loss.lam},
            "trainable_groups": list(self.trainable_groups),
        }


@dataclass
class Model:
    """An immutable-once-written classifier artifact."""

    backend: ReferenceBackend
    params: Params
    artifact_id: str
    manifest: dict

    @property
    def labels(self) -> list[RelationLabel]:
        return self.backend.labels


def group_checksum(params: Params, group: str) -> str:
    digest = hashlib.sha256()
    for key in PARAMETER_GROUPS[group]:
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(params[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def all_checksums(params: Params) -> dict[str, str]:
    return {group: group_checksum(params, group) for group in PARAMETER_GROUPS}


def data_fingerprint(instances: Sequence) -> str:
    digest = hashlib.sha256()
    for inst in instances:
        parts = [inst.pair.arg1, inst.pair.arg2, _instance_label(inst).level2, inst.domain]
        digest.update("\x1f".join(parts).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def _artifact_id(manifest: dict, params: Params) -> str:
    digest = hashlib.sha256(json.dumps(manifest, sort_keys=True).encode("utf-8"))
    for key in sorted(params):
        digest.update(key.encode())
        digest.update(np.ascontiguousarray(params[key], dtype=np.float64).tobytes())
    return digest.hexdigest()


def _instance_label(inst) -> RelationLabel:
    label = getattr(inst, "label", None)
    return label if label is not None else inst.intended


def _train_loop(
    backend: ReferenceBackend,
    params: Params,
    data: Sequence,
    config: TrainingConfig,
    trainable_groups: Sequence[str],
    real_reference: Sequence | None = None,
) -> Params:
    """Full-batch gradient descent; one step per epoch along ``descent_direction``.

    Each step moves the trainable groups, and with an active invariance term
    also the discriminator, against the backend's gradient-checked
    direction. With lam=0 no real rows are drawn and no domain batch is
    built, so the run consumes exactly the random stream of a plain
    cross-entropy run.

    What no step changes is set up once, before the first: ``x.T`` (a CSC
    view over ``x``'s arrays) for the CE kernel, and ``encoder.W`` in
    column-major order, so that ``x @ W.T`` reads the weight in place and the
    update runs over matching layouts. Rebuilt per step, they cost a step on
    a few hundred rows about a quarter of its time. The weight is returned
    row-major, and the result is bit for bit that of a loop without this
    set-up. The invariance batch is drawn anew each epoch, so its transpose
    is built per step.
    """
    if not data:
        raise ConfigurationError("training data must be non-empty")
    for inst in data:
        if _instance_label(inst) not in backend.label_index:
            raise ConfigurationError(
                f"label {_instance_label(inst)} outside the training label set"
            )
    lam = config.loss.effective_lambda
    use_iv = lam > 0.0
    if use_iv and not real_reference:
        raise ConfigurationError("invariance training needs real reference data")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(len(data))
    shuffled = [data[i] for i in order]
    x = backend.featurize_pairs([inst.pair for inst in shuffled])
    y = np.array([backend.label_index[_instance_label(inst)] for inst in shuffled])
    if use_iv:
        x_real_all = backend.featurize_pairs([inst.pair for inst in real_reference])

    params = backend.copy_params(params)
    params["encoder.W"] = np.asfortranarray(params["encoder.W"])
    x_t = x.T  # a CSC view over x's arrays
    update_keys = group_keys(trainable_groups) + group_keys(("discriminator",) if use_iv else ())
    x_domain = domain = None
    for _ in range(config.epochs):
        if use_iv:
            take = min(len(shuffled), len(real_reference))
            picked = rng.choice(len(real_reference), size=take, replace=False)
            x_domain = sparse.vstack([x, x_real_all[picked]], format="csr")
            domain = np.concatenate([np.ones(len(shuffled)), np.zeros(take)])
        _, direction = backend.descent_direction(params, x, y, lam, x_domain, domain, x_t)
        for key in update_keys:
            params[key] -= config.learning_rate * direction[key]
    params["encoder.W"] = np.ascontiguousarray(params["encoder.W"])
    return params


def _build_model(
    backend: ReferenceBackend,
    params: Params,
    config: TrainingConfig,
    data: Sequence,
    kind: str,
    parent: str = "",
    extra: dict | None = None,
) -> Model:
    manifest = {
        "kind": kind,
        "backend": backend.name,
        "labels": [label.level2 for label in backend.labels],
        "config": config.snapshot(),
        "data_fingerprint": data_fingerprint(data),
        "n_instances": len(data),
        "parent": parent,
    }
    if extra:
        manifest.update(extra)
    artifact_id = _artifact_id(manifest, params)
    manifest["artifact_id"] = artifact_id
    return Model(backend=backend, params=params, artifact_id=artifact_id, manifest=manifest)


def train_base(
    train: Sequence[LabeledInstance],
    dev: Sequence[LabeledInstance],
    config: TrainingConfig,
    backend: ReferenceBackend,
) -> tuple[Model, dict[RelationLabel, dict[RelationLabel, int]]]:
    """Train the source-domain classifier and report its dev confusion matrix."""
    if not train:
        raise ConfigurationError("empty training set")
    rng = np.random.default_rng(config.seed)
    params = _train_loop(backend, backend.init_params(rng), train, config, ("encoder", "head"))
    model = _build_model(backend, params, config, train, kind="base")
    confusion: dict[RelationLabel, dict[RelationLabel, int]] = {}
    if dev:
        predicted, _ = batch_predict(model, [inst.pair for inst in dev])
        for inst, pred in zip(dev, predicted):
            row = confusion.setdefault(inst.label, {})
            row[pred] = row.get(pred, 0) + 1
    return model, confusion


def batch_predict(
    model: Model,
    pairs: Sequence[ArgumentPair],
    domain_tokens: Sequence[str | None] | None = None,
) -> tuple[list[RelationLabel], np.ndarray]:
    x = model.backend.featurize_pairs(pairs, domain_tokens)
    scores = model.backend.score_matrix(model.params, x)
    indices = scores.argmax(axis=1)
    return [model.labels[int(i)] for i in indices], scores


def adapt_concat(
    source: Sequence[LabeledInstance],
    synthetic: Sequence,
    config: TrainingConfig,
    backend: ReferenceBackend,
) -> Model:
    """Fresh training on the combined source + synthetic pool.

    With an empty synthetic pool this is exactly train_base under the same
    seed; the manifest keeps per-provenance counts for the record.
    """
    combined = list(source) + list(synthetic)
    rng = np.random.default_rng(config.seed)
    params = _train_loop(backend, backend.init_params(rng), combined, config, ("encoder", "head"))
    extra = {
        "n_source": len(source),
        "n_synthetic": len(synthetic),
    }
    return _build_model(backend, params, config, combined, kind="concat", extra=extra)


def adapt_ce(base_model: Model, data: Sequence, config: TrainingConfig) -> Model:
    """Continue training the base classifier on new data with plain CE."""
    if config.loss.effective_lambda != 0.0:
        raise ConfigurationError("adapt_ce is cross-entropy only; use adapt_invariance")
    params = _train_loop(
        base_model.backend, base_model.params, data, config, config.trainable_groups
    )
    return _build_model(
        base_model.backend, params, config, data, kind="ce", parent=base_model.artifact_id
    )


_FROZEN_BY_PREFIX = ("encoder", "head", "discriminator")


def adapt_prefix(base_model: Model, synthetic: Sequence, config: TrainingConfig) -> Model:
    """Prefix-only adaptation; every non-prefix group stays bit-identical."""
    if any(group != "prefix" for group in config.trainable_groups):
        raise ConfigurationError("prefix adaptation trains only the prefix group")
    before = all_checksums(base_model.params)
    params = _train_loop(base_model.backend, base_model.params, synthetic, config, ("prefix",))
    after = all_checksums(params)
    for group in _FROZEN_BY_PREFIX:
        if before[group] != after[group]:
            raise ConfigurationError(f"prefix adaptation modified frozen group {group}")
    return _build_model(
        base_model.backend, params, config, synthetic, kind="prefix",
        parent=base_model.artifact_id,
    )


def adapt_invariance(
    base_model: Model,
    synthetic: Sequence,
    real_reference: Sequence[LabeledInstance],
    config: TrainingConfig,
) -> Model:
    """Continue training on CE minus lam times the invariance term.

    The invariance term is the discriminator's negative log-likelihood on
    real-vs-synthetic features; each epoch draws a real sample matched to
    the synthetic batch size. With lam=0 this reduces exactly to adapt_ce.
    """
    if config.loss.kind is not LossKind.CE_MINUS_IV:
        config = replace(config, loss=LossSpec(kind=LossKind.CE_MINUS_IV, lam=config.loss.lam))
    if not real_reference:
        raise ConfigurationError("invariance adaptation needs real reference data")
    params = _train_loop(
        base_model.backend,
        base_model.params,
        synthetic,
        config,
        config.trainable_groups,
        real_reference=real_reference,
    )
    return _build_model(
        base_model.backend, params, config, synthetic, kind="invariance",
        parent=base_model.artifact_id,
        extra={"lambda": config.loss.lam, "n_real_reference": len(real_reference)},
    )


# --- domain tokens -----------------------------------------------------

_DOMAIN_TOKEN = re.compile(r"^⟨[^⟩]+⟩ ")


def domain_token_literal(domain: str) -> str:
    return f"⟨{domain}⟩"


def tag_text(text: str, domain: str) -> str:
    """Prepend the domain token unless some domain token is already there."""
    if _DOMAIN_TOKEN.match(text):
        return text
    return f"{domain_token_literal(domain)} {text}"


def prepend_domain_token(inst, domain: str | None = None):
    """Instance with its arg1 prefixed by a domain token; idempotent."""
    domain = domain if domain is not None else inst.domain
    tagged = tag_text(inst.pair.arg1, domain)
    if tagged == inst.pair.arg1:
        return inst
    return replace(inst, pair=replace(inst.pair, arg1=tagged))


# --- stratified downsampling --------------------------------------------


def _default_stratum(inst) -> tuple[str, str]:
    return (inst.domain, _instance_label(inst).level2)


def stratified_downsample(
    data: Sequence,
    target_size: int,
    seed: int = 0,
    stratum: Callable = _default_stratum,
) -> list:
    """Downsample to ``target_size`` preserving per-stratum shares.

    Largest-remainder apportionment: each stratum receives the floor of its
    exact proportional share, and the leftover seats go to the largest
    fractional remainders (ties by stratum key), so every stratum lands
    within one instance of proportionality and the total is exact. Members
    are drawn uniformly without replacement; input order is preserved.
    """
    if target_size > len(data):
        raise ConfigurationError(
            f"target size {target_size} exceeds pool size {len(data)}"
        )
    groups: dict[tuple, list[int]] = {}
    for index, inst in enumerate(data):
        groups.setdefault(stratum(inst), []).append(index)
    total = len(data)
    quotas = {key: Fraction(target_size * len(members), total) for key, members in groups.items()}
    allocation = {key: int(quota) for key, quota in quotas.items()}
    leftover = target_size - sum(allocation.values())
    by_remainder = sorted(
        groups, key=lambda key: (-(quotas[key] - allocation[key]), key)
    )
    for key in by_remainder[:leftover]:
        allocation[key] += 1

    rng = np.random.default_rng(seed)
    chosen: list[int] = []
    for key in sorted(groups):
        members = groups[key]
        take = allocation[key]
        if take:
            picked = rng.choice(len(members), size=take, replace=False)
            chosen.extend(members[i] for i in picked)
    chosen.sort()
    return [data[i] for i in chosen]


# --- artifact IO ---------------------------------------------------------


def save_model(model: Model, directory: str | Path) -> Path:
    """Write the artifact as one .npy per parameter plus a manifest.

    Plain .npy files carry no timestamps, so identical models always
    serialize to identical bytes. The directory is assembled in a sibling
    temp location and swapped in whole, so readers never see a half-written
    artifact; an old artifact is moved aside first and deleted only once the
    new one is in place (put back if the swap fails).
    """
    path = Path(directory)
    path.parent.mkdir(parents=True, exist_ok=True)
    staging = path.with_name(path.name + ".tmp")
    remove_artifact(staging)
    (staging / "params").mkdir(parents=True)
    for key, value in model.params.items():
        np.save(staging / "params" / f"{key}.npy", np.ascontiguousarray(value))
    write_json(staging / "manifest.json", model.manifest)
    previous = path.with_name(path.name + ".old")
    remove_artifact(previous)
    if path.exists():
        os.replace(path, previous)
    try:
        os.replace(staging, path)
    except BaseException:
        if previous.exists():
            os.replace(previous, path)
        raise
    remove_artifact(previous)
    return path


def remove_artifact(path: Path) -> None:
    """Delete an artifact path if present, whether a directory or a file."""
    if path.is_dir() and not path.is_symlink():
        shutil.rmtree(path)
    else:
        path.unlink(missing_ok=True)


def load_model(directory: str | Path, backend: ReferenceBackend | None = None) -> Model:
    path = Path(directory)
    if not path.is_dir():
        raise ConfigurationError(f"model artifact {path} is not a directory")
    with open(path / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if backend is None:
        labels = [resolve_label(name) for name in manifest["labels"]]
        backend = ReferenceBackend(labels=labels)
    params = {
        file.name.removesuffix(".npy"): np.load(file)
        for file in sorted((path / "params").glob("*.npy"))
    }
    return Model(
        backend=backend,
        params=params,
        artifact_id=manifest["artifact_id"],
        manifest=manifest,
    )
