"""Adaptation regimes over the classifier backend contract.

Four ways to move a source-trained classifier toward target-domain data:

  concat      retrain from scratch on the shuffled union of source and
              synthetic data
  prefix      continue training with only the prefix parameter group
              trainable; the base encoder and head stay bit-identical
  invariance  continue training on cross-entropy minus lam times an
              invariance term: the negative log-likelihood of a domain
              discriminator on real-vs-synthetic features. The classifier
              groups step along the total-loss gradient (which pushes
              features toward domain indistinguishability); the
              discriminator adversarially minimizes its own loss.
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

from .records import ArgumentPair, LabeledInstance
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
class AdapterState:
    """Prefix parameters plus the checksums of the frozen base groups."""

    prefix: np.ndarray
    base_checksums: dict[str, str]
    embed_dim: int


@dataclass
class Model:
    """An immutable-once-written classifier artifact."""

    backend: ReferenceBackend
    params: Params
    artifact_id: str
    manifest: dict
    adapter: AdapterState | None = None

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
        label = getattr(inst, "label", None) or getattr(inst, "intended")
        digest.update(
            "\x1f".join(
                [inst.pair.arg1, inst.pair.arg2, label.level2, inst.domain]
            ).encode("utf-8")
        )
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
    """Full-batch gradient descent; one update step per epoch.

    With an active invariance term the classifier groups follow the
    total-loss gradient while the discriminator takes its own minimizing
    step on the invariance loss (the adversarial direction). With lam=0 the
    invariance machinery is skipped entirely, so the run consumes exactly
    the same random stream as a plain cross-entropy run.
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
    update_keys = group_keys(trainable_groups)
    for _ in range(config.epochs):
        _, ce_grads = backend.ce_loss_and_grads(params, x, y)
        if use_iv:
            take = min(len(shuffled), len(real_reference))
            picked = rng.choice(len(real_reference), size=take, replace=False)
            x_domain = sparse.vstack([x, x_real_all[picked]], format="csr")
            domain = np.concatenate([np.ones(len(shuffled)), np.zeros(take)])
            _, iv_grads = backend.iv_loss_and_grads(params, x_domain, domain)
            for key in update_keys:
                step = ce_grads[key] - lam * iv_grads[key] if key in iv_grads else ce_grads[key]
                params[key] -= config.learning_rate * step
            for key in PARAMETER_GROUPS["discriminator"]:
                params[key] -= config.learning_rate * iv_grads[key]
        else:
            for key in update_keys:
                params[key] -= config.learning_rate * ce_grads[key]
    return params


def _build_model(
    backend: ReferenceBackend,
    params: Params,
    config: TrainingConfig,
    data: Sequence,
    kind: str,
    parent: str = "",
    extra: dict | None = None,
    adapter: AdapterState | None = None,
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
    return Model(
        backend=backend, params=params, artifact_id=artifact_id, manifest=manifest,
        adapter=adapter,
    )


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


def adapt_prefix(
    base_model: Model,
    synthetic: Sequence,
    config: TrainingConfig,
    prefix_dim: int = 512,
) -> Model:
    """Prefix-only adaptation; every non-prefix group stays bit-identical.

    ``prefix_dim`` is the per-token embedding width a transformer backend
    would allocate (recorded in the manifest); the reference backend's
    prefix block has a fixed shape.
    """
    if any(group != "prefix" for group in config.trainable_groups):
        raise ConfigurationError("prefix adaptation trains only the prefix group")
    before = all_checksums(base_model.params)
    params = _train_loop(base_model.backend, base_model.params, synthetic, config, ("prefix",))
    after = all_checksums(params)
    for group in _FROZEN_BY_PREFIX:
        if before[group] != after[group]:
            raise ConfigurationError(f"prefix adaptation modified frozen group {group}")
    adapter = AdapterState(
        prefix=params["prefix.p"].copy(),
        base_checksums={g: before[g] for g in _FROZEN_BY_PREFIX},
        embed_dim=prefix_dim,
    )
    return _build_model(
        base_model.backend, params, config, synthetic, kind="prefix",
        parent=base_model.artifact_id, extra={"prefix_dim": prefix_dim}, adapter=adapter,
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


# --- transformer-scale prefix budget -------------------------------------


@dataclass(frozen=True)
class TransformerShape:
    """Shape facts needed to size a prefix block for a transformer backend."""

    num_layers: int
    hidden_dim: int
    full_finetune_params: int


# 12-layer, 768-wide encoder; full fine-tuning moves ~130M parameters.
REFERENCE_TRANSFORMER = TransformerShape(
    num_layers=12, hidden_dim=768, full_finetune_params=130_000_000
)

PREFIX_EMBED_DIM = 512
PREFIX_PARAM_BUDGET = 7_000_000


def prefix_parameter_count(
    shape: TransformerShape, prefix_length: int, embed_dim: int = PREFIX_EMBED_DIM
) -> int:
    """Trainable parameters of per-layer key/value prefix blocks."""
    return 2 * shape.num_layers * prefix_length * embed_dim


def default_prefix_length(
    shape: TransformerShape,
    embed_dim: int = PREFIX_EMBED_DIM,
    budget: int = PREFIX_PARAM_BUDGET,
) -> int:
    """Prefix length whose parameter count lands nearest the budget."""
    return round(budget / (2 * shape.num_layers * embed_dim))


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
    if staging.exists():
        shutil.rmtree(staging)
    (staging / "params").mkdir(parents=True)
    for key, value in model.params.items():
        np.save(staging / "params" / f"{key}.npy", np.ascontiguousarray(value))
    with open(staging / "manifest.json", "w", encoding="utf-8") as handle:
        json.dump(model.manifest, handle, sort_keys=True, indent=2)
        handle.write("\n")
    previous = path.with_name(path.name + ".old")
    if previous.exists():
        shutil.rmtree(previous)
    if path.exists():
        os.replace(path, previous)
    try:
        os.replace(staging, path)
    except BaseException:
        if previous.exists():
            os.replace(previous, path)
        raise
    shutil.rmtree(previous, ignore_errors=True)
    return path


def load_model(directory: str | Path, backend: ReferenceBackend | None = None) -> Model:
    path = Path(directory)
    with open(path / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
    if backend is None:
        labels = [resolve_label(name) for name in manifest["labels"]]
        backend = ReferenceBackend(labels=labels)
    params = {
        file.name.removesuffix(".npy"): np.load(file)
        for file in sorted((path / "params").glob("*.npy"))
    }
    adapter = None
    if manifest["kind"] == "prefix":
        # prefix adaptation leaves the other groups bit-identical to the base's
        adapter = AdapterState(
            prefix=params["prefix.p"].copy(),
            base_checksums={g: group_checksum(params, g) for g in _FROZEN_BY_PREFIX},
            embed_dim=manifest["prefix_dim"],
        )
    return Model(
        backend=backend,
        params=params,
        artifact_id=manifest["artifact_id"],
        manifest=manifest,
        adapter=adapter,
    )
