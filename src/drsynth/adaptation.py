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

Every regime trains on a ``TrainingSet``: the rows' CSR features, their
label ids and adjacency, and the byte stream a model manifest's
``data_fingerprint`` hashes. A pool becomes one through the backend's feature memo
(``training_set``); a data file's rows are featurized once and may come
from a feature side file, so a re-run need not parse or featurize them.

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
from typing import Sequence

import numpy as np
from scipy import sparse

from .records import Adjacency, ArgumentPair, LabeledInstance, write_json
from .reference_backend import PARAMETER_GROUPS, Features, Params, ReferenceBackend, group_keys
from .taxonomy import FrequencyTable, RelationLabel

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


@dataclass(frozen=True)
class TrainingSet:
    """Featurized training rows, in order: all that training and a model manifest read.

    ``x`` holds one CSR row per instance, ``y`` the index of its label in the
    backend's label order, ``inter`` whether its pair is inter-sentential, and
    ``fingerprint`` the UTF-8 bytes (``uint8``) of ``arg1 US arg2 US label US
    domain RS`` per row (US and RS the ASCII unit and record separators), whose
    sha256 is the manifest's ``data_fingerprint``. Every field is an array, so
    ``feature_files`` stores a set field by field.
    """

    x: sparse.csr_array
    y: np.ndarray
    inter: np.ndarray
    fingerprint: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]


def training_set(instances: Sequence, backend: ReferenceBackend, memo: bool = True) -> TrainingSet:
    """The instances as a ``TrainingSet``, featurized by ``featurize_pairs`` (``memo``)
    or, for the rows of a data file, by ``featurize_rows``.

    A label outside the backend's label set raises ``ConfigurationError``.
    """
    labels = [_instance_label(inst) for inst in instances]
    try:
        y = np.array([backend.label_index[label] for label in labels], dtype=np.int64)
    except KeyError as exc:
        raise ConfigurationError(f"label {exc.args[0]} outside the training label set") from None
    pairs = [inst.pair for inst in instances]
    x = (backend.featurize_pairs if memo else backend.featurize_rows)(pairs)
    inter = np.array([pair.adjacency is Adjacency.INTER for pair in pairs], dtype=bool)
    fingerprint = "".join(
        f"{inst.pair.arg1}\x1f{inst.pair.arg2}\x1f{label.level2}\x1f{inst.domain}\x1e"
        for inst, label in zip(instances, labels)
    )
    return TrainingSet(x, y, inter, np.frombuffer(fingerprint.encode("utf-8"), dtype=np.uint8))


def frequency_table(
    train: TrainingSet, labels: Sequence[RelationLabel], scope: str = "inter-sentential-only"
) -> FrequencyTable:
    """Label frequency table over a training slice; ``labels`` are the ids' labels.

    With the default scope only inter-sentential pairs are counted, which is
    the reference used to call a label rare.
    """
    if scope == "inter-sentential-only":
        ids = train.y[train.inter]
    elif scope == "all":
        ids = train.y
    else:
        raise ValueError(f"unknown frequency scope {scope!r}")
    if not ids.size:
        raise ValueError("no instances in scope for frequency table")
    counts = np.bincount(ids, minlength=len(labels))
    return FrequencyTable(
        counts={labels[i]: int(n) for i, n in enumerate(counts) if n}, total=int(ids.size)
    )


def _fingerprint_digest(data: Sequence[TrainingSet]) -> str:
    """The manifest's ``data_fingerprint`` of the rows of ``data``, in order."""
    digest = hashlib.sha256()
    for part in data:
        digest.update(part.fingerprint)
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
    data: Sequence[TrainingSet],
    config: TrainingConfig,
    trainable_groups: Sequence[str],
    real_reference: TrainingSet | None = None,
) -> Params:
    """Full-batch gradient descent; one step per epoch along ``descent_direction``.

    The training rows are those of the ``data`` sets, in order. They are
    stacked and shuffled in one expression, so no stacked copy outlives the
    shuffle: concat's source rows are a 17k-row matrix that the run's store
    already holds.

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
    n = sum(map(len, data))
    if not n:
        raise ConfigurationError("training data must be non-empty")
    lam = config.loss.effective_lambda
    use_iv = lam > 0.0
    if use_iv and not real_reference:
        raise ConfigurationError("invariance training needs real reference data")

    rng = np.random.default_rng(config.seed)
    order = rng.permutation(n)
    x = sparse.vstack([part.x for part in data], format="csr")[order]
    y = np.concatenate([part.y for part in data])[order]

    params = backend.copy_params(params)
    params["encoder.W"] = np.asfortranarray(params["encoder.W"])
    x_t = x.T  # a CSC view over x's arrays
    update_keys = group_keys(trainable_groups) + group_keys(("discriminator",) if use_iv else ())
    x_domain = domain = None
    for _ in range(config.epochs):
        if use_iv:
            take = min(n, len(real_reference))
            picked = rng.choice(len(real_reference), size=take, replace=False)
            x_domain = sparse.vstack([x, real_reference.x[picked]], format="csr")
            domain = np.concatenate([np.ones(n), np.zeros(take)])
        _, direction = backend.descent_direction(params, x, y, lam, x_domain, domain, x_t)
        for key in update_keys:
            params[key] -= config.learning_rate * direction[key]
    params["encoder.W"] = np.ascontiguousarray(params["encoder.W"])
    return params


def _build_model(
    backend: ReferenceBackend,
    params: Params,
    config: TrainingConfig,
    data: Sequence[TrainingSet],
    kind: str,
    parent: str = "",
    extra: dict | None = None,
) -> Model:
    manifest = {
        "kind": kind,
        "backend": backend.name,
        "labels": [label.level2 for label in backend.labels],
        "config": config.snapshot(),
        "data_fingerprint": _fingerprint_digest(data),
        "n_instances": sum(map(len, data)),
        "parent": parent,
    }
    if extra:
        manifest.update(extra)
    artifact_id = _artifact_id(manifest, params)
    manifest["artifact_id"] = artifact_id
    return Model(backend=backend, params=params, artifact_id=artifact_id, manifest=manifest)


def train_base(
    train: TrainingSet,
    dev: Sequence[LabeledInstance],
    config: TrainingConfig,
    backend: ReferenceBackend,
) -> tuple[Model, dict[RelationLabel, dict[RelationLabel, int]]]:
    """Train the source-domain classifier and report its dev confusion matrix."""
    if not train:
        raise ConfigurationError("empty training set")
    rng = np.random.default_rng(config.seed)
    params = _train_loop(backend, backend.init_params(rng), [train], config, ("encoder", "head"))
    model = _build_model(backend, params, config, [train], kind="base")
    confusion: dict[RelationLabel, dict[RelationLabel, int]] = {}
    if dev:
        predicted, _ = batch_predict(model, [inst.pair for inst in dev])
        for inst, pred in zip(dev, predicted):
            row = confusion.setdefault(inst.label, {})
            row[pred] = row.get(pred, 0) + 1
    return model, confusion


def batch_predict(
    model: Model, pairs: Sequence[ArgumentPair]
) -> tuple[list[RelationLabel], np.ndarray]:
    return predict_features(model, model.backend.featurize_pairs(pairs))


def predict_features(model: Model, x: Features) -> tuple[list[RelationLabel], np.ndarray]:
    """``batch_predict`` of rows already featurized."""
    scores = model.backend.score_matrix(model.params, x)
    indices = scores.argmax(axis=1)
    return [model.labels[int(i)] for i in indices], scores


def adapt_concat(
    source: TrainingSet,
    synthetic: TrainingSet,
    config: TrainingConfig,
    backend: ReferenceBackend,
) -> Model:
    """Fresh training on the combined source + synthetic pool.

    With an empty synthetic pool this is exactly train_base under the same
    seed; the manifest keeps per-provenance counts for the record.
    """
    combined = [source, synthetic]
    rng = np.random.default_rng(config.seed)
    params = _train_loop(backend, backend.init_params(rng), combined, config, ("encoder", "head"))
    extra = {
        "n_source": len(source),
        "n_synthetic": len(synthetic),
    }
    return _build_model(backend, params, config, combined, kind="concat", extra=extra)


def adapt_ce(base_model: Model, data: TrainingSet, config: TrainingConfig) -> Model:
    """Continue training the base classifier on new data with plain CE."""
    if config.loss.effective_lambda != 0.0:
        raise ConfigurationError("adapt_ce is cross-entropy only; use adapt_invariance")
    params = _train_loop(
        base_model.backend, base_model.params, [data], config, config.trainable_groups
    )
    return _build_model(
        base_model.backend, params, config, [data], kind="ce", parent=base_model.artifact_id
    )


_FROZEN_BY_PREFIX = ("encoder", "head", "discriminator")


def adapt_prefix(base_model: Model, synthetic: TrainingSet, config: TrainingConfig) -> Model:
    """Prefix-only adaptation; every non-prefix group stays bit-identical."""
    if any(group != "prefix" for group in config.trainable_groups):
        raise ConfigurationError("prefix adaptation trains only the prefix group")
    before = all_checksums(base_model.params)
    params = _train_loop(base_model.backend, base_model.params, [synthetic], config, ("prefix",))
    after = all_checksums(params)
    for group in _FROZEN_BY_PREFIX:
        if before[group] != after[group]:
            raise ConfigurationError(f"prefix adaptation modified frozen group {group}")
    return _build_model(
        base_model.backend, params, config, [synthetic], kind="prefix",
        parent=base_model.artifact_id,
    )


def adapt_invariance(
    base_model: Model,
    synthetic: TrainingSet,
    real_reference: TrainingSet,
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
        [synthetic],
        config,
        config.trainable_groups,
        real_reference=real_reference,
    )
    return _build_model(
        base_model.backend, params, config, [synthetic], kind="invariance",
        parent=base_model.artifact_id,
        extra={"lambda": config.loss.lam, "n_real_reference": len(real_reference)},
    )


# --- domain tokens -----------------------------------------------------

_DOMAIN_TOKEN = re.compile(r"^⟨[^⟩]+⟩ ")


def domain_token_literal(domain: str) -> str:
    return f"⟨{domain}⟩"


def tag_text(text: str, domain: str) -> str:
    """Prepend the domain token unless some domain token is already there.

    The one rule that puts a domain token on a text: the pool rows a ``mixed``
    model trains on and the eval rows it is scored on are both tagged here.
    """
    if _DOMAIN_TOKEN.match(text):
        return text
    return f"{domain_token_literal(domain)} {text}"


def prepend_domain_token(inst):
    """Instance with its arg1 prefixed by its domain's token; idempotent."""
    tagged = tag_text(inst.pair.arg1, inst.domain)
    if tagged == inst.pair.arg1:
        return inst
    return replace(inst, pair=replace(inst.pair, arg1=tagged))


# --- stratified downsampling --------------------------------------------


def stratified_downsample(data: Sequence, target_size: int, seed: int = 0) -> list:
    """Downsample to ``target_size`` preserving the share of each (domain, label) stratum.

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
        groups.setdefault((inst.domain, _instance_label(inst).level2), []).append(index)
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


def load_model(directory: str | Path, backend: ReferenceBackend) -> Model:
    path = Path(directory)
    if not path.is_dir():
        raise ConfigurationError(f"model artifact {path} is not a directory")
    with open(path / "manifest.json", encoding="utf-8") as handle:
        manifest = json.load(handle)
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
