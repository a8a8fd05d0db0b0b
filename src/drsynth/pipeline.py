"""Experiment orchestration: ingest, train, generate, screen, adapt, evaluate.

A run is driven by a flat key-path config file (``key = value`` lines with
JSON-typed values and ``include`` support). ``stages(config, workdir)``
turns a config into one ordered table of ``Stage`` records; ``run``,
``resume``, ``--dry-run`` and every CLI stage verb walk that table through
``run_experiment``. A stage digest covers the stage's name, config slice and
input digests. An action is a module function called as ``action(cfg,
stage, store)`` with exactly that slice, so an undeclared config key fails
as ``KeyError``; it reads only ``stage.inputs`` and writes only
``stage.outputs``, so ``stages()`` alone decides the workdir layout.
Re-running a workdir skips every stage whose digest matches and whose
outputs are intact: a changed screening setting re-runs the screen and the
report while reusing the generation cache, and retrains only where the kept
rows change.

The stage table, in order (``S`` ranges over ``seeds``, ``V`` over the
``adaptation.methods`` x ``adaptation.domain_modes`` variants), with the
outputs under the workdir:

  fixtures               data/{source,target,raw}.jsonl (only the ``fixtures:`` corpora)
  ingest                 data/{train,dev,eval,raw-canonical}.jsonl
  train-base:seedS       models/base-seedS/ (with dev-confusion.json)
  generate               synthetic/candidates.jsonl (unless every method is pseudo)
  screen                 synthetic/screened.jsonl, screening-report.json
  pseudo-label           pseudo/labeled.jsonl (if pseudo is a method)
  adapt:V:seedS          models/V-seedS/<domain>/ per domain, or models/V-seedS/mixed/
  evaluate:B:seedS       eval/B-seedS.json, -predictions.jsonl (B: baseline, then each V)
  report                 results.txt (stars mark significance), results.tsv

Each stage declares only the config keys and inputs its action reads, so an
evaluation setting re-runs only the ``evaluate`` stages and the report, and
``adaptation.lambda`` only the invariance models and their evaluations.
Concat and pseudo train from scratch at the ``base.*`` settings; prefix and
invariance continue the base model at the ``adaptation.*`` settings.

``run-manifest.json`` records each stage's digests, its wall clock, and the
minor page faults and system CPU seconds its action took. Side
files, named beside a declared output and outside every digest:
``data/train-features.npz`` and ``data/eval-features.npz`` beside the train
and eval rows (see ``feature_files``), ``synthetic/cache.jsonl``,
``failures.json`` and ``generation-stats.json`` beside the candidates, and
``screening-report.txt`` and ``screening-meta.json`` beside the report.

Everything the stages of one run share lives in one ``Store``, made by a
non-dry run and dropped with it, so a workdir edited between runs is
hashed and parsed in full again. Its memo of content digests serves the
input digests, the skip checks, the digests recorded after an action and
the keys of its one cache, so a run reads each declared file's bytes at
most once; the entries that overlap a stage's outputs are dropped before
its action runs. Every stage featurizes through the store's one
``ReferenceBackend`` and builds what it needs from a file through
``Store.read``, once per (content digest, builder): the rows of a file, the
train rows as a ``TrainingSet``, or the eval rows as an ``EvalArrays``
(features untagged and tagged by ``adaptation.tag_text``, the rule that
tags the ``mixed`` pools, an n x 18 vote matrix and the domains). The two
array builders first read the side file ``ingest`` wrote and take it when
its stamps match, so a run that skips ``ingest`` parses no train or eval
row and featurizes no row of either file. ``ingest`` writes both side
files and hands what it builds over to the cache; a read that finds a side
file stale rebuilds the arrays and rewrites it (atomically, under the
workdir lock), so the rebuild happens once. An ``evaluate`` stage
derives the gold masks and majority labels from the vote matrix at its own
vote threshold (about a millisecond for 6,203 rows, so nothing caches
them), and scores label ids against them. A non-dry run holds an exclusive
``flock`` on the workdir directory; a second writer fails with
``PipelineError`` (CLI exit 2) before it touches the workdir.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import random
import resource
import time
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Iterator, Mapping, Sequence, TypeVar

import numpy as np

from . import fixtures
from .adaptation import (
    ConfigurationError,
    LossKind,
    LossSpec,
    TrainingConfig,
    TrainingSet,
    adapt_concat,
    adapt_invariance,
    adapt_prefix,
    batch_predict,
    frequency_table,
    load_model,
    predict_features,
    prepend_domain_token,
    remove_artifact,
    save_model,
    stratified_downsample,
    train_base,
    training_set,
)
from .evaluation import (
    METRICS,
    EvalProtocol,
    ScoreBatch,
    SignificanceResult,
    VariantMeta,
    render_results_table,
    report_payload,
    results_tsv,
    score,
    t_test,
)
from .feature_files import EvalArrays, read_side_file, write_side_file
from .generation import (
    Backend,
    BackendDescriptor,
    DecodingParams,
    GenerationCache,
    HTTPBackend,
    MockBackend,
    generate_batch,
)
from .prompts import PromptTemplateKind
from .pseudo_label import (
    pseudo_label_corpus,
    read_pseudo_records,
    write_pseudo_records,
)
from .records import (
    CrowdAnnotatedInstance,
    SplitSpec,
    gold_label_masks,
    ingest_raw_corpus,
    ingest_source_corpus,
    ingest_target_corpus,
    source_record,
    target_record,
    vote_matrix,
    write_json,
    write_raw_corpus,
    write_records,
    write_text,
)
from .reference_backend import ReferenceBackend
from .screening import (
    ScreenKind,
    read_synthetic_records,
    render_screening_report,
    report_to_json,
    screen_batch,
    write_synthetic_records,
)
from .taxonomy import (
    ConfusionMap,
    LabelError,
    derive_confusion_map,
    generation_label_set,
    label_order,
    load_confusion_map,
    resolve_label,
)

logger = logging.getLogger(__name__)

ENDPOINT_ENV = "DRSYNTH_LLM_ENDPOINT"

DEFAULTS: dict[str, object] = {
    "workdir": "runs/experiment",
    "domains": ["EP", "WK", "NV"],
    "data.source": "fixtures:tiny",
    "data.target": "fixtures:tiny",
    "data.raw": "fixtures:tiny",
    "data.split": "2-20:1-2",
    "data.fixture_seed": 11,
    "generation.backends": ["mock"],
    "generation.template": "DC",
    "generation.include_similarity": False,
    "generation.n_arg1": 12,
    "generation.seed": 0,
    "generation.connective_choice": None,
    "base.epochs": 300,
    "base.learning_rate": 2.0,
    "screening.kind": "strict",
    "screening.cmap": "bundled",
    "screening.freq_scope": "inter-sentential-only",
    "adaptation.methods": ["prefix"],
    "adaptation.domain_modes": ["specific"],
    "adaptation.epochs": 3,
    "adaptation.learning_rate": 1e-4,
    "adaptation.lambda": 0.1,
    "adaptation.mixed_target_size": 10000,
    "pseudo.per_domain_n": 12000,
    "evaluation.protocol": "discard-alternatives",
    "evaluation.alpha": 0.05,
    "evaluation.vote_threshold": 0.4,
    "seeds": [1, 2, 3],
}

_VALID_METHODS = ("concat", "prefix", "invariance", "pseudo")
_VALID_MODES = ("specific", "mixed")


T = TypeVar("T")


class PipelineError(ConfigurationError):
    """A workdir or corpus state the config cannot run on (CLI exit 2)."""


def parse_config_file(path: str | Path) -> dict[str, object]:
    """Flat ``key = value`` config with JSON-typed values and includes."""
    return _parse_config(Path(path), ())


def _parse_config(path: Path, including: tuple[Path, ...]) -> dict[str, object]:
    """``parse_config_file`` of ``path``, included from the resolved files in ``including``."""
    resolved = path.resolve()
    if resolved in including:
        raise ConfigurationError(f"{path}: include cycle")
    try:
        text = path.read_text("utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"{path}: not UTF-8 ({exc.reason} at byte {exc.start})") from None
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("include "):
            include = (path.parent / line.split(None, 1)[1]).resolve()
            values.update(_parse_config(include, (*including, resolved)))
            continue
        key, sep, raw = line.partition("=")
        if not sep:
            raise ConfigurationError(f"{path}:{lineno}: expected 'key = value'")
        key = key.strip()
        raw = raw.strip()
        try:
            values[key] = json.loads(raw)
        except json.JSONDecodeError:
            values[key] = raw
    return values


@dataclass(frozen=True)
class PipelineConfig:
    """Validated, fully-defaulted run configuration."""

    values: Mapping[str, object]

    @classmethod
    def from_mapping(cls, mapping: Mapping[str, object]) -> "PipelineConfig":
        unknown = sorted(set(mapping) - set(DEFAULTS))
        if unknown:
            raise ConfigurationError(f"unknown config keys: {unknown}")
        merged = {**DEFAULTS, **mapping}
        config = cls(values=merged)
        config.validate()
        return config

    @classmethod
    def from_file(cls, path: str | Path) -> "PipelineConfig":
        return cls.from_mapping(parse_config_file(path))

    def get(self, key: str):
        return self.values[key]

    def validate(self) -> None:
        # ahead of the type check, so that any value outside (0, 1] gets the range message
        threshold = self.get("evaluation.vote_threshold")
        if not isinstance(threshold, (int, float)) or not 0 < threshold <= 1:
            raise ConfigurationError("evaluation.vote_threshold must be a number in (0, 1]")
        for key, default in DEFAULTS.items():
            value = self.get(key)
            if default is not None and not _has_type_of(value, default):
                raise ConfigurationError(
                    f"{key} = {json.dumps(value)} does not have the type of {json.dumps(default)}"
                )
        choice = self.get("generation.connective_choice")
        if not (choice is None or (type(choice) is int and choice in (0, 1))):
            raise ConfigurationError(
                f"generation.connective_choice must be null, 0 or 1, got {json.dumps(choice)}"
            )
        seeds = self.get("seeds")
        if not seeds:
            raise ConfigurationError("seeds must be a non-empty list")
        if len(set(seeds)) != len(seeds):
            raise ConfigurationError(f"seeds must be distinct, got {json.dumps(seeds)}")
        if min(seeds) < 0:  # numpy's generators take no negative seed
            raise ConfigurationError(f"seeds must be non-negative, got {json.dumps(seeds)}")
        domains = self.get("domains")
        if not domains or len(set(domains)) != len(domains):
            raise ConfigurationError(
                f"domains must be a non-empty list of distinct names, got {json.dumps(domains)}"
            )
        # each of these would otherwise fail only after training, or, for alpha, mislead
        alpha = self.get("evaluation.alpha")
        if not 0 < alpha < 1:
            raise ConfigurationError(f"evaluation.alpha must be in (0, 1), got {json.dumps(alpha)}")
        for key in ("base.epochs", "adaptation.epochs", "adaptation.lambda", "generation.seed"):
            if not self.get(key) >= 0:
                raise ConfigurationError(f"{key} must be >= 0, got {json.dumps(self.get(key))}")
        for key in (
            "base.learning_rate", "adaptation.learning_rate", "adaptation.mixed_target_size",
            "generation.n_arg1", "pseudo.per_domain_n",
        ):
            if not self.get(key) > 0:
                raise ConfigurationError(f"{key} must be > 0, got {json.dumps(self.get(key))}")
        fixture_specs = {
            spec for spec in (self.get(f"data.{kind}") for kind in _CORPORA)
            if spec.startswith("fixtures:")
        }
        # one fixtures stage builds every corpus at one size
        if len(fixture_specs) > 1 or not fixture_specs <= {"fixtures:tiny", "fixtures:full"}:
            raise ConfigurationError(
                f"fixture specs must be all fixtures:tiny or all fixtures:full: {sorted(fixture_specs)}"
            )
        for method in self.get("adaptation.methods"):
            if method not in _VALID_METHODS:
                raise ConfigurationError(f"unknown adaptation method {method!r}")
        for mode in self.get("adaptation.domain_modes"):
            if mode not in _VALID_MODES:
                raise ConfigurationError(f"unknown domain mode {mode!r}")
        if self.get("generation.template") not in ("DC", "DR"):
            raise ConfigurationError("generation.template must be DC or DR")
        if self.get("generation.include_similarity") and self.get("generation.template") == "DC":
            # the connective map covers only the training labels
            raise ConfigurationError("generation.include_similarity needs generation.template DR")
        if self.get("screening.kind") not in ("strict", "confusion", "combi"):
            raise ConfigurationError("screening.kind must be strict, confusion, or combi")
        if self.get("screening.freq_scope") not in ("inter-sentential-only", "all"):
            raise ConfigurationError("screening.freq_scope must be inter-sentential-only or all")
        cmap = self.get("screening.cmap")
        if self.get("screening.kind") != "strict" and cmap not in ("bundled", "derived"):
            _confusion_map_file(cmap)  # a malformed file fails here, before any stage
        if self.get("generation.include_similarity") and self.get("screening.kind") != "strict":
            # only the strict screen drops every similarity candidate (the classifier never
            # predicts similarity); adaptation trains on the training labels alone
            raise ConfigurationError("generation.include_similarity needs screening.kind strict")
        protocols = [protocol.value for protocol in EvalProtocol]
        if self.get("evaluation.protocol") not in protocols:
            raise ConfigurationError(f"evaluation.protocol must be one of {protocols}")
        try:
            SplitSpec.parse(str(self.get("data.split")))
        except ValueError as exc:
            raise ConfigurationError(f"data.split: {exc}") from None

    def snapshot(self) -> dict[str, object]:
        return dict(sorted(self.values.items()))


def _has_type_of(value: object, default: object) -> bool:
    """Whether ``value`` has the JSON type of ``default``; a bool is not a number."""
    if isinstance(default, list):
        return isinstance(value, list) and all(_has_type_of(v, default[0]) for v in value)
    if isinstance(default, float):
        return type(value) in (int, float)
    return type(value) is type(default)


def _digest_bytes(payload: bytes) -> str:
    return hashlib.sha256(payload).hexdigest()


def digest_path(path: Path) -> str:
    """Content digest of a file, or of a directory's sorted file table."""
    if path.is_file():
        return _digest_bytes(path.read_bytes())
    if path.is_dir():
        table = []
        for file in sorted(path.rglob("*")):
            if file.is_file():
                table.append(f"{file.relative_to(path)}:{_digest_bytes(file.read_bytes())}")
        return _digest_bytes("\n".join(table).encode())
    raise PipelineError(f"artifact missing: {path}")


def _overlaps(a: Path, b: Path) -> bool:
    """Whether one path is the other or lies under it, compared as spelled.

    String prefixes: ``Path.parents`` builds a path object per level, and this
    runs for every memo entry and output before every action.
    """
    a, b = str(a), str(b)
    return a == b or a.startswith(b + os.sep) or b.startswith(a + os.sep)


def _read_manifest(path: Path) -> dict:
    """A stored manifest with the config and stage records a run reads; errors name the file."""
    try:
        stored = json.loads(path.read_text("utf-8"))
    except ValueError as exc:  # not JSON, or not UTF-8
        raise PipelineError(f"{path} is not a run manifest: {exc}") from None
    records = stored.get("stages") if isinstance(stored, dict) else None
    if not isinstance(records, dict) or not isinstance(stored.get("config"), dict) or not all(
        isinstance(r, dict) and isinstance(r.get("digest"), str)
        and isinstance(r.get("outputs"), dict)
        for r in records.values()
    ):
        raise PipelineError(f"{path} is not a run manifest: a config or stage record is malformed")
    return stored


@contextmanager
def _sole_writer(workdir: Path) -> Iterator[None]:
    """Hold an exclusive ``flock`` on the workdir directory itself; adds no file.

    The kernel drops the lock with the descriptor, so a killed run leaves none behind.
    """
    fd = os.open(workdir, os.O_RDONLY)
    try:
        try:
            fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        except BlockingIOError:
            raise PipelineError(f"workdir {workdir} is in use by another drsynth run") from None
        yield
    finally:
        os.close(fd)


class RunManifest:
    """Per-stage digests and outputs; wall clock, faults and sys time excluded from identity.

    Stage records survive config changes: every stage digest embeds its own
    config slice, so only the stages whose slice (or inputs) actually moved
    re-run. Stages that fall out of the plan are pruned at the end of a run.
    """

    def __init__(self, path: Path, config_snapshot: dict):
        self.path = path
        self.data: dict = {"config": config_snapshot, "stages": {}}
        if path.exists():
            stored = _read_manifest(path)
            if stored["config"] != config_snapshot:
                logger.info("config changed; stale stages will re-run or be pruned")
            self.data["stages"] = stored["stages"]

    def save(self) -> None:
        write_json(self.path, self.data)

    def record_stage(
        self, name: str, digest: str, outputs: dict[str, str], wall_clock: float,
        minflt: int, sys_s: float,
    ) -> None:
        self.data["stages"][name] = {
            "digest": digest,
            "outputs": outputs,
            "wall_clock": round(wall_clock, 6),
            "minflt": minflt,
            "sys_s": round(sys_s, 6),
        }
        self.save()

    def prune_except(self, touched: Sequence[str]) -> None:
        keep = set(touched)
        stale = [name for name in self.data["stages"] if name not in keep]
        for name in stale:
            del self.data["stages"][name]
        if stale:
            logger.info("pruned %d stage records no longer in the plan", len(stale))
            self.save()

    def identity_digest(self) -> str:
        """Digest over everything except timing and the workdir location."""
        stripped = {
            "config": {k: v for k, v in self.data["config"].items() if k != "workdir"},
            "stages": {
                name: {"digest": s["digest"], "outputs": s["outputs"]}
                for name, s in self.data["stages"].items()
            },
        }
        return _digest_bytes(json.dumps(stripped, sort_keys=True).encode())


@dataclass(frozen=True)
class Stage:
    """One row of the stage table.

    ``action(cfg, stage, store)`` is called with exactly the ``config_keys``
    slice of the config, the same slice the stage digest covers, with this row
    and with the run's ``Store``: it reads only ``inputs`` and writes only
    ``outputs`` (plus side files named beside an output, outside every digest).
    """

    name: str
    config_keys: tuple[str, ...]
    inputs: Mapping[str, Path]
    outputs: Mapping[str, Path]
    action: Callable[[Mapping[str, object], "Stage", "Store"], None]

    @property
    def kind(self) -> str:
        """``adapt:prefix-mixed-syn:seed1`` -> ``adapt``."""
        return self.name.split(":", 1)[0]


_CORPORA = ("source", "target", "raw")
# config slices of the stages whose key lists do not fit on their table row
_GENERATE_KEYS = (
    "domains", "generation.backends", "generation.template", "generation.include_similarity",
    "generation.n_arg1", "generation.seed", "generation.connective_choice",
)
_EVAL_KEYS = ("domains", "evaluation.protocol", "evaluation.vote_threshold")
_REPORT_KEYS = (
    "domains", "seeds", "adaptation.methods", "adaptation.domain_modes",
    "generation.backends", "generation.template", "screening.kind", "evaluation.alpha",
)
_MODEL_NAMES = {"concat": "base+syn", "prefix": "base>syn", "invariance": "base>IV>syn"}


class Store:
    """All state the stages of one run share; nothing in it outlives the run.

    ``digest`` memoizes ``digest_path`` by path. ``read(path, build)`` returns
    ``build(path, store)`` once per (content digest, builder), so every reader
    of a file shares one parse of each content: the rows of a data file, or
    its arrays (``_train_set``, ``_eval_set``).
    """

    def __init__(self) -> None:
        # the per-run feature store: every model trained or loaded here featurizes through it
        self.backend = ReferenceBackend()
        self._digests: dict[Path, str] = {}
        self._built: dict[tuple[str, Callable], object] = {}

    def digest(self, path: Path) -> str:
        """``digest_path`` of a declared path, memoized until ``forget`` drops it."""
        if path not in self._digests:
            self._digests[path] = digest_path(path)
        return self._digests[path]

    def forget(self, outputs: Collection[Path]) -> None:
        """Drop the digests of every path that overlaps one of ``outputs``."""
        for path in [p for p in self._digests if any(_overlaps(p, o) for o in outputs)]:
            del self._digests[path]

    def read(self, path: Path, build: Callable[[Path, Store], T]) -> T:
        """``build(path, self)``, built once per content digest; callers must not mutate it."""
        key = (self.digest(path), build)
        if key not in self._built:
            self._built[key] = build(path, self)
        return self._built[key]

    def hand_over(self, path: Path, build: Callable[[Path, Store], T], value: T) -> None:
        """Cache ``value`` (what ``build`` makes of the file just written) under its digest."""
        self._built[(self.digest(path), build)] = value


def stages(config: PipelineConfig, workdir: Path) -> list[Stage]:
    """The ordered stage table of ``config``; workdir paths are built only here."""
    path = workdir.joinpath
    seeds = [int(s) for s in config.get("seeds")]
    methods = list(config.get("adaptation.methods"))
    specs = {kind: str(config.get(f"data.{kind}")) for kind in _CORPORA}
    corpora = {
        kind: path(f"data/{kind}.jsonl") if spec.startswith("fixtures:") else Path(spec)
        for kind, spec in specs.items()
    }
    train, dev = path("data/train.jsonl"), path("data/dev.jsonl")
    eval_data, raw = path("data/eval.jsonl"), path("data/raw-canonical.jsonl")
    candidates = path("synthetic/candidates.jsonl")
    screened = path("synthetic/screened.jsonl")
    labeled = path("pseudo/labeled.jsonl")
    base = {seed: path(f"models/base-seed{seed}") for seed in seeds}

    table: list[Stage] = []
    built = [kind for kind, spec in specs.items() if spec.startswith("fixtures:")]
    if built:  # validate made every fixture spec name one size
        table.append(Stage(
            "fixtures", (f"data.{built[0]}", "data.fixture_seed", "domains"), {},
            {kind: corpora[kind] for kind in built}, _fixtures,
        ))
    table.append(Stage(
        "ingest", ("data.split",), corpora,
        {"train": train, "dev": dev, "eval": eval_data, "raw": raw}, _ingest,
    ))
    for seed in seeds:
        table.append(Stage(
            f"train-base:seed{seed}", ("base.epochs", "base.learning_rate"),
            {"train": train, "dev": dev}, {"model": base[seed]},
            partial(_train_base, seed=seed),
        ))
    if any(method != "pseudo" for method in methods):
        table.append(Stage(
            "generate", _GENERATE_KEYS, {"raw": raw}, {"candidates": candidates}, _generate,
        ))
        screen_keys = ("domains", "screening.kind")
        screen_inputs = {"candidates": candidates, "base": base[seeds[0]]}
        kind = ScreenKind(config.get("screening.kind"))
        cmap = str(config.get("screening.cmap"))
        if kind is not ScreenKind.STRICT:
            screen_keys += ("screening.cmap",)
            if cmap not in ("bundled", "derived"):
                screen_inputs["cmap"] = Path(cmap)
        if kind is ScreenKind.COMBI:  # adjacency and labels feed the frequency table
            screen_keys += ("screening.freq_scope",)
            screen_inputs["train"] = train
        table.append(Stage(
            "screen", screen_keys, screen_inputs,
            {"screened": screened, "report": path("synthetic/screening-report.json")},
            _screen,
        ))
    if "pseudo" in methods:
        table.append(Stage(
            "pseudo-label", ("domains", "pseudo.per_domain_n", "generation.seed"),
            {"raw": raw, "base": base[seeds[0]]}, {"labeled": labeled}, _pseudo_label,
        ))
    # the model directories each (variant, mode) is scored on; the baseline is the base model
    models: dict[tuple[str, str | None], dict[int, Path]] = {("baseline", None): base}
    for method, mode in _variants(config.values):
        variant = _variant_id(method, mode)
        models[(variant, mode)] = {seed: path(f"models/{variant}-seed{seed}") for seed in seeds}
        from_scratch = method in ("concat", "pseudo")
        scale = "base" if from_scratch else "adaptation"
        adapt_keys = ("domains", f"{scale}.epochs", f"{scale}.learning_rate")
        if method == "invariance":
            adapt_keys += ("adaptation.lambda",)
        if mode == "mixed":
            adapt_keys += ("adaptation.mixed_target_size",)
        for seed in seeds:
            adapt_inputs = {"data": labeled if method == "pseudo" else screened}
            if not from_scratch:
                adapt_inputs["base"] = base[seed]
            if method != "prefix":  # prefix adaptation trains on the pool alone
                adapt_inputs["train"] = train
            table.append(Stage(
                f"adapt:{variant}:seed{seed}", adapt_keys, adapt_inputs,
                {"model": models[(variant, mode)][seed]},
                partial(_adapt, method=method, mode=mode, seed=seed),
            ))
    for (variant, mode), directories in models.items():
        for seed, model in directories.items():
            table.append(Stage(
                f"evaluate:{variant}:seed{seed}", _EVAL_KEYS, {"model": model, "eval": eval_data},
                {"eval": path(f"eval/{variant}-seed{seed}.json"),
                 "predictions": path(f"eval/{variant}-seed{seed}-predictions.jsonl")},
                partial(_evaluate, seed=seed, mode=mode),
            ))
    table.append(Stage(
        "report", _REPORT_KEYS,
        {stage.name: stage.outputs["eval"] for stage in table if stage.kind == "evaluate"},
        {"table": path("results.txt"), "tsv": path("results.tsv")},
        _report,
    ))
    return table


def _execute(config: PipelineConfig, manifest: RunManifest, store: Store, stage: Stage) -> None:
    """Run one stage unless its digest matches and its outputs are intact."""
    config_slice = {key: config.get(key) for key in stage.config_keys}
    payload = {
        "name": stage.name,
        "config": config_slice,
        "inputs": {key: store.digest(path) for key, path in sorted(stage.inputs.items())},
    }
    digest = _digest_bytes(json.dumps(payload, sort_keys=True).encode())
    existing = manifest.data["stages"].get(stage.name)
    if existing and existing["digest"] == digest:
        stale = [
            key
            for key, path in stage.outputs.items()
            if not path.exists() or store.digest(path) != existing["outputs"].get(key)
        ]
        if not stale:
            logger.info("stage %s: up to date, skipping", stage.name)
            return
        logger.warning("stage %s outputs %s stale or corrupted; re-running", stage.name, stale)
    logger.info("stage %s: running", stage.name)
    store.forget(stage.outputs.values())
    started, usage = time.perf_counter(), resource.getrusage(resource.RUSAGE_SELF)
    stage.action(config_slice, stage, store)
    used = resource.getrusage(resource.RUSAGE_SELF)
    outputs = {key: store.digest(path) for key, path in stage.outputs.items()}
    manifest.record_stage(
        stage.name, digest, outputs, time.perf_counter() - started,
        minflt=used.ru_minflt - usage.ru_minflt, sys_s=used.ru_stime - usage.ru_stime,
    )


def run_experiment(
    config: PipelineConfig, workdir: str | Path | None = None, dry_run: bool = False,
    kinds: Collection[str] | None = None,
) -> RunManifest:
    """Execute the stage table, or only its stages of ``kinds`` (then nothing is pruned).

    A dry run only stores the plan in ``manifest.data["plan"]``. Any other run
    holds the workdir's one-writer lock and shares one ``Store`` among its stages.
    """
    workdir = Path(workdir if workdir is not None else str(config.get("workdir")))
    table = [stage for stage in stages(config, workdir) if kinds is None or stage.kind in kinds]
    if not table:
        raise PipelineError(f"this config has no {' or '.join(sorted(kinds))} stage")
    manifest = RunManifest(workdir / "run-manifest.json", config.snapshot())
    if dry_run:  # creates nothing, but fails where a real run could not create the workdir
        nearest = next(path for path in (workdir, *workdir.parents) if path.exists())
        if not nearest.is_dir():
            raise PipelineError(f"cannot create workdir {workdir}: {nearest} is not a directory")
        manifest.data["plan"] = [stage.name for stage in table]
        logger.info("dry run plan: %s", manifest.data["plan"])
        return manifest
    try:
        workdir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # e.g. the workdir, or one of its parents, is a regular file
        raise PipelineError(f"cannot create workdir {workdir}: {exc.strerror}") from None
    with _sole_writer(workdir):
        manifest.save()
        store = Store()
        for stage in table:
            _execute(config, manifest, store, stage)
        if kinds is None:
            manifest.prune_except([stage.name for stage in table])
    return manifest


# --- stage actions: config only from ``cfg``, files only from the stage's paths ---


def _fixtures(cfg: Mapping[str, object], stage: Stage, store: Store) -> None:
    """Build the corpora whose ``data.*`` key names a fixture spec, and only those."""
    seed, domains, out = int(cfg["data.fixture_seed"]), cfg["domains"], stage.outputs
    full = cfg[stage.config_keys[0]] == "fixtures:full"  # the first data.* key with a fixture spec
    if "source" in out:
        counts = fixtures.SOURCE_LABEL_COUNTS if full else fixtures.tiny_source_counts()
        fixtures.build_source_corpus(out["source"], counts=counts, seed=seed)
    if "target" in out:
        if full:
            fixtures.build_target_corpus(out["target"], domains=domains, seed=seed + 1)
        else:
            fixtures.build_target_corpus(
                out["target"],
                counts=fixtures.tiny_target_counts(per_domain=4),
                domains=domains,
                seed=seed + 1,
                no_relation_extra=3,
            )
    if "raw" in out:
        docs_per_domain, sentences_per_doc = (8, 60) if full else (3, 16)
        fixtures.build_raw_corpus(
            out["raw"],
            domains=domains,
            docs_per_domain=docs_per_domain,
            sentences_per_doc=sentences_per_doc,
            seed=seed + 2,
        )


def _ingest(cfg: Mapping[str, object], stage: Stage, store: Store) -> None:
    corpora, out = stage.inputs, stage.outputs
    ingest = ingest_source_corpus(corpora["source"], SplitSpec.parse(str(cfg["data.split"])))
    # canonicalized copies; sections riding along for round-trips. Each copy
    # parses back to the rows it was written from, so they go to the cache;
    # the train and eval rows go there, and to their side files, as arrays.
    for name, section, instances in (("train", 0, ingest.train), ("dev", 1, ingest.dev)):
        write_records((source_record(inst, section=section) for inst in instances), out[name])
    store.hand_over(out["dev"], _dev_rows, ingest.dev)
    # file rows stay out of the backend's feature memo
    train = training_set(ingest.train, store.backend, memo=False)
    # the train rows live on as arrays: free the parsed ones before the eval rows
    # and their tagged copies are built, which lowers the run's peak memory
    del ingest
    write_side_file(out["train"], train, store.digest(out["train"]))
    store.hand_over(out["train"], _train_set, train)
    target = ingest_target_corpus(corpora["target"])
    write_records((target_record(i) for i in target), out["eval"])
    arrays = _eval_arrays(target, store.backend)
    write_side_file(out["eval"], arrays, store.digest(out["eval"]))
    store.hand_over(out["eval"], _eval_set, arrays)
    docs = ingest_raw_corpus(corpora["raw"])
    write_raw_corpus(docs, out["raw"])
    store.hand_over(out["raw"], _raw_docs, docs)


def _train_base(cfg: Mapping[str, object], stage: Stage, store: Store, seed: int) -> None:
    train = store.read(stage.inputs["train"], _train_set)
    dev_set = store.read(stage.inputs["dev"], _dev_rows)
    config = TrainingConfig(
        epochs=int(cfg["base.epochs"]),
        learning_rate=float(cfg["base.learning_rate"]),
        seed=seed,
    )
    model, confusion = train_base(train, dev_set, config, store.backend)
    model_dir = stage.outputs["model"]
    save_model(model, model_dir)
    confusion_payload = {  # key order comes from write_json's sort_keys
        true.level2: {pred.level2: n for pred, n in row.items()} for true, row in confusion.items()
    }
    write_json(model_dir / "dev-confusion.json", confusion_payload)


def _generate(cfg: Mapping[str, object], stage: Stage, store: Store) -> None:
    docs = store.read(stage.inputs["raw"], _raw_docs)
    seed = int(cfg["generation.seed"])
    n_arg1 = int(cfg["generation.n_arg1"])
    sentences_by_domain: dict[str, list[str]] = {}
    for domain in cfg["domains"]:
        pool = [s for d in docs if d.domain == domain for s in d.sentences]
        if not pool:
            raise PipelineError(f"no raw sentences for domain {domain}")
        rng = random.Random(seed + hash_domain(domain))
        sentences_by_domain[domain] = rng.sample(pool, min(n_arg1, len(pool)))
    out = stage.outputs["candidates"]
    result = generate_batch(
        sentences_by_domain,
        generation_label_set(bool(cfg["generation.include_similarity"])),
        _generation_backends(cfg),
        PromptTemplateKind(cfg["generation.template"]),
        fixtures.example_pool(cfg["domains"]),
        seed=seed,
        cache=GenerationCache(out.with_name("cache.jsonl")),
        connective_choice=cfg["generation.connective_choice"],
    )
    write_synthetic_records(result.instances, out)
    write_text(
        out.with_name("failures.json"),
        json.dumps([f._asdict() for f in result.failures], indent=2) + "\n",
    )
    stats = {
        "requests": len(result.instances) + len(result.failures),
        "cache_hits": result.cache_hits,
        "rejected": len(result.failures),
    }
    # telemetry, not a declared output: cache state stays out of the manifest identity
    write_json(out.with_name("generation-stats.json"), stats)


def _screen(cfg: Mapping[str, object], stage: Stage, store: Store) -> None:
    candidates = read_synthetic_records(stage.inputs["candidates"])
    base = load_model(stage.inputs["base"], store.backend)
    predicted, _ = batch_predict(base, [c.pair for c in candidates])
    kind = ScreenKind(cfg["screening.kind"])
    cmap = freq = None
    if kind in (ScreenKind.CONFUSION, ScreenKind.COMBI):
        cmap = _confusion_map(str(cfg["screening.cmap"]), stage.inputs)
    if kind is ScreenKind.COMBI:
        train = store.read(stage.inputs["train"], _train_set)
        freq = frequency_table(train, store.backend.labels, scope=str(cfg["screening.freq_scope"]))
    kept, report = screen_batch(candidates, predicted, kind, cmap, freq)
    write_synthetic_records(kept, stage.outputs["screened"])
    report_path = stage.outputs["report"]
    write_text(report_path, report_to_json(report) + "\n")
    write_text(
        report_path.with_name("screening-report.txt"),
        render_screening_report(report, cfg["domains"]),
    )
    write_json(
        report_path.with_name("screening-meta.json"),
        {"base_artifact_id": base.artifact_id, "screen": kind.value},
    )


def _pseudo_label(cfg: Mapping[str, object], stage: Stage, store: Store) -> None:
    instances = pseudo_label_corpus(
        store.read(stage.inputs["raw"], _raw_docs),
        load_model(stage.inputs["base"], store.backend),
        per_domain_n=int(cfg["pseudo.per_domain_n"]),
        seed=int(cfg["generation.seed"]),
        domains=cfg["domains"],
    )
    write_pseudo_records(instances, stage.outputs["labeled"])


def _adapt(
    cfg: Mapping[str, object], stage: Stage, store: Store, method: str, mode: str, seed: int
) -> None:
    """Train the variant's models: one per domain (``specific``) or one tagged ``mixed``."""
    model_dir = stage.outputs["model"]
    remove_artifact(model_dir)
    pool = store.read(stage.inputs["data"], _pseudo_rows if method == "pseudo" else _screened_rows)
    by_domain = {domain: [i for i in pool if i.domain == domain] for domain in cfg["domains"]}
    scale = "base" if method in ("concat", "pseudo") else "adaptation"
    loss = LossSpec()  # plain CE records the default lambda, as base training does
    if method == "invariance":
        loss = LossSpec(kind=LossKind.CE_MINUS_IV, lam=float(cfg["adaptation.lambda"]))
    config = TrainingConfig(
        epochs=int(cfg[f"{scale}.epochs"]),
        learning_rate=float(cfg[f"{scale}.learning_rate"]),
        seed=seed,
        loss=loss,
        trainable_groups=("prefix",) if method == "prefix" else ("encoder", "head"),
    )
    base = load_model(stage.inputs["base"], store.backend) if "base" in stage.inputs else None
    train = store.read(stage.inputs["train"], _train_set) if "train" in stage.inputs else None

    def adapt(instances: list, out: str) -> None:
        target_data = training_set(instances, store.backend)
        if method == "prefix":
            model = adapt_prefix(base, target_data, config)
        elif method == "invariance":
            model = adapt_invariance(base, target_data, train, config)
        else:
            model = adapt_concat(train, target_data, config, store.backend)
        save_model(model, model_dir / out)

    if mode == "specific":
        for domain, domain_data in by_domain.items():
            if not domain_data:
                raise PipelineError(f"no {method} data for domain {domain}")
            adapt(domain_data, domain)
    else:
        tagged_pool = [
            prepend_domain_token(inst) for pool in by_domain.values() for inst in pool
        ]
        target_size = min(int(cfg["adaptation.mixed_target_size"]), len(tagged_pool))
        adapt(stratified_downsample(tagged_pool, target_size, seed=seed), "mixed")


def _evaluate(
    cfg: Mapping[str, object], stage: Stage, store: Store, seed: int, mode: str | None
) -> None:
    """Score one model set; write its metric reports and predictions.

    ``mode`` None is the baseline: one untagged base model for every domain.
    """
    variant = stage.name.split(":")[1]
    directory, domains = stage.inputs["model"], cfg["domains"]
    if mode == "specific":
        models = {domain: load_model(directory / domain, store.backend) for domain in domains}
    else:
        shared = load_model(directory if mode is None else directory / "mixed", store.backend)
        models = dict.fromkeys(domains, shared)
    # the pool rows each model trained on; concat and pseudo count them apart from the source
    sizes = {
        domain: 0 if mode is None else model.manifest.get("n_synthetic", model.manifest["n_instances"])
        for domain, model in models.items()
    }
    protocol = EvalProtocol(cfg["evaluation.protocol"])
    arrays = store.read(stage.inputs["eval"], _eval_set)
    features = arrays.tagged if mode == "mixed" else arrays.untagged
    gold, majority = gold_label_masks(arrays.votes, float(cfg["evaluation.vote_threshold"]))
    reports: dict[str, dict] = {}
    prediction_rows: list[dict] = []
    for domain in domains:
        rows = np.flatnonzero(arrays.domain == domain)
        if not rows.size:
            raise PipelineError(f"no evaluation items for domain {domain}")
        predicted, _ = predict_features(models[domain], features[rows])
        prediction_rows.extend(
            {"predicted": label.level2, "row": row} for row, label in zip(rows.tolist(), predicted)
        )
        batch = ScoreBatch(
            np.array([label_order(label) for label in predicted], dtype=np.intp),
            gold[rows],
            majority[rows],
        )
        reports[domain] = report_payload(score(batch, protocol, run_id=f"seed{seed}"))
    write_json(
        stage.outputs["eval"],
        {"variant": variant, "seed": seed, "sizes": dict(sizes), "reports": reports},
    )
    write_records(prediction_rows, stage.outputs["predictions"])


def _report(cfg: Mapping[str, object], stage: Stage, store: Store) -> None:
    domains = cfg["domains"]
    llm = ",".join(str(b) for b in cfg["generation.backends"])
    screen = ScreenKind(cfg["screening.kind"]).short_name
    variants = [VariantMeta(variant_id="baseline", model="baseline", baseline=True)]
    for method, mode in _variants(cfg):
        variant_id = _variant_id(method, mode)
        if method == "pseudo":
            variants.append(VariantMeta(variant_id, model="base+pseudo", config=mode))
        else:
            variants.append(VariantMeta(
                variant_id, model=_MODEL_NAMES[method], llm=llm,
                template=str(cfg["generation.template"]), screen=screen, config=mode,
            ))

    # the eval files come in table order, so each cell's per-seed percents in seed order
    runs: dict[tuple[str, str, str], list[float]] = {}
    sizes: dict[tuple[str, str], int] = {}
    for path in stage.inputs.values():
        payload = json.loads(path.read_text("utf-8"))
        for domain in domains:
            report = payload["reports"][domain]
            for metric in METRICS:
                runs.setdefault((payload["variant"], domain, metric), []).append(
                    float(Fraction(*report[metric])) * 100.0
                )
            sizes[(payload["variant"], domain)] = payload["sizes"][domain]
    significance: dict[tuple[str, str, str], SignificanceResult] = {}
    if len(cfg["seeds"]) >= 2:
        alpha = float(cfg["evaluation.alpha"])
        for meta in variants[1:]:  # every variant against the baseline
            for domain in domains:
                for metric in METRICS:
                    significance[(meta.variant_id, domain, metric)] = t_test(
                        runs[(meta.variant_id, domain, metric)],
                        runs[("baseline", domain, metric)],
                        alpha,
                    )

    table = render_results_table(variants, runs, significance, sizes, domains)
    write_text(stage.outputs["table"], table)
    write_text(stage.outputs["tsv"], results_tsv(variants, runs, significance, sizes, domains))


# split specs that route every section to one bucket, for canonical re-reads
_ALL_TRAIN = SplitSpec(frozenset(range(0, 100)), frozenset())
_ALL_DEV = SplitSpec(frozenset(), frozenset(range(0, 100)))


def _train_rows(path: Path) -> list:
    return ingest_source_corpus(path, _ALL_TRAIN).train


# The builders ``Store.read`` calls, as ``build(path, store)``.


def _dev_rows(path: Path, store: Store) -> list:
    return ingest_source_corpus(path, _ALL_DEV).dev


def _raw_docs(path: Path, store: Store) -> list:
    return ingest_raw_corpus(path)


def _screened_rows(path: Path, store: Store) -> list:
    return read_synthetic_records(path)


def _pseudo_rows(path: Path, store: Store) -> list:
    return read_pseudo_records(path)


def _train_set(path: Path, store: Store) -> TrainingSet:
    """The rows of a canonical train file: its side file's, if that is current, else
    parsed and featurized here as ``ingest`` featurizes them, and written to its side file."""
    train = read_side_file(path, TrainingSet, store.digest(path), store.backend.feature_dim)
    if train is None:
        train = training_set(_train_rows(path), store.backend, memo=False)
        write_side_file(path, train, store.digest(path))
    return train


def _eval_set(path: Path, store: Store) -> EvalArrays:
    """The rows of a canonical eval file: its side file's, if that is current, else
    parsed and built here as ``ingest`` builds them, and written to its side file."""
    arrays = read_side_file(path, EvalArrays, store.digest(path), store.backend.feature_dim)
    if arrays is None:
        arrays = _eval_arrays(ingest_target_corpus(path), store.backend)
        write_side_file(path, arrays, store.digest(path))
    return arrays


def _eval_arrays(rows: Sequence[CrowdAnnotatedInstance], backend: ReferenceBackend) -> EvalArrays:
    """The eval rows as ``EvalArrays``. The tagged matrix featurizes each pair with its
    Arg1 tagged by ``prepend_domain_token``, the rule the ``mixed`` pools are tagged by."""
    return EvalArrays(
        untagged=backend.featurize_rows([row.pair for row in rows]),
        tagged=backend.featurize_rows([prepend_domain_token(row).pair for row in rows]),
        votes=vote_matrix(rows),
        domain=np.array([row.domain for row in rows], dtype=str),
    )


def hash_domain(domain: str) -> int:
    return int.from_bytes(hashlib.sha256(domain.encode()).digest()[:4], "big")


def _confusion_map(choice: str, inputs: Mapping[str, Path]) -> ConfusionMap:
    """The screen's map: bundled, derived from the base model's dev confusion, or a file."""
    if choice == "bundled":
        return load_confusion_map()
    if choice == "derived":
        payload = json.loads((inputs["base"] / "dev-confusion.json").read_text("utf-8"))
        matrix = {
            resolve_label(true): {resolve_label(p): n for p, n in row.items()}
            for true, row in payload.items()
        }
        return derive_confusion_map(matrix)
    return _confusion_map_file(str(inputs["cmap"]))


def _confusion_map_file(path: str) -> ConfusionMap:
    """A ``screening.cmap`` file; a malformed one is a config error that names it."""
    try:
        return load_confusion_map(path)
    except (OSError, ValueError, LabelError) as exc:
        raise ConfigurationError(f"screening.cmap file {path}: {exc}") from None


def _variants(cfg: Mapping[str, object]) -> list[tuple[str, str]]:
    return [
        (method, mode)
        for method in cfg["adaptation.methods"]
        for mode in cfg["adaptation.domain_modes"]
    ]


def _variant_id(method: str, mode: str) -> str:
    data = "pseudo" if method == "pseudo" else "syn"
    return f"{method}-{mode}-{data}"


def _generation_backends(cfg: Mapping[str, object]) -> list[Backend]:
    backends: list[Backend] = []
    decoding = DecodingParams(seed=int(cfg["generation.seed"]))
    for name in map(str, cfg["generation.backends"]):
        if name.startswith("mock"):
            backends.append(MockBackend(name=name, decoding=decoding))
            continue
        endpoint = os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ConfigurationError(f"backend {name!r} needs {ENDPOINT_ENV} set to an endpoint URL")
        descriptor = BackendDescriptor(name=name, endpoint=endpoint, decoding=decoding)
        backends.append(HTTPBackend(descriptor))
    return backends


def resume(manifest_path: str | Path) -> RunManifest:
    """Re-run a workdir; stages with intact digests are skipped."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "run-manifest.json"
    stored = _read_manifest(manifest_path)
    return run_experiment(PipelineConfig.from_mapping(stored["config"]), manifest_path.parent)
