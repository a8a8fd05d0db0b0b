"""Experiment orchestration: ingest, train, generate, screen, adapt, evaluate.

A run is driven by a flat key-path config file (``key = value`` lines with
JSON-typed values and ``include`` support). ``ExperimentRunner.stages()``
turns a config into one ordered table of ``Stage`` records; ``run``,
``resume``, ``--dry-run`` and every CLI stage verb walk that table. A stage
digest covers the stage's name, config slice and input digests. An action is
called as ``action(cfg, stage)`` with exactly that slice, so an undeclared
config key fails as ``KeyError``; it reads only ``stage.inputs`` and writes
only ``stage.outputs``, so ``stages()`` alone decides the workdir layout.
Re-running a workdir skips every stage whose digest matches and whose
outputs are intact: a changed screening setting re-runs screening and
everything downstream while reusing the generation cache.

The stage table, in order (``S`` ranges over ``seeds``, ``V`` over the
``adaptation.methods`` x ``adaptation.domain_modes`` variants), with the
outputs under the workdir:

  fixtures               data/{source,target,raw}.jsonl (``fixtures:`` corpora only)
  ingest                 data/{train,dev,eval,raw-canonical}.jsonl
  train-base:seedS       models/base-seedS/ (with dev-confusion.json)
  generate               synthetic/candidates.jsonl (unless every method is pseudo)
  screen                 synthetic/screened.jsonl, screening-report.json
  pseudo-label           pseudo/labeled.jsonl (if pseudo is a method)
  evaluate:baseline:seedS  eval/baseline-seedS.json, -predictions.jsonl
  adapt:V:seedS          models/V-seedS/, eval/V-seedS.json, -predictions.jsonl
  report                 results.txt (stars mark significance), results.tsv

The screen also declares ``data/train.jsonl`` with ``screening.kind =
"combi"`` (the frequency table counts its labels and adjacency) and a
``screening.cmap`` file when the screen uses a map. ``run-manifest.json``
records each stage's digests and wall clock. Side files, named beside a
declared output and outside every digest: ``synthetic/cache.jsonl``,
``failures.json`` and ``generation-stats.json`` beside the candidates, and
``screening-report.txt`` and ``screening-meta.json`` beside the report.

A run hashes each declared file or directory at most once: one memo of
content digests serves the input digests, the skip checks and the digests
recorded after an action, and the entries that overlap a stage's outputs are
dropped before its action runs. The memo lives for one ``run()`` call, so a
workdir edited between runs is hashed in full again. A non-dry run holds an
exclusive ``flock`` on the workdir directory; a second writer fails with
``PipelineError`` (CLI exit 2) before it touches the workdir.

Within one runner, every stage shares one ``ReferenceBackend`` (so each
distinct pair is featurized once per run) and one parsed copy of each
canonical ``data/`` file and of the screened and pseudo-labeled pools, keyed
by the file's content digest: a file that a stage rewrites is parsed again.
``ingest`` hands the rows it writes to that cache, keyed by the digest of the
written bytes, so a ``cold`` run parses each input corpus once. Each eval
item's gold set and majority label are derived once per eval content digest
and vote threshold and shared by every evaluating stage.
"""

from __future__ import annotations

import fcntl
import hashlib
import json
import logging
import os
import random
import shutil
import time
from contextlib import contextmanager
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Collection, Iterator, Mapping, NamedTuple, Sequence, TypeVar

from . import fixtures
from .adaptation import (
    ConfigurationError,
    LossKind,
    LossSpec,
    Model,
    TrainingConfig,
    adapt_concat,
    adapt_invariance,
    adapt_prefix,
    batch_predict,
    domain_token_literal,
    load_model,
    prepend_domain_token,
    save_model,
    stratified_downsample,
    train_base,
)
from .evaluation import (
    EvalProtocol,
    MetricReport,
    PredictionRecord,
    SignificanceResult,
    VariantMeta,
    aggregate_runs,
    render_results_table,
    report_from_payload,
    report_payload,
    results_tsv,
    score,
    t_test,
)
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
    gold_label_set,
    ingest_raw_corpus,
    ingest_source_corpus,
    ingest_target_corpus,
    majority_label,
    frequency_table_from_instances,
    source_record,
    target_record,
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
    RelationLabel,
    derive_confusion_map,
    generation_label_set,
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
    "generation.mock_fidelity": 0.85,
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
    path = Path(path)
    values: dict[str, object] = {}
    for lineno, line in enumerate(path.read_text("utf-8").splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("include "):
            include = (path.parent / line.split(None, 1)[1]).resolve()
            values.update(parse_config_file(include))
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
        seeds = self.get("seeds")
        if not isinstance(seeds, list) or not seeds:
            raise ConfigurationError("seeds must be a non-empty list")
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
        if self.get("generation.include_similarity") and self.get("screening.kind") != "strict":
            # only the strict screen drops every similarity candidate (the classifier never
            # predicts similarity); adaptation trains on the training labels alone
            raise ConfigurationError("generation.include_similarity needs screening.kind strict")
        threshold = self.get("evaluation.vote_threshold")
        if not isinstance(threshold, (int, float)) or not 0 < threshold <= 1:
            raise ConfigurationError("evaluation.vote_threshold must be a number in (0, 1]")
        EvalProtocol(self.get("evaluation.protocol"))
        SplitSpec.parse(str(self.get("data.split")))

    def snapshot(self) -> dict[str, object]:
        return dict(sorted(self.values.items()))


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
    """Per-stage digests and outputs; wall-clock excluded from identity.

    Stage records survive config changes: every stage digest embeds its own
    config slice, so only the stages whose slice (or inputs) actually moved
    re-run. Stages that fall out of the plan are pruned at the end of a run.
    """

    def __init__(self, path: Path, config_snapshot: dict):
        self.path = path
        self.data: dict = {"config": config_snapshot, "stages": {}}
        if path.exists():
            stored = json.loads(path.read_text("utf-8"))
            if stored.get("config") != config_snapshot:
                logger.info("config changed; stale stages will re-run or be pruned")
            self.data["stages"] = stored.get("stages", {})

    def save(self) -> None:
        write_json(self.path, self.data)

    def stage(self, name: str) -> dict | None:
        return self.data["stages"].get(name)

    def record_stage(
        self, name: str, digest: str, outputs: dict[str, str], wall_clock: float
    ) -> None:
        self.data["stages"][name] = {
            "digest": digest,
            "outputs": outputs,
            "wall_clock": round(wall_clock, 6),
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

    ``action(cfg, stage)`` is called with exactly the ``config_keys`` slice of
    the config, the same slice the stage digest covers, and with this row: it
    reads only ``inputs`` and writes only ``outputs`` (plus side files named
    beside an output, outside every digest).
    """

    name: str
    config_keys: tuple[str, ...]
    inputs: Mapping[str, Path]
    outputs: Mapping[str, Path]
    action: Callable[[Mapping[str, object], "Stage"], None]

    @property
    def kind(self) -> str:
        """``adapt:prefix-mixed-syn:seed1`` -> ``adapt``."""
        return self.name.split(":", 1)[0]


_CORPORA = ("source", "target", "raw")
# config slices of the stages whose key lists do not fit on their table row
_GENERATE_KEYS = (
    "domains", "generation.backends", "generation.template", "generation.include_similarity",
    "generation.n_arg1", "generation.seed", "generation.connective_choice",
    "generation.mock_fidelity",
)
_EVAL_KEYS = ("domains", "evaluation.protocol", "evaluation.vote_threshold")
_ADAPT_KEYS = _EVAL_KEYS + (
    "adaptation.epochs", "adaptation.learning_rate", "adaptation.lambda",
    "adaptation.mixed_target_size", "base.epochs", "base.learning_rate",
)
_REPORT_KEYS = (
    "domains", "seeds", "adaptation.methods", "adaptation.domain_modes",
    "generation.backends", "generation.template", "screening.kind", "evaluation.alpha",
)
_MODEL_NAMES = {"concat": "base+syn", "prefix": "base>syn", "invariance": "base>IV>syn"}


class EvalItem(NamedTuple):
    """One eval instance with its gold label set and majority label."""

    instance: CrowdAnnotatedInstance
    gold: frozenset[RelationLabel]
    majority: RelationLabel


class ExperimentRunner:
    """Execute (or resume) the experiment's stage table in a workdir."""

    def __init__(self, config: PipelineConfig, workdir: str | Path | None = None):
        self.config = config
        self.workdir = Path(workdir if workdir is not None else str(config.get("workdir")))
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.manifest = RunManifest(self.workdir / "run-manifest.json", config.snapshot())
        # the per-run feature store: every model trained or loaded here featurizes through it
        self.backend = ReferenceBackend()
        self._parsed: dict[tuple[Path, Callable], tuple[str, object]] = {}
        # (eval file digest, vote threshold) -> each domain's eval items
        self._gold: dict[tuple[str, float], dict[str, list[EvalItem]]] = {}

    def _read_entry(self, path: Path, parse: Callable[[Path], T]) -> tuple[str, T]:
        """The content digest of a file and its ``parse``, parsed once per digest."""
        digest = _digest_bytes(path.read_bytes())
        cached = self._parsed.get((path, parse))
        if cached is None or cached[0] != digest:
            cached = self._parsed[(path, parse)] = (digest, parse(path))
        return cached

    def _read(self, path: Path, parse: Callable[[Path], T]) -> T:
        """``parse`` of a file, parsed once per content digest; callers must not mutate it."""
        return self._read_entry(path, parse)[1]

    def _hand_over(self, path: Path, parse: Callable[[Path], T], rows: T) -> None:
        """Cache ``rows`` as ``parse`` of the file just written from them.

        ``rows`` must equal what ``parse`` returns for the written bytes; they are
        keyed by those bytes' digest, so a later change to the file is parsed again.
        """
        self._parsed[(path, parse)] = (_digest_bytes(path.read_bytes()), rows)

    def _eval_items(self, path: Path, threshold: float) -> dict[str, list[EvalItem]]:
        """Eval items by domain with their gold sets, derived once per eval content and threshold."""
        digest, instances = self._read_entry(path, ingest_target_corpus)
        key = (digest, threshold)
        if key not in self._gold:
            by_domain: dict[str, list[EvalItem]] = {}
            for inst in instances:
                by_domain.setdefault(inst.domain, []).append(EvalItem(
                    inst, frozenset(gold_label_set(inst, threshold)), majority_label(inst)
                ))
            self._gold[key] = by_domain
        return self._gold[key]

    # --- stage table and engine ---------------------------------------------

    def stages(self) -> list[Stage]:
        """The ordered stage table for this runner's config; workdir paths are built only here."""
        path = self.workdir.joinpath
        seeds = [int(s) for s in self.config.get("seeds")]
        methods = list(self.config.get("adaptation.methods"))
        specs = {kind: str(self.config.get(f"data.{kind}")) for kind in _CORPORA}
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

        def eval_outputs(variant: str, seed: int) -> dict[str, Path]:
            return {
                "eval": path(f"eval/{variant}-seed{seed}.json"),
                "predictions": path(f"eval/{variant}-seed{seed}-predictions.jsonl"),
            }

        table: list[Stage] = []
        if any(spec.startswith("fixtures:") for spec in specs.values()):
            table.append(Stage(
                "fixtures", ("data.source", "data.fixture_seed", "domains"), {},
                {kind: path(f"data/{kind}.jsonl") for kind in _CORPORA}, self._fixtures,
            ))
        table.append(Stage(
            "ingest", ("data.split", "domains"), corpora,
            {"train": train, "dev": dev, "eval": eval_data, "raw": raw}, self._ingest,
        ))
        for seed in seeds:
            table.append(Stage(
                f"train-base:seed{seed}", ("base.epochs", "base.learning_rate"),
                {"train": train, "dev": dev}, {"model": base[seed]},
                partial(self._train_base, seed=seed),
            ))
        if any(method != "pseudo" for method in methods):
            table.append(Stage(
                "generate", _GENERATE_KEYS, {"raw": raw}, {"candidates": candidates},
                self._generate,
            ))
            screen_inputs = {"candidates": candidates, "base": base[seeds[0]]}
            kind = ScreenKind(self.config.get("screening.kind"))
            cmap = str(self.config.get("screening.cmap"))
            if kind is ScreenKind.COMBI:  # adjacency and labels feed the frequency table
                screen_inputs["train"] = train
            if kind is not ScreenKind.STRICT and cmap not in ("bundled", "derived"):
                screen_inputs["cmap"] = Path(cmap)
            table.append(Stage(
                "screen", ("domains", "screening.kind", "screening.cmap", "screening.freq_scope"),
                screen_inputs,
                {"screened": screened, "report": path("synthetic/screening-report.json")},
                self._screen,
            ))
        if "pseudo" in methods:
            table.append(Stage(
                "pseudo-label", ("domains", "pseudo.per_domain_n", "generation.seed"),
                {"raw": raw, "base": base[seeds[0]]}, {"labeled": labeled}, self._pseudo_label,
            ))
        for seed in seeds:
            table.append(Stage(
                f"evaluate:baseline:seed{seed}", _EVAL_KEYS,
                {"base": base[seed], "eval": eval_data}, eval_outputs("baseline", seed),
                partial(self._evaluate_baseline, seed=seed),
            ))
        for method, mode in _variants(self.config.values):
            variant = _variant_id(method, mode)
            for seed in seeds:
                table.append(Stage(
                    f"adapt:{variant}:seed{seed}", _ADAPT_KEYS,
                    {"data": labeled if method == "pseudo" else screened, "base": base[seed],
                     "train": train, "eval": eval_data},
                    {"model": path(f"models/{variant}-seed{seed}"), **eval_outputs(variant, seed)},
                    partial(self._adapt, method=method, mode=mode, seed=seed),
                ))
        # the report reads every evaluating stage's metric report
        table.append(Stage(
            "report", _REPORT_KEYS,
            {stage.name: stage.outputs["eval"] for stage in table if "eval" in stage.outputs},
            {"table": path("results.txt"), "tsv": path("results.tsv")},
            self._report,
        ))
        return table

    def _execute(self, stage: Stage, digests: dict[Path, str]) -> None:
        """Run one stage unless its digest matches and its outputs are intact.

        ``digests`` memoizes ``digest_path`` by declared path for one run. Before
        the action runs, every entry that overlaps one of its outputs is dropped,
        so the outputs are hashed afresh after it.
        """

        def hashed(path: Path) -> str:
            if path not in digests:
                digests[path] = digest_path(path)
            return digests[path]

        config_slice = {key: self.config.get(key) for key in stage.config_keys}
        payload = {
            "name": stage.name,
            "config": config_slice,
            "inputs": {key: hashed(path) for key, path in sorted(stage.inputs.items())},
        }
        digest = _digest_bytes(json.dumps(payload, sort_keys=True).encode())
        existing = self.manifest.stage(stage.name)
        if existing and existing["digest"] == digest:
            stale = [
                key
                for key, path in stage.outputs.items()
                if not path.exists() or hashed(path) != existing["outputs"].get(key)
            ]
            if not stale:
                logger.info("stage %s: up to date, skipping", stage.name)
                return
            logger.warning("stage %s outputs %s stale or corrupted; re-running", stage.name, stale)
        logger.info("stage %s: running", stage.name)
        for path in [p for p in digests if any(_overlaps(p, o) for o in stage.outputs.values())]:
            del digests[path]
        started = time.perf_counter()
        stage.action(config_slice, stage)
        outputs = {key: hashed(path) for key, path in stage.outputs.items()}
        self.manifest.record_stage(stage.name, digest, outputs, time.perf_counter() - started)

    def run(self, dry_run: bool = False, kinds: Collection[str] | None = None) -> RunManifest:
        """Execute the stage table, or only its stages of ``kinds`` (then nothing is pruned).

        A dry run only stores the plan in ``manifest.data["plan"]``. Any other run
        holds the workdir's one-writer lock and hashes each declared path at most once.
        """
        stages = [stage for stage in self.stages() if kinds is None or stage.kind in kinds]
        if dry_run:
            self.manifest.data["plan"] = [stage.name for stage in stages]
            logger.info("dry run plan: %s", self.manifest.data["plan"])
            return self.manifest
        with _sole_writer(self.workdir):
            self.manifest.save()
            digests: dict[Path, str] = {}
            for stage in stages:
                self._execute(stage, digests)
            if kinds is None:
                self.manifest.prune_except([stage.name for stage in stages])
        return self.manifest

    # --- stage actions: config only from ``cfg``, files only from the stage's paths ---

    def _fixtures(self, cfg: Mapping[str, object], stage: Stage) -> None:
        seed = int(cfg["data.fixture_seed"])
        out = stage.outputs
        if str(cfg["data.source"]) == "fixtures:full":
            fixtures.build_source_corpus(out["source"], seed=seed)
            fixtures.build_target_corpus(out["target"], seed=seed + 1)
            docs_per_domain, sentences_per_doc = 8, 60
        else:
            fixtures.build_source_corpus(
                out["source"], counts=fixtures.tiny_source_counts(), seed=seed
            )
            fixtures.build_target_corpus(
                out["target"],
                counts=fixtures.tiny_target_counts(per_domain=4),
                domains=cfg["domains"],
                seed=seed + 1,
                no_relation_extra=3,
            )
            docs_per_domain, sentences_per_doc = 3, 16
        fixtures.build_raw_corpus(
            out["raw"],
            domains=cfg["domains"],
            docs_per_domain=docs_per_domain,
            sentences_per_doc=sentences_per_doc,
            seed=seed + 2,
        )

    def _ingest(self, cfg: Mapping[str, object], stage: Stage) -> None:
        corpora, out = stage.inputs, stage.outputs
        ingest = ingest_source_corpus(corpora["source"], SplitSpec.parse(str(cfg["data.split"])))
        # canonicalized copies; sections riding along for round-trips. Each copy
        # parses back to the rows it was written from, so they go to the cache.
        for name, section, instances, parse in (
            ("train", 0, ingest.train, _train_rows), ("dev", 1, ingest.dev, _dev_rows)
        ):
            write_records((source_record(inst, section=section) for inst in instances), out[name])
            self._hand_over(out[name], parse, instances)
        target = ingest_target_corpus(corpora["target"])
        write_records((target_record(i) for i in target), out["eval"])
        self._hand_over(out["eval"], ingest_target_corpus, target)
        docs = ingest_raw_corpus(corpora["raw"])
        write_raw_corpus(docs, out["raw"])
        self._hand_over(out["raw"], ingest_raw_corpus, docs)

    def _train_base(self, cfg: Mapping[str, object], stage: Stage, seed: int) -> None:
        train = self._read(stage.inputs["train"], _train_rows)
        dev_set = self._read(stage.inputs["dev"], _dev_rows)
        config = TrainingConfig(
            epochs=int(cfg["base.epochs"]),
            learning_rate=float(cfg["base.learning_rate"]),
            seed=seed,
        )
        model, confusion = train_base(train, dev_set, config, self.backend)
        model_dir = stage.outputs["model"]
        save_model(model, model_dir)
        confusion_payload = {  # key order comes from write_json's sort_keys
            true.level2: {pred.level2: n for pred, n in row.items()} for true, row in confusion.items()
        }
        write_json(model_dir / "dev-confusion.json", confusion_payload)

    def _generate(self, cfg: Mapping[str, object], stage: Stage) -> None:
        docs = self._read(stage.inputs["raw"], ingest_raw_corpus)
        seed = int(cfg["generation.seed"])
        n_arg1 = int(cfg["generation.n_arg1"])
        sentences_by_domain: dict[str, list[str]] = {}
        for domain in cfg["domains"]:
            pool = [s for d in docs if d.domain == domain for s in d.sentences]
            if not pool:
                raise PipelineError(f"no raw sentences for domain {domain}")
            rng = random.Random(seed + hash_domain(domain))
            sentences_by_domain[domain] = rng.sample(pool, min(n_arg1, len(pool)))
        choice = cfg["generation.connective_choice"]
        out = stage.outputs["candidates"]
        result = generate_batch(
            sentences_by_domain,
            generation_label_set(bool(cfg["generation.include_similarity"])),
            _generation_backends(cfg),
            PromptTemplateKind(cfg["generation.template"]),
            fixtures.example_pool(cfg["domains"]),
            seed=seed,
            cache=GenerationCache(out.with_name("cache.jsonl")),
            connective_choice=None if choice in (None, "") else int(choice),
        )
        write_synthetic_records(result.instances, out)
        write_text(
            out.with_name("failures.json"),
            json.dumps([f._asdict() for f in result.failures], indent=2) + "\n",
        )
        stats = {
            "requests": len(result.instances) + len(result.failures),
            "cache_hits": sum(inst.cache_hit for inst in result.instances),
            "rejected": len(result.failures),
        }
        # telemetry, not a declared output: cache state stays out of the manifest identity
        write_json(out.with_name("generation-stats.json"), stats)

    def _screen(self, cfg: Mapping[str, object], stage: Stage) -> None:
        candidates = read_synthetic_records(stage.inputs["candidates"])
        base = load_model(stage.inputs["base"], self.backend)
        predictions, _ = batch_predict(base, [c.pair for c in candidates])
        for candidate, label in zip(candidates, predictions):
            candidate.set_predicted(label)
        kind = ScreenKind(cfg["screening.kind"])
        cmap = freq = None
        if kind in (ScreenKind.CONFUSION, ScreenKind.COMBI):
            cmap = _confusion_map(str(cfg["screening.cmap"]), stage.inputs)
        if kind is ScreenKind.COMBI:
            train = self._read(stage.inputs["train"], _train_rows)
            freq = frequency_table_from_instances(train, scope=str(cfg["screening.freq_scope"]))
        kept, report = screen_batch(candidates, kind, cmap, freq)
        write_synthetic_records(kept, stage.outputs["screened"])
        report_path = stage.outputs["report"]
        write_text(report_path, report_to_json(report) + "\n")
        write_text(
            report_path.with_name("screening-report.txt"),
            render_screening_report([report], cfg["domains"]),
        )
        write_json(
            report_path.with_name("screening-meta.json"),
            {"base_artifact_id": base.artifact_id, "screen": kind.value},
        )

    def _pseudo_label(self, cfg: Mapping[str, object], stage: Stage) -> None:
        instances = pseudo_label_corpus(
            self._read(stage.inputs["raw"], ingest_raw_corpus),
            load_model(stage.inputs["base"], self.backend),
            per_domain_n=int(cfg["pseudo.per_domain_n"]),
            seed=int(cfg["generation.seed"]),
            domains=cfg["domains"],
        )
        write_pseudo_records(instances, stage.outputs["labeled"])

    def _evaluate_baseline(self, cfg: Mapping[str, object], stage: Stage, seed: int) -> None:
        base = load_model(stage.inputs["base"], self.backend)
        models = {domain: (base, False) for domain in cfg["domains"]}
        self._evaluate(cfg, stage, "baseline", seed, models, dict.fromkeys(models, 0))

    def _adapt(
        self, cfg: Mapping[str, object], stage: Stage, method: str, mode: str, seed: int
    ) -> None:
        model_dir = stage.outputs["model"]
        shutil.rmtree(model_dir, ignore_errors=True)
        parse = read_pseudo_records if method == "pseudo" else read_synthetic_records
        pool = self._read(stage.inputs["data"], parse)
        by_domain = {domain: [i for i in pool if i.domain == domain] for domain in cfg["domains"]}
        # from-scratch trainings on the combined pool (concat, pseudo) use base-scale
        # settings; the adaptation epochs/rate apply to continued training only
        scale = "base" if method in ("concat", "pseudo") else "adaptation"
        config = TrainingConfig(
            epochs=int(cfg[f"{scale}.epochs"]),
            learning_rate=float(cfg[f"{scale}.learning_rate"]),
            seed=seed,
            loss=LossSpec(
                kind=LossKind.CE_MINUS_IV if method == "invariance" else LossKind.CE,
                lam=float(cfg["adaptation.lambda"]),
            ),
            trainable_groups=("prefix",) if method == "prefix" else ("encoder", "head"),
        )
        base = load_model(stage.inputs["base"], self.backend)
        # prefix adaptation trains on the target data alone
        train = [] if method == "prefix" else self._read(stage.inputs["train"], _train_rows)

        def adapt(target_data: list, out: str) -> Model:
            if method == "prefix":
                model = adapt_prefix(base, target_data, config)
            elif method == "invariance":
                model = adapt_invariance(base, target_data, train, config)
            else:
                model = adapt_concat(train, target_data, config, base.backend)
            save_model(model, model_dir / out)
            return model

        if mode == "specific":
            models, sizes = {}, {}
            for domain, domain_data in by_domain.items():
                if not domain_data:
                    raise PipelineError(f"no {method} data for domain {domain}")
                models[domain] = (adapt(domain_data, domain), False)
                sizes[domain] = len(domain_data)
        else:
            tagged_pool = [
                prepend_domain_token(inst) for pool in by_domain.values() for inst in pool
            ]
            target_size = min(int(cfg["adaptation.mixed_target_size"]), len(tagged_pool))
            mixed = stratified_downsample(tagged_pool, target_size, seed=seed)
            model = adapt(mixed, "mixed")
            models = {domain: (model, True) for domain in by_domain}
            sizes = dict.fromkeys(by_domain, len(mixed))
        self._evaluate(cfg, stage, _variant_id(method, mode), seed, models, sizes)

    def _evaluate(
        self,
        cfg: Mapping[str, object],
        stage: Stage,
        variant: str,
        seed: int,
        models: Mapping[str, tuple[Model, bool]],
        sizes: Mapping[str, int],
    ) -> None:
        """Score each domain's (model, tagged) pair; write the report and predictions."""
        protocol = EvalProtocol(cfg["evaluation.protocol"])
        eval_items = self._eval_items(stage.inputs["eval"], float(cfg["evaluation.vote_threshold"]))
        reports: dict[str, dict] = {}
        prediction_rows: list[dict] = []
        for domain in cfg["domains"]:
            model, tagged = models[domain]
            items = eval_items.get(domain)
            if not items:
                raise PipelineError(f"no evaluation items for domain {domain}")
            tokens = [domain_token_literal(domain) if tagged else None] * len(items)
            predicted, _ = batch_predict(model, [item.instance.pair for item in items], tokens)
            prediction_rows.extend(
                {**target_record(item.instance), "predicted": label.level2}
                for item, label in zip(items, predicted)
            )
            records = [
                PredictionRecord(
                    item_id=f"{item.instance.pair.doc_id}#{index}",
                    predicted=label,
                    gold=item.gold,
                    majority=item.majority,
                    domain=domain,
                )
                for index, (item, label) in enumerate(zip(items, predicted))
            ]
            reports[domain] = report_payload(score(records, protocol, run_id=f"seed{seed}"))
        write_json(
            stage.outputs["eval"],
            {"variant": variant, "seed": seed, "sizes": dict(sizes), "reports": reports},
        )
        write_records(prediction_rows, stage.outputs["predictions"])

    def _report(self, cfg: Mapping[str, object], stage: Stage) -> None:
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

        # the metric reports come in table order, so each variant's runs in seed order;
        # the ``ingest`` input is the eval corpus (ingest's output key is ``eval`` too)
        runs: dict[tuple[str, str], list[MetricReport]] = {}
        sizes: dict[tuple[str, str], int] = {}
        for name, path in stage.inputs.items():
            if name.split(":", 1)[0] == "ingest":
                continue
            payload = json.loads(path.read_text("utf-8"))
            for domain in domains:
                key = (payload["variant"], domain)
                runs.setdefault(key, []).append(report_from_payload(payload["reports"][domain]))
                sizes[key] = payload["sizes"][domain]
        summaries = {key: aggregate_runs(reports) for key, reports in runs.items()}
        significance: dict[tuple[str, str, str], SignificanceResult] = {}
        if len(cfg["seeds"]) >= 2:
            alpha = float(cfg["evaluation.alpha"])
            for meta in variants[1:]:  # every variant against the baseline
                for domain in domains:
                    for metric in ("macro_f1", "accuracy"):
                        significance[(meta.variant_id, domain, metric)] = t_test(
                            summaries[(meta.variant_id, domain)].runs(metric),
                            summaries[("baseline", domain)].runs(metric),
                            alpha=alpha,
                            metric=metric,
                        )

        table = render_results_table(variants, summaries, significance, sizes, domains)
        write_text(stage.outputs["table"], table)
        write_text(stage.outputs["tsv"], results_tsv(variants, summaries, significance, sizes, domains))


# split specs that route every section to one bucket, for canonical re-reads
_ALL_TRAIN = SplitSpec(frozenset(range(0, 100)), frozenset())
_ALL_DEV = SplitSpec(frozenset(), frozenset(range(0, 100)))


def _train_rows(path: Path) -> list:
    return ingest_source_corpus(path, _ALL_TRAIN).train


def _dev_rows(path: Path) -> list:
    return ingest_source_corpus(path, _ALL_DEV).dev


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
    return load_confusion_map(str(inputs["cmap"]))


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
    fidelity = float(cfg["generation.mock_fidelity"])
    for name in map(str, cfg["generation.backends"]):
        if name.startswith("mock"):
            backends.append(MockBackend(name=name, decoding=decoding, fidelity=fidelity))
            continue
        endpoint = os.environ.get(ENDPOINT_ENV, "")
        if not endpoint:
            raise ConfigurationError(f"backend {name!r} needs {ENDPOINT_ENV} set to an endpoint URL")
        descriptor = BackendDescriptor(name=name, endpoint=endpoint, decoding=decoding)
        backends.append(HTTPBackend(descriptor))
    return backends


def run_experiment(
    config: PipelineConfig, workdir: str | Path | None = None, dry_run: bool = False
) -> RunManifest:
    """Execute one full experiment; returns the manifest."""
    return ExperimentRunner(config, workdir).run(dry_run=dry_run)


def resume(manifest_path: str | Path) -> RunManifest:
    """Re-run a workdir; stages with intact digests are skipped."""
    manifest_path = Path(manifest_path)
    if manifest_path.is_dir():
        manifest_path = manifest_path / "run-manifest.json"
    stored = json.loads(manifest_path.read_text("utf-8"))
    config = PipelineConfig.from_mapping(stored["config"])
    return ExperimentRunner(config, manifest_path.parent).run()
