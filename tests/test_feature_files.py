"""Feature side files: what ``ingest`` keeps beside the train and eval rows.

A re-run reads the train rows and the eval arrays from the side files, so
it parses no train or eval row; a side file that is missing, cut short,
damaged, stale or written by another featurizer is rebuilt, written anew
for the next run, and changes no output byte.
"""

import hashlib
import json
import shutil
from pathlib import Path

import numpy as np
import pytest
from scipy import sparse

import drsynth.feature_files as feature_files
import drsynth.pipeline as pipeline
from drsynth.adaptation import (
    TrainingConfig,
    TrainingSet,
    _train_loop,
    adapt_concat,
    prepend_domain_token,
    training_set,
)
from drsynth.feature_files import EvalArrays, features_path, read_side_file, write_side_file
from drsynth.pipeline import PipelineConfig, Store, digest_path, run_experiment
from drsynth.records import (
    Adjacency,
    ArgumentPair,
    CrowdAnnotatedInstance,
    LabeledInstance,
    vote_matrix,
)
from drsynth.reference_backend import ReferenceBackend
from drsynth.screening import SyntheticInstance
from drsynth.taxonomy import resolve_label

COLD = {
    "adaptation.methods": ["concat", "prefix", "invariance"],
    "adaptation.domain_modes": ["specific", "mixed"],
    "seeds": [1],
}
# a rescreen that also retrains the base model, so that every reader of
# both side files runs: train-base, the combi screen, concat, invariance,
# and the untagged and tagged evaluations
RERUN = {**COLD, "screening.kind": "combi", "base.epochs": 250}


def _old_data_fingerprint(instances) -> str:
    """The manifest fingerprint as it was computed from instance lists."""
    digest = hashlib.sha256()
    for inst in instances:
        label = getattr(inst, "label", None) or inst.intended
        parts = [inst.pair.arg1, inst.pair.arg2, label.level2, inst.domain]
        digest.update("\x1f".join(parts).encode("utf-8"))
        digest.update(b"\x1e")
    return digest.hexdigest()


def _hand_built() -> list:
    cause, contrast = resolve_label("cause"), resolve_label("contrast")
    return [
        LabeledInstance(ArgumentPair("Prices rose.", "Demand fell sharply."), cause, "SRC"),
        LabeledInstance(
            ArgumentPair("It rained", "so the match stopped", adjacency=Adjacency.INTRA),
            cause, "SRC",
        ),
        LabeledInstance(ArgumentPair("Prices rose.", "Demand fell sharply."), cause, "SRC"),
        prepend_domain_token(SyntheticInstance(
            ArgumentPair("Ünïcode café opens", "but nobody comes"), contrast, "mock", "DC", "WK"
        )),
        SyntheticInstance(ArgumentPair("A a a a a a a", "b"), contrast, "mock", "DR", "NV"),
    ]


@pytest.mark.parametrize("memo", [True, False])
def test_training_set_rows_equal_featurize_pairs_rows(memo):
    instances = _hand_built()
    backend = ReferenceBackend()
    train = training_set(instances, backend, memo=memo)
    expected = ReferenceBackend().featurize_pairs([inst.pair for inst in instances])
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(train.x, name), getattr(expected, name)), name
    assert train.y.tolist() == [backend.label_index[resolve_label(n)] for n in
                                ("cause", "cause", "cause", "contrast", "contrast")]
    assert train.inter.tolist() == [True, False, True, True, True]
    assert hashlib.sha256(train.fingerprint).hexdigest() == _old_data_fingerprint(instances)
    assert (backend._rows != {}) is memo  # file rows stay out of the memo


def test_concat_trains_on_the_source_rows_then_the_pool():
    """Two sets train and fingerprint as the one set of their rows in order."""
    instances, backend = _hand_built(), ReferenceBackend()
    config = TrainingConfig(epochs=5, learning_rate=0.5, seed=3)
    parts = adapt_concat(
        training_set(instances[:2], backend), training_set(instances[2:], backend), config, backend
    )
    params = backend.init_params(np.random.default_rng(config.seed))
    whole = _train_loop(backend, params, [training_set(instances, backend)], config, ("encoder", "head"))
    assert all(np.array_equal(parts.params[key], whole[key]) for key in whole)
    assert parts.manifest["data_fingerprint"] == _old_data_fingerprint(instances)
    assert parts.manifest["n_instances"] == len(instances)


def _int64_copy(data: TrainingSet) -> TrainingSet:
    x = data.x
    wide = sparse.csr_array(
        (x.data, x.indices.astype(np.int64), x.indptr.astype(np.int64)), shape=x.shape
    )
    assert wide.indices.dtype == np.int64  # scipy keeps the wide index arrays given to it
    return TrainingSet(wide, data.y, data.inter, data.fingerprint)


def test_concat_model_bits_do_not_depend_on_the_index_width():
    """Source rows from the file path and a pool from the memo, stacked: int32 trains as int64 did."""
    instances, backend = _hand_built(), ReferenceBackend()
    source = training_set(instances[:3], backend, memo=False)
    pool = training_set(instances[3:], backend)
    assert pool.x.indices.dtype == np.int32 and source.x.indices.dtype == np.int32
    config = TrainingConfig(epochs=7, learning_rate=0.5, seed=5)
    narrow = adapt_concat(source, pool, config, backend)
    wide = adapt_concat(_int64_copy(source), _int64_copy(pool), config, backend)
    assert narrow.artifact_id == wide.artifact_id
    assert all(narrow.params[key].tobytes() == wide.params[key].tobytes() for key in narrow.params)


def test_side_file_round_trip_and_stamps(tmp_path):
    train = training_set(_hand_built(), ReferenceBackend(), memo=False)
    data_file = tmp_path / "train.jsonl"
    write_side_file(data_file, train, "a" * 64)
    with np.load(tmp_path / "train-features.npz") as stored:  # the names the side file had
        assert sorted(stored.files) == sorted([
            "x_indptr", "x_indices", "x_data", "y", "inter", "fingerprint",
            "source_sha256", "feature_dim", "featurizer_sha256", "arrays_sha256",
        ])
    loaded = read_side_file(data_file, TrainingSet, "a" * 64, train.x.shape[1])
    assert isinstance(loaded, TrainingSet)
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(loaded.x, name), getattr(train.x, name))
    assert np.array_equal(loaded.y, train.y) and np.array_equal(loaded.inter, train.inter)
    assert loaded.fingerprint.dtype == np.uint8
    assert loaded.fingerprint.tobytes() == train.fingerprint.tobytes()
    assert read_side_file(data_file, TrainingSet, "b" * 64, train.x.shape[1]) is None  # another source
    assert read_side_file(data_file, TrainingSet, "a" * 64, 256) is None  # another feature dimension
    assert read_side_file(data_file, EvalArrays, "a" * 64, train.x.shape[1]) is None  # not an eval file
    assert not list(tmp_path.glob("*.tmp"))


def test_eval_side_file_round_trip(tmp_path):
    x = training_set(_hand_built(), ReferenceBackend(), memo=False).x
    votes = np.arange(5 * 18, dtype=np.uint8).reshape(5, 18) % 11
    domain = np.array(["EP", "WK", "NV", "EP", "SRC"], dtype=str)
    data_file = tmp_path / "eval.jsonl"
    write_side_file(data_file, EvalArrays(x, x, votes, domain), "a" * 64)
    with np.load(tmp_path / "eval-features.npz") as stored:
        assert {"untagged_indptr", "tagged_data", "votes", "domain"} <= set(stored.files)
    loaded = read_side_file(data_file, EvalArrays, "a" * 64, x.shape[1])
    assert (loaded.untagged != x).nnz == 0 and (loaded.tagged != x).nnz == 0
    assert loaded.votes.dtype == np.uint8 and np.array_equal(loaded.votes, votes)
    assert loaded.domain.tolist() == domain.tolist()
    assert read_side_file(data_file, TrainingSet, "a" * 64, x.shape[1]) is None  # not a train file


@pytest.fixture(scope="module")
def cold_run(tmp_path_factory):
    """A cold run, and the outputs of the re-run on an intact copy of it."""
    root = tmp_path_factory.mktemp("side-files")
    run_experiment(PipelineConfig.from_mapping(COLD), root / "cold")
    reference = root / "intact"
    shutil.copytree(root / "cold", reference)
    run_experiment(PipelineConfig.from_mapping(RERUN), reference)
    return root / "cold", _outputs(reference)


def _outputs(workdir) -> dict[str, bytes]:
    files = [*workdir.glob("results.*"), *workdir.rglob("eval/*"), *workdir.rglob("models/**/*")]
    return {str(f.relative_to(workdir)): f.read_bytes() for f in sorted(files) if f.is_file()}


def _truncate(path):
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _flip_a_bit(path):
    data = bytearray(path.read_bytes())
    data[len(data) // 2] ^= 0x10
    path.write_bytes(bytes(data))


def _stale(path):
    """Rewrite the side file, well formed, from other rows and for another source file."""
    other = training_set(_hand_built(), ReferenceBackend(), memo=False)
    source = hashlib.sha256(b"another file").hexdigest()
    data_file = path.with_name(path.name.removesuffix("-features.npz") + ".jsonl")
    if data_file.name == "train.jsonl":
        write_side_file(data_file, other, source)
    else:
        n = other.x.shape[0]
        votes = np.full((n, 18), 1, dtype=np.uint8)
        write_side_file(data_file, EvalArrays(other.x, other.x, votes, np.array(["EP"] * n)), source)


DAMAGE = {"deleted": Path.unlink, "truncated": _truncate, "bit-flipped": _flip_a_bit, "stale": _stale}


@pytest.mark.parametrize("damage", sorted(DAMAGE))
@pytest.mark.parametrize("data_file", ["train", "eval"])
def test_damaged_side_file_changes_no_output(cold_run, tmp_path, damage, data_file):
    cold, expected = cold_run
    workdir = tmp_path / "run"
    shutil.copytree(cold, workdir)
    path = features_path(workdir / "data" / f"{data_file}.jsonl")
    intact = path.read_bytes()
    DAMAGE[damage](path)
    run_experiment(PipelineConfig.from_mapping(RERUN), workdir)
    assert _outputs(workdir) == expected
    # the reader that rebuilt the rows wrote the side file ingest had written
    assert path.read_bytes() == intact


def test_a_rebuilt_side_file_is_rewritten_so_the_next_run_reads_it(
    cold_run, tmp_path, monkeypatch, caplog
):
    """Side files of another featurizer are rebuilt once: the next run reads the rewritten ones."""
    cold, expected = cold_run
    combi = {**COLD, "screening.kind": "combi"}  # reads both side files, keeps base.epochs
    reference = tmp_path / "reference"
    shutil.copytree(cold, reference)
    run_experiment(PipelineConfig.from_mapping(combi), reference)
    workdir = tmp_path / "run"
    shutil.copytree(cold, workdir)
    paths = [features_path(workdir / "data" / f"{name}.jsonl") for name in ("train", "eval")]
    monkeypatch.setattr(feature_files, "_featurizer_sha256", lambda: "f" * 64)
    for config, outputs in ((RERUN, expected), (combi, _outputs(reference))):
        before = [path.read_bytes() for path in paths]
        caplog.clear()
        with caplog.at_level("INFO", logger="drsynth.feature_files"):
            run_experiment(PipelineConfig.from_mapping(config), workdir)
        stale = [path for path in paths if f"{path} is stale; rebuilding" in caplog.text]
        rewritten = [path for path, data in zip(paths, before) if path.read_bytes() != data]
        assert stale == rewritten == (paths if config is RERUN else [])
        assert _outputs(workdir) == outputs


def _count_calls(monkeypatch, name) -> list:
    """The first argument of each call of ``pipeline.<name>`` from now on."""
    calls = []
    parse = getattr(pipeline, name)

    def counted(*args, **kwargs):
        calls.append(args[0])
        return parse(*args, **kwargs)

    monkeypatch.setattr(pipeline, name, counted)
    return calls


def _evaluations_run(workdir, before: dict) -> list[str]:
    after = json.loads((workdir / "run-manifest.json").read_text("utf-8"))["stages"]
    return [name for name in after if name.startswith("evaluate:") and after[name] != before.get(name)]


def test_rescreen_after_cold_parses_no_source_corpus(cold_run, tmp_path, monkeypatch):
    cold, _ = cold_run
    workdir = tmp_path / "run"
    shutil.copytree(cold, workdir)
    calls = _count_calls(monkeypatch, "ingest_source_corpus")
    run_experiment(PipelineConfig.from_mapping({**COLD, "screening.kind": "combi"}), workdir)
    assert calls == []
    # a re-run that reads the train rows without their side file parses them once
    features_path(workdir / "data" / "train.jsonl").unlink()
    run_experiment(PipelineConfig.from_mapping({**COLD, "adaptation.lambda": 0.2}), workdir)
    assert [path.name for path in calls] == ["train.jsonl"]


@pytest.mark.parametrize("damage", ["intact", "deleted", "truncated"])
def test_rescreen_parses_the_eval_rows_only_without_their_side_file(
    cold_run, tmp_path, monkeypatch, damage
):
    """A strict -> combi rescreen re-scores from the side file's votes, or parses once."""
    cold, expected = cold_run
    workdir = tmp_path / "run"
    shutil.copytree(cold, workdir)
    if damage != "intact":
        DAMAGE[damage](features_path(workdir / "data" / "eval.jsonl"))
    before = json.loads((workdir / "run-manifest.json").read_text("utf-8"))["stages"]
    calls = _count_calls(monkeypatch, "ingest_target_corpus")
    run_experiment(PipelineConfig.from_mapping(RERUN), workdir)
    assert len(_evaluations_run(workdir, before)) == 7  # the baseline and all six variants
    assert [path.name for path in calls] == ([] if damage == "intact" else ["eval.jsonl"])
    assert _outputs(workdir) == expected


def test_side_files_of_another_featurizer_are_ignored(cold_run, tmp_path, monkeypatch):
    cold, expected = cold_run
    workdir = tmp_path / "run"
    shutil.copytree(cold, workdir)
    monkeypatch.setattr(feature_files, "_featurizer_sha256", lambda: "0" * 64)
    source_calls = _count_calls(monkeypatch, "ingest_source_corpus")
    target_calls = _count_calls(monkeypatch, "ingest_target_corpus")
    run_experiment(PipelineConfig.from_mapping(RERUN), workdir)
    # dev.jsonl has no side file; the retrained base model reads it either way
    assert [path.name for path in source_calls] == ["train.jsonl", "dev.jsonl"]
    assert [path.name for path in target_calls] == ["eval.jsonl"]
    outputs = _outputs(workdir)
    assert outputs == expected
    assert any(name.startswith("eval/") and name.endswith(".json") for name in outputs)


def test_store_serves_the_rows_ingest_featurized(cold_run):
    cold, _ = cold_run
    train, eval_data = cold / "data" / "train.jsonl", cold / "data" / "eval.jsonl"
    store = Store()
    stored = store.read(train, pipeline._train_set)
    built = training_set(pipeline._train_rows(train), ReferenceBackend(), memo=False)
    assert (stored.x != built.x).nnz == 0
    assert np.array_equal(stored.fingerprint, built.fingerprint)
    assert store.backend._rows == {}  # nothing was featurized
    rows = pipeline.ingest_target_corpus(eval_data)
    served = store.read(eval_data, pipeline._eval_set)
    expected = pipeline._eval_arrays(rows, ReferenceBackend())
    for got, want in ((served.untagged, expected.untagged), (served.tagged, expected.tagged)):
        assert got.shape == want.shape and (got != want).nnz == 0
    assert np.array_equal(served.votes, vote_matrix(rows))
    assert served.domain.tolist() == [row.domain for row in rows]
    assert store.backend._rows == {}
    assert digest_path(train) == store.digest(train)


# One tagging rule: ``adaptation.tag_text`` tags the pools and the eval rows alike.


def _crowd(arg1: str, arg2: str, domain: str) -> CrowdAnnotatedInstance:
    return CrowdAnnotatedInstance.from_votes(
        ArgumentPair(arg1, arg2), {resolve_label("cause"): 10}, domain
    )


def test_tagged_eval_matrix_is_featurize_rows_of_the_tagged_rows(cold_run):
    cold, _ = cold_run
    eval_data = cold / "data" / "eval.jsonl"
    rows = pipeline.ingest_target_corpus(eval_data)
    served = Store().read(eval_data, pipeline._eval_set)
    expected = ReferenceBackend().featurize_rows([prepend_domain_token(row).pair for row in rows])
    for name in ("indptr", "indices", "data"):
        got, want = getattr(served.tagged, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_pool_row_and_eval_row_of_one_text_and_domain_get_one_row():
    contrast = resolve_label("contrast")
    backend = ReferenceBackend()
    pool = [prepend_domain_token(SyntheticInstance(
        ArgumentPair("Prices rose.", "Demand fell sharply."), contrast, "mock", "DC", domain
    )) for domain in ("WK", "NV")]
    pool_x = training_set(pool, backend).x
    eval_x = pipeline._eval_arrays(
        [_crowd("Prices rose.", "Demand fell sharply.", domain) for domain in ("WK", "NV")], backend
    ).tagged
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(pool_x, name), getattr(eval_x, name)), name
    assert (pool_x[[0]] != pool_x[[1]]).nnz  # the two domains' tokens differ


def test_an_eval_arg1_that_carries_a_domain_token_is_tagged_once():
    backend = ReferenceBackend()
    row = _crowd("⟨EP⟩ The vote passed.", "It was close.", "WK")
    arrays = pipeline._eval_arrays([row], backend)
    assert (arrays.tagged != arrays.untagged).nnz == 0
    retagged = ArgumentPair("⟨WK⟩ ⟨EP⟩ The vote passed.", "It was close.")
    assert (arrays.tagged != backend.featurize_rows([retagged])).nnz
