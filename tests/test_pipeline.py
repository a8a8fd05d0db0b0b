import dataclasses
import errno
import fcntl
import hashlib
import json
import logging
import os
import pickle
import shutil
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np
import pytest
import requests

from drsynth import fixtures
from drsynth.adaptation import ConfigurationError, training_set
from drsynth.cli import main
from drsynth.generation import BackendDescriptor, HTTPBackend, TransportError
from drsynth.reference_backend import ReferenceBackend
from drsynth.pipeline import (
    DEFAULTS,
    PipelineConfig,
    Store,
    _train_rows,
    digest_path,
    parse_config_file,
    resume,
    run_experiment,
    stages,
)

GOLDEN = Path(__file__).parent / "golden"

SMOKE_OVERRIDES = {
    "adaptation.methods": ["prefix", "pseudo"],
    "adaptation.domain_modes": ["specific"],
    "seeds": [1, 2],
    "pseudo.per_domain_n": 25,
}


GRID_OVERRIDES = {
    **SMOKE_OVERRIDES,
    "adaptation.methods": ["concat", "prefix", "invariance", "pseudo"],
    "adaptation.domain_modes": ["specific", "mixed"],
}


def _config(workdir, **overrides):
    mapping = {"workdir": str(workdir), **SMOKE_OVERRIDES, **overrides}
    return PipelineConfig.from_mapping(mapping)


def _stages_run(caplog) -> list[str]:
    """Names of the stages whose actions ran while ``caplog`` was capturing."""
    return [r.args[0] for r in caplog.records if r.msg == "stage %s: running"]


def _assert_same_training_set(a, b) -> None:
    """Equal rows, bit for bit: CSR arrays, label ids, adjacency and fingerprint stream."""
    for name in ("indptr", "indices", "data"):
        assert np.array_equal(getattr(a.x, name), getattr(b.x, name)), name
    assert a.x.shape == b.x.shape
    assert np.array_equal(a.y, b.y) and np.array_equal(a.inter, b.inter)
    assert a.fingerprint.dtype == b.fingerprint.dtype == np.uint8
    assert np.array_equal(a.fingerprint, b.fingerprint)


def _file_corpora(corpus_dir) -> dict[str, str]:
    return {f"data.{kind}": str(corpus_dir / f"{kind}.jsonl") for kind in ("source", "target", "raw")}


def _assert_golden_digests(workdir, golden_file: str) -> None:
    """``results.*`` and every ``eval/*.json`` match the pinned sha256 lines.

    Model ``.npy`` bytes are left out: float64 parameters depend on the BLAS build.
    """
    golden = {}
    for line in (GOLDEN / golden_file).read_text().splitlines():
        digest, name = line.split("  ", 1)
        golden[name] = digest
    produced = ["results.txt", "results.tsv"] + sorted(
        path.relative_to(workdir).as_posix() for path in (workdir / "eval").glob("*.json")
    )
    assert sorted(golden) == sorted(produced)
    for name in produced:
        assert hashlib.sha256((workdir / name).read_bytes()).hexdigest() == golden[name], name


class TestConfigParsing:
    def test_key_value_lines_with_types(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text(
            "# comment\n"
            'seeds = [3, 4]\n'
            "generation.n_arg1 = 7\n"
            'generation.template = "DR"\n'
            "screening.kind = strict\n"
        )
        config = PipelineConfig.from_file(path)
        assert config.get("seeds") == [3, 4]
        assert config.get("generation.n_arg1") == 7
        assert config.get("generation.template") == "DR"
        assert config.get("screening.kind") == "strict"

    def test_include_support(self, tmp_path):
        (tmp_path / "base.cfg").write_text("generation.n_arg1 = 5\nseeds = [9]\n")
        child = tmp_path / "child.cfg"
        child.write_text("include base.cfg\nseeds = [1]\n")
        values = parse_config_file(child)
        assert values == {"generation.n_arg1": 5, "seeds": [1]}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown config keys"):
            PipelineConfig.from_mapping({"not.a.key": 1})

    def test_defaults_are_complete_snapshot(self):
        config = PipelineConfig.from_mapping({})
        assert set(config.snapshot()) == set(DEFAULTS)

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_mapping({"adaptation.methods": ["quantum"]})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_mapping({"seeds": []})
        with pytest.raises(ConfigurationError):
            PipelineConfig.from_mapping({"generation.template": "XYZ"})

    def test_fixture_target_beside_file_corpora_is_built_at_its_own_size(
        self, tiny_corpus_dir, tmp_path
    ):
        workdir = tmp_path / "run"
        corpora = _file_corpora(tiny_corpus_dir)
        config = _config(workdir, **{**corpora, "data.target": "fixtures:full"})
        assert stages(config, workdir)[0].config_keys == ("data.target", "data.fixture_seed", "domains")
        run_experiment(config, kinds={"fixtures"})
        rows = (workdir / "data/target.jsonl").read_bytes().count(b"\n")
        assert rows == sum(map(sum, fixtures.TARGET_LABEL_COUNTS.values())) + 25
        # the corpora named by a file are neither declared nor written
        assert set(stages(config, workdir)[0].outputs) == {"target"}
        assert not (workdir / "data/source.jsonl").exists()
        assert not (workdir / "data/raw.jsonl").exists()

    def test_full_fixture_target_holds_only_the_configured_domains(self, tmp_path):
        workdir = tmp_path / "run"
        full = {f"data.{kind}": "fixtures:full" for kind in ("source", "target", "raw")}
        run_experiment(_config(workdir, domains=["EP"], **full), kinds={"fixtures"})
        lines = (workdir / "data/target.jsonl").read_text().splitlines()
        assert lines and {json.loads(line)["domain"] for line in lines} == {"EP"}


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipeline-run")
    config = _config(workdir)
    manifest = run_experiment(config)
    return workdir, config, manifest


@pytest.fixture(scope="module")
def grid_run(tmp_path_factory):
    """A cold run of every method in both domain modes, two seeds."""
    workdir = tmp_path_factory.mktemp("grid-run")
    config = _config(workdir, **GRID_OVERRIDES)
    run_experiment(config)
    return workdir, config


class TestRunExperiment:
    def test_produces_report_and_artifacts(self, finished_run):
        workdir, _, manifest = finished_run
        table = (workdir / "results.txt").read_text()
        assert table.splitlines()[2].startswith("baseline")
        assert (workdir / "results.tsv").exists()
        assert (workdir / "run-manifest.json").exists()
        assert (workdir / "models/base-seed1/manifest.json").exists()
        assert (workdir / "synthetic/screened.jsonl").exists()
        assert (workdir / "pseudo/labeled.jsonl").exists()
        stage_names = set(manifest.data["stages"])
        assert {"ingest", "generate", "screen", "report"} <= stage_names
        screen_table = (workdir / "synthetic/screening-report.txt").read_text()
        assert screen_table.splitlines()[0].startswith("domain\t")

    def test_every_prediction_row_joins_back_to_the_eval_rows(self, finished_run):
        """A predictions row is the label and the 0-based eval row: domain order, then file order."""
        workdir, config, _ = finished_run
        eval_rows = [json.loads(line) for line in (workdir / "data/eval.jsonl").read_text().splitlines()]
        in_order = [
            row for domain in config.get("domains")
            for row, record in enumerate(eval_rows) if record["domain"] == domain
        ]
        trainable = {label.level2 for label in ReferenceBackend().labels}
        files = sorted(workdir.glob("eval/*-predictions.jsonl"))
        assert len(files) == len(list(workdir.glob("eval/*-seed*.json")))
        for path in files:
            rows = [json.loads(line) for line in path.read_text().splitlines()]
            assert all(set(row) == {"predicted", "row"} for row in rows), path.name
            assert [row["row"] for row in rows] == in_order, path.name
            assert {row["predicted"] for row in rows} <= trainable, path.name

    def test_screening_references_base_artifact(self, finished_run):
        workdir, _, _ = finished_run
        meta = json.loads((workdir / "synthetic/screening-meta.json").read_text())
        base = json.loads((workdir / "models/base-seed1/manifest.json").read_text())
        assert meta["base_artifact_id"] == base["artifact_id"]

    def test_rerun_in_fresh_workdir_is_byte_identical(self, finished_run, tmp_path):
        workdir, _, manifest = finished_run
        other = run_experiment(_config(tmp_path / "other"))
        assert other.identity_digest() == manifest.identity_digest()
        assert (tmp_path / "other/results.txt").read_bytes() == (
            workdir / "results.txt"
        ).read_bytes()

    def test_rerun_same_workdir_skips_everything(self, finished_run):
        workdir, config, manifest = finished_run
        before = json.loads((workdir / "run-manifest.json").read_text())
        again = run_experiment(config)
        after = json.loads((workdir / "run-manifest.json").read_text())
        assert before == after
        assert again.identity_digest() == manifest.identity_digest()

    def test_outputs_match_golden_digests(self, finished_run):
        """Results and metric reports are pinned across commits, not only across re-runs."""
        workdir, _, _ = finished_run
        _assert_golden_digests(workdir, "pipeline_smoke.sha256")

    def test_fresh_cli_process_gives_the_golden_bytes(self, finished_run, tmp_path):
        """``main`` tunes glibc's heap before the first stage of a fresh process;
        no output byte depends on the allocator."""
        import drsynth

        reference, _, manifest = finished_run
        workdir = tmp_path / "run"
        config_file = tmp_path / "run.cfg"
        _write_config(config_file, _config(workdir))
        src = str(Path(drsynth.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "drsynth.cli", "run", "--config", str(config_file)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        assert f"manifest identity: {manifest.identity_digest()}" in done.stdout
        _assert_golden_digests(workdir, "pipeline_smoke.sha256")
        models = sorted(path.relative_to(reference) for path in reference.glob("models/**/*.npy"))
        assert models == sorted(path.relative_to(workdir) for path in workdir.glob("models/**/*.npy"))
        assert models
        for name in models:
            assert (workdir / name).read_bytes() == (reference / name).read_bytes(), name

    @pytest.mark.parametrize("edit", ["dropped", "changed"])
    def test_stage_usage_is_recorded_outside_identity_and_skipping(
        self, finished_run, tmp_path, caplog, edit
    ):
        reference, _, manifest = finished_run
        workdir = tmp_path / "run"
        shutil.copytree(reference, workdir)
        path = workdir / "run-manifest.json"
        stored = json.loads(path.read_text())
        for record in stored["stages"].values():
            assert type(record["minflt"]) is int and record["minflt"] >= 0
            assert record["sys_s"] >= 0
            if edit == "dropped":  # a manifest written before these fields existed
                del record["minflt"], record["sys_s"]
            else:
                record["minflt"] += 1000
                record["sys_s"] += 1.0
        path.write_text(json.dumps(stored))
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        resumed = resume(workdir)
        assert _stages_run(caplog) == []
        assert resumed.identity_digest() == manifest.identity_digest()

    def test_grid_outputs_match_golden_digests(self, grid_run):
        """Every method in both domain modes (domain tokens included) is pinned too."""
        _assert_golden_digests(grid_run[0], "grid_smoke.sha256")

    def test_workdir_holds_only_declared_outputs_and_side_files(self, grid_run):
        """The stage table decides the workdir layout: every file a cold run leaves is
        inside a stage's declared output, or is the manifest or a side file."""
        workdir, config = grid_run
        declared = [path for stage in stages(config, workdir) for path in stage.outputs.values()]
        side_files = {
            "run-manifest.json",
            "data/train-features.npz",
            "data/eval-features.npz",
            "synthetic/cache.jsonl",
            "synthetic/failures.json",
            "synthetic/generation-stats.json",
            "synthetic/screening-report.txt",
            "synthetic/screening-meta.json",
        }
        files = [file for file in workdir.rglob("*") if file.is_file()]
        assert len(files) > len(declared)
        for file in files:
            relative = file.relative_to(workdir).as_posix()
            assert relative in side_files or any(
                file == path or path in file.parents for path in declared
            ), relative

    def test_stage_actions_pickle_without_run_state(self, finished_run):
        """An action is a module function plus its bound seed, method and mode: it carries
        no corpus, model or memo of the run that used it, so a worker process can take it."""
        workdir, config, _ = finished_run

        def bound(action):
            return action.func, action.args, action.keywords

        for stage in stages(config, workdir):
            blob = pickle.dumps(stage.action)
            assert len(blob) < 1024, (stage.name, len(blob))
            clone = pickle.loads(blob)
            if isinstance(stage.action, partial):
                assert bound(clone) == bound(stage.action), stage.name
            else:
                assert clone is stage.action, stage.name

    def test_variant_eval_reports_cover_all_seeds_and_domains(self, finished_run):
        workdir, _, _ = finished_run
        for variant in ("baseline", "prefix-specific-syn", "pseudo-specific-pseudo"):
            for seed in (1, 2):
                payload = json.loads(
                    (workdir / f"eval/{variant}-seed{seed}.json").read_text()
                )
                assert set(payload["reports"]) == {"EP", "WK", "NV"}
                assert payload["seed"] == seed


class TestResume:
    def test_corrupted_artifact_repaired(self, tmp_path):
        workdir = tmp_path / "run"
        config = _config(workdir, seeds=[1])
        manifest = run_experiment(config)
        results_before = (workdir / "results.txt").read_bytes()
        screened = workdir / "synthetic/screened.jsonl"
        screened.write_bytes(screened.read_bytes() + b'{"junk": 1}\n')

        resumed = resume(workdir)
        assert (workdir / "results.txt").read_bytes() == results_before
        assert resumed.identity_digest() == manifest.identity_digest()

    def test_missing_output_recreated(self, tmp_path):
        workdir = tmp_path / "run"
        config = _config(workdir, seeds=[1])
        run_experiment(config)
        target = workdir / "eval/prefix-specific-syn-seed1.json"
        payload_before = target.read_bytes()
        target.unlink()
        resume(workdir)
        assert target.read_bytes() == payload_before

    @pytest.mark.parametrize("model", ["base-seed1", "prefix-specific-syn-seed1"])
    def test_model_replaced_by_a_file_is_rebuilt_without_leftovers(self, tmp_path, capsys, model):
        workdir = tmp_path / "run"
        manifest = run_experiment(_config(workdir, seeds=[1]))
        model = workdir / "models" / model
        for _ in range(2):  # a second round once tripped over the first one's ``.old`` file
            shutil.rmtree(model)
            model.write_text("not a model\n")
            capsys.readouterr()
            assert main(["resume", str(workdir)]) == 0
            assert f"manifest identity: {manifest.identity_digest()}" in capsys.readouterr().out
            leftovers = [p for p in (workdir / "models").rglob("*") if p.suffix in (".tmp", ".old")]
            assert model.is_dir() and leftovers == []

    def test_regenerate_reruns_only_generate(self, tmp_path, caplog):
        workdir = tmp_path / "run"
        manifest = run_experiment(_config(workdir, seeds=[1], **{"adaptation.methods": ["prefix"]}))
        (workdir / "synthetic/candidates.jsonl").unlink()
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        resumed = resume(workdir)
        assert _stages_run(caplog) == ["generate"]
        assert resumed.identity_digest() == manifest.identity_digest()
        stats = json.loads((workdir / "synthetic/generation-stats.json").read_text())
        assert stats["cache_hits"] == stats["requests"] > 0
        candidate = json.loads((workdir / "synthetic/candidates.jsonl").read_text().splitlines()[0])
        assert "cache_hit" not in candidate

    def test_relative_corpus_paths(self, tiny_corpus_dir, tmp_path, monkeypatch, caplog):
        shutil.copytree(tiny_corpus_dir, tmp_path / "corpora")
        monkeypatch.chdir(tmp_path)
        corpora = _file_corpora(Path("corpora"))  # relative to the working directory
        config = _config("work", seeds=[1], **{"adaptation.methods": ["prefix"]}, **corpora)
        manifest = run_experiment(config)
        assert "fixtures" not in manifest.data["stages"]
        before = json.loads(Path("work/run-manifest.json").read_text())
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        assert resume("work").identity_digest() == manifest.identity_digest()
        assert _stages_run(caplog) == []
        assert json.loads(Path("work/run-manifest.json").read_text()) == before

        with Path("corpora/target.jsonl").open("a") as handle:  # one more item, same shape
            handle.write(Path("corpora/target.jsonl").read_text().splitlines()[0] + "\n")
        caplog.clear()
        resume("work")
        assert "ingest" in _stages_run(caplog)
        assert "generate" not in _stages_run(caplog)

    def test_torn_cache_line_tolerated(self, tmp_path):
        workdir = tmp_path / "run"
        overrides = {"adaptation.methods": ["prefix"], "generation.n_arg1": 3}
        run_experiment(_config(workdir, seeds=[1], **overrides))
        cache = workdir / "synthetic" / "cache.jsonl"
        entries = len(cache.read_text("utf-8").splitlines())
        with open(cache, "a", encoding="utf-8") as handle:
            handle.write('{"key": "abc", "raw": "tor')  # a write cut short by a kill
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(f"{key} = {json.dumps(value)}" for key, value in overrides.items())
            + f'\nworkdir = "{workdir}"\nseeds = [1]\ngeneration.n_arg1 = 4\n'
        )
        assert main(["run", "--config", str(cfg)]) == 0
        lines = cache.read_text("utf-8").splitlines()
        assert len(lines) > entries
        assert all(json.loads(line)["key"] != "abc" for line in lines)

    def test_completed_manifest_noop(self, tmp_path):
        workdir = tmp_path / "run"
        run_experiment(_config(workdir, seeds=[1]))
        before = json.loads((workdir / "run-manifest.json").read_text())
        resume(workdir / "run-manifest.json")
        after = json.loads((workdir / "run-manifest.json").read_text())
        assert before == after


def test_dry_run_plans_without_side_effects(tmp_path, capsys):
    workdir = tmp_path / "dry" / "deep"
    manifest = run_experiment(_config(workdir), dry_run=True)
    plan = manifest.data["plan"]
    assert plan[0] == "fixtures"
    assert plan[-1] == "report"
    assert not (tmp_path / "dry").exists()  # neither the workdir nor its missing parent
    # a workdir a real run could not create fails the preview too, and the CLI exits 2
    blocker = tmp_path / "file"
    blocker.write_text("not a directory\n")
    config_file = tmp_path / "run.cfg"
    _write_config(config_file, _config(workdir))
    for unusable in (blocker, blocker / "deep"):
        capsys.readouterr()
        argv = ["run", "--config", str(config_file), "--dry-run", "--workdir", str(unusable)]
        assert main(argv) == 2
        assert f"{blocker} is not a directory" in capsys.readouterr().err
    assert blocker.read_text() == "not a directory\n"
    assert sorted(path.name for path in tmp_path.iterdir()) == ["file", "run.cfg"]


class TestCli:
    def test_run_and_report(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'adaptation.methods = ["prefix"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "baseline" in out
        assert (tmp_path / "work" / "results.txt").exists()

    def test_ingest_verb_counts(self, tiny_corpus_dir, capsys):
        code = main(
            ["ingest", "--input", str(tiny_corpus_dir / "target.jsonl"), "--format", "target"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["per_domain"] == {"EP": 56, "NV": 56, "WK": 56}

    def test_source_ingest_with_split_flag(self, tiny_corpus_dir, capsys):
        code = main(
            [
                "ingest",
                "--input", str(tiny_corpus_dir / "source.jsonl"),
                "--format", "source",
                "--split", "2-20:0-1",
            ]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        # fixture dev sections are 1-2; under 2-20:0-1 the section-2 records
        # (one per label) move into train
        assert payload["train"] == 210
        assert payload["dev"] == 28

    @pytest.mark.parametrize("line", [
        b"unknown.key = 1",
        b"include bad.cfg",  # an include cycle
        b"seeds = [1]\n\xff",  # not UTF-8
        b'seeds = ["a"]',
        b'base.epochs = "x"',
        b"seeds = [1, 1]",
        b"seeds = [1.5]",
        b"seeds = [true]",
        b'domains = "EP"',
        b"adaptation.epochs = false",
        b"generation.connective_choice = 2",
        b"generation.connective_choice = true",
        b'data.target = "fixtures:bogus"',
        b'data.target = "fixtures:full"',  # beside the default fixtures:tiny source
        b'data.split = "x"',
        b'evaluation.protocol = "bogus"',
        b"domains = []",
        b'domains = ["EP", "EP"]',
        b"seeds = [-1]",
        b'screening.kind = "combi"\nscreening.freq_scope = "bogus"',
        b"evaluation.alpha = 5",
        b"adaptation.lambda = -0.5",
        b"adaptation.mixed_target_size = 0",
        b"base.epochs = -1",
        b"adaptation.epochs = -1",
        b"base.learning_rate = 0",
        b"adaptation.learning_rate = -0.0001",
        b"generation.n_arg1 = -1",
        b"generation.n_arg1 = 0",
        b'adaptation.methods = ["prefix", "pseudo"]\npseudo.per_domain_n = -1',
        b"generation.seed = -1",
    ])
    def test_bad_config_exit_code(self, tmp_path, capsys, line):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(f'workdir = "{tmp_path / "work"}"\n'.encode() + line + b"\n")
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert not (tmp_path / "work").exists()

    def test_dry_run_prints_plan(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'workdir = "{tmp_path / "work"}"\nseeds = [1]\n')
        assert main(["run", "--config", str(cfg), "--dry-run"]) == 0
        out = capsys.readouterr().out
        assert "report" in out.splitlines()[-1] or "report" in out

    def _config_error(self, tmp_path, capsys, argv, *lines) -> str:
        """Run ``argv`` on a one-seed prefix config; expect exit 2, return stderr."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "\n".join(
                [f'workdir = "{tmp_path / "work"}"', 'adaptation.methods = ["prefix"]', "seeds = [1]"]
                + list(lines)
            )
            + "\n"
        )
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        return err

    def test_stage_verb_on_fresh_workdir_is_config_error(self, tmp_path, capsys):
        err = self._config_error(tmp_path, capsys, ["screen"])
        assert "artifact missing" in err and "base-seed1" in err

    def test_domain_without_raw_sentences_is_config_error(self, tiny_corpus_dir, tmp_path, capsys):
        corpora = [f'{key} = "{path}"' for key, path in _file_corpora(tiny_corpus_dir).items()]
        err = self._config_error(tmp_path, capsys, ["run"], 'domains = ["EP", "ZZ"]', *corpora)
        assert "no raw sentences for domain ZZ" in err

    def test_label_missing_from_frequency_table_is_config_error(self, tmp_path, capsys):
        err = self._config_error(
            tmp_path, capsys, ["run"], "generation.include_similarity = true",
            'generation.template = "DR"', 'screening.kind = "combi"', "generation.n_arg1 = 2",
        )
        assert "generation.include_similarity needs screening.kind strict" in err
        assert not (tmp_path / "work" / "data").exists()

    def test_similarity_with_confusion_screen_rejected_before_any_stage(self, tmp_path, capsys):
        # the confusion screen keeps similarity candidates, which adaptation cannot train on
        err = self._config_error(
            tmp_path, capsys, ["run"], "generation.include_similarity = true",
            'generation.template = "DR"', 'screening.kind = "confusion"',
        )
        assert "generation.include_similarity needs screening.kind strict" in err
        assert not (tmp_path / "work" / "data").exists()

    def test_unknown_label_in_confusion_map_file_is_config_error(self, tmp_path, capsys):
        cmap = tmp_path / "confusion.txt"
        cmap.write_text("cause -> no-such-label\n")
        err = self._config_error(
            tmp_path, capsys, ["run"], 'screening.kind = "confusion"',
            f'screening.cmap = "{cmap}"', "generation.n_arg1 = 2",
        )
        assert "unknown relation label: 'no-such-label'" in err

    @pytest.mark.parametrize("line, message", [
        ("cause cause", "expected 'label -> label': 'cause cause'"),
        ("cause -> cause", "confusion map maps cause to itself"),
        ("cause -> no-such-label", "unknown relation label: 'no-such-label'"),
        (None, "[Errno 2] No such file or directory: '{cmap}'"),
    ])
    def test_malformed_confusion_map_file_exits_2_before_any_stage(
        self, tmp_path, capsys, line, message
    ):
        cmap = tmp_path / "confusion.txt"
        if line is not None:  # None: the file does not exist
            cmap.write_text(f"{line}\n")
        message = message.format(cmap=cmap)
        err = self._config_error(
            tmp_path, capsys, ["run"], 'screening.kind = "confusion"', f'screening.cmap = "{cmap}"',
        )
        assert err == f"config error: screening.cmap file {cmap}: {message}\n"
        assert not (tmp_path / "work").exists()

    @pytest.mark.parametrize("threshold", ["1.5", "0", "high"])
    def test_vote_threshold_outside_unit_interval_rejected_before_any_stage(
        self, threshold, tmp_path, capsys
    ):
        err = self._config_error(tmp_path, capsys, ["run"], f"evaluation.vote_threshold = {threshold}")
        assert "evaluation.vote_threshold must be a number in (0, 1]" in err
        assert not (tmp_path / "work" / "data").exists()

    @pytest.mark.parametrize("verb, case", [
        ("run", "workdir is a file"),
        *[
            (verb, case)
            for verb in ("run", "resume")
            for case in ("not JSON", "a list", "stages a list", "no digest", "no outputs")
        ],
        ("resume", "no config"),
    ])
    def test_unusable_workdir_or_manifest_exits_2_and_touches_nothing(
        self, finished_run, tmp_path, capsys, caplog, verb, case
    ):
        workdir = tmp_path / "run"
        shutil.copytree(finished_run[0], workdir)
        config_file = tmp_path / "run.cfg"
        _write_config(config_file, _config(workdir))
        argv = ["resume", str(workdir)] if verb == "resume" else ["run", "--config", str(config_file)]
        named = workdir / "run-manifest.json"
        stored = json.loads(named.read_text())
        if case == "workdir is a file":
            named = tmp_path / "file"
            named.write_text("not a directory\n")
            argv += ["--workdir", str(named)]
        elif case == "not JSON":
            named.write_text('{"config": {')
        elif case == "a list":
            named.write_text(json.dumps([stored]))
        elif case == "stages a list":
            named.write_text(json.dumps({**stored, "stages": list(stored["stages"].values())}))
        elif case == "no config":
            del stored["config"]
            named.write_text(json.dumps(stored))
        else:  # the first stage's digest matches this config, so its outputs are read
            del stored["stages"]["fixtures"][case.split()[1]]
            named.write_text(json.dumps(stored))
        before = named.read_bytes()
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        capsys.readouterr()
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert str(named) in err
        assert _stages_run(caplog) == []
        assert named.read_bytes() == before

    @pytest.mark.parametrize("verb", ["adapt", "evaluate"])
    def test_model_path_that_is_a_file_is_config_error(self, finished_run, tmp_path, capsys, verb):
        workdir = tmp_path / "run"
        shutil.copytree(finished_run[0], workdir)
        config_file = tmp_path / "run.cfg"
        _write_config(config_file, _config(workdir))
        model = workdir / "models/base-seed1"
        shutil.rmtree(model)
        model.write_text("not a model\n")
        capsys.readouterr()
        assert main([verb, "--config", str(config_file)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1, err
        assert f"{model} is not a directory" in err

    def test_failed_write_exits_2_without_a_traceback(self, tmp_path, capsys, monkeypatch):
        import drsynth.records as records

        def full_disk(path):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(records, "_atomic", full_disk)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'workdir = "{tmp_path / "work"}"\nseeds = [1]\n')
        capsys.readouterr()
        assert main(["run", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "No space left on device" in err, err
        assert "Traceback" not in err

    def test_similarity_with_dc_template_rejected_before_any_stage(self, tmp_path, capsys):
        with pytest.raises(ConfigurationError, match="include_similarity"):
            PipelineConfig.from_mapping({"generation.include_similarity": True})
        err = self._config_error(tmp_path, capsys, ["run"], "generation.include_similarity = true")
        assert "generation.template DR" in err
        assert not (tmp_path / "work" / "data").exists()


def test_digest_path_covers_files_and_directories(tmp_path):
    (tmp_path / "a.txt").write_text("alpha")
    sub = tmp_path / "sub"
    sub.mkdir()
    (sub / "b.txt").write_text("beta")
    file_digest = digest_path(tmp_path / "a.txt")
    dir_digest = digest_path(tmp_path)
    assert file_digest != dir_digest
    (sub / "b.txt").write_text("gamma")
    assert digest_path(tmp_path) != dir_digest
    with pytest.raises(Exception):
        digest_path(tmp_path / "missing.bin")


class TestBackendErrors:
    def test_remote_backend_without_endpoint_is_config_error(self, tmp_path, monkeypatch):
        monkeypatch.delenv("DRSYNTH_LLM_ENDPOINT", raising=False)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'generation.backends = ["mistral"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 2

    def test_unreachable_endpoint_is_backend_error(self, tmp_path, monkeypatch):
        # port 9 (discard) refuses connections immediately
        monkeypatch.setenv("DRSYNTH_LLM_ENDPOINT", "http://127.0.0.1:9/complete")
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'generation.backends = ["mistral"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 3

    @pytest.mark.parametrize(
        "body", [[{"text": "x"}], {"text": 5}, {"text": None}, "not JSON"],
        ids=["list", "number", "null", "not-json"],
    )
    def test_malformed_reply_is_backend_error_and_never_cached(self, body, tmp_path, monkeypatch):
        class Reply:
            def raise_for_status(self):
                pass

            def json(self):
                if body == "not JSON":
                    raise requests.JSONDecodeError("Expecting value", body, 0)
                return body

        posts, sleeps = [], []

        def post(self, *args, **kwargs):
            posts.append(kwargs["json"])
            return Reply()

        # every session's post answers offline; no socket is opened
        monkeypatch.setattr(requests.Session, "post", post)
        monkeypatch.setattr(time, "sleep", sleeps.append)
        endpoint = "http://127.0.0.1:9/complete"
        backend = HTTPBackend(BackendDescriptor(name="mistral", endpoint=endpoint))
        expected = "reply is not JSON" if body == "not JSON" else "string 'text'"
        with pytest.raises(TransportError, match=expected):
            backend.complete("prompt")
        posts.clear()

        monkeypatch.setenv("DRSYNTH_LLM_ENDPOINT", endpoint)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'generation.backends = ["mistral"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 3
        assert len(posts) == 1 and sleeps == []  # a retry would get the same reply
        cache = tmp_path / "work" / "synthetic" / "cache.jsonl"
        assert not cache.exists() or cache.read_text() == ""


class TestConfigChangeClosure:
    def test_changed_screening_rerun_reuses_generation(self, tmp_path):
        workdir = tmp_path / "run"
        manifest_path = workdir / "run-manifest.json"
        first_cfg = _config(workdir, seeds=[1], **{"screening.kind": "strict"})
        run_experiment(first_cfg)
        before = json.loads(manifest_path.read_text())["stages"]

        second_cfg = _config(workdir, seeds=[1], **{"screening.kind": "confusion"})
        run_experiment(second_cfg)
        after = json.loads(manifest_path.read_text())["stages"]

        unchanged = ("fixtures", "ingest", "train-base:seed1", "generate", "pseudo-label")
        for name in unchanged:
            assert after[name] == before[name], name
        assert after["screen"]["digest"] != before["screen"]["digest"]
        assert (
            after["adapt:prefix-specific-syn:seed1"]
            != before["adapt:prefix-specific-syn:seed1"]
        )

    def test_rescreen_that_keeps_the_same_rows_retrains_nothing(self, grid_run, tmp_path, caplog):
        """On this grid combi keeps strict's rows, so the pool and every model stay as they are."""
        workdir = tmp_path / "run"
        shutil.copytree(grid_run[0], workdir)
        combi = {**GRID_OVERRIDES, "screening.kind": "combi"}
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        manifest = run_experiment(_config(workdir, **combi))
        assert _stages_run(caplog) == ["screen", "report"]
        fresh = run_experiment(_config(tmp_path / "fresh", **combi))
        assert manifest.identity_digest() == fresh.identity_digest()

    def test_changed_screen_reaches_the_report(self, tmp_path):
        workdir = tmp_path / "run"
        overrides = {"adaptation.methods": ["prefix"]}
        run_experiment(_config(workdir, seeds=[1], **overrides))
        combi = {**overrides, "screening.kind": "combi"}
        manifest = run_experiment(_config(workdir, seeds=[1], **combi))
        fresh = run_experiment(_config(tmp_path / "fresh", seeds=[1], **combi))
        table = (workdir / "results.txt").read_text()
        row = next(line for line in table.splitlines() if line.startswith("base>syn"))
        assert "combi" in row.split() and "strict" not in table
        assert table == (tmp_path / "fresh" / "results.txt").read_text()
        assert manifest.identity_digest() == fresh.identity_digest()

    def test_dropped_domain_with_file_corpora_matches_fresh_run(self, tiny_corpus_dir, tmp_path):
        workdir = tmp_path / "run"
        overrides = {"adaptation.methods": ["prefix"], **_file_corpora(tiny_corpus_dir)}
        run_experiment(_config(workdir, seeds=[1], **overrides))
        two = {**overrides, "domains": ["EP", "WK"]}
        manifest = run_experiment(_config(workdir, seeds=[1], **two))
        fresh = run_experiment(_config(tmp_path / "fresh", seeds=[1], **two))
        table = (workdir / "results.txt").read_bytes()
        assert b"NV" not in table
        assert table == (tmp_path / "fresh" / "results.txt").read_bytes()
        assert manifest.identity_digest() == fresh.identity_digest()

    def _assert_resume_matches_fresh_run(self, workdir, fresh_dir, overrides, edit) -> None:
        """Run, ``edit()`` a file the screen reads, resume: the screen matches a fresh run's."""
        run_experiment(_config(workdir, seeds=[1], **overrides))
        screened = workdir / "synthetic/screened.jsonl"
        before = screened.read_bytes()
        edit()
        manifest = resume(workdir)
        fresh = run_experiment(_config(fresh_dir, seeds=[1], **overrides))
        assert screened.read_bytes() == (fresh_dir / "synthetic/screened.jsonl").read_bytes()
        assert screened.read_bytes() != before
        assert manifest.identity_digest() == fresh.identity_digest()

    def test_edited_confusion_map_file_matches_fresh_run(self, tmp_path):
        from drsynth.taxonomy import _read_resource

        cmap = tmp_path / "confusion.txt"
        cmap.write_text(_read_resource("confusion.txt"))
        overrides = {
            "adaptation.methods": ["prefix"],
            "screening.kind": "confusion",
            "screening.cmap": str(cmap),
        }
        self._assert_resume_matches_fresh_run(
            tmp_path / "run", tmp_path / "fresh", overrides,
            lambda: cmap.write_text("# no mispredictions to screen out\n"),
        )

    def test_edited_adjacency_with_combi_screen_matches_fresh_run(self, tiny_corpus_dir, tmp_path):
        shutil.copytree(tiny_corpus_dir, tmp_path / "corpora")
        source = tmp_path / "corpora" / "source.jsonl"
        overrides = {
            "adaptation.methods": ["prefix"],
            "screening.kind": "combi",
            **_file_corpora(tmp_path / "corpora"),
        }

        def make_cause_rows_intra():
            # adjacency enters neither the features nor the base model's data fingerprint
            records = [json.loads(line) for line in source.read_text().splitlines()]
            train_cause = [
                r for r in records if r["label"] == "cause" and 3 <= int(r["section"]) <= 20
            ]
            for record in train_cause[:12]:
                record["adjacency"] = "intra"
            source.write_text("".join(json.dumps(r) + "\n" for r in records))

        self._assert_resume_matches_fresh_run(
            tmp_path / "run", tmp_path / "fresh", overrides, make_cause_rows_intra
        )

    @pytest.mark.parametrize("edit, marker, report", [
        ({"evaluation.protocol": "all-gold-fn"}, "evaluate:", ["report"]),
        # at these settings the invariance models move too little to change a prediction,
        # so every eval report stays byte-identical and the report is skipped
        ({"adaptation.lambda": 0.5}, ":invariance-", []),
        ({"adaptation.mixed_target_size": 40}, "-mixed-", ["report"]),
    ], ids=["protocol", "lambda", "mixed-target-size"])
    def test_edit_reruns_only_the_stages_that_read_it(
        self, grid_run, tmp_path, caplog, edit, marker, report
    ):
        """The edited key's adapt stages (if any) and the evaluations of what they train."""
        workdir = tmp_path / "run"
        shutil.copytree(grid_run[0], workdir)
        config = _config(workdir, **GRID_OVERRIDES, **edit)
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        run_experiment(config)
        names = [stage.name for stage in stages(config, workdir)]
        expected = [name for name in names if name.startswith(("adapt:", "evaluate:")) and marker in name]
        assert _stages_run(caplog) == expected + report

    @pytest.mark.parametrize("screen", ["strict", "combi"])
    def test_every_stage_reads_its_whole_slice(self, screen, tmp_path, monkeypatch):
        """Undeclared reads fail as ``KeyError``; this checks that no declared key goes unread."""
        import drsynth.pipeline as pipeline

        reads: dict[str, set] = {}
        table = pipeline.stages

        class RecordedSlice(dict):
            def __getitem__(self, key):
                reads.setdefault(self.stage, set()).add(key)
                return super().__getitem__(key)

        def recorded(action):
            def run(cfg, stage, store):
                cfg = RecordedSlice(cfg)
                cfg.stage = stage.name
                action(cfg, stage, store)
            return run

        monkeypatch.setattr(pipeline, "stages", lambda config, workdir: [
            dataclasses.replace(stage, action=recorded(stage.action)) for stage in table(config, workdir)
        ])
        config = _config(tmp_path / "run", **GRID_OVERRIDES, **{"screening.kind": screen})
        run_experiment(config)
        assert reads == {stage.name: set(stage.config_keys) for stage in table(config, tmp_path / "run")}

    def test_removed_variant_pruned_to_match_fresh_run(self, tmp_path):
        workdir = tmp_path / "run"
        run_experiment(_config(workdir, seeds=[1]))
        reduced = _config(
            workdir, seeds=[1], **{"adaptation.methods": ["prefix"]}
        )
        manifest = run_experiment(reduced)
        fresh = run_experiment(
            _config(tmp_path / "fresh", seeds=[1], **{"adaptation.methods": ["prefix"]})
        )
        assert manifest.identity_digest() == fresh.identity_digest()
        stages = json.loads((workdir / "run-manifest.json").read_text())["stages"]
        assert not any("pseudo" in name for name in stages)


class TestStageVerbOverrides:
    def test_generate_flags_override_config(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'adaptation.methods = ["prefix"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        candidates = tmp_path / "work" / "synthetic" / "candidates.jsonl"
        first = json.loads(candidates.read_text().splitlines()[0])
        assert first["template"] == "DC"

        assert main(["generate", "--config", str(cfg), "--template", "DR", "--n-arg1", "3"]) == 0
        lines = candidates.read_text().splitlines()
        first = json.loads(lines[0])
        assert first["template"] == "DR"
        assert len(lines) == 3 * 14 * 3  # 3 sentences x 14 labels x 3 domains

    def test_adapt_method_flag(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'adaptation.methods = ["prefix", "concat"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        assert main(["adapt", "--config", str(cfg), "--method", "prefix"]) == 0
        # a stage verb runs part of the table and prunes nothing
        stages = json.loads((tmp_path / "work" / "run-manifest.json").read_text())["stages"]
        assert "adapt:concat-specific-syn:seed1" in stages

    def test_generate_seed_flag_sets_generation_seed(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            f'workdir = "{tmp_path / "work"}"\n'
            'adaptation.methods = ["prefix"]\n'
            "seeds = [1]\n"
        )
        assert main(["run", "--config", str(cfg)]) == 0
        candidates = tmp_path / "work" / "synthetic" / "candidates.jsonl"
        before = candidates.read_bytes()
        assert main(["generate", "--config", str(cfg), "--seed", "7"]) == 0
        assert candidates.read_bytes() != before
        first = json.loads(candidates.read_text().splitlines()[0])
        assert first["decoding"]["seed"] == 7

    def test_verb_without_a_stage_in_the_table_is_config_error(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f'workdir = "{tmp_path / "work"}"\nadaptation.methods = ["prefix"]\n')
        assert main(["pseudo-label", "--config", str(cfg)]) == 2


def test_combi_screen_pipeline_path(tmp_path):
    workdir = tmp_path / "run"
    config = _config(
        workdir, seeds=[1],
        **{"screening.kind": "combi", "adaptation.methods": ["prefix"]},
    )
    run_experiment(config)
    report = json.loads((workdir / "synthetic" / "screening-report.json").read_text())
    assert report["screen"] == "combi"
    assert (workdir / "results.txt").exists()


def test_confusion_screen_with_derived_map(tmp_path):
    # the derived map omits labels the base model never mispredicts on dev;
    # the confusion screen keeps their candidates
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f'workdir = "{tmp_path / "work"}"\n'
        'adaptation.methods = ["prefix"]\n'
        "seeds = [1]\n"
        'screening.kind = "confusion"\n'
        'screening.cmap = "derived"\n'
    )
    assert main(["run", "--config", str(cfg)]) == 0
    report = json.loads((tmp_path / "work" / "synthetic" / "screening-report.json").read_text())
    assert report["screen"] == "confusion"
    kept = {label for s in report["strata"] for label in s["kept_per_label"]}
    assert "level-of-detail" in kept


def test_derived_confusion_map_from_dev_confusion(tmp_path):
    from drsynth.pipeline import _confusion_map
    from drsynth.taxonomy import resolve_label

    model_dir = tmp_path / "models" / "base-seed1"
    model_dir.mkdir(parents=True)
    (model_dir / "dev-confusion.json").write_text(
        json.dumps(
            {
                "cause+belief": {"cause": 9, "cause+belief": 3, "level-of-detail": 1},
                "purpose": {"condition": 4, "purpose": 20},
                "cause": {"cause": 30},
            }
        )
    )
    cmap = _confusion_map("derived", {"base": model_dir})
    assert cmap.confusion_of(resolve_label("cause+belief")) == resolve_label("cause")
    assert cmap.confusion_of(resolve_label("purpose")) == resolve_label("condition")
    assert resolve_label("cause") not in cmap


def test_run_frees_its_store_without_the_cycle_collector(tmp_path, monkeypatch):
    """A reference cycle would keep the store's rows and matrices alive after the run,
    until a full collection lands in some later run's time."""
    import gc
    import weakref

    import drsynth.pipeline as pipeline

    made = []

    class Tracked(Store):
        def __init__(self):
            super().__init__()
            made.append(weakref.ref(self))

    monkeypatch.setattr(pipeline, "Store", Tracked)
    gc.disable()
    try:
        run_experiment(_config(tmp_path / "run", seeds=[1]))
        assert made and made[0]() is None
    finally:
        gc.enable()


def test_runner_parses_a_file_once_per_content(tmp_path):
    run_experiment(_config(tmp_path / "run", seeds=[1]), kinds={"fixtures", "ingest"})
    store = Store()
    calls = []

    def parse(path, store):
        calls.append(path)
        return _train_rows(path)

    train = tmp_path / "run" / "data" / "train.jsonl"
    first = store.read(train, parse)
    assert store.read(train, parse) is first
    assert len(calls) == 1
    stat = train.stat()
    train.write_text("".join(train.read_text().splitlines(keepends=True)[:-1]))
    os.utime(train, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # only the content moved
    store.forget([train])  # as the run does before a stage rewrites the file
    second = store.read(train, parse)
    assert len(calls) == 2
    assert list(second) == list(first)[:-1]


def _run_action(store, config, name, **overrides):
    """Run one stage's action with its config slice, bypassing the digest check."""
    stage = next(s for s in stages(config, Path(config.get("workdir"))) if s.name == name)
    stage.action({**{key: config.get(key) for key in stage.config_keys}, **overrides}, stage, store)


def _messy_corpora(clean_dir, out_dir):
    """The tiny corpora respelled the ways ingest accepts: padded spans, label aliases,
    multi-sense labels, string counts, default fields, and a document id that recurs."""
    out_dir.mkdir(parents=True)
    source = []
    for index, line in enumerate((clean_dir / "source.jsonl").read_text().splitlines()):
        record = json.loads(line)
        record["arg1"] = "  " + record["arg1"].replace(" ", "   ") + " \t"
        record["label"] = record["label"].upper().replace("-", "_") + "|cause"
        record["section"] = str(record["section"])
        if index % 3 == 0:
            del record["provenance"]
        source.append(record)
    target = []
    for line in (clean_dir / "target.jsonl").read_text().splitlines():
        record = json.loads(line)
        record["votes"] = {name.upper(): str(count) for name, count in record["votes"].items()}
        record["arg2"] += "   "
        target.append(record)
    raw = [json.loads(line) for line in (clean_dir / "raw.jsonl").read_text().splitlines()]
    first_doc = [dict(r, sentence=f" {r['sentence']}  ") for r in raw if r["doc_id"] == raw[0]["doc_id"]]
    raw[1]["domain"] = "ZZ"  # a document keeps the domain of its first line
    for name, records in (("source", source), ("target", target), ("raw", raw + first_doc)):
        (out_dir / f"{name}.jsonl").write_text("".join(json.dumps(r) + "\n" for r in records))
    return _file_corpora(out_dir)


class TestDeriveOnce:
    """Each canonical file is parsed at most once per run, and the eval rows not after ingest."""

    @pytest.mark.parametrize("corpora", ["fixtures", "messy"])
    def test_ingest_hands_over_what_parsing_the_written_files_returns(
        self, corpora, tmp_path, tiny_corpus_dir
    ):
        from dataclasses import fields

        from drsynth.feature_files import EvalArrays
        from drsynth.pipeline import _dev_rows, _eval_arrays, _eval_set, _raw_docs, _train_set
        from drsynth.records import ingest_target_corpus

        overrides = {} if corpora == "fixtures" else _messy_corpora(tiny_corpus_dir, tmp_path / "in")
        config = _config(tmp_path / "run", seeds=[1], **overrides)
        if corpora == "fixtures":
            run_experiment(config, kinds={"fixtures"})
        store = Store()
        _run_action(store, config, "ingest")
        train = tmp_path / "run" / "data/train.jsonl"
        handed = store._built[(digest_path(train), _train_set)]
        _assert_same_training_set(handed, training_set(_train_rows(train), ReferenceBackend()))
        # the eval rows are handed over as arrays, equal to those built from the written file
        eval_data = tmp_path / "run" / "data/eval.jsonl"
        kept = store._built[(digest_path(eval_data), _eval_set)]
        parsed = ingest_target_corpus(eval_data)
        assert parsed and isinstance(kept, EvalArrays)
        built = _eval_arrays(parsed, ReferenceBackend())
        for name in (field.name for field in fields(EvalArrays)):
            got, want = getattr(kept, name), getattr(built, name)
            if name in ("untagged", "tagged"):
                assert (got != want).nnz == 0 and got.shape == want.shape, name
            else:
                assert got.dtype == want.dtype and np.array_equal(got, want), name
        for relative, parse in (
            ("data/dev.jsonl", _dev_rows),
            ("data/raw-canonical.jsonl", _raw_docs),
        ):
            path = tmp_path / "run" / relative
            rows = store._built[(digest_path(path), parse)]
            assert rows and parse(path, store) == rows, relative

    def test_cold_run_parses_no_canonical_file_after_ingest(self, tmp_path, monkeypatch):
        import drsynth.pipeline as pipeline

        calls = []

        def counted(name):
            parse = getattr(pipeline, name)

            def wrapper(path, *args):
                calls.append((name, Path(path).name))
                return parse(path, *args)

            monkeypatch.setattr(pipeline, name, wrapper)

        for name in ("_train_rows", "_dev_rows", "ingest_target_corpus", "ingest_raw_corpus"):
            counted(name)
        workdir = tmp_path / "run"
        run_experiment(_config(workdir))
        # only ingest's own reads of the input corpora
        assert sorted(calls) == [
            ("ingest_raw_corpus", "raw.jsonl"), ("ingest_target_corpus", "target.jsonl")
        ]
        calls.clear()
        # a second run that retrains the base models parses each canonical file once,
        # except the train and eval rows, which come from their side files
        run_experiment(_config(workdir, **{"base.epochs": 20}))
        assert sorted(calls) == [
            ("_dev_rows", "dev.jsonl"),
            ("ingest_raw_corpus", "raw-canonical.jsonl"),
        ]

    def test_one_runner_across_vote_thresholds_matches_fresh_runners(self, tmp_path):
        workdir = tmp_path / "run"
        config = _config(workdir, seeds=[1])
        run_experiment(config, kinds={"fixtures", "ingest", "train-base"})
        outputs = ("eval/baseline-seed1.json", "eval/baseline-seed1-predictions.jsonl")

        def evaluate(store, threshold):
            overrides = {"evaluation.vote_threshold": threshold}
            _run_action(store, config, "evaluate:baseline:seed1", **overrides)
            return [(workdir / name).read_bytes() for name in outputs]

        shared = Store()
        low, high = evaluate(shared, 0.4), evaluate(shared, 0.6)
        assert low[0] != high[0]
        assert evaluate(Store(), 0.4) == low
        assert evaluate(Store(), 0.6) == high
        assert evaluate(shared, 0.4) == low

    def test_adapt_reparses_an_edited_screened_file(self, tmp_path, monkeypatch):
        import drsynth.pipeline as pipeline

        parsed = []
        read = pipeline.read_synthetic_records

        def counted(path):
            parsed.append(Path(path).name)
            return read(path)

        monkeypatch.setattr(pipeline, "read_synthetic_records", counted)
        workdir = tmp_path / "run"
        config = _config(workdir, seeds=[1], **{"adaptation.methods": ["prefix"]})
        run_experiment(config, kinds={"fixtures", "ingest", "train-base", "generate", "screen"})
        store = Store()
        models = workdir / "models/prefix-specific-syn-seed1"

        def adapt():
            _run_action(store, config, "adapt:prefix-specific-syn:seed1")
            manifests = [models / domain / "manifest.json" for domain in ("EP", "WK", "NV")]
            return sum(json.loads(path.read_text())["n_instances"] for path in manifests)

        size = adapt()
        assert adapt() == size
        assert parsed.count("screened.jsonl") == 1
        screened = workdir / "synthetic/screened.jsonl"
        screened.write_text("".join(screened.read_text().splitlines(keepends=True)[:-1]))
        # within a run a file changes only as a re-running stage's output, which is forgotten
        store.forget([screened])
        assert adapt() == size - 1
        assert parsed.count("screened.jsonl") == 2


def _declared_paths(stages) -> list[Path]:
    """Every distinct path the stage table declares, as an input or an output."""
    return sorted({path for stage in stages for path in (*stage.inputs.values(), *stage.outputs.values())})


def _assert_manifest_matches_disk(workdir) -> None:
    """Every stage record's output digests and stage digest recompute from the files on disk."""
    stored = json.loads((workdir / "run-manifest.json").read_text())
    config = PipelineConfig.from_mapping(stored["config"])
    table = stages(config, workdir)
    assert sorted(stored["stages"]) == sorted(stage.name for stage in table)
    for stage in table:
        record = stored["stages"][stage.name]
        outputs = {key: digest_path(path) for key, path in stage.outputs.items()}
        assert record["outputs"] == outputs, stage.name
        payload = {
            "name": stage.name,
            "config": {key: config.get(key) for key in stage.config_keys},
            "inputs": {key: digest_path(path) for key, path in stage.inputs.items()},
        }
        digest = hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()
        assert record["digest"] == digest, stage.name


class TestDigestOnce:
    """A run hashes each declared path at most once, and what it records matches the disk."""

    @pytest.mark.parametrize("a, b, overlap", [
        ("w/models/base-seed1", "w/models/base-seed1", True),
        ("w/models/base-seed1/manifest.json", "w/models/base-seed1", True),
        ("w/models", "w/models/base-seed1", True),
        ("w/models/base-seed10", "w/models/base-seed1", False),
        ("w/data/train.jsonl", "w/data/train.jsonl.tmp", False),
    ])
    def test_overlap_is_equal_under_or_ancestor(self, a, b, overlap):
        from drsynth.pipeline import _overlaps

        assert _overlaps(Path(a), Path(b)) is overlap
        assert _overlaps(Path(b), Path(a)) is overlap

    def test_noop_resume_hashes_each_declared_path_once(self, grid_run, monkeypatch, caplog):
        import drsynth.pipeline as pipeline

        workdir, config = grid_run
        hashed = []

        def counted(path):
            hashed.append(path)
            return digest_path(path)

        monkeypatch.setattr(pipeline, "digest_path", counted)
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        resume(workdir)
        assert _stages_run(caplog) == []
        assert sorted(hashed) == _declared_paths(stages(config, workdir))

    def test_cold_run_reads_each_workdir_file_once(self, tmp_path, monkeypatch):
        """Hashing, parse-cache keys and ingest's hand-over share one read of each file."""
        workdir = tmp_path / "run"
        reads = Counter()
        read_bytes = Path.read_bytes

        def counted(self):
            reads[self] += 1
            return read_bytes(self)

        monkeypatch.setattr(Path, "read_bytes", counted)
        run_experiment(_config(workdir))
        in_workdir = {path: n for path, n in reads.items() if workdir in path.parents}
        assert in_workdir[workdir / "data/eval.jsonl"] == 1
        assert {path: n for path, n in in_workdir.items() if n > 1} == {}

    def test_manifest_matches_disk_after_every_op(self, tmp_path):
        workdir = tmp_path / "run"
        run_experiment(_config(workdir))
        _assert_manifest_matches_disk(workdir)
        run_experiment(_config(workdir, **{"screening.kind": "combi"}))
        _assert_manifest_matches_disk(workdir)
        (workdir / "synthetic/candidates.jsonl").unlink()
        resume(workdir)
        _assert_manifest_matches_disk(workdir)
        # a corrupted output is hashed by its stage's skip check, then rewritten
        screened = workdir / "synthetic/screened.jsonl"
        screened.write_bytes(screened.read_bytes()[: screened.stat().st_size // 2])
        resume(workdir)
        _assert_manifest_matches_disk(workdir)


# Runs ``drsynth run`` with one stage's action wrapped: the action runs, one of its
# declared outputs is cut to half its bytes, and the process dies before the stage
# is recorded. argv: stage name, output key, config file.
_KILL_CHILD = """
import dataclasses, os, sys
from drsynth import pipeline
from drsynth.cli import main

name, key, config = sys.argv[1:]
table = pipeline.stages


def truncate_half(path):
    if path.is_dir():
        path = max((f for f in path.rglob("*") if f.is_file()), key=lambda f: f.stat().st_size)
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


def killed(action):
    def run(cfg, stage, store):
        action(cfg, stage, store)
        truncate_half(stage.outputs[key])
        os._exit(137)
    return run


def stages(config, workdir):
    return [
        dataclasses.replace(stage, action=killed(stage.action)) if stage.name == name else stage
        for stage in table(config, workdir)
    ]


pipeline.stages = stages
sys.exit(main(["run", "--config", config]))
"""


def _write_config(path, config) -> None:
    path.write_text("".join(f"{key} = {json.dumps(value)}\n" for key, value in config.values.items()))


class TestOneWriterAndKills:
    @pytest.mark.parametrize("name, key", [
        ("fixtures", "source"),
        ("ingest", "train"),
        ("train-base:seed1", "model"),
        ("generate", "candidates"),
        ("screen", "screened"),
        ("pseudo-label", "labeled"),
        ("evaluate:baseline:seed1", "eval"),
        ("adapt:prefix-specific-syn:seed1", "model"),
        ("evaluate:prefix-specific-syn:seed1", "predictions"),
        ("report", "table"),
    ])
    def test_resume_after_a_kill_matches_the_uninterrupted_run(
        self, finished_run, tmp_path, capsys, name, key
    ):
        import drsynth

        reference, _, manifest = finished_run
        workdir = tmp_path / "run"
        config_file = tmp_path / "run.cfg"
        _write_config(config_file, _config(workdir))
        src = str(Path(drsynth.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        child = subprocess.run(
            [sys.executable, "-c", _KILL_CHILD, name, key, str(config_file)],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert child.returncode == 137, child.stderr
        assert name not in json.loads((workdir / "run-manifest.json").read_text())["stages"]
        capsys.readouterr()
        assert main(["resume", str(workdir)]) == 0
        assert f"manifest identity: {manifest.identity_digest()}" in capsys.readouterr().out
        for result in ("results.txt", "results.tsv"):
            assert (workdir / result).read_bytes() == (reference / result).read_bytes()

    @pytest.mark.parametrize("verb", ["run", "resume", "report"])
    def test_second_writer_exits_2_and_runs_no_stage(self, tmp_path, capsys, caplog, verb):
        workdir = tmp_path / "run"
        config = _config(workdir, seeds=[1], **{"adaptation.methods": ["prefix"]})
        config_file = tmp_path / "run.cfg"
        _write_config(config_file, config)
        run_experiment(config)
        results = workdir / "results.txt"
        results.unlink()  # the report stage is stale
        manifest = (workdir / "run-manifest.json").read_bytes()
        argv = ["resume", str(workdir)] if verb == "resume" else [verb, "--config", str(config_file)]
        caplog.set_level(logging.INFO, logger="drsynth.pipeline")
        holder = os.open(workdir, os.O_RDONLY)  # another writer's lock
        try:
            fcntl.flock(holder, fcntl.LOCK_EX | fcntl.LOCK_NB)
            capsys.readouterr()
            assert main(argv) == 2
            assert f"workdir {workdir} is in use by another drsynth run" in capsys.readouterr().err
            assert _stages_run(caplog) == []
            assert not results.exists()
            assert (workdir / "run-manifest.json").read_bytes() == manifest
            assert main(["run", "--config", str(config_file), "--dry-run"]) == 0
        finally:
            os.close(holder)
        assert main(argv) == 0
        assert _stages_run(caplog) == ["report"]
        assert results.exists()
