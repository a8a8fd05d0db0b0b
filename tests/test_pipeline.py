import hashlib
import json
import logging
import os
import shutil
from pathlib import Path

import pytest

from drsynth.adaptation import ConfigurationError
from drsynth.cli import main
from drsynth.pipeline import (
    DEFAULTS,
    ExperimentRunner,
    PipelineConfig,
    _train_rows,
    digest_path,
    parse_config_file,
    resume,
    run_experiment,
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


@pytest.fixture(scope="module")
def finished_run(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("pipeline-run")
    config = _config(workdir)
    manifest = run_experiment(config)
    return workdir, config, manifest


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
        predictions = (workdir / "eval/baseline-seed1-predictions.jsonl").read_text()
        first = json.loads(predictions.splitlines()[0])
        assert {"arg1", "arg2", "votes", "predicted"} <= set(first)

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

    def test_grid_outputs_match_golden_digests(self, tmp_path):
        """Every method in both domain modes (domain tokens included) is pinned too."""
        run_experiment(_config(tmp_path, **GRID_OVERRIDES))
        _assert_golden_digests(tmp_path, "grid_smoke.sha256")

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


def test_dry_run_plans_without_side_effects(tmp_path):
    workdir = tmp_path / "dry"
    manifest = run_experiment(_config(workdir), dry_run=True)
    plan = manifest.data["plan"]
    assert plan[0] == "fixtures"
    assert plan[-1] == "report"
    assert not (workdir / "results.txt").exists()
    assert not (workdir / "data").exists()


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

    def test_bad_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("unknown.key = 1\n")
        assert main(["run", "--config", str(cfg)]) == 2

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
    from drsynth.pipeline import ExperimentRunner
    from drsynth.taxonomy import resolve_label

    workdir = tmp_path / "run"
    runner = ExperimentRunner(_config(workdir, seeds=[1], **{"screening.cmap": "derived"}))
    model_dir = workdir / "models" / "base-seed1"
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
    cmap = runner._confusion_map(1, "derived")
    assert cmap.confusion_of(resolve_label("cause+belief")) == resolve_label("cause")
    assert cmap.confusion_of(resolve_label("purpose")) == resolve_label("condition")
    assert resolve_label("cause") not in cmap


def test_runner_parses_a_file_once_per_content(tmp_path):
    runner = ExperimentRunner(_config(tmp_path / "run", seeds=[1]))
    runner.run(kinds={"fixtures", "ingest"})
    calls = []

    def parse(path):
        calls.append(path)
        return _train_rows(path)

    first = runner._read("data/train.jsonl", parse)
    assert runner._read("data/train.jsonl", parse) is first
    assert len(calls) == 1
    train = tmp_path / "run" / "data" / "train.jsonl"
    stat = train.stat()
    train.write_text("".join(train.read_text().splitlines(keepends=True)[:-1]))
    os.utime(train, ns=(stat.st_atime_ns, stat.st_mtime_ns))  # only the content moved
    second = runner._read("data/train.jsonl", parse)
    assert len(calls) == 2
    assert list(second) == list(first)[:-1]


def _run_action(runner, name, **overrides):
    """Run one stage's action with its config slice, bypassing the digest check."""
    stage = next(stage for stage in runner.stages() if stage.name == name)
    stage.action({**{key: runner.config.get(key) for key in stage.config_keys}, **overrides})


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
    """Each canonical file is parsed once per run and each gold set derived once."""

    @pytest.mark.parametrize("corpora", ["fixtures", "messy"])
    def test_ingest_hands_over_what_parsing_the_written_files_returns(
        self, corpora, tmp_path, tiny_corpus_dir
    ):
        from drsynth.pipeline import _dev_rows
        from drsynth.records import ingest_raw_corpus, ingest_target_corpus

        overrides = {} if corpora == "fixtures" else _messy_corpora(tiny_corpus_dir, tmp_path / "in")
        runner = ExperimentRunner(_config(tmp_path / "run", seeds=[1], **overrides))
        runner.run(kinds={"fixtures", "ingest"})
        for relative, parse in (
            ("data/train.jsonl", _train_rows),
            ("data/dev.jsonl", _dev_rows),
            ("data/eval.jsonl", ingest_target_corpus),
            ("data/raw-canonical.jsonl", ingest_raw_corpus),
        ):
            path = tmp_path / "run" / relative
            digest, rows = runner._parsed[(relative, parse)]
            assert digest == digest_path(path), relative
            assert rows and parse(path) == rows, relative

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
        # a fresh runner that retrains the base models parses each canonical file once
        run_experiment(_config(workdir, **{"base.epochs": 20}))
        assert sorted(calls) == [
            ("_dev_rows", "dev.jsonl"),
            ("_train_rows", "train.jsonl"),
            ("ingest_raw_corpus", "raw-canonical.jsonl"),
            ("ingest_target_corpus", "eval.jsonl"),
        ]

    def test_one_runner_across_vote_thresholds_matches_fresh_runners(self, tmp_path):
        workdir = tmp_path / "run"
        config = _config(workdir, seeds=[1])
        ExperimentRunner(config).run(kinds={"fixtures", "ingest", "train-base"})
        outputs = ("eval/baseline-seed1.json", "eval/baseline-seed1-predictions.jsonl")

        def evaluate(runner, threshold):
            _run_action(runner, "evaluate:baseline:seed1", **{"evaluation.vote_threshold": threshold})
            return [(workdir / name).read_bytes() for name in outputs]

        shared = ExperimentRunner(config)
        low, high = evaluate(shared, 0.4), evaluate(shared, 0.6)
        assert low[0] != high[0]
        assert evaluate(ExperimentRunner(config), 0.4) == low
        assert evaluate(ExperimentRunner(config), 0.6) == high
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
        runner = ExperimentRunner(_config(workdir, seeds=[1], **{"adaptation.methods": ["prefix"]}))
        runner.run(kinds={"fixtures", "ingest", "train-base", "generate", "screen"})
        report = workdir / "eval/prefix-specific-syn-seed1.json"

        def adapt():
            _run_action(runner, "adapt:prefix-specific-syn:seed1")
            return sum(json.loads(report.read_text())["sizes"].values())

        size = adapt()
        assert adapt() == size
        assert parsed.count("screened.jsonl") == 1
        screened = workdir / "synthetic/screened.jsonl"
        screened.write_text("".join(screened.read_text().splitlines(keepends=True)[:-1]))
        assert adapt() == size - 1
        assert parsed.count("screened.jsonl") == 2
