"""One workload in one process: build inputs, run the ops, check the outputs.

``run.py`` starts this file as a child process, one at a time, with BLAS
and OpenMP pinned to one thread. The child builds its corpora from the
seed, writes ``READY`` on standard output (the end of set-up), then runs
iterations of the ops through ``drsynth.cli.main`` until its time is up
and writes everything it measured to ``--result`` as JSON.

Ops of one iteration, in order, on one workdir:

  cold        ``drsynth run`` on a fresh workdir (empty generation cache)
  rescreen    ``drsynth run`` again with ``screening.kind`` strict -> combi
  regenerate  delete ``synthetic/candidates.jsonl``, then ``drsynth resume``
  noop        ``drsynth resume`` on the up-to-date workdir

With ``--trace 1`` the child runs one untraced ``cold`` (for the tracing
overhead) and then one traced iteration, and reports per-layer numbers.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from stats import manifest_diff, stage_kind

ROOT = Path(__file__).resolve().parents[1]
OPS = ("cold", "rescreen", "regenerate", "noop")
# One iteration. The workdir is up to date after each of the first three
# ops, so noops follow each of them: their samples then spread over the run
# instead of sitting in one moment of it.
SEQUENCE = ("cold", "noop", "rescreen", "noop", "regenerate", "noop")
NOOP_REPEATS = 5  # per position; a noop takes ~50 ms, one sample is mostly noise
STAGE_KINDS = (
    "ingest", "train-base", "generate", "screen", "pseudo-label", "evaluate", "adapt", "report",
)

# span names every workload's traced iteration must hit at least once
COMMON_SPANS = (
    "adaptation.adapt_concat",
    "adaptation.adapt_invariance",
    "reference_backend.iv_step",
    "reference_backend.ce_step",
    "reference_backend.featurize",
    "reference_backend.featurize_pairs",
    "reference_backend.score",
    "adaptation.train_base",
    "adaptation.adapt_prefix",
    "adaptation.batch_predict",
    "adaptation.save_model",
    "adaptation.load_model",
    "records.ingest",
    "records.write",
    "generation.batch",
    "generation.request",
    "generation.complete",
    "generation.postprocess",
    "generation.cache_put",
    "generation.cache_load",
    "prompts.render",
    "screening.screen",
    "evaluation.score",
    "evaluation.render",
    "pipeline.digest",
    "pipeline.manifest_save",
)


@dataclass(frozen=True)
class Workload:
    name: str
    shape: str  # "tiny" or "full": the source and target shapes the fixtures: specs build
    raw_docs: tuple[int, int]  # (documents per domain, sentences per document)
    config: dict
    expected_spans: tuple[str, ...]
    domains: tuple[str, ...] = ("EP", "WK", "NV")
    n_variants: int = field(init=False)

    def __post_init__(self) -> None:
        variants = len(self.config["adaptation.methods"]) * len(self.config["adaptation.domain_modes"])
        object.__setattr__(self, "n_variants", variants)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="grid-tiny",
            shape="tiny",
            raw_docs=(3, 16),
            config={
                "adaptation.methods": ["concat", "prefix", "invariance", "pseudo"],
                "adaptation.domain_modes": ["specific", "mixed"],
                "seeds": [1, 2],
                "pseudo.per_domain_n": 30,
            },
            expected_spans=COMMON_SPANS + ("pseudo_label.label", "evaluation.t_test"),
        ),
        Workload(
            name="corpus-full",
            shape="full",
            raw_docs=(8, 60),
            config={
                "adaptation.methods": ["concat", "prefix", "invariance"],
                "adaptation.domain_modes": ["mixed"],
                "seeds": [1],
                "base.epochs": 20,
            },
            expected_spans=COMMON_SPANS,
        ),
    )
}


def build_inputs(workload: Workload, seed: int, inputs: Path) -> dict[str, str]:
    """Corpora in the canonical format, from ``fixtures.build_*`` and the seed."""
    from drsynth import fixtures

    shutil.rmtree(inputs, ignore_errors=True)
    inputs.mkdir(parents=True)
    paths = {kind: inputs / f"{kind}.jsonl" for kind in ("source", "target", "raw")}
    if workload.shape == "full":
        fixtures.build_source_corpus(paths["source"], seed=seed)
        fixtures.build_target_corpus(paths["target"], domains=workload.domains, seed=seed + 1)
    else:
        fixtures.build_source_corpus(paths["source"], counts=fixtures.tiny_source_counts(), seed=seed)
        fixtures.build_target_corpus(
            paths["target"],
            counts=fixtures.tiny_target_counts(per_domain=4),
            domains=workload.domains,
            seed=seed + 1,
            no_relation_extra=3,
        )
    docs, sentences = workload.raw_docs
    fixtures.build_raw_corpus(
        paths["raw"],
        domains=workload.domains,
        docs_per_domain=docs,
        sentences_per_doc=sentences,
        seed=seed + 2,
    )
    return {kind: _sha256(path) for kind, path in paths.items()}


def write_configs(workload: Workload, seed: int, work: Path, workdir: Path) -> dict[str, Path]:
    """``cold.cfg`` (strict screen) and ``rescreen.cfg`` (combi screen)."""
    inputs = work / "inputs"
    values = {
        "workdir": str(workdir),
        "domains": list(workload.domains),
        "data.source": str(inputs / "source.jsonl"),
        "data.target": str(inputs / "target.jsonl"),
        "data.raw": str(inputs / "raw.jsonl"),
        "generation.backends": ["mock"],
        "generation.seed": seed,
        **workload.config,
    }
    configs = {}
    for op, screen in (("cold", "strict"), ("rescreen", "combi")):
        lines = [f"{key} = {json.dumps(value)}" for key, value in {**values, "screening.kind": screen}.items()]
        configs[op] = work / f"{op}.cfg"
        configs[op].write_text("\n".join(lines) + "\n", "utf-8")
    return configs


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _stages(workdir: Path) -> dict[str, dict]:
    manifest = workdir / "run-manifest.json"
    if not manifest.exists():
        return {}
    return json.loads(manifest.read_text("utf-8")).get("stages", {})


def check_table(workload: Workload, workdir: Path) -> tuple[dict[str, bytes], list[str]]:
    """``results.txt`` and ``results.tsv``, and what is wrong with their shape."""
    outputs: dict[str, bytes] = {}
    problems: list[str] = []
    for name in ("results.txt", "results.tsv"):
        path = workdir / name
        if not path.exists():
            problems.append(f"{name} missing")
        else:
            outputs[name] = path.read_bytes()
    if problems:
        return outputs, problems
    rows = outputs["results.txt"].decode("utf-8").splitlines()
    if len(rows) != 2 + 1 + workload.n_variants:
        problems.append(f"results.txt has {len(rows)} lines, expected {3 + workload.n_variants}")
    elif not rows[2].startswith("baseline"):
        problems.append("results.txt row 1 is not the baseline")
    tsv = outputs["results.tsv"].decode("utf-8").splitlines()
    expected = 1 + (1 + workload.n_variants) * len(workload.domains)
    if len(tsv) != expected:
        problems.append(f"results.tsv has {len(tsv)} lines, expected {expected}")
    return outputs, problems


class Runner:
    """Runs ops through ``drsynth.cli.main`` and checks what each one leaves."""

    def __init__(self, workload: Workload, configs: dict[str, Path], workdir: Path):
        from drsynth import cli

        self.cli = cli
        self.workload = workload
        self.configs = configs
        self.workdir = workdir
        self.reference: dict[int, dict[str, bytes]] = {}  # step -> first iteration's outputs
        self.records: list[dict] = []

    def argv(self, op: str) -> list[str]:
        if op in ("cold", "rescreen"):
            return ["run", "--config", str(self.configs[op]), "--workdir", str(self.workdir)]
        return ["resume", str(self.workdir)]

    def run_op(self, op: str, iteration: int, step: int, tracer=None) -> dict:
        if op == "cold":
            shutil.rmtree(self.workdir, ignore_errors=True)
        if op == "regenerate":
            (self.workdir / "synthetic" / "candidates.jsonl").unlink(missing_ok=True)
        before = _stages(self.workdir)
        if tracer is not None:
            tracer.set_op(op)
        stdout = io.StringIO()
        problems: list[str] = []
        cpu0 = time.process_time()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(stdout):
                code = self.cli.main(self.argv(op))
        except (Exception, SystemExit) as exc:  # a raw traceback breaks the exit-code contract
            code = None
            problems.append(f"cli.main raised {exc!r}")
        seconds = time.perf_counter() - start
        cpu_seconds = time.process_time() - cpu0
        if code is not None and code != 0:
            problems.append(f"exit code {code}")

        identity = None
        for line in stdout.getvalue().splitlines():
            if line.startswith("manifest identity: "):
                identity = line.split(": ", 1)[1]
        after = _stages(self.workdir)
        diff = manifest_diff(before, after)
        stage_s = {kind: 0.0 for kind in STAGE_KINDS}
        for name in diff.run:
            kind = stage_kind(name)
            stage_s[kind] = stage_s.get(kind, 0.0) + float(after[name].get("wall_clock", 0.0))

        outputs, shape_problems = check_table(self.workload, self.workdir)
        problems += shape_problems
        reference = self.reference.setdefault(step, outputs)
        if outputs != reference:
            problems.append(f"results differ from iteration 1 of step {step} ({op})")
        if op == "regenerate":
            rescreened = next(
                (r for r in reversed(self.records) if r["op"] == "rescreen" and r["iteration"] == iteration),
                None,
            )
            if rescreened is not None and rescreened["results_sha256"] != _digests(outputs):
                problems.append("results after regenerate differ from results after rescreen")
        record = {
            "op": op,
            "iteration": iteration,
            "step": step,
            "seconds": seconds,
            "cpu_seconds": cpu_seconds,
            "ok": not problems,
            "problems": problems,
            "identity": identity,
            "stages_run": len(diff.run),
            "stages_skipped": len(diff.skipped),
            "stages_pruned": len(diff.pruned),
            "stages_run_names": diff.run,
            "stage_s": stage_s,
            "results_sha256": _digests(outputs),
        }
        self.records.append(record)
        return record

    def iteration(self, iteration: int, tracer=None, noop_repeats: int = NOOP_REPEATS) -> None:
        for step, op in enumerate(SEQUENCE):
            for _ in range(noop_repeats if op == "noop" else 1):
                self.run_op(op, iteration, step, tracer)


def _digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in sorted(outputs.items())}


def traced_iteration(runner: Runner, workload: Workload) -> dict:
    """One untraced ``cold``, then one traced iteration; per-layer numbers."""
    from tracing import Tracer, layer_metrics

    untraced = runner.run_op("cold", 0, 0)
    tracer = Tracer()
    tracer.install()
    try:
        runner.iteration(1, tracer, noop_repeats=1)
    finally:
        tracer.uninstall()
    traced = [r for r in runner.records if r["iteration"] == 1]

    calls = Counter(span.name for span in tracer.spans)
    missing = [name for name in workload.expected_spans if calls[name] == 0]
    by_op = {}
    for op in OPS:
        spans = [s for s in tracer.spans if s.op == op]
        distinct = len(tracer.featurize_inputs.get(op, ()))
        by_op[op] = layer_metrics(spans, tracer.counts[op], distinct)
    total_counts = sum(tracer.counts.values(), start=Counter())
    distinct_all = len(set().union(*tracer.featurize_inputs.values()))
    layers = layer_metrics(tracer.spans, total_counts, distinct_all)
    if layers["generation.cache_hits"] == 0:
        missing.append("generation.cache_hits")

    for kind in STAGE_KINDS:
        layers[f"pipeline.stage_s.{kind}"] = sum(r["stage_s"].get(kind, 0.0) for r in traced)
    layers["pipeline.stages_run"] = sum(r["stages_run"] for r in traced)
    layers["pipeline.stages_skipped"] = sum(r["stages_skipped"] for r in traced)
    for op in OPS:
        layers[f"pipeline.stages_run.{op}"] = sum(r["stages_run"] for r in traced if r["op"] == op)
    identities = {r["op"]: r["identity"] for r in traced}
    layers["pipeline.regenerate_identity_kept"] = int(
        identities["regenerate"] is not None and identities["regenerate"] == identities["rescreen"]
    )
    cold = next(r for r in traced if r["op"] == "cold")
    layers["bench.tracing_overhead_s"] = cold["seconds"] - untraced["seconds"]
    return {
        "layers": layers,
        "layers_by_op": by_op,
        "calls": dict(sorted(calls.items())),
        "missing": missing,
        "spans": len(tracer.spans),
    }


def describe_environment() -> dict[str, object]:
    """Versions and core count recorded beside every result."""
    import numpy

    blas = "unknown"
    try:
        info = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name', '?')} {info.get('version', '?')}"
    except (TypeError, KeyError):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads_env": {
            key: os.environ.get(key)
            for key in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work", required=True, help="scratch directory of this workload")
    parser.add_argument("--result", help="where to write the measurements (JSON)")
    parser.add_argument("--setup-only", action="store_true", help="exit after set-up")
    args = parser.parse_args(argv)

    import_start = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import drsynth
    from drsynth import cli  # noqa: F401  (imported here so set-up pays for it)

    if not Path(drsynth.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"drsynth imported from {drsynth.__file__}, not from this checkout", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - import_start

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    corpora = build_inputs(workload, args.seed, work / "inputs")
    workdir = work / "run"
    configs = write_configs(workload, args.seed, work, workdir)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    runner = Runner(workload, configs, workdir)
    result: dict = {"workload": workload.name, "seed": args.seed, "import_s": import_s, "corpora_sha256": corpora}
    if args.trace:
        result.update(traced_iteration(runner, workload))
    else:
        # Closed loop: iterations back to back while at least half an
        # iteration's time is left, so a run lasts --seconds give or take
        # half an iteration, and always at least one iteration.
        started = time.perf_counter()
        iteration = 0
        while True:
            iteration += 1
            runner.iteration(iteration)
            elapsed = time.perf_counter() - started
            if elapsed + 0.5 * elapsed / iteration > args.seconds:
                break
        result["iterations"] = iteration
    result["ops"] = runner.records
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = describe_environment()
    Path(args.result).write_text(json.dumps(result, indent=1, sort_keys=True) + "\n", "utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
