"""Command-line entry points.

``run`` executes the whole stage table and ``resume`` re-runs a workdir,
skipping stages whose digest chain is intact. Each stage verb in
``STAGE_VERBS`` runs the table's stages of that kind, whose upstream
artifacts must already exist: ``adapt`` trains the variants' models and
``evaluate`` scores the baseline and every variant.
Exit codes: 0 success, 2 configuration error (or a file that cannot be
read or written), 3 backend/transport error.

``main`` first asks glibc to keep freed memory in the heap (``mallopt``:
mmap threshold 32 MiB, trim threshold 256 MiB). Each full-batch training
step frees megabytes of dense temporaries, and glibc's default dynamic
thresholds hand them back to the kernel, so the next step faults them in
again. The call touches only this process's allocator and no output byte;
on any other libc it does nothing.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import logging
import os
import sys

from .adaptation import ConfigurationError
from .generation import TransportError
from .pipeline import PipelineConfig, resume as resume_run, run_experiment
from .records import (
    CorpusFormatError,
    DEFAULT_SPLIT,
    SplitSpec,
    ingest_raw_corpus,
    ingest_source_corpus,
    ingest_target_corpus,
)
from .taxonomy import LabelError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_BACKEND = 3

# glibc's <malloc.h> parameter numbers, and the values ``main`` sets. 32 MiB is
# the largest mmap threshold every 64-bit glibc accepts (DEFAULT_MMAP_THRESHOLD_MAX)
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3
HEAP_THRESHOLDS = ((M_MMAP_THRESHOLD, 32 << 20), (M_TRIM_THRESHOLD, 256 << 20))


def _glibc() -> ctypes.CDLL | None:
    """The C library this process runs on, if it is glibc."""
    try:
        version = os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or a libc without the name
        return None
    return ctypes.CDLL(None) if version.startswith("glibc") else None


def keep_freed_memory() -> None:
    """Raise glibc's mmap and trim thresholds, so freed blocks stay in the heap.

    Process-local, idempotent and changes no output; a no-op off glibc or
    where ``mallopt`` is missing. Each value is set on its own: a rejected
    one (``mallopt`` returns 0) leaves the other in force, and setting
    either turns off glibc's dynamic thresholds.
    """
    mallopt = getattr(_glibc(), "mallopt", None)
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    for param, value in HEAP_THRESHOLDS:
        mallopt(param, value)


def _load_config(args: argparse.Namespace) -> PipelineConfig:
    if args.config:
        config = PipelineConfig.from_file(args.config)
    else:
        config = PipelineConfig.from_mapping({})
    overrides = {}
    if getattr(args, "seed", None) is not None:
        # a generation seed for ``generate``, the one run seed elsewhere
        if getattr(args, "verb", None) == "generate":
            overrides["generation.seed"] = args.seed
        else:
            overrides["seeds"] = [args.seed]
    if getattr(args, "domain", None):
        overrides["domains"] = [args.domain]
    if getattr(args, "llm", None):
        overrides["generation.backends"] = [args.llm]
    if getattr(args, "template", None):
        overrides["generation.template"] = args.template
    if getattr(args, "n_arg1", None) is not None:
        overrides["generation.n_arg1"] = args.n_arg1
    if getattr(args, "method", None):
        overrides["adaptation.methods"] = [args.method]
    if overrides:
        config = PipelineConfig.from_mapping({**config.values, **overrides})
    return config


def cmd_ingest(args: argparse.Namespace) -> int:
    """Validate and summarize a canonical-format corpus file."""
    if args.format == "source":
        split = SplitSpec.parse(args.split) if args.split else DEFAULT_SPLIT
        result = ingest_source_corpus(args.input, split)
        print(
            json.dumps(
                {
                    "train": len(result.train),
                    "dev": len(result.dev),
                    "dropped": result.dropped,
                }
            )
        )
    elif args.format == "target":
        instances = ingest_target_corpus(args.input)
        per_domain: dict[str, int] = {}
        for inst in instances:
            per_domain[inst.domain] = per_domain.get(inst.domain, 0) + 1
        print(json.dumps({"total": len(instances), "per_domain": per_domain}))
    else:
        docs = ingest_raw_corpus(args.input)
        print(
            json.dumps(
                {"documents": len(docs), "sentences": sum(len(d.sentences) for d in docs)}
            )
        )
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    manifest = run_experiment(_load_config(args), args.workdir, dry_run=args.dry_run)
    if args.dry_run:
        for stage in manifest.data.get("plan", []):
            print(stage)
    else:
        print(f"workdir: {manifest.path.parent}")
        print(f"manifest identity: {manifest.identity_digest()}")
        results = manifest.path.with_name("results.txt")
        if results.exists():
            print(results.read_text("utf-8"), end="")
    return EXIT_OK


def cmd_resume(args: argparse.Namespace) -> int:
    manifest = resume_run(args.manifest)
    print(f"manifest identity: {manifest.identity_digest()}")
    return EXIT_OK


STAGE_VERBS = ("train-base", "generate", "screen", "adapt", "pseudo-label", "evaluate", "report")


def cmd_stage(args: argparse.Namespace) -> int:
    """Run the stages of the verb's kind (upstream artifacts assumed)."""
    run_experiment(_load_config(args), args.workdir, kinds={args.verb})
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="drsynth",
        description="Synthetic-data pipeline for cross-domain discourse relation classification",
    )
    parser.add_argument("-v", "--verbose", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    ingest = sub.add_parser("ingest", help="validate a canonical corpus file")
    ingest.add_argument("--input", required=True)
    ingest.add_argument("--format", choices=("source", "target", "raw"), required=True)
    ingest.add_argument("--split", default=None, help='e.g. "2-20:0-1"')
    ingest.set_defaults(handler=cmd_ingest)

    run = sub.add_parser("run", help="run the full experiment")
    run.add_argument("--config", default=None)
    run.add_argument("--workdir", default=None)
    run.add_argument("--seed", type=int, default=None, help="restrict to one seed")
    run.add_argument("--dry-run", action="store_true")
    run.set_defaults(handler=cmd_run)

    resume = sub.add_parser("resume", help="re-run a workdir, skipping intact stages")
    resume.add_argument("manifest", help="run-manifest.json or its workdir")
    resume.set_defaults(handler=cmd_resume)

    for verb in STAGE_VERBS:
        stage = sub.add_parser(verb, help=f"run the {verb} stage")
        stage.add_argument("--config", default=None)
        stage.add_argument("--workdir", default=None)
        seed_help = "generation seed" if verb == "generate" else "restrict to one seed"
        stage.add_argument("--seed", type=int, default=None, help=seed_help)
        if verb == "generate":
            stage.add_argument("--domain", default=None, help="restrict to one domain")
            stage.add_argument("--llm", default=None, help="backend name override")
            stage.add_argument("--template", choices=("DC", "DR"), default=None)
            stage.add_argument("--n-arg1", type=int, default=None, dest="n_arg1")
        if verb == "adapt":
            stage.add_argument(
                "--method",
                choices=("concat", "prefix", "invariance", "pseudo"),
                default=None,
            )
        stage.set_defaults(handler=cmd_stage, verb=verb)

    return parser


def main(argv: list[str] | None = None) -> int:
    keep_freed_memory()
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        return args.handler(args)
    except (ConfigurationError, CorpusFormatError, LabelError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TransportError as exc:
        print(f"backend error: {exc}", file=sys.stderr)
        return EXIT_BACKEND


if __name__ == "__main__":
    sys.exit(main())
