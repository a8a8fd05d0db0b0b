"""drsynth benchmark: runs each workload in a child process and reports its metrics.

    python3 bench/run.py --workload grid-tiny --seed 1 --seconds 40 --trace 0

Runs one workload (or ``--workload all``, one after another) in child
processes started one at a time, with BLAS and OpenMP pinned to one
thread. Each child is a closed loop with one client: an op starts when the
previous one returns. With ``--trace 0`` this script starts the child three
times: twice only to time set-up, and once to set up and run the ops for
``--seconds``. It prints every end-to-end metric by name with its unit and,
as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. With ``--trace 1`` it runs the traced child
once and the metrics are the per-layer numbers. See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

from stats import quartiles, ratio

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("grid-tiny", "corpus-full")
SETUPS = 3  # set-ups timed per untraced run; setup_s is their median
CHILD_TIMEOUT_S = 170.0
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("experiment_s", "s", "cold"),
    ("rescreen_s", "s", "rescreen"),
    ("regenerate_s", "s", "regenerate"),
    ("resume_noop_s", "s", "noop"),
)


class BenchError(RuntimeError):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for key in PINNED_THREADS:
        env[key] = "1"
    return env


def git_sha() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_child(args: list[str], log: Path, deadline: float) -> float:
    """Run ``workload.py`` to its end; returns the seconds until it said READY.

    A watchdog kills the child at the deadline, so a hung child cannot
    keep the benchmark past its time limit; the child is always reaped.
    """
    started = time.perf_counter()
    with open(log, "ab") as log_handle:
        proc = subprocess.Popen(
            [sys.executable, str(BENCH / "workload.py"), *args],
            stdout=subprocess.PIPE,
            stderr=log_handle,
            env=child_env(),
            cwd=ROOT,
        )
    fired = threading.Event()

    def stop() -> None:
        fired.set()
        proc.kill()

    watchdog = threading.Timer(max(0.0, deadline - started), stop)
    watchdog.start()
    try:
        ready = proc.stdout.readline().strip() == b"READY"
        setup = time.perf_counter() - started
        proc.stdout.read()
    finally:
        proc.wait()
        watchdog.cancel()
        proc.stdout.close()
    if fired.is_set():
        raise BenchError(f"child ran past {CHILD_TIMEOUT_S:.0f} s and was stopped; see {log}")
    if not ready or proc.returncode != 0:
        raise BenchError(f"child exited {proc.returncode}; see {log}")
    return setup


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload's child processes; returns the last child's result."""
    work = ROOT / ".bench_work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    log = work / "child.log"
    result_path = work / "result.json"
    deadline = time.perf_counter() + CHILD_TIMEOUT_S
    common = [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(int(trace)), "--work", str(work.relative_to(ROOT)),
    ]
    setups = [] if trace else [
        run_child([*common, "--setup-only"], log, deadline) for _ in range(SETUPS - 1)
    ]
    setups.append(run_child([*common, "--result", str(result_path)], log, deadline))
    result = json.loads(result_path.read_text("utf-8"))
    result["setups_s"] = setups
    result["git_sha"] = git_sha()
    return result


def summarize(result: dict, trace: bool) -> tuple[dict[str, dict], int, int, list[str]]:
    """Metrics, ops attempted, ops failed, and the lines to print."""
    ops = result["ops"]
    attempted = len(ops)
    failed = sum(not op["ok"] for op in ops)
    lines = [f"== {result['workload']} (seed {result['seed']})"]
    env = result["environment"]
    lines.append(
        f"   git {result['git_sha'] or 'unknown'}; python {env['python']}; numpy {env['numpy']}; "
        f"{env['blas']}; nproc {env['nproc']}; threads {env['threads_env']}"
    )
    metrics: dict[str, dict] = {}
    if trace:
        for name, value in result["layers"].items():
            metrics[name] = {"value": value, "unit": layer_unit(name)}
        lines.append(f"   traced iteration: {result['spans']} spans")
        for name, value in sorted(result["layers"].items()):
            by_op = " ".join(
                f"{op}={_fmt(layer[name])}"
                for op, layer in result["layers_by_op"].items()
                if name in layer
            )
            lines.append(f"   {name:44s} {_fmt(value):>14s} {layer_unit(name):6s} {by_op}")
    else:
        lines.append(f"   iterations: {result['iterations']}")
        for name, unit, op in END_TO_END:
            samples = [r["seconds"] for r in ops if r["op"] == op]
            cpu = [r["cpu_seconds"] for r in ops if r["op"] == op]
            q1, med, q3 = quartiles(samples)
            metrics[name] = {"value": med, "unit": unit}
            lines.append(
                f"   {name:16s} {med:10.4f} {unit:5s} median of n={len(samples)} "
                f"[q1 {q1:.4f}, q3 {q3:.4f}; cpu median {quartiles(cpu)[1]:.4f} s]"
            )
        metrics["peak_rss_mb"] = {"value": result["peak_rss_mb"], "unit": "MB"}
        q1, med, q3 = quartiles(result["setups_s"])
        metrics["setup_s"] = {"value": med, "unit": "s"}
        lines.append(f"   {'peak_rss_mb':16s} {result['peak_rss_mb']:10.4f} MB")
        lines.append(
            f"   {'setup_s':16s} {med:10.4f} s     median of n={len(result['setups_s'])} "
            f"[import {result['import_s']:.4f} s in the last]"
        )
    lines.append(
        f"   {'ops_failed_ratio':16s} {ratio(failed, attempted):10.4f}       "
        f"{failed} failed / {attempted} attempted"
    )
    for op in ops:
        for problem in op["problems"]:
            lines.append(f"   FAILED {op['op']} (iteration {op['iteration']}): {problem}")
    digests = {op["op"]: op["results_sha256"].get("results.txt", "-")[:16] for op in ops}
    lines.append(f"   results.txt sha256 by op: {digests}")
    lines.append(f"   corpora sha256: { {k: v[:16] for k, v in result['corpora_sha256'].items()} }")
    return metrics, attempted, failed, lines


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_ratio", "ratio"), ("_s", "s")):
        if name.endswith(suffix):
            return unit
    if ".stage_s." in name:
        return "s"
    if name.endswith("_kept"):
        return "bool"
    return "count"


def _fmt(value: float) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="drsynth benchmark")
    parser.add_argument("--workload", default="all", choices=("all", *WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "drsynth" / "__init__.py").is_file():
        print(f"drsynth sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    metrics: dict[str, dict] = {}
    attempted = failed = 0
    try:
        for workload in workloads:
            result = run_workload(workload, args.seed, args.seconds, bool(args.trace))
            found, tried, lost, lines = summarize(result, bool(args.trace))
            print("\n".join(lines), flush=True)
            if result.get("missing"):
                raise BenchError(f"traced functions recorded no calls: {result['missing']}")
            prefix = "" if len(workloads) == 1 else f"{workload}."
            metrics.update({prefix + name: value for name, value in found.items()})
            attempted += tried
            failed += lost
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
