#!/usr/bin/env python3
"""Benchmark of the probeforge pipeline: curate -> rewire -> probe -> eval.

    python3 perfbench/run.py --workload demo --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its src/.
One client issues commands one after another (a closed loop). Each
iteration is a fresh process, so set-up time and peak RSS are those a user
pays per invocation. The run keeps starting iterations while the next one
is expected to end within --seconds, and reports medians.

With --trace 0 the last line of stdout holds the end-to-end metrics; with
--trace 1 it holds the per-layer metrics, from iterations that alternate
traced and untraced so the tracing overhead is measured in the same run.
The lines before it give every metric with its sample count and the
environment. The exit code is 0 only if every command and check passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import world as worlds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
WORKLOADS = ("demo", "large_vocab", "large_corpus")
SIZES = ("full", "tiny")

WARMUP_S = 2.0            # busy time on every core before anything is timed
SETUP_PROBES = 5          # set-up-only processes per run, besides the iterations
MIN_ITERATIONS = 2        # byte-identity needs two; a traced run needs one of each
DEADLINE_S = 165          # no child may run past this point of the run

# end-to-end metrics: unit, better, the workloads they exist on (None: all)
END_TO_END = {
    "setup_s": ("s", "lower", None),
    "wall_s": ("s", "lower", None),
    "peak_rss_mb": ("MiB", "lower", None),
    "rewire_pairs_per_s": ("1/s", "higher", ("demo", "large_corpus")),
    "probe_queries_per_s": ("1/s", "higher", ("demo", "large_vocab")),
    "sweep_s": ("s", "lower", ("demo",)),
    "acc1_micro": ("ratio", "higher", ("demo", "large_vocab")),
    "acc10_micro": ("ratio", "higher", ("demo", "large_vocab")),
    "error_rate": ("ratio", "lower", None),
}
# the ones that exist on every workload and are never zero go on the result
# line, where each run is compared against the parent commit's
GATED = ("setup_s", "wall_s", "peak_rss_mb")

PER_LAYER = {
    "cli.curate_s": "s", "cli.rewire_s": "s", "cli.probe_s": "s",
    "cli.eval_s": "s", "cli.sweep_s": "s", "cli.self_s": "s",
    "curator.load_triples_s": "s", "curator.group_queries_s": "s",
    "curator.split_hard_s": "s", "curator.load_dataset_s": "s", "curator.self_s": "s",
    "rewire.train_s": "s", "rewire.step_p50_s": "s", "rewire.step_p99_s": "s",
    "rewire.steps": "count", "rewire.loss_s": "s", "rewire.self_s": "s",
    "rewire.sample_s": "s", "rewire.checkpoint_s": "s", "rewire.checkpoints": "count",
    "rewire.checkpoint_bytes": "bytes", "rewire.peak_rss_delta_mb": "MiB",
    "encoders.forward_train_s": "s", "encoders.backward_train_s": "s",
    "encoders.encode_s": "s", "encoders.load_checkpoint_s": "s",
    "encoders.encode_texts": "count", "encoders.distinct_texts": "count",
    "encoders.self_s": "s",
    "probers.index_build_s": "s", "probers.query_encode_s": "s", "probers.rank_s": "s",
    "probers.scores_computed": "count", "probers.save_predictions_s": "s",
    "probers.peak_rss_delta_mb": "MiB", "probers.self_s": "s",
    "evaluation.load_predictions_s": "s", "evaluation.score_s": "s",
    "evaluation.aggregate_s": "s", "evaluation.self_s": "s",
    "text.truncate_calls": "count", "text.truncate_s": "s", "text.self_s": "s",
    "trace.spans": "count", "trace.overhead_pct": "%",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=SIZES, default="full",
                        help="input size; tiny is for the self-test only")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


# ---------------------------------------------------------------------------
# statistics

def describe(samples: list[float]) -> dict:
    """Median, plus the highest of p75/p90/p99/p99.9 that has at least ten
    samples beyond it (nearest rank), with the sample count."""
    out = {"median": statistics.median(samples), "n": len(samples)}
    for pct in (99.9, 99, 90, 75):
        if len(samples) * (1 - pct / 100) >= 10:
            out[f"p{pct:g}"] = nearest_rank(samples, pct)
            break
    return out


def nearest_rank(samples: list[float], pct: float) -> float:
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


# ---------------------------------------------------------------------------
# environment

def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS", "unset (default)"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS", "unset (default)"),
        "git_commit": git_commit(ROOT),
        "source_sha256": source_digest(ROOT / "src" / "probeforge"),
    }


def git_commit(root: Path) -> str:
    """HEAD of the checkout, read from .git without searching parent dirs."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest(package: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(package.rglob("*.py")):
        digest.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# child processes

class SetupFailed(Exception):
    pass


def spawn(spec: dict, run_dir: Path, name: str, timeout: float) -> tuple[dict | None, str]:
    """Run child.py on a spec; return its result (None if it failed) and
    the tail of its stderr. Set-up time is measured from just before the
    process is created, on the system-wide monotonic clock."""
    spec = dict(spec, result=str(run_dir / f"{name}.result.json"))
    spec_path = run_dir / f"{name}.spec.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    spawned = time.monotonic()
    try:
        proc = subprocess.run([sys.executable, str(HERE / "child.py"), str(spec_path)],
                              cwd=ROOT, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        return None, f"{name}: timed out after {timeout:.0f} s"
    err = "\n".join(proc.stderr.decode("utf-8", "replace").strip().splitlines()[-3:])
    if proc.returncode == 3:
        raise SetupFailed(err)
    if proc.returncode != 0:
        return None, err
    result = json.loads(Path(spec["result"]).read_text(encoding="utf-8"))
    expected = (ROOT / "src" / "probeforge" / "__init__.py").resolve()
    if Path(result["module"]) != expected:
        raise SetupFailed(f"probeforge resolved to {result['module']}, not {expected}")
    result["setup_s"] = result["ready"] - spawned
    return result, err


# ---------------------------------------------------------------------------
# the run

class Tally:
    """Operations attempted and failed. An operation is a command issued, a
    correctness check, or the comparison of an iteration's outputs with the
    first iteration's; a process that crashed counts as one failed operation."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []
        self._reference = None

    @property
    def failed(self) -> int:
        return len(self.failures)

    def record(self, ok: bool, failure: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(failure)

    def iteration(self, i: int, result: dict | None, err: str) -> None:
        if result is None:
            self.record(False, f"iteration {i} crashed: {err}")
            return
        for rec in result["commands"]:
            self.record(rec["rc"] == 0,
                        f"iteration {i}: {rec['command']} exited {rec['rc']}: {err}")
        for name, ok, detail in result.get("checks", []):
            self.record(ok, f"iteration {i}: check {name} failed: {detail}")
        if "digests" in result:
            outputs = (result["digests"], result.get("encodings_sha256"))
            if self._reference is None:
                self._reference = outputs
            self.record(outputs == self._reference,
                        f"iteration {i}: outputs differ from the first iteration")


def warm_up(seconds: float) -> None:
    """Keep the cores busy for a moment. On a virtual machine whose CPUs
    were idle, the first seconds of work run markedly slower, which would
    otherwise land in the first timed sample."""
    a = np.random.default_rng(0).random((400, 400))
    end = time.monotonic() + seconds
    while time.monotonic() < end:
        a = a @ a
        a /= np.abs(a).max()


def run(args, run_dir: Path) -> dict:
    started = time.monotonic()
    world = worlds.prepare(args.workload, args.seed, ROOT, run_dir / "world", args.size)
    base = {"root": str(ROOT), "world": world, "trace": False, "oracle": False}
    warm_up(WARMUP_S)

    setups: list[float] = []
    for i in range(SETUP_PROBES):
        result, err = spawn(dict(base, mode="setup"), run_dir, f"setup{i}",
                            DEADLINE_S - (time.monotonic() - started))
        if result is None:
            raise SetupFailed(err)
        setups.append(result["setup_s"])

    measure_start = time.monotonic()
    iterations: list[dict] = []
    tally = Tally()
    while True:
        i = len(iterations)
        traced = bool(args.trace) and i % 2 == 0
        out = run_dir / f"iter{i}"
        spec = dict(base, mode="iteration", trace=traced, oracle=(i == 0), out=str(out),
                    spans=str(run_dir / f"iter{i}.spans.json"))
        t0 = time.monotonic()
        result, err = spawn(spec, run_dir, f"iter{i}", DEADLINE_S - (t0 - started))
        duration = time.monotonic() - t0
        tally.iteration(i, result, err)
        if result is None:
            iterations.append({"traced": traced, "duration": duration, "ok": False})
        else:
            setups.append(result["setup_s"])
            result.update(traced=traced, duration=duration, ok=True)
            if traced:
                keep = WORK / "last_trace"
                keep.mkdir(parents=True, exist_ok=True)
                shutil.move(spec["spans"], keep / f"{args.workload}.spans.json")
            iterations.append(result)
            shutil.rmtree(out, ignore_errors=True)
        elapsed = time.monotonic() - measure_start
        typical = statistics.median(it["duration"] for it in iterations)
        if len(iterations) >= MIN_ITERATIONS and elapsed + typical > args.seconds:
            break
        if time.monotonic() - started + typical > DEADLINE_S:
            break

    report = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds,
        "measured_s": time.monotonic() - measure_start,
        "world": {k: v for k, v in world.items() if k.startswith("n_")},
        "environment": environment(),
        "probeforge_module": next((it["module"] for it in iterations if "module" in it), None),
        "iterations": len(iterations),
        "attempted": tally.attempted, "failed": tally.failed, "failures": tally.failures,
        "end_to_end": end_to_end(args.workload, setups, iterations, tally),
        "command_wall_s": command_walls(iterations),
    }
    if args.trace:
        report["per_layer"] = per_layer(iterations)
    return report


def end_to_end(workload: str, setups, iterations, tally: Tally) -> dict:
    plain = [it for it in iterations if it["ok"] and not it["traced"]]
    samples: dict[str, list[float]] = {"setup_s": setups}
    samples["wall_s"] = [it["wall_s"] for it in plain]
    samples["peak_rss_mb"] = [it["peak_rss_mb"] for it in plain]
    samples["rewire_pairs_per_s"] = [it["pairs_per_rewire"] / c["wall_s"]
                                     for it in plain for c in it["commands"]
                                     if c["command"] == "rewire" and "pairs_per_rewire" in it]
    samples["probe_queries_per_s"] = [it["queries"] / c["wall_s"]
                                      for it in plain for c in it["commands"]
                                      if c["command"] == "probe" and "queries" in it]
    samples["sweep_s"] = [sum(c["wall_s"] for c in it["commands"] if c["command"] == "sweep")
                          for it in plain if workload == "demo"]
    samples["acc1_micro"] = [it["accuracy"]["1"] for it in plain if "accuracy" in it]
    samples["acc10_micro"] = [it["accuracy"]["10"] for it in plain if "accuracy" in it]
    out = {}
    for name, (unit, better, where) in END_TO_END.items():
        head = {"unit": unit, "better": better}
        if where is not None and workload not in where:
            out[name] = dict(head, applies=False)
        elif name == "error_rate":
            out[name] = dict(head, median=tally.failed / max(tally.attempted, 1),
                             n=tally.attempted)
        elif samples[name]:
            out[name] = dict(head, **describe(samples[name]))
        else:
            out[name] = dict(head, median=None, n=0)
    return out


def command_walls(iterations) -> dict:
    """Wall time of each command position over the untraced iterations."""
    walls: dict[str, list[float]] = {}
    for it in iterations:
        if it["ok"] and not it["traced"]:
            for pos, rec in enumerate(it["commands"]):
                walls.setdefault(f"{pos}.{rec['command']}", []).append(rec["wall_s"])
    return {name: describe(samples) for name, samples in walls.items()}


def per_layer(iterations) -> dict:
    traced = [it for it in iterations if it["ok"] and it["traced"] and "layers" in it]
    plain = [it["wall_s"] for it in iterations if it["ok"] and not it["traced"]]
    out = {}
    if traced:
        for name in traced[0]["layers"]:
            out[name] = statistics.median(it["layers"][name] for it in traced)
        steps = [s for it in traced for s in it["step_s"]]
        out["rewire.step_p50_s"] = nearest_rank(steps, 50) if steps else 0.0
        out["rewire.step_p99_s"] = nearest_rank(steps, 99) if steps else 0.0
        if plain:
            traced_wall = statistics.median(it["wall_s"] for it in traced)
            out["trace.overhead_pct"] = 100 * (traced_wall / statistics.median(plain) - 1)
    return out


def result_line(report: dict) -> dict:
    if report["trace"]:
        values = report.get("per_layer", {})
        metrics = {name: {"value": values.get(name), "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        e2e = report["end_to_end"]
        metrics = {name: {"value": e2e[name].get("median"), "unit": END_TO_END[name][0]}
                   for name in GATED}
    failed = report["failed"]
    return {"correct": failed == 0 and all(m["value"] is not None for m in metrics.values()),
            "attempted": max(report["attempted"], 1), "failed": failed, "metrics": metrics}


def print_report(report: dict) -> None:
    print(f"perfbench {report['workload']} seed={report['seed']} size={report['size']} "
          f"trace={report['trace']}: {report['iterations']} iterations in "
          f"{report['measured_s']:.1f} s, {report['failed']}/{report['attempted']} failed")
    for name, m in report["end_to_end"].items():
        if not m.get("applies", True):
            print(f"  {name:22s} n/a on this workload")
        elif m.get("median") is not None:
            tail = "".join(f" {k}={v:.6g}" for k, v in m.items() if k.startswith("p"))
            print(f"  {name:22s} median={m['median']:.6g} {m['unit']}{tail} (n={m['n']})")
    for name, value in report.get("per_layer", {}).items():
        print(f"  {name:30s} {value:.6g} {PER_LAYER.get(name, '')}")
    for line in report["failures"]:
        print(f"  FAILED {line}")
    print(json.dumps(report, sort_keys=True))


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "probeforge" / "__init__.py").is_file():
        print(f"perfbench: no probeforge package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    run_dir = WORK / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    try:
        report = run(args, run_dir)
    except SetupFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print_report(report)
    line = result_line(report)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
