#!/usr/bin/env python3
"""Fast self-test of the benchmark, at a tiny input size.

    python3 perfbench/selftest.py

It checks that:
  * every metric BENCHMARK.json names is on the result line with its unit,
    untraced and traced, for every workload, and that the report before it
    gives every end-to-end metric on each workload it applies to;
  * corrupted predictions files fed to the checkers are caught, and the
    failures are counted against the operations attempted;
  * a directory holding only the benchmark fails without printing a result.
Exits 0 when all pass. Takes well under a minute.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import world  # noqa: E402


def run_tiny(cwd: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc.returncode, proc.stdout.strip().splitlines(), proc.stderr


def test_metrics_emitted() -> list[str]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    wanted = {0: {m["name"]: m["unit"] for m in bench["end_to_end"]},
              1: {m["name"]: m["unit"] for m in bench["per_layer"]}}
    problems = []
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, expected in wanted.items():
            where = f"{workload} --trace {trace}"
            rc, lines, err = run_tiny(ROOT, workload, trace)
            if rc != 0 or len(lines) < 2:
                problems.append(f"{where}: exit {rc}: {err.strip()[-500:]}")
                continue
            line, report = json.loads(lines[-1]), json.loads(lines[-2])
            if set(line) != {"correct", "attempted", "failed", "metrics"} or not line["correct"]:
                problems.append(f"{where}: bad result line {lines[-1][:200]}")
            units = {name: m["unit"] for name, m in line["metrics"].items()}
            if units != expected:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(units) ^ set(expected))}")
            if any(not isinstance(m["value"], (int, float)) for m in line["metrics"].values()):
                problems.append(f"{where}: a metric has no value")
            for name, (unit, _, only) in run.END_TO_END.items():
                m = report["end_to_end"].get(name, {})
                applies = only is None or workload in only
                if (m.get("unit") != unit or m.get("applies", True) != applies
                        or (applies and m.get("median") is None)):
                    problems.append(f"{where}: end-to-end metric {name} reported as {m}")
    return problems


def test_corruption_caught() -> list[str]:
    import workloads

    problems = []
    tmp = run.WORK / f"selftest-{os.getpid()}"
    try:
        w = world.prepare("large_vocab", 3, ROOT, tmp / "world", "tiny")
        inputs = workloads.load_inputs(w)
        out = tmp / "out"
        with contextlib.redirect_stdout(io.StringIO()):
            records, _ = workloads.run_commands(workloads.commands(w, out))
        if any(r["rc"] != 0 for r in records):
            return [f"tiny large_vocab commands failed: {records}"]
        if not all(ok for _, ok, _ in workloads.check(w, inputs, out, oracle=True)["checks"]):
            return ["checks fail on clean outputs"]

        pred = out / "probe" / "predictions.jsonl"
        clean = pred.read_text(encoding="utf-8")
        rows = [json.loads(line) for line in clean.splitlines()]
        gold = {q["query_id"]: q["answers"][0]
                for q in workloads.read_jsonl(out / "curated" / "full.jsonl")}
        missed = next(r for r in rows if r["candidates"][0][0] != gold[r["query_id"]])
        corruptions = {
            "reversed ranking": [dict(r, candidates=r["candidates"][::-1]) for r in rows],
            "gold answer written in": [
                dict(r, candidates=[[gold[r["query_id"]], r["candidates"][0][1]]]
                     + r["candidates"][1:]) if r is missed else r for r in rows],
            "truncated file": None,
        }
        for label, corrupted in corruptions.items():
            text = (clean[:len(clean) // 2] if corrupted is None
                    else "".join(json.dumps(r) + "\n" for r in corrupted))
            pred.write_text(text, encoding="utf-8")
            result = workloads.check(w, inputs, out, oracle=True)
            result["commands"] = records
            tally = run.Tally()
            tally.iteration(0, result, "")
            if tally.failed == 0 or tally.attempted <= tally.failed:
                problems.append(f"{label}: not counted as a failure "
                                f"({tally.failed}/{tally.attempted}): {result['checks']}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return problems


def test_fails_without_program() -> list[str]:
    tmp = run.WORK / f"selftest-bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, tmp / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", tmp / "BENCHMARK.json")
        rc, lines, _ = run_tiny(tmp, "demo", 0)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return [] if rc != 0 and not lines else [f"bare directory: exit {rc}, printed {lines[-1:]}"]


def main() -> int:
    failed = 0
    for test in (test_metrics_emitted, test_corruption_caught, test_fails_without_program):
        problems = test()
        print(f"{'ok  ' if not problems else 'FAIL'} {test.__name__}")
        for problem in problems:
            print(f"     {problem}")
        failed += bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
