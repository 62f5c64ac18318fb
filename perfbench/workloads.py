"""The benchmark's workloads: the commands each one issues and the checks
that its outputs are correct.

Every command goes through probeforge.cli.main(argv), one after the other,
as a user at a shell would issue them. The checkers read output files with
their own parsing and normalization, so a corrupted file is caught even if
the program's own loaders would accept it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import string
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

from probeforge import cli
from probeforge.curator import load_triples
from probeforge.encoders import encoder_from_spec, load_checkpoint, save_checkpoint
from probeforge.probers import load_entities
from probeforge.rewire import RewireConfig

# micro accuracy of the final full-split eval of the bundled demo
DEMO_PINS = {"1": 0.296, "10": 0.926}
ORACLE_SAMPLE = 64
RELOAD_SAMPLE = 64
SCORE_TOL = 1e-9

_STRIP = string.punctuation + string.whitespace


# ---------------------------------------------------------------------------
# inputs and commands

def load_inputs(world: dict) -> dict:
    """Read the workload's inputs the way the program will see them."""
    inputs = {}
    if "triples" in world:
        inputs["triples"] = load_triples(world["triples"]).triples
    if "entities" in world:
        inputs["entities"] = load_entities(world["entities"])
    if "config" in world:
        inputs["config"] = RewireConfig.from_json(world["config"])
    if "corpus" in world:
        inputs["corpus_lines"] = Path(world["corpus"]).read_text(encoding="utf-8").splitlines()
    return inputs


def commands(world: dict, out: Path) -> list[list[str]]:
    w, enc = world, world["encoder"]
    if w["workload"] == "demo":
        # the sequence of scripts/run_demo.py, then the two sweeps
        ds = str(out / "curated" / "full.jsonl")
        probe = ["--dataset", ds, "--entities", w["entities"], "--strategy", "contrastive"]
        sweep = ["--encoder", enc, "--corpus", w["corpus"], "--config", w["config"],
                 "--dataset", ds, "--entities", w["entities"]]
        return [
            ["curate", "--triples", w["triples"], "--seed", "7", "--out", str(out / "curated")],
            ["probe", "--encoder", enc, *probe, "--out", str(out / "probe_untrained")],
            ["eval", "--predictions", str(out / "probe_untrained" / "predictions.jsonl"),
             "--dataset", ds, "--out", str(out / "eval_untrained")],
            ["rewire", "--encoder", enc, "--corpus", w["corpus"], "--config", w["config"],
             "--out", str(out / "rewired")],
            ["probe", "--checkpoint", str(out / "rewired"), *probe,
             "--out", str(out / "probe_rewired")],
            ["eval", "--predictions", str(out / "probe_rewired" / "predictions.jsonl"),
             "--dataset", ds, "--out", str(out / "eval_rewired")],
            ["eval", "--predictions", str(out / "probe_rewired" / "predictions.jsonl"),
             "--dataset", ds, "--split", "hard", "--out", str(out / "eval_rewired_hard")],
            ["sweep", "--axis", "checkpoint-step", "--values", w["step_values"], *sweep,
             "--out", str(out / "sweep_steps")],
            ["sweep", "--axis", "seed", "--values", w["seed_values"], "--workers", "2",
             *sweep, "--out", str(out / "sweep_seeds")],
        ]
    if w["workload"] == "large_vocab":
        ds = str(out / "curated" / "full.jsonl")
        return [
            ["curate", "--triples", w["triples"], "--seed", "7", "--out", str(out / "curated")],
            ["probe", "--encoder", enc, "--dataset", ds, "--entities", w["entities"],
             "--strategy", "contrastive", "--k", "10", "--out", str(out / "probe")],
            ["eval", "--predictions", str(out / "probe" / "predictions.jsonl"),
             "--dataset", ds, "--split", "full", "--out", str(out / "eval")],
        ]
    if w["workload"] == "large_corpus":
        return [["rewire", "--encoder", enc, "--corpus", w["corpus"],
                 "--config", w["config"], "--out", str(out / "rewired")]]
    raise ValueError(f"unknown workload {w['workload']!r}")


def run_commands(argvs: list[list[str]], tracer=None) -> tuple[list[dict], float]:
    """Issue the commands in order; stop at the first failure.

    Returns one record per issued command and the end time of the last.
    """
    records = []
    end = time.perf_counter()
    for argv in argvs:
        start = time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                with tracer.command(f"cli.{argv[0]}"):
                    rc = cli.main(argv)
        except Exception:  # the program escaped its own error handling
            traceback.print_exc()
            rc = "exception"
        end = time.perf_counter()
        records.append({"command": argv[0], "wall_s": end - start, "rc": rc})
        if rc != 0:
            break
    return records, end


# ---------------------------------------------------------------------------
# independent checkers

def norm_answer(text: str) -> str:
    """Lowercase, collapse whitespace, strip outer punctuation."""
    return " ".join(text.lower().split()).strip(_STRIP)


def read_jsonl(path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def recompute_micro(pred_path, dataset_path, split: str, ks=(1, 10)) -> dict:
    """Micro acc@k over a split, computed from the raw files."""
    preds = {r["query_id"]: [c[0] for c in r["candidates"]] for r in read_jsonl(pred_path)}
    queries = [q for q in read_jsonl(dataset_path) if split == "full" or q["hard"]]
    hits = {str(k): 0 for k in ks}
    for q in queries:
        gold = {norm_answer(a) for a in q["answers"]}
        ranked = [norm_answer(c) for c in preds.get(q["query_id"], [])]
        for k in ks:
            hits[str(k)] += any(c in gold for c in ranked[:k])
    return {k: v / len(queries) for k, v in hits.items()}


def check_eval(name: str, pred_path, dataset_path, report_path, split: str,
               pins: dict | None = None) -> list[tuple]:
    """The report's micro accuracy must match a recomputation from the
    predictions file, and the pinned values when given."""
    try:
        report = json.loads(Path(report_path).read_text(encoding="utf-8"))["micro"]
        mine = recompute_micro(pred_path, dataset_path, split)
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return [(f"{name}.readable", False, repr(exc))]
    checks = [(f"{name}.recomputed", all(abs(report[k] - v) <= 1e-12 for k, v in mine.items()),
               f"report {report} recomputed {mine}")]
    if pins is not None:
        checks.append((f"{name}.pinned",
                       all(round(report[k], 3) == v and round(mine[k], 3) == v
                           for k, v in pins.items()),
                       f"report {report} expected {pins}"))
    return checks


def oracle_topk(encoder, entity_names: list[str], query_texts: list[str], k: int):
    """Exhaustive cosine ranking; ties go to the lower entity index."""
    ents = encoder.encode(entity_names)
    ents = ents / np.linalg.norm(ents, axis=1, keepdims=True)
    qs = encoder.encode(query_texts)
    qs = qs / np.linalg.norm(qs, axis=1, keepdims=True)
    scores = qs @ ents.T
    index = np.arange(len(entity_names))
    return [(np.lexsort((index, -row))[:k], row) for row in scores]


def check_oracle(pred_path, dataset_path, entity_names: list[str], encoder_spec: str,
                 seed: int, k: int = 10, sample: int = ORACLE_SAMPLE) -> tuple:
    """Top-k of a seeded sample of queries must equal the oracle's.

    Where scores differ by no more than SCORE_TOL the order among them may
    differ, since a different summation order can flip exact ties.
    """
    try:
        preds = {r["query_id"]: r["candidates"] for r in read_jsonl(pred_path)}
        queries = read_jsonl(dataset_path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return ("oracle.readable", False, repr(exc))
    rng = np.random.default_rng([seed, 3])
    picked = [queries[i] for i in sorted(rng.choice(len(queries),
                                                    size=min(sample, len(queries)),
                                                    replace=False))]
    position = {name: i for i, name in enumerate(entity_names)}
    oracle = oracle_topk(encoder_from_spec(encoder_spec), entity_names,
                         [q["query_text"] for q in picked], k)
    bad = []
    for q, (order, scores) in zip(picked, oracle):
        got = preds.get(q["query_id"], [])
        want = [entity_names[j] for j in order]
        if [c[0] for c in got] == want and all(
                abs(c[1] - scores[j]) <= SCORE_TOL for c, j in zip(got, order)):
            continue
        ok = len(got) == len(want) and all(
            c[0] in position
            and abs(scores[position[c[0]]] - scores[j]) <= SCORE_TOL
            and abs(c[1] - scores[j]) <= SCORE_TOL
            for c, j in zip(got, order))
        if not ok:
            bad.append(q["query_id"])
    return ("oracle.topk", not bad,
            f"{len(bad)} of {len(picked)} sampled queries differ: {bad[:3]}")


def check_loss_trace(path, steps: int) -> tuple:
    """Finite, one row per step, and the last ten steps below the first."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            losses = [float(r["loss_mean"]) for r in csv.DictReader(fh)]
    except (OSError, ValueError, KeyError) as exc:
        return ("loss_trace.readable", False, repr(exc))
    tail = losses[-10:]
    ok = (len(losses) == steps and all(math.isfinite(x) for x in losses)
          and sum(tail) / len(tail) < losses[0])
    return ("loss_trace.falls", ok,
            f"{len(losses)} rows, first {losses[:1]}, last-10 mean "
            f"{sum(tail) / max(len(tail), 1):.4f}")


def check_reload(ckpt_dir: Path, step: int, texts: list[str]) -> tuple[tuple, str]:
    """Reloading the last checkpoint reproduces its encodings, also after a
    save and reload of the loaded weights. Returns the check and a digest of
    the encodings, which must not change between iterations."""
    try:
        first = load_checkpoint(ckpt_dir)
        encodings = first.encode(texts)
        with tempfile.TemporaryDirectory(dir=ckpt_dir.parent.parent) as tmp:
            again = load_checkpoint(save_checkpoint(first, Path(tmp) / "copy"))
            same = np.array_equal(encodings, again.encode(texts))
    except Exception as exc:  # any failure to reload is the finding
        return ("checkpoint.reload", False, repr(exc)), ""
    ok = bool(same and first.step == step and np.isfinite(encodings).all())
    digest = hashlib.sha256(encodings.tobytes()).hexdigest()
    return ("checkpoint.reload", ok, f"step {first.step}, round trip equal {same}"), digest


def digest_files(out: Path, patterns: list[str]) -> dict:
    found = {}
    for pattern in patterns:
        for path in sorted(out.glob(pattern)):
            found[str(path.relative_to(out))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return found


# ---------------------------------------------------------------------------
# per-workload checks

DEMO_OUTPUTS = ["curated/*.jsonl", "curated/stats.csv", "probe_*/predictions.jsonl",
                "eval_*/report.*", "rewired/loss_trace.csv", "rewired/checkpoints/*/*",
                "sweep_steps/step_curves.csv", "sweep_seeds/stability.csv"]
VOCAB_OUTPUTS = ["curated/*.jsonl", "curated/stats.csv", "probe/predictions.jsonl",
                 "eval/report.*"]
CORPUS_OUTPUTS = ["rewired/loss_trace.csv", "rewired/checkpoints/*/*"]


def check(world: dict, inputs: dict, out: Path, oracle: bool) -> dict:
    """Run the workload's checks on one iteration's outputs."""
    w = world["workload"]
    checks: list[tuple] = []
    extra: dict = {}
    if w == "demo":
        ds = out / "curated" / "full.jsonl"
        pins = DEMO_PINS if world["size"] == "full" else None
        for name, probe, split, pinned in (
                ("eval_untrained", "probe_untrained", "full", None),
                ("eval_rewired", "probe_rewired", "full", pins),
                ("eval_rewired_hard", "probe_rewired", "hard", None)):
            checks += check_eval(name, out / probe / "predictions.jsonl", ds,
                                 out / name / "report.json", split, pinned)
        extra["accuracy"] = _micro(out / "eval_rewired" / "report.json")
        extra["queries"] = len(read_jsonl(ds))
        patterns = DEMO_OUTPUTS
    elif w == "large_vocab":
        ds = out / "curated" / "full.jsonl"
        n = len(read_jsonl(ds))
        checks.append(("curate.query_count", n == world["n_queries"],
                       f"{n} queries, world has {world['n_queries']}"))
        checks += check_eval("eval", out / "probe" / "predictions.jsonl", ds,
                             out / "eval" / "report.json", "full")
        if oracle:
            checks.append(check_oracle(out / "probe" / "predictions.jsonl", ds,
                                       inputs["entities"], world["encoder"], world["seed"]))
        extra["accuracy"] = _micro(out / "eval" / "report.json")
        extra["queries"] = n
        patterns = VOCAB_OUTPUTS
    else:
        config = inputs["config"]
        checks.append(check_loss_trace(out / "rewired" / "loss_trace.csv", config.steps))
        ckpts = sorted((out / "rewired" / "checkpoints").glob("step_*"))
        expected = config.steps // config.checkpoint_every
        checks.append(("checkpoint.count", len(ckpts) == expected,
                       f"{len(ckpts)} checkpoints, expected {expected}"))
        if ckpts:
            rng = np.random.default_rng([world["seed"], 4])
            lines = inputs["corpus_lines"]
            texts = [lines[i] for i in rng.choice(len(lines), size=min(RELOAD_SAMPLE, len(lines)),
                                                  replace=False)]
            reload_check, extra["encodings_sha256"] = check_reload(ckpts[-1], config.steps, texts)
            checks.append(reload_check)
        patterns = CORPUS_OUTPUTS
    if "config" in inputs:
        extra["pairs_per_rewire"] = inputs["config"].steps * inputs["config"].batch_size
    extra["digests"] = digest_files(out, patterns)
    return {"checks": [list(c) for c in checks], **extra}


def _micro(report_path) -> dict:
    return json.loads(Path(report_path).read_text(encoding="utf-8"))["micro"]

