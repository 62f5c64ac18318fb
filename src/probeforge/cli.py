"""Command-line pipeline: curate, rewire, probe, eval, and sweep."""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import sys
import time
from contextlib import contextmanager
from dataclasses import asdict, astuple, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .curator import (ProbeQuery, default_templates, group_queries,
                      load_dataset, load_templates, load_triples, save_dataset,
                      split_hard)
from .encoders import (EncoderHandle, encoder_from_spec, generator_from_spec,
                       load_checkpoint, mlm_from_spec)
from .errors import (ConfigurationError, InputError, ProbeforgeError,
                     ValidationError)
from .evaluation import (EvalReport, RescoreResult, aggregate, bin_by_answer_length,
                         expert_rescore, load_annotations, save_report,
                         score_predictions, stability_summary, step_curves,
                         write_report_csv, write_step_curves_csv)
from .probers import (DEFAULT_NUM_MASKS, MASK_STRATEGIES, RankedPrediction,
                      build_entity_index, contrastive_probe, generate_probe,
                      load_entities, load_predictions, mask_average_rank,
                      mask_predict_detail, save_predictions)
from .rewire import MaskedPair, RewireConfig, rewire_train, sample_sentences, tail_mask
from .text import collapse_norm, read_json, write_csv, write_json

CACHE_ENV = "PROBEFORGE_CACHE"
PROBE_STRATEGIES = ("contrastive", "mask-predict", "mask-average", "generate")
SWEEP_AXES = ("layer", "mask-ratio", "checkpoint-step", "seed")

# RewireConfig fields that may be overridden from the rewire command line.
REWIRE_OVERRIDE_FIELDS = (
    "num_sentences", "mask_ratio", "temperature", "learning_rate", "steps",
    "batch_size", "checkpoint_every", "probe_checkpoint_step", "seed",
    "max_query_tokens", "max_answer_tokens",
)


# ---------------------------------------------------------------------------
# shared plumbing

def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def _flag_dict(args: argparse.Namespace) -> dict:
    return {k: v for k, v in vars(args).items()
            if not k.startswith("_") and k not in ("func", "out", "workers")}


def _resolve_out(args: argparse.Namespace) -> Path:
    """--out wins; otherwise derive a directory under $PROBEFORGE_CACHE."""
    if args.out:
        return Path(args.out)
    cache = os.environ.get(CACHE_ENV)
    if not cache:
        args._parser.error(f"--out is required when {CACHE_ENV} is not set")
    payload = json.dumps({"command": args._command, **_flag_dict(args)},
                         sort_keys=True, default=str)
    digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]
    return Path(cache) / f"{args._command}-{digest}"


@contextmanager
def _writing(out: Path) -> Iterator[None]:
    """Map a failure to create out or to write an artifact under it to InputError."""
    try:
        yield
    except OSError as exc:
        raise InputError(f"cannot write outputs to {out}: {exc}") from exc


def _write_manifest(out_dir: Path, command: str, config: dict, inputs: dict,
                    outputs: Sequence[str], seed, started_at: str,
                    t0: float) -> None:
    # Written last so a manifest marks a completed run; apart from the two
    # clock fields the document is a pure function of the flags.
    doc = {
        "command": command,
        "config": config,
        "inputs": {k: str(v) for k, v in inputs.items() if v is not None},
        "outputs": sorted(outputs),
        "seed": seed,
        "version": __version__,
        "started_at": started_at,
        "duration_seconds": round(time.perf_counter() - t0, 3),
    }
    write_json(out_dir / "manifest.json", doc)


def _parse_int_list(raw: str, flag: str) -> tuple[int, ...]:
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(f"{flag} must list at least one integer")
    try:
        return tuple(int(p) for p in parts)
    except ValueError:
        raise ConfigurationError(
            f"{flag}: expected comma-separated integers, got {raw!r}") from None


def _relation_candidates(rel_queries: Sequence[ProbeQuery]) -> list[str]:
    """Gold answers of one relation, deduplicated in first-appearance order."""
    names: list[str] = []
    seen: set[str] = set()
    for q in rel_queries:
        for answer in q.answers:
            key = collapse_norm(answer)
            if key not in seen:
                seen.add(key)
                names.append(answer)
    return names


def _masked_pairs(corpus, config: RewireConfig) -> list[MaskedPair]:
    sentences = sample_sentences(corpus, config.num_sentences, seed=config.seed)
    pairs = (tail_mask(s, config.mask_ratio, config.mask_placeholder)
             for s in sentences)
    return [p for p in pairs if p is not None]


def _resolve_checkpoint(checkpoint) -> Path:
    """Accept either a checkpoint directory or a whole rewire output dir.

    In a rewire dir the step directory counts only when the run's manifest,
    written last, lists it: a step directory left by an earlier run into the
    same dir holds that run's weights."""
    root = Path(checkpoint)
    if (root / "sidecar.json").is_file():
        return root
    config_path = root / "rewire_config.json"
    if config_path.is_file():
        config = RewireConfig.from_json(config_path)
        step = config.probe_checkpoint_step
        if step < 1:
            raise ConfigurationError(
                f"{config_path}: probe_checkpoint_step is {step}; pass a checkpoint directory")
        manifest_path = root / "manifest.json"
        if not manifest_path.is_file():
            raise InputError(f"{root}: the rewire run did not complete (no manifest.json)")
        outputs = read_json(manifest_path, "run manifest").get("outputs")
        if not isinstance(outputs, list):
            raise ValidationError(f"{manifest_path}: no outputs list")
        step_dir = Path("checkpoints", f"step_{step:05d}")
        if str(step_dir) not in outputs:
            raise InputError(f"no checkpoint at step {step} in the run recorded by "
                             f"{manifest_path}")
        return root / step_dir
    raise InputError(f"{root} holds neither a checkpoint nor a rewire run")


# ---------------------------------------------------------------------------
# curate

def cmd_curate(args: argparse.Namespace) -> int:
    t0, started = time.perf_counter(), _utc_now()
    out = _resolve_out(args)
    result = load_triples(args.triples)
    templates = load_templates(args.templates) if args.templates else default_templates()
    queries = group_queries(result.triples, templates,
                            max_answers=args.max_answers,
                            per_relation_cap=args.per_relation, seed=args.seed)
    if not queries:
        raise InputError(f"{args.triples}: no queries survived curation")
    flagged = split_hard(queries)
    counts: dict[str, list[int]] = {}
    for q in flagged:
        row = counts.setdefault(q.relation_id, [0, 0])
        row[0] += 1
        row[1] += int(q.hard)

    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        save_dataset(flagged, out / "full.jsonl")
        save_dataset([q for q in flagged if q.hard], out / "hard.jsonl")
        write_csv(out / "stats.csv", ["relation_id", "full_count", "hard_count"],
                  ([rel, *row] for rel, row in counts.items()))
        _write_manifest(
            out, "curate",
            config={"max_answers": args.max_answers,
                    "per_relation": args.per_relation,
                    "malformed_triple_lines": result.malformed},
            inputs={"triples": args.triples,
                    "templates": args.templates or "builtin"},
            outputs=["full.jsonl", "hard.jsonl", "stats.csv"],
            seed=args.seed, started_at=started, t0=t0)
    n_hard = sum(q.hard for q in flagged)
    print(f"curate: {len(flagged)} queries ({n_hard} hard) -> {out}")
    return 0


# ---------------------------------------------------------------------------
# rewire

def cmd_rewire(args: argparse.Namespace) -> int:
    t0, started = time.perf_counter(), _utc_now()
    out = _resolve_out(args)
    overrides = {name: getattr(args, name) for name in REWIRE_OVERRIDE_FIELDS}
    config = RewireConfig.from_json(args.config, **overrides)
    encoder = encoder_from_spec(args.encoder)
    pairs = _masked_pairs(args.corpus, config)

    with _writing(out):
        # the manifest marks a completed run, so a rerun into out drops the
        # earlier run's before writing anything, and with it the earlier
        # run's step directories, which this run's manifest would not list
        (out / "manifest.json").unlink(missing_ok=True)
        for step_dir in (out / "checkpoints").glob("step_*"):
            shutil.rmtree(step_dir)
        result = rewire_train(encoder, pairs, config, out_dir=out)
        outputs = ["rewire_config.json", "loss_trace.csv"]
        outputs += [str(p.relative_to(out)) for p in result.checkpoint_dirs]
        _write_manifest(
            out, "rewire",
            config=asdict(config),
            inputs={"encoder": args.encoder, "corpus": args.corpus,
                    "config": args.config},
            outputs=outputs, seed=config.seed, started_at=started, t0=t0)
    final = result.trace[-1].loss_mean if result.trace else float("nan")
    print(f"rewire: {config.steps} steps on {len(pairs)} pairs, "
          f"final mean loss {final:.4f} -> {out}")
    return 0


# ---------------------------------------------------------------------------
# probe

def _contrastive_encoder(args: argparse.Namespace) -> EncoderHandle:
    if args.checkpoint and args.encoder:
        args._parser.error("--encoder and --checkpoint are mutually exclusive")
    if args.checkpoint:
        return load_checkpoint(_resolve_checkpoint(args.checkpoint))
    if args.encoder:
        return encoder_from_spec(args.encoder)
    args._parser.error("contrastive probing needs --encoder or --checkpoint")
    raise AssertionError("unreachable")


def _probe_in_scope(args, queries: Sequence[ProbeQuery],
                    rank: Callable[[list[str], list[ProbeQuery]], list[RankedPrediction]]
                    ) -> list[RankedPrediction]:
    """rank(names, queries) each query against its candidate scope, in input
    order: the --entities names, or the gold answers of the query's relation."""
    if args.candidate_scope == "full":
        if not args.entities:
            args._parser.error("--entities is required with --candidate-scope full")
        return rank(load_entities(args.entities), queries)
    by_relation: dict[str, list[ProbeQuery]] = {}
    for q in queries:
        by_relation.setdefault(q.relation_id, []).append(q)
    predictions = []
    for rel_queries in by_relation.values():
        predictions.extend(rank(_relation_candidates(rel_queries), rel_queries))
    order = {q.query_id: i for i, q in enumerate(queries)}
    predictions.sort(key=lambda p: order[p.query_id])
    return predictions


def _probe_contrastive(args, queries: Sequence[ProbeQuery]):
    encoder = _contrastive_encoder(args)

    def rank(names, group):
        index = build_entity_index(encoder, names, layer_limit=args.layer_limit)
        return contrastive_probe(encoder, index, group, args.k)

    return _probe_in_scope(args, queries, rank), encoder.identity


def _probe_mask_predict(args, queries: Sequence[ProbeQuery]):
    mlm = mlm_from_spec(args.encoder)
    predictions = []
    for q in queries:
        detail = mask_predict_detail(mlm, q.query_text,
                                     num_masks=args.num_masks,
                                     strategy=args.fill_strategy,
                                     refine=args.refine,
                                     max_refine_iters=args.max_refine_iters)
        predictions.append(RankedPrediction(
            q.query_id, ((detail.answer, detail.score),), "mask-predict"))
    return predictions, mlm.identity


def _probe_mask_average(args, queries: Sequence[ProbeQuery]):
    mlm = mlm_from_spec(args.encoder)

    def rank(names, group):
        return [mask_average_rank(mlm, q, names, args.k) for q in group]

    return _probe_in_scope(args, queries, rank), mlm.identity


def _probe_generate(args, queries: Sequence[ProbeQuery]):
    generator = generator_from_spec(args.encoder)
    return [generate_probe(generator, q, args.k) for q in queries], generator.identity


def cmd_probe(args: argparse.Namespace) -> int:
    t0, started = time.perf_counter(), _utc_now()
    out = _resolve_out(args)
    if args.k < 1:
        raise ConfigurationError("--k must be >= 1")
    if args.checkpoint and args.strategy != "contrastive":
        args._parser.error("--checkpoint only applies to contrastive probing")
    if args.strategy != "contrastive" and not args.encoder:
        args._parser.error(f"--encoder is required for {args.strategy} probing")
    queries = load_dataset(args.dataset)
    if not queries:
        raise InputError(f"{args.dataset}: dataset is empty")

    runner = {
        "contrastive": _probe_contrastive,
        "mask-predict": _probe_mask_predict,
        "mask-average": _probe_mask_average,
        "generate": _probe_generate,
    }[args.strategy]
    predictions, identity = runner(args, queries)

    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        save_predictions(predictions, out / "predictions.jsonl")
        _write_manifest(
            out, "probe",
            config={"strategy": args.strategy, "k": args.k,
                    "layer_limit": args.layer_limit,
                    "candidate_scope": args.candidate_scope,
                    "num_masks": args.num_masks,
                    "fill_strategy": args.fill_strategy,
                    "refine": args.refine,
                    "max_refine_iters": args.max_refine_iters,
                    "model": identity},
            inputs={"encoder": args.encoder, "checkpoint": args.checkpoint,
                    "dataset": args.dataset, "entities": args.entities},
            outputs=["predictions.jsonl"], seed=None, started_at=started, t0=t0)
    print(f"probe[{args.strategy}]: {len(predictions)} predictions -> {out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _write_bins_csv(bins, k_values: Sequence[int], path) -> None:
    write_csv(path, ["bin", "count", *[f"acc{k}" for k in k_values]],
              ([row.label, row.count,
                *["" if row.acc[k] is None else f"{row.acc[k]:.6f}" for k in k_values]]
               for row in bins))


def _write_rescore_json(result: RescoreResult, path) -> None:
    def keyed(mapping):
        return {str(k): v for k, v in mapping.items()}

    doc = {
        "k_values": list(result.k_values),
        "perfect_threshold": result.perfect_threshold,
        "totals": keyed(result.totals),
        "confusion": {str(k): {str(score): dict(cells)
                               for score, cells in table.items()}
                      for k, table in result.confusion.items()},
        "gold_candidate_acc": keyed(result.gold_candidate_acc),
        "gold_query_acc": keyed(result.gold_query_acc),
        "annotated_acc": keyed(result.annotated_acc),
        "annotated_candidate_acc": keyed(result.annotated_candidate_acc),
        "notes": list(result.notes),
    }
    write_json(path, doc)


def cmd_eval(args: argparse.Namespace) -> int:
    t0, started = time.perf_counter(), _utc_now()
    out = _resolve_out(args)
    k_values = _parse_int_list(args.k, "--k")
    queries = load_dataset(args.dataset)
    predictions = load_predictions(args.predictions)
    known = {q.query_id for q in queries}
    for pred in predictions:
        if pred.query_id not in known:
            raise ValidationError(
                f"{args.predictions}: prediction for unknown query {pred.query_id!r}")

    split_queries = (queries if args.split == "full"
                     else [q for q in queries if q.hard])
    if not split_queries:
        raise InputError(f"no queries in the {args.split} split")
    split_ids = {q.query_id for q in split_queries}
    split_preds = [p for p in predictions if p.query_id in split_ids]
    strategies = sorted({p.strategy for p in split_preds})
    if len(strategies) > 1:
        raise ValidationError(
            f"{args.predictions}: predictions mix strategies {strategies}")
    strategy = strategies[0] if strategies else ""

    hits = score_predictions(split_preds, split_queries, k_values)
    # a query without a prediction still scores as all misses; the count
    # makes a truncated predictions file visible in the report
    report = aggregate(hits, k_values, model=args.model, strategy=strategy,
                       split=args.split,
                       metadata={"missing_predictions": len(split_ids) - len(split_preds)})

    bins = rescored = None
    if args.length_bins:
        edges = _parse_int_list(args.length_bins, "--length-bins")
        bins = bin_by_answer_length(split_queries, hits, edges, k_values)
    if args.annotations:
        annotations = load_annotations(args.annotations)
        sample_ids = {a.query_id for a in annotations}
        sample = [p for p in split_preds if p.query_id in sample_ids]
        answers_by_query = {q.query_id: q.answers for q in split_queries}
        rescored = expert_rescore(sample, annotations, answers_by_query, k_values)

    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        save_report(report, out / "report.json")
        write_report_csv(report, out / "report.csv")
        outputs = ["report.json", "report.csv"]
        if bins is not None:
            _write_bins_csv(bins, k_values, out / "bins.csv")
            outputs.append("bins.csv")
        if rescored is not None:
            _write_rescore_json(rescored, out / "rescore.json")
            outputs.append("rescore.json")
        _write_manifest(
            out, "eval",
            config={"split": args.split, "k": list(k_values), "model": args.model,
                    "strategy": strategy,
                    "length_bins": args.length_bins, "annotated": bool(args.annotations)},
            inputs={"predictions": args.predictions, "dataset": args.dataset,
                    "annotations": args.annotations},
            outputs=outputs, seed=None, started_at=started, t0=t0)
    accs = " ".join(f"acc@{k}={report.macro[k]:.4f}" for k in k_values)
    print(f"eval[{args.split}]: macro {accs} over {report.total_queries} queries -> {out}")
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_point(axis: str, config: RewireConfig, probe_step: int, value):
    """Training config, probe step, layer limit and report metadata of one value."""
    if axis == "layer":
        return config, probe_step, value, {}
    if axis == "mask-ratio":
        return replace(config, mask_ratio=value), probe_step, None, {}
    if axis == "checkpoint-step":
        return config, value, None, {"checkpoint_step": value}
    return replace(config, seed=value), probe_step, None, {"seed": value}


def _parse_axis_values(axis: str, raw: str):
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError("--values must list at least one value")
    try:
        values = [float(p) if axis == "mask-ratio" else int(p) for p in parts]
    except ValueError:
        raise ConfigurationError(
            f"--values: could not parse {raw!r} for axis {axis}") from None
    if len(set(values)) != len(values):
        raise ConfigurationError(f"--values contains duplicates: {raw!r}")
    if axis == "layer" and min(values) < 1:
        raise ConfigurationError("layer sweep values must be >= 1")
    if axis == "seed" and len(values) < 2:
        raise ConfigurationError("seed sweep needs at least two values")
    if axis in ("checkpoint-step", "seed") and min(values) < 0:
        raise ConfigurationError(f"{axis} values must be >= 0")
    return values


def _sweep_report(encoder: EncoderHandle, queries, entity_names, layer_limit,
                  k_values, metadata) -> EvalReport:
    index = build_entity_index(encoder, entity_names, layer_limit=layer_limit)
    predictions = contrastive_probe(encoder, index, queries, max(k_values))
    hits = score_predictions(predictions, queries, k_values)
    return aggregate(hits, k_values, model=encoder.identity,
                     strategy="contrastive", split="full", metadata=metadata)


def _sweep_group(encoder_spec: str, corpus, config: RewireConfig, points, queries,
                 entity_names, k_values) -> dict[int, EvalReport | None]:
    """Report of each (step, position, layer limit, metadata) point, by position.

    Points that share a training config share one encoder, trained once
    through their steps in ascending order and probed as it reaches each.
    Resuming rewire_train at start_step reproduces the uninterrupted run, so
    each point sees the state a fresh run to its step ends in. A point whose
    layer limit exceeds the encoder's depth is skipped (None).
    """
    encoder = encoder_from_spec(encoder_spec)
    pairs, trained, reports = None, 0, {}
    for step, i, layer_limit, metadata in sorted(points, key=lambda p: p[:2]):
        if step > trained:
            if pairs is None:
                pairs = _masked_pairs(corpus, config)
            rewire_train(encoder, pairs, replace(config, steps=step, checkpoint_every=0),
                         start_step=trained)
            trained = step
        deep_enough = layer_limit is None or layer_limit <= encoder.max_layers
        reports[i] = (_sweep_report(encoder, queries, entity_names, layer_limit,
                                    k_values, metadata) if deep_enough else None)
    return reports


def _write_sweep_csv(axis: str, values, reports: list[EvalReport], out: Path) -> str:
    """Write the axis table of reports (in value order) and return its name."""
    if axis == "checkpoint-step":
        write_step_curves_csv(step_curves(reports, k=1), out / "step_curves.csv")
        return "step_curves.csv"
    if axis == "seed":
        summary = stability_summary(reports)
        write_csv(out / "stability.csv",
                  ["relation_id", "acc1_mean", "acc1_std", "acc10_mean", "acc10_std"],
                  ([rel, *(f"{v:.6f}" for k in (1, 10) for v in stats[k])]
                   for rel, stats in [*summary.per_relation.items(),
                                      ("macro", summary.macro)]))
        return "stability.csv"
    name, column = (("layer_sweep.csv", "layer_limit") if axis == "layer"
                    else ("mask_ratio_sweep.csv", "mask_ratio"))
    write_csv(out / name, [column, "macro_acc1", "macro_acc10"],
              ([f"{v:g}", f"{r.macro[1]:.6f}", f"{r.macro[10]:.6f}"]
               for v, r in zip(values, reports)))
    return name


def cmd_sweep(args: argparse.Namespace) -> int:
    t0, started = time.perf_counter(), _utc_now()
    out = _resolve_out(args)
    values = _parse_axis_values(args.axis, args.values)
    config = RewireConfig.from_json(args.config)
    queries = load_dataset(args.dataset)
    if not queries:
        raise InputError(f"{args.dataset}: dataset is empty")
    entity_names = load_entities(args.entities)
    k_values = (1, 10)
    # Sweeps probe the state the config selects for probing; a config
    # without a probe step is probed after the full training budget.
    probe_step = (config.probe_checkpoint_step
                  if 0 < config.probe_checkpoint_step <= config.steps
                  else config.steps)

    groups: dict[tuple, tuple[RewireConfig, list]] = {}
    for i, value in enumerate(values):
        cfg, step, layer_limit, metadata = _sweep_point(args.axis, config, probe_step, value)
        groups.setdefault(astuple(cfg), (cfg, []))[1].append((step, i, layer_limit, metadata))
    reports = {}
    for cfg, points in groups.values():
        reports.update(_sweep_group(args.encoder, args.corpus, cfg, points, queries,
                                    entity_names, k_values))
    kept = [i for i in range(len(values)) if reports[i] is not None]
    skipped = [v for i, v in enumerate(values) if reports[i] is None]

    with _writing(out):
        out.mkdir(parents=True, exist_ok=True)
        merged = _write_sweep_csv(args.axis, [values[i] for i in kept],
                                  [reports[i] for i in kept], out)
        _write_manifest(
            out, "sweep",
            config={"axis": args.axis, "values": values, "skipped_values": skipped,
                    "probe_step": probe_step, "rewire_config": asdict(config)},
            inputs={"encoder": args.encoder, "corpus": args.corpus,
                    "config": args.config, "dataset": args.dataset,
                    "entities": args.entities},
            outputs=[merged], seed=config.seed, started_at=started, t0=t0)
    print(f"sweep[{args.axis}]: {len(kept)} runs -> {out / merged}")
    return 0


# ---------------------------------------------------------------------------
# parser

def _add_out(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--out", help=f"output directory (default: derived under ${CACHE_ENV})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="probeforge",
        description="Cloze-style knowledge probing for text encoders.")
    parser.add_argument("--version", action="version",
                        version=f"probeforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    curate = sub.add_parser(
        "curate", help="build full/hard probe datasets from a triple file")
    curate.add_argument("--triples", required=True,
                        help="TSV file of head, relation, tail columns")
    curate.add_argument("--templates",
                        help="relation template JSON (default: bundled templates)")
    curate.add_argument("--max-answers", type=int, default=10)
    curate.add_argument("--per-relation", type=int, default=1000,
                        help="cap on queries sampled per relation")
    curate.add_argument("--seed", type=int, default=0)
    _add_out(curate)
    curate.set_defaults(func=cmd_curate, _command="curate", _parser=curate)

    rewire = sub.add_parser(
        "rewire", help="contrastively train an encoder on tail-masked sentences")
    rewire.add_argument("--encoder", required=True,
                        help='encoder spec, e.g. "reference:dim=128,seed=7,layers=2"')
    rewire.add_argument("--corpus", required=True, help="one sentence per line")
    rewire.add_argument("--config", required=True, help="RewireConfig JSON")
    for name in REWIRE_OVERRIDE_FIELDS:
        flag = "--" + name.replace("_", "-")
        kind = float if name in ("mask_ratio", "temperature", "learning_rate") else int
        rewire.add_argument(flag, type=kind, default=None,
                            help=f"override {name} from the config file")
    _add_out(rewire)
    rewire.set_defaults(func=cmd_rewire, _command="rewire", _parser=rewire)

    probe = sub.add_parser("probe", help="rank answers for each query")
    probe.add_argument("--encoder",
                       help="reference:..., table-mlm:PATH, or table-generator:PATH")
    probe.add_argument("--checkpoint",
                       help="checkpoint directory or rewire output directory")
    probe.add_argument("--dataset", required=True, help="query JSONL")
    probe.add_argument("--entities", help="candidate entities, one per line")
    probe.add_argument("--strategy", required=True, choices=PROBE_STRATEGIES)
    probe.add_argument("--k", type=int, default=10)
    probe.add_argument("--layer-limit", type=int, default=None)
    probe.add_argument("--candidate-scope", choices=("full", "relation"),
                       default="full")
    probe.add_argument("--num-masks", type=int, default=DEFAULT_NUM_MASKS)
    probe.add_argument("--fill-strategy", choices=MASK_STRATEGIES,
                       default="independent")
    probe.add_argument("--refine", choices=("order",), default=None)
    probe.add_argument("--max-refine-iters", type=int, default=5)
    _add_out(probe)
    probe.set_defaults(func=cmd_probe, _command="probe", _parser=probe)

    ev = sub.add_parser("eval", help="score predictions against gold answers")
    ev.add_argument("--predictions", required=True, help="prediction JSONL")
    ev.add_argument("--dataset", required=True, help="query JSONL")
    ev.add_argument("--split", choices=("full", "hard"), default="full")
    ev.add_argument("--k", default="1,10", help="comma-separated cutoffs")
    ev.add_argument("--model", default="", help="model label for the report")
    ev.add_argument("--annotations", help="expert annotation CSV")
    ev.add_argument("--length-bins",
                    help="comma-separated answer-length bin edges, e.g. 10,20")
    _add_out(ev)
    ev.set_defaults(func=cmd_eval, _command="eval", _parser=ev)

    sweep = sub.add_parser(
        "sweep", help="repeat rewire/probe/eval along one axis and merge CSVs")
    sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    sweep.add_argument("--values", required=True,
                       help="comma-separated axis values")
    sweep.add_argument("--encoder", required=True)
    sweep.add_argument("--corpus", required=True)
    sweep.add_argument("--config", required=True, help="RewireConfig JSON")
    sweep.add_argument("--dataset", required=True, help="query JSONL")
    sweep.add_argument("--entities", required=True)
    # no effect; kept only because perfbench's demo command still passes it
    sweep.add_argument("--workers", type=int, default=1, help=argparse.SUPPRESS)
    _add_out(sweep)
    sweep.set_defaults(func=cmd_sweep, _command="sweep", _parser=sweep)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except SystemExit as exc:
        # argparse has already printed usage or version text
        return exc.code if isinstance(exc.code, int) else 2
    except ProbeforgeError as exc:
        print(f"probeforge: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
