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
from dataclasses import asdict, astuple, fields, replace
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Iterator, Sequence

from . import __version__
from .curator import (ProbeQuery, default_templates, group_queries,
                      load_dataset, load_templates, load_triples, save_dataset,
                      split_hard)
from .encoders import (SIDECAR_NAME, EncoderHandle, encoder_from_spec,
                       generator_from_spec, load_checkpoint, mlm_from_spec)
from .errors import (ConfigurationError, InputError, NumericalError, ProbeforgeError,
                     ValidationError)
from .evaluation import (EvalReport, aggregate, bin_by_answer_length,
                         expert_rescore, load_annotations, save_report,
                         score_predictions, stability_summary, step_curves,
                         write_report_csv, write_step_curves_csv)
from .probers import (DEFAULT_NUM_MASKS, MASK_STRATEGIES, EntityIndex, RankedPrediction,
                      build_entity_index, contrastive_probe, generate_probe,
                      load_entities, load_predictions, mask_average_rank,
                      mask_predict_detail, save_predictions)
from .rewire import (MaskedPair, RewireConfig, checkpoint_name, rewire_train,
                     sample_sentences, tail_mask, write_loss_trace)
from .text import collapse_norm, read_json, write_csv, write_json

CACHE_ENV = "PROBEFORGE_CACHE"
SWEEP_AXES = ("layer", "mask-ratio", "checkpoint-step", "seed")
MANIFEST_NAME = "manifest.json"
REWIRE_CONFIG_NAME = "rewire_config.json"


# ---------------------------------------------------------------------------
# shared plumbing

class _Run:
    """One command's output directory, the artifacts it writes there and the
    manifest that vouches for them.

    --out wins; otherwise the directory is derived under $PROBEFORGE_CACHE
    from the flags. Nothing is created before the first path() call."""

    def __init__(self, args: argparse.Namespace):
        self.t0 = time.perf_counter()
        self.started_at = datetime.now(timezone.utc).isoformat(timespec="seconds")
        self.command = args.command
        self.outputs: list[str] = []
        if args.out:
            self.out = Path(args.out)
            return
        cache = os.environ.get(CACHE_ENV)
        if not cache:
            args._parser.error(f"--out is required when {CACHE_ENV} is not set")
        flags = {k: v for k, v in vars(args).items()
                 if not k.startswith("_") and k not in ("func", "out", "workers")}
        # flags holds argparse's own command, so each command keys its own slots
        payload = json.dumps(flags, sort_keys=True, default=str)
        digest = hashlib.sha1(payload.encode("utf-8")).hexdigest()[:12]
        self.out = Path(cache) / f"{self.command}-{digest}"

    def path(self, name: str) -> Path:
        """Where to write the output name: a .partial file, moved into place
        when the writing block ends."""
        self.out.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out / f"{name}.partial"

    @contextmanager
    def writing(self, config: dict, inputs: dict, seed) -> Iterator[None]:
        """Remove every *.partial that a failed or killed run left under out,
        run the block, then commit: drop the earlier run's manifest, remove
        every output it listed and every output of this run, move the staged
        outputs into place and write the manifest last. Until the block ends
        the earlier run stays whole, manifest included, and a manifest always
        marks a completed run. A failure to write under out raises InputError;
        an earlier manifest that lists a bad output name raises
        ValidationError before anything is removed."""
        manifest = self.out / MANIFEST_NAME
        try:
            earlier = _listed_outputs(manifest) if manifest.is_file() else []
            # sorted, so a staged directory goes before anything inside it
            for stale in sorted(self.out.rglob("*.partial")):
                if stale.is_dir() and not stale.is_symlink():
                    shutil.rmtree(stale)
                else:
                    stale.unlink(missing_ok=True)
            yield
            manifest.unlink(missing_ok=True)
            for name in sorted({*earlier, *self.outputs}):
                target = self.out / name
                if target.is_dir():
                    shutil.rmtree(target)
                else:
                    target.unlink(missing_ok=True)
            for name in self.outputs:
                os.replace(self.out / f"{name}.partial", self.out / name)
            # apart from the two clock fields the document is a pure
            # function of the flags
            write_json(manifest, {
                "command": self.command,
                "config": config,
                "inputs": {k: str(v) for k, v in inputs.items() if v is not None},
                "outputs": sorted(self.outputs),
                "seed": seed,
                "version": __version__,
                "started_at": self.started_at,
                "duration_seconds": round(time.perf_counter() - self.t0, 3),
            })
        except OSError as exc:
            raise InputError(f"cannot write outputs to {self.out}: {exc}") from exc


def _listed_outputs(manifest: Path) -> list[str]:
    """The outputs a run manifest lists, each a relative path inside the run
    directory: an entry that is not a string, or is empty, absolute or has a
    ".." part raises ValidationError naming the manifest."""
    outputs = read_json(manifest, "run manifest").get("outputs")
    if not isinstance(outputs, list):
        raise ValidationError(f"{manifest}: no outputs list")
    for name in outputs:
        path = Path(name) if isinstance(name, str) else None
        if path is None or not path.parts or path.is_absolute() or ".." in path.parts:
            raise ValidationError(f"{manifest}: bad output name {name!r}")
    return outputs


def _parse_list(raw: str, parse: Callable[[str], float], empty: str, bad: str) -> tuple:
    """Each non-blank item of the comma-separated list raw, through parse. No
    item raises ConfigurationError(empty); a ValueError from parse, ConfigurationError(bad)."""
    parts = [p.strip() for p in raw.split(",") if p.strip()]
    if not parts:
        raise ConfigurationError(empty)
    try:
        return tuple(parse(p) for p in parts)
    except ValueError:
        raise ConfigurationError(bad) from None


def _parse_int_list(raw: str, flag: str) -> tuple[int, ...]:
    return _parse_list(raw, int, f"{flag} must list at least one integer",
                       f"{flag}: expected comma-separated integers, got {raw!r}")


def _load_queries(path) -> list[ProbeQuery]:
    """The queries of the dataset at path; an empty dataset raises InputError."""
    queries = load_dataset(path)
    if not queries:
        raise InputError(f"{path}: dataset is empty")
    return queries


def _relation_candidates(rel_queries: Sequence[ProbeQuery]) -> list[str]:
    """Gold answers of one relation, deduplicated in first-appearance order."""
    names: dict[str, str] = {}
    for q in rel_queries:
        for answer in q.answers:
            names.setdefault(collapse_norm(answer), answer)
    return list(names.values())


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
    if (root / SIDECAR_NAME).is_file():
        return root
    config_path = root / REWIRE_CONFIG_NAME
    if config_path.is_file():
        config = RewireConfig.from_json(config_path)
        step = config.probe_checkpoint_step
        if step < 1:
            raise ConfigurationError(
                f"{config_path}: probe_checkpoint_step is {step}; pass a checkpoint directory")
        manifest_path = root / MANIFEST_NAME
        if not manifest_path.is_file():
            raise InputError(f"{root}: the rewire run did not complete (no {MANIFEST_NAME})")
        step_dir = checkpoint_name(step)
        if step_dir not in _listed_outputs(manifest_path):
            raise InputError(f"no checkpoint at step {step} in the run recorded by "
                             f"{manifest_path}")
        return root / step_dir
    raise InputError(f"{root} holds neither a checkpoint nor a rewire run")


# ---------------------------------------------------------------------------
# curate

def cmd_curate(args: argparse.Namespace) -> int:
    run = _Run(args)
    result = load_triples(args.triples)
    templates = (default_templates() if args.templates is None
                 else load_templates(args.templates))
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

    with run.writing(config={"max_answers": args.max_answers,
                             "per_relation": args.per_relation,
                             "malformed_triple_lines": result.malformed},
                     inputs={"triples": args.triples,
                             "templates": args.templates or "builtin"},
                     seed=args.seed):
        save_dataset(flagged, run.path("full.jsonl"))
        save_dataset([q for q in flagged if q.hard], run.path("hard.jsonl"))
        write_csv(run.path("stats.csv"), ["relation_id", "full_count", "hard_count"],
                  ([rel, *row] for rel, row in counts.items()))
    n_hard = sum(q.hard for q in flagged)
    print(f"curate: {len(flagged)} queries ({n_hard} hard) -> {run.out}")
    return 0


# ---------------------------------------------------------------------------
# rewire

def cmd_rewire(args: argparse.Namespace) -> int:
    run = _Run(args)
    # build_parser adds a flag for each numeric field; None keeps the file's value
    overrides = {f.name: getattr(args, f.name, None) for f in fields(RewireConfig)}
    config = RewireConfig.from_json(args.config, **overrides)
    encoder = encoder_from_spec(args.encoder)
    pairs = _masked_pairs(args.corpus, config)

    with run.writing(config=asdict(config),
                     inputs={"encoder": args.encoder, "corpus": args.corpus,
                             "config": args.config},
                     seed=config.seed):
        trace = rewire_train(encoder, pairs, config, checkpoint_path=run.path)
        config.to_json(run.path(REWIRE_CONFIG_NAME))
        write_loss_trace(trace, run.path("loss_trace.csv"))
    final = trace[-1].loss_mean if trace else float("nan")
    print(f"rewire: {config.steps} steps on {len(pairs)} pairs, "
          f"final mean loss {final:.4f} -> {run.out}")
    return 0


# ---------------------------------------------------------------------------
# probe

def _probe_in_scope(args, queries: Sequence[ProbeQuery],
                    rank: Callable[[list[str], list[ProbeQuery]], list[RankedPrediction]]
                    ) -> list[RankedPrediction]:
    """rank(names, queries) each query against its candidate scope, in input
    order: the --entities names, or the gold answers of the query's relation."""
    if args.candidate_scope == "full":
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
    if args.checkpoint is not None:
        ckpt_dir = _resolve_checkpoint(args.checkpoint)
        encoder, source = load_checkpoint(ckpt_dir), f"checkpoint {ckpt_dir}"
    else:
        encoder, source = encoder_from_spec(args.encoder), f"encoder {args.encoder}"

    def rank(names, group):
        return contrastive_probe(encoder, build_entity_index(names), group, args.k,
                                 layer_limit=args.layer_limit)

    try:
        return _probe_in_scope(args, queries, rank), encoder.identity
    except NumericalError as exc:
        # weights that overflow, such as those of a diverged rewire
        raise NumericalError(f"{source} cannot be probed: {exc}") from exc


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


# each probing strategy: its runner, and the optional probe flags it reads;
# any other flag must keep its default
PROBE_STRATEGIES = {
    "contrastive": (_probe_contrastive, ("encoder", "checkpoint", "entities", "k",
                                         "layer_limit", "candidate_scope")),
    "mask-predict": (_probe_mask_predict, ("encoder", "num_masks", "fill_strategy", "refine",
                                           "max_refine_iters")),
    "mask-average": (_probe_mask_average, ("encoder", "entities", "k", "candidate_scope")),
    "generate": (_probe_generate, ("encoder", "k")),
}
# the probe flags that name an input; the manifest records them under inputs
PROBE_INPUTS = ("encoder", "checkpoint", "dataset", "entities")


def cmd_probe(args: argparse.Namespace) -> int:
    run = _Run(args)
    runner, reads = PROBE_STRATEGIES[args.strategy]
    for flag in dict.fromkeys(f for _, flags in PROBE_STRATEGIES.values() for f in flags):
        if flag not in reads and getattr(args, flag) != args._parser.get_default(flag):
            *others, last = [s for s, (_, r) in PROBE_STRATEGIES.items() if flag in r]
            args._parser.error(f"--{flag.replace('_', '-')} only applies to "
                               f"{', '.join(others) + ' and ' if others else ''}{last} probing")
    if args.refine is None and args.max_refine_iters != args._parser.get_default(
            "max_refine_iters"):
        args._parser.error("--max-refine-iters only applies with --refine order")
    if args.k < 1:
        raise ConfigurationError("--k must be >= 1")
    if args.strategy != "contrastive" and not args.encoder:
        args._parser.error(f"--encoder is required for {args.strategy} probing")
    # only contrastive probing reads --checkpoint, so these two rules are its own
    if args.checkpoint is not None and args.encoder:
        args._parser.error("--encoder and --checkpoint are mutually exclusive")
    if args.checkpoint is None and not args.encoder:
        args._parser.error("contrastive probing needs --encoder or --checkpoint")
    if "candidate_scope" in reads:
        if args.candidate_scope == "full" and not args.entities:
            args._parser.error("--entities is required with --candidate-scope full")
        if args.candidate_scope == "relation" and args.entities:
            args._parser.error("--entities only applies with --candidate-scope full")
    predictions, identity = runner(args, _load_queries(args.dataset))

    with run.writing(config={"strategy": args.strategy, "model": identity,
                             **{f: getattr(args, f) for f in reads if f not in PROBE_INPUTS}},
                     inputs={f: getattr(args, f) for f in PROBE_INPUTS}, seed=None):
        save_predictions(predictions, run.path("predictions.jsonl"))
    print(f"probe[{args.strategy}]: {len(predictions)} predictions -> {run.out}")
    return 0


# ---------------------------------------------------------------------------
# eval

def _write_bins_csv(bins, k_values: Sequence[int], path) -> None:
    write_csv(path, ["bin", "count", *[f"acc{k}" for k in k_values]],
              ([row.label, row.count,
                *["" if row.acc[k] is None else f"{row.acc[k]:.6f}" for k in k_values]]
               for row in bins))


def cmd_eval(args: argparse.Namespace) -> int:
    run = _Run(args)
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
    if args.length_bins is not None:
        edges = _parse_int_list(args.length_bins, "--length-bins")
        bins = bin_by_answer_length(split_queries, hits, edges, k_values)
    if args.annotations is not None:
        annotations = load_annotations(args.annotations)
        sample_ids = {a.query_id for a in annotations}
        sample = [p for p in split_preds if p.query_id in sample_ids]
        answers_by_query = {q.query_id: q.answers for q in split_queries}
        rescored = expert_rescore(sample, annotations, answers_by_query, k_values)

    with run.writing(config={"split": args.split, "k": list(k_values), "model": args.model,
                             "strategy": strategy, "length_bins": args.length_bins,
                             "annotated": args.annotations is not None},
                     inputs={"predictions": args.predictions, "dataset": args.dataset,
                             "annotations": args.annotations},
                     seed=None):
        save_report(report, run.path("report.json"))
        write_report_csv(report, run.path("report.csv"))
        if bins is not None:
            _write_bins_csv(bins, k_values, run.path("bins.csv"))
        if rescored is not None:
            write_json(run.path("rescore.json"), asdict(rescored))
    accs = " ".join(f"acc@{k}={report.macro[k]:.4f}" for k in k_values)
    print(f"eval[{args.split}]: macro {accs} over {report.total_queries} queries -> {run.out}")
    return 0


# ---------------------------------------------------------------------------
# sweep

def _sweep_point(axis: str, config: RewireConfig, probe_step: int, value):
    """Training config, probe step and layer limit of one value."""
    if axis == "layer":
        return config, probe_step, value
    if axis == "mask-ratio":
        return replace(config, mask_ratio=value), probe_step, None
    if axis == "checkpoint-step":
        return config, value, None
    return replace(config, seed=value), probe_step, None


def _parse_axis_values(axis: str, raw: str):
    values = _parse_list(raw, float if axis == "mask-ratio" else int,
                         "--values must list at least one value",
                         f"--values: could not parse {raw!r} for axis {axis}")
    if len(set(values)) != len(values):
        raise ConfigurationError(f"--values contains duplicates: {raw!r}")
    if axis == "layer" and min(values) < 1:
        raise ConfigurationError("layer sweep values must be >= 1")
    if axis == "seed" and len(values) < 2:
        raise ConfigurationError("seed sweep needs at least two values")
    if axis in ("checkpoint-step", "seed") and min(values) < 0:
        raise ConfigurationError(f"{axis} values must be >= 0")
    return values


def _sweep_report(encoder: EncoderHandle, queries, index: EntityIndex, layer_limit,
                  k_values) -> EvalReport:
    predictions = contrastive_probe(encoder, index, queries, max(k_values), layer_limit)
    hits = score_predictions(predictions, queries, k_values)
    return aggregate(hits, k_values, model=encoder.identity,
                     strategy="contrastive", split="full")


def _sweep_group(encoder_spec: str, corpus, config: RewireConfig, points, queries,
                 index: EntityIndex, k_values) -> dict[int, EvalReport | None]:
    """Report of each (step, position, layer limit) point, by position.

    Points that share a training config share one encoder, trained once
    through their steps in ascending order and probed as it reaches each:
    rewire_train continues from encoder.step, and continuing reproduces the
    uninterrupted run, so each point sees the state a fresh run to its step
    ends in. A point whose layer limit exceeds the encoder's depth is
    skipped (None) before it trains; a group whose every point is skipped
    raises ConfigurationError.
    """
    encoder = encoder_from_spec(encoder_spec)
    pairs, reports = None, {}
    for step, i, layer_limit in sorted(points):
        if layer_limit is not None and layer_limit > encoder.max_layers:
            reports[i] = None
            continue
        if step > encoder.step:
            if pairs is None:
                pairs = _masked_pairs(corpus, config)
            rewire_train(encoder, pairs, replace(config, steps=step, checkpoint_every=0))
        reports[i] = _sweep_report(encoder, queries, index, layer_limit, k_values)
    if all(report is None for report in reports.values()):
        raise ConfigurationError(f"every layer limit in --values exceeds the encoder's "
                                 f"{encoder.max_layers} layers")
    return reports


def _write_sweep_csv(axis: str, values, reports: list[EvalReport],
                     path: Callable[[str], Path]) -> None:
    """Write the axis table of reports (in value order) to path(its name)."""
    if axis == "checkpoint-step":
        write_step_curves_csv(step_curves(values, reports), path("step_curves.csv"))
        return
    if axis == "seed":
        summary = stability_summary(reports)
        write_csv(path("stability.csv"),
                  ["relation_id", "acc1_mean", "acc1_std", "acc10_mean", "acc10_std"],
                  ([rel, *(f"{v:.6f}" for k in (1, 10) for v in stats[k])]
                   for rel, stats in [*summary.per_relation.items(),
                                      ("macro", summary.macro)]))
        return
    name, column = (("layer_sweep.csv", "layer_limit") if axis == "layer"
                    else ("mask_ratio_sweep.csv", "mask_ratio"))
    write_csv(path(name), [column, "macro_acc1", "macro_acc10"],
              ([f"{v:g}", f"{r.macro[1]:.6f}", f"{r.macro[10]:.6f}"]
               for v, r in zip(values, reports)))


def cmd_sweep(args: argparse.Namespace) -> int:
    run = _Run(args)
    values = _parse_axis_values(args.axis, args.values)
    config = RewireConfig.from_json(args.config)
    queries = _load_queries(args.dataset)
    index = build_entity_index(load_entities(args.entities))
    k_values = (1, 10)
    # Sweeps probe the state the config selects for probing; a config
    # without a probe step is probed after the full training budget.
    probe_step = (config.probe_checkpoint_step
                  if 0 < config.probe_checkpoint_step <= config.steps
                  else config.steps)

    groups: dict[tuple, tuple[RewireConfig, list]] = {}
    for i, value in enumerate(values):
        cfg, step, layer_limit = _sweep_point(args.axis, config, probe_step, value)
        groups.setdefault(astuple(cfg), (cfg, []))[1].append((step, i, layer_limit))
    reports = {}
    for cfg, points in groups.values():
        reports.update(_sweep_group(args.encoder, args.corpus, cfg, points, queries,
                                    index, k_values))
    kept = [i for i in range(len(values)) if reports[i] is not None]
    skipped = [v for i, v in enumerate(values) if reports[i] is None]

    with run.writing(config={"axis": args.axis, "values": values, "skipped_values": skipped,
                             "probe_step": probe_step, "rewire_config": asdict(config)},
                     inputs={"encoder": args.encoder, "corpus": args.corpus,
                             "config": args.config, "dataset": args.dataset,
                             "entities": args.entities},
                     seed=config.seed):
        _write_sweep_csv(args.axis, [values[i] for i in kept],
                         [reports[i] for i in kept], run.path)
    print(f"sweep[{args.axis}]: {len(kept)} runs -> {run.out / run.outputs[0]}")
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
    curate.set_defaults(func=cmd_curate, _parser=curate)

    rewire = sub.add_parser(
        "rewire", help="contrastively train an encoder on tail-masked sentences")
    rewire.add_argument("--encoder", required=True,
                        help='encoder spec, e.g. "reference:dim=128,seed=7,layers=2"')
    rewire.add_argument("--corpus", required=True, help="one sentence per line")
    rewire.add_argument("--config", required=True, help="RewireConfig JSON")
    # each numeric RewireConfig field, parsed as the type of its default
    for f in fields(RewireConfig):
        if type(f.default) in (int, float):
            rewire.add_argument("--" + f.name.replace("_", "-"), type=type(f.default),
                                default=None, help=f"override {f.name} from the config file")
    _add_out(rewire)
    rewire.set_defaults(func=cmd_rewire, _parser=rewire)

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
    probe.set_defaults(func=cmd_probe, _parser=probe)

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
    ev.set_defaults(func=cmd_eval, _parser=ev)

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
    sweep.set_defaults(func=cmd_sweep, _parser=sweep)
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
