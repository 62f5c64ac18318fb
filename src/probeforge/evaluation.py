"""Scoring and analysis cuts for ranked predictions.

Covers accuracy-at-k against gold answers (macro over relations and micro
over queries), answer-length bins, multi-sample stability, checkpoint step
curves, and expert-annotation rescoring with its gold/annotated confusion
table. Matching is normalized exact string equality: lowercase, collapsed
whitespace, outer punctuation stripped. That rule is strict for free-form
generation output but exact for retrieval candidates, which come from a
fixed entity vocabulary.
"""

from __future__ import annotations

import csv
import json
import math
from bisect import bisect_right
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .curator import ProbeQuery
from .errors import InputError, ValidationError
from .probers import RankedPrediction
from .text import match_norm, read_json, read_lines, write_csv

DEFAULT_K_VALUES = (1, 10)
PERFECT_SCORE = 5
ANNOTATION_SCORES = (1, 2, 3, 4, 5)
SPLITS = ("full", "hard")
ACC_TOLERANCE = 1e-9


def _check_k_values(k_values) -> tuple[int, ...]:
    ks = tuple(int(k) for k in k_values)
    if not ks or any(k < 1 for k in ks):
        raise ValidationError(f"k values must be positive, got {k_values}")
    if sorted(set(ks)) != list(ks):
        raise ValidationError(f"k values must be strictly increasing, got {k_values}")
    return ks


# ---------------------------------------------------------------------------
# hits

def _first_gold_rank(prediction: RankedPrediction, answers: Sequence[str],
                     depth: int) -> int | None:
    """The 1-based rank of the first of the top depth candidates whose
    normalized form equals a normalized gold answer, or None."""
    gold = {match_norm(a) for a in answers}
    for rank, (candidate, _) in enumerate(prediction.candidates[:depth], 1):
        if match_norm(candidate) in gold:
            return rank
    return None


def hit_at_k(prediction: RankedPrediction, answers: Sequence[str], k: int) -> int:
    """1 iff a normalized gold answer equals a normalized top-k candidate."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    return int(_first_gold_rank(prediction, answers, k) is not None)


class QueryHits(NamedTuple):
    query_id: str
    relation_id: str
    hits: dict[int, int]


def score_predictions(predictions: Sequence[RankedPrediction],
                      queries: Sequence[ProbeQuery],
                      k_values=DEFAULT_K_VALUES) -> list[QueryHits]:
    """Score each query; one without a prediction counts as all misses.
    Each query's answers and candidates are normalized once: a query hits
    at k when its first gold match ranks k or better."""
    ks = _check_k_values(k_values)
    by_id: dict[str, RankedPrediction] = {}
    for pred in predictions:
        if pred.query_id in by_id:
            raise ValidationError(f"duplicate prediction for query {pred.query_id!r}")
        by_id[pred.query_id] = pred
    known = {q.query_id for q in queries}
    stray = sorted(set(by_id) - known)
    if stray:
        raise ValidationError(f"predictions for unknown queries: {', '.join(stray)}")
    scored = []
    for query in queries:
        pred = by_id.get(query.query_id)
        rank = _first_gold_rank(pred, query.answers, ks[-1]) if pred else None
        hits = {k: int(rank is not None and rank <= k) for k in ks}
        scored.append(QueryHits(query.query_id, query.relation_id, hits))
    return scored


# ---------------------------------------------------------------------------
# aggregation

@dataclass(frozen=True)
class RelationScore:
    count: int
    acc: dict[int, float]


@dataclass(frozen=True)
class EvalReport:
    """Accuracy rollup. macro must equal the unweighted per-relation mean and
    micro the pooled hits/queries ratio, both within 1e-9."""

    model: str
    strategy: str
    split: str
    k_values: tuple[int, ...]
    per_relation: dict[str, RelationScore]
    macro: dict[int, float]
    micro: dict[int, float]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "k_values", _check_k_values(self.k_values))
        if self.split not in SPLITS:
            raise ValidationError(f"split must be one of {SPLITS}, got {self.split!r}")
        if not self.per_relation:
            raise ValidationError("report has no relations")
        total = sum(rel.count for rel in self.per_relation.values())
        for k in self.k_values:
            accs = [rel.acc[k] for rel in self.per_relation.values()]
            if not math.isclose(self.macro[k], sum(accs) / len(accs),
                                abs_tol=ACC_TOLERANCE):
                raise ValidationError(f"macro acc@{k} disagrees with per-relation accs")
            pooled = sum(rel.acc[k] * rel.count for rel in self.per_relation.values())
            if not math.isclose(self.micro[k], pooled / total, abs_tol=ACC_TOLERANCE):
                raise ValidationError(f"micro acc@{k} disagrees with pooled hits")

    @property
    def total_queries(self) -> int:
        return sum(rel.count for rel in self.per_relation.values())


def aggregate(query_hits: Sequence[QueryHits], k_values=DEFAULT_K_VALUES, *,
              model: str = "", strategy: str = "", split: str = "full",
              metadata: Mapping | None = None) -> EvalReport:
    """Roll per-query hits up to per-relation, macro, and micro accuracy."""
    ks = _check_k_values(k_values)
    if not query_hits:
        raise InputError("no query hits to aggregate")
    grouped: dict[str, list[QueryHits]] = {}
    for qh in query_hits:
        if sorted(qh.hits) != list(ks):
            raise ValidationError(
                f"query {qh.query_id!r} was scored at k={sorted(qh.hits)}, expected {list(ks)}"
            )
        grouped.setdefault(qh.relation_id, []).append(qh)
    per_relation = {}
    for relation, rows in grouped.items():
        acc = {k: sum(r.hits[k] for r in rows) / len(rows) for k in ks}
        per_relation[relation] = RelationScore(count=len(rows), acc=acc)
    macro = {k: sum(rel.acc[k] for rel in per_relation.values()) / len(per_relation)
             for k in ks}
    total = len(query_hits)
    micro = {k: sum(qh.hits[k] for qh in query_hits) / total for k in ks}
    return EvalReport(model=model, strategy=strategy, split=split, k_values=ks,
                      per_relation=per_relation, macro=macro, micro=micro,
                      metadata=dict(metadata or {}))


# ---------------------------------------------------------------------------
# answer-length bins

class BinScore(NamedTuple):
    label: str
    count: int
    acc: dict[int, float | None]


def bin_by_answer_length(queries: Sequence[ProbeQuery],
                         query_hits: Sequence[QueryHits],
                         bin_edges: Sequence[int],
                         k_values=DEFAULT_K_VALUES) -> list[BinScore]:
    """Per-bin accuracy, binning each query by the character length of its
    shortest gold answer. Bins are [edge_i, edge_i+1): a boundary value goes
    to the upper bin. An empty bin reports acc None with count 0.
    """
    ks = _check_k_values(k_values)
    edges = list(bin_edges)
    if not edges or any(b <= a for a, b in zip(edges, edges[1:])):
        raise ValidationError(f"bin edges must be strictly increasing, got {bin_edges}")
    hits_by_id = {qh.query_id: qh for qh in query_hits}
    labels = [f"<{edges[0]}"]
    labels += [f"[{a},{b})" for a, b in zip(edges, edges[1:])]
    labels += [f">={edges[-1]}"]
    members: list[list[QueryHits]] = [[] for _ in labels]
    for query in queries:
        if query.query_id not in hits_by_id:
            raise ValidationError(f"query {query.query_id!r} has no hit record")
        length = min(len(a) for a in query.answers)
        members[bisect_right(edges, length)].append(hits_by_id[query.query_id])
    bins = []
    for label, rows in zip(labels, members):
        if rows:
            acc = {k: sum(r.hits[k] for r in rows) / len(rows) for k in ks}
        else:
            acc = {k: None for k in ks}
        bins.append(BinScore(label, len(rows), acc))
    return bins


# ---------------------------------------------------------------------------
# stability across samples and steps

class MeanStd(NamedTuple):
    mean: float
    std: float


def _mean_std(values) -> MeanStd:
    arr = np.asarray(values, dtype=float)
    # population convention: divide by n, not n-1
    return MeanStd(float(arr.mean()), float(arr.std()))


def _matching_reports(reports: Sequence[EvalReport], minimum: int) -> tuple:
    if len(reports) < minimum:
        raise ValidationError(f"need at least {minimum} reports, got {len(reports)}")
    relations = list(reports[0].per_relation)
    ks = reports[0].k_values
    for report in reports[1:]:
        if set(report.per_relation) != set(relations):
            raise ValidationError("reports cover different relation sets")
        if report.k_values != ks:
            raise ValidationError("reports were scored at different k values")
    return relations, ks


@dataclass(frozen=True)
class StabilitySummary:
    n: int
    per_relation: dict[str, dict[int, MeanStd]]
    macro: dict[int, MeanStd]


def stability_summary(reports: Sequence[EvalReport]) -> StabilitySummary:
    """Mean and population std of accuracy across repeated runs."""
    relations, ks = _matching_reports(reports, minimum=2)
    per_relation = {
        rel: {k: _mean_std([r.per_relation[rel].acc[k] for r in reports]) for k in ks}
        for rel in relations
    }
    macro = {k: _mean_std([r.macro[k] for r in reports]) for k in ks}
    return StabilitySummary(n=len(reports), per_relation=per_relation, macro=macro)


class StepCurveRow(NamedTuple):
    step: int
    relation_id: str
    mean: float
    std: float


def step_curves(reports: Sequence[EvalReport], k: int = 1) -> list[StepCurveRow]:
    """Per-relation accuracy curve over checkpoint steps, with a "macro" row
    per step. Reports at the same step (different seeds or samples) collapse
    to mean and population std."""
    relations, ks = _matching_reports(reports, minimum=1)
    if k not in ks:
        raise ValidationError(f"reports were not scored at k={k}")
    by_step: dict[int, list[EvalReport]] = {}
    for report in reports:
        step = report.metadata.get("checkpoint_step")
        if not isinstance(step, int):
            raise ValidationError("every report needs an integer metadata"
                                  " checkpoint_step for step curves")
        by_step.setdefault(step, []).append(report)
    rows = []
    for step in sorted(by_step):
        group = by_step[step]
        for rel in relations:
            ms = _mean_std([r.per_relation[rel].acc[k] for r in group])
            rows.append(StepCurveRow(step, rel, ms.mean, ms.std))
        ms = _mean_std([r.macro[k] for r in group])
        rows.append(StepCurveRow(step, "macro", ms.mean, ms.std))
    return rows


# ---------------------------------------------------------------------------
# expert rescoring

@dataclass(frozen=True)
class ExpertAnnotation:
    query_id: str
    candidate: str
    score: int

    def __post_init__(self):
        if not isinstance(self.score, int) or isinstance(self.score, bool) \
                or self.score not in ANNOTATION_SCORES:
            raise ValidationError(
                f"annotation score must be an integer in {ANNOTATION_SCORES}, "
                f"got {self.score!r}"
            )


def save_annotations(annotations: Iterable[ExpertAnnotation], path) -> None:
    write_csv(path, ["query_id", "candidate", "score"],
              ([ann.query_id, ann.candidate, ann.score] for ann in annotations))


def load_annotations(path) -> list[ExpertAnnotation]:
    reader = csv.DictReader(read_lines(path, "annotations"))
    if reader.fieldnames != ["query_id", "candidate", "score"]:
        raise ValidationError(
            f"{path}: expected header query_id,candidate,score, "
            f"got {reader.fieldnames}"
        )
    annotations = []
    for row in reader:
        try:
            score = int(row["score"])
        except (TypeError, ValueError):
            raise ValidationError(
                f"{path}:{reader.line_num}: score {row['score']!r} is not an integer"
            ) from None
        try:
            annotations.append(ExpertAnnotation(row["query_id"],
                                                row["candidate"], score))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{reader.line_num}: {exc}") from exc
    return annotations


@dataclass(frozen=True)
class RescoreResult:
    """Gold and expert views of the same top-k candidates.

    confusion[k][score] holds {"gold_hit": n, "gold_miss": n} over each
    query's top-k candidates. annotated_acc follows the cumulative
    convention of summing perfect counts over every reported cutoff up to k
    before dividing by the top-k candidate total; annotated_candidate_acc
    is the plain within-top-k ratio. When the two disagree, the discrepancy
    is spelled out in notes rather than reconciled.
    """

    k_values: tuple[int, ...]
    perfect_threshold: int
    totals: dict[int, int]
    confusion: dict[int, dict[int, dict[str, int]]]
    gold_candidate_acc: dict[int, float]
    gold_query_acc: dict[int, float]
    annotated_acc: dict[int, float]
    annotated_candidate_acc: dict[int, float]
    notes: tuple[str, ...]


def expert_rescore(predictions: Sequence[RankedPrediction],
                   annotations: Sequence[ExpertAnnotation],
                   answers_by_query: Mapping[str, Sequence[str]],
                   k_values=DEFAULT_K_VALUES,
                   perfect_threshold: int = PERFECT_SCORE) -> RescoreResult:
    """Cross-tabulate expert scores against gold-match status at each k."""
    ks = _check_k_values(k_values)
    if perfect_threshold not in ANNOTATION_SCORES:
        raise ValidationError(
            f"perfect_threshold must be in {ANNOTATION_SCORES}, got {perfect_threshold}"
        )
    if not predictions:
        raise InputError("no predictions to rescore")
    scores: dict[tuple[str, str], int] = {}
    for ann in annotations:
        key = (ann.query_id, ann.candidate)
        if key in scores:
            raise ValidationError(f"duplicate annotation for {key}")
        scores[key] = ann.score
    gold = {}
    for pred in predictions:
        if pred.query_id not in answers_by_query:
            raise ValidationError(f"no gold answers for query {pred.query_id!r}")
        gold[pred.query_id] = {match_norm(a) for a in answers_by_query[pred.query_id]}
    missing = []
    for pred in predictions:
        for cand, _ in pred.candidates[:max(ks)]:
            if (pred.query_id, cand) not in scores:
                missing.append((pred.query_id, cand))
    if missing:
        raise ValidationError(
            "missing annotations for: "
            + "; ".join(f"({q!r}, {c!r})" for q, c in missing)
        )

    confusion = {k: {s: {"gold_hit": 0, "gold_miss": 0} for s in ANNOTATION_SCORES}
                 for k in ks}
    totals = {k: 0 for k in ks}
    query_hits = {k: 0 for k in ks}
    for pred in predictions:
        matched = {cand: match_norm(cand) in gold[pred.query_id]
                   for cand, _ in pred.candidates[:max(ks)]}
        for k in ks:
            top = [cand for cand, _ in pred.candidates[:k]]
            totals[k] += len(top)
            query_hits[k] += int(any(matched[c] for c in top))
            for cand in top:
                status = "gold_hit" if matched[cand] else "gold_miss"
                confusion[k][scores[(pred.query_id, cand)]][status] += 1

    perfect = {k: sum(cell["gold_hit"] + cell["gold_miss"]
                      for s, cell in confusion[k].items() if s >= perfect_threshold)
               for k in ks}
    gold_hits = {k: sum(cell["gold_hit"] for cell in confusion[k].values())
                 for k in ks}
    n_queries = len(predictions)
    gold_candidate_acc = {k: gold_hits[k] / totals[k] for k in ks}
    gold_query_acc = {k: query_hits[k] / n_queries for k in ks}
    annotated_candidate_acc = {k: perfect[k] / totals[k] for k in ks}
    annotated_acc = {k: sum(perfect[j] for j in ks if j <= k) / totals[k] for k in ks}
    notes = []
    for k in ks:
        cumulative = sum(perfect[j] for j in ks if j <= k)
        if cumulative != perfect[k]:
            notes.append(
                f"annotated acc@{k} counts perfect answers across every reported "
                f"cutoff up to {k} ({cumulative}/{totals[k]}); the plain top-{k} "
                f"ratio is {perfect[k]}/{totals[k]}"
            )
    return RescoreResult(
        k_values=ks, perfect_threshold=perfect_threshold, totals=totals,
        confusion=confusion, gold_candidate_acc=gold_candidate_acc,
        gold_query_acc=gold_query_acc, annotated_acc=annotated_acc,
        annotated_candidate_acc=annotated_candidate_acc, notes=tuple(notes),
    )


# ---------------------------------------------------------------------------
# report files

def save_report(report: EvalReport, path) -> None:
    """Write the report's fields in their declared order, as UTF-8 JSON."""
    Path(path).write_text(json.dumps(asdict(report), indent=2, ensure_ascii=False) + "\n",
                          encoding="utf-8")


def load_report(path) -> EvalReport:
    doc = read_json(path, "report")
    try:
        per_relation = {
            rel: RelationScore(count=entry["count"],
                               acc={int(k): v for k, v in entry["acc"].items()})
            for rel, entry in doc["per_relation"].items()
        }
        return EvalReport(
            model=doc["model"], strategy=doc["strategy"], split=doc["split"],
            k_values=tuple(doc["k_values"]), per_relation=per_relation,
            macro={int(k): v for k, v in doc["macro"].items()},
            micro={int(k): v for k, v in doc["micro"].items()},
            metadata=doc.get("metadata", {}),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"{path}: malformed report: {exc}") from exc


def write_report_csv(report: EvalReport, path) -> None:
    """Flat per-relation table: relation_id, count, then one acc column per k."""
    write_csv(path, ["relation_id", "count", *[f"acc{k}" for k in report.k_values]],
              ([rel, score.count, *[f"{score.acc[k]:.6f}" for k in report.k_values]]
               for rel, score in report.per_relation.items()))


def write_step_curves_csv(rows: Sequence[StepCurveRow], path) -> None:
    write_csv(path, ["step", "relation_id", "acc1_mean", "acc1_std"],
              ([row.step, row.relation_id, f"{row.mean:.6f}", f"{row.std:.6f}"]
               for row in rows))
