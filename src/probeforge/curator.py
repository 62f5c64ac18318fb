"""Benchmark curation: knowledge triples in, cloze-style probe queries out.

The pipeline is: load tab-separated triples, group them into one query per
(head, relation) with the merged tails as gold answers, render the query text
from a relation prompt template, then flag the "hard" subset whose answers
cannot be guessed from surface overlap with the query.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from importlib import resources
from typing import Iterable

import numpy as np

from .errors import (
    ConfigurationError,
    EmptyDatasetError,
    ValidationError,
)
from .text import (collapse_norm, contains_contiguous, metric_tokens, read_json,
                   read_lines, read_records, write_jsonl)

MASK_PLACEHOLDER = "[MASK]"
MAX_GOLD_ANSWERS = 10

MATCH_THRESHOLD = 0.1
ROUGE_THRESHOLD = 0.1


@dataclass(frozen=True)
class KnowledgeTriple:
    head_name: str
    relation_id: str
    tail_name: str

    def __post_init__(self):
        for attr in ("head_name", "relation_id", "tail_name"):
            if not getattr(self, attr).strip():
                raise ValidationError(f"triple field {attr!r} must be non-empty")


@dataclass(frozen=True)
class PromptTemplate:
    """A cloze pattern with one subject slot [X] and one answer slot [Y]."""

    relation_id: str
    pattern: str
    display_name: str = ""

    def __post_init__(self):
        if self.pattern.count("[X]") != 1 or self.pattern.count("[Y]") != 1:
            raise ValidationError(
                f"template {self.relation_id!r} must contain exactly one [X] and one [Y]: "
                f"{self.pattern!r}"
            )


@dataclass
class ProbeQuery:
    query_id: str
    relation_id: str
    head_name: str
    query_text: str
    answers: list[str]
    hard: bool = False

    def __post_init__(self):
        if not 1 <= len(self.answers) <= MAX_GOLD_ANSWERS:
            raise ValidationError(
                f"query {self.query_id!r} has {len(self.answers)} answers, "
                f"expected 1..{MAX_GOLD_ANSWERS}"
            )
        normed = [collapse_norm(a) for a in self.answers]
        if len(set(normed)) != len(normed):
            raise ValidationError(f"query {self.query_id!r} has duplicate answers after normalization")
        if any(not n for n in normed):
            raise ValidationError(f"query {self.query_id!r} has an empty answer")


@dataclass
class TripleLoadResult:
    triples: list[KnowledgeTriple]
    malformed: int = 0


def load_triples(path) -> TripleLoadResult:
    """Parse the head<TAB>relation<TAB>tail lines of the file at path; up to
    two trailing ID columns (head_id, tail_id) are accepted and ignored.

    Comment lines starting with "#" and blank lines are ignored. Malformed
    lines (wrong field count, empty mandatory field, a tail with no word
    token) are counted rather than silently dropped; an input with zero
    valid triples is an error.
    """
    triples: list[KnowledgeTriple] = []
    malformed = total = 0
    for raw in read_lines(path, "triples"):
        line = raw.rstrip("\n").rstrip("\r")
        if not line.strip() or line.lstrip().startswith("#"):
            continue
        total += 1
        fields = line.split("\t")
        if not 3 <= len(fields) <= 5:
            malformed += 1
            continue
        head, rel, tail = (f.strip() for f in fields[:3])
        # a tail of punctuation alone leaves no token to score overlap on
        if not head or not rel or not metric_tokens(tail):
            malformed += 1
            continue
        triples.append(KnowledgeTriple(head, rel, tail))
    if not triples:
        raise EmptyDatasetError(
            f"no valid triples found ({total} data lines, {malformed} malformed)"
        )
    return TripleLoadResult(triples, malformed)


def load_templates(path) -> dict[str, PromptTemplate]:
    """Load a template registry from a JSON array of template objects, each
    with string fields relation_id, pattern and optionally display_name."""
    registry: dict[str, PromptTemplate] = {}
    for i, entry in enumerate(read_json(path, "templates", list)):
        if not isinstance(entry, dict):
            raise ValidationError(f"{path}: entry {i}: expected a JSON object")
        try:
            fields = (entry["relation_id"], entry["pattern"], entry.get("display_name", ""))
        except KeyError as exc:
            raise ValidationError(f"{path}: entry {i}: missing field {exc}") from exc
        if not all(isinstance(field, str) for field in fields):
            raise ValidationError(f"{path}: entry {i}: relation_id, pattern and "
                                  "display_name must be strings")
        try:
            tpl = PromptTemplate(*fields)
        except ValidationError as exc:
            raise ValidationError(f"{path}: entry {i}: {exc}") from exc
        if tpl.relation_id in registry:
            raise ValidationError(f"{path}: duplicate relation_id {tpl.relation_id!r}")
        registry[tpl.relation_id] = tpl
    return registry


def default_templates() -> dict[str, PromptTemplate]:
    """The 19 bundled relation prompts."""
    ref = resources.files("probeforge.data").joinpath("relation_templates.json")
    with resources.as_file(ref) as path:
        return load_templates(path)


def instantiate_prompt(template: PromptTemplate, head_name: str) -> str:
    """Render a query: [X] is substituted first, then the template's own [Y].

    Substitution order matters when head_name itself contains "[Y]": the
    template's slot is located by position so an injected literal survives
    untouched.
    """
    pattern = template.pattern
    x_pos = pattern.index("[X]")
    y_pos = pattern.index("[Y]")
    text = pattern.replace("[X]", head_name, 1)
    if x_pos < y_pos:
        y_pos += len(head_name) - len("[X]")
    return text[:y_pos] + MASK_PLACEHOLDER + text[y_pos + len("[Y]"):]


def mask_slot(query_text: str) -> int:
    """The index of the mask placeholder among the whitespace tokens of
    query_text, where it must stand exactly once, as a token of its own; the
    mask-filling and generation probes need it so. Else ValidationError."""
    tokens = query_text.split()
    if query_text.count(MASK_PLACEHOLDER) != 1 or MASK_PLACEHOLDER not in tokens:
        raise ValidationError(f"query {query_text!r} must contain {MASK_PLACEHOLDER!r} "
                              "exactly once, as a whitespace token of its own")
    return tokens.index(MASK_PLACEHOLDER)


def _relation_stream_seed(relation_id: str) -> int:
    return int.from_bytes(hashlib.sha256(relation_id.encode("utf-8")).digest()[:4], "big")


def _query_id(relation_id: str, head_name: str) -> str:
    digest = hashlib.sha1(f"{relation_id}\x1f{head_name}".encode("utf-8")).hexdigest()
    return f"{relation_id}-{digest[:12]}"


def group_queries(triples: Iterable[KnowledgeTriple],
                  templates: dict[str, PromptTemplate],
                  max_answers: int = MAX_GOLD_ANSWERS,
                  per_relation_cap: int = 1000,
                  seed: int = 0) -> list[ProbeQuery]:
    """Merge triples into queries keyed by (head, relation).

    Tails are deduplicated after normalization and kept in first-appearance
    order. Queries exceeding max_answers gold answers are discarded. When a
    relation holds more than per_relation_cap queries, a uniform sample is
    drawn from a per-relation stream derived from (seed, relation_id), so
    relations can be processed in any partition without changing the result.
    """
    if not 1 <= max_answers <= MAX_GOLD_ANSWERS:
        raise ConfigurationError(f"max_answers must be in 1..{MAX_GOLD_ANSWERS}")
    if per_relation_cap < 1:
        raise ConfigurationError("per_relation_cap must be >= 1")
    triples = list(triples)
    missing = sorted({t.relation_id for t in triples} - set(templates))
    if missing:
        raise ConfigurationError(f"no template registered for relations: {', '.join(missing)}")

    # relation -> head -> normalized tail -> its first spelling; insertion
    # order is the order of first appearance of relations, heads and tails
    groups: dict[str, dict[str, dict[str, str]]] = {}
    for t in triples:
        tails = groups.setdefault(t.relation_id, {}).setdefault(t.head_name, {})
        tails.setdefault(collapse_norm(t.tail_name), t.tail_name)

    queries: list[ProbeQuery] = []
    for rel, heads in groups.items():
        entries = [(head, list(tails.values())) for head, tails in heads.items()
                   if len(tails) <= max_answers]
        if len(entries) > per_relation_cap:
            rng = np.random.default_rng([seed, _relation_stream_seed(rel)])
            keep = np.sort(rng.choice(len(entries), size=per_relation_cap, replace=False))
            entries = [entries[i] for i in keep]
        template = templates[rel]
        for head, tails in entries:
            query_text = instantiate_prompt(template, head)
            mask_slot(query_text)
            queries.append(ProbeQuery(
                query_id=_query_id(rel, head),
                relation_id=rel,
                head_name=head,
                query_text=query_text,
                answers=tails,
            ))
    return queries


def _match_fraction(query_tokens: list[str], answer_tokens: list[list[str]]) -> float:
    matched = sum(1 for a in answer_tokens if contains_contiguous(a, query_tokens))
    return matched / len(answer_tokens)


def avg_match(query_text: str, answers: list[str]) -> float:
    """Fraction of answers whose tokens appear contiguously inside the query."""
    if not answers:
        raise ValueError("avg_match requires at least one answer")
    return _match_fraction(metric_tokens(query_text), [metric_tokens(a) for a in answers])


def _lcs_length(a: list[str], b: list[str]) -> int:
    prev = [0] * (len(b) + 1)
    for x in a:
        cur = [0] * (len(b) + 1)
        for j, y in enumerate(b, start=1):
            if x == y:
                cur[j] = prev[j - 1] + 1
            else:
                cur[j] = max(prev[j], cur[j - 1])
        prev = cur
    return prev[-1]


def _rouge_f(hyp: list[str], ref: list[str]) -> float:
    if not hyp or not ref:
        raise ValueError("rouge_l requires both sides to normalize to at least one token")
    # sides that share no token have no common subsequence
    lcs = _lcs_length(hyp, ref) if not set(hyp).isdisjoint(ref) else 0
    p = lcs / len(hyp)
    r = lcs / len(ref)
    if p + r == 0:
        return 0.0
    return 2 * p * r / (p + r)


def rouge_l(hypothesis: str, reference: str) -> float:
    """Token-level longest-common-subsequence F measure.

    P = LCS/|hyp|, R = LCS/|ref|, F = 2PR/(P+R), with F = 0 when P+R = 0.
    Precision and recall carry equal weight.
    """
    return _rouge_f(metric_tokens(hypothesis), metric_tokens(reference))


def split_hard(queries: Iterable[ProbeQuery]) -> list[ProbeQuery]:
    """Flag queries as hard when surface overlap cannot give the answer away.

    A query is hard iff avg_match <= MATCH_THRESHOLD and the maximum ROUGE-L
    over its answers (query as hypothesis, answer as reference) is
    <= ROUGE_THRESHOLD. All queries are retained; only the flag changes.
    Each query and answer is tokenized once.
    """
    out = []
    for q in queries:
        query_tokens = metric_tokens(q.query_text)
        answer_tokens = [metric_tokens(a) for a in q.answers]
        is_hard = _match_fraction(query_tokens, answer_tokens) <= MATCH_THRESHOLD and (
            max(_rouge_f(query_tokens, a) for a in answer_tokens) <= ROUGE_THRESHOLD
        )
        out.append(dataclasses.replace(q, hard=is_hard, answers=list(q.answers)))
    return out


def save_dataset(queries: Iterable[ProbeQuery], path) -> None:
    # the instance's own field dict, in field order; asdict would copy each answers list
    write_jsonl(path, map(vars, queries))


def load_dataset(path) -> list[ProbeQuery]:
    """Read a query dataset back, validating each line's schema. A query_id
    may not repeat, since predictions are scored by it.

    An empty file is a valid empty dataset.
    """
    seen: set[str] = set()

    def build(query_id, relation_id, head_name, query_text, answers, hard):
        if not all(isinstance(a, str) for a in answers):
            raise ValidationError("field has wrong type")
        if query_id in seen:
            raise ValidationError(f"duplicate query_id {query_id!r}")
        seen.add(query_id)
        mask_slot(query_text)
        return ProbeQuery(query_id, relation_id, head_name, query_text, answers, hard)

    return read_records(path, "dataset", {
        "query_id": str, "relation_id": str, "head_name": str, "query_text": str,
        "answers": list, "hard": bool}, build)
