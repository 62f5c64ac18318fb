"""Probing strategies that turn frozen models into ranked answer lists.

Four ways to answer a cloze query: nearest-neighbor retrieval against a
pre-encoded entity index, multi-mask prediction (three fill orders plus an
optional refinement sweep), mask-average candidate ranking, and free-form
generation. Retrieval searches the full entity vocabulary by default;
restricting candidates to one relation inflates scores and is left to the
caller.

Retrieval is exact: every query is scored against every entity, and the
top k come out ordered by descending score with ties going to the lower
entity index. Names and queries are encoded, and queries scored, in blocks
of at most BLOCK_BYTES of float64 rows: an encode block holds feature rows
at most feature_dim wide, and a score block holds one score row per query
plus the partitioned copy that k-selection makes, each one entry per entity
wide. Only one block is alive at a time, so retrieval's working memory
stays within BLOCK_BYTES on top of the index and the query embeddings,
whatever the vocabulary size.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .curator import MASK_PLACEHOLDER, ProbeQuery
from .encoders import EncoderHandle, GeneratorHandle, MLMHeadHandle, unit_rows
from .errors import (
    ConfigurationError,
    InputError,
    ValidationError,
)
from .text import collapse_norm, read_records, write_jsonl

UNIT_NORM_TOL = 1e-6
DEFAULT_NUM_MASKS = 5
MASK_STRATEGIES = ("independent", "order", "confidence")
# most bytes of float64 rows one block may hold: the feature rows an encode
# builds, or the score rows of the queries being ranked with their partition
BLOCK_BYTES = 8 * 2**20


def _blocks(n_rows: int, row_width: int) -> list[slice]:
    """Near-equal row ranges of at most BLOCK_BYTES of row_width floats each.

    Near-equal rather than full blocks plus a remainder, so that no block is
    a sliver of a few rows: BLAS may round a product of very few rows
    differently from a tall one.
    """
    per_block = max(1, BLOCK_BYTES // (8 * row_width))
    count = -(-n_rows // per_block)
    bounds = [n_rows * i // count for i in range(count + 1)] if count else []
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _encode_width(encoder: EncoderHandle) -> int:
    # an encode holds one feature row per text, over the buckets its block
    # touches, so at most feature_dim wide; an encoder without input features
    # is bounded by its embedding width instead
    return getattr(encoder, "feature_dim", encoder.embedding_dim)


def _encode_units(encoder: EncoderHandle, texts: list[str], layer_limit: int) -> np.ndarray:
    """Unit-norm embeddings of texts, encoded one block of feature rows at a time."""
    vectors = np.empty((len(texts), encoder.embedding_dim))
    for block in _blocks(len(texts), _encode_width(encoder)):
        vectors[block], _ = unit_rows(encoder.encode(texts[block], layer_limit=layer_limit),
                                     "encoded texts")
    return vectors


@dataclass(frozen=True)
class RankedPrediction:
    """Ranked candidate answers for one query. Scores must be non-increasing
    and candidate strings unique; NaN scores are rejected outright."""

    query_id: str
    candidates: tuple[tuple[str, float], ...]
    strategy: str

    def __post_init__(self):
        clean = tuple((str(c), float(s)) for c, s in self.candidates)
        object.__setattr__(self, "candidates", clean)
        scores = [s for _, s in clean]
        if any(math.isnan(s) for s in scores):
            raise ValidationError(f"prediction {self.query_id!r} has a NaN score")
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValidationError(f"prediction {self.query_id!r} has increasing scores")
        names = [c for c, _ in clean]
        if len(set(names)) != len(names):
            raise ValidationError(f"prediction {self.query_id!r} has duplicate candidates")


# ---------------------------------------------------------------------------
# retrieval

@dataclass(frozen=True)
class EntityIndex:
    """Frozen entity vocabulary with one unit-norm row per name."""

    entity_names: tuple[str, ...]
    vectors: np.ndarray
    encoder_identity: str
    layer_limit: int

    def __post_init__(self):
        object.__setattr__(self, "entity_names", tuple(self.entity_names))
        if not self.entity_names:
            raise ValidationError("entity index has no entities")
        if self.vectors.ndim != 2 or self.vectors.shape[0] != len(self.entity_names):
            raise ValidationError(
                f"expected {len(self.entity_names)} vector rows, got shape {self.vectors.shape}"
            )
        # row by row, with no squared copy of the whole index; a NaN or inf
        # row has a NaN or inf norm and fails the check
        norms = np.sqrt(np.einsum("ij,ij->i", self.vectors, self.vectors))
        if not np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL):
            raise ValidationError("entity index rows must have unit norm")
        seen: set[str] = set()
        dups = []
        for name in self.entity_names:
            key = collapse_norm(name)
            if key in seen:
                dups.append(name)
            seen.add(key)
        if dups:
            raise InputError("duplicate entity names after normalization: " + ", ".join(dups))
        self.vectors.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entity_names)


def load_entities(path) -> list[str]:
    """One entity name per line; blank lines are skipped."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read entities from {path}: {exc}") from exc
    return [line.strip() for line in text.splitlines() if line.strip()]


def build_entity_index(encoder: EncoderHandle, entity_names: Sequence[str],
                       layer_limit: int | None = None) -> EntityIndex:
    names = list(entity_names)
    if not names:
        raise InputError("entity vocabulary is empty")
    limit = encoder.resolve_layer_limit(layer_limit)
    return EntityIndex(tuple(names), _encode_units(encoder, names, limit),
                       encoder.identity, limit)


def contrastive_probe(encoder: EncoderHandle, index: EntityIndex,
                      queries: Sequence[ProbeQuery], k: int) -> list[RankedPrediction]:
    """Rank index entities by cosine similarity to each encoded query.

    The index must come from the same encoder state it is probed with.
    Each prediction holds the min(k, len(index)) entities with the highest
    scores, ordered by descending score; equal scores keep index order, so
    the result equals sorting every entity by (-score, entity index).
    Queries are encoded, then scored, a block at a time. An encode block
    holds at most BLOCK_BYTES of feature rows; a score block's rows and the
    copy np.partition makes of them together hold at most BLOCK_BYTES, and
    one score block is alive at a time. So memory is bounded by one block
    plus the index and the query embeddings. Within a score block,
    np.partition finds each row's k-th largest score, and only the entities
    scoring at least that much are sorted (exact flat k-selection).
    """
    if encoder.identity != index.encoder_identity:
        raise ConfigurationError(
            f"index was built by {index.encoder_identity!r} "
            f"but the probing encoder is {encoder.identity!r}"
        )
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    top = min(k, len(index))
    encoded = _encode_units(encoder, [q.query_text for q in queries], index.layer_limit)
    predictions = []
    # each score row has a partitioned copy beside it, hence twice the width
    for block in _blocks(len(queries), 2 * len(index)):
        predictions += _rank_block(index, queries[block], encoded[block], top)
    return predictions


def _rank_block(index: EntityIndex, queries: Sequence[ProbeQuery],
                vectors: np.ndarray, top: int) -> list[RankedPrediction]:
    # the block's scores die when this returns, before the next block's
    # product is allocated
    n = len(index)
    sims = vectors @ index.vectors.T
    # a copy, so the partitioned array is freed at once instead of living on
    # as the base of a column view
    kth = np.partition(sims, n - top, axis=1)[:, n - top].copy()
    predictions = []
    for query, scores, floor in zip(queries, sims, kth):
        candidates = np.flatnonzero(scores >= floor)
        order = candidates[np.argsort(-scores[candidates], kind="stable")[:top]]
        predictions.append(RankedPrediction(
            query.query_id,
            tuple((index.entity_names[j], float(scores[j])) for j in order),
            strategy="contrastive"))
    return predictions


# ---------------------------------------------------------------------------
# mask filling

class MaskPredictResult(NamedTuple):
    answer: str
    score: float
    sweeps: int
    converged: bool


def _expand_placeholder(query: str, mask_token: str, num_masks: int) -> tuple[list[str], list[int]]:
    # the placeholder must stand alone as a whitespace token
    tokens = query.split()
    slots = [i for i, t in enumerate(tokens) if t == MASK_PLACEHOLDER]
    if len(slots) != 1:
        raise ValidationError(
            f"query must contain {MASK_PLACEHOLDER!r} exactly once "
            f"as its own token, found {len(slots)}"
        )
    at = slots[0]
    expanded = tokens[:at] + [mask_token] * num_masks + tokens[at + 1:]
    # a stray mask token elsewhere in the text would misalign rows and slots
    if expanded.count(mask_token) != num_masks:
        raise ValidationError(
            f"query already contains the mask token {mask_token!r}"
        )
    return expanded, list(range(at, at + num_masks))


def _fill(mlm: MLMHeadHandle, tokens: list[str], slots: list[int], strategy: str) -> None:
    if strategy == "independent":
        rows = mlm.mask_logprobs(" ".join(tokens))
        picks = np.argmax(rows, axis=1)
        for slot, col in zip(slots, picks):
            tokens[slot] = mlm.vocab[int(col)]
        return
    remaining = list(slots)
    while remaining:
        rows = mlm.mask_logprobs(" ".join(tokens))
        if strategy == "order":
            choose = 0
        else:  # confidence; ties go to the leftmost mask
            choose = int(np.argmax(rows.max(axis=1)))
        col = int(np.argmax(rows[choose]))
        tokens[remaining[choose]] = mlm.vocab[col]
        remaining.pop(choose)


def _refine_sweeps(mlm: MLMHeadHandle, tokens: list[str], slots: list[int],
                   max_refine_iters: int) -> tuple[int, bool]:
    sweeps = 0
    while sweeps < max_refine_iters:
        changed = False
        for slot in slots:
            previous = tokens[slot]
            tokens[slot] = mlm.mask_token
            rows = mlm.mask_logprobs(" ".join(tokens))
            tokens[slot] = mlm.vocab[int(np.argmax(rows[0]))]
            if tokens[slot] != previous:
                changed = True
        sweeps += 1
        if not changed:
            return sweeps, True
    return sweeps, False


def mask_predict_detail(mlm: MLMHeadHandle, query: str,
                        num_masks: int = DEFAULT_NUM_MASKS,
                        strategy: str = "independent",
                        refine: str | None = None,
                        max_refine_iters: int = 5) -> MaskPredictResult:
    """Fill the query's placeholder with num_masks tokens and score the span.

    strategy picks the fill order: "independent" fills every mask from one
    forward pass, "order" fills left to right re-scoring after each fill,
    "confidence" repeatedly fills the position whose best token is most
    probable. refine="order" then re-masks one token at a time in
    left-to-right sweeps until no token changes or max_refine_iters is hit.
    The score is the mean log-probability of the final span with all its
    positions re-masked at once.
    """
    if strategy not in MASK_STRATEGIES:
        raise ConfigurationError(
            f"unknown strategy {strategy!r}, expected one of {MASK_STRATEGIES}"
        )
    if refine is not None and refine != "order":
        raise ConfigurationError(f"unknown refinement {refine!r}, expected 'order'")
    if num_masks < 1:
        raise ConfigurationError(f"num_masks must be >= 1, got {num_masks}")
    if refine is not None and max_refine_iters < 1:
        raise ConfigurationError(
            f"max_refine_iters must be >= 1, got {max_refine_iters}"
        )
    tokens, slots = _expand_placeholder(query, mlm.mask_token, num_masks)
    _fill(mlm, tokens, slots, strategy)
    sweeps, converged = (0, True)
    if refine is not None:
        sweeps, converged = _refine_sweeps(mlm, tokens, slots, max_refine_iters)

    answer_tokens = [tokens[slot] for slot in slots]
    column = {tok: i for i, tok in enumerate(mlm.vocab)}
    masked = list(tokens)
    for slot in slots:
        masked[slot] = mlm.mask_token
    rows = mlm.mask_logprobs(" ".join(masked))
    score = float(np.mean([rows[i, column[tok]] for i, tok in enumerate(answer_tokens)]))
    return MaskPredictResult(" ".join(answer_tokens), score, sweeps, converged)


def mask_average_rank(mlm: MLMHeadHandle, query: ProbeQuery,
                      candidates: Sequence[str], k: int) -> RankedPrediction:
    """Rank candidates by their mean token log-probability under the head.

    A candidate of m tokens is scored from a single forward pass with the
    placeholder expanded to m masks, so candidates of equal length share one
    pass. Out-of-vocabulary candidates score -inf and are reported through a
    warning rather than dropped. Ties keep candidate input order.
    """
    if not candidates:
        raise InputError("no candidates to rank")
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    unique = list(dict.fromkeys(candidates))
    column = {tok: i for i, tok in enumerate(mlm.vocab)}
    rows_by_length: dict[int, np.ndarray] = {}
    scores = []
    out_of_vocab = []
    for candidate in unique:
        tokens = mlm.tokenize(candidate)
        if not tokens:
            raise ValidationError(f"candidate {candidate!r} tokenizes to nothing")
        m = len(tokens)
        if m not in rows_by_length:
            expanded, _ = _expand_placeholder(query.query_text, mlm.mask_token, m)
            rows_by_length[m] = mlm.mask_logprobs(" ".join(expanded))
        columns = [column.get(tok) for tok in tokens]
        if any(c is None for c in columns):
            scores.append(float("-inf"))
            out_of_vocab.append(candidate)
        else:
            rows = rows_by_length[m]
            scores.append(float(np.mean([rows[i, c] for i, c in enumerate(columns)])))
    if out_of_vocab:
        warnings.warn(
            f"{len(out_of_vocab)} candidate(s) contain tokens outside the head "
            "vocabulary and scored -inf: " + ", ".join(out_of_vocab[:5]),
            RuntimeWarning, stacklevel=2,
        )
    order = np.argsort(-np.asarray(scores), kind="stable")[:min(k, len(unique))]
    ranked = tuple((unique[i], scores[i]) for i in order)
    return RankedPrediction(query.query_id, ranked, strategy="mask-average")


# ---------------------------------------------------------------------------
# generation

def generate_probe(generator: GeneratorHandle, query: ProbeQuery, k: int) -> RankedPrediction:
    """Ask the generator for candidates; trim, dedupe keeping the best score,
    and truncate to k."""
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    if MASK_PLACEHOLDER not in query.query_text.split():
        raise ValidationError(
            f"query {query.query_id!r} has no {MASK_PLACEHOLDER!r} token"
        )
    try:
        raw = generator.generate(query.query_text)
    except Exception as exc:
        raise InputError(
            f"generator failed on query {query.query_id!r}: {exc}"
        ) from exc
    cleaned = [(str(c).strip(), float(s)) for c, s in raw]
    order = np.argsort(-np.asarray([s for _, s in cleaned]), kind="stable") \
        if cleaned else []
    ranked: list[tuple[str, float]] = []
    seen = set()
    for i in order:
        name, score = cleaned[i]
        if name and name not in seen:
            seen.add(name)
            ranked.append((name, score))
        if len(ranked) == k:
            break
    return RankedPrediction(query.query_id, tuple(ranked), strategy="generate")


# ---------------------------------------------------------------------------
# predictions file

def save_predictions(predictions: Iterable[RankedPrediction], path) -> None:
    write_jsonl(path, ({"query_id": pred.query_id, "strategy": pred.strategy,
                        "candidates": [[c, s] for c, s in pred.candidates]}
                       for pred in predictions))


def _prediction(query_id, strategy, candidates) -> RankedPrediction:
    # each candidate is a [name, score] pair; a JSON true/false is no score
    if not all(isinstance(c, list) and len(c) == 2 and isinstance(c[0], str)
               and type(c[1]) in (float, int) for c in candidates):
        raise ValidationError("field has wrong type")
    return RankedPrediction(query_id, tuple((c, s) for c, s in candidates), strategy)


def load_predictions(path) -> list[RankedPrediction]:
    """Read predictions back, validating each line. Empty file is valid."""
    return read_records(path, "predictions",
                        {"query_id": str, "strategy": str, "candidates": list},
                        _prediction)
