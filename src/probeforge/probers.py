"""Probing strategies that turn frozen models into ranked answer lists.

Four ways to answer a cloze query: nearest-neighbor retrieval against the
entity vocabulary, multi-mask prediction (three fill orders plus an
optional refinement sweep), mask-average candidate ranking, and free-form
generation. Retrieval searches the full entity vocabulary by default;
restricting candidates to one relation inflates scores and is left to the
caller.

Retrieval is exact: every query is scored against every entity, and the
top k come out ordered by descending score with ties going to the lower
entity index. The entity index holds the checked vocabulary's names alone,
so any encoder may probe it. Its working memory does not grow with the
vocabulary: the probe owns the entity tiles and query blocks it scores
(contrastive_probe), and the encoder owns the groups and slices it encodes
a list of texts in (EncoderHandle.encode). The running top k is two
(queries x k) arrays, scores and entity indices, merged with each tile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .curator import ProbeQuery, mask_slot
from .encoders import (EncoderHandle, GeneratorHandle, MLMHeadHandle,
                       near_equal_slices, unit_rows)
from .errors import (
    ConfigurationError,
    InputError,
    ValidationError,
)
from .text import collapse_norm, read_lines, read_records, write_jsonl

DEFAULT_NUM_MASKS = 5
MASK_STRATEGIES = ("independent", "order", "confidence")
# most entities one score tile spans; near-equal tiles of a larger index are
# at least half as wide, which with OpenBLAS keeps each score bit-identical
# to the one a product over the whole index gives
TILE_ENTITIES = 4096
# most bytes of one score tile and the copy np.partition makes of it
TILE_BYTES = 2 * 2**20


def _encode_units(encoder: EncoderHandle, texts: list[str], layer_limit: int) -> np.ndarray:
    """Unit-norm embeddings of texts, scaled in place in encode's result."""
    # weights that overflow leave a non-finite row, which unit_rows reports
    # in one error, without numpy's warnings
    with np.errstate(over="ignore", invalid="ignore"):
        vectors = encoder.encode(texts, layer_limit=layer_limit)
        return unit_rows(vectors, "encoded texts", out=vectors)[0]


@dataclass(frozen=True)
class RankedPrediction:
    """Ranked candidate answers for one query. Scores must be non-increasing
    and candidate strings unique; NaN scores are rejected outright."""

    query_id: str
    candidates: tuple[tuple[str, float], ...]
    strategy: str

    def __post_init__(self):
        object.__setattr__(self, "candidates", tuple(self.candidates))
        scores = [s for _, s in self.candidates]
        if any(math.isnan(s) for s in scores):
            raise ValidationError(f"prediction {self.query_id!r} has a NaN score")
        if any(b > a for a, b in zip(scores, scores[1:])):
            raise ValidationError(f"prediction {self.query_id!r} has increasing scores")
        names = [c for c, _ in self.candidates]
        if len(set(names)) != len(names):
            raise ValidationError(f"prediction {self.query_id!r} has duplicate candidates")


# ---------------------------------------------------------------------------
# retrieval

@dataclass(frozen=True)
class EntityIndex:
    """Frozen entity vocabulary, its names checked unique after
    normalization. It holds no embeddings: contrastive_probe encodes the
    names one tile at a time, so the index costs one reference per name, not
    one row, and any encoder, at any layer limit, may probe it."""

    entity_names: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "entity_names", tuple(self.entity_names))
        if not self.entity_names:
            raise InputError("entity vocabulary is empty")
        seen: set[str] = set()
        dups = []
        for name in self.entity_names:
            key = collapse_norm(name)
            if key in seen:
                dups.append(name)
            seen.add(key)
        if dups:
            raise InputError("duplicate entity names after normalization: " + ", ".join(dups))

    def __len__(self) -> int:
        return len(self.entity_names)


def load_entities(path) -> list[str]:
    """One entity name per line; blank lines are skipped. Lines end where
    every other reader's do, at \n, \r or \r\n, so a form feed or U+2028
    stays inside its name."""
    return [name for line in read_lines(path, "entities") if (name := line.strip())]


def build_entity_index(entity_names: Sequence[str]) -> EntityIndex:
    """The vocabulary entity_names, checked and frozen for probing. Nothing
    is encoded here; contrastive_probe encodes the names, one tile at a time."""
    return EntityIndex(entity_names)


def contrastive_probe(encoder: EncoderHandle, index: EntityIndex,
                      queries: Sequence[ProbeQuery], k: int,
                      layer_limit: int | None = None) -> list[RankedPrediction]:
    """Rank index entities by cosine similarity to each encoded query.

    Queries and names pass through the first layer_limit layers of encoder
    (default: every layer); a layer limit outside the encoder's depth raises
    ConfigurationError before anything is encoded. Each prediction holds the
    min(k, len(index)) entities with the highest scores, ordered by
    descending score; equal scores keep index order, so the result equals
    sorting every entity by (-score, entity index).
    Queries are encoded first. Then, for each tile of at most TILE_ENTITIES
    entities, in index order, the tile's names are encoded and scored
    against every block of queries: a block holds as many queries as keep
    their scores against the tile, and the copy np.partition makes of
    them, within TILE_BYTES. The probe owns these tiles and blocks and the
    encoder its groups and slices, so memory is one tile of entity rows and
    one encode's working arrays, or one score tile and its copy, on top of
    the query embeddings and the running top, whatever the vocabulary size.
    The running top is two (queries x k) arrays, scores and entity indices,
    -inf scores marking empty places. A row's floor is its last score; while
    some row has an empty place, k-selection in the tile raises the floor.
    Only the tile's scores at or above a row's floor are merged, by
    (-score, entity index), into the row.

    No entity row outlives the call, so a caller that probes one index
    with several query lists pays for encoding the vocabulary on each call.
    """
    limit = encoder.resolve_layer_limit(layer_limit)
    if k < 1:
        raise ValidationError(f"k must be >= 1, got {k}")
    top = min(k, len(index))
    encoded = _encode_units(encoder, [q.query_text for q in queries], limit)
    blocks, tiles = _score_tiles(len(queries), len(index))
    names = index.entity_names
    # -inf marks an empty place, which every real score beats
    scores = np.full((len(queries), top), -np.inf)
    ids = np.zeros((len(queries), top), dtype=np.intp)
    for tile in tiles:
        entities = _encode_units(encoder, list(names[tile]), limit)
        for block in blocks:
            scores[block], ids[block] = _merge_tile(scores[block], ids[block],
                                                    encoded[block] @ entities.T, tile.start)
        # dropped before the next tile is encoded, so one tile is alive at a time
        del entities
    # row by row, as lists of every row at once raise peak RSS by about 0.5 MiB
    return [RankedPrediction(query.query_id,
                             tuple(zip(map(names.__getitem__, row_ids.tolist()),
                                       row_scores.tolist())), "contrastive")
            for query, row_ids, row_scores in zip(queries, ids, scores)]


def _score_tiles(n_queries: int, n_entities: int) -> tuple[list[slice], list[slice]]:
    """The query blocks and the entity tiles retrieval scores: near-equal
    tiles of at most TILE_ENTITIES entities, and near-equal blocks of as many
    queries as keep a tile of scores and its partitioned copy within
    TILE_BYTES."""
    tiles = near_equal_slices(n_entities, TILE_ENTITIES)
    widest = -(-n_entities // len(tiles))
    # each score has a partitioned copy beside it, hence 16 bytes an entry
    return near_equal_slices(n_queries, TILE_BYTES // (16 * widest)), tiles


def _merge_tile(scores: np.ndarray, ids: np.ndarray, sims: np.ndarray,
                start: int) -> tuple[np.ndarray, np.ndarray]:
    """The running top (scores, ids), each of shape (rows, top) and each row
    ordered by (-score, entity index), with the scores sims of its rows
    against one tile of entities, the first of them entity start, merged in.
    Tiles must come in ascending order, so that equal scores keep index
    order."""
    n_rows, top = scores.shape
    # a row's floor is its worst kept score, -inf while it has an empty place
    floor = scores[:, -1]
    if np.isneginf(floor).any():
        # a row with an empty place takes the tile's best entities; their
        # floor is found in a copy of the tile
        cut = sims.shape[1] - min(top, sims.shape[1])
        floor = np.maximum(floor, np.partition(sims, cut, axis=1)[:, cut])
    # an entity scoring below its row's floor can never enter the row's top;
    # flat positions, as np.nonzero on a 2-d mask is many times slower
    passed = np.flatnonzero(sims >= floor[:, None])
    new_rows, cols = np.divmod(passed, sims.shape[1])
    rows = np.concatenate([np.repeat(np.arange(n_rows), top), new_rows])
    ids = np.concatenate([ids.ravel(), cols + start])
    scores = np.concatenate([scores.ravel(), sims.ravel()[passed]])
    # sorted by row, then descending score; equal scores keep index order
    order = np.lexsort((ids, -scores, rows))
    # every row holds at least top candidates, its running ones; it keeps
    # its first top
    first = np.searchsorted(rows[order], np.arange(n_rows))
    kept = order[first[:, None] + np.arange(top)]
    return scores[kept], ids[kept]


# ---------------------------------------------------------------------------
# mask filling

class MaskPredictResult(NamedTuple):
    answer: str
    score: float
    sweeps: int
    converged: bool


def _expand_placeholder(query: str, mask_token: str, num_masks: int) -> tuple[list[str], list[int]]:
    at = mask_slot(query)
    tokens = query.split()
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
    mask_slot(query.query_text)
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
                        "candidates": pred.candidates}
                       for pred in predictions))


def _prediction(query_id, strategy, candidates) -> RankedPrediction:
    # each candidate is a [name, score] pair; a JSON true/false is no score
    if not all(isinstance(c, list) and len(c) == 2 and isinstance(c[0], str)
               and type(c[1]) in (float, int) for c in candidates):
        raise ValidationError("field has wrong type")
    return RankedPrediction(query_id, tuple((c, float(s)) for c, s in candidates), strategy)


def load_predictions(path) -> list[RankedPrediction]:
    """Read predictions back, validating each line. Empty file is valid."""
    return read_records(path, "predictions",
                        {"query_id": str, "strategy": str, "candidates": list},
                        _prediction)
