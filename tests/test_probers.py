import dataclasses
import json
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeforge import encoders, probers
from probeforge.curator import ProbeQuery, load_triples
from probeforge.encoders import (
    EncoderHandle,
    GeneratorHandle,
    ReferenceEncoder,
    TableGenerator,
    TableMLM,
    near_equal_slices,
    unit_rows,
)
from probeforge.errors import (
    ConfigurationError,
    InputError,
    NumericalError,
    ValidationError,
)
from probeforge.probers import (
    EntityIndex,
    RankedPrediction,
    build_entity_index,
    contrastive_probe,
    generate_probe,
    load_entities,
    load_predictions,
    mask_average_rank,
    mask_predict_detail,
    save_predictions,
)


def make_encoder(**kw):
    args = dict(dim=32, seed=3, layers=2, feature_dim=512)
    args.update(kw)
    return ReferenceEncoder(**args)


def make_query(text, qid="q-0", relation="may_treat"):
    return ProbeQuery(query_id=qid, relation_id=relation, head_name="head",
                      query_text=text, answers=["placeholder answer"])


SMALL_VOCAB = ["Aspirin", "Ibuprofen", "Morphine"]


# ---------------------------------------------------------------------------
# entity index

def test_build_index_encodes_nothing():
    # the index is the names alone; the probe encodes them, one tile at a time
    index = build_entity_index(SMALL_VOCAB)
    assert len(index) == 3
    assert index.entity_names == tuple(SMALL_VOCAB)
    assert [f.name for f in dataclasses.fields(EntityIndex)] == ["entity_names"]


def test_rebuild_is_byte_identical():
    queries = [make_query("pain relief"), make_query("fever [MASK] .", qid="q-1")]
    first = build_entity_index(SMALL_VOCAB)
    second = build_entity_index(SMALL_VOCAB)
    assert (contrastive_probe(make_encoder(), first, queries, k=3)
            == contrastive_probe(make_encoder(), second, queries, k=3))


def test_empty_vocabulary_is_an_error():
    with pytest.raises(InputError):
        build_entity_index([])


def test_duplicate_names_are_listed():
    with pytest.raises(InputError, match="aspirin"):
        build_entity_index(["Aspirin", "  aspirin "])


def test_index_rejects_duplicate_names():
    with pytest.raises(InputError, match="ASPIRIN, aspirin"):
        EntityIndex(("Aspirin", "ASPIRIN", "aspirin"))


def test_index_rejects_an_empty_vocabulary():
    for build in (lambda: EntityIndex(()),
                  lambda: build_entity_index([])):
        with pytest.raises(InputError, match="^entity vocabulary is empty$"):
            build()


@pytest.mark.parametrize("weight", [0.0, np.nan], ids=["zero", "nan"])
def test_degenerate_embedding_is_numerical_error(weight):
    encoder = make_encoder()
    encoder.w_in[:] = weight
    index = build_entity_index(SMALL_VOCAB)
    with pytest.raises(NumericalError, match="zero or non-finite"):
        contrastive_probe(encoder, index, [make_query("pain relief")], k=1)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf], ids=["zero", "nan", "inf"])
def test_degenerate_entity_row_fails_the_probe(bad):
    # every entity row the probe scores passes through unit_rows
    encoder = TableEncoder({"query": [1.0, 0.0], "a": [1.0, 0.0], "b": [bad, 0.0]})
    index = build_entity_index(["a", "b"])
    with pytest.raises(NumericalError, match="zero or non-finite"):
        contrastive_probe(encoder, index, [make_query("query")], k=1)


def test_load_entities_skips_blanks(tmp_path):
    path = tmp_path / "entities.txt"
    path.write_text("Aspirin\n\n  Ibuprofen \n", encoding="utf-8")
    assert load_entities(path) == ["Aspirin", "Ibuprofen"]


def test_load_entities_ends_lines_where_load_triples_does(tmp_path):
    # str.splitlines would also break at a form feed, U+001C..U+001E, U+0085,
    # U+2028 and U+2029; a triple tail keeps them, so its entity must too
    tails = ["Gamma\x0cDelta", "Eta\x1cTheta", "Iota\x85Kappa", "Alpha\u2028Beta",
             "Mu\u2029Nu", "Omega"]
    entities, triples = tmp_path / "entities.txt", tmp_path / "triples.tsv"
    entities.write_text("".join(f"{t}\n" for t in tails), encoding="utf-8")
    triples.write_text("".join(f"Head\trel\t{t}\n" for t in tails), encoding="utf-8")
    assert load_entities(entities) == tails
    assert [t.tail_name for t in load_triples(triples).triples] == tails


def test_load_entities_unreadable_is_input_error(tmp_path):
    path = tmp_path / "entities.txt"
    with pytest.raises(InputError, match="cannot read entities from"):
        load_entities(path)
    path.write_bytes(b"Aspirin\n\xff\n")
    with pytest.raises(InputError, match="cannot read entities from"):
        load_entities(path)


# ---------------------------------------------------------------------------
# contrastive retrieval

def test_query_equal_to_entity_ranks_it_first():
    encoder = make_encoder()
    index = build_entity_index(SMALL_VOCAB)
    pred, = contrastive_probe(encoder, index, [make_query("Ibuprofen")], k=3)
    assert pred.candidates[0][0] == "Ibuprofen"
    assert pred.candidates[0][1] == pytest.approx(1.0, abs=1e-9)
    assert pred.strategy == "contrastive"


def test_k_beyond_vocabulary_returns_everything_ordered():
    encoder = make_encoder()
    index = build_entity_index(SMALL_VOCAB)
    pred, = contrastive_probe(encoder, index, [make_query("pain relief")], k=50)
    assert len(pred.candidates) == 3
    scores = [s for _, s in pred.candidates]
    assert scores == sorted(scores, reverse=True)


def test_one_index_serves_every_encoder_and_layer_limit():
    # the index holds no rows, so each probe encodes the names itself
    index = build_entity_index(SMALL_VOCAB)
    queries = [make_query("pain relief"), make_query("fever [MASK] .", qid="q-1")]
    for encoder in (make_encoder(seed=3), make_encoder(seed=4, layers=3)):
        for limit in range(1, encoder.max_layers + 1):
            probed = contrastive_probe(encoder, index, queries, k=3, layer_limit=limit)
            encoded, _ = unit_rows(encoder.encode([q.query_text for q in queries],
                                                  layer_limit=limit), "queries")
            entities, _ = unit_rows(encoder.encode(SMALL_VOCAB, layer_limit=limit), "names")
            sims = encoded @ entities.T
            for row, pred in zip(sims, probed):
                order = sorted(range(len(SMALL_VOCAB)), key=lambda j: (-row[j], j))
                assert pred.candidates == tuple((SMALL_VOCAB[j], float(row[j]))
                                                for j in order)


@pytest.mark.parametrize("limit", [0, 3])
def test_layer_limit_is_checked_before_anything_is_encoded(limit):
    encoder = make_encoder()
    index = build_entity_index(SMALL_VOCAB)
    with mock.patch.object(encoder, "encode", side_effect=AssertionError("encoded")):
        with pytest.raises(ConfigurationError,
                           match=rf"^layer_limit {limit} outside \[1, 2\] for "):
            contrastive_probe(encoder, index, [make_query("x")], k=1, layer_limit=limit)


def test_retrieval_matches_exhaustive_sort():
    # oracle: full stable sort of every similarity, ties by entity position
    rng = np.random.default_rng(17)
    names = [f"entity{i} variant{i * 7 % 13}" for i in range(60)]
    encoder = make_encoder()
    index = build_entity_index(names)
    queries = [make_query(f"finding {rng.integers(1_000_000)} links to [MASK] .",
                          qid=f"q-{i}") for i in range(100)]
    predictions = contrastive_probe(encoder, index, queries, k=10)
    encoded = encoder.encode([q.query_text for q in queries])
    encoded = encoded / np.linalg.norm(encoded, axis=1, keepdims=True)
    entities = encoder.encode(names)
    entities = entities / np.linalg.norm(entities, axis=1, keepdims=True)
    sims = encoded @ entities.T
    for row, pred in enumerate(predictions):
        order = sorted(range(len(names)), key=lambda j: (-sims[row, j], j))
        expected = [names[j] for j in order[:10]]
        assert [c for c, _ in pred.candidates] == expected


def test_exact_ties_break_by_entity_position():
    encoder = TableEncoder({"zeta term": [0.6, 0.8], "alpha term": [0.6, 0.8],
                            "anything": [1.0, 2.0]})
    index = build_entity_index(["zeta term", "alpha term"])
    pred, = contrastive_probe(encoder, index, [make_query("anything")], k=2)
    assert [c for c, _ in pred.candidates] == ["zeta term", "alpha term"]


def test_topk_is_a_prefix_of_the_full_ranking():
    encoder = make_encoder()
    index = build_entity_index([f"name number {i}" for i in range(20)])
    queries = [make_query("some probe text [MASK] .")]
    full, = contrastive_probe(encoder, index, queries, k=20)
    for j in (1, 3, 7):
        partial, = contrastive_probe(encoder, index, queries, k=j)
        assert partial.candidates == full.candidates[:j]


class ScaledEncoder(ReferenceEncoder):
    def encode(self, texts, layer_limit=None):
        return 3.7 * super().encode(texts, layer_limit)


def test_positive_scaling_keeps_rankings():
    names = [f"entity {i} of note" for i in range(15)]
    queries = [make_query(f"query {i} asks [MASK] .", qid=f"q-{i}") for i in range(5)]
    plain = contrastive_probe(make_encoder(), build_entity_index(names),
                              queries, k=15)
    scaled_encoder = ScaledEncoder(dim=32, seed=3, layers=2, feature_dim=512)
    scaled = contrastive_probe(scaled_encoder,
                               build_entity_index(names),
                               queries, k=15)
    for a, b in zip(plain, scaled):
        assert [c for c, _ in a.candidates] == [c for c, _ in b.candidates]
        for (_, sa), (_, sb) in zip(a.candidates, b.candidates):
            assert sa == pytest.approx(sb, abs=1e-9)


class TableEncoder(EncoderHandle):
    """Returns a fixed vector per text, so every score is known exactly."""

    identity = "table-encoder"
    max_layers = 1

    def __init__(self, table):
        self.table = table
        self.embedding_dim = len(next(iter(table.values())))

    def encode(self, texts, layer_limit=None):
        return np.array([self.table[t] for t in texts], dtype=float)

    def forward_train(self, texts, layer_limit=None):
        raise NotImplementedError

    def backward_train(self, grad_outputs, learning_rate):
        raise NotImplementedError

    def state_arrays(self):
        return {}

    def load_state_arrays(self, arrays):
        raise NotImplementedError


@st.composite
def tie_heavy_retrieval(draw):
    dim = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    # signed one-hot entity rows: many exact duplicates, and every score is
    # one coordinate of the unit query, so it is exact in any summation order
    axes = draw(st.lists(st.tuples(st.integers(0, dim - 1), st.sampled_from([1.0, -1.0])),
                         min_size=n, max_size=n))
    tile_width = draw(st.integers(1, 5))
    rows_per_block = draw(st.integers(1, 4))
    n_queries = draw(st.integers(1, 3 * rows_per_block + 1))
    vectors = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
        min_size=n_queries, max_size=n_queries))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(n + 1, n + 5), st.integers(1, n)))
    return axes, tile_width, rows_per_block, vectors, k


@given(tie_heavy_retrieval())
@settings(max_examples=200, deadline=None)
def test_blocked_topk_equals_exhaustive_oracle(case):
    axes, tile_width, rows_per_block, vectors, k = case
    dim = len(vectors[0])
    names = tuple(f"entity {i}" for i in range(len(axes)))
    index_rows = np.zeros((len(axes), dim))
    for i, (axis, sign) in enumerate(axes):
        index_rows[i, axis] = sign
    table = {f"query {i}": v for i, v in enumerate(vectors)}
    table.update(zip(names, index_rows))
    encoder = TableEncoder(table)
    index = build_entity_index(names)
    queries = [make_query(f"query {i}", qid=f"q-{i}") for i in range(len(vectors))]
    # entity tiles of at most tile_width entities and query blocks of a few
    # rows, so runs of tied scores straddle both; a score takes 16 bytes,
    # for its partitioned copy
    with mock.patch.object(probers, "TILE_ENTITIES", tile_width), \
            mock.patch.object(probers, "TILE_BYTES", 16 * tile_width * rows_per_block):
        predictions = contrastive_probe(encoder, index, queries, k=k)
    assert [p.query_id for p in predictions] == [q.query_id for q in queries]
    for pred, vector in zip(predictions, vectors):
        norm = math.sqrt(sum(x * x for x in vector))
        scores = [sign * (vector[axis] / norm) for axis, sign in axes]
        order = sorted(range(len(axes)), key=lambda j: (-scores[j], j))[:k]
        assert pred.candidates == tuple((names[j], scores[j]) for j in order)


def test_blocks_are_near_equal_and_bounded():
    assert [(b.start, b.stop) for b in near_equal_slices(9, 3)] == [(0, 3), (3, 6), (6, 9)]
    assert [b.stop - b.start for b in near_equal_slices(10, 4)] == [3, 3, 4]
    assert near_equal_slices(0, 3) == []
    for n_queries in (1, 5, 33, 1000):
        for n_entities in (1, 120, 4096, 4097, 20_000, 10**6, 10**7):
            blocks, tiles = probers._score_tiles(n_queries, n_entities)
            widths = [t.stop - t.start for t in tiles]
            rows = [b.stop - b.start for b in blocks]
            assert sum(widths) == n_entities and sum(rows) == n_queries
            # tiles are at most TILE_ENTITIES wide, and at least half that
            # unless the index is narrower
            assert max(widths) <= probers.TILE_ENTITIES
            assert min(widths) >= min(n_entities, probers.TILE_ENTITIES // 2)
            # a tile of scores and its partitioned copy fit TILE_BYTES, and no
            # block is a sliver of a few rows, however large the vocabulary
            assert max(rows) * max(widths) * 16 <= probers.TILE_BYTES
            assert min(rows) >= min(n_queries, 16)


def test_blocking_keeps_index_and_rankings():
    names = [f"entity {i} variant {i * 7 % 13}" for i in range(40)]
    queries = [make_query(f"finding {i} links to [MASK] .", qid=f"q-{i}") for i in range(25)]
    encoder = make_encoder()
    whole_rows = probers._encode_units(encoder, names, encoder.max_layers)
    whole = contrastive_probe(encoder, build_entity_index(names), queries, k=12)
    # 512-wide feature rows: eight names or queries per encode group
    with mock.patch.object(encoders, "ENCODE_GROUP_BYTES", 8 * 512 * 8):
        blocked_rows = probers._encode_units(encoder, names, encoder.max_layers)
        blocked = contrastive_probe(encoder, build_entity_index(names), queries, k=12)
    # BLAS may round a short block differently, so floats are compared to
    # within rounding; the rankings must agree exactly
    np.testing.assert_allclose(blocked_rows, whole_rows, rtol=0, atol=1e-12)
    for a, b in zip(blocked, whole):
        assert [c for c, _ in a.candidates] == [c for c, _ in b.candidates]
        np.testing.assert_allclose([s for _, s in a.candidates],
                                   [s for _, s in b.candidates], rtol=0, atol=1e-12)


def test_ranking_memory_stays_within_one_block():
    # 64 queries against one entity tile, then against sixteen: the traced
    # peak stays within one tile of scores and its partitioned copy, far
    # below the 64 x n score matrix, whatever n is
    rng = np.random.default_rng(0)
    dim, n_queries = 8, 64
    queries = [make_query(f"query {i}", qid=f"q-{i}") for i in range(n_queries)]
    query_rows = {q.query_text: rng.standard_normal(dim) for q in queries}
    for n in (4_096, 65_536):
        names = [f"entity {i}" for i in range(n)]
        encoder = TableEncoder({**query_rows, **dict(zip(names, rng.standard_normal((n, dim))))})
        index = build_entity_index(names)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            predictions = contrastive_probe(encoder, index, queries, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(predictions) == n_queries
        assert peak - start <= 1.25 * probers.TILE_BYTES, n


def test_entity_rows_live_one_tile_at_a_time():
    # the index holds a reference per name, and the probe encodes one tile
    # of 64-wide entity rows at a time, however large the vocabulary
    rng = np.random.default_rng(1)
    dim, n_queries = 64, 64
    queries = [make_query(f"query {i}", qid=f"q-{i}") for i in range(n_queries)]
    query_rows = {q.query_text: rng.standard_normal(dim) for q in queries}
    tile_rows = 8 * dim * probers.TILE_ENTITIES
    for n in (4_096, 65_536):
        names = [f"entity {i}" for i in range(n)]
        encoder = TableEncoder({**query_rows, **dict(zip(names, rng.standard_normal((n, dim))))})
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            index = build_entity_index(names)
            held, _ = tracemalloc.get_traced_memory()
            tracemalloc.reset_peak()
            predictions = contrastive_probe(encoder, index, queries, k=3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(predictions) == n_queries
        assert held - start < 64 * n, n
        assert peak - held <= tile_rows + 1.25 * probers.TILE_BYTES, n


def test_bad_k_and_empty_queries():
    encoder = make_encoder()
    index = build_entity_index(SMALL_VOCAB)
    with pytest.raises(ValidationError):
        contrastive_probe(encoder, index, [make_query("x")], k=0)
    assert contrastive_probe(encoder, index, [], k=5) == []


# ---------------------------------------------------------------------------
# mask predict

MASK_QUERY = "the drug treats [MASK] today"
VOCAB = ["alpha", "beta", "gamma", "delta"]
# first mask lands on token position 3, the second on 4
LEFT_RULES = [
    {"position": 4, "left": "alpha", "probs": {"gamma": 1.0}},
    {"position": 4, "left": "beta", "probs": {"delta": 1.0}},
]
DEFAULT_ROW = {"alpha": 0.05, "beta": 0.05, "gamma": 0.1, "delta": 0.8}


def conditional_stub(first_peak):
    rules = [{"position": 3, "probs": {"alpha": first_peak,
                                       "beta": round(1 - first_peak, 10)}}]
    return TableMLM(VOCAB, DEFAULT_ROW, rules + LEFT_RULES)


def stub_tables(first_peak):
    """The same rules as plain dicts, for the enumeration oracle."""
    return {
        "rules": [
            {"position": 3, "probs": {"alpha": first_peak,
                                      "beta": round(1 - first_peak, 10)}},
            *LEFT_RULES,
        ],
        "default": DEFAULT_ROW,
    }


def oracle_lookup(tables, tokens, pos):
    for rule in tables["rules"]:
        if rule.get("position") != pos:
            continue
        if "left" in rule and (pos == 0 or tokens[pos - 1] == "[MASK]"
                               or tokens[pos - 1].lower() != rule["left"]):
            continue
        return rule["probs"]
    return tables["default"]


def oracle_best(probs):
    # vocab order breaks probability ties, matching argmax over table rows
    return max(VOCAB, key=lambda tok: (probs.get(tok, 0.0), -VOCAB.index(tok)))


def oracle_fill(tables, strategy):
    tokens = ["the", "drug", "treats", "[MASK]", "[MASK]", "today"]
    slots = [3, 4]
    if strategy == "independent":
        picks = [oracle_best(oracle_lookup(tables, tokens, p)) for p in slots]
        for p, tok in zip(slots, picks):
            tokens[p] = tok
    else:
        remaining = list(slots)
        while remaining:
            probs = {p: oracle_lookup(tables, tokens, p) for p in remaining}
            if strategy == "order":
                pick = remaining[0]
            else:
                pick = max(remaining,
                           key=lambda p: (max(probs[p].values()), -p))
            tokens[pick] = oracle_best(probs[pick])
            remaining.remove(pick)
    return " ".join(tokens[3:5])


def test_independent_matches_one_hot_rows():
    stub = TableMLM(VOCAB, DEFAULT_ROW, [
        {"position": 3, "probs": {"beta": 1.0}},
        {"position": 4, "probs": {"gamma": 1.0}},
    ])
    assert mask_predict_detail(stub, MASK_QUERY, num_masks=2).answer == "beta gamma"


@pytest.mark.parametrize("strategy", ["independent", "order", "confidence"])
@pytest.mark.parametrize("first_peak", [0.6, 0.9])
def test_strategies_match_enumeration_oracle(strategy, first_peak):
    got = mask_predict_detail(conditional_stub(first_peak), MASK_QUERY,
                              num_masks=2, strategy=strategy).answer
    assert got == oracle_fill(stub_tables(first_peak), strategy)


def test_order_sees_the_filled_left_neighbor():
    # independent leaves the second mask on the default row; order re-scores
    # it after filling "alpha" and the left rule kicks in
    stub = conditional_stub(0.6)
    assert mask_predict_detail(stub, MASK_QUERY, num_masks=2).answer == "alpha delta"
    assert mask_predict_detail(stub, MASK_QUERY, num_masks=2,
                               strategy="order").answer == "alpha gamma"


def test_confidence_fills_the_most_certain_position_first():
    # peak 0.9 beats the default row's 0.8, so the first slot fills first and
    # the second slot is rescored under its left rule; peak 0.6 loses and the
    # second slot freezes on the default row before "alpha" lands
    assert mask_predict_detail(conditional_stub(0.9), MASK_QUERY,
                               num_masks=2, strategy="confidence").answer == "alpha gamma"
    assert mask_predict_detail(conditional_stub(0.6), MASK_QUERY,
                               num_masks=2, strategy="confidence").answer == "alpha delta"


def test_order_equals_independent_without_conditioning():
    stub = TableMLM(VOCAB, DEFAULT_ROW, [
        {"position": 3, "probs": {"alpha": 0.7, "beta": 0.3}},
        {"position": 4, "probs": {"gamma": 0.9, "delta": 0.1}},
    ])
    expected = mask_predict_detail(stub, MASK_QUERY, num_masks=2).answer
    assert mask_predict_detail(stub, MASK_QUERY, num_masks=2,
                               strategy="order").answer == expected


def test_refinement_keeps_a_fixed_point():
    detail = mask_predict_detail(conditional_stub(0.9), MASK_QUERY, num_masks=2,
                                 strategy="order", refine="order")
    assert detail.answer == "alpha gamma"
    assert detail.sweeps == 1
    assert detail.converged


def test_refinement_repairs_an_inconsistent_fill():
    # independent picks "alpha delta"; the sweep re-masks the second token
    # with "alpha" visible and corrects it to "gamma"
    detail = mask_predict_detail(conditional_stub(0.6), MASK_QUERY, num_masks=2,
                                 strategy="independent", refine="order")
    assert detail.answer == "alpha gamma"
    assert detail.sweeps == 2
    assert detail.converged


def test_refinement_iteration_cap():
    detail = mask_predict_detail(conditional_stub(0.6), MASK_QUERY, num_masks=2,
                                 strategy="independent", refine="order",
                                 max_refine_iters=1)
    assert detail.answer == "alpha gamma"
    assert not detail.converged


def test_predict_score_is_mean_logprob_of_remasked_span():
    detail = mask_predict_detail(conditional_stub(0.9), MASK_QUERY, num_masks=2,
                                 strategy="order")
    expected = (math.log(0.9) + math.log(DEFAULT_ROW["gamma"])) / 2
    assert detail.score == pytest.approx(expected, abs=1e-12)


def test_predict_rejects_bad_inputs():
    stub = conditional_stub(0.6)
    with pytest.raises(ValidationError, match="exactly once"):
        mask_predict_detail(stub, "no placeholder here")
    with pytest.raises(ValidationError, match="exactly once"):
        mask_predict_detail(stub, "[MASK] twice [MASK]")
    with pytest.raises(ConfigurationError):
        mask_predict_detail(stub, MASK_QUERY, strategy="beam")
    with pytest.raises(ConfigurationError):
        mask_predict_detail(stub, MASK_QUERY, num_masks=0)
    with pytest.raises(ConfigurationError):
        mask_predict_detail(stub, MASK_QUERY, refine="shuffle")


# ---------------------------------------------------------------------------
# mask-average ranking

RANK_RULES = [{"position": 3, "probs": {"alpha": 0.5, "beta": 0.3,
                                        "gamma": 0.1, "delta": 0.1}}]
RANK_DEFAULT = {"alpha": 0.1, "beta": 0.2, "gamma": 0.3, "delta": 0.4}


def rank_stub():
    return TableMLM(VOCAB, RANK_DEFAULT, RANK_RULES)


def test_certain_candidate_scores_zero_and_wins():
    stub = TableMLM(VOCAB, RANK_DEFAULT, [{"position": 3, "probs": {"alpha": 1.0}}])
    pred = mask_average_rank(stub, make_query(MASK_QUERY), ["beta", "alpha"], k=2)
    assert pred.candidates[0] == ("alpha", 0.0)
    assert pred.strategy == "mask-average"


def test_single_token_candidates_rank_by_their_column():
    pred = mask_average_rank(rank_stub(), make_query(MASK_QUERY),
                             ["gamma", "beta", "alpha"], k=3)
    assert [c for c, _ in pred.candidates] == ["alpha", "beta", "gamma"]
    assert pred.candidates[0][1] == pytest.approx(math.log(0.5), abs=1e-12)


def test_mixed_lengths_match_hand_computed_table_sums():
    # two-token candidates read position 3 from the rule row and position 4
    # from the default row, because the second mask's left neighbor is a mask
    pred = mask_average_rank(rank_stub(), make_query(MASK_QUERY),
                             ["gamma", "alpha delta", "beta gamma", "beta"], k=4)
    expected = {
        "gamma": math.log(0.1),
        "alpha delta": (math.log(0.5) + math.log(0.4)) / 2,
        "beta gamma": (math.log(0.3) + math.log(0.3)) / 2,
        "beta": math.log(0.3),
    }
    assert dict(pred.candidates) == pytest.approx(expected, abs=1e-12)
    assert [c for c, _ in pred.candidates] == ["alpha delta", "beta gamma",
                                               "beta", "gamma"]


def test_ranking_is_permutation_invariant_as_a_set():
    base = ["gamma", "alpha delta", "beta gamma", "beta"]
    first = mask_average_rank(rank_stub(), make_query(MASK_QUERY), base, k=4)
    second = mask_average_rank(rank_stub(), make_query(MASK_QUERY),
                               list(reversed(base)), k=4)
    assert sorted(first.candidates) == sorted(second.candidates)


def test_tokenizer_lowercases_candidates():
    pred = mask_average_rank(rank_stub(), make_query(MASK_QUERY),
                             ["Alpha Delta"], k=1)
    assert pred.candidates[0][0] == "Alpha Delta"
    assert pred.candidates[0][1] == pytest.approx(
        (math.log(0.5) + math.log(0.4)) / 2, abs=1e-12)


def test_out_of_vocab_candidate_warns_and_sinks():
    with pytest.warns(RuntimeWarning, match="omega"):
        pred = mask_average_rank(rank_stub(), make_query(MASK_QUERY),
                                 ["omega", "alpha"], k=2)
    assert pred.candidates[0][0] == "alpha"
    assert pred.candidates[1] == ("omega", float("-inf"))


def test_rank_requires_candidates():
    with pytest.raises(InputError):
        mask_average_rank(rank_stub(), make_query(MASK_QUERY), [], k=1)


# ---------------------------------------------------------------------------
# generation

def test_generator_list_passes_through():
    generator = TableGenerator(default=[("Aspirin", 0.9), ("Morphine", 0.4)])
    pred = generate_probe(generator, make_query(MASK_QUERY), k=5)
    assert pred.candidates == (("Aspirin", 0.9), ("Morphine", 0.4))
    assert pred.strategy == "generate"


def test_generator_output_truncates_to_k():
    generator = TableGenerator(default=[("a", 3.0), ("b", 2.0), ("c", 1.0)])
    pred = generate_probe(generator, make_query(MASK_QUERY), k=2)
    assert [c for c, _ in pred.candidates] == ["a", "b"]


def test_generator_duplicates_keep_best_score():
    generator = TableGenerator(default=[(" Aspirin", 0.9), ("Aspirin", 0.7),
                                        ("  ", 0.6), ("Ibuprofen", 0.5)])
    pred = generate_probe(generator, make_query(MASK_QUERY), k=10)
    assert pred.candidates == (("Aspirin", 0.9), ("Ibuprofen", 0.5))


class FailingGenerator(GeneratorHandle):
    identity = "failing"

    def generate(self, query):
        raise RuntimeError("backend unavailable")


def test_generator_failure_carries_the_query_id():
    with pytest.raises(InputError, match="q-42"):
        generate_probe(FailingGenerator(), make_query(MASK_QUERY, qid="q-42"), k=3)


def test_generation_requires_the_placeholder():
    generator = TableGenerator(default=[("x", 1.0)])
    with pytest.raises(ValidationError):
        generate_probe(generator, make_query("a plain sentence ."), k=3)


# ---------------------------------------------------------------------------
# ranked prediction + file io

def test_prediction_rejects_increasing_scores():
    with pytest.raises(ValidationError, match="increasing"):
        RankedPrediction("q", (("a", 0.1), ("b", 0.5)), "contrastive")


def test_prediction_rejects_duplicate_candidates():
    with pytest.raises(ValidationError, match="duplicate"):
        RankedPrediction("q", (("a", 0.5), ("a", 0.1)), "contrastive")


def test_prediction_rejects_nan():
    with pytest.raises(ValidationError, match="NaN"):
        RankedPrediction("q", (("a", float("nan")),), "contrastive")


def test_predictions_roundtrip(tmp_path):
    preds = [
        RankedPrediction("q-1", (("Aspirin", 0.9), ("Morphine", 0.2)), "contrastive"),
        RankedPrediction("q-2", (("alpha", -0.5), ("omega", float("-inf"))),
                         "mask-average"),
    ]
    path = tmp_path / "preds.jsonl"
    save_predictions(preds, path)
    assert load_predictions(path) == preds


def test_predictions_load_reports_line_numbers(tmp_path):
    path = tmp_path / "preds.jsonl"
    good = json.dumps({"query_id": "q", "strategy": "s", "candidates": [["a", 1.0]]})
    path.write_text(good + "\nnot json\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":2:"):
        load_predictions(path)
    path.write_text(json.dumps({"query_id": "q", "strategy": "s",
                                "candidates": [[1, 2]]}) + "\n", encoding="utf-8")
    with pytest.raises(ValidationError, match=":1:"):
        load_predictions(path)


def test_predictions_load_rejects_boolean_scores(tmp_path):
    # JSON true is a Python bool, which isinstance counts as an int
    path = tmp_path / "preds.jsonl"
    path.write_text(json.dumps({"query_id": "q", "strategy": "contrastive",
                                "candidates": [["x", True], ["y", False]]}) + "\n",
                    encoding="utf-8")
    with pytest.raises(ValidationError, match=":1: field has wrong type"):
        load_predictions(path)


def test_empty_predictions_file_is_valid(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_predictions(path) == []
