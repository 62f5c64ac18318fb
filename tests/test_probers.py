import json
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeforge import probers
from probeforge.curator import ProbeQuery
from probeforge.encoders import (
    EncoderHandle,
    GeneratorHandle,
    ReferenceEncoder,
    TableGenerator,
    TableMLM,
)
from probeforge.errors import (
    ConfigurationError,
    InputError,
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
    mask_predict,
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

def test_build_index_has_unit_rows():
    index = build_entity_index(make_encoder(), SMALL_VOCAB)
    assert len(index) == 3
    norms = np.linalg.norm(index.vectors, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_rebuild_is_byte_identical():
    first = build_entity_index(make_encoder(), SMALL_VOCAB)
    second = build_entity_index(make_encoder(), SMALL_VOCAB)
    assert np.array_equal(first.vectors, second.vectors)
    assert first.encoder_identity == second.encoder_identity


def test_empty_vocabulary_is_an_error():
    with pytest.raises(InputError):
        build_entity_index(make_encoder(), [])


def test_duplicate_names_are_listed():
    with pytest.raises(InputError, match="aspirin"):
        build_entity_index(make_encoder(), ["Aspirin", "  aspirin "])


def test_index_vectors_are_frozen():
    index = build_entity_index(make_encoder(), SMALL_VOCAB)
    with pytest.raises(ValueError):
        index.vectors[0, 0] = 0.5


def test_index_rejects_non_unit_rows():
    with pytest.raises(ValidationError, match="unit norm"):
        EntityIndex(("a", "b"), np.ones((2, 4)), "enc", 2)


def test_load_entities_skips_blanks(tmp_path):
    path = tmp_path / "entities.txt"
    path.write_text("Aspirin\n\n  Ibuprofen \n", encoding="utf-8")
    assert load_entities(path) == ["Aspirin", "Ibuprofen"]


# ---------------------------------------------------------------------------
# contrastive retrieval

def test_query_equal_to_entity_ranks_it_first():
    encoder = make_encoder()
    index = build_entity_index(encoder, SMALL_VOCAB)
    pred, = contrastive_probe(encoder, index, [make_query("Ibuprofen")], k=3)
    assert pred.candidates[0][0] == "Ibuprofen"
    assert pred.candidates[0][1] == pytest.approx(1.0, abs=1e-9)
    assert pred.strategy == "contrastive"


def test_k_beyond_vocabulary_returns_everything_ordered():
    encoder = make_encoder()
    index = build_entity_index(encoder, SMALL_VOCAB)
    pred, = contrastive_probe(encoder, index, [make_query("pain relief")], k=50)
    assert len(pred.candidates) == 3
    scores = [s for _, s in pred.candidates]
    assert scores == sorted(scores, reverse=True)


def test_identity_mismatch_is_rejected():
    index = build_entity_index(make_encoder(seed=3), SMALL_VOCAB)
    with pytest.raises(ConfigurationError, match="identity|built by"):
        contrastive_probe(make_encoder(seed=4), index, [make_query("x")], k=1)


def test_retrieval_matches_exhaustive_sort():
    # oracle: full stable sort of every similarity, ties by entity position
    rng = np.random.default_rng(17)
    names = [f"entity{i} variant{i * 7 % 13}" for i in range(60)]
    encoder = make_encoder()
    index = build_entity_index(encoder, names)
    queries = [make_query(f"finding {rng.integers(1_000_000)} links to [MASK] .",
                          qid=f"q-{i}") for i in range(100)]
    predictions = contrastive_probe(encoder, index, queries, k=10)
    encoded = encoder.encode([q.query_text for q in queries])
    encoded = encoded / np.linalg.norm(encoded, axis=1, keepdims=True)
    sims = encoded @ index.vectors.T
    for row, pred in enumerate(predictions):
        order = sorted(range(len(names)), key=lambda j: (-sims[row, j], j))
        expected = [names[j] for j in order[:10]]
        assert [c for c, _ in pred.candidates] == expected


def test_exact_ties_break_by_entity_position():
    encoder = make_encoder()
    vec = encoder.encode(["shared vector text"])
    vec = vec / np.linalg.norm(vec)
    index = EntityIndex(("zeta term", "alpha term"), np.vstack([vec, vec]),
                        encoder.identity, encoder.max_layers)
    pred, = contrastive_probe(encoder, index, [make_query("anything")], k=2)
    assert [c for c, _ in pred.candidates] == ["zeta term", "alpha term"]


def test_topk_is_a_prefix_of_the_full_ranking():
    encoder = make_encoder()
    index = build_entity_index(encoder, [f"name number {i}" for i in range(20)])
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
    plain = contrastive_probe(make_encoder(), build_entity_index(make_encoder(), names),
                              queries, k=15)
    scaled_encoder = ScaledEncoder(dim=32, seed=3, layers=2, feature_dim=512)
    scaled = contrastive_probe(scaled_encoder,
                               build_entity_index(scaled_encoder, names),
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
    rows_per_block = draw(st.integers(1, 4))
    n_queries = draw(st.integers(1, 3 * rows_per_block + 1))
    vectors = draw(st.lists(
        st.lists(st.integers(-2, 2), min_size=dim, max_size=dim).filter(any),
        min_size=n_queries, max_size=n_queries))
    k = draw(st.one_of(st.just(1), st.just(n), st.integers(n + 1, n + 5), st.integers(1, n)))
    return axes, rows_per_block, vectors, k


@given(tie_heavy_retrieval())
@settings(max_examples=200, deadline=None)
def test_blocked_topk_equals_exhaustive_oracle(case):
    axes, rows_per_block, vectors, k = case
    dim = len(vectors[0])
    names = tuple(f"entity {i}" for i in range(len(axes)))
    index_rows = np.zeros((len(axes), dim))
    for i, (axis, sign) in enumerate(axes):
        index_rows[i, axis] = sign
    encoder = TableEncoder({f"query {i}": v for i, v in enumerate(vectors)})
    index = EntityIndex(names, index_rows, encoder.identity, 1)
    queries = [make_query(f"query {i}", qid=f"q-{i}") for i in range(len(vectors))]
    # query blocks of at most rows_per_block rows, so runs straddle them
    with mock.patch.object(probers, "BLOCK_BYTES", 8 * len(axes) * rows_per_block):
        predictions = contrastive_probe(encoder, index, queries, k=k)
    assert [p.query_id for p in predictions] == [q.query_id for q in queries]
    for pred, vector in zip(predictions, vectors):
        norm = math.sqrt(sum(x * x for x in vector))
        scores = [sign * (vector[axis] / norm) for axis, sign in axes]
        order = sorted(range(len(axes)), key=lambda j: (-scores[j], j))[:k]
        assert pred.candidates == tuple((names[j], scores[j]) for j in order)


def test_blocks_are_near_equal_and_bounded():
    with mock.patch.object(probers, "BLOCK_BYTES", 8 * 100 * 4):
        blocks = probers._blocks(9, 100)
        assert [(b.start, b.stop) for b in blocks] == [(0, 3), (3, 6), (6, 9)]
        assert probers._blocks(0, 100) == []
        assert [b.stop - b.start for b in probers._blocks(5, 1000)] == [1] * 5


def test_blocking_keeps_index_and_rankings():
    names = [f"entity {i} variant {i * 7 % 13}" for i in range(40)]
    queries = [make_query(f"finding {i} links to [MASK] .", qid=f"q-{i}") for i in range(25)]
    whole_index = build_entity_index(make_encoder(), names)
    whole = contrastive_probe(make_encoder(), whole_index, queries, k=12)
    # 512-wide feature rows: eight names or queries per block
    with mock.patch.object(probers, "BLOCK_BYTES", 8 * 512 * 8):
        blocked_index = build_entity_index(make_encoder(), names)
        blocked = contrastive_probe(make_encoder(), blocked_index, queries, k=12)
    # BLAS may round a short block differently, so floats are compared to
    # within rounding; the rankings must agree exactly
    np.testing.assert_allclose(blocked_index.vectors, whole_index.vectors, rtol=0, atol=1e-12)
    for a, b in zip(blocked, whole):
        assert [c for c, _ in a.candidates] == [c for c, _ in b.candidates]
        np.testing.assert_allclose([s for _, s in a.candidates],
                                   [s for _, s in b.candidates], rtol=0, atol=1e-12)


def test_index_rejects_non_finite_rows():
    vectors = np.array([[1.0, 0.0], [np.nan, 0.0]])
    with pytest.raises(ValidationError, match="unit norm"):
        EntityIndex(("a", "b"), vectors, "enc", 1)


def test_bad_k_and_empty_queries():
    encoder = make_encoder()
    index = build_entity_index(encoder, SMALL_VOCAB)
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
    assert mask_predict(stub, MASK_QUERY, num_masks=2) == "beta gamma"


@pytest.mark.parametrize("strategy", ["independent", "order", "confidence"])
@pytest.mark.parametrize("first_peak", [0.6, 0.9])
def test_strategies_match_enumeration_oracle(strategy, first_peak):
    got = mask_predict(conditional_stub(first_peak), MASK_QUERY,
                       num_masks=2, strategy=strategy)
    assert got == oracle_fill(stub_tables(first_peak), strategy)


def test_order_sees_the_filled_left_neighbor():
    # independent leaves the second mask on the default row; order re-scores
    # it after filling "alpha" and the left rule kicks in
    stub = conditional_stub(0.6)
    assert mask_predict(stub, MASK_QUERY, num_masks=2) == "alpha delta"
    assert mask_predict(stub, MASK_QUERY, num_masks=2, strategy="order") == "alpha gamma"


def test_confidence_fills_the_most_certain_position_first():
    # peak 0.9 beats the default row's 0.8, so the first slot fills first and
    # the second slot is rescored under its left rule; peak 0.6 loses and the
    # second slot freezes on the default row before "alpha" lands
    assert mask_predict(conditional_stub(0.9), MASK_QUERY,
                        num_masks=2, strategy="confidence") == "alpha gamma"
    assert mask_predict(conditional_stub(0.6), MASK_QUERY,
                        num_masks=2, strategy="confidence") == "alpha delta"


def test_order_equals_independent_without_conditioning():
    stub = TableMLM(VOCAB, DEFAULT_ROW, [
        {"position": 3, "probs": {"alpha": 0.7, "beta": 0.3}},
        {"position": 4, "probs": {"gamma": 0.9, "delta": 0.1}},
    ])
    expected = mask_predict(stub, MASK_QUERY, num_masks=2)
    assert mask_predict(stub, MASK_QUERY, num_masks=2, strategy="order") == expected


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
        mask_predict(stub, "no placeholder here")
    with pytest.raises(ValidationError, match="exactly once"):
        mask_predict(stub, "[MASK] twice [MASK]")
    with pytest.raises(ConfigurationError):
        mask_predict(stub, MASK_QUERY, strategy="beam")
    with pytest.raises(ConfigurationError):
        mask_predict(stub, MASK_QUERY, num_masks=0)
    with pytest.raises(ConfigurationError):
        mask_predict(stub, MASK_QUERY, refine="shuffle")


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
    max_new_tokens = 4

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


def test_empty_predictions_file_is_valid(tmp_path):
    path = tmp_path / "preds.jsonl"
    path.write_text("", encoding="utf-8")
    assert load_predictions(path) == []
