import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeforge import rewire
from probeforge.encoders import ReferenceEncoder, load_checkpoint, save_checkpoint
from probeforge.errors import (
    ConfigurationError,
    InputError,
    InsufficientCorpusError,
    NumericalError,
    ValidationError,
)
from probeforge.rewire import (
    MaskedPair,
    RewireConfig,
    TraceRow,
    infonce_loss,
    infonce_loss_and_grads,
    rewire_train,
    sample_sentences,
    tail_mask,
    write_loss_trace,
)
from probeforge.text import truncate_tokens


# ---------------------------------------------------------------------------
# Independent scalar oracle: plain Python loops, no vectorization, no
# logsumexp trick. Matches the objective definition term by term.

def oracle_infonce(queries, answers, tau):
    def cos(x, y):
        dot = sum(a * b for a, b in zip(x, y))
        nx = math.sqrt(sum(a * a for a in x))
        ny = math.sqrt(sum(b * b for b in y))
        return dot / (nx * ny)

    n = len(queries)
    stack = [list(v) for v in queries] + [list(v) for v in answers]
    total = 0.0
    for i in range(n):
        numerator = math.exp(cos(queries[i], stack[n + i]) / tau)
        denominator = 0.0
        for j, x in enumerate(stack):
            if j == i:  # the anchor never contrasts with itself
                continue
            denominator += math.exp(cos(queries[i], x) / tau)
        total += -math.log(numerator / denominator)
    return total


def test_single_pair_loss_is_exactly_zero():
    q = np.array([[0.3, -1.2, 0.5]])
    a = np.array([[2.0, 0.1, -0.4]])
    assert infonce_loss(q, a, temperature=0.03) == 0.0


def test_two_pair_orthogonal_worked_example():
    # q1 = a1 = e_x, q2 = a2 = e_y, tau = 1: each anchor contributes
    # -log(e / (e + 2)), so the sum is 2 * (log(e + 2) - 1)
    q = np.array([[1.0, 0.0], [0.0, 1.0]])
    expected = 2 * (math.log(math.e + 2) - 1)
    assert infonce_loss(q, q.copy(), temperature=1.0) == pytest.approx(expected, abs=1e-12)
    assert oracle_infonce(q, q.copy(), 1.0) == pytest.approx(expected, abs=1e-12)


def test_loss_matches_scalar_oracle_random_batches():
    rng = np.random.default_rng(42)
    for trial in range(40):
        n = int(rng.integers(1, 7))
        d = int(rng.integers(2, 9))
        tau = float(rng.choice([0.03, 0.1, 1.0]))
        q = rng.standard_normal((n, d))
        a = rng.standard_normal((n, d))
        got = infonce_loss(q, a, tau)
        want = oracle_infonce(q, a, tau)
        assert got == pytest.approx(want, rel=1e-8, abs=1e-8), f"trial {trial}"


def test_loss_invariant_under_joint_rotation():
    rng = np.random.default_rng(7)
    q = rng.standard_normal((5, 6))
    a = rng.standard_normal((5, 6))
    rotation, _ = np.linalg.qr(rng.standard_normal((6, 6)))
    base = infonce_loss(q, a, 0.05)
    rotated = infonce_loss(q @ rotation, a @ rotation, 0.05)
    assert rotated == pytest.approx(base, abs=1e-6)


def test_loss_invariant_under_joint_pair_permutation():
    rng = np.random.default_rng(3)
    q = rng.standard_normal((6, 4))
    a = rng.standard_normal((6, 4))
    perm = rng.permutation(6)
    assert infonce_loss(q[perm], a[perm], 0.1) == pytest.approx(
        infonce_loss(q, a, 0.1), rel=1e-12)


def test_zero_norm_row_is_numerical_error():
    q = np.array([[1.0, 0.0], [0.0, 0.0]])
    a = np.ones((2, 2))
    with pytest.raises(NumericalError):
        infonce_loss(q, a, 0.1)


@pytest.mark.parametrize("bad", [0.0, np.nan, np.inf])
@pytest.mark.parametrize("side", ["query_vectors", "answer_vectors"])
def test_bad_row_norm_error_names_its_matrix(side, bad):
    vectors = {"query_vectors": np.ones((3, 2)), "answer_vectors": np.ones((3, 2))}
    vectors[side][1] = [bad, 0.0]
    with pytest.raises(NumericalError, match=side):
        infonce_loss_and_grads(**vectors, temperature=0.1)


def test_loss_shape_validation():
    with pytest.raises(ValidationError):
        infonce_loss(np.ones((2, 3)), np.ones((3, 3)), 0.1)
    with pytest.raises(ConfigurationError):
        infonce_loss(np.ones((2, 3)), np.ones((2, 3)), 0.0)


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(11)
    q = rng.standard_normal((4, 5))
    a = rng.standard_normal((4, 5))
    tau = 0.2
    _, grads = infonce_loss_and_grads(q, a, tau)
    eps = 1e-6
    for matrix, grad in ((q, grads[:4]), (a, grads[4:])):
        for i, j in [(0, 0), (1, 3), (3, 4), (2, 2)]:
            matrix[i, j] += eps
            up = infonce_loss(q, a, tau)
            matrix[i, j] -= 2 * eps
            down = infonce_loss(q, a, tau)
            matrix[i, j] += eps
            assert grad[i, j] == pytest.approx((up - down) / (2 * eps), abs=1e-5)


@given(seed=st.integers(0, 10_000), n=st.integers(1, 6), d=st.integers(2, 8))
@settings(max_examples=60, deadline=None)
def test_loss_nonnegative_and_positive_above_one_pair(seed, n, d):
    # a lone pair scores its positive against nothing else, so the loss is
    # exactly zero; any second pair adds competitors and forces it positive
    rng = np.random.default_rng(seed)
    q = rng.standard_normal((n, d))
    a = rng.standard_normal((n, d))
    loss = infonce_loss(q, a, 0.1)
    if n == 1:
        assert loss == 0.0
    else:
        assert loss > 0.0


def test_lower_temperature_reduces_loss_when_positive_is_argmax():
    # queries sit on distinct axes and each answer is nudged toward an axis
    # no other vector uses, so every positive is the strict argmax similarity
    n, d = 4, 8
    q = np.eye(n, d)
    a = np.eye(n, d)
    for i in range(n):
        a[i, n + i] = 0.2
    losses = [infonce_loss(q, a, tau) for tau in (1.0, 0.1, 0.03)]
    assert losses[0] > losses[1] > losses[2]


# ---------------------------------------------------------------------------
# tail_mask

def test_tail_mask_floor_rule_example():
    pair = tail_mask("Social-distancing largely reduces coronavirus infections.", 0.5)
    assert pair.query == "Social-distancing largely reduces [MASK] ."
    assert pair.answer == "coronavirus infections"


def test_tail_mask_ratio_point_four():
    pair = tail_mask("alpha beta gamma delta epsilon zeta eta .", 0.4)
    # w = 7, m = floor(2.8) = 2
    assert pair.query == "alpha beta gamma delta epsilon [MASK] ."
    assert pair.answer == "zeta eta"


def test_tail_mask_minimum_one_word():
    pair = tail_mask("alpha beta", 0.1)
    assert pair.query == "alpha [MASK]"
    assert pair.answer == "beta"


def test_tail_mask_no_trailing_period():
    pair = tail_mask("alpha beta gamma delta", 0.5)
    assert pair.query == "alpha beta [MASK]"
    assert pair.answer == "gamma delta"


def test_tail_mask_question_mark_preserved():
    pair = tail_mask("does alpha beta gamma?", 0.5)
    assert pair.query == "does alpha [MASK] ?"
    assert pair.answer == "beta gamma"


def test_tail_mask_skip_signals():
    assert tail_mask("single.", 0.5) is None
    assert tail_mask("word", 0.5) is None
    assert tail_mask("contains [MASK] already .", 0.5) is None


def test_tail_mask_rejects_bad_ratio():
    with pytest.raises(ConfigurationError):
        tail_mask("a b c", 0.0)
    with pytest.raises(ConfigurationError):
        tail_mask("a b c", 1.0)


@given(st.lists(st.sampled_from(["alpha", "beta", "gamma", "delta", "epsilon"]),
                min_size=2, max_size=12),
       st.floats(min_value=0.05, max_value=0.95))
@settings(max_examples=150, deadline=None)
def test_tail_mask_invariants(words, ratio):
    sentence = " ".join(words) + "."
    pair = tail_mask(sentence, ratio)
    assert pair is not None
    assert pair.answer
    assert "." not in pair.answer
    assert pair.query.count("[MASK]") == 1
    assert pair.query.endswith("[MASK] .")
    # query prefix + answer reassemble the original content words
    prefix = pair.query[: pair.query.index("[MASK]")].split()
    assert prefix + pair.answer.split() == words


# ---------------------------------------------------------------------------
# sample_sentences

CORPUS = [f"sentence number {i} has exactly six words." for i in range(50)]


def _corpus_file(tmp_path, lines):
    path = tmp_path / "corpus.txt"
    path.write_text("".join(f"{line}\n" for line in lines), encoding="utf-8")
    return path


def test_sample_exact_population_is_order_stable(tmp_path):
    got = sample_sentences(_corpus_file(tmp_path, CORPUS), 50, seed=1)
    assert got == CORPUS


def test_sample_deterministic_and_seed_sensitive(tmp_path):
    big = [f"line {i} with plenty of words to qualify here." for i in range(200)]
    corpus = _corpus_file(tmp_path, big)
    a = sample_sentences(corpus, 20, seed=3)
    b = sample_sentences(corpus, 20, seed=3)
    c = sample_sentences(corpus, 20, seed=4)
    assert a == b
    assert a != c
    assert len(a) == 20
    assert all(s in big for s in a)


def test_sample_filters_word_counts(tmp_path):
    corpus = _corpus_file(tmp_path, ["too short", "x " * 70, "this sentence has five words."])
    got = sample_sentences(corpus, 1, seed=0)
    assert got == ["this sentence has five words."]


def test_sample_insufficient_corpus_message(tmp_path):
    corpus = _corpus_file(tmp_path, ["one two three four five", "a b c d e f", "nope"])
    with pytest.raises(InsufficientCorpusError, match="needed 5 .* 2 eligible of 3"):
        sample_sentences(corpus, 5, seed=0)


# ---------------------------------------------------------------------------
# RewireConfig

def test_config_defaults_are_the_stock_recipe():
    cfg = RewireConfig()
    assert cfg.num_sentences == 10_000
    assert cfg.mask_ratio == 0.5
    assert cfg.temperature == 0.03
    assert cfg.learning_rate == 2e-5
    assert cfg.steps == 500
    assert cfg.batch_size == 96
    assert cfg.checkpoint_every == 50
    assert cfg.probe_checkpoint_step == 150
    assert cfg.max_query_tokens == 50
    assert cfg.max_answer_tokens == 25


@pytest.mark.parametrize("kw", [
    {"mask_ratio": 0.0}, {"mask_ratio": 1.0}, {"temperature": 0.0},
    {"steps": 10, "checkpoint_every": 20}, {"seed": -1}, {"batch_size": 0},
])
def test_config_validation(kw):
    with pytest.raises(ConfigurationError):
        RewireConfig(**kw)


def test_config_json_roundtrip(tmp_path):
    cfg = RewireConfig(steps=60, checkpoint_every=20, seed=9)
    cfg.to_json(tmp_path / "c.json")
    back = RewireConfig.from_json(tmp_path / "c.json")
    assert back == cfg
    overridden = RewireConfig.from_json(tmp_path / "c.json", steps=40, seed=None)
    assert overridden.steps == 40
    assert overridden.seed == 9


def test_config_rejects_unknown_keys(tmp_path):
    (tmp_path / "c.json").write_text('{"stepz": 10}')
    with pytest.raises(ValidationError):
        RewireConfig.from_json(tmp_path / "c.json")


# ---------------------------------------------------------------------------
# training loop

def toy_pairs(n=24):
    pairs = []
    for i in range(n):
        pairs.append(MaskedPair(query=f"subject{i} relates to [MASK] .",
                                answer=f"object{i} item"))
    return pairs


def quick_config(**kw):
    args = dict(num_sentences=24, steps=12, batch_size=8, checkpoint_every=0,
                probe_checkpoint_step=0, learning_rate=0.05, temperature=0.1,
                seed=5)
    args.update(kw)
    return RewireConfig(**args)


def toy_encoder():
    return ReferenceEncoder(dim=16, seed=2, layers=2, feature_dim=256)


def test_zero_steps_changes_nothing():
    enc = toy_encoder()
    before = enc.encode(["probe text"]).copy()
    assert rewire_train(enc, toy_pairs(), quick_config(steps=0)) == []
    np.testing.assert_array_equal(enc.encode(["probe text"]), before)
    assert enc.step == 0


def test_training_is_deterministic(tmp_path):
    traces = []
    for run in ("a", "b"):
        trace = rewire_train(toy_encoder(), toy_pairs(),
                             quick_config(steps=10, checkpoint_every=5),
                             checkpoint_path=(tmp_path / run).joinpath)
        write_loss_trace(trace, tmp_path / run / "loss_trace.csv")
        traces.append(trace)
    assert traces[0] == traces[1]
    trace_a = (tmp_path / "a" / "loss_trace.csv").read_bytes()
    trace_b = (tmp_path / "b" / "loss_trace.csv").read_bytes()
    assert trace_a == trace_b
    for name in ("step_00005", "step_00010"):
        for f in sorted((tmp_path / "a" / "checkpoints" / name).iterdir()):
            other = tmp_path / "b" / "checkpoints" / name / f.name
            assert f.read_bytes() == other.read_bytes(), f.name


def test_pairs_are_truncated_once_per_run(monkeypatch):
    calls = []

    def counting_truncate(text, max_tokens):
        calls.append(text)
        return " ".join(text.split()[:max_tokens])

    monkeypatch.setattr(rewire, "truncate_tokens", counting_truncate)
    pairs = toy_pairs()
    counted = rewire_train(toy_encoder(), pairs, quick_config(steps=12, max_query_tokens=3))
    assert len(calls) == 2 * len(pairs)
    monkeypatch.undo()
    plain = rewire_train(toy_encoder(), pairs, quick_config(steps=12, max_query_tokens=3))
    assert counted == plain


@pytest.mark.parametrize("text,max_tokens,want", [
    ("Hepatitis B is treated by [MASK] .", 7, None),
    ("Hepatitis B is treated by [MASK] .", 3, "Hepatitis B is"),
    ("Hepatitis  B\tis treated", 4, "Hepatitis B is treated"),
    (" Hepatitis B ", 5, "Hepatitis B"),
])
def test_truncate_tokens_returns_an_unchanged_text_itself(text, max_tokens, want):
    got = truncate_tokens(text, max_tokens)
    if want is None:
        assert got is text
    else:
        assert got == want and got is not text


def public_api_loop(encoder, pairs, config, start_step=0):
    """The trace of rewire_train's steps, taken with public calls only."""
    per_epoch = len(pairs) // config.batch_size
    trace = []
    for step in range(start_step + 1, config.steps + 1):
        epoch, slot = divmod(step - 1, per_epoch)
        perm = np.random.default_rng([config.seed, epoch]).permutation(len(pairs))
        batch = perm[slot * config.batch_size:(slot + 1) * config.batch_size]
        queries = [truncate_tokens(pairs[i].query, config.max_query_tokens) for i in batch]
        answers = [truncate_tokens(pairs[i].answer, config.max_answer_tokens) for i in batch]
        outputs = encoder.forward_train(queries + answers)
        n = len(batch)
        loss, grads = infonce_loss_and_grads(outputs[:n], outputs[n:], config.temperature)
        encoder.backward_train(grads, config.learning_rate)
        trace.append(TraceRow(step, loss, loss / n))
    return trace


@pytest.mark.parametrize("batch_size,start_step", [(1, 0), (3, 0), (3, 4)])
def test_rewire_train_matches_public_api_loop(batch_size, start_step):
    # 10 pairs in batches of 3 leave a short last batch, so epochs turn over
    pairs = toy_pairs(10)
    cfg = quick_config(steps=11, batch_size=batch_size, max_query_tokens=3)
    want_encoder, got_encoder = toy_encoder(), toy_encoder()
    # both encoders reach start_step first; rewire_train then continues from it
    first_leg = quick_config(steps=start_step, batch_size=batch_size, max_query_tokens=3)
    public_api_loop(want_encoder, pairs, first_leg)
    rewire_train(got_encoder, pairs, first_leg)
    want = public_api_loop(want_encoder, pairs, cfg, start_step)
    got = rewire_train(got_encoder, pairs, cfg)
    assert got == want
    assert got_encoder.identity == want_encoder.identity
    for name, array in want_encoder.state_arrays().items():
        assert np.array_equal(got_encoder.state_arrays()[name], array), name


def test_loss_strictly_decreases_on_fixed_batch():
    # low temperatures make plain SGD overshoot on this tiny batch, so the
    # smoke check runs at temperature 1.0 where lr 1e-2 descends cleanly
    pairs = toy_pairs(8)
    cfg = quick_config(steps=10, batch_size=8, learning_rate=0.01, temperature=1.0)
    losses = [row.loss_sum for row in rewire_train(toy_encoder(), pairs, cfg)]
    assert len(losses) == 10
    assert all(b < a for a, b in zip(losses, losses[1:]))


def test_longer_run_improves_mean_loss():
    pairs = toy_pairs(200)
    cfg = quick_config(num_sentences=200, steps=50, batch_size=8,
                       learning_rate=0.01, temperature=1.0)
    losses = [row.loss_sum for row in rewire_train(toy_encoder(), pairs, cfg)]
    assert len(losses) == 50
    assert sum(losses[-10:]) / 10 < sum(losses[:10]) / 10


def test_trace_mean_is_sum_over_batch():
    for row in rewire_train(toy_encoder(), toy_pairs(), quick_config(steps=3)):
        assert row.loss_mean == pytest.approx(row.loss_sum / 8)


def test_short_final_batch_dropped():
    # 20 pairs, batch 8 -> 2 batches per epoch, remainder 4 never trained on
    pairs = toy_pairs(20)
    trace = rewire_train(toy_encoder(), pairs, quick_config(steps=4))
    assert [row.step for row in trace] == [1, 2, 3, 4]


def test_too_few_pairs_is_input_error():
    with pytest.raises(InputError):
        rewire_train(toy_encoder(), toy_pairs(4), quick_config())


def test_resume_from_checkpoint_matches_uninterrupted(tmp_path):
    cfg = quick_config(steps=9, checkpoint_every=3)
    full = rewire_train(toy_encoder(), toy_pairs(), cfg)
    rewire_train(toy_encoder(), toy_pairs(), quick_config(steps=3, checkpoint_every=3),
                 checkpoint_path=tmp_path.joinpath)
    resumed_encoder = load_checkpoint(tmp_path / "checkpoints" / "step_00003")
    resumed = rewire_train(resumed_encoder, toy_pairs(), cfg)
    assert [r.step for r in resumed] == [4, 5, 6, 7, 8, 9]
    for row_full, row_res in zip(full[3:], resumed):
        assert row_full == row_res


def test_checkpoint_cadence(tmp_path):
    cfg = quick_config(steps=12, checkpoint_every=4)
    rewire_train(toy_encoder(), toy_pairs(), cfg, checkpoint_path=tmp_path.joinpath)
    assert sorted(p.name for p in (tmp_path / "checkpoints").iterdir()) == [
        "step_00004", "step_00008", "step_00012"]
    reloaded = load_checkpoint(tmp_path / "checkpoints" / "step_00008")
    assert reloaded.step == 8


def test_reloaded_checkpoints_save_the_same_bytes(tmp_path):
    # load_checkpoint then save_checkpoint reproduces every file of each
    # checkpoint of a run, sidecar and its digests included
    rewire_train(toy_encoder(), toy_pairs(), quick_config(steps=12, checkpoint_every=4),
                 checkpoint_path=tmp_path.joinpath)
    steps = sorted((tmp_path / "checkpoints").iterdir())
    assert len(steps) == 3
    for step in steps:
        copy = save_checkpoint(load_checkpoint(step), tmp_path / "resaved" / step.name)
        assert ({p.name: p.read_bytes() for p in copy.iterdir()}
                == {p.name: p.read_bytes() for p in step.iterdir()})


def test_checkpoint_of_a_run_started_past_step_zero_loads(tmp_path):
    # a run resumed from a loaded step-4 checkpoint saves step 8, and that
    # checkpoint reloads with the identity of the encoder that wrote it
    cfg = quick_config(steps=8, checkpoint_every=4)
    rewire_train(toy_encoder(), toy_pairs(), quick_config(steps=4, checkpoint_every=4),
                 checkpoint_path=tmp_path.joinpath)
    resumed = load_checkpoint(tmp_path / "checkpoints" / "step_00004")
    trace = rewire_train(resumed, toy_pairs(), cfg, checkpoint_path=tmp_path.joinpath)
    assert [r.step for r in trace] == [5, 6, 7, 8]
    reloaded = load_checkpoint(tmp_path / "checkpoints" / "step_00008")
    assert reloaded.identity == resumed.identity
    assert reloaded.identity.endswith("@step8")


def test_encoder_past_the_config_steps_is_configuration_error():
    encoder = toy_encoder()
    rewire_train(encoder, toy_pairs(), quick_config(steps=4))
    with pytest.raises(ConfigurationError, match="at step 4"):
        rewire_train(encoder, toy_pairs(), quick_config(steps=3))
    assert encoder.step == 4


def test_encoder_at_the_config_steps_trains_nothing():
    # config.steps is the total: a second call with the same config adds nothing
    encoder, cfg = toy_encoder(), quick_config(steps=4)
    rewire_train(encoder, toy_pairs(), cfg)
    before = {name: array.copy() for name, array in encoder.state_arrays().items()}
    assert rewire_train(encoder, toy_pairs(), cfg) == []
    assert encoder.step == 4
    for name, array in encoder.state_arrays().items():
        assert np.array_equal(array, before[name]), name
