import filecmp
import json
import sys
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeforge.encoders import (
    ReferenceEncoder,
    TableGenerator,
    TableMLM,
    encoder_from_spec,
    generator_from_spec,
    load_checkpoint,
    mlm_from_spec,
    save_checkpoint,
)
from probeforge.errors import ConfigurationError, InputError, ValidationError

TEXTS = ["Entecavir might treat [MASK] .", "Hepatitis B", "silent gene", "listen gene"]


def small_encoder(**kw):
    args = dict(dim=16, seed=3, layers=4, feature_dim=128)
    args.update(kw)
    return ReferenceEncoder(**args)


def test_encode_deterministic_across_instances():
    a = small_encoder().encode(TEXTS)
    b = small_encoder().encode(TEXTS)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4, 16)
    assert np.isfinite(a).all()


def test_distinct_strings_distinct_vectors():
    vecs = small_encoder().encode(TEXTS)
    # "silent gene" and "listen gene" are anagrams at the word level but
    # differ in trigrams, so their vectors must differ
    assert not np.allclose(vecs[2], vecs[3])
    assert not np.allclose(vecs[0], vecs[1])


def test_layer_limit_full_equals_unrestricted():
    enc = small_encoder()
    full = enc.encode(TEXTS)
    limited = enc.encode(TEXTS, layer_limit=enc.max_layers)
    np.testing.assert_allclose(full, limited, atol=1e-6)


def test_layer_limit_out_of_range():
    enc = small_encoder()
    with pytest.raises(ConfigurationError):
        enc.encode(TEXTS, layer_limit=0)
    with pytest.raises(ConfigurationError):
        enc.encode(TEXTS, layer_limit=enc.max_layers + 1)


class RecordingEncoder(ReferenceEncoder):
    def __init__(self, **kw):
        super().__init__(**kw)
        self.touched = []

    def _block_weight(self, i):
        self.touched.append(i)
        return super()._block_weight(i)


def test_truncated_forward_never_reads_deeper_blocks():
    enc = RecordingEncoder(dim=16, seed=3, layers=4, feature_dim=128)
    enc.encode(TEXTS, layer_limit=2)
    assert set(enc.touched) == {0, 1}


def test_batch_partition_independence():
    enc = small_encoder()
    whole = enc.encode(TEXTS)
    parts = np.vstack([enc.encode([t]) for t in TEXTS])
    np.testing.assert_allclose(whole, parts, atol=1e-5)


def test_rejects_empty_text():
    with pytest.raises(ValidationError):
        small_encoder().encode(["ok", "   "])


def test_single_character_text_encodes():
    vec = small_encoder().encode(["a"])
    assert np.isfinite(vec).all()
    assert np.linalg.norm(vec) > 0


def dense_features(texts, feature_dim):
    # the original featurization: one dense count row per text, normalized
    rows = np.empty((len(texts), feature_dim))
    for i, text in enumerate(texts):
        counts = np.zeros(feature_dim)
        padded = "\x02" + text.lower() + "\x03"
        for j in range(len(padded) - 2):
            counts[zlib.crc32(padded[j:j + 3].encode("utf-8")) % feature_dim] += 1.0
        rows[i] = counts / np.linalg.norm(counts)
    return rows


FEATURE_TEXTS = st.one_of(
    st.text(min_size=1, max_size=1),
    st.text(min_size=1, max_size=40),
    # repeated trigrams give counts above one in a bucket
    st.builds(lambda unit, times: unit * times,
              st.text(min_size=1, max_size=3), st.integers(2, 12)),
)


@given(st.lists(FEATURE_TEXTS, min_size=1, max_size=10),
       st.lists(FEATURE_TEXTS, max_size=6),
       st.sampled_from([16, 128, 2048]))
@settings(max_examples=150, deadline=None)
def test_sparse_features_are_bit_identical_to_dense_rows(first, second, feature_dim):
    enc = ReferenceEncoder(dim=4, seed=0, layers=1, feature_dim=feature_dim)
    # a second call mixes cached texts, new texts and repeats
    for texts in (first, second + first[::-1] + second):
        got = enc._features(texts)
        want = dense_features(texts, feature_dim)
        assert got.shape == want.shape
        assert got.tobytes() == want.tobytes()


def test_feature_cache_entry_is_sparse():
    enc = ReferenceEncoder(dim=16, seed=0, layers=1, feature_dim=2048)
    text = "Entecavir may prevent hepatitis B reactivation in carriers [MASK] ."
    enc.encode([text])
    buckets, values = enc._feat_cache[text]
    assert len(buckets) == len(values) <= len(text)
    size = sum(sys.getsizeof(arr) + arr.nbytes for arr in (buckets, values))
    # a dense float64 row would take feature_dim * 8 bytes; the entry
    # (both arrays, their headers and buffers) must take under an eighth
    assert size < enc.feature_dim * 8 // 8


def test_training_step_changes_outputs_and_identity():
    enc = small_encoder()
    before_id = enc.identity
    before = enc.encode(TEXTS).copy()
    out = enc.forward_train(TEXTS)
    enc.backward_train(np.ones_like(out), learning_rate=0.01)
    after = enc.encode(TEXTS)
    assert not np.allclose(before, after)
    assert enc.identity != before_id
    assert enc.step == 1


def test_backward_requires_forward():
    enc = small_encoder()
    with pytest.raises(ValidationError):
        enc.backward_train(np.zeros((1, enc.embedding_dim)), 0.1)


def test_backward_gradient_matches_finite_differences():
    # probe loss L = sum(R * output); analytic dL/dW checked against central
    # differences through the full residual stack
    enc = ReferenceEncoder(dim=6, seed=1, layers=2, feature_dim=32)
    rng = np.random.default_rng(0)
    texts = ["alpha beta", "gamma delta epsilon"]
    R = rng.standard_normal((2, 6))

    def loss():
        return float((enc.encode(texts) * R).sum())

    out = enc.forward_train(texts)
    base_w_in = enc.w_in.copy()
    base_blocks = [b.copy() for b in enc.blocks]
    enc.backward_train(R, learning_rate=1.0)
    grad_w_in = (base_w_in - enc.w_in) / 1.0
    grad_blocks = [(b0 - b1) / 1.0 for b0, b1 in zip(base_blocks, enc.blocks)]
    # restore and probe a handful of coordinates numerically
    enc.w_in = base_w_in.copy()
    enc.blocks = [b.copy() for b in base_blocks]
    eps = 1e-6
    probes = [(enc.w_in, grad_w_in, (3, 2)), (enc.blocks[0], grad_blocks[0], (1, 4)),
              (enc.blocks[1], grad_blocks[1], (5, 0))]
    for matrix, grad, (i, j) in probes:
        matrix[i, j] += eps
        up = loss()
        matrix[i, j] -= 2 * eps
        down = loss()
        matrix[i, j] += eps
        numeric = (up - down) / (2 * eps)
        assert grad[i, j] == pytest.approx(numeric, abs=1e-5)
    assert out.shape == (2, 6)


def test_checkpoint_roundtrip(tmp_path):
    enc = small_encoder()
    out = enc.forward_train(TEXTS)
    enc.backward_train(np.ones_like(out), 0.05)
    save_checkpoint(enc, tmp_path / "ck")
    back = load_checkpoint(tmp_path / "ck")
    assert back.identity == enc.identity
    assert back.step == 1
    np.testing.assert_array_equal(back.encode(TEXTS), enc.encode(TEXTS))
    sidecar = json.loads((tmp_path / "ck" / "sidecar.json").read_text())
    for key in ("identity", "embedding_dim", "max_layers", "step"):
        assert key in sidecar


def test_checkpoint_bytes_reproducible(tmp_path):
    save_checkpoint(small_encoder(), tmp_path / "a")
    save_checkpoint(small_encoder(), tmp_path / "b")
    files_a = sorted(p.name for p in (tmp_path / "a").iterdir())
    files_b = sorted(p.name for p in (tmp_path / "b").iterdir())
    assert files_a == files_b
    match, mismatch, errors = filecmp.cmpfiles(tmp_path / "a", tmp_path / "b",
                                               files_a, shallow=False)
    assert not mismatch and not errors


def test_load_checkpoint_rejects_non_checkpoint(tmp_path):
    with pytest.raises(ConfigurationError):
        load_checkpoint(tmp_path)


def test_load_checkpoint_rejects_bad_sidecar_config(tmp_path):
    save_checkpoint(small_encoder(), tmp_path)
    sidecar = json.loads((tmp_path / "sidecar.json").read_text())
    sidecar["config"]["width"] = 3
    (tmp_path / "sidecar.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValidationError, match="bad config"):
        load_checkpoint(tmp_path)


def test_load_checkpoint_rejects_unreadable_sidecar(tmp_path):
    save_checkpoint(small_encoder(), tmp_path)
    (tmp_path / "sidecar.json").write_bytes(b"\xff\xfe{")
    with pytest.raises(InputError, match="sidecar"):
        load_checkpoint(tmp_path)


# ---------------------------------------------------------------------------
# TableMLM

def one_hot_mlm():
    vocab = ["fever", "chills", "rash", "cough"]
    rules = [
        {"position": 2, "probs": {"fever": 1.0}},
        {"position": 3, "probs": {"chills": 1.0}},
    ]
    return TableMLM(vocab, default={"cough": 1.0}, rules=rules)


def test_mask_logprobs_row_per_mask():
    mlm = one_hot_mlm()
    rows = mlm.mask_logprobs("drug causes [MASK] [MASK] [MASK]")
    assert rows.shape == (3, 4)
    sums = np.exp(rows).sum(axis=1)
    np.testing.assert_allclose(sums, 1.0, atol=1e-4)


def test_one_hot_rows_exponentiate_to_one_hot():
    mlm = one_hot_mlm()
    rows = np.exp(mlm.mask_logprobs("drug causes [MASK] [MASK]"))
    np.testing.assert_array_equal(rows[0], [1, 0, 0, 0])
    np.testing.assert_array_equal(rows[1], [0, 1, 0, 0])


def test_no_mask_is_an_error():
    with pytest.raises(ValidationError):
        one_hot_mlm().mask_logprobs("no masks here")


def test_conditional_rule_sees_filled_token():
    vocab = ["fever", "chills", "mild", "severe"]
    rules = [
        {"position": 2, "left": "fever", "probs": {"severe": 1.0}},
        {"position": 2, "left": "chills", "probs": {"mild": 1.0}},
    ]
    mlm = TableMLM(vocab, default={"fever": 0.6, "chills": 0.4}, rules=rules)
    # both slots masked: slot 2 cannot match a left rule, falls to default
    rows = np.exp(mlm.mask_logprobs("causes [MASK] [MASK]"))
    np.testing.assert_allclose(rows[1], [0.6, 0.4, 0, 0])
    # after filling slot 1, slot 2's distribution switches
    rows = np.exp(mlm.mask_logprobs("causes fever [MASK]"))
    np.testing.assert_allclose(rows[0], [0, 0, 0, 1])
    rows = np.exp(mlm.mask_logprobs("causes chills [MASK]"))
    np.testing.assert_allclose(rows[0], [0, 0, 1, 0])


def test_probs_must_sum_to_one():
    with pytest.raises(ValidationError):
        TableMLM(["a", "b"], default={"a": 0.7})
    with pytest.raises(ValidationError):
        TableMLM(["a"], default={"zzz": 1.0})


def test_table_mlm_json_roundtrip(tmp_path):
    mlm = one_hot_mlm()
    path = tmp_path / "mlm.json"
    path.write_text(json.dumps(mlm.to_json()))
    back = TableMLM.from_json(path)
    q = "x [MASK] [MASK] [MASK]"
    np.testing.assert_array_equal(back.mask_logprobs(q), mlm.mask_logprobs(q))


# ---------------------------------------------------------------------------
# TableGenerator and spec strings

def test_generator_lookup_and_default():
    gen = TableGenerator(default=[("fallback", 1.0)],
                         by_query={"q1": [("a", 2.0), ("b", 1.0)]})
    assert gen.generate("q1") == [("a", 2.0), ("b", 1.0)]
    assert gen.generate("unseen") == [("fallback", 1.0)]


def test_generator_rejects_unsorted_scores():
    with pytest.raises(ValidationError):
        TableGenerator(default=[("a", 1.0), ("b", 2.0)])


def test_encoder_from_spec():
    enc = encoder_from_spec("reference:dim=32,seed=7,layers=3")
    assert enc.embedding_dim == 32
    assert enc.max_layers == 3
    assert "seed=7" in enc.identity


@pytest.mark.parametrize("spec", ["bert-base", "reference:dim=oops", "reference:bogus=1"])
def test_encoder_spec_errors(spec):
    with pytest.raises(ConfigurationError):
        encoder_from_spec(spec)


def test_mlm_and_generator_specs(tmp_path):
    mlm_path = tmp_path / "m.json"
    mlm_path.write_text(json.dumps(one_hot_mlm().to_json()))
    gen_path = tmp_path / "g.json"
    gen_path.write_text(json.dumps({"default": [["x", 1.0]]}))
    assert mlm_from_spec(f"table-mlm:{mlm_path}").vocab[0] == "fever"
    assert generator_from_spec(f"table-generator:{gen_path}").generate("q") == [("x", 1.0)]
    with pytest.raises(ConfigurationError):
        mlm_from_spec("table-mlm:")
    with pytest.raises(ConfigurationError):
        generator_from_spec("mystery:model")
