import filecmp
import hashlib
import json
import shutil
import tracemalloc
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from probeforge.encoders import (
    ENCODE_GROUP_BYTES,
    ReferenceEncoder,
    TableGenerator,
    TableMLM,
    _window_crc32,
    encoder_from_spec,
    generator_from_spec,
    load_checkpoint,
    mlm_from_spec,
    near_equal_slices,
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


class RecordingBlocks(list):
    """An encoder's block list that reports each index read through it."""

    def __init__(self, blocks, on_read):
        super().__init__(blocks)
        self.on_read = on_read

    def __getitem__(self, i):
        self.on_read(i)
        return super().__getitem__(i)


def test_truncated_forward_never_reads_deeper_blocks():
    enc = ReferenceEncoder(dim=16, seed=3, layers=4, feature_dim=128)
    touched = []
    enc.blocks = RecordingBlocks(enc.blocks, touched.append)
    enc.encode(TEXTS, layer_limit=2)
    assert set(touched) == {0, 1}
    touched.clear()
    enc.forward_train(TEXTS, layer_limit=2)
    assert set(touched) == {0, 1}


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


# characters whose lowercase is longer ("İ" -> "i̇"), astral-plane
# characters, one with an astral lowercase, and the padding sentinels
SPECIAL_CHARS = "İIiẞß\x02\x03\U0001F600\U00010400\U0010FFFF"
FEATURE_TEXTS = st.one_of(
    st.text(min_size=1, max_size=1),
    st.text(min_size=1, max_size=40),
    st.text(st.sampled_from(SPECIAL_CHARS) | st.characters(codec="utf-8"),
            min_size=1, max_size=12),
    # repeated trigrams give counts above one in a bucket
    st.builds(lambda unit, times: unit * times,
              st.text(min_size=1, max_size=3), st.integers(2, 12)),
)


@given(st.lists(FEATURE_TEXTS, min_size=1, max_size=10),
       st.lists(FEATURE_TEXTS, max_size=6),
       st.lists(FEATURE_TEXTS, max_size=6),
       st.sampled_from([16, 128, 2048]))
@settings(max_examples=150, deadline=None)
def test_sparse_features_are_bit_identical_to_dense_rows(first, second, third, feature_dim):
    enc = ReferenceEncoder(dim=4, seed=0, layers=1, feature_dim=feature_dim)
    # a second call mixes cached texts, new texts and repeats; a third adds
    # joins of cached texts, whose trigrams the encoder has mostly seen
    joins = [a + b for a, b in zip(first, first[1:] + second)]
    for texts in (first, second + first[::-1] + second, joins + third + first):
        rows, cols = enc._features(texts)
        assert rows.shape == (len(texts), len(cols))
        assert (np.diff(cols) > 0).all()
        assert (rows != 0).any(axis=0).all()
        got = np.zeros((len(texts), feature_dim))
        got[:, cols] = rows
        assert got.tobytes() == dense_features(texts, feature_dim).tobytes()


# the padding sentinels, an ASCII letter, a character whose lowercase is
# longer, and the last code point of each UTF-8 width and the first of the next
WIDTH_EDGES = "\x02\x03aİ\x7f\x80\u07ff\u0800\uffff\U00010000\U0010ffff"


@pytest.mark.parametrize("text", [
    "", "a", "ab", "\x02ab\x03", "\x02\x7f\x80\x03", "\x02\u07ff\u0800\x03",
    "\x02\uffff\U00010000\x03", "\x02\U0010ffff\x03", "\x02i̇stanbul\x03",
    # every ordered triple of the edges, so every pair of widths meets in a window
    "".join(a + b + c for a in WIDTH_EDGES for b in WIDTH_EDGES for c in WIDTH_EDGES),
], ids=["empty", "one-point", "two-points", "ascii", "2-byte", "3-byte", "4-byte", "max",
        "dotted-i", "every-triple"])
def test_window_crc32_is_zlib_crc32_of_each_window(text):
    got = _window_crc32(np.frombuffer(text.encode("utf-32-le"), dtype="<u4"))
    assert got.dtype == np.uint32
    assert got.tolist() == [zlib.crc32(text[i:i + 3].encode("utf-8"))
                            for i in range(len(text) - 2)]


def unique_runs(texts, feature_dim):
    """_featurize's runs as np.unique counts them: one int64 key
    row * feature_dim + bucket per trigram, each bucket from zlib.crc32."""
    keys = []
    for row, text in enumerate(texts):
        padded = "\x02" + text.lower() + "\x03"
        keys += [row * feature_dim + zlib.crc32(padded[j:j + 3].encode("utf-8")) % feature_dim
                 for j in range(len(padded) - 2)]
    keys, counts = np.unique(np.array(keys, dtype=np.int64), return_counts=True)
    rows, buckets = np.divmod(keys, feature_dim)
    indptr = np.searchsorted(rows, np.arange(len(texts) + 1))
    floats = counts.astype(float)
    return indptr, buckets, counts, np.sqrt(np.add.reduceat(floats * floats, indptr[:-1]))


def seeded_texts(n, seed):
    rng = np.random.default_rng(seed)
    letters = list("abcdeäßİ\U0001F600 ")
    return ["".join(rng.choice(letters, size=rng.integers(1, 12))) for _ in range(n)]


@pytest.mark.parametrize("n_texts, feature_dim, key_type", [
    (1, 16, np.uint32), (200, 2048, np.uint32),
    # 2**14 + 1 texts of 2**18 buckets pass 2**32 keys: int64 keys
    (2**14 + 1, 2**18, np.int64),
])
def test_featurize_runs_equal_np_unique_counts(n_texts, feature_dim, key_type):
    enc = ReferenceEncoder(dim=2, seed=0, layers=1, feature_dim=feature_dim)
    # non-ASCII code points, and a trigram repeated 300 times, past uint8 counts
    texts = seeded_texts(n_texts, n_texts)[:-1] + ["Ab" * 301]
    runs = enc._featurize(texts)
    indptr, buckets, counts, norms = unique_runs(texts, feature_dim)
    assert runs.buckets.dtype == key_type
    assert runs.counts.max() > 255
    np.testing.assert_array_equal(runs.indptr, indptr)
    np.testing.assert_array_equal(runs.buckets, buckets)
    np.testing.assert_array_equal(runs.counts, counts)
    assert runs.norms.tobytes() == norms.tobytes()


def snapshot(value):
    """value's contents, with every array down to its dtype, shape and bytes."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (list, tuple)):
        return type(value).__name__, [snapshot(v) for v in value]
    if isinstance(value, dict):
        return {k: snapshot(v) for k, v in value.items()}
    return value


def test_encode_leaves_every_attribute_unchanged():
    spec = dict(dim=8, seed=2, layers=2, feature_dim=256)
    enc = ReferenceEncoder(**spec)
    enc.forward_train(TEXTS[:2])
    before = snapshot(vars(enc))
    # stored texts, new texts, repeats and non-ASCII trigrams
    other = ["İstanbul \U0001F600", "Hepatitis B", "ẞtraße", "x"]
    enc.encode(other + TEXTS + other)
    assert snapshot(vars(enc)) == before
    # what an encoder has encoded before changes no later vector
    assert enc.encode(TEXTS).tobytes() == ReferenceEncoder(**spec).encode(TEXTS).tobytes()


@pytest.mark.parametrize("feature_dim", [128, 2048, 65536])
def test_feature_store_takes_three_bytes_per_trigram(feature_dim):
    enc = ReferenceEncoder(dim=16, seed=0, layers=1, feature_dim=feature_dim)
    texts = [f"Entecavir may prevent hepatitis B reactivation in carrier {i} [MASK] ."
             for i in range(40)]
    enc._features(texts[:25])
    enc._features(texts)
    n = len(enc._row_of)
    trigrams = int(enc._indptr[n])
    assert n == len(texts) and trigrams > 40 * n
    used = sum(arr.nbytes for arr in (enc._indptr[:n + 1], enc._norms[:n],
                                      enc._buckets[:trigrams], enc._counts[:trigrams]))
    # a bucket and a count per trigram; per text an offset and a norm
    assert used <= 3 * trigrams + 16 * n + 8


@pytest.mark.parametrize("texts,feature_dim,dtypes", [
    # a trigram repeated more often than a uint8 count holds
    (["ab", "a" * 300, "Hepatitis B", "aaa"], 128, (np.uint8, np.uint16)),
    # a trigram repeated more often than a uint16 count holds
    (["ab", "a" * 70000, "Hepatitis B", "aaa"], 128, (np.uint8, np.uint32)),
    # buckets above what a uint16 holds
    (["ab", *TEXTS, "İstanbul \U0001F600"], 70000, (np.uint32, np.uint8)),
], ids=["uint16-counts", "wide-counts", "wide-buckets"])
def test_widened_store_is_bit_identical_to_dense_rows(texts, feature_dim, dtypes):
    enc = ReferenceEncoder(dim=4, seed=0, layers=1, feature_dim=feature_dim)
    # the first batch is stored before any wide value arrives
    for batch in (texts[:1], texts, texts[::-1]):
        rows, cols = enc._features(batch)
        got = np.zeros((len(batch), feature_dim))
        got[:, cols] = rows
        assert got.tobytes() == dense_features(batch, feature_dim).tobytes()
    assert (enc._buckets.dtype, enc._counts.dtype) == dtypes


def test_failed_batch_leaves_the_feature_store_as_it_was():
    spec = dict(dim=8, seed=2, layers=2, feature_dim=256)
    enc = ReferenceEncoder(**spec)
    enc.forward_train(["Hepatitis B", "listen gene"])
    valid = ["Entecavir might treat [MASK] .", "Hepatitis B", "silent gene"]
    with pytest.raises(ValidationError, match="not valid Unicode"):
        enc.forward_train(valid + ["lone \ud800 surrogate"])
    assert list(enc._row_of) == ["Hepatitis B", "listen gene"]
    fresh = ReferenceEncoder(**spec).forward_train(valid)
    assert enc.forward_train(valid).tobytes() == fresh.tobytes()


def store_arrays(enc):
    return enc._indptr, enc._buckets, enc._counts, enc._norms


def test_encode_leaves_the_feature_store_untouched():
    enc = small_encoder()
    trained = enc.forward_train(TEXTS[:2])
    row_of, rows = enc._row_of, dict(enc._row_of)
    arrays = store_arrays(enc)
    contents = [a.tobytes() for a in arrays]
    # stored texts, new texts and repeats
    encoded = enc.encode(TEXTS[:2])
    enc.encode(TEXTS + TEXTS[::-1])
    assert enc._row_of is row_of and row_of == rows
    assert all(a is b for a, b in zip(store_arrays(enc), arrays))
    assert [a.tobytes() for a in arrays] == contents
    # the call's own runs give the rows the store gives
    assert encoded.tobytes() == trained.tobytes()


def syllable_names(parity):
    """The 1,024 eleven-syllable names over "ka" and "lo" whose count of
    "lo" has the given parity; either set holds every trigram of the other."""
    return ["".join("lo" if i >> b & 1 else "ka" for b in range(11))
            for i in range(2048) if i.bit_count() % 2 == parity]


def test_encode_keeps_no_memory_per_text():
    enc = ReferenceEncoder(dim=16, seed=0, layers=1, feature_dim=256)
    first, second = syllable_names(0), syllable_names(1)
    assert not set(first) & set(second)
    tracemalloc.start()
    try:
        enc.encode(first)
        after_first = tracemalloc.get_traced_memory()[0]
        enc.encode(second)
        after_second = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    # storing the second list's texts would keep about 90 KiB; numpy's cache
    # of small allocations may keep a few hundred bytes
    assert after_second - after_first < 4096


def dense_forward(enc, texts):
    """The encoder's output computed over the dense feature batch."""
    state = dense_features(texts, enc.feature_dim) @ enc.w_in
    for block in enc.blocks:
        state = state + np.tanh(state @ block)
    return state


def dense_sgd_step(enc, texts, grad_outputs, learning_rate):
    """The weights after one SGD step of enc on texts, with the input layer's
    gradient taken over the dense feature batch. The residual stack reuses
    enc's cached forward states, so the blocks follow the same arithmetic as
    the encoder's own step."""
    cache = enc._train_cache
    states, tanhs = cache.states, cache.tanhs
    g = grad_outputs
    blocks = [b.copy() for b in enc.blocks]
    for i in reversed(range(cache.limit)):
        dt = g * (1.0 - tanhs[i] ** 2)
        blocks[i] -= learning_rate * (states[i].T @ dt)
        g = g + dt @ enc.blocks[i].T
    w_in = enc.w_in - learning_rate * (dense_features(texts, enc.feature_dim).T @ g)
    return w_in, blocks


@pytest.mark.parametrize("texts,feature_dim", [
    # every bucket touched, so no column is dropped
    ([chr(97 + i) * 3 + chr(98 + i) for i in range(20)] + TEXTS, 16),
    (["Entecavir might treat [MASK] ."], 2048),
], ids=["all-buckets", "single-text"])
def test_touched_bucket_step_matches_dense_oracle(texts, feature_dim):
    enc = ReferenceEncoder(dim=8, seed=5, layers=2, feature_dim=feature_dim)
    _, cols = enc._features(texts)
    # the first case drops no column, the second drops most of them
    assert (len(cols) == feature_dim) == (feature_dim == 16)
    before = enc.w_in.copy()
    want_out = dense_forward(enc, texts)
    out = enc.forward_train(texts)
    np.testing.assert_allclose(out, want_out, rtol=0, atol=1e-12)
    grad = np.random.default_rng(1).standard_normal(out.shape)
    want_w_in, want_blocks = dense_sgd_step(enc, texts, grad, 0.05)
    enc.backward_train(grad, 0.05)
    assert enc.w_in.tobytes() == want_w_in.tobytes()
    for got, want in zip(enc.blocks, want_blocks):
        assert got.tobytes() == want.tobytes()
    untouched = np.setdiff1d(np.arange(feature_dim), cols)
    assert enc.w_in[untouched].tobytes() == before[untouched].tobytes()


@pytest.mark.parametrize("n_texts", [127, 128, 129, 300])
def test_encode_equals_the_training_product_over_each_group(n_texts):
    # encode makes one product per near-equal group of at most
    # ENCODE_GROUP_BYTES of feature rows, over the columns that group touches;
    # each group's outputs are bit-identical to the training path's product
    # over the same texts
    enc = ReferenceEncoder(dim=64, seed=7, layers=2, feature_dim=2048)
    rng = np.random.default_rng(n_texts)
    words = ["".join(rng.choice(list("abcdefghijklmnopqrstuvwxyz"), size=rng.integers(3, 9)))
             for _ in range(400)]
    texts = [" ".join(rng.choice(words, size=rng.integers(1, 8))) for _ in range(n_texts)]
    want = []
    for part in near_equal_slices(n_texts, ENCODE_GROUP_BYTES // (8 * enc.feature_dim)):
        phi, cols = enc._features(texts[part])
        state = phi @ enc.w_in[cols]
        for block in enc.blocks:
            state = state + np.tanh(state @ block)
        want.append(state)
    assert enc.encode(texts).tobytes() == np.concatenate(want).tobytes()


SYLLABLES = ["ka", "lo", "mi", "ne", "ru", "sa", "to", "vi", "ze", "pu", "da", "fe"]


def syllable_vocabulary(n, seed=0):
    """n distinct entity-like names of a few seeded syllables each."""
    rng = np.random.default_rng(seed)
    return ["".join(rng.choice(SYLLABLES, size=rng.integers(2, 6))) + " "
            + "".join(rng.choice(SYLLABLES, size=3)) + f" {i}" for i in range(n)]


def test_encode_equals_its_groups_encoded_one_by_one():
    # 1,100 texts are encoded as near-equal groups of at most
    # ENCODE_GROUP_BYTES of 2048-wide feature rows, each over its own touched
    # columns
    enc = ReferenceEncoder(dim=64, seed=7, layers=2, feature_dim=2048)
    texts = syllable_vocabulary(1_100)
    parts = near_equal_slices(len(texts), ENCODE_GROUP_BYTES // (8 * enc.feature_dim))
    assert len(parts) > 1
    grouped = np.concatenate([enc.encode(texts[part]) for part in parts])
    assert enc.encode(texts).tobytes() == grouped.tobytes()


@pytest.mark.parametrize("layers", [2, 12])
def test_encode_memory_beyond_its_result_is_bounded(layers):
    # one group's dense feature rows and its rows of w_in, about 1.6 MiB; none
    # of it grows with the batch
    enc = ReferenceEncoder(dim=64, seed=7, layers=layers, feature_dim=2048)
    for n in (2_000, 20_000):
        texts = syllable_vocabulary(n)
        tracemalloc.start()
        try:
            start, _ = tracemalloc.get_traced_memory()
            vectors = enc.encode(texts)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert vectors.shape == (n, 64)
        assert peak - start - vectors.nbytes <= ENCODE_GROUP_BYTES, n


def test_encode_blocks_keep_only_the_running_state():
    # each block adds its tanh into the one state in place, so what encode
    # holds as the blocks run does not grow with their number
    enc = ReferenceEncoder(dim=64, seed=7, layers=12, feature_dim=2048)
    held = []
    enc.blocks = RecordingBlocks(
        enc.blocks, lambda i: held.append(tracemalloc.get_traced_memory()[0]))
    tracemalloc.start()
    try:
        enc.encode(syllable_vocabulary(128))
    finally:
        tracemalloc.stop()
    assert len(held) == 12
    # from the second block on, the previous block's tanh is still held: one
    # (128, 64) array more than at the first block
    assert max(held) - held[0] < 2 * 128 * 64 * 8


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


def test_checkpoint_sidecar_records_array_digests(tmp_path):
    save_checkpoint(small_encoder(), tmp_path)
    sidecar = json.loads((tmp_path / "sidecar.json").read_text())
    assert sorted(sidecar["sha256"]) == ["block_00", "block_01", "block_02", "block_03", "w_in"]
    for name, digest in sidecar["sha256"].items():
        assert hashlib.sha256((tmp_path / f"{name}.npy").read_bytes()).hexdigest() == digest


def test_load_checkpoint_rejects_arrays_of_a_later_save(tmp_path):
    # a rerun into the same directory, cut off after its first array, leaves
    # a new w_in.npy beside the old blocks and the old sidecar
    save_checkpoint(small_encoder(), tmp_path / "old")
    enc = small_encoder()
    out = enc.forward_train(TEXTS)
    enc.backward_train(np.ones_like(out), 0.05)
    save_checkpoint(enc, tmp_path / "new")
    shutil.copy(tmp_path / "new" / "w_in.npy", tmp_path / "old" / "w_in.npy")
    with pytest.raises(ValidationError, match="w_in.npy does not match its sha256"):
        load_checkpoint(tmp_path / "old")


def test_checkpoint_io_holds_one_copy_of_the_weights(tmp_path):
    # a 32 MiB input projection: a save holds no buffer of its size, and a
    # load holds one copy of the weights, which the encoder it returns adopts
    enc = ReferenceEncoder(dim=64, seed=0, layers=2, feature_dim=65536)
    size = enc.w_in.nbytes
    tracemalloc.start()
    try:
        start, _ = tracemalloc.get_traced_memory()
        save_checkpoint(enc, tmp_path)
        _, save_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        start_load, _ = tracemalloc.get_traced_memory()
        back = load_checkpoint(tmp_path)
        _, load_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert save_peak - start < 0.125 * size
    assert load_peak - start_load < 1.25 * size
    np.testing.assert_array_equal(back.w_in, enc.w_in)


@pytest.mark.parametrize("layout", ["<f4", ">f8", "fortran"])
def test_load_checkpoint_casts_as_np_load_does(tmp_path, layout):
    # a valid array of another dtype, byte order or memory order loads the
    # values np.load reads, cast to float64, into C-ordered weights
    save_checkpoint(small_encoder(), tmp_path)
    sidecar = json.loads((tmp_path / "sidecar.json").read_text())
    for name in ("w_in", "block_02"):
        path = tmp_path / f"{name}.npy"
        arr = np.load(path)
        np.save(path, np.asfortranarray(arr) if layout == "fortran" else arr.astype(layout))
        sidecar["sha256"][name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (tmp_path / "sidecar.json").write_text(json.dumps(sidecar))
    back = load_checkpoint(tmp_path)
    for name, got in back.state_arrays().items():
        want = np.array(np.load(tmp_path / f"{name}.npy"), dtype=float)
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, want)


def test_load_checkpoint_adopts_its_arrays_and_draws_no_weights(tmp_path, monkeypatch):
    enc = small_encoder()
    out = enc.forward_train(TEXTS)
    enc.backward_train(np.ones_like(out), 0.05)
    save_checkpoint(enc, tmp_path)

    def no_draws(*args, **kwargs):
        raise AssertionError("load_checkpoint drew seeded weights")

    monkeypatch.setattr("probeforge.encoders.np.random.default_rng", no_draws)
    back = load_checkpoint(tmp_path)
    assert back.identity == enc.identity
    for name, got in back.state_arrays().items():
        assert got.dtype == np.float64 and got.flags.c_contiguous and got.flags.writeable
        np.testing.assert_array_equal(got, enc.state_arrays()[name])
    # the adopted weights train like drawn ones
    out = back.forward_train(TEXTS)
    back.backward_train(np.ones_like(out), 0.05)
    out = enc.forward_train(TEXTS)
    enc.backward_train(np.ones_like(out), 0.05)
    assert back.encode(TEXTS).tobytes() == enc.encode(TEXTS).tobytes()


@pytest.mark.parametrize("change, message", [
    ("missing", r"block_03: missing, the config needs shape \(16, 16\)"),
    ("wrong-shape", r"block_03: shape \(15, 16\), the config needs shape \(16, 16\)"),
    ("extra", r"block_04: shape \(16, 16\), the config needs no such array"),
], ids=["missing", "wrong-shape", "extra"])
def test_load_checkpoint_names_an_array_the_config_does_not_fit(tmp_path, change, message):
    # every file matches its digest, but the arrays do not fit the sidecar config
    save_checkpoint(small_encoder(), tmp_path)
    sidecar = json.loads((tmp_path / "sidecar.json").read_text())
    block = np.load(tmp_path / "block_03.npy")
    if change == "missing":
        (tmp_path / "block_03.npy").unlink()
        del sidecar["sha256"]["block_03"]
    else:
        name = "block_03" if change == "wrong-shape" else "block_04"
        np.save(tmp_path / f"{name}.npy", block[:-1] if change == "wrong-shape" else block)
        sidecar["sha256"][name] = hashlib.sha256(
            (tmp_path / f"{name}.npy").read_bytes()).hexdigest()
    (tmp_path / "sidecar.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValidationError, match=message):
        load_checkpoint(tmp_path)


def test_load_checkpoint_requires_array_digests(tmp_path):
    save_checkpoint(small_encoder(), tmp_path)
    sidecar = json.loads((tmp_path / "sidecar.json").read_text())
    del sidecar["sha256"]
    (tmp_path / "sidecar.json").write_text(json.dumps(sidecar))
    with pytest.raises(ValidationError, match="missing key 'sha256'"):
        load_checkpoint(tmp_path)


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


@pytest.mark.parametrize("mask_token", [5, None, "", "[A B]", " [MASK]"])
def test_mask_token_must_be_one_whitespace_free_string(mask_token):
    # a query token never equals any of these, so no mask would be scored
    with pytest.raises(ValidationError, match="mask_token"):
        TableMLM(["a"], default={"a": 1.0}, mask_token=mask_token)


def test_mask_token_must_not_be_in_the_vocab():
    # a fill could write it, and the filled slot would count as a mask again
    with pytest.raises(ValidationError, match="mask_token '\\[MASK\\]' must not be in the vocab"):
        TableMLM(["[MASK]", "a"], default={"a": 1.0})
    assert TableMLM(["[MASK]", "a"], default={"a": 1.0}, mask_token="<mask>").vocab[0] == "[MASK]"


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


def test_encoder_spec_rejects_a_repeated_key():
    # the last value does not silently win
    with pytest.raises(ConfigurationError,
                       match=r"^reference:dim=16, dim=64: key 'dim' given twice$"):
        encoder_from_spec("reference:dim=16, dim=64")


@pytest.mark.parametrize("spec", ["reference:dim=32,seed=7,", "reference:,dim=32, ,seed=7"])
def test_encoder_spec_skips_blank_items(spec):
    # as the CLI's comma lists do
    assert encoder_from_spec(spec).identity == encoder_from_spec(
        "reference:dim=32,seed=7").identity


def test_negative_seed_is_a_configuration_error():
    with pytest.raises(ConfigurationError, match="^seed must be >= 0$"):
        ReferenceEncoder(dim=8, seed=-3)


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
