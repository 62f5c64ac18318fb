"""Model handles: the abstract encoder surface plus deterministic test backends.

Everything downstream (rewiring, probing, evaluation) talks to these
interfaces only. Real pretrained-LM backends are adapters implementing the
same three surfaces:

  * EncoderHandle     dense text encoder with layer truncation, a two-phase
                      training hook (forward_train / backward_train, split at
                      the embedding so the trainer owns the loss) and the
                      named state_arrays that save_checkpoint writes
  * MLMHeadHandle     masked-token log-probabilities over a fixed vocabulary
  * GeneratorHandle   free-form candidate generation with scores

The bundled backends are closed-form and seeded, so the whole pipeline runs
deterministically with no model downloads.
"""

from __future__ import annotations

import hashlib
import io
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np
from numpy.lib import format as npy_format

from .errors import ConfigurationError, InputError, NumericalError, ValidationError
from .text import read_json, sha256_file, write_json

SIDECAR_NAME = "sidecar.json"
# most bytes of feature_dim-wide float64 rows in one ReferenceEncoder.encode
# group, which builds its dense feature rows in one product
ENCODE_GROUP_BYTES = 2 * 2**20


def _crc32_table() -> np.ndarray:
    """zlib's CRC-32 byte table: entry b is the register after one round
    of the reflected polynomial 0xEDB88320 on b."""
    table = np.arange(256, dtype=np.uint32)
    for _ in range(8):
        table = np.where(table & 1, (table >> 1) ^ np.uint32(0xEDB88320), table >> 1)
    return table


_CRC32_TABLE = _crc32_table()
# the UTF-8 lead-byte marker of a code point with 0..3 continuation bytes
_UTF8_LEAD = np.array([0, 0xC0, 0xE0, 0xF0], dtype=np.uint32)


def _window_crc32(points: np.ndarray) -> np.ndarray:
    """zlib.crc32 of the UTF-8 bytes of each 3-code-point window of points,
    uint32 Unicode scalar values: entry i for points[i:i + 3].

    Each code point's UTF-8 bytes are derived once. Every window takes one
    table round per lead byte; a continuation-byte round runs, masked to the
    code points that have that byte, only when some code point has one.
    Every array is uint8 or uint32, so the arithmetic wraps the same under
    every numpy type-promotion rule.
    """
    n = len(points) - 2
    extra = (points >= 0x80).astype(np.uint8)
    extra += points >= 0x800
    extra += points >= 0x10000
    lead = ((points >> 6 * extra) | _UTF8_LEAD.take(extra)).astype(np.uint8)
    # the continuation bytes, first first, each with the code points that have it
    continued = [(((points >> 6 * d) & 0x3F | 0x80).astype(np.uint8), extra > d)
                 for d in reversed(range(int(extra.max(initial=0))))]
    crc = np.full(max(n, 0), 0xFFFFFFFF, dtype=np.uint32)
    for j in range(3):
        # astype(uint8) keeps the register's low byte
        index = crc.astype(np.uint8)
        index ^= lead[j:j + n]
        crc >>= 8
        crc ^= _CRC32_TABLE.take(index)
        for byte, has in continued:
            index = crc.astype(np.uint8)
            index ^= byte[j:j + n]
            step = _CRC32_TABLE.take(index)
            step ^= crc >> 8
            np.copyto(crc, step, where=has[j:j + n])
    return ~crc


class EncoderHandle(ABC):
    """Trainable text encoder: list[str] -> (n, embedding_dim) matrix.

    step counts the SGD steps taken; rewire_train continues from it."""

    identity: str
    backend: str
    step: int
    embedding_dim: int
    max_layers: int

    def resolve_layer_limit(self, layer_limit: int | None) -> int:
        if layer_limit is None:
            return self.max_layers
        limit = int(layer_limit)
        if not 1 <= limit <= self.max_layers:
            raise ConfigurationError(
                f"layer_limit {limit} outside [1, {self.max_layers}] for {self.identity}"
            )
        return limit

    @abstractmethod
    def encode(self, texts: list[str], layer_limit: int | None = None) -> np.ndarray:
        """Embed texts using only the first layer_limit layers.

        Weights and the training cache are left alone, and nothing is kept
        per text. Beyond a list of the texts and the (len(texts),
        embedding_dim) result, a new array the caller may write, working
        memory does not grow with the number of texts.
        """

    @abstractmethod
    def forward_train(self, texts: list[str], layer_limit: int | None = None) -> np.ndarray:
        """Like encode, but caches activations for one backward_train call."""

    @abstractmethod
    def backward_train(self, grad_outputs: np.ndarray, learning_rate: float) -> None:
        """Apply one SGD step given the loss gradient at the cached outputs."""

    @abstractmethod
    def state_arrays(self) -> dict[str, np.ndarray]:
        """Named parameter arrays, for checkpointing."""

    def sidecar_config(self) -> dict:
        """Backend-specific constructor arguments stored in the checkpoint."""
        return {}


def _validate_texts(texts) -> list[str]:
    texts = list(texts)
    for t in texts:
        if not isinstance(t, str) or not t.strip():
            raise ValidationError("encoder inputs must be non-empty strings")
    return texts


def unit_rows(matrix: np.ndarray, what: str, out=None) -> tuple[np.ndarray, np.ndarray]:
    """The rows of matrix scaled to unit L2 norm, written to out when given
    (out may be matrix), and their norms. A zero or non-finite norm raises
    NumericalError naming what."""
    # the sum np.linalg.norm(matrix, axis=1) takes, less its copy of matrix
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1))
    if not (np.isfinite(norms).all() and (norms > 0).all()):
        raise NumericalError(f"{what} contains a zero or non-finite row norm")
    return np.divide(matrix, norms[:, None], out=out), norms


def _reserved(array: np.ndarray, used: int, size: int, dtype=None) -> np.ndarray:
    """array, if it has room for size entries of dtype (default: its own);
    else a zeroed array of dtype, grown geometrically, holding its first used
    entries. The slack is never written, so its pages never become resident."""
    dtype = array.dtype if dtype is None else np.dtype(dtype)
    if size <= len(array) and dtype == array.dtype:
        return array
    grown = np.zeros(len(array) if size <= len(array) else max(size, 2 * len(array)),
                     dtype=dtype)
    grown[:used] = array[:used]
    return grown


def near_equal_slices(n_rows: int, most: int) -> list[slice]:
    """Near-equal ranges covering n_rows rows, each of at most most rows.

    Near-equal rather than full ranges plus a remainder, so that no range is
    a sliver of a few rows: BLAS may round a product of very few rows
    differently from a tall one.
    """
    count = -(-n_rows // most)
    bounds = [n_rows * i // count for i in range(count + 1)] if count else []
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


class _Runs(NamedTuple):
    """Texts' trigram runs in CSR form: row r's trigram buckets and counts
    fill [indptr[r], indptr[r + 1]), in ascending bucket order, and its norm
    is norms[r]. The arrays may extend past the last row."""

    indptr: np.ndarray
    buckets: np.ndarray
    counts: np.ndarray
    norms: np.ndarray


class _TrainCache(NamedTuple):
    """What forward_train keeps for the one backward_train that follows."""

    phi: np.ndarray           # (n, len(cols)) feature values on the touched buckets
    cols: np.ndarray          # the touched buckets, ascending
    w_cols: np.ndarray        # w_in[cols] as the forward pass read it
    states: list[np.ndarray]  # the input to each block, then the output
    tanhs: list[np.ndarray]   # each block's tanh activation
    limit: int                # the number of blocks run


class ReferenceEncoder(EncoderHandle):
    """Deterministic trainable encoder over hashed character trigrams.

    A text becomes an L2-normalized count vector of hashed lowercase
    trigrams (with boundary sentinels, so one-character strings still
    produce features). A trigram's bucket is crc32 of its UTF-8 bytes
    modulo feature_dim, computed for every trigram of a call in one
    vectorized pass (_window_crc32), so hashing keeps no state. That vector
    passes through a seeded linear map and then through max_layers residual
    tanh blocks; truncating to the first L blocks is exact layer chopping,
    the parameters of deeper blocks are never touched.

    Training keeps one append-only feature store, in CSR form, of every
    distinct text forward_train has seen: a text -> row id dict, int64 row
    offsets, and per trigram its bucket in the narrowest unsigned dtype that
    holds feature_dim - 1 and its count as uint8 (widened to uint16, then
    uint32, once a text repeats a trigram more than 255, then 65,535 times),
    plus one float64 norm per text. That is 3 bytes per stored trigram for
    feature_dim <= 65,536 while no count passes 255; the normalized values
    are rebuilt per batch. encode neither reads nor writes the store: it
    featurizes each group's distinct texts into runs of the same layout that
    live for the group alone, so inference over a large vocabulary keeps
    nothing per text. Both paths build feature rows from their runs with
    _dense, so a text's rows are bit-identical either way.

    The identity string embeds the constructor arguments and the number of
    SGD steps taken, so two handles compare equal exactly when their
    weights were produced by the same seeded history.
    """

    backend = "reference"

    def __init__(self, dim: int = 128, seed: int = 0, layers: int = 2,
                 feature_dim: int = 1024):
        layers = self._configure(dim, seed, layers, feature_dim)
        rng = np.random.default_rng(self.seed)
        # feature rows are unit-norm, so 1/sqrt(dim) scaling puts the input
        # projection at roughly unit norm, keeping cosine gradients tame
        self.w_in = rng.standard_normal((self.feature_dim, self.dim)) / np.sqrt(self.dim)
        self.blocks = [
            rng.standard_normal((self.dim, self.dim)) / np.sqrt(self.dim)
            for _ in range(layers)
        ]

    def _configure(self, dim: int, seed: int, layers: int, feature_dim: int) -> int:
        """Check and set every constructor argument but the weights; returns layers."""
        if dim < 2:
            raise ConfigurationError("dim must be >= 2")
        if layers < 1:
            raise ConfigurationError("layers must be >= 1")
        if feature_dim < dim:
            raise ConfigurationError("feature_dim must be >= dim")
        if seed < 0:
            raise ConfigurationError("seed must be >= 0")
        self.dim = int(dim)
        self.seed = int(seed)
        self.feature_dim = int(feature_dim)
        self.step = 0
        # the feature store: text -> row id; row r's trigram buckets and
        # counts fill [indptr[r], indptr[r + 1]) and its norm is norms[r]
        self._row_of: dict[str, int] = {}
        self._indptr = np.zeros(1, dtype=np.int64)
        self._buckets = np.zeros(0, dtype=np.min_scalar_type(self.feature_dim - 1))
        self._counts = np.zeros(0, dtype=np.uint8)
        self._norms = np.zeros(0)
        self._train_cache = None
        return int(layers)

    @classmethod
    def _adopting(cls, config: dict, arrays: dict[str, np.ndarray]) -> "ReferenceEncoder":
        """The step-0 encoder of config, its constructor arguments, adopting arrays,
        named as state_arrays names them, as weights (cast once if not aligned,
        writable, C-ordered float64). A misnamed or misshapen array raises ValidationError."""
        encoder = cls.__new__(cls)
        layers = encoder._configure(**config)
        shapes = {"w_in": (encoder.feature_dim, encoder.dim)}
        shapes.update((f"block_{i:02d}", (encoder.dim, encoder.dim)) for i in range(layers))
        for name in sorted(shapes.keys() | arrays.keys()):
            got = f"shape {arrays[name].shape}" if name in arrays else "missing"
            want = f"shape {shapes[name]}" if name in shapes else "no such array"
            if got != want:
                raise ValidationError(f"checkpoint array {name}: {got}, the config needs {want}")
        encoder.w_in, *encoder.blocks = [np.require(arrays[n], float, "CAW") for n in shapes]
        return encoder

    @property
    def identity(self) -> str:
        return (f"reference(dim={self.dim},seed={self.seed},"
                f"layers={len(self.blocks)},feature_dim={self.feature_dim})@step{self.step}")

    @property
    def embedding_dim(self) -> int:
        return self.dim

    @property
    def max_layers(self) -> int:
        return len(self.blocks)

    def _dense(self, runs: _Runs, row_of: dict[str, int],
               texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols): unit-norm trigram counts of texts, text t's read from
        row row_of[t] of runs, on the buckets the texts touch.

        cols is the ascending array of touched buckets and rows the
        (len(texts), len(cols)) matrix of their values, so rows scattered back
        at cols is the dense (len(texts), feature_dim) batch. Each value is
        its count over its text's norm; counts are small integers, so the sum
        of squares is exact in any order and every value is bit-identical to
        normalizing the dense count row.
        """
        ids = np.fromiter(map(row_of.__getitem__, texts), dtype=np.intp, count=len(texts))
        starts = runs.indptr[ids]
        lengths = runs.indptr[ids + 1] - starts
        # run position of each of the batch's trigrams: its run's start plus
        # its offset in the run
        at = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                  lengths)
        # as intp, so that each indexing below uses them without a cast
        buckets = runs.buckets[at].astype(np.intp)
        touched = np.zeros(self.feature_dim, dtype=bool)
        touched[buckets] = True
        cols = np.flatnonzero(touched)
        # touched bucket -> its column in rows
        remap = np.empty(self.feature_dim, dtype=np.intp)
        remap[cols] = np.arange(len(cols))
        rows = np.zeros((len(texts), len(cols)))
        # each trigram's flat position in rows: its text's row start plus its column
        flat = np.repeat(np.arange(len(texts)) * len(cols), lengths)
        flat += remap[buckets]
        rows.ravel()[flat] = runs.counts[at] / np.repeat(runs.norms[ids], lengths)
        return rows, cols

    def _features(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """_dense's (rows, cols) of texts read from the feature store, to
        which texts not yet in it are added first."""
        row_of = self._row_of
        if not all(map(row_of.__contains__, texts)):
            new = [t for t in dict.fromkeys(texts) if t not in row_of]
            self._append(new, self._featurize(new))
        store = _Runs(self._indptr, self._buckets, self._counts, self._norms)
        return self._dense(store, row_of, texts)

    def _featurize(self, texts: list[str]) -> _Runs:
        """The trigram runs of texts, row i for texts[i]. A trigram's bucket
        is the crc32 of its UTF-8 bytes modulo feature_dim, hashed afresh on
        every call, so the encoder is left unchanged."""
        fd = self.feature_dim
        padded = ["\x02" + text.lower() + "\x03" for text in texts]
        # int64 even for no texts, for which np.cumsum would give float64
        ends = np.cumsum([len(p) for p in padded], dtype=np.int64)
        try:
            points = np.frombuffer("".join(padded).encode("utf-32-le"), dtype="<u4")
        except UnicodeEncodeError as exc:
            bad = texts[int(np.searchsorted(ends, exc.start, side="right"))]
            raise ValidationError(
                f"encoder input {bad!r} is not valid Unicode: {exc.reason}") from exc
        # one key per trigram, row * feature_dim + bucket, uint32 while every
        # key fits; the two windows at the end of each text reach into the
        # next and go
        key_type = np.uint32 if len(texts) * fd <= 2**32 else np.int64
        row_keys = np.arange(len(texts), dtype=key_type) * fd
        keys = np.repeat(row_keys, np.diff(ends, prepend=0) - 2)
        keys += np.delete(_window_crc32(points) % fd,
                          np.concatenate([ends[:-1] - 2, ends[:-1] - 1]))
        # sorted, each distinct key is one run: its start, length and bucket
        keys.sort()
        first = np.empty(len(keys), dtype=bool)
        first[:1] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        counts = np.diff(starts, append=len(keys))
        keys = keys[starts]
        # every text yields at least one trigram, so each row owns a run of keys
        indptr = np.append(np.searchsorted(keys, row_keys), len(keys))
        buckets = keys % fd
        floats = counts.astype(float)
        norms = np.sqrt(np.add.reduceat(floats * floats, indptr[:-1]))
        return _Runs(indptr, buckets, counts, norms)

    def _append(self, texts: list[str], runs: _Runs) -> None:
        """Append runs, the trigram runs of texts, none of them stored yet,
        to the feature store."""
        n = len(self._row_of)
        m = int(self._indptr[n])
        n_new, m_new = n + len(texts), m + int(runs.indptr[-1])
        self._indptr = _reserved(self._indptr, n + 1, n_new + 1)
        self._indptr[n + 1:n_new + 1] = m + runs.indptr[1:]
        self._norms = _reserved(self._norms, n, n_new)
        self._norms[n:n_new] = runs.norms
        self._buckets = _reserved(self._buckets, m, m_new)
        self._buckets[m:m_new] = runs.buckets
        # counts widen once a text repeats a trigram more often than they hold
        self._counts = _reserved(self._counts, m, m_new, np.promote_types(
            self._counts.dtype, np.min_scalar_type(runs.counts.max())))
        self._counts[m:m_new] = runs.counts
        # the rows count as stored only now, so a failed append stores nothing
        self._row_of.update(zip(texts, range(n, n_new)))

    def _layers(self, state: np.ndarray, limit: int):
        """The input to each of the first limit blocks, then the output, and
        each block's tanh activation: what backward_train reads."""
        states, tanhs = [state], []
        for i in range(limit):
            t = states[-1] @ self.blocks[i]
            np.tanh(t, out=t)
            tanhs.append(t)
            states.append(states[-1] + t)
        return states, tanhs

    def encode(self, texts, layer_limit=None):
        """See EncoderHandle.encode. Near-equal groups of at most
        ENCODE_GROUP_BYTES of feature_dim-wide rows fill the result in turn."""
        limit = self.resolve_layer_limit(layer_limit)
        texts = _validate_texts(texts)
        vectors = np.empty((len(texts), self.dim))
        group = max(1, ENCODE_GROUP_BYTES // (8 * self.feature_dim))
        for part in near_equal_slices(len(texts), group):
            vectors[part] = self._encode_group(texts[part], limit)
        return vectors

    def _encode_group(self, texts: list[str], limit: int) -> np.ndarray:
        """encode for one group: one product of its dense feature rows with
        the rows of w_in they touch. The runs and the feature rows are freed
        before the blocks run, and each block updates the one running state
        in place, as _layers computes it but keeping no earlier state."""
        row_of = {text: i for i, text in enumerate(dict.fromkeys(texts))}
        rows, cols = self._dense(self._featurize(list(row_of)), row_of, texts)
        state = rows @ self.w_in[cols]
        del rows
        for i in range(limit):
            t = state @ self.blocks[i]
            np.tanh(t, out=t)
            state += t
        return state

    def forward_train(self, texts, layer_limit=None):
        limit = self.resolve_layer_limit(layer_limit)
        # buckets no text touches add nothing to the projection, so only the
        # touched rows of w_in take part
        phi, cols = self._features(_validate_texts(texts))
        w_cols = self.w_in[cols]
        states, tanhs = self._layers(phi @ w_cols, limit)
        self._train_cache = _TrainCache(phi, cols, w_cols, states, tanhs, limit)
        return states[-1]

    def backward_train(self, grad_outputs, learning_rate):
        if self._train_cache is None:
            raise ValidationError("backward_train requires a preceding forward_train")
        phi, cols, w_cols, states, tanhs, limit = self._train_cache
        self._train_cache = None
        g = np.asarray(grad_outputs, dtype=float)
        if g.shape != states[-1].shape:
            raise ValidationError(
                f"gradient shape {g.shape} does not match forward output {states[-1].shape}"
            )
        block_grads = {}
        for i in reversed(range(limit)):
            dt = np.square(tanhs[i])
            np.subtract(1.0, dt, out=dt)
            dt *= g
            block_grads[i] = states[i].T @ dt
            # a new array, so the caller's gradient is never written
            carried = dt @ self.blocks[i].T
            carried += g
            g = carried
        # the dense gradient of an untouched bucket is a row of zeros, so the
        # touched rows alone carry the whole update
        step = phi.T @ g
        step *= learning_rate
        w_cols -= step
        self.w_in[cols] = w_cols
        for i, grad in block_grads.items():
            grad *= learning_rate
            self.blocks[i] -= grad
        self.step += 1

    def state_arrays(self):
        arrays = {"w_in": self.w_in}
        for i, block in enumerate(self.blocks):
            arrays[f"block_{i:02d}"] = block
        return arrays

    def sidecar_config(self):
        return {"dim": self.dim, "seed": self.seed,
                "layers": len(self.blocks), "feature_dim": self.feature_dim}


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(encoder: EncoderHandle, ckpt_dir) -> Path:
    """Write one weights-plus-sidecar checkpoint directory.

    Arrays go to individual .npy files (no archive timestamps, so identical
    weights produce identical bytes). np.save writes each array straight into
    its open file, which copies nothing for a contiguous array, and its sha256
    is read back from the file one block at a time, so a save holds no buffer
    of an array's size. The sidecar, written last, records identity,
    embedding_dim, max_layers, step, the sha256 of each .npy file, plus
    whatever the backend needs to rebuild itself.
    """
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, arr in encoder.state_arrays().items():
        path = ckpt_dir / f"{name}.npy"
        with open(path, "wb") as fh:
            np.save(fh, arr)
        digests[name] = sha256_file(path)
    sidecar = {
        "identity": encoder.identity,
        "embedding_dim": encoder.embedding_dim,
        "max_layers": encoder.max_layers,
        "step": encoder.step,
        "backend": encoder.backend,
        "config": encoder.sidecar_config(),
        "sha256": digests,
    }
    write_json(ckpt_dir / SIDECAR_NAME, sidecar)
    return ckpt_dir


def _npy_view(buf: np.ndarray) -> np.ndarray:
    """A view, writable when buf is, of the array that buf, an .npy file's
    uint8 bytes, holds; it copies nothing. The header is parsed from the first
    10,012 bytes, which hold any header numpy.lib.format accepts. Bad magic, a
    version other than 1.0 or 2.0, a malformed header, a dtype not boolean,
    integer or floating, or a payload the shape does not fit raises ValueError."""
    fh = io.BytesIO(buf[:10_012].tobytes())
    version = npy_format.read_magic(fh)
    if version == (1, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_1_0(fh)
    elif version == (2, 0):
        shape, fortran_order, dtype = npy_format.read_array_header_2_0(fh)
    else:
        raise ValueError(f"unsupported .npy format version {version}")
    if dtype.kind not in "biuf":
        raise ValueError(f"dtype {dtype} is not boolean, integer or floating")
    # view and reshape raise ValueError unless the payload fits the shape exactly
    flat = buf[fh.tell():].view(dtype)
    return flat.reshape(shape[::-1]).T if fortran_order else flat.reshape(shape)


def load_checkpoint(ckpt_dir) -> EncoderHandle:
    """Rebuild an encoder from a checkpoint directory.

    Each .npy file is read once into a writable buffer; only bytes that match
    the sidecar's sha256 are parsed, as views that the one encoder built
    adopts as its weights. A load holds one copy of them and draws none.

    A sidecar that is unreadable or not UTF-8, or a weights file that cannot
    be read or parsed, raises InputError. A sidecar that is not a JSON object,
    misses a key or holds a bad config raises ValidationError, as does a
    weights file whose sha256 differs from the one the sidecar records (a
    truncated or corrupt file, or the array of a later save that was cut off
    before its sidecar) and an array the config does not fit.
    """
    ckpt_dir = Path(ckpt_dir)
    sidecar_path = ckpt_dir / SIDECAR_NAME
    if not sidecar_path.is_file():
        raise ConfigurationError(f"{ckpt_dir} is not a checkpoint directory (no {SIDECAR_NAME})")
    sidecar = read_json(sidecar_path, "checkpoint sidecar")
    backend = sidecar.get("backend")
    if backend != ReferenceEncoder.backend:
        raise ConfigurationError(f"unknown encoder backend {backend!r} in {ckpt_dir}")
    try:
        config, identity = sidecar["config"], sidecar["identity"]
        step, digests = int(sidecar["step"]), dict(sidecar["sha256"])
    except KeyError as exc:
        raise ValidationError(f"{sidecar_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{sidecar_path}: bad step or sha256: {exc}") from exc
    arrays = {}
    for path in sorted(ckpt_dir.glob("*.npy")):
        try:
            buf = np.fromfile(path, dtype=np.uint8)
        except OSError as exc:
            raise InputError(f"cannot load checkpoint array {path}: {exc}") from exc
        if hashlib.sha256(buf).hexdigest() != digests.get(path.stem):
            raise ValidationError(
                f"checkpoint array {path} does not match its sha256 in {sidecar_path}"
            )
        try:
            arrays[path.stem] = _npy_view(buf)
        except ValueError as exc:
            raise InputError(f"cannot load checkpoint array {path}: {exc}") from exc
    try:
        encoder = ReferenceEncoder._adopting(config, arrays)
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{sidecar_path}: bad config: {exc}") from exc
    encoder.step = step
    if encoder.identity != identity:
        raise ValidationError(
            f"rebuilt identity {encoder.identity!r} does not match sidecar {identity!r}"
        )
    return encoder


@contextmanager
def _table_fields(path, what: str, keys: set[str]) -> Iterator[dict]:
    """The JSON object of a table-model file, for a block that reads its fields.
    A file that is unreadable or not UTF-8 raises InputError; text that is
    not a JSON object, a top-level key outside keys, a field the block finds
    missing or mistyped, or a value the model rejects raises ValidationError
    naming the file."""
    data = read_json(path, what)
    unknown = set(data) - keys
    if unknown:
        raise ValidationError(f"{path}: unknown {what} keys {sorted(unknown)}")
    try:
        yield data
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError, ValidationError) as exc:
        raise ValidationError(f"{path}: malformed {what}: {exc}") from exc


# ---------------------------------------------------------------------------
# masked-LM head

class MLMHeadHandle(ABC):
    """Masked-token scorer over a fixed, ordered vocabulary."""

    identity: str
    vocab: list[str]
    mask_token: str

    @abstractmethod
    def mask_logprobs(self, query: str) -> np.ndarray:
        """One row of vocabulary log-probabilities per mask, left to right.

        Partially filled queries are valid input; remaining masks are
        re-scored conditioned on the filled tokens.
        """

    @abstractmethod
    def tokenize(self, text: str) -> list[str]:
        """Split text the way this head's vocabulary expects."""


class TableMLM(MLMHeadHandle):
    """Rule-table MLM head for tests and fixtures.

    Each mask position is scored by the first matching rule; a rule may
    require a token position ("position", absolute index in the whitespace
    token list) and/or a specific left neighbor ("left", compared after
    lowercasing). No match falls back to the default distribution. Because
    rules can key on the left neighbor, a filled token changes what the
    next mask sees, which is enough to emulate conditional refinement.
    """

    def __init__(self, vocab, default, rules=(), mask_token="[MASK]",
                 identity="table-mlm"):
        self.vocab = list(vocab)
        if len(set(self.vocab)) != len(self.vocab):
            raise ValidationError("vocab entries must be unique")
        # queries are matched token by token, so no other mask could match
        if not isinstance(mask_token, str) or mask_token.split() != [mask_token]:
            raise ValidationError(f"mask_token {mask_token!r} must be one whitespace-free "
                                  "string")
        # a fill that wrote the mask token would count as a mask again, and the
        # rows of mask_logprobs would no longer match the slots
        if mask_token in self.vocab:
            raise ValidationError(f"mask_token {mask_token!r} must not be in the vocab")
        self.mask_token = mask_token
        self.identity = identity
        self._index = {tok: i for i, tok in enumerate(self.vocab)}
        self._default = self._check_probs(default, "default")
        self._rules = []
        for i, rule in enumerate(rules):
            # a misspelt key would leave a rule that matches every mask
            unknown = set(rule) - {"probs", "position", "left"}
            if unknown:
                raise ValidationError(f"rule {i}: unknown keys {sorted(unknown)}")
            probs = self._check_probs(rule["probs"], f"rule {i}")
            clean = {"probs": probs}
            if "position" in rule:
                clean["position"] = int(rule["position"])
            if "left" in rule:
                clean["left"] = str(rule["left"])
            self._rules.append(clean)

    def _check_probs(self, probs: dict, where: str) -> dict:
        unknown = set(probs) - set(self._index)
        if unknown:
            raise ValidationError(f"{where}: tokens not in vocab: {sorted(unknown)}")
        # a JSON true/false, a string or NaN is no probability
        if not all(type(p) in (float, int) and p == p for p in probs.values()):
            raise ValidationError(f"{where}: probabilities must be numbers")
        total = sum(probs.values())
        if abs(total - 1.0) > 1e-4:
            raise ValidationError(f"{where}: probabilities sum to {total}, expected 1")
        if any(p < 0 for p in probs.values()):
            raise ValidationError(f"{where}: negative probability")
        return dict(probs)

    def tokenize(self, text):
        return text.lower().split()

    def _probs_for(self, tokens: list[str], pos: int) -> dict:
        for rule in self._rules:
            if "position" in rule and rule["position"] != pos:
                continue
            if "left" in rule:
                if pos == 0 or tokens[pos - 1] == self.mask_token:
                    continue
                if tokens[pos - 1].lower() != rule["left"]:
                    continue
            return rule["probs"]
        return self._default

    def mask_logprobs(self, query):
        tokens = query.split()
        positions = [i for i, t in enumerate(tokens) if t == self.mask_token]
        if not positions:
            raise ValidationError(f"query contains no {self.mask_token} token")
        rows = np.zeros((len(positions), len(self.vocab)))
        for r, pos in enumerate(positions):
            probs = self._probs_for(tokens, pos)
            vec = np.zeros(len(self.vocab))
            for tok, p in probs.items():
                vec[self._index[tok]] = p
            with np.errstate(divide="ignore"):
                rows[r] = np.log(vec)
        return rows

    def to_json(self) -> dict:
        rules = []
        for rule in self._rules:
            out = {k: v for k, v in rule.items() if k != "probs"}
            out["probs"] = rule["probs"]
            rules.append(out)
        return {"vocab": self.vocab, "mask_token": self.mask_token,
                "default": self._default, "rules": rules}

    @classmethod
    def from_json(cls, path) -> "TableMLM":
        with _table_fields(path, "MLM table",
                           {"vocab", "default", "rules", "mask_token"}) as data:
            return cls(vocab=data["vocab"], default=data["default"],
                       rules=data.get("rules", ()),
                       mask_token=data.get("mask_token", "[MASK]"),
                       identity=f"table-mlm:{Path(path).name}")


# ---------------------------------------------------------------------------
# generator

class GeneratorHandle(ABC):
    """Free-form candidate generator; candidates come back ranked by score."""

    identity: str

    @abstractmethod
    def generate(self, query: str) -> list[tuple[str, float]]: ...


class TableGenerator(GeneratorHandle):
    """Lookup generator: per-query candidate lists with a shared fallback."""

    def __init__(self, default, by_query=None, identity="table-generator"):
        # a JSON true/false, a string or NaN is no score
        if not all(type(v) in (float, int) and v == v
                   for items in [default, *(by_query or {}).values()] for _, v in items):
            raise ValidationError("generator scores must be numbers")
        self.default = [(str(s), float(v)) for s, v in default]
        self.by_query = {q: [(str(s), float(v)) for s, v in items]
                         for q, items in (by_query or {}).items()}
        self.identity = identity
        for items in [self.default, *self.by_query.values()]:
            if not items:
                raise ValidationError("generator candidate lists must be non-empty")
            scores = [v for _, v in items]
            if scores != sorted(scores, reverse=True):
                raise ValidationError("generator candidates must be ranked by descending score")

    def generate(self, query):
        return list(self.by_query.get(query, self.default))

    @classmethod
    def from_json(cls, path) -> "TableGenerator":
        with _table_fields(path, "generator table", {"default", "by_query"}) as data:
            return cls(default=data["default"], by_query=data.get("by_query"),
                       identity=f"table-generator:{Path(path).name}")


# ---------------------------------------------------------------------------
# model spec strings (CLI surface)

def _parse_kv(body: str, where: str) -> dict[str, int]:
    """key=value integers; blank items are skipped, a repeated key raises."""
    out = {}
    for part in filter(str.strip, body.split(",")):
        if "=" not in part:
            raise ConfigurationError(f"{where}: expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        if key.strip() in out:
            raise ConfigurationError(f"{where}: key {key.strip()!r} given twice")
        try:
            out[key.strip()] = int(value)
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {key!r} must be an integer") from exc
    return out


def _spec_body(spec: str, what: str, expected: str) -> str:
    """The body of a "kind:body" model spec whose form expected gives, such
    as "table-mlm:PATH"; a PATH body must not be empty."""
    kind, form = expected.split(":")
    got, _, body = spec.partition(":")
    if got != kind or (form == "PATH" and not body):
        raise ConfigurationError(f"unknown {what} spec {spec!r} (expected {expected})")
    return body


def encoder_from_spec(spec: str) -> EncoderHandle:
    """Build an encoder from a spec string such as "reference:dim=128,seed=7"."""
    kwargs = _parse_kv(_spec_body(spec, "encoder", "reference:..."), spec)
    allowed = {"dim", "seed", "layers", "feature_dim"}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ConfigurationError(f"{spec!r}: unknown keys {sorted(unknown)}")
    return ReferenceEncoder(**kwargs)


def mlm_from_spec(spec: str) -> MLMHeadHandle:
    return TableMLM.from_json(_spec_body(spec, "MLM", "table-mlm:PATH"))


def generator_from_spec(spec: str) -> GeneratorHandle:
    return TableGenerator.from_json(_spec_body(spec, "generator", "table-generator:PATH"))
