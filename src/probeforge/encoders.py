"""Model handles: the abstract encoder surface plus deterministic test backends.

Everything downstream (rewiring, probing, evaluation) talks to these
interfaces only. Real pretrained-LM backends are adapters implementing the
same three surfaces:

  * EncoderHandle     dense text encoder with layer truncation and a
                      two-phase training hook (forward_train / backward_train,
                      split at the embedding so the trainer owns the loss)
  * MLMHeadHandle     masked-token log-probabilities over a fixed vocabulary
  * GeneratorHandle   free-form candidate generation with scores

The bundled backends are closed-form and seeded, so the whole pipeline runs
deterministically with no model downloads.
"""

from __future__ import annotations

import hashlib
import io
import zlib
from abc import ABC, abstractmethod
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ConfigurationError, InputError, NumericalError, ValidationError
from .text import read_json, write_json

SIDECAR_NAME = "sidecar.json"


class EncoderHandle(ABC):
    """Trainable text encoder: list[str] -> (n, embedding_dim) matrix."""

    identity: str
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

        Weights and the training cache are left alone; a backend may fill
        internal caches keyed by text (ReferenceEncoder caches features).
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

    @abstractmethod
    def load_state_arrays(self, arrays: dict[str, np.ndarray]) -> None: ...

    def sidecar_config(self) -> dict:
        """Backend-specific constructor arguments stored in the checkpoint."""
        return {}


def _validate_texts(texts) -> list[str]:
    texts = list(texts)
    for t in texts:
        if not isinstance(t, str) or not t.strip():
            raise ValidationError("encoder inputs must be non-empty strings")
    return texts


def unit_rows(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    """The rows of matrix scaled to unit L2 norm, and their norms. A zero or
    non-finite norm raises NumericalError naming what."""
    # the sum np.linalg.norm(matrix, axis=1) takes, less its copy of matrix
    norms = np.sqrt(np.add.reduce(matrix * matrix, axis=1))
    if not (np.isfinite(norms).all() and (norms > 0).all()):
        raise NumericalError(f"{what} contains a zero or non-finite row norm")
    return matrix / norms[:, None], norms


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
    modulo feature_dim; the encoder keeps a table of the buckets of the
    trigrams it has seen, so each distinct trigram is hashed once per
    encoder. That vector passes through a seeded linear map and
    then through max_layers residual tanh blocks; truncating to the first L
    blocks is exact layer chopping, the parameters of deeper blocks are
    never touched.

    Each encoder keeps one append-only feature store, in CSR form, of every
    distinct text it has featurized: a text -> row id dict, int64 row
    offsets, and per trigram its bucket in the narrowest unsigned dtype that
    holds feature_dim - 1 and its count as uint8 (widened to uint16, then
    uint32, once a text repeats a trigram more than 255, then 65,535 times),
    plus one float64 norm per text. That is 3 bytes per stored trigram for
    feature_dim <= 65,536 while no count passes 255; the normalized values
    are rebuilt per batch.

    The identity string embeds the constructor arguments and the number of
    SGD steps taken, so two handles compare equal exactly when their
    weights were produced by the same seeded history.
    """

    backend = "reference"

    def __init__(self, dim: int = 128, seed: int = 0, layers: int = 2,
                 feature_dim: int = 1024):
        if dim < 2:
            raise ConfigurationError("dim must be >= 2")
        if layers < 1:
            raise ConfigurationError("layers must be >= 1")
        if feature_dim < dim:
            raise ConfigurationError("feature_dim must be >= dim")
        self.dim = int(dim)
        self.seed = int(seed)
        self.feature_dim = int(feature_dim)
        rng = np.random.default_rng(self.seed)
        # feature rows are unit-norm, so 1/sqrt(dim) scaling puts the input
        # projection at roughly unit norm, keeping cosine gradients tame
        self.w_in = rng.standard_normal((self.feature_dim, self.dim)) / np.sqrt(self.dim)
        self.blocks = [
            rng.standard_normal((self.dim, self.dim)) / np.sqrt(self.dim)
            for _ in range(int(layers))
        ]
        self.step = 0
        # the feature store: text -> row id; row r's trigram buckets and
        # counts fill [indptr[r], indptr[r + 1]) and its norm is norms[r]
        self._row_of: dict[str, int] = {}
        self._indptr = np.zeros(1, dtype=np.int64)
        self._buckets = np.zeros(0, dtype=np.min_scalar_type(self.feature_dim - 1))
        self._counts = np.zeros(0, dtype=np.uint8)
        self._norms = np.zeros(0)
        # sorted trigram codes and their buckets; the last code is above any
        # trigram's, so every lookup lands inside the table
        self._trigram_table = (np.array([np.iinfo(np.int64).max]), np.array([-1]))
        self._train_cache = None

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

    def _features(self, texts: list[str]) -> tuple[np.ndarray, np.ndarray]:
        """(rows, cols): unit-norm trigram counts on the buckets the batch touches.

        cols is the ascending array of buckets some text touches and rows the
        (len(texts), len(cols)) matrix of their values, so rows scattered back
        at cols is the dense (len(texts), feature_dim) batch. Texts not yet in
        the encoder's feature store are added to it first; the batch's runs
        of buckets and counts are then gathered from the store, and each value
        is rebuilt as its count over its text's norm. Counts are small
        integers, so the sum of squares is exact in any order and every value
        is bit-identical to normalizing the dense count row.
        """
        row_of = self._row_of
        if not all(map(row_of.__contains__, texts)):
            self._cache_features([t for t in dict.fromkeys(texts) if t not in row_of])
        if not texts:
            return np.zeros((0, 0)), np.zeros(0, dtype=np.intp)
        ids = np.fromiter(map(row_of.__getitem__, texts), dtype=np.intp, count=len(texts))
        starts = self._indptr[ids]
        lengths = self._indptr[ids + 1] - starts
        # store position of each of the batch's trigrams: its run's start
        # plus its offset in the run
        at = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths,
                                                  lengths)
        # as intp, so that each indexing below uses them without a cast
        buckets = self._buckets[at].astype(np.intp)
        touched = np.zeros(self.feature_dim, dtype=bool)
        touched[buckets] = True
        cols = np.flatnonzero(touched)
        # touched bucket -> its column in rows
        remap = np.empty(self.feature_dim, dtype=np.intp)
        remap[cols] = np.arange(len(cols))
        rows = np.zeros((len(texts), len(cols)))
        # each trigram's flat position in rows: its text's row start plus its column
        flat = np.repeat(np.arange(0, rows.size, len(cols)), lengths)
        flat += remap[buckets]
        rows.ravel()[flat] = self._counts[at] / np.repeat(self._norms[ids], lengths)
        return rows, cols

    def _cache_features(self, texts: list[str]) -> None:
        """Append the trigram runs of texts, none of them stored yet, to the
        feature store. Nothing is stored when a text fails validation."""
        fd = self.feature_dim
        padded = ["\x02" + text.lower() + "\x03" for text in texts]
        ends = np.cumsum([len(p) for p in padded])
        try:
            points = np.frombuffer("".join(padded).encode("utf-32-le"), dtype="<u4")
        except UnicodeEncodeError as exc:
            bad = texts[int(np.searchsorted(ends, exc.start, side="right"))]
            raise ValidationError(
                f"encoder input {bad!r} is not valid Unicode: {exc.reason}") from exc
        # one code per trigram, its three code points at 21 bits each; the
        # two windows at the end of each text reach into the next and go
        points = points.astype(np.int64)
        codes = points[:-2] << 42
        codes |= points[1:-1] << 21
        codes |= points[2:]
        codes = np.delete(codes, np.concatenate([ends[:-1] - 2, ends[:-1] - 1]))
        distinct, inverse = np.unique(codes, return_inverse=True)
        # one key per trigram, row * feature_dim + bucket, counted in one pass
        keys = np.repeat(np.arange(len(texts), dtype=np.int64) * fd,
                         np.diff(ends, prepend=0) - 2)
        keys += self._trigram_buckets(distinct)[inverse]
        keys, counts = np.unique(keys, return_counts=True)
        rows, buckets = np.divmod(keys, fd)
        # every text yields at least one trigram, so each row owns a run of keys
        bounds = np.searchsorted(rows, np.arange(len(texts) + 1))
        floats = counts.astype(float)
        norms = np.sqrt(np.add.reduceat(floats * floats, bounds[:-1]))

        n = len(self._row_of)
        m = int(self._indptr[n])
        n_new, m_new = n + len(texts), m + len(keys)
        self._indptr = _reserved(self._indptr, n + 1, n_new + 1)
        self._indptr[n + 1:n_new + 1] = m + bounds[1:]
        self._norms = _reserved(self._norms, n, n_new)
        self._norms[n:n_new] = norms
        self._buckets = _reserved(self._buckets, m, m_new)
        self._buckets[m:m_new] = buckets
        # counts widen once a text repeats a trigram more often than they hold
        self._counts = _reserved(self._counts, m, m_new, np.promote_types(
            self._counts.dtype, np.min_scalar_type(counts.max())))
        self._counts[m:m_new] = counts
        # the rows count as stored only now, so a failed append stores nothing
        self._row_of.update(zip(texts, range(n, n_new)))

    def _trigram_buckets(self, codes: np.ndarray) -> np.ndarray:
        """The bucket of each of the sorted distinct trigram codes, from the
        encoder's code -> bucket table; crc32 runs only on codes it lacks."""
        table, buckets = self._trigram_table
        at = np.searchsorted(table, codes)
        new = table[at] != codes
        if new.any():
            mask = (1 << 21) - 1
            fresh = [zlib.crc32((chr(c >> 42) + chr(c >> 21 & mask) + chr(c & mask))
                                .encode("utf-8")) % self.feature_dim
                     for c in codes[new].tolist()]
            table = np.insert(table, at[new], codes[new])
            buckets = np.insert(buckets, at[new], fresh)
            self._trigram_table = (table, buckets)
            at = np.searchsorted(table, codes)
        return buckets[at]

    def _block_weight(self, i: int) -> np.ndarray:
        # kept as a hook so tests can observe which blocks a forward pass reads
        return self.blocks[i]

    def _forward(self, texts: list[str], layer_limit: int | None, keep_cache: bool):
        limit = self.resolve_layer_limit(layer_limit)
        # buckets no text touches add nothing to the projection, so only the
        # touched rows of w_in take part
        phi, cols = self._features(_validate_texts(texts))
        w_cols = self.w_in[cols]
        states = [phi @ w_cols]
        tanhs = []
        for i in range(limit):
            t = states[-1] @ self._block_weight(i)
            np.tanh(t, out=t)
            tanhs.append(t)
            states.append(states[-1] + t)
        if keep_cache:
            self._train_cache = _TrainCache(phi, cols, w_cols, states, tanhs, limit)
        return states[-1]

    def encode(self, texts, layer_limit=None):
        return self._forward(texts, layer_limit, keep_cache=False)

    def forward_train(self, texts, layer_limit=None):
        return self._forward(texts, layer_limit, keep_cache=True)

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

    def load_state_arrays(self, arrays):
        expected = self.state_arrays()
        if set(arrays) != set(expected):
            raise ValidationError(
                f"checkpoint arrays {sorted(arrays)} do not match encoder layout"
            )
        for name, arr in arrays.items():
            if arr.shape != expected[name].shape:
                raise ValidationError(f"array {name}: shape {arr.shape} != {expected[name].shape}")
        self.w_in = np.array(arrays["w_in"], dtype=float)
        self.blocks = [np.array(arrays[f"block_{i:02d}"], dtype=float)
                       for i in range(len(self.blocks))]
        # the cache holds rows of the weights just replaced
        self._train_cache = None

    def sidecar_config(self):
        return {"dim": self.dim, "seed": self.seed,
                "layers": len(self.blocks), "feature_dim": self.feature_dim}


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(encoder: EncoderHandle, ckpt_dir, step: int | None = None) -> Path:
    """Write one weights-plus-sidecar checkpoint directory.

    Arrays go to individual .npy files (no archive timestamps, so identical
    weights produce identical bytes). The sidecar, written last, records
    identity, embedding_dim, max_layers and step, the sha256 of each .npy
    file, plus whatever the backend needs to rebuild itself.
    """
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    digests = {}
    for name, arr in encoder.state_arrays().items():
        buf = io.BytesIO()
        np.save(buf, arr)
        data = buf.getvalue()
        (ckpt_dir / f"{name}.npy").write_bytes(data)
        digests[name] = hashlib.sha256(data).hexdigest()
    sidecar = {
        "identity": encoder.identity,
        "embedding_dim": encoder.embedding_dim,
        "max_layers": encoder.max_layers,
        "step": encoder.step if step is None else int(step),
        "backend": getattr(encoder, "backend", "unknown"),
        "config": encoder.sidecar_config(),
        "sha256": digests,
    }
    write_json(ckpt_dir / SIDECAR_NAME, sidecar)
    return ckpt_dir


def load_checkpoint(ckpt_dir) -> EncoderHandle:
    """Rebuild an encoder from a checkpoint directory.

    A sidecar that is unreadable or not UTF-8, or a weights file that cannot
    be read or parsed, raises InputError. A sidecar that is not a JSON object,
    misses a key or holds a bad config raises ValidationError, as does a
    weights file whose sha256 differs from the one the sidecar records: a
    truncated or corrupt file, or the array of a later save that was cut off
    before its sidecar.
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
        config, step, identity = sidecar["config"], sidecar["step"], sidecar["identity"]
        digests = dict(sidecar["sha256"])
        encoder = ReferenceEncoder(**config)
        encoder.step = int(step)
    except KeyError as exc:
        raise ValidationError(f"{sidecar_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{sidecar_path}: bad config, step or sha256: {exc}") from exc
    arrays = {}
    for path in sorted(ckpt_dir.glob("*.npy")):
        try:
            data = path.read_bytes()
        except OSError as exc:
            raise InputError(f"cannot load checkpoint array {path}: {exc}") from exc
        if hashlib.sha256(data).hexdigest() != digests.get(path.stem):
            raise ValidationError(
                f"checkpoint array {path} does not match its sha256 in {sidecar_path}"
            )
        try:
            arrays[path.stem] = np.load(io.BytesIO(data))
        except (ValueError, EOFError) as exc:
            raise InputError(f"cannot load checkpoint array {path}: {exc}") from exc
    encoder.load_state_arrays(arrays)
    if encoder.identity != identity:
        raise ValidationError(
            f"rebuilt identity {encoder.identity!r} does not match sidecar {identity!r}"
        )
    return encoder


@contextmanager
def _table_fields(path, what: str) -> Iterator[dict]:
    """The JSON object of a table-model file, for a block that reads its fields.
    A file that is unreadable or not UTF-8 raises InputError; text that is
    not a JSON object, or a field the block finds missing or mistyped, raises
    ValidationError."""
    data = read_json(path, what)
    try:
        yield data
    except KeyError as exc:
        raise ValidationError(f"{path}: missing key {exc}") from exc
    except (TypeError, ValueError, AttributeError) as exc:
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
        self.mask_token = mask_token
        self.identity = identity
        self._index = {tok: i for i, tok in enumerate(self.vocab)}
        self._default = self._check_probs(default, "default")
        self._rules = []
        for i, rule in enumerate(rules):
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
        with _table_fields(path, "MLM table") as data:
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
        with _table_fields(path, "generator table") as data:
            return cls(default=data["default"], by_query=data.get("by_query"),
                       identity=f"table-generator:{Path(path).name}")


# ---------------------------------------------------------------------------
# model spec strings (CLI surface)

def _parse_kv(body: str, where: str) -> dict[str, int]:
    out = {}
    if not body:
        return out
    for part in body.split(","):
        if "=" not in part:
            raise ConfigurationError(f"{where}: expected key=value, got {part!r}")
        key, value = part.split("=", 1)
        try:
            out[key.strip()] = int(value)
        except ValueError as exc:
            raise ConfigurationError(f"{where}: {key!r} must be an integer") from exc
    return out


def encoder_from_spec(spec: str) -> EncoderHandle:
    """Build an encoder from a spec string such as "reference:dim=128,seed=7"."""
    kind, _, body = spec.partition(":")
    if kind != "reference":
        raise ConfigurationError(f"unknown encoder spec {spec!r} (expected reference:...)")
    kwargs = _parse_kv(body, spec)
    allowed = {"dim", "seed", "layers", "feature_dim"}
    unknown = set(kwargs) - allowed
    if unknown:
        raise ConfigurationError(f"{spec!r}: unknown keys {sorted(unknown)}")
    return ReferenceEncoder(**kwargs)


def mlm_from_spec(spec: str) -> MLMHeadHandle:
    kind, _, body = spec.partition(":")
    if kind != "table-mlm" or not body:
        raise ConfigurationError(f"unknown MLM spec {spec!r} (expected table-mlm:PATH)")
    return TableMLM.from_json(body)


def generator_from_spec(spec: str) -> GeneratorHandle:
    kind, _, body = spec.partition(":")
    if kind != "table-generator" or not body:
        raise ConfigurationError(f"unknown generator spec {spec!r} (expected table-generator:PATH)")
    return TableGenerator.from_json(body)
