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

import json
import zlib
from abc import ABC, abstractmethod
from pathlib import Path

import numpy as np

from .errors import ConfigurationError, InputError, ValidationError

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


class ReferenceEncoder(EncoderHandle):
    """Deterministic trainable encoder over hashed character trigrams.

    A text becomes an L2-normalized count vector of hashed lowercase
    trigrams (with boundary sentinels, so one-character strings still
    produce features). That vector passes through a seeded linear map and
    then through max_layers residual tanh blocks; truncating to the first L
    blocks is exact layer chopping, the parameters of deeper blocks are
    never touched.

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
        self._feat_cache: dict[str, tuple[np.ndarray, np.ndarray]] = {}
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

    def _features(self, texts: list[str]) -> np.ndarray:
        """Dense (len(texts), feature_dim) batch of unit-norm trigram counts.

        The cache keeps one sparse entry per distinct text: its sorted bucket
        indices and their normalized values. Counts are small integers, so
        the sum of squares is exact in any order and every value is
        bit-identical to normalizing the dense count row.
        """
        cache = self._feat_cache
        missing = [t for t in dict.fromkeys(texts) if t not in cache]
        if missing:
            self._cache_features(missing)
        rows = np.zeros((len(texts), self.feature_dim))
        if not texts:
            return rows
        entries = [cache[t] for t in texts]
        lengths = [len(buckets) for buckets, _ in entries]
        rows[np.repeat(np.arange(len(texts)), lengths),
             np.concatenate([buckets for buckets, _ in entries])] = \
            np.concatenate([values for _, values in entries])
        return rows

    def _cache_features(self, texts: list[str]) -> None:
        fd = self.feature_dim
        crc32 = zlib.crc32
        hashes: list[int] = []
        lengths = []
        for text in texts:
            padded = "\x02" + text.lower() + "\x03"
            lengths.append(len(padded) - 2)
            hashes.extend([crc32(padded[j:j + 3].encode("utf-8"))
                           for j in range(len(padded) - 2)])
        # one key per trigram, row * feature_dim + bucket, counted in one pass
        keys = np.repeat(np.arange(len(texts), dtype=np.int64) * fd, lengths)
        keys += np.array(hashes, dtype=np.int64) % fd
        keys, counts = np.unique(keys, return_counts=True)
        rows, buckets = np.divmod(keys, fd)
        counts = counts.astype(float)
        # every text yields at least one trigram, so each row owns a run of keys
        bounds = np.searchsorted(rows, np.arange(len(texts) + 1))
        norms = np.sqrt(np.add.reduceat(counts * counts, bounds[:-1]))
        values = counts / norms[rows]
        buckets = buckets.astype(np.int32)
        bounds = bounds.tolist()
        for text, lo, hi in zip(texts, bounds, bounds[1:]):
            self._feat_cache[text] = (buckets[lo:hi], values[lo:hi])

    def _block_weight(self, i: int) -> np.ndarray:
        # kept as a hook so tests can observe which blocks a forward pass reads
        return self.blocks[i]

    def _forward(self, texts: list[str], layer_limit: int | None, keep_cache: bool):
        limit = self.resolve_layer_limit(layer_limit)
        phi = self._features(_validate_texts(texts))
        states = [phi @ self.w_in]
        tanhs = []
        for i in range(limit):
            t = np.tanh(states[-1] @ self._block_weight(i))
            tanhs.append(t)
            states.append(states[-1] + t)
        if keep_cache:
            self._train_cache = (phi, states, tanhs, limit)
        return states[-1]

    def encode(self, texts, layer_limit=None):
        return self._forward(texts, layer_limit, keep_cache=False)

    def forward_train(self, texts, layer_limit=None):
        return self._forward(texts, layer_limit, keep_cache=True)

    def backward_train(self, grad_outputs, learning_rate):
        if self._train_cache is None:
            raise ValidationError("backward_train requires a preceding forward_train")
        phi, states, tanhs, limit = self._train_cache
        self._train_cache = None
        g = np.asarray(grad_outputs, dtype=float)
        if g.shape != states[-1].shape:
            raise ValidationError(
                f"gradient shape {g.shape} does not match forward output {states[-1].shape}"
            )
        block_grads = {}
        for i in reversed(range(limit)):
            dt = g * (1.0 - tanhs[i] ** 2)
            block_grads[i] = states[i].T @ dt
            g = g + dt @ self.blocks[i].T
        grad_w_in = phi.T @ g
        self.w_in -= learning_rate * grad_w_in
        for i, grad in block_grads.items():
            self.blocks[i] -= learning_rate * grad
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

    def sidecar_config(self):
        return {"dim": self.dim, "seed": self.seed,
                "layers": len(self.blocks), "feature_dim": self.feature_dim}


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(encoder: EncoderHandle, ckpt_dir, step: int | None = None) -> Path:
    """Write one weights-plus-sidecar checkpoint directory.

    Arrays go to individual .npy files (no archive timestamps, so identical
    weights produce identical bytes). The sidecar records identity,
    embedding_dim, max_layers and step, plus whatever the backend needs to
    rebuild itself.
    """
    ckpt_dir = Path(ckpt_dir)
    ckpt_dir.mkdir(parents=True, exist_ok=True)
    for name, arr in encoder.state_arrays().items():
        np.save(ckpt_dir / f"{name}.npy", arr)
    sidecar = {
        "identity": encoder.identity,
        "embedding_dim": encoder.embedding_dim,
        "max_layers": encoder.max_layers,
        "step": encoder.step if step is None else int(step),
        "backend": getattr(encoder, "backend", "unknown"),
        "config": encoder.sidecar_config(),
    }
    (ckpt_dir / SIDECAR_NAME).write_text(
        json.dumps(sidecar, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return ckpt_dir


def load_checkpoint(ckpt_dir) -> EncoderHandle:
    """Rebuild an encoder from a checkpoint directory.

    A sidecar that is unreadable or not JSON, or a weights file that is
    truncated or corrupt, raises InputError; a sidecar missing a key or
    holding a bad config raises ValidationError.
    """
    ckpt_dir = Path(ckpt_dir)
    sidecar_path = ckpt_dir / SIDECAR_NAME
    if not sidecar_path.is_file():
        raise ConfigurationError(f"{ckpt_dir} is not a checkpoint directory (no {SIDECAR_NAME})")
    try:
        sidecar = json.loads(sidecar_path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise InputError(f"cannot read checkpoint sidecar {sidecar_path}: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ValidationError(f"{sidecar_path}: expected a JSON object")
    backend = sidecar.get("backend")
    if backend != ReferenceEncoder.backend:
        raise ConfigurationError(f"unknown encoder backend {backend!r} in {ckpt_dir}")
    try:
        config, step, identity = sidecar["config"], sidecar["step"], sidecar["identity"]
        encoder = ReferenceEncoder(**config)
        encoder.step = int(step)
    except KeyError as exc:
        raise ValidationError(f"{sidecar_path}: missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"{sidecar_path}: bad config or step: {exc}") from exc
    arrays = {}
    for path in sorted(ckpt_dir.glob("*.npy")):
        try:
            arrays[path.stem] = np.load(path)
        except (OSError, ValueError, EOFError) as exc:
            raise InputError(f"cannot load checkpoint array {path}: {exc}") from exc
    encoder.load_state_arrays(arrays)
    if encoder.identity != identity:
        raise ValidationError(
            f"rebuilt identity {encoder.identity!r} does not match sidecar {identity!r}"
        )
    return encoder


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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(vocab=data["vocab"], default=data["default"],
                   rules=data.get("rules", ()),
                   mask_token=data.get("mask_token", "[MASK]"),
                   identity=f"table-mlm:{Path(path).name}")


# ---------------------------------------------------------------------------
# generator

class GeneratorHandle(ABC):
    """Free-form candidate generator; candidates come back ranked by score."""

    identity: str
    max_new_tokens: int

    @abstractmethod
    def generate(self, query: str) -> list[tuple[str, float]]: ...


class TableGenerator(GeneratorHandle):
    """Lookup generator: per-query candidate lists with a shared fallback."""

    def __init__(self, default, by_query=None, max_new_tokens=16,
                 identity="table-generator"):
        self.default = [(str(s), float(v)) for s, v in default]
        self.by_query = {q: [(str(s), float(v)) for s, v in items]
                         for q, items in (by_query or {}).items()}
        self.max_new_tokens = max_new_tokens
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
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        return cls(default=data["default"], by_query=data.get("by_query"),
                   max_new_tokens=data.get("max_new_tokens", 16),
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
