"""Self-supervised contrastive rewiring of a text encoder.

Raw corpus sentences are turned into (query, answer) pairs by masking the
sentence tail, then the encoder is trained with an in-batch contrastive
objective so that a masked query lands near its own continuation and away
from everything else in the batch. Probing afterwards is pure retrieval.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from dataclasses import asdict, dataclass, fields
from pathlib import Path
from typing import Iterable, NamedTuple

import numpy as np

from .encoders import EncoderHandle, save_checkpoint
from .errors import (
    ConfigurationError,
    InputError,
    InsufficientCorpusError,
    NumericalError,
    ValidationError,
)
from .text import truncate_tokens

MASK_PLACEHOLDER = "[MASK]"
_SENTENCE_END = ".!?"


@dataclass
class RewireConfig:
    """Hyperparameters of one rewiring run.

    checkpoint_every = 0 disables periodic checkpoints (required when
    steps = 0, since steps must be >= checkpoint_every otherwise).
    """

    num_sentences: int = 10_000
    mask_ratio: float = 0.5
    temperature: float = 0.03
    learning_rate: float = 2e-5
    steps: int = 500
    batch_size: int = 96
    checkpoint_every: int = 50
    probe_checkpoint_step: int = 150
    seed: int = 0
    max_query_tokens: int = 50
    max_answer_tokens: int = 25
    mask_placeholder: str = MASK_PLACEHOLDER

    def __post_init__(self):
        if not 0 < self.mask_ratio < 1:
            raise ConfigurationError("mask_ratio must lie strictly between 0 and 1")
        if self.temperature <= 0:
            raise ConfigurationError("temperature must be positive")
        if self.learning_rate <= 0:
            raise ConfigurationError("learning_rate must be positive")
        if self.steps < 0 or self.batch_size < 1 or self.num_sentences < 1:
            raise ConfigurationError("steps, batch_size and num_sentences must be sensible")
        if self.checkpoint_every < 0:
            raise ConfigurationError("checkpoint_every must be >= 0")
        if self.steps < self.checkpoint_every:
            raise ConfigurationError("steps must be >= checkpoint_every")
        if self.seed < 0:
            raise ConfigurationError("seed must be non-negative")
        if self.max_query_tokens < 1 or self.max_answer_tokens < 1:
            raise ConfigurationError("token limits must be >= 1")
        if not self.mask_placeholder.strip():
            raise ConfigurationError("mask_placeholder must be non-empty")

    def to_json(self, path) -> None:
        Path(path).write_text(json.dumps(asdict(self), indent=2, sort_keys=True) + "\n",
                              encoding="utf-8")

    @classmethod
    def from_json(cls, path, **overrides) -> "RewireConfig":
        try:
            data = json.loads(Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise InputError(f"cannot read config from {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
        known = {f.name for f in fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


@dataclass(frozen=True)
class MaskedPair:
    query: str
    answer: str

    def __post_init__(self):
        if not self.answer.strip():
            raise ValidationError("masked pair answer must be non-empty")


def sample_sentences(corpus, n: int, seed: int, min_words: int = 5,
                     max_words: int = 64) -> list[str]:
    """Uniform reservoir sample of n eligible sentences from a corpus.

    corpus is a path or an iterable of lines; eligibility means the
    whitespace word count lies in [min_words, max_words]. When exactly n
    sentences are eligible, they come back unchanged in input order.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    if isinstance(corpus, (str, Path)):
        try:
            with open(corpus, encoding="utf-8") as fh:
                return _reservoir(fh, n, seed, min_words, max_words)
        except OSError as exc:
            raise InputError(f"cannot read corpus from {corpus}: {exc}") from exc
    return _reservoir(corpus, n, seed, min_words, max_words)


def _reservoir(lines: Iterable[str], n, seed, min_words, max_words) -> list[str]:
    rng = np.random.default_rng(seed)
    reservoir: list[str] = []
    eligible = 0
    total = 0
    for raw in lines:
        line = raw.strip()
        if not line:
            continue
        total += 1
        if not min_words <= len(line.split()) <= max_words:
            continue
        if eligible < n:
            reservoir.append(line)
        else:
            j = int(rng.integers(0, eligible + 1))
            if j < n:
                reservoir[j] = line
        eligible += 1
    if eligible < n:
        raise InsufficientCorpusError(
            f"needed {n} sentences but found only {eligible} eligible of {total} total"
        )
    return reservoir


def tail_mask(sentence: str, mask_ratio: float,
              mask_placeholder: str = MASK_PLACEHOLDER) -> MaskedPair | None:
    """Split a sentence into (masked query, removed tail).

    With w content words (the trailing sentence-final punctuation never
    counts and is never masked), the last m = max(1, floor(w * mask_ratio))
    words become the answer; the query keeps the prefix, one placeholder,
    and the original final punctuation as its own token. Returns None for
    sentences the caller should drop: fewer than two content words, or a
    sentence that already contains the placeholder.
    """
    if not 0 < mask_ratio < 1:
        raise ConfigurationError("mask_ratio must lie strictly between 0 and 1")
    words = sentence.split()
    trailing = None
    if words and words[-1] in tuple(_SENTENCE_END):
        trailing = words.pop()
    elif words and len(words[-1]) > 1 and words[-1][-1] in _SENTENCE_END:
        trailing = words[-1][-1]
        words[-1] = words[-1][:-1]
    if len(words) < 2 or mask_placeholder in words:
        return None
    w = len(words)
    m = max(1, math.floor(w * mask_ratio))
    query = " ".join(words[:w - m]) + " " + mask_placeholder
    if trailing:
        query += " " + trailing
    return MaskedPair(query=query, answer=" ".join(words[w - m:]))


def _unit_rows(matrix: np.ndarray, what: str) -> tuple[np.ndarray, np.ndarray]:
    norms = np.linalg.norm(matrix, axis=1)
    if not (np.isfinite(norms).all() and (norms > 0).all()):
        raise NumericalError(f"{what} contains a zero or non-finite row norm")
    return matrix / norms[:, None], norms


def _infonce_parts(query_vectors, answer_vectors, temperature, with_grads):
    q = np.asarray(query_vectors, dtype=float)
    a = np.asarray(answer_vectors, dtype=float)
    if q.ndim != 2 or q.shape != a.shape or q.shape[0] < 1:
        raise ValidationError(f"expected matching (N, d) matrices, got {q.shape} and {a.shape}")
    if temperature <= 0:
        raise ConfigurationError("temperature must be positive")
    n = q.shape[0]
    u, q_norms = _unit_rows(q, "query_vectors")
    a_hat, a_norms = _unit_rows(a, "answer_vectors")
    z = np.vstack([u, a_hat])
    scores = (u @ z.T) / temperature                      # (n, 2n)
    np.fill_diagonal(scores[:, :n], -np.inf)              # an anchor never scores itself
    row_max = scores.max(axis=1)
    shifted = np.exp(scores - row_max[:, None])           # exp(-inf) -> 0 at the self slot
    lse = row_max + np.log(shifted.sum(axis=1))
    pos = scores[np.arange(n), n + np.arange(n)]
    loss = float((lse - pos).sum())
    if not with_grads:
        return loss, None, None

    softmax = shifted / shifted.sum(axis=1)[:, None]
    g = softmax.copy()
    g[np.arange(n), n + np.arange(n)] -= 1.0
    d_anchor = (g @ z) / temperature                      # dL/d(unit query), anchor role
    d_columns = (g.T @ u) / temperature                   # dL/d(unit vector), contrast role
    d_unit_q = d_anchor + d_columns[:n]
    d_unit_a = d_columns[n:]

    def through_norm(grad, unit, norms):
        return (grad - (grad * unit).sum(axis=1, keepdims=True) * unit) / norms[:, None]

    return loss, through_norm(d_unit_q, u, q_norms), through_norm(d_unit_a, a_hat, a_norms)


def infonce_loss(query_vectors, answer_vectors, temperature: float) -> float:
    """In-batch contrastive loss, summed over the N query anchors.

    For anchor i the positive is answer i; the denominator runs over all
    2N - 1 batch vectors other than the anchor itself, positive included.
    Cosine similarity, scaled by the temperature. A single pair scores
    exactly zero since its denominator holds only the positive.
    """
    loss, _, _ = _infonce_parts(query_vectors, answer_vectors, temperature, with_grads=False)
    return loss


def infonce_loss_and_grads(query_vectors, answer_vectors, temperature: float):
    """Loss plus analytic gradients w.r.t. the raw query and answer matrices."""
    return _infonce_parts(query_vectors, answer_vectors, temperature, with_grads=True)


class TraceRow(NamedTuple):
    step: int
    loss_sum: float
    loss_mean: float


@dataclass
class TrainResult:
    encoder: EncoderHandle
    trace: list[TraceRow]
    checkpoint_dirs: list[Path]


def _batch_fingerprint(texts: list[str]) -> str:
    return hashlib.sha1("\x1e".join(texts).encode("utf-8")).hexdigest()[:12]


def write_loss_trace(trace: list[TraceRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["step", "loss_sum", "loss_mean"])
        for row in trace:
            writer.writerow([row.step, f"{row.loss_sum:.8f}", f"{row.loss_mean:.8f}"])


def rewire_train(encoder: EncoderHandle, pairs: list[MaskedPair],
                 config: RewireConfig, out_dir=None,
                 start_step: int = 0) -> TrainResult:
    """Run plain SGD on the in-batch contrastive objective.

    The epoch shuffle for epoch e is drawn from a stream seeded by
    (config.seed, e), so the batch at any global step is a pure function of
    the config; resuming from a checkpoint with start_step = s reproduces
    the uninterrupted run exactly. The final short batch of an epoch is
    dropped. Steps are 1-based in the trace and in checkpoint names.
    """
    if len(pairs) < config.batch_size:
        raise InputError(
            f"need at least batch_size={config.batch_size} pairs, got {len(pairs)}"
        )
    if not 0 <= start_step <= config.steps:
        raise ConfigurationError("start_step must lie in [0, steps]")
    batches_per_epoch = len(pairs) // config.batch_size
    ckpt_root = None
    if out_dir is not None:
        out_dir = Path(out_dir)
        out_dir.mkdir(parents=True, exist_ok=True)
        config.to_json(out_dir / "rewire_config.json")
        ckpt_root = out_dir / "checkpoints"

    # truncate_tokens is pure, so truncating each pair once gives the same
    # batches as truncating them step by step
    all_queries = [truncate_tokens(p.query, config.max_query_tokens) for p in pairs]
    all_answers = [truncate_tokens(p.answer, config.max_answer_tokens) for p in pairs]
    trace: list[TraceRow] = []
    checkpoint_dirs: list[Path] = []
    current_epoch = -1
    perm = None
    for step in range(start_step + 1, config.steps + 1):
        epoch = (step - 1) // batches_per_epoch
        if epoch != current_epoch:
            perm = np.random.default_rng([config.seed, epoch]).permutation(len(pairs))
            current_epoch = epoch
        offset = ((step - 1) % batches_per_epoch) * config.batch_size
        batch = perm[offset:offset + config.batch_size]
        queries = [all_queries[i] for i in batch]
        answers = [all_answers[i] for i in batch]
        outputs = encoder.forward_train(queries + answers)
        n = len(batch)
        loss, dq, da = infonce_loss_and_grads(outputs[:n], outputs[n:], config.temperature)
        if not math.isfinite(loss):
            raise NumericalError(
                f"non-finite loss at step {step} (batch {_batch_fingerprint(queries)})"
            )
        encoder.backward_train(np.vstack([dq, da]), config.learning_rate)
        trace.append(TraceRow(step, loss, loss / n))
        if ckpt_root is not None and config.checkpoint_every > 0 \
                and step % config.checkpoint_every == 0:
            ckpt = save_checkpoint(encoder, ckpt_root / f"step_{step:05d}", step=step)
            checkpoint_dirs.append(ckpt)
    if out_dir is not None:
        write_loss_trace(trace, out_dir / "loss_trace.csv")
    return TrainResult(encoder=encoder, trace=trace, checkpoint_dirs=checkpoint_dirs)
