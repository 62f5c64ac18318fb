"""Self-supervised contrastive rewiring of a text encoder.

Raw corpus sentences are turned into (query, answer) pairs by masking the
sentence tail, then the encoder is trained with an in-batch contrastive
objective so that a masked query lands near its own continuation and away
from everything else in the batch. Probing afterwards is pure retrieval.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, fields
from typing import NamedTuple

import numpy as np

from .curator import MASK_PLACEHOLDER
from .encoders import EncoderHandle, save_checkpoint, unit_rows
from .errors import (
    ConfigurationError,
    InputError,
    InsufficientCorpusError,
    NumericalError,
    ValidationError,
)
from .text import read_json, read_lines, truncate_tokens, write_csv, write_json

_SENTENCE_END = ".!?"
# the whitespace word counts of a sentence sample_sentences may draw
MIN_WORDS = 5
MAX_WORDS = 64


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
        write_json(path, asdict(self))

    @classmethod
    def from_json(cls, path, **overrides) -> "RewireConfig":
        data = read_json(path, "config")
        defaults = {f.name: f.default for f in fields(cls)}
        unknown = set(data) - set(defaults)
        if unknown:
            raise ValidationError(f"{path}: unknown config keys {sorted(unknown)}")
        for key, value in data.items():
            # each field takes the type of its default; a float field also takes an int
            kind = (int, float) if isinstance(defaults[key], float) else type(defaults[key])
            if isinstance(value, bool) or not isinstance(value, kind):
                raise ValidationError(f"{path}: {key} must be of type "
                                      f"{type(defaults[key]).__name__}, got {value!r}")
        data.update({k: v for k, v in overrides.items() if v is not None})
        return cls(**data)


@dataclass(frozen=True, slots=True)
class MaskedPair:
    query: str
    answer: str

    def __post_init__(self):
        if not self.answer.strip():
            raise ValidationError("masked pair answer must be non-empty")


def sample_sentences(corpus, n: int, seed: int) -> list[str]:
    """Uniform reservoir sample of n eligible sentences from a corpus.

    corpus is the path of a text file of one sentence a line; eligibility
    means the whitespace word count lies in [MIN_WORDS, MAX_WORDS]. When
    exactly n sentences are eligible, they come back unchanged in input order.
    """
    if n < 1:
        raise ConfigurationError("n must be >= 1")
    rng = np.random.default_rng(seed)
    reservoir: list[str] = []
    eligible = 0
    total = 0
    for raw in read_lines(corpus, "corpus"):
        line = raw.strip()
        if not line:
            continue
        total += 1
        if not MIN_WORDS <= len(line.split()) <= MAX_WORDS:
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


def infonce_loss_and_grads(query_vectors, answer_vectors, temperature: float):
    """Loss plus the analytic gradient w.r.t. the raw query and answer rows,
    stacked as one (2N, d) array: queries over answers, the row order that
    backward_train takes."""
    q = np.asarray(query_vectors, dtype=float)
    a = np.asarray(answer_vectors, dtype=float)
    if q.ndim != 2 or q.shape != a.shape or q.shape[0] < 1:
        raise ValidationError(f"expected matching (N, d) matrices, got {q.shape} and {a.shape}")
    if temperature <= 0:
        raise ConfigurationError("temperature must be positive")
    n = q.shape[0]
    try:
        z, norms = unit_rows(np.concatenate([q, a]), "stacked vectors")
    except NumericalError:
        # check each half apart, so that the error names the one at fault
        unit_rows(q, "query_vectors")
        unit_rows(a, "answer_vectors")
        raise
    u = z[:n]
    scores = u @ z.T                                      # (n, 2n)
    scores /= temperature
    # in the flat scores, anchor i's own slot (i, i) is at i * (2n + 1) and
    # its positive (i, n + i) is n entries later
    flat, stride = scores.ravel(), 2 * n + 1
    flat[::stride] = -np.inf                              # an anchor never scores itself
    pos = flat[n::stride].copy()
    row_max = scores.max(axis=1)
    scores -= row_max[:, None]
    shifted = np.exp(scores, out=scores)                  # exp(-inf) -> 0 at the self slot
    denominators = shifted.sum(axis=1)
    lse = row_max + np.log(denominators)
    loss = float((lse - pos).sum())

    g = shifted                                           # softmax minus the one-hot positive
    g /= denominators[:, None]
    flat[n::stride] -= 1.0
    grads = g.T @ u                                       # dL/d(unit vector), contrast role
    grads /= temperature
    d_anchor = g @ z                                      # dL/d(unit query), anchor role
    d_anchor /= temperature
    grads[:n] += d_anchor
    # through the normalization: drop the radial part, scale by 1 / norm
    radial = grads * z
    np.multiply(radial.sum(axis=1, keepdims=True), z, out=radial)
    grads -= radial
    grads /= norms[:, None]
    return loss, grads


def infonce_loss(query_vectors, answer_vectors, temperature: float) -> float:
    """In-batch contrastive loss, summed over the N query anchors.

    For anchor i the positive is answer i; the denominator runs over all
    2N - 1 batch vectors other than the anchor itself, positive included.
    Cosine similarity, scaled by the temperature. A single pair scores
    exactly zero since its denominator holds only the positive.
    """
    return infonce_loss_and_grads(query_vectors, answer_vectors, temperature)[0]


class TraceRow(NamedTuple):
    step: int
    loss_sum: float
    loss_mean: float


def _batch_fingerprint(texts: list[str]) -> str:
    return hashlib.sha1("\x1e".join(texts).encode("utf-8")).hexdigest()[:12]


def write_loss_trace(trace: list[TraceRow], path) -> None:
    write_csv(path, ["step", "loss_sum", "loss_mean"],
              ([row.step, f"{row.loss_sum:.8f}", f"{row.loss_mean:.8f}"] for row in trace))


def checkpoint_name(step: int) -> str:
    """The artifact name of a rewire run's checkpoint at step."""
    return f"checkpoints/step_{step:05d}"


def rewire_train(encoder: EncoderHandle, pairs: list[MaskedPair],
                 config: RewireConfig, checkpoint_path=None) -> list[TraceRow]:
    """Run plain SGD on the in-batch contrastive objective from the step
    after encoder.step through config.steps, and return the trace, one row
    per step taken.

    config.steps is the total, not a count of steps to add: an encoder at
    exactly config.steps takes none and the trace is empty, and an encoder
    past it raises ConfigurationError. So a second call with the same config
    trains nothing.

    Every checkpoint_every steps the encoder is saved to
    checkpoint_path(checkpoint_name(step)); checkpoint_path maps an
    artifact name to the path to write it at, and None saves nothing.

    The epoch shuffle for epoch e is drawn from a stream seeded by
    (config.seed, e), so the batch at any global step is a pure function of
    the config; continuing an encoder loaded from a checkpoint reproduces
    the uninterrupted run exactly. The final short batch of an epoch is
    dropped. Steps are 1-based in the trace and in checkpoint names.

    A step's loss is taken before its update, so the last step's batch is
    encoded once more after it: weights that its update left finite but
    overflowing raise NumericalError naming that step, as a later step's
    loss would.
    """
    if len(pairs) < config.batch_size:
        raise InputError(
            f"need at least batch_size={config.batch_size} pairs, got {len(pairs)}"
        )
    if encoder.step > config.steps:
        raise ConfigurationError(f"the encoder is at step {encoder.step}, "
                                 f"past the config's {config.steps} steps")
    batches_per_epoch = len(pairs) // config.batch_size

    # truncate_tokens is pure, so truncating each pair once gives the same
    # batches as truncating them step by step
    all_queries = [truncate_tokens(p.query, config.max_query_tokens) for p in pairs]
    all_answers = [truncate_tokens(p.answer, config.max_answer_tokens) for p in pairs]
    trace: list[TraceRow] = []
    current_epoch = -1
    perm = None
    for step in range(encoder.step + 1, config.steps + 1):
        epoch = (step - 1) // batches_per_epoch
        if epoch != current_epoch:
            perm = np.random.default_rng([config.seed, epoch]).permutation(len(pairs))
            current_epoch = epoch
        offset = ((step - 1) % batches_per_epoch) * config.batch_size
        batch = perm[offset:offset + config.batch_size].tolist()
        queries = [all_queries[i] for i in batch]
        texts = queries + [all_answers[i] for i in batch]
        n = len(batch)
        try:
            # a diverged encoder overflows here; the error below reports it
            # in one line, without numpy's warnings
            with np.errstate(over="ignore", invalid="ignore"):
                outputs = encoder.forward_train(texts)
                loss, grads = infonce_loss_and_grads(outputs[:n], outputs[n:],
                                                     config.temperature)
            if not math.isfinite(loss):
                raise NumericalError(f"the loss is {loss}")
        except NumericalError as exc:
            raise NumericalError(f"non-finite loss at step {step} "
                                 f"(batch {_batch_fingerprint(queries)}): {exc}") from exc
        encoder.backward_train(grads, config.learning_rate)
        trace.append(TraceRow(step, loss, loss / n))
        if checkpoint_path is not None and config.checkpoint_every > 0 \
                and step % config.checkpoint_every == 0:
            save_checkpoint(encoder, checkpoint_path(checkpoint_name(step)))
    if trace:
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                unit_rows(encoder.encode(texts), "the batch encoded after its update")
        except NumericalError as exc:
            raise NumericalError(f"diverged at step {step} "
                                 f"(batch {_batch_fingerprint(queries)}): {exc}") from exc
    return trace
