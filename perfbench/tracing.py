"""Span tracing for the benchmark's traced run.

Spans are recorded from the benchmark's side only. The module attributes
that probeforge.cli and probeforge.rewire look up at call time are replaced
by timing wrappers, and every encoder the CLI builds is handed back inside a
proxy that times encode, forward_train and backward_train. The package
itself is not edited, and an untraced run installs nothing.

A span is [name, start, end, parent, thread, extra]. The layer is the part
of the name before the first dot, which is the probeforge module name. A
span's self time is its duration minus the union of its children's
intervals, so spans that overlap on worker threads are not counted twice.
"""

from __future__ import annotations

import os
import resource
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from probeforge.encoders import EncoderHandle

LAYERS = ("cli", "curator", "rewire", "encoders", "probers", "evaluation", "text")
CLI_COMMANDS = ("curate", "rewire", "probe", "eval", "sweep")

# attribute of probeforge.cli -> span name
CLI_WRAPPED = {
    "load_triples": "curator.load_triples",
    "load_templates": "curator.templates",
    "default_templates": "curator.templates",
    "group_queries": "curator.group_queries",
    "split_hard": "curator.split_hard",
    "save_dataset": "curator.save_dataset",
    "load_dataset": "curator.load_dataset",
    "sample_sentences": "rewire.sample_sentences",
    "tail_mask": "rewire.tail_mask",
    "rewire_train": "rewire.train",
    "load_entities": "probers.load_entities",
    "build_entity_index": "probers.index_build",
    "contrastive_probe": "probers.contrastive_probe",
    "save_predictions": "probers.save_predictions",
    # load_predictions lives in probers but only the eval command reads it
    "load_predictions": "evaluation.load_predictions",
    "score_predictions": "evaluation.score",
    "aggregate": "evaluation.aggregate",
    "save_report": "evaluation.save_report",
    "write_report_csv": "evaluation.write_report_csv",
    "step_curves": "evaluation.step_curves",
    "stability_summary": "evaluation.stability_summary",
    "write_step_curves_csv": "evaluation.write_step_curves_csv",
}
# attribute of probeforge.rewire -> span name
REWIRE_WRAPPED = {
    "truncate_tokens": "text.truncate",
    "infonce_loss_and_grads": "rewire.loss",
}
# spans that also record the RSS before and after the call
RSS_SPANS = {"rewire.train", "probers.index_build", "probers.contrastive_probe"}

_PAGE_MB = os.sysconf("SC_PAGE_SIZE") / 2**20


def rss_mb() -> float:
    """Current resident set size of this process."""
    with open("/proc/self/statm") as fh:
        return int(fh.read().split()[1]) * _PAGE_MB


def hwm_mb() -> float:
    """Peak resident set size of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.encoders: list[TracedEncoder] = []
        self.root: int | None = None  # the CLI command span being run
        self._lock = threading.Lock()
        self._local = threading.local()

    # -- span stack ---------------------------------------------------------

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.train = None  # [train span, step start, spans since, leaf time]
        return local

    def begin(self, name: str, extra: dict | None = None) -> int:
        local = self._state()
        parent = local.stack[-1] if local.stack else self.root
        with self._lock:
            self.spans.append([name, time.perf_counter(), None, parent,
                               threading.get_ident(), extra])
            idx = len(self.spans) - 1
        if local.train is not None and parent == local.train[0]:
            local.train[2].append(idx)
        local.stack.append(idx)
        return idx

    def end(self, idx: int) -> float:
        now = time.perf_counter()
        self.spans[idx][2] = now
        self._state().stack.pop()
        return now

    # -- rewire steps ---------------------------------------------------------
    # A step has no call of its own, so it is derived: it runs from the end
    # of the previous step (or checkpoint, or the start of training) to the
    # end of its backward_train, and adopts the spans recorded in between.

    def _step_done(self, now: float) -> None:
        train = self._state().train
        if train is None:
            return
        train_idx, start, adopted, leaf = train
        with self._lock:
            self.spans.append(["rewire.step", start, now, train_idx,
                               threading.get_ident(), {"leaf": leaf}])
            step_idx = len(self.spans) - 1
        for child in adopted:
            self.spans[child][3] = step_idx
        train[1:] = [now, [], 0.0]

    def _checkpoint_done(self, now: float) -> None:
        train = self._state().train
        if train is not None:
            train[1:] = [now, [], 0.0]

    # -- wrappers -------------------------------------------------------------

    def _timed(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(idx)
        return wrapper

    def _leaf(self, name: str, fn):
        # Called tens of thousands of times per run, so it is counted and
        # timed but not kept as a span; a step subtracts the leaf time it
        # contains when its self time is derived.
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = time.perf_counter() - start
                train = self._state().train
                if train is not None:
                    train[3] += spent
                self.add(name, 1)
                self.add(name + "_s", spent)
        return wrapper

    def add(self, counter: str, amount) -> None:
        with self._lock:
            self.counts[counter] += amount

    def _with_rss(self, name: str, fn):
        def wrapper(*args, **kwargs):
            extra = {"rss0": rss_mb(), "hwm0": hwm_mb()}
            idx = self.begin(name, extra)
            local = self._state()
            outer_train = local.train
            if name == "rewire.train":
                local.train = [idx, time.perf_counter(), [], 0.0]
            if name == "probers.contrastive_probe":
                index, queries = args[1], args[2]
                self.add("probers.scores_computed", len(queries) * len(index))
            try:
                return fn(*args, **kwargs)
            finally:
                local.train = outer_train
                self.end(idx)
                extra["hwm1"], extra["rss1"] = hwm_mb(), rss_mb()
        return wrapper

    def _encoder_factory(self, name: str, fn):
        def wrapper(*args, **kwargs):
            idx = self.begin(name)
            try:
                encoder = fn(*args, **kwargs)
            finally:
                self.end(idx)
            proxy = TracedEncoder(self, encoder)
            self.encoders.append(proxy)
            return proxy
        return wrapper

    def _checkpoint(self, fn):
        def wrapper(encoder, ckpt_dir, *args, **kwargs):
            idx = self.begin("rewire.checkpoint")
            try:
                out = fn(encoder, ckpt_dir, *args, **kwargs)
            finally:
                self._checkpoint_done(self.end(idx))
            self.add("rewire.checkpoint_bytes",
                     sum(p.stat().st_size for p in out.iterdir()))
            return out
        return wrapper

    def install(self, cli_module, rewire_module) -> None:
        """Replace the looked-up attributes with traced wrappers."""
        for attr, name in CLI_WRAPPED.items():
            fn = getattr(cli_module, attr)
            wrap = self._with_rss if name in RSS_SPANS else self._timed
            setattr(cli_module, attr, wrap(name, fn))
        for attr, name in REWIRE_WRAPPED.items():
            fn = getattr(rewire_module, attr)
            wrap = self._leaf if name == "text.truncate" else self._timed
            setattr(rewire_module, attr, wrap(name, fn))
        cli_module.encoder_from_spec = self._encoder_factory(
            "encoders.from_spec", cli_module.encoder_from_spec)
        cli_module.load_checkpoint = self._encoder_factory(
            "encoders.load_checkpoint", cli_module.load_checkpoint)
        rewire_module.save_checkpoint = self._checkpoint(rewire_module.save_checkpoint)

    @contextmanager
    def command(self, name: str):
        """Span for one CLI command issued by the benchmark; spans that
        worker threads start with an empty stack become its children."""
        idx = self.begin(name, {"rss0": rss_mb()})
        self.root = idx
        try:
            yield
        finally:
            self.root = None
            self.end(idx)

    # -- summary --------------------------------------------------------------

    def summary(self) -> tuple[dict, list[float]]:
        """Per-layer metrics of everything recorded, plus step durations."""
        spans = self.spans
        children: dict[int, list[int]] = defaultdict(list)
        for i, span in enumerate(spans):
            if span[3] is not None:
                children[span[3]].append(i)
        total: Counter = Counter()
        span_self: Counter = Counter()
        query_encode = 0.0
        for i, (name, start, end, parent, _, extra) in enumerate(spans):
            total[name] += end - start
            covered = _union(start, end, [(spans[c][1], spans[c][2]) for c in children[i]])
            leaf = extra["leaf"] if name == "rewire.step" else 0.0
            span_self[name] += end - start - covered - leaf
            if (name == "encoders.encode" and parent is not None
                    and spans[parent][0] == "probers.contrastive_probe"):
                query_encode += end - start
        steps = [s[2] - s[1] for s in spans if s[0] == "rewire.step"]
        count = Counter(s[0] for s in spans)

        m = {}
        for cmd in CLI_COMMANDS:
            m[f"cli.{cmd}_s"] = total[f"cli.{cmd}"]
        m.update({
            "curator.load_triples_s": total["curator.load_triples"],
            "curator.group_queries_s": total["curator.group_queries"],
            "curator.split_hard_s": total["curator.split_hard"],
            "curator.load_dataset_s": total["curator.load_dataset"],
            "rewire.train_s": total["rewire.train"],
            "rewire.loss_s": total["rewire.loss"],
            "rewire.steps": len(steps),
            "rewire.checkpoint_s": total["rewire.checkpoint"],
            "rewire.checkpoints": count["rewire.checkpoint"],
            "rewire.checkpoint_bytes": self.counts["rewire.checkpoint_bytes"],
            "rewire.sample_s": total["rewire.sample_sentences"] + total["rewire.tail_mask"],
            "rewire.peak_rss_delta_mb": self._peak_delta("rewire."),
            "encoders.forward_train_s": total["encoders.forward_train"],
            "encoders.backward_train_s": total["encoders.backward_train"],
            "encoders.encode_s": total["encoders.encode"],
            "encoders.load_checkpoint_s": total["encoders.load_checkpoint"],
            "encoders.encode_texts": self.counts["encoders.encode_texts"],
            "encoders.distinct_texts": sum(len(e.distinct) for e in self.encoders),
            "probers.index_build_s": total["probers.index_build"],
            "probers.query_encode_s": query_encode,
            "probers.rank_s": total["probers.contrastive_probe"] - query_encode,
            "probers.scores_computed": self.counts["probers.scores_computed"],
            "probers.save_predictions_s": total["probers.save_predictions"],
            "probers.peak_rss_delta_mb": self._peak_delta("probers."),
            "evaluation.load_predictions_s": total["evaluation.load_predictions"],
            "evaluation.score_s": total["evaluation.score"],
            "evaluation.aggregate_s": total["evaluation.aggregate"],
            "text.truncate_calls": self.counts["text.truncate"],
            "text.truncate_s": self.counts["text.truncate_s"],
            "trace.spans": len(spans),
        })
        layer_self = Counter(text=self.counts["text.truncate_s"])
        for name, seconds in span_self.items():
            layer_self[name.split(".", 1)[0]] += seconds
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self[layer]
        # the training loop's own work (batch assembly); loss and sampling
        # are rewire code too but have metrics of their own
        m["rewire.self_s"] = span_self["rewire.train"] + span_self["rewire.step"]
        return m, steps

    def _peak_delta(self, prefix: str) -> float:
        """Largest RSS rise of a layer's calls over the RSS at the start of
        the CLI command that made them. The rise is the high-water mark
        when the call raised it, else the RSS the call left behind."""
        best = 0.0
        for name, _, _, parent, _, extra in self.spans:
            if not name.startswith(prefix) or name not in RSS_SPANS:
                continue
            command = parent
            while command is not None and not self.spans[command][0].startswith("cli."):
                command = self.spans[command][3]
            base = self.spans[command][5]["rss0"] if command is not None else extra["rss0"]
            peak = extra["hwm1"] if extra["hwm1"] > extra["hwm0"] else extra["rss1"]
            best = max(best, peak - base)
        return best

    def dump(self) -> list:
        """Spans as plain lists, for writing out when the run ends."""
        return [[n, s, e, p, t] for n, s, e, p, t, _ in self.spans]


def _union(start: float, end: float, intervals: list[tuple[float, float]]) -> float:
    """Length of the part of [start, end] that the intervals cover."""
    covered, reach = 0.0, start
    for s, e in sorted(intervals):
        s, e = max(s, reach), min(e, end)
        if e > s:
            covered += e - s
            reach = e
    return covered


class TracedEncoder(EncoderHandle):
    """Times the encoder surface and records which texts it has seen."""

    def __init__(self, tracer: Tracer, inner: EncoderHandle):
        self._tracer = tracer
        self._inner = inner
        self.distinct: set[str] = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def _texts(self, texts):
        texts = list(texts)
        self._tracer.add("encoders.encode_texts", len(texts))
        self.distinct.update(texts)
        return texts

    def encode(self, texts, layer_limit=None):
        texts = self._texts(texts)
        idx = self._tracer.begin("encoders.encode")
        try:
            return self._inner.encode(texts, layer_limit)
        finally:
            self._tracer.end(idx)

    def forward_train(self, texts, layer_limit=None):
        texts = self._texts(texts)
        idx = self._tracer.begin("encoders.forward_train")
        try:
            return self._inner.forward_train(texts, layer_limit)
        finally:
            self._tracer.end(idx)

    def backward_train(self, grad_outputs, learning_rate):
        idx = self._tracer.begin("encoders.backward_train")
        try:
            return self._inner.backward_train(grad_outputs, learning_rate)
        finally:
            self._tracer._step_done(self._tracer.end(idx))

    def resolve_layer_limit(self, layer_limit):
        return self._inner.resolve_layer_limit(layer_limit)

    def state_arrays(self):
        return self._inner.state_arrays()

    def load_state_arrays(self, arrays):
        return self._inner.load_state_arrays(arrays)

    def sidecar_config(self):
        return self._inner.sidecar_config()
