"""Outside-in tracing: timing wrappers swapped in for the package's public
functions, as module (or class) attributes, for the length of a ``with``
block.

Every call of a wrapped function records one span: name, start, end and the
index of the enclosing span (-1 at top level). Spans stay in a list in
memory; ``summary`` reduces them when the run ends. The wrappers sit where
the package looks the functions up at call time (``trainer`` calls
``sampler.mine_batch``, ``retrieval.evaluate`` calls its module-global
``knn_retrieve``, and so on), so the package itself is not edited.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

import numpy as np

SPANS = (
    "data.load_dataset",
    "data.split_dataset",
    "embedder.load_checkpoint",
    "embedder.forward",
    "embedder.backward",
    "core.BatchView.from_embeddings",
    "similarity.pairwise_euclidean",
    "similarity.minmax_normalize",
    "similarity.label_similarity_matrix",
    "sampler.mine_batch",
    "sampler.select_anchors_das",
    "sampler.select_positives_rhdis",
    "sampler.select_negatives_rhdis",
    "sampler.build_triplets",
    "trainer.adam_step",
    "trainer.train",
    "retrieval.evaluate",
    "retrieval.knn_retrieve",
    "retrieval.pair_metrics",
)

SPAN_METRICS = (("calls", "count"), ("busy_s", "s"), ("ms_p50", "ms"), ("ms_p90", "ms"))
EXTRA_METRICS = (
    ("sampler.triplets_per_batch", "count"),
    ("sampler.active_frac", "fraction"),
    ("trainer.batch.ms_p50", "ms"),
    ("trainer.batch.ms_p90", "ms"),
    ("retrieval.queries", "count"),
    ("trace_overhead_frac", "fraction"),
)


def per_layer_metrics() -> list:
    """(name, unit) of every per-layer metric, in print order."""
    return [(f"{s}.{m}", u) for s in SPANS for m, u in SPAN_METRICS] + list(EXTRA_METRICS)


def _target(dotted: str):
    """(owner, attribute) for a span name such as ``core.BatchView.from_embeddings``."""
    *path, attr = dotted.split(".")
    owner = importlib.import_module(f"tripmine.{path[0]}")
    for name in path[1:]:
        owner = getattr(owner, name)
    return owner, attr


def _percentile_ms(seconds, q: float) -> float:
    return float(np.percentile(seconds, q)) * 1e3 if len(seconds) else 0.0


class Tracer:
    """Span recorder for one traced run.

    ``alpha`` is the training margin, used to count how many mined triplets
    have a positive hinge on the batch's raw distances.
    """

    def __init__(self, alpha: float = 0.2):
        self.alpha = alpha
        self.spans = []  # [name, start, end, parent]
        self._stack = []
        self.triplets = []  # mined triplets per batch
        self.active = 0  # mined triplets with d(a,p) - d(a,n) + alpha > 0
        self.queries = 0

    def _on_mine(self, args, tset) -> None:
        t = tset.triplets
        self.triplets.append(int(t.shape[0]))
        if t.shape[0]:
            d = args[0].dist_raw
            self.active += int((d[t[:, 0], t[:, 1]] - d[t[:, 0], t[:, 2]] + self.alpha > 0.0).sum())

    def _on_evaluate(self, args, _report) -> None:
        self.queries += len(args[1])

    def _wrap(self, name: str, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx][1:3] = start, end
            if on_result is not None:
                on_result(args, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Swap the wrappers in; on exit restore and verify every original."""
        hooks = {"sampler.mine_batch": self._on_mine, "retrieval.evaluate": self._on_evaluate}
        saved = []
        try:
            for name in SPANS:
                owner, attr = _target(name)
                raw = owner.__dict__[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    wrapped = classmethod(self._wrap(name, raw.__func__, hooks.get(name)))
                else:
                    wrapped = self._wrap(name, raw, hooks.get(name))
                setattr(owner, attr, wrapped)
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)
            for owner, attr, raw in saved:
                if owner.__dict__[attr] is not raw:
                    raise RuntimeError(f"trace wrapper left in place on {owner.__name__}.{attr}")

    def summary(self, overhead_frac: float) -> dict:
        """Per-layer metrics: per span its call count, busy (self) time and
        duration percentiles, plus the extra counts; absent spans read 0."""
        names = np.array([s[0] for s in self.spans], dtype=object)
        dur = np.array([s[2] - s[1] for s in self.spans], dtype=np.float64)
        child = np.zeros_like(dur)
        for i, s in enumerate(self.spans):
            if s[3] >= 0:
                child[s[3]] += dur[i]
        self_time = dur - child
        out = {}
        for span in SPANS:
            mask = names == span
            out[f"{span}.calls"] = int(mask.sum())
            out[f"{span}.busy_s"] = float(self_time[mask].sum())
            out[f"{span}.ms_p50"] = _percentile_ms(dur[mask], 50)
            out[f"{span}.ms_p90"] = _percentile_ms(dur[mask], 90)
        # one training batch runs from its forward to its adam_step, both direct
        # children of trainer.train
        batches, start = [], None
        for name, s0, s1, parent in self.spans:
            if parent < 0 or self.spans[parent][0] != "trainer.train":
                continue
            if name == "embedder.forward":
                start = s0
            elif name == "trainer.adam_step" and start is not None:
                batches.append(s1 - start)
                start = None
        mined = sum(self.triplets)
        out["sampler.triplets_per_batch"] = mined / len(self.triplets) if self.triplets else 0.0
        out["sampler.active_frac"] = self.active / mined if mined else 0.0
        out["trainer.batch.ms_p50"] = _percentile_ms(batches, 50)
        out["trainer.batch.ms_p90"] = _percentile_ms(batches, 90)
        out["retrieval.queries"] = self.queries
        out["trace_overhead_frac"] = overhead_frac
        return out
