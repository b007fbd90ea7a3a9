"""Layer spans recorded from outside the program.

:class:`Tracer` replaces the public functions of each ``mtmd`` module with
timing wrappers, at the place where the calling module looks them up
(``mtmd.model.encode_panel`` for the encoder, ``mtmd.concepts.*`` for the
concept stages, and so on).  No file of the program is edited, and
:meth:`Tracer.uninstall` puts every original back, so the untimed code
paths are exactly those of an untraced run.

Spans are kept in memory as ``(name, duration, self_time, parent)``
tuples; a span's self time is its duration minus the durations of the
spans it directly caused.  :func:`layer_metrics` folds them into the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, str | None]] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[list] = []  # [name, child_time] of the spans still running
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, name, count=None) -> None:
        """Time every call of ``owner.attr`` as a span.

        ``name`` is a span name, or a function of the call's arguments that
        returns one.  ``count(args, kwargs, result)`` returns a mapping of
        counter increments recorded after the call returns.
        """
        original = getattr(owner, attr)
        spans, counts, open_spans = self.spans, self.counts, self._open

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            frame = [label, 0.0]
            open_spans.append(frame)
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                open_spans.pop()
                parent = None
                if open_spans:
                    open_spans[-1][1] += duration
                    parent = open_spans[-1][0]
                spans.append((label, duration, duration - frame[1], parent))
            if count is not None:
                for key, value in count(args, kwargs, result).items():
                    counts[key] += value
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # A span caused by a span of its own name (``metrics.score_date`` calling
    # ``metrics.ic``) is already inside its parent's duration and call.
    def total(self, *names: str, parent: str | None = None) -> float:
        return sum(d for n, d, _, p in self.spans
                   if n in names and p != n and (parent is None or p == parent))

    def self_total(self, *names: str) -> float:
        return sum(s for n, _, s, _ in self.spans if n in names)

    def calls(self, *names: str) -> int:
        return sum(1 for n, _, _, p in self.spans if n in names and p != n)


def _forward_span(args, kwargs) -> str:
    mode = kwargs.get("mode", args[5] if len(args) > 5 else "train")
    return f"model.forward.{mode}"


def install(tracer: Tracer, mtmd) -> None:
    """Wrap the layer boundaries of an imported ``mtmd`` package."""
    data, model, harness = mtmd.data, mtmd.model, mtmd.harness
    panel_rows = lambda panel: len(panel.slices) * panel.slices[0].n_stocks

    tracer.wrap(data, "write_panel_csv", "data.write",
                lambda a, k, r: {"data.write_rows": panel_rows(a[0])})
    tracer.wrap(data, "write_concepts_csv", "data.write")
    tracer.wrap(data, "load_panel", "data.load",
                lambda a, k, r: {"data.load_rows": panel_rows(r[0])})
    tracer.wrap(data.ConceptGraph, "mask_for", "data.mask")

    tracer.wrap(model, "encode_panel", "encoder.forward",
                lambda a, k, r: {"encoder.rows": r.data.shape[0]})

    for attr, span in (("init_predefined", "concepts.predefined"),
                       ("correct_predefined", "concepts.predefined"),
                       ("assign_hidden", "concepts.hidden"),
                       ("hidden_embeddings", "concepts.hidden"),
                       ("local_aggregate", "concepts.local"),
                       ("individual_features", "concepts.individual")):
        tracer.wrap(mtmd.concepts, attr, span)

    tracer.wrap(model, "global_aggregate", "memory.read")
    tracer.wrap(model, "memorize", "memory.write",
                lambda a, k, r: {"memory.rows_written": min(r.n_items, a[0].data.shape[0])})

    # predict looks forward up in mtmd.model; train and export in mtmd.harness
    tracer.wrap(model, "forward", _forward_span)
    tracer.wrap(harness, "forward", _forward_span)
    tracer.wrap(harness, "predict", "model.predict")
    tracer.wrap(mtmd.autodiff, "backward", "autodiff.backward")

    tracer.wrap(harness, "train", "harness.train")
    tracer.wrap(harness, "evaluate", "harness.evaluate")
    tracer.wrap(harness, "export_embeddings", "harness.export")

    for attr in ("score_date", "ic", "aggregate"):
        tracer.wrap(mtmd.metrics, attr, "metrics.score")

    tracer.wrap(mtmd.checkpoint, "save_checkpoint", "checkpoint.save",
                lambda a, k, r: {"checkpoint.bytes": os.path.getsize(a[1])})
    tracer.wrap(mtmd.checkpoint, "load_checkpoint", "checkpoint.load")


def layer_metrics(tracer: Tracer, epochs: int, encoder_backward_s: float,
                  probe_backward_s: float, overhead_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced round, keyed by their benchmark names.

    ``encoder_backward_s`` and ``probe_backward_s`` are the encoder-only and
    whole-model backward sweeps of the probe run after the traced round.
    """
    t, c = tracer, tracer.counts
    backward_s = t.total("autodiff.backward")
    forward_names = ("model.forward.train", "model.forward.eval")
    return {
        "data.write_s": t.total("data.write"),
        "data.write_rows": c["data.write_rows"],
        "data.load_s": t.total("data.load"),
        "data.load_rows": c["data.load_rows"],
        "data.mask_s": t.total("data.mask"),
        "data.mask_calls": t.calls("data.mask"),
        "encoder.forward_s": t.total("encoder.forward"),
        "encoder.forward_calls": t.calls("encoder.forward"),
        "encoder.rows": c["encoder.rows"],
        "encoder.backward_s": encoder_backward_s,
        "concepts.predefined_s": t.total("concepts.predefined"),
        "concepts.hidden_s": t.total("concepts.hidden"),
        "concepts.local_s": t.total("concepts.local"),
        "concepts.individual_s": t.total("concepts.individual"),
        "memory.read_s": t.total("memory.read"),
        "memory.read_calls": t.calls("memory.read"),
        "memory.write_s": t.total("memory.write"),
        "memory.write_calls": t.calls("memory.write"),
        "memory.rows_written": c["memory.rows_written"],
        "model.forward_train_s": t.total("model.forward.train"),
        "model.forward_eval_s": t.total("model.forward.eval"),
        "model.forward_calls": t.calls(*forward_names),
        "model.forward_self_s": t.self_total(*forward_names),
        "autodiff.backward_s": backward_s,
        "autodiff.backward_calls": t.calls("autodiff.backward"),
        "autodiff.sweep_other_s": probe_backward_s - encoder_backward_s,
        "harness.train_s": t.total("harness.train"),
        "harness.epochs": epochs,
        "harness.train_steps": t.calls("model.forward.train"),
        "harness.valid_s": t.total("model.predict", parent="harness.train"),
        "harness.train_self_s": t.self_total("harness.train"),
        "harness.evaluate_s": t.total("harness.evaluate"),
        "harness.export_s": t.total("harness.export"),
        "harness.export_write_s": t.self_total("harness.export"),
        "metrics.score_s": t.total("metrics.score"),
        "metrics.score_calls": t.calls("metrics.score"),
        "checkpoint.save_s": t.total("checkpoint.save"),
        "checkpoint.load_s": t.total("checkpoint.load"),
        "checkpoint.bytes": c["checkpoint.bytes"],
        "trace.overhead_s": overhead_s,
    }
