"""Spans recorded from the benchmark's side around calls into each layer.

The program itself is not changed: :class:`Patches` replaces a public
function or method *where its caller looks it up* with a wrapper that
opens a span on a :class:`Recorder`, and puts the original back on
:meth:`Patches.restore`.  Spans live in memory and are written out once,
at the end (:meth:`Recorder.dump`).

Times are ``time.perf_counter`` seconds.  On Linux that clock is
``CLOCK_MONOTONIC``, shared by every process on the host, so spans dumped
by the traced server line up with the client's timed windows.
"""

from __future__ import annotations

import json
import statistics
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from dssbench.stats import Interval, coverage, self_times

_MISSING = object()

#: Spans whose union is the "named" part of one traced ``DSSDDI.fit``
#: (everything below the two module fits).
FIT_LEAVES = (
    "ml.kmeans",
    "causal.treatment",
    "causal.counterfactual",
    "train.ddi_epoch",
    "train.md_epoch",
)

#: Spans whose union is the named part of one server-side request.
REQUEST_LEAVES = (
    "server.http.read",
    "server.http.decode",
    "server.app.suggest",
    "server.app.explain",
    "server.http.write",
)


class Recorder:
    """Spans ``[name, start, end, parent]`` plus timestamped values.

    Thread-safe: each thread keeps its own stack of open spans, so a
    span's parent is the innermost span open on the same thread.
    """

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.values: List[Tuple[str, float, float]] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str) -> int:
        """Open a span; returns its index for :meth:`end`."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        stack.append(index)
        return index

    def end(self, index: int) -> None:
        """Close the span ``index`` (the innermost open one on this thread)."""
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        if not stack or stack[-1] != index:
            raise RuntimeError(f"span {self.spans[index][0]} closed out of order")
        stack.pop()

    def observe(self, name: str, value: float, at: Optional[float] = None) -> None:
        """Record one value (a row count, a derived wait) at time ``at``."""
        with self._lock:
            self.values.append(
                (name, time.perf_counter() if at is None else at, float(value))
            )

    def wrapper(self, name: str) -> Callable[[Callable], Callable]:
        """A :meth:`Patches.replace` factory timing every call as ``name``."""

        def factory(fn: Callable) -> Callable:
            def traced(*args, **kwargs):
                index = self.begin(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.end(index)

            traced.__wrapped__ = fn
            return traced

        return factory

    # ------------------------------------------------------------------
    def dump(self, path: Path) -> None:
        """Write every span and value as one JSON file, atomically."""
        from repro.atomicio import atomic_write_json

        with self._lock:
            payload = {"spans": list(self.spans), "values": list(self.values)}
        atomic_write_json(path, payload, site="bench.spans", durable=False)

    @classmethod
    def load(cls, path: Path) -> "Recorder":
        """Read back a :meth:`dump`."""
        data = json.loads(Path(path).read_text())
        rec = cls()
        rec.spans = [list(s) for s in data["spans"]]
        rec.values = [tuple(v) for v in data["values"]]
        return rec

    # ------------------------------------------------------------------
    def closed(self, windows: Optional[Sequence[Interval]] = None) -> List[list]:
        """Finished spans starting inside any of ``windows`` (all if None)."""
        return [s for s in self.spans if s[2] is not None and _inside(s[1], windows)]

    def durations(
        self, name: str, windows: Optional[Sequence[Interval]] = None
    ) -> List[float]:
        """Durations in seconds of the finished spans called ``name``."""
        return [s[2] - s[1] for s in self.closed(windows) if s[0] == name]

    def self_durations(
        self, name: str, windows: Optional[Sequence[Interval]] = None
    ) -> List[float]:
        """Self times in seconds of the finished spans called ``name``."""
        triples = [(s[1], s[1] if s[2] is None else s[2], s[3]) for s in self.spans]
        return [
            t for s, t in zip(self.spans, self_times(triples))
            if s[0] == name and s[2] is not None and _inside(s[1], windows)
        ]

    def observed(
        self, name: str, windows: Optional[Sequence[Interval]] = None
    ) -> List[float]:
        """Values recorded under ``name`` inside ``windows`` (all if None)."""
        return [v for n, t, v in self.values if n == name and _inside(t, windows)]


def _inside(t: float, windows: Optional[Sequence[Interval]]) -> bool:
    return windows is None or any(a <= t <= b for a, b in windows)


class Patches:
    """Attribute replacements undone in reverse order by :meth:`restore`."""

    def __init__(self) -> None:
        self._saved: List[Tuple[Any, str, Any]] = []

    def replace(self, owner: Any, attr: str, factory: Callable[[Callable], Callable]) -> None:
        """Set ``owner.attr`` to ``factory(current value)``."""
        own = vars(owner).get(attr, _MISSING)
        current = getattr(owner, attr)
        setattr(owner, attr, factory(current))
        self._saved.append((owner, attr, own))

    def restore(self) -> None:
        """Put every replaced attribute back."""
        while self._saved:
            owner, attr, own = self._saved.pop()
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)


def median_or_zero(values: Iterable[float]) -> float:
    """Median of ``values``; 0.0 when the layer did not run."""
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean_or_zero(values: Iterable[float]) -> float:
    """Mean of ``values``; 0.0 when the layer did not run."""
    values = list(values)
    return statistics.fmean(values) if values else 0.0


# ----------------------------------------------------------------------
# Training side
# ----------------------------------------------------------------------
def instrument_epochs(rec: Recorder, patches: Patches) -> None:
    """Time every Trainer epoch as ``train.ddi_epoch`` / ``train.md_epoch``.

    The module a loop belongs to is read from its step function's
    qualified name (``DDIModule.fit.<locals>.step`` and the like).
    """
    from repro.train import Callback
    from repro.train.trainer import Trainer

    class EpochSpans(Callback):
        def __init__(self, name: str) -> None:
            self.name = name
            self.index = -1

        def on_epoch_start(self, state) -> None:
            self.index = rec.begin(self.name)

        def on_epoch_end(self, state) -> None:
            rec.end(self.index)

    def factory(fit: Callable) -> Callable:
        def traced_fit(self, model_step, state, loader=None, callbacks=()):
            owner = getattr(model_step, "__qualname__", "").split(".")[0]
            kind = {"DDIModule": "ddi", "MDModule": "md"}.get(owner, "other")
            spans = EpochSpans(f"train.{kind}_epoch")
            return fit(self, model_step, state, loader, list(callbacks) + [spans])

        return traced_fit

    patches.replace(Trainer, "fit", factory)


def instrument_fit(rec: Recorder, patches: Patches) -> None:
    """Spans around the layers one ``DSSDDI.fit`` calls into."""
    import repro.core.md_module as md
    from repro.core.ddi_module import DDIModule
    from repro.gnn.lightgcn import LightGCNPropagation
    from repro.nn.optim import Adam
    from repro.nn.tensor import Tensor

    patches.replace(md, "kmeans", rec.wrapper("ml.kmeans"))
    patches.replace(md, "build_treatment", rec.wrapper("causal.treatment"))
    patches.replace(md, "suggest_gammas", rec.wrapper("causal.counterfactual"))
    patches.replace(md, "build_counterfactual_links", rec.wrapper("causal.counterfactual"))
    patches.replace(DDIModule, "fit", rec.wrapper("core.ddi.fit"))
    patches.replace(md.MDModule, "fit", rec.wrapper("core.md.fit"))
    patches.replace(LightGCNPropagation, "forward", rec.wrapper("gnn.propagation"))
    patches.replace(Tensor, "backward", rec.wrapper("nn.backward"))
    patches.replace(Adam, "step", rec.wrapper("nn.optim.step"))

    def pair_logits_factory(fn: Callable) -> Callable:
        def traced(h_left, h_right, left_idx, *args, **kwargs):
            index = rec.begin("nn.pair_logits")
            try:
                out = fn(h_left, h_right, left_idx, *args, **kwargs)
            finally:
                rec.end(index)
            rec.observe("nn.pair_logits.rows", len(left_idx))
            backward = getattr(out, "_backward", None)
            if backward is not None:
                # The fused op's gradient runs later, inside Tensor.backward;
                # time it as its own child span of nn.backward.
                def traced_backward(grad):
                    inner = rec.begin("nn.pair_logits.backward")
                    try:
                        backward(grad)
                    finally:
                        rec.end(inner)

                out._backward = traced_backward
            return out

        return traced

    patches.replace(md, "pair_interaction_logits", pair_logits_factory)


def fit_layers(rec: Recorder, fit: Interval) -> Dict[str, float]:
    """Per-layer figures of one traced fit spanning ``fit``."""
    window = [fit]
    ms = 1000.0

    def total(name: str) -> float:
        return sum(rec.durations(name, window))

    leaves = [
        (s[1], s[2]) for s in rec.closed(window) if s[0] in FIT_LEAVES
    ]
    return {
        "ml.kmeans_s": total("ml.kmeans"),
        "causal.treatment_s": total("causal.treatment"),
        "causal.counterfactual_s": total("causal.counterfactual"),
        "core.ddi.fit_s": total("core.ddi.fit"),
        "core.md.fit_s": total("core.md.fit"),
        "train.ddi_epoch_ms": median_or_zero(rec.durations("train.ddi_epoch", window)) * ms,
        "train.md_epoch_ms": median_or_zero(rec.durations("train.md_epoch", window)) * ms,
        "gnn.propagation_ms": total("gnn.propagation") * ms,
        "gnn.propagation.calls": float(len(rec.durations("gnn.propagation", window))),
        "nn.pair_logits_ms": (
            total("nn.pair_logits") + total("nn.pair_logits.backward")
        ) * ms,
        "nn.pair_logits.calls": float(len(rec.durations("nn.pair_logits", window))),
        "nn.pair_logits.rows": sum(rec.observed("nn.pair_logits.rows", window)),
        "nn.backward_ms": sum(rec.self_durations("nn.backward", window)) * ms,
        "nn.backward.calls": float(len(rec.durations("nn.backward", window))),
        "nn.optim.step_ms": total("nn.optim.step") * ms,
        "bench.fit_coverage": coverage(fit, leaves),
    }


# ----------------------------------------------------------------------
# Server side
# ----------------------------------------------------------------------
def instrument_server(rec: Recorder, patches: Patches) -> None:
    """Spans around the gateway's layers, installed before ``cli.main``."""
    import repro.serving.artifact as artifact
    from repro.core.ms_module import MSModule
    from repro.server import http
    from repro.server.app import GatewayApp
    from repro.server.batcher import MicroBatcher
    from repro.serving.scorer import BatchScorer
    from repro.serving.service import SuggestionService

    patches.replace(http.GatewayRequestHandler, "do_POST", rec.wrapper("server.http.post"))
    patches.replace(http, "parse_json_body", rec.wrapper("server.http.decode"))
    # The handler's body read and its JSON encode + socket write.
    patches.replace(http.GatewayRequestHandler, "_read_body", rec.wrapper("server.http.read"))
    patches.replace(http.GatewayRequestHandler, "_send_json", rec.wrapper("server.http.write"))
    patches.replace(GatewayApp, "suggest", rec.wrapper("server.app.suggest"))
    patches.replace(GatewayApp, "explain", rec.wrapper("server.app.explain"))
    patches.replace(SuggestionService, "topk_from_scores", rec.wrapper("serving.topk"))
    patches.replace(MSModule, "explain", rec.wrapper("ms.explain"))
    patches.replace(artifact, "load_system", rec.wrapper("serving.artifact.load"))

    def scores_factory(fn: Callable) -> Callable:
        def traced(self, patient_features):
            index = rec.begin("serving.scorer.scores")
            try:
                return fn(self, patient_features)
            finally:
                rec.end(index)
                rec.observe("serving.scorer.rows", len(patient_features), at=rec.spans[index][1])

        return traced

    def submit_factory(fn: Callable) -> Callable:
        def traced(self, rows, meta=None, timeout=None):
            index = rec.begin("server.batcher.submit")
            try:
                result = fn(self, rows, meta=meta, timeout=timeout)
            finally:
                rec.end(index)
            _name, start, end, _parent = rec.spans[index]
            context = result[1]
            # The flush context carries the scoring stamps; what is left
            # of the submit is time spent waiting for a flush.
            scoring = getattr(context, "score_ended", 0.0) - getattr(
                context, "score_started", 0.0
            )
            rec.observe("server.batcher.wait", (end - start) - scoring, at=start)
            rec.observe("server.batcher.request_rows", rows.shape[0], at=start)
            return result

        return traced

    patches.replace(BatchScorer, "scores", scores_factory)
    patches.replace(MicroBatcher, "submit", submit_factory)
