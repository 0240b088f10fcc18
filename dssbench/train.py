"""The ``train`` workload: a researcher refits DSSDDI on the chronic cohort.

Every figure comes from in-process calls; no request latency is timed.
The untraced run repeats the fit until ``--seconds`` is used up (at least
``Size.min_fits`` times) and reports medians.  The traced run alternates
untraced and traced fits so that the tracing overhead is measured on the
same data, in the same process.
"""

from __future__ import annotations

import gc
import statistics
import time
from typing import Dict, List, Tuple

from dssbench import common
from dssbench.common import Checks, Data, Outcome, Size
from dssbench.spans import Patches, Recorder, fit_layers, instrument_epochs, instrument_fit
from dssbench.stats import percentile, timing_summary

#: Per-layer metrics a traced fit reports (see ``spans.fit_layers``).
FIT_LAYERS = (
    "data.cohort_s",
    "ml.kmeans_s",
    "causal.treatment_s",
    "causal.counterfactual_s",
    "core.ddi.fit_s",
    "core.md.fit_s",
    "train.ddi_epoch_ms",
    "train.md_epoch_ms",
    "gnn.propagation_ms",
    "gnn.propagation.calls",
    "nn.pair_logits_ms",
    "nn.pair_logits.calls",
    "nn.pair_logits.rows",
    "nn.backward_ms",
    "nn.backward.calls",
    "nn.optim.step_ms",
    "bench.fit_coverage",
)


def evaluate(system, data: Data) -> Tuple[float, float]:
    """Top-3 NDCG on the held-out split and test patients scored per second."""
    from repro.metrics.ranking import ndcg_at_k

    x_test = data.x[data.test]
    started = time.perf_counter()
    scores = system.predict_scores(x_test)
    rate = len(x_test) / (time.perf_counter() - started)
    return ndcg_at_k(scores, data.y[data.test], 3), rate


def trainer_steps_per_s(report) -> float:
    """Full-batch training steps (epochs) per second inside both Trainer loops."""
    logs = [log.train for log in (report.ddi_log, report.md_log) if log is not None]
    return sum(log.epochs_run for log in logs) / sum(log.wall_seconds for log in logs)


def traced_fit(
    data: Data, ddi_epochs: int, md_epochs: int, rec: Recorder, counterfactual: bool = True
) -> Tuple[object, object, Dict[str, float]]:
    """One fit with every training-layer span on; returns its layer figures."""
    patches = Patches()
    instrument_fit(rec, patches)
    try:
        index = rec.begin("fit")
        try:
            system, report, _seconds = common.fit(data, ddi_epochs, md_epochs, counterfactual)
        finally:
            rec.end(index)
    finally:
        patches.restore()
    _name, start, end, _parent = rec.spans[index]
    layers = fit_layers(rec, (start, end))
    layers["fit_s"] = end - start
    return system, report, layers


def traced_data(size: Size, rec: Recorder) -> Data:
    """Build the cohort under a ``data.cohort`` span."""
    import repro.data  # noqa: F401  (import time is not set-up time)

    index = rec.begin("data.cohort")
    try:
        return common.make_data(size)
    finally:
        rec.end(index)


def run(seconds: float, trace: bool, size: Size) -> Outcome:
    """The cohort and the fit are fixed, so no seed reaches this workload."""
    rec = Recorder()
    patches = Patches()
    instrument_epochs(rec, patches)
    try:
        return _traced(size, rec) if trace else _untraced(seconds, size, rec)
    finally:
        patches.restore()


def _untraced(seconds: float, size: Size, rec: Recorder) -> Outcome:
    import repro.data  # noqa: F401  (import time is not set-up time)

    checks = Checks()
    setup_times: List[float] = []
    fit_times: List[float] = []
    loss_runs: List[List[float]] = []
    rates: List[float] = []
    steps: List[float] = []
    ndcgs: List[float] = []
    data = None
    peak_rss = 0.0
    started = time.perf_counter()
    # Every step below repeats once per fit, so each metric samples the
    # whole run rather than one stretch of it.
    while len(fit_times) < size.min_fits or (
        time.perf_counter() - started + statistics.median(fit_times) <= seconds
    ):
        for _ in range(size.setup_repeats):
            gc.collect()  # the previous fit's garbage is not set-up work
            built = time.perf_counter()
            fresh = common.make_data(size)
            setup_times.append(time.perf_counter() - built)
            data = data or fresh
        system, report, fit_s = common.fit(data, size.ddi_epochs, size.md_epochs)
        fit_times.append(fit_s)
        loss_runs.append(common.losses(report))
        steps.append(trainer_steps_per_s(report))
        evaluate(system, data)  # the first call after a fit warms its caches
        for _ in range(size.predict_repeats):
            ndcg, rate = evaluate(system, data)
            ndcgs.append(ndcg)
            rates.append(rate)
        # Peak of one build-fit-evaluate cycle; later cycles in the same
        # process only add allocator growth.
        peak_rss = peak_rss or common.self_peak_rss_mb()
    common.check_losses(checks, loss_runs)
    checks.record(len(set(ndcgs)) == 1, f"ndcg differs between fits: {ndcgs}")
    common.check_ndcg(checks, ndcgs[0], size)
    epoch_ms = [d * 1000.0 for d in rec.durations("train.md_epoch")]
    if not epoch_ms:
        raise RuntimeError("no MD training epochs were observed")
    metrics = {
        "setup_s": statistics.median(setup_times),
        "fit_s": statistics.median(fit_times),
        "ndcg_at_3": ndcgs[0],
        "p50_ms": statistics.median(epoch_ms),
        "p90_ms": percentile(epoch_ms, 90.0),
        "max_rps": statistics.median(steps),
        "rows_per_s": statistics.median(rates),
        "peak_rss_mb": peak_rss,
        "success_ratio": checks.success_ratio,
    }
    samples = {
        "setup_s": setup_times,
        "fit_s": fit_times,
        "md_epoch_ms": epoch_ms,
        "max_rps": steps,
        "rows_per_s": rates,
    }
    return Outcome(metrics, checks, samples, {"md_epoch_ms": timing_summary(epoch_ms)})


def _traced(size: Size, rec: Recorder) -> Outcome:
    checks = Checks()
    data = traced_data(size, rec)
    cohort_s = rec.durations("data.cohort")[-1]
    plain: List[float] = []
    traced: List[Dict[str, float]] = []
    loss_runs: List[List[float]] = []
    for with_spans in (False, True, False, True):
        if with_spans:
            _system, report, layers = traced_fit(data, size.ddi_epochs, size.md_epochs, rec)
            traced.append(layers)
        else:
            _system, report, fit_s = common.fit(data, size.ddi_epochs, size.md_epochs)
            plain.append(fit_s)
        loss_runs.append(common.losses(report))
    common.check_losses(checks, loss_runs)
    metrics = {
        name: statistics.median(layers[name] for layers in traced)
        for name in FIT_LAYERS
        if name != "data.cohort_s"
    }
    metrics["data.cohort_s"] = cohort_s
    metrics["bench.trace_overhead"] = (
        statistics.median(t["fit_s"] for t in traced) / statistics.median(plain)
    )
    samples = {
        "untraced_fit_s": plain,
        "traced_fit_s": [t["fit_s"] for t in traced],
    }
    return Outcome(metrics, checks, samples)
