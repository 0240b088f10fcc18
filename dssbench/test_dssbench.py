"""Tests of the benchmark itself: its arithmetic, its checks, and a smoke
run of every workload through the real code paths (``--size smoke``)."""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from dssbench import common, serve, stats
from dssbench.spans import Patches, Recorder
from dssbench.train import FIT_LAYERS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------
def test_percentile_interpolates_like_numpy():
    values = [7.0, 1.0, 3.0, 10.0, 2.0, 9.0, 4.0, 8.0, 5.0, 6.0]
    for q in (0, 10, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(np.percentile(values, q))
    assert stats.beyond(values, 90) == 1
    with pytest.raises(ValueError):
        stats.percentile([], 50)


def test_timing_summary_counts_samples_beyond_p90():
    summary = stats.timing_summary([float(v) for v in range(1, 101)])
    assert summary["p50"] == 50.5
    assert summary["p90"] == pytest.approx(90.1)
    assert summary["count"] == 100
    assert summary["beyond_p90"] == 10


def test_spread_is_interquartile_share_of_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx((q3 - q1) / 10.0)
    assert stats.spread([3.0]) == 0.0


def test_lateness_counts_early_sends_as_on_time():
    due = [1.0, 2.0, 3.0]
    sent = [1.002, 1.999, 3.0105]
    assert stats.lateness_ms(due, sent) == pytest.approx([2.0, 0.0, 10.5])
    with pytest.raises(ValueError):
        stats.lateness_ms([1.0], [])


def test_union_and_coverage_count_overlaps_once():
    assert stats.union_length([(0, 2), (1, 3), (5, 6)]) == 4
    assert stats.union_length([(0, 2), (1, 3)], clip=(1.5, 10)) == 1.5
    assert stats.coverage((0, 10), [(1, 4), (3, 5), (9, 12)]) == pytest.approx(0.5)
    assert stats.coverage((0, 0), [(0, 1)]) == 0.0


def test_self_time_subtracts_children_once():
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),    # child
        (3.0, 6.0, 0),    # overlapping child
        (2.0, 3.0, 1),    # grandchild: not subtracted from the root
    ]
    assert stats.self_times(spans) == pytest.approx([5.0, 2.0, 3.0, 1.0])


def test_recorder_nests_filters_and_round_trips(tmp_path):
    rec = Recorder()
    outer = rec.begin("outer")
    inner = rec.begin("inner")
    rec.end(inner)
    rec.observe("rows", 8)
    rec.end(outer)
    assert rec.spans[inner][3] == outer
    assert len(rec.durations("inner")) == 1
    assert rec.durations("inner", windows=[(-2.0, -1.0)]) == []
    (outer_self,) = rec.self_durations("outer")
    assert outer_self == pytest.approx(
        rec.durations("outer")[0] - rec.durations("inner")[0]
    )
    rec.dump(tmp_path / "spans.json")
    loaded = Recorder.load(tmp_path / "spans.json")
    assert loaded.spans == rec.spans
    assert loaded.observed("rows") == [8.0]


def test_patches_restore_own_and_inherited_attributes():
    class Base:
        def hello(self):
            return "base"

    class Child(Base):
        pass

    rec = Recorder()
    patches = Patches()
    patches.replace(Child, "hello", rec.wrapper("hello"))
    assert Child().hello() == "base"
    assert len(rec.durations("hello")) == 1
    patches.restore()
    assert "hello" not in vars(Child)
    assert Child().hello() == "base"


# ----------------------------------------------------------------------
# Correctness checks
# ----------------------------------------------------------------------
def test_checks_count_differing_or_non_finite_losses():
    checks = common.Checks()
    common.check_losses(checks, [[0.5, 0.4], [0.5, 0.4], [0.5, 0.41], [np.nan]])
    assert checks.attempted == 7
    assert checks.failed == 3  # 0.41 differs; [nan] differs and is non-finite
    assert checks.success_ratio == pytest.approx(4 / 7)


def test_wrong_reference_answer_counts_as_failed(monkeypatch, tmp_path):
    """Serve a real (smoke-size) ward round against a reference whose
    rankings were reversed: every round must be counted as failed."""
    real_expect = serve.expect

    def reversed_expect(prep, ks):
        real_expect(prep, ks)
        for k in ks:
            prep.expected[k] = prep.expected[k][:, ::-1]

    monkeypatch.setattr(serve, "expect", reversed_expect)
    outcome = serve.run(ROOT, "ward", seed=3, seconds=1.0, trace=False,
                        size=common.SMOKE, workdir=tmp_path)
    checks = outcome.checks
    assert checks.failed >= common.SMOKE.min_rounds
    assert all(reason.startswith("ward round") for reason in checks.reasons)
    assert outcome.metrics["success_ratio"] < 1.0


def test_ndcg3_of_ranked_lists_matches_the_program_metric():
    from repro.metrics.ranking import ndcg_at_k

    rng = np.random.default_rng(0)
    scores = rng.random((6, 10))
    labels = (rng.random((6, 10)) < 0.3).astype(int)
    ranked = [list(np.argsort(-row)[:5]) for row in scores]
    assert serve.ndcg3(ranked, labels) == pytest.approx(ndcg_at_k(scores, labels, 3))


# ----------------------------------------------------------------------
# The spec and the command
# ----------------------------------------------------------------------
def test_benchmark_json_names_every_metric_the_code_reports():
    layers = {m["name"] for m in SPEC["per_layer"]}
    assert layers == set(FIT_LAYERS) | set(serve.SERVER_LAYERS) | {"bench.trace_overhead"}
    assert [w["name"] for w in SPEC["workloads"]] == ["train", "clinic", "ward"]
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "dssbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", ["train", "clinic", "ward"])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                "--trace", trace, "--size", "smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    spec = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    elif workload != "train":
        values = {n: m["value"] for n, m in result["metrics"].items()}
        assert values["bench.fit_coverage"] > 0.5
        assert values["bench.request_coverage"] > 0.5


def test_refuses_a_checkout_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "dssbench", tmp_path / "dssbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "train", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
