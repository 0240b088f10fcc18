"""Pre-fork pool: supervision units + one real multi-process pool.

The unit half covers the pieces in isolation (backoff policy, the
cross-process stats board, the drain-time request tracker, pool state
round-trips).  The subprocess half boots an actual
``python -m repro.server --workers 2`` pool — supervisor + forked
workers over one shared socket — and checks the full surface: pool.json
pids, per-worker identity in /healthz and /v1/suggest, mmap'd loading,
``repro_pool_*`` metric aggregation, bitwise score parity with the
single-process gateway, and a clean SIGTERM exit.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core import ServerConfig
from repro.server import (
    GatewayApp,
    ModelRegistry,
    RequestTracker,
    StatsBoard,
    backoff_delay,
    read_pool_state,
    write_pool_state,
)
from repro.server.loadgen import make_feature_pool


class TestBackoffDelay:
    def test_exponential_growth_from_base(self):
        assert backoff_delay(0) == 0.0
        assert backoff_delay(1, base=0.1, cap=5.0) == pytest.approx(0.1)
        assert backoff_delay(2, base=0.1, cap=5.0) == pytest.approx(0.2)
        assert backoff_delay(4, base=0.1, cap=5.0) == pytest.approx(0.8)

    def test_cap_bounds_a_crash_loop(self):
        assert backoff_delay(30, base=0.1, cap=5.0) == 5.0
        assert backoff_delay(1000, base=0.5, cap=2.0) == 2.0


class TestStatsBoard:
    def test_publish_read_roundtrip(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 5, "pid": 111})
        board.publish(1, {"requests_total": 7, "pid": 222})
        snaps = board.read_all()
        assert [s["worker"] for s in snaps] == [0, 1]
        assert sum(s["requests_total"] for s in snaps) == 12
        assert all("published_at" in s for s in snaps)

    def test_republish_replaces_not_appends(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 5})
        board.publish(0, {"requests_total": 9})
        snaps = board.read_all()
        assert len(snaps) == 1
        assert snaps[0]["requests_total"] == 9

    def test_clear_removes_worker(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(3, {"requests_total": 1})
        board.clear(3)
        board.clear(3)  # idempotent
        assert board.read_all() == []

    def test_corrupt_and_foreign_files_are_skipped(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 2})
        (tmp_path / "worker-1.json").write_text("{half a json")
        (tmp_path / "notes.txt").write_text("not a snapshot")
        snaps = board.read_all()
        assert len(snaps) == 1 and snaps[0]["worker"] == 0

    def test_render_aggregate_sums_workers(self, tmp_path):
        board = StatsBoard(tmp_path)
        board.publish(0, {"requests_total": 10, "errors_total": 1,
                          "patients_scored": 10, "inflight": 2, "pid": 11})
        board.publish(1, {"requests_total": 20, "errors_total": 0,
                          "patients_scored": 20, "inflight": 1, "pid": 22})
        text = board.render_aggregate()
        assert "repro_pool_workers_reporting 2" in text
        assert "repro_pool_requests_total 30" in text
        assert "repro_pool_errors_total 1" in text
        assert "repro_pool_patients_scored_total 30" in text
        assert "repro_pool_inflight_requests 3" in text
        assert 'repro_pool_worker_requests_total{worker="0"} 10' in text
        assert 'repro_pool_worker_requests_total{worker="1"} 20' in text

    def test_empty_board_renders_zeroes(self, tmp_path):
        text = StatsBoard(tmp_path / "fresh").render_aggregate()
        assert "repro_pool_workers_reporting 0" in text
        assert "repro_pool_requests_total 0" in text


class TestPoolState:
    def test_roundtrip(self, tmp_path):
        write_pool_state(tmp_path, {"port": 1234, "workers": {"0": 99}})
        state = read_pool_state(tmp_path)
        assert state == {"port": 1234, "workers": {"0": 99}}

    def test_missing_or_corrupt_is_none(self, tmp_path):
        assert read_pool_state(tmp_path / "nowhere") is None
        (tmp_path / "pool.json").write_text("nope{")
        assert read_pool_state(tmp_path) is None


class TestRequestTracker:
    def test_counts_inflight_and_total(self):
        tracker = RequestTracker()
        tracker.begin()
        tracker.begin()
        assert tracker.inflight == 2
        tracker.end()
        assert tracker.inflight == 1
        assert tracker.total == 2

    def test_wait_idle_returns_when_drained(self):
        tracker = RequestTracker()
        tracker.begin()

        def finish():
            time.sleep(0.05)
            tracker.end()

        thread = threading.Thread(target=finish)
        thread.start()
        assert tracker.wait_idle(timeout=5.0) is True
        thread.join()

    def test_wait_idle_times_out_with_stuck_request(self):
        tracker = RequestTracker()
        tracker.begin()
        started = time.monotonic()
        assert tracker.wait_idle(timeout=0.1) is False
        assert time.monotonic() - started < 2.0

    def test_idle_tracker_returns_immediately(self):
        assert RequestTracker().wait_idle(timeout=0.0) is True


class TestPoolSubprocess:
    def test_two_worker_pool_end_to_end(self, pool_factory, fitted_system):
        _system, x_pool = fitted_system
        pool = pool_factory(workers=2)

        # --- pool.json is the live-pid record -------------------------
        pids = pool.worker_pids()
        assert sorted(pids) == [0, 1]
        for pid in pids.values():
            os.kill(pid, 0)  # alive (raises if not)
        state = pool.state()
        assert state["mmap"] is True
        assert state["num_workers"] == 2

        # --- per-worker identity + mmap in /healthz -------------------
        status, health = pool.get("/healthz")
        assert status == 200
        assert health["status"] == "ok"
        worker = health["worker"]
        assert worker["worker"] in (0, 1)
        assert worker["pid"] == pids[worker["worker"]]
        assert worker["mmap"] is True  # workers open the artifact mmap'd

        # --- suggest works and names the worker that served it --------
        payload = {"features": [x_pool[0].tolist()], "k": 3,
                   "return_scores": True}
        status, body = pool.post("/v1/suggest", payload)
        assert status == 200
        assert body["worker"] in (0, 1)
        assert len(body["suggestions"][0]) == 3

        # --- bitwise parity with the single-process gateway -----------
        app = GatewayApp(ModelRegistry(pool.state()["root"]), ServerConfig())
        try:
            ref_status, ref_body = app.suggest(payload)
        finally:
            app.close()
        assert ref_status == 200
        assert body["suggestions"] == ref_body["suggestions"]
        assert body["scores"] == ref_body["scores"]
        assert body["version"] == ref_body["version"]

        # --- /metrics aggregates across processes ---------------------
        sent = 0
        for row in make_feature_pool(x_pool.shape[1], pool_size=24, seed=3):
            status, _ = pool.post(
                "/v1/suggest", {"features": [row.tolist()], "k": 2}
            )
            assert status == 200
            sent += 1
        deadline = time.monotonic() + 10.0
        seen_total = -1
        while time.monotonic() < deadline:
            status, text = pool.get("/metrics")
            assert status == 200
            assert "repro_pool_workers_reporting" in text
            for line in text.splitlines():
                if line.startswith("repro_pool_requests_total "):
                    seen_total = int(line.split()[-1])
            if seen_total >= sent:
                break
            time.sleep(0.3)  # snapshots publish every stats_interval
        assert seen_total >= sent
        assert "repro_server_worker_info" in text

        # --- SIGTERM: clean drain, exit 0, empty pid map --------------
        assert pool.terminate() == 0
        assert pool.state()["workers"] == {}

    def test_requests_spread_across_workers(self, pool_factory, fitted_system):
        # The kernel load-balances accepts over the shared socket; with
        # fresh connections per request both workers should serve some.
        _system, x_pool = fitted_system
        pool = pool_factory(workers=2)
        seen = set()
        payload = {"features": [x_pool[1].tolist()], "k": 2}
        for _ in range(60):
            status, body = pool.post("/v1/suggest", payload)
            assert status == 200
            seen.add(body["worker"])
            if seen == {0, 1}:
                break
        assert seen == {0, 1}


# A supervisor whose one worker is a stand-in for ``worker_main``: it
# signals readiness with a file, then on SIGTERM drains ("clean"), exits
# 1 ("failing"), or ignores the signal and never drains ("stuck").
_FAKE_POOL = """
import signal, sys, time
from pathlib import Path
from repro.core import ServerConfig
from repro.server import pool

mode, root = sys.argv[1], Path(sys.argv[2])

def fake_worker(worker_id, sock, root_dir, config, **kwargs):
    stop = []
    if mode == "stuck":
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
    else:
        signal.signal(signal.SIGTERM, lambda *args: stop.append(True))
    (root / "ready").touch()
    while not stop:
        time.sleep(0.01)
    return 0 if mode == "clean" else 1

pool.worker_main = fake_worker
config = ServerConfig(workers=1, port=0, drain_timeout_s=0.05)
sys.exit(pool.WorkerSupervisor(root, config, root / "stats").run())
"""


class TestSupervisorExitCode:
    @pytest.mark.parametrize(
        "mode,code,event",
        [
            ("clean", 0, None),
            ("failing", 1, "worker_drain_failed"),
            ("stuck", 1, "worker_drain_timeout_kill"),
        ],
    )
    def test_exit_code_reports_unclean_drain(self, tmp_path, mode, code, event):
        env = dict(os.environ)
        src = os.path.join(os.path.dirname(__file__), "..", "..", "src")
        env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
        proc = subprocess.Popen(
            [sys.executable, "-c", _FAKE_POOL, mode, str(tmp_path)],
            env=env,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            deadline = time.monotonic() + 30.0
            while not (tmp_path / "ready").exists():
                assert proc.poll() is None, proc.stderr.read()
                assert time.monotonic() < deadline, "worker never became ready"
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            _out, err = proc.communicate(timeout=30.0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        assert proc.returncode == code, err
        if event is not None:
            assert event in err
        assert read_pool_state(tmp_path / "stats")["workers"] == {}
