"""The ``clinic`` and ``ward`` workloads: one spawned gateway over real HTTP.

Preparation (untimed): the cohort, a short fit of the served model,
``publish_artifact`` and an in-process reference
:class:`repro.serving.SuggestionService` built from the same artifact
with the gateway's scoring block.  Every served suggestion is compared
with the reference, and a seeded sample of the explanations too.  The
timed traffic runs in slices; between two slices, while the gateway
idles, the served model is refitted and one more gateway is started, so
``fit_s`` and ``setup_s`` sample the whole run.

``clinic`` — doctors see returning patients.  A visit is ``POST
/v1/suggest`` for one held-out patient (k in {3, 4, 5}) then ``POST
/v1/explain`` of the returned set.  An untimed pass replays the whole
visit sequence first (chronic patients revisit on the same regimen, so
every explanation is cached); then each slice runs an open-loop Poisson
phase at a fixed rate, timed from each visit's due time, and a
closed-loop phase.

``ward`` — a ward round on a fresh gateway (cold explanation cache):
one ``/v1/suggest`` for 16-64 patients (k=5), then one ``/v1/explain``
per patient, closed loop over one connection.  The distinct suggestion
sets stay below the explanation cache capacity, so the miss count is
fixed by the seed.
"""

from __future__ import annotations

import gc
import http.client
import json
import math
import os
import queue
import re
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from dssbench import BLAS_ENV, common
from dssbench.common import Checks, Data, Outcome, Size
from dssbench.spans import (
    REQUEST_LEAVES,
    Patches,
    Recorder,
    instrument_epochs,
    mean_or_zero,
    median_or_zero,
)
from dssbench.stats import coverage, lateness_ms, percentile, timing_summary
from dssbench.train import traced_data, traced_fit

#: A clinic visit slower than this misses (``max_rps`` counts the rest).
VISIT_LIMIT_S = 0.050

#: The client never uses more connections (and threads) than this.
MAX_CONNECTIONS = 2

#: Clinic: open-loop visits per second, and the open-loop share of
#: ``--seconds`` (the closed loop gets the rest).
VISIT_RATE = 40.0
OPEN_LOOP_SHARE = 0.7

#: Ward rounds per ``--seconds`` (at least ``Size.min_rounds``).
ROUNDS_PER_SECOND = 20.0

#: Per-layer metrics of a traced gateway.
SERVER_LAYERS = (
    "server.http.post_ms",
    "server.http.read_ms",
    "server.http.decode_ms",
    "server.http.write_ms",
    "bench.wire_ms",
    "server.app.suggest_ms",
    "server.app.explain_ms",
    "server.batcher.wait_ms",
    "server.batcher.rows_per_flush",
    "serving.scorer.scores_ms",
    "serving.scorer.calls",
    "serving.scorer.rows",
    "serving.scorer.useful_row_ratio",
    "serving.topk_ms",
    "ms.explain_ms",
    "ms.explain.calls",
    "serving.explain_hit_ratio",
    "serving.artifact.load_s",
    "loadgen.lateness_ms",
    "bench.request_coverage",
)

_PORT_LINE = re.compile(r"on http://[^:\s]+:(\d+)")


def connections(cap: int) -> int:
    return max(1, min(cap, os.cpu_count() or 1))


# ----------------------------------------------------------------------
# The gateway process
# ----------------------------------------------------------------------
class Gateway:
    """One spawned ``repro-serve`` (optionally under the span launcher)."""

    def __init__(self, root: Path, artifact_root: Path, spans_out: Optional[Path] = None):
        env = dict(os.environ)
        env.update(BLAS_ENV)
        env["PYTHONPATH"] = str(root / "src")
        if spans_out is None:
            cmd = [sys.executable, "-u", "-m", "repro.server"]
        else:
            cmd = [sys.executable, "-u", str(root / "dssbench" / "launch.py"), str(spans_out), "--"]
        self._cmd = cmd + [str(artifact_root), "--port", "0"]
        self._env = env
        self._cwd = root
        self.proc: Optional[subprocess.Popen] = None
        self.port = 0
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self.output: List[str] = []
        self._pump: Optional[threading.Thread] = None

    def start(self, timeout: float = 120.0) -> float:
        """Spawn; returns seconds until ``/healthz`` first answered 200."""
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            self._cmd, cwd=self._cwd, env=self._env, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        self._pump = threading.Thread(target=self._read_output, daemon=True)
        self._pump.start()
        deadline = started + timeout
        while not self.port:
            try:
                line = self._lines.get(timeout=max(0.01, deadline - time.perf_counter()))
            except queue.Empty:
                line = None
            if line is None:
                raise RuntimeError(f"gateway did not start: {self.output[-5:]}")
            match = _PORT_LINE.search(line)
            if match:
                self.port = int(match.group(1))
        while time.perf_counter() < deadline:
            if self._healthz() == 200:
                return time.perf_counter() - started
            time.sleep(0.002)
        raise RuntimeError("gateway never reported healthy")

    def _read_output(self) -> None:
        for line in self.proc.stdout:
            self.output.append(line.rstrip())
            self._lines.put(line)
        self._lines.put(None)

    def _healthz(self) -> int:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
        try:
            conn.request("GET", "/healthz")
            response = conn.getresponse()
            response.read()
            return response.status
        except (OSError, http.client.HTTPException):
            return 0
        finally:
            conn.close()

    def get_text(self, path: str) -> str:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            return conn.getresponse().read().decode("utf-8")
        finally:
            conn.close()

    def peak_rss_mb(self) -> float:
        """The gateway's ``VmHWM`` (peak resident set) in MiB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        kib = re.search(r"VmHWM:\s+(\d+)\s+kB", status)
        return int(kib.group(1)) / 1024.0

    def stop(self) -> None:
        """SIGINT (the gateway's clean shutdown), then wait; kill if stuck."""
        if self.proc is None:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self._pump is not None:
            self._pump.join(timeout=10)
        self.proc.stdout.close()


#: An idle-priority busy loop that exits when its parent does.
_SPIN = (
    "import os\n"
    "os.sched_setscheduler(0, os.SCHED_IDLE, os.sched_param(0))\n"
    "parent = os.getppid()\n"
    "while os.getppid() == parent:\n"
    "    for _ in range(100000):\n"
    "        pass\n"
)


class KeepAwake:
    """One ``SCHED_IDLE`` busy loop per CPU while the gateway is measured.

    On a virtual machine an idle vCPU is descheduled, and waking it for
    the next request costs milliseconds that vary from minute to minute.
    Busy loops at idle priority keep every vCPU awake without taking
    time from any other task, which is what makes gateway latencies
    repeatable here.  Recorded in the fingerprint's ``noise_control``.
    """

    def __enter__(self) -> "KeepAwake":
        self.procs = []
        try:
            for _ in range(os.cpu_count() or 1):
                self.procs.append(subprocess.Popen([sys.executable, "-c", _SPIN]))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info) -> None:
        for proc in self.procs:
            proc.kill()
        for proc in self.procs:
            proc.wait()


def scrape(text: str, name: str) -> float:
    """One unlabelled sample from a Prometheus exposition."""
    for line in text.splitlines():
        if line.startswith(name + " "):
            return float(line.split()[-1])
    raise KeyError(f"{name} missing from /metrics")


# ----------------------------------------------------------------------
# The client
# ----------------------------------------------------------------------
class Conn:
    """One keep-alive HTTP connection; records the round trip of each POST."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.rtts: List[float] = []
        self._http: Optional[http.client.HTTPConnection] = None

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=60)
        conn.connect()
        conn.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return conn

    def post(self, path: str, body: bytes) -> Tuple[int, bytes]:
        """POST ``body``; ``(0, b"")`` when the connection failed."""
        started = time.perf_counter()
        try:
            if self._http is None:
                self._http = self._connect()
            self._http.request(
                "POST", path, body=body, headers={"Content-Type": "application/json"}
            )
            response = self._http.getresponse()
            data = response.read()
        except (OSError, http.client.HTTPException):
            self.close()
            return 0, b""
        self.rtts.append(time.perf_counter() - started)
        return response.status, data

    def close(self) -> None:
        if self._http is not None:
            self._http.close()
            self._http = None


def run_workers(conns: Sequence[Conn], work: Callable[[Conn], None]) -> None:
    """Run ``work`` on one thread per connection; re-raise the first error."""
    errors: List[BaseException] = []

    def target(conn: Conn) -> None:
        try:
            work(conn)
        except BaseException as exc:  # re-raised below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=target, args=(c,)) for c in conns]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]


class Counter:
    """A shared next-index counter."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._next = 0

    def take(self) -> int:
        with self._lock:
            index = self._next
            self._next += 1
            return index


class Timed:
    """Client-side noise control around a timed phase: GC collected, then off."""

    def __enter__(self) -> "Timed":
        gc.collect()
        gc.disable()
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.end = time.perf_counter()
        gc.enable()


@dataclass
class Reply:
    """What one visit (or one ward row) got back."""

    ok: bool
    suggestion: Optional[List[int]] = None
    explanation: Optional[bytes] = None


def explain(conn: Conn, suggestion: List[int]) -> Optional[bytes]:
    status, raw = conn.post("/v1/explain", json.dumps({"suggested": suggestion}).encode())
    return raw if status == 200 else None


def suggest(conn: Conn, body: bytes) -> Optional[List[List[int]]]:
    status, raw = conn.post("/v1/suggest", body)
    return json.loads(raw)["suggestions"] if status == 200 else None


def visit(conn: Conn, body: bytes) -> Reply:
    suggestions = suggest(conn, body)
    if suggestions is None:
        return Reply(False)
    raw = explain(conn, suggestions[0])
    return Reply(raw is not None, suggestions[0], raw)


# ----------------------------------------------------------------------
# Preparation and checking
# ----------------------------------------------------------------------
@dataclass
class Prepared:
    data: Data
    fit_s: float
    losses: List[float]
    artifact_root: Path
    reference: Any
    expected: Dict[int, np.ndarray] = field(default_factory=dict)
    explanations: Dict[Tuple[int, ...], Any] = field(default_factory=dict)


def prepare(size: Size, workdir: Path, checks: Checks,
            rec: Optional[Recorder], layers: Dict[str, float]) -> Prepared:
    """Cohort, short fit, publish, and the in-process reference."""
    from dataclasses import replace

    from repro.core import DSSDDI, ServerConfig
    from repro.server.registry import publish_artifact
    from repro.serving import SuggestionService

    if rec is None:
        data = common.make_data(size)
        system, report, fit_s = prep_fit(data, size)
    else:
        data = traced_data(size, rec)
        patches = Patches()
        instrument_epochs(rec, patches)
        try:
            system, report, fitted = traced_fit(
                data, size.prep_ddi_epochs, size.prep_md_epochs, rec, counterfactual=False
            )
        finally:
            patches.restore()
        fit_s = fitted.pop("fit_s")
        layers.update(fitted)
        layers["data.cohort_s"] = rec.durations("data.cohort")[-1]
    artifact_root = workdir / "models"
    version = publish_artifact(system, artifact_root)
    loaded = DSSDDI.load(version.path)
    # The gateway scores with its own fixed block; so does the reference,
    # which makes every served row bitwise-reproducible in-process.
    block = ServerConfig().score_block
    reference = SuggestionService(
        loaded, config=replace(loaded.config.serving, score_block=block)
    )
    return Prepared(data, fit_s, common.losses(report), artifact_root, reference)


def prep_fit(data: Data, size: Size):
    """The served model's short fit: no counterfactual links, so that it
    can be repeated between timed slices (``fit_s`` on clinic and ward)."""
    return common.fit(data, size.prep_ddi_epochs, size.prep_md_epochs, counterfactual=False)


def expect(prep: Prepared, ks: Sequence[int]) -> None:
    """Reference top-k of every held-out patient, for each k served."""
    x_test = prep.data.x[prep.data.test]
    for k in ks:
        prep.expected[k] = prep.reference.suggest(x_test, k)


def sample_explanations(prep: Prepared, sets: Sequence[Tuple[int, ...]], count: int,
                        rng: np.random.Generator) -> None:
    """Reference explanations of ``count`` distinct served sets (seeded)."""
    from repro.core.ms_module import canonical_suggestion
    from repro.server.app import explanation_to_dict

    distinct = sorted({canonical_suggestion(s) for s in sets})
    chosen = rng.choice(len(distinct), size=min(count, len(distinct)), replace=False)
    for i in sorted(chosen):
        key = distinct[i]
        as_json = json.dumps(explanation_to_dict(prep.reference.explain(key)))
        prep.explanations[key] = json.loads(as_json)


def reply_correct(prep: Prepared, reply: Reply, expected: Sequence[int]) -> bool:
    """A served suggestion must equal the reference's ids in order; a
    sampled explanation must equal the reference's field by field."""
    from repro.core.ms_module import canonical_suggestion

    if not reply.ok or reply.suggestion != list(expected):
        return False
    wanted = prep.explanations.get(canonical_suggestion(reply.suggestion))
    if wanted is None:
        return True
    served = json.loads(reply.explanation)
    served.pop("version", None)
    return served == wanted


def ndcg3(lists: Sequence[Optional[Sequence[int]]], labels: np.ndarray) -> float:
    """Top-3 NDCG of ranked id lists, through the program's own metric."""
    from repro.metrics.ranking import ndcg_at_k

    scores = np.zeros(labels.shape, dtype=np.float64)
    for row, ranked in enumerate(lists):
        if ranked:
            top = list(ranked)[:3]
            scores[row, top] = np.arange(len(top), 0, -1)
    return ndcg_at_k(scores, labels, 3)


def body(prep: Prepared, positions: Sequence[int], k: int) -> bytes:
    rows = prep.data.x[prep.data.test[list(positions)]]
    return json.dumps({"features": rows.tolist(), "k": k}).encode()


# ----------------------------------------------------------------------
# Traced gateway: per-layer figures
# ----------------------------------------------------------------------
def server_layers(rec: Recorder, windows: List[Tuple[float, float]],
                  client_rtts: List[float], before: str, after: str) -> Dict[str, float]:
    """Per-layer figures of the timed phases of a traced gateway."""
    ms = 1000.0

    def mean(name: str) -> float:
        return mean_or_zero(rec.durations(name, windows)) * ms

    posts = [(i, s) for i, s in enumerate(rec.spans)
             if s[0] == "server.http.post" and s[2] is not None
             and any(a <= s[1] <= b for a, b in windows)]
    post_ids = {i for i, _s in posts}
    children: Dict[int, List[Tuple[float, float]]] = {}
    for s in rec.spans:
        if s[3] in post_ids and s[0] in REQUEST_LEAVES and s[2] is not None:
            children.setdefault(s[3], []).append((s[1], s[2]))
    post_total = sum(s[2] - s[1] for _i, s in posts)
    covered = sum(
        coverage((s[1], s[2]), children.get(i, ())) * (s[2] - s[1]) for i, s in posts
    )
    scored_rows = sum(rec.observed("serving.scorer.rows", windows))
    request_rows = sum(rec.observed("server.batcher.request_rows", windows))

    def delta(name: str) -> float:
        return scrape(after, name) - scrape(before, name)

    flushes = delta("repro_server_flushes_total")
    hits = delta("repro_server_explanation_cache_hits_total")
    misses = delta("repro_server_explanation_cache_misses_total")
    loads = rec.durations("serving.artifact.load")
    return {
        "server.http.post_ms": mean("server.http.post"),
        "server.http.read_ms": mean("server.http.read"),
        "server.http.decode_ms": mean("server.http.decode"),
        "server.http.write_ms": mean("server.http.write"),
        "bench.wire_ms": (
            (statistics.fmean(client_rtts) - post_total / len(posts)) * ms if posts else 0.0
        ),
        "server.app.suggest_ms": mean("server.app.suggest"),
        "server.app.explain_ms": mean("server.app.explain"),
        "server.batcher.wait_ms": mean_or_zero(rec.observed("server.batcher.wait", windows)) * ms,
        "server.batcher.rows_per_flush": (
            delta("repro_server_patients_scored_total") / flushes if flushes else 0.0
        ),
        "serving.scorer.scores_ms": mean("serving.scorer.scores"),
        "serving.scorer.calls": float(len(rec.durations("serving.scorer.scores", windows))),
        "serving.scorer.rows": scored_rows,
        "serving.scorer.useful_row_ratio": request_rows / scored_rows if scored_rows else 0.0,
        "serving.topk_ms": mean("serving.topk"),
        "ms.explain_ms": mean("ms.explain"),
        "ms.explain.calls": float(len(rec.durations("ms.explain", windows))),
        "serving.explain_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serving.artifact.load_s": loads[-1] if loads else 0.0,
        "bench.request_coverage": covered / post_total if post_total else 0.0,
    }


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------
@dataclass
class Phase:
    """Raw results of one gateway's timed phases."""

    p50_ms: float = 0.0
    p90_ms: float = 0.0
    latencies_ms: List[float] = field(default_factory=list)
    windows: List[Tuple[float, float]] = field(default_factory=list)
    rtts: List[float] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    lateness_ms: List[float] = field(default_factory=list)
    #: ``/metrics`` before and after the timed phases (traced gateway only).
    before: str = ""
    after: str = ""


def spawn_time(root: Path, prep: Prepared) -> float:
    """Start a throw-away gateway; seconds until it answered ``/healthz``."""
    gateway = Gateway(root, prep.artifact_root)
    try:
        return gateway.start()
    finally:
        gateway.stop()


class Plan:
    """A seeded request plan driven over ``connections(max_connections)``
    keep-alive connections, timed in ``Size.slices`` slices with
    ``between`` called after each one (outside the timed windows)."""

    max_connections = MAX_CONNECTIONS

    def __init__(self, prep: Prepared, size: Size) -> None:
        self.prep = prep
        self.slices = size.slices

    def run(self, gateway: Gateway, checks: Checks,
            between: Callable[[], None] = lambda: None,
            metrics_text: bool = False) -> Phase:
        self.reset()
        conns = [Conn(gateway.port) for _ in range(connections(self.max_connections))]
        try:
            self.warm_up(conns)
            phase = Phase()
            phase.before = gateway.get_text("/metrics") if metrics_text else ""
            for conn in conns:
                conn.rtts.clear()
            for index in range(self.slices):
                self.timed_slice(index, conns, phase)
                if index + 1 < self.slices:
                    between()
            phase.after = gateway.get_text("/metrics") if metrics_text else ""
            phase.rtts = [r for conn in conns for r in conn.rtts]
            self.finish(phase, checks)
            return phase
        finally:
            for conn in conns:
                conn.close()

    def reset(self) -> None:
        """Forget the results of a previous :meth:`run`."""
        raise NotImplementedError

    def warm_up(self, conns: List[Conn]) -> None:
        raise NotImplementedError

    def timed_slice(self, index: int, conns: List[Conn], phase: Phase) -> None:
        raise NotImplementedError

    def finish(self, phase: Phase, checks: Checks) -> None:
        raise NotImplementedError


class Clinic(Plan):
    """Returning patients: replay, then slices of an open-loop Poisson
    phase followed by a closed-loop phase."""

    ks = (3, 4, 5)

    def __init__(self, prep: Prepared, seed: int, seconds: float, size: Size) -> None:
        super().__init__(prep, size)
        rng = np.random.default_rng([seed, 1])
        n_test = len(prep.data.test)
        open_s = seconds * OPEN_LOOP_SHARE
        self.closed_s = (seconds - open_s) / size.slices
        count = max(20, int(round(VISIT_RATE * open_s)))
        # Each pass over the held-out split is a fresh permutation, so the
        # visits cover the patients evenly whatever the seed.
        passes = [rng.permutation(n_test) for _ in range(count // n_test + 1)]
        self.patients = np.concatenate(passes)[:count]
        self.k = rng.choice(self.ks, count)
        self.offsets = np.cumsum(rng.exponential(1.0 / VISIT_RATE, count))
        self.bodies = [body(prep, [p], int(k)) for p, k in zip(self.patients, self.k)]
        self.chunks = np.array_split(np.arange(count), size.slices)
        expect(prep, self.ks)
        self.wanted = [prep.expected[int(k)][p] for p, k in zip(self.patients, self.k)]
        sample_explanations(prep, self.wanted, size.explain_sample, rng)

    def reset(self) -> None:
        count = len(self.bodies)
        self.replies: List[Optional[Reply]] = [None] * count
        self.due = [0.0] * count
        self.sent = [0.0] * count
        self.done = [0.0] * count
        self.closed: List[Tuple[float, int, Reply]] = []
        self.closed_wall = 0.0
        self.cycle = Counter()

    def warm_up(self, conns: List[Conn]) -> None:
        # Chronic patients revisit on the same regimen: replay every visit
        # once so that each explanation is cached before timing.
        n = len(self.bodies)
        replay = Counter()

        def replay_all(conn: Conn) -> None:
            while (i := replay.take()) < n:
                visit(conn, self.bodies[i])

        run_workers(conns, replay_all)
        # Top 3 of every held-out patient, served in full-size requests:
        # the quality figure must not depend on which patients visited.
        from repro.core import ServerConfig

        x_test = self.prep.data.x[self.prep.data.test]
        step = ServerConfig().max_request_rows
        self.top3: List[List[int]] = []
        for start in range(0, len(x_test), step):
            rows = x_test[start:start + step].tolist()
            served = suggest(conns[0], json.dumps({"features": rows, "k": 3}).encode())
            self.top3.extend(served or [None] * len(rows))

    def timed_slice(self, index: int, conns: List[Conn], phase: Phase) -> None:
        chunk = self.chunks[index]
        # Open loop: visit i is due at t0 + offsets[i], whoever is free.
        opened = Counter()
        with Timed() as open_phase:
            t0 = open_phase.start + 0.05 - self.offsets[chunk[0]]

            def open_loop(conn: Conn) -> None:
                while (j := opened.take()) < len(chunk):
                    i = chunk[j]
                    self.due[i] = t0 + self.offsets[i]
                    delay = self.due[i] - time.perf_counter()
                    if delay > 0:
                        time.sleep(delay)
                    self.sent[i] = time.perf_counter()
                    self.replies[i] = visit(conn, self.bodies[i])
                    self.done[i] = time.perf_counter()

            run_workers(conns, open_loop)
        # Closed loop: every connection sends its next visit on reply.
        n = len(self.bodies)
        with Timed() as closed_phase:
            deadline = closed_phase.start + self.closed_s

            def closed_loop(conn: Conn) -> None:
                while time.perf_counter() < deadline:
                    i = self.cycle.take() % n
                    started = time.perf_counter()
                    reply = visit(conn, self.bodies[i])
                    self.closed.append((time.perf_counter() - started, i, reply))

            run_workers(conns, closed_loop)
        self.closed_wall += closed_phase.end - closed_phase.start
        phase.windows += [
            (open_phase.start, open_phase.end), (closed_phase.start, closed_phase.end)
        ]

    def finish(self, phase: Phase, checks: Checks) -> None:
        latencies = [float(d - u) * 1000.0 for d, u in zip(self.done, self.due)]
        for i, reply in enumerate(self.replies):
            checks.record(reply_correct(self.prep, reply, self.wanted[i]),
                          f"open-loop visit {i} differs from the reference")
        within = 0
        for seconds, i, reply in self.closed:
            ok = checks.record(reply_correct(self.prep, reply, self.wanted[i]),
                               f"closed-loop visit {i} differs from the reference")
            within += ok and seconds <= VISIT_LIMIT_S
        for i, (served, wanted) in enumerate(zip(self.top3, self.prep.expected[3])):
            checks.record(served == list(wanted), f"held-out patient {i}: top 3 differs")
        labels = self.prep.data.y[self.prep.data.test]
        phase.p50_ms = statistics.median(latencies)
        phase.p90_ms = percentile(latencies, 90.0)
        phase.latencies_ms = latencies
        phase.lateness_ms = lateness_ms(self.due, self.sent)
        phase.metrics = {
            "ndcg_at_3": ndcg3(self.top3, labels),
            "max_rps": within / self.closed_wall,
            "rows_per_s": len(self.closed) / self.closed_wall,
        }


class Ward(Plan):
    """Ward rounds: one multi-patient suggest, then one explain per patient."""

    ks = (5,)
    #: One doctor does the round.  A second connection bought no
    #: throughput on 2 CPUs (client and gateway already fill them); it
    #: only made rounds queue behind each other.
    max_connections = 1

    def __init__(self, prep: Prepared, seed: int, seconds: float, size: Size) -> None:
        super().__init__(prep, size)
        rng = np.random.default_rng([seed, 2])
        n_test = len(prep.data.test)
        lo, hi = size.round_rows
        rounds = max(size.min_rounds, math.ceil(ROUNDS_PER_SECOND * seconds))
        # Round sizes repeat a fixed cycle over [lo, hi]; the seed orders
        # the patients, each pass over the held-out split a fresh
        # permutation, so explanation misses fall in the first pass.
        cycle = np.round(np.linspace(lo, hi, 7)).astype(int)[[3, 0, 6, 1, 5, 2, 4]]
        sizes = np.resize(cycle, rounds)
        stream: List[int] = []
        while len(stream) < sizes.sum():
            stream.extend(rng.permutation(n_test).tolist())
        bounds = np.concatenate([[0], np.cumsum(sizes)])
        self.rounds = [np.array(stream[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
        self.bodies = [body(prep, r, 5) for r in self.rounds]
        self.chunks = np.array_split(np.arange(rounds), size.slices)
        expect(prep, self.ks)
        wanted = [prep.expected[5][p] for r in self.rounds for p in r]
        sample_explanations(prep, wanted, size.explain_sample, rng)
        warm = rng.choice(len(prep.data.train), hi, replace=False)
        rows = prep.data.x[prep.data.train[warm]]
        self.warmup = [
            json.dumps({"features": rows[:n].tolist(), "k": 5}).encode()
            for n in (1, 2, 4, 8, 16, 32, hi, hi)
        ]

    def reset(self) -> None:
        self.results: List[Optional[Tuple[float, List[Reply]]]] = [None] * len(self.rounds)
        self.wall = 0.0

    def warm_up(self, conns: List[Conn]) -> None:
        # Suggest-only: scoring paths warm, explanation cache still cold.
        for warm in self.warmup:
            suggest(conns[0], warm)

    def timed_slice(self, index: int, conns: List[Conn], phase: Phase) -> None:
        chunk = self.chunks[index]
        taken = Counter()

        def ward_round(conn: Conn) -> None:
            while (j := taken.take()) < len(chunk):
                i = chunk[j]
                started = time.perf_counter()
                suggestions = suggest(conn, self.bodies[i])
                if suggestions is None:
                    replies = [Reply(False)] * len(self.rounds[i])
                else:
                    replies = []
                    for s in suggestions:
                        raw = explain(conn, s)
                        replies.append(Reply(raw is not None, s, raw))
                self.results[i] = (time.perf_counter() - started, replies)

        with Timed() as phase_time:
            run_workers(conns, ward_round)
        self.wall += phase_time.end - phase_time.start
        phase.windows.append((phase_time.start, phase_time.end))

    def finish(self, phase: Phase, checks: Checks) -> None:
        served: List[Optional[List[int]]] = []
        for i, (_seconds, replies) in enumerate(self.results):
            expected = self.prep.expected[5][self.rounds[i]]
            ok = len(replies) == len(expected) and all(
                reply_correct(self.prep, reply, want)
                for reply, want in zip(replies, expected)
            )
            checks.record(ok, f"ward round {i} differs from the reference")
            served.extend(reply.suggestion for reply in replies)
        latencies = [r[0] * 1000.0 for r in self.results]
        patients = np.concatenate(self.rounds)
        labels = self.prep.data.y[self.prep.data.test[patients]]
        phase.p50_ms = statistics.median(latencies)
        phase.p90_ms = percentile(latencies, 90.0)
        phase.latencies_ms = latencies
        phase.metrics = {
            "ndcg_at_3": ndcg3(served, labels),
            "max_rps": (len(self.rounds) + len(patients)) / self.wall,
            "rows_per_s": len(patients) / self.wall,
        }


WORKLOADS = {"clinic": Clinic, "ward": Ward}


def run(root: Path, workload: str, seed: int, seconds: float, trace: bool,
        size: Size, workdir: Path) -> Outcome:
    checks = Checks()
    layers: Dict[str, float] = {}
    rec = Recorder() if trace else None
    prep = prepare(size, workdir, checks, rec, layers)
    plan = WORKLOADS[workload](prep, seed, seconds, size)
    if trace:
        return _traced(root, prep, plan, checks, layers, workdir)
    fit_times = [prep.fit_s]
    loss_runs = [prep.losses]
    setup_times: List[float] = []

    def between_slices() -> None:
        # While the measured gateway idles: refit the served model and
        # time one more gateway start, so fit_s and setup_s sample the
        # whole run like the traffic does.
        _system, report, seconds = prep_fit(prep.data, size)
        fit_times.append(seconds)
        loss_runs.append(common.losses(report))
        setup_times.append(spawn_time(root, prep))

    with KeepAwake():
        gateway = Gateway(root, prep.artifact_root)
        try:
            setup_times.append(gateway.start())
            phase = plan.run(gateway, checks, between=between_slices)
            rss = gateway.peak_rss_mb()
        finally:
            gateway.stop()
    common.check_losses(checks, loss_runs)
    common.check_ndcg(checks, phase.metrics["ndcg_at_3"], size)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "fit_s": statistics.median(fit_times),
        "ndcg_at_3": phase.metrics["ndcg_at_3"],
        "p50_ms": phase.p50_ms,
        "p90_ms": phase.p90_ms,
        "max_rps": phase.metrics["max_rps"],
        "rows_per_s": phase.metrics["rows_per_s"],
        "peak_rss_mb": rss,
        "success_ratio": checks.success_ratio,
    }
    samples = {"setup_s": setup_times, "fit_s": fit_times, "latency_ms": phase.latencies_ms}
    notes = {"latency_ms": timing_summary(phase.latencies_ms)}
    return Outcome(metrics, checks, samples, notes)


def _traced(root: Path, prep: Prepared, plan, checks: Checks,
            layers: Dict[str, float], workdir: Path) -> Outcome:
    """Untraced gateway, then a traced one on the same plan."""
    spans_out = workdir / "server-spans.json"
    with KeepAwake():
        plain = Gateway(root, prep.artifact_root)
        try:
            plain.start()
            untraced = plan.run(plain, checks)
        finally:
            plain.stop()
        traced = Gateway(root, prep.artifact_root, spans_out=spans_out)
        try:
            traced.start()
            phase = plan.run(traced, checks, metrics_text=True)
        finally:
            traced.stop()
    common.check_losses(checks, [prep.losses])
    rec = Recorder.load(spans_out)
    layers.update(server_layers(
        rec, phase.windows, phase.rtts, phase.before, phase.after
    ))
    layers["loadgen.lateness_ms"] = median_or_zero(phase.lateness_ms)
    layers["bench.trace_overhead"] = phase.p50_ms / untraced.p50_ms
    samples = {"untraced_p50_ms": [untraced.p50_ms], "traced_p50_ms": [phase.p50_ms]}
    return Outcome(layers, checks, samples)
