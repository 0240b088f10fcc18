"""What the three workloads share: sizes, the cohort, fits, checks, results."""

from __future__ import annotations

import hashlib
import os
import platform
import resource
import subprocess
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Tuple

import numpy as np

from dssbench import BLAS_ENV

#: The cohort and the model configuration are the benchmark's fixed
#: dataset and model (the generator's default seed, the paper's 5:3:2
#: split): ``--seed`` varies the traffic, never the patients or the fit,
#: because a short fit's quality swings with its initialisation.
COHORT_SEED = 11
SPLIT_SEED = 29


@dataclass(frozen=True)
class Size:
    """How much work one run does.  ``FULL`` is the benchmark; ``SMOKE``
    runs the same code paths in seconds (the benchmark's own tests)."""

    patients: int = 4157
    ddi_epochs: int = 40
    md_epochs: int = 40
    min_fits: int = 3
    setup_repeats: int = 3
    predict_repeats: int = 3
    prep_ddi_epochs: int = 10
    prep_md_epochs: int = 20
    round_rows: Tuple[int, int] = (16, 64)
    slices: int = 6
    min_rounds: int = 100
    explain_sample: int = 32
    #: Top-3 NDCG below this counts as a failed operation: an untrained
    #: model ranks around 0.05 on the cohort, the fitted ones 0.3-0.4.
    ndcg_floor: float = 0.2


FULL = Size()
SMOKE = Size(
    patients=240,
    ddi_epochs=2,
    md_epochs=3,
    min_fits=2,
    setup_repeats=1,
    predict_repeats=1,
    prep_ddi_epochs=2,
    prep_md_epochs=3,
    round_rows=(2, 6),
    slices=2,
    min_rounds=4,
    explain_sample=4,
    # A few epochs on 240 patients learn little: smoke checks code paths.
    ndcg_floor=0.0,
)


@dataclass
class Checks:
    """Operations attempted and failed; a failure keeps a short reason."""

    attempted: int = 0
    failed: int = 0
    reasons: List[str] = field(default_factory=list)

    def record(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(what)
        return ok

    @property
    def success_ratio(self) -> float:
        return (self.attempted - self.failed) / self.attempted if self.attempted else 0.0


@dataclass
class Outcome:
    """One run's metrics plus the samples they were reduced from."""

    metrics: Dict[str, float]
    checks: Checks
    samples: Dict[str, List[float]] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)


@dataclass
class Data:
    """The seeded cohort with the paper's 5:3:2 split, standardised."""

    x: np.ndarray
    y: np.ndarray
    ddi: Any
    train: np.ndarray
    test: np.ndarray


def make_data(size: Size) -> Data:
    """Generate the cohort and split it."""
    from repro.data.chronic import generate_chronic_cohort, standardize_features
    from repro.data.splits import split_patients

    cohort = generate_chronic_cohort(num_patients=size.patients, seed=COHORT_SEED)
    split = split_patients(cohort.num_patients, seed=SPLIT_SEED)
    return Data(
        x=standardize_features(cohort.features),
        y=cohort.medications,
        ddi=cohort.ddi,
        train=split.train,
        test=split.test,
    )


def fit(data: Data, ddi_epochs: int, md_epochs: int, counterfactual: bool = True):
    """One ``DSSDDI.fit`` (DDIGCN drug embeddings, hidden 64) on the
    training split; returns (system, report, seconds)."""
    from repro.core import DSSDDI, DSSDDIConfig
    from repro.core.config import DDIGCNConfig, MDGCNConfig

    config = DSSDDIConfig(
        ddi=DDIGCNConfig(epochs=ddi_epochs, hidden_dim=64),
        md=MDGCNConfig(epochs=md_epochs, hidden_dim=64, use_counterfactual=counterfactual),
    )
    system = DSSDDI(config)
    started = time.perf_counter()
    report = system.fit(data.x[data.train], data.y[data.train], data.ddi)
    return system, report, time.perf_counter() - started


def losses(report) -> List[float]:
    """Every logged loss of both modules, in a fixed order."""
    out: List[float] = []
    for log in (report.ddi_log, report.md_log):
        if log is not None:
            for name in sorted(log.train.history):
                out.extend(float(v) for v in log.train.history[name])
    return out


def check_losses(checks: Checks, runs: List[List[float]]) -> None:
    """Losses must be finite, and every fit in a run must repeat the first."""
    for i, values in enumerate(runs):
        checks.record(bool(values) and bool(np.isfinite(values).all()),
                      f"fit {i}: non-finite loss")
        if i:
            checks.record(values == runs[0], f"fit {i}: losses differ from fit 0")


def check_ndcg(checks: Checks, value: float, size: Size) -> None:
    checks.record(value >= size.ndcg_floor,
                  f"ndcg_at_3 {value:.4f} < floor {size.ndcg_floor}")


def self_peak_rss_mb() -> float:
    """Peak resident set of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# Fingerprint
# ----------------------------------------------------------------------
def _blas() -> Dict[str, Any]:
    try:
        config = np.show_config(mode="dicts")
        blas = config["Build Dependencies"]["blas"]
        return {
            "name": blas.get("name"),
            "version": blas.get("version"),
            "config": blas.get("openblas configuration"),
        }
    except (TypeError, KeyError):
        return {"name": "unknown"}


def _git_sha(root: Path) -> Any:
    if not (root / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def source_digest(root: Path) -> str:
    """SHA-256 over the program's sources: identifies the code measured
    when the checkout is not a git repository."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(root: Path) -> Dict[str, Any]:
    """Host, build and noise-control facts recorded with every result."""
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": _blas(),
        "blas_threads": {k: os.environ.get(k) for k in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": source_digest(root),
        "noise_control": {
            "blas_threads": "pinned to 1 in the benchmark and the gateway",
            "cpus_awake": "clinic and ward run one SCHED_IDLE busy loop per CPU "
            "while a gateway runs, so no vCPU idles between requests",
            "gc": "client collects, then disables GC during timed phases",
            "connections": "clinic min(2, nproc), ward 1",
            "warmup": "clinic replays every visit, ward scores 8 rows-only "
            "suggests, before timing",
            "spread_samples": "setup_s, fit_s and the train metrics are "
            "medians of samples repeated across the whole run",
        },
    }
