"""The DSSDDI benchmark: one command for the ``train``, ``clinic`` and ``ward``
workloads.  From the root of a checkout::

    python3 dssbench/run.py --workload clinic --seed 7 --seconds 20 --trace 0

Inputs come from ``--seed`` only.  ``--trace 0`` reports the end-to-end
metrics of ``BENCHMARK.json``; ``--trace 1`` the per-layer ones.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it summarises
the fingerprint and spreads, and the full record (every sample) is
written crash-safely to ``.dssbench/results/``.

Exits 2 when the checkout holds no program to measure, 1 when a run
fails, and prints no result in either case.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "clinic", "ward")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument(
        "--size", default="full", choices=("full", "smoke"),
        help="smoke: the same code paths on tiny inputs, in seconds",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def _terminate(signum, frame):
    # Turn SIGTERM into SystemExit so every ``finally`` stops its gateway.
    sys.exit(128 + signum)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'} to benchmark", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from dssbench import BLAS_ENV

    os.environ.update(BLAS_ENV)  # before numpy loads, here and in the gateway
    signal.signal(signal.SIGTERM, _terminate)

    from dssbench import common, serve, train
    from dssbench.stats import spread
    from repro.atomicio import atomic_write_json

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    size = common.SMOKE if args.size == "smoke" else common.FULL
    state = ROOT / ".dssbench"
    workdir = state / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "train":
            outcome = train.run(args.seconds, bool(args.trace), size)
        else:
            outcome = serve.run(ROOT, args.workload, args.seed, args.seconds,
                                bool(args.trace), size, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    wanted = spec["per_layer" if args.trace else "end_to_end"]
    produced = dict(outcome.metrics)
    if args.trace and args.workload == "train":
        # No gateway runs in train: its layers are idle, not unmeasured.
        produced.update({name: 0.0 for name in serve.SERVER_LAYERS})
    names = {m["name"] for m in wanted}
    if set(produced) != names:
        raise RuntimeError(
            f"metrics do not match BENCHMARK.json: missing "
            f"{sorted(names - set(produced))}, unknown {sorted(set(produced) - names)}"
        )
    bad = [n for n, v in produced.items() if not math.isfinite(v)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")

    checks = outcome.checks
    result = {
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {
            m["name"]: {"value": float(produced[m["name"]]), "unit": m["unit"]}
            for m in wanted
        },
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "fingerprint": common.fingerprint(ROOT),
        "spread": {name: spread(v) for name, v in outcome.samples.items()},
        "failures": checks.reasons,
        "notes": outcome.notes,
        "samples": outcome.samples,
        "result": result,
    }
    out = state / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    atomic_write_json(out, record, site="bench.result", indent=1)
    summary = {k: v for k, v in record.items() if k not in ("samples", "result")}
    summary["record"] = str(out.relative_to(ROOT))
    print(json.dumps(summary))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
