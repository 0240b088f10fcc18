"""Run the gateway with the benchmark's spans around its layers.

Usage::

    python dssbench/launch.py SPANS.json -- <repro-serve arguments>

Installs the wrappers of :func:`dssbench.spans.instrument_server`, then
calls ``repro.server.cli.main`` exactly as ``python -m repro.server``
would.  When the gateway shuts down (SIGINT), every span is written to
``SPANS.json``.
"""

from __future__ import annotations

import sys
from pathlib import Path


def main(argv) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print(__doc__, file=sys.stderr)
        return 2
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root)]

    from dssbench.spans import Patches, Recorder, instrument_server
    from repro.server.cli import main as serve

    rec = Recorder()
    instrument_server(rec, Patches())
    try:
        return serve(argv[2:])
    finally:
        rec.dump(Path(argv[0]))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
