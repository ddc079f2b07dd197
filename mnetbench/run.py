"""mnetbench: end-to-end and per-layer benchmark of the repro-mnet stack.

Run from the root of a checkout::

    python3 mnetbench/run.py --workload sweep_fp --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
ones.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md in
this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import shutil
import signal
import sys
import tempfile
from pathlib import Path

from common import DEFAULT_SEED, SourceTreeMissing, bootstrap, emit

WORKLOADS = ("sweep_fp", "sweep_managed", "serve_tiers")

#: Scratch space for stores and profiles, inside the checkout.
WORK_ROOT = ".mnetbench_work"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    root = Path.cwd()
    try:
        bootstrap(root)
    except SourceTreeMissing as exc:
        print(f"mnetbench: {exc}; run from the root of a repro-mnet checkout",
              file=sys.stderr)
        return 2

    # A terminated run still stops its servers and removes its files.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    (root / WORK_ROOT).mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=root / WORK_ROOT))
    try:
        if args.workload == "serve_tiers":
            import serving

            tally, metrics = serving.run(args.seed, args.seconds,
                                         bool(args.trace), workdir)
        else:
            import sweeps

            tally, metrics = sweeps.run(args.workload, args.seed, args.seconds,
                                        bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    emit(tally, metrics)
    return 0


if __name__ == "__main__":
    sys.exit(main())
