"""Regenerate ``digests.json``: result digests at the default seed.

Run from the root of a checkout::

    python3 mnetbench/record_digests.py

Simulates every config each workload generates at the default seed with
``run_experiment`` and records ``{cache_key: digest}`` per workload.
Re-record only when a change is *meant* to alter simulated results; a
change that claims only speed must leave this file untouched.
"""

import json
from pathlib import Path

from common import BENCH_DIR, DEFAULT_SEED, bootstrap, payload_digest


def main() -> None:
    bootstrap(Path.cwd())
    from repro.harness.experiment import run_experiment

    import serving
    import sweeps

    grids = {
        "sweep_fp": sweeps.grid("sweep_fp", DEFAULT_SEED),
        "sweep_managed": sweeps.grid("sweep_managed", DEFAULT_SEED),
        "serve_tiers": serving.working_set(DEFAULT_SEED),
    }
    digests = {
        name: {c.cache_key(): payload_digest(run_experiment(c)) for c in configs}
        for name, configs in grids.items()
    }
    path = BENCH_DIR / "digests.json"
    path.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    print(f"wrote {sum(map(len, digests.values()))} digests to {path}")


if __name__ == "__main__":
    main()
