"""Set-up probe: what a fresh sweep process pays before its first config.

Run as ``python3 setup_probe.py <src-dir> <empty-store-path>``.  Imports
the sweep stack (runner, serial executor, SQLite store), opens an empty
store, wires a runner to it, and prints one JSON line with the import
time.  The caller times the whole process from spawn to exit.
"""

import json
import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from repro.harness.executor import SerialExecutor  # noqa: E402
from repro.harness.sweep import SweepRunner  # noqa: E402
from repro.store import SqliteStore  # noqa: E402

imported = time.perf_counter()
runner = SweepRunner(executor=SerialExecutor(), disk_cache=SqliteStore(sys.argv[2]))
if len(runner.disk_cache) != 0:
    raise SystemExit("set-up probe expected an empty store")
print(json.dumps({"import_s": imported - start}))
