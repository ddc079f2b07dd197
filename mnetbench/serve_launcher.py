"""Runs ``repro-mnet serve`` with every thread profiled and layer spans on.

Usage::

    python3 serve_launcher.py <src-dir> <report.json> serve [serve flags...]

Each thread runs under a ``cProfile`` profiler timed by thread CPU time,
so threads blocked on sockets or locks add nothing.  Profilers are
pooled: a finished thread hands its profiler to the next thread that
starts, which keeps the count at the peak number of live threads.  When
the server has drained and exits, the launcher writes one JSON report:
import time, self-time shares by package, exact per-simulation counters
and span totals.
"""

import json
import sys
import threading
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import repro.cli  # noqa: E402

import_s = time.perf_counter() - start

import cProfile  # noqa: E402
import pstats  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracing import Instruments, profile_summary  # noqa: E402

_lock = threading.Lock()
_all = []
_idle = []
_thread_run = threading.Thread.run


def _take() -> cProfile.Profile:
    with _lock:
        if _idle:
            return _idle.pop()
        profiler = cProfile.Profile(time.thread_time)
        _all.append(profiler)
        return profiler


def _profiled_run(self) -> None:
    profiler = _take()
    profiler.enable()
    try:
        _thread_run(self)
    finally:
        profiler.disable()
        with _lock:
            _idle.append(profiler)


def main() -> int:
    report_path = Path(sys.argv[2])
    threading.Thread.run = _profiled_run
    main_profiler = _take()
    with Instruments(timing=True) as inst:
        main_profiler.enable()
        try:
            code = repro.cli.main(sys.argv[3:])
        finally:
            main_profiler.disable()
    with _lock:
        stats = pstats.Stats(*_all)
    report = {
        "import_s": import_s,
        "profile": profile_summary(stats, exclude=str(Path(__file__).resolve().parent)),
        "counters": inst.counters,
        "spans": {label: [inst.span_s[label], inst.span_n[label]]
                  for label in inst.span_s},
    }
    report_path.write_text(json.dumps(report))
    return code


if __name__ == "__main__":
    sys.exit(main())
