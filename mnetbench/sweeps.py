"""The in-process sweep workloads: ``sweep_fp`` and ``sweep_managed``.

One pass = a cold grid through a fresh ``SweepRunner`` + ``SerialExecutor``
into an empty SQLite store, then a block of warm replays of the whole
grid, each through a fresh runner and store handle.  Passes repeat until
the run's time is spent.  Every config's simulation is one
host-normalised piece.  The replays are checked for correctness; their
times go to standard error only, since they did not hold steady enough
across runs to be gated (see README.md).
"""

from __future__ import annotations

import cProfile
import gc
import json
import pstats
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    BENCH_DIR,
    DEFAULT_SEED,
    HostClock,
    Tally,
    load_digests,
    median,
    metric,
    payload_digest,
    peak_rss_mb,
    quantile,
    traffic_seeds,
)

#: fig5's fast workload subset: lowest (sp.D) to highest (mixB)
#: utilization, smallest (lu.D) to largest (is.D) footprint.
FP_WORKLOADS = ("lu.D", "sp.D", "is.D", "mixB")
SCALES = ("small", "big")
MANAGEMENT = (
    ("VWL+ROO", "unaware"), ("VWL+ROO", "aware"),
    ("DVFS+ROO", "unaware"), ("DVFS+ROO", "aware"),
)
ALPHAS = (0.05, 0.10)
#: Short windows keep a pass to seconds; four epochs per window let the
#: managed policies run (the first epoch only observes).
WINDOW_NS = 10_000.0
EPOCH_NS = 2_500.0

#: Warm replays of the grid per pass (one kernel-bracketed block).
REPLAY_BLOCK = 10
SETUP_PROBES = 7


def grid(workload: str, seed: int):
    """The workload's config grid; traffic seeds derive from ``seed``."""
    from repro.harness.experiment import ExperimentConfig
    from repro.network.topology import TOPOLOGY_NAMES

    if workload == "sweep_fp":
        shapes = [dict(scale=s, topology=t, workload=w)
                  for s in SCALES for t in TOPOLOGY_NAMES for w in FP_WORKLOADS]
    else:
        # Small scale only: managed mixB configs cost about twice an FP
        # one, and a pass must fit several times into a run.
        shapes = [dict(topology=t, workload="mixB", mechanism=m, policy=p,
                       alpha=a)
                  for t in TOPOLOGY_NAMES for m, p in MANAGEMENT for a in ALPHAS]
    seeds = traffic_seeds(seed, len(shapes), workload)
    return [ExperimentConfig(window_ns=WINDOW_NS, epoch_ns=EPOCH_NS,
                             seed=s, **shape)
            for shape, s in zip(shapes, seeds)]


class PieceTimedExecutor:
    """A serial executor that times each config's simulation as one piece.

    Delegates to the stock ``SerialExecutor`` one config at a time, so
    the harness path is unchanged; the host-speed kernel runs between
    pieces, outside them.
    """

    jobs = 1

    def __init__(self, clock: HostClock) -> None:
        from repro.harness.executor import SerialExecutor

        self.inner = SerialExecutor()
        self.clock = clock
        self.raw: List[float] = []
        self.pieces: List[float] = []

    def run(self, config):
        return self.run_many([config])[0]

    def run_many(self, configs, on_result=None):
        out = []
        for index, config in enumerate(configs):
            start = time.perf_counter()
            outcome = self.inner.run(config)
            raw = time.perf_counter() - start
            self.raw.append(raw)
            self.pieces.append(self.clock.normalise(raw))
            if on_result is not None:
                on_result(index, config, outcome)
            out.append(outcome)
        return out

    def describe(self):
        return {"kind": "PieceTimedExecutor", "jobs": 1}


@dataclass
class ColdPass:
    """One cold grid: normalised total, normalised per-config pieces,
    normalised harness overhead, and results by key."""

    seconds: float
    pieces: List[float]
    overhead: float
    results: Dict[str, object]


class SweepBench:
    """State of one sweep run: clock, tally, grid and reference results."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.clock = HostClock()
        self.tally = Tally()
        self.grid = grid(workload, seed)
        self.keys = [c.cache_key() for c in self.grid]
        self.expected = load_digests(workload) if seed == DEFAULT_SEED else {}
        if seed == DEFAULT_SEED and set(self.expected) != set(self.keys):
            raise RuntimeError(
                f"digests.json does not cover the {workload} grid; "
                "regenerate it with record_digests.py"
            )
        #: key -> digest of the first cold pass (the reference for later
        #: passes on seeds without recorded digests).
        self.reference: Dict[str, str] = {}
        self.passes = 0
        #: The last cold pass's store file, which the replays read.
        self.store_path: Optional[Path] = None
        #: Store lookups answered / missed, over every store handle.
        self.hits = 0
        self.misses = 0

    # -- set-up ----------------------------------------------------------
    def setup(self) -> Tuple[float, float]:
        """(median normalised spawn-to-ready seconds, median import seconds)."""
        src = str(Path.cwd() / "src")
        totals, imports = [], []
        for i in range(SETUP_PROBES):
            store = self.workdir / f"setup{i}.sqlite"
            start = time.perf_counter()
            out = subprocess.run(
                [sys.executable, str(BENCH_DIR / "setup_probe.py"), src, str(store)],
                capture_output=True, text=True, timeout=120,
            )
            elapsed = time.perf_counter() - start
            if out.returncode != 0:
                raise RuntimeError(f"set-up probe failed:\n{out.stderr}")
            factor = self.clock.close_piece()
            totals.append(elapsed * factor)
            imports.append(json.loads(out.stdout)["import_s"] * factor)
        return median(totals), median(imports)

    # -- one pass --------------------------------------------------------
    def cold(self) -> "ColdPass":
        """One cold grid through a fresh runner into an empty store."""
        from repro.harness.experiment import ExperimentResult
        from repro.harness.sweep import SweepRunner
        from repro.store import SqliteStore

        self.passes += 1
        self.store_path = self.workdir / f"pass{self.passes}.sqlite"
        store = SqliteStore(self.store_path)
        executor = PieceTimedExecutor(self.clock)
        runner = SweepRunner(executor=executor, disk_cache=store)
        kernel_before = self.clock.kernel_s
        start = time.perf_counter()
        outcomes = runner.run_all(self.grid)
        total = time.perf_counter() - start
        overhead_raw = total - sum(executor.raw) - (self.clock.kernel_s - kernel_before)
        overhead = max(overhead_raw, 0.0) * self.clock.factor()
        self.hits += store.hits
        self.misses += store.misses
        store.close()
        cold = runner.runs == len(self.grid) and runner.disk_hits == 0
        results: Dict[str, object] = {}
        for key, outcome in zip(self.keys, outcomes):
            ok = cold and isinstance(outcome, ExperimentResult)
            note = f"cold {key}: {'not cold' if not cold else outcome}"
            if ok:
                results[key] = outcome
                digest = payload_digest(outcome)
                want = self.expected.get(key) or self.reference.setdefault(key, digest)
                ok = digest == want
                note = f"cold {key}: digest {digest} != recorded {want}"
            self.tally.check(ok, note)
        return ColdPass(sum(executor.pieces) + overhead, executor.pieces,
                        overhead, results)

    def replays(self, results: Dict[str, object], count: int) -> List[float]:
        """``count`` warm replays of the grid; normalised ms each."""
        from repro.harness.executor import SerialExecutor
        from repro.harness.sweep import SweepRunner
        from repro.store import SqliteStore

        out: List[float] = []
        for _ in range(0, count, REPLAY_BLOCK):
            # Each block starts from a collected heap, as a fresh
            # replaying process would, and each replay is checked and
            # dropped before the next, so a collection of the cold
            # pass's garbage never lands inside a replay.
            gc.collect()
            raw = []
            for _ in range(REPLAY_BLOCK):
                start = time.perf_counter()
                store = SqliteStore(self.store_path)
                runner = SweepRunner(executor=SerialExecutor(), disk_cache=store)
                outcomes = runner.run_all(self.grid)
                raw.append(time.perf_counter() - start)
                self.hits += store.hits
                self.misses += store.misses
                store.close()
                warm = runner.runs == 0 and runner.disk_hits == len(self.grid)
                for key, outcome in zip(self.keys, outcomes):
                    self.tally.check(
                        warm and results.get(key) == outcome,
                        f"replay {key}: runs={runner.runs} "
                        f"disk_hits={runner.disk_hits} or result differs",
                    )
                del runner, outcomes
            factor = self.clock.close_piece()
            out.extend(1000.0 * r * factor for r in raw)
        return out


def run(workload: str, seed: int, seconds: float, trace: bool,
        workdir: Path) -> Tuple[Tally, Dict[str, Dict[str, object]]]:
    """Run one sweep workload; returns the tally and the metrics."""
    bench = SweepBench(workload, seed, workdir)
    setup_s, import_s = bench.setup()
    if trace:
        return bench.tally, traced(bench, import_s)
    grids: List[float] = []
    pieces: List[float] = []
    replays: List[float] = []
    start = time.perf_counter()
    pass_s = 0.0
    while not grids or time.perf_counter() - start + pass_s <= seconds:
        pass_start = time.perf_counter()
        gc.collect()
        cold = bench.cold()
        grids.append(cold.seconds)
        pieces.extend(cold.pieces)
        replays.extend(bench.replays(cold.results, REPLAY_BLOCK))
        pass_s = time.perf_counter() - pass_start
    print(f"# {workload}: {bench.passes} passes of {len(bench.grid)} configs; "
          f"warm grid replay (not gated): median {median(replays):.3f} ms "
          f"over {len(replays)}", file=sys.stderr)
    return bench.tally, {
        "setup_s": metric(setup_s, "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
        "cold_s": metric(median(grids), "s"),
        "cold_p50_ms": metric(1000.0 * quantile(pieces, 0.5), "ms"),
    }


def traced(bench: SweepBench, import_s: float) -> Dict[str, Dict]:
    """An untraced pass then a traced pass; per-layer metrics."""
    from repro.validation.audit import audit_simulation
    from tracing import (
        Instruments,
        counter_totals,
        layer_metrics,
        profile_summary,
        serve_placeholders,
    )

    with Instruments() as plain:
        untraced = bench.cold()
    profiler = cProfile.Profile()
    bench.hits = bench.misses = 0
    with Instruments(timing=True, keep=True) as inst:
        gc.collect()
        profiler.enable()
        cold = bench.cold()
        bench.replays(cold.results, REPLAY_BLOCK)
        profiler.disable()
    factor = bench.clock.factor()
    # The audit runs after timing ends, so its cost is in no span.
    for key, simulation in inst.simulations.items():
        report = audit_simulation(simulation, result=cold.results.get(key))
        bench.tally.check(report.passed, f"audit {key}: {report.summary()}")
    bench.tally.check(plain.counters == inst.counters,
                      "traced counters differ from the untraced pass",
                      count=len(bench.grid))
    stats = pstats.Stats(profiler)
    profile = profile_summary(stats, exclude=str(BENCH_DIR))
    totals = counter_totals(inst.counters)
    hits, misses = bench.hits, bench.misses
    metrics = layer_metrics(totals, profile)
    build_s = inst.span_s["build"]
    run_s = inst.span_s["run"]
    package_s = inst.span_s["experiment"] - build_s - run_s
    metrics.update({
        "harness.build_s": metric(build_s * factor, "s"),
        "harness.run_s": metric(run_s * factor, "s"),
        "harness.package_s": metric(package_s * factor, "s"),
        "harness.overhead_s": metric(cold.overhead, "s"),
        "store.put_ms": metric(inst.span_mean_ms("store.put") * factor, "ms"),
        "store.get_many_ms": metric(inst.span_mean_ms("store.get_many") * factor, "ms"),
        "store.get_ms": metric(inst.span_mean_ms("store.get") * factor, "ms"),
        "store.hit_ratio": metric(hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "setup.import_s": metric(import_s, "s"),
        "trace.overhead": metric(cold.seconds / untraced.seconds, "ratio"),
    })
    metrics.update(serve_placeholders())
    print(f"# {bench.workload} traced: counters {json.dumps(totals)}", file=sys.stderr)
    return metrics
