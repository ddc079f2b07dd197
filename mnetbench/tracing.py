"""Layer attribution for the traced runs: exact counters, spans, profiles.

Everything is recorded from outside the simulator, by wrapping public
entry points of the layers for the duration of a run:

* ``Simulation.run`` -- after each run the wrapper reads exact work
  counters off the finished simulation (events, DRAM accesses, link
  transmissions, wakeups, width transitions, policy epochs);
* ``run_experiment`` (as the executor calls it),
  ``SimulationBuilder.build``, ``Simulation.run`` and the SQLite store's
  ``put``/``get``/``get_many`` -- span totals, when timing is on;
* ``cProfile`` -- self time grouped by ``repro`` package, plus the exact
  call counts of two hot functions (``LinkController.accrue`` and
  ``Packet.__init__``).

Counters are cheap (one read per simulation) and are collected in the
untraced pass of a traced run too, so the two passes can be compared
exactly.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Dict, List, Optional

from common import metric

#: Exact per-simulation counters read off a finished ``Simulation``.
COUNTER_NAMES = (
    "events", "dram_accesses", "link_tx", "wakeups", "width_transitions",
    "epochs",
)

#: Packages whose self time is reported as a share.
PACKAGES = ("sim", "network", "dram", "workloads", "core")


def simulation_counters(simulation) -> Dict[str, int]:
    """Exact work counters of one finished simulation."""
    network = simulation.network
    links = network.all_links()
    policy = simulation.policy
    return {
        "events": simulation.sim.events_processed,
        "dram_accesses": sum(m.vaults.accesses for m in network.modules),
        "link_tx": sum(link.packets_tx for link in links),
        "wakeups": sum(link.wakeups for link in links),
        "width_transitions": sum(link.width_transitions for link in links),
        "epochs": getattr(policy, "epochs_run", 0) if policy is not None else 0,
    }


class Instruments:
    """Wraps layer entry points while installed (``with Instruments(...)``).

    ``timing`` adds span timers; ``keep`` retains every finished
    simulation so it can be audited after timing ends.
    """

    def __init__(self, timing: bool = False, keep: bool = False) -> None:
        self.timing = timing
        self.keep = keep
        self.counters: Dict[str, Dict[str, int]] = {}
        self.simulations: Dict[str, object] = {}
        self.span_s: Dict[str, float] = defaultdict(float)
        self.span_n: Dict[str, int] = defaultdict(int)
        self._lock = threading.Lock()
        self._saved: List[tuple] = []

    def _patch(self, owner, name: str, wrapper_factory) -> None:
        original = getattr(owner, name)
        self._saved.append((owner, name, original))
        setattr(owner, name, wrapper_factory(original))

    def _span(self, label: str):
        def factory(original):
            def timed(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    with self._lock:
                        self.span_s[label] += elapsed
                        self.span_n[label] += 1
            return timed
        return factory

    def _counting_run(self, original):
        def run(simulation):
            original(simulation)
            key = simulation.config.cache_key()
            counts = simulation_counters(simulation)
            with self._lock:
                self.counters[key] = counts
                if self.keep:
                    self.simulations[key] = simulation
        return run

    def __enter__(self) -> "Instruments":
        import repro.harness.executor as executor
        from repro.harness.builder import Simulation, SimulationBuilder
        from repro.store.sqlite import SqliteStore

        if self.timing:
            self._patch(executor, "run_experiment", self._span("experiment"))
            self._patch(Simulation, "run", self._span("run"))
            self._patch(SimulationBuilder, "build", self._span("build"))
            for name in ("put", "get", "get_many"):
                self._patch(SqliteStore, name, self._span(f"store.{name}"))
        # Outermost, so reading counters stays out of the "run" span.
        self._patch(Simulation, "run", self._counting_run)
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)

    def span_mean_ms(self, label: str) -> float:
        """Mean milliseconds per call of span ``label`` (0 when never called)."""
        n = self.span_n.get(label, 0)
        return 1000.0 * self.span_s.get(label, 0.0) / n if n else 0.0


def counter_totals(counters: Dict[str, Dict[str, int]]) -> Dict[str, int]:
    """Sum per-simulation counters over a run."""
    totals = {name: 0 for name in COUNTER_NAMES}
    for counts in counters.values():
        for name in COUNTER_NAMES:
            totals[name] += counts[name]
    return totals


def package_of(filename: str) -> Optional[str]:
    """The ``repro`` subpackage a source file belongs to, if any."""
    marker = "/repro/"
    at = filename.rfind(marker)
    if at < 0:
        return None
    rest = filename[at + len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "repro"


def profile_summary(stats, exclude: str) -> Dict[str, object]:
    """Self-time shares by package and exact hot-function call counts.

    ``stats`` is a ``pstats.Stats``.  Shares are over the total self
    time the profile saw, less the benchmark's own code (files under
    ``exclude``: the host-speed kernel and the span wrappers); time in
    builtins and the standard library counts in the total but belongs
    to no package.  HTTP self time is
    ``repro/serve/http.py`` plus the stdlib ``http.server`` and
    ``socketserver`` modules it is built on.
    """
    from repro.network.links import LinkController
    from repro.network.packets import Packet

    hot = {
        "accrue": LinkController.accrue.__code__,
        "packet_init": Packet.__init__.__code__,
    }
    hot_keys = {
        name: (code.co_filename, code.co_firstlineno, code.co_name)
        for name, code in hot.items()
    }
    by_package: Dict[str, float] = defaultdict(float)
    http_s = 0.0
    total = 0.0
    calls = {name: 0 for name in hot}
    for key, (_cc, nc, tt, _ct, _callers) in stats.stats.items():
        filename = key[0]
        if filename.startswith(exclude):
            continue
        total += tt
        package = package_of(filename)
        if package is not None:
            by_package[package] += tt
        if (filename.endswith("/repro/serve/http.py")
                or filename.endswith("/http/server.py")
                or filename.endswith("/socketserver.py")):
            http_s += tt
        for name, hot_key in hot_keys.items():
            if key == hot_key:
                calls[name] += nc
    shares = {p: (by_package.get(p, 0.0) / total if total else 0.0)
              for p in PACKAGES}
    return {"shares": shares, "http_share": http_s / total if total else 0.0,
            "calls": calls}


def layer_metrics(totals: Dict[str, int], profile: Dict) -> Dict[str, Dict]:
    """Per-access counters and package self-time shares."""
    accesses = totals["dram_accesses"]
    per = (lambda n: n / accesses) if accesses else (lambda n: 0.0)
    shares = profile["shares"]
    calls = profile["calls"]
    return {
        "sim.events_per_access": metric(per(totals["events"]), "1/access"),
        "sim.self_share": metric(shares["sim"], "ratio"),
        "network.link_tx_per_access": metric(per(totals["link_tx"]), "1/access"),
        "network.packets_per_access": metric(per(calls["packet_init"]), "1/access"),
        "network.accrue_calls_per_access": metric(per(calls["accrue"]), "1/access"),
        "network.wakeups_per_access": metric(per(totals["wakeups"]), "1/access"),
        "network.width_transitions_per_access": metric(
            per(totals["width_transitions"]), "1/access"),
        "network.self_share": metric(shares["network"], "ratio"),
        "dram.accesses": metric(accesses, "count"),
        "dram.self_share": metric(shares["dram"], "ratio"),
        "workloads.self_share": metric(shares["workloads"], "ratio"),
        "core.epochs": metric(totals["epochs"], "count"),
        "core.self_share": metric(shares["core"], "ratio"),
    }


def serve_placeholders() -> Dict[str, Dict]:
    """The serve-layer metrics of a workload that serves nothing: zero."""
    return {
        "serve.memory_share": metric(0.0, "ratio"),
        "serve.disk_share": metric(0.0, "ratio"),
        "serve.simulated_share": metric(0.0, "ratio"),
        "serve.server_p50_ms": metric(0.0, "ms"),
        "serve.http_self_share": metric(0.0, "ratio"),
    }
