"""The served workload: ``serve_tiers``.

A run repeats identical sessions until its time is spent.  Each session
starts a fresh ``repro-mnet serve --store sqlite --jobs 1`` subprocess on
an empty store, with a memory LRU smaller than the working set.  A fill
phase sends each config once, cold (admission, dispatcher, executor,
simulation, store put).  Then one closed-loop ``ServeClient`` caller
sends a fixed number of requests drawn from a Zipf popularity, so most
hit the memory tier and a share hit the SQLite disk tier.  The session
ends with a graceful SIGTERM drain.  There is never more than one
caller.  Repeating whole sessions spreads the cold requests over the
run, so slow drifts in host speed average out.  Warm results are
checked, but warm latencies go to standard error only: they did not
hold steady enough across runs to be gated (see README.md).

The client and every server share one CPU.  A single closed-loop caller
gains nothing from a second core, and a request that crosses cores waits
on virtual-CPU wake-ups whose cost follows the host's load but not the
host-speed kernel; on one CPU the request path is CPU work the kernel
tracks.
"""

from __future__ import annotations

import json
import os
import select
import signal
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
    seeded_rng,
    traffic_seeds,
    zipf_stream,
)

#: Three cost tiers (sp.D cheap, lu.D middle, mixB dear), so the median
#: cold request falls inside the middle tier, not in a gap between two.
WORKLOADS = ("sp.D", "lu.D", "mixB")
MANAGEMENT = (
    ("FP", "none", 0.05), ("VWL+ROO", "unaware", 0.05),
    ("DVFS+ROO", "aware", 0.05),
)
#: Half the sweeps' window: served configs exercise the serve path, and
#: cheaper fills fit more sessions into a run.
WINDOW_NS = 5_000.0
EPOCH_NS = 1_250.0
#: LRU capacity, well under the 36-config working set, so the Zipf tail
#: falls through to the disk tier.
MEMORY_ENTRIES = 12
ZIPF_EXPONENT = 1.0
#: Warm requests per kernel-bracketed block.
BLOCK = 100
#: Warm requests per session (fixed, so every session does the same
#: work and tier counts repeat exactly).
WARM_REQUESTS = 1000
#: Server starts timed per run, at least (sessions count; set-up-only
#: starts make up the rest).
SETUP_SAMPLES = 7
READY_TIMEOUT_S = 60.0


def working_set(seed: int):
    """The configs clients ask for, most popular first (order from ``seed``)."""
    from repro.harness.experiment import ExperimentConfig
    from repro.network.topology import TOPOLOGY_NAMES

    shapes = [dict(topology=t, workload=w, mechanism=m, policy=p, alpha=a)
              for t in TOPOLOGY_NAMES for w in WORKLOADS for m, p, a in MANAGEMENT]
    seeds = traffic_seeds(seed, len(shapes), "serve_tiers")
    configs = [ExperimentConfig(window_ns=WINDOW_NS, epoch_ns=EPOCH_NS, seed=s,
                                **shape)
               for shape, s in zip(shapes, seeds)]
    seeded_rng(seed, "popularity").shuffle(configs)
    return configs


class Server:
    """One ``repro-mnet serve`` subprocess on an ephemeral port."""

    def __init__(self, workdir: Path, name: str,
                 profile_out: Optional[Path] = None) -> None:
        src = str(Path.cwd() / "src")
        args = ["serve", "--port", "0", "--store", "sqlite",
                "--cache-dir", str(workdir / f"{name}-store"), "--jobs", "1",
                "--memory-entries", str(MEMORY_ENTRIES)]
        if profile_out is None:
            command = [sys.executable, "-m", "repro.cli", *args]
        else:
            command = [sys.executable, str(BENCH_DIR / "serve_launcher.py"),
                       src, str(profile_out), *args]
        env = dict(os.environ)
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        self.log = open(workdir / f"{name}.log", "w")
        start = time.perf_counter()
        self.proc = subprocess.Popen(command, stdout=subprocess.PIPE,
                                     stderr=self.log, env=env, text=True)
        try:
            self.url = self._await_ready(start)
        except BaseException:
            self.stop()
            raise
        self.setup_raw_s = time.perf_counter() - start

    def _await_ready(self, start: float) -> str:
        from repro.serve.client import ServeClient, ServeConnectionError

        line = ""
        while "listening on " not in line:
            remaining = READY_TIMEOUT_S - (time.perf_counter() - start)
            ready, _, _ = select.select([self.proc.stdout], [], [], max(remaining, 0))
            if not ready:
                raise RuntimeError("server did not announce its port")
            line = self.proc.stdout.readline()
            if not line:
                raise RuntimeError(f"server exited with {self.proc.wait()}")
        url = line.split("listening on ", 1)[1].split()[0]
        probe = ServeClient(url, timeout_s=5.0)
        while time.perf_counter() - start < READY_TIMEOUT_S:
            try:
                if probe.request("/v1/healthz/ready")[0] == 200:
                    return url
            except ServeConnectionError:
                pass
            time.sleep(0.002)
        raise RuntimeError("server never became ready")

    def stop(self) -> int:
        """SIGTERM (graceful drain) and wait; returns the exit code."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=120)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            code = self.proc.wait()
        self.proc.stdout.close()
        self.log.close()
        return code


@dataclass
class Session:
    """What one server session measured and served."""

    fill_ms: List[float]
    payloads: Dict[str, dict]
    warm_ms: List[float]
    tiers: Dict[str, int]
    stats: Dict


class ServeBench:
    """State of one serve run: clock, tally, working set, references."""

    def __init__(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.workdir = workdir
        self.clock = HostClock()
        self.tally = Tally()
        self.configs = working_set(seed)
        self.keys = [c.cache_key() for c in self.configs]
        self.setup_s: List[float] = []
        self.servers = 0

    def start(self, profile_out: Optional[Path] = None) -> Server:
        self.servers += 1
        server = Server(self.workdir, f"server{self.servers}", profile_out)
        self.setup_s.append(self.clock.normalise(server.setup_raw_s))
        return server

    def session(self, profile_out: Optional[Path] = None) -> "Session":
        """One server from spawn to drained exit: fill, then warm requests."""
        from repro.serve.client import ServeClient

        server = self.start(profile_out)
        try:
            client = ServeClient(server.url)
            fill_ms, payloads = self.fill(client)
            warm_ms, tiers = self.warm(client, payloads)
            stats = client.stats()
            self.check_stats(stats, tiers)
        finally:
            code = server.stop()
        self.tally.check(code == 0, f"server exited with {code}")
        return Session(fill_ms, payloads, warm_ms, tiers, stats)

    def fill(self, client) -> Tuple[List[float], Dict[str, dict]]:
        """Each config once, cold: (normalised ms per request, payloads)."""
        from repro.serve.client import ServeError

        latencies: List[float] = []
        payloads: Dict[str, dict] = {}
        for key, config in zip(self.keys, self.configs):
            start = time.perf_counter()
            try:
                outcome = client.run_detailed(config)
            except ServeError as exc:
                self.clock.close_piece()
                self.tally.check(False, f"fill {key}: {exc}")
                continue
            latencies.append(1000.0 * self.clock.normalise(time.perf_counter() - start))
            ok = outcome.tier == "simulated" and outcome.key == key
            if self.tally.check(ok, f"fill {key}: tier {outcome.tier}"):
                payloads[key] = outcome.payload["result"]
        return latencies, payloads

    def warm(self, client, payloads: Dict[str, dict]
             ) -> Tuple[List[float], Dict[str, int]]:
        """Zipf requests in kernel-bracketed blocks:
        (normalised ms per request, tier counts)."""
        from repro.serve.client import ServeError

        stream = zipf_stream(self.seed, len(self.configs), ZIPF_EXPONENT)
        latencies: List[float] = []
        tiers: Dict[str, int] = {"memory": 0, "disk": 0, "simulated": 0}
        for _ in range(0, WARM_REQUESTS, BLOCK):
            raw, outcomes = [], []
            for _ in range(BLOCK):
                index = next(stream)
                start = time.perf_counter()
                try:
                    outcome = client.run_detailed(self.configs[index])
                except ServeError as exc:
                    outcome = exc
                raw.append(time.perf_counter() - start)
                outcomes.append((index, outcome))
            factor = self.clock.close_piece()
            for (index, outcome), seconds in zip(outcomes, raw):
                key = self.keys[index]
                if isinstance(outcome, ServeError):
                    self.tally.check(False, f"warm {key}: {outcome}")
                    continue
                latencies.append(1000.0 * seconds * factor)
                tiers[outcome.tier] = tiers.get(outcome.tier, 0) + 1
                self.tally.check(
                    outcome.tier in ("memory", "disk")
                    and outcome.payload["result"] == payloads.get(key),
                    f"warm {key}: tier {outcome.tier} or result differs from fill",
                )
        return latencies, tiers

    def check_stats(self, stats: Dict, tiers: Dict[str, int]) -> None:
        """The server's own tier counters must match what the client saw."""
        served = stats["tiers"]
        want = (len(self.configs) + tiers["simulated"], tiers["memory"], tiers["disk"])
        got = (served["simulated"], served["memory"], served["disk"])
        self.tally.check(got == want and stats["failed"] == 0,
                         f"/v1/stats tiers {got} != client-observed {want}")

    def check_results(self, digests: Dict[str, str]):
        """Served result digests must equal in-process ``run_experiment``,
        and on the default seed the recorded digests.  Returns the
        in-process exact counters per config."""
        from repro.harness.experiment import run_experiment
        from tracing import Instruments

        expected = load_digests("serve_tiers") if self.seed == DEFAULT_SEED else {}
        with Instruments() as inst:
            for key, config in zip(self.keys, self.configs):
                local = payload_digest(run_experiment(config))
                served = digests.get(key)
                want = expected.get(key, local)
                self.tally.check(served == local == want,
                                 f"served {key}: digest {served}, in-process "
                                 f"{local}, recorded {want}")
        return inst.counters


def payload_digests(payloads: Dict[str, dict]) -> Dict[str, str]:
    """``{key: payload_digest}`` of served result payloads."""
    from repro.harness.io import result_from_cache_dict

    return {key: payload_digest(result_from_cache_dict(payload))
            for key, payload in payloads.items()}


def run(seed: int, seconds: float, trace: bool,
        workdir: Path) -> Tuple[Tally, Dict[str, Dict[str, object]]]:
    """Run ``serve_tiers``; returns the tally and the metrics."""
    # Servers inherit the affinity, so set it before the first spawn.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    bench = ServeBench(seed, workdir)
    if trace:
        return bench.tally, traced(bench)
    fills: List[float] = []
    fill_ms: List[float] = []
    warm_ms: List[float] = []
    sessions: List[Session] = []
    start = time.perf_counter()
    session_s = 0.0
    while not sessions or time.perf_counter() - start + session_s <= seconds:
        began = time.perf_counter()
        sessions.append(bench.session())
        fills.append(sum(sessions[-1].fill_ms) / 1000.0)
        fill_ms.extend(sessions[-1].fill_ms)
        warm_ms.extend(sessions[-1].warm_ms)
        session_s = time.perf_counter() - began
    while len(bench.setup_s) < SETUP_SAMPLES:
        code = bench.start().stop()
        bench.tally.check(code == 0, f"set-up server exited with {code}")
    rss = peak_rss_mb(children=True)
    first = sessions[0]
    bench.check_results(payload_digests(first.payloads))
    for other in sessions[1:]:
        bench.tally.check(
            other.tiers == first.tiers
            and payload_digests(other.payloads) == payload_digests(first.payloads),
            "a session served other results or tiers", count=len(bench.configs))
    tiers = first.tiers
    print(f"# serve_tiers: {len(sessions)} sessions of {len(bench.configs)} cold "
          f"and {WARM_REQUESTS} warm requests; warm tiers: memory "
          f"{tiers['memory'] / WARM_REQUESTS:.3f}, disk "
          f"{tiers['disk'] / WARM_REQUESTS:.3f}; warm latency (not gated): "
          f"p50 {quantile(warm_ms, 0.5):.3f} ms, p90 {quantile(warm_ms, 0.9):.3f} ms "
          f"over {len(warm_ms)}", file=sys.stderr)
    return bench.tally, {
        "setup_s": metric(median(bench.setup_s), "s"),
        "peak_rss_mb": metric(rss, "MB"),
        "cold_s": metric(median(fills), "s"),
        "cold_p50_ms": metric(quantile(fill_ms, 0.5), "ms"),
    }


def traced(bench: ServeBench) -> Dict[str, Dict]:
    """An untraced session, then a profiled one; per-layer metrics."""
    from tracing import counter_totals, layer_metrics

    plain = bench.session()
    out = bench.workdir / "profile.json"
    session = bench.session(profile_out=out)
    report = json.loads(out.read_text())
    digests = payload_digests(session.payloads)
    local_counters = bench.check_results(digests)
    same = (plain.tiers == session.tiers
            and payload_digests(plain.payloads) == digests
            and report["counters"] == local_counters)
    bench.tally.check(same, "traced tiers, results or counters differ from "
                      "the untraced session", count=len(bench.configs))
    factor = bench.clock.factor()
    spans = report["spans"]
    span_s = {label: s for label, (s, _n) in spans.items()}

    def mean_ms(label: str) -> float:
        s, n = spans.get(label, (0.0, 0))
        return 1000.0 * s * factor / n if n else 0.0

    tiers = session.tiers
    served = sum(tiers.values())
    disk = session.stats["disk_cache"]
    lookups = disk["hits"] + disk["misses"]
    metrics = layer_metrics(counter_totals(report["counters"]), report["profile"])
    metrics.update({
        "harness.build_s": metric(span_s.get("build", 0.0) * factor, "s"),
        "harness.run_s": metric(span_s.get("run", 0.0) * factor, "s"),
        "harness.package_s": metric(
            (span_s.get("experiment", 0.0) - span_s.get("build", 0.0)
             - span_s.get("run", 0.0)) * factor, "s"),
        # The server runs configs ticket by ticket: there is no sweep loop.
        "harness.overhead_s": metric(0.0, "s"),
        "store.put_ms": metric(mean_ms("store.put"), "ms"),
        "store.get_many_ms": metric(mean_ms("store.get_many"), "ms"),
        "store.get_ms": metric(mean_ms("store.get"), "ms"),
        "store.hit_ratio": metric(disk["hits"] / lookups if lookups else 0.0, "ratio"),
        "serve.memory_share": metric(tiers["memory"] / served, "ratio"),
        "serve.disk_share": metric(tiers["disk"] / served, "ratio"),
        "serve.simulated_share": metric(tiers["simulated"] / served, "ratio"),
        "serve.server_p50_ms": metric(plain.stats["latency"]["p50_ms"], "ms"),
        "serve.http_self_share": metric(report["profile"]["http_share"], "ratio"),
        "setup.import_s": metric(report["import_s"] * factor, "s"),
        "trace.overhead": metric(sum(session.fill_ms) / sum(plain.fill_ms), "ratio"),
    })
    return metrics
