"""Helpers shared by every mnetbench workload.

Nothing here imports the simulator at module load: ``bootstrap`` puts the
checkout's ``src`` directory first on ``sys.path`` (the benchmark always
measures the source tree it sits in, never an installed copy) and fails
loudly when that tree is missing.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import resource
import sys
import time
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

#: The benchmark's own directory and the checkout root it runs from.
BENCH_DIR = Path(__file__).resolve().parent

#: Default workload seed; ``digests.json`` pins results for this seed.
DEFAULT_SEED = 1

#: Iterations of the host-speed kernel (about 30 ms on a 2-core VM).
KERNEL_ITERATIONS = 150_000

#: Kernel time of the reference host.  A normalised time reads "seconds
#: this piece would have taken on a host that runs the kernel this fast".
#: It is a fixed constant, never re-fitted, so normalised figures from
#: different runs and commits compare directly.
REF_KERNEL_S = 0.030


class SourceTreeMissing(RuntimeError):
    """The checkout does not hold the simulator's source tree."""


def bootstrap(root: Path) -> Path:
    """Make ``root/src`` importable ahead of anything installed.

    Raises :class:`SourceTreeMissing` when ``root`` has no
    ``src/repro`` package (for example a directory holding only the
    benchmark), so the caller can exit without printing a result.
    """
    src = (root / "src").resolve()
    if not (src / "repro" / "__init__.py").is_file():
        raise SourceTreeMissing(f"no simulator source tree under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != src / "repro":
        raise SourceTreeMissing(
            f"imported repro from {repro.__file__}, not from {src}"
        )
    return src


# ----------------------------------------------------------------------
# Host-speed normalisation
# ----------------------------------------------------------------------
def kernel(iterations: int = KERNEL_ITERATIONS) -> float:
    """Seconds to run a fixed pure-Python loop that calls no repo code."""
    start = time.perf_counter()
    total = 0
    x = 0.5
    for i in range(iterations):
        total = (total + i * 2654435761) & 0xFFFFFFFF
        x = x * 0.9999997 + 1e-7
    elapsed = time.perf_counter() - start
    if total < 0 or x < 0:  # keeps the loop's results live
        raise AssertionError("unreachable")
    return elapsed


def normalise(
    seconds: float, kernel_before: float, kernel_after: float,
    ref: float = REF_KERNEL_S,
) -> float:
    """A piece's time scaled to the reference host.

    The piece is assumed to run at the mean speed of the two kernels
    that bracket it: a plain ratio, with no fitted exponent.
    """
    mean = (kernel_before + kernel_after) / 2.0
    if mean <= 0:
        raise ValueError("kernel times must be positive")
    return seconds * ref / mean


class HostClock:
    """Brackets consecutive timed pieces with the kernel.

    Consecutive pieces share a kernel: the one run after piece *i* is
    also the one before piece *i+1*.  Kernel time is kept out of every
    piece and tracked in :attr:`kernel_s`.
    """

    def __init__(self) -> None:
        self.kernel_s = 0.0
        self.factors: List[float] = []
        self._last = self._kernel()

    def _kernel(self) -> float:
        k = kernel()
        self.kernel_s += k
        return k

    def close_piece(self) -> float:
        """End the current piece: run the next kernel and return the
        piece's scale factor (normalised = raw x factor)."""
        after = self._kernel()
        factor = normalise(1.0, self._last, after)
        self.factors.append(factor)
        self._last = after
        return factor

    def normalise(self, seconds: float) -> float:
        """Close the current piece and return ``seconds`` normalised."""
        return seconds * self.close_piece()

    def factor(self) -> float:
        """Median scale factor of the pieces closed so far, for time
        spent between pieces."""
        return median(self.factors)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------
#: A reported quantile needs at least this many samples beyond it.
MIN_TAIL_SAMPLES = 10


def samples_beyond(n: int, q: float) -> int:
    """Samples that lie above quantile ``q`` of ``n`` samples."""
    return int(math.floor((1.0 - q) * n + 1e-9))


def quantile(values: Sequence[float], q: float) -> float:
    """Linearly interpolated quantile ``q`` of ``values``.

    Raises ``ValueError`` unless at least :data:`MIN_TAIL_SAMPLES`
    samples lie beyond it, so a p90 needs 100 samples and a median 20.
    """
    n = len(values)
    if samples_beyond(n, q) < MIN_TAIL_SAMPLES:
        raise ValueError(
            f"quantile {q} of {n} samples has fewer than "
            f"{MIN_TAIL_SAMPLES} samples beyond it"
        )
    ordered = sorted(values)
    pos = q * (n - 1)
    lo = int(math.floor(pos))
    hi = min(lo + 1, n - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def median(values: Sequence[float]) -> float:
    """Plain median (no tail-sample rule: used for repeated whole runs)."""
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("median of no values")
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2.0


# ----------------------------------------------------------------------
# Inputs derived from the workload seed
# ----------------------------------------------------------------------
def seeded_rng(seed: int, stream: str) -> random.Random:
    """An independent, platform-stable random stream per (seed, purpose)."""
    return random.Random(f"mnetbench:{stream}:{seed}")


def traffic_seeds(seed: int, count: int, stream: str) -> List[int]:
    """``count`` distinct simulator traffic seeds derived from ``seed``."""
    rng = seeded_rng(seed, stream)
    out: List[int] = []
    seen = set()
    while len(out) < count:
        value = rng.randrange(1, 2**31)
        if value not in seen:
            seen.add(value)
            out.append(value)
    return out


def zipf_stream(seed: int, items: int, exponent: float = 1.0) -> Iterator[int]:
    """Endless item indices drawn from a Zipf popularity over ``items``.

    Index 0 is the most popular.  The stream is fixed by ``seed``.
    """
    weights = [1.0 / (rank + 1) ** exponent for rank in range(items)]
    cumulative = []
    acc = 0.0
    for w in weights:
        acc += w
        cumulative.append(acc)
    rng = seeded_rng(seed, "zipf")
    population = range(items)
    while True:
        yield from rng.choices(population, cum_weights=cumulative, k=256)


# ----------------------------------------------------------------------
# Correctness and reporting
# ----------------------------------------------------------------------
def payload_digest(result) -> str:
    """Digest of a result's full payload minus its machine-dependent
    ``wall_time_s``.

    Canonical JSON (sorted keys; floats written with ``repr``, so every
    bit counts) makes the digest independent of dict order, which a
    result loses when it round-trips through the store or the server.
    """
    from repro.harness.io import result_to_cache_dict

    payload = result_to_cache_dict(result)
    payload.pop("wall_time_s", None)
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def load_digests(workload: str) -> Dict[str, str]:
    """Recorded ``{cache_key: digest}`` for ``workload`` at the default seed."""
    path = BENCH_DIR / "digests.json"
    return json.loads(path.read_text()).get(workload, {})


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size in MB (Linux reports ``ru_maxrss`` in KiB)."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


class Tally:
    """Attempted / failed operation counts plus failure notes."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def check(self, ok: bool, note: str, count: int = 1) -> bool:
        """Record ``count`` operations; all fail together when ``ok`` is false."""
        self.attempted += count
        if not ok:
            self.failed += count
            if len(self.notes) < 20:
                self.notes.append(note)
        return ok


def metric(value: float, unit: str) -> Dict[str, object]:
    """One metric entry of the result line."""
    return {"value": value, "unit": unit}


def emit(tally: Tally, metrics: Dict[str, Dict[str, object]]) -> None:
    """Print the result line: the last line of standard output."""
    for note in tally.notes:
        print(f"# FAILED: {note}", file=sys.stderr)
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": metrics,
    }), flush=True)
