"""Unit tests for the benchmark's own helpers.

Run from the root of a checkout::

    python3 -m pytest mnetbench/test_helpers.py -q
"""

import itertools

import pytest

import common
from common import (
    HostClock,
    normalise,
    quantile,
    samples_beyond,
    traffic_seeds,
    zipf_stream,
)
from tracing import package_of


def test_twice_as_slow_host_leaves_normalised_time_unchanged():
    fast = normalise(0.5, kernel_before=0.03, kernel_after=0.03)
    slow = normalise(1.0, kernel_before=0.06, kernel_after=0.06)
    assert slow == pytest.approx(fast)
    assert fast == pytest.approx(0.5 * common.REF_KERNEL_S / 0.03)


def test_normalise_uses_the_mean_of_both_brackets():
    assert normalise(1.0, 0.02, 0.04, ref=0.03) == pytest.approx(1.0)
    with pytest.raises(ValueError):
        normalise(1.0, 0.0, 0.0)


def test_host_clock_shares_kernels_between_consecutive_pieces(monkeypatch):
    kernels = iter([0.03, 0.06, 0.06, 0.03])
    monkeypatch.setattr(common, "kernel", lambda: next(kernels))
    clock = HostClock()
    # Piece 1 sits between kernels 0.03 and 0.06; piece 2 between 0.06
    # and 0.06 (the first piece's closing kernel opens the second).
    assert clock.normalise(0.9) == pytest.approx(0.9 * common.REF_KERNEL_S / 0.045)
    assert clock.normalise(1.2) == pytest.approx(1.2 * common.REF_KERNEL_S / 0.06)
    assert clock.kernel_s == pytest.approx(0.15)
    assert clock.factor() == pytest.approx(
        (common.REF_KERNEL_S / 0.045 + common.REF_KERNEL_S / 0.06) / 2)


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert quantile(list(range(100)), 0.9) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        quantile(list(range(99)), 0.9)


def test_median_needs_twenty_samples():
    assert quantile([float(v) for v in range(20)], 0.5) == pytest.approx(9.5)
    with pytest.raises(ValueError):
        quantile([1.0] * 19, 0.5)


def test_zipf_stream_is_fixed_by_the_seed():
    first = list(itertools.islice(zipf_stream(7, 32), 2000))
    again = list(itertools.islice(zipf_stream(7, 32), 2000))
    other = list(itertools.islice(zipf_stream(8, 32), 2000))
    assert first == again
    assert first != other
    assert set(first) <= set(range(32))
    counts = [first.count(i) for i in range(32)]
    assert counts[0] == max(counts)
    assert counts[0] > 4 * counts[-1]


def test_traffic_seeds_are_distinct_and_fixed_by_seed_and_stream():
    seeds = traffic_seeds(1, 64, "sweep_fp")
    assert len(set(seeds)) == 64
    assert seeds == traffic_seeds(1, 64, "sweep_fp")
    assert seeds != traffic_seeds(2, 64, "sweep_fp")
    assert seeds != traffic_seeds(1, 64, "sweep_managed")


def test_package_of_groups_by_repro_subpackage():
    assert package_of("/x/src/repro/network/links.py") == "network"
    assert package_of("/x/src/repro/cli.py") == "repro"
    assert package_of("/usr/lib/python3.11/heapq.py") is None
    assert package_of("~") is None
