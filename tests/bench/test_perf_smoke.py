"""Perf-smoke tests: the simulator's speed floor, enforced.

Marked ``perf`` so they can be deselected (``-m "not perf"``) on saturated
machines.  The bounds are deliberately generous — an order of magnitude
below current numbers — so they only trip on real regressions (an
accidentally quadratic hot path, an event-loop bug), not on CI noise.
The benchmark that measures speed end to end and per layer is
``perfbench/``.
"""

import time

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed
from repro.workloads.tpcc_driver import TPCCDriverFactory
from repro.workloads.ycsb import YCSBConfig

#: A 2-CPU x86-64 box runs every case at > 60k events/s; a collapse below
#: this floor means a kernel hot path regressed by ~10x.
MIN_EVENTS_PER_S = 5_000
#: Every case finishes well under a second on that box.
MAX_CASE_WALL_S = 30.0

pytestmark = pytest.mark.perf


def _ycsb(protocol, regions=("VA", "OR"), clients_per_cluster=4):
    return lambda scale: RunConfig(
        protocol=protocol,
        scenario=Scenario(regions=list(regions), servers_per_cluster=2),
        workload=YCSBConfig(write_proportion=0.5),
        clients_per_cluster=clients_per_cluster,
        duration_ms=600.0 * scale,
        seed=0,
    )


def _tpcc(scale):
    return RunConfig(
        protocol="read-committed",
        scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2),
        workload=TPCCDriverFactory(),
        clients_per_cluster=2,
        duration_ms=800.0 * scale,
        warmup_ms=0.0,
        seed=0,
    )


#: One case per protocol family the figures sweep (their kernel paths
#: differ), a five-region geo case and TPC-C; each builds a fresh config
#: for a duration scale.
CASES = {
    "ycsb-eventual-2x2": _ycsb("eventual"),
    "ycsb-rc-2x2": _ycsb("read-committed"),
    "ycsb-mav-2x2": _ycsb("mav"),
    "ycsb-master-2x2": _ycsb("master"),
    "ycsb-eventual-geo5": _ycsb("eventual",
                                regions=("VA", "CA", "OR", "IR", "SI"),
                                clients_per_cluster=2),
    "tpcc-rc-2x2": _tpcc,
}


def _run(config):
    start = time.perf_counter()
    testbed = build_testbed(config.scenario)
    stats = run_workload(config, testbed=testbed)
    return stats, testbed.env.events_executed, time.perf_counter() - start


class TestPerfSmoke:
    def test_matrix_runs_within_bounds(self):
        for name, make in CASES.items():
            _, events, wall_s = _run(make(1.0))
            assert wall_s < MAX_CASE_WALL_S, name
            assert events > 0, name
            assert events / wall_s > MIN_EVENTS_PER_S, (
                f"{name}: events/sec collapsed to {events / wall_s:.0f} "
                "— a kernel hot path regressed")

    def test_cases_commit_work(self):
        """Speed without progress is meaningless: every case must commit."""
        for name, make in CASES.items():
            stats, _, _ = _run(make(0.5))
            assert stats.committed > 0, name
