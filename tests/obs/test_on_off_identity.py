"""Observability on == off: switching it on must not change the simulation.

Tracing and the metrics registry are inline bookkeeping: they schedule no
simulator events and draw no randomness.  A run with either one switched on
must therefore execute the identical event sequence and commit the identical
transactions as the same seeded run with it off — otherwise the
instrumentation perturbs what it measures, and every traced or metered
artifact is suspect.
"""

import pytest

from repro.bench.runner import RunConfig, run_workload
from repro.hat.testbed import Scenario, build_testbed
from repro.workloads.ycsb import YCSBConfig


def canonical_causal_run(**observability):
    """The seeded causal YCSB run on a VA+OR 2x2 deployment."""
    config = RunConfig(
        protocol="causal",
        scenario=Scenario(regions=["VA", "OR"], servers_per_cluster=2,
                          seed=0, **observability),
        workload=YCSBConfig(),
        clients_per_cluster=4,
        duration_ms=200.0,
        seed=0,
    )
    testbed = build_testbed(config.scenario)
    stats = run_workload(config, testbed=testbed)
    return testbed, stats


def recorded(testbed, switch):
    """How much the switched-on substrate recorded."""
    if switch == "tracing":
        return len(testbed.tracer.spans)
    registry = testbed.metrics
    return (registry.counter_total("staleness_installs_total")
            + registry.counter_total("staleness_reads_total"))


@pytest.mark.parametrize("switch", ["tracing", "metrics"])
def test_observability_runs_identical_events(switch):
    off, off_stats = canonical_causal_run()
    on, on_stats = canonical_causal_run(**{switch: True})
    assert off_stats.committed > 0
    assert on.env.events_executed == off.env.events_executed
    assert on_stats.committed == off_stats.committed
    assert recorded(on, switch) > 0
