"""The benchmark's workloads: each is a fixed sequence of simulation legs.

A leg is one seeded simulation through the public entry points plus the
checks on its simulated output.  The harness times its three phases
separately: ``setup`` (testbed build, campaign install, preload),
``simulate`` (the event loop) and ``verify`` (history build, isolation
checks, audit).  After a leg has run, ``snapshot`` returns every simulated
statistic it produced, which the harness hashes into the leg's digest, and
``counters`` returns the per-layer work counters.  Nothing here reads the
host clock except the checker timing, so a leg rerun with the same seed
must give the same snapshot.
"""

from __future__ import annotations

import dataclasses
import time
from typing import Any, Dict, List, Optional, Sequence

from repro.adya.history import HistoryRecorder
from repro.adya.levels import check_history
from repro.bench.runner import RunConfig, run_workload
from repro.chaos.campaign import canonical_staleness_campaign
from repro.chaos.nemesis import Nemesis
from repro.chaos.telemetry import TimelineTelemetry
from repro.hat.protocols import protocol_info
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.loadgen import OpenLoopConfig, PoissonArrivals, run_open_loop
from repro.overload import AdmissionConfig, RetryPolicy
from repro.replication.antientropy import AntiEntropyConfig
from repro.workloads.base import run_preload
from repro.workloads.tpcc_audit import audit_tpcc_history
from repro.workloads.tpcc_driver import TPCCDriverFactory, contended_tpcc_config
from repro.workloads.ycsb import YCSBConfig

#: Work counters reported as they are, summed over a workload's legs, with
#: their units.  ``hat.layers.sessions``/``session_keys_total`` are summed
#: too but reported as their ratio.
COUNTER_UNITS = {
    "sim.events": "count",
    "net.messages_sent": "count",
    "net.dropped_partition": "count",
    "cluster.requests": "count",
    "cluster.rejected": "count",
    "cluster.queue_wait_ms": "ms",
    "storage.puts": "count",
    "storage.gets": "count",
    "replication.ae_rounds": "count",
    "replication.versions_pushed": "count",
    "replication.versions_coalesced": "count",
    "hat.server.mav_notifies": "count",
    "loadgen.offered": "count",
    "loadgen.queue_peak": "count",
    "overload.retries": "count",
    "overload.server_rejected": "count",
    "membership.handoff_versions": "count",
    "obs.spans": "count",
    "obs.observations": "count",
    "adya.txns_checked": "count",
    "workloads.tpcc_anomalies": "count",
}


def plain(value: Any) -> Any:
    """A JSON-safe copy of simulated statistics (dataclasses, containers)."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {f.name: plain(getattr(value, f.name))
                for f in dataclasses.fields(value)
                if f.name != "digest"}  # the sketch object; ``latency`` summarises it
    if isinstance(value, dict):
        return {str(key): plain(item) for key, item in sorted(
            value.items(), key=lambda pair: str(pair[0]))}
    if isinstance(value, (list, tuple)):
        return [plain(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return repr(value)


class Leg:
    """One seeded simulation and the checks on its output."""

    def __init__(self, name: str):
        self.name = name
        self.testbed: Optional[Testbed] = None
        #: The entry point's run stats (``RunStats`` or ``OpenLoopStats``).
        self.stats: Any = None
        #: Simulated transactions offered / committed in the measured run.
        self.offered = 0
        self.committed = 0
        #: Host seconds spent in the isolation checker and the TPC-C audit.
        self.check_s = 0.0
        #: Failed output checks, as human-readable lines.
        self.failures: List[str] = []
        #: Check outcomes that belong in the digest (verdicts, witnesses).
        self.verdicts: Dict[str, Any] = {}
        self.txns_checked = 0
        self.tpcc_anomalies = 0

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def simulate(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        raise NotImplementedError

    def snapshot(self) -> Dict[str, Any]:
        """Every simulated statistic of the finished leg."""
        testbed = self.testbed
        servers = dict(testbed.servers)
        servers.update(testbed.retired)
        snapshot: Dict[str, Any] = {
            "run": plain(self.stats),
            "now_ms": testbed.env.now,
            "events": testbed.env.events_executed,
            "network": plain(testbed.network.stats),
            "servers": {name: {
                "server": plain(server.stats),
                "store": plain(server.store.stats),
                "anti_entropy": plain(server.anti_entropy.stats),
                "mav": plain(server.mav.stats),
                "handoff": plain(server.handoff),
            } for name, server in sorted(servers.items())},
            "membership": [record.as_dict()
                           for record in testbed.membership.records],
            "verdicts": self.verdicts,
        }
        if testbed.tracer is not None:
            snapshot["spans"] = len(testbed.tracer.spans)
        if testbed.metrics is not None:
            snapshot["metrics"] = testbed.metrics.prometheus()
        return snapshot

    def counters(self) -> Dict[str, float]:
        """Per-layer work counters read off the testbed's stats objects."""
        testbed = self.testbed
        servers = list(testbed.servers.values()) + list(testbed.retired.values())
        ae = [server.anti_entropy.stats for server in servers]
        rejected = sum(server.stats.rejected for server in servers)
        sessions = [client.session for client in testbed.clients
                    if getattr(client, "session", None) is not None]
        observations = 0
        if testbed.metrics is not None:
            observations = sum(window["count"]
                               for series in testbed.metrics.timeseries()["series"]
                               for window in series["windows"])
        return {
            "sim.events": testbed.env.events_executed,
            "net.messages_sent": testbed.network.stats.sent,
            "net.dropped_partition": testbed.network.stats.dropped_partition,
            "cluster.requests": sum(s.stats.requests for s in servers),
            "cluster.rejected": rejected,
            "cluster.queue_wait_ms": sum(s.stats.queue_wait_ms for s in servers),
            "storage.puts": sum(s.store.stats.puts for s in servers),
            "storage.gets": sum(s.store.stats.gets for s in servers),
            "replication.ae_rounds": sum(stats.rounds for stats in ae),
            "replication.versions_pushed": sum(stats.versions_pushed for stats in ae),
            "replication.versions_coalesced": sum(stats.versions_coalesced
                                                  for stats in ae),
            "hat.server.mav_notifies": sum(s.mav.stats.notifies_sent
                                           for s in servers),
            "hat.layers.sessions": len(sessions),
            "hat.layers.session_keys_total": sum(
                len(state.last_seen.keys() | state.own_writes.keys())
                for state in sessions),
            "loadgen.offered": 0,
            "loadgen.queue_peak": 0,
            "overload.retries": 0,
            "overload.server_rejected": rejected,
            "membership.handoff_versions": sum(
                record.versions_moved for record in testbed.membership.records),
            "obs.spans": len(testbed.tracer.spans) if testbed.tracer else 0,
            "obs.observations": observations,
            "adya.txns_checked": self.txns_checked,
            "workloads.tpcc_anomalies": self.tpcc_anomalies,
        }

    def _check(self, condition: bool, message: str) -> None:
        if not condition:
            self.failures.append(f"{self.name}: {message}")


class ClosedLoopLeg(Leg):
    """Closed-loop clients through ``run_workload``, optionally recorded.

    ``models`` are the isolation levels the recorded history must satisfy;
    with ``tpcc`` the workload is the contended TPC-C mix (preloaded during
    setup) and its history is audited for Section 6.2 anomalies.
    """

    def __init__(self, name: str, protocol: str, regions: Sequence[str],
                 workload_factory, clients_per_cluster: int,
                 duration_ms: float, models: Sequence[str] = (),
                 tracing: bool = False, tpcc: bool = False):
        super().__init__(name)
        self.protocol = protocol
        self.regions = list(regions)
        self.workload_factory = workload_factory
        self.clients_per_cluster = clients_per_cluster
        self.duration_ms = duration_ms
        self.models = tuple(models)
        self.tracing = tracing
        self.tpcc = tpcc

    def setup(self, seed: int) -> None:
        scenario = Scenario(regions=self.regions, servers_per_cluster=2,
                            seed=seed, tracing=self.tracing)
        self.testbed = build_testbed(scenario)
        factory = self.workload_factory()
        self.recorder = (HistoryRecorder() if self.models or self.tpcc
                         else None)
        if self.tpcc:
            run_preload(self.testbed, factory)
        self.config = RunConfig(
            protocol=self.protocol, scenario=scenario, workload=factory,
            clients_per_cluster=self.clients_per_cluster,
            duration_ms=self.duration_ms, warmup_ms=0.0, seed=seed)

    def simulate(self) -> None:
        self.stats = run_workload(self.config, testbed=self.testbed,
                                  recorder=self.recorder, preload=False)
        self.committed = self.stats.committed
        self.offered = self.stats.committed + self.stats.aborted

    def verify(self) -> None:
        self._check(self.committed > 0, "no transaction committed")
        if self.recorder is None:
            return
        history = self.recorder.build()
        started = time.perf_counter()
        for model in self.models:
            report = check_history(history, model)
            self.txns_checked += len(history.transactions)
            self.verdicts[model] = {name: len(witnesses) for name, witnesses
                                    in sorted(report.violations.items())}
            self._check(report.satisfied, f"{model} violated: "
                        + ", ".join(sorted(report.violations)))
        if self.tpcc:
            report = audit_tpcc_history(history)
            self.tpcc_anomalies = report.total_anomalies
            self.verdicts["tpcc_audit"] = {
                key: value for key, value in report.as_dict().items()
                if isinstance(value, int)}
        self.check_s = time.perf_counter() - started


class PartitionLeg(Leg):
    """Open-loop Poisson load through the canonical staleness campaign.

    Ring placement, the metrics registry on, capacity-coupled anti-entropy,
    adaptive-LIFO admission control and a retry policy with a budget and a
    breaker: every overload defence and the observatory are in the path.
    """

    #: Per-cluster arrival rate: enough writes that the partition strands
    #: an anti-entropy backlog, below the healthy knee.
    RATE_S = 200.0
    HEALTHY_MS = 600.0
    PARTITION_MS = 1_200.0
    REBALANCE_MS = 1_200.0

    def __init__(self, name: str, protocol: str):
        super().__init__(name)
        self.protocol = protocol

    def setup(self, seed: int) -> None:
        regions = ["VA", "OR"]
        scenario = Scenario(
            regions=regions, servers_per_cluster=2, seed=seed,
            placement="ring", virtual_nodes=64,
            anti_entropy=AntiEntropyConfig(capacity_coupled=True),
            admission=AdmissionConfig(max_queue_depth=64,
                                      policy="adaptive-lifo"),
            metrics=True)
        self.testbed = build_testbed(scenario)
        self.campaign = canonical_staleness_campaign(
            regions, cluster=self.testbed.config.cluster_names[0],
            healthy_ms=self.HEALTHY_MS, partition_ms=self.PARTITION_MS,
            rebalance_ms=self.REBALANCE_MS)
        Nemesis(self.testbed, self.campaign).install()
        self.telemetry = TimelineTelemetry(window_ms=200.0)
        retry = RetryPolicy(
            rpc_timeout_ms=2_000.0, lock_timeout_ms=2_000.0, max_attempts=3,
            backoff_base_ms=10.0, backoff_cap_ms=80.0,
            retry_budget_ratio=0.1, breaker_failure_threshold=8,
            breaker_cooldown_ms=500.0)
        self.config = OpenLoopConfig(
            protocol=self.protocol, scenario=scenario,
            arrivals=PoissonArrivals(self.RATE_S),
            workload=YCSBConfig(key_count=10_000), users=100_000,
            sessions_per_cluster=16, duration_ms=self.campaign.duration_ms,
            seed=seed, retry=retry)

    def simulate(self) -> None:
        self.stats = run_open_loop(self.config, testbed=self.testbed,
                                   telemetry=self.telemetry)
        self.offered = self.stats.offered
        self.committed = self.stats.committed

    def verify(self) -> None:
        healthy = self.campaign.phases[0]
        groups = self.telemetry.build()
        committed = {group: sum(window.committed
                                for window in timeline.phase_windows(healthy))
                     for group, timeline in sorted(groups.items())}
        self.verdicts["healthy_committed"] = committed
        self._check(bool(committed) and all(committed.values()),
                    f"healthy phase committed {committed}")

    def counters(self) -> Dict[str, float]:
        counters = super().counters()
        counters["loadgen.offered"] = self.stats.offered
        counters["loadgen.queue_peak"] = self.stats.queue_peak
        counters["overload.retries"] = self.stats.retries
        return counters


def _contended_ycsb() -> YCSBConfig:
    return YCSBConfig(operations_per_transaction=4, key_count=1_000)


def _tpcc() -> TPCCDriverFactory:
    return TPCCDriverFactory(config=contended_tpcc_config())


def steady_legs() -> List[Leg]:
    """Paper YCSB on a healthy VA+OR 2x2 deployment, one leg per HAT base."""
    return [ClosedLoopLeg(protocol, protocol, ["VA", "OR"], YCSBConfig,
                          clients_per_cluster=4, duration_ms=2_000.0)
            for protocol in ("eventual", "read-committed", "mav")]


def partition_legs() -> List[Leg]:
    return [PartitionLeg(protocol, protocol) for protocol in ("eventual", "mav")]


def verify_legs() -> List[Leg]:
    """Recorded histories checked against every model each stack claims."""
    return [
        ClosedLoopLeg("read-committed-tpcc", "read-committed", ["VA", "OR"],
                      _tpcc, clients_per_cluster=2, duration_ms=1_000.0,
                      models=protocol_info("read-committed").models,
                      tracing=True, tpcc=True),
        ClosedLoopLeg("mav", "mav", ["VA", "OR"], _contended_ycsb,
                      clients_per_cluster=2, duration_ms=1_000.0,
                      models=protocol_info("mav").models, tracing=True),
        ClosedLoopLeg("causal", "causal", ["VA", "OR"], _contended_ycsb,
                      clients_per_cluster=2, duration_ms=2_000.0,
                      models=protocol_info("causal").models, tracing=True),
        ClosedLoopLeg("two-phase-locking", "two-phase-locking", ["VA"],
                      _contended_ycsb, clients_per_cluster=2,
                      duration_ms=1_500.0, models=("1SR",), tracing=True),
    ]


#: Workload name -> builder of its legs, in the order they run.
WORKLOADS = {
    "steady": steady_legs,
    "partition": partition_legs,
    "verify": verify_legs,
}
