"""Closed-loop workload driver.

Mirrors the paper's methodology: a fixed number of client threads per
cluster issue transactions back-to-back ("closed loop") for a fixed
duration; throughput is committed transactions per second and latency is the
transaction round-trip observed by the clients.  ``protocol`` is any spec
the protocol registry accepts — a plain base (``"mav"``) or a guarantee
stack (``"causal"``, ``"mav+wfr+mr"``) — so figure-style experiments can
sweep composite protocols.

The workload is pluggable: ``RunConfig.workload`` is any *workload factory*
(see :mod:`repro.workloads.base`) — :class:`~repro.workloads.ycsb.YCSBConfig`
for the paper's YCSB runs, :class:`~repro.workloads.tpcc_driver.TPCCDriverFactory`
for TPC-C through the cluster.  The runner builds one workload per client,
executes the factory's preload (plus an anti-entropy settle period) before
the measured interval, and feeds every finished result back through the
workload's ``observe`` hook so stateful drivers track what actually
committed.

Closed-loop load is inherently self-throttling: clients wait for replies,
so offered rate falls as the system slows and overload never shows.  For
arrival-process load over bounded session pools — saturation knees,
queueing delay, backlog drain — use the open-loop sibling,
:func:`repro.loadgen.engine.run_open_loop`.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from typing import Any, List, Optional

from repro.bench.metrics import RunStats, summarize_run
from repro.hat.testbed import Scenario, Testbed, build_testbed
from repro.overload.retry import RetryPolicy
from repro.hat.transaction import TransactionResult
from repro.workloads.base import Workload, as_workload_factory, run_preload
from repro.workloads.ycsb import YCSBConfig

#: Default grace period: this multiple of the deployment's worst mean RTT.
GRACE_RTT_MULTIPLE = 10.0
#: Floor on the default grace period (the historical fixed value), so small
#: deployments keep their previous timing.
MIN_GRACE_PERIOD_MS = 2_000.0


@dataclass
class RunConfig:
    """Parameters of one benchmark run."""

    protocol: str
    scenario: Scenario
    #: Any workload factory (``build(seed, session_id)`` plus optional
    #: ``initial_transactions()``/``settle_ms`` — see repro.workloads.base).
    workload: Any = field(default_factory=YCSBConfig)
    clients_per_cluster: int = 4
    duration_ms: float = 1000.0
    warmup_ms: float = 100.0
    seed: int = 0
    #: How long to keep the simulation running past ``duration_ms`` so that
    #: in-flight transactions finish.  ``None`` scales with the scenario:
    #: ``GRACE_RTT_MULTIPLE`` times the worst mean RTT (with a floor of
    #: ``MIN_GRACE_PERIOD_MS``), because a fixed grace period silently
    #: truncates transactions in high-latency geo deployments.
    grace_period_ms: Optional[float] = None
    #: The run's timeout/backoff discipline: RPC deadline, per-protocol
    #: lock deadline, and the pacing after an abort that consumed no
    #: simulated time — see :class:`repro.overload.retry.RetryPolicy`.
    retry: RetryPolicy = field(default_factory=RetryPolicy)

    @property
    def total_clients(self) -> int:
        return self.clients_per_cluster * len(self.scenario.cluster_regions())


def default_grace_period_ms(testbed: Testbed) -> float:
    """The grace period used when :attr:`RunConfig.grace_period_ms` is None."""
    return max(MIN_GRACE_PERIOD_MS, GRACE_RTT_MULTIPLE * testbed.max_rtt_ms())


def run_workload(config: RunConfig,
                 testbed: Optional[Testbed] = None,
                 recorder: Optional[object] = None,
                 telemetry: Optional[object] = None,
                 preload: bool = True) -> RunStats:
    """Execute one closed-loop run and aggregate its results.

    ``telemetry`` (a :class:`~repro.chaos.telemetry.TimelineTelemetry`)
    receives a ``begin``/``complete`` pair per transaction, keyed by the
    issuing client's home region, so chaos experiments can build per-window
    availability timelines out of the same closed-loop run.

    ``preload=False`` skips the factory's initial load — for callers that
    already ran :func:`~repro.workloads.base.run_preload` themselves, e.g.
    to install a chaos campaign *after* the preload so its fault timeline
    is relative to the measured run.
    """
    testbed = testbed or build_testbed(config.scenario)
    env = testbed.env
    factory = as_workload_factory(config.workload)
    # The simulation allocates millions of short-lived tuples and messages;
    # generational GC passes over them cost ~15% of a run's wall-clock and
    # collect nothing of note mid-run.  Pause collection for the run's
    # duration (cycles created during the run are reclaimed once normal
    # collection resumes).
    gc_was_enabled = gc.isenabled()
    if gc_was_enabled:
        gc.disable()
    try:
        return _run_workload_inner(config, testbed, env, factory, recorder,
                                   telemetry, preload)
    finally:
        if gc_was_enabled:
            gc.enable()


def _run_workload_inner(config: RunConfig, testbed: Testbed, env,
                        factory, recorder, telemetry, preload) -> RunStats:
    # Preload (e.g. the TPC-C initial contents) happens before the measured
    # interval, through a plain eventual client with no recorder attached.
    if preload:
        run_preload(testbed, factory)
    start_ms = env.now
    end_ms = start_ms + config.duration_ms
    results: List[TransactionResult] = []
    if telemetry is not None:
        # Windows tile the measured interval only, so windowed totals agree
        # with the warmup-excluding aggregate stats.
        telemetry.start_run(start_ms + config.warmup_ms, end_ms)

    abort_backoff_ms = config.retry.abort_backoff_ms
    client_kwargs = config.retry.client_kwargs(config.protocol)

    def client_loop(client, workload: Workload, group: str):
        observe = getattr(workload, "observe", None)
        while env.now < end_ms:
            transaction = workload.next_transaction()
            attempt = None
            if telemetry is not None:
                attempt = telemetry.begin(group, env.now)
            result = yield client.execute(transaction)
            results.append(result)
            if observe is not None:
                observe(result)
            if attempt is not None:
                telemetry.complete(attempt, result)
            if not result.committed and result.latency_ms <= 0.0:
                # Fail-fast abort (e.g. the master's local reachability
                # check): back off so the simulated clock always advances.
                yield env.timeout(abort_backoff_ms)

    client_index = 0
    for cluster_name in testbed.config.cluster_names:
        group = testbed.config.cluster(cluster_name).region
        for _ in range(config.clients_per_cluster):
            client = testbed.make_client(config.protocol,
                                         home_cluster=cluster_name,
                                         recorder=recorder,
                                         **client_kwargs)
            workload = factory.build(seed=config.seed * 10_000 + client_index,
                                     session_id=client_index)
            env.process(client_loop(client, workload, group))
            client_index += 1

    # Let every in-flight transaction finish: run a grace period past the end.
    grace_ms = config.grace_period_ms
    if grace_ms is None:
        grace_ms = default_grace_period_ms(testbed)
    env.run(until=end_ms + grace_ms)

    return summarize_run(
        protocol=config.protocol,
        clients=config.total_clients,
        duration_ms=config.duration_ms,
        results=results,
        warmup_ms=config.warmup_ms,
        start_ms=start_ms,
    )
