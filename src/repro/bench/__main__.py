"""Command-line entry point: regenerate paper artifacts from the terminal.

Usage::

    python -m repro.bench --list
    python -m repro.bench table1 table3 fig2
    python -m repro.bench fig4 --quick

Each artifact name corresponds to one table or figure of the paper; the
command prints the same report the benchmark suite produces.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Dict, Optional

from repro.bench.experiments import (
    AVAILABILITY_PROTOCOLS,
    ELASTICITY_PROTOCOLS,
    SATURATION_PROTOCOLS,
    TPCC_SIM_PROTOCOLS,
    availability_experiment,
    composite_guarantee_sweep,
    elasticity_experiment,
    figure3_geo_replication,
    figure4_transaction_length,
    figure5_write_proportion,
    figure6_scale_out,
    metastability_experiment,
    saturation_experiment,
    staleness_experiment,
    tpcc_sim_experiment,
    trace_experiment,
)
from repro.bench.provenance import provenance_header
from repro.bench.report import (
    availability_report_json,
    elasticity_report_json,
    format_availability,
    format_elasticity,
    format_latency_and_throughput,
    format_metastability,
    format_saturation,
    format_series,
    format_staleness,
    format_tpcc_sim,
    format_trace,
    metastability_report_json,
    saturation_report_json,
    staleness_report_json,
    tpcc_sim_report_json,
    trace_report_json,
)
from repro.net.measurement import (
    cross_region_mean_table,
    format_table_1c,
    run_ping_study,
)
from repro.taxonomy.classification import availability_summary
from repro.taxonomy.lattice import build_lattice
from repro.taxonomy.survey import format_table_2
from repro.workloads.tpcc_analysis import hat_compliance_table


def _table1(quick: bool, jobs=None) -> str:
    study, _topology, _model = run_ping_study(samples_per_link=200 if quick else 2000)
    matrix = cross_region_mean_table(study)
    return "Table 1c: mean cross-region RTTs (ms)\n" + format_table_1c(matrix)


def _table2(quick: bool, jobs=None) -> str:
    return "Table 2: default and maximum isolation levels\n" + format_table_2()


def _table3(quick: bool, jobs=None) -> str:
    return "Table 3: availability classification\n" + availability_summary().as_table()


def _fig2(quick: bool, jobs=None) -> str:
    lattice = build_lattice()
    lines = ["Figure 2: model strength lattice (weaker -> stronger)"]
    lines += [f"  {a} -> {b}" for a, b in lattice.edge_list()]
    lines.append(f"strongest HAT combination: "
                 f"{', '.join(sorted(lattice.strongest_hat_combination()))}")
    return "\n".join(lines)


def _fig3(quick: bool, jobs=None) -> str:
    points = figure3_geo_replication(
        deployment="B-two-regions",
        client_counts=(2, 6) if quick else (4, 16, 48),
        duration_ms=400.0 if quick else 2000.0,
        servers_per_cluster=2 if quick else 5,
        jobs=jobs,
    )
    return format_latency_and_throughput(points)


def _fig4(quick: bool, jobs=None) -> str:
    points = figure4_transaction_length(
        lengths=(1, 8, 32) if quick else (1, 2, 4, 8, 16, 32, 64, 128),
        duration_ms=400.0 if quick else 1500.0,
        jobs=jobs,
    )
    return format_series(points, value="throughput_ops_s")


def _fig5(quick: bool, jobs=None) -> str:
    points = figure5_write_proportion(
        write_proportions=(0.0, 0.5, 1.0) if quick else (0.0, 0.25, 0.5, 0.75, 1.0),
        duration_ms=400.0 if quick else 1500.0,
        jobs=jobs,
    )
    return format_series(points, value="throughput_txn_s")


def _fig6(quick: bool, jobs=None) -> str:
    points = figure6_scale_out(
        servers_per_cluster_values=(2, 4, 8) if quick else (5, 10, 15, 25),
        duration_ms=400.0 if quick else 1200.0,
        jobs=jobs,
    )
    return format_series(points, value="throughput_txn_s")


def _composite(quick: bool, jobs=None) -> str:
    points = composite_guarantee_sweep(
        client_counts=(2,) if quick else (2, 8, 16),
        duration_ms=300.0 if quick else 1500.0,
        jobs=jobs,
    )
    return ("Composite guarantee stacks (registry specs) on VA+OR\n"
            + format_latency_and_throughput(points))


def _tpcc(quick: bool, jobs=None) -> str:
    return "Section 6.2: TPC-C HAT compliance\n" + hat_compliance_table()


def _tpcc_sim(quick: bool, jobs=None):
    """TPC-C executed through the cluster, audited for Section 6.2 anomalies.

    Two passes: every protocol on a healthy network, then the HAT/locking
    extremes under the canonical region-partition campaign — the HAT side
    keeps serving (and keeps colliding on order ids), the serializable
    baseline goes dark but stays clean.
    """
    healthy = tpcc_sim_experiment(
        protocols=TPCC_SIM_PROTOCOLS,
        duration_ms=1_200.0 if quick else 4_000.0,
        jobs=jobs,
    )
    partitioned = tpcc_sim_experiment(
        protocols=("eventual", "causal", "lock-sr"),
        partition=True,
        baseline_ms=800.0 if quick else 2_000.0,
        partition_ms=1_600.0 if quick else 4_000.0,
        recovery_ms=800.0 if quick else 2_000.0,
        jobs=jobs,
    )
    text = (format_tpcc_sim(healthy)
            + "\n\nUnder the canonical region-partition campaign:\n"
            + format_tpcc_sim(partitioned))
    payload = {
        "figure": "tpcc-sim",
        "healthy": tpcc_sim_report_json(healthy),
        "partitioned": tpcc_sim_report_json(partitioned),
    }
    return text, payload


def _availability(quick: bool, jobs=None):
    """Timeline artifact: HAT stacks serving through a region partition."""
    results = availability_experiment(
        protocols=("causal", "master") if quick else AVAILABILITY_PROTOCOLS,
        baseline_ms=1_500.0 if quick else 3_000.0,
        partition_ms=3_000.0 if quick else 6_000.0,
        recovery_ms=1_500.0 if quick else 3_000.0,
        jobs=jobs,
    )
    return format_availability(results), availability_report_json(results)


def _elasticity(quick: bool, jobs=None):
    """Elasticity artifact: availability and data movement through churn.

    Five phases — baseline, live scale-out, a region partition with a
    second rebalance inside it, scale-in, recovery — per protocol spec.
    Sticky HAT stacks keep serving through the partitioned rebalance
    while master/quorum stall; the rebalance table reports keys moved
    versus the 1/n consistent-hashing ideal plus handoff bytes/duration.
    """
    scale = 0.5 if quick else 1.0
    results = elasticity_experiment(
        protocols=("eventual", "causal", "master") if quick
        else ELASTICITY_PROTOCOLS,
        baseline_ms=2_000.0 * scale,
        scale_out_ms=2_500.0 * scale,
        partition_ms=4_000.0 * scale,
        scale_in_ms=2_500.0 * scale,
        recovery_ms=1_500.0 * scale,
        window_ms=500.0 * scale,
        jobs=jobs,
    )
    return format_elasticity(results), elasticity_report_json(results)


def _saturation(quick: bool, jobs=None):
    """Open-loop saturation artifact: the knee, tail latency, drain time.

    Each protocol gets an offered-load ramp over a bounded session pool —
    10^5 logical users even in quick mode, at O(pool) memory — and then a
    fixed-rate run through the canonical partition campaign, measuring how
    long the backlog built while dark takes to drain after heal.
    """
    results = saturation_experiment(
        protocols=SATURATION_PROTOCOLS,
        users=100_000 if quick else 1_000_000,
        ramp_peak_rate_s=500.0 if quick else 600.0,
        ramp_ms=2_500.0 if quick else 6_000.0,
        baseline_ms=1_000.0 if quick else 1_500.0,
        partition_ms=2_000.0 if quick else 3_000.0,
        recovery_ms=4_000.0 if quick else 5_000.0,
        window_ms=250.0 if quick else 500.0,
        jobs=jobs,
    )
    return format_saturation(results), saturation_report_json(results)


def _staleness(quick: bool, jobs=None):
    """Staleness observatory: t-visibility / k-staleness recency quantiles.

    Each protocol stack runs the same YCSB workload with the metrics
    registry on while the nemesis walks healthy -> cross-region partition
    -> post-heal rebalance.  The artifact reports per-phase p50/p99 for
    both recency probes, whole-run CDFs, counter totals, the windowed
    time-series joined with fault windows, and a Prometheus snapshot.
    """
    scale = 0.5 if quick else 1.0
    results = staleness_experiment(
        healthy_ms=2_000.0 * scale,
        partition_ms=4_000.0 * scale,
        rebalance_ms=4_000.0 * scale,
        window_ms=500.0 * scale,
        jobs=jobs,
    )
    return format_staleness(results), staleness_report_json(results)


def _metastability(quick: bool, jobs=None):
    """Metastable-failure artifact: the same trigger, with and without defenses.

    Each protocol runs the canonical partition campaign twice over a
    capacity-coupled deployment at an offered rate below its healthy knee.
    Undefended (unbounded queues, one-burst anti-entropy catch-up, naive
    retries) the heal wedges a worker past the RPC deadline and the retry
    storm sustains the overload after the trigger is gone — post-heal
    goodput stays pinned.  Defended (bounded admission queues with
    adaptive-LIFO shedding, capped catch-up rounds, retry budgets, circuit
    breakers) the same trigger is absorbed, with a measured time to
    recover.
    """
    scale = 1.0 if quick else 2.0
    results = metastability_experiment(
        baseline_ms=1_500.0 * scale,
        partition_ms=2_000.0 * scale,
        recovery_ms=6_000.0 * scale,
        window_ms=250.0 * scale,
        jobs=jobs,
    )
    return format_metastability(results), metastability_report_json(results)


def _trace(quick: bool, jobs=None):
    """Tracing artifact: per-stack p99 critical-path breakdown + provenance.

    Two legs: every TRACE_PROTOCOLS stack traced healthy and under the
    canonical partition campaign (arrival-to-commit latency decomposed
    into queueing / RTT / service / retry / lock-wait / client), then a
    traced contended TPC-C run whose audited anomalies are joined back to
    the claimant transactions' traces and the fault windows they
    overlapped.  Beside ``trace.json`` the bench writes
    ``trace_events.json`` — Chrome trace-event JSON, loadable at
    https://ui.perfetto.dev.
    """
    stacks, provenance = trace_experiment(
        duration_ms=1_200.0 if quick else 3_000.0,
        baseline_ms=600.0 if quick else 1_000.0,
        partition_ms=1_200.0 if quick else 2_000.0,
        recovery_ms=600.0 if quick else 1_000.0,
        key_count=2_000 if quick else 10_000,
        jobs=jobs,
    )
    return (format_trace(stacks, provenance),
            trace_report_json(stacks, provenance),
            {"trace_events.json": provenance.chrome})


ARTIFACTS: Dict[str, Callable[[bool], object]] = {
    "table1": _table1,
    "table2": _table2,
    "table3": _table3,
    "fig2": _fig2,
    "fig3": _fig3,
    "fig4": _fig4,
    "fig5": _fig5,
    "fig6": _fig6,
    "composite": _composite,
    "tpcc": _tpcc,
    "tpcc-sim": _tpcc_sim,
    "availability": _availability,
    "elasticity": _elasticity,
    "saturation": _saturation,
    "staleness": _staleness,
    "metastability": _metastability,
    "trace": _trace,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate tables and figures from the HAT paper.",
    )
    parser.add_argument("artifacts", nargs="*",
                        help=f"artifacts to regenerate ({', '.join(ARTIFACTS)})")
    parser.add_argument("--list", action="store_true", help="list artifact names")
    parser.add_argument("--quick", action="store_true", default=True,
                        help="use the small/fast parameterisation (default)")
    parser.add_argument("--full", dest="quick", action="store_false",
                        help="use the longer, higher-fidelity sweeps")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="run swept simulations across N worker "
                             "processes (default: sequential); results are "
                             "bit-identical to a sequential run")
    parser.add_argument("--json", metavar="DIR", default=None,
                        help="also write <DIR>/<artifact>.json for artifacts "
                             "with a JSON form (currently: availability, "
                             "elasticity, saturation, staleness, "
                             "metastability, tpcc-sim, trace)")
    return parser


def _write_artifact(directory: str, filename: str, payload: dict,
                    header: dict) -> str:
    """Write one artifact JSON with the provenance header prepended.

    The header is injected here — centrally, at write time — so the
    payloads the report functions return stay byte-identical to what the
    golden-artifact regression tests pin.
    """
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, filename)
    with open(path, "w") as handle:
        json.dump({"provenance": header, **payload}, handle, indent=2,
                  allow_nan=False)
    return path


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.list or not args.artifacts:
        print("available artifacts:", ", ".join(ARTIFACTS))
        return 0
    for name in args.artifacts:
        if name not in ARTIFACTS:
            print(f"unknown artifact {name!r}; use --list to see the options",
                  file=sys.stderr)
            return 2
        print(f"\n===== {name} =====")
        rendered = ARTIFACTS[name](args.quick, args.jobs)
        payload: Optional[dict] = None
        extra_files: Dict[str, dict] = {}
        if isinstance(rendered, tuple):
            if len(rendered) == 3:
                rendered, payload, extra_files = rendered
            else:
                rendered, payload = rendered
        print(rendered)
        if args.json and payload is not None:
            header = provenance_header(name, quick=args.quick, jobs=args.jobs)
            path = _write_artifact(args.json, f"{name}.json", payload, header)
            print(f"(wrote {path})")
            for filename, extra in extra_files.items():
                path = _write_artifact(args.json, filename, extra, header)
                print(f"(wrote {path})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
