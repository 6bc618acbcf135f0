"""Simulator-speed benchmark: host time of the discrete-event simulator.

Usage, from the repository root::

    python3 perfbench/run.py --workload steady --seed 1 --seconds 30 --trace 0

``--workload`` is ``steady``, ``partition`` or ``verify`` (see ``legs.py``
and ``BENCHMARK.json`` for why each was chosen).  One *pass* runs every
leg of the workload once, in order, in this process.  The run repeats
passes until ``--seconds`` of measuring is spent and reports medians over
passes, so a longer run is a steadier one.

``--trace 0`` prints the end-to-end metrics: ``wall_s`` (host seconds of
the simulate and verify phases of one pass), ``setup_s`` (import time plus
one pass's testbed builds, campaign installs and preloads),
``sim_events_per_s`` (kernel callbacks per host second of simulation),
``peak_rss_mb`` and ``txn_committed_share`` (simulated transactions that
committed, over those offered).

``--trace 1`` runs one untraced pass, for the per-layer work counters and
the reference digests, then traced passes under ``cProfile`` folded by
layer (``layermap.py``), and prints the per-layer metrics.  The fold is
written to ``.perfbench/`` only after the last pass ends.

Every pass checks the simulated output: the isolation levels each stack
claims hold on its recorded history, healthy runs commit, and every leg's
digest of simulated statistics is the same in every pass (traced or not).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Simulated
transactions are the attempted operations; when a check fails, every one
of them counts as failed.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import hashlib
import json
import os
import pstats
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List

import layermap

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Imports timed in fresh interpreters for ``setup_s``.
IMPORT_PROBE = ("import time; t = time.perf_counter(); "
                "import repro, repro.bench.runner, repro.loadgen, repro.chaos, "
                "repro.adya, repro.workloads.tpcc_driver; "
                "print(time.perf_counter() - t)")
IMPORT_PROBES = 3


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("steady", "partition", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_seconds() -> float:
    """Median host time to import the simulator in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    samples = []
    for _ in range(IMPORT_PROBES):
        completed = subprocess.run([sys.executable, "-c", IMPORT_PROBE],
                                   env=env, cwd=ROOT, capture_output=True,
                                   text=True, timeout=120, check=True)
        samples.append(float(completed.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def digest(snapshot: Dict[str, object]) -> str:
    encoded = json.dumps(snapshot, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode()).hexdigest()[:16]


class Pass:
    """Host timings and simulated results of one pass over the legs."""

    def __init__(self, legs: List, seed: int, profile: bool = False):
        self.setup_s = 0.0
        self.simulate_s = 0.0
        self.verify_s = 0.0
        self.events = 0
        self.offered = 0
        self.committed = 0
        self.check_s = 0.0
        self.failures: List[str] = []
        self.digests: Dict[str, str] = {}
        self.counters: Dict[str, float] = {}
        self.folds: List[Dict[str, object]] = []
        for leg in legs:
            self._run_leg(leg, seed, profile)

    @property
    def wall_s(self) -> float:
        return self.simulate_s + self.verify_s

    def _run_leg(self, leg, seed: int, profile: bool) -> None:
        # Collect the previous leg's garbage outside the timed phases.
        gc.collect()
        started = time.perf_counter()
        leg.setup(seed)
        setup_done = time.perf_counter()
        profiler = cProfile.Profile() if profile else None
        if profiler is not None:
            profiler.enable()
        simulate_start = time.perf_counter()
        leg.simulate()
        simulate_done = time.perf_counter()
        leg.verify()
        verify_done = time.perf_counter()
        if profiler is not None:
            profiler.disable()
            self.folds.append(fold(profiler))
        self.setup_s += setup_done - started
        self.simulate_s += simulate_done - simulate_start
        self.verify_s += verify_done - simulate_done
        self.events += leg.testbed.env.events_executed
        self.offered += leg.offered
        self.committed += leg.committed
        self.check_s += leg.check_s
        self.failures.extend(leg.failures)
        self.digests[leg.name] = digest(leg.snapshot())
        for name, value in leg.counters().items():
            self.counters[name] = self.counters.get(name, 0) + value


def fold(profiler: cProfile.Profile) -> Dict[str, object]:
    stats = pstats.Stats(profiler).stats
    return layermap.fold_profile(stats, layermap.LayerResolver(SRC, HERE))


def run_passes(make_legs: Callable[[], List], seed: int, budget_s: float,
               profile: bool) -> List[Pass]:
    """Run passes until the next one would overrun ``budget_s`` (at least one)."""
    passes: List[Pass] = []
    started = time.perf_counter()
    while True:
        passes.append(Pass(make_legs(), seed, profile))
        elapsed = time.perf_counter() - started
        per_pass = elapsed / len(passes)
        if elapsed + per_pass > budget_s:
            return passes


def check_digests(reference: Pass, passes: List[Pass]) -> List[str]:
    failures = []
    for index, one in enumerate(passes):
        for leg, value in one.digests.items():
            if value != reference.digests[leg]:
                failures.append(f"{leg}: pass {index} digest {value} != "
                                f"{reference.digests[leg]}")
    return failures


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def end_to_end(passes: List[Pass], import_s: float) -> Dict[str, Dict]:
    first = passes[0]
    return {
        "wall_s": metric(statistics.median(p.wall_s for p in passes), "s"),
        "setup_s": metric(import_s + statistics.median(p.setup_s for p in passes),
                          "s"),
        "sim_events_per_s": metric(statistics.median(
            p.events / p.simulate_s for p in passes), "1/s"),
        "peak_rss_mb": metric(
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "txn_committed_share": metric(first.committed / first.offered,
                                      "fraction"),
    }


def per_layer(untraced: Pass, traced: List[Pass],
              counter_units: Dict[str, str]) -> Dict[str, Dict]:
    metrics: Dict[str, Dict] = {}
    per_pass = [layermap.merge_folds(p.folds) for p in traced]
    totals = [sum(f["self_s"].values()) for f in per_pass]
    for layer in layermap.LAYERS:
        metrics[f"{layer}.self_s"] = metric(statistics.median(
            f["self_s"][layer] for f in per_pass), "s")
        metrics[f"{layer}.share"] = metric(statistics.median(
            f["self_s"][layer] / total for f, total in zip(per_pass, totals)),
            "fraction")
        metrics[f"{layer}.calls"] = metric(statistics.median(
            f["calls"][layer] for f in per_pass), "count")
    c = untraced.counters
    pushed = c["replication.versions_pushed"]
    pushed_or_coalesced = pushed + c["replication.versions_coalesced"]
    for name, unit in counter_units.items():
        metrics[name] = metric(c[name], unit)
    metrics["sim.host_ns_per_event"] = metric(
        1e9 * untraced.simulate_s / untraced.events, "ns")
    metrics["replication.push_yield"] = metric(
        pushed / pushed_or_coalesced if pushed_or_coalesced else 0.0,
        "fraction")
    metrics["hat.layers.session_keys"] = metric(
        c["hat.layers.session_keys_total"] / c["hat.layers.sessions"]
        if c["hat.layers.sessions"] else 0.0, "keys")
    metrics["adya.check_s"] = metric(untraced.check_s, "s")
    metrics["adya.txns_checked_per_s"] = metric(
        c["adya.txns_checked"] / untraced.check_s if untraced.check_s else 0.0,
        "1/s")
    metrics["trace.overhead_ratio"] = metric(
        statistics.median(p.wall_s for p in traced) / untraced.wall_s, "ratio")
    return metrics


def write_trace(workload: str, seed: int, traced: List[Pass]) -> Path:
    """Write the per-layer fold of every traced pass (after measuring)."""
    out_dir = ROOT / ".perfbench"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{workload}-seed{seed}.json"
    payload = {"workload": workload, "seed": seed,
               "passes": [layermap.merge_folds(p.folds) for p in traced]}
    path.write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")
    return path


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 2
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import legs

    make_legs = legs.WORKLOADS[args.workload]
    failures: List[str] = []
    if args.trace:
        unmapped = layermap.unmapped_modules(SRC)
        if unmapped:
            print("warning: modules with no layer: " + ", ".join(unmapped),
                  file=sys.stderr)
        reference = Pass(make_legs(), args.seed)
        remaining = args.seconds - reference.wall_s - reference.setup_s
        passes = run_passes(make_legs, args.seed, remaining, True)
        measured = [reference] + passes
    else:
        passes = run_passes(make_legs, args.seed, args.seconds, False)
        reference = passes[0]
        measured = passes
    failures.extend(f for p in measured for f in p.failures)
    failures.extend(check_digests(reference, measured))

    for leg, value in reference.digests.items():
        print(f"digest {args.workload}/{leg} {value}")
    print(f"passes {len(passes)}  wall_s per pass: "
          + " ".join(f"{p.wall_s:.3f}" for p in passes))
    if args.trace:
        metrics = per_layer(reference, passes, legs.COUNTER_UNITS)
        if args.workload == "steady" and metrics["obs.calls"]["value"] != 0:
            failures.append("obs layer called on steady, where metrics and "
                            "tracing are off")
        print(f"trace written to {write_trace(args.workload, args.seed, passes)}")
    else:
        metrics = end_to_end(measured, import_seconds())
    for name, entry in metrics.items():
        print(f"{name} {entry['value']:.6g} {entry['unit']}")
    for failure in failures:
        print(f"CHECK FAILED {failure}")
    attempted = sum(p.offered for p in measured)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": attempted if failures else 0,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
