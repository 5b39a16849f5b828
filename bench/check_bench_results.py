#!/usr/bin/env python3
"""CI gate for the perf/figure baselines pinned in BENCH_perf.json.

Four checks, one hard and three soft:

* Figure gate (hard): the rows each gated figure bench
  (bench_ext_battery_arbitrage, bench_ext_five_minute_market,
  bench_ext_delay_steps, bench_ext_demand_response,
  bench_ext_day_ahead_hedging, bench_ext_five_minute_routing) wrote to
  its CSV must match the pinned rows exactly at the printed precision
  (same key cell, same dollars to the cent), every pinned row must be
  PRESENT in the CSV (a silently dropped row is as much a behaviour
  change as a drifted one), and the gate prints exactly which rows were
  compared. Real behaviour drift in the market, storage or routing
  layers shows up at dollars scale -> exit 1. Half a
  least-printed-digit of slack (abs_tol 0.005) absorbs cross-toolchain
  libm ulp differences between the host that pinned the baselines and
  the CI runner - the repo's only cross-host float comparison.

* Timing gate (soft): every pinned google-benchmark entry of
  bench_perf_router / bench_perf_market / bench_perf_service /
  bench_perf_obs / bench_perf_net is compared against its pinned
  real_time. A regression beyond --threshold (default 1.25x) emits a GitHub
  ::warning:: annotation but never fails the job - CI runners are far
  too noisy for hard timing gates; the annotation is the paper trail.

* Deterministic-counter gate (soft): pinned entries may list counters
  under "deterministic_counters" (e.g. BM_FiveMinutePlanReplay pins
  plan_rebuilds_per_step; BM_ObsOverhead pins plan_rebuilds_per_run and
  materialized_hours). Unlike wall time such counters are exact
  properties of the code path, so a measured value above the pinned one
  means the underlying machinery regressed - the hour-scoped plans
  rebuild more often than the price cadence requires, the lazy price
  history materializes more hours than the run needs, etc. -> ::warning::.

* Observability-overhead gate (soft): bench_perf_obs' BM_ObsOverhead
  reports the enabled/disabled wall-clock ratio of the metered 24-day
  simulation as `overhead_ratio`. A ratio above --obs-overhead (default
  1.02, the obs layer's < 2% contract) emits ::warning:: - timing-based
  like the regression gate, so soft, but with its own much tighter
  threshold because the two legs run interleaved in the same process
  and share any machine-level noise.

Usage:
  python3 bench/check_bench_results.py \
      --baseline BENCH_perf.json --results perf-results/
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import pathlib
import sys

TIME_UNIT_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}

# Gated figure benches: CSV file, the columns that identify a row
# (cell), and the columns compared against the pinned values. Columns
# the pinned rows do not carry (energy_usd, wall_ms, ...) are ignored.
FIGURE_GATES = {
    "bench_ext_battery_arbitrage": {
        "csv": "cebis_ext_battery_arbitrage.csv",
        "keys": ("policy", "hours_of_storage"),
        "values": ("total_usd", "saved_usd", "saved_pct", "discharged_mwh"),
    },
    "bench_ext_five_minute_market": {
        "csv": "cebis_ext_five_minute_market.csv",
        "keys": ("market_interval_min",),
        "values": ("baseline_usd", "optimized_usd", "saved_pct",
                   "storage_net_usd", "net_demand_usd"),
    },
    "bench_ext_delay_steps": {
        "csv": "cebis_ext_delay_steps.csv",
        "keys": ("reaction_delay_min",),
        "values": ("baseline_usd", "optimized_usd", "saved_pct"),
    },
    "bench_ext_demand_response": {
        "csv": "cebis_ext_demand_response.csv",
        "keys": ("metric",),
        "values": ("value",),
    },
    "bench_ext_day_ahead_hedging": {
        "csv": "cebis_ext_day_ahead_hedging.csv",
        "keys": ("structure",),
        "values": ("cost_usd", "daily_sigma_usd"),
    },
    "bench_ext_five_minute_routing": {
        "csv": "cebis_ext_five_minute_routing.csv",
        "keys": ("granularity",),
        "values": ("cost_usd",),
    },
}

errors = 0
warnings = 0


def error(msg: str) -> None:
    global errors
    errors += 1
    print(f"::error::{msg}")


def warn(msg: str) -> None:
    global warnings
    warnings += 1
    print(f"::warning::{msg}")


def to_ns(value: float, unit: str) -> float:
    return value * TIME_UNIT_NS[unit]


def figure_cell(spec: dict, row: dict) -> tuple:
    """Row identity: the gate's key columns, floats normalized."""

    def norm(v):
        try:
            return round(float(v), 6)
        except (TypeError, ValueError):
            return str(v)

    return tuple(norm(row[k]) for k in spec["keys"])


def check_figure_rows(baseline: dict, results: pathlib.Path) -> None:
    for harness, spec in FIGURE_GATES.items():
        pinned = baseline.get(harness, {}).get("rows", [])
        if not pinned:
            # An empty pinned set must never pass vacuously: the gate
            # exists to hard-fail on behaviour drift.
            error(
                f"figure gate: baseline carries no {harness} rows "
                "(BENCH_perf.json truncated or mis-regenerated?)"
            )
            continue
        csv_path = results / spec["csv"]
        if not csv_path.exists():
            error(f"figure gate: {csv_path} missing (did the bench run?)")
            continue
        with csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        by_cell = {figure_cell(spec, r): r for r in rows}

        # Every pinned row must be present: a cell silently dropped from
        # the CSV is a behaviour change the value diff below would never
        # see, so it hard-fails on its own.
        missing = [figure_cell(spec, w) for w in pinned
                   if figure_cell(spec, w) not in by_cell]
        for cell in missing:
            error(
                f"figure gate: pinned row {cell} missing from {csv_path.name} "
                "(bench dropped a cell - behaviour change or truncated run)"
            )

        compared = 0
        for want in pinned:
            cell = figure_cell(spec, want)
            got = by_cell.get(cell)
            if got is None:
                continue  # already reported above
            compared += 1
            mismatched = []
            for field in spec["values"]:
                if field not in got:
                    error(f"figure gate: column '{field}' missing from "
                          f"{csv_path.name}")
                    continue
                # Exact at the printed precision: the CSV rounds to >= 2
                # decimals, so 0.005 is half its least digit - enough for
                # a 1-ulp libm skew across toolchains, far below real
                # drift.
                if not math.isclose(float(got[field]), float(want[field]),
                                    rel_tol=0.0, abs_tol=0.005):
                    mismatched.append(field)
                    error(
                        f"figure gate: {harness} row {cell} "
                        f"{field} = {got[field]}, pinned {want[field]} "
                        f"(behaviour drifted - regenerate BENCH_perf.json "
                        f"only if the change is intended)"
                    )
            status = "MISMATCH: " + ",".join(mismatched) if mismatched else "ok"
            print(f"figure gate: {harness} compared row {cell} [{status}]")
        for cell in sorted(set(by_cell) -
                           {figure_cell(spec, w) for w in pinned}):
            print(f"figure gate: {harness} CSV row {cell} has no pinned "
                  "baseline (new cell?)")
        print(f"figure gate: {harness} compared {compared}/{len(pinned)} "
              f"pinned rows against {csv_path.name}"
              + (f", {len(missing)} missing" if missing else ""))


def check_timings(baseline: dict, results: pathlib.Path, threshold: float) -> None:
    for harness in ("bench_perf_router", "bench_perf_market",
                    "bench_perf_service", "bench_perf_obs",
                    "bench_perf_net"):
        json_path = results / f"{harness}.json"
        if not json_path.exists():
            error(f"timing gate: {json_path} missing (did the bench run?)")
            continue
        with json_path.open() as fh:
            measured = {
                b["name"]: b
                for b in json.load(fh).get("benchmarks", [])
                if b.get("run_type", "iteration") == "iteration"
            }
        pinned = {b["name"]: b for b in baseline.get(harness, [])}
        for name, want in pinned.items():
            got = measured.get(name)
            if got is None:
                warn(f"timing gate: {harness}:{name} pinned but not measured")
                continue
            base_ns = to_ns(want["real_time"], want["time_unit"])
            got_ns = to_ns(got["real_time"], got["time_unit"])
            ratio = got_ns / base_ns if base_ns > 0 else float("inf")
            status = "ok"
            if ratio > threshold:
                warn(
                    f"perf regression: {harness}:{name} {got_ns / 1e6:.3f} ms "
                    f"vs baseline {base_ns / 1e6:.3f} ms ({ratio:.2f}x, "
                    f"soft threshold {threshold:.2f}x)"
                )
                status = "REGRESSED"
            print(f"timing gate: {harness}:{name} {ratio:.2f}x baseline [{status}]")

            # Deterministic-counter gate: a pinned entry opts in by
            # listing counters under "deterministic_counters". Unlike
            # wall time those are exact properties of the code path
            # (e.g. plan_rebuilds_per_step: how often hour-scoped plans
            # rebuild vs the price cadence), so any measured value above
            # the pinned one means the machinery regressed even if the
            # wall clock hides it. 1% + epsilon slack only absorbs
            # iteration-count rounding of per-step ratios (and keeps a
            # pinned 0.0 an exact gate).
            for counter in want.get("deterministic_counters", ()):
                if counter not in want:
                    warn(f"counter gate: {harness}:{name} lists '{counter}' "
                         "as deterministic but pins no value for it")
                    continue
                want_rate = float(want[counter])
                got_rate = float(got.get(counter, "nan"))
                if not got_rate <= want_rate * 1.01 + 1e-12:
                    warn(
                        f"counter regression: {harness}:{name} "
                        f"{counter} = {got_rate:.6g} vs pinned "
                        f"{want_rate:.6g} - this counter is deterministic, "
                        f"so the underlying machinery regressed"
                    )
        for name in sorted(set(measured) - set(pinned)):
            print(f"timing gate: {harness}:{name} has no pinned baseline (new bench?)")


def check_obs_overhead(results: pathlib.Path, threshold: float) -> None:
    """The obs layer's < 2% contract: metered vs unmetered 24-day run."""
    json_path = results / "bench_perf_obs.json"
    if not json_path.exists():
        return  # already reported by the timing gate
    with json_path.open() as fh:
        measured = {b["name"]: b for b in json.load(fh).get("benchmarks", [])}
    got = measured.get("BM_ObsOverhead")
    if got is None or "overhead_ratio" not in got:
        error("obs gate: BM_ObsOverhead missing from bench_perf_obs.json "
              "(the overhead contract went unmeasured)")
        return
    ratio = float(got["overhead_ratio"])
    if ratio > threshold:
        warn(
            f"obs overhead: metrics-enabled 24-day run is {ratio:.4f}x the "
            f"disabled run (soft contract {threshold:.2f}x) - a hot-path "
            f"handle got more expensive or a new tap landed on the step path"
        )
        status = "REGRESSED"
    else:
        status = "ok"
    print(f"obs gate: BM_ObsOverhead overhead_ratio = {ratio:.4f} "
          f"(threshold {threshold:.2f}) [{status}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", type=pathlib.Path, default="BENCH_perf.json")
    parser.add_argument("--results", type=pathlib.Path, default="perf-results")
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.25,
        help="soft-warn when real_time exceeds baseline by this factor",
    )
    parser.add_argument(
        "--obs-overhead",
        type=float,
        default=1.02,
        help="soft-warn when BM_ObsOverhead's overhead_ratio exceeds this",
    )
    args = parser.parse_args()

    with args.baseline.open() as fh:
        baseline = json.load(fh)

    check_figure_rows(baseline, args.results)
    check_timings(baseline, args.results, args.threshold)
    check_obs_overhead(args.results, args.obs_overhead)

    if errors:
        print(f"FAILED: {errors} error(s), {warnings} timing warning(s)")
        return 1
    print(f"OK: figure rows exact, {warnings} timing warning(s)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
