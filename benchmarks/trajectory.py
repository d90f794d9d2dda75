"""Bench-trajectory tooling: normalize, compare, and rebase BENCH_*.json.

CI runs the micro, evaluation, LP-solver, and norm-ablation benchmarks
with ``--benchmark-json`` on every push, then uses this script to

1. ``normalize`` the raw pytest-benchmark dump into a compact
   ``BENCH_<sha>.json`` trajectory artifact (one median per benchmark,
   plus a *machine-speed-normalized* ratio against a designated
   calibration benchmark — a pure tuple-at-a-time workload whose absolute
   time tracks the host's Python speed — and, for benchmarks that record
   one, the peak traced allocation), and
2. ``compare`` the normalized medians against the committed baseline
   (``benchmarks/BENCH_baseline.json``), failing the job when any tracked
   benchmark regresses beyond the tolerance (default 1.5×, per-benchmark
   overrides in :data:`TOLERANCES`; one-shot experiment regenerations
   with < 5 rounds stay informational).  Benchmarks carrying a
   ``peak_traced_kb`` in their ``extra_info`` (the ``traced_peak``
   fixture of ``benchmarks/conftest.py``) get the same guard on peak
   memory (default 1.5×, overrides in :data:`MEM_TOLERANCES`); traced
   allocation is deterministic per commit, so the memory series needs no
   machine normalization and no minimum round count.

Comparing *normalized* ratios rather than raw seconds keeps the guard
meaningful across differently-provisioned CI runners: a uniformly slow
machine scales the calibration median by the same factor.  ``rebase``
regenerates the baseline after an intentional performance change.

Usage::

    python benchmarks/trajectory.py normalize RAW.json --sha SHA -o OUT.json
    python benchmarks/trajectory.py compare OUT.json [--baseline B] [--tolerance 1.5]
    python benchmarks/trajectory.py rebase RAW.json

Only the standard library is used; no repo imports (the script must run
before PYTHONPATH is set up).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

#: The machine-speed yardstick: a pure-Python tuple-at-a-time workload.
CALIBRATION = "benchmarks/bench_micro.py::test_bench_degree_sequence_tuple_oracle"

BASELINE_PATH = Path(__file__).resolve().parent / "BENCH_baseline.json"

#: Per-benchmark tolerance overrides (ratio of normalized medians).  The
#: sub-2ms solver re-solve is scheduling-noise-dominated on shared
#: runners, so it gets more slack than the default before failing the job.
TOLERANCES = {
    "benchmarks/bench_lp_solver.py::test_bench_lp_resolve_b_swap": 2.0,
    # the supervised-parallel entries start a fresh process pool every
    # round; pool startup cost is host-load-dependent noise layered on
    # top of the measured work, so they get extra slack before gating.
    "benchmarks/bench_evaluation.py::test_bench_parallel_triangle": 2.5,
    "benchmarks/bench_star.py::test_bench_star_parallel": 2.5,
    # the service entries measure sub-ms request paths (dictionary hits,
    # loopback HTTP round trips): thread scheduling and socket latency
    # dominate at that scale, so they get extra slack before gating.
    "benchmarks/bench_service.py::test_bench_service_bound_warm": 2.0,
    "benchmarks/bench_service.py::test_bench_service_http_round_trip": 2.0,
    "benchmarks/bench_service.py::test_bench_lp_b_swap_oneshot": 2.0,
    "benchmarks/bench_service.py::test_bench_lp_b_swap_persistent": 2.0,
    # the contended entry adds 8 client threads + a pool spin-up per
    # round on a 2-core CI runner: scheduler fairness noise dominates
    # the per-request cost, so it gets the most slack of the service set.
    "benchmarks/bench_service.py::test_bench_service_http_contended": 2.5,
}

#: Per-benchmark peak-memory tolerance overrides (ratio of peak_kb).
#: Traced peaks are deterministic, so the default 1.5× is already slack;
#: overrides belong here only for benchmarks whose working set depends on
#: allocator rounding at small absolute sizes.  The sink benchmarks peak
#: around 1 MB (pure block × depth scratch), where a few extra temporary
#: arrays move the ratio more than a real regression would elsewhere.
MEM_TOLERANCES: dict[str, float] = {
    "benchmarks/bench_star.py::test_bench_star_count_sink": 2.0,
    "benchmarks/bench_star.py::test_bench_star_spill_sink": 2.0,
    # block 64 peaks near 22 KB, so a handful of interpreter objects
    # already moves the ratio
    "benchmarks/bench_star.py::test_bench_star_count_block64": 2.0,
    # the governed entries also peak near 1 MB of block × depth scratch
    # (the idle-governor entry) or deliberately shed memory mid-run (the
    # ladder entry escalates to disk), so allocator rounding dominates.
    "benchmarks/bench_star.py::test_bench_star_governed": 2.0,
    "benchmarks/bench_star.py::test_bench_star_governed_ladder": 2.0,
}


def normalize(raw_path: str, sha: str) -> dict:
    """Compact {benchmark -> median, normalized[, peak_kb]} from a raw dump."""
    with open(raw_path) as handle:
        raw = json.load(handle)
    medians = {}
    for bench in raw["benchmarks"]:
        entry = {
            "median_s": bench["stats"]["median"],
            "rounds": bench["stats"]["rounds"],
        }
        extra = bench.get("extra_info", {})
        peak = extra.get("peak_traced_kb")
        if peak is not None:
            entry["peak_kb"] = peak
        medians[bench["fullname"]] = entry
    if CALIBRATION not in medians:
        raise SystemExit(
            f"calibration benchmark {CALIBRATION!r} missing from {raw_path}"
        )
    calibration = medians[CALIBRATION]["median_s"]
    for entry in medians.values():
        entry["normalized"] = entry["median_s"] / calibration
    return {
        "sha": sha,
        "calibration": CALIBRATION,
        "calibration_median_s": calibration,
        "machine": raw.get("machine_info", {}).get("node", "unknown"),
        "benchmarks": medians,
    }


def compare(
    current_path: str,
    baseline_path: str,
    tolerance: float,
    min_rounds: int = 5,
    mem_tolerance: float = 1.5,
) -> int:
    """Exit non-zero when a tracked median or peak allocation regresses.

    Benchmarks present only on one side are reported but never fail the
    job (new benchmarks enter the baseline at the next rebase), and
    benchmarks timed with fewer than ``min_rounds`` rounds on either side
    (e.g. the one-shot experiment regenerations) are informational only —
    a single-sample median is too noisy to gate on.  The peak-memory
    series has no such escape hatch: traced allocation is deterministic,
    so one sample is the measurement.

    The sweep never stops early: every tracked series is checked even
    after a regression or a malformed entry (missing keys, zero
    calibration), and the job fails with *one* consolidated message
    naming every offender — a kernel regression across N benchmarks is
    diagnosable from a single CI run instead of N fix-rerun cycles.
    """
    with open(current_path) as handle:
        current = json.load(handle)
    with open(baseline_path) as handle:
        baseline = json.load(handle)
    failures = []
    print(f"baseline {baseline['sha']} -> current {current['sha']} "
          f"(tolerance {tolerance:.2f}x on normalized medians, "
          f"{mem_tolerance:.2f}x on peak traced allocations)")
    for name, base in sorted(baseline["benchmarks"].items()):
        entry = current["benchmarks"].get(name)
        if entry is None:
            print(f"  [gone]    {name}")
            continue
        allowed = TOLERANCES.get(name, tolerance)
        try:
            ratio = entry["normalized"] / base["normalized"]
            median_ms = entry["median_s"] * 1e3
            rounds = min(entry["rounds"], base["rounds"])
        except (KeyError, TypeError, ZeroDivisionError) as exc:
            # a malformed entry must not abort the sweep: record it as a
            # failure and keep checking the remaining series
            failures.append((name, "time", None, allowed))
            print(f"  [bad]     {name}: unusable entry "
                  f"({type(exc).__name__}: {exc})")
            continue
        flag = "  OK      "
        if rounds < min_rounds:
            flag = "  [info]   "
        elif ratio > allowed:
            flag = "  REGRESS "
            failures.append((name, "time", ratio, allowed))
        print(f"{flag}{name}: {median_ms:.3f} ms "
              f"({ratio:.2f}x of baseline)")
    print("\npeak traced allocation:")
    tracked_mem = False
    for name, base in sorted(baseline["benchmarks"].items()):
        entry = current["benchmarks"].get(name, {})
        base_peak = base.get("peak_kb")
        peak = entry.get("peak_kb")
        if base_peak is None or peak is None:
            continue
        allowed = MEM_TOLERANCES.get(name, mem_tolerance)
        try:
            if base_peak <= 0:
                continue
            ratio = peak / base_peak
        except (TypeError, ZeroDivisionError) as exc:
            failures.append((name, "memory", None, allowed))
            print(f"  [bad]     {name}: unusable peak entry "
                  f"({type(exc).__name__}: {exc})")
            continue
        tracked_mem = True
        flag = "  OK      "
        if ratio > allowed:
            flag = "  REGRESS "
            failures.append((name, "memory", ratio, allowed))
        print(f"{flag}{name}: {peak:.1f} kB ({ratio:.2f}x of baseline)")
    if not tracked_mem:
        print("  (no benchmark records peak_traced_kb on both sides)")
    for name in sorted(set(current["benchmarks"]) - set(baseline["benchmarks"])):
        entry = current["benchmarks"][name]
        median = entry.get("median_s")
        shown = f"{median * 1e3:.3f} ms" if median is not None else "no median"
        print(f"  [new]     {name}: {shown}")
    if failures:
        print(f"\n{len(failures)} series regressed beyond tolerance "
              "(all regressions listed; none masked by an earlier one):")
        for name, series, ratio, allowed in failures:
            shown = f"{ratio:.2f}x" if ratio is not None else "malformed entry"
            print(f"  {name} [{series}]: {shown} (allowed {allowed:.2f}x)")
        return 1
    print("\nno regressions")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    norm = sub.add_parser("normalize", help="raw dump -> BENCH_<sha>.json")
    norm.add_argument("raw")
    norm.add_argument("--sha", required=True)
    norm.add_argument("-o", "--output", required=True)

    comp = sub.add_parser(
        "compare", help="guard against median / peak-memory regressions"
    )
    comp.add_argument("current")
    comp.add_argument("--baseline", default=str(BASELINE_PATH))
    comp.add_argument("--tolerance", type=float, default=1.5)
    comp.add_argument("--min-rounds", type=int, default=5)
    comp.add_argument("--mem-tolerance", type=float, default=1.5)

    rebase = sub.add_parser("rebase", help="raw dump -> committed baseline")
    rebase.add_argument("raw")
    rebase.add_argument("--sha", default="baseline")

    args = parser.parse_args(argv)
    if args.command == "normalize":
        result = normalize(args.raw, args.sha)
        Path(args.output).write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {args.output} ({len(result['benchmarks'])} benchmarks)")
        return 0
    if args.command == "compare":
        return compare(
            args.current,
            args.baseline,
            args.tolerance,
            args.min_rounds,
            args.mem_tolerance,
        )
    if args.command == "rebase":
        result = normalize(args.raw, args.sha)
        BASELINE_PATH.write_text(json.dumps(result, indent=2) + "\n")
        print(f"wrote {BASELINE_PATH} ({len(result['benchmarks'])} benchmarks)")
        return 0
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
