"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload job-bound-sweep --seed 7 \
        --seconds 20 --trace 0

Run from the root of a repository checkout: the program is imported from
``src/`` (pure Python, nothing to build).  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it is the environment stamp and sample report.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` the per-layer ones.  Each
run also writes its report (and, traced, every span) to ``.bench_out/``.
See ``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("job-bound-sweep", "graph-eval", "service-mix")
#: The seed claims are developed on, and the one held out to confirm them.
DEFAULT_SEED = 7
HELD_OUT_SEED = 1009
OUT_DIR = ".bench_out"


def _bootstrap() -> None:
    """Make ``repro`` importable from ``src/`` with the oracle modes pinned.

    Must run before anything imports ``repro``: the modes are read from
    the environment at first use.
    """
    if not (ROOT / "src" / "repro").is_dir():
        raise SystemExit(
            f"perfbench: no program sources at {ROOT / 'src' / 'repro'}; "
            "run from the root of a repository checkout"
        )
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.common import PINNED_MODES

    os.environ.update(PINNED_MODES)
    # inputs are generated from the seed on every run, never loaded
    os.environ.pop("REPRO_DATASET_CACHE", None)


def workload_module(name: str):
    from perfbench import graph_eval, job_bound_sweep, service_mix

    modules = {m.NAME: m for m in (job_bound_sweep, graph_eval, service_mix)}
    return modules[name]


def run(workload: str, seed: int, seconds: float, trace: bool,
        config=None, workdir: Path | None = None) -> dict:
    """Set up, measure, check; returns the result, report and outcomes."""
    from perfbench import common, tracer as tracing

    module = workload_module(workload)
    config = config or module.FULL
    workdir = Path(workdir or ROOT / OUT_DIR / f"work-{workload}-{os.getpid()}")
    setup_s, encode_s, state = [], [], None

    def set_up(index: int):
        start = module.CLOCK()
        made = module.setup(seed, config, workdir / f"setup-{index}")
        setup_s.append(module.CLOCK() - start)
        encode_s.append(getattr(made, "encode_s", 0.0))
        return made

    # half the set-ups run before the measurement and the rest after it,
    # so their median samples the host at both ends of the run
    before = (config.setups + 1) // 2
    try:
        try:
            for index in range(before):
                if state is not None:
                    state.close()
                    state = None  # freed before the next one is built
                state = set_up(index)
            # a full collection would scan every object the set-up left
            # alive, at times that vary run to run (up to +60% on one
            # string-keyed statistics pass): keep them out of its reach
            gc.collect()
            gc.freeze()
            # the peak covers the measured phase, not the set-ups
            pid = module.measured_pid(state)
            common.reset_peak_rss(pid)
            plain = module.measure(state, seconds, tracing.NULL)
            rss = common.peak_rss_mb(pid)
            traced = recorder = None
            if trace:
                recorder = tracing.Tracer()
                traced = module.measure(state, seconds, recorder)
            problems = module.check(state, plain)
            if traced is not None:
                problems += module.check(state, traced)
        finally:
            gc.unfreeze()
            if state is not None:
                state.close()
        for index in range(before, config.setups):
            set_up(index).close()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    outcomes = [plain] + ([traced] if traced is not None else [])
    attempted = sum(o.attempted for o in outcomes)
    failed = min(attempted, sum(len(o.errors) for o in outcomes) + len(problems))
    if trace:
        metrics = layer_metrics(traced, plain, recorder, encode_s)
    else:
        metrics = end_to_end_metrics(plain, setup_s, rss)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    report = {
        "stamp": common.environment_stamp(ROOT, workload, seed),
        "seconds": seconds,
        "round_s": plain.rounds,
        "setup_runs": len(setup_s),
        "samples": {
            kind: {
                "n": len(values),
                "tail": common.supported_tail(len(values)),
            }
            for kind, values in plain.latency.items()
        },
        "errors": [e for o in outcomes for e in o.errors][:20],
        "problems": problems[:20],
    }
    return {"result": result, "report": report, "outcomes": outcomes,
            "tracer": recorder}


def _ms(samples, q: float) -> float:
    from perfbench.common import percentile

    return percentile(samples, q) * 1e3 if samples else 0.0


def end_to_end_metrics(out, setup_s: list[float], rss: float) -> dict:
    from perfbench.common import median

    if out.steps:  # the rounds repeat their steps: each at its best
        wall, latency = out.best_round(), out.best_percentile
    else:
        wall, latency = median(out.rounds), out.round_percentile

    def ms(kind: str) -> float:
        return latency(kind, 0.50) * 1e3 if out.latency[kind] else 0.0

    values = {
        "setup_s": (median(setup_s), "s"),
        "wall_s": (wall, "s"),
        "throughput_per_s": (out.ops_per_round / wall, "1/s"),
        "bound_ms_p50": (ms("bound"), "ms"),
        "cold_bound_ms_p50": (ms("cold_bound"), "ms"),
        "evaluate_ms_p50": (ms("evaluate"), "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(out, plain, recorder, encode_s: list[float]) -> dict:
    """Per-layer metrics of a traced phase (every name on every workload;
    a layer a workload does not exercise reports 0)."""
    from perfbench.common import median
    from perfbench.tracer import LAYERS

    c = out.counters.get
    busy = recorder.busy()
    wall = out.accounted_s
    other = wall - recorder.top_level_seconds()
    solves = recorder.durations("lp")
    parts = recorder.durations("evaluate") or out.latency.get(
        "server_evaluate", [])
    evaluate_busy = busy["evaluate"]
    hits, misses = c("lp.assembly_hits", 0), c("lp.assembly_misses", 0)
    stat_hits = c("service.statistics_hits", 0)
    stat_misses = c("service.statistics_misses", 0)
    result_hits, lp_solves = c("lp.result_hits", 0), c("lp.solves", 0)
    overhead = median(out.rounds) - median(plain.rounds)
    values = {f"{layer}.busy_s": (busy[layer], "s") for layer in LAYERS}
    values.update({
        "trace.wall_s": (wall, "s"),
        "other.busy_s": (other, "s"),
        "other.share": (_ratio(other, wall), "ratio"),
        "trace.overhead_s": (overhead, "s"),
        "trace.overhead_share": (_ratio(overhead, median(plain.rounds)), "ratio"),
        "encode.setup_s": (median(encode_s), "s"),
        "statistics.lexsorts": (c("statistics.lexsorts", 0), "count"),
        "statistics.sequences": (c("statistics.sequences", 0), "count"),
        "lp.solves": (lp_solves, "count"),
        "lp.assembly_misses": (misses, "count"),
        "lp.assembly_hits": (hits, "count"),
        "lp.assembly_reuse_ratio": (_ratio(hits, hits + misses), "ratio"),
        "lp.family_slices": (c("lp.family_slices", 0), "count"),
        "lp.solve_ms_p50": (_ms(solves, 0.50), "ms"),
        "lp.solve_ms_p95": (_ms(solves, 0.95), "ms"),
        "lp.solve_ms_max": (_ms(solves, 1.0), "ms"),
        "partition.parts": (c("partition.parts", 0), "count"),
        "evaluate.part_ms_p50": (_ms(parts, 0.50), "ms"),
        "evaluate.part_ms_p95": (_ms(parts, 0.95), "ms"),
        "evaluate.nodes_visited": (c("evaluate.nodes_visited", 0), "count"),
        "evaluate.nodes_per_s": (
            _ratio(c("evaluate.nodes_visited", 0), evaluate_busy), "1/s"),
        "evaluate.output_rows": (c("evaluate.output_rows", 0), "count"),
        "sink.bytes_written": (c("sink.bytes_written", 0), "B"),
        "sink.segments": (c("sink.segments", 0), "count"),
        "sink.write_amplification": (
            _ratio(c("sink.bytes_written", 0), 8 * c("sink.cells", 0)), "ratio"),
        "http.overhead_ms_p50": (_ms(out.latency.get("http_overhead"), 0.50), "ms"),
        "http.overhead_ms_p99": (_ms(out.latency.get("http_overhead"), 0.99), "ms"),
        "service.bound_ms_p50": (_ms(out.latency.get("server_bound"), 0.50), "ms"),
        "service.bound_ms_p99": (_ms(out.latency.get("server_bound"), 0.99), "ms"),
        "service.statistics_hit_ratio": (
            _ratio(stat_hits, stat_hits + stat_misses), "ratio"),
        "service.result_hit_ratio": (
            _ratio(result_hits, result_hits + lp_solves), "ratio"),
        "service.cache_evictions": (c("service.cache_evictions", 0), "count"),
        "service.admission_rejected": (c("service.admission_rejected", 0), "count"),
        "service.admission_peak_queue": (
            c("service.admission_peak_queue", 0), "count"),
        "service.degradations": (c("service.degradations", 0), "count"),
    })
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a termination request unwinds like an error: the server is stopped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    _bootstrap()
    if sys.flags.hash_randomization and argv is None:
        # the hash seed is read at interpreter start: restart pinned
        os.execv(sys.executable, [sys.executable, *sys.argv])
    done = run(args.workload, args.seed, args.seconds, bool(args.trace))
    out_dir = ROOT / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    record = {"result": done["result"], "report": done["report"]}
    if done["tracer"] is not None:
        record["spans"] = done["tracer"].to_json()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (out_dir / name).write_text(json.dumps(record))
    print(json.dumps(done["report"]))
    print(json.dumps(done["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
