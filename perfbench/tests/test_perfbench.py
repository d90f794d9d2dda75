"""Self-tests of the benchmark: its statistics rules, its metric names,
that every oracle check fires on a wrong answer, and a small-size run
of each workload, untraced then traced, with equal outputs.

Run from the repository root: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import math
import random

import pytest

from perfbench import common, graph_eval, job_bound_sweep, service_mix
from perfbench import run as bench
from perfbench.common import Outcome
from perfbench.tracer import LAYERS, Tracer
from repro.service.service import _percentile

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"] for m in SPEC["per_layer"]}
MODULES = {m.NAME: m for m in (job_bound_sweep, graph_eval, service_mix)}


# ----------------------------------------------------------------------
# statistics rules


def test_percentile_is_nearest_rank():
    assert common.percentile([4, 1, 3, 2], 0.5) == 2
    assert common.percentile([1, 2, 3, 4], 0.75) == 3
    assert common.percentile([1, 2, 3, 4], 1.0) == 4
    assert common.percentile([7], 0.99) == 7
    with pytest.raises(ValueError):
        common.percentile([], 0.5)


def test_percentile_matches_the_service_rule():
    rng = random.Random(5)
    for n in (1, 2, 3, 10, 99, 100, 101, 1000):
        samples = [rng.random() for _ in range(n)]
        for q in (0.5, 0.9, 0.95, 0.99, 1.0):
            assert common.percentile(samples, q) == _percentile(sorted(samples), q)


def test_best_rules_take_each_step_and_operation_at_its_best():
    out = Outcome()
    for index, (first, second) in enumerate([(1.0, 9.0), (5.0, 2.0), (3.0, 4.0)]):
        out.steps.append([first, second])
        out.timed("bound", first, index)
        out.timed("bound", second, index)
    assert out.best_round() == 1.0 + 2.0
    assert out.best_percentile("bound", 0.5) == 1.0
    assert out.best_percentile("bound", 1.0) == 2.0
    # the round rule: median over rounds of each round's largest sample
    assert out.round_percentile("bound", 1.0) == 5.0


@pytest.mark.parametrize(
    "n, tail",
    [(0, None), (19, None), (20, 0.5), (99, 0.5), (100, 0.9), (199, 0.9),
     (200, 0.95),
     (999, 0.95), (1000, 0.99), (9999, 0.99), (10000, 0.999)],
)
def test_supported_tail_needs_ten_samples_beyond(n, tail):
    assert common.supported_tail(n) == tail
    if tail is not None:
        assert n - math.ceil(tail * n) >= 10


def test_metric_name_character_set():
    for name in END_TO_END | PER_LAYER:
        assert common.valid_metric_name(name), name
    for bad in ("", "-lead", "_lead", ".lead", "has space", "p99%", "a/b",
                "x" * 65, "µs"):
        assert not common.valid_metric_name(bad), bad
    assert common.valid_metric_name("x" * 64)


def test_benchmark_names_workloads_and_metrics():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    assert set(bench.WORKLOADS) == set(MODULES)
    assert not END_TO_END & PER_LAYER


# ----------------------------------------------------------------------
# the oracles fire on wrong answers


def _job_outcome(log2_bounds, truths=(8,)):
    """One round of a 2-family sweep; ``log2_bounds[q]`` holds query
    ``q``'s bound under each family."""
    qids = tuple(range(1, len(truths) + 1))
    config = job_bound_sweep.Config(query_ids=qids, families=((1.0,), (1.0, 2.0)))
    out = Outcome()
    for qid, bounds, truth in zip(qids, log2_bounds, truths):
        name = job_bound_sweep.job_query(qid).name
        out.outputs[("count", 0, name)] = truth
        for family, value in zip(config.families, bounds):
            out.outputs[("bound", 0, name, family)] = ("optimal", value)
    return job_bound_sweep.State(db=None, config=config), out


def test_job_oracle_accepts_a_sound_monotone_sweep():
    state, out = _job_outcome([[5.0, 4.0]])
    assert job_bound_sweep.check(state, out) == []


@pytest.mark.parametrize("bounds", [[5.0, 2.0], [4.0, 5.0]])
def test_job_oracle_fires(bounds):
    # 2^2 < truth 8 is unsound; a larger family with a larger bound
    # breaks monotonicity
    state, out = _job_outcome([bounds])
    assert job_bound_sweep.check(state, out)


def test_job_oracle_fires_on_one_query_growing_while_the_mean_shrinks():
    # query 1 gains 3 bits, query 2 loses 1: the geometric mean of
    # bound/truth improves, but query 2's bound grew with the family
    state, out = _job_outcome([[9.0, 6.0], [5.0, 6.0]], truths=(8, 8))
    problems = job_bound_sweep.check(state, out)
    assert len(problems) == 1 and "grew" in problems[0]


def test_job_oracle_fires_on_a_missing_bound():
    state, out = _job_outcome([[5.0, 4.0]])
    del out.outputs[next(k for k in out.outputs if k[0] == "bound")]
    assert job_bound_sweep.check(state, out)


@pytest.fixture(scope="module")
def graph_state(tmp_path_factory):
    return graph_eval.setup(3, graph_eval.SMOKE, tmp_path_factory.mktemp("graph"))


def _graph_outcome(state):
    out = Outcome()
    for job in graph_eval.jobs(state.config):
        if job.dataset == "star":
            fan_out = state.config.star_fan_out
            count, nodes = fan_out, (fan_out + 1) ** 2
        else:
            dataset = "ca-GrQc" if job.dataset == "ca-GrQc-str" else job.dataset
            count, digest = graph_eval._direct(state, dataset, job.query)
            nodes = 1
            if job.sink == "spill":
                out.outputs[("spilled", 0, job.label)] = digest
        out.outputs[("count", 0, job.label)] = (count, nodes)
        out.outputs[("bound", 0, job.label)] = (
            "optimal", math.log2(max(count, 1)) + 1.0)
    return out


def test_graph_oracle_accepts_correct_answers(graph_state):
    assert graph_eval.check(graph_state, _graph_outcome(graph_state)) == []


@pytest.mark.parametrize(
    "kind", ["count", "spilled", "string", "star", "bound", "status"])
def test_graph_oracle_fires(graph_state, kind):
    out = _graph_outcome(graph_state)
    labels = {job.sink + job.dataset: job.label for job in graph_eval.jobs(graph_state.config)}
    if kind == "count":
        key = ("count", 0, labels["counttwitter"])
        out.outputs[key] = (out.outputs[key][0] + 1, 1)
    elif kind == "spilled":
        key = ("spilled", 0, labels["spillsoc-Epinions"])
        out.outputs[key] = out.outputs[key][:-1]
    elif kind == "string":
        key = ("count", 0, labels["countca-GrQc-str"])
        out.outputs[key] = (out.outputs[key][0] - 1, 1)
    elif kind == "star":
        key = ("count", 0, labels["countstar"])
        out.outputs[key] = (out.outputs[key][0], 7)
    elif kind == "bound":
        label = labels["counttwitter"]
        count = out.outputs[("count", 0, label)][0]
        out.outputs[("bound", 0, label)] = ("optimal", math.log2(count) - 0.5)
    else:
        key = ("bound", 0, labels["counttwitter"])
        out.outputs[key] = ("infeasible", out.outputs[key][1])
    assert graph_eval.check(graph_state, out)


def test_service_oracle_fires():
    config = service_mix.SMOKE
    tables = service_mix._tables(3, config)
    state = service_mix.State(
        config, 3, service_mix.Database(tables), None, "",
        service_mix._ColdTexts(config, 3),
    )
    text = service_mix._templates(config)[0]
    truth = service_mix._oracle(state, ("bound", text, None))
    count = service_mix._oracle(state, ("evaluate", text, None))
    out = Outcome()
    out.outputs[("bound", text, None)] = {truth + 5e-7}
    out.outputs[("evaluate", text, None)] = {count}
    assert service_mix.check(state, out) == []
    out.outputs[("bound", text, None)] = {truth + 1e-5}
    assert service_mix.check(state, out)
    out.outputs[("bound", text, None)] = {truth}
    out.outputs[("evaluate", text, None)] = {count + 1}
    assert service_mix.check(state, out)


# ----------------------------------------------------------------------
# small-size runs, untraced then traced


@pytest.mark.parametrize("name", bench.WORKLOADS)
def test_smoke_run_untraced_and_traced(name, tmp_path, monkeypatch):
    for variable, mode in common.PINNED_MODES.items():
        monkeypatch.setenv(variable, mode)
    module = MODULES[name]
    done = bench.run(name, 3, 1.0, True, config=module.SMOKE, workdir=tmp_path)
    result = done["result"]
    assert result["correct"], done["report"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == PER_LAYER
    plain, traced = done["outcomes"]
    assert set(bench.end_to_end_metrics(plain, [1.0], 1.0)) == END_TO_END
    if name == "service-mix":
        # a closed loop sends what time allows (and never repeats a cold
        # text): compare the answers both phases gave to the same request
        shared = plain.outputs.keys() & traced.outputs.keys()
        assert shared
        assert all(plain.outputs[k] == traced.outputs[k] for k in shared)
    else:
        assert plain.outputs == traced.outputs
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    layers = sum(metrics[f"{layer}.busy_s"] for layer in LAYERS)
    assert layers + metrics["other.busy_s"] == pytest.approx(metrics["trace.wall_s"])
    assert metrics["other.busy_s"] >= -1e-6
    assert isinstance(done["tracer"], Tracer) and done["tracer"].spans


def test_refuses_to_run_without_program_sources(tmp_path):
    import shutil
    import subprocess
    import sys

    bench_dir = tmp_path / "perfbench"
    shutil.copytree(bench.ROOT / "perfbench", bench_dir,
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(bench.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "graph-eval",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""
