"""Benchmark configuration.

Every benchmark regenerates one of the paper's tables/figures (see
docs/architecture.md).  Experiments are deterministic but not micro-benchmarks, so each runs
once per session (pedantic mode, 1 round) and asserts the paper's
qualitative *shape* — who wins, by roughly what factor — on top of timing.
"""

import sys
import tracemalloc
from pathlib import Path

import pytest

# the reference implementations the speedup guards compare against live
# with the tests (``tests/oracles``), importable as ``oracles.*``
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


@pytest.fixture
def traced_peak():
    """Measure one call's peak traced allocation: ``(result, peak_bytes)``.

    NumPy registers its buffer allocations with ``tracemalloc``, so the
    peak covers the columnar engine's working set — a deterministic,
    machine-independent stand-in for peak RSS.  Benchmarks record it via
    ``benchmark.extra_info["peak_traced_kb"]``, which
    ``benchmarks/trajectory.py`` turns into the CI memory-trajectory
    series.
    """

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            result = fn(*args, **kwargs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return result, peak

    return measure


@pytest.fixture
def once(benchmark):
    """Run the callable exactly once under the benchmark timer."""

    def runner(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return runner


@pytest.fixture(scope="session")
def imdb_db():
    """The shared JOB-like IMDB database (scale 0.3, seed 7).

    Session-scoped so bench_job / bench_norm_ablation time the estimation
    pipeline, not dataset generation — the E3/E9 drivers take it via their
    ``db`` parameter instead of rebuilding it every benchmark round.
    """
    from repro.datasets.imdb import imdb_database

    return imdb_database(scale=0.3, seed=7)
