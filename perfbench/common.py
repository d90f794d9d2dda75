"""Statistics, environment stamp and result plumbing shared by the workloads."""

from __future__ import annotations

import hashlib
import math
import os
import platform
import re
import subprocess
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

#: The pinned oracle configuration: every run measures these modes, so
#: results from different kernel or LP paths are never compared.  The
#: hash seed is pinned too: string hashing orders sets of variable names,
#: which orders LP constraints, which moves solve times by up to ~30%
#: between otherwise identical runs.
PINNED_MODES = {"REPRO_KERNELS": "python", "REPRO_LP": "oneshot",
                "PYTHONHASHSEED": "0"}

#: The clock of the in-process workloads' per-operation latencies: the
#: calling thread's CPU time.  Their operations run on that one thread,
#: so this is their latency on an idle machine; on a VM with CPU steal,
#: the wall time of a millisecond operation mostly measures the host
#: (LP solves of 2.3 ms: wall p90 5.9 ms, CPU-time p90 3.3 ms).  Round
#: times (``wall_s``, ``throughput_per_s``) stay wall-clock, so waits
#: still show there.
op_clock = time.thread_time

#: Percentiles the tail rule may choose from, highest last.
TAIL_LADDER = (0.5, 0.9, 0.95, 0.99, 0.999)

_METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile: the sample at sorted index ``ceil(q·n) − 1``.

    The rule the bound service uses for its ``/metrics`` percentiles, so
    a client-side p99 and a server-side p99 mean the same thing.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(samples)
    rank = math.ceil(q * len(ordered)) - 1
    return ordered[max(0, min(len(ordered) - 1, rank))]


def supported_tail(n: int, ladder=TAIL_LADDER) -> float | None:
    """The highest percentile of ``ladder`` with ≥10 samples beyond it.

    A nearest-rank percentile at index ``ceil(q·n) − 1`` has
    ``n − ceil(q·n)`` samples above it; a tail resting on fewer than ten
    is one or two outliers, not a percentile.  ``None`` when even the
    median lacks ten samples beyond it.
    """
    best = None
    for q in ladder:
        if n - math.ceil(q * n) >= 10:
            best = q
    return best


def median(samples) -> float:
    return percentile(samples, 0.5)


def valid_metric_name(name: str) -> bool:
    """Metric names: a letter or digit, then up to 63 of ``[A-Za-z0-9_.-]``."""
    return _METRIC_NAME.fullmatch(name) is not None


def peak_rss_mb(pid: int | str = "self") -> float:
    """Peak resident set (VmHWM) of a live process, in MiB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for process {pid}")


def reset_peak_rss(pid: int | str = "self") -> None:
    """Restart a process's VmHWM at its current resident set, so the
    next :func:`peak_rss_mb` covers only what runs after this call.

    Writing ``5`` to ``clear_refs`` does this on Linux ≥ 4.0; where the
    kernel refuses, the peak keeps covering the process's whole life.
    """
    try:
        with open(f"/proc/{pid}/clear_refs", "w") as handle:
            handle.write("5")
    except OSError:
        pass


def _source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def environment_stamp(root: Path, workload: str, seed: int) -> dict:
    """Where and how a result was measured.

    ``git_sha`` is ``None`` in an exported checkout; ``source_sha256``
    (a digest of ``src/``) identifies the measured code either way.
    """
    import numpy
    import scipy

    from repro.core import active_lp_mode
    from repro.relational import kernels

    return {
        "workload": workload,
        "seed": seed,
        "kernels": kernels.active_mode(),
        "lp": active_lp_mode(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_sha": _git_sha(root),
        "source_sha256": _source_digest(root),
    }


@dataclass
class Outcome:
    """What one measured phase did.

    ``rounds`` are the durations of the phase's fixed units of work;
    ``latency`` maps an operation kind (``bound``, ``cold_bound``,
    ``evaluate``) to per-operation seconds.  ``outputs`` maps an
    operation key to its answer, so two phases can be compared.

    ``steps`` holds, per round, the wall seconds of its steps in order;
    a workload fills it only when every round repeats the same steps and
    operations, so each can be taken at its best over the rounds.
    """

    rounds: list[float] = field(default_factory=list)
    steps: list[list[float]] = field(default_factory=list)
    latency: dict[str, list[float]] = field(
        default_factory=lambda: {"bound": [], "cold_bound": [], "evaluate": []}
    )
    #: operations in one round (``throughput_per_s`` is this over
    #: ``wall_s``)
    ops_per_round: int = 0
    #: thread-seconds the traced spans must account for (the rounds' sum
    #: when the phase runs on one thread)
    accounted_s: float = 0.0
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    outputs: dict = field(default_factory=dict)
    counters: dict[str, float] = field(default_factory=dict)
    latency_round: dict[str, list[int]] = field(default_factory=dict)

    def count(self, name: str, value: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    def timed(self, kind: str, seconds: float, round_index: int | None = None):
        """One operation of ``kind`` took ``seconds``; it belongs to round
        ``round_index`` (default: the round in progress)."""
        self.sample(kind, seconds, round_index)
        self.attempted += 1

    def sample(self, kind: str, seconds: float, round_index: int | None = None):
        """A latency sample of ``kind`` that is part of an operation
        already counted by :meth:`timed`."""
        if round_index is None:
            round_index = len(self.rounds)
        self.latency[kind].append(seconds)
        self.latency_round.setdefault(kind, []).append(round_index)

    @contextmanager
    def step(self):
        """Time one step of the round in progress (wall clock)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.steps[-1].append(time.perf_counter() - start)

    def best_round(self) -> float:
        """A round's wall time with each step at its best over the rounds.

        A slowdown of the host that lasts seconds hits some rounds of a
        step, rarely all of them; a whole round of several seconds is
        rarely spared by every slowdown.
        """
        return sum(min(times) for times in zip(*self.steps))

    def _per_round(self, kind: str) -> list[list[float]]:
        per_round: dict[int, list[float]] = {}
        for seconds, index in zip(self.latency[kind], self.latency_round[kind]):
            per_round.setdefault(index, []).append(seconds)
        return list(per_round.values())

    def round_percentile(self, kind: str, q: float) -> float:
        """Median over rounds of each round's nearest-rank percentile.

        A transient slowdown of the host then moves the rounds it hit,
        not the whole run's tail.
        """
        return median([percentile(s, q) for s in self._per_round(kind)])

    def best_percentile(self, kind: str, q: float) -> float:
        """Nearest-rank percentile over a round's operations of ``kind``,
        each taken at its best over the rounds (the n-th operation of a
        kind is the same one in every round)."""
        return percentile([min(s) for s in zip(*self._per_round(kind))], q)
