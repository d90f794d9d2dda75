"""Soak smoke for the bound service: a real ``repro serve`` process
under a concurrent mixed client sweep.

CI runs this on the service leg after the tier-1 suite: it launches the
actual CLI server as a subprocess (ephemeral port, a cache budget small
enough that the sweep's distinct query texts force evictions), then
hammers it from several threads with warm bounds, cold distinct-text
bounds, and a few admission-capped evaluations, and asserts the
production invariants the stress tests pin in-process:

* **zero 5xx** — every response is a 200 or a *typed* 4xx
  (``overloaded`` included);
* **bounded RSS growth** — the server process's resident set after the
  sweep stays within a generous factor of its post-warm-up size
  (unbounded caches fail this in seconds with this many distinct texts);
* **budget adherence** — ``/metrics`` reports total cache bytes (warm
  LP models included) within the configured ``--cache-budget`` and at
  least one eviction;
* **liveness** — ``/healthz`` still answers after the storm.

Exit code 0 on success; any violated invariant raises.  Usable locally:
``PYTHONPATH=src python benchmarks/soak_service.py``.
"""

from __future__ import annotations

import csv
import json
import random
import re
import signal
import subprocess
import sys
import tempfile
import threading
import urllib.error
import urllib.request
from pathlib import Path

THREADS = 6
REQUESTS_PER_THREAD = 400
DISTINCT_TEXTS = 64
CACHE_BUDGET = "256K"
#: RSS after the sweep may exceed RSS after warm-up by at most this
#: factor (the budget holds the caches; the rest is allocator slack).
RSS_GROWTH_LIMIT = 1.5
TRIANGLE = "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)"


def _write_edges(path: Path, edges: int, nodes: int, seed: int) -> None:
    rng = random.Random(seed)
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["src", "dst"])
        for _ in range(edges):
            writer.writerow([rng.randrange(nodes), rng.randrange(nodes)])


def _rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/statm") as handle:
        pages = int(handle.read().split()[1])
    import resource

    return pages * (resource.getpagesize() // 1024)


def _post(url: str, payload: dict) -> tuple[int, dict]:
    body = json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=body, headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as err:
        return err.code, json.loads(err.read())


def _get(url: str) -> tuple[int, dict]:
    with urllib.request.urlopen(url, timeout=30) as response:
        return response.status, json.loads(response.read())


def _chain_text(i: int) -> str:
    return f"Q(a{i},b{i},c{i}) :- R(a{i},b{i}), R(b{i},c{i})"


def main() -> int:
    tmp = Path(tempfile.mkdtemp(prefix="repro-soak-"))
    edges_csv = tmp / "edges.csv"
    _write_edges(edges_csv, edges=1500, nodes=220, seed=7)
    server = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--table", f"R={edges_csv}",
            "--port", "0",
            "--warm", TRIANGLE,
            "--cache-budget", CACHE_BUDGET,
            "--max-concurrent-evaluations", "2",
            "--evaluate-queue", "2",
            "--evaluate-queue-timeout", "0.2",
        ],
        stderr=subprocess.PIPE,
        text=True,
    )
    try:
        url = None
        for line in server.stderr:
            match = re.search(r"serving on (http://\S+)", line)
            if match:
                url = match.group(1)
                break
        assert url, "server never reported its URL"
        # drain stderr in the background so the server can't block on it
        threading.Thread(
            target=lambda: server.stderr.read(), daemon=True
        ).start()

        status, _ = _get(url + "/healthz")
        assert status == 200
        # warm-up pass before the RSS baseline: touch every code path
        _post(url + "/bound", {"query": TRIANGLE})
        _post(url + "/evaluate", {"query": TRIANGLE})
        rss_before = _rss_kb(server.pid)

        bad_statuses: list[tuple[int, str]] = []
        counters = {"ok": 0, "typed_4xx": 0, "overloaded": 0}
        lock = threading.Lock()

        def sweep(seed: int) -> None:
            rng = random.Random(seed)
            for i in range(REQUESTS_PER_THREAD):
                roll = rng.random()
                if roll < 0.70:  # warm hot-path bound
                    status, payload = _post(
                        url + "/bound", {"query": TRIANGLE}
                    )
                elif roll < 0.95:  # cold distinct-text bound
                    status, payload = _post(
                        url + "/bound",
                        {"query": _chain_text(rng.randrange(DISTINCT_TEXTS))},
                    )
                else:  # evaluation pressure against the admission gate
                    status, payload = _post(
                        url + "/evaluate", {"query": TRIANGLE}
                    )
                with lock:
                    if status == 200:
                        counters["ok"] += 1
                    elif 400 <= status < 500 and "error" in payload:
                        counters["typed_4xx"] += 1
                        if payload["error"]["code"] == "overloaded":
                            counters["overloaded"] += 1
                    else:
                        bad_statuses.append((status, json.dumps(payload)))

        threads = [
            threading.Thread(target=sweep, args=(seed,))
            for seed in range(THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        assert not bad_statuses, f"non-typed/5xx responses: {bad_statuses[:5]}"
        total = THREADS * REQUESTS_PER_THREAD
        assert counters["ok"] + counters["typed_4xx"] == total

        status, metrics = _get(url + "/metrics")
        assert status == 200
        caches = metrics["caches"]
        assert caches["budget_bytes"] == 256 * 1024
        assert caches["total_bytes"] <= caches["budget_bytes"], caches
        evictions = sum(
            caches[layer]["evictions"]
            for layer in ("queries", "statistics", "solver_results",
                          "solver_assemblies")
        )
        assert evictions > 0, "budget never bit despite distinct-text sweep"
        # warm LP models live in their assemblies' entries, so the
        # total above already prices them
        assemblies = caches["solver_assemblies"]
        assert assemblies["models"] <= assemblies["entries"], assemblies
        assert metrics["requests"]["bound"] >= total * 0.9
        assert metrics["errors"].get("internal", 0) == 0

        rss_after = _rss_kb(server.pid)
        growth = rss_after / max(rss_before, 1)
        assert growth <= RSS_GROWTH_LIMIT, (
            f"server RSS grew {growth:.2f}× ({rss_before} → {rss_after} kB)"
        )

        status, _ = _get(url + "/healthz")
        assert status == 200

        print(
            f"soak ok: {total} requests "
            f"({counters['ok']} ok, {counters['typed_4xx']} typed 4xx, "
            f"{counters['overloaded']} overloaded), "
            f"cache {caches['total_bytes']} / {caches['budget_bytes']} B, "
            f"{evictions} evictions, "
            f"RSS {rss_before} → {rss_after} kB ({growth:.2f}×)"
        )
        return 0
    finally:
        server.send_signal(signal.SIGINT)
        try:
            server.wait(timeout=10)
        except subprocess.TimeoutExpired:
            server.kill()


if __name__ == "__main__":
    sys.exit(main())
