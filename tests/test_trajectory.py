"""Unit tests for the bench-trajectory tooling (``benchmarks/trajectory.py``).

The compare sweep is CI's only window into a perf regression, so its
failure mode matters: one run must name *every* regressing series —
time and memory, including malformed entries — instead of aborting at
the first, and ``normalize`` must carry the traced peak memory through
to the trajectory artifact.
"""

import importlib.util
import json
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "trajectory",
    Path(__file__).resolve().parent.parent / "benchmarks" / "trajectory.py",
)
trajectory = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(trajectory)


def _raw_dump(entries):
    """A minimal pytest-benchmark dump with the calibration bench added."""
    benches = [
        {
            "fullname": trajectory.CALIBRATION,
            "stats": {"median": 0.01, "rounds": 10},
            "extra_info": {},
        }
    ]
    for name, median, extra in entries:
        benches.append(
            {
                "fullname": name,
                "stats": {"median": median, "rounds": 10},
                "extra_info": extra,
            }
        )
    return {"benchmarks": benches, "machine_info": {"node": "test"}}


def _trajectory_doc(sha, benchmarks):
    base = {
        trajectory.CALIBRATION: {
            "median_s": 0.01,
            "rounds": 10,
            "normalized": 1.0,
        }
    }
    base.update(benchmarks)
    return {"sha": sha, "benchmarks": base}


def test_normalize_carries_peak(tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(
        json.dumps(
            _raw_dump(
                [
                    ("b/x.py::fast", 0.002, {"peak_traced_kb": 12.5}),
                    ("b/x.py::plain", 0.004, {}),
                ]
            )
        )
    )
    doc = trajectory.normalize(str(raw), "abc123")
    fast = doc["benchmarks"]["b/x.py::fast"]
    assert fast["peak_kb"] == 12.5
    assert fast["normalized"] == pytest.approx(0.2)
    assert "peak_kb" not in doc["benchmarks"]["b/x.py::plain"]


def test_normalize_requires_calibration(tmp_path):
    raw = tmp_path / "raw.json"
    raw.write_text(json.dumps({"benchmarks": [], "machine_info": {}}))
    with pytest.raises(SystemExit, match="calibration"):
        trajectory.normalize(str(raw), "abc123")


def test_compare_ok(tmp_path, capsys):
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    bench = {"median_s": 0.002, "rounds": 10, "normalized": 0.2}
    baseline.write_text(json.dumps(_trajectory_doc("base", {"b::one": bench})))
    current.write_text(json.dumps(_trajectory_doc("cur", {"b::one": bench})))
    assert trajectory.compare(str(current), str(baseline), 1.5) == 0
    assert "no regressions" in capsys.readouterr().out


def test_compare_reports_every_regression_in_one_run(tmp_path, capsys):
    """Two time regressions, one memory regression, and one malformed
    entry must all surface from a single compare invocation."""
    base = {
        "b::slow1": {"median_s": 0.002, "rounds": 10, "normalized": 0.2,
                     "peak_kb": 100.0},
        "b::slow2": {"median_s": 0.002, "rounds": 10, "normalized": 0.2},
        "b::broken": {"median_s": 0.002, "rounds": 10, "normalized": 0.2},
        "b::fine": {"median_s": 0.002, "rounds": 10, "normalized": 0.2},
    }
    cur = {
        # 10x slower and 3x the peak
        "b::slow1": {"median_s": 0.02, "rounds": 10, "normalized": 2.0,
                     "peak_kb": 300.0},
        "b::slow2": {"median_s": 0.02, "rounds": 10, "normalized": 2.0},
        # malformed: missing the normalized median entirely
        "b::broken": {"median_s": 0.02, "rounds": 10},
        "b::fine": {"median_s": 0.002, "rounds": 10, "normalized": 0.2},
    }
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps(_trajectory_doc("base", base)))
    current.write_text(json.dumps(_trajectory_doc("cur", cur)))
    assert trajectory.compare(str(current), str(baseline), 1.5) == 1
    out = capsys.readouterr().out
    # the sweep reached every series despite the earlier failures
    assert "b::slow1" in out and "b::slow2" in out and "b::broken" in out
    assert "b::fine" in out
    tail = out[out.index("series regressed beyond tolerance"):]
    assert "b::slow1 [time]" in tail
    assert "b::slow1 [memory]" in tail
    assert "b::slow2 [time]" in tail
    assert "b::broken [time]: malformed entry" in tail
    assert "b::fine" not in tail


def test_compare_zero_calibration_is_reported_not_raised(tmp_path, capsys):
    base = {
        "b::one": {"median_s": 0.002, "rounds": 10, "normalized": 0.0},
        "b::two": {"median_s": 0.002, "rounds": 10, "normalized": 0.2},
    }
    cur = {
        "b::one": {"median_s": 0.002, "rounds": 10, "normalized": 0.2},
        "b::two": {"median_s": 0.2, "rounds": 10, "normalized": 20.0},
    }
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps(_trajectory_doc("base", base)))
    current.write_text(json.dumps(_trajectory_doc("cur", cur)))
    assert trajectory.compare(str(current), str(baseline), 1.5) == 1
    tail = capsys.readouterr().out
    tail = tail[tail.index("series regressed beyond tolerance"):]
    assert "b::one [time]: malformed entry" in tail
    assert "b::two [time]" in tail


def test_compare_new_and_low_round_entries_are_informational(
    tmp_path, capsys
):
    base = {
        "b::oneshot": {"median_s": 0.002, "rounds": 1, "normalized": 0.2},
    }
    cur = {
        "b::oneshot": {"median_s": 0.2, "rounds": 1, "normalized": 20.0},
        "b::fresh": {"median_s": 0.001, "rounds": 10, "normalized": 0.1},
    }
    baseline = tmp_path / "base.json"
    current = tmp_path / "cur.json"
    baseline.write_text(json.dumps(_trajectory_doc("base", base)))
    current.write_text(json.dumps(_trajectory_doc("cur", cur)))
    assert trajectory.compare(str(current), str(baseline), 1.5) == 0
    out = capsys.readouterr().out
    assert "[info]" in out
    assert "[new]" in out
