"""Unit tests for the command-line interface."""

import math

import pytest

from repro.cli import EXPERIMENTS, _parse_norms, build_parser, main


class TestParsing:
    def test_norms_parser(self):
        assert _parse_norms("1,2,inf") == [1.0, 2.0, math.inf]
        assert _parse_norms("2.5") == [2.5]

    def test_norms_parser_rejects_empty(self):
        import argparse

        with pytest.raises(argparse.ArgumentTypeError):
            _parse_norms(",")

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E14" in out
        assert len(EXPERIMENTS) == 14

    def test_experiment_by_id(self, capsys):
        assert main(["experiment", "E7"]) == 0
        out = capsys.readouterr().out
        assert "35" in out  # the 35/36 gap experiment

    def test_experiment_by_module_name(self, capsys):
        assert main(["experiment", "nonshannon"]) == 0
        assert "non-Shannon" in capsys.readouterr().out

    def test_experiment_unknown(self, capsys):
        assert main(["experiment", "E99"]) == 2

    def test_frontier_block_rejected_where_unsupported(self, capsys):
        assert main(["experiment", "E7", "--frontier-block", "64"]) == 2
        assert "--frontier-block" in capsys.readouterr().err

    def test_frontier_block_rejects_non_positive(self, capsys):
        assert main(["experiment", "E14", "--frontier-block", "0"]) == 2
        assert "must be ≥ 1" in capsys.readouterr().err

    def test_star_experiment_takes_frontier_block(self, capsys):
        assert main(["experiment", "E14", "--frontier-block", "4096"]) == 0
        out = capsys.readouterr().out
        assert "E14" in out and "block=4096" in out
        assert "NO" not in out  # every blocked run bit-identical

    def test_sink_rejected_where_unsupported(self, capsys):
        assert main(["experiment", "E7", "--sink", "count"]) == 2
        assert "--sink" in capsys.readouterr().err

    def test_spill_dir_requires_spill_sink(self, capsys):
        code = main(
            ["experiment", "E14", "--sink", "count", "--spill-dir", "x"]
        )
        assert code == 2
        assert "--spill-dir requires --sink spill" in capsys.readouterr().err

    def test_star_experiment_count_sink(self, capsys):
        assert main(["experiment", "E14", "--sink", "count"]) == 0
        out = capsys.readouterr().out
        assert "count" in out and "spill" not in out
        assert "NO" not in out

    def test_star_experiment_spill_sink(self, tmp_path, capsys):
        code = main(
            [
                "experiment",
                "E14",
                "--sink",
                "spill",
                "--spill-dir",
                str(tmp_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "spill" in out and "NO" not in out
        # the driver closes its sinks: every per-fan-out spill
        # subdirectory (and its segments) is gone again
        assert list(tmp_path.iterdir()) == []

    def test_parallel_workers_rejected_where_unsupported(self, capsys):
        assert main(["experiment", "E7", "--parallel-workers", "2"]) == 2
        assert "--parallel-workers" in capsys.readouterr().err

    def test_parallel_workers_rejects_non_positive(self, capsys):
        assert main(["experiment", "E8", "--parallel-workers", "0"]) == 2
        assert "must be ≥ 1" in capsys.readouterr().err

    def test_supervision_flags_require_parallel_workers(self, capsys):
        assert main(["experiment", "E8", "--retries", "3"]) == 2
        assert "--parallel-workers" in capsys.readouterr().err
        assert main(["experiment", "E8", "--part-timeout", "5"]) == 2
        assert "--parallel-workers" in capsys.readouterr().err

    def test_inject_faults_rejects_bad_spec(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "E8",
                    "--parallel-workers",
                    "2",
                    "--inject-faults",
                    "part=3:meltdown",
                ]
            )
            == 2
        )
        assert "--inject-faults" in capsys.readouterr().err

    def test_kernels_flag_rejects_unknown_mode(self, capsys):
        with pytest.raises(SystemExit):
            main(["experiment", "E14", "--kernels", "turbo"])

    def test_kernels_python_mode_runs(self, capsys):
        from repro.relational import kernels

        prior = kernels.active_mode()
        try:
            assert main(["experiment", "E14", "--kernels", "python"]) == 0
            assert kernels.active_mode() == "python"
            assert "E14" in capsys.readouterr().out
        finally:
            kernels.set_mode(prior)

    def test_kernels_numba_without_numba_is_a_clean_error(self, capsys):
        from repro.relational import kernels

        if kernels.numba_available():
            pytest.skip("numba is installed")
        assert main(["experiment", "E14", "--kernels", "numba"]) == 2
        assert "--kernels" in capsys.readouterr().err

    def test_star_experiment_parallel_workers(self, capsys):
        assert (
            main(
                [
                    "experiment",
                    "E14",
                    "--parallel-workers",
                    "2",
                    "--retries",
                    "2",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "parallel[2]" in out
        assert "NO" not in out  # every parallel run verified vs serial

    def test_bound_over_csv(self, tmp_path, capsys):
        csv_path = tmp_path / "edges.csv"
        csv_path.write_text("x,y\n1,2\n2,3\n3,1\n2,1\n3,2\n1,3\n")
        code = main(
            [
                "bound",
                "--query",
                "Q(x,y,z) :- R(x,y), R(y,z), R(z,x)",
                "--table",
                f"R={csv_path}",
                "--norms",
                "1,2,inf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "bound" in out
        assert "certificate" in out

    def test_bound_over_header_only_csv(self, tmp_path, capsys):
        # an empty relation bounds the output by 0, with no LP to fail
        csv_path = tmp_path / "empty.csv"
        csv_path.write_text("x,y\n")
        code = main(
            [
                "bound",
                "--query",
                "Q(x,y,z) :- R(x,y), R(y,z)",
                "--table",
                f"R={csv_path}",
                "--norms",
                "1,2,inf",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "status   : optimal" in out
        assert "bound    : 0  (log2 = -inf)" in out
        assert "certificate: |Q| ≤ ||deg_R(" in out

    def test_bound_bad_table_spec(self, capsys):
        code = main(
            ["bound", "--query", "Q(x) :- R(x)", "--table", "nonsense"]
        )
        assert code == 2

    def test_bound_string_values(self, tmp_path, capsys):
        csv_path = tmp_path / "r.csv"
        csv_path.write_text("x,y\na,b\nb,c\n")
        code = main(
            [
                "bound",
                "--query",
                "Q(x,y,z) :- R(x,y), R(y,z)",
                "--table",
                f"R={csv_path}",
            ]
        )
        assert code == 0
        assert "optimal" in capsys.readouterr().out
