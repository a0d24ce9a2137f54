"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


def _assert_error_line(argv, line, capsys):
    """``argv`` exits 2 with the one stderr line ``error: <line>`` and no stdout."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.err, captured.out) == (f"error: {line}\n", "")


class TestMeasureCommand:
    def test_writes_measurement_file(self, tmp_path, capsys):
        output = tmp_path / "m.json"
        assert main(["measure", "--output", str(output)]) == 0
        assert output.exists()
        payload = json.loads(output.read_text())
        assert payload["machine_name"] == "summit-like"
        assert "wrote" in capsys.readouterr().out


class TestPredictCommand:
    def test_predict_from_measurement_file(self, tmp_path, capsys):
        output = tmp_path / "m.json"
        main(["measure", "--output", str(output)])
        code = main(
            ["predict", "--measurement", str(output), "--size", str(1 << 20), "--block", "8"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "T_oneshot" in out and "T_device" in out and "selected method" in out
        assert "device" in out or "oneshot" in out

    def test_small_object_selects_oneshot(self, tmp_path, capsys):
        output = tmp_path / "m.json"
        main(["measure", "--output", str(output)])
        main(["predict", "--measurement", str(output), "--size", "1024", "--block", "8"])
        assert "selected method : oneshot" in capsys.readouterr().out

    def test_invalid_arguments_return_error(self, capsys):
        for flags, line in (
            (["--size", "0", "--block", "8"], "--size must be positive, got 0"),
            (["--size", "-5", "--block", "8"], "--size must be positive, got -5"),
            (["--size", "64", "--block", "-8"], "--block must be positive, got -8"),
        ):
            _assert_error_line(["predict", *flags], line, capsys)


class TestHaloCommand:
    def test_paper_scale_point(self, capsys):
        assert main(["halo", "--nodes", "8", "--ranks-per-node", "6"]) == 0
        out = capsys.readouterr().out
        assert "48 ranks" in out
        assert "speedup" in out

    def test_custom_domain(self, capsys):
        assert main(["halo", "--nodes", "2", "--ranks-per-node", "2", "--points", "64"]) == 0
        assert "64^3 points/rank" in capsys.readouterr().out

    def test_invalid_scale_rejected(self, capsys):
        assert main(["halo", "--nodes", "0"]) == 2

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--nodes", "2", "--points", "2"], "stencil radius"),
            (["--nodes", "2", "--ranks-per-node", "7"], "ranks_per_node=7"),
        ],
    )
    def test_bad_flag_is_an_error_line_not_a_traceback(self, flags, named, capsys):
        assert main(["halo", *flags]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and named in captured.err
        assert captured.out == ""


class TestSelectTableCommand:
    @pytest.fixture(scope="class")
    def measurement_file(self, tmp_path_factory):
        output = tmp_path_factory.mktemp("cli") / "m.json"
        main(["measure", "--output", str(output)])
        return output

    def test_contention_free_table(self, measurement_file, capsys):
        code = main([
            "select-table", "--measurement", str(measurement_file),
            "--sizes", "1024", "4096", "--blocks", "1", "8",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "contention-free" in out
        assert "oneshot" in out and "device" in out

    def test_backlog_moves_the_crossover(self, measurement_file, capsys):
        args = ["select-table", "--measurement", str(measurement_file),
                "--sizes", "4096", "--blocks", "1"]
        main(args)
        idle = capsys.readouterr().out
        assert "device" in idle
        main(args + ["--plans", "4"])
        loaded = capsys.readouterr().out
        assert "4 concurrent plans" in loaded
        assert "oneshot" in loaded and "device" not in loaded.splitlines()[-1]

    def test_invalid_arguments_return_error(self, measurement_file, capsys):
        for flags, line in (
            (["--plans", "-1"], "--plans must be non-negative, got -1"),
            (["--sizes", "0"], "--sizes[0] must be positive, got 0"),
            (["--incast", "-1"], "--incast must be non-negative, got -1"),
            (["--link-busy", "-2"], "--link-busy must be non-negative, got -2"),
            (["--sizes", "0", "-4"], "--sizes[0] must be positive, got 0"),
            (["--sizes", "8", "-4"], "--sizes[1] must be positive, got -4"),
            (["--blocks", "1", "0"], "--blocks[1] must be positive, got 0"),
        ):
            _assert_error_line(
                ["select-table", "--measurement", str(measurement_file), *flags], line, capsys
            )

    def test_incast_flips_and_names_the_binding_port(self, measurement_file, capsys):
        """The docs' worked example: a hot receiver flips the 4 KiB cell and
        every loaded cell is annotated with the port that bound it."""
        args = ["select-table", "--measurement", str(measurement_file),
                "--sizes", "4096", "--blocks", "1"]
        main(args + ["--nic", "duplex", "--incast", "4"])
        loaded = capsys.readouterr().out
        assert "ingestion backlog" in loaded
        assert "oneshot/ing" in loaded

    def test_inject_only_ignores_the_receive_side(self, measurement_file, capsys):
        """The PR-4 ablation prices the send side only: --incast is inert and
        the idle table comes back."""
        args = ["select-table", "--measurement", str(measurement_file),
                "--sizes", "4096", "--blocks", "1"]
        main(args)
        idle = capsys.readouterr().out
        main(args + ["--nic", "inject_only", "--incast", "4"])
        ablated = capsys.readouterr().out
        assert "ignored" in ablated
        assert idle.splitlines()[-1] == ablated.splitlines()[-1]

    def test_link_busy_binds_the_link(self, measurement_file, capsys):
        main(["select-table", "--measurement", str(measurement_file),
              "--sizes", "4096", "--blocks", "1", "--link-busy", "4"])
        assert "/lnk" in capsys.readouterr().out


class TestTopoShowCommand:
    def test_invalid_arguments_return_error(self, capsys):
        for flags, line in (
            (["--ranks", "0"], "--ranks must be positive, got 0"),
            (["--size", "-3"], "--size must be positive, got -3"),
        ):
            _assert_error_line(["topo", "show", *flags], line, capsys)


class TestReplayCommand:
    @pytest.mark.parametrize(
        "flags, line",
        [
            (["--runs", "0"], "--runs must be >= 1, got 0"),
            (["--runs", "-2"], "--runs must be >= 1, got -2"),
        ],
        ids=["zero-runs", "negative-runs"],
    )
    def test_invalid_arguments_return_error(self, flags, line, tmp_path, capsys):
        trace = str(tmp_path / "never-read.json")
        _assert_error_line(["replay", trace, *flags], line, capsys)


class TestParser:
    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_command_exits(self):
        with pytest.raises(SystemExit):
            main([])
