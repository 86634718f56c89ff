"""Tests for the command-line front end, run in-process via main()."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import ofdmce
from ofdmce.cli import _MAX_SNR_POINTS, _build_config, _parse_snr_spec, build_parser, main
from ofdmce.harness import CSV_HEADER, ESTIMATOR_IDS, SimConfig, read_csv
from ofdmce.phy import GridConfig


def block_lines(output: str, label: str) -> list[str]:
    """Return one labeled CSV block (header row plus data rows)."""
    lines = output.splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(f"# {label}"))
    block = []
    for line in lines[start + 1 :]:
        if not line.strip():
            break
        block.append(line)
    return block


class TestSnrSpec:
    def test_comma_list(self):
        """Explicit values pass through in order."""
        assert _parse_snr_spec("0,10,25.5") == (0.0, 10.0, 25.5)

    def test_range_inclusive(self):
        """start:step:stop includes the stop when the step lands on it."""
        assert _parse_snr_spec("0:2.5:30") == tuple(i * 2.5 for i in range(13))

    def test_range_stops_short(self):
        """A stop off the step grid is not overshot."""
        assert _parse_snr_spec("0:4:10") == (0.0, 4.0, 8.0)

    def test_single_value(self):
        """A bare number is a one-point list."""
        assert _parse_snr_spec("12.5") == (12.5,)

    def test_bad_specs(self):
        """Malformed ranges are rejected with a clear message."""
        with pytest.raises(ValueError, match="start:step:stop"):
            _parse_snr_spec("0:1")
        with pytest.raises(ValueError, match="positive"):
            _parse_snr_spec("0:-1:10")
        with pytest.raises(ValueError, match="precedes"):
            _parse_snr_spec("10:1:0")

    @pytest.mark.parametrize("spec", ["0:1:inf", "nan:1:5", "0:nan:5", "-inf:1:0"])
    def test_non_finite_range(self, spec):
        """A range with a non-finite part is refused before its points are counted."""
        with pytest.raises(ValueError, match="SNR range must be finite"):
            _parse_snr_spec(spec)

    @pytest.mark.parametrize(
        "spec, count",
        [("0:1e-300:1", "1e+300"), ("-1e308:1e-300:1e308", "inf"), ("0:1:10000", "10001")],
    )
    def test_range_too_long(self, spec, count, tmp_path, capsys):
        """A range above the point limit exits 1 naming its count, before it is built."""
        assert len(_parse_snr_spec(f"0:1:{_MAX_SNR_POINTS - 1}")) == _MAX_SNR_POINTS
        out = tmp_path / "x.csv"
        code = main(["sweep", f"--snr={spec}", "--estimators", "ideal", "--subframes", "1",
                     "--out", str(out)])
        assert code == 1
        assert f"has {count} points, more than {_MAX_SNR_POINTS}" in capsys.readouterr().err
        assert not out.exists()


class TestTopLevel:
    def test_no_subcommand_is_usage_error(self, capsys):
        """Running without a subcommand exits 1."""
        assert main([]) == 1
        assert "error:" in capsys.readouterr().err

    def test_unknown_subcommand(self, capsys):
        """An unknown subcommand exits 1, not argparse's default 2."""
        assert main(["frobnicate"]) == 1

    def test_version_flag(self, capsys):
        """--version prints and exits through argparse."""
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "ofdmce" in capsys.readouterr().out


class TestProfilesCommand:
    def test_builtin_listing(self, capsys):
        """Builtin table lists the 7 merged urban taps and the flat tap."""
        assert main(["profiles"]) == 0
        out = capsys.readouterr().out
        rows = [line for line in out.splitlines() if line.startswith("etu,")]
        delays = [int(row.split(",")[2]) for row in rows]
        assert delays == [0, 1, 2, 4, 12, 18, 38], f"unexpected delays {delays}"
        powers = [float(row.split(",")[3]) for row in rows]
        assert sum(powers) == pytest.approx(1.0, abs=1e-12)
        assert "single-tap,0,0,1" in out

    def test_sample_rate_changes_quantization(self, capsys):
        """Halving the sample rate coarsens the delay grid."""
        assert main(["profiles", "--sample-rate", "3.84e6"]) == 0
        out = capsys.readouterr().out
        delays = [int(r.split(",")[2]) for r in out.splitlines() if r.startswith("etu,")]
        assert delays[-1] == 19, f"5 us tap should round to 19 at 3.84 MHz, got {delays}"


class TestSweepCommand:
    def test_smoke_run(self, tmp_path, capsys):
        """A tiny run writes a two-row CSV and prints per-point lines."""
        out = tmp_path / "smoke.csv"
        code = main(
            ["sweep", "--estimators", "ideal", "--snr", "0,10",
             "--subframes", "2", "--out", str(out)]
        )
        assert code == 0
        records = read_csv(out)
        assert len(records) == 2
        assert [r.snr_db for r in records] == [0.0, 10.0]
        printed = capsys.readouterr().out
        assert printed.count("ideal") >= 2
        assert "crossings" in printed

    def test_negative_first_value_needs_equals_sign(self, tmp_path, capsys):
        """argparse takes "-5,10" for an option; "--snr=-5,10" passes it as the value."""
        out = tmp_path / "neg.csv"
        args = ["--estimators", "ideal", "--subframes", "1", "--out", str(out)]
        assert main(["sweep", "--snr", "-5,10", *args]) == 1
        assert "expected one argument" in capsys.readouterr().err
        assert main(["sweep", "--snr=-5,10", *args]) == 0
        assert "# snr_db = -5.0,10.0" in out.read_text().splitlines()

    def test_embedded_effective_config(self, tmp_path):
        """The CSV starts with the fully resolved configuration."""
        out = tmp_path / "cfg.csv"
        main(["sweep", "--estimators", "ideal", "--snr", "5",
              "--subframes", "1", "--seed", "7", "--out", str(out)])
        lines = out.read_text().splitlines()
        assert lines[0].startswith("# ofdmce ")
        comments = [line for line in lines if line.startswith("#")]
        assert "# seed = 7" in comments
        assert "# estimators = ideal" in comments
        assert "# n_subcarriers = 512" in comments
        assert "# fading = true" in comments

    def test_deterministic_output(self, tmp_path):
        """The same invocation produces byte-identical files."""
        args = ["sweep", "--estimators", "proposed", "--snr", "10",
                "--subframes", "3"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file_with_flag_override(self, tmp_path):
        """Flags beat config-file values; the rest of the file applies."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# smoke configuration\n"
            "snr_db = 5,15\n"
            "subframes = 4\n"
            "estimators = ideal,proposed\n"
            "seed = 99\n"
        )
        out = tmp_path / "out.csv"
        code = main(["sweep", "--config", str(cfg), "--subframes", "2", "--out", str(out)])
        assert code == 0
        records = read_csv(out)
        assert len(records) == 4, f"2 estimators x 2 SNRs expected, got {len(records)}"
        assert records[0].total_bits == 2 * 1792, "flag override should win"
        assert "# seed = 99" in out.read_text()

    def test_bad_config_key(self, tmp_path, capsys):
        """An unknown config key names the file, line, and key."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subfames = 10\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "subfames" in err and ":1:" in err, f"unhelpful message: {err}"

    def test_bad_config_value(self, tmp_path, capsys):
        """A non-integer where an integer is needed exits 1."""
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("subframes = many\n")
        assert main(["sweep", "--config", str(cfg)]) == 1
        assert "subframes" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text, message",
        [
            ("tap = 0 0\ntap = fifty -3\n", ":2: bad tap numbers 'fifty -3'"),
            ("name = no-taps\n", ": profile defines no taps"),
        ],
    )
    def test_malformed_profile_file(self, text, message, tmp_path, capsys):
        """A profile file, named by a config file, with a tap line that is no
        pair of numbers or with no tap line exits 1 naming the file and
        line, and writes no CSV."""
        prof = tmp_path / "bad.prof"
        prof.write_text(text)
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"profile = {prof}\nsubframes = 1\nsnr_db = 20\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {prof}{message}\n"
        assert not out.exists()

    def test_missing_config_file(self, tmp_path, capsys):
        """A nonexistent config path is an I/O error."""
        assert main(["sweep", "--config", str(tmp_path / "nope.cfg")]) == 2

    def test_unwritable_out_fails_before_the_sweep(self, monkeypatch, tmp_path, capsys):
        """An output path in a missing directory exits 2 naming it, and no sweep runs."""

        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran before the output path was checked")

        monkeypatch.setattr(ofdmce.cli, "sweep", no_sweep)
        out = tmp_path / "missing" / "x.csv"
        assert main(["sweep", "--estimators", "ideal", "--snr", "5", "--out", str(out)]) == 2
        assert str(out) in capsys.readouterr().err

    def test_existing_out_is_left_alone_on_failure(self, tmp_path, capsys):
        """Checking an existing output path leaves its contents as they were
        when the sweep then fails."""
        cfg = tmp_path / "short-cp.cfg"
        cfg.write_text("cp_len = 8\nsubframes = 1\nsnr_db = 20\n")
        out = tmp_path / "kept.csv"
        out.write_text("old contents\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        assert out.read_text() == "old contents\n"

    @pytest.mark.parametrize("command", ["sweep", "inspect"])
    def test_empty_profile_name(self, command, monkeypatch, tmp_path, capsys):
        """An empty --profile exits 1 naming profile before any trial is drawn,
        instead of being read as the directory '.'."""

        def no_draw(*args, **kwargs):
            raise AssertionError("a trial was drawn before the profile was checked")

        monkeypatch.setattr(ofdmce.cli, "sweep", no_draw)
        monkeypatch.setattr(ofdmce.cli, "simulate_subframe", no_draw)
        out = tmp_path / "x.csv"
        tail = ["--out", str(out)] if command == "sweep" else []
        assert main([command, "--profile=", *tail]) == 1
        captured = capsys.readouterr()
        assert captured.err == "error: profile must name a builtin profile or a profile file, got ''\n"
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_estimator_id(self, capsys):
        """A bogus estimator id is a configuration error."""
        assert main(["sweep", "--estimators", "wizard", "--snr", "5", "--subframes", "1"]) == 1
        assert "wizard" in capsys.readouterr().err

    def test_worker_flag(self, tmp_path):
        """--workers is accepted and does not change the records."""
        base = ["sweep", "--estimators", "ideal", "--snr", "5", "--subframes", "3"]
        a, b = tmp_path / "w1.csv", tmp_path / "w2.csv"
        assert main(base + ["--workers", "1", "--out", str(a)]) == 0
        assert main(base + ["--workers", "2", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestGridChecks:
    """Grids the frequency-domain receive cannot serve exit 1 before any work."""

    def test_spread_beyond_prefix(self, tmp_path, capsys):
        """ETU spreads over 38 samples at 7.68 MHz, beyond an 8-sample prefix."""
        cfg = tmp_path / "short-cp.cfg"
        cfg.write_text("cp_len = 8\nsubframes = 1\nsnr_db = 20\n")
        out = tmp_path / "x.csv"
        assert main(["sweep", "--config", str(cfg), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "cp_len = 8" in err and "38 samples" in err, f"unhelpful message: {err}"
        assert not out.exists()

    def test_spread_of_the_whole_symbol(self, tmp_path, capsys):
        """A 64-sample spread fits a 64-sample prefix but leaves no tap for a
        64-subcarrier response; ``sweep`` and ``inspect`` refuse it by name."""
        prof = tmp_path / "spread64.txt"
        prof.write_text("tap = 0 0\ntap = 64 -3\n")
        cfg = tmp_path / "whole-symbol.cfg"
        cfg.write_text(
            "n_subcarriers = 64\nn_pilots = 8\ncp_len = 64\nsample_rate_hz = 1e9\n"
            f"th_perfect = 7\nth_inaccurate = 3\nprofile = {prof}\n"
        )
        out = tmp_path / "x.csv"
        for argv in (["sweep", "--estimators", "ideal", "--out", str(out)], ["inspect"]):
            assert main([*argv, "--config", str(cfg)]) == 1
            err = capsys.readouterr().err
            assert "profile spread64 spreads over 64 samples" in err and "n_subcarriers = 64" in err, err
        assert not out.exists()

    def test_no_data_cells(self, tmp_path, capsys):
        cfg = tmp_path / "pilots-only.cfg"
        cfg.write_text("n_pilots = 512\nsubframes = 1\nsnr_db = 20\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert "no data subcarriers" in capsys.readouterr().err


class TestNonFiniteInput:
    """Inputs with no meaningful result exit 1 and name the field."""

    @pytest.mark.parametrize("spec", ["nan", "-inf,10", "inf"])
    def test_snr_flag(self, spec, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", f"--snr={spec}", "--estimators", "ideal", "--subframes", "1",
                     "--out", str(out)])
        assert code == 1
        assert "snr_points_db" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, field",
        [("c = nan", "c must"), ("sample_rate_hz = nan", "sample_rate_hz")],
    )
    def test_config_value(self, line, field, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{line}\nsubframes = 1\nsnr_db = 20\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        assert field in capsys.readouterr().err

    def test_profile_tap(self, tmp_path, capsys):
        prof = tmp_path / "bad.prof"
        prof.write_text("tap = nan 0\n")
        code = main(["sweep", "--profile", str(prof), "--snr", "20", "--subframes", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "delays_ns" in capsys.readouterr().err

    @pytest.mark.parametrize("spec", ["-300.5", "-3080"])
    def test_snr_below_the_floor(self, spec, tmp_path, capsys):
        """A point below -300 dB, where the sweep's sums could overflow, exits
        1 naming the point, in ``sweep`` and in ``inspect``; at -3080 dB
        ``equalize`` used to overflow and count NaN decisions as correct, and
        ``inspect`` printed pilot values near 7e153."""
        out = tmp_path / "x.csv"
        code = main(["sweep", f"--snr={spec}", "--subframes", "1", "--out", str(out)])
        assert code == 1
        assert f"SNR point {float(spec)!r} dB lies below" in capsys.readouterr().err
        assert not out.exists()
        assert main(["inspect", f"--snr={spec}", "--estimator", "proposed"]) == 1
        captured = capsys.readouterr()
        assert f"SNR point {float(spec)!r} dB lies below -300.0 dB" in captured.err
        assert captured.out == ""

    def test_inspect_at_the_floor(self, capsys):
        assert main(["inspect", "--snr", "-300", "--estimator", "proposed"]) == 0
        assert "snr_db = -300," in capsys.readouterr().out

    def test_inspect_snr(self, capsys):
        assert main(["inspect", "--snr", "nan"]) == 1
        assert "snr_db" in capsys.readouterr().err


class TestFlagParseErrors:
    """A flag value that does not parse exits 1 naming the flag, as a config
    file's value names its key."""

    @pytest.mark.parametrize("spec", ["abc", "5,,10", "0:x:10"])
    def test_snr_flag(self, spec, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["sweep", f"--snr={spec}", "--estimators", "ideal", "--subframes", "1",
                     "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err.startswith(
            "error: flag --snr: could not convert string to float"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "source, where, text",
        [
            ("flag", "flag --estimators", "ideal,,proposed"),
            ("flag=", "flag --estimators", "ideal,"),
            ("file", "config key 'estimators'", "ideal,"),
            ("file", "config key 'estimators'", ",proposed"),
        ],
    )
    def test_empty_estimator_id(self, source, where, text, tmp_path, capsys):
        """An empty entry in an estimator list exits 1, as an empty SNR entry
        does, where it was once dropped and the rest run."""
        out = tmp_path / "x.csv"
        if source == "file":
            cfg = tmp_path / "run.cfg"
            cfg.write_text(f"estimators = {text}\n")
            given = ["--config", str(cfg)]
        else:
            given = [f"--estimators={text}"] if source == "flag=" else ["--estimators", text]
        assert main(["sweep", *given, "--snr", "5", "--subframes", "1", "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {where}: empty estimator id in {text!r}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sweep", "inspect"])
    @pytest.mark.parametrize(
        "flag, key, value",
        [
            ("--seed", "seed", "abc"),
            ("--subframes", "subframes", "1.5"),
            ("--c", "c", "x"),
            ("--th-perfect", "th_perfect", "3.0"),
            ("--th-inaccurate", "th_inaccurate", "y"),
        ],
    )
    def test_numeric_flag(self, command, flag, key, value, tmp_path, capsys):
        """A numeric flag that does not parse exits 1 with the message its
        value gives in a config file, under the flag's name instead of the key's."""
        out = tmp_path / "x.csv"
        tail = ["--out", str(out)] if command == "sweep" else []
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main([command, "--config", str(cfg), *tail]) == 1
        in_file = capsys.readouterr().err
        key_prefix = f"error: config key {key!r}: "
        assert in_file.startswith(key_prefix) and repr(value) in in_file, in_file
        assert main([command, flag, value, *tail]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: flag {flag}: {in_file[len(key_prefix):]}"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, flag, value, parse",
        [
            (["inspect"], "--snr", "abc", float),
            (["inspect"], "--trial", "1.5", int),
            (["inspect"], "--symbol", "x", int),
            (["sweep", "--estimators", "ideal", "--subframes", "1"], "--workers", "x", int),
            (["profiles"], "--sample-rate", "x", float),
        ],
    )
    def test_command_flag(self, argv, flag, value, parse, tmp_path, capsys):
        """A command's own flag that does not parse exits 1 with its parse's
        message under the flag's name, printing nothing and writing nothing."""
        out = tmp_path / "x.csv"
        tail = ["--out", str(out)] if argv[0] == "sweep" else []
        assert main([*argv, flag, value, *tail]) == 1
        with pytest.raises(ValueError) as exc:
            parse(value)
        captured = capsys.readouterr()
        assert captured.err == f"error: flag {flag}: {exc.value}\n"
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("targets", ["1e-3,x", "abc", "1e-3,,1e-2"])
    def test_targets_flag(self, targets, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        main(["sweep", "--estimators", "ideal", "--snr", "0,10", "--subframes", "1",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["gaps", "--in", str(out), "--targets", targets]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: flag --targets: could not convert string to float")
        assert captured.out == ""


class TestOverflowingProfile:
    """Profile numbers beyond the sample or power range exit 1 naming the field."""

    pytestmark = pytest.mark.filterwarnings("error")

    def test_profiles_sample_rate(self, capsys):
        """Every builtin profile is built before the table starts, so a
        failing one leaves no partial CSV."""
        assert main(["profiles", "--sample-rate", "1e300"]) == 1
        captured = capsys.readouterr()
        assert "delays_ns" in captured.err and "sample_rate_hz 1e+300" in captured.err
        assert captured.out == ""

    def test_config_sample_rate(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("sample_rate_hz = 1e300\nsubframes = 1\nsnr_db = 20\n")
        assert main(["sweep", "--config", str(cfg), "--out", str(tmp_path / "x.csv")]) == 1
        err = capsys.readouterr().err
        assert "delays_ns" in err and "sample_rate_hz 1e+300" in err

    @pytest.mark.parametrize("tap, field", [("1e30 -3", "delays_ns"), ("0 4000", "powers_db")])
    def test_profile_tap(self, tap, field, tmp_path, capsys):
        prof = tmp_path / "far.prof"
        prof.write_text(f"tap = 0 0\ntap = {tap}\n")
        assert main(["inspect", "--profile", str(prof)]) == 1
        assert field in capsys.readouterr().err

    @pytest.mark.parametrize(
        "taps", [("0 0", "500 -4000"), ("0 3000", "500 -200"), ("0 -4000",)]
    )
    def test_underflowing_profile_tap(self, taps, tmp_path, capsys):
        """A tap power that underflows, as dB to linear or only once
        normalized, or a total that underflows, exits 1 naming
        ``powers_db`` with nothing printed."""
        prof = tmp_path / "faint.prof"
        prof.write_text("".join(f"tap = {tap}\n" for tap in taps))
        assert main(["inspect", "--profile", str(prof)]) == 1
        captured = capsys.readouterr()
        assert "powers_db" in captured.err and captured.out == ""


class TestGapsCommand:
    def test_crossing_report(self, tmp_path, capsys):
        """Gaps read a sweep CSV back and report crossings per estimator."""
        out = tmp_path / "sweep.csv"
        main(["sweep", "--estimators", "ideal", "--snr", "0,5,10,15,20",
              "--subframes", "40", "--out", str(out)])
        capsys.readouterr()
        assert main(["gaps", "--in", str(out), "--targets", "1e-2"]) == 0
        printed = capsys.readouterr().out
        assert "BER 0.01 crossings" in printed
        assert "ideal" in printed

    def test_gap_file_output(self, tmp_path, capsys):
        """--out writes the crossing/gap table."""
        sweep_csv = tmp_path / "sweep.csv"
        main(["sweep", "--estimators", "ideal,proposed", "--snr", "0,10,20",
              "--subframes", "20", "--out", str(sweep_csv)])
        gaps_csv = tmp_path / "gaps.csv"
        assert main(["gaps", "--in", str(sweep_csv), "--targets", "1e-2",
                     "--out", str(gaps_csv)]) == 0
        lines = gaps_csv.read_text().splitlines()
        assert lines[0] == "target_ber,kind,estimator_a,estimator_b,value_db"
        assert any(line.split(",")[1] == "gap" for line in lines[1:])

    def test_missing_input(self, tmp_path):
        """A nonexistent sweep CSV is an I/O error."""
        assert main(["gaps", "--in", str(tmp_path / "none.csv")]) == 2

    @pytest.mark.parametrize("targets", ["nan", "inf", "1e-3,nan"])
    def test_target_that_is_no_probability(self, targets, tmp_path, capsys):
        """A non-finite target exits 1 naming it, and prints no crossing block."""
        out = tmp_path / "sweep.csv"
        main(["sweep", "--estimators", "ideal", "--snr", "0,10", "--subframes", "2",
              "--out", str(out)])
        capsys.readouterr()
        assert main(["gaps", "--in", str(out), "--targets", targets]) == 1
        captured = capsys.readouterr()
        assert f"got {targets.split(',')[-1]}" in captured.err
        assert "crossings" not in captured.out

    def test_repeated_target(self, tmp_path, capsys):
        """A target given twice exits 1 naming it, and prints and writes no crossing."""
        out = tmp_path / "sweep.csv"
        out.write_text(f"{CSV_HEADER}\nideal,10.0,1000,10,0.01,0.0,nan\nideal,20.0,1000,0,0.0,0.0,nan\n")
        gaps_csv = tmp_path / "gaps.csv"
        assert main(["gaps", "--in", str(out), "--targets", "1e-3,1e-3", "--out", str(gaps_csv)]) == 1
        captured = capsys.readouterr()
        assert "target BER 0.001 is given twice" in captured.err
        assert "crossings" not in captured.out
        assert not gaps_csv.exists()

    @pytest.mark.parametrize(
        "row, message",
        [
            ("ideal,15.0,0,0,0.0,0.0,nan", "total_bits must be positive"),
            ("ideal,10.0,1000,10,0.01,0.0,nan", "a second record"),
            ("ideal,nan,1000,10,0.01,0.0,nan", "SNR must be finite"),
            ("ideal,15.0,100,50,0.9,0.0,nan", "BER 0.9 is not bit_errors / total_bits = 0.5"),
            ("ideal,15.0,100,150,1.0,0.0,nan", "bit_errors must lie in [0, 100], got 150"),
            ("ideal,15.0,100,-1,0.0,0.0,nan", "bit_errors must lie in [0, 100], got -1"),
        ],
    )
    def test_record_off_any_curve(self, row, message, tmp_path, capsys):
        """A row that cannot sit on a curve exits 1 naming it, and prints no crossing block."""
        out = tmp_path / "sweep.csv"
        out.write_text(f"{CSV_HEADER}\nideal,10.0,1000,10,0.01,0.0,nan\nideal,20.0,1000,0,0.0,0.0,nan\n{row}\n")
        assert main(["gaps", "--in", str(out)]) == 1
        captured = capsys.readouterr()
        assert f"record ideal at snr_db {row.split(',')[1]}: {message}" in captured.err
        assert "crossings" not in captured.out

    def test_header_only_input(self, tmp_path, capsys):
        """A CSV with a header and no rows reads as no records, and gaps on it
        exits 1 naming the file, with no crossing block printed."""
        empty = tmp_path / "empty.csv"
        empty.write_text(f"# ofdmce {ofdmce.__version__}\n{CSV_HEADER}\n")
        assert read_csv(empty) == []
        assert main(["gaps", "--in", str(empty)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {empty}: no records below the header\n"
        assert captured.out == ""

    def test_malformed_input(self, tmp_path):
        """A CSV with the wrong schema is a data error, exit 1."""
        bad = tmp_path / "bad.csv"
        bad.write_text("a,b\n1,2\n")
        assert main(["gaps", "--in", str(bad)]) == 1

    @pytest.mark.parametrize(
        "row", ["ideal,abc,10,1,0.1,0.1,nan", "ideal,10.0,1.5,1,0.1,0.1,nan", "ideal,10.0,10,1,0.1,0.1"]
    )
    def test_row_that_does_not_parse(self, row, tmp_path, capsys):
        """A field that does not parse, or a missing one, exits 1 naming the file and the row."""
        bad = tmp_path / "bad.csv"
        bad.write_text(f"{CSV_HEADER}\n{row}\n")
        assert main(["gaps", "--in", str(bad)]) == 1
        captured = capsys.readouterr()
        assert f"{bad}: malformed row {row!r}" in captured.err
        assert "crossings" not in captured.out


class TestInspectCommand:
    def test_noiseless_noise_positions(self, capsys):
        """Without noise, every interleave noise position prints as ~zero."""
        assert main(["inspect", "--trial", "3"]) == 0
        out = capsys.readouterr().out
        rows = block_lines(out, "stacked-cir")[1:]
        noise_rows = [r for r in rows if int(r.split(",")[2]) > 0]
        assert len(noise_rows) == 64
        worst = max(
            max(abs(float(r.split(",")[3])), abs(float(r.split(",")[4]))) for r in noise_rows
        )
        assert worst <= 1e-12, f"noise positions should vanish, worst {worst}"

    def test_noiseless_estimate_matches_truth(self, capsys):
        """The printed final estimate reproduces the genie column."""
        assert main(["inspect", "--trial", "5"]) == 0
        out = capsys.readouterr().out
        rows = block_lines(out, "estimate-vs-truth")[1:]
        assert len(rows) == 512
        worst = 0.0
        for row in rows:
            _, er, ei, tr, ti = (float(x) for x in row.split(","))
            worst = max(worst, math.hypot(er - tr, ei - ti))
        assert worst <= 1e-9, f"estimate should match truth, worst {worst}"

    def test_understated_threshold_zeroes_tail(self, capsys):
        """The short-threshold scheme prints zeros from index 19 on."""
        assert main(["inspect", "--estimator", "conv-inaccurate", "--snr", "20",
                     "--trial", "2"]) == 0
        out = capsys.readouterr().out
        rows = block_lines(out, "post-threshold-cir")[1:]
        assert len(rows) == 64
        tail = [r for r in rows if int(r.split(",")[0]) >= 19]
        worst = max(
            max(abs(float(r.split(",")[1])), abs(float(r.split(",")[2]))) for r in tail
        )
        assert worst == 0.0, f"tail should be exactly zeroed, worst {worst}"

    def test_noise_variance_block_schemes(self, capsys):
        """Both read-off schemes appear with their sample counts."""
        assert main(["inspect", "--snr", "10"]) == 0
        out = capsys.readouterr().out
        rows = block_lines(out, "noise-variance")[1:]
        schemes = {r.split(",")[0] for r in rows}
        assert schemes == {"multi-symbol", "conventional-th39", "conventional-th19"}
        counts = {r.split(",")[0]: r.split(",")[2] for r in rows}
        assert counts == {"multi-symbol": "64", "conventional-th39": "25", "conventional-th19": "45"}

    @pytest.mark.parametrize(
        "listed, message",
        [
            ("wizard", "unknown estimators ['wizard']; known ids are"),
            ("ideal,proposed,ideal", "estimator list contains duplicates"),
        ],
    )
    def test_config_estimator_ids_are_checked(self, listed, message, tmp_path, capsys):
        """inspect shows its one --estimator, but an unknown or repeated id in
        the config file's estimator list exits 1 naming the key, where it was
        once replaced unchecked."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"estimators = {listed}\n")
        assert main(["inspect", "--config", str(cfg), "--estimator", "ideal", "--snr", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: config key 'estimators': {message}")
        assert captured.out == ""

    def test_config_estimators_need_not_fit_the_grid(self, tmp_path, capsys):
        """Only the shown estimator must fit the grid: a listed ``proposed``
        on one symbol per block leaves ``inspect --estimator ideal`` running."""
        cfg = tmp_path / "run.cfg"
        cfg.write_text("estimators = proposed\nn_symbols = 1\n")
        assert main(["inspect", "--config", str(cfg), "--estimator", "ideal", "--snr", "20"]) == 0
        assert "estimate-vs-truth" in capsys.readouterr().out

    @pytest.mark.parametrize("estimator", ESTIMATOR_IDS)
    def test_every_subcarrier_a_pilot(self, estimator, tmp_path, capsys):
        """With pilot spacing 1 there are no data cells; each estimator still
        prints its whole estimate, ``ls-only`` the least-squares pilots themselves."""
        cfg = tmp_path / "dense.cfg"
        cfg.write_text("n_pilots = 512\n")
        argv = ["inspect", "--config", str(cfg), "--snr", "20", "--trial", "3"]
        assert main([*argv, "--estimator", estimator]) == 0
        out = capsys.readouterr().out
        rows = [row.split(",") for row in block_lines(out, "estimate-vs-truth")[1:]]
        assert len(rows) == 512
        if estimator == "ideal":
            assert all(row[1:3] == row[3:] for row in rows)
        if estimator == "ls-only":
            pilot_ls = [row.split(",")[1:3] for row in block_lines(out, "pilot-ls")[1:]]
            assert [row[1:3] for row in rows] == pilot_ls

    @pytest.mark.parametrize("estimator", ["ideal", "ls-only"])
    def test_estimators_without_cir_print_their_estimate(self, estimator, capsys):
        """Estimators with no denoised CIR skip that block but print the estimate."""
        assert main(["inspect", "--estimator", estimator, "--symbol", "1"]) == 0
        out = capsys.readouterr().out
        assert "# post-threshold-cir" not in out
        rows = block_lines(out, "estimate-vs-truth")[1:]
        assert len(rows) == 512
        values = [[float(x) for x in row.split(",")[1:]] for row in rows]
        # Without noise both are exact on pilot subcarrier 8; the
        # nearest-pilot fill copies it to subcarrier 9.
        er, ei, tr, ti = values[8]
        assert math.hypot(er - tr, ei - ti) <= 1e-9
        if estimator == "ls-only":
            assert values[9][:2] == values[8][:2]
        else:
            assert all(row[:2] == row[2:] for row in values), "genie must print the truth"

    def test_single_symbol_grid(self, tmp_path, capsys):
        """One symbol per block: per-symbol estimators inspect, without the stacked blocks."""
        cfg = tmp_path / "one-symbol.cfg"
        cfg.write_text("n_symbols = 1\n")
        assert main(["inspect", "--config", str(cfg), "--estimator", "conv-perfect"]) == 0
        out = capsys.readouterr().out
        assert "# stacked-cir:" not in out
        assert "# stacked-cir and multi-symbol noise variance skipped" in out
        rows = block_lines(out, "noise-variance")[1:]
        assert {r.split(",")[0] for r in rows} == {"conventional-th39", "conventional-th19"}
        assert len(block_lines(out, "estimate-vs-truth")[1:]) == 512
        assert main(["inspect", "--config", str(cfg), "--estimator", "proposed"]) == 1
        assert "proposed estimator needs at least 2 symbols" in capsys.readouterr().err

    def test_symbol_out_of_range(self, capsys):
        """Asking for a symbol the grid does not have exits 1."""
        assert main(["inspect", "--symbol", "5"]) == 1
        assert "symbol" in capsys.readouterr().err

    def test_negative_trial(self, capsys):
        """A negative trial index exits 1 naming the field."""
        assert main(["inspect", "--trial", "-1"]) == 1
        assert "trial must be nonnegative, got -1" in capsys.readouterr().err


def random_config(rng: np.random.Generator) -> SimConfig:
    """A random valid configuration that sweeps in milliseconds."""
    n = int(2 ** rng.integers(4, 8))
    n_symbols = int(rng.integers(1, 4))
    if rng.random() < 0.5:
        profile, sample_rate, cp_len = "etu", rng.uniform(0.5e6, 1.92e6), rng.integers(10, 17)
    else:
        profile, sample_rate, cp_len = "single-tap", rng.uniform(1e6, 5e7), rng.integers(0, 17)
    grid = GridConfig(n, int(2 ** rng.integers(1, math.log2(n))), n_symbols, int(cp_len))
    usable = [e for e in ESTIMATOR_IDS if n_symbols >= 2 or e != "proposed"]
    estimators = rng.permutation(usable)[: rng.integers(1, len(usable) + 1)]
    return SimConfig(
        grid=grid,
        profile=profile,
        sample_rate_hz=float(sample_rate),
        snr_points_db=tuple(np.unique(rng.uniform(-10.0, 40.0, rng.integers(1, 5))).tolist()),
        subframes_per_point=int(rng.integers(1, 3)),
        estimators=tuple(str(e) for e in estimators),
        master_seed=int(rng.integers(0, 2**40)),
        c=float(rng.uniform(0.1, 5.0)),
        th_perfect=int(rng.integers(0, grid.n_pilots)),
        th_inaccurate=int(rng.integers(0, grid.n_pilots)),
        fading=bool(rng.random() < 0.5),
    )


def config_values(config: SimConfig) -> dict[str, str]:
    """Every config key of ``config`` as the text a user would write."""
    grid = config.grid
    return {
        "n_subcarriers": str(grid.n_subcarriers),
        "n_pilots": str(grid.n_pilots),
        "n_symbols": str(grid.n_symbols),
        "cp_len": str(grid.cp_len),
        "profile": config.profile,
        "sample_rate_hz": repr(config.sample_rate_hz),
        "snr_db": ",".join(repr(s) for s in config.snr_points_db),
        "subframes": str(config.subframes_per_point),
        "estimators": ",".join(config.estimators),
        "seed": str(config.master_seed),
        "c": repr(config.c),
        "th_perfect": str(config.th_perfect),
        "th_inaccurate": str(config.th_inaccurate),
        "fading": "yes" if config.fading else "off",
    }


# The sweep flag that overrides each config key, where there is one.
FLAGS = {
    "profile": "--profile", "snr_db": "--snr", "subframes": "--subframes",
    "estimators": "--estimators", "seed": "--seed", "c": "--c",
    "th_perfect": "--th-perfect", "th_inaccurate": "--th-inaccurate",
}


# Config lines and flags that no command can run with.
BAD_LINES = [
    "frobnicate = 1", "just words", "seed =", "= 3", "seed = abc", "n_pilots = 1.5",
    "n_subcarriers = 100", "n_symbols = 0", "cp_len = -1", "snr_db = 0:1:inf",
    "snr_db = nan:1:5", "snr_db = 1:2", "snr_db = 5,1", "snr_db = ,", "c = nan", "c = -1",
    "fading = maybe", "seed = -3", "subframes = 0", "th_perfect = 1e9", "sample_rate_hz = inf",
    "profile = \x00", "profile = no-such-profile.txt",
]
BAD_FLAGS = [
    ["--snr", "0:1:inf"], ["--snr", "nan"], ["--subframes", "x"], ["--seed", "-1"],
    ["--c", "inf"], ["--th-perfect", "-2"], ["--profile", "no-such-profile.txt"],
    ["--config", "no-such-config.cfg"], ["--bogus"],
]
JUNK_VALUES = ["", "nan", "inf", "-1", "0", "1", "2", "16", "1.5", "abc", "1e999", "0:5:10",
               "5:1:0", "true", "0x10", "é", "etu", "ideal,proposed", "10,20", "#", "="]


class TestConfigProperties:
    """Properties over seeded random configurations and junk inputs."""

    def test_csv_header_rebuilds_the_config(self, tmp_path, capsys):
        """Fed back as --config, a sweep CSV's ``# key = value`` header gives an equal config.

        Each case writes a random config's values as a file, with a random
        subset moved onto flags over a decoy value in the file, so the
        config the sweep ran with is known independently of the parser.
        """
        rng = np.random.default_rng(606)
        parser = build_parser()
        for case in range(20):
            config, decoy = random_config(rng), random_config(rng)
            lines, flags = [], []
            for key, value in config_values(config).items():
                flag = FLAGS.get(key)
                if flag is not None and rng.random() < 0.5:
                    flags.append(f"{flag}={value}")
                    value = config_values(decoy)[key]
                lines.append(f"{key} = {value}")
            cfg = tmp_path / f"case{case}.cfg"
            cfg.write_text("\n".join(rng.permutation(lines)) + "\n")
            argv = ["sweep", "--config", str(cfg), *flags]
            assert _build_config(parser.parse_args(argv)) == config, f"case {case}"
            out = tmp_path / f"case{case}.csv"
            assert main([*argv, "--workers", "1", "--out", str(out)]) == 0, capsys.readouterr().err
            header = [line[2:] for line in out.read_text().splitlines()
                      if line.startswith("# ") and " = " in line]
            cfg.write_text("\n".join(header) + "\n")
            rebuilt = _build_config(parser.parse_args(["sweep", "--config", str(cfg)]))
            assert rebuilt == config, f"case {case}: {header}"

    def test_junk_exits_with_a_code(self, tmp_path, capsys):
        """Junk config lines and flags make main return 1 or 2, never raise."""
        rng = np.random.default_rng(707)
        keys = ["n_subcarriers", "n_pilots", "n_symbols", "cp_len", "profile", "sample_rate_hz",
                "snr_db", "subframes", "estimators", "seed", "c", "th_perfect", "th_inaccurate",
                "fading", "unknown"]
        def pick(options):
            return options[rng.integers(len(options))]

        for case in range(60):
            lines = [f"{pick(keys)} = {pick(JUNK_VALUES)}" for _ in range(rng.integers(0, 4))]
            flags = []
            for _ in range(rng.integers(1, 3)):
                if rng.random() < 0.5:
                    lines.insert(rng.integers(len(lines) + 1), pick(BAD_LINES))
                else:
                    flags += pick(BAD_FLAGS)
            cfg = tmp_path / f"junk{case}.cfg"
            cfg.write_text("\n".join(lines) + "\n")
            argv = [pick(["sweep", "inspect"]), "--config", str(cfg), *flags]
            if argv[0] == "sweep":
                argv += ["--workers", "1", "--out", str(tmp_path / "junk.csv")]
            code = main(argv)
            capsys.readouterr()
            assert code in (1, 2), f"{argv} with {lines} returned {code}"


class TestEntryPoint:
    @pytest.mark.parametrize("preset, seen", [(None, "1"), ("3", "3")])
    def test_openblas_threads_default(self, preset, seen):
        """The entry point defaults OPENBLAS_NUM_THREADS to 1 and keeps a value already set.

        The default only takes effect if numpy is not yet imported, so the
        package root must not import it.
        """
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
        if preset is not None:
            env["OPENBLAS_NUM_THREADS"] = preset
        src = str(Path(ofdmce.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join([src, env.get("PYTHONPATH", "")])
        child = (
            "import os, sys\n"
            "import ofdmce\n"
            "assert 'numpy' not in sys.modules, 'the package root imports numpy'\n"
            "import ofdmce.__main__\n"
            "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", child], env=env, capture_output=True, text=True, timeout=60
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == seen
