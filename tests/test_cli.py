"""Command line behavior: exit codes, config merging, deterministic output."""

import contextlib
import csv
import io
import json
import math
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import semiclab
import semiclab.microlocal as microlocal
from semiclab.cli import OPTIONS, _parse_bool, _resolve, build_parser, main
from semiclab.experiments import ScanResult, ScanRow, scan_from_csv, scan_to_csv
from semiclab.scenarios import SCENARIOS, Check, _report


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
    def test_every_documented_exit_code_occurs(self, capsys, tmp_path, monkeypatch):
        failing = _report("failing", [Check("c", False, 0.0, "never")], {})
        monkeypatch.setitem(SCENARIOS, "failing", lambda: failing)
        # two barrier tops share the level 4/27, so a critical law is refused
        scan_csv = tmp_path / "two-max.csv"
        assert main(["scan", "--model", "two-max", "--ecenter", "0.14814814814814814",
                     "--h-from", "0.1", "--h-to", "0.005", "--h-steps", "8",
                     "--out", str(scan_csv)]) == 0
        table = [
            (["models", "list"], 0, ""),
            (["fit", "--in", str(scan_csv), "--law", "auto"], 0, ""),
            (["scenario", "run", "failing"], 1, "scenario failing failed: c"),
            (["fit", "--in", str(scan_csv), "--law", "critical"], 2,
             "two-max at E=0.148148: isolated-critical-point"),
            (["fit", "--in", str(scan_csv), "--law", "regular"], 2, "isolated-critical-point"),
            (["spectrum", "--model", "harmonic", "--h", "1e-9"], 3, "> 4194304 points"),
            (["spectrum", "--model", "nope", "--h", "0.1"], 4, "unknown model"),
        ]
        for argv, expected, fragment in table:
            code, _, err = run_cli(capsys, argv)
            assert code == expected, (argv, err)
            if code:
                assert err.startswith("semiclab: ") and err.count("\n") == 1, (argv, err)
                assert fragment in err, (argv, err)
            else:
                assert err == "", argv

    def test_malformed_observable_is_a_config_error(self, capsys):
        code, _, err = run_cli(capsys, [
            "measure", "--model", "quad-max", "--h", "0.05", "--obs", "x^"])
        assert code == 4
        assert "offset 2" in err

    def test_unknown_model(self, capsys):
        code, _, err = run_cli(capsys, [
            "scan", "--model", "nope", "--h-from", "0.1", "--h-to", "0.05",
            "--h-steps", "3"])
        assert code == 4
        assert "unknown model" in err

    def test_unknown_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 4

    def test_no_subcommand(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 4

    def test_missing_required_option(self, capsys):
        code, _, err = run_cli(capsys, ["spectrum", "--model", "harmonic"])
        assert code == 4
        assert "h" in err

    def test_unknown_scenario(self, capsys):
        code, _, err = run_cli(capsys, ["scenario", "run", "no-such-thing"])
        assert code == 4
        assert "harmonic-weyl" in err

    def test_critical_energy_refused_without_flag(self, capsys):
        code, _, _ = run_cli(capsys, [
            "liouville", "--model", "quad-max", "--obs", "1",
            "--energy", "0.0"])
        assert code == 4

    @pytest.mark.parametrize("command", [
        ["scan", "--h-from", "0.1", "--h-to", "0.05", "--h-steps", "2"],
        ["spectrum", "--h", "0.05"]])
    def test_ppw_refused_for_phase_models(self, capsys, tmp_path, command):
        # a split grid is sized from the symbol, so a ppw would be echoed unused
        conf = tmp_path / "opts.conf"
        conf.write_text("ppw=8\n")
        for source in (["--ppw", "8"], ["--config", str(conf)]):
            code, out, err = run_cli(capsys, [*command, "--model", "pseudo-k3", *source])
            assert code == 4 and out == ""
            assert err.startswith("semiclab:") and err.count("\n") == 1
            assert "sized from the symbol" in err
        code, out, _ = run_cli(capsys, [*command, "--model", "pseudo-k3"])
        assert code == 0 and "# ppw=64\n" in out

    @pytest.mark.parametrize("command, key, value", [
        (["scan", "--h-from", "0.1", "--h-to", "0.05", "--h-steps", "2"], "ecenter", "inf"),
        (["spectrum", "--h", "0.05"], "ecenter", "nan"),
        (["measure", "--h", "0.05", "--obs", "x"], "ecenter", "inf"),
        (["liouville", "--obs", "1"], "energy", "inf"),
        (["liouville", "--obs", "1"], "energy", "nan")])
    def test_non_finite_float_refused(self, capsys, tmp_path, command, key, value):
        conf = tmp_path / "opts.conf"
        conf.write_text(f"{key}={value}\n")
        for source in ([f"--{key}", value], ["--config", str(conf)]):
            code, out, err = run_cli(capsys, [*command, "--model", "quad-max", *source])
            assert code == 4 and out == ""
            assert err == f"semiclab: option {key!r} must be finite, got {value}\n"


    @pytest.mark.parametrize("argv", [
        ["measure", "--model", "harmonic", "--h", "0.05", "--obs", "x"],
        ["scan", "--model", "harmonic", "--h-from", "0.1", "--h-to", "0.05",
         "--h-steps", "2"],
        ["measure", "--model", "radial-deg", "--h", "0.05", "--obs", "x",
         "--ecenter", "1"]])
    def test_collapsed_window_is_a_config_error(self, capsys, argv):
        # d*h = 5e-302 is below the floating-point spacing at E = 1
        code, out, err = run_cli(capsys, [*argv, "--d", "1e-300"])
        assert code == 4 and out == ""
        assert err.startswith("semiclab: energy window") and err.count("\n") == 1

    @pytest.mark.parametrize("energy", ["145", "1e308"])
    def test_liouville_beyond_the_search_region(self, capsys, energy):
        # once 2.9753 at E = 145 and 2.4e-153 at 1e308, each with divergent: false
        code, out, err = run_cli(capsys, ["liouville", "--model", "harmonic", "--obs", "1",
                                          "--energy", energy])
        assert code == 3 and out == ""
        assert "search edge" in err and err.count("\n") == 1

    @pytest.mark.parametrize("argv, expected", [
        (["--model", "harmonic", "--h", "1e-300"], 4),  # the window collapses first
        (["--model", "quad-max", "--h", "1e-300"], 3),
        (["--model", "radial-deg", "--h", "1e-300"], 3),
        (["--model", "pseudo-k3", "--h", "1e-300"], 3),
        (["--model", "harmonic", "--h", "0.05", "--n", str(10**12), "--box", "0,1"], 4)])
    def test_oversized_grid_refused_before_allocation(self, capsys, argv, expected):
        code, out, err = run_cli(capsys, ["spectrum", *argv])
        assert code == expected and out == ""
        assert err.startswith("semiclab:") and err.count("\n") == 1

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        # dx^2 underflows to zero
        ["--model", "harmonic", "--h", "0.5", "--n", "16", "--box=0,1e-300"],
        # h^2 / dx^2 overflows
        ["--model", "harmonic", "--h", "0.5", "--n", "16", "--box=0,1e-160"],
        # the split grid's momenta overflow the symbol
        ["--model", "pseudo-k3", "--h", "0.05", "--n", "64", "--box=0,1e-150"]])
    def test_grid_with_a_non_finite_operator_is_a_numerical_error(self, capsys, argv):
        code, out, err = run_cli(capsys, ["spectrum", *argv])
        assert code == 3 and out == ""
        assert err.startswith("semiclab: operator is not finite") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, echo", [
        (["spectrum", "--model", "harmonic", "--h", "0.1", "--ecenter", "-1e-3"],
         "# ecenter=-0.001\n"),
        (["spectrum", "--model", "harmonic", "--h", "0.01", "--n", "2000", "--box", "-3,3"],
         "# box=-3,3\n"),
        (["liouville", "--model", "quad-max", "--obs", "x^2", "--energy", "-0.5e-1"],
         '"energy": -0.05,')])
    def test_negative_values_after_a_flag(self, capsys, argv, echo):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and echo in out

    @pytest.mark.parametrize("argv, value", [
        (["measure", "--model", "harmonic", "--h", "0.05"], "-x^2"),
        (["scan", "--model", "harmonic", "--h-from", "0.1", "--h-to", "0.05",
          "--h-steps", "2"], "-x^2,x"),
        (["liouville", "--model", "harmonic", "--energy", "1"], "-exp(-x^2)")],
        ids=["measure", "scan", "liouville"])
    def test_observable_with_a_leading_sign_after_the_flag(self, capsys, argv, value):
        spaced = run_cli(capsys, [*argv, "--obs", value])
        assert spaced[0] == 0 and spaced == run_cli(capsys, [*argv, f"--obs={value}"])
        # -h is still the help option
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "-h"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: semiclab {argv[0]}")

    @pytest.mark.parametrize("argv", [
        ["models", "list"],
        ["spectrum", "--model", "harmonic", "--h", "0.05"],
        ["measure", "--model", "harmonic", "--h", "0.05", "--obs", "x^2"],
        ["liouville", "--model", "harmonic", "--obs", "x^2", "--energy", "1"],
        ["scan", "--model", "harmonic", "--h-from", "0.1", "--h-to", "0.05", "--h-steps", "2"],
        ["fit", "--in", "SCAN"],
        ["scenario", "run", "passing"]], ids=lambda argv: argv[0])
    def test_unwritable_out_is_a_config_error(self, capsys, tmp_path, monkeypatch, argv):
        passing = _report("passing", [Check("c", True, 0.0, "always")], {})
        monkeypatch.setitem(SCENARIOS, "passing", lambda: passing)
        scan_csv = tmp_path / "scan.csv"
        scan_csv.write_text(_valid_scan())
        out_path = tmp_path / "missing" / "out.txt"
        argv = [str(scan_csv) if a == "SCAN" else a for a in argv]
        code, out, err = run_cli(capsys, [*argv, "--out", str(out_path)])
        assert (code, out) == (4, "")
        assert err.startswith(f"semiclab: cannot write {out_path}: ") and err.count("\n") == 1


class TestConfigFile:
    def test_file_supplies_options(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model=harmonic\nh=0.04\necenter=1.0\nppw=160\n")
        code, out, _ = run_cli(capsys, ["spectrum", "--config", str(conf)])
        assert code == 0
        assert "# model=harmonic" in out
        assert "# h=0.04" in out

    def test_flags_override_file(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model=harmonic\nh=0.04\necenter=1.0\n")
        code, out, _ = run_cli(capsys, [
            "spectrum", "--config", str(conf), "--h", "0.02"])
        assert code == 0
        assert "# h=0.02" in out

    def test_unknown_key_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model=harmonic\nh=0.04\nwat=1\n")
        code, _, err = run_cli(capsys, ["spectrum", "--config", str(conf)])
        assert code == 4
        assert "wat" in err

    def test_malformed_line_rejected(self, capsys, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("model harmonic\n")
        code, _, err = run_cli(capsys, ["spectrum", "--config", str(conf)])
        assert code == 4
        assert "key=value" in err


def _sample(opt) -> str:
    """A value of the option's type that differs from its default."""
    if opt.type is _parse_bool:
        return "true"
    if opt.choices:
        return next(c for c in opt.choices if c != opt.default)
    return {float: "0.25", int: "3", str: "abc"}[opt.type]


def _flags(pairs) -> list[str]:
    argv = []
    for opt, value in pairs:
        argv.append("--" + opt.key.replace("_", "-"))
        if opt.type is not _parse_bool:
            argv.append(value)
    return argv


class TestOptionTable:
    """Each table option is one flag and one config key with one type."""

    def test_table_covers_the_option_commands(self):
        assert set(OPTIONS) == {"spectrum", "measure", "liouville", "scan", "fit"}

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_flag_and_config_key_agree(self, command, tmp_path):
        parser = build_parser()
        conf = tmp_path / "opts.conf"
        required = [o for o in OPTIONS[command] if o.required]
        for opt in OPTIONS[command]:
            pairs = [(o, _sample(o)) for o in required if o is not opt] + [(opt, _sample(opt))]
            conf.write_text("".join(f"{o.key}={v}\n" for o, v in pairs))
            via_file = _resolve(parser.parse_args([command, "--config", str(conf)]))
            conf.write_text("")
            via_flag = _resolve(parser.parse_args([command, *_flags(pairs), "--config", str(conf)]))
            expected = opt.type(_sample(opt))
            assert expected != opt.default
            for got in (via_flag[opt.key], via_file[opt.key]):
                assert got == expected and type(got) is type(expected), (command, opt.key)
            assert via_flag == via_file

    @pytest.mark.parametrize("command,opt", [
        (c, o) for c in sorted(OPTIONS) for o in OPTIONS[c] if o.choices])
    def test_bad_choice_exits_4_from_either_source(self, capsys, tmp_path, command, opt):
        required = [(o, _sample(o)) for o in OPTIONS[command] if o.required]
        conf = tmp_path / "opts.conf"
        conf.write_text(f"{opt.key}=nope\n")
        for argv in ([*_flags(required), "--" + opt.key, "nope"],
                     [*_flags(required), "--config", str(conf)]):
            code, _, err = run_cli(capsys, [command, *argv])
            assert code == 4
            assert "must be one of" in err and "nope" in err
        with pytest.raises(SystemExit):
            main([command, "--help"])
        assert "{" + ",".join(opt.choices) + "}" in capsys.readouterr().out


class TestModels:
    def test_list_covers_catalog(self, capsys):
        code, out, _ = run_cli(capsys, ["models", "list"])
        assert code == 0
        for name in ("harmonic", "deg-max", "quad-max", "quad-max-steep",
                     "two-max", "radial-deg", "pseudo-k3", "pseudo-k4"):
            assert name in out
        assert "E_c=" in out


class TestSpectrum:
    def test_csv_shape_and_echo(self, capsys):
        code, out, _ = run_cli(capsys, [
            "spectrum", "--model", "harmonic", "--h", "0.04",
            "--ecenter", "1.0", "--ppw", "160"])
        assert code == 0
        lines = out.strip().splitlines()
        assert "# command=spectrum" in lines
        header = next(l for l in lines if not l.startswith("#"))
        assert header == "j,eigenvalue"
        data = [l for l in lines if not l.startswith("#")][1:]
        assert len(data) == 5
        eigs = [float(l.split(",")[1]) for l in data]
        for j, lam in enumerate(eigs):
            assert lam == pytest.approx((2 * j + 21) * 0.04, rel=1e-3)

    def test_deterministic_bytes(self, capsys, tmp_path):
        argv = ["spectrum", "--model", "quad-max", "--h", "0.05"]
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(argv + ["--out", str(f1)]) == 0
        assert main(argv + ["--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()

    def test_radial_rows_carry_channel_index(self, capsys):
        code, out, _ = run_cli(capsys, [
            "spectrum", "--model", "radial-deg", "--h", "0.05"])
        assert code == 0
        lines = [l for l in out.strip().splitlines() if not l.startswith("#")]
        assert lines[0] == "m,weight,j,eigenvalue"
        assert len(lines) > 1

    def test_radial_grid_below_the_resolution_floor(self, capsys):
        # ppw = 1 once solved every channel on a 16-row grid
        code, out, err = run_cli(capsys, [
            "spectrum", "--model", "radial-deg", "--h", "0.05", "--ppw", "1"])
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert "resolution policy" in err

    def test_grid_override_needs_both_flags(self, capsys):
        code, _, err = run_cli(capsys, [
            "spectrum", "--model", "harmonic", "--h", "0.04", "--n", "512"])
        assert code == 4
        assert "box" in err

    @pytest.mark.parametrize("extra", [["--n", "512"], ["--n", "512", "--box", "0,3"]])
    def test_radial_refuses_grid_override(self, capsys, extra):
        code, _, err = run_cli(capsys, [
            "spectrum", "--model", "radial-deg", "--h", "0.05", *extra])
        assert code == 4
        assert "1d models only" in err


class TestMeasure:
    def test_json_config_echo_and_records(self, capsys):
        code, out, _ = run_cli(capsys, [
            "measure", "--model", "quad-max", "--h", "0.05",
            "--obs", "exp(-x^2-xi^2)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["config"]["command"] == "measure"
        assert payload["config"]["model"] == "quad-max"
        assert payload["config"]["quantization"] == "both"
        assert payload["records"]
        rec = payload["records"][0]
        assert {"nu_weyl", "nu_antiwick", "gap", "eigenvalue"} <= set(rec)

    def test_quantization_filter(self, capsys):
        code, out, _ = run_cli(capsys, [
            "measure", "--model", "quad-max", "--h", "0.05",
            "--obs", "x^2", "--quantization", "weyl"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert "nu_weyl" in rec and "nu_antiwick" not in rec

    def test_radial_rejects_phase_space_observables(self, capsys):
        code, _, err = run_cli(capsys, [
            "measure", "--model", "radial-deg", "--h", "0.05",
            "--obs", "xi^2"])
        assert code == 4
        assert "xi" in err

    def test_weyl_route_needs_no_antiwick_frame(self, capsys, monkeypatch):
        # a mass floor above 1 makes every coherent frame refuse; only the
        # routes that are reported may run into it
        monkeypatch.setattr("semiclab.microlocal.MASS_FLOOR", 1.5)
        argv = ["measure", "--model", "quad-max", "--h", "0.05", "--obs", "exp(-x^2-xi^2)"]
        code, out, _ = run_cli(capsys, argv + ["--quantization", "weyl"])
        assert code == 0
        records = json.loads(out)["records"]
        assert records and all(set(r) == {"j", "eigenvalue", "method", "nu_weyl"}
                               for r in records)
        for quant in ("antiwick", "both"):
            code, _, err = run_cli(capsys, argv + ["--quantization", quant])
            assert code == 3 and "Husimi mass" in err

    def test_both_routes_share_one_antiwick_batch(self, capsys, monkeypatch):
        # past the dense cap the Weyl column is the anti-Wick reference; both
        # columns come from one batch, and the output is byte for byte the
        # merge of the two single-route outputs
        monkeypatch.setattr(microlocal, "DENSE_CAP", 64)
        calls = []
        batch = microlocal.antiwick_batch
        monkeypatch.setattr(microlocal, "antiwick_batch",
                            lambda *args: calls.append(args) or batch(*args))
        argv = ["measure", "--model", "quad-max", "--h", "0.05", "--obs", "exp(-x^2-xi^2)"]
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and len(calls) == 1
        weyl = json.loads(run_cli(capsys, argv + ["--quantization", "weyl"])[1])
        aw = json.loads(run_cli(capsys, argv + ["--quantization", "antiwick"])[1])
        records = [{**a, **w, "gap": abs(w["nu_weyl"] - a["nu_antiwick"])}
                   for w, a in zip(weyl["records"], aw["records"])]
        assert records[0]["method"] == "antiwick-reference"
        expected = {"config": {**weyl["config"], "quantization": "both"}, "records": records,
                    "upsilon": weyl["upsilon"]}
        assert out == json.dumps(expected, sort_keys=True, indent=2) + "\n"

    def test_antiwick_route_reports_its_own_method(self, capsys):
        code, out, _ = run_cli(capsys, [
            "measure", "--model", "quad-max", "--h", "0.05",
            "--obs", "exp(-x^2-xi^2)", "--quantization", "antiwick"])
        assert code == 0
        rec = json.loads(out)["records"][0]
        assert set(rec) == {"j", "eigenvalue", "method", "nu_antiwick", "antiwick_mass"}
        assert rec["method"] == "antiwick" and rec["antiwick_mass"] >= 0.99

    # numpy's overflow warnings would print before the one semiclab: line;
    # as errors they would turn the exit 3 into a traceback
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_observable_is_a_numerical_error(self, capsys):
        code, out, err = run_cli(capsys, [
            "measure", "--model", "quad-max", "--h", "0.05",
            "--obs", "exp(x*xi^3)", "--quantization", "weyl"])
        assert code == 3
        assert out == ""
        assert err.startswith("semiclab: ") and err.count("\n") == 1
        assert "not finite" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("quant", ["both", "antiwick", "weyl"])
    def test_window_without_states_has_no_records(self, capsys, quant):
        # the harmonic levels are 0.05 (2 j + 1); none lies within 0.5 +- 0.005
        code, out, _ = run_cli(capsys, [
            "measure", "--model", "harmonic", "--h", "0.05", "--ecenter", "0.5",
            "--d", "0.1", "--obs", "x^2", "--quantization", quant])
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == [] and payload["upsilon"] == 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_radial_window_without_states_has_no_records(self, capsys):
        # radial-deg's potential r^6 - r^4 stays above -0.15, so [-0.35, -0.25] is empty
        argv = ["measure", "--model", "radial-deg", "--h", "0.01", "--ecenter", "-0.3"]
        code, out, _ = run_cli(capsys, [*argv, "--obs", "exp(-x^2)"])
        assert code == 0
        payload = json.loads(out)
        assert payload["records"] == [] and payload["upsilon"] == 0.0
        assert payload["weighted_mean"] is None
        # an observable that is not a(r) is still refused first
        code, out, err = run_cli(capsys, [*argv, "--obs", "exp(-x^2-xi^2)"])
        assert (code, out) == (4, "") and "xi" in err

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_on_both_routes_is_one_line(self, capsys):
        # the anti-Wick average of this symbol is finite (the frame lattice
        # is bounded), so the Weyl route's error is the one report
        code, out, err = run_cli(capsys, [
            "measure", "--model", "quad-max", "--h", "0.05", "--obs", "exp(x*xi^3)"])
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("semiclab: ") and "Weyl average" in err


class TestLiouville:
    def test_radial_average(self, capsys):
        code, out, _ = run_cli(capsys, [
            "liouville", "--model", "radial-deg", "--obs", "exp(-x^2)",
            "--energy", "0.0", "--allow-critical"])
        assert code == 0
        payload = json.loads(out)
        assert not payload["divergent"]
        assert payload["average"] == pytest.approx(1.0 - math.exp(-1.0),
                                                   abs=1e-6)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_observable_is_a_numerical_error(self, capsys):
        # an infinite average would print as the non-JSON token Infinity
        code, out, err = run_cli(capsys, [
            "liouville", "--model", "quad-max", "--obs", "exp(1000*x^2)", "--energy", "0.5"])
        assert (code, out, err.count("\n")) == (3, "", 1)
        assert err.startswith("semiclab: Liouville integral") and "not finite" in err

    def test_divergent_surface_reported(self, capsys):
        code, out, _ = run_cli(capsys, [
            "liouville", "--model", "quad-max", "--obs", "1",
            "--energy", "0.0", "--allow-critical"])
        assert code == 0
        payload = json.loads(out)
        assert payload["divergent"] is True
        assert payload["average"] is None


class TestScanFit:
    def test_roundtrip_critical_fit(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code = main(["scan", "--model", "deg-max", "--h-from", "0.1",
                     "--h-to", "0.01", "--h-steps", "8", "--ecenter", "0",
                     "--out", str(csv_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["fit", "--in", str(csv_path),
                                        "--law", "critical"])
        assert code == 0
        payload = json.loads(out)
        assert payload["law"] == "schrodinger_critical"
        assert payload["alpha_hat"] == pytest.approx(-0.25)
        assert payload["beta_hat"] == 0
        for key in ("alpha_hat", "beta_hat", "coeff_hat", "residual", "law",
                    "config"):
            assert key in payload

    def test_critical_fit_refused_on_a_critical_circle(self, capsys, tmp_path):
        # radial-deg's wells r = sqrt(2/3) form a circle on the level -4/27
        csv_path = tmp_path / "scan.csv"
        assert main(["scan", "--model", "radial-deg", "--h-from", "0.1",
                     "--h-to", "0.02", "--h-steps", "5", "--ecenter", "-0.14814814814814814",
                     "--out", str(csv_path)]) == 0
        code, _, err = run_cli(capsys, ["fit", "--in", str(csv_path), "--law", "critical"])
        assert code == 2
        assert "isolated-critical-point: critical circle at r=0.816497" in err

    def test_fit_regular_on_harmonic(self, capsys, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code = main(["scan", "--model", "harmonic", "--h-from", "0.1",
                     "--h-to", "0.01", "--h-steps", "6", "--ecenter", "1.0",
                     "--out", str(csv_path)])
        assert code == 0
        code, out, _ = run_cli(capsys, ["fit", "--in", str(csv_path),
                                        "--law", "regular"])
        assert code == 0
        payload = json.loads(out)
        assert payload["law"] == "regular_weyl"
        assert payload["alpha_hat"] == pytest.approx(0.0)
        assert payload["coeff_hat"] == pytest.approx(5.0, rel=0.1)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_observable_is_a_row_error(self, tmp_path):
        csv_path = tmp_path / "scan.csv"
        code = main(["scan", "--model", "quad-max", "--h-from", "0.1",
                     "--h-to", "0.05", "--h-steps", "2", "--obs", "exp(x*xi^3)",
                     "--out", str(csv_path)])
        assert code == 0
        scan = scan_from_csv(csv_path.read_text())
        assert len(scan.rows) == 2
        for row in scan.rows:
            assert "not finite" in row.error
            assert math.isnan(row.upsilon_obs[0])

    def test_blas_thread_setting_leaves_the_bytes_unchanged(self):
        # README's contract: semiclab.eig runs every OpenBLAS on one thread,
        # so the whole output, echo and residual_max included, is the same
        # whatever OPENBLAS_NUM_THREADS says
        src = str(pathlib.Path(semiclab.__file__).resolve().parents[1])
        argv = [sys.executable, "-m", "semiclab.cli", "scan", "--model", "quad-max",
                "--h-from", "0.01", "--h-to", "0.001", "--h-steps", "3",
                "--obs", "exp(-x^2-xi^2)"]
        children = []
        for threads in ("1", "2"):
            env = {**os.environ, "OPENBLAS_NUM_THREADS": threads, "PYTHONPATH": os.pathsep.join(
                p for p in (src, os.environ.get("PYTHONPATH")) if p)}
            children.append(subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True))
        outs = [child.communicate(timeout=120)[0] for child in children]
        assert [child.returncode for child in children] == [0, 0]
        assert len(list(csv.DictReader(l for l in outs[0].splitlines() if not l.startswith("#")))) == 3
        assert outs[0] == outs[1]

    def test_fit_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["fit", "--in", "/no/such/file.csv"])
        assert code == 4
        assert "cannot read" in err


class TestScenario:
    def test_harmonic_weyl_verdict(self, capsys):
        code, out, _ = run_cli(capsys, ["scenario", "run", "harmonic-weyl"])
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {"checks", "config", "data", "gating", "passed", "scenario"}
        assert payload["scenario"] == "harmonic-weyl"
        assert payload["passed"] is True
        names = [c["name"] for c in payload["checks"]]
        assert "window_count" in names and "eigenvalue_accuracy" in names
        assert all(c["passed"] for c in payload["checks"])
        assert payload["config"]["model"] == "harmonic"

    def test_verdict_bytes_deterministic(self, capsys, tmp_path):
        f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["scenario", "run", "two-wells", "--out", str(f1)]) == 0
        assert main(["scenario", "run", "two-wells", "--out", str(f2)]) == 0
        capsys.readouterr()
        assert f1.read_bytes() == f2.read_bytes()


# -- malformed scan files ----------------------------------------------------

_META = "".join(f"# {k}={v}\n" for k, v in (
    ("model", "deg-max"), ("family", "schrodinger1d"), ("e_center", "0"),
    ("d", "5"), ("route", "fd"), ("ppw", "64"), ("observables", "")))
_HEADER = "h,n_grid,upsilon,residual_max,tie,error\n"


def _valid_scan() -> str:
    hs = np.geomspace(0.1, 0.01, 6)
    rows = tuple(ScanRow(h=float(h), n_grid=1000, upsilon=float(round(3.7 * h**-0.25)),
                         upsilon_obs=(), residual_max=0.0, tie=False)
                 for h in hs)
    return scan_to_csv(ScanResult(model="deg-max", family="schrodinger1d", e_center=0.0,
                                  d=5.0, ppw=64, observable_ids=(), rows=rows))


class TestMalformedScan:
    @pytest.mark.parametrize("body", [
        "h,n_grid,upsilon\n0.1,100\n",
        "",
        _HEADER + "abc,100,5,0,0,\n",
        _HEADER + "0.1,100,5\n",
        _HEADER + "nan,100,5,0,0,\n",
        _HEADER + "0.1,100,nan,0,0,\n",
    ], ids=["short-header-and-row", "no-header", "non-numeric-h", "short-row",
            "nan-h", "nan-count-without-error"])
    def test_exits_4_with_one_line(self, capsys, tmp_path, body):
        path = tmp_path / "scan.csv"
        path.write_text(_META + body)
        code, _, err = run_cli(capsys, ["fit", "--in", str(path)])
        assert code == 4
        assert err.startswith("semiclab: ") and err.count("\n") == 1

    @pytest.mark.parametrize("ppw", ["0", "-3"])
    def test_ppw_the_scan_refuses(self, capsys, tmp_path, ppw):
        # once a scan file with ppw = 0 or -3 was read as valid
        path = tmp_path / "scan.csv"
        path.write_text(re.sub("# ppw=.*", f"# ppw={ppw}", _valid_scan()))
        code, _, err = run_cli(capsys, ["fit", "--in", str(path)])
        assert code == 4 and "ppw must be at least 1" in err
        assert err.startswith("semiclab: ") and err.count("\n") == 1

    def test_h_below_the_fit_range(self, capsys, tmp_path):
        # h^-1.5 |log h| overflows at the low end of the fit's exponent grid
        lines = _valid_scan().splitlines()
        lines[-1] = "1e-250" + lines[-1][lines[-1].index(","):]
        path = tmp_path / "scan.csv"
        path.write_text("\n".join(lines) + "\n")
        code, _, err = run_cli(capsys, ["fit", "--in", str(path)])
        assert code == 4
        assert err.startswith("semiclab: ") and err.count("\n") == 1

    def test_failed_row_keeps_its_nan(self, capsys, tmp_path):
        # scan_to_csv writes NaN in rows whose error column is set
        path = tmp_path / "scan.csv"
        path.write_text(_valid_scan() + "0.005,0,nan,nan,0,grid cap\n")
        code, out, _ = run_cli(capsys, ["fit", "--in", str(path)])
        assert code == 0
        assert json.loads(out)["n_rows"] == 6


_TOKENS = st.sampled_from([
    "", "0", "1", "-1", "0.1", "1e-3", "1e-250", "1e308", "nan", "inf", "-inf", "x", "1,2",
    '"', "#", "# model=harmonic", "# e_center=nan", "# ppw=x", "=", "|", "\x00",
    "h,n_grid,upsilon,residual_max,tie,error"])


@st.composite
def _scan_texts(draw):
    """The valid scan with a few lines dropped, repeated, edited or added."""
    lines = _valid_scan().splitlines()
    for _ in range(draw(st.integers(0, 4))):
        i = draw(st.integers(0, len(lines)))
        kind = draw(st.sampled_from(["drop", "repeat", "field", "insert"]))
        if kind == "insert" or i == len(lines):
            lines.insert(i, draw(_TOKENS | st.text(max_size=12)))
        elif kind == "drop":
            del lines[i]
        elif kind == "repeat":
            lines.insert(i, lines[i])
        else:
            fields = lines[i].split(",")
            fields[draw(st.integers(0, len(fields) - 1))] = draw(_TOKENS)
            lines[i] = ",".join(fields)
    return "\n".join(lines) + "\n"


@st.composite
def _config_lines(draw):
    """Key=value lines for fit; never ``out``, so no run writes a file."""
    key = draw(st.sampled_from(["in", "law", "bogus", "#", ""]))
    if key == "in":
        return "in=" + draw(st.sampled_from(["SCAN", "MISSING", "DIR"]))
    if key == "law":
        return "law=" + draw(st.sampled_from(["auto", "regular", "critical", "x", ""]))
    return key + draw(st.text(alphabet=st.characters(blacklist_characters="=\n\r"),
                              max_size=8))


@settings(max_examples=80, deadline=None)
@given(scan=_scan_texts() | st.binary(max_size=64),
       config=st.none() | st.lists(_config_lines(), max_size=4),
       law=st.sampled_from([[], ["--law", "auto"], ["--law", "regular"],
                            ["--law", "critical"]]))
def test_fit_fuzz_exits_with_a_documented_code(scan, config, law):
    with tempfile.TemporaryDirectory() as tmp:
        scan_path = os.path.join(tmp, "scan.csv")
        with open(scan_path, "wb") as f:
            f.write(scan if isinstance(scan, bytes) else scan.encode("utf-8", "replace"))
        argv = ["fit", *law]
        if config is None:
            argv += ["--in", scan_path]
        else:
            conf_path = os.path.join(tmp, "fit.conf")
            paths = {"SCAN": scan_path, "MISSING": os.path.join(tmp, "none"), "DIR": tmp}
            text = "\n".join(config)
            for k, v in paths.items():
                text = text.replace(k, v)
            with open(conf_path, "w", encoding="utf-8", errors="replace") as f:
                f.write(text)
            argv += ["--config", conf_path]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2, 3, 4)
    if code:
        assert err.getvalue().startswith("semiclab: ")
