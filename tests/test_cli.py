"""Command line behavior: exit codes, config merging, deterministic output."""

import contextlib
import io
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiclab.cli import main
from semiclab.experiments import ScanResult, ScanRow, scan_from_csv, scan_to_csv


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestExitCodes:
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

    def test_grid_override_needs_both_flags(self, capsys):
        code, _, err = run_cli(capsys, [
            "spectrum", "--model", "harmonic", "--h", "0.04", "--n", "512"])
        assert code == 4
        assert "box" in err


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

    def test_fit_missing_file(self, capsys):
        code, _, err = run_cli(capsys, ["fit", "--in", "/no/such/file.csv"])
        assert code == 4
        assert "cannot read" in err


class TestScenario:
    def test_harmonic_weyl_verdict(self, capsys):
        code, out, _ = run_cli(capsys, ["scenario", "run", "harmonic-weyl"])
        assert code == 0
        payload = json.loads(out)
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
                         upsilon_obs=(), ratios=(), residual_max=0.0, tie=False)
                 for h in hs)
    return scan_to_csv(ScanResult(model="deg-max", family="schrodinger1d", e_center=0.0,
                                  d=5.0, route="fd", ppw=64, observable_ids=(), rows=rows))


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
