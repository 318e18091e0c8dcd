"""Command line front end: catalog, spectra, measures, scans, fits, scenarios.

Every run is deterministic; identical invocations produce byte-identical
output.  JSON payloads embed the fully resolved configuration under the
``config`` key, CSV payloads carry it in leading ``# key=value`` comment
lines.  Options may come from a flat key=value config file (``--config``),
with command-line flags taking precedence and unknown keys rejected.

Exit codes: 0 success, 1 failed scenario verdict, 2 violated model
hypothesis, 3 numerical failure, 4 configuration or parse error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .classical import liouville_integral, mu_average
# eigs_in_window is unused here; perfbench/test_perfbench.py::
# test_wrapper_reaches_from_import_aliases_and_restores expects this module to hold it
from .eig import eigs_in_window, radial_channels  # noqa: F401
from .errors import ConfigError, HypothesisError, NumericalError, exit_code_for
from .experiments import (
    default_center,
    fit_scaling,
    run_scan,
    scaling_branches,
    scan_from_csv,
    scan_to_csv,
    solve_window,
)
from .microlocal import microlocal_records, radial_state_averages, upsilon, upsilon_a
from .model import PhasePolynomial, Polynomial1D, SymbolModel, catalog, get_model
from .observables import ObservableParseError, parse_observable
from .quantize import Grid1D
from .scenarios import run_scenario


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _round0(v: float, tol: float = 1e-9) -> float:
    return 0.0 if abs(v) < tol else float(v)


def _get_model(name: str) -> SymbolModel:
    try:
        return get_model(name)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from None


class _Parser(argparse.ArgumentParser):
    """Argument parser whose own failures surface as configuration errors."""

    def error(self, message):
        raise ConfigError(message)


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def read_config_file(path: str) -> dict[str, str]:
    """Flat key=value lines; blank lines and # comments are skipped."""
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"{path}:{lineno}: expected key=value, got {line!r}")
        key, _, val = line.partition("=")
        out[key.strip()] = val.strip()
    return out


def _resolve(args, spec: dict, defaults: dict) -> dict:
    """Merge option sources: defaults, then config file, then flags."""
    resolved = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        file_map = read_config_file(config_path)
        unknown = sorted(set(file_map) - set(spec))
        if unknown:
            raise ConfigError(
                f"unknown config keys: {', '.join(unknown)} "
                f"(known: {', '.join(sorted(spec))})")
        for key, raw in file_map.items():
            try:
                resolved[key] = spec[key](raw)
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
    for key in spec:
        attr = "in_path" if key == "in" else key
        value = getattr(args, attr, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _require(cfg: dict, keys) -> None:
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")


def _check_positive(cfg: dict, keys) -> None:
    for k in keys:
        v = cfg.get(k)
        if v is not None and not (np.isfinite(v) and v > 0):
            raise ConfigError(f"option {k!r} must be positive and finite, got {v}")


def _echo(command: str, cfg: dict) -> dict:
    out = {"command": command}
    for key, value in cfg.items():
        if value is None:
            continue
        out[key] = value
    return out


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(payload: dict, out_path: str | None) -> None:
    _emit_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", out_path)


def _csv_text(command: str, cfg: dict, header: list[str], rows) -> str:
    lines = [f"# command={command}"]
    for key, value in sorted(cfg.items()):
        if value is None or key == "out":
            continue
        if isinstance(value, bool):
            value = "true" if value else "false"
        elif isinstance(value, float):
            value = _fmt(value)
        lines.append(f"# {key}={value}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(str(c) for c in row))
    return "\n".join(lines) + "\n"


# -- models ------------------------------------------------------------------

def _poly_text(p: Polynomial1D, var: str) -> str:
    pieces: list[tuple[str, str]] = []
    for power, coeff in enumerate(p.coefficients):
        if coeff == 0.0:
            continue
        mag = abs(coeff)
        if power == 0:
            body = _fmt(mag)
        else:
            base = var if power == 1 else f"{var}^{power}"
            body = base if mag == 1.0 else f"{_fmt(mag)}*{base}"
        pieces.append(("-" if coeff < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _phase_text(p: PhasePolynomial) -> str:
    pieces: list[tuple[str, str]] = []
    for xp, xip, coeff in sorted(p.terms):
        if coeff == 0.0:
            continue
        parts = []
        if xp:
            parts.append("x" if xp == 1 else f"x^{xp}")
        if xip:
            parts.append("xi" if xip == 1 else f"xi^{xip}")
        mono = "*".join(parts) if parts else "1"
        mag = abs(coeff)
        body = mono if mag == 1.0 else f"{_fmt(mag)}*{mono}"
        pieces.append(("-" if coeff < 0 else "+", body))
    if not pieces:
        return "0"
    sign, body = pieces[0]
    text = ("-" if sign == "-" else "") + body
    for sign, body in pieces[1:]:
        text += f" {sign} {body}"
    return text


def _symbol_text(m: SymbolModel) -> str:
    if m.family == "phase1d":
        return f"p(x,xi) = {_phase_text(m.phase_poly)}"
    var = "r" if m.family == "radial2d" else "x"
    vtext = _poly_text(m.potential, var)
    if vtext == "0":
        return "p = xi^2"
    if vtext.startswith("-"):
        return f"p = xi^2 - {vtext[1:]}"
    return f"p = xi^2 + {vtext}"


def cmd_models(args) -> int:
    lines = []
    for name, m in sorted(catalog().items()):
        lines.append(f"{name}  [{m.family}, n={m.n}]  {_symbol_text(m)}")
        var = "r" if m.family == "radial2d" else "x"
        for cp in m.critical_points:
            x0 = _fmt(_round0(cp.z0[0]))
            at = f"{var}={x0}"
            if m.family == "phase1d":
                at = f"(x,xi)=({x0},{_fmt(_round0(cp.z0[1]))})"
            lines.append(f"    critical: E_c={_fmt(_round0(cp.critical_energy))}"
                         f"  {cp.kind}, order {cp.order}, at {at}")
    _emit_text("\n".join(lines) + "\n", getattr(args, "out", None))
    return 0


# -- spectrum ----------------------------------------------------------------

def _parse_box(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise ConfigError(f"--box wants two comma-separated numbers, got {text!r}")
    try:
        a, b = float(parts[0]), float(parts[1])
    except ValueError:
        raise ConfigError(f"--box wants two numbers, got {text!r}") from None
    if not (np.isfinite(a) and np.isfinite(b) and a < b):
        raise ConfigError(f"--box needs finite A < B, got {text!r}")
    return a, b


def _grid_override(m: SymbolModel, cfg: dict) -> Grid1D | None:
    n, box = cfg.get("n"), cfg.get("box")
    if n is None and box is None:
        return None
    if n is None or box is None:
        raise ConfigError("grid overrides need both --n and --box")
    if m.family == "radial2d":
        raise ConfigError("grid overrides --n/--box apply to 1d models only")
    a, b = _parse_box(box)
    boundary = "periodic" if m.family == "phase1d" else "dirichlet"
    try:
        return Grid1D(a, b, int(n), boundary)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


SPECTRUM_SPEC = {"model": str, "h": float, "ecenter": float, "d": float,
                 "ppw": int, "n": int, "box": str, "out": str}


def cmd_spectrum(args) -> int:
    cfg = _resolve(args, SPECTRUM_SPEC, {"d": 5.0, "ppw": 64})
    _require(cfg, ("model", "h"))
    _check_positive(cfg, ("h", "d", "ppw"))
    m = _get_model(cfg["model"])
    if cfg.get("ecenter") is None:
        cfg["ecenter"] = default_center(m)
    h, e_center, d = cfg["h"], cfg["ecenter"], cfg["d"]
    if m.family == "radial2d":
        if cfg.get("n") is not None or cfg.get("box") is not None:
            raise ConfigError("grid overrides --n/--box apply to 1d models only")
        chans = radial_channels(m.potential, h, e_center - d * h, e_center + d * h,
                                d=d, ppw=cfg["ppw"], vectors=False)
        header = ["m", "weight", "j", "eigenvalue"]
        rows = [[ch.m, ch.weight, j, _fmt(lam)]
                for ch in chans for j, lam in enumerate(ch.window.eigenvalues)]
    else:
        win = solve_window(m, h, e_center, d=d, ppw=cfg["ppw"], vectors=False,
                           grid=_grid_override(m, cfg))
        header = ["j", "eigenvalue"]
        rows = [[j, _fmt(lam)] for j, lam in enumerate(win.eigenvalues)]
    _emit_text(_csv_text("spectrum", cfg, header, rows), cfg.get("out"))
    return 0


# -- measure -----------------------------------------------------------------

MEASURE_SPEC = {"model": str, "h": float, "obs": str, "quantization": str,
                "ecenter": float, "d": float, "ppw": int, "out": str}


def cmd_measure(args) -> int:
    cfg = _resolve(args, MEASURE_SPEC, {"quantization": "both", "d": 5.0,
                                        "ppw": 64})
    _require(cfg, ("model", "h", "obs"))
    _check_positive(cfg, ("h", "d", "ppw"))
    quant = cfg["quantization"]
    if quant not in ("weyl", "antiwick", "both"):
        raise ConfigError(
            f"quantization must be weyl, antiwick or both, got {quant!r}")
    m = _get_model(cfg["model"])
    if cfg.get("ecenter") is None:
        cfg["ecenter"] = default_center(m)
    obs = parse_observable(cfg["obs"])
    h, e_center, d = cfg["h"], cfg["ecenter"], cfg["d"]

    if m.family == "radial2d":
        if obs.routing != "position_only":
            raise ConfigError(
                f"radial models take position observables a(r); {obs.id!r} "
                "depends on xi")
        if quant == "antiwick":
            raise ConfigError(
                "anti-Wick averages need a planar coherent frame; radial "
                "windows have none (use weyl)")
        chans = radial_channels(m.potential, h, e_center - d * h, e_center + d * h,
                                d=d, ppw=cfg["ppw"], vectors=True)
        records = [{"m": int(ch.m), "weight": int(ch.weight), "j": j,
                    "eigenvalue": float(ch.window.eigenvalues[j]),
                    "nu_weyl": float(nu), "method": "radial-position"}
                   for ch, nus in zip(chans, radial_state_averages(chans, obs))
                   for j, nu in enumerate(nus)]
        if not records:
            raise NumericalError("no states in the radial window")
        ups = upsilon(chans)
        payload = {"config": _echo("measure", cfg), "upsilon": ups,
                   "weighted_mean": upsilon_a(chans, obs) / ups, "records": records}
    else:
        win = solve_window(m, h, e_center, d=d, ppw=cfg["ppw"])
        recs = microlocal_records(win, obs)
        records = []
        for r in recs:
            rec = {"j": int(r.j), "eigenvalue": float(r.eigenvalue),
                   "method": r.method}
            if quant in ("weyl", "both"):
                rec["nu_weyl"] = float(r.nu_weyl)
            if quant in ("antiwick", "both"):
                rec["nu_antiwick"] = float(r.nu_antiwick)
                rec["antiwick_mass"] = float(r.antiwick_mass)
            if quant == "both":
                rec["gap"] = float(r.gap)
            records.append(rec)
        payload = {"config": _echo("measure", cfg),
                   "upsilon": float(win.count), "records": records}
    _emit_json(payload, cfg.get("out"))
    return 0


# -- liouville ---------------------------------------------------------------

LIOUVILLE_SPEC = {"model": str, "obs": str, "energy": float,
                  "allow_critical": _parse_bool, "out": str}


def cmd_liouville(args) -> int:
    cfg = _resolve(args, LIOUVILLE_SPEC, {"allow_critical": False})
    _require(cfg, ("model", "obs", "energy"))
    m = _get_model(cfg["model"])
    obs = parse_observable(cfg["obs"])
    res = liouville_integral(m, obs, cfg["energy"],
                             allow_critical=cfg["allow_critical"])
    average = None
    if not res.divergent:
        average = float(mu_average(m, obs, cfg["energy"]))
    value = float(res.value)
    payload = {"config": _echo("liouville", cfg),
               "value": value if np.isfinite(value) else None,
               "divergent": bool(res.divergent),
               "error_estimate": float(res.error_estimate),
               "average": average}
    _emit_json(payload, cfg.get("out"))
    return 0


# -- scan --------------------------------------------------------------------

SCAN_SPEC = {"model": str, "h_from": float, "h_to": float, "h_steps": int,
             "obs": str, "ecenter": float, "d": float, "ppw": int, "out": str}


def cmd_scan(args) -> int:
    cfg = _resolve(args, SCAN_SPEC, {"d": 5.0, "ppw": 64})
    _require(cfg, ("model", "h_from", "h_to", "h_steps"))
    _check_positive(cfg, ("h_from", "h_to", "d", "ppw"))
    if cfg["h_steps"] < 1:
        raise ConfigError(f"h_steps must be >= 1, got {cfg['h_steps']}")
    _get_model(cfg["model"])
    observables = ()
    if cfg.get("obs"):
        observables = tuple(s.strip() for s in cfg["obs"].split(",") if s.strip())
        for text in observables:
            parse_observable(text)
    hs = np.geomspace(cfg["h_from"], cfg["h_to"], cfg["h_steps"])
    scan = run_scan(cfg["model"], h_values=hs, observables=observables,
                    e_center=cfg.get("ecenter"), d=cfg["d"], ppw=cfg["ppw"])
    _emit_text(scan_to_csv(scan), cfg.get("out"))
    return 0


# -- fit ---------------------------------------------------------------------

FIT_SPEC = {"in": str, "law": str, "out": str}


def cmd_fit(args) -> int:
    cfg = _resolve(args, FIT_SPEC, {"law": "auto"})
    _require(cfg, ("in",))
    law = cfg["law"]
    if law not in ("auto", "regular", "critical"):
        raise ConfigError(f"law must be auto, regular or critical, got {law!r}")
    try:
        text = Path(cfg["in"]).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read scan file {cfg['in']}: {exc}") from None
    scan = scan_from_csv(text)
    model = _get_model(scan.model)
    candidates = ()
    if law != "auto":
        branches = scaling_branches(model, scan.e_center)
        if law == "regular":
            candidates = tuple(b for b in branches if b.origin == "regular_weyl")
        else:
            candidates = tuple(b for b in branches if b.origin != "regular_weyl")
        if not candidates:
            raise ConfigError(
                f"no {law} scaling branch for model {scan.model!r} at "
                f"E_c={_fmt(scan.e_center)}")
    fit = fit_scaling(scan, candidates=candidates, model=model)
    payload = {"config": _echo("fit", cfg), "model": scan.model,
               "e_center": float(scan.e_center), **fit.as_dict()}
    _emit_json(payload, cfg.get("out"))
    return 0


# -- scenario ----------------------------------------------------------------

def cmd_scenario(args) -> int:
    report = run_scenario(args.name)
    _emit_json(report.as_dict(), getattr(args, "out", None))
    return 0 if report.passed else 1


# -- parser ------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="semiclab",
                     description="Semiclassical spectral measurements near "
                                 "critical energy levels.")
    sub = parser.add_subparsers(dest="subcommand", parser_class=_Parser)

    p = sub.add_parser("models", help="model catalog")
    p.add_argument("action", choices=["list"])
    p.add_argument("--out")
    p.set_defaults(func=cmd_models)

    def common(p):
        p.add_argument("--config", help="flat key=value option file")
        p.add_argument("--out")

    p = sub.add_parser("spectrum", help="eigenvalues in one window")
    p.add_argument("--model")
    p.add_argument("--h", type=float)
    p.add_argument("--ecenter", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--ppw", type=int)
    p.add_argument("--n", type=int)
    p.add_argument("--box", help="A,B grid interval override")
    common(p)
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("measure", help="per-eigenpair observable averages")
    p.add_argument("--model")
    p.add_argument("--h", type=float)
    p.add_argument("--obs")
    p.add_argument("--quantization", choices=["weyl", "antiwick", "both"])
    p.add_argument("--ecenter", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--ppw", type=int)
    common(p)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("liouville", help="surface integral of an observable")
    p.add_argument("--model")
    p.add_argument("--obs")
    p.add_argument("--energy", type=float)
    p.add_argument("--allow-critical", dest="allow_critical",
                   action="store_const", const=True)
    common(p)
    p.set_defaults(func=cmd_liouville)

    p = sub.add_parser("scan", help="window counts across an h grid")
    p.add_argument("--model")
    p.add_argument("--h-from", dest="h_from", type=float)
    p.add_argument("--h-to", dest="h_to", type=float)
    p.add_argument("--h-steps", dest="h_steps", type=int)
    p.add_argument("--obs", help="comma-separated observable expressions")
    p.add_argument("--ecenter", type=float)
    p.add_argument("--d", type=float)
    p.add_argument("--ppw", type=int)
    common(p)
    p.set_defaults(func=cmd_scan)

    p = sub.add_parser("fit", help="scaling-law fit of a scan CSV")
    p.add_argument("--in", dest="in_path")
    p.add_argument("--law", choices=["auto", "regular", "critical"])
    common(p)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("scenario", help="run an acceptance scenario")
    p.add_argument("action", choices=["run"])
    p.add_argument("name")
    p.add_argument("--out")
    p.set_defaults(func=cmd_scenario)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            return 4
        return args.func(args)
    except ObservableParseError as exc:
        print(f"semiclab: observable: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, HypothesisError, NumericalError) as exc:
        print(f"semiclab: {exc}", file=sys.stderr)
        return exit_code_for(exc)


if __name__ == "__main__":
    sys.exit(main())
