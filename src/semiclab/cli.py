"""Command line front end: catalog, spectra, measures, scans, fits, scenarios.

Every run is deterministic; identical invocations produce byte-identical
output.  JSON payloads embed the fully resolved configuration under the
``config`` key, CSV payloads carry it in leading ``# key=value`` comment
lines.  The options of ``spectrum``, ``measure``, ``liouville``, ``scan``
and ``fit`` are declared once, in ``OPTIONS``: each entry gives the
``--flag`` (underscores become dashes), the key of a flat key=value config
file (``--config``), the type, the default and the checks.  Flags take
precedence over the file, unknown keys are rejected, and both sources go
through the same conversion and checks.  ``ppw`` sizes finite-difference
and radial grids only: it defaults to ``WINDOW_PPW``, and a phase model refuses it.

Exit codes: 0 success, 1 failed scenario verdict, 2 violated model
hypothesis, 3 numerical failure, 4 configuration or parse error (an
``--out`` that cannot be written included, refused before any work).  Code 2
comes from ``fit --law regular|critical``, the one command that claims a law
at the scan's energy: ``model.isolated_critical_point`` refuses a critical
level without exactly one admissible critical point on it.  Every nonzero
code prints one ``semiclab:`` line on standard error.
"""

from __future__ import annotations

import argparse
import errno
import json
import math
import os
import re
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from .classical import liouville_integral, normalizing_volume
# eigs_in_window is unused here; perfbench/test_perfbench.py::
# test_wrapper_reaches_from_import_aliases_and_restores expects this module to hold it
from .eig import EigenWindow, eigs_in_window  # noqa: F401
from .errors import ConfigError, HypothesisError, NumericalError, exit_code_for
from .experiments import (
    _fmt,
    default_center,
    fit_scaling,
    run_scan,
    scaling_branches,
    scan_from_csv,
    scan_to_csv,
    solve_window,
)
from .microlocal import (
    antiwick_averages,
    microlocal_records,
    upsilon,
    weyl_or_reference,
)
from .model import PhasePolynomial, Polynomial1D, SymbolModel, catalog, get_model
from .observables import ObservableParseError, parse_observable
from .quantize import WINDOW_D, WINDOW_PPW, Grid1D
from .scenarios import run_scenario


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("1", "true", "yes", "on"):
        return True
    if t in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


@dataclass(frozen=True)
class Option:
    """One option: the flag ``--key`` and the config key ``key``.

    Both sources hand ``type`` a string; a ``_parse_bool`` option is a flag
    without a value.
    """

    key: str
    type: Callable[[str], object] = str
    default: object = None
    required: bool = False
    positive: bool = False
    choices: tuple[str, ...] = ()
    help: str | None = None


_MODEL = Option("model", required=True)
_OBS = Option("obs", required=True)
_H = Option("h", float, required=True, positive=True)
# ppw has no table default, so _window_model can tell a given ppw from none
_WINDOW = (Option("ecenter", float), Option("d", float, WINDOW_D, positive=True),
           Option("ppw", int, positive=True))
_OUT = Option("out")

OPTIONS: dict[str, tuple[Option, ...]] = {
    "spectrum": (_MODEL, _H, *_WINDOW, Option("n", int),
                 Option("box", help="A,B grid interval override"), _OUT),
    "measure": (_MODEL, _H, _OBS,
                Option("quantization", default="both",
                       choices=("weyl", "antiwick", "both")),
                *_WINDOW, _OUT),
    "liouville": (_MODEL, _OBS, Option("energy", float, required=True),
                  Option("allow_critical", _parse_bool, False), _OUT),
    "scan": (_MODEL,
             Option("h_from", float, required=True, positive=True),
             Option("h_to", float, required=True, positive=True),
             Option("h_steps", int, required=True, positive=True),
             Option("obs", help="comma-separated observable expressions"),
             *_WINDOW, _OUT),
    "fit": (Option("in", required=True),
            Option("law", default="auto", choices=("auto", "regular", "critical")),
            _OUT),
}


def _round0(v: float, tol: float = 1e-9) -> float:
    return 0.0 if abs(v) < tol else float(v)


def _get_model(name: str) -> SymbolModel:
    try:
        return get_model(name)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0])) from None


def _window_model(cfg: dict) -> SymbolModel:
    """The model of a window command; fills in the ``ecenter`` and ``ppw`` defaults.

    ppw sizes finite-difference grids only.  A phase model's split grid is
    sized from its symbol, so a ppw given for one would be echoed unused.
    """
    m = _get_model(cfg["model"])
    if cfg["ecenter"] is None:
        cfg["ecenter"] = default_center(m)
    if cfg["ppw"] is None:
        cfg["ppw"] = WINDOW_PPW
    elif m.family == "phase1d":
        raise ConfigError(f"option 'ppw' does not apply to phase model {m.name!r}: "
                          "its split grid is sized from the symbol")
    return m


class _Parser(argparse.ArgumentParser):
    """Argument parser whose own failures surface as configuration errors."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a single '-' starts a value (--box -3,3, --obs -x^2), except in -h;
        # every other option starts with '--'
        self._negative_number_matcher = re.compile(r"-(?!h$)[^-]")

    def error(self, message):
        raise ConfigError(message)


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


def _resolve(args) -> dict:
    """The subcommand's options: defaults, then config file, then flags; checked."""
    table = {opt.key: opt for opt in args.options}
    given = read_config_file(args.config) if args.config else {}
    unknown = sorted(set(given) - set(table))
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)} "
                          f"(known: {', '.join(sorted(table))})")
    given.update((k, getattr(args, k)) for k in table if getattr(args, k) is not None)
    cfg = {}
    for key, opt in table.items():
        try:
            cfg[key] = opt.type(given[key]) if key in given else opt.default
        except ValueError as exc:
            raise ConfigError(f"option {key!r}: {exc}") from None
    missing = [k for k, opt in table.items() if opt.required and cfg[k] is None]
    if missing:
        raise ConfigError(f"missing required option(s): {', '.join(missing)}")
    for key, opt in table.items():
        v = cfg[key]
        if v is None:
            continue
        if opt.positive and not 0 < v < math.inf:
            raise ConfigError(f"option {key!r} must be positive and finite, got {v}")
        if opt.type is float and not math.isfinite(v):
            raise ConfigError(f"option {key!r} must be finite, got {v}")
        if opt.choices and v not in opt.choices:
            raise ConfigError(f"option {key!r} must be one of "
                              f"{', '.join(opt.choices)}, got {v!r}")
    _check_out(cfg["out"])
    return cfg


def _check_out(out_path: str | None) -> None:
    """Refuse an ``--out`` that cannot be written before any work runs: its
    directory must exist and be writable, and the path must not be a
    directory or a read-only file.  Nothing is created or truncated."""
    if not out_path:
        return
    target = Path(out_path)
    if not target.parent.is_dir():
        code = errno.ENOENT
    elif target.is_dir():
        code = errno.EISDIR
    elif not os.access(target if target.exists() else target.parent, os.W_OK):
        code = errno.EACCES
    else:
        return
    raise ConfigError(f"cannot write {out_path}: {os.strerror(code)}")


def _echo(command: str, cfg: dict) -> dict:
    out = {"command": command}
    for key, value in cfg.items():
        if value is None:
            continue
        out[key] = value
    return out


def _emit_text(text: str, out_path: str | None) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {out_path}: {exc.strerror}") from None
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

def _power(var: str, k: int) -> str:
    return "" if k == 0 else var if k == 1 else f"{var}^{k}"


def _signed_sum(terms) -> str:
    """``a - b + c`` text of (coefficient, monomial) terms; '' is the constant."""
    text = ""
    for coeff, mono in terms:
        if coeff == 0.0:
            continue
        mag = abs(coeff)
        if not mono:
            body = _fmt(mag)
        else:
            body = mono if mag == 1.0 else f"{_fmt(mag)}*{mono}"
        if text:
            text += f" {'-' if coeff < 0 else '+'} {body}"
        else:
            text = ("-" if coeff < 0 else "") + body
    return text or "0"


def _poly_text(p: Polynomial1D, var: str) -> str:
    return _signed_sum((c, _power(var, k)) for k, c in enumerate(p.coefficients))


def _phase_text(p: PhasePolynomial) -> str:
    return _signed_sum((c, "*".join(filter(None, (_power("x", xp), _power("xi", xip)))))
                       for xp, xip, c in sorted(p.terms))


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
    _check_out(args.out)
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
    _emit_text("\n".join(lines) + "\n", args.out)
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
    n, box = cfg["n"], cfg["box"]
    if n is None and box is None:
        return None
    if m.family == "radial2d":
        raise ConfigError("grid overrides --n/--box apply to 1d models only")
    if n is None or box is None:
        raise ConfigError("grid overrides need both --n and --box")
    a, b = _parse_box(box)
    boundary = "periodic" if m.family == "phase1d" else "dirichlet"
    try:
        return Grid1D(a, b, int(n), boundary)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _channel_rows(win: EigenWindow):
    """(m, weight, j) of every state of a radial window, j its index in its
    channel; the states come channel by channel."""
    j = np.arange(win.count) - np.searchsorted(win.m, win.m)
    return zip(win.m.tolist(), win.weights.tolist(), j.tolist())


def cmd_spectrum(args) -> int:
    cfg = _resolve(args)
    m = _window_model(cfg)
    win = solve_window(m, cfg["h"], cfg["ecenter"], d=cfg["d"], ppw=cfg["ppw"], vectors=False,
                       grid=_grid_override(m, cfg))
    if m.family == "radial2d":
        header = ["m", "weight", "j", "eigenvalue"]
        rows = [[*c, _fmt(lam)] for c, lam in zip(_channel_rows(win), win.eigenvalues)]
    else:
        header = ["j", "eigenvalue"]
        rows = [[j, _fmt(lam)] for j, lam in enumerate(win.eigenvalues)]
    _emit_text(_csv_text("spectrum", cfg, header, rows), cfg["out"])
    return 0


# -- measure -----------------------------------------------------------------

def cmd_measure(args) -> int:
    cfg = _resolve(args)
    quant = cfg["quantization"]
    m = _window_model(cfg)
    obs = parse_observable(cfg["obs"])

    if m.family == "radial2d" and quant == "antiwick":
        raise ConfigError(
            "anti-Wick averages need a planar coherent frame; radial "
            "windows have none (use weyl)")
    win = solve_window(m, cfg["h"], cfg["ecenter"], d=cfg["d"], ppw=cfg["ppw"])
    if m.family == "radial2d":
        # the Weyl route refuses an observable that is not a(r), even with no states
        nus, _method = weyl_or_reference(win, obs)
        records = [{"m": c, "weight": int(wt), "j": j, "eigenvalue": float(lam),
                    "nu_weyl": float(nu), "method": "radial-position"}
                   for (c, wt, j), lam, nu in zip(_channel_rows(win), win.eigenvalues, nus)]
        ups = upsilon(win)  # weighted_mean: upsilon_a's sum, from the values at hand
        payload = {"config": _echo("measure", cfg), "upsilon": ups, "records": records,
                   "weighted_mean": float(np.sum(win.weights * nus)) / ups if ups else None}
    else:
        # each route runs only when it is reported, so a route left out
        # can neither cost time nor refuse the window
        records = [{"j": j, "eigenvalue": float(lam)} for j, lam in enumerate(win.eigenvalues)]
        if quant == "both":  # one anti-Wick batch, also the reference past DENSE_CAP
            for rec, r in zip(records, microlocal_records(win, obs)):
                rec.update(asdict(r), gap=r.gap)
        elif quant == "weyl":
            nw, method = weyl_or_reference(win, obs)
            for rec, nu in zip(records, nw):
                rec.update(method=method, nu_weyl=float(nu))
        else:
            na, masses = antiwick_averages(win, obs)
            for rec, nu, mass in zip(records, na, masses):
                rec.update(method="antiwick", nu_antiwick=float(nu), antiwick_mass=float(mass))
        payload = {"config": _echo("measure", cfg),
                   "upsilon": float(win.count), "records": records}
    _emit_json(payload, cfg["out"])
    return 0


# -- liouville ---------------------------------------------------------------

def cmd_liouville(args) -> int:
    cfg = _resolve(args)
    m = _get_model(cfg["model"])
    obs = parse_observable(cfg["obs"])
    res = liouville_integral(m, obs, cfg["energy"],
                             allow_critical=cfg["allow_critical"])
    value = float(res.value)
    average = None
    if not res.divergent:
        # res is the numerator of the average: allow_critical only decides
        # whether a critical energy is refused or probed, never the value
        average = float(value / normalizing_volume(m, cfg["energy"]))
    payload = {"config": _echo("liouville", cfg),
               "value": value if np.isfinite(value) else None,
               "divergent": bool(res.divergent),
               "error_estimate": float(res.error_estimate),
               "average": average}
    _emit_json(payload, cfg["out"])
    return 0


# -- scan --------------------------------------------------------------------

def cmd_scan(args) -> int:
    cfg = _resolve(args)
    _window_model(cfg)
    observables = tuple(s.strip() for s in (cfg["obs"] or "").split(",") if s.strip())
    hs = np.geomspace(cfg["h_from"], cfg["h_to"], cfg["h_steps"])
    scan = run_scan(cfg["model"], h_values=hs, observables=observables,
                    e_center=cfg["ecenter"], d=cfg["d"], ppw=cfg["ppw"])
    _emit_text(scan_to_csv(scan), cfg["out"])
    return 0


# -- fit ---------------------------------------------------------------------

def cmd_fit(args) -> int:
    cfg = _resolve(args)
    law = cfg["law"]
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
    fit = fit_scaling(scan, candidates=candidates)
    payload = {"config": _echo("fit", cfg), "model": scan.model,
               "e_center": float(scan.e_center), **asdict(fit)}
    _emit_json(payload, cfg["out"])
    return 0


# -- scenario ----------------------------------------------------------------

def cmd_scenario(args) -> int:
    _check_out(args.out)
    report = run_scenario(args.name)
    _emit_json(asdict(report), args.out)
    if report.passed:
        return 0
    failed = ", ".join(c.name for c in report.checks if not c.passed)
    print(f"semiclab: scenario {report.scenario} failed: {failed}", file=sys.stderr)
    return 1


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

    for name, help_text, func in (
            ("spectrum", "eigenvalues in one window", cmd_spectrum),
            ("measure", "per-eigenpair observable averages", cmd_measure),
            ("liouville", "surface integral of an observable", cmd_liouville),
            ("scan", "window counts across an h grid", cmd_scan),
            ("fit", "scaling-law fit of a scan CSV", cmd_fit)):
        p = sub.add_parser(name, help=help_text)
        for opt in OPTIONS[name]:
            flag = "--" + opt.key.replace("_", "-")
            if opt.type is _parse_bool:
                p.add_argument(flag, dest=opt.key, action="store_const", const="true")
            else:
                # choices are checked in _resolve, for flags and config keys alike
                metavar = "{" + ",".join(opt.choices) + "}" if opt.choices else None
                p.add_argument(flag, dest=opt.key, metavar=metavar, help=opt.help)
        p.add_argument("--config", help="flat key=value option file")
        p.set_defaults(func=func, options=OPTIONS[name])

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
