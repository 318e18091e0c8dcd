"""Counting scans over h, scaling-law prediction and fitting, ratio limits.

The windowed count Upsilon(h) = #{j : |lambda_j - E_c| <= d h} follows a
power-log law c * h^alpha * |log h|^beta whose exponents depend only on the
geometry of the energy surface:

* regular surface: alpha = 1 - n, beta = 0, and the coefficient is the
  phase-space volume rate 2 d V(E_c) / (2 pi)^n;
* potential well/barrier criticality of local order 2k: alpha picks up the
  anomalous n/2 + n/(2k) correction, with a |log h| factor exactly at a
  barrier top where n (k + 1) / (2k) is an integer and n is odd;
* homogeneous phase-space criticality of order k: alpha = 2n/k - n, with a
  |log h| factor exactly at a non-extremal point where 2n/k is an integer.

The branch with the slowest decay dominates.  A law is claimed only at the
point ``model.isolated_critical_point`` admits.  ``solve_window`` is the one
builder of a spectral window of every model family, shared by scans,
scenarios and the command line; ``run_scan`` measures the counts (and
observable-weighted counts) over an h grid; ``fit_scaling`` recovers
(alpha, beta) from measured rows by a model race: pure and
background-augmented power/log laws with nonnegative coefficients compete
under BIC, after a burn-in that drops rows whose energy window overlaps a
second critical level.  ``ratio_limit`` tracks Upsilon_a / Upsilon against
its semiclassical target, either a Liouville average or a point value at
the critical point; ``singular_limit`` reads the h -> 0 limit of that
ratio off the singular parts of both counts.  Scan rows are deterministic
and serialize to CSV with embedded metadata so fits can run on stored
scans.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .classical import mu_average
from .eig import EigenWindow, _check_window, eigs_in_window, radial_channels
from .errors import ConfigError, NumericalError
from .microlocal import _check_radial_observable, upsilon, upsilon_a, weyl_averages
from .model import CriticalPoint, SymbolModel, get_model, isolated_critical_point
from .observables import Observable, parse_observable
from .quantize import (
    WINDOW_D,
    WINDOW_PPW,
    Grid1D,
    _check_window_args,
    build_schrodinger,
    build_split,
    grid_for_schrodinger,
    grid_for_split,
)

__all__ = [
    "ScalingLaw",
    "ScanRow",
    "ScanResult",
    "FitResult",
    "RatioLimit",
    "SingularLimit",
    "TwoWellsResult",
    "predict_scaling",
    "scaling_branches",
    "default_h_values",
    "default_center",
    "solve_window",
    "run_scan",
    "scan_to_csv",
    "scan_from_csv",
    "fit_scaling",
    "fit_log_coefficient",
    "ratio_limit",
    "singular_limit",
    "log_decay_slope",
    "two_wells_experiment",
]

_INT_TOL = 1e-9
_ALPHA_MIN = -1.5  # low end of the exponent grid of the free fit
# smallest h whose fit weights h^_ALPHA_MIN |log h| stay finite
_H_MIN = 1e-200
_BUMP_WIDTH = 12.0  # Gaussian bumps of the two-wells experiment


def default_center(model: SymbolModel) -> float:
    """Catalog window centers: the shell E=1 for the harmonic well, else 0."""
    return 1.0 if model.name == "harmonic" else 0.0


@dataclass(frozen=True)
class ScalingLaw:
    alpha: float
    beta: int  # 0 or 1
    origin: str  # "regular_weyl" | "schrodinger_critical" | "homogeneous_critical"

    def weight(self, h: float) -> float:
        return h**self.alpha * abs(math.log(h)) ** self.beta


def scaling_branches(model: SymbolModel, e_center: float) -> tuple[ScalingLaw, ...]:
    """All predicted branches of the window count at this center energy.

    The critical branch is built at the point ``isolated_critical_point``
    returns, which raises ``HypothesisError`` on an inadmissible level.  Its
    |log h| factor needs an integer exponent ratio at a point that is not an
    extremum of p: a potential maximum, or a non-extremal homogeneous point.
    """
    return _branches_at(model, isolated_critical_point(model, e_center))


def _branches_at(model: SymbolModel, cp: CriticalPoint | None) -> tuple[ScalingLaw, ...]:
    """:func:`scaling_branches` at the point the gate admitted (None: a regular level)."""
    n = model.n
    laws = [ScalingLaw(alpha=float(1 - n), beta=0, origin="regular_weyl")]
    if cp is None:
        return tuple(laws)
    if model.family == "phase1d":
        ratio = 2.0 * n / cp.order
        alpha = ratio - n
        log_ok = cp.kind == "non-extremal-homogeneous"
        origin = "homogeneous_critical"
    else:
        k = cp.order // 2
        alpha = -n + n / 2.0 + n / (2.0 * k)
        ratio = n * (k + 1) / (2.0 * k)
        log_ok = cp.kind == "max" and n % 2 == 1
        origin = "schrodinger_critical"
    beta = 1 if log_ok and abs(ratio - round(ratio)) < _INT_TOL else 0
    laws.append(ScalingLaw(alpha=alpha, beta=beta, origin=origin))
    return tuple(laws)


def predict_scaling(model: SymbolModel, e_center: float | None = None) -> ScalingLaw:
    """The dominant branch: smallest alpha, log factor breaking ties."""
    if e_center is None:
        e_center = default_center(model)
    return _dominant(scaling_branches(model, e_center))


def _dominant(laws: tuple[ScalingLaw, ...]) -> ScalingLaw:
    return min(laws, key=lambda l: (l.alpha, -l.beta))


# ---------------------------------------------------------------------------
# Scans


@dataclass(frozen=True)
class ScanRow:
    h: float
    n_grid: int
    upsilon: float
    upsilon_obs: tuple[float, ...]
    residual_max: float
    tie: bool
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.error == ""

    @property
    def ratios(self) -> tuple[float, ...]:
        """Upsilon_a / Upsilon per observable; NaN on an empty or failed row."""
        return tuple(v / self.upsilon if self.upsilon > 0 else math.nan
                     for v in self.upsilon_obs)


_ROUTES = {"schrodinger1d": "fd", "phase1d": "split", "radial2d": "radial"}


@dataclass(frozen=True)
class ScanResult:
    model: str
    family: str
    e_center: float
    d: float
    ppw: int
    observable_ids: tuple[str, ...]
    rows: tuple[ScanRow, ...]

    @property
    def route(self) -> str:  # "fd" | "split" | "radial"
        return _ROUTES[self.family]

    def valid_rows(self) -> tuple[ScanRow, ...]:
        return tuple(r for r in self.rows if r.ok)


def default_h_values(route: str) -> tuple[float, ...]:
    """12 points over two decades for tridiagonal solvers, 8 over one otherwise.

    Split and radial routes stop at h = 1e-2: the split grid's Weyl matrices
    and the channel sweep grow too fast below that.
    """
    if route == "fd":
        return tuple(float(v) for v in np.geomspace(0.1, 0.001, 12))
    return tuple(float(v) for v in np.geomspace(0.1, 0.01, 8))


def solve_window(model: SymbolModel, h: float, e_center: float, d: float = WINDOW_D,
                 ppw: int = WINDOW_PPW, vectors: bool = True, h_max: float | None = None,
                 grid: Grid1D | None = None, *, values: bool = True) -> EigenWindow:
    """Eigenpairs of a model in the window [e_center - d h, e_center + d h].

    Potential models take the finite-difference route, split phase symbols
    f(x) + g(xi) the Hermite-basis route, and radial models the channels of
    :func:`radial_channels`, joined into one window on their shared radial
    grid whose ``m`` gives each state's channel.  The automatic grid sizes
    its box from ``h_max``, the largest h of the surrounding scan (``None``:
    this h), and ``grid`` replaces it on the 1D routes.  Either way the
    operator is checked against the resolution or aliasing policy at the
    window top.  ``values=False`` makes a count-only window: its count and
    edge flags come from eigenvalue counts, and its eigenvalues are NaN (see
    :func:`eigs_in_window`).
    """
    _check_window_args(h, d, ppw, h_max)
    lo, hi = e_center - d * h, e_center + d * h
    _check_window(lo, hi)
    if model.family == "radial2d":
        if grid is not None:
            raise ConfigError("radial windows size their own grid")
        chans = radial_channels(model.potential, h, lo, hi, d=d, h_max=h_max, ppw=ppw,
                                vectors=vectors, values=values)
        wins = [c.window for c in chans]
        return EigenWindow(
            h=h, lo=lo, hi=hi, eigenvalues=np.concatenate([w.eigenvalues for w in wins]),
            vectors=np.hstack([w.vectors for w in wins]) if vectors else None,
            edge_flags=np.concatenate([w.edge_flags for w in wins]),
            residual_max=max((w.residual_max for w in wins if w.residual_max is not None),
                             default=None),
            count_check=sum(w.count_check for w in wins), grid=wins[0].grid,
            m=np.repeat([c.m for c in chans], [w.count for w in wins]))
    if model.family == "schrodinger1d":
        if grid is None:
            grid = grid_for_schrodinger(model.potential, h, e_center, d=d,
                                        h_max=h_max, ppw=ppw)
        op = build_schrodinger(model.potential, h, grid, window_top=hi)
    else:
        f, g = model.split_parts()
        if grid is None:
            grid = grid_for_split(f, g, h, e_center, d=d, h_max=h_max)
        op = build_split(f, g, h, grid, window_top=hi)
    return eigs_in_window(op, lo, hi, vectors=vectors, values=values)


def _window_row(win: EigenWindow, obs_vals: tuple[float, ...]) -> ScanRow:
    """The scan row of a solved window and its Upsilon_a values."""
    return ScanRow(h=win.h, n_grid=win.grid.n, upsilon=upsilon(win), upsilon_obs=obs_vals,
                   residual_max=win.residual_max or 0.0, tie=win.has_ties)


def _scan_one(model: SymbolModel, h: float, h_max: float, e_center: float, d: float,
              ppw: int, observables: tuple[Observable, ...]) -> ScanRow:
    need_vectors = bool(observables)
    try:
        win = solve_window(model, h, e_center, d=d, ppw=ppw, vectors=need_vectors,
                           h_max=h_max, values=need_vectors)
        return _window_row(win, tuple(upsilon_a(win, o) if win.count else 0.0
                                      for o in observables))
    except (ConfigError, NumericalError) as exc:
        msg = str(exc).replace(",", ";").replace("\n", " ")
        return ScanRow(h=h, n_grid=0, upsilon=math.nan,
                       upsilon_obs=tuple(math.nan for _ in observables),
                       residual_max=math.nan, tie=False, error=msg)


def run_scan(
    model: SymbolModel | str,
    h_values=None,
    observables=(),
    e_center: float | None = None,
    d: float = WINDOW_D,
    ppw: int = WINDOW_PPW,
) -> ScanResult:
    """Windowed counts (and a-weighted counts) across an h grid.

    Rows are ordered by decreasing h.  A failing h (grid cap, aliasing,
    solver trouble) is recorded in its row's error column and the scan
    continues.  The geometry box is chosen once from the largest h so all
    rows share comparable grids.
    """
    if isinstance(model, str):
        model = get_model(model)
    if e_center is None:
        e_center = default_center(model)
    if h_values is None:
        h_values = default_h_values(_ROUTES[model.family])
    hs = sorted((float(v) for v in h_values), reverse=True)
    if not hs:
        raise ConfigError("empty h grid")
    for h in hs:
        _check_window_args(h, d, ppw, hs[0])
    _check_window(e_center - d * hs[-1], e_center + d * hs[-1])
    obs = tuple(parse_observable(o) if isinstance(o, str) else o for o in observables)
    if model.family == "radial2d":  # refused before the first solve, not in every row
        for o in obs:
            _check_radial_observable(o)
    rows = [_scan_one(model, h, hs[0], e_center, d, ppw, obs) for h in hs]
    return ScanResult(model=model.name, family=model.family, e_center=e_center,
                      d=d, ppw=ppw, observable_ids=tuple(o.id for o in obs),
                      rows=tuple(rows))


def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _csv_header(observable_ids) -> list[str]:
    header = ["h", "n_grid", "upsilon", "residual_max", "tie", "error"]
    for oid in observable_ids:
        header += [f"upsilon_a[{oid}]", f"ratio[{oid}]"]
    return header


def scan_to_csv(scan: ScanResult) -> str:
    """Deterministic CSV with scan metadata in leading comment lines."""
    out = io.StringIO()
    out.write(f"# model={scan.model}\n")
    out.write(f"# family={scan.family}\n")
    out.write(f"# e_center={_fmt(scan.e_center)}\n")
    out.write(f"# d={_fmt(scan.d)}\n")
    out.write(f"# route={scan.route}\n")
    out.write(f"# ppw={scan.ppw}\n")
    out.write(f"# observables={'|'.join(scan.observable_ids)}\n")
    w = csv.writer(out, lineterminator="\n")
    w.writerow(_csv_header(scan.observable_ids))
    for r in scan.rows:
        row = [_fmt(r.h), str(r.n_grid), _fmt(r.upsilon), _fmt(r.residual_max),
               "1" if r.tie else "0", r.error]
        for v, q in zip(r.upsilon_obs, r.ratios):
            row += [_fmt(v), _fmt(q)]
        w.writerow(row)
    return out.getvalue()


def _csv_row(rec: list[str], width: int) -> ScanRow:
    """One data row of ``scan_to_csv``; NaN only where it writes NaN."""
    if len(rec) != width:
        raise ConfigError(f"{len(rec)} fields, the header has {width}")
    if rec[4] not in ("0", "1"):
        raise ConfigError(f"tie must be 0 or 1, got {rec[4]!r}")
    try:
        h, ups, residual = float(rec[0]), float(rec[2]), float(rec[3])
        n_grid = int(rec[1])
        vals = tuple(float(v) for v in rec[6:])[0::2]
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # a failed row is all NaN
    if not rec[5] and not all(math.isfinite(v) for v in (ups, residual, *vals)):
        raise ConfigError("non-finite value in a row without an error")
    return ScanRow(h=h, n_grid=n_grid, upsilon=ups, upsilon_obs=vals,
                   residual_max=residual, tie=rec[4] == "1", error=rec[5])


def scan_from_csv(text: str) -> ScanResult:
    """Parse the output of ``scan_to_csv``; anything else is a ConfigError.
    The route line and the ratio columns must parse, but are derived again."""
    meta = {}
    data_lines = []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, val = line[2:].partition("=")
            meta[key] = val
        elif line.strip():
            data_lines.append(line)
    required = ("model", "family", "e_center", "d", "route", "ppw", "observables")
    missing = [k for k in required if k not in meta]
    if missing:
        raise ConfigError(f"scan CSV is missing metadata keys: {', '.join(missing)}")
    try:
        e_center, d, ppw = float(meta["e_center"]), float(meta["d"]), int(meta["ppw"])
        if meta["family"] not in _ROUTES or not math.isfinite(e_center):
            raise ConfigError(f"family must be one of {', '.join(_ROUTES)}; e_center finite")
        _check_window_args(None, d, ppw)
    except ValueError as exc:  # ConfigError is one
        raise ConfigError(f"scan CSV metadata: {exc}") from None
    obs_ids = tuple(o for o in meta["observables"].split("|") if o)
    header = _csv_header(obs_ids)
    rows = []
    try:
        reader = csv.reader(data_lines)
        if next(reader, None) != header:
            raise ConfigError(f"scan CSV header must be {','.join(header)}")
        for lineno, rec in enumerate(reader, 2):
            try:
                rows.append(_csv_row(rec, len(header)))
                _check_window_args(rows[-1].h, d, ppw)
            except ConfigError as exc:
                raise ConfigError(f"scan CSV data line {lineno}: {exc}") from None
    except csv.Error as exc:
        raise ConfigError(f"scan CSV: {exc}") from None
    return ScanResult(model=meta["model"], family=meta["family"], e_center=e_center,
                      d=d, ppw=ppw, observable_ids=obs_ids, rows=tuple(rows))


# ---------------------------------------------------------------------------
# Fits


@dataclass(frozen=True)
class FitResult:
    alpha_hat: float
    beta_hat: int
    coeff_hat: float
    offset_hat: float  # fitted constant background, 0 for pure-law fits
    residual: float  # rms misfit of the counts
    law: str  # "free" or the origin label of the winning candidate
    n_rows: int
    decades: float
    burned: int  # rows dropped because their window touched another critical level


def _fit_rows(scan_or_rows):
    if isinstance(scan_or_rows, ScanResult):
        rows = [(r.h, r.upsilon) for r in scan_or_rows.valid_rows()]
    else:
        rows = [(float(h), float(u)) for h, u in scan_or_rows]
    rows = [(h, u) for h, u in rows if u > 0 and math.isfinite(u)]
    if not all(_H_MIN <= h < math.inf for h, _ in rows):
        raise ConfigError(f"fits take finite h >= {_H_MIN:g}")
    rows.sort(key=lambda r: -r[0])
    if len(rows) < 5:
        raise ConfigError(f"need at least 5 usable rows to fit, got {len(rows)}")
    return rows


def _decades(rows) -> float:
    hs = [r[0] for r in rows]
    return math.log10(max(hs) / min(hs))


def _burn_in(rows, scan_or_rows):
    """Drop rows whose count window reaches another critical energy.

    Rows are tuples whose first entry is h.

    A window [E_c - d h, E_c + d h] that contains a second critical level
    counts states from a different spectral regime; such rows do not follow
    the E_c law and would bias the exponent.  The critical levels come from
    the scan's catalog model: bare rows, and a scan whose model is not in
    the catalog, keep every row.  The filter applies only when it leaves
    enough rows for a valid fit.
    """
    if not isinstance(scan_or_rows, ScanResult):
        return rows, 0
    try:
        model = get_model(scan_or_rows.model)
    except KeyError:
        return rows, 0
    e_center, d = scan_or_rows.e_center, scan_or_rows.d
    on_center = model.critical_points_at(e_center)
    gaps = [abs(c.critical_energy - e_center) for c in model.critical_points
            if c not in on_center]
    if not gaps:
        return rows, 0
    nearest = min(gaps)
    kept = [r for r in rows if d * r[0] < nearest]
    if len(kept) >= 5 and _decades(kept) >= 1.0 - 1e-9:
        return kept, len(rows) - len(kept)
    return rows, 0


def _family_fit(hs, us, beta, offset, alpha_hi=0.5):
    """Best nonnegative LS of A + c h^alpha |log h|^beta over an alpha grid."""
    from scipy.optimize import nnls

    best = None
    for alpha in np.arange(_ALPHA_MIN, alpha_hi + 1e-9, 0.005):
        w = hs**alpha * np.abs(np.log(hs)) ** beta
        design = np.column_stack([np.ones_like(hs), w]) if offset else w[:, None]
        sol, rnorm = nnls(design, us)
        rss = rnorm * rnorm
        if best is None or rss < best[0] - 1e-12 or (
                abs(rss - best[0]) <= 1e-12 and abs(alpha) < abs(best[1])):
            coeff = float(sol[1]) if offset else float(sol[0])
            bg = float(sol[0]) if offset else 0.0
            best = (rss, float(alpha), coeff, bg)
    return best


def fit_scaling(scan_or_rows, candidates=()) -> FitResult:
    """Fit the window-count law A + c h^alpha |log h|^beta to scan rows.

    Free fit (no candidates): after the burn-in filter, four model families
    compete -- pure power, pure power with a |log h| factor, and both with
    an additive constant background (the regular part of the surface away
    from the critical point contributes a constant to the windowed count).
    Coefficients are kept nonnegative, alpha is profiled on a grid, and the
    winner is chosen by BIC with a parsimony tie-break: within 2 BIC of the
    leader, fewer parameters win, then the smaller beta.  The background
    pure-power family is restricted to alpha <= -0.1 because it becomes
    indistinguishable from the log family as alpha -> 0.

    With candidates, each candidate's exponents are held fixed, only the
    coefficient is estimated, and the best-residual candidate is returned.
    Needs >= 5 usable rows spanning at least a decade of h.
    """
    rows = _fit_rows(scan_or_rows)
    rows, burned = _burn_in(rows, scan_or_rows)
    decades = _decades(rows)
    if decades < 1.0 - 1e-9:
        raise ConfigError(f"h range spans {decades:.2f} decades; need at least one")
    hs = np.array([h for h, _ in rows])
    us = np.array([u for _, u in rows])
    n = hs.size

    if candidates:
        best = None
        for cand in candidates:
            w = hs**cand.alpha * np.abs(np.log(hs)) ** cand.beta
            c = max(0.0, float(w @ us) / float(w @ w))
            rss = float(np.sum((c * w - us) ** 2))
            if best is None or rss < best[0]:
                best = (rss, cand, c)
        rss, cand, c = best
        return FitResult(alpha_hat=cand.alpha, beta_hat=cand.beta, coeff_hat=c,
                         offset_hat=0.0, residual=math.sqrt(rss / n),
                         law=cand.origin, n_rows=n, decades=decades, burned=burned)

    entries = []
    for beta in (0, 1):
        rss, alpha, coeff, bg = _family_fit(hs, us, beta, offset=False)
        entries.append((rss, 2, beta, alpha, coeff, bg))
    rss, alpha, coeff, bg = _family_fit(hs, us, 0, offset=True, alpha_hi=-0.1)
    entries.append((rss, 3, 0, alpha, coeff, bg))
    rss, alpha, coeff, bg = _family_fit(hs, us, 1, offset=True)
    entries.append((rss, 3, 1, alpha, coeff, bg))

    scored = sorted(
        ((n * math.log(max(rss, 1e-280) / n) + k * math.log(n), k, beta, alpha, coeff, bg, rss)
         for rss, k, beta, alpha, coeff, bg in entries),
        key=lambda e: e[0])
    lead = scored[0]
    for e in scored[1:]:
        if e[0] - lead[0] < 2.0 and (e[1], e[2]) < (lead[1], lead[2]):
            lead = e
    _, _, beta, alpha, coeff, bg, rss = lead
    return FitResult(alpha_hat=alpha, beta_hat=beta, coeff_hat=coeff, offset_hat=bg,
                     residual=math.sqrt(rss / n), law="free", n_rows=n,
                     decades=decades, burned=burned)


def fit_log_coefficient(scan_or_rows) -> tuple[float, float]:
    """(intercept, slope) of the linear model Upsilon = A + B |log h|.

    The natural parametrization of a logarithmic counting law: the slope B
    is the |log h| coefficient, directly comparable between potentials (it
    scales like |V''|^(-1/2) at a quadratic barrier top, so ratios cancel
    the unknown universal constant).  Uses every valid row: the linear
    model absorbs regime crossover into the intercept and the wide lever
    arm sharpens the slope.
    """
    rows = _fit_rows(scan_or_rows)
    if _decades(rows) < 1.0 - 1e-9:
        raise ConfigError("h range must span at least one decade")
    hs = np.array([h for h, _ in rows])
    us = np.array([u for _, u in rows])
    offset, slope = _line_fit(np.abs(np.log(hs)), us)
    return float(offset), float(slope)


def _line_fit(w, y):
    """Least-squares (A, B) of y = A + B w; y may hold one column per series."""
    design = np.column_stack([np.ones(len(w)), w])
    (a, b), *_ = np.linalg.lstsq(design, y, rcond=None)
    return a, b


def _log_log_slope(hs, values) -> float:
    """Slope of log(value) against log(h); positive means decay as h -> 0.

    Points whose value is not positive and finite have no logarithm and are
    left out; at least 3 must remain.
    """
    hs = np.asarray(hs, dtype=float)
    vals = np.asarray(values, dtype=float)
    keep = np.isfinite(vals) & (vals > 0.0)
    if keep.sum() < 3:
        raise NumericalError("log-log slope needs at least 3 positive values")
    return float(_line_fit(np.log(hs[keep]), np.log(vals[keep]))[1])


# ---------------------------------------------------------------------------
# Ratio limits


@dataclass(frozen=True)
class RatioLimit:
    observable_id: str
    target_kind: str  # "liouville" | "dirac"
    target_value: float
    h: tuple[float, ...]
    ratios: tuple[float, ...]
    gaps: tuple[float, ...]
    gap_at_h_min: float
    trend_exponent: float
    extrapolated: float
    converged: bool


def _observable_column(scan: ScanResult, observable_id: str) -> tuple[Observable, int]:
    obs = parse_observable(observable_id)
    if obs.id not in scan.observable_ids:
        raise ConfigError(f"scan has no observable {observable_id!r}")
    return obs, scan.observable_ids.index(obs.id)


def _ratio_target(model: SymbolModel, obs: Observable, e_center: float, target: str,
                  cp: CriticalPoint | None) -> float:
    """Target value of a ratio-limit check; ``cp`` is the point
    ``isolated_critical_point`` admits at ``e_center``, read by ``dirac`` only."""
    if target == "liouville":
        return mu_average(model, obs, e_center)
    if target == "dirac":
        if cp is None:
            raise ConfigError(f"no critical point at E={e_center:.6g} for a dirac target")
        return float(obs(cp.z0[0], cp.z0[1]))
    raise ConfigError(f"unknown ratio target {target!r}")


def ratio_limit(scan: ScanResult, observable_id: str, target: str = "liouville",
                tol: float = 0.15) -> RatioLimit:
    """Convergence of Upsilon_a / Upsilon toward its semiclassical target.

    ``liouville`` compares against the normalized Liouville average of a on
    the center energy surface and refuses divergent surfaces; ``dirac``
    compares against a evaluated at the critical point sitting on that
    surface.  The trend exponent is the log-log slope of the gap (a gap of
    exactly zero has no logarithm and is left out of it); a positive slope
    plus a final gap within ``tol`` counts as converged.
    The extrapolated column is the Aitken limit of the ratio sequence.
    """
    model = get_model(scan.model)
    obs, idx = _observable_column(scan, observable_id)
    cp = isolated_critical_point(model, scan.e_center) if target == "dirac" else None
    target_value = _ratio_target(model, obs, scan.e_center, target, cp)
    pts = [(r.h, r.ratios[idx]) for r in scan.valid_rows()
           if math.isfinite(r.ratios[idx])]
    if len(pts) < 3:
        raise NumericalError("need at least 3 valid rows for a ratio trend")
    hs = tuple(h for h, _ in pts)
    ratios = tuple(q for _, q in pts)
    gaps = tuple(abs(q - target_value) for q in ratios)
    slope = _log_log_slope(hs, gaps)

    r1, r2, r3 = ratios[-3], ratios[-2], ratios[-1]
    denom = (r3 - r2) - (r2 - r1)
    extrapolated = r3 - (r3 - r2) ** 2 / denom if abs(denom) > 1e-14 else r3
    converged = slope > 0.0 and gaps[-1] <= tol
    return RatioLimit(observable_id=observable_id, target_kind=target,
                      target_value=target_value, h=hs, ratios=ratios, gaps=gaps,
                      gap_at_h_min=gaps[-1], trend_exponent=slope,
                      extrapolated=float(extrapolated), converged=converged)


@dataclass(frozen=True)
class SingularLimit:
    observable_id: str
    target_kind: str  # "liouville" | "dirac"
    target_value: float
    alpha: float  # predicted law h^alpha |log h|^beta of the singular part
    beta: int
    offset: float  # A in Upsilon = A + c h^alpha |log h|^beta
    coeff: float  # c
    offset_a: float  # the same two for Upsilon_a
    coeff_a: float
    limit: float  # c_a / c; NaN when c <= 0
    gap: float  # |limit - target_value|; NaN when c <= 0
    h: tuple[float, ...]  # the rows the fit used
    burned: int
    passed: bool


def singular_limit(scan: ScanResult, observable_id: str, target: str = "dirac",
                   tol: float = 0.15) -> SingularLimit:
    """h -> 0 limit of Upsilon_a / Upsilon from the singular parts of both counts.

    The window count grows like A + c w(h) with w(h) = h^alpha |log h|^beta
    the law of ``predict_scaling``, and the a-weighted count like
    A_a + c_a w(h), so the ratio tends to c_a / c.  At a fixed h the ratio
    still carries the regular parts A and A_a, which fade only like 1 / w(h):
    logarithmically at a hyperbolic point, so no fixed-h gap is promised.
    Both pairs (A, c) come from linear least squares, offsets of either
    sign, on the rows the burn-in keeps.  A count whose fitted c is not
    positive does not grow by the singular law: its limit and gap are NaN
    and the verdict fails, with no division.
    """
    model = get_model(scan.model)
    obs, idx = _observable_column(scan, observable_id)
    # the one gate call: the Dirac target and the law read the same point
    cp = isolated_critical_point(model, scan.e_center)
    target_value = _ratio_target(model, obs, scan.e_center, target, cp)
    law = _dominant(_branches_at(model, cp))
    if law.alpha == 0.0 and law.beta == 0:
        raise ConfigError(
            f"the count at E={scan.e_center:.6g} has no growing part to separate "
            "from its offset; use ratio_limit")
    rows = [(r.h, r.upsilon, r.upsilon_obs[idx]) for r in scan.valid_rows()
            if math.isfinite(r.upsilon_obs[idx])]
    rows, burned = _burn_in(rows, scan)
    if len(rows) < 3:
        raise NumericalError("need at least 3 valid rows for a singular-part fit")
    hs, us, uas = (np.array(col) for col in zip(*rows))
    (offset, offset_a), (coeff, coeff_a) = _line_fit([law.weight(h) for h in hs],
                                                     np.column_stack([us, uas]))
    limit = gap = math.nan
    if coeff > 0.0:
        limit = float(coeff_a / coeff)
        gap = abs(limit - target_value)
    return SingularLimit(observable_id=observable_id, target_kind=target,
                         target_value=target_value, alpha=law.alpha, beta=law.beta,
                         offset=float(offset), coeff=float(coeff),
                         offset_a=float(offset_a), coeff_a=float(coeff_a),
                         limit=limit, gap=gap, h=tuple(float(h) for h in hs),
                         burned=burned, passed=bool(gap <= tol))


def log_decay_slope(scan: ScanResult, observable_id: str) -> float:
    """Slope B of Upsilon / Upsilon_a = A + B |log h| on the burn-in rows.

    For a nonnegative a vanishing at the critical point, a count that
    concentrates there logarithmically makes the window average
    Upsilon_a / Upsilon fall like 1 / |log h|, so B > 0; at a regular
    energy the average settles to a constant and B is about zero.
    """
    _obs, idx = _observable_column(scan, observable_id)
    rows = [(r.h, r.upsilon / r.upsilon_obs[idx]) for r in scan.valid_rows()
            if r.upsilon_obs[idx] > 0.0]
    rows, _burned = _burn_in(rows, scan)
    return fit_log_coefficient(rows)[1]


# ---------------------------------------------------------------------------
# Two symmetric barrier tops


@dataclass(frozen=True)
class TwoWellsRow:
    h: float
    count: int
    left_fraction: float
    pair_gaps: tuple[float, ...]
    state_splits: tuple[tuple[float, float], ...]  # (eigenvalue, left share)


@dataclass(frozen=True)
class TwoWellsResult:
    model: str
    e_center: float
    x_crit: float
    rows: tuple[TwoWellsRow, ...]

    @property
    def worst_asymmetry(self) -> float:
        return max((abs(r.left_fraction - 0.5) for r in self.rows
                    if math.isfinite(r.left_fraction)), default=math.nan)


def two_wells_experiment(h_values=(0.05, 0.035, 0.025, 0.018, 0.012, 0.008)) -> TwoWellsResult:
    """Mass distribution between two symmetric critical points.

    The two-max potential x^2 (x^2 - 1)^2 carries two barrier tops at
    x = +-1/sqrt(3) sharing one critical energy.  How the eigenfunction
    mass distributes between them is an open question, so this experiment
    only reports data: per-window aggregate left/right shares of Gaussian
    bumps centered on the tops, per-eigenpair shares, and the spectral
    gaps of consecutive pairs.  Because eigenfunctions of the symmetric
    operator come in parity classes, the aggregate left fraction is 1/2
    up to solver roundoff; nothing here gates a build.
    """
    model = get_model("two-max")
    tops = [c for c in model.critical_points if c.kind == "max"]
    x0 = max(abs(c.z0[0]) for c in tops)
    e_center = tops[0].critical_energy
    left = parse_observable(f"exp(-{_BUMP_WIDTH:.12g}*(x + {x0:.12g})^2)")
    right = parse_observable(f"exp(-{_BUMP_WIDTH:.12g}*(x - {x0:.12g})^2)")
    rows = []
    hs = sorted(float(v) for v in h_values)
    for h in reversed(hs):
        win = solve_window(model, h, e_center, h_max=max(hs))
        if win.count == 0:
            rows.append(TwoWellsRow(h=h, count=0, left_fraction=math.nan,
                                    pair_gaps=(), state_splits=()))
            continue
        lv, _ = weyl_averages(win, left)
        rv, _ = weyl_averages(win, right)
        frac = float(np.sum(lv) / (np.sum(lv) + np.sum(rv)))
        lam = win.eigenvalues
        splits = tuple((float(lam[j]), float(lv[j] / (lv[j] + rv[j])))
                       for j in range(lam.size))
        gaps = tuple(float(lam[i + 1] - lam[i]) for i in range(0, lam.size - 1, 2))
        rows.append(TwoWellsRow(h=h, count=int(win.count), left_fraction=frac,
                                pair_gaps=gaps, state_splits=splits))
    return TwoWellsResult(model="two-max", e_center=float(e_center), x_crit=x0,
                          rows=tuple(rows))
