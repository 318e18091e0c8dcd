"""Seeded inputs and the three benchmark workloads.

Every workload drives semiclab through its public API only and returns what
the checker needs to certify its outputs.  Inputs come from ``make_inputs``:
seed 0 gives the frozen h grids named in README.md, any other seed scales
each h by a relative jitter of at most ``JITTER`` and keeps the grid-size
profile of seed 0: the same dense N per row (checked here), and
finite-difference n within ``PROFILE_RTOL`` (n is proportional to 1/h, so a
0.5% jitter keeps it; the self-tests check it).

Importing this module imports semiclab, so the worker imports it only after
starting the set-up clock.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass

import numpy as np

import semiclab
from semiclab import cli
from semiclab.classical import coarea_check, levelset_connected
from semiclab.eig import eigs_in_window
from semiclab.errors import ConfigError, HypothesisError, NumericalError
from semiclab.experiments import fit_scaling, ratio_limit, run_scan
from semiclab.microlocal import egorov_defect, microlocal_records
from semiclab.model import get_model
from semiclab.observables import parse_observable
from semiclab.quantize import build_schrodinger, grid_for_schrodinger, grid_for_split

GAUSS_PHASE = "exp(-x^2-xi^2)"
GAUSS_1D = "exp(-x^2)"
D = 5.0
PPW = 64
JITTER = 0.005
PROFILE_RTOL = 0.02

# A failure the program reports through its own error types; anything else
# is a defect and ends the run.
SEMICLAB_ERRORS = (ConfigError, NumericalError, HypothesisError)

COUNT_MODELS = ("quad-max", "quad-max-steep")
COUNT_GRID = (1e-1, 1e-4, 24)
DENSE_GRID = (1e-1, 2.2e-3, 12)


def _geom(h_from: float, h_to: float, steps: int) -> list[float]:
    return [float(v) for v in np.geomspace(h_from, h_to, steps)]


@dataclass(frozen=True)
class WindowSpec:
    """One finite-difference window as the acceptance scenarios build it."""

    model: str
    h: float
    e_center: float
    h_max: float


@dataclass(frozen=True)
class Inputs:
    workload: str
    seed: int
    params: dict


# ---------------------------------------------------------------------------
# Input generation


def split_grid_n(model: str, h: float, e_center: float, h_max: float) -> int:
    f, g = get_model(model).phase_poly.split_parts()
    return grid_for_split(f, g, h, e_center, d=D, h_max=h_max).n


def _jitter(values, rng: random.Random, amplitude: float) -> list[float]:
    return [v * (1.0 + amplitude * rng.uniform(-1.0, 1.0)) for v in values]


def dense_profile(hs) -> list[int]:
    return [split_grid_n("pseudo-k3", h, 0.0, max(hs)) for h in hs]


def _jitter_dense(hs, rng: random.Random, amplitude: float) -> list[float]:
    """Jitter every h but the largest, which fixes the box of all rows.

    A jittered h whose dense N differs from seed 0's is put back.
    """
    jittered = [hs[0]] + _jitter(hs[1:], rng, amplitude)
    return [h if n == n0 else h0
            for h, h0, n, n0 in zip(jittered, hs, dense_profile(jittered), dense_profile(hs))]


def _frozen_windows() -> dict:
    """The h grids of property-suite and dirac-concentration-1d.

    Each group maps to (specs, shared): a shared group sizes every box from
    its largest h, as a scan does.
    """
    return {
        "reference": ([WindowSpec("harmonic", 0.02, 1.0, 0.02),
                       WindowSpec("quad-max", 0.01, 0.5, 0.01)], False),
        "gap": (_group("harmonic", 1.0, _geom(0.1, 0.02, 5), True), True),
        "egorov": (_group("quad-max", 0.5, _geom(0.1, 0.02, 5), True), True),
        "dirac": (_group("quad-max", 0.0, _geom(1e-1, 1e-3, 10), True), True),
    }


def _group(model: str, e_center: float, hs, shared: bool) -> list[WindowSpec]:
    return [WindowSpec(model, h, e_center, hs[0] if shared else h) for h in hs]


def _jitter_windows(windows: dict, rng: random.Random, amplitude: float) -> dict:
    out = {}
    for name, (specs, shared) in windows.items():
        hs = _jitter([w.h for w in specs], rng, amplitude)
        out[name] = ([WindowSpec(w.model, h, w.e_center, hs[0] if shared else h)
                      for w, h in zip(specs, hs)], shared)
    return out


def make_inputs(workload: str, seed: int) -> Inputs:
    """Deterministic inputs of one workload; seed 0 is the frozen grid."""
    if workload not in RUNNERS:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(RUNNERS)}")
    # seed 0 takes the same path with a zero jitter, so set-up work does
    # not depend on the seed
    rng = random.Random(seed)
    amplitude = JITTER if seed != 0 else 0.0
    if workload == "count-scan":
        h_from, h_to = _jitter(COUNT_GRID[:2], rng, amplitude)
        return Inputs(workload, seed, {"models": COUNT_MODELS, "h_from": h_from,
                                       "h_to": h_to, "steps": COUNT_GRID[2]})
    if workload == "dense-window":
        hs = _jitter_dense(_geom(*DENSE_GRID), rng, amplitude)
        return Inputs(workload, seed, {"model": "pseudo-k3", "hs": hs,
                                       "observable": parse_observable(GAUSS_PHASE)})
    windows = _jitter_windows(_frozen_windows(), rng, amplitude)
    radial_h = _jitter(_geom(1e-1, 1e-2, 10), rng, amplitude)
    return Inputs(workload, seed, {
        "windows": {k: specs for k, (specs, _shared) in windows.items()},
        "radial_h": radial_h,
        "gauss": parse_observable(GAUSS_PHASE), "unit": parse_observable("1"),
        "xsq": parse_observable("x^2"), "gauss_1d": parse_observable(GAUSS_1D),
    })


def setup(workload: str, seed: int) -> Inputs:
    """Catalog build plus input generation: the work ``setup_s`` times."""
    semiclab.get_model("harmonic")
    return make_inputs(workload, seed)


# ---------------------------------------------------------------------------
# Workloads


class Tally:
    """Attempted and failed units of one workload run."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    def run(self, label: str, fn, *args, **kw):
        self.attempted += 1
        try:
            return fn(*args, **kw)
        except SEMICLAB_ERRORS as exc:
            self.errors.append(f"{label}: {type(exc).__name__}: {exc}")
            return None


def count_scan(inp: Inputs, workdir: str, tally: Tally) -> dict:
    """`semiclab scan` then `semiclab fit` for both log-law models."""
    p = inp.params
    out = {}
    for model in p["models"]:
        csv_path = os.path.join(workdir, f"{model}.csv")
        fit_path = os.path.join(workdir, f"{model}.fit.json")
        for path in (csv_path, fit_path):
            if os.path.exists(path):
                os.remove(path)
        rc_scan = cli.main(["scan", "--model", model, "--h-from", repr(p["h_from"]),
                            "--h-to", repr(p["h_to"]), "--h-steps", str(p["steps"]),
                            "--out", csv_path])
        rc_fit = None
        if rc_scan == 0:
            rc_fit = cli.main(["fit", "--in", csv_path, "--out", fit_path])
        out[model] = {"csv": csv_path, "fit": fit_path, "rc_scan": rc_scan, "rc_fit": rc_fit}
    return out


def dense_window(inp: Inputs, workdir: str, tally: Tally) -> dict:
    """The k3 scan on the dense route, its fit and its Dirac ratio limit."""
    p = inp.params
    scan = run_scan(p["model"], h_values=p["hs"], observables=(p["observable"],),
                    e_center=0.0, d=D)
    fit = tally.run("fit_scaling", fit_scaling, scan)
    rl = tally.run("ratio_limit", ratio_limit, scan, GAUSS_PHASE, target="dirac", tol=0.15)
    return {"scan": scan, "fit": fit, "ratio": rl}


def _solve(spec: WindowSpec):
    m = get_model(spec.model)
    lo, hi = spec.e_center - D * spec.h, spec.e_center + D * spec.h
    grid = grid_for_schrodinger(m.potential, spec.h, spec.e_center, d=D,
                                h_max=spec.h_max, ppw=PPW)
    op = build_schrodinger(m.potential, spec.h, grid, window_top=hi)
    win = eigs_in_window(op, lo, hi, vectors=True)
    return op, win


def _window_entry(spec: WindowSpec, op, win) -> dict:
    """Only the operator's two diagonals are kept, never the eigenvectors."""
    return {"spec": spec, "diag": op.diag, "offdiag": op.offdiag, "lo": win.lo,
            "hi": win.hi, "count": int(win.count), "n": int(op.size)}


def _max_gap(win, obs, target):
    return max(abs(r.nu_weyl - target) for r in microlocal_records(win, obs))


def eigenfunction_measure(inp: Inputs, workdir: str, tally: Tally) -> dict:
    """The public calls of property-suite, dirac-concentration-1d and
    liouville-limit-2d, in scenario order."""
    p = inp.params
    wins = p["windows"]
    gauss, unit, xsq = p["gauss"], p["unit"], p["xsq"]
    entries: list[dict] = []
    vals: dict = {}

    def window(spec):
        solved = tally.run(f"window {spec.model} h={spec.h:.6g}", _solve, spec)
        if solved is None:
            return None
        entries.append(_window_entry(spec, *solved))
        return solved[1]

    # property-suite: normalization, positivity, gap and Egorov decay
    ref = [window(s) for s in wins["reference"]]
    vals["norm_gap"] = [tally.run("weyl_normalization", _max_gap, w, unit, 1.0)
                        for w in ref if w is not None]
    vals["antiwick_min"] = [
        tally.run("antiwick", lambda w, o: min(r.nu_antiwick for r in microlocal_records(w, o)),
                  ref[0], o) for o in (gauss, xsq) if ref[0] is not None]
    vals["gap"] = []
    for spec in wins["gap"]:
        w = window(spec)
        if w is not None:
            vals["gap"].append(tally.run(
                "gap", lambda w: max(r.gap for r in microlocal_records(w, gauss)), w))
    vals["egorov"] = []
    model_qm = get_model("quad-max")
    for spec in wins["egorov"]:
        w = window(spec)
        if w is not None:
            vals["egorov"].append(tally.run("egorov_defect", egorov_defect,
                                            model_qm, gauss, 0.5, w))
    vals["coarea"] = [tally.run("coarea_check", coarea_check, get_model(m), lo, hi)
                      for m, lo, hi in (("harmonic", 0.8, 1.2), ("radial-deg", 0.05, 0.15))]
    hs_fit = _geom(1e-1, 1e-3, 12)
    vals["synthetic_fit"] = [
        tally.run("fit_scaling", fit_scaling, [(h, fn(h)) for h in hs_fit])
        for fn in (lambda h: 3.7 * h ** -0.25, lambda h: 2.0 * abs(math.log(h)))]

    # dirac-concentration-1d
    vals["levelset"] = tally.run("levelset_connected", levelset_connected, model_qm, 0.0)
    vals["dirac_gap"] = []
    last = None
    for spec in wins["dirac"]:
        w = window(spec)
        if w is not None:
            vals["dirac_gap"].append(tally.run("dirac_gap", _max_gap, w, gauss, 1.0))
            last = w
    if last is not None:
        j = int(np.argmin(np.abs(last.eigenvalues)))
        psi = np.asarray(last.vectors[:, j], dtype=float)
        x = last.grid.nodes
        vals["second_moment"] = float(np.sum(x * x * psi * psi))

    # liouville-limit-2d
    scan = run_scan("radial-deg", h_values=p["radial_h"], observables=(p["gauss_1d"],),
                    e_center=0.0, d=D)
    vals["radial_ratio"] = tally.run("ratio_limit", ratio_limit, scan, GAUSS_1D,
                                     target="liouville", tol=0.10)
    vals["radial_coarea"] = tally.run("coarea_check", coarea_check,
                                      get_model("radial-deg"), 0.05, 0.15)
    return {"windows": entries, "values": vals, "radial_scan": scan}


RUNNERS = {
    "count-scan": count_scan,
    "dense-window": dense_window,
    "eigenfunction-measure": eigenfunction_measure,
}
