"""Per-eigenfunction phase-space averages and windowed spectral counting.

Every window eigenfunction psi_j gets two phase-space averages of an
observable a:

* the Weyl route <Op(a) psi_j, psi_j>, evaluated by the cheapest exact
  discretization the observable's routing class allows: position-only
  symbols are diagonal sums, momentum-only symbols one FFT, split symbols
  the sum of both, and genuinely mixed symbols a dense Weyl matrix (grid
  capped, so mixed observables belong on the moderate-size spectral grids);

* the anti-Wick route, a nonnegative average of the Husimi density over a
  coherent-state lattice.

The two routes differ by O(h); their gap is a useful convergence
diagnostic and is never collapsed into a single number silently.  Counting
functions: ``upsilon`` is the plain (multiplicity-weighted) number of window
states, ``upsilon_a`` the a-weighted count through the Weyl route, so that
``upsilon_a == upsilon`` when a is identically 1.  Mixed observables on
grids past the dense cap fall back to the anti-Wick value as the reference
(the record's method label says so).

Radial 2D windows support position-only observables a(r); their records
carry NaN in the anti-Wick slot since no planar coherent frame exists for
them here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import flow_points
from .eig import EigenWindow, RadialChannel
from .errors import NumericalError
from .model import SymbolModel
from .observables import Observable
from .quantize import (
    DENSE_CAP,
    CoherentFrame,
    build_coherent_frame,
    build_weyl_observable,
    antiwick_batch,
)

__all__ = [
    "MicrolocalRecord",
    "weyl_averages",
    "antiwick_averages",
    "microlocal_records",
    "default_frame",
    "upsilon",
    "upsilon_a",
    "radial_state_averages",
    "egorov_defect",
]


@dataclass(frozen=True)
class MicrolocalRecord:
    j: int  # index of the state inside its window
    h: float
    eigenvalue: float
    observable_id: str
    nu_weyl: float
    nu_antiwick: float
    antiwick_mass: float
    method: str  # discretization used on the Weyl side

    @property
    def gap(self) -> float:
        return abs(self.nu_weyl - self.nu_antiwick)


def _window_matrix(window: EigenWindow) -> np.ndarray:
    if window.vectors is None:
        raise ValueError("window was solved without eigenvectors")
    return window.vectors


def weyl_averages(window: EigenWindow, obs: Observable) -> tuple[np.ndarray, str]:
    """<Op(a) psi, psi> for every window state, plus the method label."""
    v = _window_matrix(window)
    grid = window.grid
    h = window.h
    dens = np.abs(v) ** 2  # (n, k)

    if obs.routing == "position_only":
        ax = np.asarray(obs(grid.nodes, 0.0), dtype=float)
        return ax @ dens, "diagonal"

    xi = grid.xi_values(h)
    if obs.routing == "momentum_only":
        spec = np.fft.fft(v, axis=0) / math.sqrt(grid.n)
        axi = np.asarray(obs(0.0, xi), dtype=float)
        return axi @ (np.abs(spec) ** 2), "multiplier"

    if obs.routing == "split":
        x_part, xi_part = obs.split_parts()
        out = np.zeros(v.shape[1])
        if x_part is not None:
            out += np.asarray(x_part.eval(grid.nodes, 0.0), dtype=float) @ dens
        if xi_part is not None:
            spec = np.fft.fft(v, axis=0) / math.sqrt(grid.n)
            out += np.asarray(xi_part.eval(0.0, xi), dtype=float) @ (np.abs(spec) ** 2)
        return out, "split"

    if grid.n > DENSE_CAP:
        raise NumericalError(
            f"mixed observable {obs.id!r} needs a dense Weyl matrix but the grid "
            f"has {grid.n} > {DENSE_CAP} points; use the anti-Wick reference route")
    op = build_weyl_observable(lambda x, s: obs(x, s), h, grid)
    out = np.empty(v.shape[1])
    for j in range(v.shape[1]):
        col = v[:, j].astype(complex)
        out[j] = float(np.real(np.vdot(col, op.matrix @ col)))
    return out, "weyl-dense"


def _auto_xi_span(window: EigenWindow, coverage: float = 0.999) -> tuple[float, float]:
    """Momentum span actually occupied by the window states, with margin."""
    v = _window_matrix(window)
    grid = window.grid
    xi = grid.xi_values(window.h)
    power = np.sum(np.abs(np.fft.fft(v, axis=0)) ** 2, axis=1)
    power /= np.sum(power)
    order = np.argsort(np.abs(xi))
    cum = np.cumsum(power[order])
    cut_idx = int(np.searchsorted(cum, coverage))
    xi_cut = float(np.abs(xi)[order][min(cut_idx, xi.size - 1)])
    pad = 6.0 * math.sqrt(window.h)
    return (-xi_cut - pad, xi_cut + pad)


def default_frame(window: EigenWindow, xi_span: tuple[float, float] | None = None) -> CoherentFrame:
    if xi_span is None:
        xi_span = _auto_xi_span(window)
    return build_coherent_frame(window.grid, window.h, xi_span)


def antiwick_averages(
    window: EigenWindow,
    obs,
    frame: CoherentFrame | None = None,
) -> tuple[np.ndarray, np.ndarray, CoherentFrame]:
    """Anti-Wick averages and captured masses for every window state.

    ``obs`` is a callable a(x, xi) or a precomputed table over the frame
    lattice (x_centers by xi_centers).
    """
    if frame is None:
        frame = default_frame(window)
    v = _window_matrix(window)
    psis = np.ascontiguousarray(v.T)
    vals, masses, _low = antiwick_batch(frame, window.grid, psis, obs)
    return vals, masses, frame


def _weyl_or_reference(window: EigenWindow, obs: Observable,
                       frame: CoherentFrame | None):
    """Weyl averages, or the anti-Wick values when no dense route exists.

    Mixed observables on grids past the dense cap have no affordable exact
    Weyl matrix; the anti-Wick average then serves as the reference value
    and the method label records the substitution.
    """
    if obs.routing == "general" and window.grid.n > DENSE_CAP:
        vals, _masses, frame = antiwick_averages(window, obs, frame)
        return vals, "antiwick-reference", frame
    nw, method = weyl_averages(window, obs)
    return nw, method, frame


def microlocal_records(
    window: EigenWindow,
    obs: Observable,
    frame: CoherentFrame | None = None,
    mass_floor: float = 0.99,
) -> list[MicrolocalRecord]:
    """Both measure routes per window state; warns through the mass column."""
    nw, method, frame = _weyl_or_reference(window, obs, frame)
    na, masses, frame = antiwick_averages(window, obs, frame)
    recs = []
    for j in range(window.count):
        recs.append(MicrolocalRecord(
            j=j, h=window.h, eigenvalue=float(window.eigenvalues[j]),
            observable_id=obs.id, nu_weyl=float(nw[j]), nu_antiwick=float(na[j]),
            antiwick_mass=float(masses[j]), method=method))
    if recs and min(r.antiwick_mass for r in recs) < mass_floor:
        worst = min(r.antiwick_mass for r in recs)
        raise NumericalError(
            f"coherent frame captures only {worst:.4f} of the Husimi mass; "
            "widen the frame or the grid")
    return recs


def upsilon(window) -> float:
    """Multiplicity-weighted number of window states."""
    if isinstance(window, EigenWindow):
        return float(window.count)
    return float(sum(c.weight * c.window.count for c in window))


def upsilon_a(window, obs: Observable, frame: CoherentFrame | None = None) -> float:
    """a-weighted state count: sum of multiplicity-weighted Weyl averages.

    Reduces to :func:`upsilon` when a is identically one, because every
    normalized state averages the constant symbol to exactly its l2 mass.
    Accepts an :class:`EigenWindow` or a list of radial channels (position
    observables only in the radial case).
    """
    if isinstance(window, EigenWindow):
        vals, _method, _frame = _weyl_or_reference(window, obs, frame)
        return float(np.sum(vals))
    return sum((ch.weight * float(np.sum(vals))
                for ch, vals in zip(window, radial_state_averages(window, obs))), 0.0)


def radial_state_averages(channels: list[RadialChannel], obs: Observable) -> list[np.ndarray]:
    """<a> of every state of every radial channel, one array per channel.

    Eigenvectors hold sqrt(r dr) psi(r), so the plane average of a position
    observable a(r) is a plain l2 sum over the vector entries.
    """
    if obs.routing != "position_only":
        raise ValueError("radial windows take position observables a(r) only")
    out = []
    for ch in channels:
        win = ch.window
        if win.vectors is None:
            raise ValueError("radial channels were solved without eigenvectors")
        ar = np.asarray(obs(win.grid.nodes, 0.0), dtype=float)
        out.append(ar @ (win.vectors ** 2))
    return out


# ---------------------------------------------------------------------------
# Flow invariance (Egorov-type) diagnostics


def egorov_defect(model: SymbolModel, obs: Observable, t: float,
                  window: EigenWindow, frame: CoherentFrame | None = None) -> float:
    """max_j |nu_j(a) - nu_j(a o flow_t)| through the anti-Wick route.

    Microlocal measures of eigenfunctions are flow-invariant up to O(h); the
    pulled-back symbol is tabulated on the coherent lattice by integrating
    the classical flow from every lattice point.
    """
    if frame is None:
        frame = default_frame(window)
    xc = frame.x_centers
    xic = frame.xi_centers
    xx, ss = np.meshgrid(xc, xic, indexing="ij")
    flowed = flow_points(model, xx.ravel(), ss.ravel(), t)
    table_t = np.asarray(obs(flowed.x, flowed.xi), dtype=float).reshape(xx.shape)

    base, _m0, frame = antiwick_averages(window, lambda x, xi: obs(x, xi), frame)
    moved, _m1, _ = antiwick_averages(window, table_t, frame)
    return float(np.max(np.abs(base - moved)))
