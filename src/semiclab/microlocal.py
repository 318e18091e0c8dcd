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
(the record's method label says so).  An average that is not finite (an
observable that overflows on the grid) raises ``NumericalError`` on either
route.

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
    "weyl_or_reference",
    "check_frame_mass",
    "microlocal_records",
    "default_frame",
    "upsilon",
    "upsilon_a",
    "radial_state_averages",
    "egorov_defect",
]

MASS_FLOOR = 0.99  # least Husimi mass a coherent frame must capture per state


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


def _finite(values: np.ndarray, obs, route: str) -> np.ndarray:
    if not np.all(np.isfinite(values)):
        name = repr(obs.id) if isinstance(obs, Observable) else "the observable"
        raise NumericalError(
            f"{route} average of {name} is not finite on this grid "
            "(the observable overflows)")
    return values


def weyl_averages(window: EigenWindow, obs: Observable) -> tuple[np.ndarray, str]:
    """<Op(a) psi, psi> for every window state, plus the method label.

    A non-finite average raises ``NumericalError``; numpy's floating-point
    warnings on the way there are silenced, so that error is the one report.
    """
    v = _window_matrix(window)
    grid = window.grid
    h = window.h
    dens = np.abs(v) ** 2  # (n, k)
    xi = grid.xi_values(h)

    with np.errstate(all="ignore"):
        if obs.routing == "position_only":
            ax = np.asarray(obs(grid.nodes, 0.0), dtype=float)
            out, method = ax @ dens, "diagonal"
        elif obs.routing == "momentum_only":
            spec = np.fft.fft(v, axis=0) / math.sqrt(grid.n)
            axi = np.asarray(obs(0.0, xi), dtype=float)
            out, method = axi @ (np.abs(spec) ** 2), "multiplier"
        elif obs.routing == "split":
            x_part, xi_part = obs.split_parts()
            out, method = np.zeros(v.shape[1]), "split"
            if x_part is not None:
                out += np.asarray(x_part.eval(grid.nodes, 0.0), dtype=float) @ dens
            if xi_part is not None:
                spec = np.fft.fft(v, axis=0) / math.sqrt(grid.n)
                out += np.asarray(xi_part.eval(0.0, xi), dtype=float) @ (np.abs(spec) ** 2)
        else:
            op = build_weyl_observable(lambda x, s: obs(x, s), h, grid)
            out, method = np.empty(v.shape[1]), "weyl-dense"
            for j in range(v.shape[1]):
                col = v[:, j].astype(complex)
                out[j] = float(np.real(np.vdot(col, op.matrix @ col)))
    return _finite(out, obs, "Weyl"), method


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
    lattice (x_centers by xi_centers).  A non-finite average raises
    ``NumericalError``, as in :func:`weyl_averages`.
    """
    if frame is None:
        frame = default_frame(window)
    v = _window_matrix(window)
    psis = np.ascontiguousarray(v.T)
    with np.errstate(all="ignore"):
        vals, masses = antiwick_batch(frame, window.grid, psis, obs)
    return _finite(vals, obs, "anti-Wick"), masses, frame


def weyl_or_reference(window: EigenWindow, obs: Observable,
                      frame: CoherentFrame | None = None):
    """Weyl averages, or the anti-Wick values when no dense route exists.

    Mixed observables on grids past the dense cap have no affordable exact
    Weyl matrix; the anti-Wick average then serves as the reference value
    and the method label records the substitution.  Returns the values,
    the method label and the coherent frame (built only when used).
    """
    if obs.routing == "general" and window.grid.n > DENSE_CAP:
        vals, _masses, frame = antiwick_averages(window, obs, frame)
        return vals, "antiwick-reference", frame
    nw, method = weyl_averages(window, obs)
    return nw, method, frame


def check_frame_mass(masses: np.ndarray) -> None:
    """Raise ``NumericalError`` when the coherent frame captured less than
    ``MASS_FLOOR`` of some state's Husimi mass."""
    worst = float(np.min(masses, initial=1.0))
    if worst < MASS_FLOOR:
        raise NumericalError(
            f"coherent frame captures only {worst:.4f} of the Husimi mass; "
            "widen the frame or the grid")


def microlocal_records(
    window: EigenWindow,
    obs: Observable,
    frame: CoherentFrame | None = None,
) -> list[MicrolocalRecord]:
    """Both measure routes per window state.

    Raises ``NumericalError`` when the frame captures less than
    ``MASS_FLOOR`` of some state's Husimi mass.
    """
    nw, method, frame = weyl_or_reference(window, obs, frame)
    na, masses, frame = antiwick_averages(window, obs, frame)
    check_frame_mass(masses)
    return [MicrolocalRecord(
        j=j, h=window.h, eigenvalue=float(window.eigenvalues[j]),
        observable_id=obs.id, nu_weyl=float(nw[j]), nu_antiwick=float(na[j]),
        antiwick_mass=float(masses[j]), method=method) for j in range(window.count)]


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
        vals, _method, _frame = weyl_or_reference(window, obs, frame)
        return float(np.sum(vals))
    return sum((ch.weight * float(np.sum(vals))
                for ch, vals in zip(window, radial_state_averages(window, obs))), 0.0)


def radial_state_averages(channels: list[RadialChannel], obs: Observable) -> list[np.ndarray]:
    """<a> of every state of every radial channel, one array per channel.

    Eigenvectors hold sqrt(r dr) psi(r), so the plane average of a position
    observable a(r) is the diagonal route of :func:`weyl_averages`.
    """
    if obs.routing != "position_only":
        raise ValueError("radial windows take position observables a(r) only")
    return [weyl_averages(ch.window, obs)[0] for ch in channels]


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
