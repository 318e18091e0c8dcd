"""Per-eigenfunction phase-space averages and windowed spectral counting.

Every window eigenfunction psi_j gets two phase-space averages of an
observable a:

* the Weyl route <Op(a) psi_j, psi_j>, evaluated by the cheapest exact
  discretization the observable's routing class allows: position-only
  symbols are diagonal sums, momentum-only symbols one FFT, split symbols
  the sum of both, and genuinely mixed symbols a dense Weyl matrix.  That
  matrix is built on the grid of every q-th node, applied to the states
  sqrt(q) psi_j[::q]: q is the largest power of two for which every state
  keeps at most ``WEYL_LEAK`` (1e-24) of its spectral power beyond
  xi_max / (2 q) and the sub-grid keeps at least 16 points.  Finite-
  difference windows oversample their states (q = 8 on most of them);
  split grids are sized by the classical momentum and get q = 1;

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

Radial 2D windows (``window.m`` set) support position-only observables
a(r) on the Weyl route; no planar coherent frame exists for them here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import flow_points
from .eig import EigenWindow
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
    "egorov_defect",
]

MASS_FLOOR = 0.99  # least Husimi mass a coherent frame must capture per state
# relative spectral power a state may keep beyond half the band of the
# decimated grid its mixed Weyl average is taken on
WEYL_LEAK = 1e-24


@dataclass(frozen=True)
class MicrolocalRecord:
    j: int  # index of the state inside its window
    nu_weyl: float
    nu_antiwick: float
    method: str  # discretization used on the Weyl side
    antiwick_mass: float  # Husimi mass the coherent frame captured

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

    A mixed symbol takes the dense Weyl matrix on the grid of every q-th
    node, applied to sqrt(q) psi[::q].  q is the largest power of two for
    which every state keeps at most ``WEYL_LEAK`` (1e-24) of its spectral
    power beyond xi_max / (2 q), the band whose Wigner function the
    sub-grid still resolves, and for which the sub-grid keeps at least 16
    points.  The averages then agree with the full-grid matrix to rounding.
    A non-finite average raises ``NumericalError``; numpy's floating-point
    warnings on the way there are silenced, so that error is the one report.
    """
    v = _window_matrix(window)
    grid = window.grid
    h = window.h

    with np.errstate(all="ignore"):
        if obs.routing != "general":
            x_part, xi_part = obs.split_parts()
            method = ("diagonal" if xi_part is None else
                      "multiplier" if x_part is None else "split")
            out = np.zeros(v.shape[1])
            if x_part is not None:
                out += np.asarray(x_part.eval(grid.nodes, 0.0), dtype=float) @ (np.abs(v) ** 2)
            if xi_part is not None:
                spec = np.fft.fft(v, axis=0) / math.sqrt(grid.n)
                xi = grid.xi_values(h)
                out += np.asarray(xi_part.eval(0.0, xi), dtype=float) @ (np.abs(spec) ** 2)
        else:
            q = _decimation(window)
            op = build_weyl_observable(obs, h, grid.every(q))
            w = math.sqrt(q) * v[::q]
            out, method = np.einsum("ij,ij->j", w.conj(), op.matrix @ w).real, "weyl-dense"
    return _finite(out, obs, "Weyl"), method


def _state_power(window: EigenWindow) -> tuple[np.ndarray, np.ndarray]:
    """Spectral power |FFT psi_j|^2 of every window state (n by count),
    and the grid momenta in FFT order."""
    v = _window_matrix(window)
    return np.abs(np.fft.fft(v, axis=0)) ** 2, window.grid.xi_values(window.h)


def _decimation(window: EigenWindow) -> int:
    """Largest power of two q whose every-q-th-node grid keeps the Weyl
    averages of the window states.

    Each state may keep at most ``WEYL_LEAK`` of its spectral power beyond
    xi_max / (2 q), and the sub-grid at least 16 points.
    """
    power, xi = _state_power(window)
    power /= np.sum(power, axis=0)
    n, xi_max = window.grid.n, window.grid.xi_max(window.h)
    q = 1
    while n >= 32 * q and np.all(
            np.sum(power[np.abs(xi) > xi_max / (4 * q)], axis=0) <= WEYL_LEAK):
        q *= 2
    return q


def _auto_xi_span(window: EigenWindow, coverage: float = 0.999) -> tuple[float, float]:
    """Momentum span actually occupied by the window states, with margin."""
    power, xi = _state_power(window)
    power = np.sum(power, axis=1)
    power /= np.sum(power)
    order = np.argsort(np.abs(xi))
    cum = np.cumsum(power[order])
    cut_idx = int(np.searchsorted(cum, coverage))
    xi_cut = float(np.abs(xi)[order][min(cut_idx, xi.size - 1)])
    pad = 6.0 * math.sqrt(window.h)
    return (-xi_cut - pad, xi_cut + pad)


def default_frame(window: EigenWindow, xi_span: tuple[float, float] | None = None) -> CoherentFrame:
    if window.m is not None:
        raise ValueError("radial windows have no planar coherent frame")
    if xi_span is None:
        xi_span = _auto_xi_span(window)
    return build_coherent_frame(window.grid, window.h, xi_span)


def antiwick_averages(
    window: EigenWindow,
    obs,
    frame: CoherentFrame | None = None,
) -> tuple[np.ndarray, np.ndarray]:
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
    return _finite(vals, obs, "anti-Wick"), masses


def weyl_or_reference(window: EigenWindow, obs: Observable) -> tuple[np.ndarray, str]:
    """Weyl averages, or the anti-Wick values when no dense route exists.

    Mixed observables on grids past the dense cap have no affordable exact
    Weyl matrix; the anti-Wick average then serves as the reference value
    and the method label records the substitution.  A substituted value
    passes the same ``MASS_FLOOR`` check as :func:`microlocal_records`.
    Returns the values and the method label.  A radial window takes
    position observables a(r) only: its states hold sqrt(r dr) psi(r), so
    the plane average is the diagonal route.
    """
    if window.m is not None and obs.routing != "position_only":
        raise ValueError("radial windows take position observables a(r) only")
    if _substitutes(window, obs):
        vals, masses = antiwick_averages(window, obs)
        check_frame_mass(masses)
        return vals, "antiwick-reference"
    return weyl_averages(window, obs)


def _substitutes(window: EigenWindow, obs: Observable) -> bool:
    """Whether :func:`weyl_or_reference` takes the anti-Wick values."""
    return obs.routing == "general" and window.grid.n > DENSE_CAP


def check_frame_mass(masses: np.ndarray) -> None:
    """Raise ``NumericalError`` when the coherent frame captured less than
    ``MASS_FLOOR`` of some state's Husimi mass."""
    worst = float(np.min(masses, initial=1.0))
    if worst < MASS_FLOOR:
        raise NumericalError(
            f"coherent frame captures only {worst:.4f} of the Husimi mass; "
            "widen the frame or the grid")


def microlocal_records(window: EigenWindow, obs: Observable) -> list[MicrolocalRecord]:
    """Both measure routes per window state.

    Raises ``NumericalError`` when the frame captures less than
    ``MASS_FLOOR`` of some state's Husimi mass.
    """
    if _substitutes(window, obs):
        # the reference values are the anti-Wick averages: one batch serves both
        na, masses = antiwick_averages(window, obs)
        nw, method = na, "antiwick-reference"
    else:
        nw, method = weyl_averages(window, obs)
        na, masses = antiwick_averages(window, obs)
    check_frame_mass(masses)
    return [MicrolocalRecord(j=j, nu_weyl=float(nw[j]), nu_antiwick=float(na[j]), method=method,
                             antiwick_mass=float(masses[j]))
            for j in range(window.count)]


def upsilon(window: EigenWindow) -> float:
    """Multiplicity-weighted number of window states."""
    return float(np.sum(window.weights))


def upsilon_a(window: EigenWindow, obs: Observable) -> float:
    """a-weighted state count: sum of multiplicity-weighted Weyl averages.

    Reduces to :func:`upsilon` when a is identically one, because every
    normalized state averages the constant symbol to exactly its l2 mass.
    """
    vals, _method = weyl_or_reference(window, obs)
    return float(np.sum(window.weights * vals))


# ---------------------------------------------------------------------------
# Flow invariance (Egorov-type) diagnostics


def egorov_defect(model: SymbolModel, obs: Observable, t: float,
                  window: EigenWindow) -> float:
    """max_j |nu_j(a) - nu_j(a o flow_t)| through the anti-Wick route.

    Microlocal measures of eigenfunctions are flow-invariant up to O(h); the
    pulled-back symbol is tabulated on the coherent lattice by integrating
    the classical flow from every lattice point.  Both a and a o flow_t are
    tabulated on the lattice x_centers[:, None], xi_centers[None, :].
    """
    frame = default_frame(window)
    x, xi = frame.x_centers[:, None], frame.xi_centers[None, :]
    flowed = flow_points(model, x, xi, t)
    base, _m0 = antiwick_averages(window, obs(x, xi), frame)
    moved, _m1 = antiwick_averages(window, obs(flowed.x, flowed.xi), frame)
    return float(np.max(np.abs(base - moved)))
