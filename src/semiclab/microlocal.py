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
  split grids are sized by the classical momentum and get q = 1.  Only
  the block of rows where the states live is built: the smallest row
  range outside which every decimated state keeps at most
  ``WEYL_LEAK`` / 2 of its l2 mass on each side.  A mixed symbol that
  factors as f(x) g(xi), such as the Gaussian exp(-x^2 - xi^2), gets that
  block from one FFT of g and f at the block's midpoints (the factored
  build of ``quantize.build_weyl_observable``); other mixed symbols one
  FFT per anti-diagonal;

* the anti-Wick route, a nonnegative average of the Husimi density over a
  coherent-state lattice.  The densities of a block of lattice columns
  come from one matrix product of a shared phase table with the columns'
  windowed states (``quantize.antiwick_batch``), a real product for the
  real states of finite-difference windows.

The two routes differ by O(h); their gap is a useful convergence
diagnostic and is never collapsed into a single number silently.  Counting
functions: ``upsilon`` is the plain (multiplicity-weighted) number of window
states, ``upsilon_a`` the a-weighted count through the Weyl route, so that
``upsilon_a == upsilon`` when a is identically 1.  Mixed observables on
grids past the dense cap fall back to the anti-Wick value as the reference
(the record's method label says so).  Each route checks its own rules:
a non-finite average (an observable that overflows on the grid) and an
anti-Wick frame capturing less than ``MASS_FLOOR`` of a state's Husimi mass
raise ``NumericalError``; a radial 2D window (``window.m`` set) takes
position observables a(r) on the Weyl route only (``ConfigError``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .classical import flow_points
from .eig import EigenWindow
from .errors import ConfigError, NumericalError
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


def _check_radial_observable(obs: Observable) -> None:
    """``ConfigError`` unless ``obs`` is a(r): radial states hold sqrt(r dr) psi(r)."""
    if obs.routing != "position_only":
        raise ConfigError(
            f"radial windows take position observables a(r); {obs.id!r} depends on xi")


def weyl_averages(window: EigenWindow, obs: Observable) -> tuple[np.ndarray, str]:
    """<Op(a) psi, psi> for every window state, plus the method label.

    A mixed symbol takes the dense Weyl matrix on the grid of every q-th
    node, applied to w = sqrt(q) psi[::q].  q is the largest power of two
    for which every state keeps at most ``WEYL_LEAK`` (1e-24) of its
    spectral power beyond xi_max / (2 q), the band whose Wigner function
    the sub-grid still resolves, and for which the sub-grid keeps at least
    16 points.  Of that matrix only the block A[i0:i1, i0:i1] is built,
    [i0, i1) the smallest row range outside which every w keeps at most
    ``WEYL_LEAK`` / 2 of its l2 mass on each side.  The averages then agree
    with the full-grid matrix to rounding.
    A non-finite average raises ``NumericalError``; numpy's floating-point
    warnings on the way there are silenced, so that error is the one report.
    A radial window takes position observables a(r) only (``ConfigError``).
    """
    return _weyl_averages(window, obs, None)


def _weyl_averages(window: EigenWindow, obs: Observable,
                   power: tuple[np.ndarray, np.ndarray] | None) -> tuple[np.ndarray, str]:
    """:func:`weyl_averages`, given the window's ``_state_power`` if known."""
    if window.m is not None:
        _check_radial_observable(obs)
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
            q = _decimation(window, power)
            w = math.sqrt(q) * v[::q]
            i0, i1 = _support(w)
            op = build_weyl_observable(obs, h, grid.every(q), (i0, i1))
            w = w[i0:i1]
            out, method = np.einsum("ij,ij->j", w.conj(), op.matrix @ w).real, "weyl-dense"
    return _finite(out, obs, "Weyl"), method


def _state_power(window: EigenWindow) -> tuple[np.ndarray, np.ndarray]:
    """Spectral power |FFT psi_j|^2 of every window state (n by count),
    and the grid momenta in FFT order."""
    v = _window_matrix(window)
    return np.abs(np.fft.fft(v, axis=0)) ** 2, window.grid.xi_values(window.h)


def _support(w: np.ndarray) -> tuple[int, int]:
    """Smallest row range [i0, i1) outside which every column of w keeps at
    most ``WEYL_LEAK`` / 2 of its l2 mass on each side; (0, n) when w has
    no columns."""
    mass = np.abs(w) ** 2
    mass /= np.sum(mass, axis=0)
    tol = 0.5 * WEYL_LEAK
    # first row, from either end, where some state's outer mass passes tol
    head = np.argmax(np.any(np.cumsum(mass, axis=0) > tol, axis=1))
    tail = np.argmax(np.any(np.cumsum(mass[::-1], axis=0) > tol, axis=1))
    return int(head), w.shape[0] - int(tail)


def _decimation(window: EigenWindow,
                power: tuple[np.ndarray, np.ndarray] | None = None) -> int:
    """Largest power of two q whose every-q-th-node grid keeps the Weyl
    averages of the window states.

    Each state may keep at most ``WEYL_LEAK`` of its spectral power beyond
    xi_max / (2 q), and the sub-grid at least 16 points.  ``power`` is the
    window's ``_state_power``, computed here when not given.
    """
    power, xi = _state_power(window) if power is None else power
    power = power / np.sum(power, axis=0)
    n, xi_max = window.grid.n, window.grid.xi_max(window.h)
    q = 1
    while n >= 32 * q and np.all(
            np.sum(power[np.abs(xi) > xi_max / (4 * q)], axis=0) <= WEYL_LEAK):
        q *= 2
    return q


def _auto_xi_span(window: EigenWindow,
                  power: tuple[np.ndarray, np.ndarray] | None = None) -> tuple[float, float]:
    """Momentum span holding 0.999 of the window states' power, with margin.
    ``power`` is the window's ``_state_power``, computed here when not given."""
    power, xi = _state_power(window) if power is None else power
    power = np.sum(power, axis=1)
    power /= np.sum(power)
    order = np.argsort(np.abs(xi))
    cum = np.cumsum(power[order])
    cut_idx = int(np.searchsorted(cum, 0.999))
    xi_cut = float(np.abs(xi)[order][min(cut_idx, xi.size - 1)])
    pad = 6.0 * math.sqrt(window.h)
    return (-xi_cut - pad, xi_cut + pad)


def default_frame(window: EigenWindow, xi_span: tuple[float, float] | None = None) -> CoherentFrame:
    if window.m is not None:
        raise ConfigError("radial windows have no planar coherent frame")
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
    lattice (x_centers by xi_centers), or a list of them, which gives one
    row of averages per symbol from one batch.  A non-finite average raises
    ``NumericalError``, as in :func:`weyl_averages`, and so does a frame that
    captures less than ``MASS_FLOOR`` of some state's Husimi mass.  A window
    without states builds no frame and gets empty arrays.
    """
    v = _window_matrix(window)
    if not window.count:
        return np.zeros((len(obs), 0) if isinstance(obs, list) else 0), np.zeros(0)
    if frame is None:
        frame = default_frame(window)
    psis = np.ascontiguousarray(v.T)
    with np.errstate(all="ignore"):
        vals, masses = antiwick_batch(frame, window.grid, psis, obs)
    vals = _finite(vals, obs, "anti-Wick")
    if np.min(masses) < MASS_FLOOR:
        raise NumericalError(
            f"coherent frame captures only {np.min(masses):.4f} of the Husimi mass; "
            "widen the frame or the grid")
    return vals, masses


def weyl_or_reference(window: EigenWindow, obs: Observable) -> tuple[np.ndarray, str]:
    """Weyl averages, or the anti-Wick values when no dense route exists.

    Mixed observables on grids past the dense cap have no affordable exact
    Weyl matrix; the anti-Wick average then serves as the reference value
    and the method label records the substitution; the substituted values
    pass the anti-Wick route's mass check.  Returns the values and the
    method label.
    """
    if _substitutes(window, obs):
        vals, _masses = antiwick_averages(window, obs)
        return vals, "antiwick-reference"
    return weyl_averages(window, obs)


def _substitutes(window: EigenWindow, obs: Observable) -> bool:
    """Whether :func:`weyl_or_reference` takes the anti-Wick values."""
    return obs.routing == "general" and window.m is None and window.grid.n > DENSE_CAP


def microlocal_records(window: EigenWindow, obs: Observable) -> list[MicrolocalRecord]:
    """Both measure routes per window state, with the rules of each; a
    window without states gets no records and builds no frame."""
    if not window.count:
        return []
    # one FFT of the states serves the frame's momentum span and the decimation
    power = _state_power(window)
    frame = default_frame(window, _auto_xi_span(window, power))
    na, masses = antiwick_averages(window, obs, frame)
    # past the dense cap the reference values are these anti-Wick averages
    nw, method = ((na, "antiwick-reference") if _substitutes(window, obs)
                  else _weyl_averages(window, obs, power))
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
    tabulated on the lattice x_centers[:, None], xi_centers[None, :], and
    one anti-Wick batch applies both tables to the same Husimi densities.
    A window without states has no defect: 0.0, and no frame is built.
    """
    if not window.count:
        return 0.0
    frame = default_frame(window)
    x, xi = frame.x_centers[:, None], frame.xi_centers[None, :]
    flowed = flow_points(model, x, xi, t)
    (base, moved), _masses = antiwick_averages(
        window, [obs(x, xi), obs(flowed.x, flowed.xi)], frame)
    return float(np.max(np.abs(base - moved)))
