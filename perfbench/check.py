"""Correctness gate: independent count certificates and seed-0 references.

Runs after the timed region.  Every window count the program reports is
bracketed by a count this module computes itself:

* tridiagonal operators: a vectorized Sturm (LDL^T sign) count,
  ``sturm_below``;
* dense operators: Sylvester inertia of an LDL^T factorization
  (``scipy.linalg.ldl``) of H - sigma I.

The bracket is [count in the window shrunk by the edge margin, count in the
window widened by it], with the margin equal to semiclab's default edge
tolerance (0.5% of the window width).  Without an eigenvalue near an edge
both ends agree and the reported count must match exactly.

At seed 0 every summary value must also match ``reference.json``, recorded
from the unchanged code: integers and strings exactly, floats within
``RTOL``/``ATOL``.
"""

from __future__ import annotations

import csv
import json
import math
import os

import numpy as np
import scipy.linalg

import semiclab.eig
from semiclab.model import get_model
from semiclab.quantize import (
    build_schrodinger,
    build_split,
    dense_matrix,
    grid_for_schrodinger,
    grid_for_split,
)

from tracer import Tracer
from workloads import D, PPW, Inputs, _geom

RTOL = 1e-6
ATOL = 1e-9
EDGE_SHARE = 5e-3
REFERENCE = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


# ---------------------------------------------------------------------------
# Counting certificates


def sturm_below(diag, offdiag, shifts) -> np.ndarray:
    """Eigenvalues strictly below each shift of a symmetric tridiagonal matrix.

    The pivot recurrence q_i = a_i - s - b_{i-1}^2 / q_{i-1} is a Moebius map
    of q_{i-1}, i.e. a 2x2 matrix acting on (numerator, denominator).  The
    grid is cut into K chunks of L rows.  Pass 1 multiplies the L matrices of
    every chunk at once (vectorized over chunks and shifts, renormalized each
    step); a short scalar sweep then carries the pivot across chunk
    boundaries; pass 2 reruns the plain recurrence inside all chunks at once
    from their entry pivots and counts negative pivots.  Both passes cost
    O(L) vector steps instead of O(n) scalar ones.
    """
    a = np.asarray(diag, dtype=float)
    b2 = np.square(np.asarray(offdiag, dtype=float))
    s = np.atleast_1d(np.asarray(shifts, dtype=float))
    n = a.size
    if b2.size != max(n - 1, 0):
        raise ValueError("offdiag must have one fewer entry than diag")
    if n == 0:
        return np.zeros(s.size, dtype=int)
    pivmin = 1e-290 * max(1.0, float(b2.max()) if b2.size else 0.0)
    L = max(8, math.isqrt(n) + 1)
    K = -(-n // L)
    pad = K * L - n
    # padding rows are decoupled and sit far above every shift
    big = float(np.max(np.abs(a)) + np.max(np.abs(s)) + 2.0 * math.sqrt(b2.max() if b2.size else 0.0) + 1.0)
    a_c = np.concatenate([a, np.full(pad, big)]).reshape(K, L)
    c_c = np.concatenate([[0.0], b2, np.zeros(pad)]).reshape(K, L)  # coupling into row i

    shape = (K, s.size)
    p11, p12, p21, p22 = np.ones(shape), np.zeros(shape), np.zeros(shape), np.ones(shape)
    with np.errstate(over="ignore", under="ignore"):
        for j in range(L):
            alpha = a_c[:, j, None] - s[None, :]
            c = c_c[:, j, None]
            n11, n12 = alpha * p11 - c * p21, alpha * p12 - c * p22
            p21, p22 = p11, p12
            scale = np.maximum(np.maximum(np.abs(n11), np.abs(n12)),
                               np.maximum(np.abs(p21), np.abs(p22)))
            scale[scale == 0.0] = 1.0
            p11, p12, p21, p22 = n11 / scale, n12 / scale, p21 / scale, p22 / scale

    # pivot entering each chunk: (num, den) = (1, 0) means "no previous row"
    q_in = np.empty(shape)
    num, den = np.ones(s.size), np.zeros(s.size)
    with np.errstate(divide="ignore", over="ignore", under="ignore"):
        for k in range(K):
            q_in[k] = np.where(den == 0.0, np.inf, num / np.where(den == 0.0, 1.0, den))
            num, den = p11[k] * num + p12[k] * den, p21[k] * num + p22[k] * den
            scale = np.maximum(np.abs(num), np.abs(den))
            scale[scale == 0.0] = 1.0
            num, den = num / scale, den / scale

    q = np.where(np.abs(q_in) < pivmin, -pivmin, q_in)
    negative = np.zeros(shape, dtype=np.int64)
    with np.errstate(divide="ignore", over="ignore"):
        for j in range(L):
            q = a_c[:, j, None] - s[None, :] - c_c[:, j, None] / q
            q = np.where(np.abs(q) < pivmin, -pivmin, q)
            negative += q < 0.0
    return negative.sum(axis=0)


def dense_below(matrix: np.ndarray, shift: float) -> int:
    """Eigenvalues of a Hermitian matrix below ``shift``, by LDL^T inertia."""
    n = matrix.shape[0]
    _lu, d, _perm = scipy.linalg.ldl(matrix - shift * np.eye(n), hermitian=True)
    # d is block diagonal with 1x1 and 2x2 Hermitian blocks; as a real
    # symmetric tridiagonal matrix (|off| in place of off) it has the same
    # eigenvalues, so its own Sturm count at 0 gives the inertia.
    return int(sturm_below(np.real(np.diag(d)), np.abs(np.diag(d, -1)), [0.0])[0])


def _bracket(below, lo: float, hi: float) -> tuple[int, int]:
    """(inner, outer) window counts; ``below(shifts)`` counts below each shift."""
    m = EDGE_SHARE * (hi - lo)
    b = below([lo - m, hi + m, lo + m, hi - m])
    return int(b[3] - b[2]), int(b[1] - b[0])


def tridiagonal_bracket(diag, offdiag, lo: float, hi: float) -> tuple[int, int]:
    return _bracket(lambda xs: sturm_below(diag, offdiag, xs), lo, hi)


def dense_bracket(matrix: np.ndarray, lo: float, hi: float, count: float) -> tuple[int, int]:
    """As ``tridiagonal_bracket``; the inner pair is factored only when needed."""
    m = EDGE_SHARE * (hi - lo)
    outer = dense_below(matrix, hi + m) - dense_below(matrix, lo - m)
    if count == outer:
        return outer, outer
    inner = dense_below(matrix, hi - m) - dense_below(matrix, lo + m)
    return inner, outer


# ---------------------------------------------------------------------------
# Verdict bookkeeping


class Verdict:
    def __init__(self):
        self.checked = 0
        self.wrong: list[str] = []
        self.attempted = 0
        self.failed: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.checked += 1
        if not ok:
            self.wrong.append(what)

    def count(self, reported, bracket: tuple[int, int], what: str) -> None:
        inner, outer = bracket
        ok = (reported is not None and math.isfinite(reported)
              and float(reported).is_integer() and inner <= reported <= outer)
        self.expect(ok, f"{what}: count {reported} outside certificate [{inner}, {outer}]")

    def unit(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed.append(what)


def _close(a, b) -> bool:
    if isinstance(b, bool) or isinstance(b, str) or b is None:
        return a == b
    if isinstance(b, int):
        return isinstance(a, (int, float)) and a == b
    if isinstance(b, list):
        return isinstance(a, list) and len(a) == len(b) and all(_close(x, y) for x, y in zip(a, b))
    if not isinstance(a, (int, float)) or isinstance(a, bool):
        return False
    if math.isnan(b):
        return math.isnan(a)
    return abs(a - b) <= ATOL + RTOL * abs(b)


def compare_reference(verdict: Verdict, summary: dict, reference: dict) -> None:
    for key, expected in reference.items():
        got = summary.get(key)
        verdict.expect(_close(got, expected), f"reference {key}: got {got!r}, expected {expected!r}")


def load_reference(workload: str) -> dict | None:
    if not os.path.exists(REFERENCE):
        return None
    with open(REFERENCE) as fh:
        return json.load(fh).get(workload)


# ---------------------------------------------------------------------------
# Per-workload checks; each returns the summary compared at seed 0


def _read_scan_csv(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        lines = [ln for ln in fh if ln.strip() and not ln.startswith("#")]
    return list(csv.DictReader(lines))


def _num(text: str) -> float:
    return float(text) if text not in ("", None) else math.nan


def check_count_scan(inp: Inputs, out: dict, v: Verdict) -> dict:
    p = inp.params
    hs = sorted(_geom(p["h_from"], p["h_to"], p["steps"]), reverse=True)
    summary: dict = {}
    for model, res in out.items():
        V = get_model(model).potential
        v.unit(res["rc_scan"] == 0, f"{model}: scan exit code {res['rc_scan']}")
        rows = _read_scan_csv(res["csv"]) if res["rc_scan"] == 0 else []
        v.expect(len(rows) == len(hs), f"{model}: {len(rows)} scan rows for {len(hs)} h values")
        for h, row in zip(hs, rows):
            v.unit(row["error"] == "", f"{model} h={h:.6g}: {row['error']}")
            if row["error"]:
                continue
            v.expect(abs(float(row["h"]) / h - 1.0) < 1e-10, f"{model}: row h {row['h']} != {h!r}")
            grid = grid_for_schrodinger(V, h, 0.0, d=D, h_max=hs[0], ppw=PPW)
            v.expect(grid.n == int(row["n_grid"]),
                     f"{model} h={h:.6g}: n_grid {row['n_grid']} but the scan policy gives {grid.n}")
            op = build_schrodinger(V, h, grid, window_top=D * h)
            v.count(_num(row["upsilon"]), tridiagonal_bracket(op.diag, op.offdiag, -D * h, D * h),
                    f"{model} h={h:.6g}")
        v.unit(res["rc_fit"] == 0, f"{model}: fit exit code {res['rc_fit']}")
        fit = {}
        if res["rc_fit"] == 0:
            with open(res["fit"]) as fh:
                fit = json.load(fh)
            v.expect(all(math.isfinite(fit[k]) for k in ("alpha_hat", "coeff_hat", "residual")),
                     f"{model}: non-finite fit {fit}")
        summary[f"{model}.n_grid"] = [int(r["n_grid"]) for r in rows]
        summary[f"{model}.upsilon"] = [_num(r["upsilon"]) for r in rows]
        summary[f"{model}.tie"] = [int(r["tie"]) for r in rows]
        for key in ("alpha_hat", "beta_hat", "coeff_hat", "offset_hat", "residual", "n_rows", "burned"):
            summary[f"{model}.fit.{key}"] = fit.get(key)
    return summary


def _scan_rows_summary(prefix: str, scan) -> dict:
    rows = scan.rows
    return {
        f"{prefix}.n_grid": [int(r.n_grid) for r in rows],
        f"{prefix}.upsilon": [float(r.upsilon) for r in rows],
        f"{prefix}.upsilon_obs": [float(r.upsilon_obs[0]) for r in rows],
        f"{prefix}.ratio": [float(r.ratios[0]) for r in rows],
    }


def _ratio_summary(prefix: str, rl) -> dict:
    keys = ("target_value", "gap_at_h_min", "trend_exponent", "extrapolated", "converged")
    return {f"{prefix}.{k}": (None if rl is None else
                              (bool(getattr(rl, k)) if k == "converged" else float(getattr(rl, k))))
            for k in keys}


def _fit_summary(prefix: str, fit) -> dict:
    keys = ("alpha_hat", "beta_hat", "coeff_hat", "offset_hat", "residual")
    return {f"{prefix}.{k}": (None if fit is None else
                              (int(getattr(fit, k)) if k == "beta_hat" else float(getattr(fit, k))))
            for k in keys}


def check_dense_window(inp: Inputs, out: dict, v: Verdict) -> dict:
    p = inp.params
    scan = out["scan"]
    f, g = get_model(p["model"]).phase_poly.split_parts()
    hs = sorted(p["hs"], reverse=True)
    v.expect(len(scan.rows) == len(hs), f"{len(scan.rows)} scan rows for {len(hs)} h values")
    for h, row in zip(hs, scan.rows):
        v.unit(row.ok, f"pseudo-k3 h={h:.6g}: {row.error}")
        if not row.ok:
            continue
        grid = grid_for_split(f, g, h, 0.0, d=D, h_max=hs[0])
        v.expect(grid.n == row.n_grid,
                 f"pseudo-k3 h={h:.6g}: n_grid {row.n_grid} but the scan policy gives {grid.n}")
        matrix = dense_matrix(build_split(f, g, h, grid, window_top=D * h))
        v.count(row.upsilon, dense_bracket(matrix, -D * h, D * h, row.upsilon),
                f"pseudo-k3 h={h:.6g}")
        v.expect(all(math.isfinite(x) for x in row.upsilon_obs + row.ratios),
                 f"pseudo-k3 h={h:.6g}: non-finite observable {row.upsilon_obs}")
    v.unit(out["fit"] is not None, "fit_scaling failed")
    v.unit(out["ratio"] is not None, "ratio_limit failed")
    summary = _scan_rows_summary("scan", scan)
    summary.update(_fit_summary("fit", out["fit"]))
    summary.update(_ratio_summary("ratio", out["ratio"]))
    return summary


def _radial_bracket(h: float, h_max: float) -> tuple[float, float]:
    """Weighted certificate of one radial scan row.

    The channel operators are built inside ``radial_channels``; a capturing
    wrapper on ``eigs_in_window`` hands each one to the Sturm count.
    """
    tracer = Tracer()
    ops: list = []
    tracer.wrap("capture", semiclab.eig, "eigs_in_window",
                on_return=lambda _t, args, _kw, _res: ops.append(args[0]))
    try:
        chans = semiclab.eig.radial_channels(get_model("radial-deg").potential, h, -D * h, D * h,
                                             d=D, h_max=h_max, ppw=PPW, vectors=False)
    finally:
        tracer.restore()
    inner = outer = 0.0
    for ch, op in zip(chans, ops):
        i, o = tridiagonal_bracket(op.diag, op.offdiag, -D * h, D * h)
        inner += ch.weight * i
        outer += ch.weight * o
    return inner, outer


def check_eigenfunction_measure(inp: Inputs, out: dict, v: Verdict) -> dict:
    summary: dict = {"windows.count": [], "windows.n": []}
    for e in out["windows"]:
        s = e["spec"]
        v.count(e["count"], tridiagonal_bracket(e["diag"], e["offdiag"], e["lo"], e["hi"]),
                f"window {s.model} h={s.h:.6g} E={s.e_center:g}")
        summary["windows.count"].append(e["count"])
        summary["windows.n"].append(e["n"])
    vals = out["values"]
    scan = out["radial_scan"]
    hs = sorted(inp.params["radial_h"], reverse=True)
    for h, row in zip(hs, scan.rows):
        v.unit(row.ok, f"radial-deg h={h:.6g}: {row.error}")
        if row.ok:
            v.count(row.upsilon, _radial_bracket(h, hs[0]), f"radial-deg h={h:.6g}")

    def floats(key):
        return [None if x is None else float(x) for x in vals.get(key, [])]

    norm = floats("norm_gap")
    v.expect(bool(norm) and all(x is not None and x <= 1e-8 for x in norm),
             f"Weyl normalization nu(1) - 1 = {norm}")
    aw = floats("antiwick_min")
    v.expect(bool(aw) and all(x is not None and x >= -1e-10 for x in aw),
             f"anti-Wick positivity {aw}")
    summary.update({
        "norm_gap_ok": all(x is not None and x <= 1e-8 for x in norm),
        "antiwick_min": aw,
        "gap": floats("gap"),
        "egorov": floats("egorov"),
        "dirac_gap": floats("dirac_gap"),
        "second_moment": vals.get("second_moment"),
        "levelset": None if vals["levelset"] is None else [bool(vals["levelset"][0]),
                                                           int(vals["levelset"][1])],
        "coarea": [None if c is None else float(c["rel_diff"]) for c in vals["coarea"]],
        "radial_coarea": None if vals["radial_coarea"] is None else float(vals["radial_coarea"]["rel_diff"]),
    })
    for i, fit in enumerate(vals["synthetic_fit"]):
        summary.update(_fit_summary(f"synthetic_fit{i}", fit))
    summary.update(_scan_rows_summary("radial", scan))
    summary.update(_ratio_summary("radial_ratio", vals["radial_ratio"]))
    return summary


CHECKS = {
    "count-scan": check_count_scan,
    "dense-window": check_dense_window,
    "eigenfunction-measure": check_eigenfunction_measure,
}


def verify(inp: Inputs, out: dict, tally, with_reference: bool = True) -> tuple[Verdict, dict]:
    """All certificates, plus the reference comparison at seed 0."""
    v = Verdict()
    v.attempted += tally.attempted
    v.failed += tally.errors
    summary = CHECKS[inp.workload](inp, out, v)
    summary = json.loads(json.dumps(summary, allow_nan=True))
    if inp.seed == 0 and with_reference:
        reference = load_reference(inp.workload)
        v.expect(reference is not None, f"no reference for {inp.workload} in {REFERENCE}")
        if reference is not None:
            compare_reference(v, summary, reference)
    return v, summary
