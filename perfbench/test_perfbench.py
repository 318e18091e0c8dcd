"""Self-tests of the benchmark: tracer, inputs and certificates.

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import os
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

import semiclab  # noqa: E402
import semiclab.cli  # noqa: E402
import semiclab.eig  # noqa: E402
import semiclab.experiments  # noqa: E402
import semiclab.scenarios  # noqa: E402

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def _snapshot():
    owners = [m for name, m in sys.modules.items()
              if m is not None and (name == "semiclab" or name.startswith("semiclab."))]
    owners += [workloads, np.linalg, semiclab.observables.Observable]
    return {(id(o), k): v for o in owners for k, v in list(vars(o).items())}


def test_wrapper_reaches_from_import_aliases_and_restores():
    original = semiclab.eig.eigs_in_window
    holders = [semiclab.eig, semiclab.experiments, semiclab.scenarios, semiclab.cli,
               semiclab, workloads]
    assert all(m.eigs_in_window is original for m in holders)
    t = Tracer(packages=("semiclab", "workloads"))
    assert t.wrap("eig.eigs_in_window", semiclab.eig, "eigs_in_window") == len(holders)
    assert all(m.eigs_in_window is not original for m in holders)
    assert semiclab.experiments.eigs_in_window.__wrapped__ is original
    with t.span("root") as root:
        semiclab.experiments.run_scan("harmonic", [0.1], e_center=1.0)
    t.restore()
    assert t.calls(root.idx)["eig.eigs_in_window"] == 1
    assert all(m.eigs_in_window is original for m in holders)


def test_every_layer_wraps_and_restores():
    before = _snapshot()
    t = Tracer(packages=("semiclab", "workloads"))
    layers.install(t)
    assert semiclab.observables.Observable.__call__ is not before[
        (id(semiclab.observables.Observable), "__call__")]
    assert _snapshot() != before
    t.restore()
    after = _snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_self_time_arithmetic_on_nested_calls():
    now = [0.0]
    mod = types.ModuleType("fakepkg")
    sys.modules["fakepkg"] = mod

    def leaf(dt):
        now[0] += dt

    def middle():
        now[0] += 1.0
        mod.leaf(2.0)
        now[0] += 0.5
        mod.leaf(4.0)

    def top():
        now[0] += 3.0
        mod.middle()

    mod.leaf, mod.middle, mod.top = leaf, middle, top
    t = Tracer(packages=("fakepkg",), clock=lambda: now[0])
    try:
        for name in ("leaf", "middle", "top"):
            t.wrap(f"fake.{name}", mod, name)
        with t.span("root") as root:
            now[0] += 0.25
            mod.top()
    finally:
        t.restore()
        del sys.modules["fakepkg"]
    assert t.self_times(root.idx) == {"root": 0.25, "fake.top": 3.0,
                                      "fake.middle": 1.5, "fake.leaf": 6.0}
    assert t.calls(root.idx) == {"root": 1, "fake.top": 1, "fake.middle": 1, "fake.leaf": 2}
    assert t.duration(root.idx) == 10.75
    assert t.coverage(root.idx) == 10.5 / 10.75
    assert t.inclusive(root.idx, lambda n: n == "fake.leaf") == 6.0
    assert mod.leaf is leaf


def _h_values(inp):
    p = inp.params
    if inp.workload == "count-scan":
        return [p["h_from"], p["h_to"]]
    if inp.workload == "dense-window":
        return list(p["hs"])
    return [w.h for specs in p["windows"].values() for w in specs] + list(p["radial_h"])


def _fd_n(model, h, e_center, h_max):
    V = semiclab.get_model(model).potential
    return semiclab.grid_for_schrodinger(V, h, e_center, d=workloads.D, h_max=h_max,
                                         ppw=workloads.PPW).n


def _profile(inp):
    """Grid sizes of every finite-difference or dense operator the inputs build."""
    p = inp.params
    if inp.workload == "count-scan":
        hs = np.geomspace(p["h_from"], p["h_to"], p["steps"])
        return [_fd_n(m, h, 0.0, p["h_from"]) for m in p["models"] for h in hs]
    if inp.workload == "dense-window":
        return workloads.dense_profile(p["hs"])
    return [_fd_n(w.model, w.h, w.e_center, w.h_max)
            for specs in p["windows"].values() for w in specs]


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
def test_same_seed_gives_same_inputs(workload):
    assert _h_values(workloads.make_inputs(workload, 5)) == _h_values(
        workloads.make_inputs(workload, 5))


@pytest.mark.parametrize("workload", sorted(workloads.RUNNERS))
@pytest.mark.parametrize("seed", [1, 11, 12345])
def test_other_seed_moves_h_and_keeps_the_grid_profile(workload, seed):
    base = workloads.make_inputs(workload, 0)
    other = workloads.make_inputs(workload, seed)
    hb, ho = _h_values(base), _h_values(other)
    assert hb != ho
    assert all(abs(x / y - 1.0) <= workloads.JITTER for x, y in zip(ho, hb))
    pb, po = _profile(base), _profile(other)
    if workload == "dense-window":
        assert po == pb
    else:
        assert all(abs(x / y - 1.0) <= workloads.PROFILE_RTOL for x, y in zip(po, pb))


def test_seed_zero_is_the_frozen_grid():
    assert workloads.make_inputs("dense-window", 0).params["hs"] == list(
        np.geomspace(1e-1, 2.2e-3, 12))
    p = workloads.make_inputs("count-scan", 0).params
    assert (p["h_from"], p["h_to"], p["steps"]) == (1e-1, 1e-4, 24)


@pytest.mark.parametrize("n", [1, 2, 3, 17, 400, 2500])
def test_vectorized_sturm_matches_the_loop(n):
    rng = np.random.default_rng(n)
    for _ in range(4):
        diag = rng.normal(size=n) * rng.choice([1.0, 50.0])
        off = rng.normal(size=n - 1)
        shifts = rng.normal(size=5) * 3.0
        assert list(check.sturm_below(diag, off, shifts)) == list(
            semiclab.eig.sturm_count(diag, off, shifts))


def test_ldl_inertia_matches_eigenvalues():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(60, 60)) + 1j * rng.normal(size=(60, 60))
    a = a + a.conj().T
    w = np.linalg.eigvalsh(a)
    for shift in (-3.0, 0.1, 4.0):
        assert check.dense_below(a, shift) == int(np.sum(w < shift))


def test_bracket_tolerates_edge_ties_only():
    diag = np.array([-1.0, 0.0, 1.0 - 1e-4, 3.0])  # 1 - 1e-4 sits at the window edge
    inner, outer = check.tridiagonal_bracket(diag, np.zeros(3), -1.0 + 0.5, 1.0)
    assert (inner, outer) == (1, 2)
    v = check.Verdict()
    for reported in (1, 2, 3):
        v.count(reported, (inner, outer), "window")
    assert v.checked == 3 and len(v.wrong) == 1
