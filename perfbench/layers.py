"""The layers the traced run times, and the per-layer metrics it reports.

Span names follow ``<module>.<function>``.  LAPACK is timed at the entry
points ``semiclab.eig`` calls: scipy's ``eigh_tridiagonal`` (through the
name ``eig`` imported) and ``numpy.linalg.eigh``/``eigvalsh`` (looked up on
``numpy.linalg`` at call time, so only calls from ``semiclab.eig`` count;
``numpy.polynomial`` also calls ``eigvalsh`` for Gauss nodes).  Several functions may share one span name,
e.g. both scan CSV directions are ``experiments.csv``.
"""

from __future__ import annotations

import numpy as np

from semiclab import classical, cli, eig, experiments, microlocal, model, observables, quantize

# name -> unit; the order is the order BENCHMARK.json lists them in
PER_LAYER = {
    "eig.share": "ratio",
    "eig.lapack_tridiagonal.self_s": "s",
    "eig.sturm_count.self_s": "s",
    "eig.sturm_count.nodes": "count",
    "eig.lapack_dense.self_s": "s",
    "eig.lapack_dense.self_s_1t": "s",
    "eig.lapack_dense.share": "ratio",
    "eig.states_kept": "count",
    "eig.states_computed": "count",
    "eig.kept_ratio": "ratio",
    "eig.eigs_in_window.self_s": "s",
    "eig.eigs_in_window.calls": "count",
    "eig.radial_channels.self_s": "s",
    "eig.radial_channels.channels": "count",
    "quantize.build_weyl_observable.self_s": "s",
    "quantize.build_weyl_observable.calls": "count",
    "quantize.build_weyl_observable.bytes": "B",
    "quantize.build_weyl_observable.share": "ratio",
    "observables.eval.self_s": "s",
    "observables.eval.calls": "count",
    "quantize.dense_matrix.self_s": "s",
    "quantize.dense_matrix.bytes": "B",
    "quantize.grid.self_s": "s",
    "quantize.grid.n_max": "count",
    "quantize.build.self_s": "s",
    "quantize.antiwick_batch.self_s": "s",
    "classical.liouville_integral.self_s": "s",
    "classical.liouville_integral.calls": "count",
    "classical.coarea_check.self_s": "s",
    "classical.flow_points.self_s": "s",
    "classical.levelset_connected.self_s": "s",
    "microlocal.weyl_averages.self_s": "s",
    "microlocal.antiwick_averages.self_s": "s",
    "microlocal.egorov_defect.self_s": "s",
    "microlocal.microlocal_records.self_s": "s",
    "experiments.run_scan.self_s": "s",
    "experiments.rows": "count",
    "experiments.fit_scaling.self_s": "s",
    "experiments.ratio_limit.self_s": "s",
    "experiments.csv.self_s": "s",
    "cli.main.self_s": "s",
    "model.catalog.self_s": "s",
    "observables.parse_observable.calls": "count",
    "trace.coverage": "ratio",
    "trace.overhead_s": "s",
}


def _arg(args, kwargs, pos: int, name: str):
    return kwargs[name] if name in kwargs else args[pos]


def _kept(t, args, kwargs, win) -> None:
    if _arg(args, kwargs, 0, "op").form in ("split", "dense"):
        t.count("eig.states_kept", win.count)


def _computed(t, args, kwargs, result) -> None:
    w = result[0] if isinstance(result, tuple) else result
    t.count("eig.states_computed", np.size(w))


def _nodes(t, args, kwargs, result) -> None:
    n = np.size(_arg(args, kwargs, 0, "diag"))
    t.count("eig.sturm_count.nodes", n * np.size(_arg(args, kwargs, 2, "values")))


def _weyl_bytes(t, args, kwargs, op) -> None:
    t.count("quantize.build_weyl_observable.bytes", 16.0 * op.size ** 2)


def _dense_bytes(t, args, kwargs, matrix) -> None:
    t.count("quantize.dense_matrix.bytes", 16.0 * matrix.shape[0] ** 2)


def _grid_n(t, args, kwargs, grid) -> None:
    t.maximum("quantize.grid.n_max", grid.n)


def _rows(t, args, kwargs, scan) -> None:
    t.count("experiments.rows", len(scan.rows))


def _channels(t, args, kwargs, chans) -> None:
    t.count("eig.radial_channels.channels", len(chans))


# (span name, owner, attribute, on_return[, calling module])
LAYERS = (
    ("cli.main", cli, "main", None),
    ("experiments.run_scan", experiments, "run_scan", _rows),
    ("experiments.fit_scaling", experiments, "fit_scaling", None),
    ("experiments.ratio_limit", experiments, "ratio_limit", None),
    ("experiments.csv", experiments, "scan_to_csv", None),
    ("experiments.csv", experiments, "scan_from_csv", None),
    ("eig.eigs_in_window", eig, "eigs_in_window", _kept),
    ("eig.radial_channels", eig, "radial_channels", _channels),
    ("eig.sturm_count", eig, "sturm_count", _nodes),
    ("eig.lapack_tridiagonal", eig, "eigh_tridiagonal", None),
    ("eig.lapack_dense", np.linalg, "eigh", _computed, "semiclab.eig"),
    ("eig.lapack_dense", np.linalg, "eigvalsh", _computed, "semiclab.eig"),
    ("quantize.grid", quantize, "grid_for_schrodinger", _grid_n),
    ("quantize.grid", quantize, "grid_for_split", _grid_n),
    ("quantize.build", quantize, "build_schrodinger", None),
    ("quantize.build", quantize, "build_split", None),
    ("quantize.dense_matrix", quantize, "dense_matrix", _dense_bytes),
    ("quantize.build_weyl_observable", quantize, "build_weyl_observable", _weyl_bytes),
    ("quantize.antiwick_batch", quantize, "antiwick_batch", None),
    ("observables.eval", observables.Observable, "__call__", None),
    ("observables.parse_observable", observables, "parse_observable", None),
    ("classical.liouville_integral", classical, "liouville_integral", None),
    ("classical.coarea_check", classical, "coarea_check", None),
    ("classical.flow_points", classical, "flow_points", None),
    ("classical.levelset_connected", classical, "levelset_connected", None),
    ("microlocal.weyl_averages", microlocal, "weyl_averages", None),
    ("microlocal.antiwick_averages", microlocal, "antiwick_averages", None),
    ("microlocal.egorov_defect", microlocal, "egorov_defect", None),
    ("microlocal.microlocal_records", microlocal, "microlocal_records", None),
    ("model.catalog", model, "catalog", None),
)


def install(tracer) -> None:
    for name, owner, attr, on_return, *caller in LAYERS:
        tracer.wrap(name, owner, attr, on_return, *caller)


def metrics(tracer, setup_root: int, root: int, untraced_wall: float | None) -> dict:
    """Every PER_LAYER value from one traced set-up and one traced run.

    Layers the workload never enters read 0.  ``model.catalog`` runs during
    set-up only, and ``parse_observable`` counts both phases.
    """
    selfs = tracer.self_times(root)
    calls = tracer.calls(root)
    wall = tracer.duration(root)
    out = {f"{name}.self_s": selfs.get(name, 0.0) for name in selfs}
    out.update({f"{name}.calls": n for name, n in calls.items()})
    out.update(tracer.counts)
    out["model.catalog.self_s"] = tracer.self_times(setup_root).get("model.catalog", 0.0)
    out["observables.parse_observable.calls"] = (
        calls.get("observables.parse_observable", 0)
        + tracer.calls(setup_root).get("observables.parse_observable", 0))
    computed = out.get("eig.states_computed", 0)
    out["eig.kept_ratio"] = out.get("eig.states_kept", 0) / computed if computed else 0.0
    out["eig.share"] = tracer.inclusive(root, lambda n: n.startswith("eig.")) / wall
    out["eig.lapack_dense.share"] = tracer.inclusive(root, lambda n: n == "eig.lapack_dense") / wall
    out["quantize.build_weyl_observable.share"] = tracer.inclusive(
        root, lambda n: n == "quantize.build_weyl_observable") / wall
    out["trace.coverage"] = tracer.coverage(root)
    if untraced_wall is not None:
        out["trace.overhead_s"] = wall - untraced_wall
    return {k: float(out.get(k, 0.0)) for k in PER_LAYER}
