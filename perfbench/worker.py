"""One fresh benchmark process; ``run.py`` starts it and reads its last line.

    worker.py setup --workload W --seed S
        time import + catalog + inputs only
    worker.py run   --workload W --seed S --seconds T --workdir DIR
        set up, time whole workload iterations for about T seconds, then
        check the last iteration's outputs
    worker.py trace --workload W --seed S --workdir DIR [--traced-only]
        one untraced and one traced iteration, then the same checks

The set-up clock starts before semiclab or numpy is imported.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def _import(args):
    import workloads

    src = os.path.join(args.root, "src")
    found = os.path.abspath(workloads.semiclab.__file__)
    if not found.startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"semiclab imported from {found}, not from {src}")
    return workloads


def _setup(args):
    workloads = _import(args)
    inp = workloads.setup(args.workload, args.seed)
    return workloads, inp, time.perf_counter() - T0


def _iterate(workloads, inp, workdir):
    tally = workloads.Tally()
    c0, w0 = time.process_time(), time.perf_counter()
    out = workloads.RUNNERS[inp.workload](inp, workdir, tally)
    return out, tally, time.perf_counter() - w0, time.process_time() - c0


def _verdict(inp, out, tally, record: bool) -> dict:
    import check

    start = time.perf_counter()
    v, summary = check.verify(inp, out, tally, with_reference=not record)
    return {"attempted": v.attempted, "failed": v.failed, "checked": v.checked,
            "wrong": v.wrong, "summary": summary, "check_s": time.perf_counter() - start}


def machine() -> dict:
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
            "cpu": cpu}


def cmd_setup(args) -> dict:
    _workloads, _inp, setup_s = _setup(args)
    return {"setup_s": setup_s}


def cmd_run(args) -> dict:
    workloads, inp, setup_s = _setup(args)
    start = time.perf_counter()
    walls, cpus = [], []
    while True:
        out, tally, wall, cpu = _iterate(workloads, inp, args.workdir)
        walls.append(wall)
        cpus.append(cpu)
        # start another iteration only if it should end within the budget
        if time.perf_counter() - start + wall > args.seconds:
            break
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = {"setup_s": setup_s, "wall_s": walls, "cpu_s": cpus,
              "peak_rss_mb": peak_kib * 1024 / 1e6, "machine": machine()}
    result.update(_verdict(inp, out, tally, args.record))
    return result


def cmd_trace(args) -> dict:
    from tracer import Tracer

    workloads = _import(args)
    import layers

    tracer = Tracer(packages=("semiclab", "workloads"))
    layers.install(tracer)
    with tracer.span("setup") as setup_span:
        inp = workloads.setup(args.workload, args.seed)
    tracer.restore()
    tracer.counts.clear()
    untraced = None
    if not args.traced_only:
        _out, _tally, untraced, _cpu = _iterate(workloads, inp, args.workdir)
    layers.install(tracer)
    try:
        with tracer.span("workload") as root:
            out, tally, _wall, _cpu = _iterate(workloads, inp, args.workdir)
    finally:
        tracer.restore()
    result = {"per_layer": layers.metrics(tracer, setup_span.idx, root.idx, untraced),
              "units": layers.PER_LAYER,
              "trace_wall_s": tracer.duration(root.idx), "untraced_wall_s": untraced,
              "self_s": tracer.self_times(root.idx), "machine": machine()}
    result.update(_verdict(inp, out, tally, False))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=["setup", "run", "trace"])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--workdir", default=".")
    p.add_argument("--root", required=True)
    p.add_argument("--traced-only", action="store_true")
    p.add_argument("--record", action="store_true",
                   help="skip the reference comparison (used to record it)")
    args = p.parse_args(argv)
    result = {"setup": cmd_setup, "run": cmd_run, "trace": cmd_trace}[args.mode](args)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
