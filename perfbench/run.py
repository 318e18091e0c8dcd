"""semiclab benchmark: three seeded workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload count-scan --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Run from the repository root.  Every measurement happens in a fresh worker
process (``worker.py``) with BLAS limited to the CPUs this process may use.

--trace 0   ``setup_s`` from SETUP_REPS set-up-only processes plus the
            workload process, then ``wall_s``/``cpu_s`` per whole workload
            iteration for about --seconds, ``peak_rss_mb`` of that process.
--trace 1   one untraced and one traced iteration in one process; the
            per-layer metrics of layers.py.  dense-window also repeats the
            traced iteration with BLAS pinned to one thread.

Outputs are checked after the timed region (check.py).  The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Lines before it are a table for people and a JSON line of details (machine,
libraries, every sample, failure and check messages).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

WORKLOADS = ("count-scan", "dense-window", "eigenfunction-measure")
SETUP_REPS = 5
BUDGET_S = 170.0  # every run ends well within three minutes

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


class BenchError(RuntimeError):
    pass


def child_env(threads: int) -> dict:
    env = dict(os.environ)
    path = [os.path.join(ROOT, "src"), BENCH_DIR]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(threads)
    return env


def worker(mode: str, workload: str, seed: int, deadline: float, *extra,
           threads: int | None = None) -> dict:
    """Run one worker process to completion and parse its last line."""
    if threads is None:
        threads = len(os.sched_getaffinity(0))
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py"), mode,
           "--workload", workload, "--seed", str(seed), "--root", ROOT, *extra]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError(f"no time left for the {mode} worker")
    try:
        proc = subprocess.run(cmd, env=child_env(threads), cwd=ROOT, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} worker for {workload} timed out after {timeout:.0f} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} worker for {workload} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} worker for {workload} printed nothing")
    return json.loads(lines[-1])


def tail_percentile(samples) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    p = (100 * (n - 10)) // n
    return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


def timing(samples) -> dict:
    tail = tail_percentile(samples)
    return {"median": statistics.median(samples), "n": len(samples),
            "tail": None if tail is None else {"percentile": tail[0], "value": tail[1]}}


def run_untraced(workload: str, seed: int, seconds: float, workdir: str,
                 deadline: float, record: bool) -> dict:
    setups = [worker("setup", workload, seed, deadline)["setup_s"] for _ in range(SETUP_REPS)]
    extra = ["--seconds", str(seconds), "--workdir", workdir] + (["--record"] if record else [])
    res = worker("run", workload, seed, deadline, *extra)
    setups.append(res["setup_s"])
    samples = {"wall_s": res["wall_s"], "setup_s": setups, "cpu_s": res["cpu_s"]}
    metrics = {name: {"value": statistics.median(samples[name]), "unit": "s"}
               for name in ("wall_s", "setup_s", "cpu_s")}
    metrics["peak_rss_mb"] = {"value": res["peak_rss_mb"], "unit": "MB"}
    res["timings"] = {name: timing(values) for name, values in samples.items()}
    return {"metrics": metrics, "detail": res}


def run_traced(workload: str, seed: int, workdir: str, deadline: float) -> dict:
    res = worker("trace", workload, seed, deadline, "--workdir", workdir)
    per_layer = res["per_layer"]
    if workload == "dense-window":
        single = worker("trace", workload, seed, deadline, "--workdir", workdir,
                        "--traced-only", threads=1)
        per_layer["eig.lapack_dense.self_s_1t"] = single["per_layer"]["eig.lapack_dense.self_s"]
    metrics = {name: {"value": value, "unit": res["units"][name]}
               for name, value in per_layer.items()}
    return {"metrics": metrics, "detail": res}


def measure(workload: str, seed: int, seconds: float, trace: bool, record: bool) -> dict:
    deadline = time.monotonic() + BUDGET_S
    os.makedirs(os.path.join(BENCH_DIR, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-", dir=os.path.join(BENCH_DIR, "_work"))
    try:
        if trace:
            out = run_traced(workload, seed, workdir, deadline)
        else:
            out = run_untraced(workload, seed, seconds, workdir, deadline, record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    d = out["detail"]
    out["attempted"] = max(1, d["attempted"])
    out["failed"] = len(d["failed"])
    out["correct"] = not d["wrong"]
    out["failed_frac"] = out["failed"] / out["attempted"]
    out["wrong_frac"] = len(d["wrong"]) / max(1, d["checked"])
    return out


def print_table(workload: str, out: dict) -> None:
    print(f"== {workload}")
    for name, m in out["metrics"].items():
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_frac':<44} {out['failed_frac']:>14.6g} ratio")
    print(f"  {'wrong_frac':<44} {out['wrong_frac']:>14.6g} ratio")
    for msg in out["detail"]["failed"] + out["detail"]["wrong"]:
        print(f"  ! {msg}")


def record_reference(workload: str, summary: dict) -> None:
    path = os.path.join(BENCH_DIR, "reference.json")
    ref = {}
    if os.path.exists(path):
        with open(path) as fh:
            ref = json.load(fh)
    ref[workload] = summary
    with open(path, "w") as fh:
        json.dump(ref, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="rewrite reference.json from this run (seed 0 only)")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "semiclab", "__init__.py")):
        print(f"run.py: no semiclab sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record_reference and (args.seed != 0 or args.trace):
        print("run.py: --record-reference needs --seed 0 --trace 0", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, bool(args.trace),
                                    args.record_reference)
    except BenchError as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    for name, out in results.items():
        print_table(name, out)
        if args.record_reference:
            record_reference(name, out["detail"]["summary"])
    print(json.dumps({name: out["detail"] for name, out in results.items()}))
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{w}/{k}": m for w, out in results.items() for k, m in out["metrics"].items()}
    print(json.dumps({
        "correct": all(out["correct"] for out in results.values()),
        "attempted": sum(out["attempted"] for out in results.values()),
        "failed": sum(out["failed"] for out in results.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
