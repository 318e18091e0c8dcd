"""Public names: every export resolves and the README library example is covered."""

import ast
import importlib
import os
import pathlib
import pkgutil
import re
import subprocess
import sys
import textwrap

import pytest

import semiclab


def test_every_export_resolves():
    assert all(hasattr(semiclab, name) for name in semiclab.__all__)
    for info in pkgutil.iter_modules(semiclab.__path__):
        module = importlib.import_module(f"semiclab.{info.name}")
        missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
        assert not missing, (info.name, missing)


def test_readme_library_example_is_exported():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library use", 1)[1].split("```python", 1)[1].split("```", 1)[0]
    used = set(re.findall(r"\bsl\.(\w+)", example))
    assert used
    assert used <= set(semiclab.__all__)


def test_scipy_linalg_only_for_routines_numpy_lacks():
    # numpy and scipy each ship an OpenBLAS with its own thread pool; dense
    # kernels go through numpy.linalg so that, on a BLAS build whose threads
    # semiclab.eig cannot set to one, one pool does the threaded work
    allowed = {"scipy.linalg": {"eigh_tridiagonal", "eig_banded", "solve_banded", "circulant"},
               "scipy.linalg.lapack": {"dstebz"}}
    found = []
    for path in sorted(pathlib.Path(semiclab.__path__[0]).glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
                names = {a.name for a in node.names}
                if node.module == "scipy" and "linalg" in names:
                    found.append((path.name, "scipy.linalg"))
                elif node.module.startswith("scipy.linalg"):
                    found += [(path.name, f"{node.module}.{n}")
                              for n in sorted(names - allowed.get(node.module, set()))]
            elif isinstance(node, ast.Import):
                found += [(path.name, a.name) for a in node.names
                          if a.name == "scipy" or a.name.startswith("scipy.linalg")]
    assert found == []


def test_import_leaves_heavy_scipy_modules_unloaded():
    # sparse graphs, quadrature and optimizers are imported by the functions
    # that use them, so importing the package stays cheap
    src = str(pathlib.Path(semiclab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = ("import sys, semiclab; "
            "print(sorted(m for m in ('scipy.sparse', 'scipy.integrate', 'scipy.optimize') "
            "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out == "[]\n"


def test_import_pins_every_openblas_to_one_thread():
    # semiclab.eig sets each loaded OpenBLAS to one thread, whatever the
    # environment asks: an idle pool left spinning slows the numpy work after it
    src = str(pathlib.Path(semiclab.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "2", "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    code = textwrap.dedent("""
        import ctypes, os, semiclab
        getters = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                   "openblas_get_num_threads64_", "openblas_get_num_threads")
        try:
            with open("/proc/self/maps") as fh:
                parts = [line.split(maxsplit=5) for line in fh]
        except OSError:
            parts = []
        paths = {p[5].strip() for p in parts if len(p) == 6 and "openblas" in os.path.basename(p[5])}
        for path in sorted(paths):
            lib = ctypes.CDLL(path)
            name = next((g for g in getters if hasattr(lib, g)), None)
            if name is not None:
                getattr(lib, name).restype = ctypes.c_int
                print(os.path.basename(path), getattr(lib, name)())
    """)
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    threads = dict(line.split() for line in out.splitlines())
    if not threads:
        pytest.skip("no loaded OpenBLAS exports a get_num_threads getter")
    assert set(threads.values()) == {"1"}, threads
