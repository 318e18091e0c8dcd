"""Public names: every export resolves and the README library example is covered."""

import importlib
import pathlib
import pkgutil
import re

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
