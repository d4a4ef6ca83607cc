"""Every function the benchmark's per-layer metrics name still exists.

The traced benchmark run wraps the public functions of the lgrnok modules
and reports metrics named `<module>.<function>.<metric>`; a run that
cannot give a declared metric stops with an error.  This test catches a
renamed or deleted function before the benchmark does.
"""

import importlib
import inspect
import json
from pathlib import Path

SPEC = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def public_functions(module) -> set[str]:
    """Names the traced run wraps: public functions defined in the module."""
    return {
        name
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and getattr(fn, "__module__", None) == module.__name__
        and inspect.isfunction(inspect.unwrap(fn))
    }


def test_per_layer_functions_exist():
    names = [m["name"] for m in json.loads(SPEC.read_text())["per_layer"]]
    functions = [name.split(".")[:2] for name in names if name.count(".") == 2]
    assert functions
    missing = [
        f"{module}.{function}"
        for module, function in functions
        if function not in public_functions(importlib.import_module(f"lgrnok.{module}"))
    ]
    assert not missing
