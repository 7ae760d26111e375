"""Every per-layer row of BENCHMARK.json names a function the tracer wraps.

A row `<phase>.<module>.<func>.<metric>` is measured from the spans of
`hsimae.<module>.<func>`, a public function defined in that module
(`tensorcore.backward` is `Tensor.backward`). If the function is renamed
or deleted, the benchmark reports the row as None; this test fails
instead.
"""

import importlib
import inspect
import json
import pathlib

BENCHMARK = pathlib.Path(__file__).resolve().parents[1] / "BENCHMARK.json"
ROWS = [row["name"] for row in json.loads(BENCHMARK.read_text())["per_layer"]]
# rows over a whole module or the whole run, not over one function
WHOLE = {"pretrain.tensorcore.ops_per_step": "tensorcore",
         "trace.overhead_ratio": None}


def _traced_function(module, func):
    mod = importlib.import_module(f"hsimae.{module}")
    if (module, func) == ("tensorcore", "backward"):
        return mod.Tensor.backward
    fn = getattr(mod, func, None)
    if (func.startswith("_") or not inspect.isfunction(fn)
            or fn.__module__ != mod.__name__):
        return None
    return fn


def test_rows_have_four_parts():
    odd = [name for name in ROWS if len(name.split(".")) != 4]
    assert sorted(odd) == sorted(WHOLE)
    for module in filter(None, WHOLE.values()):
        importlib.import_module(f"hsimae.{module}")


def test_every_row_names_a_public_function():
    missing = [name for name in ROWS if name not in WHOLE
               and _traced_function(*name.split(".")[1:3]) is None]
    assert not missing, f"rows naming no public function: {missing}"
