"""Every public tensorcore function has a caller, or a benchmark row.

An engine op that nothing in `src/` calls is surface to test and keep
without use. This test fails for a public `tensorcore` function unless
some other function in `src/hsimae` refers to it, or a `BENCHMARK.json`
per-layer row `<phase>.tensorcore.<func>.<metric>` names it (the
benchmark then traces it, as it does `softmax`).
"""

import ast
import inspect
import json
import pathlib

from hsimae import tensorcore as tc

ROOT = pathlib.Path(__file__).resolve().parents[1]
ROWS = [row["name"].split(".")
        for row in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
BENCHED = {parts[2] for parts in ROWS if parts[1:2] == ["tensorcore"]}


def _public_ops():
    return {name for name, fn in inspect.getmembers(tc, inspect.isfunction)
            if not name.startswith("_") and fn.__module__ == tc.__name__}


def _references():
    """(referring top-level definition, name) for every `tc.<name>` or
    `tensorcore.<name>` in src/hsimae, and every bare name in tensorcore."""
    refs = set()
    for path in (ROOT / "src" / "hsimae").glob("*.py"):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and isinstance(node.value, ast.Name)
                        and node.value.id in ("tc", "tensorcore")):
                    refs.add((owner, node.attr))
                elif path.stem == "tensorcore" and isinstance(node, ast.Name):
                    refs.add((owner, node.id))
    return refs


def test_every_engine_op_has_a_caller():
    called = {name for owner, name in _references() if owner != name}
    idle = sorted(_public_ops() - called - BENCHED)
    assert not idle, f"tensorcore functions with no caller in src/: {idle}"

