"""No hsimae module refers to a private function of another.

A top-level function whose name starts with an underscore belongs to
its module: a caller elsewhere in `src/hsimae` goes through a public
name, so that the module may change or delete the private one freely.
This test fails for every `m._f` or `from .m import _f` in one module
that names a private function of another. Module-level constants such
as `tensorcore._BLOCK` are outside its scope.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "hsimae"


def _crossings(sources):
    """Sorted 'module: other._f' for each reference, in the module -> source
    text mapping `sources`, to a private function of another module."""
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
    private = {stem: {node.name for node in tree.body
                      if isinstance(node, ast.FunctionDef)
                      and node.name.startswith("_")}
               for stem, tree in trees.items()}
    found = set()
    for stem, tree in trees.items():
        modules = {}  # local name -> the hsimae module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name in private.get(node.module, ()):
                        found.add(f"{stem}: {node.module}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and modules.get(node.value.id, stem) != stem
                    and node.attr in private.get(modules[node.value.id], ())):
                found.add(f"{stem}: {modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_no_module_refers_to_anothers_private_function():
    crossings = _crossings({path.stem: path.read_text()
                            for path in SRC.glob("*.py")})
    assert not crossings, f"private functions used across modules: {crossings}"


def test_the_walk_finds_each_form_of_reference():
    sources = {
        "a": "_LIMIT = 3\ndef _f():\n    pass\ndef g():\n    return _f()\n",
        "b": "from . import a\nfrom . import a as alias\n"
             "def h():\n    return a._f(), alias._f, a._LIMIT, a.g()\n",
        "c": "from .a import _f, g\n",
    }
    assert _crossings(sources) == ["b: a._f", "c: a._f"]
