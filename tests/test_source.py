"""Static checks over the program's source, in place of a linter."""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "morvit"

# ``routing`` imports these only so that the benchmark's tracer, which wraps
# ``routing.gather_rows`` and ``routing.scatter_rows`` by name
# (benchmark/run.py, LAYER_SPANS), finds them there; no routing code calls them.
KEPT_FOR_THE_TRACER = {"routing.gather_rows", "routing.scatter_rows"}


def unused_imports(source):
    """Names that ``source`` imports and never reads, sorted."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_unused_imports_finds_an_unread_name():
    source = "import os.path\nimport numpy as np\nfrom a import b, c as d\nnp.zeros(d)\n"
    assert unused_imports(source) == ["b", "os"]


def test_no_module_imports_a_name_it_does_not_use():
    found = {f"{path.stem}.{name}"
             for path in sorted(SRC.glob("*.py"))
             for name in unused_imports(path.read_text(encoding="utf-8"))}
    assert found - KEPT_FOR_THE_TRACER == set()
