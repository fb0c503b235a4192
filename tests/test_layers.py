"""Module layering of the tateops package, read from the source with ast.

Every import sits at the top of its module, so the import graph is the one
the source shows, and the graph between tateops modules (``__init__`` left
out: it only re-exports) has no cycle.
"""

import ast
from pathlib import Path

import tateops

PACKAGE = Path(tateops.__file__).parent
MODULES = {path.stem: ast.parse(path.read_text(), str(path))
           for path in sorted(PACKAGE.glob("*.py"))}


def _imported(node: ast.AST) -> list[str]:
    """The tateops modules an import statement names, __init__ as ''."""
    if isinstance(node, ast.ImportFrom):
        if node.level == 1:
            return [node.module or ""]
        if node.level == 0 and (node.module or "").startswith("tateops"):
            return [node.module.partition(".")[2]]
        return []
    if isinstance(node, ast.Import):
        return [alias.name.partition(".")[2] for alias in node.names
                if alias.name.split(".")[0] == "tateops"]
    return []


def test_no_import_inside_a_function():
    found = []
    for name, tree in MODULES.items():
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                found += [f"{name}.py:{node.lineno}" for node in ast.walk(func)
                          if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert found == []


def test_module_import_graph_has_no_cycle():
    graph = {name: {dep for node in ast.walk(tree) for dep in _imported(node)
                    if dep not in ("", "__init__")}
             for name, tree in MODULES.items() if name != "__init__"}
    assert set().union(*graph.values()) <= graph.keys()
    done: set[str] = set()

    def visit(name: str, path: list[str]) -> None:
        assert name not in path, "import cycle: " + " -> ".join(path + [name])
        if name not in done:
            for dep in sorted(graph[name]):
                visit(dep, path + [name])
            done.add(name)

    for name in sorted(graph):
        visit(name, [])
    # cubical names the trace of trace.py as trace_n, so trace sits below it
    assert "cubical" not in graph["trace"]
