"""Module layering of the tateops package, read from the source with ast.

Every import sits at the top of its module, so the import graph is the one
the source shows, and the graph between tateops modules (``__init__`` left
out: it only re-exports) has no cycle.  Each object ``tateops`` exports has
one public name.  No module keeps mutable state at module level beyond an
allow-list, so every value the engine hands out stays safe to share across
threads and no cache outlives a call.  No check is an ``assert`` statement,
so every check still runs under ``python -O``.  The methods the benchmark's
span tracer wraps are defined in their own classes.  Outside ``operators``,
no module reads how a line stores its steps, and only ``serial.op_to_json``
reads the window layout derived from them; inside it, one function builds a
line without its constructor.
"""

import ast
from pathlib import Path

import tateops
from tateops import EvSeq, Scalar, TateOp

SCALAR_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "__neg__", "__eq__")
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


def test_no_assert_statement():
    found = [f"{name}.py:{node.lineno}" for name, tree in MODULES.items()
             for node in ast.walk(tree) if isinstance(node, ast.Assert)]
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
    # cubical imports the trace of trace.py, so trace sits below it
    assert "cubical" not in graph["trace"]


def test_each_exported_object_has_one_name():
    # ints are exempt: both residue signs are the same -1 object
    names: dict[int, list[str]] = {}
    for name in tateops.__all__:
        obj = getattr(tateops, name)
        if not isinstance(obj, int):
            names.setdefault(id(obj), []).append(name)
    assert [group for group in names.values() if len(group) > 1] == []


# Module-level mutable containers that live as long as the process: the one
# instance per prime field, the one zero operator per (level, field), and
# the lock that serializes changes to the recursion limit.
ALLOWED_MUTABLE = {"fields.PrimeField._cache", "operators._ZEROS",
                   "serial._RECURSION_LIMIT_LOCK"}
MUTABLE_TYPES = {"dict", "list", "set", "bytearray", "defaultdict", "deque",
                 "OrderedDict", "Counter", "Lock", "RLock"}
MUTABLE_DISPLAYS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)


def _outside_functions(node: ast.AST, prefix: str = ""):
    """(prefix, node) for every node outside function bodies; prefix names
    the enclosing classes."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        inner = prefix + child.name + "." if isinstance(child, ast.ClassDef) else prefix
        yield prefix, child
        yield from _outside_functions(child, inner)


def _is_mutable(value: ast.AST) -> bool:
    if isinstance(value, MUTABLE_DISPLAYS):
        return True
    if isinstance(value, ast.Call):
        func = value.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        return name in MUTABLE_TYPES
    return False


def _mutable_bindings(module: str, tree: ast.AST) -> list[str]:
    """module.name of each module- or class-level binding of a mutable
    container; dunder names such as __all__ are exempt."""
    found = []
    for prefix, node in _outside_functions(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None \
                and _is_mutable(node.value):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            found += [f"{module}.{prefix}{ast.unparse(t)}" for t in targets
                      if not ast.unparse(t).startswith("__")]
    return found


def test_mutable_module_state_is_allow_listed():
    snippet = ast.parse("A = {}\nB = list()\nF = collections.deque()\n"
                        "__all__ = ['x']\nG = (1, 2)\n"
                        "class C:\n    d = {k: 1 for k in ()}\n"
                        "    def f(self):\n        e = []\n")
    assert _mutable_bindings("m", snippet) == ["m.A", "m.B", "m.F", "m.C.d"]
    found = {binding for name, tree in MODULES.items()
             for binding in _mutable_bindings(name, tree)}
    assert found - ALLOWED_MUTABLE == set()
    assert ALLOWED_MUTABLE <= found


def test_a_class_that_defines_eq_defines_hash():
    # a class body with __eq__ and no __hash__ makes its instances unhashable
    # without a word; __hash__ = None says so on purpose
    found = []
    for name, tree in MODULES.items():
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                defined = {node.name for node in cls.body if isinstance(node, ast.FunctionDef)}
                defined |= {ast.unparse(t) for node in cls.body if isinstance(node, ast.Assign)
                            for t in node.targets}
                if "__eq__" in defined and "__hash__" not in defined:
                    found.append(f"{name}.{cls.name}")
    assert found == []


def test_the_methods_the_span_tracer_wraps_live_in_their_own_classes():
    # perfbench/tracer.py counts scalar operations by wrapping Scalar's six
    # operators in Scalar's class dict, and spans EvSeq.of and five TateOp
    # methods the same way: a subclass or an inherited method would let
    # calls bypass the wrapper
    assert set(SCALAR_OPS) <= vars(Scalar).keys()
    assert Scalar.__subclasses__() == []
    assert [f"{name}.{cls.name}" for name, tree in MODULES.items()
            for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
            and any(ast.unparse(base).split(".")[-1] == "Scalar" for base in cls.bases)] == []
    assert "of" in vars(EvSeq)
    assert {"__init__", "__add__", "__mul__", "__eq__", "entry"} <= vars(TateOp).keys()


def _attribute_readers(tree: ast.AST, attrs: set[str]) -> set[str]:
    """Dotted names of the functions and classes whose own code reads one of
    attrs as an attribute; '' for module-level code.  A method call, such
    as ``d.values()``, is not a read of the attribute ``values``."""
    found = set()
    called = {id(node.func) for node in ast.walk(tree) if isinstance(node, ast.Call)}

    def visit(node: ast.AST, owner: str) -> None:
        for child in ast.iter_child_nodes(node):
            inner = owner
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                inner = f"{owner}.{child.name}" if owner else child.name
            elif (isinstance(child, ast.Attribute) and child.attr in attrs
                    and id(child) not in called):
                found.add(owner)
            visit(child, inner)

    visit(tree, "")
    return found


def test_only_op_to_json_reads_the_line_window_outside_operators():
    # how EvSeq stores a line (its steps: starts, values) and the window
    # layout derived from them (window, window_start) are operators' to
    # change; every other module goes through value, restrict, support_*,
    # sum, window_end and the operators on lines, and serial writes the
    # layout
    snippet = ast.parse("x = s.window\nclass C:\n    def f(self, s):\n"
                        "        return s.window_start, s.window_end()\n"
                        "def g(s, d):\n    return s.window_size, d.values()\n")
    assert _attribute_readers(snippet, {"window", "window_start", "values"}) == {"", "C.f"}
    others = {name: tree for name, tree in MODULES.items() if name != "operators"}
    found = {f"{name}.{reader}" for name, tree in others.items()
             for reader in _attribute_readers(tree, {"window", "window_start"})}
    assert found == {"serial.op_to_json"}
    assert {f"{name}.{reader}" for name, tree in others.items()
            for reader in _attribute_readers(tree, {"starts", "values"})} == set()


def test_one_line_construction_bypasses_the_constructor():
    # tests/conftest.py's work_counter counts EvSeq.__init__ and
    # operators._from_steps; a second way round __init__ would go uncounted
    assert [f.name for f in ast.walk(MODULES["operators"]) if isinstance(f, ast.FunctionDef)
            and any(isinstance(node, ast.Attribute) and node.attr == "__new__"
                    for node in ast.walk(f))] == ["_from_steps"]
