"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "kerrlink"
# the names by which library code could import the test tree
TEST_MODULES = {"tests"} | {path.stem for path in TESTS.glob("*.py")}


def unread_parameters(source):
    """(line, function, parameter) for every parameter of a function or
    method that its body never reads; self and cls are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        a = fn.args
        params = [p.arg for p in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if p]
        read = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [(fn.lineno, fn.name, p) for p in params
                if p not in read and p not in ("self", "cls")]
    return out


def imports_from_tests(source):
    """(line, module) for every import of a module of the test tree
    (``oracles``, a test file, or the ``tests`` package)."""
    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        out += [(node.lineno, n) for n in names if n.split(".")[0] in TEST_MODULES]
    return out


class TestNoTestImports:
    def test_library_imports_nothing_from_the_test_tree(self):
        found = {path.name: imports_from_tests(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
        assert found and not any(found.values()), found

    def test_rule_flags_a_test_import(self):
        source = (
            "import numpy as np\nfrom .fock import DensOp\n"
            "from oracles import x\nimport tests.oracles\n"
            "def f():\n    import test_cli\n"
        )
        assert imports_from_tests(source) == [
            (3, "oracles"), (4, "tests.oracles"), (6, "test_cli")
        ]


class TestEveryParameterIsRead:
    def test_library_functions_read_all_their_parameters(self):
        found = {path.name: unread_parameters(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
        assert found and not any(found.values()), found

    def test_rule_flags_an_unread_parameter(self):
        source = (
            "def f(target, roots, *, k=1):\n    return roots\n"
            "class C:\n    def m(self, x):\n        return lambda: x\n"
        )
        assert unread_parameters(source) == [(1, "f", "target"), (1, "f", "k")]
