"""Rules the library source keeps, checked on its syntax tree."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "kerrlink"


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
