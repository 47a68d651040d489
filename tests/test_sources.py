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


def _own_nodes(fn):
    """The nodes of fn's body, without those of the functions nested in it."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            todo.extend(ast.iter_child_nodes(node))


def squared_norm_raisers(source):
    """(line, function) for every raise inside a function whose message
    speaks of a squared norm: the vanishing-state DomainError."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(n.lineno, fn.name) for n in _own_nodes(fn)
                    if isinstance(n, ast.Raise) and "squared norm" in ast.unparse(n)]
    return sorted(out)


def _is_lru_cache(decorator):
    f = decorator.func if isinstance(decorator, ast.Call) else decorator
    return (isinstance(f, ast.Name) and f.id == "lru_cache") or (
        isinstance(f, ast.Attribute) and f.attr == "lru_cache")


def _frozen_name(stmt):
    """X for a statement ``X.flags.writeable = False``, else None."""
    if not (isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Constant)
            and stmt.value.value is False and len(stmt.targets) == 1):
        return None
    t = stmt.targets[0]
    if (isinstance(t, ast.Attribute) and t.attr == "writeable"
            and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
            and isinstance(t.value.value, ast.Name)):
        return t.value.value.id
    return None


def unfrozen_memo_returns(source):
    """(line, function) for every return of an ``lru_cache`` function whose
    value is not a name, or a tuple of names, that the body makes read-only
    with ``X.flags.writeable = False``.  A frozen loop variable freezes each
    name of the tuple or list it runs over."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not (isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
                and any(map(_is_lru_cache, fn.decorator_list))):
            continue
        frozen = {_frozen_name(n) for n in ast.walk(fn)} - {None}
        for loop in ast.walk(fn):
            if (isinstance(loop, ast.For) and isinstance(loop.target, ast.Name)
                    and loop.target.id in frozen and isinstance(loop.iter, (ast.Tuple, ast.List))):
                frozen |= {e.id for e in loop.iter.elts if isinstance(e, ast.Name)}
        for ret in ast.walk(fn):
            if not isinstance(ret, ast.Return):
                continue
            values = ret.value.elts if isinstance(ret.value, ast.Tuple) else [ret.value]
            if not all(isinstance(v, ast.Name) and v.id in frozen for v in values):
                out.append((ret.lineno, fn.name))
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


class TestMemosAreReadOnly:
    def test_library_memos_return_read_only_arrays(self):
        found = {path.name: unfrozen_memo_returns(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
        assert found and not any(found.values()), found

    def test_rule_flags_a_writeable_memo(self):
        source = (
            "@lru_cache(maxsize=8)\n"
            "def both(k):\n"
            "    a, b = f(k), g(k)\n"
            "    for x in (a, b):\n"
            "        x.flags.writeable = False\n"
            "    return a, b\n"
            "@functools.lru_cache\n"
            "def reopened(k):\n"
            "    a = f(k)\n"
            "    a.flags.writeable = True\n"
            "    return a\n"
            "@lru_cache\n"
            "def half(k):\n"
            "    a, b = f(k), g(k)\n"
            "    a.flags.writeable = False\n"
            "    return a, b\n"
            "@lru_cache\n"
            "def fresh(k):\n"
            "    a = f(k)\n"
            "    a.flags.writeable = False\n"
            "    return a.copy()\n"
            "def plain(k):\n"
            "    return f(k)\n"
        )
        assert unfrozen_memo_returns(source) == [(11, "reopened"), (16, "half"), (21, "fresh")]


class TestOneVanishingStateCheck:
    def test_library_raises_it_from_one_helper(self):
        found = [(path.name, name) for path in sorted(SRC.glob("*.py"))
                 for _, name in squared_norm_raisers(path.read_text())]
        assert found == [("fock.py", "_nonvanishing_norm2")], found

    def test_rule_flags_each_raiser(self):
        source = (
            "def check(n2):\n"
            "    if n2 <= 0:\n"
            "        raise DomainError(f'the state has squared norm {n2:.3g}')\n"
            "def outer(c):\n"
            "    def inner():\n"
            "        raise DomainError('squared norm 0')\n"
            "    raise ValueError('bad c')\n"
        )
        assert squared_norm_raisers(source) == [(3, "check"), (6, "inner")]
