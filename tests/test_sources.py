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


def _names_numpy(node, name):
    """Whether node names numpy's function ``name``: ``np.<name>``,
    ``numpy.<name>``, or an import of ``name`` from numpy."""
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy" and any(a.name == name for a in node.names)
    return (isinstance(node, ast.Attribute) and node.attr == name
            and isinstance(node.value, ast.Name) and node.value.id in ("np", "numpy"))


def numpy_uses(source, name):
    """(line, scope) for every use of numpy's function ``name``; the scope
    is Class.method in a class body, the function's name outside one, and
    "" at module level."""
    tree = ast.parse(source)
    methods = {fn: f"{cls.name}.{fn.name}" for cls in ast.walk(tree)
               if isinstance(cls, ast.ClassDef) for fn in cls.body
               if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))}
    out = [(n.lineno, "") for n in _own_nodes(tree) if _names_numpy(n, name)]
    for fn in ast.walk(tree):
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            out += [(n.lineno, methods.get(fn, fn.name)) for n in _own_nodes(fn)
                    if _names_numpy(n, name)]
    return sorted(out)


def library_numpy_uses(name):
    """(file, scope) of every use of numpy's function ``name`` in src/."""
    return [(path.name, scope) for path in sorted(SRC.glob("*.py"))
            for _, scope in numpy_uses(path.read_text(), name)]


def poly_expansions(source):
    """Lines that name numpy's root expansion ``np.poly``, in any form."""
    return sorted(n.lineno for n in ast.walk(ast.parse(source)) if _names_numpy(n, "poly"))


def scipy_uses(source):
    """Lines that import a scipy module in any form, also by name through
    ``__import__`` or ``importlib.import_module``, or reach it as ``scipy.<x>``."""
    def is_scipy(module):
        return module == "scipy" or module.startswith("scipy.")

    out = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            hit = any(is_scipy(a.name) for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = node.level == 0 and is_scipy(node.module)
        elif isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            hit = (name in ("__import__", "import_module") and node.args
                   and isinstance(node.args[0], ast.Constant)
                   and isinstance(node.args[0].value, str) and is_scipy(node.args[0].value))
        else:
            hit = (isinstance(node, ast.Attribute)
                   and isinstance(node.value, ast.Name) and node.value.id == "scipy")
        if hit:
            out.append(node.lineno)
    return sorted(out)


def library_scipy_uses():
    return {path.name: scipy_uses(path.read_text()) for path in sorted(SRC.glob("*.py"))}


SCIPY_USES_SNIPPET = (
    "import scipy\n"
    "import scipy.optimize\n"
    "from scipy import optimize, special\n"
    "from scipy.optimize import minimize\n"
    "def f(x):\n"
    "    import scipy.optimize._optimize as nm\n"
    "    return scipy.optimize.minimize\n"
    "from scipy.special import gammaln\n"
    "from .optimize import x\n"
    "tail = scipy.special.pdtrc\n"
    "import numpy, scipy.sparse.linalg as spla\n"
    "from scipy.sparse.linalg import eigsh\n"
    "la = importlib.import_module('scipy.linalg')\n"
    "sp = __import__('scipy')\n"
    "np = importlib.import_module('numpy'), __import__('scipyx')\n"
    "from . import scipy\n"
)


class TestNoScipy:
    """src/ loads no scipy module on any path: its numerics are numpy's and
    its own, and scipy's routines (Nelder-Mead, pdtrc, gammaln, eigsh) are
    the tests' oracles."""

    def test_library_never_imports_scipy(self):
        found = library_scipy_uses()
        assert found and not any(found.values()), found

    def test_rule_flags_each_import(self):
        assert scipy_uses(SCIPY_USES_SNIPPET) == [1, 2, 3, 4, 6, 7, 8, 10, 11, 12, 13, 14]


class TestOneRootSolve:
    def test_library_solves_roots_in_the_target_alone(self):
        found = library_numpy_uses("roots")
        assert found == [("design.py", "TargetCoefficients.roots")], found

    def test_rule_flags_each_solve(self):
        source = (
            "import numpy as np\n"
            "from numpy import roots\n"
            "class T:\n"
            "    def roots(self):\n"
            "        return np.roots(self.c)\n"
            "def f(c, target):\n"
            "    def g():\n"
            "        return numpy.roots(c)\n"
            "    return target.roots, g\n"
        )
        assert numpy_uses(source, "roots") == [(2, ""), (5, "T.roots"), (8, "g")]


class TestOneRootExpansion:
    """Roots become coefficients through ``design._poly`` alone: np.poly's
    convolutions in its order, held to np.poly bit for bit by the tests.
    The one other convolution is of the held modes' Poisson weights, the
    norms N_s of ``protocol._held_block``."""

    def test_library_convolves_in_poly_and_the_poisson_norms_alone(self):
        found = library_numpy_uses("convolve")
        assert found == [("design.py", "_poly"), ("protocol.py", "_held_block")], found

    def test_rule_flags_each_convolution(self):
        source = (
            "import numpy as np\n"
            "from numpy import convolve as expand\n"
            "def _poly(zs):\n"
            "    return np.convolve(zs, [1])\n"
            "class C:\n"
            "    def rows(self, p, z):\n"
            "        return [numpy.convolve(p, [1, -z]), np.polymul(p, z), p.convolve(z)]\n"
        )
        assert numpy_uses(source, "convolve") == [(2, ""), (4, "_poly"), (7, "C.rows")]

    def test_library_never_calls_np_poly(self):
        found = {path.name: poly_expansions(path.read_text())
                 for path in sorted(SRC.glob("*.py"))}
        assert found and not any(found.values()), found

    def test_rule_flags_each_form(self):
        source = (
            "import numpy as np\n"
            "from numpy import poly as expand\n"
            "from numpy import polyval, polyder\n"
            "def f(z, c):\n"
            "    return np.poly(z), numpy.poly(z)\n"
            "p = np.polyval(c, 1), np.polyder(c), c.poly(z)\n"
            "expand = np.poly\n"
        )
        assert poly_expansions(source) == [2, 5, 5, 7]


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
