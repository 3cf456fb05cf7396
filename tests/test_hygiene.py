"""Source hygiene, read off the syntax trees with the standard library:
no module imports a name it never uses, no function or method exists
that nothing calls or mentions by name, none but a listed few exists only
for the tests, no optional parameter exists that no call passes, no
parameter goes unread but a listed few, every module-level cache,
bounded or not, is one of a listed few, and so is every import made inside
a function and every function that reads a weight family's kind.  The
package's values are tuples: importing it loads no ``dataclasses``."""

import ast
import math
import subprocess
import sys
from collections import defaultdict
from fractions import Fraction
from pathlib import Path

import pytest

import hurwitztau
from hurwitztau.adaptedbasis import BasisWindow
from hurwitztau.correlators import KernelWindow
from hurwitztau.cutjoin import DiffOp
from hurwitztau.exactalg import GradedPoly, LaurentWindow
from hurwitztau.taufn import TauSeries
from hurwitztau.weights import exponential

PACKAGE = Path(hurwitztau.__file__).resolve().parent
ROOT = PACKAGE.parents[1]
SEARCH_DIRS = [ROOT / "src", ROOT / "tests", ROOT / "bench"]


def _modules():
    return sorted(PACKAGE.glob("*.py"))


def _tree(path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def test_no_unused_imports():
    unused = []
    for path in _modules():
        if path.name == "__init__.py":
            continue
        tree = _tree(path)
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


class _References(ast.NodeVisitor):
    """Names used anywhere, except a def's uses of its own name inside itself.

    ``bare`` collects plain names (``x``); ``dotted`` collects attribute names
    (``obj.x``) and imported names.  A bare name can never reach a method, so a
    method counts as referenced only through ``dotted``: a parameter that
    shares a dead method's name does not hide the method.
    """

    def __init__(self):
        self.bare, self.dotted = set(), set()
        self.enclosing = []

    def _visit_def(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def _use(self, name, names):
        if name not in self.enclosing:
            names.add(name)

    def visit_Name(self, node):
        self._use(node.id, self.bare)

    def visit_Attribute(self, node):
        self._use(node.attr, self.dotted)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.split(".")[-1], self.dotted)


def _definitions(module, tree):
    """(module, qualified name, name) of module-level functions and class methods."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield module, node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield module, f"{node.name}.{item.name}", item.name


# Methods that a library calls by protocol rather than by name.
CALLBACKS = {"cli.py": {"_Parser.error"}}  # argparse reports every bad flag through it


def _unreferenced(definitions, refs):
    out = []
    for module, qualname, name in definitions:
        is_method = qualname != name
        names = refs.dotted if is_method else refs.bare | refs.dotted
        if (not _is_dunder(name) and name not in names
                and qualname not in CALLBACKS.get(module, ())):
            out.append(f"{module}: {qualname}")
    return out


def _references(directories):
    refs = _References()
    for directory in directories:
        for path in sorted(directory.rglob("*.py")):
            refs.visit(_tree(path))
    return refs


def test_every_function_is_referenced():
    refs = _references(SEARCH_DIRS)
    definitions = [d for path in _modules() for d in _definitions(path.name, _tree(path))]
    unreferenced = _unreferenced(definitions, refs)
    assert not unreferenced, unreferenced


# The library functions that only the tests call: the Frobenius coordinates
# that ROADMAP item 5's Giambelli route needs.  The list is exact, so a
# function that the library starts to use must leave it.
TEST_ONLY = {"partitions.py: Partition.frobenius"}


def test_every_function_is_used_by_the_library():
    refs = _references([ROOT / "src", ROOT / "bench"])
    definitions = [d for path in _modules() for d in _definitions(path.name, _tree(path))]
    assert set(_unreferenced(definitions, refs)) == TEST_ONLY


def test_function_called_only_by_tests_is_flagged():
    library = """
def kernel(x):
    return x + 1


def only_for_tests(x):
    return kernel(x) * 2


print(kernel(0))
"""
    tests = """
from library import only_for_tests


def test_it():
    assert only_for_tests(1) == 4
"""
    tree = ast.parse(library)
    definitions = list(_definitions("library.py", tree))
    refs = _References()
    refs.visit(tree)
    assert _unreferenced(definitions, refs) == ["library.py: only_for_tests"]
    refs.visit(ast.parse(tests))
    assert _unreferenced(definitions, refs) == []


def test_method_named_only_as_a_bare_name_is_flagged():
    # Widget.degree is dead: `degree` appears only as a parameter and a bare name
    source = """
class Widget:
    def degree(self):
        return 1

    def size(self):
        return 2


def use(w, degree):
    return degree + w.size()


use(Widget(), 3)
"""
    tree = ast.parse(source)
    refs = _References()
    refs.visit(tree)
    assert _unreferenced(list(_definitions("synthetic.py", tree)), refs) == [
        "synthetic.py: Widget.degree"
    ]


class _Calls(ast.NodeVisitor):
    """What the calls of each name pass: keyword names, and the largest number
    of positional arguments.  A call is keyed by its last name (``f(...)`` and
    ``obj.f(...)`` both count for ``f``); a constructor call counts for its
    class's ``__init__``.  ``*args`` passes every position, ``**kw`` every name."""

    def __init__(self):
        self.keywords = defaultdict(set)
        self.positional = defaultdict(int)
        self.any_keyword = set()

    def visit_Call(self, node):
        func = node.func
        name = getattr(func, "id", None) or getattr(func, "attr", None)
        if name is not None:
            starred = any(isinstance(a, ast.Starred) for a in node.args)
            count = math.inf if starred else len(node.args)
            self.positional[name] = max(self.positional[name], count)
            for kw in node.keywords:
                if kw.arg is None:
                    self.any_keyword.add(name)
                else:
                    self.keywords[name].add(kw.arg)
        self.generic_visit(node)


def _optional_parameters(module, tree):
    """(label, call name, position or None, parameter) for every parameter
    with a default, of module-level functions and class methods."""
    defs = [(None, node) for node in tree.body]
    defs += [(cls, item) for cls in tree.body if isinstance(cls, ast.ClassDef)
             for item in cls.body]
    for cls, node in defs:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if _is_dunder(node.name) and node.name != "__init__":
            continue
        call_name = cls.name if node.name == "__init__" else node.name
        label = f"{module}: {cls.name + '.' if cls else ''}{node.name}"
        args = node.args
        positional = args.posonlyargs + args.args
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        shift = 1 if cls is not None and not static else 0  # self or cls
        for index in range(len(positional) - len(args.defaults), len(positional)):
            yield label, call_name, index - shift, positional[index].arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield label, call_name, None, arg.arg


def _never_passed(parameters, calls):
    out = []
    for label, name, position, param in parameters:
        by_position = position is not None and position < calls.positional.get(name, 0)
        if not (by_position or param in calls.keywords[name] or name in calls.any_keyword):
            out.append(f"{label}({param}=)")
    return out


def test_every_optional_parameter_is_passed():
    calls = _Calls()
    for directory in SEARCH_DIRS:
        for path in sorted(directory.rglob("*.py")):
            calls.visit(_tree(path))
    parameters = [p for path in _modules() for p in _optional_parameters(path.name, _tree(path))]
    never = _never_passed(parameters, calls)
    assert not never, never


def test_optional_parameter_no_call_passes_is_flagged():
    source = """
def scale(x, factor=1, sign=1, *, exact=False):
    return x * factor * sign


class Box:
    def __init__(self, size, label=None):
        self.size = size

    def grow(self, by=1):
        return by


scale(2, 3)
Box(1, label="a").grow()
"""
    tree = ast.parse(source)
    calls = _Calls()
    calls.visit(tree)
    assert _never_passed(list(_optional_parameters("synthetic.py", tree)), calls) == [
        "synthetic.py: scale(sign=)", "synthetic.py: scale(exact=)", "synthetic.py: Box.grow(by=)"
    ]


def _cache_kind(expr):
    """"unbounded" for ``cache``, ``lru_cache(maxsize=None)`` or
    ``lru_cache(None)``; "bounded" for any other ``lru_cache``, bare or with a
    size; None for anything else.  Bare or through ``functools.``, as a
    decorator or as a call that wraps a function."""
    if isinstance(expr, ast.Call):
        name = getattr(expr.func, "id", None) or getattr(expr.func, "attr", None)
        if name == "lru_cache":
            sizes = [kw.value for kw in expr.keywords if kw.arg == "maxsize"] + expr.args[:1]
            unbounded = any(isinstance(v, ast.Constant) and v.value is None for v in sizes)
            return "unbounded" if unbounded else "bounded"
        return "unbounded" if name == "cache" else _cache_kind(expr.func)
    name = getattr(expr, "id", None) or getattr(expr, "attr", None)
    return {"cache": "unbounded", "lru_cache": "bounded"}.get(name)


def _module_caches(module, tree, kind):
    """module: name of each module-level function, method or assignment that
    holds a cache of the given kind.  Caches made inside a function live as
    long as its call, so they are not scanned."""
    nodes = list(tree.body)
    nodes += [item for cls in tree.body if isinstance(cls, ast.ClassDef) for item in cls.body]
    for node in nodes:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            if any(_cache_kind(d) == kind for d in node.decorator_list):
                yield f"{module}: {node.name}"
        elif isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            if _cache_kind(node.value) == kind:
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                yield from (f"{module}: {ast.unparse(t)}" for t in targets)


# The module-level caches without a bound, which ROADMAP item 8 bounds or scopes
# once the N caps are lifted.  The list is exact: a new unbounded cache fails.
UNBOUNDED_CACHES = {
    "grouporacle.py: conjugacy_classes",
    "grouporacle.py: build_class_algebra",
    "partitions.py: enumerate_partitions",
    "symfun.py: _character",
}

# The module-level caches with a bound.  The list is exact too: a new memo,
# say of G(j beta) for each j, fails until it is listed here.
BOUNDED_CACHES = {
    "grouporacle.py: _walk_table",
    "symfun.py: _h_list_cached",
    "weights.py: _g_series",
    "weights.py: g_value",
}


def test_no_new_unbounded_cache():
    found = {c for path in _modules() for c in _module_caches(path.name, _tree(path), "unbounded")}
    assert found == UNBOUNDED_CACHES


def test_no_new_bounded_cache():
    found = {c for path in _modules() for c in _module_caches(path.name, _tree(path), "bounded")}
    assert found == BOUNDED_CACHES


SYNTHETIC_CACHES = """
import functools
from functools import cache, lru_cache


@lru_cache(maxsize=None)
def table(n):
    return n


@functools.cache
def memo(n):
    return n


@lru_cache(maxsize=64)
def bounded(n):
    return n


@lru_cache
def default_size(n):
    return n


@functools.lru_cache(maxsize=2 * SIZE, typed=True)
def computed_size(n):
    return n


def plain(n):
    return n


class Box:
    @functools.lru_cache(None)
    def size(self):
        return 1

    @lru_cache(8)
    def area(self):
        return 1


wrapped = cache(bounded)
lookup = lru_cache(maxsize=None)(bounded)
kept = lru_cache(maxsize=16)(plain)
SIZE = 4


def scoped(values):
    local = cache(values.get)
    recent = lru_cache(maxsize=4)(values.get)
    return local(1) + recent(1)
"""


def test_unbounded_module_cache_is_flagged():
    assert list(_module_caches("synthetic.py", ast.parse(SYNTHETIC_CACHES), "unbounded")) == [
        "synthetic.py: table", "synthetic.py: memo", "synthetic.py: wrapped",
        "synthetic.py: lookup", "synthetic.py: size",
    ]


def test_bounded_module_cache_is_flagged():
    assert list(_module_caches("synthetic.py", ast.parse(SYNTHETIC_CACHES), "bounded")) == [
        "synthetic.py: bounded", "synthetic.py: default_size", "synthetic.py: computed_size",
        "synthetic.py: kept", "synthetic.py: area",
    ]


class _UnreadParameters(ast.NodeVisitor):
    """'module: qualname(param)' for each parameter of a function, method or
    lambda that its body never reads, ``self`` and ``cls`` aside.  A read in a
    nested function or lambda counts: the closure reads it."""

    def __init__(self, module):
        self.module = module
        self.scope = []
        self.unread = []

    def _visit_def(self, node, name):
        self.scope.append(name)
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        qualname = ".".join(self.scope)
        self.unread += [f"{self.module}: {qualname}({p})" for p in params
                        if p not in read and p not in ("self", "cls")]
        self.generic_visit(node)
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self._visit_def(node, node.name)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Lambda(self, node):
        self._visit_def(node, "<lambda>")

    def visit_ClassDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()


def _unread_parameters(module, tree):
    visitor = _UnreadParameters(module)
    visitor.visit(tree)
    return visitor.unread


# The parameters that a body may leave unread.  The list is exact.
UNREAD_PARAMETERS = set()


def test_every_parameter_is_read():
    found = {p for path in _modules() for p in _unread_parameters(path.name, _tree(path))}
    assert found == UNREAD_PARAMETERS


def test_parameter_never_read_is_flagged():
    source = """
def area(width, height, unit="m", *extra, **options):
    return width * height


class Box:
    def __init__(self, size, label):
        self.size = size

    @classmethod
    def make(cls, size):
        return cls(size, None)

    def scaled(self, factor, ring):
        return [lambda x, y: x * factor for _ in range(self.size)]


def outer(n, step):
    def inner(k):
        return n + k
    return inner
"""
    assert _unread_parameters("synthetic.py", ast.parse(source)) == [
        "synthetic.py: area(unit)", "synthetic.py: area(extra)", "synthetic.py: area(options)",
        "synthetic.py: Box.__init__(label)", "synthetic.py: Box.scaled(ring)",
        "synthetic.py: Box.scaled.<lambda>(y)", "synthetic.py: outer(step)",
    ]


class _DeferredImports(ast.NodeVisitor):
    """'module: qualname -> imported module' for each import made inside a
    function or method body instead of at module level."""

    def __init__(self, module):
        self.module = module
        self.scope = []
        self.functions = 0
        self.found = []

    def _visit_scope(self, node, is_function):
        self.scope.append(node.name)
        self.functions += is_function
        self.generic_visit(node)
        self.functions -= is_function
        self.scope.pop()

    def visit_FunctionDef(self, node):
        self._visit_scope(node, True)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node):
        self._visit_scope(node, False)

    def _record(self, targets):
        if self.functions:
            qualname = ".".join(self.scope)
            self.found += [f"{self.module}: {qualname} -> {t}" for t in targets]

    def visit_Import(self, node):
        self._record(alias.name for alias in node.names)

    def visit_ImportFrom(self, node):
        self._record(["." * node.level + (node.module or "")])


def _deferred_imports(module, tree):
    visitor = _DeferredImports(module)
    visitor.visit(tree)
    return visitor.found


# hurwitz imports taufn at module level, so taufn imports hurwitz where it is
# used.  The list is exact: a new import inside a function fails.
DEFERRED_IMPORTS = {"taufn.py: check_W_equals_dF -> .hurwitz"}


def test_no_new_deferred_import():
    found = {i for path in _modules() for i in _deferred_imports(path.name, _tree(path))}
    assert found == DEFERRED_IMPORTS


def test_deferred_import_is_flagged():
    source = """
import os
from . import sibling


def top():
    from .other import thing
    import json, math as m
    return thing, json, m


class Box:
    from .. import parent

    def method(self):
        def inner():
            from .deep.er import name
            return name
        return inner


def plain():
    return os, sibling
"""
    assert _deferred_imports("synthetic.py", ast.parse(source)) == [
        "synthetic.py: top -> .other", "synthetic.py: top -> json", "synthetic.py: top -> math",
        "synthetic.py: Box.method.inner -> .deep.er",
    ]


class _KindReads(ast.NodeVisitor):
    """'module: qualname' of each function or method that reads an attribute
    named ``kind``, in the order first met."""

    def __init__(self, module):
        self.module = module
        self.scope = []
        self.found = []

    def _visit_scope(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_scope

    def visit_Attribute(self, node):
        if node.attr == "kind" and isinstance(node.ctx, ast.Load):
            reader = f"{self.module}: {'.'.join(self.scope) or '<module>'}"
            if reader not in self.found:
                self.found.append(reader)
        self.generic_visit(node)


def _kind_reads(module, tree):
    visitor = _KindReads(module)
    visitor.visit(tree)
    return visitor.found


# A weight family is its log-series: g_coeff and profile_weight read it, and
# every other module asks the family for what it needs (log_coeffs, g_coeff,
# g_value, degree), never for its kind.
# classical_curve alone names the kind, to print a transcendental curve's
# symbolic text.  The list is exact: a new reader fails.
KIND_READERS = {
    "weights.py: WeightFamily.degree", "weights.py: log_coeffs", "weights.py: g_value",
    "adaptedbasis.py: classical_curve",
}


def test_only_weights_reads_a_family_kind():
    found = {r for path in _modules() for r in _kind_reads(path.name, _tree(path))}
    assert found == KIND_READERS


def test_kind_read_is_flagged():
    source = """
KIND = DEFAULT.kind


def top(family):
    return family.kind == "finite_c"


class Box:
    kind = "plain"

    def __init__(self, kind):
        self.kind = kind

    def method(self, other):
        def inner():
            return other.kind
        return inner

    def unrelated(self):
        return self.kinds, kind_of(self)
"""
    assert _kind_reads("synthetic.py", ast.parse(source)) == [
        "synthetic.py: <module>", "synthetic.py: top", "synthetic.py: Box.method.inner",
    ]


def test_importing_the_cli_loads_no_dataclasses_or_inspect():
    # the package's values are tuples; dataclasses would pull in inspect, ast and dis
    code = ("import sys; before = set(sys.modules); import hurwitztau.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    assert proc.stdout == "[]\n"
    assert not [path.name for path in _modules() if "dataclass" in path.read_text("utf-8")]


PLAIN_VALUES = [
    (LaurentWindow, (-1, (Fraction(1), Fraction(2)))),
    (KernelWindow, (-2, -1, 0, 1, {})),
    (DiffOp, ((((1,), (), Fraction(1)),), 1)),
    (TauSeries, (exponential(), 2, 1, GradedPoly({}, 2, 1))),
    (BasisWindow, (exponential(), 1, (), -1, 1, -2, None, {}, {}, None, None, None)),
]


@pytest.mark.parametrize("cls,args", PLAIN_VALUES, ids=lambda x: getattr(x, "__name__", ""))
def test_a_value_is_the_tuple_of_its_fields(cls, args):
    value = cls(*args)
    assert isinstance(value, tuple) and tuple(value) == args
    assert cls(**dict(zip(cls._fields, args))) == value
    assert repr(value).startswith(f"{cls.__name__}({cls._fields[0]}=")
    assert not hasattr(value, "__dict__")
