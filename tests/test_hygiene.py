"""Source hygiene, read off the syntax trees with the standard library:
no module imports a name it never uses, and no function or method exists
that nothing calls or mentions by name."""

import ast
from pathlib import Path

import hurwitztau

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


def test_every_function_is_referenced():
    refs = _References()
    for directory in SEARCH_DIRS:
        for path in sorted(directory.rglob("*.py")):
            refs.visit(_tree(path))
    definitions = [d for path in _modules() for d in _definitions(path.name, _tree(path))]
    unreferenced = _unreferenced(definitions, refs)
    assert not unreferenced, unreferenced


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
