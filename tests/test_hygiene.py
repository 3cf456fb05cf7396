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
    """Names used anywhere, except a def's uses of its own name inside itself."""

    def __init__(self):
        self.names = set()
        self.enclosing = []

    def _visit_def(self, node):
        self.enclosing.append(node.name)
        self.generic_visit(node)
        self.enclosing.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = _visit_def

    def _use(self, name):
        if name not in self.enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._use(node.id)

    def visit_Attribute(self, node):
        self._use(node.attr)
        self.generic_visit(node)

    def visit_alias(self, node):
        self._use(node.name.split(".")[-1])


def _definitions():
    """(module, qualified name, name) of module-level functions and class methods."""
    for path in _modules():
        for node in _tree(path).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield path.name, node.name, node.name
            elif isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                        yield path.name, f"{node.name}.{item.name}", item.name


# Methods that a library calls by protocol rather than by name.
CALLBACKS = {"cli.py": {"_Parser.error"}}  # argparse reports every bad flag through it


def test_every_function_is_referenced():
    refs = _References()
    for directory in SEARCH_DIRS:
        for path in sorted(directory.rglob("*.py")):
            refs.visit(_tree(path))
    unreferenced = [
        f"{module}: {qualname}"
        for module, qualname, name in _definitions()
        if not _is_dunder(name)
        and name not in refs.names
        and qualname not in CALLBACKS.get(module, ())
    ]
    assert not unreferenced, unreferenced
