"""Each library module's ``__all__`` lists exactly its public functions and
classes, and every name it imports is used."""

import ast
import importlib
import inspect
import pathlib

import pytest

MODULES = ("cli", "dictionary", "fileio", "filters", "harness", "models", "observation", "solver")


@pytest.mark.parametrize("name", MODULES)
def test_all_lists_public_functions_and_classes(name):
    module = importlib.import_module(f"pafimocs.{name}")
    defined = {
        attr
        for attr, obj in vars(module).items()
        if not attr.startswith("_")
        and (inspect.isfunction(obj) or inspect.isclass(obj))
        and obj.__module__ == module.__name__
    }
    assert len(module.__all__) == len(set(module.__all__)), "__all__ repeats a name"
    assert all(hasattr(module, attr) for attr in module.__all__)
    listed = {
        attr
        for attr in module.__all__
        if inspect.isfunction(getattr(module, attr)) or inspect.isclass(getattr(module, attr))
    }
    assert listed == defined


@pytest.mark.parametrize("name", MODULES)
def test_every_imported_name_is_used(name):
    """Each name a module imports is read in it, listed in its ``__all__`` or
    imported on a ``# noqa`` line; the line is the alias's own, so one
    ``# noqa`` in a multi-line import covers only its line."""
    module = importlib.import_module(f"pafimocs.{name}")
    source = pathlib.Path(module.__file__).read_text()
    lines, tree = source.splitlines(), ast.parse(source)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    imported = [
        (alias.asname or alias.name.split(".")[0], alias.lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    ]
    kept = read | set(module.__all__)
    unused = [n for n, line in imported if n not in kept and "# noqa" not in lines[line - 1]]
    assert unused == []


def test_every_private_module_name_is_read():
    """Each module-level private function, class or assignment of the package
    is read somewhere in it, so a fold of one helper into another leaves no
    dead copy behind."""
    package = pathlib.Path(importlib.import_module("pafimocs").__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]
    defined = set()
    for node in (node for tree in trees for node in tree.body):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            defined.update(target.id for target in targets if isinstance(target, ast.Name))
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    read = set()
    for node in (node for tree in trees for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
    assert len(private) > 40
    assert sorted(private - read) == []
