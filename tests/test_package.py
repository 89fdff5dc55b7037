"""The package surface: what `import wavecrit` offers."""

import ast
import importlib
import pkgutil
import types
from collections import Counter
from pathlib import Path

import wavecrit
from wavecrit import errors


def test_public_names_are_the_module_exports_and_the_errors():
    # a name deleted from one list but not the other shows up here
    public = {
        name
        for name, value in vars(wavecrit).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    modules = pkgutil.iter_modules(wavecrit.__path__)
    exported = set().union(
        *(getattr(importlib.import_module(f"wavecrit.{m.name}"), "__all__", ()) for m in modules)
    )
    error_classes = {
        name
        for name, value in vars(errors).items()
        if isinstance(value, type) and issubclass(value, errors.WavecritError)
    }
    assert public == exported | error_classes


def _unused_imports(path: Path):
    tree = ast.parse(path.read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - used)


def test_no_module_imports_a_name_it_never_uses():
    # the package __init__ imports only to re-export, which the test above checks
    unused = {
        path.name: names
        for path in sorted(Path(wavecrit.__file__).parent.glob("*.py"))
        if path.name != "__init__.py" and (names := _unused_imports(path))
    }
    assert unused == {}


def _names(root):
    # every name that root reads, as a variable, an attribute or an import
    for node in ast.walk(root):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.ImportFrom):
            yield from (a.name for a in node.names)


def test_every_private_function_has_a_caller_in_the_package():
    # a module-level helper that only the tests call belongs in the tests;
    # a function's calls of itself do not count
    trees = [ast.parse(path.read_text()) for path in Path(wavecrit.__file__).parent.glob("*.py")]
    uses = Counter(name for tree in trees for name in _names(tree))
    orphans = sorted(
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
        and not node.name.startswith("__")
        and uses[node.name] == Counter(_names(node))[node.name]
    )
    assert orphans == []
