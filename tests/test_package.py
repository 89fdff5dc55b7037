"""The package surface: what `import wavecrit` offers."""

import ast
import importlib
import pkgutil
import types
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
