"""The package surface: what `import wavecrit` offers."""

import importlib
import pkgutil
import types

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
