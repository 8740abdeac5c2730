"""Each library module's ``__all__`` lists exactly its public functions and classes."""

import importlib
import inspect

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
