import importlib
import pkgutil

import pytest

import spinbrauer

MODULES = sorted(
    f"spinbrauer.{info.name}" for info in pkgutil.iter_modules(spinbrauer.__path__)
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_exists(name):
    module = importlib.import_module(name)
    assert hasattr(module, "__all__")
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from spinbrauer import *", namespace)
    assert "LinearMap" in namespace and "realize_diagram" in namespace
