import ast
import importlib
import pkgutil
import sys
from pathlib import Path

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


def test_every_check_is_exported():
    from spinbrauer import verify

    assert [c.__name__ for c in verify.CHECKS.values() if c.__name__ not in verify.__all__] == []


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from spinbrauer import *", namespace)
    assert "LinearMap" in namespace and "realize_diagram" in namespace


def test_package_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; keep it true.
    paths = sorted(Path(spinbrauer.__file__).parent.glob("*.py"))
    assert paths
    foreign = []
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            foreign += [f"{path.name}: {name}" for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert foreign == []
