"""Every exported name resolves, so a deletion cannot leave a stale export."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import hopd

# importing __main__ would run the CLI
MODULES = sorted(m.name for m in pkgutil.iter_modules(hopd.__path__) if m.name != "__main__")


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"hopd.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert not missing, f"hopd.{name}.__all__ names {missing}, which do not exist"


def test_package_imports_only_exported_names():
    tree = ast.parse(Path(hopd.__file__).read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom) and node.level == 1]
    assert imports
    for node in imports:
        module = importlib.import_module(f"hopd.{node.module}")
        exported = set(getattr(module, "__all__", ()))
        stale = [alias.name for alias in node.names if alias.name not in exported]
        assert not stale, f"hopd imports {stale} from hopd.{node.module}, outside its __all__"


@pytest.mark.parametrize("name", MODULES)
def test_module_imports_are_used(name):
    """Every module-level import is referenced or re-exported through __all__."""
    tree = ast.parse(Path(hopd.__file__).with_name(f"{name}.py").read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom))
        and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    exported = set(getattr(importlib.import_module(f"hopd.{name}"), "__all__", ()))
    unused = sorted(n for n in imported if n not in used and n not in exported)
    assert not unused, f"hopd.{name} imports {unused} and never uses them"
