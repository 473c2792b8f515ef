"""Every exported name resolves, so a deletion cannot leave a stale export,
and every defaulted or keyword-catching parameter of an exported function
is pinned."""

import ast
import dataclasses
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import hopd
from hopd.bench import ExperimentConfig

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


def _defined(node) -> list[str]:
    """Names that a top-level statement defines: a function, a class or
    the names an assignment binds."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        targets = node.targets
    elif isinstance(node, ast.AnnAssign):
        targets = [node.target]
    else:
        return []
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(node) -> set[str]:
    """Names that a top-level statement reads, as a name, an attribute or an import."""
    names = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.alias):
            names.add(n.name)
    return names


def test_private_names_are_used():
    """Every module-level private function, class and assignment is
    referenced by another top-level statement of the package, so a
    deletion cannot leave a dead private helper behind."""
    statements = [
        (path.stem, node)
        for path in sorted(Path(hopd.__file__).parent.glob("*.py"))
        for node in ast.parse(path.read_text()).body
    ]
    references = [_referenced(node) for _, node in statements]
    dead = [
        f"{module}.{name}"
        for k, (module, node) in enumerate(statements)
        for name in _defined(node)
        if name.startswith("_") and not name.startswith("__")
        and not any(name in refs for j, refs in enumerate(references) if j != k)
    ]
    assert not dead, f"private names defined and never used: {dead}"


# Every defaulted parameter of an exported function, as "module.function(name)".
# A default is a knob: a new one fails here until it is added on purpose.
PINNED_DEFAULTS = {
    "aggregation.linear_diagram(level)",
    "core.diagram(level)",
    "core.linear_diagram(level)",
    "core.virtual_diagram(level)",
    "filtration.build_clique_filtration(normalize)",
    "filtration.persistence_h0(cap_delta)",
    "filtration.persistence_h1(cap_delta)",
    "filtration.persistence_oracle(cap_delta)",
    "harmonic.angles_close(tol)",
    "wasserstein.certified_wasserstein(counters)",
    "wasserstein.naive_wasserstein(counters)",
}


# Every **kwargs parameter of an exported function, in the same form.  It
# takes any keyword a caller invents, so it is a knob of unbounded width.
PINNED_VAR_KEYWORDS: set[str] = set()


def _exported_parameters():
    """(module.function(name), parameter) for every parameter of every
    exported function."""
    for name in MODULES:
        module = importlib.import_module(f"hopd.{name}")
        for export in getattr(module, "__all__", ()):
            obj = getattr(module, export)
            if inspect.isfunction(obj):
                for param in inspect.signature(obj).parameters.values():
                    yield f"{name}.{export}({param.name})", param


def test_defaulted_parameters_are_pinned():
    found = {key for key, param in _exported_parameters() if param.default is not inspect.Parameter.empty}
    assert found == PINNED_DEFAULTS, (
        f"new: {sorted(found - PINNED_DEFAULTS)}, gone: {sorted(PINNED_DEFAULTS - found)}"
    )


def test_var_keyword_parameters_are_pinned():
    found = {key for key, param in _exported_parameters() if param.kind is inspect.Parameter.VAR_KEYWORD}
    assert found == PINNED_VAR_KEYWORDS, (
        f"new: {sorted(found - PINNED_VAR_KEYWORDS)}, gone: {sorted(PINNED_VAR_KEYWORDS - found)}"
    )


def test_experiment_config_fields_are_pinned():
    # a config field is a knob too: a new one fails here until it is added on purpose
    assert [f.name for f in dataclasses.fields(ExperimentConfig)] == [
        "models", "m", "repeats", "n_range", "seed", "out", "units", "psi", "fmt",
        "family", "engine",
    ]
