"""The SINR-level reference in ``tests/reference.py`` stays independent of
the rule it pins.

Engine and oracle both decode through ``access.gain_thresholds``; their
agreement cannot catch a fault in that rule.  The reference can, only as
long as no library module uses it and it uses nothing of the library but
data types and errors.
"""

import ast
from pathlib import Path

import canoma

TESTS = Path(__file__).parent
PACKAGE = Path(canoma.__file__).parent


def top_level_names(tree: ast.Module) -> set[str]:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


REFERENCE = parse(TESTS / "reference.py")
REFERENCE_ONLY = top_level_names(REFERENCE)


def test_the_library_neither_imports_nor_defines_the_reference():
    assert {
        "decode_noma", "classify_scenario", "split_power", "PowerAllocation",
        "zipf_profile", "PopularityProfile", "request_from_uniform",
    } <= REFERENCE_ONLY
    for path in sorted(PACKAGE.glob("*.py")):
        tree = parse(path)
        assert not top_level_names(tree) & REFERENCE_ONLY, path.name
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                modules = []
            assert not any("reference" in m.split(".") for m in modules), path.name
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                assert node.name not in REFERENCE_ONLY, (path.name, node.name)
    assert not set(canoma.__all__) & REFERENCE_ONLY


def test_the_reference_imports_only_data_types_and_errors_from_canoma():
    imported = []
    for node in ast.walk(REFERENCE):
        if isinstance(node, ast.Import):
            assert not any(a.name.split(".")[0] == "canoma" for a in node.names)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "canoma":
            assert node.module not in ("canoma.engine", "canoma.oracle")
            imported += [alias.name for alias in node.names]
    assert imported and "gain_thresholds" not in imported
    for name in imported:
        obj = getattr(canoma, name)
        # a class: a data type or an error, never a function such as the rule
        assert isinstance(obj, type), name
        assert obj.__module__ not in ("canoma.engine", "canoma.oracle"), name
