"""Source hygiene of the package, read with ``ast``: no unused import, no error type that nothing raises or tests."""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PACKAGE = TESTS.parent / "src" / "trailgrade"
MODULES = sorted(PACKAGE.rglob("*.py"))


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def imported_names(tree):
    """Each name an import statement in ``tree`` binds, with its line."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # `import a.b` binds `a`
                yield alias.asname or alias.name.partition(".")[0], node.lineno


def loaded_names(tree):
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize(
    "path", [p for p in MODULES if p.name != "__init__.py"], ids=lambda p: str(p.relative_to(PACKAGE))
)
def test_every_import_is_used(path):
    tree = parse(path)
    used = loaded_names(tree)
    unused = [f"line {line}: {name}" for name, line in imported_names(tree) if name not in used]
    assert unused == []


def error_types():
    """Every class in errors.py that derives, directly or not, from TrailgradeError."""
    found = {"TrailgradeError"}
    for node in parse(PACKAGE / "errors.py").body:
        if isinstance(node, ast.ClassDef) and any(isinstance(b, ast.Name) and b.id in found for b in node.bases):
            found.add(node.name)
    return sorted(found - {"TrailgradeError"})


def raised_names():
    """Each name a ``raise`` statement under src/ raises, or calls to make what it raises."""
    names = set()
    for path in MODULES:
        for node in ast.walk(parse(path)):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Name):
                    names.add(exc.id)
    return names


def test_every_error_type_is_raised():
    raised = raised_names()
    assert [name for name in error_types() if name not in raised] == []


def expected_names():
    """Each name a ``pytest.raises`` under tests/ expects, alone or in a tuple."""
    names = set()
    for path in sorted(TESTS.glob("*.py")):
        for node in ast.walk(parse(path)):
            if (
                isinstance(node, ast.Call) and node.args
                and isinstance(node.func, ast.Attribute) and node.func.attr == "raises"
            ):
                expected = node.args[0]
                for exc in expected.elts if isinstance(expected, ast.Tuple) else [expected]:
                    if isinstance(exc, (ast.Name, ast.Attribute)):
                        names.add(exc.id if isinstance(exc, ast.Name) else exc.attr)
    return names


def test_every_error_type_is_expected_by_a_test():
    expected = expected_names()
    assert [name for name in error_types() if name not in expected] == []
