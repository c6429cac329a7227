"""Module layering of the fluxfem package, checked on its source.

`fem` holds the shared P1 operators and facet tables; `nitsche` and
`lagrange` are sibling method modules on top of it. No module reaches
into a sibling's private names.
"""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fluxfem"
MODULES = sorted(PACKAGE.glob("*.py"))


def package_imports(path):
    """(module, name) for each name imported from within the package."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level > 0 or module.startswith("fluxfem"):
                yield from ((module.rsplit(".", 1)[-1], alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("fluxfem."):
                    yield "", alias.name.rsplit(".", 1)[-1]

def test_package_modules_found():
    assert {"fem.py", "nitsche.py", "lagrange.py"} <= {path.name for path in MODULES}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_private_names_imported_from_siblings(path):
    private = [f"{module}.{name}" for module, name in package_imports(path) if name.startswith("_")]
    assert private == []


def test_lagrange_does_not_import_nitsche():
    imported = {part for pair in package_imports(PACKAGE / "lagrange.py") for part in pair}
    assert "nitsche" not in imported
