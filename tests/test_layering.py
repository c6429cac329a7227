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


def parameters_named(name):
    """Sorted names of the package functions that take a parameter `name`."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                every = [*args.posonlyargs, *args.args, *args.kwonlyargs, args.vararg, args.kwarg]
                if any(arg is not None and arg.arg == name for arg in every):
                    found.append(node.name)
    return sorted(found)


def test_boundary_rule_and_multiplier_space_are_not_parameters():
    """One boundary rule (fem.EDGE_POINTS) and one multiplier per facet."""
    assert parameters_named("edge_points") == []
    assert parameters_named("trace_space") == []


def test_one_level_per_call_and_a_fixed_contour_sample_count():
    """Studies loop over levels themselves, pass boundary data directly,
    and every offset-contour supremum uses analysis.CONTOUR_SAMPLES."""
    assert parameters_named("samples") == []
    assert parameters_named("levels") == []
    assert parameters_named("psi_field") == []


METHOD_NAMES = ("nitsche", "lagrange")


def method_name_comparisons(node, inside_study_config=False):
    """(line, inside StudyConfig) of each comparison against a method name."""
    if isinstance(node, ast.ClassDef) and node.name == "StudyConfig":
        inside_study_config = True
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if any(isinstance(op, ast.Constant) and op.value in METHOD_NAMES for op in operands):
            yield node.lineno, inside_study_config
    for child in ast.iter_child_nodes(node):
        yield from method_name_comparisons(child, inside_study_config)


def test_only_study_config_compares_method_names():
    """StudyConfig turns the method name into a NitscheConfig or a
    SaddleConfig; below it the type of that config is the only switch."""
    outside = [
        f"{path.name}:{line}"
        for path in MODULES
        for line, inside in method_name_comparisons(ast.parse(path.read_text(encoding="utf-8")))
        if not inside
    ]
    assert outside == []


def test_volume_degree_is_a_parameter_only_where_two_degrees_are_used():
    """Assembly runs at degree 4 for the studies and 6 for the identities;
    the norms and the flux recovery use one fixed degree."""
    assert parameters_named("volume_degree") == ["assemble_nitsche", "assemble_saddle", "load_vector"]
