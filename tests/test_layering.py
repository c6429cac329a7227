"""Module layering of the fluxfem package, checked on its source.

`fem` holds the shared P1 operators and facet tables; `nitsche` and
`lagrange` are sibling method modules on top of it. No module reaches
into a sibling's private names.
"""

import ast
import inspect
import re
from pathlib import Path
from types import ModuleType

import pytest

import fluxfem
from fluxfem import analysis

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


def top_level_names(path, kinds=(ast.FunctionDef, ast.ClassDef)):
    """Names of the top-level definitions of `kinds` in a package module."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.name for node in tree.body if isinstance(node, kinds)}


@pytest.mark.parametrize(
    "module, functions",
    [
        ("nitsche", {"nitsche_matrix", "assemble_nitsche", "assemble_dual_rhs_nitsche"}),
        ("lagrange", {"saddle_matrix", "assemble_saddle", "assemble_dual_rhs_lm"}),
    ],
)
def test_method_modules_offer_only_matrix_assembly_and_dual_data(module, functions):
    """The identity forms on a sampled w live in analysis, their one user."""
    defined = top_level_names(PACKAGE / f"{module}.py", ast.FunctionDef)
    assert {name for name in defined if not name.startswith("_")} == functions


def test_fem_defines_no_sampled_field_forms():
    assert {"SampledField", "volume_form"}.isdisjoint(top_level_names(PACKAGE / "fem.py"))


def test_star_import_binds_no_modules():
    """`from fluxfem import *` brings in the API, not the submodules."""
    modules = [name for name in fluxfem.__all__ if isinstance(getattr(fluxfem, name), ModuleType)]
    assert modules == []


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


def test_block_sizes_are_constants():
    """Full-mesh volume tables come in fem.BLOCK_TRIANGLES blocks; no
    function takes a size."""
    assert parameters_named("block") == []
    assert parameters_named("block_triangles") == []
    assert parameters_named("block_points") == []


def callers_of(*names):
    """Sorted "module.function" of each package function that calls one of `names`."""
    found = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                for call in ast.walk(node):
                    if isinstance(call, ast.Call):
                        func = call.func
                        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                        if name in names:
                            found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_one_scatter_per_assembly_path():
    """P1 operators scatter through fem.local_to_global; the saddle matrix
    puts all its blocks into its own single COO. Each drops its zero sums,
    which decide the ordering's graph; Nitsche's CSR sums drop theirs."""
    assert callers_of("coo_matrix", "coo_array") == ["fem.local_to_global", "lagrange.saddle_matrix"]
    assert callers_of("eliminate_zeros") == ["fem.local_to_global", "lagrange.saddle_matrix"]


def test_symmetry_is_certified_not_averaged():
    """Assembly is exactly symmetric as formed, and linsolve refuses any matrix
    that is not; no module averages a matrix with its transpose."""
    assert [path.stem for path in MODULES if "symmetrize" in top_level_names(path)] == []


def test_edge_rule_is_placed_on_facets_once_and_on_contour_pieces():
    """The edge rule is built into P1Space's facet table, which every boundary
    integral reads, and onto the offset-contour pieces; nothing else asks for it."""
    assert callers_of("edge_quadrature") == ["analysis._gauss_points", "fem._facet_table"]


def test_gauss_contour_tables_serve_only_the_interpolation_scan():
    """A P1 function's contour norms are exact from the piece midpoints; only
    u - u_h, which is not polynomial, needs Gauss points on the pieces."""
    assert callers_of("_gauss_points") == ["analysis.interp_error_scan"]


def test_mass_matrix_only_in_shifted_operators():
    """The mass matrix is the kappa shift of the two method matrices; the
    stability report's L2 term sums per triangle instead."""
    assert callers_of("mass_matrix") == ["lagrange.saddle_matrix", "nitsche.nitsche_matrix"]


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


def scipy_imports(path):
    """Dotted names of the scipy modules and objects a package module imports."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names if alias.name.startswith("scipy"))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("scipy"):
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_linsolve_is_the_one_solver_path():
    """Every solve is factored, certified and traced in linsolve, the variational
    flux's boundary mass system included."""
    solvers = ("scipy.linalg", "scipy.sparse.linalg")
    importers = {path.stem for path in MODULES for name in scipy_imports(path) if name.startswith(solvers)}
    assert importers == {"linsolve"}


def test_facet_weights_are_formed_once():
    """h_F w_q is built into P1Space's facet table, and boundary integrals read
    `facets.hw`; only products with other weights, as beta/h h_F w_q, are formed."""
    product = re.compile(r"\b(?:hf|facet_lengths)\[:, None\] \* [\w.]+\[None, :\]")
    assert [path.stem for path in MODULES if product.search(path.read_text(encoding="utf-8"))] == ["fem"]


def test_error_norms_read_the_facet_trace_table():
    """The trace of u_h comes from `facets.trace`, as in the variational flux and the identity forms."""
    assert "facet_vertices" not in inspect.getsource(analysis.error_norms)
