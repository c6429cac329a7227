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
from fluxfem import analysis, cli

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


def public_methods(path):
    """{class: its public methods} of each public top-level definition of a module,
    with None for a public top-level function."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.name: {
            item.name for item in node.body if isinstance(item, ast.FunctionDef) and not item.name.startswith("_")
        }
        if isinstance(node, ast.ClassDef)
        else None
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


@pytest.mark.parametrize(
    "module, functions",
    [
        ("nitsche", {"NitscheConfig": {"matrix", "dual_data"}}),
        ("lagrange", {"SaddleConfig": {"matrix", "dual_data"}}),
    ],
)
def test_method_modules_offer_only_matrix_assembly_and_dual_data(module, functions):
    """Each method module defines its config class alone, and the config offers
    only its matrix and its dual data: `fem.assemble` and `fem.LinearSystem`
    serve both methods, and the identity forms on a sampled w live in
    analysis, their one user."""
    assert public_methods(PACKAGE / f"{module}.py") == functions


def test_p1_space_has_one_geometry_method():
    """Areas, basis gradients and quadrature points come from one entry
    point, in one component-major layout."""
    assert public_methods(PACKAGE / "fem.py")["P1Space"] == {"geometry"}


def test_fem_has_one_p1_point_evaluator():
    """A P1 function is evaluated at points by `evaluate_p1` alone, which
    locates the points and reads values and gradients in one pass."""
    fem_names = top_level_names(PACKAGE / "fem.py")
    assert "evaluate_p1" in fem_names
    assert {"PointLocation", "locate_points", "located_values", "located_gradients"}.isdisjoint(fem_names)


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
    """Every matrix, the saddle matrix too, scatters its local blocks through
    fem.local_to_global, which drops the zero sums that would enter the
    ordering's graph; Nitsche's CSR sums drop theirs."""
    assert callers_of("coo_matrix", "coo_array") == ["fem.local_to_global"]
    assert callers_of("eliminate_zeros") == ["fem.local_to_global"]


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


def test_one_cell_walker():
    """Every volume loop runs through fem.per_cell, the one reader of
    BLOCK_TRIANGLES; besides it, only the facet parents and the identity's
    one whole-mesh degree-6 sample ask P1Space for geometry."""
    assert callers_of("geometry") == ["analysis._sampled_interp_error", "fem._facet_table", "fem.per_cell"]
    assert "cell_blocks" not in top_level_names(PACKAGE / "fem.py")
    readers = [
        f"{path.stem}.{node.name}"
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.FunctionDef)
        and any(isinstance(name, ast.Name) and name.id == "BLOCK_TRIANGLES" for name in ast.walk(node))
    ]
    assert readers == ["fem.per_cell"]


def test_mass_matrix_only_in_shifted_operators():
    """The mass matrix is the kappa shift of the one volume operator of both
    methods; the stability report's L2 term sums per triangle instead."""
    assert callers_of("mass_matrix") == ["fem.volume_matrix"]


METHOD_NAMES = ("nitsche", "lagrange")
VARIANT_NAMES = ("pointwise", "variational", "multiplier")


def name_comparisons(names, node, owner=""):
    """(line, enclosing top-level definition) of each comparison against one of `names`."""
    if not owner and isinstance(node, (ast.ClassDef, ast.FunctionDef)):
        owner = node.name
    if isinstance(node, ast.Compare):
        operands = [node.left, *node.comparators]
        if any(isinstance(op, ast.Constant) and op.value in names for op in operands):
            yield node.lineno, owner
    for child in ast.iter_child_nodes(node):
        yield from name_comparisons(names, child, owner)


def comparison_sites(names):
    """(module:line, "module.owner") of each comparison against one of `names`."""
    return [
        (f"{path.name}:{line}", f"{path.stem}.{owner}")
        for path in MODULES
        for line, owner in name_comparisons(names, ast.parse(path.read_text(encoding="utf-8")))
    ]


def isinstance_sites(names):
    """"module.owner" of each isinstance call against one of `names`, owner being
    the enclosing top-level definition."""
    found = []
    for path in MODULES:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and getattr(call.func, "id", "") == "isinstance":
                    kinds = call.args[1]
                    kinds = kinds.elts if isinstance(kinds, ast.Tuple) else [kinds]
                    if any(getattr(kind, "id", "") in names for kind in kinds):
                        found.append(f"{path.stem}.{node.name}")
    return sorted(found)


def test_method_configs_are_switched_on_only_by_the_identity():
    """Below the command line every path asks the config for its matrix and its
    dual data; only the config check and the identity's choice of form test
    its type."""
    assert isinstance_sites({"NitscheConfig", "SaddleConfig"}) == [
        "analysis._check_method_config",
        "analysis.error_representation_residuals",
    ]


def test_only_study_config_compares_method_names():
    """StudyConfig turns the method name into a NitscheConfig or a
    SaddleConfig; below it the type of that config is the only switch."""
    outside = [site for site, owner in comparison_sites(METHOD_NAMES) if owner != "cli.StudyConfig"]
    assert outside == []


def test_only_the_level_step_compares_flux_variant_names():
    """cli.VARIANTS is the one table of each method's recoveries; the level
    step is the one place that picks a recovery by its name, and the flags
    take their parsers from the StudyConfig fields, not from a table of their own."""
    sites = comparison_sites(VARIANT_NAMES)
    assert sites and {owner for _, owner in sites} == {"cli._solve_level"}
    assert not hasattr(cli, "_FLAGS")


def test_volume_degree_is_a_parameter_only_where_two_degrees_are_used():
    """Assembly runs at degree 4 for the studies and 6 for the identities;
    the norms and the flux recovery use one fixed degree."""
    assert parameters_named("volume_degree") == ["assemble", "load_vector"]


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
