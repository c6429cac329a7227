import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from fluxfem import analysis, fem
from fluxfem.analysis import (
    boundary_l2_error,
    boundary_l2_norm,
    dual_stability_report,
    error_norms,
    error_representation_residuals,
    fit_rate,
    interp_error_scan,
    rademacher_boundary_field,
)
from fluxfem.fem import (
    EDGE_POINTS,
    VOLUME_DEGREE,
    LinearSystem,
    P1Space,
    assemble,
    basis_at,
    edge_quadrature,
    evaluate_p1,
    nodal_interpolant,
    triangle_quadrature,
)
from fluxfem.flux import exact_flux
from fluxfem.lagrange import SaddleConfig
from fluxfem.linsolve import solve_spd
from fluxfem.mesh import build_unit_square_mesh, offset_contour, split_segments_at_mesh_lines
from fluxfem.nitsche import NitscheConfig
from fluxfem.problems import ManufacturedProblem


def test_boundary_error_of_sampled_exact_field(affine):
    """Sampling the exact affine flux at the facet ends and interpolating it
    linearly to the facet points is exact, so the distance to the exact
    flux vanishes."""
    space = P1Space(build_unit_square_mesh(4))
    mesh = space.mesh
    ends = mesh.facet_points(np.array([0.0, 1.0]))
    c = affine.sigma_n(ends[..., 0], ends[..., 1], mesh.facet_normals[:, None, :])
    t = space.facets.t
    sampled = c[:, [0]] * (1.0 - t) + c[:, [1]] * t
    assert boundary_l2_error(sampled, exact_flux(affine, space), space) <= 1e-12


def test_boundary_error_against_zero_field(trig):
    space = P1Space(build_unit_square_mesh(8))
    zero = np.zeros((space.mesh.n_facets, EDGE_POINTS))
    err = boundary_l2_error(zero, exact_flux(trig, space), space)
    assert err == pytest.approx(2.0 * np.sqrt(2.0) * np.pi, abs=1e-10)


def test_fit_rate_synthetic():
    hs = [0.1, 0.05, 0.025, 0.0125]
    assert fit_rate([(h, 3.0 * h) for h in hs]) == pytest.approx(1.0, abs=1e-12)
    assert fit_rate([(h, h * h) for h in hs]) == pytest.approx(2.0, abs=1e-12)


def test_fit_rate_window_and_errors():
    pairs = [(0.5, 1.0), (0.2, 0.4), (0.1, 0.2), (0.05, 0.1), (0.025, 0.05)]
    with pytest.raises(ValueError, match="insufficient"):
        fit_rate(pairs[:2])


@pytest.mark.parametrize(
    "pairs, bad",
    [
        ([(0.1, 0.0), (0.05, 1.0), (0.025, 2.0)], r"\(0\.1, 0\.0\)"),
        ([(0.1, 1.0), (0.05, -1.0), (0.025, 2.0)], r"\(0\.05, -1\.0\)"),
        ([(0.1, 1.0), (0.05, float("nan")), (0.025, 2.0)], r"\(0\.05, nan\)"),
        ([(0.1, 1.0), (0.05, 0.5), (float("inf"), 2.0)], r"\(inf, 2\.0\)"),
        ([(0.0, 1.0), (0.05, 0.5), (0.025, 0.25)], r"\(0\.0, 1\.0\)"),
        ([(0.1, 1.0), (0.1, 2.0), (0.1, 3.0)], "all 3 points have h = 0.1"),
    ],
)
def test_fit_rate_refuses_data_without_a_slope(pairs, bad):
    """A log of 0, a negative, or a non-finite value, or a single h, has no
    fitted slope: each raises ValueError naming the data, not a warning."""
    with pytest.raises(ValueError, match=bad):
        fit_rate(pairs)


def test_half_to_quarter_error_ratio_matches_first_order(trig):
    """In the asymptotic window, halving h halves the flux error."""
    errs = {}
    for n in (16, 32):
        space = P1Space(build_unit_square_mesh(n))
        cfg = NitscheConfig(beta=10.0)
        u = solve_spd(assemble(space, cfg, trig.f, trig.g)).x
        from fluxfem.flux import nitsche_flux

        errs[n] = boundary_l2_error(
            nitsche_flux(u, trig.g, space, cfg), exact_flux(trig, space), space
        )
    assert errs[16] / errs[32] == pytest.approx(2.0, abs=0.3)


def test_error_representation_zero_psi(trig):
    space = P1Space(build_unit_square_mesh(4))
    cfg = NitscheConfig(beta=10.0)
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    assert error_representation_residuals(trig, space, cfg, [zero]) == [0.0]


def test_error_representation_affine_problem(affine):
    """u in the discrete space: both sides of the identity vanish."""
    space = P1Space(build_unit_square_mesh(4))
    cfg = NitscheConfig(beta=10.0)
    psis = [rademacher_boundary_field(space.mesh, seed) for seed in range(3)]
    for residual in error_representation_residuals(affine, space, cfg, psis):
        assert residual <= 1e-10


def test_error_representation_polynomial_exact():
    """u = x^2 + y^2 keeps every integrand polynomial, so the identity
    holds to solver precision for both methods."""
    quadratic = ManufacturedProblem(
        name="quadratic",
        u=lambda x, y: np.asarray(x, dtype=float) ** 2 + np.asarray(y, dtype=float) ** 2,
        grad_u=lambda x, y: (2.0 * np.asarray(x, dtype=float), 2.0 * np.asarray(y, dtype=float)),
        f=lambda x, y: -4.0 * np.ones_like(np.asarray(x, dtype=float)),
    )
    mesh = build_unit_square_mesh(8)
    space = P1Space(mesh)
    cfg = NitscheConfig(beta=10.0)
    scfg = SaddleConfig(alpha=10.0)
    psis = [rademacher_boundary_field(mesh, seed) for seed in range(3)]
    for residual in error_representation_residuals(quadratic, space, cfg, psis):
        assert residual <= 1e-12
    for residual in error_representation_residuals(quadratic, space, scfg, psis):
        assert residual <= 1e-11


def test_error_representation_trig_quadrature_limited(trig):
    space = P1Space(build_unit_square_mesh(16))
    cfg = NitscheConfig(beta=10.0)
    psi = rademacher_boundary_field(space.mesh, 7)
    [residual] = error_representation_residuals(trig, space, cfg, [psi])
    assert residual <= 1e-6


def test_error_representation_rejects_shifted_config(trig):
    space = P1Space(build_unit_square_mesh(4))
    cfg = NitscheConfig(beta=10.0, kappa=1.0)
    with pytest.raises(ValueError, match="unshifted"):
        error_representation_residuals(trig, space, cfg, [lambda x, y: x])
    with pytest.raises(ValueError, match="unshifted"):
        error_representation_residuals(trig, space, SaddleConfig(kappa=1.0), [lambda x, y: x])
    with pytest.raises(TypeError, match="NitscheConfig or a SaddleConfig"):
        error_representation_residuals(trig, space, "nitsche", [lambda x, y: x])


METHOD_CONFIGS = {"nitsche": NitscheConfig(beta=10.0), "lagrange": SaddleConfig(alpha=0.25)}


def _identity_residuals(method, problem, space, psis):
    return error_representation_residuals(problem, space, METHOD_CONFIGS[method], psis)


@pytest.mark.parametrize("method", ["nitsche", "lagrange"])
def test_identity_residuals_per_psi_match_single_psi_bitwise(trig, method):
    """One call for several psi gives each psi exactly the defect of a call
    for that psi alone, a zero psi included."""
    mesh = build_unit_square_mesh(8)
    space = P1Space(mesh)
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    psis = [rademacher_boundary_field(mesh, 0), zero, *(rademacher_boundary_field(mesh, s) for s in (1, 2))]
    together = _identity_residuals(method, trig, space, psis)
    assert len(together) == len(psis)
    assert together[1] == 0.0
    for psi, residual in zip(psis, together):
        assert _identity_residuals(method, trig, space, [psi]) == [residual]


@pytest.mark.parametrize("method", ["nitsche", "lagrange"])
def test_identity_residuals_sample_interpolation_error_once(monkeypatch, trig, method):
    """u - pi_h u is sampled once per call, however many psi there are: the
    volume gradient is read per triangle, and facet values and gradients
    share one lookup of the facet points."""
    calls = []
    original = fem.locate_triangle
    monkeypatch.setattr(fem, "locate_triangle", lambda *args: calls.append(1) or original(*args))
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    for count in (1, 5):
        calls.clear()
        psis = [rademacher_boundary_field(mesh, seed) for seed in range(count)]
        _identity_residuals(method, trig, space, psis)
        assert len(calls) == 1


@pytest.mark.parametrize("method", ["nitsche", "lagrange"])
@pytest.mark.parametrize("n", [4, 8])
def test_identity_residuals_make_one_whole_mesh_geometry_pass(monkeypatch, trig, method, n):
    """The sample of u - pi_h u carries the level's areas and gradients, so
    the volume form of every psi reads them: one `geometry` call over the
    default cells per level, the degree-6 one, however many psi there are."""
    whole_mesh = []
    original = P1Space.geometry

    def counted(self, cells=fem.ALL_CELLS, rule=None):
        if cells is fem.ALL_CELLS:
            whole_mesh.append(rule)
        return original(self, cells, rule)

    space = P1Space(build_unit_square_mesh(n))
    monkeypatch.setattr(P1Space, "geometry", counted)
    for count in (1, 5):
        whole_mesh.clear()
        psis = [rademacher_boundary_field(space.mesh, seed) for seed in range(count)]
        _identity_residuals(method, trig, space, psis)
        assert len(whole_mesh) == 1
        assert whole_mesh[0] is triangle_quadrature(analysis.IDENTITY_VOLUME_DEGREE)


def _sampled_p1(coeffs, space):
    """A P1 function sampled as analysis._sampled_interp_error samples
    u - pi_h u: (geometry, grad, value, normal derivative)."""
    nq = len(triangle_quadrature(analysis.IDENTITY_VOLUME_DEGREE).weights)
    areas, grads, _ = space.geometry()
    grad = np.einsum("ti,tid->td", coeffs[space.mesh.triangles], grads.transpose(2, 0, 1))
    gx, gy = (np.broadcast_to(grad[:, d], (nq, len(grad))) for d in range(2))
    _, _, _, pdofs, ndg, trace, _ = space.facets
    value = np.einsum("fkq,fk->fq", trace, coeffs[pdofs])
    normal = np.broadcast_to(np.einsum("fk,fk->f", ndg, coeffs[pdofs])[:, None], value.shape)
    return (areas, grads), (gx, gy), value, normal


@pytest.mark.parametrize("n", [1, 3, 8, 17])
def test_identity_forms_equal_the_assembled_operators_on_p1(n):
    """On P1 arguments the identity's forms are the assembled matrices and
    dual data: a_h(w, phi) - m_psi(w) and A_h(w, mu; phi, theta) at kappa = 0."""
    rng = np.random.default_rng([20240811, n])
    space = P1Space(build_unit_square_mesh(n))
    nf = space.mesh.n_facets
    w, phi = rng.standard_normal((2, space.n_dofs))
    mu, theta = rng.standard_normal((2, nf))
    psi = rng.standard_normal(space.facets.points.shape[:-1])
    sampled = _sampled_p1(w, space)

    cfg = NitscheConfig(beta=10.0)
    form = analysis._nitsche_identity_form(space, cfg, sampled, psi, phi)
    assembled = phi @ (cfg.matrix(space) @ w) - cfg.dual_data(space, psi) @ w
    assert form == pytest.approx(assembled, rel=1e-12)

    scfg = SaddleConfig(alpha=0.25)
    muvals = np.broadcast_to(mu[:, None], psi.shape)
    form = analysis._saddle_identity_form(space, scfg, sampled, muvals, phi, theta)
    assembled = np.concatenate([phi, theta]) @ (scfg.matrix(space) @ np.concatenate([w, mu]))
    assert form == pytest.approx(assembled, rel=1e-12)


def test_interp_scan_affine_is_exact(affine):
    space = P1Space(build_unit_square_mesh(8))
    scan = interp_error_scan(affine, space, delta_0=0.25)
    assert scan.sup_value_error <= 1e-12
    assert scan.sup_gradient_error <= 1e-12


def test_interp_scan_second_order_values(trig):
    scans = {
        n: interp_error_scan(trig, P1Space(build_unit_square_mesh(n))) for n in (16, 32)
    }
    ratio = scans[16].sup_value_error / scans[32].sup_value_error
    assert ratio == pytest.approx(4.0, abs=0.6)


def _interp_error_norms(problem, coeffs, space, contours):
    """Per contour, the 6-point Gauss (value, gradient) L2 norms of u - u_h on
    its pieces, summed as interp_error_scan sums them."""
    bounds, p0, p1 = analysis._contour_pieces(space, contours)
    norms = []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        weights, points = analysis._gauss_points(p0[lo:hi], p1[lo:hi])
        values, grads = evaluate_p1(coeffs, points, space)
        x, y = points[:, 0], points[:, 1]
        dv = problem.u(x, y) - values
        gx, gy = problem.grad_u(x, y)
        dg_sq = (gx - grads[:, 0]) ** 2 + (gy - grads[:, 1]) ** 2
        value_sq = np.sum(weights * (dv**2).reshape(weights.shape))
        gradient_sq = np.sum(weights * dg_sq.reshape(weights.shape))
        norms.append((float(np.sqrt(value_sq)), float(np.sqrt(gradient_sq))))
    return norms


def test_contour_quadrature_against_refined_oracle(trig):
    """Contours crossing cell diagonals keep piecewise-smooth integrands:
    splitting at mesh lines with 6 Gauss points must agree with a
    brute-force refinement (every subsegment further split 16 times,
    10-point Gauss)."""
    n = 8
    space = P1Space(build_unit_square_mesh(n))
    coeffs = nodal_interpolant(trig.u, space)
    contours = [offset_contour(delta) for delta in (0.2, 0.25, 1.0 / 3.0)]
    x, w = np.polynomial.legendre.leggauss(10)
    rule = SimpleNamespace(points=0.5 * (x + 1.0), weights=0.5 * w)
    for contour, (coarse_v, coarse_g) in zip(contours, _interp_error_norms(trig, coeffs, space, contours)):
        total_v = total_g = 0.0
        # recover subsegment endpoints directly from the splitter
        for a, b in contour.segments:
            t, _ = split_segments_at_mesh_lines(space.mesh, [a], [b])
            ends = a[None, :] + t[:, None] * (b - a)[None, :]
            for lo, hi in zip(ends[:-1], ends[1:]):
                for j in range(16):
                    q0 = lo + (hi - lo) * j / 16.0
                    q1 = lo + (hi - lo) * (j + 1) / 16.0
                    pts = q0[None, :] + rule.points[:, None] * (q1 - q0)[None, :]
                    seg_len = np.hypot(*(q1 - q0))
                    vals, grads = evaluate_p1(coeffs, pts, space)
                    dv = trig.u(pts[:, 0], pts[:, 1]) - vals
                    gx, gy = trig.grad_u(pts[:, 0], pts[:, 1])
                    dgx = gx - grads[:, 0]
                    dgy = gy - grads[:, 1]
                    total_v += seg_len * np.sum(rule.weights * dv**2)
                    total_g += seg_len * np.sum(rule.weights * (dgx**2 + dgy**2))
        assert coarse_v == pytest.approx(np.sqrt(total_v), abs=1e-8)
        assert coarse_g == pytest.approx(np.sqrt(total_g), abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 16, 23, 32, 45, 64, 128])
def test_q3_equals_the_supremum_of_single_contour_norms_bitwise(monkeypatch, n):
    """All offsets in one table give each contour's norm bit for bit as a
    table of that contour alone: same points, same terms, same summation."""
    space = P1Space(build_unit_square_mesh(n))
    phi = np.random.default_rng([7, n]).standard_normal(space.n_dofs)
    monkeypatch.setattr(analysis, "solve_spd", lambda system: SimpleNamespace(x=phi))
    psi = rademacher_boundary_field(space.mesh, 0)
    for delta_0 in (0.125, 0.25, 0.3, 0.4999):
        q3 = dual_stability_report(space, NitscheConfig(), psi, delta_0).q3
        single = [
            analysis._p1_contour_norms(phi, space, [offset_contour(delta)])[0] ** 2
            for delta in np.linspace(0.0, delta_0, analysis.CONTOUR_SAMPLES)
        ]
        assert q3 == max(single)


@pytest.mark.parametrize("n", [64, 128])
@pytest.mark.parametrize("delta_0", [0.125, 0.4999])
def test_interp_scan_suprema_equal_the_max_over_single_contour_tables_bitwise(trig, n, delta_0):
    """The scan splits all contours in one batch, and each contour's norms
    are those of that contour split alone."""
    space = P1Space(build_unit_square_mesh(n))
    contours = analysis._offset_contours(delta_0)
    coeffs = nodal_interpolant(trig.u, space)
    single = [_interp_error_norms(trig, coeffs, space, [contour])[0] for contour in contours]
    scan = interp_error_scan(trig, space, delta_0)
    assert scan.sup_value_error == max(v for v, _ in single)
    assert scan.sup_gradient_error == max(g for _, g in single)


def test_interp_scan_peak_memory_at_n_64(trig):
    """All 33 contours' Gauss points in blocks of whole contours peaked at
    2.94 MiB; one contour's points at a time at 1.04 MiB."""
    space = P1Space(build_unit_square_mesh(64))
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        interp_error_scan(trig, space)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


@pytest.mark.parametrize("cfg", [NitscheConfig(), SaddleConfig()], ids=["nitsche", "lagrange"])
def test_stability_report_peak_memory_at_n_128(cfg):
    """The matrix alone and the closed-form contour norms, all 33 contours
    from one split, peak at 9.40 (Nitsche) and 9.41 MiB (multipliers)."""
    space = P1Space(build_unit_square_mesh(128))
    psi = rademacher_boundary_field(space.mesh, 0)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        dual_stability_report(space, cfg, psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 15 * 2**20


def test_stability_report_locates_contour_points_once(monkeypatch):
    """One report splits all contour sides in one batch, and evaluates phi_h
    at the midpoint of each piece, and nothing else, in one call with one
    lookup, instead of once per offset or at 6 Gauss points per piece."""
    calls = {"split": 0, "locate": 0, "evaluate": 0}
    located = []

    def counted(module, name, key):
        original = getattr(module, name)

        def wrapper(*args):
            calls[key] += 1
            if key == "locate":
                located.append(np.array(args[1]))
            return original(*args)

        monkeypatch.setattr(module, name, wrapper)

    counted(analysis, "split_segments_at_mesh_lines", "split")
    counted(fem, "locate_triangle", "locate")
    counted(analysis, "evaluate_p1", "evaluate")
    mesh = build_unit_square_mesh(8)
    dual_stability_report(P1Space(mesh), NitscheConfig(), rademacher_boundary_field(mesh, 0))
    assert calls == {"split": 1, "locate": 1, "evaluate": 1}
    sides = np.concatenate([contour.segments for contour in analysis._offset_contours(0.25)])
    t, counts = split_segments_at_mesh_lines(mesh, sides[:, 0], sides[:, 1])
    # a side of k breakpoints has k - 1 pieces
    assert len(located[0]) == len(t) - len(sides) == 1568
    side = np.repeat(np.arange(len(sides)), counts - 1)
    first = np.delete(np.arange(len(t)), np.cumsum(counts) - 1)
    mid_t = 0.5 * (t[first] + t[first + 1])
    a, b = sides[side, 0], sides[side, 1]
    assert np.allclose(located[0], a + mid_t[:, None] * (b - a), rtol=0.0, atol=1e-15)


@pytest.mark.parametrize("cfg", [NitscheConfig(), SaddleConfig()], ids=["nitsche", "lagrange"])
def test_stability_report_derives_each_geometry_row_once_per_use(monkeypatch, cfg):
    """At n = 64 one report derives the geometry of each of the 8192
    triangles twice, for the stiffness matrix and in the one cell pass of
    Q1, Q2 and Q4, and that of the triangle of each of the 9408 contour
    midpoints once, where values and gradients are read together."""
    space = P1Space(build_unit_square_mesh(64))
    psi = rademacher_boundary_field(space.mesh, 0)
    rows = {"slices": 0, "index arrays": 0}
    original = P1Space.geometry

    def counted(self, cells=fem.ALL_CELLS, rule=None):
        geometry = original(self, cells, rule)
        rows["slices" if isinstance(cells, slice) else "index arrays"] += len(geometry.areas)
        return geometry

    monkeypatch.setattr(P1Space, "geometry", counted)
    dual_stability_report(space, cfg, psi)
    assert rows == {"slices": 2 * 8192, "index arrays": 9408}


def _gauss_contour_norms(coeffs, space, contours):
    """Per contour, the 6-point Gauss L2 norm of a P1 function on its pieces."""
    bounds, p0, p1 = analysis._contour_pieces(space, contours)
    weights, points = analysis._gauss_points(p0, p1)
    values, _ = evaluate_p1(coeffs, points, space)
    terms = weights * (values**2).reshape(weights.shape)
    return [np.sqrt(np.sum(terms[lo:hi])) for lo, hi in zip(bounds[:-1], bounds[1:])]


@pytest.mark.parametrize("n", [1, 2, 3, 5, 8, 11, 16, 23, 32, 45, 64, 128])
def test_closed_form_contour_norms_match_gauss_norms(n):
    """|phi_h|^2 is quadratic on each piece, so (L/3)(a^2 + ab + b^2) from
    the end values is what the 6-point rule integrates, up to rounding."""
    space = P1Space(build_unit_square_mesh(n))
    for delta_0 in (0.125, 0.25, 0.3, 0.4999):
        contours = analysis._offset_contours(delta_0)
        for seed in range(3):
            phi = np.random.default_rng([seed, n]).standard_normal(space.n_dofs)
            closed = analysis._p1_contour_norms(phi, space, contours)
            assert closed == pytest.approx(_gauss_contour_norms(phi, space, contours), rel=1e-13)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 64])
def test_q4_equals_the_mass_matrix_form(monkeypatch, n):
    space = P1Space(build_unit_square_mesh(n))
    psi = rademacher_boundary_field(space.mesh, 0)
    for seed in range(3):
        phi = np.random.default_rng([seed, n]).standard_normal(space.n_dofs)
        monkeypatch.setattr(analysis, "solve_spd", lambda system: SimpleNamespace(x=phi))
        q4 = dual_stability_report(space, NitscheConfig(), psi).q4
        assert q4 == pytest.approx(phi @ (fem.mass_matrix(space) @ phi), rel=1e-13)


def test_q3_peak_memory_at_n_64():
    """The closed-form Q3 of one report, all 33 contours: the Gauss-point
    tables peaked at 2.8 MiB, the breakpoints alone at 1.2 MiB."""
    space = P1Space(build_unit_square_mesh(64))
    phi = np.random.default_rng(0).standard_normal(space.n_dofs)
    contours = analysis._offset_contours(0.25)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        max(norm**2 for norm in analysis._p1_contour_norms(phi, space, contours))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2 * 2**20


def test_dual_stability_zero_psi():
    zero = lambda x, y: np.zeros_like(x)  # noqa: E731
    r = dual_stability_report(P1Space(build_unit_square_mesh(4)), NitscheConfig(), zero)
    assert (r.q1, r.q2, r.q3, r.q4) == (0.0, 0.0, 0.0, 0.0)
    assert r.psi_norm_sq == 0.0
    # psi = 0 has ratios 0, as its identity defects are 0
    assert r.ratios() == {"Q1": 0.0, "Q2": 0.0, "Q3": 0.0, "Q4": 0.0}


def test_dual_stability_q3_delta0_matches_boundary_norm(trig):
    """The delta = 0 contour is the boundary itself, so the offset-contour
    norm reproduces the plain boundary norm of phi_h."""
    mesh = build_unit_square_mesh(8)
    space = P1Space(mesh)
    cfg = NitscheConfig(beta=10.0)
    system = assemble(space, cfg, trig.f, trig.g)
    psi = rademacher_boundary_field(mesh, 0)
    phi = solve_spd(LinearSystem(system.matrix, cfg.dual_data(space, psi), space.n_dofs)).x
    ends = mesh.facet_vertices
    rule = edge_quadrature()
    trace_vals = phi[ends][:, [0]] * (1 - rule.points)[None, :] + phi[ends][:, [1]] * rule.points[None, :]
    direct = np.sqrt(np.sum(mesh.facet_lengths[:, None] * rule.weights[None, :] * trace_vals**2))
    contour = analysis._p1_contour_norms(phi, space, [offset_contour(0.0)])[0]
    assert contour == pytest.approx(direct, rel=1e-12)


def test_rademacher_field_deterministic():
    mesh = build_unit_square_mesh(8)
    a = rademacher_boundary_field(mesh, 3)
    b = rademacher_boundary_field(mesh, 3)
    c = rademacher_boundary_field(mesh, 4)
    assert a.shape == (mesh.n_facets, EDGE_POINTS) and a.dtype == np.float64
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert set(np.unique(a)) <= {-1.0, 1.0}
    # one value per facet, at every facet point
    assert np.array_equal(a, np.repeat(a[:, :1], EDGE_POINTS, axis=1))


def test_dual_stability_rejects_bad_arguments():
    mesh = build_unit_square_mesh(4)
    space, psi = P1Space(mesh), rademacher_boundary_field(mesh)
    with pytest.raises(TypeError, match="NitscheConfig or a SaddleConfig"):
        dual_stability_report(space, "galerkin", psi)
    with pytest.raises(ValueError, match="delta_0"):
        dual_stability_report(space, NitscheConfig(), psi, delta_0=0.7)


@pytest.mark.parametrize(
    "entry",
    [
        lambda space, field, trig: boundary_l2_norm(field, space),
        lambda space, field, trig: boundary_l2_error(field, exact_flux(trig, space), space),
        lambda space, field, trig: error_representation_residuals(trig, space, NitscheConfig(), [field]),
        lambda space, field, trig: dual_stability_report(space, NitscheConfig(), field),
        lambda space, field, trig: assemble(space, NitscheConfig(), trig.f, field),
    ],
    ids=["boundary_l2_norm", "boundary_l2_error", "identity", "dual_stability", "assemble_nitsche"],
)
@pytest.mark.parametrize("kind", ["flux_field", "exact_flux", "facet_values"])
def test_boundary_data_from_another_mesh_is_rejected(trig, entry, kind):
    coarse = build_unit_square_mesh(8)
    field = {
        "flux_field": rademacher_boundary_field(coarse),
        "exact_flux": exact_flux(trig, P1Space(coarse)),
        "facet_values": np.ones((coarse.n_facets, EDGE_POINTS)),
    }[kind]
    message = r"boundary values of shape \(32, 6\) do not match the facet points \(64, 6\)"
    space = P1Space(build_unit_square_mesh(16))
    with pytest.raises(ValueError, match=message):
        entry(space, field, trig)


@pytest.mark.parametrize(
    "entry",
    [
        lambda space, psi: boundary_l2_norm(psi, space),
        lambda space, psi: dual_stability_report(space, NitscheConfig(), psi),
    ],
    ids=["boundary_l2_norm", "dual_stability"],
)
def test_scalar_boundary_data_is_a_type_error(entry):
    """A 0-d value is no boundary data at all, not data of another mesh."""
    with pytest.raises(TypeError, match="boundary data must be callable"):
        entry(P1Space(build_unit_square_mesh(8)), 1.0)


def test_interp_scan_rejects_bad_arguments_before_any_work(monkeypatch, trig):
    space = P1Space(build_unit_square_mesh(4))

    def no_work(*args):
        raise AssertionError("the scan started before its arguments were checked")

    monkeypatch.setattr(analysis, "nodal_interpolant", no_work)
    for delta_0 in (0.7, 0.5, 0.0, -0.1):
        with pytest.raises(ValueError, match="delta_0"):
            interp_error_scan(trig, space, delta_0=delta_0)


def test_stability_report_q5_only_for_multiplier():
    mesh = build_unit_square_mesh(8)
    space, psi = P1Space(mesh), rademacher_boundary_field(mesh)
    nit = dual_stability_report(space, NitscheConfig(), psi)
    lag = dual_stability_report(space, SaddleConfig(alpha=0.25), psi)
    assert nit.q5 is None and "Q5" not in nit.ratios()
    assert lag.q5 is not None and "Q5" in lag.ratios()


def test_l2_and_boundary_norm_consistency(const):
    mesh = build_unit_square_mesh(4)
    space = P1Space(mesh)
    ones = np.ones(space.n_dofs)
    assert error_norms(const, space, ones)[1] <= 1e-14
    assert boundary_l2_norm(lambda x, y: np.ones_like(x), space) == pytest.approx(2.0, abs=1e-12)


def _one_shot_error_norms(problem, space, u, lam=None):
    """error_norms as one full-mesh evaluation of each volume integrand."""
    mesh = space.mesh
    u = np.asarray(u, dtype=float)
    rule = triangle_quadrature(VOLUME_DEGREE)
    areas, cell_grads, pts = space.geometry(rule=rule)
    cell_grads, pts = cell_grads.transpose(2, 0, 1), pts.transpose(2, 1, 0)
    aw = areas[:, None] * rule.weights[None, :]
    uh = np.einsum("qk,tk->tq", basis_at(rule), u[mesh.triangles])
    diff = np.asarray(problem.u(pts[..., 0], pts[..., 1]), dtype=float) - uh
    l2 = float(np.sqrt(2.0 * np.sum(aw * diff**2)))
    gx, gy = problem.grad_u(pts[..., 0], pts[..., 1])
    grads = np.einsum("ti,tid->td", u[mesh.triangles], cell_grads)
    dx = np.asarray(gx) - grads[:, None, 0]
    dy = np.asarray(gy) - grads[:, None, 1]
    grad_sq = float(2.0 * np.sum(aw * (dx**2 + dy**2)))

    t, w, _, pdofs, ndg, _, fpts = space.facets
    ends = mesh.facet_vertices
    hw = mesh.facet_lengths[:, None] * w[None, :]
    u_trace = u[ends][:, [0]] * (1.0 - t)[None, :] + u[ends][:, [1]] * t[None, :]
    trace_diff = np.asarray(problem.u(fpts[..., 0], fpts[..., 1]), dtype=float) - u_trace
    val_sq = float(np.sum(hw * trace_diff**2))
    sigma = problem.sigma_n(fpts[..., 0], fpts[..., 1], mesh.facet_normals[:, None, :])
    h = mesh.h_grid
    if lam is None:
        nd_h = np.einsum("fk,fk->f", ndg, u[pdofs])
        nd_sq = float(np.sum(hw * (sigma - nd_h[:, None]) ** 2))
        return float(np.sqrt(grad_sq + h * nd_sq + val_sq / h)), l2
    lam_diff = -sigma - np.asarray(lam, dtype=float)[:, None]
    lam_sq = np.sum(mesh.facet_lengths[:, None] ** 2 * w[None, :] * lam_diff**2)
    return float(np.sqrt(grad_sq + val_sq / h + lam_sq)), l2


# 2 n^2 triangles: 2048 (one partial block), 8192 (two full blocks) and
# 5000 (a full block and a partial one); n = 1 is a single triangle pair
@pytest.mark.parametrize("n", [1, 32, 64, 50])
@pytest.mark.parametrize("with_lam", [False, True])
def test_blocked_error_norms_match_one_shot_bitwise(trig, n, with_lam):
    space = P1Space(build_unit_square_mesh(n))
    rng = np.random.default_rng(n)
    u = nodal_interpolant(trig.u, space) + 1e-3 * rng.standard_normal(space.n_dofs)
    lam = rng.standard_normal(space.mesh.n_facets) if with_lam else None
    assert error_norms(trig, space, u, lam) == _one_shot_error_norms(trig, space, u, lam)


@pytest.mark.parametrize(
    "u_size, lam_size, message",
    [
        (28, None, "coefficients sized (28,) do not match the space (25)"),
        (24, None, "coefficients sized (24,) do not match the space (25)"),
        (25, 15, "coefficients sized (15,) do not match the space (16)"),
        (25, 17, "coefficients sized (17,) do not match the space (16)"),
    ],
    ids=["u-long", "u-short", "lam-short", "lam-long"],
)
def test_error_norms_refuse_coefficients_of_another_size(trig, u_size, lam_size, message):
    """An unsplit saddle solution or a truncated vector is refused, not measured."""
    space = P1Space(build_unit_square_mesh(4))  # 25 vertices, 16 facets
    lam = None if lam_size is None else np.zeros(lam_size)
    with pytest.raises(ValueError, match=re.escape(message)):
        error_norms(trig, space, np.zeros(u_size), lam)


@pytest.mark.parametrize("size", [24, 26, 41])
def test_point_evaluation_refuses_coefficients_of_another_size(size):
    """At n = 4 an unsplit saddle solution [u; lambda] has 25 + 16 = 41
    entries; it once evaluated to 1.0 with a contour norm of 1.789."""
    space = P1Space(build_unit_square_mesh(4))
    coeffs = np.ones(size)
    message = f"coefficients sized ({size},) do not match the space (25)"
    for evaluate in (
        lambda: evaluate_p1(coeffs, [[0.3, 0.6]], space),
        lambda: analysis._p1_contour_norms(coeffs, space, [offset_contour(0.1)]),
    ):
        with pytest.raises(ValueError, match=re.escape(message)):
            evaluate()


def test_error_norms_peak_memory_is_a_few_volume_tables(trig):
    """At n = 256 one call peaks below three (n_triangles, 6) float tables:
    the two blocked integrand tables and block-sized temporaries."""
    space = P1Space(build_unit_square_mesh(256))
    u = nodal_interpolant(trig.u, space)
    table_bytes = space.mesh.n_triangles * 6 * 8
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        error_norms(trig, space, u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 * table_bytes
