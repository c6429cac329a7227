"""Error norms, convergence rates, identity checks, and dual stability.

The error-representation identities tie the boundary-flux error to a
discrete dual solution: for the Nitsche flux

    (sigma_n - Sigma_n, psi)_G = a_h(u - pi_h u, phi_h) - m_psi(u - pi_h u)

and for the multiplier flux

    (lambda - lambda_h, psi)_G
        = A_h(pi_h u - u, pi_h lambda - lambda; phi_h, theta_h)
          + (psi, lambda - pi_h lambda)_G.

Both hold for any discrete interpolants, so pi_h is nodal interpolation
for u and the facet average for lambda. The dual-stability quantities
are the weighted-gradient, scaled-gradient, offset-contour, and L2 terms
bounded by |psi|^2 on the boundary, measured level by level.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fem import (
    DEFAULT_EDGE_POINTS,
    DEFAULT_VOLUME_DEGREE,
    P1Space,
    TraceDG0Space,
    basis_at,
    boundary_field_values,
    edge_quadrature,
    eval_discrete_many,
    facet_tables,
    mass_matrix,
    nodal_interpolant,
    triangle_quadrature,
)
from .flux import pointwise_nitsche_values
from .lagrange import (
    SaddleConfig,
    apply_saddle_form,
    assemble_dual_rhs_lm,
    assemble_saddle,
)
from .linsolve import solve_spd, solve_sym_indefinite
from .mesh import Mesh, build_unit_square_mesh, distance_weight, offset_contour, split_segment_at_mesh_lines
from .nitsche import (
    NitscheConfig,
    apply_dual_functional,
    apply_nitsche_form,
    assemble_dual_rhs_nitsche,
    assemble_nitsche,
)


@dataclass(frozen=True)
class ConvergenceRecord:
    """One refinement level of a convergence study."""

    k: int
    grid_n: int
    h_grid: float
    h_max: float
    dofs: int
    method: str
    variant: str
    flux_err: float
    energy_err: float
    l2_err: float


@dataclass(frozen=True)
class StabilityReport:
    """Dual-stability quantities of one level, all relative to |psi|^2_G.

    q1: weighted gradient |grad phi|^2 with the shifted distance weight,
    q2: h |grad phi|^2, q3: sup over sampled offsets of |phi|^2 on the
    offset contour, q4: |phi|^2 over the domain, q5 (multiplier only):
    h^2 |theta|^2 on the boundary.
    """

    method: str
    grid_n: int
    h_grid: float
    kappa: float
    psi_norm_sq: float
    q1: float
    q2: float
    q3: float
    q4: float
    q5: float | None = None

    def ratios(self) -> dict[str, float]:
        qs = {"Q1": self.q1, "Q2": self.q2, "Q3": self.q3, "Q4": self.q4}
        if self.q5 is not None:
            qs["Q5"] = self.q5
        return {name: q / self.psi_norm_sq for name, q in qs.items()}


@dataclass(frozen=True)
class InterpScan:
    """Suprema over offset contours of the interpolation error."""

    sup_value_error: float
    sup_gradient_error: float
    h_grid: float


# -- boundary norms ----------------------------------------------------------


def boundary_l2_norm(field, mesh: Mesh, edge_points: int = DEFAULT_EDGE_POINTS) -> float:
    """L2(boundary) norm of any boundary-data object."""
    rule = edge_quadrature(edge_points)
    vals = boundary_field_values(field, mesh, rule.points, mesh.facet_points(rule.points))
    return float(np.sqrt(np.sum(mesh.facet_lengths[:, None] * rule.weights[None, :] * vals**2)))


def boundary_l2_error(
    flux, exact, mesh: Mesh, edge_points: int = DEFAULT_EDGE_POINTS
) -> float:
    """L2(boundary) distance between two boundary fields (facet quadrature)."""
    rule = edge_quadrature(edge_points)
    t, pts = rule.points, mesh.facet_points(rule.points)
    a = boundary_field_values(flux, mesh, t, pts)
    b = boundary_field_values(exact, mesh, t, pts)
    return float(np.sqrt(np.sum(mesh.facet_lengths[:, None] * rule.weights[None, :] * (a - b) ** 2)))


# -- volume/energy error norms ----------------------------------------------


def l2_error(
    problem, coeffs, space: P1Space, volume_degree: int = DEFAULT_VOLUME_DEGREE
) -> float:
    """|u - u_h| over the domain with triangle quadrature."""
    mesh = space.mesh
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule)
    uh = np.einsum("qk,tk->tq", basis_at(rule), np.asarray(coeffs, dtype=float)[mesh.triangles])
    diff = np.asarray(problem.u(pts[..., 0], pts[..., 1]), dtype=float) - uh
    return float(np.sqrt(2.0 * np.sum(space.areas[:, None] * rule.weights[None, :] * diff**2)))


def _error_gradient_terms(problem, coeffs, space, volume_degree):
    mesh = space.mesh
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule)
    gx, gy = problem.grad_u(pts[..., 0], pts[..., 1])
    grads = np.einsum("ti,tid->td", np.asarray(coeffs, dtype=float)[mesh.triangles], space.gradients)
    dx = np.asarray(gx) - grads[:, None, 0]
    dy = np.asarray(gy) - grads[:, None, 1]
    return float(2.0 * np.sum(space.areas[:, None] * rule.weights[None, :] * (dx**2 + dy**2)))


def _boundary_error_terms(problem, coeffs, space, edge_points):
    """Facet integrals of (u - u_h)^2 and (n.grad(u - u_h))^2."""
    mesh = space.mesh
    t, w, pdofs, ndg, _, pts = facet_tables(space, edge_points)
    coeffs = np.asarray(coeffs, dtype=float)
    ends = mesh.facet_vertices
    u_trace = coeffs[ends][:, [0]] * (1.0 - t)[None, :] + coeffs[ends][:, [1]] * t[None, :]
    diff = np.asarray(problem.u(pts[..., 0], pts[..., 1]), dtype=float) - u_trace
    val_sq = np.sum(mesh.facet_lengths[:, None] * w[None, :] * diff**2)

    nd_h = np.einsum("fk,fk->f", ndg, coeffs[pdofs])
    nd_u = problem.sigma_n(pts[..., 0], pts[..., 1], mesh.facet_normals[:, None, :])
    nd_sq = np.sum(mesh.facet_lengths[:, None] * w[None, :] * (nd_u - nd_h[:, None]) ** 2)
    return float(val_sq), float(nd_sq)


def energy_error(
    problem,
    coeffs,
    space: P1Space,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Nitsche energy norm of u - u_h (gradient, h-scaled flux, 1/h trace)."""
    h = space.mesh.h_grid
    grad_sq = _error_gradient_terms(problem, coeffs, space, volume_degree)
    val_sq, nd_sq = _boundary_error_terms(problem, coeffs, space, edge_points)
    return float(np.sqrt(grad_sq + h * nd_sq + val_sq / h))


def triple_norm_error(
    problem,
    u_coeffs,
    lam_coeffs,
    space: P1Space,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Natural saddle norm of (u - u_h, lambda - lambda_h); lambda = -sigma_n."""
    mesh = space.mesh
    grad_sq = _error_gradient_terms(problem, u_coeffs, space, volume_degree)
    val_sq, _ = _boundary_error_terms(problem, u_coeffs, space, edge_points)
    _, w, _, _, _, pts = facet_tables(space, edge_points)
    lam_exact = -problem.sigma_n(pts[..., 0], pts[..., 1], mesh.facet_normals[:, None, :])
    diff = lam_exact - np.asarray(lam_coeffs, dtype=float)[:, None]
    lam_sq = np.sum(mesh.facet_lengths[:, None] ** 2 * w[None, :] * diff**2)
    h = mesh.h_grid
    return float(np.sqrt(grad_sq + val_sq / h + lam_sq))


# -- rate fitting -------------------------------------------------------------


def fit_rate(records, h_window=None, field: str = "flux_err") -> float:
    """Least-squares slope of log(error) against log(h).

    `records` is a list of ConvergenceRecord (the `field` attribute is
    fitted against h_grid) or of plain (h, error) pairs. `h_window`
    restricts to h_lo <= h <= h_hi; at least 3 points must remain.
    """
    pairs = []
    for rec in records:
        if isinstance(rec, ConvergenceRecord):
            pairs.append((rec.h_grid, getattr(rec, field)))
        else:
            h, e = rec
            pairs.append((float(h), float(e)))
    if h_window is not None:
        lo, hi = h_window
        pairs = [(h, e) for h, e in pairs if lo <= h <= hi]
    if len(pairs) < 3:
        raise ValueError(f"insufficient data: need >= 3 points, have {len(pairs)}")
    h = np.log([p[0] for p in pairs])
    e = np.log([p[1] for p in pairs])
    return float(np.polyfit(h, e, 1)[0])


# -- seeded rough boundary data ----------------------------------------------


def rademacher_boundary_field(mesh: Mesh, seed: int = 0):
    """Independent per-facet values in {-1, +1}, deterministic per (seed, n)."""
    from .flux import FACETWISE_CONSTANT, BoundaryFluxField

    rng = np.random.default_rng([seed, mesh.grid_n])
    values = 2.0 * rng.integers(0, 2, mesh.n_facets) - 1.0
    return BoundaryFluxField(kind=FACETWISE_CONSTANT, coefficients=values, mesh=mesh)


# -- error representation identities ------------------------------------------


def _interp_error_callables(problem, coeffs, space, sign: float = 1.0):
    """Value/gradient callables of sign * (u - pi_h u) usable on any array shape."""
    coeffs = np.asarray(coeffs, dtype=float)

    def value(x, y):
        x = np.asarray(x, dtype=float)
        pts = np.column_stack([np.ravel(x), np.ravel(np.broadcast_to(y, x.shape))])
        v, _ = eval_discrete_many(coeffs, pts, space)
        return sign * (problem.u(x, np.broadcast_to(y, x.shape)) - v.reshape(x.shape))

    def grad(x, y):
        x = np.asarray(x, dtype=float)
        yb = np.broadcast_to(y, x.shape)
        pts = np.column_stack([np.ravel(x), np.ravel(yb)])
        _, g = eval_discrete_many(coeffs, pts, space)
        gx, gy = problem.grad_u(x, yb)
        return (
            sign * (np.asarray(gx) - g[:, 0].reshape(x.shape)),
            sign * (np.asarray(gy) - g[:, 1].reshape(x.shape)),
        )

    return value, grad


def error_representation_residual(
    problem,
    u_h,
    space: P1Space,
    cfg: NitscheConfig,
    psi,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Relative defect of the Nitsche flux error representation.

    Assembles the Nitsche matrix, solves the discrete dual problem for psi
    and measures the defect with `error_representation_defect`.
    """
    system = assemble_nitsche(space, cfg, problem.f, problem.g, volume_degree, edge_points)
    dual_rhs = assemble_dual_rhs_nitsche(space, cfg, psi, edge_points)
    phi = solve_spd(replace(system, rhs=dual_rhs)).x
    return error_representation_defect(
        problem, u_h, space, cfg, psi, phi, volume_degree, edge_points
    )


def error_representation_defect(
    problem,
    u_h,
    space: P1Space,
    cfg: NitscheConfig,
    psi,
    phi,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Relative defect of the Nitsche identity for a solved dual phi_h.

    `phi` solves the discrete dual problem a_h(v, phi_h) = m_psi(v), that
    is the Nitsche matrix against `assemble_dual_rhs_nitsche(psi)`; one
    factorization can serve u_h and the duals of several psi. Compares
    (sigma_n - Sigma_n, psi)_G against a_h(u - pi_h u, phi_h)
    - m_psi(u - pi_h u), divided by |psi|_G; exact modulo quadrature and
    solver residuals, and 0 for psi = 0.
    """
    if cfg.kappa != 0.0:
        raise ValueError("the identity holds for the unshifted problem (kappa = 0)")
    mesh = space.mesh
    t, w, _, _, _, pts = facet_tables(space, edge_points)
    psi_vals = boundary_field_values(psi, mesh, t, pts)
    psi_norm = np.sqrt(np.sum(mesh.facet_lengths[:, None] * w[None, :] * psi_vals**2))
    if psi_norm == 0.0:
        return 0.0
    sigma = problem.sigma_n(pts[..., 0], pts[..., 1], mesh.facet_normals[:, None, :])
    sigma_h = pointwise_nitsche_values(u_h, problem.g, space, cfg, t)
    lhs = np.sum(mesh.facet_lengths[:, None] * w[None, :] * (sigma - sigma_h) * psi_vals)

    pi_u = nodal_interpolant(problem.u, space)
    w_val, w_grad = _interp_error_callables(problem, pi_u, space, sign=1.0)
    rhs = apply_nitsche_form(space, cfg, w_val, w_grad, phi, volume_degree, edge_points)
    rhs -= apply_dual_functional(space, cfg, psi, w_val, w_grad, edge_points)
    return float(abs(lhs - rhs) / psi_norm)


def lm_error_representation_residual(
    problem,
    u_h,
    lam_h,
    space: P1Space,
    trace_space: TraceDG0Space,
    cfg: SaddleConfig,
    psi,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Relative defect of the multiplier error representation.

    Assembles the saddle matrix, solves the dual pair for psi and measures
    the defect with `lm_error_representation_defect`.
    """
    system = assemble_saddle(space, trace_space, cfg, problem.f, problem.g, volume_degree, edge_points)
    dual_rhs = assemble_dual_rhs_lm(space, trace_space, psi, edge_points)
    phi, theta = system.split(solve_sym_indefinite(replace(system, rhs=dual_rhs)).x)
    return lm_error_representation_defect(
        problem, u_h, lam_h, space, trace_space, cfg, psi, phi, theta, volume_degree, edge_points
    )


def lm_error_representation_defect(
    problem,
    u_h,
    lam_h,
    space: P1Space,
    trace_space: TraceDG0Space,
    cfg: SaddleConfig,
    psi,
    phi,
    theta,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Relative defect of the multiplier identity for a solved dual pair.

    (phi_h, theta_h) solves the saddle matrix against
    `assemble_dual_rhs_lm(psi)`; one factorization can serve (u_h,
    lambda_h) and the duals of several psi. Compares
    (lambda - lambda_h, psi)_G against
    A_h(pi_h u - u, pi_h lambda - lambda; phi_h, theta_h)
    + (psi, lambda - pi_h lambda)_G, divided by |psi|_G; 0 for psi = 0.
    """
    if cfg.kappa != 0.0:
        raise ValueError("the identity holds for the unshifted problem (kappa = 0)")
    mesh = space.mesh
    t, w, _, _, _, pts = facet_tables(space, edge_points)
    hw = mesh.facet_lengths[:, None] * w[None, :]
    psi_vals = boundary_field_values(psi, mesh, t, pts)
    psi_norm = np.sqrt(np.sum(hw * psi_vals**2))
    if psi_norm == 0.0:
        return 0.0
    lam_exact = -problem.sigma_n(pts[..., 0], pts[..., 1], mesh.facet_normals[:, None, :])
    lam_h = np.asarray(lam_h, dtype=float)
    lhs = np.sum(hw * (lam_exact - lam_h[:, None]) * psi_vals)

    # facet averages are the natural interpolant onto facet constants
    pi_lam = np.einsum("q,fq->f", w, lam_exact)
    pi_u = nodal_interpolant(problem.u, space)
    w_val, w_grad = _interp_error_callables(problem, pi_u, space, sign=-1.0)
    mu_vals = pi_lam[:, None] - lam_exact
    rhs = apply_saddle_form(
        space, trace_space, cfg, w_val, w_grad, mu_vals, phi, theta, volume_degree, edge_points
    )
    rhs += np.sum(hw * psi_vals * (lam_exact - pi_lam[:, None]))
    return float(abs(lhs - rhs) / psi_norm)


# -- offset-contour integration ------------------------------------------------


def _contour_quadrature(mesh: Mesh, contour, edge_points: int):
    """Gauss points on the contour, split so each piece avoids mesh lines."""
    rule = edge_quadrature(edge_points)
    starts, ends = [], []
    for a, b in contour.segments:
        t = split_segment_at_mesh_lines(mesh, a, b)
        pts = a[None, :] + t[:, None] * (b - a)[None, :]
        starts.append(pts[:-1])
        ends.append(pts[1:])
    p0 = np.vstack(starts)
    p1 = np.vstack(ends)
    lengths = np.hypot(*(p1 - p0).T)
    points = p0[:, None, :] + rule.points[None, :, None] * (p1 - p0)[:, None, :]
    return points, lengths, rule.weights


def contour_l2_norm_discrete(
    coeffs, space: P1Space, contour, edge_points: int = DEFAULT_EDGE_POINTS
) -> float:
    """L2 norm of a P1 function along an offset contour."""
    points, lengths, w = _contour_quadrature(space.mesh, contour, edge_points)
    flat = points.reshape(-1, 2)
    vals, _ = eval_discrete_many(coeffs, flat, space)
    vals = vals.reshape(points.shape[:2])
    return float(np.sqrt(np.sum(lengths[:, None] * w[None, :] * vals**2)))


def contour_interp_error_norms(
    problem, coeffs, space: P1Space, contour, edge_points: int = DEFAULT_EDGE_POINTS
):
    """(value, gradient) L2 norms of u - u_h along an offset contour."""
    points, lengths, w = _contour_quadrature(space.mesh, contour, edge_points)
    flat = points.reshape(-1, 2)
    vals, grads = eval_discrete_many(coeffs, flat, space)
    x, y = flat[:, 0], flat[:, 1]
    dv = (np.asarray(problem.u(x, y), dtype=float) - vals).reshape(points.shape[:2])
    gx, gy = problem.grad_u(x, y)
    dgx = (np.asarray(gx) - grads[:, 0]).reshape(points.shape[:2])
    dgy = (np.asarray(gy) - grads[:, 1]).reshape(points.shape[:2])
    lw = lengths[:, None] * w[None, :]
    val_norm = np.sqrt(np.sum(lw * dv**2))
    grad_norm = np.sqrt(np.sum(lw * (dgx**2 + dgy**2)))
    return float(val_norm), float(grad_norm)


def interp_error_scan(
    problem,
    space: P1Space,
    delta_0: float = 0.25,
    samples: int = 33,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> InterpScan:
    """Suprema over offset contours of the nodal interpolation error.

    Scans delta over `samples` even steps in [0, delta_0]; the value
    component decays at second order and the gradient at first order for
    smooth u.
    """
    coeffs = nodal_interpolant(problem.u, space)
    sup_val = 0.0
    sup_grad = 0.0
    for delta in np.linspace(0.0, delta_0, samples):
        contour = offset_contour(delta)
        v, g = contour_interp_error_norms(problem, coeffs, space, contour, edge_points)
        sup_val = max(sup_val, v)
        sup_grad = max(sup_grad, g)
    return InterpScan(
        sup_value_error=sup_val, sup_gradient_error=sup_grad, h_grid=space.mesh.h_grid
    )


# -- dual stability -------------------------------------------------------------


def _weighted_gradient_sq(coeffs, space: P1Space, delta_prime: float, volume_degree: int) -> float:
    """Integral of rho_delta' |grad phi_h|^2 (per-triangle constant gradient)."""
    mesh = space.mesh
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule)
    weight = distance_weight(pts, delta_prime)
    cell_weight = 2.0 * space.areas * np.einsum("q,tq->t", rule.weights, weight)
    grads = np.einsum("ti,tid->td", np.asarray(coeffs, dtype=float)[mesh.triangles], space.gradients)
    return float(np.sum(cell_weight * np.einsum("td,td->t", grads, grads)))


def dual_stability_report(
    method: str,
    levels,
    delta_0: float = 0.25,
    kappa: float = 0.0,
    seed: int = 0,
    beta: float = 10.0,
    alpha: float = 0.25,
    samples: int = 33,
    psi_field=None,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> list[StabilityReport]:
    """Solve the discrete dual problem per level and measure its stability.

    `method` is "nitsche" or "lagrange"; `levels` lists grid subdivisions.
    psi defaults to the seeded per-facet Rademacher field; pass
    `psi_field` (a mesh -> boundary data callable) to override. The
    shifted weight uses delta' = h_grid, and the contour supremum samples
    delta over `samples` even steps in [0, delta_0].
    """
    if method not in ("nitsche", "lagrange"):
        raise ValueError(f"unknown method {method!r}")
    if not 0.0 < delta_0 < 0.5:
        raise ValueError(f"delta_0 must lie in (0, 1/2), got {delta_0}")
    zero = lambda x, y: np.zeros_like(np.asarray(x, dtype=float))  # noqa: E731

    reports = []
    for n in levels:
        mesh = build_unit_square_mesh(n)
        space = P1Space(mesh)
        psi = psi_field(mesh) if psi_field is not None else rademacher_boundary_field(mesh, seed)
        psi_norm_sq = boundary_l2_norm(psi, mesh, edge_points) ** 2

        theta = None
        if method == "nitsche":
            cfg = NitscheConfig(beta=beta, kappa=kappa)
            system = assemble_nitsche(space, cfg, zero, zero, volume_degree, edge_points)
            rhs = assemble_dual_rhs_nitsche(space, cfg, psi, edge_points)
            phi = solve_spd(replace(system, rhs=rhs)).x
        else:
            trace_space = TraceDG0Space(mesh)
            cfg = SaddleConfig(alpha=alpha, kappa=kappa)
            system = assemble_saddle(space, trace_space, cfg, zero, zero, volume_degree, edge_points)
            rhs = assemble_dual_rhs_lm(space, trace_space, psi, edge_points)
            phi, theta = system.split(solve_sym_indefinite(replace(system, rhs=rhs)).x)

        grads = np.einsum("ti,tid->td", phi[mesh.triangles], space.gradients)
        grad_sq = float(np.sum(space.areas * np.einsum("td,td->t", grads, grads)))
        q1 = _weighted_gradient_sq(phi, space, mesh.h_grid, volume_degree)
        q2 = mesh.h_grid * grad_sq
        q3 = 0.0
        for delta in np.linspace(0.0, delta_0, samples):
            norm = contour_l2_norm_discrete(phi, space, offset_contour(delta), edge_points)
            q3 = max(q3, norm**2)
        q4 = float(phi @ (mass_matrix(space) @ phi))
        q5 = None
        if theta is not None:
            q5 = mesh.h_grid**2 * float(np.sum(mesh.facet_lengths * theta**2))
        reports.append(
            StabilityReport(
                method=method,
                grid_n=n,
                h_grid=mesh.h_grid,
                kappa=kappa,
                psi_norm_sq=psi_norm_sq,
                q1=q1,
                q2=q2,
                q3=q3,
                q4=q4,
                q5=q5,
            )
        )
    return reports
