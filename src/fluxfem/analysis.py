"""Error norms, convergence rates, identity checks, and dual stability.

The error-representation identities tie the boundary-flux error to a
discrete dual solution: for the Nitsche flux

    (sigma_n - Sigma_n, psi)_G = a_h(u - pi_h u, phi_h) - m_psi(u - pi_h u)

and for the multiplier flux

    (lambda - lambda_h, psi)_G
        = A_h(pi_h u - u, pi_h lambda - lambda; phi_h, theta_h)
          + (psi, lambda - pi_h lambda)_G.

Both hold for any discrete interpolants, so pi_h is nodal interpolation
for u and the facet average for lambda. The identity check samples
w = u - pi_h u once and evaluates the forms on it here, the one place
that needs them, on `space.facets`. The dual-stability quantities
are the weighted-gradient, scaled-gradient, offset-contour, and L2 terms
bounded by |psi|^2 on the boundary, measured level by level. The three
cell terms come from one pass over the triangles; the L2 term sums the
exact element mass forms, so no mass matrix is built. The contour term is
the integral of a P1 function, so it has a closed form: one split cuts
all the offset contours at the mesh lines, and the square of phi_h is
integrated exactly on each piece from its value and gradient at the
piece's midpoint, both from one `fem.evaluate_p1` call. Only the
interpolation scan, whose integrand u - pi_h u is not polynomial, places
the 6-point edge rule on the contour pieces: it splits all its contours
once too, then evaluates one contour at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .fem import (
    ALL_CELLS,
    VOLUME_DEGREE,
    LinearSystem,
    P1Space,
    assemble,
    basis_at,
    boundary_field_values,
    coefficient_vector,
    edge_quadrature,
    evaluate_p1,
    nodal_interpolant,
    per_cell,
    triangle_quadrature,
)
from .flux import BoundaryFluxField, pointwise_nitsche_values
from .lagrange import SaddleConfig
from .linsolve import solve_spd, solve_sym_indefinite
from .mesh import Mesh, distance_weight, offset_contour, split_segments_at_mesh_lines
from .nitsche import NitscheConfig

# Both identities hold up to the volume quadrature error of (f, phi_h) and
# (grad(u - pi_h u), grad phi_h), so they use a finer rule than assembly.
IDENTITY_VOLUME_DEGREE = 6
# Offsets delta sampled in [0, delta_0] by the offset-contour suprema.
CONTOUR_SAMPLES = 33


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

    grid_n: int
    h_grid: float
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
        # psi = 0 has ratios 0, as it has identity defects 0
        return {name: q / self.psi_norm_sq if self.psi_norm_sq else 0.0 for name, q in qs.items()}


@dataclass(frozen=True)
class InterpScan:
    """Suprema over offset contours of the interpolation error."""

    sup_value_error: float
    sup_gradient_error: float
    h_grid: float


# -- boundary norms ----------------------------------------------------------


def boundary_l2_norm(field, space: P1Space) -> float:
    """L2(boundary) norm of any boundary data, on the facet table of `space`."""
    return float(np.sqrt(np.sum(space.facets.hw * boundary_field_values(field, space) ** 2)))


def boundary_l2_error(a, b, space: P1Space) -> float:
    """L2(boundary) distance between two boundary data, on the facet table of `space`."""
    diff = boundary_field_values(a, space) - boundary_field_values(b, space)
    return float(np.sqrt(np.sum(space.facets.hw * diff**2)))


# -- volume/energy error norms ----------------------------------------------


def _cell_gradient(nodal, grads):
    """The constant gradient (2, m) of a P1 function with nodal values (3, m)
    on triangles with basis gradients (3, 2, m): the products and sums of the
    einsum "ti,tid->td" in its order, (p0 + p1) + p2."""
    return (nodal[0] * grads[0] + nodal[1] * grads[1]) + nodal[2] * grads[2]


def error_norms(problem, space: P1Space, u, lam=None) -> tuple[float, float]:
    """(energy, L2) norms of the error of u_h = u; one volume table serves both.

    Without `lam` the energy norm is Nitsche's (gradient, h-scaled flux, 1/h
    trace). With the multiplier coefficients `lam` it is the natural saddle
    norm of (u - u_h, lambda - lambda_h), where lambda = -sigma_n.

    The integrands |T| w_q (u - u_h)^2 and |T| w_q |grad(u - u_h)|^2 are
    evaluated a block of triangles at a time (`fem.per_cell`) into two
    (n_triangles, n_q) tables, each summed by one np.sum, so the quadrature
    temporaries stay a block in size while the reduction, and so every bit
    of both norms, is that of a one-shot evaluation.
    """
    mesh = space.mesh
    u = coefficient_vector(u, space.n_dofs)
    if lam is not None:
        lam = coefficient_vector(lam, mesh.n_facets)
    rule = triangle_quadrature(VOLUME_DEGREE)
    phi = basis_at(rule)
    val_terms = np.empty((mesh.n_triangles, len(rule.weights)))
    grad_terms = np.empty_like(val_terms)

    def block_terms(rows, geometry):
        # over all cells the rows are the triangle indices; each block's
        # terms go to the tables triangle-major, the order np.sum reads
        areas, grads, (x, y) = geometry
        nodal = u[mesh.triangles[rows].T]
        aw = rule.weights[:, None] * areas
        # u - u_h at the points, u_h with the products and sums of the einsum
        # "qk,tk->tq" in the order its two-lane loop takes them, (p0 + p2) + p1
        diff = np.asarray(problem.u(x, y), dtype=float) - (
            (phi[:, 0, None] * nodal[0] + phi[:, 2, None] * nodal[2]) + phi[:, 1, None] * nodal[1]
        )
        np.multiply(aw, diff**2, out=val_terms[rows].T)
        gx, gy = problem.grad_u(x, y)
        grad_x, grad_y = _cell_gradient(nodal, grads)
        dx = np.asarray(gx) - grad_x
        dy = np.asarray(gy) - grad_y
        np.multiply(aw, dx**2 + dy**2, out=grad_terms[rows].T)

    per_cell(space, ALL_CELLS, block_terms, rule)
    l2 = float(np.sqrt(2.0 * np.sum(val_terms)))
    grad_sq = float(2.0 * np.sum(grad_terms))

    _, w, hw, pdofs, ndg, trace, fpts = space.facets
    u_trace = np.einsum("fkq,fk->fq", trace, u[pdofs])
    trace_diff = boundary_field_values(problem.g, space) - u_trace
    val_sq = float(np.sum(hw * trace_diff**2))
    sigma = problem.sigma_n(fpts[..., 0], fpts[..., 1], mesh.facet_normals[:, None, :])
    h = mesh.h_grid
    if lam is None:
        nd_h = np.einsum("fk,fk->f", ndg, u[pdofs])
        nd_sq = float(np.sum(hw * (sigma - nd_h[:, None]) ** 2))
        return float(np.sqrt(grad_sq + h * nd_sq + val_sq / h)), l2
    lam_diff = -sigma - lam[:, None]
    lam_sq = np.sum(mesh.facet_lengths[:, None] ** 2 * w[None, :] * lam_diff**2)
    return float(np.sqrt(grad_sq + val_sq / h + lam_sq)), l2


# -- rate fitting -------------------------------------------------------------


def fit_rate(pairs) -> float:
    """Least-squares slope of log(error) against log(h) over at least 3
    (h, error) pairs. Every h and error must be finite and positive, and at
    least two h distinct.
    """
    pairs = [(float(h), float(e)) for h, e in pairs]
    if len(pairs) < 3:
        raise ValueError(f"insufficient data: need >= 3 points, have {len(pairs)}")
    for h, e in pairs:
        if not (0.0 < h < np.inf and 0.0 < e < np.inf):
            raise ValueError(f"cannot fit a rate to (h, error) = ({h!r}, {e!r}): need both finite and > 0")
    if len({h for h, _ in pairs}) < 2:
        raise ValueError(f"cannot fit a rate: all {len(pairs)} points have h = {pairs[0][0]!r}")
    h = np.log([p[0] for p in pairs])
    e = np.log([p[1] for p in pairs])
    return float(np.polyfit(h, e, 1)[0])


# -- seeded rough boundary data ----------------------------------------------


def rademacher_boundary_field(mesh: Mesh, seed: int = 0):
    """Independent per-facet values in {-1, +1}, deterministic per (seed, n)."""
    rng = np.random.default_rng([seed, mesh.grid_n])
    values = 2.0 * rng.integers(0, 2, mesh.n_facets) - 1.0
    return BoundaryFluxField(coefficients=values, mesh=mesh)


# -- error representation identities ------------------------------------------


def _check_method_config(cfg):
    if not isinstance(cfg, (NitscheConfig, SaddleConfig)):
        raise TypeError(f"cfg must be a NitscheConfig or a SaddleConfig, got {type(cfg).__name__}")


def _solve(system: LinearSystem):
    """Solve by the certified solver of the system's kind: indefinite with
    multipliers, positive definite without."""
    return (solve_sym_indefinite if system.n_multiplier else solve_spd)(system)


def _interp_error_at(problem, pi_u, points, space: P1Space):
    """w = u - pi_h u and the components of grad w at an (m, 2) array of
    points, for pi_h u with the coefficients pi_u: (value, gx, gy), each (m,)."""
    values, grads = evaluate_p1(pi_u, points, space)
    x, y = points[:, 0], points[:, 1]
    gx, gy = problem.grad_u(x, y)
    value = np.asarray(problem.u(x, y), dtype=float) - values
    return value, np.asarray(gx) - grads[:, 0], np.asarray(gy) - grads[:, 1]


def _sampled_interp_error(problem, space: P1Space):
    """w = u - pi_h u sampled once for the identity forms, as the tuple
    (geometry, grad, value, normal_derivative): geometry (areas, grads),
    the level's triangle areas and basis gradients, which the volume form
    reads for every psi; grad (gx, gy) at the points of the IDENTITY_VOLUME_DEGREE
    rule as (n_q, n_triangles) rows; value and n.grad w at the facet points
    (n_facets, EDGE_POINTS).

    grad pi_h u is constant on each triangle, so the volume points need no
    lookup; the facet Gauss points are evaluated once for values and gradients.
    """
    mesh = space.mesh
    pi_u = nodal_interpolant(problem.u, space)
    areas, grads, (qx, qy) = space.geometry(rule=triangle_quadrature(IDENTITY_VOLUME_DEGREE))
    cell_gx, cell_gy = _cell_gradient(pi_u[mesh.triangles.T], grads)
    gx, gy = problem.grad_u(qx, qy)
    fpts = space.facets.points
    errors = _interp_error_at(problem, pi_u, fpts.reshape(-1, 2), space)
    value, fx, fy = (error.reshape(fpts.shape[:-1]) for error in errors)
    return (
        (areas, grads),
        (np.asarray(gx) - cell_gx, np.asarray(gy) - cell_gy),
        value,
        mesh.facet_normals[:, None, 0] * fx + mesh.facet_normals[:, None, 1] * fy,
    )


def _phi_terms(space: P1Space, w, phi):
    """What both identity forms read of phi_h: (volume, trace, normal_derivative),
    the volume term (grad w, grad phi_h) for w sampled as in
    `_sampled_interp_error`, and phi_h's trace (n_facets, EDGE_POINTS) and
    normal derivative (n_facets,) on the facets."""
    (areas, grads), (gx, gy), _, _ = w
    weights = triangle_quadrature(IDENTITY_VOLUME_DEGREE).weights
    phigrad_x, phigrad_y = _cell_gradient(phi[space.mesh.triangles.T], grads)
    integrand = gx * phigrad_x + gy * phigrad_y
    # summed triangle-major, as an (n_triangles, n_q) table
    terms = np.empty(integrand.shape[::-1])
    np.multiply(weights[:, None] * areas, integrand, out=terms.T)
    facets = space.facets
    pc = phi[facets.pdofs]
    volume = 2.0 * float(np.sum(terms))
    return volume, np.einsum("fkq,fk->fq", facets.trace, pc), np.einsum("fk,fk->f", facets.ndg, pc)


def _nitsche_identity_form(space: P1Space, cfg: NitscheConfig, w, psivals, phi) -> float:
    """a_h(w, phi_h) - m_psi(w) at kappa = 0 for a sampled w and psi at the facet points."""
    _, _, value, normal_derivative = w
    total, phi_trace, phi_nd = _phi_terms(space, w, phi)
    wq, hw = space.facets.w, space.facets.hw
    hf = space.mesh.facet_lengths
    pen = cfg.beta / hf

    total -= float(np.sum(hw * normal_derivative * phi_trace))
    total -= float(np.sum(hf * phi_nd * np.einsum("q,fq->f", wq, value)))
    total += float(np.sum((pen * hf)[:, None] * wq[None, :] * value * phi_trace))

    # m_psi(w) = beta/h (psi, w)_G - (psi, n.grad w)_G
    m_psi = float(np.sum((pen * hf)[:, None] * wq[None, :] * psivals * value))
    m_psi -= float(np.sum(hw * psivals * normal_derivative))
    return total - m_psi


def _saddle_identity_form(space: P1Space, cfg: SaddleConfig, w, muvals, phi, theta) -> float:
    """A_h(w, mu; phi_h, theta_h) at kappa = 0 for a sampled w, mu at the
    facet points and a discrete second pair."""
    _, _, value, normal_derivative = w
    total, phi_trace, phi_nd = _phi_terms(space, w, phi)
    wq, hw = space.facets.w, space.facets.hw
    hf = space.mesh.facet_lengths
    ah = cfg.alpha * hf

    # b(mu, phi) + b(theta, w)
    total += float(np.sum(hw * muvals * phi_trace))
    total += float(np.sum(hf * theta * np.einsum("q,fq->f", wq, value)))
    # -alpha h (mu + n.grad w, theta + n.grad phi)_F
    left = muvals + normal_derivative
    right = theta[:, None] + phi_nd[:, None]
    total -= float(np.sum((ah * hf)[:, None] * wq[None, :] * left * right))
    return total


def error_representation_residuals(
    problem, space: P1Space, cfg: NitscheConfig | SaddleConfig, psis
) -> list[float]:
    """Relative defect |lhs - rhs| / |psi|_G of the identity, one per psi.

    The type of `cfg` picks the Nitsche or the multiplier identity. The
    primal solution and the duals of all psi share one factorization; the
    defect is quadrature and solver noise, and 0 for psi = 0.
    """
    _check_method_config(cfg)
    if cfg.kappa != 0.0:
        raise ValueError("the identity holds for the unshifted problem (kappa = 0)")
    mesh = space.mesh
    t, w, hw, _, _, _, pts = space.facets
    psi_vals = [boundary_field_values(psi, space) for psi in psis]
    sigma = problem.sigma_n(pts[..., 0], pts[..., 1], mesh.facet_normals[:, None, :])
    interp_error = _sampled_interp_error(problem, space)

    system = assemble(space, cfg, problem.f, problem.g, IDENTITY_VOLUME_DEGREE)
    duals = [cfg.dual_data(space, vals) for vals in psi_vals]
    primal, *phis = _solve(replace(system, rhs=np.column_stack([system.rhs, *duals]))).x.T
    u_h, lam_h = system.split(primal)

    if isinstance(cfg, NitscheConfig):
        flux_gap = hw * (sigma - pointwise_nitsche_values(u_h, problem.g, space, cfg, t))

        def form(vals, phi):
            return _nitsche_identity_form(space, cfg, interp_error, vals, phi)
    else:
        lam_exact = -sigma
        flux_gap = hw * (lam_exact - lam_h[:, None])
        # facet averages are the natural interpolant onto facet constants
        pi_lam = np.einsum("q,fq->f", w, lam_exact)
        interp_gap = lam_exact - pi_lam[:, None]

        def form(vals, pair):
            # A_h is bilinear: A_h(-w, pi_h lambda - lambda; .) = -A_h(w, lambda - pi_h lambda; .)
            a_h = _saddle_identity_form(space, cfg, interp_error, interp_gap, *system.split(pair))
            return np.sum(hw * vals * interp_gap) - a_h

    defects = []
    for vals, phi in zip(psi_vals, phis):
        psi_norm = np.sqrt(np.sum(hw * vals**2))
        lhs = np.sum(flux_gap * vals)
        defects.append(float(abs(lhs - form(vals, phi)) / psi_norm) if psi_norm > 0.0 else 0.0)
    return defects


# -- offset-contour integration ------------------------------------------------


def _contour_pieces(space: P1Space, contours):
    """Split every side of every contour at the mesh lines it crosses, in one
    batch. Returns (bounds, start, end): piece j runs from start[j] to end[j]
    inside one triangle, up to the splitter's merge tolerance, and contour c
    owns the pieces bounds[c]:bounds[c + 1].
    """
    sides = np.concatenate([contour.segments for contour in contours])
    t, counts = split_segments_at_mesh_lines(space.mesh, sides[:, 0], sides[:, 1])
    side = np.repeat(np.arange(len(sides)), counts)
    ends = sides[side, 0] + t[:, None] * (sides[:, 1] - sides[:, 0])[side]
    # consecutive breakpoints bound a piece unless a side ends between them
    same_side = np.ones(len(t) - 1, dtype=bool)
    same_side[np.cumsum(counts)[:-1] - 1] = False
    bounds = np.concatenate([[0], np.cumsum((counts - 1).reshape(len(contours), 4).sum(axis=1))])
    return bounds, ends[:-1][same_side], ends[1:][same_side]


def _p1_contour_norms(coeffs, space: P1Space, contours) -> list[float]:
    """L2 norm of a P1 function along each contour, exact on each piece.

    phi_h is linear on a piece of length L: with its value c at the midpoint
    and its change 2d from end to end, the piece adds L (c^2 + d^2 / 3), which
    is (L/3)(a^2 + ab + b^2) in the end values a and b. The midpoint, not an
    end, picks the piece's triangle, because the splitter merges cuts closer
    than its tolerance, so an end may lie in a sliver of the next triangle.
    A contour's terms and its one sum do not depend on the other contours,
    so each norm is bitwise the same as that of the contour alone.
    """
    bounds, p0, p1 = _contour_pieces(space, contours)
    step = p1 - p0
    c, g = evaluate_p1(coeffs, p0 + 0.5 * step, space)
    d = 0.5 * (g[:, 0] * step[:, 0] + g[:, 1] * step[:, 1])
    terms = np.hypot(*step.T) * (c * c + d * d / 3.0)
    return [float(np.sqrt(np.sum(terms[i:j]))) for i, j in zip(bounds[:-1], bounds[1:])]


def _gauss_points(p0, p1):
    """The edge rule on the pieces p0[j] -> p1[j]: (weights, points), each
    piece's length times the Gauss weights, (n_pieces, EDGE_POINTS), and the
    (n_pieces * EDGE_POINTS, 2) Gauss points, piece by piece."""
    rule = edge_quadrature()
    step = p1 - p0
    points = p0[:, None, :] + rule.points[None, :, None] * step[:, None, :]
    return np.hypot(*step.T)[:, None] * rule.weights[None, :], points.reshape(-1, 2)


def _offset_contours(delta_0: float):
    return [offset_contour(delta) for delta in np.linspace(0.0, delta_0, CONTOUR_SAMPLES)]


def _check_offset_scan(delta_0: float):
    if not 0.0 < delta_0 < 0.5:
        raise ValueError(f"delta_0 must lie in (0, 1/2), got {delta_0}")


def interp_error_scan(problem, space: P1Space, delta_0: float = 0.25) -> InterpScan:
    """Suprema over offset contours of the nodal interpolation error.

    Scans delta over CONTOUR_SAMPLES even steps in [0, delta_0]; the value
    component decays at second order and the gradient at first order for
    smooth u. All contours are split in one batch; the Gauss points are
    placed, evaluated and summed one contour at a time, so only one contour's
    points are held at once.
    """
    _check_offset_scan(delta_0)
    coeffs = nodal_interpolant(problem.u, space)
    bounds, start, end = _contour_pieces(space, _offset_contours(delta_0))
    value_sq, gradient_sq = [], []
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        weights, points = _gauss_points(start[lo:hi], end[lo:hi])
        dv, dgx, dgy = _interp_error_at(problem, coeffs, points, space)
        value_sq.append(np.sum(weights * (dv**2).reshape(weights.shape)))
        gradient_sq.append(np.sum(weights * (dgx**2 + dgy**2).reshape(weights.shape)))
    return InterpScan(
        sup_value_error=float(np.sqrt(max(value_sq))),
        sup_gradient_error=float(np.sqrt(max(gradient_sq))),
        h_grid=space.mesh.h_grid,
    )


# -- dual stability -------------------------------------------------------------


def dual_stability_report(
    space: P1Space, cfg: NitscheConfig | SaddleConfig, psi, delta_0: float = 0.25
) -> StabilityReport:
    """Solve the discrete dual problem with boundary data psi on one level
    and measure its stability.

    `cfg` is a NitscheConfig or a SaddleConfig; its kappa is the shift.
    The shifted weight uses delta' = h_grid, and the contour supremum
    samples delta over CONTOUR_SAMPLES even steps in [0, delta_0].
    """
    _check_method_config(cfg)
    _check_offset_scan(delta_0)
    mesh = space.mesh

    rhs = cfg.dual_data(space, psi)
    system = LinearSystem(cfg.matrix(space), rhs, space.n_dofs)
    phi, theta = system.split(_solve(system).x)

    h = mesh.h_grid
    rule = triangle_quadrature(VOLUME_DEGREE)

    terms = np.empty((mesh.n_triangles, 3))

    def cell_terms(rows, geometry):
        # the Q1, Q2 and Q4 integrands of each triangle (over all cells the
        # rows are the triangle indices), every sum in the order of the
        # einsum that once gave it
        areas, grads, points = geometry
        nodal = phi[mesh.triangles[rows].T]
        gx, gy = _cell_gradient(nodal, grads)
        grad_sq = gx * gx + gy * gy
        # the shifted weight: the products and sums of the einsum "q,tq->t"
        # over the 6 points, in the order of its two-lane loop
        p = rule.weights[:, None] * distance_weight(points.transpose(1, 2, 0), h)
        weight = 2.0 * areas * (((p[0] + p[2]) + p[4]) + ((p[1] + p[3]) + p[5]))
        # the exact P1 mass form |T|/12 ((sum phi_i)^2 + sum phi_i^2), the
        # first sum (p0 + p1) + p2, the second (p0 + p2) + p1
        square_sum = (nodal[0] * nodal[0] + nodal[2] * nodal[2]) + nodal[1] * nodal[1]
        terms[rows, 0] = weight * grad_sq
        terms[rows, 1] = areas * grad_sq
        terms[rows, 2] = areas / 12.0 * (((nodal[0] + nodal[1]) + nodal[2]) ** 2 + square_sum)

    per_cell(space, ALL_CELLS, cell_terms, rule)
    q1, q2, q4 = (float(np.sum(column)) for column in terms.T)
    q3 = max(norm**2 for norm in _p1_contour_norms(phi, space, _offset_contours(delta_0)))
    q5 = None
    if theta is not None:
        q5 = h**2 * float(np.sum(mesh.facet_lengths * theta**2))
    return StabilityReport(
        grid_n=mesh.grid_n,
        h_grid=h,
        psi_norm_sq=boundary_l2_norm(psi, space) ** 2,
        q1=q1,
        q2=h * q2,
        q3=q3,
        q4=q4,
        q5=q5,
    )
