"""Discrete boundary-flux recoveries and the exact flux.

Three recoveries of the normal flux n.grad(u) on the boundary:

* the pointwise Nitsche flux  n.grad(u_h) - beta/h (u_h - g), stored
  facet-wise linear with g replaced by its nodal values;
* the variational flux, the continuous trace-space function whose
  boundary moments reproduce (grad u_h, grad v) - (u_h - g, n.grad v)_G
  - (f, v); by the discrete equations it coincides with the boundary L2
  projection of the pointwise flux (with exact g). Its volume terms
  integrate over the triangles with a boundary vertex only (8n - 8 of
  the 2n^2 on an n x n grid, n >= 2);
* minus the discrete Lagrange multiplier.

Fluxes live on the disjoint union of the four sides; corners carry no
measure in L2(boundary), so two-sided values need no reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg as spla

from .fem import P1Space, load_vector, local_to_global, stiffness_matrix
from .mesh import Mesh
from .nitsche import NitscheConfig


@dataclass(frozen=True)
class BoundaryFluxField:
    """Piecewise polynomial function on the boundary trace mesh.

    The shape of coefficients gives the kind: (n_facets, 2) endpoint
    values for a facet-wise linear field, (n_facets,) for facet-wise
    constants.
    """

    coefficients: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        nf = self.mesh.n_facets
        if c.shape not in ((nf, 2), (nf,)):
            raise ValueError(f"expected ({nf}, 2) endpoint values or ({nf},) facet values, got {c.shape}")
        object.__setattr__(self, "coefficients", c)

    def facet_values(self, t) -> np.ndarray:
        """Values at facet parameters t in [0,1]; shape (n_facets, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        c = self.coefficients
        if c.ndim == 1:
            return np.broadcast_to(c[:, None], (self.mesh.n_facets, t.size)).copy()
        return c[:, [0]] * (1.0 - t)[None, :] + c[:, [1]] * t[None, :]


class ExactFluxField:
    """Exact boundary flux n.grad(u) of a manufactured problem."""

    def __init__(self, problem, mesh: Mesh):
        self.problem = problem
        self.mesh = mesh

    def facet_values(self, t) -> np.ndarray:
        t = np.atleast_1d(np.asarray(t, dtype=float))
        pts = self.mesh.facet_points(t)
        return self.problem.sigma_n(
            pts[..., 0], pts[..., 1], self.mesh.facet_normals[:, None, :]
        )


def multiplier_flux(lam_coeffs, mesh: Mesh) -> BoundaryFluxField:
    """Flux recovered from a saddle solve: minus the multiplier, per facet."""
    return BoundaryFluxField(coefficients=-np.asarray(lam_coeffs, dtype=float), mesh=mesh)


def nitsche_flux(u_h, g, space: P1Space, cfg: NitscheConfig) -> BoundaryFluxField:
    """Pointwise Nitsche flux n.grad(u_h) - beta/h (u_h - g), facet-wise linear.

    The normal gradient is the parent-triangle constant; the penalty part
    samples u_h - g at the facet endpoints (nodal g).
    """
    coeffs = pointwise_nitsche_values(u_h, g, space, cfg, [0.0, 1.0])
    return BoundaryFluxField(coefficients=coeffs, mesh=space.mesh)


def pointwise_nitsche_values(
    u_h, g, space: P1Space, cfg: NitscheConfig, t
) -> np.ndarray:
    """Nitsche flux at facet parameters t with g evaluated exactly.

    This is the flux the variational identity refers to: the penalty term
    carries g at the quadrature points, not its nodal interpolant.
    """
    mesh = space.mesh
    u = np.asarray(u_h, dtype=float)
    if u.shape != (space.n_dofs,):
        raise ValueError(f"coefficients sized {u.shape} do not match the space ({space.n_dofs})")
    t = np.atleast_1d(np.asarray(t, dtype=float))
    facets = space.facets
    grad_part = np.einsum("fk,fk->f", facets.ndg, u[facets.pdofs])
    ends = mesh.facet_vertices
    u_trace = u[ends][:, [0]] * (1.0 - t)[None, :] + u[ends][:, [1]] * t[None, :]
    pts = mesh.facet_points(t)
    gvals = np.asarray(g(pts[..., 0], pts[..., 1]), dtype=float)
    gvals = np.broadcast_to(gvals, u_trace.shape)
    pen = cfg.beta / mesh.facet_lengths
    return grad_part[:, None] - pen[:, None] * (u_trace - gvals)


def _boundary_vertex_numbering(mesh: Mesh):
    """Map mesh vertex ids of boundary vertices to trace dofs."""
    ids = np.unique(mesh.facet_vertices)
    lookup = np.full(mesh.n_vertices, -1, dtype=np.int64)
    lookup[ids] = np.arange(ids.size)
    return ids, lookup


def _trace_field_from_moments(mesh: Mesh, lookup, moments) -> BoundaryFluxField:
    """Continuous boundary P1 field with the given moments on the `lookup`-numbered basis."""
    ends = lookup[mesh.facet_vertices]
    block = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    data = mesh.facet_lengths[:, None, None] * block[None, :, :]
    mass = local_to_global(ends, data, moments.size)
    values = spla.spsolve(mass.tocsc(), moments)
    return BoundaryFluxField(coefficients=values[ends], mesh=mesh)


def variational_flux(u_h, g, f, space: P1Space) -> BoundaryFluxField:
    """Flux defined by boundary moments of the discrete residual functional.

    Solves the boundary mass system (Sigma, v)_G = (grad u_h, grad v)
    - (u_h - g, n.grad v)_G - (f, v) over the boundary-supported P1 basis;
    u_h must come from the plain (kappa = 0) Nitsche solve with the
    default quadrature. The volume terms integrate over the triangles
    with a boundary vertex only, the support of that basis, in mesh
    order, so each moment sums the same terms in the same order as a
    full assembly would.
    """
    mesh = space.mesh
    u = np.asarray(u_h, dtype=float)
    ids, lookup = _boundary_vertex_numbering(mesh)
    layer = np.flatnonzero((lookup[mesh.triangles] >= 0).any(axis=1))
    residual = stiffness_matrix(space, layer) @ u - load_vector(space, f, cells=layer)
    t, w, pdofs, ndg, trace, points = space.facets
    hf = mesh.facet_lengths
    u_trace = np.einsum("fkq,fk->fq", trace, u[pdofs])
    gvals = np.asarray(g(points[..., 0], points[..., 1]), dtype=float)
    gvals = np.broadcast_to(gvals, u_trace.shape)
    defect = hf * np.einsum("q,fq->f", w, u_trace - gvals)
    np.add.at(residual, pdofs.ravel(), (-ndg * defect[:, None]).ravel())
    return _trace_field_from_moments(mesh, lookup, residual[ids])


def project_pointwise_flux(u_h, g, space: P1Space, cfg: NitscheConfig) -> BoundaryFluxField:
    """Boundary L2 projection of the exact-g pointwise Nitsche flux.

    Projects onto the continuous trace of P1; by the discrete equations
    this reproduces the variational flux to solver accuracy.
    """
    mesh = space.mesh
    t, w = space.facets.t, space.facets.w
    vals = pointwise_nitsche_values(u_h, g, space, cfg, t)
    ends = mesh.facet_vertices
    hf = mesh.facet_lengths
    ids, lookup = _boundary_vertex_numbering(mesh)
    rhs = np.zeros(ids.size)
    m0 = hf * np.einsum("q,fq->f", w * (1.0 - t), vals)
    m1 = hf * np.einsum("q,fq->f", w * t, vals)
    np.add.at(rhs, lookup[ends[:, 0]], m0)
    np.add.at(rhs, lookup[ends[:, 1]], m1)
    return _trace_field_from_moments(mesh, lookup, rhs)
