"""Discrete boundary-flux recoveries and the exact flux.

Every flux here is an array of its values at the facet Gauss points of
`space.facets`, shape (n_facets, EDGE_POINTS), the one boundary format
besides a callable of (x, y). Three recoveries of the normal flux
n.grad(u) on the boundary:

* the pointwise Nitsche flux  n.grad(u_h) - beta/h (u_h - g), facet-wise
  linear with g replaced by its nodal values;
* the variational flux, the continuous trace-space function whose
  boundary moments reproduce (grad u_h, grad v) - (u_h - g, n.grad v)_G
  - (f, v); by the discrete equations it coincides with the boundary L2
  projection of the pointwise flux (with exact g). Its volume terms
  integrate over the triangles with a boundary vertex only (8n - 8 of
  the 2n^2 on an n x n grid, n >= 2);
* minus the discrete Lagrange multiplier, constant on each facet.

Fluxes live on the disjoint union of the four sides, and corners carry
no measure in L2(boundary). The pointwise and multiplier fluxes are
facet-wise, so they may take two values at a corner. The variational
flux may not: it is continuous around the whole boundary, with one trace
dof per corner vertex. Where the exact flux jumps at a corner (the
normal does), it therefore converges at only O(h^1/2).

The exact flux is sigma_n at the same facet points, none of which is a
corner.
"""

from __future__ import annotations

import numpy as np

from .fem import (
    EDGE_POINTS,
    LinearSystem,
    P1Space,
    boundary_field_values,
    coefficient_vector,
    load_vector,
    local_to_global,
    stiffness_matrix,
)
from .linsolve import solve_spd
from .mesh import Mesh
from .nitsche import NitscheConfig


def exact_flux(problem, space: P1Space) -> np.ndarray:
    """sigma_n = n.grad(u) of a manufactured problem at the facet points, (n_facets, EDGE_POINTS)."""
    points = space.facets.points
    return problem.sigma_n(points[..., 0], points[..., 1], space.mesh.facet_normals[:, None, :])


def multiplier_flux(lam_coeffs, mesh: Mesh) -> np.ndarray:
    """Flux recovered from a saddle solve: minus the multiplier, constant per facet."""
    lam = coefficient_vector(lam_coeffs, mesh.n_facets)
    return np.repeat(-lam[:, None], EDGE_POINTS, axis=1)


def _facet_linear(ends, space: P1Space) -> np.ndarray:
    """The facet-wise linear field with end values `ends` (n_facets, 2) at the facet points."""
    t = space.facets.t
    return ends[:, [0]] * (1.0 - t) + ends[:, [1]] * t


def _penalized_flux(u, u_trace, gvals, space: P1Space, cfg: NitscheConfig) -> np.ndarray:
    """n.grad(u_h) - beta/h (u_h - g) for traces u_trace and g of one shape (n_facets, m)."""
    facets = space.facets
    grad_part = np.einsum("fk,fk->f", facets.ndg, u[facets.pdofs])
    pen = cfg.beta / space.mesh.facet_lengths
    return grad_part[:, None] - pen[:, None] * (u_trace - gvals)


def nitsche_flux(u_h, g, space: P1Space, cfg: NitscheConfig) -> np.ndarray:
    """Pointwise Nitsche flux n.grad(u_h) - beta/h (u_h - g), facet-wise linear.

    The normal gradient is the parent-triangle constant; the penalty part
    samples u_h - g at the facet endpoints (nodal g).
    """
    mesh = space.mesh
    u = coefficient_vector(u_h, space.n_dofs)
    ends = mesh.facet_vertices
    xy = mesh.vertices[ends]
    g_nodal = np.broadcast_to(np.asarray(g(xy[..., 0], xy[..., 1]), dtype=float), ends.shape)
    return _facet_linear(_penalized_flux(u, u[ends], g_nodal, space, cfg), space)


def pointwise_nitsche_values(u_h, g, space: P1Space, cfg: NitscheConfig) -> np.ndarray:
    """Nitsche flux at the facet points with g evaluated exactly.

    This is the flux the variational identity refers to: the penalty term
    carries g at the quadrature points, not its nodal interpolant. g is
    boundary data as `fem.boundary_field_values` reads it.
    """
    u = coefficient_vector(u_h, space.n_dofs)
    u_trace = _facet_linear(u[space.mesh.facet_vertices], space)
    return _penalized_flux(u, u_trace, boundary_field_values(g, space), space, cfg)


def _boundary_vertex_numbering(mesh: Mesh):
    """Boundary vertex ids and the (n_facets, 2) int32 table `ends` of each
    facet's trace dofs; trace dof i is vertex ids[i], one per corner too."""
    ids, inverse = np.unique(mesh.facet_vertices, return_inverse=True)
    return ids, inverse.reshape(mesh.facet_vertices.shape).astype(np.int32)


def _boundary_layer(mesh: Mesh, ids) -> np.ndarray:
    """Indices, ascending, of the triangles with a vertex among `ids`: a
    vertex mask read at each vertex column of the triangles, not a sorted
    search."""
    marked = np.zeros(mesh.n_vertices, dtype=bool)
    marked[ids] = True
    tri = mesh.triangles
    return np.flatnonzero(marked[tri[:, 0]] | marked[tri[:, 1]] | marked[tri[:, 2]])


def _trace_field_from_moments(mesh: Mesh, ends, moments) -> np.ndarray:
    """Trace dof values of the boundary P1 field with the given moments on the
    trace dofs of the facet table `ends`."""
    block = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    data = mesh.facet_lengths[:, None, None] * block[None, :, :]
    mass = local_to_global(moments.size, (ends, ends, data))
    return solve_spd(LinearSystem(mass, moments, moments.size)).x


def variational_flux(u_h, g, f, space: P1Space) -> np.ndarray:
    """Flux defined by boundary moments of the discrete residual functional.

    `linsolve.solve_spd` solves the boundary mass system (Sigma, v)_G =
    (grad u_h, grad v) - (u_h - g, n.grad v)_G - (f, v) over the
    boundary-supported P1 basis; u_h must come from the plain (kappa = 0)
    Nitsche solve with the default quadrature. The volume terms integrate
    over the triangles with a boundary vertex only, the support of that
    basis, in mesh order, so each moment sums the same terms in the same
    order as a full assembly would.
    """
    mesh = space.mesh
    u = coefficient_vector(u_h, space.n_dofs)
    ids, ends = _boundary_vertex_numbering(mesh)
    layer = _boundary_layer(mesh, ids)
    residual = stiffness_matrix(space, layer) @ u - load_vector(space, f, cells=layer)
    _, w, _, pdofs, ndg, trace, _ = space.facets
    hf = mesh.facet_lengths
    u_trace = np.einsum("fkq,fk->fq", trace, u[pdofs])
    defect = hf * np.einsum("q,fq->f", w, u_trace - boundary_field_values(g, space))
    np.add.at(residual, pdofs.ravel(), (-ndg * defect[:, None]).ravel())
    return _facet_linear(_trace_field_from_moments(mesh, ends, residual[ids])[ends], space)


def project_pointwise_flux(u_h, g, space: P1Space, cfg: NitscheConfig) -> np.ndarray:
    """Boundary L2 projection of the exact-g pointwise Nitsche flux.

    Projects onto the continuous trace of P1; by the discrete equations
    this reproduces the variational flux to solver accuracy.
    """
    mesh = space.mesh
    t, w = space.facets.t, space.facets.w
    vals = pointwise_nitsche_values(u_h, g, space, cfg)
    hf = mesh.facet_lengths
    ids, ends = _boundary_vertex_numbering(mesh)
    rhs = np.zeros(ids.size)
    m0 = hf * np.einsum("q,fq->f", w * (1.0 - t), vals)
    m1 = hf * np.einsum("q,fq->f", w * t, vals)
    np.add.at(rhs, ends[:, 0], m0)
    np.add.at(rhs, ends[:, 1], m1)
    return _facet_linear(_trace_field_from_moments(mesh, ends, rhs)[ends], space)
