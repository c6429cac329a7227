"""Discrete boundary-flux recoveries and the exact flux.

Three recoveries of the normal flux n.grad(u) on the boundary:

* the pointwise Nitsche flux  n.grad(u_h) - beta/h (u_h - g), stored
  facet-wise linear with g replaced by its nodal values;
* the variational flux, the continuous trace-space function whose
  boundary moments reproduce (grad u_h, grad v) - (u_h - g, n.grad v)_G
  - (f, v); by the discrete equations it coincides with the boundary L2
  projection of the pointwise flux (with exact g);
* minus the discrete Lagrange multiplier.

Fluxes live on the disjoint union of the four sides; corners carry no
measure in L2(boundary), so two-sided values need no reconciliation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .fem import (
    DEFAULT_EDGE_POINTS,
    DEFAULT_VOLUME_DEGREE,
    P1Space,
    facet_tables,
    load_vector,
    stiffness_matrix,
)
from .mesh import Mesh
from .nitsche import NitscheConfig

FACETWISE_LINEAR = "facetwise-linear"
FACETWISE_CONSTANT = "facetwise-constant"


@dataclass(frozen=True)
class BoundaryFluxField:
    """Piecewise polynomial function on the boundary trace mesh.

    coefficients has shape (n_facets, 2) holding endpoint values for the
    facet-wise linear kind, or (n_facets,) for facet-wise constants.
    """

    kind: str
    coefficients: np.ndarray
    mesh: Mesh

    def __post_init__(self):
        c = np.asarray(self.coefficients, dtype=float)
        nf = self.mesh.n_facets
        if self.kind == FACETWISE_LINEAR:
            if c.shape != (nf, 2):
                raise ValueError(f"expected ({nf}, 2) endpoint values, got {c.shape}")
        elif self.kind == FACETWISE_CONSTANT:
            if c.shape != (nf,):
                raise ValueError(f"expected ({nf},) facet values, got {c.shape}")
        else:
            raise ValueError(f"unknown flux field kind {self.kind!r}")
        object.__setattr__(self, "coefficients", c)

    def facet_values(self, t) -> np.ndarray:
        """Values at facet parameters t in [0,1]; shape (n_facets, len(t))."""
        t = np.atleast_1d(np.asarray(t, dtype=float))
        if self.kind == FACETWISE_CONSTANT:
            return np.broadcast_to(
                self.coefficients[:, None], (self.mesh.n_facets, t.size)
            ).copy()
        c = self.coefficients
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


def exact_flux(problem, mesh: Mesh, facet_index: int, s: float) -> float:
    """Exact flux at arclength s in [0, length] along one boundary facet."""
    length = float(mesh.facet_lengths[facet_index])
    if not 0.0 <= s <= length:
        raise ValueError(f"arclength {s} outside [0, {length}]")
    p0, p1 = mesh.vertices[mesh.facet_vertices[facet_index]]
    x, y = p0 + (s / length) * (p1 - p0)
    return float(problem.sigma_n(x, y, mesh.facet_normals[facet_index]))


def multiplier_flux(lam_coeffs, mesh: Mesh) -> BoundaryFluxField:
    """Flux recovered from a saddle solve: minus the multiplier, per facet."""
    return BoundaryFluxField(
        kind=FACETWISE_CONSTANT,
        coefficients=-np.asarray(lam_coeffs, dtype=float),
        mesh=mesh,
    )


def nitsche_flux(u_h, g, space: P1Space, cfg: NitscheConfig) -> BoundaryFluxField:
    """Pointwise Nitsche flux n.grad(u_h) - beta/h (u_h - g), facet-wise linear.

    The normal gradient is the parent-triangle constant; the penalty part
    samples u_h - g at the facet endpoints (nodal g).
    """
    mesh = space.mesh
    u = np.asarray(u_h, dtype=float)
    if u.shape != (space.n_dofs,):
        raise ValueError(f"coefficients sized {u.shape} do not match the space ({space.n_dofs})")
    _, _, pdofs, ndg, _, _ = facet_tables(space)
    grad_part = np.einsum("fk,fk->f", ndg, u[pdofs])
    ends = mesh.facet_vertices
    pv = mesh.vertices[ends]
    gnod = np.asarray(g(pv[..., 0], pv[..., 1]), dtype=float)
    gnod = np.broadcast_to(gnod, ends.shape)
    pen = cfg.beta / mesh.facet_lengths
    coeffs = grad_part[:, None] - pen[:, None] * (u[ends] - gnod)
    return BoundaryFluxField(kind=FACETWISE_LINEAR, coefficients=coeffs, mesh=mesh)


def pointwise_nitsche_values(
    u_h, g, space: P1Space, cfg: NitscheConfig, t
) -> np.ndarray:
    """Nitsche flux at facet parameters t with g evaluated exactly.

    This is the flux the variational identity refers to: the penalty term
    carries g at the quadrature points, not its nodal interpolant.
    """
    mesh = space.mesh
    u = np.asarray(u_h, dtype=float)
    t = np.atleast_1d(np.asarray(t, dtype=float))
    _, _, pdofs, ndg, _, _ = facet_tables(space)
    grad_part = np.einsum("fk,fk->f", ndg, u[pdofs])
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
    nb = moments.size
    ends = lookup[mesh.facet_vertices]
    block = np.array([[1.0 / 3.0, 1.0 / 6.0], [1.0 / 6.0, 1.0 / 3.0]])
    data = mesh.facet_lengths[:, None, None] * block[None, :, :]
    rows = np.repeat(ends, 2, axis=1).ravel()
    cols = np.tile(ends, (1, 2)).ravel()
    mass = sp.coo_matrix((data.ravel(), (rows, cols)), shape=(nb, nb)).tocsr()
    values = spla.spsolve(mass.tocsc(), moments)
    return BoundaryFluxField(kind=FACETWISE_LINEAR, coefficients=values[ends], mesh=mesh)


def variational_flux(
    u_h,
    g,
    f,
    space: P1Space,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> BoundaryFluxField:
    """Flux defined by boundary moments of the discrete residual functional.

    Solves the boundary mass system (Sigma, v)_G = (grad u_h, grad v)
    - (u_h - g, n.grad v)_G - (f, v) over the boundary-supported P1 basis;
    u_h must come from the plain (kappa = 0) Nitsche solve with the same
    quadrature settings.
    """
    mesh = space.mesh
    u = np.asarray(u_h, dtype=float)
    full = stiffness_matrix(space) @ u - load_vector(space, f, volume_degree)
    t, w, pdofs, ndg, trace, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    u_trace = np.einsum("fkq,fk->fq", trace, u[pdofs])
    gvals = np.asarray(g(points[..., 0], points[..., 1]), dtype=float)
    gvals = np.broadcast_to(gvals, u_trace.shape)
    defect = hf * np.einsum("q,fq->f", w, u_trace - gvals)
    np.add.at(full, pdofs.ravel(), (-ndg * defect[:, None]).ravel())

    ids, lookup = _boundary_vertex_numbering(mesh)
    return _trace_field_from_moments(mesh, lookup, full[ids])


def project_pointwise_flux(
    u_h,
    g,
    space: P1Space,
    cfg: NitscheConfig,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> BoundaryFluxField:
    """Boundary L2 projection of the exact-g pointwise Nitsche flux.

    Projects onto the continuous trace of P1; by the discrete equations
    this reproduces the variational flux to solver accuracy.
    """
    mesh = space.mesh
    t, w, _, _, _, _ = facet_tables(space, edge_points)
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
