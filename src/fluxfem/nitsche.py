"""Symmetric Nitsche assembly for the Poisson problem.

The bilinear form is

    a_h(u, v) = (grad u, grad v) - (n.grad u, v)_G - (u, n.grad v)_G
                + beta/h (u, v)_G + kappa (u, v)

with G the boundary, plus the matching right-hand side

    l_h(v) = (f, v) - (g, n.grad v)_G + beta/h (g, v)_G.

The kappa mass shift only serves the shifted dual problems; primal solves
use kappa = 0. The dual right-hand side functional is

    m_psi(v) = beta/h (psi, v)_G - (psi, n.grad v)_G.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (
    DEFAULT_EDGE_POINTS,
    DEFAULT_VOLUME_DEGREE,
    P1Space,
    edge_quadrature,
    triangle_quadrature,
)

H_CHOICES = ("facet", "global")


@dataclass(frozen=True)
class NitscheConfig:
    """Finite penalty beta > 0, penalty length scale choice, finite shift kappa >= 0."""

    beta: float = 10.0
    h_choice: str = "facet"
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"penalty beta must be finite and positive, got {self.beta}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"shift kappa must be finite and nonnegative, got {self.kappa}")
        if self.h_choice not in H_CHOICES:
            raise ValueError(f"h_choice must be one of {H_CHOICES}, got {self.h_choice!r}")


@dataclass(frozen=True)
class LinearSystem:
    """Assembled sparse symmetric system with a definiteness tag."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    definiteness: str = "spd"


def _symmetrize(a: sp.csr_matrix) -> sp.csr_matrix:
    # (A + A^T)/2 is bitwise symmetric; assembly is symmetric up to
    # float-summation order only.
    return ((a + a.T) * 0.5).tocsr()


def stiffness_matrix(space: P1Space) -> sp.csr_matrix:
    """Pure grad-grad matrix, no boundary terms."""
    mesh = space.mesh
    local = np.einsum("t,tid,tjd->tij", space.areas, space.gradients, space.gradients)
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return _symmetrize(a.tocsr())


def mass_matrix(space: P1Space) -> sp.csr_matrix:
    """Exact P1 mass matrix (area/12 * [[2,1,1],[1,2,1],[1,1,2]] per element)."""
    mesh = space.mesh
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = space.areas[:, None, None] * ref[None, :, :]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return _symmetrize(a.tocsr())


def load_vector(space: P1Space, f, volume_degree: int = DEFAULT_VOLUME_DEGREE) -> np.ndarray:
    """(f, phi_i) over the domain with the given quadrature degree."""
    mesh = space.mesh
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule)
    fvals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    fvals = np.broadcast_to(fvals, pts.shape[:-1])
    xi = rule.points
    bary = np.column_stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])
    # physical jacobian is 2*area; reference weights already sum to 1/2
    local = 2.0 * space.areas[:, None] * np.einsum("q,tq,qk->tk", rule.weights, fvals, bary)
    b = np.zeros(space.n_dofs)
    np.add.at(b, mesh.triangles.ravel(), local.ravel())
    return b


def boundary_field_values(obj, mesh, t, points):
    """Evaluate boundary data per facet at Gauss parameters t.

    Accepts a callable of (x, y), an object with facet_values(t) (flux
    fields), a per-facet coefficient array, or an already-evaluated
    (n_facets, len(t)) array. Returns (n_facets, len(t)).
    """
    if hasattr(obj, "facet_values"):
        return np.asarray(obj.facet_values(t), dtype=float)
    if callable(obj):
        vals = np.asarray(obj(points[..., 0], points[..., 1]), dtype=float)
        return np.broadcast_to(vals, points.shape[:-1])
    arr = np.asarray(obj, dtype=float)
    if arr.shape == (mesh.n_facets,):
        return np.broadcast_to(arr[:, None], (mesh.n_facets, len(t)))
    if arr.shape == (mesh.n_facets, len(t)):
        return arr
    raise TypeError("boundary data must be callable, a flux field, or per-facet values")


def _facet_tables(space: P1Space, edge_points: int):
    """Per-facet parent dofs, normal derivatives, and trace basis values."""
    mesh = space.mesh
    rule = edge_quadrature(edge_points)
    t, w = rule.points, rule.weights
    parents = mesh.facet_parents
    pdofs = mesh.triangles[parents]
    ndg = np.einsum("fd,fkd->fk", mesh.facet_normals, space.gradients[parents])
    is0 = (pdofs == mesh.facet_vertices[:, [0]]).astype(float)
    is1 = (pdofs == mesh.facet_vertices[:, [1]]).astype(float)
    trace = is0[:, :, None] * (1.0 - t)[None, None, :] + is1[:, :, None] * t[None, None, :]
    points = mesh.facet_points(t)
    return t, w, pdofs, ndg, trace, points


def _penalty_scale(space: P1Space, cfg: NitscheConfig) -> np.ndarray:
    mesh = space.mesh
    if cfg.h_choice == "facet":
        return cfg.beta / mesh.facet_lengths
    return cfg.beta / np.full(mesh.n_facets, mesh.h_grid)


def assemble_nitsche(
    space: P1Space,
    cfg: NitscheConfig,
    f,
    g,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> LinearSystem:
    """Assemble the symmetric Nitsche system for -laplace(u) = f, u = g.

    The matrix is exactly symmetric; with beta large enough it is positive
    definite, and the solver reports "not positive definite" otherwise
    (the penalty-too-small signal).
    """
    mesh = space.mesh
    a = stiffness_matrix(space)
    if cfg.kappa != 0.0:
        a = a + cfg.kappa * mass_matrix(space)
    b = load_vector(space, f, volume_degree)

    t, w, pdofs, ndg, trace, points = _facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = _penalty_scale(space, cfg)

    int_phi = hf[:, None] * np.einsum("q,fkq->fk", w, trace)
    cons = -(ndg[:, None, :] * int_phi[:, :, None]) - (ndg[:, :, None] * int_phi[:, None, :])
    mass_f = (pen * hf)[:, None, None] * np.einsum("q,fiq,fjq->fij", w, trace, trace)
    local = cons + mass_f
    rows = np.repeat(pdofs, 3, axis=1).ravel()
    cols = np.tile(pdofs, (1, 3)).ravel()
    a = a + sp.coo_matrix(
        (local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs)
    ).tocsr()

    gvals = boundary_field_values(g, mesh, t, points)
    int_g = hf * np.einsum("q,fq->f", w, gvals)
    int_g_phi = hf[:, None] * np.einsum("q,fq,fkq->fk", w, gvals, trace)
    local_b = -ndg * int_g[:, None] + pen[:, None] * int_g_phi
    np.add.at(b, pdofs.ravel(), local_b.ravel())

    return LinearSystem(matrix=_symmetrize(a), rhs=b, definiteness="spd")


def assemble_dual_rhs_nitsche(
    space: P1Space,
    cfg: NitscheConfig,
    psi,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> np.ndarray:
    """Vector of m_psi(phi_i) = beta/h (psi, phi_i)_G - (psi, n.grad phi_i)_G.

    Because a_h is symmetric the dual solution comes from the same matrix
    as the primal one.
    """
    mesh = space.mesh
    t, w, pdofs, ndg, trace, points = _facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = _penalty_scale(space, cfg)
    psivals = boundary_field_values(psi, mesh, t, points)
    int_psi = hf * np.einsum("q,fq->f", w, psivals)
    int_psi_phi = hf[:, None] * np.einsum("q,fq,fkq->fk", w, psivals, trace)
    local = pen[:, None] * int_psi_phi - ndg * int_psi[:, None]
    out = np.zeros(space.n_dofs)
    np.add.at(out, pdofs.ravel(), local.ravel())
    return out


def energy_norm(
    v,
    space: P1Space,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Mesh-dependent norm (|grad v|^2 + h |n.grad v|^2_G + 1/h |v|^2_G)^(1/2).

    `v` is either a P1 coefficient vector or a pair (value, gradient) of
    callables; h is the global grid size.
    """
    mesh = space.mesh
    h = mesh.h_grid
    t, w, _, ndg, trace, points = _facet_tables(space, edge_points)
    hf = mesh.facet_lengths

    is_callable_pair = isinstance(v, tuple) and len(v) == 2 and callable(v[0])
    if not is_callable_pair:
        coeffs = np.asarray(v, dtype=float)
        grads = np.einsum("ti,tid->td", coeffs[mesh.triangles], space.gradients)
        vol = float(np.sum(space.areas * np.einsum("td,td->t", grads, grads)))
        nd = np.einsum("fk,fk->f", ndg, coeffs[mesh.triangles[mesh.facet_parents]])
        flux_part = float(np.sum(h * hf * nd * nd))
        tracevals = np.einsum("fkq,fk->fq", trace, coeffs[mesh.triangles[mesh.facet_parents]])
        trace_part = float(np.sum(hf[:, None] * w[None, :] * tracevals**2) / h)
        return float(np.sqrt(vol + flux_part + trace_part))

    value_fn, grad_fn = v
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule)
    gx, gy = grad_fn(pts[..., 0], pts[..., 1])
    vol = float(
        2.0
        * np.sum(
            space.areas[:, None] * rule.weights[None, :] * (np.asarray(gx) ** 2 + np.asarray(gy) ** 2)
        )
    )
    gxb, gyb = grad_fn(points[..., 0], points[..., 1])
    nd = mesh.facet_normals[:, None, 0] * np.asarray(gxb) + mesh.facet_normals[:, None, 1] * np.asarray(gyb)
    vals = np.asarray(value_fn(points[..., 0], points[..., 1]), dtype=float)
    flux_part = float(np.sum(hf[:, None] * w[None, :] * nd**2) * h)
    trace_part = float(np.sum(hf[:, None] * w[None, :] * vals**2) / h)
    return float(np.sqrt(vol + flux_part + trace_part))


def apply_nitsche_form(
    space: P1Space,
    cfg: NitscheConfig,
    w_value,
    w_grad,
    phi_coeffs,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """a_h(w, phi_h) for a general function w given by closed-form callables.

    Used by the error-representation check where w = u - pi_h u is not a
    finite element function. Volume terms use triangle quadrature; the
    gradient of phi_h is constant per element.
    """
    mesh = space.mesh
    phi = np.asarray(phi_coeffs, dtype=float)
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule)
    gx, gy = w_grad(pts[..., 0], pts[..., 1])
    phigrad = np.einsum("ti,tid->td", phi[mesh.triangles], space.gradients)
    integrand = np.asarray(gx) * phigrad[:, None, 0] + np.asarray(gy) * phigrad[:, None, 1]
    total = 2.0 * float(np.sum(space.areas[:, None] * rule.weights[None, :] * integrand))
    if cfg.kappa != 0.0:
        wv = np.asarray(w_value(pts[..., 0], pts[..., 1]), dtype=float)
        xi = rule.points
        bary = np.column_stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])
        phivals = np.einsum("qk,tk->tq", bary, phi[mesh.triangles])
        total += cfg.kappa * 2.0 * float(
            np.sum(space.areas[:, None] * rule.weights[None, :] * wv * phivals)
        )

    t, w, pdofs, ndg, trace, points = _facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = _penalty_scale(space, cfg)
    pc = phi[pdofs]
    phi_trace = np.einsum("fkq,fk->fq", trace, pc)
    phi_nd = np.einsum("fk,fk->f", ndg, pc)
    wvals = np.asarray(w_value(points[..., 0], points[..., 1]), dtype=float)
    gxb, gyb = w_grad(points[..., 0], points[..., 1])
    w_nd = mesh.facet_normals[:, None, 0] * np.asarray(gxb) + mesh.facet_normals[:, None, 1] * np.asarray(gyb)

    total -= float(np.sum(hf[:, None] * w[None, :] * w_nd * phi_trace))
    total -= float(np.sum(hf * phi_nd * np.einsum("q,fq->f", w, wvals)))
    total += float(np.sum((pen * hf)[:, None] * w[None, :] * wvals * phi_trace))
    return total


def apply_dual_functional(
    space: P1Space,
    cfg: NitscheConfig,
    psi,
    w_value,
    w_grad,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """m_psi(w) = beta/h (psi, w)_G - (psi, n.grad w)_G for closed-form w."""
    mesh = space.mesh
    t, w, _, _, _, points = _facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = _penalty_scale(space, cfg)
    psivals = boundary_field_values(psi, mesh, t, points)
    wvals = np.asarray(w_value(points[..., 0], points[..., 1]), dtype=float)
    gxb, gyb = w_grad(points[..., 0], points[..., 1])
    w_nd = mesh.facet_normals[:, None, 0] * np.asarray(gxb) + mesh.facet_normals[:, None, 1] * np.asarray(gyb)
    total = float(np.sum((pen * hf)[:, None] * w[None, :] * psivals * wvals))
    total -= float(np.sum(hf[:, None] * w[None, :] * psivals * w_nd))
    return total
