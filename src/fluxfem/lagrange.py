"""Stabilized Lagrange-multiplier saddle system with facet-constant multipliers.

The discrete problem couples continuous P1 with one constant per boundary
facet and reads

    a(u, v) + (lambda, v)_G + (mu, u)_G - c(u, lambda; v, mu) [+ kappa (u, v)]
        = (f, v) + (g, mu)_G

with the residual stabilization

    c(u, lambda; v, mu) = alpha h (lambda + n.grad u, mu + n.grad v)_G,

which vanishes on the exact pair since lambda = -n.grad u. Unknowns are
ordered [u; lambda] with multiplier dofs following the facet order.

Only the multiplier forms live here; their P1 operators, facet tables
and form kernels are in `fem`.
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
    TraceDG0Space,
    boundary_field_values,
    facet_tables,
    load_vector,
    mass_matrix,
    normal_derivative,
    stiffness_matrix,
    symmetrize,
    volume_form,
)


@dataclass(frozen=True)
class SaddleConfig:
    """Finite stabilization alpha > 0 and optional finite mass shift kappa >= 0."""

    alpha: float = 0.25
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.alpha < math.inf:
            raise ValueError(f"stabilization alpha must be finite and positive, got {self.alpha}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"shift kappa must be finite and nonnegative, got {self.kappa}")


@dataclass(frozen=True)
class SaddleSystem:
    """Symmetric indefinite system over (primal, multiplier) unknowns."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_primal: int
    n_multiplier: int

    def split(self, x):
        x = np.asarray(x)
        return x[: self.n_primal], x[self.n_primal :]


def assemble_saddle(
    space: P1Space,
    trace_space: TraceDG0Space,
    cfg: SaddleConfig,
    f,
    g,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> SaddleSystem:
    """Assemble the stabilized saddle system; dimension n_vertices + n_facets."""
    mesh = space.mesh
    if trace_space.mesh is not mesh:
        raise ValueError("primal and multiplier spaces must share one mesh")
    nu, nl = space.n_dofs, trace_space.n_dofs
    dim = nu + nl

    _, w, pdofs, ndg, trace, _ = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    ah = cfg.alpha * hf
    int_phi = hf[:, None] * np.einsum("q,fkq->fk", w, trace)

    rows, cols, data = [], [], []

    a_uu = stiffness_matrix(space)
    if cfg.kappa != 0.0:
        a_uu = a_uu + cfg.kappa * mass_matrix(space)
    coo = a_uu.tocoo()
    rows.append(coo.row)
    cols.append(coo.col)
    data.append(coo.data)

    # -alpha h (n.grad u, n.grad v)_F : 3x3 block on the parent dofs
    local_uu = -(ah * hf)[:, None, None] * ndg[:, :, None] * ndg[:, None, :]
    rows.append(np.repeat(pdofs, 3, axis=1).ravel())
    cols.append(np.tile(pdofs, (1, 3)).ravel())
    data.append(local_uu.ravel())

    # (lambda, v)_F - alpha h (lambda, n.grad v)_F and its transpose
    mdofs = nu + np.arange(nl)
    local_ul = int_phi - (ah * hf)[:, None] * ndg
    rows.append(pdofs.ravel())
    cols.append(np.repeat(mdofs, 3))
    data.append(local_ul.ravel())
    rows.append(np.repeat(mdofs, 3))
    cols.append(pdofs.ravel())
    data.append(local_ul.ravel())

    # -alpha h (lambda, mu)_F : diagonal
    rows.append(mdofs)
    cols.append(mdofs)
    data.append(-ah * hf)

    matrix = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim),
    ).tocsr()

    # the multiplier rows carry (g, mu)_G, the dual data of psi = g
    rhs = assemble_dual_rhs_lm(space, trace_space, g, edge_points)
    rhs[:nu] = load_vector(space, f, volume_degree)

    return SaddleSystem(matrix=symmetrize(matrix), rhs=rhs, n_primal=nu, n_multiplier=nl)


def assemble_dual_rhs_lm(
    space: P1Space,
    trace_space: TraceDG0Space,
    psi,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> np.ndarray:
    """Dual data (psi, mu)_G: zero on primal dofs, facet integrals of psi."""
    mesh = space.mesh
    t, w, _, _, _, points = facet_tables(space, edge_points)
    psivals = boundary_field_values(psi, mesh, t, points)
    out = np.zeros(space.n_dofs + trace_space.n_dofs)
    out[space.n_dofs :] = mesh.facet_lengths * np.einsum("q,fq->f", w, psivals)
    return out


def triple_norm_pair(
    u_coeffs,
    lam_coeffs,
    space: P1Space,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """Natural norm (|grad u|^2 + |h^-1/2 u|^2_G + |h^1/2 lambda|^2_G)^(1/2)."""
    mesh = space.mesh
    u = np.asarray(u_coeffs, dtype=float)
    lam = np.asarray(lam_coeffs, dtype=float)
    grads = np.einsum("ti,tid->td", u[mesh.triangles], space.gradients)
    vol = float(np.sum(space.areas * np.einsum("td,td->t", grads, grads)))
    t, w, pdofs, _, trace, _ = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    uvals = np.einsum("fkq,fk->fq", trace, u[pdofs])
    # 1/h_F cancels the facet jacobian h_F in the weighted trace term
    u_part = float(np.sum(w[None, :] * uvals**2))
    lam_part = float(np.sum(hf * hf * lam**2))
    return float(np.sqrt(vol + u_part + lam_part))


def apply_saddle_form(
    space: P1Space,
    trace_space: TraceDG0Space,
    cfg: SaddleConfig,
    w_value,
    w_grad,
    mu,
    phi_coeffs,
    theta_coeffs,
    volume_degree: int = DEFAULT_VOLUME_DEGREE,
    edge_points: int = DEFAULT_EDGE_POINTS,
) -> float:
    """A_h(w, mu; phi_h, theta_h) with a general first pair.

    w is given by closed-form (value, gradient) callables and mu by any
    boundary-data object (callable, field, per-facet values, or a
    precomputed (n_facets, n_q) array); the second pair is discrete.
    Mirrors the assembled operator, including the kappa shift if set.
    """
    mesh = space.mesh
    phi = np.asarray(phi_coeffs, dtype=float)
    theta = np.asarray(theta_coeffs, dtype=float)

    total = volume_form(space, cfg.kappa, w_value, w_grad, phi, volume_degree)

    t, w, pdofs, ndg, trace, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    ah = cfg.alpha * hf
    pc = phi[pdofs]
    phi_trace = np.einsum("fkq,fk->fq", trace, pc)
    phi_nd = np.einsum("fk,fk->f", ndg, pc)

    wvals = np.asarray(w_value(points[..., 0], points[..., 1]), dtype=float)
    w_nd = normal_derivative(mesh, w_grad, points)
    muvals = boundary_field_values(mu, mesh, t, points)

    # b(mu, phi) + b(theta, w)
    total += float(np.sum(hf[:, None] * w[None, :] * muvals * phi_trace))
    total += float(np.sum(hf * theta * np.einsum("q,fq->f", w, wvals)))
    # -alpha h (mu + n.grad w, theta + n.grad phi)_F
    left = muvals + w_nd
    right = theta[:, None] + phi_nd[:, None]
    total -= float(np.sum((ah * hf)[:, None] * w[None, :] * left * right))
    return total
