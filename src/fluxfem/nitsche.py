"""Symmetric Nitsche assembly for the Poisson problem.

The bilinear form is

    a_h(u, v) = (grad u, grad v) - (n.grad u, v)_G - (u, n.grad v)_G
                + beta/h (u, v)_G + kappa (u, v)

with G the boundary, plus the matching right-hand side

    l_h(v) = (f, v) - (g, n.grad v)_G + beta/h (g, v)_G.

The kappa mass shift only serves the shifted dual problems; primal solves
use kappa = 0. The dual right-hand side functional is

    m_psi(v) = beta/h (psi, v)_G - (psi, n.grad v)_G.

Here h is the length h_F of each boundary facet. Only the Nitsche forms
live here; their P1 operators, facet tables and form kernels are in `fem`.
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
    boundary_field_values,
    facet_tables,
    load_vector,
    mass_matrix,
    normal_derivative,
    stiffness_matrix,
    symmetrize,
    triangle_quadrature,
    volume_form,
)


@dataclass(frozen=True)
class NitscheConfig:
    """Finite penalty beta > 0, applied as beta/h_F on each facet F, and finite shift kappa >= 0."""

    beta: float = 10.0
    kappa: float = 0.0

    def __post_init__(self):
        if not 0.0 < self.beta < math.inf:
            raise ValueError(f"penalty beta must be finite and positive, got {self.beta}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"shift kappa must be finite and nonnegative, got {self.kappa}")


@dataclass(frozen=True)
class LinearSystem:
    """Assembled sparse symmetric system with a definiteness tag."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    definiteness: str = "spd"


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

    t, w, pdofs, ndg, trace, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = cfg.beta / hf

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

    return LinearSystem(matrix=symmetrize(a), rhs=b, definiteness="spd")


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
    t, w, pdofs, ndg, trace, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = cfg.beta / hf
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
    t, w, pdofs, ndg, trace, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths

    is_callable_pair = isinstance(v, tuple) and len(v) == 2 and callable(v[0])
    if not is_callable_pair:
        coeffs = np.asarray(v, dtype=float)
        grads = np.einsum("ti,tid->td", coeffs[mesh.triangles], space.gradients)
        vol = float(np.sum(space.areas * np.einsum("td,td->t", grads, grads)))
        nd = np.einsum("fk,fk->f", ndg, coeffs[pdofs])
        flux_part = float(np.sum(h * hf * nd * nd))
        tracevals = np.einsum("fkq,fk->fq", trace, coeffs[pdofs])
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
    nd = normal_derivative(mesh, grad_fn, points)
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
    finite element function. Volume terms use triangle quadrature.
    """
    mesh = space.mesh
    phi = np.asarray(phi_coeffs, dtype=float)
    total = volume_form(space, cfg.kappa, w_value, w_grad, phi, volume_degree)

    t, w, pdofs, ndg, trace, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = cfg.beta / hf
    pc = phi[pdofs]
    phi_trace = np.einsum("fkq,fk->fq", trace, pc)
    phi_nd = np.einsum("fk,fk->f", ndg, pc)
    wvals = np.asarray(w_value(points[..., 0], points[..., 1]), dtype=float)
    w_nd = normal_derivative(mesh, w_grad, points)

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
    t, w, _, _, _, points = facet_tables(space, edge_points)
    hf = mesh.facet_lengths
    pen = cfg.beta / hf
    psivals = boundary_field_values(psi, mesh, t, points)
    wvals = np.asarray(w_value(points[..., 0], points[..., 1]), dtype=float)
    w_nd = normal_derivative(mesh, w_grad, points)
    total = float(np.sum((pen * hf)[:, None] * w[None, :] * psivals * wvals))
    total -= float(np.sum(hf[:, None] * w[None, :] * psivals * w_nd))
    return total
