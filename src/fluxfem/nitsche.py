"""Symmetric Nitsche assembly for the Poisson problem.

The bilinear form is

    a_h(u, v) = (grad u, grad v) - (n.grad u, v)_G - (u, n.grad v)_G
                + beta/h (u, v)_G + kappa (u, v)

with G the boundary, plus the matching right-hand side

    l_h(v) = (f, v) - (g, n.grad v)_G + beta/h (g, v)_G.

The kappa mass shift only serves the shifted dual problems; primal solves
use kappa = 0. The dual right-hand side functional is

    m_psi(v) = beta/h (psi, v)_G - (psi, n.grad v)_G.

Here h is the length h_F of each boundary facet. The boundary part of
l_h is m_g, the dual data of psi = g. Only the Nitsche forms live here;
their P1 operators, facet table and form kernels are in `fem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (
    VOLUME_DEGREE,
    P1Space,
    SampledField,
    boundary_field_values,
    edge_quadrature,
    load_vector,
    local_to_global,
    mass_matrix,
    stiffness_matrix,
    symmetrize,
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
    """Assembled sparse symmetric system."""

    matrix: sp.csr_matrix
    rhs: np.ndarray


def assemble_nitsche(
    space: P1Space, cfg: NitscheConfig, f, g, volume_degree: int = VOLUME_DEGREE
) -> LinearSystem:
    """Assemble the symmetric Nitsche system for -laplace(u) = f, u = g.

    The matrix is exactly symmetric; with beta large enough it is positive
    definite, and the solver reports "not positive definite" otherwise
    (the penalty-too-small signal).
    """
    a = stiffness_matrix(space)
    if cfg.kappa != 0.0:
        a = a + cfg.kappa * mass_matrix(space)

    _, w, pdofs, ndg, trace, _ = space.facets
    hf = space.mesh.facet_lengths
    pen = cfg.beta / hf
    int_phi = hf[:, None] * np.einsum("q,fkq->fk", w, trace)
    cons = -(ndg[:, None, :] * int_phi[:, :, None]) - (ndg[:, :, None] * int_phi[:, None, :])
    mass_f = (pen * hf)[:, None, None] * np.einsum("q,fiq,fjq->fij", w, trace, trace)
    a = a + local_to_global(pdofs, cons + mass_f, space.n_dofs)

    b = _add_dual_data(load_vector(space, f, volume_degree), space, cfg, g)
    return LinearSystem(matrix=symmetrize(a), rhs=b)


def assemble_dual_rhs_nitsche(space: P1Space, cfg: NitscheConfig, psi) -> np.ndarray:
    """Vector of m_psi(phi_i) = beta/h (psi, phi_i)_G - (psi, n.grad phi_i)_G.

    Because a_h is symmetric the dual solution comes from the same matrix
    as the primal one.
    """
    return _add_dual_data(np.zeros(space.n_dofs), space, cfg, psi)


def _add_dual_data(out, space: P1Space, cfg: NitscheConfig, psi) -> np.ndarray:
    """Add m_psi(phi_i) into out[i] and return out."""
    mesh = space.mesh
    t, w, pdofs, ndg, trace, points = space.facets
    hf = mesh.facet_lengths
    pen = cfg.beta / hf
    psivals = boundary_field_values(psi, mesh, t, points)
    int_psi = hf * np.einsum("q,fq->f", w, psivals)
    int_psi_phi = hf[:, None] * np.einsum("q,fq,fkq->fk", w, psivals, trace)
    local = pen[:, None] * int_psi_phi - ndg * int_psi[:, None]
    np.add.at(out, pdofs.ravel(), local.ravel())
    return out


def apply_nitsche_form(space: P1Space, cfg: NitscheConfig, w: SampledField, phi_coeffs) -> float:
    """a_h(w, phi_h) at kappa = 0 for a general function w sampled as a `SampledField`.

    Used by the error-representation check where w = u - pi_h u is not a
    finite element function.
    """
    phi = np.asarray(phi_coeffs, dtype=float)
    total = volume_form(space, w, phi)

    _, wq, pdofs, ndg, trace, _ = space.facets
    hf = space.mesh.facet_lengths
    pen = cfg.beta / hf
    pc = phi[pdofs]
    phi_trace = np.einsum("fkq,fk->fq", trace, pc)
    phi_nd = np.einsum("fk,fk->f", ndg, pc)

    total -= float(np.sum(hf[:, None] * wq[None, :] * w.normal_derivative * phi_trace))
    total -= float(np.sum(hf * phi_nd * np.einsum("q,fq->f", wq, w.value)))
    total += float(np.sum((pen * hf)[:, None] * wq[None, :] * w.value * phi_trace))
    return total


def apply_dual_functional(space: P1Space, cfg: NitscheConfig, psivals, w: SampledField) -> float:
    """m_psi(w) = beta/h (psi, w)_G - (psi, n.grad w)_G for a sampled w.

    `psivals` holds psi at the facet points, (n_facets, EDGE_POINTS).
    """
    hf = space.mesh.facet_lengths
    pen = cfg.beta / hf
    wq = edge_quadrature().weights
    total = float(np.sum((pen * hf)[:, None] * wq[None, :] * psivals * w.value))
    total -= float(np.sum(hf[:, None] * wq[None, :] * psivals * w.normal_derivative))
    return total
