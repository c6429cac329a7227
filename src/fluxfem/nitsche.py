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
l_h is m_g, the dual data of psi = g. Only the Nitsche config, system,
matrix, assembly and dual data live here; the shared P1 operators and
facet table are in `fem`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import (
    VOLUME_DEGREE,
    P1Space,
    boundary_field_values,
    load_vector,
    local_to_global,
    mass_matrix,
    stiffness_matrix,
    symmetrize,
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


def nitsche_matrix(space: P1Space, cfg: NitscheConfig) -> sp.csr_matrix:
    """The matrix of a_h; it depends on neither f, g nor the volume degree.

    The matrix is exactly symmetric; with beta large enough it is positive
    definite, and the solver reports "not positive definite" otherwise
    (the penalty-too-small signal).
    """
    a = stiffness_matrix(space)
    if cfg.kappa != 0.0:
        a = a + cfg.kappa * mass_matrix(space)

    _, w, _, pdofs, ndg, trace, _ = space.facets
    hf = space.mesh.facet_lengths
    pen = cfg.beta / hf
    int_phi = hf[:, None] * np.einsum("q,fkq->fk", w, trace)
    cons = -(ndg[:, None, :] * int_phi[:, :, None]) - (ndg[:, :, None] * int_phi[:, None, :])
    mass_f = (pen * hf)[:, None, None] * np.einsum("q,fiq,fjq->fij", w, trace, trace)
    a = a + local_to_global(pdofs, cons + mass_f, space.n_dofs)
    return symmetrize(a)


def assemble_nitsche(
    space: P1Space, cfg: NitscheConfig, f, g, volume_degree: int = VOLUME_DEGREE
) -> LinearSystem:
    """Assemble the symmetric Nitsche system for -laplace(u) = f, u = g."""
    matrix = nitsche_matrix(space, cfg)
    b = _add_dual_data(load_vector(space, f, volume_degree), space, cfg, g)
    return LinearSystem(matrix=matrix, rhs=b)


def assemble_dual_rhs_nitsche(space: P1Space, cfg: NitscheConfig, psi) -> np.ndarray:
    """Vector of m_psi(phi_i) = beta/h (psi, phi_i)_G - (psi, n.grad phi_i)_G.

    Because a_h is symmetric the dual solution comes from the same matrix
    as the primal one.
    """
    return _add_dual_data(np.zeros(space.n_dofs), space, cfg, psi)


def _add_dual_data(out, space: P1Space, cfg: NitscheConfig, psi) -> np.ndarray:
    """Add m_psi(phi_i) into out[i] and return out."""
    _, w, _, pdofs, ndg, trace, _ = space.facets
    hf = space.mesh.facet_lengths
    pen = cfg.beta / hf
    psivals = boundary_field_values(psi, space)
    int_psi = hf * np.einsum("q,fq->f", w, psivals)
    int_psi_phi = hf[:, None] * np.einsum("q,fq,fkq->fk", w, psivals, trace)
    local = pen[:, None] * int_psi_phi - ndg * int_psi[:, None]
    np.add.at(out, pdofs.ravel(), local.ravel())
    return out

