"""Stabilized Lagrange-multiplier saddle system with facet-constant multipliers.

The discrete problem couples continuous P1 with one constant per boundary
facet and reads

    a(u, v) + (lambda, v)_G + (mu, u)_G - c(u, lambda; v, mu) [+ kappa (u, v)]
        = (f, v) + (g, mu)_G

with the residual stabilization

    c(u, lambda; v, mu) = alpha h (lambda + n.grad u, mu + n.grad v)_G,

which vanishes on the exact pair since lambda = -n.grad u. Unknowns are
ordered [u; lambda] with multiplier dofs following the facet order.

Only the multiplier config, system, matrix, assembly and dual data live
here; the shared P1 operators and facet table are in `fem`.
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
    mass_matrix,
    stiffness_matrix,
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


def saddle_matrix(space: P1Space, cfg: SaddleConfig) -> sp.csr_matrix:
    """The saddle matrix over [u; lambda], dimension n_vertices + n_facets.

    It depends on neither f, g nor the volume degree. Every block goes
    into one COO scatter with int32 indices, whose zero sums are dropped
    as in `fem.local_to_global`.
    """
    mesh = space.mesh
    nu, nl = space.n_dofs, mesh.n_facets
    dim = nu + nl

    _, w, _, pdofs, ndg, trace, _ = space.facets
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
    mdofs = nu + np.arange(nl, dtype=np.int32)
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
    matrix.eliminate_zeros()
    return matrix


def assemble_saddle(
    space: P1Space, cfg: SaddleConfig, f, g, volume_degree: int = VOLUME_DEGREE
) -> SaddleSystem:
    """Assemble the stabilized saddle system for -laplace(u) = f, u = g."""
    matrix = saddle_matrix(space, cfg)
    # the multiplier rows carry (g, mu)_G, the dual data of psi = g
    rhs = assemble_dual_rhs_lm(space, g)
    rhs[: space.n_dofs] = load_vector(space, f, volume_degree)
    return SaddleSystem(
        matrix=matrix, rhs=rhs, n_primal=space.n_dofs, n_multiplier=space.mesh.n_facets
    )


def assemble_dual_rhs_lm(space: P1Space, psi) -> np.ndarray:
    """Dual data (psi, mu)_G: zero on primal dofs, facet integrals of psi."""
    mesh = space.mesh
    psivals = boundary_field_values(psi, space)
    out = np.zeros(space.n_dofs + mesh.n_facets)
    out[space.n_dofs :] = mesh.facet_lengths * np.einsum("q,fq->f", space.facets.w, psivals)
    return out

