"""Stabilized Lagrange-multiplier saddle system with facet-constant multipliers.

The discrete problem couples continuous P1 with one constant per boundary
facet and reads

    a(u, v) + (lambda, v)_G + (mu, u)_G - c(u, lambda; v, mu) [+ kappa (u, v)]
        = (f, v) + (g, mu)_G

with the residual stabilization

    c(u, lambda; v, mu) = alpha h (lambda + n.grad u, mu + n.grad v)_G,

which vanishes on the exact pair since lambda = -n.grad u. Unknowns are
ordered [u; lambda] with multiplier dofs following the facet order.

Only the multiplier forms live here; their P1 operators, facet table
and form kernels are in `fem`.
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
    load_vector,
    mass_matrix,
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
    space: P1Space, cfg: SaddleConfig, f, g, volume_degree: int = VOLUME_DEGREE
) -> SaddleSystem:
    """Assemble the stabilized saddle system; dimension n_vertices + n_facets."""
    mesh = space.mesh
    nu, nl = space.n_dofs, mesh.n_facets
    dim = nu + nl

    _, w, pdofs, ndg, trace, _ = space.facets
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
    rhs = assemble_dual_rhs_lm(space, g)
    rhs[:nu] = load_vector(space, f, volume_degree)

    return SaddleSystem(matrix=symmetrize(matrix), rhs=rhs, n_primal=nu, n_multiplier=nl)


def assemble_dual_rhs_lm(space: P1Space, psi) -> np.ndarray:
    """Dual data (psi, mu)_G: zero on primal dofs, facet integrals of psi."""
    mesh = space.mesh
    t, w, _, _, _, points = space.facets
    psivals = boundary_field_values(psi, mesh, t, points)
    out = np.zeros(space.n_dofs + mesh.n_facets)
    out[space.n_dofs :] = mesh.facet_lengths * np.einsum("q,fq->f", w, psivals)
    return out


def apply_saddle_form(
    space: P1Space, cfg: SaddleConfig, w: SampledField, muvals, phi_coeffs, theta_coeffs
) -> float:
    """A_h(w, mu; phi_h, theta_h) at kappa = 0 with a general first pair.

    w is sampled as a `SampledField` and mu is given by its values at the
    facet points, (n_facets, EDGE_POINTS); the second pair is discrete.
    """
    phi = np.asarray(phi_coeffs, dtype=float)
    theta = np.asarray(theta_coeffs, dtype=float)

    total = volume_form(space, w, phi)

    _, wq, pdofs, ndg, trace, _ = space.facets
    hf = space.mesh.facet_lengths
    ah = cfg.alpha * hf
    pc = phi[pdofs]
    phi_trace = np.einsum("fkq,fk->fq", trace, pc)
    phi_nd = np.einsum("fk,fk->f", ndg, pc)

    # b(mu, phi) + b(theta, w)
    total += float(np.sum(hf[:, None] * wq[None, :] * muvals * phi_trace))
    total += float(np.sum(hf * theta * np.einsum("q,fq->f", wq, w.value)))
    # -alpha h (mu + n.grad w, theta + n.grad phi)_F
    left = muvals + w.normal_derivative
    right = theta[:, None] + phi_nd[:, None]
    total -= float(np.sum((ah * hf)[:, None] * wq[None, :] * left * right))
    return total
