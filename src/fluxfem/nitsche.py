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
l_h is m_g, the dual data of psi = g. Only the Nitsche config lives here:
it adds its facet terms to `fem.volume_matrix` and builds the dual data;
`fem.assemble` and `fem.LinearSystem` serve both methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import P1Space, boundary_field_values, coefficient_vector, local_to_global, volume_matrix


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

    def matrix(self, space: P1Space) -> sp.csr_matrix:
        """The matrix of a_h; it depends on neither f, g nor the volume degree.

        The matrix is exactly symmetric; with beta large enough it is positive
        definite, and the solver reports "not positive definite" otherwise
        (the penalty-too-small signal).
        """
        a = volume_matrix(space, self.kappa)
        _, w, _, pdofs, ndg, trace, _ = space.facets
        hf = space.mesh.facet_lengths
        pen = self.beta / hf
        int_phi = hf[:, None] * np.einsum("q,fkq->fk", w, trace)
        cons = -(ndg[:, None, :] * int_phi[:, :, None]) - (ndg[:, :, None] * int_phi[:, None, :])
        mass_f = (pen * hf)[:, None, None] * np.einsum("q,fiq,fjq->fij", w, trace, trace)
        return a + local_to_global(space.n_dofs, (pdofs, pdofs, cons + mass_f))

    def dual_data(self, space: P1Space, psi, load=None) -> np.ndarray:
        """m_psi(phi_i) = beta/h (psi, phi_i)_G - (psi, n.grad phi_i)_G, added
        into a copy of the vector `load` (zero if None).

        Because a_h is symmetric the dual solution comes from the same matrix
        as the primal one.
        """
        out = np.zeros(space.n_dofs) if load is None else coefficient_vector(load, space.n_dofs).copy()
        _, w, _, pdofs, ndg, trace, _ = space.facets
        hf = space.mesh.facet_lengths
        pen = self.beta / hf
        psivals = boundary_field_values(psi, space)
        int_psi = hf * np.einsum("q,fq->f", w, psivals)
        int_psi_phi = hf[:, None] * np.einsum("q,fq,fkq->fk", w, psivals, trace)
        local = pen[:, None] * int_psi_phi - ndg * int_psi[:, None]
        np.add.at(out, pdofs.ravel(), local.ravel())
        return out
