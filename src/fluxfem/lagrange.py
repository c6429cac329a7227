"""Stabilized Lagrange-multiplier saddle system with facet-constant multipliers.

The discrete problem couples continuous P1 with one constant per boundary
facet and reads

    a(u, v) + (lambda, v)_G + (mu, u)_G - c(u, lambda; v, mu) [+ kappa (u, v)]
        = (f, v) + (g, mu)_G

with the residual stabilization

    c(u, lambda; v, mu) = alpha h (lambda + n.grad u, mu + n.grad v)_G,

which vanishes on the exact pair since lambda = -n.grad u. Unknowns are
ordered [u; lambda] with multiplier dofs following the facet order.

The right-hand side of the primal problem is the dual data of psi = g
over the load vector. Only the multiplier config lives here: it scatters
the facet blocks together with `fem.volume_matrix` through
`fem.local_to_global`, and builds the dual data; `fem.assemble` and
`fem.LinearSystem` serve both methods.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fem import P1Space, boundary_field_values, coefficient_vector, local_to_global, volume_matrix


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

    def matrix(self, space: P1Space) -> sp.csr_matrix:
        """The saddle matrix over [u; lambda], dimension n_vertices + n_facets.

        It depends on neither f, g nor the volume degree. The volume
        matrix's entries and then the four facet blocks go through
        `fem.local_to_global` as one scatter, in this order; a coarser
        layout, such as one 4x4 block per facet, sums duplicates in
        another order and changes the last bits.
        """
        mesh = space.mesh
        nu, nl = space.n_dofs, mesh.n_facets
        volume = volume_matrix(space, self.kappa).tocoo()

        _, w, _, pdofs, ndg, trace, _ = space.facets
        hf = mesh.facet_lengths
        ah = self.alpha * hf
        int_phi = hf[:, None] * np.einsum("q,fkq->fk", w, trace)
        mdofs = nu + np.arange(nl, dtype=np.int32)[:, None]
        local_ul = int_phi - (ah * hf)[:, None] * ndg
        return local_to_global(
            nu + nl,
            (volume.row[:, None], volume.col[:, None], volume.data[:, None, None]),
            # -alpha h (n.grad u, n.grad v)_F : 3x3 block on the parent dofs
            (pdofs, pdofs, -(ah * hf)[:, None, None] * ndg[:, :, None] * ndg[:, None, :]),
            # (lambda, v)_F - alpha h (lambda, n.grad v)_F and its transpose
            (pdofs, mdofs, local_ul[:, :, None]),
            (mdofs, pdofs, local_ul[:, None, :]),
            # -alpha h (lambda, mu)_F : diagonal
            (mdofs, mdofs, (-ah * hf)[:, None, None]),
        )

    def dual_data(self, space: P1Space, psi, load=None) -> np.ndarray:
        """Over [u; lambda]: the vector `load` (zero if None) on the primal
        dofs and the facet integrals (psi, mu)_G on the multiplier dofs.
        alpha does not enter."""
        mesh = space.mesh
        psivals = boundary_field_values(psi, space)
        out = np.zeros(space.n_dofs + mesh.n_facets)
        if load is not None:
            out[: space.n_dofs] = coefficient_vector(load, space.n_dofs)
        out[space.n_dofs :] = mesh.facet_lengths * np.einsum("q,fq->f", space.facets.w, psivals)
        return out
