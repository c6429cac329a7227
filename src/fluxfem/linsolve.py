"""Direct sparse solves with residual certification and pivot inertia.

SuperLU orders each system by minimum degree on A^T + A (fill-reducing)
and factors with diagonal pivots (threshold 0, symmetric mode). Only a
factorization with perm_r == perm_c is accepted: a symmetric permutation
with diagonal pivots, so the U diagonal holds the pivots of a symmetric
elimination. By Sylvester's law their signs give the inertia, which doubles
as the positive definiteness check for Nitsche systems and the
saddle-structure check for the multiplier systems.

If the elimination breaks down, or a pivot vanishes relative to the
largest (which cancellation under the chosen order can cause), indefinite
systems up to DENSE_FALLBACK_MAX_DIM go to a dense Bunch-Kaufman LDL^T that
decides singularity; SPD and larger systems fail outright.

A right-hand side of shape (n, k) is factored once; each column is then
solved, refined and certified on its own, and the reported residual is the
largest column residual.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

SPD_RESIDUAL_TOL = 1e-10
INDEFINITE_RESIDUAL_TOL = 1e-9
ZERO_PIVOT_REL_TOL = 1e-12
# Bunch-Kaufman fallback (dense) kicks in only when the symmetric elimination
# breaks down or shows a vanishing pivot; cap its dimension (seconds of work).
DENSE_FALLBACK_MAX_DIM = 6000


class SolverError(Exception):
    """Factorization or residual certification failed."""


class NotPositiveDefiniteError(SolverError):
    """A nonpositive pivot appeared where an SPD matrix was required."""


class SingularSystemError(SolverError):
    """A pivot vanished beyond tolerance."""


@dataclass(frozen=True)
class SolveResult:
    """Solution (shaped like the rhs), largest certified relative residual, inertia."""

    x: np.ndarray
    residual: float
    inertia: tuple[int, int, int]


def _pivot_factorization(matrix: sp.csc_matrix):
    """Minimum-degree LU with diagonal pivots, or None on breakdown.

    A zero pivot makes SuperLU either leave the diagonal (perm_r differs
    from perm_c) or give up; both mean the symmetric elimination broke
    down, not that the matrix is singular. A failed SuperLU allocation
    raises MemoryError.
    """
    try:
        lu = spla.splu(
            matrix,
            permc_spec="MMD_AT_PLUS_A",
            diag_pivot_thresh=0.0,
            options={"SymmetricMode": True},
        )
    except RuntimeError as exc:
        if "SUPERLU_MALLOC" in str(exc):  # a failed allocation, not a breakdown
            raise MemoryError(str(exc).strip()) from exc
        return None
    if not np.array_equal(lu.perm_r, lu.perm_c):
        return None
    return lu


def _dense_inertia(matrix: sp.csr_matrix) -> tuple[int, int, int]:
    """Inertia via Bunch-Kaufman LDL^T; D is (block) tridiagonal."""
    import scipy.linalg as sla

    n = matrix.shape[0]
    if n > DENSE_FALLBACK_MAX_DIM:
        raise SolverError(
            f"inertia fallback limited to dimension {DENSE_FALLBACK_MAX_DIM}, got {n}"
        )
    _, d, _ = sla.ldl(matrix.toarray())
    eigs = sla.eigvalsh_tridiagonal(np.diag(d), np.diag(d, k=-1))
    scale = np.max(np.abs(eigs)) if n else 0.0
    n_zero = int(np.sum(np.abs(eigs) <= ZERO_PIVOT_REL_TOL * scale))
    if n_zero:
        raise SingularSystemError(f"{n_zero} vanishing pivots")
    return int(np.sum(eigs > 0.0)), int(np.sum(eigs < 0.0)), 0


def _solve_symmetric(matrix, rhs, tol, require_spd):
    """Factor once, then solve and certify each column of an (n,) or (n, k) rhs."""
    matrix = matrix.tocsr()
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.shape[0]
    lu = _pivot_factorization(matrix.tocsc())

    if lu is not None:
        pivots = lu.U.diagonal()
        n_zero = int(np.sum(np.abs(pivots) <= ZERO_PIVOT_REL_TOL * np.max(np.abs(pivots))))
        if n_zero and (require_spd or n > DENSE_FALLBACK_MAX_DIM):
            raise SingularSystemError(f"{n_zero} vanishing pivots")
        if n_zero:
            lu = None  # cancellation or singularity: Bunch-Kaufman decides
        else:
            inertia = (int(np.sum(pivots > 0.0)), int(np.sum(pivots < 0.0)), 0)
            solve = lu.solve
    if lu is None:
        # Breakdown on an exactly zero pivot, or (indefinite only) a vanishing
        # one. SPD matrices never break down, so for them this is the verdict.
        if require_spd:
            raise NotPositiveDefiniteError(
                "not positive definite: zero pivot in symmetric elimination"
            )
        inertia = _dense_inertia(matrix)
        try:
            solve = spla.splu(matrix.tocsc()).solve
        except RuntimeError as exc:
            raise SingularSystemError(f"singular system: {exc}") from exc

    if require_spd and inertia[1]:
        raise NotPositiveDefiniteError(
            f"not positive definite: {inertia[1]} negative pivots (penalty too small?)"
        )

    def certified_column(b):
        x = solve(b)
        b_norm = np.linalg.norm(b)
        residual = np.inf
        for _ in range(4):  # iterative refinement against the certification bound
            defect = np.linalg.norm(matrix @ x - b)
            residual = defect / b_norm if b_norm > 0.0 else defect
            if residual <= tol:
                break
            x = x + solve(b - matrix @ x)
        if not residual <= tol:  # also refuses a NaN residual
            raise SolverError(f"residual {residual:.3e} exceeds tolerance {tol:.1e}")
        return x, residual

    # Column by column, so each column is bitwise its own single-column solve
    # (a batched SuperLU solve can differ in the last bits); the columns of a
    # 2-D x stay contiguous.
    columns = rhs.reshape(rhs.shape[0], -1).T
    xs, residuals = zip(*(certified_column(np.ascontiguousarray(b)) for b in columns))
    x = xs[0] if rhs.ndim == 1 else np.array(xs).T
    return SolveResult(x=x, residual=float(max(residuals)), inertia=inertia)


def solve_spd(system) -> SolveResult:
    """Solve a symmetric positive definite LinearSystem.

    Raises NotPositiveDefiniteError when a pivot turns nonpositive, which
    is how an undersized Nitsche penalty surfaces.
    """
    return _solve_symmetric(system.matrix, system.rhs, SPD_RESIDUAL_TOL, require_spd=True)


def solve_sym_indefinite(system) -> SolveResult:
    """Solve a symmetric indefinite SaddleSystem, reporting pivot inertia."""
    return _solve_symmetric(
        system.matrix, system.rhs, INDEFINITE_RESIDUAL_TOL, require_spd=False
    )
