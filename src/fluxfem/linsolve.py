"""Direct sparse solves with residual certification and pivot inertia.

SuperLU orders each system by minimum degree on A^T + A (fill-reducing)
and factors with diagonal pivots (threshold 0, symmetric mode). Only a
factorization with perm_r == perm_c is accepted: a symmetric permutation
with diagonal pivots, so the U diagonal holds the pivots of a symmetric
elimination. By Sylvester's law their signs give the inertia, which doubles
as the positive definiteness check for Nitsche systems and the
saddle-structure check for the multiplier systems. The law needs A = A^T
exactly, so a matrix that differs from its transpose is refused with
SolverError before it is factored. The certificate compares the canonical
CSR arrays of A and A^T, and their entries only where those arrays differ.

If the elimination breaks down, or a pivot vanishes relative to the
largest (which cancellation under the chosen order can cause), indefinite
systems up to DENSE_FALLBACK_MAX_DIM go to a dense Bunch-Kaufman LDL^T that
decides singularity; SPD and larger systems fail outright.

A right-hand side of shape (n, k) is factored once; each column is then
solved, refined and certified on its own, and the reported residual is the
largest column residual (0 when k = 0). A right-hand side of any other
shape raises ValueError.

The pivots are read in place. SuperLU keeps each supernode's diagonal block
in L's supernodal store, so pivot j is

    nzval[nzval_colptr[j] + j - sup_to_col[col_to_sup[j]]],

read through a ctypes view of the SuperLU object. `lu.U` would instead make
scipy build and cache CSC copies of L and U, holding the factor twice. The
object layout (PyObject_HEAD; npy_intp m, n; SuperMatrix L, U) and L's
SCformat store are private to scipy (checked on scipy 1.17.1), so the
reader first checks them: the object is a scipy SuperLU, L is stored
supernodal (SLU_SC) in doubles (SLU_D), nrow == ncol == m == n == the
matrix dimension, and nzval_colptr[n] <= lu.nnz. If any check fails it
falls back to `lu.U.diagonal()`, which gives the same pivots bit for bit.

Factoring makes no copy of A. Once A = A^T is certified, A's CSR arrays
are also its CSC arrays, so SuperLU gets `matrix.T`, a CSC view of them.
A matrix with unsorted or duplicate indices is first made canonical on a
copy, because `splu` sums duplicates in place. The matrix is factored in
float64: real input of another dtype is converted and complex input is
refused with ValueError. Right before `splu`, glibc's `malloc_trim(0)`
hands back to the system the free heap pages that assembly's temporaries
left behind, so the factor and SuperLU's workspace do not stack on top of
them; where the C library has no `malloc_trim`, nothing is trimmed.
"""

from __future__ import annotations

import ctypes
import os
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
# SuperLU's Stype_t and Dtype_t tags of a supernodal store of doubles
SLU_SC = 3
SLU_D = 1


def _find_malloc_trim():
    """glibc's malloc_trim, or None where the C library has no such function."""
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (AttributeError, OSError, TypeError):
        return None
    trim.argtypes = [ctypes.c_size_t]
    trim.restype = ctypes.c_int
    return trim


_malloc_trim = _find_malloc_trim()


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


class _SuperMatrix(ctypes.Structure):
    """SuperLU's SuperMatrix: storage, value and shape tags, then the store."""

    _fields_ = [
        ("Stype", ctypes.c_int),
        ("Dtype", ctypes.c_int),
        ("Mtype", ctypes.c_int),
        ("nrow", ctypes.c_int),
        ("ncol", ctypes.c_int),
        ("Store", ctypes.c_void_p),
    ]


class _SCformat(ctypes.Structure):
    """SuperLU's supernodal column store, in which L is kept."""

    _fields_ = [
        ("nnz", ctypes.c_int),
        ("nsuper", ctypes.c_int),
        ("nzval", ctypes.POINTER(ctypes.c_double)),
        ("nzval_colptr", ctypes.POINTER(ctypes.c_int)),
        ("rowind", ctypes.POINTER(ctypes.c_int)),
        ("rowind_colptr", ctypes.POINTER(ctypes.c_int)),
        ("col_to_sup", ctypes.POINTER(ctypes.c_int)),
        ("sup_to_col", ctypes.POINTER(ctypes.c_int)),
    ]


class _SuperLUFields(ctypes.Structure):
    """scipy's SuperLU object after its PyObject_HEAD."""

    _fields_ = [
        ("m", ctypes.c_ssize_t),
        ("n", ctypes.c_ssize_t),
        ("L", _SuperMatrix),
        ("U", _SuperMatrix),
    ]


def _supernodal_store(lu, n: int):
    """L's SCformat store of a dimension-n factorization, or None when the
    object does not have the layout the pivot reader assumes."""
    head_size = object.__basicsize__
    if type(lu) is not spla.SuperLU or (
        type(lu).__basicsize__ < head_size + ctypes.sizeof(_SuperLUFields)
    ):
        return None
    fields = _SuperLUFields.from_address(id(lu) + head_size)
    L = fields.L
    if (L.Stype, L.Dtype) != (SLU_SC, SLU_D) or not L.Store:
        return None
    if not L.nrow == L.ncol == fields.m == fields.n == n:
        return None
    store = _SCformat.from_address(L.Store)
    if not (store.nzval and store.nzval_colptr and store.col_to_sup and store.sup_to_col):
        return None
    if not 0 <= store.nsuper < n or store.nzval_colptr[n] > lu.nnz:
        return None
    return store


def _pivots(lu, n: int) -> np.ndarray:
    """The n pivots (U's diagonal) of `lu`, read in place from L's store."""
    store = _supernodal_store(lu, n)
    if store is None:
        return lu.U.diagonal()
    colptr = np.ctypeslib.as_array(store.nzval_colptr, (n + 1,))
    col_to_sup = np.ctypeslib.as_array(store.col_to_sup, (n,))
    sup_to_col = np.ctypeslib.as_array(store.sup_to_col, (store.nsuper + 1,))
    nzval = np.ctypeslib.as_array(store.nzval, (colptr[n],))
    # fancy indexing copies, and checks every index against the views' bounds
    return nzval[colptr[:n] + np.arange(n) - sup_to_col[col_to_sup]]


def _pivot_factorization(matrix: sp.csc_matrix):
    """Minimum-degree LU with diagonal pivots, or None on breakdown.

    A zero pivot makes SuperLU either leave the diagonal (perm_r differs
    from perm_c) or give up; both mean the symmetric elimination broke
    down, not that the matrix is singular. A failed SuperLU allocation
    raises MemoryError that names the matrix's dimension and nnz. The
    heap is trimmed first, so the factor starts from live data only.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)
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
    except MemoryError as exc:
        if str(exc):
            raise
        # SuperLU has reported the failed allocation on fd 2, at times with
        # no newline; end that line so the caller's message starts its own.
        os.write(2, b"\n")
        n = matrix.shape[0]
        raise MemoryError(
            f"SuperLU could not allocate the factors of a {n} x {n} matrix"
            f" with {matrix.nnz} nonzeros"
        ) from exc
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


def _is_symmetric(matrix: sp.csr_matrix) -> bool:
    """A = A^T for a canonical CSR A; A^T's copy dies here, before the factorization."""
    at = matrix.T.tocsr()  # its arrays are A's if A = A^T, unless A stores a zero on one side only
    same = all(np.array_equal(getattr(matrix, k), getattr(at, k)) for k in ("indptr", "indices", "data"))
    return same or not (matrix != at).nnz


def _solve_symmetric(matrix, rhs, tol, require_spd):
    """Factor once, then solve and certify each column of an (n,) or (n, k) rhs."""
    if matrix.dtype.kind == "c":
        raise ValueError(f"matrix of dtype {matrix.dtype} is not real; linsolve factors in float64")
    matrix = matrix.tocsr().astype(np.float64, copy=False)
    rhs = np.asarray(rhs, dtype=float)
    n = matrix.shape[0]
    if rhs.ndim not in (1, 2) or rhs.shape[0] != n:
        raise ValueError(f"right-hand side of shape {rhs.shape} does not fit a {matrix.shape} matrix")
    if not np.all(np.isfinite(matrix.data)):
        raise SolverError("matrix has non-finite entries")
    if not matrix.has_canonical_format:  # splu would sum the caller's arrays in place
        matrix = matrix.copy()
        matrix.sum_duplicates()
    if not _is_symmetric(matrix):
        raise SolverError("matrix is not exactly symmetric")
    lu = _pivot_factorization(matrix.T)  # A = A^T, so this CSC view holds A

    if lu is not None:
        pivots = _pivots(lu, n)
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
            solve = spla.splu(matrix.T).solve
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
    if not len(columns):  # an (n, 0) rhs: nothing to certify
        return SolveResult(x=np.empty(rhs.shape), residual=0.0, inertia=inertia)
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
    """Solve a symmetric indefinite LinearSystem, reporting pivot inertia."""
    return _solve_symmetric(
        system.matrix, system.rhs, INDEFINITE_RESIDUAL_TOL, require_spd=False
    )
