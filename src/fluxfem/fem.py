"""The P1 space, quadrature, and the kernels both methods share.

`P1Space` keeps one table derived from the mesh, the boundary-facet table
with its weights h_F w_q, and derives triangle areas and basis gradients
for any block of triangles on request. Around it live the generic P1
operators (stiffness, mass, load), the volume matrix of both methods, the
one local-to-global scatter that builds every matrix, point location and
the one point evaluator of a P1 function (`evaluate_p1`), boundary-data
evaluation, and the one `assemble` and `LinearSystem` of both methods.
`nitsche` and `lagrange` each add only their method config: its facet
terms on the volume matrix, and its dual data.

Assembled matrices are bitwise symmetric with no averaging pass: each
triangle's basis gradients are (-a, 0), (a, -b) and (0, b), so every local
product rounds alike both ways. `linsolve` refuses any matrix that is not.

There are three quadrature rules, all with positive weights: the
classical symmetric triangle rules of degree 4 (VOLUME_DEGREE, used by
assembly and error norms) and 6 (the identity checks) on the reference
triangle (0,0)-(1,0)-(0,1), and the EDGE_POINTS-point Gauss-Legendre
rule on [0,1] that every boundary integral uses. Each rule is built once
and shared, so its arrays are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from .mesh import Mesh

VOLUME_DEGREE = 4
EDGE_POINTS = 6
ALL_CELLS = slice(None)
# Triangles per block of `per_cell`, the one loop over triangles (assembly,
# load vector, error norms, the dual-stability cell terms, point evaluation):
# triangle geometry and quadrature temporaries stay a block in size.
BLOCK_TRIANGLES = 4096


@dataclass(frozen=True)
class QuadratureRule:
    """Reference-domain points and weights."""

    points: np.ndarray
    weights: np.ndarray


def _shared_rule(points, weights) -> QuadratureRule:
    for array in (points, weights):
        array.setflags(write=False)
    return QuadratureRule(points=points, weights=weights)


def _sym3(a):
    """Three-point orbit (a, a), (1-2a, a), (a, 1-2a)."""
    return [(a, a), (1.0 - 2.0 * a, a), (a, 1.0 - 2.0 * a)]


def _sym6(a, b):
    c = 1.0 - a - b
    return [(a, b), (b, a), (a, c), (c, a), (b, c), (c, b)]


@cache
def triangle_quadrature(degree: int) -> QuadratureRule:
    """Symmetric Gauss rule on the reference triangle, exact to `degree`.

    Only the rules the package uses exist: degree 4 (VOLUME_DEGREE) and
    degree 6 (the identity checks). Weights sum to the reference area 1/2.
    """
    if degree == 4:
        a1, w1 = 0.445948490915965, 0.223381589678011
        a2, w2 = 0.091576213509771, 0.109951743655322
        pts = _sym3(a1) + _sym3(a2)
        wts = [w1] * 3 + [w2] * 3
    elif degree == 6:
        a1, w1 = 0.063089014491502, 0.050844906370207
        a2, w2 = 0.249286745170910, 0.116786275726379
        w3 = 0.082851075618374
        pts = _sym3(a1) + _sym3(a2) + _sym6(0.310352451033785, 0.636502499121399)
        wts = [w1] * 3 + [w2] * 3 + [w3] * 6
    else:
        raise ValueError(f"unsupported triangle quadrature degree {degree}")
    return _shared_rule(np.array(pts), 0.5 * np.array(wts))


@cache
def edge_quadrature() -> QuadratureRule:
    """Gauss-Legendre rule on [0,1] with EDGE_POINTS nodes, exact to 2*EDGE_POINTS-1."""
    x, w = np.polynomial.legendre.leggauss(EDGE_POINTS)
    return _shared_rule(0.5 * (x + 1.0), 0.5 * w)


class FacetTable(NamedTuple):
    """Tables for boundary-facet integrals.

    Gauss parameters t and weights w of the edge rule on [0,1]; physical
    weights hw = h_F w_q (n_facets, q); parent-triangle dofs pdofs
    (n_facets, 3), their normal derivatives ndg (n_facets, 3) and traces at
    t (n_facets, 3, q); physical points (n_facets, q, 2). A boundary
    integral is sum(hw * integrand(points)).
    """

    t: np.ndarray
    w: np.ndarray
    hw: np.ndarray
    pdofs: np.ndarray
    ndg: np.ndarray
    trace: np.ndarray
    points: np.ndarray


class CellGeometry(NamedTuple):
    """Geometry of m triangles, component-major so that every kernel reads
    contiguous rows of length m: areas (m,), basis gradients grads[k, d]
    (3, 2, m), whose rows 1 and 2 are the inverse affine map that point
    location reads, and the physical quadrature points of a rule as coordinate
    rows points[d] (2, n_q, m), or None without a rule."""

    areas: np.ndarray
    grads: np.ndarray
    points: np.ndarray | None


class P1Space:
    """Continuous piecewise linears; one dof per mesh vertex.

    Keeps one table derived from the mesh, the boundary-facet table
    `facets`. Nothing sized by the triangles is kept: `geometry` derives
    areas, basis gradients and quadrature points for the triangles a caller
    asks for, so no such table stays live while a system is factored.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.n_dofs = mesh.n_vertices
        self.facets = self._facet_table()

    def geometry(self, cells=ALL_CELLS, rule: QuadratureRule | None = None) -> CellGeometry:
        """Areas, basis gradients and, given a rule, the physical quadrature
        points of the m triangles `cells`, a slice or an index array, as
        component-major rows (see `CellGeometry`).

        The vertex coordinates are gathered once and copied component-major,
        and the edges e1 = v1 - v0 and e2 = v2 - v0 of that copy give both
        the gradients and the points v0 + xi0 e1 + xi1 e2. Every value
        depends on its own triangle only, so any block gives bitwise the
        values of a whole-mesh evaluation.
        """
        tri = self.mesh.triangles[cells]
        # c[d, k]: coordinate d of vertex k, one contiguous row per pair
        c = self.mesh.vertices.take(tri.T, axis=0).transpose(2, 0, 1).copy()
        edges = c[:, 1:] - c[:, :1]
        (x1, x2), (y1, y2) = edges
        det = x1 * y2 - y1 * x2
        grads = np.empty((3, 2, len(tri)))
        np.divide(y2, det, out=grads[1, 0])
        np.divide(-x2, det, out=grads[1, 1])
        np.divide(-y1, det, out=grads[2, 0])
        np.divide(x1, det, out=grads[2, 1])
        np.subtract(-grads[1], grads[2], out=grads[0])
        points = None
        if rule is not None:
            xi0, xi1 = rule.points[:, 0, None], rule.points[:, 1, None]
            points = np.empty((2, len(xi0), len(tri)))
            for row, origin, (e1, e2) in zip(points, c[:, 0], edges):
                np.multiply(xi0, e1, out=row)
                row += origin
                row += xi1 * e2
        return CellGeometry(0.5 * det, grads, points)

    def _facet_table(self) -> FacetTable:
        mesh = self.mesh
        rule = edge_quadrature()
        t = rule.points
        pdofs = mesh.triangles[mesh.facet_parents]
        grads = self.geometry(mesh.facet_parents).grads
        ndg = np.einsum("fd,fkd->fk", mesh.facet_normals, grads.transpose(2, 0, 1))
        is0 = (pdofs == mesh.facet_vertices[:, [0]]).astype(float)
        is1 = (pdofs == mesh.facet_vertices[:, [1]]).astype(float)
        trace = is0[:, :, None] * (1.0 - t)[None, None, :] + is1[:, :, None] * t[None, None, :]
        hw = mesh.facet_lengths[:, None] * rule.weights[None, :]
        return FacetTable(t, rule.weights, hw, pdofs, ndg, trace, mesh.facet_points(t))


def per_cell(space: P1Space, cells, kernel, rule: QuadratureRule | None = None) -> None:
    """Call kernel(rows, geometry) on the triangles `cells` (a slice or an
    index array) in order, a block of at most BLOCK_TRIANGLES at a time:
    geometry is the block's `CellGeometry`, with the points of `rule` if one
    is given, and rows the block's slice of a table over `cells`, which the
    caller allocates and the kernel writes."""
    index = range(space.mesh.n_triangles)[cells] if isinstance(cells, slice) else np.asarray(cells)
    for lo in range(0, len(index), BLOCK_TRIANGLES):
        block = index[lo : lo + BLOCK_TRIANGLES]
        rows = slice(lo, lo + len(block))
        if isinstance(block, range):  # a range down to 0 stops at -1, which a slice reads as its end
            block = slice(block.start, block.stop if block.stop >= 0 else None, block.step)
        kernel(rows, space.geometry(block, rule))


def nodal_interpolant(f, space: P1Space) -> np.ndarray:
    """Coefficients of the vertex interpolant of f; exact for affine f."""
    v = space.mesh.vertices
    coeffs = np.asarray(f(v[:, 0], v[:, 1]), dtype=float)
    coeffs = np.broadcast_to(coeffs, (space.n_dofs,)).copy()
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("interpolated function is not finite at some vertex")
    return coeffs


def coefficient_vector(coeffs, size: int) -> np.ndarray:
    """coeffs as a float array of shape (size,); any other shape raises ValueError."""
    c = np.asarray(coeffs, dtype=float)
    if c.shape != (size,):
        raise ValueError(f"coefficients sized {c.shape} do not match the space ({size})")
    return c


def locate_triangle(mesh: Mesh, points) -> np.ndarray:
    """Triangle index for each point of an (..., 2) array.

    O(1) lookup on the structured grid: cell from floor division, then a
    diagonal test. Points on mesh lines resolve deterministically; points
    outside [0,1]^2 by more than 1e-12, and non-finite ones, raise.
    """
    pts = np.asarray(points, dtype=float)
    n = mesh.grid_n
    # written so that NaN coordinates fail the test too
    if not np.all((pts >= -1e-12) & (pts <= 1 + 1e-12)):
        raise ValueError("point outside the unit square cannot be located")
    x, y = pts[..., 0], pts[..., 1]
    ix = np.clip(np.floor(x * n).astype(np.int64), 0, n - 1)
    iy = np.clip(np.floor(y * n).astype(np.int64), 0, n - 1)
    s = x * n - ix
    t = y * n - iy
    return 2 * (iy * n + ix) + (t > s)


def evaluate_p1(coeffs, points, space: P1Space) -> tuple[np.ndarray, np.ndarray]:
    """Values (m,) and gradients (m, 2) of a P1 function at an (m, 2) array of
    points, gradients one-sided on edges: one `per_cell` pass over the
    triangles that `locate_triangle` finds, whose rows of the basis gradients
    give both the inverse maps and the gradients."""
    coeffs = coefficient_vector(coeffs, space.n_dofs)
    pts = np.asarray(points, dtype=float)
    mesh = space.mesh
    tri = locate_triangle(mesh, pts)

    values_and_gradients = np.empty((len(tri), 3))

    def kernel(rows, geometry):
        vertices = mesh.triangles[tri[rows]]
        grads = geometry.grads.transpose(2, 0, 1)
        local = np.einsum("mij,mj->mi", grads[:, 1:], pts[rows] - mesh.vertices[vertices[:, 0]])
        barycentric = np.column_stack([1.0 - local[:, 0] - local[:, 1], local[:, 0], local[:, 1]])
        nodal = coeffs[vertices]
        values_and_gradients[rows, 0] = np.einsum("mi,mi->m", barycentric, nodal)
        values_and_gradients[rows, 1:] = np.einsum("mi,mid->md", nodal, grads)

    per_cell(space, tri, kernel)
    return values_and_gradients[:, 0], values_and_gradients[:, 1:]


def local_to_global(n: int, *blocks) -> sp.csr_matrix:
    """Sum local blocks into an n x n CSR matrix; the package's one scatter.

    Each block is (rows (m, r), cols (m, c), values (m, r, c)), and
    values[i, a, b] goes to (rows[i, a], cols[i, b]). The entries enter one
    COO block after block, in the order given; SciPy sums duplicates in an
    order set by that order, so the layout fixes the last bits. The COO
    indices keep the dtype of the index arrays; int32 mesh indices are
    scipy's own index dtype, so the scatter makes no int64 copies, and a
    one-wide block's indices are views. Zero sums (the stiffness couplings
    along diagonal edges) are dropped: kept, they would enter the
    minimum-degree graph and change the ordering and the digits.
    """
    flat = [
        (
            np.broadcast_to(rows[:, :, None], values.shape).reshape(-1),
            np.broadcast_to(cols[:, None, :], values.shape).reshape(-1),
            values.reshape(-1),
        )
        for rows, cols, values in blocks
    ]
    # a single block is not concatenated: that would copy its whole COO
    rows, cols, values = flat[0] if len(flat) == 1 else (np.concatenate(part) for part in zip(*flat))
    matrix = sp.coo_matrix((values, (rows, cols)), shape=(n, n)).tocsr()
    matrix.eliminate_zeros()
    return matrix


def basis_at(rule: QuadratureRule) -> np.ndarray:
    """P1 basis values at the reference points of a triangle rule, shape (n_q, 3)."""
    xi = rule.points
    return np.column_stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])


def stiffness_matrix(space: P1Space, cells=ALL_CELLS) -> sp.csr_matrix:
    """Pure grad-grad matrix of the triangles `cells`, no boundary terms."""
    tri = space.mesh.triangles[cells]
    local = np.empty((len(tri), 3, 3))

    def kernel(rows, geometry):
        # a*gi0*gj0 + a*gi1*gj1: the products and the sum of the einsum
        # "t,tid,tjd->tij" in its order, written out so that no choice of
        # einsum loop can change a bit. The block's (3, 3, m) products of
        # contiguous gradient rows are copied straight into its (m, 3, 3)
        # rows of the table, the layout the scatter reads.
        areas, grads, _ = geometry
        gx, gy = grads[:, 0], grads[:, 1]
        ax, ay = areas * gx, areas * gy
        local[rows] = (ax[:, None] * gx[None] + ay[:, None] * gy[None]).transpose(2, 0, 1)

    per_cell(space, cells, kernel)
    return local_to_global(space.n_dofs, (tri, tri, local))


def mass_matrix(space: P1Space) -> sp.csr_matrix:
    """Exact P1 mass matrix (area/12 * [[2,1,1],[1,2,1],[1,1,2]] per element)."""
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    tri = space.mesh.triangles
    local = np.empty((len(tri), 3, 3))

    def kernel(rows, geometry):
        np.multiply(geometry.areas[:, None, None], ref, out=local[rows])

    per_cell(space, ALL_CELLS, kernel)
    return local_to_global(space.n_dofs, (tri, tri, local))


def volume_matrix(space: P1Space, kappa: float) -> sp.csr_matrix:
    """The volume form (grad u, grad v) + kappa (u, v) of both methods."""
    a = stiffness_matrix(space)
    return a + kappa * mass_matrix(space) if kappa != 0.0 else a


def load_vector(
    space: P1Space, f, volume_degree: int = VOLUME_DEGREE, cells=ALL_CELLS
) -> np.ndarray:
    """(f, phi_i) over the triangles `cells` with the given quadrature degree.

    f, the areas and the local vectors are evaluated a block of triangles at
    a time (`per_cell`), and the blocks are added in triangle order, so every
    entry sums the same terms in the same order as a one-shot evaluation.
    """
    rule = triangle_quadrature(volume_degree)
    phi = basis_at(rule)
    tri = space.mesh.triangles[cells]
    b = np.zeros(space.n_dofs)

    def kernel(rows, geometry):
        areas, _, (x, y) = geometry
        wf = rule.weights[:, None] * np.broadcast_to(np.asarray(f(x, y), dtype=float), x.shape)
        # sum over q of (w_q f_q) phi_qk from zero in q order: the products
        # and the sum of the einsum "q,tq,qk->tk", on (3, n_cells) rows at a
        # third of its time
        integral = np.zeros((3, len(areas)))
        for wf_q, phi_q in zip(wf, phi):
            integral += phi_q[:, None] * wf_q
        # physical jacobian is 2*area; reference weights already sum to 1/2.
        # The local vectors are written triangle-major, the order in which
        # np.add.at sums them.
        local = np.empty((len(areas), 3))
        np.multiply(2.0 * areas, integral, out=local.T)
        np.add.at(b, tri[rows].ravel(), local.ravel())

    per_cell(space, cells, kernel, rule)
    return b


def boundary_field_values(obj, space: P1Space) -> np.ndarray:
    """Boundary data at the facet points of `space.facets`, (n_facets, EDGE_POINTS).

    Accepts a callable of (x, y) or an array of values at those points, the
    format of every flux; an array of another shape raises ValueError, and a
    scalar TypeError.
    """
    points = space.facets.points
    shape = points.shape[:-1]
    if callable(obj):
        vals = np.asarray(obj(points[..., 0], points[..., 1]), dtype=float)
        return np.broadcast_to(vals, shape)
    arr = np.asarray(obj, dtype=float)
    if arr.ndim == 0:
        raise TypeError("boundary data must be callable or values at the facet points")
    if arr.shape != shape:
        raise ValueError(f"boundary values of shape {arr.shape} do not match the facet points {shape}")
    return arr


@dataclass(frozen=True)
class LinearSystem:
    """Assembled sparse symmetric system over n_primal P1 dofs followed by
    n_multiplier multiplier dofs (none for Nitsche's method). A matrix that
    is not a scipy sparse matrix raises TypeError; a non-square or 0 x 0
    matrix, or n_primal outside [0, dimension], raises ValueError."""

    matrix: sp.csr_matrix
    rhs: np.ndarray
    n_primal: int

    def __post_init__(self):
        if not sp.issparse(self.matrix):
            raise TypeError(f"matrix must be a scipy sparse matrix, got {type(self.matrix).__name__}")
        rows, cols = self.matrix.shape
        if rows != cols:
            raise ValueError(f"matrix of {rows} rows and {cols} columns is not square")
        if not rows:
            raise ValueError("matrix of dimension 0 has no dofs to solve for")
        if not 0 <= self.n_primal <= rows:
            raise ValueError(f"{self.n_primal} primal dofs do not fit a matrix of dimension {rows}")

    @property
    def n_multiplier(self) -> int:
        return self.matrix.shape[0] - self.n_primal

    def split(self, x):
        """(u, lam) of a solution x; lam is None when there are no multipliers."""
        x, dim = np.asarray(x), self.matrix.shape[0]
        if x.shape[:1] != (dim,):
            raise ValueError(f"solution of shape {x.shape} does not fit a matrix of dimension {dim}")
        if not self.n_multiplier:
            return x, None
        return x[: self.n_primal], x[self.n_primal :]


def assemble(space: P1Space, cfg, f, g, volume_degree: int = VOLUME_DEGREE) -> LinearSystem:
    """The system of cfg's method for -laplace(u) = f, u = g: cfg's matrix,
    and the load vector with cfg's dual data of g on top."""
    return LinearSystem(
        cfg.matrix(space), cfg.dual_data(space, g, load_vector(space, f, volume_degree)), space.n_dofs
    )

