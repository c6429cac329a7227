"""The P1 space, quadrature, and the kernels both methods share.

`P1Space` owns every table derived from the mesh: areas, basis
gradients and the one boundary-facet table. Around it live the generic
P1 operators (stiffness, mass, load), their one local-to-global scatter,
point location and boundary-data evaluation; `nitsche` and `lagrange`
add only their method matrices and data.

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
# Triangles per block of every full-mesh volume table (load vector, error
# norms, distance weights): the quadrature temporaries stay a block in size.
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

    Gauss parameters t and weights w of the edge rule on [0,1];
    parent-triangle dofs pdofs (n_facets, 3), their normal derivatives ndg
    (n_facets, 3) and traces at t (n_facets, 3, q); physical points
    (n_facets, q, 2). A boundary integral is the sum over facets of
    length * sum_q w_q * integrand(points).
    """

    t: np.ndarray
    w: np.ndarray
    pdofs: np.ndarray
    ndg: np.ndarray
    trace: np.ndarray
    points: np.ndarray


class P1Space:
    """Continuous piecewise linears; one dof per mesh vertex.

    Builds each table derived from the mesh once: per-triangle areas and
    constant basis gradients (rows 1 and 2 are the inverse affine map,
    which point location reads), and the boundary-facet table `facets`.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.n_dofs = mesh.n_vertices
        v = mesh.vertices[mesh.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.areas = 0.5 * det
        grads = np.empty((mesh.n_triangles, 3, 2))
        grads[:, 1, 0] = e2[:, 1]
        grads[:, 1, 1] = -e2[:, 0]
        grads[:, 2, 0] = -e1[:, 1]
        grads[:, 2, 1] = e1[:, 0]
        grads[:, 1:] /= det[:, None, None]
        grads[:, 0] = -grads[:, 1] - grads[:, 2]
        self.gradients = grads
        self.facets = self._facet_table()

    def _facet_table(self) -> FacetTable:
        mesh = self.mesh
        rule = edge_quadrature()
        t = rule.points
        pdofs = mesh.triangles[mesh.facet_parents]
        ndg = np.einsum("fd,fkd->fk", mesh.facet_normals, self.gradients[mesh.facet_parents])
        is0 = (pdofs == mesh.facet_vertices[:, [0]]).astype(float)
        is1 = (pdofs == mesh.facet_vertices[:, [1]]).astype(float)
        trace = is0[:, :, None] * (1.0 - t)[None, None, :] + is1[:, :, None] * t[None, None, :]
        return FacetTable(t, rule.weights, pdofs, ndg, trace, mesh.facet_points(t))

    def quadrature_points(self, rule: QuadratureRule, cells=ALL_CELLS) -> np.ndarray:
        """Physical quadrature points of the triangles `cells`, shape (n_cells, n_q, 2)."""
        tri = self.mesh.triangles[cells]
        xi0, xi1 = rule.points[:, 0], rule.points[:, 1]
        pts = np.empty((len(tri), len(xi0), 2))
        # x and y separately on contiguous (n_cells, n_q) arrays: the same
        # operations as a broadcast over a length-2 axis, at about half the time
        for d in range(2):
            c = self.mesh.vertices[tri, d]
            pts[..., d] = (
                c[:, 0, None]
                + xi0 * (c[:, 1] - c[:, 0])[:, None]
                + xi1 * (c[:, 2] - c[:, 0])[:, None]
            )
        return pts


def cell_blocks(n_cells: int, cells=ALL_CELLS):
    """The triangles `cells` (a slice or an index array) of a mesh with
    n_cells triangles, in order, as consecutive blocks of at most
    BLOCK_TRIANGLES; slices stay slices, so a block of a table is a view."""
    index = range(n_cells)[cells] if isinstance(cells, slice) else np.asarray(cells)
    for lo in range(0, len(index), BLOCK_TRIANGLES):
        block = index[lo : lo + BLOCK_TRIANGLES]
        yield slice(block.start, block.stop, block.step) if isinstance(block, range) else block


def nodal_interpolant(f, space: P1Space) -> np.ndarray:
    """Coefficients of the vertex interpolant of f; exact for affine f."""
    v = space.mesh.vertices
    coeffs = np.asarray(f(v[:, 0], v[:, 1]), dtype=float)
    coeffs = np.broadcast_to(coeffs, (space.n_dofs,)).copy()
    if not np.all(np.isfinite(coeffs)):
        raise ValueError("interpolated function is not finite at some vertex")
    return coeffs


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


class PointLocation(NamedTuple):
    """Triangle index (m,) and barycentric weights (m, 3) of m points."""

    triangles: np.ndarray
    barycentric: np.ndarray


def locate_points(points, space: P1Space) -> PointLocation:
    """Locate an (m, 2) array of points once, for any number of P1 functions."""
    pts = np.asarray(points, dtype=float)
    mesh = space.mesh
    tri = locate_triangle(mesh, pts)
    origins = mesh.vertices[mesh.triangles[tri, 0]]
    local = np.einsum("mij,mj->mi", space.gradients[tri, 1:], pts - origins)
    bary = np.column_stack([1.0 - local[:, 0] - local[:, 1], local[:, 0], local[:, 1]])
    return PointLocation(tri, bary)


def located_values(coeffs, where: PointLocation, space: P1Space) -> np.ndarray:
    """Values (m,) of a P1 function at located points."""
    nodal = np.asarray(coeffs, dtype=float)[space.mesh.triangles[where.triangles]]
    return np.einsum("mi,mi->m", where.barycentric, nodal)


def located_gradients(coeffs, where: PointLocation, space: P1Space) -> np.ndarray:
    """Gradients (m, 2) of a P1 function at located points, one-sided on edges."""
    nodal = np.asarray(coeffs, dtype=float)[space.mesh.triangles[where.triangles]]
    return np.einsum("mi,mid->md", nodal, space.gradients[where.triangles])


def local_to_global(dofs, local, n: int) -> sp.csr_matrix:
    """Sum the local (n_cells, k, k) blocks on their (n_cells, k) dofs into an n x n CSR matrix.

    The COO indices keep the dtype of `dofs`; int32 mesh indices are scipy's
    own index dtype, so the scatter makes no int64 copies.
    """
    k = dofs.shape[1]
    rows = np.repeat(dofs, k, axis=1).ravel()
    cols = np.tile(dofs, (1, k)).ravel()
    return sp.coo_matrix((local.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def symmetrize(a: sp.csr_matrix) -> sp.csr_matrix:
    # (A + A^T)/2 is bitwise symmetric; assembly is symmetric up to
    # float-summation order only.
    return ((a + a.T) * 0.5).tocsr()


def basis_at(rule: QuadratureRule) -> np.ndarray:
    """P1 basis values at the reference points of a triangle rule, shape (n_q, 3)."""
    xi = rule.points
    return np.column_stack([1.0 - xi[:, 0] - xi[:, 1], xi[:, 0], xi[:, 1]])


def stiffness_matrix(space: P1Space, cells=ALL_CELLS) -> sp.csr_matrix:
    """Pure grad-grad matrix of the triangles `cells`, no boundary terms."""
    tri = space.mesh.triangles[cells]
    grads = space.gradients[cells]
    local = np.einsum("t,tid,tjd->tij", space.areas[cells], grads, grads)
    return symmetrize(local_to_global(tri, local, space.n_dofs))


def mass_matrix(space: P1Space) -> sp.csr_matrix:
    """Exact P1 mass matrix (area/12 * [[2,1,1],[1,2,1],[1,1,2]] per element)."""
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = space.areas[:, None, None] * ref[None, :, :]
    return symmetrize(local_to_global(space.mesh.triangles, local, space.n_dofs))


def load_vector(
    space: P1Space, f, volume_degree: int = VOLUME_DEGREE, cells=ALL_CELLS
) -> np.ndarray:
    """(f, phi_i) over the triangles `cells` with the given quadrature degree.

    f and the local vectors are evaluated a block of triangles at a time
    (`cell_blocks`), and the blocks are added in triangle order, so every
    entry sums the same terms in the same order as a one-shot evaluation.
    """
    rule = triangle_quadrature(volume_degree)
    phi = basis_at(rule)
    b = np.zeros(space.n_dofs)
    for block in cell_blocks(space.mesh.n_triangles, cells):
        pts = space.quadrature_points(rule, block)
        fvals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
        fvals = np.broadcast_to(fvals, pts.shape[:-1])
        # physical jacobian is 2*area; reference weights already sum to 1/2
        local = 2.0 * space.areas[block, None] * np.einsum("q,tq,qk->tk", rule.weights, fvals, phi)
        np.add.at(b, space.mesh.triangles[block].ravel(), local.ravel())
    return b


def boundary_field_values(obj, space: P1Space) -> np.ndarray:
    """Boundary data at the facet points of `space.facets`, (n_facets, EDGE_POINTS).

    Accepts a callable of (x, y), an object with facet_values(t) (flux
    fields), or an array of values at those points; a flux field of
    another mesh raises ValueError.
    """
    t, points = space.facets.t, space.facets.points
    shape = points.shape[:-1]
    if hasattr(obj, "facet_values"):
        vals = np.asarray(obj.facet_values(t), dtype=float)
        if vals.shape != shape:
            raise ValueError(f"boundary data has {len(vals)} facets, the mesh has {shape[0]}")
        return vals
    if callable(obj):
        vals = np.asarray(obj(points[..., 0], points[..., 1]), dtype=float)
        return np.broadcast_to(vals, shape)
    arr = np.asarray(obj, dtype=float)
    if arr.shape == shape:
        return arr
    raise TypeError("boundary data must be callable, a flux field, or values at the facet points")

