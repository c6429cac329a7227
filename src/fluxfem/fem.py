"""The P1 space, quadrature, and the kernels both methods share.

Holds the generic P1 operators (stiffness, mass, load), the boundary
facet tables and the form kernels; `nitsche` and `lagrange` add only
their method forms.

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


def eval_basis(vertices, x):
    """Barycentric P1 basis values and gradients on one triangle.

    Parameters
    ----------
    vertices : (3, 2) array
        Triangle corners, positively oriented.
    x : (2,) array
        Evaluation point; must lie in the (slightly fattened) triangle.

    Returns
    -------
    values : (3,) array of barycentric coordinates at x.
    gradients : (3, 2) array of the constant basis gradients.
    """
    vertices = np.asarray(vertices, dtype=float)
    x = np.asarray(x, dtype=float)
    e1 = vertices[1] - vertices[0]
    e2 = vertices[2] - vertices[0]
    det = e1[0] * e2[1] - e1[1] * e2[0]
    if det <= 0.0:
        raise ValueError(f"degenerate or misoriented triangle (2*area={det})")
    binv = np.array([[e2[1], -e2[0]], [-e1[1], e1[0]]]) / det
    xi = binv @ (x - vertices[0])
    values = np.array([1.0 - xi[0] - xi[1], xi[0], xi[1]])
    if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
        raise ValueError(f"point {x} lies outside the triangle")
    gradients = np.vstack([-binv[0] - binv[1], binv[0], binv[1]])
    return values, gradients


class P1Space:
    """Continuous piecewise linears; one dof per mesh vertex.

    Precomputes per-triangle areas, basis gradients, and the inverse
    affine maps used for vectorized point evaluation.
    """

    def __init__(self, mesh: Mesh):
        self.mesh = mesh
        self.n_dofs = mesh.n_vertices
        v = mesh.vertices[mesh.triangles]
        e1 = v[:, 1] - v[:, 0]
        e2 = v[:, 2] - v[:, 0]
        det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
        self.areas = 0.5 * det
        binv = np.empty((mesh.n_triangles, 2, 2))
        binv[:, 0, 0] = e2[:, 1]
        binv[:, 0, 1] = -e2[:, 0]
        binv[:, 1, 0] = -e1[:, 1]
        binv[:, 1, 1] = e1[:, 0]
        binv /= det[:, None, None]
        self.inverse_maps = binv
        grads = np.empty((mesh.n_triangles, 3, 2))
        grads[:, 1] = binv[:, 0]
        grads[:, 2] = binv[:, 1]
        grads[:, 0] = -binv[:, 0] - binv[:, 1]
        self.gradients = grads
        self.origins = v[:, 0]

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
    tri = locate_triangle(space.mesh, pts)
    local = np.einsum("mij,mj->mi", space.inverse_maps[tri], pts - space.origins[tri])
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
    rows = np.repeat(tri, 3, axis=1).ravel()
    cols = np.tile(tri, (1, 3)).ravel()
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return symmetrize(a.tocsr())


def mass_matrix(space: P1Space) -> sp.csr_matrix:
    """Exact P1 mass matrix (area/12 * [[2,1,1],[1,2,1],[1,1,2]] per element)."""
    mesh = space.mesh
    ref = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0
    local = space.areas[:, None, None] * ref[None, :, :]
    rows = np.repeat(mesh.triangles, 3, axis=1).ravel()
    cols = np.tile(mesh.triangles, (1, 3)).ravel()
    a = sp.coo_matrix((local.ravel(), (rows, cols)), shape=(space.n_dofs, space.n_dofs))
    return symmetrize(a.tocsr())


def load_vector(
    space: P1Space, f, volume_degree: int = VOLUME_DEGREE, cells=ALL_CELLS
) -> np.ndarray:
    """(f, phi_i) over the triangles `cells` with the given quadrature degree."""
    rule = triangle_quadrature(volume_degree)
    pts = space.quadrature_points(rule, cells)
    fvals = np.asarray(f(pts[..., 0], pts[..., 1]), dtype=float)
    fvals = np.broadcast_to(fvals, pts.shape[:-1])
    # physical jacobian is 2*area; reference weights already sum to 1/2
    local = 2.0 * space.areas[cells, None] * np.einsum("q,tq,qk->tk", rule.weights, fvals, basis_at(rule))
    b = np.zeros(space.n_dofs)
    np.add.at(b, space.mesh.triangles[cells].ravel(), local.ravel())
    return b


def boundary_field_values(obj, mesh, t, points):
    """Evaluate boundary data per facet at Gauss parameters t.

    Accepts a callable of (x, y), an object with facet_values(t) (flux
    fields), or an already-evaluated (n_facets, len(t)) array. Returns
    (n_facets, len(t)).
    """
    if hasattr(obj, "facet_values"):
        return np.asarray(obj.facet_values(t), dtype=float)
    if callable(obj):
        vals = np.asarray(obj(points[..., 0], points[..., 1]), dtype=float)
        return np.broadcast_to(vals, points.shape[:-1])
    arr = np.asarray(obj, dtype=float)
    if arr.shape == (mesh.n_facets, len(t)):
        return arr
    raise TypeError("boundary data must be callable, a flux field, or values at the facet points")


def facet_tables(space: P1Space):
    """Tables for boundary-facet integrals: (t, w, pdofs, ndg, trace, points).

    Gauss parameters t and weights w on [0,1]; parent-triangle dofs pdofs
    (n_facets, 3), their normal derivatives ndg and traces at t (n_facets,
    3, q); physical points (n_facets, q, 2). A boundary integral is the
    sum over facets of length * sum_q w_q * integrand(points).
    """
    mesh = space.mesh
    rule = edge_quadrature()
    t, w = rule.points, rule.weights
    parents = mesh.facet_parents
    pdofs = mesh.triangles[parents]
    ndg = np.einsum("fd,fkd->fk", mesh.facet_normals, space.gradients[parents])
    is0 = (pdofs == mesh.facet_vertices[:, [0]]).astype(float)
    is1 = (pdofs == mesh.facet_vertices[:, [1]]).astype(float)
    trace = is0[:, :, None] * (1.0 - t)[None, None, :] + is1[:, :, None] * t[None, None, :]
    points = mesh.facet_points(t)
    return t, w, pdofs, ndg, trace, points


class SampledField(NamedTuple):
    """A function w sampled where the form kernels integrate it.

    grad (gx, gy) at the points of the triangle rule `rule` (n_triangles,
    n_q); value and normal_derivative (n.grad w) at the boundary-facet
    points (n_facets, EDGE_POINTS).
    """

    rule: QuadratureRule
    grad: tuple
    value: np.ndarray
    normal_derivative: np.ndarray


def volume_form(space: P1Space, w: SampledField, phi) -> float:
    """(grad w, grad phi_h) for a sampled w and P1 coefficients phi."""
    gx, gy = w.grad
    phigrad = np.einsum("ti,tid->td", phi[space.mesh.triangles], space.gradients)
    integrand = gx * phigrad[:, None, 0] + gy * phigrad[:, None, 1]
    return 2.0 * float(np.sum(space.areas[:, None] * w.rule.weights[None, :] * integrand))
