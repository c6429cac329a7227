"""Structured triangulations of the unit square and boundary/offset geometry.

The mesh family is the uniform right-diagonal split of an n-by-n grid:
every cell is cut along its lower-left to upper-right diagonal, giving
2*n**2 congruent right triangles. Each of the 4*n boundary facets belongs
to exactly one triangle, which is what the boundary assembly relies on.

Offset squares (the level sets of the boundary distance) and the shifted
distance weight used in the weighted stability quantities live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Largest grid (level k = 17, 2*n**2 triangles) measured to solve on an 8 GB
# machine: about 20 s and 3.0 GiB peak for either method.
MAX_GRID_N = 1448


@dataclass(frozen=True)
class Mesh:
    """Immutable triangulation of [0,1]^2 with boundary facet tables.

    Attributes
    ----------
    vertices : (n_vertices, 2) float array
        Grid points, row-major with x running fastest.
    triangles : (n_triangles, 3) int32 array
        Positively oriented vertex triples; cell (i, j) holds triangles
        2*(j*n+i) (lower) and 2*(j*n+i)+1 (upper).
    facet_vertices : (n_facets, 2) int32 array
        Endpoint indices per boundary facet, ordered bottom, right, top,
        left with ascending coordinate inside each side.
    facet_normals, facet_lengths, facet_parents
        Per-facet outward unit normal, length (exactly 1/n) and parent
        triangle index (int32).

    Every vertex and triangle index is below 2*(MAX_GRID_N + 1)**2 < 2**31,
    so the index tables are int32, scipy's own sparse index dtype.
    """

    grid_n: int
    vertices: np.ndarray
    triangles: np.ndarray
    facet_vertices: np.ndarray
    facet_normals: np.ndarray
    facet_lengths: np.ndarray
    facet_parents: np.ndarray
    h_grid: float
    h_max: float

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_triangles(self) -> int:
        return self.triangles.shape[0]

    @property
    def n_facets(self) -> int:
        return self.facet_vertices.shape[0]

    def facet_points(self, t: np.ndarray) -> np.ndarray:
        """Map facet parameters t in [0,1] to physical points.

        Returns an array of shape (n_facets, len(t), 2); t runs from the
        first facet endpoint to the second.
        """
        t = np.asarray(t, dtype=float)
        p0 = self.vertices[self.facet_vertices[:, 0]]
        p1 = self.vertices[self.facet_vertices[:, 1]]
        return p0[:, None, :] + t[None, :, None] * (p1 - p0)[:, None, :]


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def build_unit_square_mesh(n: int) -> Mesh:
    """Triangulate [0,1]^2 with n subdivisions per side.

    Produces (n+1)**2 vertices, 2*n**2 triangles (right-diagonal split)
    and 4*n boundary facets. Facet lengths are stored as exactly 1/n,
    which keeps the local/global penalty scalings bitwise identical on
    this uniform family.

    Raises
    ------
    ValueError
        If n < 1, or n exceeds MAX_GRID_N ("mesh too large"), the largest
        grid measured to solve within the memory of an 8 GB machine.
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)) or n < 1:
        raise ValueError(f"grid subdivisions must be a positive integer, got {n!r}")
    if n > MAX_GRID_N:
        raise ValueError(f"mesh too large: n={n} exceeds cap {MAX_GRID_N}")
    n = int(n)

    coords = np.arange(n + 1, dtype=float) / n
    X, Y = np.meshgrid(coords, coords, indexing="xy")
    vertices = np.column_stack([X.ravel(), Y.ravel()])

    k = np.arange(n, dtype=np.int32)
    ii, jj = np.meshgrid(k, k, indexing="xy")
    ll = (jj * (n + 1) + ii).ravel()
    lr = ll + 1
    ul = ll + (n + 1)
    ur = ul + 1
    lower = np.column_stack([ll, lr, ur])
    upper = np.column_stack([ll, ur, ul])
    triangles = np.empty((2 * n * n, 3), dtype=np.int32)
    triangles[0::2] = lower
    triangles[1::2] = upper

    def vid(i, j):
        return j * (n + 1) + i

    cell = lambda i, j: j * n + i  # noqa: E731

    facet_vertices = np.concatenate(
        [
            np.column_stack([vid(k, 0), vid(k + 1, 0)]),        # bottom
            np.column_stack([vid(n, k), vid(n, k + 1)]),        # right
            np.column_stack([vid(k, n), vid(k + 1, n)]),        # top
            np.column_stack([vid(0, k), vid(0, k + 1)]),        # left
        ]
    )
    facet_parents = np.concatenate(
        [
            2 * cell(k, 0),          # lower triangle owns the bottom edge
            2 * cell(n - 1, k),      # lower triangle owns the right edge
            2 * cell(k, n - 1) + 1,  # upper triangle owns the top edge
            2 * cell(0, k) + 1,      # upper triangle owns the left edge
        ]
    )
    side = np.repeat(np.arange(4), n)
    normals = np.array([[0.0, -1.0], [1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
    facet_normals = normals[side]
    facet_lengths = np.full(4 * n, 1.0 / n)

    return Mesh(
        grid_n=n,
        vertices=_freeze(vertices),
        triangles=_freeze(triangles),
        facet_vertices=_freeze(facet_vertices),
        facet_normals=_freeze(facet_normals),
        facet_lengths=_freeze(facet_lengths),
        facet_parents=_freeze(facet_parents),
        h_grid=1.0 / n,
        h_max=math.sqrt(2.0) / n,
    )


@dataclass(frozen=True)
class OffsetContour:
    """Boundary of the inner square at distance delta from the boundary."""

    delta: float
    corners: np.ndarray = field(repr=False)

    @property
    def segments(self) -> np.ndarray:
        """(4, 2, 2) array of [start, end] per side, counter-clockwise."""
        return np.stack([self.corners[:-1], self.corners[1:]], axis=1)

    @property
    def perimeter(self) -> float:
        diffs = self.corners[1:] - self.corners[:-1]
        return float(np.sum(np.hypot(diffs[:, 0], diffs[:, 1])))


def offset_contour(delta: float) -> OffsetContour:
    """Contour of points at distance delta from the unit-square boundary.

    delta = 0 returns the boundary itself; delta must stay below the
    inradius 1/2.
    """
    if not delta >= 0.0:  # written so that NaN fails it too
        raise ValueError(f"offset must be nonnegative, got {delta}")
    if delta >= 0.5:
        raise ValueError(f"offset exceeds inradius: delta={delta} >= 0.5")
    lo, hi = delta, 1.0 - delta
    corners = np.array([[lo, lo], [hi, lo], [hi, hi], [lo, hi], [lo, lo]])
    return OffsetContour(delta=float(delta), corners=_freeze(corners))


def distance_weight(x, delta_prime: float = 0.0):
    """Shifted boundary-distance weight max(0, dist(x, boundary) - delta').

    Uses the closed form min(x, 1-x, y, 1-y) for the square; points
    outside the closed square clamp to distance 0. Accepts a single point
    or an (..., 2) array and broadcasts.
    """
    if not delta_prime >= 0.0:  # written so that NaN fails it too
        raise ValueError(f"shift must be nonnegative, got {delta_prime}")
    x = np.asarray(x, dtype=float)
    rho = np.minimum(
        np.minimum(x[..., 0], 1.0 - x[..., 0]),
        np.minimum(x[..., 1], 1.0 - x[..., 1]),
    )
    out = np.maximum(0.0, rho - delta_prime)
    return float(out) if out.ndim == 0 else out


def _ranks(counts: np.ndarray) -> np.ndarray:
    """0, 1, ..., c - 1 for each count c, concatenated."""
    return np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)


def split_segments_at_mesh_lines(mesh: Mesh, p0, p1) -> tuple[np.ndarray, np.ndarray]:
    """Break a batch of axis-aligned segments at every mesh line each crosses.

    Mesh lines are the vertical/horizontal grid lines i/n and the cell
    diagonals y = x + k/n. p0 and p1 are (m, 2) start and end points.
    Returns (t, counts): each segment's sorted breakpoint parameters in
    [0, 1] (including the ends), concatenated in segment order, and how
    many belong to each segment. Every sub-segment lies inside a single
    triangle, so integrands stay smooth on it, up to the 1e-12 merge
    tolerance: cuts closer than that are merged, so a sub-segment may reach
    into a sliver of the next triangle, and consumers pick a piece's
    triangle from its midpoint, not from an end. Each segment's breakpoints
    are the same whatever else is in the batch.
    """
    p0 = np.asarray(p0, dtype=float).reshape(-1, 2)
    p1 = np.asarray(p1, dtype=float).reshape(-1, 2)
    if not (np.all(np.isfinite(p0)) and np.all(np.isfinite(p1))):
        raise ValueError("segment end points must be finite")
    d = np.abs(p1 - p0)
    if np.any((d[:, 0] > 1e-14) & (d[:, 1] > 1e-14)):
        raise ValueError("only axis-aligned segments are supported")
    n = mesh.grid_n
    rows = np.arange(len(p0))
    axis = np.where(d[:, 0] > d[:, 1], 0, 1)
    a, b = p0[rows, axis], p1[rows, axis]
    lo, hi = np.where(a <= b, a, b), np.where(a <= b, b, a)
    live = hi - lo > 1e-15

    # Grid lines perpendicular to a segment sit at multiples of 1/n;
    # diagonals y = x + k/n cross at positions congruent to the fixed
    # coordinate modulo 1/n.
    fixed = p0[rows, 1 - axis]
    seg, pos = [], []
    for offset in (np.zeros(len(rows)), np.fmod(fixed, 1.0 / n)):
        j0 = np.ceil((lo - offset) * n - 1e-9).astype(np.int64)
        j1 = np.floor((hi - offset) * n + 1e-9).astype(np.int64)
        count = np.where(live, np.maximum(j1 - j0 + 1, 0), 0)
        owner = np.repeat(rows, count)
        j = j0[owner] + _ranks(count)
        seg.append(owner)
        pos.append(offset[owner] + j / n)
    seg, pos = np.concatenate(seg), np.concatenate(pos)
    tol = 1e-12 * max(1.0, n)
    inside = (pos > lo[seg] + tol) & (pos < hi[seg] - tol)
    seg, pos = seg[inside], pos[inside]
    # t grows from p0 to p1 whichever way the segment points, so sorting by
    # it orders each segment's cuts along the segment.
    cut_t = (pos - a[seg]) / (b[seg] - a[seg])
    order = np.lexsort((cut_t, seg))
    seg, cut_t = seg[order], cut_t[order]

    cuts = np.bincount(seg, minlength=len(rows))
    size = cuts + 2
    start = np.cumsum(size) - size
    t = np.empty(int(size.sum()))
    t[start] = 0.0
    t[start + size - 1] = 1.0
    t[start[seg] + 1 + _ranks(cuts)] = cut_t
    # collapse near-duplicates from coinciding grid and diagonal cuts
    keep = np.concatenate([[True], np.diff(t) > 1e-12])
    keep[start] = True
    return t[keep], np.add.reduceat(keep.astype(np.int64), start)
