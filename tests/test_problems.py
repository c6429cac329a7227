"""The manufactured problems are self-consistent, and their exact flux is
read only on the boundary, never at a corner.

Each problem's grad_u is checked against central differences of u, its f
against the 5-point -laplacian(u), and its sigma_n against n.grad(u) and
the central difference of u along n, at seeded points.
"""

import numpy as np
import pytest

from fluxfem.cli import main
from fluxfem.problems import ManufacturedProblem, affine_problem, constant_problem, trig_problem

PROBLEMS = {
    "trig": trig_problem(),
    "affine(1,1,0)": affine_problem(1.0, 1.0, 0.0),
    "affine(2,-3,0.5)": affine_problem(2.0, -3.0, 0.5),
    "constant(1.0)": constant_problem(1.0),
}
# outward unit normals of the bottom, right, top and left sides
SIDES = {"bottom": (0.0, -1.0), "right": (1.0, 0.0), "top": (0.0, 1.0), "left": (-1.0, 0.0)}


def interior_points(seed=39, m=50):
    x, y = np.random.default_rng(seed).uniform(0.05, 0.95, (2, m))
    return x, y


def side_points(normal, seed=39, m=50):
    """m seeded points inside the side with outward normal `normal`."""
    s = np.random.default_rng(seed).uniform(0.0, 1.0, m)
    nx, ny = normal
    x = s if nx == 0.0 else np.full(m, max(nx, 0.0))
    y = s if ny == 0.0 else np.full(m, max(ny, 0.0))
    return x, y


def test_constant_problem_is_the_affine_one_with_zero_slope():
    """The patch-test messages quote the constant problem's own name."""
    const, affine = constant_problem(1.0), affine_problem(0.0, 0.0, 1.0)
    assert const.name == "constant(1.0)"
    x, y = interior_points()
    for a, b in ((const.u, affine.u), (const.grad_u, affine.grad_u), (const.f, affine.f)):
        assert np.array_equal(a(x, y), b(x, y))
    assert np.array_equal(const.u(x, y), np.ones_like(x))


@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS)
def test_gradient_matches_central_differences(problem):
    x, y = interior_points()
    h = 1e-6
    gx, gy = problem.grad_u(x, y)
    dx = (problem.u(x + h, y) - problem.u(x - h, y)) / (2.0 * h)
    dy = (problem.u(x, y + h) - problem.u(x, y - h)) / (2.0 * h)
    assert np.max(np.abs(gx - dx)) <= 1e-7
    assert np.max(np.abs(gy - dy)) <= 1e-7


@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS)
def test_source_is_minus_the_five_point_laplacian(problem):
    x, y = interior_points()
    h = 1e-3
    five_point = (
        4.0 * problem.u(x, y)
        - problem.u(x + h, y)
        - problem.u(x - h, y)
        - problem.u(x, y + h)
        - problem.u(x, y - h)
    ) / (h * h)
    # the truncation error is h^2/12 |u_xxxx + u_yyyy|, about 3e-4 for trig
    assert np.max(np.abs(np.broadcast_to(problem.f(x, y), x.shape) - five_point)) <= 1e-3


@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("problem", PROBLEMS.values(), ids=PROBLEMS)
def test_flux_is_the_normal_derivative_on_each_side(problem, side):
    normal = SIDES[side]
    x, y = side_points(normal)
    sigma = problem.sigma_n(x, y, normal)
    gx, gy = problem.grad_u(x, y)
    assert np.array_equal(sigma, normal[0] * gx + normal[1] * gy)
    h = 1e-6
    nx, ny = normal
    step = (problem.u(x + h * nx, y + h * ny) - problem.u(x - h * nx, y - h * ny)) / (2.0 * h)
    assert np.max(np.abs(sigma - step)) <= 1e-7


@pytest.mark.parametrize(
    "argv",
    [
        ["converge", "--kmin", "0", "--kmax", "1", "--method", "nitsche"],
        ["converge", "--kmin", "0", "--kmax", "1", "--method", "nitsche", "--flux-variant", "variational"],
        ["converge", "--kmin", "0", "--kmax", "1", "--method", "lagrange"],
        ["patch-test", "--method", "nitsche"],
        ["patch-test", "--method", "lagrange"],
        ["dual-check", "--method", "nitsche"],
        ["dual-check", "--method", "lagrange"],
    ],
)
def test_exact_flux_is_read_on_the_boundary_away_from_corners(monkeypatch, capsys, argv):
    """A corner-singular problem's flux is infinite at its corner, so no run may
    ask for sigma_n there: every point lies exactly on a side of the square,
    and none within 1e-12 of a corner."""
    points, sigma_n = [], ManufacturedProblem.sigma_n

    def recorded(self, x, y, normal):
        points.append(np.column_stack([c.ravel() for c in np.broadcast_arrays(x, y)]))
        return sigma_n(self, x, y, normal)

    monkeypatch.setattr(ManufacturedProblem, "sigma_n", recorded)
    assert main(argv) == 0
    capsys.readouterr()
    assert points
    x, y = np.concatenate(points).T
    assert np.array_equal(np.minimum(np.minimum(x, 1.0 - x), np.minimum(y, 1.0 - y)), np.zeros_like(x))
    corners = np.array([(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)])
    distance = np.hypot(x[:, None] - corners[:, 0], y[:, None] - corners[:, 1])
    assert np.min(distance) > 1e-12
