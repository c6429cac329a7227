"""Manufactured Poisson problems with closed-form solution and flux.

Each problem bundles u, grad u, f = -laplacian(u) and g = u restricted to
the boundary, so every error quantity downstream has an exact reference.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class ManufacturedProblem:
    name: str
    u: Callable
    grad_u: Callable
    f: Callable

    def g(self, x, y):
        """Dirichlet data: the trace of u."""
        return self.u(x, y)

    def sigma_n(self, x, y, normal):
        """Exact boundary flux n . grad(u); `normal` broadcasts over points."""
        gx, gy = self.grad_u(x, y)
        normal = np.asarray(normal, dtype=float)
        return normal[..., 0] * gx + normal[..., 1] * gy


def constant_problem(value: float = 1.0) -> ManufacturedProblem:
    """u = value: the affine problem with zero slope."""
    return replace(affine_problem(0.0, 0.0, value), name=f"constant({value})")


def affine_problem(a: float = 1.0, b: float = 1.0, c: float = 0.0) -> ManufacturedProblem:
    """u = a*x + b*y + c, harmonic; the patch-test workhorse."""
    return ManufacturedProblem(
        name=f"affine({a},{b},{c})",
        u=lambda x, y: a * np.asarray(x, dtype=float) + b * np.asarray(y, dtype=float) + c,
        grad_u=lambda x, y: (
            np.full_like(np.asarray(x, dtype=float), a),
            np.full_like(np.asarray(x, dtype=float), b),
        ),
        f=lambda x, y: np.zeros_like(np.asarray(x, dtype=float)),
    )


def trig_problem() -> ManufacturedProblem:
    """u = cos(2 pi x) cos(2 pi y) + sin(2 pi x) sin(2 pi y) = cos(2 pi (x-y)).

    f = -laplacian(u) = 8 pi^2 u, and the boundary flux on each side is a
    single sine hump, so its L2(boundary) norm is exactly 2*sqrt(2)*pi.
    """
    tau = 2.0 * np.pi

    def u(x, y):
        return np.cos(tau * (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))

    def grad_u(x, y):
        s = np.sin(tau * (np.asarray(x, dtype=float) - np.asarray(y, dtype=float)))
        return (-tau * s, tau * s)

    def f(x, y):
        return 2.0 * tau * tau * u(x, y)

    return ManufacturedProblem(name="trig", u=u, grad_u=grad_u, f=f)
