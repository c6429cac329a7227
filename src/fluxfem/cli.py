"""Batch driver: convergence studies, patch tests, and dual checks.

Subcommands
-----------
converge    manufactured-solution study over levels k with n = round(4*sqrt(2)^k),
            writing one CSV row per level and fitting the slope on h <= 0.1.
patch-test  constant and affine problems at n in {2, 4, 8}; flux and
            coefficient errors must stay below 1e-9.
dual-check  dual-stability ratios over levels {8, 16, 32, 64} plus the
            error-representation residual table at n in {8, 16, 32}.

Exit codes: 0 pass, 1 tolerance failure, 2 usage/config/output error, 3
solver failure. Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import math
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .analysis import (
    ConvergenceRecord,
    boundary_l2_error,
    dual_stability_report,
    energy_error,
    error_representation_defect,
    fit_rate,
    l2_error,
    lm_error_representation_defect,
    rademacher_boundary_field,
    triple_norm_error,
)
from .fem import P1Space, TraceDG0Space, nodal_interpolant
from .flux import ExactFluxField, multiplier_flux, nitsche_flux, variational_flux
from .lagrange import SaddleConfig, assemble_dual_rhs_lm, assemble_saddle
from .linsolve import SolverError, solve_spd, solve_sym_indefinite
from .mesh import MAX_GRID_N, build_unit_square_mesh
from .nitsche import NitscheConfig, assemble_dual_rhs_nitsche, assemble_nitsche
from .problems import affine_problem, constant_problem, trig_problem

METHODS = ("nitsche", "lagrange")
VARIANTS = ("pointwise", "variational", "multiplier")
FLUX_TOL = 1e-9
COEFF_TOL = 1e-9
IDENTITY_TOL = 1e-6
BOUNDEDNESS_SPREAD = 2.0
SLOPE_WINDOW_H = 0.1
IDENTITY_VOLUME_DEGREE = 6


@dataclass(frozen=True)
class StudyConfig:
    method: str = "nitsche"
    flux_variant: str = ""  # empty means the method default
    beta: float = 10.0
    alpha: float = 0.25
    kmin: int = 0
    kmax: int = 12
    delta0: float = 0.25
    kappa: float = 0.0
    seed: int = 0
    out: str = ""
    parallel: bool = False

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}, got {self.method!r}")
        if self.kmin > self.kmax:
            raise ValueError(f"kmin={self.kmin} exceeds kmax={self.kmax}")
        variant = self.resolved_variant()
        if variant not in VARIANTS:
            raise ValueError(f"flux variant must be one of {VARIANTS}, got {variant!r}")
        if self.method == "lagrange" and variant != "multiplier":
            raise ValueError("the lagrange method recovers the multiplier flux only")
        if self.method == "nitsche" and variant == "multiplier":
            raise ValueError("the multiplier flux requires the lagrange method")
        if not 0.0 < self.delta0 < 0.5:
            raise ValueError(f"delta0 must lie in (0, 1/2), got {self.delta0}")
        for name, value in (("beta", self.beta), ("alpha", self.alpha)):
            if not 0.0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError(f"kappa must be finite and nonnegative, got {self.kappa}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.kmin < MIN_LEVEL or self.kmax > MAX_LEVEL:
            raise ValueError(
                f"levels must lie in [{MIN_LEVEL}, {MAX_LEVEL}] (grids of 1 to "
                f"MAX_GRID_N = {MAX_GRID_N} subdivisions), got {self.kmin}..{self.kmax}"
            )

    def resolved_variant(self) -> str:
        if self.flux_variant:
            return self.flux_variant
        return "multiplier" if self.method == "lagrange" else "pointwise"


def level_grid_n(k: int) -> int:
    """Subdivisions for level k, matching mesh sizes near 1/(4*sqrt(2)^k)."""
    return int(round(4.0 * np.sqrt(2.0) ** k))


# Level range with 1 <= n <= MAX_GRID_N, checked on k so that no power overflows.
MIN_LEVEL = min(k for k in range(-64, 1) if level_grid_n(k) >= 1)
MAX_LEVEL = max(k for k in range(64) if level_grid_n(k) <= MAX_GRID_N)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


def run_level(config: StudyConfig, k: int) -> ConvergenceRecord:
    problem = trig_problem()
    n = level_grid_n(k)
    mesh = build_unit_square_mesh(n)
    space = P1Space(mesh)
    exact = ExactFluxField(problem, mesh)
    variant = config.resolved_variant()

    if config.method == "nitsche":
        cfg = NitscheConfig(beta=config.beta)
        u = solve_spd(assemble_nitsche(space, cfg, problem.f, problem.g)).x
        if variant == "pointwise":
            field = nitsche_flux(u, problem.g, space, cfg)
        else:
            field = variational_flux(u, problem.g, problem.f, space)
        energy = energy_error(problem, u, space)
        dofs = space.n_dofs
    else:
        trace_space = TraceDG0Space(mesh)
        cfg = SaddleConfig(alpha=config.alpha)
        system = assemble_saddle(space, trace_space, cfg, problem.f, problem.g)
        u, lam = system.split(solve_sym_indefinite(system).x)
        field = multiplier_flux(lam, mesh)
        energy = triple_norm_error(problem, u, lam, space)
        dofs = space.n_dofs + trace_space.n_dofs

    return ConvergenceRecord(
        k=k,
        grid_n=n,
        h_grid=mesh.h_grid,
        h_max=mesh.h_max,
        dofs=dofs,
        method=config.method,
        variant=variant,
        flux_err=boundary_l2_error(field, exact, mesh),
        energy_err=energy,
        l2_err=l2_error(problem, u, space),
    )


def run_convergence(config: StudyConfig) -> list[ConvergenceRecord]:
    """One record per level k in [kmin, kmax], in level order."""
    ks = list(range(config.kmin, config.kmax + 1))
    if config.parallel and len(ks) > 1:
        with ThreadPoolExecutor(max_workers=min(4, len(ks))) as pool:
            records = list(pool.map(lambda k: run_level(config, k), ks))
    else:
        records = [run_level(config, k) for k in ks]
    return sorted(records, key=lambda r: r.k)


def records_to_csv(records) -> str:
    lines = ["k,n,h_grid,h_max,dofs,method,variant,flux_err,energy_err,l2_err"]
    for r in records:
        lines.append(
            f"{r.k},{r.grid_n},{_fmt(r.h_grid)},{_fmt(r.h_max)},{r.dofs},"
            f"{r.method},{r.variant},{_fmt(r.flux_err)},{_fmt(r.energy_err)},{_fmt(r.l2_err)}"
        )
    return "\n".join(lines) + "\n"


def run_patch_test(config: StudyConfig) -> list[str]:
    """Constant and affine consistency checks; returns failure descriptions."""
    failures = []
    problems = [constant_problem(1.0), affine_problem(1.0, 1.0, 0.0)]
    for problem in problems:
        for n in (2, 4, 8):
            mesh = build_unit_square_mesh(n)
            space = P1Space(mesh)
            exact_coeffs = nodal_interpolant(problem.u, space)
            exact = ExactFluxField(problem, mesh)
            tag = f"{problem.name} n={n}"
            if config.method == "nitsche":
                cfg = NitscheConfig(beta=config.beta)
                u = solve_spd(assemble_nitsche(space, cfg, problem.f, problem.g)).x
                flux_err = boundary_l2_error(nitsche_flux(u, problem.g, space, cfg), exact, mesh)
                coeff_err = float(np.max(np.abs(u - exact_coeffs)))
            else:
                trace_space = TraceDG0Space(mesh)
                cfg = SaddleConfig(alpha=config.alpha)
                system = assemble_saddle(space, trace_space, cfg, problem.f, problem.g)
                u, lam = system.split(solve_sym_indefinite(system).x)
                flux_err = boundary_l2_error(multiplier_flux(lam, mesh), exact, mesh)
                t = np.array([0.5])
                lam_exact = -exact.facet_values(t)[:, 0]
                coeff_err = float(
                    max(np.max(np.abs(u - exact_coeffs)), np.max(np.abs(lam - lam_exact)))
                )
            if flux_err > FLUX_TOL:
                failures.append(f"{config.method} {tag}: flux error {flux_err:.3e}")
            if coeff_err > COEFF_TOL:
                failures.append(f"{config.method} {tag}: coefficient error {coeff_err:.3e}")
    return failures


def run_dual_check(config: StudyConfig):
    """Stability ratio table, identity residual table, and gate failures."""
    levels = [8, 16, 32, 64]
    reports = dual_stability_report(
        config.method,
        levels,
        delta_0=config.delta0,
        kappa=config.kappa,
        seed=config.seed,
        beta=config.beta,
        alpha=config.alpha,
    )
    failures = []
    sums = [sum(r.ratios().values()) for r in reports]
    spread = max(sums) / min(sums)
    if spread > BOUNDEDNESS_SPREAD:
        failures.append(
            f"{config.method} kappa={config.kappa}: summed stability ratio spread "
            f"{spread:.3f} exceeds {BOUNDEDNESS_SPREAD}"
        )

    problem = trig_problem()
    identity_rows = []
    for n in (8, 16, 32):
        # One factorization per level: the primal rhs and the five dual rhs
        # are the columns of one solve.
        mesh = build_unit_square_mesh(n)
        space = P1Space(mesh)
        psis = [rademacher_boundary_field(mesh, seed=config.seed + s) for s in range(5)]
        if config.method == "nitsche":
            cfg = NitscheConfig(beta=config.beta)
            system = assemble_nitsche(
                space, cfg, problem.f, problem.g, volume_degree=IDENTITY_VOLUME_DEGREE
            )
            duals = [assemble_dual_rhs_nitsche(space, cfg, psi) for psi in psis]
            u, *phis = solve_spd(replace(system, rhs=np.column_stack([system.rhs, *duals]))).x.T
            defects = [
                error_representation_defect(
                    problem, u, space, cfg, psi, phi, volume_degree=IDENTITY_VOLUME_DEGREE
                )
                for psi, phi in zip(psis, phis)
            ]
        else:
            trace_space = TraceDG0Space(mesh)
            cfg = SaddleConfig(alpha=config.alpha)
            system = assemble_saddle(
                space, trace_space, cfg, problem.f, problem.g,
                volume_degree=IDENTITY_VOLUME_DEGREE,
            )
            duals = [assemble_dual_rhs_lm(space, trace_space, psi) for psi in psis]
            primal, *pairs = solve_sym_indefinite(
                replace(system, rhs=np.column_stack([system.rhs, *duals]))
            ).x.T
            u, lam = system.split(primal)
            defects = [
                lm_error_representation_defect(
                    problem, u, lam, space, trace_space, cfg, psi, *system.split(pair),
                    volume_degree=IDENTITY_VOLUME_DEGREE,
                )
                for psi, pair in zip(psis, pairs)
            ]
        worst = max(0.0, *defects)
        identity_rows.append((n, worst))
        if worst > IDENTITY_TOL:
            failures.append(
                f"{config.method} n={n}: identity residual {worst:.3e} exceeds {IDENTITY_TOL}"
            )
    return reports, identity_rows, failures


def dual_check_text(config: StudyConfig, reports, identity_rows) -> str:
    lines = ["method,kappa,n,h_grid,psi_norm_sq,Q1,Q2,Q3,Q4,Q5,ratio_sum"]
    for r in reports:
        ratios = r.ratios()
        q5 = _fmt(r.q5) if r.q5 is not None else ""
        lines.append(
            f"{r.method},{_fmt(r.kappa)},{r.grid_n},{_fmt(r.h_grid)},{_fmt(r.psi_norm_sq)},"
            f"{_fmt(r.q1)},{_fmt(r.q2)},{_fmt(r.q3)},{_fmt(r.q4)},{q5},"
            f"{_fmt(sum(ratios.values()))}"
        )
    lines.append("")
    lines.append("method,n,identity_residual")
    for n, worst in identity_rows:
        lines.append(f"{config.method},{n},{_fmt(worst)}")
    return "\n".join(lines) + "\n"


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                values[key.replace("-", "_")] = value
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


_FIELD_TYPES = {f.name: f.type for f in fields(StudyConfig)}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    if kind == "bool" or isinstance(kind, type) and kind is bool:
        if value.lower() not in _TRUE + _FALSE:
            raise ValueError(f"{key} must be one of {'/'.join(_TRUE)} or {'/'.join(_FALSE)}, got {value!r}")
        return value.lower() in _TRUE
    if kind in ("int",) or kind is int:
        return int(value)
    if kind in ("float",) or kind is float:
        return float(value)
    return value


def build_config(args: argparse.Namespace) -> StudyConfig:
    values = {}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _coerce(key, value)
    config = StudyConfig(**values)
    overrides = {}
    for name in _FIELD_TYPES:
        flag = getattr(args, name, None)
        if flag is not None and flag is not False:
            overrides[name] = flag
    return replace(config, **overrides) if overrides else config


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxfem",
        description="Poisson boundary-flux studies with weak Dirichlet conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
        ("converge", "manufactured-solution convergence study"),
        ("patch-test", "constant and affine consistency checks"),
        ("dual-check", "dual stability ratios and identity residuals"),
    ):
        cmd = sub.add_parser(name, help=helptext)
        cmd.add_argument("--method", choices=METHODS)
        cmd.add_argument("--flux-variant", dest="flux_variant", choices=VARIANTS)
        cmd.add_argument("--beta", type=float)
        cmd.add_argument("--alpha", type=float)
        cmd.add_argument("--kmin", type=int)
        cmd.add_argument("--kmax", type=int)
        cmd.add_argument("--delta0", type=float)
        cmd.add_argument("--kappa", type=float)
        cmd.add_argument("--seed", type=int)
        cmd.add_argument("--config", help="key=value config file; flags win")
        cmd.add_argument("--out", help="output file path (default: stdout)")
        cmd.add_argument("--parallel", action="store_true", default=False)
    return parser


def _emit(text: str, out: str):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = build_config(args)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        if args.command == "converge":
            records = run_convergence(config)
            _emit(records_to_csv(records), config.out)
            window = [r for r in records if r.h_grid <= SLOPE_WINDOW_H]
            if len(window) >= 3:
                slope = fit_rate(window)
                print(f"fitted flux slope (h_grid <= {SLOPE_WINDOW_H}): {slope:.4f}")
            return 0
        if args.command == "patch-test":
            failures = run_patch_test(config)
            text = "".join(f"FAIL {line}\n" for line in failures) or "patch tests passed\n"
            _emit(text, config.out)
            return 1 if failures else 0
        reports, identity_rows, failures = run_dual_check(config)
        _emit(dual_check_text(config, reports, identity_rows), config.out)
        for line in failures:
            print(f"FAIL {line}", file=sys.stderr)
        return 1 if failures else 0
    except SolverError as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: cannot write {config.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
