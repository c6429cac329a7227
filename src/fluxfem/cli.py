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
solver failure or out of memory. A converge failure names the level k and
grid n; a dual-check or patch-test failure names its stage and n.
Identical configurations produce byte-identical output files.
"""

from __future__ import annotations

import argparse
import sys
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    ConvergenceRecord,
    boundary_l2_error,
    dual_stability_report,
    error_norms,
    error_representation_residuals,
    fit_rate,
    rademacher_boundary_field,
)
from .fem import P1Space, assemble, nodal_interpolant
from .flux import exact_flux, multiplier_flux, nitsche_flux, variational_flux
from .lagrange import SaddleConfig
from .linsolve import SolverError, solve_spd, solve_sym_indefinite
from .mesh import MAX_GRID_N, build_unit_square_mesh
from .nitsche import NitscheConfig
from .problems import affine_problem, constant_problem, trig_problem

# Each method's flux recoveries; the first is the method's default.
VARIANTS = {"nitsche": ("pointwise", "variational"), "lagrange": ("multiplier",)}
METHODS = tuple(VARIANTS)
FLUX_TOL = 1e-9
COEFF_TOL = 1e-9
IDENTITY_TOL = 1e-6
BOUNDEDNESS_SPREAD = 2.0
SLOPE_WINDOW_H = 0.1


@dataclass(frozen=True)
class StudyConfig:
    method: str = "nitsche"
    flux_variant: str = ""  # empty means the method default
    beta: float = NitscheConfig.beta
    alpha: float = SaddleConfig.alpha
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
        if self.resolved_variant() not in VARIANTS[self.method]:
            raise ValueError(
                f"the {self.method} method recovers the {' or '.join(VARIANTS[self.method])} "
                f"flux, got {self.flux_variant!r}"
            )
        if not 0.0 < self.delta0 < 0.5:
            raise ValueError(f"delta0 must lie in (0, 1/2), got {self.delta0}")
        # the method configs own the beta, alpha and kappa rules
        NitscheConfig(beta=self.beta, kappa=self.kappa)
        SaddleConfig(alpha=self.alpha, kappa=self.kappa)
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.kmin < MIN_LEVEL or self.kmax > MAX_LEVEL:
            raise ValueError(
                f"levels must lie in [{MIN_LEVEL}, {MAX_LEVEL}] (grids of 1 to "
                f"MAX_GRID_N = {MAX_GRID_N} subdivisions), got {self.kmin}..{self.kmax}"
                + (f"; {_SIZE_LIMIT}" if self.kmax > MAX_LEVEL else "")
            )

    def resolved_variant(self) -> str:
        return self.flux_variant or VARIANTS[self.method][0]

    def method_config(self, kappa: float = 0.0) -> NitscheConfig | SaddleConfig:
        """The method's config with shift kappa; below here its type picks the method."""
        if self.method == "nitsche":
            return NitscheConfig(beta=self.beta, kappa=kappa)
        return SaddleConfig(alpha=self.alpha, kappa=kappa)


def level_grid_n(k: int) -> int:
    """Subdivisions for level k, matching mesh sizes near 1/(4*sqrt(2)^k)."""
    return int(round(4.0 * np.sqrt(2.0) ** k))


# Level range with 1 <= n <= MAX_GRID_N, checked on k so that no power overflows.
MIN_LEVEL = min(k for k in range(-64, 1) if level_grid_n(k) >= 1)
MAX_LEVEL = max(k for k in range(64) if level_grid_n(k) <= MAX_GRID_N)
# Why the range stops there: one level alone in a fresh process (README's size
# table); k = 18 is extrapolated from the factor's growth over k = 14..16.
_SIZE_LIMIT = (
    "k=17 (n=1448) took about 20 s and 3.0 GiB on a 2-vCPU 8 GB VM, "
    "and k=18 (n=2048) would need about 5.9 GiB for its factorization alone"
)


def _fmt(x: float) -> str:
    return f"{x:.11e}"


@contextmanager
def _failure_site(site: str):
    """Prefix a solver failure or exhausted memory in the block with where it happened.

    Overflow, invalid operations and division by zero in the block are
    solver failures too; underflow stays silent.
    """
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            yield
    except SolverError as exc:
        raise type(exc)(f"{site}: {exc}") from exc
    except FloatingPointError as exc:
        raise SolverError(f"{site}: {exc}") from exc
    except MemoryError as exc:
        raise MemoryError(f"{site}: {exc}".removesuffix(": ")) from exc


def _solve_level(cfg: NitscheConfig | SaddleConfig, variant: str, problem, n: int):
    """(space, u, lam, flux) on the n-grid: the discrete solution, with lam None
    for Nitsche's method, and its flux at the facet points recovered by `variant`."""
    space = P1Space(build_unit_square_mesh(n))
    system = assemble(space, cfg, problem.f, problem.g)
    solve = solve_sym_indefinite if system.n_multiplier else solve_spd
    u, lam = system.split(solve(system).x)
    if variant == "pointwise":
        flux = nitsche_flux(u, problem.g, space, cfg)
    elif variant == "variational":
        flux = variational_flux(u, problem.g, problem.f, space)
    else:
        flux = multiplier_flux(lam, space.mesh)
    return space, u, lam, flux


def run_level(config: StudyConfig, k: int) -> ConvergenceRecord:
    """One level's record; a solver failure or exhausted memory names k and n."""
    n = level_grid_n(k)
    with _failure_site(f"k={k} n={n}"):
        problem = trig_problem()
        variant = config.resolved_variant()
        space, u, lam, flux = _solve_level(config.method_config(), variant, problem, n)
        energy, l2 = error_norms(problem, space, u, lam)
        return ConvergenceRecord(
            k=k,
            grid_n=n,
            h_grid=space.mesh.h_grid,
            h_max=space.mesh.h_max,
            dofs=space.n_dofs + (0 if lam is None else lam.size),
            method=config.method,
            variant=variant,
            flux_err=boundary_l2_error(flux, exact_flux(problem, space), space),
            energy_err=energy,
            l2_err=l2,
        )


def run_convergence(config: StudyConfig) -> list[ConvergenceRecord]:
    """One record per level k in [kmin, kmax], in level order."""
    ks = list(range(config.kmin, config.kmax + 1))
    if config.parallel and len(ks) > 1:
        with ThreadPoolExecutor(max_workers=min(4, len(ks))) as pool:
            return list(pool.map(lambda k: run_level(config, k), ks))
    return [run_level(config, k) for k in ks]


def records_to_csv(records) -> str:
    lines = ["k,n,h_grid,h_max,dofs,method,variant,flux_err,energy_err,l2_err"]
    for r in records:
        lines.append(
            f"{r.k},{r.grid_n},{_fmt(r.h_grid)},{_fmt(r.h_max)},{r.dofs},"
            f"{r.method},{r.variant},{_fmt(r.flux_err)},{_fmt(r.energy_err)},{_fmt(r.l2_err)}"
        )
    return "\n".join(lines) + "\n"


def run_patch_test(config: StudyConfig) -> list[str]:
    """Constant and affine consistency checks with the method's default
    recovery; returns failure descriptions."""
    failures = []
    cfg, variant = config.method_config(), VARIANTS[config.method][0]
    problems = [constant_problem(1.0), affine_problem(1.0, 1.0, 0.0)]
    for problem in problems:
        for n in (2, 4, 8):
            tag = f"{problem.name} n={n}"
            with _failure_site(f"patch-test {tag}"):
                space, u, lam, flux = _solve_level(cfg, variant, problem, n)
            exact = exact_flux(problem, space)
            coeff_err = float(np.max(np.abs(u - nodal_interpolant(problem.u, space))))
            if lam is not None:
                # lambda = -sigma_n, constant on each facet for the affine problems
                coeff_err = max(coeff_err, float(np.max(np.abs(lam + exact[:, 0]))))
            flux_err = boundary_l2_error(flux, exact, space)
            if flux_err > FLUX_TOL:
                failures.append(f"{config.method} {tag}: flux error {flux_err:.3e}")
            if coeff_err > COEFF_TOL:
                failures.append(f"{config.method} {tag}: coefficient error {coeff_err:.3e}")
    return failures


def run_dual_check(config: StudyConfig):
    """Stability ratio table, identity residual table, and gate failures."""
    spaces = [P1Space(build_unit_square_mesh(n)) for n in (8, 16, 32, 64)]
    shifted, unshifted = config.method_config(config.kappa), config.method_config()
    reports = []
    for space in spaces:
        with _failure_site(f"dual-check stability n={space.mesh.grid_n}"):
            psi = rademacher_boundary_field(space.mesh, config.seed)
            reports.append(dual_stability_report(space, shifted, psi, config.delta0))
    failures = []
    sums = [sum(r.ratios().values()) for r in reports]
    vanished = ", ".join(str(r.grid_n) for r, total in zip(reports, sums) if total == 0.0)
    if vanished:
        failures.append(f"{config.method} kappa={config.kappa}: summed stability ratio is 0 at n={vanished}")
    elif (spread := max(sums) / min(sums)) > BOUNDEDNESS_SPREAD:
        failures.append(
            f"{config.method} kappa={config.kappa}: summed stability ratio spread "
            f"{spread:.3f} exceeds {BOUNDEDNESS_SPREAD}"
        )

    problem = trig_problem()
    identity_rows = []
    for space in spaces[:3]:
        n = space.mesh.grid_n
        psis = [rademacher_boundary_field(space.mesh, seed=config.seed + s) for s in range(5)]
        with _failure_site(f"dual-check identity n={n}"):
            worst = max(0.0, *error_representation_residuals(problem, space, unshifted, psis))
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
            f"{config.method},{_fmt(config.kappa)},{r.grid_n},{_fmt(r.h_grid)},{_fmt(r.psi_norm_sq)},"
            f"{_fmt(r.q1)},{_fmt(r.q2)},{_fmt(r.q3)},{_fmt(r.q4)},{q5},"
            f"{_fmt(sum(ratios.values()))}"
        )
    lines.append("")
    lines.append("method,n,identity_residual")
    for n, worst in identity_rows:
        lines.append(f"{config.method},{n},{_fmt(worst)}")
    return "\n".join(lines) + "\n"


def _read_config_file(path: str) -> dict:
    values, lines = {}, {}
    try:
        with open(path, encoding="utf-8") as handle:
            for lineno, raw in enumerate(handle, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
                key, value = (part.strip() for part in line.split("=", 1))
                key = key.replace("-", "_")
                if key in lines:
                    raise ValueError(f"{path}:{lineno}: {key} set again (first on line {lines[key]})")
                values[key], lines[key] = value, lineno
    except OSError as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


# Field types are annotation strings under `from __future__ import annotations`.
_FIELD_TYPES = {f.name: f.type for f in fields(StudyConfig)}
_PARSERS = {"int": (int, "an int"), "float": (float, "a float"), "str": (str, "a string")}
_TRUE, _FALSE = ("1", "true", "yes", "on"), ("0", "false", "no", "off")


def _coerce(key: str, value: str):
    kind = _FIELD_TYPES[key]
    if kind != "bool":
        parse, expected = _PARSERS[kind]
        try:
            return parse(value)
        except ValueError:
            raise ValueError(f"{key} must be {expected}, got {value!r}") from None
    if value.lower() not in _TRUE + _FALSE:
        raise ValueError(f"{key} must be one of {'/'.join(_TRUE)} or {'/'.join(_FALSE)}, got {value!r}")
    return value.lower() in _TRUE


def build_config(args: argparse.Namespace) -> StudyConfig:
    """The file's values with the flags given on top, validated once."""
    values = {}
    if args.config:
        for key, value in _read_config_file(args.config).items():
            if key not in _FIELD_TYPES:
                raise ValueError(f"unknown config key {key!r}")
            values[key] = _coerce(key, value)
    for name in _FIELD_TYPES:
        if (flag := getattr(args, name, None)) is not None:
            values[name] = flag
    return StudyConfig(**values)


# Flags each subcommand reads; a flag it would ignore is not offered, so
# passing one is a usage error. Config-file keys are accepted by all.
_COMMANDS = {
    "converge": (
        "manufactured-solution convergence study",
        ("method", "flux_variant", "beta", "alpha", "kmin", "kmax", "parallel"),
    ),
    "patch-test": ("constant and affine consistency checks", ("method", "beta", "alpha")),
    "dual-check": (
        "dual stability ratios and identity residuals",
        ("method", "beta", "alpha", "delta0", "kappa", "seed"),
    ),
}
_CHOICES = {"method": METHODS, "flux_variant": tuple(v for vs in VARIANTS.values() for v in vs)}


def _flag_options(name: str) -> dict:
    """argparse options for a setting's flag, parsed as its StudyConfig field;
    an unset flag reads None, so the config file's value stands."""
    if _FIELD_TYPES[name] == "bool":
        return {"action": "store_true", "default": None}
    return {"type": _PARSERS[_FIELD_TYPES[name]][0], "choices": _CHOICES.get(name)}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fluxfem",
        description="Poisson boundary-flux studies with weak Dirichlet conditions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (helptext, flags) in _COMMANDS.items():
        cmd = sub.add_parser(name, help=helptext)
        for flag in flags:
            cmd.add_argument("--" + flag.replace("_", "-"), dest=flag, **_flag_options(flag))
        cmd.add_argument("--config", help="key=value config file; flags win")
        cmd.add_argument("--out", help="output file path (default: stdout)")
        cmd.set_defaults(command_parser=cmd)
    return parser


def _emit(text: str, out: str):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:  # reported with the usage of the subcommand, which lists its flags
        args.command_parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
                slope = fit_rate([(r.h_grid, r.flux_err) for r in window])
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
    except MemoryError as exc:
        print(f"out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"output error: cannot write {config.out or 'stdout'}: {exc.strerror or exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
