"""Spans around fluxfem's public functions, recorded from outside the package.

While a Tracer is entered, every public function defined in one of LAYERS,
every public method of a class defined there, and `__init__` of those that
are not dataclasses, is replaced at every module binding its callers use
(`fluxfem.cli.solve_spd`, `fluxfem.analysis.eval_discrete_many`, ...) by a
wrapper that records a span: name, start, end, parent span and op id. An op
is one root call, here `cli.main`. Leaving the Tracer puts the originals back.

The two linsolve entry points are also certified: each matrix is
fingerprinted and each SolveResult's inertia and residual checked. That
work runs in `trace.certify` spans, so no fluxfem layer is charged for it.
"""

from __future__ import annotations

import functools
import hashlib
import resource
import statistics
import sys
from dataclasses import dataclass, is_dataclass
from time import perf_counter
from types import FunctionType

LAYERS = ("mesh", "fem", "nitsche", "lagrange", "linsolve", "flux", "analysis", "cli")
CERTIFY = "trace.certify"
CONTOUR = "analysis.contour_l2_norm_discrete"
# Residual bounds the solver promises (README "Solver contracts").
RESIDUAL_TOL = {"linsolve.solve_spd": 1e-10, "linsolve.solve_sym_indefinite": 1e-9}

# Per-layer counts; each must repeat exactly from pass to pass.
COUNTS = tuple(f"{layer}.calls" for layer in LAYERS) + (
    "linsolve.dofs",
    "linsolve.nnz",
    "linsolve.distinct_matrices",
    "linsolve.neg_pivots",
    "linsolve.failed",
)
# (name, unit) of every metric layer_metrics returns, then trace.overhead_s.
METRICS = (
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    *((f"{layer}.calls", "count") for layer in LAYERS),
    ("linsolve.max_call_s", "s"),
    ("linsolve.dofs", "count"),
    ("linsolve.nnz", "count"),
    ("linsolve.rss_growth_mb", "MiB"),
    ("linsolve.distinct_matrices", "count"),
    ("linsolve.useful_ratio", "ratio"),
    ("linsolve.neg_pivots", "count"),
    ("linsolve.residual_max", "ratio"),
    ("linsolve.failed", "count"),
    ("analysis.contour_s", "s"),
    ("trace.overhead_s", "s"),
)


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans, -1 for a root
    op: int


@dataclass(frozen=True)
class SolveRecord:
    op: int
    dim: int
    nnz: int
    fingerprint: bytes
    neg_pivots: int
    residual: float
    rss_growth_kib: int
    problems: tuple[str, ...]


def _maxrss_kib() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _fingerprint(matrix) -> tuple[bytes, int, int]:
    csr = matrix.tocsr()
    digest = hashlib.blake2b(repr(csr.shape).encode(), digest_size=16)
    for array in (csr.indptr, csr.indices, csr.data):
        digest.update(array.tobytes())
    return digest.digest(), csr.shape[0], csr.nnz


def _certify(name: str, system, result, dim: int) -> list[str]:
    """Inertia (n, 0, 0) for SPD solves, n_multiplier negative pivots for saddle ones."""
    if name == "linsolve.solve_spd":
        want = (dim, 0, 0)
    else:
        want = (system.n_primal, system.n_multiplier, 0)
    problems = []
    if tuple(result.inertia) != want:
        problems.append(f"{name}: inertia {tuple(result.inertia)}, want {want}")
    if not result.residual <= RESIDUAL_TOL[name]:
        problems.append(f"{name}: residual {result.residual:.3e} above {RESIDUAL_TOL[name]:.0e}")
    return problems


class Tracer:
    """Records spans and solve certificates while entered; see the module docstring."""

    def __init__(self):
        self.spans: list[Span] = []
        self.solves: list[SolveRecord] = []
        self._stack: list[int] = []
        self._op = -1
        self._restore: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else -1
        if parent < 0:
            self._op += 1
        span = Span(name, perf_counter(), 0.0, parent, self._op)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span):
        span.end = perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(span)

        return traced

    def _wrap_solver(self, name: str, fn):
        traced = self._wrap(name, fn)

        @functools.wraps(fn)
        def certified(system):
            span = self._open(CERTIFY)
            fingerprint, dim, nnz = _fingerprint(system.matrix)
            rss_before = _maxrss_kib()
            self._close(span)
            op = self._op
            try:
                result = traced(system)
            except Exception as exc:
                problems = (f"{name}: raised {type(exc).__name__}: {exc}",)
                self.solves.append(SolveRecord(op, dim, nnz, fingerprint, 0, 0.0, 0, problems))
                raise
            span = self._open(CERTIFY)
            growth = _maxrss_kib() - rss_before
            problems = tuple(_certify(name, system, result, dim))
            self.solves.append(
                SolveRecord(op, dim, nnz, fingerprint, result.inertia[1], result.residual, growth, problems)
            )
            self._close(span)
            return result

        return certified

    def __enter__(self):
        modules = [m for key, m in sys.modules.items() if key == "fluxfem" or key.startswith("fluxfem.")]
        layer_modules = {f"fluxfem.{layer}" for layer in LAYERS}
        wrappers = {}

        def wrapper(fn):
            if fn not in wrappers:
                name = f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__qualname__}"
                wrap = self._wrap_solver if name in RESIDUAL_TOL else self._wrap
                wrappers[fn] = wrap(name, fn)
            return wrappers[fn]

        def patch(owner, attr, fn):
            self._restore.append((owner, attr, fn))
            setattr(owner, attr, wrapper(fn))

        for module in modules:
            for attr, value in list(vars(module).items()):
                if getattr(value, "__module__", None) not in layer_modules or attr.startswith("_"):
                    continue
                if isinstance(value, FunctionType):
                    patch(module, attr, value)
                elif isinstance(value, type) and value.__module__ == module.__name__:
                    for method, fn in list(vars(value).items()):
                        public = not method.startswith("_")
                        plain_init = method == "__init__" and not is_dataclass(value)
                        if isinstance(fn, FunctionType) and (public or plain_init):
                            patch(value, method, fn)
        return self

    def __exit__(self, *exc_info):
        for owner, attr, fn in reversed(self._restore):
            setattr(owner, attr, fn)
        self._restore.clear()
        return False


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its child spans cover."""
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [span.end - span.start - c for span, c in zip(spans, covered)]


def layer_metrics(tracer: Tracer) -> dict[str, float | int]:
    """Per-layer metrics of one traced pass (everything in METRICS but trace.overhead_s)."""
    metrics: dict[str, float | int] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = 0.0
        metrics[f"{layer}.calls"] = 0
    max_call = contour = 0.0
    for span, own in zip(tracer.spans, self_times(tracer.spans)):
        layer = span.name.split(".", 1)[0]
        if layer not in LAYERS:
            continue
        metrics[f"{layer}.self_s"] += own
        metrics[f"{layer}.calls"] += 1
        if layer == "linsolve":
            max_call = max(max_call, span.end - span.start)
        if span.name == CONTOUR:
            contour += own

    solves = tracer.solves
    distinct = sum(len({s.fingerprint for s in solves if s.op == op}) for op in {s.op for s in solves})
    metrics.update(
        {
            "linsolve.max_call_s": max_call,
            "linsolve.dofs": sum(s.dim for s in solves),
            "linsolve.nnz": sum(s.nnz for s in solves),
            "linsolve.rss_growth_mb": sum(s.rss_growth_kib for s in solves) / 1024.0,
            "linsolve.distinct_matrices": distinct,
            "linsolve.useful_ratio": distinct / len(solves) if solves else 0.0,
            "linsolve.neg_pivots": sum(s.neg_pivots for s in solves),
            "linsolve.residual_max": max((s.residual for s in solves), default=0.0),
            "linsolve.failed": sum(1 for s in solves if s.problems),
            "analysis.contour_s": contour,
        }
    )
    return metrics


def combine_passes(passes: list[dict[str, float | int]]) -> tuple[dict[str, float | int], list[str]]:
    """Counts from the first pass (they must repeat exactly), times as medians.

    ru_maxrss only grows, so linsolve.rss_growth_mb is taken from the first
    pass, which the caller makes the process's first full-size pass.
    """
    first = passes[0]
    problems = [
        f"{name} differs between traced passes: {[p[name] for p in passes]}"
        for name in COUNTS
        if any(p[name] != first[name] for p in passes)
    ]
    combined = {
        name: first[name] if name in COUNTS or name == "linsolve.rss_growth_mb"
        else statistics.median(p[name] for p in passes)
        for name in first
    }
    return combined, problems
