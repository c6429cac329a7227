"""fluxfem benchmark: times the `converge` and `dual-check` commands in one process.

Run from anywhere; the repository root is the parent of this directory:

    python3 perfbench/run.py --workload converge-nitsche --seed 0 --seconds 20 --trace 0

Workloads (see README.md beside this file for why each exists):

    converge-nitsche   converge --method nitsche --flux-variant variational, k = 0..12
    converge-lagrange  converge --method lagrange --alpha 0.25, k = 0..12
    dual               dual-check for nitsche, nitsche --kappa 10 and
                       lagrange --alpha 0.25 at seeds seed .. seed + 3

A pass runs the workload's ops once through `fluxfem.cli.main`. Passes
repeat until `--seconds` have gone by and at least MIN_PASSES are done.
With `--trace 0` the result holds the end-to-end metrics, measured with
no tracing; with `--trace 1` it holds the per-layer metrics of traced
passes, alternated with untraced ones to give the tracing overhead.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. A fuller record, with host facts,
goes to perfbench/out/; a traced run also writes its spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

from tracing import METRICS, Tracer, combine_passes, layer_metrics
from workloads import WORKLOADS, OpOutcome, check_results, import_fluxfem, pass_ops, run_ops, warm_up_ops

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = HERE / "out"
MIN_PASSES = 3
SETUP_PROBES = 7
PROBE_TIMEOUT_S = 120

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("success_rate", "ratio"),
)
PEAK_RSS_METHOD = (
    "resource.getrusage(RUSAGE_SELF).ru_maxrss of the benchmark process, in KiB, / 1024; "
    "the setup probes are child processes and are not counted; nothing under /proc or /sys "
    "is read or written"
)


@dataclass
class Measurement:
    walls: dict[bool, list[float]] = field(default_factory=lambda: {False: [], True: []})
    outcomes: list[OpOutcome] = field(default_factory=list)
    layer_passes: list[dict] = field(default_factory=list)
    spans: list[list] = field(default_factory=list)


def measure(cli, workload: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> Measurement:
    """Run timed passes of `workload`; traced and untraced passes alternate when `trace`.

    A traced run starts with a traced pass, so the growth of ru_maxrss
    across each solve is seen by the first full-size pass of the process.
    """
    ops = pass_ops(workload, seed, smoke)
    kinds = (True, False) if trace else (False,)
    result = Measurement()
    start = perf_counter()
    traced = trace
    while perf_counter() - start < seconds or any(len(result.walls[k]) < MIN_PASSES for k in kinds):
        tracer = Tracer() if traced else None
        gc.collect()  # garbage of the last pass is not charged to this one
        with tracer or contextlib.nullcontext():
            t0 = perf_counter()
            results = run_ops(cli, ops)
            result.walls[traced].append(perf_counter() - t0)
        outcomes = check_results(ops, results)
        if tracer is not None:
            for solve in tracer.solves:
                outcomes[solve.op].problems.extend(solve.problems)
            result.layer_passes.append(layer_metrics(tracer))
            result.spans.append(tracer.spans)
        result.outcomes.extend(outcomes)
        traced = trace and not traced
    return result


def probe_setup() -> tuple[list[float], list[OpOutcome]]:
    """Time SETUP_PROBES fresh processes from start until import and warm-up are done."""
    times, outcomes = [], []
    for _ in range(SETUP_PROBES):
        t0 = perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "setup_probe.py")],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=PROBE_TIMEOUT_S,
            )
            problems = [] if proc.returncode == 0 else [f"setup probe exit {proc.returncode}: {proc.stderr.strip()[-300:]}"]
        except subprocess.TimeoutExpired:
            problems = [f"setup probe took more than {PROBE_TIMEOUT_S} s"]
        times.append(perf_counter() - t0)
        outcomes.append(OpOutcome(("setup-probe",), problems))
    return times, outcomes


def host_facts() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var, "unset; OpenBLAS then uses one thread per usable CPU")
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "peak_rss_method": PEAK_RSS_METHOD,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 0:
        parser.error("--seed and --seconds must not be negative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        cli = import_fluxfem(ROOT)
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    warm_up = warm_up_ops()
    outcomes = check_results(warm_up, run_ops(cli, warm_up))
    setup_times, probe_outcomes = probe_setup()
    outcomes += probe_outcomes
    run = measure(cli, args.workload, args.seed, args.seconds, bool(args.trace))
    outcomes += run.outcomes
    failed = [o for o in outcomes if o.problems]
    run_problems = []

    if args.trace:
        values, run_problems = combine_passes(run.layer_passes)
        values["trace.overhead_s"] = statistics.median(run.walls[True]) - statistics.median(run.walls[False])
        units = METRICS
    else:
        values = {
            "wall_s": statistics.median(run.walls[False]),
            "setup_s": statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "success_rate": 1.0 - len(failed) / len(outcomes),
        }
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units}
    summary = {
        "correct": not failed and not run_problems,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": metrics,
    }

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        **summary,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "error_rate": len(failed) / len(outcomes),
        "pass_walls_s": {"untraced": run.walls[False], "traced": run.walls[True]},
        "setup_probe_s": setup_times,
        "failures": [{"argv": o.argv, "problems": o.problems} for o in failed],
        "problems": run_problems,
        "host": host_facts(),
    }
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.trace:
        with open(stem.with_suffix(".spans.jsonl"), "w", encoding="utf-8") as handle:
            for index, spans in enumerate(run.spans):
                for span_id, span in enumerate(spans):
                    handle.write(json.dumps({"pass": index, "id": span_id, **asdict(span)}) + "\n")

    for o in failed:
        print(f"FAIL {' '.join(o.argv)}: {'; '.join(o.problems)}")
    for problem in run_problems:
        print(f"FAIL {problem}")
    passes = len(run.walls[bool(args.trace)])
    print(
        f"{args.workload} seed {args.seed}: {passes} {'traced ' if args.trace else ''}passes, "
        f"error_rate {record['error_rate']} ({len(failed)} failed of {len(outcomes)} ops attempted)"
    )
    for name, unit in units:
        print(f"  {name} = {values[name]!r} {unit}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
