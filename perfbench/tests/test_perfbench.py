"""Tests of the benchmark itself, at reduced size.

Run from the repository root with `python3 -m pytest perfbench/tests`.
"""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import COUNTS, METRICS, Tracer, combine_passes, self_times  # noqa: E402

cli = workloads.import_fluxfem(BENCH.parent)


def failures(measurement):
    return [o for o in measurement.outcomes if o.problems]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_pass_is_correct(workload, trace):
    result = run.measure(cli, workload, seed=3, seconds=0, trace=trace, smoke=True)
    assert failures(result) == []
    assert len(result.walls[False]) == run.MIN_PASSES
    if trace:
        assert len(result.walls[True]) == run.MIN_PASSES
        values, problems = combine_passes(result.layer_passes)
        assert problems == []
        assert set(values) | {"trace.overhead_s"} == {name for name, _ in METRICS}
        assert values["linsolve.calls"] > 0 and values["linsolve.failed"] == 0


@pytest.mark.parametrize(
    "workload, target, old, new",
    [
        ("converge-nitsche", "records_to_csv", "e-0", "e-1"),
        ("converge-lagrange", "records_to_csv", "e-0", "e-1"),
        ("dual", "dual_check_text", ",4.00000000000e+00,", ",4.00000100000e+00,"),
    ],
)
def test_corrupted_output_is_a_failed_op(monkeypatch, workload, target, old, new):
    original = getattr(cli, target)

    def corrupted(*args):
        text = original(*args)
        assert old in text
        return text.replace(old, new, 1)

    monkeypatch.setattr(cli, target, corrupted)
    result = run.measure(cli, workload, seed=0, seconds=0, trace=False, smoke=True)
    assert len(failures(result)) == len(result.outcomes) > 0


def test_missing_sources_are_refused(tmp_path):
    with pytest.raises(FileNotFoundError):
        workloads.import_fluxfem(tmp_path)


def test_self_times_sum_to_root_span():
    ops = workloads.pass_ops("dual", seed=0, smoke=True)
    with Tracer() as tracer:
        workloads.run_ops(cli, ops)
    spans = tracer.spans
    roots = [i for i, s in enumerate(spans) if s.parent < 0]
    assert [spans[i].name for i in roots] == ["cli.main"] * len(ops)
    own = self_times(spans)
    for root in roots:
        op = spans[root].op
        total = sum(t for s, t in zip(spans, own) if s.op == op)
        duration = spans[root].end - spans[root].start
        assert total == pytest.approx(duration, rel=1e-9, abs=1e-12)
    assert all(t >= -1e-9 for t in own)


def test_tracer_restores_the_package():
    before = (cli.solve_spd, cli.main, cli.P1Space.__init__)
    with Tracer():
        assert cli.solve_spd is not before[0]
        assert cli.P1Space.__init__ is not before[2]
    assert (cli.solve_spd, cli.main, cli.P1Space.__init__) == before


def test_counts_must_repeat():
    passes = [{name: 1 for name in COUNTS} | {"linsolve.rss_growth_mb": 0.0} for _ in range(2)]
    passes[1]["linsolve.neg_pivots"] = 2
    _, problems = combine_passes(passes)
    assert len(problems) == 1 and "linsolve.neg_pivots" in problems[0]


@pytest.mark.parametrize("workload", ["converge-nitsche", "converge-lagrange"])
def test_reference_slope_line_matches_fit(workload):
    lines = (workloads.REFERENCE_DIR / f"{workload}.out").read_text().splitlines()
    printed = float(workloads.SLOPE_LINE.fullmatch(lines[-1]).group(1))
    ref = workloads.load_reference(workload)
    assert workloads.expected_slope(ref.header, ref.rows) == pytest.approx(printed, abs=5e-5)


def test_benchmark_json_names_what_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(METRICS)
