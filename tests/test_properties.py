"""Property tests for point location, offsets, contour splitting and norms, and config parsing.

Examples are derandomized, so every run checks the same inputs.
"""

import contextlib
import io

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fluxfem import analysis
from fluxfem.cli import MAX_LEVEL, METHODS, MIN_LEVEL, VARIANTS, StudyConfig, build_config, build_parser, main
from fluxfem.fem import P1Space, evaluate_p1, locate_triangle
from fluxfem.mesh import (
    build_unit_square_mesh,
    distance_weight,
    offset_contour,
    split_segments_at_mesh_lines,
)

PROPERTY = settings(derandomize=True, database=None, deadline=None, max_examples=150)
grid_n = st.integers(min_value=1, max_value=64)
unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
# coordinates on or next to mesh lines are where rounding decides
near_lines = st.builds(
    lambda i, n, eps: min(max(i / n + eps, 0.0), 1.0),
    st.integers(0, 64),
    st.integers(1, 64),
    st.sampled_from([0.0, 1e-15, -1e-15, 1e-13, -1e-13]),
)
coordinate = st.one_of(unit, near_lines)


def barycentric(mesh, tri, points):
    """Barycentric coordinates of each point in its triangle, shape (m, 3)."""
    v = mesh.vertices[mesh.triangles[tri]]
    e1, e2, d = v[:, 1] - v[:, 0], v[:, 2] - v[:, 0], points - v[:, 0]
    det = e1[:, 0] * e2[:, 1] - e1[:, 1] * e2[:, 0]
    l1 = (d[:, 0] * e2[:, 1] - d[:, 1] * e2[:, 0]) / det
    l2 = (e1[:, 0] * d[:, 1] - e1[:, 1] * d[:, 0]) / det
    return np.column_stack([1.0 - l1 - l2, l1, l2])


@PROPERTY
@given(n=grid_n, xs=st.lists(st.tuples(coordinate, coordinate), min_size=1, max_size=20))
def test_locate_triangle_finds_a_triangle_containing_the_point(n, xs):
    mesh = build_unit_square_mesh(n)
    points = np.array(xs)
    tri = locate_triangle(mesh, points)
    assert tri.shape == (len(xs),)
    assert np.all((tri >= 0) & (tri < mesh.n_triangles))
    assert np.all(barycentric(mesh, tri, points) >= -1e-12 * n)
    # vectorized lookup agrees with one point at a time, and keeps the leading shape
    assert [locate_triangle(mesh, p[None, :])[0] for p in points] == list(tri)
    assert np.array_equal(locate_triangle(mesh, points[None, :, :])[0], tri)


@PROPERTY
@given(
    n=grid_n,
    x=coordinate,
    y=coordinate,
    side=st.sampled_from([(1.0, 0.0), (-1.0, 0.0), (0.0, 1.0), (0.0, -1.0)]),
    gap=st.sampled_from([1e-13, 1e-9, 1e-3, 0.25]),
)
def test_locate_triangle_tolerance_band(n, x, y, side, gap):
    """Points at most 1e-12 outside the square still resolve; farther ones raise."""
    mesh = build_unit_square_mesh(n)
    # push the point past the edge of the square that `side` points to
    p = np.array([x, y])
    axis = 0 if side[0] else 1
    p[axis] = (1.0 + gap) if side[axis] > 0 else -gap
    if gap <= 1e-12:
        assert 0 <= locate_triangle(mesh, p[None, :])[0] < mesh.n_triangles
    else:
        with pytest.raises(ValueError, match="outside"):
            locate_triangle(mesh, p[None, :])


@PROPERTY
@given(delta=st.one_of(st.just(np.nan), st.floats(max_value=0.0, exclude_max=True)))
def test_negative_or_nan_offsets_are_rejected(delta):
    """NaN fails the range checks just as a negative offset does."""
    with pytest.raises(ValueError, match="offset must be nonnegative"):
        offset_contour(delta)
    with pytest.raises(ValueError, match="shift must be nonnegative"):
        distance_weight(np.array([[0.5, 0.5]]), delta)


@PROPERTY
@given(delta=st.floats(min_value=0.0, max_value=0.5, exclude_max=True))
def test_offsets_in_range_give_finite_contours_and_weights(delta):
    contour = offset_contour(delta)
    assert np.all(np.isfinite(contour.corners))
    assert contour.perimeter == pytest.approx(4.0 * (1.0 - 2.0 * delta), abs=1e-12)
    assert np.all(np.isfinite(distance_weight(np.array([[0.5, 0.5], [0.0, 1.0]]), delta)))


def axis_segment(fixed, a, b, horizontal):
    return ((a, fixed), (b, fixed)) if horizontal else ((fixed, a), (fixed, b))


def split_one(mesh, p0, p1):
    """Breakpoint parameters of a single segment."""
    return split_segments_at_mesh_lines(mesh, [p0], [p1])[0]


@PROPERTY
@given(n=grid_n, fixed=coordinate, a=coordinate, b=coordinate, horizontal=st.booleans())
def test_split_segment_pieces_each_lie_in_one_triangle(n, fixed, a, b, horizontal):
    mesh = build_unit_square_mesh(n)
    p0, p1 = (np.array(p) for p in axis_segment(fixed, a, b, horizontal))
    t = split_one(mesh, p0, p1)
    assert t[0] == 0.0 and t[-1] == 1.0
    assert np.all(np.diff(t) > 0.0)
    ends = p0[None, :] + t[:, None] * (p1 - p0)[None, :]
    mids = 0.5 * (ends[:-1] + ends[1:])
    tri = locate_triangle(mesh, mids)
    # both ends of every piece lie in the triangle that holds its midpoint
    assert np.all(barycentric(mesh, tri, ends[:-1]) >= -1e-9)
    assert np.all(barycentric(mesh, tri, ends[1:]) >= -1e-9)


@PROPERTY
@given(n=grid_n, fixed=coordinate, a=coordinate, b=coordinate, horizontal=st.booleans())
def test_split_segment_is_symmetric_under_reversal(n, fixed, a, b, horizontal):
    mesh = build_unit_square_mesh(n)
    forward = split_one(mesh, *axis_segment(fixed, a, b, horizontal))
    backward = split_one(mesh, *axis_segment(fixed, b, a, horizontal))
    assert len(forward) == len(backward)
    assert np.allclose(forward, 1.0 - backward[::-1], rtol=0.0, atol=1e-12)


@PROPERTY
@given(n=grid_n, fixed=coordinate, a=coordinate, b=coordinate, horizontal=st.booleans())
def test_split_segment_cuts_every_crossed_grid_line(n, fixed, a, b, horizontal):
    mesh = build_unit_square_mesh(n)
    lo, hi = min(a, b), max(a, b)
    t = split_one(mesh, *axis_segment(fixed, a, b, horizontal))
    positions = a + t * (b - a)
    crossed = np.arange(n + 1) / n
    crossed = crossed[(crossed > lo + 1e-9) & (crossed < hi - 1e-9)]
    for line in crossed:
        assert np.min(np.abs(positions - line)) <= 1e-12


segment = st.tuples(coordinate, coordinate, coordinate, st.booleans())


@PROPERTY
@given(n=grid_n, segments=st.lists(segment, min_size=1, max_size=12))
def test_split_segments_in_a_batch_as_each_alone(n, segments):
    """Each segment's breakpoints are bitwise the same whatever else is in the batch."""
    mesh = build_unit_square_mesh(n)
    ends = np.array([axis_segment(*s) for s in segments])
    t, counts = split_segments_at_mesh_lines(mesh, ends[:, 0], ends[:, 1])
    assert counts.sum() == len(t)
    for (p0, p1), part in zip(ends, np.split(t, np.cumsum(counts)[:-1])):
        assert part.tobytes() == split_one(mesh, p0, p1).tobytes()


@PROPERTY
@given(n=grid_n, delta=st.floats(min_value=0.0, max_value=0.4999), seed=st.integers(0, 2**32 - 1))
def test_closed_form_contour_norm_matches_gauss_norm(n, delta, seed):
    """A P1 function's L2 norm on an offset contour from the piece end values
    agrees with the 6-point rule on every piece."""
    space = P1Space(build_unit_square_mesh(n))
    phi = np.random.default_rng(seed).standard_normal(space.n_dofs)
    contour = offset_contour(delta)
    _, p0, p1 = analysis._contour_pieces(space, [contour])
    weights, points = analysis._gauss_points(p0, p1)
    values, _ = evaluate_p1(phi, points, space)
    gauss = np.sqrt(np.sum(weights * (values**2).reshape(weights.shape)))
    assert analysis._p1_contour_norms(phi, space, [contour])[0] == pytest.approx(gauss, rel=1e-13)


BOOLEAN_SPELLINGS = ("1", "true", "yes", "on", "0", "false", "no", "off")
any_case = st.sampled_from(BOOLEAN_SPELLINGS).flatmap(
    lambda word: st.tuples(*(st.sampled_from([c.lower(), c.upper()]) for c in word)).map("".join)
)
# any character a one-line config value can hold
one_line = st.characters(blacklist_characters="#\n\r", blacklist_categories=("Cs",))
# valid spellings cut short or padded with other characters
near_miss = st.one_of(
    any_case.map(lambda word: word[:-1]),
    st.tuples(st.text(one_line, max_size=2), any_case, st.text(one_line, max_size=2)).map("".join),
)
positive = st.floats(min_value=1e-6, max_value=1e6)
level = st.integers(MIN_LEVEL, MAX_LEVEL)
# unsorted, so a file may hold kmin > kmax that a flag then mends
levels = st.lists(level, min_size=2, max_size=2)
config_values = st.fixed_dictionaries(
    {},
    optional={
        "method_variant": st.sampled_from(
            [("nitsche", ""), ("nitsche", "pointwise"), ("nitsche", "variational"),
             ("lagrange", ""), ("lagrange", "multiplier")]
        ),
        "beta": positive,
        "alpha": positive,
        "levels": levels,
        "delta0": st.floats(min_value=0.0, max_value=0.5, exclude_min=True, exclude_max=True),
        "kappa": st.floats(min_value=0.0, max_value=1e6),
        "seed": st.integers(0, 2**63),
        "out": st.text("abcXYZ019._-/", max_size=16),
        "parallel": any_case,
    },
)


converge_flags = st.fixed_dictionaries(
    {},
    optional={
        "method": st.sampled_from(METHODS),
        "flux_variant": st.sampled_from([v for variants in VARIANTS.values() for v in variants]),
        "beta": positive,
        "alpha": positive,
        "kmin": level,
        "kmax": level,
        "parallel": st.just(True),
    },
)


def flag_args(flags):
    """The `converge` command-line arguments that set `flags`."""
    args = []
    for name, value in flags.items():
        flag = "--" + name.replace("_", "-")
        args += [flag] if value is True else [flag, repr(value) if isinstance(value, float) else str(value)]
    return args


def config_lines(values):
    """The key=value lines of drawn values, and the fields they should set."""
    lines, expected = [], {}
    for key, value in values.items():
        if key == "method_variant":
            pairs = {"method": value[0], "flux_variant": value[1]}
        elif key == "levels":
            pairs = {"kmin": value[0], "kmax": value[1]}
        else:
            pairs = {key: value}
        for name, item in pairs.items():
            lines.append(f"{name} = {item!r}" if isinstance(item, float) else f"{name} = {item}")
            expected[name] = item.lower() in BOOLEAN_SPELLINGS[:4] if name == "parallel" else item
    return "\n".join(lines) + "\n", expected


@pytest.fixture(scope="module")
def config_path(tmp_path_factory):
    return tmp_path_factory.mktemp("config") / "study.cfg"


@PROPERTY
@given(values=config_values, flags=converge_flags)
def test_config_file_values_round_trip(config_path, values, flags):
    """File values parse as their fields, flags win over them, and the merged
    settings are validated once, whether or not the file alone is valid."""
    text, expected = config_lines(values)
    config_path.write_text(text, encoding="utf-8")
    args = build_parser().parse_args(["converge", "--config", str(config_path), *flag_args(flags)])
    try:
        merged = StudyConfig(**{**expected, **flags})
    except ValueError:
        with pytest.raises(ValueError):
            build_config(args)
    else:
        assert build_config(args) == merged


@PROPERTY
@given(text=st.one_of(st.text(one_line, max_size=12), near_miss))
def test_config_file_other_boolean_spellings_exit_2(config_path, text):
    assume(text.strip().lower() not in BOOLEAN_SPELLINGS)
    config_path.write_text(f"parallel = {text}\n", encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(["converge", "--kmax", "0", "--config", str(config_path)]) == 2
    assert err.getvalue().startswith("config error: parallel")
    assert "Traceback" not in out.getvalue() + err.getvalue()
