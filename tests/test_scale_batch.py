"""The fractional-mean norms evaluate the box groups over a whole radius
grid in one batch; these tests pin every batched value, bit for bit, to
the single-radius paths and to the per-radius sweep the batch replaced."""

import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams import groups
from amalgams.amalgam import _segment_integrals, ball_norm, ball_norms, partition_norm
from amalgams.counterexample import build_sparse_union
from amalgams.fracmean import (
    DEGENERATE_HIGH,
    DEGENERATE_LOW,
    ExponentTriple,
    RadiusGrid,
    _partition_norms,
    _weighted_max,
    _window,
    _windows,
    default_grid,
    divergence_diagnostic,
    fractional_norm_partition,
    inv,
    partition_for,
)
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.partitions import build_pi_r, cell_shape, cell_steps, check_scales
from amalgams.simplefn import _times_pow2, _unit_exponent, simple_function
from amalgams.verify import gen_random_simple, radial_power_fn

INF = math.inf
QS = (1.0, 1.5, 2.0, 3.0, INF)
PS = (1.0, 2.0, 4.0, INF)
# 1e300 and 1e-300 take the rescaled (_unit_exponent) path; repeats give ties
VALUES = st.one_of(st.sampled_from([1.0, 2.0, 0.5, 1e300, 1e-300]), st.floats(0.1, 10.0))


def _bits(xs):
    return [x.hex() for x in xs]


def _looped(f, g, radii, q, p):
    return [partition_norm(f, partition_for(f, g, r), q, p) for r in radii]


@st.composite
def box_functions(draw):
    """Disjoint cells on the line or the aniso-plane: axis-0 intervals
    between sorted breakpoints, some of them on dyadic lattice points."""
    g = draw(st.sampled_from([REAL_LINE, ANISO_PLANE]))
    point = st.one_of(st.integers(-32, 32).map(lambda k: k / 8.0), st.floats(-4.0, 4.0))
    xs = []
    for x in sorted(draw(st.lists(point, min_size=2, max_size=9))):
        if not xs or x - xs[-1] >= 0.0625:  # no cell under 1/16: small lattices at r -> 0
            xs.append(x)
    if len(xs) < 2:
        xs = [0.0, 1.0]
    cells = []
    for a, b in zip(xs[:-1], xs[1:]):
        if draw(st.booleans()) or not cells:
            lo, hi = [a], [b]
            for _ in range(1, g.d):
                y0 = draw(point)
                lo.append(y0)
                hi.append(y0 + draw(st.sampled_from([0.25, 1.0])))
            cells.append((lo, hi, draw(VALUES)))
    return simple_function(g, cells)


@st.composite
def functions_and_grids(draw):
    """A function and a radius grid; plane lattices have (r/4)^2-high cells,
    so the plane's grids start at 1/2 to keep the looped reference quick."""
    f = draw(box_functions())
    small = 0.5 if f.group.d == 2 else 0.05
    r_min = draw(st.one_of(st.sampled_from([0.5, 1.0]), st.floats(small, 2.0)))
    octaves = draw(st.integers(1, 4 if f.group.d == 2 else 6))
    return f, RadiusGrid(r_min, r_min * 2.0**octaves, draw(st.integers(1, 4)))


@settings(max_examples=80, deadline=None)
@given(functions_and_grids(), st.sampled_from(QS), st.sampled_from(PS))
@example(  # cell ends on lattice points, tied values
    (
        simple_function(REAL_LINE, [((0.0,), (0.5,), 1.0), ((0.5,), (1.0,), 1.0), ((-1.0,), (-0.25,), 3.0)]),
        RadiusGrid(0.125, 4.0, 2),
    ),
    INF,
    INF,
)
@example(
    (
        simple_function(REAL_LINE, [((0.0,), (1.0,), 1e300), ((2.0,), (3.5,), 1e-300)]),
        RadiusGrid(0.25, 8.0, 3),
    ),
    2.0,
    2.0,
)
@example(
    (
        simple_function(
            ANISO_PLANE, [((0.0, 0.0), (1.0, 0.5), 1e300), ((-1.0, -1.0), (-0.5, 0.0), 1e-300)]
        ),
        RadiusGrid(0.5, 4.0, 2),
    ),
    1.5,
    INF,
)
def test_partition_batch_is_the_single_radius_loop(f_grid, q, p):
    f, grid = f_grid
    g = f.group
    radii = grid.radii()
    assert _bits(_partition_norms(f, g, radii, q, p)) == _bits(_looped(f, g, radii, q, p))
    t = ExponentTriple(q, p, max(q, 2.0) if p >= max(q, 2.0) else q)
    w = g.rho * (inv(t.alpha) - inv(t.q))
    ref = _weighted_max([(r, r**w * n) for r, n in zip(radii, _looped(f, g, radii, q, p))], 1e12)
    res = fractional_norm_partition(f, g, t, grid)
    assert (res.value.hex(), res.argmax_r) == (ref[0].hex(), ref[1])


@settings(max_examples=40, deadline=None)
@given(box_functions(), st.sampled_from(QS[:-1]), st.sampled_from(PS), st.booleans())
def test_divergence_diagnostic_batch_is_the_single_radius_loop(f, q, p, with_grid):
    g = f.group
    if q > 1.0:
        t = ExponentTriple(q, max(p, q), q / 2.0 if q / 2.0 >= 1.0 else 1.0)
    else:
        t = ExponentTriple(q, p, 2.0 * p if p < INF else 2.0)
    if t.classify() not in (DEGENERATE_LOW, DEGENERATE_HIGH):
        return
    if g.d == 2 and not with_grid:
        return  # its automatic r -> 0 radii make lattices of ~1e10 cells on the plane
    grid = default_grid(f) if with_grid else None
    diag = divergence_diagnostic(f, g, t, grid)
    w = g.rho * (inv(t.alpha) - inv(t.q))
    ref = [r**w * n for r, n in zip(diag.radii, _looped(f, g, diag.radii, t.q, t.p))]
    assert _bits(diag.values) == _bits(ref)


def test_partition_batch_across_blocks(monkeypatch):
    """Blocks of a few pieces, and one radius alone past the cap, sum the
    same pieces in the same order."""
    fs = [
        gen_random_simple(7, 12, ((-4.0, 4.0),), REAL_LINE),
        gen_random_simple(8, 5, ((-2.0, 2.0), (-4.0, 4.0)), ANISO_PLANE),
    ]
    radii = RadiusGrid(0.25, 8.0, 3).radii()
    expected = {(f.group.name, q, p): _looped(f, f.group, radii, q, p) for f in fs for q in QS for p in PS}
    for cap in (1, 7, 64):
        monkeypatch.setattr(groups, "BLOCK_PIECES", cap)
        for f in fs:
            for q in QS:
                for p in PS:
                    got = _partition_norms(f, f.group, radii, q, p)
                    assert _bits(got) == _bits(expected[(f.group.name, q, p)])


def test_partition_batch_keeps_the_heisenberg_loop():
    f = gen_random_simple(3, 2, ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)), HEISENBERG)
    radii = [0.5, 1.0]
    assert _bits(_partition_norms(f, HEISENBERG, radii, 2.0, 3.0)) == _bits(
        _looped(f, HEISENBERG, radii, 2.0, 3.0)
    )


@pytest.mark.parametrize("r_min", [1e-320, 2.0**-1074])
def test_partition_batch_raises_the_first_range_error(r_min):
    f = gen_random_simple(3, 4, ((-4.0, 4.0),), REAL_LINE)
    with pytest.raises(ValueError) as single:
        partition_for(f, REAL_LINE, r_min)
    t = ExponentTriple(1.0, 4.0, 2.0)
    with pytest.raises(ValueError) as batch:
        fractional_norm_partition(f, REAL_LINE, t, RadiusGrid(r_min, 1.0, 1))
    assert str(batch.value) == str(single.value)
    assert f"scale r = {r_min} out of range" in str(batch.value)


def test_partition_batch_raises_at_the_first_bad_radius_in_order():
    # the first radii are fine; 1e-300 is the first one build_pi_r rejects
    f = gen_random_simple(3, 4, ((-4.0, 4.0),), REAL_LINE)
    radii = [1.0, 0.5, 1e-300, 1e-320]
    with pytest.raises(ValueError, match=r"scale r = 1e-300 out of range"):
        _partition_norms(f, REAL_LINE, radii, 1.0, 2.0)


def test_partition_batch_raises_at_the_first_bad_radius_of_any_kind():
    f = gen_random_simple(3, 4, ((-4.0, 4.0),), REAL_LINE)
    for radii, message in (
        ([1.0, -1.0, 1e-320], "scale r must be positive and finite"),
        ([1.0, 1e-320, math.nan], "scale r = 1e-320 out of range"),
    ):
        with pytest.raises(ValueError) as batch:
            _partition_norms(f, REAL_LINE, radii, 1.0, 2.0)
        with pytest.raises(ValueError) as single:
            _looped(f, REAL_LINE, radii, 1.0, 2.0)
        assert str(batch.value) == str(single.value)
        assert str(batch.value).startswith(message)


def test_overflowing_lattice_step_is_a_range_error():
    # (r/4)**2 leaves the floats on the aniso-plane's second axis
    f = gen_random_simple(3, 4, ((-4.0, 4.0), (-4.0, 4.0)), ANISO_PLANE)
    with pytest.raises(ValueError, match=r"scale r = 1e\+200 out of range: lattice step inf"):
        partition_for(f, ANISO_PLANE, 1e200)
    # 1e150 * 2**16 is the first radius of this grid whose step overflows
    radii = RadiusGrid(1e150, 1e300, 1).radii()
    with pytest.raises(ValueError, match=r"scale r = 6.5536e\+154 out of range: lattice step inf") as batch:
        _partition_norms(f, ANISO_PLANE, radii, 1.0, 4.0)
    with pytest.raises(ValueError) as single:
        _looped(f, ANISO_PLANE, radii, 1.0, 4.0)
    assert str(batch.value) == str(single.value)


def test_partition_batch_refuses_a_radius_of_too_many_pieces():
    # the unit square at r = 2**-20: lattice steps 2**-21 and 2**-43 cut it
    # into 2**21 * 2**43 = 2**64 pieces, a count that wraps to 0 in int64;
    # the count is refused before any piece is made
    f = simple_function(ANISO_PLANE, [((0.0, 0.0), (1.0, 1.0), 1.0)])
    for r in (2.0**-20, 2.0**-20 * 1.1, 2.0**-10):
        with pytest.raises(ValueError, match=r"pieces, more than 16777216"):
            _partition_norms(f, ANISO_PLANE, [1.0, r], 1.0, 2.0)


def test_partition_batch_piece_cap_is_inclusive(monkeypatch):
    f = simple_function(REAL_LINE, [((0.0,), (1.0,), 1.0), ((2.0,), (3.0,), 2.0)])
    radii = [0.5]  # lattice step 1/4: 4 pieces per cell
    expected = _looped(f, REAL_LINE, radii, 2.0, 3.0)
    monkeypatch.setattr(groups, "MAX_PIECES", 8)
    assert _bits(_partition_norms(f, REAL_LINE, radii, 2.0, 3.0)) == _bits(expected)
    monkeypatch.setattr(groups, "MAX_PIECES", 7)
    with pytest.raises(ValueError, match=r"lattice step \(0.25,\) cuts the boxes into 8 pieces, more than 7"):
        _partition_norms(f, REAL_LINE, radii, 2.0, 3.0)


# -- the ball form on the line -----------------------------------------------


def _linear_power_integral(f0: float, f1: float, dy: float, s: float) -> float:
    """Exact integral of (f0 + (f1 - f0) t / dy)^s over [0, dy], f0, f1 >= 0:
    the scalar form the sweep integrated each segment with, one call per
    segment, before its array form.

    The closed form (f1^(s+1) - f0^(s+1)) / (m (s+1)) cancels badly on
    nearly flat segments, so those switch to a series in (f1 - f0)/f0.
    """
    if f0 == f1:
        return f0**s * dy
    if f0 == 0.0 or f1 == 0.0:
        return dy * max(f0, f1) ** s / (s + 1.0)
    u = (f1 - f0) / f0
    if abs(u) < 1e-4:
        return dy * f0**s * (1.0 + s * u / 2.0 + s * (s - 1.0) * u * u / 6.0)
    return dy * (f1 ** (s + 1.0) - f0 ** (s + 1.0)) / ((f1 - f0) * (s + 1.0))


def _dict_sweep(f, r, q, p):
    """The single-radius event sweep the batched one replaced (finite q;
    at q = inf the ball norm keeps its single-radius scan)."""
    cells = f.cells
    scale = f.group.measure_scale
    e = _unit_exponent(f.max_value, q, p)
    events = {}
    for c in cells:
        w = math.ldexp(c.value, -e) ** q * scale
        a, b = c.lo[0], c.hi[0]
        width = min(b - a, 2.0 * r)
        for y0, dw in ((a - r, w), (a - r + width, -w), (b + r - width, -w), (b + r, w)):
            events[y0] = events.get(y0, 0.0) + dw
    knots = sorted(events)
    values = []
    phi_val, slope = 0.0, 0.0
    prev = knots[0]
    for y0 in knots:
        phi_val += slope * (y0 - prev)
        slope += events[y0]
        values.append(max(phi_val, 0.0))
        prev = y0
    if math.isinf(p):
        return _times_pow2(max(values) ** (1.0 / q), e)
    total = 0.0
    for y0, y1, f0, f1 in zip(knots[:-1], knots[1:], values[:-1], values[1:]):
        if y1 - y0 > 0.0:
            total += _linear_power_integral(f0, f1, y1 - y0, p / q) * scale
    return _times_pow2(total ** (1.0 / p), e)


def _touching(seed, n):
    """Seeded cells on unit steps, many touching, with tied values."""
    rng = np.random.default_rng(seed)
    starts = np.flatnonzero(rng.random(3 * n) < 0.6)[:n]
    vals = rng.choice([0.5, 1.0, 2.0, 1e-300, 1e300], size=len(starts))
    return simple_function(REAL_LINE, [((float(a),), (float(a + 1),), float(v)) for a, v in zip(starts, vals)])


LINE_FUNCTIONS = (
    [gen_random_simple(s, 1 + s % 12, ((-4.0, 4.0),), REAL_LINE) for s in range(8)]
    # rows of many segments, with plateaus: unions of up to 129 balls, a radial profile
    + [build_sparse_union(REAL_LINE, 1.0, 2.0, n)[1] for n in (3, 4, 5)]
    + [radial_power_fn(REAL_LINE, "power", 2.0, (0.25, 4.0), mesh=0.1).function]
    + [_touching(s, n) for s, n in ((1, 5), (2, 40), (3, 200))]
)


@pytest.mark.parametrize("q", QS)
@pytest.mark.parametrize("p", PS)
def test_ball_batch_is_the_single_radius_sweep(q, p):
    for f in LINE_FUNCTIONS:
        radii = RadiusGrid(0.125, 16.0, 3).radii() + [0.5, 3.0]  # one radius twice
        batch = ball_norms(f, REAL_LINE, radii, q, p)
        assert _bits(batch) == _bits([ball_norm(f, REAL_LINE, r, q, p) for r in radii])
        if q < INF:
            assert _bits(batch) == _bits([_dict_sweep(f, r, q, p) for r in radii])


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 40), st.integers(1, 3), VALUES), min_size=1, max_size=10),
    st.floats(0.01, 30.0),
    st.sampled_from(QS[:-1]),
    st.sampled_from(PS),
)
def test_ball_batch_matches_the_old_sweep(spans, r, q, p):
    cells, taken = [], set()
    for start, length, v in spans:
        slots = set(range(start, start + length))
        if not slots & taken:  # keep the cells disjoint, let them touch
            taken |= slots
            cells.append(((start / 4.0,), ((start + length) / 4.0,), v))
    f = simple_function(REAL_LINE, cells)
    assert ball_norms(f, REAL_LINE, [r], q, p)[0].hex() == _dict_sweep(f, r, q, p).hex()


# Knot values 1e-300 to 1e300, a mantissa in [1, 10) times a power of 10.
MAGNITUDES = st.builds(lambda m, k: m * 10.0**k, st.floats(1.0, 9.999), st.integers(-300, 299))


@st.composite
def knot_rows(draw):
    """Knot values and gaps of a piecewise linear function whose segments
    take each case of the integral: equal ends, an end 0, |u| just below and
    just above 1e-4, and the closed form; some gaps are 0, the last always."""
    phi = [draw(st.one_of(st.just(0.0), MAGNITUDES))]
    for kind in draw(st.lists(st.sampled_from(["equal", "zero", "near", "far"]), min_size=1, max_size=12)):
        prev = phi[-1]
        if kind == "equal":
            phi.append(prev)
        elif kind == "zero" and prev:
            phi.append(0.0)
        elif kind == "near" and prev:
            u = draw(st.floats(0.99e-4, 1.01e-4)) * draw(st.sampled_from([-1.0, 1.0]))
            phi.append(prev * (1.0 + u))
        else:
            phi.append(draw(MAGNITUDES))
    gaps = [draw(st.one_of(st.just(0.0), st.floats(1e-3, 1e3))) for _ in phi[1:]] + [0.0]
    return phi, gaps


@settings(max_examples=500, deadline=None)
@given(knot_rows(), st.sampled_from([0.5, 1.0, 4.0 / 3.0, 1.5, 4.0]))
@example(([0.0, 2.0, 2.0, 2.0002, 2.0003, 3.0, 0.0], [1.0, 0.5, 0.25, 0.125, 2.0, 4.0, 0.0]), 1.5)
def test_segment_integrals_are_the_scalar_integrals(row, s):
    phi, gaps = row
    scale = REAL_LINE.measure_scale
    kept = [j for j in range(len(phi) - 1) if gaps[j] > 0.0 and (phi[j] or phi[j + 1])]
    try:
        expected = [(_linear_power_integral(phi[j], phi[j + 1], gaps[j], s) * scale).hex() for j in kept]
    except OverflowError:  # a power past the float range, in the scalar form too
        with pytest.raises(OverflowError):
            _segment_integrals(np.array(phi), np.array(gaps), s, scale)
        return
    at, pieces = _segment_integrals(np.array(phi), np.array(gaps), s, scale)
    assert at.tolist() == kept
    assert _bits(pieces.tolist()) == expected


def test_ball_batch_across_blocks(monkeypatch):
    f = LINE_FUNCTIONS[-1]
    radii = RadiusGrid(0.125, 16.0, 3).radii()
    expected = {(q, p): [ball_norm(f, REAL_LINE, r, q, p) for r in radii] for q in QS for p in PS}
    monkeypatch.setattr(groups, "BLOCK_PIECES", 1)
    for (q, p), ref in expected.items():
        assert _bits(ball_norms(f, REAL_LINE, radii, q, p)) == _bits(ref)


def test_ball_batch_validates_like_the_single_radius_path():
    f = LINE_FUNCTIONS[0]
    with pytest.raises(ValueError, match="ball radius"):
        ball_norms(f, REAL_LINE, [1.0, INF], 1.0, 2.0)
    with pytest.raises(ValueError, match="mesh"):
        ball_norms(f, REAL_LINE, [1.0], 1.0, 2.0, mesh=math.nan)
    with pytest.raises(ValueError, match="group"):
        ball_norms(f, ANISO_PLANE, [1.0], 1.0, 2.0)
    assert ball_norms(simple_function(REAL_LINE, []), REAL_LINE, [1.0, 2.0], 1.0, 2.0) == [0.0, 0.0]


def test_batches_on_a_cell_of_subnormal_width():
    # its pieces have a measure that underflows to 0: no local sup at q = inf
    f = simple_function(REAL_LINE, [((0.0,), (5e-324,), 7.0), ((1.0,), (2.0,), 1.0)])
    radii = [0.5, 1.0, 4.0]
    for q in QS:
        for p in PS:
            assert _bits(_partition_norms(f, REAL_LINE, radii, q, p)) == _bits(_looped(f, REAL_LINE, radii, q, p))
            assert _bits(ball_norms(f, REAL_LINE, radii, q, p)) == _bits([ball_norm(f, REAL_LINE, r, q, p) for r in radii])


# -- per-call bookkeeping ---------------------------------------------------------

# A radius of RadiusGrid(0.131, 0.131 * 256, 4) whose U-radius u = r/4 has
# u**2.0 (libm's pow) = 0x1.8da0e6ca405b3p-10 but u * u = 0x1.8da0e6ca405b2p-10,
# the bits NumPy's square and power give: the plane's steps must keep libm's.
LIBM_POW_RADIUS = 0.15578613206535646
GROUP_WINDOWS = {
    "real-line": ((-4.0, 4.0),),
    "aniso-plane": ((-2.0, 2.0), (-4.0, 4.0)),
    "heisenberg": ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
}
ALL_GROUPS = [REAL_LINE, ANISO_PLANE, HEISENBERG]


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
def test_batched_steps_and_windows_are_the_single_radius_ones(g):
    radii = RadiusGrid(0.131, 0.131 * 256, 4).radii() + RadiusGrid(1e-3, 1e3, 3).radii()
    assert LIBM_POW_RADIUS in radii
    steps = cell_steps(g, radii)
    single = [cell_shape(g, r)[1] for r in radii]
    assert [_bits(s) for s in steps.tolist()] == [_bits(s) for s in single]
    for f in (gen_random_simple(5, 3, GROUP_WINDOWS[g.name], g), simple_function(g, [])):
        windows = _windows(f, g, steps)
        assert [[_bits(axis) for axis in w] for w in windows.tolist()] == [
            [_bits(axis) for axis in _window(f, g, s)] for s in single
        ]


def test_batched_steps_past_the_float_range_are_inf_on_every_axis():
    radii = [1.0, 1e200, 1e300, 2.0]  # (r/4)**2 overflows at the middle two
    steps = cell_steps(ANISO_PLANE, radii)
    assert steps.tolist() == [list(cell_shape(ANISO_PLANE, r)[1]) for r in radii]
    assert steps[1:3].tolist() == [[INF, INF], [INF, INF]]


def _first_build_error(g, radii, windows):
    """The message of build_pi_r's scale checks, one radius after another,
    as written before check_scales tested many radii in one NumPy pass."""
    for r, window in zip(radii, windows):
        steps = cell_shape(g, r)[1]
        if not 0 < r < math.inf:
            return "scale r must be positive and finite"
        if len(window) != g.d or any(a >= b for a, b in window):
            return "window must be a nonempty box matching the group dimension"
        for (a, b), s in zip(window, steps):
            if s < sys.float_info.min or s == math.inf or (b - a) / s >= 2.0**53:
                return f"scale r = {r} out of range: lattice step {s} over axis extent {b - a}"
            if b - a < s:
                return f"degenerate window: axis extent {b - a} below cell extent {s}"
    return None


@pytest.mark.parametrize("g", ALL_GROUPS, ids=lambda g: g.name)
def test_batched_check_raises_the_first_bad_radius_message(g):
    f = gen_random_simple(6, 3, GROUP_WINDOWS[g.name], g)
    good = [0.5, 1.0, 2.0]
    bad = [1e-300, -1.0, 1e-320, math.nan, INF, 1e200]
    for k in range(len(good) + 1):
        for first in range(len(bad)):
            radii = good[:k] + bad[first:] + good[k:]
            steps = cell_steps(g, radii)
            windows = [_window(f, g, s) for s in steps.tolist()]
            expected = _first_build_error(g, radii, windows)
            if expected is None:  # 1e200 alone, whose line lattice is fine
                check_scales(g, radii, steps, _windows(f, g, steps))
                continue
            with pytest.raises(ValueError) as batch:
                check_scales(g, radii, steps, _windows(f, g, steps))
            assert str(batch.value) == expected
            with pytest.raises(ValueError) as norms:
                _partition_norms(f, g, radii, 1.0, 2.0)
            assert str(norms.value) == expected


def test_batched_check_orders_window_and_axis_errors_like_build_pi_r():
    g = ANISO_PLANE  # at r = 4 the steps are (2, 2)
    cases = [
        ((0.0, 8.0), (0.0, 8.0)),  # fine
        ((0.0, 1.0), (0.0, 8.0)),  # axis 0 narrower than its cell
        ((0.0, 8.0), (0.0, 1.5)),  # axis 1 narrower than its cell
        ((0.0, 8.0), (1.0, 1.0)),  # empty
        ((0.0, 8.0), (0.0, 4e16)),  # axis 1 past 2**53 steps
    ]
    for first in range(1, len(cases)):
        windows = [cases[0], *cases[first:], cases[0]]
        radii = [4.0] * len(windows)
        expected = _first_build_error(g, radii, windows)
        assert expected is not None
        with pytest.raises(ValueError) as batch:
            check_scales(g, radii, cell_steps(g, radii), windows)
        assert str(batch.value) == expected
        with pytest.raises(ValueError) as single:
            build_pi_r(g, 4.0, cases[first])
        assert str(single.value) == expected
    with pytest.raises(ValueError, match="window must be a nonempty box"):
        build_pi_r(g, 4.0, ((0.0, 8.0),))


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE], ids=lambda g: g.name)
def test_ball_norms_raise_the_single_radius_error_of_a_bad_radius(g):
    f = gen_random_simple(7, 4, GROUP_WINDOWS[g.name], g)
    for bad in (-1.0, 0.0, INF, math.nan):
        with pytest.raises(ValueError) as single:
            ball_norm(f, g, bad, 1.0, 2.0)
        with pytest.raises(ValueError) as batch:
            ball_norms(f, g, [0.5, 1.0, bad, 2.0], 1.0, 2.0)
        assert str(batch.value) == str(single.value)
