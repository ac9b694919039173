"""The fractional-mean norms evaluate the box groups over a whole radius
grid in one batch; these tests pin every batched value, bit for bit, to
the single-radius paths and to the per-radius sweep the batch replaced."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams import amalgam, groups
from amalgams.amalgam import _linear_power_integral, ball_norm, ball_norms, partition_norm
from amalgams.fracmean import (
    DEGENERATE_HIGH,
    DEGENERATE_LOW,
    ExponentTriple,
    RadiusGrid,
    _partition_norms,
    _weighted_max,
    default_grid,
    divergence_diagnostic,
    fractional_norm_partition,
    inv,
    partition_for,
)
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.simplefn import _times_pow2, _unit_exponent, simple_function
from amalgams.verify import gen_random_simple

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


LINE_FUNCTIONS = [gen_random_simple(s, 1 + s % 12, ((-4.0, 4.0),), REAL_LINE) for s in range(8)] + [
    _touching(s, n) for s, n in ((1, 5), (2, 40), (3, 200))
]


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


def test_ball_batch_across_blocks(monkeypatch):
    f = LINE_FUNCTIONS[-1]
    radii = RadiusGrid(0.125, 16.0, 3).radii()
    expected = {(q, p): [ball_norm(f, REAL_LINE, r, q, p) for r in radii] for q in QS for p in PS}
    monkeypatch.setattr(amalgam, "BLOCK_PIECES", 1)
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
