import json
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest

from amalgams.amalgam import ball_norm, ball_norms, compute_norm, conv_q_indicator, partition_norm
from amalgams.cli import main
from amalgams.fracmean import ExponentTriple, default_grid, fractional_norm_partition, partition_for
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.partitions import build_pi_r
from amalgams.simplefn import lebesgue_norm, lorentz_norm, scale, simple_function, zero_function
from amalgams.verify import gen_random_simple

INF = math.inf


def line_fn(*cells):
    return simple_function(REAL_LINE, [((lo,), (hi,), v) for lo, hi, v in cells])


def test_partition_norm_two_aligned_cells():
    # unit-measure cells need r = 4 (cell Euclidean length 2)
    f = line_fn((0.0, 4.0, 1.0))
    part = build_pi_r(REAL_LINE, 4.0, ((-4.0, 8.0),))
    for q in (1.0, 2.0, INF):
        for p in (1.0, 2.0, 4.0):
            assert partition_norm(f, part, q, p) == pytest.approx(
                2.0 ** (1.0 / p), rel=1e-12
            )
        assert partition_norm(f, part, q, INF) == pytest.approx(1.0, rel=1e-12)


def test_partition_norm_single_cell_support():
    f = line_fn((0.1, 0.4, 2.0))
    part = build_pi_r(REAL_LINE, 1.0, ((-2.0, 2.0),))
    for p in (1.0, 3.0, INF):
        assert partition_norm(f, part, 2.0, p) == pytest.approx(
            lebesgue_norm(f, 2.0), rel=1e-12
        )


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_diagonal_identity_all_groups(g):
    window = tuple((-2.0, 2.0) for _ in range(g.d))
    for i in range(10):
        f = gen_random_simple(50 + i, 1 + i % 6, window, g)
        r = 2.0 ** (i % 4 - 1)
        part = partition_for(f, g, r)
        for p in (1.0, 1.5, 2.0, INF):
            assert partition_norm(f, part, p, p) == pytest.approx(
                lebesgue_norm(f, p), rel=1e-11
            )


def test_partition_norm_sums_cells_without_rounding_drift():
    """One lattice cell of mass 1/2, then 8192 cells of 2^-55 each: a plain
    running sum rounds every small term away (they are below half an ulp of
    1/2) and misses by 4.5e-13 relative; the exact sum 1/2 + 2^-42 is a float."""
    h, n = 2.0**-10, 8192
    f = line_fn((0.0, 1.0, 1.0), *((1.0 + k * h, 1.0 + (k + 1) * h, 2.0**-44) for k in range(n)))
    part = build_pi_r(REAL_LINE, 2.0 * h, ((0.0, 9.0),))  # lattice step h
    exact = Fraction(1, 2) + n * Fraction(2) ** -55
    assert abs(Fraction(sum([0.5] + [2.0**-55] * n)) - exact) / exact > 1e-13
    got = partition_norm(f, part, 1.0, 1.0)
    assert abs(Fraction(got) - exact) / exact <= 1e-15


def test_partition_norm_window_guard():
    f = line_fn((0.0, 4.0, 1.0))
    part = build_pi_r(REAL_LINE, 1.0, ((-1.0, 1.0),))
    with pytest.raises(ValueError):
        partition_norm(f, part, 1.0, 1.0)


def test_conv_q_indicator_examples():
    f = line_fn((0.0, 1.0, 1.0))  # lambda-measure 1/2
    # ball covering the support
    assert conv_q_indicator(f, 1.0, 10.0, (0.5,)) == pytest.approx(0.5)
    # far away: distance beyond gamma (r + diam)
    assert conv_q_indicator(f, 1.0, 1.0, (5.0,)) == 0.0
    # overlap [0,1) ^ (-1,1) has lambda-measure 1/2
    assert conv_q_indicator(f, 1.0, 1.0, (0.0,)) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        conv_q_indicator(f, INF, 1.0, (0.0,))
    with pytest.raises(ValueError):
        conv_q_indicator(f, 1.0, -1.0, (0.0,))


def test_conv_q_indicator_continuity_modulus():
    f = line_fn((0.0, 1.0, 2.0), (1.5, 2.0, 1.0))
    q = 2.0
    lip = sum(c.value**q for c in f.cells)  # |phi'| <= sum v^q * scale * 2
    for h in (0.05, 0.01):
        xs = np.arange(-2.0, 4.0, h)
        vals = [conv_q_indicator(f, q, 0.8, (float(x),)) for x in xs]
        jumps = np.abs(np.diff(vals))
        assert jumps.max() <= lip * h * (1 + 1e-9)


def test_ball_norm_fubini_line():
    for i in range(20):
        f = gen_random_simple(900 + i, 1 + i % 8, ((-4.0, 4.0),), REAL_LINE)
        for q in (1.0, 2.0, 3.0):
            r = 2.0 ** (i % 5 - 2)
            bn = ball_norm(f, REAL_LINE, r, q, q)
            assert bn == pytest.approx(
                r ** (1.0 / q) * lebesgue_norm(f, q), rel=1e-9
            )


def test_ball_norm_sup_example():
    # chi of lambda-measure 1/2 on [0,1); window of lambda-measure 1/4
    f = line_fn((0.0, 1.0, 1.0))
    assert ball_norm(f, REAL_LINE, 0.25, 1.0, INF) == pytest.approx(0.25, rel=1e-12)


def test_ball_norm_zero_and_guards():
    assert ball_norm(zero_function(REAL_LINE), REAL_LINE, 1.0, 2.0, 2.0) == 0.0
    f = line_fn((0.0, 1.0, 1.0))
    with pytest.raises(ValueError):
        ball_norm(f, REAL_LINE, 0.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ball_norm(f, HEISENBERG, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        ball_norm(f, REAL_LINE, 1.0, 1.0, 1.0, mesh=-0.5)


def test_ball_quadrature_refuses_a_mesh_it_cannot_hold():
    cube = simple_function(HEISENBERG, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0)])
    # 300 x 300 x 2201 y-points, counted before the mesh is made
    with pytest.raises(ValueError, match=r"needs 1\.981e\+08 y-points, more than 16777216"):
        ball_norm(cube, HEISENBERG, 1.0, 1.0, 1.0, mesh=0.01)
    # the shear padding of t overflows: no finite count
    with pytest.raises(ValueError, match=r"needs nan y-points, more than 16777216"):
        ball_norm(cube, HEISENBERG, 1e200, 1.0, 1.0)
    square = simple_function(ANISO_PLANE, [((0.0, 0.0), (1.0, 1.0), 1.0)])
    with pytest.raises(ValueError, match=r"needs inf y-points"):
        ball_norm(square, ANISO_PLANE, 1e200, 1.0, 1.0)


def test_ball_quadrature_refuses_y_cells_past_the_float_range():
    # 2 y-points per axis, each step about 5e299 wide: their product overflows
    f = simple_function(HEISENBERG, [((1.0, -1.0, -1.0), (1e300, 0.0, 1.0), 1.0)])
    for q, p in ((4.0, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match=r"has y-cells of volume inf, past the float range"):
            ball_norm(f, HEISENBERG, 1.0, q, p, mesh=1e300)


def test_ball_norm_infinite_q_line():
    f = line_fn((0.0, 1.0, 2.0), (3.0, 4.0, 5.0))
    # p = inf: global sup; p finite: integrates the step max-profile
    assert ball_norm(f, REAL_LINE, 0.5, INF, INF) == 5.0
    v = ball_norm(f, REAL_LINE, 0.5, INF, 1.0)
    # profile: 2 on (-.5, 1.5), 5 on (2.5, 4.5): lambda-integral = 2 + 5
    assert v == pytest.approx(2.0 * 1.0 + 5.0 * 1.0, rel=1e-12)


def test_ball_norm_doubling_radius_bounded():
    for i in range(10):
        f = gen_random_simple(700 + i, 1 + i % 6, ((-4.0, 4.0),), REAL_LINE)
        for q, p in ((1.0, 2.0), (2.0, INF)):
            r = 0.7
            ratio = ball_norm(f, REAL_LINE, 2 * r, q, p) / ball_norm(
                f, REAL_LINE, r, q, p
            )
            assert ratio <= 3.0 * (1 + 1e-9)


@pytest.mark.parametrize("g", [ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_ball_norm_quadrature_fubini(g):
    window = tuple((-1.0, 1.0) for _ in range(g.d))
    f = gen_random_simple(41, 2, window, g)
    for r in (1.0, 3.0):
        bn = ball_norm(f, g, r, 2.0, 2.0, mesh=r / 8.0)
        exact = g.ball_measure(r) ** 0.5 * lebesgue_norm(f, 2.0)
        assert bn == pytest.approx(exact, rel=0.02)


def test_compute_norm_method_labels():
    f = line_fn((0.0, 1.0, 1.0))
    res = compute_norm(f, REAL_LINE, "partition", 1.0, 2.0, 1.0)
    assert res.method == "exact" and res.mesh is None
    res = compute_norm(f, REAL_LINE, "ball", 1.0, 2.0, 1.0)
    assert res.method == "exact"
    g = HEISENBERG
    fh = gen_random_simple(3, 1, tuple((-1.0, 1.0) for _ in range(3)), g)
    assert compute_norm(fh, g, "partition", 1.0, 2.0, 1.0).method == "cellsum"
    resb = compute_norm(fh, g, "ball", 1.0, 2.0, 1.0)
    assert resb.method == "quadrature" and resb.mesh == pytest.approx(1.0 / 3.0)
    assert resb.note is None
    noted = compute_norm(fh, g, "ball", 1.0, INF, 1.0)
    assert noted.note is not None  # mesh max stands in for the essential sup
    with pytest.raises(ValueError):
        compute_norm(f, REAL_LINE, "spectral", 1.0, 1.0, 1.0)


def test_conv_q_indicator_heisenberg_quadrature():
    g = HEISENBERG
    fh = gen_random_simple(21, 2, tuple((-0.5, 0.5) for _ in range(3)), g)
    # a huge ball swallows the support: integral = ||f||_q^q
    total = conv_q_indicator(fh, 2.0, 50.0, g.identity(), mesh=64)
    assert total == pytest.approx(lebesgue_norm(fh, 2.0) ** 2, rel=0.01)


def test_conv_q_indicator_aniso_ball_containing_support():
    g = ANISO_PLANE
    for seed in range(5):
        f = gen_random_simple(60 + seed, 1 + seed % 4, ((-1.0, 1.0), (-1.0, 1.0)), g)
        # x.B(e, 2) is the box x + (-2, 2) x (-4, 4), which contains the support
        for q in (1.0, 2.5):
            total = conv_q_indicator(f, q, 2.0, (0.1, -0.2))
            assert total == pytest.approx(lebesgue_norm(f, q) ** q, rel=1e-12)


@pytest.mark.parametrize("g", [ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_ball_norm_sup_sup_is_largest_value(g):
    window = tuple((-1.0, 1.0) for _ in range(g.d))
    for seed in range(3):
        f = gen_random_simple(80 + seed, 1 + seed, window, g)
        assert ball_norm(f, g, 0.5, INF, INF) == max(c.value for c in f.cells)


HOMOGENEITY_WINDOWS = {
    "real-line": ((-4.0, 4.0),),
    "aniso-plane": ((-1.0, 1.0), (-1.0, 1.0)),
    "heisenberg": ((-0.5, 0.5), (-0.5, 0.5), (-0.25, 0.25)),
}


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
@pytest.mark.parametrize("factor", [1e300, 1e-300])
def test_norms_of_extreme_multiples_scale_exactly(g, factor):
    f = gen_random_simple(41, 3, HOMOGENEITY_WINDOWS[g.name], g)
    big = scale(f, factor)
    part = partition_for(f, g, 0.5)

    def same(value, reference):
        assert value == pytest.approx(factor * reference, rel=1e-12, abs=0.0)

    for q in (1.0, 2.0, 3.5):
        same(lebesgue_norm(big, q), lebesgue_norm(f, q))
    # q = p = 1100 and p = 2000 take powers past the float range, which the
    # plain sums lose; the line's ball sweep raises there instead
    for q in (1100.0, 2000.0):
        same(lebesgue_norm(big, q), lebesgue_norm(f, q))
    for q, p in ((2.0, 2.0), (1.0, 3.0), (2.0, INF), (1100.0, 1100.0), (2.0, 2000.0)):
        same(lorentz_norm(big, q, p), lorentz_norm(f, q, p))
    for q, p in ((2.0, 2.0), (INF, 2.0), (1.5, 3.0), (2.0, INF), (1100.0, 1100.0), (2.0, 2000.0)):
        same(partition_norm(big, part, q, p), partition_norm(f, part, q, p))
    for q, p in ((2.0, 2.0), (INF, 2.0), (1.5, INF)) + ((1100.0, 1100.0), (2.0, 2000.0)) * (g.d > 1):
        same(ball_norm(big, g, 0.5, q, p), ball_norm(f, g, 0.5, q, p))
    x = g.identity()
    same(conv_q_indicator(big, 1.0, 0.5, x), conv_q_indicator(f, 1.0, 0.5, x))
    # the q-th power of a norm: (1e150)^2 f's integral is 1e300 times f's
    root = scale(f, math.sqrt(factor))
    same(conv_q_indicator(root, 2.0, 0.5, x), conv_q_indicator(f, 2.0, 0.5, x))


ONE = line_fn((0.0, 2.0, 1.0))  # value 1 on measure 1
THIN = line_fn((0.0, 2e-100, 1.0))  # value 1 on measure 1e-100
WIDE = line_fn((0.0, 1e300, 1.0))  # value 1 on [0, 1e300)
UNIT = line_fn((0.0, 1.0, 1.0))  # value 1 on [0, 1)
HUGE = line_fn((-1.5e308, 0.0, 1.0), (0.0, 1.5e308, 1.0))  # value 1 on [-1.5e308, 1.5e308)
FAR = line_fn((1e308, 1.1e308, 1.0))  # value 1 on [1e308, 1.1e308)
# value 1 on three cells whose knots span more than the float range
SPREAD = line_fn((-1e308, -1e308 + 1e292, 1.0), (0.0, 1.0, 1.0), (1e308 - 1e292, 1e308, 1.0))
WIDE_CELL = line_fn((-0.9e308, 0.89e308, 1.0))  # knots a - r, b + r 1.99e308 apart at r = 1e307
SPECK = line_fn((0.0, 5e-324, 7.0), (1.0, 2.0, 1.0))  # a cell of measure below the float range
VAST = line_fn((0.0, 1e300, 1e10))  # value 1e10 on [0, 1e300): every norm past the float range
HEAVY = line_fn((0.0, 1e10, 1e300))  # value 1e300 on [0, 1e10)
# values 0.15-0.21 on the plane; the ball B((2.5, -1), 8) holds every cell
SMALL_VALUES = gen_random_simple(3, 3, ((-2.0, 2.0), (-4.0, 4.0)), ANISO_PLANE)


@pytest.mark.parametrize(
    "norm, want, may_raise",
    [
        (lambda: lebesgue_norm(ONE, 1100.0), 1.0, False),
        (lambda: conv_q_indicator(ONE, 1100.0, 1.0, (0.5,)), 0.75, False),
        (lambda: partition_norm(ONE, partition_for(ONE, REAL_LINE, 1.0), 1100.0, 1100.0), 1.0, True),
        (lambda: ball_norm(ONE, REAL_LINE, 1.0, 1100.0, 1100.0), 1.0, True),
        (lambda: partition_norm(ONE, partition_for(ONE, REAL_LINE, 0.3), 2.0, 2000.0), 0.2742127242198547, True),
        (lambda: partition_norm(THIN, partition_for(THIN, REAL_LINE, 1.0), 1.0, 4.0), 1e-100, True),
        (lambda: ball_norm(THIN, REAL_LINE, 1e-100, 1.0, 4.0), 7.952707287670507e-126, True),
        # ramps far below ulp(r): Fubini's lambda(B(e, 1)) ||THIN||_1, and
        # ||THIN||_2 on every y of a set of measure 1
        (lambda: ball_norm(THIN, REAL_LINE, 1.0, 1.0, 1.0), 1e-100, False),
        (lambda: ball_norm(THIN, REAL_LINE, 1.0, 2.0, 3.0), 1e-50, False),
        # the q-th power, not the norm: at q = 1100 it is below the float range,
        # so the root a caller takes is refused, not 0.0
        (lambda: conv_q_indicator(SMALL_VALUES, 1100.0, 8.0, (2.5, -1.0)) ** (1.0 / 1100.0), 0.2086785590826528, True),
        (lambda: conv_q_indicator(SMALL_VALUES, 100.0, 8.0, (2.5, -1.0)), 8.867126974724495e-69, False),
        # the line sweep's phi^s past the float range at r = 1e300: the norm
        # scales as r^(1/q + 1/p), from its value at r = 1 on [0, 1); at q = 1
        # it is 4.6e374, so no float can match it
        (lambda: ball_norm(WIDE, REAL_LINE, 1e300, 2.0, 4.0), 0.6756000774035171e225, True),
        (lambda: ball_norm(WIDE, REAL_LINE, 1e300, 1.0, 4.0), math.nan, True),
        # the knot b + r past the float range: at p = inf the norm is
        # lambda(B(e, r)) = r at q = 1 and its root at q = 2
        (lambda: ball_norm(HUGE, REAL_LINE, 1e308, 1.0, INF), 1e308, True),
        (lambda: ball_norm(HUGE, REAL_LINE, 1e308, 2.0, INF), 1e154, True),
        # knots in range, but not the gap from the first to the last: the
        # norm is 1/2 at (1, inf), sqrt(r) at (inf, 2) and sqrt(r) / 2 at (1, 2)
        (lambda: ball_norm(UNIT, REAL_LINE, 1.7e308, 1.0, INF), 0.5, True),
        (lambda: ball_norm(UNIT, REAL_LINE, 1.7e308, INF, 2.0), math.sqrt(1.7e308), True),
        (lambda: ball_norm(UNIT, REAL_LINE, 1.7e308, 1.0, 2.0), math.sqrt(1.7e308) / 2.0, True),
        (lambda: ball_norm(UNIT, REAL_LINE, 8e307, 1.0, INF), 0.5, False),
        (lambda: ball_norm(UNIT, REAL_LINE, 8e307, INF, 2.0), 8.944271909999159e153, False),
        # every knot and gap in range: (b + r) - (a - r) times the measure scale 1/2
        (lambda: ball_norm(FAR, REAL_LINE, 1.0, INF, 1.0), 4.999999999999998e306, False),
        # the gaps between knots in range, though not their span
        (lambda: ball_norm(SPREAD, REAL_LINE, 1.0, 1.0, 1.0), 1.99584030953472e292, False),
        (lambda: ball_norm(SPREAD, REAL_LINE, 1.0, INF, 1.0), 1.99584030953472e292, False),
        (lambda: ball_norm(SPREAD, REAL_LINE, 1.0, 1.0, INF), 1.0, False),
        (lambda: ball_norm(SPREAD, REAL_LINE, 1.0, 1.0, 2.0), 1.412742124216136e146, False),
        # every gap between knots in range, but not the segment from a - r to b + r
        (lambda: ball_norm(WIDE_CELL, REAL_LINE, 1e307, INF, 1.0), 0.995e308, True),
        # norms past the float range at q = inf or p = inf: refused, as at finite (q, p)
        (lambda: ball_norm(VAST, REAL_LINE, 1.0, INF, 1.0), math.nan, True),
        (lambda: ball_norm(HEAVY, REAL_LINE, 1e10, 1.0, INF), math.nan, True),
        (lambda: ball_norm(HEAVY, REAL_LINE, 1e10, INF, 1.0), math.nan, True),
        # at q = inf a piece counts by overlap, though its measure is 0.0
        (lambda: partition_norm(SPECK, partition_for(SPECK, REAL_LINE, 0.5), INF, INF), 7.0, False),
        (lambda: partition_norm(SPECK, partition_for(SPECK, REAL_LINE, 1.0), INF, INF), 7.0, False),
        (lambda: partition_norm(SPECK, partition_for(SPECK, REAL_LINE, 4.0), INF, INF), 7.0, False),
    ],
    ids=[
        "lebesgue",
        "conv",
        "partition",
        "ball",
        "partition-p2000",
        "thin-partition",
        "thin-ball",
        "thin-ball-collapsed-ramps",
        "thin-ball-collapsed-ramps-q2-p3",
        "conv-power-below-the-range",
        "conv-power-q100",
        "wide-ball-q2-p4",
        "wide-ball-q1-p4",
        "huge-ball-q1-pinf",
        "huge-ball-q2-pinf",
        "unit-ball-r1.7e308-q1-pinf",
        "unit-ball-r1.7e308-qinf-p2",
        "unit-ball-r1.7e308-q1-p2",
        "unit-ball-r8e307-q1-pinf",
        "unit-ball-r8e307-qinf-p2",
        "far-ball-qinf-p1",
        "spread-ball-q1-p1",
        "spread-ball-qinf-p1",
        "spread-ball-q1-pinf",
        "spread-ball-q1-p2",
        "wide-cell-ball-r1e307-qinf-p1",
        "vast-ball-qinf-p1",
        "heavy-ball-r1e10-q1-pinf",
        "heavy-ball-r1e10-qinf-p1",
        "speck-partition-r0.5-qinf-pinf",
        "speck-partition-r1-qinf-pinf",
        "speck-partition-r4-qinf-pinf",
    ],
)
def test_norms_whose_powers_leave_the_float_range(norm, want, may_raise):
    """Each norm gives its value, or, where one of its levels is no power
    sum (the two-level norms), the float-range error; never 0.0 or inf."""
    try:
        got = norm()
    except ValueError as exc:
        assert may_raise and "float range" in str(exc)
        return
    assert got == pytest.approx(want, rel=1e-12, abs=0.0)


def test_line_ball_of_a_cell_wider_than_half_the_float_range():
    """At r = 1e307 every gap between WIDE_CELL's knots is in range, but not
    the segment from a - r to b + r.  At q = inf its width scaled by 1/2
    gives the norm (b + r - (a - r)) / 2 at p = 1 and its square root at p =
    2; at q = p = 1 the norm, about r ||f||_1 = 9e614, is past the float
    range; at q = p = inf it is the largest value."""
    want = 0.5 * 0.99e308 + 0.5 * 1e308
    assert ball_norm(WIDE_CELL, REAL_LINE, 1e307, INF, 1.0) == pytest.approx(want, rel=1e-12, abs=0.0)
    assert ball_norm(WIDE_CELL, REAL_LINE, 1e307, INF, 2.0) == pytest.approx(math.sqrt(want), rel=1e-12, abs=0.0)
    assert ball_norms(WIDE_CELL, REAL_LINE, [1.0, 1e307], INF, 1.0)[1] == ball_norm(WIDE_CELL, REAL_LINE, 1e307, INF, 1.0)
    with pytest.raises(ValueError, match="float range"):
        ball_norm(WIDE_CELL, REAL_LINE, 1e307, 1.0, 1.0)
    assert ball_norm(WIDE_CELL, REAL_LINE, 1e307, INF, INF) == 1.0


SPAN = line_fn((-3e300, 1e300, 0.5))  # value 0.5 on [-3e300, 1e300)


def test_partition_norm_whose_local_powers_leave_the_float_range(capsys, tmp_path):
    """At r = 1e300 SPAN meets 8 cells, each of local L^2 norm 2.5e149,
    whose cubes are past the float range, though the (2, 3) norm, 5e149,
    is not.  It is summed as a run that lost digits is, and matches the
    pieces' own measures in 60-digit Decimal; the fractional-mean norm and
    the CLI read the same sums."""
    part = partition_for(SPAN, REAL_LINE, 1e300)
    measures = [m for _, _, _, ms in part.intersections_with_box(SPAN.lo, SPAN.hi) for m in ms.tolist()]
    with localcontext() as ctx:
        ctx.prec = 60
        local = [(Decimal(0.5) ** 2 * Decimal(m)).sqrt() for m in measures]
        exact = float(sum(x**3 for x in local) ** (Decimal(1) / 3))
    assert len(measures) == 8 and exact == pytest.approx(5e149, rel=1e-15)
    assert partition_norm(SPAN, part, 2.0, 3.0) == pytest.approx(exact, rel=1e-12, abs=0.0)
    t = ExponentTriple(2.0, 3.0, 2.5)
    grid = default_grid(SPAN)
    res = fractional_norm_partition(SPAN, REAL_LINE, t, grid)
    w = REAL_LINE.rho * (1.0 / t.alpha - 1.0 / t.q)
    assert res.value == max(r**w * partition_norm(SPAN, partition_for(SPAN, REAL_LINE, r), 2.0, 3.0) for r in grid.radii())
    spec = tmp_path / "span.json"
    spec.write_text(json.dumps({"group": "real-line", "cells": [{"lo": [-3e300], "hi": [1e300], "value": 0.5}]}))
    assert main(["norm", "--form", "partition", "--q", "2", "--p", "3", "--r", "1e300", "--fn", str(spec)]) == 0
    assert json.loads(capsys.readouterr().out)["value"] == pytest.approx(exact, rel=1e-12, abs=0.0)


def test_conv_q_indicator_beyond_the_float_range_is_inf():
    f = line_fn((0.0, 1.0, 1e300))
    assert conv_q_indicator(f, 2.0, 1.0, (0.5,)) == INF


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_ball_box_kernel_takes_one_box_per_row(g):
    rng = np.random.default_rng(7)
    n = 300  # beyond one 128-row block of the Heisenberg kernel
    ys = rng.uniform(-1.0, 1.0, (n, g.d))
    lo = rng.uniform(-1.0, 0.5, (n, g.d))
    hi = lo + rng.uniform(0.1, 1.0, (n, g.d))
    rows = g.geometry.ball_box_measure(ys, 0.7, lo, hi, 16)
    one_by_one = [
        g.geometry.ball_box_measure(ys[k : k + 1], 0.7, lo[k], hi[k], 16)[0] for k in range(n)
    ]
    assert rows.shape == (n,)
    np.testing.assert_allclose(rows, one_by_one, rtol=1e-12, atol=0.0)
