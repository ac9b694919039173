import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams import simplefn
from amalgams.groups import ANISO_PLANE, REAL_LINE
from amalgams.simplefn import (
    SimpleFunction,
    box_intersection,
    box_subtract,
    distribution_at,
    indicator,
    lebesgue_norm,
    lorentz_norm,
    pointwise_combine,
    rearrangement,
    simple_function,
    zero_function,
)

INF = math.inf


def line_fn(*cells):
    return simple_function(REAL_LINE, [((lo,), (hi,), v) for lo, hi, v in cells])


# measure 1 cell with value 3, measure 2 cell with value 1 (Haar scale 1/2)
F = line_fn((0.0, 2.0, 3.0), (3.0, 7.0, 1.0))


def test_lebesgue_examples():
    one = line_fn((0.0, 2.0, 1.0))  # lambda-measure 1
    assert lebesgue_norm(one, 2.0) == 1.0
    assert lebesgue_norm(F, 1.0) == 5.0
    assert lebesgue_norm(F, INF) == 3.0
    with pytest.raises(ValueError):
        lebesgue_norm(F, 0.5)


def test_distribution_examples():
    assert distribution_at(F, 2.0) == 1.0
    assert distribution_at(F, 0.0) == 3.0
    assert distribution_at(F, 3.0) == 0.0
    with pytest.raises(ValueError):
        distribution_at(F, -1.0)


def test_rearrangement_examples():
    f = line_fn((0.0, 2.0, 1.0), (3.0, 5.0, 3.0))
    prof = rearrangement(f)
    assert prof.breakpoints == (0.0, 1.0, 2.0)
    assert prof.values == (3.0, 1.0)
    single = line_fn((0.0, 4.0, 5.0))
    prof = rearrangement(single)
    assert prof.breakpoints == (0.0, 2.0)
    assert prof.values == (5.0,)
    assert rearrangement(zero_function(REAL_LINE)).values == ()


def test_rearrangement_merges_equal_values():
    f = line_fn((0.0, 1.0, 2.0), (5.0, 6.0, 2.0), (2.0, 3.0, 1.0))
    prof = rearrangement(f)
    assert prof.values == (2.0, 1.0)
    assert prof.breakpoints == (0.0, 1.0, 1.5)


@settings(max_examples=60)
@given(
    st.lists(
        st.tuples(st.floats(0.1, 4.0), st.floats(0.05, 9.0)), min_size=1, max_size=8
    ),
    st.floats(0.0, 10.0),
)
def test_equimeasurability(sizes, s):
    cells, x = [], 0.0
    for width, v in sizes:
        cells.append((x, x + width, v))
        x += width + 0.25
    f = line_fn(*cells)
    prof = rearrangement(f)
    assert distribution_at(f, s) == pytest.approx(prof.distribution(s), abs=1e-12)


def test_lorentz_examples():
    one = line_fn((0.0, 2.0, 1.0))
    for q in (1.0, 1.5, 2.0, 7.0):
        for p in (1.0, 2.0, 5.0):
            assert lorentz_norm(one, q, p) == pytest.approx(1.0, rel=1e-12)
    four = line_fn((0.0, 8.0, 1.0))  # lambda-measure 4
    assert lorentz_norm(four, 2.0, INF) == pytest.approx(2.0, rel=1e-12)
    two_step = line_fn((0.0, 2.0, 3.0), (3.0, 5.0, 1.0))
    assert lorentz_norm(two_step, 1.0, 1.0) == pytest.approx(4.0, rel=1e-12)
    assert lorentz_norm(two_step, 1.0, 1.0) == pytest.approx(
        lebesgue_norm(two_step, 1.0), rel=1e-12
    )


@pytest.mark.parametrize("q, p", [(1.5, 2.0), (1.0, 4.0), (4.0, 1.0), (2.0, 2.0)])
@pytest.mark.parametrize("lo, hi", [(-1e300, 1.0), (0.0, 1e-300)])
def test_lorentz_of_a_measure_near_the_float_range(lo, hi, q, p):
    """One step of height v on measure m has Lorentz norm v m^(1/q) for
    every p; the breakpoints' powers would leave the float range."""
    f = line_fn((lo, hi, 1e-300))
    m = f.cells[0].measure
    exact = math.exp(math.log(1e-300) + math.log(m) / q)
    assert lorentz_norm(f, q, p) == pytest.approx(exact, rel=1e-13)


def test_lorentz_past_the_float_range_is_inf():
    # 1e300 on an aniso-plane cell of measure 3.75e299: (2/3)-rds power 5e199
    f = simple_function(ANISO_PLANE, [((-1e300, -1.0), (1.0, 0.5), 1e300)])
    assert lorentz_norm(f, 1.5, 2.0) == INF
    g = simple_function(ANISO_PLANE, [((-1e300, -1.0), (1.0, 0.5), 1e-300)])
    assert lorentz_norm(g, 1.5, 2.0) == pytest.approx(5.2002095576297606e-101, rel=1e-13)
    # a cell of infinite measure
    h = simple_function(ANISO_PLANE, [((-1e300, -1e300), (-1.0, -1.0), 5e-324)])
    assert h.cells[0].measure == INF and lorentz_norm(h, 1.5, 1.5) == INF


def _plain_lorentz(prof, q, p):
    """The finite-(q, p) Lorentz sum with one value shift and unscaled
    breakpoints, as lorentz_norm evaluates every profile whose powers stay
    in the normal float range."""
    s = p / q
    e = simplefn._unit_exponent(prof.values[0], p)
    total = 0.0
    for i, v in enumerate(prof.values):
        t0, t1 = prof.breakpoints[i], prof.breakpoints[i + 1]
        total += math.ldexp(v, -e) ** p * (t1**s - t0**s)
    return simplefn._times_pow2(total ** (1.0 / p), e)


def _contiguous(steps):
    """A real-line function with the given (width, value) cells laid end to
    end, narrowest first so that no width is lost to rounding."""
    cells, x = [], 0.0
    for width, v in sorted(steps):
        cells.append((x, x + width, v))
        x += width
    return line_fn(*cells)


def _decimal(lo, hi):
    return st.builds(
        lambda m, k: m * 10.0**k, st.floats(1.0, 9.99), st.integers(lo, hi)
    )


# a value 1e300 on measure 1e-300 below a value 1 on measure 1e300, at s =
# 1/2: the breakpoints differ by 600 decades, yet no power leaves the range
WIDE_STEPS = [(2e-300, 1e300), (2e300, 1.0)]


@settings(max_examples=80)
@given(
    steps=st.lists(st.tuples(_decimal(-20, 20), _decimal(-20, 20)), min_size=1, max_size=5),
    q=st.sampled_from([1.0, 1.5, 2.0, 4.0, 7.5]),
    p=st.sampled_from([1.0, 1.5, 2.0, 4.0, 7.5]),
)
@example(steps=WIDE_STEPS, q=2.0, p=1.0)
# breakpoints 5e19 and 5.000000000000001e19 one ulp apart: a gap t1^s - t0^s of 0
@example(steps=[(10000.0, 0.1), (1e20, 1.0)], q=2.0, p=1.0)
# after the value shift the small step's term underflows, far below the total
@example(steps=[(1.0, 1e20), (1e-6, 1e-20)], q=1.0, p=7.5)
def test_lorentz_in_the_normal_range_is_the_plain_sum(steps, q, p):
    f = _contiguous(steps)
    assert lorentz_norm(f, q, p) == _plain_lorentz(rearrangement(f), q, p)


def test_lorentz_of_steps_600_decades_apart():
    f = line_fn((0.0, 1e-300, 1e300), (1.0, 1e300, 1.0))
    # 1e300 sqrt(5e-301) + sqrt(5e299) - sqrt(5e-301) = 2 sqrt(5e299)
    assert lorentz_norm(f, 2.0, 1.0) == pytest.approx(math.sqrt(2.0) * 1e150, rel=1e-15)
    # at q = 1 both steps give 1 in the p-th power sum, whose powers overflow
    g = _contiguous([(2e-200, 1e200), (2e200, 1e-200)])
    for p in (1.5, 2.0, 4.0):
        assert lorentz_norm(g, 1.0, p) == pytest.approx(2.0 ** (1.0 / p), rel=1e-13)


def test_lorentz_of_powers_below_the_normal_range():
    # 1e300 on measure 1e-300 at q = 1: its 4th power sum 1e1200 * 1e-300^4
    assert lorentz_norm(line_fn((0.0, 2e-300, 1e300)), 1.0, 4.0) == pytest.approx(1.0, rel=1e-13)
    # 1 on measure 1 at p = 2000, where 0.5**2000 underflows
    one = line_fn((0.0, 2.0, 1.0))
    assert lorentz_norm(one, 2000.0, 2000.0) == pytest.approx(1.0, rel=1e-13)
    assert lorentz_norm(one, 2.0, 2000.0) == pytest.approx(1.0, rel=1e-13)


def _exact_log_lorentz(prof, p, s):
    """log of the Lorentz norm, from the exact rational p-th power sum of
    the profile (integer p and s)."""
    total = sum(
        Fraction(v) ** p * (Fraction(t1) ** s - Fraction(t0) ** s)
        for v, t0, t1 in zip(prof.values, prof.breakpoints, prof.breakpoints[1:])
    )
    return (math.log(total.numerator) - math.log(total.denominator)) / p


@settings(max_examples=80, deadline=None)
@given(
    steps=st.lists(st.tuples(_decimal(-300, 300), _decimal(-300, 300)), min_size=1, max_size=4),
    ps=st.sampled_from([(1, 1), (2, 2), (4, 4), (2, 1), (4, 2), (4, 1)]),
)
@example(steps=WIDE_STEPS, ps=(1, 1))
@example(steps=[(2e-200, 1e200), (2e200, 1e-200)], ps=(2, 2))
@example(steps=[(2e-300, 1e300)], ps=(4, 4))
def test_lorentz_at_any_scale_matches_the_exact_sum(steps, ps):
    p, s = ps
    f = _contiguous(steps)
    want = _exact_log_lorentz(rearrangement(f), p, s)
    got = lorentz_norm(f, p / s, p)
    if want > math.log(sys.float_info.max) + 1e-9:
        assert got == INF
    elif want > math.log(sys.float_info.min) + 1e-9 and want < math.log(sys.float_info.max) - 1e-9:
        assert math.log(got) == pytest.approx(want, rel=0.0, abs=1e-12)


def test_lorentz_rejects_infinite_q_finite_p():
    with pytest.raises(ValueError):
        lorentz_norm(F, INF, 2.0)
    assert lorentz_norm(F, INF, INF) == 3.0


@settings(max_examples=40)
@given(
    st.lists(
        st.tuples(st.floats(0.1, 3.0), st.floats(0.05, 9.0)), min_size=1, max_size=8
    )
)
def test_lorentz_diagonal_matches_lebesgue(sizes):
    cells, x = [], 0.0
    for width, v in sizes:
        cells.append((x, x + width, v))
        x += width + 0.125
    f = line_fn(*cells)
    for q in (1.0, 1.5, 2.0, 3.0):
        assert lorentz_norm(f, q, q) == pytest.approx(
            lebesgue_norm(f, q), rel=1e-12
        )


def test_indicator_lorentz_closed_form():
    for measure in (0.25, 1.0, 3.5):
        f = line_fn((0.0, 2.0 * measure, 1.0))
        for q in (1.0, 2.0, 4.0):
            for p in (1.0, 2.5, INF):
                assert lorentz_norm(f, q, p) == pytest.approx(
                    measure ** (1.0 / q), rel=1e-12
                )


def test_norm_homogeneity_exact():
    g = pointwise_combine(F, op="scale", factor=2.5)
    for q in (1.0, 2.0, INF):
        assert lebesgue_norm(g, q) == pytest.approx(2.5 * lebesgue_norm(F, q), rel=1e-15)
    assert lorentz_norm(g, 2.0, 1.0) == pytest.approx(
        2.5 * lorentz_norm(F, 2.0, 1.0), rel=1e-13
    )


@settings(max_examples=40)
@given(
    st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.05, 5.0)), min_size=1, max_size=5),
    st.lists(st.tuples(st.floats(0.1, 2.0), st.floats(0.05, 5.0)), min_size=1, max_size=5),
)
def test_triangle_inequalities(a_cells, b_cells):
    def build(sizes, offset):
        cells, x = [], offset
        for width, v in sizes:
            cells.append((x, x + width, v))
            x += width
        return line_fn(*cells)

    f = build(a_cells, 0.0)
    g = build(b_cells, 0.7)
    s = pointwise_combine(f, g, op="sum")
    for q in (1.0, 2.0, 3.0, INF):
        assert lebesgue_norm(s, q) <= (
            lebesgue_norm(f, q) + lebesgue_norm(g, q)
        ) * (1 + 1e-12)
    # the Lorentz functional is a norm when p <= q
    for q, p in ((2.0, 1.0), (3.0, 1.5), (2.0, 2.0)):
        assert lorentz_norm(s, q, p) <= (
            lorentz_norm(f, q, p) + lorentz_norm(g, q, p)
        ) * (1 + 1e-12)


def test_lorentz_triangle_fails_for_p_above_q():
    # explicit witness: the (q, p) = (1, 2) functional is only a quasinorm
    f = line_fn((0.0, 2.0, 1.0))
    g = line_fn((0.0, 2.0, 0.1), (2.0, 6.0, 1.0))
    s = pointwise_combine(f, g, op="sum")
    assert lorentz_norm(s, 1.0, 2.0) > lorentz_norm(f, 1.0, 2.0) + lorentz_norm(
        g, 1.0, 2.0
    )


def test_combine_examples():
    zero = zero_function(REAL_LINE)
    assert pointwise_combine(F, zero, op="product").is_zero()
    chi = line_fn((0.0, 1.0, 1.0))
    sq = pointwise_combine(chi, chi, op="product")
    assert lebesgue_norm(sq, 1.0) == pytest.approx(lebesgue_norm(chi, 1.0))
    doubled = pointwise_combine(line_fn((0.0, 1.0, 3.0)), op="scale", factor=2.0)
    assert doubled.cells[0].value == 6.0


def test_sum_preserves_l1():
    f = line_fn((0.0, 2.0, 3.0), (2.5, 3.0, 1.0))
    g = line_fn((1.0, 2.75, 2.0))
    s = pointwise_combine(f, g, op="sum")
    assert lebesgue_norm(s, 1.0) == pytest.approx(
        lebesgue_norm(f, 1.0) + lebesgue_norm(g, 1.0), rel=1e-12
    )


def test_box_subtract_partitions():
    pieces = box_subtract((0.0, 0.0), (2.0, 2.0), (0.5, 0.5), (1.5, 1.5))
    total = sum((hi[0] - lo[0]) * (hi[1] - lo[1]) for lo, hi in pieces)
    assert total == pytest.approx(4.0 - 1.0)


def test_validation_errors():
    with pytest.raises(ValueError):
        simple_function(REAL_LINE, [((0.0,), (1.0,), -1.0)])
    with pytest.raises(ValueError):
        simple_function(REAL_LINE, [((0.0,), (0.0,), 1.0)])
    with pytest.raises(ValueError):
        simple_function(REAL_LINE, [((0.0,), (2.0,), 1.0), ((1.0,), (3.0,), 1.0)])
    with pytest.raises(ValueError):
        simple_function(ANISO_PLANE, [((0.0,), (1.0,), 1.0)])
    with pytest.raises(ValueError):
        pointwise_combine(F, indicator(ANISO_PLANE, (0, 0), (1, 1)), op="product")


# -- sweeps of the construction layer --------------------------------------


def _overlap_pairs(cells):
    """All-pairs reference: (i, j), i < j, of half-open boxes sharing volume."""
    return {
        (i, j)
        for i in range(len(cells))
        for j in range(i + 1, len(cells))
        if all(
            a1 < b2 and a2 < b1
            for a1, b1, a2, b2 in zip(cells[i][0], cells[i][1], cells[j][0], cells[j][1])
        )
    }


@st.composite
def grid_boxes(draw, d):
    """Boxes on a coarse integer grid, so that touching and shared faces are common."""
    n = draw(st.integers(min_value=0, max_value=8))
    cells = []
    for _ in range(n):
        lo = [draw(st.integers(min_value=0, max_value=6)) for _ in range(d)]
        width = [draw(st.integers(min_value=1, max_value=3)) for _ in range(d)]
        cells.append((tuple(float(a) for a in lo), tuple(float(a + w) for a, w in zip(lo, width)), 1.0))
    return cells


def _check_against_reference(g, cells):
    pairs = _overlap_pairs(cells)
    if not pairs:
        f = simple_function(g, cells)
        assert [(c.lo, c.hi) for c in f.cells] == [(lo, hi) for lo, hi, _ in cells]
        return
    with pytest.raises(ValueError, match="overlap") as info:
        simple_function(g, cells)
    i, j = (int(w) for w in str(info.value).split()[1::2])
    assert (i, j) in pairs


@settings(max_examples=200, deadline=None)
@given(grid_boxes(1))
@example([((0.0,), (1.0,), 1.0), ((1.0,), (2.0,), 1.0)])  # touching
@example([((0.0,), (3.0,), 1.0), ((4.0,), (5.0,), 1.0), ((1.0,), (2.0,), 1.0)])
def test_overlap_sweep_matches_all_pairs_line(cells):
    _check_against_reference(REAL_LINE, cells)


@settings(max_examples=200, deadline=None)
@given(grid_boxes(2))
@example([((0.0, 0.0), (2.0, 1.0), 1.0), ((1.0, 1.0), (3.0, 2.0), 1.0)])  # axis 0 only
@example([((0.0, 0.0), (2.0, 1.0), 1.0), ((0.0, 1.0), (2.0, 2.0), 1.0), ((1.0, 0.5), (3.0, 0.75), 1.0)])
def test_overlap_sweep_matches_all_pairs_plane(cells):
    _check_against_reference(ANISO_PLANE, cells)


def _reference_combine(f, g, op):
    """The all-pairs common refinement, as a list of (lo, hi, value)."""
    out = []
    for cf in f.cells:
        for cg in g.cells:
            inter = box_intersection(cf.lo, cf.hi, cg.lo, cg.hi)
            if inter is None:
                continue
            v = cf.value * cg.value if op == "product" else cf.value + cg.value
            if op == "sum" or v > 0.0:
                out.append((inter[0], inter[1], v))
    if op == "sum":
        for a, b in ((f, g), (g, f)):
            for ca in a.cells:
                pieces = [(ca.lo, ca.hi)]
                for cb in b.cells:
                    pieces = [sub for lo, hi in pieces for sub in box_subtract(lo, hi, cb.lo, cb.hi)]
                out.extend((lo, hi, ca.value) for lo, hi in pieces)
    return simple_function(f.group, out).cells


def _seeded_function(g, seed):
    """Disjoint cells in shuffled order: intervals on the line, a sparse grid in the plane."""
    rng = np.random.default_rng(seed)
    if g.d == 1:
        lens = rng.uniform(0.3, 2.0, 40)
        los = np.cumsum(rng.uniform(0.0, 1.0, 40) + lens) - lens
        boxes = [((float(a),), (float(a + w),)) for a, w in zip(los, lens)]
    else:
        xs, ys = np.sort(rng.uniform(0, 10, 7)), np.sort(rng.uniform(0, 10, 7))
        boxes = [
            ((float(xs[i]), float(ys[j])), (float(xs[i + 1]), float(ys[j + 1])))
            for i in range(6)
            for j in range(6)
            if rng.uniform() < 0.7
        ]
    cells = [(lo, hi, float(rng.uniform(0.0, 5.0))) for lo, hi in boxes]
    return simple_function(g, [cells[k] for k in rng.permutation(len(cells))])


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE], ids=lambda g: g.name)
@pytest.mark.parametrize("op", ["product", "sum"])
def test_combine_matches_all_pairs_reference(g, op):
    for seed in range(10):
        f, h = _seeded_function(g, 2 * seed), _seeded_function(g, 2 * seed + 1)
        assert pointwise_combine(f, h, op=op).cells == _reference_combine(f, h, op)


def test_overlap_sweep_work_is_linear_on_sorted_intervals(monkeypatch):
    calls = []
    real = simplefn.boxes_overlap

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simplefn, "boxes_overlap", counting)
    n = 2000
    f = simple_function(REAL_LINE, [((2.0 * k,), (2.0 * k + 1.5,), 1.0) for k in range(n)])
    assert len(f.cells) == n
    assert len(calls) <= 2 * n


def test_zero_valued_cells_are_checked_but_not_stored():
    f = line_fn((0.0, 1.0, 2.0), (1.0, 3.0, 0.0), (3.0, 4.0, 1.0))
    assert [c.value for c in f.cells] == [2.0, 1.0]
    assert f.support_measure() == 1.0
    assert f.bounding_box() == ((0.0, 4.0),)
    assert line_fn((0.0, 1.0, 0.0)).is_zero()
    # the sweep still sees the zero-valued cell and names input indices
    with pytest.raises(ValueError, match="cells 1 and 2 overlap"):
        line_fn((5.0, 6.0, 1.0), (0.0, 2.0, 0.0), (1.0, 3.0, 1.0))


def test_scale_by_zero_is_zero_and_support_box_is_computed_once():
    f = line_fn((0.0, 1.0, 2.0), (2.0, 3.0, 1.0))
    assert simplefn.scale(f, 0.0).is_zero()
    assert simplefn.scale(f, 0.0).bounding_box() is None
    assert f.bounding_box() is f.bounding_box()
