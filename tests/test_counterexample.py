import math
from dataclasses import replace

import pytest

from amalgams.counterexample import (
    build_sparse_union,
    check_separations,
    fractional_bound_constant,
    level_count,
    separation_bound,
    union_growth,
    union_measure,
    weak_lorentz_of_union,
)
from amalgams.groups import ANISO_PLANE, REAL_LINE, GroupDescriptor
from amalgams.simplefn import lorentz_norm, simple_function, zero_function

INF = math.inf


def test_level_formulas():
    g = REAL_LINE
    # n = 1: floor(2^2) + 1 = 5 balls of radius 1/4, separation 4 * 2^2 = 16
    assert level_count(g, 1) == 5
    assert separation_bound(g, 1.0, 2.0, 1) == pytest.approx(16.0)
    spec, f = build_sparse_union(g, 1.0, 2.0, 1)
    assert spec.counts == (5,)
    assert spec.radii == (0.25,)
    gaps = [b - a for a, b in zip(spec.centers[0], spec.centers[0][1:])]
    assert all(gap > 16.0 for gap in gaps)


def test_level_measures():
    g = REAL_LINE
    for n in (1, 2, 3, 5):
        spec, f = build_sparse_union(g, 1.0, 2.0, n)
        expected = sum(1.0 + 2.0 ** (-k - 1) for k in range(1, n + 1))
        assert union_measure(spec) == pytest.approx(expected, rel=1e-12)
        assert f.support_measure() == pytest.approx(expected, rel=1e-12)
    # lambda(E_1) = 1.25
    spec, _ = build_sparse_union(g, 1.0, 2.0, 1)
    assert union_measure(spec) == pytest.approx(1.25)


def test_zero_levels():
    spec, f = build_sparse_union(REAL_LINE, 1.0, 2.0, 0)
    assert f.is_zero()
    assert weak_lorentz_of_union(f, 2.0) == 0.0


def test_build_guards():
    with pytest.raises(ValueError):
        build_sparse_union(REAL_LINE, 2.0, 2.0, 1)
    with pytest.raises(ValueError):
        build_sparse_union(REAL_LINE, 1.0, 2.0, -1)
    with pytest.raises(ValueError):
        build_sparse_union(ANISO_PLANE, 1.0, 2.0, 1)


def test_build_names_the_float_range():
    # alpha close to q spreads the centres to 3.6e13 by level 7, where a
    # ball of radius 2^-8 is below one ulp
    msg = r"level 7: centre 35605521210349\.83 .* radius 0\.00390625"
    with pytest.raises(ValueError, match=msg):
        build_sparse_union(REAL_LINE, 1.0, 1.2, 8)
    spec, _ = build_sparse_union(REAL_LINE, 1.0, 1.2, 6)
    assert spec.levels == 6


@pytest.mark.parametrize(
    "alpha, n",
    [
        (1.0000001, 1),  # 2**2e7 raises OverflowError
        (1.0 + 2.0 / 1023.5, 1),  # 2**1023.5 is a float, 4 * 2**1023.5 is not
    ],
)
def test_separation_bound_names_the_float_range(alpha, n):
    with pytest.raises(ValueError, match=f"float range at level {n}: the separation bound"):
        separation_bound(REAL_LINE, 1.0, alpha, n)
    with pytest.raises(ValueError, match="float range"):
        build_sparse_union(REAL_LINE, 1.0, alpha, 8)


def test_separations_hold_to_depth_eight():
    spec, f = build_sparse_union(REAL_LINE, 1.0, 2.0, 8)
    assert sum(spec.counts) == sum(2 ** (n + 1) + 1 for n in range(1, 9))
    # disjointness is also visible to the simple-function validator
    assert f.support_measure() == pytest.approx(union_measure(spec), rel=1e-12)


def test_weak_norm_values_and_growth():
    g = REAL_LINE
    prev = 0.0
    for n in range(1, 9):
        spec, f = build_sparse_union(g, 1.0, 2.0, n)
        w = weak_lorentz_of_union(f, 2.0)
        assert w == pytest.approx(lorentz_norm(f, 2.0, INF), rel=1e-12)
        assert w > prev
        prev = w
    # N = 4: lambda = 4 + 15/32, weak norm ~ 2.1139
    spec, f = build_sparse_union(g, 1.0, 2.0, 4)
    assert union_measure(spec) == pytest.approx(4.46875)
    assert weak_lorentz_of_union(f, 2.0) == pytest.approx(math.sqrt(4.46875), rel=1e-12)
    assert weak_lorentz_of_union(f, 2.0) == pytest.approx(2.1139, abs=5e-4)


def test_weak_norm_rejects_non_indicator():
    f = simple_function(REAL_LINE, [((0.0,), (1.0,), 2.0)])
    with pytest.raises(ValueError):
        weak_lorentz_of_union(f, 2.0)


def test_bound_constants_reference_point():
    c = fractional_bound_constant(1.0, 4.0, 2.0)
    assert c.c1 == pytest.approx(2.0**0.25, rel=1e-12)
    assert c.c2 == pytest.approx(2.0**1.25, rel=1e-12)
    assert c.c3 == pytest.approx(2.0**1.25, rel=1e-12)
    assert c.c4 == pytest.approx(4.0, rel=1e-12)
    assert c.bound == pytest.approx(
        4.0 * 2.0**-0.25 / (1.0 - 2.0**-0.25), rel=1e-12
    )
    assert c.bound == pytest.approx(21.14, abs=0.01)


def test_bound_grows_as_alpha_approaches_p():
    lo = fractional_bound_constant(1.0, 4.0, 1.5)
    hi = fractional_bound_constant(1.0, 4.0, 2.0)
    assert lo.bound < hi.bound


def test_bound_rejects_bad_orderings():
    with pytest.raises(ValueError):
        fractional_bound_constant(2.0, 4.0, 2.0)  # alpha not above q
    with pytest.raises(ValueError):
        fractional_bound_constant(1.0, 2.0, 2.0)  # alpha = p: series diverges
    with pytest.raises(ValueError):
        fractional_bound_constant(1.0, INF, 2.0)


def _moved_first_center(spec, level, to):
    centers = list(spec.centers)
    centers[level] = (to,) + centers[level][1:]
    return replace(spec, centers=tuple(centers))


def test_check_separations_reports_each_violation():
    spec, _ = build_sparse_union(REAL_LINE, 1.0, 2.0, 3)
    check_separations(spec, REAL_LINE)
    # level-1 centers sit just over 16 apart: demand 32
    wide = replace(spec, separations=(2.0 * spec.separations[0],) + spec.separations[1:])
    with pytest.raises(ValueError, match="same-level separation violated at level 1"):
        check_separations(wide, REAL_LINE)
    # a level-2 ball 0.45 from the last level-1 center: disjoint (0.25 + 0.125
    # < 0.45) but inside the cross-level threshold 2^-1
    near = _moved_first_center(spec, 1, spec.centers[0][-1] + 0.45)
    with pytest.raises(ValueError, match="cross-level separation threshold violated"):
        check_separations(near, REAL_LINE)
    # level-1 radii as large as their separation: the balls meet
    fat = replace(spec, radii=(spec.separations[0],) + spec.radii[1:])
    with pytest.raises(ValueError, match="balls are not disjoint"):
        check_separations(fat, REAL_LINE)
    with pytest.raises(ValueError):
        check_separations(spec, ANISO_PLANE)


@pytest.mark.parametrize("alpha", [1.5, 2.0, 3.0])
def test_check_separations_work_is_linear(monkeypatch, alpha):
    spec, _ = build_sparse_union(REAL_LINE, 1.0, alpha, 8)
    calls = []
    real = GroupDescriptor.hom_norm

    def counting(self, x):
        calls.append(1)
        return real(self, x)

    monkeypatch.setattr(GroupDescriptor, "hom_norm", counting)
    check_separations(spec, REAL_LINE)
    centers = sum(len(level) for level in spec.centers)
    assert centers == 1028
    assert len(calls) <= 4 * centers


@pytest.mark.parametrize("levels", [0, -1])
def test_union_growth_needs_a_level(levels):
    with pytest.raises(ValueError, match="max_levels"):
        union_growth(1.0, 4.0, 2.0, levels)
