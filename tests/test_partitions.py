import dataclasses
import math

import numpy as np
import pytest

from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.partitions import (
    UniformPartition,
    build_pi_r,
    cell_shape,
    check_scales,
    count_translate_hits,
    n_pi_bound,
    validate,
)


class _CornerBase(UniformPartition):
    """The line partition with the base point of cell (0,) at its corner 0."""

    def base_point(self, idx):
        return (0.0,) if idx == (0,) else super().base_point(idx)


def test_line_cells_at_unit_scale():
    p = build_pi_r(REAL_LINE, 1.0, ((-2.0, 2.0),))
    assert p.u_radius == 0.25
    box = p.cell_box((0,))
    assert box == ((0.0, 0.5),)
    xe = p.base_point((0,))
    assert xe == (0.25,)
    # x_E + U inside the cell, cell inside x_E + V
    u = p.u_radius
    for w in (-0.999 * u, 0.0, 0.999 * u):
        assert p.cell_contains((0,), (xe[0] + w,))
    for x in (0.0, 0.25, 0.4999):
        assert abs(x - xe[0]) < 2 * u


def test_line_window_cell_count():
    p = build_pi_r(REAL_LINE, 2.0, ((-4.0, 4.0),))
    assert p.cell_count() == 8
    assert [p.cell_box((k,)) for k in (-4, 3)] == [((-4.0, -3.0),), ((3.0, 4.0),)]


def test_dilation_covariance():
    for g in (REAL_LINE, ANISO_PLANE, HEISENBERG):
        base = build_pi_r(g, 1.0, tuple((-2.0, 2.0) for _ in range(g.d)))
        scaled = build_pi_r(g, 2.0, tuple((-4.0, 8.0) for _ in range(g.d)))
        idx = (1,) * g.d
        assert scaled.base_point(idx) == pytest.approx(
            g.dilate(2.0, base.base_point(idx))
        )
        if g.name != "heisenberg":
            blo = [b[0] for b in base.cell_box(idx)]
            slo = [b[0] for b in scaled.cell_box(idx)]
            assert tuple(slo) == pytest.approx(g.dilate(2.0, tuple(blo)))


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
@pytest.mark.parametrize("octave", range(-3, 3))
def test_validate_constructed_partitions(g, octave):
    r = 2.0**octave
    window = tuple((-2.0 * r, 2.0 * r) for _ in range(g.d))
    rep = validate(build_pi_r(g, r, window), samples=12, max_cells=40)
    assert rep.ok, rep.failures


def test_validate_catches_corner_base_point():
    p = build_pi_r(REAL_LINE, 1.0, ((-2.0, 2.0),))
    bad = _CornerBase(**{f.name: getattr(p, f.name) for f in dataclasses.fields(p)})  # corner of [0, 0.5)
    rep = validate(bad, samples=16)
    assert not rep.ok
    assert any("escapes" in msg for msg in rep.failures)


def test_validate_single_cell_window():
    p = build_pi_r(REAL_LINE, 1.0, ((0.0, 0.5),))
    assert p.cell_count() == 1
    assert validate(p, samples=10).ok


def test_degenerate_window_rejected():
    with pytest.raises(ValueError):
        build_pi_r(REAL_LINE, 1.0, ((0.0, 0.2),))
    with pytest.raises(ValueError):
        build_pi_r(REAL_LINE, -1.0, ((0.0, 4.0),))
    with pytest.raises(ValueError):
        build_pi_r(HEISENBERG, 1.0, ((0.0, 1.0), (0.0, 1.0), (0.0, 0.01)))


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_locate_agrees_with_contains(g):
    p = build_pi_r(g, 1.3, tuple((-4.0, 4.0) for _ in range(g.d)))
    rng = np.random.default_rng(9)
    for _ in range(200):
        x = tuple(rng.uniform(-3.0, 3.0, g.d))
        idx = p.locate(x)
        assert p.cell_contains(idx, x)
        neighbor = tuple(k + 1 for k in idx)
        assert not p.cell_contains(neighbor, x)


def _one_box(part, lo, hi):
    """(cell index, measure) of each piece of the one box [lo, hi), flattened
    from the array stream of intersections_with_box."""
    blocks = part.intersections_with_box(np.array([lo], dtype=float), np.array([hi], dtype=float))
    return [(tuple(k), m) for _, _, idx, ms in blocks for k, m in zip(idx.astype(int).tolist(), ms.tolist())]


def test_intersection_measures_tile_boxes():
    for g in (REAL_LINE, ANISO_PLANE, HEISENBERG):
        p = build_pi_r(g, 0.9, tuple((-4.0, 4.0) for _ in range(g.d)))
        lo = tuple(-1.1 for _ in range(g.d))
        hi = tuple(0.7 for _ in range(g.d))
        total = sum(m for _, m in _one_box(p, lo, hi))
        assert total == pytest.approx(g.box_measure(lo, hi), rel=1e-12)


def test_n_pi_bound_examples():
    r = 1.0
    # u = r/4, K = L = B(e, r): (2r + r/4) / (r/4) = 9
    assert n_pi_bound(REAL_LINE, r / 4, r, r) == pytest.approx(9.0)
    for g in (REAL_LINE, ANISO_PLANE, HEISENBERG):
        u = 0.3
        assert n_pi_bound(g, u, u, u) == pytest.approx(3.0**g.rho)
        # the scale-r partition constants: K = V-ball radius r/(2 gamma), L = r
        got = n_pi_bound(g, r / (4 * g.gamma**2), r / (2 * g.gamma), r)
        paper_form = (4 * g.gamma**4 + 3 * g.gamma**2) ** g.rho
        assert got <= paper_form * (1 + 1e-12)
    with pytest.raises(ValueError):
        n_pi_bound(REAL_LINE, 0.0, 1.0, 1.0)


def test_count_translate_hits_line():
    p = build_pi_r(REAL_LINE, 1.0, ((-8.0, 8.0),))
    # ball of radius 1/4 centered at a cell's base point: exactly that cell
    assert count_translate_hits(p, 0.25, p.base_point((0,))) == 1
    bound = n_pi_bound(REAL_LINE, 0.25, 0.5, 1.0)
    rng = np.random.default_rng(11)
    for _ in range(100):
        a = (float(rng.uniform(-6, 6)),)
        hits = count_translate_hits(p, 1.0, a)
        assert hits <= 5
        assert hits <= bound
    assert count_translate_hits(p, 1e-9, (0.3,)) == 1


def test_count_translate_hits_window_guard():
    p = build_pi_r(REAL_LINE, 1.0, ((-2.0, 2.0),))
    with pytest.raises(ValueError):
        count_translate_hits(p, 1.0, (1.8,))


def test_count_translate_hits_heisenberg_sampled():
    g = HEISENBERG
    p = build_pi_r(g, 1.0, tuple((-8.0, 8.0) for _ in range(3)))
    bound = n_pi_bound(g, p.u_radius, 0.5, 1.0)
    rng = np.random.default_rng(13)
    for _ in range(5):
        a = tuple(rng.uniform(-2.0, 2.0, 3))
        hits = count_translate_hits(p, 1.0, a)
        assert 1 <= hits <= bound


@pytest.mark.parametrize("g", [REAL_LINE, HEISENBERG], ids=lambda g: g.name)
def test_build_pi_r_rejects_out_of_range_scale(g):
    unit = tuple((-1.0, 1.0) for _ in range(g.d))
    # a lattice step below the smallest normal float (subnormal or 0)
    for r in (5e-324, 1e-310):
        with pytest.raises(ValueError, match="out of range"):
            build_pi_r(g, r, unit)
    with pytest.raises(ValueError, match="out of range"):
        build_pi_r(g, 1e-200, unit)  # Heisenberg t-step underflows; line: 2e200 steps
    # a window of 2**53 or more steps (the x-step is 2 at r = 4), where
    # floor(x / step) is no longer exact
    wide = tuple((-(2.0**53), 2.0**53) for _ in range(g.d))
    with pytest.raises(ValueError, match="out of range"):
        build_pi_r(g, 4.0, wide)
    build_pi_r(g, 4.0, tuple((-(2.0**50), 2.0**50) for _ in range(g.d)))


def _nan_windows(g):
    """The unit box of g with a NaN for lo or for hi on one axis, each way."""
    for axis in range(g.d):
        for side in (0, 1):
            box = [[-1.0, 1.0] for _ in range(g.d)]
            box[axis][side] = math.nan
            yield tuple(map(tuple, box))


@pytest.mark.parametrize("g", [REAL_LINE, ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_a_nan_window_bound_is_refused(g):
    unit = tuple((-1.0, 1.0) for _ in range(g.d))
    radii = [0.5, 1.0, 2.0]
    steps = [cell_shape(g, r)[1] for r in radii]
    for window in _nan_windows(g):
        with pytest.raises(ValueError, match="window"):
            build_pi_r(g, 1.0, window)
        # the one-pass test over several radii, with the NaN at each radius
        for i in range(len(radii)):
            windows = [window if k == i else unit for k in range(len(radii))]
            with pytest.raises(ValueError, match="window"):
                check_scales(g, radii, steps, windows)
    check_scales(g, radii, steps, [unit] * len(radii))
