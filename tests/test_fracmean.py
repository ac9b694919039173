import math

import pytest

from amalgams.fracmean import (
    DEGENERATE_HIGH,
    DEGENERATE_LOW,
    MAX_RADII,
    NONTRIVIAL,
    ExponentTriple,
    RadiusGrid,
    conjugate,
    default_grid,
    divergence_diagnostic,
    fractional_norm_ball,
    fractional_norm_partition,
)
from amalgams.groups import REAL_LINE
from amalgams.simplefn import lebesgue_norm, simple_function, zero_function
from amalgams.verify import gen_random_simple

INF = math.inf


def test_conjugate():
    assert conjugate(2.0) == 2.0
    assert conjugate(1.0) == INF
    assert conjugate(INF) == 1.0
    assert conjugate(4.0) == pytest.approx(4.0 / 3.0)
    assert conjugate(conjugate(3.7)) == pytest.approx(3.7)
    with pytest.raises(ValueError):
        conjugate(0.5)


def test_classify():
    assert ExponentTriple(1, 4, 2).classify() == NONTRIVIAL
    assert ExponentTriple(3, 4, 2).classify() == DEGENERATE_LOW
    assert ExponentTriple(1, 2, 3).classify() == DEGENERATE_HIGH
    assert ExponentTriple(2, 2, 2).classify() == NONTRIVIAL
    assert ExponentTriple(INF, INF, 2.0).uses_infinite_q_convention()
    with pytest.raises(ValueError):
        ExponentTriple(0.9, 2, 2)


def test_radius_grid():
    grid = RadiusGrid(0.5, 8.0, 2)
    rs = grid.radii()
    assert rs[0] == 0.5 and rs[-1] == 8.0
    assert all(a < b for a, b in zip(rs, rs[1:]))
    with pytest.raises(ValueError):
        RadiusGrid(2.0, 1.0)
    with pytest.raises(ValueError):
        RadiusGrid(1.0, 2.0, 0)


def test_radius_grid_caps_its_radius_count():
    # only the guard runs: no grid past the cap is ever expanded
    assert len(RadiusGrid(1.0, 2.0, MAX_RADII - 1).radii()) == MAX_RADII
    for bad in ((1.0, 2.0, MAX_RADII), (1e-300, 1e300, 8), (1.0, 2.0, 10**400)):
        with pytest.raises(ValueError, match="radii"):
            RadiusGrid(*bad)


def test_radius_grid_past_the_float_ratio():
    # r_max / r_min overflows: the count comes from the difference of logs
    rs = RadiusGrid(1e-300, 1e300, 4).radii()
    assert len(rs) == math.ceil(4 * (math.log2(1e300) - math.log2(1e-300))) + 1
    assert rs[0] == 1e-300 and rs[-1] == 1e300
    assert all(0.0 < a < b < INF for a, b in zip(rs, rs[1:]))


@pytest.mark.parametrize(
    "grid",
    [
        RadiusGrid(0.5, 8.0, 2),
        RadiusGrid(0.131, 0.131 * 256, 4),
        RadiusGrid(1.0, 1.0 + 1e-9, 3),
        RadiusGrid(1e-300, 1e300, 4),  # r_max / r_min overflows
    ],
)
def test_radius_grid_radii_are_the_formula_worked_out_once(grid):
    m, n = grid.steps_per_octave, grid._count()
    if grid.r_max / grid.r_min < INF:
        want = [grid.r_min * 2.0 ** (k / m) for k in range(n)]
    else:
        want = [grid.r_min * 2.0 ** (k / m / 2) * 2.0 ** (k / m / 2) for k in range(n)]
    want.append(grid.r_max)
    got = grid.radii()
    assert [r.hex() for r in got] == [r.hex() for r in want]
    assert "_radii" in vars(grid)  # kept on the grid
    got.append(0.0)  # each call's list is the caller's own
    assert grid.radii() == want


def test_fractional_diagonal_is_lebesgue():
    g = REAL_LINE
    for i in range(15):
        f = gen_random_simple(300 + i, 1 + i % 8, ((-4.0, 4.0),), g)
        for q in (1.0, 2.0):
            t = ExponentTriple(q, q, q)
            res = fractional_norm_partition(f, g, t, default_grid(f))
            assert res.value == pytest.approx(lebesgue_norm(f, q), rel=1e-12)
            resb = fractional_norm_ball(f, g, t, default_grid(f))
            assert resb.value == pytest.approx(lebesgue_norm(f, q), rel=1e-9)


def _oracle_partition_sup(f_lo, f_hi, r):
    """Independent interval sweep: sup over aligned cells of the
    lambda-overlap with [f_lo, f_hi) (q=1, p=inf norm of the indicator)."""
    step = r / 2.0
    k = math.floor(f_lo / step)
    best = 0.0
    while k * step < f_hi:
        best = max(best, 0.5 * max(0.0, min((k + 1) * step, f_hi) - max(k * step, f_lo)))
        k += 1
    return best


def test_indicator_partition_norm_against_sweep_oracle():
    g = REAL_LINE
    f = simple_function(g, [((0.0,), (2.0,), 1.0)])  # lambda-measure 1
    for alpha in (1.5, 2.0, 3.0):
        t = ExponentTriple(1.0, INF, alpha)
        grid = RadiusGrid(2.0**-6, 2.0**6, 8)
        res = fractional_norm_partition(f, g, t, grid)
        oracle = max(
            r ** (1.0 / alpha - 1.0) * _oracle_partition_sup(0.0, 2.0, r)
            for r in grid.radii()
        )
        assert res.value == pytest.approx(oracle, rel=1e-12)
        # closed form: max of r^(1/alpha - 1) min(r/4, 1) at r = 4
        assert res.value == pytest.approx(4.0 ** (1.0 / alpha - 1.0), rel=1e-12)
        assert res.argmax_r == pytest.approx(4.0)


def test_indicator_ball_norm_closed_form():
    g = REAL_LINE
    f = simple_function(g, [((0.0,), (2.0,), 1.0)])
    t = ExponentTriple(1.0, INF, 2.0)
    grid = RadiusGrid(2.0**-4, 2.0**4, 4)
    res = fractional_norm_ball(f, g, t, grid)
    # sup_r r^(1/alpha - 1) min(r, 1) = 1 attained at r = 1
    assert res.value == pytest.approx(1.0, rel=1e-12)
    assert res.argmax_r == pytest.approx(1.0)


def test_fractional_norm_zero_function():
    g = REAL_LINE
    t = ExponentTriple(1.0, 4.0, 2.0)
    grid = RadiusGrid(0.5, 4.0, 2)
    assert fractional_norm_partition(zero_function(g), g, t, grid).value == 0.0
    assert fractional_norm_ball(zero_function(g), g, t, grid).value == 0.0


def test_divergence_diagnostic_slopes():
    g = REAL_LINE
    f = simple_function(g, [((0.0,), (2.0,), 1.0)])
    low = divergence_diagnostic(f, g, ExponentTriple(2.0, INF, 1.0))
    assert low.end == "r->inf"
    assert low.theory == pytest.approx(0.5)
    assert low.slope == pytest.approx(low.theory, rel=0.05)
    high = divergence_diagnostic(f, g, ExponentTriple(1.0, 1.0, 2.0))
    assert high.end == "r->0"
    assert high.theory == pytest.approx(-0.5)
    assert high.slope == pytest.approx(high.theory, rel=0.05)


def test_divergence_diagnostic_guards():
    g = REAL_LINE
    with pytest.raises(ValueError):
        divergence_diagnostic(
            simple_function(g, [((0.0,), (1.0,), 1.0)]), g, ExponentTriple(1, 4, 2)
        )
    diag = divergence_diagnostic(zero_function(g), g, ExponentTriple(2.0, INF, 1.0))
    assert diag.slope is None


def test_divergence_diagnostic_explicit_grid():
    g = REAL_LINE
    f = simple_function(g, [((0.0,), (2.0,), 1.0)])
    grid = RadiusGrid(2.0**-8, 2.0**9, 1)
    low = divergence_diagnostic(f, g, ExponentTriple(2.0, INF, 1.0), grid=grid)
    assert low.radii[0] >= 2.0**5  # the divergent (large-r) end of the grid
    assert low.slope == pytest.approx(low.theory, rel=0.05)
    high = divergence_diagnostic(f, g, ExponentTriple(1.0, 1.0, 2.0), grid=grid)
    assert high.radii[0] == pytest.approx(2.0**-8)
    assert high.slope == pytest.approx(high.theory, rel=0.05)
