"""The line ball sweep lays each function's knots out cell by cell in order
along the line before its stable sort, and maps them back to the function's
own cell order.  It is pinned bit for bit to the sort it replaced, kept here
as a reference: each row's knots cell by cell in the function's own order,
put in order by one stable argsort."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams import amalgam, groups
from amalgams.amalgam import _replay, ball_norms
from amalgams.fracmean import ExponentTriple, default_grid, fractional_norm_ball
from amalgams.groups import REAL_LINE
from amalgams.simplefn import simple_function
from amalgams.verify import radial_power_fn

INF = math.inf
EXPONENTS = [(q, p) for q in (1.0, 2.5, INF) for p in (1.0, 3.0, INF)]
DYADIC_RADII = [2.0**k for k in range(-9, 10)]


def _cell_order_blocks(f, radii):
    """The sweep's blocks (order, head, runs, gaps, jumps) as the stable sort
    of each row's knots a - r, a - r + W, b + r - W, b + r, cell by cell in
    f's own order, makes them."""
    n = len(f.cells)
    per_block = max(1, groups.BLOCK_PIECES // (4 * n))
    lo, hi = f.lo[:, 0], f.hi[:, 0]
    for b0 in range(0, len(radii), per_block):
        r = np.array(radii[b0 : b0 + per_block])[:, None]
        width = np.minimum(hi - lo, r + r)
        start, end = lo - r, hi + r
        knots = np.stack([start, start + width, end - width, end])
        y = knots.transpose(1, 2, 0).reshape(len(r), -1)
        order = y.argsort(axis=1, kind="stable")
        y = np.take_along_axis(y, order, axis=1)
        gaps = np.zeros(y.shape)
        gaps[:, :-1] = y[:, 1:] - y[:, :-1]
        head = np.ones(y.shape, dtype=bool)
        head[:, 1:] = gaps[:, :-1] != 0.0
        runs = head.cumsum()
        up, down = knots[1:3] == knots[::3]
        jumps = None
        if up.any() or down.any():
            rises = np.zeros((len(r), n, 4))
            rises[..., 1] = np.where(up, width, 0.0)
            rises[..., 2] = np.where(down, -width, 0.0)
            rises = np.take_along_axis(rises.reshape(len(r), -1), order, axis=1).ravel()
            at = np.flatnonzero(rises)
            jumps = runs.searchsorted(runs[at], side="right") - 1, order.ravel()[at] // 4, rises[at]
        yield order, head, runs, gaps, jumps


def _reference_norms(f, radii, q, p):
    """ball_norms of a fresh copy of f, its sweep fed the reference blocks."""

    def reference(kind, h, key, make):
        return iter(list(_cell_order_blocks(h, radii)))

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam, "_replay", reference)
        return [x.hex() for x in ball_norms(replace(f), REAL_LINE, radii, q, p)]


def _same_blocks(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        for x, y in zip(a[:4], b[:4]):
            assert x.dtype == y.dtype and np.array_equal(x, y)
        assert (a[4] is None) == (b[4] is None)
        if a[4] is not None:
            for x, y in zip(a[4], b[4]):
                assert np.array_equal(x, y)


@st.composite
def shuffled_cells(draw):
    """1-200 disjoint cells in a shuffled order: random cells, half of them
    touching the one before, touching cells on a dyadic grid (whose knots
    meet at dyadic radii), or cells a few ulp wide among wide ones (whose
    ramps collapse)."""
    n = draw(st.integers(1, 200))
    layout = draw(st.sampled_from(["random", "dyadic", "ulp"]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if layout == "dyadic":
        widths = rng.integers(1, 9, n) / 8.0
        lo = rng.integers(-64, 64) / 8.0 + np.concatenate([[0.0], np.cumsum(widths)[:-1]])
        hi = lo + widths
    else:
        widths = rng.uniform(0.01, 3.0, n)
        gaps = np.where(rng.random(n) < 0.5, 0.0, rng.uniform(0.0, 1.0, n))
        hi = rng.uniform(-4.0, 4.0) + np.cumsum(gaps + widths)
        lo = np.maximum(hi - widths, np.concatenate([[-np.inf], hi[:-1]]))
        if layout == "ulp":
            thin = rng.random(n) < 0.5
            hi[thin] = [a + k * math.ulp(a) for a, k in zip(lo[thin], rng.integers(1, 5, thin.sum()))]
    values = np.where(rng.random(n) < 0.3, 1.0, 10.0 ** rng.uniform(-1.0, 1.0, n))
    cells = [((a,), (b,), v) for a, b, v in zip(lo.tolist(), hi.tolist(), values.tolist())]
    return [cells[i] for i in rng.permutation(n)]


RADIAL = [(c.lo, c.hi, c.value) for c in radial_power_fn(REAL_LINE, "power", 4.0, (1.0, 25.0), 0.05).function.cells]
REVERSED = [((k / 4.0,), ((k + 1) / 4.0,), 1.0 + k % 3) for k in reversed(range(40))]
# at r = 1.5 the 1-ulp cell's ramp b + r - W collapses onto b + r, which
# the next cell's a - r + 2r meets: a jump inside a run of equal knots
# whose order is f's, not the order along the line
ULP = math.ulp(0.9)
JUMP_IN_A_RUN = [((0.9 + ULP,), (4.0,), 1.0), ((0.9,), (0.9 + ULP,), 5.0), ((0.25,), (0.9,), 2.0)]


@settings(max_examples=60, deadline=None)
@given(
    cells=shuffled_cells(),
    radii=st.lists(st.one_of(st.floats(1e-3, 1e3), st.sampled_from(DYADIC_RADII)), min_size=1, max_size=6),
)
@example(cells=RADIAL, radii=[0.125, 0.5, 1.0, 2.0, 8.0, 0.3])  # the +- shells, interleaved
@example(cells=REVERSED, radii=[0.125, 0.25, 0.5, 3.0])
@example(cells=JUMP_IN_A_RUN, radii=[1.5, 0.3])
def test_ball_norms_are_the_cell_order_sort(cells, radii):
    f = simple_function(REAL_LINE, cells)
    for q, p in EXPONENTS:
        got = [x.hex() for x in ball_norms(replace(f), REAL_LINE, radii, q, p)]
        assert got == _reference_norms(f, radii, q, p), (q, p)


def test_a_second_ball_fracnorm_on_a_shuffled_function_replays_its_knots():
    """100 cells, so that the 33 radii of the default grid stream 13200
    knots, within MEMO_PIECES."""
    rng = np.random.default_rng(5)
    lo = np.cumsum(rng.uniform(0.0, 1.0, 100) + 1.0)
    cells = [((a,), (a + w,), v) for a, w, v in zip(lo, rng.uniform(0.1, 1.0, 100), rng.uniform(0.5, 2.0, 100))]
    f = simple_function(REAL_LINE, [cells[i] for i in rng.permutation(100)])
    grid = default_grid(f)
    t = ExponentTriple(1.0, 2.0, 3.0)
    made = []

    def counting(kind, h, key, make):
        def counted():
            made.append(kind)
            return make()

        return _replay(kind, h, key, counted)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(amalgam, "_replay", counting)
        first = fractional_norm_ball(f, REAL_LINE, t, grid)
        assert made == ["ball"] and "ball" in f._memo
        second = fractional_norm_ball(f, REAL_LINE, t, grid)
        assert made == ["ball"]
    assert second.value.hex() == first.value.hex()
    fresh = replace(f)
    assert fractional_norm_ball(fresh, REAL_LINE, t, grid).value.hex() == first.value.hex()
    kept = f._memo["ball"][1]
    _same_blocks(kept, fresh._memo["ball"][1])
    _same_blocks(kept, list(_cell_order_blocks(f, grid.radii())))
