"""Translate counting over a batch of centres, the q = inf line sweep,
window cell counts by index arithmetic, and the piece bound of the
single-radius partition form.  Each is pinned to the per-item code it
replaced, kept here as the reference."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import groups
from amalgams.amalgam import ball_norm, ball_norms, partition_norm
from amalgams.fracmean import RadiusGrid, partition_for
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE, _axis_range
from amalgams.partitions import UniformPartition, build_pi_r, count_translate_hits, validate
from amalgams.simplefn import _times_pow2, _unit_exponent, simple_function
from amalgams.verify import gen_random_simple

INF = math.inf
ALL = (REAL_LINE, ANISO_PLANE, HEISENBERG)

# -- translate counting --------------------------------------------------------


def _hits_one(part, r, a):
    """The per-translate count the batch replaced: index ranges of the
    translate's box on the box groups, np.unique of the located ball grid
    on the Heisenberg group."""
    g = part.group
    if g.d < 3:
        count = 1
        for c, w, s in zip(a, g.geometry.cell_half_extents(r), part.steps):
            count *= len(_axis_range(c - w, c + w, s))
        return count
    n = 14
    hs = np.linspace(-r, r, n)
    ts = np.linspace(-r * r / 4.0, r * r / 4.0, n)
    W1, W2, W3 = np.meshgrid(hs, hs, ts, indexing="ij")
    w = np.stack([W1.ravel(), W2.ravel(), W3.ravel()], axis=1)
    w = w[((w[:, 0] ** 2 + w[:, 1] ** 2) ** 2 + 16.0 * w[:, 2] ** 2) ** 0.25 < r]
    ys = np.empty_like(w)
    ys[:, 0] = a[0] + w[:, 0]
    ys[:, 1] = a[1] + w[:, 1]
    ys[:, 2] = a[2] + w[:, 2] + 0.5 * (a[0] * w[:, 1] - a[1] * w[:, 0])
    return len(np.unique(g.geometry.locate(part.steps, ys), axis=0))


def _window(g, ext):
    return tuple((-3.0 * ext, 3.0 * ext) for _ in range(g.d))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
@pytest.mark.parametrize("r", [0.3, 1.0, 2.5])
def test_batched_hits_are_the_per_translate_counts(g, r):
    part = build_pi_r(g, 1.0, _window(g, 8.0))
    # 37 centres: two full blocks of 16 and a partial one
    centres = np.random.default_rng(3).uniform(-8.0, 8.0, size=(37, g.d))
    batch = count_translate_hits(part, r, centres)
    assert batch.dtype == np.int64 and batch.shape == (37,)
    assert batch.tolist() == [_hits_one(part, r, tuple(a)) for a in centres]
    one = count_translate_hits(part, r, tuple(centres[5]))
    assert type(one) is int and one == batch[5]


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_batched_hits_at_the_window_edge(g):
    r = 1.0
    window = tuple((-4.0, 4.0) for _ in range(g.d))
    part = build_pi_r(g, 1.0, window)
    box = g.geometry.translate_box(g.identity(), r)
    # centres whose box touches a window face from inside
    lo_edge = np.array([wlo - blo for (wlo, _), blo in zip(window, box[:, 0])])
    hi_edge = np.array([whi - bhi for (_, whi), bhi in zip(window, box[:, 1])])
    centres = np.array([lo_edge, hi_edge, np.zeros(g.d)])
    if g.d == 3:  # off the t-axis the shear widens the box: touch in x only
        centres[:, 2] = 0.0
    boxes = g.geometry.translate_box(centres, r)
    assert np.any(boxes[..., 0] == np.array(window)[:, 0]) or np.any(boxes[..., 1] == np.array(window)[:, 1])
    assert count_translate_hits(part, r, centres).tolist() == [_hits_one(part, r, tuple(a)) for a in centres]


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_batched_hits_raise_on_the_first_escaping_centre(g):
    part = build_pi_r(g, 1.0, tuple((-4.0, 4.0) for _ in range(g.d)))
    centres = np.zeros((5, g.d))
    centres[2, 0] = 3.5
    centres[4, 0] = -3.9
    with pytest.raises(ValueError, match=r"translate escapes the partition window at \(3\.5"):
        count_translate_hits(part, 1.0, centres)
    centres[2, 0] = math.nan
    with pytest.raises(ValueError, match="translate escapes the partition window"):
        count_translate_hits(part, 1.0, centres)
    with pytest.raises(ValueError, match="coordinates"):
        count_translate_hits(part, 1.0, np.zeros(g.d + 1))
    with pytest.raises(ValueError, match="positive"):
        count_translate_hits(part, 0.0, centres)
    assert count_translate_hits(part, 1.0, np.zeros((0, g.d))).tolist() == []


def test_heisenberg_hits_when_the_codes_outgrow_int64():
    # cells of step 5e-5 under a ball of radius 1000: the index offsets span
    # about 4e7 x 4e7 x 2e15, past the int64 radix, so the axes are ranked
    g = HEISENBERG
    K = 1000.0
    part = build_pi_r(g, 1e-4, ((-2e3, 2e3), (-2e3, 2e3), (-1e6, 1e6)))
    centres = np.array([[0.0, 0.0, 0.0], [1.0, -2.0, 3.0]])
    assert count_translate_hits(part, K, centres).tolist() == [_hits_one(part, K, tuple(a)) for a in centres]


def test_translate_batch_draws_the_same_centres():
    # check_translate_counting draws an (n, d) block in one call; the
    # per-translate draws of size d it replaced give the same values
    for d in (1, 2, 3):
        one, many = np.random.default_rng(6), np.random.default_rng(6)
        block = one.uniform(-16.0, 16.0, size=(100, d))
        assert np.array_equal(block, [many.uniform(-16.0, 16.0, size=d) for _ in range(100)])


# -- q = inf ball norm on the line -------------------------------------------------


def _scan_sup_ball_norm(f, r, p):
    """The O(knots x cells) scan of the exact activity rule: a cell counts on
    the segment [y0, y1) between consecutive knots iff a - r <= y0 and
    y1 <= b + r, with no midpoint to round or overflow."""
    cells = f.cells
    scale = f.group.measure_scale
    e = _unit_exponent(f.max_value, INF, p)
    knots = sorted({c.lo[0] - r for c in cells} | {c.hi[0] + r for c in cells})
    total = 0.0
    for y0, y1 in zip(knots[:-1], knots[1:]):
        v = max((c.value for c in cells if c.lo[0] - r <= y0 and y1 <= c.hi[0] + r), default=0.0)
        total += math.ldexp(v, -e) ** p * (y1 - y0) * scale
    return _times_pow2(total ** (1.0 / p), e)


def _line(cells):
    return simple_function(REAL_LINE, [((a,), (b,), v) for a, b, v in cells])


ULP = math.ulp(1.0)
SUP_FUNCTIONS = [
    _line([(0.0, 1.0, 2.0), (1.0, 2.0, 2.0), (2.0, 3.0, 1.0)]),  # touching, tied
    _line([(0.0, 1.0, 1e300), (3.0, 3.5, 1e-300), (5.0, 9.0, 3.0)]),
    _line([(0.0, 1.0, 1e-300), (1.0, 2.0, 2e-300)]),
    # 1-ulp cells and gaps: 1-ulp segments between knots
    _line([(1.0, 1.0 + ULP, 5.0), (1.0 + 2 * ULP, 2.0, 1.0), (2.0, 2.0 + 2 * ULP, 7.0)]),
    _line([(-1.0, 0.0, 3.0), (0.0, math.nextafter(0.0, 1.0), 4.0), (0.25, 0.5, 3.0)]),
] + [gen_random_simple(s, 1 + s % 12, ((-4.0, 4.0),), REAL_LINE) for s in range(6)] + [
    # a 1-ulp cell: 0.5000000000000006 at r = 1e-300, p = 1, where a midpoint rule drops it
    _line([(1.0, 1.0 + ULP, 5.0), (2.0, 3.0, 1.0)]),
    # a - r of both cells tie at r >= 1, and the cells are not in order of a
    _line([(1e-17, 100.0, 1.0), (0.0, 1e-17, 5.0)]),
]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 4.0])
def test_sup_sweep_is_the_scan(p):
    radii = RadiusGrid(0.125, 16.0, 3).radii() + [ULP, 0.5 * ULP, 1e-300, 0.5, 1e3]
    for f in SUP_FUNCTIONS:
        ref = [_scan_sup_ball_norm(f, r, p).hex() for r in radii]
        assert [v.hex() for v in ball_norms(f, REAL_LINE, radii, INF, p)] == ref
        assert ball_norm(f, REAL_LINE, 0.5, INF, p).hex() == _scan_sup_ball_norm(f, 0.5, p).hex()


@settings(max_examples=80, deadline=None)
@given(
    st.lists(
        st.tuples(
            st.integers(0, 40),
            st.integers(1, 3),
            st.one_of(st.sampled_from([1.0, 2.0, 0.5, 1e300, 1e-300]), st.floats(0.1, 10.0)),
        ),
        min_size=1,
        max_size=12,
    ),
    st.lists(st.one_of(st.floats(0.01, 30.0), st.sampled_from([0.125, 0.25, 1.0])), min_size=1, max_size=4),
    st.sampled_from([1.0, 2.0, 3.0]),
)
def test_sup_sweep_matches_the_scan(spans, radii, p):
    cells, taken = [], set()
    for start, length, v in spans:
        slots = set(range(start, start + length))
        if not slots & taken:  # keep the cells disjoint, let them touch
            taken |= slots
            cells.append((start / 4.0, (start + length) / 4.0, v))
    f = _line(cells)
    assert [v.hex() for v in ball_norms(f, REAL_LINE, radii, INF, p)] == [
        _scan_sup_ball_norm(f, r, p).hex() for r in radii
    ]


# -- window cells by index arithmetic ------------------------------------------


def _enumerated(part):
    """The window's cells, enumerated as partition-info used to."""
    w, steps = part.window, part.steps
    if part.group.d < 3:
        return list(itertools.product(*(_axis_range(lo, hi, s) for (lo, hi), s in zip(w, steps))))
    u = part.half_extents[0]
    cells = []
    for i in _axis_range(w[0][0], w[0][1], steps[0]):
        for j in _axis_range(w[1][0], w[1][1], steps[1]):
            z1 = (i + 0.5) * steps[0]
            z2 = (j + 0.5) * steps[1]
            smax = 0.5 * (abs(z1) + abs(z2)) * u
            k_min = math.floor((w[2][0] - smax) / steps[2])
            k_max = math.ceil((w[2][1] + smax) / steps[2]) - 1
            cells.extend((i, j, k) for k in range(k_min, k_max + 1))
    return cells


WINDOWS = [
    (REAL_LINE, 1.0, ((-2.0, 2.0),)),
    (REAL_LINE, 0.37, ((-1.3, 2.9),)),
    (ANISO_PLANE, 1.0, ((-2.0, 2.0), (-1.0, 1.5))),
    (ANISO_PLANE, 2.3, ((0.1, 3.7), (-2.2, 0.9))),
    (HEISENBERG, 1.0, ((-0.5, 0.5), (-0.5, 0.5), (-0.05, 0.05))),
    (HEISENBERG, 1.0, ((-2.0, 2.0), (-2.0, 2.0), (-1.0, 1.0))),
    (HEISENBERG, 0.7, ((0.3, 2.9), (-1.7, 0.4), (-0.2, 0.5))),
    (HEISENBERG, 0.5, ((-3.0, -1.0), (1.2, 2.0), (0.0, 0.1))),
]


@pytest.mark.parametrize("g, r, window", WINDOWS, ids=lambda x: getattr(x, "name", None))
def test_window_cells_are_the_enumeration(g, r, window, monkeypatch):
    part = build_pi_r(g, r, window)
    cells = _enumerated(part)
    assert part.cell_count() == len(cells)
    assert part.window_cells(range(len(cells))) == cells
    assert all(type(k) is int for k in cells[0] + part.window_cells([len(cells) - 1])[0])
    # validate samples the same cells, with the same draws, as over the list;
    # a window of at most max_cells cells is checked whole
    for max_cells in (200, 37):
        report = validate(part, max_cells=max_cells)
        with monkeypatch.context() as m:
            m.setattr(UniformPartition, "cell_count", lambda self: len(cells))
            m.setattr(UniformPartition, "window_cells", lambda self, pos: [cells[i] for i in pos])
            assert validate(part, max_cells=max_cells) == report
        assert report.ok and report.cells_checked == min(max_cells, len(cells))


def test_large_heisenberg_window_is_counted_not_enumerated():
    part = build_pi_r(HEISENBERG, 0.05, ((-20.0, 20.0), (-20.0, 20.0), (-5.0, 5.0)))
    assert part.cell_count() == 335_872_000_000
    report = validate(part)
    assert report.ok and report.cells_checked == 200


def test_window_count_limits():
    # 2**24 + 1 columns, whose cell counts would have to be summed one by one
    step = 2.0 * 0.25  # r = 1
    n = 4097
    part = build_pi_r(HEISENBERG, 1.0, ((0.0, step * n), (0.0, step * n), (0.0, 1.0)))
    with pytest.raises(ValueError, match="cell columns, more than 16777216"):
        part.cell_count()
    # 2**60 cells in a box window: more than every count exact in floats
    part = build_pi_r(ANISO_PLANE, 4.0, ((0.0, 2.0**31), (0.0, 2.0**31)))
    with pytest.raises(ValueError, match="cells, more than 2\\*\\*53"):
        part.cell_count()


# -- the single-radius partition form refuses too many pieces -------------------


def test_partition_norm_refuses_too_many_pieces():
    square = simple_function(ANISO_PLANE, [((0.0, 0.0), (1.0, 1.0), 1.0)])
    for r in (1e-4, 2.0**-20):  # 1.6e13 and 2**64 pieces
        with pytest.raises(ValueError, match=r"pieces, more than 16777216"):
            partition_norm(square, partition_for(square, ANISO_PLANE, r), 1.0, 1.0)
    cube = simple_function(HEISENBERG, [((0.0, 0.0, 0.0), (1.0, 1.0, 1.0), 1.0)])
    with pytest.raises(ValueError, match=r"pieces, more than 16777216"):
        partition_norm(cube, partition_for(cube, HEISENBERG, 1e-3), 1.0, 1.0)


def test_partition_norm_piece_cap_is_exact_on_box_groups(monkeypatch):
    f = simple_function(REAL_LINE, [((0.0,), (1.0,), 1.0), ((2.0,), (3.0,), 2.0)])
    part = partition_for(f, REAL_LINE, 0.5)  # lattice step 1/4: 8 pieces
    expected = partition_norm(f, part, 2.0, 3.0)
    monkeypatch.setattr(groups, "MAX_PIECES", 8)
    assert partition_norm(f, part, 2.0, 3.0) == expected
    monkeypatch.setattr(groups, "MAX_PIECES", 7)
    with pytest.raises(ValueError, match=r"lattice step \(0.25,\) cuts the boxes into 8 pieces, more than 7"):
        partition_norm(f, part, 2.0, 3.0)


# the box groups count their pieces exactly (the cap tests pin it)
@pytest.mark.parametrize("g", [HEISENBERG], ids=lambda g: g.name)
def test_piece_bound_holds_every_piece(g):
    window = ((-2.0, 2.0), (-1.0, 3.0), (-0.5, 0.5))
    for seed in range(6):
        f = gen_random_simple(seed, 1 + seed % 4, window, g)
        lo = np.array([c.lo for c in f.cells])
        hi = np.array([c.hi for c in f.cells])
        for r in (0.3, 0.75, 2.0):
            part = partition_for(f, g, r)
            bound = g.geometry.piece_bound(part.steps, lo, hi)
            pieces = sum(len(m) for _, _, _, m in part.intersections_with_box(lo, hi))
            # the shear allowance is a few slabs per column
            assert pieces <= bound <= 4 * pieces + 64
