"""The two Heisenberg kernels -- the ball-box overlap and the sheared-slab
cell intersections -- against plain references written here."""

import math

import numpy as np
import pytest

from amalgams.fracmean import partition_for
from amalgams.groups import HEISENBERG
from amalgams.partitions import build_pi_r
from amalgams.verify import gen_random_simple

GEO = HEISENBERG.geometry
SCALE = HEISENBERG.measure_scale
WINDOW = ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))


# -- ball-box overlap -----------------------------------------------------------


def _ball_box_unfiltered(ys, r, lo, hi, nw):
    """The kernel's inner grid on every row, in 128-row blocks, with no row
    skipped."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    out = []
    for b in range(0, len(ys), 128):
        y = ys[b : b + 128]
        blo = lo[b : b + 128] if lo.ndim == 2 else lo
        bhi = hi[b : b + 128] if hi.ndim == 2 else hi
        w1lo = np.maximum(blo[..., 0] - y[:, 0], -r)
        w1hi = np.minimum(bhi[..., 0] - y[:, 0], r)
        w2lo = np.maximum(blo[..., 1] - y[:, 1], -r)
        w2hi = np.minimum(bhi[..., 1] - y[:, 1], r)
        L1 = np.clip(w1hi - w1lo, 0.0, None)
        L2 = np.clip(w2hi - w2lo, 0.0, None)
        offs = (np.arange(nw) + 0.5) / nw
        W1 = w1lo[:, None] + L1[:, None] * offs[None, :]
        W2 = w2lo[:, None] + L2[:, None] * offs[None, :]
        s = W1[:, :, None] ** 2 + W2[:, None, :] ** 2
        csec = np.where(s < r * r, 0.25 * np.sqrt(np.maximum(r**4 - s**2, 0.0)), 0.0)
        sigma = 0.5 * (y[:, 0, None, None] * W2[:, None, :] - y[:, 1, None, None] * W1[:, :, None])
        t_lo = (blo[..., 2] - y[:, 2])[:, None, None]
        t_hi = (bhi[..., 2] - y[:, 2])[:, None, None]
        top = np.minimum(t_hi - sigma, csec)
        bot = np.maximum(t_lo - sigma, -csec)
        ell = np.maximum(top - bot, 0.0)
        out.append(SCALE * (L1 * L2 / (nw * nw)) * ell.sum(axis=(1, 2)))
    return np.concatenate(out)


def _rows_at_the_reach(ys, r, lo, hi):
    """Copies of the rows ys moved in t to just inside and just outside
    (1e-12 relative) the t-reach r^2/4 + |sigma|max of the box, and of the
    same reach inflated by 1e-3, on both ends of the box's t-range."""
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    # largest |w1|, |w2| over the footprint [lo - y, hi - y) ^ [-r, r]
    w1, w2 = (
        np.maximum(
            np.abs(np.clip(lo[..., a] - ys[:, a], -r, r)),
            np.abs(np.clip(hi[..., a] - ys[:, a], -r, r)),
        )
        for a in (0, 1)
    )
    reach = r * r / 4.0 + 0.5 * (np.abs(ys[:, 0]) * w2 + np.abs(ys[:, 1]) * w1)
    rows, his, los = [], [], []
    for slack in (1.0, 1.001):
        for rel in (1.0 - 1e-12, 1.0 + 1e-12):
            for t in (hi[..., 2] + slack * rel * reach, lo[..., 2] - slack * rel * reach):
                moved = ys.copy()
                moved[:, 2] = t
                rows.append(moved)
                los.append(np.broadcast_to(lo, ys.shape))
                his.append(np.broadcast_to(hi, ys.shape))
    return np.concatenate(rows), np.concatenate(los), np.concatenate(his)


def _rows_near(rng, n, r, lo, hi):
    """n rows y scattered over and around the region where y.B(e, r) can
    meet the box [lo, hi) (one box, or one per row)."""
    mid, half = (lo + hi) / 2.0, (hi - lo) / 2.0
    y12 = mid[..., :2] + rng.uniform(-1.2, 1.2, size=(n, 2)) * (half[..., :2] + r)
    reach = r * r / 4.0 + 0.5 * r * np.abs(y12).sum(axis=1)
    y3 = mid[..., 2] + rng.uniform(-1.2, 1.2, size=n) * (half[..., 2] + reach)
    return np.column_stack([y12, y3])


@pytest.mark.parametrize("nw", [8, 48])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_ball_box_filter_is_bit_identical_one_box(nw, seed):
    rng = np.random.default_rng(seed)
    r = float(rng.choice([0.2, 0.75, 3.0]))
    lo = rng.uniform(-1.0, 0.0, size=3)
    hi = lo + rng.uniform(0.05, 1.0, size=3)
    ys = _rows_near(rng, 700, r, lo, hi)
    moved, _, _ = _rows_at_the_reach(ys[:100], r, lo, hi)
    ys = np.concatenate([ys, moved])
    ref = _ball_box_unfiltered(ys, r, lo, hi, nw)
    got = GEO.ball_box_measure(ys, r, lo, hi, nw)
    assert np.count_nonzero(ref) > 20 and np.count_nonzero(ref == 0.0) > 20
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("nw", [8, 48])
@pytest.mark.parametrize("seed", [3, 4])
def test_ball_box_filter_is_bit_identical_per_row_boxes(nw, seed):
    rng = np.random.default_rng(seed)
    r = 0.75
    n = 400
    lo = rng.uniform(-1.0, 0.5, size=(n, 3))
    hi = lo + rng.uniform(0.05, 1.0, size=(n, 3))
    ys = _rows_near(rng, n, r, lo, hi)
    moved, mlo, mhi = _rows_at_the_reach(ys, r, lo, hi)
    ys, lo, hi = np.concatenate([ys, moved]), np.concatenate([lo, mlo]), np.concatenate([hi, mhi])
    ref = _ball_box_unfiltered(ys, r, lo, hi, nw)
    got = GEO.ball_box_measure(ys, r, lo, hi, nw)
    assert np.count_nonzero(ref) > 20 and np.count_nonzero(ref == 0.0) > 20
    assert np.array_equal(got, ref)


def _mesh_rows(r, lo, hi, n1, n2, n3):
    """Rows of an n1 x n2 x n3 y-mesh around the box [lo, hi), in meshgrid
    order (y3 innermost) as the ball norm builds them: each (y1, y2) is a
    column of n3 consecutive rows.  y3 spans the box's t-range padded by
    r^2/4, so that a column near y1 = y2 = 0 meets the box on all but its
    end rows."""
    y1 = np.linspace(lo[0] - r, hi[0] + r, n1)
    y2 = np.linspace(lo[1] - r, hi[1] + r, n2)
    y3 = np.linspace(lo[2] - r * r / 4.0, hi[2] + r * r / 4.0, n3)
    return np.stack([Y.ravel() for Y in np.meshgrid(y1, y2, y3, indexing="ij")], axis=1)


# a box narrower than the ball, and one wider in w1 and w2: over the wide
# box's middle the footprint is [-r, r]^2 for every (y1, y2), so only y1 and
# y2 tell those columns apart
COLUMN_BOXES = [
    ((-0.4, -0.3, -0.2), (0.5, 0.2, 0.1)),
    ((-1.5, -1.5, -0.2), (1.5, 1.5, 0.3)),
]
# (nw, n1, n2): at nw = 8, more than 128 columns, so that they fill more
# than one block of columns; at nw = 48 fewer, to keep the reference cheap
COLUMN_MESHES = [(8, 15, 13), (48, 5, 4)]


@pytest.mark.parametrize("nw, n1, n2", COLUMN_MESHES)
@pytest.mark.parametrize("box", range(len(COLUMN_BOXES)))
def test_ball_box_columns_are_bit_identical_mesh_order(nw, n1, n2, box):
    """Columns of 140 rows: a kept run crosses a block of 128 rows."""
    r = 0.75
    lo, hi = (np.array(b) for b in COLUMN_BOXES[box])
    ys = _mesh_rows(r, lo, hi, n1, n2, 140)
    ref = _ball_box_unfiltered(ys, r, lo, hi, nw)
    got = GEO.ball_box_measure(ys, r, lo, hi, nw)
    nonzero = ref.reshape(n1 * n2, 140) > 0.0
    assert nonzero.sum(axis=1).max() > 128 and np.count_nonzero(ref == 0.0) > 100
    if n1 * n2 > 128:
        assert nonzero.any(axis=1).sum() > 128
    assert np.array_equal(got, ref)


@pytest.mark.parametrize("nw, n1, n2", COLUMN_MESHES)
def test_ball_box_columns_are_bit_identical_repeated_boxes(nw, n1, n2):
    """Per-row boxes in runs of 40 rows, cycling through a box, the same box
    at another t-range (same footprint: the column goes on) and the box
    widened in w1 and w2 (a new footprint: a new column at the same y1, y2)."""
    r = 0.75
    lo0, hi0 = (np.array(b) for b in COLUMN_BOXES[0])
    ys = _mesh_rows(r, lo0, hi0, n1, n2, 140)
    shift = np.array([0.0, 0.0, 0.15])
    widen = np.array([0.3, 0.2, 0.0])
    los = np.stack([lo0, lo0 + shift, lo0 - widen])
    his = np.stack([hi0, hi0 + shift, hi0 + widen])
    which = (np.arange(len(ys)) // 40) % 3
    lo, hi = los[which], his[which]
    ref = _ball_box_unfiltered(ys, r, lo, hi, nw)
    got = GEO.ball_box_measure(ys, r, lo, hi, nw)
    assert np.count_nonzero(ref) > len(ys) // 2 and np.count_nonzero(ref == 0.0) > 100
    assert np.array_equal(got, ref)


def _column_reach(y1, y2, r, lo, hi, nw):
    """min(sigma - csec) and max(sigma + csec) over the inner grid of the
    column (y1, y2) for the box [lo, hi), and the kernel's bound on
    |sigma| + csec over the footprint."""
    w1lo, w1hi = max(lo[0] - y1, -r), min(hi[0] - y1, r)
    w2lo, w2hi = max(lo[1] - y2, -r), min(hi[1] - y2, r)
    offs = (np.arange(nw) + 0.5) / nw
    W1 = w1lo + (w1hi - w1lo) * offs
    W2 = w2lo + (w2hi - w2lo) * offs
    s = W1[:, None] ** 2 + W2[None, :] ** 2
    csec = np.where(s < r * r, 0.25 * np.sqrt(np.maximum(r**4 - s**2, 0.0)), 0.0)
    sigma = 0.5 * (y1 * W2[None, :] - y2 * W1[:, None])
    reach = r * r / 4.0 + 0.5 * (
        abs(y1) * max(abs(w2lo), abs(w2hi)) + abs(y2) * max(abs(w1lo), abs(w1hi))
    )
    return float((sigma - csec).min()), float((sigma + csec).max()), reach


@pytest.mark.parametrize("nw", [8, 48])
@pytest.mark.parametrize("upper", [True, False], ids=["t_hi-at-low", "t_lo-at-high"])
def test_ball_box_rows_at_the_column_reach(nw, upper):
    """Columns of rows whose t-range ends around the lowest sigma - csec of
    the column's grid (or starts around the highest sigma + csec), from
    whole ulps to 2e-9 of the footprint's t-reach away: around where a
    row's value turns nonzero, and around where the kernel stops skipping
    it (1e-9 of its reach, which is this reach times 1.001).  The box's
    t-range ends (starts) at 0, so t_hi = -y3 (t_lo = -y3) exactly."""
    r = 0.75
    lo = np.array([-0.4, -0.3, -0.5 if upper else 0.0])
    hi = np.array([0.5, 0.2, 0.0 if upper else 0.5])
    ys = []
    for y1 in np.linspace(lo[0] - 0.9 * r, hi[0] + 0.9 * r, 7):
        for y2 in np.linspace(lo[1] - 0.9 * r, hi[1] + 0.9 * r, 5):
            low, high, reach = _column_reach(y1, y2, r, lo, hi, nw)
            edge = low if upper else high
            ts = [edge]
            for d in (1e-12, 0.5e-9, 1e-9, 1.0005e-9, 1.0015e-9, 2e-9):
                ts += [edge - d * reach, edge + d * reach]
            for direction in (-np.inf, np.inf):  # whole ulps on both sides
                t = edge
                for _ in range(4):
                    t = np.nextafter(t, direction)
                    ts.append(t)
            ys.extend((y1, y2, -t) for t in ts)
    ys = np.array(ys)
    ref = _ball_box_unfiltered(ys, r, lo, hi, nw)
    got = GEO.ball_box_measure(ys, r, lo, hi, nw)
    assert np.count_nonzero(ref) > 100 and np.count_nonzero(ref == 0.0) > 100
    assert np.array_equal(got, ref)


@pytest.mark.parametrize(
    "y, lo, hi, length",
    [
        # y = (2, 0, 0): sigma = w2; the box keeps w2 >= 0 and w3 >= -w2
        ((2.0, 0.0, 0.0), (0.0, 0.0, 0.0), (4.0, 1.0, 10.0),
         lambda c, w1, w2: c + np.minimum(c, w2)),
        # y = (0, 2, 0): sigma = -w1; the box keeps w1 >= 0 and w3 >= w1
        ((0.0, 2.0, 0.0), (0.0, 0.0, 0.0), (1.0, 4.0, 10.0),
         lambda c, w1, w2: np.maximum(c - w1, 0.0)),
    ],
)
def test_ball_box_measure_sees_the_shear(y, lo, hi, length):
    """y.B(e, 1) cut by a box through its sheared t-sections, against a fine
    midpoint sum of the exact t-length over the (w1, w2) footprint."""
    r = 1.0
    got = float(GEO.ball_box_measure(np.array([y]), r, lo, hi, 256)[0])
    # footprint (w1, w2) of the box relative to y, inside [-r, r]^2
    f1 = (max(lo[0] - y[0], -r), min(hi[0] - y[0], r))
    f2 = (max(lo[1] - y[1], -r), min(hi[1] - y[1], r))
    n1, n2 = round(2000 * (f1[1] - f1[0])), round(2000 * (f2[1] - f2[0]))
    w1 = f1[0] + (f1[1] - f1[0]) * (np.arange(n1) + 0.5) / n1
    w2 = f2[0] + (f2[1] - f2[0]) * (np.arange(n2) + 0.5) / n2
    W1, W2 = np.meshgrid(w1, w2, indexing="ij")
    s = W1**2 + W2**2
    c = np.where(s < r * r, 0.25 * np.sqrt(np.maximum(r**4 - s**2, 0.0)), 0.0)
    cell = (f1[1] - f1[0]) * (f2[1] - f2[0]) / (n1 * n2)
    ref = SCALE * cell * float(length(c, W1, W2).sum())
    assert got == pytest.approx(ref, rel=2e-3)


# -- sheared-slab cell intersections ---------------------------------------------


def _pl_product_integral(k1, v1, k2, v2):
    """Integral of the product of two piecewise-linear functions, by
    Simpson's rule on each interval between their merged knots."""
    lo, hi = max(k1[0], k2[0]), min(k1[-1], k2[-1])
    if lo >= hi:
        return 0.0
    knots = [lo] + sorted(k for k in set(k1) | set(k2) if lo < k < hi) + [hi]
    total = 0.0
    for x0, x1 in zip(knots[:-1], knots[1:]):
        f = [np.interp(x, k1, v1) * np.interp(x, k2, v2) for x in (x0, 0.5 * (x0 + x1), x1)]
        total += (x1 - x0) * (f[0] + 4.0 * f[1] + f[2]) / 6.0
    return total


def _scalar_intersections(part, lo, hi):
    """Cell intersections one slab at a time: the shear density over the
    footprint and the slab's t-overlap as knot lists."""
    u = part.half_extents[0]
    h3, (s1, s2, s3) = part.half_extents[2], part.steps
    for i in range(math.floor(lo[0] / s1), math.ceil(hi[0] / s1)):
        for j in range(math.floor(lo[1] / s2), math.ceil(hi[1] / s2)):
            z1, z2 = (i + 0.5) * s1, (j + 0.5) * s2
            w1lo, w1hi = max(-u, lo[0] - z1), min(u, hi[0] - z1)
            w2lo, w2hi = max(-u, lo[1] - z2), min(u, hi[1] - z2)
            if w1lo >= w1hi or w2lo >= w2hi:
                continue
            a, b = -z2 / 2.0, z1 / 2.0
            ia = sorted((a * w1lo, a * w1hi))
            ib = sorted((b * w2lo, b * w2hi))
            rise = min(ia[1] - ia[0], ib[1] - ib[0])
            height = rise / abs(a * b)
            s_lo, s_hi = ia[0] + ib[0], ia[1] + ib[1]
            dens = ((s_lo, s_lo + rise, s_hi - rise, s_hi), (0.0, height, height, 0.0))
            k_min = math.floor((lo[2] - s_hi - h3) / s3 - 0.5)
            k_max = math.ceil((hi[2] - s_lo + h3) / s3 - 0.5)
            for k in range(k_min, k_max + 1):
                z3 = (k + 0.5) * s3
                A, B = lo[2] - z3, hi[2] - z3
                p1, p2 = sorted((B - h3, A + h3))
                wid = min(2.0 * h3, B - A)
                slab = ((A - h3, p1, p2, B + h3), (0.0, wid, wid, 0.0))
                m = _pl_product_integral(*slab, *dens)
                if m > 0.0:
                    yield (i, j, k), SCALE * m


def _one_box(part, lo, hi):
    """(cell index, measure) of each piece of the one box [lo, hi), flattened
    from the array stream of intersections_with_box."""
    blocks = part.intersections_with_box(np.array([lo], dtype=float), np.array([hi], dtype=float))
    return [(tuple(k), m) for _, _, idx, ms in blocks for k, m in zip(idx.astype(int).tolist(), ms.tolist())]


def _panel():
    """(partition, cell) pairs of seeded Heisenberg functions."""
    for n in range(3):
        f = gen_random_simple(40 + n, 1 + n % 3, WINDOW, HEISENBERG)
        for r in (0.37, 1.5):
            part = partition_for(f, HEISENBERG, r)
            for c in f.cells:
                yield part, c


def test_sheared_slabs_match_the_scalar_reference():
    pieces = 0
    for part, c in _panel():
        got = _one_box(part, c.lo, c.hi)
        ref = list(_scalar_intersections(part, c.lo, c.hi))
        assert [idx for idx, _ in got] == [idx for idx, _ in ref]
        vol = HEISENBERG.box_measure(c.lo, c.hi)
        for (_, m), (_, mr) in zip(got, ref):
            assert m == pytest.approx(mr, rel=1e-14, abs=1e-14 * vol)
        pieces += len(got)
    assert pieces == 9480  # as counted by the scalar kernel this one replaced


@pytest.mark.parametrize("r", [0.75, 1.5, 3.0])
def test_sheared_slabs_of_a_column_tile_its_footprint(r):
    part = build_pi_r(HEISENBERG, r, ((-3.0, 3.0), (-3.0, 3.0), (-4.0, 4.0)))
    lo, hi = (-0.93, 0.41, -0.7), (1.37, 1.9, 0.55)
    columns: dict[tuple[int, int], float] = {}
    for (i, j, _), m in _one_box(part, lo, hi):
        columns[i, j] = columns.get((i, j), 0.0) + m
    (s1, s2, _), u = part.steps, part.half_extents[0]
    assert len(columns) > 1
    for (i, j), total in columns.items():
        z1, z2 = (i + 0.5) * s1, (j + 0.5) * s2
        area = (min(u, hi[0] - z1) - max(-u, lo[0] - z1)) * (
            min(u, hi[1] - z2) - max(-u, lo[1] - z2)
        )
        assert total == pytest.approx(SCALE * area * (hi[2] - lo[2]), rel=1e-12)
