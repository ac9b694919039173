"""The column kernels the Heisenberg norms run on, pinned bit for bit to the
row paths they replaced, kept here as references:

* the ball quadrature, which now asks each geometry for the rows of the
  y-mesh one cell reaches (``ball_mesh_rows``), against the quadrature
  that sent the full (N, d) mesh through ``ball_box_measure``;
* the sheared slabs, now cut for every column of every (radius, box) pair
  in one pass, against the loop that cut them column by column."""

import itertools
import math

import numpy as np
import pytest

from amalgams.amalgam import ball_norm
from amalgams.fracmean import partition_for
from amalgams.groups import ANISO_PLANE, HEISENBERG, MAX_PIECES, _axis_range, _overlap
from amalgams.partitions import cell_shape
from amalgams.simplefn import _times_pow2, _unit_exponent, scale
from amalgams.verify import gen_random_simple

INF = math.inf
EXPONENTS = (1.0, 1.5, 2.0, 4.0, INF)
WINDOWS = {
    "heisenberg": ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
    "aniso-plane": ((-2.0, 2.0), (-4.0, 4.0)),
}


# -- ball quadrature ----------------------------------------------------------------


def _row_path_overlaps(f, g, r):
    """The y-cell volume and each cell's ball_box_measure on every row of
    the y-mesh at mesh r/3, as the row path of the ball norm made them."""
    mesh = r / 3.0
    lo, hi, h = np.array(g.geometry.quadrature_axes(f.bounding_box(), r, mesh)).T
    n = np.maximum(2.0, np.ceil((hi - lo) / h))
    assert np.prod(n) <= MAX_PIECES
    step = (hi - lo) / n
    axes = [a + (np.arange(k) + 0.5) * s for a, k, s in zip(lo, n.astype(int), step)]
    ys = np.stack([Y.ravel() for Y in np.meshgrid(*axes, indexing="ij")], axis=1)
    overlaps = [g.geometry.ball_box_measure(ys, r, c.lo, c.hi, 8) for c in f.cells]
    return math.prod(step.tolist()), overlaps


def _row_path_ball_norm(f, g, volume, overlaps, q, p):
    """The ball norm summed from the row path's overlaps."""
    local = np.zeros(len(overlaps[0]))
    e = _unit_exponent(f.max_value, q, p)
    for c, overlap in zip(f.cells, overlaps):
        v = math.ldexp(c.value, -e)
        if math.isinf(q):
            local = np.maximum(local, np.where(overlap > 0.0, v, 0.0))
        else:
            local += v**q * overlap
    if not math.isinf(q):
        local = local ** (1.0 / q)
    if math.isinf(p):
        return _times_pow2(float(local.max()), e)
    return _times_pow2(float((np.sum(local**p) * volume * g.measure_scale) ** (1.0 / p)), e)


@pytest.mark.parametrize("r", [0.2, 0.75, 3.0, 12.0])
@pytest.mark.parametrize("g", [HEISENBERG, ANISO_PLANE], ids=lambda g: g.name)
def test_ball_norm_matches_the_row_path(g, r):
    """Every pair of exponents, on functions of 1-4 cells in turn, with
    values as drawn or scaled by 1e300 or 1e-300 in turn."""
    funcs = [gen_random_simple(60 + n, n, WINDOWS[g.name], g) for n in range(1, 5)]
    rows = [_row_path_overlaps(f, g, r) for f in funcs]
    for k, (q, p) in enumerate(itertools.product(EXPONENTS, EXPONENTS)):
        factor = (1.0, 1e300, 1e-300)[k % 3]
        f = scale(funcs[k % 4], factor)
        ref = _row_path_ball_norm(f, g, *rows[k % 4], q, p)
        assert 0.0 < ref < INF
        assert ball_norm(f, g, r, q, p) == ref


@pytest.mark.parametrize("r", [0.2, 0.75, 3.0])
@pytest.mark.parametrize("g", [HEISENBERG, ANISO_PLANE], ids=lambda g: g.name)
def test_ball_mesh_rows_match_the_row_kernel_row_by_row(g, r):
    """Each cell's rows of the y-mesh, ids and values, against the row
    kernel on the full mesh: the same bits on every row it keeps, 0 on
    every other row."""
    for cells in range(1, 5):
        f = gen_random_simple(60 + cells, cells, WINDOWS[g.name], g)
        lo, hi, h = np.array(g.geometry.quadrature_axes(f.bounding_box(), r, r / 3.0)).T
        n = np.maximum(2.0, np.ceil((hi - lo) / h))
        step = (hi - lo) / n
        axes = [a + (np.arange(k) + 0.5) * s for a, k, s in zip(lo, n.astype(int), step)]
        ys = np.stack([Y.ravel() for Y in np.meshgrid(*axes, indexing="ij")], axis=1)
        for c in f.cells:
            ref = g.geometry.ball_box_measure(ys, r, c.lo, c.hi, 8)
            ids, values = g.geometry.ball_mesh_rows(axes, r, c.lo, c.hi, 8)
            assert np.all(np.diff(ids) > 0)
            assert np.array_equal(values, ref[ids])
            rest = np.ones(len(ys), dtype=bool)
            rest[ids] = False
            assert not ref[rest].any()


# -- sheared slabs ----------------------------------------------------------------


def _column_slabs(steps, boxes_lo, boxes_hi):
    """(n, i, j, t-indices k, slab measures) per box n and (i, j) column
    meeting it, one column at a time."""
    s1, s2, s3 = steps
    u, h3 = s1 / 2.0, s3 / 2.0
    for n, (lo, hi) in enumerate(zip(boxes_lo, boxes_hi)):
        for i, j in itertools.product(_axis_range(lo[0], hi[0], s1), _axis_range(lo[1], hi[1], s2)):
            z1 = (i + 0.5) * s1
            z2 = (j + 0.5) * s2
            w1lo = max(-u, lo[0] - z1)
            w1hi = min(u, hi[0] - z1)
            w2lo = max(-u, lo[1] - z2)
            w2hi = min(u, hi[1] - z2)
            if w1lo >= w1hi or w2lo >= w2hi:
                continue
            a, b = -z2 / 2.0, z1 / 2.0
            a1, a2 = sorted((a * w1lo, a * w1hi))
            b1, b2 = sorted((b * w2lo, b * w2hi))
            k_min = math.floor((lo[2] - (a2 + b2) - h3) / s3 - 0.5)
            k_max = math.ceil((hi[2] - (a1 + b1) + h3) / s3 - 0.5)
            k = np.arange(k_min, k_max + 1)
            z3 = (k + 0.5) * s3
            A, B = (lo[2] - z3)[:, None], (hi[2] - z3)[:, None]
            corners = np.tile([a1 + b1, a1 + b2, a2 + b1, a2 + b2], (len(z3), 1))
            knots = np.sort(np.hstack([A - h3, A + h3, B - h3, B + h3, corners]), axis=1)
            x = np.clip(knots, np.maximum(A - h3, a1 + b1), np.minimum(B + h3, a2 + b2))
            x0, x1 = x[:, :-1], x[:, 1:]
            s = np.stack([x0, 0.5 * (x0 + x1), x1])
            fs = _overlap(a1, a2, s - b2, s - b1) * _overlap(-h3, h3, A - s, B - s)
            ms = ((x1 - x0) * (fs[0] + 4.0 * fs[1] + fs[2]) / 6.0).sum(axis=1)
            ms *= HEISENBERG.measure_scale / abs(a * b)
            yield n, i, j, k, ms


def _column_pieces(steps, lo, hi):
    """(radius, box, idx, measure) of every slab of positive measure, in
    (radius, box, i, j, k) order, from the column loop."""
    out = []
    for r, s in enumerate(steps.tolist()):
        for n, i, j, k, ms in _column_slabs(s, lo.tolist(), hi.tolist()):
            for kk, m in zip(k.tolist(), ms.tolist()):
                if m > 0.0:
                    out.append((r, n, (i, j, kk), m))
    return out


def _stream_pieces(steps, lo, hi):
    out = []
    for radius, box, idx, m in HEISENBERG.geometry.partition_pieces(steps, lo, hi):
        assert idx.dtype == np.int64
        out += zip(radius.tolist(), box.tolist(), map(tuple, idx.tolist()), m.tolist())
    return out


def test_one_pass_slabs_match_the_column_loop():
    """200 random box sets, at the steps of two radii at once: the same
    pieces, in the same order, to the bit."""
    rng = np.random.default_rng(11)
    total = 0
    for _ in range(200):
        n = int(rng.integers(1, 5))
        lo = rng.uniform(-2.0, 1.5, size=(n, 3))
        hi = lo + rng.uniform(0.01, 1.0, size=(n, 3)) * [1.0, 1.0, 0.3]
        radii = rng.choice([0.37, 0.8, 1.5, 4.0], size=2, replace=False)
        steps = np.array([cell_shape(HEISENBERG, r)[1] for r in radii])
        ref = _column_pieces(steps, lo, hi)
        assert _stream_pieces(steps, lo, hi) == ref
        total += len(ref)
    assert total > 10_000


def test_one_pass_slabs_match_the_column_loop_on_seeded_functions():
    for seed in range(6):
        f = gen_random_simple(seed, 1 + seed % 4, WINDOWS["heisenberg"], HEISENBERG)
        lo = np.array([c.lo for c in f.cells])
        hi = np.array([c.hi for c in f.cells])
        steps = np.array([partition_for(f, HEISENBERG, r).steps for r in (0.3, 0.75, 2.0, 6.0)])
        assert _stream_pieces(steps, lo, hi) == _column_pieces(steps, lo, hi)
