"""Amalgam norms: partition form, ball form, and the sliding-ball
integral of |f|^q.

The partition form sums exact cell intersections and is closed-form on
every instance: one accumulator (:func:`_partition_sums`) sums per cell
the pieces the group's ``partition_pieces`` cuts for one or many radii.
The ball form integrates y -> ||f.chi_{yB}||_q over the group: on the
real line the integrand is piecewise linear in y, so the norm is
computed exactly by breakpoint decomposition; on the other instances a
midpoint mesh in y (with an exact or semi-exact overlap per mesh point)
is used and the mesh is reported alongside the value.  The y-domain is
always clipped to the inflated support neighbourhood, which is exact
because the integrand vanishes outside it.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

import numpy as np

from .groups import BLOCK_PIECES, MAX_PIECES, GroupDescriptor, Point
from .partitions import UniformPartition
from .simplefn import (
    RANGE_ERROR,
    SimpleFunction,
    _cells_hold,
    _check_exponent,
    _check_measures,
    _lost_digits,
    _power_sums,
    _root,
    _times_pow2,
    _unit_exponent,
)


@dataclass(frozen=True)
class AmalgamResult:
    """CLI-facing record of one amalgam norm evaluation.

    ``method`` is "exact" only on the real line.  Partition sums on the
    other instances are still closed-form cell sums ("cellsum"); ball
    norms there are mesh quadrature ("quadrature") with the mesh spacing
    reported.
    """

    value: float
    form: str
    q: float
    p: float
    r: float
    method: str
    mesh: float | None
    note: str | None = None


def _require_support_in_window(f: SimpleFunction, part: UniformPartition) -> None:
    bb = f.bounding_box()
    if bb is None:
        return
    for (blo, bhi), (wlo, whi) in zip(bb, part.window):
        if blo < wlo or bhi > whi:
            raise ValueError("support of f escapes the partition window")


def partition_norm(
    f: SimpleFunction, part: UniformPartition, q: float, p: float
) -> float:
    """Exact ell^p (over cells) of the local L^q norms of f; a partition
    cutting the support into more than MAX_PIECES pieces is refused first."""
    q = _check_exponent(q)
    p = _check_exponent(p)
    if f.group.name != part.group.name:
        raise ValueError("function and partition live on different groups")
    _require_support_in_window(f, part)
    if f.is_zero():
        return 0.0
    return _partition_sums(f, q, p, 1, part.intersections_with_box)[0]


def _partition_sums(f: SimpleFunction, q: float, p: float, n: int, pieces_of) -> list[float]:
    """The partition norms of a nonzero f at radii 0..n-1 from the blocks
    of whole radii (radius, box, cell index, measure) that ``pieces_of(lo,
    hi)`` cuts from its cells.  A stable group-by keeps each cell's pieces
    in stream order, where np.bincount sums them one after another; the
    per-cell powers and the sum over cells stay in Python (libm's powers,
    fsum).  Where the cells' sums lose digits (:func:`_cells_hold`), the
    local norms are taken by :func:`_power_sums` instead.  A radius without
    pieces has norm 0."""
    e = _unit_exponent(f.max_value, q, p)
    lo = np.array([c.lo for c in f.cells])
    hi = np.array([c.hi for c in f.cells])
    vals = [math.ldexp(c.value, -e) for c in f.cells]
    powers = vals if math.isinf(q) else [x**q for x in vals]
    v = np.array(powers)
    plain = math.isinf(q) or _cells_hold(f, q, powers)
    norms = [0.0] * n
    for radius, box, idx, m in pieces_of(lo, hi):
        if not len(radius):
            continue
        order = np.lexsort((*idx.T[::-1], radius))
        radius, idx = radius[order], idx[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (radius[1:] != radius[:-1]) | np.any(idx[1:] != idx[:-1], axis=1)
        starts = np.flatnonzero(new)
        owner = radius[starts]
        firsts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()]  # each radius' first cell
        if math.isinf(q):
            local = np.maximum.reduceat(np.where(m > 0.0, v[box], 0.0)[order], starts).tolist()
        elif plain:
            sums = np.bincount(np.cumsum(new) - 1, weights=(v[box] * m)[order])
            local = [a ** (1.0 / q) for a in sums.tolist()]
        else:
            local = _power_sums(np.array(vals)[box[order]], q, m[order], starts.tolist())
        for j, norm in zip(owner[firsts].tolist(), _cells_norms(local, firsts, p, e)):
            norms[j] = norm
    return norms


def _cells_norms(local: list[float], firsts: list[int], p: float, e: int) -> list[float]:
    """The ell^p norm over cells of each run local[a:b] of local L^q norms
    between consecutive firsts (the last run ends at len(local)), for
    values scaled by 2**-e.  The powers of all runs are taken in one list
    sweep, with Python's (libm's) pow, and each run is summed by one fsum;
    a run whose sum lost digits is summed by :func:`_power_sums`."""
    runs = list(zip(firsts, firsts[1:] + [len(local)]))
    if math.isinf(p):
        norms = [max(local[a:b], default=0.0) for a, b in runs]
    else:
        powers = [v**p for v in local]
        totals = [math.fsum(powers[a:b]) for a, b in runs]
        norms = [t ** (1.0 / p) for t in totals]
        for k in _lost_digits(powers, 1.0, totals, firsts):
            norms[k] = _power_sums(local[slice(*runs[k])], p, 1.0)[0]
    return [_times_pow2(x, e) for x in norms] if e else norms


def _cells_norm(acc: list[float], q: float, p: float, e: int) -> float:
    """The norm of one run of :func:`_cells_norms` from each cell's sum of
    v^q lambda (its max v at q = inf)."""
    return _cells_norms(acc if math.isinf(q) else [a ** (1.0 / q) for a in acc], [0], p, e)[0]


# -- sliding-ball integral --------------------------------------------------


def conv_q_indicator(
    f: SimpleFunction, q: float, r: float, x: Point, mesh: int = 48
) -> float:
    """(|f|^q * chi_B)(x) = integral of |f|^q over x.B(e, r); ``mesh`` is
    the inner grid side of the Heisenberg ball-box kernel."""
    q = _check_exponent(q)
    if math.isinf(q):
        raise ValueError("q = inf is not supported here; use the sup-norm branch")
    if not 0 < r < math.inf:
        raise ValueError("ball radius must be positive and finite")
    cells = f.cells
    if not cells:
        return 0.0
    lo = np.array([c.lo for c in cells])
    hi = np.array([c.hi for c in cells])
    ys = np.broadcast_to(np.asarray(x, dtype=float), lo.shape)
    measures = f.group.geometry.ball_box_measure(ys, r, lo, hi, mesh).tolist()
    _check_measures(f, q)
    hit = [(c.value, m) for c, m in zip(cells, measures) if m > 0.0]  # a miss adds a true 0
    values, weights = [v for v, _ in hit], [m for _, m in hit]
    e = _unit_exponent(f.max_value, q)
    powers = [math.ldexp(v, -e) ** q for v in values]
    total = sum(x * m for x, m in zip(powers, weights))
    if _lost_digits(powers, weights, [total]):
        return _power_sums(values, q, weights, root=False)[0]
    k = math.floor(e * q)  # the q-th power of a norm: it scales by 2**(e*q)
    return _times_pow2(total * 2.0 ** (e * q - k), k)


# -- ball norm ---------------------------------------------------------------


def _check_ball_args(
    f: SimpleFunction, g: GroupDescriptor, radii: list[float], q: float, p: float, mesh: float | None
) -> tuple[float, float]:
    q = _check_exponent(q)
    p = _check_exponent(p)
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("ball radius must be positive and finite")
    if mesh is not None and not 0 < mesh < math.inf:
        raise ValueError("mesh must be positive and finite")
    if f.group.name != g.name:
        raise ValueError("function group does not match the requested group")
    return q, p


def ball_norm(
    f: SimpleFunction,
    g: GroupDescriptor,
    r: float,
    q: float,
    p: float,
    mesh: float | None = None,
) -> float:
    """The y-integral form of the amalgam norm at ball radius r."""
    q, p = _check_ball_args(f, g, [r], q, p, mesh)
    if f.is_zero():
        return 0.0
    if g.d == 1:  # the y-integrand is piecewise linear: exact sweep
        return _ball_norm_line(f, [r], q, p)[0]
    return _ball_norm_quadrature(f, g, r, q, p, mesh if mesh is not None else r / 3.0)


def ball_norms(
    f: SimpleFunction,
    g: GroupDescriptor,
    radii: list[float],
    q: float,
    p: float,
    mesh: float | None = None,
) -> list[float]:
    """``ball_norm`` at every radius of radii; on the line the arguments
    are checked once and one sweep serves every radius, bit-identical to
    the single-radius calls."""
    if g.d != 1:
        return [ball_norm(f, g, r, q, p, mesh) for r in radii]
    q, p = _check_ball_args(f, g, radii, q, p, mesh)
    if f.is_zero():
        return [0.0] * len(radii)
    return _ball_norm_line(f, radii, q, p)


def _ball_norm_line(f: SimpleFunction, radii: list[float], q: float, p: float) -> list[float]:
    cells = f.cells
    e = _unit_exponent(f.max_value, q, p)
    if math.isinf(q):
        if math.isinf(p):
            return [max(c.value for c in cells)] * len(radii)
        return [_sup_ball_norm_line(f, r, p, e) for r in radii]
    scale = f.group.measure_scale
    lo = np.array([c.lo[0] for c in cells])
    hi = np.array([c.hi[0] for c in cells])
    powers = [math.ldexp(c.value, -e) ** q for c in cells]
    if not _cells_hold(f, q, powers):
        raise ValueError(RANGE_ERROR)  # the sweep is no power sum
    w = np.array([x * scale for x in powers])
    # phi(y) = sum_i v_i^q lambda([a_i, b_i) ^ (y-r, y+r)) is piecewise
    # linear; each cell contributes slope +w on [a-r, a-r+W) and -w on
    # [b+r-W, b+r) with W = min(b-a, 2r).  Each row of the event arrays
    # holds one radius' events, cell by cell; a stable sort puts equal
    # knots together in that order, so the slope merged at a knot, its
    # running sum and phi are the same sums, in the same order, as a
    # sweep over the knots.
    dw = np.stack([w, -w, -w, w], axis=1).ravel()
    norms = []
    per_block = max(1, BLOCK_PIECES // dw.size)
    for b0 in range(0, len(radii), per_block):
        r = np.array(radii[b0 : b0 + per_block])[:, None]
        width = np.minimum(hi - lo, 2.0 * r)
        start, end = lo - r, hi + r
        y = np.stack([start, start + width, end - width, end], axis=2).reshape(len(r), -1)
        order = np.argsort(y, axis=1, kind="stable")
        y = np.take_along_axis(y, order, axis=1)
        head = np.ones(y.shape, dtype=bool)
        head[:, 1:] = y[:, 1:] != y[:, :-1]
        # the merged slope of each run of equal knots sits at its head
        merged = np.zeros(y.shape)
        merged[head] = np.bincount(np.cumsum(head) - 1, weights=dw[order].ravel())
        slope = np.cumsum(merged, axis=1)
        rise = np.zeros(y.shape)
        rise[:, 1:] = slope[:, :-1] * (y[:, 1:] - y[:, :-1])
        values = np.maximum(np.cumsum(rise, axis=1), 0.0)
        if math.isinf(p):
            norms += [_times_pow2(v ** (1.0 / q), e) for v in values.max(axis=1).tolist()]
            continue
        pieces, heads, totals = [], [], []
        for knots, phi in zip(y.tolist(), values.tolist()):
            heads.append(len(pieces))
            pieces += [  # a repeated knot, or a segment where phi is 0, adds nothing
                _linear_power_integral(f0, f1, y1 - y0, p / q) * scale
                for y0, y1, f0, f1 in zip(knots[:-1], knots[1:], phi[:-1], phi[1:])
                if y1 > y0 and (f0 or f1)
            ]
            totals.append(sum(pieces[heads[-1] :]))
        if _lost_digits(pieces, 1.0, totals, heads):
            raise ValueError(RANGE_ERROR)  # an integral of powers is no power sum
        norms += [_times_pow2(t ** (1.0 / p), e) for t in totals]
    return norms


def _sup_ball_norm_line(f: SimpleFunction, r: float, p: float, e: int) -> float:
    """The ball norm at q = inf: ||f chi_{yB}||_inf is a step function of y
    with jumps at a-r, b+r.

    On the segment between two knots it is the largest value of the cells
    with a - r < ym < b + r, ym the segment's midpoint.  The midpoints
    never decrease, so one sweep keeps those cells on a max-heap: a cell
    is pushed once its a - r lies below ym, and dropped from the top once
    its b + r is at or below ym (it cannot come back)."""
    cells = f.cells
    scale = f.group.measure_scale
    starts = sorted((c.lo[0] - r, c.value, c.hi[0] + r) for c in cells)
    knots = sorted({s for s, _, _ in starts} | {end for _, _, end in starts})
    heap: list[tuple[float, float]] = []
    nxt = 0
    values, widths = [], []
    for y0, y1 in zip(knots[:-1], knots[1:]):
        ym = 0.5 * (y0 + y1)
        while nxt < len(starts) and starts[nxt][0] < ym:
            heapq.heappush(heap, (-starts[nxt][1], starts[nxt][2]))
            nxt += 1
        while heap and heap[0][1] <= ym:
            heapq.heappop(heap)
        if heap:
            values.append(math.ldexp(-heap[0][0], -e))
            widths.append(y1 - y0)
    powers = [v**p for v in values]
    total = sum(x * dy * scale for x, dy in zip(powers, widths))
    return _root(total, p, e, values, [dy * scale for dy in widths], powers)


def _linear_power_integral(f0: float, f1: float, dy: float, s: float) -> float:
    """Exact integral of (f0 + (f1 - f0) t / dy)^s over [0, dy], f0, f1 >= 0.

    The closed form (f1^(s+1) - f0^(s+1)) / (m (s+1)) cancels badly on
    nearly flat segments, so those switch to a series in (f1 - f0)/f0.
    """
    if f0 == f1:
        return f0**s * dy
    if f0 == 0.0 or f1 == 0.0:
        return dy * max(f0, f1) ** s / (s + 1.0)
    u = (f1 - f0) / f0
    if abs(u) < 1e-4:
        return dy * f0**s * (1.0 + s * u / 2.0 + s * (s - 1.0) * u * u / 6.0)
    return dy * (f1 ** (s + 1.0) - f0 ** (s + 1.0)) / ((f1 - f0) * (s + 1.0))


def _ball_norm_quadrature(
    f: SimpleFunction, g: GroupDescriptor, r: float, q: float, p: float, mesh: float
) -> float:
    try:
        bounds = g.geometry.quadrature_axes(f.bounding_box(), r, mesh)
    except OverflowError:  # a ball half-width past the float range
        bounds = [(-math.inf, math.inf, mesh)] * g.d
    lo, hi, h = np.array(bounds).T
    with np.errstate(all="ignore"):  # the y-mesh is counted before it is made
        n = np.maximum(2.0, np.ceil((hi - lo) / h))
        points = np.prod(n)
    if not points <= MAX_PIECES:
        raise ValueError(
            f"the ball quadrature at r = {r}, mesh = {mesh} needs {points:.4g} y-points, "
            f"more than {MAX_PIECES}"
        )
    step = (hi - lo) / n  # midpoints of n equal steps per axis
    cell = math.prod(step.tolist())
    if not math.isfinite(cell):
        raise ValueError(
            f"the ball quadrature at r = {r}, mesh = {mesh} has y-cells of volume "
            f"{cell:.4g}, past the float range"
        )
    axes = [a + (np.arange(k) + 0.5) * s for a, k, s in zip(lo, n.astype(int), step)]
    local = np.zeros(int(points))  # one value per y-point, in meshgrid "ij" order
    e = _unit_exponent(f.max_value, q, p)
    vals = [math.ldexp(c.value, -e) for c in f.cells]
    vq = vals if math.isinf(q) else [v**q for v in vals]
    plain = math.isinf(q) or _cells_hold(f, q, vq)
    rows = []  # otherwise each y-point's (value, overlap) terms, for _power_sums
    for c, v, w in zip(f.cells, vals, vq):
        # 8 x 8 inner (w1, w2) grid on the Heisenberg group
        ids, overlap = g.geometry.ball_mesh_rows(axes, r, c.lo, c.hi, 8)
        if math.isinf(q):
            local[ids] = np.maximum(local[ids], np.where(overlap > 0.0, v, 0.0))
        elif plain:
            local[ids] += w * overlap
        else:
            hit = overlap > 0.0  # a miss adds a true 0
            rows.append((ids[hit], np.full(hit.sum(), v), overlap[hit]))
    if rows:
        ids, x, w = (np.concatenate(a) for a in zip(*rows))
        order = np.argsort(ids, kind="stable")
        at, heads = np.unique(ids[order], return_index=True)
        local[at] = _power_sums(x[order], q, w[order], heads.tolist())
    elif not math.isinf(q):
        local = local ** (1.0 / q)
    if math.isinf(p):
        return _times_pow2(float(local.max()), e)
    powers = local**p
    return _root(float(np.sum(powers)) * cell * g.measure_scale, p, e, local, cell * g.measure_scale, powers)


def compute_norm(
    f: SimpleFunction,
    g: GroupDescriptor,
    form: str,
    q: float,
    p: float,
    r: float,
    mesh: float | None = None,
) -> AmalgamResult:
    """Evaluate one amalgam norm and wrap it for reporting."""
    from .fracmean import partition_for  # local import to avoid a cycle

    note = None
    exact = g.d == 1
    if form == "partition":
        part = partition_for(f, g, r)
        value = partition_norm(f, part, q, p)
        method = "exact" if exact else "cellsum"
        used_mesh = None
    elif form == "ball":
        value = ball_norm(f, g, r, q, p, mesh)
        method = "exact" if exact else "quadrature"
        used_mesh = None if exact else (mesh if mesh else r / 3.0)
        if math.isinf(p) and not exact:
            note = "essential sup over y realized as a mesh max"
    else:
        raise ValueError(f"unknown norm form {form!r}")
    return AmalgamResult(value, form, q, p, r, method, used_mesh, note)
