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
from .simplefn import SimpleFunction, _check_exponent, _times_pow2, _unit_exponent


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
    fsum).  A radius without pieces has norm 0."""
    e = _unit_exponent(f.max_value, q, p)
    lo = np.array([c.lo for c in f.cells])
    hi = np.array([c.hi for c in f.cells])
    v = [math.ldexp(c.value, -e) for c in f.cells]
    v = np.array(v if math.isinf(q) else [x**q for x in v])
    norms = [0.0] * n
    for radius, box, idx, m in pieces_of(lo, hi):
        if not len(radius):
            continue
        order = np.lexsort((*idx.T[::-1], radius))
        radius, idx = radius[order], idx[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (radius[1:] != radius[:-1]) | np.any(idx[1:] != idx[:-1], axis=1)
        starts = np.flatnonzero(new)
        if math.isinf(q):
            local = np.maximum.reduceat(np.where(m > 0.0, v[box], 0.0)[order], starts)
        else:
            local = np.bincount(np.cumsum(new) - 1, weights=(v[box] * m)[order])
        owner, local = radius[starts], local.tolist()
        cuts = (np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()
        for a, b in zip([0] + cuts, cuts + [len(local)]):  # the cells of one radius
            norms[owner[a]] = _cells_norm(local[a:b], q, p, e)
    return norms


def _cells_norm(acc: list[float], q: float, p: float, e: int) -> float:
    """The ell^p norm over cells from each cell's sum of v^q lambda (its max
    v at q = inf), for values scaled by 2**-e."""
    locals_q = acc if math.isinf(q) else [a ** (1.0 / q) for a in acc]
    if math.isinf(p):
        return _times_pow2(max(locals_q, default=0.0), e)
    return _times_pow2(math.fsum(v**p for v in locals_q) ** (1.0 / p), e)


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
    e = _unit_exponent(f.max_value, q)
    total = sum(math.ldexp(c.value, -e) ** q * m for c, m in zip(cells, measures))
    try:  # the q-th power of a norm: it scales by 2**(e*q)
        return total * 2.0 ** (e * q)
    except OverflowError:
        return math.inf


# -- ball norm ---------------------------------------------------------------


def _check_ball_args(
    f: SimpleFunction, g: GroupDescriptor, r: float, q: float, p: float, mesh: float | None
) -> tuple[float, float]:
    q = _check_exponent(q)
    p = _check_exponent(p)
    if not 0 < r < math.inf:
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
    q, p = _check_ball_args(f, g, r, q, p, mesh)
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
    """``ball_norm`` at every radius of radii; on the line one sweep
    serves them all, bit-identical to the single-radius calls."""
    if g.d != 1:
        return [ball_norm(f, g, r, q, p, mesh) for r in radii]
    for r in radii:
        q, p = _check_ball_args(f, g, r, q, p, mesh)
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
    w = np.array([math.ldexp(c.value, -e) ** q * scale for c in cells])
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
        for knots, phi in zip(y.tolist(), values.tolist()):
            total = 0.0
            for y0, y1, f0, f1 in zip(knots[:-1], knots[1:], phi[:-1], phi[1:]):
                dy = y1 - y0
                if dy > 0.0:  # a repeated knot adds nothing
                    total += _linear_power_integral(f0, f1, dy, p / q) * scale
            norms.append(_times_pow2(total ** (1.0 / p), e))
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
    total = 0.0
    for y0, y1 in zip(knots[:-1], knots[1:]):
        ym = 0.5 * (y0 + y1)
        while nxt < len(starts) and starts[nxt][0] < ym:
            heapq.heappush(heap, (-starts[nxt][1], starts[nxt][2]))
            nxt += 1
        while heap and heap[0][1] <= ym:
            heapq.heappop(heap)
        v = -heap[0][0] if heap else 0.0
        total += math.ldexp(v, -e) ** p * (y1 - y0) * scale
    return _times_pow2(total ** (1.0 / p), e)


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
    for c in f.cells:
        # 8 x 8 inner (w1, w2) grid on the Heisenberg group
        ids, overlap = g.geometry.ball_mesh_rows(axes, r, c.lo, c.hi, 8)
        v = math.ldexp(c.value, -e)
        if math.isinf(q):
            local[ids] = np.maximum(local[ids], np.where(overlap > 0.0, v, 0.0))
        else:
            local[ids] += v**q * overlap
    if not math.isinf(q):
        local = local ** (1.0 / q)
    if math.isinf(p):
        return _times_pow2(float(local.max()), e)
    return _times_pow2(float((np.sum(local**p) * cell * g.measure_scale) ** (1.0 / p)), e)


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
