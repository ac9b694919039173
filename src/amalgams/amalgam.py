"""Amalgam norms: partition form, ball form, and the sliding-ball
integral of |f|^q.

The partition form sums exact cell intersections and is closed-form on
every instance: one accumulator (:func:`_partition_sums`) sums per cell
the pieces the group's ``partition_pieces`` cuts for one or many radii.
The ball form integrates y -> ||f.chi_{yB}||_q over the group: on the
real line one stream of sorted knots serves every (q, p), the integrand
being piecewise linear in y at finite q and a step function at q = inf,
so the norm is computed exactly between knots; on the other instances a
midpoint mesh in y (with an exact or semi-exact overlap per mesh point)
is used and the mesh is reported alongside the value.  The y-domain is
always clipped to the inflated support neighbourhood, which is exact
because the integrand vanishes outside it.

Neither the partition pieces, nor the ball-mesh overlaps, nor the line
sweep's sorted knots depend on the exponents, so each call leaves its
blocks of them on the function for the next one (:func:`_replay`): per
kind, f keeps the key (the radii or lattice steps, or the radius and
mesh, with the work caps) and blocks of its last stream, and a call on
the same f with an equal key sums them under its own (q, p).  A stream's
``make`` runs all of its exponent-free work, checks included, so a replay
skips it: a fractional-mean partition norm makes its scale checks there.
Only streams of at most ``MEMO_PIECES`` array elements are kept, for as
long as their function lives.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import GroupDescriptor, Point
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
    pieces = part.intersections_with_box
    blocks = _replay("partition", f, (part.steps,), lambda: _sorted_pieces(pieces(f.lo, f.hi)))
    return _partition_sums(f, q, p, 1, blocks)[0]


# -- the exponent-free blocks a function keeps -------------------------------

# Most array elements (pieces, ball-mesh rows, or line-sweep knots) the first
# arrays of one call's blocks may hold to be kept for the next call; a longer
# stream is made anew on every call.  The repeated calls of the benchmark's
# workloads stream at most about 8k; the fracnorms of 1k-2k cell functions
# stream 34k and more, and keeping those (at 2**16) raised peak memory by
# 1.4 MB for no reuse.
MEMO_PIECES = 1 << 14


def _replay(kind: str, f: SimpleFunction, key: tuple, make):
    """An iterator over the blocks of ``make()``, which depend on f and key
    alone.

    When f keeps the blocks of ``kind`` at an equal key and work caps (under
    a lowered cap a replay then raises where a new stream would), they are
    replayed and make is not called.  Otherwise make is called at once, so
    that its checks raise here, and its blocks are yielded as they are made;
    f's entry of ``kind`` is dropped when they start, and they become the
    entry only once all of them are out and their first arrays hold at most
    MEMO_PIECES elements together, so a stream that is larger, or whose
    consumer stops early or raises, saves nothing.  Consumers must not
    write to the blocks."""
    key = (*key, groups.MAX_PIECES, groups.BLOCK_PIECES)
    entry = f._memo.get(kind)
    if entry is not None and entry[0] == key:
        return iter(entry[1])
    return _kept(kind, f, key, make())


def _kept(kind: str, f: SimpleFunction, key: tuple, blocks):
    """The blocks of a new stream, kept on f as :func:`_replay` says."""
    f._memo.pop(kind, None)
    saved, rows = [], 0
    for block in blocks:
        if saved is not None:
            rows += block[0].size
            if rows <= MEMO_PIECES:
                saved.append(block)
            else:
                saved = None
        yield block
    if saved is not None:
        f._memo[kind] = (key, saved)


def _partition_sums(f: SimpleFunction, q: float, p: float, n: int, blocks) -> list[float]:
    """The partition norms of a nonzero f at n radii from the blocks of
    :func:`_sorted_pieces`, the pieces of f's cells grouped by radius and
    cell.  np.bincount sums each cell's pieces one after another; the
    per-cell powers and the sum over cells stay in Python (libm's powers,
    fsum).  Where the cells' sums lose digits (:func:`_cells_hold`), the
    local norms are taken by :func:`_power_sums` instead.  A radius without
    pieces has norm 0.  At q = 1 the sums are the local norms: libm's x**1.0
    is x."""
    e = _unit_exponent(f.max_value, q, p)
    vals = [math.ldexp(c.value, -e) for c in f.cells]
    powers = vals if math.isinf(q) else _pow(vals, q)
    v = np.array(powers)
    plain = math.isinf(q) or _cells_hold(f, q, powers)
    norms, root = [0.0] * n, 1.0 / q
    for box, m, runs, starts, firsts, owners in blocks:
        if math.isinf(q):
            local = np.maximum.reduceat(v[box], starts)
        elif plain:
            sums = np.bincount(runs, weights=v[box] * m)
            local = sums if q == 1.0 else _pow(sums.tolist(), root)
        else:
            local = _power_sums(np.array(vals)[box], q, m, starts.tolist())
        for j, norm in zip(owners, _cells_norms(local, firsts, p, e)):
            norms[j] = norm
    return norms


def _pow(xs: list[float], a: float) -> list[float]:
    """[x**a for x in xs] by Python's (libm's) pow; xs itself at a = 1, where
    that pow is exact."""
    return xs if a == 1.0 else [x**a for x in xs]


def _pow_or_inf(x: float, a: float) -> float:
    """x**a by Python's (libm's) pow, inf where that is past the float range."""
    try:
        return x**a
    except OverflowError:
        return math.inf


def _sorted_pieces(pieces):
    """The nonempty blocks of whole radii (radius, box, cell index, measure)
    of a ``partition_pieces`` stream, grouped by (radius, cell index) with a
    stable sort, so that each cell's pieces stay in stream order: (box,
    measure, run id of each piece, first piece of each run, first run of
    each radius (a list), radius of those runs (a list)).  A block already
    in that order, as the pieces of a line function whose cells are in
    order along it, keeps its arrays."""
    for radius, box, idx, m in pieces:
        if not len(radius):
            continue
        order = np.lexsort((*idx.T[::-1], radius))
        if np.count_nonzero(order[1:] < order[:-1]):
            radius, box, idx, m = radius[order], box[order], idx.take(order, axis=0), m[order]
        new = np.empty(len(order), dtype=bool)
        new[0] = True
        np.logical_or(radius[1:] != radius[:-1], (idx[1:] != idx[:-1]).any(axis=1), out=new[1:])
        starts = new.nonzero()[0]
        owner = radius[starts]
        firsts = [0, *((owner[1:] != owner[:-1]).nonzero()[0] + 1).tolist()]
        yield box, m, new.cumsum() - 1, starts, firsts, owner[firsts].tolist()


def _cells_norms(local, firsts: list[int], p: float, e: int) -> list[float]:
    """The ell^p norm over cells of each run local[a:b] of local L^q norms
    (a list or an array) between consecutive firsts (the last run ends at
    len(local)), for values scaled by 2**-e.  At p = inf one reduceat takes
    the max of every run, none of them empty.  Otherwise the powers of all
    runs are taken in one list sweep, with Python's (libm's) pow, and each
    run is summed by one fsum; a run whose sum lost digits, or whose powers
    leave the float range (inf), is summed by :func:`_power_sums`."""
    if math.isinf(p):
        norms = np.maximum.reduceat(local, firsts).tolist()
    else:
        local = local.tolist() if isinstance(local, np.ndarray) else local
        runs = list(zip(firsts, firsts[1:] + [len(local)]))
        try:
            powers = _pow(local, p)
        except OverflowError:
            powers = [_pow_or_inf(x, p) for x in local]
        totals = [math.fsum(powers[a:b]) for a, b in runs]
        norms = _pow(totals, 1.0 / p)
        for k in _lost_digits(powers, 1.0, totals, firsts):
            norms[k] = _power_sums(local[slice(*runs[k])], p, 1.0)[0]
    return _scaled(norms, e)


def _scaled(xs: list[float], e: int) -> list[float]:
    """[x * 2**e for x in xs] by :func:`_times_pow2`; xs itself at e = 0."""
    return [_times_pow2(x, e) for x in xs] if e else xs


# -- sliding-ball integral --------------------------------------------------


def conv_q_indicator(
    f: SimpleFunction, q: float, r: float, x: Point, mesh: int = 48
) -> float:
    """(|f|^q * chi_B)(x) = integral of |f|^q over x.B(e, r); ``mesh`` is
    the inner grid side of the Heisenberg ball-box kernel."""
    return conv_q_indicators(f, q, [r], x, mesh)[0]


def conv_q_indicators(
    f: SimpleFunction, q: float, radii: list[float], x: Point, mesh: int = 48
) -> list[float]:
    """``conv_q_indicator`` at every radius of radii, the arguments checked
    once and the overlaps of all radii asked of the geometry in one call,
    bit-identical to the single-radius calls."""
    q = _check_exponent(q)
    if math.isinf(q):
        raise ValueError("q = inf is not supported here; use the sup-norm branch")
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("ball radius must be positive and finite")
    cells = f.cells
    if not cells:
        return [0.0] * len(radii)
    ys = np.broadcast_to(np.asarray(x, dtype=float), f.lo.shape)
    rows = f.group.geometry.ball_box_measure(ys, np.array(radii, dtype=float), f.lo, f.hi, mesh).tolist()
    _check_measures(f, q)
    e = _unit_exponent(f.max_value, q)
    k = math.floor(e * q)  # the q-th power of a norm: it scales by 2**(e*q)
    totals = []
    for measures in rows:
        hit = [(c.value, m) for c, m in zip(cells, measures) if m > 0.0]  # a miss adds a true 0
        values, weights = [v for v, _ in hit], [m for _, m in hit]
        powers = [math.ldexp(v, -e) ** q for v in values]
        total = sum(x * m for x, m in zip(powers, weights))
        if _lost_digits(powers, weights, [total]):
            totals.append(_power_sums(values, q, weights, root=False)[0])
        else:
            totals.append(_times_pow2(total * 2.0 ** (e * q - k), k))
        if hit and totals[-1] == 0.0:  # a positive q-th power below the float range
            raise ValueError(RANGE_ERROR)
    return totals


# -- ball norm ---------------------------------------------------------------


def ball_norm(
    f: SimpleFunction,
    g: GroupDescriptor,
    r: float,
    q: float,
    p: float,
    mesh: float | None = None,
) -> float:
    """The y-integral form of the amalgam norm at ball radius r."""
    return _ball_norms(f, g, [r], q, p, mesh)[0]


def ball_norms(
    f: SimpleFunction,
    g: GroupDescriptor,
    radii: list[float],
    q: float,
    p: float,
    mesh: float | None = None,
) -> list[float]:
    """``ball_norm`` at every radius of radii, the arguments checked once;
    on the line one stream of sorted knots serves every radius and every
    (q, p), bit-identical to the single-radius calls."""
    return _ball_norms(f, g, radii, q, p, mesh)


def _ball_norms(
    f: SimpleFunction, g: GroupDescriptor, radii: list[float], q: float, p: float, mesh: float | None
) -> list[float]:
    q = _check_exponent(q)
    p = _check_exponent(p)
    if not all(0 < r < math.inf for r in radii):
        raise ValueError("ball radius must be positive and finite")
    if mesh is not None and not 0 < mesh < math.inf:
        raise ValueError("mesh must be positive and finite")
    if f.group.name != g.name:
        raise ValueError("function group does not match the requested group")
    if f.is_zero():
        return [0.0] * len(radii)
    if g.d == 1:  # the y-integrand is piecewise linear: exact sweep
        return _ball_norm_line(f, radii, q, p)
    return [_ball_norm_quadrature(f, g, r, q, p, _ball_mesh(r, mesh)) for r in radii]


def _ball_mesh(r: float, mesh: float | None) -> float:
    """The y-mesh of the ball quadrature at radius r: r/3 unless given."""
    return r / 3.0 if mesh is None else mesh


# The change of slope each cell's ramps make at a - r, a - r + W, b + r - W, b + r.
_RAMPS = np.array([1.0, -1.0, -1.0, 1.0])


def _ball_norm_line(f: SimpleFunction, radii: list[float], q: float, p: float) -> list[float]:
    cells = f.cells
    e = _unit_exponent(f.max_value, q, p)
    if math.isinf(q) and math.isinf(p):
        return [max(c.value for c in cells)] * len(radii)
    scale = f.group.measure_scale
    along = f.axis0_order  # None where f's cells are in order of a
    if math.isinf(q):  # peaks[l, i]: the largest of cells i..i + 2**l - 1 in order of a, by 2**-e
        v = np.array([math.ldexp(c.value, -e) for c in cells])
        peaks = [v if along is None else v[along]]
        for h in (1 << j for j in range(len(cells).bit_length() - 1)):
            peaks.append(np.concatenate([np.maximum(peaks[-1][:-h], peaks[-1][h:]), peaks[-1][-h:]]))
        peaks = np.array(peaks)
    else:
        powers = _pow([math.ldexp(c.value, -e) for c in cells], q)
        if not _cells_hold(f, q, powers):
            raise ValueError(RANGE_ERROR)  # the sweep is no power sum
        w = np.array([x * scale for x in powers])
        dw = (w[:, None] * _RAMPS).ravel()
    # phi(y) = sum_i v_i^q lambda([a_i, b_i) ^ (y-r, y+r)) is piecewise
    # linear; each cell contributes slope +w on [a-r, a-r+W) and -w on
    # [b+r-W, b+r) with W = min(b-a, 2r).  Each row of the event arrays
    # holds one radius' events, cell by cell in order along the line, where
    # a stable sort mostly merges presorted runs; each sorted event is then
    # mapped back to its place 4 i + kind in f's cell-by-cell order, and
    # equal knots are put in the order of their places, as a stable sort of
    # f's own cell-by-cell rows puts them.  So the slope merged at a knot,
    # its running sum and phi are the same sums, in the same order, as a
    # sweep over the knots.  Where a ramp is narrower than its knot's ulp,
    # a - r + W rounds onto a - r (or b + r - W onto b + r) and the ramp has
    # no gap to rise over: its rise w W enters as a jump at the last of the
    # knots equal to the coincident one, so that phi there is the right
    # limit and at the first of them the left limit.
    per_block = max(1, groups.BLOCK_PIECES // (4 * len(cells)))
    lo, hi = f.lo[:, 0], f.hi[:, 0]

    def knot_blocks():  # each block's knot order, runs and gaps, replayed for the next call at these radii
        left, right = lo, hi
        if along is not None:  # laid out in order along the line; place: f's place 4 i + kind of each slot
            left, right, place = lo[along], hi[along], (4 * along[:, None] + np.arange(4)).ravel()
        for b0 in range(0, len(radii), per_block):
            r = np.array(radii[b0 : b0 + per_block])[:, None]
            knots = np.empty((4, len(r), len(cells)))
            start, top, fall, end = knots[0], knots[1], knots[2], knots[3]
            with np.errstate(over="ignore", invalid="ignore"):  # refused below
                width = np.minimum(right - left, r + r)
                np.subtract(left, r, out=start)
                np.add(start, width, out=top)
                np.add(right, r, out=end)
                np.subtract(end, width, out=fall)
                y = knots.transpose(1, 2, 0).reshape(len(r), -1)  # cell by cell along the line
                slot = y.argsort(axis=1, kind="stable")
                y = y.take(slot + np.arange(0, y.size, y.shape[1])[:, None])
                gaps = np.zeros(y.shape)  # from each knot to the next; 0 after a row's last
                np.subtract(y[:, 1:], y[:, :-1], out=gaps[:, :-1])
            if not np.isfinite(gaps).all():
                raise ValueError(RANGE_ERROR)  # a knot, or a gap between knots, past the float range
            head = np.ones(y.shape, dtype=bool)  # the first of each run of equal knots
            np.not_equal(gaps[:, :-1], 0.0, out=head[:, 1:])
            runs = head.cumsum()  # each knot's run, from 1
            order = slot
            if along is not None:  # to f's places, each run of equal knots in their order
                order = place[slot]
                if not head.all():
                    tie = (runs * place.size + order.ravel()).argsort(kind="stable")
                    slot, order = (x.ravel()[tie].reshape(y.shape) for x in (slot, order))
            collapsed = knots[1:3] == knots[::3]  # top == start, fall == end
            jumps = None
            if np.count_nonzero(collapsed):  # the knot of each one's jump, its cell and signed W
                up, down = collapsed
                rises = np.zeros(start.shape + (4,))
                rises[..., 1] = np.where(up, width, 0.0)
                rises[..., 2] = np.where(down, -width, 0.0)
                rises = np.take_along_axis(rises.reshape(len(r), -1), slot, axis=1).ravel()
                at = np.flatnonzero(rises)
                jumps = runs.searchsorted(runs[at], side="right") - 1, order.ravel()[at] // 4, rises[at]
            yield order, head, runs, gaps, jumps

    norms = []
    for order, head, runs, gaps, jumps in _replay("ball", f, (tuple(radii),), knot_blocks):
        if math.isinf(q):
            r = np.array(radii[len(norms) : len(norms) + len(order)])[:, None]
            norms += _sup_norms(order, lo, hi, r, peaks, p, e, scale)
            continue
        # the merged slope of each run of equal knots sits at its head
        merged = np.zeros(gaps.shape)
        merged[head] = np.bincount(runs, weights=dw[order].ravel())[1:]
        slope = merged.cumsum(axis=1)
        rise = np.zeros(gaps.shape)
        np.multiply(slope[:, :-1], gaps[:, :-1], out=rise[:, 1:])
        if jumps is not None:
            at, cell, width = jumps
            np.add.at(rise.reshape(-1), at, w[cell] * width)
        values = rise.cumsum(axis=1)
        np.maximum(values, 0.0, out=values)
        if math.isinf(p):
            norms += _in_range(_scaled(_pow(values.max(axis=1).tolist(), 1.0 / q), e))
            continue
        # a row's last gap is 0, so no segment joins two rows
        try:
            segments, pieces = _segment_integrals(values.ravel(), gaps.ravel(), p / q, scale)
        except OverflowError:  # a knot's phi^s or phi^(s+1) past the float range
            raise ValueError(RANGE_ERROR) from None
        heads = segments.searchsorted(np.arange(0, gaps.size, gaps.shape[1])).tolist()
        pieces = pieces.tolist()
        totals = [sum(pieces[a:b]) for a, b in zip(heads, heads[1:] + [len(pieces)])]
        if _lost_digits(pieces, 1.0, totals, heads):
            raise ValueError(RANGE_ERROR)  # an integral of powers is no power sum
        norms += _scaled(_pow(totals, 1.0 / p), e)
    return norms


def _sup_norms(order, lo, hi, r, peaks, p: float, e: int, scale: float) -> list[float]:
    """The ball norms at q = inf at the radii r of a block of knot orders,
    peaks being the range maxima of the values by 2**-e in order of a.  On
    [y0, y1) between consecutive distinct knots a - r or b + r (kinds 0 and
    3), ||f chi_{yB}||_inf is the largest value of the cells with a - r <=
    y0 and y1 <= b + r.  Disjoint cells in order of a are in order of b
    too, so these are the range [E, S) of that order, where E knots b + r
    and S knots a - r lie at or before y0.  Each row's v^p dy scale are
    summed left to right, the powers by Python's (libm's) pow.  A segment
    wider than the float range, though its knots and their gaps are in it,
    has the width y1 scale - y0 scale and a term of inf, so that
    :func:`_root` sums its row by :func:`_power_sums`."""
    kind = order % 4
    cell, kind = (x[kind % 3 == 0].reshape(len(r), -1) for x in (order // 4, kind))
    y = np.where(kind == 0, lo[cell] - r, hi[cell] + r)  # the sorted knots, as knot_blocks makes them
    with np.errstate(over="ignore"):
        dy = y[:, 1:] - y[:, :-1]
    stop, first = (kind == 0).cumsum(axis=1)[:, :-1], (kind == 3).cumsum(axis=1)[:, :-1]  # S, E
    at = np.flatnonzero((dy > 0.0) & (first < stop))
    dy, stop, first = dy.ravel()[at], stop.ravel()[at], first.ravel()[at]
    level = np.frexp(stop - first)[1] - 1  # floor(log2(S - E))
    values = np.maximum(peaks[level, first], peaks[level, stop - (1 << level)]).tolist()
    powers = _pow(values, p)
    terms = [x * d * scale for x, d in zip(powers, dy.tolist())]
    widths = dy * scale
    far = np.isinf(dy).nonzero()[0]
    if far.size:
        k = at[far]
        widths[far] = y[:, 1:].ravel()[k] * scale - y[:, :-1].ravel()[k] * scale
    widths = widths.tolist()
    rows = at.searchsorted(np.arange(len(y)) * (y.shape[1] - 1)).tolist() + [len(at)]  # each row's first
    return _in_range([_root(sum(terms[a:b]), p, e, values[a:b], widths[a:b], powers[a:b]) for a, b in zip(rows, rows[1:])])


def _in_range(norms: list[float]) -> list[float]:
    """norms, refused where one is past the float range (inf)."""
    if math.inf in norms:
        raise ValueError(RANGE_ERROR)
    return norms


def _segment_integrals(phi: np.ndarray, gaps: np.ndarray, s: float, scale: float) -> tuple[np.ndarray, np.ndarray]:
    """The segments j of positive width gaps[j] on which the linear function
    from phi[j] to phi[j + 1] (both >= 0) is not 0 at both ends, and scale
    times its exact integral of phi^s over each of them.

    With f0, f1 the ends, dy the width and u = (f1 - f0) / f0, the integral
    is f0^s dy where f0 = f1, dy max(f0, f1)^s / (s + 1) where an end is 0,
    dy f0^s (1 + s u / 2 + s (s - 1) u^2 / 6) where |u| < 1e-4 (the closed
    form cancels badly there), and else the closed form dy (f1^(s+1) -
    f0^(s+1)) / ((f1 - f0) (s + 1)), each in this operation order.  The
    powers are taken once per knot that needs them, by Python's (libm's)
    pow: NumPy's SIMD power differs from it in the last bit."""
    f0, f1, dy = phi[:-1], phi[1:], gaps[:-1]
    with np.errstate(all="ignore"):  # lanes of the other cases divide by 0; the scalar form warns of nothing
        zero = np.logical_not(phi)
        z0, z1 = zero[:-1], zero[1:]
        keep = np.greater(dy > 0.0, z0 & z1)  # positive width, not 0 at both ends
        ends = z0 | z1  # on a kept segment: one end 0
        d = f1 - f0
        u = d / f0
        near = np.abs(u) < 1e-4  # false where an end is 0; f0 = f1 gives u = 0
        closed = keep > (ends | near)  # the closed form
        n = phi.size
        need = np.zeros(2 * n, dtype=bool)  # the knots whose phi^s, then phi^(s+1), are used
        np.greater(keep, closed | z0, out=need[: n - 1])  # f0 where f0 = f1, near, or f1 = 0
        need[1:n] |= keep & z0  # f1 where f0 = 0
        need[n:-1] = closed
        need[n + 1 :] |= closed
        at = need.nonzero()[0]
        m, s1 = at.searchsorted(n), s + 1.0
        x = phi.take(at, mode="wrap").tolist()
        powers = np.zeros(2 * n)
        powers[at] = [a**s for a in x[:m]] + [a**s1 for a in x[m:]]
        ps, p1 = powers[:n], powers[n:]
        piece = ps[:-1].copy()  # f0^s, or f1^s where f0 = 0
        np.putmask(piece, z0, ps[1:])
        np.putmask(piece, closed, p1[1:] - p1[:-1])
        piece *= dy
        np.divide(piece, s1, out=piece, where=ends)
        np.divide(piece, d * s1, out=piece, where=closed)
        at = np.logical_and(near, d).nonzero()[0]  # d = 0: the series is 1.0
        if at.size:
            v = u[at]
            piece[at] *= 1.0 + s * v / 2.0 + s * (s - 1.0) * v * v / 6.0
        piece *= scale
        at = keep.nonzero()[0]
        return at, piece[at]


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
    if not points <= groups.MAX_PIECES:
        raise ValueError(
            f"the ball quadrature at r = {r}, mesh = {mesh} needs {points:.4g} y-points, "
            f"more than {groups.MAX_PIECES}"
        )
    step = (hi - lo) / n  # midpoints of n equal steps per axis
    cell = math.prod(step.tolist())
    if not math.isfinite(cell):
        raise ValueError(
            f"the ball quadrature at r = {r}, mesh = {mesh} has y-cells of volume "
            f"{cell:.4g}, past the float range"
        )

    def mesh_rows():  # each cell's (ids, overlap), replayed for the next call at (r, mesh)
        axes = [a + (np.arange(k) + 0.5) * s for a, k, s in zip(lo, n.astype(int), step)]
        # 8 x 8 inner (w1, w2) grid on the Heisenberg group
        return (g.geometry.ball_mesh_rows(axes, r, c.lo, c.hi, 8) for c in f.cells)

    local = np.zeros(int(points))  # one value per y-point, in meshgrid "ij" order
    e = _unit_exponent(f.max_value, q, p)
    vals = [math.ldexp(c.value, -e) for c in f.cells]
    vq = vals if math.isinf(q) else [v**q for v in vals]
    plain = math.isinf(q) or _cells_hold(f, q, vq)
    rows = []  # otherwise each y-point's (value, overlap) terms, for _power_sums
    # the replay comes first in zip, so that it runs to its end and is saved
    for (ids, overlap), v, w in zip(_replay("ball", f, (r, mesh), mesh_rows), vals, vq):
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
        used_mesh = None if exact else _ball_mesh(r, mesh)
        if math.isinf(p) and not exact:
            note = "essential sup over y realized as a mesh max"
    else:
        raise ValueError(f"unknown norm form {form!r}")
    return AmalgamResult(value, form, q, p, r, method, used_mesh, note)
