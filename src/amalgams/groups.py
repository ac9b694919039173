"""Concrete homogeneous groups.

Each instance bundles a group law, a homogeneous (quasi-)norm compatible
with its dilations, and a Haar normalization chosen so that the ball
B(e, r) has measure exactly r**rho, where rho is the homogeneous
dimension (the sum of the dilation exponents).  Three instances ship:

* ``real-line``   -- (R, +), norm |x|, rho = 1.
* ``aniso-plane`` -- (R^2, +) with dilations (r, r^2) and norm
  max(|x1|, |x2|^(1/2)), rho = 3.
* ``heisenberg``  -- R^3 with the step-2 nilpotent law and the gauge
  ((x^2 + y^2)^2 + 16 t^2)^(1/4), rho = 4.

All three norms satisfy the plain triangle inequality (gamma = 1); the
stored gamma is still carried through every constant so that the code
remains correct for gamma > 1 instances.

Each instance's geometry is the one place that knows the group: its law,
norm and Haar scale, and how the scale-r partition cells (see
:mod:`amalgams.partitions`), the balls and the coordinate boxes of
simple functions meet.  :class:`BoxGeometry` serves the abelian
instances, whose balls and cells are coordinate boxes with half-widths
r**a_i; :class:`HeisenbergGeometry` serves the sheared cells of the
Heisenberg group.  Each has one piece generator, ``partition_pieces``:
the pieces of many boxes in the cells of many radii, as arrays (radius,
box, cell index, measure) in blocks of whole radii, after refusing a
radius of more than MAX_PIECES pieces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Iterator

import numpy as np

Point = tuple[float, ...]
Box = tuple[tuple[float, float], ...]
Index = tuple[int, ...]


@dataclass(frozen=True)
class GroupDescriptor:
    """A concrete homogeneous group with normalized Haar measure.

    ``geometry`` is built from ``geometry_type`` and the instance itself,
    and holds the group law, the norm and the Haar scale; ``d``, ``rho``
    and ``measure_scale`` are derived, once per instance.  Instances are
    immutable and all operations are pure.
    """

    name: str
    dilation_exponents: tuple[float, ...]
    gamma: float
    geometry_type: type
    geometry: BoxGeometry | HeisenbergGeometry = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "geometry", self.geometry_type(self))

    @cached_property
    def d(self) -> int:
        return len(self.dilation_exponents)

    @cached_property
    def measure_scale(self) -> float:
        """Multiplies d-dimensional Lebesgue volume, so that
        ``ball_measure(r) == r**rho`` exactly."""
        return self.geometry.measure_scale

    @cached_property
    def rho(self) -> float:
        return float(sum(self.dilation_exponents))

    def identity(self) -> Point:
        return (0.0,) * self.d

    def _check_point(self, x: Point) -> Point:
        if len(x) != self.d:
            raise ValueError(
                f"{self.name}: expected {self.d} coordinates, got {len(x)}"
            )
        if not all(math.isfinite(c) for c in x):
            raise ValueError(f"{self.name}: non-finite coordinate in {x}")
        return tuple(float(c) for c in x)

    def compose(self, x: Point, y: Point) -> Point:
        return self.geometry.compose(self._check_point(x), self._check_point(y))

    def invert(self, x: Point) -> Point:
        return self.geometry.invert(self._check_point(x))

    def hom_norm(self, x: Point) -> float:
        return self.geometry.norm(self._check_point(x))

    def dilate(self, r: float, x: Point) -> Point:
        if r <= 0:
            raise ValueError("dilation parameter must be positive")
        x = self._check_point(x)
        return tuple(c * r**a for c, a in zip(x, self.dilation_exponents))

    def ball_measure(self, r: float) -> float:
        """Haar measure of B(e, r); equals r**rho by normalization."""
        if r <= 0:
            raise ValueError("ball radius must be positive")
        return float(r) ** self.rho

    def box_measure(self, lo: Iterable[float], hi: Iterable[float]) -> float:
        """Haar measure of the half-open coordinate box [lo, hi)."""
        vol = 1.0
        for a, b in zip(lo, hi):
            vol *= max(0.0, b - a)
        return self.measure_scale * vol


# Pieces (or events) a batched evaluation over many radii holds in memory at
# once; a block always has at least one radius, so one radius may exceed it.
BLOCK_PIECES = 1 << 12
# Most pieces one radius may cut boxes into, far below where an int64 count
# wraps; past it a radius would need gigabytes.
MAX_PIECES = 1 << 24


# Most cells a partition window may hold: below it every count is an exact
# float, and the cells can be sampled by index arithmetic.
MAX_CELLS = 1 << 53


def _radius_blocks(per_radius: np.ndarray) -> list[tuple[int, int]]:
    """Runs [a, b) of whole radii of about BLOCK_PIECES pieces each, from the
    pieces (or a bound of them) of each radius."""
    per_radius = per_radius.tolist()
    if sum(per_radius) <= BLOCK_PIECES:
        return [(0, len(per_radius))]
    cuts, total = [0], 0.0
    for j, m in enumerate(per_radius):
        if j > cuts[-1] and total + m > BLOCK_PIECES:
            cuts.append(j)
            total = 0.0
        total += m
    cuts.append(len(per_radius))
    return list(zip(cuts[:-1], cuts[1:]))


def _axis_range(lo: float, hi: float, step: float) -> range:
    """Lattice indices k whose cell [k*step, (k+1)*step) meets [lo, hi), at
    least one: hi / step may round, or underflow, onto lo / step."""
    k_min = math.floor(lo / step)
    return range(k_min, max(math.ceil(hi / step), k_min + 1))


def _box_cells(lo, hi, steps) -> int:
    """Lattice cells meeting the box [lo, hi)."""
    return math.prod(len(_axis_range(a, b, s)) for a, b, s in zip(lo, hi, steps))


def _lattice_counts(lo, hi, steps) -> tuple[np.ndarray, np.ndarray]:
    """First index and length of _axis_range(lo, hi, step), elementwise, as
    floats: products of the lengths cannot wrap around there."""
    k_min = np.floor(lo / steps)
    return k_min, np.maximum(np.ceil(hi / steps) - k_min, 1.0)


def check_pieces(steps, pieces: float) -> None:
    """Refuse the lattice of the given steps if it cuts boxes into more than
    MAX_PIECES pieces; ``pieces`` is their count or an upper bound of it."""
    if not pieces <= MAX_PIECES:
        raise ValueError(
            f"lattice step {tuple(steps)} cuts the boxes into "
            f"{pieces:.4g} pieces, more than {MAX_PIECES}"
        )


def _check_cells(count: float) -> None:
    if not count <= MAX_CELLS:
        raise ValueError(f"the window holds {count:.4g} cells, more than 2**53")


class BoxGeometry:
    """Abelian instances: (R^d, +) with the norm max_i |x_i|^(1/a_i), so
    balls and cells are coordinate boxes with half-widths r**a_i and every
    overlap factors over the axes."""

    def __init__(self, g: GroupDescriptor):
        self.g = g
        # B(e, 1) is the box (-1, 1)^d of volume 2^d
        self.measure_scale = 0.5**g.d

    def compose(self, x: Point, y: Point) -> Point:
        return tuple(a + b for a, b in zip(x, y))

    def invert(self, x: Point) -> Point:
        return tuple(-a for a in x)

    def norm(self, x: Point) -> float:
        return max(abs(c) ** (1.0 / a) for c, a in zip(x, self.g.dilation_exponents))

    def cell_half_extents(self, u) -> tuple:
        """Half-widths u**a_i of the cells at U-radius u, and of B(e, u); one
        array per axis for an array of u.  The powers stay Python's (libm's):
        NumPy's may differ in the last bit."""
        if isinstance(u, np.ndarray):
            return tuple([np.array([x**a for x in u.tolist()]) for a in self.g.dilation_exponents])
        return tuple([u**a for a in self.g.dilation_exponents])

    def locate(self, steps, xs: np.ndarray) -> np.ndarray:
        """Cell indices, shape (n, d), of the points xs of shape (n, d)."""
        return np.floor(xs / np.asarray(steps)).astype(np.int64)

    def window_count(self, part) -> int:
        """Cells of the partition meeting its window."""
        count = _box_cells(*zip(*part.window), part.steps)
        _check_cells(count)
        return count

    def window_cells(self, part, positions) -> list[Index]:
        """The window's cells at the given positions of their
        itertools.product order over the axes (last axis fastest)."""
        ranges = [_axis_range(lo, hi, s) for (lo, hi), s in zip(part.window, part.steps)]
        cells = []
        for pos in positions:
            idx = []
            for axis in reversed(ranges):
                pos, k = divmod(pos, len(axis))
                idx.append(axis[k])
            cells.append(tuple(reversed(idx)))
        return cells

    def partition_pieces(
        self, steps: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """The pieces of positive measure into which the lattice of every
        row of steps (shape (R, d)) cuts the boxes lo, hi (shape (n, d)),
        as arrays (radius row, box, cell index (m, d), Haar measure).

        A piece's measure is the product of its per-axis overlaps
        max(0, min((k + 1) s, hi) - max(k s, lo)).  Pieces come in
        (radius, box, itertools.product) order, in blocks of whole radii
        of about BLOCK_PIECES pieces.  A radius of more than MAX_PIECES
        pieces, counted exactly from the index ranges, is a ValueError,
        raised before any of its pieces is made.
        """
        n, d = lo.shape
        per_block = max(1, BLOCK_PIECES // n)
        for b0 in range(0, len(steps), per_block):
            s = steps[b0 : b0 + per_block, None, :]
            k_min, counts = _lattice_counts(lo, hi, s)  # per (radius, box, axis)
            pieces = counts.prod(axis=2)
            per_radius = pieces.sum(axis=1)
            if not np.all(per_radius <= MAX_PIECES):
                j = int(np.argmin(per_radius <= MAX_PIECES))
                check_pieces(s[j, 0].tolist(), per_radius[j])
            counts, pieces = counts.astype(np.int64), pieces.astype(np.int64)
            for a, b in _radius_blocks(per_radius):
                yield self._pieces(b0 + a, steps, lo, hi, k_min[a:b], counts[a:b], pieces[a:b])

    def _pieces(self, r0, steps, lo, hi, k_min, counts, pieces):
        n, d = lo.shape
        cnt = pieces.ravel()
        pair = np.repeat(np.arange(cnt.size), cnt)
        # position of each piece within its (radius, box) product, split
        # into per-axis offsets with the last axis varying fastest
        off = np.arange(pair.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        k_min, counts = k_min.reshape(-1, d)[pair], counts.reshape(-1, d)[pair]
        idx = np.empty((pair.size, d))
        for ax in reversed(range(d)):
            idx[:, ax] = k_min[:, ax] + off % counts[:, ax]
            off //= counts[:, ax]
        radius, box = r0 + pair // n, pair % n
        s = steps[radius]
        overlap = np.maximum(
            0.0, np.minimum((idx + 1.0) * s, hi[box]) - np.maximum(idx * s, lo[box])
        )
        vol = overlap[:, 0]
        for ax in range(1, d):
            vol = vol * overlap[:, ax]
        keep = vol > 0.0
        return radius[keep], box[keep], idx[keep], self.measure_scale * vol[keep]

    def translate_box(self, a, r: float) -> np.ndarray:
        """Coordinate box containing a.B(e, r), as (lo, hi) per axis; here it
        is the ball itself.  a is one point, or an (n, d) array of them
        with one box each, of shape (n, d, 2)."""
        w = np.array(self.cell_half_extents(r))
        a = np.asarray(a, dtype=float)
        return np.stack([a - w, a + w], axis=-1)

    def count_hits(self, part, centres: np.ndarray, r: float, boxes: np.ndarray) -> np.ndarray:
        """Cells meeting each ball centres[n].B(e, r), whose box is boxes[n]."""
        _, counts = _lattice_counts(boxes[..., 0], boxes[..., 1], np.asarray(part.steps))
        return counts.prod(axis=1).astype(np.int64)

    def ball_box_measure(self, ys: np.ndarray, r, lo, hi, nw: int) -> np.ndarray:
        """Exact Haar measure of (y.B(e, r)) ^ [lo, hi) for each row y of ys;
        lo and hi are one box, or arrays of shape (n, d) with one box per row.
        For an array of radii, one row of measures per radius, shape
        (len(r), len(ys)), each row bit for bit that of its radius alone."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        vol = self.measure_scale
        for ax, w in enumerate(self.cell_half_extents(r)):
            y = ys[:, ax]
            if isinstance(w, np.ndarray):
                w = w[:, None]
            vol = vol * np.clip(
                np.minimum(hi[..., ax], y + w) - np.maximum(lo[..., ax], y - w), 0.0, None
            )
        return vol

    def ball_mesh_rows(self, axes, r: float, lo, hi, nw: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`ball_box_measure` of the box [lo, hi) on the y-mesh with the
        given axes, in ``indexing="ij"`` order, as the flat ids and values
        of the rows whose overlap is positive on every axis: the outer
        product of the per-axis overlaps, multiplied in the same order."""
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        ids, vol = np.zeros((), dtype=np.int64), np.asarray(self.measure_scale)
        for y, w, a, b in zip(axes, self.cell_half_extents(r), lo, hi):
            overlap = np.clip(np.minimum(b, y + w) - np.maximum(a, y - w), 0.0, None)
            nz = np.flatnonzero(overlap > 0.0)
            ids = ids[..., None] * len(y) + nz
            vol = vol[..., None] * overlap[nz]
        return ids.ravel(), vol.ravel()

    def quadrature_axes(self, bb: Box, r: float, mesh: float) -> list[tuple[float, float, float]]:
        """(lo, hi, step) per axis of the y-box outside which y.B(e, r)
        misses the box bb; steps scale with the axis' dilation."""
        return [
            (lo - w, hi + w, mesh * r ** (a - 1.0))
            for (lo, hi), w, a in zip(bb, self.cell_half_extents(r), self.g.dilation_exponents)
        ]


class HeisenbergGeometry:
    """The step-2 law and its gauge, sheared cells z.Q (see
    :mod:`amalgams.partitions`), quadrature ball overlaps."""

    # B(e,1) has volume pi^2/8 under this gauge.
    measure_scale = 8.0 / math.pi**2

    def __init__(self, g: GroupDescriptor):
        self.g = g

    def compose(self, x: Point, y: Point) -> Point:
        return (
            x[0] + y[0],
            x[1] + y[1],
            x[2] + y[2] + 0.5 * (x[0] * y[1] - x[1] * y[0]),
        )

    def invert(self, x: Point) -> Point:
        return (-x[0], -x[1], -x[2])

    def norm(self, x: Point) -> float:
        # evaluate on delta_{1/m}(x) and scale back, so that squaring neither
        # underflows nor overflows; t is divided by m twice since m*m can underflow
        m = max(abs(x[0]), abs(x[1]), math.sqrt(abs(x[2])))
        if m == 0.0:
            return 0.0
        a, b, t = x[0] / m, x[1] / m, x[2] / m / m
        return m * ((a**2 + b**2) ** 2 + 16.0 * t**2) ** 0.25

    def cell_half_extents(self, u) -> tuple:
        """As for boxes; u may be a float or an array."""
        return (u, u, u * u / 4.0)

    def locate(self, steps, xs: np.ndarray) -> np.ndarray:
        """Cell indices, shape (n, 3), of the points xs of shape (n, 3)."""
        s1, s2, s3 = steps
        i = np.floor(xs[:, 0] / s1)
        j = np.floor(xs[:, 1] / s2)
        z1 = (i + 0.5) * s1
        z2 = (j + 0.5) * s2
        shear = 0.5 * (z1 * (xs[:, 1] - z2) - z2 * (xs[:, 0] - z1))
        k = np.floor((xs[:, 2] - shear) / s3)
        return np.stack([i, j, k], axis=1).astype(np.int64)

    def _window_columns(self, part, i: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """First t-index and cell count of each window column (i, j), for the
        x-indices i (as floats) and every y-index j in the window, shape
        (len(i), n_j); the window's cells are the (i, j, k) in that order."""
        w, steps = part.window, part.steps
        u = part.half_extents[0]
        js = _axis_range(w[1][0], w[1][1], steps[1])
        z1 = (i[:, None] + 0.5) * steps[0]
        z2 = (np.arange(js.start, js.stop, dtype=float) + 0.5) * steps[1]
        # t-index range of the cells of column (i, j) meeting the window
        smax = 0.5 * (np.abs(z1) + np.abs(z2)) * u
        k_min = np.floor((w[2][0] - smax) / steps[2])
        return k_min, np.ceil((w[2][1] + smax) / steps[2]) - k_min

    def _window_rows(self, part) -> tuple[range, np.ndarray]:
        """The window's x-indices and the cell count of each, in blocks of
        about 2**16 columns; every count below MAX_CELLS is an exact float."""
        w, steps = part.window, part.steps
        i_axis = _axis_range(w[0][0], w[0][1], steps[0])
        nj = len(_axis_range(w[1][0], w[1][1], steps[1]))
        if len(i_axis) * nj > MAX_PIECES:
            raise ValueError(
                f"the window has {len(i_axis) * nj} cell columns, more than {MAX_PIECES}"
            )
        i = np.arange(i_axis.start, i_axis.stop, dtype=float)
        per_block = max(1, (1 << 16) // nj)
        rows = np.concatenate([
            self._window_columns(part, i[b : b + per_block])[1].sum(axis=1)
            for b in range(0, len(i), per_block)
        ])
        _check_cells(rows.sum())
        return i_axis, rows

    def window_count(self, part) -> int:
        return int(self._window_rows(part)[1].sum())

    def window_cells(self, part, positions) -> list[Index]:
        i_axis, rows = self._window_rows(part)
        js = _axis_range(part.window[1][0], part.window[1][1], part.steps[1])
        ends = np.cumsum(rows)
        pos = np.asarray(positions, dtype=float)  # exact below MAX_CELLS
        row = np.searchsorted(ends, pos, side="right")
        cells: list[Index] = [()] * len(pos)
        for r in np.unique(row).tolist():
            at = np.flatnonzero(row == r)
            k_min, counts = self._window_columns(part, np.array([float(i_axis[r])]))
            col_ends = np.cumsum(counts[0])
            off = pos[at] - (ends[r] - rows[r])
            col = np.searchsorted(col_ends, off, side="right")
            k = k_min[0, col] + off - (col_ends[col] - counts[0, col])
            for n, c, kk in zip(at.tolist(), col.tolist(), k.tolist()):
                cells[n] = (i_axis[r], js[c], int(kk))
        return cells

    def piece_bound(self, steps, lo: np.ndarray, hi: np.ndarray) -> float | np.ndarray:
        """At least the slabs :meth:`partition_pieces` makes for the boxes lo, hi
        (shape (n, 3)): per box, the columns meeting it times a k-range
        widened by the largest shear over those columns.  One float for one
        steps triple, one per row for steps of shape (R, 3)."""
        s = np.asarray(steps, dtype=float)[..., None, :]
        s1, s2, s3 = s[..., 0], s[..., 1], s[..., 2]
        u, h3 = s1 / 2.0, s3 / 2.0
        _, counts = _lattice_counts(lo[:, :2], hi[:, :2], s[..., :2])
        # a column meeting the box has |z_i| < max(|lo_i|, |hi_i|) + s_i / 2,
        # and its shear spans at most (|z1| + |z2|) u in t
        m1 = np.maximum(np.abs(lo[:, 0]), np.abs(hi[:, 0]))
        m2 = np.maximum(np.abs(lo[:, 1]), np.abs(hi[:, 1]))
        reach = (m1 + s1 + m2 + s2) * u
        columns = counts[..., 0] * counts[..., 1]
        return (columns * ((hi[:, 2] - lo[:, 2] + 2.0 * h3 + reach) / s3 + 3.0)).sum(axis=-1)

    def partition_pieces(
        self, steps: np.ndarray, lo: np.ndarray, hi: np.ndarray
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
        """As for boxes: the sheared slabs of positive measure, in (radius, box,
        i, j, k) order, in blocks of whole radii of about BLOCK_PIECES slabs
        by :meth:`piece_bound`.  A radius whose bound passes MAX_PIECES is a
        ValueError, raised before any slab is made."""
        bound = self.piece_bound(steps, lo, hi)
        if not np.all(bound <= MAX_PIECES):
            j = int(np.argmin(bound <= MAX_PIECES))
            check_pieces(steps[j].tolist(), bound[j])
        for a, b in _radius_blocks(bound):
            yield self._slabs(a, steps[a:b], lo, hi)

    def _slabs(self, r0: int, steps: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> tuple:
        """The slabs of radii r0, r0 + 1, ... (one row of steps each): every
        (radius, box) pair's (i, j) columns with a nonempty footprint, each
        expanded over its k-range, measured in chunks of BLOCK_PIECES slabs."""
        n = len(lo)
        k_min, counts = _lattice_counts(lo[:, :2], hi[:, :2], steps[:, None, :2])
        ni, nj = counts.reshape(-1, 2).astype(np.int64).T
        cnt = ni * nj
        pair = np.repeat(np.arange(cnt.size), cnt)
        # position of each column within its (radius, box) pair, j fastest
        off = np.arange(pair.size) - np.repeat(np.cumsum(cnt) - cnt, cnt)
        i = k_min.reshape(-1, 2)[pair, 0] + off // nj[pair]
        j = k_min.reshape(-1, 2)[pair, 1] + off % nj[pair]
        radius, box = r0 + pair // n, pair % n
        s1, s2, s3 = steps[radius - r0].T
        u, h3 = s1 / 2.0, s3 / 2.0  # the cells' half-extents, exactly
        z1 = (i + 0.5) * s1
        z2 = (j + 0.5) * s2
        blo, bhi = lo[box], hi[box]
        w1lo = np.maximum(-u, blo[:, 0] - z1)
        w1hi = np.minimum(u, bhi[:, 0] - z1)
        w2lo = np.maximum(-u, blo[:, 1] - z2)
        w2hi = np.minimum(u, bhi[:, 1] - z2)
        # shear offset s(w) = a*w1 + b*w2 over the footprint, with a*w1 in
        # [a1, a2] and b*w2 in [b1, b2]; a, b != 0 off the axes
        a, b = -z2 / 2.0, z1 / 2.0
        aw, bw = (a * w1lo, a * w1hi), (b * w2lo, b * w2hi)
        a1, a2, b1, b2 = np.minimum(*aw), np.maximum(*aw), np.minimum(*bw), np.maximum(*bw)
        k0 = np.floor((blo[:, 2] - (a2 + b2) - h3) / s3 - 0.5)
        k1 = np.ceil((bhi[:, 2] - (a1 + b1) + h3) / s3 - 0.5)
        nk = np.where((w1lo < w1hi) & (w2lo < w2hi), k1 - k0 + 1.0, 0.0).astype(np.int64)
        col = np.repeat(np.arange(len(nk)), nk)
        k = k0[col] + (np.arange(col.size) - np.repeat(np.cumsum(nk) - nk, nk))
        factor = self.measure_scale / np.abs(a * b)
        per = (a1, a2, b1, b2, h3, s3, blo[:, 2], bhi[:, 2], factor)
        ms = np.empty(col.size)
        for c in range(0, col.size, BLOCK_PIECES):
            rows = col[c : c + BLOCK_PIECES]
            ms[c : c + BLOCK_PIECES] = _slab_measures(k[c : c + BLOCK_PIECES], *(x[rows] for x in per))
        keep = ms > 0.0
        col = col[keep]
        idx = np.column_stack([i[col], j[col], k[keep]]).astype(np.int64)
        return radius[col], box[col], idx, ms[keep]

    def translate_box(self, a, r: float) -> np.ndarray:
        """As for boxes; the t-extent grows with the shear at a."""
        a = np.asarray(a, dtype=float)
        x, y, t = a[..., 0], a[..., 1], a[..., 2]
        shear = 0.5 * (np.abs(x) + np.abs(y)) * r
        h = r * r / 4.0 + shear
        lo = np.stack([x - r, y - r, t - h], axis=-1)
        return np.stack([lo, np.stack([x + r, y + r, t + h], axis=-1)], axis=-1)

    def count_hits(self, part, centres: np.ndarray, r: float, boxes: np.ndarray) -> np.ndarray:
        """Distinct cells holding the points of a 14^3 grid of ball points
        translated by each centre; one ball grid serves every centre."""
        n = 14
        hs = np.linspace(-r, r, n)
        ts = np.linspace(-r * r / 4.0, r * r / 4.0, n)
        W1, W2, W3 = np.meshgrid(hs, hs, ts, indexing="ij")
        w = np.stack([W1.ravel(), W2.ravel(), W3.ravel()], axis=1)
        w = w[((w[:, 0] ** 2 + w[:, 1] ** 2) ** 2 + 16.0 * w[:, 2] ** 2) ** 0.25 < r]
        counts = np.zeros(len(centres), dtype=np.int64)
        if not len(w):
            return counts
        # blocks of 16 centres keep the (16, len(w), 3) temporaries small
        for b in range(0, len(centres), 16):
            a = centres[b : b + 16, None, :]
            ys = np.empty((len(a), len(w), 3))
            ys[..., 0] = a[..., 0] + w[:, 0]
            ys[..., 1] = a[..., 1] + w[:, 1]
            ys[..., 2] = a[..., 2] + w[:, 2] + 0.5 * (a[..., 0] * w[:, 1] - a[..., 1] * w[:, 0])
            idx = self.locate(part.steps, ys.reshape(-1, 3)).reshape(ys.shape)
            counts[b : b + 16] = _distinct_rows(idx)
        return counts

    def ball_box_measure(self, ys: np.ndarray, r, lo, hi, nw: int) -> np.ndarray:
        """Haar measure of (y.B(e, r)) ^ [lo, hi) for each row y of ys.

        lo and hi are one box, or arrays of shape (n, 3) with one box per
        row.  Exact in t; the (w1, w2) midpoint grid of nw x nw points spans
        the intersection of the box footprint with the ball footprint, so
        small boxes inside large balls stay resolved.  A row whose footprint
        is empty, or whose t-range misses the reach of |w3| + |sigma| over
        the footprint, is 0 without the grid.  For an array of radii, one
        row of measures per radius, shape (len(r), len(ys)), from one
        kernel call per radius.

        Each kept row is a column of one row of :meth:`_column_sums`; a
        value comes from the same operations in a longer column, so this
        gives the bits of :meth:`ball_mesh_rows`.
        """
        if isinstance(r, np.ndarray):
            rows = [self.ball_box_measure(ys, x, lo, hi, nw) for x in r.tolist()]
            return np.array(rows).reshape(len(r), len(ys))
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        w1lo = np.maximum(lo[..., 0] - ys[:, 0], -r)
        w1hi = np.minimum(hi[..., 0] - ys[:, 0], r)
        w2lo = np.maximum(lo[..., 1] - ys[:, 1], -r)
        w2hi = np.minimum(hi[..., 1] - ys[:, 1], r)
        t_lo = lo[..., 2] - ys[:, 2]
        t_hi = hi[..., 2] - ys[:, 2]
        reach = _shear_reach(r, ys[:, 0], ys[:, 1], w1lo, w1hi, w2lo, w2hi)
        k = np.flatnonzero(  # the kept rows
            (w1lo < w1hi) & (w2lo < w2hi) & (t_hi + reach > 0.0) & (t_lo - reach < 0.0)
        )
        columns = (ys[k, 0], ys[k, 1], w1lo[k], w1hi[k], w2lo[k], w2hi[k], reach[k])
        t_lo, t_hi = t_lo[k], t_hi[k]
        out = np.zeros(len(ys))
        out[k] = self._column_sums(  # one row per column
            r, nw, columns, lambda c, low, high, m: (np.arange(len(low)), t_lo[c], t_hi[c])
        )
        return out

    def ball_mesh_rows(self, axes, r: float, lo, hi, nw: int) -> tuple[np.ndarray, np.ndarray]:
        """:meth:`ball_box_measure` of the box [lo, hi) on the y-mesh with the
        given axes, in ``indexing="ij"`` order, as the flat ids and values
        of the rows it keeps; every other row is 0.

        The footprint and the reach are worked out once per (y1, y2) column,
        with the row kernel's expressions, and so are the grid and the
        t-reach [low, high] of :meth:`_column_sums`.  Along a column, t_lo
        and t_hi fall as y3 rises, so ``searchsorted`` finds the run of y3
        with t_lo < high + 2m and t_hi > low - 2m; it holds every row that
        the kernel's own tests t_hi + m > low, t_lo - m < high keep, as m
        passes the rounding of those sums many times over."""
        y1, y2, y3 = axes
        lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
        w1lo, w1hi = np.maximum(lo[0] - y1, -r), np.minimum(hi[0] - y1, r)
        w2lo, w2hi = np.maximum(lo[1] - y2, -r), np.minimum(hi[1] - y2, r)
        i1, i2 = np.flatnonzero(w1lo < w1hi), np.flatnonzero(w2lo < w2hi)
        c1, c2 = np.repeat(i1, len(i2)), np.tile(i2, len(i1))
        columns = (y1[c1], y2[c2], w1lo[c1], w1hi[c1], w2lo[c2], w2hi[c2])
        t_lo, t_hi = lo[2] - y3, hi[2] - y3
        ids = [np.zeros(0, dtype=np.int64)]

        def rows_of(c, low, high, m):
            first = np.searchsorted(-t_lo, -(high + 2.0 * m), side="right")
            count = np.maximum(np.searchsorted(-t_hi, 2.0 * m - low, side="left") - first, 0)
            j = np.repeat(np.arange(len(count)), count)
            k = first[j] + np.arange(len(j)) - np.repeat(np.cumsum(count) - count, count)
            ids.append((c1[c][j] * len(y2) + c2[c][j]) * len(y3) + k)
            return j, t_lo[k], t_hi[k]

        values = self._column_sums(r, nw, (*columns, _shear_reach(r, *columns)), rows_of)
        return np.concatenate(ids), values

    def _column_sums(self, r: float, nw: int, columns, rows_of) -> np.ndarray:
        """The ball-box measures of the rows of the columns (y1, y2, w1lo,
        w1hi, w2lo, w2hi, reach), taken in blocks of 128 columns: for the
        block of columns c (a slice), ``rows_of(c, low, high, m)`` gives its
        rows as (column j within the block, sorted; t_lo; t_hi).

        Shared per column, and computed once for it: the grid W1, W2, the
        ball section csec over it, the shear sigma, the area factor, and the
        column's t-reach from low = min(sigma - csec) to high = max(sigma +
        csec), with the margin m = 1e-9 reach + tiny.  A row whose t-range
        ends at or below low, or starts at or above high, is 0: there top <=
        bot at every point.  A row whose t-range holds [low, high] gets the
        column's full-section sum: there top == csec and bot == -csec at
        every point.  The margin of both tests covers the rounding of t -
        sigma, as |sigma| + csec <= reach.  The other rows clip the sections
        to their t-range and sum over the grid, in blocks of 128 rows whose
        buffers are reused.
        """
        y1, y2, w1lo, w1hi, w2lo, w2hi, reach = columns
        outs = [np.zeros(0)]
        offs = (np.arange(nw) + 0.5) / nw
        top, bot, buf = np.empty((3, 128, nw, nw))
        for cb in range(0, len(y1), 128):
            c = slice(cb, cb + 128)
            L1, L2 = w1hi[c] - w1lo[c], w2hi[c] - w2lo[c]
            W1 = w1lo[c][:, None] + L1[:, None] * offs[None, :]  # (ncol, nw)
            W2 = w2lo[c][:, None] + L2[:, None] * offs[None, :]
            s = W1[:, :, None] ** 2 + W2[:, None, :] ** 2
            csec = np.where(s < r * r, 0.25 * np.sqrt(np.maximum(r**4 - s**2, 0.0)), 0.0)
            sigma = 0.5 * (y1[c, None, None] * W2[:, None, :] - y2[c, None, None] * W1[:, :, None])
            scale = self.measure_scale * (L1 * L2 / (nw * nw))
            low = (sigma - csec).min(axis=(1, 2))
            high = (sigma + csec).max(axis=(1, 2))
            full = scale * (2.0 * csec).sum(axis=(1, 2))  # top - bot = csec - -csec
            m = 1e-9 * reach[c] + np.finfo(float).tiny
            j, tl, th = rows_of(c, low, high, m)
            mj, lj, hj = m[j], low[j], high[j]
            out = np.zeros(len(j))
            whole = (th - mj >= hj) & (tl + mj <= lj)
            out[whole] = full[j[whole]]
            rows = np.flatnonzero(~whole & (th + mj > lj) & (tl - mj < hj))
            for b in range(0, len(rows), 128):
                k = rows[b : b + 128]
                n, jk = len(k), j[k]
                tp, bt, g = top[:n], bot[:n], buf[:n]
                np.take(sigma, jk, axis=0, out=g)
                np.subtract(th[k][:, None, None], g, out=tp)
                np.subtract(tl[k][:, None, None], g, out=bt)
                np.minimum(tp, np.take(csec, jk, axis=0, out=g), out=tp)
                np.maximum(bt, np.negative(g, out=g), out=bt)
                np.subtract(tp, bt, out=tp)
                np.maximum(tp, 0.0, out=tp)
                out[k] = scale[jk] * tp.sum(axis=(1, 2))
            outs.append(out)
        return np.concatenate(outs)

    def quadrature_axes(self, bb: Box, r: float, mesh: float) -> list[tuple[float, float, float]]:
        """As for boxes; the shear pads t, whose step follows the t-extent r^2/4."""
        m1 = max(abs(bb[0][0]), abs(bb[0][1])) + r
        m2 = max(abs(bb[1][0]), abs(bb[1][1])) + r
        t_pad = r * r / 4.0 + 0.5 * r * (m1 + m2) + 1e-9
        return [
            (bb[0][0] - r, bb[0][1] + r, mesh),
            (bb[1][0] - r, bb[1][1] + r, mesh),
            (bb[2][0] - t_pad, bb[2][1] + t_pad, mesh * r / 4.0),
        ]


def _shear_reach(r, y1, y2, w1lo, w1hi, w2lo, w2hi):
    """A bound on |w3| + |sigma| over the footprint [w1lo, w1hi) x [w2lo,
    w2hi) of the ball y.B(e, r); the slack covers rounding, so every row
    it skips has a grid sum of exactly 0."""
    return 1.001 * (r * r / 4.0 + 0.5 * (
        np.abs(y1) * np.maximum(np.abs(w2lo), np.abs(w2hi))
        + np.abs(y2) * np.maximum(np.abs(w1lo), np.abs(w1hi))
    ))


def _slab_measures(k, a1, a2, b1, b2, h3, s3, lo3, hi3, factor) -> np.ndarray:
    """Haar measure of each slab k of its column, whose shear a*w1 + b*w2
    has a*w1 in [a1, a2] and b*w2 in [b1, b2], cut from the box's t-range
    [lo3, hi3); factor is the Haar scale over |a b|.

    Slab k is the integral over s of the shear density |a b|^-1 *
    len([a1, a2] ^ [s - b2, s - b1]) times len([-h3, h3) ^ [A - s, B - s));
    the product is quadratic between the merged knots, where Simpson's
    rule is exact."""
    a1, a2, b1, b2, h3 = (x[:, None] for x in (a1, a2, b1, b2, h3))
    z3 = (k + 0.5) * s3
    A, B = (lo3 - z3)[:, None], (hi3 - z3)[:, None]
    corners = np.hstack([a1 + b1, a1 + b2, a2 + b1, a2 + b2])
    knots = np.sort(np.hstack([A - h3, A + h3, B - h3, B + h3, corners]), axis=1)
    x = np.clip(knots, np.maximum(A - h3, a1 + b1), np.minimum(B + h3, a2 + b2))
    x0, x1 = x[:, :-1], x[:, 1:]
    s = np.stack([x0, 0.5 * (x0 + x1), x1])  # (3, rows, 7)
    fs = _overlap(a1, a2, s - b2, s - b1) * _overlap(-h3, h3, A - s, B - s)
    return ((x1 - x0) * (fs[0] + 4.0 * fs[1] + fs[2]) / 6.0).sum(axis=1) * factor


def _distinct_rows(idx: np.ndarray) -> np.ndarray:
    """Distinct index triples idx[n, :] per n, for idx of shape (N, m, 3).

    Each triple is encoded as one int64 in mixed radix over its offsets
    from the minimum of its row n; the sorted codes of a row change once
    per new triple.  Where the radix would pass the int64 range, each axis
    is first replaced by its ranks among the block's values."""
    rel = idx - idx.min(axis=1, keepdims=True)
    span = rel.max(axis=(0, 1)) + 1
    if math.prod(span.tolist()) >= 1 << 63:
        rel = np.stack(
            [np.unique(rel[..., a], return_inverse=True)[1].reshape(rel.shape[:2]) for a in range(3)],
            axis=-1,
        )
        span = rel.max(axis=(0, 1)) + 1
    key = (rel[..., 0] * span[1] + rel[..., 1]) * span[2] + rel[..., 2]
    key.sort(axis=1)
    return 1 + np.count_nonzero(key[:, 1:] != key[:, :-1], axis=1)


def _overlap(lo1, hi1, lo2, hi2):
    """Length of [lo1, hi1] ^ [lo2, hi2], elementwise."""
    return np.maximum(np.minimum(hi1, hi2) - np.maximum(lo1, lo2), 0.0)


REAL_LINE = GroupDescriptor(
    name="real-line",
    dilation_exponents=(1.0,),
    gamma=1.0,
    geometry_type=BoxGeometry,
)

ANISO_PLANE = GroupDescriptor(
    name="aniso-plane",
    dilation_exponents=(1.0, 2.0),
    # Subadditivity of max(|.|, sqrt|.|) gives gamma = 1; confirmed by
    # the sampled estimate in the test suite.
    gamma=1.0,
    geometry_type=BoxGeometry,
)

HEISENBERG = GroupDescriptor(
    name="heisenberg",
    dilation_exponents=(1.0, 1.0, 2.0),
    gamma=1.0,
    geometry_type=HeisenbergGeometry,
)

GROUPS: dict[str, GroupDescriptor] = {
    g.name: g for g in (REAL_LINE, ANISO_PLANE, HEISENBERG)
}


def get_group(name: str) -> GroupDescriptor:
    try:
        return GROUPS[name]
    except KeyError:
        raise ValueError(
            f"unknown group {name!r}; choose from {sorted(GROUPS)}"
        ) from None


def sample_points(g: GroupDescriptor, n: int, extent: float, seed: int) -> np.ndarray:
    """Deterministic batch of points in [-extent, extent]^d, shape (n, d)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-extent, extent, size=(n, g.d))


def estimate_gamma(g: GroupDescriptor, n_pairs: int = 10_000) -> float:
    """Sampled sup of |xy| / (|x| + |y|) over n_pairs seeded pairs; a lower
    estimate of gamma."""
    xs = sample_points(g, n_pairs, 5.0, 7)
    ys = sample_points(g, n_pairs, 5.0, 8)
    worst = 0.0
    for x, y in zip(xs, ys):
        xt, yt = tuple(x), tuple(y)
        denom = g.hom_norm(xt) + g.hom_norm(yt)
        if denom > 0:
            worst = max(worst, g.hom_norm(g.compose(xt, yt)) / denom)
    return worst

