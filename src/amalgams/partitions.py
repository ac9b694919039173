"""Uniform partitions at scale r and the translate-counting bound.

A partition at scale r uses U = B(e, r / (4 gamma^2)).  Cells sandwich a
left translate of U inside themselves and sit inside the same translate
of V = U.U, with the base point x_E at the cell's "center":

* real-line:   half-open intervals of Euclidean length r/2 centered on
  the lattice (r/2) Z.
* aniso-plane: coordinate boxes with per-axis half-extents (u, u^2)
  matching the dilation structure (the metric ball is itself a box).
* heisenberg:  left translates z.Q of the fixed box
  Q = [-u, u)^2 x [-u^2/4, u^2/4) by the lattice
  z = (2u i, 2u j, (u^2/2) k).  These sheared boxes tile R^3: the
  (x, y) footprints tile the plane, and within each footprint column
  the t-sections are consecutive intervals of height u^2/2.  The
  sandwich holds because U sits inside Q coordinatewise while any w in
  Q splits as w = a.a with a = (w1/2, w2/2, w3/2) of norm at most
  (max_Q (w1^2+w2^2)^2/16 + 4 w3^2)^(1/4) = u / 2^(1/4) < u.

Every partition is anchored at the origin so that the scale family is
dilation covariant; the window only bounds which cell indices are
enumerated.  The cells' geometry lives in :mod:`amalgams.groups`.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .groups import Box, BoxGeometry, GroupDescriptor, Index, Point


@dataclass(frozen=True)
class UniformPartition:
    group: GroupDescriptor
    r: float
    window: Box
    u_radius: float
    # per-axis cell half-extents and lattice steps (cell-local coordinates)
    half_extents: tuple[float, ...]
    steps: tuple[float, ...]

    # -- geometry ---------------------------------------------------------

    def base_point(self, idx: Index) -> Point:
        return self._lattice_point(idx)

    def _lattice_point(self, idx: Index) -> Point:
        # cells are [k*step, (k+1)*step) per local axis; base point at center
        return tuple((k + 0.5) * s for k, s in zip(idx, self.steps))

    def cell_box(self, idx: Index) -> Box | None:
        """Coordinate box of the cell, or None where cells are sheared."""
        if not isinstance(self.group.geometry, BoxGeometry):
            return None
        z = self._lattice_point(idx)
        return tuple((c - h, c + h) for c, h in zip(z, self.half_extents))

    def cell_contains(self, idx: Index, x: Point) -> bool:
        """Whether z^-1.x lies in the box Q of half-extents, z the cell's lattice point."""
        g = self.group
        w = g.compose(g.invert(self._lattice_point(idx)), x)
        return all(-h <= wi < h for wi, h in zip(w, self.half_extents))

    def locate(self, x: Point) -> Index:
        """Index of the unique cell containing x."""
        idx = self.group.geometry.locate(self.steps, np.array([x], dtype=float))[0]
        return tuple(int(k) for k in idx)

    # -- window cells, by index arithmetic -------------------------------

    def cell_count(self) -> int:
        """Cells meeting the window; a ValueError past 2**53 of them."""
        return self.group.geometry.window_count(self)

    def window_cells(self, positions: Sequence[int]) -> list[Index]:
        """The window's cells at the given positions of their enumeration
        order: the box lattice's itertools.product order, and on the
        Heisenberg group x-index, then y-index, then t-index."""
        return self.group.geometry.window_cells(self, positions)

    # -- exact intersection with coordinate boxes -------------------------

    def intersections_with_box(self, lo, hi) -> Iterator:
        """For one box [lo, hi), yield (cell index, Haar measure of cell ^
        [lo, hi)) per piece; for (n, d) arrays of boxes, the group's
        ``partition_pieces`` blocks (radius 0, box, cell index, measure)."""
        one_box = np.ndim(lo) == 1
        lo, hi = (np.asarray(x, dtype=float).reshape(-1, self.group.d) for x in (lo, hi))
        blocks = self.group.geometry.partition_pieces(np.array([self.steps]), lo, hi)
        if not one_box:
            return blocks
        pieces = ((idx.astype(int).tolist(), ms.tolist()) for _, _, idx, ms in blocks)
        return ((tuple(k), m) for ks, ms in pieces for k, m in zip(ks, ms))


# -- construction and validation ------------------------------------------


def cell_shape(g: GroupDescriptor, r: float) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """(half_extents, lattice steps) of the scale-r cells of a group; a
    half-extent past the float range is inf, which build_pi_r rejects."""
    try:
        half = g.geometry.cell_half_extents(r / (4.0 * g.gamma**2))
    except OverflowError:
        half = (math.inf,) * g.d
    return half, tuple([2.0 * h for h in half])


def cell_steps(g: GroupDescriptor, radii: Sequence[float]) -> np.ndarray:
    """The lattice steps of cell_shape at each of radii, shape (R, d), bit
    for bit, from one array of U-radii."""
    u = np.asarray(radii, dtype=float) / (4.0 * g.gamma**2)
    try:
        with np.errstate(over="ignore"):  # an inf step, as in Python's float products
            return 2.0 * np.array(g.geometry.cell_half_extents(u)).T
    except OverflowError:  # a power past the float range: cell_shape's inf steps
        return np.array([cell_shape(g, r)[1] for r in radii])


def check_scales(g: GroupDescriptor, radii: Sequence[float], steps, windows) -> None:
    """Raise build_pi_r's ValueError for the first of radii whose partition
    it rejects, where steps[i] (from cell_shape) and windows[i] (lo, hi per
    axis) are the lattice steps and the window of radii[i].

    Many radii are tested in one NumPy pass, and only the first failing one
    goes on to the tests below, whose order names its error; one radius
    goes to them at once, as NumPy's fixed cost is larger than theirs.
    Each test is written so that a NaN fails it; in the pass, a < b and s
    < inf are left out, as extent >= s >= tiny and extent / s < 2**53 give
    them."""
    if len(radii) > 1:
        r, s, w = (np.asarray(x, dtype=float) for x in (radii, steps, windows))
        extent = w[..., 1] - w[..., 0]
        with np.errstate(all="ignore"):
            ok = (0 < r) & (r < math.inf) & (
                (sys.float_info.min <= s) & (extent / s < 2.0**53) & (extent >= s)
            ).all(axis=1)
        if np.count_nonzero(ok) == len(ok):
            return
        i = int(np.argmin(ok))
        radii, steps, windows = radii[i : i + 1], s[i : i + 1].tolist(), w[i : i + 1].tolist()
    for r, r_steps, window in zip(radii, steps, windows):
        if not 0 < r < math.inf:
            raise ValueError("scale r must be positive and finite")
        if len(window) != g.d or not all(a < b for a, b in window):
            raise ValueError("window must be a nonempty box matching the group dimension")
        for (a, b), s in zip(window, r_steps):
            # past 2**53 steps floor(x / step) no longer gives exact cell indices
            if not (sys.float_info.min <= s < math.inf and (b - a) / s < 2.0**53):
                raise ValueError(
                    f"scale r = {r} out of range: lattice step {s} over axis extent {b - a}"
                )
            if not b - a >= s:
                raise ValueError(
                    f"degenerate window: axis extent {b - a} below cell extent {s}"
                )


def build_pi_r(g: GroupDescriptor, r: float, window: Box) -> UniformPartition:
    """Uniform partition at scale r whose enumerated cells cover the window."""
    window = tuple((float(a), float(b)) for a, b in window)
    half, steps = cell_shape(g, r)
    check_scales(g, [r], [steps], [window])
    return UniformPartition(
        group=g,
        r=float(r),
        window=window,
        u_radius=r / (4.0 * g.gamma**2),
        half_extents=half,
        steps=steps,
    )


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    cells_checked: int
    probes: int
    failures: tuple[str, ...]


def _unit_ball_probes(g: GroupDescriptor, samples: int) -> list[Point]:
    """Deterministic points of B(e, 1), weighted toward the boundary."""
    rng = np.random.default_rng(11)
    pts: list[Point] = []
    while len(pts) < samples:
        cand = rng.uniform(-1.0, 1.0, size=g.d)
        n = g.hom_norm(tuple(cand))
        if n == 0.0 or n >= 1.0:
            continue
        pts.append(tuple(cand))
        # push a copy close to the sphere to stress the inclusions
        frac = 0.999 / n
        pts.append(tuple(c * frac**e for c, e in zip(cand, g.dilation_exponents)))
    return pts[:samples]


def validate(p: UniformPartition, samples: int = 24, max_cells: int = 200) -> ValidationReport:
    """Probe disjointness, coverage, and both sandwich inclusions."""
    g = p.group
    failures: list[str] = []
    rng = np.random.default_rng(5)
    # coverage / disjointness probes inside the window
    probes = 0
    for _ in range(samples * 4):
        x = tuple(rng.uniform(a, b) for a, b in p.window)
        idx = p.locate(x)
        probes += 1
        if not p.cell_contains(idx, x):
            failures.append(f"locate({x}) -> {idx} does not contain the point")
    n_cells = p.cell_count()
    if n_cells > max_cells:
        sel = sorted(int(i) for i in rng.choice(n_cells, size=max_cells, replace=False))
    else:
        sel = range(n_cells)
    cells = p.window_cells(sel)
    ball = _unit_ball_probes(g, samples)
    u = p.u_radius
    for idx in cells:
        xe = p.base_point(idx)
        if not p.cell_contains(idx, xe):
            failures.append(f"cell {idx}: base point not inside the cell")
        for w in ball:
            wu = g.dilate(u, w)
            x = g.compose(xe, wu)
            probes += 1
            if not p.cell_contains(idx, x):
                failures.append(f"cell {idx}: x_E.U escapes at {x}")
                break
        # sample cell points in local coordinates and test x in x_E.V
        z = p._lattice_point(idx)
        for _ in range(samples):
            wloc = tuple(
                rng.uniform(-h, h) for h in p.half_extents
            )
            x = g.compose(z, wloc)
            probes += 1
            w = g.compose(g.invert(xe), x)
            # x_E^-1.x = a.a with a = w/2 on every instance (the Heisenberg
            # twist cancels), so |w/2| < u puts x in x_E.U.U
            if not g.hom_norm(tuple(c / 2.0 for c in w)) < u:
                failures.append(f"cell {idx}: point {x} outside x_E.V")
                break
    return ValidationReport(not failures, len(cells), probes, tuple(failures))


# -- counting bounds -------------------------------------------------------


def n_pi_bound(
    g: GroupDescriptor, u_radius: float, K_radius: float, L_radius: float
) -> float:
    """Upper evaluation of the translate-hit ratio via ball containment.

    The product set L K^{-1} U of symmetric balls sits inside
    B(e, gamma(gamma(r_L + r_K) + r_U)); its measure over the measure of
    U bounds how many translated sets x_E K a left translate of L can
    meet.
    """
    if u_radius <= 0 or K_radius <= 0 or L_radius <= 0:
        raise ValueError("radii must be positive")
    gam = g.gamma
    big = gam * (gam * (L_radius + K_radius) + u_radius)
    return g.ball_measure(big) / g.ball_measure(u_radius)


def partition_constants(g: GroupDescriptor) -> tuple[float, float]:
    """The paper's bases (4g^4 + 3g^2, 4g^5 + 3g^3 + 2g^2), g = gamma, of
    the translate-hit bound and the partition/ball equivalence bracket."""
    gam = g.gamma
    return 4 * gam**4 + 3 * gam**2, 4 * gam**5 + 3 * gam**3 + 2 * gam**2


def count_translate_hits(p: UniformPartition, K_radius: float, a) -> int | np.ndarray:
    """Number of cells meeting a.B(e, K_radius): an int for one point a,
    and an array of n counts for an (n, d) array of centres a.

    Exact by index arithmetic on the abelian instances (balls are
    intervals/boxes there); on the Heisenberg group the count samples a
    dense grid of ball points, which can only undercount sliver
    intersections, leaving the upper-bound checks valid.
    """
    if K_radius <= 0:
        raise ValueError("translate radius must be positive")
    g = p.group
    a = np.asarray(a, dtype=float)
    if a.ndim not in (1, 2) or a.shape[-1] != g.d:
        raise ValueError(f"{g.name}: translate centres need {g.d} coordinates")
    centres = a.reshape(-1, g.d)
    boxes = g.geometry.translate_box(centres, K_radius)
    window = np.array(p.window)
    # written so that a NaN coordinate escapes too
    inside = (boxes[..., 0] >= window[:, 0]) & (boxes[..., 1] <= window[:, 1])
    if not inside.all():
        bad = int(np.argmin(inside.all(axis=1)))
        raise ValueError(f"translate escapes the partition window at {tuple(centres[bad].tolist())}")
    counts = g.geometry.count_hits(p, centres, K_radius, boxes)
    return int(counts[0]) if a.ndim == 1 else counts
