"""Simple (finitely-valued, piecewise-constant) functions and their
exact Lebesgue, distribution, rearrangement and Lorentz computations.

A :class:`SimpleFunction` stores positive values on pairwise-disjoint
half-open coordinate boxes; every norm in this package then reduces to a
finite closed-form sum, so there is no quadrature error in this module.
Only the modulus |f| matters for any norm in scope, hence values are
nonnegative; a zero-valued cell adds nothing to any norm and is not stored.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import chain
from typing import Iterable, NamedTuple, Sequence

import numpy as np

from .groups import Box, GroupDescriptor

INF = math.inf
_TINY = sys.float_info.min  # the smallest normal float


def _check_exponent(q: float) -> float:
    q = float(q)
    if not (q >= 1.0):
        raise ValueError(f"exponent must lie in [1, inf], got {q}")
    return q


def _unit_exponent(vmax: float, q: float, p: float = 1.0) -> int:
    """Binary exponent e by which a positively homogeneous norm is scaled:
    it is evaluated on the values ldexp(v, -e) <= 1 and scaled back by
    2**e with :func:`_times_pow2`, both exactly.

    e is the exponent of vmax, the largest value, where its finite powers
    q and p could leave the float range, and 0 otherwise, so that ordinary
    inputs are evaluated unscaled, to the bit.
    """
    e = math.frexp(vmax)[1]
    power = max(q if q < INF else 1.0, p if p < INF else 1.0)
    return e if abs(e) * power > 256 else 0


def _times_pow2(x: float, e: int) -> float:
    """x * 2**e, inf where that overflows."""
    try:
        return math.ldexp(x, e)
    except OverflowError:
        return INF


RANGE_ERROR = "a sum of this norm loses digits past the float range"


def _lost_digits(powers, weights, totals: list[float], starts=(0,)) -> list[int]:
    """The segments k whose plain sum totals[k] of the terms powers * weights
    (segment k starts at starts[k]) lost digits that can move it: it is not
    finite, or its terms with a factor or product below the normal range,
    zero included, each bounded by its factors raised to 2 _TINY plus _TINY,
    add up to more than 2**-54 of it.  The bound is skipped by one fast test:
    no factor below _TINY (a min per array), or, for one weight w >= _TINY,
    every term within that bound, 2 _TINY max(w, 1) + _TINY, still holds."""
    if isinstance(weights, float):
        n = len(powers) * (2.0 * _TINY * max(weights, 1.0) + _TINY)
        fast = weights >= _TINY and n <= 2.0**-54 * min(totals)
    elif len(powers):
        lp = float(powers.min()) if isinstance(powers, np.ndarray) else min(powers)
        lw = float(weights.min()) if isinstance(weights, np.ndarray) else min(weights)
        fast = lp >= _TINY and lw >= _TINY and lp * lw >= _TINY
    else:
        fast = True
    if fast:
        return [] if max(totals) < INF else [k for k, t in enumerate(totals) if not t < INF]
    powers, weights = np.broadcast_arrays(np.asarray(powers, dtype=float), weights)
    with np.errstate(over="ignore", invalid="ignore"):  # a term past the range has a total of inf
        lossy = np.minimum(np.minimum(powers, weights), powers * weights) < _TINY
        bound = np.maximum(powers, 2.0 * _TINY) * np.maximum(weights, 2.0 * _TINY) + _TINY
    lost = np.add.reduceat(np.where(lossy, bound, 0.0), starts).tolist()
    return [k for k, (t, b) in enumerate(zip(totals, lost)) if not (t < INF and b <= 2.0**-54 * t)]


def _power_sums(x, a: float, w, starts=(0,), root: bool = True) -> list[float]:
    """(sum of w x^a)^(1/a) over each segment of the terms (from starts[k];
    the sum itself where not root), for x, w >= 0 at any scale, a >= 1.

    Each term is held as m 2**k, k an integer.  With x = mx 2**ex (frexp),
    x^a = mx^a 2**(a ex), and a is cut into two halves of 26 bits
    (Veltkamp) whose products with ex are exact, so only fractions below 2
    are rounded; above a = 512 a is halved, exactly, and the term squared
    back as often.  A segment is summed by fsum against its largest k, and
    the root of 2**k splits off n = floor(k/a) by the same halves.  A weight
    below _TINY has lost digits: those terms, taken at the weight 2 _TINY,
    must stay under 2**-54 of all the sums, or they are refused."""
    h = max(0, math.frexp(a)[1] - 9)
    b = math.ldexp(a, -h)  # a / 2**h < 512
    c = 134217729.0 * b  # 2**27 + 1
    hi = c - (c - b)
    lo = b - hi

    def split(xi: float, wi: float) -> tuple[float, int]:
        if not xi > 0.0:
            return 0.0, 0
        mx, ex = math.frexp(xi)
        u, v = hi * ex, lo * ex
        ku, kv = math.floor(u), math.floor(v)
        m, k = mx**b * 2.0 ** ((u - ku) + (v - kv)), ku + kv
        for _ in range(h):
            m, j = math.frexp(m)
            m, k = m * m, 2 * (k + j)
        mw, ew = math.frexp(wi)
        return m * mw, k + ew

    def fsum_at(terms: list[tuple[float, int]], top: int) -> float:
        return math.fsum(math.ldexp(m, k - top) for m, k in terms)

    w = [w] * len(x) if isinstance(w, float) else w
    terms = [split(xi, wi) for xi, wi in zip(x, w)]
    lossy = [split(xi, 2.0 * _TINY) for xi, wi in zip(x, w) if wi < _TINY]
    top = max((k for m, k in terms + lossy if m > 0.0), default=0)
    if fsum_at(lossy, top) > 2.0**-54 * fsum_at(terms, top):
        raise ValueError(RANGE_ERROR)
    out = []
    for i, j in zip(starts, [*starts[1:], len(terms)]):
        top = max((k for m, k in terms[i:j] if m > 0.0), default=0)
        total = fsum_at(terms[i:j], top)
        n = math.floor(top / a)  # top - n a = 2**h (top 2**-h - n hi - n lo)
        g = (math.ldexp(top, -h) - n * hi - n * lo) / b
        out.append(_times_pow2(total ** (1.0 / a) * 2.0**g, n) if root else _times_pow2(total, top))
    return out


class Cell(NamedTuple):
    lo: tuple[float, ...]
    hi: tuple[float, ...]
    value: float
    measure: float


@dataclass(frozen=True)
class SimpleFunction:
    group: GroupDescriptor
    cells: tuple[Cell, ...]

    @cached_property
    def max_value(self) -> float:
        """The largest cell value; 0 without cells."""
        return max((c.value for c in self.cells), default=0.0)

    @cached_property
    def lo(self) -> np.ndarray:
        """The cells' lower corners as one read-only (n, d) array, built once."""
        return self._corners(0)

    @cached_property
    def hi(self) -> np.ndarray:
        """The cells' upper corners as one read-only (n, d) array, built once."""
        return self._corners(1)

    @cached_property
    def axis0_order(self) -> np.ndarray | None:
        """The cell indices in order of lo[:, 0], a stable argsort built once,
        or None where the cells are in that order already; disjoint cells on
        the line are then in order of hi too."""
        order = self.lo[:, 0].argsort(kind="stable")
        if not (order[1:] < order[:-1]).any():
            return None
        order.flags.writeable = False
        return order

    @cached_property
    def _memo(self) -> dict[str, tuple]:
        """Per kind, the (key, blocks) of the last stream made on f (``amalgam._replay``)."""
        return {}

    def _corners(self, k: int) -> np.ndarray:
        corners = np.array([c[k] for c in self.cells], dtype=float).reshape(len(self.cells), self.group.d)
        corners.flags.writeable = False
        return corners

    @cached_property
    def _support_box(self) -> Box | None:
        if not self.cells:
            return None
        lo = [min(c.lo[i] for c in self.cells) for i in range(self.group.d)]
        hi = [max(c.hi[i] for c in self.cells) for i in range(self.group.d)]
        return tuple(zip(lo, hi))

    def support_measure(self) -> float:
        return sum(c.measure for c in self.cells)

    def bounding_box(self) -> Box | None:
        """Smallest coordinate box holding the support; None for zero."""
        return self._support_box

    def is_zero(self) -> bool:
        return not self.cells


def boxes_overlap(lo1, hi1, lo2, hi2) -> bool:
    return all(a1 < b2 and a2 < b1 for a1, b1, a2, b2 in zip(lo1, hi1, lo2, hi2))


def box_intersection(lo1, hi1, lo2, hi2):
    lo = tuple(max(a, b) for a, b in zip(lo1, lo2))
    hi = tuple(min(a, b) for a, b in zip(hi1, hi2))
    if all(a < b for a, b in zip(lo, hi)):
        return lo, hi
    return None


def box_subtract(lo, hi, lo2, hi2) -> list[tuple[tuple, tuple]]:
    """Decompose [lo,hi) minus [lo2,hi2) into disjoint half-open boxes."""
    if not boxes_overlap(lo, hi, lo2, hi2):
        return [(tuple(lo), tuple(hi))]
    out = []
    cur_lo, cur_hi = list(lo), list(hi)
    for ax in range(len(lo)):
        if lo2[ax] > cur_lo[ax]:
            piece_hi = list(cur_hi)
            piece_hi[ax] = lo2[ax]
            out.append((tuple(cur_lo), tuple(piece_hi)))
            cur_lo[ax] = lo2[ax]
        if hi2[ax] < cur_hi[ax]:
            piece_lo = list(cur_lo)
            piece_lo[ax] = hi2[ax]
            out.append((tuple(piece_lo), tuple(cur_hi)))
            cur_hi[ax] = hi2[ax]
    return out


def simple_function(
    group: GroupDescriptor,
    cells: Iterable[tuple[Sequence[float], Sequence[float], float]],
) -> SimpleFunction:
    """Build a validated SimpleFunction from (lo, hi, value) triples, unpacked
    and float()-converted in one loop, then checked by :func:`_check_cells`
    and for overlaps.  A measure is measure_scale * ((w_0 * w_1) * ...) of the
    widths hi - lo.  The cells of positive value are kept, as Cell tuples."""
    los, his, values = [], [], []
    try:
        for lo, hi, value in cells:
            los.append(tuple(map(float, lo)))
            his.append(tuple(map(float, hi)))
            values.append(float(value))
    finally:  # an earlier cell's failed rule wins over an error the loop raised
        lo, hi = _check_cells(group, los, his, values)
    with np.errstate(over="ignore"):  # a measure past the float range is inf
        measures = group.measure_scale * reduce(operator.mul, (hi - lo).T)
    built = list(map(Cell._make, zip(los, his, values, measures.tolist())))
    _check_disjoint(built, lo[:, 0], hi[:, 0])
    return SimpleFunction(group, tuple(c for c in built if c.value > 0.0))


def _check_cells(group: GroupDescriptor, los, his, values) -> tuple[np.ndarray, np.ndarray]:
    """Check each rule, in this order: dimension, lo < hi on each axis, finite
    bounds, a finite value >= 0; the lowest failing cell raises its first
    failed rule.  The rules after the dimension are one mask per cell, with
    one reduction over the axes; the failing cell's rule is then read from its
    own numbers.  Return lo and hi, (n, d); values may lack the last."""
    n, d = len(his), group.d

    def first_false(flags) -> int:  # len(flags) where no flag is False
        return [*flags, False].index(False)

    m = first_false(map(operator.and_, map(d.__eq__, map(len, los[:n])), map(d.__eq__, map(len, his))))
    k = min(m, len(values))
    b = np.fromiter(chain(chain.from_iterable(chain(los[:m], his[:m])), values[:m]), float, 2 * m * d + k)
    finite = np.isfinite(b)
    lo, hi = b[: m * d].reshape(m, d), b[m * d : 2 * m * d].reshape(m, d)
    bounds = (lo < hi) & finite[: m * d].reshape(m, d) & finite[m * d : 2 * m * d].reshape(m, d)
    ok = np.logical_and.reduce(bounds, axis=1)
    ok[:k] &= finite[2 * m * d :] & (b[2 * m * d :] >= 0.0)
    j = first_false(ok.tolist())
    if j == m < n:
        raise ValueError(f"cell dimension mismatch for group {group.name}")
    if j < m and not all(map(operator.lt, los[j], his[j])):
        raise ValueError(f"degenerate cell [{los[j]}, {his[j]})")
    if j < m and not all(map(math.isfinite, los[j] + his[j])):
        raise ValueError("cell bounds must be finite (bounded support)")
    if j < m:
        raise ValueError("cell values must be finite and >= 0")
    return lo, hi


def _check_disjoint(cells: Sequence[Cell], lo0: np.ndarray, hi0: np.ndarray) -> None:
    """Raise on the first overlapping pair found by a sweep along axis 0.

    Where the axis-0 intervals [lo0, hi0), sorted by lo0, each start at or
    after every end before them (one NumPy test), no boxes meet: no sweep.
    It visits cells in order of lo[0]; the active list holds the cells whose
    hi[0] lies above the current lo[0], exactly those that meet the new cell
    on axis 0, so only they are tested on every axis."""
    if len(lo0) < 2:  # a single cell meets no other
        return
    order = lo0.argsort(kind="stable")
    if np.logical_and.reduce(lo0[order[1:]] >= np.maximum.accumulate(hi0[order])[:-1]):
        return
    active: list[int] = []
    for j in sorted(range(len(cells)), key=lambda k: cells[k].lo[0]):
        cj = cells[j]
        active = [i for i in active if cells[i].hi[0] > cj.lo[0]]
        for i in active:
            if boxes_overlap(cells[i].lo, cells[i].hi, cj.lo, cj.hi):
                raise ValueError(f"cells {min(i, j)} and {max(i, j)} overlap")
        active.append(j)


def zero_function(group: GroupDescriptor) -> SimpleFunction:
    return SimpleFunction(group, ())


def indicator(group: GroupDescriptor, lo, hi, value: float = 1.0) -> SimpleFunction:
    return simple_function(group, [(lo, hi, value)])


def _root(total: float, a: float, e: int, x, w, powers) -> float:
    """total**(1/a) * 2**e where the plain sum total of powers * w lost no
    digits that matter, else :func:`_power_sums` of x (the values scaled by
    2**-e) and w, scaled back."""
    if not _lost_digits(powers, w, [total]):
        return _times_pow2(total ** (1.0 / a), e)
    return _times_pow2(_power_sums(x, a, w)[0], e)


def _check_measures(f: SimpleFunction, q: float) -> None:
    """Raise RANGE_ERROR where the cells whose measure underflowed (below
    _TINY; validation keeps every cell nonempty) can move the sum of v^q
    times measure, which a norm summing pieces or overlaps of them loses."""
    measures = [c.measure for c in f.cells]
    if q < INF and min(measures, default=INF) < _TINY:
        _power_sums([c.value for c in f.cells], q, measures)


def _cells_hold(f: SimpleFunction, q: float, powers: list[float]) -> bool:
    """Whether the plain sums of a norm's first level, each cell's power (of
    its value scaled by 2**-e) times its pieces' or overlaps' measures, keep
    every digit that matters, judged on the cells' own measures, which
    bound them; where not, the cells of measure 0.0 are checked first."""
    measures = [c.measure for c in f.cells]
    if not _lost_digits(powers, measures, [sum(map(operator.mul, powers, measures))]):
        return True
    _check_measures(f, q)
    return False


def lebesgue_norm(f: SimpleFunction, q: float) -> float:
    """Exact L^q norm: closed-form sum for q < inf, max value at q = inf."""
    q = _check_exponent(q)
    if math.isinf(q):
        return f.max_value
    e = _unit_exponent(f.max_value, q)
    values = [math.ldexp(c.value, -e) for c in f.cells]
    powers = [v**q for v in values]
    measures = [c.measure for c in f.cells]
    return _root(sum(m * v for m, v in zip(measures, powers)), q, e, values, measures, powers)


def distribution_at(f: SimpleFunction, s: float) -> float:
    """Haar measure of the superlevel set {|f| > s}."""
    if s < 0:
        raise ValueError("distribution argument must be >= 0")
    return sum(c.measure for c in f.cells if c.value > s)


@dataclass(frozen=True)
class StepProfile:
    """A decreasing step function on [0, inf).

    ``values[i]`` is taken on [breakpoints[i], breakpoints[i+1]); the
    profile is zero past the last breakpoint.  Values are strictly
    decreasing after canonicalization, which makes the profile the
    unique decreasing rearrangement of its equivalence class.
    """

    breakpoints: tuple[float, ...]  # t_0 = 0 < t_1 < ... < t_k
    values: tuple[float, ...]  # v_1 > v_2 > ... > v_k > 0

    def distribution(self, s: float) -> float:
        t = 0.0
        for i, v in enumerate(self.values):
            if v > s:
                t = self.breakpoints[i + 1]
        return t

    def sup(self) -> float:
        return self.values[0] if self.values else 0.0


def rearrangement(f: SimpleFunction) -> StepProfile:
    """Decreasing rearrangement f*, canonicalized (equal values merged)."""
    weighted = sorted(((c.value, c.measure) for c in f.cells), reverse=True)
    breakpoints = [0.0]
    values: list[float] = []
    for v, m in weighted:
        if values and v == values[-1]:
            breakpoints[-1] += m
        else:
            values.append(v)
            breakpoints.append(breakpoints[-1] + m)
    return StepProfile(tuple(breakpoints), tuple(values))


def lorentz_norm(f: SimpleFunction, q: float, p: float) -> float:
    """Lorentz functional of f computed from its rearrangement.

    Finite q, p: ((p/q) * integral of (t^(1/q) f*(t))^p dt/t)^(1/p),
    evaluated per step in closed form.  q < p = inf: sup of t^(1/q)
    f*(t).  q = p = inf: sup of f*.  The combination q = inf, p < inf is
    rejected (undefined).
    """
    q = _check_exponent(q)
    p = _check_exponent(p)
    if math.isinf(q) and not math.isinf(p):
        raise ValueError("lorentz_norm is undefined for q = inf, p < inf")
    prof = rearrangement(f)
    if not prof.values:
        return 0.0
    if math.isinf(p):
        if math.isinf(q):
            return prof.sup()
        _check_measures(f, q)  # a cell of measure 0.0 has no step
        return max(
            v * prof.breakpoints[i + 1] ** (1.0 / q)
            for i, v in enumerate(prof.values)
        )
    s = p / q
    if math.frexp(prof.breakpoints[-1])[1] * s <= 1023:  # every t**s is finite
        e = _unit_exponent(prof.values[0], p)
        vp = [math.ldexp(v, -e) ** p for v in prof.values]
        ts = [t**s for t in prof.breakpoints]
        gaps = [b - a for a, b in zip(ts, ts[1:])]
        total = sum(x * y for x, y in zip(vp, gaps))
        if not _lost_digits(vp, gaps, [total]):
            return _times_pow2(total ** (1.0 / p), e)
    _check_measures(f, q)  # a cell of measure 0.0 has no step
    bases, gaps = _lorentz_steps(prof, q, p)
    return _power_sums(bases, p, gaps)[0]


def _lorentz_steps(prof: StepProfile, q: float, p: float) -> tuple[list[float], list[float]]:
    """The bases v t1^(1/q) and the gaps 1 - (t0/t1)^(p/q) of the steps of
    positive width: the sum of gap * base**p is the p-th power of the
    finite-(q, p) Lorentz norm.  No base exceeds the norm, so a base past
    the float range is a norm past it."""
    bp = prof.breakpoints
    steps = [(v * t1 ** (1.0 / q), t0 / t1) for v, t0, t1 in zip(prof.values, bp, bp[1:]) if t0 < t1]
    s = p / q
    return [x for x, _ in steps], [-math.expm1(s * math.log(r)) if r > 0 else 1.0 for _, r in steps]


def scale(f: SimpleFunction, factor: float) -> SimpleFunction:
    """|factor| * f (values are moduli, so the sign is dropped)."""
    a = abs(float(factor))
    cells = (Cell(c.lo, c.hi, a * c.value, c.measure) for c in f.cells)
    return SimpleFunction(f.group, tuple(c for c in cells if c.value > 0.0))


def _axis0_neighbours(a: SimpleFunction, b: SimpleFunction) -> list[list[Cell]]:
    """For each cell of a, the cells of b whose axis-0 extent meets it, in
    b's order.  Any other cell of b misses it on axis 0, so it gives no
    intersection and removes nothing in a subtraction."""
    lo, hi = b.lo[:, 0], b.hi[:, 0]
    return [
        [b.cells[k] for k in np.flatnonzero((lo < ca.hi[0]) & (ca.lo[0] < hi))]
        for ca in a.cells
    ]


def pointwise_combine(
    f: SimpleFunction,
    g: SimpleFunction | None = None,
    *,
    op: str,
    factor: float | None = None,
) -> SimpleFunction:
    """Exact pointwise product / sum / scalar multiple on the common refinement."""
    if op == "scale":
        if factor is None:
            raise ValueError("op='scale' requires factor")
        return scale(f, factor)
    if g is None:
        raise ValueError(f"op={op!r} requires a second function")
    if f.group is not g.group and f.group.name != g.group.name:
        raise ValueError("functions live on different groups")
    group = f.group
    out: list[tuple[tuple, tuple, float]] = []
    if op == "product":
        for cf, near in zip(f.cells, _axis0_neighbours(f, g)):
            for cg in near:
                inter = box_intersection(cf.lo, cf.hi, cg.lo, cg.hi)
                if inter is not None:
                    out.append((inter[0], inter[1], cf.value * cg.value))
        return simple_function(group, out)
    if op == "sum":
        f_near = _axis0_neighbours(f, g)
        for cf, near in zip(f.cells, f_near):
            for cg in near:
                inter = box_intersection(cf.lo, cf.hi, cg.lo, cg.hi)
                if inter is not None:
                    out.append((inter[0], inter[1], cf.value + cg.value))
        for a, a_near in ((f, f_near), (g, _axis0_neighbours(g, f))):
            for ca, near in zip(a.cells, a_near):
                pieces = [(ca.lo, ca.hi)]
                for cb in near:
                    pieces = [
                        sub
                        for lo, hi in pieces
                        for sub in box_subtract(lo, hi, cb.lo, cb.hi)
                    ]
                out.extend((lo, hi, ca.value) for lo, hi in pieces)
        return simple_function(group, out)
    raise ValueError(f"unknown op {op!r}")
