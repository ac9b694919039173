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
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

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


@dataclass(frozen=True)
class Cell:
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
    """Build a validated SimpleFunction from (lo, hi, value) triples.

    Every cell is validated and checked for overlaps, but only the cells
    with a positive value are stored."""
    built: list[Cell] = []
    for lo, hi, value in cells:
        lo = tuple(float(a) for a in lo)
        hi = tuple(float(b) for b in hi)
        if len(lo) != group.d or len(hi) != group.d:
            raise ValueError(f"cell dimension mismatch for group {group.name}")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ValueError(f"degenerate cell [{lo}, {hi})")
        if not all(math.isfinite(v) for v in lo + hi):
            raise ValueError("cell bounds must be finite (bounded support)")
        value = float(value)
        if value < 0.0 or not math.isfinite(value):
            raise ValueError("cell values must be finite and >= 0")
        built.append(Cell(lo, hi, value, group.box_measure(lo, hi)))
    _check_disjoint(built)
    return SimpleFunction(group, tuple(c for c in built if c.value > 0.0))


def _check_disjoint(cells: Sequence[Cell]) -> None:
    """Raise on the first overlapping pair found by a sweep along axis 0.

    Cells are visited in order of lo[0]; the active list holds the cells
    whose hi[0] lies above the current lo[0], which are exactly those that
    meet the new cell on axis 0, so only they are tested on every axis.
    """
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


def lebesgue_norm(f: SimpleFunction, q: float) -> float:
    """Exact L^q norm: closed-form sum for q < inf, max value at q = inf."""
    q = _check_exponent(q)
    if math.isinf(q):
        return f.max_value
    e = _unit_exponent(f.max_value, q)
    total = sum(c.measure * math.ldexp(c.value, -e) ** q for c in f.cells)
    return _times_pow2(total ** (1.0 / q), e)


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
        return max(
            v * prof.breakpoints[i + 1] ** (1.0 / q)
            for i, v in enumerate(prof.values)
        )
    if math.isinf(prof.breakpoints[-1]):  # a positive value on infinite measure
        return INF
    s = p / q
    e = _unit_exponent(prof.values[0], p)
    total = lost = 0.0
    for v, t0, t1 in zip(prof.values, prof.breakpoints, prof.breakpoints[1:]):
        try:
            vp, a, b = math.ldexp(v, -e) ** p, t0**s, t1**s
        except OverflowError:
            return _lorentz_by_terms(prof, p, s)
        term = vp * (b - a)
        # a factor or term below the normal range has lost digits: bound the
        # term by its factors raised to 2 * _TINY, plus _TINY for the rounding
        # of that product (t0 == t1, or equal normal powers, is a true 0)
        if t0 < t1 and not (min(vp, b - a, term) >= _TINY or a == b >= _TINY):
            lost += max(vp, 2.0 * _TINY) * max(b - a, 2.0 * _TINY) + _TINY
        total += term
    # a term past the float range, or lost digits that can move the total
    if not total < INF or lost > 2.0**-54 * total:
        return _lorentz_by_terms(prof, p, s)
    return _times_pow2(total ** (1.0 / p), e)


def _lorentz_by_terms(prof: StepProfile, p: float, s: float) -> float:
    """The finite-(q, p) Lorentz norm (sum of v^p (t1^s - t0^s))^(1/p), s =
    p/q, for steps whose powers leave the normal float range.

    Each term is held as m * 2**k, k an integer: v and t1 are split by
    frexp, t1^s - t0^s is t1^s (1 - (t0/t1)^s), and the exponent x = p
    log2 v + s log2 t1 is summed from its integer and fractional parts, so
    no power over- or underflows; the terms are then summed against the
    largest k.
    """
    terms = []
    for v, t0, t1 in zip(prof.values, prof.breakpoints, prof.breakpoints[1:]):
        mv, ev = math.frexp(v)
        mt, et = math.frexp(t1)
        x = ev * p + et * s + (p * math.log2(mv) + s * math.log2(mt))
        ratio = t0 / t1
        gap = -math.expm1(s * math.log(ratio)) if ratio > 0.0 else 1.0
        k = math.floor(x)
        terms.append((gap * 2.0 ** (x - k), k))
    top = max(k for m, k in terms if m > 0.0)  # the first term's gap is 1
    total = math.fsum(math.ldexp(m, k - top) for m, k in terms)
    j = math.floor(top / p)
    return _times_pow2(total ** (1.0 / p) * 2.0 ** (top / p - j), j)


def scale(f: SimpleFunction, factor: float) -> SimpleFunction:
    """|factor| * f (values are moduli, so the sign is dropped)."""
    a = abs(float(factor))
    cells = (Cell(c.lo, c.hi, a * c.value, c.measure) for c in f.cells)
    return SimpleFunction(f.group, tuple(c for c in cells if c.value > 0.0))


def _axis0_neighbours(a: SimpleFunction, b: SimpleFunction) -> list[list[Cell]]:
    """For each cell of a, the cells of b whose axis-0 extent meets it, in
    b's order.  Any other cell of b misses it on axis 0, so it gives no
    intersection and removes nothing in a subtraction."""
    lo = np.array([c.lo[0] for c in b.cells])
    hi = np.array([c.hi[0] for c in b.cells])
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
