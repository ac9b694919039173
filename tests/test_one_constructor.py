"""Every ``SimpleFunction`` is made by ``simple_function``.

``scale`` and ``zero_function`` call it too, so every function passes the
cell checks, and each one holds the read-only corner arrays ``lo`` and
``hi`` that the checks built, cut to the cells it keeps.  They are pinned
here, bit for bit, to arrays built from ``f.cells``.  The bounding box and
the smallest cell extent, now array reductions, are pinned to copies of the
per-cell scans they replaced."""

import math

import numpy as np
import pytest

from amalgams import fracmean
from amalgams.counterexample import build_sparse_union
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.simplefn import pointwise_combine, scale, simple_function, zero_function
from amalgams.verify import gen_random_simple, radial_power_fn

GROUPS = [REAL_LINE, ANISO_PLANE, HEISENBERG]
WINDOWS = {1: ((-4.0, 4.0),), 2: ((-4.0, 4.0), (-2.0, 2.0)), 3: ((-4.0, 4.0), (-1.0, 1.0), (-1.0, 1.0))}
VALUE_RULE = "cell values must be finite and >= 0"


# -- the replaced per-cell scans, as a reference --------------------------------


def old_support_box(f):
    if not f.cells:
        return None
    lo = [min(c.lo[i] for c in f.cells) for i in range(f.group.d)]
    hi = [max(c.hi[i] for c in f.cells) for i in range(f.group.d)]
    return tuple(zip(lo, hi))


def old_min_cell_extent(f):
    return min(min(b - a for a, b in zip(c.lo, c.hi)) for c in f.cells)


def _bits(box):
    return None if box is None else [(a.hex(), b.hex()) for a, b in box]


# -- the functions ----------------------------------------------------------------


def with_zero_cells():
    """simple_function drops the zero-valued cells, here first, inside and last."""
    line = [((-1.0,), (0.0,), 0.0), ((0.0,), (1.0,), 2.0), ((1.0,), (3.0,), 0.0), ((3.0,), (3.5,), 5.0)]
    heis = [((0, 0, 0), (1, 1, 1), 3.0), ((1, 0, 0), (2, 1, 1), 0.0), ((-1, -2, 0), (0, 0, 0.5), 0.25)]
    plane = [((0, 0), (1, 1), 0.0), ((-1, -1), (0, 0), 0.0)]
    return {
        "line-zero-cells": simple_function(REAL_LINE, line),
        "heisenberg-zero-cell": simple_function(HEISENBERG, heis),
        "plane-all-zero": simple_function(ANISO_PLANE, plane),
    }


def random_functions():
    return {
        f"random-{g.name}-{seed}": gen_random_simple(seed, 1 + 5 * seed, WINDOWS[g.d], g)
        for g in GROUPS
        for seed in range(1, 4)
    }


def _mixed():
    """Values from 1e-30 to 8: scaling by 1e-300 takes the smallest to 0."""
    return simple_function(REAL_LINE, [((k,), (k + 0.5,), v) for k, v in enumerate((2.0, 1e-30, 8.0, 1e-12))])


def built():
    fns = {**with_zero_cells(), **random_functions()}
    fns["mixed"] = _mixed()
    for g in GROUPS:
        fns[f"zero-{g.name}"] = zero_function(g)
    base = fns["random-heisenberg-3"]
    for factor in (0.0, -2.0, 1e-300, 1e300):
        fns[f"scale-{factor}"] = scale(base, factor)
        fns[f"scale-mixed-{factor}"] = scale(fns["mixed"], factor)
    f, h = fns["random-real-line-3"], fns["line-zero-cells"]
    fns["product"] = pointwise_combine(f, h, op="product")
    fns["sum"] = pointwise_combine(f, h, op="sum")
    fns["sum-heisenberg"] = pointwise_combine(fns["random-heisenberg-2"], fns["heisenberg-zero-cell"], op="sum")
    fns["combine-scale"] = scale(f, -0.5)
    fns["radial-power"] = radial_power_fn(REAL_LINE, "power", 2.0, (0.25, 4.0), mesh=0.1).function
    fns["radial-damped"] = radial_power_fn(REAL_LINE, "damped", 3.0, (0.0, 8.0), mesh=0.05).function
    fns["sparse-union"] = build_sparse_union(REAL_LINE, 1.0, 2.0, 3)[1]
    return fns


FUNCTIONS = built()


def test_the_functions_cover_what_they_should():
    assert FUNCTIONS["plane-all-zero"].is_zero()
    assert FUNCTIONS["scale-0.0"].is_zero()
    assert [c.value for c in FUNCTIONS["line-zero-cells"].cells] == [2.0, 5.0]
    assert len(FUNCTIONS["scale-mixed-1e-300"].cells) == 3  # 1e-330 underflows to 0 and is dropped
    assert len(FUNCTIONS["scale-1e-300"].cells) == len(FUNCTIONS["random-heisenberg-3"].cells)
    assert not FUNCTIONS["sum"].is_zero() and not FUNCTIONS["product"].is_zero()


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_corners_are_the_cells_read_only_bit_for_bit(name):
    f = FUNCTIONS[name]
    for got, k in ((f.lo, 0), (f.hi, 1)):
        want = np.array([c[k] for c in f.cells], dtype=float).reshape(len(f.cells), f.group.d)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            got[...] = 0.0


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_box_and_extent_are_the_per_cell_scans(name):
    f = FUNCTIONS[name]
    assert _bits(f.bounding_box()) == _bits(old_support_box(f))
    if f.cells:
        assert fracmean._min_cell_extent(f).hex() == old_min_cell_extent(f).hex()


@pytest.mark.parametrize("name", list(FUNCTIONS))
def test_scale_keeps_the_measures_and_the_corners(name):
    f = FUNCTIONS[name]
    g = scale(f, 1.0)
    assert g == f and hash(g) == hash(f) and repr(g) == repr(f)
    assert [c.measure.hex() for c in g.cells] == [c.measure.hex() for c in f.cells]
    assert g.lo.tobytes() == f.lo.tobytes() and g.hi.tobytes() == f.hi.tobytes()
    assert "array" not in repr(f)


@pytest.mark.parametrize("factor", [math.nan, math.inf, -math.inf, 1e308])
def test_scale_refuses_a_value_that_is_not_finite(factor):
    f = FUNCTIONS["line-zero-cells"]  # values 2 and 5
    with pytest.raises(ValueError, match=VALUE_RULE):
        scale(f, factor)


def test_scale_by_nan_of_every_group_is_refused():
    for g in GROUPS:
        with pytest.raises(ValueError, match=VALUE_RULE):
            scale(FUNCTIONS[f"random-{g.name}-2"], math.nan)
    assert scale(zero_function(REAL_LINE), math.nan).is_zero()  # no value to make NaN
