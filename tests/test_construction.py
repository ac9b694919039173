"""``simple_function`` validates a cell list as arrays, in one pass per rule.

It is pinned here to a copy of the per-cell loop it replaced: on every
input both give the same cells, field by field and bit for bit, or raise
the same exception with the same message.  The overlap check first tests
the axis-0 intervals in NumPy and runs the pairwise sweep only where they
overlap."""

import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from amalgams import simplefn
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.simplefn import Cell, boxes_overlap, simple_function

GROUPS = [REAL_LINE, ANISO_PLANE, HEISENBERG]


# -- the replaced per-cell loop, as a reference ----------------------------------


@dataclass(frozen=True)
class OldCell:
    lo: tuple
    hi: tuple
    value: float
    measure: float


def old_simple_function(group, cells):
    built = []
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
        built.append(OldCell(lo, hi, value, group.box_measure(lo, hi)))
    old_check_disjoint(built)
    return tuple(c for c in built if c.value > 0.0)


def old_check_disjoint(cells):
    active = []
    for j in sorted(range(len(cells)), key=lambda k: cells[k].lo[0]):
        cj = cells[j]
        active = [i for i in active if cells[i].hi[0] > cj.lo[0]]
        for i in active:
            if boxes_overlap(cells[i].lo, cells[i].hi, cj.lo, cj.hi):
                raise ValueError(f"cells {min(i, j)} and {max(i, j)} overlap")
        active.append(j)


def _bits(x: float) -> str:
    assert type(x) is float
    return x.hex()


def _outcome(build, group, cells):
    try:
        built = build(group, cells)
    except Exception as exc:  # noqa: BLE001 - the exception is the outcome
        return type(exc), str(exc)
    return [
        (tuple(map(_bits, c.lo)), tuple(map(_bits, c.hi)), _bits(c.value), _bits(c.measure))
        for c in built
    ]


def _new(group, cells):
    return simple_function(group, cells).cells


# -- the draws -------------------------------------------------------------------

SPECIAL = [math.nan, math.inf, -math.inf]


@st.composite
def numbers(draw, x: float):
    """x as a float, an int, a str or a NumPy scalar."""
    forms = [float, str, np.float64, np.float32]
    if math.isfinite(x) and x == int(x):
        forms += [int, lambda v: np.int64(int(v))]
    return draw(st.sampled_from(forms))(x)


@st.composite
def cell_entries(draw, d: int, broken: bool):
    """One (lo, hi, value) entry on a coarse grid, where touching and
    overlapping boxes are common; if broken, now and then a rule fails."""
    def now_and_then(odds: int) -> bool:
        return broken and draw(st.integers(0, odds - 1)) == 0

    n_lo = max(0, d + draw(st.sampled_from([-1, 1]))) if now_and_then(20) else d
    n_hi = max(0, d + draw(st.sampled_from([-1, 1]))) if now_and_then(20) else d
    lo = [draw(st.sampled_from(SPECIAL)) if now_and_then(20) else float(draw(st.integers(-2, 6))) for _ in range(n_lo)]
    hi = [
        (lo[i] if i < n_lo else 0.0) + (draw(st.sampled_from([0.0, -1.0])) if now_and_then(8) else draw(st.integers(1, 3)))
        for i in range(n_hi)
    ]
    if n_hi and now_and_then(20):
        hi[draw(st.integers(0, n_hi - 1))] = draw(st.sampled_from(SPECIAL))
    values = [0.0, -0.0, 0.5, 1.0, 2.0, 3.0]
    value = draw(st.sampled_from([-1.0, *SPECIAL] if now_and_then(8) else values))
    entry = (
        tuple(draw(numbers(a)) for a in lo),
        [draw(numbers(b)) for b in hi],
        draw(numbers(value)),
    )
    if now_and_then(20):
        return draw(st.sampled_from([entry[:2], (*entry, 1.0)]))
    return entry


@st.composite
def cell_lists(draw, d: int):
    """Lists of up to 8 entries, half of them with no rule broken."""
    broken = draw(st.booleans())
    return [draw(cell_entries(d, broken)) for _ in range(draw(st.integers(0, 8)))]


# -- the parity property ---------------------------------------------------------


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_construction_equals_the_per_cell_loop(group, data):
    cells = data.draw(cell_lists(group.d))
    assert _outcome(_new, group, cells) == _outcome(old_simple_function, group, cells)
    assert _outcome(_new, group, iter(cells)) == _outcome(old_simple_function, group, iter(cells))


def _valid(d):
    return [
        ((0.0,) * d, (1.0,) * d, 2.0),
        ((1,) * d, ("2",) * d, np.float32(0.5)),
        ((np.int64(3),) * d, (np.float64(4.5),) * d, 0),
    ]


def _broken(d):
    """Entries that break one rule each, or two at once."""
    return [
        ((0.0,) * d, (0.0,) * d, 1.0),
        ((0.0,) * d, (math.inf,) * d, 1.0),
        ((math.nan,) * d, (1.0,) * d, 1.0),
        ((0.0,) * d, (1.0,) * d, math.nan),
        ((0.0,) * d, (1.0,) * d, -1.0),
        ((0.0,) * d, (1.0,) * d, -math.inf),
        ((0.0,) * (d + 1), (1.0,) * (d + 1), 1.0),
        ((0.0,) * d, (1.0,) * (d - 1), -1.0),
        ((0.0,) * d, (1.0,) * d),
        ((0.0,) * d, (1.0,) * d, 1.0, 1.0),
        ((0.0,) * d, (1.0,) * d, "x"),
        ((1.0,) * d, (0.0,) * d, "x"),
        (("x",) * d, (1.0,) * d, 1.0),
        ((1.0,) * d, (None,) * d, -1.0),
        (1.0, 2.0, 3.0),
        ((-1.0,) * d, (0.5,) * d, 1.0),
    ]


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_each_broken_entry_raises_as_the_per_cell_loop_does(group):
    cells = _valid(group.d)
    assert _outcome(_new, group, cells) == _outcome(old_simple_function, group, cells)
    broken = _broken(group.d)
    for bad in broken:
        for at in range(len(cells) + 1):
            listed = cells[:at] + [bad] + cells[at:]
            assert _outcome(_new, group, listed) == _outcome(old_simple_function, group, listed)
    for first in broken:  # the lower index wins, whatever rule either breaks
        for second in broken:
            listed = [cells[0], first, second]
            assert _outcome(_new, group, listed) == _outcome(old_simple_function, group, listed)


@pytest.mark.parametrize("group", GROUPS, ids=lambda g: g.name)
def test_measures_keep_box_measure_bits(group):
    """Widths whose products round, multiplied in box_measure's axis order."""
    rng = np.random.default_rng(11)
    n = 500
    scale = 10.0 ** rng.integers(-100, 100, (n, group.d))
    lo = rng.uniform(-3.0, 3.0, (n, group.d)) * scale
    lo[:, 0] = np.arange(n) * 2.0
    hi = lo + rng.uniform(0.1, 1.0, (n, group.d)) * scale
    hi[:, 0] = lo[:, 0] + rng.uniform(0.5, 1.5, n)
    cells = [(a.tolist(), b.tolist(), 1.0) for a, b in zip(lo, hi)]
    got = _outcome(_new, group, cells)
    assert got == _outcome(old_simple_function, group, cells) and len(got) == n
    for lo, hi in [(-1e308, 1e308), (0.0, 5e-324), (1e-200, 3e-200), (0.1, 0.7)]:
        cells = [((lo,) * group.d, (hi,) * group.d, 1.0)]
        assert _outcome(_new, group, cells) == _outcome(old_simple_function, group, cells)


def test_cells_are_named_tuples_of_python_floats():
    f = simple_function(ANISO_PLANE, [((np.float32(0.5), 1), ("2", np.int64(3)), np.float64(2.0))])
    (c,) = f.cells
    assert isinstance(c, Cell) and isinstance(c, tuple)
    assert Cell._fields == ("lo", "hi", "value", "measure")
    assert c == ((0.5, 1.0), (2.0, 3.0), 2.0, 0.75)
    assert all(type(x) is float for x in (*c.lo, *c.hi, c.value, c.measure))


# -- the axis-0 disjointness test ------------------------------------------------


def _count_overlap_tests(monkeypatch):
    calls = []
    real = simplefn.boxes_overlap

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(simplefn, "boxes_overlap", counting)
    return calls


def test_disjoint_axis0_intervals_skip_the_sweep(monkeypatch):
    calls = _count_overlap_tests(monkeypatch)
    n = 2000
    order = np.random.default_rng(7).permutation(n).tolist()
    f = simple_function(REAL_LINE, [((2.0 * k,), (2.0 * k + 2.0,), 1.0) for k in order])
    assert len(f.cells) == n
    assert calls == []
    # disjoint on axis 0 in the plane and in the Heisenberg group alike
    simple_function(ANISO_PLANE, [((k, 0.0), (k + 1.0, 1.0), 1.0) for k in range(5)])
    simple_function(HEISENBERG, [((k, 0.0, -5.0), (k + 0.5, 9.0, 5.0), 1.0) for k in range(5)])
    assert calls == []


class SweepGuard(list):
    """A cell list the pairwise sweep cannot read."""

    def __len__(self):
        raise AssertionError("the sweep ran")


@pytest.mark.parametrize(
    "lo0, hi0, sweeps",
    [
        ([4.0, 0.0, 2.0], [5.0, 2.0, 4.0], False),  # touching, out of order
        ([0.0, 0.5, 3.0], [3.0, 1.0, 4.0], True),  # nested in the first interval
        ([0.0, 1.0, 2.0], [1.5, 2.0, 3.0], True),
        ([7.0], [8.0], False),
        ([], [], False),
    ],
)
def test_the_axis0_test_decides_whether_the_sweep_runs(lo0, hi0, sweeps):
    args = SweepGuard(), np.array(lo0, dtype=float), np.array(hi0, dtype=float)
    if sweeps:
        with pytest.raises(AssertionError, match="the sweep ran"):
            simplefn._check_disjoint(*args)
    else:
        simplefn._check_disjoint(*args)


def test_overlapping_axis0_intervals_still_reach_the_sweep(monkeypatch):
    calls = _count_overlap_tests(monkeypatch)
    # the same axis-0 interval, apart on axis 1: the sweep finds no overlap
    cells = [((0.0, 0.0), (2.0, 1.0), 1.0), ((1.0, 1.0), (3.0, 2.0), 1.0), ((5.0, 0.0), (6.0, 1.0), 1.0)]
    assert len(simple_function(ANISO_PLANE, cells).cells) == 3
    assert len(calls) == 1
    # a zero-valued cell is still checked, and the sweep names input indices
    with pytest.raises(ValueError, match="^cells 1 and 3 overlap$"):
        simple_function(REAL_LINE, [((9.0,), (10.0,), 1.0), ((0.0,), (2.0,), 0.0), ((4.0,), (5.0,), 1.0), ((1.0,), (3.0,), 1.0)])
    assert len(calls) == 2
