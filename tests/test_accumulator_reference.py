"""The partition accumulator's grouping and per-cell norms keep their bits:
``_sorted_pieces`` and ``_cells_norms`` are pinned bit for bit to the forms
they replaced, kept here as references.  Those reindexed every block after
its lexsort and took powers, roots and maxima in one Python pass each; the
package leaves a block already in order as it is, takes a run's maxima with
one reduceat, and skips the powers of exponent 1, which libm's pow gives
exactly."""

import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams.amalgam import _cells_norms, _sorted_pieces
from amalgams.simplefn import _lost_digits, _power_sums, _times_pow2

INF = math.inf
P_VALUES = (1.0, 1.5, 2.0, 3.0, INF)


def _reference_sorted_pieces(pieces):
    """The blocks of a partition_pieces stream, grouped by (radius, cell index)
    with a stable sort and reindexed in that order."""
    for radius, box, idx, m in pieces:
        if not len(radius):
            continue
        order = np.lexsort((*idx.T[::-1], radius))
        radius, idx = radius[order], idx[order]
        new = np.ones(len(order), dtype=bool)
        new[1:] = (radius[1:] != radius[:-1]) | np.any(idx[1:] != idx[:-1], axis=1)
        starts = np.flatnonzero(new)
        owner = radius[starts]
        firsts = [0, *(np.flatnonzero(owner[1:] != owner[:-1]) + 1).tolist()]
        yield box[order], m[order], np.cumsum(new) - 1, starts, firsts, owner[firsts].tolist()


def _reference_cells_norms(local, firsts, p, e):
    """The ell^p norm of each run of local (a list), powers, roots and maxima
    taken per value."""
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


def _bits(xs):
    return [struct.pack("<d", x) for x in xs]


@st.composite
def piece_streams(draw):
    """Blocks (radius, box, cell index, measure) of whole radii, each block's
    pieces in (radius, cell index) order or shuffled, empty blocks included."""
    d = draw(st.integers(1, 3))
    blocks, r0 = [], 0
    for _ in range(draw(st.integers(1, 3))):
        radii = draw(st.integers(0, 4))
        n = draw(st.integers(0, 30)) if radii else 0
        radius = np.sort(np.array(draw(st.lists(st.integers(r0, r0 + max(radii - 1, 0)), min_size=n, max_size=n)), dtype=np.int64))
        idx = np.array(draw(st.lists(st.lists(st.integers(-3, 3), min_size=d, max_size=d), min_size=n, max_size=n)), dtype=float).reshape(n, d)
        box = np.array(draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)), dtype=np.int64)
        m = np.array(draw(st.lists(st.floats(1e-3, 8.0), min_size=n, max_size=n)))
        how = draw(st.sampled_from(["sorted", "shuffled", "stream"]))
        if how == "sorted":
            order = np.lexsort((*idx.T[::-1], radius))
        elif how == "shuffled":
            order = np.array(draw(st.permutations(range(n))), dtype=np.int64)
        else:
            order = np.arange(n)
        blocks.append((radius[order], box[order], idx[order], m[order]))
        r0 += radii
    return blocks


@settings(max_examples=200, deadline=None)
@given(piece_streams())
def test_sorted_pieces_is_the_reindexed_sort(blocks):
    new, ref = list(_sorted_pieces(iter(blocks))), list(_reference_sorted_pieces(iter(blocks)))
    assert len(new) == len(ref)
    for a, b in zip(new, ref):
        for x, y in zip(a, b):
            if isinstance(y, list):
                assert x == y
            else:
                assert x.dtype == y.dtype and x.shape == y.shape
                assert np.array_equal(x, y)


def test_sorted_pieces_keeps_a_block_in_order():
    radius = np.array([0, 0, 1, 1, 1])
    idx = np.array([[0.0], [1.0], [-1.0], [-1.0], [2.0]])
    box, m = np.arange(5), np.linspace(1.0, 2.0, 5)
    out, arrays = next(_sorted_pieces([(radius, box, idx, m)])), (box, m)
    assert out[0] is arrays[0] and out[1] is arrays[1]
    assert out[4:] == ([0, 2], [0, 1])
    shuffled = next(_sorted_pieces([(radius[::-1], box, idx, m)]))
    assert shuffled[0] is not box


# Local norms at every scale, subnormals included, so that powers overflow
# and underflow and the fallback of _power_sums runs.
LOCAL = st.floats(min_value=0.0, max_value=1e300, allow_subnormal=True) | st.sampled_from([1e-200, 1e-300, 5e-324, 1e150, 1.0])


@st.composite
def runs_of_local_norms(draw):
    local = draw(st.lists(LOCAL, min_size=1, max_size=40))
    cuts = draw(st.sets(st.integers(1, len(local) - 1), max_size=len(local) - 1)) if len(local) > 1 else set()
    return local, [0, *sorted(cuts)]


@settings(max_examples=300, deadline=None)
@given(runs_of_local_norms(), st.sampled_from(P_VALUES), st.sampled_from([0, 0, -300, 300, 1100]))
@example(([1e-200, 1e-200, 3.0], [0, 2]), 2.0, 0)
@example(([5e-324], [0]), 3.0, 0)
@example(([1e300, 1e300, 1e300], [0]), 1.0, 5)
@example(([0.5] * 9 + [2.0], [0, 9]), INF, -300)
def test_cells_norms_match_the_per_value_form(runs, p, e):
    local, firsts = runs
    try:
        ref = _reference_cells_norms(local, firsts, p, e)
    except (ValueError, OverflowError) as exc:
        ref = type(exc)
    for arg in (local, np.array(local)):
        try:
            new = _cells_norms(arg, firsts, p, e)
        except (ValueError, OverflowError) as exc:
            new = type(exc)
        assert new == ref if isinstance(ref, type) else _bits(new) == _bits(ref)


@settings(max_examples=500, deadline=None)
@given(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False, allow_subnormal=True))
@example(5e-324)
@example(2.2250738585072014e-308)
@example(1.7976931348623157e308)
def test_power_one_is_the_value(x):
    assert struct.pack("<d", x**1.0) == struct.pack("<d", x)
