"""One call's exponent-free blocks serve the next call on the same function
and scale: the partition pieces and the ball-mesh rows are replayed from
one slot per kind.  Every value is pinned, bit for bit, to the value the
same call gives with the slots cleared, and the slots are pinned to hold
only the last finished stream of at most MEMO_PIECES rows."""

import math

import numpy as np
import pytest

from amalgams import amalgam, groups
from amalgams.amalgam import _SLOTS, _replay, ball_norm, compute_norm, partition_norm
from amalgams.fracmean import (
    ExponentTriple,
    RadiusGrid,
    _partition_norms,
    divergence_diagnostic,
    fractional_norm_partition,
    partition_for,
)
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.simplefn import _cells_hold, _unit_exponent, simple_function

INF = math.inf
ALL = (REAL_LINE, ANISO_PLANE, HEISENBERG)
# (1100, 1100) takes the local norms through _power_sums
EXPONENTS = [(q, p) for q in (1.0, 2.0, 3.0, INF) for p in (1.0, 2.0, 3.0, INF)] + [(1100.0, 1100.0)]
CELLS = {
    "real-line": [((0.0,), (0.75,), 1.0), ((1.0,), (1.6,), 0.5), ((-1.3,), (-0.4,), 2.0)],
    "aniso-plane": [((0.0, 0.0), (0.75, 0.5), 1.0), ((1.0, -1.0), (1.6, 0.25), 0.5)],
    "heisenberg": [((0.0, 0.0, 0.0), (0.5, 0.5, 0.25), 1.0), ((-0.5, 0.25, -0.25), (0.0, 0.75, 0.0), 0.5)],
}
RADII = (0.5, 1.5)
GRID = RadiusGrid(0.5, 2.0, 2)


@pytest.fixture(autouse=True)
def empty_slots():
    _SLOTS.clear()
    yield
    _SLOTS.clear()


@pytest.fixture
def made(monkeypatch):
    """The streams each kind has made anew (its misses), counted through
    the make argument of _replay."""
    counts = {"partition": 0, "ball": 0}

    def counting(kind, f, key, make):
        def counted():
            counts[kind] += 1
            return make()

        return _replay(kind, f, key, counted)

    monkeypatch.setattr(amalgam, "_replay", counting)
    return counts


def _bits(x):
    if isinstance(x, float):
        return x.hex()
    return tuple(_bits(v) for v in x)


def _ops(f, g):
    """Every memoized consumer at each radius, mesh and exponent pair, as
    (label, call) with call(q, p) giving the value's floats."""

    def diagnostic(q, p):
        if q > 1.0:  # alpha < q: the r -> inf end of the grid
            t = ExponentTriple(q, p, 1.0)
        elif p < INF:  # p < alpha: the r -> 0 end
            t = ExponentTriple(q, p, p + 1.0)
        else:
            return ()
        d = divergence_diagnostic(f, g, t, GRID, points=3)
        return (d.slope, *d.values)

    def fracnorm(q, p):
        res = fractional_norm_partition(f, g, ExponentTriple(q, p, 2.0), GRID)
        return res.value, res.argmax_r

    def ball(q, p, r, mesh):
        if g.d == 1 and q == 1100.0:
            return ()  # the line's exact sweep is no power sum: it raises there
        return compute_norm(f, g, "ball", q, p, r, mesh).value

    ops = []
    for r in RADII:
        ops.append((f"partition_norm r={r}", lambda q, p, r=r: partition_norm(f, partition_for(f, g, r), q, p)))
        ops.append((f"_partition_norms r={r}", lambda q, p, r=r: _partition_norms(f, g, [r], q, p)))
        for mesh in (None, r / 2.0):
            ops.append((f"ball r={r} mesh={mesh}", lambda q, p, r=r, mesh=mesh: ball(q, p, r, mesh)))
    ops.append(("fractional_norm_partition", fracnorm))
    ops.append(("divergence_diagnostic", diagnostic))
    return ops


def _cleared(call, q, p):
    _SLOTS.clear()
    return _bits(call(q, p))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_interleaved_calls_equal_the_cleared_values(g, made):
    f = simple_function(g, CELLS[g.name])
    e = _unit_exponent(f.max_value, 1100.0, 1100.0)
    assert not _cells_hold(f, 1100.0, [math.ldexp(c.value, -e) ** 1100.0 for c in f.cells])
    ops = _ops(f, g)
    ref = {(label, q, p): _cleared(call, q, p) for label, call in ops for q, p in EXPONENTS}
    made.update(partition=0, ball=0)
    calls = 0
    # one consumer over every exponent pair: a miss, then replays
    for label, call in ops:
        for q, p in EXPONENTS:
            assert _bits(call(q, p)) == ref[label, q, p], (label, q, p)
            calls += 1
    assert made["partition"] + made["ball"] < calls / 4
    # every consumer in turn at one exponent pair
    for q, p in EXPONENTS:
        for label, call in ops:
            assert _bits(call(q, p)) == ref[label, q, p], (label, q, p)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_an_equal_function_is_a_miss(g, made):
    f, twin = (simple_function(g, CELLS[g.name]) for _ in range(2))
    part = partition_for(f, g, 1.0)
    first = partition_norm(f, part, 2.0, 3.0)
    assert made["partition"] == 1 and _SLOTS["partition"][0] is f
    assert partition_norm(f, part, 1.0, 1.0) == partition_norm(f, part, 1.0, 1.0)
    assert made["partition"] == 1
    assert partition_norm(twin, part, 2.0, 3.0) == first
    assert made["partition"] == 2 and _SLOTS["partition"][0] is twin
    if g.d > 1:  # the line's ball norm is an exact sweep, with no rows
        first = ball_norm(f, g, 1.0, 2.0, 3.0)
        assert ball_norm(f, g, 1.0, 1.0, 1.0) > 0.0 and made["ball"] == 1
        assert ball_norm(twin, g, 1.0, 2.0, 3.0) == first
        assert made["ball"] == 2 and _SLOTS["ball"][0] is twin


def test_a_lower_cap_raises_on_a_replay(monkeypatch):
    f = simple_function(HEISENBERG, CELLS["heisenberg"])
    part = partition_for(f, HEISENBERG, 0.6)
    lo = np.array([c.lo for c in f.cells])
    hi = np.array([c.hi for c in f.cells])
    cap = math.ceil(HEISENBERG.geometry.piece_bound(part.steps, lo, hi))
    monkeypatch.setattr(groups, "MAX_PIECES", cap)
    partition_norm(f, part, 1.0, 1.0)
    assert "partition" in _SLOTS
    monkeypatch.setattr(groups, "MAX_PIECES", cap - 1)
    with pytest.raises(ValueError, match=rf"pieces, more than {cap - 1}"):
        partition_norm(f, part, 1.0, 1.0)
    with pytest.raises(ValueError, match=rf"pieces, more than {cap - 1}"):
        _partition_norms(f, HEISENBERG, [0.6], 2.0, 2.0)

    # the y-mesh of the ball quadrature at r = 0.6, mesh r/3
    lo, hi, h = np.array(HEISENBERG.geometry.quadrature_axes(f.bounding_box(), 0.6, 0.6 / 3.0)).T
    points = int(np.prod(np.maximum(2.0, np.ceil((hi - lo) / h))))
    monkeypatch.setattr(groups, "MAX_PIECES", points)
    ball_norm(f, HEISENBERG, 0.6, 1.0, 1.0)
    assert "ball" in _SLOTS
    monkeypatch.setattr(groups, "MAX_PIECES", points - 1)
    with pytest.raises(ValueError, match=rf"needs {points} y-points, more than {points - 1}"):
        ball_norm(f, HEISENBERG, 0.6, 1.0, 1.0)


@pytest.mark.parametrize("g", [ANISO_PLANE, HEISENBERG], ids=lambda g: g.name)
def test_memo_pieces_bounds_what_is_kept(g, monkeypatch):
    f = simple_function(g, CELLS[g.name])
    part = partition_for(f, g, 1.0)
    partition_norm(f, part, 1.0, 1.0)
    pieces = sum(len(block[0]) for block in _SLOTS["partition"][2])
    ball_norm(f, g, 1.0, 1.0, 1.0)
    rows = sum(len(block[0]) for block in _SLOTS["ball"][2])
    assert 1 < pieces < amalgam.MEMO_PIECES and 1 < rows < amalgam.MEMO_PIECES
    for kind, size, call in (
        ("partition", pieces, lambda: partition_norm(f, part, 2.0, 2.0)),
        ("ball", rows, lambda: ball_norm(f, g, 1.0, 2.0, 2.0)),
    ):
        _SLOTS.clear()
        monkeypatch.setattr(amalgam, "MEMO_PIECES", size)  # inclusive
        value = call()
        assert kind in _SLOTS
        _SLOTS.clear()
        monkeypatch.setattr(amalgam, "MEMO_PIECES", size - 1)
        assert call() == value
        assert kind not in _SLOTS


def test_a_stream_that_raises_leaves_no_entry(monkeypatch):
    f = simple_function(REAL_LINE, CELLS["real-line"])
    partition_norm(f, partition_for(f, REAL_LINE, 1.0), 1.0, 1.0)
    assert "partition" in _SLOTS
    # one radius per block, and the second radius past the cap: the first
    # block is summed before the stream raises
    monkeypatch.setattr(groups, "BLOCK_PIECES", 1)
    monkeypatch.setattr(groups, "MAX_PIECES", 100)
    with pytest.raises(ValueError, match="pieces, more than 100"):
        _partition_norms(f, REAL_LINE, [1.0, 1e-3], 1.0, 1.0)
    assert "partition" not in _SLOTS


def test_replay_saves_only_a_finished_stream():
    f = simple_function(REAL_LINE, CELLS["real-line"])
    blocks = [(np.arange(3),), (np.arange(2),)]

    def broken():
        yield blocks[0]
        raise ValueError("mid-stream")

    with pytest.raises(ValueError, match="mid-stream"):
        list(_replay("k", f, (1,), broken))
    assert "k" not in _SLOTS
    stream = _replay("k", f, (1,), lambda: iter(blocks))
    next(stream)
    stream.close()  # a consumer that stops early
    assert "k" not in _SLOTS
    assert list(_replay("k", f, (1,), lambda: iter(blocks))) == blocks
    assert _SLOTS["k"] == (f, (1,), blocks)
    assert list(_replay("k", f, (1,), lambda: iter(()))) == blocks  # a replay
    assert list(_replay("k", f, (2,), lambda: iter(()))) == []  # another key
    assert _SLOTS["k"] == (f, (2,), [])
