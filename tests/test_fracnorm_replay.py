"""A fractional-mean norm replays all of its exponent-free work: the line
ball sweep's sorted knots come from the "ball" slot, and a partition
fracnorm whose pieces are replayed skips its lattice steps, windows and
scale checks.  Every value is pinned, bit for bit, to the value the same
call gives with the slots cleared."""

import math

import pytest

from amalgams import amalgam, fracmean
from amalgams.amalgam import _SLOTS, _replay, ball_norm, ball_norms
from amalgams.fracmean import (
    ExponentTriple,
    _partition_norms,
    default_grid,
    fractional_norm_ball,
    fractional_norm_partition,
)
from amalgams.groups import ANISO_PLANE, REAL_LINE
from amalgams.simplefn import simple_function
from amalgams.verify import gen_random_simple

INF = math.inf
EXPONENTS = [(q, p) for q in (1.0, 1.5, 2.0, 3.0) for p in (1.0, 2.0, 4.0, INF)]
WINDOW = ((-4.0, 4.0),)


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


def _line_ops(f):
    """The line ball norm of f at two single radii and on its default grid,
    as (label, call) with call(q, p) giving the values' hex strings."""
    radii = default_grid(f).radii()
    ops = [(f"r={r}", lambda q, p, r=r: [ball_norm(f, REAL_LINE, r, q, p).hex()]) for r in radii[::16][:2]]
    ops.append(("grid", lambda q, p: [v.hex() for v in ball_norms(f, REAL_LINE, radii, q, p)]))
    return ops


def test_line_ball_norms_replayed_equal_the_cleared_values(made):
    fs = [gen_random_simple(500 + i, 1 + i % 12, WINDOW) for i in range(50)]
    ops = {i: _line_ops(f) for i, f in enumerate(fs)}
    ref = {}
    for i, f_ops in ops.items():
        for label, call in f_ops:
            for q, p in EXPONENTS:
                _SLOTS.clear()
                ref[i, label, q, p] = call(q, p)
    made.update(ball=0)
    calls = 0
    # each consumer over every exponent pair (a miss, then replays), the
    # functions interleaved two by two
    for a, b in zip(range(0, 50, 2), range(1, 50, 2)):
        for (label_a, call_a), (label_b, call_b) in zip(ops[a], ops[b]):
            for q, p in EXPONENTS:
                assert call_a(q, p) == ref[a, label_a, q, p], (a, label_a, q, p)
            for q, p in EXPONENTS:
                assert call_b(q, p) == ref[b, label_b, q, p], (b, label_b, q, p)
            calls += 2 * len(EXPONENTS)
    assert made["ball"] == 2 * 3 * 25 < calls / 8
    # every consumer at one exponent pair: each call replaces the slot
    for i in (0, 7, 11):
        for q, p in EXPONENTS:
            for label, call in ops[i]:
                assert call(q, p) == ref[i, label, q, p], (i, label, q, p)


def test_line_fracnorm_ball_replays_its_knots(made):
    f = gen_random_simple(3, 5, WINDOW)
    grid = default_grid(f)
    triples = [ExponentTriple(q, p, 2.0) for q, p in EXPONENTS if q <= 2.0 <= p]
    ref = []
    for t in triples:
        _SLOTS.clear()
        ref.append(fractional_norm_ball(f, REAL_LINE, t, grid))
    _SLOTS.clear()
    made.update(ball=0)
    assert [fractional_norm_ball(f, REAL_LINE, t, grid) for t in triples] == ref
    assert made["ball"] == 1
    knots = sum(block[0].size for block in _SLOTS["ball"][2])
    assert knots == 4 * len(f.cells) * len(grid.radii())


@pytest.fixture
def bookkeeping(monkeypatch):
    """The calls of the partition fracnorm's lattice steps and scale checks."""
    counts = {"cell_steps": 0, "check_scales": 0}
    for name in counts:

        def counted(*args, name=name, real=getattr(fracmean, name)):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(fracmean, name, counted)
    return counts


def test_a_replayed_partition_fracnorm_skips_its_bookkeeping(bookkeeping, made):
    f = gen_random_simple(21, 6, WINDOW)
    grid = default_grid(f)
    triples = [ExponentTriple(1.0, 4.0, 2.0), ExponentTriple(1.0, INF, 2.0), ExponentTriple(2.0, 3.0, 2.5)]
    triples.append(ExponentTriple(2.0, INF, 3.0))
    ref = []
    for t in triples:
        _SLOTS.clear()
        ref.append(fractional_norm_partition(f, REAL_LINE, t, grid))
    _SLOTS.clear()
    bookkeeping.update(cell_steps=0, check_scales=0)
    made.update(partition=0)
    values = [fractional_norm_partition(f, REAL_LINE, triples[0], grid)]
    assert bookkeeping == {"cell_steps": 1, "check_scales": 1} and made["partition"] == 1
    values += [fractional_norm_partition(f, REAL_LINE, t, grid) for t in triples[1:]]
    assert values == ref
    assert bookkeeping == {"cell_steps": 1, "check_scales": 1} and made["partition"] == 1
    # one radius changed: a miss, checked again, and equal to its cleared value
    radii = grid.radii()
    radii[5] *= 1.01
    moved = _partition_norms(f, REAL_LINE, radii, 2.0, 3.0)
    assert bookkeeping == {"cell_steps": 2, "check_scales": 2} and made["partition"] == 2
    _SLOTS.clear()
    assert [v.hex() for v in moved] == [v.hex() for v in _partition_norms(f, REAL_LINE, radii, 2.0, 3.0)]


def test_errors_keep_their_order_around_a_replay():
    f = gen_random_simple(5, 3, WINDOW)
    good = [0.5, 1.0, 2.0]
    bad = [0.5, -1.0, 2.0]
    scale = "scale r must be positive and finite"
    # a miss: group, then scale, then exponents
    with pytest.raises(ValueError, match="different groups"):
        _partition_norms(f, ANISO_PLANE, bad, 0.5, 2.0)
    with pytest.raises(ValueError, match=scale):
        _partition_norms(f, REAL_LINE, bad, 0.5, 2.0)
    with pytest.raises(ValueError, match="exponent"):
        _partition_norms(f, REAL_LINE, good, 0.5, 2.0)
    # right after a replay of the good radii
    _partition_norms(f, REAL_LINE, good, 1.0, 1.0)
    _partition_norms(f, REAL_LINE, good, 2.0, 2.0)
    assert amalgam._holds("partition", f, (REAL_LINE, tuple(good), *amalgam._caps()))
    with pytest.raises(ValueError, match="different groups"):
        _partition_norms(f, ANISO_PLANE, good, 0.5, 2.0)
    with pytest.raises(ValueError, match=scale):
        _partition_norms(f, REAL_LINE, bad, 0.5, 2.0)
    with pytest.raises(ValueError, match="exponent"):
        _partition_norms(f, REAL_LINE, good, 0.5, 2.0)
    with pytest.raises(ValueError, match="exponent"):
        _partition_norms(f, REAL_LINE, good, 2.0, math.nan)


def test_a_large_line_function_keeps_no_knots():
    f = simple_function(REAL_LINE, [((float(i),), (i + 0.5,), 1.0 + i % 7) for i in range(2000)])
    fractional_norm_ball(f, REAL_LINE, ExponentTriple(1.0, INF, 2.0), default_grid(f))
    assert "ball" not in _SLOTS


def test_memo_pieces_counts_knots_inclusively(monkeypatch):
    f = gen_random_simple(8, 4, WINDOW)
    radii = default_grid(f).radii()
    knots = 4 * len(f.cells) * len(radii)
    value = ball_norms(f, REAL_LINE, radii, 2.0, 3.0)
    assert sum(block[0].size for block in _SLOTS["ball"][2]) == knots < amalgam.MEMO_PIECES
    _SLOTS.clear()
    monkeypatch.setattr(amalgam, "MEMO_PIECES", knots)
    assert ball_norms(f, REAL_LINE, radii, 2.0, 3.0) == value
    assert "ball" in _SLOTS
    _SLOTS.clear()
    monkeypatch.setattr(amalgam, "MEMO_PIECES", knots - 1)
    assert ball_norms(f, REAL_LINE, radii, 2.0, 3.0) == value
    assert "ball" not in _SLOTS
