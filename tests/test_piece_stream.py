"""The one partition-norm path: ``partition_norm`` and the batched
``_partition_norms`` both sum the pieces of ``partition_pieces`` with one
accumulator.  Both are pinned bit for bit to the per-piece dict sum they
replaced, kept here as the reference and driven by the one-box form of
``intersections_with_box``."""

import math

import numpy as np
import pytest

from amalgams import groups
from amalgams.amalgam import _cells_norms, partition_norm
from amalgams.fracmean import _partition_norms, partition_for
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.partitions import cell_steps
from amalgams.simplefn import _unit_exponent, simple_function
from amalgams.verify import gen_random_simple

INF = math.inf
ALL = (REAL_LINE, ANISO_PLANE, HEISENBERG)
EXPONENTS = (1.0, 1.5, 2.0, INF)
WINDOW = ((-2.0, 2.0), (-1.0, 3.0), (-0.5, 0.5))


def _cells_norm(acc, q, p, e):
    """The norm of one run of _cells_norms from each cell's sum of v^q lambda
    (its max v at q = inf)."""
    return _cells_norms(acc if math.isinf(q) else [a ** (1.0 / q) for a in acc], [0], p, e)[0]


def _box_pieces(f, part):
    """Each cell's pieces, from the one-box form of intersections_with_box."""
    return [list(part.intersections_with_box(c.lo, c.hi)) for c in f.cells]


def _dict_partition_norm(f, pieces, q, p):
    """The partition norm summed piece by piece into a dict keyed by cell;
    pieces[n] holds the pieces of f.cells[n]."""
    e = _unit_exponent(f.max_value, q, p)
    acc = {}
    if math.isinf(q):
        for c, cell_pieces in zip(f.cells, pieces):
            v = math.ldexp(c.value, -e)
            for idx, m in cell_pieces:
                if m > 0.0:
                    acc[idx] = max(acc.get(idx, 0.0), v)
    else:
        for c, cell_pieces in zip(f.cells, pieces):
            vq = math.ldexp(c.value, -e) ** q
            for idx, m in cell_pieces:
                acc[idx] = acc.get(idx, 0.0) + vq * m
    return _cells_norm(list(acc.values()), q, p, e)


def _panel(g, value_scale):
    """Seeded functions whose cells sit off the dyadic lattice, so that
    several boxes cut the same partition cell at odd offsets; then one of
    them with its cells listed last to first, and a one-cell function."""
    rng = np.random.default_rng(17)
    for seed in range(3):
        f = gen_random_simple(seed, 2 + seed, WINDOW[: g.d], g)
        shift = rng.uniform(0.01, 0.2, size=g.d)
        cells = [
            (np.add(c.lo, shift), np.add(c.hi, shift), c.value * value_scale * rng.uniform(0.5, 2.0))
            for c in f.cells
        ]
        yield simple_function(g, cells)
    yield simple_function(g, cells[::-1])
    yield simple_function(g, cells[:1])


def _in_order(blocks) -> list[bool]:
    """Whether each block of a piece stream is in (radius, cell index) order
    already, its lexsort the identity."""
    out = []
    for radius, _, idx, _ in blocks:
        order = np.lexsort((*idx.T[::-1], radius))
        out.append(bool((order == np.arange(len(order))).all()))
    return out


@pytest.mark.parametrize("value_scale", [1.0, 1e300, 1e-300])
@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_partition_norms_match_the_dict_sum(g, value_scale):
    radii = [1.0, 2.5]
    in_order = []  # of every stream summed, so that both kinds of block meet the dict sum
    for f in _panel(g, value_scale):
        parts = [partition_for(f, g, r) for r in radii]
        pieces = [_box_pieces(f, part) for part in parts]
        in_order += _in_order(g.geometry.partition_pieces(cell_steps(g, radii), f.lo, f.hi))
        for part in parts:
            in_order += _in_order(part.intersections_with_box(f.lo, f.hi))
        for q in EXPONENTS:
            for p in EXPONENTS:
                ref = [_dict_partition_norm(f, pcs, q, p) for pcs in pieces]
                assert [partition_norm(f, part, q, p) for part in parts] == ref
                assert _partition_norms(f, g, radii, q, p) == ref
                assert all(0.0 < v < INF for v in ref)
    assert True in in_order and False in in_order


def _at_cap(g, f, part):
    """MAX_PIECES at which the partition's pieces of f just pass the cap:
    their exact count on the box groups, the Heisenberg piece bound
    rounded up."""
    lo = np.array([c.lo for c in f.cells])
    hi = np.array([c.hi for c in f.cells])
    if g is HEISENBERG:
        return math.ceil(g.geometry.piece_bound(part.steps, lo, hi))
    return sum(len(m) for _, _, _, m in part.intersections_with_box(lo, hi))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_partition_norms_at_the_piece_cap(g, monkeypatch):
    f = next(_panel(g, 1.0))
    r = 0.6
    part = partition_for(f, g, r)
    cap = _at_cap(g, f, part)
    monkeypatch.setattr(groups, "MAX_PIECES", cap)
    pieces = _box_pieces(f, part)
    for q, p in ((1.0, 1.0), (1.5, INF), (INF, 2.0)):
        ref = _dict_partition_norm(f, pieces, q, p)
        assert partition_norm(f, part, q, p) == ref
        assert _partition_norms(f, g, [r], q, p) == [ref]
    monkeypatch.setattr(groups, "MAX_PIECES", cap - 1)
    with pytest.raises(ValueError, match=rf"pieces, more than {cap - 1}"):
        partition_norm(f, part, 1.0, 1.0)
    with pytest.raises(ValueError, match=rf"pieces, more than {cap - 1}"):
        _partition_norms(f, g, [r], 1.0, 1.0)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_one_box_and_array_forms_give_the_same_pieces(g):
    f = next(_panel(g, 1.0))
    part = partition_for(f, g, 0.8)
    lo = np.array([c.lo for c in f.cells])
    hi = np.array([c.hi for c in f.cells])
    blocks = part.intersections_with_box(lo, hi)
    assert iter(blocks) is blocks
    flat = []
    for radius, box, idx, m in blocks:
        assert not radius.any() and (m > 0.0).all()
        flat += [(int(b), tuple(int(k) for k in i), x) for b, i, x in zip(box, idx, m.tolist())]
    one_box = part.intersections_with_box(f.cells[0].lo, f.cells[0].hi)
    assert iter(one_box) is one_box
    assert flat == [
        (b, idx, m) for b, c in enumerate(f.cells) for idx, m in part.intersections_with_box(c.lo, c.hi)
    ]
