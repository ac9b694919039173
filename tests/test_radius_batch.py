"""The suite criteria that take a function at several radii evaluate them in
one call per (function, exponents).  Their reports are pinned, field for
field, to test-local copies of the per-radius loops they replace; the radii
form of conv_q_indicator is pinned bit for bit to the single-radius body it
replaced on every group; and the batched calls are counted."""

import json
import math
from collections import Counter
from dataclasses import asdict, replace

import numpy as np
import pytest

from amalgams import verify
from amalgams.amalgam import (
    ball_norm,
    ball_norms,
    conv_q_indicator,
    conv_q_indicators,
    partition_norm,
)
from amalgams.fracmean import _partition_norms, default_grid, inv, partition_for
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.partitions import partition_constants
from amalgams.simplefn import (
    _check_exponent,
    _check_measures,
    _lost_digits,
    _power_sums,
    _times_pow2,
    _unit_exponent,
    lebesgue_norm,
    lorentz_norm,
    simple_function,
)
from amalgams.verify import (
    WEAK_PAIRS,
    SuiteConfig,
    gen_random_simple,
    identity_case,
    one_sided_case,
    run_suite,
)

INF = math.inf
CFGS = [
    SuiteConfig(seed=seed, n_equivalence=n, n_kolmogorov=n, n_limit=n) for seed, n in ((5, 3), (2024, 4))
]


# -- the replaced per-radius loops -----------------------------------------------


def equivalence_instance(cfg, g, pairs, radii, window, max_cells):
    base_q, base_p = partition_constants(g)
    ratios = [[] for _ in pairs]
    for i in range(cfg.n_equivalence):
        f = gen_random_simple(cfg.seed + 31 * i, 1 + i % max_cells, window, g)
        for r in radii:
            part = partition_for(f, g, r)
            for col, (q, p) in zip(ratios, pairs):
                col.append(r ** (-g.rho * inv(p)) * ball_norm(f, g, r, q, p) / partition_norm(f, part, q, p))
    cases = []
    for (q, p), col in zip(pairs, ratios):
        upper_const = base_q ** (g.rho * inv(q)) * base_p ** (g.rho * inv(p))
        floor = 0.8 * (4.0 * g.gamma**2) ** (-g.rho * inv(p))
        ctx = {
            "group": g.name,
            "q": q,
            "p": p,
            "observed_min": min(col),
            "observed_max": max(col),
            "empirical_floor": floor,
        }
        name = f"{g.name}-q={q}-p={p}"
        upper = [(rr, upper_const) for rr in col]
        cases.append(one_sided_case(f"partition-ball-equivalence-upper-{name}", upper, 1.0, 0.0, ctx))
        lower = [(floor, rr) for rr in col]
        cases.append(one_sided_case(f"partition-ball-equivalence-lower-{name}", lower, 1.0, 0.0, ctx))
    return cases


def partition_ball_equivalence(cfg):
    line_radii = [2.0**k for k in range(-2, 3)]
    heis_window = ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))
    heis_radii = [0.75 * 2.0**k for k in range(5)]
    return equivalence_instance(
        cfg, REAL_LINE, ((1.0, 2.0), (2.0, 4.0)), line_radii, cfg.window, 12
    ) + equivalence_instance(cfg, HEISENBERG, ((2.0, 4.0),), heis_radii, heis_window, 3)


def kolmogorov_bound(cfg):
    g = REAL_LINE
    cols = [[] for _ in WEAK_PAIRS]
    for i in range(cfg.n_kolmogorov):
        f = gen_random_simple(cfg.seed + 29 * i, 1 + i % 12, cfg.window, g)
        radii = default_grid(f).radii()
        for col, (q, alpha) in zip(cols, WEAK_PAIRS):
            weak = lorentz_norm(f, alpha, INF)
            for r in radii:
                lhs = old_conv_q_indicator(f, q, r, g.identity()) ** (1.0 / q)
                col.append((lhs, weak * g.ball_measure(r) ** (1.0 / q - 1.0 / alpha)))
    cases = []
    for (q, alpha), col in zip(WEAK_PAIRS, cols):
        const = (alpha / (alpha - q)) ** (1.0 / q)
        cases.append(one_sided_case(f"kolmogorov-bound-q={q}-alpha={alpha}", col, const, 1e-9, {"constant": const}))
    return cases


def covering_limit(cfg):
    g = REAL_LINE
    mono, attain = [], []
    for i in range(cfg.n_limit):
        f = gen_random_simple(cfg.seed + 43 * i, 1 + i % 10, cfg.window, g)
        q = (1.0, 2.0, 3.0)[i % 3]
        bb = f.bounding_box()
        cover_r = 1.01 * (bb[0][1] - bb[0][0]) / 2.0
        radii = [cover_r * 2.0 ** (k - 4) for k in range(5)]
        vals = [ball_norm(f, g, r, q, INF) for r in radii]
        mono.extend((vals[k], vals[k + 1]) for k in range(len(vals) - 1))
        attain.append((vals[-1], lebesgue_norm(f, q)))
    return [
        one_sided_case("covering-limit-monotone", mono, 1.0, 1e-12),
        identity_case("covering-limit-attained", attain, 1e-12),
    ]


def old_conv_q_indicator(f, q, r, x, mesh=48):
    """The single-radius body the radii form replaced."""
    q = _check_exponent(q)
    if math.isinf(q):
        raise ValueError("q = inf is not supported here; use the sup-norm branch")
    if not 0 < r < math.inf:
        raise ValueError("ball radius must be positive and finite")
    cells = f.cells
    if not cells:
        return 0.0
    lo = np.array([c.lo for c in cells])
    hi = np.array([c.hi for c in cells])
    ys = np.broadcast_to(np.asarray(x, dtype=float), lo.shape)
    measures = f.group.geometry.ball_box_measure(ys, r, lo, hi, mesh).tolist()
    _check_measures(f, q)
    hit = [(c.value, m) for c, m in zip(cells, measures) if m > 0.0]
    values, weights = [v for v, _ in hit], [m for _, m in hit]
    e = _unit_exponent(f.max_value, q)
    powers = [math.ldexp(v, -e) ** q for v in values]
    total = sum(x * m for x, m in zip(powers, weights))
    if _lost_digits(powers, weights, [total]):
        return _power_sums(values, q, weights, root=False)[0]
    k = math.floor(e * q)
    return _times_pow2(total * 2.0 ** (e * q - k), k)


REPLACED = {
    "partition-ball-equivalence": partition_ball_equivalence,
    "kolmogorov-bound": kolmogorov_bound,
    "covering-limit": covering_limit,
}


def _report(cases):
    return [json.dumps(asdict(c), sort_keys=True) for c in cases]


# -- the pins ------------------------------------------------------------------


@pytest.mark.parametrize("cfg", CFGS, ids=lambda c: f"seed={c.seed}")
@pytest.mark.parametrize("name", list(REPLACED))
def test_criterion_equals_its_per_radius_loops(name, cfg):
    cfg = replace(cfg, criteria=(name,))
    new = run_suite(cfg)
    ref = REPLACED[name](cfg)
    assert all(c.status == "pass" for c in new)
    assert _report(new) == _report(ref)


GROUP_CASES = [
    (REAL_LINE, ((-4.0, 4.0),), (4.5,)),
    (ANISO_PLANE, ((-2.0, 2.0), (-4.0, 4.0)), (2.5, -1.0)),
    (HEISENBERG, ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)), (1.5, 0.25, 0.5)),
]
# the smallest ball about x misses every cell; the largest holds them all
CONV_RADII = [0.125, 0.5, 1.0, 1.75, 3.0, 8.0]


def _bits(xs):
    return [x.hex() for x in xs]


@pytest.mark.parametrize("q", [1.0, 1.5, 2.0, 3.0, 1100.0])
@pytest.mark.parametrize("g, window, x", GROUP_CASES, ids=[g.name for g, _, _ in GROUP_CASES])
def test_conv_radii_form_is_the_single_radius_body(g, window, x, q):
    for seed in (3, 4):
        f = gen_random_simple(seed, 3, window, g)
        ref = [old_conv_q_indicator(f, q, r, x) for r in CONV_RADII]
        assert ref[0] == 0.0
        # where the ball meets a cell, a q-th power the old body rounded to
        # 0.0 (aniso-plane, seed 3, q = 1100) is now the float-range error
        lost = [r for r, v in zip(CONV_RADII, ref) if v == 0.0 and old_conv_q_indicator(f, 1.0, r, x) > 0.0]
        for r in lost:
            with pytest.raises(ValueError, match="float range"):
                conv_q_indicator(f, q, r, x)
        if lost:
            with pytest.raises(ValueError, match="float range"):
                conv_q_indicators(f, q, CONV_RADII, x)
        radii = [r for r in CONV_RADII if r not in lost]
        ref = [v for r, v in zip(CONV_RADII, ref) if r not in lost]
        assert _bits(conv_q_indicators(f, q, radii, x)) == _bits(ref)
        assert _bits([conv_q_indicator(f, q, r, x) for r in radii]) == _bits(ref)


def test_conv_radii_form_validates_like_the_single_radius_calls():
    f = gen_random_simple(3, 3, ((-4.0, 4.0),), REAL_LINE)
    x = REAL_LINE.identity()
    for radii in ([1.0, -1.0, 0.5], [0.5, 0.0], [1.0, INF, -2.0], [2.0, math.nan]):
        bad = next(r for r in radii if not 0 < r < INF)
        with pytest.raises(ValueError) as batch:
            conv_q_indicators(f, 2.0, radii, x)
        with pytest.raises(ValueError) as loop:
            [old_conv_q_indicator(f, 2.0, r, x) for r in radii]
        with pytest.raises(ValueError) as single:
            conv_q_indicator(f, 2.0, bad, x)
        assert str(batch.value) == str(loop.value) == str(single.value)
    with pytest.raises(ValueError, match="q = inf"):
        conv_q_indicators(f, INF, [1.0], x)
    assert conv_q_indicators(simple_function(REAL_LINE, []), 2.0, [1.0, 2.0], x) == [0.0, 0.0]
    assert conv_q_indicators(f, 2.0, [], x) == []


@pytest.mark.parametrize("g, window, x", GROUP_CASES, ids=[g.name for g, _, _ in GROUP_CASES])
def test_ball_box_measure_takes_an_array_of_radii(g, window, x):
    f = gen_random_simple(5, 4, window, g)
    lo = np.array([c.lo for c in f.cells])
    hi = np.array([c.hi for c in f.cells])
    ys = np.broadcast_to(np.asarray(x, dtype=float), lo.shape)
    rows = g.geometry.ball_box_measure(ys, np.array(CONV_RADII), lo, hi, 16)
    assert rows.shape == (len(CONV_RADII), len(f.cells))
    assert not rows[0].any() and rows[-1].all()
    for row, r in zip(rows.tolist(), CONV_RADII):
        assert _bits(row) == _bits(g.geometry.ball_box_measure(ys, r, lo, hi, 16).tolist())


@pytest.fixture
def calls(monkeypatch):
    """The suite's batched calls, as (kind, function, q, p, radii).  Each
    function is kept alive, so that no later function reuses its id."""
    seen, alive = [], []

    def counting(kind, fn):
        def wrapper(f, *args, **kwargs):
            alive.append(f)
            if kind == "conv":
                q, radii = args[0], args[1]
                seen.append((kind, id(f), q, None, len(radii)))
            else:
                radii, q, p = args[1], args[2], args[3]
                seen.append((kind, id(f), q, p, len(radii)))
            return fn(f, *args, **kwargs)

        return wrapper

    def single(*args, **kwargs):
        raise AssertionError("a single-radius call")

    monkeypatch.setattr(verify, "ball_norms", counting("ball", ball_norms))
    monkeypatch.setattr(verify, "_partition_norms", counting("partition", _partition_norms))
    monkeypatch.setattr(verify, "conv_q_indicators", counting("conv", conv_q_indicators))
    monkeypatch.setattr(verify, "ball_norm", single)
    monkeypatch.setattr(verify, "partition_norm", single)
    return seen


def test_equivalence_makes_one_ball_and_one_partition_call_per_function_and_pair(calls):
    cfg = replace(CFGS[0], criteria=("partition-ball-equivalence",))
    assert all(c.status == "pass" for c in run_suite(cfg))
    n = cfg.n_equivalence
    per_kind = Counter(kind for kind, *_ in calls)
    assert per_kind == {"ball": 3 * n, "partition": 3 * n}  # two line pairs, one Heisenberg pair
    assert set(Counter(calls).values()) == {1}  # one call per (kind, function, pair)
    assert {radii for *_, radii in calls} == {5}


def test_covering_limit_makes_one_ball_call_per_function(calls):
    cfg = replace(CFGS[0], criteria=("covering-limit",))
    assert all(c.status == "pass" for c in run_suite(cfg))
    assert [(kind, p, radii) for kind, _, _, p, radii in calls] == [("ball", INF, 5)] * cfg.n_limit
    assert len({f for _, f, *_ in calls}) == cfg.n_limit


def test_kolmogorov_makes_one_conv_call_per_function_and_pair(calls):
    cfg = replace(CFGS[0], criteria=("kolmogorov-bound",))
    assert all(c.status == "pass" for c in run_suite(cfg))
    assert Counter(kind for kind, *_ in calls) == {"conv": len(WEAK_PAIRS) * cfg.n_kolmogorov}
    assert set(Counter(calls).values()) == {1}
    assert {radii for *_, radii in calls} == {33}  # default_grid: 8 octaves of 4 steps, and r_max
