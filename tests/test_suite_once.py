"""Each suite criterion builds its seeded functions once and evaluates every
exponent on them.  The reports are pinned, field for field, to test-local
copies of the per-exponent loops they replace (one function build per
exponent and sample, scanned by the two separate worst-sample loops), and
the builds and partition streams are counted."""

import json
import math
from dataclasses import asdict, replace

import pytest

from amalgams import amalgam, verify
from amalgams.amalgam import _replay, ball_norm, conv_q_indicator, partition_norm
from amalgams.fracmean import (
    NONTRIVIAL,
    ExponentTriple,
    default_grid,
    fractional_norm_ball,
    fractional_norm_partition,
    inv,
    partition_for,
)
from amalgams.groups import HEISENBERG, REAL_LINE
from amalgams.partitions import partition_constants
from amalgams.simplefn import lebesgue_norm, lorentz_norm
from amalgams.verify import (
    InequalityCase,
    SuiteConfig,
    _scale_of,
    _wide_grid,
    gen_random_simple,
    misuse_case,
    run_suite,
)

INF = math.inf
CFG = SuiteConfig(
    seed=11,
    n_identity=4,
    n_equivalence=3,
    n_embedding=4,
    n_sandwich=4,
    n_monotonicity=3,
    n_kolmogorov=3,
    n_weak_embedding=4,
    n_limit=4,
)


# -- the replaced code ---------------------------------------------------------


def one_sided_case(case_id, samples, constant=1.0, tolerance=0.0, context=None):
    worst_m, worst = math.inf, (0.0, 0.0)
    n = 0
    for lhs, rhs in samples:
        n += 1
        m = (rhs * constant - lhs) / _scale_of(lhs, rhs * constant)
        if m < worst_m or math.isnan(m):
            worst_m, worst = m, (lhs, rhs)
    if n == 0:
        worst_m, worst = 0.0, (0.0, 0.0)
    ctx = dict(context or {})
    ctx["samples"] = n
    status = "pass" if worst_m >= -tolerance else "fail"
    return InequalityCase(case_id, worst[0], worst[1], constant, worst_m, status, tolerance, ctx)


def identity_case(case_id, samples, tolerance, context=None):
    worst_d, worst = -math.inf, (0.0, 0.0)
    n = 0
    for a, b in samples:
        n += 1
        d = abs(a - b) / _scale_of(a, b)
        if d > worst_d or math.isnan(d):
            worst_d, worst = d, (a, b)
    if n == 0:
        worst_d, worst = 0.0, (0.0, 0.0)
    ctx = dict(context or {})
    ctx["samples"] = n
    status = "pass" if worst_d <= tolerance else "fail"
    return InequalityCase(case_id, worst[0], worst[1], 1.0, -worst_d, status, tolerance, ctx)


def diagonal_identity(cfg):
    g = REAL_LINE
    cases = []
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        samples = []
        for i in range(cfg.n_identity):
            f = gen_random_simple(cfg.seed + i, 1 + i % 16, cfg.window, g)
            r = 2.0 ** (i % 5 - 2)
            part = partition_for(f, g, r)
            samples.append((partition_norm(f, part, p, p), lebesgue_norm(f, p)))
        cases.append(identity_case(f"diagonal-identity-p={p}", samples, 1e-12, {"group": g.name}))
    return cases


def fubini_identity(cfg):
    g = REAL_LINE
    cases = []
    for q in (1.0, 2.0, 3.0):
        samples = []
        for i in range(cfg.n_identity):
            f = gen_random_simple(cfg.seed + 13 * i, 1 + i % 12, cfg.window, g)
            r = 2.0 ** (i % 5 - 2)
            samples.append((ball_norm(f, g, r, q, q), g.ball_measure(r) ** (1.0 / q) * lebesgue_norm(f, q)))
        cases.append(identity_case(f"fubini-identity-q={q}", samples, 1e-9, {"group": g.name}))
    return cases


def equivalence_instance(cfg, g, q, p, n_functions, radii, window, max_cells):
    base_q, base_p = partition_constants(g)
    upper_const = base_q ** (g.rho * inv(q)) * base_p ** (g.rho * inv(p))
    floor = 0.8 * (4.0 * g.gamma**2) ** (-g.rho * inv(p))
    ratios = []
    for i in range(n_functions):
        f = gen_random_simple(cfg.seed + 31 * i, 1 + i % max_cells, window, g)
        for r in radii:
            bn = ball_norm(f, g, r, q, p)
            part = partition_for(f, g, r)
            pn = partition_norm(f, part, q, p)
            ratios.append(r ** (-g.rho * inv(p)) * bn / pn)
    ctx = {
        "group": g.name,
        "q": q,
        "p": p,
        "observed_min": min(ratios),
        "observed_max": max(ratios),
        "empirical_floor": floor,
    }
    return [
        one_sided_case(
            f"partition-ball-equivalence-upper-{g.name}-q={q}-p={p}",
            [(rr, upper_const) for rr in ratios],
            1.0,
            0.0,
            ctx,
        ),
        one_sided_case(
            f"partition-ball-equivalence-lower-{g.name}-q={q}-p={p}",
            [(floor, rr) for rr in ratios],
            1.0,
            0.0,
            ctx,
        ),
    ]


def partition_ball_equivalence(cfg):
    cases = []
    line_radii = [2.0**k for k in range(-2, 3)]
    for q, p in ((1.0, 2.0), (2.0, 4.0)):
        cases += equivalence_instance(cfg, REAL_LINE, q, p, cfg.n_equivalence, line_radii, cfg.window, 12)
    heis_window = ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))
    heis_radii = [0.75 * 2.0**k for k in range(5)]
    return cases + equivalence_instance(
        cfg, HEISENBERG, 2.0, 4.0, cfg.n_equivalence, heis_radii, heis_window, 3
    )


def lebesgue_embedding(cfg):
    g = REAL_LINE
    cases = []
    for q, p, alpha in cfg.embedding_triples:
        t = ExponentTriple(q, p, alpha)
        if t.classify() != NONTRIVIAL:
            cases.append(
                misuse_case(
                    f"lebesgue-embedding-{q}-{p}-{alpha}",
                    f"triple classified {t.classify()}; the embedding needs q <= alpha <= p",
                )
            )
            continue
        samples = []
        for i in range(cfg.n_embedding):
            f = gen_random_simple(cfg.seed + 7 * i, 1 + i % 12, cfg.window, g)
            res = fractional_norm_partition(f, g, t, default_grid(f))
            samples.append((res.value, lebesgue_norm(f, alpha)))
        cases.append(
            one_sided_case(
                f"lebesgue-embedding-q={q}-p={p}-alpha={alpha}", samples, 1.0, 1e-9, {"group": g.name}
            )
        )
    return cases


def alpha_endpoint_sandwiches(cfg):
    g = REAL_LINE
    cases = []
    base_q, base_p = partition_constants(g)
    for q, p in ((1.0, 2.0), (2.0, 4.0)):
        cq = base_q ** (g.rho * (inv(q) - inv(p)))
        cp = base_q ** (g.rho * inv(q)) * base_p ** (g.rho * inv(p))
        low_q, up_q, low_p, up_p = [], [], [], []
        for i in range(cfg.n_sandwich):
            f = gen_random_simple(cfg.seed + 17 * i, 1 + i % 10, cfg.window, g)
            grid = _wide_grid(f)
            nq = lebesgue_norm(f, q)
            np_ = lebesgue_norm(f, p)
            vq = fractional_norm_partition(f, g, ExponentTriple(q, p, q), grid).value
            vp = fractional_norm_partition(f, g, ExponentTriple(q, p, p), grid).value
            low_q.append((vq, nq))
            up_q.append((nq, vq))
            low_p.append((vp, np_))
            up_p.append((np_, vp))
        cases.append(one_sided_case(f"alpha-eq-q-upper-q={q}-p={p}", low_q, 1.0, 1e-9))
        cases.append(one_sided_case(f"alpha-eq-q-lower-q={q}-p={p}", up_q, cq, 1e-9, {"constant": cq}))
        cases.append(one_sided_case(f"alpha-eq-p-upper-q={q}-p={p}", low_p, 1.0, 1e-9))
        cases.append(one_sided_case(f"alpha-eq-p-lower-q={q}-p={p}", up_p, cp, 1e-9, {"constant": cp}))
    return cases


def exponent_monotonicity(cfg):
    g = REAL_LINE
    q1, p1, alpha, q2, p2 = 1.0, 4.0, 2.0, 2.0, 3.0
    const = (1.0 / (2.0 * g.gamma)) ** (g.rho * (inv(q1) - inv(q2)))
    samples = []
    for i in range(cfg.n_monotonicity):
        f = gen_random_simple(cfg.seed + 23 * i, 1 + i % 10, cfg.window, g)
        grid = default_grid(f)
        lhs = fractional_norm_partition(f, g, ExponentTriple(q1, p1, alpha), grid).value
        rhs = fractional_norm_partition(f, g, ExponentTriple(q2, p2, alpha), grid).value
        samples.append((lhs, rhs))
    ctx = {"q1": q1, "p1": p1, "alpha": alpha, "q2": q2, "p2": p2, "constant": const}
    return [one_sided_case("exponent-monotonicity", samples, const, 1e-9, ctx)]


def kolmogorov_bound(cfg):
    g = REAL_LINE
    cases = []
    for q, alpha in ((1.0, 2.0), (2.0, 3.0)):
        const = (alpha / (alpha - q)) ** (1.0 / q)
        samples = []
        for i in range(cfg.n_kolmogorov):
            f = gen_random_simple(cfg.seed + 29 * i, 1 + i % 12, cfg.window, g)
            weak = lorentz_norm(f, alpha, INF)
            for r in default_grid(f).radii():
                lhs = conv_q_indicator(f, q, r, g.identity()) ** (1.0 / q)
                rhs = weak * g.ball_measure(r) ** (1.0 / q - 1.0 / alpha)
                samples.append((lhs, rhs))
        cases.append(
            one_sided_case(f"kolmogorov-bound-q={q}-alpha={alpha}", samples, const, 1e-9, {"constant": const})
        )
    return cases


def weak_lorentz_embedding(cfg):
    g = REAL_LINE
    cases = []
    for q, alpha in ((1.0, 2.0), (2.0, 3.0)):
        const = (alpha / (alpha - q)) ** (1.0 / q)
        t = ExponentTriple(q, INF, alpha)
        samples = []
        for i in range(cfg.n_weak_embedding):
            f = gen_random_simple(cfg.seed + 41 * i, 1 + i % 12, cfg.window, g)
            lhs = fractional_norm_ball(f, g, t, default_grid(f)).value
            samples.append((lhs, lorentz_norm(f, alpha, INF)))
        cases.append(
            one_sided_case(
                f"weak-lorentz-embedding-q={q}-alpha={alpha}", samples, const, 1e-9, {"constant": const}
            )
        )
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


# criterion -> (replaced body, its count field, function builds per sample)
REPLACED = {
    "diagonal-identity": (diagonal_identity, "n_identity", 1),
    "fubini-identity": (fubini_identity, "n_identity", 1),
    "partition-ball-equivalence": (partition_ball_equivalence, "n_equivalence", 2),  # line, Heisenberg
    "lebesgue-embedding": (lebesgue_embedding, "n_embedding", 1),
    "alpha-endpoint-sandwiches": (alpha_endpoint_sandwiches, "n_sandwich", 1),
    "exponent-monotonicity": (exponent_monotonicity, "n_monotonicity", 1),
    "kolmogorov-bound": (kolmogorov_bound, "n_kolmogorov", 1),
    "weak-lorentz-embedding": (weak_lorentz_embedding, "n_weak_embedding", 1),
    "covering-limit": (covering_limit, "n_limit", 1),
}


def _report(cases):
    return [json.dumps(asdict(c), sort_keys=True) for c in cases]


# -- the pins ------------------------------------------------------------------


@pytest.mark.parametrize("name", list(REPLACED))
def test_criterion_equals_its_per_exponent_loops(name):
    cfg = replace(CFG, criteria=(name,))
    new = run_suite(cfg)
    ref = REPLACED[name][0](cfg)
    assert all(c.status == "pass" for c in new)
    assert _report(new) == _report(ref)


def test_embedding_triples_keep_their_order_and_misuse_rows():
    triples = ((2.0, 3.0, 2.5), (3.0, 4.0, 2.0), (1.0, INF, 2.0), (1.0, 2.0, 4.0))
    cfg = replace(CFG, criteria=("lebesgue-embedding",), embedding_triples=triples)
    cases = run_suite(cfg)
    assert [c.status for c in cases] == ["pass", "misuse", "pass", "misuse"]
    assert _report(cases) == _report(lebesgue_embedding(cfg))


@pytest.mark.parametrize("name", list(REPLACED))
def test_each_function_is_built_once(monkeypatch, name):
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[0])
        return gen_random_simple(*args, **kwargs)

    monkeypatch.setattr(verify, "gen_random_simple", counting)
    _, field, per = REPLACED[name]
    cfg = replace(CFG, criteria=(name,), **{field: 4})
    assert run_suite(cfg)[0].status == "pass"
    assert len(calls) == 4 * per


def test_embedding_makes_the_partition_stream_once_per_function(monkeypatch):
    made = []

    def counting(kind, f, key, make):
        def counted():
            made.append((kind, f))
            return make()

        return _replay(kind, f, key, counted)

    monkeypatch.setattr(amalgam, "_replay", counting)
    cfg = replace(CFG, criteria=("lebesgue-embedding",))
    assert len(cfg.embedding_triples) == 4
    assert [c.status for c in run_suite(cfg)] == ["pass"] * 4
    assert [kind for kind, _ in made] == ["partition"] * cfg.n_embedding
    assert len({id(f) for _, f in made}) == cfg.n_embedding
