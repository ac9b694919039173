"""Test-function generation, the radial-profile lemma checks, and the
orchestrated inequality suite.

Every check reduces to an :class:`InequalityCase` carrying both numeric
sides, the constant in force, and a relative margin, so that failures
are auditable from the report alone.  ``run_suite`` executes the whole
checklist deterministically for a given config and never lets one
broken case abort the rest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .amalgam import ball_norm, conv_q_indicator, partition_norm
from .counterexample import fractional_bound_constant, union_growth
from .fracmean import (
    NONTRIVIAL,
    ExponentTriple,
    RadiusGrid,
    _min_cell_extent,
    conjugate,
    default_grid,
    divergence_diagnostic,
    fractional_norm_ball,
    fractional_norm_partition,
    inv,
    partition_for,
    support_scale,
)
from .groups import ANISO_PLANE, HEISENBERG, REAL_LINE, GroupDescriptor
from .partitions import build_pi_r, count_translate_hits, n_pi_bound, partition_constants
from .simplefn import SimpleFunction, lebesgue_norm, lorentz_norm, pointwise_combine, simple_function

INF = math.inf


@dataclass(frozen=True)
class InequalityCase:
    id: str
    lhs: float
    rhs: float
    constant: float
    margin: float
    status: str  # "pass" | "fail" | "misuse" | "error"
    tolerance: float
    context: dict

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "constant": self.constant,
            "margin": self.margin,
            "status": self.status,
            "tolerance": self.tolerance,
            "context": self.context,
        }


def _scale_of(*vals: float) -> float:
    return max(max((abs(v) for v in vals), default=0.0), 1e-30)


def one_sided_case(
    case_id: str,
    samples: Iterable[tuple[float, float]],
    constant: float = 1.0,
    tolerance: float = 0.0,
    context: dict | None = None,
) -> InequalityCase:
    """Worst relative margin of lhs <= rhs * constant over the samples;
    a NaN margin (a non-finite side) is the worst and fails."""
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


def identity_case(
    case_id: str,
    samples: Iterable[tuple[float, float]],
    tolerance: float,
    context: dict | None = None,
) -> InequalityCase:
    """Worst relative deviation of paired values that should agree; a NaN
    deviation (a non-finite value) is the worst and fails."""
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
    return InequalityCase(
        case_id, worst[0], worst[1], 1.0, -worst_d, status, tolerance, ctx
    )


def misuse_case(case_id: str, reason: str, context: dict | None = None) -> InequalityCase:
    ctx = dict(context or {})
    ctx["reason"] = reason
    return InequalityCase(case_id, 0.0, 0.0, 1.0, 0.0, "misuse", 0.0, ctx)


def error_case(case_id: str, exc: Exception) -> InequalityCase:
    return InequalityCase(
        case_id, 0.0, 0.0, 1.0, -math.inf, "error", 0.0, {"exception": repr(exc)}
    )


# -- random simple functions -------------------------------------------------


def gen_random_simple(
    seed: int,
    cells: int,
    window: Sequence[tuple[float, float]],
    group: GroupDescriptor = REAL_LINE,
) -> SimpleFunction:
    """Deterministic random simple function: disjoint dyadic cells in the
    window, log-uniform values in (0.1, 10]."""
    if cells < 1:
        raise ValueError("need at least one cell")
    rng = np.random.default_rng(seed)
    lo0, hi0 = window[0]
    nslots = 1 << max(1, math.ceil(math.log2(cells)))
    slot = (hi0 - lo0) / nslots
    chosen = sorted(rng.choice(nslots, size=cells, replace=False))
    out = []
    for s in chosen:
        depth = int(rng.integers(0, 3))
        length = slot * 2.0**-depth
        lo = [lo0 + s * slot]
        hi = [lo[0] + length]
        for ax in range(1, group.d):
            alo, ahi = window[ax]
            d2 = int(rng.integers(0, 3))
            seg = (ahi - alo) * 2.0**-d2
            pos = int(rng.integers(0, 1 << d2))
            lo.append(alo + pos * seg)
            hi.append(alo + (pos + 1) * seg)
        value = 10.0 ** rng.uniform(-1.0, 1.0)
        out.append((tuple(lo), tuple(hi), value))
    return simple_function(group, out)


# -- radial profiles and the tail-norm lemmas --------------------------------


@dataclass(frozen=True)
class RadialDiscretization:
    function: SimpleFunction
    shell_edges: tuple[float, ...]
    shell_errors: tuple[float, ...]  # per-shell sup-norm oscillation


def radial_power_fn(
    g: GroupDescriptor,
    kind: str,
    theta: float,
    truncation: tuple[float, float],
    mesh: float = 0.02,
    sample: str = "inner-edge",
) -> RadialDiscretization:
    """Piecewise-constant discretization of a radial power profile.

    ``kind`` selects "power" for |y|^(-rho/theta') or "damped" for
    (gamma + gamma |y|)^(-rho/theta'); shells are geometric with
    relative width ``mesh``.  ``sample`` picks the per-shell value:
    "inner-edge" (an upper bound, the profiles decrease) or
    "geometric-midpoint" (second-order accurate).
    """
    if g != REAL_LINE:
        raise ValueError("radial discretizations ship on the real line only")
    if not (1.0 < theta) or math.isinf(theta):
        raise ValueError("need 1 < theta < inf")
    inner, outer = truncation
    if not (0.0 <= inner < outer):
        raise ValueError("bad truncation radii")
    s = g.rho / conjugate(theta)
    if kind == "power":
        if inner <= 0.0:
            raise ValueError("the pure power profile needs a positive inner radius")
        profile = lambda t: t**-s
    elif kind == "damped":
        profile = lambda t: (g.gamma + g.gamma * t) ** -s
    else:
        raise ValueError(f"unknown radial profile kind {kind!r}")
    start = inner if inner > 0.0 else outer * 1e-6
    edges = [inner] if inner == 0.0 else []
    t = start
    while t < outer:
        edges.append(t)
        t *= 1.0 + mesh
    edges.append(outer)
    cells = []
    errors = []
    for a, b in zip(edges[:-1], edges[1:]):
        if sample == "inner-edge":
            v = profile(a) if a > 0.0 else profile(0.0)
        elif sample == "geometric-midpoint":
            v = profile(math.sqrt(a * b)) if a > 0.0 else profile(0.5 * (a + b))
        else:
            raise ValueError(f"unknown sample rule {sample!r}")
        errors.append(abs(profile(max(a, 1e-300)) - profile(b)) if a > 0.0 else abs(profile(0.0) - profile(b)))
        cells.append(((a,), (b,), v))
        if a > 0.0:
            cells.append(((-b,), (-a,), v))
        else:
            cells[-1] = ((-b,), (b,), v)
    fn = simple_function(g, cells)
    return RadialDiscretization(fn, tuple(edges), tuple(errors))


def pin_radial_constant(
    g: GroupDescriptor, s: float, a: float, b: float, shells: int = 4000
) -> float:
    """Numeric polar-integration oracle for the radial-tail constant.

    Solves integral_{a<|y|<b} |y|^(-s) dlambda = (C0/d)(a^(-d) - b^(-d))
    with d = s - rho for C0, using exact shell measures r2^rho - r1^rho.
    The normalization lambda(B(e, r)) = r^rho forces C0 = rho.
    """
    if not (0 < a < b) or s <= g.rho:
        raise ValueError("need 0 < a < b and s > rho")
    kappa = (b / a) ** (1.0 / shells)
    total = 0.0
    r1 = a
    for _ in range(shells):
        r2 = r1 * kappa
        mid = math.sqrt(r1 * r2)
        total += (r2**g.rho - r1**g.rho) * mid**-s
        r1 = r2
    d = s - g.rho
    return total * d / (a**-d - b**-d)


def tail_norm_constant(theta: float, p: float, a: float, g: GroupDescriptor = REAL_LINE) -> float:
    """Closed form of the conjugate-norm tail of the power profile past radius a."""
    if not (1.0 <= p < theta) or math.isinf(theta):
        raise ValueError("need 1 <= p < theta < inf")
    if a <= 0:
        raise ValueError("need a > 0")
    s = g.rho / conjugate(theta)
    if p == 1.0:
        return a**-s
    pp = conjugate(p)
    d = g.rho * (pp / conjugate(theta) - 1.0)
    c0 = g.rho
    return (c0 * a**-d / d) ** (1.0 / pp)


def tail_constant_check(
    theta: float,
    p: float,
    a: float,
    g: GroupDescriptor = REAL_LINE,
    mesh: float = 0.005,
) -> InequalityCase:
    """Numeric tail norm of the radial power profile against the closed form."""
    closed = tail_norm_constant(theta, p, a, g)
    ctx = {"theta": theta, "p": p, "a": a, "group": g.name}
    if p == 1.0:
        disc = radial_power_fn(g, "power", theta, (a, 4.0 * a), mesh, sample="inner-edge")
        numeric = lebesgue_norm(disc.function, INF)
        return identity_case("tail-norm-constant", [(numeric, closed)], 0.005, ctx)
    pp = conjugate(p)
    s = g.rho / conjugate(theta)
    d = g.rho * (pp / conjugate(theta) - 1.0)
    outer = a * 5.0 ** (1.0 / d)
    c0 = pin_radial_constant(g, pp * s, a, outer)
    ctx["pinned_c0"] = c0
    disc = radial_power_fn(g, "power", theta, (a, outer), mesh, sample="geometric-midpoint")
    truncated = lebesgue_norm(disc.function, pp)
    corrected = (truncated**pp + c0 * outer**-d / d) ** (1.0 / pp)
    return identity_case("tail-norm-constant", [(corrected, closed)], 0.005, ctx)


def damped_tail_check(
    theta: float,
    p: float,
    q: float,
    eps: float,
    r: float,
    g: GroupDescriptor = REAL_LINE,
    mesh: float = 0.02,
    allowance: float = 0.02,
) -> InequalityCase:
    """Ball norm of the damped radial tail against the tail-norm
    constant at eps/(2 gamma) times the ball-measure weight."""
    if not (1.0 <= p < theta) or math.isinf(theta):
        raise ValueError("need 1 <= p < theta < inf")
    if not (0.0 < eps < 2.0 * g.gamma):
        raise ValueError("need 0 < eps < 2 gamma")
    if not (0.0 < r < eps / (2.0 * g.gamma)):
        raise ValueError("need 0 < r < eps / (2 gamma)")
    qq, pp = conjugate(q), conjugate(p)
    outer = eps * 2.0**12
    disc = radial_power_fn(g, "damped", theta, (eps, outer), mesh, sample="inner-edge")
    lhs = ball_norm(disc.function, g, r, qq, pp)
    k = tail_norm_constant(theta, p, eps / (2.0 * g.gamma), g)
    rhs = k if math.isinf(qq) else k * g.ball_measure(r) ** (1.0 / qq)
    ctx = {
        "theta": theta,
        "p": p,
        "q": q,
        "eps": eps,
        "r": r,
        "outer_truncation": outer,
        "tail_constant": k,
    }
    return one_sided_case(
        "damped-tail-bound", [(lhs, rhs)], 1.0 + allowance, 0.0, ctx
    )


# -- suite configuration ------------------------------------------------------


@dataclass(frozen=True)
class SuiteConfig:
    seed: int = 2024
    criteria: tuple[str, ...] | None = None  # None means all
    n_identity: int = 100
    n_equivalence: int = 200
    n_embedding: int = 200
    n_holder: int = 200
    n_sandwich: int = 100
    n_monotonicity: int = 100
    n_kolmogorov: int = 100
    n_weak_embedding: int = 100
    n_limit: int = 100
    n_translates: int = 1000
    max_levels: int = 8
    embedding_triples: tuple[tuple[float, float, float], ...] = (
        (1.0, 4.0, 2.0),
        (1.0, INF, 2.0),
        (2.0, 3.0, 2.5),
        (2.0, INF, 3.0),
    )
    window: tuple[tuple[float, float], ...] = ((-4.0, 4.0),)

    def selected(self) -> tuple[str, ...]:
        if self.criteria is None:
            return ALL_CRITERIA
        for name in self.criteria:
            if name not in ALL_CRITERIA:
                raise ValueError(f"unknown criterion {name!r}")
        return self.criteria


def _wide_grid(f: SimpleFunction) -> RadiusGrid:
    sc = max(support_scale(f), 1e-6)
    return RadiusGrid(_min_cell_extent(f) / 8.0, 32.0 * sc, 4)


# -- criteria -----------------------------------------------------------------


def check_diagonal_identity(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    cases = []
    for p in (1.0, 1.5, 2.0, 3.0, INF):
        samples = []
        for i in range(cfg.n_identity):
            f = gen_random_simple(cfg.seed + i, 1 + i % 16, cfg.window, g)
            r = 2.0 ** (i % 5 - 2)
            part = partition_for(f, g, r)
            samples.append((partition_norm(f, part, p, p), lebesgue_norm(f, p)))
        cases.append(
            identity_case(
                f"diagonal-identity-p={p}", samples, 1e-12, {"group": g.name}
            )
        )
    return cases


def check_fubini_identity(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    cases = []
    for q in (1.0, 2.0, 3.0):
        samples = []
        for i in range(cfg.n_identity):
            f = gen_random_simple(cfg.seed + 13 * i, 1 + i % 12, cfg.window, g)
            r = 2.0 ** (i % 5 - 2)
            samples.append(
                (
                    ball_norm(f, g, r, q, q),
                    g.ball_measure(r) ** (1.0 / q) * lebesgue_norm(f, q),
                )
            )
        cases.append(
            identity_case(f"fubini-identity-q={q}", samples, 1e-9, {"group": g.name})
        )
    return cases


def _equivalence_instance(
    cfg: SuiteConfig,
    g: GroupDescriptor,
    q: float,
    p: float,
    n_functions: int,
    radii: Sequence[float],
    window,
    max_cells: int,
) -> list[InequalityCase]:
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
    upper = one_sided_case(
        f"partition-ball-equivalence-upper-{g.name}-q={q}-p={p}",
        [(rr, upper_const) for rr in ratios],
        1.0,
        0.0,
        ctx,
    )
    lower = one_sided_case(
        f"partition-ball-equivalence-lower-{g.name}-q={q}-p={p}",
        [(floor, rr) for rr in ratios],
        1.0,
        0.0,
        ctx,
    )
    return [upper, lower]


def check_partition_ball_equivalence(cfg: SuiteConfig) -> list[InequalityCase]:
    cases = []
    line_radii = [2.0**k for k in range(-2, 3)]
    for q, p in ((1.0, 2.0), (2.0, 4.0)):
        cases.extend(
            _equivalence_instance(
                cfg, REAL_LINE, q, p, cfg.n_equivalence, line_radii, cfg.window, 12
            )
        )
    heis_window = ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))
    heis_radii = [0.75 * 2.0**k for k in range(5)]
    cases.extend(
        _equivalence_instance(
            cfg, HEISENBERG, 2.0, 4.0, cfg.n_equivalence, heis_radii, heis_window, 3
        )
    )
    return cases


def check_lebesgue_embedding(cfg: SuiteConfig) -> list[InequalityCase]:
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
                f"lebesgue-embedding-q={q}-p={p}-alpha={alpha}",
                samples,
                1.0,
                1e-9,
                {"group": g.name},
            )
        )
    return cases


HOLDER_SPLITTINGS = (
    ((2.0, 8.0, 4.0), (2.0, 8.0, 4.0), (1.0, 4.0, 2.0)),
    ((2.0, 6.0, 3.0), (3.0, 12.0, 6.0), (1.2, 4.0, 2.0)),
    ((2.0, INF, 4.0), (2.0, INF, 4.0), (1.0, INF, 2.0)),
)


def check_holder_product(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    cases = []
    per = max(1, cfg.n_holder // len(HOLDER_SPLITTINGS))
    for si, (t1, t2, t) in enumerate(HOLDER_SPLITTINGS):
        t1, t2, t = ExponentTriple(*t1), ExponentTriple(*t2), ExponentTriple(*t)
        samples = []
        for i in range(per):
            f = gen_random_simple(cfg.seed + 3 * i + si, 1 + i % 10, cfg.window, g)
            h = gen_random_simple(cfg.seed + 1000 + 5 * i + si, 1 + (i + 3) % 10, cfg.window, g)
            prod = pointwise_combine(f, h, op="product")
            grid = default_grid(f if support_scale(f) >= support_scale(h) else h)
            lhs = fractional_norm_partition(prod, g, t, grid).value
            rhs = (
                fractional_norm_partition(f, g, t1, grid).value
                * fractional_norm_partition(h, g, t2, grid).value
            )
            samples.append((lhs, rhs))
        cases.append(
            one_sided_case(
                f"holder-product-{si}",
                samples,
                1.0,
                1e-9,
                {"factors": (t1.q, t1.p, t1.alpha, t2.q, t2.p, t2.alpha)},
            )
        )
    return cases


def check_alpha_endpoint_sandwiches(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    cases = []
    pairs = ((1.0, 2.0), (2.0, 4.0))
    base_q, base_p = partition_constants(g)
    for q, p in pairs:
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
        cases.append(
            one_sided_case(f"alpha-eq-q-upper-q={q}-p={p}", low_q, 1.0, 1e-9)
        )
        cases.append(
            one_sided_case(f"alpha-eq-q-lower-q={q}-p={p}", up_q, cq, 1e-9, {"constant": cq})
        )
        cases.append(
            one_sided_case(f"alpha-eq-p-upper-q={q}-p={p}", low_p, 1.0, 1e-9)
        )
        cases.append(
            one_sided_case(f"alpha-eq-p-lower-q={q}-p={p}", up_p, cp, 1e-9, {"constant": cp})
        )
    return cases


def check_exponent_monotonicity(cfg: SuiteConfig) -> list[InequalityCase]:
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
    return [
        one_sided_case(
            "exponent-monotonicity",
            samples,
            const,
            1e-9,
            {"q1": q1, "p1": p1, "alpha": alpha, "q2": q2, "p2": p2, "constant": const},
        )
    ]


def check_kolmogorov_bound(cfg: SuiteConfig) -> list[InequalityCase]:
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
            one_sided_case(
                f"kolmogorov-bound-q={q}-alpha={alpha}",
                samples,
                const,
                1e-9,
                {"constant": const},
            )
        )
    return cases


def check_weak_lorentz_embedding(cfg: SuiteConfig) -> list[InequalityCase]:
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
                f"weak-lorentz-embedding-q={q}-alpha={alpha}",
                samples,
                const,
                1e-9,
                {"constant": const},
            )
        )
    return cases


def check_degeneracy_slopes(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    f = simple_function(g, [((0.0,), (2.0,), 1.0)])
    low = divergence_diagnostic(f, g, ExponentTriple(2.0, INF, 1.0))
    high = divergence_diagnostic(f, g, ExponentTriple(1.0, 1.0, 2.0))
    cases = [
        identity_case(
            "degeneracy-slope-low",
            [(low.slope, low.theory)],
            0.05,
            {"end": low.end, "theory": low.theory},
        ),
        identity_case(
            "degeneracy-slope-high",
            [(high.slope, high.theory)],
            0.05,
            {"end": high.end, "theory": high.theory},
        ),
    ]
    return cases


def check_sparse_union(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    q, p, alpha = 1.0, 4.0, 2.0
    consts = fractional_bound_constant(q, p, alpha, g)
    levels = union_growth(q, p, alpha, cfg.max_levels)
    weak = [lvl["weak_lorentz"] for lvl in levels]
    growth_ok = all(b > a for a, b in zip([0.0] + weak, weak))
    cases = [
        identity_case(
            "sparse-union-weak-norms",
            [(lvl["measure"] ** (1.0 / alpha), lvl["weak_lorentz"]) for lvl in levels],
            1e-12,
            {"strictly_increasing": growth_ok, "levels": cfg.max_levels},
        ),
        one_sided_case(
            "sparse-union-bounded",
            [(lvl["fractional_ball_norm"], consts.bound) for lvl in levels],
            1.0,
            1e-9,
            {
                "bound": consts.bound,
                "c1": consts.c1,
                "c2": consts.c2,
                "c4": consts.c4,
            },
        ),
    ]
    if not growth_ok:
        cases[0] = replace(cases[0], status="fail")
    return cases


def check_translate_counting(cfg: SuiteConfig) -> list[InequalityCase]:
    cases = []
    r = 1.0
    for g in (REAL_LINE, ANISO_PLANE, HEISENBERG):
        rng = np.random.default_rng(cfg.seed + 5)
        ext = 16.0
        # holds every translate's bounding box, also when sheared in t
        window = tuple((-3.0 * ext, 3.0 * ext) for _ in range(g.d))
        part = build_pi_r(g, r, window)
        bound = n_pi_bound(g, part.u_radius, r / (2.0 * g.gamma), r)
        centres = rng.uniform(-ext, ext, size=(cfg.n_translates, g.d))
        counts = count_translate_hits(part, r, centres)
        samples = [(float(count), bound) for count in counts.tolist()]
        cases.append(
            one_sided_case(
                f"translate-counting-{g.name}",
                samples,
                1.0,
                0.0,
                {"bound": bound, "scale_r": r},
            )
        )
    return cases


def check_covering_limit(cfg: SuiteConfig) -> list[InequalityCase]:
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


def check_tail_norm_constant(cfg: SuiteConfig) -> list[InequalityCase]:
    params = ((4.0, 2.0, 1.0), (4.0, 2.0, 4.0), (3.0, 1.5, 2.0), (2.0, 1.0, 4.0))
    return [tail_constant_check(theta, p, a) for theta, p, a in params]


def check_damped_tail_bound(cfg: SuiteConfig) -> list[InequalityCase]:
    params = (
        (4.0, 2.0, 2.0, 1.0, 0.2),
        (4.0, 2.0, 1.0, 1.0, 0.2),
        (3.0, 1.5, 2.0, 0.5, 0.1),
        (4.0, 2.0, 4.0, 1.0, 0.2),
    )
    return [damped_tail_check(theta, p, q, eps, r) for theta, p, q, eps, r in params]


CRITERIA: dict[str, Callable[[SuiteConfig], list[InequalityCase]]] = {
    "diagonal-identity": check_diagonal_identity,
    "fubini-identity": check_fubini_identity,
    "partition-ball-equivalence": check_partition_ball_equivalence,
    "lebesgue-embedding": check_lebesgue_embedding,
    "holder-product": check_holder_product,
    "alpha-endpoint-sandwiches": check_alpha_endpoint_sandwiches,
    "exponent-monotonicity": check_exponent_monotonicity,
    "kolmogorov-bound": check_kolmogorov_bound,
    "weak-lorentz-embedding": check_weak_lorentz_embedding,
    "degeneracy-slopes": check_degeneracy_slopes,
    "sparse-union": check_sparse_union,
    "translate-counting": check_translate_counting,
    "covering-limit": check_covering_limit,
    "tail-norm-constant": check_tail_norm_constant,
    "damped-tail-bound": check_damped_tail_bound,
}
ALL_CRITERIA = tuple(CRITERIA)


def run_suite(cfg: SuiteConfig = SuiteConfig()) -> list[InequalityCase]:
    """Run the selected criteria; construction errors become per-case
    reports instead of aborting the suite."""
    cases: list[InequalityCase] = []
    for name in cfg.selected():
        try:
            cases.extend(CRITERIA[name](cfg))
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            cases.append(error_case(name, exc))
    return cases


def suite_passed(cases: Iterable[InequalityCase]) -> bool:
    return all(c.status in ("pass", "misuse") for c in cases)
