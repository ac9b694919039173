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
import time
from dataclasses import asdict, astuple, dataclass, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from .amalgam import ball_norm, ball_norms, conv_q_indicators, partition_norm
from .counterexample import fractional_bound_constant, union_growth
from .fracmean import (
    NONTRIVIAL,
    ExponentTriple,
    RadiusGrid,
    _min_cell_extent,
    _partition_norms,
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
        return asdict(self)


def _scale_of(*vals: float) -> float:
    return max(max((abs(v) for v in vals), default=0.0), 1e-30)


def one_sided_case(
    case_id: str,
    samples: Iterable[tuple[float, float]],
    constant: float = 1.0,
    tolerance: float = 0.0,
    context: dict | None = None,
) -> InequalityCase:
    """Worst relative margin of lhs <= rhs * constant over the samples."""
    scored = (((rhs * constant - lhs) / _scale_of(lhs, rhs * constant), lhs, rhs) for lhs, rhs in samples)
    return _worst_case(case_id, scored, constant, tolerance, context)


def identity_case(
    case_id: str,
    samples: Iterable[tuple[float, float]],
    tolerance: float,
    context: dict | None = None,
) -> InequalityCase:
    """Worst relative deviation of paired values that should agree, as a
    margin of minus the deviation."""
    scored = ((-abs(a - b) / _scale_of(a, b), a, b) for a, b in samples)
    return _worst_case(case_id, scored, 1.0, tolerance, context)


def _worst_case(case_id, scored, constant, tolerance, context) -> InequalityCase:
    """The case of the smallest margin over (margin, lhs, rhs) samples; the
    first of equal margins is kept, and a NaN margin (a non-finite side) is
    the worst and fails.  It passes iff that margin is >= -tolerance; no
    samples give margin 0."""
    worst_m, worst = math.inf, (0.0, 0.0)
    n = 0
    for m, lhs, rhs in scored:
        n += 1
        if m < worst_m or math.isnan(m):
            worst_m, worst = m, (lhs, rhs)
    if n == 0:
        worst_m = 0.0
    ctx = dict(context or {})
    ctx["samples"] = n
    status = "pass" if worst_m >= -tolerance else "fail"
    return InequalityCase(case_id, *worst, constant, worst_m, status, tolerance, ctx)


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
        errors.append(abs(profile(max(a, 1e-300) if a > 0.0 else 0.0) - profile(b)))
        cells.append(((a,), (b,), v))
        if a > 0.0:
            cells.append(((-b,), (-a,), v))
        else:
            cells[-1] = ((-b,), (b,), v)
    fn = simple_function(g, cells)
    return RadialDiscretization(fn, tuple(edges), tuple(errors))


def pin_radial_constant(g: GroupDescriptor, s: float, a: float, b: float) -> float:
    """Numeric polar-integration oracle for the radial-tail constant.

    Solves integral_{a<|y|<b} |y|^(-s) dlambda = (C0/d)(a^(-d) - b^(-d))
    with d = s - rho for C0, using exact shell measures r2^rho - r1^rho
    over 4000 geometric shells.
    The normalization lambda(B(e, r)) = r^rho forces C0 = rho.
    """
    if not (0 < a < b) or s <= g.rho:
        raise ValueError("need 0 < a < b and s > rho")
    shells = 4000
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


def tail_constant_check(theta: float, p: float, a: float) -> InequalityCase:
    """Numeric tail norm of the radial power profile on the real line, at
    shell mesh 0.005, against the closed form."""
    g, mesh = REAL_LINE, 0.005
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


def damped_tail_check(theta: float, p: float, q: float, eps: float, r: float) -> InequalityCase:
    """Ball norm of the damped radial tail on the real line, at shell mesh
    0.02, against the tail-norm constant at eps/(2 gamma) times the
    ball-measure weight, with a 2% allowance."""
    g, mesh, allowance = REAL_LINE, 0.02, 0.02
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

    def __post_init__(self):
        """Refuse a config that cannot run, naming the first bad key in field
        order: the sample counts and max_levels are integers of at least 1,
        the seed one of at least 0 (bools are refused), the criteria None or
        a list of names in ALL_CRITERIA, kept as a tuple, and the embedding
        triples and the window exponents and one finite axis, kept as floats."""
        for name in self.__dataclass_fields__:
            value, least = getattr(self, name), 0 if name == "seed" else 1
            if name in _SUITE_PARSERS:
                object.__setattr__(self, name, _SUITE_PARSERS[name](value))
            elif not isinstance(value, int) or isinstance(value, bool) or value < least:
                raise ValueError(f"config key {name!r} needs an integer of at least {least}, got {value!r}")

    def selected(self) -> tuple[str, ...]:
        return ALL_CRITERIA if self.criteria is None else self.criteria


def _suite_criteria(value) -> tuple[str, ...] | None:
    """None (every criterion), or a list of names in ALL_CRITERIA; a string
    is not a list of names."""
    if value is None:
        return None
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"config key 'criteria' needs a list of criterion names, got {value!r}")
    for name in value:
        if name not in ALL_CRITERIA:
            raise ValueError(f"config key 'criteria' names an unknown criterion {name!r}")
    return tuple(value)


def _suite_triples(value) -> tuple[tuple[float, float, float], ...]:
    """The embedding triples, each a list of three exponents (q, p, alpha) in
    [1, inf]: numbers, or strings such as "inf"."""
    try:  # a string is not a list of exponents
        return tuple(astuple(ExponentTriple(*(() if isinstance(t, str) else t))) for t in value)
    except (TypeError, ValueError):
        raise ValueError(f"config key 'embedding_triples' needs exponent triples in [1, inf], got {value!r}") from None


def _suite_window(value) -> tuple[tuple[float, float]]:
    """The suite's window: one finite axis [lo, hi] with lo < hi."""
    try:
        ((lo, hi),) = value
        lo, hi = float(lo), float(hi)
    except (TypeError, ValueError):
        raise ValueError(f"config key 'window' needs one axis [lo, hi], got {value!r}") from None
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"config key 'window' needs finite lo < hi, got {value!r}")
    return ((lo, hi),)


_SUITE_PARSERS = {"criteria": _suite_criteria, "embedding_triples": _suite_triples, "window": _suite_window}


def _wide_grid(f: SimpleFunction) -> RadiusGrid:
    sc = max(support_scale(f), 1e-6)
    return RadiusGrid(_min_cell_extent(f) / 8.0, 32.0 * sc, 4)


def _functions(
    cfg: SuiteConfig, salt: int, n: int, max_cells: int, g: GroupDescriptor = REAL_LINE, window=None
):
    """A criterion's n seeded functions: function i has seed cfg.seed + salt * i
    and 1 + i % max_cells cells in the window (the config's by default)."""
    for i in range(n):
        yield gen_random_simple(cfg.seed + salt * i, 1 + i % max_cells, window or cfg.window, g)


# -- criteria -----------------------------------------------------------------
#
# Each criterion builds each of its functions once, with its grid or
# partition, and evaluates every exponent on it, so that the amalgam memo
# replays the exponent-free pieces; a function's radii go in one call per
# exponent pair, and each case takes its own column of samples.


def check_diagonal_identity(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    ps = (1.0, 1.5, 2.0, 3.0, INF)
    cols = [[] for _ in ps]
    for i, f in enumerate(_functions(cfg, 1, cfg.n_identity, 16)):
        part = partition_for(f, g, 2.0 ** (i % 5 - 2))
        for col, p in zip(cols, ps):
            col.append((partition_norm(f, part, p, p), lebesgue_norm(f, p)))
    return [
        identity_case(f"diagonal-identity-p={p}", col, 1e-12, {"group": g.name})
        for p, col in zip(ps, cols)
    ]


def check_fubini_identity(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    qs = (1.0, 2.0, 3.0)
    cols = [[] for _ in qs]
    for i, f in enumerate(_functions(cfg, 13, cfg.n_identity, 12)):
        r = 2.0 ** (i % 5 - 2)
        for col, q in zip(cols, qs):
            col.append((ball_norm(f, g, r, q, q), g.ball_measure(r) ** (1.0 / q) * lebesgue_norm(f, q)))
    return [
        identity_case(f"fubini-identity-q={q}", col, 1e-9, {"group": g.name})
        for q, col in zip(qs, cols)
    ]


def _equivalence_instance(
    cfg: SuiteConfig,
    g: GroupDescriptor,
    pairs: Sequence[tuple[float, float]],
    radii: Sequence[float],
    window,
    max_cells: int,
) -> list[InequalityCase]:
    base_q, base_p = partition_constants(g)
    ratios = [[] for _ in pairs]
    for f in _functions(cfg, 31, cfg.n_equivalence, max_cells, g, window):
        for col, (q, p) in zip(ratios, pairs):
            balls = ball_norms(f, g, radii, q, p)
            parts = _partition_norms(f, g, radii, q, p)
            col += [r ** (-g.rho * inv(p)) * b / n for r, b, n in zip(radii, balls, parts)]
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


def check_partition_ball_equivalence(cfg: SuiteConfig) -> list[InequalityCase]:
    line_radii = [2.0**k for k in range(-2, 3)]
    heis_window = ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5))
    heis_radii = [0.75 * 2.0**k for k in range(5)]
    return _equivalence_instance(
        cfg, REAL_LINE, ((1.0, 2.0), (2.0, 4.0)), line_radii, cfg.window, 12
    ) + _equivalence_instance(cfg, HEISENBERG, ((2.0, 4.0),), heis_radii, heis_window, 3)


def check_lebesgue_embedding(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    triples = {raw: ExponentTriple(*raw) for raw in cfg.embedding_triples}
    cols = {raw: [] for raw, t in triples.items() if t.classify() == NONTRIVIAL}
    for f in _functions(cfg, 7, cfg.n_embedding if cols else 0, 12):
        grid = default_grid(f)
        for raw, col in cols.items():
            col.append((fractional_norm_partition(f, g, triples[raw], grid).value, lebesgue_norm(f, raw[2])))
    return [
        one_sided_case(
            f"lebesgue-embedding-q={q}-p={p}-alpha={alpha}", cols[q, p, alpha], 1.0, 1e-9, {"group": g.name}
        )
        if (q, p, alpha) in cols
        else misuse_case(
            f"lebesgue-embedding-{q}-{p}-{alpha}",
            f"triple classified {triples[q, p, alpha].classify()}; the embedding needs q <= alpha <= p",
        )
        for q, p, alpha in cfg.embedding_triples
    ]


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
    pairs = ((1.0, 2.0), (2.0, 4.0))
    base_q, base_p = partition_constants(g)
    # per pair the columns of alpha = q (upper, lower), then of alpha = p
    cols = [[[] for _ in range(4)] for _ in pairs]
    for f in _functions(cfg, 17, cfg.n_sandwich, 10):
        grid = _wide_grid(f)
        for (q, p), (low_q, up_q, low_p, up_p) in zip(pairs, cols):
            nq = lebesgue_norm(f, q)
            np_ = lebesgue_norm(f, p)
            vq = fractional_norm_partition(f, g, ExponentTriple(q, p, q), grid).value
            vp = fractional_norm_partition(f, g, ExponentTriple(q, p, p), grid).value
            low_q.append((vq, nq))
            up_q.append((nq, vq))
            low_p.append((vp, np_))
            up_p.append((np_, vp))
    cases = []
    for (q, p), (low_q, up_q, low_p, up_p) in zip(pairs, cols):
        cq = base_q ** (g.rho * (inv(q) - inv(p)))
        cp = base_q ** (g.rho * inv(q)) * base_p ** (g.rho * inv(p))
        cases += [
            one_sided_case(f"alpha-eq-q-upper-q={q}-p={p}", low_q, 1.0, 1e-9),
            one_sided_case(f"alpha-eq-q-lower-q={q}-p={p}", up_q, cq, 1e-9, {"constant": cq}),
            one_sided_case(f"alpha-eq-p-upper-q={q}-p={p}", low_p, 1.0, 1e-9),
            one_sided_case(f"alpha-eq-p-lower-q={q}-p={p}", up_p, cp, 1e-9, {"constant": cp}),
        ]
    return cases


def check_exponent_monotonicity(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    q1, p1, alpha, q2, p2 = 1.0, 4.0, 2.0, 2.0, 3.0
    const = (1.0 / (2.0 * g.gamma)) ** (g.rho * (inv(q1) - inv(q2)))
    samples = []
    for f in _functions(cfg, 23, cfg.n_monotonicity, 10):
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


# (q, alpha) of the Kolmogorov bound and of the weak-Lorentz embedding
WEAK_PAIRS = ((1.0, 2.0), (2.0, 3.0))


def _weak_cases(name: str, cols: list) -> list[InequalityCase]:
    cases = []
    for (q, alpha), col in zip(WEAK_PAIRS, cols):
        const = (alpha / (alpha - q)) ** (1.0 / q)
        cases.append(one_sided_case(f"{name}-q={q}-alpha={alpha}", col, const, 1e-9, {"constant": const}))
    return cases


def check_kolmogorov_bound(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    cols = [[] for _ in WEAK_PAIRS]
    for f in _functions(cfg, 29, cfg.n_kolmogorov, 12):
        radii = default_grid(f).radii()
        for col, (q, alpha) in zip(cols, WEAK_PAIRS):
            weak = lorentz_norm(f, alpha, INF)
            convs = conv_q_indicators(f, q, radii, g.identity())
            exponent = 1.0 / q - 1.0 / alpha
            col += [(c ** (1.0 / q), weak * g.ball_measure(r) ** exponent) for r, c in zip(radii, convs)]
    return _weak_cases("kolmogorov-bound", cols)


def check_weak_lorentz_embedding(cfg: SuiteConfig) -> list[InequalityCase]:
    g = REAL_LINE
    cols = [[] for _ in WEAK_PAIRS]
    for f in _functions(cfg, 41, cfg.n_weak_embedding, 12):
        grid = default_grid(f)
        for col, (q, alpha) in zip(cols, WEAK_PAIRS):
            lhs = fractional_norm_ball(f, g, ExponentTriple(q, INF, alpha), grid).value
            col.append((lhs, lorentz_norm(f, alpha, INF)))
    return _weak_cases("weak-lorentz-embedding", cols)


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
    for i, f in enumerate(_functions(cfg, 43, cfg.n_limit, 10)):
        q = (1.0, 2.0, 3.0)[i % 3]
        bb = f.bounding_box()
        cover_r = 1.01 * (bb[0][1] - bb[0][0]) / 2.0
        radii = [cover_r * 2.0 ** (k - 4) for k in range(5)]
        vals = ball_norms(f, g, radii, q, INF)
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
    return run_suite_timed(cfg)[0]


def run_suite_timed(cfg: SuiteConfig = SuiteConfig()) -> tuple[list[InequalityCase], dict[str, float]]:
    """The cases of :func:`run_suite`, and the wall time in seconds of each
    selected criterion (summed over its repeats), in the order run."""
    cases: list[InequalityCase] = []
    seconds: dict[str, float] = {}
    for name in cfg.selected():
        start = time.perf_counter()
        try:
            cases.extend(CRITERIA[name](cfg))
        except Exception as exc:  # noqa: BLE001 - reported, not fatal
            cases.append(error_case(name, exc))
        seconds[name] = seconds.get(name, 0.0) + time.perf_counter() - start
    return cases, seconds


def suite_passed(cases: Iterable[InequalityCase]) -> bool:
    return all(c.status in ("pass", "misuse") for c in cases)
