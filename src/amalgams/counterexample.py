"""Sparse unions of shrinking balls separating the fractional-mean
space from weak Lorentz.

For exponents q < alpha < p, level n carries floor(2^(rho(n+1))) + 1
balls of radius 2^(-n-1) whose centers keep a same-level spacing above
gamma(1 + gamma + 2 gamma^2) 2^((n+1)q/(alpha-q)).  The indicator of
the truncated union has weak Lorentz norm lambda(E_N)^(1/alpha), which
grows without bound in N, while its weighted ball norms stay below an
explicit geometric-series constant at every truncation depth.

Centers are placed on the positive half line by greedy cumulative
offsets: consecutive gaps exceed the separation bound of the level
being placed (levels are placed in increasing order and the bound is
increasing in the level, so every same-level pair is separated), and
any cross-level pair is then far beyond the ball-disjointness threshold
gamma 2^(-min(n, m)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fracmean import ExponentTriple, RadiusGrid, fractional_norm_ball, support_scale
from .groups import GroupDescriptor, REAL_LINE
from .simplefn import SimpleFunction, lorentz_norm, simple_function

INF = math.inf


@dataclass(frozen=True)
class SparseUnionSpec:
    q: float
    alpha: float
    levels: int
    radii: tuple[float, ...]  # per level, 2^(-n-1)
    counts: tuple[int, ...]  # per level, floor(2^(rho(n+1))) + 1
    separations: tuple[float, ...]  # per level separation bound s_n
    centers: tuple[tuple[float, ...], ...]  # per level center coordinates


def separation_bound(g: GroupDescriptor, q: float, alpha: float, n: int) -> float:
    gam = g.gamma
    exponent = (n + 1) * q / (alpha - q)
    try:
        growth = 2.0**exponent
    except OverflowError:
        growth = math.inf
    s = gam * (1.0 + gam + 2.0 * gam**2) * growth
    if not math.isfinite(s):
        raise ValueError(
            f"sparse union leaves the float range at level {n}: the separation "
            f"bound carries the factor 2**{exponent!r}"
        )
    return s


def level_count(g: GroupDescriptor, n: int) -> int:
    return math.floor(2.0 ** (g.rho * (n + 1))) + 1


def build_sparse_union(
    g: GroupDescriptor = REAL_LINE,
    q: float = 1.0,
    alpha: float = 2.0,
    N: int = 4,
) -> tuple[SparseUnionSpec, SimpleFunction]:
    """Construct the N-level truncation and its indicator function."""
    if g != REAL_LINE:
        raise ValueError("the construction ships on the real line only")
    if not q < alpha:
        raise ValueError("need q < alpha")
    if N < 0:
        raise ValueError("level count must be >= 0")
    radii, counts, seps, centers = [], [], [], []
    cursor = 0.0
    for n in range(1, N + 1):
        rad = 2.0 ** (-n - 1)
        m = level_count(g, n)
        s = separation_bound(g, q, alpha, n)
        level_centers = []
        for _ in range(m):
            cursor += s * (1.0 + 1e-6)
            if not math.isfinite(cursor) or cursor - rad == cursor + rad:
                raise ValueError(
                    f"sparse union leaves the float range at level {n}: centre "
                    f"{cursor!r} cannot carry a ball of radius {rad!r}"
                )
            level_centers.append(cursor)
        radii.append(rad)
        counts.append(m)
        seps.append(s)
        centers.append(tuple(level_centers))
    spec = SparseUnionSpec(q, alpha, N, tuple(radii), tuple(counts), tuple(seps), tuple(centers))
    check_separations(spec, g)
    cells = [
        ((c - rad,), (c + rad,), 1.0)
        for rad, level in zip(radii, centers)
        for c in level
    ]
    return spec, simple_function(g, cells)


def check_separations(spec: SparseUnionSpec, g: GroupDescriptor) -> None:
    """Assert the same-level bounds, cross-level thresholds and ball
    disjointness on the constructed centers.

    Centers are swept in increasing order.  A pair farther apart than the
    largest threshold that can apply to it (the separation of the first
    center's level, gamma 2^-1, or 2 gamma times the largest radius) fails
    no test, so the scan from each center stops at the first such
    neighbour: on the real line the distance grows along sorted centers.
    """
    if g != REAL_LINE:
        raise ValueError("the separation sweep runs on the real line only")
    flat = sorted(
        (c, n + 1, spec.radii[n]) for n in range(spec.levels) for c in spec.centers[n]
    )
    cross_reach = max(g.gamma * 2.0**-1, 2.0 * g.gamma * max(spec.radii, default=0.0))
    for i, (ci, ni, ri) in enumerate(flat):
        reach = max(spec.separations[ni - 1], cross_reach)
        for j in range(i + 1, len(flat)):
            cj, nj, rj = flat[j]
            dist = g.hom_norm((cj - ci,))
            if dist > reach:
                break
            if ni == nj and dist <= spec.separations[ni - 1]:
                raise ValueError(
                    f"same-level separation violated at level {ni}: {dist}"
                )
            if ni != nj and dist <= g.gamma * 2.0 ** (-min(ni, nj)):
                raise ValueError("cross-level separation threshold violated")
            if dist <= g.gamma * (ri + rj):
                raise ValueError("balls are not disjoint")


def union_measure(spec: SparseUnionSpec) -> float:
    """lambda(E_N): sum over levels of count * radius^rho (rho = 1 here)."""
    return sum(m * rad for m, rad in zip(spec.counts, spec.radii))


def weak_lorentz_of_union(f: SimpleFunction, alpha: float) -> float:
    """lambda(E_N)^(1/alpha); agrees exactly with the (alpha, inf) Lorentz norm."""
    if any(c.value != 1.0 for c in f.cells):
        raise ValueError("expected an indicator function")
    if not alpha >= 1.0 or math.isinf(alpha):
        raise ValueError("alpha must be finite and >= 1")
    lam = f.support_measure()
    value = lam ** (1.0 / alpha)
    cross = lorentz_norm(f, alpha, INF)
    if abs(cross - value) > 1e-12 * max(1.0, value):
        raise AssertionError("weak Lorentz norm mismatch against rearrangement path")
    return value


@dataclass(frozen=True)
class BoundConstants:
    c1: float
    c2: float
    c3: float
    c4: float
    decay: float  # 2^(-rho(1/alpha - 1/p)) < 1
    bound: float  # c4 * decay / (1 - decay)


def fractional_bound_constant(
    q: float, p: float, alpha: float, g: GroupDescriptor = REAL_LINE
) -> BoundConstants:
    """Exact evaluation of the geometric-series bound on the weighted
    ball norms of the truncated unions."""
    if not (1.0 <= q < alpha < p):
        raise ValueError("need 1 <= q < alpha < p")
    if math.isinf(p) or math.isinf(alpha):
        raise ValueError("p and alpha must be finite here")
    rho, gam = g.rho, g.gamma
    c1 = 2.0 ** ((1.0 + rho) / p + rho / p - rho / alpha) * gam ** (rho / p)
    c2 = max(
        gam ** (rho / p) * 2.0 ** ((rho + 1.0) / p + 1.0 / q - rho * (1.0 / alpha - 1.0 / p)),
        2.0 ** ((rho + 1.0) / p + rho / p - rho / alpha) * gam ** (rho / p),
    )
    c3 = max(c1, c2)
    c4 = 2.0 ** (-rho * (1.0 / alpha - 1.0 / q - 1.0 / p)) * c3
    decay = 2.0 ** (-rho * (1.0 / alpha - 1.0 / p))
    if decay >= 1.0:
        raise ValueError("series diverges unless alpha < p")
    return BoundConstants(c1, c2, c3, c4, decay, c4 * decay / (1.0 - decay))


def union_growth(q: float, p: float, alpha: float, max_levels: int) -> list[dict]:
    """Per depth N = 1..max_levels: lambda(E_N), the weak Lorentz norm and
    the weighted ball norm over radii 2^-10 .. 4 x support scale."""
    if max_levels < 1:
        raise ValueError(f"max_levels must be at least 1, got {max_levels}")
    t = ExponentTriple(q, p, alpha)
    out = []
    for n in range(1, max_levels + 1):
        spec, f = build_sparse_union(REAL_LINE, q, alpha, n)
        grid = RadiusGrid(2.0**-10, 4.0 * support_scale(f), 1)
        out.append(
            {
                "levels": n,
                "measure": union_measure(spec),
                "weak_lorentz": weak_lorentz_of_union(f, alpha),
                "fractional_ball_norm": fractional_norm_ball(f, REAL_LINE, t, grid).value,
            }
        )
    return out
