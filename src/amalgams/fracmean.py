"""Fractional-mean norms: scale-weighted amalgam norms, exponent
bookkeeping, and degeneracy diagnostics.

The supremum over all scales r > 0 is realized as a maximum over a
dyadic-refined :class:`RadiusGrid`; for simple functions the weighted
norm is continuous in r and the supremum lives in a compact range set
by the support size, so a wide enough grid captures it.  Out of the
nontrivial regime q <= alpha <= p the weighted norm diverges at one end
of the scale axis, which :func:`divergence_diagnostic` quantifies by a
log-log slope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .amalgam import _caps, _holds, _partition_sums, ball_norms
from .groups import Box, GroupDescriptor
from .partitions import UniformPartition, build_pi_r, cell_shape, cell_steps, check_scales
from .simplefn import SimpleFunction, _check_exponent

INF = math.inf

NONTRIVIAL = "nontrivial"
DEGENERATE_LOW = "degenerate-low"  # alpha < q
DEGENERATE_HIGH = "degenerate-high"  # p < alpha


def inv(x: float) -> float:
    """1/x with the convention 1/inf = 0."""
    return 0.0 if math.isinf(x) else 1.0 / x


def conjugate(x: float) -> float:
    """Hoelder conjugate x' = x/(x-1); 1 and inf swap."""
    x = float(x)
    if not x >= 1.0:
        raise ValueError(f"exponent must lie in [1, inf], got {x}")
    if x == 1.0:
        return INF
    if math.isinf(x):
        return 1.0
    return x / (x - 1.0)


@dataclass(frozen=True)
class ExponentTriple:
    q: float
    p: float
    alpha: float

    def __post_init__(self):
        for name in ("q", "p", "alpha"):
            v = float(getattr(self, name))
            if not v >= 1.0:
                raise ValueError(f"{name} must lie in [1, inf], got {v}")
            object.__setattr__(self, name, v)

    def classify(self) -> str:
        if self.alpha < self.q:
            return DEGENERATE_LOW
        if self.p < self.alpha:
            return DEGENERATE_HIGH
        return NONTRIVIAL

    def uses_infinite_q_convention(self) -> bool:
        """True for the q = inf, alpha < inf corner where only the
        1/inf = 0 convention defines the scale weight."""
        return math.isinf(self.q) and not math.isinf(self.alpha)


def classify(t: ExponentTriple) -> str:
    return t.classify()


# Most radii a RadiusGrid may hold; every grid of the package holds under 100.
MAX_RADII = 10_000


@dataclass(frozen=True)
class RadiusGrid:
    r_min: float
    r_max: float
    steps_per_octave: int = 4

    def __post_init__(self):
        if not (0 < self.r_min < self.r_max < INF):
            raise ValueError("need 0 < r_min < r_max < inf")
        if self.steps_per_octave < 1:
            raise ValueError("steps_per_octave must be >= 1")
        try:
            n = self._count()
        except OverflowError:
            n = INF
        if not n < MAX_RADII:
            raise ValueError(
                f"grid {self.r_min}:{self.r_max}:{self.steps_per_octave} holds more "
                f"than {MAX_RADII} radii"
            )

    def _count(self) -> int:
        """Number of radii below r_max: ceil(steps_per_octave * octaves)."""
        ratio = self.r_max / self.r_min
        # past the float range the ratio overflows, but not the difference of logs
        octaves = math.log2(ratio) if ratio < INF else math.log2(self.r_max) - math.log2(self.r_min)
        return math.ceil(self.steps_per_octave * octaves)

    def radii(self) -> list[float]:
        m = self.steps_per_octave
        if self.r_max / self.r_min < INF:
            rs = [self.r_min * 2.0 ** (k / m) for k in range(self._count())]
        else:  # 2**(k/m) can overflow here, its square root cannot
            rs = [self.r_min * 2.0 ** (k / m / 2) * 2.0 ** (k / m / 2) for k in range(self._count())]
        rs.append(self.r_max)
        return rs


def support_scale(f: SimpleFunction) -> float:
    """Homogeneous-norm scale of the support (diameter surrogate)."""
    bb = f.bounding_box()
    if bb is None:
        return 1.0
    g = f.group
    corners = [()]
    for lo, hi in bb:
        corners = [c + (v,) for c in corners for v in (lo, hi)]
    return 2.0 * max(g.hom_norm(c) for c in corners)


def default_grid(
    f: SimpleFunction, octaves: int = 8, steps_per_octave: int = 4
) -> RadiusGrid:
    """Dyadic grid of ``octaves`` octaves centered on the support diameter."""
    d = max(support_scale(f), 1e-6)
    half = octaves / 2.0
    return RadiusGrid(d * 2.0**-half, d * 2.0**half, steps_per_octave)


def _window(f: SimpleFunction, g: GroupDescriptor, steps: tuple[float, ...]) -> Box:
    """The bounding box of f, widened to 1.0001 steps on an axis shorter
    than that."""
    bb = f.bounding_box()
    if bb is None:
        bb = tuple((0.0, 0.0) for _ in range(g.d))
    window = []
    for (lo, hi), s in zip(bb, steps):
        short = s * 1.0001 - (hi - lo)
        if short > 0.0:
            lo, hi = lo - short / 2.0, hi + short / 2.0
        window.append((lo, hi))
    return tuple(window)


def _windows(f: SimpleFunction, g: GroupDescriptor, steps: np.ndarray) -> np.ndarray:
    """:func:`_window` of each row of steps (shape (R, d)) in one pass, shape
    (R, d, 2), bit for bit."""
    bb = f.bounding_box()
    lo, hi = np.array(bb if bb is not None else ((0.0, 0.0),) * g.d).T
    short = steps * 1.0001 - (hi - lo)
    wide, half = short > 0.0, short / 2.0
    windows = np.empty(steps.shape + (2,))
    windows[..., 0] = np.where(wide, lo - half, lo)
    windows[..., 1] = np.where(wide, hi + half, hi)
    return windows


def partition_for(f: SimpleFunction, g: GroupDescriptor, r: float) -> UniformPartition:
    """Scale-r partition whose window swallows the support of f."""
    _, steps = cell_shape(g, r)
    return build_pi_r(g, r, _window(f, g, steps))


def _partition_norms(
    f: SimpleFunction, g: GroupDescriptor, radii: list[float], q: float, p: float
) -> list[float]:
    """``partition_norm(f, partition_for(f, g, r), q, p)`` for each r of
    radii, bit for bit, from one ``partition_pieces`` stream; the steps,
    windows and scale checks of all radii are made in one pass.  They
    depend on f, g and the radii alone, so a call whose pieces the memo
    replays (:func:`amalgam._holds`) skips them: they passed when its
    entry was made."""
    if f.group.name != g.name:
        raise ValueError("function and partition live on different groups")
    key = (g, tuple(radii), *_caps())
    steps = None
    if not _holds("partition", f, key):
        steps = cell_steps(g, radii)
        check_scales(g, radii, steps, _windows(f, g, steps))
    q = _check_exponent(q)
    p = _check_exponent(p)
    if f.is_zero():
        return [0.0] * len(radii)
    return _partition_sums(f, q, p, len(radii), key, lambda lo, hi: g.geometry.partition_pieces(steps, lo, hi))


@dataclass(frozen=True)
class FracNormResult:
    value: float
    argmax_r: float | None
    classification: str
    form: str
    divergent: bool
    infinite_q_convention: bool = False


DIVERGENCE_CAP = 1e12


def _weighted_max(values: list[tuple[float, float]], cap: float) -> tuple[float, float | None, bool]:
    best, best_r = 0.0, None
    for r, v in values:  # ascending r; ties keep the smallest radius
        if v > best:
            best, best_r = v, r
    return best, best_r, best > cap


def fractional_norm_partition(
    f: SimpleFunction,
    g: GroupDescriptor,
    t: ExponentTriple,
    grid: RadiusGrid,
    cap: float = DIVERGENCE_CAP,
) -> FracNormResult:
    """max over the grid of lambda(B(e,r))^(1/alpha - 1/q) ||f||_{q,p} over pi_r."""
    w = g.rho * (inv(t.alpha) - inv(t.q))
    radii = grid.radii()
    norms = _partition_norms(f, g, radii, t.q, t.p)
    value, arg, div = _weighted_max([(r, r**w * n) for r, n in zip(radii, norms)], cap)
    return FracNormResult(
        value, arg, t.classify(), "partition", div, t.uses_infinite_q_convention()
    )


def fractional_norm_ball(
    f: SimpleFunction,
    g: GroupDescriptor,
    t: ExponentTriple,
    grid: RadiusGrid,
    mesh: float | None = None,
    cap: float = DIVERGENCE_CAP,
) -> FracNormResult:
    """max over the grid of lambda(B)^(1/alpha - 1/q - 1/p) times the ball norm."""
    w = g.rho * (inv(t.alpha) - inv(t.q) - inv(t.p))
    radii = grid.radii()
    norms = ball_norms(f, g, radii, t.q, t.p, mesh)
    value, arg, div = _weighted_max([(r, r**w * n) for r, n in zip(radii, norms)], cap)
    return FracNormResult(
        value, arg, t.classify(), "ball", div, t.uses_infinite_q_convention()
    )


@dataclass(frozen=True)
class DivergenceDiagnostic:
    slope: float | None
    theory: float
    end: str  # "r->inf" or "r->0"
    radii: tuple[float, ...]
    values: tuple[float, ...]


def _min_cell_extent(f: SimpleFunction) -> float:
    return min(min(b - a for a, b in zip(c.lo, c.hi)) for c in f.cells)


def divergence_diagnostic(
    f: SimpleFunction,
    g: GroupDescriptor,
    t: ExponentTriple,
    grid: RadiusGrid | None = None,
    points: int = 5,
) -> DivergenceDiagnostic:
    """Log-log slope of the weighted partition norm at the divergent end.

    For alpha < q the scale weight blows up as r -> inf; for p < alpha
    the weighted norm blows up as r -> 0.  Returns the fitted slope and
    the theoretical exponent it should match.  When a grid is supplied
    its radii nearest the divergent end are used; otherwise radii are
    chosen automatically from the support geometry.
    """
    kind = t.classify()
    if kind == NONTRIVIAL:
        raise ValueError("divergence_diagnostic needs a degenerate exponent triple")
    if f.is_zero():
        theory = g.rho * (
            (inv(t.alpha) - inv(t.q)) if kind == DEGENERATE_LOW else (inv(t.alpha) - inv(t.p))
        )
        return DivergenceDiagnostic(None, theory, "r->inf" if kind == DEGENERATE_LOW else "r->0", (), ())
    w = g.rho * (inv(t.alpha) - inv(t.q))
    if kind == DEGENERATE_LOW:
        theory = g.rho * (inv(t.alpha) - inv(t.q))
        if grid is not None:
            radii = grid.radii()[-points:]
        else:
            r0 = 16.0 * support_scale(f) * g.gamma**2
            radii = [r0 * 2.0**k for k in range(points)]
        end = "r->inf"
    else:
        theory = g.rho * (inv(t.alpha) - inv(t.p))
        if grid is not None:
            radii = grid.radii()[:points]
        else:
            r0 = _min_cell_extent(f) / 4.0
            radii = [r0 * 2.0**-k for k in range(points)]
        end = "r->0"
    norms = _partition_norms(f, g, radii, t.q, t.p)
    vals = [r**w * n for r, n in zip(radii, norms)]
    slope = (math.log(vals[-1]) - math.log(vals[0])) / (
        math.log(radii[-1]) - math.log(radii[0])
    )
    return DivergenceDiagnostic(slope, theory, end, tuple(radii), tuple(vals))
