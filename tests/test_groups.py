import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams.groups import (
    ANISO_PLANE,
    GROUPS,
    HEISENBERG,
    REAL_LINE,
    GroupDescriptor,
    get_group,
)

ALL = [REAL_LINE, ANISO_PLANE, HEISENBERG]


def sample_points(g: GroupDescriptor, n: int, extent: float, seed: int) -> np.ndarray:
    """Deterministic batch of points in [-extent, extent]^d, shape (n, d)."""
    rng = np.random.default_rng(seed)
    return rng.uniform(-extent, extent, size=(n, g.d))


def estimate_gamma(g: GroupDescriptor, n_pairs: int = 10_000) -> float:
    """Sampled sup of |xy| / (|x| + |y|) over n_pairs seeded pairs; a lower
    estimate of gamma."""
    xs = sample_points(g, n_pairs, 5.0, 7)
    ys = sample_points(g, n_pairs, 5.0, 8)
    worst = 0.0
    for x, y in zip(xs, ys):
        xt, yt = tuple(x), tuple(y)
        denom = g.hom_norm(xt) + g.hom_norm(yt)
        if denom > 0:
            worst = max(worst, g.hom_norm(g.compose(xt, yt)) / denom)
    return worst


def test_compose_examples():
    assert REAL_LINE.compose((2.0,), (3.0,)) == (5.0,)
    x = HEISENBERG.compose((1.0, 0.0, 0.0), (0.0, 1.0, 0.0))
    assert x == (1.0, 1.0, 0.5)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_identity_and_inverse(g):
    e = g.identity()
    pts = sample_points(g, 50, 3.0, seed=1)
    for row in pts:
        x = tuple(row)
        assert g.compose(e, x) == x
        back = g.compose(x, g.invert(x))
        assert all(abs(c) < 1e-12 for c in back)
        # norm symmetry
        assert g.hom_norm(g.invert(x)) == pytest.approx(g.hom_norm(x), rel=1e-12)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_associativity_sampled(g):
    pts = sample_points(g, 30, 2.0, seed=2)
    for a, b, c in zip(pts[:10], pts[10:20], pts[20:30]):
        a, b, c = tuple(a), tuple(b), tuple(c)
        left = g.compose(g.compose(a, b), c)
        right = g.compose(a, g.compose(b, c))
        assert all(abs(u - v) < 1e-12 for u, v in zip(left, right))


def test_hom_norm_examples():
    assert REAL_LINE.hom_norm((-3.0,)) == 3.0
    assert HEISENBERG.hom_norm((0.0, 0.0, 1.0)) == pytest.approx(2.0, rel=1e-15)
    for g in ALL:
        assert g.hom_norm(g.identity()) == 0.0


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_norm_homogeneity(g):
    pts = sample_points(g, 100, 4.0, seed=3)
    rs = np.random.default_rng(4).uniform(0.1, 8.0, 100)
    for row, r in zip(pts, rs):
        x = tuple(row)
        n = g.hom_norm(x)
        assert abs(g.hom_norm(g.dilate(r, x)) - r * n) <= 1e-12 * max(r * n, 1.0)


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
def test_quasi_triangle_10k(g):
    xs = sample_points(g, 10_000, 5.0, seed=5)
    ys = sample_points(g, 10_000, 5.0, seed=6)
    gam = g.gamma
    for x, y in zip(xs, ys):
        x, y = tuple(x), tuple(y)
        lhs = g.hom_norm(g.compose(x, y))
        rhs = gam * (g.hom_norm(x) + g.hom_norm(y))
        assert lhs <= rhs * (1.0 + 1e-12)


def test_aniso_gamma_estimate_attains_one():
    est = estimate_gamma(ANISO_PLANE, 4000)
    assert est <= 1.0 + 1e-12
    # equality along the abelian axis
    assert ANISO_PLANE.hom_norm((2.0, 0.0)) == ANISO_PLANE.hom_norm(
        (1.0, 0.0)
    ) + ANISO_PLANE.hom_norm((1.0, 0.0))


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
@pytest.mark.parametrize("c", [1e-170, 5e-324, 1e80, 1e300])
def test_hom_norm_tiny_and_huge_points(g, c):
    # every single-axis point and the diagonal point: positive and finite
    points = [tuple(c if k == ax else 0.0 for k in range(g.d)) for ax in range(g.d)]
    for x in points + [(c,) * g.d]:
        n = g.hom_norm(x)
        assert 0.0 < n < math.inf, (x, n)


def test_ball_measure_examples():
    assert REAL_LINE.ball_measure(2.0) == 2.0
    assert HEISENBERG.ball_measure(2.0) == 16.0
    for g in ALL:
        assert g.ball_measure(1.0) == 1.0
    with pytest.raises(ValueError):
        REAL_LINE.ball_measure(0.0)
    with pytest.raises(ValueError):
        REAL_LINE.ball_measure(-1.0)


def _translated_ball_measure(g, center, r):
    """Haar measure of center.B(e, r) by the geometry's ball-box kernel, over
    a box holding the translated ball."""
    lo, hi = zip(*g.geometry.translate_box(center, 1.01 * r))
    return float(g.geometry.ball_box_measure(np.array([center], dtype=float), r, lo, hi, 256)[0])


@pytest.mark.parametrize("g", ALL, ids=lambda g: g.name)
@pytest.mark.parametrize("r", [0.5, 1.0, 2.0])
def test_ball_measure_quadrature_matches_power(g, r):
    quad = _translated_ball_measure(g, g.identity(), r)
    assert quad == pytest.approx(g.ball_measure(r), rel=5e-3)


def test_heisenberg_left_invariance_quadrature():
    g = HEISENBERG
    for a in [(0.7, -0.4, 0.2), (-1.5, 2.0, -0.3)]:
        quad = _translated_ball_measure(g, a, 1.3)
        assert quad == pytest.approx(g.ball_measure(1.3), rel=0.01)


def test_descriptor_takes_four_fields():
    names = [f.name for f in dataclasses.fields(GroupDescriptor) if f.init]
    assert names == ["name", "dilation_exponents", "gamma", "geometry_type"]


def test_derived_dimension_and_measure_scale():
    assert [g.d for g in ALL] == [1, 2, 3]
    assert REAL_LINE.measure_scale == 0.5
    assert ANISO_PLANE.measure_scale == 0.25
    assert HEISENBERG.measure_scale == 8.0 / math.pi**2


def test_box_norm_matches_the_closed_forms():
    rng = np.random.default_rng(17)
    xs = rng.uniform(-1.0, 1.0, 2000) * 10.0 ** rng.uniform(-30, 30, 2000)
    for x in xs:
        assert REAL_LINE.hom_norm((x,)) == abs(x)
    for x1, x2 in xs.reshape(-1, 2):
        want = max(abs(x1), math.sqrt(abs(x2)))
        assert abs(ANISO_PLANE.hom_norm((x1, x2)) - want) <= math.ulp(want)


def test_dilate_examples():
    assert REAL_LINE.dilate(2.0, (3.0,)) == (6.0,)
    assert HEISENBERG.dilate(2.0, (1.0, 1.0, 1.0)) == (2.0, 2.0, 4.0)
    x = (0.3, -0.2)
    assert ANISO_PLANE.dilate(1.0, x) == x
    with pytest.raises(ValueError):
        REAL_LINE.dilate(0.0, (1.0,))


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        REAL_LINE.compose((1.0, 2.0), (0.0,))
    with pytest.raises(ValueError):
        HEISENBERG.hom_norm((1.0,))
    with pytest.raises(ValueError):
        ANISO_PLANE.invert((1.0, 2.0, 3.0))


def test_registry():
    assert get_group("real-line") is REAL_LINE
    assert get_group("aniso-plane") is ANISO_PLANE
    assert get_group("heisenberg") is HEISENBERG
    assert set(GROUPS) == {"real-line", "aniso-plane", "heisenberg"}
    with pytest.raises(ValueError):
        get_group("free-group")


@given(st.floats(0.01, 100.0), st.floats(-50.0, 50.0))
def test_line_dilation_is_scaling(r, x):
    assert REAL_LINE.dilate(r, (x,)) == (r * x,)


@settings(max_examples=200)
@given(
    st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
    st.tuples(st.floats(-5, 5), st.floats(-5, 5), st.floats(-5, 5)),
)
@example(x=(0.0, 0.0, 1.553502843318301e-162), y=(0.0, 0.0, 1.553502843318301e-162))
def test_heisenberg_triangle_property(x, y):
    g = HEISENBERG
    lhs = g.hom_norm(g.compose(x, y))
    assert lhs <= (g.hom_norm(x) + g.hom_norm(y)) * (1 + 1e-12)
