"""Acceptance gate: every shipped guarantee runs at its stated tolerance
and sample count, one pass/fail line per criterion."""

from dataclasses import replace

import pytest

from amalgams.verify import SuiteConfig, run_suite

CFG = SuiteConfig()


def _run(name):
    """The cases of one criterion on every group it runs on."""
    return run_suite(replace(CFG, criteria=(name,)))


def _report(cases):
    for c in cases:
        print(f"{c.status.upper():7s} {c.id}  margin={c.margin:.3e}  tol={c.tolerance:g}")
    failing = [c for c in cases if c.status not in ("pass", "misuse")]
    assert not failing, [c.id for c in failing]


def test_diagonal_identity():
    # ell^p of local L^p norms equals the global L^p norm, rel err <= 1e-12,
    # 100 random functions, p in {1, 1.5, 2, 3, inf}
    _report(_run("diagonal-identity"))


def test_fubini_identity():
    # ball norm at p = q equals lambda(B)^(1/q) ||f||_q, rel err <= 1e-9
    _report(_run("fubini-identity"))


def test_partition_ball_equivalence():
    # r^(-rho/p) ball / partition stays inside
    # [positive floor, (4g^4+3g^2)^(rho/q) (4g^5+3g^3+2g^2)^(rho/p)]
    # over 200 random functions x 5 octaves, real line and Heisenberg
    _report(_run("partition-ball-equivalence"))


def test_lebesgue_embedding():
    # scale-weighted norm <= L^alpha norm for the nontrivial triples
    _report(_run("lebesgue-embedding"))


def test_holder_product():
    # ||fg|| <= ||f|| ||g|| under the exponent splittings
    _report(_run("holder-product"))


def test_alpha_endpoint_sandwiches():
    # alpha = q and alpha = p recover the Lebesgue norms two-sidedly
    _report(_run("alpha-endpoint-sandwiches"))


def test_exponent_monotonicity():
    # lowering q (raising p) can only shrink the norm, up to (2 gamma)^(-rho ...)
    _report(_run("exponent-monotonicity"))


def test_kolmogorov_bound():
    # ||f chi_B||_q <= (alpha/(alpha-q))^(1/q) weak-norm lambda(B)^(1/q-1/alpha)
    _report(_run("kolmogorov-bound"))


def test_weak_lorentz_embedding():
    # weighted ball norm at p = inf <= (alpha/(alpha-q))^(1/q) weak norm
    _report(_run("weak-lorentz-embedding"))


def test_degeneracy_slopes():
    # log-log divergence rates match rho(1/alpha - 1/q), rho(1/alpha - 1/p)
    _report(_run("degeneracy-slopes"))


def test_sparse_union():
    # weak norms grow without bound while weighted ball norms stay under
    # the geometric-series constant (about 21.14 at (1, 4, 2))
    _report(_run("sparse-union"))


def test_translate_counting():
    # 1000 random ball translates per instance hit at most the
    # measure-ratio bound of cells
    _report(_run("translate-counting"))


def test_covering_limit():
    # sup-form ball norms are nondecreasing in r and reach ||f||_q once a
    # translate covers the support
    _report(_run("covering-limit"))


def test_tail_norm_constant():
    # truncated radial tail norms match the closed form within 0.5%
    _report(_run("tail-norm-constant"))


def test_damped_tail_bound():
    # damped-tail ball norms stay under the tail constant times lambda(B)^(1/q')
    _report(_run("damped-tail-bound"))
