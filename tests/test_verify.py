import json
import math

import pytest

from amalgams.amalgam import ball_norm
from amalgams.fracmean import conjugate
from amalgams.groups import ANISO_PLANE, HEISENBERG, REAL_LINE
from amalgams.simplefn import lebesgue_norm
from amalgams.verify import (
    SuiteConfig,
    damped_tail_check,
    gen_random_simple,
    identity_case,
    tail_constant_check,
    tail_norm_constant,
    one_sided_case,
    pin_radial_constant,
    radial_power_fn,
    run_suite,
    suite_passed,
)

INF = math.inf


def test_gen_random_simple_deterministic():
    a = gen_random_simple(7, 5, ((-4.0, 4.0),))
    b = gen_random_simple(7, 5, ((-4.0, 4.0),))
    assert a == b
    c = gen_random_simple(8, 5, ((-4.0, 4.0),))
    assert a != c


def test_gen_random_simple_shape():
    f = gen_random_simple(3, 1, ((-2.0, 2.0),))
    assert len(f.cells) == 1
    for n in (1, 4, 16):
        f = gen_random_simple(11, n, ((-4.0, 4.0),))
        assert len(f.cells) == n
        bb = f.bounding_box()
        assert bb[0][0] >= -4.0 and bb[0][1] <= 4.0
        assert all(0.0 < c.value <= 10.0 for c in f.cells)
    fh = gen_random_simple(5, 3, ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)), HEISENBERG)
    assert len(fh.cells) == 3
    with pytest.raises(ValueError):
        gen_random_simple(1, 0, ((-1.0, 1.0),))


def test_radial_power_fn_h_profile_bounds():
    # theta = 2 -> theta' = 2 -> profile |y|^(-1/2)
    disc = radial_power_fn(REAL_LINE, "power", 2.0, (1.0, 2.0), mesh=0.1)
    for c in disc.function.cells:
        assert 2.0**-0.5 <= c.value <= 1.0
    with pytest.raises(ValueError):
        radial_power_fn(REAL_LINE, "power", 2.0, (0.0, 2.0))
    with pytest.raises(ValueError):
        radial_power_fn(REAL_LINE, "power", 2.0, (2.0, 1.0))
    with pytest.raises(ValueError):
        radial_power_fn(HEISENBERG, "power", 2.0, (1.0, 2.0))


def test_radial_power_fn_damped_value_at_identity():
    disc = radial_power_fn(REAL_LINE, "damped", 3.0, (0.0, 2.0), mesh=0.05)
    at_zero = [c for c in disc.function.cells if c.lo[0] <= 0.0 < c.hi[0]]
    assert len(at_zero) == 1
    assert at_zero[0].value == pytest.approx(1.0)  # gamma^(-rho/theta') = 1


def test_radial_refinement_halves_oscillation():
    coarse = radial_power_fn(REAL_LINE, "power", 2.0, (1.0, 4.0), mesh=0.08)
    fine = radial_power_fn(REAL_LINE, "power", 2.0, (1.0, 4.0), mesh=0.04)
    assert max(fine.shell_errors) <= 0.6 * max(coarse.shell_errors)


def test_pin_radial_constant_is_rho():
    c0 = pin_radial_constant(REAL_LINE, 1.5, 1.0, 32.0)
    assert c0 == pytest.approx(REAL_LINE.rho, rel=1e-6)
    c0 = pin_radial_constant(HEISENBERG, 6.0, 0.5, 8.0)
    assert c0 == pytest.approx(HEISENBERG.rho, rel=1e-6)


def test_tail_norm_constant_examples():
    # p = 1 branch: theta' = 2, a = 4 -> 1/2
    assert tail_norm_constant(2.0, 1.0, 4.0) == pytest.approx(0.5)
    # p = 2, theta = 4: d = 1/2, k = (2 a^(-1/2))^(1/2)
    assert tail_norm_constant(4.0, 2.0, 1.0) == pytest.approx(2.0**0.5 * 1.0, rel=1e-12)
    vals = [tail_norm_constant(4.0, 2.0, a) for a in (1.0, 4.0, 16.0, 64.0)]
    assert all(x > y for x, y in zip(vals, vals[1:]))
    with pytest.raises(ValueError):
        tail_norm_constant(2.0, 3.0, 1.0)


def test_tail_constant_check_cases():
    assert tail_constant_check(2.0, 1.0, 4.0).status == "pass"
    case = tail_constant_check(4.0, 2.0, 1.0)
    assert case.status == "pass"
    assert case.context["pinned_c0"] == pytest.approx(1.0, rel=1e-6)


def test_damped_tail_check_cases():
    assert damped_tail_check(4.0, 2.0, 2.0, 1.0, 0.2).status == "pass"
    assert damped_tail_check(4.0, 2.0, 1.0, 1.0, 0.2).status == "pass"  # q' = inf branch
    with pytest.raises(ValueError):
        damped_tail_check(4.0, 2.0, 2.0, 3.0, 0.2)  # eps >= 2 gamma
    with pytest.raises(ValueError):
        damped_tail_check(4.0, 2.0, 2.0, 1.0, 0.7)  # r >= eps / (2 gamma)
    with pytest.raises(ValueError):
        damped_tail_check(2.0, 3.0, 2.0, 1.0, 0.2)  # p >= theta


def test_damped_tail_small_radius_rate():
    theta, p, q, eps = 4.0, 2.0, 2.0, 1.0
    qq, pp = conjugate(q), conjugate(p)
    disc = radial_power_fn(REAL_LINE, "damped", theta, (eps, eps * 2.0**10), 0.02)
    r = 1e-3
    v1 = ball_norm(disc.function, REAL_LINE, r, qq, pp)
    v2 = ball_norm(disc.function, REAL_LINE, r / 2.0, qq, pp)
    assert v1 / v2 == pytest.approx(2.0 ** (1.0 / qq), rel=0.02)


def test_case_aggregation_edges():
    assert one_sided_case("x", []).status == "pass"
    assert identity_case("x", [], 1e-9).status == "pass"
    bad = one_sided_case("x", [(2.0, 1.0)])
    assert bad.status == "fail" and bad.margin < 0


@pytest.mark.parametrize("pair", [(INF, 1.0), (1.0, INF), (math.nan, 1.0)])
def test_non_finite_sample_fails_its_case(pair):
    # a broken norm must not pass by NaN comparisons, whatever comes after it
    assert one_sided_case("x", [(1.0, 2.0), pair, (1.0, 2.0)]).status == "fail"
    assert identity_case("x", [(1.0, 1.0), pair, (1.0, 1.0)], 1e-9).status == "fail"


def test_run_suite_empty_and_unknown():
    with pytest.raises(ValueError, match="'criteria'"):
        run_suite(SuiteConfig(criteria=()))
    with pytest.raises(ValueError):
        run_suite(SuiteConfig(criteria=("no-such-check",)))


def test_run_suite_deterministic():
    cfg = SuiteConfig(criteria=("diagonal-identity",), n_identity=4)
    a = [c.as_dict() for c in run_suite(cfg)]
    b = [c.as_dict() for c in run_suite(cfg)]
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert suite_passed(run_suite(cfg))


def test_degenerate_embedding_triple_is_misuse():
    cfg = SuiteConfig(
        criteria=("lebesgue-embedding",),
        n_embedding=2,
        embedding_triples=((3.0, 4.0, 2.0),),
    )
    cases = run_suite(cfg)
    assert [c.status for c in cases] == ["misuse"]
    assert suite_passed(cases)


def test_run_suite_reports_construction_errors(monkeypatch):
    import amalgams.verify as verify_mod

    def boom(cfg, g):
        raise RuntimeError("synthetic construction failure")

    monkeypatch.setitem(verify_mod.CRITERIA, "diagonal-identity", boom)
    cases = run_suite(SuiteConfig(criteria=("diagonal-identity",)))
    assert [c.status for c in cases] == ["error"]
    assert not suite_passed(cases)
    assert "synthetic" in cases[0].context["exception"]


@pytest.mark.parametrize(
    "fields, message",
    [
        ({"n_equivalence": 0}, "'n_equivalence' needs an integer of at least 1, got 0"),
        ({"n_identity": -3}, "'n_identity' needs an integer of at least 1, got -3"),
        ({"seed": -1}, "'seed' needs an integer of at least 0, got -1"),
        ({"seed": True}, "'seed' needs an integer of at least 0, got True"),
        ({"max_levels": 2.0}, "'max_levels' needs an integer of at least 1, got 2.0"),
        ({"window": ((0.0, 1.0), (0.0, 1.0))}, "'window' needs one axis"),
        ({"window": ((1.0, INF),)}, "'window' needs finite lo < hi"),
    ],
    ids=lambda x: json.dumps(x) if isinstance(x, dict) else None,
)
def test_suite_config_refuses_what_cannot_run(fields, message):
    # the API checks what the CLI's --config checks, before any criterion runs
    with pytest.raises(ValueError, match=message):
        SuiteConfig(**fields)


def test_suite_config_keeps_its_window_as_floats():
    cfg = SuiteConfig(seed=0, window=[[-2, 2]])
    assert cfg.window == ((-2.0, 2.0),) and all(type(x) is float for x in cfg.window[0])
    assert SuiteConfig().window == ((-4.0, 4.0),)


def test_case_ids_are_unique_over_the_default_suite():
    cases = run_suite()
    ids = [c.id for c in cases]
    assert len(ids) == 51
    assert len(set(ids)) == len(ids), sorted(i for i in ids if ids.count(i) > 1)
    assert all(c.id.endswith("-" + c.context["group"]) for c in cases)


def test_the_default_table_runs_every_criterion_on_the_line_and_three_beyond(monkeypatch):
    import amalgams.verify as verify_mod

    calls = []
    for name in verify_mod.ALL_CRITERIA:
        monkeypatch.setitem(verify_mod.CRITERIA, name, lambda cfg, g, name=name: calls.append((name, g.name)) or [])
    run_suite()
    expected = []
    for name in verify_mod.ALL_CRITERIA:
        expected.append((name, "real-line"))
        if name == "partition-ball-equivalence":
            expected.append((name, "heisenberg"))
        if name == "translate-counting":
            expected += [(name, "aniso-plane"), (name, "heisenberg")]
    assert calls == expected


def test_a_criterion_runs_on_the_groups_its_table_entry_names(monkeypatch):
    import amalgams.verify as verify_mod

    for g in (HEISENBERG, ANISO_PLANE):
        monkeypatch.setitem(verify_mod.GROUPS_OF, "lebesgue-embedding", (g,))
        cases = run_suite(SuiteConfig(criteria=("lebesgue-embedding",), n_embedding=2))
        assert [c.status for c in cases] == ["pass"] * 4
        assert all(c.context["group"] == g.name and c.id.endswith("-" + g.name) for c in cases)
        assert all(c.context["samples"] == 2 for c in cases)


@pytest.mark.parametrize("name", ["sparse-union", "tail-norm-constant", "damped-tail-bound"])
def test_a_line_only_criterion_refuses_another_group(monkeypatch, name):
    import amalgams.verify as verify_mod

    monkeypatch.setitem(verify_mod.GROUPS_OF, name, (HEISENBERG,))
    cases = run_suite(SuiteConfig(criteria=(name,), max_levels=2))
    assert [c.status for c in cases] == ["error"]
    assert "real line only" in cases[0].context["exception"]


def test_a_failing_group_does_not_stop_the_next(monkeypatch):
    import amalgams.verify as verify_mod

    check = verify_mod.CRITERIA["translate-counting"]

    def flaky(cfg, g):
        if g == ANISO_PLANE:
            raise RuntimeError("synthetic aniso-plane failure")
        return check(cfg, g)

    monkeypatch.setitem(verify_mod.CRITERIA, "translate-counting", flaky)
    cases = run_suite(SuiteConfig(criteria=("translate-counting",)))
    assert [c.status for c in cases] == ["pass", "error", "pass"]
    assert [c.context["group"] for c in cases] == ["real-line", "aniso-plane", "heisenberg"]
    assert cases[1].id == "translate-counting-aniso-plane"
    assert "synthetic" in cases[1].context["exception"]
