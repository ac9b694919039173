"""The four workloads: inputs made from a seed, one pass over a fixed list
of operations, and a check on every output.

An operation is one norm or fractional-norm evaluation, one built
function, or (on ``verify-suite``) one suite case.  It fails when it
raises or when its output misses its oracle or verdict check; a failure
is counted and the pass goes on.  Oracles are written here from the
definitions (the Haar normalisation lambda(B(e, r)) = r**rho and the
cell lists), not taken from the package under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

INF = math.inf

# lambda(B(e, r)) = r**rho: the line ball (-r, r), the plane box
# (-r, r) x (-r^2, r^2) and the Heisenberg gauge ball of volume pi^2 r^4 / 8.
HAAR_SCALE = {"real-line": 0.5, "aniso-plane": 0.25, "heisenberg": 8.0 / math.pi**2}
RHO = {"real-line": 1.0, "aniso-plane": 3.0, "heisenberg": 4.0}

EXACT_TOL = 1e-12  # diagonal identity and exact cell sums
FUBINI_TOL = 1e-9  # exact sums taken in another order: line Fubini identity, combine
INEQUALITY_TOL = 1e-9  # relative margin allowed on a proven inequality
# Gross-error verdict on a quadrature ball norm; its accuracy is reported
# as a metric, not judged here.
QUADRATURE_TOL = 0.25


@dataclass
class Tally:
    """Counts operations, keeps the first failures and the quadrature errors."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    relerr: dict = field(default_factory=dict)  # group -> [relative error]
    mesh_over_r: dict = field(default_factory=dict)  # group -> mesh / r used

    def op(self, label: str, fn) -> None:
        """Run one operation; ``fn`` returns None when its output checks out."""
        self.attempted += 1
        try:
            problem = fn()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failed one
            problem = f"raised {type(exc).__name__}: {exc}"
        if problem:
            self.failed += 1
            if len(self.failures) < 10:
                self.failures.append(f"{label}: {problem}")

    def record_accuracy(self, group: str, err: float, mesh_over_r: float) -> None:
        self.relerr.setdefault(group, []).append(err)
        self.mesh_over_r[group] = mesh_over_r


def rel_diff(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def agrees(value: float, oracle: float, tol: float) -> str | None:
    d = rel_diff(value, oracle)
    return None if d <= tol else f"{value!r} vs oracle {oracle!r} (rel diff {d:.3g} > {tol:g})"


def at_most(lhs: float, rhs: float, tol: float) -> str | None:
    margin = (rhs - lhs) / max(abs(lhs), abs(rhs), 1e-300)
    return None if margin >= -tol else f"{lhs!r} exceeds bound {rhs!r} (margin {margin:.3g})"


def lebesgue_oracle(f, q: float) -> float:
    if math.isinf(q):
        return max(c.value for c in f.cells)
    scale = HAAR_SCALE[f.group.name]
    total = sum(scale * math.prod(b - a for a, b in zip(c.lo, c.hi)) * c.value**q for c in f.cells)
    return total ** (1.0 / q)


def weak_lorentz_oracle(f, alpha: float) -> float:
    """sup_t t^(1/alpha) f*(t) from the cells sorted by decreasing value."""
    scale = HAAR_SCALE[f.group.name]
    best, t = 0.0, 0.0
    for c in sorted(f.cells, key=lambda c: -c.value):
        t += scale * math.prod(b - a for a, b in zip(c.lo, c.hi))
        best = max(best, c.value * t ** (1.0 / alpha))
    return best


def sub_seeds(seed: int, salt: int, n: int) -> list[int]:
    rng = np.random.default_rng([seed, salt])
    return [int(s) for s in rng.integers(0, 2**62, size=n)]


# -- line-scales ---------------------------------------------------------------

# Warm-ups run the workload's kinds of operation on fixed small functions,
# so that set-up time does not depend on the seed.
WARM_LINE_CELLS = [((-1.0,), (0.5,), 2.0), ((1.0,), (2.0,), 0.5), ((2.5,), (4.0,), 1.0)]

# The suite's weak-Lorentz pairs (q, alpha); its embedding triples come from
# the package's SuiteConfig.
WEAK_PAIRS = ((1.0, 2.0), (2.0, 3.0))
DIAGONAL_P = (1.0, 1.5, 2.0, 3.0, INF)


class LineScales:
    name = "line-scales"
    sizes = {"bench": 300, "tiny": 4}

    def inputs(self, am, seed: int, size: str, workdir: str):
        g = am.REAL_LINE
        window = am.SuiteConfig().window
        items = []
        for i, s in enumerate(sub_seeds(seed, 1, self.sizes[size])):
            f = am.gen_random_simple(s, 1 + i % 12, window, g)
            items.append(
                {
                    "f": f,
                    "grid": am.default_grid(f),
                    "r": 2.0 ** (i % 5 - 2),
                    "p_diag": DIAGONAL_P[i % 5],
                    "q_fubini": (1.0, 2.0, 3.0)[i % 3],
                }
            )
        return {"g": g, "items": items, "triples": am.SuiteConfig().embedding_triples}

    def warm(self, am, inputs, tally: Tally) -> None:
        f = am.simple_function(inputs["g"], WARM_LINE_CELLS)
        item = {"f": f, "grid": am.default_grid(f), "r": 0.5, "p_diag": 2.0, "q_fubini": 2.0}
        self._items(am, inputs, [item], tally)

    def run(self, am, inputs, tally: Tally) -> None:
        self._items(am, inputs, inputs["items"], tally)

    def _items(self, am, inputs, items, tally: Tally) -> None:
        g = inputs["g"]
        T = am.ExponentTriple
        for it in items:
            f, grid = it["f"], it["grid"]
            for q, p, alpha in inputs["triples"]:
                tally.op(
                    "lebesgue-embedding",
                    lambda: at_most(
                        am.fractional_norm_partition(f, g, T(q, p, alpha), grid).value,
                        lebesgue_oracle(f, alpha),
                        INEQUALITY_TOL,
                    ),
                )
            for q, alpha in WEAK_PAIRS:
                const = (alpha / (alpha - q)) ** (1.0 / q)
                tally.op(
                    "weak-lorentz-embedding",
                    lambda: at_most(
                        am.fractional_norm_ball(f, g, T(q, INF, alpha), grid).value,
                        const * weak_lorentz_oracle(f, alpha),
                        INEQUALITY_TOL,
                    ),
                )
            r, p, q = it["r"], it["p_diag"], it["q_fubini"]
            tally.op(
                "diagonal-identity",
                lambda: agrees(
                    am.partition_norm(f, am.fracmean.partition_for(f, g, r), p, p),
                    lebesgue_oracle(f, p),
                    EXACT_TOL,
                ),
            )
            tally.op(
                "fubini-identity",
                lambda: agrees(
                    am.ball_norm(f, g, r, q, q),
                    r ** (RHO[g.name] / q) * lebesgue_oracle(f, q),
                    FUBINI_TOL,
                ),
            )


# -- group-oracles -------------------------------------------------------------

ORACLE_WINDOWS = {
    "heisenberg": ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 0.5)),
    "aniso-plane": ((-2.0, 2.0), (-4.0, 4.0)),
}
ORACLE_RADII = tuple(0.75 * 2.0**k for k in range(5))
# The Heisenberg single dyadic cell of the window above with the worst
# quadrature error at mesh r/3 (4.7% above the oracle at r = 6, q = 1),
# found by trying all 294 of them.  The accuracy panel always holds it, so
# that the Heisenberg maximum error tracks the kernel, not the seed's draw.
HARD_HEISENBERG_CELL = ((0.0, 0.0, 0.0), (0.25, 0.5, 0.5), 1.0)


class GroupOracles:
    name = "group-oracles"
    # (Heisenberg functions, aniso-plane functions).  "panel" is the
    # accuracy panel every workload evaluates once, untimed, plus the hard
    # Heisenberg cell; the plane kernel is cheap, so it gets more functions.
    # 40 Heisenberg functions, not 20: the cost of a function depends on its
    # cells' geometry, and with 20 the pass time differed by up to 16%
    # (interquartile range over median) between seeds.
    sizes = {"bench": (40, 64), "panel": (8, 64), "tiny": (1, 2)}

    def inputs(self, am, seed: int, size: str, workdir: str):
        n_heis, n_plane = self.sizes[size]
        funcs = []
        for g, n, salt in ((am.HEISENBERG, n_heis, 2), (am.ANISO_PLANE, n_plane, 3)):
            window = ORACLE_WINDOWS[g.name]
            for i, s in enumerate(sub_seeds(seed, salt, n)):
                funcs.append((g, am.gen_random_simple(s, 1 + i % 3, window, g)))
        if size == "panel":
            funcs.append((am.HEISENBERG, am.simple_function(am.HEISENBERG, [HARD_HEISENBERG_CELL])))
        return {"funcs": funcs}

    def warm(self, am, inputs, tally: Tally) -> None:
        funcs = [
            (am.HEISENBERG, am.indicator(am.HEISENBERG, (0.0, 0.0, 0.0), (0.5, 0.5, 0.25))),
            (am.ANISO_PLANE, am.indicator(am.ANISO_PLANE, (0.0, 0.0), (1.0, 1.0))),
        ]
        self._funcs(am, funcs, ORACLE_RADII[:1], tally)

    def run(self, am, inputs, tally: Tally) -> None:
        self._funcs(am, inputs["funcs"], ORACLE_RADII, tally)

    def _funcs(self, am, funcs, radii, tally: Tally) -> None:
        for g, f in funcs:
            for r in radii:
                for q in (1.0, 2.0):
                    norm_q = lebesgue_oracle(f, q)
                    tally.op(
                        f"partition-diagonal-{g.name}",
                        lambda: agrees(
                            am.partition_norm(f, am.fracmean.partition_for(f, g, r), q, q),
                            norm_q,
                            EXACT_TOL,
                        ),
                    )
                    tally.op(
                        f"ball-fubini-{g.name}",
                        lambda: self._ball(am, tally, f, g, r, q, r ** (RHO[g.name] / q) * norm_q),
                    )

    @staticmethod
    def _ball(am, tally: Tally, f, g, r: float, q: float, oracle: float) -> str | None:
        res = am.compute_norm(f, g, "ball", q, q, r)
        err = rel_diff(res.value, oracle)
        tally.record_accuracy(g.name, err, res.mesh / r)
        return None if err <= QUADRATURE_TOL else f"quadrature error {err:.3g} > {QUADRATURE_TOL}"


# -- build-large ---------------------------------------------------------------


def random_intervals(rng, n: int, gap=(0.1, 1.0), length=(0.5, 3.0)):
    """n disjoint real-line cells in shuffled order, log-uniform values in (0.1, 10)."""
    gaps = rng.uniform(*gap, n)
    lens = rng.uniform(*length, n)
    los = np.cumsum(gaps + lens) - lens
    vals = 10.0 ** rng.uniform(-1.0, 1.0, n)
    cells = [((float(a),), (float(a + w),), float(v)) for a, w, v in zip(los, lens, vals)]
    return [cells[i] for i in rng.permutation(n)]


def product_l1_oracle(f, h) -> float:
    a = np.array([(c.lo[0], c.hi[0], c.value) for c in f.cells])
    b = np.array([(c.lo[0], c.hi[0], c.value) for c in h.cells])
    overlap = np.clip(
        np.minimum(a[:, 1, None], b[None, :, 1]) - np.maximum(a[:, 0, None], b[None, :, 0]),
        0.0,
        None,
    )
    return float(HAAR_SCALE["real-line"] * np.sum(overlap * a[:, 2, None] * b[None, :, 2]))


class BuildLarge:
    name = "build-large"
    sizes = {
        "bench": {"cells": (1000, 2000), "radial_mesh": 0.005, "levels": 8, "combine": 200},
        "tiny": {"cells": (10, 20), "radial_mesh": 0.2, "levels": 2, "combine": 6},
    }
    RADIAL_THETA = 4.0
    RADIAL_SPAN = 25.0  # outer / inner truncation radius

    def inputs(self, am, seed: int, size: str, workdir: str):
        sz = self.sizes[size]
        rng = np.random.default_rng([seed, 4])
        g = am.REAL_LINE
        specs = []
        for n in sz["cells"]:
            cells = random_intervals(rng, n)
            l2 = math.sqrt(sum(HAAR_SCALE[g.name] * (hi[0] - lo[0]) * v * v for lo, hi, v in cells))
            specs.append((cells, l2))
        fa, fb = (
            am.simple_function(g, random_intervals(rng, sz["combine"], gap=(0.0, 1.0), length=(0.5, 2.0)))
            for _ in range(2)
        )
        return {
            "g": g,
            "specs": specs,
            "inner": float(rng.uniform(0.5, 2.0)),
            "alpha": float(rng.uniform(1.8, 3.0)),
            "fa": fa,
            "fb": fb,
            "product_l1": product_l1_oracle(fa, fb),
            "sum_l1": lebesgue_oracle(fa, 1.0) + lebesgue_oracle(fb, 1.0),
            "size": sz,
        }

    def warm(self, am, inputs, tally: Tally) -> None:
        g = inputs["g"]
        self._reads(am, g, {"warm": am.simple_function(g, WARM_LINE_CELLS)}, tally)

    def run(self, am, inputs, tally: Tally) -> None:
        g, sz = inputs["g"], inputs["size"]
        built = {}

        def build_cells(key, cells, l2):
            f = built[key] = am.simple_function(g, cells)
            if len(f.cells) != len(cells):
                return f"{len(f.cells)} cells built from {len(cells)}"
            return agrees(lebesgue_oracle(f, 2.0), l2, EXACT_TOL)

        for cells, l2 in inputs["specs"]:
            tally.op("simple_function", lambda: build_cells(f"cells-{len(cells)}", cells, l2))

        def build_radial():
            a = inputs["inner"]
            disc = am.verify.radial_power_fn(
                g, "power", self.RADIAL_THETA, (a, self.RADIAL_SPAN * a), sz["radial_mesh"], "inner-edge"
            )
            f = built["radial"] = disc.function
            if len(f.cells) != 2 * (len(disc.shell_edges) - 1):
                return f"{len(f.cells)} cells for {len(disc.shell_edges) - 1} shells"
            s = RHO[g.name] * (1.0 - 1.0 / self.RADIAL_THETA)  # rho / theta'
            return agrees(lebesgue_oracle(f, INF), a**-s, EXACT_TOL)

        tally.op("radial_power_fn", build_radial)

        def build_union():
            alpha, levels = inputs["alpha"], sz["levels"]
            _, f = am.build_sparse_union(g, 1.0, alpha, levels)
            built["sparse-union"] = f
            counts = [math.floor(2.0 ** (n + 1)) + 1 for n in range(1, levels + 1)]
            if len(f.cells) != sum(counts):
                return f"{len(f.cells)} balls, expected {sum(counts)}"
            measure = sum(m * 2.0 ** (-n - 1) for n, m in zip(range(1, levels + 1), counts))
            return agrees(am.weak_lorentz_of_union(f, alpha), measure ** (1.0 / alpha), EXACT_TOL)

        tally.op("build_sparse_union", build_union)

        def combine(op, oracle):
            f = am.pointwise_combine(inputs["fa"], inputs["fb"], op=op)
            return agrees(lebesgue_oracle(f, 1.0), oracle, FUBINI_TOL)

        tally.op("pointwise_combine-product", lambda: combine("product", inputs["product_l1"]))
        tally.op("pointwise_combine-sum", lambda: combine("sum", inputs["sum_l1"]))

        large = {k: built.get(k) for k in (f"cells-{sz['cells'][-1]}", "radial", "sparse-union")}
        self._reads(am, g, large, tally)

    @staticmethod
    def _reads(am, g, funcs, tally: Tally) -> None:
        """The suite's first embedding triple and weak-Lorentz pair on each function."""
        T = am.ExponentTriple
        for key, f in funcs.items():
            tally.op(
                f"fracnorm-partition-{key}",
                lambda: at_most(
                    am.fractional_norm_partition(f, g, T(1.0, 4.0, 2.0), am.default_grid(f)).value,
                    lebesgue_oracle(f, 2.0),
                    INEQUALITY_TOL,
                ),
            )
            tally.op(
                f"fracnorm-ball-{key}",
                lambda: at_most(
                    am.fractional_norm_ball(f, g, T(1.0, INF, 2.0), am.default_grid(f)).value,
                    2.0 * weak_lorentz_oracle(f, 2.0),  # (alpha / (alpha - q))^(1/q) = 2
                    INEQUALITY_TOL,
                ),
            )


# -- verify-suite --------------------------------------------------------------

# Every criterion except holder-product.  Its holder-product-2 case records
# the exponent inf in its context, which the report writes as the token
# Infinity, so the report is not strict JSON and every pass would fail; the
# strict-JSON check below is kept as it is for the other fourteen.
SUITE_CRITERIA = [
    "diagonal-identity",
    "fubini-identity",
    "partition-ball-equivalence",
    "lebesgue-embedding",
    "alpha-endpoint-sandwiches",
    "exponent-monotonicity",
    "kolmogorov-bound",
    "weak-lorentz-embedding",
    "degeneracy-slopes",
    "sparse-union",
    "translate-counting",
    "covering-limit",
    "tail-norm-constant",
    "damped-tail-bound",
]

# SuiteConfig sample counts scaled so that one pass takes seconds, not the
# 40 s of the default config; --full-suite restores them.
BENCH_SUITE = {
    "n_identity": 10,
    "n_equivalence": 20,
    "n_embedding": 20,
    "n_sandwich": 10,
    "n_monotonicity": 10,
    "n_kolmogorov": 10,
    "n_weak_embedding": 10,
    "n_limit": 10,
    "n_translates": 100,
    "max_levels": 7,
}
TINY_SUITE = {key: (2 if key.startswith("n_") else 3) for key in BENCH_SUITE}


def _reject_constant(token: str):
    raise ValueError(f"non-finite number {token} in the report")


def _non_finite(obj) -> bool:
    if isinstance(obj, float):
        return not math.isfinite(obj)
    if isinstance(obj, dict):
        return any(_non_finite(v) for v in obj.values())
    if isinstance(obj, list):
        return any(_non_finite(v) for v in obj)
    return False


class VerifySuite:
    name = "verify-suite"
    sizes = {"bench": BENCH_SUITE, "tiny": TINY_SUITE, "full": {}}

    def inputs(self, am, seed: int, size: str, workdir: str):
        paths = {}
        for key, cfg in (
            ("config", {"seed": seed, "criteria": SUITE_CRITERIA, **self.sizes[size]}),
            ("warm_config", {"seed": seed, "criteria": ["degeneracy-slopes"]}),
        ):
            paths[key] = os.path.join(workdir, f"{key}.json")
            with open(paths[key], "w", encoding="utf-8") as fh:
                json.dump(cfg, fh)
        paths["report"] = os.path.join(workdir, "report.json")
        return paths

    def warm(self, am, inputs, tally: Tally) -> None:
        self._verify(am, inputs["warm_config"], inputs["report"], tally)

    def run(self, am, inputs, tally: Tally) -> None:
        self._verify(am, inputs["config"], inputs["report"], tally)

    @staticmethod
    def _verify(am, config: str, report: str, tally: Tally) -> None:
        try:
            if os.path.exists(report):
                os.remove(report)  # a report read below is always this call's
            with contextlib.redirect_stderr(io.StringIO()):
                code = am.cli.main(["verify", "--config", config, "--out", report])
            if code == 2 or not os.path.exists(report):
                tally.op("verify", lambda: f"exit code {code}, report written: {os.path.exists(report)}")
                return
            with open(report, encoding="utf-8") as fh:
                text = fh.read()
            cases = json.loads(text)["cases"]
        except Exception as exc:  # noqa: BLE001 - the whole pass is one failed operation
            tally.op("verify", lambda: f"raised {type(exc).__name__}: {exc}")
            return
        for case in cases:
            tally.op(
                f"case {case.get('id')}",
                lambda: (
                    f"status {case.get('status')}"
                    if case.get("status") not in ("pass", "misuse")
                    else "non-finite number in its report entry (not strict JSON)"
                    if _non_finite(case)
                    else None
                ),
            )
        passed = all(c.get("status") in ("pass", "misuse") for c in cases)
        if code != (0 if passed else 1):
            tally.op("verify exit code", lambda: f"exit code {code} for a suite that passed={passed}")
        if not any(_non_finite(c) for c in cases):
            try:
                json.loads(text, parse_constant=_reject_constant)
            except ValueError as exc:
                tally.op("verify report", lambda: str(exc))


WORKLOADS = {w.name: w for w in (VerifySuite(), LineScales(), BuildLarge(), GroupOracles())}
