"""Command-line front end: function-spec ingestion, subcommand dispatch,
and JSON/CSV report persistence.

Exit codes: 0 on success, 1 when the verification suite reports a
mathematical failure, 2 on usage errors (bad flags, malformed spec
files, out-of-range exponents) and on any other error, each reported as
one ``error:`` line on stderr with nothing on stdout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from datetime import datetime, timezone
from typing import Sequence

from .amalgam import compute_norm
from .counterexample import fractional_bound_constant, union_growth
from .fracmean import (
    ExponentTriple,
    RadiusGrid,
    fractional_norm_ball,
    fractional_norm_partition,
)
from .groups import get_group
from .partitions import build_pi_r, n_pi_bound, partition_constants, validate
from .simplefn import SimpleFunction, lorentz_norm, simple_function
from .verify import SuiteConfig, run_suite_timed, suite_passed

OUT_DIR_ENV = "AMALGAMS_OUT_DIR"


def parse_window(token: str, d: int) -> tuple[tuple[float, float], ...]:
    axes = token.split(",")
    if len(axes) != d:
        raise ValueError(f"window needs {d} axis ranges, got {len(axes)}")
    out = []
    for ax in axes:
        try:
            lo, hi = (float(v) for v in ax.split(":"))
        except ValueError:
            raise ValueError(f"bad window axis {ax!r}; expected lo:hi") from None
        out.append((lo, hi))
    return tuple(out)


def parse_grid(token: str) -> RadiusGrid:
    try:
        rmin, rmax, steps = token.split(":")
        rmin, rmax, steps = float(rmin), float(rmax), int(steps)
    except (ValueError, TypeError):
        raise ValueError(f"bad grid {token!r}; expected rmin:rmax:steps") from None
    try:
        return RadiusGrid(rmin, rmax, steps)
    except ValueError as exc:
        raise ValueError(f"bad grid {token!r}: {exc}") from None


def _read_json(path: str, what: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot read {what} {path}: {exc}") from None


def load_function_spec(path: str) -> SimpleFunction:
    raw = _read_json(path, "function spec")
    try:
        group = get_group(raw["group"])
        cells = [(c["lo"], c["hi"], c["value"]) for c in raw["cells"]]
        return simple_function(group, cells)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed function spec {path}: {exc}") from None


def _fmt(x) -> str:
    if isinstance(x, float):
        return f"{x:.17g}"
    return str(x)


def _strict(obj):
    """``obj`` with non-finite floats as "inf", "-inf" or "nan" (strict JSON)."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return str(obj)
    if isinstance(obj, dict):
        return {k: _strict(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(v) for v in obj]
    return obj


def emit_report(cases, fmt: str, criterion_seconds: dict | None = None) -> str:
    """The text of a report of inequality cases.  A JSON report also holds
    the wall time of each criterion, where given."""
    if fmt == "json":
        payload = {
            "generated_at": datetime.now(timezone.utc).isoformat(),
            "cases": [c.as_dict() for c in cases],
        }
        if criterion_seconds is not None:
            payload["criterion_seconds"] = criterion_seconds
        text = json.dumps(_strict(payload), sort_keys=True, indent=2)
    elif fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["id", "lhs", "rhs", "constant", "margin", "status", "context"])
        for c in cases:
            ctx = dict(c.context)
            ctx["tolerance"] = c.tolerance
            writer.writerow(
                [
                    c.id,
                    _fmt(c.lhs),
                    _fmt(c.rhs),
                    _fmt(c.constant),
                    _fmt(c.margin),
                    c.status,
                    json.dumps(_strict(ctx), sort_keys=True),
                ]
            )
        text = buf.getvalue()
    else:
        raise ValueError(f"unknown report format {fmt!r}")
    return text


def _write(text: str, out: str | None) -> None:
    """Write text to the file out (in AMALGAMS_OUT_DIR for a bare file
    name), or print it where out is None."""
    if not out:
        print(text)
        return
    base = os.environ.get(OUT_DIR_ENV)
    if base and not os.path.isabs(out) and os.sep not in out:
        out = os.path.join(base, out)
    with open(out, "w", encoding="utf-8") as fh:
        fh.write(text)


def _emit_json(payload: dict, out: str | None) -> None:
    _write(json.dumps(_strict(payload), sort_keys=True, indent=2), out)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="amalgams",
        description="Amalgam, Lorentz and fractional-mean norms on homogeneous groups",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    norm = sub.add_parser("norm", help="one amalgam norm of a function spec")
    norm.add_argument("--form", choices=("partition", "ball"), required=True)
    norm.add_argument("--q", required=True)
    norm.add_argument("--p", required=True)
    norm.add_argument("--r", type=float, required=True)
    norm.add_argument("--fn", required=True, help="function spec JSON path")
    norm.add_argument("--mesh", type=float, default=None)
    norm.add_argument("--out", default=None)

    lor = sub.add_parser("lorentz", help="Lorentz norm via the rearrangement")
    lor.add_argument("--q", required=True)
    lor.add_argument("--p", required=True)
    lor.add_argument("--fn", required=True)
    lor.add_argument("--out", default=None)

    frac = sub.add_parser("fracnorm", help="scale-weighted amalgam norm")
    frac.add_argument("--q", required=True)
    frac.add_argument("--p", required=True)
    frac.add_argument("--alpha", required=True)
    frac.add_argument("--grid", required=True, help="rmin:rmax:steps_per_octave")
    frac.add_argument("--form", choices=("partition", "ball"), default="partition")
    frac.add_argument("--fn", required=True)
    frac.add_argument("--mesh", type=float, default=None)
    frac.add_argument("--out", default=None)

    pinfo = sub.add_parser("partition-info", help="inspect a scale-r partition")
    pinfo.add_argument("--group", required=True)
    pinfo.add_argument("--r", type=float, required=True)
    pinfo.add_argument("--window", required=True, help="lo:hi[,lo:hi...]")
    pinfo.add_argument("--out", default=None)

    cex = sub.add_parser("counterexample", help="sparse-union growth report")
    cex.add_argument("--q", required=True)
    cex.add_argument("--alpha", required=True)
    cex.add_argument("--p", required=True)
    cex.add_argument("--levels", type=int, required=True)
    cex.add_argument("--out", default=None)

    ver = sub.add_parser("verify", help="run the inequality suite")
    ver.add_argument("--config", default=None, help="suite config JSON path")
    ver.add_argument("--out", default=None, help="report path (.json or .csv)")
    return ap


def _cmd_norm(args) -> int:
    f = load_function_spec(args.fn)
    res = compute_norm(
        f,
        f.group,
        args.form,
        float(args.q),
        float(args.p),
        args.r,
        args.mesh,
    )
    payload = {"value": res.value, "method": res.method, "mesh": res.mesh, "form": res.form}
    if res.note:
        payload["note"] = res.note
    _emit_json(payload, args.out)
    return 0


def _cmd_lorentz(args) -> int:
    f = load_function_spec(args.fn)
    value = lorentz_norm(f, float(args.q), float(args.p))
    _emit_json({"value": value}, args.out)
    return 0


def _cmd_fracnorm(args) -> int:
    f = load_function_spec(args.fn)
    t = ExponentTriple(float(args.q), float(args.p), float(args.alpha))
    grid = parse_grid(args.grid)
    if args.form == "partition":
        res = fractional_norm_partition(f, f.group, t, grid)
    else:
        res = fractional_norm_ball(f, f.group, t, grid, args.mesh)
    _emit_json(
        {
            "value": res.value,
            "argmax_r": res.argmax_r,
            "classification": res.classification,
            "divergent": res.divergent,
            "infinite_q_convention": res.infinite_q_convention,
        },
        args.out,
    )
    return 0


def _cmd_partition_info(args) -> int:
    g = get_group(args.group)
    window = parse_window(args.window, g.d)
    part = build_pi_r(g, args.r, window)
    report = validate(part)
    bounds = {
        "translates_of_B_r": n_pi_bound(
            g, part.u_radius, args.r / (2.0 * g.gamma), args.r
        ),
        "paper_form": partition_constants(g)[0] ** g.rho,
    }
    _emit_json(
        {
            "group": g.name,
            "r": args.r,
            "u_radius": part.u_radius,
            "cell_count": part.cell_count(),
            "validation": {
                "ok": report.ok,
                "cells_checked": report.cells_checked,
                "probes": report.probes,
                "failures": list(report.failures),
            },
            "n_pi_bounds": bounds,
        },
        args.out,
    )
    return 0


def _cmd_counterexample(args) -> int:
    q, p, alpha = float(args.q), float(args.p), float(args.alpha)
    consts = fractional_bound_constant(q, p, alpha)
    levels = [
        {**lvl, "margin": consts.bound - lvl["fractional_ball_norm"]}
        for lvl in union_growth(q, p, alpha, args.levels)
    ]
    _emit_json(
        {
            "q": q,
            "p": p,
            "alpha": alpha,
            "bound_constant": consts.bound,
            "constants": {
                "c1": consts.c1,
                "c2": consts.c2,
                "c3": consts.c3,
                "c4": consts.c4,
                "decay": consts.decay,
            },
            "by_level": levels,
        },
        args.out,
    )
    return 0


def _load_suite_config(path: str | None) -> SuiteConfig:
    """The suite config of a JSON object whose keys are SuiteConfig fields;
    SuiteConfig checks the values."""
    if path is None:
        return SuiteConfig()
    raw = _read_json(path, "config")
    if not isinstance(raw, dict):
        raise ValueError(f"config {path} must be a JSON object")
    for key in raw:
        if key not in SuiteConfig.__dataclass_fields__:
            raise ValueError(f"unknown config key {key!r}")
    return SuiteConfig(**raw)


def _cmd_verify(args) -> int:
    cfg = _load_suite_config(args.config)
    cases, seconds = run_suite_timed(cfg)
    fmt = "csv" if args.out and args.out.endswith(".csv") else "json"
    _write(emit_report(cases, fmt, seconds), args.out)
    for c in cases:
        line = f"{c.status.upper():7s} {c.id} margin={c.margin:.3e}"
        print(line, file=sys.stderr)
    return 0 if suite_passed(cases) else 1


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    handlers = {
        "norm": _cmd_norm,
        "lorentz": _cmd_lorentz,
        "fracnorm": _cmd_fracnorm,
        "partition-info": _cmd_partition_info,
        "counterexample": _cmd_counterexample,
        "verify": _cmd_verify,
    }
    try:
        return handlers[args.cmd](args)
    except ValueError as exc:
        message = str(exc)
    except Exception as exc:  # anything else is still one line, not a traceback
        message = f"{type(exc).__name__}: {exc}"
    print("error: " + " ".join(message.split()), file=sys.stderr)
    return 2


if __name__ == "__main__":
    raise SystemExit(main())
