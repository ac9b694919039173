"""``main()`` driven with small function specs at extreme values, radii
and meshes.  Whatever the input, it exits 0 with strict JSON on stdout or
exits 2 with one error line, and never prints a traceback.

The draws stay inside the work caps: a support within [-1, 1]^d is cheap
at every drawn radius and mesh, and one that reaches 1e300 is refused
before any work is done."""

import contextlib
import io
import json
import math
import os
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from amalgams.cli import main

DIMENSION = {"real-line": 1, "aniso-plane": 2, "heisenberg": 3}
COORDS = [-1e300, -1.0, -0.25, 0.0, 0.5, 1.0, 1e300]
VALUES = [0.0, 5e-324, 1e-300, 0.5, 1.0, 7.0, 1e300, 1.7976931348623157e308]
EXPONENTS = ["1", "1.5", "2", "4", "inf"]
RADII = ["1e-300", "0.5", "1", "4", "1000", "1e300"]
MESHES = [None, "1e-300", "1e300"]
GRIDS = ["0.5:4:1", "1:1000:1", "1e-300:1e-299:1", "1e299:1e300:1"]


def _reject_constant(token):
    raise ValueError(f"non-standard JSON constant {token}")


@st.composite
def specs(draw):
    group = draw(st.sampled_from(sorted(DIMENSION)))
    cells = []
    for _ in range(draw(st.integers(1, 2))):
        axes = [sorted(draw(st.lists(st.sampled_from(COORDS), min_size=2, max_size=2, unique=True)))
                for _ in range(DIMENSION[group])]
        cells.append({
            "lo": [a for a, _ in axes],
            "hi": [b for _, b in axes],
            "value": draw(st.sampled_from(VALUES)),
        })
    return {"group": group, "cells": cells}


@st.composite
def commands(draw):
    cmd = draw(st.sampled_from(["norm", "fracnorm", "lorentz"]))
    exps = ["--q", draw(st.sampled_from(EXPONENTS)), "--p", draw(st.sampled_from(EXPONENTS))]
    if cmd == "lorentz":
        return [cmd, *exps]
    form = ["--form", draw(st.sampled_from(["partition", "ball"]))]
    mesh = draw(st.sampled_from(MESHES))
    extra = ["--mesh", mesh] if mesh is not None else []
    if cmd == "norm":
        return [cmd, *form, *exps, "--r", draw(st.sampled_from(RADII)), *extra]
    alpha = ["--alpha", draw(st.sampled_from(EXPONENTS))]
    return [cmd, *form, *exps, *alpha, "--grid", draw(st.sampled_from(GRIDS)), *extra]


# the y-cells of this quadrature have an infinite volume, and every y-point
# misses the cells, so the ball norm was inf * 0 = nan
WIDE_HEISENBERG = {"group": "heisenberg", "cells": [
    {"lo": [-1, -0.25, -1], "hi": [0, 0, 0], "value": 1e300},
    {"lo": [1, -1, -1], "hi": [1e300, 0, 1], "value": 1e300},
]}

# a cell of infinite measure holding 5e-324, whose p-th power is 0: the
# Lorentz sum was 0 * inf = nan
INFINITE_MEASURE = {"group": "aniso-plane", "cells": [
    {"lo": [-1e300, -1e300], "hi": [-1.0, -1.0], "value": 5e-324},
    {"lo": [-1e300, -1.0], "hi": [-1.0, -0.25], "value": 0.5},
]}


@settings(max_examples=150, deadline=None)
@given(spec=specs(), argv=commands())
@example(spec=WIDE_HEISENBERG, argv=["norm", "--form", "ball", "--q", "4", "--p", "1", "--r", "1", "--mesh", "1e300"])
@example(spec=INFINITE_MEASURE, argv=["lorentz", "--q", "1.5", "--p", "1.5"])
def test_main_exits_0_with_strict_json_or_2_with_one_error_line(spec, argv):
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "f.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(spec, fh)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main([*argv, "--fn", path])
    assert code in (0, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        payload = json.loads(out.getvalue(), parse_constant=_reject_constant)
        assert isinstance(payload["value"], (float, int, str))
        if isinstance(payload["value"], (float, int)):
            assert math.isfinite(payload["value"])
        else:  # a norm past the float range; never "nan" or "-inf"
            assert payload["value"] == "inf"
    else:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
