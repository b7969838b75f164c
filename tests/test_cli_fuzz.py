"""Property test of the CLI exit-code contract: 0, 2 or 3 for every input.

Each example takes one spec of the CLI corpus and changes one top-level
field, one builtin param or one flag to a value from a fixed pool of
malformed and extreme values, then runs `cli.main` in-process.  A
`spectral-1d` spec draws its field from every pde task's fields, and a
builtin its param from its own params and one unknown name; another task's
field and an unknown param must exit 2.  `--steps` and `--depth` also draw
values just and far past their caps, which must exit 2.
"""

import contextlib
import io
import json
import os
import tempfile
from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from ctrlkit import cli
from test_acceptance import CLI_CORPUS, SPECS

POOL = ["a", float("nan"), float("inf"), float("-inf"), -1, 0, [], [[1, 2]], {}, None, 1e300]
FLAG_POOL = ["a", "nan", "inf", "-inf", "-1", "0", "[]", "[[1, 2]]", "{}", "null", "1e300"]
FLAGS = ["--steps", "--tol", "--T", "--t", "--depth", "--poles", "--routh", "--format", "--out"]
# Only their own flag draws these: 1e15 as --T or --t is a valid request of
# unmeasured cost.
OVER_CAP = {"--steps": ["1000001", "1000000000000000"], "--depth": ["17", "1000000000"]}


# The builtin table of each command that takes a builtin spec.
TABLES = {"analyze": cli._ANALYZE_BUILTINS, "stabilize": cli._STABILIZE_BUILTINS, "shoot": cli._OC_BUILDERS}
PDE_FIELDS = cli._FIELDS["spectral-1d"].union(*(fields for fields, _ in cli._PDE_TASKS.values()))


@st.composite
def mutated_runs(draw):
    """(command, flags, the spec object, allowed exit codes) with one field, param or flag changed."""
    command, name, *flags = draw(st.sampled_from(CLI_CORPUS))
    codes = (0, 2, 3)
    with open(os.path.join(SPECS, name)) as fh:
        obj = json.load(fh)
    change = draw(st.sampled_from(["field", "param", "flag"] if "params" in obj else ["field", "flag"]))
    if change == "field":
        kind = obj["kind"]
        allowed = cli._FIELDS[kind] | (cli._PDE_TASKS[obj["task"]][0] if kind == "spectral-1d" else set())
        field = draw(st.sampled_from(sorted(PDE_FIELDS if kind == "spectral-1d" else allowed)))
        obj[field] = draw(st.sampled_from(POOL))
        flags.append("--steps=40")
        if field not in allowed:
            codes = (2,)
    elif change == "param":
        key = draw(st.sampled_from(sorted(TABLES[command][obj["name"]][1]) + ["bogus"]))
        obj["params"][key] = draw(st.sampled_from(POOL))
        flags.append("--steps=40")
        if key == "bogus":
            codes = (2,)
    else:
        flag = draw(st.sampled_from(FLAGS))
        if flag != "--steps":
            flags.append("--steps=40")
        over_cap = OVER_CAP.get(flag, [])
        value = draw(st.sampled_from(FLAG_POOL + over_cap))
        flags.append(f"{flag}={value}")
        if value in over_cap:
            codes = (2,)
    return command, flags, obj, codes


@settings(derandomize=True, deadline=None, max_examples=800, database=None)
@given(mutated_runs())
def test_exit_code_is_0_2_or_3(run):
    command, flags, obj, codes = run
    with tempfile.TemporaryDirectory() as out_dir, mock.patch.dict(os.environ, {"CTRL_OUT_DIR": out_dir}):
        path = os.path.join(out_dir, "spec.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            with np.errstate(all="ignore"):
                code = cli.main([command, path, *flags])
    assert code in codes, (command, flags, obj, err.getvalue())
    assert "Traceback" not in err.getvalue()
