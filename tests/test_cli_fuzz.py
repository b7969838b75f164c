"""Property test of the CLI exit-code contract: 0, 2 or 3 for every input.

Each example takes one spec of the CLI corpus and changes either one
top-level field allowed for its kind or one flag to a value from a fixed
pool of malformed and extreme values, then runs `cli.main` in-process.
`--steps` and `--depth` also draw values just and far past their caps,
which must exit 2.
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


@st.composite
def mutated_runs(draw):
    """(command, flags, the spec object, allowed exit codes) with one field or flag changed."""
    command, name, *flags = draw(st.sampled_from(CLI_CORPUS))
    codes = (0, 2, 3)
    with open(os.path.join(SPECS, name)) as fh:
        obj = json.load(fh)
    if draw(st.booleans()):
        obj[draw(st.sampled_from(sorted(cli._FIELDS[obj["kind"]])))] = draw(st.sampled_from(POOL))
        flags.append("--steps=40")
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
