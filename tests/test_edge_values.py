"""The standing edge-value gate: a fixed sweep of in-process CLI runs over
models and rewards at the ends of the float range.

Every run must end with a documented exit code (0, 2 validation, 3 budget,
4 numerical) and nothing raised, print no numpy RuntimeWarning and at most
one stderr line; a run that exits 0 must write finite samples and a strict
JSON manifest (no NaN or Infinity), or print a finite prox point.

The grid: atoms {0, C} and the one-component mixture N(0, min(C/10, 0.1)^2)
at each support radius C; linear, quadratic, max-affine and log-sum-exp
rewards; every command that takes them.  Each run takes the next slope of
the cycle SLOPES, one value per decade band, in grid order: each radius
meets eight to ten of the ten bands.  Every run must end in under a
second.
"""

import contextlib
import io
import json
import os
import time
import warnings

import numpy as np
import pytest

from rewardalign.cli import main

CS = (1e-300, 1.0, 1e154, 1.7e308)
SLOPES = (0.0, 5e-324, 1e-300, 1e-150, 1e-8, 1.0, 1e8, 1e150, 1e300,
          1.7e308)
# reward kind -> the commands that take it; prox-demo takes no model
COMMANDS = {
    "linear": (("align-kl",), ("align-w2", "--backend", "pga"),
               ("prox-demo",)),
    "quadratic": (("align-w2", "--backend", "quad"),
                  ("align-w2", "--backend", "pga"), ("prox-demo",)),
    "maxaffine": (("align-kl",), ("align-w2", "--backend", "lowrank"),
                  ("prox-demo",)),
    "logsumexp": (("align-kl",), ("align-w2", "--backend", "lowrank"),
                  ("prox-demo",)),
}


def model_spec(kind, C):
    if kind == "atoms":
        return {"type": "discrete", "atoms": [[0.0], [C]],
                "probs": [0.5, 0.5], "C": C}
    sd = min(C / 10.0, 0.1)
    return {"type": "gmm", "weights": [1.0], "means": [[0.0]],
            "covs": [[[sd * sd]]], "C": C}


def reward_spec(kind, s):
    return {
        "linear": {"type": "linear", "theta": [s]},
        "quadratic": {"type": "quadratic", "B": [[s]], "b": [s]},
        "maxaffine": {"type": "lowrank_maxaffine", "A": [[1.0]],
                      "pieces": [[[s], 0.0], [[-s], 0.5]]},
        "logsumexp": {"type": "logsumexp", "w": [1.0, 0.5],
                      "z": [[s], [-s]], "A": [[1.0]]},
    }[kind]


def grid():
    runs, i = [], 0
    for C in CS:
        for model in ("atoms", "gmm"):
            for rkind, cmds in COMMANDS.items():
                for cmd in cmds:
                    if cmd == ("prox-demo",) and model != "atoms":
                        continue
                    s = SLOPES[i % len(SLOPES)]
                    i += 1
                    runs.append(pytest.param(
                        C, model, rkind, cmd, s,
                        id=f"{'-'.join(cmd)}-{model}-C{C:g}-{rkind}-s{s:g}"))
    return runs


def strict_json(text):
    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


@pytest.mark.parametrize("C, model, rkind, cmd, s", grid())
def test_edge_value_run(tmp_path, C, model, rkind, cmd, s):
    mpath, rpath = tmp_path / "model.json", tmp_path / "reward.json"
    mpath.write_text(json.dumps(model_spec(model, C)))
    rpath.write_text(json.dumps(reward_spec(rkind, s)))
    out_dir = str(tmp_path / "out")
    argv = list(cmd) + ["--reward", str(rpath)]
    if cmd == ("prox-demo",):
        argv += ["--lambda", "0.5", "--y", repr(C / 2.0), "--C", repr(C)]
    else:
        argv += ["--model", str(mpath), "--n", "5", "--out", out_dir]
        if cmd[0] == "align-w2":
            argv += ["--lambda", "0.5"]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            code = main(argv)
            elapsed = time.perf_counter() - start
    numpy_warnings = [f"{w.filename}:{w.lineno}: {w.message}" for w in caught
                      if issubclass(w.category, RuntimeWarning)]
    assert not numpy_warnings
    assert code in (0, 2, 3, 4)
    assert elapsed < 1.0
    assert len(err.getvalue().splitlines()) <= 1, err.getvalue()
    if code != 0:
        return
    if cmd == ("prox-demo",):
        assert np.all(np.isfinite(strict_json(out.getvalue())["T_lambda_y"]))
        return
    samples = "samples.csv" if cmd[0] == "align-kl" else "pairs.csv"
    pts = np.loadtxt(os.path.join(out_dir, samples), delimiter=",",
                     skiprows=1, ndmin=2)
    assert pts.shape[0] == 5 and np.all(np.isfinite(pts))
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        strict_json(fh.read())
