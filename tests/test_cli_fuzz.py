"""The exit-code fuzz: one valid run per command, with one spec leaf or
one argument replaced per case by a value from a fixed alphabet.

Every run must end with a documented exit code (0, 2 validation or an
argparse refusal, 3 budget, 4 numerical) and nothing raised; a run that
exits 0 must print strict JSON and write finite samples and a strict JSON
manifest.  The runs start from align-kl, align-w2 on each reward kind (so
on each prox that ``prox_map``'s rule picks), estimate-z on both
backends and prox-demo on each reward kind, all in process at n <= 5.
hypothesis draws the cases derandomized, so the sweep is the same on
every run.
"""

import contextlib
import io
import json
import os
import tempfile

import numpy as np
from hypothesis import given, settings, strategies as st

from rewardalign.cli import main

ATOMS = {"type": "discrete", "atoms": [[0.0], [1.0]], "probs": [0.5, 0.5],
         "C": 1.0}
GMM = {"type": "gmm", "weights": [0.4, 0.6], "means": [[-0.3], [0.4]],
       "covs": [[[0.04]], [[0.09]]], "C": 2.0}
REWARDS = {
    "quadratic": {"type": "quadratic", "B": [[0.3]], "b": [0.2], "c": 0.1},
    "linear": {"type": "linear", "theta": [0.4]},
    "maxaffine": {"type": "lowrank_maxaffine", "A": [[1.0]],
                  "pieces": [[[1.0], 0.0], [[-1.0], 0.5]], "L": 1.0,
                  "R": 2.0},
    "logsumexp": {"type": "logsumexp", "w": [1.0, 0.5],
                  "z": [[1.0], [-0.8]], "A": [[1.0]]},
}
KL_ARGS = {"--eps": "0.5", "--delta": "0.1", "--n": "5", "--seed": "0"}
W2_ARGS = {"--lambda": "0.5", "--eps": "0.5", "--n": "5", "--seed": "0"}
EZ_ARGS = {"--v": "1.0", "--eta": "0.2", "--delta": "0.1", "--seed": "0"}
PD_ARGS = {"--lambda": "0.5", "--y": "0.3", "--C": "1.0"}

# name -> (command, model spec or None, reward spec or None, arguments)
RUNS = {"align-kl": ("align-kl", ATOMS, REWARDS["maxaffine"], KL_ARGS),
        **{f"align-w2-{kind}": ("align-w2", GMM, spec, W2_ARGS)
           for kind, spec in REWARDS.items()},
        **{f"estimate-z-{b}": ("estimate-z", ATOMS, None,
                               {**EZ_ARGS, "--backend": b})
           for b in ("exact", "mc")},
        **{f"prox-demo-{kind}": ("prox-demo", None, spec, PD_ARGS)
           for kind, spec in REWARDS.items()}}

HUGE_INT = 10**400  # JSON reads it as an int no float can hold
# one awkward value per entry: NaN, +-inf, 0, -0, -1, 1e308, the least
# subnormal, a 401-digit integer, a bool, a string, null, [], a ragged
# list and a wrong shape; as a spec leaf, and as an argument's text
ALPHABET = [
    (float("nan"), "nan"), (float("inf"), "inf"), (float("-inf"), "-inf"),
    (0, "0"), (-0.0, "-0"), (-1, "-1"), (1e308, "1e308"),
    (5e-324, "5e-324"), (HUGE_INT, str(HUGE_INT)), (True, "true"),
    ("x", "x"), (None, ""), ([], "[]"), ([[1.0], [1.0, 2.0]], "1,,2"),
    ([[[0.5]]], "0.5,0.5")]


def paths(node, prefix=()):
    """Every position in a JSON document below its root: dict values and
    list items, leaves and inner lists alike."""
    items = (node.items() if isinstance(node, dict) else
             enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield prefix + (key,)
        yield from paths(child, prefix + (key,))


def replaced(doc, path, value):
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return doc


def targets(name):
    _, model, reward, args = RUNS[name]
    return ([("--model", p) for p in paths(model or {})]
            + [("--reward", p) for p in paths(reward or {})]
            + [(flag, None) for flag in args])


@st.composite
def cases(draw):
    name = draw(st.sampled_from(sorted(RUNS)))
    target = draw(st.sampled_from(targets(name)))
    return name, target, draw(st.sampled_from(ALPHABET))


def strict_json(text):
    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")
    return json.loads(text, parse_constant=reject)


def run(name, target, value, tmp):
    """The case's exit code, its stdout, and the directory it wrote."""
    cmd, model, reward, args = RUNS[name]
    (flag, path), (leaf, text) = target, value
    args = {**args, flag: text} if path is None else args
    argv, out_dir = [cmd], os.path.join(tmp, "out")
    for opt, doc in (("--model", model), ("--reward", reward)):
        if doc is not None:
            doc = replaced(doc, path, leaf) if flag == opt else doc
            with open(os.path.join(tmp, opt[2:] + ".json"), "w") as fh:
                fh.write(json.dumps(doc))
            argv.append(f"{opt}={os.path.join(tmp, opt[2:] + '.json')}")
    argv += [f"{opt}={text}" for opt, text in args.items()]
    if cmd.startswith("align"):
        argv.append(f"--out={out_dir}")
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's refusal of an argument
            code = exc.code
    return code, stdout.getvalue(), out_dir


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(cases())
def test_one_mutation_exits_with_a_documented_code(case):
    with tempfile.TemporaryDirectory() as tmp:
        code, stdout, out_dir = run(*case, tmp)
        assert code in (0, 2, 3, 4), case
        if code != 0:
            return
        strict_json(stdout)
        for name in ("samples.csv", "pairs.csv"):
            path = os.path.join(out_dir, name)
            if os.path.exists(path):
                pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                assert np.all(np.isfinite(pts)), case
        if os.path.exists(os.path.join(out_dir, "manifest.json")):
            with open(os.path.join(out_dir, "manifest.json")) as fh:
                strict_json(fh.read())
