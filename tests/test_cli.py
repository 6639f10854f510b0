import json
import os
import time
import warnings
from dataclasses import asdict

import numpy as np
import pytest

import rewardalign as ra
from rewardalign.cli import fig1_base, fig1_reward, main, reproduce_fig1
from rewardalign.models import SUPPORT_MASS_TOL, recommended_steps


@pytest.fixture
def model_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text(json.dumps({
        "type": "discrete", "atoms": [[0.0], [1.0]],
        "probs": [0.5, 0.5], "C": 1.0}))
    return str(path)


@pytest.fixture
def gmm_file(tmp_path):
    path = tmp_path / "gmm.json"
    path.write_text(json.dumps({
        "type": "gmm", "weights": [0.5, 0.5], "means": [[-2.0], [2.0]],
        "covs": [[[0.49]], [[0.49]]], "C": 8.0}))
    return str(path)


@pytest.fixture
def kl_reward_file(tmp_path):
    path = tmp_path / "reward.json"
    path.write_text(json.dumps({
        "type": "lowrank_maxaffine", "A": [[1.0]],
        "pieces": [[[1.0], 0.0]], "L": 1.0, "R": 1.0}))
    return str(path)


@pytest.fixture
def quad_reward_file(tmp_path):
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({
        "type": "quadratic", "B": [[0.15]], "b": [0.6], "c": -0.6}))
    return str(path)


def test_estimate_z(model_file, capsys):
    rc = main(["estimate-z", "--model", model_file, "--v", "1.0",
               "--eta", "0.1", "--delta", "0.05", "--backend", "exact",
               "--seed", "0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == pytest.approx((1 + np.e) / 2, rel=1e-12)
    assert out["method"] == "exact"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("v", ["800", "1e308"])
def test_estimate_z_overflow_prints_strict_json(model_file, capsys, v):
    # Z = (1 + e^v) / 2 overflows a double; log Z does not, and the exact
    # backend never forms ||v|| C (which overflows at 1e308)
    rc = main(["estimate-z", "--model", model_file, "--v", v])
    assert rc == 0

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    captured = capsys.readouterr()
    assert captured.err == ""
    out = json.loads(captured.out, parse_constant=reject)
    assert out["value"] is None
    assert out["log_value"] == pytest.approx(float(v) - np.log(2), rel=1e-12)


def test_prox_demo(quad_reward_file, capsys):
    rc = main(["prox-demo", "--reward", quad_reward_file, "--lambda", "0.15",
               "--y", "0.0", "--C", "10.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    assert out["T_lambda_y"] == pytest.approx([1.0], abs=1e-12)


def test_prox_demo_linear_reward(tmp_path, capsys):
    reward = tmp_path / "lin.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [0.4, -0.3]}))
    rc = main(["prox-demo", "--reward", str(reward), "--lambda", "0.5",
               "--y", "0.2,0.1", "--C", "1.0"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    want = ra.prox_quadratic(ra.QuadraticReward(np.zeros((2, 2)), [0.4, -0.3]),
                             0.5, np.array([0.2, 0.1]), 1.0)
    assert np.max(np.abs(np.array(out["T_lambda_y"]) - want)) <= 1e-8


def test_prox_demo_max_affine_reward(tmp_path, capsys):
    # a max-affine low-rank reward is not concave: it takes the exact prox
    reward = tmp_path / "maxaff.json"
    reward.write_text(json.dumps({"type": "lowrank_maxaffine",
                                  "A": [[1.0, 0.0]],
                                  "pieces": [[[1.0], 0.0], [[-1.0], 0.0]]}))
    rc = main(["prox-demo", "--reward", str(reward), "--lambda", "0.5",
               "--y", "0.1,0.2", "--C", "1.0"])
    assert rc == 0
    x = np.array(json.loads(capsys.readouterr().out)["T_lambda_y"])
    y, r = np.array([0.1, 0.2]), ra.load_reward(str(reward))
    gx = ra.metrics.oracle_prox_grid(r, 0.5, y, 1.0, resolution=1e-3)

    def objective(z):
        return float(r.value(z)) - 0.5 * float(np.sum((z - y) ** 2))

    assert np.max(np.abs(x - gx)) <= 1e-3
    assert objective(x) >= objective(gx) - 1e-12
    # the best piece, +u: y + (1, 0) projected onto the unit ball
    assert np.array_equal(x, ra.project_ball(y + [1.0, 0.0], 1.0))


PROX_DEMO_REWARDS = {
    "quad": {"type": "quadratic", "B": [[0.3, 0.0], [0.0, 0.1]],
             "b": [0.2, -0.1]},
    "pga": {"type": "linear", "theta": [0.4, -0.3]},
    "lowrank/max_affine": {"type": "lowrank_maxaffine", "A": [[1.0, 0.0]],
                           "pieces": [[[1.0], 0.0], [[-1.0], 0.0]]},
    "lowrank/alg2": {"type": "logsumexp", "w": [1.0, 0.5],
                     "z": [[1.0], [-0.8]], "A": [[1.0, 0.0]]},
}


@pytest.mark.parametrize("prox", list(PROX_DEMO_REWARDS))
def test_prox_demo_equals_the_pushforward(tmp_path, capsys, prox):
    # prox-demo picks the backend from the reward type and runs the prox
    # align-w2 runs, bit for bit, on a one-atom base at y
    path = tmp_path / "reward.json"
    path.write_text(json.dumps(PROX_DEMO_REWARDS[prox]))
    assert main(["prox-demo", "--reward", str(path), "--lambda", "0.5",
                 "--y", "0.3,0.2", "--C", "1.0"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["prox"] == prox
    y, reward = np.array([0.3, 0.2]), ra.load_reward(str(path))
    res = ra.sample_w2_aligned(ra.DiscreteModel([y], [1.0], 1.0), reward,
                               lam=0.5, n=1, seed=0,
                               backend=prox.split("/")[0])
    assert np.array_equal(out["T_lambda_y"], res.xs[0])
    if prox == "lowrank/alg2":
        # the net search at the default eps = 0.1: within eps/3 of the grid
        gx = ra.metrics.oracle_prox_grid(reward, 0.5, y, 1.0, 1e-3)

        def objective(z):
            return float(reward.value(z)) - 0.5 * float(np.sum((z - y) ** 2))

        assert objective(res.xs[0]) >= objective(gx) - 0.1 / 3


@pytest.mark.parametrize("cmd", ["align-w2", "prox-demo"])
def test_lowrank_search_derives_its_schedule_and_net_once(
        model_file, tmp_path, monkeypatch, cmd):
    calls = []
    derive, build = ra.Alg2Params.from_problem, ra.w2_align.build_net

    def spy_derive(cls, *args, **kwargs):
        calls.append("from_problem")
        return derive(*args, **kwargs)

    def spy_build(*args, **kwargs):
        calls.append("build_net")
        return build(*args, **kwargs)

    monkeypatch.setattr(ra.Alg2Params, "from_problem",
                        classmethod(spy_derive))
    monkeypatch.setattr(ra.w2_align, "build_net", spy_build)
    path = tmp_path / "reward.json"
    path.write_text(json.dumps({"type": "logsumexp", "w": [1.0, 0.5],
                                "z": [[1.0], [-0.8]], "A": [[1.0]]}))
    argv = [cmd, "--reward", str(path), "--lambda", "0.5"]
    if cmd == "prox-demo":
        argv += ["--y", "0.3", "--C", "1.0"]
    else:
        argv += ["--model", model_file, "--n", "5", "--backend", "lowrank",
                 "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert sorted(calls) == ["build_net", "from_problem"]


def test_align_kl_run(model_file, kl_reward_file, tmp_path, capsys):
    out_dir = str(tmp_path / "out")
    rc = main(["align-kl", "--model", model_file, "--reward", kl_reward_file,
               "--eps", "0.1", "--delta", "0.05", "--n", "5000",
               "--seed", "7", "--backend", "exact", "--out", out_dir])
    assert rc == 0
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    assert len(samples) == 5000
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    # manifest parameters equal an independent recomputation
    env = json.loads(open(os.path.join(out_dir, "envelope.json")).read())
    params = ra.compute_params(C=1.0, m=env["m"], eps=0.1)
    assert manifest["derived_parameters"]["N_rej"] == params.N_rej
    assert manifest["derived_parameters"]["a0"] == pytest.approx(params.a0)
    assert manifest["derived_parameters"]["B"] == pytest.approx(params.B)
    p1 = np.mean(samples > 0.5)
    assert abs(p1 - np.e / (1 + np.e)) < 0.03
    # each pass is one proposal draw; a pass of n/a0 candidates serves
    # every slot with high probability, so a handful of passes suffice
    diag = manifest["diagnostics"]
    assert 1 <= diag["passes"] <= params.N_rej
    assert diag["proposal_draws"] <= 5000 * params.N_rej
    # f(u) = u: a CLI reward has pieces, and its one piece is its envelope
    assert diag["net_pieces"] == diag["m"] == env["m"] == 1


def test_align_kl_byte_identical_reruns(model_file, kl_reward_file, tmp_path):
    out1, out2 = str(tmp_path / "a"), str(tmp_path / "b")
    for out in (out1, out2):
        rc = main(["align-kl", "--model", model_file, "--reward",
                   kl_reward_file, "--n", "500", "--seed", "3",
                   "--out", out])
        assert rc == 0
    b1 = open(os.path.join(out1, "samples.csv"), "rb").read()
    b2 = open(os.path.join(out2, "samples.csv"), "rb").read()
    assert b1 == b2
    m1 = json.loads(open(os.path.join(out1, "manifest.json")).read())
    m2 = json.loads(open(os.path.join(out2, "manifest.json")).read())
    m1.pop("wall_clock_seconds"), m2.pop("wall_clock_seconds")
    assert m1 == m2


def test_align_w2_run(gmm_file, quad_reward_file, tmp_path, capsys):
    out_dir = str(tmp_path / "w2")
    rc = main(["align-w2", "--model", gmm_file, "--reward", quad_reward_file,
               "--lambda", "0.15", "--n", "2000", "--seed", "1",
               "--backend", "quad", "--out", out_dir])
    assert rc == 0
    pairs = np.loadtxt(os.path.join(out_dir, "pairs.csv"), delimiter=",",
                       skiprows=1)
    ys, xs = pairs[:, 0], pairs[:, 1]
    assert np.max(np.abs(xs - (1 + ys / 2))) <= 1e-12


def test_align_w2_lowrank_manifest(tmp_path):
    model = tmp_path / "m.json"
    model.write_text(json.dumps({
        "type": "discrete", "atoms": [[0.5, 0.0], [-0.5, 0.3]],
        "probs": [0.5, 0.5], "C": 1.0}))
    reward = tmp_path / "r.json"
    reward.write_text(json.dumps({
        "type": "lowrank_maxaffine", "A": [[0.8, 0.0]],
        "pieces": [[[1.0], 0.0]], "L": 1.0, "R": 1.0}))
    out_dir = str(tmp_path / "lr")
    rc = main(["align-w2", "--model", str(model), "--reward", str(reward),
               "--lambda", "0.1", "--eps", "0.2", "--n", "50", "--seed", "4",
               "--backend", "lowrank", "--out", out_dir])
    assert rc == 0
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    derived = manifest["derived_parameters"]
    params = ra.Alg2Params.from_problem(L=1.0, S=0.8, lam=0.1, C=1.0,
                                        eps=0.2, r_A=1)
    assert derived["h"] == pytest.approx(params.h)
    assert derived["eps_P"] == pytest.approx(params.eps_P)
    assert derived["r_A"] == 1


@pytest.mark.parametrize("reward, code, err", [
    ({"type": "lowrank_maxaffine", "A": [[]], "pieces": [[[1.0], 0.0]]},
     2, "A must be k x d"),
    ({"type": "logsumexp", "w": [1.0], "z": [[1.0]], "A": [[]]},
     2, "A must be k x d"),
    ({"type": "lowrank_maxaffine", "A": [[0.0, 0.0]],
      "pieces": [[[1.0], 0.0]]}, 2, "the reward has d = 2, the base d = 1"),
    ({"type": "logsumexp", "w": [1.0], "z": [[1.0]], "A": [[1.0, 0.0, 0.0]]},
     2, "the reward has d = 3, the base d = 1"),
    ({"type": "lowrank_maxaffine", "A": [[0.0]], "pieces": [[[1.0], 0.0]]},
     0, ""),
    ({"type": "logsumexp", "w": [1.0, 0.5], "z": [[1.0], [-1.0]],
      "A": [[0.0]]}, 0, "")],
    ids=["max-affine-no-column", "logsumexp-no-column", "max-affine-d",
         "logsumexp-d", "max-affine-A=0", "logsumexp-A=0"])
def test_align_w2_lowrank_matrix_shapes(model_file, tmp_path, capsys, reward,
                                        code, err):
    # A with no column or on another d is refused in one line; A = 0 (a
    # constant reward) runs at rank 0 and moves no base point
    path, out_dir = tmp_path / "reward.json", str(tmp_path / "out")
    path.write_text(json.dumps(reward))
    assert main(["align-w2", "--model", model_file, "--reward", str(path),
                 "--lambda", "0.5", "--n", "5", "--seed", "1",
                 "--backend", "lowrank", "--out", out_dir]) == code
    stderr = capsys.readouterr().err
    assert err in stderr and len(stderr.splitlines()) == (code != 0)
    if code == 0:
        pairs = np.loadtxt(os.path.join(out_dir, "pairs.csv"), delimiter=",",
                           skiprows=1)
        assert np.array_equal(pairs[:, 0], pairs[:, 1])
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            assert json.load(fh)["derived_parameters"]["r_A"] == 0


QUAD_2D_B = {"type": "quadratic", "B": [[1.0, 0.0], [0.0, 1.0]],
             "b": [[0.1], [0.2]]}


@pytest.mark.parametrize("cmd, reward, extra, err", [
    ("align-kl", {"type": "linear", "theta": [[1.0, 2.0], [3.0, 4.0]]}, [],
     "theta must be a vector"),
    ("align-w2", QUAD_2D_B, ["--backend", "quad"], "B must be (d, d)"),
    ("align-w2", QUAD_2D_B, ["--backend", "pga"], "B must be (d, d)"),
    ("prox-demo", QUAD_2D_B, ["--y", "0,0"], "B must be (d, d)"),
    ("align-w2", {"type": "quadratic", "B": [[1.0, 0.0], [0.0, 1.0]],
                  "b": [0.1, 0.2], "c": [1.0, 2.0]}, ["--backend", "quad"],
     "c must be one number")],
    ids=["kl-linear-theta", "w2-quad-b", "w2-pga-b", "prox-demo-b",
         "w2-quad-c"])
def test_malformed_reward_shape_is_a_validation_error(tmp_path, capsys, cmd,
                                                      reward, extra, err):
    # each reward checks the shapes of its arrays where it is built: one
    # line and exit 2, never a bare numpy error
    model, path = tmp_path / "model.json", tmp_path / "reward.json"
    model.write_text(json.dumps({"type": "discrete",
                                 "atoms": [[0.0, 0.0], [0.5, 0.5]],
                                 "probs": [0.5, 0.5], "C": 1.0}))
    path.write_text(json.dumps(reward))
    argv = [cmd, "--reward", str(path)] + extra
    if cmd != "prox-demo":
        argv += ["--model", str(model), "--n", "5",
                 "--out", str(tmp_path / "out")]
    if cmd != "align-kl":
        argv += ["--lambda", "0.5"]
    assert main(argv) == 2
    stderr = capsys.readouterr().err
    assert err in stderr and len(stderr.splitlines()) == 1


def test_align_w2_search_net_past_the_cap_is_a_budget_error(tmp_path,
                                                            capsys):
    # a log-sum-exp reward of rank 150 takes the net search, whose net
    # build_net refuses before allocating it: exit 3, the budget code
    rng = np.random.default_rng(3)
    model, reward = tmp_path / "model.json", tmp_path / "reward.json"
    model.write_text(json.dumps({
        "type": "discrete", "atoms": (0.05 * np.eye(150)[:2]).tolist(),
        "probs": [0.5, 0.5], "C": 1.0}))
    reward.write_text(json.dumps({
        "type": "logsumexp", "w": [1.0, 1.0],
        "z": rng.standard_normal((2, 150)).tolist(),
        "A": np.eye(150).tolist()}))
    out_dir = str(tmp_path / "out")
    assert main(["align-w2", "--model", str(model), "--reward", str(reward),
                 "--lambda", "0.5", "--eps", "0.1", "--n", "3",
                 "--backend", "lowrank", "--out", out_dir]) == 3
    err = capsys.readouterr().err
    assert "lattice points" in err and len(err.splitlines()) == 1
    assert not os.path.exists(os.path.join(out_dir, "manifest.json"))
    # prox-demo runs the same net search, at its default eps = 0.1
    assert main(["prox-demo", "--reward", str(reward), "--lambda", "0.5",
                 "--y", ",".join(["0.0"] * 150), "--C", "1.0"]) == 3
    assert "lattice points" in capsys.readouterr().err


def test_invalid_delta_no_partial_outputs(model_file, kl_reward_file,
                                          tmp_path, capsys):
    out_dir = str(tmp_path / "bad")
    rc = main(["align-kl", "--model", model_file, "--reward", kl_reward_file,
               "--delta", "1.5", "--n", "10", "--seed", "0",
               "--out", out_dir])
    assert rc == 2
    assert not os.path.exists(os.path.join(out_dir, "samples.csv"))
    assert not os.path.exists(os.path.join(out_dir, "manifest.json"))


def test_invalid_eps_at_base_shortcut_no_outputs(model_file, tmp_path,
                                                 capsys):
    reward = tmp_path / "zero.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [0.0]}))
    out_dir = str(tmp_path / "bad_eps")
    rc = main(["align-kl", "--model", model_file, "--reward", str(reward),
               "--eps", "1.5", "--n", "10", "--seed", "0", "--out", out_dir])
    assert rc == 2
    assert not os.path.exists(os.path.join(out_dir, "samples.csv"))


@pytest.mark.parametrize("n", ["0", "-5"])
def test_align_kl_bad_n_rejected(model_file, kl_reward_file, tmp_path,
                                 capsys, n):
    out_dir = str(tmp_path / "bad_n")
    rc = main(["align-kl", "--model", model_file, "--reward", kl_reward_file,
               "--n", n, "--seed", "0", "--out", out_dir])
    assert rc == 2
    assert not os.path.exists(os.path.join(out_dir, "samples.csv"))


def test_align_w2_nan_lambda_rejected(gmm_file, quad_reward_file, tmp_path,
                                      capsys):
    out_dir = str(tmp_path / "nan_lam")
    rc = main(["align-w2", "--model", gmm_file, "--reward", quad_reward_file,
               "--lambda", "nan", "--n", "10", "--seed", "0",
               "--backend", "quad", "--out", out_dir])
    assert rc == 2
    assert not os.path.exists(os.path.join(out_dir, "pairs.csv"))


def test_quadratic_reward_rejected_for_kl(model_file, quad_reward_file,
                                          tmp_path, capsys):
    rc = main(["align-kl", "--model", model_file, "--reward",
               quad_reward_file, "--out", str(tmp_path / "x")])
    assert rc == 2


def test_validate_suite(capsys, tmp_path):
    rc = main(["validate", "--suite", "oracles", "--seed", "0",
               "--out", str(tmp_path)])
    assert rc == 0
    report = json.loads(open(tmp_path / "validate.json").read())
    assert report["passed"]


def test_reproduce_fig1_small(tmp_path):
    summary = reproduce_fig1(seed=0, n=20000, out_dir=str(tmp_path / "fig1"))
    assert summary["transport_map_max_dev"] <= 1e-12
    assert abs(summary["base_right_mode_mass"] - 0.5) <= 0.01
    assert abs(summary["kl_right_mode_mass"]
               - summary["kl_right_mode_mass_quadrature"]) <= 0.01
    # the reward peaks at x = 2: KL reweights toward the right mode, the
    # transport map shifts the mean from 0 to 1
    assert summary["kl_right_mode_mass"] > 0.7
    assert abs(summary["w2_mean"] - 1.0) < 0.02
    for name in ("base.csv", "kl.csv", "w2_pairs.csv", "histograms.json",
                 "manifest.json"):
        assert os.path.exists(os.path.join(str(tmp_path / "fig1"), name))


def test_constant_reward_takes_the_one_pipeline(model_file, tmp_path):
    # f = 0 is its own one-piece envelope: every candidate is accepted, and
    # the law is the base's
    reward = tmp_path / "const.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [0.0]}))
    out_dir = str(tmp_path / "const_out")
    rc = main(["align-kl", "--model", model_file, "--reward", str(reward),
               "--n", "3000", "--seed", "5", "--out", out_dir])
    assert rc == 0
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    diag = manifest["diagnostics"]
    assert (diag["acceptance_rate"], diag["fallback_count"]) == (1.0, 0)
    assert diag["m"] == diag["net_pieces"] == 1
    env = json.loads(open(os.path.join(out_dir, "envelope.json")).read())
    assert env == {"slopes": [[0.0]], "offsets": [0.0], "m": 1}
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    assert abs(np.mean(samples > 0.5) - 0.5) < 0.03


def test_each_run_into_one_directory_writes_its_envelope(model_file,
                                                          tmp_path):
    # a two-piece reward, then a constant one into the same directory:
    # each run leaves its own envelope.json
    out_dir = str(tmp_path / "out")
    env_path = os.path.join(out_dir, "envelope.json")
    for spec, slopes in (
            ({"type": "lowrank_maxaffine", "A": [[1.0]],
              "pieces": [[[1.0], 0.0], [[-1.0], 0.0]], "R": 1.0},
             [[1.0], [-1.0]]),
            ({"type": "linear", "theta": [0.0]}, [[0.0]])):
        reward = tmp_path / "reward.json"
        reward.write_text(json.dumps(spec))
        assert main(["align-kl", "--model", model_file, "--reward",
                     str(reward), "--n", "50", "--seed", "5",
                     "--out", out_dir]) == 0
        manifest = json.loads(open(os.path.join(out_dir,
                                                 "manifest.json")).read())
        env = json.loads(open(env_path).read())
        assert env["slopes"] == slopes
        assert env["m"] == manifest["diagnostics"]["m"] == len(slopes)


@pytest.mark.parametrize("slope", [0.0, 1e-9])
def test_reward_outside_its_declared_ball_exits_2(model_file, tmp_path,
                                                  capsys, slope):
    # R = 0.1 against a projected ball of radius 1: a constant reward is
    # refused like any other
    reward = tmp_path / "small_ball.json"
    reward.write_text(json.dumps({"type": "lowrank_maxaffine", "A": [[1.0]],
                                  "pieces": [[[slope], 0.3]], "R": 0.1}))
    out_dir = str(tmp_path / "out")
    assert main(["align-kl", "--model", model_file, "--reward", str(reward),
                 "--n", "10", "--out", out_dir]) == 2
    assert "outside the declared ball" in capsys.readouterr().err
    assert not os.path.exists(os.path.join(out_dir, "samples.csv"))


def test_zero_lipschitz_manifest_is_strict_json_without_h(model_file,
                                                          tmp_path):
    reward = tmp_path / "const.json"
    reward.write_text(json.dumps({"type": "lowrank_maxaffine", "A": [[1.0]],
                                  "pieces": [[[0.0], 0.3]], "L": 0.0}))
    out_dir = str(tmp_path / "out")
    assert main(["align-kl", "--model", model_file, "--reward", str(reward),
                 "--n", "20", "--out", out_dir]) == 0

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.loads(fh.read(), parse_constant=reject)
    derived = manifest["derived_parameters"]
    assert "h" not in derived
    assert derived == asdict(ra.compute_params(1.0, 1, 0.1))


def test_linear_reward_past_the_square_overflow(tmp_path, capsys):
    # ||theta||^2 passes the float max, ||theta|| = 1e200 does not: the
    # tilt puts every sample on the atom at C = 3
    model, reward = tmp_path / "model.json", tmp_path / "reward.json"
    model.write_text(json.dumps({"type": "discrete", "atoms": [[2.0], [3.0]],
                                 "probs": [0.5, 0.5], "C": 3.0}))
    reward.write_text(json.dumps({"type": "linear", "theta": [1e200]}))
    out_dir = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["align-kl", "--model", str(model), "--reward",
                     str(reward), "--n", "200", "--out", out_dir]) == 0
    assert capsys.readouterr().err == ""
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"),
                         delimiter=",", skiprows=1)
    assert np.all(samples == 3.0)


def test_align_kl_support_radius_past_the_square_overflow(tmp_path, capsys):
    # C^2 passes the float max: the schedule is taken in logs and ratios,
    # so the run ends with a documented code, not an OverflowError
    model, reward = tmp_path / "model.json", tmp_path / "reward.json"
    model.write_text(json.dumps({"type": "discrete", "atoms": [[0.0], [1.0]],
                                 "probs": [0.5, 0.5], "C": 1e200}))
    reward.write_text(json.dumps({"type": "linear", "theta": [1.0]}))
    out_dir = str(tmp_path / "out")
    assert main(["align-kl", "--model", str(model), "--reward", str(reward),
                 "--n", "200", "--out", out_dir]) == 0
    assert capsys.readouterr().err == ""
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"),
                         delimiter=",", skiprows=1)
    assert set(np.unique(samples)) <= {0.0, 1.0}


@pytest.mark.parametrize("cmd, reward, extra, code", [
    # the tilt e^u on one atom: the atom itself
    ("align-kl", {"type": "linear", "theta": [1.0]}, [], 0),
    # the net schedule's spacing underflows at C = 1.7e308
    ("align-w2", {"type": "lowrank_maxaffine", "A": [[1.0]],
                  "pieces": [[[1.0], 0.0], [[-1.0], 0.0]]},
     ["--lambda", "0.15", "--backend", "lowrank"], 2),
    # x - y is about 0.85e308: the objective is not finite
    ("align-w2", {"type": "quadratic", "B": [[0.15]], "b": [0.6]},
     ["--lambda", "0.15", "--backend", "quad"], 4),
])
def test_atom_norm_past_the_square_overflow(tmp_path, capsys, cmd, reward,
                                            extra, code):
    # ||atom||^2 passes the float max, ||atom|| = C does not: the model is
    # accepted, and each run ends with its documented code and one line
    model, path = tmp_path / "model.json", tmp_path / "reward.json"
    model.write_text(json.dumps({"type": "discrete", "atoms": [[1.7e308]],
                                 "probs": [1.0], "C": 1.7e308}))
    path.write_text(json.dumps(reward))
    assert main([cmd, "--model", str(model), "--reward", str(path),
                 "--n", "5", "--out", str(tmp_path / "out")] + extra) == code
    out, err = capsys.readouterr()
    assert len(err.splitlines()) == (code != 0), err


def test_atoms_at_both_ends_of_the_float_range(tmp_path, capsys):
    # atoms at +-1.7e308 = +-C: a stopping norm, a squared distance, an
    # envelope reach and log-weights pass the float max; each ends in inf,
    # or in e^-inf = 0, with no numpy warning and the same exit code and
    # samples as when each printed one
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"type": "discrete",
                                 "atoms": [[1.7e308], [-1.7e308]],
                                 "probs": [0.5, 0.5], "C": 1.7e308}))
    runs = [("align-w2", {"type": "quadratic", "B": [[0.5]], "b": [0.1]},
             ["--lambda", "0.5", "--backend", "pga"], 4),
            ("align-kl", {"type": "lowrank_maxaffine", "A": [[1.0]],
                          "pieces": [[[1.0], 0.0], [[-1.0], 0.5]]}, [], 0)]
    for cmd, reward, extra, code in runs:
        path, out_dir = tmp_path / f"{cmd}.json", str(tmp_path / cmd)
        path.write_text(json.dumps(reward))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([cmd, "--model", str(model), "--reward", str(path),
                         "--n", "5", "--out", out_dir] + extra) == code
        assert len(capsys.readouterr().err.splitlines()) == (code != 0)
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"),
                         delimiter=",", skiprows=1)
    assert np.array_equal(samples, 1.7e308 * np.array([1, 1, 1, -1, 1]))
    with open(os.path.join(out_dir, "manifest.json")) as fh:
        diag = json.load(fh)["diagnostics"]
    assert (diag["acceptance_rate"], diag["fallback_count"]) == (1.0, 0)


def test_schedules_at_a_tiny_radius(tmp_path, capsys):
    # C = 1e-300: (rho / C)^2 and (eps / (12 lam C))^2 pass the float max
    # and end in inf inside a min, not in OverflowError; N_rej <= 0, so
    # every KL slot falls back to a base draw
    model = tmp_path / "model.json"
    model.write_text(json.dumps({"type": "discrete",
                                 "atoms": [[0.0], [1e-300]],
                                 "probs": [0.5, 0.5], "C": 1e-300}))
    runs = [("align-kl", {"type": "lowrank_maxaffine", "A": [[1.0]],
                          "pieces": [[[1.0], 0.0], [[-1.0], 0.5]]}, []),
            ("align-w2", {"type": "logsumexp", "w": [1.0, 0.5],
                          "z": [[1.0], [-1.0]], "A": [[1.0]]},
             ["--lambda", "0.5", "--backend", "lowrank"])]
    for cmd, reward, extra in runs:
        path, out_dir = tmp_path / f"{cmd}.json", str(tmp_path / cmd)
        path.write_text(json.dumps(reward))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([cmd, "--model", str(model), "--reward", str(path),
                         "--n", "5", "--out", out_dir] + extra) == 0
        assert capsys.readouterr().err == ""
        with open(os.path.join(out_dir, "manifest.json")) as fh:
            manifest = json.load(fh)
        assert all(np.isfinite(v) for v in
                   manifest["derived_parameters"].values()
                   if not isinstance(v, str))
    with open(os.path.join(tmp_path, "align-kl", "manifest.json")) as fh:
        diag = json.load(fh)["diagnostics"]
    assert diag["N_rej"] <= 0 and diag["fallback_count"] == 5


@pytest.mark.parametrize("reward", [
    {"type": "linear", "theta": [1.7e308]},
    {"type": "lowrank_maxaffine", "A": [[1.0]],
     "pieces": [[[1.7e308], 0.0], [[-1.0], 0.5]]}])
def test_kl_reward_past_the_float_max(model_file, tmp_path, capsys, reward):
    # a slope of 1.7e308 on atoms {0, 1}: the schedule reads only m, C and
    # eps, so it is finite.  exact runs, and the tilt puts every sample on
    # atom 1 with a strict-JSON manifest; diffusion's tilted score is not
    # finite, a numerical error (exit 4) that writes no manifest
    path = tmp_path / "reward.json"
    path.write_text(json.dumps(reward))

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    for backend, code in (("exact", 0), ("diffusion", 4)):
        out_dir = str(tmp_path / backend)
        argv = ["align-kl", "--model", model_file, "--reward", str(path),
                "--n", "5", "--backend", backend, "--out", out_dir]
        assert main(argv) == code
        err = capsys.readouterr().err
        manifest = os.path.join(out_dir, "manifest.json")
        if code:
            assert "numerical error" in err and len(err.splitlines()) == 1
            assert not os.path.exists(manifest)
            continue
        assert err == ""
        with open(manifest) as fh:
            json.loads(fh.read(), parse_constant=reject)
        samples = np.loadtxt(os.path.join(out_dir, "samples.csv"),
                             delimiter=",", skiprows=1)
        assert np.array_equal(samples, np.ones(5))


def test_prox_demo_value_past_the_float_max(tmp_path, capsys):
    # r(x) = 1.7e308 x overflows at x = C = 1e154 inside prox_concave's
    # objective: inf there, with no numpy warning, and the prox is +C
    reward = tmp_path / "linear.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [1.7e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["prox-demo", "--reward", str(reward), "--lambda", "0.5",
                     "--y", "0.0", "--C", "1e154"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["T_lambda_y"] == [1e154]
    assert err == ""


def test_prox_demo_norm_past_the_square_overflow(tmp_path, capsys):
    # b = 1e308: the unconstrained point's norm squares past the float max;
    # the prox is the sphere point +C
    reward = tmp_path / "quad.json"
    reward.write_text(json.dumps({"type": "quadratic", "B": [[0.15]],
                                  "b": [1e308]}))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["prox-demo", "--reward", str(reward), "--lambda",
                     "0.15", "--y", "0.0", "--C", "3"]) == 0
    out, err = capsys.readouterr()
    assert json.loads(out)["T_lambda_y"] == [3.0]
    assert err == ""


def test_align_w2_objective_near_the_float_max(tmp_path, capsys):
    # b = 1e308 moves both atoms to x = 1, where r(x) is about 1e308: the
    # objective's mean and spread stay finite and the manifest strict JSON
    model, reward = tmp_path / "model.json", tmp_path / "quad.json"
    model.write_text(TWO_ATOMS)
    reward.write_text(QUAD.replace("0.6", "1e308"))
    out_dir = str(tmp_path / "out")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["align-w2", "--model", str(model), "--reward",
                     str(reward), "--lambda", "0.15", "--backend", "quad",
                     "--n", "50", "--out", out_dir]) == 0
    assert capsys.readouterr().err == ""

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        diag = json.loads(fh.read(), parse_constant=reject)["diagnostics"]
    assert diag["objective_value"] == pytest.approx(1e308, rel=1e-12)
    assert 0.0 <= diag["objective_stderr"] < 1e300


def test_logsumexp_reward_is_its_own_envelope(tmp_path):
    # a 2-piece log-sum-exp reward on 4 atoms in 2D: G = f, so no net,
    # acceptance 1 and one candidate per slot in one pass
    model, reward = tmp_path / "model.json", tmp_path / "reward.json"
    model.write_text(json.dumps({
        "type": "discrete", "atoms": [[0.5, 0.0], [-0.5, 0.0], [0.0, 0.5],
                                      [0.3, -0.4]],
        "probs": [0.1, 0.2, 0.3, 0.4], "C": 1.0}))
    reward.write_text(json.dumps({"type": "logsumexp", "w": [1.0, 0.7],
                                  "z": [[0.5], [-0.5]], "A": [[0.6, 0.8]]}))
    out_dir = str(tmp_path / "out")
    assert main(["align-kl", "--model", str(model), "--reward", str(reward),
                 "--eps", "0.3", "--n", "2000", "--seed", "7",
                 "--out", out_dir]) == 0
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    diag = manifest["diagnostics"]
    assert diag["m"] == diag["net_pieces"] == 2
    assert diag["acceptance_rate"] == 1.0
    assert (diag["proposal_draws"], diag["passes"]) == (2000, 1)
    env = json.loads(open(os.path.join(out_dir, "envelope.json")).read())
    assert set(env) == {"slopes", "offsets", "m"}


def test_constant_reward_manifest_names_diffusion(model_file, tmp_path):
    # the diffusion draw of a constant reward follows the general step
    # rule: W2 target eps / 8 = 0.0625, 3 C / 0.0625 steps
    reward = tmp_path / "const.json"
    reward.write_text(json.dumps({
        "type": "lowrank_maxaffine", "A": [[1.0]],
        "pieces": [[[0.0], 0.3]], "R": 1.0}))
    out_dir = str(tmp_path / "const_diffusion")
    rc = main(["align-kl", "--model", model_file, "--reward", str(reward),
               "--eps", "0.5", "--n", "20", "--seed", "5",
               "--backend", "diffusion", "--out", out_dir])
    assert rc == 0
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    diag = manifest["diagnostics"]
    assert diag["backend"] == "diffusion"
    assert diag["diffusion_steps"] == recommended_steps(0.5 / 8, 1.0) == 48
    assert (diag["acceptance_rate"], diag["fallback_count"]) == (1.0, 0)
    assert diag["m"] == 1


def test_align_kl_diffusion_one_piece_steep_tilt(model_file, tmp_path):
    # f(u) = 3u is one envelope piece: no normalizer is estimated, where a
    # Monte Carlo one would need 9.75e7 draws and exit 3 over the budget
    reward = tmp_path / "steep.json"
    reward.write_text(json.dumps({
        "type": "lowrank_maxaffine", "A": [[1.0]],
        "pieces": [[[3.0], 0.0]], "R": 1.0}))
    out_dir = str(tmp_path / "steep")
    rc = main(["align-kl", "--model", model_file, "--reward", str(reward),
               "--eps", "0.5", "--delta", "0.1", "--n", "400", "--seed", "3",
               "--backend", "diffusion", "--out", out_dir])
    assert rc == 0
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    diag = manifest["diagnostics"]
    assert diag["m"] == 1
    assert "normalizer" not in diag and "eta" not in diag
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    # the tolerance of test_diffusion_backend_end_to_end
    assert abs(np.mean(samples > 0.5) - np.exp(3) / (1 + np.exp(3))) < 0.08


def test_estimate_z_stochastic_backend(model_file, capsys):
    # path sampling over tilted draws, at a mild and a steep tilt
    for v in (0.8, 3.0):
        rc = main(["estimate-z", "--model", model_file, "--v", str(v),
                   "--eta", "0.2", "--delta", "0.1", "--backend", "mc",
                   "--seed", "1"])
        assert rc == 0
        out = json.loads(capsys.readouterr().out)
        truth = (1 + np.exp(v)) / 2
        assert abs(out["value"] - truth) <= 0.4 * truth
        assert out["n_draws"] > 0


def test_align_kl_fig1_steep_linear_reward(gmm_file, tmp_path, capsys):
    # theta = 4 moves the fig-1 mode past the 1e-10 mass budget of C = 8:
    # the derived proposal is truncated by its draws, not refused (exit 2)
    reward = tmp_path / "lin4.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [4.0]}))
    out_dir = str(tmp_path / "lin4")
    rc = main(["align-kl", "--model", gmm_file, "--reward", str(reward),
               "--n", "2000", "--seed", "1", "--out", out_dir])
    assert rc == 0, capsys.readouterr().err
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    assert np.all(np.abs(samples) <= 8.0)


def test_align_kl_tilt_out_of_the_ball_refused_at_once(tmp_path, capsys):
    # theta = 1e8 moves N(0, 0.0225)'s mean to 2.25e6, far outside C = 1:
    # the in-ball mass bound refuses it before the million redraws
    model, reward = tmp_path / "m.json", tmp_path / "r.json"
    model.write_text(json.dumps({"type": "gmm", "weights": [1.0],
                                 "means": [[0.0]], "covs": [[[0.0225]]],
                                 "C": 1.0}))
    reward.write_text(json.dumps({"type": "linear", "theta": [1e8]}))
    start = time.perf_counter()
    rc = main(["align-kl", "--model", str(model), "--reward", str(reward),
               "--n", "20", "--seed", "1", "--out", str(tmp_path / "out")])
    assert rc == 2 and time.perf_counter() - start < 1.0
    assert "support ball" in capsys.readouterr().err


def test_estimate_z_mc_nodes_past_the_mass_budget(tmp_path, capsys):
    # N(0, 0.1) on C = 2.2 at ||v||C = 4.5: the last of mc's K node tilts
    # (K from the quadrature bound) leaks more than 1e-10 of its mass, and
    # its draws are truncated
    spec = {"type": "gmm", "weights": [1.0], "means": [[0.0]],
            "covs": [[[0.1]]], "C": 2.2}
    K = np.ceil(np.sqrt(4.5**3 / (12 * np.log1p(0.1) / 2)))
    last = ra.tilt_exact(ra.model_from_dict(spec), [(K - 0.5) / K * 4.5 / 2.2])
    assert last.mass_outside_ball() >= SUPPORT_MASS_TOL
    model = tmp_path / "tight.json"
    model.write_text(json.dumps(spec))
    out = {}
    for backend in ("exact", "mc"):
        rc = main(["estimate-z", "--model", str(model), "--v",
                   repr(4.5 / 2.2), "--eta", "0.1", "--delta", "0.05",
                   "--backend", backend, "--seed", "0"])
        assert rc == 0
        out[backend] = json.loads(capsys.readouterr().out)
    assert abs(out["mc"]["value"] / out["exact"]["value"] - 1.0) <= 0.1


def test_estimate_z_annealed_backend_gone(model_file, capsys):
    # the mc backend took over the annealed one's steep tilts
    with pytest.raises(SystemExit) as exc:
        main(["estimate-z", "--model", model_file, "--v", "3",
              "--backend", "annealed"])
    assert exc.value.code == 2
    assert "invalid choice: 'annealed'" in capsys.readouterr().err


def test_linear_reward_adapter(model_file, tmp_path):
    reward = tmp_path / "lin.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [1.0]}))
    out_dir = str(tmp_path / "lin_out")
    rc = main(["align-kl", "--model", model_file, "--reward", str(reward),
               "--n", "20000", "--seed", "2", "--out", out_dir])
    assert rc == 0
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    assert abs(np.mean(samples > 0.5) - np.e / (1 + np.e)) < 0.02


@pytest.mark.parametrize("extra", [["--C", "-1"], ["--C", "nan"],
                                   ["--lambda", "nan"], ["--y", "0.0,1.0"],
                                   ["--y", "nan"]])
def test_prox_demo_bad_input_rejected(quad_reward_file, capsys, extra):
    argv = ["prox-demo", "--reward", quad_reward_file, "--lambda", "0.15",
            "--y", "0.0", "--C", "10.0"] + extra
    rc = main(argv)
    assert rc == 2
    assert "nan" not in capsys.readouterr().out.lower()


TWO_ATOMS = ('{"type": "discrete", "atoms": [[0.0], [0.5]], '
             '"probs": [0.5, 0.5], "C": 1.0}')
QUAD = '{"type": "quadratic", "B": [[0.15]], "b": [0.6]}'
MAXAFF = ('{"type": "lowrank_maxaffine", "A": [[1.0]], '
          '"pieces": [[[1.0], 0.0]], "L": 1.0, "R": 1.0}')
# log-sum-exp weights and slopes of different lengths
LSE_2W_1Z = ('{"type": "logsumexp", "w": [1.0, 0.5], "z": [[1.0]], '
             '"A": [[1.0]]}')
LSE_3W_2Z = ('{"type": "logsumexp", "w": [1.0, 0.5, 2.0], '
             '"z": [[1.0], [-1.0]], "A": [[1.0]]}')


@pytest.mark.parametrize("cmd, model, reward, extra, code", [
    ("align-w2", TWO_ATOMS, QUAD.replace("0.6", "NaN"), ["quad"], 2),
    ("align-w2", TWO_ATOMS.replace("0.0", "NaN"), QUAD, ["quad"], 2),
    ("align-w2", '{"type": "gmm", "weights": [1.0], "means": [[NaN]], '
     '"covs": [[[0.01]]], "C": 1.0}', QUAD, ["quad"], 2),
    # finite input, non-finite transport (b/2 + lambda y overflows): the
    # output gate
    ("prox-demo", None, QUAD.replace("0.6", "1.7e308"),
     ["--y", "1.7e308", "--lambda", "1"], 4),
    ("align-w2", TWO_ATOMS, '{"type": "linear", "theta": [NaN]}', ["pga"], 2),
    ("align-w2", TWO_ATOMS, MAXAFF, ["lowrank", "--eps", "nan"], 2),
    ("align-w2", TWO_ATOMS, MAXAFF, ["lowrank", "--eps", "inf"], 2),
    ("align-kl", TWO_ATOMS, MAXAFF.replace('[1.0], 0.0]], "L": 1.0',
                                           '[NaN], 0.0]]'), [], 2),
    ("align-kl", TWO_ATOMS, MAXAFF.replace('"L": 1.0', '"L": NaN'), [], 2),
    ("align-kl", TWO_ATOMS, MAXAFF.replace('"R": 1.0', '"R": NaN'), [], 2),
    ("align-kl", '{"type": "discrete", "atoms": [[0.0]], "probs": [1.0], '
     '"C": 0}', MAXAFF, [], 2),
    ("align-kl", TWO_ATOMS.replace("0.0", "NaN"), MAXAFF, [], 2),
    ("align-w2", TWO_ATOMS, LSE_2W_1Z, ["lowrank"], 2),
    ("align-kl", TWO_ATOMS, LSE_2W_1Z, [], 2),
    ("align-kl", TWO_ATOMS, LSE_3W_2Z, [], 2),
    ("estimate-z", TWO_ATOMS, None, ["--backend", "mc", "--v", "nan"], 2),
    ("estimate-z", TWO_ATOMS, None, ["--backend", "mc", "--v", "1e308"], 3),
    # log Z = v^2 var / 2 overflows to +inf; <v, x> to -inf on every atom
    ("estimate-z", '{"type": "gmm", "weights": [1.0], "means": [[0.0]], '
     '"covs": [[[0.01]]], "C": 1.0}', None, ["--v", "1e200"], 4),
    ("estimate-z", '{"type": "discrete", "atoms": [[2.0], [3.0]], '
     '"probs": [0.5, 0.5], "C": 3.0}', None, ["--v=-1e308"], 4),
    # a finite tilt whose log normalizer overflows (v^2 var / 2)
    ("align-kl", '{"type": "gmm", "weights": [1.0], "means": [[0.0]], '
     '"covs": [[[0.01]]], "C": 1.0}', '{"type": "linear", "theta": [1e200]}',
     [], 4),
    ("estimate-z", TWO_ATOMS, None, ["--v", "1,abc"], 2),
    ("prox-demo", None, QUAD, ["--y", "0.5,x"], 2),
    # the align-w2 output gate: b/2 + lambda y overflows on the atom at 1
    ("align-w2", '{"type": "discrete", "atoms": [[1.0]], "probs": [1.0], '
     '"C": 1.0}', QUAD.replace("0.6", "1.7e308"),
     ["quad", "--lambda", "1e308"], 4),
    # a declared ball R = 0.5 short of ||A|| C = 1, though f has pieces
    ("align-kl", TWO_ATOMS, MAXAFF.replace('"R": 1.0', '"R": 0.5'), [], 2),
])
def test_bad_or_non_finite_input_exit_code(tmp_path, capsys, cmd, model,
                                           reward, extra, code):
    # each run either fails with its documented code or writes nothing
    argv, out_dir = [cmd], str(tmp_path / "out")
    for flag, text in (("--model", model), ("--reward", reward)):
        if text is not None:
            (tmp_path / flag[2:]).write_text(text)
            argv += [flag, str(tmp_path / flag[2:])]
    if cmd.startswith("align"):
        argv += ["--n", "5", "--out", out_dir]
        argv += (["--lambda", "0.15", "--backend"] if cmd == "align-w2"
                 else []) + extra
    elif cmd == "prox-demo":
        argv += ["--lambda", "0.15"] + extra
    else:
        argv += extra
    assert main(argv) == code
    out, err = capsys.readouterr()
    assert "nan" not in out.lower()
    assert len(err.splitlines()) == 1, err
    for name in ("samples.csv", "pairs.csv"):
        assert not os.path.exists(os.path.join(out_dir, name))


@pytest.mark.parametrize("cmd, extra", [
    ("align-kl", []),
    ("align-w2", ["--lambda", "0.15", "--backend", "lowrank"]),
])
def test_manifest_without_R_is_strict_json(model_file, tmp_path, cmd, extra):
    # no R declares no ball: the serialized spec leaves R out
    spec = {"type": "lowrank_maxaffine", "A": [[1.0]],
            "pieces": [[[1.0], 0.0]]}
    reward = tmp_path / "noR.json"
    reward.write_text(json.dumps(spec))
    out_dir = str(tmp_path / "out")
    assert main([cmd, "--model", model_file, "--reward", str(reward),
                 "--n", "20", "--out", out_dir] + extra) == 0

    def reject(name):
        raise AssertionError(f"non-JSON constant {name}")

    with open(os.path.join(out_dir, "manifest.json")) as fh:
        manifest = json.loads(fh.read(), parse_constant=reject)
    assert manifest["config"]["reward"] == {**spec, "L": 1.0}
    back = ra.reward_from_dict(manifest["config"]["reward"])
    assert back.f.radius == np.inf


def test_model_spec_missing_key_rejected(tmp_path, capsys):
    path = tmp_path / "noC.json"
    path.write_text(json.dumps({
        "type": "gmm", "weights": [1.0], "means": [[0.0]],
        "covs": [[[1.0]]]}))
    rc = main(["estimate-z", "--model", str(path), "--v", "0.1"])
    assert rc == 2
    assert "'C'" in capsys.readouterr().err


def test_reward_spec_missing_key_rejected(tmp_path, capsys):
    path = tmp_path / "nob.json"
    path.write_text(json.dumps({"type": "quadratic", "B": [[0.15]]}))
    rc = main(["prox-demo", "--reward", str(path), "--lambda", "0.15",
               "--y", "0.0"])
    assert rc == 2


def test_missing_model_file_rejected(tmp_path, capsys):
    rc = main(["estimate-z", "--model", str(tmp_path / "absent.json"),
               "--v", "0.1"])
    assert rc == 2


@pytest.mark.parametrize("text", [
    '{"type": "discrete", "atoms": [[0.0], [1.0]], "probs": [0.5',
    '{"type": "gmm", "weights": [0.5, 0.5], "means": [[0.0], [1.0, 2.0]], '
    '"covs": [[[0.1]], [[0.1]]], "C": 4.0}',
    '[0.5, 0.5]'])
def test_malformed_model_file_rejected(tmp_path, capsys, text):
    # truncated JSON, a ragged array, and a document that is not an object
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["estimate-z", "--model", str(path), "--v", "0.1"])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err


@pytest.mark.parametrize("text", [
    '{"type": "quadratic", "B": [[0.15]], "b": [0.6',
    '{"type": "quadratic", "B": [[0.15], [0.1, 0.2]], "b": [0.6]}'])
def test_malformed_reward_file_rejected(tmp_path, capsys, text):
    path = tmp_path / "bad.json"
    path.write_text(text)
    rc = main(["prox-demo", "--reward", str(path), "--lambda", "0.15",
               "--y", "0.0"])
    assert rc == 2
    assert "validation error" in capsys.readouterr().err


def test_estimate_z_wrong_tilt_length_rejected(model_file, capsys):
    for backend in ("exact", "mc"):
        rc = main(["estimate-z", "--model", model_file, "--v", "0.1,0.2",
                   "--backend", backend])
        assert rc == 2


def _pairs_text(ys, xs):
    d = xs.shape[1]
    head = ",".join([f"y{i}" for i in range(d)] + [f"x{i}" for i in range(d)])
    rows = [",".join("%.17e" % v for v in row) for row in np.hstack([ys, xs])]
    return "\n".join([head] + rows) + "\n"


def test_pair_csv_bytes(gmm_file, quad_reward_file, tmp_path):
    out_dir = str(tmp_path / "w2")
    rc = main(["align-w2", "--model", gmm_file, "--reward", quad_reward_file,
               "--lambda", "0.15", "--n", "300", "--seed", "5",
               "--backend", "quad", "--out", out_dir])
    assert rc == 0
    res = ra.sample_w2_aligned(ra.load_model(gmm_file),
                               ra.load_reward(quad_reward_file), lam=0.15,
                               n=300, seed=5, backend="quad")
    got = open(os.path.join(out_dir, "pairs.csv"), "rb").read()
    assert got == _pairs_text(res.ys, res.xs).encode()

    fig_dir = str(tmp_path / "fig1")
    reproduce_fig1(seed=3, n=300, out_dir=fig_dir)
    w2 = ra.sample_w2_aligned(fig1_base(), fig1_reward(), lam=0.15, n=300,
                              seed=5, backend="quad")
    got = open(os.path.join(fig_dir, "w2_pairs.csv"), "rb").read()
    assert got == _pairs_text(w2.ys, w2.xs).encode()


def test_align_kl_diffusion_nan_score_exits_4(model_file, kl_reward_file,
                                             tmp_path, monkeypatch, capsys):
    # a bare oracle (no noise table) whose score turns NaN at one step:
    # the reverse pass refuses it, naming the noise level, and the CLI
    # maps that NumericalError to exit 4
    def bare_oracle(model):
        calls = []

        def fn(sigma, x):
            calls.append(sigma)
            sc = ra.score(model, sigma, x)
            return sc * np.nan if len(calls) == 7 else sc
        return ra.ScoreOracle(fn=fn, d=model.d, C=model.support_radius)

    monkeypatch.setattr(ra.tilts, "score_oracle", bare_oracle)
    rc = main(["align-kl", "--model", model_file, "--reward", kl_reward_file,
               "--eps", "0.5", "--delta", "0.1", "--n", "20", "--seed", "3",
               "--backend", "diffusion", "--out", str(tmp_path / "out")])
    assert rc == 4
    assert "non-finite values at sigma=" in capsys.readouterr().err
