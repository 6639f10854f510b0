import json
import os
import warnings

import numpy as np
import pytest

import rewardalign as ra
from rewardalign.cli import fig1_base, fig1_reward, main, reproduce_fig1
from rewardalign import tilts
from rewardalign.models import (DIFFUSION_STEP_CAP, SUPPORT_MASS_TOL,
                                recommended_steps)


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
    want = ra.prox_quadratic(np.zeros((2, 2)), [0.4, -0.3], 0.5,
                             np.array([0.2, 0.1]), 1.0)
    assert np.max(np.abs(np.array(out["T_lambda_y"]) - want)) <= 1e-8


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
    params = ra.compute_params(L=1.0, A_opnorm=1.0, C=1.0, m=env["m"],
                               eps=0.1)
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
    assert derived["net_cardinality_bound"] == pytest.approx(
        params.net_cardinality_bound)
    assert derived["r_A"] == 1


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


def test_constant_reward_base_shortcut(model_file, tmp_path):
    reward = tmp_path / "const.json"
    reward.write_text(json.dumps({"type": "linear", "theta": [0.0]}))
    out_dir = str(tmp_path / "const_out")
    rc = main(["align-kl", "--model", model_file, "--reward", str(reward),
               "--n", "3000", "--seed", "5", "--out", out_dir])
    assert rc == 0
    manifest = json.loads(open(os.path.join(out_dir, "manifest.json")).read())
    assert manifest["diagnostics"]["used_base_shortcut"]
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    assert abs(np.mean(samples > 0.5) - 0.5) < 0.03


def test_base_shortcut_run_removes_a_stale_envelope(model_file, tmp_path):
    # a run with an envelope, then a base-shortcut run into the same dir:
    # the directory holds the second run's files alone
    out_dir = str(tmp_path / "out")
    env_path = os.path.join(out_dir, "envelope.json")
    for spec, has_envelope in (
            ({"type": "lowrank_maxaffine", "A": [[1.0]],
              "pieces": [[[1.0], 0.0], [[-1.0], 0.0]], "R": 1.0}, True),
            ({"type": "linear", "theta": [0.0]}, False)):
        reward = tmp_path / "reward.json"
        reward.write_text(json.dumps(spec))
        assert main(["align-kl", "--model", model_file, "--reward",
                     str(reward), "--n", "50", "--seed", "5",
                     "--out", out_dir]) == 0
        manifest = json.loads(open(os.path.join(out_dir,
                                                 "manifest.json")).read())
        assert manifest["diagnostics"]["used_base_shortcut"] != has_envelope
        assert os.path.exists(env_path) == has_envelope


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


def test_base_shortcut_manifest_names_diffusion(model_file, tmp_path):
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
    assert diag["used_base_shortcut"]
    assert diag["backend"] == "diffusion"
    assert diag["diffusion_steps"] == min(recommended_steps(0.5, 1.0),
                                          DIFFUSION_STEP_CAP)


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
    assert "normalizer" not in diag and "eta_used" not in diag
    samples = np.loadtxt(os.path.join(out_dir, "samples.csv"), delimiter=",",
                         skiprows=1)
    # the tolerance of test_diffusion_backend_end_to_end
    assert abs(np.mean(samples > 0.5) - np.exp(3) / (1 + np.exp(3))) < 0.08


def test_estimate_z_stochastic_backend(model_file, capsys):
    # one stream of base draws at v = 0.8; a product of ratios at v = 3
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


def test_estimate_z_mc_stages_past_the_mass_budget(tmp_path, capsys):
    # N(0, 0.1) on C = 2.2 at ||v||C = 4.5: the last of mc's S stage
    # tilts leaks more than 1e-10 of its mass, and its draws are truncated
    spec = {"type": "gmm", "weights": [1.0], "means": [[0.0]],
            "covs": [[[0.1]]], "C": 2.2}
    S, _ = tilts._stage_plan(4.5, 0.1, 0.05, 1)
    last = ra.tilt_exact(ra.model_from_dict(spec), [(S - 1) / S * 4.5 / 2.2])
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
