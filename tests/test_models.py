import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import chdtrc, chdtri, logsumexp
from scipy.stats import chi2, multivariate_normal

import rewardalign as ra
from rewardalign.models import (DIFFUSION_STEP_CAP, SIGMA_MAX, SIGMA_MIN,
                                _logsumexp, noised_log_density,
                                recommended_steps)
from rewardalign.rewards import make_logsumexp_function
from rewardalign.validate import random_discrete, random_gmm, random_unit_ball


def std_normal_1d(C=8.0):
    return ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], C)


TWO_ATOMS = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)


def fig1_gmm():
    return ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                   [[[0.49]], [[0.49]]], 8.0)


@pytest.mark.parametrize("offset", [0.0, 800.0, -800.0])
def test_logsumexp_matches_scipy(offset):
    rng = np.random.default_rng(41)
    for shape in ((1, 12), (7, 5), (3, 4, 6), (9,)):
        a = 3.0 * rng.standard_normal(shape) + offset
        for axis in range(-1, a.ndim):
            got, want = _logsumexp(a, axis=axis), logsumexp(a, axis=axis)
            assert got.shape == want.shape
            assert np.max(np.abs(got - want) / np.abs(want).clip(1.0)) \
                <= 1e-12
    # a slice of -inf terms only sums to -inf, beside finite ones
    a = np.array([[-np.inf, -np.inf], [offset, -np.inf]])
    assert np.array_equal(_logsumexp(a, axis=1), [-np.inf, offset])


class TestNoisedParams:
    def test_zero_noise_limit(self):
        m = std_normal_1d()
        noised = ra.noised_params(m, 1e-6)
        assert abs(noised.means[0, 0]) < 1e-9
        assert abs(noised.covs[0, 0, 0] - 1.0) < 1e-9

    def test_unit_variance_preserved(self):
        # a^2 + sigma^2 = 1 keeps a standard normal standard
        noised = ra.noised_params(std_normal_1d(), 0.6)
        assert noised.covs[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        # quadrature cross-check of the density at a few points
        for x in (-1.3, 0.2, 2.5):
            def integrand(x0, x=x):
                a = np.sqrt(1 - 0.36)
                return (np.exp(-0.5 * x0**2) / np.sqrt(2 * np.pi)
                        * np.exp(-0.5 * (x - a * x0) ** 2 / 0.36)
                        / np.sqrt(2 * np.pi * 0.36))
            val, _ = quad(integrand, -10, 10)
            got = np.exp(noised_log_density(std_normal_1d(), 0.6,
                                            np.array([[x]])))[0]
            assert got == pytest.approx(val, rel=1e-8)

    def test_bimodal_example(self):
        noised = ra.noised_params(fig1_gmm(), 0.5)
        a = np.sqrt(0.75)
        assert noised.means[:, 0] == pytest.approx([-2 * a, 2 * a], abs=1e-12)
        assert noised.covs[:, 0, 0] == pytest.approx([0.6175, 0.6175], abs=1e-12)

    def test_small_sigma_recovers_params(self):
        m = fig1_gmm()
        for sigma in (0.05, 0.025):
            noised = ra.noised_params(m, sigma)
            assert np.max(np.abs(noised.means - m.means)) < 2 * sigma**2 * 2.0
            assert np.max(np.abs(noised.covs - m.covs)) < 2 * sigma**2


class TestScore:
    def test_standard_normal_score_is_minus_x(self):
        m = std_normal_1d()
        for sigma in (0.1, 0.5, 0.9):
            x = np.array([0.7])
            assert ra.score(m, sigma, x) == pytest.approx(-x, abs=1e-12)

    def test_single_gaussian_closed_form(self):
        rng = np.random.default_rng(0)
        mu = np.array([0.3, -0.2])
        M = rng.standard_normal((2, 2)) * 0.3
        Sig = M @ M.T + 0.2 * np.eye(2)
        m = ra.GaussianMixtureModel([1.0], [mu], [Sig], 12.0)
        sigma = 0.4
        a = np.sqrt(1 - sigma**2)
        S = a * a * Sig + sigma**2 * np.eye(2)
        for _ in range(5):
            x = rng.standard_normal(2)
            expected = -np.linalg.solve(S, x - a * mu)
            assert ra.score(m, sigma, x) == pytest.approx(expected, abs=1e-10)

    def test_single_atom_score(self):
        m = ra.DiscreteModel([[0.0]], [1.0], 1.0)
        sigma = 0.3
        x = np.array([0.5])
        assert ra.score(m, sigma, x) == pytest.approx(-x / sigma**2, abs=1e-12)

    def test_finite_difference_sweep(self):
        rng = np.random.default_rng(1)
        for trial in range(3):
            m = random_gmm(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
            for sigma in (0.1, 0.3, 0.5, 0.7, 0.9):
                xs = random_unit_ball(rng, 20, m.d, radius=2 * m.support_radius)
                sc = ra.score(m, sigma, xs)
                h = 1e-5
                for i in range(m.d):
                    e = np.zeros(m.d)
                    e[i] = h
                    fd = (noised_log_density(m, sigma, xs + e)
                          - noised_log_density(m, sigma, xs - e)) / (2 * h)
                    assert np.max(np.abs(sc[:, i] - fd)) < 1e-4

    def test_dimension_mismatch(self):
        with pytest.raises(ra.ValidationError):
            ra.score(std_normal_1d(), 0.5, np.array([1.0, 2.0]))

    def test_mixture_score_matches_per_component_solve(self):
        rng = np.random.default_rng(21)
        m = random_gmm(rng, 3, 3)
        xs = random_unit_ball(rng, 50, 3, radius=m.support_radius / 2)
        for sigma in (0.05, 0.4, 0.9):
            a = np.sqrt(1 - sigma**2)
            logp = np.empty((len(xs), 3))
            kernels = np.empty((len(xs), 3, 3))
            for j in range(3):
                S = a * a * m.covs[j] + sigma**2 * np.eye(3)
                diff = xs - a * m.means[j]
                sol = np.linalg.solve(S, diff.T).T
                logp[:, j] = (np.log(m.weights[j])
                              - 0.5 * np.sum(diff * sol, axis=1)
                              - 0.5 * np.linalg.slogdet(S)[1])
                kernels[:, j] = -sol
            resp = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
            expected = np.einsum("nj,njd->nd", resp, kernels)
            assert np.max(np.abs(ra.score(m, sigma, xs) - expected)) <= 1e-10

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_atom_score_matches_unexpanded_softmax(self, d):
        # score expands ||x - a x_j||^2; the reference softmax does not
        rng = np.random.default_rng(30 + d)
        m = random_discrete(rng, 5, d, C=1.5)
        xs = random_unit_ball(rng, 200, d, radius=2 * m.support_radius)
        for sigma in (SIGMA_MAX, 0.5, 1e-2, SIGMA_MIN):
            a = np.sqrt(1 - sigma**2)
            logw = np.empty((len(xs), m.n_atoms))
            for j in range(m.n_atoms):
                logw[:, j] = (np.log(m.probs[j]) - 0.5 * np.sum(
                    (xs - a * m.atoms[j]) ** 2, axis=1) / sigma**2)
            resp = np.exp(logw - logsumexp(logw, axis=1, keepdims=True))
            expected = (a * resp @ m.atoms - xs) / sigma**2
            err = np.linalg.norm(ra.score(m, sigma, xs) - expected, axis=1)
            assert np.all(err <= 1e-10 * np.linalg.norm(expected, axis=1))

    def test_mixture_score_matches_per_component_solve_at_schedule_ends(self):
        rng = np.random.default_rng(23)
        for d in (1, 2, 3):
            m = random_gmm(rng, d, 3)
            xs = random_unit_ball(rng, 50, d, radius=2 * m.support_radius)
            for sigma in (SIGMA_MAX, SIGMA_MIN):
                a = np.sqrt(1 - sigma**2)
                logp = np.empty((len(xs), 3))
                kernels = np.empty((len(xs), 3, d))
                for j in range(3):
                    S = a * a * m.covs[j] + sigma**2 * np.eye(d)
                    diff = xs - a * m.means[j]
                    sol = np.linalg.solve(S, diff.T).T
                    logp[:, j] = (np.log(m.weights[j])
                                  - 0.5 * np.sum(diff * sol, axis=1)
                                  - 0.5 * np.linalg.slogdet(S)[1])
                    kernels[:, j] = -sol
                resp = np.exp(logp - logsumexp(logp, axis=1, keepdims=True))
                expected = np.einsum("nj,njd->nd", resp, kernels)
                got = ra.score(m, sigma, xs)
                assert np.max(np.abs(got - expected)) <= 1e-10


# every query entry on both families; log_density exists on mixtures only
QUERIES = {
    "score/gmm": lambda x: ra.score(std_normal_1d(), 0.5, x),
    "score/atoms": lambda x: ra.score(TWO_ATOMS, 0.5, x),
    "noised_log_density/gmm": lambda x: noised_log_density(std_normal_1d(),
                                                           0.5, x),
    "noised_log_density/atoms": lambda x: noised_log_density(TWO_ATOMS,
                                                             0.5, x),
    "log_density/gmm": lambda x: std_normal_1d().log_density(x),
}


@pytest.mark.parametrize("query", sorted(QUERIES))
def test_query_shape_is_point_or_batch(query):
    fn = QUERIES[query]
    for x in (np.zeros((3, 1, 1)), np.array(0.5), 0.5, np.zeros((2, 2)),
              np.zeros(0)):
        with pytest.raises(ra.ValidationError):
            fn(x)
    # a point (d,) gives a score (d,) and a density (1,); a batch mirrors
    assert np.shape(fn(np.array([0.3]))) == (1,)
    batch = (4, 1) if query.startswith("score") else (4,)
    assert np.shape(fn(np.full((4, 1), 0.3))) == batch


class TestLogDensity:
    def test_matches_scipy_mixture(self):
        rng = np.random.default_rng(22)
        for d, J in ((1, 2), (2, 3), (3, 3)):
            m = random_gmm(rng, d, J)
            xs = random_unit_ball(rng, 40, d, radius=m.support_radius / 2)
            comps = [np.log(m.weights[j])
                     + multivariate_normal(m.means[j], m.covs[j]).logpdf(xs)
                     for j in range(J)]
            expected = logsumexp(np.array(comps).reshape(J, -1), axis=0)
            assert np.max(np.abs(m.log_density(xs) - expected)) <= 1e-12


class TestSampleExact:
    def test_single_atom(self):
        m = ra.DiscreteModel([[0.0]], [1.0], 1.0)
        batch = ra.sample_exact(m, 5, 0)
        assert np.all(batch.points == 0.0)

    def test_truncated_normal_moments(self):
        batch = ra.sample_exact(std_normal_1d(), 10**5, 7)
        x = batch.points[:, 0]
        assert abs(x.mean()) < 0.02
        assert abs(x.var() - 1.0) < 0.02

    def test_two_atom_frequency(self):
        m = ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], 1.0)
        batch = ra.sample_exact(m, 10**4, 11)
        assert abs(np.mean(batch.points[:, 0] > 0) - 0.5) < 0.02

    def test_determinism(self):
        m = fig1_gmm()
        b1 = ra.sample_exact(m, 1000, 42)
        b2 = ra.sample_exact(m, 1000, 42)
        assert np.array_equal(b1.points, b2.points)

    def test_support_mass_gate(self):
        with pytest.raises(ra.ConfigurationError):
            ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 2.0)

    def test_seed_recorded(self):
        m = ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], 1.0)
        oracle = ra.score_oracle(m)
        for seed in (5, np.int64(5), np.uint32(5)):
            for batch in (ra.sample_exact(m, 3, seed),
                          ra.sample_via_diffusion(oracle, n=3, steps=10,
                                                  seed=seed)):
                assert batch.seed == 5 and type(batch.seed) is int
        gen = np.random.default_rng(5)
        assert ra.sample_exact(m, 3, gen).seed == -1
        assert ra.sample_exact(m, 3, None).seed == -1


class TestProjectBall:
    def test_inside_unchanged(self):
        assert np.array_equal(ra.project_ball(np.zeros(2), 1.0), np.zeros(2))
        assert np.array_equal(ra.project_ball(np.array([3.0, 4.0]), 10.0),
                              np.array([3.0, 4.0]))

    def test_scaling(self):
        out = ra.project_ball(np.array([3.0, 4.0]), 1.0)
        assert out == pytest.approx([0.6, 0.8], abs=1e-15)

    def test_batch(self):
        pts = np.array([[3.0, 4.0], [0.1, 0.0]])
        out = ra.project_ball(pts, 1.0)
        assert out[0] == pytest.approx([0.6, 0.8])
        assert out[1] == pytest.approx([0.1, 0.0])


class TestDiffusionSampler:
    def test_standard_normal_w2(self):
        m = std_normal_1d()
        batch = ra.sample_via_diffusion(ra.score_oracle(m), n=10**4,
                                        steps=500, seed=3)
        exact = ra.sample_exact(m, 10**4, 4).points
        w2 = ra.metrics.w2_empirical(batch.points, exact)
        assert w2 <= 0.05

    def test_point_mass_contracts(self):
        m = ra.DiscreteModel([[0.0]], [1.0], 1.0)
        batch = ra.sample_via_diffusion(ra.score_oracle(m), n=2000,
                                        steps=500, seed=5)
        assert np.max(np.abs(batch.points)) <= 0.05

    def test_bimodal_mode_masses(self):
        batch = ra.sample_via_diffusion(ra.score_oracle(fig1_gmm()),
                                        n=10**4, steps=1000, seed=6)
        right = np.mean(batch.points[:, 0] > 0)
        assert abs(right - 0.5) < 0.03

    def test_monotone_convergence_single_gaussian(self):
        # common init seed isolates discretization error from sampling noise
        m = ra.GaussianMixtureModel([1.0], [[0.0]], [[[4.0]]], 16.0)
        errs = []
        for steps in (125, 250, 500, 1000):
            batch = ra.sample_via_diffusion(ra.score_oracle(m), n=10**4,
                                            steps=steps, seed=9)
            x = batch.points[:, 0]
            errs.append(abs(x.mean()) + abs(x.var() - 4.0))
        assert all(errs[i] > errs[i + 1] for i in range(3)), errs

    def test_steps_from_accuracy(self):
        for eps_p in (0.0, -1.0, np.nan):
            with pytest.raises(ra.ValidationError):
                recommended_steps(eps_p, 1.0)
        # capped, also where 3 C / eps_p overflows to inf
        for eps_p in (1e-6, 5e-324):
            assert recommended_steps(eps_p, 1.0) == DIFFUSION_STEP_CAP
        oracle = ra.score_oracle(std_normal_1d())
        with pytest.raises(ra.ValidationError):
            ra.sample_via_diffusion(oracle, n=1, seed=0)

    def test_tilted_two_atom_mass(self):
        # atoms {0, 1} tilted by v = 1 put e/(1+e) on atom 1; the W2 target
        # 0.0625 is what the KL diffusion backend asks at eps = 0.5
        n = 4 * 10**4
        batch = ra.sample_linear_tilt(TWO_ATOMS, np.array([1.0]), 0.0625, 31,
                                      backend="diffusion", n=n)
        p = np.e / (1 + np.e)
        mass = np.mean(batch.points[:, 0] > 0.5)
        assert abs(mass - p) <= 4 * np.sqrt(p * (1 - p) / n), mass

    def test_broken_oracle_detected(self):
        bad = ra.ScoreOracle(fn=lambda s, x: x * np.nan, d=1, C=1.0)
        with pytest.raises(ra.NumericalError):
            ra.sample_via_diffusion(bad, n=2, steps=10, seed=0)

    @pytest.mark.parametrize("model", [
        fig1_gmm(),
        ra.DiscreteModel([[-0.95, 0.2], [0.0, -0.6], [0.95, 0.2]],
                         [0.2, 0.3, 0.5], 1.0)], ids=["gmm", "atoms"])
    def test_same_seed_same_bytes(self, model):
        oracle = ra.score_oracle(model)
        b1, b2 = (ra.sample_via_diffusion(oracle, n=500, steps=48, seed=12)
                  for _ in range(2))
        assert b1.points.tobytes() == b2.points.tobytes()


def _step_row(steps):
    """W2 of a diffusion draw to an exact draw (n = 1e4) of the fig-1
    mixture and of N(0, 1), W2 to the renormalized tilted two atoms, and
    the mass on atom 1 (n = 4e4), all at the given step count."""
    row = []
    for model in (fig1_gmm(), std_normal_1d()):
        x = ra.sample_via_diffusion(ra.score_oracle(model), n=10**4,
                                    steps=steps, seed=21).points
        row.append(ra.metrics.w2_empirical(
            x, ra.sample_exact(model, 10**4, 22).points))
    v = np.array([1.0])
    x = ra.sample_linear_tilt(TWO_ATOMS, v, 1.0, 23, backend="diffusion",
                              n=4 * 10**4, steps=steps).points
    target = ra.metrics.oracle_kl_tilt(TWO_ATOMS, ra.LinearReward(v))
    row.append(ra.metrics.w2_discrete(
        ra.metrics.empirical_to_discrete(x, 1.0), target))
    row.append(np.mean(x[:, 0] > 0.5))
    return row


class TestStepRule:
    """The measurements ``recommended_steps`` rests on.

    Against exact draws the Gaussian columns flatten at their n = 1e4
    sampling floor by 25 steps; below that the mixture's W2 is up to 2.6
    times the floor and the atom mass overshoots.  The atom mass settles
    at 0.7267, 2 sd under e/(1+e) = 0.7311 at n = 4e4; over eight seeds at
    400 steps it averages 0.7285.  That bias of about 0.003 comes from the
    start at SIGMA_MAX, not from the step count, and it keeps W2 on atoms
    near 0.05 whatever the steps.
    """

    # steps: W2 fig-1 mixture, W2 N(0, 1), W2 tilted atoms, mass on atom 1
    TABLE = {
        10: (0.21502, 0.04465, 0.09160, 0.73945),
        15: (0.11739, 0.03640, 0.02582, 0.73172),
        25: (0.08436, 0.02948, 0.05393, 0.72815),
        30: (0.08235, 0.02915, 0.05881, 0.72760),
        48: (0.08174, 0.02948, 0.06429, 0.72693),
        96: (0.08236, 0.02998, 0.06621, 0.72667),
    }

    def test_table(self):
        for steps, row in self.TABLE.items():
            assert _step_row(steps) == pytest.approx(row, abs=1e-4), steps

    def test_rule_meets_target(self):
        # (W2 target, C, table column): the Gaussians live in B(8), the
        # atoms in B(1); each target's step count is a row of the table
        cases = [(eps, 8.0, col) for eps in (1.0, 0.5, 0.25)
                 for col in (0, 1)] + [(0.25, 1.0, 2), (0.1, 1.0, 2)]
        for eps, C, col in cases:
            steps = recommended_steps(eps, C)
            assert self.TABLE[steps][col] <= eps, (eps, C, col, steps)


class TestJson:
    def test_gmm_round_trip(self):
        m = fig1_gmm()
        m2 = ra.model_from_dict(m.to_dict())
        assert np.array_equal(m2.means, m.means)
        assert np.array_equal(m2.covs, m.covs)

    def test_discrete_round_trip(self):
        m = ra.DiscreteModel([[0.0, 1.0], [1.0, 0.0]], [0.3, 0.7], 1.5)
        m2 = ra.model_from_dict(m.to_dict())
        assert np.array_equal(m2.atoms, m.atoms)
        assert np.array_equal(m2.probs, m.probs)

    def test_bad_weights_rejected(self):
        with pytest.raises(ra.ValidationError):
            ra.DiscreteModel([[0.0], [1.0]], [0.6, 0.6], 1.0)
        with pytest.raises(ra.ValidationError):
            ra.model_from_dict({"type": "mystery"})


class TestMixtureChecks:
    def test_asymmetric_covariance_named(self):
        covs = np.stack([np.eye(2) * 0.1] * 3)
        covs[2, 0, 1] += 1e-6
        with pytest.raises(ra.ValidationError, match="covariance 2"):
            ra.GaussianMixtureModel(np.full(3, 1 / 3), np.zeros((3, 2)),
                                    covs, 4.0)

    def test_symmetry_tolerance(self):
        # allclose's rule: |S - S'| <= 1e-12 + 1e-5 |S'|
        covs = np.stack([np.eye(2) * 0.1] * 2)
        covs[1, 0, 1] = 5e-13
        m = ra.GaussianMixtureModel([0.5, 0.5], np.zeros((2, 2)), covs, 4.0)
        assert m.n_components == 2


class TestChiSquareTails:
    def test_special_functions_equal_scipy_stats(self):
        # the library calls scipy.special directly, which is what chi2.sf
        # and chi2.isf compute, so the values are the same bytes
        x = np.linspace(0.0, 120.0, 4001)
        for d in range(1, 8):
            assert np.array_equal(chdtrc(d, x), chi2.sf(x, df=d))
            assert chdtri(d, 1e-13) == chi2.isf(1e-13, df=d)

    def test_mass_outside_ball_equals_chi2_sf(self):
        rng = np.random.default_rng(3)
        for d in range(1, 5):
            m = random_gmm(rng, d, 3, margin=0.5)
            gap = np.maximum(m.support_radius
                             - np.linalg.norm(m.means, axis=1), 0.0)
            t = gap / np.sqrt(np.linalg.eigvalsh(m.covs)[:, -1])
            expected = float(m.weights @ chi2.sf(t * t, df=d))
            assert m.mass_outside_ball() == pytest.approx(expected,
                                                          rel=1e-12, abs=0)

    def test_import_leaves_out_scipy_stats(self):
        code = ("import sys, rewardalign, rewardalign.validate, "
                "rewardalign.metrics; "
                "print('scipy.stats' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code], check=True,
                             capture_output=True, text=True,
                             env={**os.environ,
                                  "PYTHONPATH": os.pathsep.join(sys.path)})
        assert out.stdout.strip() == "False"


def _with_nan(tree):
    """Copies of a nested list/tuple of numbers, one per numeric leaf, each
    with that leaf set to NaN (other leaves, e.g. functions, are kept)."""
    if isinstance(tree, (list, tuple)):
        for i, item in enumerate(tree):
            for sub in _with_nan(item):
                yield tree[:i] + type(tree)([sub]) + tree[i + 1:]
    elif isinstance(tree, float):
        yield float("nan")


def _abs_f():
    return ra.make_max_affine([([1.0], 0.0), ([-1.0], 0.0)])


@pytest.mark.parametrize("build, args", [
    (ra.DiscreteModel, ([[0.0], [0.5]], [0.5, 0.5], 1.0)),
    (ra.GaussianMixtureModel, ([0.5, 0.5], [[-1.0], [1.0]],
                               [[[0.04]], [[0.04]]], 4.0)),
    (ra.LinearReward, ([1.0, 2.0],)),
    (ra.QuadraticReward, ([[1.0, 0.0], [0.0, 2.0]], [0.5, 1.0], 0.2)),
    (lambda A: ra.LowRankReward(A, _abs_f()), ([[1.0, 0.5]],)),
    (ra.LogSumExpReward, ([1.0, 0.5], [[1.0], [-1.0]], [[1.0, 0.5]])),
    (ra.MaxAffineLowRankReward, ([[1.0, 0.5]], [([1.0], 0.0)], 2.0)),
    (ra.make_max_affine, ([([1.0], 0.0), ([-1.0], 0.5)],)),
    (make_logsumexp_function, ([1.0, 0.5], [[1.0], [-1.0]])),
    (ra.Envelope, ([[1.0], [-1.0]], [0.0, 0.5])),
    (ra.Envelope.from_pieces, ([[1.0], [-1.0]], [0.0, 0.5])),
])
def test_nan_in_any_constructor_entry_rejected(build, args):
    build(*args)  # the clean arguments are accepted
    variants = list(_with_nan(args))
    assert variants
    for bad in variants:
        with pytest.raises(ra.ValidationError, match="finite|inf"):
            build(*bad)


def test_envelope_shapes_and_sample_gate():
    for slopes, offsets in (([[1.0], [2.0]], [0.0]), ([[1.0]], [[0.0]]),
                            (np.zeros((0, 2)), np.zeros(0))):
        with pytest.raises(ra.ValidationError, match="envelope"):
            ra.Envelope(np.asarray(slopes), np.asarray(offsets))
    # the radius: inf declares no ball
    assert ra.MaxAffineLowRankReward([[1.0]], [([1.0], 0.0)],
                                     np.inf).f.radius == np.inf
    with pytest.raises(ra.NumericalError):
        ra.SampleBatch(points=[[0.0], [np.inf]], seed=0, producer="t", d=1)


def test_zero_weight_is_silent():
    # a zero weight is a valid probability: its log is -inf, taken once at
    # construction, so scores, densities and tilts print no divide warning
    twins = [(ra.DiscreteModel([[0.0], [0.5], [1.0]], [0.5, 0.0, 0.5], 1.0),
              ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)),
             (ra.GaussianMixtureModel([0.0, 1.0], [[-1.0], [1.0]],
                                      [[[0.1]], [[0.1]]], 8.0),
              ra.GaussianMixtureModel([1.0], [[1.0]], [[[0.1]]], 8.0))]
    x = np.array([[0.2], [0.7]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for model, twin in twins:
            assert np.allclose(ra.score(model, 0.5, x),
                               ra.score(twin, 0.5, x), rtol=1e-12)
            assert np.allclose(noised_log_density(model, 0.5, x),
                               noised_log_density(twin, 0.5, x), rtol=1e-12)
            tilted = ra.tilt_exact(model, [0.3])
            assert 0.0 in (tilted.probs if isinstance(tilted, ra.DiscreteModel)
                           else tilted.weights)


@pytest.mark.parametrize("n", [0, -1, 2.0, True])
def test_one_count_check_for_every_sampler(n):
    base = ra.DiscreteModel([[0.0], [0.5]], [0.5, 0.5], 1.0)
    reward = ra.QuadraticReward([[0.15]], [0.6])
    for draw in (lambda: ra.sample_exact(base, n, 0),
                 lambda: ra.sample_w2_aligned(base, reward, 0.15, n, 0),
                 lambda: ra.sample_kl_aligned(base, [[1.0]], _abs_f(), 0.1,
                                              0.05, 0, n=n)):
        with pytest.raises(ra.ValidationError, match="n must be"):
            draw()
