import itertools

import numpy as np
import pytest
from scipy.special import logsumexp
from scipy.stats import multivariate_normal

import rewardalign as ra
from rewardalign import metrics
from rewardalign.validate import random_discrete


def delta_at(x, C=1.0):
    return ra.DiscreteModel([list(np.atleast_1d(x))], [1.0], C)


class TestTV:
    def test_identical_laws(self):
        p = random_discrete(np.random.default_rng(0), 5, 2)
        assert metrics.tv_discrete(p, p) == 0.0

    def test_disjoint_atoms(self):
        assert metrics.tv_discrete(delta_at(0.0), delta_at(1.0)) == 1.0

    def test_tilted_two_point(self):
        p = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        q = ra.tilt_exact(p, np.array([2.0]))  # probs (e^0, e^2)/(1+e^2)
        e = np.e
        tilt = ra.DiscreteModel([[-1.0], [1.0]],
                                [np.exp(-1) / (e + 1 / e), e / (e + 1 / e)],
                                1.0)
        base = ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], 1.0)
        got = metrics.tv_discrete(base, tilt)
        expect = 0.5 * (abs(0.5 - np.exp(-1) / (e + 1 / e))
                        + abs(0.5 - e / (e + 1 / e)))
        assert got == pytest.approx(expect, abs=1e-15)
        assert got == pytest.approx(0.3808, abs=1e-4)


    def test_empirical_law_matches_row_sort(self):
        rng = np.random.default_rng(3)
        atoms = rng.uniform(-0.5, 0.5, (32, 4))
        pts = atoms[rng.integers(0, 32, 5000)]
        emp = metrics.empirical_to_discrete(pts, 1.0)
        uniq, counts = np.unique(pts, axis=0, return_counts=True)
        ref = ra.DiscreteModel(uniq, counts / counts.sum(), 1.0)
        assert emp.n_atoms == ref.n_atoms == 32
        assert metrics.tv_discrete(emp, ref) == 0.0


class TestW2Empirical:
    def test_identical_samples(self):
        xs = np.random.default_rng(1).standard_normal((50, 3))
        assert metrics.w2_empirical(xs, xs) == 0.0

    def test_shifted_singletons_1d(self):
        xs = np.array([[0.0], [1.0]])
        ys = np.array([[1.0], [2.0]])
        assert metrics.w2_empirical(xs, ys) == pytest.approx(1.0)

    def test_assignment_matches_factorial_brute_force(self):
        rng = np.random.default_rng(2)
        xs = rng.standard_normal((8, 2))
        ys = rng.standard_normal((8, 2))
        got = metrics.w2_empirical(xs, ys)
        best = np.inf
        for perm in itertools.permutations(range(8)):
            cost = np.mean(np.sum((xs - ys[list(perm)]) ** 2, axis=1))
            best = min(best, cost)
        assert got == pytest.approx(np.sqrt(best), abs=1e-12)

    def test_two_16_point_clouds(self):
        rng = np.random.default_rng(3)
        xs, ys = rng.standard_normal((16, 2)), rng.standard_normal((16, 2))
        val = metrics.w2_empirical(xs, ys)
        assert val > 0

    def test_capability_refusal(self):
        rng = np.random.default_rng(4)
        with pytest.raises(ra.CapabilityError):
            metrics.w2_empirical(rng.standard_normal((600, 2)),
                                 rng.standard_normal((600, 2)))
        with pytest.raises(ra.CapabilityError):
            metrics.w2_empirical(rng.standard_normal((4, 2)),
                                 rng.standard_normal((5, 2)))

    def test_unequal_sizes_1d_exact(self):
        # law {0, 1} vs law {0.5}: quantile coupling moves each half to 0.5
        got = metrics.w2_empirical(np.array([[0.0], [1.0]]),
                                   np.array([[0.5]]))
        assert got == pytest.approx(0.5, abs=1e-12)


class TestW2Discrete:
    def test_lp_matches_assignment(self):
        rng = np.random.default_rng(5)
        xs, ys = rng.standard_normal((12, 2)), rng.standard_normal((12, 2))
        lp = metrics.w2_discrete(
            ra.DiscreteModel(xs, np.full(12, 1 / 12), 10.0),
            ra.DiscreteModel(ys, np.full(12, 1 / 12), 10.0))
        assign = metrics.w2_empirical(xs, ys)
        assert lp == pytest.approx(assign, abs=1e-9)

    def test_weighted_two_atoms(self):
        p = ra.DiscreteModel([[0.0], [1.0]], [0.75, 0.25], 1.0)
        q = ra.DiscreteModel([[0.0], [1.0]], [0.25, 0.75], 1.0)
        # move 0.5 mass a distance 1
        assert metrics.w2_discrete(p, q) == pytest.approx(np.sqrt(0.5), abs=1e-12)
        assert metrics.w1_discrete(p, q) == pytest.approx(0.5, abs=1e-12)

    def test_metric_properties_random_triples(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            d = int(rng.integers(1, 3))
            a = random_discrete(rng, int(rng.integers(2, 6)), d)
            b = random_discrete(rng, int(rng.integers(2, 6)), d)
            c = random_discrete(rng, int(rng.integers(2, 6)), d)
            dab = metrics.w2_discrete(a, b)
            dba = metrics.w2_discrete(b, a)
            dac = metrics.w2_discrete(a, c)
            dcb = metrics.w2_discrete(c, b)
            assert dab == pytest.approx(dba, abs=1e-9)
            assert dab <= dac + dcb + 1e-9
            tab = metrics.tv_discrete(a, b)
            assert tab == pytest.approx(metrics.tv_discrete(b, a), abs=1e-15)
            assert tab <= metrics.tv_discrete(a, c) + metrics.tv_discrete(c, b) + 1e-15


class TestConversions:
    def test_tv_to_w2_examples(self):
        assert metrics.check_tv_to_w2(1.0, 1.0, 1.0)       # deltas at 0 and 1
        assert metrics.check_tv_to_w2(0.0, 1.0, 0.0)       # identical laws
        assert not metrics.check_tv_to_w2(0.01, 1.0, 1.0)  # violated inputs

    def test_w1_to_w2_equality_case(self):
        C = 1.0
        p, q = delta_at(-C), delta_at(C)
        w1 = metrics.w1_discrete(p, q)
        w2 = metrics.w2_discrete(p, q)
        assert w1 == pytest.approx(2 * C)
        assert w2 == pytest.approx(2 * C)
        assert metrics.check_w1_to_w2(w1, C, w2)

    def test_weight_stability_examples(self):
        assert metrics.check_weight_stability([1.0, 1.0], [1.0, 1.0], 0.2)
        assert metrics.check_weight_stability([1.0, 1.0], [1.1, 0.9], 0.1)
        with pytest.raises(ra.ValidationError):
            metrics.check_weight_stability([1.0, 1.0], [1.5, 1.0], 0.1)

    def test_mixture_error_trivial(self):
        comps = [delta_at(0.3), delta_at(-0.4)]
        rep = metrics.check_mixture_error(comps, comps, [0.6, 0.4],
                                          [0.6, 0.4], 1.0)
        assert rep["lhs"] == pytest.approx(0.0, abs=1e-12)
        assert rep["ok"]

    def test_mixture_error_two_atom_hand_case(self):
        comps = [delta_at(0.0), delta_at(1.0)]
        rep = metrics.check_mixture_error(comps, comps, [0.5, 0.5],
                                          [0.6, 0.4], 1.0)
        # exact lhs: move 0.1 mass across distance 1 => sqrt(0.1)
        assert rep["lhs"] == pytest.approx(np.sqrt(0.1), abs=1e-12)
        assert rep["alpha"] == pytest.approx(0.1, abs=1e-15)
        assert rep["ok"]

    def test_rejection_stability_instance(self):
        rng = np.random.default_rng(7)
        q = random_discrete(rng, 4, 1)
        q_hat = random_discrete(rng, 4, 1)
        rep = metrics.check_rejection_stability(
            q, q_hat, lambda x: float(np.clip(0.5 + 0.3 * x[0], 0.2, 1.0)),
            a0=0.2, L_a=0.3, C=1.0)
        assert rep["ok"]


class TestOracles:
    def test_kl_tilt_two_point(self):
        p = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        tilted = metrics.oracle_kl_tilt(p, ra.LinearReward([1.0]))
        assert tilted.probs == pytest.approx(
            [1 / (1 + np.e), np.e / (1 + np.e)], abs=1e-14)

    def test_kl_tilt_zero_mass_atom(self):
        # log 0 = -inf is the atom's logit: no divide-by-zero warning
        p = ra.DiscreteModel([[0.0], [0.5], [1.0]], [0.5, 0.0, 0.5], 1.0)
        tilted = metrics.oracle_kl_tilt(p, ra.LinearReward([1.0]))
        assert tilted.probs == pytest.approx(
            [1 / (1 + np.e), 0.0, np.e / (1 + np.e)], abs=1e-14)

    def test_kl_tilt_constant_reward(self):
        rng = np.random.default_rng(8)
        p = random_discrete(rng, 6, 2)
        tilted = metrics.oracle_kl_tilt(
            p, ra.QuadraticReward(np.zeros((2, 2)), np.zeros(2), c=3.0))
        assert np.allclose(tilted.probs, p.probs, atol=1e-14)

    def test_kl_tilt_composition(self):
        rng = np.random.default_rng(9)
        p = random_discrete(rng, 5, 1)
        r1, r2 = ra.LinearReward([0.7]), ra.LinearReward([-0.3])
        twice = metrics.oracle_kl_tilt(metrics.oracle_kl_tilt(p, r1), r2)
        once = metrics.oracle_kl_tilt(p, ra.LinearReward([0.4]))
        assert np.allclose(twice.probs, once.probs, atol=1e-14)

    def test_prox_grid_fig1(self):
        r = ra.QuadraticReward([[0.15]], [0.6], c=-0.6)
        x = metrics.oracle_prox_grid(r, 0.15, np.array([0.0]), 10.0,
                                     resolution=1e-4)
        assert abs(x[0] - 1.0) <= 1e-4

    def test_prox_grid_constant_reward(self):
        r = ra.QuadraticReward(np.zeros((1, 1)), np.zeros(1))
        y = np.array([0.4])
        x = metrics.oracle_prox_grid(r, 1.0, y, 1.0, resolution=1e-3)
        assert abs(x[0] - 0.4) <= 1e-3

    def test_prox_grid_lowrank_reduction(self):
        A = np.array([[1.0, 0.0]])
        reward = ra.LowRankReward(A, ra.make_max_affine([(np.array([1.0]), 0.0)]))
        x = metrics.oracle_prox_grid(reward, 1.0, np.array([0.0, 0.5]), 1.0,
                                     resolution=1e-3)
        assert np.linalg.norm(x - np.array([0.5, 0.5])) <= 2e-3

    def test_refinement_monotone(self):
        r = ra.QuadraticReward([[0.3]], [0.45])
        y = np.array([0.3])

        def obj(x):
            return float(r.value(x)) - 0.8 * float(np.sum((x - y) ** 2))

        vals = [obj(metrics.oracle_prox_grid(r, 0.8, y, 2.0, res))
                for res in (0.2, 0.1, 0.05, 0.025)]
        assert all(vals[i] <= vals[i + 1] + 1e-12 for i in range(3))

    def test_cached_grid_is_shared_read_only(self):
        # a sweep over base points reuses one grid; no caller may write it
        grid = metrics._anchored_ball_grid(2, 1.0, 0.1)
        assert metrics._anchored_ball_grid(2, 1.0, 0.1) is grid
        with pytest.raises(ValueError):
            grid[0, 0] = 5.0
        r = ra.QuadraticReward(np.eye(2), np.zeros(2))
        x = metrics.oracle_prox_grid(r, 1.0, np.array([0.2, -0.1]), 1.0, 0.1)
        assert np.allclose(x, [0.1, -0.05], atol=1e-2)
        assert metrics._anchored_ball_grid(2, 1.0, 0.1) is grid

    def test_dimension_gate(self):
        r = ra.QuadraticReward(np.eye(4), np.zeros(4))
        with pytest.raises(ra.CapabilityError):
            metrics.oracle_prox_grid(r, 1.0, np.zeros(4), 1.0, 0.1)


class TestQuadrature:
    def test_density_shares_no_kernel_with_the_sampler(self, monkeypatch):
        # the truth of the diffusion W2 gates reads the mixture's weights,
        # means and variances, never the score kernel it checks
        base = ra.GaussianMixtureModel([0.3, 0.7], [[-2.0], [1.5]],
                                       [[[0.49]], [[0.25]]], 8.0)

        def no_kernel(*args, **kwargs):
            raise AssertionError("the score kernel ran")

        monkeypatch.setattr(ra.GaussianMixtureModel, "_components",
                            no_kernel)
        quad = metrics.QuadratureTilt1D(base)
        monkeypatch.undo()
        log_dens = logsumexp([np.log(w) + multivariate_normal(mu, cov).logpdf(
            quad.grid) for w, mu, cov in zip(base.weights, base.means,
                                             base.covs)], axis=0)
        assert np.ptp(np.log(quad.density) - log_dens) <= 1e-12

    def test_tilt_matches_discrete_enumeration(self):
        base = ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 8.0)
        quad = metrics.QuadratureTilt1D(base, ra.LinearReward([1.0]))
        # linear tilt of N(0,1) is N(1,1)
        assert quad.mean() == pytest.approx(1.0, abs=1e-4)
        assert quad.ppf(0.5) == pytest.approx(1.0, abs=1e-4)

    def test_sampling_matches_law(self):
        base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                       [[[0.49]], [[2.0]]], 12.0)
        quad = metrics.QuadratureTilt1D(base)
        rng = np.random.default_rng(10)
        draws = quad.sample(40000, rng)
        dens_mass = quad.mass_above(0.0)
        assert abs(np.mean(draws > 0) - dens_mass) < 0.01

    def test_grid_discretized_tilt_matches_quadrature(self):
        # a 64-point discretization of the bimodal base, tilted by the
        # peaked quadratic reward, reproduces the continuous tilt's mass
        # split to the discretization error
        base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                       [[[0.49]], [[0.49]]], 8.0)
        reward = ra.QuadraticReward([[0.15]], [0.6], c=-0.6)
        grid = np.linspace(-6, 6, 64)
        probs = sum(w * multivariate_normal(mu, cov).pdf(grid)
                    for w, mu, cov in zip(base.weights, base.means, base.covs))
        probs /= probs.sum()
        disc = ra.DiscreteModel(grid[:, None], probs, 8.0)
        tilted = metrics.oracle_kl_tilt(disc, reward)
        right_mass = float(tilted.probs[grid > 0].sum())
        quad = metrics.QuadratureTilt1D(base, reward)
        assert abs(right_mass - quad.mass_above(0.0)) < 0.01
