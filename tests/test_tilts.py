import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad

import rewardalign as ra
from rewardalign import tilts
from rewardalign.metrics import QuadratureTilt1D, w2_1d_samples_vs_quantiles
from rewardalign.models import recommended_steps
from rewardalign.tilts import MC_BLOCK, _mean_exp, log_normalizer_exact
from rewardalign.validate import random_gmm


def std_normal_1d(C=8.0):
    return ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], C)


def two_point(C=1.0):
    return ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], C)


class TestTiltExact:
    def test_standard_normal_shifts(self):
        tilted = ra.tilt_exact(std_normal_1d(), np.array([1.0]))
        assert tilted.means[0, 0] == pytest.approx(1.0, abs=1e-14)
        assert tilted.covs[0, 0, 0] == pytest.approx(1.0, abs=1e-14)
        # density-ratio check by quadrature: tilted density at x equals
        # p(x) e^x / Z with Z = e^{1/2}
        Z, _ = quad(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
                    * np.exp(x), -12, 12)
        for x in (-0.5, 0.8, 2.0):
            lhs = np.exp(tilted.log_density(np.array([[x]])))[0]
            rhs = (np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)) * np.exp(x) / Z
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_zero_tilt_identity(self):
        m = two_point()
        tilted = ra.tilt_exact(m, np.zeros(1))
        assert np.allclose(tilted.probs, m.probs, atol=1e-15)
        g = std_normal_1d()
        tg = ra.tilt_exact(g, np.zeros(1))
        assert np.allclose(tg.means, g.means)
        assert np.allclose(tg.weights, g.weights)

    def test_two_point_enumeration(self):
        tilted = ra.tilt_exact(two_point(), np.array([1.0]))
        expect = np.array([np.exp(-1.0), np.exp(1.0)])
        expect /= expect.sum()
        assert tilted.probs == pytest.approx(expect, abs=1e-15)

    def test_composition(self):
        rng = np.random.default_rng(10)
        m = random_gmm(rng, 2, 2)
        v1, v2 = rng.standard_normal(2) * 0.2, rng.standard_normal(2) * 0.2
        lhs = ra.tilt_exact(ra.tilt_exact(m, v1), v2)
        rhs = ra.tilt_exact(m, v1 + v2)
        assert np.max(np.abs(lhs.means - rhs.means)) < 1e-10
        assert np.max(np.abs(lhs.weights - rhs.weights)) < 1e-10

    def test_escaping_tilt_is_truncated(self):
        # the tilt's mean sits 4 sd inside the ball, past the 1e-10 mass
        # budget of a caller-built mixture: the derived law is built, and
        # sample_exact draws the tilt of the truncated base
        base = std_normal_1d(C=8.0)
        tilted = ra.tilt_exact(base, np.array([4.0]))
        assert tilted.mass_outside_ball() >= ra.models.SUPPORT_MASS_TOL
        pts = ra.sample_exact(tilted, 10**5, 5).points[:, 0]
        assert np.all(np.abs(pts) <= 8.0)
        truth = QuadratureTilt1D(base, ra.LinearReward([4.0]))
        assert w2_1d_samples_vs_quantiles(pts, truth.ppf) <= 0.02

    @pytest.mark.parametrize("model, v", [
        (ra.DiscreteModel([[2.0], [3.0]], [0.5, 0.5], 3.0), [-1e308]),
        (ra.GaussianMixtureModel([1.0], [[0.0]], [[[0.01]]], 1.0), [1e200])])
    def test_non_finite_log_normalizer_is_numerical(self, model, v):
        # <v, x> underflows to -inf on every atom; v^2 var / 2 overflows to
        # +inf: refused as the normalizer estimate refuses it, unwarned
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ra.NumericalError, match="not finite"):
                ra.tilt_exact(model, np.array(v))
            with pytest.raises(ra.NumericalError, match="not finite"):
                ra.estimate_normalizer(model, np.array(v), eta=0.1,
                                       delta=0.1)


class TestTiltedScore:
    def test_worked_example(self):
        oracle = ra.score_oracle(std_normal_1d())
        out = ra.tilted_score(oracle, np.array([1.0]), 0.6, np.array([0.0]))
        assert out == pytest.approx([0.8], abs=1e-12)

    def test_zero_tilt_unchanged(self):
        m = std_normal_1d()
        oracle = ra.score_oracle(m)
        x = np.array([0.37])
        assert ra.tilted_score(oracle, np.zeros(1), 0.45, x) == pytest.approx(
            ra.score(m, 0.45, x))

    def test_identity_matches_closed_form(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            m = random_gmm(rng, int(rng.integers(1, 3)), int(rng.integers(1, 4)))
            oracle = ra.score_oracle(m)
            for _ in range(20):
                v = rng.standard_normal(m.d) * 0.3
                sig = float(rng.uniform(0.1, 0.9))
                x = rng.standard_normal(m.d)
                lhs = ra.tilted_score(oracle, v, sig, x)
                rhs = ra.score(ra.tilt_exact(m, v), sig, x)
                assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_tilt_matrix_matches_rows(self):
        rng = np.random.default_rng(12)
        m = random_gmm(rng, 3, 2)
        oracle = ra.score_oracle(m)
        V = rng.standard_normal((7, 3)) * 0.3
        x = rng.standard_normal((7, 3))
        rows = np.array([ra.tilted_score(oracle, v, 0.4, xi)
                         for v, xi in zip(V, x)])
        batch = ra.tilted_score(oracle, V, 0.4, x)
        assert np.max(np.abs(batch - rows)) <= 1e-12


class TestSampleLinearTilt:
    def test_exact_gaussian_mean(self):
        batch = ra.sample_linear_tilt(std_normal_1d(), np.array([1.0]),
                                      eps=0.1, seed=21, n=10**5)
        assert abs(batch.points.mean() - 1.0) < 0.02

    def test_zero_tilt_is_base(self):
        m = two_point()
        b1 = ra.sample_linear_tilt(m, np.zeros(1), eps=0.1, seed=5, n=4000)
        assert abs(np.mean(b1.points[:, 0] > 0) - 0.5) < 0.03

    def test_diffusion_two_point_mass(self):
        m = two_point()
        batch = ra.sample_linear_tilt(m, np.array([1.0]), eps=0.05, seed=12,
                                      backend="diffusion", n=10**4)
        rounded = np.where(batch.points[:, 0] > 0, 1.0, -1.0)
        target = np.e / (np.e + np.exp(-1.0))
        assert abs(np.mean(rounded > 0) - target) < 0.03

    def test_support_stays_in_ball(self):
        m = std_normal_1d()
        batch = ra.sample_linear_tilt(m, np.array([0.3]), eps=0.2, seed=3,
                                      backend="diffusion", n=200)
        assert np.all(np.linalg.norm(batch.points, axis=1) <= m.support_radius + 1e-12)

    @pytest.mark.parametrize("base", [two_point(), std_normal_1d(),
                                      random_gmm(np.random.default_rng(4), 3,
                                                 2)])
    def test_no_tilt_is_the_base_draw(self, base):
        exact = ra.sample_linear_tilt(base, None, 0.2, seed=8, n=300)
        assert np.array_equal(exact.points,
                              ra.sample_exact(base, 300, 8).points)
        steps = recommended_steps(0.2, base.support_radius)
        reverse = ra.sample_linear_tilt(base, None, 0.2, seed=8, n=300,
                                        backend="diffusion")
        direct = ra.sample_via_diffusion(ra.score_oracle(base), n=300,
                                         steps=steps, seed=8)
        assert np.array_equal(reverse.points, direct.points)

    def test_one_tilt_per_row_on_diffusion(self):
        base = two_point()
        V = np.linspace(-1.0, 1.0, 40)[:, None]
        batch = ra.sample_linear_tilt(base, V, 0.1, seed=2, n=40,
                                      backend="diffusion", steps=30)
        oracle = ra.score_oracle(base)
        tilted = ra.ScoreOracle(
            fn=lambda s, x: ra.tilted_score(oracle, V, s, x), d=1, C=1.0)
        direct = ra.sample_via_diffusion(tilted, n=40, steps=30, seed=2)
        assert np.array_equal(batch.points, direct.points)

    @pytest.mark.parametrize("backend, v", [
        ("exact", np.ones((5, 1))), ("exact", np.ones((1, 1))),
        ("exact", np.ones(2)), ("diffusion", np.ones((4, 1))),
        ("diffusion", np.ones((5, 2))), ("diffusion", np.ones((1, 5, 1))),
        ("diffusion", np.array(1.0)), ("exact", np.array([np.nan]))])
    def test_tilt_shape_checked(self, backend, v):
        with pytest.raises(ra.ValidationError):
            ra.sample_linear_tilt(two_point(), v, 0.1, seed=0, n=5,
                                  backend=backend)


class TestEstimateNormalizer:
    def test_gaussian_mgf(self):
        est = ra.estimate_normalizer(std_normal_1d(), np.array([1.0]),
                                     eta=0.1, delta=0.1)
        assert est.value == pytest.approx(np.exp(0.5), rel=1e-12)
        # quadrature cross-check
        Z, _ = quad(lambda x: np.exp(-0.5 * x * x) / np.sqrt(2 * np.pi)
                    * np.exp(x), -12, 12)
        assert est.value == pytest.approx(Z, rel=1e-9)

    def test_zero_tilt_is_one(self):
        for backend in ("exact", "mc"):
            est = ra.estimate_normalizer(two_point(), np.zeros(1), eta=0.2,
                                         delta=0.2, seed=0, backend=backend)
            assert est.value == pytest.approx(1.0, rel=1e-12)

    def test_two_point_cosh(self):
        est = ra.estimate_normalizer(two_point(), np.array([1.0]),
                                     eta=0.1, delta=0.1)
        assert est.value == pytest.approx(np.cosh(1.0), rel=1e-12)

    def test_mc_hits_relative_error(self):
        m = two_point()
        v = np.array([1.0])
        truth = np.cosh(1.0)
        hits = 0
        for trial in range(50):
            est = ra.estimate_normalizer(m, v, eta=0.1, delta=0.1,
                                         seed=trial, backend="mc")
            hits += abs(est.value - truth) <= 0.1 * truth
        assert hits >= 40

    def test_mc_sums_every_block(self):
        # an atom set's blocked draws are the one-shot draws of the same
        # stream; 3 blocks and a partial one
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        v = np.array([0.8])
        n = 3 * MC_BLOCK + 5
        got = _mean_exp(m, v, n, np.random.default_rng(3))
        xs = ra.sample_exact(m, n, np.random.default_rng(3)).points
        assert got == pytest.approx(np.mean(np.exp(xs @ v)), rel=1e-12)

    def test_mc_memory_flat_in_draws(self):
        # about 4.6e5 draws; one-shot draws would hold several MB
        m = two_point()
        tracemalloc.start()
        try:
            est = ra.estimate_normalizer(m, np.array([0.0]), eta=0.002,
                                         delta=0.05, seed=0, backend="mc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_draws > 50 * MC_BLOCK
        assert peak < 1_000_000

    def test_mc_staged_agrees_with_exact(self):
        # ||v||C up to 4 on mixtures: the one-stream count passes the cap
        # at eta = 0.2, so these run as products of ratios
        rng = np.random.default_rng(13)
        for _ in range(3):
            m = random_gmm(rng, 1, 2)
            vc = float(rng.uniform(1.0, 4.0))
            v = np.array([vc / m.support_radius])
            eta = 0.2
            est = ra.estimate_normalizer(m, v, eta=eta, delta=0.05, seed=rng,
                                         backend="mc")
            truth = np.exp(log_normalizer_exact(m, v))
            assert abs(est.value - truth) <= 2 * eta * truth

    def test_mc_steep_tilt_within_budget(self):
        # v = 3 on two atoms: one stream of base draws would need 3e7 draws,
        # over the cap; the stage plan needs about 3.5e5
        m, v, eta = two_point(), np.array([3.0]), 0.1
        assert tilts._stage_plan(3.0, eta, 0.05, 1)[0] > 1
        est = ra.estimate_normalizer(m, v, eta=eta, delta=0.05, seed=0,
                                     backend="mc")
        assert est.n_draws < 1_749_462
        assert abs(est.value / np.cosh(3.0) - 1) <= eta

    def test_mc_one_stage_is_one_stream(self):
        # where S = 1 is cheapest, the estimate is one Hoeffding-sized mean
        # over one stream of base draws, to the bit
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        for V in (np.array([0.6]), np.array([[0.2], [-0.7]])):
            est = ra.estimate_normalizer(m, V, eta=0.1, delta=0.1, seed=4,
                                         backend="mc")
            vc = float(np.max(np.abs(V)))
            assert est.n_draws == int(np.ceil(
                np.exp(4 * vc) * np.log(2 / 0.1) / (2 * 0.1**2)))
            want = np.log(_mean_exp(m, V, est.n_draws,
                                    np.random.default_rng(4)))
            assert np.array_equal(np.atleast_1d(est.log_value), want)

    # over the cap at every stage count: the plan is checked before any
    # count becomes an int, over a bounded range of stage counts
    @pytest.mark.parametrize("m, V, eta, delta", [
        (std_normal_1d(), np.array([1.0]), 0.01, 0.01),
        (two_point(), np.array([[4.0], [-4.0], [2.0]]), 0.05, 0.05 / 3),
        (two_point(), np.array([1e308]), 0.05, 0.05)])
    def test_mc_budget_error(self, m, V, eta, delta):
        with np.errstate(over="ignore"), pytest.raises(ra.BudgetError):
            ra.estimate_normalizer(m, V, eta=eta, delta=delta, seed=0,
                                   backend="mc")

    def test_parameter_gates(self):
        with pytest.raises(ra.ValidationError):
            ra.estimate_normalizer(two_point(), np.zeros(1), eta=1.5, delta=0.1)


class TestTiltMatrix:
    """A tilt matrix (m, d) is m tilts at once; one tilt is the m = 1 case."""

    def gmm(self):
        return ra.GaussianMixtureModel(
            [0.3, 0.7], [[0.5, -0.2], [-0.4, 0.3]],
            [[[0.2, 0.05], [0.05, 0.1]], [[0.15, -0.03], [-0.03, 0.25]]],
            8.0)

    def atoms(self, rng, n=7):
        pts = rng.standard_normal((n, 2))
        pts /= 1.5 * np.linalg.norm(pts, axis=1, keepdims=True)
        return ra.DiscreteModel(pts, rng.dirichlet(np.ones(n)), 1.0)

    def test_log_normalizer_rows(self):
        rng = np.random.default_rng(21)
        V = rng.standard_normal((5, 2))
        for model in (self.gmm(), self.atoms(rng)):
            rows = [log_normalizer_exact(model, v) for v in V]
            got = log_normalizer_exact(model, V)
            assert got.shape == (5,)
            assert np.max(np.abs(got - rows)) <= 1e-12

    def test_atom_logits_in_row_blocks(self, monkeypatch):
        # blocks of one tilt give the same log normalizers and mixture
        rng = np.random.default_rng(22)
        model, V = self.atoms(rng, 30), rng.standard_normal((9, 2))
        log_pi = np.log(rng.dirichlet(np.ones(9)))
        whole = log_normalizer_exact(model, V)
        mix = ra.tilt_exact(model, V, log_pi).probs
        monkeypatch.setattr(tilts, "TILT_BLOCK", 30)
        assert np.max(np.abs(log_normalizer_exact(model, V) - whole)) <= 1e-12
        assert np.max(np.abs(ra.tilt_exact(model, V, log_pi).probs
                             - mix)) <= 1e-15

    def test_atom_mixture_is_weighted_sum(self):
        rng = np.random.default_rng(23)
        model, V = self.atoms(rng), rng.standard_normal((4, 2))
        pi = rng.dirichlet(np.ones(4))
        want = sum(p * ra.tilt_exact(model, v).probs for p, v in zip(pi, V))
        got = ra.tilt_exact(model, V, np.log(pi))
        assert np.max(np.abs(got.probs - want)) <= 1e-15

    def test_single_tilt_is_one_row(self):
        rng = np.random.default_rng(24)
        v = rng.standard_normal(2)
        for model in (self.gmm(), self.atoms(rng)):
            one, row = ra.tilt_exact(model, v), ra.tilt_exact(model, v[None])
            for attr in ("probs", "weights", "means", "covs"):
                if hasattr(one, attr):
                    assert np.array_equal(getattr(one, attr),
                                          getattr(row, attr))

    def test_equal_weights_by_default(self):
        rng = np.random.default_rng(25)
        model, V = self.atoms(rng), rng.standard_normal((3, 2))
        assert np.max(np.abs(ra.tilt_exact(model, V).probs
                             - ra.tilt_exact(model, V, np.zeros(3)).probs)) \
            <= 1e-15

    def test_bad_inputs_rejected(self):
        model = self.gmm()
        for V, log_pi in ((np.zeros((2, 3)), None), (np.zeros((0, 2)), None),
                          (np.zeros((2, 2)), np.zeros(3)),
                          (np.zeros((2, 2)), np.full(2, -np.inf)),
                          (np.zeros((2, 2)), np.array([0.0, np.nan]))):
            with pytest.raises(ra.ValidationError):
                ra.tilt_exact(model, V, log_pi)

    def test_exact_backend_rows(self):
        rng = np.random.default_rng(26)
        V = rng.standard_normal((4, 2))
        for model in (self.gmm(), self.atoms(rng)):
            est = ra.estimate_normalizer(model, V, eta=0.1, delta=0.1)
            assert np.array_equal(est.log_value,
                                  log_normalizer_exact(model, V))
            assert est.value == pytest.approx(np.exp(est.log_value),
                                              rel=1e-15)

    def test_exact_log_normalizer_beyond_exp_range(self):
        # log Z ~ 1500: the value overflows, the log does not
        m = random_gmm(np.random.default_rng(27), 1, 2)
        v = np.array([400.0])
        est = ra.estimate_normalizer(m, v, eta=0.1, delta=0.1)
        assert np.isfinite(est.log_value)
        assert est.log_value == log_normalizer_exact(m, v)

    def test_mc_rows_hit_relative_error(self):
        m = two_point()
        V = np.array([[1.0], [0.5], [-0.3]])
        truth = np.cosh(V[:, 0])
        eta, delta, trials = 0.1, 0.1, 50
        hits = np.zeros(3)
        for trial in range(trials):
            est = ra.estimate_normalizer(m, V, eta=eta, delta=delta,
                                         seed=trial, backend="mc")
            hits += np.abs(est.value - truth) <= eta * truth
        assert np.all(hits >= (1 - delta) * trials)

    def test_mc_rows_share_one_stream(self):
        # one stream of max n_i draws: the count of the largest ||v_i||C,
        # and each row's mean is the mean over that one stream
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        V = np.array([[0.2], [0.9], [-0.4]])
        est = ra.estimate_normalizer(m, V, eta=0.1, delta=0.1, seed=5,
                                     backend="mc")
        alone = ra.estimate_normalizer(m, V[1], eta=0.1, delta=0.1, seed=5,
                                       backend="mc")
        assert est.n_draws == alone.n_draws
        assert est.log_value[1] == pytest.approx(alone.log_value, rel=1e-12)
        xs = ra.sample_exact(m, est.n_draws, np.random.default_rng(5)).points
        want = np.log(np.mean(np.exp(xs @ V.T), axis=0))
        assert np.max(np.abs(est.log_value - want)) <= 1e-12

    def test_mc_staged_tilt_matrix(self):
        # three tilts at ||v||C = 3 with the KL diffusion path's eta and
        # delta/m: one stream would need 1.56e8 draws; the stages share one
        # S, and each row lands within eta of the closed form
        m, c = two_point(), 3.0
        V = np.array([[c], [-c], [c / 2]])
        eta, delta = 0.05, 0.05 / 3
        stages, n = tilts._stage_plan(c, eta, delta, 3)
        assert stages > 1
        est = ra.estimate_normalizer(m, V, eta=eta, delta=delta, seed=1,
                                     backend="mc")
        assert est.n_draws == n * (1 + 3 * (stages - 1)) <= tilts.MC_SAMPLE_CAP
        err = np.exp(est.log_value - log_normalizer_exact(m, V)) - 1
        assert np.all(np.abs(err) <= eta)
