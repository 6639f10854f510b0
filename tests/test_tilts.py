import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import multivariate_normal

import rewardalign as ra
from rewardalign import tilts
from rewardalign.metrics import QuadratureTilt1D, w2_1d_samples_vs_quantiles
from rewardalign.models import ROW_BLOCK, recommended_steps
from rewardalign.tilts import log_normalizer_exact
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
            lhs = sum(w * multivariate_normal(mu, cov).pdf(x) for w, mu, cov
                      in zip(tilted.weights, tilted.means, tilted.covs))
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
                                      seed=21, n=10**5)
        assert abs(batch.points.mean() - 1.0) < 0.02

    def test_zero_tilt_is_base(self):
        m = two_point()
        b1 = ra.sample_linear_tilt(m, np.zeros(1), seed=5, n=4000)
        assert abs(np.mean(b1.points[:, 0] > 0) - 0.5) < 0.03

    def test_diffusion_two_point_mass(self):
        m = two_point()
        batch = ra.sample_linear_tilt(m, np.array([1.0]), seed=12, n=10**4,
                                      steps=recommended_steps(0.05, 1.0))
        rounded = np.where(batch.points[:, 0] > 0, 1.0, -1.0)
        target = np.e / (np.e + np.exp(-1.0))
        assert abs(np.mean(rounded > 0) - target) < 0.03

    def test_support_stays_in_ball(self):
        m = std_normal_1d()
        batch = ra.sample_linear_tilt(m, np.array([0.3]), seed=3, n=200,
                                      steps=recommended_steps(0.2, 8.0))
        assert np.all(np.linalg.norm(batch.points, axis=1) <= m.support_radius + 1e-12)

    @pytest.mark.parametrize("base", [two_point(), std_normal_1d(),
                                      random_gmm(np.random.default_rng(4), 3,
                                                 2)])
    def test_no_tilt_is_the_base_draw(self, base):
        exact = ra.sample_linear_tilt(base, None, seed=8, n=300)
        assert np.array_equal(exact.points,
                              ra.sample_exact(base, 300, 8).points)
        steps = recommended_steps(0.2, base.support_radius)
        reverse = ra.sample_linear_tilt(base, None, seed=8, n=300,
                                        steps=steps)
        direct = ra.sample_via_diffusion(ra.score_oracle(base), n=300,
                                         steps=steps, seed=8)
        assert np.array_equal(reverse.points, direct.points)

    def test_mixture_on_diffusion_is_one_reverse_pass(self):
        # each row draws its tilt from pi, then one reverse pass follows
        # the per-row tilted scores, all from the same stream
        base = two_point()
        V = np.array([[-1.0], [0.2], [1.0]])
        log_pi = np.log([0.2, 0.3, 0.5])
        batch = ra.sample_linear_tilt(base, V, seed=2, n=40, steps=30,
                                      log_pi=log_pi)
        rng = np.random.default_rng(2)
        pi = np.exp(log_pi - log_pi.max())
        rows = V[ra.models._categorical(pi, 40, rng)]
        oracle = ra.score_oracle(base)
        tilted = ra.ScoreOracle(
            fn=lambda s, x: ra.tilted_score(oracle, rows, s, x), d=1, C=1.0)
        direct = ra.sample_via_diffusion(tilted, n=40, steps=30, seed=rng)
        assert np.array_equal(batch.points, direct.points)

    @pytest.mark.parametrize("base", [
        two_point(), random_gmm(np.random.default_rng(4), 2, 3)],
        ids=["atoms", "gmm"])
    def test_mixture_on_exact_is_the_tilt_model(self, base):
        V = np.linspace(-0.8, 0.6, 3 * base.d).reshape(3, base.d)
        for log_pi in (None, np.log([0.5, 0.3, 0.2])):
            batch = ra.sample_linear_tilt(base, V, seed=5, n=300,
                                          log_pi=log_pi)
            direct = ra.sample_exact(ra.tilt_exact(base, V, log_pi), 300, 5)
            assert np.array_equal(batch.points, direct.points)

    @pytest.mark.parametrize("steps", [None, 5], ids=["exact", "diffusion"])
    def test_int_seed_recorded_with_a_tilt_matrix(self, steps):
        batch = ra.sample_linear_tilt(two_point(), np.ones((2, 1)), seed=17,
                                      n=5, steps=steps)
        assert batch.seed == 17

    @pytest.mark.parametrize("steps", [None, 5], ids=["exact", "diffusion"])
    @pytest.mark.parametrize("n", [0, -1, 2.5, True])
    def test_count_checked_before_the_component_draw(self, steps, n):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ra.ValidationError, match="n must be"):
            ra.sample_linear_tilt(two_point(), np.ones((2, 1)), rng, n=n,
                                  steps=steps)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("steps", [1, 0, 2.5, True])
    def test_steps_checked_before_the_tilt_draw(self, steps):
        rng = np.random.default_rng(6)
        state = rng.bit_generator.state
        with pytest.raises(ra.ValidationError, match="steps must be"):
            ra.sample_linear_tilt(two_point(), np.ones((2, 1)), rng, n=5,
                                  steps=steps)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("base", [
        two_point(), std_normal_1d(),
        ra.ScoreOracle(fn=lambda s, x: -x, d=1, C=8.0)],
        ids=["atoms", "gmm", "oracle"])
    def test_one_tilt_row_draws_as_the_vector(self, base):
        # a one-entry pi draws no tilt, so V = v[None] keeps v's stream
        v = np.array([0.4])
        a, b = (ra.sample_linear_tilt(base, V, seed=4, n=50, steps=20)
                for V in (v, v[None]))
        assert a.points.tobytes() == b.points.tobytes()

    def test_zero_probability_is_never_drawn(self, monkeypatch):
        # every probability vector the models accept draws: an entry up to
        # 1 + 1e-12, a zero weight or a zero pi entry, which is never drawn
        tiny = ra.DiscreteModel([[0.0], [1.0], [-1.0]],
                                [1 + 5e-13, 0.0, 1e-300], 1.0)
        for atoms in (ra.DiscreteModel([[0.0], [1.0]], [1 + 5e-13, 0.0], 1.0),
                      tiny):
            assert np.all(ra.sample_exact(atoms, 1000, 1).points == 0.0)
        gmm = ra.GaussianMixtureModel([0.5, 0.0, 0.5], [[-2.0], [0.0], [2.0]],
                                      [[[0.01]]] * 3, 8.0)
        assert np.all(np.abs(ra.sample_exact(gmm, 1000, 2).points) > 1.0)
        # tilts of N(0, 0.01) by -100, 0, 100 shift it to -1, 0, 1
        narrow = ra.GaussianMixtureModel([1.0], [[0.0]], [[[0.01]]], 8.0)
        V, log_pi = np.array([[-100.0], [0.0], [100.0]]), [0.0, -np.inf, 0.0]
        x = ra.sample_linear_tilt(narrow, V, 3, n=1000, log_pi=log_pi).points
        assert np.all(np.abs(x) > 0.5)
        seen, original = [], tilts.tilted_score

        def spy(oracle, v, *args):
            seen.append(np.array(v))
            return original(oracle, v, *args)

        monkeypatch.setattr(tilts, "tilted_score", spy)
        ra.sample_linear_tilt(narrow, V, 3, n=1000, steps=5, log_pi=log_pi)
        assert seen and all(np.all(v[:, 0] != 0.0) for v in seen)

    @pytest.mark.parametrize("steps", [None, 5], ids=["exact", "diffusion"])
    @pytest.mark.parametrize("v, log_pi", [
        (np.ones(2), None), (np.ones((5, 2)), None),
        (np.ones((1, 5, 1)), None), (np.array(1.0), None),
        (np.zeros((0, 1)), None), (np.array([np.nan]), None),
        (np.array([[0.5], [np.nan]]), None),
        (np.ones((3, 1)), np.zeros(2)), (np.ones(1), np.zeros(2)),
        (np.ones((2, 1)), np.array([0.0, np.nan]))],
        ids=["vector-d", "matrix-d", "3-D", "0-D", "empty", "nan-vector",
             "nan-matrix", "log_pi-length", "log_pi-vector", "log_pi-nan"])
    def test_tilt_shape_checked(self, steps, v, log_pi):
        with pytest.raises(ra.ValidationError):
            ra.sample_linear_tilt(two_point(), v, seed=0, n=5, steps=steps,
                                  log_pi=log_pi)


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
            assert est.n_draws == 0  # a zero tilt makes no draws

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
        # at ||v||C = 0.3 and eta = 0.009 the rule takes one panel (K = 1),
        # so every draw is from the one-node mixture tilt(v / 2): a block
        # and then a partial one, drawn in turn from one stream
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        v, eta, delta = np.array([0.3]), 0.009, 0.1
        est = ra.estimate_normalizer(m, v, eta=eta, delta=delta, seed=3,
                                     backend="mc")
        eps = np.log1p(eta) / 2
        N = int(np.ceil(2 * 0.3**2 * np.log(2 / delta) / eps**2))
        assert est.n_draws == N and ROW_BLOCK < N < 2 * ROW_BLOCK
        law, rng = ra.tilt_exact(m, v[None] / 2), np.random.default_rng(3)
        xs = np.concatenate([ra.sample_exact(law, k, rng).points
                             for k in (ROW_BLOCK, N - ROW_BLOCK)])
        assert est.log_value == pytest.approx(np.mean(xs @ v), rel=1e-12)

    def test_mc_builds_one_law_per_tilt(self, monkeypatch):
        # exact draws come from one node mixture per tilt, built before its
        # blocks: two tilts of more than one block each build two models
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        built, original = [], tilts.tilt_exact

        def counted(*args, **kwargs):
            built.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(tilts, "tilt_exact", counted)
        est = ra.estimate_normalizer(m, np.array([[0.3], [-0.3]]), eta=0.009,
                                     delta=0.1, seed=3, backend="mc")
        assert est.n_draws > 2 * ROW_BLOCK and len(built) == 2

    def test_mc_memory_flat_in_draws(self):
        # about 4.6e5 draws; one-shot draws would hold several MB
        m = two_point()
        tracemalloc.start()
        try:
            est = ra.estimate_normalizer(m, np.array([0.25]), eta=0.002,
                                         delta=0.05, seed=0, backend="mc")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_draws > 25 * ROW_BLOCK
        assert peak < 1_000_000

    def test_mc_mixture_agrees_with_exact(self):
        # ||v||C up to 4 on mixtures: every draw is an exact draw of a
        # tilted mixture, truncated to the ball
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
        # v = 3 on two atoms: one stream of exp(<v, X>) over base draws
        # would need 3e7 draws, over the cap; the bounds on <v, X> in
        # [-3, 3] need under 3e4
        m, v, eta = two_point(), np.array([3.0]), 0.1
        est = ra.estimate_normalizer(m, v, eta=eta, delta=0.05, seed=0,
                                     backend="mc")
        assert est.n_draws < 30_000
        assert abs(est.value / np.cosh(3.0) - 1) <= eta

    def test_mc_bound_over_a_seed_sweep(self):
        # 20 fixed seeds at ||v||C in {0.5, 3, 10} on two atoms and a 1-D
        # mixture: at least a 1 - delta share of each cell's estimates lie
        # within log(1 + eta) of the closed form
        eta, delta = 0.1, 0.1
        for m in (two_point(), ra.GaussianMixtureModel(
                [0.4, 0.6], [[-0.6], [0.7]], [[[0.5]], [[0.3]]], 6.0)):
            for vc in (0.5, 3.0, 10.0):
                v = np.array([vc / m.support_radius])
                err = [abs(ra.estimate_normalizer(
                    m, v, eta=eta, delta=delta, seed=seed, backend="mc"
                ).log_value - log_normalizer_exact(m, v))
                       for seed in range(20)]
                assert np.mean(np.array(err) <= np.log1p(eta)) >= 1 - delta

    def test_mc_midpoint_nodes_in_order(self):
        # K and N follow the quadrature and Hoeffding bounds at B = 1.5, and
        # the estimate is the mean of <v, X> over N draws from the equal
        # mixture of the tilts ((k + 1/2) / K) v, whose mean of <v, X> is
        # the midpoint sum
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        v, eta, delta = np.array([1.5]), 0.1, 0.1
        est = ra.estimate_normalizer(m, v, eta=eta, delta=delta, seed=4,
                                     backend="mc")
        eps = np.log1p(eta) / 2  # exact draws: quadrature and sampling
        K = int(np.ceil(np.sqrt(1.5**3 / (12 * eps))))
        N = int(np.ceil(2 * 1.5**2 * np.log(2 / delta) / eps**2))
        assert K > 1 and est.n_draws == N < ROW_BLOCK
        nodes = ((np.arange(K) + 0.5) / K)[:, None] * v
        mix = ra.tilt_exact(m, nodes)
        midpoint = np.mean([ra.tilt_exact(m, t).probs for t in nodes], axis=0)
        assert mix.probs @ m.atoms @ v == pytest.approx(
            midpoint @ m.atoms @ v, rel=1e-12)
        xs = ra.sample_exact(mix, N, np.random.default_rng(4)).points
        assert est.log_value == pytest.approx(np.mean(xs @ v), rel=1e-12)

    # over the cap: the draw count is checked before it becomes an int
    @pytest.mark.parametrize("m, V, eta, delta", [
        (std_normal_1d(), np.array([1.0]), 0.01, 0.01),
        (two_point(), np.array([[40.0], [-40.0], [20.0]]), 0.05, 0.05 / 3),
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

    def test_mc_rows_draw_in_order(self):
        # each row makes its own draws, row after row from one stream, and
        # a zero row makes none
        m = ra.DiscreteModel([[-0.5], [0.25], [1.0]], [0.2, 0.3, 0.5], 1.0)
        V = np.array([[0.2], [0.0], [0.9], [-0.4]])
        est = ra.estimate_normalizer(m, V, eta=0.1, delta=0.1, seed=5,
                                     backend="mc")
        rng = np.random.default_rng(5)
        alone = [ra.estimate_normalizer(m, v, eta=0.1, delta=0.1, seed=rng,
                                        backend="mc") for v in V]
        assert est.n_draws == sum(a.n_draws for a in alone)
        assert alone[1].n_draws == 0 and est.log_value[1] == 0.0
        assert np.array_equal(est.log_value, [a.log_value for a in alone])

    def test_mc_steep_tilt_matrix(self):
        # three tilts at ||v||C = 3 with the KL diffusion path's eta and
        # delta/m: one stream of exp(<v, X>) would need 1.56e8 draws; path
        # sampling stays under the cap, and each row lands within eta of
        # the closed form
        m, c = two_point(), 3.0
        V = np.array([[c], [-c], [c / 2]])
        eta, delta = 0.05, 0.05 / 3
        est = ra.estimate_normalizer(m, V, eta=eta, delta=delta, seed=1,
                                     backend="mc")
        assert 0 < est.n_draws <= tilts.MC_SAMPLE_CAP
        err = np.exp(est.log_value - log_normalizer_exact(m, V)) - 1
        assert np.all(np.abs(err) <= eta)
