import numpy as np
import pytest

import rewardalign as ra
from rewardalign.metrics import oracle_prox_grid, w2_discrete
from rewardalign.models import DIFFUSION_STEP_CAP
from rewardalign.w2_align import (Alg2Params, LowRankDecomp, objective_value,
                                  prox_quadratic_batch, reduced_objective)
from rewardalign.validate import random_discrete, random_unit_ball


def fig1_reward():
    return ra.QuadraticReward([[0.15]], [0.6], c=-0.6)


class NegAbs:
    """r(x) = -|x| in 1D, concave with supergradient -sign(x)."""
    concave = True
    d = 1

    def value(self, x):
        x = np.asarray(x, dtype=float)
        out = -np.abs(np.atleast_2d(x)[:, 0])
        return float(out[0]) if x.ndim == 1 else out

    def grad(self, x):
        return np.array([-np.sign(float(np.atleast_1d(x)[0]))])


class OpaqueConcave:
    """A concave reward seen only through its value and grad oracles."""
    concave = True

    def __init__(self, reward):
        self.d, self.value, self.grad = reward.d, reward.value, reward.grad


class TestProxQuadratic:
    def test_fig1_map(self):
        r = fig1_reward()
        for y, want in ((2.0, 2.0), (0.0, 1.0), (-4.0, -1.0)):
            x = ra.prox_quadratic(r.B, r.b, 0.15, np.array([y]), 10.0)
            assert x == pytest.approx([want], abs=1e-12)

    def test_isotropic_halving(self):
        # r(x) = -||x||^2, lam = 1: stationarity gives y/2
        y = np.array([0.8, -0.4])
        x = ra.prox_quadratic(np.eye(2), np.zeros(2), 1.0, y, 100.0)
        assert x == pytest.approx(y / 2, abs=1e-12)

    def test_symmetric_origin(self):
        x = ra.prox_quadratic(np.eye(3), np.zeros(3), 0.7, np.zeros(3), 1.0)
        assert x == pytest.approx(np.zeros(3), abs=1e-15)

    def test_ball_constrained_vs_grid_oracle(self):
        # strong pull outward makes the constraint bind
        r = ra.QuadraticReward([[0.2]], [4.0])
        lam, C, y = 0.5, 1.0, np.array([3.0])
        x = ra.prox_quadratic(r.B, r.b, lam, y, C)
        assert abs(np.linalg.norm(x) - C) < 1e-9
        grid = oracle_prox_grid(r, lam, y, C, resolution=1e-5)
        assert np.linalg.norm(x - grid) <= 1e-4

    def test_kkt_residual_and_local_optimality(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            d = int(rng.integers(1, 5))
            M = rng.standard_normal((d, d))
            B = M @ M.T
            b = rng.standard_normal(d)
            lam = float(rng.uniform(0.2, 2.0))
            y = rng.standard_normal(d) * 2
            C = float(rng.uniform(0.5, 2.0))
            x, nu = ra.w2_align._prox_quadratic_kkt(B, b, lam, y, C)
            resid = (B + (lam + nu) * np.eye(d)) @ x - (b / 2 + lam * y)
            assert np.linalg.norm(resid) <= 1e-9
            assert abs(nu * (np.linalg.norm(x) - C)) <= 1e-9
            r = ra.QuadraticReward(B, b)

            def objective(z):
                return float(r.value(z)) - lam * float(np.sum((z - y) ** 2))

            fx = objective(x)
            for z in random_unit_ball(rng, 100, d, radius=C):
                assert fx >= objective(z) - 1e-9

    def test_non_psd_rejected(self):
        with pytest.raises(ra.ValidationError):
            ra.prox_quadratic([[-1.0]], [0.0], 1.0, np.array([0.0]), 1.0)

    def test_batch_matches_rows_interior_and_boundary(self):
        rng = np.random.default_rng(30)
        for d in range(1, 6):
            M = rng.standard_normal((d, d))
            B, b = M @ M.T / d, rng.standard_normal(d)
            lam, C = float(rng.uniform(0.3, 1.5)), 1.0
            # small ys stay inside the ball, large ones are pushed onto it
            ys = rng.standard_normal((40, d)) * np.repeat([0.05, 4.0], 20)[:, None]
            xs, nus = ra.w2_align._prox_quadratic_kkt(B, b, lam, ys, C)
            assert xs.shape == ys.shape and nus.shape == (40,)
            assert np.any(nus == 0.0) and np.any(nus > 0.0)
            for y, x, nu in zip(ys, xs, nus):
                x1, nu1 = ra.w2_align._prox_quadratic_kkt(B, b, lam, y, C)
                assert np.max(np.abs(x - x1)) <= 1e-12
                assert abs(nu - nu1) <= 1e-12
                resid = (B + (lam + nu) * np.eye(d)) @ x - (b / 2 + lam * y)
                assert np.linalg.norm(resid) <= 1e-9
                assert abs(nu * (np.linalg.norm(x) - C)) <= 1e-9

    @pytest.mark.parametrize("lam, C, y", [
        (1.0, -1.0, [0.0]), (1.0, np.nan, [0.0]), (1.0, np.inf, [0.0]),
        (np.nan, 1.0, [0.0]), (0.0, 1.0, [0.0]), (1.0, 1.0, [0.0, 1.0])])
    def test_bad_inputs_rejected(self, lam, C, y):
        r = fig1_reward()
        y = np.array(y)
        with pytest.raises(ra.ValidationError):
            ra.prox_quadratic(r.B, r.b, lam, y, C)
        with pytest.raises(ra.ValidationError):
            ra.prox_concave(r, lam, y, C)
        decomp = LowRankDecomp.from_matrix([[1.0]])
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        with pytest.raises(ra.ValidationError):
            ra.alg2_prox(decomp, f.value, lam, y, C, eps=0.1, L=1.0)


class TestProxConcave:
    def test_matches_quadratic_backend(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            d = int(rng.integers(1, 6))
            M = rng.standard_normal((d, d))
            r = ra.QuadraticReward(M @ M.T + 0.1 * np.eye(d),
                                   rng.standard_normal(d))
            lam = float(rng.uniform(0.3, 1.5))
            y = rng.standard_normal(d)
            C = float(rng.uniform(0.8, 3.0))
            closed = ra.prox_quadratic(r.B, r.b, lam, y, C)
            pga = ra.prox_concave(r, lam, y, C)
            assert np.linalg.norm(closed - pga) <= 1e-6

    def test_constant_reward_projects(self):
        r = ra.QuadraticReward(np.zeros((2, 2)), np.zeros(2))
        y = np.array([3.0, 4.0])
        x = ra.prox_concave(r, 1.0, y, 1.0)
        assert x == pytest.approx([0.6, 0.8], abs=1e-8)

    def test_neg_abs_piecewise(self):
        x = ra.prox_concave(NegAbs(), 1.0, np.array([2.0]), 10.0)
        assert x == pytest.approx([1.5], abs=1e-8)
        grid = oracle_prox_grid(NegAbs(), 1.0, np.array([2.0]), 10.0, 1e-4)
        assert np.linalg.norm(x - grid) <= 2e-4

    def test_non_concave_refused(self):
        r = ra.QuadraticReward([[-0.5]], [0.0])
        with pytest.raises(ra.ValidationError):
            ra.prox_concave(r, 1.0, np.array([0.0]), 1.0)

    def test_batch_matches_rows_interior_and_boundary(self):
        rng = np.random.default_rng(32)
        for d in range(1, 6):
            M = rng.standard_normal((d, d))
            r = ra.QuadraticReward(M @ M.T / d + 0.2 * np.eye(d),
                                   0.5 * rng.standard_normal(d))
            lam, C = float(rng.uniform(0.3, 1.5)), 1.0
            # small ys stay inside the ball, large ones are pushed onto it
            ys = rng.standard_normal((40, d)) * np.repeat([0.05, 4.0], 20)[:, None]
            xs = ra.prox_concave(r, lam, ys, C)
            assert xs.shape == ys.shape
            norms = np.linalg.norm(xs, axis=1)
            assert np.any(norms < C - 1e-6) and np.any(norms > C - 1e-12)
            rows = np.array([ra.prox_concave(r, lam, y, C)
                             for y in ys])
            assert np.max(np.abs(xs - rows)) <= 1e-12

    def test_oversized_step_halves_per_row(self):
        # a concave quadratic behind plain oracles starts at the step
        # 1/(2 lam), far above its safe 1/(2 lam_max(B) + 2 lam); each row
        # halves its own step when its own objective drops, so rows leave
        # at different step sizes; one step shared by the batch would
        # change the paths and the results
        rng = np.random.default_rng(33)
        M = rng.standard_normal((3, 3))
        q = ra.QuadraticReward(20.0 * M @ M.T, rng.standard_normal(3))
        r = OpaqueConcave(q)
        lam, C = 0.5, 1.0
        safe = 1.0 / (2.0 * np.linalg.eigvalsh(q.B)[-1] + 2.0 * lam)
        assert 1.0 / (2.0 * lam) > 100 * safe
        ys = rng.standard_normal((30, 3)) * np.repeat([0.1, 3.0], 15)[:, None]
        xs = ra.prox_concave(r, lam, ys, C)
        rows = np.array([ra.prox_concave(r, lam, y, C) for y in ys])
        assert np.max(np.abs(xs - rows)) <= 1e-12
        closed = ra.prox_quadratic(q.B, q.b, lam, ys, C)
        assert np.max(np.linalg.norm(xs - closed, axis=1)) <= 1e-5

    def test_single_point_oracle_refused_on_batch(self):
        # a gradient oracle that returns one (d,) vector whatever it is given
        class PointGrad(ra.LinearReward):
            def grad(self, x):
                return self.theta.copy()

        r = PointGrad([0.3, -0.2])
        x = ra.prox_concave(r, 0.5, np.array([0.1, 0.2]), 1.0)
        assert x == pytest.approx([0.4, 0.0], abs=1e-8)
        with pytest.raises(ra.ValidationError, match="batch"):
            ra.prox_concave(r, 0.5, np.array([[0.1, 0.2], [0.0, 0.0]]), 1.0)

    def test_batch_iteration_cap(self, monkeypatch):
        r = ra.QuadraticReward([[1.0, 0.3], [0.3, 0.2]], [0.3, -0.2])
        ys = np.array([[0.5, 0.5], [2.0, -1.0]])
        assert np.all(np.isfinite(ra.prox_concave(r, 0.5, ys, 1.0)))
        monkeypatch.setattr(ra.w2_align, "PGA_MAX_ITER", 2)
        with pytest.raises(ra.NumericalError):
            ra.prox_concave(r, 0.5, ys, 1.0)


class TestAlg2Prox:
    def test_worked_2d_example(self):
        A = np.array([[1.0, 0.0]])
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        decomp = LowRankDecomp.from_matrix(A)
        y = np.array([0.0, 0.5])
        x = ra.alg2_prox(decomp, f.value, lam=1.0, y=y, C=1.0, eps=0.1, L=1.0)
        assert np.linalg.norm(x - np.array([0.5, 0.5])) <= 0.01
        val = float(f.value(np.atleast_2d(x @ A.T))[0]) - 1.0 * np.sum((x - y) ** 2)
        assert val == pytest.approx(0.25, abs=0.01)
        # dense-grid brute force of the reduced objective agrees
        us = np.linspace(-1, 1, 200001)[:, None]
        brute = reduced_objective(decomp, f.value, 1.0, y, 1.0, us).max()
        assert val >= brute - 0.1 / 3

    def test_constant_reward_projects_y(self):
        A = np.array([[1.0, 0.0]])
        f = ra.make_max_affine([(np.array([0.0]), 0.7)])
        decomp = LowRankDecomp.from_matrix(A)
        y = np.array([3.0, 4.0])
        x = ra.alg2_prox(decomp, f.value, lam=0.5, y=y, C=1.0, eps=0.1, L=0.1)
        assert np.linalg.norm(x - np.array([0.6, 0.8])) <= 0.05

    def test_large_lambda_pins_to_y(self):
        rng = np.random.default_rng(2)
        A = rng.standard_normal((1, 3))
        S = float(np.linalg.norm(A, 2))
        reward = ra.LogSumExpReward([1.0, 1.0], [[0.6], [-0.6]], A)
        L = reward.f.lipschitz
        decomp = LowRankDecomp.from_matrix(A)
        lam, C, eps = 20.0, 1.0, 0.5
        h = Alg2Params.from_problem(L, S, lam, C, eps, decomp.r_A).h
        for _ in range(5):
            y = random_unit_ball(rng, 1, 3)[0] * 0.9
            x = ra.alg2_prox(decomp, reward.f.value, lam, y, C, eps, L)
            assert np.linalg.norm(x - y) <= L * S / (2 * lam) + 2 * h + 1e-6

    def test_batch_equals_per_point_calls(self):
        rng = np.random.default_rng(31)
        for r_A, d in ((1, 3), (2, 4), (2, 2)):
            A = rng.standard_normal((r_A, d))
            f = ra.make_max_affine([(rng.standard_normal(r_A), 0.1),
                                    (rng.standard_normal(r_A), -0.2)])
            decomp = LowRankDecomp.from_matrix(A)
            ys = random_unit_ball(rng, 25, d) * 1.2
            xs = ra.alg2_prox(decomp, f.value, 0.1, ys, 1.0, 0.3, f.lipschitz)
            rows = np.array([ra.alg2_prox(decomp, f.value, 0.1, y, 1.0, 0.3,
                                          f.lipschitz) for y in ys])
            assert np.array_equal(xs, rows)

    def test_pick_attains_reduced_objective_max(self):
        # the hoisted search picks a net row within the tie tolerance of
        # the plain definition's maximum, with base points inside and
        # outside the ball
        rng = np.random.default_rng(41)
        for r_A in (1, 2):
            net = ra.build_net(r_A, 1.0, 0.02).points
            for d in (r_A, r_A + 1, 4):
                A = rng.standard_normal((r_A, d))
                f = ra.make_max_affine([(rng.standard_normal(r_A),
                                         float(rng.uniform(-0.2, 0.2)))
                                        for _ in range(3)])
                decomp = LowRankDecomp.from_matrix(A)
                lam = float(rng.uniform(0.05, 2.0))
                ys = random_unit_ball(rng, 12, d) * rng.uniform(0.2, 2.0,
                                                                (12, 1))
                xs = ra.alg2_prox(decomp, f.value, lam, ys, 1.0, 0.1,
                                  f.lipschitz, net=net)
                for y, x in zip(ys, xs):
                    gaps = np.linalg.norm(net - decomp.V1.T @ x, axis=1)
                    assert gaps.min() <= 1e-12
                    vals = reduced_objective(decomp, f.value, lam, y, 1.0,
                                             net)
                    assert vals[np.argmin(gaps)] >= vals.max() - 1e-9 - 1e-12

    def test_constant_reward_tie_batch(self):
        # y's reduced coordinate halfway between two net points: both tie,
        # and the lexicographically smaller lift wins in a batch as alone
        A = np.array([[1.0, 0.0]])
        f = ra.make_max_affine([(np.array([0.0]), 0.7)])
        decomp = LowRankDecomp.from_matrix(A)
        net = ra.build_net(1, 1.0, 0.05).points
        mid = 0.5 * (net[10, 0] + net[11, 0])
        y_tie = decomp.V1[:, 0] * mid + np.array([0.0, 0.3])
        ys = np.array([[0.2, -0.1], y_tie, [3.0, 4.0], y_tie])
        vals = reduced_objective(decomp, f.value, 0.5, y_tie, 1.0, net)
        assert np.sum(vals >= vals.max() - 1e-9) == 2
        xs = ra.alg2_prox(decomp, f.value, 0.5, ys, 1.0, 0.1, 0.1, net=net)
        rows = np.array([ra.alg2_prox(decomp, f.value, 0.5, y, 1.0, 0.1, 0.1,
                                      net=net) for y in ys])
        assert np.array_equal(xs, rows)
        lifts = sorted(tuple(decomp.V1 @ u + np.array([0.0, 0.3]))
                       for u in net[10:12])
        assert np.array_equal(xs[1], lifts[0])

    def test_decomposition_invariants(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((2, 5))
        de = LowRankDecomp.from_matrix(A)
        assert np.linalg.norm(de.U @ np.diag(de.Sigma) @ de.V1.T - A) <= 1e-10
        assert np.allclose(de.V1.T @ de.V1, np.eye(de.r_A), atol=1e-10)
        assert np.allclose(de.V0.T @ de.V0, np.eye(5 - de.r_A), atol=1e-10)
        assert np.allclose(de.V1.T @ de.V0, 0.0, atol=1e-10)

    def test_rank_deficient_matrix(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1, k=2, d=2
        de = LowRankDecomp.from_matrix(A)
        assert de.r_A == 1


class TestPushforward:
    def test_fig1_per_sample_identity(self):
        base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                       [[[0.49]], [[0.49]]], 8.0)
        res = ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=2000,
                                   seed=4, backend="quad")
        assert np.max(np.abs(res.xs - (1 + res.ys / 2))) <= 1e-12

    def test_numpy_integer_seed_recorded(self):
        base = ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], 1.0)
        res = ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=10,
                                   seed=np.int64(5), backend="quad")
        assert res.batch.seed == 5 and type(res.batch.seed) is int

    def test_constant_reward_identity_transport(self):
        base = random_discrete(np.random.default_rng(5), 6, 2)
        r = ra.QuadraticReward(np.zeros((2, 2)), np.zeros(2))
        res = ra.sample_w2_aligned(base, r, lam=1.0, n=500, seed=6,
                                   backend="quad")
        assert np.array_equal(res.xs, res.ys)
        obj, _ = ra.objective_value(res.ys, res.xs, r, 1.0)
        assert obj == 0.0

    def test_discrete_lowrank_vs_grid_oracle(self):
        rng = np.random.default_rng(7)
        base = random_discrete(rng, 10, 3)
        A = rng.standard_normal((1, 3)) * 0.7
        reward = ra.LogSumExpReward([1.0, 0.5], [[1.0], [-0.8]], A)
        lam, eps, C = 0.3, 0.1, base.support_radius
        res = ra.sample_w2_aligned(base, reward, lam=lam, n=40, seed=8,
                                   backend="lowrank", eps=eps)
        # the schedule the run used: the true rank and the SVD's norm
        decomp = LowRankDecomp.from_matrix(A)
        assert res.params == Alg2Params.from_problem(
            reward.f.lipschitz, decomp.S, lam, C, eps, decomp.r_A)
        gxs = oracle_prox_grid(reward, lam, res.ys, C, resolution=1e-3)
        for y, x, gx in zip(res.ys, res.xs, gxs):
            def val(z):
                return float(np.asarray(reward.value(z))) - lam * np.sum((z - y) ** 2)

            assert val(x) >= val(gx) - eps / 3

    def test_pga_backend_matches_quad_pushforward(self):
        base = random_discrete(np.random.default_rng(20), 8, 2)
        r = ra.QuadraticReward(np.eye(2) * 0.4, np.array([0.3, -0.2]))
        quad = ra.sample_w2_aligned(base, r, lam=0.5, n=60, seed=21,
                                    backend="quad")
        pga = ra.sample_w2_aligned(base, r, lam=0.5, n=60, seed=21,
                                   backend="pga")
        assert np.array_equal(quad.ys, pga.ys)
        assert np.max(np.abs(quad.xs - pga.xs)) <= 1e-6

    @pytest.mark.parametrize("backend, reward, n", [
        ("exakt", fig1_reward(), 10), ("quad", ra.LinearReward([1.0]), 10),
        ("lowrank", fig1_reward(), 10),
        ("pga", ra.QuadraticReward([[-0.5]], [0.0]), 10),
        ("quad", fig1_reward(), 2.5), ("quad", fig1_reward(), True),
        ("quad", fig1_reward(), 0)])
    def test_bad_arguments_rejected_before_base_draw(self, monkeypatch,
                                                     backend, reward, n):
        def no_draw(*args, **kwargs):
            raise AssertionError("base draw before the argument checks")

        monkeypatch.setattr(ra.w2_align, "sample_linear_tilt", no_draw)
        base = ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 8.0)
        for base_backend in ("exact", "diffusion"):
            with pytest.raises(ra.ValidationError):
                ra.sample_w2_aligned(base, reward, lam=0.15, n=n, seed=0,
                                     backend=backend,
                                     base_backend=base_backend)

    def test_pga_linear_reward(self):
        base = random_discrete(np.random.default_rng(22), 6, 2)
        r = ra.LinearReward([0.4, -0.3])
        res = ra.sample_w2_aligned(base, r, lam=0.5, n=50, seed=23,
                                   backend="pga")
        closed = ra.prox_quadratic(np.zeros((2, 2)), r.theta, 0.5, res.ys,
                                   base.support_radius)
        assert np.max(np.abs(res.xs - closed)) <= 1e-8

    def test_diffusion_base_steps_capped(self, monkeypatch):
        # eps = 0.01 at C = 8 asks 2400 steps of the rule; the cap holds
        steps = []
        reverse = ra.tilts.sample_via_diffusion

        def spy(*args, **kwargs):
            steps.append(kwargs["steps"])
            return reverse(*args, **kwargs)

        monkeypatch.setattr(ra.tilts, "sample_via_diffusion", spy)
        base = ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 8.0)
        res = ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=5,
                                   seed=9, backend="quad", eps=0.01,
                                   base_backend="diffusion")
        assert steps == [DIFFUSION_STEP_CAP]
        assert np.max(np.abs(res.xs - (1 + res.ys / 2))) <= 1e-12

    def test_diffusion_base_backend(self):
        base = ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 8.0)
        res = ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=500,
                                   seed=9, backend="quad",
                                   base_backend="diffusion", steps=300)
        assert np.max(np.abs(res.xs - (1 + res.ys / 2))) <= 1e-12


class TestObjective:
    def test_scaled_mean_matches_plain_and_stays_finite(self):
        # the power-of-two scaling is exact: plain mean and spread bit for
        # bit where they are finite, finite ones near the float max
        rng = np.random.default_rng(14)

        class Values:
            def __init__(self, vals):
                self.vals = vals

            def value(self, xs):
                return self.vals

        ys = np.zeros((50, 1))
        for scale in (1e-3, 1.0, 7.5, 1e12):
            vals = rng.normal(scale, scale, 50)
            got = objective_value(ys, ys, Values(vals), 1.0)
            assert got == (float(np.mean(vals)),
                           float(np.std(vals, ddof=1) / np.sqrt(50)))
        mean, se = objective_value(ys, ys, Values(np.full(50, 1.7e308)), 1.0)
        assert mean == pytest.approx(1.7e308, rel=1e-12)
        assert 0.0 <= se < 1e300
        with pytest.raises(ra.NumericalError):
            objective_value(ys, ys, Values(np.r_[np.full(49, 1.0), -np.inf]),
                            1.0)

    def test_fig1_quadrature_value(self):
        # E_Y[max_x r(x) - lam (x - Y)^2] via the closed-form map:
        # V(y) = r(T(y)) - lam (T(y) - y)^2 with T(y) = 1 + y/2
        base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                       [[[0.49]], [[0.49]]], 8.0)
        r = fig1_reward()
        lam = 0.15
        ys = np.linspace(-8, 8, 20001)
        dens = np.exp(base.log_density(ys[:, None]))
        t = 1 + ys / 2
        v = (np.asarray(r.value(t[:, None])) - lam * (t - ys) ** 2)
        expected = np.trapezoid(v * dens, ys)
        res = ra.sample_w2_aligned(base, r, lam=lam, n=10**5, seed=10,
                                   backend="quad")
        assert abs(res.objective - expected) <= 3 * res.objective_stderr

    def test_pushforward_beats_random_alternatives(self):
        rng = np.random.default_rng(11)
        for _ in range(3):
            d = int(rng.integers(1, 3))
            base = random_discrete(rng, 8, d)
            M = rng.standard_normal((d, d))
            r = ra.QuadraticReward(M @ M.T + 0.05 * np.eye(d),
                                   rng.standard_normal(d))
            lam = float(rng.uniform(0.3, 1.0))
            C = base.support_radius
            xs = prox_quadratic_batch(r, lam, base.atoms, C)
            push = ra.metrics.empirical_to_discrete(xs, C)
            # exact pushforward law: prox of each atom with the base weights
            push = ra.DiscreteModel(xs, base.probs, C)
            obj_push = (float(base.probs @ np.asarray(r.value(xs)))
                        - lam * w2_discrete(push, base) ** 2)
            for _ in range(20):
                alt_atoms = random_unit_ball(rng, int(rng.integers(2, 8)), d,
                                             radius=C)
                alt = ra.DiscreteModel(alt_atoms,
                                       rng.dirichlet(np.ones(len(alt_atoms))), C)
                obj_alt = (float(alt.probs @ np.asarray(r.value(alt.atoms)))
                           - lam * w2_discrete(alt, base) ** 2)
                assert obj_push >= obj_alt - 1e-7

    def test_value_function_lipschitz(self):
        rng = np.random.default_rng(12)
        r = ra.QuadraticReward([[0.4]], [0.3])
        lam, C = 0.5, 2.0
        ys = rng.uniform(-C, C, 40)

        def V(y):
            x = ra.prox_quadratic(r.B, r.b, lam, np.array([y]), C)
            return float(r.value(x)) - lam * float((x[0] - y) ** 2)

        for i in range(0, 40, 2):
            y1, y2 = ys[i], ys[i + 1]
            assert abs(V(y1) - V(y2)) <= 4 * lam * C * abs(y1 - y2) + 1e-6

    def test_approximate_oracle_transfer(self):
        rng = np.random.default_rng(13)
        base = random_discrete(rng, 12, 2)
        r = ra.QuadraticReward(np.eye(2) * 0.3, np.array([0.2, -0.1]))
        lam, C = 0.4, base.support_radius
        res = ra.sample_w2_aligned(base, r, lam=lam, n=256, seed=14,
                                   backend="quad")
        alpha = 0.05
        noise = random_unit_ball(rng, len(res.xs), 2, radius=alpha)
        perturbed = res.xs + noise
        shift = ra.metrics.w2_empirical(perturbed, res.xs)
        assert shift <= alpha + 1e-9
