import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.stats import multivariate_normal

import rewardalign as ra
from rewardalign.metrics import oracle_prox_grid, w2_discrete
from rewardalign.models import DIFFUSION_STEP_CAP, ROW_BLOCK
from rewardalign.w2_align import (Alg2Params, LowRankDecomp,
                                  lift_reduced_point, objective_value,
                                  prox_quadratic_batch, reduced_objective)
from rewardalign.validate import (random_discrete, random_maxaffine,
                                  random_orthogonal_rows, random_unit_ball)


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


def schedule_h(decomp, L, lam, C, eps):
    """The net spacing of the low-rank schedule at these values."""
    return Alg2Params.from_problem(L, decomp.S, lam, C, eps, decomp.r_A).h


class OpaqueConcave:
    """A concave reward seen only through its value and grad oracles."""
    concave = True

    def __init__(self, reward):
        self.d, self.value, self.grad = reward.d, reward.value, reward.grad


class TestProxQuadratic:
    def test_fig1_map(self):
        r = fig1_reward()
        for y, want in ((2.0, 2.0), (0.0, 1.0), (-4.0, -1.0)):
            x = ra.prox_quadratic(r, 0.15, np.array([y]), 10.0)
            assert x == pytest.approx([want], abs=1e-12)

    def test_isotropic_halving(self):
        # r(x) = -||x||^2, lam = 1: stationarity gives y/2
        y = np.array([0.8, -0.4])
        x = ra.prox_quadratic(ra.QuadraticReward(np.eye(2), np.zeros(2)),
                              1.0, y, 100.0)
        assert x == pytest.approx(y / 2, abs=1e-12)

    def test_symmetric_origin(self):
        x = ra.prox_quadratic(ra.QuadraticReward(np.eye(3), np.zeros(3)),
                              0.7, np.zeros(3), 1.0)
        assert x == pytest.approx(np.zeros(3), abs=1e-15)

    def test_ball_constrained_vs_grid_oracle(self):
        # strong pull outward makes the constraint bind
        r = ra.QuadraticReward([[0.2]], [4.0])
        lam, C, y = 0.5, 1.0, np.array([3.0])
        x = ra.prox_quadratic(r, lam, y, C)
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
            x, nu = ra.w2_align._prox_quadratic_kkt(ra.QuadraticReward(B, b),
                                                    lam, y, C)
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
            ra.prox_quadratic(ra.QuadraticReward([[-1.0]], [0.0]), 1.0,
                              np.array([0.0]), 1.0)

    @pytest.mark.parametrize("ev", [-5e-11, -2e-10])
    def test_refused_where_the_reward_is_not_concave(self, ev):
        # one PSD tolerance: the prox refuses exactly where the reward's
        # own concave flag is False
        r = ra.QuadraticReward([[ev, 0.0], [0.0, 1.0]], [0.1, 0.0])
        if r.concave:
            ra.prox_quadratic(r, 1.0, np.zeros(2), 1.0)
        else:
            with pytest.raises(ra.ValidationError, match="PSD"):
                ra.prox_quadratic(r, 1.0, np.zeros(2), 1.0)
        assert r.concave == (ev > -1e-10)

    def test_batch_matches_rows_interior_and_boundary(self):
        rng = np.random.default_rng(30)
        for d in range(1, 6):
            M = rng.standard_normal((d, d))
            B, b = M @ M.T / d, rng.standard_normal(d)
            lam, C = float(rng.uniform(0.3, 1.5)), 1.0
            # small ys stay inside the ball, large ones are pushed onto it
            ys = rng.standard_normal((40, d)) * np.repeat([0.05, 4.0], 20)[:, None]
            xs, nus = ra.w2_align._prox_quadratic_kkt(ra.QuadraticReward(B, b),
                                                      lam, ys, C)
            assert xs.shape == ys.shape and nus.shape == (40,)
            assert np.any(nus == 0.0) and np.any(nus > 0.0)
            for y, x, nu in zip(ys, xs, nus):
                x1, nu1 = ra.w2_align._prox_quadratic_kkt(
                    ra.QuadraticReward(B, b), lam, y, C)
                assert np.max(np.abs(x - x1)) <= 1e-12
                assert abs(nu - nu1) <= 1e-12
                resid = (B + (lam + nu) * np.eye(d)) @ x - (b / 2 + lam * y)
                assert np.linalg.norm(resid) <= 1e-9
                assert abs(nu * (np.linalg.norm(x) - C)) <= 1e-9

    @staticmethod
    def kkt_reference(B, b, lam, ys, C):
        """The exact prox by the full 100-halving bisection, from its own
        eigh of B."""
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            evals, evecs = np.linalg.eigh(B)
            rhs = b / 2.0 + lam * ys
            w = rhs @ evecs
            z = w / (evals + lam)
            over = np.flatnonzero(np.linalg.norm(z, axis=1) > C)
            wo, lo = w[over], np.zeros(len(over))
            hi = lam + np.linalg.norm(rhs[over], axis=1) / C
            for _ in range(100):
                mid = 0.5 * (lo + hi)
                outside = np.linalg.norm(wo / (evals + lam + mid[:, None]),
                                         axis=1) > C
                lo = np.where(outside, mid, lo)
                hi = np.where(outside, hi, mid)
            nu = np.zeros(len(w))
            nu[over] = 0.5 * (lo + hi)
            z[over] = wo / (evals + lam + nu[over, None])
            x = z @ evecs.T
            x[over] *= C / np.linalg.norm(x[over], axis=1)[:, None]
        return x, nu

    @pytest.mark.parametrize("d", [1, 3])
    def test_bisection_stops_on_the_same_bytes(self, d):
        # a bisection ended at its first halving that moves no bracket end
        # repeats it from there on: the bytes of all 100 halvings
        rng = np.random.default_rng(57 + d)
        M = rng.standard_normal((d, d))
        B, b = M @ M.T / d, rng.standard_normal(d)
        ys = rng.standard_normal((60, d)) * np.repeat([0.05, 4.0], 30)[:, None]
        x, nu = ra.w2_align._prox_quadratic_kkt(ra.QuadraticReward(B, b),
                                                0.7, ys, 1.0)
        want_x, want_nu = self.kkt_reference(B, b, 0.7, ys, 1.0)
        assert np.count_nonzero(nu) >= 20
        assert x.tobytes() == want_x.tobytes()
        assert nu.tobytes() == want_nu.tobytes()

    def test_one_eigendecomposition_per_reward(self, monkeypatch):
        # prox_map's concavity check and the prox read one cached eigh(B);
        # the quad bytes are those of the full bisection
        rng = np.random.default_rng(59)
        M = rng.standard_normal((3, 3))
        B, b = M @ M.T / 3, 4.0 * rng.standard_normal(3)
        base = random_discrete(rng, 8, 3, C=1.0)
        reward = ra.QuadraticReward(B, b)
        calls = []
        for name in ("eigh", "eigvalsh"):
            orig = getattr(np.linalg, name)
            monkeypatch.setattr(np.linalg, name, lambda *a, _f=orig, **k: (
                calls.append(_f.__name__), _f(*a, **k))[1])
        res = ra.sample_w2_aligned(base, reward, 0.5, 200, 3, backend="quad")
        assert calls == ["eigh"]
        want, _ = self.kkt_reference(B, b, 0.5, res.ys, 1.0)
        assert res.xs.tobytes() == want.tobytes()
        assert np.any(np.abs(np.linalg.norm(res.xs, axis=1) - 1.0) < 1e-12)

    @pytest.mark.parametrize("lam, C, y", [
        (1.0, -1.0, [0.0]), (1.0, np.nan, [0.0]), (1.0, np.inf, [0.0]),
        (np.nan, 1.0, [0.0]), (0.0, 1.0, [0.0]), (1.0, 1.0, [0.0, 1.0])])
    def test_bad_inputs_rejected(self, lam, C, y):
        r = fig1_reward()
        y = np.array(y)
        with pytest.raises(ra.ValidationError):
            ra.prox_quadratic(r, lam, y, C)
        with pytest.raises(ra.ValidationError):
            ra.prox_concave(r, lam, y, C)
        decomp = LowRankDecomp.from_matrix([[1.0]])
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        with pytest.raises(ra.ValidationError):
            ra.alg2_prox(decomp, f.value, lam, y, C, h=0.1)


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
            closed = ra.prox_quadratic(r, lam, y, C)
            pga = ra.prox_concave(r, lam, y, C)
            assert np.linalg.norm(closed - pga) <= 1e-6

    def test_step_of_a_curvature_near_the_float_max(self):
        # lam_max = 1.7e308: 1 / (2 lam_max + 2 lam) would be 1 / inf, a zero
        # step at which no row can stop; 0.5 / (lam_max + lam) is 2.9e-309,
        # and r(x) ~ 1.7e308 x pushes x to the sphere +C
        r = ra.QuadraticReward([[1.7e308]], [1.7e308])
        assert ra.prox_concave(r, 0.5, np.zeros(1), 1e-300) == [1e-300]

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
        closed = ra.prox_quadratic(q, lam, ys, C)
        assert np.max(np.linalg.norm(xs - closed, axis=1)) <= 1e-5

    @pytest.mark.parametrize("kappa, cap", [(10, 90), (100, 380),
                                            (866, 900)])
    def test_gradient_rows_at_a_condition_number(self, kappa, cap):
        # 3-D concave quadratics with lam_min(B) = 0 and kappa = (lam_max(B)
        # + lam) / lam, behind plain oracles, so the step starts kappa
        # times too long.  Plain projected ascent asked 109, 742 and 5,868
        # gradient rows per point here, the accelerated ascent 50, 113 and
        # 261
        lam, C = 0.5, 1.0
        rng = np.random.default_rng(34)
        Q = np.linalg.qr(rng.standard_normal((3, 3)))[0]
        top = lam * (kappa - 1.0)
        B = Q @ np.diag([0.0, top / 2.0, top]) @ Q.T
        q = ra.QuadraticReward(0.5 * (B + B.T), rng.standard_normal(3))
        r = OpaqueConcave(q)
        rows = []

        def grad(x):
            rows.append(len(x))
            return q.grad(x)

        r.grad = grad
        ys = rng.standard_normal((200, 3)) * np.repeat([0.3, 2.0],
                                                       100)[:, None]
        xs = ra.prox_concave(r, lam, ys, C)
        closed = ra.prox_quadratic(q, lam, ys, C)
        assert np.max(np.linalg.norm(xs - closed, axis=1)) <= 1e-6
        assert sum(rows) / len(ys) <= cap

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

    def test_stops_at_the_float64_resolution(self):
        # at |x| ~ 1.7e153 float64 resolves no move below about 2e137, far
        # above PGA_TOL * step; the row stops at a move of 16 ulps of |x|
        r = ra.QuadraticReward([[1.0]], [1.0])
        y = np.array([5e153])
        x = ra.prox_concave(r, 0.5, y, 1e154)
        assert np.array_equal(x, ra.prox_quadratic(r, 0.5, y, 1e154))

    def test_downhill_gradient_stalls(self):
        # a concave-flagged oracle whose gradient points downhill: every
        # step lowers the objective by far more than the 1e-12 slack, so
        # the step halves until the row has stalled 201 times
        class Downhill:
            concave, d = True, 1

            def value(self, x):
                return 1e100 * x[:, 0]

            def grad(self, x):
                return np.full_like(x, -1e100)

        with pytest.raises(ra.NumericalError, match="prox_concave stalled"):
            ra.prox_concave(Downhill(), 0.5, np.zeros((1, 1)), 1.0)


class TestAlg2Params:
    def test_tiny_radius_is_finite(self):
        # (eps / (12 lam C))^2 passes the float max: inf inside the min
        p = Alg2Params.from_problem(L=1.0, S=1.0, lam=0.5, C=1e-300,
                                    eps=0.1, r_A=1)
        assert p.h == 0.1 / (6.0 * (1.0 + 2e-300))
        assert np.isfinite(p.eps_P)
        assert set(vars(p)) == {"h", "eps_P", "r_A"}

    @pytest.mark.parametrize("L, C", [(1.0, 1.7e308), (np.inf, 1.0)])
    def test_non_finite_field_refused(self, L, C):
        # h underflows to 0 (at C = 1.7e308, or L = inf): a finite schedule
        # whose net build_net alone refuses, when alg2_prox builds one
        assert Alg2Params.from_problem(L, 1.0, 0.5, C, 0.1, 1).h == 0.0
        decomp = LowRankDecomp.from_matrix([[1.0]])
        with pytest.raises(ra.ValidationError, match="h > 0"):
            ra.alg2_prox(decomp, np.abs, 0.5, np.zeros((1, 1)), C, 0.0)
        # eps / (24 lam C) with lam C = 1e-600 is inf, refused here
        with pytest.raises(ra.ValidationError, match="low-rank schedule"):
            Alg2Params.from_problem(L, 1.0, 1e-300, 1e-300, 0.1, 1)

    def test_infinite_lipschitz_on_a_zero_matrix_refused(self):
        # L S = inf * 0 is NaN: refused as a schedule, with no warning
        f = ra.make_max_affine([([1.7e308, 1.7e308], 0.0), ([-1.0, 0.0], 0.5)])
        reward = ra.LowRankReward(np.zeros((2, 1)), f)
        base = ra.DiscreteModel([[0.0], [0.5]], [0.5, 0.5], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ra.ValidationError, match="low-rank schedule"):
                ra.sample_w2_aligned(base, reward, 0.5, 3, 1,
                                     backend="lowrank")


class TestAlg2Prox:
    def test_worked_2d_example(self):
        A = np.array([[1.0, 0.0]])
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        decomp = LowRankDecomp.from_matrix(A)
        y = np.array([0.0, 0.5])
        x = ra.alg2_prox(decomp, f.value, lam=1.0, y=y, C=1.0,
                         h=schedule_h(decomp, 1.0, 1.0, 1.0, 0.1))
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
        x = ra.alg2_prox(decomp, f.value, lam=0.5, y=y, C=1.0,
                         h=schedule_h(decomp, 0.1, 0.5, 1.0, 0.1))
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
            x = ra.alg2_prox(decomp, reward.f.value, lam, y, C,
                             schedule_h(decomp, L, lam, C, eps))
            assert np.linalg.norm(x - y) <= L * S / (2 * lam) + 2 * h + 1e-6

    def test_batch_equals_per_point_calls(self):
        rng = np.random.default_rng(31)
        for r_A, d in ((1, 3), (2, 4), (2, 2)):
            A = rng.standard_normal((r_A, d))
            f = ra.make_max_affine([(rng.standard_normal(r_A), 0.1),
                                    (rng.standard_normal(r_A), -0.2)])
            decomp = LowRankDecomp.from_matrix(A)
            ys = random_unit_ball(rng, 25, d) * 1.2
            h = schedule_h(decomp, f.lipschitz, 0.1, 1.0, 0.3)
            xs = ra.alg2_prox(decomp, f.value, 0.1, ys, 1.0, h)
            rows = np.array([ra.alg2_prox(decomp, f.value, 0.1, y, 1.0, h)
                             for y in ys])
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
                xs = ra.alg2_prox(decomp, f.value, lam, ys, 1.0, 0.02)
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
        xs = ra.alg2_prox(decomp, f.value, 0.5, ys, 1.0, 0.05)
        rows = np.array([ra.alg2_prox(decomp, f.value, 0.5, y, 1.0, 0.05)
                         for y in ys])
        assert np.array_equal(xs, rows)
        lifts = sorted(tuple(decomp.V1 @ u + np.array([0.0, 0.3]))
                       for u in net[10:12])
        assert np.array_equal(xs[1], lifts[0])

    def test_decomposition_invariants(self):
        # the row space alone: U Sigma V1' = A with V1 orthonormal, and the
        # three readers of y's residual y - V1 V1' y agree with the formulas
        # in an orthonormal completion V0 of a full SVD, for rank-deficient
        # A, r_A = d, and base points inside and outside the ball
        rng = np.random.default_rng(3)
        shapes = [(1, 1), (2, 2), (3, 3), (3, 2), (1, 8), (2, 5), (3, 8)]
        cases = [rng.standard_normal(s) for s in shapes]
        cases += [np.outer(rng.standard_normal(3), rng.standard_normal(5)),
                  np.outer(rng.standard_normal(2), rng.standard_normal(2))]
        low = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 3))
        cases.append(low)  # rank 2 of 3
        for A in cases:
            k, d = A.shape
            de = LowRankDecomp.from_matrix(A)
            assert de.r_A == np.linalg.matrix_rank(A)
            assert [fd.name for fd in dataclasses.fields(de)] == [
                "U", "Sigma", "V1"]
            assert (np.linalg.norm(de.U @ np.diag(de.Sigma) @ de.V1.T - A)
                    <= 1e-12 * max(1.0, de.S))
            assert np.allclose(de.V1.T @ de.V1, np.eye(de.r_A), atol=1e-12)
            V0 = np.linalg.svd(A, full_matrices=True)[2][de.r_A:].T
            f = ra.make_max_affine([(rng.standard_normal(k),
                                     float(rng.uniform(-0.2, 0.2)))
                                    for _ in range(3)])
            lam, C = float(rng.uniform(0.1, 1.0)), 1.0
            net = ra.build_net(de.r_A, C, 0.1).points
            rho = np.sqrt(np.maximum(C**2 - np.sum(net**2, axis=1), 0.0))
            ys = random_unit_ball(rng, 6, d) * rng.uniform(0.2, 2.0, (6, 1))
            xs = ra.alg2_prox(de, f.value, lam, ys, C, 0.1)
            for y, x in zip(ys, xs):
                u_y, w_y = de.V1.T @ y, V0.T @ y
                w_norm = np.linalg.norm(w_y)
                phi = (f.value(net * de.Sigma @ de.U.T)
                       - lam * (np.sum((net - u_y) ** 2, axis=1)
                                + np.maximum(w_norm - rho, 0.0) ** 2))
                assert np.allclose(reduced_objective(de, f.value, lam, y, C,
                                                     net), phi,
                                   rtol=0, atol=1e-12)
                scale = np.minimum(1.0, rho / max(w_norm, 1e-300))
                lifts = net @ de.V1.T + (scale[:, None] * w_y) @ V0.T
                assert np.allclose(lift_reduced_point(de, y, net, C), lifts,
                                   rtol=0, atol=1e-12)
                i = np.argmin(np.linalg.norm(lifts - x, axis=1))
                assert np.linalg.norm(lifts[i] - x) <= 1e-12
                assert phi[i] >= phi.max() - ra.w2_align.PROX_TIE_TOL - 1e-12

    def test_rank_deficient_matrix(self):
        A = np.array([[1.0, 0.0], [2.0, 0.0]])  # rank 1, k=2, d=2
        de = LowRankDecomp.from_matrix(A)
        assert de.r_A == 1

    def test_zero_matrix_has_rank_zero(self):
        de = LowRankDecomp.from_matrix(np.zeros((2, 3)))
        assert (de.r_A, de.S, de.U.shape, de.V1.shape) == (0, 0.0, (2, 0),
                                                            (3, 0))
        for A in ([[]], np.zeros((0, 3))):
            with pytest.raises(ra.ValidationError, match="a row and a column"):
                LowRankDecomp.from_matrix(A)

    def test_memory_grows_with_d_times_rank(self):
        # at d = 4000 a d x d factor alone is 128 MB: the decomposition and
        # both low-rank proxes keep to O(d k) arrays plus the net
        rng = np.random.default_rng(6)
        d = 4000
        A = rng.standard_normal((2, d)) / np.sqrt(d)
        base = random_discrete(rng, 8, d)
        slopes, offsets = [[1.0, 0.0], [-1.0, 0.5]], [0.0, 0.1]
        calls = [(lambda: LowRankDecomp.from_matrix(A), 2)]
        for reward in (ra.LowRankReward(A, ra.make_max_affine(
                           list(zip(slopes, offsets)))),
                       ra.LogSumExpReward([1.0, 1.0], slopes, A)):
            calls.append((lambda r=reward: ra.sample_w2_aligned(
                base, r, 0.5, 5, 1, backend="lowrank", eps=0.5), 16))
        for call, cap_mb in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < cap_mb * 2**20, peak


def random_lowrank_maxaffine(rng, r_A, d, m):
    A = rng.standard_normal((r_A, d))
    f = ra.make_max_affine([(rng.standard_normal(r_A),
                             float(rng.uniform(-0.5, 0.5))) for _ in range(m)])
    return ra.LowRankReward(A, f)


def prox_objective(reward, lam, y, x):
    return (float(np.asarray(reward.value(x)))
            - lam * float(np.sum((x - y) ** 2)))


class TestProxMaxAffine:
    def test_not_below_alg2_or_grid_oracle(self):
        # base points inside and outside the ball, d <= 4
        rng = np.random.default_rng(52)
        for _ in range(12):
            r_A = int(rng.integers(1, 3))
            d = int(rng.integers(r_A, 5))
            reward = random_lowrank_maxaffine(rng, r_A, d,
                                              int(rng.integers(1, 6)))
            f, lam = reward.f, float(rng.uniform(0.05, 0.3))
            ys = random_unit_ball(rng, 6, d) * rng.uniform(0.2, 2.0, (6, 1))
            exact = ra.prox_max_affine(reward, lam, ys, 1.0)
            decomp = LowRankDecomp.from_matrix(reward.A)
            alg2 = ra.alg2_prox(decomp, f.value, lam, ys, 1.0,
                                schedule_h(decomp, f.lipschitz, lam, 1.0, 0.5))
            grid = oracle_prox_grid(reward, lam, ys, 1.0, resolution=0.02)
            for y, x, xa, xg in zip(ys, exact, alg2, grid):
                assert np.linalg.norm(x) <= 1.0 + 1e-12
                best = max(prox_objective(reward, lam, y, xa),
                           prox_objective(reward, lam, y, xg))
                assert prox_objective(reward, lam, y, x) >= best - 1e-12

    def test_tie_takes_the_lowest_index(self):
        # slopes +-1 tie exactly at y = (0, 0.5); offsets 5e-13 apart are
        # still a tie, 1e-9 apart are not
        A, y = np.array([[1.0, 0.0]]), np.array([0.0, 0.5])
        right = ra.project_ball(y + [1.0, 0.0], 1.0)
        left = ra.project_ball(y + [-1.0, 0.0], 1.0)
        for slopes, c1, want in (((1.0, -1.0), 0.0, right),
                                 ((-1.0, 1.0), 0.0, left),
                                 ((1.0, -1.0), 5e-13, right),
                                 ((1.0, -1.0), 1e-9, left)):
            f = ra.make_max_affine([([slopes[0]], 0.0), ([slopes[1]], c1)])
            x = ra.prox_max_affine(ra.LowRankReward(A, f), 0.5, y, 1.0)
            assert np.array_equal(x, want)

    def test_point_equals_batch_row(self):
        rng = np.random.default_rng(53)
        for r_A, d in ((1, 1), (1, 3), (2, 2), (2, 4)):
            reward = random_lowrank_maxaffine(rng, r_A, d, 5)
            ys = random_unit_ball(rng, 30, d) * rng.uniform(0.2, 2.0, (30, 1))
            xs = ra.prox_max_affine(reward, 0.3, ys, 1.0)
            rows = np.array([ra.prox_max_affine(reward, 0.3, y, 1.0)
                             for y in ys])
            assert np.array_equal(xs, rows)

    @pytest.mark.parametrize("slope, lam", [(-1.7e308, 0.25), (-1e9, 1e-300)],
                             ids=["steep-piece", "tiny-lambda"])
    def test_piece_past_the_float_max_lands_on_the_sphere(self, slope, lam):
        # y + a_0 / (2 lam) overflows; its maximizer is still -1, with
        # objective |slope| - lam (1 + y)^2, far above the other piece's
        reward = ra.LowRankReward([[1.0]], ra.make_max_affine(
            [([slope], 0.0), ([1.0], 0.0)]))
        ys = np.array([[0.0], [0.5], [-0.3]])
        with np.errstate(all="raise"):
            xs = ra.prox_max_affine(reward, lam, ys, 1.0)
        assert np.array_equal(xs, -np.ones((3, 1)))
        # in d = 2 the point is C a_0 / ||a_0||, y's share below rounding
        reward = ra.LowRankReward([[1.0, 1.0]], reward.f)
        xs = ra.prox_max_affine(reward, lam, [[0.3, -0.4], [0.0, 0.0]], 1.0)
        assert np.allclose(xs, -np.sqrt(0.5), rtol=0, atol=1e-15)

    def test_nan_objective_leaves_the_row_nan(self):
        # a_0 = A' s_0 overflows to inf, so piece 0's objective is NaN: the
        # row is NaN for the output gates, not another piece's point
        reward = ra.LowRankReward([[1.7e308]], ra.make_max_affine(
            [([10.0], 0.0), ([-1.0], 0.0)]))
        xs = ra.prox_max_affine(reward, 0.5, np.array([[0.0], [0.5]]), 1.0)
        assert np.isnan(xs).all()

    def test_reads_the_pieces_alone(self):
        def oracle(u):
            raise AssertionError("an oracle was called")

        reward = random_lowrank_maxaffine(np.random.default_rng(54), 2, 3, 4)
        blind = ra.LowRankReward(reward.A, dataclasses.replace(
            reward.f, value=oracle, grad=oracle))
        ys = random_unit_ball(np.random.default_rng(55), 8, 3)
        assert np.array_equal(ra.prox_max_affine(blind, 0.2, ys, 1.0),
                              ra.prox_max_affine(reward, 0.2, ys, 1.0))

    @pytest.mark.parametrize("kind", ["logsumexp", "black box"])
    def test_refuses_other_rewards(self, kind):
        reward = ra.LogSumExpReward([1.0, 0.5], [[1.0], [-0.8]], [[1.0, 0.0]])
        if kind == "black box":
            reward = ra.LowRankReward(reward.A, dataclasses.replace(
                ra.make_max_affine([([1.0], 0.0)]), pieces=None,
                reduction=None))
        with pytest.raises(ra.ValidationError, match="max-affine"):
            ra.prox_max_affine(reward, 0.5, np.zeros(2), 1.0)

    def test_lowrank_dispatch(self, monkeypatch):
        # a max-affine f takes the exact prox; a log-sum-exp f and a black
        # box take the net search.  The base draw and the schedule do not
        # depend on which prox runs
        searched = []
        search = ra.w2_align.alg2_prox

        def spy(*args, **kwargs):
            searched.append(1)
            return search(*args, **kwargs)

        monkeypatch.setattr(ra.w2_align, "alg2_prox", spy)
        base = random_discrete(np.random.default_rng(56), 6, 2)
        A = np.array([[0.8, 0.0]])
        f = ra.make_max_affine([([1.0], 0.0), ([-1.0], 0.2)])
        black = dataclasses.replace(f, pieces=None, reduction=None)
        runs = {}
        for name, reward in (
                ("max_affine", ra.LowRankReward(A, f)),
                ("alg2", ra.LogSumExpReward([1.0, 0.5], [[1.0], [-0.8]], A)),
                ("black box", ra.LowRankReward(A, black))):
            searched.clear()
            runs[name] = ra.sample_w2_aligned(base, reward, lam=0.3, n=12,
                                              seed=3, backend="lowrank",
                                              eps=0.3)
            prox = "max_affine" if name == "max_affine" else "alg2"
            assert runs[name].batch.producer == f"w2_align/lowrank/{prox}"
            assert len(searched) == (prox == "alg2")
        exact, black = runs["max_affine"], runs["black box"]
        assert np.array_equal(exact.ys, black.ys)
        assert exact.params == black.params
        reward = ra.LowRankReward(A, f)
        for y, x, xb in zip(exact.ys, exact.xs, black.xs):
            assert (prox_objective(reward, 0.3, y, x)
                    >= prox_objective(reward, 0.3, y, xb) - 1e-12)


    def test_high_rank_runs_without_a_net(self):
        # rank 150 at L S = 1, C = 1, lam = 0.5, eps = 0.1: an Alg 2 net
        # would hold (1 + 2C/h)^150 points, past the float max, yet the
        # exact prox builds none, so the call runs
        rng = np.random.default_rng(57)
        base = random_discrete(rng, 20, 300)
        reward = ra.LowRankReward(random_orthogonal_rows(rng, 150, 300),
                                  random_maxaffine(rng, 150, 4, 1.0, 1.0))
        res = ra.sample_w2_aligned(base, reward, lam=0.5, n=40, seed=58,
                                   backend="lowrank", eps=0.1)
        assert res.batch.producer == "w2_align/lowrank/max_affine"
        assert res.params.r_A == 150
        assert np.array_equal(res.xs,
                              ra.prox_max_affine(reward, 0.5, res.ys, 1.0))

    @pytest.mark.parametrize("kind", ["max_affine", "alg2"])
    def test_zero_matrix_is_the_ball_projection(self, kind):
        # A = 0: r is constant, so both proxes are the ball projection of y
        # and the pushforward moves no base point (the base lies in B(C))
        A = np.zeros((1, 3))
        reward = (ra.LowRankReward(A, ra.make_max_affine([([1.0], 0.2)]))
                  if kind == "max_affine"
                  else ra.LogSumExpReward([1.0, 0.5], [[1.0], [-0.8]], A))
        base = random_discrete(np.random.default_rng(61), 6, 3)
        res = ra.sample_w2_aligned(base, reward, lam=0.5, n=30, seed=62,
                                   backend="lowrank", eps=0.2)
        assert res.batch.producer == f"w2_align/lowrank/{kind}"
        assert res.params.r_A == 0
        assert np.array_equal(res.xs, res.ys)
        assert np.array_equal(res.xs, ra.project_ball(res.ys, 1.0))
        ys = np.random.default_rng(63).standard_normal((20, 3)) * 2.0
        if kind == "max_affine":
            xs = ra.prox_max_affine(reward, 0.5, ys, 1.0)
        else:
            decomp = LowRankDecomp.from_matrix(A)
            xs = ra.alg2_prox(decomp, reward.f.value, 0.5, ys, 1.0,
                              schedule_h(decomp, reward.f.lipschitz, 0.5, 1.0,
                                         0.2))
        assert np.allclose(xs, ra.project_ball(ys, 1.0), rtol=1e-15, atol=0)


class TestPushforward:
    def test_fig1_per_sample_identity(self):
        base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                       [[[0.49]], [[0.49]]], 8.0)
        res = ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=2000,
                                   seed=4, backend="quad")
        assert np.max(np.abs(res.xs - (1 + res.ys / 2))) <= 1e-12

    def test_blocked_prox_holds_the_coupling_plus_blocks(self):
        # a 2e5-row quad call pushes ROW_BLOCK rows at a time: its points
        # are the prox of the whole batch, bit for bit, and it holds ys, xs
        # and one value per row, and besides them a fixed number of
        # ROW_BLOCK-row temporaries (about 3 blocks of d floats measured)
        base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                       [[[0.49]], [[0.49]]], 8.0)
        n, d = 200_000, 1
        ra.sample_w2_aligned(base, fig1_reward(), 0.15, 10, 1)  # caches
        tracemalloc.start()
        try:
            res = ra.sample_w2_aligned(base, fig1_reward(), 0.15, n, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * (2 * d + 1) + 10 * 8 * ROW_BLOCK * d, peak
        assert np.array_equal(res.xs, prox_quadratic_batch(
            fig1_reward(), 0.15, res.ys, 8.0))
        vals = (np.asarray(fig1_reward().value(res.xs))
                - 0.15 * np.sum((res.xs - res.ys) ** 2, axis=1))
        assert (res.objective, res.objective_stderr) == pytest.approx(
            (np.mean(vals), np.std(vals, ddof=1) / np.sqrt(n)), rel=1e-12)

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
        ("quad", fig1_reward(), 0),
        # a non-concave quadratic, and rewards on d = 2 over a 1-D base
        ("quad", ra.QuadraticReward([[-0.5]], [0.0]), 10),
        ("quad", ra.QuadraticReward(np.eye(2), np.zeros(2)), 10),
        ("pga", ra.LinearReward([0.4, -0.3]), 10),
        ("lowrank", ra.LowRankReward([[0.6, 0.8]], ra.make_max_affine(
            [([1.0], 0.0), ([-1.0], 0.0)])), 10)])
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
        closed = ra.prox_quadratic(ra.QuadraticReward(np.zeros((2, 2)),
                                                      r.theta),
                                   0.5, res.ys, base.support_radius)
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

    def test_unknown_base_backend_refused_before_the_draw(self):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        base = ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 8.0)
        with pytest.raises(ra.ValidationError, match="bogus"):
            ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=5, seed=rng,
                                 backend="quad", base_backend="bogus")
        assert rng.bit_generator.state == state

    def test_exact_base_does_not_read_steps(self):
        # a step count does not switch an exact base draw to diffusion
        base = ra.GaussianMixtureModel([1.0], [[0.0]], [[[1.0]]], 8.0)
        ys = [ra.sample_w2_aligned(base, fig1_reward(), lam=0.15, n=50,
                                   seed=9, backend="quad", **kw).ys
              for kw in ({}, {"steps": 7})]
        assert ys[0].tobytes() == ys[1].tobytes()

    @pytest.mark.parametrize("base_backend", ["exact", "diffusion"])
    def test_underflowed_base_target_refused(self, base_backend):
        # at lam C past the float max the schedule's eps_P is 0
        base = ra.DiscreteModel([[0.0]], [1.0], 1.7e308)
        reward = ra.LowRankReward([[1.0]], ra.make_max_affine(
            [([1.0], 0.0), ([-1.0], 0.0)]))
        with pytest.raises(ra.ValidationError, match="W2 target"):
            ra.sample_w2_aligned(base, reward, lam=0.15, n=5, seed=0,
                                 backend="lowrank", base_backend=base_backend)


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
        dens = sum(w * multivariate_normal(mu, cov).pdf(ys)
                   for w, mu, cov in zip(base.weights, base.means, base.covs))
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
            x = ra.prox_quadratic(r, lam, np.array([y]), C)
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
