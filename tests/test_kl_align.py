import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy.spatial import cKDTree

import rewardalign as ra
from rewardalign.cli import fig1_base, main
from rewardalign.kl_align import (Net, _collapse_net_pieces, _serve,
                                  gap_bound, own_envelope)
from rewardalign.metrics import (QuadratureTilt1D, empirical_to_discrete,
                                 mix_discrete, oracle_kl_tilt, tv_discrete,
                                 w2_1d_samples_vs_quantiles)
from rewardalign.models import ROW_BLOCK, recommended_steps
from rewardalign.rewards import make_logsumexp_function
from rewardalign.validate import (random_discrete, random_maxaffine,
                                  random_orthogonal_rows, random_unit_ball,
                                  run_envelope_suite)


def abs_function(R=1.0):
    f = ra.make_max_affine([(np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)])
    f.radius = R
    return f


def unique_net_reference(k, R, h):
    """The net as one ``np.unique`` over all rounded rows: the in-ball
    lattice points and the radial projections of the near-outside ones."""
    s = 2.0 * h / np.sqrt(k)
    n_side = int(np.floor((R + s / 2.0) / s))
    ticks = s * np.arange(-n_side, n_side + 1)
    grids = np.meshgrid(*([ticks] * k), indexing="ij")
    lattice = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.linalg.norm(lattice, axis=1)
    inside = lattice[norms <= R]
    near = (norms > R) & (norms - R <= h)
    projected = lattice[near] * (R / norms[near])[:, None]
    return np.unique(np.round(np.vstack([inside, projected]), 12), axis=0)


class TestBuildNet:
    # k = 1 projects onto +-R; R a multiple of the spacing 2h/sqrt(k) puts
    # lattice points on the sphere; (1, 1.0, 1e-5) and (2, 0.8, 0.0031)
    # have about 1e5 points each
    @pytest.mark.parametrize("k, R, h", [
        (1, 1.0, 0.3), (1, 1.0, 0.05), (1, 0.7, 0.013), (1, 1.0, 1e-5),
        (2, 1.0, 0.5), (2, 1.0, 0.05 * np.sqrt(2)), (2, 0.9, 0.03),
        (2, 0.8, 0.0031), (3, 1.0, 0.1 * np.sqrt(3) / 2), (3, 1.0, 0.05),
        (3, 0.6, 0.04)])
    def test_points_equal_unique_reference(self, k, R, h):
        net = ra.build_net(k, R, h)
        assert np.array_equal(net.points, unique_net_reference(k, R, h))
        probe = random_unit_ball(np.random.default_rng(k), 2000, k) * R
        dist, _ = cKDTree(net.points).query(probe)
        assert dist.max() <= h + 1e-12

    def test_1d_covering_dense_sweep(self):
        net = ra.build_net(1, 1.0, 0.5)
        sweep = np.linspace(-1, 1, 10001)[:, None]
        dists = np.min(np.abs(sweep - net.points[:, 0]), axis=1)
        assert dists.max() <= 0.5 + 1e-12
        assert np.all(np.abs(net.points) <= 1.0 + 1e-12)

    def test_degenerate_radius(self):
        net = ra.build_net(3, 0.0, 0.1)
        assert net.m == 1
        assert np.all(net.points == 0.0)

    def test_infinite_spacing_is_the_origin(self):
        # h = 1/(2L) at L = 0: every ball point is within inf of the origin
        net = ra.build_net(2, 5.0, np.inf)
        assert np.array_equal(net.points, np.zeros((1, 2)))

    def test_rank_zero_is_the_origin(self):
        # k = 0 (A = 0): the ball of R^0 is one point, whatever R and h
        assert ra.build_net(0, 1.0, 1e-300).points.shape == (1, 0)
        with pytest.raises(ra.ValidationError, match="k >= 0"):
            ra.build_net(-1, 1.0, 0.1)

    def test_2d_covering_random_points(self):
        net = ra.build_net(2, 1.0, 0.5)
        rng = np.random.default_rng(0)
        pts = random_unit_ball(rng, 10**4, 2)
        d2 = np.min(np.sum((pts[:, None, :] - net.points[None]) ** 2, axis=2),
                    axis=1)
        assert np.sqrt(d2.max()) <= 0.5 + 1e-12

    def test_boundary_projections_included(self):
        net = ra.build_net(1, 1.0, 0.3)
        assert np.any(np.isclose(np.abs(net.points[:, 0]), 1.0))

    def test_cardinality_cap(self):
        # the message names the net's own inputs, whichever caller set them
        with pytest.raises(ra.BudgetError, match="k = 3, R = 10, h = 0.001"):
            ra.build_net(3, 10.0, 0.001)

    def test_refuses_before_it_allocates(self):
        # the count comes from n_side alone: 2e12 lattice points are refused
        # without their ticks, and a count past the float max is a budget
        # refusal too (RuntimeWarning is an error under pytest)
        tracemalloc.start()
        try:
            with pytest.raises(ra.BudgetError):
                ra.build_net(2, 1e4, 1e-2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20, peak
        with pytest.raises(ra.BudgetError, match="inf lattice points"):
            ra.build_net(1, 1e300, 1e-300)

    def test_cardinality_stays_reasonable(self):
        # grid spacing 2h/sqrt(k) keeps m below (1 + 2R/h)^k for k <= 4
        for k in (1, 2, 3):
            for LR in (0.5, 1.0, 2.0):
                L, R = LR, 1.0
                net = ra.build_net(k, R, 1.0 / (2 * L))
                assert net.m <= (1 + 4 * L * R) ** k * 2.2


class TestBuildEnvelope:
    def test_worked_abs_example(self):
        net = Net(points=np.array([[-1.0], [-0.5], [0.0], [0.5], [1.0]]))
        env = ra.build_envelope(abs_function(), net)
        u = np.array([0.25])
        # the kink at 0 takes the first piece's slope +1: 2 pieces -u, 3 u
        expected = 1 + np.log(2 * np.exp(-0.25) + 3 * np.exp(0.25))
        assert env.value(u) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(2.6882, abs=5e-5)
        assert 0.25 <= env.value(u) <= 0.25 + 1 + np.log(5) + 1e-12

    def test_affine_gap_is_exact(self):
        s, c = np.array([0.4, -0.2]), 0.3
        f = ra.make_max_affine([(s, c)])
        f.radius = 1.0
        net = ra.build_net(2, 1.0, 0.5)
        env = ra.build_envelope(f, net)
        rng = np.random.default_rng(1)
        us = random_unit_ball(rng, 100, 2)
        fv = np.asarray(f.value(us))
        assert np.allclose(env.value(us), fv + 1 + np.log(env.m), atol=1e-10)

    def test_sandwich_random_instances(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            k = int(rng.integers(1, 4))
            L = float(rng.uniform(0.5, 1.5))
            R = float(rng.uniform(0.5, 1.5))
            f = random_maxaffine(rng, k, int(rng.integers(1, 6)), L, R)
            env = ra.build_envelope(f, ra.build_net(k, R, 1 / (2 * L)))
            us = random_unit_ball(rng, 1000, k, radius=R)
            fv = np.asarray(f.value(us))
            gv = env.value(us)
            assert np.all(fv <= gv + 1e-9)
            assert np.all(gv <= fv + gap_bound(env.m) + 1e-9)

    def test_slope_bound_enforced(self):
        f = abs_function()
        f.lipschitz = 0.5  # lie about L
        net = Net(points=np.array([[0.8]]))
        with pytest.raises(ra.ValidationError):
            ra.build_envelope(f, net)

    def test_one_oracle_call_per_net(self, monkeypatch):
        f = ra.LogSumExpReward([1.0, 0.5, 2.0], [[1.0, 0.2], [-0.5, 0.7],
                                                 [0.1, -1.0]], np.eye(2)).f
        f.radius = 1.0
        net = ra.build_net(2, 1.0, 0.0125)
        assert net.m > 10**4
        calls = {"first_order": 0, "grad": 0}

        def counted(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        monkeypatch.setattr(ra.kl_align, "first_order",
                            counted("first_order", ra.kl_align.first_order))
        f.grad = counted("grad", f.grad)
        env = ra.build_envelope(f, net)
        assert calls == {"first_order": 1, "grad": 1}
        assert env.m == net.m

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("m", [1, 2, 37, 300, 10_000])
    def test_value_in_blocks_matches_logsumexp(self, m, k):
        # m <= 128 runs piece-major blocks, larger m row-major ones; the
        # rows fill two blocks and spill one row into a third
        from rewardalign.rewards import BLOCK_MIN_ROWS, BLOCK_SCORES
        step = max(BLOCK_MIN_ROWS, BLOCK_SCORES // m)
        rng = np.random.default_rng(11)
        env = ra.Envelope.from_pieces(rng.standard_normal((m, k)),
                                      rng.standard_normal(m))
        us = rng.standard_normal((2 * step + 1, k)) * 3.0
        scores = us @ env.slopes.T + env.offsets
        top = scores.max(axis=1)
        direct = top + np.log(np.exp(scores - top[:, None]).sum(axis=1))
        vals = env.value(us)
        # at k = 1 the scores are exact products, so the values match the
        # row formula bit for bit, except where the piece-major block adds
        # its 8 or more terms in order and numpy's row sum goes pairwise
        if k == 1 and (m < 8 or step < m):
            assert np.array_equal(vals, direct)
        else:
            assert np.allclose(vals, direct, rtol=0, atol=1e-12)
        for j in (0, step - 1, step, 2 * step):
            assert env.value(us[j]) == pytest.approx(vals[j], rel=0,
                                                     abs=1e-12)


class TestComputeParams:
    def test_worked_example_m5(self):
        p = ra.compute_params(C=1.0, m=5, eps=0.1)
        assert p.a0 == pytest.approx(np.exp(-1.0) / 5, rel=1e-12)
        assert p.N_rej == 201

    def test_worked_example_m1(self):
        p = ra.compute_params(C=1.0, m=1, eps=1 - 1e-12)
        assert p.N_rej == 16

    def test_schedule_formulas(self):
        C, m, eps = 2.0, 7, 0.2
        p = ra.compute_params(C, m, eps)
        a0 = np.exp(-(1 + np.log(m)))
        # the four numbers the sampler reads are the whole schedule
        assert [f.name for f in dataclasses.fields(p)] == [
            "m", "B", "a0", "N_rej"]
        assert p.m == m
        assert p.B == pytest.approx(1 + np.log(m))
        assert p.a0 == pytest.approx(a0)
        assert p.N_rej == int(np.ceil(2 / a0 * np.log(16 * C**2 / eps**2)))
        assert type(p.N_rej) is int

    def test_eps_gate(self):
        with pytest.raises(ra.ValidationError):
            ra.compute_params(1.0, 5, eps=1.5)

    def test_support_radius_past_the_square_overflow(self):
        # C^2 overflows a Python float; N_rej takes log C, and is finite
        p = ra.compute_params(C=1e200, m=1, eps=0.1)
        assert p.N_rej == int(np.ceil(2 / p.a0 * 2 * np.log(4e200 / 0.1)))


class TestScheduleIsFinite:
    def test_tiny_radius(self):
        # log(4 C / eps) < 0, so N_rej <= 0 and every slot falls back
        p = ra.compute_params(C=1e-300, m=2, eps=0.1)
        assert p.N_rej <= 0
        assert np.all(np.isfinite(list(dataclasses.asdict(p).values())))

    def test_constant_reward_at_the_float_max(self):
        # a constant f on atoms at C = 1.7e308: one piece, a finite
        # schedule, and every slot accepted (f - G = 0 on every atom)
        base = ra.DiscreteModel([[0.0], [1.7e308]], [0.5, 0.5], 1.7e308)
        f = ra.make_max_affine([([0.0], 0.3)])
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.1,
                                   seed=0, n=20)
        assert res.params.m == 1 and res.params.a0 == np.exp(-1.0)
        assert res.params.N_rej == int(np.ceil(
            2 / np.exp(-1.0) * 2 * (np.log(40.0) + np.log(1.7e308))))
        assert res.fallback_count == 0

    @pytest.mark.parametrize("eps", [5e-324, 1e-308])
    def test_non_finite_field_refused(self, eps):
        # a subnormal eps puts 4 / eps, and so N_rej, past the float max:
        # refused by the schedule's finite gate, here and in the sampler
        with pytest.raises(ra.ValidationError, match="KL schedule"):
            ra.compute_params(C=1.0, m=1, eps=eps)
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        with pytest.raises(ra.ValidationError, match="KL schedule"):
            ra.sample_kl_aligned(base, np.eye(1), abs_function(), eps=eps,
                                 delta=0.1, seed=0, n=5)


class TestBuildProposal:
    def test_two_point_symmetric(self):
        base = ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], 1.0)
        env = ra.Envelope.from_pieces([[1.0], [-1.0]], [0.0, 0.0])
        prop = ra.build_proposal(base, env, np.eye(1), delta=0.1, seed=0)
        assert np.exp(prop.log_pi) == pytest.approx([0.5, 0.5], abs=1e-14)
        assert np.exp(prop.log_zhat) == pytest.approx([np.cosh(1.0)] * 2,
                                                      rel=1e-12)
        # the mixture law equals the base here (density ~ 2 cosh at +-1)
        assert tv_discrete(prop.law, base) < 1e-14

    def test_single_component(self):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        env = ra.Envelope.from_pieces([[1.0]], [0.0])
        prop = ra.build_proposal(base, env, np.eye(1), delta=0.1)
        assert np.exp(prop.log_pi) == pytest.approx([1.0])

    def test_exact_backend_weights_match_direct_normalization(self):
        rng = np.random.default_rng(3)
        base = random_discrete(rng, 6, 2)
        env = ra.Envelope.from_pieces(rng.standard_normal((4, 2)) * 0.5,
                                      rng.uniform(-1, 1, 4))
        prop = ra.build_proposal(base, env, np.eye(2), delta=0.1)
        from rewardalign.tilts import log_normalizer_exact
        logits = env.offsets + np.array(
            [log_normalizer_exact(base, v) for v in prop.tilt_vectors])
        expect = np.exp(logits - logits.max())
        expect /= expect.sum()
        assert np.exp(prop.log_pi) == pytest.approx(expect, abs=1e-12)

    def test_mixture_identity_random(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = int(rng.integers(1, 4))
            k = int(rng.integers(1, 3))
            base = random_discrete(rng, int(rng.integers(2, 16)), d)
            A = random_orthogonal_rows(rng, k, d, op_norm=1.0)
            L = float(rng.uniform(0.4, 1.0))
            f = random_maxaffine(rng, k, int(rng.integers(1, 4)), L,
                                 base.support_radius)
            env = ra.build_envelope(f, ra.build_net(k, base.support_radius,
                                                    1 / (2 * L)))
            mixture = ra.build_proposal(base, env, A, delta=0.5).law
            g_vals = env.value(base.atoms @ A.T)
            logits = np.log(base.probs) + g_vals
            probs = np.exp(logits - logits.max())
            probs /= probs.sum()
            direct = ra.DiscreteModel(base.atoms, probs, base.support_radius)
            assert tv_discrete(mixture, direct) <= 1e-10

    def test_law_is_the_tilt_model(self):
        # the exact backend builds the mixture once, as tilt_exact builds
        # it; the diffusion backend builds none
        rng = np.random.default_rng(5)
        gmm = ra.GaussianMixtureModel([0.4, 0.6], [[-0.6], [0.7]],
                                      [[[0.04]], [[0.09]]], 3.0)
        env = ra.Envelope.from_pieces([[1.5], [-1.0], [0.3]],
                                      [0.0, 0.2, -0.1])
        for base in (random_discrete(rng, 7, 1), gmm):
            prop = ra.build_proposal(base, env, np.eye(1), delta=0.1)
            model = ra.tilt_exact(base, prop.tilt_vectors, prop.log_pi)
            if isinstance(base, ra.DiscreteModel):
                assert np.array_equal(prop.law.probs, model.probs)
                assert np.array_equal(prop.law.atoms, model.atoms)
            else:
                for field in ("weights", "means", "covs"):
                    assert np.array_equal(getattr(prop.law, field),
                                          getattr(model, field))
            diff = ra.build_proposal(base, env, np.eye(1), delta=0.2, seed=0,
                                     backend="diffusion")
            assert diff.law is None

    def test_gmm_proposal_is_weighted_sum_of_tilts(self):
        rng = np.random.default_rng(9)
        base = ra.GaussianMixtureModel(
            [0.3, 0.7], [[0.5, -0.2], [-0.4, 0.3]],
            [[[0.2, 0.05], [0.05, 0.1]], [[0.15, -0.03], [-0.03, 0.25]]],
            8.0)
        vs = rng.standard_normal((3, 2)) * 0.5
        # log_pi need not come from exact normalizers
        log_pi = np.log([0.2, 0.5, 0.3])
        model = ra.tilt_exact(base, vs, log_pi)
        assert model.n_components == 6
        for i, v in enumerate(vs):
            # tilt of component j: mean mu_j + Sigma_j v, weight
            # ~ w_j exp(<v, mu_j> + v' Sigma_j v / 2)
            logw = np.log(base.weights) + base.means @ v + 0.5 * np.einsum(
                "a,jab,b->j", v, base.covs, v)
            w = np.exp(logw - logw.max())
            w /= w.sum()
            rows = slice(2 * i, 2 * i + 2)
            assert np.max(np.abs(model.weights[rows]
                                 - np.exp(log_pi[i]) * w)) <= 1e-12
            assert np.max(np.abs(model.means[rows]
                                 - (base.means + base.covs @ v))) <= 1e-12
            assert np.max(np.abs(model.covs[rows] - base.covs)) <= 1e-12


def serve_reference(ok, carry, N_rej, slots):
    """Scalar walk of one pass: slot by slot, candidate by candidate."""
    out, rejects = [], carry
    for i, flag in enumerate(ok):
        rejects = 0 if flag else rejects + 1
        if flag or rejects == N_rej:
            out.append(i if flag else -1)
            rejects = 0
            if len(out) == slots:
                return out, i + 1, 0
    return out, len(ok), rejects


class TestServe:
    def check(self, ok, carry, N_rej, slots):
        out, used, left = _serve(np.asarray(ok, dtype=bool), carry, N_rej,
                                 slots)
        ref = serve_reference(ok, carry, N_rej, slots)
        assert (out.tolist(), used, left) == ref
        return out, used, left

    @pytest.mark.parametrize("N_rej", [1, 2, 5])
    def test_matches_scalar_walk(self, N_rej):
        rng = np.random.default_rng(N_rej)
        for _ in range(400):
            p = rng.choice([0.05, 0.3, 0.9])
            ok = rng.random(int(rng.integers(0, 60))) < p
            self.check(ok, int(rng.integers(0, N_rej)), N_rej,
                       int(rng.integers(1, 40)))

    @pytest.mark.parametrize("N_rej", [1, 2, 5])
    def test_long_reject_runs(self, N_rej):
        for carry in range(N_rej):
            ok = np.zeros(2 * N_rej + 3, dtype=bool)
            out = self.check(ok, carry, N_rej, 100)[0]
            assert out.tolist() == [-1] * ((ok.size + carry) // N_rej)
            ok[-1] = True
            self.check(ok, carry, N_rej, 100)
            self.check(ok, carry, N_rej, 1)

    @pytest.mark.parametrize("N_rej", [1, 2, 5])
    def test_carry_across_passes(self, N_rej):
        # two passes served with the carry equal one pass of both streams
        rng = np.random.default_rng(10 + N_rej)
        for _ in range(200):
            ok = rng.random(int(rng.integers(0, 80))) < 0.2
            cut = int(rng.integers(0, ok.size + 1))
            slots = int(rng.integers(1, 30))
            out1, used1, carry = self.check(ok[:cut], 0, N_rej, slots)
            if out1.size == slots:
                continue
            out2, used2, left = self.check(ok[cut:], carry, N_rej,
                                           slots - out1.size)
            joined = [o if o < 0 else o + cut for o in out2.tolist()]
            assert (out1.tolist() + joined, used1 + used2, left) \
                == serve_reference(ok, 0, N_rej, slots)


class TestSampleKLAligned:
    def test_two_atom_identity_reward(self):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 1.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=17, n=10**5)
        p1 = np.mean(res.batch.points[:, 0] > 0.5)
        assert abs(p1 - np.e / (1 + np.e)) < 0.02
        assert res.fallback_count == 0

    def test_constant_reward_matches_base(self):
        base = ra.DiscreteModel([[-1.0], [0.0], [1.0]], [0.2, 0.5, 0.3], 1.0)
        f = ra.make_max_affine([(np.array([0.0]), 2.0)])
        f.lipschitz = 0.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=8, n=10**5)
        # its own one-piece envelope, G = f: every candidate is accepted
        assert (res.acceptance_rate, res.fallback_count) == (1.0, 0)
        assert res.envelope.m == 1
        assert res.batch.producer == "kl_align/alg1"
        emp = empirical_to_discrete(res.batch.points, 1.0)
        assert tv_discrete(emp, base) <= 0.02

    def test_declared_zero_lipschitz_draws_the_tilted_law(self):
        # a declared L = 0 on f(u) = u only sets the schedule: the envelope
        # is f's own piece, so the law is the tilt, not the base
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.lipschitz = 0.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=17, n=2 * 10**4)
        p1 = np.mean(res.batch.points[:, 0] > 0.5)
        assert abs(p1 - np.e / (1 + np.e)) < 0.02
        assert (res.acceptance_rate, res.fallback_count) == (1.0, 0)

    def test_constant_black_box_one_point_net(self):
        # L = 0: h = 1/(2L) = inf, the net is the origin and the envelope
        # one piece, f + 1: acceptance e^-1, and the law is the base's
        base = ra.DiscreteModel([[-1.0], [0.0], [1.0]], [0.2, 0.5, 0.3], 1.0)
        f = ra.LowDimFunction(
            value=lambda u: np.full(np.shape(u)[:-1], 0.7), k=1,
            lipschitz=0.0, radius=1.0, convex=True,
            grad=lambda u: np.zeros(np.shape(u)))
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=8, n=10**5)
        assert res.net_pieces == res.envelope.m == 1
        assert res.envelope.to_dict() == {"slopes": [[0.0]],
                                          "offsets": [1.7], "m": 1}
        assert abs(res.acceptance_rate - np.exp(-1.0)) < 0.01
        emp = empirical_to_discrete(res.batch.points, 1.0)
        assert tv_discrete(emp, base) <= 0.02

    def test_slopes_whose_squares_underflow_keep_their_pieces(self):
        # ||1e-300|| is 1e-300, not 0: L > 0, and each piece reaches past
        # the other over B(1.7e308), so both stay in the envelope and the
        # tilt e^f puts every sample on the atom where f = 1.7e8
        base = ra.DiscreteModel([[0.0], [1.7e308]], [0.5, 0.5], 1.7e308)
        f = ra.make_max_affine([([1e-300], 0.0), ([-1e-300], 0.5)])
        assert f.lipschitz == 1e-300
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=1, n=50)
        assert res.envelope.m == 2
        assert np.all(res.batch.points == 1.7e308)

    def test_tilt_beyond_exp_range(self):
        # log Z ~ 800 overflows exp: the proposal stays in log space and
        # puts all but e^-800 of its mass on atom 1
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([([800.0], 0.0)])
        f.radius = 1.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=3, n=200)
        assert np.all(np.isfinite(res.proposal.log_pi))
        assert np.all(res.batch.points == 1.0)

    def test_constant_reward_reports_diffusion_backend(self, monkeypatch):
        # f = 0.3 on the diffusion backend: one reverse pass at the general
        # step rule (W2 target eps / 8: 48 steps at eps 0.5), every
        # candidate accepted, and no normalizer for the one piece
        steps = []
        reverse = ra.tilts.sample_via_diffusion

        def spy(*args, **kwargs):
            steps.append(kwargs["steps"])
            return reverse(*args, **kwargs)

        monkeypatch.setattr(ra.tilts, "sample_via_diffusion", spy)
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([0.0]), 0.3)])
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.05,
                                   seed=2, n=20, backend="diffusion")
        rep = res.report()
        assert steps == [recommended_steps(0.5 / 8, 1.0)] == [48]
        assert (res.acceptance_rate, res.fallback_count) == (1.0, 0)
        assert res.envelope.m == 1
        assert res.batch.producer == "kl_align/alg1"
        assert rep["backend"] == "diffusion"
        assert rep["diffusion_steps"] == steps[0]
        assert "normalizer" not in rep and "eta" not in rep

    def test_fallback_pass_runs_the_reported_steps(self, monkeypatch):
        # an explicit envelope raised by 50 accepts with probability
        # e^-50: every slot spends its N_rej candidates and falls back, and
        # the fallback pass runs the candidates' step count too, and its
        # draws are the batch
        steps, outs = [], []
        reverse = ra.tilts.sample_via_diffusion

        def spy(*args, **kwargs):
            steps.append(kwargs["steps"])
            outs.append(reverse(*args, **kwargs))
            return outs[-1]

        monkeypatch.setattr(ra.tilts, "sample_via_diffusion", spy)
        base = ra.DiscreteModel([[-1.0], [0.5]], [0.5, 0.5], 1.0)
        raised = ra.Envelope.from_pieces([[1.0], [-1.0]], [50.0, 50.0])
        res = ra.sample_kl_aligned(base, np.eye(1), abs_function(), eps=0.5,
                                   delta=0.1, seed=3, n=5, backend="diffusion",
                                   envelope=raised)
        assert res.fallback_count == 5
        assert res.proposal_draws == 5 * res.params.N_rej
        assert len(steps) == res.passes + 1  # the candidates' and the fallback
        assert steps == [res.diffusion_steps] * len(steps)
        assert res.diffusion_steps == recommended_steps(0.5 / 8, 1.0) == 48
        assert np.array_equal(res.batch.points, outs[-1].points)

    @pytest.mark.parametrize("eps", [np.nan, 5.0, -1.0])
    def test_eps_checked_at_base_shortcut(self, eps):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([0.0]), 0.0)])
        with pytest.raises(ra.ValidationError):
            ra.sample_kl_aligned(base, np.eye(1), f, eps=eps, delta=0.05,
                                 seed=0, n=10)

    def test_envelope_of_wrong_width_rejected(self):
        # f.k = 1; an envelope with two slope columns cannot bound f(Ax)
        base = random_discrete(np.random.default_rng(3), 4, 2)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        env = ra.Envelope.from_pieces([[1.0, 0.0], [0.0, 1.0]], [0.0, 0.0])
        with pytest.raises(ra.ValidationError, match="envelope"):
            ra.sample_kl_aligned(base, [[1.0, 0.0]], f, eps=0.3, delta=0.05,
                                 seed=0, n=10, envelope=env)

    def test_concave_reward_rejected(self):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.LowDimFunction(value=lambda u: -float(np.sum(u**2)), k=1,
                              lipschitz=2.0, radius=1.0,
                              grad=lambda u: -2 * u, convex=False)
        with pytest.raises(ra.ValidationError):
            ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                 seed=0)

    def test_unknown_backend_rejected_before_any_draw(self, monkeypatch):
        def no_work(*args, **kwargs):
            raise AssertionError("work before the backend check")

        for name in ("build_net", "build_proposal", "sample_linear_tilt",
                     "sample_via_diffusion"):
            monkeypatch.setattr(ra.kl_align, name, no_work)
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 1.0
        with pytest.raises(ra.ValidationError, match="exakt"):
            ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                 seed=0, n=10, backend="exakt")

    def test_broken_oracle_detected(self):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)

        # impure oracle: its first answer (the envelope's one batch query)
        # is |u|, every later one (acceptance) |u| + 5, so the envelope
        # built from the first answers cannot dominate the later ones
        calls = []

        def two_faced(u):
            calls.append(1)
            shift = 5.0 if len(calls) > 1 else 0.0
            return np.abs(np.asarray(u, dtype=float)[..., 0]) + shift

        f = ra.LowDimFunction(value=two_faced, k=1, lipschitz=1.0, radius=1.0,
                              grad=lambda u: np.sign(np.asarray(u, dtype=float)),
                              convex=True)
        with pytest.raises(ra.EnvelopeViolationError):
            ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                 seed=0, n=100)

    def test_matches_oracle_small_instance(self):
        rng = np.random.default_rng(5)
        base = random_discrete(rng, 8, 2)
        A = random_orthogonal_rows(rng, 1, 2, op_norm=1.0)
        f = random_maxaffine(rng, 1, 3, L=1.0, R=base.support_radius)
        res = ra.sample_kl_aligned(base, A, f, eps=0.1, delta=0.05, seed=6,
                                   n=4 * 10**4)
        reward = ra.LowRankReward(A, f)
        target = oracle_kl_tilt(base, reward)
        emp = empirical_to_discrete(res.batch.points, base.support_radius)
        assert tv_discrete(emp, target) <= 0.03

    def test_logsumexp_self_reward_constant_acceptance(self):
        rng = np.random.default_rng(6)
        base = random_discrete(rng, 6, 2)
        reward = ra.LogSumExpReward([1.0, 0.7], [[0.5], [-0.5]],
                                    random_orthogonal_rows(rng, 1, 2))
        env = ra.Envelope.from_pieces(*reward.envelope_pieces())
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.3,
                                   delta=0.05, seed=7, n=2000, envelope=env)
        # G = f, so every candidate is accepted
        assert res.acceptance_rate == 1.0

    def test_fallback_law_at_exact_acceptance(self):
        # one explicit log-sum-exp piece raised by 1: G = f + 1, so each
        # candidate is accepted with probability exactly 1/e and a slot
        # falls back after N_rej = 16 rejects with probability (1 - 1/e)^16
        rng = np.random.default_rng(12)
        base = random_discrete(rng, 6, 2)
        reward = ra.LogSumExpReward([1.0], [[0.5]],
                                    random_orthogonal_rows(rng, 1, 2))
        z, b = reward.envelope_pieces()
        env = ra.Envelope.from_pieces(z, b + 1.0)
        n = 10**5
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.99,
                                   delta=0.05, seed=13, n=n, envelope=env)
        assert res.params.N_rej == 16
        p = (1.0 - np.exp(-1.0)) ** 16
        assert abs(res.fallback_count - n * p) <= 4 * np.sqrt(n * p * (1 - p))
        assert res.proposal_draws <= n * res.params.N_rej
        assert abs(res.acceptance_rate - np.exp(-1)) < 0.01

    def test_nonpositive_budget_falls_back_to_base(self):
        # C = 0.1 <= eps/4 makes N_rej = ceil(2/a0 * log(0.64)) negative:
        # no candidate is drawn and every slot is a base sample
        base = ra.DiscreteModel([[-0.1], [0.0], [0.1]], [0.2, 0.5, 0.3], 0.1)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 0.1
        n = 10**5
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.05,
                                   seed=3, n=n)
        assert res.params.N_rej <= 0
        assert (res.fallback_count, res.proposal_draws, res.passes) \
            == (n, 0, 0)
        emp = empirical_to_discrete(res.batch.points, 0.1)
        assert tv_discrete(emp, base) <= 0.02

    @staticmethod
    def one_piece_reward(rng, raise_by=1.0):
        # one explicit log-sum-exp piece raised by c: G = f + c, so each
        # candidate is accepted with probability exactly e^-c; at C = 0.3
        # and eps = 0.99, N_rej = 3, and at c = 1 a quarter of the slots
        # fall back
        reward = ra.LogSumExpReward([1.0], [[0.5]],
                                    random_orthogonal_rows(rng, 1, 2))
        z, b = reward.envelope_pieces()
        return reward, ra.Envelope.from_pieces(z, b + raise_by)

    def test_stream_matches_scalar_walk(self):
        # a mixture base runs the candidate stream: the sampler against a
        # candidate-by-candidate walk of the same draws, pass by pass; the
        # head slot's rejects carry across passes
        rng = np.random.default_rng(14)
        base = ra.GaussianMixtureModel([1.0], [[0.0, 0.0]],
                                       [1e-4 * np.eye(2)], 0.3)
        reward, env = self.one_piece_reward(rng)
        A, f = reward.A, reward.f
        n = 2000
        for seed in range(8):
            res = ra.sample_kl_aligned(base, A, f, eps=0.99, delta=0.05,
                                       seed=seed, n=n, envelope=env)
            N_rej, a0 = res.params.N_rej, res.params.a0
            assert N_rej == 3
            model = ra.tilt_exact(base, res.proposal.tilt_vectors,
                                  res.proposal.log_pi)
            gen = np.random.default_rng(seed)
            pts, rejects, draws, passes = [], 0, 0, 0
            while len(pts) < n:
                count = min(int(np.ceil((n - len(pts)) / a0)), n)
                xs = ra.sample_exact(model, count, gen).points
                u = xs @ A.T
                assert np.all(np.linalg.norm(xs, axis=1) < 0.1)
                log_a = np.asarray(f.value(u)) - env.value(u)
                flags = np.log(gen.random(count)) < log_a
                passes += 1
                for x, flag in zip(xs, flags):
                    draws += 1
                    rejects = 0 if flag else rejects + 1
                    if flag or rejects == N_rej:
                        pts.append(x if flag else None)
                        rejects = 0
                        if len(pts) == n:
                            break
            fell = [j for j, x in enumerate(pts) if x is None]
            fb = ra.sample_exact(base, len(fell), gen).points
            for j, x in zip(fell, fb):
                pts[j] = x
            assert passes > 1 and 0.2 * n < len(fell) < 0.3 * n
            assert (res.fallback_count, res.proposal_draws, res.passes) \
                == (len(fell), draws, passes)
            assert np.array_equal(res.batch.points, np.array(pts))

    def test_stream_draws_the_built_law(self, monkeypatch):
        # an exact mixture's proposal law is built once, by build_proposal:
        # no pass of the candidate stream builds a tilt model, and the
        # draws are the same
        base = ra.GaussianMixtureModel([0.4, 0.6], [[-0.6], [0.7]],
                                       [[[0.04]], [[0.09]]], 3.0)
        f = abs_function(3.0)
        want = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.05,
                                    seed=3, n=500)

        def no_build(*args, **kwargs):
            raise AssertionError("a tilt model built after build_proposal")

        monkeypatch.setattr(ra.tilts, "tilt_exact", no_build)
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.05,
                                   seed=3, n=500)
        assert res.proposal.m == 2 and res.passes >= 2
        assert np.array_equal(res.batch.points, want.batch.points)

    def test_atom_slots_match_trial_counts(self):
        # an atom base draws no candidate stream: each slot's trial count
        # is Geometric(alpha) by inverse CDF from one uniform, found here
        # slot by slot; accepted slots take one draw from q exp(f - G) /
        # alpha, then fallbacks one base draw, from the same generator
        rng = np.random.default_rng(14)
        base = random_discrete(rng, 6, 2, C=0.3)
        reward, env = self.one_piece_reward(rng)
        A, f = reward.A, reward.f
        model = ra.build_proposal(base, env, A, delta=0.5).law
        u = model.atoms @ A.T
        w = model.probs * np.exp(np.asarray(f.value(u)) - env.value(u))
        alpha = w.sum()
        assert abs(alpha - np.exp(-1.0)) < 1e-12
        n = 2000
        for seed in range(8):
            res = ra.sample_kl_aligned(base, A, f, eps=0.99, delta=0.05,
                                       seed=seed, n=n, envelope=env)
            N_rej = res.params.N_rej
            assert N_rej == 3
            gen = np.random.default_rng(seed)
            trials = []
            for v in 1.0 - gen.random(n):
                # G = k where (1 - alpha)^k < v <= (1 - alpha)^(k - 1)
                k = next((k for k in range(1, N_rej + 1)
                          if v > (1.0 - alpha) ** k), None)
                trials.append(k)
            fell = np.array([k is None for k in trials])
            pts = np.empty((n, 2))
            accepted = ra.DiscreteModel(model.atoms, w / alpha, 0.3)
            pts[~fell] = ra.sample_exact(accepted, int((~fell).sum()),
                                         gen).points
            pts[fell] = ra.sample_exact(base, int(fell.sum()), gen).points
            draws = sum(N_rej if k is None else k for k in trials)
            assert (res.fallback_count, res.proposal_draws, res.passes) \
                == (int(fell.sum()), draws, 1)
            assert np.array_equal(res.batch.points, pts)

    def test_fallback_law_and_draws_at_exact_acceptance(self):
        # at N_rej = 3 a slot falls back with probability
        # beta = (1 - 1/e)^3, so the output is (1 - beta) tilt + beta base,
        # and a slot spends min(G, 3) candidates, G ~ Geometric(1/e)
        rng = np.random.default_rng(15)
        base = random_discrete(rng, 6, 2, C=0.3)
        reward, env = self.one_piece_reward(rng)
        n = 10**5
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.99,
                                   delta=0.05, seed=16, n=n, envelope=env)
        N_rej, alpha = res.params.N_rej, np.exp(-1.0)
        assert N_rej == 3
        beta = (1.0 - alpha) ** N_rej
        target = mix_discrete([oracle_kl_tilt(base, reward), base],
                              [1.0 - beta, beta])
        emp = empirical_to_discrete(res.batch.points, 0.3)
        assert tv_discrete(emp, target) <= 0.01
        k = np.arange(1, N_rej + 1)
        pmf = alpha * (1.0 - alpha) ** (k - 1)
        pmf[-1] = (1.0 - alpha) ** (N_rej - 1)
        mean = (k * pmf).sum()
        assert abs(mean - (1.0 - beta) / alpha) < 1e-12
        sd = np.sqrt(n * ((k**2 * pmf).sum() - mean**2))
        assert abs(res.proposal_draws - n * mean) <= 4 * sd

    @pytest.mark.parametrize("raise_by", [1.0, 0.0])
    def test_atom_call_draws_n_rows(self, monkeypatch, raise_by):
        # acceptance 1/e (G = f + 1) and 1 (G = f): accepted slots and
        # fallbacks together are n rows of exact draws, and no rejected
        # candidate is drawn
        rows = []
        real = ra.models.sample_exact

        def spy(model, n, seed):
            rows.append(n)
            return real(model, n, seed)

        monkeypatch.setattr(ra.kl_align, "sample_exact", spy)
        monkeypatch.setattr(ra.tilts, "sample_exact", spy)
        rng = np.random.default_rng(17)
        base = random_discrete(rng, 6, 2, C=0.3)
        reward, env = self.one_piece_reward(rng, raise_by)
        n = 5000
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.99,
                                   delta=0.05, seed=18, n=n, envelope=env)
        assert sum(rows) == n
        assert len(rows) == (2 if res.fallback_count else 1)
        assert (res.fallback_count > 0) == (raise_by > 0)

    def test_acceptance_rounding_above_one_is_clipped(self):
        # G = f - 1e-10 is within the 1e-9 the envelope check forgives:
        # alpha = e^1e-10 > 1 is taken as 1, with no log of a negative
        rng = np.random.default_rng(19)
        base = random_discrete(rng, 6, 2, C=0.3)
        reward, env = self.one_piece_reward(rng, -1e-10)
        n = 1000
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.99,
                                   delta=0.05, seed=20, n=n, envelope=env)
        assert (res.fallback_count, res.proposal_draws, res.passes) \
            == (0, n, 1)
        assert res.acceptance_rate == 1.0

    @pytest.mark.parametrize("raise_by, zero_uniforms",
                             [(800.0, False), (800.0, True), (1.0, True)])
    def test_acceptance_underflow_falls_back_every_slot(self, raise_by,
                                                        zero_uniforms):
        # G = f + 800: alpha = e^-800 underflows to 0, so every slot spends
        # its N_rej candidates and falls back to the base.  A uniform of 0
        # (the generator's low end) makes no 0/0: at alpha = 0 its slot
        # falls back, at alpha = 1/e it accepts its first candidate
        class ZeroUniforms(np.random.Generator):
            def random(self, size=None, dtype=np.float64, out=None):
                return np.zeros(size)

        rng = np.random.default_rng(21)
        base = random_discrete(rng, 6, 2, C=0.3)
        reward, env = self.one_piece_reward(rng, raise_by)
        gen = (ZeroUniforms if zero_uniforms
               else np.random.Generator)(np.random.PCG64(22))
        n = 2000
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.99,
                                   delta=0.05, seed=gen, n=n, envelope=env)
        N_rej = res.params.N_rej
        fallbacks = n if raise_by == 800.0 else 0
        assert (res.fallback_count, res.proposal_draws, res.passes) \
            == (fallbacks, n * N_rej if fallbacks else n, 1)
        if not zero_uniforms:
            emp = empirical_to_discrete(res.batch.points, 0.3)
            assert tv_discrete(emp, base) <= 0.05

    def test_numpy_integer_seed_recorded(self):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 1.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=np.int64(5), n=10)
        assert res.batch.seed == 5
        assert type(res.batch.seed) is int

    def test_diffusion_backend_end_to_end(self):
        # oracle-only pipeline: tilted-score reverse diffusion inside the
        # rejection loop; coarse accuracy target keeps the run short
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 1.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.3, delta=0.1,
                                   seed=5, n=400, backend="diffusion")
        p1 = np.mean(res.batch.points[:, 0] > 0.5)
        assert abs(p1 - np.e / (1 + np.e)) < 0.08
        rep = res.report()
        assert rep["backend"] == "diffusion"
        assert rep["diffusion_steps"] > 0
        # one envelope piece: pi = 1, so no normalizer is estimated
        assert "normalizer" not in rep and "eta" not in rep
        assert np.all(np.abs(res.batch.points) <= 1.0 + 1e-12)

    @pytest.mark.parametrize("backend", ["exact", "diffusion"])
    def test_one_piece_envelope_estimates_no_normalizer(self, monkeypatch,
                                                        backend):
        def no_estimate(*args, **kwargs):
            raise AssertionError("normalizer estimated for one piece")

        monkeypatch.setattr(ra.kl_align, "estimate_normalizer", no_estimate)
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 1.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.1,
                                   seed=6, n=400, backend=backend)
        assert res.envelope.m == 1
        assert np.isnan(res.proposal.log_zhat).all()
        assert np.array_equal(res.proposal.log_pi, [0.0])
        p1 = np.mean(res.batch.points[:, 0] > 0.5)
        assert abs(p1 - np.e / (1 + np.e)) < 0.08
        assert "normalizer" not in res.report()

    @staticmethod
    def gmm_maxaffine():
        # a one-mode 1D mixture and a two-piece max-affine reward
        base = ra.GaussianMixtureModel([0.4, 0.6], [[-0.6], [0.7]],
                                       [[[0.5]], [[0.3]]], 6.0)
        f = ra.make_max_affine([(np.array([0.25]), 0.0),
                                (np.array([-0.15]), 0.1)])
        f.radius = 6.0
        return base, f

    def test_gmm_base_matches_quadrature(self):
        # one-mode 1D mixture: W2 to the quadrature truth at criterion 2's
        # tolerance, through the flattened m*J-component proposal
        base, f = self.gmm_maxaffine()
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=21, n=10**5)
        truth = QuadratureTilt1D(base, ra.LowRankReward(np.eye(1), f))
        w2 = w2_1d_samples_vs_quantiles(res.batch.points[:, 0], truth.ppf)
        assert w2 <= 0.02
        assert res.envelope.m > 1

    def test_multi_pass_stream_matches_quadrature(self, monkeypatch):
        # n = 5 ROW_BLOCK: the candidate stream is cut into passes of at
        # most ROW_BLOCK rows, and the output still has the quadrature law
        # at criterion 2's tolerance; the same seed gives the same bytes
        base, f = self.gmm_maxaffine()
        counts, draw = [], ra.kl_align.sample_linear_tilt

        def spy(*args, **kwargs):
            counts.append(kwargs["n"])
            return draw(*args, **kwargs)

        monkeypatch.setattr(ra.kl_align, "sample_linear_tilt", spy)
        n = 5 * ROW_BLOCK
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                   seed=22, n=n)
        passes = counts[:res.passes]
        assert res.passes > 5 and max(passes) == ROW_BLOCK
        assert res.proposal_draws <= sum(passes)
        truth = QuadratureTilt1D(base, ra.LowRankReward(np.eye(1), f))
        w2 = w2_1d_samples_vs_quantiles(res.batch.points[:, 0], truth.ppf)
        assert w2 <= 0.02
        again = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                     seed=22, n=n)
        assert np.array_equal(again.batch.points, res.batch.points)

    def test_peak_memory_is_the_output_plus_blocks(self):
        # a 2e5-row mixture call holds its points and one flag per slot,
        # and besides them a fixed number of ROW_BLOCK-row temporaries
        # (6.6 blocks of d floats measured, at any n), not a pass of n rows
        base, f = self.gmm_maxaffine()
        n, d = 200_000, 1
        ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                             seed=23, n=10)  # the model's cached factors
        tracemalloc.start()
        try:
            res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1,
                                       delta=0.05, seed=23, n=n)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.passes > 10
        assert peak <= 8 * n * d + n + 10 * 8 * ROW_BLOCK * d, peak

    def test_fig1_steep_slope_both_backends(self):
        # slope 6 on the fig-1 base: the tilted mode leaks about 1e-5 of
        # its mass past C = 8, which once refused the exact backend only
        base = fig1_base()
        f = ra.make_max_affine([(np.array([6.0]), 0.0)])
        truth = QuadratureTilt1D(base, ra.LinearReward([6.0]))
        w2 = {}
        for backend, n in (("exact", 10**5), ("diffusion", 2000)):
            res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.3,
                                       delta=0.05, seed=3, n=n,
                                       backend=backend)
            pts = res.batch.points[:, 0]
            assert np.all(np.abs(pts) <= 8.0)
            w2[backend] = w2_1d_samples_vs_quantiles(pts, truth.ppf)
        assert w2["exact"] <= 0.02
        assert w2["diffusion"] <= 0.1

    def test_diffusion_backend_distinct_tilts(self):
        # |u| on atoms {-1, 0.5}: the envelope's pieces tilt by -1 and +1,
        # so the rows of one reverse pass carry different tilts
        base = ra.DiscreteModel([[-1.0], [0.5]], [0.5, 0.5], 1.0)
        res = ra.sample_kl_aligned(base, np.eye(1), abs_function(), eps=0.5,
                                   delta=0.1, seed=1, n=400,
                                   backend="diffusion")
        assert res.envelope.m == len(np.unique(res.proposal.tilt_vectors)) == 2
        p_left = np.mean(res.batch.points[:, 0] < -0.25)
        assert abs(p_left - 1.0 / (1.0 + np.exp(-0.5))) < 0.08
        # a closed-form base takes its normalizers in closed form whichever
        # backend draws, so the report names no path-sampling estimate
        assert res.proposal.normalizer == "exact"
        assert "normalizer" not in res.report()
        assert "eta" not in res.report()

    def test_closed_form_base_takes_exact_normalizers_on_both_backends(
            self, monkeypatch):
        # the base picks the normalizer route, not the draw backend: on
        # atoms and on a mixture both backends build one proposal, bit for bit
        estimate = ra.kl_align.estimate_normalizer

        def exact_only(*args, backend, **kwargs):
            assert backend == "exact", f"{backend} normalizer on a closed form"
            return estimate(*args, backend=backend, **kwargs)

        monkeypatch.setattr(ra.kl_align, "estimate_normalizer", exact_only)
        atoms = ra.DiscreteModel([[-1.0], [0.2], [0.8]], [0.3, 0.3, 0.4], 1.0)
        gmm = ra.GaussianMixtureModel([0.4, 0.6], [[-0.6], [0.7]],
                                      [[[0.04]], [[0.09]]], 3.0)
        for base in (atoms, gmm):
            f = abs_function(base.support_radius)
            runs = [ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5,
                                         delta=0.1, seed=3, n=20,
                                         backend=backend)
                    for backend in ("exact", "diffusion")]
            assert runs[0].proposal.m == runs[1].proposal.m == 2
            for field in ("log_zhat", "log_pi"):
                assert np.array_equal(getattr(runs[0].proposal, field),
                                      getattr(runs[1].proposal, field))
            assert runs[1].proposal.normalizer == "exact"
            # no normalizer was path-sampled, so no run reports an eta
            assert all("eta" not in run.report() for run in runs)

    def test_steep_two_piece_diffusion_run_on_atoms(self):
        # slopes +-40 on C = 1: path sampling would ask 3.97e7 draws (cap
        # 1e7), the closed form none
        base = ra.DiscreteModel([[-1.0], [0.2], [0.8]], [1 / 3] * 3, 1.0)
        f = ra.make_max_affine([([40.0], 0.0), ([-40.0], 0.0)])
        f.radius = 1.0
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.1,
                                   seed=0, n=200, backend="diffusion")
        pts = res.batch.points
        assert pts.shape == (200, 1) and np.isfinite(pts).all()
        assert np.all(np.abs(pts) <= 1.0)

    def test_score_oracle_on_exact_backend_refused_before_any_work(self):
        # two pieces on a bare ScoreOracle: no closed form, so the exact
        # backend refuses it before a path-sampling estimate draws
        base = ra.score_oracle(ra.DiscreteModel([[-1.0], [0.5]], [0.5, 0.5],
                                                1.0))
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        with pytest.raises(ra.CapabilityError):
            ra.sample_kl_aligned(base, np.eye(1), abs_function(), eps=0.5,
                                 delta=0.1, seed=rng, n=20, backend="exact")
        assert rng.bit_generator.state == state

    def test_determinism(self):
        base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([(np.array([1.0]), 0.0)])
        f.radius = 1.0
        r1 = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                  seed=99, n=500)
        r2 = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.1, delta=0.05,
                                  seed=99, n=500)
        assert np.array_equal(r1.batch.points, r2.batch.points)

    def test_acceptance_floor_on_draws(self):
        rng = np.random.default_rng(8)
        base = random_discrete(rng, 10, 2)
        A = random_orthogonal_rows(rng, 2, 2, op_norm=1.2)
        f = random_maxaffine(rng, 2, 4, L=0.8,
                             R=1.2 * base.support_radius)
        env = ra.build_envelope(
            f, ra.build_net(2, 1.2 * base.support_radius, 1 / 1.6))
        prop = ra.build_proposal(base, env, A, delta=0.1, seed=rng)
        comps = rng.choice(env.m, size=500, p=np.exp(prop.log_pi))
        for i in np.unique(comps):
            tilted = ra.tilt_exact(base, prop.tilt_vectors[i])
            pts = ra.sample_exact(tilted, int((comps == i).sum()), rng).points
            u = pts @ A.T
            acc = np.exp(np.asarray(f.value(u)) - env.value(u))
            assert np.all(acc >= np.exp(-gap_bound(env.m)) - 1e-9)
            assert np.all(acc <= 1.0 + 1e-9)


def criterion3_instance(idx):
    """Instance ``idx`` of acceptance criterion 3's fixture: the same draws,
    in the same order, from its generator seed 2024."""
    rng = np.random.default_rng(2024)
    for _ in range(idx + 1):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(d, 2) + 1))
        base = random_discrete(rng, int(rng.integers(4, 33)), d, C=1.0)
        s = float(rng.uniform(0.5, 1.5))
        A = random_orthogonal_rows(rng, k, d, op_norm=s)
        R = s * base.support_radius
        LR = float(rng.uniform(0.3, 2.0))
        f = random_maxaffine(rng, k, int(rng.integers(1, 6)), LR / R, R)
        seed = int(rng.integers(2**31))
    return base, A, f, seed


class TestNetPieceCollapse:
    def test_sandwich_random_maxaffine(self):
        # f <= G' <= f + 1 + log m' over the ball, for the collapsed net
        # pieces and for the net pieces behind copies lowered by 1 to 2:
        # those are minorants of f too, and keeping them instead of the
        # originals would leave G' below f
        rng = np.random.default_rng(31)
        for _ in range(40):
            k = int(rng.integers(1, 4))
            L = float(rng.uniform(0.4, 1.6))
            R = float(rng.uniform(0.5, 2.0 / L))
            n_pieces = int(rng.integers(1, 6))
            f = random_maxaffine(rng, k, n_pieces, L, R)
            env = ra.build_envelope(f, ra.build_net(k, R, 1 / (2 * L)))
            lowered = ra.Envelope(
                np.vstack([env.slopes, env.slopes]),
                np.concatenate([env.offsets - rng.uniform(1, 2, env.m),
                                env.offsets]))
            us = random_unit_ball(rng, 1000, k, radius=R)
            fv = np.asarray(f.value(us))
            for pieces in (env, lowered):
                kept = _collapse_net_pieces(pieces)
                assert kept.m <= n_pieces
                gv = kept.value(us)
                assert np.min(gv - fv) >= -1e-9
                assert np.min(fv + gap_bound(kept.m) - gv) >= -1e-9

    @given(st.integers(1, 2).flatmap(lambda k: st.lists(
        st.lists(st.integers(-3, 3), min_size=k, max_size=k),
        min_size=1, max_size=5)))
    @example([[1], [-1]])  # |u|
    @example([[0, 1], [3, -3]])  # a net point 1e-12 off a kink
    @settings(max_examples=60, deadline=None)
    def test_max_affine_net_envelope_is_its_own_pieces(self, slopes):
        # pieces through the origin with integer slopes: every kink is a
        # line through 0, on the net; the subgradient is always a slope of
        # f, so the collapsed envelope is a subset of f's pieces
        k = len(slopes[0])
        f = ra.make_max_affine([(np.array(z, float), 0.0) for z in slopes])
        assume(f.lipschitz > 0)
        f.radius = 1.0
        net = ra.build_net(k, 1.0, 1 / (2 * f.lipschitz))
        kept = _collapse_net_pieces(ra.build_envelope(f, net))
        own = {z.tobytes() for z in f.pieces.slopes}
        assert {z.tobytes() for z in kept.slopes} <= own
        us = np.vstack([net.points, random_unit_ball(
            np.random.default_rng(k), 500, k)])
        fv, gv = np.asarray(f.value(us)), kept.value(us)
        assert np.min(gv - fv) >= -1e-9
        assert np.min(fv + gap_bound(kept.m) - gv) >= -1e-9
        # exact ties on the net, ulp-near ties one ulp off each net point
        near = np.vstack([net.points, np.nextafter(net.points, np.inf),
                          np.nextafter(net.points, -np.inf)])
        g = f.grad(near)
        assert np.array_equal(g, [f.grad(u) for u in near])
        assert {z.tobytes() for z in g} <= own

    def test_envelope_suite_checks_collapsed_envelope(self):
        rep = run_envelope_suite(seed=3, n_instances=30, n_points=300)
        by_name = {c["name"]: c for c in rep["checks"]}
        sandwich = by_name["collapsed_envelope_sandwich"]
        assert sandwich["min_slack_lower"] >= -1e-9
        assert sandwich["min_slack_upper"] >= -1e-9
        assert by_name["collapsed_acceptance_floor"]["min_margin"] >= -1e-9
        own = by_name["own_envelope_sandwich"]
        assert own["min_slack_lower"] >= -1e-9
        assert own["min_slack_upper"] >= -1e-9
        assert by_name["logsumexp_self_reward"]["max_dev"] <= 1e-12
        assert rep["passed"]

    def test_ulp_offsets_keep_the_largest(self):
        z, other = np.array([0.3, -0.7]), np.array([0.1, 0.2])
        b = 0.4
        up, down = np.nextafter(b, 1.0), np.nextafter(b, 0.0)
        up2 = np.nextafter(up, 1.0)
        near_z = np.array([np.nextafter(0.3, 1.0), -0.7])  # one ulp off
        env = ra.Envelope.from_pieces([z, z, other, z, near_z, z],
                                      [b, up, 1.0, up2, down, down])
        kept = _collapse_net_pieces(env)
        # groups in first-occurrence order; exact bytes, so a slope one
        # ulp away is a piece of its own
        assert np.array_equal(kept.slopes, [z, other, near_z])
        assert np.array_equal(kept.offsets, [up2, 1.0, down])

    def test_criterion3_instance_collapses_to_one_piece(self):
        # 37 net pieces on a black-box copy of one affine reward: one piece
        # kept, so G' = f + 1 and every candidate is accepted with
        # probability 1/e
        base, A, f, seed = criterion3_instance(2)
        f = dataclasses.replace(f, pieces=None, reduction=None)
        res = ra.sample_kl_aligned(base, A, f, eps=0.1, delta=0.05,
                                   seed=seed, n=2 * 10**4)
        assert (res.net_pieces, res.envelope.m) == (37, 1)
        rep = res.report()
        assert (rep["net_pieces"], rep["m"]) == (37, 1)
        params = ra.compute_params(base.support_radius, m=1, eps=0.1)
        assert res.params.N_rej == params.N_rej
        p = np.exp(-1.0)
        sd = np.sqrt(p * (1 - p) / res.proposal_draws)
        assert abs(res.acceptance_rate - p) <= 4 * sd
        target = oracle_kl_tilt(base, ra.LowRankReward(A, f))
        emp = empirical_to_discrete(res.batch.points, base.support_radius)
        assert tv_discrete(emp, target) <= 0.03

    def test_criterion3_instance_manifest(self, tmp_path):
        base, A, f, seed = criterion3_instance(2)
        model = tmp_path / "model.json"
        model.write_text(json.dumps(base.to_dict()))
        # one affine piece: its slope and offset are f's gradient and value
        # at the origin
        z, c = f.grad(np.zeros(f.k)), f.value(np.zeros(f.k))
        reward = tmp_path / "reward.json"
        reward.write_text(json.dumps({
            "type": "lowrank_maxaffine", "A": A.tolist(),
            "pieces": [[z.tolist(), c]], "L": f.lipschitz, "R": f.radius}))
        out = str(tmp_path / "out")
        rc = main(["align-kl", "--model", str(model), "--reward", str(reward),
                   "--n", "500", "--seed", str(seed), "--out", out])
        assert rc == 0
        manifest = json.loads(open(os.path.join(out, "manifest.json")).read())
        # a CLI reward has pieces: its one piece is its own envelope
        diag = manifest["diagnostics"]
        assert (diag["net_pieces"], diag["m"]) == (1, 1)
        assert manifest["derived_parameters"]["m"] == 1

    def test_explicit_envelope_used_as_given(self):
        # two exact log-sum-exp pieces sharing a slope: G = f only with
        # both, so an explicit envelope must not be collapsed
        rng = np.random.default_rng(6)
        base = random_discrete(rng, 6, 2)
        reward = ra.LogSumExpReward([1.0, 0.7], [[0.5], [0.5]],
                                    random_orthogonal_rows(rng, 1, 2))
        env = ra.Envelope.from_pieces(*reward.envelope_pieces())
        res = ra.sample_kl_aligned(base, reward.A, reward.f, eps=0.3,
                                   delta=0.05, seed=7, n=2000, envelope=env)
        assert res.envelope is env
        assert (res.net_pieces, res.params.m) == (2, 2)
        assert res.report()["net_pieces"] == res.report()["m"] == 2
        u = base.atoms @ reward.A.T
        acc = np.exp(np.asarray(reward.f.value(u)) - env.value(u))
        assert np.max(np.abs(acc - 1.0)) <= 1e-12
        assert abs(res.acceptance_rate - 1.0) < 0.03

    def test_distinct_slopes_unchanged(self):
        rng = np.random.default_rng(9)
        env = ra.Envelope.from_pieces(rng.standard_normal((6, 2)),
                                      rng.standard_normal(6))
        kept = _collapse_net_pieces(env)
        assert kept.slopes.tobytes() == env.slopes.tobytes()
        assert kept.offsets.tobytes() == env.offsets.tobytes()
        # a net envelope whose slopes are already distinct: |u| as
        # max(0, -u, u), with a net point at the kink, has slopes -1, 0, +1
        f = ra.make_max_affine([([0.0], 0.0), ([-1.0], 0.0), ([1.0], 0.0)])
        net = Net(points=np.array([[-1.0], [0.0], [1.0]]))
        env = ra.build_envelope(f, net)
        assert np.array_equal(env.slopes, [[-1.0], [0.0], [1.0]])
        kept = _collapse_net_pieces(env)
        assert kept.slopes.tobytes() == env.slopes.tobytes()
        assert kept.offsets.tobytes() == env.offsets.tobytes()


def random_pieces(rng, k, m):
    """m random pieces in k dimensions, offsets spread wide enough that
    some pieces are topped on the whole unit-scale ball."""
    return rng.standard_normal((m, k)), rng.uniform(-3.0, 3.0, m)


class TestOwnEnvelope:
    def test_sandwich_brute_force(self):
        # f <= G <= f + log m' on ball samples; G = f bit for bit for a
        # log-sum-exp f, which keeps all its pieces
        rng = np.random.default_rng(41)
        pruned = 0
        for _ in range(60):
            k, m = int(rng.integers(1, 4)), int(rng.integers(1, 9))
            R = float(rng.uniform(0.1, 2.0))
            z, b = random_pieces(rng, k, m)
            us = random_unit_ball(rng, 500, k, radius=R)
            f = ra.make_max_affine(list(zip(z, b)))
            env = own_envelope(f, R)
            pruned += m - env.m
            fv, gv = f.value(us), env.value(us)
            assert np.min(gv - fv) >= -1e-12
            assert np.min(fv + np.log(env.m) - gv) >= -1e-12
            f = make_logsumexp_function(np.exp(b), z)
            env = own_envelope(f, R)
            assert env.m == m
            assert np.array_equal(env.value(us), f.value(us))
        assert pruned > 0

    def test_prune_keeps_the_max_on_the_ball(self):
        # every dropped piece is topped on all of B(R): the max over the
        # kept pieces' scores is the max over all of them, bit for bit,
        # on the sphere and inside it
        rng = np.random.default_rng(42)
        for _ in range(60):
            k, m = int(rng.integers(1, 4)), int(rng.integers(2, 12))
            R = float(rng.uniform(0.1, 2.0))
            z, b = random_pieces(rng, k, m)
            f = ra.make_max_affine(list(zip(z, b)))
            kept = own_envelope(f, R)
            idx = [next(i for i in range(m) if np.array_equal(z[i], s))
                   for s in kept.slopes]
            us = random_unit_ball(rng, 400, k, radius=R)
            sphere = random_unit_ball(rng, 400, k)
            sphere *= R / np.linalg.norm(sphere, axis=1, keepdims=True)
            scores = np.vstack([us, sphere]) @ z.T + b
            assert np.array_equal(scores[:, idx].max(axis=1),
                                  scores.max(axis=1))

    def test_topped_and_equal_pieces(self):
        # on B(1): u - 2 lies under u; -u - 10 under u; the second copy
        # of u goes, the first stays; |u| keeps both pieces
        f = ra.make_max_affine([([1.0], 0.0), ([1.0], -2.0), ([-1.0], -10.0),
                                ([1.0], 0.0)])
        env = own_envelope(f, 1.0)
        assert np.array_equal(env.slopes, [[1.0]])
        assert np.array_equal(env.offsets, [0.0])
        # u tops -u - 2 exactly on B(1) (b_j - b_i = R ||z_j - z_i||): both
        # stay, since candidates can leave B(R) by rounding; on a ball past
        # that margin -u - 2 goes
        f = ra.make_max_affine([([-1.0], -2.0), ([1.0], 0.0)])
        assert own_envelope(f, 1.0).m == 2
        assert own_envelope(f, 1.0 - 1e-8).m == 1
        assert own_envelope(abs_function(), 1.0).m == 2

    def test_tie_on_the_sphere_with_an_atom_past_C(self):
        # the two pieces of max(1000u, -1000u - 2000) tie at u = -1, and an
        # atom at -(1 + 1e-12) <= C (1 + 1e-12) lies where the second is
        # 2e-9 above the first: it stays, so the envelope dominates f there
        base = ra.DiscreteModel([[-(1.0 + 1e-12)], [0.5]], [0.5, 0.5], 1.0)
        f = ra.make_max_affine([([1000.0], 0.0), ([-1000.0], -2000.0)])
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.3, delta=0.1,
                                   seed=1, n=100)
        assert res.envelope.m == 2

    def test_sampler_reads_pieces_not_oracles(self):
        # the pieces alone make the envelope: wrapping value, as the bench
        # tracer does, and dropping grad leave the sample bytes unchanged
        base = random_discrete(np.random.default_rng(43), 6, 1)
        f = ra.make_max_affine([([0.8], 0.0), ([-0.5], 0.1), ([0.1], -3.0)])
        f.radius = 1.0
        wrapped = dataclasses.replace(f, value=lambda u: f.value(u),
                                      grad=None)
        runs = [ra.sample_kl_aligned(base, np.eye(1), g, eps=0.1, delta=0.05,
                                     seed=44, n=500) for g in (f, wrapped)]
        assert runs[0].envelope.m == runs[0].net_pieces == 2
        assert np.array_equal(runs[0].batch.points, runs[1].batch.points)

    def test_bare_score_oracle_runs_at_one_piece(self):
        # max(u, -u - 10) on B(1) is u: its own envelope has one piece, so
        # the diffusion backend needs no Monte Carlo normalizer; both
        # pieces take theirs by path sampling over reverse passes, and
        # either way the run is on scores alone
        base = ra.score_oracle(ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5],
                                                1.0))
        f = ra.make_max_affine([([1.0], 0.0), ([-1.0], -10.0)])
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.1,
                                   seed=5, n=400, backend="diffusion")
        assert res.envelope.m == res.params.m == 1
        p1 = np.mean(res.batch.points[:, 0] > 0.5)
        assert abs(p1 - np.e / (1 + np.e)) < 0.08
        both = ra.Envelope.from_pieces(f.pieces.slopes, f.pieces.offsets)
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.1,
                                   seed=5, n=400, backend="diffusion",
                                   envelope=both)
        assert res.report()["normalizer"] == "mc, diffusion draws"
        p1 = np.mean(res.batch.points[:, 0] > 0.5)
        assert abs(p1 - np.e / (1 + np.e)) < 0.08

    def test_bare_score_oracle_reports_the_eta_it_ran(self, monkeypatch):
        # two pieces on a bare ScoreOracle take path-sampled normalizers:
        # the report holds one eta, the one they were estimated at
        seen = []
        estimate = ra.kl_align.estimate_normalizer

        def spy(*args, eta, **kwargs):
            seen.append(eta)
            return estimate(*args, eta=eta, **kwargs)

        monkeypatch.setattr(ra.kl_align, "estimate_normalizer", spy)
        base = ra.score_oracle(ra.DiscreteModel([[-1.0], [0.5]], [0.5, 0.5],
                                                1.0))
        f = ra.make_max_affine([([0.2], 0.0), ([-0.2], 0.0)])
        res = ra.sample_kl_aligned(base, np.eye(1), f, eps=0.5, delta=0.1,
                                   seed=2, n=50, backend="diffusion")
        rep = res.report()
        assert res.params.m == 2
        assert rep["normalizer"] == "mc, diffusion draws"
        assert [key for key in rep if key.startswith("eta")] == ["eta"]
        assert seen == [rep["eta"]] == [ra.kl_align.PATH_SAMPLING_ETA]
