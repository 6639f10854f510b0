import json
import os
import pathlib
import subprocess
import sys
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.special import chdtri, logsumexp
from scipy.stats import chi2, norm

import rewardalign as ra
from rewardalign.cli import main
from rewardalign.models import (DIFFUSION_STEP_CAP, ROW_BLOCK, SIGMA_MAX,
                                SIGMA_MIN, _categorical, _chi2_tail,
                                _group_rows, _logsumexp,
                                noised_log_density, norms,
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

    # seeds 8 and 47 at d = 1 put points near a decision boundary, where an
    # expansion around the origin, not the atoms' mean, lost a digit
    @pytest.mark.parametrize("seed, d", [(31, 1), (32, 2), (33, 3), (8, 1),
                                         (47, 1)],
                             ids=["1", "2", "3", "seed8-d1", "seed47-d1"])
    def test_atom_score_matches_unexpanded_softmax(self, seed, d):
        # score expands ||x - a x_j||^2; the reference softmax does not
        rng = np.random.default_rng(seed)
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

    def test_mixture_score_and_density_match_per_component_solve(self):
        # every noise level of a 48-step schedule; non-diagonal covariances,
        # so each component has e > 1 eigen-coordinates when d > 1
        lams = np.linspace(np.log(np.sqrt(1 - SIGMA_MAX**2) / SIGMA_MAX),
                           np.log(np.sqrt(1 - SIGMA_MIN**2) / SIGMA_MIN), 48)
        rng = np.random.default_rng(23)
        for J in (1, 3):
            for d in (1, 2, 3, 4):
                m = random_gmm(rng, d, J)
                xs = random_unit_ball(rng, 50, d, radius=2 * m.support_radius)
                for lam in lams:
                    sigma = 1.0 / np.sqrt(1.0 + np.exp(2.0 * lam))
                    a = np.sqrt(1 - sigma**2)
                    logp = np.empty((len(xs), J))
                    kernels = np.empty((len(xs), J, d))
                    for j in range(J):
                        S = a * a * m.covs[j] + sigma**2 * np.eye(d)
                        diff = xs - a * m.means[j]
                        sol = np.linalg.solve(S, diff.T).T
                        logp[:, j] = (np.log(m.weights[j])
                                      - 0.5 * np.sum(diff * sol, axis=1)
                                      - 0.5 * np.linalg.slogdet(S)[1]
                                      - 0.5 * d * np.log(2 * np.pi))
                        kernels[:, j] = -sol
                    dens = logsumexp(logp, axis=1)
                    resp = np.exp(logp - dens[:, None])
                    expected = np.einsum("nj,njd->nd", resp, kernels)
                    got = ra.score(m, sigma, xs)
                    assert np.max(np.abs(got - expected)) <= 1e-10, (J, d)
                    got = noised_log_density(m, sigma, xs)
                    assert np.all(np.abs(got - dens)
                                  <= 1e-10 * np.maximum(1, np.abs(dens)))

    def test_point_is_its_batch_row(self):
        # a point is a batch of one row.  Not bit for bit: BLAS picks its
        # kernel by the batch width, so a row's rounding moves with it (a
        # few ulps; 1e-15 relative at most here)
        for J in (1, 3):
            for d in (1, 2, 3, 4):
                rng = np.random.default_rng(10 * J + d)
                for m in (random_gmm(rng, d, J),
                          random_discrete(rng, J + 1, d, C=1.5)):
                    xs = random_unit_ball(rng, 7, d,
                                          radius=2 * m.support_radius)
                    for sigma in (SIGMA_MAX, 0.5, 1e-2, SIGMA_MIN):
                        sb = ra.score(m, sigma, xs)
                        db = noised_log_density(m, sigma, xs)
                        for x, s, dens in zip(xs, sb, db):
                            point = ra.score(m, sigma, x)
                            assert point.shape == (d,)
                            assert np.max(np.abs(point - s)) <= (
                                1e-14 * np.max(np.abs(s)))
                            assert noised_log_density(m, sigma, x) == (
                                pytest.approx(dens, rel=1e-14, abs=1e-14))


# every query entry on both families
QUERIES = {
    "score/gmm": lambda x: ra.score(std_normal_1d(), 0.5, x),
    "score/atoms": lambda x: ra.score(TWO_ATOMS, 0.5, x),
    "noised_log_density/gmm": lambda x: noised_log_density(std_normal_1d(),
                                                           0.5, x),
    "noised_log_density/atoms": lambda x: noised_log_density(TWO_ATOMS,
                                                             0.5, x),
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

    def test_redraw_cap_scales_with_n(self):
        # the right mode on the sphere: about half the mass leaks, so about
        # two tries per draw, and 2e6 draws make about 2e6 redraws
        half_out = ra.tilt_exact(fig1_gmm(), [6 / 0.49])
        pts = ra.sample_exact(half_out, 2 * 10**6, 3).points
        assert np.abs(pts).max() <= 8.0
        # slope 20 leaves about 3e-8 of its mass in the ball: refused
        gone = ra.tilt_exact(fig1_gmm(), [20.0])
        with pytest.raises(ra.ConfigurationError, match="support ball"):
            ra.sample_exact(gone, 1000, 3)

    def test_leaky_small_n_draws_in_rounds_of_need_over_p(self):
        # slope 18 leaves about 3e-5 of its mass in the ball, slope 20 about
        # 3e-8, both past n = 4 of the pre-draw refusal: rounds of need / p
        # rows serve the first and reach the redraw cap on the second (at
        # seed 0; about 3% of seeds land a row in the ball) in a few draws,
        # where one-row rounds took seconds
        for slope, n, served in ((18.0, 5, True), (20.0, 1, False)):
            law = ra.tilt_exact(fig1_gmm(), [slope])
            start = time.perf_counter()
            if served:
                pts = ra.sample_exact(law, n, 0).points
                assert pts.shape == (n, 1) and np.abs(pts).max() <= 8.0
            else:
                with pytest.raises(ra.ConfigurationError, match="failed"):
                    ra.sample_exact(law, n, 0)
            assert time.perf_counter() - start < 1.0

    def test_round_is_the_rows_to_redraw_with_every_mean_inside(
            self, monkeypatch):
        # ten weights of 0.1 put the in-ball bound at 1 - 1.1e-16: each
        # round is exactly the rows still missing (the last one's outside
        # rows), at most ROW_BLOCK, and the draw is each round's in-ball
        # rows, packed in draw order
        raw, rounds = ra.models._sample_gmm_raw, []

        def counted(model, n, rng):
            out = raw(model, n, rng)
            rounds.append((n, int(np.sum(norms(out) > 1.0))))
            return out

        monkeypatch.setattr(ra.models, "_sample_gmm_raw", counted)
        means = np.linspace(-0.9, 0.9, 10)[:, None]
        m = ra.GaussianMixtureModel([0.1] * 10, means, [[[0.09]]] * 10, 1.0,
                                    check_support=False)
        assert m._in_ball_bound < 1.0
        pts = ra.sample_exact(m, 50000, 0).points
        assert len(rounds) > 4 and rounds[-1][1] == 0
        need = 50000
        for rows, out in rounds:
            assert rows == min(need, ROW_BLOCK)
            need -= rows - out
        rng, want, need = np.random.default_rng(0), [], 50000
        while need:
            new = raw(m, min(need, ROW_BLOCK), rng)
            want.append(new[norms(new) <= 1.0])
            need -= len(want[-1])
        assert np.array_equal(pts, np.concatenate(want))

    @staticmethod
    def _ball_gmm(d, J=3):
        """J isotropic components of sd 0.1 near the origin of R^d, in the
        ball of radius 4: no raw draw lands outside it."""
        means = 0.05 * np.random.default_rng(d).standard_normal((J, d))
        return ra.GaussianMixtureModel([1 / J] * J, means,
                                       [0.01 * np.eye(d)] * J, 4.0)

    @staticmethod
    def _counted(monkeypatch):
        raw, rows = ra.models._sample_gmm_raw, []

        def counted(model, n, rng):
            rows.append(n)
            return raw(model, n, rng)

        monkeypatch.setattr(ra.models, "_sample_gmm_raw", counted)
        return rows

    def test_every_round_draws_at_most_the_row_cap(self, monkeypatch):
        # the first round too: 2^20 / 40^2 rounds up to 656 rows, so 2000
        # draws take four rounds, and with nothing rejected they are the
        # rounds' raw draws in order
        m, raw = self._ball_gmm(40), ra.models._sample_gmm_raw
        rows = self._counted(monkeypatch)
        pts = ra.sample_exact(m, 2000, 5).points
        assert rows == [656, 656, 656, 32]
        rng = np.random.default_rng(5)
        want = [raw(m, k, rng) for k in rows]
        assert np.array_equal(pts, np.concatenate(want))
        # a leaky law's redraw rounds keep the cap: slope 400 moves every
        # mean onto the sphere, and about half the draws fall outside
        rows.clear()
        half_out = ra.tilt_exact(m, [400.0] + [0.0] * 39)
        pts = ra.sample_exact(half_out, 2000, 5).points
        assert max(rows) == 656 and sum(rows) > 3000
        assert norms(pts).max() <= 4.0

    def test_round_that_rejects_nothing_is_the_raw_draw(self, monkeypatch):
        # one round that keeps every row hands on the array it drew
        m, drawn = self._ball_gmm(3), []
        raw = ra.models._sample_gmm_raw

        def kept(model, n, rng):
            drawn.append(raw(model, n, rng))
            return drawn[-1]

        monkeypatch.setattr(ra.models, "_sample_gmm_raw", kept)
        pts = ra.sample_exact(m, 400, 7).points
        assert len(drawn) == 1 and pts is drawn[0]
        assert np.array_equal(pts, raw(m, 400, np.random.default_rng(7)))

    def test_large_d_draw_memory_is_bounded(self):
        # d = 200, J = 3, n = 5000: rounds of 27 rows hold a (27, d, d)
        # factor gather, where one (n, d, d) gather took 1.5 GiB
        m = self._ball_gmm(200)
        tracemalloc.start()
        try:
            pts = ra.sample_exact(m, 5000, 0).points
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pts.shape == (5000, 200) and peak < 64 * 2**20, peak

    def test_refused_leaky_draw_spends_at_most_its_budget(self, monkeypatch):
        # slope 20, n = 1: past the pre-draw refusal, but no row of the
        # budget of 1e6 + 11 n raw draws lands in the ball at seed 0
        rows = self._counted(monkeypatch)
        law = ra.tilt_exact(fig1_gmm(), [20.0])
        with pytest.raises(ra.ConfigurationError, match="failed"):
            ra.sample_exact(law, 1, 0)
        assert 0 < sum(rows) <= 10**6 + 11

    def test_few_in_ball_draws_refused_before_any_draw(self):
        # slope 20: mu = N p ~ 0.03 expected in-ball raw draws, so n of them
        # are out of reach, n = 5 by the n-subset union bound mu^n / n!
        gone = ra.tilt_exact(fig1_gmm(), [20.0])
        for n in (1000, 5):
            rng = np.random.default_rng(3)
            state = rng.bit_generator.state
            with pytest.raises(ra.ConfigurationError, match="would fail"):
                ra.sample_exact(gone, n, rng)
            assert rng.bit_generator.state == state

    def test_refused_before_any_draw(self):
        # the normal tail along the mean bounds the in-ball mass (in 1-D
        # the bound is one side of the exact interval mass; 1 inside)
        for mu in (0.5, 1.5, 3.0):
            m = ra.GaussianMixtureModel([1.0], [[mu]], [[[0.04]]], 1.0,
                                        check_support=False)
            inside = norm.cdf((1 - mu) / 0.2) - norm.cdf((-1 - mu) / 0.2)
            assert m._in_ball_bound >= inside
        # both means far out: refused with no draw from the stream
        far = ra.GaussianMixtureModel([0.5, 0.5], [[30.0, 40.0], [-50.0, 0]],
                                      [np.eye(2) * 0.01] * 2, 1.0,
                                      check_support=False)
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        with pytest.raises(ra.ConfigurationError, match="support ball"):
            ra.sample_exact(far, 5, rng)
        assert rng.bit_generator.state == state

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


class TestCategorical:
    # a zero entry between positive ones; chi-square p-values >= 1e-3
    P = np.array([0.1, 0.0, 0.25, 0.4, 0.25])

    def _pvalue(self, idx):
        counts = np.bincount(idx, minlength=len(self.P))
        assert counts[1] == 0
        pos = self.P > 0
        expected = len(idx) * self.P[pos]
        stat = np.sum((counts[pos] - expected) ** 2 / expected)
        return chi2.sf(stat, pos.sum() - 1)

    def test_counts_follow_p(self):
        idx = _categorical(self.P, 10**5, np.random.default_rng(5))
        assert idx.shape == (10**5,) and idx.dtype == np.intp
        assert self._pvalue(idx) >= 1e-3

    def test_first_and_last_positions_follow_p(self):
        # unshuffled, position 0 would hold the lowest index drawn and
        # position n - 1 the highest
        rng = np.random.default_rng(6)
        ends = np.array([_categorical(self.P, 50, rng)[[0, -1]]
                         for _ in range(4000)])
        for col in ends.T:
            assert self._pvalue(col) >= 1e-3

    @pytest.mark.parametrize("p", [[1.0], [0.0, 1 + 5e-13, 0.0]])
    def test_one_index_draws_nothing(self, p):
        rng = np.random.default_rng(7)
        state = rng.bit_generator.state
        idx = _categorical(np.array(p), 9, rng)
        assert idx.dtype == np.intp
        assert np.array_equal(idx, np.full(9, np.argmax(p)))
        assert rng.bit_generator.state == state


def test_one_categorical_draw():
    # _categorical is the library's one categorical draw: no module calls
    # a generator's choice (argparse's choices= does not match)
    root = pathlib.Path(ra.__file__).parent
    calls = [f"{path.name}:{i}" for path in sorted(root.rglob("*.py"))
             for i, line in enumerate(path.read_text().splitlines(), 1)
             if ".choice(" in line]
    assert calls == []


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

    def test_only_rows_outside_are_scaled(self):
        # an inside row keeps its bytes and is never divided: at radius
        # 1.7e308, radius / ||1e-300|| would pass the float max
        pts = np.array([[1e-300, 0.0], [0.0, 0.0], [3e307, 4e307],
                        [1.25e308, 1.25e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = ra.project_ball(pts, 1.7e308)
        assert np.array_equal(out[:3], pts[:3])
        r = norms(pts[3:])
        assert np.array_equal(out[3:], pts[3:] * (1.7e308 / r)[:, None])

    def test_norms_past_the_square_underflow(self):
        # ||x||^2 underflows to a subnormal or to 0: scaled like an overflow
        rows = [[1e-300, 0.0], [3e-160, 4e-160], [0.0, 0.0], [3.0, 4.0]]
        assert norms(rows).tolist() == [1e-300, 5e-160, 0.0, 5.0]

    def test_norm_past_the_square_overflow(self):
        # ||x||^2 overflows, ||x|| does not: the sphere point, not 0
        for x in (np.array([3e200, 4e200]), np.array([[3e200, 4e200]])):
            out = ra.project_ball(x, 1.0)
            assert out.shape == x.shape
            assert out.ravel() == pytest.approx([0.6, 0.8], rel=1e-15)

    def test_norm_past_the_float_max(self):
        # ||x|| itself is inf for a finite row: radius / inf would send it
        # to 0; divided by its largest |entry| first it lands on the sphere
        pts = np.array([[1.5e308, 1.5e308], [-1.5e308, 1e308],
                        [1e-300, 0.0], [3e307, 4e307]])
        for x in (pts, pts[0]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                out = ra.project_ball(x, 1.7e308)
            assert out.shape == x.shape
        out = ra.project_ball(pts, 1.7e308)
        w = np.array([[1.0, 1.0], [-1.0, 1.0 / 1.5]])
        assert np.allclose(out[:2], w * (1.7e308 / norms(w))[:, None],
                           rtol=1e-15, atol=0)
        assert norms(out[:2]) == pytest.approx([1.7e308] * 2, rel=1e-15)
        assert np.array_equal(out[2:], pts[2:])


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
        batch = ra.sample_linear_tilt(TWO_ATOMS, np.array([1.0]), 31, n=n,
                                      steps=recommended_steps(0.0625, 1.0))
        p = np.e / (1 + np.e)
        mass = np.mean(batch.points[:, 0] > 0.5)
        assert abs(mass - p) <= 4 * np.sqrt(p * (1 - p) / n), mass

    def test_broken_oracle_detected(self):
        bad = ra.ScoreOracle(fn=lambda s, x: x * np.nan, d=1, C=1.0)
        with pytest.raises(ra.NumericalError):
            ra.sample_via_diffusion(bad, n=2, steps=10, seed=0)

    def test_wrong_shaped_oracle_refused(self):
        for shape in ((2,), (2, 2), (1, 1)):
            bad = ra.ScoreOracle(fn=lambda s, x: np.zeros(shape), d=1, C=1.0)
            with pytest.raises(ra.ValidationError, match="returned shape"):
                ra.sample_via_diffusion(bad, n=2, steps=10, seed=0)

    def test_no_write_through_to_the_score(self):
        # an oracle may hand back the same array on every call; the sampler
        # must neither write into it nor draw differently from fresh copies
        cached = np.random.default_rng(4).standard_normal((50, 2))
        kept = cached.copy()
        draws = [ra.sample_via_diffusion(
            ra.ScoreOracle(fn=fn, d=2, C=10.0), n=50, steps=30, seed=8)
            for fn in (lambda s, x: cached, lambda s, x: cached.copy())]
        assert np.array_equal(cached, kept)
        assert draws[0].points.tobytes() == draws[1].points.tobytes()

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
    x = ra.sample_linear_tilt(TWO_ATOMS, v, 23, n=4 * 10**4,
                              steps=steps).points
    target = ra.metrics.oracle_kl_tilt(TWO_ATOMS, ra.LinearReward(v))
    row.append(ra.metrics.w2_discrete(
        ra.metrics.empirical_to_discrete(x, 1.0), target))
    row.append(np.mean(x[:, 0] > 0.5))
    return row


class TestStepRule:
    """The measurements ``recommended_steps`` rests on.

    Against exact draws the Gaussian columns come within 1.4 times their
    n = 1e4 sampling floor by 25 steps; below that the mixture's W2 is up
    to 6.5 times the floor and the atom mass overshoots.  The atom mass
    settles at 0.7267, 2 sd under e/(1+e) = 0.7311 at n = 4e4; over eight
    seeds at 400 steps it averages 0.7285.  That bias of about 0.003
    comes from the start at SIGMA_MAX, not from the step count, and it
    keeps W2 on atoms near 0.05 whatever the steps.
    """

    # steps: W2 fig-1 mixture, W2 N(0, 1), W2 tilted atoms, mass on atom 1
    TABLE = {
        10: (0.19563, 0.05005, 0.09160, 0.73945),
        15: (0.08421, 0.03905, 0.02582, 0.73172),
        25: (0.03555, 0.02487, 0.05393, 0.72815),
        30: (0.03164, 0.02246, 0.05881, 0.72760),
        48: (0.03027, 0.01967, 0.06429, 0.72693),
        96: (0.03126, 0.01870, 0.06621, 0.72667),
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

    def test_atom_norm_past_the_square_overflow(self):
        # ||atom||^2 overflows, ||atom|| = C does not (every test runs with
        # RuntimeWarning as an error)
        m = ra.DiscreteModel([[1.7e308]], [1.0], 1.7e308)
        assert m.support_radius == 1.7e308
        with pytest.raises(ra.ValidationError, match="norm <= C"):
            ra.DiscreteModel([[1.7e308, 1.7e308]], [1.0], 1.7e308)

    def test_bad_weights_rejected(self):
        with pytest.raises(ra.ValidationError):
            ra.DiscreteModel([[0.0], [1.0]], [0.6, 0.6], 1.0)
        with pytest.raises(ra.ValidationError):
            ra.model_from_dict({"type": "mystery"})


    @pytest.mark.parametrize("owner", ["oracle", "gmm", "discrete"])
    def test_non_scalar_radius_refused(self, owner, tmp_path, capsys):
        # C = [1, 2] is finite entry by entry: each owner of a radius
        # refuses it as not one number, and a model spec with it exits 2
        C = [1.0, 2.0]
        build = {"oracle": lambda: ra.ScoreOracle(fn=lambda s, x: -x, d=1,
                                                  C=C),
                 "gmm": lambda: ra.GaussianMixtureModel([1.0], [[0.0]],
                                                        [[[0.01]]], C),
                 "discrete": lambda: ra.DiscreteModel([[0.0]], [1.0], C)}
        with pytest.raises(ra.ValidationError, match="^C must be one number"):
            build[owner]()
        if owner != "oracle":
            spec = {"gmm": {"type": "gmm", "weights": [1.0],
                            "means": [[0.0]], "covs": [[[0.01]]]},
                    "discrete": {"type": "discrete", "atoms": [[0.0]],
                                 "probs": [1.0]}}[owner]
            path = tmp_path / "model.json"
            path.write_text(json.dumps({**spec, "C": C}))
            assert main(["estimate-z", "--model", str(path), "--v", "1"]) == 2


class TestMixtureChecks:
    @pytest.mark.parametrize("C", [1e154, 1.7e308])
    @pytest.mark.parametrize("d", [1, 3])
    def test_huge_radius_loads_without_warning(self, C, d):
        # (C / sd)^2 passes the float max: the tail there is 0, with no
        # overflow warning (and no NaN tail at d >= 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            m = ra.GaussianMixtureModel([1.0], np.zeros((1, d)),
                                        0.01 * np.eye(d), C)
        assert m.mass_outside_ball() == 0.0

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
        # the library's closed-form tail against chi2.sf, far into the
        # tail; random_gmm's scipy.special quantile is chi2.isf's bytes
        x = np.linspace(0.0, 1000.0, 2001)
        for d in range(1, 41):
            tail = [_chi2_tail(d, v) for v in x.tolist()]
            np.testing.assert_allclose(tail, chi2.sf(x, df=d), rtol=1e-12,
                                       atol=0)
            assert chdtri(d, 1e-13) == chi2.isf(1e-13, df=d)
        # e^-x/2 alone underflows here; the log-domain terms do not
        assert _chi2_tail(2000, 2000.0) == pytest.approx(
            chi2.sf(2000.0, df=2000), rel=1e-12)

    def test_tail_at_infinity_is_zero(self):
        # h^p e^-h at h = inf is inf * 0 in logs; the tail there is 0
        assert [_chi2_tail(d, np.inf) for d in (1, 2, 3, 4)] == [0.0] * 4

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


def _run_python(code: str) -> str:
    out = subprocess.run([sys.executable, "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)})
    return out.stdout.strip()


class TestImports:
    def test_import_leaves_out_scipy(self):
        # scipy loads on first use of a reference check, never at import;
        # so no scipy.stats either (the construction-time tail bound is
        # the closed-form _chi2_tail)
        code = ("import sys, rewardalign, rewardalign.metrics, "
                "rewardalign.validate; "
                "print(sorted(m for m in sys.modules "
                "if m.split('.')[0] == 'scipy'))")
        assert _run_python(code) == "[]"

    def test_sampler_passes_import_nothing(self):
        # a module a pass imports lazily is paid inside the first timed
        # pass (np.unique pulls in numpy.ma, np.random its generators)
        code = """
import sys
import numpy as np
import rewardalign as ra
before = set(sys.modules)
atoms = ra.DiscreteModel([[-0.5], [0.0], [0.5]], [0.3, 0.3, 0.4], 1.0)
gmm = ra.GaussianMixtureModel([0.5, 0.5], [[-1.0], [1.0]],
                              [[[0.1]], [[0.1]]], 4.0)
tied = ra.make_max_affine([([1.0], 0.0), ([1.0], 0.0), ([-1.0], 0.0)])
tied.radius = 1.0
f = ra.make_max_affine([([0.5], 0.0), ([-0.5], 0.1)])
f.radius = 4.0
eye = np.eye(1)
kl = dict(eps=0.5, delta=0.1, n=5)
ra.sample_kl_aligned(atoms, eye, tied, seed=1, **kl)
ra.sample_kl_aligned(gmm, eye, f, seed=2, **kl)
ra.sample_kl_aligned(atoms, eye, tied, seed=3, backend="diffusion", **kl)
quad = ra.QuadraticReward([[0.4]], [0.3])
lse = ra.LogSumExpReward([1.0, 0.5], [[1.0], [-0.8]], eye)
ra.sample_w2_aligned(atoms, quad, lam=0.5, n=5, seed=4, backend="quad")
ra.sample_w2_aligned(atoms, quad, lam=0.5, n=5, seed=5, backend="pga")
ra.sample_w2_aligned(atoms, lse, lam=0.3, n=5, seed=6, backend="lowrank",
                     eps=0.3)
print(sorted(set(sys.modules) - before))
"""
        assert _run_python(code) == "[]"


class TestGroupRows:
    @staticmethod
    def _unique(rows):
        rows = np.ascontiguousarray(rows)
        keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
        _, first, group = np.unique(keys.ravel(), return_index=True,
                                    return_inverse=True)
        return first, group

    @pytest.mark.parametrize("case", ["repeats", "signed_zero", "ties",
                                      "empty"])
    def test_equals_np_unique(self, case):
        rng = np.random.default_rng(5)
        if case == "repeats":
            rows = rng.random((12, 3))[rng.integers(0, 12, 60)]
        elif case == "signed_zero":
            # -0.0 == 0.0 as floats, but the bytes differ: two groups
            rows = np.array([[0.0, 1.0], [-0.0, 1.0], [0.0, 1.0],
                             [-0.0, 1.0], [1.0, -0.0]])
        elif case == "ties":
            rows = rng.random((40, 4)) > 0.6
        else:
            rows = np.zeros((0, 3), dtype=bool)
        first, group = _group_rows(rows)
        want_first, want_group = self._unique(rows)
        assert np.array_equal(first, want_first)
        assert np.array_equal(group, want_group)
        if case == "signed_zero":
            assert first.size == 3


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
    (lambda A, pieces, R: ra.reward_from_dict(
        {"type": "lowrank_maxaffine", "A": A, "pieces": pieces, "R": R}),
     ([[1.0, 0.5]], [[[1.0], 0.0]], 2.0)),
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


@pytest.mark.parametrize("build, name", [
    (lambda: ra.make_max_affine([([1.0], 0.0), ([1.0, 2.0], 0.0)]), "slopes"),
    (lambda: ra.DiscreteModel([[0.0], [0.5, 1.0]], [0.5, 0.5], 1.0), "atoms"),
    (lambda: ra.LinearReward("ab"), "theta"),
    (lambda: ra.QuadraticReward([[1.0]], [{}], 0.0), "b"),
], ids=["max-affine", "atoms", "theta", "b"])
def test_ragged_or_non_numeric_entry_rejected(build, name):
    # numpy cannot read these as one float array: a validation error
    # naming the input, not numpy's ValueError or TypeError
    with pytest.raises(ra.ValidationError, match=name):
        build()


def test_envelope_shapes_and_sample_gate():
    for slopes, offsets in (([[1.0], [2.0]], [0.0]), ([[1.0]], [[0.0]]),
                            (np.zeros((0, 2)), np.zeros(0))):
        with pytest.raises(ra.ValidationError, match="envelope"):
            ra.Envelope(np.asarray(slopes), np.asarray(offsets))
    # the radius: inf, null or no R declares no ball
    for R in ({"R": np.inf}, {"R": None}, {}):
        spec = {"type": "lowrank_maxaffine", "A": [[1.0]],
                "pieces": [[[1.0], 0.0]], **R}
        assert ra.reward_from_dict(spec).f.radius == np.inf
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


@pytest.mark.parametrize("n", [0, -1, 2.0, 2.5, True])
def test_one_count_check_for_every_sampler(n):
    base = ra.DiscreteModel([[0.0], [0.5]], [0.5, 0.5], 1.0)
    reward = ra.QuadraticReward([[0.15]], [0.6])
    for draw in (lambda: ra.sample_exact(base, n, 0),
                 lambda: ra.sample_via_diffusion(ra.score_oracle(base), n=n,
                                                 steps=5, seed=0),
                 lambda: ra.sample_w2_aligned(base, reward, 0.15, n, 0),
                 lambda: ra.sample_kl_aligned(base, [[1.0]], _abs_f(), 0.1,
                                              0.05, 0, n=n)):
        with pytest.raises(ra.ValidationError, match="n must be"):
            draw()


class TestBareScoreOracle:
    """A ScoreOracle that wraps ``score(model, .)`` and exposes nothing
    else, as the base of every sampler path."""

    model = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
    linear = ra.make_max_affine([([1.0], 0.0)])  # one envelope piece

    def bare(self):
        return ra.ScoreOracle(fn=lambda s, x: ra.score(self.model, s, x),
                              d=1, C=1.0)

    @pytest.mark.parametrize("name, value", [
        ("d", 1.5), ("d", True), ("d", -1), ("d", 0), ("d", "1"),
        ("C", -1.0), ("C", 0.0), ("C", np.nan), ("C", np.inf), ("C", "x")])
    def test_bad_d_or_C_refused_at_construction(self, name, value):
        args = {"fn": self.bare().fn, "d": 1, "C": 1.0, name: value}
        with pytest.raises(ra.ValidationError, match=f"^{name} must"):
            ra.ScoreOracle(**args)

    def test_producer_names_a_bare_oracle(self):
        batch = ra.sample_via_diffusion(self.bare(), n=2, steps=10, seed=0)
        assert batch.producer == "diffusion/oracle/steps=10"
        exact = ra.sample_via_diffusion(ra.score_oracle(self.model), n=2,
                                        steps=10, seed=0)
        assert exact.producer == "diffusion/exact_DiscreteModel/steps=10"

    @pytest.mark.parametrize("path", [
        lambda b, f: ra.sample_kl_aligned(b, [[1.0]], f, 0.5, 0.1, 0, 5,
                                          backend="exact"),
        lambda b, f: ra.sample_w2_aligned(b, ra.LinearReward([1.0]), 0.5, 5,
                                          0, base_backend="exact"),
        lambda b, f: ra.estimate_normalizer(b, [1.0], 0.1, 0.1,
                                            backend="exact"),
        lambda b, f: ra.sample_exact(b, 5, 0),
        lambda b, f: ra.tilt_exact(b, [1.0]),
        lambda b, f: ra.sample_linear_tilt(b, [1.0], 0, steps=None),
    ], ids=["kl-exact", "w2-exact-base", "normalizer-exact", "sample-exact",
            "tilt-exact", "linear-tilt-exact"])
    def test_closed_form_paths_refuse_it(self, path):
        with pytest.raises(ra.CapabilityError, match="no closed forms"):
            path(self.bare(), self.linear)

    @pytest.mark.parametrize("entry", ["kl", "w2", "normalizer"])
    def test_default_route_follows_the_base(self, entry):
        # the draw rule: by default a closed-form model takes the exact
        # route and a bare oracle the diffusion (on normalizers, mc) route,
        # each the same bytes as that route named explicitly
        run, key, oracle_route = {
            "kl": (lambda b, **kw: ra.sample_kl_aligned(
                b, [[1.0]], self.linear, 0.5, 0.1, 3, 20, **kw).batch.points,
                "backend", "diffusion"),
            "w2": (lambda b, **kw: ra.sample_w2_aligned(
                b, ra.LinearReward([1.0]), 0.5, 20, 3, **kw).xs,
                "base_backend", "diffusion"),
            "normalizer": (lambda b, **kw: ra.estimate_normalizer(
                b, [1.0], 0.5, 0.5, seed=3, **kw).log_value, "backend", "mc"),
        }[entry]
        for base, route in ((self.model, "exact"),
                            (self.bare(), oracle_route)):
            assert (np.asarray(run(base)).tobytes()
                    == np.asarray(run(base, **{key: route})).tobytes())

    @pytest.mark.parametrize("path", ["normalizer-mc", "kl-diffusion-m2"])
    def test_bare_oracle_runs_at_m2(self, monkeypatch, path):
        # |u| on atoms {-1, 0.5} (test_diffusion_backend_distinct_tilts),
        # from an oracle that holds no model and with every exact draw
        # patched to raise: the two tilt normalizers and the KL draws come
        # from reverse passes on the oracle's scores alone
        atoms, log_p = np.array([[-1.0], [0.5]]), np.log([0.5, 0.5])

        def fn(sigma, x):  # score of a X + sigma Z: (E[a X | x] - x) / s2
            a, s2 = np.sqrt(1.0 - sigma**2), sigma**2
            logw = log_p - ((x[:, None, :] - a * atoms)**2).sum(-1) / (2 * s2)
            w = np.exp(logw - logw.max(axis=1, keepdims=True))
            return (a * (w / w.sum(axis=1, keepdims=True)) @ atoms - x) / s2

        oracle = ra.ScoreOracle(fn=fn, d=1, C=1.0, tag="bare")
        model = ra.DiscreteModel(atoms, [0.5, 0.5], 1.0)
        x = np.linspace(-1.5, 1.5, 7)[:, None]
        for sigma in (0.01, 0.5, 0.99):
            assert np.allclose(oracle(sigma, x), ra.score(model, sigma, x),
                               rtol=1e-9, atol=1e-9)

        def no_exact(*args, **kwargs):
            raise AssertionError("an exact draw on the oracle path")

        for module in (ra.models, ra.tilts, ra.kl_align):
            monkeypatch.setattr(module, "sample_exact", no_exact)
        if path == "normalizer-mc":
            V = np.array([[-1.0], [1.0]])
            est = ra.estimate_normalizer(oracle, V, eta=0.1, delta=0.1,
                                         seed=0, backend="mc")
            assert est.method == "mc, diffusion draws" and est.n_draws > 0
            err = np.expm1(est.log_value - ra.tilts.log_normalizer_exact(
                model, V))
            assert np.all(np.abs(err) <= 0.1)
            return
        kink = ra.make_max_affine([(np.array([1.0]), 0.0),
                                   (np.array([-1.0]), 0.0)])
        kink.radius = 1.0
        res = ra.sample_kl_aligned(oracle, np.eye(1), kink, eps=0.5,
                                   delta=0.1, seed=1, n=400,
                                   backend="diffusion")
        assert res.envelope.m == len(np.unique(res.proposal.tilt_vectors)) == 2
        p_left = np.mean(res.batch.points[:, 0] < -0.25)
        assert abs(p_left - 1.0 / (1.0 + np.exp(-0.5))) < 0.08
        assert res.report()["normalizer"] == "mc, diffusion draws"

    @pytest.mark.parametrize("run", [
        lambda b, f: ra.sample_w2_aligned(
            b, ra.LinearReward([1.0]), 0.5, 30, 4, backend="pga",
            base_backend="diffusion").xs,
        lambda b, f: ra.sample_kl_aligned(
            b, [[1.0]], ra.make_max_affine([([0.0], 0.0)]), 0.5, 0.1, 4, 30,
            backend="diffusion").batch.points,
        lambda b, f: ra.sample_kl_aligned(b, [[1.0]], f, 0.5, 0.1, 4, 30,
                                          backend="diffusion").batch.points,
    ], ids=["w2-diffusion-base", "kl-base-shortcut", "kl-diffusion-m1"])
    def test_diffusion_paths_draw_the_models_bytes(self, run):
        assert (run(self.bare(), self.linear).tobytes()
                == run(self.model, self.linear).tobytes())


def _closed_form_bases():
    """Atoms in d = 1-3 and full-covariance mixtures (e = d, J >= 3)."""
    rng = np.random.default_rng(51)
    atoms = [random_discrete(rng, 6, d, C=1.5) for d in (1, 2, 3)]
    return atoms + [random_gmm(rng, d, J) for d, J in ((1, 3), (2, 3),
                                                        (3, 4))]


class TestNoiseTable:
    """The per-pass noise tables of ``sample_via_diffusion``: every
    sigma-only factor of a closed-form score, formed once per pass."""

    @pytest.mark.parametrize("model", _closed_form_bases(),
                             ids=["atoms-d1", "atoms-d2", "atoms-d3",
                                  "gmm-d1", "gmm-d2", "gmm-d3"])
    def test_float_sigma_is_its_table_row(self, model):
        # SIGMA_MAX, a middle level and SIGMA_MIN inside one block of a
        # 41-level table: a float sigma builds its one-row table and runs
        # the same kernel, bit for bit
        sig = np.geomspace(SIGMA_MAX, SIGMA_MIN, 41)
        xs = random_unit_ball(np.random.default_rng(52), 30, model.d,
                              radius=2 * model.support_radius)
        out = np.empty((model.d, len(xs)))
        rows = list(ra.models._noise_rows(model, sig, len(xs), [out]))
        for t in (0, 20, 40):
            got = ra.score(model, rows[t], xs)
            want = ra.score(model, rows[t].sigma, xs)
            assert np.shares_memory(got, out)
            assert got.tobytes() == want.tobytes(), rows[t].sigma

    def test_blocks_hold_at_most_tilt_block_entries(self, monkeypatch):
        # a 300-step pass on a mixture whose factors take 48 entries per
        # level: blocks of three levels under a 144-entry cap, and the same
        # bytes as the pass in one block
        model = random_gmm(np.random.default_rng(53), 2, 3)
        oracle = ra.score_oracle(model)
        whole = ra.sample_via_diffusion(oracle, n=50, steps=300, seed=4)
        form = type(model)._noise_factors
        sizes = []

        def recorded(self, a, s2):
            factors = form(self, a, s2)
            sizes.append(sum(np.size(f) for f in factors))
            return factors

        monkeypatch.setattr(type(model), "_noise_factors", recorded)
        monkeypatch.setattr(ra.models, "TILT_BLOCK", 144)
        blocked = ra.sample_via_diffusion(oracle, n=50, steps=300, seed=4)
        assert len(sizes) == 100 and max(sizes) <= 144
        assert blocked.points.tobytes() == whole.points.tobytes()

    @pytest.mark.parametrize("d", [1, 3])
    def test_wide_atom_set_peak_memory(self, d):
        # 1e5 atoms: a level's factors outnumber TILT_BLOCK, so the table
        # holds one level at a time and the peak is one step's.  A score
        # call before the tables held the (J, n) log-weights, the (J, d)
        # slopes and two (J,) temporaries: (n + d + 2) J floats
        J, n = 100_000, 10
        rng = np.random.default_rng(54)
        model = ra.DiscreteModel(rng.uniform(-0.5, 0.5, (J, d)),
                                 np.full(J, 1.0 / J), 1.0)
        oracle = ra.score_oracle(model)
        ra.sample_via_diffusion(oracle, n=n, steps=2, seed=0)  # caches
        tracemalloc.start()
        try:
            ra.sample_via_diffusion(oracle, n=n, steps=20, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (n + d + 2) * J * 8

    def test_unreachable_query_raises(self):
        # y^2 overflows for both components: every log-weight is -inf
        with np.errstate(over="ignore"):
            with pytest.raises(ra.NumericalError, match="unreachable"):
                ra.score(fig1_gmm(), 0.5, np.array([[1e200]]))

    def test_non_finite_table_row_is_refused_naming_sigma(self,
                                                          monkeypatch):
        # a closed-form step's score is checked once, by the pass; a NaN
        # level makes a NaN score there, with no warning on the way
        model = fig1_gmm()
        form = type(model)._noise_factors

        def broken(self, a, s2):
            hvt, hmu, const = form(self, a, s2)
            const[len(a) // 2] = np.nan
            return hvt, hmu, const

        monkeypatch.setattr(type(model), "_noise_factors", broken)
        # the pass's nine levels, uniform in log-SNR: one block, NaN at 4
        lams = np.linspace(np.log(np.sqrt(1 - SIGMA_MAX**2) / SIGMA_MAX),
                           np.log(np.sqrt(1 - SIGMA_MIN**2) / SIGMA_MIN), 9)
        sigma = 1.0 / np.sqrt(1.0 + np.exp(2.0 * lams[4]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ra.NumericalError,
                               match=f"sigma={sigma:.3g}$"):
                ra.sample_via_diffusion(ra.score_oracle(model), n=20,
                                        steps=9, seed=0)

    def test_bare_oracle_nan_at_one_step_is_refused(self):
        model = fig1_gmm()
        calls = []

        def fn(sigma, x):
            calls.append(sigma)
            sc = ra.score(model, sigma, x)
            return sc * np.nan if len(calls) == 7 else sc

        oracle = ra.ScoreOracle(fn=fn, d=1, C=8.0)
        with pytest.raises(ra.NumericalError,
                           match="non-finite values at sigma=") as err:
            ra.sample_via_diffusion(oracle, n=20, steps=30, seed=0)
        assert f"sigma={calls[-1]:.3g}" in str(err.value)
        assert len(calls) == 7

    @pytest.mark.parametrize("tilts", [None, 2], ids=["untilted",
                                                      "row-tilts-m2"])
    @pytest.mark.parametrize("model", [
        random_gmm(np.random.default_rng(55), 3, 3),
        random_discrete(np.random.default_rng(56), 5, 2, C=1.5)],
        ids=["gmm-d3", "atoms-d2"])
    def test_pass_is_the_bare_oracle_pass(self, model, tilts):
        # the noise-table pass and a bare oracle wrapping score (floats
        # in, its own checks) draw the same bytes, tilted per row or not
        bare = ra.ScoreOracle(fn=lambda s, x: ra.score(model, s, x),
                              d=model.d, C=model.support_radius, tag="bare")
        V = None if tilts is None else np.linspace(
            -0.6, 0.8, tilts * model.d).reshape(tilts, model.d)
        draws = [ra.sample_linear_tilt(base, V, 9, n=200, steps=40,
                                       log_pi=None if V is None
                                       else np.log([0.3, 0.7]))
                 for base in (model, bare)]
        assert draws[0].points.tobytes() == draws[1].points.tobytes()
