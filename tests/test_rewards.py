import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rewardalign as ra
from rewardalign.kl_align import build_net
from rewardalign.rewards import (DOMAIN_SLACK, make_logsumexp_function,
                                 oracle_answer)
from rewardalign.validate import random_maxaffine, random_unit_ball


def abs_function():
    return ra.make_max_affine([(np.array([1.0]), 0.0), (np.array([-1.0]), 0.0)])


class TestEval:
    def test_linear_dot(self):
        r = ra.LinearReward([1.0, 2.0])
        assert r.value(np.array([3.0, 4.0])) == pytest.approx(11.0)

    def test_fig1_quadratic_vertex(self):
        r = ra.QuadraticReward([[0.15]], [0.6], c=-0.6)
        assert r.value(np.array([2.0])) == pytest.approx(0.0, abs=1e-15)
        assert r.value(np.array([0.0])) == pytest.approx(-0.6)

    def test_logsumexp_symmetry(self):
        r = ra.LogSumExpReward([1.0, 1.0], [[1.0], [-1.0]], [[1.0]])
        assert r.value(np.array([0.0])) == pytest.approx(np.log(2.0))

    def test_dimension_mismatch(self):
        r = ra.LinearReward([1.0, 2.0])
        with pytest.raises(Exception):
            r.value(np.array([1.0, 2.0, 3.0]))

    def test_batch_grad_matches_rows(self):
        rng = np.random.default_rng(40)
        for d in range(1, 6):
            M = rng.standard_normal((d, d))
            quad = ra.QuadraticReward(M @ M.T, rng.standard_normal(d))
            lin = ra.LinearReward(rng.standard_normal(d))
            xs = rng.standard_normal((25, d)) * 2.0
            for r in (quad, lin):
                g = r.grad(xs)
                assert g.shape == xs.shape
                for x, gx in zip(xs, g):
                    assert r.grad(x).shape == (d,)
                    assert np.max(np.abs(gx - r.grad(x))) <= 1e-12
            # the quadratic gradient is -2Bx + b at each row
            want = -2.0 * xs @ quad.B.T + quad.b
            assert np.max(np.abs(quad.grad(xs) - want)) <= 1e-12


class TestFirstOrder:
    @pytest.mark.parametrize("g, L, ok", [([np.inf], 1.0, False),
                                          ([1e200], 1e200, True)])
    def test_subgradient_norm_past_the_square_overflow(self, g, L, ok):
        # an inf subgradient exceeds every L; a finite one whose square
        # overflows is measured by its scaled norm, 1e200
        f = ra.LowDimFunction(
            value=lambda u: np.zeros(len(np.atleast_2d(u))), k=1,
            lipschitz=L, radius=1.0, convex=True,
            grad=lambda u: np.tile(g, (len(np.atleast_2d(u)), 1)))
        if ok:
            assert ra.first_order(f, np.array([[0.5]]))[1][0, 0] == 1e200
        else:
            with pytest.raises(ra.ValidationError, match="inf exceeds"):
                ra.first_order(f, np.array([[0.5]]))

    def test_abs_away_from_kink(self):
        f = abs_function()
        f.radius = 2.0
        val, g = ra.first_order(f, np.array([0.5]))
        assert val == pytest.approx(0.5)
        assert g == pytest.approx([1.0])

    def test_abs_kink_first_piece_tiebreak(self):
        # the subdifferential of |u| = max(u, -u) at 0 is [-1, 1]; the
        # tie-break picks the first tied piece's slope, +1
        f = abs_function()
        f.radius = 1.0
        val, g = ra.first_order(f, np.array([0.0]))
        assert val == 0.0
        assert np.array_equal(g, [1.0])

    def test_2d_kink_first_piece(self):
        f = ra.make_max_affine([([1.0, 1.0], 0.0), ([1.0, -1.0], 0.0)])
        _, g = ra.first_order(f, np.array([0.5, 0.0]))
        assert np.array_equal(g, [1.0, 1.0])

    def test_quadratic_like_gradient(self):
        f = ra.LowDimFunction(
            value=lambda u: 0.5 * float(np.sum(np.asarray(u) ** 2)),
            k=2, lipschitz=2.0, radius=2.0,
            grad=lambda u: np.asarray(u, dtype=float), convex=True)
        val, g = ra.first_order(f, np.array([1.0, 1.0]))
        assert val == pytest.approx(1.0)
        assert g == pytest.approx([1.0, 1.0])

    def test_domain_gate(self):
        f = abs_function()
        f.radius = 1.0
        ra.first_order(f, np.array([1.0 * (1 + DOMAIN_SLACK) - 1e-9]))
        with pytest.raises(ra.ValidationError):
            ra.first_order(f, np.array([1.0 * (1 + DOMAIN_SLACK) + 1e-6]))

    @pytest.mark.parametrize("make", [
        abs_function,
        lambda: ra.make_max_affine([([1.0, 1.0], 0.0), ([1.0, -1.0], 0.0)]),
        lambda: make_logsumexp_function([0.5, 1.0, 2.0], [[1.0, 0.3],
                                                          [-0.7, 0.2],
                                                          [0.1, -1.1]]),
    ])
    def test_batch_equals_point_queries(self, make):
        f = make()
        f.radius = 1.0
        pts = build_net(f.k, 1.0, 0.05).points
        assert np.any(np.all(pts == 0.0, axis=1))
        vals, g = ra.first_order(f, pts)
        assert vals.shape == (len(pts),) and g.shape == pts.shape
        rows = [ra.first_order(f, u) for u in pts]
        assert np.array_equal(g, np.array([gu for _, gu in rows]))
        # the value oracle's point and batch products may differ by ulps
        assert np.allclose(vals, [v for v, _ in rows], rtol=0, atol=1e-14)
        if f.k == 1:  # |u| = max(u, -u): the first piece's +1 at the kink
            assert g[np.flatnonzero(pts[:, 0] == 0.0)[0]] == [1.0]

    def test_point_only_grad_rejects_batch(self):
        f = ra.LowDimFunction(
            value=lambda u: np.abs(np.asarray(u)[..., 0]), k=1,
            lipschitz=1.0, radius=1.0,
            grad=lambda u: np.array([np.sign(u[0])]), convex=True)
        _, g = ra.first_order(f, np.array([0.5]))
        assert g.shape == (1,)
        with pytest.raises(ra.ValidationError, match=r"batch \(n, k\)"):
            ra.first_order(f, np.array([[0.5], [-0.2], [0.1]]))

    def test_nonconvex_slope_above_declared_l(self):
        f = ra.LowDimFunction(
            value=lambda u: -np.sum(np.asarray(u) ** 2, axis=-1), k=1,
            lipschitz=0.5, radius=1.0, grad=lambda u: -2.0 * np.asarray(u),
            convex=False)
        ra.first_order(f, np.array([0.2]))
        with pytest.raises(ra.ValidationError, match="Lipschitz"):
            ra.first_order(f, np.array([0.8]))
        with pytest.raises(ra.ValidationError, match="Lipschitz"):
            ra.first_order(f, np.array([[0.1], [0.8]]))

    def test_missing_oracle(self):
        f = ra.LowDimFunction(value=lambda u: 0.0, k=1, lipschitz=0.0,
                              radius=1.0)
        with pytest.raises(ra.ValidationError):
            ra.first_order(f, np.array([0.0]))


def scalar_answer(value):
    """A value oracle that answers any query with one number."""
    return lambda x: float(np.ravel(value(x))[0])


def nan_answer(value):
    """A value oracle whose answer at the first queried row is NaN."""
    def broken(x):
        out = np.array(value(x), dtype=float, ndmin=1)
        out[0] = np.nan
        return out
    return broken


def kl_explicit_envelope(breaks):
    base = ra.DiscreteModel([[-0.5], [0.0], [0.5]], [0.3, 0.3, 0.4], 1.0)
    reward = ra.LogSumExpReward([1.0, 1.0], [[1.0], [-1.0]], [[1.0]])
    f = dataclasses.replace(reward.f, value=breaks(reward.f.value))
    env = ra.Envelope.from_pieces(*reward.envelope_pieces())
    ra.sample_kl_aligned(base, reward.A, f, eps=0.3, delta=0.05, seed=1,
                         n=100, envelope=env)


def first_order_batch(breaks):
    f = abs_function()
    f.radius = 1.0
    ra.first_order(dataclasses.replace(f, value=breaks(f.value)),
                   np.array([[0.5], [-0.2], [0.1]]))


def alg2_prox_batch(breaks):
    f = ra.make_max_affine([(np.array([1.0]), 0.0)])
    ra.alg2_prox(ra.LowRankDecomp.from_matrix([[1.0, 0.0]]),
                 breaks(f.value), lam=1.0, y=np.array([[0.0, 0.5],
                                                       [0.3, -0.2]]),
                 C=1.0, eps=0.1, L=1.0)


def linear_reward(breaks):
    r = ra.LinearReward([0.3, -0.2])
    r.value = breaks(r.value)
    return r


def prox_concave_batch(breaks):
    ra.prox_concave(linear_reward(breaks), 0.5,
                    np.array([[0.1, 0.2], [0.0, 0.0]]), 1.0)


def objective_value_batch(breaks):
    ys = np.array([[0.1, 0.2], [0.0, 0.0]])
    ra.objective_value(ys, ys, linear_reward(breaks), 0.5)


GATED_SITES = [kl_explicit_envelope, first_order_batch, alg2_prox_batch,
               prox_concave_batch, objective_value_batch]


class TestOracleAnswerGate:
    """Every consumer of a reward oracle's answers goes through
    ``oracle_answer``: a batch answered with one number is a validation
    error (exit 2), a NaN answer a numerical one (exit 4)."""

    @pytest.mark.parametrize("site", GATED_SITES, ids=lambda s: s.__name__)
    def test_scalar_answer_to_a_batch(self, site):
        with pytest.raises(ra.ValidationError, match=r"batch \(n, k\)"):
            site(scalar_answer)

    @pytest.mark.parametrize("site", GATED_SITES, ids=lambda s: s.__name__)
    def test_nan_answer(self, site):
        with pytest.raises(ra.NumericalError, match="NaN"):
            site(nan_answer)

    def test_shapes(self):
        assert oracle_answer(2.5, 1).shape == (1,)
        assert oracle_answer(np.ones((3, 1)), 3).shape == (3,)
        assert oracle_answer(np.ones(2), 1, 2).shape == (1, 2)
        with pytest.raises(ra.ValidationError):  # (k, n) for (n, k)
            oracle_answer(np.ones((2, 3)), 3, 2)
        with pytest.raises(ra.ValidationError):
            oracle_answer(np.ones(4), 3)
        out = oracle_answer([np.inf, -np.inf], 2)  # +-inf is the caller's
        assert np.array_equal(out, [np.inf, -np.inf])


class TestMaxAffine:
    def test_abs_in_1d(self):
        f = abs_function()
        us = np.linspace(-2, 2, 41)[:, None]
        assert np.allclose(f.value(us), np.abs(us[:, 0]))
        assert f.lipschitz == 1.0

    def test_single_piece_affine(self):
        s, c = np.array([0.7, -0.3]), 0.2
        f = ra.make_max_affine([(s, c)])
        u = np.array([1.0, 2.0])
        assert f.value(u) == pytest.approx(s @ u + c)
        assert f.grad(u) == pytest.approx(s)

    def test_empty_rejected(self):
        with pytest.raises(ra.ValidationError):
            ra.make_max_affine([])

    def test_value_bytes_and_one_temporary(self):
        # same bytes as (u @ S' + c).max(1), with one (n, p) product alive
        rng = np.random.default_rng(4)
        S, c = rng.normal(size=(4, 2)), rng.normal(size=4)
        f = ra.make_max_affine(list(zip(S, c)))
        u = rng.normal(size=(10**5, 2))
        tracemalloc.start()
        try:
            vals = f.value(u)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(vals, (u @ S.T + c).max(axis=1))
        assert f.value(u[0]) == (u[0] @ S.T + c).max()
        assert peak < 1.5 * u.shape[0] * S.shape[0] * 8, peak

    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 10_000])
    def test_value_matches_row_formula(self, p, k):
        # n = 1e5 rows, or 100 at p = 1e4 so the product stays at 8 MB
        rng = np.random.default_rng(p + k)
        S, c = rng.normal(size=(p, k)), rng.normal(size=p)
        f = ra.make_max_affine(list(zip(S, c)))
        u = rng.normal(size=(10**5 if p < 10**4 else 100, k))
        direct = (u @ S.T + c).max(axis=1)
        vals = f.value(u)
        if k == 1:  # exact products, and the max is exact
            assert np.array_equal(vals, direct)
        else:
            assert np.allclose(vals, direct, rtol=0, atol=1e-12)
        assert f.value(u[3]) == pytest.approx(direct[3], rel=0, abs=1e-12)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(2)
        f = random_maxaffine(rng, 2, 3, L=1.0, R=1.0)
        u = random_unit_ball(rng, 1000, 2)
        v = random_unit_ball(rng, 1000, 2)
        mid = np.asarray(f.value((u + v) / 2))
        avg = (np.asarray(f.value(u)) + np.asarray(f.value(v))) / 2
        assert np.all(mid <= avg + 1e-12)


class TestConvexProperties:
    def test_subgradient_inequality(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            k = int(rng.integers(1, 4))
            f = random_maxaffine(rng, k, int(rng.integers(1, 6)), L=1.3, R=1.0)
            us = random_unit_ball(rng, 1000, k)
            vs = random_unit_ball(rng, 1000, k)
            fv = np.asarray(f.value(vs))
            for u, v, target in zip(us, vs, fv):
                fu, g = ra.first_order(f, u)
                assert target >= fu + g @ (v - u) - 1e-9

    def test_lipschitz_certificate(self):
        rng = np.random.default_rng(4)
        f = random_maxaffine(rng, 2, 4, L=0.9, R=1.5)
        us = random_unit_ball(rng, 1000, 2, radius=1.5)
        vs = random_unit_ball(rng, 1000, 2, radius=1.5)
        gap = np.abs(np.asarray(f.value(us)) - np.asarray(f.value(vs)))
        dist = np.linalg.norm(us - vs, axis=1)
        assert np.all(gap <= f.lipschitz * dist + 1e-9)

    def test_subgradient_norm_bounded(self):
        rng = np.random.default_rng(5)
        f = random_maxaffine(rng, 3, 5, L=1.1, R=1.0)
        for u in random_unit_ball(rng, 200, 3):
            _, g = ra.first_order(f, u)
            assert np.linalg.norm(g) <= f.lipschitz + 1e-12

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3),
                              st.floats(-1, 1)), min_size=1, max_size=6),
           st.floats(-1, 1), st.floats(-1, 1))
    @settings(max_examples=200, deadline=None)
    def test_max_affine_convexity_hypothesis(self, pieces, x, y):
        f = ra.make_max_affine([(np.array([a, b]), c) for a, b, c in pieces])
        u = np.array([x, y])
        v = np.array([y, x])
        mid = float(f.value((u + v) / 2))
        assert mid <= (float(f.value(u)) + float(f.value(v))) / 2 + 1e-9


class TestLogSumExp:
    def test_gradient_is_softmax_average(self):
        r = ra.LogSumExpReward([1.0, 2.0], [[1.0, 0.0], [0.0, 1.0]],
                               np.eye(2))
        u = np.array([0.3, -0.2])
        g = r.f.grad(u)
        h = 1e-6
        for i in range(2):
            e = np.zeros(2)
            e[i] = h
            fd = (r.f.value(u + e) - r.f.value(u - e)) / (2 * h)
            assert g[i] == pytest.approx(fd, abs=1e-8)

    def test_envelope_pieces_reproduce_value(self):
        r = ra.LogSumExpReward([0.5, 1.5], [[0.8], [-0.4]], [[1.0]])
        z, b = r.envelope_pieces()
        u = np.array([0.7])
        direct = np.log(np.sum(np.exp(b + z @ u)))
        assert r.f.value(u) == pytest.approx(direct)


    @pytest.mark.parametrize("k", [1, 2])
    @pytest.mark.parametrize("p", [1, 2, 10_000])
    def test_value_matches_row_formula(self, p, k):
        # n = 1e5 rows, or 100 at p = 1e4 so the product stays at 8 MB
        rng = np.random.default_rng(p + k)
        w, z = rng.uniform(0.1, 2.0, size=p), rng.normal(size=(p, k))
        f = make_logsumexp_function(w, z)
        u = rng.normal(size=(10**5 if p < 10**4 else 100, k))
        s = u @ z.T + np.log(w)
        top = s.max(axis=1)
        direct = top + np.log(np.exp(s - top[:, None]).sum(axis=1))
        vals = f.value(u)
        # exact products at k = 1; numpy's row sum goes pairwise from 8
        # terms on, while the piece-major sum adds the pieces in order
        if k == 1 and p < 8:
            assert np.array_equal(vals, direct)
        else:
            assert np.allclose(vals, direct, rtol=0, atol=1e-12)
        assert f.value(u[3]) == pytest.approx(direct[3], rel=0, abs=1e-12)

    @pytest.mark.parametrize("w, z", [([1.0, 0.5], [[1.0]]),
                                      ([1.0, 0.5, 2.0], [[1.0], [-1.0]])])
    def test_weights_and_slopes_of_different_lengths_rejected(self, w, z):
        with pytest.raises(ra.ValidationError, match="one offset per slope"):
            make_logsumexp_function(w, z)
        with pytest.raises(ra.ValidationError, match="one offset per slope"):
            ra.LogSumExpReward(w, z, [[1.0]])


def _piece_evaluations():
    rng = np.random.default_rng(5)
    S, c = rng.normal(size=(200, 2)), rng.normal(size=200)
    maxaff = ra.make_max_affine(list(zip(S, c)))
    lse = make_logsumexp_function(np.exp(c), S)
    return {"envelope value": ra.Envelope(S, c).value,
            "max-affine value": maxaff.value,
            "max-affine first_order": lambda u: ra.first_order(maxaff, u),
            "log-sum-exp value": lse.value,
            "log-sum-exp grad": lse.grad}


@pytest.mark.parametrize("name", list(_piece_evaluations()))
def test_piece_evaluations_run_in_bounded_blocks(name):
    # 200 pieces x 20,000 rows (k = 2): one (m, n) score array alone would
    # take 32 MB, a block of about 16,384 scores 128 KiB
    evaluate = _piece_evaluations()[name]
    u = np.random.default_rng(6).normal(size=(20_000, 2))
    tracemalloc.start()
    try:
        evaluate(u)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20, peak


class TestJson:
    def test_round_trips(self):
        specs = [
            {"type": "linear", "theta": [1.0, -2.0]},
            {"type": "quadratic", "B": [[0.15]], "b": [0.6], "c": -0.6},
            {"type": "lowrank_maxaffine", "A": [[1.0, 0.0]],
             "pieces": [[[1.0], 0.0], [[-1.0], 0.0]], "L": 1.0, "R": 2.0},
            {"type": "logsumexp", "w": [1.0, 1.0], "z": [[1.0], [-1.0]],
             "A": [[1.0]]},
        ]
        for spec in specs:
            r = ra.reward_from_dict(spec)
            r2 = ra.reward_from_dict(r.to_dict())
            x = np.array([0.4] * r2.d if hasattr(r2, "d") else [0.4])
            assert float(np.asarray(r.value(x))) == pytest.approx(
                float(np.asarray(r2.value(x))))

    @pytest.mark.parametrize("spec", [
        {"type": "lowrank_maxaffine", "A": [[1.0, 0.0]],
         "pieces": [[[1.0], 0.0], [[-1.0], 0.5]], "R": 2.0},
        {"type": "lowrank_maxaffine", "A": [[1.0, 0.0]],
         "pieces": [[[1.0], 0.0], [[-1.0], 0.5]]},
        {"type": "lowrank_maxaffine", "A": [[0.6, 0.8]],
         "pieces": [[[0.5], 0.1]], "L": 1.5, "R": None},
        {"type": "lowrank_maxaffine", "A": [[0.6, 0.8]],
         "pieces": [[[0.5], 0.1]], "L": 1.5, "R": 3.0},
        # exp(log 0.1) != 0.1: the spec's own w is what is written
        {"type": "logsumexp", "w": [0.1, 1.7], "z": [[1.0], [-1.0]],
         "A": [[1.0, 0.5]]},
    ], ids=["R", "no-R", "L-null-R", "L-R", "logsumexp"])
    def test_serialized_spec_reads_back_to_the_same_bytes(self, spec):
        def reject(name):
            raise AssertionError(f"non-JSON constant {name}")

        text = json.dumps(ra.reward_from_dict(spec).to_dict())
        back = ra.reward_from_dict(json.loads(text, parse_constant=reject))
        assert json.dumps(back.to_dict()) == text
        out = json.loads(text)
        assert ("R" in out) == (spec.get("R") is not None)
        for key in ("L", "w"):
            if key in spec:
                assert out[key] == spec[key]

    def test_black_box_is_not_serializable(self):
        f = ra.LowDimFunction(value=lambda u: np.sum(u, axis=-1), k=1,
                              lipschitz=1.0, radius=1.0, convex=True)
        assert f.pieces is None and f.reduction is None
        with pytest.raises(ra.ValidationError, match="black-box"):
            ra.LowRankReward([[1.0]], f).to_dict()

    @pytest.mark.parametrize("spec", [
        {"type": "lowrank_maxaffine", "A": [[1.0]],
         "pieces": [[[1.0], 0.0], [[-1.0], 0.2]], "R": 1.0},
        {"type": "logsumexp", "w": [1.0, 0.5], "z": [[1.0], [-1.0]],
         "A": [[1.0]]},
    ], ids=["max-affine", "logsumexp"])
    def test_wrapped_oracles_change_no_piece_spec_or_sample(self, spec):
        # the benchmark's tracer replaces f.value and f.grad on the object
        # by pass-through wrappers: nothing may read pieces off them
        base = ra.DiscreteModel([[0.0], [0.5], [1.0]], [0.2, 0.3, 0.5], 1.0)
        r = ra.reward_from_dict(spec)

        def observed():
            res = ra.sample_kl_aligned(base, r.A, r.f, 0.3, 0.05, seed=3,
                                       n=40)
            return r.f.pieces, r.to_dict(), res.batch.points.tobytes()

        before = observed()
        for name in ("value", "grad"):
            inner = getattr(r.f, name)
            setattr(r.f, name, lambda *a, inner=inner, **k: inner(*a, **k))
        after = observed()
        assert after[0] is before[0] and after[1:] == before[1:]

    def test_understated_lipschitz_rejected(self):
        with pytest.raises(ra.ValidationError):
            ra.reward_from_dict({"type": "lowrank_maxaffine", "A": [[1.0]],
                                 "pieces": [[[2.0], 0.0]], "L": 1.0, "R": 1.0})
