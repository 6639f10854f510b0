import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rewardalign as ra
from rewardalign.kl_align import build_net
from rewardalign.rewards import DOMAIN_SLACK, make_logsumexp_function
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
    def test_abs_away_from_kink(self):
        f = abs_function()
        f.radius = 2.0
        val, g = ra.first_order(f, np.array([0.5]))
        assert val == pytest.approx(0.5)
        assert g == pytest.approx([1.0])

    def test_abs_kink_min_norm_tiebreak(self):
        # the subdifferential of |.| at 0 is [-1, 1]; the tie-break picks
        # its minimum-norm element, 0
        f = abs_function()
        f.radius = 1.0
        val, g = ra.first_order(f, np.array([0.0]))
        assert val == 0.0
        assert g == pytest.approx([0.0], abs=1e-15)

    def test_min_norm_hull_2d_kink(self):
        f = ra.make_max_affine([([1.0, 1.0], 0.0), ([1.0, -1.0], 0.0)])
        _, g = ra.first_order(f, np.array([0.5, 0.0]))
        assert g == pytest.approx([1.0, 0.0], abs=1e-12)

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
        if f.k == 1:  # |.|: the tie-break gives 0 at the kink
            assert g[np.flatnonzero(pts[:, 0] == 0.0)[0]] == [0.0]

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

    def test_understated_lipschitz_rejected(self):
        with pytest.raises(ra.ValidationError):
            ra.reward_from_dict({"type": "lowrank_maxaffine", "A": [[1.0]],
                                 "pieces": [[[2.0], 0.0]], "L": 1.0, "R": 1.0})
