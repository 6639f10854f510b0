"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.
"""

import time

import numpy as np
import pytest

import rewardalign as ra
from rewardalign.cli import fig1_base, fig1_reward
from rewardalign.kl_align import sample_kl_aligned
from rewardalign.metrics import (QuadratureTilt1D, empirical_to_discrete,
                                 oracle_kl_tilt, oracle_prox_grid,
                                 tv_discrete, w2_discrete)
from rewardalign.models import noised_log_density
from rewardalign.validate import (random_discrete, random_gmm,
                                  random_maxaffine, random_orthogonal_rows,
                                  random_unit_ball, run_envelope_suite,
                                  run_lemma_suite)
from rewardalign.w2_align import (Alg2Params, LowRankDecomp, alg2_prox,
                                  prox_max_affine, prox_quadratic_batch)


def _report(num, passed, detail):
    line = f"[{'PASS' if passed else 'FAIL'}] criterion {num}: {detail}"
    print(line)
    assert passed, line


# ---------------------------------------------------------------------------
# Criteria 3 and 5 share the same runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def alg1_oracle_runs():
    rng = np.random.default_rng(2024)
    eps, delta, n = 0.1, 0.05, 10**5
    results = []
    t0 = time.perf_counter()
    for idx in range(20):
        d = int(rng.integers(1, 5))
        k = int(rng.integers(1, min(d, 2) + 1))
        base = random_discrete(rng, int(rng.integers(4, 33)), d, C=1.0)
        s = float(rng.uniform(0.5, 1.5))
        A = random_orthogonal_rows(rng, k, d, op_norm=s)
        R = s * base.support_radius
        LR = float(rng.uniform(0.3, 2.0))
        f = random_maxaffine(rng, k, int(rng.integers(1, 6)), LR / R, R)
        res = sample_kl_aligned(base, A, f, eps=eps, delta=delta,
                                seed=int(rng.integers(2**31)), n=n,
                                backend="exact")
        target = oracle_kl_tilt(base, ra.LowRankReward(A, f))
        emp = empirical_to_discrete(res.batch.points, base.support_radius)
        results.append({
            "tv": tv_discrete(emp, target),
            "fallbacks": res.fallback_count,
            "n": n,
            "m": res.envelope.m,
        })
    elapsed = time.perf_counter() - t0
    return {"results": results, "elapsed": elapsed, "eps": eps, "C": 1.0}


def test_criterion_01_fig1_transport_map():
    t0 = time.perf_counter()
    res = ra.sample_w2_aligned(fig1_base(), fig1_reward(), lam=0.15,
                               n=10**5, seed=11, backend="quad")
    dev = float(np.max(np.abs(res.xs - (1.0 + res.ys / 2.0))))
    elapsed = time.perf_counter() - t0
    _report(1, dev <= 1e-12 and elapsed < 5.0,
            f"transport map max dev {dev:.2e} (tol 1e-12), "
            f"runtime {elapsed:.2f}s (< 5s)")


def test_criterion_02_fig1_kl_panel():
    t0 = time.perf_counter()
    n = 10**5
    quad = QuadratureTilt1D(fig1_base(), fig1_reward())
    draws = quad.sample(n, np.random.default_rng(12))
    truth = quad.ppf((np.arange(n) + 0.5) / n)
    w2 = float(np.sqrt(np.mean((np.sort(draws) - truth) ** 2)))
    elapsed = time.perf_counter() - t0
    _report(2, w2 <= 0.02 and elapsed < 30.0,
            f"W2(sampler, inverse-CDF truth) = {w2:.4f} (tol 0.02), "
            f"runtime {elapsed:.2f}s (< 30s)")


def test_criterion_03_alg1_oracle_equivalence(alg1_oracle_runs):
    tvs = [r["tv"] for r in alg1_oracle_runs["results"]]
    elapsed = alg1_oracle_runs["elapsed"]
    _report(3, max(tvs) <= 0.03 and elapsed < 300.0,
            f"20 instances, max TV {max(tvs):.4f} (tol 0.03), "
            f"runtime {elapsed:.1f}s (< 300s)")


def test_criterion_04_envelope_suite():
    rep = run_envelope_suite(seed=7, n_instances=100, n_points=1000)
    by_name = {c["name"]: c for c in rep["checks"]}
    sandwich = by_name["envelope_sandwich"]
    own = by_name["own_envelope_sandwich"]
    floor = by_name["acceptance_floor"]
    selfr = by_name["logsumexp_self_reward"]
    ok = (sandwich["min_slack_lower"] >= -1e-9
          and sandwich["min_slack_upper"] >= -1e-9
          and own["min_slack_lower"] >= -1e-9
          and own["min_slack_upper"] >= -1e-9
          and floor["min_margin"] >= -1e-9
          and selfr["max_dev"] <= 1e-12)
    _report(4, ok,
            f"sandwich slacks ({sandwich['min_slack_lower']:.1e}, "
            f"{sandwich['min_slack_upper']:.1e}), own-piece slacks "
            f"({own['min_slack_lower']:.1e}, {own['min_slack_upper']:.1e}) "
            f">= -1e-9, floor margin {floor['min_margin']:.1e} >= -1e-9, "
            f"self-reward dev {selfr['max_dev']:.1e} <= 1e-12")


def test_criterion_05_rejection_budget(alg1_oracle_runs):
    eps, C = alg1_oracle_runs["eps"], alg1_oracle_runs["C"]
    bound = eps**2 / (16.0 * C**2)
    count = sum(r["fallbacks"] for r in alg1_oracle_runs["results"])
    total = sum(r["n"] for r in alg1_oracle_runs["results"])
    band = total * bound + 1.96 * np.sqrt(total * bound * (1 - bound))
    _report(5, count <= band,
            f"{count} fallbacks over {total} draws; 95% band allows "
            f"{band:.0f} at rate bound {bound:.2e}")


def test_criterion_06_tilted_score_identity():
    t0 = time.perf_counter()
    rng = np.random.default_rng(13)
    max_id_dev = 0.0
    max_fd_dev = 0.0
    for _ in range(5):
        m = random_gmm(rng, int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        oracle = ra.score_oracle(m)
        for _ in range(20):
            v = rng.standard_normal(m.d) * 0.4
            sig = float(rng.uniform(0.1, 0.9))
            x = rng.standard_normal(m.d)
            derived = ra.tilted_score(oracle, v, sig, x)
            tilted = ra.tilt_exact(m, v)
            closed = ra.score(tilted, sig, x)
            max_id_dev = max(max_id_dev, float(np.max(np.abs(derived - closed))))
            h = 1e-5
            for i in range(m.d):
                e = np.zeros(m.d)
                e[i] = h
                fd = (noised_log_density(tilted, sig, (x + e)[None])[0]
                      - noised_log_density(tilted, sig, (x - e)[None])[0]) / (2 * h)
                max_fd_dev = max(max_fd_dev, abs(closed[i] - fd))
    elapsed = time.perf_counter() - t0
    _report(6, max_id_dev <= 1e-8 and max_fd_dev <= 1e-4 and elapsed < 10.0,
            f"identity dev {max_id_dev:.1e} (tol 1e-8), finite-diff dev "
            f"{max_fd_dev:.1e} (tol 1e-4), runtime {elapsed:.2f}s (< 10s)")


def test_criterion_07_normalizer_estimation():
    rng = np.random.default_rng(14)
    eta, delta = 0.1, 0.1
    hits, trials = 0, 0
    for trial in range(50):
        if trial % 2 == 0:
            model = ra.DiscreteModel([[-1.0], [1.0]], [0.5, 0.5], 1.0)
            truth_log = ra.tilts.log_normalizer_exact
        else:
            model = random_gmm(rng, 1, int(rng.integers(1, 3)))
        C = model.support_radius
        # the steeper tilts take more midpoint panels
        vc = float(rng.uniform(0.2, 1.2) if trial % 5 < 3
                   else rng.uniform(1.5, 3.0))
        v = np.array([vc / C]) * (1 if rng.random() < 0.5 else -1)
        est = ra.estimate_normalizer(model, v, eta=eta, delta=delta,
                                     seed=int(rng.integers(2**31)),
                                     backend="mc")
        truth = float(np.exp(ra.tilts.log_normalizer_exact(model, v)))
        hits += abs(est.value - truth) <= eta * truth
        trials += 1
    _report(7, hits >= 40,
            f"{hits}/{trials} trials within relative error {eta} "
            f"(need >= 40/50)")


def test_criterion_08_alg2_epsilon_optimality():
    t0 = time.perf_counter()
    rng = np.random.default_rng(15)
    eps, C = 0.1, 1.0
    worst_gap = -np.inf
    n_points = 0
    configs = [(1, 0.10, 10), (1, 0.15, 10), (1, 0.05, 10),
               (2, 0.05, 10)] * 2 + [(1, 0.12, 10), (2, 0.05, 10)]
    for r_A, lam, n_y in configs:
        d = int(rng.integers(max(2, r_A), 7))
        s = float(rng.uniform(0.5, 1.0))
        A = random_orthogonal_rows(rng, r_A, d, op_norm=s)
        L_target = float(rng.uniform(0.3, 1.0)) / s
        f = random_maxaffine(rng, r_A, int(rng.integers(1, 5)), L_target,
                             s * C)
        reward = ra.LowRankReward(A, f)
        decomp = LowRankDecomp.from_matrix(A)
        L = f.lipschitz
        params = Alg2Params.from_problem(L, decomp.S, lam, C, eps, r_A)
        ys = np.array([random_unit_ball(rng, 1, d)[0] for _ in range(n_y)])
        # one grid-oracle call per config: its ys share one reward pass
        gxs = oracle_prox_grid(reward, lam, ys, C, resolution=params.h / 10.0)
        # the exact max-affine prox the sampler dispatches to: never below
        # Alg 2 or the grid oracle, beyond round-off
        exs = prox_max_affine(reward, lam, ys, C)
        for y, gx, ex in zip(ys, gxs, exs):
            x = alg2_prox(decomp, f.value, lam, y, C, params.h)
            val, oracle_val, exact_val = (
                float(np.asarray(reward.value(z[None]))[0])
                - lam * float(np.sum((z - y) ** 2)) for z in (x, gx, ex))
            worst_gap = max(worst_gap, oracle_val - val)
            n_points += 1
            assert val >= oracle_val - eps / 3.0
            assert exact_val >= max(val, oracle_val) - 1e-12
    elapsed = time.perf_counter() - t0
    _report(8, worst_gap <= eps / 3.0 and n_points == 100 and elapsed < 120.0,
            f"{n_points} y-points, worst oracle-minus-achieved gap "
            f"{worst_gap:.4f} (tol eps/3 = {eps / 3:.4f}), runtime "
            f"{elapsed:.1f}s (< 120s)")


def test_criterion_09_prox_backends():
    rng = np.random.default_rng(16)
    max_backend_dev = 0.0
    max_kkt = 0.0
    for _ in range(50):
        d = int(rng.integers(1, 9))
        M = rng.standard_normal((d, d))
        r = ra.QuadraticReward(M @ M.T / d + 0.05 * np.eye(d),
                               rng.standard_normal(d))
        lam = float(rng.uniform(0.3, 1.5))
        y = rng.standard_normal(d)
        C = float(rng.uniform(0.8, 3.0))
        x_closed, nu = ra.w2_align._prox_quadratic_kkt(r, lam, y, C)
        resid = np.linalg.norm((r.B + (lam + nu) * np.eye(d)) @ x_closed
                               - (r.b / 2 + lam * y))
        max_kkt = max(max_kkt, resid,
                      abs(nu * (np.linalg.norm(x_closed) - C)))
        x_pga = ra.prox_concave(r, lam, y, C)
        max_backend_dev = max(max_backend_dev,
                              float(np.linalg.norm(x_closed - x_pga)))

    max_grid_dev = 0.0
    for _ in range(10):
        r = ra.QuadraticReward([[float(rng.uniform(0.05, 0.5))]],
                               [float(rng.uniform(2.0, 5.0))])
        lam = float(rng.uniform(0.2, 1.0))
        y = np.array([float(rng.uniform(1.5, 4.0))])
        C = 1.0
        x = ra.prox_quadratic(r, lam, y, C)
        assert abs(np.linalg.norm(x) - C) <= 1e-9  # constraint binds
        gx = oracle_prox_grid(r, lam, y, C, resolution=1e-5)
        max_grid_dev = max(max_grid_dev, float(np.linalg.norm(x - gx)))

    ok = (max_backend_dev <= 1e-6 and max_grid_dev <= 1e-4
          and max_kkt <= 1e-9)
    _report(9, ok,
            f"quad-vs-pga dev {max_backend_dev:.1e} (tol 1e-6), "
            f"trust-region-vs-grid dev {max_grid_dev:.1e} (tol 1e-4), "
            f"KKT residual {max_kkt:.1e} (tol 1e-9)")


def test_criterion_10_lemma_battery():
    rep = run_lemma_suite(seed=17, n_instances=200)
    names = [c["name"] for c in rep["checks"]]
    ok = rep["passed"] and set(names) == {
        "tv_to_w2", "w1_to_w2", "weight_stability", "mixture_error",
        "rejection_stability"}
    _report(10, ok,
            "tv->w2, w1->w2, weight stability, mixture error, rejection "
            "stability: 200 instances each, zero violations" if ok else
            f"failures in {[c['name'] for c in rep['checks'] if not c['passed']]}")


def test_criterion_11_pushforward_optimality():
    rng = np.random.default_rng(18)
    worst_margin = np.inf
    for _ in range(20):
        d = int(rng.integers(1, 4))
        base = random_discrete(rng, int(rng.integers(4, 13)), d, C=1.0)
        C = base.support_radius
        M = rng.standard_normal((d, d))
        r = ra.QuadraticReward(M @ M.T / d + 0.05 * np.eye(d),
                               rng.standard_normal(d) * 0.5)
        lam = float(rng.uniform(0.2, 1.0))
        xs = prox_quadratic_batch(r, lam, base.atoms, C)
        push = ra.DiscreteModel(xs, base.probs, C)
        obj_push = (float(base.probs @ np.asarray(r.value(xs)))
                    - lam * w2_discrete(push, base) ** 2)
        for alt_idx in range(100):
            if alt_idx % 2 == 0:
                atoms = random_unit_ball(rng, int(rng.integers(2, 10)), d,
                                         radius=C)
                alt = ra.DiscreteModel(atoms,
                                       rng.dirichlet(np.ones(len(atoms))), C)
            else:
                # random transport of the base atoms
                shift = random_unit_ball(rng, base.n_atoms, d,
                                         radius=float(rng.uniform(0, 0.5)))
                atoms = ra.project_ball(base.atoms + shift, C)
                alt = ra.DiscreteModel(atoms, base.probs, C)
            obj_alt = (float(alt.probs @ np.asarray(r.value(alt.atoms)))
                       - lam * w2_discrete(alt, base) ** 2)
            worst_margin = min(worst_margin, obj_push - obj_alt)
            assert obj_push >= obj_alt - 1e-7
    _report(11, worst_margin >= -1e-7,
            f"pushforward beat 100 alternatives on 20 bases; minimum "
            f"margin {worst_margin:.2e} (>= -1e-7)")
