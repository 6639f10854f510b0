"""Property batteries behind the ``validate`` CLI subcommand.

Each suite runs a seeded sweep of randomized instances against an exact
oracle or inequality and reports measured slacks.  The test suite calls the
same functions, so the CLI report and pytest agree by construction.  scipy
is imported where a check uses it, as in ``metrics``.
"""

from __future__ import annotations

import numpy as np

from . import metrics
from .kl_align import (Envelope, _collapse_net_pieces, build_envelope,
                       build_net, build_proposal, gap_bound, own_envelope)
from .models import (DiscreteModel, GaussianMixtureModel, score,
                     score_oracle, noised_log_density)
from .rewards import (LinearReward, LowDimFunction, QuadraticReward,
                      make_logsumexp_function, make_max_affine)
from .tilts import sample_linear_tilt, tilt_exact, tilted_score


# ---------------------------------------------------------------------------
# Random instance generators (shared with the tests)
# ---------------------------------------------------------------------------

def random_unit_ball(rng, n, d, radius=1.0):
    x = rng.standard_normal((n, d))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    r = radius * rng.random(n) ** (1.0 / d)
    return x * r[:, None]


def random_discrete(rng, n_atoms, d, C=1.0) -> DiscreteModel:
    atoms = random_unit_ball(rng, n_atoms, d, radius=0.95 * C)
    probs = rng.dirichlet(np.ones(n_atoms))
    return DiscreteModel(atoms, probs, C)


def random_maxaffine(rng, k, n_pieces, L, R) -> LowDimFunction:
    """Random convex max-affine function with exact Lipschitz constant L on
    all of R^k and declared radius R."""
    slopes = rng.standard_normal((n_pieces, k))
    norms = np.linalg.norm(slopes, axis=1)
    slopes *= (L * rng.uniform(0.3, 1.0, n_pieces) / norms)[:, None]
    # force one piece to attain the constant
    slopes[0] *= L / np.linalg.norm(slopes[0])
    offsets = rng.uniform(-0.5, 0.5, n_pieces)
    f = make_max_affine(list(zip(slopes, offsets)))
    f.radius = R
    return f


def random_gmm(rng, d, n_components, margin=5.0) -> GaussianMixtureModel:
    """Random mixture, means in [-1.5, 1.5]^d, whose support radius leaves
    ``margin`` of headroom, so moderate exact tilts keep the mass invariant
    satisfied."""
    from scipy.special import chdtri
    means = rng.uniform(-1.5, 1.5, (n_components, d))
    covs = np.empty((n_components, d, d))
    for j in range(n_components):
        M = rng.standard_normal((d, d)) * 0.5
        covs[j] = M @ M.T + 0.05 * np.eye(d)
    weights = rng.dirichlet(np.ones(n_components))
    lam_max = np.linalg.eigvalsh(covs)[:, -1]
    z = np.sqrt(chdtri(d, 1e-13))
    C = float(np.max(np.linalg.norm(means, axis=1) + z * np.sqrt(lam_max)))
    return GaussianMixtureModel(weights, means, covs, 1.05 * C + margin)


def random_orthogonal_rows(rng, k, d, op_norm=1.0):
    """Full-rank k x d matrix (k <= d) with operator norm exactly op_norm."""
    if k > d:
        raise ValueError("need k <= d")
    M = rng.standard_normal((d, k))
    q, _ = np.linalg.qr(M)
    svals = op_norm * np.sort(rng.uniform(0.5, 1.0, k))[::-1]
    svals[0] = op_norm
    u, _ = np.linalg.qr(rng.standard_normal((k, k)))
    return (u * svals) @ q.T


# ---------------------------------------------------------------------------
# Envelope suite
# ---------------------------------------------------------------------------

def run_envelope_suite(seed: int = 0, n_instances: int = 100,
                       n_points: int = 1000) -> dict:
    rng = np.random.default_rng(seed)
    checks = []

    # f <= G <= f + B on the ball: the net envelope and the one piece per
    # slope the sampler keeps of it for a black box (B = 1 + log m'), and
    # f's own envelope (B = log m')
    sandwiches = {name: [np.inf, np.inf] for name in (
        "envelope_sandwich", "collapsed_envelope_sandwich",
        "own_envelope_sandwich")}
    keeps_largest = True
    for _ in range(n_instances):
        k = int(rng.integers(1, 4))
        L = float(rng.uniform(0.4, 1.6))
        R = float(rng.uniform(0.5, 2.0 / L))
        f = random_maxaffine(rng, k, int(rng.integers(1, 6)), L, R)
        net = build_net(k, R, 1.0 / (2.0 * L))
        env = build_envelope(f, net)
        us = random_unit_ball(rng, n_points, k, radius=R)
        fv = np.asarray(f.value(us))
        kept, own = _collapse_net_pieces(env), own_envelope(f, R)
        for worst, G, B in zip(sandwiches.values(), (env, kept, own), (
                gap_bound(env.m), gap_bound(kept.m), np.log(own.m))):
            gv = G.value(us)
            worst[0] = min(worst[0], float(np.min(gv - fv)))
            worst[1] = min(worst[1], float(np.min(fv + B - gv)))
        # lowered same-slope copies before and after the net pieces must
        # not change the offset each slope keeps
        pieces = (np.vstack([env.slopes] * 3), np.concatenate(
            [env.offsets - 1e-3, env.offsets, env.offsets - 1.0]))
        padded = _collapse_net_pieces(Envelope(*pieces))
        keeps_largest &= (np.array_equal(padded.slopes, kept.slopes)
                          and np.array_equal(padded.offsets, kept.offsets))
    for name, (low, high) in sandwiches.items():
        checks.append({"name": name, "passed": low >= -1e-9 and high >= -1e-9,
                       "min_slack_lower": low, "min_slack_upper": high})
    checks.append({"name": "collapse_keeps_largest_offset",
                   "passed": bool(keeps_largest)})

    # acceptance floor on actual proposal draws, from the net envelope and
    # from the collapsed one; the collapsed draws use their own generator,
    # so the net envelope's check sees the instances and draws it saw alone
    collapsed_rng = np.random.default_rng([seed, 1])
    worst_floor = worst_floor_c = np.inf
    for _ in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(d, 2) + 1))
        base = random_discrete(rng, int(rng.integers(2, 12)), d)
        L = float(rng.uniform(0.4, 1.2))
        A = random_orthogonal_rows(rng, k, d, op_norm=float(rng.uniform(0.5, 1.5)))
        R = float(np.linalg.norm(A, 2)) * base.support_radius
        f = random_maxaffine(rng, k, int(rng.integers(1, 5)), L, R)
        net = build_net(k, R, 1.0 / (2.0 * L))
        env = build_envelope(f, net)
        worst_floor = min(worst_floor, _floor_margin(base, A, f, env, rng))
        worst_floor_c = min(worst_floor_c, _floor_margin(
            base, A, f, _collapse_net_pieces(env), collapsed_rng))
    checks.append({"name": "acceptance_floor",
                   "passed": worst_floor >= -1e-9,
                   "min_margin": worst_floor})
    checks.append({"name": "collapsed_acceptance_floor",
                   "passed": worst_floor_c >= -1e-9,
                   "min_margin": worst_floor_c})

    # log-sum-exp self reward: its own envelope is G = f, so acceptance 1
    worst_dev = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(d, 2) + 1))
        m = int(rng.integers(1, 6))
        A = random_orthogonal_rows(rng, k, d, op_norm=1.0)
        f = make_logsumexp_function(rng.uniform(0.2, 2.0, m),
                                    rng.standard_normal((m, k)))
        env = own_envelope(f, 1.0)
        u = random_unit_ball(rng, 100, d) @ A.T
        acc = np.exp(np.asarray(f.value(u)) - env.value(u))
        worst_dev = max(worst_dev, float(np.max(np.abs(acc - 1.0))))
    checks.append({"name": "logsumexp_self_reward",
                   "passed": worst_dev <= 1e-12, "max_dev": worst_dev})

    # softmax bounds of the log-sum-exp the samplers use, G at u = 0
    ok = True
    for _ in range(200):
        a = rng.uniform(-30, 30, int(rng.integers(1, 50)))
        lse = Envelope(np.zeros((len(a), 1)), a).value([0.0])
        ok &= bool(a.max() - 1e-12 <= lse <= a.max() + np.log(len(a)) + 1e-12)
    checks.append({"name": "softmax_bounds", "passed": ok})

    return _suite_report("envelope", checks)


def _floor_margin(base, A, f, env, rng) -> float:
    """Smallest exp(f - G) - a0 over 200 envelope tilt draws."""
    proposal = build_proposal(base, env, A, delta=0.1, seed=rng)
    u = sample_linear_tilt(base, proposal.tilt_vectors, rng, n=200,
                           log_pi=proposal.log_pi).points @ A.T
    log_a = np.asarray(f.value(u)) - env.value(u)
    return float(np.min(np.exp(log_a) - np.exp(-gap_bound(env.m))))


# ---------------------------------------------------------------------------
# Lemma suite
# ---------------------------------------------------------------------------

def run_lemma_suite(seed: int = 0, n_instances: int = 200) -> dict:
    rng = np.random.default_rng(seed)
    checks = []

    ok = True
    min_slack = np.inf
    for _ in range(n_instances):
        d = int(rng.integers(1, 3))
        C = 1.0
        p = random_discrete(rng, int(rng.integers(2, 8)), d, C)
        if rng.random() < 0.5:
            q = random_discrete(rng, int(rng.integers(2, 8)), d, C)
        else:
            q = DiscreteModel(p.atoms, rng.dirichlet(np.ones(p.n_atoms)), C)
        tv = metrics.tv_discrete(p, q)
        w2 = metrics.w2_discrete(p, q)
        min_slack = min(min_slack, 2.0 * C * np.sqrt(tv) - w2)
        ok &= metrics.check_tv_to_w2(tv, C, w2)
    checks.append({"name": "tv_to_w2", "passed": bool(ok),
                   "min_slack": float(min_slack)})

    ok = True
    min_slack = np.inf
    for _ in range(n_instances):
        C = 1.0
        p = random_discrete(rng, int(rng.integers(2, 10)), 1, C)
        q = random_discrete(rng, int(rng.integers(2, 10)), 1, C)
        w1 = metrics.w1_discrete(p, q)
        w2 = metrics.w2_discrete(p, q)
        min_slack = min(min_slack, np.sqrt(2.0 * C * w1) - w2)
        ok &= metrics.check_w1_to_w2(w1, C, w2)
    checks.append({"name": "w1_to_w2", "passed": bool(ok),
                   "min_slack": float(min_slack)})

    ok = True
    for _ in range(n_instances):
        m = int(rng.integers(1, 12))
        eta = float(rng.uniform(0.01, 0.5))
        a = rng.uniform(0.1, 5.0, m)
        a_hat = a * rng.uniform(1.0 - eta, 1.0 + eta, m)
        ok &= metrics.check_weight_stability(a, a_hat, eta)
    checks.append({"name": "weight_stability", "passed": bool(ok)})

    ok = True
    for _ in range(n_instances):
        C = 1.0
        m = int(rng.integers(1, 5))
        d = int(rng.integers(1, 3))
        comps = [random_discrete(rng, int(rng.integers(1, 5)), d, C)
                 for _ in range(m)]
        radius = rng.uniform(0, 0.2)
        pert = []
        for c in comps:
            shift = random_unit_ball(rng, c.n_atoms, d, radius=radius)
            atoms = np.clip(c.atoms + shift, -C / np.sqrt(d), C / np.sqrt(d))
            pert.append(DiscreteModel(atoms, c.probs, C))
        pi = rng.dirichlet(np.ones(m))
        pi_hat = rng.dirichlet(np.ones(m))
        ok &= metrics.check_mixture_error(comps, pert, pi, pi_hat, C)["ok"]
    checks.append({"name": "mixture_error", "passed": bool(ok)})

    ok = True
    for _ in range(n_instances):
        C = 1.0
        d = int(rng.integers(1, 3))
        q = random_discrete(rng, int(rng.integers(2, 6)), d, C)
        q_hat = random_discrete(rng, int(rng.integers(2, 6)), d, C)
        a0 = float(rng.uniform(0.05, 0.5))
        L_a = float(rng.uniform(0.1, 2.0))
        g = rng.standard_normal(d)
        g *= L_a / np.linalg.norm(g)
        bias = float(rng.uniform(a0, 1.0))

        def a_fn(x, g=g, bias=bias, a0=a0):
            return float(np.clip(bias + g @ x, a0, 1.0))

        ok &= metrics.check_rejection_stability(q, q_hat, a_fn, a0, L_a, C)["ok"]
    checks.append({"name": "rejection_stability", "passed": bool(ok)})

    return _suite_report("lemmas", checks)


# ---------------------------------------------------------------------------
# Oracle suite
# ---------------------------------------------------------------------------

def run_oracle_suite(seed: int = 0) -> dict:
    from scipy.special import logsumexp
    rng = np.random.default_rng(seed)
    checks = []

    # tilt composition on mixtures and atoms
    worst = 0.0
    for _ in range(20):
        d = int(rng.integers(1, 4))
        if rng.random() < 0.5:
            model = random_gmm(rng, d, int(rng.integers(1, 4)))
        else:
            model = random_discrete(rng, int(rng.integers(2, 10)), d)
        v1 = rng.standard_normal(d) * 0.3
        v2 = rng.standard_normal(d) * 0.3
        lhs = tilt_exact(tilt_exact(model, v1), v2)
        rhs = tilt_exact(model, v1 + v2)
        if isinstance(model, DiscreteModel):
            dev = float(np.max(np.abs(lhs.probs - rhs.probs)))
        else:
            dev = max(float(np.max(np.abs(lhs.weights - rhs.weights))),
                      float(np.max(np.abs(lhs.means - rhs.means))))
        worst = max(worst, dev)
    checks.append({"name": "tilt_composition", "passed": worst <= 1e-10,
                   "max_dev": worst})

    # tilted-score identity against the closed-form tilted model
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 4))
        model = random_gmm(rng, d, int(rng.integers(1, 4)))
        oracle = score_oracle(model)
        for _ in range(20):
            v = rng.standard_normal(d) * 0.4
            sig = float(rng.uniform(0.1, 0.9))
            x = rng.standard_normal(d) * model.support_radius / 2
            lhs = tilted_score(oracle, v, sig, x)
            rhs = score(tilt_exact(model, v), sig, x)
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    checks.append({"name": "tilted_score_identity", "passed": worst <= 1e-8,
                   "max_dev": worst})

    # analytic score vs finite differences of the noised log-density
    worst = 0.0
    for _ in range(5):
        d = int(rng.integers(1, 3))
        model = random_gmm(rng, d, int(rng.integers(1, 4)))
        for sig in (0.1, 0.5, 0.9):
            xs = random_unit_ball(rng, 20, d, radius=2 * model.support_radius)
            sc = score(model, sig, xs)
            fd = np.empty_like(sc)
            h = 1e-5
            for i in range(d):
                e = np.zeros(d)
                e[i] = h
                fd[:, i] = (noised_log_density(model, sig, xs + e)
                            - noised_log_density(model, sig, xs - e)) / (2 * h)
            worst = max(worst, float(np.max(np.abs(sc - fd))))
    checks.append({"name": "score_finite_difference", "passed": worst <= 1e-4,
                   "max_dev": worst})

    # KL tilt composition: tilting twice equals tilting by the sum
    ok = True
    for _ in range(20):
        d = int(rng.integers(1, 3))
        base = random_discrete(rng, int(rng.integers(2, 10)), d)
        th1, th2 = rng.standard_normal(d), rng.standard_normal(d)
        twice = metrics.oracle_kl_tilt(metrics.oracle_kl_tilt(base,
                                                              LinearReward(th1)),
                                       LinearReward(th2))
        once = metrics.oracle_kl_tilt(base, LinearReward(th1 + th2))
        ok &= bool(np.max(np.abs(twice.probs - once.probs)) <= 1e-12)
    checks.append({"name": "kl_tilt_composition", "passed": bool(ok)})

    # proposal mixture identity on discrete bases (exact backend)
    worst = 0.0
    for _ in range(10):
        d = int(rng.integers(1, 4))
        k = int(rng.integers(1, min(d, 2) + 1))
        base = random_discrete(rng, int(rng.integers(2, 16)), d)
        A = random_orthogonal_rows(rng, k, d, op_norm=1.0)
        L = float(rng.uniform(0.4, 1.0))
        R = base.support_radius
        f = random_maxaffine(rng, k, int(rng.integers(1, 4)), L, R)
        env = build_envelope(f, build_net(k, R, 1.0 / (2 * L)))
        # the exact backend uses delta only to validate it
        prop = build_proposal(base, env, A, delta=0.5)
        mixture = tilt_exact(base, prop.tilt_vectors, prop.log_pi)
        g_vals = env.value(base.atoms @ A.T)
        logits = np.log(base.probs) + g_vals
        direct = np.exp(logits - logsumexp(logits))
        direct /= direct.sum()
        worst = max(worst, metrics.tv_discrete(
            mixture, DiscreteModel(base.atoms, direct, base.support_radius)))
    checks.append({"name": "proposal_mixture_identity",
                   "passed": worst <= 1e-10, "max_tv": worst})

    # prox grid refinement monotonicity
    ok = True
    for _ in range(10):
        d = int(rng.integers(1, 3))
        M = rng.standard_normal((d, d))
        reward = QuadraticReward(M @ M.T + 0.1 * np.eye(d),
                                 rng.standard_normal(d))
        lam = float(rng.uniform(0.2, 2.0))
        y = rng.standard_normal(d)
        C = 2.0

        def obj(x):
            return float(reward.value(x)) - lam * float(np.sum((x - y) ** 2))

        coarse = obj(metrics.oracle_prox_grid(reward, lam, y, C, 0.05))
        fine = obj(metrics.oracle_prox_grid(reward, lam, y, C, 0.025))
        ok &= fine >= coarse - 1e-12
    checks.append({"name": "prox_grid_refinement_monotone", "passed": bool(ok)})

    return _suite_report("oracles", checks)


def run_all_suites(seed: int = 0) -> dict:
    suites = [run_envelope_suite(seed), run_lemma_suite(seed + 1),
              run_oracle_suite(seed + 2)]
    return {"passed": all(s["passed"] for s in suites), "suites": suites}


def _suite_report(name: str, checks: list) -> dict:
    return {"suite": name, "passed": all(c["passed"] for c in checks),
            "checks": checks}
