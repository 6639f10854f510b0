"""The benchmark's three workloads as seeded lists of library calls.

Each workload is a fixed list of calls into the public entry points
(``sample_kl_aligned``, ``sample_w2_aligned``).  The instance *structure*
(dimensions, atom counts, reward shapes, LR, sizes) is fixed per workload,
so the cost class of a run does not depend on its seed.  The seed draws a
random orthogonal change of coordinates of every instance that has one
(atoms or mixture, the matrix A and any quadratic reward move together, so
the aligned law moves with them and the cost stays comparable) and the
sampler seeds of every pass.  Different seeds therefore give different
input bytes and different draw streams.

Every call carries a law check against an exact oracle from
``rewardalign.metrics``, expressed as distance / tolerance, where the
tolerance is the one an existing test applies to the same kind of check.
The checks run outside the timed region.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import SimpleNamespace
from typing import Callable, Optional

import numpy as np

import rewardalign as ra
from rewardalign import metrics
from rewardalign.validate import (random_discrete, random_maxaffine,
                                  random_orthogonal_rows)

KL_ENTRY = "kl_align.sample_kl_aligned"
W2_ENTRY = "w2_align.sample_w2_aligned"

# Generator seed of acceptance criterion 3's fixture: kl-exact replays its
# 20 instances (and the other workloads draw their fixed structure from it).
STRUCTURE_SEED = 2024

# Documented held-out seed: not used while the benchmark was written, kept
# for checking a later performance claim on a seed it was not tuned on.
HELD_OUT_SEED = 7919

TV_TOL = 0.03        # criterion 3 / test_matches_oracle_small_instance
MASS_TOL = 0.08      # test_diffusion_backend_end_to_end: |p1 - e/(1+e)|
QUAD_W2_TOL = 0.02   # criterion 2: W2 to the 1D quadrature truth
GAP_EPS = 0.1        # criterion 8: prox objective within eps/3 of the grid
PROX_DIST_TOL = 1e-4  # criterion 9: closed-form prox vs grid argmax
TRANSPORT_TOL = 1e-12  # criterion 1: fig1 transport identity


@dataclass
class Call:
    """One library call plus the oracle check of its output."""

    name: str
    entry: str                   # KL_ENTRY or W2_ENTRY
    run: Callable[[int], object]  # sampler seed -> result
    n: int
    d: int
    C: float
    check: Callable[[object], float]   # law_err: distance / tolerance
    exact: bool = False  # the check's tolerance holds at any n
    # law_err of an untilted draw of the full size, given a seed; must
    # exceed 1, or the check could not tell the sampler's tilt from none
    control: Optional[Callable[[int], float]] = None

    def outputs(self, res) -> list:
        """The sample arrays a call returns (W2 returns the coupling)."""
        if self.entry == KL_ENTRY:
            return [res.batch.points]
        return [res.ys, res.xs]


@dataclass
class Workload:
    name: str
    seed: int
    calls: list
    passes: int  # timed passes of an untraced run, on streams 0..passes-1
    rewards: list = field(default_factory=list)  # oracles the tracer wraps

    @property
    def samples_per_pass(self) -> int:
        return sum(c.n for c in self.calls)

    def sampler_seeds(self, j: int = 0) -> list:
        """Sampler seed of every call on stream ``j``.  An untraced run's
        passes use streams 0, ..., passes - 1, whatever the speed of the
        code, so two commits are timed on the same draws, and each call's
        median time over the passes also averages over how many rounds its
        draws needed."""
        rng = np.random.default_rng([self.seed, j])
        return [int(x) for x in rng.integers(2**31, size=len(self.calls))]


# ---------------------------------------------------------------------------
# Coordinates
# ---------------------------------------------------------------------------

def random_rotation(rng, d: int) -> np.ndarray:
    """Haar-random orthogonal d x d matrix (a sign flip when d = 1)."""
    q, r = np.linalg.qr(rng.standard_normal((d, d)))
    return q * np.sign(np.diag(r))


def rotate_discrete(model, Q):
    return ra.DiscreteModel(model.atoms @ Q.T, model.probs,
                            model.support_radius)


def rotate_gmm(model, Q):
    covs = np.einsum("ab,jbc,dc->jad", Q, model.covs, Q)
    covs = 0.5 * (covs + np.transpose(covs, (0, 2, 1)))
    return ra.GaussianMixtureModel(model.weights, model.means @ Q.T, covs,
                                   model.support_radius)


def fig1_base():
    """Equal mixture of N(-2, 0.7^2) and N(2, 0.7^2), support radius 8."""
    return ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                   [[[0.49]], [[0.49]]], 8.0)


# ---------------------------------------------------------------------------
# Oracle checks (distance / tolerance)
# ---------------------------------------------------------------------------

def _atoms_check(base, A, f, distance, tol):
    """``distance`` from the empirical law to the exact KL tilt of an atom
    base, over ``tol``."""
    def check(res):
        target = metrics.oracle_kl_tilt(base, ra.LowRankReward(A, f))
        emp = metrics.empirical_to_discrete(res.batch.points,
                                            base.support_radius)
        return distance(emp, target) / tol
    return check


def _mass_check(base, A, f):
    """Largest error, over the atoms, of the share of the sample lying
    nearest that atom, against the exact KL tilt's mass there, over 0.08.
    On two atoms this is the unit test's |p1 - e/(1+e)|."""
    def check(res):
        target = metrics.oracle_kl_tilt(base, ra.LowRankReward(A, f)).probs
        pts = res.batch.points
        nearest = np.argmin(
            ((pts[:, None, :] - base.atoms[None]) ** 2).sum(axis=2), axis=1)
        share = np.bincount(nearest, minlength=base.n_atoms) / len(pts)
        return float(np.max(np.abs(share - target))) / MASS_TOL
    return check


def _untilted_control(base, n, check):
    """``check`` applied to n exact draws from the untilted base."""
    def control(seed):
        pts = ra.sample_exact(base, n, seed).points
        return check(SimpleNamespace(batch=SimpleNamespace(points=pts)))
    return control


def _w2_quadrature_check(base, A, f):
    def check(res):
        truth = metrics.QuadratureTilt1D(base, ra.LowRankReward(A, f))
        w2 = metrics.w2_1d_samples_vs_quantiles(res.batch.points[:, 0],
                                                truth.ppf)
        return w2 / QUAD_W2_TOL
    return check


def _prox_value(reward, lam, y, x):
    return (float(np.asarray(reward.value(x[None]), dtype=float)[0])
            - lam * float(np.sum((x - y) ** 2)))


def _prox_check(reward, lam, C, resolution, n_checked, measure, tol):
    """Worst ``measure(y, x, grid argmax)`` over the first ``n_checked``
    base points, over ``tol``."""
    def check(res):
        worst = -np.inf
        for y, x in zip(res.ys[:n_checked], res.xs[:n_checked]):
            gx = metrics.oracle_prox_grid(reward, lam, y, C, resolution)
            worst = max(worst, measure(y, x, gx))
        return worst / tol
    return check


def _gap_check(reward, lam, C, resolution, n_checked):
    """Grid-oracle objective minus achieved objective, over eps/3."""
    def gap(y, x, gx):
        return (_prox_value(reward, lam, y, gx)
                - _prox_value(reward, lam, y, x))
    return _prox_check(reward, lam, C, resolution, n_checked, gap,
                       GAP_EPS / 3.0)


def _dist_check(reward, lam, C, resolution, n_checked):
    """Distance from the achieved point to the grid argmax, over 1e-4."""
    def dist(y, x, gx):
        return float(np.linalg.norm(x - gx))
    return _prox_check(reward, lam, C, resolution, n_checked, dist,
                       PROX_DIST_TOL)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

def _kl_call(name, base, A, f, eps, delta, n, backend="exact",
             envelope=None, check=None, control=None):
    def run(seed):
        return ra.sample_kl_aligned(base, A, f, eps=eps, delta=delta,
                                    seed=seed, n=n, backend=backend,
                                    envelope=envelope)
    return Call(name, KL_ENTRY, run, n, base.d, base.support_radius, check,
                control=control)


def _w2_call(name, base, reward, lam, n, backend, check, exact=False,
             **kw):
    def run(seed):
        return ra.sample_w2_aligned(base, reward, lam=lam, n=n, seed=seed,
                                    backend=backend, **kw)
    return Call(name, W2_ENTRY, run, n, base.d, base.support_radius, check,
                exact)


def kl_exact(seed: int, smoke: bool = False) -> Workload:
    """Closed-form KL path: the criterion-3 instances, a 1D Gaussian-mixture
    base and a log-sum-exp reward with its exact envelope pieces."""
    gen = np.random.default_rng(STRUCTURE_SEED)
    rng = np.random.default_rng(seed)
    calls, fs = [], []
    for idx in range(3 if smoke else 20):
        # same draws, in the same order, as the criterion-3 fixture
        d = int(gen.integers(1, 5))
        k = int(gen.integers(1, min(d, 2) + 1))
        base = random_discrete(gen, int(gen.integers(4, 33)), d, C=1.0)
        s = float(gen.uniform(0.5, 1.5))
        A = random_orthogonal_rows(gen, k, d, op_norm=s)
        LR = float(gen.uniform(0.3, 2.0))
        f = random_maxaffine(gen, k, int(gen.integers(1, 6)), LR / s, s)
        gen.integers(2**31)  # the fixture's sampler seed, replaced by ours
        Q = random_rotation(rng, d)
        base, A = rotate_discrete(base, Q), A @ Q.T
        # n grows with the atom count: the empirical TV's noise floor is
        # about 0.35 sqrt(atoms / n) = 0.0125, so even the maximum over all
        # calls and passes stays well under the 0.03 tolerance
        n = 500 if smoke else 800 * base.n_atoms
        calls.append(_kl_call(f"crit3-{idx:02d}", base, A, f, 0.1, 0.05, n,
                              check=_atoms_check(base, A, f,
                                                  metrics.tv_discrete,
                                                  TV_TOL)))
        fs.append(f)

    # a one-mode mixture: on a two-mode base the W2 to the quadrature truth
    # is dominated by the sampled mass of each mode and would need n ~ 1e6
    # to stay under the 0.02 tolerance
    Q = random_rotation(rng, 1)
    gmm = rotate_gmm(ra.GaussianMixtureModel(
        [0.4, 0.6], [[-0.6], [0.7]], [[[0.5]], [[0.3]]], 6.0), Q)
    A = np.eye(1) @ Q.T
    f = ra.make_max_affine([(np.array([0.25]), 0.0),
                            (np.array([-0.15]), 0.1)])
    f.radius = 6.0
    calls.append(_kl_call("gmm1d-maxaffine", gmm, A, f, 0.1, 0.05,
                          500 if smoke else 100_000,
                          check=_w2_quadrature_check(gmm, A, f)))
    fs.append(f)

    base = random_discrete(gen, 8, 2)
    A = random_orthogonal_rows(gen, 1, 2)
    Q = random_rotation(rng, 2)
    base, A = rotate_discrete(base, Q), A @ Q.T
    lse = ra.LogSumExpReward([1.0, 0.7], [[0.5], [-0.5]], A)
    env = ra.Envelope.from_pieces(*lse.envelope_pieces())
    calls.append(_kl_call("lse-explicit-envelope", base, A, lse.f, 0.3, 0.05,
                          500 if smoke else 10_000, envelope=env,
                          check=_atoms_check(base, A, lse.f,
                                             metrics.tv_discrete, TV_TOL)))
    fs.append(lse.f)
    return Workload("kl-exact", seed, calls, 3, fs)


def kl_oracle(seed: int, smoke: bool = False) -> Workload:
    """Score-oracle-only KL path (reverse diffusion inside the rejection
    loop): the two-atom unit-test instance and a 2D three-atom base.

    Both are gated on the mass the sample puts at each atom, with the unit
    test's tolerance 0.08; an untilted draw misses it by 0.23 and 0.15.
    eps 0.5 (the unit test uses 0.3) means 800 reverse steps per draw
    instead of 1334.  At eps 0.5 the two-atom mass comes out about 0.03
    low, so n = 1600 keeps the sampling noise (sd 0.011) more than 4 sd
    inside the rest of the tolerance."""
    rng = np.random.default_rng(seed)
    eps = 0.9 if smoke else 0.5
    n = 40 if smoke else 1600
    calls, fs = [], []

    Q = random_rotation(rng, 1)
    base = rotate_discrete(ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0),
                           Q)
    A = np.eye(1) @ Q.T
    f = ra.make_max_affine([(np.array([1.0]), 0.0)])
    f.radius = 1.0
    check = _mass_check(base, A, f)
    calls.append(_kl_call("two-atom", base, A, f, eps, 0.1, n,
                          backend="diffusion", check=check,
                          control=_untilted_control(base, 1600, check)))
    fs.append(f)

    # three atoms spread along the reward direction, and a linear reward
    # with LR = 0.45 < 1/2: a one-piece envelope, so one diffusion pass per
    # rejection round, against three for the two-atom instance
    base = ra.DiscreteModel([[-0.95, 0.2], [0.0, -0.6], [0.95, 0.2]],
                            [1 / 3, 1 / 3, 1 / 3], 1.0)
    A = np.array([[1.0, 0.0]])
    f = ra.make_max_affine([(np.array([0.45]), 0.0)])
    f.radius = 1.0
    Q = random_rotation(rng, 2)
    base, A = rotate_discrete(base, Q), A @ Q.T
    check = _mass_check(base, A, f)
    calls.append(_kl_call("three-atom-2d", base, A, f, eps, 0.1, n,
                          backend="diffusion", check=check,
                          control=_untilted_control(base, 1600, check)))
    fs.append(f)
    return Workload("kl-oracle", seed, calls, 2, fs)


def w2_prox(seed: int, smoke: bool = False) -> Workload:
    """The Wasserstein pushforward across the three prox backends."""
    gen = np.random.default_rng(STRUCTURE_SEED + 2)
    rng = np.random.default_rng(seed)
    calls, rewards = [], []

    # lowrank: r_A = 2, lambda = 0.1, eps = 0.1 (net of about 1.3e5 points)
    base = random_discrete(gen, 16, 4)
    A = random_orthogonal_rows(gen, 2, 4, op_norm=0.8)
    f = random_maxaffine(gen, 2, 4, 1.0, 0.8 * base.support_radius)
    Q = random_rotation(rng, 4)
    base, A = rotate_discrete(base, Q), A @ Q.T
    reward = ra.LowRankReward(A, f)
    h = ra.Alg2Params.from_problem(f.lipschitz, 0.8, 0.1, 1.0, GAP_EPS, 2).h
    calls.append(_w2_call("lowrank-r2", base, reward, 0.1,
                          3 if smoke else 40, "lowrank",
                          _gap_check(reward, 0.1, 1.0, h, 1 if smoke else 4),
                          eps=GAP_EPS))
    rewards.append(f)

    # pga: concave quadratic over a 3D Gaussian mixture
    means = 0.4 * np.array([[1.0, 0.0, 0.0], [-0.5, 0.8, 0.0],
                            [0.0, -0.6, 0.7]])
    covs = np.stack([np.diag(gen.uniform(0.005, 0.02, 3)) for _ in range(3)])
    M = gen.standard_normal((3, 3))
    B = M @ M.T / 6.0 + 0.05 * np.eye(3)
    b = gen.standard_normal(3)
    Q = random_rotation(rng, 3)
    gmm = rotate_gmm(ra.GaussianMixtureModel([0.3, 0.3, 0.4], means, covs,
                                             1.5), Q)
    quad = ra.QuadraticReward(Q @ B @ Q.T, Q @ b)
    calls.append(_w2_call("pga-gmm3d", gmm, quad, 0.5,
                          20 if smoke else 400, "pga",
                          _gap_check(quad, 0.5, 1.5, 0.05, 2 if smoke else 4)))
    rewards.append(quad)

    # quad on figure 1: x = 1 + y/2 exactly
    fig1 = ra.QuadraticReward([[0.15]], [0.6], c=-0.6)

    def transport_check(res):
        dev = float(np.max(np.abs(res.xs - (1.0 + res.ys / 2.0))))
        return dev / TRANSPORT_TOL

    calls.append(_w2_call("quad-fig1", fig1_base(), fig1, 0.15,
                          1000 if smoke else 100_000, "quad",
                          transport_check, exact=True))
    rewards.append(fig1)

    # quad with diffusion base draws; the reward pushes about half of the
    # points onto the sphere, so the per-point boundary solve runs.  Only
    # the prox is checked: at n = 1000 the W2 noise floor of any sample of
    # this two-mode base (about 0.1) is above the 0.05 diffusion tolerance.
    pull = ra.QuadraticReward([[0.05]], [3.0])
    base = fig1_base()
    calls.append(_w2_call("quad-gmm-diffusion", base, pull, 0.15,
                          100 if smoke else 1000, "quad",
                          _dist_check(pull, 0.15, base.support_radius, 1e-4,
                                      2 if smoke else 4),
                          base_backend="diffusion",
                          steps=300 if smoke else 2000))
    rewards.append(pull)
    return Workload("w2-prox", seed, calls, 6, rewards)


WORKLOADS = {"kl-exact": kl_exact, "kl-oracle": kl_oracle,
             "w2-prox": w2_prox}
