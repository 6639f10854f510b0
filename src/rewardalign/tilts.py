"""The linear-tilt primitive: exact tilts of closed-form bases, a
tilted-score identity for oracle-only bases, approximate tilt sampling,
and normalizer estimation with exact / Monte Carlo / annealed backends.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from .errors import BudgetError, ValidationError
from .models import (DiscreteModel, GaussianMixtureModel, Model,
                     SampleBatch, ScoreOracle, _as_noise, _rng_from,
                     project_ball, recommended_steps, sample_exact,
                     sample_via_diffusion, score_oracle)

MC_SAMPLE_CAP = 10_000_000

# Draws per block when a Monte Carlo normalizer sums exp(<v, X>), so its
# memory stays flat up to MC_SAMPLE_CAP draws.
MC_BLOCK = 8192


@dataclass(frozen=True)
class NormalizerEstimate:
    """Estimate of Z_P(v) = E_P exp(<v, X>)."""

    value: float
    eta: float
    delta: float
    method: str
    n_draws: int = 0

    def __post_init__(self):
        if self.value <= 0:
            raise ValidationError("normalizer estimate must be positive")

    @property
    def log_value(self) -> float:
        return float(np.log(self.value))


def tilt_exact(model: Model, v) -> Model:
    """Exact linear exponential tilt p(x; v) ~ p(x) exp(<v, x>).

    Gaussian mixtures stay Gaussian mixtures (means shift by Sigma_j v,
    weights pick up the component MGF); atom sets are reweighted.  The
    support-mass invariant is re-checked for mixtures.
    """
    v = np.asarray(v, dtype=float)
    if v.shape != (model.d,):
        raise ValidationError("tilt vector dimension mismatch")

    if isinstance(model, DiscreteModel):
        logits = np.log(model.probs) + model.atoms @ v
        probs = np.exp(logits - logsumexp(logits))
        probs /= probs.sum()
        return DiscreteModel(model.atoms, probs, model.support_radius)

    sigv = np.einsum("jab,b->ja", model.covs, v)          # Sigma_j v
    log_mgf = model.means @ v + 0.5 * (v @ sigv.T)        # <v,mu_j> + v'Sigma_j v / 2
    logw = np.log(model.weights) + log_mgf
    weights = np.exp(logw - logsumexp(logw))
    weights /= weights.sum()
    return GaussianMixtureModel(weights, model.means + sigv, model.covs,
                                model.support_radius)


def log_normalizer_exact(model: Model, v) -> float:
    """log Z_P(v) in closed form."""
    v = np.asarray(v, dtype=float)
    if isinstance(model, DiscreteModel):
        return float(logsumexp(np.log(model.probs) + model.atoms @ v))
    sigv = np.einsum("jab,b->ja", model.covs, v)
    log_mgf = model.means @ v + 0.5 * (v @ sigv.T)
    return float(logsumexp(np.log(model.weights) + log_mgf))


def tilted_score(base: ScoreOracle, v, sigma, x: np.ndarray) -> np.ndarray:
    """Score of the noised tilted base, from base scores alone.

    Uses the identity grad log ptilde_sigma(x) = v/a + s_sigma(x + (sigma^2/a) v)
    with a = sqrt(1 - sigma^2), which holds because linear tilts commute
    with Gaussian noising up to a shift (verified against closed forms in
    the test suite).  ``v`` is one tilt (d,) or one tilt per row of ``x``
    (n, d); the identity holds row by row.
    """
    nl = _as_noise(sigma)
    v = np.asarray(v, dtype=float)
    a = nl.a
    shifted = np.asarray(x, dtype=float) + (nl.sigma**2 / a) * v
    return v / a + np.asarray(base(nl.sigma, shifted), dtype=float)


def tilted_oracle(base: ScoreOracle, v) -> ScoreOracle:
    v = np.asarray(v, dtype=float)

    def fn(sigma, xb):
        return tilted_score(base, v, sigma, xb)

    return ScoreOracle(fn=fn, d=base.d, C=base.C,
                       tag=f"tilt({base.tag})")


def sample_linear_tilt(base, v, eps: float, seed, backend: str = "exact",
                       n: int = 1, steps: int = None) -> SampleBatch:
    """Draw from the linear tilt of the base.

    backend="exact" needs a closed-form model and samples the tilted model
    directly; backend="diffusion" accepts a model or a ScoreOracle and runs
    the reverse process on the tilted score, with the step count mapped
    from the W2 target eps.  Outputs live in the support ball either way.
    """
    if eps <= 0:
        raise ValidationError("eps must be positive")
    v = np.asarray(v, dtype=float)

    if backend == "exact":
        if not isinstance(base, (GaussianMixtureModel, DiscreteModel)):
            raise ValidationError("exact backend needs a closed-form model")
        tilted = tilt_exact(base, v)
        batch = sample_exact(tilted, n, seed)
        pts = project_ball(batch.points, base.support_radius)
        return SampleBatch(points=pts, seed=batch.seed,
                           producer="lin_tilt_exact", d=base.d,
                           C=base.support_radius)

    if backend == "diffusion":
        oracle = base if isinstance(base, ScoreOracle) else score_oracle(base)
        if steps is None:
            steps = recommended_steps(eps, oracle.C)
        batch = sample_via_diffusion(tilted_oracle(oracle, v), n=n,
                                     steps=steps, seed=seed)
        return SampleBatch(points=batch.points, seed=batch.seed,
                           producer="lin_tilt_diffusion", d=oracle.d,
                           C=oracle.C)

    raise ValidationError(f"unknown backend {backend!r}")


# ---------------------------------------------------------------------------
# Normalizer estimation
# ---------------------------------------------------------------------------

def _mean_exp(model: Model, v: np.ndarray, n: int, rng) -> float:
    """Mean of exp(<v, X>) over n exact draws of the model, summed block
    by block."""
    total = 0.0
    for s in range(0, n, MC_BLOCK):
        xs = sample_exact(model, min(MC_BLOCK, n - s), rng).points
        total += float(np.exp(xs @ v).sum())
    return total / n


def _hoeffding_draws(vc: float, eta: float, delta: float) -> int:
    # Hoeffding on exp(<v,X>) with range within [e^{-vc}, e^{vc}] and mean
    # at least e^{-vc}; the crude e^{4 vc} covers range^2 / mean^2.
    return int(np.ceil(np.exp(4.0 * vc) * np.log(2.0 / delta) / (2.0 * eta**2)))


def estimate_normalizer(base, v, eta: float, delta: float, seed=None,
                        backend: str = "exact",
                        mc_cap: int = MC_SAMPLE_CAP) -> NormalizerEstimate:
    """Estimate Z_P(v) to relative accuracy eta with failure probability
    delta.

    exact: closed form (eta trivially satisfied).  mc: Hoeffding-sized
    empirical mean of exp(<v,X>) over base draws.  annealed: telescoping
    product of ratio estimates along t_j * v, each stage estimated under
    the tilt at the previous stage; keeps per-stage integrands in a narrow
    range so the budget stays flat in ||v||C.
    """
    if not (0.0 < eta < 1.0 and 0.0 < delta < 1.0):
        raise ValidationError("eta and delta must lie in (0,1)")
    v = np.asarray(v, dtype=float)
    if v.shape != (base.d,):
        raise ValidationError("tilt vector dimension mismatch")
    C = base.support_radius
    vc = float(np.linalg.norm(v) * C)
    rng = _rng_from(seed)

    if backend == "exact":
        return NormalizerEstimate(value=float(np.exp(log_normalizer_exact(base, v))),
                                  eta=eta, delta=delta, method="exact")

    if backend == "mc":
        n = _hoeffding_draws(vc, eta, delta)
        if n > mc_cap:
            raise BudgetError(
                f"mc normalizer needs {n} draws (cap {mc_cap}); use the "
                f"annealed backend for ||v||C = {vc:.3g}")
        return NormalizerEstimate(value=_mean_exp(base, v, n, rng),
                                  eta=eta, delta=delta,
                                  method="mc", n_draws=n)

    if backend == "annealed":
        stages = max(1, int(np.ceil(2.0 * vc)))
        eta_j = eta / (2.0 * stages)
        delta_j = delta / stages
        dvc = vc / stages
        n_j = _hoeffding_draws(dvc, eta_j, delta_j)
        if n_j * stages > mc_cap:
            raise BudgetError(
                f"annealed normalizer needs {n_j * stages} draws (cap {mc_cap})")
        log_val = 0.0
        for j in range(stages):
            stage = tilt_exact(base, (j / stages) * v)
            log_val += float(np.log(_mean_exp(stage, v / stages, n_j, rng)))
        return NormalizerEstimate(value=float(np.exp(log_val)), eta=eta,
                                  delta=delta, method="annealed",
                                  n_draws=n_j * stages)

    raise ValidationError(f"unknown backend {backend!r}")
