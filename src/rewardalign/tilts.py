"""The linear-tilt primitive: exact tilts of closed-form bases, a
tilted-score identity for oracle-only bases, approximate tilt sampling,
and normalizer estimation in closed form or by Monte Carlo over exact
draws, as a product of ratios along the tilt.

A tilt is a vector v (d,) or a matrix V (m, d) of m tilts, one per row.
A pi-mixture of tilts of atoms or a Gaussian mixture is again one model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, NumericalError, ValidationError, finite
from .models import (DiscreteModel, GaussianMixtureModel, Model,
                     SampleBatch, ScoreOracle, _logsumexp, _noise,
                     _rng_from, closed_form, norms, recommended_steps,
                     sample_exact, sample_via_diffusion, score_oracle)

MC_SAMPLE_CAP = 10_000_000
# S stages take over S^3 log(2) / 2 draws (eta_S <= eta / S): no more fit
MAX_STAGES = int(np.cbrt(2.0 * MC_SAMPLE_CAP / np.log(2.0)))

# Draws per block when a Monte Carlo normalizer sums exp(<v, X>), and
# entries per (tilts x atoms) or (draws x tilts) temporary (512 KiB).
MC_BLOCK = 8192
TILT_BLOCK = 65536


@dataclass(frozen=True)
class NormalizerEstimate:
    """Estimate of log Z_P(v) = log E_P exp(<v, X>): a float for one tilt,
    an (m,) array for a tilt matrix."""

    log_value: float | np.ndarray
    eta: float
    delta: float
    method: str
    n_draws: int = 0

    def __post_init__(self):  # finite input, exp over- or underflowed
        if not np.all(np.isfinite(self.log_value)):
            raise NumericalError("log normalizer is not finite")

    @property
    def value(self):
        """Z_P(v); overflows to inf where log Z_P(v) exceeds ~709."""
        return np.exp(self.log_value)


def _tilt_rows(model: Model, V) -> np.ndarray:
    """V as a finite (m, d) tilt matrix; one tilt (d,) is the m = 1 case."""
    V, d = finite("tilt", V), closed_form(model).d
    if V.shape[-1:] != (d,) or V.ndim not in (1, 2) or V.size == 0:
        raise ValidationError("tilt vector dimension mismatch")
    return np.atleast_2d(V)


def _tilt_blocks(model: Model, V: np.ndarray):
    """Yield (rows, logw, log_z) per block of tilts: log-weights
    log p_a + <v_i, x_a> over atoms (TILT_BLOCK-sized blocks), or
    log w_j + <v_i, mu_j> + v_i' Sigma_j v_i / 2 over components (one
    block), and their log-sum-exp per tilt, the log normalizer: a
    NumericalError where it is not finite (logits past the float max)."""
    atoms = isinstance(model, DiscreteModel)
    step = max(1, TILT_BLOCK // model.n_atoms) if atoms else len(V)
    for s in range(0, len(V), step):
        W = V[s:s + step]
        with np.errstate(over="ignore"):  # see the docstring
            if atoms:
                logw = model._log_probs + W @ model.atoms.T
            else:
                logw = model._log_weights + (
                    W @ model.means.T
                    + 0.5 * np.einsum("ia,jab,ib->ij", W, model.covs, W))
        log_z = _logsumexp(logw, axis=1)
        if not np.isfinite(log_z).all():
            raise NumericalError("log normalizer is not finite")
        yield slice(s, s + step), logw, log_z


def tilt_exact(model: Model, V, log_pi=None) -> Model:
    """Exact linear tilt p(x; v) ~ p(x) exp(<v, x>), or the mixture
    sum_i pi_i * tilt(v_i) over the rows of V (m, d) with log-weights
    ``log_pi`` (equal when None), as one model.

    Atoms are reweighted.  Tilt i moves mixture component j to mean
    mu_j + Sigma_j v_i with weight pi_i * w'_ij and the same Sigma_j: m*J
    components, tilt-major, no support check.  As e^{<v,x>} N(x; mu_j,
    Sigma_j) = M_j(v) N(x; mu_j + Sigma_j v, Sigma_j), ``sample_exact``
    draws p 1_B sum_i (pi_i / Z_i) e^{<v_i, x>} (Z_i untruncated): the
    truncated base's tilt, or envelope tilt if pi_i ~ e^{b_i} Z_i."""
    V = _tilt_rows(model, V)
    log_pi = np.zeros(len(V)) if log_pi is None else np.asarray(log_pi, float)
    if log_pi.shape != (len(V),) or not np.isfinite(log_pi.max()):
        raise ValidationError("log_pi: one log-weight per tilt, max finite")
    log_pi = log_pi - log_pi.max()
    # pi_i * tilt_i per block of tilts, over atoms or components
    blocks = (np.exp(logw + (log_pi[rows] - log_z)[:, None])
              for rows, logw, log_z in _tilt_blocks(model, V))

    if isinstance(model, DiscreteModel):
        probs = sum(block.sum(axis=0) for block in blocks)
        return DiscreteModel(model.atoms, probs / probs.sum(),
                             model.support_radius)

    weights = next(blocks).ravel()
    means = model.means + np.einsum("jab,ib->ija", model.covs, V)
    return GaussianMixtureModel(weights / weights.sum(),
                                means.reshape(-1, model.d),
                                np.tile(model.covs, (len(V), 1, 1)),
                                model.support_radius, check_support=False)


def log_normalizer_exact(model: Model, V):
    """log Z_P(v) in closed form per tilt; a float for one tilt (d,)."""
    out = np.concatenate([log_z for _, _, log_z
                          in _tilt_blocks(model, _tilt_rows(model, V))])
    return float(out[0]) if np.ndim(V) == 1 else out


def tilted_score(base: ScoreOracle, v, sigma, x: np.ndarray) -> np.ndarray:
    """Score of the noised tilted base, from base scores alone.

    Uses the identity grad log ptilde_sigma(x) = v/a + s_sigma(x + (sigma^2/a) v)
    with a = sqrt(1 - sigma^2), which holds because linear tilts commute
    with Gaussian noising up to a shift (verified against closed forms in
    the test suite).  ``v`` is one tilt (d,) or one tilt per row of ``x``
    (n, d); the identity holds row by row.
    """
    a, s2 = _noise(sigma)
    v = np.asarray(v, dtype=float)
    shifted = np.asarray(x, dtype=float) + (s2 / a) * v
    return v / a + np.asarray(base(float(sigma), shifted), dtype=float)


def sample_linear_tilt(base, v, eps: float, seed, backend: str = "exact",
                       n: int = 1, steps: int = None) -> SampleBatch:
    """Draw from the linear tilt of the base: the one draw path of the
    samplers.  ``v=None`` is the zero tilt, the base itself, drawn as
    ``sample_exact`` or ``sample_via_diffusion(score_oracle(base))`` would.

    backend="exact" needs a closed-form model and samples the tilted model
    directly, for one tilt (d,); backend="diffusion" accepts a model or a
    ScoreOracle and runs the reverse process on the tilted score, for one
    tilt (d,) or one per row (n, d), in ``steps`` steps or, when None,
    ``recommended_steps`` of the W2 target eps (capped).  Outputs live in
    the support ball either way.
    """
    if not eps > 0:
        raise ValidationError(f"eps must be positive, got {eps}")
    shapes = {"exact": [(base.d,)], "diffusion": [(base.d,), (n, base.d)]}
    if backend not in shapes:
        raise ValidationError(f"unknown backend {backend!r}")
    if v is not None and finite("tilt", v).shape not in shapes[backend]:
        raise ValidationError(f"a tilt on the {backend} backend has shape "
                              f"{' or '.join(map(str, shapes[backend]))}")

    if backend == "exact":  # both check that base has closed forms
        return sample_exact(base if v is None else tilt_exact(base, v), n,
                            seed)

    oracle = base if isinstance(base, ScoreOracle) else score_oracle(base)
    if v is not None:
        untilted, v = oracle, np.asarray(v, dtype=float)
        oracle = ScoreOracle(fn=lambda s, xb: tilted_score(untilted, v, s, xb),
                             d=oracle.d, C=oracle.C, tag=f"tilt({oracle.tag})")
    if steps is None:
        steps = recommended_steps(eps, oracle.C)
    return sample_via_diffusion(oracle, n=n, steps=steps, seed=seed)


# ---------------------------------------------------------------------------
# Normalizer estimation
# ---------------------------------------------------------------------------

def _mean_exp(model: Model, V, n: int, rng) -> np.ndarray:
    """Mean of exp(<v_i, X>) per tilt row over one stream of n exact draws,
    summed in blocks of at most MC_BLOCK draws and TILT_BLOCK terms, so
    memory stays flat in n and m."""
    rows = np.atleast_2d(V)
    total = np.zeros(len(rows))
    block = min(MC_BLOCK, max(1, TILT_BLOCK // len(rows)))
    for s in range(0, n, block):
        xs = sample_exact(model, min(block, n - s), rng).points
        total += np.exp(xs @ rows.T).sum(axis=0)
    return total / n


def _stage_plan(vc: float, eta: float, delta: float, m: int):
    """(S, n): the stage count and draws per stream with the fewest draws
    n (1 + m (S - 1)) in all, checked against MC_SAMPLE_CAP before the int
    (at large vc every count is inf).  Stage j estimates Z((j+1) v/S) /
    Z(j v/S) = E_{tilt(j v/S)} exp(<v/S, X>) to relative accuracy
    eta_S = (1 + eta)^(1/S) - 1 with failure probability delta/S, so the
    product is within (1 +- eta_S)^S, inside 1 +- eta.  Hoeffding: the
    crude e^{4 vc/S} covers range^2 / mean^2 of exp(<v/S, X>)."""
    S = np.arange(1, MAX_STAGES + 1)
    eta_s = np.expm1(np.log1p(eta) / S)
    eta_s[0] = eta  # S = 1 is the one-stream mean, to the bit
    with np.errstate(all="ignore"):
        n = np.ceil(np.exp(4.0 * vc / S) * np.log(2.0 * S / delta)
                    / (2.0 * eta_s**2))
        total = n * (1 + m * (S - 1))
    best = int(np.argmin(total))
    if not total[best] <= MC_SAMPLE_CAP:
        raise BudgetError(f"normalizer needs {total[best]:.3g} draws (cap "
                          f"{MC_SAMPLE_CAP}); reduce ||v||C")
    return best + 1, int(n[best])


def estimate_normalizer(base, V, eta: float, delta: float, seed=None,
                        backend: str = "exact") -> NormalizerEstimate:
    """Estimate log Z_P(v) per tilt to relative accuracy eta on Z, with
    failure probability delta per tilt.

    exact: closed form.  mc: a product of S ratio estimates along
    (j/S) v_i with one S for all tilts (``_stage_plan``).  Stage 0 is one
    stream of base draws shared by all tilts (a union bound over tilts
    needs no independence); stage j >= 1 draws each tilt from
    tilt(j v_i/S).  At S = 1 it is one mean of exp(<v_i, X>).
    """
    if not (0.0 < eta < 1.0 and 0.0 < delta < 1.0):
        raise ValidationError("eta and delta must lie in (0,1)")
    rows = _tilt_rows(base, V)
    if backend == "exact":
        return NormalizerEstimate(log_value=log_normalizer_exact(base, V),
                                  eta=eta, delta=delta, method="exact")
    if backend != "mc":
        raise ValidationError(f"unknown backend {backend!r}")

    vc = float(norms(rows).max()) * base.support_radius  # inf meets the cap
    stages, n = _stage_plan(vc, eta, delta, len(rows))
    rng = _rng_from(seed)
    steps = rows / stages
    log_value = np.log(_mean_exp(base, steps, n, rng))
    for j in range(1, stages):
        for i, v in enumerate(steps):
            log_value[i] += np.log(_mean_exp(tilt_exact(base, j * v), v, n,
                                             rng))[0]
    return NormalizerEstimate(
        log_value=float(log_value[0]) if np.ndim(V) == 1 else log_value,
        eta=eta, delta=delta, method="mc",
        n_draws=n * (1 + len(rows) * (stages - 1)))
