"""The linear-tilt primitive: exact tilts of closed-form bases, a
tilted-score identity for oracle-only bases, approximate tilt sampling, and
normalizer estimation in closed form or by path sampling over those draws.

A tilt is a vector v (d,) or a matrix V (m, d): the pi-mixture of m tilts,
one per row, which for atoms or a Gaussian mixture is again one model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import BudgetError, NumericalError, ValidationError, finite
from .models import (ROW_BLOCK, TILT_BLOCK, DiscreteModel,
                     GaussianMixtureModel, Model, SampleBatch, ScoreOracle,
                     _categorical, _logsumexp, _noise, _NoiseRow, _rng_from,
                     _seed_tag, check_count, check_steps, closed_form,
                     has_closed_form, norms, recommended_steps, sample_exact,
                     sample_via_diffusion, score_oracle)

MC_SAMPLE_CAP = 10_000_000


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


def _tilt_rows(base, V, log_pi=None) -> tuple:
    """V as a finite (m, d) tilt matrix, one tilt (d,) being the m = 1
    case, and log_pi as one log-weight per tilt shifted to max 0, zeros
    when None: the one check of tilts and their mixture weights."""
    V = finite("tilt", V)
    if V.shape[-1:] != (base.d,) or V.ndim not in (1, 2) or V.size == 0:
        raise ValidationError("tilt vector dimension mismatch")
    V = np.atleast_2d(V)
    log_pi = np.zeros(len(V)) if log_pi is None else np.asarray(log_pi, float)
    if log_pi.shape != (len(V),) or not np.isfinite(log_pi.max()):
        raise ValidationError("log_pi: one log-weight per tilt, max finite")
    return V, log_pi - log_pi.max()


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
    V, log_pi = _tilt_rows(closed_form(model), V, log_pi)
    # pi_i * tilt_i per block of tilts, over atoms or components; a
    # log-weight past -float max is -inf, weight 0
    blocks = (np.exp(logw + (log_pi[rows] - log_z)[:, None])
              for rows, logw, log_z in _tilt_blocks(model, V))
    with np.errstate(over="ignore"):
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
    out = np.concatenate([log_z for _, _, log_z in _tilt_blocks(
        model, _tilt_rows(closed_form(model), V)[0])])
    return float(out[0]) if np.ndim(V) == 1 else out


def tilted_score(base: ScoreOracle, v, sigma, x: np.ndarray,
                 work: np.ndarray = None) -> np.ndarray:
    """Score of the noised tilted base, from base scores alone.

    Uses the identity grad log ptilde_sigma(x) = v/a + s_sigma(x + (sigma^2/a) v)
    with a = sqrt(1 - sigma^2), which holds because linear tilts commute
    with Gaussian noising up to a shift (verified against closed forms in
    the test suite).  ``v`` is one tilt (d,) or one tilt per row of ``x``
    (n, d); the identity holds row by row.  ``sigma`` may also be a row of
    a noise table of the base's model, as ``score`` takes it: the shifted
    query and then v/a are formed in ``work`` (an array shaped like x, new
    when None), and the base score in the pass's buffer, where v/a is added.
    """
    v = np.asarray(v, dtype=float)
    if not isinstance(sigma, _NoiseRow):
        a, s2 = _noise(sigma)
        shifted = np.asarray(x, dtype=float) + (s2 / a) * v
        return v / a + np.asarray(base(float(sigma), shifted), dtype=float)
    work = np.empty(np.shape(x)) if work is None else work
    np.multiply(v, sigma.s2 / sigma.a, out=work)
    work += x
    sc = base(sigma, work)
    return np.add(np.divide(v, sigma.a, out=work), sc, out=sc)


def sample_linear_tilt(base, V, seed, n: int = 1, steps: int = None,
                       log_pi=None) -> SampleBatch:
    """Draw from the tilt of the base by V, on ``tilt_exact``'s contract:
    the one draw path of the samplers.  ``V=None`` is the base itself,
    drawn as ``sample_exact`` or ``sample_via_diffusion(score_oracle(base))``
    would.  steps=None draws ``sample_exact(tilt_exact(base, V, log_pi))``
    on a closed-form model; an integer makes one reverse pass of that many
    steps on the tilted score, of a model or a ScoreOracle.  For a matrix
    V each row first draws its tilt from pi by ``_categorical``, from the
    same stream; at m = 1 that draw takes nothing, so v[None] draws the
    bytes of v.  The count and the step count are checked before any
    draw.  Outputs live in the support ball either way.
    """
    check_count(n)
    if steps is None:  # both check that base has closed forms
        return sample_exact(
            base if V is None else tilt_exact(base, V, log_pi), n, seed)
    check_steps(steps)  # before the tilt draw moves the caller's stream
    oracle = base if isinstance(base, ScoreOracle) else score_oracle(base)
    if V is None:
        return sample_via_diffusion(oracle, n=n, steps=steps, seed=seed)
    rows, log_pi = _tilt_rows(oracle, V, log_pi)
    rng = _rng_from(seed)
    if np.ndim(V) == 2:  # one tilt per row, held d-major as the pass's x
        rows = np.take(rows.T, _categorical(np.exp(log_pi), n, rng),
                       axis=1).T
    table = getattr(oracle.fn, "table_model", None)
    # a noise-table pass forms each step's shift, then v/a, in one buffer
    work = None if table is None else np.empty((oracle.d, n)).T

    def fn(s, xb):  # takes the base's noise-table rows, if it has them
        return tilted_score(oracle, rows, s, xb, work)
    fn.table_model = table
    tilted = ScoreOracle(fn=fn, d=oracle.d, C=oracle.C,
                         tag=f"tilt({oracle.tag})")
    batch = sample_via_diffusion(tilted, n=n, steps=steps, seed=rng)
    return replace(batch, seed=_seed_tag(seed))


# ---------------------------------------------------------------------------
# Normalizer estimation
# ---------------------------------------------------------------------------

def estimate_normalizer(base, V, eta: float, delta: float, seed=None,
                        backend: str = None) -> NormalizerEstimate:
    """Estimate log Z_P(v) per tilt to relative accuracy eta on Z, with
    failure probability delta per tilt; ``backend`` None is exact on a
    closed-form base, mc on a ScoreOracle (``has_closed_form``).

    exact: closed form.  mc: path sampling (Gelman and Meng 1998), log Z(v)
    = int_0^1 g(t) dt, g(t) = E_{tilt(t v)} <v, X>, by the midpoint rule
    over K panels at t_k = (k + 1/2) / K, from N i.i.d. draws of the equal
    mixture of the tilts t_k v, whose mean of <v, X> is the midpoint sum.
    With <v, X> in [-B, B], B = ||v|| C, K and N hold three error terms on
    log Z to log(1 + eta) in all, in halves on exact draws or thirds on
    diffusion draws:
    - quadrature: g'' = kappa_3 and |kappa_3| <= 2 B^3, so B^3 / (12 K^2);
    - sampling: Hoeffding over the N draws needs
      N >= 2 B^2 log(2 / delta) / eps_s^2, whatever K;
    - draws: ``sample_linear_tilt`` of the nodes, exact on a closed-form
      base, diffusion on a ScoreOracle, where each row's W2 error eps_d to
      its node's tilt moves g by at most ||v|| eps_d; its steps are
      ``recommended_steps(eps_d, C)``, so this term rests on that step rule.
    Rows draw in order, a zero tilt none, ROW_BLOCK rows at a time, exact
    ones from one node mixture per tilt; the total meets MC_SAMPLE_CAP
    before any int (a huge B makes it inf).
    """
    if not (0.0 < eta < 1.0 and 0.0 < delta < 1.0):
        raise ValidationError("eta and delta must lie in (0,1)")
    rows, _ = _tilt_rows(base, V)
    if backend is None:
        backend = "exact" if has_closed_form(base) else "mc"
    if backend == "exact":
        return NormalizerEstimate(log_value=log_normalizer_exact(base, V),
                                  eta=eta, delta=delta, method="exact")
    if backend != "mc":
        raise ValidationError(f"unknown backend {backend!r}")

    source = "exact" if has_closed_form(base) else "diffusion"
    eps = np.log1p(eta) / (3.0 if source == "diffusion" else 2.0)
    B = norms(rows) * (C := base.support_radius)
    # an eps^2 that underflows to 0 asks inf draws, refused below
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        K = np.maximum(np.ceil(np.sqrt(B**3 / (12.0 * eps))), 1.0)
        N = np.ceil(2.0 * B**2 * np.log(2.0 / delta) / eps**2)
    if not (total := N.sum()) <= MC_SAMPLE_CAP:
        raise BudgetError(f"normalizer needs {total:.3g} draws (cap "
                          f"{MC_SAMPLE_CAP}); reduce ||v||C")
    rng = _rng_from(seed)
    log_value = np.zeros(len(rows))
    for i, v in enumerate(rows):
        k, n = int(K[i]), int(N[i])
        if n == 0:  # a zero tilt
            continue
        nodes = ((np.arange(k) + 0.5) / k)[:, None] * v
        law, tilt, steps = (
            (tilt_exact(base, nodes), None, None) if source == "exact"
            else (base, nodes, recommended_steps(eps * C / B[i], C)))
        for s in range(0, n, ROW_BLOCK):
            xs = sample_linear_tilt(law, tilt, rng, n=min(ROW_BLOCK, n - s),
                                    steps=steps)
            log_value[i] += (xs.points @ v).sum()
    log_value /= np.maximum(N, 1)
    return NormalizerEstimate(
        log_value=float(log_value[0]) if np.ndim(V) == 1 else log_value,
        eta=eta, delta=delta, method=f"mc, {source} draws", n_draws=int(total))
