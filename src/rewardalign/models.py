"""Base distributions with exact densities, exact samplers, and score oracles.

Two concrete base families are supported: truncated Gaussian mixtures and
finite atom sets, both confined to a Euclidean ball of known radius.  Each
provides closed-form noised scores (the law of ``sqrt(1-sigma^2) X + sigma Z``)
and an exact sampler, plus a score-oracle-only reverse-diffusion sampler for
the regime where the density is not available.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np
# numpy would load numpy.random inside the first draw; load it at import
from numpy.random import Generator, default_rng

from .errors import (CapabilityError, ConfigurationError, NumericalError,
                     ValidationError, finite)

# Untruncated mass allowed outside the support ball at construction time.
SUPPORT_MASS_TOL = 1e-10

# Reverse-process schedule: uniform in log-SNR between these noise levels.
# The start draw is N(0, I) while the noised law there is a X + sigma Z with
# a = sqrt(1 - SIGMA_MAX^2) ~ 0.014, so SIGMA_MAX bounds the start bias.
SIGMA_MAX = 0.9999
SIGMA_MIN = 1e-3

# Largest step count ``recommended_steps`` returns.  The table in
# tests/test_models.py::TestStepRule is flat from about 50 steps on (the
# start bias, not the steps, is what is left), so steps past 1000 buy
# nothing; a W2 target far below what any discretization reaches (the KL
# backend's eps_lin, or a low-rank prox's eps_P) still gets a bounded run.
DIFFUSION_STEP_CAP = 1000


def project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius.

    Accepts a single vector ``(d,)`` or a batch ``(n, d)``.
    """
    x = np.asarray(x, dtype=float)
    norms = np.linalg.norm(x, axis=-1, keepdims=True)
    scale = np.where(norms > radius, radius / np.maximum(norms, 1e-300), 1.0)
    return x * scale


def norms(rows) -> np.ndarray:
    """Row norms of (n, k) (a (k,) vector is one row), ``np.linalg.norm``'s
    unless the squares overflow: then scaled by the row's largest |entry|,
    so a finite row's norm is inf only past the float max."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with np.errstate(over="ignore"):
        out = np.linalg.norm(rows, axis=1)
        for i in np.flatnonzero(np.isinf(out)):
            top = np.abs(rows[i]).max()
            if top < np.inf:  # an inf entry keeps its inf norm
                out[i] = np.linalg.norm(rows[i] / top) * top
    return out


def _noise(sigma) -> tuple:
    """(a, sigma^2) at a noise level sigma in (0, 1): the noised law is
    that of a X + sigma Z, with signal scale a = sqrt(1 - sigma^2)."""
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise ValidationError(f"sigma must be in (0,1), got {sigma}")
    return float(np.sqrt(1.0 - sigma**2)), sigma**2


@dataclass(frozen=True)
class SampleBatch:
    """Points produced by one sampler invocation, with provenance."""

    points: np.ndarray  # (n, d)
    seed: int
    producer: str
    d: int

    def __post_init__(self):  # the gate every sample leaves through
        pts = np.asarray(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != self.d:
            raise ValidationError("points must have shape (n, d)")
        if not np.all(np.isfinite(pts)):
            raise NumericalError(f"{self.producer} produced non-finite points")
        object.__setattr__(self, "points", pts)

    def __len__(self):
        return self.points.shape[0]


def _probability_vector(name: str, p, n: int) -> tuple:
    """p as n finite nonnegative entries summing to 1 within 1e-12, and
    log p, taken once with -inf for a zero entry and no divide warning."""
    p = finite(name, p)
    if not (p.shape == (n,) and np.all(p >= 0) and abs(p.sum() - 1) <= 1e-12):
        raise ValidationError(f"{name} must be a probability vector of "
                              f"length {n} (1e-12)")
    with np.errstate(divide="ignore"):
        return p, np.log(p)


def _chi2_tail(d: int, x: float) -> float:
    """P(chi^2_d > x) for an integer d >= 1 in closed form.  With h = x/2
    and a = (d mod 2)/2 it is sum_{j < d//2} e^-h h^(j+a) / Gamma(j+a+1),
    plus erfc(sqrt h) when d is odd.  Each term is formed in the log
    domain, so none overflows and one underflows only below 1e-308."""
    h, a = x / 2.0, (d % 2) / 2.0
    log_h = math.log(h) if h > 0.0 else -math.inf
    out = math.erfc(math.sqrt(h)) if a else 0.0
    for j in range(d // 2):
        p = j + a
        out += math.exp((p * log_h if p else 0.0) - h - math.lgamma(p + 1.0))
    return out


class GaussianMixtureModel:
    """Gaussian mixture on the ball B(C), truncated by ``sample_exact``
    alone.  Closed forms (density, score, linear tilt) ignore the ball, so
    a caller-built mixture must leave < 1e-10 untruncated mass outside it
    (a chi-square tail bound, checked at construction).  A derived law
    (``check_support=False``: a noised mixture, a ``tilt_exact`` tilt)
    skips it; only its closed forms, which no sampler reads, see leaks.

    Attributes:
        weights: (J,) mixture weights.
        means: (J, d) component means.
        covs: (J, d, d) symmetric positive-definite covariances.
        support_radius: ball radius C.
    """

    def __init__(self, weights, means, covs, support_radius,
                 check_support: bool = True):
        self.means = np.atleast_2d(finite("means", means))
        covs = finite("covs", covs)
        if covs.ndim == 2:
            covs = covs[None, :, :]
        self.covs = covs
        self.support_radius = float(finite("C", support_radius, positive=True))

        J, d = self.means.shape
        self.weights, self._log_weights = _probability_vector(
            "weights", weights, J)
        if self.covs.shape != (J, d, d):
            raise ValidationError("inconsistent mixture shapes")
        ok = np.isclose(covs, np.swapaxes(covs, 1, 2), atol=1e-12).all((1, 2))
        if not ok.all():
            raise ValidationError(f"covariance {ok.argmin()} is not symmetric")
        # Sigma_j = V_j diag(lam_j) V_j'; the noised covariances
        # a^2 Sigma_j + sigma^2 I share these eigenvectors
        self._eigvals, self._eigvecs = np.linalg.eigh(self.covs)
        if np.any(self._eigvals <= 0):
            raise ValidationError("covariances must be positive definite")
        if check_support:
            mass = self.mass_outside_ball()
            if mass >= SUPPORT_MASS_TOL:
                raise ConfigurationError(
                    f"untruncated mass outside the support ball is {mass:.3e} "
                    f">= {SUPPORT_MASS_TOL:.0e}; enlarge C or tighten the mixture")

        self._chols = np.linalg.cholesky(self.covs)

    @property
    def d(self) -> int:
        return self.means.shape[1]

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    def mass_outside_ball(self) -> float:
        """Chi-square tail upper bound on the untruncated mass outside B(C)."""
        # a component centred at or beyond the sphere counts whole (t = 0)
        gap = np.maximum(self.support_radius
                         - np.linalg.norm(self.means, axis=1), 0.0)
        t = gap / np.sqrt(self._eigvals[:, -1])
        return float(self.weights @ [_chi2_tail(self.d, v)
                                     for v in (t * t).tolist()])

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Untruncated log-density at x (d,) or (n, d), as an (n,) array."""
        return _logsumexp(self._components(_batch(self, x), 1.0, 0.0)[0])

    def _components(self, xb: np.ndarray, a: float, s2: float):
        """Terms of the mixture with means a mu_j and covariances S_j =
        a^2 Sigma_j + s2 I = V_j diag(ev_j) V_j' at xb (n, d), component-major:
        log(w_j N(x; a mu_j, S_j)) as (J, n), and z_j / ev_j as (J, e, n),
        with z_j = V_j'(x - a mu_j) in component j's eigen-coordinates e."""
        ev = a * a * self._eigvals + s2                       # (J, e)
        vt = np.swapaxes(self._eigvecs, 1, 2)                 # V_j'
        z = vt @ xb.T - a * (vt @ self.means[:, :, None])
        zw = z / ev[:, :, None]
        logp = (self._log_weights - 0.5 * np.sum(np.log(ev), axis=1)
                - 0.5 * self.d * np.log(2.0 * np.pi))[:, None]
        return logp - 0.5 * np.sum(z * zw, axis=1), zw

    def to_dict(self) -> dict:
        return {"type": "gmm", "weights": self.weights.tolist(),
                "means": self.means.tolist(), "covs": self.covs.tolist(),
                "C": self.support_radius}


class DiscreteModel:
    """Finite atom set with probabilities; every atom inside the ball."""

    def __init__(self, atoms, probs, support_radius):
        self.atoms = np.atleast_2d(finite("atoms", atoms))
        self.support_radius = float(finite("C", support_radius, positive=True))
        self.probs, self._log_probs = _probability_vector(
            "probs", probs, len(self.atoms))
        norms = np.linalg.norm(self.atoms, axis=1)
        if np.any(norms > self.support_radius * (1 + 1e-12)):
            raise ValidationError("every atom must have norm <= C")

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    def _components(self, xb: np.ndarray, a: float, s2: float):
        """log(p_j N(x; a x_j, s2 I)) + ||x||^2 / (2 s2) at xb (n, d), as
        (J, n): the ||x||^2 term is the same for every j; and None."""
        c = (self._log_probs - 0.5 * self.d * np.log(2.0 * np.pi * s2)
             - (0.5 * a * a / s2) * np.sum(self.atoms**2, axis=1))
        return (a / s2) * (self.atoms @ xb.T) + c[:, None], None

    def to_dict(self) -> dict:
        return {"type": "discrete", "atoms": self.atoms.tolist(),
                "probs": self.probs.tolist(), "C": self.support_radius}


Model = Union[GaussianMixtureModel, DiscreteModel]


def closed_form(model) -> Model:
    """``model`` if a Gaussian mixture or atoms: the one check of exact
    draws, tilts and normalizers (a ScoreOracle has scores alone)."""
    if not isinstance(model, (GaussianMixtureModel, DiscreteModel)):
        raise CapabilityError(f"{type(model).__name__} has no closed forms")
    return model


def model_from_dict(spec: dict) -> Model:
    """Build a model from its JSON document form."""
    if not isinstance(spec, dict):
        raise ValidationError(f"a model spec must be a JSON object, got "
                              f"{type(spec).__name__}")
    kind = spec.get("type")
    try:
        if kind == "gmm":
            return GaussianMixtureModel(spec["weights"], spec["means"],
                                        spec["covs"], spec["C"])
        if kind == "discrete":
            return DiscreteModel(spec["atoms"], spec["probs"], spec["C"])
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} model spec: {exc!r}") from exc
    raise ValidationError(f"unknown model type {kind!r}")


def _read_spec(path, kind: str):
    """The JSON document of a model or reward spec file; ValidationError if
    it is not JSON."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except ValueError as exc:  # JSONDecodeError, UnicodeDecodeError
            raise ValidationError(f"{path} is not a JSON {kind} spec: "
                                  f"{exc}") from exc


def load_model(path) -> Model:
    return model_from_dict(_read_spec(path, "model"))


# ---------------------------------------------------------------------------
# Noising and closed-form scores
# ---------------------------------------------------------------------------

def noised_params(model: GaussianMixtureModel, sigma) -> GaussianMixtureModel:
    """The noised mixture, a derived law (no support check): means a mu_j,
    covariances a^2 Sigma_j + sigma^2 I, same weights, a = sqrt(1 - sigma^2)."""
    a, s2 = _noise(sigma)
    return GaussianMixtureModel(model.weights, a * model.means,
                                a * a * model.covs + s2 * np.eye(model.d),
                                model.support_radius, check_support=False)


def _batch(model: Model, x) -> np.ndarray:
    """A query point (d,) or batch (n, d) as an (n, d) array."""
    xb = np.asarray(x, dtype=float)
    if xb.ndim not in (1, 2) or xb.shape[-1] != model.d:
        raise ValidationError(f"query must be (d,) or (n, d), d = {model.d}")
    return xb.reshape(-1, model.d)


def _logsumexp(logw: np.ndarray, axis: int = 0) -> np.ndarray:
    """Max-shifted log-sum-exp over one axis; -inf where every term is.
    About 5 us on a (1, 12) array, where scipy's ``logsumexp`` takes 48."""
    shift = logw.max(axis=axis, keepdims=True)
    if not np.isfinite(shift).all():  # a row of -inf sums to 0: log 0
        shift = np.nan_to_num(shift, neginf=0.0)
    with np.errstate(divide="ignore"):
        return (shift.squeeze(axis)
                + np.log(np.exp(logw - shift).sum(axis=axis)))


def _group_rows(rows: np.ndarray) -> tuple:
    """Rows of a 2-D array grouped by exact bytes: each group's first row
    and each row's group, groups in sorted-key order.  The ``first`` and
    ``inverse`` of ``np.unique`` on the rows' opaque keys, through a stable
    sort, without the ``numpy.ma`` import ``np.unique`` can pull in."""
    rows = np.ascontiguousarray(rows)
    keys = rows.view(np.dtype((np.void, rows.itemsize * rows.shape[1])))
    perm = keys.ravel().argsort(kind="stable")
    ordered = keys.ravel()[perm]
    new = np.ones(perm.size, dtype=bool)
    new[1:] = ordered[1:] != ordered[:-1]
    group = np.empty(perm.size, dtype=np.intp)
    group[perm] = np.cumsum(new) - 1
    return perm[new], group


def score(model: Model, sigma, x: np.ndarray) -> np.ndarray:
    """Exact score ``grad log p_sigma(x)`` of the noised model at x (d,) or
    (n, d), mirroring its shape: a softmax over the (J, n) log-weights,
    max-shifted over axis 0; NumericalError if it degenerates (non-finite)."""
    a, s2 = _noise(sigma)
    xb = _batch(model, x)
    logw, zw = model._components(xb, a, s2)
    shift = logw.max(axis=0)
    if not np.all(np.isfinite(shift)):
        raise NumericalError("score query numerically unreachable")
    resp = np.exp(logw - shift)
    resp /= resp.sum(axis=0)
    if isinstance(model, DiscreteModel):
        out = (a * (resp.T @ model.atoms) - xb) / s2
    else:  # sum_j resp_j * -S_j^{-1}(x - a mu_j) = -sum_j V_j resp_j zw_j
        out = -(model._eigvecs @ (resp[:, None] * zw)).sum(axis=0).T
    if not np.all(np.isfinite(out)):
        raise NumericalError("non-finite score value")
    return out[0] if np.ndim(x) == 1 else out


def noised_log_density(model: Model, sigma, x: np.ndarray) -> np.ndarray:
    """Log-density of the noised model at x (d,) or (n, d), as (n,)."""
    a, s2 = _noise(sigma)
    xb = _batch(model, x)
    out = _logsumexp(model._components(xb, a, s2)[0])
    if isinstance(model, DiscreteModel):  # the term _components leaves out
        out -= 0.5 * np.sum(xb * xb, axis=1) / s2
    return out


@dataclass(frozen=True)
class ScoreOracle:
    """Callable contract ``(sigma, x_batch) -> score_batch`` with metadata."""

    fn: Callable[[float, np.ndarray], np.ndarray]
    d: int
    C: float
    tag: str = "closed_form"

    def __call__(self, sigma: float, x: np.ndarray) -> np.ndarray:
        return self.fn(sigma, x)

    # C, under the name the samplers read a model's ball radius by
    support_radius = property(lambda self: self.C)


def score_oracle(model: Model) -> ScoreOracle:
    """Closed-form score oracle of a model (Gaussian mixture or atoms)."""
    def fn(sigma, xb):
        return score(model, sigma, xb)
    return ScoreOracle(fn=fn, d=model.d, C=model.support_radius,
                       tag=f"exact_{type(model).__name__}")


# ---------------------------------------------------------------------------
# Exact sampling
# ---------------------------------------------------------------------------

def _rng_from(seed) -> Generator:
    if isinstance(seed, Generator):
        return seed
    return default_rng(seed)


def _seed_tag(seed) -> int:
    """The seed recorded on a batch: the integer seed, or -1 when the
    caller passed a Generator or nothing."""
    return int(seed) if isinstance(seed, (int, np.integer)) else -1


def _sample_gmm_raw(model: GaussianMixtureModel, n: int,
                    rng: Generator) -> np.ndarray:
    comps = rng.choice(model.n_components, size=n, p=model.weights)
    z = rng.standard_normal((n, model.d))
    out = model.means[comps] + np.einsum("nij,nj->ni", model._chols[comps], z)
    return out


def check_count(n) -> None:
    """The sample count check of every sampler entry: an integer >= 1."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")


def sample_exact(model: Model, n: int, seed) -> SampleBatch:
    """i.i.d. exact draws of the model truncated to its ball.  A Gaussian
    mixture draw outside is redrawn, component and point, whatever mass
    leaks (ConfigurationError past 1e6 + 10 n redraws); atoms: categorical."""
    check_count(n)
    C = closed_form(model).support_radius
    rng = _rng_from(seed)

    if isinstance(model, DiscreteModel):
        idx = rng.choice(model.n_atoms, size=n, p=model.probs)
        pts = model.atoms[idx]
    else:
        pts = _sample_gmm_raw(model, n, rng)
        bad = np.linalg.norm(pts, axis=1) > C
        failures = 0
        while np.any(bad):
            failures += int(bad.sum())
            if failures > 10**6 + 10 * n:
                raise ConfigurationError(
                    f"rejection against the support ball failed {failures} "
                    f"times for n = {n}; support radius too tight")
            pts[bad] = _sample_gmm_raw(model, int(bad.sum()), rng)
            bad[bad] = np.linalg.norm(pts[bad], axis=1) > C

    return SampleBatch(points=pts, seed=_seed_tag(seed),
                       producer=f"sample_exact/{type(model).__name__}",
                       d=model.d)


# ---------------------------------------------------------------------------
# Score-oracle-only sampling (reverse diffusion)
# ---------------------------------------------------------------------------

def recommended_steps(eps_p: float, C: float) -> int:
    """Step count of :func:`sample_via_diffusion` for a W2 target eps_p on
    a base in the ball of radius C: max(25, ceil(3 C / eps_p)), capped at
    ``DIFFUSION_STEP_CAP``.  Every draw that is not given its steps takes
    them from here, so the cap holds on every path.

    Validated empirically by ``tests/test_models.py::TestStepRule``, not
    derived.  The update is second order: against a 1000-step run from the
    same start, W2 on the fig-1 mixture is 0.031 at 25 steps and 0.0075 at
    50, and in the table the atom mass error shrinks like steps^-2 too.
    W2 on atoms is the square root of a mass error times their spacing, so
    it falls only like C / steps: the linear rule is the one atoms need.
    The floor of 25 is where the table's Gaussian columns reach their
    sampling floor.
    """
    if not eps_p > 0:
        raise ValidationError(f"eps_p must be positive, got {eps_p}")
    # capped before the int: 3 C / eps_p is inf for a subnormal eps_p
    return int(min(max(25.0, np.ceil(3.0 * C / eps_p)), DIFFUSION_STEP_CAP))


def sample_via_diffusion(oracle: ScoreOracle, n: int = 1, steps: int = None,
                         seed=None) -> SampleBatch:
    """Reverse process from N(0, I) driven only by the score oracle, with a
    final posterior-mean denoise and projection onto the support ball.

    The ``steps`` noise levels (required; see :func:`recommended_steps`)
    are uniform in log-SNR lambda = log(a / sigma) from SIGMA_MAX to
    SIGMA_MIN, and each costs one oracle call.  The update is the
    second-order multistep exponential integrator on x0 predictions
    (DPM-Solver++(2M), Lu et al. 2022, arXiv:2211.01095):
    x <- (sigma'/sigma) x - a' expm1(-h) D with h = lambda' - lambda, where D
    is the x0 prediction on the first step and afterwards
    (1 + 1/(2r)) x0_t - 1/(2r) x0_{t-1} with r = h_{t-1} / h_t, which is
    (3 x0_t - x0_{t-1}) / 2 on this uniform grid.
    """
    if not (isinstance(steps, (int, np.integer)) and steps >= 2):
        raise ValidationError(f"steps must be an integer >= 2, got {steps!r}")
    rng = _rng_from(seed)
    lams = np.linspace(np.log(np.sqrt(1.0 - SIGMA_MAX**2) / SIGMA_MAX),
                       np.log(np.sqrt(1.0 - SIGMA_MIN**2) / SIGMA_MIN), steps)
    sig = 1.0 / np.sqrt(1.0 + np.exp(2.0 * lams))
    sigmas, alphas = sig.tolist(), (sig * np.exp(lams)).tolist()
    decay = -np.expm1(lams[0] - lams[1])  # 1 - e^{-h}, the same every step
    x = rng.standard_normal((n, oracle.d))
    for t in range(steps):
        s = sigmas[t]
        sc = np.asarray(oracle(s, x), dtype=float)
        if not np.all(np.isfinite(sc)):
            raise NumericalError(f"score oracle returned non-finite values "
                                 f"at sigma={s:.3g}")
        x0 = sc * (s * s)
        x0 += x
        x0 /= alphas[t]
        if t + 1 == steps:
            x = x0
            break
        D = x0 if t == 0 else 1.5 * x0 - 0.5 * x0_prev
        x = (sigmas[t + 1] / s) * x + (alphas[t + 1] * decay) * D
        x0_prev = x0
    x = project_ball(x, oracle.C)
    return SampleBatch(points=x, seed=_seed_tag(seed),
                       producer=f"diffusion/{oracle.tag}/steps={steps}",
                       d=oracle.d)
