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
from functools import cached_property
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
# nothing; a W2 target far below what any discretization reaches (a KL
# diffusion draw's eps/8, a low-rank prox's eps_P) still gets a bounded run.
DIFFUSION_STEP_CAP = 1000


def project_ball(x: np.ndarray, radius: float) -> np.ndarray:
    """Euclidean projection onto the centered ball of the given radius.

    Accepts a single vector ``(d,)`` or a batch ``(n, d)``.  Only the rows
    outside are scaled, each by radius / its norm (< 1, so no overflow),
    a finite row past the float max in norm by its largest |entry| first.
    """
    x = np.asarray(x, dtype=float)
    rows = x.reshape(-1, x.shape[-1])
    r = norms(rows)
    out = rows * np.divide(radius, r, out=np.ones_like(r),
                           where=r > radius)[:, None]
    for i in np.flatnonzero(np.isinf(r) & (r > radius)).tolist():
        if (top := np.abs(rows[i]).max()) < np.inf:
            out[i] = rows[i] / top * (radius / np.linalg.norm(rows[i] / top))
    return out.reshape(x.shape)


def norms(rows) -> np.ndarray:
    """Row norms of (n, k) (a (k,) vector is one row), ``np.linalg.norm``'s
    unless the squares overflow or underflow: then scaled by the row's
    largest |entry|, so a finite row's norm is inf only past the float max,
    and 0 only for a zero row."""
    rows = np.atleast_2d(np.asarray(rows, dtype=float))
    with np.errstate(over="ignore"):
        out = np.linalg.norm(rows, axis=1)
        # below 1.5e-154 the squares underflow; a zero row keeps its 0, and
        # a row with an inf entry its inf
        if 1.5e-154 <= out.min(initial=1.0) <= out.max(initial=1.0) < np.inf:
            return out
        redo = np.flatnonzero(np.isinf(out) | (out < 1.5e-154))
        tops = np.abs(rows[redo]).max(axis=1, initial=0.0)
        keep = (tops > 0) & (tops < np.inf)
        for i, top in zip(redo[keep].tolist(), tops[keep].tolist()):
            out[i] = np.linalg.norm(rows[i] / top) * top
    return out


def _noise(sigma) -> tuple:
    """(a, sigma^2) at a noise level sigma in (0, 1): the noised law is
    that of a X + sigma Z, with signal scale a = sqrt(1 - sigma^2)."""
    sigma = float(sigma)
    if not 0.0 < sigma < 1.0:
        raise ValidationError(f"sigma must be in (0,1), got {sigma}")
    return math.sqrt(1.0 - sigma**2), sigma**2


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
    domain, so none overflows and one underflows only below 1e-308.  The
    tail at x = inf is 0."""
    if x == math.inf:
        return 0.0
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
            if not mass < SUPPORT_MASS_TOL:
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
        # a component centred at or beyond the sphere counts whole (t = 0);
        # a t^2 past the float max is inf, whose tail is 0
        gap = np.maximum(self.support_radius - norms(self.means), 0.0)
        with np.errstate(over="ignore"):
            t2 = (gap / np.sqrt(self._eigvals[:, -1])) ** 2
        return float(self.weights @ [_chi2_tail(self.d, v)
                                     for v in t2.tolist()])

    @cached_property
    def _in_ball_bound(self) -> float:
        """Upper bound on the untruncated mass in B(C): P_j(||X|| <= C) <=
        P_j(<e, X> <= C) = erfc((||mu_j|| - C) / (sqrt(2) s_j)) / 2 with
        e = mu_j / ||mu_j||, s_j^2 = e' Sigma_j e; 1 for a mean inside."""
        with np.errstate(invalid="ignore", over="ignore"):  # mu_j = 0: NaN
            e = self.means / np.abs(self.means).max(axis=1, keepdims=True)
            e /= np.linalg.norm(e, axis=1, keepdims=True)
            s2 = np.einsum("ja,jab,jb->j", e, self.covs, e)
            z = (norms(self.means) - self.support_radius) / np.sqrt(2 * s2)
        return float(self.weights @ [0.5 * math.erfc(x) if x > 0 else 1.0
                                     for x in z.tolist()])

    def log_density(self, x: np.ndarray) -> np.ndarray:
        """Untruncated log-density at x (d,) or (n, d), as an (n,) array."""
        return _logsumexp(self._components(_batch(self, x), 1.0, 0.0)[0])

    @cached_property
    def _whitening(self) -> tuple:
        """The sigma-free factors of ``_components``, formed on first use:
        the eigen-rows V_j' stacked as (J e, d), the projected means
        V_j' mu_j as (J e,), the eigenvalues as (J e,), -[V_0 | ... |
        V_{J-1}] as (d, J e), and log w_j - (d/2) log 2 pi as (J,)."""
        vt = np.swapaxes(self._eigvecs, 1, 2)
        flat = np.ascontiguousarray(vt.reshape(-1, self.d))
        return (flat, (vt @ self.means[:, :, None]).ravel(),
                self._eigvals.ravel(), -np.ascontiguousarray(flat.T),
                self._log_weights - 0.5 * self.d * np.log(2.0 * np.pi))

    def _components(self, xb: np.ndarray, a: float, s2: float):
        """Terms of the mixture with means a mu_j and covariances S_j =
        a^2 Sigma_j + s2 I = V_j diag(ev_j) V_j' at xb (n, d), with e
        eigen-coordinates per component and r = ev^(-1/2) as (J e,):
        log(w_j N(x; a mu_j, S_j)) as (J, n); the whitened coordinates
        y_j = diag(r_j) V_j'(x - a mu_j), stacked as (J e, n) from one
        GEMM; and K = -[V_0 diag(r_0) | ... ] as (d, J e), which maps y_j
        to -S_j^(-1)(x - a mu_j) = -V_j diag(r_j) y_j."""
        vt, vt_mu, lam, neg_v, const = self._whitening
        r = (lam * (a * a) + s2) ** -0.5
        y = np.dot(r[:, None] * vt, xb.T)
        y -= (r * (a * vt_mu))[:, None]
        J, n = len(const), len(xb)
        logw = np.square(y).reshape(J, -1, n).sum(axis=1)
        logw *= -0.5
        logw += (const + np.log(r).reshape(J, -1).sum(axis=1))[:, None]
        return logw, y, neg_v * r

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
        if np.any(norms(self.atoms) > self.support_radius * (1 + 1e-12)):
            raise ValidationError("every atom must have norm <= C")

    @property
    def d(self) -> int:
        return self.atoms.shape[1]

    @property
    def n_atoms(self) -> int:
        return self.atoms.shape[0]

    @cached_property
    def _centred(self) -> tuple:
        """The atoms' mean c (d,), the centred atoms x_j - c (J, d), and
        log p_j - (d/2) log 2 pi and ||x_j - c||^2 as (J,), formed on first
        use; a square past the float max is inf, without a warning."""
        with np.errstate(over="ignore"):
            c = (self.atoms / self.n_atoms).sum(axis=0)
            b = self.atoms - c
            return (c, b, self._log_probs - 0.5 * self.d * np.log(2.0 * np.pi),
                    np.square(b).sum(axis=1))

    def _components(self, xb: np.ndarray, a: float, s2: float):
        """Terms of the atoms at xb (n, d), expanded around their mean c:
        with u = x - a c and b_j = x_j - c, ||x - a x_j||^2 = ||u||^2 -
        2 a b_j.u + a^2 ||b_j||^2.  Returns log(p_j N(x; a x_j, s2 I)) +
        ||u||^2 / (2 s2) as (J, n), the ||u||^2 term being the same for
        every j; u as (d, n); and the slopes g_j = (a / s2) b_j as (J, d)."""
        c, b, const, b2 = self._centred
        u = np.subtract(xb.T, (a * c)[:, None], order="C")
        g = b * (a / s2)
        logw = np.dot(g, u)
        logw += (const - 0.5 * self.d * math.log(s2)
                 - (0.5 * a * a / s2) * b2)[:, None]
        return logw, u, g

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
    # a term more than the float max below the shift is e^-inf = 0
    with np.errstate(divide="ignore", over="ignore"):
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
    # the score is linear in y, through k: for atoms u = x - a c (d, n)
    # and the slopes g (J, d); for a mixture the whitened y (J e, n) and K
    logw, y, k = model._components(xb, a, s2)
    shift = logw.max(axis=0)
    if not np.isfinite(shift).all():
        raise NumericalError("score query numerically unreachable")
    resp = logw  # the softmax, in place
    resp -= shift
    np.exp(resp, out=resp)
    resp /= resp.sum(axis=0)
    if isinstance(model, DiscreteModel):  # sum_j resp_j (a b_j - u) / s2
        y /= -s2
        out = np.dot(k.T, resp)
        out += y
    else:  # sum_j resp_j * -S_j^{-1}(x - a mu_j) = K (resp * y)
        yv = y.reshape(len(resp), -1, len(xb))
        yv *= resp[:, None]
        out = np.dot(k, y)
    out = out.T
    if not np.isfinite(out).all():
        raise NumericalError("non-finite score value")
    return out[0] if np.ndim(x) == 1 else out


def noised_log_density(model: Model, sigma, x: np.ndarray) -> np.ndarray:
    """Log-density of the noised model at x (d,) or (n, d), as (n,)."""
    a, s2 = _noise(sigma)
    logw, u, _ = model._components(_batch(model, x), a, s2)
    out = _logsumexp(logw)
    if isinstance(model, DiscreteModel):  # the term _components leaves out
        out -= np.square(u).sum(axis=0) / (2.0 * s2)
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
    """i.i.d. exact draws of the model truncated to its ball; atoms are
    categorical.  A Gaussian mixture draw outside is redrawn, component and
    point, whatever mass leaks: ConfigurationError past 1e6 + 10 n redraws,
    or before any draw where its at most N = 1e6 + 11 n raw draws would land
    n inside with probability <= mu^n / n! <= 1e-9 (mu = N p for an in-ball
    mass bound p, by the union bound over n-subsets).  After the first n
    rows, a round for the need rows still outside draws ceil(need / p) rows
    (at most the redraws left plus need, and max(n, 2^20 / d^2)), keeps its
    first need in-ball rows, and counts its outside rows up to the last one
    kept as redraws.  With no mean outside the ball p is 1 up to rounding,
    read as 1, so a round is exactly the rows to redraw, row j for outside
    row j."""
    check_count(n)
    C = closed_form(model).support_radius
    rng = _rng_from(seed)

    if isinstance(model, DiscreteModel):
        idx = rng.choice(model.n_atoms, size=n, p=model.probs)
        # the rows atoms[idx], gathered by take: 8-10x faster at d >= 2
        pts = np.take(model.atoms, idx, axis=0)
    else:
        mu = (10**6 + 11 * n) * (p := model._in_ball_bound)
        if mu == 0 or (n * math.log(mu) - math.lgamma(n + 1)
                       <= math.log(1e-9)):
            raise ConfigurationError(f"rejection against the support ball "
                                     f"would fail: in-ball mass <= {p:.1e}")
        pts = _sample_gmm_raw(model, n, rng)
        bad = np.flatnonzero(np.linalg.norm(pts, axis=1) > C)
        failures, cap = bad.size, 10**6 + 10 * n
        # a round past the first keeps its (rows, d, d) factor gather under
        # about 8 MiB; p within 1e-9 of 1 (every mean inside) reads 1
        block, p = max(n, -(-2**20 // model.d**2)), min(p * (1 + 1e-9), 1.0)
        while bad.size:
            if failures > cap:
                raise ConfigurationError(
                    f"rejection against the support ball failed {failures} "
                    f"times for n = {n}; support radius too tight")
            need = bad.size
            rows = min(math.ceil(need / p), cap - failures + need, block)
            new = _sample_gmm_raw(model, rows, rng)
            kept = np.flatnonzero(np.linalg.norm(new, axis=1) <= C)[:need]
            used = kept[-1] + 1 if kept.size == need else rows
            failures += int(used) - kept.size
            # kept row j < need fills outside row j, as a round of need rows
            # does; the later kept rows fill the ones left, in order
            head = kept[kept < need]
            pts[bad[head]] = new[head]
            bad = np.delete(bad, head)
            pts[bad[:kept.size - head.size]] = new[kept[head.size:]]
            bad = bad[kept.size - head.size:]

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

    With u = x + sigma^2 s = a x0 for the score s, the update is linear in
    the rows [x, u_{t-1}, s], so each step is one (2, 3) matrix, formed up
    front, applied to them in one GEMM that writes [x', u_t].  The loop
    copies each score into its own buffer and never writes into an array
    it did not allocate.
    """
    check_count(n)
    if not (isinstance(steps, (int, np.integer)) and steps >= 2):
        raise ValidationError(f"steps must be an integer >= 2, got {steps!r}")
    rng = _rng_from(seed)
    lams = np.linspace(np.log(np.sqrt(1.0 - SIGMA_MAX**2) / SIGMA_MAX),
                       np.log(np.sqrt(1.0 - SIGMA_MIN**2) / SIGMA_MIN), steps)
    sig = 1.0 / np.sqrt(1.0 + np.exp(2.0 * lams))
    alpha, s2 = sig * np.exp(lams), sig * sig
    # a' (1 - e^{-h}), the weight of D, and the weight of u_t = a x0_t in
    # the update: D is x0 on the first step, and h the same every step
    gain = -np.expm1(lams[0] - lams[1]) * alpha[1:]
    g = 1.5 * gain / alpha[:-1]
    g[0] = gain[0] / alpha[0]
    W = np.zeros((steps, 2, 3))
    W[:, 1, 0], W[:, 1, 2] = 1.0, s2  # u_t = x + sigma^2 s
    W[:-1, 0, 0] = sig[1:] / sig[:-1] + g
    W[1:-1, 0, 1] = -0.5 * gain[1:] / alpha[:-2]  # -(gain / 2) x0_{t-1}
    W[:-1, 0, 2] = g * s2[:-1]
    W[-1, 0] = W[-1, 1] / alpha[-1]  # the last x is the x0 prediction
    d = oracle.d
    cur, nxt = np.zeros((3, n * d)), np.empty((3, n * d))
    cur[0] = rng.standard_normal((n, d)).ravel()
    for t, s in enumerate(sig.tolist()):
        x = cur[0].reshape(n, d)
        sc = np.asarray(oracle(s, x), dtype=float)
        if sc.shape != x.shape:
            raise ValidationError(f"score oracle returned shape {sc.shape} "
                                  f"for a query of shape {x.shape}")
        if not np.isfinite(sc).all():
            raise NumericalError(f"score oracle returned non-finite values "
                                 f"at sigma={s:.3g}")
        np.copyto(cur[2].reshape(n, d), sc)
        np.dot(W[t], cur, out=nxt[:2])
        cur, nxt = nxt, cur
    x = project_ball(cur[0].reshape(n, d), oracle.C)
    return SampleBatch(points=x, seed=_seed_tag(seed),
                       producer=f"diffusion/{oracle.tag}/steps={steps}",
                       d=oracle.d)
