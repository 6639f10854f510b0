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
from contextlib import nullcontext
from dataclasses import dataclass
from functools import cached_property
from itertools import cycle, repeat
from operator import itemgetter
from typing import Callable, Union

import numpy as np
# numpy would load numpy.random inside the first draw; load it at import
from numpy.random import Generator, default_rng

from .errors import (CapabilityError, ConfigurationError, NumericalError,
                     ValidationError, finite, scalar)

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

# Entries per block of a reverse pass's noise table, and per (tilts x atoms)
# temporary of ``tilts`` (512 KiB).
TILT_BLOCK = 65536

# Rows per block of a row stream: a KL candidate pass, a mixture draw round,
# a W2 prox block.  Only the output grows with n.
ROW_BLOCK = 2**14


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
    s2 = sigma * sigma  # as ``_noise_rows`` forms it, bit for bit
    return math.sqrt(1.0 - s2), s2


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
        with np.errstate(over="ignore", invalid="ignore"):  # inf - inf
            ok = _all_finite(pts)
        if not ok:
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
        self.support_radius = scalar("C", support_radius, positive=True)

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

    @cached_property
    def _whitening(self) -> tuple:
        """The sigma-free factors of ``_noise_factors``, formed on first
        use: the eigen-rows V_j' stacked as (J e, d), the projected means
        V_j' mu_j as (J e,), the eigenvalues as (J e,), and log w_j - (d/2)
        log 2 pi as (J,)."""
        vt = np.swapaxes(self._eigvecs, 1, 2)
        return (np.ascontiguousarray(vt.reshape(-1, self.d)),
                (vt @ self.means[:, :, None]).ravel(), self._eigvals.ravel(),
                self._log_weights - 0.5 * self.d * np.log(2.0 * np.pi))

    @property
    def _factor_width(self) -> int:
        """Entries of ``_noise_factors`` per noise level."""
        J, d = self.means.shape
        return J * d * (d + 1) + (d + 1) * (J * d + J) + J

    def _noise_factors(self, a: np.ndarray, s2: np.ndarray) -> tuple:
        """The sigma-only factors of ``_components`` at k noise levels (a,
        s2 as (k,)), for means a mu_j and covariances S_j = a^2 Sigma_j +
        s2 I = V_j diag(ev_j) V_j', with r = ev^(-1/2) over the e = d
        eigen-coordinates of each component and h = r / sqrt(2): the
        whitening [H | -a h V'mu] as (k, J e, d + 1), H = [diag(h_0) V_0' ;
        ... ]; the output matrix [[H', 0], [0, -1/2 1']] as (k, d + 1, J e
        + J); and log w_j - (d/2) log 2 pi + sum_e log r as (k, J, 1)."""
        vt, vt_mu, lam, const = self._whitening
        r = (lam * (a * a)[:, None] + s2[:, None]) ** -0.5
        h = r * math.sqrt(0.5)
        log_r = np.log(r).reshape(len(a), len(const), -1).sum(axis=2)
        white = np.empty((len(a), len(vt), self.d + 1))
        np.multiply(h[:, :, None], vt, out=white[:, :, :-1])
        np.multiply(h, -a[:, None] * vt_mu, out=white[:, :, -1])
        mat = np.zeros((len(a), self.d + 1, len(vt) + len(const)))
        mat[:, :-1, :len(vt)] = np.swapaxes(white[:, :, :-1], 1, 2)
        mat[:, -1, len(vt):] = -0.5
        return white, mat, (const + log_r)[:, :, None]

    def _workspace(self, n: int) -> tuple:
        """The arrays a score at n queries works in, which a pass keeps
        across its steps: [x; 1'] (d + 1, n); the stacked [y; log-weights]
        (J e + J, n), which the softmax turns into [y; resp] and then [y *
        resp; resp]; the squares of y (J e, n) where e > 1; and the
        softmax's shift (1, n) and [-2 H'(y * resp); -sum resp / 2] (d + 1,
        n)."""
        J, d = self.means.shape
        x1 = np.empty((d + 1, n))
        x1[-1] = 1.0
        return (x1, np.empty((J * d + J, n)),
                np.empty((J * d, n)) if d > 1 else None,
                np.empty((1, n)), np.empty((d + 1, n)))

    def _components(self, xt: np.ndarray, factors, work) -> tuple:
        """Terms of the mixture at the columns of xt (d, n), from one noise
        level's ``_noise_factors``, in ``_workspace(n)``: log(w_j N(x; a
        mu_j, S_j)) as (J, n); the whitened coordinates y_j = diag(h_j)
        V_j'(x - a mu_j) as (J e, n), ||y_j||^2 being the quadratic term,
        from one GEMM of the whitening by [x; 1'], x copied in once; the
        output matrix, as -S_j^(-1)(x - a mu_j) = -2 H_j' y_j with H_j
        component j's rows of H; and the stacked [y; log-weights] that it
        applies to."""
        white, mat, const = factors
        x1, stack, sq = work[:3]
        x1[:-1] = xt
        y, logw = stack[:len(white)], stack[len(white):]
        np.dot(white, x1, out=y)
        if sq is None:  # one eigen-coordinate per component
            np.square(y, out=logw)
        else:
            np.square(y, out=sq)
            sq.reshape(len(logw), -1, xt.shape[1]).sum(axis=1, out=logw)
        return np.subtract(const, logw, out=logw), y, mat, stack

    def to_dict(self) -> dict:
        return {"type": "gmm", "weights": self.weights.tolist(),
                "means": self.means.tolist(), "covs": self.covs.tolist(),
                "C": self.support_radius}


class DiscreteModel:
    """Finite atom set with probabilities; every atom inside the ball."""

    def __init__(self, atoms, probs, support_radius):
        self.atoms = np.atleast_2d(finite("atoms", atoms))
        self.support_radius = scalar("C", support_radius, positive=True)
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
        """The sigma-free factors of ``_noise_factors``, formed on first
        use: the atoms' mean c (d,), the centred atoms b_j = x_j - c as (J,
        d), [b'; 1'] as (d + 1, J), and log p_j - (d/2) log 2 pi and
        ||b_j||^2 as (J,); a square past the float max is inf, without a
        warning."""
        with np.errstate(over="ignore"):
            c = (self.atoms / self.n_atoms).sum(axis=0)
            b = self.atoms - c
            return (c, b, np.vstack([b.T, np.ones(self.n_atoms)]),
                    self._log_probs - 0.5 * self.d * np.log(2.0 * np.pi),
                    np.square(b).sum(axis=1))

    @property
    def _factor_width(self) -> int:
        """Entries of ``_noise_factors`` per noise level."""
        return self.n_atoms + self.d + 1

    def _noise_factors(self, a: np.ndarray, s2: np.ndarray) -> tuple:
        """The sigma-only factors of ``_components`` at k noise levels (a,
        s2 as (k,)), from the atoms expanded around their mean c: with u =
        x - a c, ||x - a x_j||^2 = ||u||^2 - 2 a b_j.u + a^2 ||b_j||^2.
        a c as (k, d, 1), the slopes' scale a / s2 as (k,), and log p_j -
        (a^2 / (2 s2)) ||b_j||^2 - (d/2) log(2 pi s2) as (k, J, 1), formed
        in place."""
        c, _, _, const, b2 = self._centred
        cst = np.multiply.outer(-0.5 * a * a / s2, b2)
        cst += const
        cst -= (0.5 * self.d * np.log(s2))[:, None]
        return (a[:, None] * c)[:, :, None], a / s2, cst[:, :, None]

    def _workspace(self, n: int) -> tuple:
        """The arrays a score at n queries works in, which a pass keeps
        across its steps: u (d, n), the log-weights (J, n), the softmax's
        shift (1, n), and [b'; 1'] times the softmax (d + 1, n)."""
        return (np.empty((self.d, n)), np.empty((self.n_atoms, n)),
                np.empty((1, n)), np.empty((self.d + 1, n)))

    def _components(self, xt: np.ndarray, factors, work) -> tuple:
        """Terms of the atoms at the columns of xt (d, n), from one noise
        level's ``_noise_factors``, in ``_workspace(n)``: log(p_j N(x; a
        x_j, s2 I)) + ||u||^2 / (2 s2) as (J, n), the ||u||^2 term being
        the same for every j; the scaled (a / s2) u as (d, n), so that the
        slopes g_j = (a / s2) b_j apply as b_j; and [b'; 1'], which applies
        to the log-weights once the softmax has made them resp."""
        ac, scale, const = factors
        _, b, baug, _, _ = self._centred
        us, logw = work[:2]
        np.subtract(xt, ac, out=us)
        us *= scale
        np.dot(b, us, out=logw)
        logw += const
        return logw, us, baug, logw

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


class _NoiseRow(tuple):
    """One noise level of a noise table: sigma, a = sqrt(1 - sigma^2), s2 =
    sigma^2, ``out``, the (d, n) array ``score`` writes the transposed
    score into (None: a new one), ``work``, the model's ``_workspace(n)``,
    and the model's ``_noise_factors``."""

    __slots__ = ()
    sigma, a, s2, out, work, factors = (property(itemgetter(i))
                                        for i in range(6))


def _noise_rows(model: Model, sig: np.ndarray, n: int, outs=(None,)):
    """A ``_NoiseRow`` per noise level of sig (each in (0, 1)) for n
    queries, their ``out`` taken from outs in turn and one workspace for
    all: the noise table of a reverse pass, formed in blocks of as many
    levels as hold at most TILT_BLOCK factor entries, or of one level
    where its own factors are more.  A level's row has the same bytes in
    every block."""
    step = max(1, TILT_BLOCK // model._factor_width)
    outs, work = cycle(outs), repeat(model._workspace(n))
    for start in range(0, len(sig), step):
        block = sig[start:start + step]
        s2 = block * block
        a = np.sqrt(1.0 - s2)
        factors = model._noise_factors(a, s2)
        yield from map(_NoiseRow, zip(block.tolist(), a.tolist(), s2.tolist(),
                                      outs, work, zip(*factors)))
        del factors  # before the next block is formed


def _noise_row(model: Model, sigma, n: int) -> _NoiseRow:
    """The one-row noise table of a float sigma in (0, 1), for n queries."""
    _noise(sigma)
    return next(_noise_rows(model, np.array([float(sigma)]), n))


def _all_finite(a: np.ndarray) -> bool:
    """Whether every entry of a is finite: a finite sum says so at once,
    and only one that is not (a NaN, an inf, or an overflow) takes the
    entrywise test.  Not a BLAS dot, which may start threads at large n."""
    return math.isfinite(a.sum()) or bool(np.isfinite(a).all())


def score(model: Model, sigma, x: np.ndarray) -> np.ndarray:
    """Exact score ``grad log p_sigma(x)`` of the noised model at x (d,) or
    (n, d), mirroring its shape: a softmax over the (J, n) log-weights,
    max-shifted over axis 0; NumericalError if it degenerates (non-finite).

    ``sigma`` may also be a row of a noise table of this model, made by
    ``sample_via_diffusion`` for x (n, d): the score is then written into
    the row's ``out`` and returned as its (n, d) transpose, and the pass
    checks it.  A float sigma builds its one-row table, so both give the
    same bytes."""
    row = sigma if isinstance(sigma, _NoiseRow) else None
    if row is None:
        xb = _batch(model, x)
        row = _noise_row(model, sigma, len(xb))
    else:
        xb = x
    # the score is linear in y: one GEMM of k by the stacked terms gives
    # its numerator and, in its last row, the softmax's sum times the
    # denominator's scale.  For atoms k is [b'; 1'] (d + 1, J) by resp, the
    # scaled u (d, n) applied after; for a mixture k is [[H', 0], [0, -1/2
    # 1']] by [y * resp; resp], the whitened y being (J e, n)
    logw, y, k, terms = model._components(xb.T, row.factors, row.work)
    shift, tail = row.work[-2:]
    np.maximum.reduce(logw, axis=0, keepdims=True, out=shift)
    if row is not sigma and not _all_finite(shift):
        raise NumericalError("score query numerically unreachable")
    resp = logw  # the softmax, in place, normalized on the score
    resp -= shift
    np.exp(resp, out=resp)
    if isinstance(model, GaussianMixtureModel):  # y_j * resp_j
        if len(y) > len(resp):
            yv = y.reshape(len(resp), -1, y.shape[1])
            yv *= resp[:, None]
        else:
            y *= resp
    np.dot(k, terms, out=tail)
    out = np.divide(tail[:-1], tail[-1:], out=row.out)
    if isinstance(model, DiscreteModel):  # sum_j resp_j (a b_j - u) / s2
        out *= row.factors[1]  # a / s2; the scaled u over a is u / s2
        y /= row.a
        out -= y
    if row is sigma:
        return out.T
    if not _all_finite(out):
        raise NumericalError("non-finite score value")
    out = out.T
    return out[0] if np.ndim(x) == 1 else out


def noised_log_density(model: Model, sigma, x: np.ndarray) -> np.ndarray:
    """Log-density of the noised model at x (d,) or (n, d), as (n,)."""
    xb = _batch(model, x)
    row = _noise_row(model, sigma, len(xb))
    logw, us = model._components(xb.T, row.factors, row.work)[:2]
    out = _logsumexp(logw)
    if isinstance(model, DiscreteModel):  # the term _components leaves out
        out -= np.square(us / row.a).sum(axis=0) * (row.s2 / 2.0)
    return out


@dataclass(frozen=True)
class ScoreOracle:
    """Callable contract ``(sigma, x_batch) -> score_batch`` with metadata."""

    fn: Callable[[float, np.ndarray], np.ndarray]
    d: int
    C: float
    tag: str = "oracle"

    def __post_init__(self):  # d as ``check_count`` checks n
        if self.d is True or not (isinstance(self.d, (int, np.integer))
                                  and self.d >= 1):
            raise ValidationError(f"d must be an integer >= 1, got {self.d!r}")
        scalar("C", self.C, positive=True)

    def __call__(self, sigma: float, x: np.ndarray) -> np.ndarray:
        return self.fn(sigma, x)

    # C, under the name the samplers read a model's ball radius by
    support_radius = property(lambda self: self.C)


def score_oracle(model: Model) -> ScoreOracle:
    """Closed-form score oracle of a model (Gaussian mixture or atoms).
    Its fn names the model as ``table_model``, so ``sample_via_diffusion``
    hands it rows of that model's noise table in place of sigma."""
    def fn(sigma, xb):
        return score(model, sigma, xb)
    fn.table_model = model
    return ScoreOracle(fn=fn, d=model.d, C=model.support_radius,
                       tag=f"exact_{type(model).__name__}")


# ---------------------------------------------------------------------------
# Exact sampling
# ---------------------------------------------------------------------------

def _rng_from(seed) -> Generator:
    """The generator of a seed: a Generator itself, else ``default_rng``'s
    of it; a negative integer seed, which numpy refuses with a bare
    ValueError, is a ValidationError before any draw."""
    if isinstance(seed, Generator):
        return seed
    if isinstance(seed, (int, np.integer)) and seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got "
                              f"{seed}")
    return default_rng(seed)


def _seed_tag(seed) -> int:
    """The seed recorded on a batch: the integer seed, or -1 when the
    caller passed a Generator or nothing."""
    return int(seed) if isinstance(seed, (int, np.integer)) else -1


def _categorical(p, n: int, rng: Generator) -> np.ndarray:
    """n i.i.d. indices into the nonnegative vector p, drawn from p / sum p:
    Multinomial(n, p) counts, each index repeated its count, then shuffled
    uniformly (Devroye 1986, ch. III), with no CDF search.  Only the
    positive entries enter the multinomial, so a zero entry is never drawn;
    a law on one index returns it n times without touching the generator."""
    p = np.asarray(p, dtype=float)
    support = np.flatnonzero(p)
    if support.size == 1:
        return np.full(n, support[0], dtype=np.intp)
    q = p[support]
    idx = np.repeat(support, rng.multinomial(n, q / q.sum()))
    rng.shuffle(idx)
    return idx


def _sample_gmm_raw(model: GaussianMixtureModel, n: int,
                    rng: Generator) -> np.ndarray:
    comps = _categorical(model.weights, n, rng)
    z = rng.standard_normal((n, model.d))
    out = model.means[comps] + np.einsum("nij,nj->ni", model._chols[comps], z)
    return out


def check_count(n) -> None:
    """The sample count check of every sampler entry: an integer >= 1."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"n must be an integer >= 1, got {n!r}")


def check_steps(steps) -> None:
    """The step count check of every reverse pass: an integer >= 2."""
    if not (isinstance(steps, (int, np.integer)) and steps >= 2):
        raise ValidationError(f"steps must be an integer >= 2, got {steps!r}")


def sample_exact(model: Model, n: int, seed) -> SampleBatch:
    """i.i.d. exact draws of the model truncated to its ball; atoms, and
    a mixture's components, are drawn by ``_categorical``.  A Gaussian
    mixture is drawn in rounds from one budget of N = 1e6 + 11 n raw
    draws, refused before any draw where N would land n inside with
    probability <= mu^n / n! <= 1e-9 (mu = N p for an in-ball mass bound
    p, read as 1 within 1e-9 of it; union bound over n-subsets).
    Each round draws min(ceil(need / p), N - spent, ROW_BLOCK, ceil(2^20 /
    d^2)) rows for the need still missing and writes its first need in-ball
    rows, in order, into one (n, d) output; a draw done in one round is
    handed on as drawn (uncopied if it kept every row).  A round spends its
    rows up to the last one kept, or all of them.  ConfigurationError once
    N are spent."""
    check_count(n)
    C = closed_form(model).support_radius
    rng = _rng_from(seed)

    if isinstance(model, DiscreteModel):
        idx = _categorical(model.probs, n, rng)
        # the rows atoms[idx], gathered by take: 8-10x faster at d >= 2
        pts = np.take(model.atoms, idx, axis=0)
    else:
        mu = (budget := 10**6 + 11 * n) * (p := model._in_ball_bound)
        if mu == 0 or (n * math.log(mu) - math.lgamma(n + 1)
                       <= math.log(1e-9)):
            raise ConfigurationError(f"rejection against the support ball "
                                     f"would fail: in-ball mass <= {p:.1e}")
        # a round's (rows, d, d) factor gather stays under about 8 MiB
        block = min(ROW_BLOCK, -(-2**20 // model.d**2))
        p, pts, need, spent = min(p * (1 + 1e-9), 1.0), None, n, 0
        while need:
            if spent >= budget:
                raise ConfigurationError(f"rejection against the support "
                                         f"ball failed: {spent} draws kept "
                                         f"{n - need} of n = {n}")
            rows = min(math.ceil(need / p), budget - spent, block)
            new = _sample_gmm_raw(model, rows, rng)
            kept = np.flatnonzero(np.linalg.norm(new, axis=1) <= C)[:need]
            spent += int(kept[-1]) + 1 if kept.size == need else rows
            got = new if kept.size == rows else new[kept]
            if kept.size == n:  # one round: its rows are the draw
                pts = got
            else:
                pts = np.empty((n, model.d)) if pts is None else pts
                pts[n - need:n - need + kept.size] = got
            need -= kept.size

    return SampleBatch(points=pts, seed=_seed_tag(seed),
                       producer=f"sample_exact/{type(model).__name__}",
                       d=model.d)


# ---------------------------------------------------------------------------
# Score-oracle-only sampling (reverse diffusion)
# ---------------------------------------------------------------------------

def recommended_steps(eps_p: float, C: float) -> int:
    """Step count of :func:`sample_via_diffusion` for a W2 target eps_p on
    a base in the ball of radius C: max(25, ceil(3 C / eps_p)), capped at
    ``DIFFUSION_STEP_CAP``.  Every sampler that is not given a step count
    converts its W2 target here, so the cap holds on each of those paths.

    Validated empirically by ``tests/test_models.py::TestStepRule``, not
    derived.  The update is second order: against a 1000-step run from the
    same start, W2 on the fig-1 mixture is 0.031 at 25 steps and 0.0075 at
    50, and in the table the atom mass error shrinks like steps^-2 too.
    W2 on atoms is the square root of a mass error times their spacing, so
    it falls only like C / steps: the linear rule is the one atoms need.
    The floor of 25 is where the table's Gaussian columns come near their
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
    front, applied to them in one GEMM that writes [x', u_t].  Each row is
    held d-major, as (d, n); the oracle sees x as its (n, d) transpose.

    On a closed-form oracle (``score_oracle``, or ``sample_linear_tilt``'s
    tilt of one) the pass first builds the model's noise table over its
    levels: every factor of the score that depends on sigma alone, formed
    in blocks of at most TILT_BLOCK entries (one level per block where a
    level's factors are more).  Each step then hands the oracle its
    level's row, ``score`` runs on it in arrays the pass keeps across its
    steps and writes into the pass's score buffer, and the step checks
    that buffer once.  A level's row has the
    same bytes as the one-row table of ``score(model, sigma, x)`` at a
    float sigma, so a bare ScoreOracle wrapping ``score`` draws the same
    bytes.  Any other oracle is called with a float sigma; its answer is
    checked for shape and finite values and copied into the buffer, and
    the loop never writes into an array it did not allocate.
    """
    check_count(n)
    check_steps(steps)
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
    # the rows [x, u_{t-1}, s], each (d, n), of the two states: a step
    # reads x and writes s in one, then [x', u_t] in the other
    cur, nxt = np.zeros((3, d, n)), np.empty((3, d, n))
    cur[0] = rng.standard_normal((n, d)).T
    views = [(p[0].T, p[2], p.reshape(3, -1), q[:2].reshape(2, -1))
             for p, q in ((cur, nxt), (nxt, cur))]
    model = getattr(oracle.fn, "table_model", None)
    levels = (sig.tolist() if model is None
              else _noise_rows(model, sig, n, [v[1] for v in views]))
    # a closed-form step leaves its score's checks to this loop: a softmax
    # shift that is not finite makes NaN there, without a warning
    with (nullcontext() if model is None
          else np.errstate(over="ignore", invalid="ignore")):
        t = 0
        for level in levels:
            x, out, state, nxt_state = views[t & 1]
            if model is None:
                sc = np.asarray(oracle(level, x), dtype=float)
                if sc.shape != x.shape:
                    raise ValidationError(f"score oracle returned shape "
                                          f"{sc.shape} for a query of shape "
                                          f"{x.shape}")
                np.copyto(out, sc.T)
            else:
                oracle(level, x)
            if not _all_finite(out):
                s = level if model is None else level.sigma
                raise NumericalError(f"score oracle returned non-finite "
                                     f"values at sigma={s:.3g}")
            np.dot(W[t], state, out=nxt_state)
            t += 1
            del level  # so the table forms its next block without this row
    x = project_ball(np.ascontiguousarray(views[steps & 1][0]), oracle.C)
    return SampleBatch(points=x, seed=_seed_tag(seed),
                       producer=f"diffusion/{oracle.tag}/steps={steps}",
                       d=oracle.d)
