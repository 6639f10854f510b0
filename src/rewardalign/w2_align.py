"""Wasserstein alignment: proximal transport oracles and the pushforward
sampler.

Three prox backends: a closed-form / trust-region solver for concave
quadratics, projected gradient ascent for general concave rewards, and a
low-rank net search that needs only reward values.  The aligned law is the
pushforward of the base under the prox map, returned as an explicit
coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, finite
from .kl_align import build_net
from .models import (Model, SampleBatch, _rng_from, _seed_tag, check_count,
                     norms, project_ball)
# bound though unused here: bench/tracer.py wraps them in this module by name
from .models import sample_exact, sample_via_diffusion  # noqa: F401
from .rewards import LowRankReward, QuadraticReward, oracle_answer
from .tilts import sample_linear_tilt

PROX_TIE_TOL = 1e-9
# Projected gradient ascent stops a row at this gradient-mapping norm and
# gives up after this many steps
PGA_TOL = 1e-8
PGA_MAX_ITER = 200_000


# ---------------------------------------------------------------------------
# Quadratic backend (closed form + ball-constrained trust region)
# ---------------------------------------------------------------------------

def _check_prox_args(lam, C, y: np.ndarray, d: int) -> None:
    """Prox entry checks: lam, C finite and positive; y finite, axis -1 d."""
    finite("lambda", lam, positive=True)
    finite("C", C, positive=True)
    if y.shape[-1] != d:
        raise ValidationError(f"y must have last axis {d}, got shape {y.shape}")
    finite("y", y)


def prox_quadratic(Bmat, b, lam: float, y, C: float) -> np.ndarray:
    """Exact maximizer of -x'Bx + b'x - lam ||x - y||^2 over the ball B(C),
    for symmetric positive semidefinite B, at a point y (d,) or at every
    row of a batch (n, d).

    Unconstrained solution (B + lam I)^{-1} (b/2 + lam y); if it leaves the
    ball, the KKT multiplier is found by bisection on the monotone secular
    equation ||x(nu)|| = C.
    """
    return _prox_quadratic_kkt(Bmat, b, lam, y, C)[0]


# Scaled norms keep finite input finite; a non-finite x (rhs past the float
# max) is refused by the output gates.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _prox_quadratic_kkt(Bmat, b, lam, y, C):
    """x and its KKT multiplier nu (shaped like y without its last axis):
    one eigh of B, and one bisection in its eigenbasis for all rows."""
    Bmat = np.atleast_2d(np.asarray(Bmat, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_prox_args(lam, C, y, Bmat.shape[0])
    if not np.allclose(Bmat, Bmat.T, atol=1e-12):
        raise ValidationError("B must be symmetric")
    evals, evecs = np.linalg.eigh(Bmat)
    if evals[0] < -1e-10:
        raise ValidationError("B must be PSD (concave reward); use the "
                              "low-rank backend for non-concave rewards")
    rhs = b / 2.0 + lam * np.atleast_2d(y)   # (n, d)
    w = rhs @ evecs                          # coordinates in B's eigenbasis
    z = w / (evals + lam)
    nu = np.zeros(len(w))
    over = np.flatnonzero(norms(z) > C)
    wo = w[over]
    lo = np.zeros(len(over))
    hi = lam + norms(rhs[over]) / C
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        outside = norms(wo / (evals + lam + mid[:, None])) > C
        lo = np.where(outside, mid, lo)
        hi = np.where(outside, hi, mid)
    nu[over] = 0.5 * (lo + hi)
    z[over] = wo / (evals + lam + nu[over, None])
    x = z @ evecs.T
    # land exactly on the sphere; the direction is already converged
    x[over] *= C / norms(x[over])[:, None]
    return x.reshape(y.shape), nu.reshape(y.shape[:-1])


def prox_quadratic_batch(reward: QuadraticReward, lam: float, ys: np.ndarray,
                         C: float) -> np.ndarray:
    """Prox of every row of ``ys`` (n, d) under a concave quadratic reward."""
    return prox_quadratic(reward.B, reward.b, lam, np.atleast_2d(ys), C)


# ---------------------------------------------------------------------------
# Concave backend (projected gradient ascent)
# ---------------------------------------------------------------------------

def prox_concave(reward, lam: float, y, C: float) -> np.ndarray:
    """Projected gradient ascent on x -> r(x) - lam ||x - y||^2, which is
    2*lam strongly concave for concave r, at a point y (d,) or at every row
    of a batch (n, d).

    The reward must expose ``value``/``grad`` and be flagged concave.  A
    point is handed to the oracles as (d,), a batch as the (rows, d) block
    of rows still ascending.  Each row keeps its own step size and stall
    count, and stops when its gradient-mapping norm drops below PGA_TOL;
    strong concavity then certifies its objective within PGA_TOL * 2C of
    the optimum.  The step starts at 1 / (2 lam_max(B) + 2 lam) for a
    quadratic and at 1 / (2 lam) for any other reward.
    """
    if getattr(reward, "concave", False) is not True:
        raise ValidationError("prox_concave requires a concave reward oracle")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_prox_args(lam, C, y, reward.d)
    if isinstance(reward, QuadraticReward):
        step = 1.0 / (2.0 * float(np.linalg.eigvalsh(reward.B)[-1]) + 2.0 * lam)
    else:
        step = 1.0 / (2.0 * lam)

    def objective(x, yr):
        fx = reward.value(x[0] if y.ndim == 1 else x)
        return oracle_answer(fx, len(x)) - lam * np.sum((x - yr) ** 2, axis=1)

    ys = np.atleast_2d(y)
    out = np.empty_like(ys)
    live = np.arange(len(ys))           # rows of out still ascending
    x = project_ball(ys, C)
    fx = objective(x, ys)
    steps = np.full(len(x), float(step))
    stalls = np.zeros(len(x), dtype=int)
    for _ in range(PGA_MAX_ITER):
        g = oracle_answer(reward.grad(x[0] if y.ndim == 1 else x), len(x),
                          x.shape[1]) - 2.0 * lam * (x - ys)
        x_next = project_ball(x + steps[:, None] * g, C)
        done = np.linalg.norm(x - x_next, axis=1) / steps <= PGA_TOL
        out[live[done]] = x_next[done]
        live, ys, x, x_next, fx, steps, stalls = (
            a[~done] for a in (live, ys, x, x_next, fx, steps, stalls))
        if not live.size:
            return out.reshape(y.shape)
        f_next = objective(x_next, ys)
        worse = f_next < fx - 1e-12
        steps[worse] *= 0.5
        stalls[worse] += 1
        if np.any(stalls > 200):
            i = int(np.argmax(stalls))
            raise NumericalError(
                f"prox_concave stalled: step {steps[i]:.3e}, gradient map "
                f"{np.linalg.norm(x[i] - x_next[i]) / steps[i]:.3e} > tol "
                f"{PGA_TOL}")
        x[~worse] = x_next[~worse]
        fx[~worse] = f_next[~worse]
    raise NumericalError(f"prox_concave did not reach tol={PGA_TOL} within "
                         f"{PGA_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Low-rank backend (net search on the reduced objective)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LowRankDecomp:
    """Compact SVD A = U diag(Sigma) V1' plus an orthonormal completion V0
    of the row space."""

    U: np.ndarray       # (k, r)
    Sigma: np.ndarray   # (r,)
    V1: np.ndarray      # (d, r)
    V0: np.ndarray      # (d, d - r)
    r_A: int
    S: float            # operator norm of A

    @classmethod
    def from_matrix(cls, A) -> "LowRankDecomp":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        k, d = A.shape
        U_full, svals, Vt = np.linalg.svd(A, full_matrices=True)
        tol = max(k, d) * np.finfo(float).eps * (svals[0] if svals.size else 0.0)
        r = int(np.sum(svals > tol))
        if r == 0:
            raise ValidationError("A is the zero matrix; the reward is constant")
        decomp = cls(U=U_full[:, :r], Sigma=svals[:r], V1=Vt[:r].T,
                     V0=Vt[r:].T, r_A=r, S=float(svals[0]))
        recon = decomp.U @ np.diag(decomp.Sigma) @ decomp.V1.T
        if np.linalg.norm(recon - A) > 1e-10 * max(1.0, float(svals[0])):
            raise NumericalError("SVD reconstruction drift above 1e-10")
        return decomp


@dataclass(frozen=True)
class Alg2Params:
    """Net spacing and base-sampling accuracy for the low-rank search on
    the rank-r_A ball."""

    h: float
    eps_P: float
    net_cardinality_bound: float
    r_A: int

    @classmethod
    def from_problem(cls, L: float, S: float, lam: float, C: float,
                     eps: float, r_A: int) -> "Alg2Params":
        if not (lam > 0 and eps > 0):
            raise ValidationError(f"need lam > 0 and eps > 0: {lam, eps}")
        h = min(eps / (6.0 * (L * S + 4.0 * lam * C)),
                eps**2 / (288.0 * lam**2 * C**3))
        eps_P = eps / (24.0 * lam * C)
        return cls(h=float(h), eps_P=float(eps_P),
                   net_cardinality_bound=float((1.0 + 2.0 * C / h) ** r_A),
                   r_A=int(r_A))


def reduced_objective(decomp: LowRankDecomp, f, lam: float, y: np.ndarray,
                      C: float, us: np.ndarray) -> np.ndarray:
    """Phi_y(u) = f(U Sigma u) - lam [ ||u - u_y||^2 + (||w_y|| - rho(u))_+^2 ]
    evaluated at a batch of reduced coordinates ``us`` (n, r)."""
    us = np.atleast_2d(us)
    u_y = decomp.V1.T @ y
    w_norm = float(np.linalg.norm(decomp.V0.T @ y))
    rho = np.sqrt(np.maximum(C**2 - np.sum(us**2, axis=1), 0.0))
    fvals = oracle_answer(f(us * decomp.Sigma @ decomp.U.T), len(us))
    return fvals - lam * (np.sum((us - u_y) ** 2, axis=1)
                          + np.maximum(w_norm - rho, 0.0) ** 2)


def lift_reduced_point(decomp: LowRankDecomp, y: np.ndarray, u: np.ndarray,
                       C: float) -> np.ndarray:
    """x(u) = V1 u + V0 w(u), with w(u) the projection of y's orthogonal
    part onto the leftover radius; at one u (r,) or each row of (n, r)."""
    rho = np.sqrt(np.maximum(C**2 - np.sum(u * u, axis=-1, keepdims=True),
                             0.0))
    w_y = decomp.V0.T @ y
    w_norm = float(np.linalg.norm(w_y))
    w = np.where(w_norm <= rho, w_y, w_y * (rho / max(w_norm, 1e-300)))
    return u @ decomp.V1.T + w @ decomp.V0.T


def alg2_prox(decomp: LowRankDecomp, f, lam: float, y, C: float, eps: float,
              L: float, net: "np.ndarray | None" = None) -> np.ndarray:
    """Value-oracle prox via exhaustive search of the reduced objective on
    an h-net of the rank-r_A ball; guarantees the achieved objective is
    within eps/3 of the pointwise optimum V(y).

    ``y`` is a point (d,) or a batch (n, d).  ``net`` may be passed in to
    share one net across calls.  Ties within 1e-9 of the best value
    resolve to the lexicographically smallest lifted point.

    Phi_y(u) = [f(U Sigma u) - lam ||u||^2] + 2 lam <u, u_y>
    - lam (||w_y|| - rho(u))_+^2 - lam ||u_y||^2.  The bracket and rho are
    computed once per call, with the net put in increasing order of rho;
    per base point the search is one (net x r_A) product plus the penalty,
    which is non-zero only on the leading slice of rows with
    rho(u) < ||w_y||.  The constant -lam ||u_y||^2 moves every row alike
    and is left out.
    """
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_prox_args(lam, C, y, decomp.V1.shape[0])
    if net is None:
        params = Alg2Params.from_problem(L, decomp.S, lam, C, eps, decomp.r_A)
        net = build_net(decomp.r_A, C, params.h).points
    fvals = oracle_answer(f(net * decomp.Sigma @ decomp.U.T), len(net))
    sq = np.sum(net**2, axis=1)
    rho = np.sqrt(np.maximum(C**2 - sq, 0.0))
    order = np.argsort(rho)
    net, rho = net[order], rho[order]
    bracket = fvals[order] - lam * sq[order]
    xs = []
    for yi in np.atleast_2d(y):
        w_norm = float(np.linalg.norm(decomp.V0.T @ yi))
        vals = net @ (2.0 * lam * (decomp.V1.T @ yi))
        vals += bracket
        j = np.searchsorted(rho, w_norm)        # rows with rho < ||w_y||
        vals[:j] -= lam * (w_norm - rho[:j]) ** 2
        tied = net[np.flatnonzero(vals >= vals.max() - PROX_TIE_TOL)]
        candidates = lift_reduced_point(decomp, yi, tied, C)
        xs.append(candidates[np.lexsort(candidates.T[::-1])[0]])
    return np.reshape(xs, y.shape)


# ---------------------------------------------------------------------------
# Pushforward sampler
# ---------------------------------------------------------------------------

@dataclass
class W2AlignResult:
    """Explicit coupling, base draws ``ys`` and transported points ``xs``
    (the points of ``batch``), plus diagnostics; ``params`` is the
    low-rank schedule (None on the other backends)."""

    ys: np.ndarray
    batch: SampleBatch
    objective: float = 0.0
    objective_stderr: float = 0.0
    params: Alg2Params = None

    @property
    def xs(self) -> np.ndarray:
        return self.batch.points


def objective_value(ys: np.ndarray, xs: np.ndarray, reward, lam: float):
    """Empirical mean and standard error of r(X_i) - lam ||X_i - Y_i||^2
    along the produced coupling; lower-bounds the alignment objective."""
    ys = np.atleast_2d(ys)
    xs = np.atleast_2d(xs)
    vals = (oracle_answer(reward.value(xs), len(xs))
            - lam * np.sum((xs - ys) ** 2, axis=1))
    if not np.all(np.isfinite(vals)):
        raise NumericalError("objective values r(X) - lam ||X - Y||^2 "
                             "must be finite")
    # scaled by 2^-e (exact) below 1, so sums of values near the float max
    # stay finite
    e = max(int(np.frexp(np.max(np.abs(vals)))[1]), 0)
    vals, n = np.ldexp(vals, -e), len(vals)
    stderr = float(np.std(vals, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.ldexp(np.mean(vals), e)), float(np.ldexp(stderr, e))


def sample_w2_aligned(base: Model, reward, lam: float, n: int, seed,
                      backend: str = "quad", eps: float = 0.1,
                      base_backend: str = "exact",
                      steps: int = None) -> W2AlignResult:
    """Draw Y_1..Y_n from the base and push each through the proximal
    transport map; returns the coupling so the transport is auditable.

    backend: "quad" (closed-form concave quadratic), "pga" (projected
    gradient ascent, concave oracle), "lowrank" (value-oracle net search).
    The base draw is ``sample_linear_tilt`` with no tilt on ``base_backend``
    ("exact" or "diffusion"), with W2 target eps, or eps_P on lowrank.
    """
    check_count(n)
    finite("lambda", lam, positive=True)
    finite("eps", eps, positive=True)
    if backend not in ("quad", "pga", "lowrank"):
        raise ValidationError(f"unknown prox backend {backend!r}")
    if backend == "quad" and not isinstance(reward, QuadraticReward):
        raise ValidationError("quad backend needs a QuadraticReward")
    if backend == "pga" and getattr(reward, "concave", False) is not True:
        raise ValidationError("pga backend needs a concave reward oracle")
    if backend == "lowrank" and not isinstance(reward, LowRankReward):
        raise ValidationError("lowrank backend needs a LowRankReward")
    rng = _rng_from(seed)
    C = base.support_radius
    seed_tag = _seed_tag(seed)

    eps_P, params = eps, None
    if backend == "lowrank":
        decomp = LowRankDecomp.from_matrix(reward.A)
        params = Alg2Params.from_problem(reward.f.lipschitz, decomp.S, lam,
                                         C, eps, decomp.r_A)
        eps_P = params.eps_P
    ys = sample_linear_tilt(base, None, eps_P, rng, base_backend, n=n,
                            steps=steps).points

    if backend == "quad":
        xs = prox_quadratic_batch(reward, lam, ys, C)
    elif backend == "pga":
        xs = prox_concave(reward, lam, ys, C)
    else:
        # built inline, so alg2_prox holds the only reference to the net
        xs = alg2_prox(decomp, reward.f.value, lam, ys, C, eps,
                       reward.f.lipschitz,
                       net=build_net(decomp.r_A, C, params.h).points)

    batch = SampleBatch(points=xs, seed=seed_tag,
                        producer=f"w2_align/{backend}", d=base.d)
    obj, se = objective_value(ys, xs, reward, lam)
    return W2AlignResult(ys=ys, batch=batch, objective=obj,
                         objective_stderr=se, params=params)
