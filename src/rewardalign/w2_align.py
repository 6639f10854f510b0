"""Wasserstein alignment: proximal transport oracles and the pushforward
sampler.

Three prox backends: a closed-form / trust-region solver for concave
quadratics, accelerated projected gradient ascent for general concave
rewards, and a low-rank backend: the exact best of m ball projections for
a max-affine f, else a net search that needs only reward values;
``prox_map`` alone decides which serves a reward.  The aligned law is the
pushforward of the base under the prox map, returned as an explicit
coupling.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericalError, ValidationError, finite
from .kl_align import build_net
from .models import (ROW_BLOCK, Model, SampleBatch, _all_finite, _rng_from,
                     _seed_tag, check_count, norms, project_ball,
                     recommended_steps)
# bound though unused here: bench/tracer.py wraps them in this module by name
from .models import sample_exact, sample_via_diffusion  # noqa: F401
from .rewards import (PIECE_TIE_TOL, LowRankReward, QuadraticReward,
                      oracle_answer)
from .tilts import sample_linear_tilt

PROX_TIE_TOL = 1e-9
# Projected gradient ascent stops a row at this gradient-mapping norm, or
# at a move of PGA_ULPS ||z||, and gives up after this many steps
PGA_TOL = 1e-8
PGA_ULPS = 16 * np.finfo(float).eps
PGA_MAX_ITER = 200_000
_NOT_PSD = ("B must be PSD (concave reward); use the low-rank backend for "
           "non-concave rewards")


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


def prox_quadratic(reward: QuadraticReward, lam: float, y,
                   C: float) -> np.ndarray:
    """Exact maximizer of -x'Bx + b'x - lam ||x - y||^2 over the ball B(C),
    for a concave quadratic reward (B positive semidefinite), at a point y
    (d,) or at every row of a batch (n, d).

    Unconstrained solution (B + lam I)^{-1} (b/2 + lam y); if it leaves the
    ball, the KKT multiplier is found by bisection on the monotone secular
    equation ||x(nu)|| = C.
    """
    return _prox_quadratic_kkt(reward, lam, y, C)[0]


# the same function: prox_map calls it by the name bench/tracer.py times
prox_quadratic_batch = prox_quadratic


# Scaled norms keep finite input finite; a non-finite x (rhs past the float
# max) is refused by the output gates.
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def _prox_quadratic_kkt(reward: QuadraticReward, lam, y, C):
    """x and its KKT multiplier nu (shaped like y without its last axis):
    the reward's one eigh of B, and one bisection in its eigenbasis for
    the rows outside the ball, if any.  The bisection stops after 100
    halvings or at the first that moves no bracket end, since each later
    one would repeat it."""
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_prox_args(lam, C, y, reward.d)
    if not reward.concave:
        raise ValidationError(_NOT_PSD)
    evals, evecs = reward._eigh
    rhs = reward.b / 2.0 + lam * np.atleast_2d(y)   # (n, d)
    w = rhs @ evecs                          # coordinates in B's eigenbasis
    z = w / (evals + lam)
    nu = np.zeros(len(w))
    over = np.flatnonzero(norms(z) > C)
    wo = w[over]
    lo = np.zeros(len(over))
    hi = lam + norms(rhs[over]) / C
    for _ in range(100 if over.size else 0):
        mid = 0.5 * (lo + hi)
        outside = norms(wo / (evals + lam + mid[:, None])) > C
        lo_next = np.where(outside, mid, lo)
        hi_next = np.where(outside, hi, mid)
        if np.array_equal(lo_next, lo) and np.array_equal(hi_next, hi):
            break
        lo, hi = lo_next, hi_next
    nu[over] = 0.5 * (lo + hi)
    z[over] = wo / (evals + lam + nu[over, None])
    x = z @ evecs.T
    # land exactly on the sphere; the direction is already converged
    x[over] *= C / norms(x[over])[:, None]
    return x.reshape(y.shape), nu.reshape(y.shape[:-1])


# ---------------------------------------------------------------------------
# Concave backend (accelerated projected gradient ascent)
# ---------------------------------------------------------------------------

# Values past the float max are inf, inf - inf is NaN: a NaN point ends in
# a NaN oracle answer, a NaN or inf result in the output gates (exit 4).
@np.errstate(over="ignore", divide="ignore", invalid="ignore")
def prox_concave(reward, lam: float, y, C: float) -> np.ndarray:
    """Accelerated projected gradient ascent on x -> r(x) - lam ||x - y||^2,
    which is 2*lam strongly concave for concave r, at a point y (d,) or at
    every row of a batch (n, d).

    The reward must expose ``value``/``grad`` and be flagged concave.  A
    point is handed to the oracles as (d,), a batch as the (rows, d) block
    of rows still ascending; a row leaves that block only on an iteration
    where one stops.  Each row keeps its own step size s, stall count and
    momentum (Beck and Teboulle 2009): from x_k it extrapolates to z =
    P_B(x_k + beta_k (x_k - x_{k-1})), beta_k = k / (k + 3) after k steps
    since its last restart, and steps to x+ = P_B(z + s g(z)).  It restarts
    (O'Donoghue and Candes 2015), k = 0, where its objective at x+ drops
    more than 1e-12 below x_k's, keeping x_k, or where x+ - z points
    against x+ - x_k, keeping x+.  A step with no momentum (k = 0) that
    raises the objective by less than (1 - 1e-6) ||x+ - x_k||^2 / (2 s) -
    1e-12, short of the rise any s <= 1 / L guarantees, halves the row's
    step and counts a stall; so momentum never runs at a step past 1 / L,
    where it diverges.  More than 200 stalls is a NumericalError.

    A row stops when its gradient-mapping norm at z, ||z - x+|| / s, is at
    most G = max(PGA_TOL, PGA_ULPS ||z|| / s), a move of 16 ulps being the
    finest float64 resolves at z, and returns x+; strong concavity then
    certifies its objective within G * 2C of the optimum.  The step starts
    at 1 / (2 lam_max(B) + 2 lam) for a quadratic and at 1 / (2 lam) for
    any other reward.
    """
    if getattr(reward, "concave", False) is not True:
        raise ValidationError("prox_concave requires a concave reward oracle")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_prox_args(lam, C, y, reward.d)
    if isinstance(reward, QuadraticReward):  # 2 lam_max(B) may overflow
        step = 0.5 / (float(reward._eigh[0][-1]) + lam)
    else:
        step = 1.0 / (2.0 * lam)

    def objective(x, yr):
        fx = oracle_answer(reward.value(x[0] if y.ndim == 1 else x), len(x))
        return fx - lam * np.einsum("ij,ij->i", x - yr, x - yr)

    ys = np.atleast_2d(y)
    out = np.empty_like(ys)
    live = np.arange(len(ys))           # rows of out still ascending
    x = x_prev = project_ball(ys, C)
    fx = objective(x, ys)
    steps = np.full(len(x), float(step))
    stalls = np.zeros(len(x), dtype=int)
    k = np.zeros(len(x))                # steps since the row's last restart
    for _ in range(PGA_MAX_ITER):
        z = project_ball(x + (k / (k + 3.0))[:, None] * (x - x_prev), C)
        g = oracle_answer(reward.grad(z[0] if y.ndim == 1 else z), len(z),
                          z.shape[1]) - 2.0 * lam * (z - ys)
        x_next = project_ball(z + steps[:, None] * g, C)
        dz = x_next - z
        move = norms(dz)
        gmap = move / steps
        done = gmap <= PGA_TOL
        # ||z|| <= C, so only a row that moves at most 32 ulps of C can
        # move at most 16 ulps of ||z||
        if (near := ~done & (move <= 2.0 * PGA_ULPS * C)).any():
            done[near] = move[near] <= PGA_ULPS * norms(z[near])
        if done.any():
            out[live[done]] = x_next[done]
            if done.all():
                return out.reshape(y.shape)
            live, ys, x, x_next, dz, move, gmap, fx, steps, stalls, k = (
                a[~done] for a in (live, ys, x, x_next, dz, move, gmap, fx,
                                   steps, stalls, k))
        f_next = objective(x_next, ys)
        rise = f_next - fx
        worse = rise < -1e-12
        # 1e-6 of the bound is room for rounding: a 1-D quadratic at its
        # exact 1 / L step rises by the bound itself
        stalled = (k == 0) & (rise < 0.5 * (1.0 - 1e-6) * move * gmap
                              - 1e-12)
        if stalled.any():
            steps[stalled] *= 0.5
            stalls[stalled] += 1
            if stalls.max() > 200:
                i = int(np.argmax(stalls))
                raise NumericalError(
                    f"prox_concave stalled: step {steps[i]:.3e}, gradient "
                    f"map {gmap[i]:.3e} > tol {PGA_TOL}")
        turned = np.einsum("ij,ij->i", dz, x_next - x) < 0.0
        x_prev, x = x, np.where(worse[:, None], x, x_next)
        fx = np.where(worse, fx, f_next)
        k = np.where(worse | turned, 0.0, k + 1.0)
    raise NumericalError(f"prox_concave did not reach tol={PGA_TOL} within "
                         f"{PGA_MAX_ITER} iterations")


# ---------------------------------------------------------------------------
# Low-rank backend: exact prox of a max-affine f, else a net search
# ---------------------------------------------------------------------------

@np.errstate(over="ignore", invalid="ignore")  # NaN objective: row NaN, gated
def prox_max_affine(reward: LowRankReward, lam: float, y,
                    C: float) -> np.ndarray:
    """Exact prox of a max-affine r(x) = max_i (<a_i, x> + c_i), a_i = A' s_i,
    over B(C), at a point y (d,) or at every row of a batch (n, d), read
    from ``reward.f.pieces`` alone, never from the ``f.value``/``f.grad``
    oracles.

    The maxima swap, so the prox is the best of the m piece maximizers
    Proj_B(y + a_i / (2 lam)), along y / M + a_i / T (T = max |a_i|, M =
    T / (2 lam)) where that sum passes the float max.  Ties follow the
    max-affine subgradient's rule: each row takes the lowest-index piece
    whose objective is within PIECE_TIE_TOL of the max.  Two passes over
    the pieces (the max, then the first piece within reach of it) keep
    memory at O(n d), and every operation is row-wise, so a point and the
    same row of a batch agree bit for bit.
    """
    if reward.f.reduction != "max":
        raise ValidationError("prox_max_affine needs a max-affine f")
    y = np.atleast_1d(np.asarray(y, dtype=float))
    _check_prox_args(lam, C, y, reward.d)
    pieces, ys = reward.f.pieces, np.atleast_2d(y)
    a = pieces.slopes @ reward.A  # (m, d): rows a_i = A' s_i

    def piece(i):
        x = project_ball(ys + a[i] / (2.0 * lam), C)
        if (over := np.isnan(x).any(axis=1)).any():  # the sum overflowed
            T = np.abs(a[i]).max()
            u = ys[over] / (T / (2.0 * lam)) + a[i] / T
            x[over] = u * (C / norms(u))[:, None]
        return x, (np.sum(x * a[i], axis=1) + pieces.offsets[i]
                   - lam * np.sum((x - ys) ** 2, axis=1))

    top = np.full(len(ys), -np.inf)
    for i in range(pieces.m):
        top = np.maximum(top, piece(i)[1])
    out = np.full_like(ys, np.nan)  # NaN where no objective is a number
    left = np.ones(len(ys), dtype=bool)
    for i in range(pieces.m):
        x, obj = piece(i)
        take = left & (obj >= top - PIECE_TIE_TOL)
        out[take] = x[take]
        left &= ~take
    return out.reshape(y.shape)


@dataclass(frozen=True)
class LowRankDecomp:
    """Compact SVD A = U diag(Sigma) V1' of A's row space; a point y enters
    the rest only through its residual w_y = y - V1 V1' y (O(d r))."""

    U: np.ndarray       # (k, r)
    Sigma: np.ndarray   # (r,), descending
    V1: np.ndarray      # (d, r)

    @property
    def r_A(self) -> int:
        return len(self.Sigma)

    @property
    def S(self) -> float:  # operator norm of A, 0 at rank 0
        return float(self.Sigma.max(initial=0.0))

    @classmethod
    def from_matrix(cls, A) -> "LowRankDecomp":
        A = np.atleast_2d(np.asarray(A, dtype=float))
        k, d = A.shape
        if not (k and d):
            raise ValidationError(f"A needs a row and a column, got {A.shape}")
        U, svals, Vt = np.linalg.svd(A, full_matrices=False)
        r = int(np.sum(svals > max(k, d) * np.finfo(float).eps * svals[0]))
        recon = (U[:, :r] * svals[:r]) @ Vt[:r]
        if np.linalg.norm(recon - A) > 1e-10 * max(1.0, float(svals[0])):
            raise NumericalError("SVD reconstruction drift above 1e-10")
        return cls(U=U[:, :r], Sigma=svals[:r], V1=Vt[:r].T)


@dataclass(frozen=True)
class Alg2Params:
    """Net spacing and base-sampling accuracy for the low-rank search on
    the rank-r_A ball; every field finite, checked here alone.  A net too
    large is refused by ``build_net`` alone, when the net search builds it."""

    h: float
    eps_P: float
    r_A: int

    def __post_init__(self):
        finite(f"the low-rank schedule {self}", list(vars(self).values()))

    @classmethod
    def from_problem(cls, L: float, S: float, lam: float, C: float,
                     eps: float, r_A: int) -> "Alg2Params":
        if not (lam > 0 and eps > 0):
            raise ValidationError(f"need lam > 0 and eps > 0: {lam, eps}")
        # in float64, eps^2 / (288 lam^2 C^3) as a square of a ratio: past
        # the float max inf (h = 0: build_net), NaN for an inf L on A = 0
        L, lam, C = np.float64(L), np.float64(lam), np.float64(C)
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            h = min(eps / (6.0 * (L * S + 4.0 * lam * C)),
                    (eps / (12.0 * lam * C)) ** 2 / (2.0 * C))
            eps_P = eps / (24.0 * lam * C)
        return cls(h=float(h), eps_P=float(eps_P), r_A=int(r_A))


def reduced_objective(decomp: LowRankDecomp, f, lam: float, y: np.ndarray,
                      C: float, us: np.ndarray) -> np.ndarray:
    """Phi_y(u) = f(U Sigma u) - lam [ ||u - u_y||^2 + (||w_y|| - rho(u))_+^2 ]
    evaluated at a batch of reduced coordinates ``us`` (n, r)."""
    us = np.atleast_2d(us)
    u_y = decomp.V1.T @ y
    w_norm = float(np.linalg.norm(y - decomp.V1 @ u_y))
    rho = np.sqrt(np.maximum(C**2 - np.sum(us**2, axis=1), 0.0))
    fvals = oracle_answer(f(us * decomp.Sigma @ decomp.U.T), len(us))
    return fvals - lam * (np.sum((us - u_y) ** 2, axis=1)
                          + np.maximum(w_norm - rho, 0.0) ** 2)


def lift_reduced_point(decomp: LowRankDecomp, y: np.ndarray, u: np.ndarray,
                       C: float) -> np.ndarray:
    """x(u) = V1 u + w_y min(1, rho(u) / ||w_y||): y's residual w_y =
    y - V1 V1' y, cut to the leftover radius; at u (r,) or per row of (n, r)."""
    rho = np.sqrt(np.maximum(C**2 - np.sum(u * u, axis=-1, keepdims=True),
                             0.0))
    w_y = y - decomp.V1 @ (decomp.V1.T @ y)
    w_norm = float(np.linalg.norm(w_y))
    w = np.where(w_norm <= rho, w_y, w_y * (rho / max(w_norm, 1e-300)))
    return u @ decomp.V1.T + w


def alg2_prox(decomp: LowRankDecomp, f, lam: float, y, C: float,
              h: float) -> np.ndarray:
    """Value-oracle prox via exhaustive search of the reduced objective on
    the h-net of the rank-r_A ball that it builds (``build_net``, which
    alone refuses a net); at the ``Alg2Params`` spacing h of an eps the
    achieved objective is within eps/3 of the pointwise optimum V(y).

    ``y`` is a point (d,) or a batch (n, d).  Ties within 1e-9 of the best
    value resolve to the lexicographically smallest lifted point.

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
    net = build_net(decomp.r_A, C, h).points
    fvals = oracle_answer(f(net * decomp.Sigma @ decomp.U.T), len(net))
    sq = np.sum(net**2, axis=1)
    rho = np.sqrt(np.maximum(C**2 - sq, 0.0))
    order = np.argsort(rho)
    net, rho = net[order], rho[order]
    bracket = fvals[order] - lam * sq[order]
    xs = []
    for yi in np.atleast_2d(y):
        u_y = decomp.V1.T @ yi
        w_norm = float(np.linalg.norm(yi - decomp.V1 @ u_y))
        vals = net @ (2.0 * lam * u_y)
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
    """Explicit coupling: base draws ``ys`` and transported points ``xs``
    (``batch``'s points; its producer names the prox that ran), plus
    diagnostics; ``params`` is the low-rank schedule (None on quad, pga)."""

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
    along the produced coupling; lower-bounds the alignment objective.  The
    values are formed ROW_BLOCK rows at a time into one (n,) array, and the
    summary works in it."""
    ys = np.atleast_2d(ys)
    xs = np.atleast_2d(xs)
    vals = np.empty(n := len(xs))
    with np.errstate(over="ignore", invalid="ignore"):  # refused below
        for s in range(0, n, ROW_BLOCK):
            x = xs[s:s + ROW_BLOCK]
            vals[s:s + ROW_BLOCK] = (oracle_answer(reward.value(x), len(x))
                                     - lam * np.sum((x - ys[s:s + ROW_BLOCK])
                                                    ** 2, axis=1))
        finite_vals = _all_finite(vals)
    if not finite_vals:
        raise NumericalError("objective values r(X) - lam ||X - Y||^2 "
                             "must be finite")
    # scaled by 2^-e (exact) below 1, so sums of values near the float max
    # stay finite; np.std's steps, in place
    e = max(int(np.frexp(max(vals.max(), -vals.min()))[1]), 0)
    mean = np.ldexp(vals, -e, out=vals).mean()
    np.square(np.subtract(vals, mean, out=vals), out=vals)
    se = float(np.sqrt(vals.sum() / (n - 1)) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.ldexp(mean, e)), float(np.ldexp(se, e))


def prox_map(reward, lam: float, C: float, backend: str, eps: float = 0.1):
    """The one rule of which prox serves a reward: checks lam, C, eps and
    the backend against the reward; returns the prox map T of a point (d,)
    or a batch (n, d) over B(C), the producer name of its points, and the
    low-rank schedule (None on quad and pga).  backend: "quad" (a
    ``QuadraticReward``), "pga" (a concave oracle), "lowrank" (a
    ``LowRankReward``: ``prox_max_affine`` for a max-affine f, else
    ``alg2_prox`` at the schedule's h, derived once for any rank of A).
    """
    finite("lambda", lam, positive=True)
    finite("C", C, positive=True)
    finite("eps", eps, positive=True)
    if backend == "quad" and isinstance(reward, QuadraticReward):
        if not reward.concave:
            raise ValidationError(_NOT_PSD)
        return (lambda ys: prox_quadratic_batch(reward, lam, ys, C),
                "w2_align/quad", None)
    if backend == "pga" and getattr(reward, "concave", False) is True:
        return (lambda ys: prox_concave(reward, lam, ys, C),
                "w2_align/pga", None)
    if backend == "lowrank" and isinstance(reward, LowRankReward):
        decomp = LowRankDecomp.from_matrix(reward.A)
        params = Alg2Params.from_problem(reward.f.lipschitz, decomp.S, lam,
                                         C, eps, decomp.r_A)
        if reward.f.reduction == "max":
            return (lambda ys: prox_max_affine(reward, lam, ys, C),
                    "w2_align/lowrank/max_affine", params)
        return (lambda ys: alg2_prox(decomp, reward.f.value, lam, ys, C,
                                     params.h),
                "w2_align/lowrank/alg2", params)
    needs = {"quad": "a QuadraticReward", "pga": "a concave reward oracle",
             "lowrank": "a LowRankReward"}.get(backend)
    raise ValidationError(f"{backend} backend needs {needs}" if needs else
                          f"unknown prox backend {backend!r}")


def sample_w2_aligned(base: Model, reward, lam: float, n: int, seed,
                      backend: str = "quad", eps: float = 0.1,
                      base_backend: str = "exact",
                      steps: int = None) -> W2AlignResult:
    """Draw Y_1..Y_n from the base and push each through ``prox_map``'s
    map for ``backend`` and the reward at C = base.support_radius, whose
    checks all run before the base draw, as does the check that the reward
    and the base share d; returns the coupling, so the transport is
    auditable.  The base draw is ``sample_linear_tilt`` with no tilt, at
    the W2 target eps (the schedule's eps_P on lowrank), which must be
    positive: exact on ``base_backend="exact"``, where ``steps`` is not
    read, or on "diffusion" one reverse pass of ``steps`` steps, by
    default ``recommended_steps`` of the target.  The prox map and
    ``objective_value`` run ROW_BLOCK rows at a time, into one (n, d)
    ``xs`` and one (n,) array of values.  One refusal comes after the
    draw: a net search's net, refused by ``build_net`` (its size, or a
    spacing of 0) when ``alg2_prox`` builds it.
    """
    check_count(n)
    T, producer, params = prox_map(reward, lam, base.support_radius,
                                   backend, eps)
    if reward.d != base.d:
        raise ValidationError(f"the reward has d = {reward.d}, the base "
                              f"d = {base.d}")
    target = params.eps_P if params else eps
    if not target > 0:  # eps_P underflows where lam C passes the float max
        raise ValidationError(f"the base draw's W2 target must be positive, "
                              f"got {target}")
    if base_backend == "exact":
        steps = None
    elif base_backend != "diffusion":
        raise ValidationError(f"unknown base backend {base_backend!r}")
    elif steps is None:
        steps = recommended_steps(target, base.support_radius)
    ys = sample_linear_tilt(base, None, _rng_from(seed), n=n,
                            steps=steps).points
    xs = np.empty_like(ys)
    for s in range(0, n, ROW_BLOCK):
        xs[s:s + ROW_BLOCK] = T(ys[s:s + ROW_BLOCK])
    batch = SampleBatch(points=xs, seed=_seed_tag(seed), producer=producer,
                        d=base.d)
    obj, se = objective_value(ys, xs, reward, lam)
    return W2AlignResult(ys=ys, batch=batch, objective=obj,
                         objective_stderr=se, params=params)
