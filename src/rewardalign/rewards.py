"""Reward functions consumed by the alignment samplers.

Four families: linear, (concave-oriented) quadratic, low-dimensional
``f(Ax)`` with a first-order or value oracle, and log-sum-exp.  Lipschitz
constants are caller-declared and checked opportunistically, never
estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import ValidationError, finite
from .models import _logsumexp, _read_spec

# First-order oracles must be valid slightly beyond the declared ball.
DOMAIN_SLACK = 1e-3


@dataclass
class LowDimFunction:
    """Low-dimensional function with a value oracle and an optional
    subgradient oracle.

    ``value`` and ``grad`` take a point ``(k,)`` or a batch ``(n, k)`` and
    return a scalar / ``(n,)`` value and a ``(k,)`` / ``(n, k)`` subgradient.
    A point and the same row of a batch may get values a few ulps apart
    (a (1, k) product against an (n, k) one): compare them with a
    tolerance.  ``lipschitz`` is the declared constant on the ball of
    radius ``radius``; oracles must remain valid on radius*(1 + 1e-3).
    """

    value: Callable[[np.ndarray], np.ndarray]
    k: int
    lipschitz: float
    radius: float
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    convex: bool = False

    def __call__(self, u):
        return self.value(np.asarray(u, dtype=float))


def first_order(f: LowDimFunction, u: np.ndarray):
    """First-order oracle at a point ``(k,)`` or a batch ``(n, k)``:
    ``(f(u), g)`` as ``(float, (k,))`` or ``((n,), (n, k))``, g a
    subgradient.  The one check of oracle answers: raises without a
    subgradient oracle, outside the domain ball (with its small validity
    margin), on answers not shaped like the query, or where |g| > L > 0."""
    u = np.asarray(u, dtype=float)
    rows = np.atleast_2d(u)
    if f.grad is None:
        raise ValidationError("no subgradient oracle declared for this function")
    norm = np.linalg.norm(rows, axis=1).max(initial=0.0)
    if norm > f.radius * (1.0 + DOMAIN_SLACK) + 1e-12:
        raise ValidationError(f"first-order query at norm {norm:.6g} outside "
                              f"the declared ball of radius {f.radius:.6g}")
    val = np.asarray(f.value(u), dtype=float)
    g = np.asarray(f.grad(u), dtype=float)
    if g.shape != u.shape or val.size != len(rows):
        raise ValidationError(
            f"oracle answered a {u.shape} query with values {val.shape} and "
            f"subgradients {g.shape}; a batch (n, k) needs (n,) and (n, k)")
    g_norm = np.linalg.norm(np.atleast_2d(g), axis=1).max(initial=0.0)
    if f.lipschitz > 0 and g_norm > f.lipschitz * (1 + 1e-9):
        raise ValidationError(f"subgradient norm {g_norm:.6g} exceeds the "
                              f"declared Lipschitz constant {f.lipschitz:.6g}")
    return (float(val), g) if u.ndim == 1 else (val.reshape(-1), g)


def _min_norm_in_hull(vectors: np.ndarray) -> np.ndarray:
    """Exact minimum-norm point of the convex hull of a handful of vectors
    (subset enumeration of the simplex QP's KKT systems)."""
    t = vectors.shape[0]
    if t > 12:  # ties this wide only arise from degenerate inputs
        return vectors[np.argmin(np.linalg.norm(vectors, axis=1))].copy()
    best, best_sq = None, np.inf
    for mask in range(1, 1 << t):
        idx = [i for i in range(t) if mask >> i & 1]
        S = vectors[idx]
        j = len(idx)
        G = S @ S.T
        kkt = np.zeros((j + 1, j + 1))
        kkt[:j, :j] = 2.0 * G
        kkt[:j, j] = 1.0
        kkt[j, :j] = 1.0
        rhs = np.zeros(j + 1)
        rhs[j] = 1.0
        lam = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:j]
        if np.any(lam < -1e-12) or abs(lam.sum() - 1.0) > 1e-9:
            continue
        point = lam @ S
        sq = float(point @ point)
        if sq < best_sq - 1e-15:
            best_sq, best = sq, point
    return best if best is not None else vectors[0].copy()


def make_max_affine(pieces) -> LowDimFunction:
    """Convex max of affine pieces ``f(u) = max_i (<s_i, u> + c_i)``.

    The subgradient at a kink is the minimum-norm element of the convex
    hull of the maximizing slopes (so |.| at 0 yields 0), which makes runs
    reproducible.  L is ``max_i ||s_i||``.
    """
    if len(pieces) == 0:
        raise ValidationError("need at least one affine piece")
    slopes = np.atleast_2d(finite("max-affine slopes", [p[0] for p in pieces]))
    offsets = finite("max-affine offsets", [p[1] for p in pieces])
    k = slopes.shape[1]
    L = float(np.max(np.linalg.norm(slopes, axis=1)))

    # values piece-major, (p, n): numpy reduces over the long axis fastest
    def value(u):
        u = np.asarray(u, dtype=float)
        vals = slopes @ np.atleast_2d(u).T
        vals += offsets[:, None]  # in place: one (p, n) temporary, not two
        out = vals.max(axis=0)
        return float(out[0]) if u.ndim == 1 else out

    def grad(u):
        u = np.asarray(u, dtype=float)
        vals = slopes @ np.atleast_2d(u).T + offsets[:, None]
        top = vals >= vals.max(axis=0) - 1e-12
        g = slopes[np.argmax(top, axis=0)]
        tied = np.flatnonzero(top.sum(axis=0) > 1)
        sets = top[:, tied].T  # one row per tied point
        for t in np.unique(sets, axis=0):  # one hull solve per tie set
            g[tied[np.all(sets == t, axis=1)]] = _min_norm_in_hull(slopes[t])
        return g[0] if u.ndim == 1 else g

    return LowDimFunction(value=value, k=k, lipschitz=L, radius=np.inf,
                          grad=grad, convex=True)


def make_logsumexp_function(weights, slopes) -> LowDimFunction:
    """Smooth convex ``f(u) = log sum_i w_i exp(<z_i, u>)`` with exact
    gradient (softmax-weighted slope average); values piece-major."""
    w = finite("log-sum-exp weights", weights, positive=True)
    z = np.atleast_2d(finite("log-sum-exp slopes", slopes))
    logw = np.log(w)
    L = float(np.max(np.linalg.norm(z, axis=1)))

    def value(u):
        u = np.asarray(u, dtype=float)
        out = _logsumexp(z @ np.atleast_2d(u).T + logw[:, None], axis=0)
        return float(out[0]) if u.ndim == 1 else out

    def grad(u):
        # (.., 1, k) rows: one vector-matrix product per row, as for a point
        u = np.asarray(u, dtype=float)[..., None, :]
        s = u @ z.T + logw
        return (np.exp(s - _logsumexp(s, axis=-1)[..., None]) @ z)[..., 0, :]

    return LowDimFunction(value=value, k=z.shape[1], lipschitz=L,
                          radius=np.inf, grad=grad, convex=True)


# ---------------------------------------------------------------------------
# Reward variants
# ---------------------------------------------------------------------------

class LinearReward:
    """r(x) = <theta, x>; ``value`` and ``grad`` take a point (d,) or a
    batch (n, d)."""

    concave = True

    def __init__(self, theta):
        self.theta = finite("theta", theta)
        self.d = self.theta.shape[0]

    def value(self, x):
        x = np.asarray(x, dtype=float)
        return x @ self.theta

    def grad(self, x):
        return np.broadcast_to(self.theta, np.shape(x)).copy()

    def to_dict(self):
        return {"type": "linear", "theta": self.theta.tolist()}


class QuadraticReward:
    """r(x) = -x'Bx + b'x + c with symmetric B.

    The sign convention orients B so that a positive semidefinite B means a
    concave reward (the regime where the proximal map is a convex program).
    ``value`` and ``grad`` take a point (d,) or a batch (n, d).
    """

    def __init__(self, B, b, c: float = 0.0):
        self.B = np.atleast_2d(finite("B", B))
        self.b = np.atleast_1d(finite("b", b))
        self.c = float(finite("c", c))
        if not np.allclose(self.B, self.B.T, atol=1e-12):
            raise ValidationError("B must be symmetric")
        if self.B.shape[0] != self.b.shape[0]:
            raise ValidationError("B and b dimensions disagree")
        self.d = self.b.shape[0]

    @property
    def concave(self) -> bool:
        return bool(np.linalg.eigvalsh(self.B)[0] >= -1e-10)

    def value(self, x):
        x = np.asarray(x, dtype=float)
        xb = np.atleast_2d(x)
        out = -np.einsum("ni,ij,nj->n", xb, self.B, xb) + xb @ self.b + self.c
        return float(out[0]) if x.ndim == 1 else out

    def grad(self, x):
        # B is symmetric, so x @ B is B x at a point (d,) and row-wise on (n, d)
        return -2.0 * (np.asarray(x, dtype=float) @ self.B) + self.b

    def to_dict(self):
        return {"type": "quadratic", "B": self.B.tolist(),
                "b": self.b.tolist(), "c": self.c}


class LowRankReward:
    """r(x) = f(Ax) for a wide matrix A and a low-dimensional function f."""

    def __init__(self, A, f: LowDimFunction):
        self.A = np.atleast_2d(finite("A", A))
        self.f = f
        if self.A.shape[0] != f.k:
            raise ValidationError("A row count must match f's dimension")
        self.k, self.d = self.A.shape

    def value(self, x):
        x = np.asarray(x, dtype=float)
        u = x @ self.A.T
        return self.f.value(u)

    def to_dict(self):
        raise ValidationError("black-box low-rank rewards are not serializable; "
                              "use the max-affine or logsumexp forms")


class LogSumExpReward(LowRankReward):
    """r(x) = log sum_i w_i exp(<z_i, Ax>), convex and smooth."""

    def __init__(self, weights, slopes, A):
        self.weights = np.asarray(weights, dtype=float)
        self.slopes = np.atleast_2d(np.asarray(slopes, dtype=float))
        super().__init__(A, make_logsumexp_function(weights, slopes))

    def envelope_pieces(self):
        """Exact log-sum-exp pieces (slopes, log-weights) of this reward."""
        return self.slopes.copy(), np.log(self.weights)

    def to_dict(self):
        return {"type": "logsumexp", "w": self.weights.tolist(),
                "z": self.slopes.tolist(), "A": self.A.tolist()}


class MaxAffineLowRankReward(LowRankReward):
    """Serializable low-rank reward with a max-affine f."""

    def __init__(self, A, pieces, radius=None):
        f = make_max_affine(pieces)
        f.radius = np.inf if radius is None else float(radius)
        if not f.radius > 0:  # inf: no declared ball
            raise ValidationError(f"R must be positive or inf, got {radius}")
        super().__init__(A, f)
        self.pieces = [(np.asarray(s, dtype=float), float(c)) for s, c in pieces]

    def to_dict(self):
        return {"type": "lowrank_maxaffine", "A": self.A.tolist(),
                "pieces": [[s.tolist(), c] for s, c in self.pieces],
                "L": self.f.lipschitz, "R": self.f.radius}


def reward_from_dict(spec: dict):
    if not isinstance(spec, dict):
        raise ValidationError(f"a reward spec must be a JSON object, got "
                              f"{type(spec).__name__}")
    kind = spec.get("type")
    try:
        if kind == "linear":
            return LinearReward(spec["theta"])
        if kind == "quadratic":
            return QuadraticReward(spec["B"], spec["b"], spec.get("c", 0.0))
        if kind == "lowrank_maxaffine":
            pieces = [(p[0], p[1]) for p in spec["pieces"]]
            r = MaxAffineLowRankReward(spec["A"], pieces, spec.get("R"))
            if "L" in spec:
                declared = float(finite("L", spec["L"]))
                if not declared + 1e-12 >= r.f.lipschitz:
                    raise ValidationError(
                        f"declared L={declared} below the max piece slope "
                        f"{r.f.lipschitz:.6g}")
                r.f.lipschitz = declared
            return r
        if kind == "logsumexp":
            return LogSumExpReward(spec["w"], spec["z"], spec["A"])
    except (LookupError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed {kind} reward spec: {exc!r}") from exc
    raise ValidationError(f"unknown reward type {kind!r}")


def load_reward(path):
    return reward_from_dict(_read_spec(path, "reward"))
