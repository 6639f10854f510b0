"""Reward functions consumed by the alignment samplers.

Four families: linear, (concave-oriented) quadratic, low-dimensional
``f(Ax)`` with a first-order or value oracle, and log-sum-exp.  Lipschitz
constants are caller-declared and checked opportunistically, never
estimated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from .errors import NumericalError, ValidationError, finite, scalar
from .models import _logsumexp, _read_spec, norms

# First-order oracles must be valid slightly beyond the declared ball.
DOMAIN_SLACK = 1e-3
# The one tie rule of max-affine pieces: the lowest-index piece whose score
# is within this of the max wins
PIECE_TIE_TOL = 1e-12


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
    ``pieces``, ``reduction`` ("max" or "logsumexp"): f's own pieces, set
    by its builder alone (None on a black box), never read off the oracles.
    """

    value: Callable[[np.ndarray], np.ndarray]
    k: int
    lipschitz: float
    radius: float
    grad: Optional[Callable[[np.ndarray], np.ndarray]] = None
    convex: bool = False
    pieces: Optional[AffinePieces] = None
    reduction: Optional[str] = None


def oracle_answer(out, rows: int, k: int = None) -> np.ndarray:
    """The one gate of oracle answers: ``out`` as (rows,) values, or (rows,
    k) subgradients given k (a point is one row).  ValidationError unless
    one entry per queried row, NumericalError on NaN; +-inf passes."""
    out = np.asarray(out, dtype=float)
    shape = (rows, k) if k else (rows,)
    if out.size != rows * (k or 1) or (k and out.shape[-1:] != (k,)):
        raise ValidationError(
            f"oracle answered {rows} queried row(s) with shape {out.shape}; "
            f"a batch (n, k) needs (n,) values and (n, k) subgradients")
    if np.isnan(out.min(initial=np.inf)):  # NaN propagates; no temporary
        raise NumericalError(f"oracle answered NaN to {rows} queried row(s)")
    return out.reshape(shape)


def check_domain(f: LowDimFunction, norm: float) -> None:
    """ValidationError unless points of norm ``norm`` lie in f's declared
    ball (with its small validity margin)."""
    if norm > f.radius * (1.0 + DOMAIN_SLACK) + 1e-12:
        raise ValidationError(f"query at norm {norm:.6g} outside the "
                              f"declared ball of radius {f.radius:.6g}")


def first_order(f: LowDimFunction, u: np.ndarray):
    """First-order oracle at a point ``(k,)`` or a batch ``(n, k)``:
    ``(f(u), g)`` as ``(float, (k,))`` or ``((n,), (n, k))``, g a
    subgradient.  Raises without a subgradient oracle, outside the domain
    ball (with its small validity margin), where |g| > L > 0, and where
    ``oracle_answer`` refuses an answer."""
    u = np.asarray(u, dtype=float)
    rows = np.atleast_2d(u)
    if f.grad is None:
        raise ValidationError("no subgradient oracle declared for this function")
    check_domain(f, norms(rows).max(initial=0.0))
    val = oracle_answer(f.value(u), len(rows))
    g = oracle_answer(f.grad(u), len(rows), rows.shape[1])
    g_norm = norms(g).max(initial=0.0)
    if f.lipschitz > 0 and g_norm > f.lipschitz * (1 + 1e-9):
        raise ValidationError(f"subgradient norm {g_norm:.6g} exceeds the "
                              f"declared Lipschitz constant {f.lipschitz:.6g}")
    return (float(val[0]), g[0]) if u.ndim == 1 else (val, g)


# Scores per block of rows (128 KiB of float64, inside L2); at least
# BLOCK_MIN_ROWS rows, so at large m the per-block Python cost stays small.
BLOCK_SCORES = 16384
BLOCK_MIN_ROWS = 16


@dataclass(frozen=True)
class AffinePieces:
    """Affine pieces <s_i, u> + c_i: slopes (m, k) and offsets (m,), m >= 1,
    every entry finite, checked here alone.  The pieces of a max-affine f,
    of a log-sum-exp f and of the KL envelope, evaluated in row blocks."""

    slopes: np.ndarray   # (m, k)
    offsets: np.ndarray  # (m,)
    what = "affine-piece"  # names the pieces in error messages

    def __post_init__(self):
        slopes = np.atleast_2d(finite(f"{self.what} slopes", self.slopes))
        offsets = finite(f"{self.what} offsets", self.offsets)
        if (slopes.ndim != 2 or offsets.shape != (len(slopes),)
                or not offsets.size):
            raise ValidationError(
                f"{self.what} slopes (m, k) and offsets (m,) need m >= 1 and "
                f"one offset per slope, got {slopes.shape}, {offsets.shape}")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)

    @property
    def m(self) -> int:
        return self.slopes.shape[0]

    def _in_blocks(self, u, block, *shape) -> np.ndarray:
        """``block`` on blocks of the rows of a point (k,) or a batch (n, k);
        its (rows,) + shape answers as (n,) + shape, or the point's row."""
        u = np.asarray(u, dtype=float)
        rows = np.atleast_2d(u)
        out = np.empty((len(rows),) + shape)
        step = max(BLOCK_MIN_ROWS, BLOCK_SCORES // self.m)
        for s in range(0, len(rows), step):
            out[s:s + step] = block(rows[s:s + step])
        return out if u.ndim != 1 else out[0] if shape else float(out[0])

    def _scores(self, rows: np.ndarray) -> np.ndarray:
        """Scores of a block as (m, rows): piece-major while a block holds at
        least m rows (m^2 <= BLOCK_SCORES), else a row-major product seen
        transposed, so every reduction over axis 0 runs along the longer
        axis, which numpy reduces fastest (even near m = 180)."""
        scores = (self.slopes @ rows.T if self.m ** 2 <= BLOCK_SCORES
                  else (rows @ self.slopes.T).T)
        scores += self.offsets[:, None]
        return scores

    def max(self, u) -> np.ndarray:
        """max_i (<s_i, u> + c_i) at a point (k,) or a batch (n, k)."""
        return self._in_blocks(u, lambda rows: self._scores(rows).max(axis=0))

    def log_sum_exp(self, u) -> np.ndarray:
        """log sum_i exp(<s_i, u> + c_i) at a point (k,) or a batch (n, k),
        max-shifted and added as top + log(sum)."""
        def block(rows):
            scores = self._scores(rows)
            top = scores.max(axis=0)
            with np.errstate(over="ignore"):  # past -float max: e^-inf = 0
                scores -= top
            np.exp(scores, out=scores)
            return top + np.log(scores.sum(axis=0))
        return self._in_blocks(u, block)


def make_max_affine(pieces) -> LowDimFunction:
    """Convex max of affine pieces ``f(u) = max_i (<s_i, u> + c_i)``.

    The subgradient is the slope of the first piece (lowest index) whose
    score is within 1e-12 of the max, so |u| = max(u, -u) at 0 yields +1
    and every answer is one of f's own slopes, bit for bit.  Pieces tied
    in exact arithmetic may score ulps apart; the 1e-12 mask, not a bare
    argmax, still picks the lowest index among them.  L is max_i ||s_i||,
    by ``norms``, so no square overflows.
    """
    aff = AffinePieces([p[0] for p in pieces], [p[1] for p in pieces])
    k = aff.slopes.shape[1]

    def grad_block(rows):
        # (rows, 1, k): one vector-matrix product per row, so a point and
        # the same row of a batch get the same scores, bit for bit
        scores = (rows[:, None, :] @ aff.slopes.T)[:, 0] + aff.offsets
        top = scores >= scores.max(axis=1, keepdims=True) - PIECE_TIE_TOL
        return aff.slopes[np.argmax(top, axis=1)]

    L = float(norms(aff.slopes).max())
    return LowDimFunction(value=aff.max, k=k, lipschitz=L, radius=np.inf,
                          grad=lambda u: aff._in_blocks(u, grad_block, k),
                          convex=True, pieces=aff, reduction="max")


def make_logsumexp_function(weights, slopes) -> LowDimFunction:
    """Smooth convex ``f(u) = log sum_i w_i exp(<z_i, u>)``, the log-sum-exp
    of the pieces (z_i, log w_i), with exact gradient (softmax-weighted
    slope average)."""
    aff = AffinePieces(slopes, np.log(finite("log-sum-exp weights", weights,
                                             positive=True)))
    z, logw = aff.slopes, aff.offsets

    def grad_block(rows):
        # (rows, 1, k): one vector-matrix product per row, so a point and
        # the same row of a batch agree bit for bit
        s = rows[:, None, :] @ z.T + logw
        return (np.exp(s - _logsumexp(s, axis=-1)[..., None]) @ z)[:, 0]

    return LowDimFunction(
        value=aff.log_sum_exp, k=z.shape[1],
        lipschitz=float(norms(z).max()), radius=np.inf,
        grad=lambda u: aff._in_blocks(u, grad_block, z.shape[1]), convex=True,
        pieces=aff, reduction="logsumexp")


# ---------------------------------------------------------------------------
# Reward variants
# ---------------------------------------------------------------------------

class LinearReward:
    """r(x) = <theta, x>; ``value`` and ``grad`` take a point (d,) or a
    batch (n, d)."""

    concave = True

    def __init__(self, theta):
        self.theta = finite("theta", theta)
        if self.theta.ndim != 1:
            raise ValidationError(f"theta must be a vector (d,), got shape "
                                  f"{self.theta.shape}")
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
        self.c = scalar("c", c)
        self.d = self.b.shape[0]
        if self.b.ndim != 1 or self.B.shape != (self.d, self.d):
            raise ValidationError(f"B must be (d, d) and b (d,), got shapes "
                                  f"{self.B.shape} and {self.b.shape}")
        if not np.allclose(self.B, self.B.T, atol=1e-12):
            raise ValidationError("B must be symmetric")

    @cached_property
    def _eigh(self) -> tuple:
        """``np.linalg.eigh(B)``, taken once: the concavity check, the exact
        prox and ``prox_concave``'s first step all read it."""
        return np.linalg.eigh(self.B)

    @property
    def concave(self) -> bool:
        return bool(self._eigh[0][0] >= -1e-10)

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
        if self.A.ndim != 2 or self.A.shape[0] != f.k or not self.A.shape[1]:
            raise ValidationError(f"A must be k x d, k = {f.k}, d >= 1, got "
                                  f"shape {self.A.shape}")
        self.k, self.d = self.A.shape

    def value(self, x):
        return self.f.value(np.asarray(x, dtype=float) @ self.A.T)

    def to_dict(self):
        """The spec of either piece form, from ``f.pieces``; no R if inf."""
        f, p = self.f, self.f.pieces
        if p is None:
            raise ValidationError("a black-box f has no pieces to serialize")
        if f.reduction == "logsumexp":  # the spec's own w: exp(log w) != w
            w = getattr(self, "weights", np.exp(p.offsets))
            return {"type": "logsumexp", "w": w.tolist(),
                    "z": p.slopes.tolist(), "A": self.A.tolist()}
        pieces = zip(p.slopes.tolist(), p.offsets.tolist())
        spec = {"type": "lowrank_maxaffine", "A": self.A.tolist(),
                "pieces": [list(sc) for sc in pieces], "L": f.lipschitz}
        return spec if f.radius == np.inf else {**spec, "R": f.radius}


class LogSumExpReward(LowRankReward):
    """r(x) = log sum_i w_i exp(<z_i, Ax>), convex and smooth; keeps w."""

    def __init__(self, weights, slopes, A):
        super().__init__(A, make_logsumexp_function(weights, slopes))
        self.weights = np.asarray(weights, dtype=float)

    def envelope_pieces(self):
        """Exact log-sum-exp pieces (slopes, log-weights) of this reward."""
        return self.f.pieces.slopes.copy(), self.f.pieces.offsets.copy()


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
            f = make_max_affine([(p[0], p[1]) for p in spec["pieces"]])
            R = spec.get("R")  # absent or null: no declared ball
            f.radius = np.inf if R is None else float(R)
            if not f.radius > 0:
                raise ValidationError(f"R must be positive or inf, got {R}")
            if "L" in spec:
                declared = float(finite("L", spec["L"]))
                if not declared + 1e-12 >= f.lipschitz:
                    raise ValidationError(
                        f"declared L={declared} below the max piece slope "
                        f"{f.lipschitz:.6g}")
                f.lipschitz = declared
            return LowRankReward(spec["A"], f)
        if kind == "logsumexp":
            return LogSumExpReward(spec["w"], spec["z"], spec["A"])
    except (LookupError, TypeError, ValueError, OverflowError) as exc:
        raise ValidationError(f"malformed {kind} reward spec: {exc!r}") from exc
    raise ValidationError(f"unknown reward type {kind!r}")


def load_reward(path):
    return reward_from_dict(_read_spec(path, "reward"))
