"""Exact distances, the bounded-support conversion inequalities, and
brute-force oracles.

Everything here is exact or refuses: 1D Wasserstein through quantile
couplings, multivariate empirical W2 through assignment, weighted discrete
W2 through the transportation LP, KL tilts by direct renormalization, and
proximal maps by dense grid search.  These ground the acceptance tests, so
no approximate solver is allowed to stand in.
"""

from __future__ import annotations

import functools

import numpy as np
from scipy import sparse
from scipy.optimize import linear_sum_assignment, linprog
from scipy.special import logsumexp

from .errors import BudgetError, CapabilityError, ValidationError
from .models import DiscreteModel, project_ball

ASSIGNMENT_CAP = 512
LP_CELL_CAP = 1 << 22
GRID_POINT_CAP = 30_000_000
GRID_CHUNK = 1 << 20  # grid rows per objective evaluation
QUADRATURE_GRID = 200_001  # points of the 1D quadrature grid on [-C, C]


# ---------------------------------------------------------------------------
# Total variation
# ---------------------------------------------------------------------------

def _atom_keys(atoms: np.ndarray):
    return [row.tobytes() for row in np.ascontiguousarray(atoms, dtype=float)]


def tv_discrete(p: DiscreteModel, q: DiscreteModel) -> float:
    """0.5 * sum |p_i - q_i| over the union of atoms (missing mass 0)."""
    masses = {}
    for key, w in zip(_atom_keys(p.atoms), p.probs):
        masses[key] = masses.get(key, 0.0) + w
    for key, w in zip(_atom_keys(q.atoms), q.probs):
        masses[key] = masses.get(key, 0.0) - w
    return 0.5 * float(sum(abs(v) for v in masses.values()))


def empirical_to_discrete(points: np.ndarray, C: float) -> DiscreteModel:
    """Frequency law of a sample: rows match exactly, by bytes as in
    ``tv_discrete``, through a 1-D sort of one opaque key per row."""
    pts = np.ascontiguousarray(np.atleast_2d(points), dtype=float)
    keys = pts.view(np.dtype((np.void, pts.itemsize * pts.shape[1])))
    _, first, counts = np.unique(keys.ravel(), return_index=True,
                                 return_counts=True)
    return DiscreteModel(pts[first], counts / counts.sum(), C)


def mix_discrete(components, weights) -> DiscreteModel:
    """Finite mixture of discrete laws as one discrete law."""
    weights = np.asarray(weights, dtype=float)
    masses = {}
    coords = {}
    for comp, w in zip(components, weights):
        for key, atom, prob in zip(_atom_keys(comp.atoms), comp.atoms,
                                   comp.probs):
            masses[key] = masses.get(key, 0.0) + w * prob
            coords[key] = atom
    atoms = np.array([coords[k] for k in masses])
    probs = np.array([masses[k] for k in masses])
    C = max(c.support_radius for c in components)
    return DiscreteModel(atoms, probs / probs.sum(), C)


# ---------------------------------------------------------------------------
# Wasserstein distances (exact or refuse)
# ---------------------------------------------------------------------------

def _quantile_segments(xs, ws, ys, vs):
    """Merged quantile segments of two 1D weighted laws: returns arrays
    (lengths, xq, yq) with segment masses and the constant quantile values
    of each law on the segment."""
    ox = np.argsort(xs, kind="stable")
    oy = np.argsort(ys, kind="stable")
    xs, ws = xs[ox], ws[ox]
    ys, vs = ys[oy], vs[oy]
    cx = np.cumsum(ws)
    cy = np.cumsum(vs)
    cx[-1] = cy[-1] = 1.0
    cuts = np.union1d(cx, cy)
    cuts = cuts[(cuts > 0) & (cuts <= 1.0)]
    prev = 0.0
    lengths, xq, yq = [], [], []
    ix = iy = 0
    for t in cuts:
        # quantile on (prev, t] is the first atom whose cumulative mass
        # exceeds prev (exact equality means the atom is exhausted)
        while cx[ix] <= prev and ix + 1 < len(cx):
            ix += 1
        while cy[iy] <= prev and iy + 1 < len(cy):
            iy += 1
        lengths.append(t - prev)
        xq.append(xs[ix])
        yq.append(ys[iy])
        prev = t
    return np.array(lengths), np.array(xq), np.array(yq)


def _w1_1d(xs, ws, ys, vs) -> float:
    lengths, xq, yq = _quantile_segments(xs, ws, ys, vs)
    return float(np.sum(lengths * np.abs(xq - yq)))


def _w2_1d(xs, ws, ys, vs) -> float:
    lengths, xq, yq = _quantile_segments(xs, ws, ys, vs)
    return float(np.sqrt(np.sum(lengths * (xq - yq) ** 2)))


@functools.lru_cache(maxsize=16)
def _transport_constraints(n: int, m: int) -> sparse.csr_matrix:
    """Row sums then column sums of an n x m plan (raveled row-major) as
    one sparse equality matrix.

    A pure function of the shape, built once per shape and shared
    read-only: a sweep of small LPs spends a large share of each call on
    building it.
    """
    rows_p = sparse.kron(sparse.eye(n), np.ones((1, m)))
    rows_q = sparse.kron(np.ones((1, n)), sparse.eye(m))
    A_eq = sparse.vstack([rows_p, rows_q]).tocsr()
    for arr in (A_eq.data, A_eq.indices, A_eq.indptr):
        arr.flags.writeable = False
    return A_eq


def _lp_transport_cost(px, pw, qx, qw) -> float:
    """Exact optimal squared-cost transport between weighted atom sets via
    the transportation LP (HiGHS)."""
    n, m = len(pw), len(qw)
    if n * m > LP_CELL_CAP:
        raise CapabilityError(f"transport LP with {n * m} cells refused; "
                              f"subsample first")
    diff = px[:, None, :] - qx[None, :, :]
    cost = np.sum(diff * diff, axis=2).ravel()
    b_eq = np.concatenate([pw, qw])
    res = linprog(cost, A_eq=_transport_constraints(n, m), b_eq=b_eq,
                  bounds=(0, None), method="highs")
    if not res.success:
        raise CapabilityError(f"transport LP failed: {res.message}")
    return float(max(res.fun, 0.0))


def w2_discrete(p: DiscreteModel, q: DiscreteModel) -> float:
    """Exact W2 between weighted discrete laws (quantile coupling in 1D,
    transportation LP otherwise)."""
    if p.d != q.d:
        raise ValidationError("dimension mismatch")
    if p.d == 1:
        return _w2_1d(p.atoms[:, 0], p.probs, q.atoms[:, 0], q.probs)
    return float(np.sqrt(_lp_transport_cost(p.atoms, p.probs,
                                            q.atoms, q.probs)))


def w1_discrete(p: DiscreteModel, q: DiscreteModel) -> float:
    """Exact W1 for 1D discrete laws (CDF area)."""
    if p.d != 1 or q.d != 1:
        raise CapabilityError("exact W1 implemented for d=1 only")
    return _w1_1d(p.atoms[:, 0], p.probs, q.atoms[:, 0], q.probs)


def w2_empirical(xs: np.ndarray, ys: np.ndarray) -> float:
    """Exact W2 between two uniform empirical laws.

    d = 1: sorted quantile coupling (any sizes).  d > 1: minimum-cost
    assignment for equal sizes up to 512 points; anything else refuses with
    a recommendation to subsample (no silent approximation).
    """
    xs = np.atleast_2d(np.asarray(xs, dtype=float))
    ys = np.atleast_2d(np.asarray(ys, dtype=float))
    if xs.shape[1] != ys.shape[1]:
        raise ValidationError("dimension mismatch")
    d = xs.shape[1]
    if d == 1:
        n, m = len(xs), len(ys)
        if n == m:
            return float(np.sqrt(np.mean(
                (np.sort(xs[:, 0]) - np.sort(ys[:, 0])) ** 2)))
        return _w2_1d(xs[:, 0], np.full(n, 1.0 / n),
                      ys[:, 0], np.full(m, 1.0 / m))
    n, m = len(xs), len(ys)
    if n != m or n > ASSIGNMENT_CAP:
        raise CapabilityError(
            f"exact multivariate W2 needs equal sizes <= {ASSIGNMENT_CAP}; "
            f"got {n} vs {m}.  Subsample and retry.")
    diff = xs[:, None, :] - ys[None, :, :]
    cost = np.sum(diff * diff, axis=2)
    ridx, cidx = linear_sum_assignment(cost)
    return float(np.sqrt(cost[ridx, cidx].mean()))


def w2_1d_samples_vs_quantiles(samples: np.ndarray, ppf) -> float:
    """Exact W2 between a 1D uniform empirical law and a continuous law
    given by its quantile function, via midpoint-quantile discretization of
    the continuous side at the sample resolution."""
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    grid = ppf((np.arange(len(s)) + 0.5) / len(s))
    return float(np.sqrt(np.mean((s - np.sort(grid)) ** 2)))


# ---------------------------------------------------------------------------
# Conversion inequalities
# ---------------------------------------------------------------------------

def check_tv_to_w2(tv: float, C: float, w2: float) -> bool:
    """W2 <= 2C sqrt(TV) for laws on B(C)."""
    return bool(w2 <= 2.0 * C * np.sqrt(max(tv, 0.0)) + 1e-9)


def check_w1_to_w2(w1: float, C: float, w2: float) -> bool:
    """W2 <= sqrt(2C W1) for laws on B(C)."""
    return bool(w2 <= np.sqrt(2.0 * C * max(w1, 0.0)) + 1e-9)


def check_weight_stability(a: np.ndarray, a_hat: np.ndarray,
                           eta: float) -> bool:
    """TV between the normalizations of a and a_hat is at most
    eta / (1 - eta) when each a_hat_i is within relative eta of a_i."""
    a = np.asarray(a, dtype=float)
    a_hat = np.asarray(a_hat, dtype=float)
    if np.any(a <= 0) or np.any(a_hat <= 0):
        raise ValidationError("weights must be positive")
    lo, hi = (1.0 - eta) * a, (1.0 + eta) * a
    if np.any(a_hat < lo - 1e-15) or np.any(a_hat > hi + 1e-15):
        raise ValidationError("a_hat violates the multiplicative band")
    tv = 0.5 * np.abs(a / a.sum() - a_hat / a_hat.sum()).sum()
    return bool(tv <= eta / (1.0 - eta) + 1e-12)


def check_mixture_error(components, perturbed, pi, pi_hat, C: float) -> dict:
    """W2(mixture, perturbed mixture) <= max_i W2(Q_i, Qhat_i) + 2C sqrt(alpha)
    with alpha the TV between the weight vectors; all quantities exact."""
    pi = np.asarray(pi, dtype=float)
    pi_hat = np.asarray(pi_hat, dtype=float)
    eps = max(w2_discrete(c, ch) for c, ch in zip(components, perturbed))
    alpha = 0.5 * float(np.abs(pi - pi_hat).sum())
    lhs = w2_discrete(mix_discrete(components, pi),
                      mix_discrete(perturbed, pi_hat))
    rhs = eps + 2.0 * C * np.sqrt(alpha)
    return {"lhs": lhs, "rhs": rhs, "eps": eps, "alpha": alpha,
            "ok": bool(lhs <= rhs + 1e-9)}


def reweight_discrete(model: DiscreteModel, a_fn) -> DiscreteModel:
    """Renormalized reweighting q_i ~ p_i a(x_i) for a in (0, 1]."""
    a_vals = np.asarray([float(a_fn(x)) for x in model.atoms])
    if np.any(a_vals <= 0):
        raise ValidationError("acceptance function must be positive on atoms")
    probs = model.probs * a_vals
    return DiscreteModel(model.atoms, probs / probs.sum(),
                         model.support_radius)


def check_rejection_stability(q: DiscreteModel, q_hat: DiscreteModel, a_fn,
                              a0: float, L_a: float, C: float) -> dict:
    """W2 of the a-reweighted laws is at most
    sqrt(2C (1 + 2C L_a) / a0 * W2(q, q_hat)) for a in [a0, 1] and
    L_a-Lipschitz."""
    lhs = w2_discrete(reweight_discrete(q, a_fn), reweight_discrete(q_hat, a_fn))
    base = w2_discrete(q, q_hat)
    rhs = float(np.sqrt(2.0 * C * (1.0 + 2.0 * C * L_a) / a0 * base))
    return {"lhs": lhs, "rhs": rhs, "w2_inputs": base,
            "ok": bool(lhs <= rhs + 1e-9)}


# ---------------------------------------------------------------------------
# Brute-force oracles
# ---------------------------------------------------------------------------

def oracle_kl_tilt(p: DiscreteModel, reward) -> DiscreteModel:
    """Direct renormalization q_i ~ p_i exp(r(x_i)) (the exact KL optimizer
    on a finite base)."""
    r_vals = np.asarray(reward.value(p.atoms), dtype=float)
    logits = np.log(p.probs) + r_vals
    probs = np.exp(logits - logsumexp(logits))
    return DiscreteModel(p.atoms, probs / probs.sum(), p.support_radius)


@functools.lru_cache(maxsize=2)
def _anchored_ball_grid(dim: int, C: float, resolution: float) -> np.ndarray:
    """Grid of multiples of ``resolution`` covering B(C), with radial
    projections of just-outside points so sphere optima are reachable.
    Anchored at 0 so halving the resolution yields a superset.

    A pure function of its arguments: the two most recent grids are kept
    and shared read-only, since an oracle sweep asks for one grid per y.
    """
    n_side = int(np.floor(C / resolution)) + 1
    if (2 * n_side + 1) ** dim > GRID_POINT_CAP:
        raise BudgetError(f"oracle grid would need {(2 * n_side + 1) ** dim} "
                          f"points; coarsen the resolution")
    ticks = resolution * np.arange(-n_side, n_side + 1)
    grids = np.meshgrid(*([ticks] * dim), indexing="ij")
    pts = np.stack([g.ravel() for g in grids], axis=1)
    norms = np.linalg.norm(pts, axis=1)
    inside = pts[norms <= C]
    near = (norms > C) & (norms <= C + resolution * np.sqrt(dim))
    proj = pts[near] * (C / norms[near])[:, None]
    grid = np.vstack([inside, proj]) if proj.size else inside
    grid.flags.writeable = False
    return grid


def _chunked_argmax(points: np.ndarray, objective):
    """Best point and value of ``objective(block, rows)`` over blocks of
    GRID_CHUNK rows of ``points`` (``rows`` is the block's slice)."""
    best_val = -np.inf
    best_pt = None
    for start in range(0, len(points), GRID_CHUNK):
        rows = slice(start, start + GRID_CHUNK)
        block = points[rows]
        vals = np.asarray(objective(block, rows), dtype=float)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_val = float(vals[i])
            best_pt = block[i].copy()
    return best_pt, best_val


def oracle_prox_grid(reward, lam: float, y, C: float,
                     resolution: float) -> np.ndarray:
    """Dense-grid argmax of r(x) - lam ||x - y||^2 over B(C), followed by
    one local refinement pass at a tenth of the resolution.

    ``y`` is a point (d,) or a batch (n, d) answered row by row; the rows
    of a batch share one reward evaluation on the grid.  Low-rank rewards
    are reduced to their rank-r coordinates first (the orthogonal part only
    enters through the transport cost, so its optimum is the projection of
    y's orthogonal part onto the leftover radius); a full-space reward is
    the case U = V1 = I with no orthogonal part.  Effective search
    dimension must be at most 3.
    """
    y = np.asarray(y, dtype=float)
    ys = np.atleast_2d(y)

    if hasattr(reward, "A") and hasattr(reward, "f"):
        A = np.atleast_2d(np.asarray(reward.A, dtype=float))
        U_full, svals, Vt = np.linalg.svd(A, full_matrices=True)
        r = int(np.sum(svals > max(A.shape) * np.finfo(float).eps * svals[0]))
        if r > 3:
            raise CapabilityError("effective dimension above 3")
        V1, V0 = Vt[:r].T, Vt[r:].T
        Ured = U_full[:, :r] * svals[:r]  # maps u to Ax

        def value(us):
            return np.asarray(reward.f.value(us @ Ured.T), dtype=float)
    else:
        r = ys.shape[1]
        if r > 3:
            raise CapabilityError("dimension above 3 for full-space grid search")
        V1, V0 = np.eye(r), np.zeros((r, 0))

        def value(us):
            return np.asarray(reward.value(us), dtype=float)

    def leftover(us):  # radius left for the orthogonal part
        return np.sqrt(np.maximum(C**2 - np.sum(us**2, axis=1), 0.0))

    # the y-free terms of every grid point, computed once for all ys
    grid = _anchored_ball_grid(r, C, resolution)
    grid_f = np.concatenate([value(grid[s:s + GRID_CHUNK])
                             for s in range(0, len(grid), GRID_CHUNK)])
    grid_rho = leftover(grid)
    xs = []
    for yi in ys:
        u_y = V1.T @ yi
        w_y = V0.T @ yi
        w_norm = float(np.linalg.norm(w_y))

        def phi(us, fv, rh):
            pen = np.maximum(w_norm - rh, 0.0) ** 2
            return fv - lam * (np.sum((us - u_y) ** 2, axis=1) + pen)

        best_u, _ = _chunked_argmax(
            grid, lambda us, rows: phi(us, grid_f[rows], grid_rho[rows]))
        best_u, _ = _refine(
            best_u, lambda us, _: phi(us, value(us), leftover(us)),
            resolution, C, r)
        rho = float(np.sqrt(max(C**2 - best_u @ best_u, 0.0)))
        w = w_y if w_norm <= rho else w_y * (rho / max(w_norm, 1e-300))
        xs.append(V1 @ best_u + V0 @ w)
    return np.reshape(xs, y.shape)


def _refine(center, objective, resolution, C, dim):
    offsets = (resolution / 10.0) * np.arange(-10, 11)
    grids = np.meshgrid(*([offsets] * dim), indexing="ij")
    local = center + np.stack([g.ravel() for g in grids], axis=1)
    local = project_ball(local, C)
    return _chunked_argmax(local, objective)


# ---------------------------------------------------------------------------
# 1D quadrature tilt (ground truth for continuous bases)
# ---------------------------------------------------------------------------

class QuadratureTilt1D:
    """Exponential tilt of a 1D continuous base computed on a dense grid:
    density ~ p(x) exp(r(x)) with trapezoid normalization, inverse-CDF
    sampling, and quantile access for ground-truth comparisons."""

    def __init__(self, model, reward=None):
        if model.d != 1:
            raise CapabilityError("quadrature tilt is 1D only")
        C = model.support_radius
        self.grid = np.linspace(-C, C, QUADRATURE_GRID)
        log_dens = model.log_density(self.grid[:, None])
        if reward is not None:
            log_dens = log_dens + np.asarray(reward.value(self.grid[:, None]),
                                             dtype=float)
        log_dens -= log_dens.max()
        dens = np.exp(log_dens)
        dx = self.grid[1] - self.grid[0]
        mids = 0.5 * (dens[1:] + dens[:-1]) * dx
        total = mids.sum()
        self.density = dens / total
        cdf = np.concatenate([[0.0], np.cumsum(mids) / total])
        cdf[-1] = 1.0
        self.cdf = cdf

    def ppf(self, q):
        return np.interp(q, self.cdf, self.grid)

    def sample(self, n: int, rng) -> np.ndarray:
        return self.ppf(rng.random(n))

    def mass_above(self, x0: float) -> float:
        return 1.0 - float(np.interp(x0, self.grid, self.cdf))

    def mean(self) -> float:
        mids = 0.5 * (self.grid[1:] + self.grid[:-1])
        dmass = np.diff(self.cdf)
        return float(np.sum(mids * dmass))
