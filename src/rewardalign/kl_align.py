"""KL alignment for convex low-dimensional rewards r(x) = f(Ax).

Pipeline: cover the projected ball with an h-net, build a log-sum-exp
upper envelope of f from supporting hyperplanes, keep one piece per
distinct hyperplane slope (the largest offset), sample the envelope tilt
as a mixture of linear tilts, and correct to the target by rejection with
acceptance exp(f - G).  The sandwich f <= G <= f + 1 + log m', the
acceptance floor and the rejection budget all follow the number m' of
pieces kept, not the number of net points.  Candidates come as one
i.i.d. stream, drawn in passes sized by the acceptance floor; output
slots take them in order.  Each slot gets at most N_rej candidates and
then falls back to a base sample, so the work is bounded by n * N_rej
candidates.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (BudgetError, EnvelopeViolationError, ValidationError,
                     finite)
from .models import (DiscreteModel, Model, SampleBatch, _logsumexp,
                     _rng_from, _seed_tag, check_count, recommended_steps,
                     sample_exact)
# bound though unused here: bench/tracer.py wraps it in this module by name
from .models import sample_via_diffusion  # noqa: F401
from .rewards import LowDimFunction, first_order
from .tilts import estimate_normalizer, sample_linear_tilt, tilt_exact

NET_CARDINALITY_CAP = 1_000_000

# Scores per block in Envelope.value (128 KiB of float64, inside L2, reused
# by the allocator from block to block).  A block of at least m rows
# (m <= 128) is piece-major; the two layouts measured even near m = 180.
# A block holds at least ENVELOPE_MIN_ROWS rows, so at large m the
# per-block Python cost stays small against its exponentials.
ENVELOPE_BLOCK = 16384
ENVELOPE_MIN_ROWS = 16


@dataclass(frozen=True)
class Net:
    """Finite covering of the ball B_k(R): every ball point is within h of
    a net point."""

    points: np.ndarray  # (m, k)

    @property
    def m(self) -> int:
        return self.points.shape[0]


def build_net(k: int, R: float, h: float) -> Net:
    """Axis-aligned grid with spacing 2h/sqrt(k) over [-R, R]^k, keeping
    in-ball lattice points and radial projections of boundary-adjacent
    ones.  Projection onto the ball is nonexpansive, so the covering
    radius stays <= h.  Raises BudgetError beyond NET_CARDINALITY_CAP
    lattice points.

    Points are rounded to 12 decimals and put in lexicographic order, and
    a point equal to the one before it is dropped, so a projection that
    meets another point is kept once.
    """
    if not (k >= 1 and 0 < h < np.inf and 0 <= R < np.inf):
        raise ValidationError(f"need k >= 1, finite h > 0, R >= 0: {k, h, R}")
    if R == 0:
        return Net(points=np.zeros((1, k)))

    s = 2.0 * h / np.sqrt(k)
    n_side = int(np.floor((R + s / 2.0) / s))
    ticks = s * np.arange(-n_side, n_side + 1)
    predicted = len(ticks) ** k
    if predicted > NET_CARDINALITY_CAP:
        raise BudgetError(
            f"net would have {predicted} lattice points "
            f"(cap {NET_CARDINALITY_CAP}); "
            f"reduce LR or the dimension k")

    grids = np.meshgrid(*([ticks] * k), indexing="ij", copy=False)
    lattice = np.stack(grids, axis=-1).reshape(-1, k)
    norms = np.linalg.norm(lattice, axis=1)

    inside = lattice[norms <= R]
    near = (norms > R) & (norms - R <= h)
    projected = lattice[near] * (R / norms[near])[:, None]
    points = np.vstack([inside, projected])
    # only the rows and their sorted copy need to be alive at the sort
    del lattice, norms, near, inside, projected
    np.round(points, 12, out=points)
    points = points[np.lexsort(points.T[::-1])]
    fresh = np.ones(len(points), dtype=bool)
    fresh[1:] = np.any(points[1:] != points[:-1], axis=1)
    return Net(points=points[fresh])


@dataclass(frozen=True)
class Envelope:
    """Log-sum-exp upper envelope G(u) = 1 + log sum_i exp(b_i + <z_i, u>)
    built from supporting hyperplanes; satisfies f <= G <= f + 1 + log m
    on the net's ball.  ``sample_kl_aligned`` keeps one net piece per
    distinct slope, so there the bounds hold with m' <= m pieces."""

    slopes: np.ndarray   # (m, k)
    offsets: np.ndarray  # (m,)

    def __post_init__(self):
        slopes = np.atleast_2d(finite("envelope slopes", self.slopes))
        offsets = finite("envelope offsets", self.offsets)
        m = len(slopes)
        if slopes.ndim != 2 or offsets.shape != (m,) or m == 0:
            raise ValidationError("an envelope needs slopes (m, k) and "
                                  "offsets (m,), m >= 1")
        object.__setattr__(self, "slopes", slopes)
        object.__setattr__(self, "offsets", offsets)

    @property
    def m(self) -> int:
        return self.slopes.shape[0]

    @property
    def gap_bound(self) -> float:
        """B = 1 + log m."""
        return 1.0 + float(np.log(self.m))

    @property
    def acceptance_floor(self) -> float:
        """a0 = exp(-B)."""
        return float(np.exp(-self.gap_bound))

    def value(self, u: np.ndarray) -> np.ndarray:
        """G at a point (k,) or a batch (n, k).

        Rows go in blocks of about ``ENVELOPE_BLOCK`` scores, so the score
        array stays cache-sized.  A block of at least m rows is piece-major,
        (m, rows), and otherwise row-major, (rows, m): the max, exp, sum and
        log run along its longer axis, which numpy reduces fastest."""
        u = np.asarray(u, dtype=float)
        rows = np.atleast_2d(u)
        out = np.empty(rows.shape[0])
        step = max(ENVELOPE_MIN_ROWS, ENVELOPE_BLOCK // self.m)
        axis = 0 if step >= self.m else 1
        offsets = self.offsets[:, None] if axis == 0 else self.offsets
        for s in range(0, rows.shape[0], step):
            scores = (self.slopes @ rows[s:s + step].T if axis == 0
                      else rows[s:s + step] @ self.slopes.T)
            scores += offsets
            top = scores.max(axis=axis, keepdims=True)
            scores -= top
            np.exp(scores, out=scores)
            out[s:s + step] = (1.0 + top.ravel()
                               + np.log(scores.sum(axis=axis)))
        return float(out[0]) if u.ndim == 1 else out

    def to_dict(self) -> dict:
        return {"slopes": self.slopes.tolist(),
                "offsets": self.offsets.tolist(),
                "m": self.m, "gap_bound": self.gap_bound}

    @classmethod
    def from_pieces(cls, slopes, offsets) -> "Envelope":
        """Envelope with explicitly given pieces (e.g. the exact pieces of
        a log-sum-exp reward)."""
        return cls(slopes=slopes, offsets=offsets)


def _collapse_net_pieces(env: Envelope) -> Envelope:
    """One piece per distinct slope (exact bytes), with the largest offset
    of its group, groups in first-occurrence order.

    Valid for supporting hyperplanes only: each is <= f, and the kept piece
    dominates the ones it replaces, so f <= G' <= f + 1 + log m' still
    holds.  Same-slope offsets from the net differ by rounding alone.  An
    envelope with distinct slopes comes back as it is."""
    rows = np.ascontiguousarray(env.slopes)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1])))
    _, first, group = np.unique(keys.ravel(), return_index=True,
                                return_inverse=True)
    if first.size == env.m:
        return env
    top = np.full(first.size, -np.inf)
    np.maximum.at(top, group, env.offsets)
    order = np.argsort(first)
    return Envelope(slopes=env.slopes[first[order]], offsets=top[order])


def build_envelope(f: LowDimFunction, net: Net) -> Envelope:
    """One batch first-order oracle call on the whole net; piece i is the
    supporting hyperplane at net point i."""
    vals, slopes = first_order(f, net.points)
    offsets = vals - np.einsum("ij,ij->i", slopes, net.points)
    return Envelope(slopes=slopes, offsets=offsets)


@dataclass(frozen=True)
class Alg1Params:
    """Derived parameter schedule for the rejection sampler."""

    h: float
    m: int
    B: float
    a0: float
    L_a: float
    rho: float
    eps_lin: float
    eta: float
    N_rej: int

    def to_dict(self) -> dict:
        return {"h": self.h, "m": self.m, "B": self.B, "a0": self.a0,
                "L_a": self.L_a, "rho": self.rho, "eps_lin": self.eps_lin,
                "eta": self.eta, "N_rej": self.N_rej}


def compute_params(L: float, A_opnorm: float, C: float, m: int,
                   eps: float) -> Alg1Params:
    """Parameter block: gap bound, acceptance floor, perturbation budget
    rho, per-tilt sampling accuracy, normalizer accuracy, and the per-slot
    candidate budget N_rej = ceil(2/a0 * log(16 C^2 / eps^2))."""
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must be in (0,1)")
    if m < 1:
        raise ValidationError("m must be >= 1")
    B = 1.0 + np.log(m)
    a0 = float(np.exp(-B))
    L_a = 2.0 * L * A_opnorm
    rho = min(eps**2 * a0 / (32.0 * C * (1.0 + 2.0 * C * L_a)),
              a0 / (4.0 * max(1.0, L_a)))
    eta = min(0.5, rho**2 / (128.0 * C**2))
    N_rej = int(np.ceil((2.0 / a0) * np.log(16.0 * C**2 / eps**2)))
    h = np.inf if L == 0 else 1.0 / (2.0 * L)
    return Alg1Params(h=h, m=m, B=float(B), a0=a0, L_a=L_a, rho=float(rho),
                      eps_lin=float(rho / 2.0), eta=float(eta), N_rej=N_rej)


@dataclass(frozen=True)
class MixtureProposal:
    """Envelope tilt realized as a mixture of linear tilts: tilt vectors
    v_i = A' z_i, normalizer estimates (NaN for the one tilt of a one-piece
    envelope, which needs none), and stability-safe weights
    pi_i ~ w_i Zhat_i computed in log space."""

    tilt_vectors: np.ndarray  # (m, d)
    log_zhat: np.ndarray      # (m,)
    log_pi: np.ndarray        # (m,)

    @property
    def pi(self) -> np.ndarray:
        p = np.exp(self.log_pi)
        return p / p.sum()

    @property
    def m(self) -> int:
        return self.tilt_vectors.shape[0]


def build_proposal(base: Model, env: Envelope, A, eta: float, delta: float,
                   seed=None, backend: str = "exact") -> MixtureProposal:
    """Estimate every tilt normalizer, in one call with per-row failure
    budget delta/m, and normalize the weights in log space.  One piece
    (m = 1) has pi = 1 whatever Zhat is: no estimate is made, and
    ``log_zhat`` is NaN."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    vs = env.slopes @ A  # (m, d): rows are A' z_i
    if env.m == 1:
        return MixtureProposal(tilt_vectors=vs, log_zhat=np.full(1, np.nan),
                               log_pi=np.zeros(1))
    log_zhat = estimate_normalizer(base, vs, eta=max(eta, 1e-12),
                                   delta=delta / env.m, seed=seed,
                                   backend=backend).log_value
    logits = env.offsets + log_zhat
    log_pi = logits - _logsumexp(logits)
    return MixtureProposal(tilt_vectors=vs, log_zhat=log_zhat, log_pi=log_pi)


def proposal_law_discrete(base: DiscreteModel, env: Envelope,
                          A) -> DiscreteModel:
    """The exact mixture law sum_i pi_i * tilt(base, v_i) on a discrete
    base, with exact normalizers (used to check the mixture identity)."""
    # the exact backend uses eta and delta only to validate them
    p = build_proposal(base, env, A, eta=0.5, delta=0.5)
    return tilt_exact(base, p.tilt_vectors, p.log_pi)


@dataclass
class KLAlignResult:
    """Samples and counters of one ``sample_kl_aligned`` call.

    ``proposal_draws`` counts the candidates up to the end of the last
    served slot; the discarded tail of the last pass is not in it.
    ``passes`` counts proposal draws of a whole pass each.
    ``envelope`` is the envelope the sampler used: on the net path, one
    piece per distinct slope out of ``net_pieces`` net pieces; an explicit
    envelope as given (``net_pieces`` is then its own ``m``).
    """

    batch: SampleBatch
    params: Alg1Params
    envelope: Envelope
    proposal: MixtureProposal
    acceptance_rate: float
    fallback_count: int
    proposal_draws: int
    used_base_shortcut: bool = False
    backend: str = "exact"
    diffusion_steps: int = 0
    eta_used: float = 0.0
    passes: int = 0  # proposal passes (reverse passes on diffusion)
    net_pieces: int = 0  # envelope pieces before the per-slope collapse

    def report(self) -> dict:
        rep = {"acceptance_rate": self.acceptance_rate,
               "fallback_count": self.fallback_count,
               "proposal_draws": self.proposal_draws,
               "passes": self.passes,
               "used_base_shortcut": self.used_base_shortcut,
               "backend": self.backend}
        if self.backend == "diffusion":
            rep["diffusion_steps"] = self.diffusion_steps
        if self.params is not None:
            # the base shortcut and a one-piece envelope estimate none
            if self.backend == "diffusion" and self.proposal.m > 1:
                rep["eta_used"] = self.eta_used
                rep["normalizer"] = "mc, exact base draws"
            rep["net_pieces"] = self.net_pieces
            rep.update(self.params.to_dict())
        return rep


def _log_acceptance(f: LowDimFunction, envelope: Envelope,
                    u: np.ndarray) -> np.ndarray:
    """Log acceptance f(u) - G(u) at projected points u (n, k); at most 0
    unless the envelope fails to dominate f."""
    log_a = np.asarray(f.value(u), dtype=float) - envelope.value(u)
    if np.any(log_a > 1e-9):
        raise EnvelopeViolationError(
            f"acceptance exp({log_a.max():.3e}) above 1: envelope does "
            f"not dominate the reward (broken oracle?)")
    return log_a


def _serve(ok: np.ndarray, carry: int, N_rej: int, slots: int):
    """Walk one pass of accept flags as a candidate stream for ``slots``
    waiting slots, the head one having already rejected ``carry``
    (0 <= carry < N_rej; N_rej >= 1).

    An accept ends the current slot with that candidate; each run of N_rej
    rejects ends it with a fallback (-1).  Returns the outcomes of the
    slots served (at most ``slots``), the number of this pass's candidates
    they used, and the head slot's reject count for the next pass.
    """
    acc = np.flatnonzero(ok)
    # rejects before each accept, the head slot's carried ones included
    gaps = np.diff(acc, prepend=-1 - carry) - 1
    fallbacks = gaps // N_rej
    tail = ok.size - 1 - (acc[-1] if acc.size else -1 - carry)
    out = np.full(int(fallbacks.sum()) + acc.size + tail // N_rej, -1)
    out[np.cumsum(fallbacks + 1) - 1] = acc
    if out.size < slots:
        return out, ok.size, int(tail % N_rej)
    out = out[:slots]
    if out[-1] >= 0:
        return out, int(out[-1]) + 1, 0
    # the last slot ends at the N_rej-th reject of a run after an accept
    hits = np.flatnonzero(out >= 0)
    start = out[hits[-1]] if hits.size else -1 - carry
    runs = slots - 1 - (hits[-1] if hits.size else -1)
    return out, int(start + runs * N_rej) + 1, 0


def sample_kl_aligned(base: Model, A, f: LowDimFunction, eps: float,
                      delta: float, seed, n: int = 1,
                      backend: str = "exact",
                      envelope: Envelope = None) -> KLAlignResult:
    """Sample from the KL-aligned law q(x) ~ p(x) exp(f(Ax)) for convex f.

    Requires f flagged convex and L-Lipschitz on the projected ball of
    radius ||A||_op * C.  L = 0 short-circuits to base sampling.  An
    explicit ``envelope`` overrides the net construction (used when the
    reward is itself a log-sum-exp with known pieces) and is used as
    given; a net envelope keeps one piece per distinct slope.
    """
    if not f.convex:
        raise ValidationError("KL alignment requires a convex reward; "
                              "concave rewards are outside this sampler")
    if not (0.0 < eps < 1.0):
        raise ValidationError(f"eps must be in (0,1), got {eps}")
    if not (0.0 < delta < 1.0):
        raise ValidationError(f"delta must be in (0,1), got {delta}")
    if backend not in ("exact", "diffusion"):
        raise ValidationError(f"unknown KL backend {backend!r}")
    check_count(n)
    A = np.atleast_2d(finite("A", A))
    if A.shape != (f.k, base.d):
        raise ValidationError("A must be k x d")
    if envelope is not None and envelope.slopes.shape[1] != f.k:
        raise ValidationError(f"envelope slopes must have k = {f.k} "
                              f"columns, got {envelope.slopes.shape[1]}")
    rng = _rng_from(seed)
    C = base.support_radius
    L = f.lipschitz
    seed_tag = _seed_tag(seed)

    if L == 0 and envelope is None:
        batch = sample_linear_tilt(base, None, eps, rng, backend, n=n)
        batch = SampleBatch(points=batch.points, seed=seed_tag,
                            producer="kl_align/base_shortcut", d=base.d)
        return KLAlignResult(batch=batch, params=None, envelope=None,
                             proposal=None, acceptance_rate=1.0,
                             fallback_count=0, proposal_draws=n,
                             used_base_shortcut=True, backend=backend,
                             diffusion_steps=(0 if backend == "exact"
                                              else recommended_steps(eps, C)),
                             passes=1)

    op_norm = float(np.linalg.norm(A, 2))
    R = op_norm * C
    if envelope is None:
        net = build_net(f.k, R, 1.0 / (2.0 * L))
        envelope = build_envelope(f, net)
        net_pieces = envelope.m
        envelope = _collapse_net_pieces(envelope)
    else:
        net_pieces = envelope.m
    params = compute_params(L, op_norm, C, envelope.m, eps)
    # the schedule's eta is far below any Monte Carlo budget; the oracle-only
    # path floors it and records the substitution in the result
    eta_used = params.eta if backend == "exact" else max(params.eta, 0.05)
    proposal = build_proposal(base, envelope, A, eta=eta_used, delta=delta,
                              seed=rng, backend=("exact" if backend == "exact"
                                                 else "mc"))

    # draw(count) -> (candidates, their log acceptance); one vectorized
    # proposal draw per pass whatever the number of envelope pieces.  Atom
    # candidates are indices: only the ones a slot takes are gathered
    diff_steps = 0
    atoms = None
    if backend == "exact":
        # the proposal sum_i pi_i * tilt(base, v_i) as one model
        model = tilt_exact(base, proposal.tilt_vectors, proposal.log_pi)
        if isinstance(model, DiscreteModel):
            # exp(f - G) is a function of the atom alone
            atoms = model.atoms
            atom_log_a = _log_acceptance(f, envelope, atoms @ A.T)

            def draw(count):
                idx = rng.choice(model.n_atoms, size=count, p=model.probs)
                return idx, atom_log_a[idx]
        else:
            def draw(count):
                xs = sample_exact(model, count, rng).points
                return xs, _log_acceptance(f, envelope, xs @ A.T)
    else:
        # the theory-driven eps_lin can be far below what any discretization
        # reaches: the W2 target is floored at eps / 8 (24 C / eps steps)
        eps_draw = max(params.eps_lin, eps / 8.0)
        diff_steps = recommended_steps(eps_draw, C)
        pi = proposal.pi

        def draw(count):
            # one reverse pass; row j follows the tilt of its own piece
            comps = rng.choice(proposal.m, size=count, p=pi)
            xs = sample_linear_tilt(base, proposal.tilt_vectors[comps],
                                    eps_draw, rng, "diffusion", n=count,
                                    steps=diff_steps).points
            return xs, _log_acceptance(f, envelope, xs @ A.T)

    # slots done..n-1 wait in order; by the floor a pass of waiting/a0
    # candidates expects at least one accept per waiting slot.  A budget
    # N_rej <= 0 (C <= eps/4) draws no candidates: every slot falls back
    pts = np.empty((n, base.d))
    fell = np.ones(n, dtype=bool)
    done = carry = draws = passes = 0
    while done < n and params.N_rej > 0:
        count = min(int(np.ceil((n - done) / params.a0)), n)
        cand, log_a = draw(count)
        ok = np.log(rng.random(count)) < log_a
        outcome, used, carry = _serve(ok, carry, params.N_rej, n - done)
        hit = outcome >= 0
        taken = cand[outcome[hit]]
        pts[done:done + outcome.size][hit] = (taken if atoms is None
                                              else atoms[taken])
        fell[done:done + outcome.size] = ~hit
        # free this pass's candidates before the next draw makes its own
        del cand, log_a, ok
        done += outcome.size
        draws += used
        passes += 1

    fallback = int(fell.sum())
    if fallback:
        pts[fell] = sample_linear_tilt(base, None, eps, rng, backend,
                                       n=fallback).points

    batch = SampleBatch(points=pts, seed=seed_tag, producer="kl_align/alg1",
                        d=base.d)
    return KLAlignResult(batch=batch, params=params, envelope=envelope,
                         proposal=proposal,
                         acceptance_rate=(n - fallback) / max(draws, 1),
                         fallback_count=fallback, proposal_draws=draws,
                         backend=backend, diffusion_steps=diff_steps,
                         eta_used=eta_used, passes=passes,
                         net_pieces=net_pieces)

