"""KL alignment for convex low-dimensional rewards r(x) = f(Ax).

Pipeline: a log-sum-exp upper envelope G of f on the projected ball (f's
own pieces, f <= G <= f + log m'; for a black-box f, an h-net's raised
supporting hyperplanes, one per distinct slope, f <= G <= f + 1 + log m'),
the envelope tilt sampled as a mixture of linear tilts, and rejection with
acceptance exp(f - G).  The acceptance floor and the rejection budget
follow the number m' of pieces kept.  Candidates come as one
i.i.d. stream, drawn in passes sized by the acceptance floor; output
slots take them in order.  Each slot gets at most N_rej candidates and
then falls back to a base sample, so the work is bounded by n * N_rej
candidates.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (BudgetError, EnvelopeViolationError, ValidationError,
                     finite)
from .models import (DiscreteModel, Model, SampleBatch, _group_rows,
                     _logsumexp, _rng_from, _seed_tag, check_count, norms,
                     recommended_steps, sample_exact)
# bound though unused here: bench/tracer.py wraps it in this module by name
from .models import sample_via_diffusion  # noqa: F401
from .rewards import (AffinePieces, LowDimFunction, check_domain, first_order,
                      oracle_answer)
from .tilts import estimate_normalizer, sample_linear_tilt, tilt_exact

NET_CARDINALITY_CAP = 1_000_000


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


class Envelope(AffinePieces):
    """Log-sum-exp upper envelope G(u) = log sum_i exp(b_i + <z_i, u>): its
    pieces alone; ``gap_bound`` and ``compute_params`` give its bounds."""

    what = "envelope"
    value = AffinePieces.log_sum_exp  # G, by the name bench/tracer.py wraps

    def to_dict(self) -> dict:
        return {"slopes": self.slopes.tolist(),
                "offsets": self.offsets.tolist(), "m": self.m}

    @classmethod
    def from_pieces(cls, slopes, offsets) -> "Envelope":
        """The envelope of explicitly given pieces, used as given."""
        return cls(slopes=slopes, offsets=offsets)


def _collapse_net_pieces(env: Envelope) -> Envelope:
    """One piece per distinct slope (exact bytes), with the largest offset
    of its group, groups in first-occurrence order.

    Valid for net pieces only: each is <= f + 1, and the kept piece
    dominates the ones it replaces, so f <= G' <= f + 1 + log m' still
    holds.  Same-slope offsets from the net differ by rounding alone.  An
    envelope with distinct slopes comes back as it is."""
    first, group = _group_rows(env.slopes)
    if first.size == env.m:
        return env
    top = np.full(first.size, -np.inf)
    np.maximum.at(top, group, env.offsets)
    order = np.argsort(first)
    return Envelope(slopes=env.slopes[first[order]], offsets=top[order])


def build_envelope(f: LowDimFunction, net: Net) -> Envelope:
    """One batch first-order oracle call on the whole net; piece i is the
    supporting hyperplane at net point i raised by the covering slack
    2Lh = 1 (h = 1/(2L)), so f <= G <= f + 1 + log m on the net's ball."""
    vals, slopes = first_order(f, net.points)
    offsets = vals - np.einsum("ij,ij->i", slopes, net.points) + 1.0
    return Envelope(slopes=slopes, offsets=offsets)


def own_envelope(f: LowDimFunction, R: float) -> Envelope:
    """The envelope of an f with pieces on B(R), from ``f.pieces`` alone:
    every piece of a log-sum-exp f (G = f), and every piece of a max-affine
    f that no other piece tops on all of B(R'), R' = R (1 + 1e-9), where
    piece j tops piece i iff b_j - b_i >= R' ||z_j - z_i||; of pieces that
    top each other the first is kept.  The kept pieces have f's max on
    B(R'), so there f <= G <= f + log m'.  R' covers the candidates that
    leave B(R) by rounding (atoms up to C (1 + 1e-12), ||A|| itself)."""
    p = f.pieces
    if f.reduction == "logsumexp":
        return Envelope(slopes=p.slopes, offsets=p.offsets)
    keep = np.ones(p.m, dtype=bool)
    for i in range(p.m):
        reach = R * (1.0 + 1e-9) * norms(p.slopes - p.slopes[i])
        topped = p.offsets - p.offsets[i] >= reach
        # a later piece tops i only if i does not top it back
        topped[i:] &= p.offsets[i] - p.offsets[i:] < reach[i:]
        keep[i] = not topped.any()
    return Envelope(slopes=p.slopes[keep], offsets=p.offsets[keep])


def gap_bound(m: int) -> float:
    """B = 1 + log m, the most an m-piece net envelope exceeds f by; the
    acceptance floor is a0 = exp(-B)."""
    return 1.0 + float(np.log(m))


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


def compute_params(L: float, A_opnorm: float, C: float, m: int,
                   eps: float) -> Alg1Params:
    """Parameter block: gap bound, acceptance floor, perturbation budget
    rho, per-tilt sampling accuracy, normalizer accuracy, and the per-slot
    candidate budget N_rej = ceil(2/a0 * log(16 C^2 / eps^2))."""
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must be in (0,1)")
    if m < 1:
        raise ValidationError("m must be >= 1")
    B = gap_bound(m)
    a0 = float(np.exp(-B))
    L_a = 2.0 * L * A_opnorm
    rho = min(eps**2 * a0 / (32.0 * C * (1.0 + 2.0 * C * L_a)),
              a0 / (4.0 * max(1.0, L_a)))
    eta = min(0.5, rho**2 / (128.0 * C**2))
    N_rej = int(np.ceil((2.0 / a0) * np.log(16.0 * C**2 / eps**2)))
    h = np.inf if L == 0 else 1.0 / (2.0 * L)
    return Alg1Params(h=h, m=m, B=B, a0=a0, L_a=L_a, rho=float(rho),
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
    ``envelope`` is the envelope the sampler used: for a black-box f, one
    piece per distinct slope out of ``net_pieces`` net pieces; else
    ``net_pieces`` is its own ``m``.
    """

    batch: SampleBatch
    params: Alg1Params
    envelope: Envelope
    proposal: MixtureProposal
    fallback_count: int
    proposal_draws: int
    backend: str = "exact"
    diffusion_steps: int = 0
    eta_used: float = 0.0
    passes: int = 0  # proposal passes (reverse passes on diffusion)
    net_pieces: int = 0  # envelope pieces before a net's per-slope collapse

    @property
    def acceptance_rate(self) -> float:
        """Slots served by an accepted candidate per candidate drawn."""
        return (len(self.batch) - self.fallback_count) / max(
            self.proposal_draws, 1)

    @property
    def used_base_shortcut(self) -> bool:
        """A reward with L = 0 is the base itself: no schedule was made."""
        return self.params is None

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
                rep["normalizer"] = "mc, exact draws"
            rep["net_pieces"] = self.net_pieces
            rep.update(asdict(self.params))
        return rep


def _log_acceptance(f: LowDimFunction, envelope: Envelope,
                    u: np.ndarray) -> np.ndarray:
    """Log acceptance f(u) - G(u) at projected points u (n, k); at most 0
    unless the envelope fails to dominate f."""
    log_a = oracle_answer(f.value(u), len(u)) - envelope.value(u)
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
    radius R = ||A||_op * C.  L = 0 short-circuits to base sampling.  The
    envelope is ``envelope`` exactly as given, else ``own_envelope(f, R)``
    for an f with pieces, else (a black box) the net envelope with one
    piece per distinct slope.
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
                             proposal=None, fallback_count=0,
                             proposal_draws=n, backend=backend,
                             diffusion_steps=(0 if backend == "exact"
                                              else recommended_steps(eps, C)),
                             passes=1)

    op_norm = float(np.linalg.norm(A, 2))
    R = op_norm * C
    check_domain(f, R)
    if envelope is None and f.pieces is None:
        envelope = build_envelope(f, build_net(f.k, R, 1.0 / (2.0 * L)))
        net_pieces = envelope.m
        envelope = _collapse_net_pieces(envelope)
    else:
        envelope = own_envelope(f, R) if envelope is None else envelope
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
        done += outcome.size
        # free this pass's candidates before the next draw makes its own
        del cand, log_a, ok, outcome, hit, taken
        draws += used
        passes += 1

    fallback = int(fell.sum())
    if fallback:
        pts[fell] = sample_linear_tilt(base, None, eps, rng, backend,
                                       n=fallback).points

    batch = SampleBatch(points=pts, seed=seed_tag, producer="kl_align/alg1",
                        d=base.d)
    return KLAlignResult(batch=batch, params=params, envelope=envelope,
                         proposal=proposal, fallback_count=fallback,
                         proposal_draws=draws,
                         backend=backend, diffusion_steps=diff_steps,
                         eta_used=eta_used, passes=passes,
                         net_pieces=net_pieces)

