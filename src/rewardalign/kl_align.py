"""KL alignment for convex low-dimensional rewards r(x) = f(Ax).

Pipeline: a log-sum-exp upper envelope G of f on the projected ball (f's
own pieces, f <= G <= f + log m'; for a black-box f, an h-net's raised
supporting hyperplanes, one per distinct slope, f <= G <= f + 1 + log m'),
the envelope tilt sampled as a mixture of linear tilts, and rejection with
acceptance exp(f - G).  The acceptance floor and the rejection budget follow
the number m' of pieces kept (``compute_params``: m', B, a0 and N_rej are
the schedule).  Each slot gets at most N_rej candidates and then falls back
to a base sample, drawn to the candidates' accuracy.  On a mixture or the
diffusion backend, candidates come as one i.i.d. stream, drawn in passes
sized by the acceptance floor and capped at ROW_BLOCK rows; output slots
take them in order, so the work is bounded by n * N_rej candidates, and the
last pass overshoots by at most one block.  On an atom set the acceptance is
a function of the atom, so the slots are drawn from their law in closed
form: each slot's candidate count up to its first accept is one
Geometric(alpha) draw, alpha = sum_j q_j exp(f_j - G_j), capped at N_rej,
and the accepted slots take one draw from q exp(f - G) / alpha.  The work is
O(n) whatever the acceptance, and no rejected candidate is drawn.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import (BudgetError, EnvelopeViolationError, ValidationError,
                     finite)
from .models import (ROW_BLOCK, DiscreteModel, Model, SampleBatch,
                     ScoreOracle, _group_rows, _logsumexp, _rng_from,
                     _seed_tag, check_count, closed_form, norms,
                     recommended_steps, sample_exact)
# bound though unused here: bench/tracer.py wraps it in this module by name
from .models import sample_via_diffusion  # noqa: F401
from .rewards import (AffinePieces, LowDimFunction, check_domain, first_order,
                      oracle_answer)
from .tilts import estimate_normalizer, sample_linear_tilt, tilt_exact

NET_CARDINALITY_CAP = 1_000_000

# Relative accuracy eta of the normalizers path-sampled on a ScoreOracle
PATH_SAMPLING_ETA = 0.05


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
    meets another point is kept once.  At k = 0, R = 0 or h = inf the net
    is the origin alone.  No other code refuses a net for its size.
    """
    if not (k >= 0 and h > 0 and 0 <= R < np.inf):
        raise ValidationError(f"need k >= 0, h > 0, finite R >= 0: {k, h, R}")
    if k == 0 or R == 0 or h == np.inf:
        return Net(points=np.zeros((1, k)))

    s = 2.0 * h / np.sqrt(k)
    # counted in floats before any allocation: a count past the float max
    # is inf, and refused like any count over the cap
    with np.errstate(over="ignore"):
        n_side = np.floor((R + s / 2.0) / s)
        predicted = (2.0 * n_side + 1.0) ** k
    if not predicted <= NET_CARDINALITY_CAP:
        raise BudgetError(
            f"net would have {predicted:.6g} lattice points "
            f"(cap {NET_CARDINALITY_CAP}) at k = {k}, R = {R:.6g}, "
            f"h = {h:.6g}")
    ticks = s * np.arange(-int(n_side), int(n_side) + 1)

    grids = np.meshgrid(*([ticks] * k), indexing="ij", copy=False)
    lattice = np.stack(grids, axis=-1).reshape(-1, k)
    radii = np.linalg.norm(lattice, axis=1)

    inside = lattice[radii <= R]
    near = (radii > R) & (radii - R <= h)
    projected = lattice[near] * (R / radii[near])[:, None]
    points = np.vstack([inside, projected])
    # only the rows and their sorted copy need to be alive at the sort
    del lattice, radii, near, inside, projected
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
        with np.errstate(over="ignore"):  # a reach past the float max: inf
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
    """The rejection sampler's schedule, the four numbers it reads: m
    pieces, gap bound B, acceptance floor a0 = exp(-B) and per-slot budget
    N_rej.  Every field finite, checked here; N_rej is then an int."""

    m: int
    B: float
    a0: float
    N_rej: int

    def __post_init__(self):
        finite(f"the KL schedule {self}", list(vars(self).values()))
        object.__setattr__(self, "N_rej", int(self.N_rej))


def compute_params(C: float, m: int, eps: float) -> Alg1Params:
    """The schedule of an m-piece envelope on the ball of radius C: gap
    bound B = 1 + log m, acceptance floor a0 = exp(-B), and the per-slot
    candidate budget N_rej = ceil(2/a0 * log(16 C^2 / eps^2)), taken as
    ceil(2/a0 * 2 log(4 C / eps)).  A subnormal eps puts 4 / eps, and so
    N_rej, past the float max: inf, which Alg1Params refuses."""
    if not (0.0 < eps < 1.0):
        raise ValidationError("eps must be in (0,1)")
    if m < 1:
        raise ValidationError("m must be >= 1")
    B = gap_bound(m)
    a0 = float(np.exp(-B))
    N_rej = np.ceil((2.0 / a0) * 2.0 * (np.log(4.0 / eps) + np.log(C)))
    return Alg1Params(m=m, B=B, a0=a0, N_rej=N_rej)


@dataclass(frozen=True)
class MixtureProposal:
    """Envelope tilt realized as a mixture of linear tilts: tilt vectors
    v_i = A' z_i, normalizer estimates and their method (NaN and "" for the
    one tilt of a one-piece envelope, which needs none), stability-safe
    weights pi_i ~ w_i Zhat_i computed in log space, and ``law``, the
    mixture sum_i pi_i * tilt(base, v_i) as one model (None on diffusion)."""

    tilt_vectors: np.ndarray  # (m, d)
    log_zhat: np.ndarray      # (m,)
    log_pi: np.ndarray        # (m,)
    normalizer: str = ""
    law: Model = None

    @property
    def m(self) -> int:
        return self.tilt_vectors.shape[0]


def build_proposal(base: Model, env: Envelope, A, delta: float, seed=None,
                   backend: str = "exact") -> MixtureProposal:
    """Estimate every tilt normalizer in one call (failure budget delta/m
    per row), in closed form or by path sampling on a ScoreOracle at
    relative accuracy PATH_SAMPLING_ETA, and normalize the weights in log
    space.  One piece (m = 1) has pi = 1: no estimate, NaN ``log_zhat``.
    On exact a ScoreOracle is refused first, and the mixture is built
    once, ``law = tilt_exact(base, V, log_pi)``."""
    if backend == "exact":
        closed_form(base)
    A = np.atleast_2d(np.asarray(A, dtype=float))
    vs = env.slopes @ A  # (m, d): rows are A' z_i
    log_zhat, log_pi, method = np.full(1, np.nan), np.zeros(1), ""
    if env.m > 1:
        est = estimate_normalizer(
            base, vs, eta=PATH_SAMPLING_ETA, delta=delta / env.m, seed=seed,
            backend="mc" if isinstance(base, ScoreOracle) else "exact")
        logits = env.offsets + est.log_value
        log_zhat, method = est.log_value, est.method
        log_pi = logits - _logsumexp(logits)
    law = tilt_exact(base, vs, log_pi) if backend == "exact" else None
    return MixtureProposal(tilt_vectors=vs, log_zhat=log_zhat, log_pi=log_pi,
                           normalizer=method, law=law)


@dataclass
class KLAlignResult:
    """Samples and counters of one ``sample_kl_aligned`` call.

    ``proposal_draws`` counts the candidates up to the end of the last
    served slot; the discarded tail of the last pass is not in it.  On an
    atom set it is sum min(G, N_rej) over the slots' trial counts G.
    ``passes`` counts proposal draws of a whole pass each; on an atom set
    it is 1 (0 when N_rej <= 0).
    ``envelope`` is the envelope the sampler used: for a black-box f, one
    piece per distinct slope out of ``net_pieces`` net pieces; else
    ``net_pieces`` is its own ``m``.  ``params``, ``envelope`` and
    ``proposal`` are set on every call, a constant reward's included.
    ``diffusion_steps`` (0 on exact) is the step count of every candidate
    and fallback pass (normalizers size their own); ``report()`` gives
    ``eta`` only where path sampling ran.
    """

    batch: SampleBatch
    params: Alg1Params
    envelope: Envelope
    proposal: MixtureProposal
    fallback_count: int
    proposal_draws: int
    backend: str = "exact"
    diffusion_steps: int = 0
    passes: int = 0  # proposal passes (reverse passes on diffusion)
    net_pieces: int = 0  # envelope pieces before a net's per-slope collapse

    @property
    def acceptance_rate(self) -> float:
        """Slots served by an accepted candidate per candidate drawn."""
        return (len(self.batch) - self.fallback_count) / max(
            self.proposal_draws, 1)

    def report(self) -> dict:
        rep = {"acceptance_rate": self.acceptance_rate,
               "fallback_count": self.fallback_count,
               "proposal_draws": self.proposal_draws,
               "passes": self.passes,
               "backend": self.backend}
        if self.backend == "diffusion":
            rep["diffusion_steps"] = self.diffusion_steps
        if self.proposal.normalizer.startswith("mc"):  # path sampling ran
            rep["eta"] = PATH_SAMPLING_ETA
            rep["normalizer"] = self.proposal.normalizer
        return {**rep, "net_pieces": self.net_pieces, **asdict(self.params)}


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


def _geometric_slots(log_alpha: float, n: int, N_rej: int, rng):
    """Slot outcomes of n slots that each take i.i.d. candidates, accepted
    with probability alpha = exp(log_alpha), up to the first accept or
    N_rej rejects (N_rej >= 1): the slots that fell back, and the
    candidates spent, sum min(G, N_rej).

    A slot's trial count G ~ Geometric(alpha) is drawn by inverse CDF from
    one uniform u on (0, 1]: G = floor(log u / log(1 - alpha)) + 1, and the
    slot falls back iff u <= (1 - alpha)^N_rej.  alpha is taken as at most
    1 (f - G may round up to 1e-9 above 0); at alpha = 1 every slot takes
    its first candidate, and at alpha = 0 (an underflow) every slot falls
    back, with no division by log(1 - alpha) = 0.
    """
    with np.errstate(divide="ignore"):  # alpha = 1: log 0 = -inf
        log_miss = np.log1p(-min(1.0, float(np.exp(log_alpha))))
    log_u = np.log1p(-rng.random(n))  # finite: a uniform of 0 is u = 1
    fell = log_u <= N_rej * log_miss
    if fell.all():  # so at alpha = 0, where log(1 - alpha) = 0
        return fell, N_rej * n
    # min(G, N_rej) - 1 per slot; a fallen slot's G - 1 may pass the
    # float max, and rounding may put an accepted slot's at N_rej
    with np.errstate(over="ignore"):
        spent = np.minimum(np.floor(log_u / log_miss), N_rej - 1).sum()
    return fell, int(spent) + n


def sample_kl_aligned(base: Model, A, f: LowDimFunction, eps: float,
                      delta: float, seed, n: int = 1,
                      backend: str = "exact",
                      envelope: Envelope = None) -> KLAlignResult:
    """Sample from the KL-aligned law q(x) ~ p(x) exp(f(Ax)) for convex f.

    Requires f flagged convex and L-Lipschitz on the projected ball of
    radius R = ||A||_op * C.  Every call takes one path: envelope, schedule
    (``compute_params``), proposal (its normalizers follow the base, not
    ``backend``: ``build_proposal``), rejection, fallback.  Every draw
    targets W2 eps / 8: on diffusion, one step count for every pass.  The
    envelope is ``envelope`` exactly as given, else ``own_envelope(f, R)``
    for an f with pieces, else (a black box) the net envelope of spacing
    h = 1/(2L) with one piece per distinct slope; at L = 0, h = inf and the
    net is the origin.  A constant f thus has a one-piece envelope.
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
    R = float(np.linalg.norm(A, 2)) * C
    check_domain(f, R)
    if envelope is None and f.pieces is None:
        with np.errstate(divide="ignore", over="ignore"):  # L = 0: h = inf
            h = 1.0 / (2.0 * np.float64(f.lipschitz))
        envelope = build_envelope(f, build_net(f.k, R, h))
        net_pieces = envelope.m
        envelope = _collapse_net_pieces(envelope)
    else:
        envelope = own_envelope(f, R) if envelope is None else envelope
        net_pieces = envelope.m
    params = compute_params(C, envelope.m, eps)
    proposal = build_proposal(base, envelope, A, delta=delta, seed=rng,
                              backend=backend)
    # every draw, candidate or fallback, targets W2 eps / 8: on diffusion
    # each reverse pass runs the one step count this gives, on exact none
    steps = (recommended_steps(eps / 8.0, C) if backend == "diffusion"
             else None)

    pts = np.empty((n, base.d))
    fell = np.ones(n, dtype=bool)
    draws = passes = 0
    if backend == "exact" and isinstance(base, DiscreteModel):
        # exp(f - G) is a function of the atom alone, so the candidates a
        # slot spends up to its first accept are Geometric(alpha),
        # alpha = sum_j q_j exp(f_j - G_j), and the accepted atom has law
        # ~ q_j exp(f_j - G_j) (Devroye 1986, II.3).  Slots are drawn from
        # that law in closed form, with the stream's law and budget; no
        # rejected candidate is drawn
        model = proposal.law
        log_w = model._log_probs + _log_acceptance(f, envelope,
                                                   model.atoms @ A.T)
        if params.N_rej > 0:
            log_alpha = _logsumexp(log_w)
            fell, draws = _geometric_slots(log_alpha, n, params.N_rej, rng)
            passes = 1
            if not fell.all():
                accepted = DiscreteModel(model.atoms,
                                         np.exp(log_w - log_alpha), C)
                rows = sample_exact(accepted, n - int(fell.sum()),
                                    rng).points
                if fell.any():
                    pts[~fell] = rows
                else:  # a boolean scatter costs ~20x a plain copy
                    pts[:] = rows
    else:
        # the proposal sum_i pi_i * tilt(base, v_i): its law as built, or on
        # diffusion one reverse pass whose row j follows its own piece's tilt
        law, tilt = ((proposal.law, None) if backend == "exact"
                     else (base, proposal.tilt_vectors))
        # one i.i.d. candidate stream: slots done..n-1 wait in order, and
        # by the floor a pass of waiting/a0 candidates expects at least one
        # accept per waiting slot; a pass holds at most ROW_BLOCK of them.
        # A budget N_rej <= 0 (C <= eps/4) draws no candidates: every slot
        # falls back
        done = carry = 0
        while done < n and params.N_rej > 0:
            count = min(int(np.ceil((n - done) / params.a0)), n, ROW_BLOCK)
            cand = sample_linear_tilt(law, tilt, rng, n=count, steps=steps,
                                      log_pi=proposal.log_pi).points
            log_a = _log_acceptance(f, envelope, cand @ A.T)
            ok = np.log(rng.random(count)) < log_a
            outcome, used, carry = _serve(ok, carry, params.N_rej, n - done)
            hit = outcome >= 0
            pts[done:done + outcome.size][hit] = cand[outcome[hit]]
            fell[done:done + outcome.size] = ~hit
            done += outcome.size
            # free this pass's candidates before the next draw makes its own
            del cand, log_a, ok, outcome, hit
            draws += used
            passes += 1

    fallback = int(fell.sum())
    if fallback:
        pts[fell] = sample_linear_tilt(base, None, rng, n=fallback,
                                       steps=steps).points

    batch = SampleBatch(points=pts, seed=_seed_tag(seed),
                        producer="kl_align/alg1", d=base.d)
    return KLAlignResult(batch=batch, params=params, envelope=envelope,
                         proposal=proposal, fallback_count=fallback,
                         proposal_draws=draws,
                         backend=backend, diffusion_steps=steps or 0,
                         passes=passes, net_pieces=net_pieces)

