"""In-memory span tracer that wraps the library's functions from outside.

Each wrapped function is replaced, for the duration of a traced pass, in
the module namespace where its caller looks it up (``from .models import
sample_exact`` inside ``kl_align`` binds a name in ``kl_align``, so that is
the name that gets wrapped).  Nothing under ``src/`` is edited; the
original objects are put back when the pass ends.

A stored span is ``(name, start, end, parent, call, child_s)``: ``parent``
indexes the enclosing stored span (-1 at the root), ``call`` is the index
of the benchmark's library call that caused it, and ``child_s`` is the
time its children covered, so self time = (end - start) - child_s.
High-frequency leaf functions (scores, reward oracles) are aggregated
instead of stored, but their time is still charged to the enclosing span.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from rewardalign import kl_align, models, tilts, w2_align

_clock = time.perf_counter


def _rows_of(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim < 2 else int(x.shape[0])


@dataclass
class Aggregate:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    rows: int = 0


@dataclass
class Tracer:
    """Spans, per-name aggregates and counters of one traced pass."""

    spans: list = field(default_factory=list)
    agg: dict = field(default_factory=dict)
    counters: Counter = field(default_factory=Counter)
    call_id: int = -1
    # open frames: [name, start, child_s, own stored span or -1]
    _stack: list = field(default_factory=list)

    def enter(self, name: str, store: bool) -> list:
        own = -1
        if store:
            parent = next((f[3] for f in reversed(self._stack)
                           if f[3] >= 0), -1)
            own = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent, self.call_id, 0.0])
        frame = [name, _clock(), 0.0, own]
        self._stack.append(frame)
        return frame

    def exit(self, frame: list, rows: int = 0) -> None:
        end = _clock()
        self._stack.pop()
        name, start, child_s, own = frame
        dur = end - start
        if self._stack:
            self._stack[-1][2] += dur
        if own >= 0:
            span = self.spans[own]
            span[1], span[2], span[5] = start, end, child_s
        a = self.agg.get(name)
        if a is None:
            a = self.agg[name] = Aggregate()
        a.calls += 1
        a.total_s += dur
        a.self_s += dur - child_s
        a.rows += rows

    @contextmanager
    def root(self, call_id: int, name: str):
        """Span of one library call made by the benchmark."""
        self.call_id = call_id
        frame = self.enter(name, store=True)
        try:
            yield
        finally:
            self.exit(frame)
            self.call_id = -1

    def inside(self, name: str) -> bool:
        """Whether a call of ``name`` is open."""
        return any(frame[0] == name for frame in self._stack)

    def get(self, name: str) -> Aggregate:
        return self.agg.get(name, Aggregate())

    def counts(self) -> dict:
        """Exact counts that must repeat across same-seed traced runs."""
        out = {f"{name}.calls": a.calls for name, a in self.agg.items()}
        out.update({f"{name}.rows": a.rows for name, a in self.agg.items()})
        out.update(self.counters)
        return dict(sorted(out.items()))

    def dump(self, path) -> None:
        """Write the stored spans as JSON lines, one object per span."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent, call, child_s) in \
                    enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": name, "start": start, "end": end,
                    "parent": parent, "call": call,
                    "self_s": (end - start) - child_s}) + "\n")


def _wrap(tracer: Tracer, name: str, fn, store: bool, rows=None, count=None):
    def wrapper(*args, **kwargs):
        frame = tracer.enter(name, store)
        try:
            out = fn(*args, **kwargs)
        except BaseException:
            tracer.exit(frame)
            raise
        tracer.exit(frame, rows(args, kwargs) if rows is not None else 0)
        if count is not None:
            tracer.counters[count[0]] += int(count[1](args, kwargs, out))
        return out

    wrapper.__wrapped__ = fn
    return wrapper


def _n_arg(args, kwargs):
    return int(kwargs["n"] if "n" in kwargs else args[1])


class Installed:
    """Context manager that installs the wrappers and restores the
    originals on exit.  ``rewards`` lists the reward objects of the
    workload; their value and subgradient oracles are wrapped per object."""

    def __init__(self, tracer: Tracer, rewards):
        self.tracer = tracer
        self.rewards = list(rewards)
        self._undo = []

    def _replace(self, owner, attr, name, store=True, rows=None, count=None):
        had = attr in vars(owner)
        orig = getattr(owner, attr)
        if orig is None:
            return
        setattr(owner, attr,
                _wrap(self.tracer, name, orig, store, rows, count))
        self._undo.append((lambda: setattr(owner, attr, orig)) if had
                          else (lambda: delattr(owner, attr)))

    def __enter__(self):
        r = self._replace
        # kl_align; build_net is also looked up by w2_align's lowrank backend
        r(kl_align, "build_net", "kl_align.build_net")
        r(w2_align, "build_net", "kl_align.build_net",
          count=("w2_align.net_points", lambda a, k, o: o.m))
        r(kl_align, "build_envelope", "kl_align.build_envelope")
        r(kl_align, "build_proposal", "kl_align.build_proposal")
        r(kl_align.Envelope, "value", "kl_align.envelope_value")
        r(kl_align, "first_order", "rewards.first_order")
        # models, under every name a caller looks them up by
        for mod in (kl_align, tilts, w2_align):
            r(mod, "sample_exact", "models.sample_exact", rows=_n_arg)
            r(mod, "sample_via_diffusion", "models.sample_via_diffusion",
              rows=_n_arg,
              count=("models.diffusion_steps", lambda a, k, o: k["steps"]))
        r(models, "score", "models.score", store=False,
          rows=lambda a, k: _rows_of(a[2]))
        r(models, "noised_params", "models.noised_params", store=False)
        # tilts
        r(kl_align, "tilt_exact", "tilts.tilt_exact")
        r(kl_align, "estimate_normalizer", "tilts.estimate_normalizer",
          count=("tilts.mc_draws", lambda a, k, o: o.n_draws))
        r(tilts, "tilted_score", "tilts.tilted_score", store=False)
        # w2_align; prox_quadratic runs only for boundary cases of the batch
        r(w2_align, "prox_quadratic_batch", "w2_align.prox_quadratic_batch")
        r(w2_align, "prox_quadratic", "w2_align.prox_quadratic")
        r(w2_align, "prox_concave", "w2_align.prox_concave")
        r(w2_align, "alg2_prox", "w2_align.alg2_prox")
        # rewards: the oracles of this workload's reward objects; a
        # subgradient call inside prox_concave is one ascent step
        in_pga = ("w2_align.pga_iters", lambda a, k, o: self.tracer.inside(
            "w2_align.prox_concave"))
        for obj in self.rewards:
            r(obj, "value", "rewards.value", store=False,
              rows=lambda a, k: _rows_of(a[0]))
            r(obj, "grad", "rewards.grad", store=False, count=in_pga)
        return self

    def __exit__(self, *exc):
        while self._undo:
            self._undo.pop()()
        return False
