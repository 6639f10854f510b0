"""One fresh interpreter of the benchmark: set-up timing or measured passes.

Started by ``bench/run.py`` with the repository root as working directory
and the BLAS / OpenMP thread count pinned in the environment.  Prints one
JSON object on its last line of standard output.

    python3 bench/worker.py setup   --workload W --seed S [--smoke]
    python3 bench/worker.py measure --workload W --seed S --seconds T
                                    [--trace-order ut|tu] [--dump PATH]
                                    [--smoke]
"""

import time

_T0 = time.perf_counter()  # set-up time starts before the first import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(1, os.path.dirname(os.path.abspath(__file__)))

import numpy as np  # noqa: E402

import rewardalign  # noqa: E402

if not os.path.abspath(rewardalign.__file__).startswith(
        os.path.join(ROOT, "src") + os.sep):
    sys.exit(f"rewardalign imported from {rewardalign.__file__}, "
             f"not from {ROOT}/src")

from tracer import Installed, Tracer  # noqa: E402
from workloads import KL_ENTRY, WORKLOADS  # noqa: E402

BALL_SLACK = 1e-12
# fresh set-up interpreters spread over an untraced run's passes; with the
# measuring worker's own set-up, setup_s is the fastest of 7
SETUP_RUNS = 6


def fingerprint_of(call, res):
    """sha256 of a call's sample bytes (None for a call that raised)."""
    if isinstance(res, Exception):
        return None
    h = hashlib.sha256()
    for a in call.outputs(res):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()


def run_pass(calls, seeds, tracer=None):
    """Make every call once; returns (results or exceptions, per-call
    seconds)."""
    outs, times = [], []
    for i, (call, seed) in enumerate(zip(calls, seeds)):
        tc = time.perf_counter()
        try:
            if tracer is None:
                outs.append(call.run(seed))
            else:
                with tracer.root(i, call.entry):
                    outs.append(call.run(seed))
        except Exception as exc:  # a failing call is counted, not fatal
            outs.append(exc)
        times.append(time.perf_counter() - tc)
    return outs, times


def gate(call, res):
    """Output gate: finite, right shape, inside the ball, oracle distance
    within its tolerance.  Returns (failure reason or None, law_err)."""
    if isinstance(res, Exception):
        return f"raised {type(res).__name__}: {res}", None
    for a in call.outputs(res):
        if a.shape != (call.n, call.d):
            return f"shape {a.shape} != {(call.n, call.d)}", None
        if not np.all(np.isfinite(a)):
            return "non-finite sample", None
        if np.max(np.linalg.norm(a, axis=1)) > call.C + BALL_SLACK:
            return "sample outside the support ball", None
    law = float(call.check(res))
    if not np.isfinite(law):
        return "law_err is not finite", None
    return None, law


class CallLog:
    """What the gate found for one call over a run's passes."""

    def __init__(self, call):
        self.call = call
        self.law_err = None
        self.failed = 0
        self.error = None
        self.fallback = 0
        self.sha256 = None  # of the first pass, on stream 0

    def add(self, res, smoke):
        """Gate one output (outside the timed region).  At toy sizes only
        checks whose tolerance does not depend on n are enforced."""
        call = self.call
        reason, law = gate(call, res)
        if reason is None:
            self.law_err = law if self.law_err is None else max(
                self.law_err, law)
            if law > 1.0 and (call.exact or not smoke):
                reason = f"law_err {law:.4g} above its tolerance"
            if call.entry == KL_ENTRY:
                self.fallback += int(res.fallback_count)
        if reason is not None:
            self.failed += 1
            self.error = reason
        if self.sha256 is None:
            self.sha256 = fingerprint_of(call, res)

    def report(self) -> dict:
        return {"name": self.call.name, "n": self.call.n,
                "law_err": self.law_err, "failed": self.failed,
                "error": self.error, "fallback": self.fallback,
                "sha256": self.sha256}


def kl_layer_metrics(wl, outs):
    """Per-layer numbers the KL results carry themselves."""
    m = dict.fromkeys(("kl_align.envelope_pieces", "kl_align.distinct_pieces",
                       "kl_align.rounds_budget", "kl_align.proposal_draws"), 0)
    accepted = 0
    for call, res in zip(wl.calls, outs):
        if call.entry != KL_ENTRY or isinstance(res, Exception):
            continue
        env = res.envelope
        pieces = np.column_stack([env.slopes, env.offsets])
        m["kl_align.envelope_pieces"] += env.m
        m["kl_align.distinct_pieces"] += len(
            np.unique(np.round(pieces, 10), axis=0))
        m["kl_align.rounds_budget"] += res.params.N_rej
        m["kl_align.proposal_draws"] += res.proposal_draws
        accepted += call.n - res.fallback_count
    draws = m["kl_align.proposal_draws"]
    m["kl_align.acceptance_rate"] = accepted / draws if draws else 0.0
    return m


def layer_metrics(tracer, wl, outs):
    g = tracer.get
    m = {
        "kl_align.build_net.s": g("kl_align.build_net").total_s,
        "kl_align.build_envelope.s": g("kl_align.build_envelope").total_s,
        "kl_align.build_proposal.s": g("kl_align.build_proposal").total_s,
        "kl_align.envelope_value.calls": g("kl_align.envelope_value").calls,
        "kl_align.envelope_value.s": g("kl_align.envelope_value").total_s,
        "kl_align.rejection.self_s": g("kl_align.sample_kl_aligned").self_s,
    }
    m.update(kl_layer_metrics(wl, outs))
    for name in ("models.sample_exact", "models.score"):
        a = g(name)
        m.update({f"{name}.calls": a.calls, f"{name}.s": a.total_s,
                  f"{name}.rows": a.rows})
    for name in ("models.sample_via_diffusion", "models.noised_params",
                 "tilts.tilt_exact", "tilts.estimate_normalizer",
                 "tilts.tilted_score", "rewards.first_order",
                 "w2_align.prox_concave", "w2_align.alg2_prox"):
        a = g(name)
        m.update({f"{name}.calls": a.calls, f"{name}.s": a.total_s})
    m["models.diffusion_steps"] = tracer.counters["models.diffusion_steps"]
    m["tilts.mc_draws"] = tracer.counters["tilts.mc_draws"]
    a = g("rewards.value")
    m.update({"rewards.value.calls": a.calls, "rewards.value.s": a.total_s,
              "rewards.value.rows": a.rows,
              "rewards.grad.calls": g("rewards.grad").calls})
    m["w2_align.prox_quadratic_batch.s"] = g(
        "w2_align.prox_quadratic_batch").total_s
    # prox_quadratic runs only for the boundary cases of the batch solve
    m["w2_align.boundary_cases"] = g("w2_align.prox_quadratic").calls
    m["w2_align.pga_iters"] = tracer.counters["w2_align.pga_iters"]
    m["w2_align.net_points"] = tracer.counters["w2_align.net_points"]
    return m


def median_pass(call_s) -> float:
    """Wall time of one pass: each call's median time over the run's
    passes, summed, so a slow spell of the machine during one call of one
    pass moves nothing."""
    return float(np.median(np.asarray(call_s), axis=0).sum())


def setup_once(wl) -> float:
    """setup_s of one fresh interpreter of this script in setup mode."""
    proc = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "setup", "--workload",
         wl.name, "--seed", str(wl.seed)], capture_output=True, text=True,
        timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup interpreter exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(wl, seconds, smoke, trace_order=None, dump=None):
    """Passes over the workload, gated outside the timed region.

    Untraced (no ``trace_order``): ``wl.passes`` passes, pass j on sampler
    stream j, so a faster commit is timed on the same draws as a slower
    one; ``seconds`` is only a ceiling, reached on a machine slowed by
    half.  ``SETUP_RUNS`` fresh set-up interpreters are spread evenly
    before, between and after the passes, so a slow spell of the machine
    meets a few of them rather than all.  The peak memory of the first
    pass is read from the high-water mark of resident memory, which this
    process (forked from the one that imported the library) started at
    its resident size.  At the end the fastest call is re-run on stream 0
    and must reproduce its bytes.

    Traced: passes alternate untraced and traced in the given order, all on
    stream 0, until ``seconds`` have gone, at least two.  The gate runs on
    the first pass, every later pass must reproduce its bytes, and every
    traced pass must repeat the counts."""
    call_s = {"untraced": [], "traced": []}
    logs = [CallLog(c) for c in wl.calls]
    layers, counts, setup_runs = [], [], []
    mismatches, pass_s, check_s, setup_s = 0, 0.0, [], 0.0
    setups = 0 if trace_order else SETUP_RUNS
    slots = Counter(k * (wl.passes + 1) // setups for k in range(setups))
    start = time.perf_counter()
    j = 0
    while True:
        t = time.perf_counter()
        setup_runs += [setup_once(wl) for _ in range(slots[j])]
        setup_s += time.perf_counter() - t
        seeds = wl.sampler_seeds(0 if trace_order else j)
        traced = trace_order is not None and trace_order[j % 2] == "t"
        rss_before = max_rss_mb()
        if traced:
            tracer = Tracer()
            with Installed(tracer, wl.rewards):
                outs, times = run_pass(wl.calls, seeds, tracer)
            layers.append(layer_metrics(tracer, wl, outs))
            counts.append(tracer.counts())
            if dump and len(layers) == 1:
                tracer.dump(dump)
        else:
            outs, times = run_pass(wl.calls, seeds)
        if j == 0:
            peak_mb = max_rss_mb() - rss_before
        call_s["traced" if traced else "untraced"].append(times)
        pass_s += sum(times)
        if j == 0 or not trace_order:
            t = time.perf_counter()
            for log, res in zip(logs, outs):
                log.add(res, smoke)
            check_s.append(time.perf_counter() - t)
        else:
            mismatches += sum(fingerprint_of(log.call, res) != log.sha256
                              for log, res in zip(logs, outs))
        del outs
        j += 1
        if not trace_order and j == wl.passes:
            break
        elapsed = time.perf_counter() - start - setup_s
        if j >= 2 and elapsed + pass_s / j > seconds:
            break
    setup_runs += [setup_once(wl) for _ in range(setups - len(setup_runs))]

    if not trace_order:
        first = call_s["untraced"][0]
        i = min(range(len(wl.calls)), key=first.__getitem__)
        rerun, _ = run_pass(wl.calls[i:i + 1], wl.sampler_seeds(0)[i:i + 1])
        mismatches += int(fingerprint_of(wl.calls[i], rerun[0])
                          != logs[i].sha256)
    controls = {c.name: c.control(wl.seed) for c in wl.calls
                if smoke and c.control is not None}
    repeats = j if trace_order else 1  # gated once, repeated j times
    for lm in layers:
        lm["metrics.check.s"] = check_s[0]
    return {"walls": {k: [float(sum(t)) for t in v]
                      for k, v in call_s.items()},
            "median_pass_s": {k: median_pass(v)
                              for k, v in call_s.items() if v},
            "call_s": call_s["untraced"], "passes": j,
            "attempted": j * len(wl.calls) + (0 if trace_order else 1),
            "failed": repeats * sum(log.failed for log in logs) + mismatches,
            "checked_passes": 1 if trace_order else j,
            "rerun_mismatches": mismatches, "peak_mb": peak_mb,
            "setup_runs_s": setup_runs, "controls": controls,
            "check_s": sum(check_s), "layers": layers, "counts": counts,
            "per_call": [log.report() for log in logs],
            "samples_per_pass": wl.samples_per_pass}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("mode", choices=("setup", "measure"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace-order", choices=("ut", "tu"))
    ap.add_argument("--dump")
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()
    wl = WORKLOADS[args.workload](args.seed, smoke=args.smoke)
    setup_s = time.perf_counter() - _T0
    if args.mode == "setup":
        print(json.dumps({"setup_s": setup_s}))
        return
    # a forked child starts its resident-memory high-water mark at its
    # current resident size, so the mark no longer holds the import's peak.
    # BLAS is pinned to one thread, so there is no other thread to fork.
    sys.stdout.flush()
    pid = os.fork()
    if pid:
        _, status = os.waitpid(pid, 0)
        sys.exit(os.waitstatus_to_exitcode(status))
    code = 1
    try:
        out = measure(wl, args.seconds, args.smoke, args.trace_order,
                      args.dump)
        out["setup_s"] = setup_s
        print(json.dumps(out))
        code = 0
    except Exception:
        traceback.print_exc()
    finally:  # the child never returns into the parent's code
        sys.stdout.flush()
        sys.stderr.flush()
        os._exit(code)


if __name__ == "__main__":
    main()
