"""rewardalign benchmark: one workload, end-to-end or per-layer metrics.

    python3 bench/run.py --workload kl-exact --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --smoke

Run from the repository root; the library is imported from ``./src``.  A
single-process closed loop: each worker process makes one library call at
a time, with BLAS / OpenMP pinned to ``BLAS_THREADS`` threads.

``--trace 0`` makes a fixed number of passes over the workload's calls in
one fresh worker, with set-up timed in fresh interpreters spread between
the passes, and reports the end-to-end metrics.
``--trace 1`` runs two same-seed workers that alternate untraced and traced
passes, checks that every traced count repeats exactly, and reports the
per-layer metrics plus the tracing overhead.  Spans of the first traced
pass of each worker go to ``bench/out/``.

Every output passes the gate (finite, right shape, inside the ball,
oracle distance within its test tolerance, byte-identical on every rerun)
outside the timed region.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code is 0
only when every call passed.  See ``bench/README.md``.
"""

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
WORKLOADS = ("kl-exact", "kl-oracle", "w2-prox")
BLAS_THREADS = 1
WORKER_TIMEOUT_S = 170

# printed and recorded next to the gated end-to-end metrics, and folded
# into ``correct`` instead of a relative bound: fallback_frac and
# error_frac read 0 on a healthy run, and law_err moves with the draw stream
QUALITY_UNITS = {"law_err": "ratio", "fallback_frac": "ratio",
                 "error_frac": "ratio"}


def declared_units() -> tuple:
    """(end-to-end, per-layer) {name: unit} as BENCHMARK.json declares them."""
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


class WorkerError(RuntimeError):
    pass


def environment() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": os.cpu_count(),
            "cpu": cpu, "blas_threads": BLAS_THREADS}


def worker(args: list) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    # the worker forks and starts set-up interpreters: its own process
    # group lets a timeout stop all of them
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py")]
                            + args, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        raise WorkerError(f"worker {' '.join(args)} exited "
                          f"{proc.returncode}: {err.strip()[-2000:]}")
    return json.loads(out.strip().splitlines()[-1])


def finite_or_none(metrics: dict, units: dict):
    """Metrics as {name: {value, unit}}; a non-finite value becomes null
    and marks the run incorrect (NaN is never reported as a number)."""
    out, ok = {}, True
    for name, unit in units.items():
        v = metrics.get(name)
        if v is None or not math.isfinite(float(v)):
            ok = False
            v = None
        out[name] = {"value": v, "unit": unit}
    return out, ok


def quality(m: dict):
    """(law_err, fallback_frac) over one measuring worker's gated passes."""
    calls = m["per_call"]
    laws = [c["law_err"] for c in calls if c["law_err"] is not None]
    fallback = (sum(c["fallback"] for c in calls)
                / (m["checked_passes"] * sum(c["n"] for c in calls)))
    return (max(laws) if laws else None), fallback


def run_end_to_end(a) -> tuple:
    m = worker(["measure", "--workload", a.workload, "--seed", str(a.seed),
                "--seconds", str(a.seconds)])
    setups = [m["setup_s"]] + m["setup_runs_s"]
    walls = m["walls"]["untraced"]
    attempted, failed = m["attempted"], m["failed"]
    law, fallback = quality(m)
    wall = m["median_pass_s"]["untraced"]
    metrics = {"wall_s": wall,
               "samples_per_s": m["samples_per_pass"] / wall,
               "setup_s": min(setups),
               "law_err": law, "fallback_frac": fallback,
               "error_frac": failed / attempted,
               "peak_rss_mb": m["peak_mb"]}
    detail = {"passes": m["passes"], "pass_walls_s": walls,
              "call_walls_s": m["call_s"],
              "setup_runs_s": setups, "check_s": m["check_s"],
              "rerun_mismatches": m["rerun_mismatches"],
              "calls": m["per_call"]}
    return attempted, failed, metrics, detail


def run_traced(a) -> tuple:
    base = ["--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds / 2.0)]
    tag = f"{a.workload}-seed{a.seed}"
    os.makedirs(OUT, exist_ok=True)
    runs = [worker(["measure"] + base + ["--trace-order", order, "--dump",
                                         os.path.join(OUT, f"spans-{tag}-"
                                                           f"w{i}.jsonl")])
            for i, order in enumerate(("ut", "tu"))]
    attempted = sum(m["attempted"] for m in runs)
    failed = sum(m["failed"] for m in runs)
    # both workers made the same calls: their outputs must be byte-identical
    h0, h1 = ([c.get("sha256") for c in m["per_call"]] for m in runs)
    failed += sum(x != y for x, y in zip(h0, h1))
    counts = [c for m in runs for c in m["counts"]]
    counts_repeat = all(c == counts[0] for c in counts)
    layers = [lm for m in runs for lm in m["layers"]]
    # counts repeat exactly (checked above); times are medians over passes
    metrics = {name: (layers[0][name] if isinstance(layers[0][name], int)
                      else statistics.median(lm[name] for lm in layers))
               for name in layers[0]}
    untraced = [w for m in runs for w in m["walls"]["untraced"]]
    traced = [w for m in runs for w in m["walls"]["traced"]]
    metrics["trace.overhead_frac"] = (
        statistics.median(m["median_pass_s"]["traced"] for m in runs)
        / statistics.median(m["median_pass_s"]["untraced"] for m in runs)
        - 1.0)
    detail = {"counts_repeat": counts_repeat, "counts": counts[0],
              "untraced_walls_s": untraced, "traced_walls_s": traced,
              "calls": runs[0]["per_call"]}
    return attempted, failed + (0 if counts_repeat else 1), metrics, detail


def emit(a, attempted, failed, metrics, detail, units, gated) -> int:
    reported, finite = finite_or_none(metrics, units)
    correct = failed == 0 and finite
    record = {"workload": a.workload, "seed": a.seed, "seconds": a.seconds,
              "trace": a.trace, "environment": environment(),
              "correct": correct, "attempted": attempted, "failed": failed,
              "metrics": reported, "detail": detail}
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, f"result-{a.workload}-seed{a.seed}-"
                             f"trace{a.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(f"# {a.workload} seed={a.seed} trace={a.trace} "
          f"{json.dumps(record['environment'])}")
    for name, mv in reported.items():
        print(f"{name:36s} {mv['value']!s:>24} {mv['unit']}")
    for c in detail["calls"]:
        if c["error"] is not None:
            print(f"FAILED {c['name']} ({c['failed']}x): {c['error']}")
    print(f"# full record: {os.path.relpath(path)}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: reported[k] for k in gated}}))
    return 0 if correct else 1


def smoke() -> int:
    """Every workload at toy sizes, one pass each, no timing claims: a
    broken workload fails here in seconds."""
    status = 0
    for name in WORKLOADS:
        m = worker(["measure", "--workload", name, "--seed", "0",
                    "--seconds", "0", "--trace-order", "tu", "--smoke"])
        failed, (law, _) = m["failed"], quality(m)
        repeat = all(c == m["counts"][0] for c in m["counts"])
        # the gate must catch a sampler that ignores the tilt
        blind = [k for k, v in m["controls"].items() if not v > 1.0]
        print(f"smoke {name}: {m['attempted']} calls, {failed} failed, "
              f"law_err {law}, counts repeat {repeat}, untilted draws "
              f"caught {len(m['controls']) - len(blind)}/"
              f"{len(m['controls'])}")
        for c in m["per_call"]:
            if c["error"] is not None:
                print(f"FAILED {c['name']} ({c['failed']}x): {c['error']}")
        for k in blind:
            print(f"FAILED {k}: an untilted draw passes its law check")
        status |= failed != 0 or not repeat or bool(blind)
    return int(status)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="toy sizes of every workload, for a quick check")
    a = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "rewardalign", "__init__.py")):
        print("bench/run.py: run from the repository root (no "
              "src/rewardalign here)", file=sys.stderr)
        return 2
    try:
        if a.smoke:
            return smoke()
        if a.workload is None:
            ap.error("--workload is required")
        end_to_end, per_layer = declared_units()
        if a.trace:
            return emit(a, *run_traced(a), per_layer, per_layer)
        return emit(a, *run_end_to_end(a), {**end_to_end, **QUALITY_UNITS},
                    end_to_end)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"bench/run.py: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
