"""Tests of the benchmark harness itself.

    python3 -m pytest bench/test_bench.py -q

Run from the repository root.  The smoke test runs every workload at toy
sizes, so a workload broken by a library change fails here in seconds.
"""

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]

from tracer import Installed, Tracer, _wrap  # noqa: E402
from worker import fingerprint_of, run_pass  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def test_smoke_mode_passes_every_workload():
    proc = subprocess.run([sys.executable, "bench/run.py", "--smoke"],
                          cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = [ln for ln in proc.stdout.splitlines() if ln.startswith("smoke")]
    assert len(lines) == len(WORKLOADS)
    assert all(" 0 failed" in ln and "counts repeat True" in ln
               for ln in lines), lines
    assert "untilted draws caught 2/2" in "\n".join(lines), lines


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "kl-exact", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_self_time_excludes_children_and_counts_inside():
    tracer = Tracer()

    def inner(x):
        return x + 1

    leaf = _wrap(tracer, "leaf", inner, store=False,
                 count=("leaf_in_outer",
                        lambda a, k, o: tracer.inside("outer")))

    def body(x):
        return leaf(leaf(x))

    outer = _wrap(tracer, "outer", body, store=True)
    with tracer.root(0, "root"):
        assert outer(1) == 3
    o, lf, r = tracer.get("outer"), tracer.get("leaf"), tracer.get("root")
    assert (o.calls, lf.calls, r.calls) == (1, 2, 1)
    assert o.self_s == pytest.approx(o.total_s - lf.total_s, abs=1e-12)
    assert r.self_s == pytest.approx(r.total_s - o.total_s, abs=1e-12)
    assert leaf(0) == 1
    assert (lf.calls, tracer.counters["leaf_in_outer"]) == (3, 2)
    assert [s[0] for s in tracer.spans] == ["root", "outer"]
    assert tracer.spans[1][3] == 0 and tracer.spans[1][4] == 0


def test_tracing_keeps_bytes_and_counts_repeat(tmp_path):
    wl = WORKLOADS["kl-exact"](3, smoke=True)
    seeds = wl.sampler_seeds()
    plain, _ = run_pass(wl.calls, seeds)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        with Installed(tracer, wl.rewards):
            traced, _ = run_pass(wl.calls, seeds, tracer)
        counts.append(tracer.counts())
        for call, a, b in zip(wl.calls, plain, traced):
            assert fingerprint_of(call, a) == fingerprint_of(call, b)
    assert counts[0] == counts[1]
    assert counts[0]["kl_align.envelope_value.calls"] > 0
    # wrappers are gone again after the traced pass
    import rewardalign.kl_align as kl
    assert not hasattr(kl.sample_exact, "__wrapped__")
    assert "value" in vars(wl.rewards[0]) and not hasattr(
        wl.rewards[0].value, "__wrapped__")
    tracer.dump(tmp_path / "spans.jsonl")
    spans = [json.loads(ln) for ln in open(tmp_path / "spans.jsonl")]
    assert spans[0]["name"] == "kl_align.sample_kl_aligned"
    assert all(s["self_s"] >= -1e-9 for s in spans)
    assert {s["call"] for s in spans} == set(range(len(wl.calls)))


def test_sampler_seeds_are_a_function_of_the_seed():
    wl = WORKLOADS["w2-prox"](5, smoke=True)
    again = WORKLOADS["w2-prox"](5, smoke=True)
    assert wl.sampler_seeds(1) == again.sampler_seeds(1)
    assert wl.sampler_seeds(0) != wl.sampler_seeds(1)
    assert wl.sampler_seeds() != WORKLOADS["w2-prox"](6, True).sampler_seeds()
    seed = wl.sampler_seeds()[0]
    np.testing.assert_array_equal(wl.calls[0].run(seed).xs,
                                  again.calls[0].run(seed).xs)
