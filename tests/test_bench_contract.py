"""The benchmark's tracer wraps library functions by module and name.

Entering its ``Installed`` context fails if a wrapped name is no longer
bound, so a refactor that renames or unbinds one fails here, in the unit
suite, and not only in the benchmark's own tests.
"""

import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "bench"))

from tracer import Installed, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from rewardalign import kl_align  # noqa: E402


def test_tracer_installs_and_restores():
    build_proposal = kl_align.build_proposal
    with Installed(Tracer(), []):
        assert kl_align.build_proposal is not build_proposal
    assert kl_align.build_proposal is build_proposal


def test_traced_kl_call_reaches_the_envelope_and_reward_oracles():
    # the per-layer metrics kl_align.envelope_value.* and rewards.value.*
    # read these wrappers; a refactor that bypassed them would zero them.
    # A black-box f (no pieces) takes the net path
    import dataclasses
    import rewardalign as ra
    base = ra.DiscreteModel([[0.0], [0.5], [1.0]], [0.2, 0.3, 0.5], 1.0)
    f = dataclasses.replace(ra.make_max_affine([([1.0], 0.0), ([-1.0], 0.2)]),
                            pieces=None, reduction=None)
    tracer = Tracer()
    with Installed(tracer, [f]):
        res = ra.sample_kl_aligned(base, [[1.0]], f, 0.3, 0.05, seed=0, n=20)
    assert res.net_pieces > 1  # a net envelope, not an explicit one
    for name in ("kl_align.envelope_value", "rewards.value"):
        assert tracer.get(name).calls >= 1, name


def test_traced_lowrank_black_box_reaches_the_net_search():
    # a max-affine f takes the exact prox, so no bench call reaches the net
    # search; a black-box f (no pieces) still does, and the per-layer
    # metrics w2_align.alg2_prox.* and w2_align.net_points read these
    # wrappers
    import dataclasses
    import rewardalign as ra
    base = ra.DiscreteModel([[0.5, 0.0], [-0.5, 0.3]], [0.5, 0.5], 1.0)
    f = dataclasses.replace(ra.make_max_affine([([1.0], 0.0), ([-1.0], 0.2)]),
                            pieces=None, reduction=None)
    tracer = Tracer()
    with Installed(tracer, [f]):
        res = ra.sample_w2_aligned(base, ra.LowRankReward([[0.8, 0.0]], f),
                                   lam=0.3, n=5, seed=0, backend="lowrank",
                                   eps=0.3)
    assert res.batch.producer == "w2_align/lowrank/alg2"
    for name in ("w2_align.alg2_prox", "kl_align.build_net"):
        assert tracer.get(name).calls >= 1, name
    assert tracer.counters["w2_align.net_points"] > 0


def test_every_workload_builds_at_smoke_size():
    # construction only: a library name a workload calls that is renamed
    # or unbound fails here, not only in the benchmark's own tests
    for name, build in WORKLOADS.items():
        wl = build(0, smoke=True)
        assert wl.name == name and wl.calls and wl.rewards


def test_w2_smoke_calls_keep_their_prox():
    # a change to the prox dispatch must not quietly move the benchmark's
    # W2 traffic onto another prox backend
    wl = WORKLOADS["w2-prox"](0, smoke=True)
    producers = {call.name: call.run(seed).batch.producer
                 for call, seed in zip(wl.calls, wl.sampler_seeds(0))}
    assert producers == {"lowrank-r2": "w2_align/lowrank/max_affine",
                         "pga-gmm3d": "w2_align/pga",
                         "quad-fig1": "w2_align/quad",
                         "quad-gmm-diffusion": "w2_align/quad"}


def test_traced_diffusion_draw_counts_one_score_call_per_step():
    # the per-layer metrics models.score.* and models.diffusion_steps read
    # these wrappers; a sampler or score oracle that bypassed the name
    # models.score would zero the one and not the other
    import rewardalign as ra
    base = ra.GaussianMixtureModel([0.5, 0.5], [[-2.0], [2.0]],
                                   [[[0.49]], [[0.49]]], 8.0)
    pull = ra.QuadraticReward([[0.05]], [3.0])
    tracer = Tracer()
    with Installed(tracer, [pull]):
        ra.sample_w2_aligned(base, pull, 0.15, 20, 0, backend="quad",
                             base_backend="diffusion", steps=37)
    assert tracer.get("models.score").calls == 37
    assert tracer.get("models.score").rows == 37 * 20
    assert tracer.counters["models.diffusion_steps"] == 37


def test_traced_tilted_diffusion_counts_one_call_of_each_score_per_step():
    # kl-oracle's shape: KL diffusion on atoms, each rejection pass one
    # reverse pass on the tilted score; every step makes one
    # tilts.tilted_score call and, inside it, one models.score call
    import rewardalign as ra
    base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
    f = ra.make_max_affine([([1.0], 0.0)])
    f.radius = 1.0
    tracer = Tracer()
    with Installed(tracer, [f]):
        res = ra.sample_kl_aligned(base, [[1.0]], f, eps=0.5, delta=0.1,
                                   seed=1, n=60, backend="diffusion")
    steps = tracer.counters["models.diffusion_steps"]
    passes = tracer.get("models.sample_via_diffusion")
    assert steps > 0 and steps == passes.calls * 48
    assert tracer.get("models.score").calls == steps
    assert tracer.get("tilts.tilted_score").calls == steps
    assert tracer.get("models.score").rows == 48 * passes.rows
    assert res.batch.points.shape == (60, 1)


def test_traced_fallback_diffusion_pass_counts_the_same_steps():
    # the same shape with an explicit envelope raised by 50: every slot
    # falls back, and the fallback pass, on the base's own score, runs the
    # candidates' 48 steps, so steps == passes.calls * 48 still holds
    import rewardalign as ra
    base = ra.DiscreteModel([[0.0], [1.0]], [0.5, 0.5], 1.0)
    f = ra.make_max_affine([([1.0], 0.0)])
    f.radius = 1.0
    raised = ra.Envelope.from_pieces([[1.0]], [50.0])
    tracer = Tracer()
    with Installed(tracer, [f]):
        res = ra.sample_kl_aligned(base, [[1.0]], f, eps=0.5, delta=0.1,
                                   seed=1, n=6, backend="diffusion",
                                   envelope=raised)
    assert res.fallback_count == 6 and res.diffusion_steps == 48
    steps = tracer.counters["models.diffusion_steps"]
    passes = tracer.get("models.sample_via_diffusion")
    assert passes.calls == res.passes + 1
    assert steps == passes.calls * 48
    assert tracer.get("models.score").calls == steps
    assert tracer.get("tilts.tilted_score").calls == steps - 48
