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


def test_every_workload_builds_at_smoke_size():
    # construction only: a library name a workload calls that is renamed
    # or unbound fails here, not only in the benchmark's own tests
    for name, build in WORKLOADS.items():
        wl = build(0, smoke=True)
        assert wl.name == name and wl.calls and wl.rewards
