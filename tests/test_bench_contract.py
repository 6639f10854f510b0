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

from rewardalign import kl_align  # noqa: E402


def test_tracer_installs_and_restores():
    build_proposal = kl_align.build_proposal
    with Installed(Tracer(), []):
        assert kl_align.build_proposal is not build_proposal
    assert kl_align.build_proposal is build_proposal
