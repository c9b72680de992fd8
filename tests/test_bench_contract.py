"""The benchmark's tracer must find every name it wraps and put it back.

perfbench/tracing.py patches package attributes by name; a rename in the
package would otherwise only show when the benchmark runs with tracing.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "perfbench"))

import tracing  # noqa: E402
from hotspot import detector, graph, harness  # noqa: E402


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_the_package_and_restores_every_attribute():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        patched = list(tracer._patched)
        assert all(_current(owner, attr) is not raw for owner, attr, raw in patched)
    finally:
        tracer.uninstall()
    names = {(owner, attr) for owner, attr, _ in patched}
    for owner, attr in [(graph.Graph, "nn_members"), (graph.Graph, "ball_members"),
                        (graph.Graph, "largest_component"),
                        (harness.NoisyView, "nn_members"), (harness.NoisyView, "ball_members"),
                        (harness, "splitmix64"), (harness, "classify"),
                        (detector, "classify")]:
        assert (owner, attr) in names
    assert all(_current(owner, attr) is raw for owner, attr, raw in patched)
    assert not tracer._patched
