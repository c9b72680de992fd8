"""In-memory span and counter recording around hotspot's public functions.

The tracer never edits the package: it replaces attributes as their
callers look them up (``harness.classify`` is what ``run_trial`` calls,
``calibration.simulate_si`` is what ``estimate_gamma`` calls) with thin
wrappers, and puts the originals back on ``uninstall``. Spans are
``[name, start, end, parent]`` lists with ``time.monotonic`` stamps, which on
Linux is CLOCK_MONOTONIC and therefore comparable across processes; parent
is the index of the enclosing span or -1. Hot per-node calls
(neighborhood queries, ``splitmix64``) are only counted, because a span
per call would cost more than the call.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict

# span name -> per-layer metric: the median time of one call, callees included
SPAN_METRICS = {
    "graph.gen_erdos_renyi": "graph.gen_erdos_renyi_ms",
    "graph.largest_component": "graph.largest_component_ms",
    "graph.save_edge_list": "graph.save_edge_list_ms",
    "graph.load_edge_list": "graph.load_edge_list_ms",
    "scenario.simulate_si": "scenario.simulate_si_ms",
    "scenario.apply_reporting": "scenario.apply_reporting_ms",
    "scenario.generate_uniform_null": "scenario.generate_uniform_null_ms",
    "detector.classify": "detector.classify_ms",
    "detector.classify_noisy": "detector.classify_noisy_ms",
    "calibration.estimate_gamma": "calibration.estimate_gamma_ms",
    "calibration.gamma_for_set": "calibration.gamma_for_set_ms",
    "harness.topology_build": "harness.topology_build_ms",
    "cli.snapshot_load": "cli.snapshot_load_ms",
}
COUNT_METRICS = ("graph.neighborhood_queries", "graph.neighborhood_members",
                 "scenario.infected_nodes", "detector.reporters_scanned",
                 "seeds.splitmix64_calls")


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def open(self, name: str, start: float | None = None) -> list:
        rec = [name, time.monotonic() if start is None else start, None,
               self._stack[-1] if self._stack else -1]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = time.monotonic()
        self._stack.pop()

    def spanned(self, name, fn, on_result=None):
        """fn wrapped in a span; on_result(args, result) may add counts and
        may return a different span name (e.g. plain vs noisy classify)."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(rec)
            if on_result is not None:
                rec[0] = on_result(args, result) or rec[0]
            return result
        return wrapper

    def counted(self, key, fn, size_key=None):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += 1
            if size_key is not None:
                counts[size_key] += len(result)
            return result
        return wrapper

    # -- patching --------------------------------------------------------------

    def patch(self, owner, attr: str, make) -> None:
        """Replace owner.attr by make(original); class attributes keep their
        classmethod wrapping."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, raw))
        if isinstance(raw, classmethod):
            setattr(owner, attr, classmethod(make(raw.__func__)))
        else:
            setattr(owner, attr, make(raw))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, raw = self._patched.pop()
            setattr(owner, attr, raw)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark and the CLI go through."""
        from hotspot import calibration, cli, detector, graph, harness, scenario, seeds

        def classify_name(args, verdict):
            self.counts["detector.reporters_scanned"] += len(args[1])
            if isinstance(args[0], harness.NoisyView):
                return "detector.classify_noisy"
            return "detector.classify"

        def count_infected(args, outcome):
            self.counts["scenario.infected_nodes"] += len(outcome.infected)

        span = self.spanned
        for owner in (harness, detector):
            self.patch(owner, "classify", lambda f: span("detector.classify", f, classify_name))
        for owner in (scenario, calibration):
            self.patch(owner, "simulate_si",
                       lambda f: span("scenario.simulate_si", f, count_infected))
        for owner in (harness, cli):
            self.patch(owner, "load_edge_list", lambda f: span("graph.load_edge_list", f))
        self.patch(graph, "save_edge_list", lambda f: span("graph.save_edge_list", f))
        self.patch(harness, "gen_erdos_renyi", lambda f: span("graph.gen_erdos_renyi", f))
        self.patch(graph.Graph, "largest_component",
                   lambda f: span("graph.largest_component", f))
        self.patch(harness.TopologySpec, "build", lambda f: span("harness.topology_build", f))
        self.patch(harness, "run_sweep", lambda f: span("harness.run_sweep", f))
        self.patch(harness, "run_trial", lambda f: span("harness.run_trial", f))
        for owner in (harness, scenario):
            self.patch(owner, "make_epidemic_snapshot",
                       lambda f: span("scenario.make_epidemic_snapshot", f))
            self.patch(owner, "generate_uniform_null",
                       lambda f: span("scenario.generate_uniform_null", f))
        self.patch(scenario, "apply_reporting", lambda f: span("scenario.apply_reporting", f))
        self.patch(calibration, "estimate_gamma", lambda f: span("calibration.estimate_gamma", f))
        self.patch(calibration, "gamma_for_set", lambda f: span("calibration.gamma_for_set", f))
        self.patch(scenario.ReportSnapshot, "load", lambda f: span("cli.snapshot_load", f))
        for cls in (graph.Graph, harness.NoisyView):
            for attr in ("nn_members", "ball_members"):
                self.patch(cls, attr, lambda f: self.counted(
                    "graph.neighborhood_queries", f, "graph.neighborhood_members"))
        for owner in (seeds, harness):
            self.patch(owner, "splitmix64",
                       lambda f: self.counted("seeds.splitmix64_calls", f))


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (the program is single-threaded), so
    the covered time is the sum of their durations.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def layer_summary(spans: list[list]) -> dict[str, dict]:
    """Per span name: calls, and the median inclusive and self seconds."""
    own = self_times(spans)
    incl, excl = defaultdict(list), defaultdict(list)
    for rec, self_t in zip(spans, own):
        incl[rec[0]].append(rec[2] - rec[1])
        excl[rec[0]].append(self_t)
    return {name: {"calls": len(incl[name]),
                   "median_s": statistics.median(incl[name]),
                   "self_median_s": statistics.median(excl[name])}
            for name in incl}
