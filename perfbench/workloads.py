"""The four benchmark workloads.

Each workload is one closed loop with a single caller: set up inputs from
the workload seed, then call one public entry point per operation and wait
for it. ``op(i)`` is the timed call; everything else (accounting, the CLI
counterpart, brute-force checks) runs outside the timed region. Operation i
gets the same inputs in every worker process of a run, so repetitions in
fresh interpreters must agree exactly.

Why each workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

import hashlib
import math
import os
import random

from hotspot import calibration, detector, graph, harness, scenario

import oracle
from tracing import Tracer

EPIDEMIC, UNIFORM = scenario.EPIDEMIC, scenario.UNIFORM


def bench_seed(seed: int, *tokens) -> int:
    """31-bit input seed from the workload seed, independent of the
    package's own seed derivation."""
    text = "/".join(str(t) for t in (seed, *tokens)).encode()
    return int.from_bytes(hashlib.blake2b(text, digest_size=4).digest(), "little") >> 1


def er_giant(n: int, seed: int) -> graph.Graph:
    return harness.TopologySpec(kind="er", n=n, giant=True).build(seed)


def csr_bytes(g: graph.Graph) -> int:
    """Bytes held by g's adjacency arrays: n+1 offsets, 2m neighbor ids."""
    return ((g.n + 1) * g.degrees().itemsize
            + 2 * g.num_edges * g.neighbors(0).itemsize)


class Checks:
    """Counts attempted checks and keeps a line per failed one."""

    def __init__(self):
        self.attempted = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.problems.append(what)


def capture(owner, attr: str, run):
    """run() and the (args, result) of every call it made to owner.attr."""
    calls = []
    tracer = Tracer()

    def make(fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            calls.append((args, result))
            return result
        return wrapper

    tracer.patch(owner, attr, make)
    try:
        return run(), calls
    finally:
        tracer.uninstall()


def brute_members(g, i: int, cfg) -> list[int]:
    if cfg.mode == detector.NN:
        return oracle.nn_oracle(g, i, cfg.k_or_l)
    return oracle.ball_oracle(g, i, cfg.k_or_l)


# -- harness sweeps -------------------------------------------------------------


class _Sweep:
    """One operation is one run_sweep call over two sweep points with one
    epidemic and one null trial each, on a master seed of its own."""

    trials_per_point = 1
    cli_calls = 3
    sweep_name: str
    sweep_values: tuple

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.csv0 = None

    def master(self, i) -> int:
        return bench_seed(self.seed, self.name, "op", i)

    def spec(self, i) -> harness.ExperimentSpec:
        return harness.ExperimentSpec(
            topology=self.topology, scenario=self.rule, detector=self.detector,
            sweep_name=self.sweep_name, sweep_values=self.sweep_values,
            trials_per_point=self.trials_per_point, master_seed=self.master(i),
            noise=self.noise)

    def warm(self) -> None:
        harness.run_sweep(self.spec("warm"))

    def op(self, i):
        return harness.run_sweep(self.spec(i))

    def account(self, i, result) -> tuple[int, int, str]:
        """(trials attempted, trials failed, digest of the CSV bytes)."""
        text = result.to_csv_text()
        if i == 0:
            self.csv0 = text
        trials = 2 * self.trials_per_point * len(self.sweep_values)
        failed = sum(row.failures for row in result.rows)
        return trials, failed, hashlib.sha256(text.encode()).hexdigest()

    def cli(self, call: int) -> tuple[list[str], str, int]:
        """A `hotspot sweep` call that must print op 0's CSV byte for byte."""
        values = ",".join(str(v) for v in self.sweep_values)
        return ([*self.cli_flags, "--sweep", self.sweep_name, "--values", values,
                 "--trials", str(self.trials_per_point), "--seed", str(self.master(0))],
                self.csv0, 0)

    def check(self, checks: Checks, digests: list[str]) -> dict:
        rng = random.Random(bench_seed(self.seed, self.name, "check"))
        inputs = {}
        for i in sorted({0, rng.randrange(1, len(digests))}):
            result, calls = capture(harness, "classify", lambda: harness.run_sweep(self.spec(i)))
            # (view, reporting, cfg, verdict) of every trial, in run order
            seen = [(args[0], set(args[1]), args[2], verdict) for args, verdict in calls]
            _, failed, digest = self.account(-1, result)
            checks.expect(digest == digests[i], f"op {i}: CSV differs on rerun")
            expected = 2 * self.trials_per_point * len(self.sweep_values)
            checks.expect(failed == 0 and len(seen) == expected,
                          f"op {i}: {len(seen)}/{expected} trials classified, "
                          f"{failed} failure(s) in SweepRow.failures")
            if len(seen) != expected:
                continue
            for j, row in enumerate(result.rows):
                epi, null = seen[2 * j][3], seen[2 * j + 1][3]
                want = (float(null.label == EPIDEMIC), float(epi.label == UNIFORM),
                        float(epi.hotspot_count), float(null.hotspot_count))
                got = (row.type1, row.type2, row.mean_hotspots_epi, row.mean_hotspots_null)
                checks.expect(got == want, f"op {i} row {j}: {got} != verdicts {want}")
            for view, reporting, cfg, verdict in seen:
                if isinstance(view, graph.Graph):
                    count = sum(oracle.indicator(brute_members(view, r, cfg), reporting, cfg.s)
                                for r in reporting)
                    checks.expect(count == verdict.hotspot_count,
                                  f"op {i}: hotspot count {verdict.hotspot_count}, "
                                  f"brute force {count}")
            g = seen[0][0]
            inputs = {"n": g.n, "edges": g.num_edges, "csr_bytes": csr_bytes(g),
                      "reporters_per_trial": [len(s[1]) for s in seen]}
            self.check_noisy(checks, seen, rng)
        return inputs

    def check_noisy(self, checks, seen, rng) -> None:
        pass


class SweepErGiant(_Sweep):
    name = "sweep_er_giant"
    ops = 25
    sweep_name, sweep_values = "s", (2, 4)

    def setup(self) -> None:
        self.topology = harness.TopologySpec(kind="er", n=8000, giant=True)
        self.rule = harness.ScenarioRule(alpha=0.13, q=0.22, f=1.0)
        self.detector = detector.DetectorConfig.ball_mode(l=3, s=1, t=0.0)
        self.noise = None
        self.cli_flags = ["sweep", "--topology", "er", "--n", "8000", "--giant",
                          "--alpha", "0.13", "--q", "0.22", "--f", "1.0",
                          "--detector", "ball", "--l", "3", "--s", "1", "--t", "0"]

    def params(self) -> dict:
        return {"topology": "er giant, n=8000, p=2/n, rebuilt per trial",
                "alpha": 0.13, "q": 0.22, "f": 1.0, "detector": "ball l=3 t=0",
                "sweep": f"s in {self.sweep_values}",
                "trials_per_point": self.trials_per_point, "ops_per_worker": self.ops}


class SweepNoisyFile(_Sweep):
    name = "sweep_noisy_file"
    ops = 20
    sweep_name, sweep_values = "flip_prob", (0, 0.2)
    f = 4 / 3

    def setup(self) -> None:
        g = er_giant(8000, bench_seed(self.seed, self.name, "graph"))
        path = os.path.join(self.workdir, "graph.txt")
        graph.save_edge_list(g, path)
        self.topology = harness.TopologySpec(kind="file", path=path)
        # a sweep loads its file once; pay that here, as a user would once
        self.topology.build(0)
        self.rule = harness.ScenarioRule(alpha=0.2, q=0.3, f=self.f)
        self.detector = detector.DetectorConfig.nn(k=6, s=3, t=55.0)
        self.noise = harness.DistanceNoise(flip_prob=0.0, magnitude=2)
        self.cli_flags = ["sweep", "--graph", path, "--alpha", "0.2", "--q", "0.3",
                          "--f", repr(self.f), "--detector", "nn", "--k", "6",
                          "--s", "3", "--t", "55", "--noise-prob", "0", "--noise-d", "2"]

    def params(self) -> dict:
        return {"topology": "er giant, n=8000, p=2/n, fixed, read from an edge-list file",
                "alpha": 0.2, "q": 0.3, "f": self.f, "detector": "nn k=6 s=3 t=55",
                "noise_magnitude": 2, "sweep": f"flip_prob in {self.sweep_values}",
                "trials_per_point": self.trials_per_point, "ops_per_worker": self.ops}

    def check_noisy(self, checks, seen, rng) -> None:
        """Perceived-distance neighborhoods against the rule applied by hand,
        on a sample of one noisy trial's reporters."""
        g = next(view for view, *_ in seen if isinstance(view, graph.Graph))
        reporting, cfg = next((r, c) for view, r, c, _ in seen
                              if isinstance(view, harness.NoisyView))
        noise_seed = rng.getrandbits(63)
        view = harness.NoisyView(g, harness.DistanceNoise(flip_prob=0.2, magnitude=2),
                                 noise_seed)
        verdict = detector.classify(view, reporting, cfg, keep_indicators=True)
        checks.expect(verdict.hotspot_count == sum(verdict.per_node.values()),
                      "noisy view: hotspot count != sum of indicators")
        for r in rng.sample(sorted(reporting), 24):
            members = oracle.noisy_nn_oracle(g, r, cfg.k_or_l, noise_seed, 0.2, 2)
            checks.expect(oracle.indicator(members, reporting, cfg.s) == verdict.per_node[r],
                          f"noisy view: indicator of reporter {r} differs from brute force")


# -- classify on a million-node graph ---------------------------------------


class DetectMillion:
    """One operation classifies one pre-generated snapshot in process."""

    name = "detect_million"
    n = 1_000_000
    snapshots_per_kind = 8
    ops = 32
    cli_calls = 1

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.g = er_giant(self.n, bench_seed(self.seed, self.name, "graph"))
        self.graph_path = os.path.join(self.workdir, "graph.txt")
        graph.save_edge_list(self.g, self.graph_path)
        params = scenario.ScenarioParams(alpha=0.02, q=0.5, f=1.0)
        p_null = calibration.reporting_probabilities(params.q, params.alpha, params.f).p
        self.snaps = []
        for j in range(self.snapshots_per_kind):
            epi, _ = scenario.make_epidemic_snapshot(
                self.g, params, bench_seed(self.seed, self.name, "epidemic", j))
            null = scenario.generate_uniform_null(
                self.g, p_null, bench_seed(self.seed, self.name, "null", j))
            self.snaps += [epi, null]
        self.snap_paths = []
        for j in (0, 1):
            path = os.path.join(self.workdir, f"snapshot{j}.txt")
            self.snaps[j].save(path)
            self.snap_paths.append(path)
        # t sits between the two hypotheses' hotspot counts (~10^3 vs ~10)
        self.cfg = detector.DetectorConfig.nn(k=2, s=2, t=50.0)
        self.verdicts = {}

    def params(self) -> dict:
        return {"topology": "er giant, n=10^6, p=2/n, fixed", "alpha": 0.02, "q": 0.5,
                "f": 1.0, "detector": "nn k=2 s=2 t=50",
                "snapshots": f"{self.snapshots_per_kind} epidemic + "
                             f"{self.snapshots_per_kind} matched null",
                "ops_per_worker": self.ops}

    def warm(self) -> None:
        detector.classify(self.g, self.snaps[0].reporting, self.cfg, keep_indicators=False)

    def op(self, i):
        return detector.classify(self.g, self.snaps[i % len(self.snaps)].reporting,
                                 self.cfg, keep_indicators=False)

    def account(self, i, verdict) -> tuple[int, int, str]:
        self.verdicts.setdefault(i % len(self.snaps), verdict)
        return 1, 0, f"{verdict.label}:{verdict.hotspot_count}"

    def cli(self, call: int) -> tuple[list[str], str, int]:
        """`hotspot detect` on the epidemic or the null snapshot file; it
        must print the in-process verdict row and exit 2 or 0 to match."""
        j = call % 2
        verdict = self.verdicts[j]
        args = ["detect", "--graph", self.graph_path, "--snapshot", self.snap_paths[j],
                "--mode", "nn", "--k", "2", "--s", "2", "--t", "50"]
        code = 2 if verdict.label == EPIDEMIC else 0
        return args, verdict.csv_row(self.snaps[j].truth) + "\n", code

    def check(self, checks: Checks, digests: list[str]) -> dict:
        rng = random.Random(bench_seed(self.seed, self.name, "check"))
        for j in (rng.randrange(0, len(self.snaps), 2), rng.randrange(1, len(self.snaps), 2)):
            reporting = self.snaps[j].reporting
            verdict = detector.classify(self.g, reporting, self.cfg, keep_indicators=True)
            checks.expect(f"{verdict.label}:{verdict.hotspot_count}" == digests[j]
                          and verdict.hotspot_count == sum(verdict.per_node.values()),
                          f"snapshot {j}: verdict differs on rerun or from its indicators")
            for r in rng.sample(sorted(reporting), 48):
                members = oracle.nn_oracle(self.g, r, 2)
                checks.expect(oracle.indicator(members, reporting, 2) == verdict.per_node[r],
                              f"snapshot {j}: indicator of reporter {r} differs "
                              "from brute force")
        return {"n": self.g.n, "edges": self.g.num_edges, "csr_bytes": csr_bytes(self.g),
                "reporters_per_snapshot": [len(s.reporting) for s in self.snaps]}


# -- gamma calibration -------------------------------------------------------


class CalibrateGamma:
    """One operation is one dense-regime calibration: estimate_gamma over
    K = 1..ceil(ln N), solve_k, then select_params_dense."""

    name = "calibrate_gamma"
    ops = 10
    cli_calls = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        self.g = er_giant(8000, bench_seed(self.seed, self.name, "graph"))
        self.graph_path = os.path.join(self.workdir, "graph.txt")
        graph.save_edge_list(self.g, self.graph_path)
        self.params_ = scenario.ScenarioParams(alpha=0.13, q=0.22, f=1.0)
        self.k_values = range(1, math.ceil(math.log(self.g.n)) + 1)
        self.probs = calibration.reporting_probabilities(0.22, 0.13, 1.0)
        self.n_reporting = round(self.probs.p * self.g.n)
        self.results = {}

    def params(self) -> dict:
        return {"topology": "er giant, n=8000, p=2/n, fixed", "alpha": 0.13, "q": 0.22,
                "f": 1.0, "k_values": f"1..{self.k_values[-1]}",
                "trials": harness.GAMMA_CALIBRATION_TRIALS, "ops_per_worker": self.ops}

    def master(self, i) -> int:
        return bench_seed(self.seed, self.name, "op", i)

    def warm(self) -> None:
        calibration.estimate_gamma(self.g, self.params_, self.k_values, 1, self.master("warm"))

    def op(self, i):
        profile = calibration.estimate_gamma(self.g, self.params_, self.k_values,
                                             harness.GAMMA_CALIBRATION_TRIALS, self.master(i))
        k = calibration.solve_k(profile, self.params_.f)
        cfg = detector.select_params_dense(profile.gamma(k), self.params_.f,
                                           self.probs.p_in, self.probs.p, self.n_reporting)
        return profile, k, cfg

    def account(self, i, result) -> tuple[int, int, str]:
        self.results.setdefault(i, result)
        profile, k, cfg = result
        return 1, 0, repr(([(e.k, e.gamma, e.stderr) for e in profile.entries],
                           k, cfg.k_or_l, cfg.t))

    def cli(self, call: int) -> tuple[list[str], str, int]:
        """`hotspot gamma` with op 0's seed must print op 0's profile."""
        profile = self.results[0][0]
        lines = [",".join(calibration.GAMMA_CSV_HEADER)]
        lines += [f"{e.k},{e.gamma:.10g},{e.stderr:.10g},{e.trials},{profile.topology}"
                  for e in profile.entries]
        return (["gamma", "--graph", self.graph_path, "--alpha", "0.13", "--q", "0.22",
                 "--f", "1.0", "--trials", str(harness.GAMMA_CALIBRATION_TRIALS),
                 "--seed", str(self.master(0))], "\n".join(lines) + "\n", 0)

    def check(self, checks: Checks, digests: list[str]) -> dict:
        rng = random.Random(bench_seed(self.seed, self.name, "check"))
        f = self.params_.f
        result, calls = capture(calibration, "gamma_for_set", lambda: self.op(0))
        # (infected set, K values, gamma per K) of every realization
        captured = [(set(args[1]), list(args[2]), gammas) for args, gammas in calls]
        profile, k, cfg = result
        checks.expect(self.account(-1, result)[2] == digests[0], "op 0: profile differs on rerun")
        for j, entry in enumerate(profile.entries):
            mean = sum(c[2][j] for c in captured) / len(captured)
            checks.expect(math.isclose(entry.gamma, mean, rel_tol=1e-9, abs_tol=1e-12),
                          f"gamma({entry.k}) = {entry.gamma}, mean of realizations {mean}")
        for infected, k_values, gammas in rng.sample(captured, 2):
            for kk, got in zip(k_values, gammas):
                want = oracle.interior_fraction(self.g, infected, kk)
                checks.expect(math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12),
                              f"gamma_for_set K={kk}: {got}, brute force {want}")
        ok = [e.k for e in profile.entries
              if e.gamma > 0 and e.k >= math.log((f + 1.0) / e.gamma)]
        checks.expect(k == (ok[0] if ok else profile.entries[-1].k),
                      f"solve_k gave {k}, smallest qualifying K is {ok[:1]}")
        gamma = profile.gamma(k)
        want_k = max(1, math.ceil(math.log((f + 1.0) / gamma)))
        want_t = (self.n_reporting / 2.0) * (gamma * self.probs.p_in ** want_k / (f + 1.0)
                                             + self.probs.p ** want_k)
        checks.expect(cfg.k_or_l == want_k and math.isclose(cfg.t, want_t, rel_tol=1e-12),
                      f"select_params_dense gave K={cfg.k_or_l} T={cfg.t}, "
                      f"expected K={want_k} T={want_t}")
        return {"n": self.g.n, "edges": self.g.num_edges, "csr_bytes": csr_bytes(self.g),
                "infected_per_realization": len(captured[0][0]),
                "reporters_for_t": self.n_reporting}


WORKLOADS = {w.name: w for w in (SweepErGiant, SweepNoisyFile, DetectMillion, CalibrateGamma)}
