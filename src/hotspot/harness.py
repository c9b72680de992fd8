"""Monte-Carlo experiment driver.

Runs matched epidemic/null trials over a swept parameter and reports type
I / type II error rates plus hotspot-count summaries per sweep point, as
CSV. Every trial's RNG stream is derived from (master seed, sweep name,
sweep value, scenario label, trial index), so sweeps are reproducible
byte-for-byte and trials can run in any order or in parallel.
"""

from __future__ import annotations

import io
import logging
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import calibration
from .detector import AUTO_DENSITY_CUTOFF, DetectorConfig, classify, prescribe
from .graph import (BALL, NN, Graph, gen_erdos_renyi, gen_grid, gen_power_law,
                    gen_tree, load_edge_list)
from .scenario import (EPIDEMIC, UNIFORM, ScenarioParams, generate_uniform_null,
                       make_epidemic_snapshot)
from .seeds import derive_seed, splitmix64, splitmix64_array

logger = logging.getLogger(__name__)

SWEEP_CSV_HEADER = ("sweep_value,trials,type1,type2,mean_error,"
                    "mean_hotspots_epi,sd_epi,mean_hotspots_null,sd_null")

# trial-count conventions: figure reproduction vs CI-grade acceptance runs
FIGURE_TRIALS = 2000
CI_TRIALS = 200
GAMMA_CALIBRATION_TRIALS = 50


@dataclass(frozen=True)
class TopologySpec:
    """Graph source for an experiment: a generator family or an edge-list file.

    With ``giant=True`` the experiment runs on the largest connected
    component, so contagions always have room to reach their target size
    (sparse random graphs leave a fifth of the nodes in dust components).
    """

    kind: str  # er | grid | tree | powerlaw | file
    n: int | None = None
    p: float | None = None
    dim: int | None = None
    side: int | None = None
    degree: int | None = None
    depth: int | None = None
    exponent: float | None = None
    path: str | None = None
    compact: bool = False
    giant: bool = False

    def build(self, seed: int) -> Graph:
        if self.kind == "er":
            p = self.p if self.p is not None else 2.0 / self.n
            g = gen_erdos_renyi(self.n, p, seed)
        elif self.kind == "grid":
            g = gen_grid(self.dim or 2, self.side)
        elif self.kind == "tree":
            g = gen_tree(self.degree, self.depth)
        elif self.kind == "powerlaw":
            g = gen_power_law(self.n, self.exponent or 2.5, seed)
        elif self.kind == "file":
            g = _load_cached(self.path, self.compact)
        else:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        if self.giant:
            g, _ = g.largest_component()
        return g

    @property
    def deterministic(self) -> bool:
        """True when build() ignores the seed (fixed graphs need no regeneration)."""
        return self.kind in ("grid", "tree", "file")


_FILE_CACHE: dict[tuple[str, bool], Graph] = {}


def _load_cached(path: str, compact: bool) -> Graph:
    key = (str(path), bool(compact))
    if key not in _FILE_CACHE:
        _FILE_CACHE[key] = load_edge_list(path, compact=compact)
    return _FILE_CACHE[key]


@dataclass(frozen=True)
class ScenarioRule:
    """Scenario parameters, optionally scaling with graph size.

    Effective values at size n are base * n**exp, so exponents of zero give
    plain constants. Example: alpha=1, alpha_exp=-0.7 yields an infection
    of n**0.3 nodes.
    """

    alpha: float
    q: float
    f: float
    num_seeds: int = 1
    alpha_exp: float = 0.0
    q_exp: float = 0.0
    f_exp: float = 0.0

    def for_n(self, n: int) -> ScenarioParams:
        return ScenarioParams(
            alpha=min(1.0, self.alpha * n ** self.alpha_exp),
            q=min(1.0, self.q * n ** self.q_exp),
            f=self.f * n ** self.f_exp,
            num_seeds=self.num_seeds,
        )


@dataclass(frozen=True)
class DistanceNoise:
    """Misestimated inter-node distances: each ordered (observer, target)
    pair with true distance > magnitude is shifted by +-magnitude with
    probability flip_prob (sign equiprobable)."""

    flip_prob: float
    magnitude: int = 1

    def __post_init__(self):
        if not 0.0 <= self.flip_prob <= 1.0:
            raise ValueError("flip_prob must be in [0, 1]")
        if self.magnitude < 1:
            raise ValueError("magnitude must be >= 1")


class NoisyView:
    """Neighborhood queries through an observer-dependent distance error.

    The perturbation of a pair is a pure function of (seed, observer,
    target): re-querying never re-rolls, and observer i can misjudge its
    distance to j while j judges i correctly. Membership uses perceived
    distance; nearest-neighbor sets re-rank by (perceived distance, id).
    """

    __slots__ = ("_g", "_noise", "_seed", "n")

    def __init__(self, g: Graph, noise: DistanceNoise, seed: int):
        self._g = g
        self._noise = noise
        self._seed = int(seed)
        self.n = g.n

    def _perceived(self, observer: int, target: int, true_d: int) -> int:
        mag = self._noise.magnitude
        if true_d <= mag:
            return true_d
        h = splitmix64(splitmix64(self._seed ^ (observer & 0xFFFFFFFFFFFFFFFF)) ^ target)
        if (h >> 11) / 9007199254740992.0 >= self._noise.flip_prob:  # 2**53
            return true_d
        return true_d + (mag if h & 1 else -mag)

    def _perceive(self, observers: np.ndarray, targets: np.ndarray, true_d: int) -> np.ndarray:
        """_perceived for arrays of pairs at one true distance."""
        mag = self._noise.magnitude
        if true_d <= mag:
            return np.full(targets.size, true_d, dtype=np.int64)
        seed = np.uint64(self._seed & 0xFFFFFFFFFFFFFFFF)
        h = splitmix64_array(splitmix64_array(seed ^ observers.astype(np.uint64))
                             ^ targets.astype(np.uint64))
        flip = (h >> np.uint64(11)) / 9007199254740992.0 < self._noise.flip_prob
        shift = np.where(h & np.uint64(1), mag, -mag)
        return np.where(flip, true_d + shift, true_d)

    def neighborhoods(self, centers: np.ndarray, size: int, mode: str):
        """Graph.neighborhoods ranked by perceived distance."""
        return self._g.neighborhoods(centers, size, mode, perceive=self._perceive,
                                     slack=self._noise.magnitude)

    def ball_members(self, i: int, l: int) -> list[int]:
        return self.neighborhoods(np.array([i]), l, BALL)[1].tolist()

    def nn_members(self, i: int, k: int) -> list[int]:
        return self.neighborhoods(np.array([i]), k, NN)[1].tolist()


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment: a topology, a scenario rule, a detector (explicit
    config or "auto"), a swept variable, and a master seed."""

    topology: TopologySpec
    scenario: ScenarioRule
    detector: DetectorConfig | str
    sweep_name: str
    sweep_values: tuple
    trials_per_point: int = CI_TRIALS
    master_seed: int = 0
    noise: DistanceNoise | None = None

    def __post_init__(self):
        if self.trials_per_point < 1:
            raise ValueError("trials_per_point must be >= 1")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty")
        if isinstance(self.detector, str) and self.detector != "auto":
            raise ValueError("detector must be a DetectorConfig or 'auto'")
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))


_TOPOLOGY_SWEEPS = {"n": "n", "p": "p", "side": "side", "exponent": "exponent"}
_SCENARIO_SWEEPS = {"alpha": "alpha", "q": "q", "f": "f", "num_seeds": "num_seeds"}
_NOISE_SWEEPS = {"flip_prob": "flip_prob", "noise_d": "magnitude"}
_DETECTOR_SWEEPS = {"k": "k_or_l", "l": "k_or_l", "s": "s", "t": "t"}


@dataclass(frozen=True)
class _Point:
    topology: TopologySpec
    scenario: ScenarioRule
    detector: DetectorConfig | str
    noise: DistanceNoise | None


def _resolve_point(spec: ExperimentSpec, value) -> _Point:
    name = spec.sweep_name
    topology, scenario, det, noise = spec.topology, spec.scenario, spec.detector, spec.noise
    if name in _TOPOLOGY_SWEEPS:
        cast = int if name in ("n", "side") else float
        topology = replace(topology, **{_TOPOLOGY_SWEEPS[name]: cast(value)})
    elif name in _SCENARIO_SWEEPS:
        cast = int if name == "num_seeds" else float
        scenario = replace(scenario, **{_SCENARIO_SWEEPS[name]: cast(value)})
    elif name in _NOISE_SWEEPS:
        if noise is None:
            noise = DistanceNoise(flip_prob=0.0)
        cast = int if name == "noise_d" else float
        noise = replace(noise, **{_NOISE_SWEEPS[name]: cast(value)})
    elif name in _DETECTOR_SWEEPS:
        if isinstance(det, str):
            raise ValueError("cannot sweep a detector field with detector='auto'")
        cast = float if name == "t" else int
        det = replace(det, **{_DETECTOR_SWEEPS[name]: cast(value)})
    else:
        raise ValueError(f"unknown sweep variable {name!r}")
    return _Point(topology=topology, scenario=scenario, detector=det, noise=noise)


def _auto_profile(spec: ExperimentSpec, sweep_value) -> calibration.GammaProfile:
    """gamma(K) for K = 1..ceil(ln N), estimated once per sweep point on the
    graph built from the sweep-point seed, so every trial of the point sees
    the same calibration whatever ran before it."""
    point = _resolve_point(spec, sweep_value)
    graph = point.topology.build(
        derive_seed(spec.master_seed, spec.sweep_name, sweep_value, "graph"))
    k_cap = max(1, math.ceil(math.log(max(graph.n, 2))))
    return calibration.estimate_gamma(
        graph, point.scenario.for_n(graph.n), range(1, k_cap + 1),
        GAMMA_CALIBRATION_TRIALS,
        derive_seed(spec.master_seed, spec.sweep_name, sweep_value, "calibration"))


def run_trial(spec: ExperimentSpec, sweep_value, label: str, trial_index: int,
              gamma_profile: calibration.GammaProfile | None = None):
    """Run one labeled trial; returns (Verdict, truth). Deterministic in
    (master_seed, sweep name+value, label, trial_index).

    With detector="auto" the trial is prescribed from ``gamma_profile``,
    which run_sweep computes once per point; a standalone call computes it.
    """
    point = _resolve_point(spec, sweep_value)
    root = derive_seed(spec.master_seed, spec.sweep_name, sweep_value, label, trial_index)
    graph_seed = (derive_seed(spec.master_seed, spec.sweep_name, sweep_value, "graph")
                  if point.topology.deterministic
                  else derive_seed(root, "graph"))
    graph = point.topology.build(graph_seed)
    params = point.scenario.for_n(graph.n)
    params.validate_for(graph.n)
    if label == EPIDEMIC:
        snapshot, _ = make_epidemic_snapshot(graph, params, derive_seed(root, "scenario"))
    elif label == UNIFORM:
        p_null = calibration.reporting_probabilities(params.q, params.alpha, params.f).p
        snapshot = generate_uniform_null(graph, p_null, derive_seed(root, "scenario"))
    else:
        raise ValueError(f"unknown scenario label {label!r}")
    view = graph
    if point.noise is not None and point.noise.flip_prob > 0.0:
        view = NoisyView(graph, point.noise, derive_seed(root, "noise"))
    if isinstance(point.detector, str):
        if gamma_profile is None:
            gamma_profile = _auto_profile(spec, sweep_value)
        cfg = prescribe(graph.n, len(snapshot.reporting), q=params.q,
                        alpha=params.alpha, f=params.f, gamma=gamma_profile)
    else:
        cfg = point.detector
    verdict = classify(view, snapshot.reporting, cfg, keep_indicators=False)
    return verdict, snapshot.truth


@dataclass
class SweepRow:
    sweep_value: object
    trials: int
    type1: float
    type2: float
    mean_error: float
    mean_hotspots_epi: float
    sd_epi: float
    mean_hotspots_null: float
    sd_null: float
    failures: int = 0

    def csv_row(self) -> str:
        vals = [self.sweep_value, self.trials]
        vals += [f"{x:.10g}" for x in (self.type1, self.type2, self.mean_error,
                                       self.mean_hotspots_epi, self.sd_epi,
                                       self.mean_hotspots_null, self.sd_null)]
        return ",".join(str(v) for v in vals)


@dataclass
class SweepResult:
    rows: list[SweepRow] = field(default_factory=list)

    def to_csv_text(self) -> str:
        out = io.StringIO()
        out.write(SWEEP_CSV_HEADER + "\n")
        for row in self.rows:
            out.write(row.csv_row() + "\n")
        return out.getvalue()

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_csv_text())


def _mean_sd(values: list[int]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (len(values) - 1)
    return mean, math.sqrt(var)


def _point_outcomes(spec: ExperimentSpec, value):
    """All trial verdicts for one sweep point, keyed by scenario label.

    Raises ValueError when every trial of a label failed: rates over zero
    trials would read as a perfect detector.
    """
    profile = _auto_profile(spec, value) if isinstance(spec.detector, str) else None
    per_label: dict[str, list] = {EPIDEMIC: [], UNIFORM: []}
    failures = 0
    for label in (EPIDEMIC, UNIFORM):
        for trial in range(spec.trials_per_point):
            try:
                verdict, _ = run_trial(spec, value, label, trial, profile)
            except Exception:
                failures += 1
                logger.exception("trial %d (%s) at %s=%r failed",
                                 trial, label, spec.sweep_name, value)
                continue
            per_label[label].append(verdict)
        if not per_label[label]:
            raise ValueError(f"all {spec.trials_per_point} {label} trials failed "
                             f"at {spec.sweep_name}={value!r}")
    return per_label, failures


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """trials_per_point epidemic + trials_per_point null trials per value.

    type1 = fraction of null trials declared epidemic; type2 = fraction of
    epidemic trials declared uniform; mean_error = their average.
    """
    result = SweepResult()
    for value in spec.sweep_values:
        per_label, failures = _point_outcomes(spec, value)
        epi, null = per_label[EPIDEMIC], per_label[UNIFORM]
        type1 = sum(1 for v in null if v.label == EPIDEMIC) / len(null)
        type2 = sum(1 for v in epi if v.label == UNIFORM) / len(epi)
        mean_epi, sd_epi = _mean_sd([v.hotspot_count for v in epi])
        mean_null, sd_null = _mean_sd([v.hotspot_count for v in null])
        result.rows.append(SweepRow(
            sweep_value=value, trials=spec.trials_per_point,
            type1=type1, type2=type2, mean_error=(type1 + type2) / 2.0,
            mean_hotspots_epi=mean_epi, sd_epi=sd_epi,
            mean_hotspots_null=mean_null, sd_null=sd_null,
            failures=failures))
        if failures:
            logger.warning("%d trial failure(s) at %s=%r", failures,
                           spec.sweep_name, value)
    return result


def threshold_sweep(spec: ExperimentSpec, t_values) -> SweepResult:
    """Error rates per decision threshold, reusing one set of snapshots.

    The spec must have a single sweep point; hotspot counts are computed
    once per trial and re-thresholded, so each row matches a run_sweep of
    the same spec with that fixed t exactly.
    """
    if len(spec.sweep_values) != 1:
        raise ValueError("threshold_sweep needs a spec with exactly one sweep point")
    t_values = list(t_values)
    if not t_values:
        raise ValueError("t_values must be nonempty")
    value = spec.sweep_values[0]
    per_label, failures = _point_outcomes(spec, value)
    epi = [v.hotspot_count for v in per_label[EPIDEMIC]]
    null = [v.hotspot_count for v in per_label[UNIFORM]]
    mean_epi, sd_epi = _mean_sd(epi)
    mean_null, sd_null = _mean_sd(null)
    result = SweepResult()
    for t in t_values:
        type1 = sum(1 for c in null if c > t) / len(null)
        type2 = sum(1 for c in epi if not c > t) / len(epi)
        result.rows.append(SweepRow(
            sweep_value=t, trials=spec.trials_per_point,
            type1=type1, type2=type2, mean_error=(type1 + type2) / 2.0,
            mean_hotspots_epi=mean_epi, sd_epi=sd_epi,
            mean_hotspots_null=mean_null, sd_null=sd_null,
            failures=failures))
    return result


# -- flat key=value experiment configs ----------------------------------------


def _parse_scalar(text: str):
    text = text.strip()
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        return text


def read_config(path) -> ExperimentSpec:
    """Build an ExperimentSpec from a flat key=value file ('#' comments)."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if "=" not in stripped:
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            key, _, val = stripped.partition("=")
            raw[key.strip()] = val.strip()
    return spec_from_mapping(raw)


def spec_from_mapping(raw: dict[str, str]) -> ExperimentSpec:
    def get(key, cast, default=None):
        if key in raw:
            return cast(raw[key])
        return default

    topology = TopologySpec(
        kind=raw.get("topology", "er"),
        n=get("n", int), p=get("p", float), dim=get("dim", int),
        side=get("side", int), degree=get("degree", int), depth=get("depth", int),
        exponent=get("exponent", float), path=raw.get("path"),
        compact=raw.get("compact", "false").lower() in ("1", "true", "yes"),
        giant=raw.get("giant", "false").lower() in ("1", "true", "yes"))
    scenario = ScenarioRule(
        alpha=get("alpha", float, 0.1), q=get("q", float, 1.0),
        f=get("f", float, 0.0), num_seeds=get("num_seeds", int, 1),
        alpha_exp=get("alpha_exp", float, 0.0), q_exp=get("q_exp", float, 0.0),
        f_exp=get("f_exp", float, 0.0))
    det_kind = raw.get("detector", "nn")
    if det_kind == "auto":
        detector: DetectorConfig | str = "auto"
    elif det_kind == "nn":
        k = get("k", int, 1)
        detector = DetectorConfig.nn(k=k, t=get("t", float, 0.0), s=get("s", int, k))
    elif det_kind == "ball":
        detector = DetectorConfig.ball_mode(
            l=get("l", int, 2), s=get("s", int, 1), t=get("t", float, 0.0))
    else:
        raise ValueError(f"unknown detector kind {det_kind!r}")
    noise = None
    if "noise_prob" in raw:
        noise = DistanceNoise(flip_prob=float(raw["noise_prob"]),
                              magnitude=get("noise_d", int, 1))
    sweep_name = raw.get("sweep", "t")
    values_txt = raw.get("values", "0")
    sweep_values = tuple(_parse_scalar(v) for v in values_txt.split(",") if v.strip())
    return ExperimentSpec(
        topology=topology, scenario=scenario, detector=detector,
        sweep_name=sweep_name, sweep_values=sweep_values,
        trials_per_point=get("trials", int, CI_TRIALS),
        master_seed=get("seed", int, 0), noise=noise)


def describe_defaults() -> str:
    """Every behavioral default a run depends on, for self-documenting output."""
    return "\n".join([
        "decision rule: declare epidemic iff hotspot_count > t (strict)",
        "log base for K prescriptions: natural (e); override with --log-base",
        "K floor: prescriptions clamp K to >= 1",
        "nearest-neighbor tie-break: ascending node id within the final distance shell",
        "neighborhoods exclude their center; a node's own report is never counted",
        "small-regime threshold: t = 0.5, i.e. any hotspot declares an epidemic",
        "auto regime selection: dense prescription when the observed density "
        f"|R|/N > {AUTO_DENSITY_CUTOFF}, else small with beta = 1 - log max(|R|,2)/log N "
        "unless given",
        "matched null probability: p = (f+1)*q*alpha",
        "SI stopping rule: grow until ceil(alpha*N) nodes are infected",
        "SI edge clocks: unit-rate exponential",
        "extra reporters: round(f*|true reporters|) nodes, round-half-even, "
        "drawn uniformly from outside the true-reporter set",
        "disconnected graphs: contagion confined to seed components (flagged)",
        "distance noise: per ordered (observer,target) pair, stable within a trial",
        f"multi-K test cap: K <= ceil(ln N); gamma estimation trials default "
        f"{GAMMA_CALIBRATION_TRIALS} (auto mode)",
        f"trial counts: {FIGURE_TRIALS} for figure reproduction, {CI_TRIALS} "
        "for CI-grade runs",
        "gamma estimator: mean of per-realization interior fractions",
        "seed derivation: splitmix64 chain over (master, sweep, value, label, trial)",
        "CLI exit codes: 0 = uniform reporting, 2 = epidemic, 1 = error",
    ])
