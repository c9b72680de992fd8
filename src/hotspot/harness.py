"""Monte-Carlo experiment driver.

Runs matched epidemic/null trials over a swept parameter and reports type
I / type II error rates plus hotspot-count summaries per sweep point, as
CSV. Every trial's RNG stream is derived from (master seed, sweep name,
sweep value, scenario label, trial index), so sweeps are reproducible
byte-for-byte and trials can run in any order or in parallel.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import calibration
from .detector import AUTO_DENSITY_CUTOFF, DetectorConfig, classify, prescribe
from .graph import (BALL, NN, Graph, check_erdos_renyi, check_power_law,
                    gen_erdos_renyi, gen_grid, gen_power_law, gen_tree, load_edge_list)
from .scenario import (EPIDEMIC, UNIFORM, ScenarioParams, generate_uniform_null,
                       make_epidemic_snapshot)
# splitmix64 is unused here: perfbench/tracing.py patches it on this module
from .seeds import derive_seed, splitmix64, splitmix64_array

SWEEP_CSV_HEADER = ("sweep_value,trials,type1,type2,mean_error,"
                    "mean_hotspots_epi,sd_epi,mean_hotspots_null,sd_null")

# default trials per sweep point and label, and per auto-regime calibration
CI_TRIALS = 200
GAMMA_CALIBRATION_TRIALS = 50

_REQUIRED_FIELDS = {"er": ("n",), "powerlaw": ("n",), "grid": ("side",),
                    "tree": ("degree", "depth"), "file": ("path",)}
_FIXED_KINDS = ("grid", "tree", "file")


@dataclass(frozen=True)
class TopologySpec:
    """Graph source for an experiment: a generator family or an edge-list file.

    With ``giant=True`` the experiment runs on the largest connected
    component, so contagions always have room to reach their target size
    (sparse random graphs leave a fifth of the nodes in dust components).

    A fixed kind (grid, tree, file) is built on the first ``build`` and
    kept by the spec, so every trial that shares the spec shares one graph;
    a new spec (``dataclasses.replace`` included) builds, or reads, afresh.
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
    _graph: Graph | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in _REQUIRED_FIELDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        missing = [f for f in _REQUIRED_FIELDS[self.kind] if getattr(self, f) is None]
        if missing:
            raise ValueError(f"topology {self.kind} needs {' and '.join(missing)}")
        # a random kind is built anew in every trial: its generator's checks
        # run here, so a bad size fails the spec once, not the first trial
        if self.kind == "er":
            check_erdos_renyi(self.n, self._p())
        elif self.kind == "powerlaw":
            check_power_law(self.n, self._exponent())

    def _p(self) -> float:
        # the default p is 2/n; n < 1 is left to the generator's check
        return self.p if self.p is not None else 2.0 / self.n if self.n else 0.0

    def _exponent(self) -> float:
        return 2.5 if self.exponent is None else self.exponent

    def build(self, seed: int) -> Graph:
        """The graph; the seed matters only to the random kinds (er, powerlaw)."""
        if self._graph is not None:
            return self._graph
        if self.kind == "er":
            g = gen_erdos_renyi(self.n, self._p(), seed)
        elif self.kind == "grid":
            g = gen_grid(2 if self.dim is None else self.dim, self.side)
        elif self.kind == "tree":
            g = gen_tree(self.degree, self.depth)
        elif self.kind == "powerlaw":
            g = gen_power_law(self.n, self._exponent(), seed)
        else:
            g = load_edge_list(self.path, compact=self.compact)
        if self.giant:
            g, _ = g.largest_component()
        if self.kind in _FIXED_KINDS:
            object.__setattr__(self, "_graph", g)
        return g


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

    def __post_init__(self):
        for name in ("alpha", "q", "f", "alpha_exp", "q_exp", "f_exp"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")

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
        if not isinstance(self.magnitude, (int, np.integer)):
            raise ValueError(f"magnitude must be an integer, got {self.magnitude!r}")
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

    def _perceive(self, centers: np.ndarray, owner: np.ndarray, targets: np.ndarray,
                  true_d: int) -> np.ndarray:
        """Perceived distances of the pairs (centers[owner[i]], targets[i]) at
        true distance true_d, by DistanceNoise's rule keyed by (seed,
        observer, target)."""
        mag = self._noise.magnitude
        if true_d <= mag:
            return np.full(targets.size, true_d, dtype=np.int64)
        seed = np.uint64(self._seed & 0xFFFFFFFFFFFFFFFF)
        # the observer's half of the key, hashed once per center
        observed = splitmix64_array(seed ^ centers.astype(np.uint64))
        h = splitmix64_array(observed[owner] ^ targets.astype(np.uint64))
        # (h >> 11) / 2**53 < flip_prob, scaled by a power of two: exact
        flip = np.flatnonzero((h >> np.uint64(11)) < self._noise.flip_prob * 2.0**53)
        dist = np.full(targets.size, true_d, dtype=np.int64)
        dist[flip] += np.where(h[flip] & np.uint64(1), mag, -mag)
        return dist

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
        if self.sweep_name not in _SWEEPS:
            raise ValueError(f"unknown sweep variable {self.sweep_name!r}")
        part, _, cast = _SWEEPS[self.sweep_name]
        if isinstance(self.detector, str) and part == "detector":
            raise ValueError("cannot sweep a detector field with detector='auto'")
        for value in self.sweep_values:  # kept as given: seed tokens and CSV labels
            try:
                ok = cast(value) == value
            except (TypeError, ValueError):
                ok = False
            if not ok:
                raise ValueError(f"sweep {self.sweep_name}: value {value!r} is not "
                                 + _EXPECTED[cast])
        object.__setattr__(self, "sweep_values", tuple(self.sweep_values))


_EXPECTED = {int: "an integer", float: "a number"}


def cast_value(label: str, text: str, cast):
    """``cast(text)`` for cast int or float; on failure a ValueError
    "<label>: expected an integer" (or "a number")."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{label}: expected {_EXPECTED[cast]}") from None


# sweep name -> (part of the experiment, field of that part, cast of the value)
_SWEEPS = {
    "n": ("topology", "n", int), "p": ("topology", "p", float),
    "side": ("topology", "side", int), "exponent": ("topology", "exponent", float),
    "alpha": ("scenario", "alpha", float), "q": ("scenario", "q", float),
    "f": ("scenario", "f", float), "num_seeds": ("scenario", "num_seeds", int),
    "flip_prob": ("noise", "flip_prob", float), "noise_d": ("noise", "magnitude", int),
    "k": ("detector", "k_or_l", int), "l": ("detector", "k_or_l", int),
    "s": ("detector", "s", int), "t": ("detector", "t", float),
}


@dataclass(frozen=True)
class _Point:
    """One sweep value's experiment, prepared once for all of its trials."""

    topology: TopologySpec
    scenario: ScenarioRule
    detector: DetectorConfig | str
    noise: DistanceNoise | None
    gamma: calibration.GammaProfile | None = None


def _prepare_point(spec: ExperimentSpec, value) -> _Point:
    """Set the swept field to ``value`` and build a fixed kind's graph, so a
    graph that cannot be built fails the point once, before any trial. With
    detector="auto", also estimate gamma(K) for K = 1..ceil(ln N) on the
    graph built from the sweep-point seed, so every trial of the point sees
    the same calibration whatever ran before it."""
    part, name, cast = _SWEEPS[spec.sweep_name]
    parts = dict(topology=spec.topology, scenario=spec.scenario,
                 detector=spec.detector, noise=spec.noise)
    if parts[part] is None:  # a noise field swept without a base noise
        parts[part] = DistanceNoise(flip_prob=0.0)
    parts[part] = replace(parts[part], **{name: cast(value)})
    point = _Point(**parts)
    auto = isinstance(point.detector, str)
    if auto or point.topology.kind in _FIXED_KINDS:
        graph = point.topology.build(
            derive_seed(spec.master_seed, spec.sweep_name, value, "graph"))
    if not auto:
        return point
    gamma = calibration.estimate_gamma(
        graph, point.scenario.for_n(graph.n), range(1, calibration.k_cap(graph.n) + 1),
        GAMMA_CALIBRATION_TRIALS,
        derive_seed(spec.master_seed, spec.sweep_name, value, "calibration"))
    return replace(point, gamma=gamma)


def run_trial(spec: ExperimentSpec, sweep_value, label: str, trial_index: int,
              point: _Point | None = None):
    """Run one labeled trial; returns (Verdict, truth). Deterministic in
    (master_seed, sweep name+value, label, trial_index).

    ``point`` is the prepared sweep point, which run_sweep makes once per
    value; a standalone call prepares its own.
    """
    if point is None:
        point = _prepare_point(spec, sweep_value)
    root = derive_seed(spec.master_seed, spec.sweep_name, sweep_value, label, trial_index)
    graph = point.topology.build(derive_seed(root, "graph"))
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
        cfg = prescribe(graph.n, len(snapshot.reporting), q=params.q,
                        alpha=params.alpha, f=params.f, gamma=point.gamma)
    else:
        cfg = point.detector
    # Python ints: perfbench's noisy check masks these ids as uint64 (np.int64 overflows)
    verdict = classify(view, snapshot.reporting.tolist(), cfg)
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
    failures: int = 0  # always 0: a failed trial stops the sweep

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


def _point_outcomes(spec: ExperimentSpec, value):
    """All trial verdicts for one sweep point, keyed by scenario label.

    The first trial that fails stops the sweep with a ValueError naming the
    trial, so every row's rates are over exactly trials_per_point trials.
    """
    point = _prepare_point(spec, value)
    per_label: dict[str, list] = {EPIDEMIC: [], UNIFORM: []}
    for label in (EPIDEMIC, UNIFORM):
        for trial in range(spec.trials_per_point):
            try:
                verdict, _ = run_trial(spec, value, label, trial, point)
            except ValueError as exc:
                raise ValueError(f"{label} trial {trial} at "
                                 f"{spec.sweep_name}={value!r}: {exc}") from exc
            per_label[label].append(verdict)
    return per_label


def _sweep_row(spec: ExperimentSpec, sweep_value, per_label, declared) -> SweepRow:
    """One CSV row from a point's verdicts; ``declared(verdict)`` says
    whether that trial was called an epidemic."""
    epi, null = per_label[EPIDEMIC], per_label[UNIFORM]
    type1 = sum(1 for v in null if declared(v)) / len(null)
    type2 = sum(1 for v in epi if not declared(v)) / len(epi)
    mean_epi, var_epi = calibration.mean_variance([v.hotspot_count for v in epi])
    mean_null, var_null = calibration.mean_variance([v.hotspot_count for v in null])
    return SweepRow(sweep_value=sweep_value, trials=spec.trials_per_point,
                    type1=type1, type2=type2, mean_error=(type1 + type2) / 2.0,
                    mean_hotspots_epi=mean_epi, sd_epi=math.sqrt(var_epi),
                    mean_hotspots_null=mean_null, sd_null=math.sqrt(var_null))


def run_sweep(spec: ExperimentSpec) -> SweepResult:
    """trials_per_point epidemic + trials_per_point null trials per value.

    type1 = fraction of null trials declared epidemic; type2 = fraction of
    epidemic trials declared uniform; mean_error = their average.
    """
    result = SweepResult()
    for value in spec.sweep_values:
        result.rows.append(_sweep_row(spec, value, _point_outcomes(spec, value),
                                      lambda v: v.label == EPIDEMIC))
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
    if any(math.isnan(t) for t in t_values):
        raise ValueError("t_values must not hold NaN")
    per_label = _point_outcomes(spec, spec.sweep_values[0])
    result = SweepResult()
    for t in t_values:
        result.rows.append(_sweep_row(spec, t, per_label, lambda v: v.hotspot_count > t))
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


def read_mapping(path) -> dict[str, str]:
    """The key=value pairs of a flat experiment file ('#' comments)."""
    raw: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            key, sep, val = stripped.partition("=")
            key = key.strip()
            if not (sep and key):
                raise ValueError(f"{path}: line {lineno}: expected key=value")
            raw[key] = val.strip()
    return raw


_TRUE, _FALSE = ("1", "true", "yes"), ("0", "false", "no")


def spec_from_mapping(raw: dict[str, str]) -> ExperimentSpec:
    """Build an ExperimentSpec from key=value strings. An unknown key or a
    boolean outside 1/0/true/false/yes/no raises ValueError naming the key."""
    raw = dict(raw)

    def get(key, cast, default=None):
        if key not in raw:
            return default
        val = raw.pop(key)
        return cast_value(f"{key}={val!r}", val, cast)

    def flag(key):
        val = raw.pop(key, "false").lower()
        if val not in _TRUE + _FALSE:
            raise ValueError(f"{key}={val!r}: expected one of {', '.join(_TRUE + _FALSE)}")
        return val in _TRUE

    sweep_name = raw.pop("sweep", "t")
    sweep_values = tuple(_parse_scalar(v) for v in raw.pop("values", "0").split(",")
                         if v.strip())
    if _SWEEPS.get(sweep_name, ("",))[0] == "topology" and sweep_values:
        # a swept graph field needs no fixed value: every point sets its own
        raw.setdefault(sweep_name, str(sweep_values[0]))
    topology = dict(
        kind=raw.pop("topology", "er"),
        n=get("n", int), p=get("p", float), dim=get("dim", int),
        side=get("side", int), degree=get("degree", int), depth=get("depth", int),
        exponent=get("exponent", float), path=raw.pop("path", None),
        compact=flag("compact"), giant=flag("giant"))
    scenario = ScenarioRule(
        alpha=get("alpha", float, 0.1), q=get("q", float, 1.0),
        f=get("f", float, 0.0), num_seeds=get("num_seeds", int, 1),
        alpha_exp=get("alpha_exp", float, 0.0), q_exp=get("q_exp", float, 0.0),
        f_exp=get("f_exp", float, 0.0))
    det_kind = raw.pop("detector", "nn")
    k, l, s, t = get("k", int, 1), get("l", int, 2), get("s", int), get("t", float, 0.0)
    magnitude, flip_prob = get("noise_d", int, 1), get("noise_prob", float)
    trials, seed = get("trials", int, CI_TRIALS), get("seed", int, 0)
    if raw:
        raise ValueError(f"unknown config key(s): {', '.join(sorted(raw))}")
    if det_kind == "auto":
        detector: DetectorConfig | str = "auto"
    elif det_kind == "nn":
        detector = DetectorConfig.nn(k=k, t=t, s=s)
    elif det_kind == "ball":
        detector = DetectorConfig.ball_mode(l=l, t=t, s=s)
    else:
        raise ValueError(f"unknown detector kind {det_kind!r}")
    return ExperimentSpec(
        topology=TopologySpec(**topology), scenario=scenario, detector=detector,
        sweep_name=sweep_name, sweep_values=sweep_values, trials_per_point=trials,
        master_seed=seed, noise=(None if flip_prob is None else
                                 DistanceNoise(flip_prob=flip_prob, magnitude=magnitude)))


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
        "gamma profile K cap: K <= ceil(ln N) (gamma command and auto mode); "
        f"gamma estimation trials default {GAMMA_CALIBRATION_TRIALS} (auto mode)",
        f"trial counts: {CI_TRIALS} per sweep point and label unless --trials or trials= "
        "is given",
        "gamma estimator: mean of per-realization interior fractions",
        "seed derivation: splitmix64 chain over (master, sweep, value, label, trial)",
        "trial failures: the first failed trial stops the sweep (exit 1)",
        "CLI exit codes: 0 = uniform reporting, 2 = epidemic, 1 = error",
        "CLI precedence: flags override --config keys; seed: --seed > config seed= "
        "> HOTSPOT_SEED > 0",
    ])
