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
from collections import namedtuple
from dataclasses import dataclass, field, replace

from . import calibration
from .detector import AUTO_DENSITY_CUTOFF, DetectorConfig, classify, prescribe
# gen_erdos_renyi and splitmix64 are unused here: perfbench/tracing.py
# patches them on this module
from .graph import (DistanceNoise, Graph, NoisyView, _erdos_renyi_pairs, _giant_of_pairs,
                    _grid_pairs, _power_law_pairs, _tree_pairs, check_erdos_renyi,
                    check_power_law, gen_erdos_renyi, load_edge_list)
from .scenario import (EPIDEMIC, UNIFORM, ScenarioParams, generate_uniform_null,
                       make_epidemic_snapshot)
from .seeds import derive_seed, splitmix64

SWEEP_CSV_HEADER = ("sweep_value,trials,type1,type2,mean_error,"
                    "mean_hotspots_epi,sd_epi,mean_hotspots_null,sd_null")

# default trials per sweep point and label, and per auto-regime calibration
CI_TRIALS = 200
GAMMA_CALIBRATION_TRIALS = 50

_TOPOLOGY_KINDS = ("er", "grid", "tree", "powerlaw", "file")
FIXED_KINDS = ("grid", "tree", "file")  # built once per spec; er and powerlaw draw per trial
_DENSE, _SMALL = ("dense", "auto"), ("small", "auto")


# A key-table row: the cast of the key's text (bool: 1/0/true/false/yes/no;
# tuple: sweep values), the ExperimentSpec part and field it sets ("": the spec;
# None: a detect-only flag), the topology kinds or detector kinds and regimes
# that read it (empty: all), its sweep name, help, needed by its kinds, choices
Key = namedtuple("Key", "cast part field reads sweep help required choices",
                 defaults=(None, (), None, None, False, None))


# Every experiment key, in sweep-flag order, then detect's regime and prescription
# flags (part None, as mode). alpha, q and f set a sweep's scenario, which every
# path reads; of detect's paths only a dense or auto prescription reads them.
KEYS = {
    "topology": Key(str, "topology", "kind", help="graph family", choices=_TOPOLOGY_KINDS),
    "n": Key(int, "topology", "n", ("er", "powerlaw"), "n", "node count (er, powerlaw)", True),
    "p": Key(float, "topology", "p", ("er",), "p", "edge probability (er; default 2/n)"),
    "dim": Key(int, "topology", "dim", ("grid",), help="grid dimension (default 2)"),
    "side": Key(int, "topology", "side", ("grid",), "side", "grid side length", True),
    "degree": Key(int, "topology", "degree", ("tree",), None, "tree branching factor", True),
    "depth": Key(int, "topology", "depth", ("tree",), None, "tree depth", True),
    "exponent": Key(float, "topology", "exponent", ("powerlaw",), "exponent", "default 2.5"),
    "path": Key(str, "topology", "path", ("file",), None, "edge-list file", True),
    "compact": Key(bool, "topology", "compact", ("file",), None, "remap file ids to 0..n-1"),
    "giant": Key(bool, "topology", "giant", help="restrict to the largest connected component"),
    "alpha": Key(float, "scenario", "alpha", _DENSE, "alpha"),
    "q": Key(float, "scenario", "q", _DENSE, "q"),
    "f": Key(float, "scenario", "f", _DENSE, "f", "default 0"),
    "num_seeds": Key(int, "scenario", "num_seeds", (), "num_seeds"),
    "alpha_exp": Key(float, "scenario", "alpha_exp"),
    "q_exp": Key(float, "scenario", "q_exp"),
    "f_exp": Key(float, "scenario", "f_exp"),
    "detector": Key(str, "detector", "mode", choices=("nn", "ball", "auto")),
    "mode": Key(str, None, None, ("nn", "ball"), help="default nn", choices=("nn", "ball")),
    "k": Key(int, "detector", "k_or_l", ("nn",), "k"),
    "l": Key(int, "detector", "k_or_l", ("ball",), "l"),
    "s": Key(int, "detector", "s", ("nn", "ball"), "s"),
    "t": Key(float, "detector", "t", ("nn", "ball"), "t", "default 0"),
    "sweep": Key(str, "", "sweep_name", help="swept variable name"),
    "values": Key(tuple, "", "sweep_values", help="comma-separated sweep values"),
    "trials": Key(int, "", "trials_per_point"),
    "noise_prob": Key(float, "noise", "flip_prob", (), "flip_prob"),
    "noise_d": Key(int, "noise", "magnitude", (), "noise_d", "noise magnitude (default 1)"),
    "seed": Key(int, "", "master_seed", help="master RNG seed (default: $HOTSPOT_SEED or 0)"),
    "regime": Key(str, None, help="derive K and T from calibration instead of --k/--t",
                  choices=("dense", "small", "auto")),
    "family": Key(str, None, reads=_DENSE, help="grid: 1; tree: 1/K, K <= 64",
                  choices=("grid", "tree")),
    "log_base": Key(float, None, reads=_DENSE),
    "gamma": Key(float, None, reads=_DENSE, help="explicit interior fraction"),
    "gamma_profile": Key(str, None, reads=_DENSE, help="gamma profile CSV from the gamma command"),
    "gamma_fallback": Key(bool, None, reads=_DENSE, help="use the 1/|S| lower bound for gamma"),
    "beta": Key(float, None, reads=_SMALL,
                help="small-regime exponent (default: 1 - log max(|R|,2)/log N)"),
    **{key: Key(float, None, reads=_SMALL) for key in ("rho", "mu")},
}
_SWEPT = {row.sweep: key for key, row in KEYS.items() if row.sweep}  # sweep name -> key


def _is_set(value) -> bool:
    return value is not None and value is not False  # 0 and 0.0 are set


def unread_keys(path: str, given: dict, parts=("detector",)) -> list[str]:
    """The keys of the ``parts`` rows set in ``given`` that ``path`` (a
    topology kind, a detector kind or a regime) does not read, in table order."""
    return [key for key, row in KEYS.items() if row.part in parts and row.reads
            and path not in row.reads and _is_set(given.get(key))]


def part_fields(given: dict, part: str) -> dict:
    """The fields of ``part`` that the keys set in ``given`` fill in."""
    return {KEYS[key].field: value for key, value in given.items()
            if key in KEYS and KEYS[key].part == part and _is_set(value)}


@dataclass(frozen=True)
class TopologySpec:
    """Graph source for an experiment: a generator family or an edge-list file.

    With ``giant=True`` the experiment runs on the largest connected
    component, so contagions always have room to reach their target size
    (sparse random graphs leave a fifth of the nodes in dust components).
    A generated kind's giant is cut straight from its sampled edge pairs:
    the whole graph is never built. A file is read whole and its giant cut
    from that graph, so the read's warning counts every dropped edge.

    A fixed kind (grid, tree, file) is built on the first ``build`` and
    kept by the spec, so every trial that shares the spec shares one graph;
    a new spec (``dataclasses.replace`` included) builds, or reads, afresh.
    """

    kind: str = "er"  # er | grid | tree | powerlaw | file
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
        if self.kind not in _TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}")
        missing = [key for key, row in KEYS.items() if row.required and self.kind in row.reads
                   and getattr(self, row.field) is None]
        if missing:
            raise ValueError(f"topology {self.kind} needs {' and '.join(missing)}")
        unused = unread_keys(self.kind, vars(self), ("topology",))
        if unused:
            raise ValueError(f"topology {self.kind} does not use {' or '.join(unused)}")
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
        if self.kind == "file":
            g = load_edge_list(self.path, compact=self.compact)
            if self.giant:
                g, _ = g.largest_component()
        else:
            if self.kind == "er":
                pairs = _erdos_renyi_pairs(self.n, self._p(), seed)
            elif self.kind == "grid":
                pairs = _grid_pairs(2 if self.dim is None else self.dim, self.side)
            elif self.kind == "tree":
                pairs = _tree_pairs(self.degree, self.depth)
            else:
                pairs = _power_law_pairs(self.n, self._exponent(), seed)
            pairs = list(pairs)  # the giant cut empties it, so that it alone holds u and v
            g = _giant_of_pairs(pairs)[0] if self.giant else Graph._from_pairs(*pairs)
        if self.kind in FIXED_KINDS:
            object.__setattr__(self, "_graph", g)
        return g


def fixed_detector(kind: str, k: int | None, l: int | None, s: int | None,
                   t: float | None) -> DetectorConfig:
    """The "nn" or "ball" detector of a sweep or of detect; a size or
    threshold left None takes its default: k = 1, l = 2, t = 0. That t is the
    int 0, so a t sweep run at the default has the sweep value (and seed token) 0."""
    t = 0 if t is None else t
    if kind == "nn":
        return DetectorConfig.nn(k=1 if k is None else k, t=t, s=s)
    if kind == "ball":
        return DetectorConfig.ball_mode(l=2 if l is None else l, t=t, s=s)
    raise ValueError(f"unknown detector kind {kind!r}")


@dataclass(frozen=True)
class ScenarioRule:
    """Scenario parameters, optionally scaling with graph size.

    Effective values at size n are base * n**exp, so exponents of zero give
    plain constants. Example: alpha=1, alpha_exp=-0.7 yields an infection
    of n**0.3 nodes.
    """

    alpha: float = 0.1
    q: float = 1.0
    f: float = 0.0
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
        if self.sweep_name == "noise_d" and self.noise is None:  # no trial would read it
            raise ValueError("noise_d needs noise_prob or a flip_prob sweep")
        cast = KEYS[_swept(self.sweep_name, self.detector)].cast
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


def _swept(name: str, detector) -> str:
    """The key swept as ``name``: a detector field only if ``detector`` reads it."""
    if name not in _SWEPT:
        raise ValueError(f"unknown sweep variable {name!r}")
    kind, row = "auto" if isinstance(detector, str) else detector.mode, KEYS[_SWEPT[name]]
    if row.part == "detector" and kind not in row.reads:
        raise ValueError("cannot sweep a detector field with detector='auto'" if kind == "auto"
                         else f"cannot sweep {name} with a {kind} detector")
    return _SWEPT[name]


def cast_value(label: str, text: str, cast):
    """``cast(text)`` for cast int or float; on failure a ValueError
    "<label>: expected an integer" (or "a number")."""
    try:
        return cast(text)
    except ValueError:
        raise ValueError(f"{label}: expected {_EXPECTED[cast]}") from None


def _prepare_point(spec: ExperimentSpec, value):
    """(spec, gamma): the spec with the swept field set to ``value``, and a
    fixed kind's graph built now, so a graph that cannot be built fails the
    point once, before any trial. gamma is None unless detector="auto": then
    gamma(K), K = 1..ceil(ln N), on the graph of the sweep-point seed, so
    every trial sees the same calibration whatever ran before it."""
    row = KEYS[_SWEPT[spec.sweep_name]]
    base = getattr(spec, row.part) or DistanceNoise()  # a noise field swept with no base noise
    point = replace(spec, **{row.part: replace(base, **{row.field: row.cast(value)})})
    auto = isinstance(point.detector, str)
    if auto or point.topology.kind in FIXED_KINDS:
        graph = point.topology.build(
            derive_seed(spec.master_seed, spec.sweep_name, value, "graph"))
    if not auto:
        return point, None
    params = point.scenario.for_n(graph.n)
    calibration.reporting_probabilities(params.q, params.alpha, params.f)  # before any growth
    return point, calibration.estimate_gamma(
        graph, params, range(1, calibration.k_cap(graph.n) + 1),
        GAMMA_CALIBRATION_TRIALS,
        derive_seed(spec.master_seed, spec.sweep_name, value, "calibration"))


def run_trial(spec: ExperimentSpec, sweep_value, label: str, trial_index: int,
              point: tuple | None = None):
    """Run one labeled trial; returns (Verdict, truth). Deterministic in
    (master_seed, sweep name+value, label, trial_index).

    ``point`` is the prepared sweep point, the (spec, gamma) pair that
    run_sweep makes once per value; a standalone call prepares its own.
    """
    point, gamma = point or _prepare_point(spec, sweep_value)
    root = derive_seed(spec.master_seed, spec.sweep_name, sweep_value, label, trial_index)
    graph = point.topology.build(derive_seed(root, "graph"))
    params = point.scenario.for_n(graph.n)
    params.validate_for(graph.n)
    # both labels need the matched null: without one, fail before any growth
    p_null = calibration.reporting_probabilities(params.q, params.alpha, params.f).p
    if label == EPIDEMIC:
        snapshot, _ = make_epidemic_snapshot(graph, params, derive_seed(root, "scenario"))
    elif label == UNIFORM:
        snapshot = generate_uniform_null(graph, p_null, derive_seed(root, "scenario"))
    else:
        raise ValueError(f"unknown scenario label {label!r}")
    view = graph
    if point.noise is not None and point.noise.flip_prob > 0.0:
        view = NoisyView(graph, point.noise, derive_seed(root, "noise"))
    if isinstance(point.detector, str):
        cfg = prescribe(graph.n, len(snapshot.reporting), q=params.q,
                        alpha=params.alpha, f=params.f, gamma=gamma)
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

    A point that cannot be prepared, or its first failed trial, stops the
    sweep with a ValueError naming it: every row counts trials_per_point trials.
    """
    try:
        point = _prepare_point(spec, value)
    except ValueError as exc:
        raise ValueError(f"sweep point {spec.sweep_name}={value!r}: {exc}") from exc
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
    """``text`` as an int, else as a float, else as it is, stripped."""
    for cast in (int, float):
        try:
            return cast(text)
        except ValueError:
            pass
    return text.strip()


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


def _cast(key: str, text: str, cast):
    """``text`` cast as the KEYS row of ``key`` says; a bad value raises ValueError naming it."""
    if cast is bool:
        text = text.lower()
        if text not in _TRUE + _FALSE:
            raise ValueError(f"{key}={text!r}: expected one of {', '.join(_TRUE + _FALSE)}")
        return text in _TRUE
    if cast is tuple:  # each value kept as written: seed tokens and CSV labels
        return tuple(_parse_scalar(v) for v in text.split(",") if v.strip())
    return text if cast is str else cast_value(f"{key}={text!r}", text, cast)


def spec_from_mapping(raw: dict[str, str]) -> ExperimentSpec:
    """Build an ExperimentSpec from key=value strings, each cast as its KEYS
    row says; an unknown key or a bad value raises ValueError naming the key.
    The default sweep is t (alpha with detector=auto). A sweep given no values
    runs once at the swept key's value, else its default; p and exponent,
    which have none, are refused by name."""
    unknown = sorted(key for key in raw if key not in KEYS or KEYS[key].part is None)
    given = {key: _cast(key, text, KEYS[key].cast) for key, text in raw.items()
             if key not in unknown}
    if unknown:
        raise ValueError(f"unknown config key(s): {', '.join(unknown)}")
    kind = given.setdefault("detector", "nn")
    name = given.setdefault("sweep", "alpha" if kind == "auto" else "t")
    if "noise_d" in given and "noise_prob" not in given and name != "flip_prob":
        raise ValueError("noise_d needs noise_prob or a flip_prob sweep")
    unused = unread_keys(kind, given) if kind in KEYS["detector"].choices else []
    if unused:  # fixed_detector names an unknown kind
        raise ValueError(f"detector {kind} does not use {' or '.join(unused)}")
    values, swept = given.get("values"), _SWEPT.get(name)
    if values and swept and KEYS[swept].part == "topology":
        # a swept graph field needs no fixed value: every point sets its own
        given.setdefault(swept, _cast(swept, str(values[0]), KEYS[swept].cast))
    noise = part_fields(given, "noise")
    parts = dict(
        topology=TopologySpec(**part_fields(given, "topology")),
        scenario=ScenarioRule(**part_fields(given, "scenario")),
        # the positional k, l, s and t, in table order
        detector="auto" if kind == "auto" else fixed_detector(kind, *(
            given.get(key) for key, row in KEYS.items() if row.part == "detector" and row.reads)),
        noise=DistanceNoise(**noise) if noise else None)
    spec = part_fields(given, "")
    if values is None:
        key = _swept(name, parts["detector"])
        row = KEYS[key]
        value = (_parse_scalar(raw[key]) if key in raw
                 else getattr(parts[row.part] or DistanceNoise(), row.field))
        if value is None:
            raise ValueError(f"sweep {name} needs values or a given {key}")
        spec["sweep_values"] = (value,)
    return ExperimentSpec(**parts, **spec)


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
