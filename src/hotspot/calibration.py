"""Detector calibration: reporting probabilities, interior fractions, bounds.

The interior fraction gamma(k) is the share of infected nodes whose k
nearest neighbors are all infected; it drives both the dense-regime K/T
prescription and the explicit error bounds. For finite graphs gamma is
estimated by simulating contagions at the scenario parameters; for trees
and very small infections closed forms / fallbacks are provided.
"""

from __future__ import annotations

import csv
import io
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import NN, Graph, NearestTable, node_array
from .scenario import ScenarioParams, pick_seeds, simulate_si
from .seeds import derive_seed

logger = logging.getLogger(__name__)

GAMMA_CSV_HEADER = ["K", "gamma", "stderr", "trials", "topology"]

# the numeric columns of a gamma profile: name, cast, the test a value must
# pass (NaN fails each one) and how the error message words it
_GAMMA_CSV_COLUMNS = (
    ("K", int, lambda v: v >= 1, "an integer >= 1"),
    ("gamma", float, lambda v: 0.0 <= v <= 1.0, "a number in [0, 1]"),
    ("stderr", float, lambda v: 0.0 <= v < math.inf, "a finite number >= 0"),
    ("trials", int, lambda v: v >= 1, "an integer >= 1"),
)

# largest nearest-neighbor table (nodes x K entries, 8 bytes each) that
# estimate_gamma builds: 8 MB, twice that while it is built; a 640x640
# lattice at K = 25 would need 80 MB
NEAREST_TABLE_MAX_ENTRIES = 1 << 20


@dataclass(frozen=True)
class ReportingProbabilities:
    """p_in: reporting probability of an infected node under the epidemic;
    p: per-node reporting probability under the matched null."""

    p_in: float
    p: float


def reporting_probabilities(q: float, alpha: float, f: float) -> ReportingProbabilities:
    """Matched reporting probabilities for scenario parameters (q, alpha, f).

    p = (f+1)*q*alpha equalizes the expected reporting counts of the two
    hypotheses; p_in = q*(1 + (1-q)*f*alpha/(1-q*alpha)) accounts for an
    infected non-reporter being drawn as an extra reporter. p_in > p holds
    strictly whenever 0 < q and alpha < 1.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if not 0.0 <= f < math.inf:
        raise ValueError("f must be >= 0 and finite")
    p = (f + 1.0) * q * alpha
    if p > 1.0:
        raise ValueError(
            f"(f+1)*q*alpha = {p:.6g} > 1: the matched null would need a "
            "reporting probability above one; reduce f, q or alpha")
    p_in = q * (1.0 + (1.0 - q) * f * alpha / (1.0 - q * alpha))
    return ReportingProbabilities(p_in=p_in, p=p)


def _checked_k_values(k_values) -> list[int]:
    k_values = [int(k) for k in k_values]
    if not k_values:
        raise ValueError("k values must be nonempty")
    if min(k_values) < 1:
        raise ValueError("k values must be >= 1")
    return k_values


def gamma_for_set(g, infected, k_values) -> list[float]:
    """Interior fraction gamma(k) = 1 - |boundary(k)|/|S| for each k, with
    neighborhoods from ``g``, a Graph or any view of one.

    One scan of the max(k) nearest neighbors serves every k: an infected
    node is on the boundary (has an uninfected k-nearest neighbor) for every
    k above the rank of its first uninfected neighbor.
    """
    infected = node_array(infected)
    if not infected.size:
        raise ValueError("infected set must be nonempty")
    k_values = _checked_k_values(k_values)
    owner, member, rank = g.neighborhoods(infected, max(k_values), NN)
    # a node mask: one gather per member, where a binary search of
    # ``infected`` per member costs ten times more
    inside = np.zeros(g.n, dtype=bool)
    inside[infected] = True
    out = np.flatnonzero(~inside[member])
    owner, rank = owner[out], rank[out]
    # members come by owner, then rank: keep each owner's first one outside
    first = np.ones(owner.size, dtype=bool)
    first[1:] = owner[1:] != owner[:-1]
    stops = rank[first]
    return [1.0 - int(np.count_nonzero(stops < k)) / infected.size for k in k_values]


@dataclass(frozen=True)
class GammaEntry:
    k: int
    gamma: float
    stderr: float
    trials: int


@dataclass
class GammaProfile:
    """Estimated interior fractions per K, with Monte-Carlo standard errors."""

    entries: list[GammaEntry]
    topology: str = ""

    def __post_init__(self):
        self.entries = sorted(self.entries, key=lambda e: e.k)

    def k_values(self) -> list[int]:
        return [e.k for e in self.entries]

    def gamma(self, k: int) -> float:
        for e in self.entries:
            if e.k == k:
                return e.gamma
        raise KeyError(f"no gamma estimate for K={k}")

    def to_csv_text(self) -> str:
        out = io.StringIO()
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(GAMMA_CSV_HEADER)
        for e in self.entries:
            writer.writerow([e.k, f"{e.gamma:.10g}", f"{e.stderr:.10g}",
                             e.trials, self.topology])
        return out.getvalue()

    @classmethod
    def from_csv(cls, path) -> "GammaProfile":
        """Read a profile as to_csv_text writes it; a missing, malformed or
        out-of-range value raises ValueError naming the file, line and
        column."""
        entries = []
        topology = ""
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                values = []
                for column, cast, allowed, expected in _GAMMA_CSV_COLUMNS:
                    text = row.get(column)
                    where = f"{path}: line {reader.line_num}: column {column!r}"
                    if text is None:
                        raise ValueError(f"{where}: no value")
                    try:
                        value = cast(text)
                    except ValueError:
                        kind = "an integer" if cast is int else "a number"
                        raise ValueError(f"{where}: expected {kind}, got {text!r}") from None
                    if not allowed(value):
                        raise ValueError(f"{where}: expected {expected}, got {text!r}")
                    if column == "K" and value in (e.k for e in entries):
                        raise ValueError(f"{where}: repeats K={value}")
                    values.append(value)
                entries.append(GammaEntry(*values))
                topology = row.get("topology", "") or topology
        if not entries:
            raise ValueError(f"{path}: empty gamma profile")
        return cls(entries=entries, topology=topology)


def k_cap(n: int) -> int:
    """Largest K of a default gamma(K) profile (the ``gamma`` command's, and
    an auto-regime sweep's) on an N-node graph: ceil(ln N), at least 1."""
    return max(1, math.ceil(math.log(max(n, 2))))


def mean_variance(values) -> tuple[float, float]:
    """Sample mean and unbiased sample variance (0.0 for one value)."""
    mean = sum(values) / len(values)
    if len(values) < 2:
        return mean, 0.0
    return mean, sum((x - mean) ** 2 for x in values) / (len(values) - 1)


def estimate_gamma(g: Graph, params: ScenarioParams, k_values, trials: int,
                   rng_seed: int, topology_tag: str = "") -> GammaProfile:
    """Monte-Carlo gamma(k): simulate contagions at the scenario parameters
    and average the per-realization interior fractions.

    Truncated realizations (seed components smaller than the target size)
    are kept and counted in the log; their gamma is still well defined.
    Every realization is scanned through one NearestTable of ``g`` when
    :func:`_gamma_view` finds that it pays.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k_values = sorted(set(_checked_k_values(k_values)))
    params.validate_for(g.n)
    target = params.target_size(g.n)
    view = _gamma_view(g, k_values[-1], trials * target)
    per_k_samples: list[list[float]] = [[] for _ in k_values]
    truncated = 0
    for trial in range(trials):
        seeds = pick_seeds(g, params.num_seeds, derive_seed(rng_seed, "seeds", trial))
        outcome = simulate_si(g, seeds, target, derive_seed(rng_seed, "si", trial))
        truncated += outcome.truncated
        gammas = gamma_for_set(view, outcome.infected, k_values)
        for j, val in enumerate(gammas):
            per_k_samples[j].append(val)
    if truncated:
        logger.info("estimate_gamma: %d/%d trials truncated by component size",
                    truncated, trials)
    entries = []
    for k, samples in zip(k_values, per_k_samples):
        mean, var = mean_variance(samples)
        entries.append(GammaEntry(k=k, gamma=mean, stderr=math.sqrt(var / trials),
                                  trials=trials))
    return GammaProfile(entries=entries, topology=topology_tag)


def _gamma_view(g: Graph, k_max: int, centers: int):
    """A NearestTable of ``g`` when the ``centers`` a calibration scans
    outnumber the nodes, so that scanning every node once costs less, and
    the table's n * k_max entries fit NEAREST_TABLE_MAX_ENTRIES; else ``g``."""
    if centers >= g.n and g.n * k_max <= NEAREST_TABLE_MAX_ENTRIES:
        return NearestTable(g, k_max)
    return g


def gamma_analytic_tree(k: int) -> float:
    """Interior fraction 1/k for a level-complete infection on a constant-
    degree tree (exact in the deep-tree limit)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 / k


def gamma_tree_profile() -> GammaProfile:
    """gamma_analytic_tree(K) for K = 1..64 as an exact profile: stderr 0, one trial."""
    return GammaProfile([GammaEntry(k, gamma_analytic_tree(k), 0.0, 1) for k in range(1, 65)])


def gamma_lower_bound(infection_size: int) -> float:
    """Fallback 1/|S|: valid whenever at least one infected node has all of
    its nearest neighbors infected."""
    if infection_size < 1:
        raise ValueError("infection size must be >= 1")
    return 1.0 / infection_size


@dataclass(frozen=True)
class ErrorBounds:
    """Explicit exponential error bounds for the dense-regime test."""

    e1_bound: float
    e2_bound: float
    p_big: float
    p_in_big: float
    diagnostic: str | None = None


def error_bounds(gamma: float, q: float, alpha: float, f: float, k: int,
                 n_reporting: int) -> ErrorBounds:
    """Bounds exp(-N_rep (P_in-P)^2 / (16(K^2+1) * D)) on both error types,
    with D = P + (P_in-P)/6 for type I and D = P_in for type II, where
    P = p^K and P_in = gamma * p_in^K / (f+1).

    Degenerates to 1 (with a diagnostic) when P_in <= P, i.e. when the
    chosen K does not separate the hypotheses.
    """
    if not 0.0 < gamma <= 1.0:
        raise ValueError("gamma must be in (0, 1]")
    if k < 1:
        raise ValueError("k must be >= 1")
    if n_reporting < 0:
        raise ValueError("n_reporting must be >= 0")
    probs = reporting_probabilities(q, alpha, f)
    p_big = probs.p ** k
    p_in_big = gamma * probs.p_in ** k / (f + 1.0)
    if p_in_big <= p_big:
        return ErrorBounds(
            e1_bound=1.0, e2_bound=1.0, p_big=p_big, p_in_big=p_in_big,
            diagnostic="separation condition violated (P_in <= P); "
                       "increase K so that K >= log(gamma^-1 (f+1))")
    delta = p_in_big - p_big
    scale = n_reporting * delta * delta / (16.0 * (k * k + 1.0))
    e1 = min(1.0, math.exp(-scale / (p_big + delta / 6.0)))
    e2 = min(1.0, math.exp(-scale / p_in_big))
    return ErrorBounds(e1_bound=e1, e2_bound=e2, p_big=p_big, p_in_big=p_in_big)


def smallest_k(gamma_of_k, f: float, k_values, log_base: float | None = None) -> int:
    """The dense-regime K rule: the first K in ascending ``k_values`` with
    K >= log(gamma(K)^-1 (f+1)), natural log unless ``log_base`` is given.

    A K with gamma(K) <= 0 never qualifies. Falls back to the last K (with a
    warning) when none does.
    """
    base = math.e if log_base is None else float(log_base)
    if not 1.0 < base < math.inf:
        raise ValueError("log base must exceed 1 and be finite")
    k = None
    for k in k_values:
        gamma = gamma_of_k(k)
        if gamma > 0.0 and k >= math.log((f + 1.0) / gamma) / math.log(base):
            return k
    if k is None:
        raise ValueError("no K values to choose from")
    logger.warning("no K satisfies K >= log(gamma^-1 (f+1)); "
                   "returning largest profiled K=%d", k)
    return k


def solve_k(gamma_profile: GammaProfile, f: float, log_base: float | None = None) -> int:
    """Smallest profiled K satisfying K >= log(gamma(K)^-1 * (f+1)); see smallest_k."""
    return smallest_k(gamma_profile.gamma, f, gamma_profile.k_values(), log_base)
