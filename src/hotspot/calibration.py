"""Detector calibration: reporting probabilities, interior fractions, bounds.

The interior fraction gamma(k) is the share of infected nodes whose k
nearest neighbors are all infected; it drives both the dense-regime K/T
prescription and the explicit error bounds. For finite graphs gamma is
estimated by simulating contagions at the scenario parameters; for trees
and very small infections closed forms / fallbacks are provided.
"""

from __future__ import annotations

import csv
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import NN, Graph, isin_sorted, leading_runs, node_array
from .scenario import ScenarioParams, pick_seeds, simulate_si
from .seeds import derive_seed

logger = logging.getLogger(__name__)

GAMMA_CSV_HEADER = ["K", "gamma", "stderr", "trials", "topology"]


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
    if f < 0.0:
        raise ValueError("f must be >= 0")
    if q * alpha >= 1.0:
        raise ValueError("q*alpha must be < 1")
    p = (f + 1.0) * q * alpha
    if p > 1.0:
        raise ValueError(
            f"(f+1)*q*alpha = {p:.6g} > 1: the matched null would need a "
            "reporting probability above one; reduce f, q or alpha")
    p_in = q * (1.0 + (1.0 - q) * f * alpha / (1.0 - q * alpha))
    return ReportingProbabilities(p_in=p_in, p=p)


def _uninfected_ranks(g: Graph, infected: np.ndarray, k_max: int) -> np.ndarray:
    """Per node of the ascending array ``infected``: the 1-based position of
    the first uninfected node in its canonical nearest-neighbor order,
    scanning at most k_max members.

    A node whose first k_max members (or all reachable nodes, if fewer) are
    infected gets k_max + 1: it is interior for every k <= k_max.
    """
    owner, member, rank = g.neighborhoods(infected, k_max, NN)
    runs = leading_runs(owner, rank, isin_sorted(member, infected), infected.size)
    reached = np.bincount(owner, minlength=infected.size)
    return np.where(runs < reached, runs + 1, k_max + 1)


def boundary_set(g: Graph, infected, k: int) -> set[int]:
    """Infected nodes whose k-nearest-neighbor set contains an uninfected node."""
    infected = node_array(infected)
    if not infected.size:
        raise ValueError("infected set must be nonempty")
    if k < 1:
        raise ValueError("k must be >= 1")
    return set(infected[_uninfected_ranks(g, infected, k) <= k].tolist())


def gamma_for_set(g: Graph, infected, k_values) -> list[float]:
    """Interior fraction gamma(k) = 1 - |boundary(k)|/|S| for each k.

    One outward scan per infected node serves every requested k.
    """
    infected = node_array(infected)
    if not infected.size:
        raise ValueError("infected set must be nonempty")
    k_values = [int(k) for k in k_values]
    if any(k < 1 for k in k_values):
        raise ValueError("k values must be >= 1")
    ranks = _uninfected_ranks(g, infected, max(k_values))
    return [1.0 - int(np.count_nonzero(ranks <= k)) / infected.size for k in k_values]


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

    def to_csv(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(GAMMA_CSV_HEADER)
            for e in self.entries:
                writer.writerow([e.k, f"{e.gamma:.10g}", f"{e.stderr:.10g}",
                                 e.trials, self.topology])

    @classmethod
    def from_csv(cls, path) -> "GammaProfile":
        entries = []
        topology = ""
        with open(path, "r", newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            for row in reader:
                entries.append(GammaEntry(k=int(row["K"]), gamma=float(row["gamma"]),
                                          stderr=float(row["stderr"]),
                                          trials=int(row["trials"])))
                topology = row.get("topology", "") or topology
        if not entries:
            raise ValueError(f"{path}: empty gamma profile")
        return cls(entries=entries, topology=topology)


def estimate_gamma(g: Graph, params: ScenarioParams, k_values, trials: int,
                   rng_seed: int, topology_tag: str = "") -> GammaProfile:
    """Monte-Carlo gamma(k): simulate contagions at the scenario parameters
    and average the per-realization interior fractions.

    Truncated realizations (seed components smaller than the target size)
    are kept and counted in the log; their gamma is still well defined.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    k_values = sorted(set(int(k) for k in k_values))
    params.validate_for(g.n)
    target = params.target_size(g.n)
    per_k_samples: list[list[float]] = [[] for _ in k_values]
    truncated = 0
    for trial in range(trials):
        seeds = pick_seeds(g, params.num_seeds, derive_seed(rng_seed, "seeds", trial))
        outcome = simulate_si(g, seeds, target, derive_seed(rng_seed, "si", trial))
        truncated += outcome.truncated
        gammas = gamma_for_set(g, set(outcome.infected), k_values)
        for j, val in enumerate(gammas):
            per_k_samples[j].append(val)
    if truncated:
        logger.info("estimate_gamma: %d/%d trials truncated by component size",
                    truncated, trials)
    entries = []
    for j, k in enumerate(k_values):
        samples = per_k_samples[j]
        mean = sum(samples) / trials
        if trials > 1:
            var = sum((x - mean) ** 2 for x in samples) / (trials - 1)
            stderr = math.sqrt(var / trials)
        else:
            stderr = 0.0
        entries.append(GammaEntry(k=k, gamma=mean, stderr=stderr, trials=trials))
    return GammaProfile(entries=entries, topology=topology_tag)


def gamma_analytic_tree(k: int) -> float:
    """Interior fraction 1/k for a level-complete infection on a constant-
    degree tree (exact in the deep-tree limit)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return 1.0 / k


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
    if base <= 1.0:
        raise ValueError("log base must exceed 1")
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
