"""The snapshot classifier and its parameter-selection rules.

A reporting node is a *hotspot* when at least s of its surrounding nodes
(the K nearest, or everything within ball radius l) are also reporting.
The classifier sums the hotspot indicators over all reporting nodes and
declares a contagion when the sum strictly exceeds the decision threshold
t. Runtime is linear in the number of reporting nodes times neighborhood
size; non-reporting nodes are touched only as BFS frontier.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass, replace

import numpy as np

from .calibration import (GammaProfile, gamma_analytic_tree, reporting_probabilities,
                          smallest_k)
from .graph import BALL, NN, node_array
from .scenario import EPIDEMIC, UNIFORM

logger = logging.getLogger(__name__)

VERDICT_CSV_HEADER = "truth,label,hotspot_count,threshold,k,mode"


@dataclass(frozen=True)
class DetectorConfig:
    """Neighborhood mode ("nn" or "ball"), its size, the hotspot count
    threshold s, and the decision threshold t (strict >)."""

    mode: str
    k_or_l: int
    s: int
    t: float
    note: str = ""

    def __post_init__(self):
        if self.mode not in (NN, BALL):
            raise ValueError(f"mode must be '{NN}' or '{BALL}'")
        # the size first: in nn mode s defaults to k, so s < 1 follows from k < 1
        if self.k_or_l < (1 if self.mode == NN else 0):
            raise ValueError("k must be >= 1 in nn mode" if self.mode == NN
                             else "l must be >= 0 in ball mode")
        if self.s < 1:
            raise ValueError("s must be >= 1")
        if math.isnan(self.t):  # +-inf stay: never and always declare
            raise ValueError("t must not be NaN")

    @classmethod
    def nn(cls, k: int, t: float, s: int | None = None, note: str = "") -> "DetectorConfig":
        return cls(mode=NN, k_or_l=k, s=k if s is None else s, t=t, note=note)

    @classmethod
    def ball_mode(cls, l: int, t: float, s: int | None = None,
                  note: str = "") -> "DetectorConfig":
        return cls(mode=BALL, k_or_l=l, s=1 if s is None else s, t=t, note=note)


@dataclass
class Verdict:
    """Classifier output; label is EPIDEMIC iff hotspot_count > threshold."""

    label: str
    hotspot_count: int
    threshold: float
    mode: str
    k_or_l: int
    per_node: dict[int, bool] | None = None
    note: str = ""

    def csv_row(self, truth: str | None = None) -> str:
        return (f"{truth or ''},{self.label},{self.hotspot_count},"
                f"{self.threshold:.10g},{self.k_or_l},{self.mode}")


def classify(view, reporting, cfg: DetectorConfig,
             keep_indicators: bool = False) -> Verdict:
    """Run the hotspot count test over a reporting snapshot.

    ``view`` is a Graph or any object exposing n and neighborhoods (e.g. the
    harness's noisy-distance view). ``keep_indicators=True`` also returns
    the per-node hotspot map. A reporter id outside the graph raises
    ValueError.
    """
    centers = node_array(reporting)
    owner, member, _ = view.neighborhoods(centers, cfg.k_or_l, cfg.mode)
    # i is a hotspot iff >= s members of its neighborhood (i excluded) report;
    # a node mask, built once the kernel has checked the ids, tests membership
    reports = np.zeros(view.n, dtype=bool)
    reports[centers] = True
    hits = np.bincount(owner[np.flatnonzero(reports[member])], minlength=centers.size)
    fired = hits >= cfg.s
    count = int(np.count_nonzero(fired))
    per_node = dict(zip(centers.tolist(), fired.tolist())) if keep_indicators else None
    label = EPIDEMIC if count > cfg.t else UNIFORM
    return Verdict(label=label, hotspot_count=count, threshold=cfg.t,
                   mode=cfg.mode, k_or_l=cfg.k_or_l, per_node=per_node,
                   note=cfg.note)


# -- parameter selection -------------------------------------------------------

# auto regime selection: dense prescription above this observed density |R|/N
AUTO_DENSITY_CUTOFF = 0.01


def _check_gamma(gamma: float) -> None:
    if gamma <= 0.0:
        raise ValueError("gamma = 0: boundary covers the infection; "
                         "dense-regime prescription inapplicable")
    if not gamma <= 1.0:  # NaN as well
        raise ValueError("gamma must be in (0, 1]")


def select_params_dense(gamma: float | GammaProfile, f: float, p_in: float, p: float,
                        n_reporting: int, topology: str = "general",
                        log_base: float | None = None) -> DetectorConfig:
    """Dense-regime K and T prescription.

    K is the smallest K >= 1 with K >= log(gamma(K)^-1 (f+1)), natural log
    unless ``log_base`` is given (see calibration.smallest_k), and
    T = (n_reporting/2) * (gamma(K) p_in^K/(f+1) + p^K). ``topology`` fixes
    gamma(K): "general" takes ``gamma``, a constant or a GammaProfile (K then
    ranges over the profiled values); "grid" uses gamma = 1; "tree" uses
    gamma(K) = 1/K with K <= 64.
    """
    profiled = isinstance(gamma, GammaProfile)
    if not profiled:
        _check_gamma(gamma)
    if not p_in > p > 0.0:
        raise ValueError("need p_in > p > 0 for the dense-regime prescription")
    if topology == "grid":
        gamma_of_k, k_values = (lambda k: 1.0), itertools.count(1)
    elif topology == "tree":
        gamma_of_k, k_values = gamma_analytic_tree, range(1, 65)
    elif topology != "general":
        raise ValueError(f"unknown topology {topology!r}")
    elif profiled:
        gamma_of_k, k_values = gamma.gamma, gamma.k_values()
    else:
        gamma_of_k, k_values = (lambda k: gamma), itertools.count(1)
    k = smallest_k(gamma_of_k, f, k_values, log_base)
    gamma_k = gamma_of_k(k)
    _check_gamma(gamma_k)
    t = (n_reporting / 2.0) * (gamma_k * p_in ** k / (f + 1.0) + p ** k)
    return DetectorConfig.nn(k=k, t=t, note=(
        f"dense regime: K={k} T={t:.6g} gamma={gamma_k:.6g} p={p:.6g} p_in={p_in:.6g}"))


def prescribe(graph_n: int, n_reporting: int, regime: str = "auto", *,
              q: float | None = None, alpha: float | None = None, f: float = 0.0,
              gamma: float | GammaProfile | None = None, topology: str = "general",
              log_base: float | None = None, beta: float | None = None,
              rho: float | None = None, mu: float | None = None) -> DetectorConfig:
    """K and T for a snapshot of n_reporting reporters on a graph_n-node graph.

    ``regime`` "auto" picks "dense" when the observed density
    n_reporting/graph_n exceeds AUTO_DENSITY_CUTOFF, else "small". The small
    regime applies select_params_small; beta defaults to
    1 - log max(n_reporting, 2)/log graph_n, clamped into (0, 1). The dense
    regime applies select_params_dense to the matched reporting
    probabilities of (q, alpha, f) and ``gamma``. The note of the returned
    config says what was chosen and why.
    """
    note = ""
    if regime == "auto":
        density = n_reporting / graph_n
        regime = "dense" if density > AUTO_DENSITY_CUTOFF else "small"
        note = (f"auto regime: density {density:.6g} vs cutoff "
                f"{AUTO_DENSITY_CUTOFF:g} -> {regime}; ")
    if regime == "small":
        if beta is None:
            if graph_n < 2:
                raise ValueError("deriving beta needs a graph of at least 2 nodes")
            beta = 1.0 - math.log(max(n_reporting, 2)) / math.log(graph_n)
            beta = min(max(beta, 1e-6), 1.0 - 1e-6)
        cfg = select_params_small(SmallRegimeParams(beta=beta, rho=rho, mu=mu))
    elif regime == "dense":
        if q is None or alpha is None:
            raise ValueError("dense regime needs q and alpha")
        if gamma is None:
            raise ValueError("dense regime needs gamma or a gamma profile")
        probs = reporting_probabilities(q, alpha, f)
        cfg = select_params_dense(gamma, f, probs.p_in, probs.p, n_reporting,
                                  topology=topology, log_base=log_base)
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return replace(cfg, note=note + cfg.note)


@dataclass(frozen=True)
class SmallRegimeParams:
    """Small-infection exponents: reporting count N^(1-beta), true-reporter
    count N^rho, true-reporting probability N^(-mu)."""

    beta: float
    rho: float | None = None
    mu: float | None = None

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError("beta must be in (0, 1)")

    @property
    def k(self) -> int:
        return max(1, math.ceil(1.0 / self.beta) - 1)

    @property
    def feasible(self) -> bool | None:
        """Whether the sufficient condition K*mu <= rho holds (None if unknown)."""
        if self.rho is None or self.mu is None:
            return None
        return self.k * self.mu <= self.rho


def select_params_small(params: SmallRegimeParams) -> DetectorConfig:
    """Small-infection prescription: K = max(1, ceil(1/beta) - 1).

    The rule declares a contagion on the presence of any hotspot, i.e.
    count >= 1, encoded as threshold t = 0.5 under the strict-> decision.
    """
    feas = params.feasible
    feas_txt = "unknown" if feas is None else str(feas).lower()
    note = (f"small regime: K={params.k} t=0.5 beta={params.beta:.6g}, fires on "
            f"any hotspot (count >= 1); feasible(K*mu<=rho)={feas_txt}")
    if feas is False:
        logger.warning("small-regime sufficient condition K*mu <= rho violated "
                       "(K=%d, mu=%s, rho=%s)", params.k, params.mu, params.rho)
    return DetectorConfig.nn(k=params.k, t=0.5, note=note)
