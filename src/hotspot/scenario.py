"""Ground-truth scenario generation.

Two labeled snapshot sources: an SI contagion grown to a target size and
then observed through a noisy reporting overlay (false negatives with
probability 1-q, plus round(f*|true reporters|) uniform extra reporters),
and the matched null where every node reports independently with a fixed
probability. All functions are pure given their rng_seed.
"""

from __future__ import annotations

import heapq
import logging
import math
from dataclasses import dataclass

import numpy as np

from .graph import Graph, node_array
from .seeds import derive_seed

logger = logging.getLogger(__name__)

EPIDEMIC = "epidemic"
UNIFORM = "uniform"

# simulate_si draws its edge clocks in blocks that start small, so a tiny
# contagion does not overdraw, and double up to this many draws
_CLOCK_BLOCK = 4096


@dataclass(frozen=True)
class ScenarioParams:
    """Contagion-plus-reporting parameters.

    alpha: fraction of nodes ultimately infected, in (0, 1].
    q: probability an infected node truly reports.
    f: extra (uniformly placed) reporters per true reporter, >= 0.
    num_seeds: initially infected node count.
    """

    alpha: float
    q: float
    f: float
    num_seeds: int = 1

    def __post_init__(self):
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not 0.0 <= self.f < math.inf:
            raise ValueError("f must be >= 0 and finite")
        if self.num_seeds < 1:
            raise ValueError("num_seeds must be >= 1")

    def target_size(self, n: int) -> int:
        return math.ceil(self.alpha * n)

    def validate_for(self, n: int) -> None:
        if self.target_size(n) < self.num_seeds:
            raise ValueError(
                f"target infection size {self.target_size(n)} smaller than "
                f"num_seeds={self.num_seeds}")


@dataclass
class EpidemicOutcome:
    """An SI realization: seeds, infected nodes in infection order."""

    seeds: list[int]
    infected: list[int]
    truncated: bool = False


@dataclass(eq=False)
class ReportSnapshot:
    """One observed snapshot: the reporting ids in [0, n) as a sorted,
    distinct, read-only int64 array, and the label the harness scores against."""

    n: int
    reporting: np.ndarray
    truth: str

    def __post_init__(self):
        self.reporting = node_array(self.reporting)
        self.reporting.flags.writeable = False
        ids = self.reporting
        if ids.size and (ids[0] < 0 or ids[-1] >= self.n):
            bad = ids[0] if ids[0] < 0 else ids[-1]
            raise ValueError(f"reporting node {bad} out of range for n={self.n}")

    def to_text(self) -> str:
        lines = [f"truth={self.truth} n={self.n}", *map(str, self.reporting.tolist())]
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "ReportSnapshot":
        lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
        if not lines or not lines[0].startswith("truth="):
            raise ValueError("snapshot must start with 'truth=<label> n=<N>'")
        try:
            head = dict(part.split("=", 1) for part in lines[0].split())
            n = int(head["n"])
            truth = head["truth"]
            if n < 0:
                raise ValueError("negative node count")
        except (KeyError, ValueError) as exc:
            raise ValueError(f"malformed snapshot header: {lines[0]!r}") from exc
        reporting = []
        for ln in lines[1:]:
            if not (ln.isascii() and ln.isdigit()):
                raise ValueError(f"malformed snapshot line: {ln!r}")
            node = int(ln)
            # an id past int64 is out of range whatever the header says
            if node >= n or node >> 63:
                raise ValueError(f"reporting node {node} out of range for n={n}")
            reporting.append(node)
        return cls(n=n, reporting=reporting, truth=truth)

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.to_text())

    @classmethod
    def load(cls, path) -> "ReportSnapshot":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.from_text(fh.read())


def pick_seeds(g: Graph, num_seeds: int, rng_seed: int) -> list[int]:
    """Uniform sample of initially infected nodes, without replacement."""
    if not 1 <= num_seeds <= g.n:
        raise ValueError("num_seeds must be in [1, n]")
    rng = np.random.default_rng(rng_seed)
    return sorted(rng.choice(g.n, size=num_seeds, replace=False).tolist())


def simulate_si(g: Graph, seeds, target_size: int, rng_seed: int) -> EpidemicOutcome:
    """Grow an SI contagion from ``seeds`` until ``target_size`` nodes are infected.

    Every infected-susceptible edge carries an independent Exp(1) clock;
    the next infection is the minimum clock, i.e. first-passage percolation
    from the seed set. If the seed components hold fewer than target_size
    nodes the outcome is truncated (flagged, not an error).
    """
    seeds = list(seeds)
    if not seeds or len(set(seeds)) != len(seeds):
        raise ValueError("seeds must be nonempty and distinct")
    if target_size < len(seeds):
        raise ValueError("target_size must be >= number of seeds")
    is_infected = bytearray(g.n)
    for s in seeds:
        if s < 0 or s >= g.n:  # checked before the mark: bytearray[-1] is node n-1
            raise ValueError(f"seed {s} out of range")
        is_infected[s] = 1
    # slices of memoryviews over the CSR yield Python ints with no copy and
    # no numpy call per infected node
    indptr, indices = memoryview(g._indptr), memoryview(g._indices)
    clock = _exp_clocks(np.random.default_rng(rng_seed)).__next__
    infected = list(seeds)
    heap: list[tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    for s in seeds:
        for w in indices[indptr[s]:indptr[s + 1]]:
            if not is_infected[w]:
                push(heap, (clock(), w))
    while len(infected) < target_size and heap:
        t, v = pop(heap)
        if is_infected[v]:
            continue
        is_infected[v] = 1
        infected.append(v)
        if len(infected) >= target_size:
            break
        for w in indices[indptr[v]:indptr[v + 1]]:
            if not is_infected[w]:
                push(heap, (t + clock(), w))
    truncated = len(infected) < target_size
    if truncated:
        logger.debug("contagion exhausted seed components at %d/%d nodes",
                     len(infected), target_size)
    return EpidemicOutcome(seeds=seeds, infected=infected, truncated=truncated)


def _exp_clocks(rng):
    """Exp(1) draws in the order successive rng.exponential() calls give
    them, taken from rng.standard_exponential in blocks."""
    size = 16
    while True:
        yield from rng.standard_exponential(size).tolist()
        size = min(2 * size, _CLOCK_BLOCK)


def _sample_outside(n: int, count: int, excluded: np.ndarray, rng) -> np.ndarray:
    """count <= n - excluded.size distinct uniform draws from {0..n-1} minus ``excluded``."""
    taken = np.zeros(n, dtype=bool)
    taken[excluded] = True
    if n <= 100_000 or count > (n - excluded.size) // 2:
        return rng.choice(np.flatnonzero(~taken), size=count, replace=False)
    # rejection sampling; excluded and count are small relative to n here.
    # Each round keeps, in draw order, the first draws not yet taken.
    chosen = [np.empty(0, dtype=np.int64)]
    while count:
        draw = rng.integers(0, n, size=2 * count + 8)
        draw = draw[~taken[draw]]
        _, first = np.unique(draw, return_index=True)
        draw = draw[np.sort(first)][:count]
        taken[draw] = True
        chosen.append(draw)
        count -= draw.size
    return np.concatenate(chosen)


def apply_reporting(outcome: EpidemicOutcome, g: Graph, q: float, f: float,
                    rng_seed: int) -> tuple[ReportSnapshot, np.ndarray]:
    """Observe an epidemic through the noisy reporting channel.

    Each infected node reports with probability q (the true reporters);
    then round(f * |true reporters|) additional nodes, drawn uniformly
    without replacement from everyone else, also report. Rounding is
    round-half-to-even. If the request exceeds the remaining pool it is
    clamped with a warning. Returns the snapshot and the true reporters as
    a sorted id array.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must be in [0, 1]")
    if not 0.0 <= f < math.inf:
        raise ValueError("f must be >= 0 and finite")
    rng = np.random.default_rng(rng_seed)
    infected = np.asarray(outcome.infected, dtype=np.int64)
    true_reporters = node_array(infected[rng.random(infected.size) < q])
    extras_wanted = round(f * true_reporters.size)
    available = g.n - true_reporters.size
    if extras_wanted > available:
        logger.warning("clamping %d extra reporters to the %d remaining nodes",
                       extras_wanted, available)
        extras_wanted = available
    reporting = true_reporters
    if extras_wanted:
        extras = _sample_outside(g.n, extras_wanted, true_reporters, rng)
        reporting = np.concatenate([true_reporters, extras])
    return ReportSnapshot(n=g.n, reporting=reporting, truth=EPIDEMIC), true_reporters


def generate_uniform_null(g: Graph, p: float, rng_seed: int) -> ReportSnapshot:
    """Every node reports independently with probability p (the null)."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    return ReportSnapshot(n=g.n, reporting=np.flatnonzero(rng.random(g.n) < p),
                          truth=UNIFORM)


def make_epidemic_snapshot(g: Graph, params: ScenarioParams, rng_seed: int,
                           ) -> tuple[ReportSnapshot, EpidemicOutcome]:
    """Seeds -> SI growth to ceil(alpha*n) -> reporting overlay, one call."""
    params.validate_for(g.n)
    seeds = pick_seeds(g, params.num_seeds, derive_seed(rng_seed, "seeds"))
    outcome = simulate_si(g, seeds, params.target_size(g.n), derive_seed(rng_seed, "si"))
    snap, _ = apply_reporting(outcome, g, params.q, params.f, derive_seed(rng_seed, "report"))
    return snap, outcome
