"""Brute-force reference implementations the fast code is checked against.

Everything here recomputes from raw adjacency with the dumbest possible
algorithm (all-pairs BFS, explicit sorts) and must stay independent of the
query paths under test.
"""

from __future__ import annotations

import heapq
import logging
from collections import deque

import numpy as np

from hotspot.graph import Graph
from hotspot.scenario import EpidemicOutcome
from hotspot.seeds import splitmix64

logger = logging.getLogger(__name__)


def csr_oracle(n: int, edges) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(indptr, indices, n_duplicates, n_self_loops) of the simple graph on
    an (m, 2) edge array. Canonical u < v keys go through np.unique; both
    directions are then ordered by a lexsort on (src, dst) and rows counted
    with np.add.at. An edge listed in both directions is one duplicate."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    loops = edges[:, 0] == edges[:, 1]
    edges = edges[~loops]
    keys = np.minimum(edges[:, 0], edges[:, 1]) * n + np.maximum(edges[:, 0], edges[:, 1])
    uniq = np.unique(keys)
    src = np.concatenate([uniq // n, uniq % n])
    dst = np.concatenate([uniq % n, uniq // n])
    order = np.lexsort((dst, src))
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.add.at(indptr, src[order] + 1, 1)
    np.cumsum(indptr, out=indptr)
    return indptr, dst[order], int(keys.size - uniq.size), int(loops.sum())


def csr_invariants(g: Graph) -> None:
    """Raise unless g holds a valid CSR: indptr has n + 1 int64 entries,
    starts at 0, never decreases and ends at indices.size; every index lies
    in [0, n); each row strictly ascends without its own node; and every
    edge (i, j) comes with (j, i)."""
    indptr, indices, n = g._indptr, g._indices, g.n
    if indptr.dtype != np.int64 or indptr.shape != (n + 1,):
        raise AssertionError(f"indptr {indptr.dtype} {indptr.shape} for n={n}")
    if indptr[0] != 0 or indptr[-1] != indices.size or np.any(np.diff(indptr) < 0):
        raise AssertionError(f"indptr not offsets into {indices.size} indices")
    if indices.dtype != np.int64 or np.any((indices < 0) | (indices >= n)):
        raise AssertionError(f"indices not int64 ids in [0, {n})")
    pairs = set()
    for i in range(n):
        row = indices[indptr[i]:indptr[i + 1]].tolist()
        if row != sorted(set(row)) or i in row:
            raise AssertionError(f"row of node {i} not strictly ascending without {i}: {row}")
        pairs.update((i, j) for j in row)
    for i, j in pairs:
        if (j, i) not in pairs:
            raise AssertionError(f"edge {i}-{j} not symmetric")


def tree_level_offsets(degree: int, depth: int) -> list[int]:
    """Start index of each level for a gen_tree graph (level-order ids)."""
    offsets = [0]
    for level in range(depth + 1):
        offsets.append(offsets[-1] + degree ** level)
    return offsets


def hop_distances(g: Graph, src: int, max_depth: int | None = None) -> dict[int, int]:
    """Plain queue BFS returning hop distance to every node reachable from
    src, or only to those within ``max_depth`` hops."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
        if dist[v] == max_depth:
            continue
        for w in g.neighbors(v).tolist():
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def nn_oracle(g: Graph, i: int, k: int) -> list[int]:
    """k nearest neighbors by full sort over (distance, id)."""
    dist = hop_distances(g, i)
    ranked = sorted((d, v) for v, d in dist.items() if v != i)
    return [v for _, v in ranked[:k]]


def ball_oracle(g: Graph, i: int, l: int) -> list[int]:
    """Nodes at hop distance 1..l from i, sorted by (distance, id); the BFS
    stops at depth l."""
    dist = hop_distances(g, i, max_depth=l)
    return [v for _, v in sorted((d, v) for v, d in dist.items() if v != i)]


def components_oracle(g: Graph) -> list[list[int]]:
    """Connected components by a stack DFS from every unvisited node, each
    sorted, listed in the order of their smallest id."""
    seen: set[int] = set()
    comps = []
    for start in range(g.n):
        if start in seen:
            continue
        seen.add(start)
        comp, stack = [start], [start]
        while stack:
            for w in g.neighbors(stack.pop()).tolist():
                if w not in seen:
                    seen.add(w)
                    comp.append(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def largest_component_oracle(g: Graph) -> list[int]:
    """Node ids of the first strictly largest component in DFS start order."""
    best: list[int] = []
    for comp in components_oracle(g):
        if len(comp) > len(best):
            best = comp
    return best


def perceived_oracle(seed: int, flip_prob: float, magnitude: int,
                     observer: int, target: int, true_d: int) -> int:
    """Observer's perceived hop distance: beyond ``magnitude`` hops it is
    shifted by +-magnitude with probability flip_prob, keyed by the pair."""
    if true_d <= magnitude:
        return true_d
    h = splitmix64(splitmix64(seed ^ observer) ^ target)
    if (h >> 11) / 2.0 ** 53 >= flip_prob:
        return true_d
    return true_d + (magnitude if h & 1 else -magnitude)


def noisy_ranking_oracle(g: Graph, i: int, seed: int, flip_prob: float,
                         magnitude: int) -> list[tuple[int, int]]:
    """(perceived distance, id) of every node reachable from i, fully sorted."""
    return sorted((perceived_oracle(seed, flip_prob, magnitude, i, v, d), v)
                  for v, d in hop_distances(g, i).items() if v != i)


def hotspot_count_oracle(g: Graph, reporting: set[int], k: int, s: int) -> int:
    """Materialize every NN set from scratch and count the firing reporters."""
    count = 0
    for i in sorted(reporting):
        members = nn_oracle(g, i, k)
        if sum(1 for v in members if v in reporting) >= s:
            count += 1
    return count


def interior_fraction_oracle(g: Graph, infected: set[int], k: int) -> float:
    """Share of infected nodes whose k nearest neighbors are all infected."""
    inside = sum(1 for i in infected if all(v in infected for v in nn_oracle(g, i, k)))
    return inside / len(infected)


def random_graph(n: int, edge_prob: float, rng: np.random.Generator) -> Graph:
    """Small dense-ish random graph for oracle comparisons."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def edge_list_oracle(path, compact: bool = False) -> Graph:
    """load_edge_list as a loop over the lines of the file in text mode:
    strip, skip blanks, read '#' comments and "# n=" hints, split the rest
    into exactly two str.isdigit() ids. Logs the same drop warning."""
    edges = []
    hint_n = -1
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            if stripped.startswith("#"):
                body = stripped[1:].strip()
                if body.startswith("n=") and body[2:].isdigit():
                    hint_n = max(hint_n, int(body[2:]))
                continue
            parts = stripped.split()
            if len(parts) != 2 or not all(p.isdigit() for p in parts):
                raise ValueError(
                    f"{path}: line {lineno}: expected two non-negative integers, got {stripped!r}")
            edges.append((int(parts[0]), int(parts[1])))
    if not edges:
        raise ValueError(f"{path}: no edges found")
    arr = np.asarray(edges, dtype=np.int64)
    if compact:
        ids, inverse = np.unique(arr, return_inverse=True)
        arr = inverse.reshape(arr.shape)
        n = ids.size
    else:
        n = max(int(arr.max()) + 1, hint_n)
    g = Graph._from_pairs(n, arr[:, 0], arr[:, 1])
    n_self = int(np.count_nonzero(arr[:, 0] == arr[:, 1]))
    n_dup = len(arr) - n_self - g.num_edges
    if n_dup or n_self:
        logger.warning("%s: dropped %d duplicate edge(s) and %d self-loop(s)",
                       path, n_dup, n_self)
    return g


def edge_text_oracle(ids) -> bytes:
    """The "u v" lines of the ids u0 v0 u1 v1 ..., made from Python ints by
    one %-format."""
    ids = np.asarray(ids).tolist()
    return ("%d %d\n" * (len(ids) // 2) % tuple(ids)).encode()


def save_edge_list_oracle(g: Graph, path) -> None:
    """save_edge_list formatting Python ints with %, 4096 nodes at a time."""
    indptr, indices = g._indptr, g._indices
    with open(path, "wb") as fh:
        fh.write(f"# n={g.n}\n".encode())
        for lo in range(0, g.n, 1 << 12):
            hi = min(lo + (1 << 12), g.n)
            u = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
            v = indices[indptr[lo]:indptr[hi]]
            keep = u < v
            fh.write(edge_text_oracle(np.column_stack([u[keep], v[keep]]).ravel()))


def simulate_si_oracle(g: Graph, seeds, target_size: int, rng_seed: int) -> EpidemicOutcome:
    """simulate_si with one rng.exponential() call per pushed edge clock."""
    seeds = list(seeds)
    rng = np.random.default_rng(rng_seed)
    infected_set = set(seeds)
    infected = list(seeds)
    heap: list[tuple[float, int]] = []
    for s in seeds:
        for w in g.neighbors(s).tolist():
            if w not in infected_set:
                heapq.heappush(heap, (rng.exponential(), w))
    while len(infected) < target_size and heap:
        t, v = heapq.heappop(heap)
        if v in infected_set:
            continue
        infected_set.add(v)
        infected.append(v)
        if len(infected) >= target_size:
            break
        for w in g.neighbors(v).tolist():
            if w not in infected_set:
                heapq.heappush(heap, (t + rng.exponential(), w))
    return EpidemicOutcome(seeds=seeds, infected=infected,
                           truncated=len(infected) < target_size)


def sample_outside_oracle(n: int, count: int, excluded: set[int], rng) -> list[int]:
    """count distinct uniform draws from {0..n-1} minus excluded, with the
    set arithmetic of the first implementation: a setdiff1d pool for small n
    or large count, else one accept-or-skip pass per draw in draw order."""
    available = n - len(excluded)
    if n <= 100_000 or count > available // 2:
        pool = np.setdiff1d(np.arange(n, dtype=np.int64),
                            np.array(sorted(excluded), dtype=np.int64))
        return sorted(rng.choice(pool, size=count, replace=False).tolist())
    chosen: set[int] = set()
    while len(chosen) < count:
        draw = rng.integers(0, n, size=2 * (count - len(chosen)) + 8).tolist()
        for v in draw:
            if v not in excluded and v not in chosen:
                chosen.add(v)
                if len(chosen) == count:
                    break
    return sorted(chosen)
