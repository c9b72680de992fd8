"""Brute-force reference implementations the fast code is checked against.

Everything here recomputes from raw adjacency with the dumbest possible
algorithm (all-pairs BFS, explicit sorts) and must stay independent of the
query paths under test.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from hotspot.graph import Graph
from hotspot.seeds import splitmix64


def hop_distances(g: Graph, src: int) -> dict[int, int]:
    """Plain queue BFS returning hop distance to every reachable node."""
    dist = {src: 0}
    queue = deque([src])
    while queue:
        v = queue.popleft()
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
    dist = hop_distances(g, i)
    return sorted(v for v, d in dist.items() if 0 < d <= l)


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


def prefix_length_oracle(members: list[int], reporting: set[int]) -> int:
    """How many of ``members``, from the front, report without a gap."""
    length = 0
    while length < len(members) and members[length] in reporting:
        length += 1
    return length


def random_graph(n: int, edge_prob: float, rng: np.random.Generator) -> Graph:
    """Small dense-ish random graph for oracle comparisons."""
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < edge_prob]
    return Graph.from_edges(n, np.asarray(edges, dtype=np.int64).reshape(-1, 2))
