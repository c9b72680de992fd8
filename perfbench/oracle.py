"""Brute-force references the benchmark checks the program's outputs against.

Distances come from a plain queue BFS over ``Graph.neighbors``; members are
then ranked by (distance, id), the canonical order the package documents.
Nothing here calls the package's neighborhood code.
"""

from __future__ import annotations

from collections import deque

from hotspot.seeds import splitmix64

_MASK = (1 << 64) - 1


def hop_distances(g, src: int, max_depth: int | None = None,
                  stop_after: int | None = None) -> dict[int, int]:
    """Hop distance from src to every node within max_depth.

    With ``stop_after``, the search ends once that many nodes other than src
    are found and the distance shell holding the last of them is complete,
    which is enough to rank the stop_after nearest.
    """
    dist = {src: 0}
    queue = deque([src])
    found, cutoff = 0, None
    while queue:
        v = queue.popleft()
        d = dist[v] + 1
        if (max_depth is not None and d > max_depth) or (cutoff is not None and d > cutoff):
            break
        for w in g.neighbors(v).tolist():
            if w not in dist:
                dist[w] = d
                queue.append(w)
                found += 1
                if stop_after is not None and cutoff is None and found >= stop_after:
                    cutoff = d
    return dist


def nn_oracle(g, i: int, k: int) -> list[int]:
    dist = hop_distances(g, i, stop_after=k)
    return [v for _, v in sorted((d, v) for v, d in dist.items() if v != i)[:k]]


def ball_oracle(g, i: int, l: int) -> list[int]:
    dist = hop_distances(g, i, max_depth=l)
    return [v for _, v in sorted((d, v) for v, d in dist.items() if v != i)]


def perceived(seed: int, flip_prob: float, magnitude: int,
              observer: int, target: int, true_d: int) -> int:
    """The documented misestimation rule: a pair farther than magnitude
    moves by +-magnitude with probability flip_prob, stable per pair."""
    if true_d <= magnitude:
        return true_d
    h = splitmix64(splitmix64(seed ^ (observer & _MASK)) ^ target)
    if (h >> 11) / 2.0 ** 53 >= flip_prob:
        return true_d
    return true_d + (magnitude if h & 1 else -magnitude)


def noisy_nn_oracle(g, i: int, k: int, seed: int, flip_prob: float,
                    magnitude: int) -> list[int]:
    """k nearest by (perceived distance, id) over i's whole component."""
    dist = hop_distances(g, i)
    ranked = sorted((perceived(seed, flip_prob, magnitude, i, v, d), v)
                    for v, d in dist.items() if v != i)
    return [v for _, v in ranked[:k]]


def indicator(members, reporting, s: int) -> bool:
    return sum(1 for v in members if v in reporting) >= s


def interior_fraction(g, infected: set[int], k: int) -> float:
    """Share of infected nodes whose k nearest neighbors are all infected."""
    inside = sum(1 for i in infected if all(v in infected for v in nn_oracle(g, i, k)))
    return inside / len(infected)
