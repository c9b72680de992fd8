"""Immutable undirected graphs with hop-distance neighborhood queries.

Adjacency is in compressed sparse row form (one flat index array plus
per-node offsets): million-node graphs stay cheap, and every query is
read-only, so a Graph can be shared freely across threads.

Neighborhood order is canonical throughout the package: nondecreasing hop
distance, ascending node id inside each distance shell, so a k-nearest set
of any size is a prefix of it. The detector and calibration code scan all
their nodes at once through :meth:`Graph.neighborhoods`, or
:meth:`Graph.hotspots` for the detector's test, two answers of the
package's one neighborhood scan.
"""

from __future__ import annotations

import io
import logging
import os
import re
from dataclasses import dataclass

import numpy as np

from .seeds import splitmix64_array

logger = logging.getLogger(__name__)

# refuse to build graphs that clearly will not fit in memory
MAX_NODES = 100_000_000

# neighborhood modes: the K nearest neighbors, or the ball of radius l
NN = "nn"
BALL = "ball"

# nodes per chunk of a NearestTable build
_BLOCK = 512

# (center, node) pairs a batch of Graph.neighborhoods aims to expand over its
# levels, and row entries a chunk of the hotspot test's depth-1 pass reads; a
# first batch reads a sixteenth of them at the mean degree. That spreads a BFS
# level's fixed numpy calls (27 to 64 plain, about 100 noisy) while a batch's
# arrays stay near this size: on an 8000-node ER giant (1k pairs a level) a first
# batch holds about 1,700 centers, so a sweep's 900 reporters run as one batch
_PAIRS = 1 << 16

_EMPTY = np.empty(0, dtype=np.int64)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending (np.unique's result,
    from one sort and a neighbor-inequality mask). To hold no second copy,
    ``values`` is sorted in place, and returned unless it holds a repeat:
    the caller must own it."""
    values.sort()
    if values.size:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        if not keep.all():
            values = values[keep]
    return values


def _int_ids(values, what: str = "node id") -> np.ndarray:
    """``values`` (an array or any iterable) as an int64 array. Integral
    floats pass; a fractional or non-finite float, an id outside int64, or a
    boolean array (a mask, not ids), raises ValueError naming it."""
    values = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    kind = values.dtype.kind
    if kind == "b":
        raise ValueError(f"{what}s must be integers, got a boolean array")
    if kind == "f":
        bad = values[~np.isfinite(values) | (values != np.trunc(values))]
        if bad.size:
            raise ValueError(f"{what} {bad[0]} is not an integer")
    # numpy holds an id past int64 as a float, a uint64 or a Python int
    if kind in "fO" or kind == "u" and values.itemsize == 8:
        bad = values[(values < -2**63) | (values >= 2**63)]
        if bad.size:
            raise ValueError(f"{what} {int(bad[0])} does not fit in int64")
    return values.astype(np.int64, copy=False)


def node_array(nodes) -> np.ndarray:
    """Distinct node ids from any iterable, as a new ascending int64 array."""
    nodes = _int_ids(nodes)
    if np.all(nodes[1:] > nodes[:-1]):  # already ascending and distinct
        return nodes.copy()
    return sorted_unique(nodes.copy())


def _centers_of(centers, n: int) -> np.ndarray:
    """Ascending distinct node ids as an int64 array, checked against a graph
    of n nodes."""
    centers = _int_ids(centers)
    if np.any(centers[1:] <= centers[:-1]):
        raise ValueError("centers must be ascending and distinct")
    if centers.size and (centers[0] < 0 or centers[-1] >= n):
        bad = centers[0] if centers[0] < 0 else centers[-1]
        raise ValueError(f"node id {bad} out of range for a graph of {n} nodes")
    return centers


def _max_batch(n: int) -> int:
    """The most centers one batch of Graph.neighborhoods may hold on a graph
    of n nodes: it keeps the batch's largest codes, the BFS level's
    (owner << b | node) << 1 with b = n.bit_length(), below 2**63."""
    return 1 << (62 - n.bit_length())


class Graph:
    """Immutable undirected simple graph over nodes 0..n-1: build one with
    :meth:`from_edges`, a generator or :func:`load_edge_list`."""

    __slots__ = ("_n", "_indptr", "_indices")

    def __init__(self, *args, **kwargs):
        raise TypeError("build a Graph with Graph.from_edges, gen_erdos_renyi, gen_grid, "
                        "gen_tree, gen_power_law or load_edge_list")

    n = property(lambda self: self._n)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an iterable (or (m,2) array) of endpoints.

        Self-loops and duplicate edges are dropped silently. Directed input
        is symmetrized. Endpoints must be integers (integral floats pass).
        """
        if n < 0 or n > MAX_NODES:
            raise ValueError(f"node count {n} out of supported range")
        edges_arr = _int_ids(edges, "edge endpoint")
        if edges_arr.size == 0:
            edges_arr = edges_arr.reshape(0, 2)
        if edges_arr.ndim != 2 or edges_arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if edges_arr.size and (edges_arr.min() < 0 or edges_arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        return cls._from_pairs(n, edges_arr[:, 0], edges_arr[:, 1])

    @classmethod
    def _from_pairs(cls, n: int, u: np.ndarray, v: np.ndarray) -> "Graph":
        """The graph on the pairs (u[i], v[i]) of two int64 arrays, given in
        either direction; repeats and self-loops are dropped. Every graph is
        built here, from a generator's sampled pairs or those a giant's cut
        keeps: one sort of the keys u << b | v, b = n.bit_length(), orders each row.
        Both directions' keys fill one array, made, sorted and cut to ``indices`` in
        place, its rows counted into ``indptr`` a chunk at a time: beside the pairs,
        which are only read, a step holds the CSR and a chunk, or two key arrays
        while repeats are dropped. The CSR is read-only."""
        if not (keep := u != v).all():
            u, v = u[keep], v[keep]
        b = int(n).bit_length()
        keys = np.concatenate([u, v])
        keys <<= b
        keys[:u.size] |= v
        keys[u.size:] |= u
        keys = sorted_unique(keys)
        indptr = np.zeros(n + 1, dtype=np.int64)
        for at in range(0, keys.size, _PAIRS):  # sorted, a chunk's rows are one run
            rows = keys[at:at + _PAIRS] >> b
            indptr[rows[0] + 1:rows[-1] + 2] += np.bincount(rows - rows[0])
        np.cumsum(indptr, out=indptr)
        keys &= (1 << b) - 1  # each key's column
        g = object.__new__(cls)
        g._n, g._indptr, g._indices = int(n), indptr, keys
        indptr.flags.writeable = keys.flags.writeable = False
        return g

    # -- basic queries -----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self._indices.size // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (read-only view)."""
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    # -- neighborhood queries ----------------------------------------------

    # one-center forms of neighborhoods, NoisyView's too, kept as the names that
    # perfbench/tracing.py wraps (tests/test_bench_contract.py pins them)
    def nn_members(self, i: int, k: int) -> list[int]:
        return self.neighborhoods(np.array([i]), k, NN)[1].tolist()

    def ball_members(self, i: int, l: int) -> list[int]:
        return self.neighborhoods(np.array([i]), l, BALL)[1].tolist()

    def neighborhoods(self, centers: np.ndarray, size: int, mode: str):
        """Canonical neighborhoods of many centers in one batched BFS.

        ``centers`` is an ascending array of distinct node ids (checked).
        Returns int64 arrays (owner, member, rank), sorted by owner then
        rank: member is the rank-th (0-based) member of centers[owner]'s
        neighborhood. A center's members come in (hop distance, id) order;
        mode "nn" keeps the first ``size`` of them, mode "ball" every one
        within ``size`` hops. The center is never a member.

        Centers go in batches: the first reads about _PAIRS >> 4 row entries at the
        mean degree, each later one expands about _PAIRS pairs at the last one's
        rate per center (at least 1, at most _max_batch). A batch runs one
        level-synchronous BFS over (center, node) pairs keyed owner << b | node,
        b = n.bit_length(). Depth 1 is a prefix of each center's sorted CSR row,
        ranked by place (a plain nn center reads ``size`` entries), then recorded,
        counted and filtered by the tail of every deeper level. A deeper level
        expands the shell; one sort of tagged codes keeps the candidates in neither
        shell: in an undirected graph, the unvisited pairs. A level lies at one
        distance in (center, node) order, so a pair's rank is its center's earlier
        members plus its place in its run (nn keeps ranks below ``size``), and each
        pair is placed at its center's offset plus its rank, with no sort. A
        NoisyView ranks by perceived distance alike. The hotspot test reads depth 1
        alone first where that decides most centers (see _scan).
        """
        return self._scan(centers, size, mode, None)

    def hotspots(self, centers: np.ndarray, size: int, mode: str, s: int) -> np.ndarray:
        """Whether at least ``s`` members of each center's neighborhoods(centers,
        size, mode) are centers too, as a boolean array; no member is placed. A
        center is decided at ``s`` hits, or for nn once its hits plus its ranks
        still open fall short of ``s``, and then leaves the BFS. Depth 1 alone
        decides most centers of a plain nn test if s <= size <= the mean degree."""
        return self._scan(centers, size, mode, None, s)

    def _first_batch(self) -> int:  # centers reading _PAIRS >> 4 entries at the mean degree
        return (_PAIRS >> 4) * self.n // max(self._indices.size, 1)

    def _scan(self, centers, size: int, mode: str, noisy: NoisyView | None,
              s: int | None = None):
        """neighborhoods by hop distance, or by ``noisy``'s perceived one, at
        most the noise magnitude (the slack) from it: a node not found by level
        D is perceived beyond D - slack, and a member perceived at p is found by
        level p + slack, so the pairs perceived at D - slack settle at level D,
        ranked like a plain level. A ball explores ``size + slack`` hops; once
        the shell is empty the BFS jumps to where its next pending pair settles.
        With ``s``, each center's hotspot test. A plain nn one with s <= size <=
        the mean degree (an O(1) test) first reads each row's first min(deg,
        size) entries, its first members, rank by rank, _PAIRS // size centers
        at a time: s hits fire a center, too few ranks left kill it, and only
        the rest go to the BFS, the reports mask still holding every center."""
        if mode not in (NN, BALL):
            raise ValueError(f"unknown neighborhood mode {mode!r}")
        nearest = mode == NN
        if size < (1 if nearest else 0):
            raise ValueError("k must be >= 1" if nearest else "radius must be >= 0")
        centers = _centers_of(centers, self.n)
        reports, fired, todo = None, None, slice(None)  # todo: the centers the BFS decides
        if s is not None:  # the centers, as a node mask over every batch
            reports = np.zeros(self.n, dtype=bool)
            reports[centers] = True
            if noisy is None and nearest and s <= size <= self._indices.size // max(self.n, 1):
                fired, todo = np.zeros(centers.size, dtype=bool), np.zeros(centers.size, dtype=bool)
                step = max(_PAIRS // size, 1)  # a chunk reads at most _PAIRS entries
                for lo in range(0, centers.size, step):
                    start = self._indptr[centers[lo:lo + step]]
                    found = np.minimum(self._indptr[centers[lo:lo + step] + 1] - start, size)
                    hits = sum(reports[self._indices.take(start + j, mode="clip")] & (j < found)
                               for j in range(size))  # each row's entry j, where it has one
                    fired[lo:lo + step] = hits >= s
                    todo[lo:lo + step] = (hits < s) & (hits + size - found >= s)
        queue, cap = centers[todo], _max_batch(self.n)
        parts = [(_EMPTY, _EMPTY, _EMPTY) if s is None else (_EMPTY.astype(bool),)]
        lo, block = 0, min(max(self._first_batch(), 1), cap)
        while lo < queue.size:
            *part, expanded = self._neighborhood_block(
                queue[lo:lo + block], size, nearest, noisy, reports, s)
            if s is None:
                part[0] += lo  # owners count from the batch's first center
            parts.append(part)
            lo += block
            block = min(max(_PAIRS * block // max(expanded, 1), 1), cap)
        arrays = tuple(np.concatenate(column) for column in zip(*parts))
        if fired is not None:  # the BFS verdicts join the depth-1 pass verdicts
            fired[todo], arrays = arrays[0], (fired,)
        return arrays if s is None else arrays[0]

    def _neighborhood_block(self, centers, size, nearest, noisy, reports=None, s=None):
        b, indptr, indices = self.n.bit_length(), self._indptr, self._indices
        mask = (1 << b) - 1  # a pair's key is owner << b | node: its node is key & mask
        slack = 0 if noisy is None else noisy._noise.magnitude
        counting = reports is not None  # a hotspot test: hits per level, decided centers drop
        # depth 1 is a prefix of each center's row, ranked by place (a ball
        # of radius 0 reads none); found counts the members ranked so far
        start = indptr[centers]
        deg = indptr[centers + 1] - start
        found = np.minimum(deg, size) if noisy is None and nearest or not size else deg
        if counting and nearest and s > size:
            found = np.zeros_like(deg)  # no center can fire: none reads its row
        ends = found.cumsum()
        expanded = int(ends[-1])
        owner = np.arange(centers.size, dtype=np.int64).repeat(found)
        rank = np.arange(expanded) - (ends - found).repeat(found)
        new = owner << b | indices[start.repeat(found) + rank]
        shell = np.arange(centers.size, dtype=np.int64) << b | centers  # depth 0
        level, at, keep = new, owner, slice(None)  # a level's pairs, centers and kept ranks
        keys, tags, hits = [], [], np.zeros(centers.size, dtype=np.int64)
        pending = _EMPTY  # a noisy view's pairs found but not yet settled
        if noisy is not None:
            observed = noisy._observers(centers)  # hashed once per batch
            # depth 1 is perceived as it is (1 <= slack): it settles at 1 + slack
            pending, pending_dist = new, np.ones(expanded, dtype=np.int64)
            level = at = rank = _EMPTY
            found = np.zeros_like(deg)
        depth = 1
        while True:
            if counting:
                ranked = at[keep]
                hits += np.bincount(ranked[np.flatnonzero(reports[level[keep] & mask])],
                                    minlength=centers.size)
            else:
                keys.append(level[keep])
                tags.append(rank[keep])
            prev, shell = shell, new
            # a decided center stays decided: its pairs leave both shells (a
            # level that ranks no pair decides no center)
            if level.size and (nearest or counting):
                # undecided: nn short of ``size`` members; counting not yet fired or dead
                active = (found < size if not counting else
                          (hits < s) & (hits + size - found >= s) if nearest else hits < s)
                shell = new[np.flatnonzero(active[owner])]
                prev = prev[np.flatnonzero(active[prev >> b])]
                if noisy is not None:
                    left = np.flatnonzero(active[pending >> b])
                    pending, pending_dist = pending[left], pending_dist[left]
            if not (shell.size or pending.size) or not nearest and depth >= size + slack:
                break
            if shell.size:
                depth += 1
                nodes = shell & mask
                start = indptr[nodes]
                deg = indptr[nodes + 1] - start
                ends = deg.cumsum()
                expanded += int(ends[-1])
                new = indices[(start - ends + deg).repeat(deg) + np.arange(ends[-1])]
                new |= (shell - nodes).repeat(deg)
                # codes key << 1 (shell pairs) and key << 1 | 1 (candidates):
                # once sorted, a candidate is new if its predecessor's key differs
                code = np.concatenate([prev, shell, new])
                code <<= 1
                code[prev.size + shell.size:] |= 1
                code.sort()
                keep = np.bitwise_and(code, 1, out=np.empty(code.size, bool), casting="unsafe")
                keep[1:] &= np.diff(code) > 1
                # flatnonzero and a gather: numpy's boolean indexing copies
                # run by run, several times slower on masks of short runs
                new = code[np.flatnonzero(keep)] >> 1
                owner = new >> b
            else:  # the shell is spent: jump to the level where the next pending pair settles
                depth = int(pending_dist.min()) + slack
                new = owner = _EMPTY
            level, at = new, owner
            if noisy is not None:
                # unfound nodes lie beyond depth hops, so are perceived beyond
                # depth - slack: the pending pairs perceived at depth - slack settle
                dist, fresh = noisy._perceive(observed, owner, new & mask, depth), new
                if not nearest:  # a ball holds only pairs it may rank: all settle by size + slack
                    near = np.flatnonzero(dist <= size)
                    dist, fresh = dist[near], new[near]
                pending = np.concatenate([pending, fresh])
                pending_dist = np.concatenate([pending_dist, dist])
                settled = pending_dist <= depth - slack
                level = np.sort(pending[settled])
                at = level >> b
                left = np.flatnonzero(~settled)
                pending, pending_dist = pending[left], pending_dist[left]
            # a level is in (center, node) order, all at one distance: a
            # pair's rank is its center's members from earlier levels plus
            # its place in its center's run
            count = np.bincount(at, minlength=centers.size)
            rank = np.arange(level.size) + (found - count.cumsum() + count)[at]
            found += count
            keep = slice(None)
            if nearest:  # the cut at size falls inside this level only
                keep = np.flatnonzero(rank < size)
                np.minimum(found, size, out=found)
        if counting:
            return hits >= s, expanded
        # no sort: each pair goes to its center's offset plus its rank
        key, tag = np.concatenate(keys), np.concatenate(tags)
        at = (found.cumsum() - found)[key >> b] + tag
        member, rank = np.empty_like(key), np.empty_like(tag)
        member[at], rank[at] = key & mask, tag
        owner = np.arange(centers.size, dtype=np.int64).repeat(found)
        return owner, member, rank, expanded

    # -- components ---------------------------------------------------------

    def largest_component(self) -> tuple["Graph", np.ndarray]:
        """The largest connected component as a graph of its own.

        Returns (giant, old_ids) where old_ids[new] is the original id.
        Of equally large components, the one with the smallest node id wins.
        The giant is cut by :func:`_giant_of_pairs` from the u < v half of
        the CSR, each edge once.
        """
        u = np.repeat(np.arange(self.n, dtype=np.int64), np.diff(self._indptr))
        keep = np.flatnonzero(u < self._indices)
        pairs = [self.n, u[keep], self._indices[keep]]
        del u, keep  # the cut frees the pairs it is handed: hold no rows beside them
        return _giant_of_pairs(pairs)


def _pair_labels(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Label of every node of the graph on nodes 0..n-1 and the pairs
    (u[i], v[i]): the smallest node id in its component.

    Min-label propagation with pointer jumping. Each round hooks, for every
    pair whose ends carry different labels, the larger label onto the
    smaller, then replaces every label by its label's label until that
    changes nothing; pairs whose ends share a label (self-loops and repeats
    at once) leave for good. A label is always the id of a node in the same
    component and never increases, so once no pair crosses two labels, each
    label is its component's minimum.

    A round carries each pair's labels (a, b) in place of its ends: once
    jumped, every label is a root, and a root's label after the next round
    is that of every node it labelled, so labels[a] == labels[u]. The hooks
    are the same, from 4 gathers a round in place of 6.
    """
    labels = np.arange(n, dtype=np.int64)
    a, b = u, v  # labels[u], labels[v] before the first hook
    while (cross := np.flatnonzero(a != b)).size:
        if cross.size < a.size:  # a first round with no self-loop reads the pairs as they are
            a, b = a[cross], b[cross]
        np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
        while ((jumped := labels[labels]) != labels).any():
            labels = jumped
        del cross, jumped  # the second equals labels: hold neither through the next gathers
        a, b = labels[a], labels[b]
    return labels


def _giant_of_pairs(pairs: list) -> tuple[Graph, np.ndarray]:
    """:meth:`Graph.largest_component`'s (giant, old_ids) of the graph on the pairs
    (u[i], v[i]) of ``pairs`` = [n, u, v], cut from the pairs without building that graph:
    the pairs inside the giant, renumbered, go to one :meth:`Graph._from_pairs`. The cut
    empties ``pairs`` to free u and v once renumbered: the caller must hold them nowhere else."""
    n, u, v = pairs
    pairs.clear()
    labels = _pair_labels(n, u, v)
    inside = labels == np.argmax(np.bincount(labels, minlength=1))
    remap = np.cumsum(inside, out=labels)  # in the labels' array:
    remap -= 1  # a node's id in the giant
    keep = inside[u]  # a pair with one end inside has both
    u, v = remap[u[keep]], remap[v[keep]]
    del labels, remap, keep  # the build peaks in _from_pairs: hold only the renumbered pairs
    g = Graph._from_pairs(np.count_nonzero(inside), u, v)
    del u, v  # old_ids takes their place
    return g, np.flatnonzero(inside)


@dataclass(frozen=True)
class DistanceNoise:
    """Misestimated inter-node distances: each ordered (observer, target)
    pair with true distance > magnitude is shifted by +-magnitude with
    probability flip_prob (sign equiprobable)."""

    flip_prob: float = 0.0
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

    __slots__ = ("_g", "_noise", "_seed")

    def __init__(self, g: Graph, noise: DistanceNoise, seed: int):
        self._g = g
        self._noise = noise
        self._seed = np.uint64(int(seed) & 0xFFFFFFFFFFFFFFFF)  # keys by its low 64 bits

    n = property(lambda self: self._g.n)
    nn_members, ball_members = Graph.nn_members, Graph.ball_members  # via its neighborhoods

    def _observers(self, centers: np.ndarray) -> np.ndarray:
        """The observer half of each center's pair keys, hashed once per batch."""
        return splitmix64_array(self._seed ^ centers.astype(np.uint64))

    def _perceive(self, observed: np.ndarray, owner: np.ndarray, targets: np.ndarray,
                  true_d: int) -> np.ndarray:
        """Perceived distances of the pairs (centers[owner[i]], targets[i]) at
        true distance true_d, where observed = _observers(centers), by
        DistanceNoise's rule keyed by (seed, observer, target)."""
        mag = self._noise.magnitude
        if true_d <= mag:
            return np.full(targets.size, true_d, dtype=np.int64)
        h = splitmix64_array(observed[owner] ^ targets.astype(np.uint64))
        # (h >> 11) / 2**53 < flip_prob, scaled by a power of two: exact
        flip = np.flatnonzero((h >> np.uint64(11)) < self._noise.flip_prob * 2.0**53)
        dist = np.full(targets.size, true_d, dtype=np.int64)
        dist[flip] += np.where(h[flip] & np.uint64(1), mag, -mag)
        return dist

    def neighborhoods(self, centers: np.ndarray, size: int, mode: str):
        """Graph.neighborhoods ranked by perceived distance."""
        return self._g._scan(centers, size, mode, self)

    def hotspots(self, centers: np.ndarray, size: int, mode: str, s: int) -> np.ndarray:
        """Graph.hotspots by perceived distance, counted as the members settle."""
        return self._g._scan(centers, size, mode, self, s)


class NearestTable:
    """The ``k_max`` nearest neighbors of every node of a view, scanned
    once, as a view itself: ``neighborhoods`` answers "nn" queries of any
    size up to ``k_max`` by gathers, with the arrays the view gives.

    Members are stored in CSR form: node i's neighbors, in the view's
    order, are member[offsets[i]:offsets[i + 1]], fewer than k_max when
    i's component ends first. A table costs about 8 * n * k_max bytes.
    """

    __slots__ = ("_n", "_k_max", "_member", "_offsets")

    def __init__(self, view, k_max: int):
        if k_max < 1:
            raise ValueError("k must be >= 1")
        self._n, self._k_max = view.n, int(k_max)
        # one query per _BLOCK nodes: one over every node returns owner and rank arrays
        # that triple the table while built (calibrate_gamma's peak RSS 39.7 -> 43 MB)
        members, counts = [_EMPTY], [_EMPTY]
        for lo in range(0, self.n, _BLOCK):
            centers = np.arange(lo, min(lo + _BLOCK, self.n), dtype=np.int64)
            owner, member, _ = view.neighborhoods(centers, self.k_max, NN)
            members.append(member)
            counts.append(np.bincount(owner, minlength=centers.size))
        self._member = np.concatenate(members)
        self._offsets = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(np.concatenate(counts), out=self._offsets[1:])
        self._member.flags.writeable = self._offsets.flags.writeable = False

    n = property(lambda self: self._n)
    k_max = property(lambda self: self._k_max)

    def neighborhoods(self, centers: np.ndarray, size: int, mode: str):
        """The view's neighborhoods(centers, size, "nn") for size <= k_max."""
        if mode != NN:
            raise ValueError(f"a nearest-neighbor table cannot answer mode {mode!r}")
        if size < 1:
            raise ValueError("k must be >= 1")
        if size > self.k_max:
            raise ValueError(f"k={size} exceeds the table's k_max={self.k_max}")
        centers = _centers_of(centers, self.n)
        start = self._offsets[centers]
        count = np.minimum(self._offsets[centers + 1] - start, size)
        first = count.cumsum() - count
        owner = np.arange(centers.size, dtype=np.int64).repeat(count)
        rank = np.arange(owner.size, dtype=np.int64) - first.repeat(count)
        return owner, self._member[start.repeat(count) + rank], rank


# -- file I/O ----------------------------------------------------------------

# the ASCII blanks str.split() splits on, less the line breaks; a body of
# an edge-list file (its comment lines cut out) holds these, digits and \n
_BLANKS = b" \t\x0b\x0c\x1c\x1d\x1e\x1f"
_TO_SPACE = bytes.maketrans(_BLANKS, b" " * len(_BLANKS))
_BODY_BYTES = b"0123456789" + _BLANKS + b"\n"
_DIGIT = re.compile(rb"[0-9]")

# nodes per block of save_edge_list: a block's ids and digit rows stay near 1 MB
_WRITE_BLOCK = 1 << 13


def load_edge_list(path, compact: bool = False) -> Graph:
    """Read a whitespace-separated "u v" edge list into a Graph.

    Lines break at \\n, \\r\\n or \\r. A line whose first non-blank byte is '#'
    is a comment, except that a "# n=<count>" hint (as written by
    :func:`save_edge_list`) extends the node count beyond the largest
    endpoint so trailing isolated nodes survive a round trip. Every other
    line is blank or holds two non-negative int64 ids separated by ASCII
    blanks; anything else raises ValueError naming the first such line. The
    file is plain text whatever its name: "g.gz" is not decompressed. Node
    ids are used as given (their count may not exceed MAX_NODES); with
    ``compact=True`` they are remapped to dense indices 0..m-1 in ascending
    id order."""
    arr, hint_n = _read_pairs(path)
    if compact:
        ids, inverse = np.unique(arr, return_inverse=True)
        arr = inverse.reshape(arr.shape)
        n = ids.size
    else:
        n = max(int(arr.max()) + 1, hint_n)
    if n > MAX_NODES:
        raise ValueError(f"{path}: node count {n} out of supported range")
    g = Graph._from_pairs(n, arr[:, 0], arr[:, 1])
    n_self = int(np.count_nonzero(arr[:, 0] == arr[:, 1]))
    n_dup = len(arr) - n_self - g.num_edges  # an edge in both directions is one duplicate
    if n_dup or n_self:
        logger.warning("%s: dropped %d duplicate edge(s) and %d self-loop(s)",
                       path, n_dup, n_self)
    return g


def _read_pairs(path) -> tuple[np.ndarray, int]:
    """The (m, 2) int64 id pairs of an edge-list file, in file order, and its largest
    "# n=" hint (-1 without one). Its bytes are read for the hints and a byte check of
    all but the comment lines, and dropped; np.loadtxt then reads the path in chunks (a
    file object it would read line by line), dropping those comments at every '#'."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    hint_n, commented, edges, done, end = -1, 0, None, 0, 0
    while (at := data.find(b"#", end)) >= 0:
        start = data.rfind(b"\n", 0, at) + 1
        end = data.find(b"\n", at)
        end = len(data) if end < 0 else end
        text = data[start:end].strip(_BLANKS)
        if not text.startswith(b"#"):
            break  # no comment: its '#' fails the byte check below
        hint = text[1:].strip(_BLANKS)
        if hint.startswith(b"n=") and hint[2:].isdigit():
            hint_n = max(hint_n, int(hint[2:]))
        commented += len(text.translate(None, _BODY_BYTES))
        edges = edges or _DIGIT.search(data, done, start)  # searched in place, not copied
        done = end
    if len(data.translate(None, _BODY_BYTES)) != commented:  # a foreign byte outside comments
        raise _bad_line(path)
    if not (edges or _DIGIT.search(data, done)):
        raise ValueError(f"{path}: no edges found")
    name = os.path.join(".", os.fsdecode(path))  # "./": numpy fetches no "s://x" as a URL
    source = io.BytesIO(data) if name.endswith((".gz", ".bz2", ".xz", ".lzma")) else name
    del data  # numpy would decompress a .gz path, so gets its bytes; any other it reads again
    try:
        pairs = np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2, encoding="latin1")
    except ValueError:  # a line of another column count, or an id past int64
        raise _bad_line(path) from None
    if pairs.shape[1] != 2:  # every line of one wrong column count
        raise _bad_line(path)
    return pairs, hint_n


def _bad_line(path) -> ValueError:
    """The error naming the first line of the file, read again, that is neither
    blank, a comment, nor two ids; with none, the file."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            tokens = line.translate(_TO_SPACE).split()
            if tokens and not tokens[0].startswith(b"#") and not (
                    len(tokens) == 2 and all(map(_is_id, tokens))):
                text = line.decode("utf-8", "replace").strip()
                return ValueError(
                    f"{path}: line {lineno}: expected two non-negative integers, got {text!r}")
    return ValueError(f"{path}: rejected, but no line of it is bad; did it change while read?")


def _is_id(token: bytes) -> bool:
    """Whether token is ASCII digits of a value that fits in int64."""
    value = token.lstrip(b"0")  # fewer digits is smaller; as many compare as text
    return token.isdigit() and (len(value), value) <= (19, b"9223372036854775807")


def save_edge_list(g: Graph, path) -> None:
    """Write g as a "u v" edge list with a "# n=" node-count hint: each edge
    once, u < v, ordered by u then v; a block of ids at a time, as digits by integer division."""
    with open(path, "wb") as fh:
        fh.write(b"# n=%d\n" % g.n)
        for lo in range(0, g.n, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, g.n)
            u = np.repeat(np.arange(lo, hi), np.diff(g._indptr[lo:hi + 1]))
            v = g._indices[g._indptr[lo]:g._indptr[hi]]
            keep = u < v
            fh.write(_edge_text(np.column_stack([u[keep], v[keep]]).ravel()))


def _edge_text(ids: np.ndarray) -> bytes:
    """The lines "u v" of the int64 ids u0 v0 u1 v1 ...: an id's row is its digits,
    right-aligned in the largest id's width, then a ' ' or '\\n'; leading NULs cut."""
    width = len(str(ids.max(initial=0)))
    ids = ids.astype(np.int32 if width < 10 else np.int64)  # int32 divides ~3x faster
    rows = np.zeros((ids.size, width + 1), dtype=np.uint8)
    rows.reshape(-1, 2, width + 1)[:, :, width] = ord(" "), ord("\n")  # after u, after v
    for col in range(width - 1, -1, -1):  # units first; a leading 0 is NUL
        tens = ids // 10
        rows[:, col] = (ids - tens * 10 + ord("0")) * (ids > 0 if col < width - 1 else 1)
        ids = tens
    return rows.tobytes().replace(b"\0", b"")


# -- generators ---------------------------------------------------------------


def check_erdos_renyi(n: int, p: float) -> None:
    """Raise ValueError, as gen_erdos_renyi does, if G(n, p) is undefined or too large."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n > MAX_NODES:
        raise ValueError(f"graph of {n} nodes exceeds supported size")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    if p == 1.0 and n > 20_000:
        raise ValueError("complete graph this large is not supported")


def gen_erdos_renyi(n: int, p: float, rng_seed: int) -> Graph:
    """G(n, p): every unordered pair is an edge independently with prob p.

    Sparse graphs are sampled in O(n + m) by drawing the binomial edge
    count and then a uniform set of that many distinct pairs, which is
    distributionally identical to pair-by-pair coin flips.
    """
    return Graph._from_pairs(*_erdos_renyi_pairs(n, p, rng_seed))


def _erdos_renyi_pairs(n: int, p: float, rng_seed: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, u, v): the edges, u < v, that gen_erdos_renyi(n, p, rng_seed) builds."""
    check_erdos_renyi(n, p)
    rng = np.random.default_rng(rng_seed)
    total_pairs = n * (n - 1) // 2
    if p == 0.0 or total_pairs == 0:
        return n, _EMPTY, _EMPTY
    if p == 1.0:
        return n, *np.triu_indices(n, k=1)
    if n <= 2000:
        # one draw per cell; the cells above the diagonal are the pairs
        return n, *divmod(np.flatnonzero(np.triu(rng.random((n, n)) < p, 1)), n)
    m = int(rng.binomial(total_pairs, p))
    b = int(n).bit_length()
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = max(16, int((m - keys.size) * 1.3))
        lo = rng.integers(0, n, size=draw, dtype=np.int64)
        hi = rng.integers(0, n, size=draw, dtype=np.int64)
        hi, lo = np.maximum(lo, hi), np.minimum(lo, hi, out=lo)  # three draws' arrays at most
        keep = lo < hi
        lo <<= b
        lo |= hi
        del hi  # the keys lo << b | hi, built in lo
        keys = sorted_unique(np.concatenate([keys, lo[keep]]))
        del lo  # rng.choice holds two copies of the keys: free the draws first
    if keys.size > m:
        keys = rng.choice(keys, size=m, replace=False)
    return n, keys >> b, np.bitwise_and(keys, (1 << b) - 1, out=keys)  # rows, then in place


def gen_grid(dim: int, side: int) -> Graph:
    """d-dimensional lattice with side nodes per axis, open boundary."""
    return Graph._from_pairs(*_grid_pairs(dim, side))


def _grid_pairs(dim: int, side: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, u, v): the edges, u < v, of gen_grid(dim, side)."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if side < 2:
        raise ValueError("side must be >= 2")
    n = side ** dim
    if n > MAX_NODES:
        raise ValueError(f"grid of {n} nodes exceeds supported size")
    ids = np.arange(n, dtype=np.int64)
    # along each axis, every node not on the far face links to its successor
    lows = [ids[(ids // side ** axis) % side < side - 1] for axis in range(dim)]
    highs = [low + side ** axis for axis, low in enumerate(lows)]
    return n, np.concatenate(lows), np.concatenate(highs)


def gen_tree(degree: int, depth: int) -> Graph:
    """Rooted tree where the root and every internal node have ``degree`` children.

    Nodes are numbered in level order; total count (d^(depth+1)-1)/(d-1).
    """
    return Graph._from_pairs(*_tree_pairs(degree, depth))


def _tree_pairs(degree: int, depth: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, parent, child): the edges of gen_tree(degree, depth)."""
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = (degree ** (depth + 1) - 1) // (degree - 1)
    if n > MAX_NODES:
        raise ValueError(f"tree of {n} nodes exceeds supported size")
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // degree
    return n, parent, child


def check_power_law(n: int, exponent: float) -> None:
    """Raise ValueError, as gen_power_law does, for a size or exponent it refuses."""
    if n < 10:
        raise ValueError("n must be >= 10")
    if n > MAX_NODES:
        raise ValueError(f"power-law graph of {n} nodes exceeds supported size")
    if not exponent > 2:  # NaN too; inf gives the degree-1 limit
        raise ValueError("exponent must be > 2")


def gen_power_law(n: int, exponent: float, rng_seed: int) -> Graph:
    """Configuration-model graph with a truncated discrete power-law degree law.

    Degrees are sampled from Pr(deg = x) proportional to x^(-exponent) on
    1..floor(sqrt(n)); an odd stub total is fixed by bumping one random
    node's degree. Self-loops and multi-edges from the stub matching are
    discarded, so realized degrees can fall slightly below their draws.
    """
    return Graph._from_pairs(*_power_law_pairs(n, exponent, rng_seed))


def _power_law_pairs(n: int, exponent: float, rng_seed: int) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, u, v): the stub matching of gen_power_law(n, exponent, rng_seed),
    its self-loops and repeats still in."""
    check_power_law(n, exponent)
    rng = np.random.default_rng(rng_seed)
    d_max = int(np.sqrt(n))
    xs = np.arange(1, d_max + 1, dtype=np.float64)
    pmf = xs ** (-exponent)
    pmf /= pmf.sum()
    degrees = rng.choice(np.arange(1, d_max + 1), size=n, p=pmf)
    if degrees.sum() % 2 == 1:
        degrees[rng.integers(0, n)] += 1
    stubs = np.repeat(np.arange(n, dtype=np.int64), degrees)
    rng.shuffle(stubs)
    return n, stubs[0::2], stubs[1::2]
