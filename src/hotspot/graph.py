"""Immutable undirected graphs with hop-distance neighborhood queries.

Adjacency is stored in compressed sparse row form (one flat index array
plus per-node offsets), which keeps million-node graphs cheap and makes
every query read-only, so a Graph can be shared freely across threads.

Neighborhood order is canonical throughout the package: nondecreasing hop
distance, ascending node id inside each distance shell. The k-nearest-
neighbor set of any size is then a prefix of that order, which is what the
detector and calibration code rely on when they scan a node's surroundings
outward until some event (a reporter, an uninfected node) occurs.
"""

from __future__ import annotations

import logging

import numpy as np

logger = logging.getLogger(__name__)

# refuse to build graphs that clearly will not fit in memory
MAX_NODES = 100_000_000


class Graph:
    """Undirected simple graph over nodes 0..n-1."""

    __slots__ = ("n", "_indptr", "_indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        self._indptr = indptr
        self._indices = indices

    # -- construction ------------------------------------------------------

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from an iterable (or (m,2) array) of endpoints.

        Self-loops and duplicate edges are dropped silently; use
        :func:`clean_edges` first if you need the dropped counts. Directed
        input is symmetrized.
        """
        if n < 0 or n > MAX_NODES:
            raise ValueError(f"node count {n} out of supported range")
        edges_arr = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                               dtype=np.int64)
        if edges_arr.size == 0:
            edges_arr = edges_arr.reshape(0, 2)
        if edges_arr.ndim != 2 or edges_arr.shape[1] != 2:
            raise ValueError("edges must be pairs")
        if edges_arr.size and (edges_arr.min() < 0 or edges_arr.max() >= n):
            raise ValueError("edge endpoint out of range")
        uniq, _, _ = clean_edges(n, edges_arr)
        return cls._from_clean_undirected(n, uniq)

    @classmethod
    def _from_clean_undirected(cls, n: int, edges: np.ndarray) -> "Graph":
        # edges: unique, u < v; store both directions sorted by (src, dst)
        if edges.size == 0:
            return cls(n, np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int64))
        src = np.concatenate([edges[:, 0], edges[:, 1]])
        dst = np.concatenate([edges[:, 1], edges[:, 0]])
        order = np.lexsort((dst, src))
        src, dst = src[order], dst[order]
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.add.at(indptr, src + 1, 1)
        np.cumsum(indptr, out=indptr)
        return cls(n, indptr, dst)

    # -- basic queries -----------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self._indices.size // 2

    def neighbors(self, i: int) -> np.ndarray:
        """Sorted neighbor ids of node i (read-only view)."""
        return self._indices[self._indptr[i]:self._indptr[i + 1]]

    def degree(self, i: int) -> int:
        return int(self._indptr[i + 1] - self._indptr[i])

    def degrees(self) -> np.ndarray:
        return np.diff(self._indptr)

    # -- neighborhood queries ----------------------------------------------

    def next_shell(self, frontier: list[int], visited: set[int]) -> list[int]:
        """Neighbors of ``frontier`` not yet in ``visited``, sorted by id.

        The returned ids are added to ``visited``. Called repeatedly from
        ``[i]`` with ``visited = {i}``, it returns i's hop shells 1, 2, ... in
        canonical order, then an empty list once the component is exhausted.
        """
        indptr, indices = self._indptr, self._indices
        shell: list[int] = []
        for v in frontier:
            for w in indices[indptr[v]:indptr[v + 1]].tolist():
                if w not in visited:
                    visited.add(w)
                    shell.append(w)
        shell.sort()
        return shell

    def nn_members(self, i: int, k: int) -> list[int]:
        """The k nearest neighbors of i in canonical order.

        BFS shells are consumed whole while they fit; the final partial
        shell is cut by ascending node id. Returns fewer than k ids when
        fewer nodes are reachable. The center is never included.
        """
        if k < 1:
            raise ValueError("k must be >= 1")
        visited, shell = {i}, [i]
        members: list[int] = []
        while shell and len(members) < k:
            shell = self.next_shell(shell, visited)
            members += shell
        del members[k:]
        return members

    def ball_members(self, i: int, l: int) -> list[int]:
        """All nodes at hop distance 1..l from i, in canonical order."""
        if l < 0:
            raise ValueError("radius must be >= 0")
        visited, shell = {i}, [i]
        members: list[int] = []
        for _ in range(int(l)):
            shell = self.next_shell(shell, visited)
            if not shell:
                break
            members.extend(shell)
        return members

    # -- components ---------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Label of every node: the smallest node id in its component.

        Min-label propagation with pointer jumping. Each round hooks, for
        every edge (v, w), the node labels[v] onto labels[w] if that is
        smaller, then replaces every label by its label's label until that
        changes nothing. A label is always the id of a node in the same
        component and never increases, so the fixed point, where labels agree
        across every edge, is the component minimum.
        """
        labels = np.arange(self.n, dtype=np.int64)
        src = np.repeat(labels, np.diff(self._indptr))
        dst = self._indices
        while True:
            before = labels.copy()
            np.minimum.at(labels, labels[src], labels[dst])
            while not np.array_equal(jumped := labels[labels], labels):
                labels = jumped
            if np.array_equal(labels, before):
                return labels

    def largest_component(self) -> tuple["Graph", np.ndarray]:
        """Subgraph of the largest connected component.

        Returns (subgraph, old_ids) where old_ids[new] is the original id.
        Of equally large components, the one with the smallest node id wins.
        """
        labels = self.component_labels()
        biggest = np.argmax(np.bincount(labels, minlength=1))
        return self.subgraph(np.flatnonzero(labels == biggest))

    def subgraph(self, nodes) -> tuple["Graph", np.ndarray]:
        """Induced subgraph on ``nodes``, relabeled to 0..len(nodes)-1 in
        ascending id order."""
        keep_node = np.zeros(self.n, dtype=bool)
        keep_node[np.asarray(nodes if isinstance(nodes, np.ndarray) else list(nodes),
                             dtype=np.int64)] = True
        old_ids = np.flatnonzero(keep_node)
        remap = np.full(self.n, -1, dtype=np.int64)
        remap[old_ids] = np.arange(old_ids.size)
        src = np.repeat(remap, np.diff(self._indptr))
        dst = remap[self._indices]
        keep = (src >= 0) & (dst >= 0)
        indptr = np.zeros(old_ids.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(src[keep], minlength=old_ids.size), out=indptr[1:])
        return Graph(old_ids.size, indptr, dst[keep]), old_ids

    # -- diagnostics ---------------------------------------------------------

    def check_invariants(self) -> None:
        """Raise if adjacency is not simple, symmetric and sorted."""
        for i in range(self.n):
            row = self.neighbors(i)
            if row.size and (np.any(np.diff(row) <= 0) or np.any(row == i)):
                raise AssertionError(f"adjacency of node {i} not sorted/simple")
            for j in row.tolist():
                if i not in self._indices[self._indptr[j]:self._indptr[j + 1]]:
                    raise AssertionError(f"edge {i}-{j} not symmetric")

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


# -- edge hygiene ------------------------------------------------------------


def clean_edges(n: int, edges: np.ndarray) -> tuple[np.ndarray, int, int]:
    """Canonicalize an edge array: drop self-loops and duplicates.

    Returns (edges with u < v, unique, sorted; n_duplicates, n_self_loops).
    An edge listed in both directions counts as one duplicate.
    """
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    self_mask = edges[:, 0] == edges[:, 1]
    n_self = int(self_mask.sum())
    edges = edges[~self_mask]
    if edges.shape[0] == 0:
        return edges, 0, n_self
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    keys = lo * n + hi
    uniq = np.unique(keys)
    n_dup = int(keys.size - uniq.size)
    out = np.stack([uniq // n, uniq % n], axis=1)
    return out, n_dup, n_self


# -- file I/O ----------------------------------------------------------------


def load_edge_list(path, compact: bool = False) -> Graph:
    """Read a whitespace-separated "u v" edge list into a Graph.

    Lines starting with '#' are ignored, except that a "# n=<count>" hint
    (as written by :func:`save_edge_list`) extends the node count beyond
    the largest endpoint so trailing isolated nodes survive a round trip.
    Node ids are used as given; with ``compact=True`` they are remapped to
    dense indices 0..m-1 in ascending id order.
    """
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
    uniq, n_dup, n_self = clean_edges(n, arr)
    if n_dup or n_self:
        logger.warning("%s: dropped %d duplicate edge(s) and %d self-loop(s)",
                       path, n_dup, n_self)
    return Graph._from_clean_undirected(n, uniq)


def save_edge_list(g: Graph, path) -> None:
    """Write g as a "u v" edge list with a "# n=" node-count hint."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        for u in range(g.n):
            for v in g.neighbors(u).tolist():
                if u < v:
                    fh.write(f"{u} {v}\n")


# -- generators ---------------------------------------------------------------


def gen_erdos_renyi(n: int, p: float, rng_seed: int) -> Graph:
    """G(n, p): every unordered pair is an edge independently with prob p.

    Sparse graphs are sampled in O(n + m) by drawing the binomial edge
    count and then a uniform set of that many distinct pairs, which is
    distributionally identical to pair-by-pair coin flips.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")
    rng = np.random.default_rng(rng_seed)
    total_pairs = n * (n - 1) // 2
    if p == 0.0 or total_pairs == 0:
        return Graph.from_edges(n, np.empty((0, 2), dtype=np.int64))
    if p == 1.0:
        if n > 20_000:
            raise ValueError("complete graph this large is not supported")
        iu = np.transpose(np.triu_indices(n, k=1))
        return Graph._from_clean_undirected(n, iu.astype(np.int64))
    if n <= 2000:
        mat = rng.random((n, n))
        iu = np.triu_indices(n, k=1)
        mask = mat[iu] < p
        edges = np.stack([iu[0][mask], iu[1][mask]], axis=1)
        return Graph._from_clean_undirected(n, edges.astype(np.int64))
    m = int(rng.binomial(total_pairs, p))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        need = m - keys.size
        draw = max(16, int(need * 1.3))
        u = rng.integers(0, n, size=draw, dtype=np.int64)
        v = rng.integers(0, n, size=draw, dtype=np.int64)
        ok = u != v
        lo = np.minimum(u[ok], v[ok])
        hi = np.maximum(u[ok], v[ok])
        keys = np.union1d(keys, lo * n + hi)
    if keys.size > m:
        keys = rng.choice(keys, size=m, replace=False)
    edges = np.stack([keys // n, keys % n], axis=1)
    lo = np.minimum(edges[:, 0], edges[:, 1])
    hi = np.maximum(edges[:, 0], edges[:, 1])
    order = np.argsort(lo * n + hi)
    edges = np.stack([lo, hi], axis=1)[order]
    return Graph._from_clean_undirected(n, edges)


def gen_grid(dim: int, side: int) -> Graph:
    """d-dimensional lattice with side nodes per axis, open boundary."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if side < 2:
        raise ValueError("side must be >= 2")
    n = side ** dim
    if n > MAX_NODES:
        raise ValueError(f"grid of {n} nodes exceeds supported size")
    ids = np.arange(n, dtype=np.int64)
    edge_blocks = []
    stride = 1
    for _ in range(dim):
        coord = (ids // stride) % side
        mask = coord < side - 1
        edge_blocks.append(np.stack([ids[mask], ids[mask] + stride], axis=1))
        stride *= side
    return Graph._from_clean_undirected(n, np.concatenate(edge_blocks, axis=0))


def gen_tree(degree: int, depth: int) -> Graph:
    """Rooted tree where the root and every internal node have ``degree`` children.

    Nodes are numbered in level order; total count (d^(depth+1)-1)/(d-1).
    """
    if degree < 2:
        raise ValueError("degree must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    n = (degree ** (depth + 1) - 1) // (degree - 1)
    if n > MAX_NODES:
        raise ValueError(f"tree of {n} nodes exceeds supported size")
    child = np.arange(1, n, dtype=np.int64)
    parent = (child - 1) // degree
    return Graph._from_clean_undirected(n, np.stack([parent, child], axis=1))


def tree_level_offsets(degree: int, depth: int) -> list[int]:
    """Start index of each level for a gen_tree graph (level-order ids)."""
    offsets = [0]
    for level in range(depth + 1):
        offsets.append(offsets[-1] + degree ** level)
    return offsets


def gen_power_law(n: int, exponent: float, rng_seed: int) -> Graph:
    """Configuration-model graph with a truncated discrete power-law degree law.

    Degrees are sampled from Pr(deg = x) proportional to x^(-exponent) on
    1..floor(sqrt(n)); an odd stub total is fixed by bumping one random
    node's degree. Self-loops and multi-edges from the stub matching are
    discarded, so realized degrees can fall slightly below their draws.
    """
    if n < 10:
        raise ValueError("n must be >= 10")
    if exponent <= 2:
        raise ValueError("exponent must be > 2")
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
    pairs = stubs.reshape(-1, 2)
    uniq, n_dup, n_self = clean_edges(n, pairs)
    if n_dup or n_self:
        logger.debug("configuration model dropped %d duplicate(s), %d self-loop(s)",
                     n_dup, n_self)
    return Graph._from_clean_undirected(n, uniq)
