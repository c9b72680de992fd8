"""Immutable undirected graphs with hop-distance neighborhood queries.

Adjacency is stored in compressed sparse row form (one flat index array
plus per-node offsets), which keeps million-node graphs cheap and makes
every query read-only, so a Graph can be shared freely across threads.

Neighborhood order is canonical throughout the package: nondecreasing hop
distance, ascending node id inside each distance shell. The k-nearest-
neighbor set of any size is then a prefix of that order, which is what the
detector and calibration code rely on when they scan a node's surroundings
outward until some event (a reporter, an uninfected node) occurs. They
scan all their nodes at once through :meth:`Graph.neighborhoods`, the one
neighborhood implementation in the package.
"""

from __future__ import annotations

import io
import logging

import numpy as np

logger = logging.getLogger(__name__)

# refuse to build graphs that clearly will not fit in memory
MAX_NODES = 100_000_000

# neighborhood modes: the K nearest neighbors, or the ball of radius l
NN = "nn"
BALL = "ball"

# centers in the first batch of Graph.neighborhoods, and nodes per chunk of
# a NearestTable build
_BLOCK = 512

# (center, node) pairs a batch of Graph.neighborhoods aims to expand over
# all its levels: enough work to spread the fixed cost of its numpy calls
# (53 per plain nn level past depth 1, 39 at depth 1, about 90 per NoisyView
# nn level past its noise magnitude, and 15 to place the pairs at the end),
# while a batch's arrays stay near this many pairs. On an
# 8000-node ER giant a level holds about 1k pairs, so call overhead
# dominates: 2**16 with a first batch of 512, in place of 2**14 and 256, ran
# a noisy nn K = 6 query of 822 centers in 2 batches instead of 3, at 0.95 of
# the time, a ball of radius 3 at 0.83 and a NearestTable(g, 9) build at 0.78
_PAIRS = 1 << 16

_EMPTY = np.empty(0, dtype=np.int64)


def sorted_unique(values: np.ndarray) -> np.ndarray:
    """The distinct values of an int array, ascending (np.unique's result,
    from one sort and a neighbor-inequality mask)."""
    values = np.sort(values)
    if values.size:
        keep = np.empty(values.size, dtype=bool)
        keep[0] = True
        np.not_equal(values[1:], values[:-1], out=keep[1:])
        values = values[keep]
    return values


def _int_ids(values, what: str = "node id") -> np.ndarray:
    """``values`` (an array or any iterable) as an int64 array. Integral
    floats pass; a fractional or non-finite float, or a boolean array (a
    mask, not ids), raises ValueError naming it."""
    values = np.asarray(values if isinstance(values, np.ndarray) else list(values))
    if values.dtype == bool:
        raise ValueError(f"{what}s must be integers, got a boolean array")
    if values.dtype.kind == "f":
        bad = values[~np.isfinite(values) | (values != np.trunc(values))]
        if bad.size:
            raise ValueError(f"{what} {bad[0]} is not an integer")
    return values.astype(np.int64, copy=False)


def node_array(nodes) -> np.ndarray:
    """Distinct node ids from any iterable, as a new ascending int64 array."""
    nodes = _int_ids(nodes)
    if np.all(nodes[1:] > nodes[:-1]):  # already ascending and distinct
        return nodes.copy()
    return sorted_unique(nodes)


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
    of n nodes. A perceived-distance batch sorts the codes
    (owner * span + dist) * n + node with span <= 2n, which this keeps below
    2**63; every batch's BFS codes (owner * n + node) << 1 are smaller."""
    return (2**63 - 1) // max(2 * n * n, 1)


class Graph:
    """Undirected simple graph over nodes 0..n-1. Build one with
    :meth:`from_edges`, which checks its input; the constructor trusts the
    CSR arrays it is given and makes them read-only."""

    __slots__ = ("n", "_indptr", "_indices")

    def __init__(self, n: int, indptr: np.ndarray, indices: np.ndarray):
        self.n = int(n)
        indptr.flags.writeable = indices.flags.writeable = False
        self._indptr = indptr
        self._indices = indices

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
        built here: one sort of the keys u*n + v orders each row's neighbors."""
        keep = u != v
        u, v = u[keep], v[keep]
        keys = sorted_unique(np.concatenate([u * n + v, v * n + u]))
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(keys // n, minlength=n), out=indptr[1:])
        return cls(n, indptr, keys % n)

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

    # one-center forms of neighborhoods, kept (with NoisyView's) only because
    # perfbench/tracing.py wraps them by name, as tests/test_bench_contract.py pins
    def nn_members(self, i: int, k: int) -> list[int]:
        return self.neighborhoods(np.array([i]), k, NN)[1].tolist()

    def ball_members(self, i: int, l: int) -> list[int]:
        return self.neighborhoods(np.array([i]), l, BALL)[1].tolist()

    def neighborhoods(self, centers: np.ndarray, size: int, mode: str,
                      perceive=None, slack: int = 0):
        """Canonical neighborhoods of many centers in one batched BFS.

        ``centers`` is an ascending array of distinct node ids (checked).
        Returns int64 arrays (owner, member, rank), sorted by owner then
        rank: member is the rank-th (0-based) member of centers[owner]'s
        neighborhood. A center's members come in (perceived distance, id)
        order; mode "nn" keeps the first ``size`` of them, mode "ball" every
        one perceived within ``size`` hops. The center is never a member.

        Without ``perceive`` the perceived distance is the hop distance and
        ``slack`` must be 0. ``perceive(centers, owner, targets, d)`` maps
        the pairs (centers[owner[i]], targets[i]) at hop distance d, where
        ``centers`` is the batch's and ``owner`` indexes it, to perceived
        distances in [1, 2n - 2] no smaller than d - ``slack``. A ball then
        explores ``size + slack`` hops, and an nn center stops once ``size``
        of its members are perceived within depth - slack, as nothing deeper
        can be perceived closer than those; its pairs perceived farther away
        are dropped before the sort.

        Centers go in batches sized by the work they cause: the first holds
        _BLOCK centers, and each later one as many as expand about _PAIRS
        pairs at the previous batch's rate per center (at least 1, at most
        _max_batch). Each batch runs one level-synchronous BFS over (center,
        node) pairs. The first shell is the centers' CSR rows, distinct and
        free of the centers. A deeper level expands the current shell, and
        one sort of tagged codes keeps the distinct candidates in neither
        the previous nor the current shell: in an undirected graph those are
        exactly the unvisited pairs.

        A plain query ranks each level as the BFS finds it. A level is in
        (center, node) order and all of it lies at one hop distance, so a
        pair's rank is its center's members from earlier levels plus its
        place in the center's run of the level; an nn level keeps the ranks
        below ``size``. At the end every pair is placed by scatter at its
        center's offset plus its rank, with no sort. Only perceived
        distances pay one sort of (center, perceived distance, node) codes
        over the batch's pairs that can still be members.
        """
        if mode not in (NN, BALL):
            raise ValueError(f"unknown neighborhood mode {mode!r}")
        nearest = mode == NN
        if size < (1 if nearest else 0):
            raise ValueError("k must be >= 1" if nearest else "radius must be >= 0")
        if slack and perceive is None:
            raise ValueError("slack needs a perceive function")
        centers = _centers_of(centers, self.n)
        cap = _max_batch(self.n)
        owners, members, ranks = [_EMPTY], [_EMPTY], [_EMPTY]
        lo, block = 0, min(_BLOCK, cap)
        while lo < centers.size:
            owner, member, rank, expanded = self._neighborhood_block(
                centers[lo:lo + block], size, nearest, perceive, slack)
            owners.append(owner + lo)
            members.append(member)
            ranks.append(rank)
            lo += block
            block = min(max(_PAIRS * block // max(expanded, 1), 1), cap)
        return np.concatenate(owners), np.concatenate(members), np.concatenate(ranks)

    def _neighborhood_block(self, centers, size, nearest, perceive, slack):
        n, indptr, indices = self.n, self._indptr, self._indices
        shell = np.arange(centers.size, dtype=np.int64) * n + centers  # keys owner*n + node
        prev = _EMPTY
        # members per center: ranked so far (plain), or settled (perceived nn)
        found = np.zeros(centers.size, dtype=np.int64)
        pending_owner, pending_dist = _EMPTY, _EMPTY
        if perceive is not None:
            # the farthest perceived distance a center can keep: the radius
            # of a ball; for nn, depth - slack at the level where the center
            # settles, as a member perceived beyond ranks after ``size``
            # settled ones (no bound while it is unsettled)
            limit = np.full(centers.size, np.iinfo(np.int64).max if nearest else size)
        keys, tags = [_EMPTY], [_EMPTY]  # per level: keys, and ranks or perceived distances
        depth = expanded = 0
        while shell.size and (nearest or depth < size + slack):
            depth += 1
            nodes = shell % n
            start = indptr[nodes]
            deg = indptr[nodes + 1] - start
            ends = deg.cumsum()
            expanded += int(ends[-1])
            gather = (start - ends + deg).repeat(deg) + np.arange(ends[-1])
            new = (shell - nodes).repeat(deg) + indices[gather]
            if depth > 1:
                # codes key << 1 (shell pairs) and key << 1 | 1 (candidates):
                # once sorted, a candidate is new if its predecessor's key differs
                code = np.concatenate([prev, shell, new]) << 1
                code[prev.size + shell.size:] |= 1
                code.sort()
                keep = (code & 1).astype(bool)
                keep[1:] &= np.diff(code) > 1
                # flatnonzero and a gather: numpy's boolean indexing copies
                # run by run, several times slower on masks of short runs
                new = code[np.flatnonzero(keep)] >> 1
            owner = new // n
            if perceive is None:
                # a level is in (owner, node) order, all at hop distance
                # depth: a pair's rank is its center's members from earlier
                # levels plus its place in its center's run
                count = np.bincount(owner, minlength=centers.size)
                rank = np.arange(new.size) + (found - count.cumsum() + count)[owner]
                found += count
                keep = slice(None)
                if nearest:  # the cut at size falls inside this level only
                    keep = np.flatnonzero(rank < size)
                    np.minimum(found, size, out=found)
                keys.append(new[keep])
                tags.append(rank[keep])
            else:
                dist = perceive(centers, owner, new - owner * n, depth)
                keys.append(new)
                tags.append(dist)
                if nearest:
                    # a member perceived within depth - slack is settled: no
                    # node still unexplored can be perceived closer
                    pending_owner = np.concatenate([pending_owner, owner])
                    pending_dist = np.concatenate([pending_dist, dist])
                    settled = pending_dist <= depth - slack
                    found += np.bincount(pending_owner[settled], minlength=centers.size)
                    np.minimum(limit, depth - slack, out=limit, where=found >= size)
                    # the rest stays pending while its center is unsettled
                    left = np.flatnonzero(~settled & (found < size)[pending_owner])
                    pending_owner, pending_dist = pending_owner[left], pending_dist[left]
            prev, shell = shell, new
            if nearest:
                # a settled center stays settled: its pairs leave both shells
                active = found < size
                shell = new[np.flatnonzero(active[owner])]
                prev = prev[np.flatnonzero(active[prev // n])]
        key, tag = np.concatenate(keys), np.concatenate(tags)
        if perceive is None:
            # no sort: each pair goes to its center's offset plus its rank
            owner = key // n
            at = (found.cumsum() - found)[owner] + tag
            member, rank = np.empty_like(key), np.empty_like(tag)
            member[at], rank[at] = key - owner * n, tag
            owner = np.arange(centers.size, dtype=np.int64).repeat(found)
            return owner, member, rank, expanded
        owner = key // n
        keep = np.flatnonzero(tag <= limit[owner])
        key, tag, owner = key[keep], tag[keep], owner[keep]
        # one sort of (owner, perceived distance, node) codes. True distances
        # are below n, and a noisy view shifts only those above its magnitude,
        # so perceived ones lie in [1, 2n - 2] and span <= 2n: with at most
        # _max_batch(n) owners every code fits in int64
        tag -= tag.min(initial=0)
        span = tag.max(initial=0) + 1
        code = (owner * span + tag) * n + (key - owner * n)
        code.sort()
        owner, member = code // n // span, code % n
        count = np.bincount(owner, minlength=centers.size)
        rank = np.arange(owner.size) - (count.cumsum() - count).repeat(count)
        if nearest:
            keep = rank < size
            owner, member, rank = owner[keep], member[keep], rank[keep]
        return owner, member, rank, expanded

    # -- components ---------------------------------------------------------

    def component_labels(self) -> np.ndarray:
        """Label of every node: the smallest node id in its component.

        Min-label propagation with pointer jumping over each edge once (its
        u < v half of the CSR). Each round hooks, for every edge whose ends
        carry different labels, the larger label onto the smaller, then
        replaces every label by its label's label until that changes
        nothing; edges whose ends share a label leave for good. A label is
        always the id of a node in the same component and never increases,
        so once no edge crosses two labels, each label is its component's
        minimum.
        """
        labels = np.arange(self.n, dtype=np.int64)
        u = np.repeat(labels, np.diff(self._indptr))
        keep = np.flatnonzero(u < self._indices)
        u, v = u[keep], self._indices[keep]
        while True:
            a, b = labels[u], labels[v]
            cross = np.flatnonzero(a != b)
            if not cross.size:
                return labels
            u, v, a, b = u[cross], v[cross], a[cross], b[cross]
            np.minimum.at(labels, np.maximum(a, b), np.minimum(a, b))
            while not np.array_equal(jumped := labels[labels], labels):
                labels = jumped

    def largest_component(self) -> tuple["Graph", np.ndarray]:
        """The largest connected component as a graph of its own.

        Returns (giant, old_ids) where old_ids[new] is the original id.
        Of equally large components, the one with the smallest node id wins.
        """
        labels = self.component_labels()
        biggest = np.argmax(np.bincount(labels, minlength=1))
        old_ids = np.flatnonzero(labels == biggest)
        # a component is closed: its rows, renumbered, are the giant's CSR
        # (the renumbering ascends, so each row stays sorted)
        start = self._indptr[old_ids]
        deg = self._indptr[old_ids + 1] - start
        indptr = np.zeros(old_ids.size + 1, dtype=np.int64)
        np.cumsum(deg, out=indptr[1:])
        remap = np.empty(self.n, dtype=np.int64)
        remap[old_ids] = np.arange(old_ids.size)
        gather = (start - indptr[:-1]).repeat(deg) + np.arange(indptr[-1])
        return Graph(old_ids.size, indptr, remap[self._indices[gather]]), old_ids

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={self.num_edges})"


class NearestTable:
    """The ``k_max`` nearest neighbors of every node of a view, scanned
    once, as a view itself: ``neighborhoods`` answers "nn" queries of any
    size up to ``k_max`` by gathers, with the arrays the view gives.

    Members are stored in CSR form: node i's neighbors, in the view's
    order, are member[offsets[i]:offsets[i + 1]], fewer than k_max when
    i's component ends first. A table costs about 8 * n * k_max bytes.
    """

    __slots__ = ("n", "k_max", "_member", "_offsets")

    def __init__(self, view, k_max: int):
        if k_max < 1:
            raise ValueError("k must be >= 1")
        self.n, self.k_max = view.n, int(k_max)
        # one query per _BLOCK nodes, not one over every node: the owner and
        # rank arrays a single query returns for every node would triple the
        # table's size while it is built (it raised calibrate_gamma's peak
        # RSS from 39.7 to 42.8-43.1 MB)
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

# nodes per block of save_edge_list: a block's ints and text stay near 1 MB
_WRITE_BLOCK = 1 << 12


def load_edge_list(path, compact: bool = False) -> Graph:
    """Read a whitespace-separated "u v" edge list into a Graph.

    Lines break at \\n, \\r\\n or \\r. A line whose first non-blank byte is '#'
    is a comment, except that a "# n=<count>" hint (as written by
    :func:`save_edge_list`) extends the node count beyond the largest
    endpoint so trailing isolated nodes survive a round trip. Every other
    line is blank or holds two non-negative int64 ids separated by ASCII
    blanks; anything else raises ValueError naming the first such line.
    Node ids are used as given (their count may not exceed MAX_NODES); with
    ``compact=True`` they are remapped to dense indices 0..m-1 in ascending
    id order.
    """
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
    """The (m, 2) int64 id pairs of an edge-list file, in file order, and
    its largest "# n=" hint (-1 without one): np.loadtxt parses what is left
    once the comment lines are cut out, if that is digits, blanks and \\n."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    hint_n, pieces, done, end = -1, [], 0, 0
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
        pieces.append(data[done:start])
        done = end
    pieces.append(data[done:])
    body = b"".join(pieces)
    if body.translate(None, b"0123456789" + _BLANKS + b"\n"):
        raise _bad_line(path, data)
    if not body.strip(_BLANKS + b"\n"):
        raise ValueError(f"{path}: no edges found")
    try:
        pairs = np.loadtxt(io.BytesIO(body), dtype=np.int64, comments=None, ndmin=2)
    except ValueError:  # a line of another column count, or an id past int64
        raise _bad_line(path, data) from None
    if pairs.shape[1] != 2:  # every line of one wrong column count
        raise _bad_line(path, data)
    return pairs, hint_n


def _bad_line(path, data: bytes) -> ValueError:
    """The error naming the first line of ``data`` (its breaks already \\n)
    that is neither blank, a comment, nor two ids."""
    for lineno, line in enumerate(data.split(b"\n"), start=1):
        tokens = line.translate(_TO_SPACE).split()
        if tokens and not tokens[0].startswith(b"#") and not (
                len(tokens) == 2 and all(map(_is_id, tokens))):
            text = line.decode("utf-8", "replace").strip()
            return ValueError(
                f"{path}: line {lineno}: expected two non-negative integers, got {text!r}")
    raise AssertionError(f"{path}: rejected with no bad line")


def _is_id(token: bytes) -> bool:
    """Whether token is ASCII digits of a value that fits in int64."""
    value = token.lstrip(b"0")  # fewer digits is smaller; as many compare as text
    return token.isdigit() and (len(value), value) <= (19, b"9223372036854775807")


def save_edge_list(g: Graph, path) -> None:
    """Write g as a "u v" edge list with a "# n=" node-count hint: each edge
    once, u < v, ordered by u then v."""
    indptr, indices = g._indptr, g._indices
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# n={g.n}\n")
        for lo in range(0, g.n, _WRITE_BLOCK):
            hi = min(lo + _WRITE_BLOCK, g.n)
            u = np.repeat(np.arange(lo, hi), np.diff(indptr[lo:hi + 1]))
            v = indices[indptr[lo]:indptr[hi]]
            keep = u < v
            pairs = np.column_stack([u[keep], v[keep]]).ravel().tolist()
            fh.write("%d %d\n" * (len(pairs) // 2) % tuple(pairs))


# -- generators ---------------------------------------------------------------


def check_erdos_renyi(n: int, p: float) -> None:
    """Raise ValueError, as gen_erdos_renyi does, if G(n, p) is undefined."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must be in [0, 1]")


def gen_erdos_renyi(n: int, p: float, rng_seed: int) -> Graph:
    """G(n, p): every unordered pair is an edge independently with prob p.

    Sparse graphs are sampled in O(n + m) by drawing the binomial edge
    count and then a uniform set of that many distinct pairs, which is
    distributionally identical to pair-by-pair coin flips.
    """
    check_erdos_renyi(n, p)
    rng = np.random.default_rng(rng_seed)
    total_pairs = n * (n - 1) // 2
    if p == 0.0 or total_pairs == 0:
        return Graph._from_pairs(n, _EMPTY, _EMPTY)
    if p == 1.0:
        if n > 20_000:
            raise ValueError("complete graph this large is not supported")
        return Graph._from_pairs(n, *np.triu_indices(n, k=1))
    if n <= 2000:
        # one draw per cell; the cells above the diagonal are the pairs
        return Graph._from_pairs(n, *divmod(np.flatnonzero(np.triu(rng.random((n, n)) < p, 1)), n))
    m = int(rng.binomial(total_pairs, p))
    keys = np.empty(0, dtype=np.int64)
    while keys.size < m:
        draw = max(16, int((m - keys.size) * 1.3))
        u = rng.integers(0, n, size=draw, dtype=np.int64)
        v = rng.integers(0, n, size=draw, dtype=np.int64)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        keys = sorted_unique(np.concatenate([keys, (lo * n + hi)[lo < hi]]))
    if keys.size > m:
        keys = rng.choice(keys, size=m, replace=False)
    return Graph._from_pairs(n, keys // n, keys % n)


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
    # along each axis, every node not on the far face links to its successor
    lows = [ids[(ids // side ** axis) % side < side - 1] for axis in range(dim)]
    highs = [low + side ** axis for axis, low in enumerate(lows)]
    return Graph._from_pairs(n, np.concatenate(lows), np.concatenate(highs))


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
    return Graph._from_pairs(n, parent, child)


def check_power_law(n: int, exponent: float) -> None:
    """Raise ValueError, as gen_power_law does, for a size or exponent it refuses."""
    if n < 10:
        raise ValueError("n must be >= 10")
    if not exponent > 2:  # NaN too; inf gives the degree-1 limit
        raise ValueError("exponent must be > 2")


def gen_power_law(n: int, exponent: float, rng_seed: int) -> Graph:
    """Configuration-model graph with a truncated discrete power-law degree law.

    Degrees are sampled from Pr(deg = x) proportional to x^(-exponent) on
    1..floor(sqrt(n)); an odd stub total is fixed by bumping one random
    node's degree. Self-loops and multi-edges from the stub matching are
    discarded, so realized degrees can fall slightly below their draws.
    """
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
    u, v = stubs[0::2], stubs[1::2]
    g = Graph._from_pairs(n, u, v)
    n_self = int(np.count_nonzero(u == v))
    n_dup = u.size - n_self - g.num_edges
    if n_dup or n_self:
        logger.debug("configuration model dropped %d duplicate(s), %d self-loop(s)",
                     n_dup, n_self)
    return g
