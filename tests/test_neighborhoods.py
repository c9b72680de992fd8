"""The batched neighborhood kernel (Graph.neighborhoods) and its consumers
against the brute-force oracles."""

import inspect

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot.calibration import gamma_for_set
from hotspot.detector import DetectorConfig, classify
from hotspot import graph, harness
from hotspot.graph import (_BLOCK, MAX_NODES, Graph, NearestTable, _max_batch,
                           gen_erdos_renyi, gen_grid, gen_power_law)
from hotspot.harness import DistanceNoise, NoisyView

from oracles import (ball_oracle, components_oracle, csr_oracle, interior_fraction_oracle,
                     nn_oracle, noisy_ranking_oracle, random_graph)


@st.composite
def graphs(draw):
    """A random graph on the first n nodes plus a few isolated ones."""
    n = draw(st.integers(1, 24))
    g = random_graph(n, draw(st.floats(0.02, 0.4)),
                     np.random.default_rng(draw(st.integers(0, 2**32))))
    extra = draw(st.integers(0, 3))
    edges = [(u, v) for u in range(n) for v in g.neighbors(u).tolist() if u < v]
    return Graph.from_edges(n + extra, np.asarray(edges, dtype=np.int64).reshape(-1, 2))


def per_center(owner, member, rank, count):
    lists = [member[owner == c].tolist() for c in range(count)]
    assert all(rank[owner == c].tolist() == list(range(len(lists[c]))) for c in range(count))
    return lists


def test_kernel_example_and_center_order():
    # a 5-cycle: canonical order is by hop distance, then id
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    owner, member, rank = g.neighborhoods(np.array([0, 2]), 4, "nn")
    assert owner.tolist() == [0] * 4 + [1] * 4
    assert member.tolist() == [1, 4, 2, 3, 1, 3, 0, 4]
    assert rank.tolist() == [0, 1, 2, 3] * 2
    assert g.neighborhoods(np.array([0, 2]), 1, "ball")[1].tolist() == [1, 4, 1, 3]


@given(graphs(), st.integers(1, 30), st.integers(0, 5))
def test_kernel_matches_single_node_queries(g, k, l):
    # k often exceeds the component; l = 0 gives empty balls
    centers = np.arange(g.n)
    assert per_center(*g.neighborhoods(centers, k, "nn"), g.n) == [
        nn_oracle(g, i, k) for i in range(g.n)]
    assert per_center(*g.neighborhoods(centers, l, "ball"), g.n) == [
        ball_oracle(g, i, l) for i in range(g.n)]


def test_kernel_over_many_blocks_matches_oracle():
    g = gen_erdos_renyi(1500, 2.5 / 1500, 8)  # giant, small pieces, isolated nodes
    centers = np.arange(0, g.n, 2)
    ranked = [nn_oracle(g, i, 40) for i in centers.tolist()]
    for k in (1, 6, 40):
        lists = per_center(*g.neighborhoods(centers, k, "nn"), centers.size)
        assert lists == [r[:k] for r in ranked]
    lists = per_center(*g.neighborhoods(centers, 3, "ball"), centers.size)
    assert lists == [ball_oracle(g, i, 3) for i in centers.tolist()]


def _wheel(rim):
    """Hub 0 joined to every node of the cycle 1..rim."""
    return Graph.from_edges(rim + 1, [(0, i) for i in range(1, rim + 1)]
                            + [(i, i % rim + 1) for i in range(1, rim + 1)])


@pytest.mark.parametrize("g", [
    Graph.from_edges(5, [(u, v) for u in range(5) for v in range(u + 1, 5)]),
    Graph.from_edges(7, [(i, (i + 1) % 7) for i in range(7)]),
    _wheel(6),
], ids=["K5", "C7", "wheel"])
def test_candidates_in_the_current_shell_are_dropped(g):
    # an edge inside a shell (any edge of K5, a wheel's rim, the far edge
    # of an odd cycle) leads the expansion of that shell back into it
    centers = np.arange(g.n)
    for k in range(1, g.n + 1):
        assert per_center(*g.neighborhoods(centers, k, "nn"), g.n) == [
            nn_oracle(g, i, k) for i in range(g.n)]
    for l in range(4):
        assert per_center(*g.neighborhoods(centers, l, "ball"), g.n) == [
            ball_oracle(g, i, l) for i in range(g.n)]


def test_centers_settling_at_different_depths_share_a_batch():
    # a star (hub 0, leaves 1..8) and the path 9..40: with K = 3 the hub
    # settles at depth 1, its leaves at depth 2 and the path's end at depth
    # 3, so the shells of settled centers drop out while the others go on
    g = Graph.from_edges(41, [(0, i) for i in range(1, 9)]
                         + [(i, i + 1) for i in range(9, 40)])
    centers = np.array([0, *range(1, 9), 40])
    for k in range(1, 13):
        assert per_center(*g.neighborhoods(centers, k, "nn"), centers.size) == [
            nn_oracle(g, i, k) for i in centers.tolist()]
    for l in range(6):
        assert per_center(*g.neighborhoods(centers, l, "ball"), centers.size) == [
            ball_oracle(g, i, l) for i in centers.tolist()]


def test_batch_of_isolated_centers():
    # no center reads a row: depth 1 ranks nothing, plain or perceived, and
    # the counting and noisy BFS stop there with nothing expanded
    g = Graph.from_edges(6, [(4, 5)])
    centers = np.arange(4)
    reports = np.isin(np.arange(g.n), centers)
    noisy = NoisyView(g, DistanceNoise(0.5, 1), seed=3)
    for size, mode in ((1, "nn"), (3, "nn"), (0, "ball"), (2, "ball")):
        for view, perceived in ((g, None), (noisy, noisy)):
            assert all(a.size == 0 for a in view.neighborhoods(centers, size, mode))
            assert not view.hotspots(centers, size, mode, 1).any()
            assert g._neighborhood_block(centers, size, mode == "nn", perceived)[3] == 0
            fired, expanded = g._neighborhood_block(centers, size, mode == "nn", perceived,
                                                    reports, 1)
            assert fired.tolist() == [False] * 4 and expanded == 0


@pytest.mark.parametrize("shape, centers, size, mode, expanded", [
    # path 0..9, K = 3: center 0 reads rows 0, 1, 2 (1 + 2 + 2 pairs);
    # center 5 reads row 5, then rows 4 and 6, and is settled (2 + 4)
    ("path", [0], 3, "nn", 5),
    ("path", [5], 3, "nn", 6),
    ("path", [0, 5], 3, "nn", 11),
    ("path", [0], 2, "ball", 3),  # a ball of radius 2 reads two levels
    # star, hub 0 and leaves 1..5: a leaf reads its row, then the hub's
    ("star", [1, 2], 3, "nn", 2 * (1 + 5)),
    ("star", [0], 3, "nn", 3),  # the hub reads 3 entries of its row of 5
    ("star", [0], 2, "ball", 5 + 5),
    # the hub reads K entries of its row for K up to 5, then the leaves'
    ("star", [0], 1, "nn", 1),
    ("star", [0], 5, "nn", 5),
    ("star", [0], 6, "nn", 5 + 5),
])
def test_expanded_counts_the_pairs_read(shape, centers, size, mode, expanded):
    g = Graph.from_edges(10, [(i, i + 1) for i in range(9)]) if shape == "path" else (
        Graph.from_edges(6, [(0, i) for i in range(1, 6)]))
    block = g._neighborhood_block(np.array(centers), size, mode == "nn", None)
    assert block[3] == expanded


_ROW_GRAPHS = {
    # hub 0 of degree 6 with its leaves, the path 7..14 and the isolated
    # nodes 15..17: with K = 5, 6 and 7, centers settled by a row's prefix,
    # by a whole row, only deeper, or never, all in one batch
    "star-path-isolated": Graph.from_edges(
        18, [(0, i) for i in range(1, 7)] + [(i, i + 1) for i in range(7, 14)]),
    "power-law": gen_power_law(200, 2.2, 5),  # hubs of degree up to 14
}


@pytest.mark.parametrize("pairs, block", [(2**16, 512), (1, 1), (1, 3), (2**40, 2)])
@pytest.mark.parametrize("name", list(_ROW_GRAPHS))
def test_first_level_read_from_rows_matches_oracles(monkeypatch, name, pairs, block):
    g = _ROW_GRAPHS[name]
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    monkeypatch.setattr(Graph, "_first_batch", lambda self: block)
    centers = np.arange(g.n)
    for k in (1, 2, 5, 6, 7, 40):
        assert per_center(*g.neighborhoods(centers, k, "nn"), g.n) == [
            nn_oracle(g, i, k) for i in range(g.n)], k
    for l in range(3):
        assert per_center(*g.neighborhoods(centers, l, "ball"), g.n) == [
            ball_oracle(g, i, l) for i in range(g.n)], l
    for flip_prob, magnitude in ((0.5, 1), (1.0, 2)):
        view = NoisyView(g, DistanceNoise(flip_prob, magnitude), seed=11)
        ranked = [noisy_ranking_oracle(g, i, 11, flip_prob, magnitude) for i in range(g.n)]
        for k in (1, 6, 7):
            assert per_center(*view.neighborhoods(centers, k, "nn"), g.n) == [
                [v for _, v in r[:k]] for r in ranked], (flip_prob, k)
        for l in range(3):
            assert per_center(*view.neighborhoods(centers, l, "ball"), g.n) == [
                [v for d, v in r if d <= l] for r in ranked], (flip_prob, l)


def _hotspot_oracle(ranked, reporting, s):
    """Each reporter's test from its members as the oracles rank them."""
    return [sum(v in reporting for v in ranked(i)) >= s for i in reporting]


# (reporting, mode, size, s) on the "star-path-isolated" graph, whose star
# 0..6 and path 7..14 are components of 7 and 8 nodes and 15..17 isolated
_EARLY_VERDICTS = {
    "s-above-k": ([0, 1, 2, 3, 7, 8, 9], "nn", 2, 3),  # decided before any row is read
    "k-above-component": ([0, 1, 2, 4, 6, 8, 10, 14], "nn", 10, 3),
    "k-above-component-fires-late": ([0, 1, 9, 11, 13, 14], "nn", 12, 2),
    "isolated-nn": ([0, 15, 16, 17], "nn", 1, 1),
    "isolated-ball": ([7, 8, 15, 17], "ball", 3, 1),
    "ball-radius-0": ([0, 1, 2, 15], "ball", 0, 1),
    "empty-nn": ([], "nn", 2, 1),
    "empty-ball": ([], "ball", 2, 1),
}


@pytest.mark.parametrize("pairs, block", [(2**16, 512), (1, 1), (1, 3), (2**40, 2)])
@pytest.mark.parametrize("case", list(_EARLY_VERDICTS))
def test_early_verdicts_match_oracles(monkeypatch, case, pairs, block):
    g = _ROW_GRAPHS["star-path-isolated"]
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    monkeypatch.setattr(Graph, "_first_batch", lambda self: block)
    reporting, mode, size, s = _EARLY_VERDICTS[case]
    members = nn_oracle if mode == "nn" else ball_oracle
    want = _hotspot_oracle(lambda i: members(g, i, size), reporting, s)
    fired = g.hotspots(np.array(reporting, dtype=np.int64), size, mode, s)
    assert fired.dtype == bool and fired.tolist() == want
    cfg = (DetectorConfig.nn(k=size, s=s, t=0) if mode == "nn"
           else DetectorConfig.ball_mode(l=size, s=s, t=0))
    verdict = classify(g, reporting, cfg, keep_indicators=True)
    assert verdict.per_node == dict(zip(reporting, want))
    assert verdict.hotspot_count == sum(want)
    view = NoisyView(g, DistanceNoise(0.5, 1), seed=11)
    ranked = {i: noisy_ranking_oracle(g, i, 11, 0.5, 1) for i in reporting}
    keep = ((lambda i: [v for _, v in ranked[i][:size]]) if mode == "nn"
            else (lambda i: [v for d, v in ranked[i] if d <= size]))
    assert view.hotspots(np.array(reporting, dtype=np.int64), size, mode, s).tolist() == (
        _hotspot_oracle(keep, reporting, s))
    if s > size and mode == "nn":  # no row is read, plain or perceived
        mask = np.zeros(g.n, dtype=bool)
        mask[reporting] = True
        for noisy in (None, view):
            assert g._neighborhood_block(np.array(reporting), size, True, noisy, mask, s)[1] == 0


@pytest.mark.parametrize("shape, reporting, size, mode, s, fired, expanded", [
    # star, hub 0 and leaves 1..5, K = 2 and s = 2: a leaf's row holds only
    # the hub, so with the hub silent it is dead at depth 1 (one entry read,
    # where its whole neighborhood reads 1 + 5); the hub fires on 2 entries
    ("star", [1, 2], 2, "nn", 2, [False, False], 2 * 1),
    ("star", [0, 1, 2], 2, "nn", 2, [True, True, True], 2 + 2 * (1 + 5)),
    ("star", [0, 1, 2, 3, 4, 5], 2, "nn", 3, [False] * 6, 0),  # s > K: nothing read
    # a ball leaves only by firing: the hub fires on its row, leaf 1 on the
    # hub, and silent leaves read their row and the hub's
    ("star", [0, 1], 2, "ball", 1, [True, True], 5 + 1),
    ("star", [1, 2], 2, "ball", 2, [False, False], 2 * (1 + 5)),
    # path 0..9, K = 3, s = 2: center 1 fires on its row; center 0 reads its
    # row and row 1; center 2 reads its row and rows 1 and 3
    ("path", [0, 1, 2], 3, "nn", 2, [True, True, True], (1 + 2) + 2 + (2 + 4)),
    # K = 3, s = 3: centers 4 and 5 each have one silent neighbor, and one hit
    # with one rank left falls short of 3, so both are dead at depth 1
    ("path", [4, 5], 3, "nn", 3, [False, False], 2 + 2),
])
def test_decided_centers_read_no_deeper_level(shape, reporting, size, mode, s, fired,
                                              expanded):
    g = Graph.from_edges(10, [(i, i + 1) for i in range(9)]) if shape == "path" else (
        Graph.from_edges(6, [(0, i) for i in range(1, 6)]))
    reports = np.zeros(g.n, dtype=bool)
    reports[reporting] = True
    got, read = g._neighborhood_block(np.array(reporting), size, mode == "nn", None,
                                      reports, s)
    assert (got.tolist(), read) == (fired, expanded)
    members = nn_oracle if mode == "nn" else ball_oracle
    assert fired == _hotspot_oracle(lambda i: members(g, i, size), reporting, s)


def test_noisy_settle_order_matches_oracles(monkeypatch):
    # a member perceived at p settles at level p + magnitude; a piece of 2
    # to 6 nodes ends before K + 1, so members settle after the shell is empty
    monkeypatch.setattr(graph, "_PAIRS", 2**40)
    rng = np.random.default_rng(34)
    for trial in range(27):
        magnitude = (1, 2, 3)[trial % 3]
        flip_prob = (0.2, 0.5, 1.0)[trial // 3 % 3]
        batch = (1, 3, 512)[trial // 9 % 3]  # every batch holds this many centers
        monkeypatch.setattr(Graph, "_first_batch", lambda self, batch=batch: batch)
        monkeypatch.setattr(graph, "_max_batch", lambda n, batch=batch: batch)
        small, large = (random_graph(int(rng.integers(lo, hi)), p, rng)
                        for lo, hi, p in ((2, 7, 0.6), (4, 13, 0.25)))
        g = Graph.from_edges(small.n + large.n, [
            (offset + u, offset + v) for offset, piece in ((0, small), (small.n, large))
            for u in range(piece.n) for v in piece.neighbors(u).tolist()])
        seed = int(rng.integers(2**32))
        view = NoisyView(g, DistanceNoise(flip_prob, magnitude), seed=seed)
        ranked = [noisy_ranking_oracle(g, i, seed, flip_prob, magnitude) for i in range(g.n)]
        nn = lambda k: lambda i: [v for _, v in ranked[i][:k]]
        ball = lambda l: lambda i: [v for d, v in ranked[i] if d <= l]
        reporting = np.flatnonzero(rng.random(g.n) < 0.6)
        for size, mode, members in ([(k, "nn", nn(k)) for k in range(1, 9)]
                                    + [(l, "ball", ball(l)) for l in range(5)]):
            assert per_center(*view.neighborhoods(np.arange(g.n), size, mode), g.n) == [
                members(i) for i in range(g.n)], (trial, size, mode)
            for s in (1 + (trial + size) % 4, size + 1):
                assert view.hotspots(reporting, size, mode, s).tolist() == _hotspot_oracle(
                    members, reporting.tolist(), s), (trial, size, mode, s)


def test_a_noisy_center_that_fires_early_reads_less():
    # path 0..9, magnitude 1, no flip: a member perceived at p settles at
    # level p + 1. Reporters 0, 1 and 2 (K = 3, s = 1) each fire at level 2
    # on a reporting neighbor: 0 reads rows 0 and 1 (1 + 2), 1 rows 1, 0
    # and 2 (2 + 3), 2 rows 2, 1 and 3 (2 + 4). Their whole neighborhoods
    # settle at levels 4, 3 and 3: 0 reads rows 0..3 (1 + 2 + 2 + 2), 1
    # rows 1, 0, 2 and 3 (2 + 3 + 2), 2 rows 2, 1, 3, 0 and 4 (2 + 4 + 3)
    g = Graph.from_edges(10, [(i, i + 1) for i in range(9)])
    view = NoisyView(g, DistanceNoise(0.0, 1), seed=0)
    reports = np.zeros(g.n, dtype=bool)
    reports[[0, 1, 2]] = True
    fired, read = g._neighborhood_block(np.arange(3), 3, True, view, reports, 1)
    assert (fired.tolist(), read) == ([True] * 3, 3 + 5 + 6)
    assert g._neighborhood_block(np.arange(3), 3, True, view)[3] == 7 + 7 + 9


@pytest.mark.parametrize("centers, message", [
    (np.array([4.7]), "node id 4.7 is not an integer"),
    (np.array([1.0, np.nan]), "node id nan is not an integer"),
    (np.array([False, True, False, True, False, False]),
     "node ids must be integers, got a boolean array"),
], ids=["fraction", "nan", "mask"])
@pytest.mark.parametrize("table", [False, True], ids=["graph", "table"])
def test_centers_must_be_integers(centers, message, table):
    # [4.7] used to answer for node 4
    g = gen_grid(2, 3)
    view = NearestTable(g, 3) if table else g
    with pytest.raises(ValueError, match=message):
        view.neighborhoods(centers, 2, "nn")
    for got, want in zip(view.neighborhoods(np.array([1.0, 4.0]), 2, "nn"),
                         view.neighborhoods(np.array([1, 4]), 2, "nn")):
        assert got.dtype == want.dtype and np.array_equal(got, want)


@pytest.mark.parametrize("centers", [[0, 9, 3], [0, -1, 2], [3, 3, 4]],
                         ids=["unsorted", "negative", "repeated"])
@pytest.mark.parametrize("table", [False, True], ids=["graph", "table"])
def test_centers_must_be_ascending_and_distinct(centers, table):
    # each passes a check of the first and last id only
    g = gen_grid(1, 6)
    view = NearestTable(g, 3) if table else g
    with pytest.raises(ValueError, match="centers must be ascending and distinct"):
        view.neighborhoods(np.array(centers), 2, "nn")


def _layout_queries(g, centers):
    noisy = NoisyView(g, DistanceNoise(flip_prob=0.3, magnitude=2), seed=3)
    # every far pair shifted by 3: nn centers settle at many different depths
    flipped = NoisyView(g, DistanceNoise(flip_prob=1.0, magnitude=3), seed=5)
    return ([g.neighborhoods(centers, k, "nn") for k in (1, 6, 40)]
            + [g.neighborhoods(centers, 3, "ball"), noisy.neighborhoods(centers, 6, "nn"),
               noisy.neighborhoods(centers, 3, "ball")]
            + [flipped.neighborhoods(centers, k, "nn") for k in (1, 6, 40)])


@pytest.mark.parametrize("pairs", [1, 2**40])
@pytest.mark.parametrize("block", [1, 3, 256, 512])
def test_batch_layout_does_not_change_output(monkeypatch, pairs, block):
    # about 750 centers of mixed degree: the batches come in unequal sizes
    g = gen_erdos_renyi(1500, 2.5 / 1500, 8)
    centers = np.sort(np.random.default_rng(2).choice(g.n, 750, replace=False))
    want = _layout_queries(g, centers)
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    monkeypatch.setattr(Graph, "_first_batch", lambda self: block)
    for w, h in zip(want, _layout_queries(g, centers)):
        for a, b in zip(w, h):
            assert b.dtype == a.dtype and np.array_equal(b, a)


_CROSS_GRAPHS = {
    "er-giant": gen_erdos_renyi(1500, 2.5 / 1500, 8).largest_component()[0],
    "grid": gen_grid(2, 12),
    "star": Graph.from_edges(31, [(0, i) for i in range(1, 31)]),
    "path": gen_grid(1, 40),
}


@pytest.mark.parametrize("pairs", [1, 2**40])
@pytest.mark.parametrize("block", [1, 3, 256])
@pytest.mark.parametrize("name", list(_CROSS_GRAPHS))
def test_plain_assembly_matches_the_perceived_sort(monkeypatch, name, block, pairs):
    # a noisy view that never flips perceives every hop distance as it is,
    # but sends the query through the code sort and the settling depth
    g = _CROSS_GRAPHS[name]
    centers = np.arange(g.n)
    if name == "er-giant":
        centers = np.sort(np.random.default_rng(4).choice(g.n, 300, replace=False))
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    monkeypatch.setattr(Graph, "_first_batch", lambda self: block)
    for magnitude in (1, 3):
        view = NoisyView(g, DistanceNoise(0.0, magnitude), seed=7)
        for size, mode in [(k, "nn") for k in (1, 2, 6, 40)] + [(l, "ball") for l in range(4)]:
            for a, b in zip(g.neighborhoods(centers, size, mode),
                            view.neighborhoods(centers, size, mode)):
                assert a.dtype == b.dtype and np.array_equal(a, b), (magnitude, size, mode)


@pytest.mark.parametrize("pairs", [1, 2**40])
@pytest.mark.parametrize("block", [1, 3, 512])
def test_observers_are_hashed_once_per_batch(monkeypatch, block, pairs):
    g = gen_erdos_renyi(1500, 2.5 / 1500, 8)
    centers = np.sort(np.random.default_rng(2).choice(g.n, 200, replace=False))
    view = NoisyView(g, DistanceNoise(flip_prob=0.3, magnitude=2), seed=3)
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    monkeypatch.setattr(Graph, "_first_batch", lambda self: block)
    calls = []
    block_of, observers_of = Graph._neighborhood_block, NoisyView._observers
    monkeypatch.setattr(Graph, "_neighborhood_block", lambda self, batch, *args: (
        calls.append(("batch", batch.tolist())) or block_of(self, batch, *args)))
    monkeypatch.setattr(NoisyView, "_observers", lambda self, batch: (
        calls.append(("hash", batch.tolist())) or observers_of(self, batch)))
    for size, mode in ((1, "nn"), (6, "nn"), (0, "ball"), (3, "ball")):
        calls.clear()
        view.neighborhoods(centers, size, mode)
        batches = [batch for what, batch in calls if what == "batch"]
        assert calls == [(what, batch) for batch in batches for what in ("batch", "hash")]
        assert sum(batches, []) == centers.tolist()
        assert len(batches[0]) == min(block, centers.size)  # the forced first batch
        if block == 1 and pairs == 1:
            assert len(batches) == centers.size
    calls.clear()
    g.neighborhoods(centers, 6, "nn")
    assert calls and all(what == "batch" for what, _ in calls)


def test_batch_cap_holds_for_any_noise_magnitude():
    # magnitude past every true distance: nothing shifts, yet the slack is
    # 10**17, so a batch cap derived from it would be 0 and never advance
    g = gen_grid(2, 8)
    view = NoisyView(g, DistanceNoise(flip_prob=1.0, magnitude=10**17), seed=1)
    centers = np.arange(g.n)
    for size, mode in ((5, "nn"), (g.n, "nn"), (3, "ball")):
        for w, h in zip(g.neighborhoods(centers, size, mode),
                        view.neighborhoods(centers, size, mode)):
            assert np.array_equal(h, w)
    for n in (1, 2, 3, 1023, 1024, 1025, 2**20 - 1, 2**20, 10**6, 2**26, MAX_NODES):
        # the largest code, of the last center and the last node, fits in int64,
        # and the cap is at most half of the largest batch that would fit
        cap, b = _max_batch(n), n.bit_length()
        assert cap >= 1 and ((cap - 1) << b | (n - 1)) << 1 < 2**63
        assert 4 * cap * n >= 2**63


def _edge_graph(shape, n):
    """The path 0..n-1, the star with hub 0, or a G(n, 3/n) sample."""
    if shape == "path":
        return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    if shape == "star":
        return Graph.from_edges(n, [(0, i) for i in range(1, n)])
    return gen_erdos_renyi(n, min(1.0, 3 / n), n)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 9, 1023, 1024, 1025])
@pytest.mark.parametrize("shape", ["path", "star", "random"])
def test_pair_keys_at_power_of_two_node_counts(shape, n):
    # pairs are keyed owner << b | node with b = n.bit_length(): at n = 2**j - 1,
    # 2**j and 2**j + 1 the last node id fills its field, or starts a new bit
    g = _edge_graph(shape, n)
    # the CSR again from both directions of every edge and a self-loop, backwards
    u = np.repeat(np.arange(n), g.degrees())
    pairs = np.concatenate([np.column_stack([u, g._indices]), [[n - 1, n - 1]]])
    indptr, indices, _, _ = csr_oracle(n, pairs)
    for built in (Graph._from_pairs(n, pairs[::-1, 0].copy(), pairs[::-1, 1].copy()),
                  Graph.from_edges(n, pairs)):
        assert np.array_equal(built._indptr, indptr) and np.array_equal(built._indices, indices)
    rng = np.random.default_rng(n)
    centers = np.union1d(rng.choice(n, min(n, 30), replace=False), [0, n - 1])
    reporting = np.union1d(centers[rng.random(centers.size) < 0.5], [n - 1])
    view = NoisyView(g, DistanceNoise(0.5, 1), seed=n)
    hops = {i: nn_oracle(g, i, n) for i in centers.tolist()}
    perceived = {i: noisy_ranking_oracle(g, i, n, 0.5, 1) for i in centers.tolist()}
    for q, mode, members in (
            (g, "nn", lambda i, size: hops[i][:size]),
            (g, "ball", lambda i, size: ball_oracle(g, i, size)),
            (view, "nn", lambda i, size: [v for _, v in perceived[i][:size]]),
            (view, "ball", lambda i, size: [v for d, v in perceived[i] if d <= size])):
        for size in ((1, 3, 8) if mode == "nn" else (0, 1, 3)):
            assert per_center(*q.neighborhoods(centers, size, mode), centers.size) == [
                members(i, size) for i in centers.tolist()], (q, mode, size)
            for s in (1, 2):
                assert q.hotspots(reporting, size, mode, s).tolist() == _hotspot_oracle(
                    lambda i: members(i, size), reporting.tolist(), s), (q, mode, size, s)


def _batch_sizes(monkeypatch):
    """The centers of each batch the kernel runs from now on."""
    sizes, block_of = [], Graph._neighborhood_block
    monkeypatch.setattr(Graph, "_neighborhood_block", lambda self, batch, *args: (
        sizes.append(batch.size) or block_of(self, batch, *args)))
    return sizes


def test_a_sweep_snapshot_runs_as_one_batch(monkeypatch):
    # the sweeps' 8000-node ER giant, mean degree about 2.4: a first batch reads
    # about _PAIRS >> 4 row entries, about 1,700 centers, so 900 reporters are one
    g = gen_erdos_renyi(8000, 2 / 8000, 1).largest_component()[0]
    centers = np.sort(np.random.default_rng(3).choice(g.n, 900, replace=False))
    view = NoisyView(g, DistanceNoise(0.2, 2), seed=4)
    sizes = _batch_sizes(monkeypatch)
    for q in (g, view):
        q.neighborhoods(centers, 6, "nn")
        q.hotspots(centers, 6, "nn", 3)
        q.hotspots(centers, 3, "ball", 2)
    assert sizes == [900] * 6


# graphs with K at most the mean degree for some K: the depth-1 pass runs
_DEPTH_ONE_GRAPHS = {**_ROW_GRAPHS,  # mean degrees 1.4 and 2.3
                     "er-giant": gen_erdos_renyi(150, 5 / 150, 2).largest_component()[0]}


@pytest.mark.parametrize("pairs", [1, 3, 2**16])
@pytest.mark.parametrize("name", list(_DEPTH_ONE_GRAPHS))
def test_depth_one_pass_matches_oracles(monkeypatch, name, pairs):
    # a chunk of the pass holds max(_PAIRS // K, 1) centers: one, a few, all
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    g = _DEPTH_ONE_GRAPHS[name]
    rng = np.random.default_rng(len(name) + pairs)
    for k in range(1, g._indices.size // g.n + 1):
        for density in (0.2, 0.5, 0.9):
            reporting = np.flatnonzero(rng.random(g.n) < density)
            for s in range(1, k + 1):
                want = _hotspot_oracle(lambda i: nn_oracle(g, i, k), reporting.tolist(), s)
                assert g.hotspots(reporting, k, "nn", s).tolist() == want, (k, density, s)
                verdict = classify(g, reporting, DetectorConfig.nn(k=k, s=s, t=0),
                                   keep_indicators=True)
                assert verdict.per_node == dict(zip(reporting.tolist(), want))


def _bfs_batches(monkeypatch):
    """The centers of each batch the BFS runs from now on."""
    batches, block_of = [], Graph._neighborhood_block
    monkeypatch.setattr(Graph, "_neighborhood_block", lambda self, batch, *args: (
        batches.append(batch.copy()) or block_of(self, batch, *args)))
    return batches


def test_the_bfs_gets_only_the_centers_depth_one_leaves_open(monkeypatch):
    # mean degree about 2.4, K = 2, s = 2: a center with two entries is
    # decided by them, as is one whose only neighbor is silent; only a
    # degree-1 center with a reporting neighbor needs depth 2
    g = gen_erdos_renyi(8000, 2 / 8000, 1).largest_component()[0]
    centers = np.sort(np.random.default_rng(5).choice(g.n, 3000, replace=False))
    reports = np.zeros(g.n, dtype=bool)
    reports[centers] = True
    want = g._neighborhood_block(centers, 2, True, None, reports, 2)[0]  # the BFS alone
    deg = g.degrees()[centers]
    open_ = centers[(deg == 1) & reports[g._indices[g._indptr[centers]]]]
    assert 0 < open_.size < 3000 // 5
    batches = _bfs_batches(monkeypatch)
    assert np.array_equal(g.hotspots(centers, 2, "nn", 2), want)
    assert len(batches) == 1 and np.array_equal(batches[0], open_)


def test_tests_outside_the_gate_reach_the_bfs_whole(monkeypatch):
    # K = 6 above the mean degree of 2.4, and s = 3 above K = 2: no depth-1
    # pass, so the BFS gets every center
    g = gen_erdos_renyi(8000, 2 / 8000, 1).largest_component()[0]
    centers = np.sort(np.random.default_rng(6).choice(g.n, 900, replace=False))
    reports = np.zeros(g.n, dtype=bool)
    reports[centers] = True
    cases = [(6, 3), (2, 3)]
    want = [g._neighborhood_block(centers, size, True, None, reports, s)[0] for size, s in cases]
    batches = _bfs_batches(monkeypatch)
    for (size, s), fired in zip(cases, want):
        assert np.array_equal(g.hotspots(centers, size, "nn", s), fired)
        assert np.array_equal(batches.pop(), centers) and not batches


def test_a_dense_graph_gets_a_smaller_first_batch(monkeypatch):
    g = gen_erdos_renyi(2000, 0.05, 2)  # mean degree about 100
    sizes = _batch_sizes(monkeypatch)
    g.neighborhoods(np.arange(g.n), 3, "nn")
    assert sizes[0] == (graph._PAIRS >> 4) * g.n // (2 * g.num_edges) < 512
    assert sum(sizes) == g.n


def test_kernel_validation():
    g = Graph.from_edges(4, [(0, 1), (1, 2)])
    for bad in (-1, 4):
        with pytest.raises(ValueError, match=f"node id {bad} "):
            g.neighborhoods(np.array(sorted([0, bad])), 1, "nn")
    with pytest.raises(ValueError):
        g.neighborhoods(np.array([0]), 0, "nn")
    with pytest.raises(ValueError):
        g.neighborhoods(np.array([0]), -1, "ball")
    with pytest.raises(ValueError):
        g.neighborhoods(np.array([0]), 1, "hexagon")
    owner, member, rank = g.neighborhoods(np.empty(0, dtype=np.int64), 2, "nn")
    assert owner.size == member.size == rank.size == 0


@pytest.mark.parametrize("noisy", [False, True], ids=["graph", "noisy"])
def test_nearest_table_matches_its_view(noisy):
    g = gen_erdos_renyi(3000, 2.0 / 3000, 8)
    k_max = 12
    sizes = np.array([len(comp) for comp in components_oracle(g)])
    assert (g.degrees() == 0).any() and ((sizes > 1) & (sizes <= k_max)).any()
    view = NoisyView(g, DistanceNoise(flip_prob=0.3), seed=5) if noisy else g
    table = NearestTable(view, k_max)
    some = np.sort(np.random.default_rng(1).choice(g.n, 2 * _BLOCK + 7, replace=False))
    for centers in (np.arange(g.n), some, np.empty(0, dtype=np.int64)):
        for size in range(1, k_max + 1):
            want = view.neighborhoods(centers, size, "nn")
            got = table.neighborhoods(centers, size, "nn")
            for w, h in zip(want, got):
                assert h.dtype == w.dtype and np.array_equal(h, w)


def test_nearest_table_validation():
    table = NearestTable(gen_grid(2, 5), 4)
    with pytest.raises(ValueError, match="cannot answer mode 'ball'"):
        table.neighborhoods(np.arange(3), 1, "ball")
    with pytest.raises(ValueError, match="k=5 exceeds the table's k_max=4"):
        table.neighborhoods(np.arange(3), 5, "nn")
    with pytest.raises(ValueError, match="k must be >= 1"):
        table.neighborhoods(np.arange(3), 0, "nn")
    with pytest.raises(ValueError, match="node id 25 "):
        table.neighborhoods(np.array([3, 25]), 1, "nn")
    with pytest.raises(ValueError, match="k must be >= 1"):
        NearestTable(gen_grid(2, 5), 0)


@pytest.mark.parametrize("attr", ["n", "k_max"])
def test_nearest_table_sizes_are_read_only(attr):
    # k_max = 5 on a table of K = 2 used to answer 2 members to a query of 5
    table = NearestTable(gen_grid(2, 4), 2)
    with pytest.raises(AttributeError):
        setattr(table, attr, 5)
    assert (table.n, table.k_max) == (16, 2)


def test_noisy_view_lives_beside_the_kernel():
    # the kernel reads a view's noise itself: it takes no distance function
    assert harness.NoisyView is graph.NoisyView
    assert harness.DistanceNoise is graph.DistanceNoise
    assert list(inspect.signature(Graph.neighborhoods).parameters) == [
        "self", "centers", "size", "mode"]


@given(graphs(), st.data(), st.integers(1, 8), st.integers(0, 4), st.integers(1, 4))
def test_classify_indicators_match_single_node_queries(g, data, k, l, s):
    reporting = data.draw(st.sets(st.integers(0, g.n - 1)))  # may be empty
    for cfg, members in ((DetectorConfig.nn(k=k, t=0, s=s), nn_oracle),
                         (DetectorConfig.ball_mode(l=l, s=s, t=0), ball_oracle)):
        verdict = classify(g, reporting, cfg, keep_indicators=True)
        want = {i: sum(v in reporting for v in members(g, i, cfg.k_or_l)) >= s
                for i in sorted(reporting)}
        assert verdict.per_node == want
        assert list(verdict.per_node) == sorted(reporting)
        assert verdict.hotspot_count == sum(want.values())


@given(graphs(), st.data(), st.integers(0, 2**32), st.sampled_from([0.2, 1.0]),
       st.sampled_from([1, 2]), st.integers(1, 8), st.integers(1, 3))
def test_noisy_classify_matches_full_sort_oracle(g, data, seed, flip_prob, magnitude, size, s):
    reporting = data.draw(st.sets(st.integers(0, g.n - 1)))
    view = NoisyView(g, DistanceNoise(flip_prob=flip_prob, magnitude=magnitude), seed=seed)
    rankings = {i: noisy_ranking_oracle(g, i, seed, flip_prob, magnitude) for i in reporting}
    l = size % 5
    for cfg, members in (
            (DetectorConfig.nn(k=size, t=0, s=s), lambda i: [v for _, v in rankings[i][:size]]),
            (DetectorConfig.ball_mode(l=l, s=s, t=0),
             lambda i: [v for d, v in rankings[i] if d <= l])):
        verdict = classify(view, reporting, cfg, keep_indicators=True)
        assert verdict.per_node == {i: sum(v in reporting for v in members(i)) >= s
                                    for i in reporting}


@given(graphs(), st.data(), st.lists(st.integers(1, 30), min_size=1, max_size=4))
def test_gamma_and_boundary_match_interior_fraction_oracle(g, data, k_values):
    infected = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
    gammas = gamma_for_set(g, infected, k_values)
    assert gamma_for_set(NearestTable(g, max(k_values)), infected, k_values) == gammas
    for k, got in zip(k_values, gammas):
        assert got == pytest.approx(interior_fraction_oracle(g, infected, k), abs=1e-12)
