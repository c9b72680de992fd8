"""The batched neighborhood kernel (Graph.neighborhoods) and its consumers
against the brute-force oracles."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot.calibration import gamma_for_set
from hotspot.detector import DetectorConfig, classify
from hotspot import graph
from hotspot.graph import (_BLOCK, MAX_NODES, Graph, NearestTable, _max_batch,
                           gen_erdos_renyi, gen_grid)
from hotspot.harness import DistanceNoise, NoisyView

from oracles import (ball_oracle, interior_fraction_oracle, nn_oracle,
                     noisy_ranking_oracle, random_graph)


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
    g = Graph.from_edges(6, [(4, 5)])
    centers = np.arange(4)
    for size, mode in ((1, "nn"), (3, "nn"), (0, "ball"), (2, "ball")):
        assert all(a.size == 0 for a in g.neighborhoods(centers, size, mode))
        assert g._neighborhood_block(centers, size, mode == "nn", None, 0)[3] == 0


@pytest.mark.parametrize("shape, centers, size, mode, expanded", [
    # path 0..9, K = 3: center 0 reads rows 0, 1, 2 (1 + 2 + 2 pairs);
    # center 5 reads row 5, then rows 4 and 6, and is settled (2 + 4)
    ("path", [0], 3, "nn", 5),
    ("path", [5], 3, "nn", 6),
    ("path", [0, 5], 3, "nn", 11),
    ("path", [0], 2, "ball", 3),  # a ball of radius 2 reads two levels
    # star, hub 0 and leaves 1..5: a leaf reads its row, then the hub's
    ("star", [1, 2], 3, "nn", 2 * (1 + 5)),
    ("star", [0], 3, "nn", 5),  # the hub is settled by its own row
    ("star", [0], 2, "ball", 5 + 5),
])
def test_expanded_counts_the_pairs_read(shape, centers, size, mode, expanded):
    g = Graph.from_edges(10, [(i, i + 1) for i in range(9)]) if shape == "path" else (
        Graph.from_edges(6, [(0, i) for i in range(1, 6)]))
    block = g._neighborhood_block(np.array(centers), size, mode == "nn", None, 0)
    assert block[3] == expanded


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
    monkeypatch.setattr(graph, "_BLOCK", block)
    for w, h in zip(want, _layout_queries(g, centers)):
        for a, b in zip(w, h):
            assert b.dtype == a.dtype and np.array_equal(b, a)


def _hop_distance(centers, owner, targets, d):
    return np.full(targets.size, d, dtype=np.int64)


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
    # the hop distance as a perceived one sends the same query through the
    # code sort: owner, member, rank and every batch's expanded count agree
    g = _CROSS_GRAPHS[name]
    centers = np.arange(g.n)
    if name == "er-giant":
        centers = np.sort(np.random.default_rng(4).choice(g.n, 300, replace=False))
    monkeypatch.setattr(graph, "_PAIRS", pairs)
    monkeypatch.setattr(graph, "_BLOCK", block)
    expanded = []
    block_of = Graph._neighborhood_block

    def spy(self, *args):
        out = block_of(self, *args)
        expanded.append(out[3])
        return out

    monkeypatch.setattr(Graph, "_neighborhood_block", spy)
    for size, mode in [(k, "nn") for k in (1, 2, 6, 40)] + [(l, "ball") for l in range(4)]:
        expanded.clear()
        plain = g.neighborhoods(centers, size, mode)
        plain_expanded = expanded.copy()
        expanded.clear()
        sorted_ = g.neighborhoods(centers, size, mode, perceive=_hop_distance, slack=0)
        assert expanded == plain_expanded, (size, mode)
        for a, b in zip(plain, sorted_):
            assert a.dtype == b.dtype and np.array_equal(a, b), (size, mode)


@pytest.mark.parametrize("slack", [1, -1, 3])
@pytest.mark.parametrize("mode", ["nn", "ball"])
def test_slack_needs_a_perceive_function(mode, slack):
    # without perceive a ball would explore past its radius and keep those members
    g = gen_grid(1, 10)
    with pytest.raises(ValueError, match="slack needs a perceive function"):
        g.neighborhoods(np.array([0, 5]), 2, mode, slack=slack)


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
    cap = _max_batch(MAX_NODES)
    assert cap >= 1 and cap * 2 * MAX_NODES * MAX_NODES < 2**63


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
    sizes = np.bincount(g.component_labels())
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
