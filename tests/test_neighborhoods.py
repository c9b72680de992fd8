"""The batched neighborhood kernel (Graph.neighborhoods) and its consumers
against the single-node queries and the brute-force oracles."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot.calibration import boundary_set, gamma_for_set
from hotspot.detector import DetectorConfig, classify, multi_k_test, reporting_prefix_length
from hotspot.graph import Graph, gen_erdos_renyi
from hotspot.harness import DistanceNoise, NoisyView

from oracles import (interior_fraction_oracle, nn_oracle, noisy_ranking_oracle,
                     prefix_length_oracle, random_graph)


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
        g.nn_members(i, k) for i in range(g.n)]
    assert per_center(*g.neighborhoods(centers, l, "ball"), g.n) == [
        g.ball_members(i, l) for i in range(g.n)]


def test_kernel_over_many_blocks_matches_oracle():
    g = gen_erdos_renyi(1500, 2.5 / 1500, 8)  # giant, small pieces, isolated nodes
    centers = np.arange(0, g.n, 2)
    ranked = [nn_oracle(g, i, 40) for i in centers.tolist()]
    for k in (1, 6, 40):
        lists = per_center(*g.neighborhoods(centers, k, "nn"), centers.size)
        assert lists == [r[:k] for r in ranked]
    lists = per_center(*g.neighborhoods(centers, 3, "ball"), centers.size)
    assert lists == [g.ball_members(i, 3) for i in centers.tolist()]


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


@given(graphs(), st.data(), st.integers(1, 8), st.integers(0, 4), st.integers(1, 4))
def test_classify_indicators_match_single_node_queries(g, data, k, l, s):
    reporting = data.draw(st.sets(st.integers(0, g.n - 1)))  # may be empty
    for cfg, members in ((DetectorConfig.nn(k=k, t=0, s=s), g.nn_members),
                         (DetectorConfig.ball_mode(l=l, s=s, t=0), g.ball_members)):
        verdict = classify(g, reporting, cfg, keep_indicators=True)
        want = {i: sum(v in reporting for v in members(i, cfg.k_or_l)) >= s
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
    for k, got in zip(k_values, gammas):
        assert got == pytest.approx(interior_fraction_oracle(g, infected, k), abs=1e-12)
        boundary = boundary_set(g, infected, k)
        assert boundary == {i for i in infected
                            if not all(v in infected for v in nn_oracle(g, i, k))}
        assert got == pytest.approx(1 - len(boundary) / len(infected), abs=1e-12)


@given(graphs(), st.data())
def test_multi_k_counts_match_per_node_prefix_lengths(g, data):
    reporting = data.draw(st.sets(st.integers(0, g.n - 1)))
    k_cap = max(1, int(np.ceil(np.log(max(g.n, 2)))))
    k_range = list(range(1, k_cap + 1))
    verdict = multi_k_test(g, reporting, k_range, {k: 1.0 for k in k_range}, 4.0)
    counts = {int(k): int(c) for k, c in re.findall(r"K=(\d+):count=(\d+)", verdict.note)}
    lengths = [reporting_prefix_length(g, i, k_cap, reporting) for i in sorted(reporting)]
    assert lengths == [prefix_length_oracle(nn_oracle(g, i, k_cap), reporting)
                       for i in sorted(reporting)]
    assert counts == {k: sum(length >= k for length in lengths) for k in k_range}
