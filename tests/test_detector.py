import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot.calibration import (GammaEntry, GammaProfile, gamma_for_set,
                                 gamma_tree_profile, reporting_probabilities)
from hotspot.detector import (DetectorConfig, classify, prescribe, select_params_dense,
                              select_params_small)
from hotspot.graph import Graph, gen_erdos_renyi, gen_grid
from hotspot.scenario import EPIDEMIC, UNIFORM, generate_uniform_null, simulate_si

from oracles import hotspot_count_oracle, random_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# -- config ------------------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(mode="hexagon", k_or_l=1, s=1, t=0)
    with pytest.raises(ValueError):
        DetectorConfig(mode="nn", k_or_l=1, s=0, t=0)
    cfg = DetectorConfig.nn(k=3, t=1.5)
    assert cfg.s == 3  # canonical form defaults s to K
    ball = DetectorConfig.ball_mode(l=2, s=1, t=0)
    assert ball.mode == "ball" and ball.k_or_l == 2


def test_config_rejects_empty_nn_neighborhood():
    # an nn scan needs K >= 1; this used to fail only inside classify
    with pytest.raises(ValueError, match="nn mode"):
        DetectorConfig.nn(k=0, t=0, s=1)
    with pytest.raises(ValueError):
        DetectorConfig.ball_mode(l=-1, s=1, t=0)
    assert DetectorConfig.ball_mode(l=0, s=1, t=0).k_or_l == 0


# -- indicator ----------------------------------------------------------------------

def indicator(g, i, cfg, reporting):
    return classify(g, reporting, cfg, keep_indicators=True).per_node[i]


def test_indicator_path_example():
    g = path_graph(3)
    cfg = DetectorConfig.nn(k=2, t=0)
    assert indicator(g, 1, cfg, {0, 1, 2}) is True
    assert indicator(g, 1, cfg, {1, 2}) is False


def test_indicator_never_counts_center():
    g = path_graph(3)
    cfg = DetectorConfig.nn(k=2, t=0, s=1)
    assert indicator(g, 1, cfg, {1}) is False


def test_indicator_oversized_s():
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    cfg = DetectorConfig(mode="nn", k_or_l=5, s=5, t=0)
    assert indicator(star, 0, cfg, {0, 1, 2, 3}) is False


# -- classify -----------------------------------------------------------------------

@pytest.mark.parametrize("bad", [-1, 5])
def test_reporters_outside_the_graph_are_rejected(bad):
    # -1 used to wrap to the last node's offsets, 5 to raise a bare IndexError
    g = path_graph(5)
    with pytest.raises(ValueError, match=f"node id {bad} "):
        classify(g, {0, bad}, DetectorConfig.nn(k=1, t=0))
    with pytest.raises(ValueError, match=f"node id {bad} "):
        classify(g, {0, bad}, DetectorConfig.ball_mode(l=1, s=1, t=0))


@pytest.mark.parametrize("reporting, message", [
    ([1.5, 4], "node id 1.5 is not an integer"),
    (np.array([2.0, np.inf]), "node id inf is not an integer"),
    (np.array([True, True, False, False, False]), "node ids must be integers, got a boolean array"),
], ids=["fraction", "infinite", "mask"])
def test_classify_refuses_reporters_that_are_not_integers(reporting, message):
    # a fraction used to be truncated (1.5 scored as node 1), a mask read as the ids {0, 1}
    g, cfg = path_graph(5), DetectorConfig.nn(k=1, t=0)
    with pytest.raises(ValueError, match=message):
        classify(g, reporting, cfg)
    assert classify(g, [1.0, 2.0], cfg) == classify(g, [1, 2], cfg)


def test_classify_empty_reporting():
    g = path_graph(4)
    verdict = classify(g, set(), DetectorConfig.nn(k=1, t=0), keep_indicators=True)
    assert verdict.label == UNIFORM and verdict.hotspot_count == 0
    assert verdict.per_node == {}


def test_classify_path_example():
    # indicators: node 1 sees {0,2} (one reporter), node 2 sees {1,3} (two),
    # node 3 sees {2,4} (one); only node 2 fires
    g = path_graph(5)
    verdict = classify(g, {1, 2, 3}, DetectorConfig.nn(k=2, t=0), keep_indicators=True)
    assert verdict.hotspot_count == 1
    assert verdict.label == EPIDEMIC
    assert verdict.per_node == {1: False, 2: True, 3: False}


def test_classify_strict_threshold_boundary():
    g = path_graph(5)
    verdict = classify(g, {1, 2, 3}, DetectorConfig.nn(k=2, t=1))
    assert verdict.hotspot_count == 1
    assert verdict.label == UNIFORM  # count == t stays uniform


def test_classify_ball_mode():
    g = path_graph(7)
    cfg = DetectorConfig.ball_mode(l=2, s=2, t=0)
    verdict = classify(g, {1, 2, 3}, cfg)
    # each of 1,2,3 sees the other two within distance 2
    assert verdict.hotspot_count == 3


def test_classify_takes_any_form_of_one_reporter_set():
    g = gen_erdos_renyi(300, 4 / 300, 1)
    reporting = np.flatnonzero(np.random.default_rng(2).random(g.n) < 0.3)
    shuffled = np.random.default_rng(3).permutation(np.concatenate([reporting, reporting[::4]]))
    cfg = DetectorConfig.nn(k=3, t=5)
    want = classify(g, reporting, cfg, keep_indicators=True)
    assert want.hotspot_count > 0
    assert classify(g, reporting.tolist(), cfg, keep_indicators=True) == want
    assert classify(g, shuffled, cfg, keep_indicators=True) == want


def test_classify_indicator_retention_flag():
    g = path_graph(5)
    verdict = classify(g, {1, 2}, DetectorConfig.nn(k=1, t=0), keep_indicators=False)
    assert verdict.per_node is None


def test_verdict_csv_row():
    g = path_graph(5)
    verdict = classify(g, {1, 2, 3}, DetectorConfig.nn(k=2, t=0), keep_indicators=True)
    assert verdict.csv_row("epidemic") == "epidemic,epidemic,1,0,2,nn"
    assert verdict.csv_row() == ",epidemic,1,0,2,nn"


@given(st.integers(0, 10_000))
def test_classify_matches_oracle(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(int(rng.integers(2, 15)), float(rng.uniform(0.05, 0.5)), rng)
    reporting = {int(v) for v in np.flatnonzero(rng.random(g.n) < 0.4)}
    k = int(rng.integers(1, 5))
    verdict = classify(g, reporting, DetectorConfig.nn(k=k, t=0))
    assert verdict.hotspot_count == hotspot_count_oracle(g, reporting, k, k)


@given(st.integers(0, 10_000))
def test_hotspot_count_monotone_in_reporting(seed):
    rng = np.random.default_rng(seed)
    g = random_graph(12, 0.25, rng)
    base = {int(v) for v in np.flatnonzero(rng.random(g.n) < 0.3)}
    extra = base | {int(rng.integers(0, g.n))}
    cfg = DetectorConfig.nn(k=2, t=0)
    assert classify(g, extra, cfg).hotspot_count >= classify(g, base, cfg).hotspot_count


def test_classify_local_edits_far_away_do_not_matter():
    # reporters live on nodes 0..5; edits among nodes 20..29 are beyond
    # distance K+1 of every reporter and cannot change the verdict
    edges = [(i, i + 1) for i in range(29)]
    g = Graph.from_edges(30, edges)
    reporting = {0, 1, 2, 3, 4, 5}
    cfg = DetectorConfig.nn(k=2, t=0)
    before = classify(g, reporting, cfg)
    rng = np.random.default_rng(0)
    for _ in range(20):
        far = [(u, v) for u in range(20, 30) for v in range(u + 1, 30)
               if rng.random() < 0.3]
        edited = Graph.from_edges(30, [(u, v) for u, v in edges if u < 19] + far)
        after = classify(edited, reporting, cfg)
        assert after.hotspot_count == before.hotspot_count
        assert after.label == before.label


def test_null_expectation_exact_on_path():
    # every node of a 10-path has exactly two 2-nearest neighbors, so
    # E[count] = sum_i p * p^2 = 10 * p^3
    g = path_graph(10)
    p, trials = 0.3, 20_000
    cfg = DetectorConfig.nn(k=2, t=0)
    counts = np.array([
        classify(g, generate_uniform_null(g, p, seed).reporting, cfg,
                 keep_indicators=False).hotspot_count
        for seed in range(trials)
    ])
    expected = 10 * p ** 3
    stderr = counts.std(ddof=1) / math.sqrt(trials)
    assert abs(counts.mean() - expected) < 3 * stderr


def test_epidemic_count_at_least_interior_fraction():
    # with q=1, f=0 the reporting set is the infected set and every
    # interior node fires, so count >= gamma(K) * |S|
    g = gen_grid(2, 20)
    out = simulate_si(g, [210], 120, rng_seed=4)
    infected = set(out.infected)
    for k in (4, 8):
        gamma = gamma_for_set(g, infected, [k])[0]
        verdict = classify(g, infected, DetectorConfig.nn(k=k, t=0))
        assert verdict.hotspot_count >= gamma * len(infected) - 1e-9


# -- parameter selection ---------------------------------------------------------------

def test_select_dense_examples():
    cfg = select_params_dense(gamma=1.0, f=1.0, p_in=0.5, p=0.1, n_reporting=100)
    assert cfg.k_or_l == 1  # ceil(ln 2) = 1
    cfg = select_params_dense(gamma=1.0, f=0.0, p_in=0.5, p=0.1, n_reporting=1000)
    assert cfg.k_or_l == 1  # ln 1 = 0, floored to 1
    assert cfg.t == pytest.approx(300.0)  # (1000/2)*(0.5/1 + 0.1)
    assert cfg.s == cfg.k_or_l and cfg.mode == "nn"


def test_select_dense_grid_rule():
    # a grid is the constant gamma = 1
    cfg = select_params_dense(gamma=1.0, f=1.0, p_in=0.5, p=0.1, n_reporting=1000)
    assert cfg.k_or_l == 1  # ceil(ln 2)
    assert cfg.t == pytest.approx((1000 / 2) * (0.5 / 2 + 0.1))


def test_select_dense_tree_rule():
    # a tree is the profile gamma(K) = 1/K, K <= 64
    cfg = select_params_dense(gamma=gamma_tree_profile(), f=150.0, p_in=0.5, p=0.1,
                              n_reporting=1000)
    assert cfg.k_or_l == 7  # minimal K with K >= ln(151 K)
    assert cfg.t == pytest.approx((1000 / 2) * (0.5 ** 7 / (7 * 151) + 0.1 ** 7))


def test_select_dense_log_base_override():
    cfg = select_params_dense(gamma=1.0, f=3.0, p_in=0.5, p=0.1,
                              n_reporting=10, log_base=2.0)
    assert cfg.k_or_l == 2  # ceil(log2 4)


def test_select_dense_errors():
    with pytest.raises(ValueError, match="boundary covers"):
        select_params_dense(gamma=0.0, f=1.0, p_in=0.5, p=0.1, n_reporting=10)
    with pytest.raises(ValueError):
        select_params_dense(gamma=0.5, f=1.0, p_in=0.1, p=0.5, n_reporting=10)
    # a constant above 1 is refused before any K is tried
    with pytest.raises(ValueError, match=r"gamma must be in \(0, 1\]"):
        select_params_dense(gamma=1.5, f=1.0, p_in=0.5, p=0.1, n_reporting=10)


def test_prescribe_one_rule_for_every_caller():
    probs = reporting_probabilities(0.5, 0.1, 1.0)
    dense = prescribe(1000, 100, "dense", q=0.5, alpha=0.1, f=1.0, gamma=0.6)
    want = select_params_dense(0.6, 1.0, probs.p_in, probs.p, 100)
    assert (dense.k_or_l, dense.t) == (want.k_or_l, want.t)
    profile = GammaProfile(entries=[GammaEntry(k, g, 0.0, 1)
                                    for k, g in ((1, 0.5), (2, 0.45), (3, 0.4))])
    cfg = prescribe(1000, 100, "dense", q=0.5, alpha=0.1, f=1.0, gamma=profile)
    assert cfg.k_or_l == 2  # ln(2/0.5) = 1.39 > 1; ln(2/0.45) = 1.49 <= 2
    assert cfg.t == pytest.approx(50 * (0.45 * probs.p_in ** 2 / 2 + probs.p ** 2))
    # auto: dense above the observed-density cutoff, small (beta from |R|) below
    assert "-> dense" in prescribe(1000, 11, q=0.5, alpha=0.1, f=1.0, gamma=0.6).note
    small = prescribe(10_000, 100)  # beta = 1 - ln 100 / ln 10^4 = 0.5
    assert "-> small" in small.note and small.k_or_l == 1 and small.t == 0.5
    assert prescribe(10_000, 100, beta=0.25).k_or_l == 3
    with pytest.raises(ValueError, match="q and alpha"):
        prescribe(1000, 100, "dense", gamma=0.6)
    with pytest.raises(ValueError, match="gamma"):
        prescribe(1000, 100, "dense", q=0.5, alpha=0.1)
    with pytest.raises(ValueError, match="regime"):
        prescribe(1000, 100, "medium")


@pytest.mark.parametrize("graph_n", [0, 1])
def test_prescribe_refuses_to_derive_beta_on_a_graph_of_one_node(graph_n):
    # beta = 1 - log max(|R|, 2) / log N has no value below N = 2
    with pytest.raises(ValueError, match="deriving beta needs a graph of at least 2 nodes"):
        prescribe(graph_n, graph_n, "small")


def test_select_small_examples():
    assert select_params_small(0.6).k_or_l == 1
    assert select_params_small(0.25).k_or_l == 3
    assert select_params_small(0.99).k_or_l == 1
    cfg = select_params_small(0.6)
    assert cfg.t == 0.5 and cfg.s == 1
    assert "any hotspot" in cfg.note


def test_small_regime_feasibility_flag(caplog):
    assert select_params_small(0.6, rho=0.3, mu=0.2).note.endswith(
        "feasible(K*mu<=rho)=true")
    with caplog.at_level(logging.WARNING):
        assert select_params_small(0.6, rho=0.1, mu=0.2).note.endswith(
            "feasible(K*mu<=rho)=false")
    assert "K*mu <= rho violated (K=1, mu=0.2, rho=0.1)" in caplog.text
    assert select_params_small(0.6).note.endswith("feasible(K*mu<=rho)=unknown")
    assert select_params_small(0.6, rho=0.3).note.endswith("feasible(K*mu<=rho)=unknown")
    for beta in (0.0, 1.0):
        with pytest.raises(ValueError, match="beta must be in"):
            select_params_small(beta)


def test_small_regime_fires_on_single_hotspot():
    g = path_graph(4)
    cfg = select_params_small(0.6)
    verdict = classify(g, {1, 2}, cfg)
    assert verdict.hotspot_count == 1 and verdict.label == EPIDEMIC
