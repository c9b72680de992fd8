import logging
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot import calibration
from hotspot.calibration import (GammaEntry, GammaProfile, _gamma_view,
                                 boundary_set, error_bounds, estimate_gamma,
                                 gamma_analytic_tree, gamma_for_set,
                                 gamma_lower_bound, reporting_probabilities,
                                 solve_k)
from hotspot.graph import Graph, NearestTable, gen_erdos_renyi, gen_grid, gen_tree
from hotspot.scenario import ScenarioParams

from oracles import tree_level_offsets


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


# -- reporting probabilities -----------------------------------------------------

def test_reporting_probabilities_reference_values():
    probs = reporting_probabilities(q=0.4, alpha=0.25, f=1.0)
    assert probs.p == pytest.approx(0.2)
    assert probs.p_in == pytest.approx(0.4 + 0.6 * 0.1 / 0.9)  # ~0.46667


def test_reporting_probabilities_perfect_and_silent():
    perfect = reporting_probabilities(q=1.0, alpha=0.3, f=0.0)
    assert perfect.p_in == 1.0 and perfect.p == pytest.approx(0.3)
    silent = reporting_probabilities(q=0.0, alpha=0.3, f=5.0)
    assert silent.p_in == 0.0 and silent.p == 0.0


def test_reporting_probabilities_infeasible_triple():
    with pytest.raises(ValueError, match="matched null"):
        reporting_probabilities(q=0.9, alpha=0.9, f=10.0)
    with pytest.raises(ValueError):
        reporting_probabilities(q=0.5, alpha=1.0, f=0.0)


@given(st.floats(0.001, 1.0), st.floats(0.001, 0.999), st.floats(0.0, 100.0))
def test_infected_nodes_report_more_than_null(q, alpha, f):
    # p_in - p = q (1-alpha) (1-p) / (1 - q alpha): strictly positive below
    # the p = 1 feasibility boundary, where both scenarios have every node
    # reporting and the gap closes exactly
    p = (f + 1.0) * q * alpha
    if p > 1.0:
        return
    probs = reporting_probabilities(q, alpha, f)
    if p < 1.0:
        assert probs.p_in > probs.p
    else:
        assert probs.p_in == pytest.approx(probs.p)
    assert 0.0 <= probs.p <= 1.0 and 0.0 <= probs.p_in <= 1.0 + 1e-12


# -- boundary sets and interior fractions --------------------------------------------

def test_boundary_set_path_example():
    g = path_graph(5)
    infected = {1, 2, 3}
    assert boundary_set(g, infected, 2).tolist() == [1, 3]
    assert gamma_for_set(g, infected, [2]) == [pytest.approx(1 / 3)]


def test_boundary_empty_when_everything_infected():
    g = path_graph(6)
    assert boundary_set(g, set(range(6)), 3).size == 0
    assert gamma_for_set(g, set(range(6)), [1, 2, 3]) == [1.0, 1.0, 1.0]


def test_boundary_single_infected_node():
    g = path_graph(4)
    assert boundary_set(g, {2}, 1).tolist() == [2]
    isolated = Graph.from_edges(3, [(0, 1)])
    assert boundary_set(isolated, {2}, 1).size == 0  # no neighbor to see


def test_boundary_monotone_in_k():
    g = gen_grid(2, 8)
    rng = np.random.default_rng(0)
    infected = {int(v) for v in rng.choice(64, size=20, replace=False)}
    previous = set()
    for k in range(1, 8):
        current = set(boundary_set(g, infected, k).tolist())
        assert previous <= current
        assert current <= infected
        previous = current


def test_gamma_validation():
    g = path_graph(4)
    with pytest.raises(ValueError):
        boundary_set(g, set(), 1)
    with pytest.raises(ValueError):
        boundary_set(g, {1}, 0)
    with pytest.raises(ValueError):
        gamma_for_set(g, {1}, [0])
    with pytest.raises(ValueError, match="k values must be nonempty"):
        gamma_for_set(g, {1, 2}, [])


def test_tree_level_infection_matches_analytic_form():
    # contagion filling the top levels of a deep constant-degree tree:
    # gamma(d^l) approaches d^-l
    depth, degree, filled = 10, 3, 9
    g = gen_tree(degree, depth)
    offsets = tree_level_offsets(degree, depth)
    infected = set(range(offsets[filled + 1]))
    g3, g9 = gamma_for_set(g, infected, [3, 9])
    assert abs(g3 - gamma_analytic_tree(3)) / gamma_analytic_tree(3) < 0.2
    assert abs(g9 - gamma_analytic_tree(9)) / gamma_analytic_tree(9) < 0.2


# -- estimator -------------------------------------------------------------------------

def test_estimate_gamma_full_infection_is_one():
    g = gen_grid(2, 6)
    params = ScenarioParams(alpha=1.0, q=1.0, f=0.0)
    profile = estimate_gamma(g, params, [1, 2, 5], trials=3, rng_seed=0)
    assert [e.gamma for e in profile.entries] == [1.0, 1.0, 1.0]
    assert all(e.stderr == 0.0 for e in profile.entries)
    assert all(e.trials == 3 for e in profile.entries)


def test_estimate_gamma_deterministic_and_monotone():
    g = gen_grid(2, 15)
    params = ScenarioParams(alpha=0.3, q=1.0, f=0.0)
    a = estimate_gamma(g, params, [1, 2, 4, 8], trials=10, rng_seed=5)
    b = estimate_gamma(g, params, [1, 2, 4, 8], trials=10, rng_seed=5)
    assert [e.gamma for e in a.entries] == [e.gamma for e in b.entries]
    gammas = [e.gamma for e in a.entries]
    assert gammas == sorted(gammas, reverse=True)  # larger K, smaller interior
    assert all(e.stderr > 0 for e in a.entries)


def test_estimate_gamma_validation():
    g = gen_grid(2, 4)
    with pytest.raises(ValueError):
        estimate_gamma(g, ScenarioParams(alpha=0.5, q=1.0, f=0.0), [1], trials=0,
                       rng_seed=0)


@pytest.mark.parametrize("k_values, error", [
    ([], "k values must be nonempty"),
    ([2, 0], "k values must be >= 1"),
], ids=["empty", "zero"])
def test_estimate_gamma_checks_k_values_before_simulating(monkeypatch, k_values, error):
    def simulate_si(*args):
        raise AssertionError("simulated a contagion before checking the K values")

    monkeypatch.setattr(calibration, "simulate_si", simulate_si)
    with pytest.raises(ValueError, match=error):
        estimate_gamma(gen_grid(2, 4), ScenarioParams(alpha=0.5, q=1.0, f=0.0), k_values,
                       trials=2, rng_seed=0)


def test_gamma_view_builds_a_table_only_when_it_pays():
    # the calibrate_gamma benchmark's case: 50 trials of 13% of an ER giant
    # (about 6400 nodes), K = 1..9
    g = gen_erdos_renyi(8000, 2.0 / 8000, 1).largest_component()[0]
    centers = 50 * ScenarioParams(alpha=0.13, q=0.22, f=1.0).target_size(g.n)
    assert centers >= g.n
    table = _gamma_view(g, 9, centers)
    assert isinstance(table, NearestTable) and (table.n, table.k_max) == (g.n, 9)
    # fewer centers than nodes: scanning each center is cheaper
    assert _gamma_view(g, 9, g.n - 1) is g
    # criterion 07b: 20 trials of 10% of a 640x640 lattice at K <= 25 would
    # need 409,600 x 25 entries, so the view stays the graph, unscanned
    lattice = SimpleNamespace(n=640 * 640)
    assert _gamma_view(lattice, 25, 20 * math.ceil(0.1 * lattice.n)) is lattice


# -- closed forms ------------------------------------------------------------------------

def test_gamma_analytic_tree_values():
    assert gamma_analytic_tree(1) == 1.0
    assert gamma_analytic_tree(4) == 0.25
    with pytest.raises(ValueError):
        gamma_analytic_tree(0)


def test_gamma_lower_bound_values():
    assert gamma_lower_bound(1) == 1.0
    assert gamma_lower_bound(2021) == pytest.approx(1 / 2021)
    assert gamma_lower_bound(2022) == pytest.approx(4.9456e-4, rel=1e-3)
    with pytest.raises(ValueError):
        gamma_lower_bound(0)


# -- error bounds ---------------------------------------------------------------------------

def test_error_bounds_degenerate_when_not_separated():
    # gamma so small that P_in <= P
    bounds = error_bounds(gamma=1e-6, q=0.4, alpha=0.25, f=1.0, k=1,
                          n_reporting=1000)
    assert bounds.e1_bound == 1.0 and bounds.e2_bound == 1.0
    assert bounds.diagnostic is not None and "increase K" in bounds.diagnostic


def test_error_bounds_reference_value():
    # independent step-by-step evaluation with q=0.22, alpha=0.13, f=1, K=1
    bounds = error_bounds(gamma=0.6, q=0.22, alpha=0.13, f=1.0, k=1,
                          n_reporting=458)
    p = 2 * 0.22 * 0.13  # 0.0572
    p_in = 0.22 * (1 + 0.78 * 0.13 / (1 - 0.22 * 0.13))
    assert bounds.p_big == pytest.approx(p)
    assert bounds.p_in_big == pytest.approx(0.6 * p_in / 2, rel=1e-12)
    delta = 0.6 * p_in / 2 - p
    e1 = math.exp(-458 * delta ** 2 / (32 * (p + delta / 6)))
    e2 = math.exp(-458 * delta ** 2 / (32 * 0.6 * p_in / 2))
    assert bounds.e1_bound == pytest.approx(e1, rel=1e-12)
    assert bounds.e2_bound == pytest.approx(e2, rel=1e-12)
    assert 0 < bounds.e1_bound < 1 and 0 < bounds.e2_bound < 1


def test_error_bounds_exponent_linear_in_reporting_count():
    one = error_bounds(gamma=0.5, q=0.3, alpha=0.2, f=1.0, k=2, n_reporting=500)
    two = error_bounds(gamma=0.5, q=0.3, alpha=0.2, f=1.0, k=2, n_reporting=1000)
    assert two.e1_bound == pytest.approx(one.e1_bound ** 2, rel=1e-9)
    assert two.e2_bound == pytest.approx(one.e2_bound ** 2, rel=1e-9)
    assert two.e1_bound < one.e1_bound


def test_error_bounds_validation():
    with pytest.raises(ValueError):
        error_bounds(gamma=0.0, q=0.3, alpha=0.2, f=1.0, k=1, n_reporting=10)
    with pytest.raises(ValueError):
        error_bounds(gamma=0.5, q=0.3, alpha=0.2, f=1.0, k=0, n_reporting=10)


# -- K selection ------------------------------------------------------------------------------

def profile_from(gammas: dict[int, float]) -> GammaProfile:
    return GammaProfile(entries=[GammaEntry(k, g, 0.0, 1) for k, g in gammas.items()])


def test_solve_k_trivial_profile():
    assert solve_k(profile_from({1: 1.0, 2: 1.0}), f=1.0) == 1


def test_solve_k_tree_profile():
    tree = profile_from({k: 1.0 / k for k in range(1, 11)})
    assert solve_k(tree, f=1.0) == 1  # 1 >= ln 2
    assert solve_k(tree, f=150.0) == 7  # first K with K >= ln(151 K)


def test_solve_k_falls_back_to_largest(caplog):
    hopeless = profile_from({1: 1e-9, 2: 1e-9})
    with caplog.at_level(logging.WARNING):
        assert solve_k(hopeless, f=1000.0) == 2
    assert "largest profiled" in caplog.text


def test_solve_k_empty_profile():
    with pytest.raises(ValueError):
        solve_k(GammaProfile(entries=[]), f=1.0)


# -- CSV round trip ------------------------------------------------------------------------------

def test_gamma_profile_csv_round_trip(tmp_path):
    profile = GammaProfile(
        entries=[GammaEntry(1, 0.5, 0.01, 100), GammaEntry(3, 0.25, 0.02, 100),
                 GammaEntry(30, 0.0, 0.0, 100)],  # K beyond the infection: gamma 0
        topology="er8000")
    path = tmp_path / "gamma.csv"
    path.write_text(profile.to_csv_text())
    header = path.read_text().splitlines()[0]
    assert header == "K,gamma,stderr,trials,topology"
    back = GammaProfile.from_csv(path)
    assert back.topology == "er8000"
    assert [(e.k, e.gamma, e.stderr, e.trials) for e in back.entries] == \
        [(1, 0.5, 0.01, 100), (3, 0.25, 0.02, 100), (30, 0.0, 0.0, 100)]
    assert back.gamma(3) == 0.25
    with pytest.raises(KeyError):
        back.gamma(2)
