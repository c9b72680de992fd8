import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot.graph import Graph, gen_erdos_renyi, gen_grid
from hotspot.scenario import (EPIDEMIC, UNIFORM, EpidemicOutcome, ReportSnapshot, ScenarioParams,
                              _sample_outside, apply_reporting, generate_uniform_null,
                              make_epidemic_snapshot, pick_seeds, simulate_si)
from hotspot.seeds import derive_seed

from oracles import components_oracle, random_graph, sample_outside_oracle, simulate_si_oracle


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def complete_graph(n):
    return Graph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# -- parameters -----------------------------------------------------------------

def test_params_validation():
    with pytest.raises(ValueError):
        ScenarioParams(alpha=0.0, q=0.5, f=1.0)
    with pytest.raises(ValueError):
        ScenarioParams(alpha=0.5, q=1.5, f=1.0)
    with pytest.raises(ValueError):
        ScenarioParams(alpha=0.5, q=0.5, f=-1.0)
    params = ScenarioParams(alpha=0.01, q=0.5, f=1.0, num_seeds=5)
    with pytest.raises(ValueError, match="num_seeds"):
        params.validate_for(100)  # target 1 < 5 seeds


def test_target_size_rounds_up():
    assert ScenarioParams(alpha=0.06, q=1, f=0).target_size(33696) == 2022


# -- SI contagion ----------------------------------------------------------------

def test_si_target_equals_seeds():
    g = path_graph(5)
    out = simulate_si(g, [1, 3], 2, rng_seed=0)
    assert out.infected == [1, 3]
    assert out.seeds == [1, 3]
    assert not out.truncated


def test_si_full_graph():
    g = complete_graph(6)
    out = simulate_si(g, [0], 6, rng_seed=1)
    assert sorted(out.infected) == list(range(6))
    assert {v: r for r, v in enumerate(out.infected)}[0] == 0


def test_si_path_growth_is_contiguous():
    g = path_graph(5)
    for seed in range(100):
        out = simulate_si(g, [2], 3, rng_seed=seed)
        nodes = sorted(out.infected)
        assert nodes == list(range(nodes[0], nodes[-1] + 1))
        assert 2 in nodes and len(nodes) == 3


def test_si_every_nonseed_has_earlier_infected_neighbor():
    g = gen_erdos_renyi(300, 5 / 300, 3)
    comp = components_oracle(g)[0]  # node 0's component
    out = simulate_si(g, [comp[0]], min(80, len(comp)), rng_seed=9)
    order = {v: r for r, v in enumerate(out.infected)}
    for node in out.infected[len(out.seeds):]:
        assert any(order.get(w, math.inf) < order[node]
                   for w in g.neighbors(node).tolist())


def test_si_truncates_on_disconnected_graph():
    g = Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)])
    out = simulate_si(g, [0], 6, rng_seed=0)
    assert sorted(out.infected) == [0, 1, 2]
    assert out.truncated


def test_si_deterministic():
    g = gen_erdos_renyi(200, 4 / 200, 5)
    a = simulate_si(g, [0], 40, rng_seed=7)
    b = simulate_si(g, [0], 40, rng_seed=7)
    assert a.infected == b.infected


@pytest.mark.parametrize("g, seeds, target", [
    # ~16k clocks: the draw blocks reach their cap
    (gen_erdos_renyi(2000, 8 / 2000, 2), [0], 1900),
    (gen_grid(2, 30), [0, 450], 700),
    (Graph.from_edges(6, [(0, 1), (1, 2), (3, 4)]), [0], 6),  # truncated
    (path_graph(3), [1], 3),
    (gen_grid(2, 30), np.array([0, 450], dtype=np.int64), 700),  # numpy-int64 seeds
    (Graph.from_edges(4, [(1, 2), (2, 3)]), [0], 3),  # degree-0 seed: truncated at one node
], ids=["er", "grid", "truncated", "path3", "int64-seeds", "isolated-seed"])
def test_si_block_clocks_match_scalar_draws(g, seeds, target):
    for seed in range(5):
        want = simulate_si_oracle(g, seeds, target, seed)
        got = simulate_si(g, seeds, target, seed)
        assert (got.infected, got.truncated) == (want.infected, want.truncated)


@given(st.integers(0, 10_000), st.data())
def test_si_matches_scalar_draws_on_random_graphs(seed, data):
    rng = np.random.default_rng(seed)
    g = random_graph(int(rng.integers(1, 15)), float(rng.uniform(0.0, 0.5)), rng)
    seeds = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=min(3, g.n),
                               unique=True))
    target = data.draw(st.integers(len(seeds), g.n))
    want = simulate_si_oracle(g, seeds, target, seed)
    got = simulate_si(g, seeds, target, seed)
    assert (got.infected, got.truncated) == (want.infected, want.truncated)


def test_si_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        simulate_si(g, [], 1, 0)
    for bad in (-1, g.n):  # -1 would mark node n-1 if it reached the mask
        with pytest.raises(ValueError, match="out of range"):
            simulate_si(g, [0, bad], 2, 0)
    with pytest.raises(ValueError):
        simulate_si(g, [0, 0], 2, 0)
    with pytest.raises(ValueError):
        simulate_si(g, [0, 1], 1, 0)


def test_si_exchangeable_last_node_on_k4():
    # symmetry of the exponential clocks: each non-seed node is the one
    # left uninfected with frequency 1/3
    g = complete_graph(4)
    runs = 3000
    missing = np.zeros(4)
    for seed in range(runs):
        out = simulate_si(g, [0], 3, rng_seed=seed)
        missing[({0, 1, 2, 3} - set(out.infected)).pop()] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / runs)
    for node in (1, 2, 3):
        assert abs(missing[node] / runs - 1 / 3) < 3 * sigma


# -- reporting overlay -------------------------------------------------------------

def outcome_on(g, infected):
    return simulate_si(g, infected, len(infected), rng_seed=0)


def test_reporting_q_zero_empty():
    g = path_graph(6)
    out = outcome_on(g, [1, 2, 3])
    snap, _ = apply_reporting(out, g, q=0.0, f=5.0, rng_seed=0)
    assert snap.reporting.tolist() == []
    assert snap.truth == EPIDEMIC


def test_reporting_f_zero_true_reporters_only():
    g = path_graph(6)
    out = outcome_on(g, [1, 2, 3])
    snap, true_reporters = apply_reporting(out, g, q=1.0, f=0.0, rng_seed=0)
    assert snap.reporting.tolist() == [1, 2, 3] == true_reporters.tolist()


def test_reporting_exact_extra_count():
    # two true reporters at f=1 bring exactly two extras
    g = path_graph(10)
    out = outcome_on(g, [4, 5])
    snap, true_reporters = apply_reporting(out, g, q=1.0, f=1.0, rng_seed=3)
    assert true_reporters.tolist() == [4, 5]
    extras = set(snap.reporting.tolist()) - set(true_reporters.tolist())
    assert len(extras) == 2
    assert extras.isdisjoint({4, 5})


def test_reporting_rounds_half_to_even():
    g = path_graph(40)
    out = outcome_on(g, [0, 1, 2, 3, 4])
    snap, true_reporters = apply_reporting(out, g, q=1.0, f=0.5, rng_seed=1)  # 2.5 -> 2
    assert len(set(snap.reporting.tolist()) - set(true_reporters.tolist())) == 2
    snap2, true_reporters2 = apply_reporting(out, g, q=1.0, f=0.7, rng_seed=1)  # 3.5 -> 4
    assert len(set(snap2.reporting.tolist()) - set(true_reporters2.tolist())) == 4


def test_reporting_clamps_to_pool(caplog):
    g = path_graph(5)
    out = outcome_on(g, [0, 1])
    with caplog.at_level("WARNING"):
        snap, _ = apply_reporting(out, g, q=1.0, f=10.0, rng_seed=0)
    assert snap.reporting.tolist() == [0, 1, 2, 3, 4]
    assert "clamping" in caplog.text


def test_reporting_mean_true_reporter_count():
    g = path_graph(400)
    out = outcome_on(g, list(range(100)))
    q, runs = 0.3, 400
    sizes = [len(apply_reporting(out, g, q, 0.0, seed)[1])
             for seed in range(runs)]
    sigma_mean = math.sqrt(100 * q * (1 - q) / runs)
    assert abs(np.mean(sizes) - 30.0) < 3 * sigma_mean


def test_reporting_validation():
    g = path_graph(4)
    out = outcome_on(g, [1])
    with pytest.raises(ValueError):
        apply_reporting(out, g, q=1.2, f=0.0, rng_seed=0)
    with pytest.raises(ValueError):
        apply_reporting(out, g, q=0.5, f=-0.1, rng_seed=0)


# -- uniform null -------------------------------------------------------------------

def test_null_extremes():
    g = path_graph(30)
    assert generate_uniform_null(g, 0.0, 0).reporting.tolist() == []
    full = generate_uniform_null(g, 1.0, 0)
    assert full.reporting.tolist() == list(range(30))
    assert full.truth == UNIFORM
    # a snapshot carries no ground truth beyond its label
    assert [fld.name for fld in dataclasses.fields(full)] == ["n", "reporting", "truth"]


def test_null_binomial_concentration():
    n, p = 8000, 0.2
    g = Graph.from_edges(n, [(0, 1)])
    sigma = math.sqrt(n * p * (1 - p))
    counts = [len(generate_uniform_null(g, p, seed).reporting) for seed in range(30)]
    assert all(abs(c - 1600) < 4 * sigma for c in counts)
    assert abs(np.mean(counts) - 1600) < 3 * sigma / math.sqrt(30)


def test_null_epidemic_expected_count_matching():
    # E|reporting| under the contagion equals n*p under the matched null
    g = complete_graph(40)
    params = ScenarioParams(alpha=0.5, q=0.4, f=1.0)
    runs = 300
    sizes = []
    for seed in range(runs):
        snap, _ = make_epidemic_snapshot(g, params, seed)
        sizes.append(len(snap.reporting))
    expected = (params.f + 1) * params.q * 20  # (f+1) * q * |S|
    assert abs(np.mean(sizes) - expected) < 3 * np.std(sizes) / math.sqrt(runs)


# -- seeds ------------------------------------------------------------------------

def test_pick_seeds():
    g = path_graph(1000)
    assert len(pick_seeds(g, 1, 0)) == 1
    many = pick_seeds(g, 200, 1)
    assert len(set(many)) == 200
    assert pick_seeds(g, 1000, 2) == list(range(1000))
    assert pick_seeds(g, 5, 9) == pick_seeds(g, 5, 9)
    with pytest.raises(ValueError):
        pick_seeds(g, 0, 0)
    with pytest.raises(ValueError):
        pick_seeds(g, 1001, 0)


# -- snapshot serialization ----------------------------------------------------------

def test_snapshot_round_trip(tmp_path):
    snap = ReportSnapshot(n=50, reporting={3, 1, 41}, truth=EPIDEMIC)
    text = snap.to_text()
    assert text.splitlines()[0] == "truth=epidemic n=50"
    assert text.splitlines()[1:] == ["1", "3", "41"]
    back = ReportSnapshot.from_text(text)
    assert back.n == 50 and back.reporting.tolist() == [1, 3, 41] and back.truth == EPIDEMIC
    path = tmp_path / "snap.txt"
    snap.save(path)
    assert ReportSnapshot.load(path).reporting.tolist() == snap.reporting.tolist()


def test_snapshot_rejects_malformed():
    with pytest.raises(ValueError):
        ReportSnapshot.from_text("1\n2\n")
    with pytest.raises(ValueError):
        ReportSnapshot.from_text("truth=epidemic n=10\nxyz\n")
    with pytest.raises(ValueError):
        ReportSnapshot.from_text("truth=epidemic n=10\n12\n")
    with pytest.raises(ValueError, match="out of range"):  # ids stop at int64
        ReportSnapshot.from_text(f"truth=uniform n={2 ** 70}\n{2 ** 64}\n")


@pytest.mark.parametrize("n, reporting, bad", [
    (3, [5, -1], -1), (3, [0, 3], 3), (0, [0], 0), (10, np.array([9, 10, 2]), 10),
])
def test_snapshot_refuses_ids_outside_its_graph(n, reporting, bad):
    # such a snapshot used to build, and its to_text wrote a file that
    # from_text refused
    with pytest.raises(ValueError, match=f"^reporting node {bad} out of range for n={n}$"):
        ReportSnapshot(n=n, reporting=reporting, truth=EPIDEMIC)
    assert ReportSnapshot(n=n, reporting=[], truth=UNIFORM).reporting.size == 0


def test_reporting_refuses_an_outcome_outside_the_graph():
    g = path_graph(3)
    outcome = EpidemicOutcome(seeds=[0], infected=[0, 7])
    with pytest.raises(ValueError, match="reporting node 7 out of range for n=3"):
        apply_reporting(outcome, g, q=1.0, f=0.0, rng_seed=0)


@pytest.mark.parametrize("node", ["\u00b2", "\u0661"])  # superscript two, Arabic-Indic one
def test_snapshot_ids_are_ascii_digits(node):
    with pytest.raises(ValueError, match=f"^malformed snapshot line: '{node}'$"):
        ReportSnapshot.from_text(f"truth=epidemic n=10\n1\n{node}\n")


def test_snapshot_reporting_is_a_sorted_read_only_array():
    ids = np.array([7, 2, 7, 5])
    snap = ReportSnapshot(n=10, reporting=ids, truth=UNIFORM)
    assert snap.reporting.dtype == np.int64 and snap.reporting.tolist() == [2, 5, 7]
    assert not snap.reporting.flags.writeable and ids.flags.writeable
    with pytest.raises(ValueError):
        snap.reporting[0] = 3
    assert ReportSnapshot(n=10, reporting={5, 2}, truth=UNIFORM).reporting.tolist() == [2, 5]
    assert snap != ReportSnapshot(n=10, reporting=ids, truth=UNIFORM)  # identity, no raise
    ascending = np.array([2, 5, 7])
    snap = ReportSnapshot(n=10, reporting=ascending, truth=UNIFORM)
    assert not snap.reporting.flags.writeable and ascending.flags.writeable


@pytest.mark.parametrize("n, count, n_excluded", [
    (5000, 300, 400), (5000, 4600, 400),            # pool: small n
    (150_000, 70_000, 20_000),                       # pool: count above half
    (150_000, 40, 300), (200_001, 50_000, 100_000),  # rejection: one round, several
])
def test_sample_outside_matches_set_reference(n, count, n_excluded):
    for seed in range(3):
        rng = np.random.default_rng([seed, n])
        excluded = np.sort(rng.choice(n, n_excluded, replace=False))
        want_rng = np.random.default_rng(seed)
        want = sample_outside_oracle(n, count, set(excluded.tolist()), want_rng)
        got_rng = np.random.default_rng(seed)
        got = _sample_outside(n, count, excluded, got_rng)
        assert np.sort(got).tolist() == want
        assert got_rng.random() == want_rng.random()  # same number of draws


def test_make_epidemic_snapshot_ground_truth_consistency():
    g = gen_grid(2, 12)
    params = ScenarioParams(alpha=0.3, q=0.5, f=0.5, num_seeds=2)
    snap, outcome = make_epidemic_snapshot(g, params, 4)
    again, true_reporters = apply_reporting(outcome, g, params.q, params.f,
                                            derive_seed(4, "report"))
    true_reporters = set(true_reporters.tolist())
    assert true_reporters <= set(outcome.infected)
    assert true_reporters <= set(snap.reporting.tolist())
    assert again.reporting.tolist() == snap.reporting.tolist()
    assert len(outcome.infected) == params.target_size(g.n)
    assert len(outcome.seeds) == 2
