import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hotspot
from hotspot.detector import DetectorConfig
from hotspot.graph import Graph, gen_erdos_renyi
from hotspot.harness import (SWEEP_CSV_HEADER, DistanceNoise, ExperimentSpec,
                             NoisyView, ScenarioRule, TopologySpec,
                             describe_defaults, read_config, run_sweep,
                             run_trial, spec_from_mapping, threshold_sweep)
from hotspot.scenario import EPIDEMIC, UNIFORM

from oracles import noisy_ranking_oracle, random_graph


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def small_spec(**overrides):
    base = dict(
        topology=TopologySpec(kind="er", n=300, p=4 / 300, giant=True),
        scenario=ScenarioRule(alpha=0.2, q=0.6, f=0.5),
        detector=DetectorConfig.ball_mode(l=2, s=1, t=25),
        sweep_name="q", sweep_values=(0.6,),
        trials_per_point=10, master_seed=7)
    base.update(overrides)
    return ExperimentSpec(**base)


# -- scenario rules ---------------------------------------------------------------

def test_scenario_rule_constants_and_exponents():
    rule = ScenarioRule(alpha=0.1, q=0.5, f=2.0)
    params = rule.for_n(1000)
    assert (params.alpha, params.q, params.f) == (0.1, 0.5, 2.0)
    scaling = ScenarioRule(alpha=1.0, q=1.0, f=1.0,
                           alpha_exp=-0.7, q_exp=-0.2, f_exp=0.3)
    params = scaling.for_n(8000)
    assert params.alpha * 8000 == pytest.approx(8000 ** 0.3)
    assert params.q == pytest.approx(8000 ** -0.2)
    assert params.f == pytest.approx(8000 ** 0.3)
    assert scaling.for_n(10).q <= 1.0  # capped


# -- single trials ------------------------------------------------------------------

def test_run_trial_deterministic():
    spec = small_spec()
    a, truth_a = run_trial(spec, 0.6, EPIDEMIC, 3)
    b, truth_b = run_trial(spec, 0.6, EPIDEMIC, 3)
    assert truth_a == truth_b == EPIDEMIC
    assert a.hotspot_count == b.hotspot_count and a.label == b.label
    c, _ = run_trial(spec, 0.6, EPIDEMIC, 4)
    assert (c.hotspot_count, c.label) != (a.hotspot_count, a.label) or True


def test_run_trial_perfect_reporting_always_epidemic():
    # q=1, f=0, a third of the giant component infected: some adjacent
    # infected pair always exists, so the K=1 count is positive
    spec = small_spec(
        scenario=ScenarioRule(alpha=0.3, q=1.0, f=0.0),
        detector=DetectorConfig.nn(k=1, t=0))
    for trial in range(100):
        verdict, _ = run_trial(spec, 0.6, EPIDEMIC, trial)
        assert verdict.hotspot_count > 0
        assert verdict.label == EPIDEMIC


def test_run_trial_silent_scenario_is_uniform():
    spec = small_spec(scenario=ScenarioRule(alpha=0.2, q=0.0, f=0.0),
                      detector=DetectorConfig.nn(k=1, t=0))
    verdict, truth = run_trial(spec, 0.6, UNIFORM, 0)
    assert truth == UNIFORM
    assert verdict.hotspot_count == 0 and verdict.label == UNIFORM


def test_run_trial_rejects_unknown_label():
    with pytest.raises(ValueError):
        run_trial(small_spec(), 0.6, "martian", 0)


# -- sweeps ----------------------------------------------------------------------------

def test_run_sweep_degenerate_detector():
    # t = -1 fires on every snapshot: type1 = 1, type2 = 0, mean = 0.5
    spec = small_spec(detector=DetectorConfig.nn(k=1, t=-1.0),
                      trials_per_point=1)
    result = run_sweep(spec)
    row = result.rows[0]
    assert row.type1 == 1.0 and row.type2 == 0.0 and row.mean_error == 0.5


def test_sweep_csv_shape_and_determinism():
    spec = small_spec(sweep_values=(0.4, 0.6), trials_per_point=5)
    text = run_sweep(spec).to_csv_text()
    lines = text.strip().splitlines()
    assert lines[0] == SWEEP_CSV_HEADER
    assert len(lines) == 3
    assert text == run_sweep(spec).to_csv_text()  # byte-identical rerun


def test_sweep_variable_resolution():
    spec = small_spec(sweep_name="num_seeds", sweep_values=(1, 3),
                      trials_per_point=2)
    result = run_sweep(spec)
    assert [row.sweep_value for row in result.rows] == [1, 3]
    spec_n = small_spec(sweep_name="n", sweep_values=(100, 200), trials_per_point=2)
    run_sweep(spec_n)
    with pytest.raises(ValueError):
        run_trial(small_spec(sweep_name="volume"), 1, EPIDEMIC, 0)
    with pytest.raises(ValueError):
        run_trial(small_spec(detector="auto", sweep_name="t"), 1, EPIDEMIC, 0)


def test_error_accounting_rates_are_trial_fractions():
    spec = small_spec(trials_per_point=8)
    row = run_sweep(spec).rows[0]
    assert (row.type1 * 8) == int(row.type1 * 8)
    assert (row.type2 * 8) == int(row.type2 * 8)
    assert row.mean_error == pytest.approx((row.type1 + row.type2) / 2)


def test_auto_detector_runs():
    spec = small_spec(detector="auto", trials_per_point=2,
                      scenario=ScenarioRule(alpha=0.2, q=0.6, f=0.5))
    result = run_sweep(spec)
    assert result.rows[0].trials == 2


_AUTO_TRIALS = """
from hotspot.harness import ExperimentSpec, ScenarioRule, TopologySpec, run_trial
spec = ExperimentSpec(topology=TopologySpec(kind="er", n=400, giant=True),
                      scenario=ScenarioRule(alpha=0.2, q=0.6, f=0.5), detector="auto",
                      sweep_name="q", sweep_values=(0.6,), master_seed=7)
for label, trial in {runs!r}:
    verdict, _ = run_trial(spec, 0.6, label, trial)
print(verdict.hotspot_count, repr(verdict.threshold), verdict.k_or_l, verdict.note)
"""


def test_auto_trial_does_not_depend_on_earlier_trials():
    # each run starts a fresh interpreter, so "alone" really is alone
    src = os.path.dirname(os.path.dirname(hotspot.__file__))
    env = {**os.environ, "PYTHONPATH": src}

    def last_verdict(runs):
        done = subprocess.run([sys.executable, "-c", _AUTO_TRIALS.format(runs=runs)],
                              env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        return done.stdout

    alone = last_verdict([(UNIFORM, 3)])
    assert "dense" in alone  # the calibrated branch ran
    assert last_verdict([(EPIDEMIC, 0), (UNIFORM, 1), (UNIFORM, 3)]) == alone


def test_sweep_point_with_no_completed_trials_raises():
    # (f+1)*q*alpha = 1.25 > 1: every trial fails; the row must not read as
    # a perfect detector
    spec = small_spec(scenario=ScenarioRule(alpha=0.5, q=1.0, f=1.5),
                      sweep_values=(1.0,), trials_per_point=2)
    with pytest.raises(ValueError, match="all 2 epidemic trials failed at q=1.0"):
        run_sweep(spec)
    with pytest.raises(ValueError, match="trials failed"):
        threshold_sweep(spec, [0.0])


# -- threshold sweep ---------------------------------------------------------------------

def test_threshold_sweep_extremes_and_reuse():
    spec = small_spec(trials_per_point=6)
    result = threshold_sweep(spec, [-1.0, 1e9])
    low, high = result.rows
    assert low.type1 == 1.0 and low.type2 == 0.0
    assert high.type1 == 0.0 and high.type2 == 1.0
    # count summaries are shared across thresholds (same snapshots)
    assert low.mean_hotspots_epi == high.mean_hotspots_epi
    assert low.mean_hotspots_null == high.mean_hotspots_null


def test_threshold_sweep_matches_fixed_t_run_sweep():
    spec = small_spec(trials_per_point=6)
    swept = threshold_sweep(spec, [10.0, 30.0])
    for row in swept.rows:
        fixed = run_sweep(replace(spec, detector=spec.detector.with_threshold(
            float(row.sweep_value))))
        assert fixed.rows[0].type1 == row.type1
        assert fixed.rows[0].type2 == row.type2


def test_threshold_sweep_validation():
    with pytest.raises(ValueError, match="one sweep point"):
        threshold_sweep(small_spec(sweep_values=(0.4, 0.6)), [1.0])
    with pytest.raises(ValueError):
        threshold_sweep(small_spec(), [])


def test_threshold_sweep_mean_error_has_interior_minimum():
    # with separated count distributions the mean error is U-shaped in t:
    # saturated at 0.5 on both flanks, strictly lower in between
    spec = ExperimentSpec(
        topology=TopologySpec(kind="er", n=2000, p=2 / 2000, giant=True),
        scenario=ScenarioRule(alpha=0.13, q=0.22, f=1.0),
        detector=DetectorConfig.ball_mode(l=3, s=2, t=0.0),
        sweep_name="q", sweep_values=(0.22,),
        trials_per_point=60, master_seed=17)
    t_values = [-1.0, 5.0, 15.0, 25.0, 35.0, 50.0, 1e9]
    rows = threshold_sweep(spec, t_values).rows
    errors = [row.mean_error for row in rows]
    assert errors[0] == 0.5 and errors[-1] == 0.5  # flanks saturate
    best = min(range(len(errors)), key=errors.__getitem__)
    assert 0 < best < len(errors) - 1
    assert errors[best] < 0.5


# -- noisy distance view --------------------------------------------------------------------

def test_noisy_view_zero_flip_matches_exact_queries():
    g = gen_erdos_renyi(200, 4 / 200, 3)
    view = NoisyView(g, DistanceNoise(flip_prob=0.0, magnitude=2), seed=9)
    for node in range(0, 200, 17):
        for k in (1, 3, 6):
            assert view.nn_members(node, k) == g.nn_members(node, k)
        for l in (1, 2, 3):
            assert view.ball_members(node, l) == g.ball_members(node, l)


def test_noisy_view_is_deterministic_per_seed():
    g = path_graph(30)
    noise = DistanceNoise(flip_prob=0.5, magnitude=1)
    a = NoisyView(g, noise, seed=4)
    b = NoisyView(g, noise, seed=4)
    c = NoisyView(g, noise, seed=5)
    balls_a = [a.ball_members(i, 3) for i in range(30)]
    assert balls_a == [b.ball_members(i, 3) for i in range(30)]
    assert balls_a != [c.ball_members(i, 3) for i in range(30)]
    # re-querying the same pair never re-rolls
    assert a.ball_members(7, 3) == a.ball_members(7, 3)


def test_noisy_view_asymmetric_misperception():
    g = path_graph(40)
    view = NoisyView(g, DistanceNoise(flip_prob=0.5, magnitude=1), seed=2)
    asymmetric = 0
    for i in range(40):
        for j in range(40):
            d = abs(i - j)
            if d <= 1:
                continue
            if (view._perceived(i, j, d) != d) != (view._perceived(j, i, d) != d):
                asymmetric += 1
    assert asymmetric > 0


@pytest.mark.parametrize("seed", [0, 9, -5, -(2**63), 2**64 + 3, 2**70 + 12345])
def test_noisy_view_pair_rule_is_the_same_for_arrays(seed):
    # negative and wider-than-64-bit seeds act through their low 64 bits
    view = NoisyView(path_graph(2), DistanceNoise(flip_prob=0.5, magnitude=2), seed=seed)
    observers, targets = (a.ravel() for a in np.meshgrid(np.arange(60), np.arange(60)))
    for d in (1, 2, 3, 4, 9):
        assert view._perceive(observers, targets, d).tolist() == [
            view._perceived(o, t, d) for o, t in zip(observers.tolist(), targets.tolist())]


def test_noisy_view_saturated_noise_changes_neighborhoods():
    g = path_graph(40)
    view = NoisyView(g, DistanceNoise(flip_prob=1.0, magnitude=2), seed=0)
    # every distance > 2 is shifted by +-2; some node's nn set must differ
    changed = any(view.nn_members(i, 6) != g.nn_members(i, 6) for i in range(40))
    assert changed
    # membership beyond perceived radius l is impossible: perceived >= d - 2
    for i in range(0, 40, 7):
        members = view.ball_members(i, 3)
        assert all(abs(i - v) <= 5 for v in members)


@pytest.mark.parametrize("flip_prob", [0.2, 1.0])
@pytest.mark.parametrize("magnitude", [1, 2])
def test_noisy_view_matches_full_sort_oracle(flip_prob, magnitude):
    # ER graph with isolated nodes and small pieces besides the giant
    g = gen_erdos_renyi(150, 2.5 / 150, 5)
    view = NoisyView(g, DistanceNoise(flip_prob=flip_prob, magnitude=magnitude), seed=11)
    for i in range(0, g.n, 3):
        ranking = noisy_ranking_oracle(g, i, 11, flip_prob, magnitude)
        for k in (1, 2, 5, 9, 40):
            assert view.nn_members(i, k) == [v for _, v in ranking[:k]]
        for l in (0, 1, 2, 4):
            assert view.ball_members(i, l) == [v for d, v in ranking if d <= l]


@given(st.integers(4, 30), st.floats(0.05, 0.5), st.integers(0, 2**32),
       st.sampled_from([0.2, 1.0]), st.sampled_from([1, 2]), st.integers(1, 12))
def test_noisy_view_property_matches_oracle(n, edge_prob, seed, flip_prob, magnitude, size):
    g = random_graph(n, edge_prob, np.random.default_rng(seed))
    view = NoisyView(g, DistanceNoise(flip_prob=flip_prob, magnitude=magnitude), seed=seed)
    for i in range(n):
        ranking = noisy_ranking_oracle(g, i, seed, flip_prob, magnitude)
        assert view.nn_members(i, size) == [v for _, v in ranking[:size]]
        assert view.ball_members(i, size % 5) == [v for d, v in ranking if d <= size % 5]


def test_noise_validation():
    with pytest.raises(ValueError):
        DistanceNoise(flip_prob=1.5)
    with pytest.raises(ValueError):
        DistanceNoise(flip_prob=0.5, magnitude=0)


def test_noise_sweep_resolution():
    spec = small_spec(sweep_name="flip_prob", sweep_values=(0.0, 0.3),
                      noise=DistanceNoise(flip_prob=0.0, magnitude=1),
                      trials_per_point=2)
    result = run_sweep(spec)
    assert len(result.rows) == 2


# -- spec construction -------------------------------------------------------------------------

def test_spec_validation():
    with pytest.raises(ValueError):
        small_spec(trials_per_point=0)
    with pytest.raises(ValueError):
        small_spec(sweep_values=())
    with pytest.raises(ValueError):
        small_spec(detector="magic")


def test_spec_from_mapping_and_config_file(tmp_path):
    text = """# comment
topology=er
n=400
giant=true
alpha=0.2
q=0.5
f=1
detector=ball
l=3
s=2
t=12.5
sweep=q
values=0.3,0.5
trials=4
seed=11
noise_prob=0.1
noise_d=2
"""
    path = tmp_path / "exp.cfg"
    path.write_text(text)
    spec = read_config(path)
    assert spec.topology.kind == "er" and spec.topology.giant
    assert spec.detector.mode == "ball" and spec.detector.t == 12.5
    assert spec.sweep_values == (0.3, 0.5)
    assert spec.noise == DistanceNoise(flip_prob=0.1, magnitude=2)
    assert spec.master_seed == 11 and spec.trials_per_point == 4
    direct = spec_from_mapping({"topology": "grid", "side": "5", "detector": "nn",
                                "k": "2", "sweep": "alpha", "values": "0.1"})
    assert direct.topology.kind == "grid" and direct.detector.k_or_l == 2
    bad = tmp_path / "bad.cfg"
    bad.write_text("topology er\n")
    with pytest.raises(ValueError, match="line 1"):
        read_config(bad)


def test_describe_defaults_lists_decisions():
    text = describe_defaults()
    for token in ("natural", "ascending node id", "round-half-even",
                  "0.5", "strict", "exit codes"):
        assert token in text
