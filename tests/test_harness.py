import os
import subprocess
import sys
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import hotspot
from hotspot import calibration, graph, harness
from hotspot.detector import DetectorConfig
from hotspot.graph import Graph, gen_erdos_renyi, load_edge_list, save_edge_list
from hotspot.harness import (SWEEP_CSV_HEADER, DistanceNoise, ExperimentSpec,
                             NoisyView, ScenarioRule, TopologySpec,
                             describe_defaults, read_mapping, run_sweep,
                             run_trial, spec_from_mapping, threshold_sweep)
from hotspot.scenario import EPIDEMIC, UNIFORM

from oracles import (ball_oracle, largest_component_oracle, nn_oracle, noisy_ranking_oracle,
                     perceived_oracle, random_graph)


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
from hotspot import harness
from hotspot.harness import ExperimentSpec, ScenarioRule, TopologySpec, run_trial
configs, prescribe = [], harness.prescribe  # the prescribed configs, their notes naming the branch
harness.prescribe = lambda *args, **kw: configs.append(prescribe(*args, **kw)) or configs[-1]
spec = ExperimentSpec(topology=TopologySpec(kind="er", n=400, giant=True),
                      scenario=ScenarioRule(alpha=0.2, q=0.6, f=0.5), detector="auto",
                      sweep_name="q", sweep_values=(0.6,), master_seed=7)
for label, trial in {runs!r}:
    verdict, _ = run_trial(spec, 0.6, label, trial)
print(verdict.hotspot_count, repr(verdict.threshold), verdict.k_or_l, configs[-1].note)
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
    with pytest.raises(ValueError, match="epidemic trial 0 at q=1"):
        run_sweep(spec)
    with pytest.raises(ValueError, match="epidemic trial 0 at q=1"):
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
        fixed = run_sweep(replace(spec, detector=replace(spec.detector,
                                                         t=float(row.sweep_value))))
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
            assert view.nn_members(node, k) == nn_oracle(g, node, k)
        for l in (1, 2, 3):
            assert view.ball_members(node, l) == ball_oracle(g, node, l)


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
    view = NoisyView(path_graph(40), DistanceNoise(flip_prob=0.5, magnitude=1), seed=2)
    asymmetric = 0
    for d in range(2, 40):
        near, far, pair = np.arange(40 - d), np.arange(d, 40), np.arange(40 - d)
        there = view._perceive(view._observers(near), pair, far, d)
        back = view._perceive(view._observers(far), pair, near, d)
        assert there.tolist() == [perceived_oracle(2, 0.5, 1, o, t, d)
                                  for o, t in zip(near.tolist(), far.tolist())]
        assert back.tolist() == [perceived_oracle(2, 0.5, 1, o, t, d)
                                 for o, t in zip(far.tolist(), near.tolist())]
        asymmetric += int(np.count_nonzero((there != d) != (back != d)))
    assert asymmetric > 0


@pytest.mark.parametrize("seed", [0, 9, -5, -(2**63), 2**64 + 3, 2**70 + 12345])
def test_noisy_view_pair_rule_is_the_same_for_arrays(seed):
    # negative and wider-than-64-bit seeds act through their low 64 bits;
    # each observer is hashed once and gathered per pair, in any owner order
    view = NoisyView(path_graph(2), DistanceNoise(flip_prob=0.5, magnitude=2), seed=seed)
    centers = np.array([0, 3, 7, 12, 40, 59])
    owner, targets = (a.ravel() for a in np.meshgrid(np.arange(centers.size), np.arange(60)))
    owner = owner[::-1].copy()
    observers = centers[owner].tolist()
    for d in (1, 2, 3, 4, 9):
        assert view._perceive(view._observers(centers), owner, targets, d).tolist() == [
            perceived_oracle(seed, 0.5, 2, o, t, d) for o, t in zip(observers, targets.tolist())]


def test_noisy_view_saturated_noise_changes_neighborhoods():
    g = path_graph(40)
    view = NoisyView(g, DistanceNoise(flip_prob=1.0, magnitude=2), seed=0)
    # every distance > 2 is shifted by +-2; some node's nn set must differ
    changed = any(view.nn_members(i, 6) != nn_oracle(g, i, 6) for i in range(40))
    assert changed
    # membership beyond perceived radius l is impossible: perceived >= d - 2
    for i in range(0, 40, 7):
        members = view.ball_members(i, 3)
        assert all(abs(i - v) <= 5 for v in members)


@pytest.mark.parametrize("flip_prob", [0.2, 1.0])
@pytest.mark.parametrize("magnitude", [1, 2, 3])
def test_noisy_view_matches_full_sort_oracle(monkeypatch, flip_prob, magnitude):
    # ER graph with isolated nodes and small pieces besides the giant; with
    # every far pair shifted by 3, nn centers settle at many different depths
    g = gen_erdos_renyi(150, 2.5 / 150, 5)
    view = NoisyView(g, DistanceNoise(flip_prob=flip_prob, magnitude=magnitude), seed=11)
    centers = np.arange(0, g.n, 3)
    rankings = [noisy_ranking_oracle(g, i, 11, flip_prob, magnitude) for i in centers.tolist()]
    for pairs in (1, 2**40):
        for block in (1, 3, 512):
            monkeypatch.setattr(graph, "_PAIRS", pairs)
            monkeypatch.setattr(Graph, "_first_batch", lambda self: block)
            for k in (1, 2, 5, 9, 40):
                owner, member, rank = view.neighborhoods(centers, k, "nn")
                counts = [min(k, len(ranking)) for ranking in rankings]
                assert owner.tolist() == [c for c, m in enumerate(counts) for _ in range(m)]
                assert rank.tolist() == [r for m in counts for r in range(m)]
                assert member.tolist() == [v for ranking in rankings for _, v in ranking[:k]]
            for l in (0, 1, 2, 4):
                assert view.neighborhoods(centers, l, "ball")[1].tolist() == [
                    v for ranking in rankings for d, v in ranking if d <= l]


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
    assert DistanceNoise(flip_prob=0.5, magnitude=np.int64(2)).magnitude == 2


@pytest.mark.parametrize("magnitude", [1.5, 2.0, float("nan")])
def test_noise_rejects_a_non_integer_magnitude(magnitude):
    # the kernel's int64 arithmetic cannot take a float magnitude
    with pytest.raises(ValueError, match=f"magnitude must be an integer, got {magnitude!r}"):
        DistanceNoise(flip_prob=0.5, magnitude=magnitude)


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
    spec = spec_from_mapping(read_mapping(path))
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
        spec_from_mapping(read_mapping(bad))


def test_noise_d_alone_sets_the_noise_magnitude():
    # noise_d without noise_prob used to be dropped: a flip_prob sweep ran at magnitude 1
    raw = {"topology": "grid", "side": "5", "sweep": "flip_prob", "values": "0.3"}
    assert spec_from_mapping(raw).noise is None
    spec = spec_from_mapping({**raw, "noise_d": "3"})
    assert spec.noise == DistanceNoise(flip_prob=0.0, magnitude=3)
    with pytest.raises(ValueError, match="^magnitude must be >= 1$"):
        spec_from_mapping({**raw, "noise_d": "0"})


def test_a_noise_d_sweep_without_base_noise_is_refused():
    # no trial read the swept magnitude of a zero-probability DistanceNoise():
    # the rows differed only through their seed tokens
    with pytest.raises(ValueError, match="^noise_d needs noise_prob or a flip_prob sweep$"):
        small_spec(sweep_name="noise_d", sweep_values=(1, 5))
    with pytest.raises(ValueError, match="^noise_d needs noise_prob or a flip_prob sweep$"):
        spec_from_mapping({"topology": "grid", "side": "5", "sweep": "noise_d"})
    spec = small_spec(sweep_name="noise_d", sweep_values=(1, 5), trials_per_point=2,
                      noise=DistanceNoise(flip_prob=0.3))
    assert [row.sweep_value for row in run_sweep(spec).rows] == [1, 5]


@pytest.mark.parametrize("raw, key", [
    ({"n": "100", "trails": "50"}, "trails"),
    ({"n": "100", "giant": "ture"}, "giant"),
    ({"topology": "file", "path": "g.txt", "compact": "2"}, "compact"),
])
def test_spec_from_mapping_rejects_unknown_keys_and_bad_booleans(tmp_path, raw, key):
    with pytest.raises(ValueError, match=key):
        spec_from_mapping(raw)
    path = tmp_path / "exp.cfg"
    path.write_text("".join(f"{k}={v}\n" for k, v in raw.items()))
    with pytest.raises(ValueError, match=key):
        spec_from_mapping(read_mapping(path))


def test_spec_from_mapping_reads_every_boolean_spelling():
    for text, value in (("1", True), ("YES", True), ("true", True),
                        ("0", False), ("no", False), ("False", False)):
        assert spec_from_mapping({"n": "10", "giant": text}).topology.giant is value


@pytest.mark.parametrize("fields, missing", [
    ({"kind": "er"}, "n"), ({"kind": "powerlaw", "exponent": 3.0}, "n"),
    ({"kind": "grid", "dim": 3}, "side"), ({"kind": "tree"}, "degree and depth"),
    ({"kind": "tree", "degree": 2}, "depth"), ({"kind": "file", "compact": True}, "path"),
])
def test_topology_spec_requires_its_kinds_fields(fields, missing):
    with pytest.raises(ValueError, match=f"topology {fields['kind']} needs {missing}$"):
        TopologySpec(**fields)


@pytest.mark.parametrize("fields, unused", [
    ({"kind": "grid", "side": 10, "n": 50}, "n"),
    ({"kind": "er", "n": 50, "side": 4}, "side"),
    ({"kind": "er", "n": 50, "compact": True}, "compact"),
    ({"kind": "powerlaw", "n": 50, "p": 0.0}, "p"),
    ({"kind": "tree", "degree": 2, "depth": 3, "dim": 2, "p": 0.1}, "p or dim"),
    ({"kind": "file", "path": "g.txt", "exponent": 2.5}, "exponent"),
])
def test_topology_spec_refuses_fields_its_kind_does_not_read(fields, unused):
    with pytest.raises(ValueError, match=f"^topology {fields['kind']} does not use {unused}$"):
        TopologySpec(**fields)


def test_topology_spec_takes_its_kinds_optional_fields_and_giant():
    for fields in ({"kind": "er", "n": 50, "p": 0.1}, {"kind": "powerlaw", "n": 50, "exponent": 3.0},
                   {"kind": "grid", "side": 4, "dim": 3}, {"kind": "tree", "degree": 2, "depth": 3},
                   {"kind": "file", "path": "g.txt", "compact": True}):
        assert TopologySpec(**fields, giant=True).giant
    with pytest.raises(ValueError, match="^topology grid does not use n$"):
        spec_from_mapping({"topology": "grid", "side": "10", "sweep": "n", "values": "50,100"})


def test_topology_spec_rejects_unknown_kind_and_accepts_a_swept_field():
    with pytest.raises(ValueError, match="unknown topology kind 'ring'"):
        TopologySpec(kind="ring", n=10)
    spec = spec_from_mapping({"topology": "grid", "sweep": "side", "values": "4,6"})
    assert spec.sweep_values == (4, 6)
    row = run_sweep(replace(spec, trials_per_point=1)).rows[1]
    assert row.sweep_value == 6


def test_fixed_detector_defaults_are_k_1_l_2_and_t_0():
    none = (None, None, None, None)
    assert harness.fixed_detector("nn", *none) == DetectorConfig.nn(k=1, t=0.0)
    assert harness.fixed_detector("ball", *none) == DetectorConfig.ball_mode(l=2, t=0.0)
    assert harness.fixed_detector("nn", 4, None, 2, 1.5) == DetectorConfig.nn(k=4, s=2, t=1.5)
    with pytest.raises(ValueError, match=r"^unknown detector kind 'cube'$"):
        harness.fixed_detector("cube", *none)


def test_describe_defaults_lists_decisions():
    text = describe_defaults()
    for token in ("natural", "ascending node id", "round-half-even",
                  "0.5", "strict", "exit codes", "HOTSPOT_SEED"):
        assert token in text


# -- sweep points and kept graphs ----------------------------------------------------

def test_unknown_or_auto_detector_sweeps_are_rejected_up_front():
    with pytest.raises(ValueError, match="unknown sweep variable 'volume'"):
        small_spec(sweep_name="volume")
    with pytest.raises(ValueError, match="detector field with detector='auto'"):
        small_spec(detector="auto", sweep_name="k")


@pytest.mark.parametrize("detector, sweep_name", [
    (DetectorConfig.ball_mode(l=2, s=1, t=5), "k"),
    (DetectorConfig.nn(k=2, t=5), "l"),
])
def test_k_and_l_sweeps_must_match_the_detector_mode(detector, sweep_name):
    # a ball detector swept over k used to sweep its radius under k's label
    with pytest.raises(ValueError, match=f"^cannot sweep {sweep_name} with a "
                                         f"{detector.mode} detector$"):
        small_spec(detector=detector, sweep_name=sweep_name, sweep_values=(1, 3))
    other = "l" if sweep_name == "k" else "k"
    assert small_spec(detector=detector, sweep_name=other, sweep_values=(1, 3))


@pytest.mark.parametrize("key, text", [("side", "abc"), ("alpha", "x1")])
def test_spec_from_mapping_names_the_key_of_a_bad_number(key, text):
    raw = {"topology": "grid", "side": "8", "sweep": "q", "values": "0.5", key: text}
    with pytest.raises(ValueError, match=f"{key}='{text}': expected"):
        spec_from_mapping(raw)


@pytest.mark.parametrize("name, value, message", [
    ("side", "abc", "sweep side: value 'abc' is not an integer"),
    ("k", 1.5, "sweep k: value 1.5 is not an integer"),
    ("alpha", "x", "sweep alpha: value 'x' is not a number"),
])
def test_sweep_values_that_do_not_cast_exactly_are_rejected_up_front(name, value, message):
    grid = dict(topology=TopologySpec(kind="grid", side=8), detector=DetectorConfig.nn(k=2, t=0))
    with pytest.raises(ValueError, match=message):
        small_spec(**grid, sweep_name=name, sweep_values=(value,))
    spec = small_spec(**grid, sweep_name=name, sweep_values=(2, 3.0))
    assert spec.sweep_values == (2, 3.0)  # kept as given: seed tokens and CSV labels


def test_k_cap_is_ceil_ln_n_at_least_one():
    assert [calibration.k_cap(n) for n in (0, 1, 2, 3, 8, 1000)] == [1, 1, 1, 2, 3, 7]


def counting(monkeypatch, owner, name):
    calls = []
    real = getattr(owner, name)

    def wrapped(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, wrapped)
    return calls


def test_fixed_topology_is_built_once_per_sweep_point(monkeypatch, tmp_path):
    calls = counting(monkeypatch, harness, "_grid_pairs")
    grid = dict(topology=TopologySpec(kind="grid", side=10),
                scenario=ScenarioRule(alpha=0.1, q=0.6, f=0.5),
                detector=DetectorConfig.nn(k=3, s=2, t=2.0), trials_per_point=3)
    run_sweep(ExperimentSpec(sweep_name="q", sweep_values=(0.4, 0.8), **grid))
    assert len(calls) == 1
    calls.clear()
    run_sweep(ExperimentSpec(sweep_name="side", sweep_values=(8, 10), **grid))
    assert [args[1] for args in calls] == [8, 10]

    path = tmp_path / "dust.txt"
    save_edge_list(gen_erdos_renyi(300, 1.5 / 300, 2), path)
    giants = counting(monkeypatch, Graph, "largest_component")
    run_sweep(small_spec(topology=TopologySpec(kind="file", path=str(path), giant=True),
                         sweep_values=(0.4, 0.8), trials_per_point=3))
    assert len(giants) == 1


def test_random_topology_is_checked_without_an_extra_build(monkeypatch):
    # the generator's checks run on the spec: one sample per trial, as before
    calls = counting(monkeypatch, harness, "_erdos_renyi_pairs")
    run_sweep(small_spec(topology=TopologySpec(kind="er", n=120, giant=True),
                         sweep_values=(0.4, 0.8), trials_per_point=3))
    assert len(calls) == 2 * 2 * 3  # values x labels x trials
    with pytest.raises(ValueError, match=r"^n must be >= 1$"):
        TopologySpec(kind="er", n=0)
    with pytest.raises(ValueError, match=r"^n must be >= 10$"):
        TopologySpec(kind="powerlaw", n=9)


def test_random_kinds_refuse_graphs_too_large_at_spec_construction():
    # the check runs on the spec, before any array is allocated
    too_many = graph.MAX_NODES + 1
    with pytest.raises(ValueError, match=rf"^graph of {too_many} nodes exceeds supported size$"):
        TopologySpec(kind="er", n=too_many, giant=True)
    with pytest.raises(ValueError,
                       match=rf"^power-law graph of {too_many} nodes exceeds supported size$"):
        TopologySpec(kind="powerlaw", n=too_many)
    with pytest.raises(ValueError, match=r"^complete graph this large is not supported$"):
        TopologySpec(kind="er", n=20_001, p=1.0)


@pytest.mark.parametrize("giant", [False, True], ids=["whole", "giant"])
def test_only_a_file_giant_is_cut_from_a_built_graph(monkeypatch, tmp_path, giant):
    # a generated kind's giant is cut from its sampled pairs; a file's from
    # the graph read whole, whose load warning counts every dropped edge
    path = tmp_path / "dust.txt"
    save_edge_list(gen_erdos_renyi(300, 1.5 / 300, 2), path)
    calls = counting(monkeypatch, Graph, "largest_component")
    for spec in (TopologySpec(kind="er", n=300, giant=giant),
                 TopologySpec(kind="grid", side=6, giant=giant),
                 TopologySpec(kind="tree", degree=2, depth=4, giant=giant),
                 TopologySpec(kind="powerlaw", n=300, giant=giant)):
        spec.build(5)
    assert calls == []
    g = TopologySpec(kind="file", path=str(path), giant=giant).build(5)
    assert len(calls) == giant
    assert g.n == (len(largest_component_oracle(load_edge_list(path))) if giant else 300)


def test_spec_keeps_a_fixed_graph_and_a_new_spec_reads_the_file_afresh(tmp_path):
    path = tmp_path / "g.txt"
    save_edge_list(path_graph(3), path)
    spec = TopologySpec(kind="file", path=str(path))
    first = spec.build(0)
    assert first.n == 3 and spec.build(1) is first
    assert spec == TopologySpec(kind="file", path=str(path))
    assert hash(spec) == hash(TopologySpec(kind="file", path=str(path)))
    assert "_graph=" not in repr(spec)
    save_edge_list(path_graph(5), path)
    assert spec.build(0).n == 3  # the spec keeps what it read
    assert TopologySpec(kind="file", path=str(path)).build(0).n == 5
    assert replace(spec, giant=True).build(0).n == 5
    er = TopologySpec(kind="er", n=50)
    assert er.build(1) is not er.build(1)  # seeded kinds keep nothing
