"""Acceptance suite: one test per ship criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and measured values. Every test is deterministic (master seed below);
trial counts and tolerances are fixed here, not tuned at runtime.

Criterion 7b asks for an interior fraction gamma(K) >= 0.9 for every
K <= 25 on a 2-D lattice. That limit is asymptotic in the infection size:
on Z^2 the L1 ball has the smallest vertex boundary for its size (Wang &
Wang, "Discrete isoperimetric problems", SIAM J. Appl. Math. 1977), so
1 - gamma(K) of any set S falls no faster than 1/sqrt(|S|). At |S| = 1000
on a 100x100 lattice no node set reaches 0.9 at K = 25 (the best, the L1
diamond, gives 722/1013 = 0.713), so the criterion is tested on a 640x640
lattice, |S| = 40,960, where it holds with a wide margin.
"""

import math
import time

import numpy as np
import pytest

from hotspot.calibration import (error_bounds, estimate_gamma, gamma_for_set,
                                 reporting_probabilities, solve_k)
from hotspot.detector import DetectorConfig, classify
from hotspot.graph import gen_erdos_renyi, gen_grid, gen_tree
from hotspot.harness import (DistanceNoise, ExperimentSpec, NoisyView,
                             ScenarioRule, TopologySpec, run_sweep)
from hotspot.scenario import (EPIDEMIC, UNIFORM, ScenarioParams,
                              generate_uniform_null, make_epidemic_snapshot)
from hotspot.seeds import derive_seed

from oracles import hotspot_count_oracle, random_graph, tree_level_offsets

MASTER = 2024


def report(num: str, passed: bool, detail: str) -> None:
    print(f"\n[criterion {num}] {'PASS' if passed else 'FAIL'} - {detail}")


# -- criterion 1: infected nodes report more often than the null --------------------

def test_criterion_01_reporting_probability_gap():
    rng = np.random.default_rng(MASTER)
    start = time.perf_counter()
    checked = 0
    holds = True
    while checked < 10_000:
        q = float(rng.uniform(1e-6, 1.0))
        alpha = float(rng.uniform(1e-6, 1.0 - 1e-9))
        f = float(rng.uniform(0.0, 100.0))
        if (f + 1.0) * q * alpha >= 1.0:
            continue
        probs = reporting_probabilities(q, alpha, f)
        holds &= probs.p_in > probs.p
        checked += 1
    elapsed = time.perf_counter() - start
    report("1", holds and elapsed < 1.0,
           f"p_in > p on {checked} random feasible triples in {elapsed:.2f}s")
    assert holds
    assert elapsed < 1.0


# -- criterion 2: hotspot count equals the brute-force oracle ------------------------

def test_criterion_02_detector_matches_bruteforce_oracle():
    rng = np.random.default_rng(MASTER + 1)
    start = time.perf_counter()
    mismatches = 0
    for case in range(500):
        g = random_graph(int(rng.integers(2, 16)), float(rng.uniform(0.05, 0.5)), rng)
        reporting = {int(v) for v in np.flatnonzero(rng.random(g.n) < 0.45)}
        k = 1 + case % 4
        fast = classify(g, reporting, DetectorConfig.nn(k=k, t=0),
                        keep_indicators=False).hotspot_count
        mismatches += fast != hotspot_count_oracle(g, reporting, k, k)
    elapsed = time.perf_counter() - start
    report("2", mismatches == 0 and elapsed < 10.0,
           f"500 random graphs, K in 1..4, {mismatches} mismatches in {elapsed:.1f}s")
    assert mismatches == 0
    assert elapsed < 10.0


# -- criterion 3: null hotspot mean matches N_reporting * p^K ------------------------

def test_criterion_03_null_expectation():
    # giant component so every reporter has a full-size K=1 neighborhood,
    # the premise behind the N_reporting * p expectation
    start = time.perf_counter()
    g, _ = gen_erdos_renyi(2000, 2 / 2000, derive_seed(MASTER, "crit3-graph")
                           ).largest_component()
    p, trials = 0.2, 500
    cfg = DetectorConfig.nn(k=1, t=0)
    gaps = []
    for trial in range(trials):
        snap = generate_uniform_null(g, p, derive_seed(MASTER, "crit3", trial))
        verdict = classify(g, snap.reporting, cfg, keep_indicators=False)
        gaps.append(verdict.hotspot_count - p * len(snap.reporting))
    gaps = np.asarray(gaps)
    stderr = gaps.std(ddof=1) / math.sqrt(trials)
    elapsed = time.perf_counter() - start
    ok = abs(gaps.mean()) < 3 * stderr and elapsed < 60.0
    report("3", ok, f"mean(count - p*N_rep) = {gaps.mean():+.3f}, "
                    f"3SE = {3 * stderr:.3f}, {elapsed:.1f}s")
    assert abs(gaps.mean()) < 3 * stderr
    assert elapsed < 60.0


# -- criteria 4 and 9 share one batch of labeled snapshots ----------------------------

FIG6_PARAMS = ScenarioParams(alpha=0.13, q=0.22, f=1.0)
FIG6_TRIALS = 200


@pytest.fixture(scope="module")
def fig6_runs():
    """200 epidemic + 200 null snapshots on G(8000, 2/N) giant components.

    For each trial: per-reporter counts within the radius-3 ball (for the
    per-K separability curves) and the dense-rule NN verdict inputs (for
    the bound comparison), plus the calibrated gamma profile.
    """
    probs = reporting_probabilities(FIG6_PARAMS.q, FIG6_PARAMS.alpha, FIG6_PARAMS.f)
    cal_graph, _ = gen_erdos_renyi(8000, 2 / 8000, derive_seed(MASTER, "fig6-cal")
                                   ).largest_component()
    profile = estimate_gamma(cal_graph, FIG6_PARAMS, range(1, 8), trials=30,
                             rng_seed=derive_seed(MASTER, "fig6-gamma"))
    k_star = solve_k(profile, FIG6_PARAMS.f)
    gamma_hat = profile.gamma(k_star)
    data = {"k_star": k_star, "gamma_hat": gamma_hat, "probs": probs,
            "ball3": {EPIDEMIC: [], UNIFORM: []},
            "nn_counts": {EPIDEMIC: [], UNIFORM: []},
            "n_rep": {EPIDEMIC: [], UNIFORM: []}}
    nn_cfg = DetectorConfig.nn(k=k_star, t=0)
    for trial in range(FIG6_TRIALS):
        root = derive_seed(MASTER, "fig6", trial)
        g, _ = gen_erdos_renyi(8000, 2 / 8000, derive_seed(root, "graph")
                               ).largest_component()
        epi, _ = make_epidemic_snapshot(g, FIG6_PARAMS, derive_seed(root, "e"))
        null = generate_uniform_null(g, probs.p, derive_seed(root, "n"))
        for snap, label in ((epi, EPIDEMIC), (null, UNIFORM)):
            rep = set(snap.reporting.tolist())  # a set: the loops below test membership
            per_node = [sum(1 for v in g.ball_members(i, 3) if v in rep)
                        for i in sorted(rep)]
            data["ball3"][label].append(per_node)
            data["nn_counts"][label].append(
                classify(g, rep, nn_cfg, keep_indicators=False).hotspot_count)
            data["n_rep"][label].append(len(rep))
    return data


def test_criterion_04_separability(fig6_runs):
    start = time.perf_counter()
    separations = {}
    for k in range(1, 7):
        epi = np.array([sum(1 for c in pn if c >= k)
                        for pn in fig6_runs["ball3"][EPIDEMIC]])
        null = np.array([sum(1 for c in pn if c >= k)
                         for pn in fig6_runs["ball3"][UNIFORM]])
        pooled = math.sqrt((epi.std(ddof=1) ** 2 + null.std(ddof=1) ** 2) / 2)
        separations[k] = abs(epi.mean() - null.mean()) / pooled
    best_k = max(separations, key=separations.get)
    ok = separations[best_k] > 2.0
    report("4", ok, "radius-3 counts, separation/pooledSD per K: "
           + " ".join(f"K={k}:{s:.2f}" for k, s in separations.items()))
    assert ok
    assert time.perf_counter() - start < 600.0


def test_criterion_09_error_bounds_cover_observed(fig6_runs):
    k_star, gamma_hat = fig6_runs["k_star"], fig6_runs["gamma_hat"]
    probs = fig6_runs["probs"]
    f = FIG6_PARAMS.f
    type1 = type2 = 0
    for label in (EPIDEMIC, UNIFORM):
        for count, n_rep in zip(fig6_runs["nn_counts"][label],
                                fig6_runs["n_rep"][label]):
            threshold = (n_rep / 2.0) * (gamma_hat * probs.p_in ** k_star / (f + 1.0)
                                         + probs.p ** k_star)
            declared_epi = count > threshold
            if label == UNIFORM and declared_epi:
                type1 += 1
            if label == EPIDEMIC and not declared_epi:
                type2 += 1
    t1_hat = type1 / FIG6_TRIALS
    t2_hat = type2 / FIG6_TRIALS
    mean_rep = int(np.mean(fig6_runs["n_rep"][UNIFORM]))
    bounds = error_bounds(gamma_hat, FIG6_PARAMS.q, FIG6_PARAMS.alpha, f,
                          k_star, mean_rep)
    ok = t1_hat <= bounds.e1_bound and t2_hat <= bounds.e2_bound
    report("9", ok, f"K*={k_star}, gamma_hat={gamma_hat:.3f}: observed "
                    f"type1={t1_hat:.3f} <= {bounds.e1_bound:.3f}, "
                    f"type2={t2_hat:.3f} <= {bounds.e2_bound:.3f}")
    assert bounds.diagnostic is None
    assert t1_hat <= bounds.e1_bound
    assert t2_hat <= bounds.e2_bound


# -- criterion 5: mean error decays with network size ---------------------------------

def test_criterion_05_error_decay_with_n():
    start = time.perf_counter()
    sizes = (1000, 2000, 4000, 8000)
    trials = 200
    errors = []
    for n in sizes:
        rule = ScenarioRule(alpha=3.0, q=1.0, f=1.0,
                            alpha_exp=-0.7, q_exp=-0.2, f_exp=0.3)
        params = rule.for_n(n)
        p_null = reporting_probabilities(params.q, params.alpha, params.f).p
        t1 = t2 = 0
        for trial in range(trials):
            root = derive_seed(MASTER, "decay", n, trial)
            g, _ = gen_erdos_renyi(n, 2 / n, derive_seed(root, "graph")
                                   ).largest_component()
            snap, _ = make_epidemic_snapshot(g, params, derive_seed(root, "e"))
            rep = set(snap.reporting.tolist())  # a set: the loops below test membership
            count = sum(1 for i in rep
                        if sum(1 for v in g.ball_members(i, 2) if v in rep) >= 2)
            t2 += not count > 0.5
            snap = generate_uniform_null(g, p_null, derive_seed(root, "n"))
            rep = set(snap.reporting.tolist())
            count = sum(1 for i in rep
                        if sum(1 for v in g.ball_members(i, 2) if v in rep) >= 2)
            t1 += count > 0.5
        errors.append((t1 / trials + t2 / trials) / 2)
    inversions = sum(1 for a, b in zip(errors, errors[1:]) if b > a)
    elapsed = time.perf_counter() - start
    ok = errors[-1] < errors[0] and inversions <= 1 and elapsed < 1200.0
    report("5", ok, "mean error over N=1k..8k: "
           + " -> ".join(f"{e:.3f}" for e in errors)
           + f", inversions={inversions}, {elapsed:.0f}s")
    assert errors[-1] < errors[0]
    assert inversions <= 1
    assert elapsed < 1200.0


# -- criterion 6: insensitivity to the number of contagion seeds ------------------------

def test_criterion_06_multiseed_robustness():
    start = time.perf_counter()
    trials = 200
    p_null = reporting_probabilities(0.05, 0.06, 8.0).p
    means = []
    for num_seeds in (1, 50, 100, 200):
        params = ScenarioParams(alpha=0.06, q=0.05, f=8.0, num_seeds=num_seeds)
        t1 = t2 = 0
        for trial in range(trials):
            root = derive_seed(MASTER, "multiseed", num_seeds, trial)
            g, _ = gen_erdos_renyi(8000, 2 / 8000, derive_seed(root, "graph")
                                   ).largest_component()
            snap, _ = make_epidemic_snapshot(g, params, derive_seed(root, "e"))
            rep = set(snap.reporting.tolist())  # a set: the loops below test membership
            count = sum(1 for i in rep
                        if sum(1 for v in g.ball_members(i, 2) if v in rep) >= 1)
            t2 += not count > 50
            snap = generate_uniform_null(g, p_null, derive_seed(root, "n"))
            rep = set(snap.reporting.tolist())
            count = sum(1 for i in rep
                        if sum(1 for v in g.ball_members(i, 2) if v in rep) >= 1)
            t1 += count > 50
        means.append((t1 / trials + t2 / trials) / 2)
    drift = max(means) - min(means)
    elapsed = time.perf_counter() - start
    ok = drift <= 0.05 and elapsed < 1200.0
    report("6", ok, "mean error per seed count 1/50/100/200: "
           + " ".join(f"{m:.3f}" for m in means)
           + f", max-min = {drift:.3f}, {elapsed:.0f}s")
    assert drift <= 0.05
    assert elapsed < 1200.0


# -- criterion 7: interior-fraction analytics -------------------------------------------

def test_criterion_07a_tree_gamma():
    start = time.perf_counter()
    degree, depth, filled = 3, 10, 9
    g = gen_tree(degree, depth)
    offsets = tree_level_offsets(degree, depth)
    infected = set(range(offsets[filled + 1]))
    g3, g9 = gamma_for_set(g, infected, [3, 9])
    rel3 = abs(g3 - 1 / 3) / (1 / 3)
    rel9 = abs(g9 - 1 / 9) / (1 / 9)
    elapsed = time.perf_counter() - start
    ok = rel3 < 0.2 and rel9 < 0.2 and elapsed < 120.0
    report("7a", ok, f"tree gamma(3)={g3:.4f} (target 1/3, off {rel3:.1%}), "
                     f"gamma(9)={g9:.4f} (target 1/9, off {rel9:.1%}), {elapsed:.0f}s")
    assert rel3 < 0.2
    assert rel9 < 0.2
    assert elapsed < 120.0


def l1_diamond(side: int, radius: int) -> set[int]:
    """Nodes of gen_grid(2, side) within L1 distance ``radius`` of the center."""
    c = side // 2
    return {y * side + x
            for y in range(c - radius, c + radius + 1)
            for x in range(c - radius, c + radius + 1)
            if abs(x - c) + abs(y - c) <= radius}


def test_criterion_07b_grid_gamma():
    # Requirement: an SI contagion with alpha = 0.1 on a 2-D lattice keeps
    # gamma(K) >= 0.9 for every K <= 25. A 25-nearest neighborhood covers
    # hop shells 1-3 and one node of shell 4, so a node is interior only if
    # it sits about 4 hops inside the infection. The L1 ball minimises the
    # vertex boundary on Z^2 (Wang & Wang 1977), so 1 - gamma(25) of any set
    # falls no faster than 1/sqrt(|S|). The exact diamond below shows that
    # the former operating point, |S| = 1000 on a 100x100 lattice, could not
    # pass. For single-seed SI blobs (1 - gamma(25)) * sqrt(|S|) stays near
    # 13-15, which puts gamma(25) = 0.9 near |S| = 2 * 10^4; side 640 gives
    # |S| = 40,960, twice that.
    side = 640
    start = time.perf_counter()

    # Best case at the old size: the L1 diamond of radius 22 (1013 nodes) on
    # the 100x100 lattice. Ties in the K-nearest order break by node id, so
    # the single shell-3 (K=13) or shell-4 (K=25) neighbour is the one
    # straight down (smaller y). Interior at K=25: the 685 nodes within L1
    # distance 18 plus the 37 at distance 19 lying above the center row; at
    # K=13: the 761 within 19 plus the 39 at distance 20 above the row.
    diamond = l1_diamond(100, 22)
    assert len(diamond) == 1013
    d13, d25 = gamma_for_set(gen_grid(2, 100), diamond, [13, 25])
    assert [round(v * 1013) for v in (d13, d25)] == [800, 722]
    assert d13 < 0.9 and d25 < 0.9

    g = gen_grid(2, side)
    params = ScenarioParams(alpha=0.1, q=1.0, f=0.0)
    profile = estimate_gamma(g, params, range(1, 26), trials=20,
                             rng_seed=derive_seed(MASTER, "crit7b"))
    entries = {e.k: e for e in profile.entries}
    gammas = {k: e.gamma for k, e in entries.items()}
    worst_k = min(gammas, key=gammas.get)
    ok = all(v >= 0.9 for v in gammas.values())
    elapsed = time.perf_counter() - start
    report("7b", ok and elapsed < 120.0,
           f"{side}x{side} lattice, |S|={params.target_size(g.n)}: "
           f"grid gamma(1)={gammas[1]:.3f} gamma(4)={gammas[4]:.3f} "
           f"gamma(13)={gammas[13]:.3f} gamma(25)={gammas[25]:.3f}; "
           f"min at K={worst_k}: {gammas[worst_k]:.3f} "
           f"(stderr {entries[worst_k].stderr:.4f}); "
           f"100x100 diamond |S|=1013: gamma(13)={d13:.3f} gamma(25)={d25:.3f}, "
           f"{elapsed:.0f}s")
    assert elapsed < 120.0
    assert ok, (f"gamma(K) >= 0.9 fails for K up to 25: measured "
                f"{ {k: round(v, 3) for k, v in gammas.items()} }")


def test_grid_gamma_asymptotic_trend():
    # companion to 7b: at fixed K the interior fraction rises toward 1 as
    # the infection grows (boundary scales like the blob surface)
    values = []
    for side, size in ((60, 400), (100, 1000), (200, 4000)):
        g = gen_grid(2, side)
        center = (side // 2) * side + side // 2
        from hotspot.scenario import simulate_si
        out = simulate_si(g, [center], size, rng_seed=derive_seed(MASTER, "trend", side))
        values.append(gamma_for_set(g, set(out.infected), [12])[0])
    print(f"\n[companion] grid gamma(12) vs |S| 400/1000/4000: "
          + " -> ".join(f"{v:.3f}" for v in values))
    assert values[0] < values[1] < values[2]


# -- criterion 8: robustness to misestimated distances -----------------------------------

def test_criterion_08_distance_noise():
    start = time.perf_counter()
    trials = 200
    params = ScenarioParams(alpha=0.2, q=0.3, f=4 / 3)
    p_null = reporting_probabilities(params.q, params.alpha, params.f).p
    cfg = DetectorConfig(mode="nn", k_or_l=6, s=3, t=55.0)
    rates = {}
    for d in (1, 2):
        for flip in (0.0, 0.1, 0.2):
            t1 = t2 = 0
            for trial in range(trials):
                root = derive_seed(MASTER, "noise", trial)
                g, _ = gen_erdos_renyi(4000, 2 / 4000, derive_seed(root, "graph")
                                       ).largest_component()
                view = (NoisyView(g, DistanceNoise(flip, d),
                                  derive_seed(root, "view", d))
                        if flip > 0 else g)
                snap, _ = make_epidemic_snapshot(g, params, derive_seed(root, "e"))
                t2 += classify(view, snap.reporting, cfg,
                               keep_indicators=False).label == UNIFORM
                snap = generate_uniform_null(g, p_null, derive_seed(root, "n"))
                t1 += classify(view, snap.reporting, cfg,
                               keep_indicators=False).label == EPIDEMIC
            rates[(d, flip)] = (t1 / trials, t2 / trials)
    type1s = [rates[key][0] for key in rates]
    type1_range = max(type1s) - min(type1s)
    inversion_counts = {}
    for d in (1, 2):
        seq = [rates[(d, flip)][1] for flip in (0.0, 0.1, 0.2)]
        inversion_counts[d] = sum(1 for a, b in zip(seq, seq[1:]) if b < a)
    elapsed = time.perf_counter() - start
    ok = (type1_range <= 0.02 and all(c <= 1 for c in inversion_counts.values())
          and elapsed < 900.0)
    detail = f"type1 range {type1_range:.3f}; " + "; ".join(
        f"d={d} type2 " + "->".join(f"{rates[(d, flip)][1]:.3f}"
                                    for flip in (0.0, 0.1, 0.2))
        + f" (inv={inversion_counts[d]})" for d in (1, 2))
    report("8", ok, detail + f", {elapsed:.0f}s")
    assert type1_range <= 0.02
    assert all(c <= 1 for c in inversion_counts.values())
    assert elapsed < 900.0


# -- criterion 10: locality at scale ------------------------------------------------------

def test_criterion_10_million_node_scalability():
    g = gen_erdos_renyi(1_000_000, 2 / 1_000_000, derive_seed(MASTER, "big"))
    rng = np.random.default_rng(derive_seed(MASTER, "big-rep"))
    reporting = set(rng.choice(g.n, size=10_000, replace=False).tolist())
    cfg = DetectorConfig.nn(k=2, t=0)
    start = time.perf_counter()
    verdict = classify(g, reporting, cfg, keep_indicators=False)
    elapsed = time.perf_counter() - start
    report("10", elapsed < 5.0,
           f"classify 10^4 reporters on N=10^6 in {elapsed:.2f}s "
           f"(count={verdict.hotspot_count})")
    assert elapsed < 5.0


# -- criterion 11: bitwise reproducibility -------------------------------------------------

def test_criterion_11_sweep_determinism(tmp_path):
    def build_spec():
        return ExperimentSpec(
            topology=TopologySpec(kind="er", n=500, p=4 / 500, giant=True),
            scenario=ScenarioRule(alpha=0.2, q=0.5, f=1.0),
            detector=DetectorConfig.ball_mode(l=2, s=1, t=30),
            sweep_name="q", sweep_values=(0.3, 0.5),
            trials_per_point=30, master_seed=MASTER)

    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    first.write_text(run_sweep(build_spec()).to_csv_text())
    second.write_text(run_sweep(build_spec()).to_csv_text())
    identical = first.read_bytes() == second.read_bytes()
    report("11", identical, f"rerun CSV identical: {identical} "
                            f"({len(first.read_bytes())} bytes)")
    assert identical
