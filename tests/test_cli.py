import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hotspot
from hotspot import calibration, harness, scenario
from hotspot.calibration import GammaProfile
from hotspot.cli import build_parser, main
from hotspot.graph import Graph, gen_erdos_renyi, gen_grid, gen_power_law, save_edge_list
from hotspot.harness import SWEEP_CSV_HEADER, read_mapping, spec_from_mapping
from hotspot.scenario import ReportSnapshot

EXPERIMENTS = Path(__file__).resolve().parent.parent / "experiments"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_path_graph(tmp_path, n=5):
    g = Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
    path = tmp_path / "graph.txt"
    save_edge_list(g, path)
    return str(path)


def test_describe(capsys, monkeypatch):
    code, out, _ = run(capsys, "describe")
    assert code == 0
    assert "log base" in out and "exit codes" in out
    # the K cap and trial counts are read from the constants the runs use
    monkeypatch.setattr(harness, "CI_TRIALS", 123)
    monkeypatch.setattr(harness, "GAMMA_CALIBRATION_TRIALS", 45)
    lines = run(capsys, "describe")[1].splitlines()
    assert ("gamma profile K cap: K <= ceil(ln N) (gamma command and auto mode); "
            "gamma estimation trials default 45 (auto mode)") in lines
    assert ("trial counts: 123 per sweep point and label unless --trials or trials= "
            "is given") in lines


def test_generate_simulate_detect_pipeline(tmp_path, capsys):
    graph_path = str(tmp_path / "grid.txt")
    code, _, err = run(capsys, "generate", "--topology", "grid", "--side", "6",
                       "--out", graph_path)
    assert code == 0 and "36 nodes" in err
    snap_path = str(tmp_path / "snap.txt")
    code, _, _ = run(capsys, "simulate", "--graph", graph_path,
                     "--scenario", "epidemic", "--alpha", "0.5", "--q", "1",
                     "--f", "0", "--seed", "3", "--out", snap_path)
    assert code == 0
    code, out, _ = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", snap_path, "--mode", "nn",
                       "--k", "1", "--t", "0")
    assert code == 2  # epidemic
    truth, label, count, *_ = out.strip().split(",")
    assert truth == "epidemic" and label == "epidemic" and int(count) > 0


def test_detect_empty_snapshot_exits_zero(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path)
    snap = tmp_path / "empty.txt"
    snap.write_text("truth=uniform n=5\n")
    code, out, _ = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(snap), "--k", "1", "--t", "0")
    assert code == 0
    assert out.strip() == "uniform,uniform,0,0,1,nn"


def test_detect_hand_built_path_snapshot(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 5)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=5\n1\n2\n3\n")
    code, out, _ = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(snap), "--k", "2", "--s", "2",
                       "--t", "0", "--header")
    assert code == 2
    lines = out.strip().splitlines()
    assert lines[0] == "truth,label,hotspot_count,threshold,k,mode"
    assert lines[1] == "epidemic,epidemic,1,0,2,nn"


@pytest.mark.parametrize("mode", ["nn", "ball"])
def test_detect_and_sweep_take_their_detector_defaults_from_one_place(tmp_path, capsys,
                                                                      monkeypatch, mode):
    made, real = [], harness.fixed_detector
    monkeypatch.setattr(harness, "fixed_detector", lambda *args: made.append(args) or real(*args))
    graph_path = write_path_graph(tmp_path, 5)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=5\n1\n2\n3\n")
    code, _, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap),
                       "--mode", mode)
    assert code in (0, 2), err
    code, _, err = run(capsys, "sweep", "--topology", "grid", "--side", "6", "--alpha", "0.2",
                       "--detector", mode, "--trials", "1", "--values", "0")
    assert code == 0, err
    assert made == [(mode, None, None, None, None)] * 2


def test_detect_malformed_snapshot_exits_one(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path)
    snap = tmp_path / "bad.txt"
    snap.write_text("5\n1\n")
    code, _, err = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(snap), "--k", "1")
    assert code == 1 and "error" in err


def test_unknown_flag_exits_one_not_two(capsys):
    assert main(["detect", "--frobnicate"]) == 1


def test_small_regime_detect(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 6)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=6\n2\n3\n")  # one adjacent pair
    code, out, err = run(capsys, "detect", "--graph", graph_path,
                         "--snapshot", str(snap), "--regime", "small",
                         "--beta", "0.6")
    assert code == 2  # K=1, fires on any hotspot
    assert "K=1" in err and "t=0.5" in err


def test_auto_detect_with_gamma_fallback(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 60)
    snap = tmp_path / "snap.txt"
    reporting = "\n".join(str(i) for i in range(20, 40))
    snap.write_text(f"truth=epidemic n=60\n{reporting}\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path,
                         "--snapshot", str(snap), "--regime", "dense",
                         "--q", "0.9", "--alpha", "0.4", "--f", "0.2",
                         "--gamma-fallback")
    assert code in (0, 2)
    assert "dense regime" in err and "gamma=" in err and "p_in=" in err


def test_gamma_command_round_trips(tmp_path, capsys):
    out_csv = tmp_path / "gamma.csv"
    code, _, _ = run(capsys, "gamma", "--topology", "grid", "--side", "12",
                     "--alpha", "0.3", "--k-list", "1,2,4", "--trials", "5",
                     "--seed", "2", "--out", str(out_csv))
    assert code == 0
    profile = GammaProfile.from_csv(out_csv)
    assert profile.k_values() == [1, 2, 4]
    assert all(0.0 <= e.gamma <= 1.0 for e in profile.entries)


def test_detect_with_gamma_profile(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 40)
    gamma_csv = tmp_path / "gamma.csv"
    gamma_csv.write_text("K,gamma,stderr,trials,topology\n1,0.9,0.01,10,path\n"
                         "2,0.8,0.01,10,path\n")
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=40\n" +
                    "\n".join(str(i) for i in range(10, 20)) + "\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path,
                         "--snapshot", str(snap), "--regime", "dense",
                         "--q", "0.5", "--alpha", "0.25", "--f", "1",
                         "--gamma-profile", str(gamma_csv))
    assert code in (0, 2)
    assert "gamma profile" not in err  # note goes into the verdict, not stderr
    assert "K=1" in err


def test_bounds_command(capsys):
    code, out, _ = run(capsys, "bounds", "--gamma", "0.9", "--q", "0.4",
                       "--alpha", "0.1", "--f", "0.5", "--k", "1",
                       "--n-reporting", "500")
    assert code == 0
    header, row = out.strip().splitlines()
    assert header == "e1_bound,e2_bound,P,P_in"
    e1, e2, p_big, p_in_big = map(float, row.split(","))
    assert p_in_big > p_big
    assert 0 < e1 < 1 and 0 < e2 < 1


def test_bounds_command_degenerate_prints_diagnostic(capsys):
    code, out, err = run(capsys, "bounds", "--gamma", "0.5", "--q", "0.3",
                         "--alpha", "0.2", "--f", "1", "--k", "1",
                         "--n-reporting", "500")
    assert code == 0
    row = out.strip().splitlines()[1]
    e1, e2, *_ = map(float, row.split(","))
    assert e1 == 1.0 and e2 == 1.0
    assert "separation condition violated" in err


def test_sweep_command_reproducible(tmp_path, capsys):
    args = ["sweep", "--topology", "er", "--n", "200", "--giant",
            "--alpha", "0.2", "--q", "0.6", "--f", "0.5",
            "--detector", "ball", "--l", "2", "--s", "1", "--t", "10",
            "--sweep", "q", "--values", "0.4,0.6", "--trials", "4",
            "--seed", "5"]
    code, out1, _ = run(capsys, *args)
    assert code == 0
    code, out2, _ = run(capsys, *args)
    assert out1 == out2
    lines = out1.strip().splitlines()
    assert lines[0].startswith("sweep_value,trials,type1,type2,mean_error")
    assert len(lines) == 3


def test_threshold_sweep_command(capsys):
    code, out, _ = run(capsys, "threshold-sweep", "--topology", "er", "--n", "150",
                       "--giant", "--alpha", "0.2", "--q", "0.6", "--f", "0.5",
                       "--detector", "ball", "--l", "2", "--s", "1",
                       "--sweep", "q", "--values", "0.6", "--trials", "3",
                       "--t-values=-1,1000000", "--seed", "1")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 3
    first = lines[1].split(",")
    assert float(first[2]) == 1.0 and float(first[3]) == 0.0


def test_sweep_from_config_file(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=er\nn=150\ngiant=true\nalpha=0.2\nq=0.6\nf=0.5\n"
                   "detector=ball\nl=2\ns=1\nt=10\nsweep=q\nvalues=0.6\n"
                   "trials=3\nseed=4\n")
    out_csv = tmp_path / "result.csv"
    code, _, _ = run(capsys, "sweep", "--config", str(cfg), "--out", str(out_csv))
    assert code == 0
    assert out_csv.read_text().startswith("sweep_value,")


def test_env_seed_fallback(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HOTSPOT_SEED", "77")
    out_a = tmp_path / "a.txt"
    out_b = tmp_path / "b.txt"
    run(capsys, "generate", "--topology", "er", "--n", "100", "--p", "0.05",
        "--out", str(out_a))
    run(capsys, "generate", "--topology", "er", "--n", "100", "--p", "0.05",
        "--out", str(out_b))
    assert out_a.read_bytes() == out_b.read_bytes()
    monkeypatch.setenv("HOTSPOT_SEED", "78")
    out_c = tmp_path / "c.txt"
    run(capsys, "generate", "--topology", "er", "--n", "100", "--p", "0.05",
        "--out", str(out_c))
    assert out_a.read_bytes() != out_c.read_bytes()


def test_simulate_null_uses_matched_probability(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 2000)
    snap_path = tmp_path / "null.txt"
    code, _, _ = run(capsys, "simulate", "--graph", graph_path,
                     "--scenario", "null", "--alpha", "0.25", "--q", "0.4",
                     "--f", "1", "--seed", "9", "--out", str(snap_path))
    assert code == 0
    snap = ReportSnapshot.load(snap_path)
    assert snap.truth == "uniform"
    # p = (f+1) q alpha = 0.2 -> about 400 of 2000 report
    assert abs(len(snap.reporting) - 400) < 4 * (2000 * 0.2 * 0.8) ** 0.5


def test_simulate_epidemic_refuses_null_p(tmp_path, capsys):
    # --null-p used to be dropped: the snapshot was the same with or without it
    code, out, err = run(capsys, "simulate", "--graph", write_path_graph(tmp_path, 10),
                         "--scenario", "epidemic", "--null-p", "0.9")
    assert (code, out, err) == (1, "", "error: --scenario epidemic does not use --null-p\n")


@pytest.mark.parametrize("seeds", ["0", "1", "3"])
def test_simulate_null_refuses_seeds(tmp_path, capsys, seeds):
    # --seeds used to be dropped: the null snapshot was the same with or without it
    code, out, err = run(capsys, "simulate", "--graph", write_path_graph(tmp_path, 10),
                         "--scenario", "null", "--seeds", seeds)
    assert (code, out, err) == (1, "", "error: --scenario null does not use --seeds\n")


def test_simulate_epidemic_seeds_default_to_one(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 50)
    outs = [run(capsys, "simulate", "--graph", graph_path, "--seed", "4", *flag)
            for flag in ([], ["--seeds", "1"])]
    assert outs[0] == outs[1] and outs[0][0] == 0
    code, _, err = run(capsys, "simulate", "--graph", graph_path, "--seeds", "0")
    assert code == 1 and "error" in err


def test_dense_regime_without_q_alpha_exits_one(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 10)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=10\n2\n3\n4\n")
    code, _, err = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(snap), "--regime", "dense", "--gamma", "0.5")
    assert code == 1 and "error" in err and "q and alpha" in err


def test_detect_reporter_beyond_graph_exits_one(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 5)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=20\n1\n9\n")  # header n disagrees with the graph
    code, _, err = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(snap), "--k", "1")
    assert code == 1 and "reporting node 9 out of range" in err


def test_auto_regime_detect_follows_observed_density(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path, 1000)
    sparse = tmp_path / "sparse.txt"
    sparse.write_text("truth=epidemic n=1000\n500\n501\n")  # 0.002 < cutoff
    code, _, err = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(sparse), "--regime", "auto")
    assert code == 2  # beta derived from |R| gives K=1; the adjacent pair fires
    assert "-> small" in err and "K=1" in err
    dense = tmp_path / "dense.txt"
    dense.write_text("truth=epidemic n=1000\n" +
                     "\n".join(str(i) for i in range(100, 150)) + "\n")
    code, _, err = run(capsys, "detect", "--graph", graph_path,
                       "--snapshot", str(dense), "--regime", "auto",
                       "--q", "0.5", "--alpha", "0.05", "--f", "1", "--gamma", "0.9")
    assert code in (0, 2)
    assert "-> dense" in err and "dense regime: K=" in err


def test_sweep_with_every_trial_failing_exits_one(capsys):
    # (f+1)*q*alpha = 1.25 > 1: no trial can run at this point
    code, out, err = run(capsys, "sweep", "--topology", "grid", "--side", "10",
                         "--alpha", "0.5", "--q", "1", "--f", "1.5",
                         "--detector", "nn", "--k", "1", "--t", "0",
                         "--sweep", "q", "--values", "1", "--trials", "3")
    assert code == 1
    assert out == ""
    assert "epidemic trial 0 at q=1" in err


SMALL_CONFIG = ("topology=er\nn=150\ngiant=true\nalpha=0.2\nq=0.6\nf=0.5\n"
                "detector=ball\nl=2\ns=1\nt=10\nsweep=q\nvalues=0.6\ntrials=3\n")


def test_sweep_flags_override_config_keys(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(SMALL_CONFIG + "seed=4\n")
    flags = ["--trials", "2", "--detector", "nn", "--k", "2", "--t", "3",
             "--values", "0.5,0.7", "--seed", "9"]
    code, overlaid, _ = run(capsys, "sweep", "--config", str(cfg), *flags)
    assert code == 0
    assert [line.split(",")[:2] for line in overlaid.splitlines()[1:]] == [
        ["0.5", "2"], ["0.7", "2"]]
    code, direct, _ = run(capsys, "sweep", "--topology", "er", "--n", "150", "--giant",
                          "--alpha", "0.2", "--q", "0.6", "--f", "0.5",
                          "--s", "1", "--sweep", "q", *flags)
    assert code == 0 and overlaid == direct


def test_sweep_seed_order_flag_then_config_then_env(tmp_path, capsys, monkeypatch):
    with_seed, without_seed = tmp_path / "a.cfg", tmp_path / "b.cfg"
    with_seed.write_text(SMALL_CONFIG + "seed=4\n")
    without_seed.write_text(SMALL_CONFIG)

    def sweep(cfg, *flags):
        code, out, _ = run(capsys, "sweep", "--config", str(cfg), *flags)
        assert code == 0
        return out

    monkeypatch.setenv("HOTSPOT_SEED", "77")
    assert sweep(with_seed) == sweep(without_seed, "--seed", "4")
    assert sweep(with_seed, "--seed", "77") == sweep(without_seed)
    assert sweep(without_seed) != sweep(with_seed)
    monkeypatch.delenv("HOTSPOT_SEED")
    assert sweep(without_seed) == sweep(with_seed, "--seed", "0")


def test_sweep_compact_remaps_file_ids(tmp_path, capsys, monkeypatch):
    graph = tmp_path / "sparse.txt"
    graph.write_text("0 10\n10 20\n20 30\n")
    sizes = []
    classify = harness.classify

    def spy(view, reporting, cfg, **kw):
        sizes.append(view.n)
        return classify(view, reporting, cfg, **kw)

    monkeypatch.setattr(harness, "classify", spy)
    code, out, err = run(capsys, "sweep", "--graph", str(graph), "--compact",
                         "--alpha", "0.5", "--detector", "nn", "--k", "1",
                         "--values", "0", "--trials", "1")
    assert code == 0, err
    assert sizes == [4, 4]


def test_simulate_and_gamma_honour_giant_with_graph(tmp_path, capsys):
    graph = tmp_path / "two_parts.txt"
    graph.write_text("0 1\n1 2\n2 3\n4 5\n")
    snap = tmp_path / "snap.txt"
    code, _, _ = run(capsys, "simulate", "--graph", str(graph), "--giant",
                     "--alpha", "0.5", "--seed", "1", "--out", str(snap))
    assert code == 0 and ReportSnapshot.load(snap).n == 4
    code, out, _ = run(capsys, "gamma", "--graph", str(graph), "--giant",
                       "--alpha", "0.5", "--trials", "2", "--k-list", "1")
    assert code == 0 and len(out.splitlines()) == 2


def test_sweep_config_with_a_typo_exits_one(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text(SMALL_CONFIG.replace("trials=", "trails="))
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == "" and "error:" in err and "trails" in err


@pytest.mark.parametrize("argv", [
    ["generate", "--topology", "er", "--out", "x.txt"],
    ["gamma", "--topology", "file", "--alpha", "0.1"],
    ["sweep", "--topology", "er", "--values", "0.5", "--trials", "2"],
])
def test_missing_topology_fields_exit_one_without_traceback(tmp_path, argv):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr.startswith("error: topology ") and "needs" in done.stderr
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, unused", [
    (["sweep", "--topology", "grid", "--side", "10", "--alpha", "0.2", "--q", "0.5",
      "--sweep", "n", "--values", "50,100", "--trials", "2"], "grid does not use n"),
    (["sweep", "--topology", "er", "--n", "100", "--sweep", "side", "--values", "4,6",
      "--trials", "2"], "er does not use side"),
    (["generate", "--topology", "er", "--n", "50", "--compact", "--out", "x.txt"],
     "er does not use compact"),
])
def test_topology_fields_a_kind_does_not_read_exit_one(tmp_path, argv, unused):
    # each used to run, ignoring the field: a grid swept over n gave rows
    # that differed only by seed
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert (done.returncode, done.stdout) == (1, "")
    assert done.stderr == f"error: topology {unused}\n"
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("flags, message", [
    (["--values", "0"], "error: epidemic trial 0 at t=0: alpha must be in (0, 1)\n"),
    (["--detector", "auto", "--sweep", "q", "--values", "0.5"],
     "error: sweep point q=0.5: alpha must be in (0, 1)\n"),
])
def test_sweep_without_a_matched_null_fails_before_any_contagion(capsys, monkeypatch,
                                                                 flags, message):
    # alpha = 1 leaves no matched null; every epidemic trial, and an auto
    # point's gamma calibration, used to grow its contagions first
    grown = []
    for module in (scenario, calibration):
        monkeypatch.setattr(module, "simulate_si", lambda *args, real=module.simulate_si:
                            grown.append(args) or real(*args))
    code, out, err = run(capsys, "sweep", "--topology", "grid", "--side", "10",
                         "--alpha", "1.0", "--q", "0.5", "--trials", "3", *flags)
    assert (code, out, err) == (1, "", message)
    assert grown == []


@pytest.mark.parametrize("name", sorted(p.name for p in EXPERIMENTS.glob("*.cfg")))
def test_shipped_experiment_configs_run(capsys, name):
    path = EXPERIMENTS / name
    smallest = min(spec_from_mapping(read_mapping(path)).sweep_values)
    code, out, err = run(capsys, "sweep", "--config", str(path), "--trials", "1",
                         "--values", str(smallest))
    assert code == 0, err
    header, row = out.splitlines()
    assert header == SWEEP_CSV_HEADER and row.startswith(f"{smallest},1,")


def test_unknown_sweep_name_exits_one_without_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    argv = ["sweep", "--topology", "grid", "--side", "8", "--sweep", "bogus",
            "--values", "1", "--trials", "3"]
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1
    assert done.stderr == "error: unknown sweep variable 'bogus'\n"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv, error", [
    # 11 of these 40 trials draw a giant too small for 2 seeds; a row over
    # the other 29 would still claim 20 trials per label
    (["--topology", "er", "--n", "60", "--giant", "--alpha", "0.0222222222",
      "--num-seeds", "2", "--detector", "nn", "--k", "2", "--t", "1", "--sweep", "t",
      "--values", "1", "--trials", "20", "--seed", "3"],
     "epidemic trial 0 at t=1: target infection size 1 smaller than num_seeds=2"),
    (["--topology", "er", "--n", "60", "--alpha", "0.9", "--num-seeds", "80",
      "--sweep", "q", "--values", "0.5", "--trials", "2"],
     "epidemic trial 0 at q=0.5: target infection size 54 smaller than num_seeds=80"),
])
def test_first_failed_trial_stops_the_sweep_without_traceback(tmp_path, argv, error):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", "sweep", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: {error}\n"


def test_gamma_out_file_matches_stdout(tmp_path, capsys):
    argv = ["gamma", "--topology", "grid", "--side", "8", "--alpha", "0.2",
            "--trials", "3", "--tag", "grid"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert run(capsys, *argv, "--out", str(tmp_path / "gamma.csv"))[0] == 0
    assert (tmp_path / "gamma.csv").read_bytes() == out.encode()


def test_missing_graph_file_fails_the_sweep_once_without_traceback(tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    argv = ["sweep", "--graph", "missing.txt", "--sweep", "q", "--values", "0.5",
            "--trials", "2"]
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == "error: [Errno 2] No such file or directory: 'missing.txt'\n"
    assert "Traceback" not in done.stderr


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "er", "--n", "7"],
    ["sweep", "--topology", "grid", "--values", "0", "--trials", "1"],
    ["gamma", "--topology", "tree", "--alpha", "0.5", "--trials", "1"],
], ids=["simulate", "sweep", "gamma"])
def test_graph_and_topology_together_are_refused(tmp_path, capsys, argv):
    # simulate used to blame an er field on the file; sweep and gamma ran on the file
    graph_path = write_path_graph(tmp_path, 6)
    code, out, err = run(capsys, argv[0], "--graph", graph_path, *argv[1:])
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, out) == (1, "") and len(errors) == 1
    assert "--graph" in errors[0] and "--topology" in errors[0]


def test_graph_overrides_a_config_topology(tmp_path, capsys):
    # flags override keys: only the two flags together are refused
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=grid\nalpha=0.5\nvalues=0\ntrials=1\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg),
                         "--graph", write_path_graph(tmp_path, 6))
    assert code == 0, err
    assert out.splitlines()[1].startswith("0,1,")


@pytest.mark.parametrize("config, flags", [
    ("noise_robustness.cfg", ["--graph", "GRAPH", "--values", "0.1"]),
    ("separability.cfg", ["--topology", "grid", "--side", "20", "--values", "1"]),
])
def test_graph_flags_replace_the_config_graph(tmp_path, capsys, config, flags):
    # each config sets n, which the new kind does not read: both used to exit 1
    flags = [write_path_graph(tmp_path, 30) if f == "GRAPH" else f for f in flags]
    code, out, err = run(capsys, "sweep", "--config", str(EXPERIMENTS / config),
                         "--trials", "1", *flags)
    assert code == 0, err
    assert out.splitlines()[1].startswith(f"{flags[-1]},1,")


def test_topology_flag_keeps_the_config_fields_its_kind_reads(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=er\nn=200\np=0.02\ngiant=true\nalpha=0.2\nq=0.6\n"
                   "sweep=q\nvalues=0.6\ntrials=2\nseed=3\n")
    code, overlaid, err = run(capsys, "sweep", "--config", str(cfg), "--topology", "powerlaw")
    assert code == 0, err
    # n and giant are kept, p (read only by er) is dropped
    assert run(capsys, "sweep", "--topology", "powerlaw", "--n", "200", "--giant",
               "--alpha", "0.2", "--q", "0.6", "--sweep", "q", "--values", "0.6",
               "--trials", "2", "--seed", "3")[1] == overlaid


def test_graph_flag_does_not_drop_a_swept_field_its_kind_does_not_read(tmp_path, capsys):
    code, out, err = run(capsys, "sweep", "--config", str(EXPERIMENTS / "error_decay.cfg"),
                         "--graph", write_path_graph(tmp_path, 30), "--trials", "1")
    assert (code, out, err) == (1, "", "error: topology file does not use n\n")


def test_noise_d_alone_sets_the_magnitude_of_a_flip_prob_sweep(capsys):
    # --noise-d without --noise-prob used to be dropped, so the sweep ran at magnitude 1
    base = ["sweep", "--topology", "grid", "--side", "12", "--alpha", "0.2", "--q", "0.6",
            "--k", "4", "--s", "2", "--t", "3", "--trials", "4", "--seed", "5",
            "--sweep", "flip_prob", "--values", "0.3"]
    alone, paired, unit = (run(capsys, *base, *flags) for flags in (
        ["--noise-d", "3"], ["--noise-prob", "0", "--noise-d", "3"], ["--noise-d", "1"]))
    assert alone[0] == 0 and alone == paired and alone[1] != unit[1]


@pytest.mark.parametrize("flags", [["--detector", "ball", "--l", "2", "--sweep", "k"],
                                   ["--detector", "nn", "--k", "2", "--sweep", "l"]])
def test_k_or_l_sweep_against_the_detector_mode_exits_one(capsys, flags):
    # a ball detector swept over k used to run, labelling radius rows by k
    code, out, err = run(capsys, "sweep", "--topology", "grid", "--side", "10",
                         "--alpha", "0.2", "--q", "0.6", "--s", "1", "--t", "5", *flags,
                         "--values", "1,3", "--trials", "2")
    mode, swept = flags[1], flags[-1]
    assert (code, out, err) == (1, "", f"error: cannot sweep {swept} with a {mode} detector\n")


def test_detect_takes_one_gamma_source(tmp_path, capsys):
    # with both flags the profile used to win silently
    graph_path = write_path_graph(tmp_path, 40)
    profile = tmp_path / "gamma.csv"
    profile.write_text("K,gamma,stderr,trials,topology\n1,0.5,0.01,10,\n")
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=40\n1\n2\n3\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap),
                         "--regime", "dense", "--q", "0.5", "--alpha", "0.1",
                         "--gamma", "0.01", "--gamma-profile", str(profile))
    errors = [line for line in err.splitlines() if line.startswith("error:")]
    assert (code, out) == (1, "") and len(errors) == 1
    assert set(re.findall(r"--gamma[\w-]*", errors[0])) == {"--gamma", "--gamma-profile"}


def test_runs_that_build_no_matched_null_accept_an_infeasible_one(tmp_path, capsys):
    # (f+1)*q*alpha = 1.5 > 1: gamma(K) and the epidemic never read the null
    flags = ["--topology", "grid", "--side", "10", "--alpha", "0.5", "--q", "1", "--f", "2"]
    assert run(capsys, "gamma", *flags, "--trials", "2")[0] == 0
    assert run(capsys, "simulate", *flags, "--scenario", "epidemic")[0] == 0
    code, out, err = run(capsys, "simulate", *flags, "--scenario", "null")
    assert (code, out) == (1, "") and err.startswith("error: (f+1)*q*alpha = 1.5 > 1: ")


def test_fixed_and_auto_sweeps_report_one_infeasible_null_message(capsys):
    flags = ["--topology", "grid", "--side", "10", "--alpha", "0.5", "--q", "1", "--f", "2",
             "--trials", "2", "--sweep", "q", "--values", "1"]
    _, _, fixed = run(capsys, "sweep", *flags, "--detector", "nn")
    _, _, auto = run(capsys, "sweep", *flags, "--detector", "auto")
    message = ("(f+1)*q*alpha = 1.5 > 1: the matched null would need a reporting "
               "probability above one; reduce f, q or alpha\n")
    assert fixed == "error: epidemic trial 0 at q=1: " + message
    assert auto == "error: sweep point q=1: " + message


@pytest.mark.parametrize("mode", ["nn", "ball"])
def test_detect_rejects_s_zero(tmp_path, capsys, mode):
    graph_path = write_path_graph(tmp_path, 6)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=6\n1\n2\n3\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap),
                         "--mode", mode, "--s", "0")
    assert code == 1 and out == "" and "s must be >= 1" in err


@pytest.mark.parametrize("argv, error", [
    (["gamma", "--topology", "grid", "--side", "8", "--alpha", "0.2", "--k-list", "1,x"],
     "--k-list item 'x': expected an integer"),
    (["threshold-sweep", "--topology", "grid", "--side", "8", "--t-values", "1,,2"],
     "--t-values item '': expected a number"),
])
def test_list_flag_errors_name_the_flag_and_item(capsys, argv, error):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {error}\n"


_DENSE_G = ["detect", "--graph", "g.txt", "--snapshot", "s.txt", "--regime", "dense",
            "--alpha", "0.2"]


@pytest.mark.parametrize("argv, error", [
    (["bounds", "--gamma", "0.5", "--q", "0.3", "--alpha", "0.2", "--k", "3",
      "--n-reporting", "-1"], "n_reporting must be >= 0"),
    (["simulate", "--topology", "grid", "--side", "6", "--scenario", "null", "--null-p", "1.5"],
     "p must be in [0, 1]"),
    (["generate", "--topology", "tree", "--degree", "1", "--depth", "2"], "degree must be >= 2"),
    (["generate", "--topology", "tree", "--degree", "2", "--depth", "0"], "depth must be >= 1"),
    (["generate", "--topology", "tree", "--degree", "2", "--depth", "40"],
     "tree of 2199023255551 nodes exceeds supported size"),
    (["generate", "--topology", "grid", "--side", "100000"],
     "grid of 10000000000 nodes exceeds supported size"),
    (["generate", "--topology", "er", "--n", "100", "--p", "1.5"], "p must be in [0, 1]"),
    ([*_DENSE_G, "--q", "0.3", "--gamma", "0.5", "--log-base", "1"],
     "log base must exceed 1 and be finite"),
    ([*_DENSE_G, "--q", "1.5", "--gamma", "0.5"], "q must be in [0, 1]"),
    ([*_DENSE_G, "--q", "0.3", "--gamma-profile", "P.csv"], "P.csv: empty gamma profile"),
    # no trial reads a magnitude with no flip probability: it used to run as if unset
    (["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2", "--q", "0.6", "--trials",
      "3", "--noise-d", "3"], "noise_d needs noise_prob or a flip_prob sweep"),
    # nor does a noise_d sweep with no flip probability: it used to exit 0
    (["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2", "--q", "0.6", "--trials",
      "3", "--sweep", "noise_d", "--values", "1,5"],
     "noise_d needs noise_prob or a flip_prob sweep"),
], ids=["bounds-n-reporting", "simulate-null-p", "tree-degree", "tree-depth", "tree-size",
        "grid-size", "er-p", "detect-log-base", "detect-q", "detect-empty-profile",
        "sweep-noise-d", "sweep-over-noise-d"])
def test_each_input_check_exits_one_with_its_message(tmp_path, monkeypatch, capsys, argv,
                                                     error):
    # refusals of outside input that no other test reached; generate writes no file
    monkeypatch.chdir(tmp_path)
    save_edge_list(gen_grid(2, 12), "g.txt")
    Path("s.txt").write_text("truth=uniform n=144\n3\n40\n")
    Path("P.csv").write_text("K,gamma,stderr,trials,topology\n")
    out_flag = ["--out", "OUT"] if argv[0] == "generate" else []
    assert run(capsys, *argv, *out_flag) == (1, "", f"error: {error}\n")
    assert not Path("OUT").exists()


def test_detect_id_beyond_int64_exits_one_without_traceback(tmp_path):
    (tmp_path / "g.txt").write_text("0 1\n1 9223372036854775808\n")
    (tmp_path / "s.txt").write_text("truth=uniform n=2\n1\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    argv = ["detect", "--graph", "g.txt", "--snapshot", "s.txt"]
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == ("error: g.txt: line 2: expected two non-negative integers, "
                           "got '1 9223372036854775808'\n")


def test_snapshot_header_word_without_equals_exits_one(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=uniform n3\n1\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap))
    assert code == 1 and out == ""
    assert err == "error: malformed snapshot header: 'truth=uniform n3'\n"


def test_bad_flag_value_prints_usage_then_argparse_message(capsys):
    code, out, err = run(capsys, "detect", "--graph", "g.txt", "--snapshot", "s.txt",
                         "--k", "x")
    assert code == 1 and out == ""
    assert err.startswith("usage: hotspot detect ")
    assert err.endswith("\nerror: argument --k: invalid int value: 'x'\n")


def test_bad_env_seed_names_the_variable(capsys, monkeypatch):
    monkeypatch.setenv("HOTSPOT_SEED", "x")
    code, out, err = run(capsys, "simulate", "--topology", "grid", "--side", "5")
    assert code == 1 and out == ""
    assert err == "error: HOTSPOT_SEED='x': expected an integer\n"


@pytest.mark.parametrize("size_flags, error", [
    (["--k", "0"], "k must be >= 1 in nn mode"),
    (["--mode", "ball", "--l", "-1"], "l must be >= 0 in ball mode"),
], ids=["nn", "ball"])
def test_detect_rejects_empty_neighborhood_naming_its_flag(tmp_path, capsys, size_flags,
                                                           error):
    # s defaults to k in nn mode, so the message must blame k, not s
    graph_path = write_path_graph(tmp_path, 6)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=6\n1\n2\n3\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap),
                         *size_flags)
    assert code == 1 and out == "" and err == f"error: {error}\n"


@pytest.mark.parametrize("csv_text, error", [
    ("K,stderr,trials\n1,0.01,10\n", "line 2: column 'gamma': no value"),
    ("K,gamma,stderr,trials\n1,0.9,0.01,10\n2,x,0.01,10\n",
     "line 3: column 'gamma': expected a number, got 'x'"),
    ("K,gamma,stderr,trials,topology\n0,0.9,0.01,10,x\n",
     "line 2: column 'K': expected an integer >= 1, got '0'"),
    ("K,gamma,stderr,trials\n1,0.9,0.01,10\n2,-0.5,0.01,10\n",
     "line 3: column 'gamma': expected a number in [0, 1], got '-0.5'"),
    ("K,gamma,stderr,trials\n1,0.9,0.01,10\n3,nan,0.01,10\n",
     "line 3: column 'gamma': expected a number in [0, 1], got 'nan'"),
    ("K,gamma,stderr,trials\n1,1.5,0.01,10\n",
     "line 2: column 'gamma': expected a number in [0, 1], got '1.5'"),
    ("K,gamma,stderr,trials\n1,0.9,-0.01,10\n",
     "line 2: column 'stderr': expected a finite number >= 0, got '-0.01'"),
    ("K,gamma,stderr,trials\n1,0.9,inf,10\n",
     "line 2: column 'stderr': expected a finite number >= 0, got 'inf'"),
    ("K,gamma,stderr,trials\n1,0.9,0.01,0\n",
     "line 2: column 'trials': expected an integer >= 1, got '0'"),
    ("K,gamma,stderr,trials\n2,0.9,0.01,10\n1,0.5,0.01,10\n2,0.1,0.01,10\n",
     "line 4: column 'K': repeats K=2"),
], ids=["missing-column", "bad-value", "k-zero", "gamma-negative", "gamma-nan",
        "gamma-above-one", "stderr-negative", "stderr-inf", "trials-zero", "k-repeated"])
def test_detect_bad_gamma_profile_names_file_line_and_column(tmp_path, capsys, csv_text,
                                                             error):
    graph_path = write_path_graph(tmp_path, 40)
    gamma_csv = tmp_path / "gamma.csv"
    gamma_csv.write_text(csv_text)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=40\n10\n11\n12\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap),
                         "--regime", "dense", "--q", "0.5", "--alpha", "0.25", "--f", "1",
                         "--gamma-profile", str(gamma_csv))
    assert code == 1 and out == "" and err == f"error: {gamma_csv}: {error}\n"


@pytest.mark.parametrize("flags, error", [
    (["--gamma", "nan"], "gamma must be in (0, 1]"),
    (["--gamma", "0.5", "--log-base", "nan"], "log base must exceed 1 and be finite"),
    (["--gamma", "0.5", "--log-base", "inf"], "log base must exceed 1 and be finite"),
], ids=["gamma-nan", "log-base-nan", "log-base-inf"])
def test_detect_rejects_nan_gamma_and_log_base(tmp_path, flags, error):
    # in a subprocess with a timeout: a NaN that slips through makes the K
    # search run forever
    write_path_graph(tmp_path, 40)
    (tmp_path / "snap.txt").write_text("truth=epidemic n=40\n10\n11\n12\n")
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(hotspot.__file__))}
    argv = ["detect", "--graph", "graph.txt", "--snapshot", "snap.txt", "--regime", "dense",
            "--q", "0.5", "--alpha", "0.1", "--f", "1", *flags]
    done = subprocess.run([sys.executable, "-m", "hotspot.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=30)
    assert done.returncode == 1 and done.stdout == ""
    assert done.stderr == f"error: {error}\n"


@pytest.mark.parametrize("argv", [
    ["simulate", "--topology", "grid", "--side", "5", "--scenario", "epidemic",
     "--alpha", "0.5", "--q", "0.5"],
    ["gamma", "--topology", "grid", "--side", "6", "--alpha", "0.2", "--q", "0.5",
     "--trials", "3"],
    ["bounds", "--gamma", "0.9", "--q", "0.4", "--alpha", "0.1", "--k", "1",
     "--n-reporting", "500"],
], ids=["simulate", "gamma", "bounds"])
def test_nan_f_is_rejected(capsys, argv):
    code, out, err = run(capsys, *argv, "--f", "nan")
    assert code == 1 and out == "" and err == "error: f must be >= 0 and finite\n"


_GRID_SWEEP = ["--topology", "grid", "--side", "8", "--alpha", "0.2", "--q", "0.6",
               "--f", "0.5", "--detector", "nn", "--k", "2", "--sweep", "q",
               "--values", "0.6", "--trials", "2"]


@pytest.mark.parametrize("argv, error", [
    (["detect", "--mode", "nn", "--k", "2", "--t", "nan"], "t must not be NaN"),
    (["sweep", *_GRID_SWEEP, "--t", "nan"], "t must not be NaN"),
    (["threshold-sweep", *_GRID_SWEEP, "--t-values", "1,nan"],
     "t_values must not hold NaN"),
], ids=["detect", "sweep", "threshold-sweep"])
def test_nan_decision_threshold_is_rejected(tmp_path, capsys, argv, error):
    if argv[0] == "detect":
        snap = tmp_path / "snap.txt"
        snap.write_text("truth=epidemic n=40\n10\n11\n12\n")
        argv = [*argv, "--graph", write_path_graph(tmp_path, 40), "--snapshot", str(snap)]
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {error}\n"


def test_sweep_rejects_nan_scaling_exponent(capsys):
    code, out, err = run(capsys, "sweep", *_GRID_SWEEP, "--t", "1", "--q-exp", "nan")
    assert code == 1 and out == "" and err == "error: q_exp must be finite\n"


@pytest.mark.parametrize("argv", [
    ["generate", "--topology", "powerlaw", "--n", "100", "--out", "x.txt"],
    ["gamma", "--topology", "powerlaw", "--n", "200", "--alpha", "0.2", "--q", "0.5",
     "--trials", "2"],
], ids=["generate", "gamma"])
def test_nan_power_law_exponent_is_rejected(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv, "--exponent", "nan")
    assert code == 1 and out == "" and err == "error: exponent must be > 2\n"
    assert not (tmp_path / "x.txt").exists()


def test_snapshot_header_negative_n_exits_one(tmp_path, capsys):
    graph_path = write_path_graph(tmp_path)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=uniform n=-3\n")
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap))
    assert code == 1 and out == ""
    assert err == "error: malformed snapshot header: 'truth=uniform n=-3'\n"


def test_config_line_without_key_names_the_line(tmp_path, capsys):
    cfg = tmp_path / "nokey.cfg"
    cfg.write_text("topology=grid\n=5\n")
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == "" and err == f"error: {cfg}: line 2: expected key=value\n"


@pytest.mark.parametrize("argv, error", [
    (["generate", "--topology", "er", "--n", "0", "--out", "x.txt"], "n must be >= 1"),
    (["gamma", "--topology", "er", "--n", "0", "--alpha", "0.1"], "n must be >= 1"),
    (["sweep", "--topology", "er", "--n", "0", "--values", "0.5", "--trials", "2"],
     "n must be >= 1"),
], ids=["generate", "gamma", "sweep"])
def test_er_with_zero_nodes_exits_one_with_the_generator_message(
        tmp_path, monkeypatch, capsys, argv, error):
    # the default p = 2/n must not divide by zero before the generator's check
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == "" and err == f"error: {error}\n"
    assert not (tmp_path / "x.txt").exists()


@pytest.mark.parametrize("argv, error", [
    (["--topology", "er", "--n", "0", "--values", "0.5"], "n must be >= 1"),
    (["--topology", "powerlaw", "--n", "5", "--values", "0.5"], "n must be >= 10"),
    (["--topology", "powerlaw", "--n", "100", "--sweep", "n", "--values", "200,5"],
     "sweep point n=5: n must be >= 10"),
    (["--topology", "powerlaw", "--n", "100", "--exponent", "1.5", "--values", "0.5"],
     "exponent must be > 2"),
], ids=["er", "powerlaw", "powerlaw-swept-n", "powerlaw-exponent"])
def test_bad_random_topology_is_a_spec_error_not_a_trial_failure(
        tmp_path, monkeypatch, capsys, argv, error):
    # the generator's own message with no trial prefix, as for a grid's side
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "sweep", *argv, "--trials", "2")
    assert code == 1 and out == "" and err == f"error: {error}\n"


def test_grid_dim_zero_is_rejected_not_defaulted(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "generate", "--topology", "grid", "--side", "3",
                         "--dim", "0", "--out", "x.txt")
    assert code == 1 and out == "" and err == "error: dim must be >= 1\n"
    assert not (tmp_path / "x.txt").exists()


def test_power_law_exponent_zero_is_rejected_not_defaulted(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "generate", "--topology", "powerlaw", "--n", "100",
                         "--exponent", "0", "--out", "x.txt")
    assert code == 1 and out == "" and err == "error: exponent must be > 2\n"
    assert not (tmp_path / "x.txt").exists()


def test_generated_er_giant_is_the_built_graphs_giant(tmp_path, capsys):
    # each generated kind's giant is cut from its sampled pairs, and must
    # equal the giant of the graph those pairs build (a grid draws nothing,
    # so it takes no --seed)
    for flags, built in [
            (["er", "--n", "3000", "--seed", "4"], gen_erdos_renyi(3000, 2 / 3000, 4)),
            (["powerlaw", "--n", "3000", "--seed", "4"], gen_power_law(3000, 2.5, 4)),
            (["grid", "--side", "9"], gen_grid(2, 9))]:
        out = tmp_path / f"{flags[0]}_giant.txt"
        code, _, err = run(capsys, "generate", "--topology", *flags, "--giant",
                           "--out", str(out))
        assert code == 0, err
        want = tmp_path / "want.txt"
        save_edge_list(built.largest_component()[0], want)
        assert out.read_bytes() == want.read_bytes()


def test_detect_reads_a_plain_edge_list_named_gz(tmp_path, capsys):
    # np.loadtxt would decompress a path named .gz; generate writes plain text
    gz, txt, snap = (str(tmp_path / name) for name in ("g.gz", "g.txt", "snap.txt"))
    code, _, err = run(capsys, "generate", "--topology", "er", "--n", "3000", "--giant",
                       "--seed", "4", "--out", gz)
    assert code == 0, err
    Path(txt).write_bytes(Path(gz).read_bytes())
    code, _, err = run(capsys, "simulate", "--graph", txt, "--scenario", "epidemic",
                       "--alpha", "0.05", "--seed", "4", "--out", snap)
    assert code == 0, err
    rows = [run(capsys, "detect", "--graph", graph, "--snapshot", snap)[:2]
            for graph in (gz, txt)]
    assert rows[0] == rows[1] and rows[0][0] in (0, 2) and rows[0][1].count(",") == 5


def test_detect_exits_one_when_numpy_rejects_a_file_with_no_bad_line(tmp_path, capsys,
                                                                    monkeypatch):
    # the edge list is read twice and may change in between: no traceback
    graph_path = write_path_graph(tmp_path)
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=uniform n=5\n1\n")

    def reject(*args, **kwargs):
        raise ValueError("changed")
    monkeypatch.setattr(np, "loadtxt", reject)
    code, out, err = run(capsys, "detect", "--graph", graph_path, "--snapshot", str(snap))
    assert code == 1 and out == ""
    assert err.startswith(f"error: {graph_path}: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags, error", [
    (["--detector", "ball", "--k", "5"], "detector ball does not use k"),
    (["--detector", "nn", "--l", "3"], "detector nn does not use l"),
    (["--detector", "auto", "--k", "2", "--l", "3"],
     "detector auto does not use k or l or s or t"),
], ids=["ball-k", "nn-l", "auto"])
def test_sweep_refuses_a_detector_size_its_mode_does_not_read(capsys, flags, error):
    code, out, err = run(capsys, "sweep", "--topology", "grid", "--side", "10",
                         "--alpha", "0.2", "--q", "0.6", *flags, "--s", "1", "--t", "5",
                         "--trials", "2", "--values", "0")
    assert code == 1 and out == "" and err == f"error: {error}\n"


def test_detector_flag_drops_the_config_size_its_kind_does_not_read(tmp_path, capsys):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=grid\nside=8\nalpha=0.2\nq=0.6\ndetector=nn\nk=3\n"
                   "s=1\nt=2\nvalues=0\ntrials=2\n")
    code, overlaid, err = run(capsys, "sweep", "--config", str(cfg), "--detector", "ball")
    assert code == 0, err
    code, direct, _ = run(capsys, "sweep", "--topology", "grid", "--side", "8",
                          "--alpha", "0.2", "--q", "0.6", "--detector", "ball", "--s", "1",
                          "--t", "2", "--values", "0", "--trials", "2")
    assert code == 0 and overlaid == direct
    # a config that names the other size for its own kind is refused
    cfg.write_text(cfg.read_text().replace("detector=nn", "detector=ball"))
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 1 and out == "" and err == "error: detector ball does not use k\n"


@pytest.mark.parametrize("flags, error", [
    (["--mode", "ball", "--k", "7"], "--mode ball does not use --k"),
    (["--l", "2"], "--mode nn does not use --l"),
    (["--regime", "dense", "--q", "0.5", "--alpha", "0.1", "--gamma", "0.5", "--k", "2"],
     "--regime dense does not use --k"),
    # a gamma source alone implies the auto regime
    (["--gamma", "0.5", "--k", "3"], "--regime auto does not use --k"),
    # --mode, --s and --t used to be dropped under a prescription
    (["--regime", "small", "--mode", "ball"], "--regime small does not use --mode"),
    (["--gamma", "0.5", "--s", "9"], "--regime auto does not use --s"),
    (["--regime", "auto", "--t", "99"], "--regime auto does not use --t"),
], ids=["ball-k", "nn-l", "regime-k", "implied-auto-k", "regime-mode", "regime-s",
        "regime-t"])
def test_detect_refuses_a_size_its_mode_does_not_read(tmp_path, capsys, flags, error):
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=6\n1\n2\n3\n")
    code, out, err = run(capsys, "detect", "--graph", write_path_graph(tmp_path, 6),
                         "--snapshot", str(snap), *flags)
    assert code == 1 and out == "" and err == f"error: {error}\n"


@pytest.mark.parametrize("flags", [
    ["--alpha", "0.9"], ["--q", "0.1"], ["--family", "tree"], ["--beta", "0.3"],
    ["--f", "7"], ["--log-base", "2"], ["--rho", "1"], ["--mu", "2"], ["--f", "0"],
], ids=lambda flags: "-".join(flags))
@pytest.mark.parametrize("mode", ["nn", "ball"])
def test_fixed_detect_refuses_a_prescription_flag(tmp_path, capsys, flags, mode):
    # a fixed detector (--k / --l, --s, --t) used to print the same row with
    # or without each of these, which only a prescription reads; --family is
    # a gamma source, so it makes the run a prescription, which refuses the size
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=6\n1\n2\n3\n")
    size = ["--k", "2"] if mode == "nn" else ["--mode", "ball", "--l", "2"]
    code, out, err = run(capsys, "detect", "--graph", write_path_graph(tmp_path, 6),
                         "--snapshot", str(snap), *size, "--s", "2", "--t", "3", *flags)
    error = (f"--regime auto does not use {size[0]}" if flags[0] == "--family"
             else f"--mode {mode} does not use {flags[0]}")
    assert (code, out, err) == (1, "", f"error: {error}\n")


def test_prescribed_detect_fills_in_the_f_and_family_defaults(tmp_path, capsys):
    # --f defaults to None so that a fixed detect can refuse it; a
    # prescription reads it as 0. --family has no default: it is a gamma
    # source, and --family grid reads as --gamma 1
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=40\n1\n2\n3\n20\n")
    base = ["detect", "--graph", write_path_graph(tmp_path, 40), "--snapshot", str(snap),
            "--regime", "dense", "--q", "0.5", "--alpha", "0.1"]
    runs = [run(capsys, *base, "--gamma", "0.5"),
            run(capsys, *base, "--gamma", "0.5", "--f", "0")]
    assert runs[0] == runs[1] and runs[0][0] in (0, 2) and runs[0][1]
    grid = run(capsys, *base, "--family", "grid")
    assert grid == run(capsys, *base, "--gamma", "1") and "gamma=1 " in grid[2]


@pytest.mark.parametrize("regime, flags", [
    ("small", ["--gamma", "0.5"]), ("small", ["--gamma-profile", "gamma.csv"]),
    ("small", ["--gamma-fallback"]), ("small", ["--q", "0.9"]),
    ("small", ["--alpha", "0.05"]), ("small", ["--f", "0"]),
    ("small", ["--family", "tree"]), ("small", ["--log-base", "2"]),
    ("dense", ["--beta", "0.2"]), ("dense", ["--rho", "0.1"]), ("dense", ["--mu", "0.9"]),
], ids=lambda value: "-".join(value) if isinstance(value, list) else value)
def test_detect_refuses_a_flag_its_regime_does_not_read(tmp_path, capsys, regime, flags):
    # each used to print the same row with or without the flag: the small
    # regime reads only beta, rho and mu, the dense one none of them
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=6\n1\n2\n3\n")
    dense = ["--q", "0.5", "--alpha", "0.1", "--gamma", "0.5"] if regime == "dense" else []
    code, out, err = run(capsys, "detect", "--graph", write_path_graph(tmp_path, 6),
                         "--snapshot", str(snap), "--regime", regime, *dense, *flags)
    assert (code, out, err) == (1, "", f"error: --regime {regime} does not use {flags[0]}\n")


@pytest.mark.parametrize("prescription", [
    ["--regime", "auto", "--gamma", "0.5"], ["--regime", "auto", "--gamma-profile", "PROFILE"],
    ["--regime", "auto", "--gamma-fallback"], ["--gamma", "0.5"],
    ["--regime", "auto", "--family", "grid"], ["--family", "tree"],
], ids=["auto-gamma", "auto-profile", "auto-fallback", "bare-gamma", "auto-family",
        "bare-family"])
def test_auto_detect_accepts_every_prescription_flag(tmp_path, capsys, prescription):
    # auto may take either regime, so it reads the flags of both; --family
    # is one of the gamma sources, so it is given only as the prescription
    profile = tmp_path / "gamma.csv"
    profile.write_text("K,gamma,stderr,trials,topology\n1,0.5,0.01,10,\n")
    prescription = [str(profile) if flag == "PROFILE" else flag for flag in prescription]
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=40\n1\n2\n3\n20\n")
    code, out, err = run(capsys, "detect", "--graph", write_path_graph(tmp_path, 40),
                         "--snapshot", str(snap), *prescription, "--q", "0.5",
                         "--alpha", "0.1", "--f", "0", "--log-base", "2",
                         "--beta", "0.3", "--rho", "0.1", "--mu", "0.05")
    assert code in (0, 2) and out.count(",") == 5 and "regime" in err, err


@pytest.mark.parametrize("source", [["--gamma", "0.5"], ["--gamma-profile", "gamma.csv"],
                                    ["--gamma-fallback"]], ids=lambda flags: flags[0])
def test_family_is_one_of_the_exclusive_gamma_sources(capsys, source):
    code, out, err = run(capsys, "detect", "--graph", "g.txt", "--snapshot", "s.txt",
                         "--family", "tree", *source)
    assert (code, out) == (1, "")
    assert err.endswith(f"error: argument {source[0]}: not allowed with argument --family\n")


@pytest.mark.parametrize("argv, flag", [
    (["detect", "--graph", "g.txt", "--snapshot", "s.txt", "--seed", "3"], "--seed 3"),
    (["bounds", "--gamma", "0.5", "--q", "0.3", "--alpha", "0.2", "--k", "1",
      "--n-reporting", "5", "--seed", "3"], "--seed 3"),
    (["describe", "--seed", "3"], "--seed 3"),
    (["threshold-sweep", "--topology", "grid", "--side", "5", "--t-values", "1", "--t", "9"],
     "--t 9"),
    (["sweep", "--topology", "grid", "--side", "5", "--val", "3"], "--val 3"),
], ids=["detect-seed", "bounds-seed", "describe-seed", "threshold-sweep-t", "sweep-prefix"])
def test_argparse_refuses_a_flag_no_path_reads(capsys, argv, flag):
    # no run reads these: detect, bounds and describe draw nothing, a threshold
    # sweep's thresholds are its --t-values, and a prefix (--val) is not a flag
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "") and err.endswith(f"error: unrecognized arguments: {flag}\n")


def test_a_t_sweep_with_no_values_runs_at_the_given_t(tmp_path, capsys):
    # t is the default sweep, so with no values the given t is its one point
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=grid\nside=8\nalpha=0.2\nq=0.6\ndetector=nn\nk=3\ns=2\n"
                   "t=5\ntrials=2\n")
    code, given, err = run(capsys, "sweep", "--config", str(cfg))
    assert code == 0, err
    assert given.splitlines()[1].startswith("5,2,")
    assert given == run(capsys, "sweep", "--config", str(cfg), "--sweep", "t", "--values", "5")[1]
    never = run(capsys, "sweep", "--config", str(cfg), "--t", "1000")[1]
    assert never.splitlines()[1].startswith("1000.0,2,0,1,")  # type I 0, type II 1
    cfg.write_text(cfg.read_text().replace("t=5\n", ""))
    assert run(capsys, "sweep", "--config", str(cfg))[1].splitlines()[1].startswith("0,2,")


def test_threshold_sweep_drops_the_configs_t(tmp_path, capsys):
    # each row's threshold is a --t-values entry, so a config's t= is dropped
    # as --detector drops the keys its kind does not read: auto, which refuses
    # a t of its own, runs
    cfg = tmp_path / "exp.cfg"
    body = ("topology=grid\nside=8\nalpha=0.2\nq=0.6\ndetector=auto\nsweep=q\nvalues=0.6\n"
            "trials=2\n")
    cfg.write_text(body)
    code, plain, err = run(capsys, "threshold-sweep", "--config", str(cfg), "--t-values", "0,3")
    assert code == 0, err
    cfg.write_text(body + "t=5\n")
    assert run(capsys, "threshold-sweep", "--config", str(cfg), "--t-values", "0,3") == (
        0, plain, "")


@pytest.mark.parametrize("flags, keys", [
    (["--values", "5"], ""),
    (["--sweep", "t", "--values", "1,3"], ""),
    ([], "values=5\n"),
    ([], "sweep=t\nvalues=5\n"),
], ids=["flag", "flag-sweep-t", "config", "config-sweep-t"])
def test_threshold_sweep_refuses_values_for_a_t_sweep(tmp_path, capsys, flags, keys):
    # every row re-thresholds at a --t-values entry, so a swept t only
    # reseeded the trials: --values 5 and --values 7 printed different rows
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=grid\nside=8\nalpha=0.2\nq=0.6\ntrials=3\n" + keys)
    code, out, err = run(capsys, "threshold-sweep", "--config", str(cfg), *flags,
                         "--t-values", "1,3")
    assert (code, out) == (1, "")
    assert err == "error: threshold-sweep takes its thresholds from --t-values, not a t sweep\n"


def test_detector_auto_drops_the_configs_s_and_t_and_refuses_them_as_its_own(tmp_path, capsys):
    # both used to be read and then dropped for auto: the CSV was the same
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("topology=grid\nside=10\nalpha=0.2\nq=0.6\ndetector=nn\nk=3\n"
                   "s=3\nt=7\nsweep=q\nvalues=0.6\ntrials=2\n")
    code, overlaid, err = run(capsys, "sweep", "--config", str(cfg), "--detector", "auto")
    assert code == 0, err
    code, direct, _ = run(capsys, "sweep", "--topology", "grid", "--side", "10",
                          "--alpha", "0.2", "--q", "0.6", "--detector", "auto",
                          "--sweep", "q", "--values", "0.6", "--trials", "2")
    assert code == 0 and overlaid == direct
    cfg.write_text(cfg.read_text().replace("detector=nn\nk=3\n", "detector=auto\n"))
    code, out, err = run(capsys, "sweep", "--config", str(cfg))
    assert (code, out, err) == (1, "", "error: detector auto does not use s or t\n")


def test_a_sweep_with_no_values_runs_at_the_swept_keys_value_or_default(capsys):
    # a q sweep with no values used to run at q = 0, where nothing reports
    base = ["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2", "--q", "0.6",
            "--trials", "1"]
    given = run(capsys, *base, "--sweep", "q")
    assert given[0] == 0 and given[1].splitlines()[1].startswith("0.6,1,")
    assert given == run(capsys, *base, "--sweep", "q", "--values", "0.6")
    # an unset key runs at its default: k = 1 (it ran at k = 0 and failed)
    assert run(capsys, *base, "--sweep", "k") == run(capsys, *base, "--sweep", "k",
                                                     "--values", "1")
    # p's default is 2/n, not one number, so a p sweep needs values or a p
    code, out, err = run(capsys, "sweep", "--topology", "er", "--n", "50", "--sweep", "p",
                         "--trials", "1")
    assert (code, out, err) == (1, "", "error: sweep p needs values or a given p\n")


def test_an_auto_sweep_with_no_sweep_key_runs_one_point_at_its_alpha(capsys):
    # the default sweep was t, which auto does not read, so this exited 1 with
    # "cannot sweep a detector field with detector='auto'"
    base = ["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2", "--q", "0.6",
            "--detector", "auto", "--trials", "1"]
    code, out, err = run(capsys, *base)
    assert code == 0, err
    assert out.splitlines()[1].startswith("0.2,1,")
    assert (code, out, err) == run(capsys, *base, "--sweep", "alpha", "--values", "0.2")


@pytest.mark.parametrize("kind", [["grid", "--side", "5"],
                                  ["tree", "--degree", "2", "--depth", "3"]], ids=["grid", "tree"])
def test_generate_refuses_a_seed_for_a_graph_that_draws_nothing(tmp_path, capsys, kind):
    # --seed 4 and --seed 9 used to write the same file
    out_path = tmp_path / "g.txt"
    code, out, err = run(capsys, "generate", "--topology", *kind, "--seed", "4",
                         "--out", str(out_path))
    assert (code, out, err) == (1, "", f"error: --topology {kind[0]} does not use --seed\n")
    assert not out_path.exists()


@pytest.mark.parametrize("flag", ["--alpha", "--q", "--f"])
def test_simulate_null_p_refuses_the_matched_null_flags(tmp_path, capsys, flag):
    # with --null-p the snapshot used to be the same with or without these
    code, out, err = run(capsys, "simulate", "--graph", write_path_graph(tmp_path, 10),
                         "--scenario", "null", "--null-p", "0.05", flag, "0.3")
    assert (code, out, err) == (
        1, "", f"error: --scenario null with --null-p does not use {flag}\n")


@pytest.mark.parametrize("argv", [["simulate"], ["gamma", "--alpha", "0.1"]])
def test_a_graph_command_without_a_graph_source_exits_one(capsys, argv):
    assert run(capsys, *argv) == (1, "", "error: need --graph FILE or --topology FAMILY\n")


@pytest.mark.parametrize("topology", [[], ["--topology", "file"]], ids=["none", "file"])
def test_generate_without_a_generated_topology_exits_one(tmp_path, capsys, topology):
    code, out, err = run(capsys, "generate", *topology, "--out", str(tmp_path / "g.txt"))
    assert (code, out, err) == (1, "", "error: generate needs --topology er|grid|tree|powerlaw\n")


def test_gamma_fallback_without_alpha_exits_one(tmp_path, capsys):
    snap = tmp_path / "snap.txt"
    snap.write_text("truth=epidemic n=10\n2\n3\n4\n")
    code, out, err = run(capsys, "detect", "--graph", write_path_graph(tmp_path, 10),
                         "--snapshot", str(snap), "--regime", "dense", "--q", "0.3",
                         "--gamma-fallback")
    assert (code, out, err) == (1, "", "error: --gamma-fallback needs --alpha\n")


def test_a_noise_sweep_with_no_noise_key_runs_on_a_zero_base_noise(capsys):
    # the swept point sets flip_prob on DistanceNoise(), as --noise-prob 0 would
    base = ["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2", "--q", "0.6",
            "--k", "3", "--s", "2", "--t", "2", "--trials", "2", "--sweep", "flip_prob",
            "--values", "0,0.3"]
    bare = run(capsys, *base)
    assert bare[0] == 0 and bare == run(capsys, *base, "--noise-prob", "0")


def test_a_sweep_value_that_is_no_number_names_the_sweep(capsys):
    code, out, err = run(capsys, "sweep", "--topology", "grid", "--side", "8",
                         "--sweep", "q", "--values", "abc", "--trials", "1")
    assert (code, out, err) == (1, "", "error: sweep q: value 'abc' is not a number\n")


# -- every option a command takes is read or refused -------------------------------
#
# For each command and each row of harness.KEYS the command takes as a flag
# (--graph is the row path), one run with the flag at a non-default value
# must exit 1 naming it, or change some output byte. GAPS is a graph file
# with a gap in its ids (10..19) and two components, where --compact and
# --giant can matter; OUT is an output file in the working directory.

_SOURCES = {"er": ["--topology", "er", "--n", "60"], "grid": ["--topology", "grid", "--side", "8"],
            "tree": ["--topology", "tree", "--degree", "2", "--depth", "4"],
            "file": ["--graph", "GAPS"]}
_SCENARIO = ["--alpha", "0.2", "--q", "0.6"]
_RUNS = {"generate": ["--out", "OUT"], "simulate": _SCENARIO,
         "gamma": ["--alpha", "0.2", "--trials", "3"],
         "sweep": [*_SCENARIO, "--t", "2", "--trials", "3"],
         "threshold-sweep": [*_SCENARIO, "--trials", "3", "--sweep", "q", "--t-values", "1,3"]}
_DETECT_GRID = ["detect", "--graph", "GRID", "--snapshot", "SNAP"]
_DETECT_DENSE = [*_DETECT_GRID, "--regime", "dense", "--q", "0.3", "--alpha", "0.2", "--f", "8",
                 "--gamma", "0.4"]
_BOUNDS = ["bounds", "--gamma", "0.5", "--q", "0.3", "--alpha", "0.2", "--k", "3",
           "--n-reporting", "100"]
# ROADMAP item 11: gamma(K) depends on the infection alone, yet gamma takes
# --q and --f, which perfbench's calibrate_gamma CLI check passes
_EXEMPT = {("gamma", "q"), ("gamma", "f")}


def _hole_cases():
    cases = []
    for command, run_flags in _RUNS.items():
        def add(key, source, flags, extra=(), run_flags=run_flags, tag=None):
            cases.append((f"{command}-{key}-{tag or source}", command, key,
                          [command, *_SOURCES[source], *run_flags, *extra], flags))
        spare = "er" if command == "generate" else "file"  # generate writes no file graph
        add("topology", "er", ["--topology", "powerlaw"])
        add("n", "er", ["--n", "80"])
        add("p", "er", ["--p", "0.1"])
        add("dim", "grid", ["--dim", "1"])
        add("side", "grid", ["--side", "9"])
        add("degree", "tree", ["--degree", "3"])
        add("depth", "tree", ["--depth", "3"])
        add("exponent", "er", ["--exponent", "3"])
        add("compact", spare, ["--compact"])
        add("giant", spare, ["--giant"])
        for source in ("er", "grid", "tree"):
            add("seed", source, ["--seed", "5"])
        if command == "generate":
            continue
        add("path", "grid", ["--graph", "GAPS"])
        for key, value in (("alpha", "0.3"), ("q", "0.8"), ("f", "1.5")):
            if (command, key) not in _EXEMPT:
                add(key, "grid", [f"--{key}", value])
        if command == "simulate":
            for key in ("alpha", "q", "f"):
                add(key, "grid", [f"--{key}", "0.3"],
                    run_flags=["--scenario", "null", "--null-p", "0.05"], tag="null_p")
        if command == "gamma":
            add("trials", "grid", ["--trials", "4"])
        if command in ("sweep", "threshold-sweep"):
            for key, flags in (("num_seeds", ["--num-seeds", "2"]),
                               ("alpha_exp", ["--alpha-exp", "-0.1"]),
                               ("q_exp", ["--q-exp", "-0.1"]),
                               ("detector", ["--detector", "ball"]), ("k", ["--k", "3"]),
                               ("l", ["--l", "3"]), ("s", ["--s", "2"]),
                               ("sweep", ["--sweep", "alpha"]), ("values", ["--values", "0.8"]),
                               ("trials", ["--trials", "4"]),
                               ("noise_prob", ["--noise-prob", "0.3"])):
                add(key, "grid", flags)
            add("f_exp", "grid", ["--f-exp", "0.2"], ["--f", "0.5"])  # f = 0 scales to 0
            add("noise_d", "grid", ["--noise-d", "2"], ["--noise-prob", "0.3"])
        if command == "sweep":
            add("t", "grid", ["--t", "5"])
    for key, flags in (("mode", ["--mode", "ball"]), ("k", ["--k", "3"]), ("l", ["--l", "3"]),
                       ("s", ["--s", "2"]), ("t", ["--t", "5"]), ("q", ["--q", "0.5"]),
                       ("alpha", ["--alpha", "0.5"]), ("f", ["--f", "1"]),
                       ("beta", ["--beta", "0.5"]), ("rho", ["--rho", "0.5"]),
                       ("mu", ["--mu", "0.5"])):
        cases.append((f"detect-{key}-fixed", "detect", key, _DETECT_GRID, flags))
    cases.append(("detect-regime-fixed", "detect", "regime", _DETECT_GRID, ["--regime", "small"]))
    for key, flags in (("gamma", ["--gamma", "0.5"]), ("gamma_profile", ["--gamma-profile", "P"]),
                       ("gamma_fallback", ["--gamma-fallback"]),
                       ("family", ["--family", "grid"]), ("log_base", ["--log-base", "2"]),
                       ("q", ["--q", "0.5"]), ("alpha", ["--alpha", "0.3"]), ("f", ["--f", "2"]),
                       ("beta", ["--beta", "0.5"])):
        cases.append((f"detect-{key}-dense", "detect", key, _DETECT_DENSE, flags))
    gaps = ["detect", "--graph", "GAPS", "--snapshot", "GAPS_SNAP"]
    cases += [("detect-compact-gaps", "detect", "compact", gaps, ["--compact"]),
              ("detect-path-gaps", "detect", "path", gaps, ["--graph", "GRID"])]
    for key, flags in (("gamma", ["--gamma", "0.6"]), ("q", ["--q", "0.4"]),
                       ("alpha", ["--alpha", "0.3"]), ("f", ["--f", "1"]), ("k", ["--k", "2"])):
        cases.append((f"bounds-{key}", "bounds", key, _BOUNDS, flags))
    return cases


_HOLE_CASES = _hole_cases()


def _taken_keys(command) -> set:
    """The key-table rows ``command`` takes as flags."""
    subparsers = next(action for action in build_parser()._actions if action.choices)
    flags = [flag for action in subparsers.choices[command]._actions
             for flag in action.option_strings if flag.startswith("--")]
    return {"path" if flag == "--graph" else flag[2:].replace("-", "_")
            for flag in flags} & set(harness.KEYS)


@pytest.mark.parametrize("command", [*_RUNS, "detect", "bounds", "describe"])
def test_every_option_a_command_takes_has_a_hole_case(command):
    covered = {key for _, cmd, key, *_ in _HOLE_CASES if cmd == command}
    assert covered | {key for cmd, key in _EXEMPT if cmd == command} == _taken_keys(command)


def test_a_flag_named_after_a_key_takes_its_help_and_choices_from_the_row():
    # such flags come from their harness.KEYS row, with no default of their
    # own; gamma's --trials alone is declared by hand: its 200 realizations
    # are the command's default, not a sweep's trials_per_point
    subparsers = next(action for action in build_parser()._actions if action.choices)
    for command, parser in subparsers.choices.items():
        for action in parser._actions:
            key = "path" if action.dest == "graph" else action.dest
            if key in harness.KEYS and (command, key) != ("gamma", "trials"):
                row = harness.KEYS[key]
                assert (action.help, action.choices, action.default) == (
                    row.help, row.choices, False if row.cast is bool else None), (command, key)
    assert subparsers.choices["gamma"]._option_string_actions["--trials"].default == 200


def _hole_inputs(tmp_path) -> dict[str, str]:
    grid = gen_grid(2, 12)
    save_edge_list(grid, tmp_path / "grid.txt")
    snap, _ = scenario.make_epidemic_snapshot(grid, scenario.ScenarioParams(0.2, 0.6, 0.5), 5)
    # a 2x5 grid on ids 0..9 and a path on ids 20..25: ids 10..19 are isolated
    rows = ([(i, i + 1) for i in range(9) if i != 4] + [(i, i + 5) for i in range(5)]
            + [(i, i + 1) for i in range(20, 25)])
    texts = {"gaps.txt": "".join(f"{u} {v}\n" for u, v in rows),
             "gaps_snap.txt": "truth=epidemic n=26\n1\n2\n3\n11\n12\n13\n",
             "snap.txt": snap.to_text()}
    for name, text in texts.items():
        (tmp_path / name).write_text(text)
    return {"GRID": "grid.txt", "SNAP": "snap.txt", "GAPS": "gaps.txt",
            "GAPS_SNAP": "gaps_snap.txt"}


def _outcome(capsys, argv):
    Path("OUT").unlink(missing_ok=True)
    code = main(argv)
    out, err = capsys.readouterr()
    return code, out, err, Path("OUT").read_bytes() if Path("OUT").exists() else b""


@pytest.mark.parametrize("command, key, base, flags", [case[1:] for case in _HOLE_CASES],
                         ids=[case[0] for case in _HOLE_CASES])
def test_an_option_at_a_non_default_value_is_read_or_refused(tmp_path, monkeypatch, capsys,
                                                             command, key, base, flags):
    monkeypatch.chdir(tmp_path)
    files = _hole_inputs(tmp_path)
    before = _outcome(capsys, [files.get(arg, arg) for arg in base])
    assert before[0] in (0, 2), before[2]
    after = _outcome(capsys, [files.get(arg, arg) for arg in (*base, *flags)])
    error = after[2].splitlines()[-1] if after[0] == 1 else ""
    named = flags[0] in error or re.search(rf"\b{key}\b", error)
    assert named if after[0] == 1 else after != before, (after[0], error)
