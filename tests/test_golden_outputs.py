"""Golden bytes: sha256 digests of generated graphs, snapshot files and
fixed-seed sweep CSVs.

A refactor of the graph layer or the harness must leave these bytes as they
are. A digest that changes on purpose (a new generator, a changed rule) is
updated in the same change, with the reason written down beside it.
"""

import hashlib

import pytest

from hotspot.calibration import reporting_probabilities
from hotspot.cli import main
from hotspot.detector import DetectorConfig
from hotspot.graph import (Graph, _erdos_renyi_pairs, _giant_of_pairs, _power_law_pairs,
                           gen_erdos_renyi, gen_grid, gen_power_law, gen_tree, load_edge_list,
                           save_edge_list)
from hotspot.harness import (DistanceNoise, ExperimentSpec, ScenarioRule,
                             TopologySpec, run_sweep, threshold_sweep)
from hotspot.scenario import ScenarioParams, generate_uniform_null, make_epidemic_snapshot


def csr_digest(g) -> str:
    h = hashlib.sha256(f"n={g.n}".encode())
    for arr in (g._indptr, g._indices):
        h.update(f"|{arr.dtype.str}{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def er_file(tmp_path):
    path = tmp_path / "er.txt"
    save_edge_list(gen_erdos_renyi(300, 1.5 / 300, 11), path)
    return str(path)


def sparse_id_file(tmp_path):
    path = tmp_path / "sparse_ids.txt"
    path.write_text("# n=5\n10 400\n400 7\n7 10\n99 3\n3 3\n400 10\n12 99\n")
    return str(path)


GRAPHS = {
    "er_dense": (lambda tmp: gen_erdos_renyi(400, 0.01, 5),
                 "d1785fa4694bd703eeb37bc9835988cea09bbbe121e8a60641ae47d5722a5db4"),
    "er_sparse": (lambda tmp: gen_erdos_renyi(5000, 2.0 / 5000, 6),
                  "685d524cc73685e8423ee07eaa26446bfec660ae653b1893af3366a4e387186c"),
    # the retry draw overshoots m, so rng.choice trims the keys
    "er_sparse_8000": (lambda tmp: gen_erdos_renyi(8000, 2.0 / 8000, 12),
                       "633b3da95265e757393438c4bcb8f8c74c9d787b861e235fb8957d1530d3e1e6"),
    "er_complete": (lambda tmp: gen_erdos_renyi(40, 1.0, 3),
                    "258e7be6ca35b9d9d3248c2042c9a74d26c5204b0fb335fea2f1c37623699a51"),
    "grid": (lambda tmp: gen_grid(3, 5),
             "27e9dba935bf445bcaa38f0114d01e03d34a215fbe0d0b57755e3b5d2b74cd45"),
    "grid_1d": (lambda tmp: gen_grid(1, 9),
                "61051fc5fef3c912b1e79b4fca0fc65d3964c3f1030af9cd8cf263b789c66976"),
    "grid_2d": (lambda tmp: gen_grid(2, 7),
                "0510e227be622b0aff839db0e254d16563ae3991d790971e028ba4b4041a325c"),
    "grid_3d_side2": (lambda tmp: gen_grid(3, 2),
                      "657313147637c6b812e35957b90db41e41046dde8729d79617b90e8c05b4c0da"),
    "tree": (lambda tmp: gen_tree(3, 4),
             "5b8308a446c7cea4bde45d689e3ce6a068886bdb0cda37e3813e9360c9dbbb16"),
    "powerlaw": (lambda tmp: gen_power_law(2000, 2.5, 8),
                 "ea03072391aef7ff75b9c9320851ccd2448522e02cddeb569f905f2d6dcf7a16"),
    "largest_component": (lambda tmp: gen_erdos_renyi(3000, 1.5 / 3000, 9).largest_component()[0],
                          "21070dfc389f9a4a119f42865e3cd7a95d53fd4cf3b15dc52848a7b60eb08c22"),
    # an er giant cut from its sampled pairs (_giant_of_pairs), not built whole
    "er_giant_pairs": (lambda tmp: TopologySpec(kind="er", n=20_000, giant=True).build(3),
                       "1dfc812a4452629ad18ee8022029696566ba10b411beeca32d65bbdb1a7c5a8a"),
    # a power-law giant cut from its stub pairs, self-loops and repeats in
    "powerlaw_giant": (lambda tmp: TopologySpec(kind="powerlaw", n=8000, giant=True).build(4),
                       "d4fbb8851d119e0243f8ca72af4190a41efe5084d007c783de1e6e6f86c5a0f1"),
    "load_plain": (lambda tmp: load_edge_list(er_file(tmp)),
                   "efb3d344fc419e70e410d08bcb0e136584a73fe931f24fc86640a203a8381dd9"),
    "load_compact": (lambda tmp: load_edge_list(sparse_id_file(tmp), compact=True),
                     "1dfe6f6ea89cde2be14e88347f01916d356cbc4373f16298817f502dcc555295"),
    "from_edges_messy": (lambda tmp: Graph.from_edges(9, [(3, 1), (1, 3), (4, 4), (0, 5), (5, 0),
                                                         (0, 5), (7, 2), (2, 2), (6, 0), (1, 3)]),
                         "1d1a36cd1f79850d5beeef69ca509b2c97fdebf6de926691e4cbc767f1deb605"),
    "edgeless": (lambda tmp: Graph.from_edges(5, []),
                 "775347734437a764dc965e87facbdb2473c95f80929839825b257d17aceef888"),
}


@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_graph_bytes(name, tmp_path):
    build, digest = GRAPHS[name]
    assert csr_digest(build(tmp_path)) == digest


def ids_digest(old_ids) -> str:
    h = hashlib.sha256(f"|{old_ids.dtype.str}{old_ids.shape}|".encode())
    h.update(old_ids.tobytes())
    return h.hexdigest()


def test_er_giant_pairs_old_ids_bytes():
    _, old_ids = _giant_of_pairs(*_erdos_renyi_pairs(20_000, 2 / 20_000, 3))
    assert ids_digest(old_ids) == "d60e2d2af0d08b49e16ac124afec2193590639ff24cc88671c75aa831e2802d1"


def test_powerlaw_giant_old_ids_bytes():
    _, old_ids = _giant_of_pairs(*_power_law_pairs(8000, 2.5, 4))
    assert ids_digest(old_ids) == "24655642b2071b0d7e9753ef98d950a00ce04349dfbdea3b29200fef0400ad1f"


# save_edge_list bytes: ids of one to five digits over two write blocks
# (er_giant_pairs), a power-law giant, a tree, isolated nodes (ids beyond the
# last edge) that only the "# n=" hint keeps, and no edges at all. The digests
# of er_giant_pairs, powerlaw_giant and edgeless were computed with the writer
# that formatted Python ints with %, before ids were written as digit rows
SAVED = {
    "er_sparse_8000": "f2d55493a52ab171725d2c30214624ffac61ff869cd387fc98951bee17cfbf50",
    "er_giant_pairs": "c7a2d8aa2cde6480b577329e7650462bea1a8361c2388a14ca4105279c5ae2c9",
    "powerlaw_giant": "cde7bc17616ce3eff3d900f82eda8b6c6c5b03b20354e55d18be56da2742db41",
    "tree": "59ee05f2fccb63bc208c276d62d687734d91429fcf6843255e6e01b9c5a88e10",
    "from_edges_messy": "f2739f25a18df5cd1bd4ee3f390f5bf1e801f28b8f4fd7f67a1369a5c095217d",
    "edgeless": "05cc28829202afbdcbb01088e0c284f1cd08b2dfe6be5fff1cd96d49552fd917",
}


@pytest.mark.parametrize("name", sorted(SAVED))
def test_saved_edge_list_bytes(name, tmp_path):
    path = tmp_path / "saved.txt"
    save_edge_list(GRAPHS[name][0](tmp_path), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == SAVED[name]


def test_generate_file_and_message_bytes(tmp_path, capsys):
    # computed with the writer that formatted Python ints with %
    path = tmp_path / "er.txt"
    code = main(["generate", "--topology", "er", "--n", "3000", "--giant", "--seed", "4",
                 "--out", str(path)])
    out, err = capsys.readouterr()
    assert (code, out, err) == (0, "", f"wrote 2469 nodes, 3071 edges to {path}\n")
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "c1c22f12e33c7432f9a2418b55a71b425290965547639916af54bb0876a2256c")


# ReportSnapshot.to_text bytes of an epidemic snapshot and its matched null.
# On the 6438-node giant the extras come from the sorted pool; on the
# 159777-node giant (n > 100,000, few extras) from the rejection loop.
SNAPSHOTS = {
    "er_giant_8000": ((8000, 4, ScenarioParams(alpha=0.13, q=0.22, f=1.0), 7),
                      "8f2055c01ff27472970ddd469a6ac3ce648e94b57d8df3a88c06f6d6166403e8",
                      "b50216bf9f8aa0b88399d10a75ca183926afeb2c791ae6dcd615f2d91c4aa710"),
    "er_giant_200000": ((200_000, 5, ScenarioParams(alpha=0.02, q=0.5, f=1.0), 8),
                        "5d4ae6638508779f97ec349505ac6096d0fd9bbf16611d6ce92b836aaf645af2",
                        "af216d2bd0e16c07dadf76ce56004f7081f4e2afede746a6d0f8120341041a2b"),
}


@pytest.mark.parametrize("name", sorted(SNAPSHOTS))
def test_snapshot_text_bytes(name):
    (n, graph_seed, params, seed), epidemic_digest, null_digest = SNAPSHOTS[name]
    g = gen_erdos_renyi(n, 2.0 / n, graph_seed).largest_component()[0]
    epidemic, _ = make_epidemic_snapshot(g, params, seed)
    null = generate_uniform_null(g, reporting_probabilities(params.q, params.alpha, params.f).p,
                                 seed)
    assert text_digest(epidemic.to_text()) == epidemic_digest
    assert text_digest(null.to_text()) == null_digest


def sweep_spec(topology, detector, sweep_name, sweep_values, **extra):
    return ExperimentSpec(topology=topology, scenario=ScenarioRule(alpha=0.15, q=0.6, f=0.5),
                          detector=detector, sweep_name=sweep_name,
                          sweep_values=sweep_values, trials_per_point=3,
                          master_seed=21, **extra)


SWEEPS = {
    "grid_nn_side": (
        lambda tmp: run_sweep(sweep_spec(TopologySpec(kind="grid", side=8),
                                         DetectorConfig.nn(k=3, s=2, t=2.0),
                                         "side", (6, 9))),
        "548ec67a7efc762c89f6dab43480e1d1c2e56485ad1585171d9b93cc1feffd6d"),
    "tree_ball_q": (
        lambda tmp: run_sweep(sweep_spec(TopologySpec(kind="tree", degree=3, depth=4),
                                         DetectorConfig.ball_mode(l=2, s=1, t=3.0),
                                         "q", (0.4, 0.8))),
        "376ccd97ac317fde69a7df6c0544f967ca3c4d2bc221d08980d998d733817480"),
    "file_giant_noisy": (
        lambda tmp: run_sweep(sweep_spec(TopologySpec(kind="file", path=er_file(tmp), giant=True),
                                         DetectorConfig.nn(k=4, s=2, t=3.0),
                                         "flip_prob", (0.0, 0.3),
                                         noise=DistanceNoise(flip_prob=0.0, magnitude=1))),
        "a85e924e8c04ef821218cc265bb350af5ce8abc66a1af1b3c2c3d0269a40a6fe"),
    "er_giant_s": (
        lambda tmp: run_sweep(sweep_spec(TopologySpec(kind="er", n=400, giant=True),
                                         DetectorConfig.ball_mode(l=2, s=1, t=4.0),
                                         "s", (1, 2))),
        "211e79a6ff655869fedf47d038c620c43431f474b48e688ae3d994bfb4e39bda"),
    "grid_auto": (
        lambda tmp: run_sweep(sweep_spec(TopologySpec(kind="grid", side=8), "auto",
                                         "alpha", (0.1, 0.2))),
        "13be510bf3a5e85c96940aea880b77ebeabfe8040525a3cc45021da7d881b04f"),
    "threshold_er_giant": (
        lambda tmp: threshold_sweep(sweep_spec(TopologySpec(kind="er", n=400, giant=True),
                                               DetectorConfig.nn(k=3, s=2, t=0.0),
                                               "q", (0.6,)), (0, 1, 2.5, 6)),
        "e924c99cec984706654e91cffcef1e7a0ff31bde9ea6bbe1ccf15c8d91a17fd7"),
}


@pytest.mark.parametrize("name", sorted(SWEEPS))
def test_sweep_csv_bytes(name, tmp_path):
    run, digest = SWEEPS[name]
    assert text_digest(run(tmp_path).to_csv_text()) == digest


def test_gamma_stdout_bytes(capsys):
    assert main(["gamma", "--topology", "grid", "--side", "12", "--alpha", "0.2",
                 "--trials", "3"]) == 0
    assert text_digest(capsys.readouterr().out) == (
        "973c6bca3c198f9a54c23358b86957dd111d1a4c65ec836569c296e89f15fce1")


def test_gamma_table_stdout_bytes(capsys):
    # 20 trials of 29 infected on 144 nodes: the centers outnumber the nodes,
    # so estimate_gamma scans through a NearestTable, where the 3-trial run
    # above scans the graph once per realization
    assert main(["gamma", "--topology", "grid", "--side", "12", "--alpha", "0.2",
                 "--trials", "20"]) == 0
    assert text_digest(capsys.readouterr().out) == (
        "571465a17b30396e0390617ae14d3c383610c13e1e017cf4c8c5df1f82944e83")
