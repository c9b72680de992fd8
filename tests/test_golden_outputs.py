"""Golden bytes: sha256 digests of generated graphs, snapshot files and
fixed-seed sweep CSVs.

A refactor of the graph layer, the harness or the CLI must leave these bytes
as they are. A digest that changes on purpose (a new generator, a changed rule) is
updated in the same change, with the reason written down beside it.
"""

import hashlib
from pathlib import Path

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
    _, old_ids = _giant_of_pairs([*_erdos_renyi_pairs(20_000, 2 / 20_000, 3)])
    assert ids_digest(old_ids) == "d60e2d2af0d08b49e16ac124afec2193590639ff24cc88671c75aa831e2802d1"


def test_powerlaw_giant_old_ids_bytes():
    _, old_ids = _giant_of_pairs([*_power_law_pairs(8000, 2.5, 4)])
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


# Golden CLI transcripts: argv, then the sha256 of stdout and of stderr and
# the exit code, each run in process through cli.main. The upper-case tokens
# name the inputs cli_inputs writes: a 12x12 grid, an epidemic snapshot on
# it, a one-reporter snapshot (density under the auto cutoff), a gamma
# profile, a config with t= and no sweep=, one with sweep=, and a shipped
# config.
EMPTY = text_digest("")  # no output at all
_DETECT = ["detect", "--graph", "GRAPH", "--snapshot", "SNAP"]
_DENSE = ["--q", "0.3", "--alpha", "0.2", "--f", "8"]
_CFG = ("topology=grid\nside=8\nalpha=0.2\nq=0.6\nf=0.5\ndetector=nn\nk=3\ns=2\nt=4\n"
        "trials=2\nseed=9\n")
CLI = {
    "detect_nn": ([*_DETECT, "--k", "3", "--s", "2", "--t", "5"],
        "83544c0192b3b1e7e0f52d4aeac1a1de0f8c5fb2e9507926fb3ff79e30296a7d",
        EMPTY, 2),
    "detect_nn_defaults_header": ([*_DETECT, "--header"],
        "d045b0550fc8f740641f3b1c1514e8587ff339a76f3062232269fc2333e1e22c",
        EMPTY, 2),
    "detect_ball_header": ([*_DETECT, "--mode", "ball", "--l", "2", "--s", "3", "--t", "5",
                            "--header"],
        "b913a1c662085129fdc4c357ca0d032467aa92188498cc749d9adc26d465d930",
        EMPTY, 2),
    "detect_dense_gamma": ([*_DETECT, "--regime", "dense", *_DENSE, "--gamma", "0.4"],
        "729acf3bf0e70b7fdaa567a7257525165a49655d33314308c6e52fe8435a0452",
        "74fa0decdce223750285778ce7e93b80746fb0cd2f3b9d78210fe67df19bb3dd", 0),
    "detect_dense_gamma_log_base": ([*_DETECT, "--regime", "dense", *_DENSE, "--gamma", "0.4",
                                     "--log-base", "2"],
        "05e4d2f66fadec56a21adcc30e73fbb7fe6bd0ff09a08ff2c7c22a139c10ee4d",
        "442a7416cf22b3914771927dea804c4cefd2901c0f1a0ac26e5561b833504afb", 0),
    "detect_dense_profile": ([*_DETECT, "--regime", "dense", *_DENSE, "--gamma-profile",
                              "PROFILE"],
        "d1fb535b85986e29e53511b88ddf3a8b943bc76ef1c9f4e3ba6e105bc16b520f",
        "1486834ea40c5556c01e6f76d3c57480155814b33899e81a97909a3501c82dbe", 0),
    "detect_dense_fallback": ([*_DETECT, "--regime", "dense", *_DENSE, "--gamma-fallback"],
        "c0c8a6d256c7f9dc91312246f55304032191282fa4731aa4a14d16eb19e91729",
        "e89902f9ead37d8062d6ba6fa0d1fbaf03a1628143f4e81d9e0903e2d81c1e4a", 0),
    "detect_small": ([*_DETECT, "--regime", "small", "--beta", "0.6", "--rho", "0.5",
                      "--mu", "0.1"],
        "7dbd290905a75add91c6364620488cf4c3cdce64508db33fe26faf614675c459",
        "358a6578e5db3dea96017b236416da7d7ffd1c01e280ce39bfa6d11923ee4592", 2),
    "detect_auto_dense": ([*_DETECT, *_DENSE, "--gamma", "0.4", "--header"],
        "d0a0c3c18ecb29756ceba418e44f8afcc8e2e5ee63f7d5be71d53f0f85ee277e",
        "5a93ea8cf4734887efd70456127ebec9434fffcb8875d398ac4c0e23806d3a96", 0),
    "detect_auto_small": (["detect", "--graph", "GRAPH", "--snapshot", "SPARSE",
                           "--regime", "auto"],
        "27e8938ce9df6201b935de3b71c017252c7b83bda1d83b0661b114d67e422ba5",
        "26493035511109116f3c2bed08056b8e99ea37226b8fee6ce1313460b0c6f7af", 0),
    # --family is a gamma source: each row below prints the bytes its
    # "--family F --gamma 0.5" row printed while --family overrode the gamma
    "detect_dense_family_grid": ([*_DETECT, "--regime", "dense", *_DENSE, "--family", "grid"],
        "0b6260b557255aa3323a580bc883eea24d066cbb2ccb5359048ab97016a531cc",
        "6a33632bc2bac24848e6421de1d65b143dc549afa08e0c4ca7053f21d533a1f6", 0),
    "detect_dense_family_tree": ([*_DETECT, "--regime", "dense", *_DENSE, "--family", "tree"],
        "3078df8d230166a1cf846e14557ace535aca5089912c9921525c102c4c80eb21",
        "90d7d0ef5f02038d4b5d18d2fd5e02e5095bab05b844127d38a1582b43b2e3b7", 0),
    "detect_auto_family_tree": ([*_DETECT, *_DENSE, "--family", "tree"],
        "3078df8d230166a1cf846e14557ace535aca5089912c9921525c102c4c80eb21",
        "6f69a3c7085e66d08e85540b8a4629c0f1a098bec5425e8a98eb7067b4c2219a", 0),
    # ... and argparse refuses a second gamma source with it (these rows
    # printed the bytes above before)
    "detect_dense_family_grid_gamma": ([*_DETECT, "--regime", "dense", *_DENSE,
                                        "--family", "grid", "--gamma", "0.5"],
        EMPTY, "849dded060a187325616000d85da253cca733955605af36ad49a36ed1e1de94a", 1),
    "detect_dense_family_tree_gamma": ([*_DETECT, "--regime", "dense", *_DENSE,
                                        "--family", "tree", "--gamma", "0.5"],
        EMPTY, "849dded060a187325616000d85da253cca733955605af36ad49a36ed1e1de94a", 1),
    "detect_auto_family_tree_gamma": ([*_DETECT, *_DENSE, "--family", "tree", "--gamma", "0.5"],
        EMPTY, "849dded060a187325616000d85da253cca733955605af36ad49a36ed1e1de94a", 1),
    "bounds": (["bounds", "--gamma", "0.5", "--q", "0.3", "--alpha", "0.2", "--f", "1",
                "--k", "3", "--n-reporting", "100"],
        "b378127b4d641345f63b83d3030475421b8b6dff8e08c98ddf0f3026454d88e5",
        EMPTY, 0),
    "bounds_not_separated": (["bounds", "--gamma", "0.01", "--q", "0.3", "--alpha", "0.2",
                              "--f", "1", "--k", "1", "--n-reporting", "100"],
        "865ee9bb0ca3f5bab18081d443150bf74ac80c64b2728511f29623c307580b55",
        "69d61488cca05eedb30c7c319ea4e44ec918308d648a368e543c97e6361603c3", 0),
    "describe": (["describe"],
        "78f9db2b2bc508131ee6f2419348d31f171ecea791cebb38ab54fda8e26c7b2d",
        EMPTY, 0),
    # a t sweep with no values runs at the config's t=4; it ran at t=0
    # (digest ffb7c1805c1c942e25a1c893c9c731be70b239768a8eb625fe0050db9a96813a)
    "sweep_no_sweep_key": (["sweep", "--config", "CFG"],
        "893ac277c01d911e39359d0583f9867c7e4269345fcd8fe4a91126dccd907b45",
        EMPTY, 0),
    "sweep_swept_config": (["sweep", "--config", "SWEPT"],
        "aa710eacc1821444f6cfa939cb96f5c6e5752c4a0998f310a5f19e4198e6a06f",
        EMPTY, 0),
    "threshold_sweep_config_t": (["threshold-sweep", "--config", "CFG", "--t-values", "0,2,5"],
        "97afdad2c91afc97ed5950cfee19584bcf1e403ae97c0b80be32baef9dcd7826",
        EMPTY, 0),
    "separability_sweep": (["sweep", "--config", "SEPARABILITY", "--n", "400",
                            "--values", "1,2", "--trials", "2"],
        "f8c39bdadf124e209458f2c7640621fa9d89933b81c6d3949b210e46326ba43b",
        EMPTY, 0),
    "separability_threshold_sweep": (["threshold-sweep", "--config", "SEPARABILITY",
                                      "--n", "400", "--values", "2", "--trials", "2",
                                      "--t-values", "0,5,10"],
        "a388246e7338d425d64d7a474517178d804a258ac8d06ab84dceaaa062c98999",
        EMPTY, 0),
    # the rows below were computed before the experiment keys moved into one
    # table (harness.KEYS): each shipped config at two trials and one value
    "error_decay_sweep": (["sweep", "--config", "ERROR_DECAY", "--values", "300",
                           "--trials", "2"],
        "4aed23510d98d67c4d086689e0cadcedd9de10b89e4ac298f180b6b2f31f738c",
        EMPTY, 0),
    "seed_robustness_sweep": (["sweep", "--config", "SEED_ROBUSTNESS", "--n", "500",
                               "--values", "2", "--trials", "2"],
        "c5eae81c66b2534955f6d43fd7e933d34a942d9e477975e8ca3492c5a0ef5aab",
        EMPTY, 0),
    "noise_robustness_sweep": (["sweep", "--config", "NOISE_ROBUSTNESS", "--n", "400",
                                "--values", "0.1", "--trials", "2"],
        "7bbfaefca35ca304c99042b2fe94445904b7a2575e8dce4c2fd1bdc1b4b72afe",
        EMPTY, 0),
    # a shipped config whose detector, topology or graph a flag replaces
    "separability_detector_nn": (["sweep", "--config", "SEPARABILITY", "--n", "400",
                                  "--detector", "nn", "--k", "3", "--values", "2",
                                  "--trials", "2"],
        "5e3b7ec2b76bafbcb5b0d76df6acf37f5218b7d1d7815196b4f7c279361e187e",
        EMPTY, 0),
    "separability_topology_grid": (["sweep", "--config", "SEPARABILITY", "--topology", "grid",
                                    "--side", "8", "--values", "1", "--trials", "2"],
        "3b2c3f82d01d787232c06518d4655671a01c49c42b8bf06bc1290315127642a0",
        EMPTY, 0),
    "separability_graph": (["sweep", "--config", "SEPARABILITY", "--graph", "GRAPH",
                            "--values", "1", "--trials", "2"],
        "314c4993e70178cbb7420ba72ff93945ba8386b2c5ee8ddf78a8a8f115f8c2c8",
        EMPTY, 0),
    "simulate_epidemic": (["simulate", "--graph", "GRAPH", "--alpha", "0.2", "--q", "0.6",
                           "--f", "0.5", "--seed", "3"],
        "714f8d912cd6759c5a225689857e6217a276992e5577da4711e4bb5939d42856",
        EMPTY, 0),
    "simulate_null": (["simulate", "--graph", "GRAPH", "--scenario", "null", "--alpha", "0.2",
                       "--q", "0.6", "--f", "0.5", "--seed", "3"],
        "fded844d18e6272d8c6b268292e20f533b9499e3eea1320ebb0231eb21583718",
        EMPTY, 0),
    "simulate_null_defaults": (["simulate", "--topology", "grid", "--side", "8",
                                "--scenario", "null"],
        "12fbdaab0c3cf354c26d2e343db1b7edcb3faabf5aaf84413a40f61ed6b97fdb",
        EMPTY, 0),
    "simulate_null_p": (["simulate", "--topology", "grid", "--side", "8", "--scenario", "null",
                         "--null-p", "0.3", "--seed", "2"],
        "dce04c1a67c5f9f531695e9f8faf4c173b552a51fe24ba83cdfe4b68664b18ec",
        EMPTY, 0),
    # OUT is a file in the working directory; its bytes follow stdout's
    "generate_grid": (["generate", "--topology", "grid", "--side", "8", "--out", "OUT"],
        "ba20ce744ab5c5498bcdc6c0da21cae54e6dcbad0939c640c4e06a18806b371d",
        "93e9c95c2bbc00f8b72491329c010fd93734a3d11acee0b38c3f2d688bfb3613", 0),
    "gamma_k_list": (["gamma", "--graph", "GRAPH", "--alpha", "0.2", "--k-list", "1,2",
                      "--trials", "3"],
        "83952c884e90fac97e7163f981734c6763090bb428209da16988765e5a23c951",
        EMPTY, 0),
    # usage lines: argparse prints the command's flags in the order they were added
    "usage_generate": (["generate", "--n", "x"], EMPTY,
        "29c6ca5e8f2317dc556d9558e6a8eac172742e7c102da48d6470e6530800bcc2", 1),
    "usage_simulate": (["simulate", "--n", "x"], EMPTY,
        "f29be81fbc8cdfdaa487aaa1baebfc2a3cb8dd9b3abe00bf4f04e12b101a3852", 1),
    "usage_gamma": (["gamma", "--n", "x"], EMPTY,
        "f3e97659550b144d6a070d3989c98456c06336814e0e27ab7c58982ca2ca4f9d", 1),
    "usage_sweep": (["sweep", "--n", "x"], EMPTY,
        "3e1d3d1dc94ed1891fda0889501267d794dde653a380e1d014bf633098383653", 1),
    "usage_threshold_sweep": (["threshold-sweep", "--n", "x"], EMPTY,
        "28a7787cecea3295c51cdff0eb4f95e5d51da383348a35527b0f831a32aad52b", 1),
    # the three below were computed while detect's prescription flags and the
    # gamma and bounds scalars were declared by hand, not from harness.KEYS;
    # describe takes no flag, so its help shows its usage line
    "usage_detect": (["detect", "--n", "x"], EMPTY,
        "2dcbab52808f50215288f72c7aafb2b435edb79d634ec50612e6b54ba4322078", 1),
    "usage_bounds": (["bounds", "--n", "x"], EMPTY,
        "e75caeeca9d7f548454643c465682b49f6266c61442f592e71204f2ced8fea50", 1),
    "usage_describe": (["describe", "-h"],
        "f51cc03c75f34bb6381e5c53a429d6cffb80449f53ce1e8af6aad36696772033", EMPTY, 0),
    # README's refusal examples, computed before the hotspot test settled
    # reporters on their CSR rows ahead of the BFS
    "refuse_sweep_n_on_grid": (["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2",
                                "--q", "0.6", "--sweep", "n", "--values", "10,20"], EMPTY,
        "464de9ec8ba7911a85c332ec54569f6295471bef4c86ba36585e000550802a6a", 1),
    "refuse_compact_on_er": (["sweep", "--topology", "er", "--n", "300", "--compact",
                              "--alpha", "0.2", "--q", "0.6"], EMPTY,
        "0f649067ddc82baaececd70d5f68dd119d96e12d50ac6b0385411280106032ad", 1),
    "refuse_ball_detector_k": (["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2",
                                "--q", "0.6", "--detector", "ball", "--k", "7"], EMPTY,
        "33d2f4f8ede7056d8b5ae8c8a3477dc21d9b16cab78b2e5d6dfd42d0f8d41d68", 1),
    "refuse_detect_ball_k": ([*_DETECT, "--mode", "ball", "--k", "7"], EMPTY,
        "b4f832a17d664ed2b16d8a7a6520980b7c563f1c754e12e159c0985253e1d503", 1),
    # the refusal names the regime; it read "error: --regime does not use
    # --gamma", digest 92306c8f7fed161d2b03f2d4025441cc261fa021adbd8adb2938256c1543be3d
    "refuse_detect_small_gamma": ([*_DETECT, "--regime", "small", "--gamma", "0.5"], EMPTY,
        "e705d93a5e19fd0d6323c140ba0fb0e75b20f0a7471fcb4747dda721ca0f4368", 1),
    # a gamma source alone implies the auto regime
    "refuse_detect_implied_auto_k": ([*_DETECT, "--gamma", "0.5", "--k", "3"], EMPTY,
        "9159a346e73be30caa0ea966f5d4d4b65c82cbf4c71147d07de993a9bd372b7a", 1),
    "refuse_threshold_sweep_t_values": (["threshold-sweep", "--config", "CFG", "--values", "1,2",
                                         "--t-values", "0,1"], EMPTY,
        "14400ffc019fe01dcf401070cdf03ff5211499316e29f594dfeec371d66927fd", 1),
    # the refusal comes before the write: g.txt is never opened
    "refuse_generate_grid_seed": (["generate", "--topology", "grid", "--side", "8", "--seed",
                                   "1", "--out", "g.txt"], EMPTY,
        "4d33065ef6606f074b5792d26bd946f9c7bfcd92a4a1c97da6f786ebbfbf6cb0", 1),
    "refuse_simulate_null_p_q": (["simulate", "--topology", "grid", "--side", "8", "--scenario",
                                  "null", "--null-p", "0.1", "--q", "0.3"], EMPTY,
        "b0c16037296118f699827d0347f203e13710ab7df29bf991c194a774960cb42f", 1),
    "refuse_two_gamma_sources": ([*_DETECT, "--regime", "dense", *_DENSE, "--gamma", "0.4",
                                  "--gamma-profile", "PROFILE"], EMPTY,
        "5000f40b56b39618e00ea37de6d8fce4360b96009f94d642cc288b18cba63070", 1),
    "refuse_null_above_one": (["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.6",
                               "--q", "0.9", "--f", "1"], EMPTY,
        "57ab648182088fe93e487deb996d2f2913f90bfd3e705b529fc7ebacaab84beb", 1),
    # computed after the fix: a noise_d sweep with no base noise, which no
    # trial read, exited 0 (stdout digest
    # 799cce453c17da4a481dc638e836e8964a154568cc011df8a1356998d7b8ef5b)
    "refuse_noise_d_sweep": (["sweep", "--topology", "grid", "--side", "8", "--alpha", "0.2",
                              "--q", "0.6", "--trials", "3", "--sweep", "noise_d",
                              "--values", "1,5"], EMPTY,
        "f58a115aff340e6a1b90bb9a271190e235db888e7156501eefed703d08e3350c", 1),
}


def cli_inputs(tmp) -> dict[str, str]:
    g = gen_grid(2, 12)
    save_edge_list(g, tmp / "grid.txt")
    snap, _ = make_epidemic_snapshot(g, ScenarioParams(alpha=0.2, q=0.6, f=0.5), 5)
    texts = {
        "SNAP": snap.to_text(),
        "SPARSE": "truth=uniform n=144\n40\n",
        "PROFILE": "K,gamma,stderr,trials,topology\n1,0.9,0.01,10,grid\n"
                   "2,0.7,0.02,10,grid\n3,0.55,0.02,10,grid\n4,0.4,0.03,10,grid\n",
        "CFG": _CFG,
        "SWEPT": _CFG.replace("detector=nn\nk=3\ns=2", "detector=ball\nl=2\ns=1")
                 + "sweep=q\nvalues=0.4,0.8\n",
    }
    for name, text in texts.items():
        (tmp / name).write_text(text)
    experiments = Path(__file__).resolve().parent.parent / "experiments"
    return {"GRAPH": str(tmp / "grid.txt"), **{name: str(tmp / name) for name in texts},
            **{name.upper(): str(experiments / f"{name}.cfg") for name in (
                "separability", "error_decay", "seed_robustness", "noise_robustness")}}


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_transcript_bytes(name, tmp_path, capsys, monkeypatch):
    argv, out_digest, err_digest, code = CLI[name]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps its usage line to the terminal
    monkeypatch.chdir(tmp_path)
    files = cli_inputs(tmp_path)
    got = main([files.get(arg, arg) for arg in argv])
    out, err = capsys.readouterr()
    if "OUT" in argv:
        out += (tmp_path / "OUT").read_text()
    assert (text_digest(out), text_digest(err), got) == (out_digest, err_digest, code)


# Every CLI example of README.md, in its order, run in one working directory
# (each reads the files the ones before it wrote), with graphs of 300 nodes
# and at most 5 trials; a written --out file's bytes follow stdout's. Computed
# while detect's prescription flags and the gamma and bounds scalars were
# declared by hand, not from harness.KEYS.
_ER_DETECT = ["detect", "--graph", "er.txt", "--snapshot", "snap.txt"]
_README_SCENARIO = ["--q", "0.22", "--alpha", "0.13", "--f", "1"]
README_EXAMPLES = [
    (["generate", "--topology", "er", "--n", "300", "--seed", "1", "--out", "er.txt"],
     "381a8bfebed6453db87ddb46ca3f1f91c91bd00c44e650a65b00bbd2274fa308",
     "d938efb5e8a1d295ef650b601e3cf1bb03100773326d48e7a4fa1db32bf24b99", 0),
    (["simulate", "--graph", "er.txt", "--alpha", "0.13", "--q", "0.22", "--f", "1",
      "--seed", "2", "--out", "snap.txt"],
     "25c93449cf5e6d54cbddcd5cc05dab671f28c77503cda1610a6f1355379685f0", EMPTY, 0),
    ([*_ER_DETECT, "--mode", "ball", "--l", "3", "--s", "3", "--t", "60"],
     "c1a8fa971d7b4cf6865d08057ed9aff7b604447dde88b8d4c380b9310f83986a", EMPTY, 0),
    (["gamma", "--graph", "er.txt", "--alpha", "0.13", "--q", "0.22", "--f", "1",
      "--trials", "5", "--out", "gamma.csv"],
     "dbec8b2acdd26c7654514831493f8841e98926a29fa6a7f796fe337b3ea81550", EMPTY, 0),
    ([*_ER_DETECT, "--regime", "dense", *_README_SCENARIO, "--gamma-profile", "gamma.csv"],
     "b2ea24cda3206057bae50d2a04b3b01cb84810ef70be2530e006e503e9978931",
     "6bba87ad139b5ece399458f8d87566c91b4dc20e15f91434d5df3022bd679daa", 0),
    ([*_ER_DETECT, "--regime", "small", "--beta", "0.6"],
     "9b7610ff01431b715e4f51a5b1be029f85224e636e64dc3be042916a92dbc446",
     "6419da3b4c7bfe09608485d16eee7b907dcc7e72ac2aca970aa0160d0f60980e", 0),
    ([*_ER_DETECT, "--regime", "auto", *_README_SCENARIO, "--gamma-profile", "gamma.csv"],
     "b2ea24cda3206057bae50d2a04b3b01cb84810ef70be2530e006e503e9978931",
     "5f4b08d5a2ff5d79693b64f96cf4a4ec15eaee1703c485f28a3cca8005a8c245", 0),
    (["sweep", "--topology", "er", "--n", "300", "--giant", "--alpha", "0.2", "--q", "0.3",
      "--f", "1", "--detector", "ball", "--l", "2", "--s", "2", "--t", "30", "--sweep", "q",
      "--values", "0.2,0.3,0.4", "--trials", "5", "--seed", "7", "--out", "sweep.csv"],
     "f6dcd03c0766fdbae1d781e3f7add418bfeed93b95455676e100c350e1058ce2", EMPTY, 0),
    (["threshold-sweep", "--config", "SEPARABILITY", "--n", "300", "--values", "2",
      "--trials", "5", "--t-values", "100,130,160"],
     "564289f216679b2a516996f7680da77db2f233434e4ebb96fe7d1672646a3722", EMPTY, 0),
    (["bounds", "--gamma", "0.76", "--q", "0.22", "--alpha", "0.13", "--f", "1", "--k", "1",
      "--n-reporting", "460"],
     "64a11a0e8f4073737a94878b6cd84b6da1550f50426a4cf636c59af666fdf945", EMPTY, 0),
    (["sweep", "--config", "ERROR_DECAY", "--values", "300", "--trials", "5"],
     "63796b4dfe7ecc2923e1198a5b1b6989050d59b5fe780acc5acd03ef22828188", EMPTY, 0),
    (["sweep", "--config", "SEED_ROBUSTNESS", "--n", "300", "--values", "1,5", "--trials", "5"],
     "94829de4a1d0bc6c90356a836c396bf815c1b0dd4dae75eedd803f087468afe4", EMPTY, 0),
    (["sweep", "--config", "SEPARABILITY", "--n", "300", "--values", "1,2", "--trials", "5"],
     "e766e44700ea8e7b7044bdb436a66da446596404ffda2b2f1355e8a1d97c07e9", EMPTY, 0),
    (["sweep", "--config", "NOISE_ROBUSTNESS", "--n", "300", "--trials", "5",
      "--out", "noise_d1.csv"],
     "c7b6016d054c7bfa09b7296f0155a6871e9cc49258189b1117d2f5ac7c6092b8", EMPTY, 0),
    (["sweep", "--config", "NOISE_ROBUSTNESS", "--n", "300", "--trials", "5",
      "--noise-d", "2", "--out", "noise_d2.csv"],
     "324532159eee9462643215b225ed65cf3d076f5cbf7cd800154a6f3d537f7d0a", EMPTY, 0),
]


def test_readme_example_bytes(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    files = cli_inputs(tmp_path)
    for argv, out_digest, err_digest, code in README_EXAMPLES:
        got = main([files.get(arg, arg) for arg in argv])
        out, err = capsys.readouterr()
        if "--out" in argv:
            out += Path(argv[argv.index("--out") + 1]).read_text()
        assert (text_digest(out), text_digest(err), got) == (out_digest, err_digest, code), argv
