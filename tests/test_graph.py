import logging
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from hotspot.graph import (Graph, NearestTable, gen_erdos_renyi, gen_grid, gen_power_law,
                           gen_tree, load_edge_list, node_array, save_edge_list)

from oracles import (ball_oracle, check_invariants, components_oracle, csr_oracle,
                     edge_list_oracle, hop_distances, largest_component_oracle, nn_oracle,
                     random_graph, tree_level_offsets)


def path_graph(n):
    return Graph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


@st.composite
def small_graphs(draw, max_n=12):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
    edges = draw(st.lists(pairs, max_size=3 * n))
    return Graph.from_edges(n, [(u, v) for u, v in edges if u != v])


@st.composite
def clustered_graphs(draw):
    """Disjoint connected pieces whose sizes often repeat (ties for the
    largest), plus isolated nodes, under a random relabeling; n may be 0."""
    sizes = draw(st.lists(st.integers(1, 6), max_size=6))
    n = sum(sizes) + draw(st.integers(0, 4))
    perm = draw(st.permutations(range(n)))
    edges, start = [], 0
    for size in sizes:
        end = start + size
        edges += [(draw(st.integers(start, v - 1)), v) for v in range(start + 1, end)]
        edges += draw(st.lists(st.tuples(st.integers(start, end - 1),
                                         st.integers(start, end - 1)), max_size=size))
        start = end
    return Graph.from_edges(n, [(perm[u], perm[v]) for u, v in edges if u != v])


@st.composite
def twin_random_graphs(draw):
    """A random graph, alone or beside a copy of itself (every component
    size then ties), plus isolated nodes, under a random relabeling."""
    n = draw(st.integers(1, 20))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    g = random_graph(n, draw(st.floats(0.02, 0.4)), rng)
    edges = [(u, v) for u in range(n) for v in g.neighbors(u).tolist() if u < v]
    copies = draw(st.integers(1, 2))
    edges += [(u + n, v + n) for u, v in edges] if copies == 2 else []
    total = copies * n + draw(st.integers(0, 3))
    perm = rng.permutation(total)
    return Graph.from_edges(total, np.asarray([(perm[u], perm[v]) for u, v in edges],
                                              dtype=np.int64).reshape(-1, 2))


# -- construction -------------------------------------------------------------

def test_from_edges_builds_sorted_symmetric_adjacency():
    g = Graph.from_edges(4, [(2, 0), (0, 1), (3, 1)])
    assert g.n == 4 and g.num_edges == 3
    assert g.neighbors(0).tolist() == [1, 2]
    assert g.neighbors(1).tolist() == [0, 3]
    check_invariants(g)


def test_from_edges_rejects_out_of_range():
    with pytest.raises(ValueError):
        Graph.from_edges(3, [(0, 3)])


@pytest.mark.parametrize("bad", [1.5, -0.5, math.nan, math.inf])
def test_from_edges_rejects_non_integral_endpoints(bad):
    # a cast to int64 alone would truncate (0, 1.5) to the edge (0, 1)
    with pytest.raises(ValueError, match=f"edge endpoint {bad} is not an integer"):
        Graph.from_edges(3, [(0, 2), (0, bad)])
    with pytest.raises(ValueError, match=f"edge endpoint {bad} is not an integer"):
        Graph.from_edges(3, np.array([[0, bad]]))
    assert Graph.from_edges(3, [(0.0, 2.0)]).neighbors(0).tolist() == [2]


def test_graph_and_table_arrays_are_read_only():
    # a write through neighbors(4) used to reach the CSR: neighborhoods([4], 2,
    # "nn") then answered [8, 3], and node 8 is not adjacent to node 4
    g = gen_grid(2, 3)
    table = NearestTable(g, 3)
    giant = g.largest_component()[0]
    for array in (g.neighbors(4), g._indptr, g._indices, giant._indices,
                  table._member, table._offsets):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 8
    assert g.neighborhoods(np.array([4]), 2, "nn")[1].tolist() == [1, 3]


@st.composite
def messy_edges(draw):
    """A node count and an edge array with repeats, reversed pairs,
    self-loops and isolated nodes; n may be 0."""
    n = draw(st.integers(0, 12))
    if n == 0:
        return 0, np.empty((0, 2), dtype=np.int64)
    ends = st.integers(0, draw(st.integers(0, n - 1)))  # ids above are isolated
    edges = np.asarray(draw(st.lists(st.tuples(ends, ends), max_size=30)),
                       dtype=np.int64).reshape(-1, 2)
    flipped = edges[:draw(st.integers(0, len(edges))), ::-1]
    repeated = edges[:draw(st.integers(0, len(edges)))]
    return n, np.concatenate([edges, flipped, repeated])


@given(messy_edges())
def test_from_edges_matches_csr_oracle(case):
    n, edges = case
    g = Graph.from_edges(n, edges)
    indptr, indices, _, _ = csr_oracle(n, edges)
    for got, want in ((g._indptr, indptr), (g._indices, indices)):
        assert got.dtype == want.dtype == np.int64
        assert np.array_equal(got, want)


def test_clean_edges_counts_duplicates_and_self_loops(tmp_path, caplog):
    edges = np.array([[0, 1], [1, 0], [0, 0], [2, 2], [1, 2], [1, 2], [2, 1], [3, 3]])
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges))
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(path)
    indptr, indices, n_dup, n_self = csr_oracle(4, edges)
    assert (n_dup, n_self) == (3, 3)
    assert f"dropped {n_dup} duplicate edge(s) and {n_self} self-loop(s)" in caplog.text
    assert g._indptr.tolist() == indptr.tolist() == [0, 1, 3, 4, 4]
    assert g._indices.tolist() == indices.tolist() == [1, 0, 2, 1]


@given(small_graphs())
def test_adjacency_symmetry(g):
    for i in range(g.n):
        for j in g.neighbors(i).tolist():
            assert i in g.neighbors(j).tolist()


# -- edge-list I/O -------------------------------------------------------------

def test_load_edge_list_minimal(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 2\n")
    g = load_edge_list(path)
    assert g.n == 3 and g.num_edges == 2
    assert g.neighbors(1).tolist() == [0, 2]


def test_load_edge_list_drops_degenerates_with_warning(tmp_path, caplog):
    path = tmp_path / "g.txt"
    path.write_text("0 1\n1 0\n0 0\n")
    with caplog.at_level(logging.WARNING):
        g = load_edge_list(path)
    assert g.num_edges == 1 and g.n == 2
    assert "1 duplicate" in caplog.text and "1 self-loop" in caplog.text


def test_load_edge_list_comments_and_gaps(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# a comment\n0 5\n\n5 7\n")
    g = load_edge_list(path)
    assert g.n == 8  # ids used as given, nodes 0..7
    assert g.degrees()[3] == 0
    compacted = load_edge_list(path, compact=True)
    assert compacted.n == 3 and compacted.num_edges == 2
    assert [compacted.neighbors(i).tolist() for i in range(3)] == [[1], [0, 2], [1]]


def test_load_edge_list_compact_keeps_ascending_id_order(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("90 12\n12 7\n7 1000\n90 1000\n44 90\n")
    g = load_edge_list(path, compact=True)
    # ids 7, 12, 44, 90, 1000 become 0..4 in ascending order
    assert g.n == 5 and g.num_edges == 5
    assert [g.neighbors(i).tolist() for i in range(5)] == [[1, 4], [0, 3], [3], [1, 2, 4], [0, 3]]


def test_load_edge_list_reports_malformed_line_number(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("0 1\nnope\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(path)
    path.write_text("0 1\n2 -1\n")
    with pytest.raises(ValueError, match="line 2"):
        load_edge_list(path)


def test_edge_list_round_trip_keeps_isolated_tail(tmp_path):
    g = Graph.from_edges(6, [(0, 1), (1, 2)])  # nodes 3..5 isolated
    path = tmp_path / "g.txt"
    save_edge_list(g, path)
    back = load_edge_list(path)
    assert back.n == 6 and back.num_edges == 2


def test_load_edge_list_missing_and_empty(tmp_path):
    with pytest.raises(OSError):
        load_edge_list(tmp_path / "absent.txt")
    empty = tmp_path / "empty.txt"
    empty.write_text("# nothing\n")
    with pytest.raises(ValueError, match="no edges"):
        load_edge_list(empty)


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def load_outcome(load, path, compact):
    """What a loader makes of a file: the CSR arrays with their dtypes, or
    the error text, and the log messages either way."""
    handler = _Messages()
    logging.getLogger().addHandler(handler)
    try:
        g = load(path, compact=compact)
        return (g.n, g._indptr.dtype, g._indptr.tolist(), g._indices.dtype,
                g._indices.tolist(), handler.messages)
    except ValueError as exc:
        return str(exc), handler.messages
    finally:
        logging.getLogger().removeHandler(handler)


# free text of at most 7 bytes per line, ids up to 40 and hints up to 60
# keep every graph small: the line loop has no node cap
_FUZZ_LINES = st.one_of(
    st.text("0123456789 \t\x0b\x0c\x1f#+-n=xZ", max_size=7),
    st.builds("{}{}{}{}{}".format, st.sampled_from(["", " ", "\t"]), st.integers(0, 40),
              st.sampled_from([" ", "\t", " \x0b", "\x0c ", "\x1c", "\x1d", "\x1e"]),
              st.integers(0, 40),
              st.sampled_from(["", " ", "\x0b"])),
    st.builds("{}#{}n={}{}".format, st.sampled_from(["", " "]), st.sampled_from(["", " ", "\t"]),
              st.integers(0, 60), st.sampled_from(["", "", " ", "x", "\x0b"])),
)


@given(st.lists(st.tuples(_FUZZ_LINES, st.sampled_from(["\n", "\r\n", "\r"])), max_size=8),
       st.booleans(), st.booleans())
def test_load_edge_list_matches_line_loop(tmp_path_factory, rows, last_break, compact):
    text = "".join(line + brk for line, brk in rows)
    if rows and not last_break:
        text = text[:-len(rows[-1][1])]
    path = str(tmp_path_factory.mktemp("fuzz") / "g.txt")
    with open(path, "wb") as fh:
        fh.write(text.encode())
    assert (load_outcome(load_edge_list, path, compact)
            == load_outcome(edge_list_oracle, path, compact))


# ids of several digits, which the fuzz above keeps out of plain files; the
# large ones only with compact, where the line loop allocates nothing per id
@pytest.mark.parametrize("text, compact", [
    ("123 4567\n4567 89\n0099 100\n", False),
    ("999 1000\n1000 1001\n", False),
    ("123 4567\n9999999 89\n", True),
    ("1234567890123 98765432109876543\n9223372036854775807 1\n", True),
])
def test_load_edge_list_matches_line_loop_on_long_ids(tmp_path, text, compact):
    path = str(tmp_path / "g.txt")
    with open(path, "w") as fh:
        fh.write(text)
    assert (load_outcome(load_edge_list, path, compact)
            == load_outcome(edge_list_oracle, path, compact))


def test_load_edge_list_takes_the_largest_hint(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text("# n=9\n#n=4\n# n=12x\n# n=\n0 1\n")
    assert load_edge_list(path).n == 9
    assert load_edge_list(path, compact=True).n == 2


@pytest.mark.parametrize("text, lineno, shown", [
    ("0 1\r\n1 2\rno\n", 3, "no"),
    ("0 1\n\n0 \u0661\n", 3, "0 \u0661"),  # a digit outside ASCII
    ("0\u00a01\n", 1, "0\u00a01"),  # a blank outside ASCII
    ("# n=4\n\u3000# x\n0 1\n", 2, "# x"),  # a blank outside ASCII before '#'
    ("0 1 # x\n", 1, "0 1 # x"),
    ("+1 2\n", 1, "+1 2"),
    ("0 1 2\n3 4 5\n", 1, "0 1 2"),  # every line of one wrong column count
    ("0 1\r2\n", 2, "2"),
])
def test_load_edge_list_names_the_first_bad_line(tmp_path, text, lineno, shown):
    path = tmp_path / "g.txt"
    path.write_bytes(text.encode())
    with pytest.raises(ValueError) as info:
        load_edge_list(path)
    assert str(info.value) == (
        f"{path}: line {lineno}: expected two non-negative integers, got {shown!r}")


def test_load_edge_list_caps_the_node_count(tmp_path, monkeypatch):
    monkeypatch.setattr("hotspot.graph.MAX_NODES", 10)
    path = tmp_path / "g.txt"
    for text, n in (("0 1\n1 11\n", 12), ("# n=11\n0 1\n", 11)):
        path.write_text(text)
        with pytest.raises(ValueError, match=f"g.txt: node count {n} out of supported range"):
            load_edge_list(path)
    path.write_text("# n=10\n0 9\n")
    assert load_edge_list(path).n == 10
    path.write_text("0 1\n1 11\n")
    assert load_edge_list(path, compact=True).n == 3


@pytest.mark.parametrize("compact", [False, True])
@pytest.mark.parametrize("big", ["9223372036854775808", "10000000000000000000"])
def test_load_edge_list_rejects_ids_beyond_int64(tmp_path, compact, big):
    path = tmp_path / "g.txt"
    path.write_text(f"0 1\n1 {big}\n2 3\n")
    with pytest.raises(ValueError, match=f"line 2: expected two non-negative integers, "
                                         f"got '1 {big}'"):
        load_edge_list(path, compact=compact)


def test_load_edge_list_compact_keeps_int64_ids(tmp_path):
    path = tmp_path / "g.txt"
    # leading zeros pad an id past 19 digits and it still fits
    path.write_text("5 9223372036854775807\n0000000000000000000000007 5\n")
    g = load_edge_list(path, compact=True)
    assert g.n == 3 and [g.neighbors(i).tolist() for i in range(3)] == [[1, 2], [0], [0]]


# -- generators ----------------------------------------------------------------

def test_erdos_renyi_extremes():
    assert gen_erdos_renyi(4, 0.0, 0).num_edges == 0
    k4 = gen_erdos_renyi(4, 1.0, 0)
    assert k4.num_edges == 6
    assert gen_erdos_renyi(1, 0.5, 0).num_edges == 0


def test_erdos_renyi_deterministic_and_seed_sensitive():
    a = gen_erdos_renyi(3000, 2 / 3000, 42)
    b = gen_erdos_renyi(3000, 2 / 3000, 42)
    c = gen_erdos_renyi(3000, 2 / 3000, 43)
    assert np.array_equal(a._indices, b._indices)
    assert not np.array_equal(a._indices, c._indices)
    check_invariants(a)


def test_erdos_renyi_mean_edge_count():
    # binomial expectation check over 100 seeds at the sparse-scale regime
    n, p, runs = 8000, 2 / 8000, 100
    counts = [gen_erdos_renyi(n, p, seed).num_edges for seed in range(runs)]
    expected = n * (n - 1) / 2 * p
    sigma_mean = math.sqrt(n * (n - 1) / 2 * p * (1 - p) / runs)
    assert abs(np.mean(counts) - expected) < 3 * sigma_mean


def test_erdos_renyi_dense_path_matches_probability():
    # n <= 2000 takes the dense Bernoulli-matrix path
    g = gen_erdos_renyi(400, 0.05, 7)
    expected = 400 * 399 / 2 * 0.05
    assert abs(g.num_edges - expected) < 4 * math.sqrt(expected)
    check_invariants(g)


def test_grid_shapes():
    line = gen_grid(1, 5)
    assert line.n == 5 and line.num_edges == 4
    square = gen_grid(2, 3)
    assert square.n == 9 and square.num_edges == 12
    big = gen_grid(2, 100)
    degrees = big.degrees()
    assert degrees[0] == 2  # corner
    assert degrees[101] == 4  # interior (1,1)
    assert int((degrees == 4).sum()) == 98 * 98


def test_grid_rejects_bad_params():
    with pytest.raises(ValueError):
        gen_grid(0, 5)
    with pytest.raises(ValueError):
        gen_grid(2, 1)


def test_tree_counts_and_structure():
    t = gen_tree(2, 1)
    assert t.n == 3 and t.num_edges == 2
    t13 = gen_tree(3, 2)
    assert t13.n == 13
    assert t13.degrees()[0] == 3  # root
    assert t13.degrees()[12] == 1  # last leaf
    assert t13.neighbors(1).tolist() == [0, 4, 5, 6]
    assert tree_level_offsets(3, 2) == [0, 1, 4, 13]


def test_power_law_small_graph_is_simple():
    g = gen_power_law(10, 3.0, seed_ok := 3)
    check_invariants(g)
    assert g.n == 10
    assert int(g.degrees().min()) >= 1, f"seed {seed_ok} left an isolated node"


def test_power_law_deterministic():
    a = gen_power_law(1000, 2.5, 11)
    b = gen_power_law(1000, 2.5, 11)
    assert np.array_equal(a._indices, b._indices)
    assert np.array_equal(a._indptr, b._indptr)


def test_power_law_degree_slope():
    # log-log histogram slope near the target tail exponent
    g = gen_power_law(8400, 2.5, 5)
    degrees = g.degrees()
    counts = np.bincount(degrees)
    xs = np.arange(1, 14)  # bins where the expected count stays >= ~10
    ys = counts[1:14].astype(float)
    assert (ys > 0).all()
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    assert abs(slope - (-2.5)) < 0.3


@given(st.integers(1, 30), st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)),
                                   max_size=60), st.integers(0, 20))
def test_clean_edges_matches_unique_reference(n, pairs, n_reversed):
    edges = np.asarray([(u % n, v % n) for u, v in pairs], dtype=np.int64).reshape(-1, 2)
    edges = np.concatenate([edges, edges[:n_reversed, ::-1]])  # both directions
    indptr, indices, n_dup, n_self = csr_oracle(n, edges)
    src = np.repeat(np.arange(n), np.diff(indptr))
    out = np.stack([src, indices], axis=1)[src < indices]
    loops = edges[:, 0] == edges[:, 1]
    rest = edges[~loops]
    keys = np.unique(rest.min(axis=1) * n + rest.max(axis=1))
    assert out.dtype == np.int64 and out.shape == (keys.size, 2)
    assert out.tolist() == np.stack([keys // n, keys % n], axis=1).tolist()
    assert n_dup == len(rest) - keys.size and n_self == int(loops.sum())
    # load_edge_list's counts, from sizes alone
    g = Graph.from_edges(n, edges)
    assert n_dup == len(edges) - n_self - g.num_edges


# -- neighborhood queries --------------------------------------------------------

def test_nearest_neighbors_cycle():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)])
    assert g.nn_members(0, 2) == [1, 4]
    assert g.nn_members(2, 4) == [1, 3, 0, 4]


def test_nearest_neighbors_tie_break_by_id():
    star = Graph.from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
    assert star.nn_members(0, 2) == [1, 2]
    assert star.nn_members(0, 3) == [1, 2, 3]


def test_nearest_neighbors_undersized():
    g = path_graph(3)
    assert g.nn_members(1, 5) == [0, 2]
    lonely = Graph.from_edges(2, [])
    assert lonely.nn_members(0, 3) == []


def test_ball_queries():
    g = path_graph(5)
    assert g.ball_members(2, 0) == []
    assert g.ball_members(2, 1) == [1, 3]
    assert g.ball_members(2, 2) == [1, 3, 0, 4]
    grid = gen_grid(2, 5)
    center = 12
    assert grid.ball_members(center, 1) == [7, 11, 13, 17]


def test_query_validation():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.nn_members(0, 0)
    with pytest.raises(ValueError):
        g.ball_members(0, -1)


@given(small_graphs(), st.integers(0, 11), st.integers(1, 12))
def test_nn_matches_oracle(g, i, k):
    i = i % g.n
    assert g.nn_members(i, k) == nn_oracle(g, i, k)


@given(small_graphs(), st.integers(0, 11), st.integers(0, 5))
def test_ball_matches_oracle(g, i, l):
    i = i % g.n
    assert g.ball_members(i, l) == ball_oracle(g, i, l)


@given(small_graphs(), st.integers(0, 11), st.integers(1, 10))
def test_nn_prefix_monotone(g, i, k):
    i = i % g.n
    smaller = g.nn_members(i, k)
    larger = g.nn_members(i, k + 1)
    assert larger[:len(smaller)] == smaller


@given(small_graphs(), st.integers(0, 11), st.integers(1, 10))
def test_nn_subset_of_covering_ball(g, i, k):
    i = i % g.n
    members = g.nn_members(i, k)
    if not members:
        return
    dist = hop_distances(g, i)
    l = max(dist[v] for v in members)
    assert set(members) <= set(g.ball_members(i, l))


@given(small_graphs(), st.integers(0, 11))
def test_ball_size_nondecreasing(g, i):
    i = i % g.n
    sizes = [len(g.ball_members(i, l)) for l in range(5)]
    assert sizes == sorted(sizes)


# -- components ----------------------------------------------------------------

@given(st.one_of(small_graphs(), clustered_graphs(), twin_random_graphs()))
def test_component_labels_match_dfs_oracle(g):
    labels = g.component_labels()
    assert labels.dtype == np.int64 and labels.shape == (g.n,)
    for comp in components_oracle(g):
        assert labels[comp].tolist() == [comp[0]] * len(comp)


@given(st.one_of(small_graphs(), clustered_graphs(), twin_random_graphs()))
def test_largest_component_matches_dfs_oracle(g):
    sub, old_ids = g.largest_component()
    expected = largest_component_oracle(g)
    assert old_ids.dtype == np.int64 and old_ids.tolist() == expected
    assert sub.n == len(expected)
    check_invariants(sub)
    for new, old in enumerate(expected):
        assert old_ids[sub.neighbors(new)].tolist() == g.neighbors(old).tolist()


def test_largest_component_of_empty_graph():
    sub, old_ids = Graph.from_edges(0, []).largest_component()
    assert sub.n == 0 and sub.num_edges == 0
    assert old_ids.dtype == np.int64 and old_ids.size == 0


def test_components_and_subgraph():
    g = Graph.from_edges(8, [(0, 1), (3, 4), (4, 5), (5, 3), (5, 7)])
    assert g.component_labels().tolist() == [0, 0, 2, 3, 3, 3, 6, 3]
    sub, old_ids = g.largest_component()
    assert old_ids.tolist() == [3, 4, 5, 7]
    assert sub.n == 4 and sub.num_edges == 4


@pytest.mark.parametrize("nodes, want", [
    (np.array([1, 4, 9]), [1, 4, 9]),             # ascending: copied, not re-sorted
    (np.array([4, 1, 9, 4], dtype=np.int32), [1, 4, 9]),
    (np.array([], dtype=np.int64), []),
    ([9, 1, 1], [1, 9]),
])
def test_node_array_returns_a_new_ascending_int64_array(nodes, want):
    got = node_array(nodes)
    assert got.dtype == np.int64 and got.tolist() == want
    assert not np.shares_memory(got, np.asarray(nodes))


@pytest.mark.parametrize("nodes, message", [
    ([3, 1.5], "node id 1.5 is not an integer"),
    (np.array([-math.inf]), "node id -inf is not an integer"),
    (np.array([True, False]), "node ids must be integers, got a boolean array"),
], ids=["fraction", "infinite", "mask"])
def test_node_array_refuses_ids_that_are_not_integers(nodes, message):
    with pytest.raises(ValueError, match=message):
        node_array(nodes)
    assert node_array([3.0, 1.0]).tolist() == [1, 3]
