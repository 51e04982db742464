import numpy as np
import pytest

from optising.graph import (
    GraphError,
    GraphFormatError,
    WeightedGraph,
    density,
    gen_density,
    gen_regular,
    read_graph,
    write_graph,
)


def test_gen_regular_degree_5_on_20_vertices():
    g = gen_regular(20, 5, 0.0, 1.0, seed=7)
    assert g.n == 20
    assert g.num_edges == 50
    assert list(g.degrees()) == [5] * 20


def test_gen_regular_two_vertices_single_edge():
    g = gen_regular(2, 1, 0.0, 1.0, seed=0)
    assert g.num_edges == 1
    (u, v, w) = g.edges[0]
    assert (u, v) == (0, 1)
    assert 0.0 <= w < 1.0


def test_gen_regular_degree_n_minus_1_is_complete():
    g = gen_regular(6, 5, 0.0, 1.0, seed=11)
    assert g.num_edges == 15
    assert set((u, v) for u, v, _ in g.edges) == {
        (u, v) for u in range(6) for v in range(u + 1, 6)
    }


@pytest.mark.parametrize("n,degree", [(5, 3), (7, 5)])
def test_gen_regular_rejects_odd_stub_count(n, degree):
    with pytest.raises(GraphError):
        gen_regular(n, degree, 0.0, 1.0, seed=0)


def test_gen_regular_rejects_degree_out_of_range():
    with pytest.raises(GraphError):
        gen_regular(4, 4, 0.0, 1.0, seed=0)
    with pytest.raises(GraphError):
        gen_regular(4, 0, 0.0, 1.0, seed=0)


NON_FINITE_BOUNDS = [(0.0, float("inf")), (float("-inf"), 1.0), (-1e308, 1e308),
                     (0.0, float("nan"))]


@pytest.mark.parametrize("low,high", NON_FINITE_BOUNDS)
def test_gen_regular_rejects_non_finite_weights(low, high):
    with pytest.raises(GraphError):
        gen_regular(6, 3, low, high, seed=0)


@pytest.mark.parametrize("low,high", NON_FINITE_BOUNDS)
def test_gen_density_rejects_non_finite_weights(low, high):
    with pytest.raises(GraphError, match="must be finite"):
        gen_density(6, 0.5, low, high, seed=0)


def test_gen_regular_degrees_exact_over_seeds():
    for seed in range(12):
        g = gen_regular(12, 5, 0.0, 1.0, seed=seed)
        assert list(g.degrees()) == [5] * 12


def test_gen_regular_deterministic():
    a = gen_regular(16, 3, 0.0, 1.0, seed=42)
    b = gen_regular(16, 3, 0.0, 1.0, seed=42)
    c = gen_regular(16, 3, 0.0, 1.0, seed=43)
    assert a == b
    assert a != c


def test_gen_regular_weights_in_range():
    g = gen_regular(20, 5, 2.0, 3.0, seed=1)
    assert all(2.0 <= w < 3.0 for _, _, w in g.edges)


def test_gen_density_complete():
    g = gen_density(20, 1.0, seed=0)
    assert g.num_edges == 190


def test_gen_density_edge_counts():
    assert gen_density(20, 100 / 190, seed=5).num_edges == 100
    assert gen_density(4, 0.5, seed=5).num_edges == 3


@pytest.mark.parametrize("d", [0.0, -0.1, 1.5])
def test_gen_density_rejects_bad_density(d):
    with pytest.raises(GraphError):
        gen_density(10, d, seed=0)


def test_gen_density_rounding_property():
    # density differs from the request only by the rounding of E
    rng = np.random.default_rng(0)
    for _ in range(50):
        n = int(rng.integers(4, 30))
        d = float(rng.uniform(0.05, 1.0))
        m_all = n * (n - 1) // 2
        if round(d * m_all) < 1:
            continue
        g = gen_density(n, d, seed=int(rng.integers(1 << 30)))
        assert abs(density(g) - d) <= 1.0 / m_all + 1e-12


def test_density_values():
    g = gen_regular(20, 5, 0.0, 1.0, seed=7)
    assert density(g) == pytest.approx(100 / 380)
    k4 = WeightedGraph(4, tuple((u, v, 1.0) for u in range(4) for v in range(u + 1, 4)))
    assert density(k4) == 1.0
    assert density(WeightedGraph(2, ((0, 1, 1.0),))) == 1.0


def test_graph_invariants_rejected():
    with pytest.raises(GraphError):
        WeightedGraph(3, ((0, 0, 1.0),))  # self-loop
    with pytest.raises(GraphError):
        WeightedGraph(3, ((0, 1, 1.0), (1, 0, 2.0)))  # duplicate
    with pytest.raises(GraphError):
        WeightedGraph(3, ((0, 3, 1.0),))  # out of range


def test_rudy_parse_minimal(tmp_path):
    p = tmp_path / "g.rud"
    p.write_text("2 1\n1 2 0.5\n")
    g = read_graph(p, "rudy")
    assert g.n == 2
    assert g.edges == ((0, 1, 0.5),)


def test_rudy_round_trip(tmp_path):
    g = gen_regular(20, 5, 0.0, 1.0, seed=3)
    p = tmp_path / "g.rud"
    write_graph(g, p, "rudy")
    assert read_graph(p, "rudy") == g


def test_json_round_trip(tmp_path):
    g = gen_density(9, 0.4, seed=8)
    p = tmp_path / "g.json"
    write_graph(g, p, "json")
    assert read_graph(p, "json") == g


def test_rudy_vertex_out_of_range(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("2 1\n1 3 0.5\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph(p, "rudy")


def test_rudy_bad_header(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("nope\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        read_graph(p, "rudy")


def test_rudy_duplicate_edge(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("3 2\n1 2 0.5\n2 1 0.7\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_graph(p, "rudy")


def test_rudy_edge_count_mismatch(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("3 2\n1 2 0.5\n")
    with pytest.raises(GraphFormatError, match="declares"):
        read_graph(p, "rudy")


def test_json_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(GraphFormatError):
        read_graph(p, "json")
