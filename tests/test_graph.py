import hashlib
from collections import Counter

import numpy as np
import pytest

from optising import graph as graph_module
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


# sha256 of repr(g.edges) for sparse degrees (2 * degree <= n - 1).  These
# graphs feed the paper instance and the rmse studies, so a faster repair must
# reproduce them bit for bit.
SPARSE_GOLDEN = {
    (20, 5, 0): "c0169ec85424ae5394d57203195f386b8d56a92b6366b765878588d028179fd3",
    (20, 5, 7): "078ab097c8092710a2bfaac78e79f837944ac16319625207957fa7e424723984",
    (12, 5, 0): "34d5f21784d5b68396a05dc147ad49b940d4a0bc00bd5e6ed96cf90a190b3685",
    (12, 5, 1): "029e97bfbc09e606a6429c99b931d77a058084f77a5fc8730202152d9ee9469a",
    (12, 5, 2): "d8935ddc1e577f5db05e4c55dfddfc76016bb20de57ca414b27e67d2cda16e68",
    (12, 5, 3): "a6907acf331113ddd04d5fa7357678051d9f20c115f7f0a86cfefc32e8b86556",
    (12, 5, 4): "559712287d6409c3a0069b89a187085100fc4c59de18248df5b1a7c15ea53bcb",
    (12, 5, 5): "cd0a5c1c307fa2dfa27df587e5f1a1cea056d4eab021acba38685cc29ae0b97b",
    (12, 5, 6): "4b8540e2d430440e9fd5872d290398cb3bafaac9c5f0f4baed52e79ce1858b9e",
    (12, 5, 7): "b31a034368b5057502124cc5a97249375f3e693bfcce9de9d28b5211b94a1f44",
    (12, 5, 8): "51f59b3039e5171a1898070d9f1e658a3efd33dcff2e46ce451daaa707f83793",
    (12, 5, 9): "724399d5a3ff74c7e37b31125b8526925aa67dd3a9b9cac3644b7aff2be3a891",
    (12, 5, 10): "81c3e19af692325c472488d11727a02b7543464a98882fb1b92cc610534326f6",
    (12, 5, 11): "8440190abf0424d41a89cc0bff4587889b4ac6c38b5d85bb2740be79c3dc788e",
    (128, 3, 0): "4b7fd6fa16a41dfbf7c2e286a0149410f74ae01f18bf3cd9ca982cebf14d9b52",
    (128, 3, 1): "ed3e4e85b3b4eb1a24cae38dbbba75817e57bce651cddc581a11865fed9e9d31",
    (128, 3, 2): "7f766a1e18d8de23469bae7d9ac4562640527629d9f8e2d24940f7b32a8f4315",
    (128, 3, 3): "c63e336a27b0c58dff9c1c3da597888f800af75a6f42b30583a8df263f581e6d",
    (64, 31, 0): "a2b0f98c3d841a933f96b3a684fa19ecb003eae2e5f73bf5227ac467c1fc8663",
    (100, 49, 0): "4b09da78b73559de7d08ed83a7bb82c02d88d738c1e78004306b0a9026175bf5",
}


@pytest.mark.parametrize("n,degree,seed", list(SPARSE_GOLDEN))
def test_gen_regular_sparse_outputs_golden(n, degree, seed):
    g = gen_regular(n, degree, 0.0, 1.0, seed=seed)
    digest = hashlib.sha256(repr(g.edges).encode()).hexdigest()
    assert digest == SPARSE_GOLDEN[(n, degree, seed)]


@pytest.mark.parametrize("n,degree", [(10, 9), (20, 17)])
def test_gen_regular_dense_needs_one_repair_pass(monkeypatch, n, degree):
    calls = []
    real = graph_module._repair_pairing

    def counting(*args):
        calls.append(1)
        return real(*args)

    monkeypatch.setattr(graph_module, "_repair_pairing", counting)
    for seed in range(5):
        calls.clear()
        g = gen_regular(n, degree, 0.0, 1.0, seed=seed)
        assert len(calls) == 1
        assert list(g.degrees()) == [degree] * n


def test_gen_regular_repair_budget_grows_with_the_pairing(monkeypatch):
    # one repair pass of (64, 31) at seed 0 needs 576 swap attempts, more
    # than the floor allows here
    monkeypatch.setattr(graph_module, "_MAX_SWAPS", 100)
    g = gen_regular(64, 31, 0.0, 1.0, seed=0)
    assert list(g.degrees()) == [31] * 64


def test_gen_regular_complement_spreads_over_labelled_cycles():
    # K4 holds three labelled 4-cycles; pairing the complement (a perfect
    # matching) must reach each of them about equally often.
    counts = Counter(tuple((u, v) for u, v, _ in gen_regular(4, 2, seed=s).edges)
                     for s in range(300))
    assert len(counts) == 3
    assert min(counts.values()) >= 60


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
    g = read_graph(p)
    assert g.n == 2
    assert g.edges == ((0, 1, 0.5),)


def test_rudy_round_trip(tmp_path):
    g = gen_regular(20, 5, 0.0, 1.0, seed=3)
    p = tmp_path / "g.rud"
    write_graph(g, p, "rudy")
    assert read_graph(p) == g


def test_json_round_trip(tmp_path):
    g = gen_density(9, 0.4, seed=8)
    p = tmp_path / "g.json"
    write_graph(g, p, "json")
    assert read_graph(p) == g


def test_rudy_vertex_out_of_range(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("2 1\n1 3 0.5\n")
    with pytest.raises(GraphFormatError, match="line 2"):
        read_graph(p)


def test_rudy_bad_header(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("nope\n")
    with pytest.raises(GraphFormatError, match="line 1"):
        read_graph(p)


def test_rudy_duplicate_edge(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("3 2\n1 2 0.5\n2 1 0.7\n")
    with pytest.raises(GraphFormatError, match="duplicate"):
        read_graph(p)


def test_rudy_edge_count_mismatch(tmp_path):
    p = tmp_path / "bad.rud"
    p.write_text("3 2\n1 2 0.5\n")
    with pytest.raises(GraphFormatError, match="declares"):
        read_graph(p)


def test_json_malformed(tmp_path):
    p = tmp_path / "bad.json"
    p.write_text("{not json")
    with pytest.raises(GraphFormatError):
        read_graph(p)
