import numpy as np
import pytest

from conftest import random_symmetric_model
from optising.graph import WeightedGraph, gen_regular
from optising.ising import (
    IsingModel,
    MatrixFormatError,
    brute_force_maxcut,
    cut_value,
    delta_hamiltonian,
    from_graph,
    hamiltonian,
    random_state,
    random_states,
    read_matrix,
    write_matrix,
)

K3 = WeightedGraph(3, ((0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0)))


def test_from_graph_single_edge():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    m = from_graph(g)
    # half the weight in each slot, antiferromagnetic sign
    assert np.array_equal(m.J, np.array([[0.0, -0.5], [-0.5, 0.0]]))


def test_from_graph_triangle():
    m = from_graph(K3)
    off = m.J[np.triu_indices(3, 1)]
    assert np.all(off == -0.5)
    assert np.all(np.diag(m.J) == 0.0)


def test_from_graph_regular_instance_entry_count():
    g = gen_regular(20, 5, 0.0, 1.0, seed=7)
    m = from_graph(g)
    assert np.count_nonzero(m.J) == 100  # 50 edges, two symmetric slots each
    for u, v, w in g.edges:
        assert m.J[u, v] == m.J[v, u] == -w / 2.0


def test_ising_model_validation():
    with pytest.raises(ValueError):
        IsingModel(np.array([[0.0, 1.0], [0.5, 0.0]]))  # asymmetric
    with pytest.raises(ValueError):
        IsingModel(np.array([[1.0, 0.5], [0.5, 0.0]]))  # diagonal
    with pytest.raises(ValueError):
        IsingModel(np.zeros((2, 3)))


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_ising_model_rejects_non_finite(bad):
    J = np.array([[0.0, bad], [bad, 0.0]])
    with pytest.raises(ValueError, match="J must be finite"):
        IsingModel(J)


def test_hamiltonian_examples():
    m = IsingModel(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert hamiltonian(m, [1, 1]) == -1.0
    assert hamiltonian(m, [1, -1]) == 1.0


def test_hamiltonian_global_flip_invariance(rng):
    for _ in range(200):
        n = int(rng.integers(2, 12))
        m = random_symmetric_model(n, rng)
        x = random_state(n, rng)
        assert hamiltonian(m, x) == hamiltonian(m, -x)


def test_hamiltonian_of_a_block_matches_each_row(rng):
    g = gen_regular(12, 5, -1.0, 1.0, seed=3)
    m = from_graph(g)
    X = random_states(12, 4 * 5, rng).reshape(4, 5, 12)
    H = hamiltonian(m, X)
    assert H.shape == (4, 5)
    for b in range(4):
        Hb = hamiltonian(m, X[b])
        assert Hb.shape == (5,)
        for r in range(5):
            h = hamiltonian(m, X[b, r])
            assert isinstance(h, float)
            # the edge-sum reference, through W = total/2 - H/2
            assert h == pytest.approx(g.total_weight() - 2.0 * cut_value(g, X[b, r]),
                                      rel=1e-12, abs=1e-12)
            assert Hb[r] == pytest.approx(h, rel=1e-12, abs=1e-12)
            assert H[b, r] == pytest.approx(h, rel=1e-12, abs=1e-12)


@pytest.mark.parametrize("shape", [(), (11,), (3, 11), (12, 3)])
def test_hamiltonian_rejects_a_wrong_last_axis(shape):
    m = from_graph(gen_regular(12, 5, seed=3))
    with pytest.raises(ValueError, match="does not match n=12"):
        hamiltonian(m, np.ones(shape))


def test_delta_hamiltonian_example():
    m = IsingModel(np.array([[0.0, 0.5], [0.5, 0.0]]))
    assert delta_hamiltonian(m, [1, 1], 0) == pytest.approx(2.0)


def test_delta_hamiltonian_zero_row():
    J = np.zeros((3, 3))
    J[1, 2] = J[2, 1] = 0.7
    m = IsingModel(J)
    assert delta_hamiltonian(m, [1, -1, 1], 0) == 0.0


def test_delta_hamiltonian_double_flip_cancels(rng):
    m = random_symmetric_model(5, rng)
    x = random_state(5, rng).astype(float)
    d1 = delta_hamiltonian(m, x, 2)
    x[2] = -x[2]
    d2 = delta_hamiltonian(m, x, 2)
    assert d1 + d2 == pytest.approx(0.0, abs=1e-12)


def test_delta_hamiltonian_matches_recompute(rng):
    for _ in range(300):
        n = int(rng.integers(2, 14))
        m = random_symmetric_model(n, rng)
        x = random_state(n, rng).astype(float)
        i = int(rng.integers(n))
        h0 = hamiltonian(m, x)
        y = x.copy()
        y[i] = -y[i]
        h1 = hamiltonian(m, y)
        scale = max(1.0, abs(h1 - h0))
        assert abs(delta_hamiltonian(m, x, i) - (h1 - h0)) <= 1e-12 * scale


def test_delta_hamiltonian_index_guard():
    m = IsingModel(np.zeros((2, 2)))
    with pytest.raises(IndexError):
        delta_hamiltonian(m, [1, 1], 2)


def test_cut_value_examples():
    g = WeightedGraph(2, ((0, 1, 1.0),))
    assert cut_value(g, [1, -1]) == 1.0
    assert cut_value(g, [1, 1]) == 0.0
    assert cut_value(K3, [1, 1, -1]) == 2.0


def test_cut_identity_fuzzed(rng):
    # W == total/2 - H/2 with the graph's coupling matrix
    for _ in range(200):
        n = int(rng.integers(2, 12))
        degree = int(rng.integers(1, n))
        if (n * degree) % 2:
            degree = max(1, degree - 1)
            if (n * degree) % 2:
                continue
        g = gen_regular(n, degree, 0.0, 1.0, seed=int(rng.integers(1 << 30)))
        m = from_graph(g)
        x = random_state(n, rng)
        w = cut_value(g, x)
        ident = g.total_weight() / 2.0 - hamiltonian(m, x) / 2.0
        assert w == pytest.approx(ident, rel=1e-9, abs=1e-9)


def test_brute_force_single_edge():
    best, state = brute_force_maxcut(WeightedGraph(2, ((0, 1, 1.0),)))
    assert best == 1.0
    assert state[0] * state[1] == -1


def test_brute_force_triangle():
    best, _ = brute_force_maxcut(K3)
    assert best == 2.0


def test_brute_force_path():
    path = WeightedGraph(3, ((0, 1, 1.0), (1, 2, 1.0)))
    best, state = brute_force_maxcut(path)
    assert best == 2.0
    assert list(state) == [1, -1, 1]


def test_brute_force_tie_break_lowest_index():
    # all cuts equal 0, so the first enumerated state (all +1) must win
    g = WeightedGraph(3, ((0, 1, 0.0), (1, 2, 0.0)))
    _, state = brute_force_maxcut(g)
    assert list(state) == [1, 1, 1]


def test_brute_force_matches_direct_enumeration(rng):
    # independent oracle: direct itertools enumeration of all sign patterns
    import itertools

    for seed in range(5):
        g = gen_regular(8, 3, 0.0, 1.0, seed=seed)
        best = max(cut_value(g, np.array(bits))
                   for bits in itertools.product([1, -1], repeat=8))
        got, state = brute_force_maxcut(g)
        assert got == pytest.approx(best, abs=1e-12)
        assert cut_value(g, state) == pytest.approx(best, abs=1e-12)


def test_brute_force_size_guard():
    g = WeightedGraph(29, tuple((i, i + 1, 1.0) for i in range(28)))
    with pytest.raises(ValueError):
        brute_force_maxcut(g)


def test_matrix_json_round_trip(tmp_path, rng):
    m = random_symmetric_model(6, rng)
    p = tmp_path / "m.json"
    write_matrix(m, p, "json")
    m2 = read_matrix(p)
    assert np.array_equal(m.J, m2.J)


def test_matrix_csv_round_trip(tmp_path, rng):
    m = random_symmetric_model(5, rng)
    p = tmp_path / "m.csv"
    write_matrix(m, p, "csv")
    m2 = read_matrix(p)
    assert np.array_equal(m.J, m2.J)


def test_matrix_load_symmetrizes_small_skew(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"n": 2, "J": [[0.0, 0.5], [0.5000000000001, 0.0]]}')
    m = read_matrix(p)
    assert m.J[0, 1] == m.J[1, 0]


def test_matrix_load_rejects_asymmetry(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"n": 2, "J": [[0.0, 0.5], [0.7, 0.0]]}')
    with pytest.raises(MatrixFormatError):
        read_matrix(p)


def test_matrix_load_zeroes_diagonal(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"n": 2, "J": [[3.0, 0.5], [0.5, -1.0]]}')
    m = read_matrix(p)
    assert np.all(np.diag(m.J) == 0.0)
    assert m.J[0, 1] == 0.5


def test_matrix_csv_rejects_non_square(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("0.0,0.5\n0.5,0.0\n1.0,2.0\n")
    with pytest.raises(MatrixFormatError, match="square"):
        read_matrix(p)
