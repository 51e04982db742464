import numpy as np
import pytest

from conftest import random_symmetric_model
from optising.graph import WeightedGraph
from optising.ising import IsingModel, from_graph
from optising.spectral import (
    build_ensemble,
    dump_bundle,
    eigendecompose,
    error_ratio,
    splits_cluster,
    tail_frobenius,
)

TWO_SPIN = IsingModel(np.array([[0.0, 0.5], [0.5, 0.0]]))
SQ2 = 1.0 / np.sqrt(2.0)


def test_two_spin_closed_form():
    b = eigendecompose(TWO_SPIN)
    assert b.lam == pytest.approx([0.5, -0.5], abs=1e-12)
    assert b.vectors[:, 0] == pytest.approx([SQ2, SQ2], abs=1e-12)
    assert b.vectors[:, 1] == pytest.approx([SQ2, -SQ2], abs=1e-12)
    assert list(b.signs) == [1, -1]
    assert list(b.order) == [0, 1]


def test_zero_matrix():
    b = eigendecompose(IsingModel(np.zeros((4, 4))))
    assert np.all(b.lam == 0.0)
    assert np.all(b.signs == 1)  # zero eigenvalues count as positive


def test_reconstruction_and_orthonormality(rng):
    for n in (2, 3, 5, 8, 13, 21, 34):
        m = random_symmetric_model(n, rng)
        b = eigendecompose(m)
        fro = np.linalg.norm(m.J)
        rec = (b.vectors * b.lam) @ b.vectors.T
        assert np.linalg.norm(rec - m.J) <= 1e-9 * fro
        gram = b.vectors.T @ b.vectors
        assert np.max(np.abs(gram - np.eye(n))) <= 1e-10


def test_eigen_residual(rng):
    for _ in range(20):
        n = int(rng.integers(2, 24))
        m = random_symmetric_model(n, rng)
        b = eigendecompose(m)
        bound = 1e-9 * max(1.0, np.linalg.norm(m.J, np.inf))
        for i in range(n):
            res = m.J @ b.vectors[:, i] - b.lam[i] * b.vectors[:, i]
            assert np.linalg.norm(res, np.inf) <= bound


def unweighted(n, pairs) -> IsingModel:
    return from_graph(WeightedGraph(n, tuple((u, v, 1.0) for u, v in pairs)))


def test_path_graph_closed_form_oracle():
    # Path P_n: J = -A/2 has the non-degenerate eigenvalues -cos(pi k/(n+1))
    # with eigenvectors proportional to sin(pi j k/(n+1)), j, k = 1..n.
    for n in (2, 5, 17, 64):
        b = eigendecompose(unweighted(n, [(i, i + 1) for i in range(n - 1)]))
        j = np.arange(1, n + 1)
        for i in range(n):
            k = n - i  # storage is descending in -cos(pi k/(n+1))
            assert b.lam[i] == pytest.approx(-np.cos(np.pi * k / (n + 1)), abs=1e-12)
            ref = np.sqrt(2.0 / (n + 1)) * np.sin(np.pi * j * k / (n + 1))
            col = b.vectors[:, i]
            # |entries| tie in pairs, so align the oracle's sign on the entry
            # the canonical rule picked, which must then be positive
            top = int(np.argmax(np.abs(col)))
            assert col[top] > 0
            assert col == pytest.approx(np.sign(ref[top]) * ref, abs=1e-12)


@pytest.mark.parametrize("n", [256, 512])
def test_reconstruction_and_orthonormality_large_n(rng, n):
    m = random_symmetric_model(n, rng)
    b = eigendecompose(m)
    rec = (b.vectors * b.lam) @ b.vectors.T
    assert np.linalg.norm(rec - m.J) <= 1e-9 * np.linalg.norm(m.J)
    assert np.max(np.abs(b.vectors.T @ b.vectors - np.eye(n))) <= 1e-10


def test_sign_bookkeeping_lossless(rng):
    m = random_symmetric_model(9, rng)
    b = eigendecompose(m)
    signed = (b.vectors * (b.signs * np.abs(b.lam))) @ b.vectors.T
    plain = (b.vectors * b.lam) @ b.vectors.T
    assert np.array_equal(signed, plain)


def test_order_sorts_by_magnitude(rng):
    for _ in range(30):
        n = int(rng.integers(2, 16))
        b = eigendecompose(random_symmetric_model(n, rng))
        mags = np.abs(b.lam[b.order])
        assert np.all(np.diff(mags) <= 1e-15)


def test_eigenvector_sign_convention(rng):
    for _ in range(30):
        n = int(rng.integers(2, 16))
        b = eigendecompose(random_symmetric_model(n, rng))
        for i in range(n):
            col = b.vectors[:, i]
            assert col[int(np.argmax(np.abs(col)))] > 0


def test_determinism(rng):
    m = random_symmetric_model(12, rng)
    b1 = eigendecompose(m)
    b2 = eigendecompose(m)
    assert np.array_equal(b1.lam, b2.lam)
    assert np.array_equal(b1.vectors, b2.vectors)
    assert np.array_equal(b1.order, b2.order)


def test_build_ensemble_full_reconstructs(rng):
    m = random_symmetric_model(7, rng)
    b = eigendecompose(m)
    ens = build_ensemble(b, 7)
    rec = (ens.xi.T * ens.g) @ ens.xi
    assert np.linalg.norm(rec - m.J) <= 1e-9 * max(1.0, np.linalg.norm(m.J))


def test_build_ensemble_k1_tie_picks_positive_component():
    b = eigendecompose(TWO_SPIN)
    ens = build_ensemble(b, 1)
    assert ens.g[0] == 1.0
    assert ens.xi[0] == pytest.approx([0.5, 0.5], abs=1e-12)


def test_build_ensemble_scales_with_p():
    b = eigendecompose(TWO_SPIN)
    e1 = build_ensemble(b, 2, P=1.0)
    e2 = build_ensemble(b, 2, P=2.0)
    assert np.allclose(e2.xi, 2.0 * e1.xi)


def test_build_ensemble_guards():
    b = eigendecompose(TWO_SPIN)
    with pytest.raises(ValueError):
        build_ensemble(b, 0)
    with pytest.raises(ValueError):
        build_ensemble(b, 3)
    for bad in (0.0, float("nan"), float("inf")):
        with pytest.raises(ValueError, match="P must be finite and positive"):
            build_ensemble(b, 1, P=bad)


def test_error_ratio_examples():
    b = eigendecompose(TWO_SPIN)
    assert error_ratio(b, 2) == 0.0
    assert error_ratio(b, 1) == pytest.approx(0.5)
    assert error_ratio(b, 0) == 1.0


def test_error_ratio_zero_spectrum():
    b = eigendecompose(IsingModel(np.zeros((3, 3))))
    assert error_ratio(b, 1) == 0.0


def test_error_ratio_monotone(rng):
    for _ in range(50):
        n = int(rng.integers(2, 16))
        b = eigendecompose(random_symmetric_model(n, rng))
        mus = [error_ratio(b, k) for k in range(n + 1)]
        assert mus[-1] == pytest.approx(0.0, abs=1e-12)
        assert all(a >= b_ - 1e-12 for a, b_ in zip(mus, mus[1:]))


def test_splits_cluster_complete_graph():
    # K4: J = -A/2 has eigenvalues {-1.5, 1/2, 1/2, 1/2}; -1.5 is kept first
    b = eigendecompose(unweighted(4, [(u, v) for u in range(4) for v in range(u + 1, 4)]))
    assert b.lam == pytest.approx([0.5, 0.5, 0.5, -1.5], abs=1e-12)
    assert [splits_cluster(b, K) for K in range(5)] == [False, False, True, True, False]


def test_splits_cluster_ignores_magnitude_ties_and_zero_cluster(rng):
    b = eigendecompose(TWO_SPIN)  # +/-0.5 tie only in |lam|
    assert not splits_cluster(b, 1)
    b = eigendecompose(IsingModel(np.zeros((3, 3))))
    assert not any(splits_cluster(b, K) for K in range(4))
    b = eigendecompose(random_symmetric_model(10, rng))
    assert not any(splits_cluster(b, K) for K in range(11))
    with pytest.raises(ValueError):
        splits_cluster(b, 11)


def test_tail_frobenius_examples():
    b = eigendecompose(TWO_SPIN)
    assert tail_frobenius(b, 2) == 0.0
    assert tail_frobenius(b, 0) == pytest.approx(np.linalg.norm(TWO_SPIN.J))
    assert tail_frobenius(b, 1) == pytest.approx(0.5)


@pytest.mark.parametrize("metric", [error_ratio, tail_frobenius])
def test_truncation_metrics_reject_k_outside_0_to_n(metric):
    b = eigendecompose(TWO_SPIN)
    for K in (-1, 3):
        with pytest.raises(ValueError, match="K must lie in 0..2"):
            metric(b, K)


def test_tail_frobenius_monotone_and_matches_truncation(rng):
    for _ in range(20):
        n = int(rng.integers(2, 12))
        m = random_symmetric_model(n, rng)
        b = eigendecompose(m)
        tails = [tail_frobenius(b, k) for k in range(n + 1)]
        assert all(a >= b_ - 1e-12 for a, b_ in zip(tails, tails[1:]))
        assert tails[-1] == 0.0
        # independent check: tail equals the Frobenius norm of J minus the
        # explicit rank-K reconstruction
        for k in (1, n // 2, n):
            picked = b.order[:k]
            rec = (b.vectors[:, picked] * b.lam[picked]) @ b.vectors[:, picked].T
            direct = np.linalg.norm(m.J - rec)
            assert tails[k] == pytest.approx(direct, abs=1e-9 * max(1.0, direct))


def test_dump_bundle(tmp_path):
    import json

    b = eigendecompose(TWO_SPIN)
    p = tmp_path / "bundle.json"
    dump_bundle(b, p)
    payload = json.loads(p.read_text())
    assert payload["lambda"] == pytest.approx([0.5, -0.5])
    assert payload["order"] == [0, 1]
    assert len(payload["Q"]) == 2
