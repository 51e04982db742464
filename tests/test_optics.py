import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from conftest import random_symmetric_model
from optising.graph import gen_regular
from optising.ising import from_graph, hamiltonian, random_state
from optising.optics import (
    HrvEvaluator,
    MacropixelConfig,
    analytic_intensity,
    estimate_span,
    field_intensity,
    frames,
    hrv,
)
from optising.spectral import build_ensemble, eigendecompose
from optising.ising import IsingModel

TWO_SPIN = IsingModel(np.array([[0.0, 0.5], [0.5, 0.0]]))


def test_analytic_intensity_examples():
    assert analytic_intensity([1, 1], [1, 1]) == 4.0
    assert analytic_intensity([1, 1], [1, -1]) == 0.0
    assert analytic_intensity([0.3, -0.7, 0.2], [1, 1, -1]) == pytest.approx(0.36)


def test_analytic_intensity_shape_guard():
    with pytest.raises(ValueError):
        analytic_intensity([1, 1], [1, 1, 1])


def test_field_intensity_two_spins_block4():
    cfg = MacropixelConfig.for_spins(2, block=4)
    assert field_intensity([1, 1], [1, 1], cfg) == pytest.approx(4.0, rel=1e-12)


def test_field_intensity_zero_amplitude():
    cfg = MacropixelConfig.for_spins(3, block=2)
    assert field_intensity([0, 0, 0], [1, -1, 1], cfg) == 0.0


def test_field_matches_analytic_fuzzed(rng):
    worst = 0.0
    for _ in range(60):
        n = int(rng.integers(2, 40))
        xi = rng.uniform(-1, 1, size=n)
        x = random_state(n, rng)
        cfg = MacropixelConfig.for_spins(n, block=8)
        a = analytic_intensity(xi, x)
        f = field_intensity(xi, x, cfg)
        worst = max(worst, abs(f - a) / max(a, f, 1e-30))
    assert worst <= 1e-6


def test_field_config_capacity_guard():
    cfg = MacropixelConfig(side=2, block=2)
    assert cfg.capacity == 4
    with pytest.raises(ValueError, match="layout holds 4 spins, need 5"):
        field_intensity([1] * 5, [1] * 5, cfg)


def test_macropixel_config_validation():
    for side, block in ((0, 1), (1, 0), (-1, 2), (2, -3)):
        with pytest.raises(ValueError, match="side and block must be >= 1"):
            MacropixelConfig(side=side, block=block)


@pytest.mark.parametrize("side, block", [(0, 1), (1, 0), (-1, 2)])
def test_macropixel_config_needs_a_grid(side, block):
    with pytest.raises(ValueError, match="side and block must be >= 1"):
        MacropixelConfig(side=side, block=block)


def test_macropixel_layout_is_set_by_side_and_block():
    assert [f.name for f in dataclasses.fields(MacropixelConfig)] == ["side", "block"]
    for block in (1, 2, 3, 8):
        for n in range(1, 301):
            cfg = MacropixelConfig.for_spins(n, block)
            assert cfg.side == math.isqrt(n - 1) + 1 == math.ceil(math.sqrt(n)), (n, block)
            assert cfg.capacity == cfg.side ** 2 >= n > (cfg.side - 1) ** 2
            # reference pad: double from 1 until it covers side * block
            pad = 1
            while pad < cfg.side * block:
                pad *= 2
            assert cfg.pad == pad, (n, block)


def test_field_intensity_rejects_mismatched_shapes():
    cfg = MacropixelConfig(side=2, block=2)
    with pytest.raises(ValueError, match="shape mismatch"):
        field_intensity([1.0, 0.5], [1, -1, 1], cfg)


def test_field_layout_is_built_once_per_n():
    # the field backend asks for the layout on every read; a frozen layout
    # is shared, one per (n, block)
    assert MacropixelConfig.for_spins(22) is MacropixelConfig.for_spins(22)
    assert MacropixelConfig.for_spins(22) == MacropixelConfig(side=5, block=8)
    assert MacropixelConfig.for_spins(22).pad == 64
    assert MacropixelConfig.for_spins(22, block=4).pad == 32


def test_hrv_full_matches_quadratic_form(rng):
    for _ in range(40):
        n = int(rng.integers(2, 24))
        m = random_symmetric_model(n, rng)
        ens = build_ensemble(eigendecompose(m), n)
        x = random_state(n, rng)
        exact = float(x.astype(float) @ m.J @ x.astype(float))
        got = hrv(ens, x)
        assert abs(got - exact) <= 1e-9 * max(abs(exact), np.linalg.norm(m.J))


def test_hrv_equals_minus_hamiltonian(rng):
    g = gen_regular(12, 3, 0.0, 1.0, seed=4)
    m = from_graph(g)
    ens = build_ensemble(eigendecompose(m), 12)
    for _ in range(20):
        x = random_state(12, rng)
        assert hrv(ens, x) == pytest.approx(-hamiltonian(m, x), rel=1e-9, abs=1e-9)


def test_hrv_truncated_two_spin():
    # the dropped component is orthogonal to the aligned state, so K=1 is
    # already exact here: frame intensity (0.5+0.5)^2 = 1 with sign +1
    ens = build_ensemble(eigendecompose(TWO_SPIN), 1)
    assert hrv(ens, [1, 1]) == pytest.approx(1.0, abs=1e-12)
    # the anti-aligned state lives on the dropped component instead
    assert hrv(ens, [1, -1]) == pytest.approx(0.0, abs=1e-12)


def test_hrv_global_flip_invariance(rng):
    m = random_symmetric_model(9, rng)
    ens = build_ensemble(eigendecompose(m), 5)
    for _ in range(30):
        x = random_state(9, rng)
        assert hrv(ens, x) == hrv(ens, -x)


def test_hrv_scales_with_p_squared(rng):
    m = random_symmetric_model(6, rng)
    b = eigendecompose(m)
    x = random_state(6, rng)
    v1 = hrv(build_ensemble(b, 4, P=1.0), x)
    v2 = hrv(build_ensemble(b, 4, P=2.0), x)
    assert v2 == pytest.approx(4.0 * v1, rel=1e-12)


def test_hrv_field_backend_matches_analytic(rng):
    m = random_symmetric_model(10, rng)
    ens = build_ensemble(eigendecompose(m), 6)
    x = random_state(10, rng)
    a = hrv(ens, x, backend="analytic")
    f = hrv(ens, x, backend="field")
    assert f == pytest.approx(a, rel=1e-6, abs=1e-9)


def test_hrv_unknown_backend():
    ens = build_ensemble(eigendecompose(TWO_SPIN), 1)
    with pytest.raises(ValueError):
        hrv(ens, [1, 1], backend="quantum")


def test_noise_model_validation():
    ens = build_ensemble(eigendecompose(TWO_SPIN), 2)
    for sigma in (-0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="noise sigma must be finite and non-negative"):
            HrvEvaluator(ens, sigma=sigma)
    assert HrvEvaluator(ens, sigma=0.2).sigma == 0.2
    assert HrvEvaluator(ens).sigma == 0.0


def test_estimate_span_zero_ensemble():
    m = IsingModel(np.zeros((3, 3)))
    ens = build_ensemble(eigendecompose(m), 3)
    assert estimate_span(ens, samples=50, rng=np.random.default_rng(0)) == 0.0


def test_estimate_span_two_spin():
    # readouts are +-1 only, so any sample seeing both signs spans 2
    ens = build_ensemble(eigendecompose(TWO_SPIN), 2)
    span = estimate_span(ens, samples=200, rng=np.random.default_rng(1))
    assert span == pytest.approx(2.0, abs=1e-12)


def test_estimate_span_deterministic():
    ens = build_ensemble(eigendecompose(TWO_SPIN), 2)
    a = estimate_span(ens, samples=100, rng=np.random.default_rng(2))
    b = estimate_span(ens, samples=100, rng=np.random.default_rng(2))
    assert a == b


def test_estimate_span_refuses_an_overflowing_readout():
    # |J| near the float limit: the frame intensities overflow to inf, so
    # the span is not finite; no numpy warning escapes (the test settings
    # make one an error)
    m = IsingModel(np.array([[0.0, 1e308], [1e308, 0.0]]))
    ens = build_ensemble(eigendecompose(m), 2)
    with pytest.raises(ValueError, match="the K=2 readout overflows the float range"):
        estimate_span(ens, samples=50, rng=np.random.default_rng(0))


def test_estimate_span_guards():
    ens = build_ensemble(eigendecompose(TWO_SPIN), 2)
    with pytest.raises(ValueError):
        estimate_span(ens, samples=1, rng=np.random.default_rng(0))


def _frame_scale(ens):
    # (xi_k . x)^2 <= n * |xi_k|^2 for any +-1 state
    return ens.n * float(np.max(np.sum(ens.xi ** 2, axis=1)))


@pytest.mark.parametrize("backend", ["analytic", "field"])
def test_frames_block_matches_stacked_rows(rng, backend):
    # a block goes through gemm, a single state through gemv, so the analytic
    # backend agrees to rounding only; the field backend runs every 1-D
    # transform on its own, so a block is exact
    for n in (2, 5, 22, 40):
        for K in (1, n):
            ens = build_ensemble(eigendecompose(random_symmetric_model(n, rng)), K)
            X = rng.integers(0, 2, size=(4, n)) * 2 - 1
            rows = np.stack([frames(ens, x, backend) for x in X])
            if backend == "field":
                assert np.array_equal(frames(ens, X, backend), rows)
            else:
                np.testing.assert_allclose(frames(ens, X, backend), rows, rtol=1e-12,
                                           atol=1e-12 * _frame_scale(ens))


@pytest.mark.parametrize("backend", ["analytic", "field"])
def test_frames_into_a_buffer_keeps_the_bits(rng, backend):
    for n, K in ((5, 3), (22, 22)):
        ens = build_ensemble(eigendecompose(random_symmetric_model(n, rng)), K)
        for X in (rng.integers(0, 2, size=n) * 2 - 1, rng.integers(0, 2, size=(70, n)) * 2 - 1):
            want = frames(ens, X, backend)
            buf = np.full(want.shape, np.nan)
            assert frames(ens, X, backend, out=buf) is buf
            assert buf.tobytes() == want.tobytes(), (n, K, X.shape)


def test_frames_field_matches_per_frame_reference(rng):
    # the macropixel fill writes through a reshaped view of the plane, so
    # values are checked for a single state and for 2-D and 3-D blocks
    for n in (2, 5, 22, 40):
        cfg = MacropixelConfig.for_spins(n)
        for K in (1, n):
            ens = build_ensemble(eigendecompose(random_symmetric_model(n, rng)), K)
            for shape in ((), (3,), (2, 3)):
                X = rng.integers(0, 2, size=shape + (n,)) * 2 - 1
                got = frames(ens, X, "field")
                assert got.shape == shape + (K,)
                ref = [[field_intensity(row, x, cfg) for row in ens.xi]
                       for x in X.reshape(-1, n)]
                np.testing.assert_allclose(got.reshape(-1, K), ref, rtol=1e-12,
                                           atol=1e-12 * _frame_scale(ens))


def _rfft2_field_frames(ens, X):
    # reference: every full pad x pad real plane, then one rfft2 over them
    X = np.asarray(X, dtype=float)
    cfg = MacropixelConfig.for_spins(ens.n)
    rows, cols, b = cfg.side, cfg.side, cfg.block
    amp = ens.xi * X[..., None, :]
    lead = amp.shape[:-1]
    grid = np.zeros(lead + (cfg.capacity,))
    grid[..., :ens.n] = amp
    plane = np.zeros(lead + (cfg.pad, cfg.pad))
    squares = plane[..., :rows * b, :cols * b].reshape(lead + (rows, b, cols, b), copy=False)
    squares[...] = grid.reshape(lead + (rows, 1, cols, 1))
    return np.abs(np.fft.rfft2(plane)[..., 0, 0]) ** 2 / float(b * b) ** 2


def test_frames_field_bit_equal_to_full_plane_rfft2():
    # the separable transform computes the same bin in the same order, so
    # readouts must not move by one ulp
    rng = np.random.default_rng(14)
    cases = []
    for n in range(2, 70):
        shape = [(), (int(rng.integers(1, 5)),), (2, int(rng.integers(1, 4)))][n % 3]
        cases.append((n, int(rng.integers(1, n + 1)), shape))
    cases.append((128, 128, ()))
    cases.append((128, 128, (2,)))
    for n, K, shape in cases:
        ens = build_ensemble(eigendecompose(random_symmetric_model(n, rng)), K)
        X = rng.integers(0, 2, size=shape + (n,)) * 2 - 1
        got = frames(ens, X, "field")
        assert got.shape == shape + (K,)
        assert np.array_equal(got, _rfft2_field_frames(ens, X)), (n, K, shape)


def test_frames_field_peak_memory():
    # one readout at K = n may allocate at most 3.5 arrays of the distinct
    # plane rows, K * rows * pad * 8 bytes each: 0.14 MB at n=40 and 1.6 MB
    # at n=128, where K full planes would take 1.3 MB and 17 MB
    for n in (40, 128):
        ens = build_ensemble(eigendecompose(random_symmetric_model(n, np.random.default_rng(0))), n)
        x = random_state(n, np.random.default_rng(1))
        cfg = MacropixelConfig.for_spins(n)
        frames(ens, x, "field")  # warm up the transform's plan cache
        tracemalloc.start()
        try:
            frames(ens, x, "field")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * n * cfg.side * cfg.pad * 8, n


@pytest.mark.parametrize("backend", ["analytic", "field"])
def test_frames_shapes(rng, backend):
    ens = build_ensemble(eigendecompose(random_symmetric_model(6, rng)), 4)
    assert frames(ens, random_state(6, rng), backend).shape == (4,)
    assert frames(ens, np.ones((3, 6)), backend).shape == (3, 4)
    assert frames(ens, np.ones((2, 3, 6)), backend).shape == (2, 3, 4)
    for bad in (np.ones(5), np.ones((3, 7)), 1.0):
        with pytest.raises(ValueError):
            frames(ens, bad, backend)


def test_evaluator_wraps_hrv(rng):
    m = random_symmetric_model(6, rng)
    ens = build_ensemble(eigendecompose(m), 3)
    ev = HrvEvaluator(ens)
    x = random_state(6, rng)
    assert ev.evaluate(x) == hrv(ens, x)
    # the engine draws the noise, so a noisy evaluator still reads noiselessly
    assert HrvEvaluator(ens, sigma=1.0).evaluate(x) == hrv(ens, x)
    assert ev.n == 6
    assert ev.K == 3
