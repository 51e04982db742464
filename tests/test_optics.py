import math

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
    cfg = MacropixelConfig(block=2, grid_rows=1, grid_cols=2, pad=4)
    with pytest.raises(ValueError):
        field_intensity([1, 1, 1], [1, 1, 1], cfg)


def test_macropixel_config_validation():
    with pytest.raises(ValueError):
        MacropixelConfig(block=0, grid_rows=1, grid_cols=1, pad=1)
    with pytest.raises(ValueError):
        MacropixelConfig(block=4, grid_rows=2, grid_cols=2, pad=6)  # not power of two
    with pytest.raises(ValueError):
        MacropixelConfig(block=4, grid_rows=2, grid_cols=2, pad=4)  # too small


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


def test_estimate_span_guards():
    ens = build_ensemble(eigendecompose(TWO_SPIN), 2)
    with pytest.raises(ValueError):
        estimate_span(ens, samples=1, rng=np.random.default_rng(0))


def _frame_scale(ens):
    # (xi_k . x)^2 <= n * |xi_k|^2 for any +-1 state
    return ens.n * float(np.max(np.sum(ens.xi ** 2, axis=1)))


@pytest.mark.parametrize("backend", ["analytic", "field"])
def test_frames_block_matches_stacked_rows(rng, backend):
    # a block goes through gemm / one batched transform, a single state
    # through gemv / its own transform, so agreement is to rounding only
    for n in (2, 5, 22, 40):
        for K in (1, n):
            ens = build_ensemble(eigendecompose(random_symmetric_model(n, rng)), K)
            X = rng.integers(0, 2, size=(4, n)) * 2 - 1
            rows = np.stack([frames(ens, x, backend) for x in X])
            np.testing.assert_allclose(frames(ens, X, backend), rows, rtol=1e-12,
                                       atol=1e-12 * _frame_scale(ens))


def test_frames_field_matches_per_frame_reference(rng):
    for n in (2, 5, 22, 40):
        cfg = MacropixelConfig.for_spins(n)
        for K in (1, n):
            ens = build_ensemble(eigendecompose(random_symmetric_model(n, rng)), K)
            x = random_state(n, rng)
            ref = [field_intensity(row, x, cfg) for row in ens.xi]
            np.testing.assert_allclose(frames(ens, x, "field"), ref, rtol=1e-12,
                                       atol=1e-12 * _frame_scale(ens))


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
