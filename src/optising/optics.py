"""Simulated optical readout of the interference machine.

One frame displays one amplitude pattern xi with the spin phases on top and
reads the detector center point.  All readouts go through one kernel,
`frames(ensemble, X, backend)`, which returns the K frame intensities of a
single state (n,) or of a block of states (..., n).  Two backends produce
the reading:

* analytic  -- closed form (X @ xi^T)^2, exact.
* field     -- builds every 2D macropixel plane at once, runs one discrete
               Fourier transform over the last two axes, and reads the
               zero-frequency bin, rescaled to the analytic value.

Accumulating the K frame intensities with their eigenvalue signs,
`frames(...) @ g`, gives the Hamiltonian surrogate (`hrv`); detector noise
is one Gaussian perturbation of that accumulated value, with sigma a fixed
fraction of the readout span (`estimate_span`).  `analytic_intensity` and
`field_intensity` compute one frame of one state and serve as references.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .spectral import IntensityEnsemble

__all__ = [
    "MacropixelConfig",
    "NoiseModel",
    "HrvEvaluator",
    "analytic_intensity",
    "field_intensity",
    "frames",
    "hrv",
    "estimate_span",
]


@dataclass(frozen=True)
class MacropixelConfig:
    """Layout of spins on the modulator plane.

    Spin i occupies a block x block square of uniform amplitude, placed
    row-major on a grid_rows x grid_cols grid; the plane is zero-padded to
    pad x pad (power of two) before the transform.
    """

    block: int = 8
    grid_rows: int = 1
    grid_cols: int = 1
    pad: int = 1

    def __post_init__(self):
        if self.block < 1:
            raise ValueError("block must be >= 1")
        if self.grid_rows < 1 or self.grid_cols < 1:
            raise ValueError("grid dimensions must be >= 1")
        need = max(self.grid_rows, self.grid_cols) * self.block
        if self.pad < need or self.pad & (self.pad - 1):
            raise ValueError(f"pad must be a power of two >= {need}, got {self.pad}")

    @property
    def capacity(self) -> int:
        return self.grid_rows * self.grid_cols

    @classmethod
    def for_spins(cls, n: int, block: int = 8) -> "MacropixelConfig":
        """Smallest square grid holding n spins, padded to the next power of two."""
        side = int(np.ceil(np.sqrt(n)))
        pad = 1
        while pad < side * block:
            pad *= 2
        return cls(block=block, grid_rows=side, grid_cols=side, pad=pad)


@dataclass(frozen=True)
class NoiseModel:
    """Gaussian detector noise with sigma = level * readout span."""

    level: float
    sigma: float
    span_samples: int = 0

    def __post_init__(self):
        if self.level < 0 or self.sigma < 0:
            raise ValueError("noise level and sigma must be non-negative")
        if self.level == 0 and self.sigma != 0:
            raise ValueError("level 0 requires sigma 0")


def analytic_intensity(xi, x) -> float:
    """Center-point intensity of one frame: (sum_i xi_i * x_i)^2.

    Spin phases 0/pi act as +-1 factors; a negative amplitude entry is the
    same thing as an extra pi offset, so the signed product is exact.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    if xi.shape != x.shape:
        raise ValueError(f"shape mismatch: xi {xi.shape} vs x {x.shape}")
    return float(xi @ x) ** 2


def field_intensity(xi, x, cfg: MacropixelConfig) -> float:
    """Frame intensity via the full 2D transform of the macropixel plane.

    The zero-frequency bin of the unshifted DFT is the plane sum, i.e.
    block^2 * sum(xi*x); dividing |bin|^2 by (block^2)^2 recovers the
    analytic value.
    """
    xi = np.asarray(xi, dtype=float)
    x = np.asarray(x, dtype=float)
    n = xi.size
    if x.size != n:
        raise ValueError(f"shape mismatch: xi {xi.shape} vs x {x.shape}")
    if cfg.capacity < n:
        raise ValueError(f"layout holds {cfg.capacity} spins, need {n}")

    b = cfg.block
    plane = np.zeros((cfg.pad, cfg.pad), dtype=complex)
    amp = xi * x
    for i in range(n):
        r = (i // cfg.grid_cols) * b
        c = (i % cfg.grid_cols) * b
        plane[r:r + b, c:c + b] = amp[i]
    center = np.fft.fft2(plane)[0, 0]
    return float(np.abs(center) ** 2) / float(b * b) ** 2


def frames(ensemble: IntensityEnsemble, X, backend: str = "analytic",
           cfg: MacropixelConfig | None = None) -> np.ndarray:
    """Frame intensities of one state (n,) or a block of states (..., n).

    Returns shape (..., K): entry k is the center-point reading of frame k.
    The readout of a state is `frames(...) @ ensemble.g`.
    """
    X = np.asarray(X, dtype=float)
    if backend == "analytic":
        # matmul itself raises ValueError unless the last axis has length n,
        # so the per-state annealing path pays for no separate check
        return (X @ ensemble.xi.T) ** 2
    if backend == "field":
        if X.shape[-1:] != (ensemble.n,):
            raise ValueError(f"state shape {X.shape} does not end in n={ensemble.n}")
        if cfg is None:
            cfg = MacropixelConfig.for_spins(ensemble.n)
        if cfg.capacity < ensemble.n:
            raise ValueError(f"layout holds {cfg.capacity} spins, need {ensemble.n}")
        # One macropixel plane per (state, frame); spins fill the grid row-major.
        amp = ensemble.xi * X[..., None, :]
        grid = np.zeros(amp.shape[:-1] + (cfg.capacity,), dtype=complex)
        grid[..., :ensemble.n] = amp
        grid = grid.reshape(amp.shape[:-1] + (cfg.grid_rows, cfg.grid_cols))
        b = cfg.block
        plane = np.zeros(amp.shape[:-1] + (cfg.pad, cfg.pad), dtype=complex)
        plane[..., :cfg.grid_rows * b, :cfg.grid_cols * b] = np.repeat(
            np.repeat(grid, b, axis=-2), b, axis=-1)
        center = np.fft.fft2(plane)[..., 0, 0]
        return np.abs(center) ** 2 / float(b * b) ** 2
    raise ValueError(f"unknown backend {backend!r}")


def hrv(ensemble: IntensityEnsemble, x, backend: str = "analytic",
        noise: NoiseModel | None = None, rng: np.random.Generator | None = None,
        cfg: MacropixelConfig | None = None) -> float:
    """Signed accumulation of the K frame intensities for one spin state.

    Frames are summed in component order.  With a noise model, one Gaussian
    draw of std sigma perturbs the accumulated value.  A zero noise level
    draws nothing, so results match the noiseless call.
    """
    value = float(frames(ensemble, x, backend, cfg) @ ensemble.g)
    if noise is not None and noise.sigma > 0:
        if rng is None:
            raise ValueError("noisy evaluation needs an rng")
        value += float(rng.normal(0.0, noise.sigma))
    return value


def estimate_span(ensemble: IntensityEnsemble, samples: int = 1000,
                  rng: np.random.Generator | None = None) -> float:
    """max - min of the noiseless readout over `samples` uniform random states."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    if rng is None:
        raise ValueError("span estimation needs an rng")
    states = rng.integers(0, 2, size=(samples, ensemble.n)) * 2 - 1
    vals = frames(ensemble, states) @ ensemble.g
    return float(np.max(vals) - np.min(vals))


@dataclass(frozen=True)
class HrvEvaluator:
    """Bound readout: truncated ensemble + backend + noise channel."""

    ensemble: IntensityEnsemble
    backend: str = "analytic"
    noise: NoiseModel | None = None
    cfg: MacropixelConfig | None = None

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def K(self) -> int:
        return self.ensemble.K

    def evaluate(self, x, rng: np.random.Generator | None = None) -> float:
        return hrv(self.ensemble, x, backend=self.backend, noise=self.noise,
                   rng=rng, cfg=self.cfg)
