"""Simulated optical readout of the interference machine.

One frame displays one amplitude pattern xi with the spin phases on top and
reads the detector center point.  All readouts go through one kernel,
`frames(ensemble, X, backend)`, which returns the K frame intensities of a
single state (n,) or of a block of states (..., n), optionally into a
caller's buffer.  Two backends produce the reading:

* analytic  -- closed form (X @ xi^T)^2, exact.
* field     -- real macropixel plane, read at the zero-frequency bin of
               its 2D DFT, rescaled to the analytic value.  The n spins
               fill a square grid of side ceil(sqrt(n)) row-major, each a
               block x block square, and the plane is zero-padded to pad x
               pad, pad the smallest power of two >= side * block.  The DFT
               runs separably: rfft of the distinct plane rows, then fft of
               the one column holding the bin.

Accumulating the K frame intensities with their eigenvalue signs,
`frames(...) @ g`, gives the Hamiltonian surrogate (`hrv`).  Detector noise
is one Gaussian draw that the annealing engine adds to that accumulated
value; its std is the evaluator's `sigma`, which the studies and the CLI
set to a fixed fraction of the readout span (`estimate_span`).
`analytic_intensity` and `field_intensity` compute one frame of one state
and serve as references.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .ising import random_states
from .spectral import IntensityEnsemble

__all__ = [
    "MacropixelConfig",
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
    row-major on a square side x side grid; the plane is zero-padded to
    pad x pad, pad the smallest power of two >= side * block, before the
    transform.
    """

    side: int
    block: int = 8

    def __post_init__(self):
        if self.side < 1 or self.block < 1:
            raise ValueError(f"side and block must be >= 1, got {self.side} and {self.block}")

    @property
    def pad(self) -> int:
        return 1 << (self.side * self.block - 1).bit_length()

    @property
    def capacity(self) -> int:
        return self.side * self.side

    @classmethod
    @functools.cache
    def for_spins(cls, n: int, block: int = 8) -> "MacropixelConfig":
        """Smallest square grid holding n spins: side ceil(sqrt(n)).

        A layout is frozen, so each one is built once and then shared."""
        return cls(side=int(np.ceil(np.sqrt(n))), block=block)


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
    analytic value.  This reference keeps a complex plane and the complex
    `fft2` on purpose, so the tests compare `frames`' real-input transform
    against a different one.
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
        r = (i // cfg.side) * b
        c = (i % cfg.side) * b
        plane[r:r + b, c:c + b] = amp[i]
    center = np.fft.fft2(plane)[0, 0]
    return float(np.abs(center) ** 2) / float(b * b) ** 2


def frames(ensemble: IntensityEnsemble, X, backend: str = "analytic",
           out: np.ndarray | None = None) -> np.ndarray:
    """Frame intensities of one state (n,) or a block of states (..., n).

    Returns shape (..., K): entry k is the center-point reading of frame k.
    The readout of a state is `frames(...) @ ensemble.g`.  The field backend
    lays the spins out with `MacropixelConfig.for_spins(n)` and computes bin
    [0, 0] of each plane's 2D DFT separably, as `numpy.fft.rfft2` does, from
    the distinct plane rows and column 0 only: the same bits, and no
    pad x pad array.  Given `out`, a float array of the result's shape, the
    intensities are written there and `out` is returned.
    """
    X = np.asarray(X, dtype=float)
    if backend == "analytic":
        # matmul itself raises ValueError unless the last axis has length n,
        # so the per-state annealing path pays for no separate check
        out = np.matmul(X, ensemble.xi.T, out=out)
        return np.square(out, out=out)
    if backend == "field":
        if X.shape[-1:] != (ensemble.n,):
            raise ValueError(f"state shape {X.shape} does not end in n={ensemble.n}")
        cfg = MacropixelConfig.for_spins(ensemble.n)
        side, b, pad = cfg.side, cfg.block, cfg.pad
        # A plane repeats each of its `side` distinct rows b times and is
        # zero below the grid.  Spins fill the grid row-major, and each grid
        # cell is broadcast into its b entries of a (side, side, b) view.
        amp = ensemble.xi * X[..., None, :]
        lead = amp.shape[:-1]
        grid = np.zeros(lead + (cfg.capacity,))
        grid[..., :ensemble.n] = amp
        line = np.zeros(lead + (side, pad))
        cells = line[..., :side * b].reshape(lead + (side, side, b), copy=False)
        cells[...] = grid.reshape(lead + (side, side, 1))
        # rfft2 is rfft along the rows, then fft down each column; bin [0, 0]
        # reads only column 0, whose pad entries are the rows' zero bins
        column = np.zeros(lead + (pad,), dtype=complex)
        column[..., :side * b].reshape(lead + (side, b), copy=False)[...] = (
            np.fft.rfft(line)[..., :1])
        center = np.fft.fft(column)[..., 0]
        # the bin over b * b is the analytic amplitude, so squaring it last
        # overflows only where the analytic readout does; dividing by
        # b * b = 64, a power of two, is exact
        return np.square(np.divide(np.abs(center), float(b * b)), out=out)
    raise ValueError(f"unknown backend {backend!r}")


def hrv(ensemble: IntensityEnsemble, x, backend: str = "analytic") -> float:
    """Signed accumulation of the K frame intensities of one spin state,
    summed in component order."""
    return float(frames(ensemble, x, backend) @ ensemble.g)


def estimate_span(ensemble: IntensityEnsemble, samples: int,
                  rng: np.random.Generator) -> float:
    """max - min of the noiseless readout over `samples` uniform random states.

    A span that is not finite, because the readouts overflow the float
    range, is refused."""
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    with np.errstate(over="ignore", invalid="ignore"):
        vals = frames(ensemble, random_states(ensemble.n, samples, rng)) @ ensemble.g
        span = float(np.max(vals) - np.min(vals))
    if not math.isfinite(span):
        raise ValueError(f"the K={ensemble.K} readout overflows the float range, so its "
                         "span is not finite: scale the weights down")
    return span


@dataclass(frozen=True)
class HrvEvaluator:
    """Bound readout: truncated ensemble + backend + detector noise std."""

    ensemble: IntensityEnsemble
    backend: str = "analytic"
    sigma: float = 0.0

    def __post_init__(self):
        if not (self.sigma >= 0 and math.isfinite(self.sigma)):
            raise ValueError(f"noise sigma must be finite and non-negative, got {self.sigma}")

    @property
    def n(self) -> int:
        return self.ensemble.n

    @property
    def K(self) -> int:
        return self.ensemble.K

    def evaluate(self, x) -> float:
        """Noiseless readout of one state; the annealing engine adds one
        N(0, sigma) draw per readout itself."""
        return hrv(self.ensemble, x, backend=self.backend)
