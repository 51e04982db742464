"""Optical Ising machine simulator.

Maps a symmetric interaction matrix onto a sequence of intensity patterns
via its eigendecomposition, simulates the interference readout (analytic or
full 2D field), and studies how truncating the decomposition degrades
Hamiltonian fidelity and Max-cut solution quality under simulated annealing.
"""

from .graph import WeightedGraph, density, gen_density, gen_regular, read_graph, write_graph
from .ising import (
    IsingModel,
    brute_force_maxcut,
    cut_value,
    delta_hamiltonian,
    from_graph,
    ground_state,
    hamiltonian,
    random_state,
    random_states,
)
from .spectral import (
    EigenBundle,
    IntensityEnsemble,
    build_ensemble,
    eigendecompose,
    error_ratio,
    splits_cluster,
    tail_frobenius,
)
from .optics import (
    HrvEvaluator,
    MacropixelConfig,
    analytic_intensity,
    estimate_span,
    field_intensity,
    frames,
    hrv,
)
from .anneal import AnnealTrace, Schedule, anneal
from .experiments import (
    ExpFit,
    MatchReport,
    NoiseTable,
    ProbTable,
    TraceStudy,
    anneal_trace_study,
    fit_exponential,
    noise_sweep,
    probability_vs_k,
    rmse_vs_k,
    wilson_interval,
)

__version__ = "0.1.0"
