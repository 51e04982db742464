"""The exact law of the annealing chain that `optising.anneal` documents,
computed over all 2^n spin states without the engine.

The chain: a uniform start; at iteration k a uniform m-subset of the spins,
m = max(1, round(n * T_k / t0)), is flipped; the move is accepted with
probability min(1, exp((readout' - readout) / T_k)), and a move with
readout' >= readout is always accepted, at T = 0.0 too.  The readout of a
state x is the noiseless sum_k g_k (xi_k . x)^2 of its ensemble.
"""

from __future__ import annotations

import math

import numpy as np


def all_states(n: int) -> np.ndarray:
    """The 2^n spin states, state s reading bit j of s as spin j (bit 1 is -1)."""
    return 1.0 - 2.0 * ((np.arange(1 << n)[:, None] >> np.arange(n)) & 1)


def end_distribution(ensemble, schedule) -> np.ndarray:
    """P(the chain ends in state s), over the states of `all_states`.  The
    flip count takes T_k / t0 as rate^k, so a T_k that underflowed to 0.0
    keeps its m."""
    n = ensemble.n
    X = all_states(n)
    readout = ((X @ ensemble.xi.T) ** 2) @ ensemble.g
    index = np.arange(1 << n)
    partners, gains = {}, {}  # per m: the states an m-subset flip reaches, and its readout gain
    p = np.full(1 << n, 1.0 / (1 << n))
    for k, T in enumerate(schedule.temperatures()):
        m = max(1, round(n * schedule.rate ** k))
        if m not in partners:
            # subset j of m spins takes s to s ^ masks[j], and s ^ masks[j] back to s
            masks = index[np.bitwise_count(index) == m]
            partners[m] = index[:, None] ^ masks
            gains[m] = readout[partners[m]] - readout[:, None]
        if T > 0.0:
            with np.errstate(over="ignore"):  # a subnormal T sends -gain / T to inf
                accept = np.exp(np.minimum(gains[m], 0.0) / T)
        else:
            accept = (gains[m] >= 0.0).astype(float)
        flow = p[:, None] * accept / math.comb(n, m)  # flow[s, j]: s to partners[s, j]
        p = p - flow.sum(axis=1) + flow[partners[m], np.arange(flow.shape[1])].sum(axis=1)
    return p


def hit_probability(ensemble, g, schedule, optimum: float, tol: float = 1e-9) -> float:
    """P(the chain ends in a cut of g within tol * max|w| of `optimum`)."""
    X = all_states(g.n)
    cut = sum(w * (1.0 - X[:, u] * X[:, v]) / 2.0 for u, v, w in g.edges)
    scale = max((abs(w) for *_, w in g.edges), default=0.0)
    return float(end_distribution(ensemble, schedule)[np.abs(cut - optimum) <= tol * scale].sum())


def binomial_two_sided(k: int, trials: int, p: float) -> float:
    """Exact two-sided binomial p-value of k successes in `trials` at rate p:
    the probability of every outcome no likelier than k."""
    if p <= 0.0 or p >= 1.0:
        return float(k == (0 if p <= 0.0 else trials))
    i = np.arange(trials + 1)
    log_pmf = (math.lgamma(trials + 1) - np.array([math.lgamma(v + 1) for v in i])
               - np.array([math.lgamma(trials - v + 1) for v in i])
               + i * math.log(p) + (trials - i) * math.log1p(-p))
    pmf = np.exp(log_pmf)
    return float(min(1.0, pmf[pmf <= pmf[k] * (1.0 + 1e-7)].sum()))
