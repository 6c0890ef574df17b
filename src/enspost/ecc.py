"""Ensemble copula coupling.

Postprocessed marginals are discretized into M equidistant quantiles per
station and reordered so that member m at each station receives the quantile
whose order matches member m's rank in the raw ensemble there. Marginals stay
exactly the quantile sets; the raw ensemble's rank dependence structure is
reproduced exactly.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .core import ForecastFieldSample
from .verify import tie_broken_ranks


def ecc_quantiles(dist, m: int) -> np.ndarray:
    """M equidistant quantiles at levels k/(M+1), k = 1..M, ascending; a row per law of a batch."""
    if m < 1:
        raise ValueError("member count must be positive")
    return np.asarray(dist.quantile(np.arange(1, m + 1) / (m + 1)), dtype=float)


def rank_permutation(raw_members, rng: np.random.Generator) -> np.ndarray:
    """1-based ranks of the raw member values, a vector or (S, M) rows; ties broken as row-by-row calls break them."""
    v = np.asarray(raw_members, dtype=float)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("raw member values must form a non-empty vector or (S, M) rows")
    if np.isnan(v).any():
        raise ValueError("raw member values contain missing entries")
    return tie_broken_ranks(v, rng)


def ecc_reorder(
    quantiles: np.ndarray,
    permutations: np.ndarray,
    station_order: Sequence[str],
) -> ForecastFieldSample:
    """Reorder per-station quantiles into M rank-coherent forecast fields.

    quantiles: (n_stations, M) with ascending rows; permutations:
    (n_stations, M) of 1-based ranks. Field m holds, at station s, the
    permutations[s, m]-th smallest quantile.
    """
    q = np.asarray(quantiles, dtype=float)
    perm = np.asarray(permutations, dtype=int)
    order = tuple(station_order)
    if q.ndim != 2 or q.shape != perm.shape or q.shape[0] != len(order):
        raise ValueError("quantiles and permutations must both be (n_stations, M)")
    if np.any(np.diff(q, axis=1) < 0):
        raise ValueError("quantile rows must be non-decreasing")
    bad = np.flatnonzero((np.sort(perm, axis=1) != np.arange(1, perm.shape[1] + 1)).any(axis=1))
    if bad.size:
        raise ValueError(f"row {bad[0]} is not a permutation of 1..M")
    fields = q[np.arange(q.shape[0])[:, None], perm - 1].T  # (M, n_stations)
    return ForecastFieldSample(order, fields, "ecc")
