"""Cluster-sum baseline estimator of the distinct eigenvalues.

When the limiting support splits into one cluster per distinct eigenvalue,
the k-th eigenvalue is consistently estimated by the scaled sum of
lambda_hat - mu_hat over the k-th consecutive block of indices, with block
sizes equal to the multiplicities. The estimator is exact in its own
asymptotic regime but biased when clusters merge, where its MSE stops
improving with size (run_mse_sweep with methods=("mestre",) shows it).
"""

from __future__ import annotations

import numpy as np
from numpy.typing import NDArray

from .empirical import SecularRoots, _secular_roots
from .ensemble import SampleSpectrum
from .errors import DimensionError, InputError

__all__ = ["mestre_estimate"]


def _block_sums(diff: np.ndarray, counts, M: int) -> NDArray[np.float64]:
    """(T, L) estimates from the (T, N) rows of lambda_hat - mu_hat: M / N_k
    times the sum over the k-th block of N_k consecutive indices."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or np.any(counts < 1):
        raise InputError("multiplicities must be positive integers")
    if int(counts.sum()) != diff.shape[1]:
        raise DimensionError(
            f"multiplicities sum to {int(counts.sum())}, but N = {diff.shape[1]}"
        )
    ends = np.cumsum(counts)
    return np.column_stack([M / (b - a) * diff[:, a:b].sum(axis=1)
                            for a, b in zip(ends - counts, ends)])


def mestre_rows(pos, N: int, M: int, counts) -> NDArray[np.float64]:
    """(T, L) baseline estimates from pos, (T, min(N, M)), each row a
    spectrum's eigenvalues, ascending and checked positive by the caller.

    The row kernel of `mestre_estimate`, its one-row call, bit for bit: a
    row's lambda_hat is pos after N - min(N, M) structural zeros, its
    secular roots are solved on their own, and counts are checked once.
    Any error raises for the whole stack."""
    T, n = pos.shape
    diff = np.zeros((T, N))
    diff[:, N - n:] = pos
    for t in range(T):
        diff[t] -= _secular_roots(pos[t], N, M)[0]
    return _block_sums(diff, counts, M)


def mestre_estimate(
    spectrum: SampleSpectrum,
    counts,
    secular: SecularRoots | None = None,
) -> NDArray[np.float64]:
    """Baseline eigenvalue estimates from block sums of lambda_hat - mu_hat.

    counts are the multiplicities N_1..N_L (ascending-eigenvalue order);
    they must sum to N. Both spectra enter ascending, secular roots with
    their convention zeros included. Without secular this is the one-row
    call of `mestre_rows`; given roots go through the same block sums.
    """
    if secular is None:
        return mestre_rows(spectrum.positive_eigenvalues()[None], spectrum.N,
                           spectrum.M, counts)[0]
    diff = spectrum.lambda_hat - secular.mu_hat
    return _block_sums(diff[None], counts, spectrum.M)[0]
