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

from .empirical import SecularRoots, secular_zeros
from .ensemble import SampleSpectrum
from .errors import DimensionError, InputError

__all__ = ["mestre_estimate"]


def mestre_estimate(
    spectrum: SampleSpectrum,
    counts,
    secular: SecularRoots | None = None,
) -> NDArray[np.float64]:
    """Baseline eigenvalue estimates from block sums of lambda_hat - mu_hat.

    counts are the multiplicities N_1..N_L (ascending-eigenvalue order);
    they must sum to N. Both spectra enter ascending, secular roots with
    their convention zeros included.
    """
    counts = np.asarray(counts, dtype=np.int64)
    if counts.ndim != 1 or np.any(counts < 1):
        raise InputError("multiplicities must be positive integers")
    if int(counts.sum()) != spectrum.N:
        raise DimensionError(
            f"multiplicities sum to {int(counts.sum())}, but N = {spectrum.N}"
        )
    if secular is None:
        secular = secular_zeros(spectrum)
    diff = spectrum.lambda_hat - secular.mu_hat
    M = spectrum.M
    ends = np.cumsum(counts)
    return np.array([
        M / (b - a) * diff[a:b].sum() for a, b in zip(ends - counts, ends)
    ])
