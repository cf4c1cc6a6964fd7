"""Monte Carlo draws rebuilt step by step, the references the sampling
tests compare coveig's kernels against.

`sfc64_generator(seed)` seeds numpy's SFC64 by the rule of
`coveig.ensemble`, through the bit generator's public state alone: state
(a, b, c, counter) = (seed, seed, seed, 1), then 12 outputs discarded.
`bartlett_eigenvalues` draws one spectrum from a given generator in the
documented order of `simulate_spectrum`, on fresh buffers.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import blas, lapack

from coveig import multiplicities


def sfc64_generator(seed: int) -> np.random.Generator:
    """numpy's SFC64 seeded from the one word seed, 0 <= seed < 2**64."""
    bit_generator = np.random.SFC64(0)
    bit_generator.state = {
        "bit_generator": "SFC64",
        "state": {"state": np.array([seed, seed, seed, 1], dtype=np.uint64)},
        "has_uint32": 0, "uinteger": 0}
    bit_generator.random_raw(12)
    return np.random.Generator(bit_generator)


def bartlett_eigenvalues(model, N, M, rng, gram_only=False):
    """simulate_spectrum's documented steps, drawing from rng: the scaled
    Bartlett factor, its Gram matrix from zlauum and zherk, then zhetrd at
    workspace 8 n and dsterf; the min(N, M) eigenvalues, ascending. With
    gram_only, the Gram matrix (its lower triangle) instead."""
    scale = (np.sqrt(np.repeat(model.rho_array(), multiplicities(model, N)))
             / np.sqrt(M))
    n = min(N, M)
    factor = np.zeros((N, n), dtype=np.complex128, order="F")
    i = np.arange(n)
    factor[i, i] = np.sqrt(rng.standard_gamma(M - i))
    below = np.tri(N, n, -1, dtype=bool)
    draws = rng.standard_normal(2 * int(below.sum()))
    draws *= np.sqrt(0.5)
    factor[below] = draws.view(np.complex128)
    factor *= scale[:, None]
    gram, _ = lapack.zlauum(factor[:n], lower=1, overwrite_c=1)
    if N > n:
        gram = blas.zherk(1.0, factor[n:], beta=1.0, c=gram, trans=2,
                          lower=1, overwrite_c=1)
    if gram_only:
        return gram
    if n == 1:
        return np.clip(gram[0].real, 0.0, None)
    _, d, e, _, _ = lapack.zhetrd(gram, lower=1, lwork=8 * n)
    lam, info = lapack.dsterf(d, e)
    assert info == 0
    return np.clip(lam, 0.0, None)
