"""Observation synthesis and sample spectra.

Observations are Y = R^(1/2) X with X an N x M matrix of i.i.d. standard
circularly-symmetric complex Gaussians and R the realized diagonal population
covariance. The sample covariance (1/M) Y Y^H and its M x M companion
(1/M) Y^H Y share every nonzero eigenvalue; the larger one carries |N - M|
structural zeros.

Monte Carlo trials never build X. The spectrum depends on X only through
the complex Wishart matrix X X^H, and Bartlett's decomposition (Bartlett
1933; Goodman 1963 for the complex case) draws that exactly from the
N x min(N, M) lower-trapezoidal factor of X = Lf Q, with about N^2/2
random entries instead of N M. Those entries are ziggurat normals
(`Generator.standard_normal`, two per complex entry), not the polar draw of
`complex_gaussian`, and the Gram matrix of the scaled factor is a
triangular LAPACK product, so the eigensolve is most of a draw's cost. So
`simulate_spectrum(model, N, M, seed)` has the law of the spectrum of
`generate_observations(model, N, M, seed)` but is not its spectrum; only
`generate_observations` writes a real Y.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy.linalg import blas, lapack

from .errors import DimensionError, InputError
from .model import PopulationModel, multiplicities

__all__ = [
    "SampleSpectrum",
    "complex_gaussian",
    "generate_observations",
    "sample_spectrum",
    "simulate_spectrum",
    "trial_seed",
    "write_observations",
    "read_observations",
]

_MAGIC = b"COVEIG01"
# most complex entries of the Gram matrices one eigvalsh call diagonalizes
_EIG_SLICE_ENTRIES = 2**16


@dataclass(frozen=True)
class SampleSpectrum:
    """Eigenvalues of the sample covariance and of its companion.

    lambda_hat has length N, lambda_hat_companion length M, both ascending;
    the nonzero parts coincide and whichever is longer is padded with
    structural zeros.
    """

    N: int
    M: int
    lambda_hat: NDArray[np.float64]
    lambda_hat_companion: NDArray[np.float64]
    seed: int

    @property
    def rank(self) -> int:
        return min(self.N, self.M)

    def positive_eigenvalues(self) -> NDArray[np.float64]:
        """The min(N, M) almost-surely positive sample eigenvalues."""
        lam = self.lambda_hat[-self.rank:]
        if lam[0] <= 0:
            raise InputError("sample spectrum is rank deficient")
        return lam


def complex_gaussian(
    rng: np.random.Generator, shape: tuple[int, ...]
) -> NDArray[np.complex128]:
    """Standard circularly-symmetric complex Gaussian draws, E|Z|^2 = 1.

    Polar form: |Z|^2 is Exp(1) and the phase is uniform, so the real and
    imaginary parts come out N(0, 1/2) each.
    """
    u = rng.random(shape)
    v = rng.random(shape)
    radius = np.sqrt(-np.log1p(-u))
    return radius * np.exp(2j * np.pi * v)


def _rng_for(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial integer seed derived from (master_seed, index)."""
    ss = np.random.SeedSequence((int(master_seed), int(index)))
    return int(ss.generate_state(1, np.uint64)[0])


def generate_observations(
    model: PopulationModel, N: int, M: int, seed: int
) -> NDArray[np.complex128]:
    """N x M observation matrix Y = R^(1/2) X for the realized model.

    The realized covariance R is diagonal with eigenvalue rho_k repeated
    according to ``multiplicities(model, N)``.
    """
    scale = _realized_scale(model, N, M)
    x = complex_gaussian(_rng_for(seed), (N, M))
    return scale[:, None] * x


def _realized_scale(model: PopulationModel, N: int, M: int) -> NDArray[np.float64]:
    """R^(1/2) of the realized diagonal covariance, after checking N and M."""
    if N < 1 or M < 1:
        raise DimensionError(f"need N >= 1 and M >= 1, got N={N}, M={M}")
    return np.sqrt(np.repeat(model.rho_array(), multiplicities(model, N)))


def sample_spectrum(observations: np.ndarray, seed: int = 0) -> SampleSpectrum:
    """Eigenvalues of (1/M) Y Y^H and of the companion (1/M) Y^H Y.

    Only the smaller Gram matrix is diagonalized; the other spectrum is the
    same nonzero eigenvalues padded with structural zeros.
    """
    Y = np.asarray(observations)
    if Y.ndim != 2:
        raise DimensionError(f"observations must be 2-D, got shape {Y.shape}")
    N, M = Y.shape
    if N < 1 or M < 1:
        raise DimensionError("observations must be non-empty")
    if not np.all(np.isfinite(Y)):
        raise InputError("observations contain non-finite entries")
    Y = Y.astype(np.complex128, copy=False)
    small = Y if N <= M else Y.conj().T
    return padded_spectrum(_gram_eigenvalues(small @ small.conj().T / M),
                            N, M, seed)


def padded_spectrum(lam: np.ndarray, N: int, M: int, seed) -> SampleSpectrum:
    """Spectrum from the min(N, M) nonzero-carrying eigenvalues, ascending;
    the longer side gets |N - M| structural zeros."""
    padded = np.concatenate([np.zeros(abs(N - M)), lam])
    lam_n, lam_m = (lam, padded) if N <= M else (padded, lam)
    return SampleSpectrum(
        N=N, M=M, lambda_hat=lam_n, lambda_hat_companion=lam_m,
        seed=int(seed),
    )


def _gram_eigenvalues(gram: np.ndarray) -> np.ndarray:
    """Eigenvalues of a (stack of) PSD Gram matrices, from the lower
    triangle only, with eigvalsh's tiny negatives clipped to zero."""
    lam = np.linalg.eigvalsh(gram)
    np.clip(lam, 0.0, None, out=lam)
    return lam


def simulate_rows(model: PopulationModel, N: int, M: int,
                  seeds) -> NDArray[np.float64]:
    """Eigenvalues of the smaller Gram matrix, one row per seed.

    The row kernel of `simulate_spectrum`, which is its one-row call:
    returns a (len(seeds), min(N, M)) array whose row t holds, ascending,
    the eigenvalues that ``simulate_spectrum(model, N, M, seeds[t])``
    reports as positive, bit for bit. The scale, the strictly-lower index
    and the buffers are set up once; each seed is drawn and its Gram matrix
    formed as in `simulate_spectrum`, and the matrices are diagonalized by
    one `eigvalsh` call per slice of at most _EIG_SLICE_ENTRIES entries, so
    memory does not grow with the number of seeds.
    """
    scale = _realized_scale(model, N, M) / np.sqrt(M)
    n = min(N, M)
    seeds = list(seeds)
    out = np.empty((len(seeds), n))
    diag = np.arange(n)
    lower = np.tri(n, n, -1, dtype=bool)
    below = n * (n - 1) // 2  # entries below the diagonal of the top block
    root_half = np.sqrt(0.5)
    per = max(1, _EIG_SLICE_ENTRIES // (n * n))
    # column-major slots, so that LAPACK forms each Gram matrix in place
    # from the top n x n block of the factor, which it overwrites
    stack = np.zeros((min(per, len(seeds)), n, n),
                     dtype=np.complex128).transpose(0, 2, 1)
    # the i.i.d. rows below that block, when N > M
    tail = np.empty((N - n, n), dtype=np.complex128, order="F")
    for a in range(0, len(seeds), per):
        chunk = seeds[a:a + per]
        for k, seed in enumerate(chunk):
            rng = _rng_for(seed)
            top = stack[k]
            top[diag, diag] = np.sqrt(rng.standard_gamma(M - diag))
            draws = rng.standard_normal(2 * (below + tail.size))
            draws *= root_half
            draws = draws.view(np.complex128)
            top[lower] = draws[:below]
            top *= scale[:n, None]
            gram, _ = lapack.zlauum(top, lower=1, overwrite_c=1)
            if tail.size:
                tail[:] = draws[below:].reshape(tail.shape)
                tail *= scale[n:, None]
                gram = blas.zherk(1.0, tail, beta=1.0, c=gram, trans=2,
                                  lower=1, overwrite_c=1)
            if gram is not top:
                top[:] = gram
        out[a:a + len(chunk)] = _gram_eigenvalues(stack[:len(chunk)])
    return out


def simulate_spectrum(
    model: PopulationModel, N: int, M: int, seed: int
) -> SampleSpectrum:
    """Sample spectrum of the model's observations, drawn without X.

    With n = min(N, M), X = Lf Q where Q (n x M) has orthonormal rows and
    Lf (N x n) is lower trapezoidal with independent entries:

        Lf_ii = sqrt(Gamma(M - i, 1))   for i = 0..n-1,
        Lf_ij ~ CN(0, 1)                for j < min(i, n),

    so rows i >= n (only when N > M) are i.i.d. CN(0, 1). With
    B = R^(1/2) Lf / sqrt(M), the nonzero eigenvalues of (1/M) Y Y^H are
    those of the n x n matrix B^H B. Draw order from the seed's generator:
    the n diagonal gammas, then the strictly lower entries row by row, each
    the real and imaginary parts of two consecutive `standard_normal` draws
    scaled by sqrt(1/2); a seed gives a bit-identical spectrum.

    B^H B is formed in its lower triangle only: LAPACK's `zlauum` multiplies
    the triangular top n x n block by its adjoint, and when N > M `zherk`
    adds the Gram matrix of the i.i.d. block below it. This is the one-row
    call of `simulate_rows`.
    """
    lam = simulate_rows(model, N, M, [seed])[0]
    return padded_spectrum(lam, N, M, seed)


def write_observations(path, observations: np.ndarray, seed: int = 0) -> None:
    """Store complex observations in the package's binary format.

    Layout: 8-byte magic, little-endian int64 N, M, seed, then the matrix
    row-major as float64 (real, imag) pairs.
    """
    Y = np.asarray(observations, dtype=np.complex128)
    if Y.ndim != 2:
        raise DimensionError(f"observations must be 2-D, got shape {Y.shape}")
    N, M = Y.shape
    payload = np.empty((N, M, 2), dtype="<f8")
    payload[:, :, 0] = Y.real
    payload[:, :, 1] = Y.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqq", N, M, int(seed)))
        fh.write(payload.tobytes())


def read_observations(path) -> tuple[NDArray[np.complex128], int]:
    """Read a matrix written by :func:`write_observations`; returns (Y, seed)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise InputError(f"{path}: not a coveig observation file")
        N, M, seed = struct.unpack("<qqq", fh.read(24))
        if N < 1 or M < 1:
            raise InputError(f"{path}: invalid dimensions {N} x {M}")
        data = np.frombuffer(fh.read(), dtype="<f8")
    if data.size != N * M * 2:
        raise InputError(f"{path}: truncated payload")
    data = data.reshape(N, M, 2)
    return data[:, :, 0] + 1j * data[:, :, 1], int(seed)
