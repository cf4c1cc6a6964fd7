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
random entries instead of N M. Those entries come from their own
generator, SFC64, whose ziggurat normals (`Generator.standard_normal`, two
per complex entry) cost about two thirds of Philox's;
`generate_observations` keeps Philox and the polar draw of
`complex_gaussian`, so observation files do not depend on the Monte Carlo
stream. The Gram matrix of the scaled factor is a triangular LAPACK
product, so the eigensolve is most of a draw's cost. So
`simulate_spectrum(model, N, M, seed)` has the law of the spectrum of
`generate_observations(model, N, M, seed)` but is not its spectrum; only
`generate_observations` writes a real Y.

A Monte Carlo trial's seed is ``trial_seed(master_seed, index)``, output
index of SplitMix64 (Steele, Lea & Flood 2014) started from its own
finalizer of the master seed: ``mix64(mix64(master) + gamma (index + 1))``
in wrapping uint64 arithmetic, which a call computes for all its trials in
one array pass (`_trial_seeds`). A seed s < 2**64 draws from SFC64 seeded
as in its reference implementation (Doty-Humphrey's PractRand): a = b =
c = s, counter 1, and 12 outputs discarded. `simulate_rows` sets its
generator's state so before each row; it is the one sampling kernel, and
`simulate_spectrum` its one-row call.

That eigensolve, in `simulate_spectrum` and `sample_spectrum` alike, is
the two steps of LAPACK's `zheevd` without eigenvectors (numpy's
`eigvalsh`), called directly on the buffer the Gram matrix was formed in:
`zhetrd` reduces it to a real tridiagonal in place, and `dsterf`
diagonalizes that. zhetrd is given a workspace of 8 n, which caps its
block size at 8 instead of the 32 that its workspace query selects; on
one OpenBLAS thread that made it 17-23% faster at n = 60..150 and 1-6%
at n = 240..1000. So its eigenvalues equal `zheevd`'s to rounding, not
bit for bit. `zhetrd`, `dsterf`, `zlauum` and `zherk` are scipy's own
wrappers, taken from `coveig._lapack`, which loads scipy's LAPACK and BLAS
extension modules without importing `scipy.linalg`.
"""

from __future__ import annotations

import numbers
import struct
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.typing import NDArray

from ._lapack import blas, lapack
from .errors import ConvergenceError, DimensionError, InputError
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
# zheevd scales a matrix whose largest entry lies outside [_RMIN, _RMAX]
# into that range before reducing it, and its eigenvalues back after
_RMIN = np.sqrt(np.finfo(float).tiny / np.finfo(float).eps)
_RMAX = 1.0 / _RMIN
# zhetrd's block size is at most its workspace divided by the order
_ZHETRD_BLOCK = 8
# SplitMix64's increment, the odd integer nearest 2**64 over the golden
# ratio, and the two multipliers of its finalizer
_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX_MULT_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_MULT_2 = np.uint64(0x94D049BB133111EB)
# outputs SFC64 discards after seeding
_SFC64_WARMUP = 12


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


def _integer(value, name: str) -> int:
    """value as an int: an integer, or a float of integral value. A bool, a
    string, a fraction or any other value is an InputError naming name,
    not silently truncated."""
    if isinstance(value, (float, np.floating)) and float(value).is_integer():
        return int(value)
    if isinstance(value, numbers.Integral) and not isinstance(value, bool):
        return int(value)
    raise InputError(f"{name} must be an integer, got {value!r}")


def _check_seed(seed, name: str = "seed") -> int:
    """seed as an int (`_integer`) in [0, 2**64), or an InputError."""
    seed = _integer(seed, name)
    if seed < 0:
        raise InputError(f"{name} must be non-negative, got {seed}")
    if seed >= 2**64:
        raise InputError(f"{name} must be below 2**64, got {seed}")
    return seed


def _seed_array(values, name: str) -> np.ndarray:
    """values, integers in [0, 2**64), as a 1-D uint64 array, or the
    InputError of `_check_seed`. An integer array is checked at once; other
    values one by one, as numpy reads a list that holds ints of 2**63 and
    more as floats."""
    if isinstance(values, np.ndarray) and values.dtype.kind in "iu":
        if values.size:
            _check_seed(values.min(), name)
        return values.astype(np.uint64).reshape(-1)
    return np.array([_check_seed(v, name) for v in values], dtype=np.uint64)


def _rng_for(seed: int) -> np.random.Generator:
    """The generator of `generate_observations`."""
    seed = _check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _mix64(z: np.ndarray) -> np.ndarray:
    """SplitMix64's finalizer of the uint64 array z, wrapping."""
    z = (z ^ (z >> np.uint64(30))) * _MIX_MULT_1
    z = (z ^ (z >> np.uint64(27))) * _MIX_MULT_2
    return z ^ (z >> np.uint64(31))


def _trial_seeds(master_seed: int, indices) -> np.ndarray:
    """`trial_seed(master_seed, t)` for each t of indices, integers in
    [0, 2**64), as a uint64 array from one pass of SplitMix64."""
    start = _mix64(np.array([_check_seed(master_seed, "master seed")],
                            dtype=np.uint64))
    steps = _seed_array(indices, "trial index") + np.uint64(1)
    return _mix64(start + _GAMMA * steps)


def trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial seed in [0, 2**64): output index of SplitMix64
    started from its finalizer of master_seed (see the module docstring)."""
    return int(_trial_seeds(master_seed, [index])[0])


def generate_observations(
    model: PopulationModel, N: int, M: int, seed: int
) -> NDArray[np.complex128]:
    """N x M observation matrix Y = R^(1/2) X for the realized model.

    The realized covariance R is diagonal with eigenvalue rho_k repeated
    according to ``multiplicities(model, N)``.
    """
    N, M = _dimensions(N, M)
    x = complex_gaussian(_rng_for(seed), (N, M))
    return _realized_scale(model, N)[:, None] * x


def _dimensions(N, M) -> tuple[int, int]:
    """(N, M) as ints (`_integer`), or a DimensionError if either is < 1
    or an N x M complex matrix could not be addressed."""
    N, M = _integer(N, "N"), _integer(M, "M")
    if N < 1 or M < 1:
        raise DimensionError(f"need N >= 1 and M >= 1, got N={N}, M={M}")
    if N * M > np.iinfo(np.intp).max // 16:
        raise DimensionError(f"an {N} x {M} complex matrix is too large")
    return N, M


def _realized_scale(model: PopulationModel, N: int) -> NDArray[np.float64]:
    """R^(1/2) of the realized diagonal covariance at the int N."""
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
    with np.errstate(over="ignore", invalid="ignore"):
        gram = np.asfortranarray(small @ small.conj().T / M)
    if not np.all(np.isfinite(gram)):
        raise InputError("observations too large: their Gram matrix overflows")
    lam = _gram_eigenvalues(gram, _workspace(gram.shape[0]))
    return padded_spectrum(lam, N, M, seed)


def padded_spectrum(lam: np.ndarray, N: int, M: int, seed) -> SampleSpectrum:
    """Spectrum from the min(N, M) nonzero-carrying eigenvalues, ascending;
    the longer side gets |N - M| structural zeros."""
    padded = np.concatenate([np.zeros(abs(N - M)), lam])
    lam_n, lam_m = (lam, padded) if N <= M else (padded, lam)
    return SampleSpectrum(
        N=N, M=M, lambda_hat=lam_n, lambda_hat_companion=lam_m,
        seed=int(seed),
    )


def _workspace(n: int) -> int:
    """zhetrd's workspace at order n: room for panels of _ZHETRD_BLOCK
    columns, which caps its block size there whatever its query would
    select."""
    return _ZHETRD_BLOCK * n


def _gram_eigenvalues(gram: np.ndarray, lwork: int) -> np.ndarray:
    """Eigenvalues, ascending, of the PSD Gram matrix held in the lower
    triangle of the Fortran-ordered gram, which is overwritten.

    zheevd's steps for eigenvalues only: the scaling of an extreme matrix,
    zhetrd with workspace lwork (from `_workspace`) and dsterf. The largest
    entry of a PSD matrix lies on its diagonal, so that is where the scale
    is read. Rounding's tiny negatives are clipped to zero; a dsterf that
    does not converge raises ConvergenceError.
    """
    if gram.shape[0] == 1:
        # no off-diagonal to reduce; zheevd returns the real diagonal
        lam = gram[0, :1].real.copy()
    else:
        top = gram.diagonal().real.max()
        sigma = (_RMAX / top if top > _RMAX
                 else _RMIN / top if 0.0 < top < _RMIN else None)
        if sigma is not None:
            gram *= sigma
        _, d, e, _, _ = lapack.zhetrd(gram, lower=1, lwork=lwork,
                                      overwrite_a=1)
        lam, info = lapack.dsterf(d, e, overwrite_d=1, overwrite_e=1)
        if info > 0:
            raise ConvergenceError(
                f"dsterf left {info} off-diagonal entries unconverged")
        if sigma is not None:
            lam *= 1.0 / sigma
    # np.clip's operation for a lower bound alone, without its wrapper
    np.maximum(lam, 0.0, out=lam)
    return lam


@lru_cache(maxsize=16)
def _sampling_layout(model: PopulationModel, N: int, M: int):
    """(scale, lower) of `simulate_rows` at (model, N, M), ints from
    `_dimensions`: R^(1/2) / sqrt(M) of the realized covariance and the
    strictly-lower mask of the top min(N, M) block, read-only. A Monte
    Carlo run draws every chunk of a size at one (model, N, M), so they
    are built once."""
    scale = _realized_scale(model, N) / np.sqrt(M)
    n = min(N, M)
    lower = np.tri(n, n, -1, dtype=bool)
    scale.flags.writeable = lower.flags.writeable = False
    return scale, lower


def simulate_rows(model: PopulationModel, N: int, M: int,
                  seeds) -> NDArray[np.float64]:
    """Eigenvalues of the smaller Gram matrix, one row per seed.

    The sampling kernel, and `simulate_spectrum` its one-row call: returns
    a (len(seeds), min(N, M)) array whose row t holds, ascending, the
    eigenvalues that ``simulate_spectrum(model, N, M, seeds[t])`` reports
    as positive, bit for bit. seeds are integers in [0, 2**64). One SFC64
    generator draws every row, seeded from the row's seed before it (see
    the module docstring). The scale and the strictly-lower mask come from
    `_sampling_layout`, zhetrd's workspace and one n x n buffer are set up
    once per call, and each row's Gram matrix is formed in the buffer and
    reduced there, so memory does not grow with the number of rows.
    """
    N, M = _dimensions(N, M)
    seeds = _seed_array(seeds, "seed")
    scale, lower = _sampling_layout(model, N, M)
    n = min(N, M)
    out = np.empty((seeds.size, n))
    diag = np.arange(n)
    below = n * (n - 1) // 2  # entries below the diagonal of the top block
    root_half = np.sqrt(0.5)
    lwork = _workspace(n)
    # column-major, so that LAPACK forms the Gram matrix in place from the
    # top n x n block of the factor, which it overwrites, and reduces it
    # there; only the lower triangle is ever written, the upper stays zero
    top = np.zeros((n, n), dtype=np.complex128, order="F")
    # the i.i.d. rows below that block, when N > M
    tail = np.empty((N - n, n), dtype=np.complex128, order="F")
    rng = np.random.Generator(np.random.SFC64(0))
    bit_generator = rng.bit_generator
    # SFC64's seeding from one word s: (a, b, c, counter) = (s, s, s, 1)
    states = np.repeat(seeds[:, None], 4, axis=1)
    states[:, 3] = 1
    for t, state in enumerate(states):
        bit_generator.state = {"bit_generator": "SFC64",
                               "state": {"state": state},
                               "has_uint32": 0, "uinteger": 0}
        bit_generator.random_raw(_SFC64_WARMUP)
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
        out[t] = _gram_eigenvalues(gram, lwork)
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
    those of the n x n matrix B^H B. Draw order from the seed's SFC64
    generator (see the module docstring): the n diagonal gammas, then
    the strictly lower entries row by row, each the real and imaginary
    parts of two consecutive `standard_normal` draws scaled by sqrt(1/2);
    a seed gives a bit-identical spectrum.

    B^H B is formed in its lower triangle only: LAPACK's `zlauum` multiplies
    the triangular top n x n block by its adjoint, and when N > M `zherk`
    adds the Gram matrix of the i.i.d. block below it; `zhetrd`, with
    workspace 8 n, and `dsterf` then diagonalize it in the same buffer.
    This is the one-row call of `simulate_rows`.
    """
    N, M = _dimensions(N, M)
    lam = simulate_rows(model, N, M, [seed])[0]
    return padded_spectrum(lam, N, M, seed)


def _header_seed(seed) -> int:
    """seed as the int64 of an observation file's header, or an InputError
    if it does not fit."""
    seed = int(seed)
    if not -2**63 <= seed < 2**63:
        raise InputError(f"seed {seed} does not fit the header's int64")
    return seed


def write_observations(path, observations: np.ndarray, seed: int = 0) -> None:
    """Store complex observations in the package's binary format.

    Layout: 8-byte magic, little-endian int64 N, M, seed, then the matrix
    row-major as float64 (real, imag) pairs.
    """
    Y = np.asarray(observations, dtype=np.complex128)
    if Y.ndim != 2:
        raise DimensionError(f"observations must be 2-D, got shape {Y.shape}")
    N, M = Y.shape
    seed = _header_seed(seed)
    payload = np.empty((N, M, 2), dtype="<f8")
    payload[:, :, 0] = Y.real
    payload[:, :, 1] = Y.imag
    with open(path, "wb") as fh:
        fh.write(_MAGIC)
        fh.write(struct.pack("<qqq", N, M, seed))
        fh.write(payload.tobytes())


def read_observations(path) -> tuple[NDArray[np.complex128], int]:
    """Read a matrix written by :func:`write_observations`; returns (Y, seed)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(_MAGIC))
        if magic != _MAGIC:
            raise InputError(f"{path}: not a coveig observation file")
        header = fh.read(24)
        if len(header) != 24:
            raise InputError(f"{path}: truncated header")
        N, M, seed = struct.unpack("<qqq", header)
        if N < 1 or M < 1:
            raise InputError(f"{path}: invalid dimensions {N} x {M}")
        payload = fh.read()
    if len(payload) != 16 * N * M:
        raise InputError(f"{path}: payload of {len(payload)} bytes, "
                         f"expected {16 * N * M} for {N} x {M}")
    # (real, imag) pairs are complex128 as they lie, non-finite ones too
    Y = np.frombuffer(payload, dtype="<c16").reshape(N, M)
    return Y.astype(np.complex128), int(seed)
