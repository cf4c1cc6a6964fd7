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

A Monte Carlo trial's generator is
``Generator(SFC64(SeedSequence(trial_seed(master_seed, index))))``. A call
derives the SFC64 states of all its trials at once with `_trial_states`,
which runs numpy's SeedSequence hash and SFC64's seeding (12 discarded
outputs) on uint32 and uint64 arrays, and `simulate_states` draws every
row from one generator, its state set before each row. NumPy's own objects
are the reference: the states equal theirs bit for bit, which the tests
check, and `simulate_rows` and `simulate_spectrum` still seed each draw
through them.

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
# SeedSequence's hash of its entropy (numpy/random/bit_generator.pyx), on
# uint32 words: a pool of four words, mixed with these constants
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L = np.uint32(0xCA01F9DD)
_MIX_MULT_R = np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_MASK32 = 0xFFFFFFFF
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
    """seed as a non-negative int (`_integer`), or an InputError."""
    seed = _integer(seed, name)
    if seed < 0:
        raise InputError(f"{name} must be non-negative, got {seed}")
    return seed


def _rng_for(seed: int) -> np.random.Generator:
    """The generator of `generate_observations`."""
    seed = _check_seed(seed)
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def _sampler_for(seed: int) -> np.random.Generator:
    """The generator of the Monte Carlo draws of `simulate_rows`."""
    seed = _check_seed(seed)
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed)))


def trial_seed(master_seed: int, index: int) -> int:
    """Stable per-trial integer seed derived from (master_seed, index)."""
    ss = np.random.SeedSequence((_check_seed(master_seed, "master seed"),
                                 _check_seed(index, "trial index")))
    return int(ss.generate_state(1, np.uint64)[0])


def _words(value: int) -> list[int]:
    """The uint32 words SeedSequence reads from a non-negative int, least
    significant first; 0 is one word."""
    words = [value & _MASK32]
    while value := value >> 32:
        words.append(value & _MASK32)
    return words


def _hash_constants(init: int, mult: int):
    """SeedSequence's running hash constant: each call of its hash xors
    with the current one, then multiplies by the next, which it keeps.
    Yields those (xor, multiplier) pairs."""
    while True:
        xor, init = init, (init * mult) & _MASK32
        yield np.uint32(xor), np.uint32(init)


def _hashed(value: np.ndarray, constants) -> np.ndarray:
    """SeedSequence's hash of the uint32 words value, with the next pair of
    constants (`_hash_constants`)."""
    xor, mult = next(constants)
    value = (value ^ xor) * mult
    return value ^ (value >> _XSHIFT)


def _seed_pools(entropy: np.ndarray) -> list[np.ndarray]:
    """The pool of ``SeedSequence(words)`` for each row of entropy, (T, k)
    uint32 words in the order SeedSequence reads them, by the operations of
    its mix_entropy: the pool's four words, each a (T,) uint32 array."""
    T, k = entropy.shape
    constants = _hash_constants(_INIT_A, _MULT_A)

    def hashmix(value):
        return _hashed(value, constants)

    def mix(x, y):
        value = _MIX_MULT_L * x - _MIX_MULT_R * y
        return value ^ (value >> _XSHIFT)

    zero = np.zeros(T, dtype=np.uint32)
    pool = [hashmix(entropy[:, i] if i < k else zero)
            for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for src in range(_POOL_SIZE, k):
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(entropy[:, src]))
    return pool


def _pool_state(pool: list[np.ndarray], n_words: int) -> np.ndarray:
    """`SeedSequence.generate_state(n_words, np.uint64)` of each row of
    the pools from `_seed_pools`: (T, n_words) uint64, each word two
    uint32 words of the hash, the first the low half."""
    constants = _hash_constants(_INIT_B, _MULT_B)
    halves = [_hashed(pool[i % _POOL_SIZE], constants).astype(np.uint64)
              for i in range(2 * n_words)]
    return np.stack([lo | (hi << np.uint64(32))
                     for lo, hi in zip(halves[::2], halves[1::2])], axis=1)


def _generate_states(values: np.ndarray, prefix: list[int],
                     n_words: int) -> np.ndarray:
    """generate_state(n_words, np.uint64) of SeedSequence((*prefix, v)) for
    each v of the uint64 array values, (T, n_words): the entropy is the
    words of prefix then v's one word (v < 2**32) or two, and the rows of
    either length are hashed together."""
    out = np.empty((values.size, n_words), dtype=np.uint64)
    low = (values & np.uint64(_MASK32)).astype(np.uint32)
    high = (values >> np.uint64(32)).astype(np.uint32)
    head = np.array(prefix, dtype=np.uint32)
    for wide in (False, True):
        rows = np.flatnonzero((high > 0) == wide)
        if not rows.size:
            continue
        tail = [low[rows], high[rows]] if wide else [low[rows]]
        entropy = np.column_stack(
            [np.broadcast_to(head, (rows.size, head.size)), *tail])
        out[rows] = _pool_state(_seed_pools(entropy), n_words)
    return out


def _seed_states(seeds) -> np.ndarray:
    """The state of ``SFC64(SeedSequence(seed))`` for each seed of seeds,
    integers in [0, 2**64): (T, 4) uint64, bit for bit. SFC64 seeds its
    first three words from the hash's generate_state(3, np.uint64), its
    counter with 1, and discards its first _SFC64_WARMUP outputs."""
    seeds = np.asarray(seeds, dtype=np.uint64).reshape(-1)
    a, b, c = _generate_states(seeds, [], 3).T
    for counter in range(1, _SFC64_WARMUP + 1):
        # sfc64_next: the output uses the counter before its increment
        out = a + b + np.uint64(counter)
        a = b ^ (b >> np.uint64(11))
        b = c + (c << np.uint64(3))
        c = ((c << np.uint64(24)) | (c >> np.uint64(40))) + out
    return np.stack([a, b, c, np.full_like(a, _SFC64_WARMUP + 1)], axis=1)


def _trial_states(master_seed: int, indices) -> np.ndarray:
    """The SFC64 state of the sampler of each trial index: row t equals
    ``SFC64(SeedSequence(trial_seed(master_seed, indices[t]))).state``,
    bit for bit, all from one vectorized pass of the hash. indices are
    non-negative integers below 2**64; returns (len(indices), 4) uint64."""
    master = _check_seed(master_seed, "master seed")
    indices = np.asarray(indices)
    if indices.size and (indices.dtype.kind not in "iu" or indices.min() < 0):
        raise InputError("trial indices must be non-negative integers")
    seeds = _generate_states(indices.astype(np.uint64).reshape(-1),
                             _words(master), 1)[:, 0]
    return _seed_states(seeds)


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
    """(N, M) as ints (`_integer`), or a DimensionError if either is < 1."""
    N, M = _integer(N, "N"), _integer(M, "M")
    if N < 1 or M < 1:
        raise DimensionError(f"need N >= 1 and M >= 1, got N={N}, M={M}")
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
    gram = np.asfortranarray(small @ small.conj().T / M)
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
    """(scale, lower) of `_draw_rows` at (model, N, M), ints from
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

    The row kernel of `simulate_spectrum`, which is its one-row call:
    returns a (len(seeds), min(N, M)) array whose row t holds, ascending,
    the eigenvalues that ``simulate_spectrum(model, N, M, seeds[t])``
    reports as positive, bit for bit. Each seed's generator is numpy's
    own, ``Generator(SFC64(SeedSequence(seed)))``; see `_draw_rows`.
    """
    N, M = _dimensions(N, M)
    seeds = list(seeds)
    return _draw_rows(model, N, M, map(_sampler_for, seeds), len(seeds))


def simulate_states(model: PopulationModel, N: int, M: int,
                    states) -> NDArray[np.float64]:
    """`simulate_rows` from the SFC64 state of each row's generator.

    states is (T, 4) uint64, the states of `_trial_states` or
    `_seed_states`; row t equals the row of `simulate_rows` for the seed
    whose ``SFC64(SeedSequence(seed))`` has the state states[t], bit for
    bit. One generator draws every row, its state set before each.
    """
    N, M = _dimensions(N, M)
    states = np.asarray(states, dtype=np.uint64)
    if states.ndim != 2 or states.shape[1] != 4:
        raise InputError("states must be (T, 4) SFC64 states, got shape "
                         f"{states.shape}")
    rng = np.random.Generator(np.random.SFC64(0))
    bit_generator = rng.bit_generator

    def reseeded():
        for state in states:
            bit_generator.state = {"bit_generator": "SFC64",
                                   "state": {"state": state},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng

    return _draw_rows(model, N, M, reseeded(), len(states))


def _draw_rows(model: PopulationModel, N: int, M: int, generators,
               T: int) -> NDArray[np.float64]:
    """The loop of `simulate_rows` at the ints (N, M): row t of the
    (T, min(N, M)) result holds the eigenvalues drawn from the t-th of
    the T generators. The scale and the strictly-lower mask come from
    `_sampling_layout`, zhetrd's workspace and one n x n buffer are set up
    once per call, and each row is drawn, its Gram matrix formed in the
    buffer as in `simulate_spectrum` and reduced there, so memory does not
    grow with the number of rows.
    """
    scale, lower = _sampling_layout(model, N, M)
    n = min(N, M)
    out = np.empty((T, n))
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
    for t, rng in enumerate(generators):
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
    those of the n x n matrix B^H B. Draw order from the seed's generator,
    ``Generator(SFC64(SeedSequence(seed)))``: the n diagonal gammas, then
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
    data = np.frombuffer(payload, dtype="<f8")
    data = data.reshape(N, M, 2)
    return data[:, :, 0] + 1j * data[:, :, 1], int(seed)
