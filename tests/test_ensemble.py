from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import ks_2samp

from coveig import (
    ConvergenceError,
    DimensionError,
    InputError,
    PopulationModel,
    generate_observations,
    multiplicities,
    read_observations,
    sample_spectrum,
    simulate_spectrum,
    trial_seed,
    write_observations,
)
from coveig import ensemble
from reference_draws import sfc64_generator


def _model():
    return PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)


def test_complex_gaussian_moments():
    model = PopulationModel(rho=(1.0,), weights=(1.0,), aspect=1.0)
    Y = generate_observations(model, 200, 500, seed=123)
    flat = Y.ravel()
    assert abs(flat.mean()) < 0.01
    assert abs(np.mean(np.abs(flat) ** 2) - 1.0) < 0.01
    # circular symmetry: real and imaginary parts each carry variance 1/2
    assert abs(flat.real.var() - 0.5) < 0.01
    assert abs(flat.imag.var() - 0.5) < 0.01
    assert abs(np.mean(flat**2)) < 0.01  # pseudo-variance vanishes
    # fourth moment of the modulus is 2 for a standard complex Gaussian
    assert abs(np.mean(np.abs(flat) ** 4) - 2.0) < 0.05


def test_generate_observations_scales_rows():
    model = PopulationModel(rho=(1.0, 4.0), weights=(0.5, 0.5), aspect=0.5)
    Y = generate_observations(model, 40, 2000, seed=5)
    row_power = np.mean(np.abs(Y) ** 2, axis=1)
    assert abs(row_power[:20].mean() - 1.0) < 0.1
    assert abs(row_power[20:].mean() - 4.0) < 0.4


def test_generate_observations_deterministic():
    model = _model()
    a = generate_observations(model, 10, 20, seed=7)
    b = generate_observations(model, 10, 20, seed=7)
    c = generate_observations(model, 10, 20, seed=8)
    np.testing.assert_array_equal(a, b)
    assert np.abs(a - c).max() > 1e-3


def test_sample_spectrum_shapes_and_zeros():
    model = _model()
    Y = generate_observations(model, 6, 4, seed=1)
    spec = sample_spectrum(Y)
    assert spec.lambda_hat.shape == (6,)
    assert spec.lambda_hat_companion.shape == (4,)
    assert np.all(np.diff(spec.lambda_hat) >= 0)
    assert np.all(spec.lambda_hat >= 0)
    # N - M = 2 structural zeros in the larger spectrum
    assert np.sum(spec.lambda_hat < 1e-10 * spec.lambda_hat[-1]) == 2


def test_sample_spectrum_nonzero_parts_coincide():
    model = _model()
    for N, M in [(8, 14), (14, 8), (9, 9)]:
        Y = generate_observations(model, N, M, seed=3)
        spec = sample_spectrum(Y)
        k = min(N, M)
        np.testing.assert_allclose(
            spec.lambda_hat[-k:], spec.lambda_hat_companion[-k:],
            rtol=1e-9, atol=1e-12,
        )


def test_derived_companion_matches_diagonalized():
    model = _model()
    for N, M in [(10, 25), (25, 10)]:
        Y = generate_observations(model, N, M, seed=9)
        fast = sample_spectrum(Y)
        # oracle: diagonalize both Gram matrices
        full = np.linalg.eigvalsh(Y @ Y.conj().T / M)
        full_companion = np.linalg.eigvalsh(Y.conj().T @ Y / M)
        np.testing.assert_allclose(
            full, fast.lambda_hat, rtol=1e-9, atol=1e-12
        )
        np.testing.assert_allclose(
            full_companion, fast.lambda_hat_companion, rtol=1e-9, atol=1e-12,
        )


@pytest.mark.parametrize("scale", [1e-150, 1.0, 1e150])
def test_sample_spectrum_at_extreme_scales(scale):
    # Gram entries near 1e-300 and 1e300 lie outside the range zheevd
    # reduces unscaled; the spectrum must scale with them all the same
    Y = generate_observations(_model(), 8, 14, seed=4)
    reference = sample_spectrum(Y).lambda_hat
    lam = sample_spectrum(scale * Y).lambda_hat / scale**2
    np.testing.assert_allclose(lam, reference, rtol=1e-13)


def test_unconverged_eigensolve_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(ensemble.lapack, "dsterf", lambda d, e, **_: (d, 2))
    Y = generate_observations(_model(), 8, 14, seed=4)
    with pytest.raises(ConvergenceError, match="dsterf"):
        sample_spectrum(Y)
    with pytest.raises(ConvergenceError, match="dsterf"):
        simulate_spectrum(_model(), 8, 14, seed=4)


def test_trace_identity():
    model = _model()
    Y = generate_observations(model, 12, 30, seed=2)
    spec = sample_spectrum(Y)
    trace = np.trace(Y @ Y.conj().T).real / 30
    np.testing.assert_allclose(spec.lambda_hat.sum(), trace, rtol=1e-12)


def test_generate_observations_golden():
    # `coveig simulate` writes these draws; a change of the Monte Carlo
    # sampler must not move them. Compared to within a few ulps, since the
    # polar draw's log1p and exp may differ in the last bit across libms.
    Y = generate_observations(_model(), 2, 3, seed=2026)
    golden = np.array([
        [-0.2274843020411523 - 0.3697159252692281j,
         -0.03760413445789512 + 0.07059373572079793j,
         0.40750416201877376 - 1.1505277258156925j],
        [-0.8909377140496737 + 1.04635862190305j,
         -1.411336309160366 + 1.0044046318184898j,
         1.9736343447590317 + 0.9271451555943427j],
    ])
    np.testing.assert_allclose(Y, golden, rtol=1e-14, atol=0)


def test_simulate_spectrum_golden():
    # the Monte Carlo stream (SFC64 seeded from one word, gammas then the
    # lower normals row by row) must not change by accident; the digits
    # are compared to within rounding, since the LAPACK build may differ
    # in the last bits
    lam = simulate_spectrum(_model(), 6, 14, seed=2026).positive_eigenvalues()
    golden = [float.fromhex(h) for h in (
        "0x1.a905ee9f41719p-3", "0x1.33fb5a0369b8dp-2", "0x1.79b5ecb8d058bp-1",
        "0x1.091a1775a3384p+1", "0x1.54da9124eee16p+1", "0x1.24544f3fc7ae8p+2",
    )]
    np.testing.assert_allclose(lam, golden, rtol=1e-12, atol=0)


def test_simulate_spectrum_reproducible():
    model = _model()
    for N, M in [(16, 32), (20, 8), (9, 9)]:
        a = simulate_spectrum(model, N, M, seed=4)
        b = simulate_spectrum(model, N, M, seed=4)
        np.testing.assert_array_equal(a.lambda_hat, b.lambda_hat)
        np.testing.assert_array_equal(a.lambda_hat_companion,
                                      b.lambda_hat_companion)
        assert a.seed == 4


def _bartlett_factor(model, N, M, seed):
    """The factor R^(1/2) Lf in the documented draw order, built densely."""
    n = min(N, M)
    rng = sfc64_generator(seed)
    factor = np.zeros((N, n), dtype=complex)
    diag = np.sqrt(rng.standard_gamma(M - np.arange(n)))
    count = sum(min(i, n) for i in range(N))
    normals = rng.standard_normal(2 * count) * np.sqrt(0.5)
    entries = iter(normals[0::2] + 1j * normals[1::2])
    for i in range(N):
        if i < n:
            factor[i, i] = diag[i]
        for j in range(min(i, n)):
            factor[i, j] = next(entries)
    r = np.repeat(model.rho_array(), multiplicities(model, N))
    return np.sqrt(r)[:, None] * factor


@pytest.mark.parametrize("N,M", [(8, 14), (30, 70), (9, 9), (25, 25),
                                 (14, 8), (70, 30)])
def test_simulate_spectrum_matches_dense_gram(N, M):
    # oracle: the dense B^H B / M of the same factor; the triangular
    # product and the herk block (N > M) change only the rounding
    model = _model()
    for seed in range(3):
        B = _bartlett_factor(model, N, M, seed)
        dense = np.linalg.eigvalsh(B.conj().T @ B / M)
        fast = simulate_spectrum(model, N, M, seed).positive_eigenvalues()
        np.testing.assert_allclose(fast, dense, rtol=1e-12,
                                   atol=1e-14 * dense[-1])


def test_simulate_spectrum_padding():
    model = _model()
    for N, M in [(8, 14), (14, 8), (9, 9)]:
        spec = simulate_spectrum(model, N, M, seed=3)
        k = min(N, M)
        assert spec.lambda_hat.shape == (N,)
        assert spec.lambda_hat_companion.shape == (M,)
        np.testing.assert_array_equal(spec.lambda_hat[:N - k], 0.0)
        np.testing.assert_array_equal(spec.lambda_hat_companion[:M - k], 0.0)
        np.testing.assert_array_equal(
            spec.lambda_hat[-k:], spec.lambda_hat_companion[-k:]
        )
        lam = spec.positive_eigenvalues()
        assert lam.size == k and np.all(np.diff(lam) >= 0)


def test_simulate_spectrum_rejects_empty():
    for N, M in [(0, 5), (5, 0)]:
        with pytest.raises(DimensionError):
            simulate_spectrum(_model(), N, M, seed=0)


@pytest.mark.parametrize("N,M", [(20, 50), (50, 20), (30, 30)])
def test_simulate_spectrum_exact_wishart_moments(N, M):
    # for S = (1/M) Y Y^H with Y = R^(1/2) X and X complex Gaussian,
    # E tr S = tr R and E tr S^2 = tr R^2 + (tr R)^2 / M exactly
    model = _model()
    r = np.repeat(model.rho_array(), multiplicities(model, N))
    draws = 2000
    traces = np.empty((draws, 2))
    for t in range(draws):
        lam = simulate_spectrum(model, N, M, trial_seed(N * 1000 + M, t)).lambda_hat
        traces[t] = lam.sum(), (lam**2).sum()
    exact = np.array([r.sum(), (r**2).sum() + r.sum() ** 2 / M])
    stderr = traces.std(axis=0, ddof=1) / np.sqrt(draws)
    assert np.all(np.abs(traces.mean(axis=0) - exact) <= 4 * stderr)


@pytest.mark.parametrize("N,M", [(20, 50), (50, 20), (30, 30)])
def test_simulate_spectrum_matches_observation_spectrum_law(N, M):
    # the Bartlett draw and the spectrum of a full Y are two samplers of
    # one law; compare their extreme nonzero eigenvalues
    model = _model()
    draws = 600
    fast = np.array([
        simulate_spectrum(model, N, M, trial_seed(1, t)).positive_eigenvalues()
        for t in range(draws)
    ])
    full = np.array([
        sample_spectrum(
            generate_observations(model, N, M, trial_seed(2, t))
        ).positive_eigenvalues()
        for t in range(draws)
    ])
    for col in (0, -1):
        assert ks_2samp(fast[:, col], full[:, col]).pvalue > 0.01


def test_trial_seed_distinct():
    seeds = {trial_seed(42, i) for i in range(100)}
    assert len(seeds) == 100
    assert trial_seed(42, 0) != trial_seed(43, 0)
    assert trial_seed(42, 7) == trial_seed(42, 7)


_MASK64 = 2**64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    """SplitMix64's finalizer on a Python int (Steele, Lea & Flood 2014)."""
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def _splitmix64(state: int):
    """SplitMix64's outputs from state: add the increment, finalize."""
    while True:
        state = (state + _GAMMA) & _MASK64
        yield _mix64(state)


def _sfc64_outputs(seed: int, count: int) -> list[int]:
    """Doty-Humphrey's SFC64 seeded from one word, a = b = c = seed and
    counter 1, 12 outputs discarded: its next count outputs."""
    a = b = c = seed
    counter = 1
    out = []
    for _ in range(12 + count):
        value = (a + b + counter) & _MASK64
        counter += 1
        a = b ^ (b >> 11)
        b = (c + (c << 3)) & _MASK64
        c = ((((c << 24) | (c >> 40)) & _MASK64) + value) & _MASK64
        out.append(value)
    return out[12:]


@pytest.mark.parametrize("master", [0, 1, 2**32, 2**64 - 1],
                         ids=["0", "1", "2^32", "2^64-1"])
def test_trial_seeds_equal_splitmix64(master):
    # index t is SplitMix64's output t from the finalizer of the master,
    # stepped one by one here; a far index jumps t + 1 increments at once
    outputs = _splitmix64(_mix64(master))
    want = [next(outputs) for _ in range(300)]
    want.append(_mix64((_mix64(master) + _GAMMA * (2**32 + 1)) & _MASK64))
    indices = [*range(300), 2**32]
    assert [trial_seed(master, t) for t in indices] == want
    got = ensemble._trial_seeds(master, np.array(indices))
    assert got.dtype == np.uint64
    assert got.tolist() == want
    assert ensemble._trial_seeds(master, []).shape == (0,)


@pytest.mark.parametrize("seed", [0, 1, 2**63, 2**64 - 1],
                         ids=["0", "1", "2^63", "2^64-1"])
def test_sfc64_seeding_equals_reference(seed):
    # the tests' generator of the seeding rule, through numpy's SFC64,
    # against SFC64 in Python ints; the kernels' rows equal its draws
    raw = sfc64_generator(seed).bit_generator.random_raw(8)
    assert raw.tolist() == _sfc64_outputs(seed, 8)


@pytest.mark.parametrize("call,message", [
    (lambda: trial_seed(2**64, 0), r"master seed must be below 2\*\*64"),
    (lambda: trial_seed(0, 2**64), r"trial index must be below 2\*\*64"),
    (lambda: ensemble._trial_seeds(-1, [0]),
     "master seed must be non-negative"),
    (lambda: ensemble._trial_seeds(1, np.array([0, -1])),
     "trial index must be non-negative"),
    (lambda: ensemble._trial_seeds(1, [0, 2**64]),
     r"trial index must be below 2\*\*64"),
    (lambda: ensemble._trial_seeds(1, np.array([0.5])),
     "trial index must be an integer"),
    (lambda: simulate_spectrum(_model(), 4, 8, 2**64),
     r"seed must be below 2\*\*64"),
    (lambda: ensemble.simulate_rows(_model(), 4, 8, [0, -1]),
     "seed must be non-negative"),
    (lambda: ensemble.simulate_rows(_model(), 4, 8, np.array([-3, 1])),
     "seed must be non-negative"),
    (lambda: ensemble.simulate_rows(_model(), 4, 8, [2**63, 2**64]),
     r"seed must be below 2\*\*64"),
    (lambda: ensemble.simulate_rows(_model(), 4, 8, [1, 2.5]),
     "seed must be an integer"),
], ids=["master-2^64", "index-2^64",
        "seeds-master-negative", "seeds-index-negative", "seeds-index-2^64",
        "seeds-index-fraction", "simulate-2^64", "rows-negative",
        "rows-array-negative", "rows-2^64", "rows-fraction"])
def test_seeds_outside_64_bits_are_input_errors(call, message):
    with pytest.raises(InputError, match=message):
        call()


def test_integral_float_sizes_sample_as_ints():
    # N and M are read as ints once and passed on, to the cached sampling
    # layout too
    model = _model()
    for N, M in ((20.0, 40), (20, np.float64(40.0))):
        ensemble._sampling_layout.cache_clear()
        spectrum = simulate_spectrum(model, N, M, 1)
        assert (type(spectrum.N), type(spectrum.M)) == (int, int)
        assert np.array_equal(spectrum.lambda_hat_companion,
                              simulate_spectrum(model, 20, 40, 1)
                              .lambda_hat_companion)
        assert np.array_equal(generate_observations(model, N, M, 1),
                              generate_observations(model, 20, 40, 1))


def test_negative_seeds_are_input_errors():
    # numpy would raise a bare ValueError or OverflowError
    with pytest.raises(InputError, match="master seed must be non-negative"):
        trial_seed(-1, 0)
    with pytest.raises(InputError, match="trial index must be non-negative"):
        trial_seed(0, -1)
    model = _model()
    for draw in (generate_observations, simulate_spectrum):
        with pytest.raises(InputError, match="seed must be non-negative"):
            draw(model, 4, 8, -1)


@pytest.mark.parametrize("call,name", [
    (lambda: trial_seed(1.5, 2), "master seed"),
    (lambda: trial_seed(1, 2.5), "trial index"),
    (lambda: trial_seed("1", 2), "master seed"),
    (lambda: simulate_spectrum(_model(), 20, 40, 1.5), "seed"),
    (lambda: simulate_spectrum(_model(), 20.5, 40, 1), "N"),
    (lambda: simulate_spectrum(_model(), 20, "40", 1), "M"),
    (lambda: generate_observations(_model(), 4, 8, 2.5), "seed"),
    (lambda: generate_observations(_model(), 4, 8.5, 2), "M"),
], ids=["master-seed", "index", "master-seed-text", "simulate-seed",
        "simulate-N", "simulate-M-text", "observations-seed",
        "observations-M"])
def test_non_integers_at_sampling_entry_points_are_input_errors(call, name):
    # int() would truncate a fraction and numpy raise a bare TypeError
    with pytest.raises(InputError, match=f"^{name} must be an integer"):
        call()


def test_observation_file_roundtrip(tmp_path):
    model = _model()
    Y = generate_observations(model, 5, 9, seed=77)
    path = tmp_path / "obs.bin"
    write_observations(path, Y, seed=77)
    back, seed = read_observations(path)
    np.testing.assert_array_equal(Y, back)
    assert seed == 77


def test_read_observations_rejects_garbage(tmp_path):
    path = tmp_path / "bad.bin"
    path.write_bytes(b"not a coveig file at all")
    with pytest.raises(InputError):
        read_observations(path)


def test_read_observations_rejects_truncated(tmp_path):
    model = _model()
    Y = generate_observations(model, 4, 6, seed=1)
    path = tmp_path / "trunc.bin"
    write_observations(path, Y, seed=1)
    data = path.read_bytes()
    path.write_bytes(data[:-16])
    with pytest.raises(InputError):
        read_observations(path)
