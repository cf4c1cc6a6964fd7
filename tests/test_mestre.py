from __future__ import annotations

import numpy as np
import pytest

from coveig import (
    DimensionError,
    ExperimentConfig,
    InputError,
    PopulationModel,
    mestre_estimate,
    moments_by_residues,
    multiplicities,
    run_mse_sweep,
    sample_spectrum,
    secular_zeros,
    simulate_spectrum,
)


def test_cluster_assignment_blocks():
    # counts [2, 3, 1] are the index blocks [0, 2), [2, 5), [5, 6)
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    spectrum = simulate_spectrum(model, 6, 60, seed=1)
    secular = secular_zeros(spectrum)
    diff = spectrum.lambda_hat - secular.mu_hat
    blocks = [60 / 2 * diff[0:2].sum(), 60 / 3 * diff[2:5].sum(),
              60 / 1 * diff[5:6].sum()]
    np.testing.assert_array_equal(
        mestre_estimate(spectrum, [2, 3, 1], secular), blocks)
    with pytest.raises(InputError):
        mestre_estimate(spectrum, [2, 0, 4], secular)


def test_counts_must_sum_to_dimension():
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    spectrum = simulate_spectrum(model, 20, 40, seed=0)
    with pytest.raises(DimensionError):
        mestre_estimate(spectrum, [10, 11])


@pytest.mark.parametrize("N, M", [(60, 600), (60, 60), (120, 60)])
def test_block_sums_reproduce_first_moment(N, M):
    # the multiplicity-weighted average of the block estimates telescopes
    # back to the full sum of lambda_hat - mu_hat, i.e. the first moment;
    # at N >= M too, since tr(Lambda - s s^T / M) = sum lambda (1 - 1/M)
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=N / M)
    spectrum = simulate_spectrum(model, N, M, seed=4)
    counts = multiplicities(model, N)
    est = mestre_estimate(spectrum, counts)
    weighted = np.sum(counts / spectrum.N * est)
    gamma1 = moments_by_residues(spectrum, 1).gamma_hat[1]
    assert abs(weighted - gamma1) < 1e-10 * (1 + abs(gamma1))


def test_single_draw_accuracy_in_separated_regime():
    # three well-split clusters at a small aspect: one draw should land
    # within a few percent of every distinct eigenvalue
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    spectrum = simulate_spectrum(model, 240, 2400, seed=9)
    est = mestre_estimate(spectrum, [80, 80, 80])
    np.testing.assert_allclose(est, [1.0, 3.0, 10.0], rtol=0.05)


def test_identity_covariance_single_cluster():
    # L = 1: the single block must average to roughly the eigenvalue scale
    model = PopulationModel(rho=(2.0,), weights=(1.0,), aspect=0.5)
    spectrum = simulate_spectrum(model, 40, 80, seed=2)
    est = mestre_estimate(spectrum, [40])
    np.testing.assert_allclose(est, [2.0], rtol=0.1)


def test_estimate_is_deterministic_given_spectrum():
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.25)
    spectrum = simulate_spectrum(model, 30, 120, seed=5)
    a = mestre_estimate(spectrum, [15, 15])
    b = mestre_estimate(spectrum, [15, 15])
    np.testing.assert_array_equal(a, b)


def test_explicit_matrix_cross_check():
    # run the whole pipeline on an explicitly assembled covariance draw to
    # make sure nothing depends on the simulation shortcut
    rng = np.random.default_rng(123)
    N, M = 30, 300
    rho = np.repeat([1.0, 5.0], [15, 15])
    X = (rng.standard_normal((N, M)) + 1j * rng.standard_normal((N, M)))
    X *= np.sqrt(rho / 2)[:, None]
    spectrum = sample_spectrum(X)
    est = mestre_estimate(spectrum, [15, 15])
    np.testing.assert_allclose(est, [1.0, 5.0], rtol=0.1)


def _mestre_sweep(model, sizes, trials, master_seed):
    report = run_mse_sweep(ExperimentConfig(
        model=model, sizes=sizes, trials=trials, master_seed=master_seed,
        methods=("mestre",)))
    return [(row.N, row.mse_db) for row in report.rows]


def test_mestre_sweep_shapes_and_determinism():
    model = PopulationModel(rho=(1.0, 2.0), weights=(0.5, 0.5), aspect=0.5)
    rows = _mestre_sweep(model, [(16, 32), (32, 64)], trials=8, master_seed=77)
    again = _mestre_sweep(model, [(16, 32), (32, 64)], trials=8, master_seed=77)
    assert rows == again
    assert [n for n, _ in rows] == [16, 32]
    assert all(np.isfinite(v) for _, v in rows)
    pairs = _mestre_sweep(model, [(16, 32)], trials=4, master_seed=1)
    assert pairs[0][0] == 16


def test_mestre_sweep_floor_when_clusters_never_split():
    # closely packed eigenvalues at aspect 1/2 keep the support connected,
    # so the baseline's error stops shrinking while a split model keeps
    # improving over the same size range
    packed = PopulationModel(rho=(1.0, 1.5, 2.0),
                             weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.5)
    rows = _mestre_sweep(packed, [(30, 60), (150, 300)], trials=40,
                         master_seed=3)
    improvement = rows[0][1] - rows[1][1]
    assert improvement < 3.0  # stuck near its floor, in dB

    split = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    rows = _mestre_sweep(split, [(30, 300), (150, 1500)], trials=40,
                         master_seed=3)
    improvement = rows[0][1] - rows[1][1]
    assert improvement > 5.0  # genuinely consistent here
