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
from coveig import empirical, mestre
from coveig.ensemble import padded_spectrum, simulate_rows
from coveig.mestre import mestre_rows


def test_cluster_assignment_blocks():
    # counts [2, 3, 1] are the index blocks [0, 2), [2, 5), [5, 6); the
    # roots below the last block close the first two blocks, and the trace,
    # sum(lambda_hat - mu_hat) = sum(lambda_hat) / M, closes the last
    model = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    spectrum = simulate_spectrum(model, 6, 60, seed=1)
    secular = secular_zeros(spectrum)
    diff = spectrum.lambda_hat - secular.mu_hat
    below = 60 / 6 * np.cumsum(diff[:5])[[1, 4]]
    gamma_1 = spectrum.positive_eigenvalues().sum() / 6
    blocks = 6 / np.array([2, 3, 1]) * np.diff(below, prepend=0.0,
                                               append=gamma_1)
    est = mestre_estimate(spectrum, [2, 3, 1], secular)
    np.testing.assert_array_equal(est, blocks)
    np.testing.assert_allclose(
        est, [60 / 2 * diff[0:2].sum(), 60 / 3 * diff[2:5].sum(),
              60 / 1 * diff[5:6].sum()], rtol=1e-13, atol=0)
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


def _root_sums(pos, N, M, counts):
    """Mestre's estimates from the secular roots solved by `secular_zeros`:
    M / N times the sums of lambda_hat - mu_hat below each block boundary,
    over the first N - N_L roots, differenced against 0 and against the
    trace's total gamma_1 = sum(lambda_hat) / N."""
    counts = np.asarray(counts)
    need = N - counts[-1]
    est = np.empty((len(pos), len(counts)))
    for t, row in enumerate(pos):
        spectrum = padded_spectrum(row, N, M, 0)
        diff = spectrum.lambda_hat[:need] - secular_zeros(spectrum).mu_hat[:need]
        below = M / N * np.cumsum(diff)[np.cumsum(counts)[:-1] - 1]
        est[t] = N / counts * np.diff(below, prepend=0.0, append=row.sum() / N)
    return est


def _all_root_sums(pos, N, M, counts):
    """Mestre's block sums of lambda_hat - mu_hat over all N secular roots."""
    ends = np.cumsum(counts)
    est = np.empty((len(pos), len(counts)))
    for t, row in enumerate(pos):
        spectrum = padded_spectrum(row, N, M, 0)
        diff = spectrum.lambda_hat - secular_zeros(spectrum).mu_hat
        est[t] = [M / (b - a) * diff[a:b].sum()
                  for a, b in zip(ends - counts, ends)]
    return est


def _stack(rho, N, M, trials=16):
    """trials spectra of equal-weight rho at N x M, and the counts."""
    model = PopulationModel(rho=rho, weights=(1 / len(rho),) * len(rho),
                            aspect=N / M)
    counts = np.asarray(multiplicities(model, N))
    return simulate_rows(model, N, M, range(trials)), counts


@pytest.mark.parametrize("rho,N,M", [
    ((1.0, 4.0), 40, 400),
    ((1.0, 3.0, 10.0), 60, 600),
    ((1.0, 3.0, 9.0, 27.0), 80, 1600),
    ((1.0, 2.0, 4.0, 8.0, 16.0), 100, 2000),
    ((1.0, 30.0), 60, 61),  # near-square: a cluster touches the origin
    ((1.0, 100.0), 40, 41),
])
def test_contour_rows_match_root_sums(rho, N, M):
    # separated clusters take the cluster ellipses; each block sum agrees
    # with the secular roots' to rounding
    pos, counts = _stack(rho, N, M)
    rows, _ = mestre._contour_rows(pos, N, M, counts)
    assert rows.size >= 12
    est = mestre_rows(pos, N, M, counts)
    np.testing.assert_allclose(est[rows], _root_sums(pos[rows], N, M, counts),
                               rtol=1e-12, atol=0)


def _assert_root_sums(pos, N, M, counts):
    # bit for bit the oracle, and within rounding of the sums over all roots
    est = mestre_rows(pos, N, M, counts)
    assert est.tobytes() == _root_sums(pos, N, M, counts).tobytes()
    np.testing.assert_allclose(est, _all_root_sums(pos, N, M, counts),
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("rho,N,M", [
    ((1.0, 30.0), 60, 60), ((1.0, 30.0), 80, 60), ((1.0, 3.0, 10.0), 40, 20),
])
def test_square_and_tall_rows_take_the_roots(rho, N, M):
    pos, counts = _stack(rho, N, M)
    _assert_root_sums(pos, N, M, counts)


@pytest.mark.parametrize("N,M", [(30, 80), (150, 400)])
def test_merged_cluster_rows_take_the_roots(N, M):
    # the sample clusters of rho (1, 3, 5) at aspect 0.375 merge, so no
    # crossing is certified
    pos, counts = _stack((1.0, 3.0, 5.0), N, M)
    assert mestre._contour_rows(pos, N, M, counts)[0].size == 0
    _assert_root_sums(pos, N, M, counts)


def test_rows_failing_the_half_rule_take_the_roots(monkeypatch):
    # certified rows whose quadrature is under-resolved fall back
    pos, counts = _stack((1.0, 3.0, 10.0), 60, 600)
    assert mestre._contour_rows(pos, 60, 600, counts)[0].size == len(pos)
    monkeypatch.setattr(mestre, "_NODES", 8)
    assert mestre._contour_rows(pos, 60, 600, counts)[0].size == 0
    _assert_root_sums(pos, 60, 600, counts)


@pytest.mark.parametrize("rho,N,M", [
    ((1.0, 3.0, 10.0), 60, 600),  # contour rows
    ((1.0, 3.0, 5.0), 30, 80),  # root rows
    ((1.0, 3.0, 10.0), 40, 20),
])
def test_one_row_call_with_and_without_roots(rho, N, M):
    pos, counts = _stack(rho, N, M, trials=6)
    rows = mestre_rows(pos, N, M, counts)
    for t, row in enumerate(pos):
        spectrum = padded_spectrum(row, N, M, 0)
        secular = secular_zeros(spectrum)
        assert mestre_estimate(spectrum, counts).tobytes() == rows[t].tobytes()
        assert (mestre_estimate(spectrum, counts, secular).tobytes()
                == rows[t].tobytes())


def test_passed_roots_read_only_on_the_root_route():
    pos, counts = _stack((1.0, 3.0, 10.0), 60, 600, trials=4)
    junk = np.full((4, 60), np.nan)
    np.testing.assert_array_equal(mestre_rows(pos, 60, 600, counts, junk),
                                  mestre_rows(pos, 60, 600, counts))


@pytest.mark.parametrize("exponent", [-600, 600])
def test_contour_rows_are_scale_free(exponent):
    # each row is integrated at lambda_max in [1/2, 1), an exact power of 2
    # away, so a spectrum scaled by 2^+-600 keeps the contour route and its
    # estimates scale exactly; m' would underflow at that scale otherwise
    pos, counts = _stack((1.0, 3.0, 10.0), 60, 600, trials=4)
    scaled = np.ldexp(pos, exponent)
    assert mestre._contour_rows(scaled, 60, 600, counts)[0].size == 4
    np.testing.assert_array_equal(mestre_rows(scaled, 60, 600, counts),
                                  np.ldexp(mestre_rows(pos, 60, 600, counts),
                                           exponent))


@pytest.mark.parametrize("rho,N,M,asked", [
    # merged clusters: the 100 roots below the last block of 50
    ((1.0, 3.0, 5.0), 150, 400, range(50, 150)),
    # N > M: 20 convention zeros and 19 roots below the last block of 40
    ((1.0, 30.0), 80, 60, range(40, 59)),
    # L = 1 reads no root
    ((2.0,), 40, 80, range(0)),
])
def test_root_rows_solve_only_below_the_last_block(monkeypatch, rho, N, M,
                                                   asked):
    pos, counts = _stack(rho, N, M, trials=1)
    solve, indices = empirical.dlasd4, []

    def spy(i, d, z, rho):
        indices.append(i)
        return solve(i, d, z, rho)

    monkeypatch.setattr(empirical, "dlasd4", spy)
    est = mestre_rows(pos, N, M, counts)
    assert sorted(indices) == list(asked)
    # all N roots take one index per root below the largest eigenvalue
    indices.clear()
    np.testing.assert_allclose(est, _all_root_sums(pos, N, M, counts),
                               rtol=1e-13, atol=0)
    assert len(indices) == min(N, M) - (N >= M)


@pytest.mark.parametrize("N,M", [(40, 80), (40, 40), (60, 40)])
def test_one_block_is_the_first_moment(N, M):
    # L = 1: the trace alone, gamma_1 = sum(lambda_hat) / N
    pos, counts = _stack((2.0,), N, M)
    est = mestre_rows(pos, N, M, counts)
    for t, row in enumerate(pos):
        assert est[t].tobytes() == np.array([row.sum() / N]).tobytes()
    np.testing.assert_allclose(est, _all_root_sums(pos, N, M, counts),
                               rtol=1e-13, atol=0)
