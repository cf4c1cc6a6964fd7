"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with -s (or read captured output) to see the per-criterion lines with
their measured values. The Monte Carlo settings are the full ones, so this
module takes a few minutes; everything is seeded and deterministic.
"""
from __future__ import annotations

import numpy as np
import pytest

from coveig import (
    ExperimentConfig,
    PopulationModel,
    density_curve,
    empirical_m,
    invert_moments,
    moments_by_quadrature,
    moments_by_residues,
    run_clt_histogram,
    run_mse_sweep,
    secular_zeros,
    simulate_spectrum,
    theta_mestre,
    theta_moment_estimator,
    trial_seed,
    true_moments,
    v_matrix,
)


def _line(n: int, ok: bool, detail: str) -> None:
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# criterion 1: exact-moment round trip


RATIO_BANDS = {2: (1.5, 3.2), 3: (1.5, 2.2), 4: (1.45, 1.9), 5: (1.55, 1.85)}


def _eliminate(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with A x = b, by Gaussian elimination with partial pivoting in the
    arithmetic of A and b: np.longdouble here, which LAPACK does not take.
    A zero pivot raises."""
    n = b.size
    Ab = np.concatenate([A, b[:, None]], axis=1)
    pivots = []  # the pivot rows, in elimination order
    for k in range(n):
        rest = Ab[k:]
        p = np.abs(rest[:, k]).argmax()
        # the pivot row leaves; row k takes its place among the rest
        pivot = rest[p].copy()
        rest[p] = rest[0]
        if pivot[k] == 0:
            raise np.linalg.LinAlgError("singular Newton system")
        rest[1:, k:] -= (rest[1:, k] / pivot[k])[:, None] * pivot[None, k:]
        pivots.append(pivot)
    x = np.empty(n, dtype=Ab.dtype)
    for k in range(n - 1, -1, -1):
        pivot = pivots[k]
        x[k] = (pivot[n] - pivot[k + 1:n] @ x[k + 1:]) / pivot[k]
    return x


def _identification_floor(model: PopulationModel) -> float:
    """Best possible recovery error from the float64-rounded moments.

    Extended-precision Newton started at the true parameters converges to
    the unique solution of the rounded moment data; its distance from the
    truth is the rounding floor no inversion routine can beat. Models whose
    floor exceeds the target tolerance are not identifiable to that
    tolerance in double precision and are re-drawn.
    """
    L = model.L
    rho = model.rho_array().astype(np.longdouble)
    w = model.weights_array().astype(np.longdouble)
    g = true_moments(model, 2 * L - 1).astype(np.longdouble)
    ells = np.arange(2 * L, dtype=np.longdouble)[:, None]
    x_rho, x_c = rho.copy(), w.copy()
    for _ in range(50):
        powers = x_rho[None, :] ** ells
        resid = powers @ x_c - g
        dpow = ells * x_rho[None, :] ** np.maximum(ells - 1, 0)
        jac = np.concatenate([powers, dpow * x_c[None, :]], axis=1)
        step = _eliminate(jac, resid)
        x_c, x_rho = x_c - step[:L], x_rho - step[L:]
        if np.abs(step).max() < 1e-18:
            break
    return float(max(np.abs(x_rho - rho).max(), np.abs(x_c - w).max()))


def _draw_model(rng: np.random.Generator) -> PopulationModel:
    """Random valid model with well separated atoms of bounded spread.

    The ratio bands keep the moment-map conditioning inside the window
    where 1e-9 round-trip accuracy is attainable at all in double
    precision, and the identifiability screen rejects the residual tail
    of draws whose rounded moments land badly.
    """
    while True:
        L = int(rng.integers(1, 6))
        if L == 1:
            rho = np.array([rng.uniform(0.5, 2.0)])
        else:
            lo, hi = RATIO_BANDS[L]
            ratios = rng.uniform(lo, hi, size=L - 1)
            rho = rng.uniform(0.5, 2.0) * np.concatenate(
                [[1.0], np.cumprod(ratios)]
            )
        w = rng.uniform(0.7, 1.3, size=L)
        w /= w.sum()
        model = PopulationModel(
            rho=tuple(rho), weights=tuple(w),
            aspect=float(rng.uniform(0.05, 2.0)),
        )
        if _identification_floor(model) <= 2e-10:
            return model


def test_criterion_1_exact_moment_round_trip():
    rng = np.random.default_rng(314159)
    worst = 0.0
    for _ in range(50):
        model = _draw_model(rng)
        rho, w = model.rho_array(), model.weights_array()
        res = invert_moments(true_moments(model, 2 * model.L - 1))
        err = max(np.abs(res.rho_hat - rho).max(),
                  np.abs(res.c_hat - w).max())
        worst = max(worst, err)
    ok = worst < 1e-9
    _line(1, ok, f"50 models L 1..5, worst round-trip error {worst:.3e} < 1e-9")
    assert ok


# ---------------------------------------------------------------------------
# criterion 2: moment-estimator consistency


def test_criterion_2_moment_error_decreases_with_size():
    model = PopulationModel(rho=(1.0, 3.0, 5.0), weights=(1 / 3, 1 / 3, 1 / 3),
                            aspect=0.375)
    gamma = true_moments(model, 5)
    medians = []
    for N in (50, 100, 200):
        M = round(N * 8 / 3)
        errs = []
        for t in range(50):
            spectrum = simulate_spectrum(model, N, M, trial_seed(7000 + N, t))
            est = moments_by_quadrature(spectrum, 3)
            errs.append(np.abs(est.gamma_hat[1:] - gamma[1:]).max())
        medians.append(float(np.median(errs)))
    ok = medians[0] > medians[1] > medians[2]
    _line(2, ok, "median max moment error "
          + " > ".join(f"{m:.1f}" for m in medians) + " over N=50,100,200")
    assert ok


# ---------------------------------------------------------------------------
# criteria 3 and 4: MSE profiles with known multiplicities


def _mse_profile(model, sizes, methods, master_seed):
    report = run_mse_sweep(ExperimentConfig(
        model=model, sizes=sizes, trials=1000, master_seed=master_seed,
        methods=methods, infeasible="project",
    ))
    return report


def test_criterion_3_mse_profile_split_atoms():
    model = PopulationModel(rho=(1.0, 3.0, 5.0), weights=(1 / 3, 1 / 3, 1 / 3),
                            aspect=0.375)
    sizes = ((30, 80), (60, 160), (90, 240), (120, 320), (150, 400))
    report = _mse_profile(model, sizes, ("moment_known_mult", "mestre"), 2026)
    target_prop = (-6.86, -13.77, -17.59, -19.57, -21.62)
    target_mestre = (-9.51, -11.65, -12.18, -12.29, -12.44)
    prop = [report.row("moment_known_mult", n).mse_db for n, _ in sizes]
    mest = [report.row("mestre", n).mse_db for n, _ in sizes]
    dev_p = max(abs(a - b) for a, b in zip(prop, target_prop))
    dev_m = max(abs(a - b) for a, b in zip(mest, target_mestre))
    ok = dev_p <= 2.0 and dev_m <= 2.0
    _line(3, ok,
          "proposed dB " + ",".join(f"{v:.2f}" for v in prop)
          + f" (max dev {dev_p:.2f}); baseline dB "
          + ",".join(f"{v:.2f}" for v in mest)
          + f" (max dev {dev_m:.2f}); both within 2 dB")
    assert ok


def test_criterion_4_mse_profile_close_atoms():
    model = PopulationModel(rho=(1.0, 1.5, 2.0), weights=(1 / 3, 1 / 3, 1 / 3),
                            aspect=0.375)
    prop = _mse_profile(model, ((150, 400),), ("moment_known_mult",), 404)
    prop_db = prop.row("moment_known_mult", 150).mse_db
    mest = _mse_profile(
        model, ((60, 160), (90, 240), (120, 320), (150, 400)), ("mestre",), 405
    )
    mest_db = [mest.row("mestre", n).mse_db for n in (60, 90, 120, 150)]
    dev_p = abs(prop_db - (-22.77))
    dev_m = max(abs(v - (-11.7)) for v in mest_db)
    ok = dev_p <= 2.0 and dev_m <= 2.0
    _line(4, ok,
          f"proposed at N=150: {prop_db:.2f} dB (dev {dev_p:.2f}); baseline "
          + ",".join(f"{v:.2f}" for v in mest_db)
          + f" dB flat vs -11.7 (max dev {dev_m:.2f})")
    assert ok


# ---------------------------------------------------------------------------
# criteria 5 and 6: CLT variance agreement


def test_criterion_5_full_estimator_clt():
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    hist = run_clt_histogram(model, 60, 120, trials=2000, master_seed=505,
                             method="moment_full")
    ratio = hist.empirical_var / hist.predicted_var
    ks = hist.ks_statistic
    ok = bool(np.all(np.abs(ratio - 1) <= 0.15) and np.all(ks < 0.05))
    _line(5, ok,
          f"variance ratios {np.round(ratio, 3)} within 15%, "
          f"KS {np.round(ks, 3)} < 0.05, failures {hist.failure_count}")
    assert ok


def test_criterion_6_baseline_estimator_clt():
    model = PopulationModel(rho=(1.0, 3.0, 10.0), weights=(1 / 3, 1 / 3, 1 / 3),
                            aspect=0.1)
    hist = run_clt_histogram(model, 240, 2400, trials=2000, master_seed=606,
                             method="mestre")
    ratio = hist.empirical_var / hist.predicted_var
    ok = bool(np.all(np.abs(ratio - 1) <= 0.15))
    _line(6, ok, f"variance ratios {np.round(ratio, 3)} within 15%, "
          f"failures {hist.failure_count}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 7: residue/quadrature cross-validation and first-moment identities


def test_criterion_7_route_cross_validation():
    rng = np.random.default_rng(777)
    worst_gap = 0.0
    worst_first = 0.0
    for _ in range(20):
        L = int(rng.integers(1, 4))
        ratios = rng.uniform(1.5, 3.0, size=L - 1)
        rho = rng.uniform(0.7, 1.6) * np.concatenate([[1.0], np.cumprod(ratios)])
        w = rng.uniform(0.7, 1.3, size=L)
        w /= w.sum()
        aspect = float(rng.uniform(0.15, 0.8))
        model = PopulationModel(rho=tuple(rho), weights=tuple(w), aspect=aspect)
        N = int(rng.integers(24, 64))
        M = round(N / aspect)
        spectrum = simulate_spectrum(model, N, M, int(rng.integers(1 << 31)))
        secular = secular_zeros(spectrum)
        quad = moments_by_quadrature(spectrum, L, secular=secular).gamma_hat
        resi = moments_by_residues(spectrum, L, secular=secular).gamma_hat
        gap = float(np.max(np.abs(quad - resi) / np.maximum(np.abs(quad), 1e-12)))
        worst_gap = max(worst_gap, gap)
        lam_mean = spectrum.lambda_hat.mean()
        by_trace = (M / N) * (spectrum.lambda_hat.sum() - secular.mu_hat.sum())
        worst_first = max(
            worst_first,
            abs(quad[1] - lam_mean),
            abs(by_trace - lam_mean),
        )
    ok = worst_gap <= 1e-8 and worst_first <= 1e-9
    _line(7, ok, f"20 spectra: route gap {worst_gap:.2e} <= 1e-8, "
          f"first-moment identity dev {worst_first:.2e} <= 1e-9")
    assert ok


# ---------------------------------------------------------------------------
# criterion 8: cluster counting and single-atom support edges


def test_criterion_8_cluster_detection():
    three = density_curve(
        PopulationModel(rho=(1.0, 3.0, 10.0), weights=(1 / 3, 1 / 3, 1 / 3),
                        aspect=0.1), 0.1)
    merged = density_curve(
        PopulationModel(rho=(1.0, 3.0, 5.0), weights=(1 / 3, 1 / 3, 1 / 3),
                        aspect=0.375), 0.375)
    c = 0.5
    single = density_curve(
        PopulationModel(rho=(1.0,), weights=(1.0,), aspect=c), c,
        grid_spec=1e-3)
    lo, hi = single.clusters[0]
    edge_dev = max(abs(lo - (1 - np.sqrt(c)) ** 2),
                   abs(hi - (1 + np.sqrt(c)) ** 2))
    ok = (len(three.clusters) == 3 and len(merged.clusters) == 1
          and edge_dev <= 1e-2)
    _line(8, ok, f"clusters {len(three.clusters)}/3 and "
          f"{len(merged.clusters)}/1, single-atom edge dev {edge_dev:.2e}")
    assert ok


# ---------------------------------------------------------------------------
# criterion 9: structural invariants


def test_criterion_9_structural_invariants():
    checks = {}

    # Hankel determinant identity and Vandermonde factorization on exact
    # moments of a three-atom model
    model = PopulationModel(rho=(1.0, 1.8, 3.2), weights=(0.3, 0.45, 0.25),
                            aspect=0.5)
    rho, w = model.rho_array(), model.weights_array()
    res = invert_moments(true_moments(model, 5))
    G = res.hankel.Gamma
    det_expected = np.prod(w)
    for i in range(3):
        for j in range(i + 1, 3):
            det_expected *= (rho[j] - rho[i]) ** 2
    checks["hankel determinant"] = (
        abs(np.linalg.det(G) - det_expected) <= 1e-9 * det_expected
    )
    A = rho[None, :] ** np.arange(3)[:, None]
    checks["vandermonde factorization"] = (
        np.abs(A @ np.diag(w) @ A.T - G).max() <= 1e-10
    )

    # covariance machinery on a two-atom model
    clt_model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)
    V, meta = v_matrix(clt_model, 2)
    checks["V symmetry"] = meta["asymmetry"] <= 1e-10
    cov = theta_moment_estimator(clt_model)
    checks["W zero border"] = bool(
        np.all(cov.W[0] == 0.0) and np.all(cov.W[:, 0] == 0.0)
    )
    eigs = np.linalg.eigvalsh(cov.Theta)
    checks["Theta PSD"] = eigs.min() >= -1e-8 * np.abs(eigs).max()

    # interlacing of the secular roots with the sample eigenvalues
    spectrum = simulate_spectrum(clt_model, 40, 80, 5)
    secular = secular_zeros(spectrum)
    inside = np.all(
        (secular.mu_hat >= secular.brackets[:, 0])
        & (secular.mu_hat <= secular.brackets[:, 1])
    )
    strict = secular.brackets[:, 0] < secular.brackets[:, 1]
    strictly_inside = np.all(
        (secular.mu_hat[strict] > secular.brackets[strict, 0])
        & (secular.mu_hat[strict] < secular.brackets[strict, 1])
    )
    checks["interlacing"] = bool(inside and strictly_inside)

    # relation between the sample and companion transforms
    ratio = spectrum.N / spectrum.M
    dev = 0.0
    for z in (0.5 + 0.8j, 2.0 + 1.0j, -1.0 + 0.5j):
        m_s, m_c = empirical_m(spectrum, z)
        dev = max(dev, abs(m_c - (ratio * m_s - (1 - ratio) / z)))
    checks["transform relation"] = dev <= 1e-10

    failed = [name for name, passed in checks.items() if not passed]
    ok = not failed
    _line(9, ok, f"{len(checks)} invariants"
          + ("" if ok else f", failed: {', '.join(failed)}"))
    assert ok, failed
