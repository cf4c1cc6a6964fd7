from __future__ import annotations

import math
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from scipy import stats

import coveig
from coveig import (
    BracketError,
    CltHistogram,
    ExperimentConfig,
    ExperimentReport,
    InputError,
    PopulationModel,
    run_clt_histogram,
    run_mse_sweep,
)
from coveig import experiments, moments

MODEL = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.5)


def _config(**kw):
    base = dict(model=MODEL, sizes=((20, 40),), trials=6, master_seed=42)
    base.update(kw)
    return ExperimentConfig(**base)


def test_config_validation():
    with pytest.raises(InputError):
        _config(sizes=())
    with pytest.raises(InputError):
        _config(trials=0)
    with pytest.raises(InputError):
        _config(methods=("moment_full", "bogus"))
    with pytest.raises(InputError):
        _config(infeasible="drop")
    with pytest.raises(InputError):
        _config(moment_route="simpson")


def test_sweep_runs_all_methods_and_is_deterministic():
    report = run_mse_sweep(_config())
    again = run_mse_sweep(_config())
    assert isinstance(report, ExperimentReport)
    assert {r.method for r in report.rows} == {
        "moment_full", "moment_known_mult", "mestre"
    }
    for r, r2 in zip(report.rows, again.rows):
        assert r.method == r2.method and r.N == r2.N
        if np.isfinite(r.mse_db):
            assert r.mse_db == r2.mse_db
        np.testing.assert_array_equal(
            report.estimates[(r.method, r.N)], again.estimates[(r.method, r.N)]
        )
        assert r.failure_count + np.isnan(
            report.estimates[(r.method, r.N)][:, 0]
        ).sum() == r.failure_count * 2  # NaN rows are exactly the failures
        assert r.wall_time >= 0


def test_row_lookup():
    report = run_mse_sweep(_config())
    row = report.row("mestre", 20)
    assert row.M == 40
    with pytest.raises(KeyError):
        report.row("mestre", 999)


def test_methods_subset_respected():
    report = run_mse_sweep(_config(methods=("mestre",)))
    assert {r.method for r in report.rows} == {"mestre"}


def test_residue_route_agrees_with_quadrature():
    q = run_mse_sweep(_config(moment_route="quadrature",
                              methods=("moment_full",)))
    r = run_mse_sweep(_config(moment_route="residues",
                              methods=("moment_full",)))
    qa = q.estimates[("moment_full", 20)]
    ra = r.estimates[("moment_full", 20)]
    both = ~np.isnan(qa[:, 0]) & ~np.isnan(ra[:, 0])
    np.testing.assert_allclose(qa[both], ra[both], rtol=1e-6)


def test_failure_accounting_and_projection():
    # at a hopelessly small size some trials leave the feasible cone;
    # exclusion counts them, projection keeps them flagged
    tiny = ExperimentConfig(
        model=PopulationModel(rho=(1.0, 1.5, 2.0),
                              weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.5),
        sizes=((12, 24),),
        trials=30,
        master_seed=7,
        methods=("moment_full",),
    )
    excluded = run_mse_sweep(tiny)
    row = excluded.row("moment_full", 12)
    assert row.failure_count > 0
    arr = excluded.estimates[("moment_full", 12)]
    assert int(np.isnan(arr[:, 0]).sum()) == row.failure_count

    projected = run_mse_sweep(
        ExperimentConfig(
            model=tiny.model, sizes=tiny.sizes, trials=30, master_seed=7,
            methods=("moment_full",), infeasible="project",
        )
    )
    prow = projected.row("moment_full", 12)
    assert prow.failure_count < row.failure_count
    assert prow.projected_count > 0


def test_log_callback_invoked():
    lines = []
    run_mse_sweep(_config(methods=("mestre",)), log=lines.append)
    assert len(lines) == 1
    assert "mestre" in lines[0] and "N=  20" in lines[0]


def test_bias_and_variance_definitions():
    report = run_mse_sweep(_config(trials=10, methods=("mestre",)))
    row = report.row("mestre", 20)
    arr = report.estimates[("mestre", 20)]
    ok = arr[~np.isnan(arr[:, 0])]
    err = ok - np.array([1.0, 3.0])
    np.testing.assert_allclose(row.bias, err.mean(axis=0))
    np.testing.assert_allclose(row.variance, (40 * err).var(axis=0, ddof=1))
    expected_db = 10 * np.log10(np.mean(np.sum(err**2, axis=1)))
    assert abs(row.mse_db - expected_db) < 1e-12


def test_clt_histogram_output_shape_and_overlay():
    # the baseline path needs one support cluster per population eigenvalue,
    # which the well split three-atom model at aspect 0.1 provides
    split = PopulationModel(rho=(1.0, 3.0, 10.0),
                            weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
    hist = run_clt_histogram(split, 30, 300, trials=60, master_seed=3,
                             method="mestre", bins=12)
    assert isinstance(hist, CltHistogram)
    assert hist.deviations.shape == (60, 3)
    assert hist.counts.shape == (3, 12)
    assert hist.bin_edges.shape == (3, 13)
    assert hist.predicted_var.shape == (3,)
    assert np.all(hist.predicted_var > 0)
    assert np.all(hist.ks_statistic >= 0) and np.all(hist.ks_statistic <= 1)
    # histogram integrates to one (density normalized)
    widths = np.diff(hist.bin_edges, axis=1)
    np.testing.assert_allclose((hist.counts * widths).sum(axis=1), 1.0,
                               atol=1e-9)
    # the overlay is the centered normal pdf with the predicted variance
    k = 0
    sigma = np.sqrt(hist.predicted_var[k])
    pdf = np.exp(-0.5 * (hist.overlay_x[k] / sigma) ** 2)
    pdf /= sigma * np.sqrt(2 * np.pi)
    np.testing.assert_allclose(hist.overlay_pdf[k], pdf, rtol=1e-12)


def test_clt_histogram_variance_roughly_matches_prediction():
    hist = run_clt_histogram(MODEL, 60, 120, trials=200, master_seed=5,
                             method="moment_full")
    ratio = hist.empirical_var / hist.predicted_var
    assert np.all(ratio > 0.6) and np.all(ratio < 1.6)


def test_clt_histogram_statistics_match_scipy_stats():
    # the closed-form overlay and the KS distance from ndtr must be the
    # values scipy.stats gives, without the package importing it
    hist = run_clt_histogram(MODEL, 30, 60, trials=80, master_seed=8,
                             method="moment_full", bins=10)
    good = hist.deviations[~np.isnan(hist.deviations[:, 0])]
    for k in range(MODEL.L):
        sigma = np.sqrt(hist.predicted_var[k])
        pdf = stats.norm.pdf(hist.overlay_x[k], scale=sigma)
        np.testing.assert_allclose(hist.overlay_pdf[k], pdf, rtol=1e-15, atol=0)
        z = (good[:, k] - good[:, k].mean()) / good[:, k].std(ddof=1)
        ks = stats.kstest(z, "norm").statistic
        assert abs(hist.ks_statistic[k] - ks) <= 1e-15


def test_import_leaves_scipy_stats_unloaded():
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(coveig.__file__))
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, coveig; sys.exit('scipy.stats' in sys.modules)"],
        env=env, timeout=120,
    )
    assert proc.returncode == 0


def test_clt_histogram_near_square_aspect():
    # criterion 5 at aspect 0.95, where the first support cluster starts
    # near the origin: variance ratios within 15%, widened by 5 standard
    # errors at this trial count, and KS below 0.05 plus its 1e-6 tail
    # quantile (Dvoretzky-Kiefer-Wolfowitz)
    near = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.95)
    hist = run_clt_histogram(near, 114, 120, trials=400, master_seed=95)
    n = 400 - hist.failure_count
    ratio = hist.empirical_var / hist.predicted_var
    log_tol = math.log1p(0.15) + 5.0 * math.sqrt(2.0 / (n - 1))
    ks_tol = 0.05 + math.sqrt(math.log(2.0 / 1e-6) / 2.0) / math.sqrt(n)
    assert np.all(np.abs(np.log(ratio)) <= log_tol)
    assert np.all(hist.ks_statistic <= ks_tol)


def test_clt_histogram_rejects_unknown_method():
    with pytest.raises(InputError):
        run_clt_histogram(MODEL, 40, 80, trials=10, master_seed=0,
                          method="moment_known_mult")


# trial workers: the fork path is forced by claiming two CPUs and no
# threshold, so these run the same on a one-CPU runner

SPLIT = PopulationModel(rho=(1.0, 3.0, 10.0),
                        weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.1)
CLOSE = PopulationModel(rho=(1.0, 1.5, 2.0),
                        weights=(1 / 3, 1 / 3, 1 / 3), aspect=0.5)


def _serial(monkeypatch):
    monkeypatch.setattr(experiments, "_cpus", lambda: 1)


def _forked(monkeypatch):
    """Force two forked workers; returns the start methods asked for."""
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_PARALLEL_MIN_S", 0.0)
    asked = []
    real = multiprocessing.get_context

    def spy(method=None):
        asked.append(method)
        return real(method)

    monkeypatch.setattr(multiprocessing, "get_context", spy)
    return asked


@pytest.mark.parametrize("infeasible", ["exclude", "project"])
def test_forked_sweep_is_bit_identical(monkeypatch, infeasible):
    # two cells of 7 trials: 13 jobs dealt to 2 workers cross the cell edge
    config = ExperimentConfig(model=CLOSE, sizes=((12, 24), (24, 48)),
                              trials=7, master_seed=7, infeasible=infeasible)
    runs = []
    for mode in (_serial, _forked):
        with monkeypatch.context() as m:
            asked = mode(m)
            lines = []
            runs.append((run_mse_sweep(config, log=lines.append), lines))
            assert asked in (None, ["fork"])
    (serial, serial_log), (forked, forked_log) = runs
    assert forked_log == serial_log
    counted = "failure_count" if infeasible == "exclude" else "projected_count"
    assert sum(getattr(r, counted) for r in serial.rows) > 0
    for a, b in zip(serial.rows, forked.rows):
        assert (a.method, a.N, a.M) == (b.method, b.N, b.M)
        assert a.failure_count == b.failure_count
        assert a.projected_count == b.projected_count
        assert np.array_equal(a.mse_db, b.mse_db, equal_nan=True)
        assert np.array_equal(a.bias, b.bias, equal_nan=True)
        assert np.array_equal(a.variance, b.variance, equal_nan=True)
        assert np.array_equal(serial.estimates[(a.method, a.N)],
                              forked.estimates[(a.method, a.N)], equal_nan=True)


@pytest.mark.parametrize("method,model,N,M", [
    ("moment_full", MODEL, 20, 40),
    ("mestre", SPLIT, 30, 300),
])
def test_forked_clt_histogram_is_bit_identical(monkeypatch, method, model, N, M):
    hists = []
    for mode in (_serial, _forked):
        with monkeypatch.context() as m:
            asked = mode(m)
            hists.append(run_clt_histogram(model, N, M, trials=9,
                                           master_seed=3, method=method))
            assert asked in (None, ["fork"])
    serial, forked = hists
    assert np.array_equal(serial.deviations, forked.deviations, equal_nan=True)
    assert serial.failure_count == forked.failure_count


def _fail_at_trial(monkeypatch, master_seed, trial, fail):
    real = experiments.secular_zeros
    bad_seed = coveig.trial_seed(master_seed, trial)

    def secular_zeros(spectrum):
        if spectrum.seed == bad_seed:
            fail()
        return real(spectrum)

    monkeypatch.setattr(experiments, "secular_zeros", secular_zeros)


def test_worker_error_reaches_caller(monkeypatch):
    def fail():
        err = BracketError("bracket lost at trial 3")
        err.trial = 3
        raise err

    asked = _forked(monkeypatch)
    _fail_at_trial(monkeypatch, 42, 3, fail)
    with pytest.raises(BracketError, match="^bracket lost at trial 3$") as exc:
        run_mse_sweep(_config(trials=8, methods=("mestre",)))
    assert exc.value.trial == 3
    assert asked == ["fork"]
    assert multiprocessing.active_children() == []


def _slowed(monkeypatch, side, seconds=0.02, worker=None):
    """Make each block of trials sleep first in the calling process
    (side "caller") or in forked workers (side "worker"), told apart by
    os.getpid(); worker, when given, replaces the sleep in a worker."""
    caller = os.getpid()
    real = experiments.simulate_rows

    def simulate_rows(*args):
        in_caller = os.getpid() == caller
        if not in_caller and worker is not None:
            worker()
        elif in_caller == (side == "caller"):
            time.sleep(seconds)
        return real(*args)

    monkeypatch.setattr(experiments, "simulate_rows", simulate_rows)


def test_dead_worker_is_an_error(monkeypatch):
    # the caller takes chunks too, so only a forked worker is killed; the
    # caller's trials sleep, so the worker takes a chunk before it is done
    _forked(monkeypatch)
    _slowed(monkeypatch, "caller", 0.05, worker=lambda: os._exit(3))
    with pytest.raises(coveig.CoveigError, match="exited with code 3"):
        run_mse_sweep(_config(trials=8, methods=("mestre",)))
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("side", ["caller", "worker"])
def test_forked_runs_with_a_slow_side_are_bit_identical(monkeypatch, side):
    # whoever is slow takes fewer chunks; the results must not move
    config = ExperimentConfig(model=CLOSE, sizes=((12, 24), (24, 48)),
                              trials=9, master_seed=7)
    runs = []
    for mode in (_serial, _forked):
        with monkeypatch.context() as m:
            asked = mode(m)
            if mode is _forked:
                _slowed(m, side)
            runs.append((run_mse_sweep(config),
                         run_clt_histogram(MODEL, 20, 40, trials=11,
                                           master_seed=3)))
            assert asked in (None, ["fork", "fork"])
            assert multiprocessing.active_children() == []
    (sweep, hist), (forked_sweep, forked_hist) = runs
    for a, b in zip(sweep.rows, forked_sweep.rows):
        assert (a.failure_count, a.projected_count) == (
            b.failure_count, b.projected_count)
        assert np.array_equal(sweep.estimates[(a.method, a.N)],
                              forked_sweep.estimates[(a.method, a.N)],
                              equal_nan=True)
    assert np.array_equal(hist.deviations, forked_hist.deviations,
                          equal_nan=True)
    assert np.array_equal(hist.predicted_var, forked_hist.predicted_var)


def test_setup_error_reaches_caller_while_workers_run(monkeypatch):
    # the covariance set-up runs in the caller after the workers start
    asked = _forked(monkeypatch)
    _slowed(monkeypatch, "worker", 0.05)
    children = []

    def theta_moment_estimator(model):
        children.append(len(multiprocessing.active_children()))
        raise coveig.ConvergenceError("set-up failed")

    monkeypatch.setattr(experiments, "theta_moment_estimator",
                        theta_moment_estimator)
    with pytest.raises(coveig.ConvergenceError, match="^set-up failed$"):
        run_clt_histogram(MODEL, 20, 40, trials=12, master_seed=1)
    assert asked == ["fork"]
    assert children == [1]
    assert multiprocessing.active_children() == []


def test_each_trial_taken_once_by_racing_workers(monkeypatch, tmp_path):
    # more processes than CPUs race for chunks of at most 7 trials: every
    # index must run exactly once, which a lost update of the shared
    # counter breaks, and come back in its place
    monkeypatch.setattr(experiments, "_cpus", lambda: 6)
    monkeypatch.setattr(experiments, "_PARALLEL_MIN_S", 0.0)
    monkeypatch.setattr(experiments, "_CHUNK_MIN_S", 0.0)
    log = tmp_path / "runs"

    def run(block):
        with open(log, "a") as fh:
            fh.write("".join(f"{j}\n" for j in block))
        return [(j, os.getpid()) for j in block]

    _, results = experiments._map_trials(run, 20000, cell_size=7)
    assert [j for j, _ in results] == list(range(20000))
    assert sorted(map(int, log.read_text().split())) == list(range(20000))
    assert len({pid for _, pid in results}) > 1
    assert multiprocessing.active_children() == []


def _no_fork(monkeypatch):
    def refuse(method=None):
        raise AssertionError("must not fork")

    monkeypatch.setattr(multiprocessing, "get_context", refuse)


def test_tiny_call_never_forks(monkeypatch):
    _no_fork(monkeypatch)
    hist = run_clt_histogram(MODEL, 20, 40, trials=4, master_seed=1)
    assert hist.deviations.shape == (4, 2)


def test_no_fork_while_other_threads_run(monkeypatch):
    monkeypatch.setattr(experiments, "_cpus", lambda: 2)
    monkeypatch.setattr(experiments, "_PARALLEL_MIN_S", 0.0)
    _no_fork(monkeypatch)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(60,))
    thread.start()
    try:
        hist = run_clt_histogram(MODEL, 20, 40, trials=4, master_seed=1)
    finally:
        release.set()
        thread.join(timeout=60)
    assert not thread.is_alive()
    assert hist.deviations.shape == (4, 2)


def _deviations_in_pool_worker():
    return run_clt_histogram(MODEL, 20, 40, trials=6, master_seed=1).deviations


def test_call_inside_daemonic_pool_worker(monkeypatch):
    # a pool worker is daemonic and may have no children: trials run there
    _serial(monkeypatch)
    expected = _deviations_in_pool_worker()
    _forked(monkeypatch)
    with multiprocessing.get_context("fork").Pool(1) as pool:
        got = pool.apply_async(_deviations_in_pool_worker).get(timeout=120)
    assert np.array_equal(got, expected, equal_nan=True)


def _count_secular(monkeypatch):
    """Spy on secular_zeros where the harness and the moments call it;
    returns the list of spectrum seeds it was called for."""
    calls = []
    real = experiments.secular_zeros

    def spy(spectrum):
        calls.append(spectrum.seed)
        return real(spectrum)

    monkeypatch.setattr(experiments, "secular_zeros", spy)
    monkeypatch.setattr(moments, "secular_zeros", spy)
    return calls


@pytest.mark.parametrize("methods,route,solves", [
    (("moment_full",), "quadrature", 0),
    (("moment_known_mult",), "quadrature", 0),
    (("moment_full", "moment_known_mult"), "quadrature", 0),
    (("mestre",), "quadrature", 1),
    (("moment_full", "mestre"), "quadrature", 1),
    (("moment_full",), "residues", 1),
])
def test_secular_roots_solved_only_where_read(monkeypatch, methods, route,
                                              solves):
    # quadrature moments and both inversions never read the roots; Mestre
    # and the residue route do, and share one solve per trial
    calls = _count_secular(monkeypatch)
    counts = coveig.multiplicities(MODEL, 20)
    (est, _, _), = experiments._trials(MODEL, 20, 40, counts, [5], methods,
                                       route=route)
    assert calls == [5] * solves
    assert not np.isnan(est).any()


def test_moment_trials_unchanged_by_the_roots():
    # a moment trial that skips the secular solve estimates bit for bit
    # what it does next to Mestre, which makes the solve
    counts = coveig.multiplicities(MODEL, 20)
    seeds = list(range(5))
    alone = experiments._trials(MODEL, 20, 40, counts, seeds,
                                ("moment_full", "moment_known_mult"))
    shared = experiments._trials(MODEL, 20, 40, counts, seeds,
                                 ("moment_full", "moment_known_mult", "mestre"))
    for (a, _, _), (b, _, _) in zip(alone, shared):
        assert np.array_equal(a, b[:2])


def _scalar_trial(model, N, M, seed, methods, project):
    """One trial through the public per-trial functions, as `coveig
    estimate` runs them: (estimates, projected), NaN rows for failures."""
    L = model.L
    counts = coveig.multiplicities(model, N)
    spectrum = coveig.simulate_spectrum(model, N, M, seed)
    est = np.full((len(methods), L), np.nan)
    projected = np.zeros(len(methods), dtype=bool)
    try:
        gamma = coveig.moments_by_quadrature(spectrum, L)
    except experiments._TRIAL_FAILURES:
        gamma = None
    for i, method in enumerate(methods):
        try:
            if method == "mestre":
                est[i] = coveig.mestre_estimate(spectrum, counts)
                continue
            if gamma is None:
                continue
            if method == "moment_full":
                res = coveig.invert_moments(gamma, L, project=project)
            else:
                res = coveig.invert_moments_known_multiplicities(
                    gamma, counts / N, project=project)
            est[i], projected[i] = res.rho_hat, res.projected
        except experiments._TRIAL_FAILURES:
            pass
    return est, projected


@pytest.mark.parametrize("infeasible", ["exclude", "project"])
def test_sweep_independent_of_blocks_and_workers(monkeypatch, infeasible):
    # 37 trials per cell: chunks of the guided plan, serial or taken by
    # the caller and a forked worker; both must give the scalar loop's bits
    sizes = ((12, 24), (24, 48))
    config = ExperimentConfig(model=CLOSE, sizes=sizes, trials=37,
                              master_seed=11, infeasible=infeasible)
    reports = []
    for mode in (_serial, _forked):
        with monkeypatch.context() as m:
            mode(m)
            reports.append(run_mse_sweep(config))
    serial, forked = reports
    for a, b in zip(serial.rows, forked.rows):
        assert (a.failure_count, a.projected_count) == (
            b.failure_count, b.projected_count)
        for field in ("mse_db", "bias", "variance"):
            assert np.array_equal(getattr(a, field), getattr(b, field),
                                  equal_nan=True)
    project = infeasible == "project"
    for N, M in sizes:
        loop = [_scalar_trial(CLOSE, N, M, coveig.trial_seed(11, t),
                              config.methods, project) for t in range(37)]
        est = np.array([e for e, _ in loop])
        projected = np.array([p for _, p in loop]).sum(axis=0)
        assert 0 < np.isnan(est[:, :, 0]).sum() or projected.sum() > 0
        for i, method in enumerate(config.methods):
            for report in (serial, forked):
                assert np.array_equal(report.estimates[(method, N)],
                                      est[:, i], equal_nan=True)
                assert report.row(method, N).projected_count == projected[i]


def test_clt_histogram_independent_of_blocks_and_workers(monkeypatch):
    hists = []
    for mode in (_serial, _forked):
        with monkeypatch.context() as m:
            mode(m)
            hists.append(run_clt_histogram(CLOSE, 24, 48, trials=53,
                                           master_seed=4))
    rho = CLOSE.rho_array()
    loop = np.array([
        48 * (_scalar_trial(CLOSE, 24, 48, coveig.trial_seed(4, t),
                            ("moment_full",), False)[0][0] - rho)
        for t in range(53)])
    assert np.isnan(loop[:, 0]).any() and not np.isnan(loop[:, 0]).all()
    for hist in hists:
        assert np.array_equal(hist.deviations, loop, equal_nan=True)
        assert hist.failure_count == int(np.isnan(loop[:, 0]).sum())
