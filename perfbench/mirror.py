"""Traced mirror of the trial loops of coveig.experiments.

run_mse_sweep and run_clt_histogram are copied here call for call, with the
same trial_seed(master_seed, t) per trial, and each call into a layer is
wrapped in a span. The spans stay outside coveig, so the program under test
carries no tracing code. The mirror's outputs are compared with those of the
untraced CLI call for the same seeds (trace.mirror_max_dev); a later change
to coveig.experiments that the mirror does not follow shows up there.
"""

from __future__ import annotations

import numpy as np
from scipy import stats

from coveig import errors
from coveig import (
    PopulationModel,
    invert_moments,
    invert_moments_known_multiplicities,
    mestre_estimate,
    moments_by_quadrature,
    moments_by_residues,
    multiplicities,
    secular_zeros,
    simulate_spectrum,
    theta_mestre,
    theta_moment_estimator,
    trial_seed,
)

from .spans import Recorder, self_times, timing_stats
from .workloads import CLT_NODES, FAILURE_LAYERS, TRIAL_FAILURES, Workload

_FAILURES = tuple(getattr(errors, name) for name in TRIAL_FAILURES)
_START_NODES = 1024  # moments_by_quadrature's first node count
ROUTE_GAP_SPECTRA = 3  # spectra per size compared against the residue route

SIMULATE = "ensemble.simulate_spectrum"
SECULAR = "empirical.secular_zeros"
QUADRATURE = "moments.moments_by_quadrature"
INVERT = "inversion.invert_moments"
INVERT_KNOWN = "inversion.invert_moments_known_multiplicities"
MESTRE = "mestre.mestre_estimate"
LAYERS = (SIMULATE, SECULAR, QUADRATURE, INVERT, INVERT_KNOWN, MESTRE)


def _model(wl: Workload) -> PopulationModel:
    return PopulationModel(rho=wl.rho, weights=wl.weights, aspect=wl.aspect)


def _simulate_and_roots(rec, model, N, M, seed, trial):
    with rec.span(SIMULATE, trial):
        spectrum = simulate_spectrum(model, N, M, seed)
    with rec.span(SECULAR, trial) as attrs:
        secular = secular_zeros(spectrum)
    attrs["residual_max"] = float(np.abs(secular.residuals).max())
    return spectrum, secular


def _quadrature(rec, spectrum, L, secular, trial):
    with rec.span(QUADRATURE, trial) as attrs:
        gamma = moments_by_quadrature(spectrum, L, secular=secular)
    attrs.update(nodes=gamma.node_count, leakage=gamma.imag_leakage)
    return gamma


def _invert(rec, name, fn, trial, *args, **kwargs):
    with rec.span(name, trial) as attrs:
        res = fn(*args, **kwargs)
    attrs.update(projected=bool(res.projected), cond=float(res.cond_gamma))
    return res


def mirror_mse_sweep(rec: Recorder, wl: Workload, master_seed: int):
    """run_mse_sweep with infeasible="project" and the quadrature route.

    Returns ({(method, N): row dict}, kept) where kept holds the first
    ROUTE_GAP_SPECTRA (spectrum, secular, gamma) of each size.
    """
    model = _model(wl)
    L = model.L
    rho = model.rho_array()
    moment_methods = [m for m in wl.methods if m.startswith("moment")]
    rows, kept = {}, []

    for N, M in wl.sizes:
        counts = multiplicities(model, N)
        realized_w = counts / N
        est = {m: np.full((wl.trials, L), np.nan) for m in wl.methods}
        projected = dict.fromkeys(wl.methods, 0)

        for t in range(wl.trials):
            trial = f"{N}x{M}:{t}"
            seed = trial_seed(master_seed, t)
            spectrum, secular = _simulate_and_roots(rec, model, N, M, seed, trial)

            gamma = None
            if moment_methods:
                try:
                    gamma = _quadrature(rec, spectrum, L, secular, trial)
                except _FAILURES as exc:
                    rec.count_failure("moments", exc)
            if gamma is not None and t < ROUTE_GAP_SPECTRA:
                kept.append((spectrum, secular, gamma))

            for method in wl.methods:
                try:
                    if method == "mestre":
                        with rec.span(MESTRE, trial):
                            est[method][t] = mestre_estimate(
                                spectrum, counts, secular
                            )
                    elif gamma is None:
                        pass  # moment estimation failed; row stays NaN
                    elif method == "moment_full":
                        res = _invert(rec, INVERT, invert_moments, trial,
                                      gamma, L, project=True)
                        est[method][t] = res.rho_hat
                        projected[method] += res.projected
                    else:
                        res = _invert(rec, INVERT_KNOWN,
                                      invert_moments_known_multiplicities,
                                      trial, gamma, realized_w, project=True)
                        est[method][t] = res.rho_hat
                        projected[method] += res.projected
                except _FAILURES as exc:
                    rec.count_failure(
                        "mestre" if method == "mestre" else "inversion", exc
                    )

        for method in wl.methods:
            arr = est[method]
            ok = ~np.isnan(arr[:, 0])
            err = arr[ok] - rho
            n_ok = int(ok.sum())
            rows[(method, N)] = {
                "mse_db": float(10.0 * np.log10(np.mean(np.sum(err**2, axis=1))))
                if n_ok else float("nan"),
                "bias": err.mean(axis=0) if n_ok else np.full(L, np.nan),
                "variance": (M * err).var(axis=0, ddof=1)
                if n_ok > 1 else np.full(L, np.nan),
                "failure_count": wl.trials - n_ok,
                "projected_count": projected[method],
            }
    return rows, kept


def mirror_clt_histogram(rec: Recorder, wl: Workload, master_seed: int):
    """run_clt_histogram's covariance set-up, trial loop and statistics.

    Returns (output dict, kept) like mirror_mse_sweep.
    """
    model = _model(wl)
    (N, M), = wl.sizes
    L = model.L
    rho = model.rho_array()
    counts_n = multiplicities(model, N)
    method = wl.methods[0]
    kept = []

    with rec.span(f"clt.{wl.theta}"):
        if method == "moment_full":
            predicted = np.diag(
                theta_moment_estimator(model, nodes=CLT_NODES).Theta
            )[L:]
        else:
            predicted = np.diag(theta_mestre(model, nodes=CLT_NODES))

    dev = np.full((wl.trials, L), np.nan)
    for t in range(wl.trials):
        trial = f"{N}x{M}:{t}"
        seed = trial_seed(master_seed, t)
        spectrum, secular = _simulate_and_roots(rec, model, N, M, seed, trial)
        layer = "mestre"
        try:
            if method == "mestre":
                with rec.span(MESTRE, trial):
                    est = mestre_estimate(spectrum, counts_n, secular)
            else:
                layer = "moments"
                gamma = _quadrature(rec, spectrum, L, secular, trial)
                if t < ROUTE_GAP_SPECTRA:
                    kept.append((spectrum, secular, gamma))
                layer = "inversion"
                est = _invert(rec, INVERT, invert_moments, trial, gamma, L).rho_hat
        except _FAILURES as exc:
            rec.count_failure(layer, exc)
            continue
        dev[t] = M * (est - rho)

    ok = ~np.isnan(dev[:, 0])
    good = dev[ok]
    if good.shape[0] < 2:
        raise errors.ConvergenceError("too few successful trials for a histogram")
    ks = np.empty(L)
    for k in range(L):
        z = (good[:, k] - good[:, k].mean()) / good[:, k].std(ddof=1)
        ks[k] = stats.kstest(z, "norm").statistic
    out = {
        "failure_count": int(wl.trials - ok.sum()),
        "predicted_var": predicted,
        "empirical_var": good.var(axis=0, ddof=1),
        "ks_statistic": ks,
    }
    return out, kept


def run_mirror(rec: Recorder, wl: Workload, master_seed: int):
    """One traced entry-point call under a root span; returns (out, kept)."""
    if wl.command == "mse-sweep":
        with rec.span("experiments.run_mse_sweep"):
            return mirror_mse_sweep(rec, wl, master_seed)
    with rec.span("experiments.run_clt_histogram"):
        return mirror_clt_histogram(rec, wl, master_seed)


def _dev(a, b) -> float:
    """Largest |a - b| / max(1, |b|): absolute near zero, relative above.

    A value that is NaN on one side only counts as a gap of 1, so the
    reading stays a finite number.
    """
    a = np.atleast_1d(np.asarray(a, dtype=float))
    b = np.atleast_1d(np.asarray(b, dtype=float))
    d = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    d[np.isnan(a) != np.isnan(b)] = 1.0
    d[np.isnan(a) & np.isnan(b)] = 0.0
    return float(d.max())


def mirror_deviation(wl: Workload, mirror_out, cli_out) -> float:
    """Largest gap between the mirror's outputs and the CLI's for one call.

    cli_out is the parsed CSV (mse-sweep: {(method, N): row}) or JSON
    (clt-check) of the untraced call with the same master seed.
    """
    if wl.command == "mse-sweep":
        gaps = []
        for key, row in mirror_out.items():
            cli = cli_out[key]
            gaps += [
                _dev(row["mse_db"], cli["mse_db"]),
                _dev(row["bias"], cli["bias"]),
                _dev(row["variance"], cli["var_scaled"]),
                _dev(row["failure_count"], cli["failure_count"]),
                _dev(row["projected_count"], cli["projected_count"]),
            ]
        return max(gaps)
    return max(
        _dev(mirror_out[key], cli_out[key])
        for key in ("failure_count", "predicted_var", "empirical_var",
                    "ks_statistic")
    )


def route_gap(kept, L: int) -> float:
    """Largest relative gap between quadrature and residue moments."""
    gap = 0.0
    for spectrum, secular, gamma in kept:
        resi = moments_by_residues(spectrum, L, secular=secular).gamma_hat
        quad = gamma.gamma_hat
        gap = max(gap, float(np.max(
            np.abs(quad - resi) / np.maximum(np.abs(quad), 1e-12)
        )))
    return gap


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer readings from the spans and failure counts of traced calls."""
    out: dict[str, float] = {}
    for name in LAYERS:
        spans = rec.named(name)
        for stat, value in timing_stats(spans).items():
            out[f"{name}.{stat}"] = value

    residuals = [s.attrs["residual_max"] for s in rec.named(SECULAR)]
    out[f"{SECULAR}.residual_max"] = max(residuals, default=0.0)

    quad = [s.attrs for s in rec.named(QUADRATURE) if "nodes" in s.attrs]
    nodes = np.array([a["nodes"] for a in quad], dtype=float)
    out[f"{QUADRATURE}.nodes_mean"] = float(nodes.mean()) if quad else 0.0
    out[f"{QUADRATURE}.refined_frac"] = (
        float(np.mean(nodes > _START_NODES)) if quad else 0.0
    )
    out[f"{QUADRATURE}.leakage_max"] = max(
        (a["leakage"] for a in quad), default=0.0
    )

    for name in (INVERT, INVERT_KNOWN):
        done = [s.attrs for s in rec.named(name) if "projected" in s.attrs]
        out[f"{name}.projected_frac"] = (
            float(np.mean([a["projected"] for a in done])) if done else 0.0
        )
    conds = [s.attrs["cond"] for s in rec.named(INVERT)
             if np.isfinite(s.attrs.get("cond", np.nan))]
    out[f"{INVERT}.cond_p50"] = float(np.median(conds)) if conds else 0.0

    for layer in FAILURE_LAYERS:
        for cls in TRIAL_FAILURES:
            key = f"{layer}.failures.{cls}"
            out[key] = rec.failures.get(key, 0)

    # the root span is the traced entry-point call; its self time is the
    # harness's own work once the covariance set-up and layer calls are out
    selfs = self_times(rec.spans)
    roots = [s for s in rec.spans if s.parent is None]
    root_s = sum(s.duration for s in roots)
    out["experiments.self_s"] = sum(selfs[s.span_id] for s in roots)
    root_ids = {s.span_id for s in roots}
    children = sum(s.duration for s in rec.spans if s.parent in root_ids)
    out["trace.accounted_frac"] = (out["experiments.self_s"] + children) / root_s
    return out
