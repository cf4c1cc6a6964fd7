"""The row kernels of the sampling, moment and inversion layers against
their one-row calls.

simulate_rows, secular_rows, quadrature_rows, residue_rows, invert_rows,
invert_known_rows and mestre_rows take a stack of trials of one (N, M);
simulate_spectrum, secular_zeros, moments_by_quadrature,
moments_by_residues, invert_moments, invert_moments_known_multiplicities
and mestre_estimate are their one-row calls (secular_rows' rows are
prefixes of secular_zeros'). Every row of a block must equal the one-row
call on that trial alone, bit for bit, or carry the error class and message
that call raises.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from coveig import (
    CoveigError,
    DimensionError,
    InputError,
    PopulationModel,
    invert_moments,
    invert_moments_known_multiplicities,
    mestre_estimate,
    moments_by_quadrature,
    moments_by_residues,
    multiplicities,
    secular_zeros,
    simulate_spectrum,
    trial_seed,
)
from coveig import ensemble, experiments, inversion, mestre, moments
from coveig.empirical import secular_rows
from coveig.ensemble import _trial_seeds, padded_spectrum, simulate_rows
from coveig.inversion import invert_known_rows, invert_rows
from coveig.mestre import mestre_rows
from coveig.moments import quadrature_rows, residue_rows
from reference_draws import bartlett_eigenvalues, sfc64_generator


def _bits(value) -> tuple:
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def _outcome(call):
    """The bits of call()'s fields, or its error class and message."""
    try:
        return call()
    except CoveigError as exc:
        return type(exc), str(exc)


def _row(errors, t, fields):
    if errors[t] is not None:
        return type(errors[t]), str(errors[t])
    return tuple(_bits(f[t]) for f in fields)


def _mismatches(block, single) -> list:
    """Indices t where row t of the block differs from the one-row call."""
    return [t for t, (a, b) in enumerate(zip(block, single)) if a != b]


def _check(block, single):
    assert len(block) == len(single)
    assert _mismatches(block, single) == []
    # the comparison is row by row: two distinct rows swapped must show
    distinct = [t for t in range(1, len(block)) if block[t] != block[0]]
    if distinct:
        swapped = list(block)
        t = distinct[0]
        swapped[0], swapped[t] = swapped[t], swapped[0]
        assert _mismatches(swapped, single) == [0, t]


SHAPES = {"wide": (24, 60), "square": (30, 30), "tall": (40, 20)}


@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 10**6),
    shape=st.sampled_from(sorted(SHAPES)),
    L=st.integers(1, 5),
    project=st.booleans(),
    size=st.sampled_from([1, 7, 25]),
    nodes=st.sampled_from([None, 16, 32]),
    spoil=st.booleans(),
)
def test_block_rows_equal_one_row_calls(seed, shape, L, project, size, nodes,
                                        spoil):
    N, M = SHAPES[shape]
    model = PopulationModel(rho=tuple(2.0**k for k in range(L)),
                            weights=(1.0 / L,) * L, aspect=N / M)
    spectra = [simulate_spectrum(model, N, M, trial_seed(seed, t))
               for t in range(size)]
    pos = np.stack([sp.positive_eigenvalues() for sp in spectra])

    # moments: each row's ellipse as the quadrature runs it, or capped at
    # one rule of a node count that may be too small, which must fail row
    # by row
    def one_moment(t):
        est = moments_by_quadrature(spectra[t], L)
        return tuple(_bits(f) for f in
                     (est.gamma_hat, est.imag_leakage, est.node_count))

    start, doublings = ((moments._START_NODES, moments._MAX_DOUBLINGS)
                        if nodes is None else (nodes, 0))
    with mock.patch.object(moments, "_START_NODES", start), \
            mock.patch.object(moments, "_MAX_DOUBLINGS", doublings):
        gamma, leakage, count, errors = quadrature_rows(pos, N, M, L)
        single = [_outcome(lambda: one_moment(t)) for t in range(size)]
    _check([_row(errors, t, (gamma, leakage, count)) for t in range(size)],
           single)

    # the residue route refuses no row
    residues = residue_rows(pos, N, M, L)
    _check([_bits(row) for row in residues],
           [_bits(moments_by_residues(sp, L).gamma_hat) for sp in spectra])

    # inversions on every row the moments gave, plus an unusable one
    stack = np.array([gamma[t] for t in range(size) if errors[t] is None]
                     or [np.ones(2 * L)])
    if spoil:
        stack[0, -1] = np.nan

    def fields(res):
        return tuple(_bits(f) for f in (
            res.rho_hat, res.c_hat, res.cond_gamma, res.weight_residuals,
            res.projected))

    def block_rows(rows):
        return [_row(rows.errors, t, (
            rows.rho_hat, rows.c_hat, rows.cond_gamma, rows.weight_residuals,
            rows.projected)) for t in range(len(stack))]

    full = invert_rows(stack, L, project)
    _check(block_rows(full), [
        _outcome(lambda: fields(invert_moments(g, L, project=project)))
        for g in stack])
    weights = model.weights_array()
    known = invert_known_rows(stack, weights, project)
    _check(block_rows(known), [
        _outcome(lambda: fields(invert_moments_known_multiplicities(
            g, weights, project=project)))
        for g in stack])


@pytest.mark.parametrize("N,M", [(24, 60), (30, 30), (42, 21), (9, 3)])
def test_mestre_rows_equal_one_row_calls(N, M):
    # N < M, N = M and N > M, where lambda_hat leads with N - M zeros; each
    # row against the one-row call and against one spectrum's sums of
    # lambda_hat - mu_hat below the block boundaries, taken as 1-D sums
    # over the first N - N_L roots and closed by the trace
    model = PopulationModel(rho=(1.0, 3.0, 10.0), weights=(1 / 3,) * 3,
                            aspect=N / M)
    counts = multiplicities(model, N)
    ends = np.cumsum(counts)
    need = N - counts[-1]
    seeds = [trial_seed(N + M, t) for t in range(25)]
    stack = simulate_rows(model, N, M, seeds)
    rows = mestre_rows(stack, N, M, counts)
    assert rows.shape == (25, 3)
    # rows whose clusters separate are integrated on cluster ellipses, and
    # agree with the root sums to rounding; the others sum the roots
    contour = (set(mestre._contour_rows(stack, N, M, np.asarray(counts))[0])
               if M > N else set())
    for t, seed in enumerate(seeds):
        spectrum = simulate_spectrum(model, N, M, seed)
        assert _bits(rows[t]) == _bits(mestre_estimate(spectrum, counts))
        diff = spectrum.lambda_hat - secular_zeros(spectrum).mu_hat
        sums = [M / (b - a) * diff[a:b].sum()
                for a, b in zip(ends - counts, ends)]
        below = M / N * np.cumsum(diff[:need])[ends[:-1] - 1]
        gamma_1 = stack[t].sum() / N
        prefix = N / counts * np.diff(below, prepend=0.0, append=gamma_1)
        if t in contour:
            np.testing.assert_allclose(rows[t], sums, rtol=1e-12, atol=0)
        else:
            assert _bits(rows[t]) == _bits(prefix)
            np.testing.assert_allclose(rows[t], sums, rtol=1e-13, atol=0)


@pytest.mark.parametrize("N,M", [(24, 60), (30, 30), (42, 21)])
def test_secular_rows_equal_prefixes_of_secular_zeros(N, M):
    # row 1 repeats an eigenvalue three times, at pos[5:8]: pos[5] opens
    # the group, a root below it, and its two copies are roots at the
    # shared value, at entries N - n + 6 and N - n + 7; count N - n + 7
    # splits them
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=N / M)
    stack = simulate_rows(model, N, M, range(4))
    stack[1, 5:8] = stack[1, 6]
    shift = N - min(N, M)
    for count in (0, 1, shift + 1, shift + 6, shift + 7, N // 2, N):
        block = secular_rows(stack, N, M, count)
        assert [field.shape for field in block] == [(4, count), (4, count, 2)]
        for t, row in enumerate(stack):
            roots = secular_zeros(padded_spectrum(row, N, M, 0))
            assert [_bits(field[t]) for field in block] == [
                _bits(field[:count]) for field in (roots.mu_hat, roots.brackets)]
    # the group's copies are placed, not solved
    roots = secular_zeros(padded_spectrum(stack[1], N, M, 0))
    copies = roots.mu_hat[shift + 6:shift + 8]
    assert np.all(copies == stack[1, 6])
    assert np.all(roots.residuals[shift + 6:shift + 8] == 0)


@pytest.mark.parametrize("N,M", [(4, 8), (4, 4), (6, 4)])
def test_mestre_rows_with_repeated_eigenvalues(N, M):
    # a repeated eigenvalue is itself a root; rows with and without repeats
    # share a stack
    pos = np.array([[1.0, 2.0, 2.0, 5.0], [1.0, 2.0, 3.0, 5.0],
                    [0.5, 0.5, 0.5, 4.0]])
    counts = [N // 2, N - N // 2]
    rows = mestre_rows(pos, N, M, counts)
    for t, row in enumerate(pos):
        spectrum = padded_spectrum(row, N, M, 0)
        assert _bits(rows[t]) == _bits(mestre_estimate(spectrum, counts))


@pytest.mark.parametrize("counts,error", [
    ([8, 8, 0], InputError), ([[8, 8]], InputError), ([8, 9], DimensionError),
])
def test_mestre_rows_reject_bad_counts_for_the_stack(counts, error):
    # checked once: the whole stack raises what the one-row call raises
    model = PopulationModel(rho=(1.0, 3.0), weights=(0.5, 0.5), aspect=0.4)
    pos = simulate_rows(model, 16, 40, range(5))
    with pytest.raises(error) as exc:
        mestre_rows(pos, 16, 40, counts)
    assert _outcome(lambda: mestre_estimate(
        simulate_spectrum(model, 16, 40, 0), counts)) == (error, str(exc.value))


def _one_seed_draw(model, N, M, seed, gram_only=False):
    """simulate_spectrum's documented steps for one seed on fresh buffers,
    the reference every kernel row must equal (`bartlett_eigenvalues`)."""
    return bartlett_eigenvalues(model, N, M, sfc64_generator(seed),
                                gram_only)


SAMPLING_SHAPES = [(24, 60), (30, 30), (40, 20), (70, 140), (1, 9), (9, 1),
                   (1, 1)]


@pytest.mark.parametrize("N,M", SAMPLING_SHAPES)
def test_simulate_rows_equal_one_seed_draws(N, M):
    # N < M, N = M and N > M (the zherk block), and a single row or column,
    # where there is no off-diagonal to reduce
    L = min(N, 3)
    model = PopulationModel(rho=(1.0, 2.0, 4.0)[:L], weights=(1 / L,) * L,
                            aspect=N / M)
    for size in (1, 7, 25):
        seeds = [trial_seed(size, t) for t in range(size)]
        rows = simulate_rows(model, N, M, seeds)
        assert rows.shape == (size, min(N, M))
        # the trial path derives the same seeds in one array pass
        assert _trial_seeds(size, np.arange(size)).tolist() == seeds
        for t, seed in enumerate(seeds):
            reference = _bits(_one_seed_draw(model, N, M, seed))
            assert _bits(rows[t]) == reference
            spectrum = simulate_spectrum(model, N, M, seed)
            assert _bits(spectrum.positive_eigenvalues()) == reference


@pytest.mark.parametrize("N,M", SAMPLING_SHAPES)
def test_simulate_rows_match_eigvalsh(N, M):
    # numpy's eigvalsh runs zheevd, zhetrd then dsterf, from the OpenBLAS
    # numpy bundles; scipy bundles its own build, so the two agree to a few
    # ulps of lambda_max rather than bit for bit everywhere
    L = min(N, 3)
    model = PopulationModel(rho=(1.0, 2.0, 4.0)[:L], weights=(1 / L,) * L,
                            aspect=N / M)
    seeds = [trial_seed(11, t) for t in range(7)]
    rows = simulate_rows(model, N, M, seeds)
    for t, seed in enumerate(seeds):
        gram = _one_seed_draw(model, N, M, seed, gram_only=True)
        expected = np.clip(np.linalg.eigvalsh(gram), 0.0, None)
        tol = 8 * np.finfo(float).eps * expected[-1]
        assert np.abs(rows[t] - expected).max() <= tol


def test_block_memory_is_bounded():
    # the largest chunk the trial plan hands out, as in a serial 1000-trial
    # call at 150 x 400, runs as one block. The eigensolve reuses one
    # n x n buffer and the companion transform runs in slices; whole, its
    # (64, 64, 150) complex temporary on the upper half of the nodes would
    # take 9.8 MB
    n = 1000
    start, chunks = 1, []
    while start < n:
        end = experiments._chunk_end(start, n, 1, 1, n)
        chunks.append(end - start)
        start = end
    largest = max(chunks)
    model = PopulationModel(rho=(1.0, 3.0, 5.0), weights=(1 / 3,) * 3,
                            aspect=0.375)
    counts = multiplicities(model, 150)
    seeds = _trial_seeds(2026, np.arange(largest))
    methods = ("moment_full", "moment_known_mult")
    experiments._trials(model, 150, 400, counts, seeds[:1], methods)
    tracemalloc.start()
    try:
        block = experiments._trials(model, 150, 400, counts, seeds, methods)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(block["estimates"]) == largest
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"


# one moment vector per screen of the inversions, L = 2. The atoms 1 and 3
# with equal weights have the moments 1, 2, 5, 14; each other row fails one
# screen, or, projected, is clipped onto the feasible set instead
FULL_SCREENS = {
    "estimated": ([1.0, 2.0, 5.0, 14.0], None),
    "estimated, moved": ([1.0, 2.1, 5.3, 15.1], None),
    "non-finite": ([1.0, np.nan, 5.0, 14.0], "non-finite"),
    "infinite": ([1.0, 2.0, np.inf, 14.0], "non-finite"),
    "gamma_0": ([1.5, 2.0, 5.0, 14.0], "gamma_0 must be 1"),
    "vanishing": ([1.0, 0.0, 0.0, 0.0], "vanish"),
    "one atom": ([1.0, 2.0, 4.0, 8.0], "condition"),
    "complex roots": ([1.0, 1.0, 0.5, -1.0], "imaginary parts"),
    "non-positive root": ([1.0, 0.0, 1.0, 0.0], "non-positive"),
    "double root": ([1.0, 2.0, 3.0, 4.0], "nearly coincide"),
    "weights": ([1.0, 3.6, 11.4, 34.8], "fall outside"),
}
# gamma_0 .. gamma_2 suffice for the known weights (1/2, 1/2)
KNOWN_SCREENS = {
    "estimated": ([1.0, 2.0, 5.0], None),
    "estimated, moved": ([1.0, 2.1, 5.3], None),
    "non-finite": ([1.0, np.nan, 5.0], "non-finite"),
    "gamma_0": ([0.5, 2.0, 5.0], "gamma_0 must be 1"),
    "vanishing": ([1.0, 0.0, 0.0], "vanish"),
    "complex roots": ([1.0, 1.0, 0.5], "imaginary parts"),
    "non-positive root": ([1.0, 0.0, 1.0], "non-positive"),
    "double root": ([1.0, 2.0, 4.0], "nearly coincide"),
}
# screens a projection passes instead, and the rows it flags as projected:
# a double root is real and positive, so nothing moves it
PASSED = {"complex roots", "non-positive root", "double root", "weights"}
PROJECTED = {"complex roots", "non-positive root", "weights"}


def _screen_stack(screens, T: int) -> list:
    """The names of a T-row stack holding every screen's row, in a fixed
    shuffled order."""
    names = (list(screens) * T)[:max(T, len(screens))]
    return [names[t] for t in np.random.default_rng(T).permutation(len(names))]


@pytest.mark.parametrize("kernel", ["full", "known"])
@pytest.mark.parametrize("project", [False, True])
@pytest.mark.parametrize("T", [1, 5, 64])
def test_mixed_failure_stacks_equal_one_row_calls(kernel, project, T):
    # every screen fails at least one row of the rows stacked in blocks of
    # T; each row must keep the bits, error class and message of its
    # one-row call, so skipping a screen that no row fails must not skip
    # it for a block where one does
    screens = FULL_SCREENS if kernel == "full" else KNOWN_SCREENS
    names = _screen_stack(screens, 64)
    assert set(names) == set(screens)
    weights = np.array([0.5, 0.5])

    def fields(res):
        return tuple(_bits(f) for f in (
            res.rho_hat, res.c_hat, res.cond_gamma, res.weight_residuals,
            res.projected))

    def one_row(gamma):
        if kernel == "full":
            return _outcome(lambda: fields(
                invert_moments(gamma, 2, project=project)))
        return _outcome(lambda: fields(invert_moments_known_multiplicities(
            gamma, weights, project=project)))

    single = {name: one_row(np.array(screens[name][0])) for name in screens}
    for name, (_, message) in screens.items():
        outcome = single[name]
        if message is None or project and name in PASSED:
            assert outcome[-1] == _bits(project and name in PROJECTED), name
        else:
            assert issubclass(outcome[0], CoveigError), name
            assert message in outcome[1], (name, outcome)
    for start in range(0, len(names), T):
        block = names[start:start + T]
        stack = np.array([screens[name][0] for name in block])
        with mock.patch.object(np.linalg, "solve",
                               wraps=np.linalg.solve) as solve:
            rows = (invert_rows(stack, 2, project) if kernel == "full"
                    else invert_known_rows(stack, weights, project))
        # the Newton system of a projected double root is exactly singular,
        # so the stacked solve raises and each row is solved on its own, a
        # 2-D call; no other row makes the retry run
        retried = any(call.args[0].ndim == 2 for call in solve.call_args_list)
        assert retried == (kernel == "full" and project
                           and "double root" in block)
        _check([_row(rows.errors, t, (
            rows.rho_hat, rows.c_hat, rows.cond_gamma, rows.weight_residuals,
            rows.projected)) for t in range(len(block))],
               [single[name] for name in block])

