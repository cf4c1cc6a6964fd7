"""The row kernels of the sampling, moment and inversion layers against
their one-row calls.

simulate_rows, quadrature_rows, invert_rows and invert_known_rows take a
stack of trials of one (N, M); simulate_spectrum, moments_by_quadrature,
invert_moments and invert_moments_known_multiplicities are their one-row
calls. Every row of a block must equal the one-row call on that trial
alone, bit for bit, or carry the error class and message that call raises.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import blas, lapack

from coveig import (
    CoveigError,
    PopulationModel,
    invert_moments,
    invert_moments_known_multiplicities,
    moments_by_quadrature,
    multiplicities,
    secular_zeros,
    simulate_spectrum,
    trial_seed,
)
from coveig import ensemble, experiments
from coveig.contours import Contour, spectrum_ellipse
from coveig.ensemble import simulate_rows
from coveig.inversion import invert_known_rows, invert_rows
from coveig.moments import quadrature_rows


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

    # moments: each row's default contour, or a fixed ellipse of its shape
    # at a node count that may be too small, which must fail row by row
    if nodes is None:
        ellipse, contours = None, [None] * size
        gamma, leakage, count, errors = quadrature_rows(pos, N, M, L)
    else:
        ellipse = spectrum_ellipse(pos[:, -1])
        contours = [Contour(*(float(v[t]) for v in ellipse), nodes)
                    for t in range(size)]
        gamma, leakage, count, errors = quadrature_rows(pos, N, M, L, ellipse,
                                                        nodes)

    def one_moment(t):
        est = moments_by_quadrature(spectra[t], L, contour=contours[t],
                                    secular=secular_zeros(spectra[t])
                                    if contours[t] else None)
        return tuple(_bits(f) for f in
                     (est.gamma_hat, est.imag_leakage, est.node_count))

    _check([_row(errors, t, (gamma, leakage, count)) for t in range(size)],
           [_outcome(lambda: one_moment(t)) for t in range(size)])

    # inversions on every row the moments gave, plus an unusable one
    stack = np.array([gamma[t] for t in range(size) if errors[t] is None]
                     or [np.ones(2 * L)])
    if spoil:
        stack[0, -1] = np.nan

    def fields(res):
        return tuple(_bits(f) for f in (
            res.rho_hat, res.c_hat, res.cond_gamma, res.poly_residuals,
            res.weight_residuals, res.projected))

    def block_rows(rows):
        return [_row(rows.errors, t, (
            rows.rho_hat, rows.c_hat, rows.cond_gamma, rows.poly_residuals,
            rows.weight_residuals, rows.projected)) for t in range(len(stack))]

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


def _one_seed_draw(model, N, M, seed):
    """simulate_spectrum's documented steps for one seed on fresh buffers,
    with one eigvalsh call: the reference every kernel row must equal."""
    scale = (np.sqrt(np.repeat(model.rho_array(), multiplicities(model, N)))
             / np.sqrt(M))
    n = min(N, M)
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    factor = np.zeros((N, n), dtype=np.complex128, order="F")
    i = np.arange(n)
    factor[i, i] = np.sqrt(rng.standard_gamma(M - i))
    below = np.tri(N, n, -1, dtype=bool)
    draws = rng.standard_normal(2 * int(below.sum()))
    draws *= np.sqrt(0.5)
    factor[below] = draws.view(np.complex128)
    factor *= scale[:, None]
    gram, _ = lapack.zlauum(factor[:n], lower=1, overwrite_c=1)
    if N > n:
        gram = blas.zherk(1.0, factor[n:], beta=1.0, c=gram, trans=2,
                          lower=1, overwrite_c=1)
    return np.clip(np.linalg.eigvalsh(gram), 0.0, None)


@pytest.mark.parametrize("N,M", [(24, 60), (30, 30), (40, 20), (70, 140)])
def test_simulate_rows_equal_one_seed_draws(N, M):
    # N < M, N = M and N > M (the zherk block); at 70 x 140 one eigvalsh
    # call takes 13 Gram matrices, so the block of 25 runs in slices
    model = PopulationModel(rho=(1.0, 2.0, 4.0), weights=(1 / 3,) * 3,
                            aspect=N / M)
    for size in (1, 7, 25):
        seeds = [trial_seed(size, t) for t in range(size)]
        rows = simulate_rows(model, N, M, seeds)
        assert rows.shape == (size, min(N, M))
        for t, seed in enumerate(seeds):
            reference = _bits(_one_seed_draw(model, N, M, seed))
            assert _bits(rows[t]) == reference
            spectrum = simulate_spectrum(model, N, M, seed)
            assert _bits(spectrum.positive_eigenvalues()) == reference
    assert ensemble._EIG_SLICE_ENTRIES // 70**2 < 25


def test_block_memory_is_bounded():
    # the largest chunk the trial plan hands out, as in a serial 1000-trial
    # call at 150 x 400, runs as one block. The eigensolve and the
    # companion transform run in slices; whole, each (64, 128, 150) complex
    # temporary of the transform would take 19.7 MB
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
    seeds = [trial_seed(2026, t) for t in range(largest)]
    methods = ("moment_full", "moment_known_mult")
    experiments._trials(model, 150, 400, counts, seeds[:1], methods)
    tracemalloc.start()
    try:
        block = experiments._trials(model, 150, 400, counts, seeds, methods)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(block) == largest
    assert peak <= 4 * 2**20, f"peak {peak / 2**20:.1f} MB"
