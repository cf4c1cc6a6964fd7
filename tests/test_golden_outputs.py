"""Output-drift gate: short Monte Carlo runs against committed goldens.

Each cell of tests/golden_outputs.py is rerun through `run_mse_sweep` or
`run_clt_histogram`, serially and with forked workers taking small chunks,
and every per-trial output must match the committed value to 1e-12
relative. The acceptance bounds (2 dB, 15% of a variance) would not notice
an estimator that drifted by 1e-6; this gate does. The tolerance is not
bitwise because another BLAS build may round differently; a deliberate
change of outputs regenerates the file with `python tests/golden_outputs.py`.
"""

from __future__ import annotations

import numpy as np
import pytest

from coveig import experiments
from golden_outputs import CELLS, read_golden, run_cell

GOLDEN = read_golden()
RTOL = 1e-12


def test_golden_file_covers_every_cell():
    assert set(GOLDEN) == set(CELLS)


@pytest.mark.parametrize("workers", ["serial", "forked"])
@pytest.mark.parametrize("name", sorted(CELLS))
def test_outputs_match_the_golden(monkeypatch, name, workers):
    if workers == "serial":
        monkeypatch.setattr(experiments, "_cpus", lambda: 1)
    else:
        # two forked takers and one-trial chunks, whatever this machine has
        monkeypatch.setattr(experiments, "_cpus", lambda: 2)
        monkeypatch.setattr(experiments, "_PARALLEL_MIN_S", 0.0)
        monkeypatch.setattr(experiments, "_CHUNK_MIN_S", 0.0)
    cell = CELLS[name]
    got = run_cell(cell)
    want = GOLDEN[name]
    assert set(got) == set(want)
    for key, expected in want.items():
        value = np.atleast_2d(got[key])
        if key == "deviations":
            # M (rho_hat - rho) cancels rho_hat's leading digits; compare the
            # estimates it came from
            rho = np.asarray(cell["model"]["rho"])
            value, expected = (rho + v / cell["M"] for v in (value, expected))
        assert value.shape == expected.shape, key
        assert np.array_equal(np.isnan(value), np.isnan(expected)), key
        ok = ~np.isnan(expected)
        gap = np.abs(value[ok] - expected[ok]) / np.abs(expected[ok])
        assert gap.max(initial=0.0) <= RTOL, f"{name} {key}: {gap.max():.3e}"
