"""Fuzz gate of the command line: random config and model documents and
random observation-file bytes, at tiny sizes, through `cli.main` in process.

Every call must exit 0, or exit 1 with one `error:` line on stderr; any
other exception, RuntimeWarnings included, escapes the gate.
"""

from __future__ import annotations

import contextlib
import io
import json
import struct
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from coveig import cli

GOOD = {"rho": [1.0, 3.0], "weights": [0.5, 0.5], "aspect": 0.5}
FUZZ = settings(max_examples=60, deadline=None, derandomize=True,
                suppress_health_check=[HealthCheck.function_scoped_fixture])

# a value of the wrong kind or out of range for any field; its integral
# values are negative, zero or beyond any array, so that no example asks
# for a large run
JUNK = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([-2**70, -1, 0, 2**70, -2.5, 0.5, 1e300, float("nan"),
                     float("inf"), -float("inf")]),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=1))


@st.composite
def _mutated(draw, document: dict) -> object:
    """document as it is, with one field replaced by junk or dropped, or
    junk outright."""
    kind = draw(st.sampled_from(["good", "good", "field", "drop", "junk"]))
    if kind == "junk":
        return draw(JUNK)
    if kind != "good":
        key = draw(st.sampled_from(sorted(document)))
        if kind == "field":
            document[key] = draw(JUNK)
        else:
            del document[key]
    return document


@st.composite
def _model(draw):
    L = draw(st.integers(1, 3))
    rho = sorted(draw(st.sets(st.sampled_from([0.5, 1.0, 2.0, 3.0, 10.0, 1e3]),
                              min_size=L, max_size=L)))
    return draw(_mutated({"rho": rho, "weights": [1.0 / L] * L,
                          "aspect": draw(st.floats(0.05, 3.0))}))


SIZE = st.integers(-1, 12)
METHOD = st.sampled_from(["moment_full", "moment_known_mult", "mestre"])


@st.composite
def _sweep(draw):
    doc = {"model": draw(_model()), "trials": draw(st.integers(0, 3)),
           "master_seed": draw(st.integers(-1, 2**64)),
           "methods": draw(st.lists(METHOD, min_size=1, max_size=3)),
           "infeasible": draw(st.sampled_from(["exclude", "project"])),
           "moment_route": draw(st.sampled_from(["quadrature", "residues"]))}
    if draw(st.booleans()):
        doc["sizes"] = draw(st.lists(st.tuples(SIZE, SIZE), max_size=2))
    else:
        doc["N"] = draw(st.lists(SIZE, max_size=2))
    return draw(_mutated(doc))


@st.composite
def _clt(draw):
    return draw(_mutated({
        "model": draw(_model()), "N": draw(SIZE), "M": draw(SIZE),
        "trials": draw(st.integers(0, 3)),
        "master_seed": draw(st.integers(-1, 2**64)),
        "method": draw(st.sampled_from(["moment_full", "mestre"])),
        "bins": draw(st.integers(-1, 5))}))


@st.composite
def _observations(draw):
    """Observation-file bytes: raw bytes, or the magic, a header and a
    payload of moderate or extreme floats, of the right size, the wrong
    one, or cut short."""
    kind = draw(st.sampled_from(["raw", "good", "good", "size", "cut"]))
    if kind == "raw":
        return draw(st.binary(max_size=64))
    N, M = draw(st.integers(-1, 6)), draw(st.integers(-1, 6))
    header = b"COVEIG01" + struct.pack("<qqq", N, M, draw(st.integers(-1, 9)))
    count = 2 * max(N, 0) * max(M, 0) + (kind == "size") * draw(
        st.sampled_from([-1, 1]))
    values = draw(st.lists(st.floats(-4.0, 4.0) | st.floats(width=64),
                           min_size=max(count, 0), max_size=max(count, 0)))
    data = header + struct.pack(f"<{len(values)}d", *values)
    return data[:draw(st.integers(0, len(data)))] if kind == "cut" else data


def _file(N: int, M: int, values) -> bytes:
    return b"COVEIG01" + struct.pack(f"<qqq{len(values)}d", N, M, 0, *values)


def _document(value) -> str:
    # json.dumps writes NaN and Infinity, which json.load reads back
    return value if isinstance(value, str) else json.dumps(value)


def _run(argv) -> None:
    """cli.main(argv) exits 0, or 1 with an `error:` line on stderr."""
    err = io.StringIO()
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            status = cli.main(argv)
    lines = err.getvalue().splitlines()
    assert status == 0 or (status == 1 and lines
                           and lines[-1].startswith("error:")), (status, lines)


# each @example below is an escape the gate found, now an `error:` line
@FUZZ
@given(doc=_model(), N=st.integers(-1, 8), M=st.integers(-1, 8),
       seed=st.integers(-1, 2**64))
@example(doc=GOOD, N=2, M=2, seed=2**63)  # above int64: the header's uint64
def test_simulate_fails_cleanly(tmp_path, doc, N, M, seed):
    model = tmp_path / "model.json"
    model.write_text(_document(doc))
    _run(["simulate", "--model", str(model), "--N", str(N), "--M", str(M),
          "--seed", str(seed), "--out", str(tmp_path / "obs.bin")])


@FUZZ
@given(data=_observations(), doc=_model(), L=st.integers(1, 3),
       method=st.sampled_from(["full", "known-mult", "mestre"]),
       route=st.sampled_from(["quadrature", "residues"]),
       project=st.booleans())
@example(data=_file(2, 2, [float("inf")] * 8), doc=GOOD, L=2, method="full",
         route="quadrature", project=False)  # non-finite observations
@example(data=_file(2, 2, [1e300] * 8), doc=GOOD, L=2, method="full",
         route="quadrature", project=False)  # an overflowing Gram matrix
@example(data=_file(2, 3, [1e100] * 12), doc=GOOD, L=2, method="full",
         route="residues", project=False)  # overflowing moments
def test_estimate_fails_cleanly(tmp_path, data, doc, L, method, route, project):
    obs, model = tmp_path / "obs.bin", tmp_path / "model.json"
    obs.write_bytes(data)
    model.write_text(_document(doc))
    _run(["estimate", "--obs", str(obs), "--model", str(model), "--L", str(L),
          "--method", method, "--route", route,
          "--json", str(tmp_path / "out.json")]
         + ["--project"] * project)


@FUZZ
@given(doc=_model())
def test_density_fails_cleanly(tmp_path, doc):
    model = tmp_path / "model.json"
    model.write_text(_document(doc))
    _run(["density", "--model", str(model), "--out-csv",
          str(tmp_path / "density.csv"), "--out-json",
          str(tmp_path / "density.json")])


@FUZZ
@given(doc=_sweep())
@example(doc={"model": GOOD, "sizes": [[4, 8]], "trials": 1,
              "methods": ["mestre", "mestre"]})
@example(doc={"model": GOOD, "sizes": [[1, 2**70]], "trials": 1})
@example(doc={"model": GOOD, "sizes": [[4, 8]], "trials": 2**70})
def test_mse_sweep_fails_cleanly(tmp_path, doc):
    config = tmp_path / "sweep.json"
    config.write_text(_document(doc))
    _run(["mse-sweep", "--config", str(config), "--out-csv",
          str(tmp_path / "sweep.csv")])


@FUZZ
@given(doc=_clt())
@example(doc={"model": {"rho": [0.5, 1.0], "weights": [0.5, 0.5],
                        "aspect": 0.0625},
              "N": 2, "M": 1, "trials": 2, "method": "mestre"})  # no spread
@example(doc={"model": GOOD, "N": 1, "M": 2**70, "trials": 1})
def test_clt_check_fails_cleanly(tmp_path, doc):
    config = tmp_path / "clt.json"
    config.write_text(_document(doc))
    _run(["clt-check", "--config", str(config), "--json",
          str(tmp_path / "clt.json.out")])
