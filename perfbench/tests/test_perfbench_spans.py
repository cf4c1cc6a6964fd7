import pytest

from perfbench.mirror import layer_metrics
from perfbench.spans import Recorder, Span, covered_length, self_times, timing_stats


def _span(i, start, end, parent=None, name="x"):
    return Span(i, name, start, end, parent, None)


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([], 0.0, 10.0) == 0.0
    assert covered_length([(1, 3), (2, 5), (7, 8)], 0.0, 10.0) == 5.0
    assert covered_length([(-2, 1), (9, 12)], 0.0, 10.0) == 2.0
    assert covered_length([(11, 12)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_only_direct_children():
    spans = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: inside its parent
        _span(3, 6.0, 8.5, parent=0),
    ]
    selfs = self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 2.5)
    assert selfs[1] == pytest.approx(2.0)
    assert selfs[2] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(2.5)


def test_self_time_counts_overlapping_children_once():
    spans = [_span(0, 0.0, 4.0), _span(1, 0.5, 2.5, 0), _span(2, 1.5, 3.0, 0)]
    assert self_times(spans)[0] == pytest.approx(4.0 - 2.5)


def test_timing_stats():
    spans = [_span(i, 0.0, d) for i, d in enumerate((0.001, 0.002, 0.003))]
    st = timing_stats(spans)
    assert st["calls"] == 3
    assert st["busy_s"] == pytest.approx(0.006)
    assert st["ms_p50"] == pytest.approx(2.0)
    assert 2.0 < st["ms_p99"] <= 3.0
    assert timing_stats([])["calls"] == 0


def test_recorder_nests_spans_and_tags_errors():
    rec = Recorder()
    with rec.span("root"):
        with rec.span("ensemble.simulate_spectrum", trial="t0") as attrs:
            attrs["n"] = 1
        with pytest.raises(ValueError):
            with rec.span("mestre.mestre_estimate", trial="t0"):
                raise ValueError("boom")
    root, sim, est = rec.spans
    assert root.parent is None and sim.parent == 0 and est.parent == 0
    assert sim.trial == "t0" and sim.attrs == {"n": 1}
    assert est.attrs["error"] == "ValueError"
    assert root.start <= sim.start <= sim.end <= est.start <= root.end


def test_layer_metrics_account_for_the_root_span():
    rec = Recorder()
    rec.spans = [
        _span(0, 0.0, 10.0, name="experiments.run_clt_histogram"),
        _span(1, 0.0, 4.0, 0, name="clt.theta_mestre"),
        _span(2, 4.0, 6.0, 0, name="ensemble.simulate_spectrum"),
        _span(3, 6.0, 7.0, 0, name="mestre.mestre_estimate"),
    ]
    rec.spans[2].attrs = {}
    out = layer_metrics(rec)
    assert out["experiments.self_s"] == pytest.approx(3.0)
    assert out["ensemble.simulate_spectrum.busy_s"] == pytest.approx(2.0)
    assert out["mestre.mestre_estimate.calls"] == 1
    assert out["trace.accounted_frac"] == pytest.approx(1.0)
