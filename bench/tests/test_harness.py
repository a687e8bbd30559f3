"""Checks of the benchmark harness's own arithmetic and tracing.

    PYTHONPATH=src python -m pytest -q bench/tests
"""

import json
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from calc import conv_cost, fc_cost, percentile, quartile_spread  # noqa: E402
from tracing import (Span, Tracer, children_of, selected_planes, self_time,  # noqa: E402
                     useful_conv_flops)
from workloads import WORKLOADS  # noqa: E402

from wavescat import flops, pipeline, scattering, synth  # noqa: E402
from wavescat.filters import SCALE, make_filter_pair, make_kernel2d  # noqa: E402


def test_percentile_matches_numpy_linear_rule():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 10, 101):
        xs = list(rng.normal(size=n))
        for q in (0, 10, 25, 50, 90, 99, 100):
            assert percentile(xs, q) == pytest.approx(np.percentile(xs, q), abs=1e-12)


def test_percentile_by_hand_and_rejects_bad_input():
    assert percentile([4, 1, 3, 2], 50) == 2.5
    assert percentile([1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11], 90) == 10
    assert percentile([7], 90) == 7
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1, 2], 101)


def test_quartile_spread_is_iqr_over_median():
    # statistics.quantiles([1..9], n=4) -> 2.5, 5, 7.5
    assert quartile_spread(range(1, 10)) == pytest.approx(5.0 / 5.0)
    assert quartile_spread([10.0] * 10) == 0.0


def test_conv_cost_matches_flops_model_and_array_bytes():
    rng = np.random.default_rng(1)
    for basis in ("bior1.1", "bior2.2", "bior1.3", "bior2.6"):
        kernel = make_kernel2d(make_filter_pair(basis), SCALE, unit_dc=True)
        k = len(kernel.factor)
        for _ in range(3):
            h, w = (int(v) for v in rng.integers(16, 40, size=2))
            x = rng.random((h, w))
            out = scattering.conv2_decimated(x, kernel, "symmetric", 2)
            got_flops, got_bytes = conv_cost(x.shape, out.shape, k)
            assert got_flops == flops.conv_flops(out.shape[1], out.shape[0], k, 1, 1, False)
            assert got_bytes == x.nbytes + out.nbytes


def test_fc_cost_matches_flops_model():
    dims = (302400, 64, 16, 5)
    want = sum(flops.fc_flops(dims[j], dims[j + 1], True) for j in range(3))
    got_flops, got_bytes = fc_cost(dims)
    assert got_flops == want
    # every weight and bias is one float64 read
    assert got_bytes == 8 * sum(dims[j] * dims[j + 1] + dims[j + 1] for j in range(3))


def _span(sid, start, end, parent=None):
    return Span(sid, f"s{sid}", start, end, parent, 0, "", None)


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 3.0, 1), _span(3, 2.0, 5.0, 1),   # overlap: [1, 5]
            _span(4, 8.0, 12.0, 1),                          # clipped to [8, 10]
            _span(5, 6.0, 6.0, 1)]                           # empty
    assert self_time(parent, kids) == pytest.approx(10.0 - 4.0 - 2.0)
    assert self_time(parent, []) == 10.0
    assert children_of([parent, *kids])[1] == kids


def _traced_features(config, plane):
    tracer = Tracer()
    tracer.install()
    try:
        tracer.capture = []
        pipeline.extract_features(plane, config)
        out, cfg = tracer.captured_output
        useful = useful_conv_flops(tracer.capture, selected_planes(out, cfg.selection))
    finally:
        tracer.uninstall()
    return tracer.spans, useful


@pytest.mark.parametrize("config, conv_calls, ratio_below_one", [
    (scattering.ScatterConfig(), 8, True),
    (scattering.ScatterConfig(variant="classic", level_bases=("bior2.6", "bior1.3", "bior2.2"),
                              boundary="periodic", selection=("S0", "S1", "S2", "S3")), 7, False),
])
def test_trace_agreement_and_counts_on_a_tiny_plane(config, conv_calls, ratio_below_one):
    h, w = 64, 48
    plane = np.random.default_rng(2).random((h, w))
    spans, (useful, traced) = _traced_features(config, plane)
    convs = [s for s in spans if s.name == "scattering.conv2_decimated"]
    report = flops.pipeline_flops(w, h, config, 5)
    model_conv = sum(n for label, (_, n) in zip(report.labels, report.per_layer) if "*" in label)
    assert traced == sum(s.attrs["flops"] for s in convs)
    assert model_conv / traced == 1.0
    assert len(convs) == conv_calls
    assert sum(s.name == "scattering.validate_plane" for s in spans) == conv_calls + 1
    assert sum(s.name == "filters.make_kernel2d" for s in spans) == 6
    assert (useful < traced) == ratio_below_one and useful > 0


def test_useful_flops_of_the_default_cascade_are_all_but_the_smoothing():
    h, w = 64, 48
    config = scattering.ScatterConfig()
    spans, (useful, traced) = _traced_features(config, np.random.default_rng(3).random((h, w)))
    dims = scattering.plane_dims(w, h, config)
    # S1..S3 are smoothed with phi_1 and thrown away by the U1,U2,U3 selection
    k = len(make_filter_pair(config.level_bases[0]).h)
    waste = sum(dims[f"S{n}"][0] * dims[f"S{n}"][1] * k * k for n in (1, 2, 3))
    assert traced - useful == waste


def test_install_patches_lookup_sites_and_uninstall_restores_them():
    before = pipeline.scatter, scattering.conv2_decimated
    tracer = Tracer()
    tracer.install()
    assert pipeline.scatter is not before[0] and pipeline.scatter.__wrapped__ is before[0]
    with pytest.raises(RuntimeError):
        tracer.install()
    tracer.uninstall()
    assert (pipeline.scatter, scattering.conv2_decimated) == before


def test_worker_spans_hang_under_run_extract(tmp_path):
    manifest = synth.synth_dataset(tmp_path / "data", per_class=2, seed=1)
    cfg = pipeline.PipelineConfig(width=64, height=64, threads=2)
    tracer = Tracer()
    tracer.install()
    try:
        pipeline.run_extract(cfg, manifest, tmp_path / "out.feat")
    finally:
        tracer.uninstall()
    (outer,) = [s for s in tracer.spans if s.name == "pipeline.run_extract"]
    inner = [s for s in tracer.spans if s.name in ("ppm.load_image_channel",
                                                    "pipeline.extract_features")]
    assert len(inner) == 20 and all(s.parent == outer.sid for s in inner)
    assert outer.attrs == {"images": 10, "workers": 2}
    assert 0.0 <= self_time(outer, children_of(tracer.spans)[outer.sid]) <= outer.dur
    assert threading.active_count() == 1


def test_benchmark_json_follows_the_contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert 2 <= len(spec["workloads"]) <= 8
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    assert isinstance(spec["run_seconds"], int) and 1 <= spec["run_seconds"] <= 60
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
