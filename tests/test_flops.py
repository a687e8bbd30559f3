"""Analytic FLOPs counters against literal-loop oracles and frozen totals."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

import oracles
from wavescat import scattering
from wavescat.errors import DataError, NumericError
from wavescat.filters import BASES
from wavescat.flops import (
    LayerSpec,
    NetworkSpec,
    avgpool_flops,
    conv_flops,
    conv_out_size,
    fc_flops,
    network_flops,
    parse_layer_line,
    parse_layers,
    pipeline_flops,
    relu_flops,
    theoretical_time,
)
from wavescat.scattering import ScatterConfig, feature_length, scatter

REFERENCE_CNN = """
conv2d K=7 C_out=3 bias=1
relu
avgpool K=5
fc O=128 bias=1
relu
fc O=64 bias=1
"""

MLP_HEAD = """
fc I=1036800 O=64 bias=0
relu
fc O=16 bias=1
relu
fc O=16 bias=1
"""


# ---------------------------------------------------------------------------
# primitives


def test_conv_out_size_examples():
    assert conv_out_size(1280, 7) == 1274
    assert conv_out_size(720, 1) == 720
    assert conv_out_size(1274, 5) == 1270


def test_conv_out_size_matches_oracle():
    for n in (1, 5, 17, 64):
        for k in (1, 3, 5):
            for p in (0, 1, 2):
                for s in (1, 2, 3):
                    for d in (1, 2):
                        want = oracles.conv_out(n, k, p, s, d)
                        if want < 1:
                            with pytest.raises(DataError, match="shrinks"):
                                conv_out_size(n, k, p, s, d)
                        else:
                            assert conv_out_size(n, k, p, s, d) == want


def test_conv_flops_examples():
    assert conv_flops(1274, 714, 7, 3, 3, True) == 403878384
    assert conv_flops(1, 1, 1, 1, 1, False) == 1
    assert conv_flops(2, 2, 3, 2, 4, True) == 304


def test_fc_flops_examples():
    assert fc_flops(64, 16, True) == 1040
    assert fc_flops(1036800, 64, True) == 66355264
    assert 66_300_000 <= fc_flops(1036800, 64, True) <= 66_400_000
    assert fc_flops(1, 1, False) == 1
    # the (16+1)*16 = 272 value; 68 would correspond to a 16->4 layer
    assert fc_flops(16, 16, True) == 272
    assert fc_flops(16, 4, True) == 68


def test_avgpool_flops_examples():
    assert avgpool_flops(3, 1274, 714, 5) == 68222700
    assert avgpool_flops(1, 1, 1, 1) == 1


def test_relu_flops_examples():
    assert relu_flops(64) == 64
    assert relu_flops(16) == 16
    assert relu_flops(0) == 0


def test_counts_match_literal_loops():
    assert conv_flops(3, 4, 3, 2, 5, True) == oracles.count_conv(3, 4, 3, 2, 5, True)
    assert conv_flops(8, 8, 5, 3, 2, False) == oracles.count_conv(8, 8, 5, 3, 2, False)
    assert fc_flops(7, 9, True) == oracles.count_fc(7, 9, True)
    assert fc_flops(12, 5, False) == oracles.count_fc(12, 5, False)
    assert avgpool_flops(2, 6, 8, 3) == oracles.count_avgpool(2, 6, 8, 3)


@given(st.integers(1, 50), st.integers(1, 50), st.integers(1, 7),
       st.integers(1, 8), st.integers(1, 8), st.booleans())
def test_conv_flops_monotone(m1, m2, k, c_in, c_out, bias):
    base = conv_flops(m1, m2, k, c_in, c_out, bias)
    assert conv_flops(m1 + 1, m2, k, c_in, c_out, bias) >= base
    assert conv_flops(m1, m2, k + 1, c_in, c_out, bias) >= base
    assert conv_flops(m1, m2, k, c_in + 1, c_out, bias) >= base
    assert conv_flops(m1, m2, k, c_in, c_out + 1, bias) >= base


@given(st.integers(1, 10**6), st.integers(1, 10**4), st.booleans())
def test_fc_flops_monotone(i, o, bias):
    base = fc_flops(i, o, bias)
    assert fc_flops(i + 1, o, bias) >= base
    assert fc_flops(i, o + 1, bias) >= base


def test_primitive_argument_guards():
    with pytest.raises(DataError):
        conv_flops(0, 1, 1, 1, 1, True)
    with pytest.raises(DataError):
        fc_flops(0, 1, True)
    with pytest.raises(DataError):
        avgpool_flops(1, 0, 1, 1)
    with pytest.raises(DataError):
        relu_flops(-1)
    with pytest.raises(DataError):
        conv_out_size(8, 3, 0, 0, 1)


def test_overflow_rejected():
    with pytest.raises(NumericError, match="overflow"):
        fc_flops(2**62, 4, False)
    with pytest.raises(NumericError, match="overflow"):
        conv_flops(2**31, 2**31, 3, 1, 2, False)


# ---------------------------------------------------------------------------
# network propagation


def test_reference_cnn_totals_frozen():
    layers = parse_layers(REFERENCE_CNN)
    want = {(960, 540): 459278104, (1280, 720): 821091304, (1920, 1080): 1857831304}
    for (w, h), total in want.items():
        assert network_flops(NetworkSpec(w, h, 3, layers)).total == total


def test_reference_cnn_total_cross_check():
    # independent layer-by-layer evaluation for the 720P input
    m1, m2 = oracles.conv_out(1280, 7, 0, 1, 1), oracles.conv_out(720, 7, 0, 1, 1)
    conv = oracles.count_conv(m1, m2, 7, 3, 3, True)
    relu1 = 3 * m1 * m2
    pool = oracles.count_avgpool(3, m1, m2, 5)
    p1, p2 = oracles.conv_out(m1, 5, 0, 1, 1), oracles.conv_out(m2, 5, 0, 1, 1)
    fc1 = oracles.count_fc(3 * p1 * p2, 128, True)
    relu2 = 128
    fc2 = oracles.count_fc(128, 64, True)
    total = conv + relu1 + pool + fc1 + relu2 + fc2
    assert total == 821091304
    layers = parse_layers(REFERENCE_CNN)
    report = network_flops(NetworkSpec(1280, 720, 3, layers))
    assert report.total == total
    assert [n for _, n in report.per_layer] == [conv, relu1, pool, fc1, relu2, fc2]


def test_reference_cnn_percent_windows():
    layers = parse_layers(REFERENCE_CNN)
    for (w, h), claim in [((960, 540), 0.46e9), ((1280, 720), 0.82e9),
                          ((1920, 1080), 1.85e9)]:
        total = network_flops(NetworkSpec(w, h, 3, layers)).total
        assert abs(total - claim) / claim <= 0.02


def test_mlp_head_total_frozen():
    layers = parse_layers(MLP_HEAD)
    report = network_flops(NetworkSpec(1036800, 1, 1, layers))
    assert report.total == 66356592
    want = [66355200, 64, oracles.count_fc(64, 16, True), 16,
            oracles.count_fc(16, 16, True)]
    assert [n for _, n in report.per_layer] == want
    assert sum(want) == 66356592


def test_fc_inference_and_declared_mismatch():
    layers = (LayerSpec("conv2d", k=3, c_out=2),
              LayerSpec("fc", i=999, o=4))
    with pytest.raises(DataError, match=r"layer 2 \(fc\).*flattens to 72"):
        network_flops(NetworkSpec(8, 8, 1, layers))
    ok = (LayerSpec("conv2d", k=3, c_out=2), LayerSpec("fc", i=72, o=4))
    assert network_flops(NetworkSpec(8, 8, 1, ok)).per_layer[1][1] == fc_flops(72, 4, True)


def test_conv_after_flatten_rejected():
    layers = (LayerSpec("fc", o=16), LayerSpec("conv2d", k=3, c_out=1))
    with pytest.raises(DataError, match=r"layer 2 \(conv2d\).*flattened"):
        network_flops(NetworkSpec(8, 8, 1, layers))


@pytest.mark.parametrize("kind", ["avgpool", "maxpool"])
def test_pool_after_flatten_rejected(kind):
    layers = (LayerSpec("fc", o=16), LayerSpec(kind, k=2))
    with pytest.raises(DataError, match=rf"layer 2 \({kind}\): {kind} after the network was "
                                        r"flattened by an fc layer$"):
        network_flops(NetworkSpec(8, 8, 1, layers))


def test_channel_mismatch_rejected():
    layers = (LayerSpec("conv2d", k=3, c_in=4, c_out=2),)
    with pytest.raises(DataError, match=r"layer 1 \(conv2d\).*C_in=4"):
        network_flops(NetworkSpec(8, 8, 3, layers))


def test_shape_underflow_names_layer():
    layers = (LayerSpec("conv2d", k=3, c_out=1), LayerSpec("avgpool", k=9),)
    with pytest.raises(DataError, match=r"layer 2 \(avgpool\)"):
        network_flops(NetworkSpec(8, 8, 1, layers))


def test_maxpool_counts_zero():
    layers = (LayerSpec("maxpool", k=2, s=2),)
    report = network_flops(NetworkSpec(8, 8, 3, layers))
    assert report.per_layer == ((1, 0),)
    assert report.total == 0


def test_relu_explicit_count_and_missing_shape():
    assert network_flops(NetworkSpec(1, 1, 1, (LayerSpec("relu", n=100),))).total == 100
    layers = (LayerSpec("fc", i=8, o=4), LayerSpec("relu"),)
    assert network_flops(NetworkSpec(8, 1, 1, layers)).per_layer[1][1] == 4


def test_theoretical_time():
    layers = parse_layers(REFERENCE_CNN)
    report = network_flops(NetworkSpec(1280, 720, 3, layers))
    assert theoretical_time(report, 1e9) == report.total / 1e9
    with pytest.raises(DataError, match="peak"):
        theoretical_time(report, 0.0)
    with pytest.raises(DataError, match="peak"):
        theoretical_time(report, -5.0)
    for peak in (float("nan"), float("inf")):
        with pytest.raises(DataError, match="finite and positive"):
            theoretical_time(report, peak)


# ---------------------------------------------------------------------------
# layer-list parsing


def test_parse_layer_line():
    spec = parse_layer_line("conv2d K=7 C_in=3 C_out=16 S=2 P=1 bias=0")
    assert spec == LayerSpec("conv2d", k=7, p=1, s=2, c_in=3, c_out=16, bias=False)
    assert parse_layer_line("relu N=42").n == 42


def test_parse_errors_carry_line_numbers():
    with pytest.raises(DataError, match="line 2.*unknown layer key 'Q'"):
        parse_layers("relu\nconv2d Q=3")
    with pytest.raises(DataError, match="line 1.*unknown layer kind"):
        parse_layers("softmax")
    with pytest.raises(DataError, match="line 3.*needs an integer"):
        parse_layers("relu\nrelu\nfc O=many")
    with pytest.raises(DataError, match="key=value"):
        parse_layers("conv2d 7")
    with pytest.raises(DataError, match="bias"):
        parse_layers("fc O=4 bias=maybe")
    with pytest.raises(DataError, match="empty"):
        parse_layers("# nothing here\n\n")


def test_parse_skips_comments_and_blanks():
    layers = parse_layers("# header\n\nrelu N=3  # trailing\n")
    assert layers == (LayerSpec("relu", n=3),)


def test_layer_spec_guards():
    with pytest.raises(DataError, match="unknown layer kind"):
        LayerSpec("dense")
    with pytest.raises(DataError, match="K,S,D"):
        LayerSpec("conv2d", k=0)


# ---------------------------------------------------------------------------
# scattering pipeline accounting


def test_pipeline_flops_tiny_hand_check():
    # 8x8 input, depth 1, bior1.1, improved, selection U1:
    #   S0 = x*phi: 4x4 conv2d with K=2 -> 4*4*(4*1+0)*1 = 64 flops,
    #   same for U1's psi;  |.| on U1: 16;  S1 = U1*phi on 2x2: 2*2*4 = 16
    cfg = ScatterConfig(depth=1, level_bases=("bior1.1",), selection=("U1",))
    report = pipeline_flops(8, 8, cfg, classes=5)
    s0 = oracles.count_conv(4, 4, 2, 1, 1, False)
    u1 = oracles.count_conv(4, 4, 2, 1, 1, False)
    mod = 16
    s1 = oracles.count_conv(2, 2, 2, 1, 1, False)
    veclen = feature_length(8, 8, cfg)
    assert veclen == 16
    head = (oracles.count_fc(veclen, 64, True) + 64
            + oracles.count_fc(64, 16, True) + 16
            + oracles.count_fc(16, 5, True))
    # improved depth 1 has no low-pass chain, so no |A1| is taken
    assert report.total == s0 + u1 + mod + s1 + head


def test_pipeline_head_is_costed_as_a_layer_list():
    cfg = ScatterConfig()
    report = pipeline_flops(64, 48, cfg, classes=5)
    head = network_flops(NetworkSpec(feature_length(64, 48, cfg), 1, 1, parse_layers(
        "fc O=64\nrelu\nfc O=16\nrelu\nfc O=5")))
    assert report.labels[-5:] == head.labels
    assert [n for _, n in report.per_layer[-5:]] == [n for _, n in head.per_layer]


def test_pipeline_flops_scales_linearly_in_pixels():
    cfg = ScatterConfig()
    per_pixel = {}
    for w, h in [(960, 540), (1280, 720), (1920, 1080)]:
        per_pixel[(w, h)] = pipeline_flops(w, h, cfg, classes=5).total / (w * h)
    base = per_pixel[(1280, 720)]
    for v in per_pixel.values():
        assert abs(v - base) / base <= 0.02


def test_pipeline_report_labels_cover_every_stage():
    cfg = ScatterConfig()
    report = pipeline_flops(1280, 720, cfg, classes=5)
    labels = " ".join(report.labels)
    assert "S0" in labels and "U3" in labels and "fc 302400->64" in labels
    assert report.total == sum(n for _, n in report.per_layer)


def _random_config(rng):
    depth = int(rng.integers(1, 4))
    return ScatterConfig(
        depth=depth,
        level_bases=tuple(BASES[i] for i in rng.integers(0, len(BASES), size=depth)),
        boundary=("symmetric", "periodic")[int(rng.integers(0, 2))],
        decimate=int(rng.integers(1, 3)),
        variant=("classic", "improved")[int(rng.integers(0, 2))],
        selection=("U1",),
        smooth_with=("first", "last")[int(rng.integers(0, 2))],
        smooth_decimate=bool(rng.integers(0, 2)))


def test_pipeline_flops_conv_rows_are_the_convolutions_scatter_runs(monkeypatch):
    real = scattering.conv2_decimated
    ran = []

    def counting(plane, kernel, boundary, decimate):
        out = real(plane, kernel, boundary, decimate)
        ran.append(conv_flops(out.shape[1], out.shape[0], len(kernel.factor), 1, 1, False))
        return out

    monkeypatch.setattr(scattering, "conv2_decimated", counting)
    rng = np.random.default_rng(5)
    seen = set()
    checked = 0
    while checked < 40:
        cfg = _random_config(rng)
        h, w = (int(v) for v in rng.integers(20, 41, size=2))
        ran.clear()
        try:
            scatter(rng.random((h, w)), cfg)
        except DataError:
            continue  # a kernel wider than a deep plane: not a feasible config
        report = pipeline_flops(w, h, cfg, classes=5)
        model = [n for label, (_, n) in zip(report.labels, report.per_layer) if "*" in label]
        assert model == ran, cfg
        seen.update((f, getattr(cfg, f)) for f in
                    ("variant", "depth", "smooth_with", "smooth_decimate", "decimate"))
        checked += 1
    assert seen == {("variant", "classic"), ("variant", "improved"),
                    ("depth", 1), ("depth", 2), ("depth", 3),
                    ("smooth_with", "first"), ("smooth_with", "last"),
                    ("smooth_decimate", True), ("smooth_decimate", False),
                    ("decimate", 1), ("decimate", 2)}
