"""Image, feature-file, model-file, manifest, config-file and layer-list
round trips, plus mutation fuzz of every parser."""

import os
import re
import struct
import sys
import threading
import tracemalloc
import types
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from wavescat import formats, mlp
from wavescat.errors import DataError, NumericError
from wavescat.flops import NetworkSpec, network_flops, parse_layers
from wavescat.formats import (
    FEATURE_MAGIC,
    FEATURE_TEXT_OFFSET,
    MODEL_MAGIC,
    MODEL_VERSION,
    ManifestRecord,
    apply_first_layer,
    load_model,
    parse_config_file,
    read_features,
    read_manifest,
    read_text,
    save_model,
    write_features,
    write_manifest,
)
from wavescat.mlp import MlpModel, _forward_batch, init_model, mlp_forward, models_equal, softmax
from wavescat.mlp import predict as mlp_predict
from wavescat.pipeline import (PipelineConfig, extract_features, feature_config,
                               overlay_configs, run_eval, run_infer, run_train)
from wavescat import ppm
from wavescat.filters import BASES
from wavescat.ppm import CHANNELS, load_image_channel, write_ppm
from wavescat.scattering import (BOUNDARIES, SMOOTH_WITH, VARIANTS, ScatterConfig,
                                 feature_length, selection_names)

TINY = ScatterConfig(level_bases=("bior1.1",), selection=("U1",))
# the header text of 8x8 files of TINY's 16 features
TINY_TEXT = feature_config(PipelineConfig(width=8, height=8, scatter=TINY))


# ---------------------------------------------------------------------------
# PPM / PGM / PNG


def test_ppm_round_trip_channel_values(tmp_path):
    rgb = np.zeros((5, 7, 3), dtype=np.uint8)
    rgb[:, :, 2] = 255  # solid blue
    path = tmp_path / "blue.ppm"
    write_ppm(path, rgb)
    assert np.array_equal(load_image_channel(path, "B"), np.ones((5, 7)))
    assert np.array_equal(load_image_channel(path, "R"), np.zeros((5, 7)))
    assert np.array_equal(load_image_channel(path, "G"), np.zeros((5, 7)))


def test_ppm_round_trip_random(tmp_path):
    rgb = np.random.default_rng(1).integers(0, 256, size=(9, 4, 3), dtype=np.uint8)
    path = tmp_path / "img.ppm"
    write_ppm(path, rgb)
    for ch, idx in (("R", 0), ("G", 1), ("B", 2)):
        assert np.array_equal(load_image_channel(path, ch), rgb[:, :, idx] / 255.0)


def test_pgm_gray_ignores_channel(tmp_path):
    path = tmp_path / "g.pgm"
    raster = bytes(range(8))
    path.write_bytes(b"P5\n4 2\n255\n" + raster)
    want = np.frombuffer(raster, dtype=np.uint8).reshape(2, 4) / 255.0
    assert np.array_equal(load_image_channel(path, "B"), want)
    assert np.array_equal(load_image_channel(path, "R"), want)


def test_pnm_header_comments(tmp_path):
    path = tmp_path / "c.pgm"
    path.write_bytes(b"P5 # comment\n# another\n2 1\n255\n\x10\x20")
    assert np.array_equal(load_image_channel(path, "B"),
                          np.array([[16, 32]]) / 255.0)


def test_pgm_scales_by_header_maxval(tmp_path):
    path = tmp_path / "m15.pgm"
    path.write_bytes(b"P5\n3 1\n15\n\x00\x05\x0f")
    got = load_image_channel(path, "B")
    assert got[0, 2] == 1.0
    assert np.array_equal(got, np.array([[0, 5, 15]]) / 15)


@pytest.mark.parametrize("maxval", [255, 200])
@pytest.mark.parametrize("magic,planes", [(b"P5", 1), (b"P6", 3)])
def test_pnm_decodes_bitwise_as_samples_over_maxval(tmp_path, magic, planes, maxval):
    shape = (6, 5, planes) if planes == 3 else (6, 5)
    arr = np.random.default_rng(maxval).integers(0, maxval + 1, size=shape, dtype=np.uint8)
    path = tmp_path / "img.pnm"
    path.write_bytes(magic + f"\n5 6\n{maxval}\n".encode() + arr.tobytes())
    for ch, idx in (("R", 0), ("G", 1), ("B", 2)):
        got = load_image_channel(path, ch)
        want = (arr[:, :, idx] if planes == 3 else arr).astype(np.float64) / maxval
        assert got.dtype == np.float64 and got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


def test_pgm_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n3 1\n15\n\x00\x10\x0f")
    # header is 10 bytes, the second sample sits at offset 11
    with pytest.raises(DataError, match="sample above maxval 15 at byte offset 11"):
        load_image_channel(path, "B")


def test_non_image_is_rejected_after_reading_only_its_magic(tmp_path, monkeypatch):
    big = tmp_path / "big.bin"
    big.write_bytes(b"XX" + bytes(1 << 20))
    reads = []

    class Spy:
        def __init__(self, fh):
            self.fh = fh

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            self.fh.close()

        def read(self, *size):
            reads.append(size)
            return self.fh.read(*size)

    monkeypatch.setattr(ppm, "open", lambda *a, **kw: Spy(open(*a, **kw)), raising=False)
    with pytest.raises(DataError, match="unsupported image format"):
        load_image_channel(big, "B")
    assert reads == [(8,)]


def test_pnm_parse_errors_carry_offsets(tmp_path):
    bad_magic = tmp_path / "x.img"
    bad_magic.write_bytes(b"XX123456")
    with pytest.raises(DataError, match="unsupported image format"):
        load_image_channel(bad_magic, "B")

    big_maxval = tmp_path / "m.pgm"
    big_maxval.write_bytes(b"P5\n2 2\n65535\n" + bytes(8))
    with pytest.raises(DataError, match="unsupported maxval 65535 .* byte offset"):
        load_image_channel(big_maxval, "B")

    truncated = tmp_path / "t.pgm"
    truncated.write_bytes(b"P5\n4 4\n255\n\x00\x00")
    with pytest.raises(DataError, match="truncated raster: need 16 bytes"):
        load_image_channel(truncated, "B")

    zero_dim = tmp_path / "z.pgm"
    zero_dim.write_bytes(b"P5\n0 2\n255\n")
    with pytest.raises(DataError, match="bad dimensions 0x2"):
        load_image_channel(zero_dim, "B")

    non_int = tmp_path / "n.pgm"
    non_int.write_bytes(b"P5\nwide 2\n255\n")
    with pytest.raises(DataError, match="expected integer width"):
        load_image_channel(non_int, "B")


PNG_MAGIC = b"\x89PNG\r\n\x1a\n"


class _StubImage:
    """The part of PIL.Image that the PNG branch touches.  save() writes only
    the PNG magic and keeps the image under its path for open(); convert()
    records the mode asked for and returns the array stored for that mode."""

    saved = {}

    def __init__(self, mode, arrays):
        self.mode, self.arrays, self.asked = mode, arrays, []

    @classmethod
    def fromarray(cls, arr):
        mode = "RGB" if arr.ndim == 3 else "L"
        return cls(mode, {mode: arr})

    @classmethod
    def open(cls, path):
        return cls.saved[str(path)]

    def save(self, path):
        with open(path, "wb") as fh:
            fh.write(PNG_MAGIC)
        self.saved[str(path)] = self

    def convert(self, mode):
        self.asked.append(mode)
        return self.arrays[mode]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


def _stub_pillow(monkeypatch):
    pil = types.ModuleType("PIL")
    pil.Image = _StubImage  # `from PIL import Image` reads this attribute
    monkeypatch.setitem(sys.modules, "PIL", pil)
    monkeypatch.setattr(_StubImage, "saved", {})
    return _StubImage


def test_png_round_trip(tmp_path, monkeypatch):
    """Through real Pillow when it is installed, else through the stub."""
    try:
        from PIL import Image
    except ImportError:
        Image = _stub_pillow(monkeypatch)
    rng = np.random.default_rng(2)
    rgb = rng.integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    gray = rng.integers(0, 256, size=(4, 7), dtype=np.uint8)
    Image.fromarray(rgb).save(tmp_path / "rgb.png")
    Image.fromarray(gray).save(tmp_path / "gray.png")
    assert np.array_equal(load_image_channel(tmp_path / "rgb.png", "G"), rgb[:, :, 1] / 255.0)
    assert np.array_equal(load_image_channel(tmp_path / "gray.png", "R"), gray / 255.0)


@pytest.mark.parametrize("mode,asked", [("L", "L"), ("I;16", "L"), ("I", "L"), ("1", "L"),
                                        ("RGB", "RGB"), ("RGBA", "RGB"), ("P", "RGB")])
def test_png_modes_map_to_gray_or_rgb(tmp_path, monkeypatch, mode, asked):
    stub = _stub_pillow(monkeypatch)
    rng = np.random.default_rng(3)
    arr = rng.integers(0, 256, size=(3, 4, 3) if asked == "RGB" else (3, 4), dtype=np.uint8)
    img = stub(mode, {asked: arr})
    img.save(tmp_path / "img.png")
    for ch, idx in (("R", 0), ("G", 1), ("B", 2)):
        got = load_image_channel(tmp_path / "img.png", ch)
        want = arr[:, :, idx] if asked == "RGB" else arr  # gray ignores the selector
        assert got.dtype == np.float64 and got.tobytes() == (want / 255.0).tobytes()
    assert img.asked == [asked] * 3


def test_png_without_pillow_is_a_data_error(tmp_path, monkeypatch):
    path = tmp_path / "img.png"
    path.write_bytes(PNG_MAGIC + bytes(16))
    monkeypatch.setitem(sys.modules, "PIL", None)  # import fails as if not installed
    with pytest.raises(DataError, match=r"img\.png: PNG input needs the optional Pillow"):
        load_image_channel(path, "B")


def test_unknown_channel_rejected(tmp_path):
    with pytest.raises(DataError, match="unknown channel 'Z'"):
        load_image_channel(tmp_path / "nope.ppm", "Z")


def test_write_ppm_validates_shape(tmp_path):
    with pytest.raises(DataError, match=r"\(h, w, 3\) uint8"):
        write_ppm(tmp_path / "bad.ppm", np.zeros((4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# feature files


def test_feature_header_is_the_config_lines_the_vectors_depend_on():
    assert TINY_TEXT == (b"width = 8\nheight = 8\nchannel = B\nbases = bior1.1\n"
                         b"boundary = symmetric\ndecimate = 2\nvariant = improved\n"
                         b"selection = U1\nsmooth_with = first\nsmooth_decimate = 1\n")
    # classes, threads and the training keys do not change a vector
    other = PipelineConfig(width=8, height=8, scatter=TINY, classes=("a", "b"), threads=4)
    assert feature_config(other) == TINY_TEXT


@st.composite
def _pipeline_configs(draw):
    bases = draw(st.lists(st.sampled_from(BASES), min_size=1, max_size=3))
    scatter = ScatterConfig(
        level_bases=bases,
        boundary=draw(st.sampled_from(BOUNDARIES)), decimate=draw(st.integers(1, 5)),
        variant=draw(st.sampled_from(VARIANTS)),
        # any order, repeats too: the config keeps its declared order, once each
        selection=draw(st.lists(st.sampled_from(selection_names(len(bases))), min_size=1)),
        smooth_with=draw(st.sampled_from(SMOOTH_WITH)), smooth_decimate=draw(st.booleans()))
    return PipelineConfig(width=draw(st.integers(1, 5000)), height=draw(st.integers(1, 5000)),
                          channel=draw(st.sampled_from(sorted(CHANNELS))), scatter=scatter)


@settings(deadline=None)
@given(_pipeline_configs())
def test_feature_header_reads_back_as_a_config_file(tmp_path_factory, config):
    feat = tmp_path_factory.getbasetemp() / "header.feat"
    write_features(feat, [], feature_config(config), 1)
    text = tmp_path_factory.getbasetemp() / "header.cfg"
    text.write_bytes(read_features(feat)[1]["config"])
    back, _ = overlay_configs(parse_config_file(text))
    assert feature_config(back) == feature_config(config)
    assert back == config


def test_feature_file_holds_the_deepest_config(tmp_path):
    deep = PipelineConfig(width=8, height=8, scatter=ScatterConfig(
        level_bases=("bior1.1",) * 31, selection=("S31",)))
    path = tmp_path / "deep.bin"
    write_features(path, [np.ones(1)], feature_config(deep), 1)
    vecs, header = read_features(path)
    assert vecs.shape == (1, 1)
    assert b"\nbases = " + b",".join([b"bior1.1"] * 31) + b"\n" in header["config"]
    assert b"\nselection = S31\n" in header["config"]
    text = tmp_path / "deep.cfg"
    text.write_bytes(header["config"])
    assert overlay_configs(parse_config_file(text))[0] == deep


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rows = [rng.random(16) for _ in range(3)]
    path = tmp_path / "f.bin"
    write_features(path, rows, TINY_TEXT, 16)
    vecs, header = read_features(path)
    assert header == {"config": TINY_TEXT, "veclen": 16}
    assert vecs.shape == (3, 16)
    assert np.array_equal(vecs, np.array(rows, dtype=np.float32))


def test_feature_file_empty_still_carries_length(tmp_path):
    path = tmp_path / "empty.bin"
    write_features(path, [], TINY_TEXT, 16)
    vecs, header = read_features(path)
    assert vecs.shape == (0, 16)
    assert header["veclen"] == 16


def test_feature_file_magic_layout(tmp_path):
    path = tmp_path / "f.bin"
    write_features(path, [np.zeros(16)], TINY_TEXT, 16)
    data = path.read_bytes()
    assert data[:8] == FEATURE_MAGIC == b"IWSNFV02"
    # the text's length as u64 LE, the text, veclen as u64 LE, then the records
    n = len(TINY_TEXT)
    assert struct.unpack_from("<Q", data, 8) == (n,)
    assert data[16:16 + n] == TINY_TEXT and FEATURE_TEXT_OFFSET == 16
    assert struct.unpack_from("<Q", data, 16 + n) == (16,)
    assert len(data) == 16 + n + 8 + 16 * 4


def test_write_features_rejects_wrong_length(tmp_path):
    with pytest.raises(DataError, match="must have length 16, got 5"):
        write_features(tmp_path / "f.bin", [np.zeros(5)], TINY_TEXT, 16)


@pytest.mark.parametrize("row,shape", [(np.float32(1.0), "()"),
                                       (np.zeros((16, 1)), r"\(16, 1\)"),
                                       (np.zeros((2, 16)), r"\(2, 16\)")])
def test_write_features_rejects_rows_that_are_not_1d(tmp_path, row, shape):
    path = tmp_path / "f.bin"
    with pytest.raises(DataError, match=f"must be 1D of length 16, got shape {shape}"):
        write_features(path, [np.zeros(16), row], TINY_TEXT, 16)
    assert not path.exists()


def test_write_features_strided_and_big_endian_rows_match_contiguous(tmp_path):
    veclen = feature_length(8, 8, TINY)
    rows = np.random.default_rng(4).random((2, veclen)).astype("<f4")
    wide = np.zeros((2, 2 * veclen), dtype="<f4")
    wide[:, ::2] = rows
    twins = [wide[0, ::2], rows[1].astype(">f4")]
    assert not twins[0].flags.c_contiguous
    write_features(tmp_path / "a.feat", rows, TINY_TEXT, 16)
    write_features(tmp_path / "b.feat", twins, TINY_TEXT, 16)
    assert (tmp_path / "b.feat").read_bytes() == (tmp_path / "a.feat").read_bytes()


def test_read_features_error_offsets(tmp_path):
    good = tmp_path / "good.bin"
    write_features(good, [np.zeros(16)], TINY_TEXT, 16)
    raw = good.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(DataError, match="bad magic.*at byte offset 0"):
        read_features(bad_magic)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:12])
    with pytest.raises(DataError, match=r"truncated header \(header text length\) at byte offset 8"):
        read_features(short)

    version_1 = tmp_path / "v1.bin"
    version_1.write_bytes(b"IWSNFV01" + struct.pack("<6Q", 8, 8, 1, 1, 0b10, 16) + bytes(64))
    with pytest.raises(DataError, match="bad magic b'IWSNFV01', expected b'IWSNFV02'"):
        read_features(version_1)

    at = FEATURE_TEXT_OFFSET + len(TINY_TEXT)  # the vector length's offset
    for size in (len(raw) - 16 + 1, 2**64 - 1):
        long_text = tmp_path / "long_text.bin"
        long_text.write_bytes(raw[:8] + struct.pack("<Q", size) + raw[16:])
        with pytest.raises(DataError, match=f"header text length {size} runs past the "
                                            f"{len(raw)}-byte file at byte offset 8"):
            read_features(long_text)

    no_veclen = tmp_path / "no_veclen.bin"
    no_veclen.write_bytes(raw[:at + 4])
    with pytest.raises(DataError, match=f"truncated header \\(vector length\\) at byte offset {at}"):
        read_features(no_veclen)

    zero_len = tmp_path / "zero_len.bin"
    zero_len.write_bytes(raw[:at] + struct.pack("<Q", 0))
    with pytest.raises(DataError, match=f"zero vector length at byte offset {at}"):
        read_features(zero_len)

    ragged = tmp_path / "ragged.bin"
    ragged.write_bytes(raw + b"\x00\x00")
    with pytest.raises(DataError, match="not a whole number of 16-float records"):
        read_features(ragged)


def test_read_features_names_the_first_non_finite_record(tmp_path):
    path = tmp_path / "f.bin"
    rows = np.full((4, 16), F32_MAX)  # finite: their float64 row sums do not overflow
    write_features(path, rows, TINY_TEXT, 16)
    assert np.array_equal(read_features(path)[0], rows)
    record_1 = FEATURE_TEXT_OFFSET + len(TINY_TEXT) + 8 + 64
    for value in (np.nan, np.inf, -np.inf):
        rows[1, 5], rows[3, 15] = value, np.nan
        write_features(path, rows, TINY_TEXT, 16)
        with pytest.raises(DataError, match=f"non-finite value in record 1 at byte offset "
                                            f"{record_1}$"):
            read_features(path)


# a one-record file must hold a whole record; a zero-record file any length
# an array can hold (2**61 float32 is one byte past the largest)
@pytest.mark.parametrize("records, veclen", [
    (0, 2**61), (0, 2**62), (0, 2**63 + 5), (0, 2**64 - 1),
    (1, 17), (1, 2**62), (1, 2**64 - 1),
])
def test_read_features_rejects_oversized_vector_length(tmp_path, records, veclen):
    path = tmp_path / "f.bin"
    write_features(path, [np.zeros(16)] * records, TINY_TEXT, 16)
    raw, at = path.read_bytes(), FEATURE_TEXT_OFFSET + len(TINY_TEXT)
    path.write_bytes(raw[:at] + struct.pack("<Q", veclen) + raw[at + 8:])
    with pytest.raises(DataError, match=f"vector length {veclen} does not fit .* byte offset {at}$"):
        read_features(path)


def test_read_features_peaks_near_one_copy_of_the_file(tmp_path):
    # 64 records of 16384 floats: the records are a view of the file's bytes
    path = tmp_path / "big.feat"
    write_features(path, np.ones((64, 16384)), TINY_TEXT, 16384)
    assert _traced_peak(read_features, path) < 1.2 * path.stat().st_size


# ---------------------------------------------------------------------------
# model files


def test_model_round_trip_bitwise(tmp_path):
    model = init_model((10, 8, 5, 3), seed=44)
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    oracles.assert_inference_copy(loaded, model)
    assert loaded.weights[0].flags.f_contiguous
    # the file holds the float32 layer 0 that loads: the loaded head saves back unchanged
    save_model(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_model_file_layout(tmp_path):
    model = init_model((2, 3), seed=0)
    model.biases[0][:] = [1.0, 2.0, 3.0]
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    assert data[:8] == MODEL_MAGIC == b"IWSNML01"
    assert data[8] == MODEL_VERSION == 2
    assert struct.unpack_from("<Q", data, 9)[0] == 2
    assert struct.unpack_from("<2Q", data, 17) == (2, 3)
    # layer 0's weights one output unit after another in float32, then its bias in float64
    assert data[33:57] == model.weights[0].T.astype("<f4").tobytes()
    assert data[57:] == model.biases[0].astype("<f8").tobytes()


def test_model_load_errors(tmp_path):
    model = init_model((4, 3, 2), seed=5)
    good = tmp_path / "m.bin"
    save_model(model, good)
    raw = good.read_bytes()

    wrong_magic = tmp_path / "wm.bin"
    wrong_magic.write_bytes(b"IWSNFV01" + raw[8:])
    with pytest.raises(DataError, match="bad magic.*expected b'IWSNML01' at byte offset 0"):
        load_model(wrong_magic)

    wrong_version = tmp_path / "wv.bin"
    wrong_version.write_bytes(raw[:8] + b"\x03" + raw[9:])
    with pytest.raises(DataError, match="unsupported version 3 at byte offset 8"):
        load_model(wrong_version)

    for cut, what in [(8, "before version byte"), (12, "dim count"), (20, "dims"),
                      (60, "layer 0 parameters")]:
        stub = tmp_path / f"cut{cut}.bin"
        stub.write_bytes(raw[:cut])
        with pytest.raises(DataError, match=f"truncated {what}"):
            load_model(stub)

    trailing = tmp_path / "trail.bin"
    trailing.write_bytes(raw + b"\x00" * 3)
    with pytest.raises(DataError, match="3 trailing bytes"):
        load_model(trailing)

    silly = tmp_path / "silly.bin"
    silly.write_bytes(raw[:9] + struct.pack("<Q", 1) + raw[17:])
    with pytest.raises(DataError, match="implausible dim count 1"):
        load_model(silly)


def _param_bytes(model):
    return sum(w.nbytes + b.nbytes for w, b in zip(model.weights, model.biases))


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_model_bytes_do_not_depend_on_order_or_byte_order(tmp_path):
    base = init_model((7, 5, 3), seed=12)
    rng = np.random.default_rng(12)
    model = MlpModel(base.dims, base.weights, [rng.normal(size=b.shape) for b in base.biases])
    twin = MlpModel(model.dims,
                    [np.asfortranarray(w).astype(">f8") for w in model.weights],
                    [b.astype(">f8") for b in model.biases])
    assert twin.weights[0].flags.f_contiguous and not twin.weights[0].flags.c_contiguous
    save_model(model, tmp_path / "c.bin")
    save_model(twin, tmp_path / "f.bin")
    assert (tmp_path / "f.bin").read_bytes() == (tmp_path / "c.bin").read_bytes()


BIG_DIMS = (16384, 64, 16, 5)  # ~8 MB of parameters


def test_save_model_peak_stays_far_below_one_copy(tmp_path):
    model = init_model(BIG_DIMS, seed=3)
    assert _traced_peak(save_model, model, tmp_path / "m.bin") <= 0.25 * _param_bytes(model)


def test_load_model_peak_stays_near_half_a_copy(tmp_path):
    model = init_model((4 * BIG_DIMS[0], *BIG_DIMS[1:]), seed=3)
    path = tmp_path / "m.bin"
    save_model(model, path)
    # float32 layer 0 and float64 rest, each read in place, plus the finite
    # check's bool temporary of W0
    peak = _traced_peak(load_model, path)
    assert peak <= _param_bytes(model) / 2 + model.weights[0].size + (64 << 10)
    oracles.assert_inference_copy(load_model(path), model)


def _model_file(dims, body=b""):
    return (MODEL_MAGIC + bytes([MODEL_VERSION])
            + struct.pack(f"<{len(dims) + 1}Q", len(dims), *dims) + body)


def _params(dims, values):
    """A model body holding values in file order: layer 0's weights in float32, the rest in float64."""
    cut = dims[0] * dims[1]
    return values[:cut].astype("<f4").tobytes() + values[cut:].astype("<f8").tobytes()


def test_load_model_checks_sizes_before_allocating(tmp_path, monkeypatch):
    path = tmp_path / "huge.bin"
    path.write_bytes(_model_file((2**31, 2**31), b"\x00" * 64))

    def refuse(*args, **kwargs):
        raise AssertionError("allocated before checking the file size")

    monkeypatch.setattr(np, "empty", refuse)
    with pytest.raises(DataError, match="truncated layer 0 parameters at byte offset 33"):
        load_model(path)


def test_load_model_rejects_zero_dim(tmp_path):
    # a zero-width layer leaves the input dim unchecked by any size
    path = tmp_path / "zero.bin"
    path.write_bytes(_model_file((2**62, 0, 2), b"\x00" * 16))
    with pytest.raises(DataError, match="zero dim at byte offset 25"):
        load_model(path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
def test_load_model_from_pipe_is_truncated(tmp_path):
    raw_path = tmp_path / "m.bin"
    save_model(init_model((4, 3, 2), seed=5), raw_path)
    raw = raw_path.read_bytes()
    fifo = tmp_path / "m.fifo"
    os.mkfifo(fifo)

    def feed():
        try:
            with open(fifo, "wb") as fh:
                fh.write(raw)
        except BrokenPipeError:
            pass

    writer = threading.Thread(target=feed, daemon=True)
    writer.start()
    with pytest.raises(DataError, match="truncated layer 0 parameters at byte offset 41"):
        load_model(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()


def _mutated(raw):
    """A well-formed file cut short, with one byte flipped (to any value, so
    also to bytes that are not UTF-8), and with a tail appended."""
    def apply(cut, flip, tail):
        data = bytearray(raw)
        if flip is not None:
            data[flip[0]] ^= flip[1]
        return bytes(data[:cut]) + tail
    return st.builds(apply, st.integers(0, len(raw)),
                     st.none() | st.tuples(st.integers(0, len(raw) - 1), st.integers(1, 255)),
                     st.binary(max_size=40))


def _fuzz_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(data)
    return path


FUZZ_RAW = _model_file((3, 2, 2), _params((3, 2, 2), np.arange(1.0, 15.0)))


@settings(deadline=None, max_examples=300)
@given(data=_mutated(FUZZ_RAW))
@example(data=FUZZ_RAW[:44] + b"\x7f" + FUZZ_RAW[45:])  # layer 0's first weight 1.0 -> inf
def test_load_model_mutations_load_or_raise_data_error(tmp_path_factory, data):
    path = _fuzz_file(tmp_path_factory, data)
    try:
        model = load_model(path)
    except DataError:
        return
    # a file that loads is a well-formed model file and saves back unchanged
    save_model(model, path)
    assert path.read_bytes() == data


# ---------------------------------------------------------------------------
# the streamed first layer (eval and infer)


def test_apply_first_layer_writes_each_column_block_with_one_product(tmp_path, monkeypatch):
    model = init_model((17, 7, 2), seed=8)
    model.biases[0][:] = [0.5, -4.0, 0.25, 1.0, -0.5, 2.0, 0.0]
    path = tmp_path / "m.bin"
    save_model(model, path)
    head = load_model(path)
    x = np.random.default_rng(8).normal(size=(4, 17))
    # each block of output units is one float32 product with its columns of
    # load_model's column-major float32 W0
    x32, w, b = x.astype(np.float32), head.weights[0], model.biases[0]
    for cols in (3, 7, 1):  # 3 blocks with a short last one; one block; one unit per block
        monkeypatch.setattr(formats, "BLOCK_COLUMNS", cols)
        z = np.concatenate([x32 @ w[:, j0:j0 + cols] for j0 in range(0, 7, cols)], axis=1)
        h, tail = apply_first_layer(path, x)
        assert h.tobytes() == np.maximum(z + b, 0.0).tobytes()
        assert tail.dims == (7, 2) and models_equal(tail, MlpModel((7, 2), model.weights[1:],
                                                                   model.biases[1:]))
        if cols == 7:  # one block: bitwise load_model's head
            assert h.tobytes() == _forward_batch(head, x)[1][1].tobytes()


def test_apply_first_layer_of_a_one_layer_model_returns_scores(tmp_path):
    model = init_model((6, 4), seed=2)
    model.biases[0][:] = -1.0
    path = tmp_path / "m.bin"
    save_model(model, path)
    x = np.random.default_rng(2).normal(size=(3, 6))
    scores, tail = apply_first_layer(path, x)
    assert tail is None
    assert scores.tobytes() == _forward_batch(load_model(path), x)[0].tobytes()


def test_apply_first_layer_peak_stays_near_one_read_block(tmp_path):
    model = init_model(BIG_DIMS, seed=5)
    assert BIG_DIMS[1] >= 16 * formats.BLOCK_COLUMNS  # layer 0 spans 16 blocks
    path = tmp_path / "m.bin"
    save_model(model, path)
    x = np.random.default_rng(5).normal(size=(4, BIG_DIMS[0]))
    # the float32 read buffer and its bool finite check, x in float32, the
    # small outputs and later layers
    peak = _traced_peak(apply_first_layer, path, x)
    assert peak <= 5 * formats.BLOCK_COLUMNS * BIG_DIMS[0] + 4 * x.size + (64 << 10)


def test_apply_first_layer_checks_each_parameter_once(tmp_path, monkeypatch):
    model = init_model((16, 4, 3, 2), seed=1)
    path = tmp_path / "m.bin"
    save_model(model, path)
    checked = {}

    def count(j, *arrays):
        checked[j] = checked.get(j, 0) + sum(a.size for a in arrays)
        return real(j, *arrays)

    real = mlp.check_finite
    monkeypatch.setattr(formats, "check_finite", count)
    monkeypatch.setattr(mlp, "check_finite", count)
    apply_first_layer(path, np.ones((1, 16)))
    assert checked == {j: w.size + b.size
                       for j, (w, b) in enumerate(zip(model.weights, model.biases))}


# the eval config of the streamed fuzz: 8x8 images, one U1 plane, 16 features
STREAM_CFG = PipelineConfig(width=8, height=8, scatter=TINY, classes=("a", "b"))
# weights in [1, 2) put 0x3f high bytes in the file, in float32 and float64
# alike, so one flip (^ 0x40) can make an inf or a NaN in any layer
STREAM_RAW = _model_file((16, 3, 2), _params(
    (16, 3, 2), np.linspace(1.0, 2.0, 16 * 3 + 3 + 3 * 2 + 2, endpoint=False)))


def _stream_inputs(root):
    feat, manifest = root / "stream.feat", root / "stream.tsv"
    write_features(feat, np.random.default_rng(5).normal(size=(3, 16)), TINY_TEXT, 16)
    manifest.write_text("x.ppm\ta\ny.ppm\tb\nz.ppm\ta\n")
    return feat, manifest


def test_eval_checks_the_model_fit_before_reading_parameters(tmp_path, monkeypatch):
    path = tmp_path / "m.bin"
    save_model(init_model((6, 4, 2), seed=2), path)
    feat, manifest = _stream_inputs(tmp_path)
    monkeypatch.setattr(formats, "_fill", lambda *a: pytest.fail("read parameters first"))
    with pytest.raises(DataError, match="model expects 6 inputs, config implies 16"):
        run_eval(STREAM_CFG, feat, manifest, path)


def _readers(tmp_path, path):
    """load_model, eval and infer of a model file, each as a call."""
    feat, manifest = _stream_inputs(tmp_path)
    image = tmp_path / "x.ppm"
    write_ppm(image, np.zeros((8, 8, 3), dtype=np.uint8))
    return (lambda: load_model(path), lambda: run_eval(STREAM_CFG, feat, manifest, path),
            lambda: run_infer(STREAM_CFG, path, image))


def test_version_1_model_file_is_rejected_by_every_reader(tmp_path):
    model = init_model((16, 4, 2), seed=6)
    path = tmp_path / "v1.bin"
    # version 1 stored every layer's weights row-major in float64
    path.write_bytes(MODEL_MAGIC + b"\x01" + struct.pack("<4Q", 3, *model.dims)
                     + b"".join(a.astype("<f8").tobytes()
                                for w, b in zip(model.weights, model.biases) for a in (w, b)))
    for read in _readers(tmp_path, path):
        with pytest.raises(DataError, match=r"v1\.bin: unsupported version 1 at byte offset 8$"):
            read()


@settings(deadline=None, max_examples=300)
@given(data=_mutated(STREAM_RAW))
def test_eval_mutated_models_raise_load_model_or_fit_errors(tmp_path_factory, data):
    feat, manifest = _stream_inputs(tmp_path_factory.getbasetemp())
    path = _fuzz_file(tmp_path_factory, data)
    try:
        held, want = load_model(path), None
    except DataError as exc:
        held, want = None, str(exc)
    misfit = re.compile(re.escape(str(path)) + r": model (expects \d+ inputs, config implies 16"
                        r"|has \d+ outputs, config names 2 classes) at byte offset \d+")
    try:
        report = run_eval(STREAM_CFG, feat, manifest, path)
    except DataError as exc:
        if str(exc) != want:
            # the fit check runs after the header checks and before any parameter is read
            assert misfit.fullmatch(str(exc))
            assert held is None and want.endswith("non-finite parameters") or (
                held is not None and (held.dims[0], held.classes) != (16, 2))
        return
    assert held is not None and report.count == 3


def test_eval_and_infer_take_a_one_layer_model(tmp_path):
    model = init_model((16, 2), seed=4)
    model.biases[0][:] = [0.25, -0.5]
    path = tmp_path / "m.bin"
    save_model(model, path)
    feat, manifest = _stream_inputs(tmp_path)
    head = load_model(path)  # layer 0 fits one block: eval and infer are bitwise its scores
    held = mlp_predict(head, read_features(feat)[0])
    report = run_eval(STREAM_CFG, feat, manifest, path)
    assert report.count == 3 and report.accuracy == np.mean(held == [0, 1, 0])
    image = tmp_path / "x.ppm"
    write_ppm(image, np.random.default_rng(4).integers(0, 256, (8, 8, 3), dtype=np.uint8))
    x = extract_features(load_image_channel(image, "B"), TINY)
    want = softmax(mlp_forward(head, x))
    assert run_infer(STREAM_CFG, path, image).scores == tuple(float(p) for p in want)


@pytest.mark.parametrize("layer", [0, 1, 2])
@pytest.mark.parametrize("part", ["weights", "biases"])
def test_streamed_head_names_the_non_finite_layer(tmp_path, layer, part):
    model = init_model((16, 4, 3, 2), seed=1)
    getattr(model, part)[layer].flat[-1] = np.inf
    path = tmp_path / "m.bin"
    save_model(model, path)
    for read in _readers(tmp_path, path):
        with pytest.raises(DataError) as exc:
            read()
        assert str(exc.value) == f"layer {layer}: non-finite parameters"


F32_MAX = float(np.finfo(np.float32).max)


@pytest.mark.parametrize("value, valid", [
    (F32_MAX, True),
    (np.nextafter(F32_MAX, np.inf), True),  # rounds down to float32's largest value
    (2.0 * F32_MAX, False),                 # finite in float64, inf in float32
    (-1e300, False),
])
def test_layer0_is_valid_iff_its_float32_cast_is_finite_for_every_reader(tmp_path, value, valid):
    model = init_model((16, 4, 2), seed=6)
    model.weights[0][3, 1] = value
    path = tmp_path / "m.bin"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # the finite check reports it, not a cast warning
        save_model(model, path)  # the file holds the cast: inf beyond float32's range
        for read in _readers(tmp_path, path):
            if valid:
                read()
            else:
                with pytest.raises(DataError) as exc:
                    read()
                assert str(exc.value) == "layer 0: non-finite parameters"


# ---------------------------------------------------------------------------
# manifests and config files


def test_manifest_round_trip(tmp_path):
    records = [ManifestRecord(str(tmp_path / "a.ppm"), "nest"),
               ManifestRecord(str(tmp_path / "b.ppm"), "kite")]
    path = tmp_path / "list.tsv"
    write_manifest(path, records)
    assert read_manifest(path) == records


def test_manifest_resolves_relative_paths(tmp_path):
    path = tmp_path / "list.tsv"
    path.write_text("imgs/a.ppm\tnest\n\n/abs/b.ppm\tkite\n")
    records = read_manifest(path)
    assert records[0] == ManifestRecord(str(tmp_path / "imgs" / "a.ppm"), "nest")
    assert records[1] == ManifestRecord("/abs/b.ppm", "kite")


def test_manifest_errors_name_line(tmp_path):
    path = tmp_path / "list.tsv"
    path.write_text("ok.ppm\tnest\nno-tab-here\n")
    with pytest.raises(DataError, match=r"list\.tsv:2: expected path<TAB>label"):
        read_manifest(path)
    path.write_text("\tnest\n")
    with pytest.raises(DataError, match=r"list\.tsv:1: empty path or label"):
        read_manifest(path)
    path.write_text("ok.ppm\tnest\na\0b.ppm\tkite\n")
    with pytest.raises(DataError, match=r"list\.tsv:2: NUL byte in path"):
        read_manifest(path)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nwidth = 64\nheight=48 # trailing\n\nwidth=32\n")
    assert parse_config_file(path) == {"width": "32", "height": "48"}
    path.write_text("width 64\n")
    with pytest.raises(DataError, match=r"run\.cfg:1: expected key=value"):
        parse_config_file(path)


def test_text_inputs_must_be_utf8(tmp_path):
    path = tmp_path / "list.tsv"
    path.write_bytes(b"a.ppm\tnest\n\xffb.ppm\tkite\n")
    with pytest.raises(DataError, match=r"list\.tsv: not UTF-8 text .* at byte offset 11"):
        read_manifest(path)
    path = tmp_path / "run.cfg"
    path.write_bytes(b"width = 64\nheight = 6\xc34\n")
    with pytest.raises(DataError, match=r"run\.cfg: not UTF-8 text .* at byte offset 21"):
        parse_config_file(path)


def test_text_lines_split_as_text_mode_files_do(tmp_path):
    # \r\n and \r end lines; \x0b and \x85 stay inside one
    path = tmp_path / "list.tsv"
    body = "a.ppm\tne\x0bst\r\nb.ppm\tki\x85te\r"
    path.write_bytes(body.encode())
    assert [r.label for r in read_manifest(path)] == ["ne\x0bst", "ki\x85te"]
    path.write_bytes((body + "no-tab\n").encode())
    with pytest.raises(DataError, match=r"list\.tsv:3: expected path<TAB>label"):
        read_manifest(path)


# ---------------------------------------------------------------------------
# mutation fuzz: each parser returns a result or raises DataError, never a
# traceback (load_model's fuzz sits with the model files above)


# TINY's header text, with two 16-float records: a flip can land in the text's
# length, the text or the vector length
FEATURES_RAW = (FEATURE_MAGIC + struct.pack("<Q", len(TINY_TEXT)) + TINY_TEXT
                + struct.pack("<Q", 16) + np.arange(32, dtype="<f4").tobytes())
PNM_RAWS = (b"P6\n3 2\n255\n" + bytes(range(0, 180, 10)),
            b"P5\n# gray\n4 2\n200\n" + bytes(range(0, 200, 25)))
MANIFEST_RAW = "imgs/a.ppm\tnest\n/abs/b.ppm\tkite\n\nc.ppm\tplastic\n".encode()
CONFIG_RAW = ("# run\nwidth = 64\nheight=48\nbases = bior1.1,bior2.2\n"
              "selection = U1,S2 # two planes\nsmooth_decimate = off\n"
              "learning_rate = 0.01\nepochs = 3\n").encode()
LAYERS_RAW = ("conv2d K=3 C_out=4 P=1 bias=1  # stem\nrelu\nmaxpool K=2 S=2\n"
              "avgpool K=3 D=2\nfc O=16 bias=0\nrelu N=16\nfc I=16 O=5\n").encode()


def test_fuzz_seeds_are_well_formed(tmp_path_factory):
    assert load_model(_fuzz_file(tmp_path_factory, FUZZ_RAW)).dims == (3, 2, 2)
    assert load_model(_fuzz_file(tmp_path_factory, STREAM_RAW)).dims == (16, 3, 2)
    assert read_features(_fuzz_file(tmp_path_factory, FEATURES_RAW))[0].shape == (2, 16)
    shapes = [load_image_channel(_fuzz_file(tmp_path_factory, raw)).shape for raw in PNM_RAWS]
    assert shapes == [(2, 3), (2, 4)]
    assert len(read_manifest(_fuzz_file(tmp_path_factory, MANIFEST_RAW))) == 3
    p, t = overlay_configs(parse_config_file(_fuzz_file(tmp_path_factory, CONFIG_RAW)))
    assert (p.width, p.scatter.selection, t.epochs) == (64, ("U1", "S2"), 3)
    layers = parse_layers(read_text(_fuzz_file(tmp_path_factory, LAYERS_RAW)))
    assert network_flops(NetworkSpec(64, 48, 3, layers)).labels[-1] == "fc 16->5"


@settings(deadline=None, max_examples=300)
@given(data=_mutated(FEATURES_RAW))
def test_read_features_mutations_read_or_raise_data_error(tmp_path_factory, data):
    try:
        read_features(_fuzz_file(tmp_path_factory, data))
    except DataError:
        pass


@settings(deadline=None, max_examples=300)
@given(data=st.sampled_from(PNM_RAWS).flatmap(_mutated))
def test_load_image_channel_mutations_load_or_raise_data_error(tmp_path_factory, data):
    try:
        load_image_channel(_fuzz_file(tmp_path_factory, data))
    except DataError:
        pass


@settings(deadline=None, max_examples=300)
@given(data=_mutated(MANIFEST_RAW))
def test_read_manifest_mutations_read_or_raise_data_error(tmp_path_factory, data):
    try:
        read_manifest(_fuzz_file(tmp_path_factory, data))
    except DataError:
        pass


@settings(deadline=None, max_examples=300)
@given(data=_mutated(CONFIG_RAW))
def test_config_file_mutations_apply_or_raise_data_error(tmp_path_factory, data):
    try:
        overlay_configs(parse_config_file(_fuzz_file(tmp_path_factory, data)))
    except DataError:
        pass


@settings(deadline=None, max_examples=300)
@given(data=_mutated(LAYERS_RAW))
def test_layer_list_mutations_cost_or_raise_data_error(tmp_path_factory, data):
    # the CLI's --layers path: read, parse, propagate shapes and count
    try:
        layers = parse_layers(read_text(_fuzz_file(tmp_path_factory, data)))
        network_flops(NetworkSpec(64, 48, 3, layers))
    except (DataError, NumericError):
        pass
