"""Image, feature-file, model-file, manifest, and config-file round trips."""

import struct

import numpy as np
import pytest

from wavescat.errors import DataError
from wavescat.formats import (
    FEATURE_MAGIC,
    MODEL_MAGIC,
    ManifestRecord,
    bitmask_selection,
    load_model,
    parse_config_file,
    read_features,
    read_manifest,
    save_model,
    selection_bitmask,
    write_features,
    write_manifest,
)
from wavescat.mlp import init_model, models_equal
from wavescat.ppm import load_image_channel, write_ppm
from wavescat.scattering import ScatterConfig

TINY = ScatterConfig(depth=1, level_bases=("bior1.1",), selection=("U1",))


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


def test_pgm_sample_above_maxval_rejected(tmp_path):
    path = tmp_path / "over.pgm"
    path.write_bytes(b"P5\n3 1\n15\n\x00\x10\x0f")
    # header is 10 bytes, the second sample sits at offset 11
    with pytest.raises(DataError, match="sample above maxval 15 at byte offset 11"):
        load_image_channel(path, "B")


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


def test_png_round_trip_when_pillow_present(tmp_path):
    PIL = pytest.importorskip("PIL.Image")
    rgb = np.random.default_rng(2).integers(0, 256, size=(6, 5, 3), dtype=np.uint8)
    path = tmp_path / "img.png"
    PIL.fromarray(rgb, mode="RGB").save(path)
    assert np.array_equal(load_image_channel(path, "G"), rgb[:, :, 1] / 255.0)


def test_unknown_channel_rejected(tmp_path):
    with pytest.raises(DataError, match="unknown channel 'Z'"):
        load_image_channel(tmp_path / "nope.ppm", "Z")


def test_write_ppm_validates_shape(tmp_path):
    with pytest.raises(DataError, match=r"\(h, w, 3\) uint8"):
        write_ppm(tmp_path / "bad.ppm", np.zeros((4, 4), dtype=np.uint8))


# ---------------------------------------------------------------------------
# selection bitmask


def test_selection_bitmask_uses_declared_plane_order():
    # depth 3 plane order: S0, U1, U2, U3, S1, S2, S3 -> bits 0..6
    assert selection_bitmask(3, ("U1", "U2", "U3")) == 0b0001110
    assert selection_bitmask(3, ("S0",)) == 0b0000001
    assert selection_bitmask(3, ("S3",)) == 0b1000000
    assert bitmask_selection(3, 0b0001110) == ("U1", "U2", "U3")
    assert bitmask_selection(3, 0b1000001) == ("S0", "S3")


def test_bitmask_round_trip_and_guard():
    for sel in [("U1",), ("S0", "U2"), ("S0", "U1", "U2", "S1", "S2")]:
        mask = selection_bitmask(2, sel)
        assert set(bitmask_selection(2, mask)) == set(sel)
    with pytest.raises(DataError, match="beyond the 5 planes"):
        bitmask_selection(2, 1 << 5)


# ---------------------------------------------------------------------------
# feature files


def test_feature_file_holds_the_deepest_config(tmp_path):
    deep = ScatterConfig(depth=31, level_bases=("bior1.1",) * 31, selection=("S31",))
    path = tmp_path / "deep.bin"
    write_features(path, [np.ones(1)], 8, 8, deep)
    vecs, header = read_features(path)
    assert (header["depth"], header["selection"], vecs.shape) == (31, ("S31",), (1, 1))
    raw = path.read_bytes()
    path.write_bytes(raw[:24] + struct.pack("<Q", 32) + raw[32:])
    with pytest.raises(DataError, match="implausible depth 32 at byte offset 24"):
        read_features(path)


def test_feature_file_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    rows = [rng.random(16) for _ in range(3)]
    path = tmp_path / "f.bin"
    write_features(path, rows, 8, 8, TINY)
    vecs, header = read_features(path)
    assert header == {"width": 8, "height": 8, "depth": 1,
                      "bases": ("bior1.1",), "selection": ("U1",), "veclen": 16}
    assert vecs.shape == (3, 16)
    assert np.array_equal(vecs, np.array(rows, dtype=np.float32))


def test_feature_file_empty_still_carries_length(tmp_path):
    path = tmp_path / "empty.bin"
    write_features(path, [], 8, 8, TINY)
    vecs, header = read_features(path)
    assert vecs.shape == (0, 16)
    assert header["veclen"] == 16


def test_feature_file_magic_layout(tmp_path):
    path = tmp_path / "f.bin"
    write_features(path, [np.zeros(16)], 8, 8, TINY)
    data = path.read_bytes()
    assert data[:8] == FEATURE_MAGIC == b"IWSNFV01"
    # width, height, depth, one basis id, mask, veclen as u64 LE
    assert struct.unpack_from("<6Q", data, 8) == (8, 8, 1, 1, 0b10, 16)
    assert len(data) == 8 + 6 * 8 + 16 * 4


def test_write_features_rejects_wrong_length(tmp_path):
    with pytest.raises(DataError, match="must have length 16, got 5"):
        write_features(tmp_path / "f.bin", [np.zeros(5)], 8, 8, TINY)


def test_read_features_error_offsets(tmp_path):
    good = tmp_path / "good.bin"
    write_features(good, [np.zeros(16)], 8, 8, TINY)
    raw = good.read_bytes()

    bad_magic = tmp_path / "bad_magic.bin"
    bad_magic.write_bytes(b"NOTMAGIC" + raw[8:])
    with pytest.raises(DataError, match="bad magic.*at byte offset 0"):
        read_features(bad_magic)

    short = tmp_path / "short.bin"
    short.write_bytes(raw[:20])
    with pytest.raises(DataError, match="truncated header"):
        read_features(short)

    bad_depth = tmp_path / "bad_depth.bin"
    bad_depth.write_bytes(raw[:24] + struct.pack("<Q", 10**6) + raw[32:])
    with pytest.raises(DataError, match="implausible depth 1000000 at byte offset 24"):
        read_features(bad_depth)

    bad_basis = tmp_path / "bad_basis.bin"
    bad_basis.write_bytes(raw[:32] + struct.pack("<Q", 99) + raw[40:])
    with pytest.raises(DataError, match="unknown basis id 99 at byte offset 32"):
        read_features(bad_basis)

    bad_mask = tmp_path / "bad_mask.bin"
    bad_mask.write_bytes(raw[:40] + struct.pack("<Q", 1 << 30) + raw[48:])
    with pytest.raises(DataError, match="bitmask.*beyond the 3 planes"):
        read_features(bad_mask)

    zero_len = tmp_path / "zero_len.bin"
    zero_len.write_bytes(raw[:48] + struct.pack("<Q", 0))
    with pytest.raises(DataError, match="zero vector length at byte offset 48"):
        read_features(zero_len)

    ragged = tmp_path / "ragged.bin"
    ragged.write_bytes(raw + b"\x00\x00")
    with pytest.raises(DataError, match="not a whole number of 16-float records"):
        read_features(ragged)


# a one-record file must hold a whole record; a zero-record file any length
# an array can hold (2**61 float32 is one byte past the largest)
@pytest.mark.parametrize("records, veclen", [
    (0, 2**61), (0, 2**62), (0, 2**63 + 5), (0, 2**64 - 1),
    (1, 17), (1, 2**62), (1, 2**64 - 1),
])
def test_read_features_rejects_oversized_vector_length(tmp_path, records, veclen):
    path = tmp_path / "f.bin"
    write_features(path, [np.zeros(16)] * records, 8, 8, TINY)
    raw = path.read_bytes()
    path.write_bytes(raw[:48] + struct.pack("<Q", veclen) + raw[56:])
    with pytest.raises(DataError, match=f"vector length {veclen} does not fit .* byte offset 48"):
        read_features(path)


# ---------------------------------------------------------------------------
# model files


def test_model_round_trip_bitwise(tmp_path):
    model = init_model((10, 8, 5, 3), seed=44)
    path = tmp_path / "m.bin"
    save_model(model, path)
    loaded = load_model(path)
    assert loaded.dims == model.dims
    assert models_equal(loaded, model)
    assert loaded.seed is None
    save_model(loaded, tmp_path / "again.bin")
    assert (tmp_path / "again.bin").read_bytes() == path.read_bytes()


def test_model_file_layout(tmp_path):
    model = init_model((2, 3), seed=0)
    path = tmp_path / "m.bin"
    save_model(model, path)
    data = path.read_bytes()
    assert data[:8] == MODEL_MAGIC == b"IWSNML01"
    assert data[8] == 1
    assert struct.unpack_from("<Q", data, 9)[0] == 2
    assert struct.unpack_from("<2Q", data, 17) == (2, 3)
    assert len(data) == 8 + 1 + 8 + 16 + 8 * (2 * 3 + 3)


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
    wrong_version.write_bytes(raw[:8] + b"\x02" + raw[9:])
    with pytest.raises(DataError, match="unsupported version 2 at byte offset 8"):
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


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# comment\nwidth = 64\nheight=48 # trailing\n\nwidth=32\n")
    assert parse_config_file(path) == {"width": "32", "height": "48"}
    path.write_text("width 64\n")
    with pytest.raises(DataError, match=r"run\.cfg:1: expected key=value"):
        parse_config_file(path)
