"""End-to-end command line coverage, driving main() in process."""

import csv
import re
import struct
from pathlib import Path

import numpy as np
import pytest

from wavescat import pipeline
from wavescat.cli import main
from wavescat.formats import FEATURE_TEXT_OFFSET, read_features, save_model, write_features
from wavescat.mlp import init_model
from wavescat.pipeline import HIDDEN
from wavescat.flops import pipeline_flops
from wavescat.scattering import ScatterConfig
from wavescat.synth import CLASSES

EPOCHS = 8
SYNTH64 = Path(__file__).resolve().parents[1] / "configs" / "synth64.cfg"


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Synth -> extract -> train once; returns the path bundle."""
    root = tmp_path_factory.mktemp("cli")
    data = root / "data"
    assert main(["synth", "--out", str(data), "--per-class", "3", "--seed", "2"]) == 0
    manifest = data / "manifest.tsv"
    cfg = root / "train.cfg"
    cfg.write_text("width = 64\nheight = 64\n"
                   f"epochs = {EPOCHS}\nlearning_rate = 0.01\nbatch_size = 4\n")
    feat = root / "train.feat"
    assert main(["extract", "--manifest", str(manifest), "--out", str(feat),
                 "--config", str(cfg)]) == 0
    model = root / "model.bin"
    assert main(["train", "--features", str(feat), "--manifest", str(manifest),
                 "--out", str(model), "--config", str(cfg)]) == 0
    image = data / "nest_000.ppm"
    return {"manifest": manifest, "feat": feat, "cfg": cfg, "model": model,
            "image": image, "root": root}


def test_synth_reports_counts(tmp_path, capsys):
    rc = main(["synth", "--out", str(tmp_path / "d"), "--per-class", "2", "--seed", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "wrote 10 images" in out
    assert (tmp_path / "d" / "manifest.tsv").exists()


def test_extract_reports_counts(ws, tmp_path, capsys):
    out_path = tmp_path / "again.feat"
    rc = main(["extract", "--manifest", str(ws["manifest"]), "--out", str(out_path),
               "--config", str(ws["cfg"])])
    assert rc == 0
    assert f"wrote 15 feature records to {out_path}" in capsys.readouterr().out
    assert out_path.read_bytes() == ws["feat"].read_bytes()


def test_extract_threads_flag_keeps_bytes(ws, tmp_path, monkeypatch, capsys):
    # 64x64 planes run on the calling thread; a 1 px threshold forces the pool
    for min_pixels, used in ((pipeline.POOL_MIN_PIXELS, "1 worker)"), (1, "3 workers)")):
        monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS", min_pixels)
        out_path = tmp_path / f"t3-{min_pixels}.feat"
        assert main(["extract", "--manifest", str(ws["manifest"]), "--out", str(out_path),
                     "--config", str(ws["cfg"]), "--threads", "3"]) == 0
        assert capsys.readouterr().out.rstrip().endswith(used)
        assert out_path.read_bytes() == ws["feat"].read_bytes()


def test_extract_of_an_empty_manifest_uses_no_workers(ws, tmp_path, capsys):
    empty = tmp_path / "empty.tsv"
    empty.write_text("")
    # the 64x64 config, then the default 1280x720 planes
    for config in (["--config", str(ws["cfg"])], []):
        out_path = tmp_path / "empty.feat"
        assert main(["extract", "--manifest", str(empty), "--out", str(out_path),
                     "--threads", "2", *config]) == 0
        assert capsys.readouterr().out == f"wrote 0 feature records to {out_path} (0 workers)\n"


def test_train_output_and_csv(ws, tmp_path, capsys):
    model = tmp_path / "m.bin"
    report = tmp_path / "r.csv"
    rc = main(["train", "--features", str(ws["feat"]), "--manifest", str(ws["manifest"]),
               "--out", str(model), "--config", str(ws["cfg"]), "--csv", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert len([l for l in out.splitlines() if l.startswith("epoch ")]) == EPOCHS
    assert "train accuracy " in out and "test accuracy " in out
    assert "confusion matrix (rows actual, cols predicted)" in out
    assert f"model written to {model}" in out

    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["record", "field1", "field2", "value"]
    kinds = [r[0] for r in rows[1:]]
    assert kinds.count("loss") == EPOCHS
    assert kinds.count("matrix") == 25
    assert kinds.count("metric") == 15  # 5 classes x tpr/ppv/acc
    assert kinds.count("summary") == 4


def test_seed_flag_controls_training(ws, tmp_path):
    paths = []
    for name, seed in (("a", "5"), ("b", "5"), ("c", "6")):
        p = tmp_path / f"{name}.bin"
        assert main(["train", "--features", str(ws["feat"]), "--manifest",
                     str(ws["manifest"]), "--out", str(p), "--config", str(ws["cfg"]),
                     "--seed", seed]) == 0
        paths.append(p.read_bytes())
    assert paths[0] == paths[1]
    assert paths[0] != paths[2]


def test_eval_output(ws, tmp_path, capsys):
    report = tmp_path / "eval.csv"
    rc = main(["eval", "--features", str(ws["feat"]), "--manifest", str(ws["manifest"]),
               "--model", str(ws["model"]), "--config", str(ws["cfg"]),
               "--csv", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "confusion matrix (rows actual, cols predicted)" in out
    assert "accuracy " in out and "(15 samples)" in out
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    summary = {r[1]: r[3] for r in rows[1:] if r[0] == "summary"}
    assert summary["count"] == "15"
    matrix_total = sum(int(r[3]) for r in rows[1:] if r[0] == "matrix")
    assert matrix_total == 15


def test_infer_line_format(ws, capsys):
    rc = main(["infer", "--model", str(ws["model"]), "--image", str(ws["image"]),
               "--config", str(ws["cfg"])])
    out = capsys.readouterr().out.strip()
    assert rc == 0
    path, label, scores = out.split("\t")
    assert path == str(ws["image"])
    assert label in CLASSES
    pairs = [s.split("=") for s in scores.split(",")]
    assert [n for n, _ in pairs] == list(CLASSES)
    probs = np.array([float(v) for _, v in pairs])
    assert abs(probs.sum() - 1.0) <= 1e-6
    assert label == CLASSES[int(np.argmax(probs))]


def test_bench_output(ws, tmp_path, capsys):
    report = tmp_path / "bench.csv"
    rc = main(["bench", "--model", str(ws["model"]), "--image", str(ws["image"]),
               "--config", str(ws["cfg"]), "--frames", "2", "--peak", "30e9",
               "--csv", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "image 64x64, 2 frames, 1 thread\n" in out
    assert "ms/frame" in out
    assert "file decode excluded" in out
    assert "fps per GFLOPS (peak 3e+10)" in out
    with open(report, newline="") as fh:
        rows = {r[1]: r[3] for r in list(csv.reader(fh))[1:]}
    assert rows["frames"] == "2"
    assert "threads" not in rows
    assert float(rows["fps"]) > 0
    assert "efficiency" in rows


@pytest.mark.parametrize("frames", [5, 100])
def test_bench_prints_stage_medians_and_p90s(ws, tmp_path, capsys, frames):
    report = tmp_path / "bench.csv"
    rc = main(["bench", "--model", str(ws["model"]), "--image", str(ws["image"]),
               "--config", str(ws["cfg"]), "--frames", str(frames), "--csv", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert re.search(r"^median extract \d+\.\d{3} ms, classify \d+\.\d{3} ms$", out, re.M)
    with open(report, newline="") as fh:
        rows = {r[1]: r[3] for r in list(csv.reader(fh))[1:]}
    assert float(rows["extract_median_ms"]) > 0 and float(rows["classify_median_ms"]) > 0
    if frames < 100:
        assert "p90 not reported: needs at least 100 frames\n" in out
        assert "extract_p90_ms" not in rows and "classify_p90_ms" not in rows
    else:
        assert re.search(r"^p90 extract \d+\.\d{3} ms, classify \d+\.\d{3} ms$", out, re.M)
        for stage in ("extract", "classify"):
            assert float(rows[f"{stage}_p90_ms"]) >= float(rows[f"{stage}_median_ms"])


def test_bench_rejects_zero_frames(ws, capsys):
    rc = main(["bench", "--model", str(ws["model"]), "--image", str(ws["image"]),
               "--config", str(ws["cfg"]), "--frames", "0"])
    assert rc == 2
    assert "data error: frames must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["bench", "flops"])
@pytest.mark.parametrize("peak", ["0", "-1", "nan", "inf"])
def test_bad_peak_exit_2_before_any_report(ws, command, peak, capsys):
    if command == "bench":
        argv = ["bench", "--model", str(ws["model"]), "--image", str(ws["image"]),
                "--config", str(ws["cfg"]), "--frames", "2"]
    else:
        argv = ["flops", "--pipeline", "--width", "64", "--height", "64"]
    assert main([*argv, "--peak", peak]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("data error:") and "peak" in err
    assert out == ""


@pytest.mark.parametrize("selection", ["U3,U1,U2", "U1,U1"])
def test_selection_out_of_order_or_repeated_round_trips(ws, tmp_path, selection, capsys):
    cfg = tmp_path / "sel.cfg"
    cfg.write_text(ws["cfg"].read_text() + f"selection = {selection}\n")
    feat, model = tmp_path / "sel.feat", tmp_path / "sel.bin"
    common = ["--manifest", str(ws["manifest"]), "--config", str(cfg)]
    assert main(["extract", *common, "--out", str(feat)]) == 0
    assert main(["train", *common, "--features", str(feat), "--out", str(model)]) == 0
    assert main(["eval", *common, "--features", str(feat), "--model", str(model)]) == 0
    if selection == "U3,U1,U2":  # the default selection, written in another order
        assert feat.read_bytes() == ws["feat"].read_bytes()


def test_flops_reference_table(capsys):
    rc = main(["flops", "--layers", "configs/reference_cnn.layers"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[-1].split() == ["total", "821091304"]
    assert any("403878384" in l and "conv2d K=7" in l for l in lines)


def test_flops_mlp_head_file(capsys):
    rc = main(["flops", "--layers", "configs/mlp_head.layers",
               "--width", "1036800", "--height", "1", "--channels", "1"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.splitlines()[-1].split() == ["total", "66356592"]


def test_flops_pipeline_matches_library(capsys):
    rc = main(["flops", "--pipeline", "--width", "64", "--height", "64"])
    out = capsys.readouterr().out
    assert rc == 0
    want = pipeline_flops(64, 64, ScatterConfig(), 5, HIDDEN)
    assert out.splitlines()[-1].split() == ["total", str(want.total)]


@pytest.mark.parametrize("mode", [["--layers", "configs/reference_cnn.layers"], ["--pipeline"]],
                         ids=["layers", "pipeline"])
@pytest.mark.parametrize("dim", ["--width", "--height"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_flops_rejects_non_positive_dims(mode, dim, value, capsys):
    # an explicit 0 must not fall back to the default 1280x720 / config dims
    rc = main(["flops", *mode, dim, value])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and ">= 1" in err


def test_flops_rejects_a_config_whose_kernels_do_not_fit(tmp_path, capsys):
    cfg = tmp_path / "tiny.cfg"
    cfg.write_text("width = 8\nheight = 8\nvariant = classic\n"
                   "bases = bior2.6,bior1.3,bior2.2\nselection = S0,S1\n")
    rc = main(["flops", "--pipeline", "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert captured.err.startswith("data error: kernel side 13 does not fit")


def test_flops_peak_and_csv(tmp_path, capsys):
    report = tmp_path / "flops.csv"
    rc = main(["flops", "--pipeline", "--width", "64", "--height", "64",
               "--peak", "1e9", "--csv", str(report)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "theoretical time " in out and "at peak 1e+09 FLOPS" in out
    with open(report, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["layer", "flops", "description"]
    total = [r for r in rows if r[0] == "total"][0]
    per_layer = [int(r[1]) for r in rows[1:] if r[0].isdigit()]
    assert int(total[1]) == sum(per_layer)
    time_row = [r for r in rows if r[0] == "theoretical_time_s"][0]
    assert float(time_row[1]) == pytest.approx(sum(per_layer) / 1e9)


def test_dump_filters(capsys):
    rc = main(["flops", "--dump-filters"])
    out = capsys.readouterr().out
    assert rc == 0
    headers = [l for l in out.splitlines() if l.startswith("#")]
    assert len(headers) == 8  # four bases x (h, g)
    assert headers[0] == "# bior1.1 h"


def test_usage_errors(capsys):
    cases = [
        ["train", "--manifest", "m", "--out", "o"],          # missing --features
        ["extract"],                                          # needs manifest+out
        ["flops"],                                            # needs a mode
        ["flops", "--layers", "x", "--pipeline"],             # both modes
        ["bogus"],                                            # unknown subcommand
    ]
    for argv in cases:
        assert main(argv) == 1, argv
        assert "usage error:" in capsys.readouterr().err


def test_data_error_exit(tmp_path, capsys):
    rc = main(["extract", "--manifest", str(tmp_path / "missing.tsv"),
               "--out", str(tmp_path / "o.feat")])
    assert rc == 2
    assert "data error:" in capsys.readouterr().err


def test_extract_failures_exit_2(ws, tmp_path, capsys):
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("width = 96\nheight = 64\n")
    rc = main(["extract", "--manifest", str(ws["manifest"]),
               "--out", str(tmp_path / "o.feat"), "--config", str(cfg)])
    captured = capsys.readouterr()
    assert rc == 2
    assert "wrote 0 feature records" in captured.out
    assert "image is 64x64, config expects 96x64" in captured.err
    assert "no longer index-aligned" in captured.err


def test_extract_failure_lines_name_the_exception_type(ws, tmp_path, capsys):
    truncated = tmp_path / "a.ppm"
    truncated.write_bytes(ws["image"].read_bytes()[:17])
    missing = tmp_path / "gone.ppm"
    manifest = tmp_path / "manifest.tsv"
    manifest.write_text(f"{ws['image']}\tnest\n{truncated}\tnest\n{missing}\tkite\n")
    rc = main(["extract", "--manifest", str(manifest), "--out", str(tmp_path / "o.feat"),
               "--config", str(ws["cfg"])])
    err = capsys.readouterr().err.splitlines()
    assert rc == 2
    assert re.fullmatch(rf"failed: {re.escape(str(truncated))}: DataError: "
                        rf"{re.escape(str(truncated))}: .* at byte offset 17", err[0])
    assert err[1].startswith(f"failed: {missing}: FileNotFoundError: ")
    assert err[2] == "2 of 3 images failed; feature file is no longer index-aligned with the manifest"


def test_numeric_error_exit(tmp_path, capsys):
    layers = tmp_path / "huge.layers"
    layers.write_text("fc O=4194304 bias=1\n")
    rc = main(["flops", "--layers", str(layers),
               "--width", "1048576", "--height", "1048576"])
    assert rc == 3
    assert "numeric error:" in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    ("bases = " + ",".join(["bior1.1"] * 32) + "\nselection = S32\n",
     "need 1 to 31 bases, one per level, got 32"),
    ("selection =\n", "empty selection"),
], ids=["depth32", "empty-selection"])
def test_unstorable_config_exit_2(ws, tmp_path, capsys, settings, message):
    cfg = tmp_path / "deep.cfg"
    cfg.write_text("width = 64\nheight = 64\n" + settings)
    out = tmp_path / "o.feat"
    rc = main(["extract", "--manifest", str(ws["manifest"]), "--out", str(out),
               "--config", str(cfg)])
    assert rc == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_infer_model_length_mismatch_exit_2(ws, tmp_path, capsys):
    model = tmp_path / "short.bin"
    save_model(init_model((100, *HIDDEN, len(CLASSES))), model)
    rc = main(["infer", "--model", str(model), "--image", str(ws["image"]),
               "--config", str(ws["cfg"])])
    assert rc == 2
    assert "model expects 100 inputs, config implies 1344" in capsys.readouterr().err


def test_config_key_error_exit(ws, tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("colour = blue\n")
    rc = main(["extract", "--manifest", str(ws["manifest"]),
               "--out", str(tmp_path / "o.feat"), "--config", str(cfg)])
    assert rc == 2
    assert "unknown config key 'colour'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["synth", "--out", "d", "--config", "c.cfg"],
    ["synth", "--out", "d", "--threads", "2"],
    ["extract", "--manifest", "m", "--out", "o", "--seed", "1"],
    ["train", "--features", "f", "--manifest", "m", "--out", "o", "--threads", "2"],
    ["infer", "--model", "m", "--image", "i", "--threads", "2"],
    ["infer", "--model", "m", "--image", "i", "--seed", "1"],
    ["eval", "--features", "f", "--manifest", "m", "--model", "m", "--threads", "2"],
    ["eval", "--features", "f", "--manifest", "m", "--model", "m", "--seed", "1"],
    ["bench", "--model", "m", "--image", "i", "--seed", "1"],
    ["bench", "--model", "m", "--image", "i", "--threads", "2"],
    ["flops", "--pipeline", "--threads", "2"],
    ["flops", "--pipeline", "--seed", "1"],
], ids=lambda argv: f"{argv[0]}{argv[-2]}")
def test_subcommand_rejects_shared_flag_it_does_not_read(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and f"unrecognized arguments: {argv[-2]}" in err
    assert not (tmp_path / "d").exists()


def test_flops_layers_reads_dims_from_config(tmp_path, capsys):
    cfg = tmp_path / "540p.cfg"
    cfg.write_text("width = 960\nheight = 540\n")
    rc = main(["flops", "--layers", "configs/reference_cnn.layers", "--config", str(cfg)])
    assert rc == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "459278104"]


@pytest.mark.parametrize("reader", ["manifest", "config", "layers"])
def test_non_utf8_text_input_exit_2(tmp_path, capsys, reader):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"# \xff\n")
    argv = {"manifest": ["extract", "--manifest", str(bad), "--out", str(tmp_path / "o.feat")],
            "config": ["flops", "--pipeline", "--config", str(bad)],
            "layers": ["flops", "--layers", str(bad)]}[reader]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "not UTF-8 text" in err and "byte offset 2" in err


def test_manifest_path_with_nul_byte_exit_2(tmp_path, capsys):
    manifest = tmp_path / "nul.tsv"
    manifest.write_bytes(b"a\x00b.ppm\tnest\n")
    out = tmp_path / "o.feat"
    assert main(["extract", "--manifest", str(manifest), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "nul.tsv:1: NUL byte in path" in err
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "infer"])
def test_version_1_model_exit_2(ws, tmp_path, capsys, command):
    model = init_model((1344, *HIDDEN, len(CLASSES)), seed=0)
    path = tmp_path / "v1.bin"
    # version 1 stored every layer's weights row-major in float64
    path.write_bytes(b"IWSNML01\x01" + struct.pack("<5Q", 4, *model.dims)
                     + b"".join(a.astype("<f8").tobytes()
                                for w, b in zip(model.weights, model.biases) for a in (w, b)))
    argv = {"eval": ["eval", "--features", str(ws["feat"]), "--manifest", str(ws["manifest"])],
            "infer": ["infer", "--image", str(ws["image"])]}[command]
    assert main([*argv, "--model", str(path), "--config", str(ws["cfg"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "unsupported version 1 at byte offset 8" in err


def _rewrite_features(ws, path, edit_text=lambda text: text, edit_rows=lambda rows: None):
    """ws's feature file under an edited header text and with edited records."""
    vecs, header = read_features(ws["feat"])
    rows = vecs.copy()
    edit_rows(rows)
    write_features(path, rows, edit_text(header["config"]), header["veclen"])
    return header


def _train_and_eval_exit_2(ws, tmp_path, feat, capsys):
    """The stderr of train and eval on `feat`; both must exit 2 and write no model."""
    common = ["--manifest", str(ws["manifest"]), "--features", str(feat), "--config", str(SYNTH64)]
    errs = []
    for argv in (["train", *common, "--out", str(tmp_path / "m.bin")],
                 ["eval", *common, "--model", str(ws["model"])]):
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
        assert errs[-1].startswith("data error:")
    assert not (tmp_path / "m.bin").exists()
    return errs


def test_features_of_another_config_exit_2(ws, tmp_path, capsys):
    # same dims and feature length as synth64.cfg, other channel, variant and boundary
    cfg = tmp_path / "other.cfg"
    cfg.write_text(ws["cfg"].read_text() + "channel = R\nvariant = classic\nboundary = periodic\n")
    feat = tmp_path / "other.feat"
    assert main(["extract", "--manifest", str(ws["manifest"]), "--out", str(feat),
                 "--config", str(cfg)]) == 0
    capsys.readouterr()
    for err in _train_and_eval_exit_2(ws, tmp_path, feat, capsys):
        assert "extracted with b'channel = R', config has b'channel = B' at byte offset 39" in err


def test_feature_header_with_a_depth_line_exit_2(ws, tmp_path, capsys):
    # headers once held `depth = 3` before the bases; the depth is now their count
    feat = tmp_path / "depth.feat"
    header = _rewrite_features(ws, feat, lambda text: text.replace(b"bases", b"depth = 3\nbases"))
    at = FEATURE_TEXT_OFFSET + header["config"].index(b"bases")
    for err in _train_and_eval_exit_2(ws, tmp_path, feat, capsys):
        assert (f"extracted with b'depth = 3', config has b'bases = bior1.1,bior2.2,bior1.3' "
                f"at byte offset {at}") in err


def test_non_finite_feature_records_exit_2(ws, tmp_path, capsys):
    feat = tmp_path / "nan.feat"

    def spoil(rows):
        rows[4, 7], rows[9, 0] = np.nan, np.inf

    header = _rewrite_features(ws, feat, edit_rows=spoil)
    at = FEATURE_TEXT_OFFSET + len(header["config"]) + 8 + 4 * 4 * header["veclen"]
    for err in _train_and_eval_exit_2(ws, tmp_path, feat, capsys):
        assert f"non-finite value in record 4 at byte offset {at}" in err


def test_version_1_feature_file_exit_2(ws, tmp_path, capsys):
    path = tmp_path / "v1.feat"
    # version 1 stored width, height, depth, basis ids, a selection bitmask and veclen as u64s
    path.write_bytes(b"IWSNFV01" + struct.pack("<8Q", 64, 64, 3, 1, 2, 3, 0b1110, 1344)
                     + bytes(15 * 1344 * 4))
    assert main(["train", "--features", str(path), "--manifest", str(ws["manifest"]),
                 "--out", str(tmp_path / "m.bin"), "--config", str(ws["cfg"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("data error:") and "bad magic b'IWSNFV01'" in err
