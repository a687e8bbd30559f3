"""End-to-end command line coverage, driving main() in process."""

import csv

import numpy as np
import pytest

from wavescat import pipeline
from wavescat.cli import main
from wavescat.formats import save_model
from wavescat.mlp import init_model
from wavescat.pipeline import HIDDEN
from wavescat.flops import pipeline_flops
from wavescat.scattering import ScatterConfig
from wavescat.synth import CLASSES

EPOCHS = 8


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


def test_numeric_error_exit(tmp_path, capsys):
    layers = tmp_path / "huge.layers"
    layers.write_text("fc O=4194304 bias=1\n")
    rc = main(["flops", "--layers", str(layers),
               "--width", "1048576", "--height", "1048576"])
    assert rc == 3
    assert "numeric error:" in capsys.readouterr().err


@pytest.mark.parametrize("settings, message", [
    ("depth = 32\nbases = " + ",".join(["bior1.1"] * 32) + "\nselection = S32\n",
     "depth must be <= 31, got 32"),
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
