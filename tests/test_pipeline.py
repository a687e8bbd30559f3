"""Manifest-to-report pipeline: extract, train, eval, infer, bench."""

import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from wavescat import formats, pipeline, synth
from wavescat.errors import DataError
from wavescat.formats import (ManifestRecord, apply_first_layer, load_model, read_features,
                              read_manifest, save_model, write_manifest)
from wavescat.metrics import multiclass_accuracy
from wavescat.mlp import (TrainConfig, _forward_batch, init_model, mlp_forward, predict,
                          softmax)
from wavescat.pipeline import (
    CONFIG_KEYS,
    HIDDEN,
    PipelineConfig,
    extract_features,
    load_labels,
    overlay_configs,
    run_bench,
    run_eval,
    run_extract,
    run_infer,
    run_train,
)
from wavescat.ppm import load_image_channel, write_ppm
from wavescat.scattering import ScatterConfig, feature_length

CFG64 = PipelineConfig(width=64, height=64)
QUICK = TrainConfig(learning_rate=0.01, epochs=30, batch_size=8, seed=0)


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("synth")
    manifest = synth.synth_dataset(root, per_class=6, width=64, height=64, seed=7)
    return manifest


@pytest.fixture(scope="module")
def features(dataset, tmp_path_factory):
    out = tmp_path_factory.mktemp("features") / "train.feat"
    report = run_extract(CFG64, dataset, out)
    assert report.failures == ()
    return out


@pytest.fixture(scope="module")
def trained(dataset, features, tmp_path_factory):
    path = tmp_path_factory.mktemp("model") / "model.bin"
    model, report = run_train(CFG64, QUICK, features, dataset, path)
    return path, model, report


# ---------------------------------------------------------------------------
# configs


def test_pipeline_config_validation():
    with pytest.raises(DataError, match="dims must be positive"):
        PipelineConfig(width=0)
    with pytest.raises(DataError, match="channel"):
        PipelineConfig(channel="Q")
    with pytest.raises(DataError, match="unique"):
        PipelineConfig(classes=("a", "a"))
    with pytest.raises(DataError, match="threads"):
        PipelineConfig(threads=0)
    assert PipelineConfig(classes=["a", "b"]).classes == ("a", "b")


def test_overlay_configs_routes_keys():
    mapping = {
        "width": "96", "height": "64", "channel": "G", "threads": "2",
        "classes": "cat, dog",
        "depth": "2", "bases": "bior1.1,bior2.2", "boundary": "periodic",
        "decimate": "3", "variant": "classic", "selection": "S0,U1",
        "smooth_with": "last", "smooth_decimate": "off",
        "learning_rate": "0.5", "momentum": "0", "epochs": "7", "batch_size": "4",
    }
    p, t = overlay_configs(mapping)
    assert (p.width, p.height, p.channel, p.threads) == (96, 64, "G", 2)
    assert p.classes == ("cat", "dog")
    s = p.scatter
    assert (s.depth, s.level_bases, s.boundary) == (2, ("bior1.1", "bior2.2"), "periodic")
    assert (s.decimate, s.variant, s.selection) == (3, "classic", ("S0", "U1"))
    assert (s.smooth_with, s.smooth_decimate) == ("last", False)
    assert (t.learning_rate, t.momentum, t.epochs, t.batch_size) == (0.5, 0.0, 7, 4)


def test_overlay_configs_rejects_bad_input():
    with pytest.raises(DataError, match="unknown config key 'color'"):
        overlay_configs({"color": "blue"})
    with pytest.raises(DataError, match="expected an integer"):
        overlay_configs({"width": "wide"})
    with pytest.raises(DataError, match="expected a boolean"):
        overlay_configs({"smooth_decimate": "maybe"})
    # merged result is re-validated by the dataclass
    with pytest.raises(DataError, match="one basis per level"):
        overlay_configs({"depth": "2"})


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_learning_rate_must_be_finite(text):
    with pytest.raises(DataError, match="learning_rate must be finite"):
        TrainConfig(learning_rate=float(text))
    with pytest.raises(DataError, match="learning_rate must be finite"):
        overlay_configs({"learning_rate": text})


_PLAUSIBLE = st.sampled_from(["0", "1", "2", "-1", "31", "32", "1e400", "nan", "", "on",
                              "B", "bior1.1", "bior1.1,bior2.2", "U1,S0", "periodic",
                              "classic", "last", "a,b"])


@settings(deadline=None)
@given(st.dictionaries(st.sampled_from([*CONFIG_KEYS, "model_path"]) | st.text(max_size=8),
                       _PLAUSIBLE | st.text(max_size=12), max_size=6))
def test_overlay_configs_returns_configs_or_data_error(mapping):
    try:
        p, t = overlay_configs(mapping)
    except DataError:
        return
    assert isinstance(p, PipelineConfig) and isinstance(t, TrainConfig)
    assert "model_path" not in mapping


def test_overlay_preserves_given_bases():
    base = PipelineConfig(width=64, height=64)
    p, _ = overlay_configs({"threads": "3"}, pipeline=base)
    assert p.scatter == base.scatter
    assert p.width == 64 and p.threads == 3


# ---------------------------------------------------------------------------
# synth corpus


def test_synth_writes_counted_valid_images(dataset):
    records = read_manifest(dataset)
    assert len(records) == 30
    labels = [r.label for r in records]
    assert labels == [c for c in synth.CLASSES for _ in range(6)]
    plane = load_image_channel(records[0].path, "B")
    assert plane.shape == (64, 64)
    assert 0.0 <= plane.min() and plane.max() <= 1.0


def test_synth_is_bitwise_deterministic(tmp_path):
    a = synth.synth_dataset(tmp_path / "a", per_class=2, seed=5)
    b = synth.synth_dataset(tmp_path / "b", per_class=2, seed=5)
    for ra, rb in zip(read_manifest(a), read_manifest(b)):
        assert os.path.basename(ra.path) == os.path.basename(rb.path)
        assert Path(ra.path).read_bytes() == Path(rb.path).read_bytes()
    c = synth.synth_dataset(tmp_path / "c", per_class=2, seed=6)
    diff = [Path(r.path).read_bytes() != Path(r2.path).read_bytes()
            for r, r2 in zip(read_manifest(a), read_manifest(c))]
    assert any(diff)


def test_synth_manifest_is_one_relative_line_per_image(tmp_path):
    manifest = synth.synth_dataset(tmp_path, per_class=2, seed=5, n_classes=2)
    want = "".join(f"{label}_{i:03d}.ppm\t{label}\n"
                   for label in synth.CLASSES[:2] for i in range(2))
    assert Path(manifest).read_bytes() == want.encode()


def test_synth_guards(tmp_path):
    with pytest.raises(DataError, match="at least 64x64"):
        synth.synth_dataset(tmp_path, width=32)
    with pytest.raises(DataError, match="per_class"):
        synth.synth_dataset(tmp_path, per_class=0)
    with pytest.raises(DataError, match="n_classes"):
        synth.synth_dataset(tmp_path, n_classes=9)
    with pytest.raises(DataError, match="unknown synth class"):
        synth.render_image("rocket", np.random.default_rng(0), 64, 64)


def test_load_labels_rejects_unknown(dataset):
    records = read_manifest(dataset)
    assert load_labels(records[:7], synth.CLASSES).tolist() == [0] * 6 + [1]
    with pytest.raises(DataError, match="label 'nest' not in configured classes"):
        load_labels(records[:1], ("cat", "dog"))


# ---------------------------------------------------------------------------
# extract


def test_extract_writes_aligned_features(dataset, features):
    vecs, header = read_features(features)
    assert vecs.shape == (30, feature_length(64, 64, CFG64.scatter))
    assert header["veclen"] == 1344
    records = read_manifest(dataset)
    for i in (0, 13, 29):
        plane = load_image_channel(records[i].path, "B")
        want = extract_features(plane, CFG64.scatter).astype(np.float32)
        assert np.array_equal(vecs[i], want)


def test_extract_thread_count_does_not_change_bytes(dataset, features, tmp_path, monkeypatch):
    # 64x64 planes run on the calling thread; a 1 px threshold forces the pool
    for min_pixels in (pipeline.POOL_MIN_PIXELS, 1):
        monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS", min_pixels)
        for threads in (2, 4):
            out = tmp_path / f"threads{threads}-{min_pixels}.feat"
            report = run_extract(PipelineConfig(width=64, height=64, threads=threads),
                                 dataset, out)
            assert report.failures == ()
            assert report.workers == (threads if min_pixels == 1 else 1)
            assert out.read_bytes() == features.read_bytes()


def test_extract_picks_workers_from_plane_size_and_image_count(dataset, tmp_path,
                                                               monkeypatch):
    records = read_manifest(dataset)
    three = tmp_path / "three.tsv"
    three.write_text("".join(f"{r.path}\t{r.label}\n" for r in records[:3]))
    real = pipeline.extract_features
    seen = []

    def spy(plane, config):
        seen.append((threading.current_thread(), threading.active_count()))
        return real(plane, config)

    monkeypatch.setattr(pipeline, "extract_features", spy)
    before = threading.active_count()
    report = run_extract(PipelineConfig(width=64, height=64, threads=4), dataset,
                         tmp_path / "small.feat")
    assert report.workers == 1 and len(seen) == report.written == 30
    assert all(t is threading.main_thread() and n == before for t, n in seen)

    seen.clear()
    monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS", 1)
    report = run_extract(PipelineConfig(width=64, height=64, threads=8), three,
                         tmp_path / "pool.feat")
    used = {t for t, _ in seen}
    assert report.workers == 3 and len(seen) == 3
    assert threading.main_thread() not in used and len(used) <= 3
    assert threading.active_count() == before


def test_extract_records_failures_and_skips(dataset, tmp_path, monkeypatch):
    records = read_manifest(dataset)
    work = tmp_path / "broken"
    work.mkdir()
    manifest = work / "manifest.tsv"
    rows = [f"{r.path}\t{r.label}" for r in records[:4]]
    truncated = work / "short.ppm"
    truncated.write_bytes(Path(records[0].path).read_bytes()[:40])
    rows.insert(2, f"{truncated}\tkite")
    small = work / "small.ppm"
    write_ppm(small, np.zeros((8, 8, 3), dtype=np.uint8))
    rows.append(f"{small}\tnest")
    manifest.write_text("\n".join(rows) + "\n")

    out = work / "out.feat"
    # the calling thread, then a pool forced by a 1 px threshold
    for min_pixels in (pipeline.POOL_MIN_PIXELS, 1):
        monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS", min_pixels)
        report = run_extract(replace(CFG64, threads=2), manifest, out)
        assert report.written == 4
        assert [p for p, _ in report.failures] == [str(truncated), str(small)]
        assert "truncated raster" in report.failures[0][1]
        assert "image is 8x8, config expects 64x64" in report.failures[1][1]
        vecs, _ = read_features(out)
        assert len(vecs) == 4


def test_extract_fails_fast_on_an_unexpected_worker_error(dataset, tmp_path, monkeypatch):
    records = read_manifest(dataset)
    manifest = tmp_path / "fifty.tsv"
    fifty = [records[i % len(records)] for i in range(50)]
    manifest.write_text("".join(f"{r.path}\t{r.label}\n" for r in fifty))
    first = load_image_channel(records[0].path, "B")
    calls = []

    def flaky(plane, config):
        calls.append(1)
        if np.array_equal(plane, first):
            raise RuntimeError("boom on the first image")
        time.sleep(0.01)
        return np.zeros(feature_length(64, 64, config))

    monkeypatch.setattr(pipeline, "extract_features", flaky)
    before = threading.active_count()
    # the calling thread stops at once; the forced pool cancels what has not started
    for min_pixels, most_calls in ((pipeline.POOL_MIN_PIXELS, 1), (1, 4)):
        monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS", min_pixels)
        calls.clear()
        with pytest.raises(RuntimeError, match="boom on the first image"):
            run_extract(replace(CFG64, threads=2), manifest, tmp_path / "out.feat")
        assert 1 <= len(calls) <= most_calls
        assert threading.active_count() == before
        assert not (tmp_path / "out.feat").exists()


def test_extract_validates_labels_before_work(dataset, tmp_path):
    records = read_manifest(dataset)
    manifest = tmp_path / "bad_labels.tsv"
    manifest.write_text(f"{records[0].path}\tufo\n")
    with pytest.raises(DataError, match="label 'ufo' not in configured classes"):
        run_extract(CFG64, manifest, tmp_path / "out.feat")
    assert not (tmp_path / "out.feat").exists()


# ---------------------------------------------------------------------------
# train / eval / infer


def test_train_report_shapes(trained):
    path, model, report = trained
    # per-class split: floor(0.8*6)=4 train, 2 test, 5 classes
    assert report.train_count == 20 and report.test_count == 10
    assert len(report.history) == QUICK.epochs
    assert model.dims == (1344, *HIDDEN, 5)
    assert report.matrix.total == 10
    assert len(report.per_class) == 5
    assert 0.0 <= report.train_accuracy <= 1.0
    assert 0.0 <= report.test_accuracy <= 1.0
    oracles.assert_inference_copy(load_model(path), model)


def test_train_is_deterministic(dataset, features, tmp_path):
    runs = []
    for name in ("one", "two"):
        p = tmp_path / f"{name}.bin"
        model, report = run_train(CFG64, QUICK, features, dataset, p)
        runs.append((p.read_bytes(), report))
    assert runs[0][0] == runs[1][0]
    assert runs[0][1].history == runs[1][1].history


def test_train_rejects_misaligned_manifest(dataset, features, tmp_path):
    records = read_manifest(dataset)
    manifest = tmp_path / "extra.tsv"
    manifest.write_text("\n".join(f"{r.path}\t{r.label}" for r in records)
                        + f"\n{records[0].path}\tnest\n")
    with pytest.raises(DataError, match="30 feature records, but manifest .* has 31"):
        run_train(CFG64, QUICK, features, manifest, tmp_path / "m.bin")


def test_train_needs_two_classes(tmp_path):
    manifest = synth.synth_dataset(tmp_path / "mono", per_class=4, seed=1, n_classes=1)
    feat = tmp_path / "mono.feat"
    run_extract(CFG64, manifest, feat)
    with pytest.raises(DataError, match="at least 2 classes"):
        run_train(CFG64, QUICK, feat, manifest, tmp_path / "m.bin")


def test_header_consistency_checks(dataset, features, tmp_path):
    wrong_dims = PipelineConfig(width=96, height=64)
    with pytest.raises(DataError, match="extracted from 64x64 images"):
        run_train(wrong_dims, QUICK, features, dataset, tmp_path / "m.bin")
    wrong_sel = PipelineConfig(width=64, height=64,
                               scatter=ScatterConfig(selection=("S0", "U1", "U2")))
    with pytest.raises(DataError, match="features select"):
        run_train(wrong_sel, QUICK, features, dataset, tmp_path / "m.bin")
    wrong_bases = PipelineConfig(width=64, height=64, scatter=ScatterConfig(
        level_bases=("bior1.1", "bior1.1", "bior1.1")))
    with pytest.raises(DataError, match="features use bases"):
        run_train(wrong_bases, QUICK, features, dataset, tmp_path / "m.bin")


def test_eval_full_set(dataset, features, trained):
    path, _, _ = trained
    report = run_eval(CFG64, features, dataset, path)
    assert report.count == 30
    assert report.matrix.total == 30
    assert 0.0 <= report.accuracy <= 1.0
    assert sorted(r[0] for r in report.per_class) == sorted(synth.CLASSES)


def test_eval_rejects_class_count_mismatch(dataset, features, trained, tmp_path):
    path, _, _ = trained
    two = PipelineConfig(width=64, height=64, classes=("nest", "kite"))
    manifest = tmp_path / "two.tsv"
    records = read_manifest(dataset)[:12]
    manifest.write_text("".join(f"{r.path}\t{r.label}\n" for r in records))
    feat = tmp_path / "two.feat"
    run_extract(two, manifest, feat)
    with pytest.raises(DataError, match="model has 5 outputs, config names 2"):
        run_eval(two, feat, manifest, path)


def test_infer_returns_probabilities(dataset, trained):
    path, model, _ = trained
    records = read_manifest(dataset)
    result = run_infer(CFG64, path, records[0].path)
    assert result.path == records[0].path
    assert result.label in synth.CLASSES
    assert len(result.scores) == 5
    assert abs(sum(result.scores) - 1.0) <= 1e-9
    assert result.label == synth.CLASSES[int(np.argmax(result.scores))]
    again = run_infer(CFG64, path, records[0].path)
    assert again == result


def test_infer_zero_model_gives_uniform_scores(dataset, tmp_path):
    from wavescat.mlp import MlpModel
    dims = (1344, *HIDDEN, 5)
    zero = MlpModel(dims, [np.zeros((dims[j], dims[j + 1])) for j in range(3)],
                    [np.zeros(dims[j + 1]) for j in range(3)])
    path = tmp_path / "zero.bin"
    save_model(zero, path)
    records = read_manifest(dataset)
    result = run_infer(CFG64, path, records[5].path)
    assert result.scores == (0.2,) * 5
    assert result.label == synth.CLASSES[0]


# ---------------------------------------------------------------------------
# eval and infer stream the model's layer 0 from its file


def _held_eval(config, features_path, manifest_path, model):
    """The reference for run_eval: predict on a model held whole (compare
    reports by repr; the confusion matrix is an array)."""
    vecs, labels = pipeline._load_aligned(config, features_path, manifest_path)
    mat = pipeline._confusion(config, labels, predict(model, vecs))
    return pipeline.EvalReport(len(labels), multiclass_accuracy(mat), mat,
                               pipeline._per_class_rows(mat))


def _held_probs(config, model, image_path):
    plane = load_image_channel(image_path, config.channel)
    return softmax(mlp_forward(model, extract_features(plane, config.scatter)))


def test_streamed_head_is_bitwise_when_layer0_fits_one_block(dataset, features, trained,
                                                            monkeypatch):
    path, model, _ = trained
    monkeypatch.setattr(formats, "LOAD_BYTES", 8 * model.dims[0] * model.dims[1])  # 688 KB
    head = load_model(path)
    held = _held_eval(CFG64, features, dataset, head)
    assert repr(run_eval(CFG64, features, dataset, path)) == repr(held)
    vecs = read_features(features)[0]
    h, tail = apply_first_layer(path, vecs, lambda dims: None)
    assert _forward_batch(tail, h)[0].tobytes() == _forward_batch(head, vecs)[0].tobytes()
    for rec in read_manifest(dataset)[:6]:
        want = tuple(float(p) for p in _held_probs(CFG64, head, rec.path))
        assert run_infer(CFG64, path, rec.path).scores == want


def test_float32_head_keeps_every_decision_on_the_trained_fixture(features, trained):
    path, model, _ = trained
    vecs = read_features(features)[0].astype(np.float64)
    head = load_model(path)
    assert head.weights[0].dtype == np.float32
    assert np.array_equal(predict(head, vecs), predict(model, vecs))
    moved = np.abs(_forward_batch(head, vecs)[0] - _forward_batch(model, vecs)[0])
    assert (moved <= oracles.float32_head_score_bound(model, vecs)).all()


CFG512 = PipelineConfig(width=512, height=512)


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    """A 512x512 pipeline: its layer 0 (86016x64, 44 MB) spans six blocks."""
    root = tmp_path_factory.mktemp("wide")
    records = []
    for i, label in enumerate(synth.CLASSES[:4]):
        path = root / f"{label}.ppm"
        write_ppm(path, synth.render_image(label, np.random.default_rng([9, i]), 512, 512))
        records.append(ManifestRecord(str(path), label))
    manifest, feat, path = root / "m.tsv", root / "f.feat", root / "m.bin"
    write_manifest(manifest, records)
    assert run_extract(CFG512, manifest, feat).failures == ()
    model = init_model((feature_length(512, 512, CFG512.scatter), *HIDDEN, 5), seed=1)
    save_model(model, path)
    return manifest, feat, path, model


def test_streamed_head_over_many_blocks_keeps_decisions(wide):
    manifest, feat, path, model = wide
    veclen = feature_length(512, 512, CFG512.scatter)
    assert -(-veclen // (formats.LOAD_BYTES // (8 * HIDDEN[0]))) >= 4  # blocks
    held = _held_eval(CFG512, feat, manifest, model)  # float64 decisions
    assert repr(run_eval(CFG512, feat, manifest, path)) == repr(held)
    vecs = read_features(feat)[0]
    h, tail = apply_first_layer(path, vecs, lambda dims: None)
    moved = np.abs(_forward_batch(tail, h)[0] - _forward_batch(model, vecs)[0])
    assert (moved <= oracles.float32_head_score_bound(model, vecs)).all()
    for rec in read_manifest(manifest):
        x = extract_features(load_image_channel(rec.path, CFG512.channel), CFG512.scatter)
        h, tail = apply_first_layer(path, x[None, :], lambda dims: None)
        scores, want = mlp_forward(tail, h[0]), mlp_forward(model, x)
        assert (np.abs(scores - want) <= oracles.float32_head_score_bound(model, x)).all()
        got = run_infer(CFG512, path, rec.path)
        assert got.scores == tuple(float(p) for p in softmax(scores))
        assert got.label == CFG512.classes[int(np.argmax(want))]


def test_streamed_head_peaks_below_half_a_layer0_copy(wide):
    manifest, feat, path, _ = wide
    half_layer0 = 8 * feature_length(512, 512, CFG512.scatter) * HIDDEN[0] / 2
    image = read_manifest(manifest)[0].path
    for run in (lambda: run_eval(CFG512, feat, manifest, path),
                lambda: run_infer(CFG512, path, image)):
        run()  # tap and plan caches fill outside the trace
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < half_layer0


# ---------------------------------------------------------------------------
# bench


def test_bench_report_invariants(dataset, trained):
    path, _, _ = trained
    records = read_manifest(dataset)
    report = run_bench(CFG64, path, records[0].path, frames=3)
    assert report.image_dims == (64, 64)
    assert report.frames_processed == 3
    assert report.fps == 3 / report.wall_seconds
    extract_ms, classify_ms = report.per_stage_ms
    assert extract_ms > 0 and classify_ms > 0
    assert (extract_ms + classify_ms) * 3 <= report.wall_seconds * 1e3 * 1.5


@pytest.mark.parametrize("run", ["eval", "infer", "bench"])
def test_model_input_length_must_fit_config(dataset, features, tmp_path, run):
    path = tmp_path / "short.bin"
    save_model(init_model((100, *HIDDEN, 5)), path)
    image = read_manifest(dataset)[0].path
    calls = {"eval": lambda: run_eval(CFG64, features, dataset, path),
             "infer": lambda: run_infer(CFG64, path, image),
             "bench": lambda: run_bench(CFG64, path, image, frames=1)}
    with pytest.raises(DataError, match="model expects 100 inputs, config implies 1344"):
        calls[run]()


def test_bench_guards(dataset, trained, tmp_path):
    path, _, _ = trained
    records = read_manifest(dataset)
    with pytest.raises(DataError, match="frames must be >= 1"):
        run_bench(CFG64, path, records[0].path, frames=0)
    hd = PipelineConfig()  # 1280x720
    with pytest.raises(DataError, match="image is 64x64, config expects 1280x720"):
        run_bench(hd, path, records[0].path, frames=1)


# ---------------------------------------------------------------------------
# end-to-end determinism


def test_end_to_end_bitwise_reproducible(tmp_path):
    blobs = []
    for side in ("left", "right"):
        work = tmp_path / side
        manifest = synth.synth_dataset(work / "data", per_class=3, seed=3)
        feat = work / "f.feat"
        run_extract(CFG64, manifest, feat)
        model_path = work / "m.bin"
        run_train(CFG64, TrainConfig(epochs=5, seed=3), feat, manifest, model_path)
        blobs.append((feat.read_bytes(), model_path.read_bytes()))
    assert blobs[0] == blobs[1]


_EXTRACT_AND_TRAIN = """
import sys
from wavescat import synth
from wavescat.mlp import TrainConfig
from wavescat.pipeline import PipelineConfig, run_eval, run_extract, run_train
work = sys.argv[1]
cfg = PipelineConfig(width=64, height=64)
manifest = synth.synth_dataset(work, per_class=8, seed=4)
run_extract(cfg, manifest, work + "/f.feat")
_, train = run_train(cfg, TrainConfig(epochs=20, seed=4), work + "/f.feat", manifest,
                     work + "/m.bin")
evaluated = run_eval(cfg, work + "/f.feat", manifest, work + "/m.bin")
with open(work + "/reports.txt", "w") as fh:
    fh.write(repr(train) + "\\n" + repr(evaluated) + "\\n")
"""


def test_blas_thread_count_does_not_change_bytes(tmp_path):
    """Extract + train + eval in fresh processes with 1 and 2 BLAS threads;
    the training GEMMs are where a threaded BLAS could reorder sums.  The
    feature file, the model file and the train and eval report reprs must
    all match."""
    src = os.path.dirname(os.path.dirname(synth.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    blobs = []
    for n in ("1", "2"):
        work = tmp_path / n
        env = dict(os.environ, OPENBLAS_NUM_THREADS=n, OMP_NUM_THREADS=n, PYTHONPATH=path)
        subprocess.run([sys.executable, "-c", _EXTRACT_AND_TRAIN, str(work)],
                       env=env, check=True, timeout=300)
        blobs.append(tuple((work / name).read_bytes()
                           for name in ("f.feat", "m.bin", "reports.txt")))
    assert b"TrainReport(" in blobs[0][2] and b"EvalReport(" in blobs[0][2]
    assert blobs[0] == blobs[1]
