"""End-to-end pipeline: manifests to feature files, training, inference,
evaluation, and the throughput benchmark.

The heavy math lives in scattering/mlp; this module handles ordering,
worker pools, header/dimension consistency checks, and report assembly.
Worker count changes scheduling only, never results: each image is an
isolated pure computation and outputs are restored to manifest order.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from . import synth
from .errors import DataError, UndefinedMetricError
from .formats import load_model, read_features, read_manifest, save_model, write_features
from .metrics import (ConfusionMatrix, acc, binary_tally, confusion_from_predictions,
                      multiclass_accuracy, ppv, tpr)
from .mlp import (MlpModel, TrainConfig, init_model, mlp_forward, predict, softmax,
                  split_train_test, train)
from .ppm import CHANNELS, load_image_channel
from .scattering import ScatterConfig, feature_length, feature_vector, scatter

# MLP head between the scattering features and the class scores.
HIDDEN = (64, 16)


@dataclass(frozen=True)
class PipelineConfig:
    """Pinned input dims plus everything needed to turn an image file into
    a class decision.  Dims are pinned because the feature length depends
    on them; images of other sizes are rejected, never resized."""

    width: int = 1280
    height: int = 720
    channel: str = "B"
    scatter: ScatterConfig = field(default_factory=ScatterConfig)
    classes: tuple[str, ...] = synth.CLASSES
    threads: int = 1

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise DataError(f"image dims must be positive, got {self.width}x{self.height}")
        if self.channel not in CHANNELS:
            raise DataError(f"channel must be one of {sorted(CHANNELS)}, got {self.channel!r}")
        object.__setattr__(self, "classes", tuple(self.classes))
        if not self.classes or len(set(self.classes)) != len(self.classes):
            raise DataError("classes must be non-empty and unique")
        if self.threads < 1:
            raise DataError(f"threads must be >= 1, got {self.threads}")


_BOOL_WORDS = {"1": True, "true": True, "yes": True, "on": True,
               "0": False, "false": False, "no": False, "off": False}


def _to_bool(val):
    return _BOOL_WORDS[val.strip().lower()]


def _to_names(val):
    return tuple(s.strip() for s in val.split(",") if s.strip())


# what each parser that can fail expects, for the error message
_EXPECTED = {int: "an integer", float: "a number", _to_bool: "a boolean"}

# config key -> (config it sets, field, parser)
CONFIG_KEYS = {
    "width": ("pipeline", "width", int),
    "height": ("pipeline", "height", int),
    "channel": ("pipeline", "channel", str),
    "classes": ("pipeline", "classes", _to_names),
    "threads": ("pipeline", "threads", int),
    "depth": ("scatter", "depth", int),
    "bases": ("scatter", "level_bases", _to_names),
    "boundary": ("scatter", "boundary", str),
    "decimate": ("scatter", "decimate", int),
    "variant": ("scatter", "variant", str),
    "selection": ("scatter", "selection", _to_names),
    "smooth_with": ("scatter", "smooth_with", str),
    "smooth_decimate": ("scatter", "smooth_decimate", _to_bool),
    "learning_rate": ("train", "learning_rate", float),
    "momentum": ("train", "momentum", float),
    "epochs": ("train", "epochs", int),
    "batch_size": ("train", "batch_size", int),
}


def overlay_configs(mapping, pipeline: PipelineConfig | None = None,
                    training: TrainConfig | None = None):
    """Apply key=value settings (from a config file) on top of base
    configs.  Returns (PipelineConfig, TrainConfig).  Unknown keys are
    rejected.  The dataclass validators run on the merged result, so
    inconsistent combinations fail here, not later."""
    p = pipeline if pipeline is not None else PipelineConfig()
    t = training if training is not None else TrainConfig()
    fields = {"pipeline": {}, "scatter": {}, "train": {}}
    for key, val in mapping.items():
        if key not in CONFIG_KEYS:
            raise DataError(f"unknown config key {key!r}")
        target, name, parse = CONFIG_KEYS[key]
        try:
            fields[target][name] = parse(val)
        except (ValueError, KeyError):
            raise DataError(f"config key {key}: expected {_EXPECTED[parse]}, "
                            f"got {val!r}") from None
    scatter_cfg = replace(p.scatter, **fields["scatter"])
    return (replace(p, scatter=scatter_cfg, **fields["pipeline"]),
            replace(t, **fields["train"]))


def extract_features(plane, config: ScatterConfig) -> np.ndarray:
    return feature_vector(scatter(plane, config), config.selection)


def load_labels(records, classes) -> np.ndarray:
    """Map manifest labels to class indices; unknown labels are rejected."""
    index = {name: i for i, name in enumerate(classes)}
    out = np.empty(len(records), dtype=np.int64)
    for i, rec in enumerate(records):
        if rec.label not in index:
            raise DataError(
                f"{rec.path}: label {rec.label!r} not in configured classes {tuple(classes)}")
        out[i] = index[rec.label]
    return out


def _check_plane_dims(plane, config: PipelineConfig, path):
    h, w = plane.shape
    if (w, h) != (config.width, config.height):
        raise DataError(f"{path}: image is {w}x{h}, config expects "
                        f"{config.width}x{config.height}")


def _check_feature_header(config: PipelineConfig, header, path):
    scfg = config.scatter
    if (header["width"], header["height"]) != (config.width, config.height):
        raise DataError(f"{path}: features were extracted from "
                        f"{header['width']}x{header['height']} images, config expects "
                        f"{config.width}x{config.height}")
    if header["bases"] != scfg.level_bases:
        raise DataError(f"{path}: features use bases {header['bases']}, config expects "
                        f"{scfg.level_bases}")
    if header["selection"] != scfg.selection:
        raise DataError(f"{path}: features select {header['selection']}, config expects "
                        f"{scfg.selection}")
    expect = feature_length(config.width, config.height, scfg)
    if header["veclen"] != expect:
        raise DataError(f"{path}: vector length {header['veclen']}, config implies {expect}")


@dataclass(frozen=True)
class ExtractReport:
    written: int
    failures: tuple  # (path, message) pairs in manifest order


def run_extract(config: PipelineConfig, manifest_path, out_path) -> ExtractReport:
    """Extract one feature vector per manifest image into a feature file.

    Order is preserved.  A failing image is recorded and skipped, so the
    output stays valid; callers must treat any failure as breaking the
    index alignment with the manifest.
    """
    records = read_manifest(manifest_path)
    load_labels(records, config.classes)

    def work(rec):
        plane = load_image_channel(rec.path, config.channel)
        _check_plane_dims(plane, config, rec.path)
        return extract_features(plane, config.scatter)

    with ThreadPoolExecutor(max_workers=config.threads) as pool:
        futures = [pool.submit(work, rec) for rec in records]
    vectors, failures = [], []
    for rec, fut in zip(records, futures):
        try:
            vectors.append(fut.result())
        except (DataError, OSError) as exc:
            failures.append((rec.path, str(exc)))
    write_features(out_path, vectors, config.width, config.height, config.scatter)
    return ExtractReport(len(vectors), tuple(failures))


def _load_aligned(config: PipelineConfig, features_path, manifest_path):
    vecs, header = read_features(features_path)
    _check_feature_header(config, header, features_path)
    records = read_manifest(manifest_path)
    if len(records) != len(vecs):
        raise DataError(f"{features_path}: {len(vecs)} feature records, but manifest "
                        f"{manifest_path} has {len(records)} entries")
    labels = load_labels(records, config.classes)
    return vecs.astype(np.float64), labels


def _per_class_rows(matrix: ConfusionMatrix):
    """(label, tpr, ppv, acc) per class; None where the denominator is zero."""
    rows = []
    for name in matrix.labels:
        t = binary_tally(matrix, name)
        vals = []
        for metric in (tpr, ppv, acc):
            try:
                vals.append(metric(t))
            except UndefinedMetricError:
                vals.append(None)
        rows.append((name, *vals))
    return tuple(rows)


def _confusion(config: PipelineConfig, actual, predicted) -> ConfusionMatrix:
    names = config.classes
    pairs = [(names[a], names[p]) for a, p in zip(actual, predicted)]
    return confusion_from_predictions(pairs, names)


@dataclass(frozen=True)
class TrainReport:
    history: tuple          # mean loss per epoch
    train_count: int
    test_count: int
    train_accuracy: float
    test_accuracy: float
    matrix: ConfusionMatrix  # test split
    per_class: tuple         # (label, tpr, ppv, acc) rows for the test split


def run_train(config: PipelineConfig, train_cfg: TrainConfig, features_path,
              manifest_path, model_path):
    """Per-class 8:2 split, MLP training on the train part, metrics on
    both parts, model written to model_path.  Returns (model, TrainReport).
    """
    vecs, labels = _load_aligned(config, features_path, manifest_path)
    if len(np.unique(labels)) < 2:
        raise DataError("training needs at least 2 classes present in the manifest")
    train_idx, test_idx = split_train_test(labels, ratio=0.8, seed=train_cfg.seed)
    model = init_model((vecs.shape[1], *HIDDEN, len(config.classes)), seed=train_cfg.seed)
    model, history = train(model, vecs[train_idx], labels[train_idx], train_cfg)
    save_model(model, model_path)
    mat_train = _confusion(config, labels[train_idx], predict(model, vecs[train_idx]))
    mat_test = _confusion(config, labels[test_idx], predict(model, vecs[test_idx]))
    report = TrainReport(tuple(history), len(train_idx), len(test_idx),
                         multiclass_accuracy(mat_train), multiclass_accuracy(mat_test),
                         mat_test, _per_class_rows(mat_test))
    return model, report


@dataclass(frozen=True)
class EvalReport:
    count: int
    accuracy: float
    matrix: ConfusionMatrix
    per_class: tuple


def _load_model_for(config: PipelineConfig, model_path) -> MlpModel:
    """Load a model and check that it fits the config's features and classes."""
    model = load_model(model_path)
    expect = feature_length(config.width, config.height, config.scatter)
    if model.dims[0] != expect:
        raise DataError(f"{model_path}: model expects {model.dims[0]} inputs, config "
                        f"implies {expect}")
    if model.classes != len(config.classes):
        raise DataError(f"{model_path}: model has {model.classes} outputs, config names "
                        f"{len(config.classes)} classes")
    return model


def _load_frame(config: PipelineConfig, model_path, image_path):
    """(plane, model): the image is loaded and its dims checked first, so a
    wrong-size image is reported as such rather than as a model mismatch."""
    plane = load_image_channel(image_path, config.channel)
    _check_plane_dims(plane, config, image_path)
    return plane, _load_model_for(config, model_path)


def run_eval(config: PipelineConfig, features_path, manifest_path, model_path) -> EvalReport:
    vecs, labels = _load_aligned(config, features_path, manifest_path)
    model = _load_model_for(config, model_path)
    mat = _confusion(config, labels, predict(model, vecs))
    return EvalReport(len(labels), multiclass_accuracy(mat), mat, _per_class_rows(mat))


@dataclass(frozen=True)
class InferResult:
    path: str
    label: str
    scores: tuple  # softmax probabilities in configured class order


def run_infer(config: PipelineConfig, model_path, image_path) -> InferResult:
    plane, model = _load_frame(config, model_path, image_path)
    scores = mlp_forward(model, extract_features(plane, config.scatter))
    probs = softmax(scores)
    return InferResult(str(image_path), config.classes[int(np.argmax(scores))],
                       tuple(float(p) for p in probs))


@dataclass(frozen=True)
class BenchReport:
    """What is timed: channel plane already decoded; per frame, feature
    extraction (scattering + vector assembly) and classification (MLP
    forward).  File decode is excluded."""

    image_dims: tuple  # (width, height)
    frames_processed: int
    wall_seconds: float
    fps: float
    per_stage_ms: tuple  # (extract, classify) mean milliseconds per frame


def run_bench(config: PipelineConfig, model_path, image_path, frames: int) -> BenchReport:
    if frames < 1:
        raise DataError(f"frames must be >= 1, got {frames}")
    plane, model = _load_frame(config, model_path, image_path)

    def one_frame(_i):
        t0 = time.perf_counter()
        vec = extract_features(plane, config.scatter)
        t1 = time.perf_counter()
        mlp_forward(model, vec)
        t2 = time.perf_counter()
        return t1 - t0, t2 - t1

    one_frame(-1)  # warmup: first-touch allocations stay out of the timings
    t_start = time.perf_counter()
    if config.threads == 1:
        stage_times = [one_frame(i) for i in range(frames)]
    else:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            stage_times = list(pool.map(one_frame, range(frames)))
    wall = max(time.perf_counter() - t_start, 1e-9)
    extract_s = sum(t[0] for t in stage_times)
    classify_s = sum(t[1] for t in stage_times)
    return BenchReport((config.width, config.height), frames, wall, frames / wall,
                       (extract_s / frames * 1e3, classify_s / frames * 1e3))
