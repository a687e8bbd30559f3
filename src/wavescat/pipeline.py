"""End-to-end pipeline: manifests to feature files, training, inference,
evaluation, and the throughput benchmark.

The heavy math lives in scattering/mlp; this module handles ordering,
extraction workers, header/dimension consistency checks, and report
assembly.  Worker count changes scheduling only, never results: each image
is an isolated pure computation written into its own manifest-order row.
An unexpected error in any worker stops the hand-out of new images and is
raised once every worker has finished the image it is on.
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import synth
from .errors import DataError, UndefinedMetricError
from .formats import (FEATURE_TEXT_OFFSET, MODEL_DIMS_OFFSET, apply_first_layer, load_model,
                      read_features, read_manifest, read_model_header, save_model, write_features)
from .metrics import (ConfusionMatrix, acc, binary_tally, confusion_from_predictions,
                      multiclass_accuracy, ppv, tpr)
from .mlp import (HIDDEN, TrainConfig, init_model, mlp_forward, predict, softmax,
                  split_train_test, train)
from .ppm import CHANNELS, load_image_channel
from .scattering import ScatterConfig, feature_length, feature_vector, scatter


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


def feature_config(config: PipelineConfig) -> bytes:
    """The config-file lines a feature vector depends on, in CONFIG_KEYS order:
    every key but classes, threads and the training keys.  Tuples are
    comma-joined and bools written as 1/0, so overlay_configs reads them back."""
    lines = []
    for key, (target, name, _) in CONFIG_KEYS.items():
        if target == "train" or key in ("classes", "threads"):
            continue
        val = getattr(config.scatter if target == "scatter" else config, name)
        if isinstance(val, tuple):
            val = ",".join(val)
        lines.append(f"{key} = {int(val) if isinstance(val, bool) else val}\n")
    return "".join(lines).encode()


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


def _load_plane(config: PipelineConfig, path):
    """The config's channel of an image, which must have the config's dims."""
    plane = load_image_channel(path, config.channel)
    h, w = plane.shape
    if (w, h) != (config.width, config.height):
        raise DataError(f"{path}: image is {w}x{h}, config expects "
                        f"{config.width}x{config.height}")
    return plane


def _check_feature_header(config: PipelineConfig, header, path):
    got, want = header["config"], feature_config(config)
    if got != want:
        start = os.path.commonprefix([got, want]).rfind(b"\n") + 1  # the first line that differs
        got_line, want_line = (text[start:].split(b"\n", 1)[0] for text in (got, want))
        raise DataError(f"{path}: features were extracted with {got_line!r}, config has "
                        f"{want_line!r} at byte offset {FEATURE_TEXT_OFFSET + start}")
    expect = feature_length(config.width, config.height, config.scatter)
    if header["veclen"] != expect:
        raise DataError(f"{path}: vector length {header['veclen']}, config implies {expect} "
                        f"at byte offset {FEATURE_TEXT_OFFSET + len(got)}")


# Planes smaller than this are extracted by the calling thread alone: their
# numpy calls are too short to outweigh GIL handoffs (README, "Worker count").
POOL_MIN_PIXELS = 1 << 17


@dataclass(frozen=True)
class ExtractReport:
    written: int
    failures: tuple  # (path, message) pairs in manifest order
    workers: int     # threads that extracted, the calling thread included; at most config.threads


def run_extract(config: PipelineConfig, manifest_path, out_path) -> ExtractReport:
    """Extract one feature vector per manifest image into a feature file.

    Order is preserved.  An image that fails with DataError or OSError is
    recorded and skipped, so the output stays valid; callers must treat
    any failure as breaking the index alignment with the manifest.  Any
    other exception, KeyboardInterrupt included, stops the hand-out of
    images; once each worker has finished its image, the exception of the
    earliest such image in manifest order is raised and nothing is written.
    The calling thread and workers - 1 helpers (min(config.threads, images)
    workers, at most 1 under POOL_MIN_PIXELS) write each vector into its
    float32 row of one array.  A config whose kernels do not fit its planes
    fails before any read.
    """
    veclen = feature_length(config.width, config.height, config.scatter)
    records = read_manifest(manifest_path)
    load_labels(records, config.classes)
    small = config.width * config.height < POOL_MIN_PIXELS
    workers = min(1 if small else config.threads, len(records))
    rows = np.empty((len(records), veclen), "<f4")
    pending = list(range(len(records) - 1, -1, -1))  # popped from the end: manifest order
    failures, errors = {}, {}
    lock = threading.Lock()

    def drain():
        while True:
            with lock:
                if errors or not pending:
                    return
                i = pending.pop()
            rec = records[i]
            try:
                rows[i] = extract_features(_load_plane(config, rec.path), config.scatter)
            except (DataError, OSError) as exc:
                failures[i] = (rec.path, f"{type(exc).__name__}: {exc}")
            except BaseException as exc:
                errors[i] = exc

    helpers = []
    try:
        for _ in range(workers - 1):
            t = threading.Thread(target=drain)
            t.start()
            helpers.append(t)
        drain()
    finally:
        with lock:
            pending.clear()
        for t in helpers:
            t.join()
    if errors:
        raise errors[min(errors)]
    write_features(out_path, (rows[i] for i in range(len(records)) if i not in failures),
                   feature_config(config), veclen)
    return ExtractReport(len(records) - len(failures),
                         tuple(failures[i] for i in sorted(failures)), workers)


def _load_aligned(config: PipelineConfig, features_path, manifest_path):
    vecs, header = read_features(features_path)
    _check_feature_header(config, header, features_path)
    records = read_manifest(manifest_path)
    if len(records) != len(vecs):
        raise DataError(f"{features_path}: {len(vecs)} feature records, but manifest "
                        f"{manifest_path} has {len(records)} entries")
    labels = load_labels(records, config.classes)
    return vecs, labels


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
    train_idx, test_idx = split_train_test(labels, seed=train_cfg.seed)
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


def _check_model_fits(config: PipelineConfig, model_path):
    """A model's dims, read from its header, must fit the config."""
    expect = feature_length(config.width, config.height, config.scatter)
    with open(model_path, "rb") as fh:
        dims = read_model_header(fh, model_path)[0]
    if dims[0] != expect:  # one u64 per dim
        raise DataError(f"{model_path}: model expects {dims[0]} inputs, config implies {expect} "
                        f"at byte offset {MODEL_DIMS_OFFSET}")
    if dims[-1] != len(config.classes):
        raise DataError(f"{model_path}: model has {dims[-1]} outputs, config names "
                        f"{len(config.classes)} classes at byte offset "
                        f"{MODEL_DIMS_OFFSET + 8 * (len(dims) - 1)}")


def run_eval(config: PipelineConfig, features_path, manifest_path, model_path) -> EvalReport:
    vecs, labels = _load_aligned(config, features_path, manifest_path)
    _check_model_fits(config, model_path)  # before any parameter is read
    h, tail = apply_first_layer(model_path, vecs)
    mat = _confusion(config, labels, np.argmax(h, axis=1) if tail is None else predict(tail, h))
    return EvalReport(len(labels), multiclass_accuracy(mat), mat, _per_class_rows(mat))


@dataclass(frozen=True)
class InferResult:
    path: str
    label: str
    scores: tuple  # softmax probabilities in configured class order


def run_infer(config: PipelineConfig, model_path, image_path) -> InferResult:
    _check_model_fits(config, model_path)  # before the image is decoded
    x = extract_features(_load_plane(config, image_path), config.scatter)[None, :]
    h, tail = apply_first_layer(model_path, x)
    scores = h[0] if tail is None else mlp_forward(tail, h[0])
    probs = softmax(scores)
    return InferResult(str(image_path), config.classes[int(np.argmax(scores))],
                       tuple(float(p) for p in probs))


@dataclass(frozen=True)
class BenchReport:
    """What is timed: channel plane already decoded; per frame, on one thread,
    feature extraction (scattering + vector assembly) and classification (MLP
    forward, layer 0 in float32 as load_model holds it).  File decode is excluded."""

    image_dims: tuple  # (width, height)
    frames_processed: int
    wall_seconds: float
    fps: float
    per_stage_ms: tuple  # (extract, classify) mean milliseconds per frame
    per_stage_median_ms: tuple  # (extract, classify) median milliseconds per frame
    per_stage_p90_ms: tuple | None  # the same 90th percentiles; None under P90_MIN_FRAMES


# A p90 is reported from this many frames on: ten of them lie beyond it.
P90_MIN_FRAMES = 100


def run_bench(config: PipelineConfig, model_path, image_path, frames: int) -> BenchReport:
    if frames < 1:
        raise DataError(f"frames must be >= 1, got {frames}")
    feature_length(config.width, config.height, config.scatter)  # the kernels fit
    plane = _load_plane(config, image_path)
    _check_model_fits(config, model_path)  # before the whole head is loaded
    model = load_model(model_path)

    def one_frame():
        t0 = time.perf_counter()
        vec = extract_features(plane, config.scatter)
        t1 = time.perf_counter()
        mlp_forward(model, vec)
        return t1 - t0, time.perf_counter() - t1

    one_frame()  # warmup: first-touch allocations stay out of the timings
    t_start = time.perf_counter()
    stage_times = [one_frame() for _ in range(frames)]
    wall = max(time.perf_counter() - t_start, 1e-9)
    ms = np.array(stage_times) * 1e3  # one (extract, classify) row per frame

    def per_stage(stat, *q):
        return tuple(float(v) for v in stat(ms, *q, axis=0))

    p90 = per_stage(np.percentile, 90) if frames >= P90_MIN_FRAMES else None
    return BenchReport((config.width, config.height), frames, wall, frames / wall,
                       per_stage(np.mean), per_stage(np.median), p90)
