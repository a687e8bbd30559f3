"""Wavelet scattering features for single-channel images, a small MLP
classifier, an analytic FLOPs cost model, and a throughput benchmark."""

from .errors import DataError, NumericError, UndefinedMetricError, UsageError
from .filters import (BASES, SCALE, WAVELET_DIAGONAL, FilterPair, Kernel2D,
                      dump_filter_lines, make_filter_pair, make_kernel2d)
from .flops import (FlopsReport, LayerSpec, NetworkSpec, avgpool_flops, conv_flops,
                    conv_out_size, fc_flops, network_flops, parse_layers,
                    pipeline_flops, relu_flops, theoretical_time)
from .formats import (ManifestRecord, load_model, parse_config_file, read_features,
                      read_manifest, save_model, write_features, write_manifest)
from .metrics import (BinaryTally, ConfusionMatrix, acc, binary_tally,
                      confusion_from_predictions, efficiency, multiclass_accuracy,
                      ppv, tpr)
from .mlp import (MlpModel, TrainConfig, cross_entropy, init_model, mlp_backward,
                  mlp_forward, models_equal, predict, softmax, split_train_test, train)
from .pipeline import (BenchReport, EvalReport, ExtractReport, InferResult,
                       PipelineConfig, TrainReport, extract_features, feature_config,
                       overlay_configs, run_bench, run_eval, run_extract, run_infer, run_train)
from .ppm import load_image_channel, write_ppm
from .scattering import (ScatterConfig, ScatterOutput, cascade_steps, conv2_decimated,
                         feature_length, feature_vector, plane_dims, scatter,
                         selection_names)
from .synth import CLASSES, render_image, synth_dataset

__all__ = [
    "BASES", "CLASSES", "SCALE", "WAVELET_DIAGONAL",
    "BenchReport", "BinaryTally", "ConfusionMatrix", "DataError", "EvalReport",
    "ExtractReport", "FilterPair", "FlopsReport", "InferResult", "Kernel2D",
    "LayerSpec", "ManifestRecord", "MlpModel", "NetworkSpec", "NumericError",
    "PipelineConfig", "ScatterConfig", "ScatterOutput", "TrainConfig", "TrainReport",
    "UndefinedMetricError", "UsageError",
    "acc", "avgpool_flops", "binary_tally", "cascade_steps", "confusion_from_predictions",
    "conv2_decimated", "conv_flops", "conv_out_size", "cross_entropy",
    "dump_filter_lines", "efficiency", "extract_features", "fc_flops",
    "feature_config", "feature_length", "feature_vector", "init_model", "load_image_channel",
    "load_model", "make_filter_pair", "make_kernel2d", "mlp_backward", "mlp_forward",
    "models_equal", "multiclass_accuracy", "network_flops", "overlay_configs",
    "parse_config_file", "parse_layers", "pipeline_flops", "plane_dims", "ppv",
    "predict", "read_features", "read_manifest", "relu_flops", "render_image",
    "run_bench", "run_eval", "run_extract", "run_infer", "run_train", "save_model",
    "scatter", "selection_names", "softmax",
    "split_train_test", "synth_dataset", "theoretical_time", "tpr", "train",
    "write_features", "write_manifest", "write_ppm",
]
