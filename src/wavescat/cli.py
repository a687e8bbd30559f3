"""Command-line front end.

Subcommands: synth, extract, train, infer, eval, bench, flops.  Each takes
only the shared flags it reads: --config PATH (key=value file), --threads N,
--seed S.  Exit codes: 0 success, 1 usage, 2 data error, 3 numeric failure.
Reports go to stdout; --csv PATH writes the same report as CSV.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace

from .errors import DataError, NumericError, UsageError
from .filters import dump_filter_lines
from .flops import NetworkSpec, network_flops, parse_layers, pipeline_flops, theoretical_time
from .formats import parse_config_file, read_text
from .metrics import check_peak, efficiency
from .mlp import TrainConfig
from .pipeline import (P90_MIN_FRAMES, PipelineConfig, overlay_configs, run_bench, run_eval,
                       run_extract, run_infer, run_train)
from .synth import CLASSES, synth_dataset


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; reroute into the usage bucket
    def error(self, message):
        raise UsageError(message)


def _configs(args) -> tuple[PipelineConfig, TrainConfig]:
    mapping = parse_config_file(args.config) if args.config else {}
    pcfg, tcfg = overlay_configs(mapping)
    if args.threads is not None:
        pcfg = replace(pcfg, threads=args.threads)
    if args.seed is not None:
        tcfg = replace(tcfg, seed=args.seed)
    return pcfg, tcfg


def _fmt(v):
    return "-" if v is None else f"{v:.6f}"


def _csv_val(v):
    if v is None:
        return ""
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _write_csv(path, header, rows):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_csv_val(v) for v in row])


def _print_matrix(matrix):
    labels = matrix.labels
    w = max(max(len(l) for l in labels), 6) + 2
    print("confusion matrix (rows actual, cols predicted)")
    print(" " * w + "".join(f"{l:>{w}}" for l in labels))
    for i, l in enumerate(labels):
        print(f"{l:>{w}}" + "".join(f"{int(n):>{w}}" for n in matrix.counts[i]))


def _print_per_class(rows):
    w = max(5, max(len(r[0]) for r in rows)) + 1
    print(f"{'class':<{w}} {'tpr':>9} {'ppv':>9} {'acc':>9}")
    for name, a, b, c in rows:
        print(f"{name:<{w}} {_fmt(a):>9} {_fmt(b):>9} {_fmt(c):>9}")


def _matrix_rows(matrix):
    for i, actual in enumerate(matrix.labels):
        for j, predicted in enumerate(matrix.labels):
            yield ("matrix", actual, predicted, int(matrix.counts[i][j]))


def _metric_rows(per_class):
    for name, t, p, a in per_class:
        yield ("metric", name, "tpr", t)
        yield ("metric", name, "ppv", p)
        yield ("metric", name, "acc", a)


def _cmd_synth(args):
    seed = args.seed if args.seed is not None else 0
    manifest = synth_dataset(args.out, per_class=args.per_class, width=args.width,
                             height=args.height, seed=seed)
    print(f"wrote {args.per_class * len(CLASSES)} images under {args.out}")
    print(f"manifest {manifest}")
    return 0


def _cmd_extract(args):
    pcfg, _ = _configs(args)
    report = run_extract(pcfg, args.manifest, args.out)
    print(f"wrote {report.written} feature records to {args.out} "
          f"({report.workers} worker{'s' * (report.workers != 1)})")
    if report.failures:
        for path, msg in report.failures:
            print(f"failed: {path}: {msg}", file=sys.stderr)
        total = report.written + len(report.failures)
        print(f"{len(report.failures)} of {total} images failed; feature file is "
              f"no longer index-aligned with the manifest", file=sys.stderr)
        return 2
    return 0


def _cmd_train(args):
    pcfg, tcfg = _configs(args)
    _model, report = run_train(pcfg, tcfg, args.features, args.manifest, args.out)
    for i, loss in enumerate(report.history, start=1):
        print(f"epoch {i:4d}  loss {loss:.12g}")
    print(f"train accuracy {report.train_accuracy:.6f} ({report.train_count} samples)")
    print(f"test accuracy {report.test_accuracy:.6f} ({report.test_count} samples)")
    _print_matrix(report.matrix)
    _print_per_class(report.per_class)
    print(f"model written to {args.out}")
    if args.csv:
        rows = [("loss", i, "", v) for i, v in enumerate(report.history, start=1)]
        rows += [("summary", "train_accuracy", "", report.train_accuracy),
                 ("summary", "test_accuracy", "", report.test_accuracy),
                 ("summary", "train_count", "", report.train_count),
                 ("summary", "test_count", "", report.test_count)]
        rows += list(_matrix_rows(report.matrix))
        rows += list(_metric_rows(report.per_class))
        _write_csv(args.csv, ("record", "field1", "field2", "value"), rows)
    return 0


def _cmd_eval(args):
    pcfg, _ = _configs(args)
    report = run_eval(pcfg, args.features, args.manifest, args.model)
    _print_matrix(report.matrix)
    print(f"accuracy {report.accuracy:.6f} ({report.count} samples)")
    _print_per_class(report.per_class)
    if args.csv:
        rows = [("summary", "count", "", report.count),
                ("summary", "accuracy", "", report.accuracy)]
        rows += list(_matrix_rows(report.matrix))
        rows += list(_metric_rows(report.per_class))
        _write_csv(args.csv, ("record", "field1", "field2", "value"), rows)
    return 0


def _cmd_infer(args):
    pcfg, _ = _configs(args)
    result = run_infer(pcfg, args.model, args.image)
    scores = ",".join(f"{n}={p:.9f}" for n, p in zip(pcfg.classes, result.scores))
    print(f"{result.path}\t{result.label}\t{scores}")
    return 0


def _cmd_bench(args):
    pcfg, _ = _configs(args)
    if args.peak is not None:
        check_peak(args.peak)  # reject a bad peak before any frame is timed
    report = run_bench(pcfg, args.model, args.image, args.frames)
    w, h = report.image_dims
    ms = report.wall_seconds / report.frames_processed * 1e3
    print(f"image {w}x{h}, {report.frames_processed} frames, 1 thread")
    print(f"wall {report.wall_seconds:.6f} s, {report.fps:.2f} fps, {ms:.3f} ms/frame")
    print(f"extract {report.per_stage_ms[0]:.3f} ms/frame, "
          f"classify {report.per_stage_ms[1]:.3f} ms/frame")
    stats = [("median", report.per_stage_median_ms)]
    if report.per_stage_p90_ms is None:
        print(f"p90 not reported: needs at least {P90_MIN_FRAMES} frames")
    else:
        stats.append(("p90", report.per_stage_p90_ms))
    for name, (extract_ms, classify_ms) in stats:
        print(f"{name} extract {extract_ms:.3f} ms, classify {classify_ms:.3f} ms")
    print("timed: feature extraction + classification per frame; file decode excluded")
    eff = None
    if args.peak is not None:
        eff = efficiency(report.fps, args.peak)
        print(f"efficiency {eff:.3f} fps per GFLOPS (peak {args.peak:g})")
    if args.csv:
        rows = [("summary", "width", "", w), ("summary", "height", "", h),
                ("summary", "frames", "", report.frames_processed),
                ("summary", "wall_seconds", "", report.wall_seconds),
                ("summary", "fps", "", report.fps),
                ("summary", "ms_per_frame", "", ms),
                ("summary", "extract_ms", "", report.per_stage_ms[0]),
                ("summary", "classify_ms", "", report.per_stage_ms[1])]
        for name, (extract_ms, classify_ms) in stats:
            rows += [("summary", f"extract_{name}_ms", "", extract_ms),
                     ("summary", f"classify_{name}_ms", "", classify_ms)]
        if eff is not None:
            rows.append(("summary", "efficiency", "", eff))
        _write_csv(args.csv, ("record", "field1", "field2", "value"), rows)
    return 0


def _cmd_flops(args):
    if args.dump_filters:
        for line in dump_filter_lines():
            print(line)
        if args.layers is None and not args.pipeline:
            return 0
    if args.layers is not None and args.pipeline:
        raise UsageError("choose one of --layers or --pipeline")
    if args.layers is None and not args.pipeline:
        raise UsageError("flops needs --layers FILE or --pipeline (or --dump-filters)")
    pcfg, _ = _configs(args)
    width = pcfg.width if args.width is None else args.width
    height = pcfg.height if args.height is None else args.height
    if args.pipeline:
        report = pipeline_flops(width, height, pcfg.scatter, len(pcfg.classes))
    else:
        layers = parse_layers(read_text(args.layers))
        report = network_flops(NetworkSpec(width, height, args.channels, layers))
    seconds = None if args.peak is None else theoretical_time(report, args.peak)
    print(f"{'layer':>5}  {'flops':>15}  description")
    for (idx, n), label in zip(report.per_layer, report.labels):
        print(f"{idx:>5}  {n:>15}  {label}")
    print(f"{'total':>5}  {report.total:>15}")
    if seconds is not None:
        print(f"theoretical time {seconds:.9f} s at peak {args.peak:g} FLOPS")
    if args.csv:
        rows = [(idx, n, label) for (idx, n), label in zip(report.per_layer, report.labels)]
        rows.append(("total", report.total, ""))
        if seconds is not None:
            rows.append(("theoretical_time_s", seconds, ""))
        _write_csv(args.csv, ("layer", "flops", "description"), rows)
    return 0


# Flags shared by several subcommands.  Each subcommand declares only those it
# reads; one it does not take reads as None.
_SHARED_FLAGS = {
    "config": dict(metavar="PATH", help="key=value settings file"),
    "threads": dict(type=int, metavar="N", help="upper bound on worker threads"),
    "seed": dict(type=int, metavar="S", help="seed for synth and training"),
}


def _build_parser() -> _Parser:
    p = _Parser(prog="wavescat",
                description="wavelet scattering features, a small MLP classifier, "
                            "an analytic FLOPs model, and a throughput benchmark")
    sub = p.add_subparsers(dest="command", metavar="command", required=True)

    def command(name, help, func, *shared):
        sp = sub.add_parser(name, help=help)
        for flag in shared:
            sp.add_argument(f"--{flag}", **_SHARED_FLAGS[flag])
        sp.set_defaults(func=func, **dict.fromkeys(_SHARED_FLAGS))
        return sp

    sp = command("synth", "write a seeded synthetic dataset", _cmd_synth, "seed")
    sp.add_argument("--out", required=True, metavar="DIR")
    sp.add_argument("--per-class", type=int, default=20, metavar="N")
    sp.add_argument("--width", type=int, default=64)
    sp.add_argument("--height", type=int, default=64)

    sp = command("extract", "manifest images -> feature file", _cmd_extract, "config", "threads")
    sp.add_argument("--manifest", required=True, metavar="PATH")
    sp.add_argument("--out", required=True, metavar="PATH")

    sp = command("train", "feature file + manifest -> model file", _cmd_train, "config", "seed")
    sp.add_argument("--features", required=True, metavar="PATH")
    sp.add_argument("--manifest", required=True, metavar="PATH")
    sp.add_argument("--out", required=True, metavar="PATH")
    sp.add_argument("--csv", metavar="PATH")

    sp = command("infer", "classify one image", _cmd_infer, "config")
    sp.add_argument("--model", required=True, metavar="PATH")
    sp.add_argument("--image", required=True, metavar="PATH")

    sp = command("eval", "confusion matrix and per-class metrics", _cmd_eval, "config")
    sp.add_argument("--features", required=True, metavar="PATH")
    sp.add_argument("--manifest", required=True, metavar="PATH")
    sp.add_argument("--model", required=True, metavar="PATH")
    sp.add_argument("--csv", metavar="PATH")

    sp = command("bench", "extract+classify throughput on one image", _cmd_bench, "config")
    sp.add_argument("--model", required=True, metavar="PATH")
    sp.add_argument("--image", required=True, metavar="PATH")
    sp.add_argument("--frames", type=int, default=100, metavar="N")
    sp.add_argument("--peak", type=float, metavar="FLOPS",
                    help="device peak FLOPS, adds fps-per-GFLOPS efficiency")
    sp.add_argument("--csv", metavar="PATH")

    sp = command("flops", "analytic FLOPs for a layer list or the scattering pipeline",
                 _cmd_flops, "config")
    sp.add_argument("--layers", metavar="PATH", help="plain-text layer list file")
    sp.add_argument("--pipeline", action="store_true",
                    help="count the scattering cascade + MLP head instead")
    sp.add_argument("--width", type=int, metavar="W")
    sp.add_argument("--height", type=int, metavar="H")
    sp.add_argument("--channels", type=int, default=3, metavar="C")
    sp.add_argument("--peak", type=float, metavar="FLOPS")
    sp.add_argument("--csv", metavar="PATH")
    sp.add_argument("--dump-filters", action="store_true",
                    help="print the wavelet filter tables (17 significant digits)")
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
