"""The measured process: one workload, one seed, tracing off or on.

run.py starts it in a fresh interpreter with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS at 1, once the inputs exist.  Modes:

  prepare  write the workload's inputs from the seed (nothing is timed)
  setup    time set-up only: import wavescat through one warm-up frame
  run      set up, run the workload's closed loops for --seconds, check
           every output and write all metrics as JSON to --out

Every loop is closed: the next frame, pass or training run starts only when
the previous one has returned.  With --trace the same loops run with the
tracer's wrappers installed and the per-layer metrics are computed from the
spans; the frame loop then alternates untraced and traced blocks so the
tracing overhead is measured in the same process.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

from calc import percentile
from workloads import WORKLOADS, load_config, prepare

ROOT = Path(__file__).resolve().parents[1]

# Share of --seconds given to each phase, by workload kind.
PHASES = {"frame": {"frames": 0.6, "extract": 0.4},
          "corpus": {"frames": 0.6, "extract": 0.25, "train": 0.15}}
# At least this many untraced frames, so that p90 has ten samples beyond it.
MIN_FRAMES = 100
# Length of one frame block; traced runs alternate untraced and traced blocks.
FRAME_BLOCK_S = 0.5
# Frames of the first traced block whose convolutions are kept for the
# useful-FLOP data-flow check.
CAPTURE_FRAMES = 2
# Criterion 8's training settings and bound; criterion 4's tolerance.
TRAIN = dict(learning_rate=0.01, momentum=0.9, epochs=60, batch_size=16, seed=0)
MIN_ACCURACY = 0.90
ORACLE_TOL = 1e-12
MAX_SPANS_WRITTEN = 20000
MAX_FAILURES_KEPT = 20


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Run:
    """Everything one measured run holds: inputs, loaded state, tallies."""

    def __init__(self, args):
        self.workload = WORKLOADS[args.workload]
        self.seed = args.seed
        self.work = Path(args.work)
        self.inputs = json.loads((self.work / "inputs.json").read_text())
        self.tracer = None
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.refs = {}       # image index -> float64 feature vector seen first
        self.metrics = {}    # name -> [value, unit]
        self.details = {}
        self.frames = self.blocks = 0
        self.frame_ms: list[float] = []
        self.traced_frame_ms: list[float] = []
        self.useful = (0, 0)
        self.passes = {"1": [], "n": []}  # (images, seconds) per pass, one / nproc workers
        self.feat = self.work / "extract.feat"
        self.feat_bytes = None
        self.train_rates: list[float] = []
        self.model_bytes = None

    def check(self, ok: bool, what: str, count: int = 1, bad: int | None = None):
        self.attempted += count
        if not ok:
            self.failed += count if bad is None else bad
            if len(self.failures) < MAX_FAILURES_KEPT:
                self.failures.append(what)

    def put(self, name, value, unit):
        self.metrics[name] = [value, unit]

    def setup(self, trace: bool):
        """Import through one warm-up frame; the span run.py reports as setup_s."""
        importlib.import_module("wavescat")
        if trace:
            from tracing import Tracer
            self.tracer = Tracer()
            self.tracer.phase = "setup"
            self.tracer.install()
        from wavescat import formats, mlp, pipeline, ppm

        self.cfg = load_config(ROOT, self.workload)
        self.model = formats.load_model(self.inputs["model"])
        self.records = formats.read_manifest(self.inputs["frames"])
        self.planes = [ppm.load_image_channel(r.path, self.cfg.channel) for r in self.records]
        vec = pipeline.extract_features(self.planes[0], self.cfg.scatter)
        self.warm = (vec, mlp.mlp_forward(self.model, vec))

    # -- phases -------------------------------------------------------------

    def check_frame(self, i, idx, vec, scores):
        import numpy as np

        ok = bool(np.isfinite(scores).all())
        ref = self.refs.setdefault(idx, vec)
        ok = ok and np.array_equal(vec.view(np.int64), ref.view(np.int64))
        self.check(ok, f"frame {i} (image {idx}): non-finite scores or feature bits differ "
                       "from the image's first extraction")

    def frame_block(self, seconds):
        """Closed loop, one thread: extract + classify one decoded plane per
        frame, cycling through the workload's planes, for `seconds`.  In a
        traced run every other block runs with the tracer removed."""
        from wavescat import mlp, pipeline

        tracer, scfg, model = self.tracer, self.cfg.scatter, self.model
        traced = tracer is not None and self.blocks % 2 == 1
        if tracer is not None and not traced:
            tracer.uninstall()
        times = self.traced_frame_ms if traced else self.frame_ms
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline:
            i = self.frames
            idx = i % len(self.planes)
            plane = self.planes[idx]
            if traced:
                tracer.frame = i
                capture = self.blocks == 1 and len(times) < CAPTURE_FRAMES
                tracer.capture = [] if capture else None
                with tracer.span("bench.frame"):
                    t0 = time.perf_counter()
                    vec = pipeline.extract_features(plane, scfg)
                    scores = mlp.mlp_forward(model, vec)
                    t1 = time.perf_counter()
                if capture:
                    from tracing import selected_planes, useful_conv_flops
                    out, config = tracer.captured_output
                    u, t = useful_conv_flops(tracer.capture, selected_planes(out, config.selection))
                    self.useful = (self.useful[0] + u, self.useful[1] + t)
                    tracer.capture = tracer.captured_output = None
            else:
                t0 = time.perf_counter()
                vec = pipeline.extract_features(plane, scfg)
                scores = mlp.mlp_forward(model, vec)
                t1 = time.perf_counter()
            times.append((t1 - t0) * 1e3)
            self.check_frame(i, idx, vec, scores)
            self.frames += 1
        if tracer is not None and not tracer.installed:
            tracer.install()
        self.blocks += 1

    def check_against_frames(self, feat_path):
        """Feature file records must equal the frame loop's vectors cast to
        float32, bit for bit."""
        import numpy as np
        from wavescat import formats

        vecs, _ = formats.read_features(feat_path)
        bad = [idx for idx, ref in self.refs.items()
               if not np.array_equal(vecs[idx].view(np.int32), ref.astype("<f4").view(np.int32))]
        self.check(not bad, f"{feat_path}: records {bad[:5]} differ from the frame loop's "
                            "features", count=len(self.refs), bad=len(bad))

    def extract_pass(self):
        """One run_extract pass over the extract manifest.  The first pass
        uses one worker and is the byte reference; later passes use nproc
        workers, alternating with one-worker passes in a traced run (for
        worker_scaling).  Every pass must write the reference bytes
        (criterion 11)."""
        from dataclasses import replace
        from wavescat import pipeline

        k = sum(map(len, self.passes.values()))
        one = k == 0 or (self.tracer is not None and k % 2 == 0)
        if self.tracer is not None:
            self.tracer.phase = "extract1" if one else "extractN"
            self.tracer.frame = k
        cfg = replace(self.cfg, threads=1 if one else nproc())
        t0 = time.perf_counter()
        report = pipeline.run_extract(cfg, self.inputs["extract"], self.feat)
        dt = time.perf_counter() - t0
        images = report.written + len(report.failures)
        self.passes["1" if one else "n"].append((images, dt))
        data = self.feat.read_bytes()
        if self.feat_bytes is None:
            self.feat_bytes = data
            self.check_against_frames(self.feat)
        same = data == self.feat_bytes
        self.check(same and not report.failures,
                   f"extract pass {k} ({cfg.threads} workers): {len(report.failures)} "
                   f"failures, bytes {'equal' if same else 'differ'} vs one worker",
                   count=images, bad=images if not same else len(report.failures))

    def train_run(self):
        """Criterion 8's training run on the extracted corpus; every repeat
        must write the same model bytes."""
        from wavescat import pipeline
        from wavescat.mlp import TrainConfig

        if self.tracer is not None:
            self.tracer.phase = "train"
        tcfg = TrainConfig(**TRAIN)
        out = self.work / "trained.bin"
        t0 = time.perf_counter()
        _, report = pipeline.run_train(self.cfg, tcfg, self.feat, self.inputs["extract"], out)
        dt = time.perf_counter() - t0
        self.train_rates.append(report.train_count * tcfg.epochs / dt)
        blob = out.read_bytes()
        self.model_bytes = self.model_bytes or blob
        self.check(blob == self.model_bytes,
                   f"training run {len(self.train_rates)} wrote other model bytes")
        self.inputs["trained"] = str(out)
        self.test_accuracy = report.test_accuracy

    def measure(self, seconds):
        """Interleave the workload's steps until `seconds` have passed: each
        time, run one step of the phase furthest behind its share of the
        run, so every phase samples the machine across the whole run."""
        shares = PHASES[self.workload.kind]
        steps = {"frames": lambda: self.frame_block(FRAME_BLOCK_S),
                 "extract": self.extract_pass, "train": self.train_run}
        spent = dict.fromkeys(shares, 0.0)
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or not self.enough():
            name = min(shares, key=lambda n: spent[n] / shares[n])
            if self.tracer is not None:
                self.tracer.phase = name
            t0 = time.perf_counter()
            steps[name]()
            spent[name] += time.perf_counter() - t0
        self.eval_phase()

    def enough(self) -> bool:
        return (len(self.frame_ms) >= MIN_FRAMES and bool(self.passes["n"])
                and (self.workload.kind != "corpus" or bool(self.train_rates)))

    def eval_phase(self):
        from wavescat import formats, pipeline

        if self.tracer is not None:
            self.tracer.phase = "eval"
        model = self.inputs.get("trained", self.inputs["model"])
        report = pipeline.run_eval(self.cfg, self.feat, self.inputs["extract"], model)
        n = len(formats.read_manifest(self.inputs["extract"]))
        self.check(report.count == n, f"run_eval scored {report.count} of {n} records")

    # -- untimed checks -----------------------------------------------------

    def oracle_check(self):
        """The workload's ScatterConfig against the brute-force oracle on a
        small seeded plane (criterion 4's tolerance)."""
        import numpy as np
        from wavescat import scattering

        spec = importlib.util.spec_from_file_location("oracles", ROOT / "tests" / "oracles.py")
        oracles = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(oracles)
        sc = self.cfg.scatter
        rng = np.random.default_rng([self.seed, 4])
        h, w = (int(v) for v in rng.integers(40, 65, size=2))
        x = rng.random((h, w))
        out = scattering.scatter(x, sc)
        if sc.variant == "classic":
            s0, u, s = oracles.brute_scatter_classic(x, sc.level_bases, sc.boundary,
                                                     sc.decimate, sc.smooth_decimate)
        else:
            s0, u, s = oracles.brute_scatter_improved(x, sc.level_bases, sc.boundary,
                                                      sc.decimate, sc.smooth_with,
                                                      sc.smooth_decimate)
        worst = max(oracles.rel_err(g, want) for g, want in
                    zip([out.s0, *out.u_levels, *out.s_levels], [s0, *u, *s]))
        self.details["oracle"] = {"plane": [h, w], "max_rel_err": worst}
        self.check(worst <= ORACLE_TOL,
                   f"scatter vs brute force on a {h}x{w} plane: rel err {worst:.3e}")

    def fixture_check(self):
        """Criterion 8 on its own fixture: test accuracy >= 0.90."""
        from dataclasses import replace
        from wavescat import pipeline
        from wavescat.mlp import TrainConfig

        fixture = self.inputs["fixture"]
        feat = self.work / "fixture.feat"
        pipeline.run_extract(replace(self.cfg, threads=min(2, nproc())), fixture, feat)
        _, report = pipeline.run_train(self.cfg, TrainConfig(**TRAIN), feat, fixture,
                                       self.work / "fixture.bin")
        self.details["criterion8_fixture_accuracy"] = report.test_accuracy
        self.check(report.test_accuracy >= MIN_ACCURACY,
                   f"criterion 8 fixture: test accuracy {report.test_accuracy:.4f} < 0.90")

    def run_bench(self):
        """Criterion 9's own five-frame figure, tracer off."""
        from wavescat import pipeline

        image = self.records[0].path
        report = pipeline.run_bench(self.cfg, self.inputs["model"], image, frames=5)
        self.check(report.frames_processed == 5, "run_bench did not process 5 frames")
        return report.wall_seconds / report.frames_processed * 1e3


# -- metrics ------------------------------------------------------------------

def throughput(passes) -> float:
    """Images per second over a list of (images, seconds) passes."""
    return sum(n for n, _ in passes) / sum(dt for _, dt in passes)


def end_to_end(run: Run):
    ms = run.frame_ms
    run.put("frame_ms_mean", statistics.fmean(ms), "ms")
    run.put("frame_ms_p50", percentile(ms, 50), "ms")
    run.put("frame_ms_p90", percentile(ms, 90), "ms")
    run.put("extract_img_per_s", throughput(run.passes["n"]), "img/s")
    if run.workload.kind == "corpus":
        run.put("train_samples_per_s", statistics.median(run.train_rates), "samples/s")
        run.put("test_accuracy", run.test_accuracy, "ratio")
    run.details.update(frames=len(ms), extract_passes=len(run.passes["n"]),
                       extract_img_per_s_1worker=throughput(run.passes["1"]))


def per_layer(run: Run, run_bench_ms: float):
    from wavescat import flops, pipeline
    from tracing import children_of, self_time

    spans = run.tracer.spans
    kids = children_of(spans)

    def named(name, phases=None):
        return [s for s in spans if s.name == name and (phases is None or s.phase in phases)]

    def total(group, key=None):
        return sum(s.attrs[key] if key else s.dur for s in group)

    def per_call_ms(group):
        return total(group) / len(group) * 1e3

    nf = len(named("bench.frame", ("frames",)))
    scat = named("scattering.scatter", ("frames",))
    by_id = {s.sid: s for s in scat}
    conv = named("scattering.conv2_decimated", ("frames",))
    full = [c for c in conv
            if c.parent in by_id and c.attrs["in_shape"] == by_id[c.parent].attrs["in_shape"]]
    conv_flops, conv_bytes = total(conv, "flops"), total(conv, "bytes")
    run.put("scattering.conv_ms", total(conv) / nf * 1e3, "ms")
    run.put("scattering.conv_fullres_ms", total(full) / nf * 1e3, "ms")
    run.put("scattering.conv_calls", len(conv) / len(scat), "count")
    run.put("scattering.conv_mflop", conv_flops / len(scat) / 1e6, "MFLOP")
    run.put("scattering.conv_gflop_per_s", conv_flops / total(conv) / 1e9, "GFLOP/s")
    run.put("scattering.conv_mb_computed", conv_bytes / len(scat) / 1e6, "MB")
    run.put("scattering.conv_flop_per_byte", conv_flops / conv_bytes, "FLOP/B")
    validate = named("scattering.validate_plane", ("frames",))
    run.put("scattering.validate_calls", len(validate) / len(scat), "count")
    run.put("scattering.validate_ms", total(validate) / nf * 1e3, "ms")
    run.put("scattering.self_ms",
            sum(self_time(s, kids.get(s.sid, ())) for s in scat) / nf * 1e3, "ms")
    run.put("scattering.feature_vector_ms",
            total(named("scattering.feature_vector", ("frames",))) / nf * 1e3, "ms")
    useful, captured = run.useful
    run.put("scattering.useful_flop_ratio", useful / captured, "ratio")
    kernels = named("filters.make_kernel2d", ("frames",))
    run.put("filters.kernel_builds", len(kernels) / len(scat), "count")
    run.put("filters.kernel_build_ms", total(kernels) / nf * 1e3, "ms")

    fwd = named("mlp.mlp_forward", ("frames",))
    run.put("mlp.forward_ms", total(fwd) / nf * 1e3, "ms")
    run.put("mlp.forward_gb_per_s", total(fwd, "bytes") / total(fwd) / 1e9, "GB/s")
    run.put("mlp.forward_flop_per_byte", total(fwd, "flops") / total(fwd, "bytes"), "FLOP/B")
    run.put("mlp.predict_ms", per_call_ms(named("mlp.predict", ("eval",))), "ms")
    steps = named("mlp.train")
    if steps:
        run.put("mlp.train_step_ms", total(steps) / total(steps, "steps") * 1e3, "ms")

    # single-threaded decodes only: pool workers contend for the interpreter
    decode = named("ppm.load_image_channel", ("setup", "extract1"))
    run.put("ppm.decode_ms", per_call_ms(decode), "ms")
    run.put("ppm.decode_mb_per_s", total(decode, "bytes") / total(decode) / 1e6, "MB/s")
    loads = named("formats.load_model")
    run.put("formats.load_model_ms", per_call_ms(loads), "ms")
    run.put("formats.load_model_mb_per_s", total(loads, "bytes") / total(loads) / 1e6, "MB/s")
    run.put("formats.write_features_ms", per_call_ms(named("formats.write_features")), "ms")
    run.put("formats.read_features_ms", per_call_ms(named("formats.read_features")), "ms")

    rate1 = throughput(run.passes["1"])
    run.put("pipeline.extract_img_per_s_1worker", rate1, "img/s")
    run.put("pipeline.worker_scaling", throughput(run.passes["n"]) / rate1, "ratio")
    passes = named("pipeline.run_extract", ("extractN",))
    run.put("pipeline.self_ms",
            sum(self_time(s, kids.get(s.sid, ())) for s in passes)
            / total(passes, "images") * 1e3, "ms")
    run.put("pipeline.run_bench_ms", run_bench_ms, "ms")

    cfg = run.cfg
    report = flops.pipeline_flops(cfg.width, cfg.height, cfg.scatter, len(cfg.classes),
                                  pipeline.HIDDEN)
    model_conv = sum(n for label, (_, n) in zip(report.labels, report.per_layer) if "*" in label)
    run.put("flops.pipeline_mflop", report.total / 1e6, "MFLOP")
    run.put("flops.trace_agreement", model_conv / (conv_flops / len(scat)), "ratio")
    run.put("bench.trace_overhead_ms",
            percentile(run.traced_frame_ms, 50) - percentile(run.frame_ms, 50), "ms")
    run.details.update(frames=len(run.frame_ms), traced_frames=nf,
                       spans=len(spans))


def machine_facts(seed: int) -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": nproc(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "thread_env": {k: os.environ.get(k) for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "seed": seed,
    }


def write_spans(spans, path: Path):
    with open(path, "w", encoding="utf-8") as fh:
        for s in spans[:MAX_SPANS_WRITTEN]:
            fh.write(json.dumps(s.to_json()) + "\n")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("mode", choices=("prepare", "setup", "run"))
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--work", required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    args = ap.parse_args(argv)
    if args.mode == "prepare":
        prepare(ROOT, WORKLOADS[args.workload], args.seed, Path(args.work))
        return 0

    run = Run(args)
    t0 = time.perf_counter()
    run.setup(trace=bool(args.trace))
    setup_s = time.perf_counter() - t0
    result = {"setup_s": setup_s}
    if args.mode == "run":
        run.check_frame("warm-up", 0, *run.warm)
        run.measure(args.seconds)
        if run.tracer is not None:
            run.tracer.uninstall()
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        bench_ms = run.run_bench()
        run.oracle_check()
        if run.workload.kind == "corpus":
            run.fixture_check()
        if run.tracer is None:
            end_to_end(run)
            run.put("peak_rss_mb", peak_rss_mb, "MB")
            run.details["run_bench_ms"] = bench_ms
        else:
            per_layer(run, bench_ms)
            if args.spans:
                write_spans(run.tracer.spans, Path(args.spans))
        result.update(metrics=run.metrics, attempted=run.attempted, failed=run.failed,
                      failures=run.failures, details=run.details,
                      facts=machine_facts(args.seed))
    Path(args.out).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
