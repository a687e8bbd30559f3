"""Acceptance suite: one check per release criterion.

Each test prints a single PASS/FAIL line on the real stdout so the
verdicts stay visible in captured pytest runs.  Tolerances are pinned
here and nowhere else; the library itself never reads them.
"""

from pathlib import Path

import numpy as np
import pytest

import oracles
from test_mlp import gradcheck_worst_rel, sample_kink_free_pair

from wavescat import pipeline, synth
from wavescat.filters import BASES
from wavescat.flops import (NetworkSpec, fc_flops, network_flops, parse_layers,
                            pipeline_flops, relu_flops)
from wavescat.formats import read_manifest, save_model
from wavescat.metrics import (binary_tally, confusion_from_predictions, efficiency,
                              tpr, ppv, acc)
from wavescat.mlp import TrainConfig, init_model
from wavescat.pipeline import HIDDEN, PipelineConfig, run_bench, run_eval, run_extract, run_train
from wavescat.ppm import write_ppm
from wavescat.scattering import ScatterConfig, scatter
from wavescat.synth import CLASSES

ROOT = Path(__file__).resolve().parents[1]

_CAPTURE = None


@pytest.fixture(autouse=True)
def _live_verdicts(capfd):
    global _CAPTURE
    _CAPTURE = capfd
    yield
    _CAPTURE = None


def _report(num, ok, detail):
    line = f"criterion {num:>2} {'PASS' if ok else 'FAIL'}  {detail}"
    with _CAPTURE.disabled():
        print(line, flush=True)
    assert ok, line


def test_criterion_01_reference_network_totals():
    layers = parse_layers((ROOT / "configs" / "reference_cnn.layers").read_text())
    targets = {(960, 540): 0.46e9, (1280, 720): 0.82e9, (1920, 1080): 1.85e9}
    frozen = {(960, 540): 459_278_104, (1280, 720): 821_091_304,
              (1920, 1080): 1_857_831_304}
    got, ok = {}, True
    for (w, h), target in targets.items():
        total = network_flops(NetworkSpec(w, h, 3, layers)).total
        got[(w, h)] = total
        ok = ok and total == frozen[(w, h)]
        ok = ok and abs(total - target) / target <= 0.02
    _report(1, ok, "reference network totals "
            + " / ".join(f"{v / 1e9:.4f}G" for v in got.values())
            + " within 2% of 0.46/0.82/1.85G")


def test_criterion_02_dense_layer_counts():
    big = fc_flops(1_036_800, 64, True)
    ok = 66_300_000 <= big <= 66_400_000
    ok = ok and fc_flops(64, 16, True) == 1040
    ok = ok and relu_flops(64) == 64 and relu_flops(16) == 16
    # a 68 total only arises for a 16->4 layer, never for 16->16 with bias
    ok = ok and fc_flops(16, 16, True) == 272 and fc_flops(16, 4, True) == 68
    _report(2, ok, f"fc 1036800->64 = {big}; fc 64->16 = 1040; relu 64/16; "
                   "fc 16->16 = 272 (a 68 total corresponds to 16->4)")


def test_criterion_03_pipeline_scales_with_pixels():
    cfg = ScatterConfig()
    per_pixel = []
    for w, h in ((960, 540), (1280, 720), (1920, 1080)):
        total = pipeline_flops(w, h, cfg, len(CLASSES), HIDDEN).total
        per_pixel.append(total / (w * h))
    spread = max(per_pixel) / min(per_pixel) - 1.0
    _report(3, spread <= 0.02,
            f"pipeline FLOPs per pixel {min(per_pixel):.3f}..{max(per_pixel):.3f}, "
            f"spread {spread * 100:.3f}% <= 2%")


def test_criterion_04_cascades_match_brute_force():
    rng = np.random.default_rng(44)
    lo = {1: 12, 2: 24, 3: 24}
    worst, seen, images = 0.0, set(), 0
    for i in range(102):
        depth = i % 3 + 1
        while True:
            bases = tuple(BASES[j] for j in rng.integers(0, 4, size=depth))
            # a 13-tap smoother cannot extend the deepest depth-3 plane
            if depth < 3 or "bior2.6" not in (bases[0], bases[-1]):
                break
        h, w = (int(v) for v in rng.integers(lo[depth], 33, size=2))
        x = rng.random((h, w))
        boundary = ("symmetric", "periodic")[int(rng.integers(0, 2))]
        smooth_with = ("first", "last")[int(rng.integers(0, 2))]
        seen.update(bases)
        images += 1
        for variant in ("classic", "improved"):
            cfg = ScatterConfig(level_bases=bases, boundary=boundary,
                                variant=variant, smooth_with=smooth_with,
                                selection=("U1",))
            out = scatter(x, cfg)
            if variant == "classic":
                s0, u, sl = oracles.brute_scatter_classic(x, bases, boundary, 2, True)
            else:
                s0, u, sl = oracles.brute_scatter_improved(
                    x, bases, boundary, 2, smooth_with, True)
            for got, want in zip([out.s0, *out.u_levels, *out.s_levels],
                                 [s0, *u, *sl]):
                worst = max(worst, oracles.rel_err(got, want))
    ok = images >= 100 and seen == set(BASES) and worst <= 1e-12
    _report(4, ok, f"both cascades vs brute force on {images} images "
                   f"(all 4 bases), max rel err {worst:.2e} <= 1e-12")


def test_criterion_05_order_one_variants_agree():
    rng = np.random.default_rng(51)
    worst, cases = 0.0, 0
    for i in range(32):
        basis = BASES[i % 4]
        boundary = ("symmetric", "periodic")[i % 2]
        h, w = (int(v) for v in rng.integers(12, 33, size=2))
        x = rng.random((h, w))
        outs = []
        for variant in ("classic", "improved"):
            cfg = ScatterConfig(level_bases=(basis,), boundary=boundary,
                                variant=variant, selection=("U1",))
            out = scatter(x, cfg)
            outs.append([out.s0, out.u_levels[0], out.s_levels[0]])
        for a, b in zip(*outs):
            worst = max(worst, oracles.rel_err(a, b))
        cases += 1
    _report(5, worst <= 1e-12,
            f"depth-1 classic vs improved on {cases} images, "
            f"max rel err {worst:.2e} <= 1e-12")


def test_criterion_06_dyadic_shift_equivariance():
    # undecimated smoothing keeps every level-m plane on the 2^m grid, so a
    # 2^m-pixel circular input shift must move U_m and S_m by exactly 1 pixel
    rng = np.random.default_rng(66)
    cfg = ScatterConfig(level_bases=("bior1.1",) * 3, boundary="periodic",
                        smooth_decimate=False, selection=("U1",))
    cases, ok = 0, True
    for _ in range(18):
        h = 8 * int(rng.integers(2, 9))
        w = 8 * int(rng.integers(2, 9))
        x = rng.random((h, w))
        base = scatter(x, cfg)
        for m in (1, 2, 3):
            shift = 2 ** m
            moved = scatter(np.roll(x, (shift, shift), axis=(0, 1)), cfg)
            ok = ok and np.array_equal(moved.u_levels[m - 1],
                                       np.roll(base.u_levels[m - 1], (1, 1), (0, 1)))
            ok = ok and np.array_equal(moved.s_levels[m - 1],
                                       np.roll(base.s_levels[m - 1], (1, 1), (0, 1)))
            cases += 1
    _report(6, ok and cases >= 50,
            f"{cases} shift cases: input shift 2^m moved every level-m plane "
            "by exactly 1 pixel (bitwise)")


def test_criterion_07_gradient_check():
    shapes = [(6, 5, 4, 3), (10, 8, 5, 4), (5, 7, 6, 2), (8, 6, 6, 3)]
    worst, pairs = 0.0, 0
    for seed in range(108):
        model, x, t = sample_kink_free_pair(seed, dims=shapes[seed % 4])
        worst = max(worst, gradcheck_worst_rel(model, x, t))
        pairs += 1
    _report(7, pairs >= 100 and worst <= 1e-4,
            f"analytic vs central-difference gradients on {pairs} pairs, "
            f"max rel err {worst:.2e} <= 1e-4")


def test_criterion_08_synthetic_classification(tmp_path):
    manifest = synth.synth_dataset(tmp_path / "data", per_class=100, seed=7)
    cfg = PipelineConfig(width=64, height=64, threads=2)
    feat = tmp_path / "train.feat"
    report = run_extract(cfg, manifest, feat)
    assert report.failures == ()
    tcfg = TrainConfig(learning_rate=0.01, momentum=0.9, epochs=60,
                       batch_size=16, seed=0)
    _, trained = run_train(cfg, tcfg, feat, manifest, tmp_path / "model.bin")
    ok = trained.test_accuracy >= 0.90
    _report(8, ok, f"synthetic 5-class fixture (500 images, 8:2 split): "
                   f"test accuracy {trained.test_accuracy:.4f} >= 0.90 "
                   f"(train {trained.train_accuracy:.4f})")


def test_criterion_09_realtime_720p(tmp_path):
    rng = np.random.default_rng(9)
    image = tmp_path / "frame.ppm"
    write_ppm(image, synth.render_image("nest", rng, 1280, 720))
    cfg = PipelineConfig()  # 1280x720, single thread
    model = init_model((302_400, *HIDDEN, len(CLASSES)), seed=0)
    model_path = tmp_path / "model.bin"
    save_model(model, model_path)
    bench = run_bench(cfg, model_path, image, frames=5)
    ms = bench.wall_seconds / bench.frames_processed * 1e3
    _report(9, ms < 33.0,
            f"720p extract+classify {ms:.2f} ms/frame ({bench.fps:.1f} fps) < 33 ms")


def test_criterion_10_metrics_and_efficiency():
    rng = np.random.default_rng(10)
    ok = True
    for _ in range(300):
        labels = tuple(f"c{i}" for i in range(int(rng.integers(2, 7))))
        n = int(rng.integers(1, 60))
        pairs = [(labels[int(rng.integers(len(labels)))],
                  labels[int(rng.integers(len(labels)))]) for _ in range(n)]
        matrix = confusion_from_predictions(pairs, labels)
        for positive in labels:
            t = binary_tally(matrix, positive)
            bt = oracles.brute_tally(pairs, positive)
            ok = ok and (t.tp, t.fp, t.fn, t.tn) == bt
            if t.tp + t.fn:
                ok = ok and tpr(t) == t.tp / (t.tp + t.fn)
            if t.tp + t.fp:
                ok = ok and ppv(t) == t.tp / (t.tp + t.fp)
            ok = ok and acc(t) == (t.tp + t.tn) / (t.tp + t.fp + t.fn + t.tn)
    e1 = efficiency(66.7, 472e9)
    e2 = efficiency(149.3, 3000e9)
    ok = ok and round(e1, 3) == 0.141 and round(e2, 3) == 0.050
    _report(10, ok, "tpr/ppv/acc match brute tallies exactly on 300 matrices; "
                    f"efficiency {e1:.3f}/{e2:.3f} == 0.141/0.050")


def test_criterion_11_determinism(tmp_path, monkeypatch):
    tcfg = TrainConfig(learning_rate=0.05, epochs=6, batch_size=8, seed=3)
    default = pipeline.POOL_MIN_PIXELS
    blobs = []
    for side in ("a", "b"):
        work = tmp_path / side
        manifest = synth.synth_dataset(work / "data", per_class=4, seed=5)
        feats = []
        # 64x64 planes run on the calling thread; a 1 px threshold forces the pool
        for i, (threads, min_pixels) in enumerate(((1, default), (4, default), (4, 1))):
            monkeypatch.setattr(pipeline, "POOL_MIN_PIXELS", min_pixels)
            cfg = PipelineConfig(width=64, height=64, threads=threads)
            out = work / f"t{i}.feat"
            report = run_extract(cfg, manifest, out)
            assert report.workers == (1 if min_pixels > 1 else threads)
            feats.append(out.read_bytes())
        assert feats[0] == feats[1] == feats[2]
        cfg = PipelineConfig(width=64, height=64)
        model_path = work / "model.bin"
        _, report = run_train(cfg, tcfg, work / "t0.feat", manifest, model_path)
        ev = run_eval(cfg, work / "t0.feat", manifest, model_path)
        blobs.append({
            "images": b"".join(Path(r.path).read_bytes()
                               for r in read_manifest(manifest)),
            "features": feats[0],
            "model": model_path.read_bytes(),
            "history": report.history,
            "matrix": ev.matrix.counts.tolist(),
            "per_class": ev.per_class,
        })
    ok = blobs[0] == blobs[1]
    _report(11, ok, "feature files, model files, and reports bitwise identical "
                    "across runs and thread counts")
