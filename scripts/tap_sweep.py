"""Tap loop versus GEMM, per kernel length and plane size.

For each kernel and plane, times one decimating convolution, built by
scattering._conv_plan, on the tap loop and as two GEMM passes, in
alternating rounds.  The tap loop runs as extract runs it: in bands of
output rows, each band's row pass feeding its column pass.  Each engine
is forced through the rule that picks it once per convolution
(scattering._runs_as_gemm) by setting the rule's constants,
GEMM_MIN_TAPS and GEMM_MIN_PIXELS, to extremes before the convolution is
built, so the table shows where the rule's thresholds should sit.  The
kernels are the filter bank's: bior1.1's low-pass (2 taps), bior2.2's
high-pass (3), bior2.2's low-pass (5), bior1.3's low-pass (6) and
bior2.6's low-pass (13), all with the symmetric boundary.  Prints each
engine's median time and how many rounds the GEMM won.  BLAS runs on one
thread, as in the benchmark:

    PYTHONPATH=src python scripts/tap_sweep.py [--sizes WxH ...] [--taps K ...]
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import itertools  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from wavescat import scattering  # noqa: E402
from wavescat.filters import SCALE, WAVELET_DIAGONAL, make_filter_pair, make_kernel2d  # noqa: E402

KERNELS = {2: ("bior1.1", SCALE), 3: ("bior2.2", WAVELET_DIAGONAL), 5: ("bior2.2", SCALE),
           6: ("bior1.3", SCALE), 13: ("bior2.6", SCALE)}
# 320x240 is the plane of a 640x480 image's level-2 convolutions
SIZES = ("64x64", "320x180", "320x240", "640x360", "1280x720")


def seconds(x, kernel, stride, gemm, repeats):
    k = len(kernel.factor)
    # at these extremes the rule sends this convolution one way
    scattering.GEMM_MIN_TAPS, scattering.GEMM_MIN_PIXELS = (1, 0) if gemm else (k + 1, x.size + 1)
    scattering._conv_plan.cache_clear()
    conv = scattering._conv_plan(kernel, x.shape, "symmetric", stride)
    t0 = time.perf_counter()
    for _ in range(repeats):
        conv(x)
    return (time.perf_counter() - t0) / repeats


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", nargs="+", default=SIZES, metavar="WxH")
    ap.add_argument("--taps", nargs="+", type=int, default=sorted(KERNELS), choices=sorted(KERNELS))
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--stride", type=int, default=2)
    ap.add_argument("--mpx", type=float, default=2.0,
                    help="megapixels per timed sample; sets the repeats per size")
    args = ap.parse_args()

    print("| taps | size | tap loop ms | GEMM ms | GEMM / loop | GEMM wins |")
    print("|---|---|---|---|---|---|")
    for k, size in itertools.product(args.taps, args.sizes):
        basis, kind = KERNELS[k]
        kernel = make_kernel2d(make_filter_pair(basis), kind, unit_dc=kind == SCALE)
        w, h = map(int, size.split("x"))
        x = np.random.default_rng(k).random((h, w))
        repeats = max(1, round(args.mpx * 1e6 / x.size))
        seconds(x, kernel, args.stride, False, 1)  # warm up both paths
        seconds(x, kernel, args.stride, True, 1)
        loops, gemms = [], []
        for r in range(args.rounds):
            order = ((loops, False), (gemms, True))
            for times, gemm in order if r % 2 else order[::-1]:
                times.append(seconds(x, kernel, args.stride, gemm, repeats))
        wins = sum(g < t for g, t in zip(gemms, loops))
        a, b = statistics.median(loops) * 1e3, statistics.median(gemms) * 1e3
        print(f"| {k} | {size} | {a:.3f} | {b:.3f} | {b / a:.2f} | {wins}/{args.rounds} |")


if __name__ == "__main__":
    main()
