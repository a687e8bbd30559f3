"""Tap loop versus GEMM row pass, per kernel length and plane size.

For each kernel length and plane, times one decimating row pass, built by
scattering._pass_plan, as the tap loop and as the GEMM row pass, in
alternating rounds.  Each path is forced at every length by setting
scattering.GEMM_MIN_TAPS above or below it and dropping the cached plans,
so the table shows where the threshold should sit.  The kernels are the
filter bank's: bior1.1's low-pass (2 taps), bior2.2's high-pass (3),
bior2.2's low-pass (5), bior1.3's low-pass (6) and bior2.6's low-pass
(13), all with the symmetric boundary.  Prints each path's median time
and how many rounds the GEMM won.  BLAS runs on one thread, as in the
benchmark:

    PYTHONPATH=src python scripts/tap_sweep.py
"""

import os

os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402

import numpy as np  # noqa: E402

from wavescat import scattering  # noqa: E402
from wavescat.filters import SCALE, WAVELET_DIAGONAL, make_filter_pair, make_kernel2d  # noqa: E402

KERNELS = {2: ("bior1.1", SCALE), 3: ("bior2.2", WAVELET_DIAGONAL), 5: ("bior2.2", SCALE),
           6: ("bior1.3", SCALE), 13: ("bior2.6", SCALE)}
SIZES = ("64x64", "640x360", "1280x720")


def seconds(x, kernel, stride, min_taps, repeats):
    scattering.GEMM_MIN_TAPS = min_taps
    scattering._pass_plan.cache_clear()  # a cached plan keeps the engine it was built with
    row_pass = scattering._pass_plan(kernel, x.shape, "symmetric", stride, 1, scattering._BLOCK)
    t0 = time.perf_counter()
    for _ in range(repeats):
        row_pass(x)
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
    for k in args.taps:
        basis, kind = KERNELS[k]
        kernel = make_kernel2d(make_filter_pair(basis), kind, unit_dc=kind == SCALE)
        for size in args.sizes:
            w, h = map(int, size.split("x"))
            x = np.random.default_rng(k).random((h, w))
            repeats = max(1, round(args.mpx * 1e6 / (w * h)))
            loop = k + 1   # every kernel takes the tap loop
            gemm = 1       # every kernel takes the GEMM
            seconds(x, kernel, args.stride, loop, 1)  # warm up both paths
            seconds(x, kernel, args.stride, gemm, 1)
            loops, gemms = [], []
            for r in range(args.rounds):
                order = ((loops, loop), (gemms, gemm))
                for times, min_taps in order if r % 2 else order[::-1]:
                    times.append(seconds(x, kernel, args.stride, min_taps, repeats))
            wins = sum(g < t for g, t in zip(gemms, loops))
            a, b = statistics.median(loops) * 1e3, statistics.median(gemms) * 1e3
            print(f"| {k} | {size} | {a:.3f} | {b:.3f} | {b / a:.2f} | {wins}/{args.rounds} |")


if __name__ == "__main__":
    main()
