"""Tap loop versus GEMM, per pass axis, kernel length and plane size.

For each axis, kernel length and plane, times one decimating pass, built by
scattering._pass_plan, as the tap loop and as the GEMM, in alternating
rounds.  A row pass reads the WxH plane; a column pass reads what the row
pass makes of it, H rows of ceil(W/stride) columns.  Each path is forced
through the engine rule (scattering._runs_as_gemm) by setting its
constants, GEMM_MIN_TAPS and GEMM_MIN_PIXELS, to extremes before the pass
is built, so the table shows where the rule's thresholds should sit.  The
kernels are the filter bank's: bior1.1's low-pass (2 taps), bior2.2's
high-pass (3), bior2.2's low-pass (5), bior1.3's low-pass (6) and bior2.6's
low-pass (13), all with the symmetric boundary.  Prints each path's median
time and how many rounds the GEMM won.  BLAS runs on one thread, as in the
benchmark:

    PYTHONPATH=src python scripts/tap_sweep.py [--axes row column]
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
SIZES = ("64x64", "320x180", "640x360", "1280x720")
AXES = {"row": 1, "column": 0}  # the pass's axis argument


def seconds(x, kernel, stride, axis, gemm, repeats):
    k = len(kernel.factor)
    # at these extremes the rule sends every pass of this kernel one way
    scattering.GEMM_MIN_TAPS, scattering.GEMM_MIN_PIXELS = (1, 0) if gemm else (k + 1, x.size + 1)
    assert scattering._runs_as_gemm(k, x.shape) == gemm
    one_pass = scattering._pass_plan(kernel, x.shape, "symmetric", stride, axis)
    t0 = time.perf_counter()
    for _ in range(repeats):
        one_pass(x)
    return (time.perf_counter() - t0) / repeats


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--axes", nargs="+", default=list(AXES), choices=AXES)
    ap.add_argument("--sizes", nargs="+", default=SIZES, metavar="WxH")
    ap.add_argument("--taps", nargs="+", type=int, default=sorted(KERNELS), choices=sorted(KERNELS))
    ap.add_argument("--rounds", type=int, default=15)
    ap.add_argument("--stride", type=int, default=2)
    ap.add_argument("--mpx", type=float, default=2.0,
                    help="megapixels per timed sample; sets the repeats per size")
    args = ap.parse_args()

    print("| axis | taps | size | tap loop ms | GEMM ms | GEMM / loop | GEMM wins |")
    print("|---|---|---|---|---|---|---|")
    for name, k, size in itertools.product(args.axes, args.taps, args.sizes):
        basis, kind = KERNELS[k]
        kernel = make_kernel2d(make_filter_pair(basis), kind, unit_dc=kind == SCALE)
        axis = AXES[name]
        w, h = map(int, size.split("x"))
        x = np.random.default_rng(k).random((h, w if axis else -(-w // args.stride)))
        repeats = max(1, round(args.mpx * 1e6 / x.size))
        seconds(x, kernel, args.stride, axis, False, 1)  # warm up both paths
        seconds(x, kernel, args.stride, axis, True, 1)
        loops, gemms = [], []
        for r in range(args.rounds):
            order = ((loops, False), (gemms, True))
            for times, gemm in order if r % 2 else order[::-1]:
                times.append(seconds(x, kernel, args.stride, axis, gemm, repeats))
        wins = sum(g < t for g, t in zip(gemms, loops))
        a, b = statistics.median(loops) * 1e3, statistics.median(gemms) * 1e3
        print(f"| {name} | {k} | {size} | {a:.3f} | {b:.3f} | {b / a:.2f} | {wins}/{args.rounds} |")


if __name__ == "__main__":
    main()
