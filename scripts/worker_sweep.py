"""Pool versus calling thread for run_extract, per plane size.

For each size, writes a synthetic corpus and times run_extract with the
calling thread alone ("serial") and with a pool of --threads workers, in
alternating rounds.  The pool is the calling thread plus --threads - 1
helper threads, all taking images from one queue.  It is forced at every
size by setting pipeline.POOL_MIN_PIXELS to 0, so the table shows where
the threshold should sit.  Prints the pool's median rate over the calling
thread's and how many rounds the pool won.  Run with OPENBLAS_NUM_THREADS=1
so BLAS threads do not compete with the workers:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python scripts/worker_sweep.py
"""

import argparse
import os
import statistics
import tempfile
import time

import numpy as np

from wavescat import pipeline, synth_dataset

SIZES = ("128x128", "256x256", "384x320", "512x288", "640x360", "1280x720")


def rate(cfg, manifest, out):
    t0 = time.perf_counter()
    report = pipeline.run_extract(cfg, manifest, out)
    return report.written / (time.perf_counter() - t0)


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--sizes", nargs="+", default=SIZES, metavar="WxH")
    ap.add_argument("--rounds", type=int, default=8)
    ap.add_argument("--threads", type=int, default=2,
                    help="workers in the pool, the calling thread included")
    ap.add_argument("--mpx", type=float, default=8.0,
                    help="megapixels per pass; sets the image count per size")
    args = ap.parse_args()

    # free a 19 MB temporary, as load_model's finite check does in the
    # benchmark's process: it lifts glibc's mmap threshold for later arrays
    np.ones(19_000_000 // 8).sum()
    pipeline.POOL_MIN_PIXELS = 0
    with tempfile.TemporaryDirectory(prefix="wavescat-sweep-") as work:
        print("| size | pixels | images | pool / serial | pool wins |")
        print("|---|---|---|---|---|")
        for size in args.sizes:
            w, h = map(int, size.split("x"))
            per_class = max(2, round(args.mpx * 1e6 / (w * h) / 5))
            manifest = synth_dataset(os.path.join(work, size), per_class=per_class,
                                     width=w, height=h, seed=1)
            serial = pipeline.PipelineConfig(width=w, height=h, threads=1)
            pool = pipeline.PipelineConfig(width=w, height=h, threads=args.threads)
            out = os.path.join(work, f"{size}.feat")
            rate(serial, manifest, out)  # warm the kernel and plan caches
            ratios = []
            for _ in range(args.rounds):
                one = rate(serial, manifest, out)
                ratios.append(rate(pool, manifest, out) / one)
            wins = sum(r > 1 for r in ratios)
            print(f"| {size} | {w * h} | {5 * per_class} | {statistics.median(ratios):.2f} "
                  f"| {wins}/{args.rounds} |")


if __name__ == "__main__":
    main()
