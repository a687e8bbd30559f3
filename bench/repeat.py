"""Run one workload on several seeds and report each metric's run-to-run spread.

    python3 bench/repeat.py --workload frame720 --seeds 1-10 --seconds 20

Runs bench/run.py once per seed, one after another, and prints for every
metric of the result line its median over the runs and the distance between
the first and third quartile as a share of that median
(statistics.quantiles(values, n=4)), next to the bound BENCHMARK.json gives.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from calc import quartile_spread

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    ap.add_argument("--seconds", type=float, default=None)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                              text=True, check=True)
        line = json.loads(proc.stdout.strip().splitlines()[-1])
        if not line["correct"]:
            print(f"seed {seed}: {line['failed']} of {line['attempted']} checks failed")
        for name, m in line["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={m['value']:.4g}"
                                            for k, m in line["metrics"].items()), flush=True)
    print(f"{'metric':<38} {'median':>12} {'spread':>8} {'bound':>6}")
    for name, vals in values.items():
        med = statistics.median(vals)
        spread = quartile_spread(vals) if len(vals) > 1 and med else float("nan")
        bound = bounds.get(name)
        print(f"{name:<38} {med:>12.5g} {spread:>8.4f} {bound if bound is not None else '':>6}")
    print(json.dumps({"workload": args.workload, "values": values}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
