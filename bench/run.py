"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload frame720 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Run from anywhere; paths are taken relative to this file.  --seconds
defaults to BENCHMARK.json's run_seconds.  With --trace 0
the end-to-end metrics are printed, with --trace 1 the per-layer ones (a
separate, traced run).  --workload all runs every workload untraced and then
traced.  Each metric is printed on its own line by name with its unit; the
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics, holding the metrics BENCHMARK.json declares.
The full record, with the machine's facts and every metric, goes to
bench/out/<workload>-seed<seed>-trace<t>.json.

The inputs are generated from the seed in one process, set-up is timed in
SETUP_PROBES more fresh processes, and the workload runs in another; each
of them gets OPENBLAS_NUM_THREADS=OMP_NUM_THREADS=1.  Exit code 0 means a
result was printed; correct is false when any output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
# Fresh processes that only time set-up; with the measured process's own
# set-up they give five samples, and setup_s is their median.
SETUP_PROBES = 4
# Every run must end within 180 s; children are killed past this budget.
BUDGET_S = 170.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def child(mode, args, work, deadline, out=None, extra=()):
    cmd = [sys.executable, str(HERE / "measure.py"), mode, "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(work), *extra]
    if out is not None:
        cmd += ["--out", str(out)]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise TimeoutError(f"no time left for the {mode} step")
    # subprocess.run kills and reaps the child if it times out
    subprocess.run(cmd, env=child_env(), stdout=sys.stderr, check=True, timeout=remaining)
    return json.loads(Path(out).read_text()) if out is not None else None


def run_one(args, declared) -> tuple[dict, dict]:
    """Measure one (workload, seed, trace) and return (result line, record)."""
    deadline = time.monotonic() + BUDGET_S
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}-{os.getpid()}"
    try:
        child("prepare", args, work, deadline)
        setups = []
        if not args.trace:
            for i in range(SETUP_PROBES):
                setups.append(child("setup", args, work, deadline, work / f"setup{i}.json")["setup_s"])
        extra = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            extra += ["--spans", str(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")]
        res = child("run", args, work, deadline, work / "run.json", extra)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = res["metrics"]
    if not args.trace:
        setups.append(res["setup_s"])
        metrics["setup_s"] = [statistics.median(setups), "s"]
        metrics["error_rate"] = [res["failed"] / res["attempted"], "ratio"]
        res["details"]["setup_s_samples"] = setups
    missing = [name for name in declared if name not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {', '.join(missing)}")
    line = {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"],
            "metrics": {name: {"value": metrics[name][0], "unit": metrics[name][1]}
                        for name in declared}}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "why": WORKLOADS[args.workload].why,
              "facts": res["facts"], **{k: line[k] for k in ("correct", "attempted", "failed")},
              "failures": res["failures"], "metrics": metrics, "details": res["details"]}
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    return line, record


def print_record(record):
    f = record["facts"]
    print(f"== {record['workload']}  seed {record['seed']}  trace {record['trace']}  "
          f"{record['seconds']:g} s")
    print(f"   machine: nproc {f['nproc']}, {f['cpu_model']}, Python {f['python']}, "
          f"numpy {f['numpy']}, {f['blas']}, threads {f['thread_env']}")
    for name, (value, unit) in record["metrics"].items():
        print(f"   {name:<38} {value:>14.6g} {unit}")
    print(f"   checks: {record['attempted']} attempted, {record['failed']} failed")
    for what in record["failures"]:
        print(f"   FAILED: {what}")
    sys.stdout.flush()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="wavescat benchmark")
    ap.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM unwind normally, so a running child is killed and reaped
    # and the work directory removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seconds is not None and args.seconds <= 0:
        ap.error("--seconds must be positive")
    missing = [p for p in (ROOT / "src" / "wavescat" / "__init__.py",
                           ROOT / "tests" / "oracles.py", ROOT / "BENCHMARK.json")
               if not p.is_file()]
    if missing:
        print(f"bench: cannot run, missing {', '.join(map(str, missing))}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    declared = {0: [m["name"] for m in spec["end_to_end"]],
                1: [m["name"] for m in spec["per_layer"]]}

    if args.workload != "all":
        line, record = run_one(args, declared[args.trace])
        print_record(record)
        print(json.dumps(line))
        return 0
    summary = {}
    for name in WORKLOADS:
        for trace in (0, 1):
            one = argparse.Namespace(**{**vars(args), "workload": name, "trace": trace})
            line, record = run_one(one, declared[trace])
            print_record(record)
            summary[f"{name}/trace{trace}"] = line
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
