"""Smoke runs of scripts/: each script reads package internals, so a
refactor that breaks one shows up here.  Tiny arguments keep each run to
about half a second."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script, args, header", [
    ("tap_sweep.py", ["--sizes", "64x64", "--taps", "2", "13", "--rounds", "1"],
     "| taps | size | tap loop ms | GEMM ms | GEMM / loop | GEMM wins |"),
    ("worker_sweep.py", ["--sizes", "128x128", "--rounds", "1", "--mpx", "0.1"],
     "| size | pixels | images | pool / serial | pool wins |"),
    ("compare_variants.py", ["--per-class", "2", "--epochs", "1", "--work", "{tmp}"],
     "class               tpr      ppv      acc        tpr      ppv      acc"),
], ids=["tap_sweep", "worker_sweep", "compare_variants"])
def test_script_runs_and_prints_its_table(tmp_path, script, args, header):
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", TMPDIR=str(tmp_path),
               PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, str(ROOT / "scripts" / script),
            *(a.format(tmp=tmp_path / "work") for a in args)]
    run = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert header in run.stdout.splitlines()
