"""The benchmark's workloads and the input files each one is given.

prepare() writes every input from the seed, in its own process, before
anything is timed; the measured process only reads the files it leaves.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

# 720p frames in the extract manifest: the timed frame (nest) plus one
# frame of each of the next three classes, so every worker gets two.
EXTRACT_FRAMES = 4
# Criterion 8's corpus size (per class) and its fixture seed.
CORPUS_PER_CLASS = 100
FIXTURE_SEED = 7


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str       # "frame": one 720p frame, closed loop; "corpus": 64x64 corpus
    config: str     # repo-relative config file
    overrides: dict = field(default_factory=dict)
    why: str = ""


WORKLOADS = {w.name: w for w in (
    Workload(
        "frame720", "frame", "configs/default720p.cfg",
        why="criterion 9's setup: the two full-resolution convolutions and the "
            "155 MB head GEMV do almost all the work"),
    Workload(
        "classic720s", "frame", "configs/default720p.cfg",
        {"variant": "classic", "bases": "bior2.6,bior1.3,bior2.2",
         "boundary": "periodic", "selection": "S0,S1,S2,S3"},
        why="same layers used another way: classic branch, 13-tap low-pass, "
            "periodic boundary, every smoothing convolution feeds the output"),
    Workload(
        "corpus64", "corpus", "configs/synth64.cfg",
        why="64x64 corpus: per-call overhead, PPM decode, feature I/O, the "
            "worker pool and batched backprop dominate; no 720p head"),
)}


def load_config(root: Path, workload: Workload):
    """The workload's PipelineConfig, parsed the way the CLI parses --config."""
    from wavescat import formats, pipeline

    mapping = formats.parse_config_file(root / workload.config)
    mapping.update(workload.overrides)
    return pipeline.overlay_configs(mapping)[0]


def prepare(root: Path, workload: Workload, seed: int, work: Path) -> dict:
    """Write the workload's inputs into work/ and return their paths, which
    are also saved as work/inputs.json."""
    import numpy as np
    from wavescat import formats, mlp, pipeline, ppm, scattering, synth

    cfg = load_config(root, workload)
    work.mkdir(parents=True, exist_ok=True)
    inputs = {}
    if workload.kind == "frame":
        records = []
        for i, label in enumerate(synth.CLASSES[:EXTRACT_FRAMES]):
            img = synth.render_image(label, np.random.default_rng([seed, i]),
                                     cfg.width, cfg.height)
            path = work / f"frame{i}.ppm"
            ppm.write_ppm(path, img)
            records.append(formats.ManifestRecord(str(path), label))
        inputs["frames"] = str(work / "frames.tsv")
        inputs["extract"] = str(work / "extract.tsv")
        formats.write_manifest(inputs["frames"], records[:1])
        formats.write_manifest(inputs["extract"], records)
    else:
        corpus = synth.synth_dataset(work / "corpus", per_class=CORPUS_PER_CLASS,
                                     width=cfg.width, height=cfg.height, seed=seed)
        inputs["frames"] = inputs["extract"] = corpus
        inputs["fixture"] = synth.synth_dataset(work / "fixture", per_class=CORPUS_PER_CLASS,
                                                width=cfg.width, height=cfg.height,
                                                seed=FIXTURE_SEED)
    veclen = scattering.feature_length(cfg.width, cfg.height, cfg.scatter)
    model = mlp.init_model((veclen, *pipeline.HIDDEN, len(cfg.classes)), seed=0)
    inputs["model"] = str(work / "model.bin")
    formats.save_model(model, inputs["model"])
    (work / "inputs.json").write_text(json.dumps(inputs))
    return inputs
