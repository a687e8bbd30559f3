"""Binary and text file formats.

Feature file (magic IWSNFV01): header of unsigned 64-bit little-endian
fields (input width, input height, depth, one basis id per level, the
selection bitmask, and the vector length) followed by the feature vectors
as 32-bit IEEE-754 little-endian floats, one record after another.  Basis
ids are 1-based positions in filters.BASES; selection bit i corresponds to
position i of the declared plane order (S0, U1..Um, S1..Sm).  The record
count is not stored; it is implied by the file size.

Model file (magic IWSNML01): version byte 0x01, the number of dims as u64,
the dims as u64 each, then per layer the weight matrix (row-major) and the
bias vector as float64 little-endian.  The init seed is construction
metadata and is not serialized.

Manifest: one `path<TAB>label` record per line, UTF-8; relative paths are
resolved against the manifest's directory.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .filters import BASES
from .mlp import MlpModel
from .scattering import MAX_DEPTH, ScatterConfig, feature_length, selection_names

FEATURE_MAGIC = b"IWSNFV01"
MODEL_MAGIC = b"IWSNML01"
MODEL_VERSION = 1


def selection_bitmask(depth: int, selection) -> int:
    names = selection_names(depth)
    wanted = set(selection)
    mask = 0
    for i, name in enumerate(names):
        if name in wanted:
            mask |= 1 << i
    return mask


def bitmask_selection(depth: int, mask: int) -> tuple[str, ...]:
    names = selection_names(depth)
    if mask >> len(names):
        raise DataError(f"selection bitmask {mask:#x} has bits beyond the {len(names)} planes")
    return tuple(name for i, name in enumerate(names) if mask >> i & 1)


def write_features(path, vectors, width: int, height: int, config: ScatterConfig):
    """Write feature vectors (any iterable of 1D arrays of the config's
    feature length).  An empty iterable yields a zero-record file whose
    header still carries the true vector length."""
    rows = [np.asarray(v, dtype="<f4") for v in vectors]
    veclen = feature_length(width, height, config)
    for r in rows:
        if r.ndim != 1 or len(r) != veclen:
            raise DataError(f"feature vectors must have length {veclen}, got {len(r)}")
    ids = [BASES.index(b) + 1 for b in config.level_bases]
    mask = selection_bitmask(config.depth, config.selection)
    header = [width, height, config.depth, *ids, mask, veclen]
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC)
        fh.write(struct.pack(f"<{len(header)}Q", *header))
        for r in rows:
            fh.write(r.tobytes())


def read_features(path):
    """Returns (vectors (N, veclen) float32 array, header dict)."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != FEATURE_MAGIC:
        raise DataError(f"{path}: bad magic {data[:8]!r}, expected {FEATURE_MAGIC!r} at byte offset 0")
    pos = 8

    def u64(what):
        nonlocal pos
        if pos + 8 > len(data):
            raise DataError(f"{path}: truncated header ({what}) at byte offset {pos}")
        val = struct.unpack_from("<Q", data, pos)[0]
        pos += 8
        return val

    width, height, depth = u64("width"), u64("height"), u64("depth")
    if not 1 <= depth <= MAX_DEPTH:
        raise DataError(f"{path}: implausible depth {depth} at byte offset 24")
    bases = []
    for i in range(depth):
        bid = u64(f"basis {i+1}")
        if not 1 <= bid <= len(BASES):
            raise DataError(f"{path}: unknown basis id {bid} at byte offset {pos - 8}")
        bases.append(BASES[bid - 1])
    mask = u64("selection bitmask")
    veclen = u64("vector length")
    selection = bitmask_selection(depth, mask)
    if veclen == 0:
        raise DataError(f"{path}: zero vector length at byte offset {pos - 8}")
    body = data[pos:]
    # one record must fit the body, or, in a zero-record file, an array
    if 4 * veclen > (len(body) or np.iinfo(np.intp).max):
        raise DataError(f"{path}: vector length {veclen} does not fit the "
                        f"{len(body)}-byte body at byte offset {pos - 8}")
    if len(body) % (4 * veclen):
        raise DataError(
            f"{path}: data size {len(body)} is not a whole number of "
            f"{veclen}-float records at byte offset {pos}")
    vecs = np.frombuffer(body, dtype="<f4").reshape(-1, veclen)
    header = {"width": width, "height": height, "depth": depth,
              "bases": tuple(bases), "selection": selection, "veclen": veclen}
    return vecs, header


def save_model(model: MlpModel, path):
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(bytes([MODEL_VERSION]))
        fh.write(struct.pack("<Q", len(model.dims)))
        fh.write(struct.pack(f"<{len(model.dims)}Q", *model.dims))
        for w, b in zip(model.weights, model.biases):
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())
            fh.write(np.asarray(b, dtype="<f8").tobytes())


def load_model(path) -> MlpModel:
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:8] != MODEL_MAGIC:
        raise DataError(f"{path}: bad magic {data[:8]!r}, expected {MODEL_MAGIC!r} at byte offset 0")
    if len(data) < 9:
        raise DataError(f"{path}: truncated before version byte at byte offset 8")
    if data[8] != MODEL_VERSION:
        raise DataError(f"{path}: unsupported version {data[8]} at byte offset 8")
    pos = 9
    if pos + 8 > len(data):
        raise DataError(f"{path}: truncated dim count at byte offset {pos}")
    ndims = struct.unpack_from("<Q", data, pos)[0]
    pos += 8
    if not 2 <= ndims <= 64:
        raise DataError(f"{path}: implausible dim count {ndims} at byte offset 9")
    if pos + 8 * ndims > len(data):
        raise DataError(f"{path}: truncated dims at byte offset {pos}")
    dims = struct.unpack_from(f"<{ndims}Q", data, pos)
    pos += 8 * ndims
    weights, biases = [], []
    for j in range(ndims - 1):
        wn, bn = dims[j] * dims[j + 1], dims[j + 1]
        if pos + 8 * (wn + bn) > len(data):
            raise DataError(f"{path}: truncated layer {j} parameters at byte offset {pos}")
        weights.append(np.frombuffer(data, dtype="<f8", count=wn, offset=pos)
                       .reshape(dims[j], dims[j + 1]).copy())
        pos += 8 * wn
        biases.append(np.frombuffer(data, dtype="<f8", count=bn, offset=pos).copy())
        pos += 8 * bn
    if pos != len(data):
        raise DataError(f"{path}: {len(data) - pos} trailing bytes at byte offset {pos}")
    return MlpModel(tuple(int(d) for d in dims), weights, biases, seed=None)


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str


def read_manifest(path) -> list[ManifestRecord]:
    """Read `path<TAB>label` lines; relative paths resolve against the
    manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if "\t" not in line:
                raise DataError(f"{path}:{lineno}: expected path<TAB>label, got {line!r}")
            p, label = line.split("\t", 1)
            if not p or not label:
                raise DataError(f"{path}:{lineno}: empty path or label")
            if not os.path.isabs(p):
                p = os.path.join(base, p)
            records.append(ManifestRecord(p, label))
    return records


def write_manifest(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(f"{rec.path}\t{rec.label}\n")


def parse_config_file(path) -> dict[str, str]:
    """Plain key=value lines; # starts a comment; blank lines ignored."""
    out: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, val = line.split("=", 1)
            out[key.strip()] = val.strip()
    return out
