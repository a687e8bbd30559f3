"""Binary and text file formats.

Feature file (magic IWSNFV02): the header text's length as an unsigned 64-bit
little-endian integer, the header text, the vector length as u64, then the
feature vectors as 32-bit IEEE-754 little-endian floats, one record after
another.  The header text is the config-file lines the vectors depend on
(pipeline.feature_config); a reader compares it with its own config's.  The
record count is not stored; it is implied by the file size.

Model file (magic IWSNML01): version byte 0x02, the number of dims as u64,
the dims as u64 each, then layer 0's weights as float32 little-endian, one
output unit's weights after another (W0.T row-major), then its bias vector
and every later layer's weight matrix (row-major) and bias vector as float64
little-endian.  Layer 0 is stored as inference runs it: load_model reads it as
a column-major float32 W0, which numpy hands to BLAS with a transpose flag and
no copy, so x @ W0 runs BLAS's dot-product GEMV kernel (README: File formats).
save_model rounds a float64 W0 as it writes.

Manifest: one `path<TAB>label` record per line, UTF-8; relative paths are
resolved against the manifest's directory.
"""

from __future__ import annotations

import io
import os
import struct
from dataclasses import dataclass

import numpy as np

from .errors import DataError
from .mlp import MlpModel, check_finite

FEATURE_MAGIC = b"IWSNFV02"
FEATURE_TEXT_OFFSET = len(FEATURE_MAGIC) + 8  # the header text follows the magic and its length
MODEL_MAGIC = b"IWSNML01"
MODEL_VERSION = 2
MODEL_DIMS_OFFSET = len(MODEL_MAGIC) + 1 + 8  # the dims follow the magic, version and dim count
BLOCK_COLUMNS = 4  # output units per block of apply_first_layer's streamed layer 0


def write_features(path, vectors, config_text: bytes, veclen: int):
    """Write feature vectors (any iterable of 1D arrays of length veclen) under
    the header text config_text.  An empty iterable yields a zero-record file
    whose header still carries the true vector length."""
    rows = [np.asarray(v, dtype="<f4") for v in vectors]
    for r in rows:
        if r.ndim != 1:
            raise DataError(f"feature vectors must be 1D of length {veclen}, got shape {r.shape}")
        if len(r) != veclen:
            raise DataError(f"feature vectors must have length {veclen}, got {len(r)}")
    with open(path, "wb") as fh:
        fh.write(FEATURE_MAGIC + struct.pack("<Q", len(config_text)) + config_text
                 + struct.pack("<Q", veclen))
        for r in rows:
            fh.write(np.ascontiguousarray(r))  # the row's own buffer; no bytes copy


def read_features(path):
    """Returns (vectors (N, veclen) float32 array, {"config": header text, "veclen": veclen})."""
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

    size = u64("header text length")
    if size > len(data) - pos:
        raise DataError(f"{path}: header text length {size} runs past the "
                        f"{len(data)}-byte file at byte offset 8")
    text = data[pos:pos + size]
    pos += size
    veclen = u64("vector length")
    if veclen == 0:
        raise DataError(f"{path}: zero vector length at byte offset {pos - 8}")
    body = len(data) - pos
    # one record must fit the body, or, in a zero-record file, an array
    if 4 * veclen > (body or np.iinfo(np.intp).max):
        raise DataError(f"{path}: vector length {veclen} does not fit the "
                        f"{body}-byte body at byte offset {pos - 8}")
    if body % (4 * veclen):
        raise DataError(
            f"{path}: data size {body} is not a whole number of "
            f"{veclen}-float records at byte offset {pos}")
    vecs = np.frombuffer(data, dtype="<f4", offset=pos).reshape(-1, veclen)
    # float32 values cannot overflow a float64 sum: a row's sum is finite iff the row is
    bad = ~np.isfinite(vecs.sum(axis=1, dtype=np.float64))
    if bad.any():
        i = int(bad.argmax())
        raise DataError(f"{path}: non-finite value in record {i} "
                        f"at byte offset {pos + 4 * veclen * i}")
    return vecs, {"config": text, "veclen": veclen}


def save_model(model: MlpModel, path):
    with open(path, "wb") as fh:
        fh.write(MODEL_MAGIC)
        fh.write(bytes([MODEL_VERSION]))
        fh.write(struct.pack("<Q", len(model.dims)))
        fh.write(struct.pack(f"<{len(model.dims)}Q", *model.dims))
        # layer 0 one output unit at a time, so the cast's temporary is one column
        with np.errstate(over="ignore"):  # beyond float32's range is inf, which readers reject
            for column in model.weights[0].T:
                fh.write(np.ascontiguousarray(column, dtype="<f4"))
        # the file takes each other array's own buffer; no bytes copy
        fh.write(np.ascontiguousarray(model.biases[0], dtype="<f8"))
        for w, b in zip(model.weights[1:], model.biases[1:]):
            fh.write(np.ascontiguousarray(w, dtype="<f8"))
            fh.write(np.ascontiguousarray(b, dtype="<f8"))


def read_model_header(fh, path):
    """(dims, each layer's byte offset), every size checked before any allocation."""
    size = os.fstat(fh.fileno()).st_size  # 0 for a pipe: no layer fits
    head = fh.read(MODEL_DIMS_OFFSET)
    if head[:8] != MODEL_MAGIC:
        raise DataError(f"{path}: bad magic {head[:8]!r}, expected {MODEL_MAGIC!r} at byte offset 0")
    if len(head) < 9:
        raise DataError(f"{path}: truncated before version byte at byte offset 8")
    if head[8] != MODEL_VERSION:
        raise DataError(f"{path}: unsupported version {head[8]} at byte offset 8")
    if len(head) < MODEL_DIMS_OFFSET:
        raise DataError(f"{path}: truncated dim count at byte offset 9")
    ndims = struct.unpack_from("<Q", head, 9)[0]
    if not 2 <= ndims <= 64:
        raise DataError(f"{path}: implausible dim count {ndims} at byte offset 9")
    raw = fh.read(8 * ndims)
    if len(raw) < 8 * ndims:
        raise DataError(f"{path}: truncated dims at byte offset {MODEL_DIMS_OFFSET}")
    dims = struct.unpack(f"<{ndims}Q", raw)
    pos = MODEL_DIMS_OFFSET + 8 * ndims
    offsets = []
    for j in range(ndims - 1):
        offsets.append(pos)
        pos += (4 if j == 0 else 8) * dims[j] * dims[j + 1] + 8 * dims[j + 1]
        if pos > size:
            raise DataError(f"{path}: truncated layer {j} parameters at byte offset {offsets[j]}")
    if pos != size:
        raise DataError(f"{path}: {size - pos} trailing bytes at byte offset {pos}")
    if 0 in dims:  # never written; (2**62, 0) passes every size check but cannot be shaped
        raise DataError(f"{path}: zero dim at byte offset {MODEL_DIMS_OFFSET + 8 * dims.index(0)}")
    return dims, offsets


def _fill(fh, path, j, offsets, array):
    if fh.readinto(array) != array.nbytes:
        raise DataError(f"{path}: truncated layer {j} parameters at byte offset {offsets[j]}")
    return array


def _read_rest(fh, path, dims, offsets):
    """(b0, weights, biases of layers 1..last), each read straight into place."""
    b0, weights, biases = _fill(fh, path, 0, offsets, np.empty(dims[1], "<f8")), [], []
    for j in range(1, len(offsets)):
        weights.append(_fill(fh, path, j, offsets, np.empty((dims[j], dims[j + 1]), "<f8")))
        biases.append(_fill(fh, path, j, offsets, np.empty(dims[j + 1], "<f8")))
    return b0, weights, biases


def load_model(path) -> MlpModel:
    """The inference loader: layer 0 is read as stored, a column-major float32 matrix;
    the rest is float64."""
    with open(path, "rb") as fh:
        dims, offsets = read_model_header(fh, path)
        w0 = _fill(fh, path, 0, offsets, np.empty(dims[1::-1], "<f4")).T  # (n, m)
        b0, weights, biases = _read_rest(fh, path, dims, offsets)
    return MlpModel(dims, [w0, *weights], [b0, *biases])


def apply_first_layer(path, x):
    """Layer 0 of a model file on the rows of x as load_model's head computes it, never
    held whole: BLOCK_COLUMNS output units' weights at a time are read into one reused
    float32 buffer, finite-checked, and multiplied with x in float32 into their columns
    of z.  Returns (ReLU(z + b0), the other layers as an MlpModel), or (z + b0, None)
    for one layer; errors are load_model's.  The caller checks that the dims fit."""
    with open(path, "rb") as fh:
        dims, offsets = read_model_header(fh, path)
        n, m = dims[:2]
        x32 = x.astype(np.float32, copy=False)
        buf = np.empty((min(m, BLOCK_COLUMNS), n), "<f4")
        z = np.empty((len(x), m), np.float32)
        for j0 in range(0, m, len(buf)):
            w = _fill(fh, path, 0, offsets, buf[:m - j0])
            check_finite(0, w)
            np.matmul(x32, w.T, out=z[:, j0:j0 + len(w)])
        b0, weights, biases = _read_rest(fh, path, dims, offsets)
    check_finite(0, b0)  # then MlpModel checks layers 1.. in file order
    z = z + b0
    if len(dims) == 2:
        return z, None
    return np.maximum(z, 0.0), MlpModel(dims[1:], weights, biases, first_layer=1)


@dataclass(frozen=True)
class ManifestRecord:
    path: str
    label: str


def read_text(path) -> str:
    """The file as strict UTF-8 text; a byte that does not decode is a DataError."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not UTF-8 text ({exc.reason}) "
                        f"at byte offset {exc.start}") from None


def read_manifest(path) -> list[ManifestRecord]:
    """Read `path<TAB>label` lines; relative paths resolve against the
    manifest's directory."""
    base = os.path.dirname(os.path.abspath(path))
    records = []
    # newline=None splits lines as a text-mode file does
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if "\t" not in line:
            raise DataError(f"{path}:{lineno}: expected path<TAB>label, got {line!r}")
        p, label = line.split("\t", 1)
        if not p or not label:
            raise DataError(f"{path}:{lineno}: empty path or label")
        if "\0" in p:  # open() would raise ValueError
            raise DataError(f"{path}:{lineno}: NUL byte in path")
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
    for lineno, raw in enumerate(io.StringIO(read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, val = line.split("=", 1)
        out[key.strip()] = val.strip()
    return out
