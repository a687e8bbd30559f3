"""Minimal PNM image I/O and channel extraction.

Handles binary PPM (P6) and PGM (P5) with maxval <= 255, scaling samples
by the header's maxval as Netpbm does; PNG is decoded through Pillow when
it is importable, otherwise PNG input is rejected.  Parse errors always
carry the byte offset where parsing stopped.
"""

from __future__ import annotations

import numpy as np

from .errors import DataError

CHANNELS = {"R": 0, "G": 1, "B": 2}
_WS = b" \t\r\n\v\f"


class _Cursor:
    def __init__(self, data: bytes, path):
        self.data = data
        self.pos = 0
        self.path = path

    def fail(self, why):
        raise DataError(f"{self.path}: {why} at byte offset {self.pos}")

    def skip_ws_comments(self):
        d = self.data
        while self.pos < len(d):
            if d[self.pos : self.pos + 1] in (b"#",):
                while self.pos < len(d) and d[self.pos] not in b"\n":
                    self.pos += 1
            elif d[self.pos] in _WS:
                self.pos += 1
            else:
                return

    def token(self):
        self.skip_ws_comments()
        start = self.pos
        d = self.data
        while self.pos < len(d) and d[self.pos] not in _WS and d[self.pos] not in b"#":
            self.pos += 1
        if self.pos == start:
            self.fail("unexpected end of header")
        return d[start : self.pos]

    def int_token(self, what):
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.pos -= len(tok)
            self.fail(f"expected integer {what}, got {tok!r}")


def _parse_pnm(data: bytes, path) -> tuple[np.ndarray, int]:
    """Returns (uint8 array (h, w) for P5 or (h, w, 3) for P6, maxval)."""
    cur = _Cursor(data, path)
    magic = data[:2]
    cur.pos = 2
    planes = 3 if magic == b"P6" else 1
    w = cur.int_token("width")
    h = cur.int_token("height")
    maxval = cur.int_token("maxval")
    if w < 1 or h < 1:
        cur.fail(f"bad dimensions {w}x{h}")
    if not 0 < maxval <= 255:
        cur.fail(f"unsupported maxval {maxval} (only 8-bit samples)")
    # exactly one whitespace byte separates the header from the raster
    if cur.pos >= len(data) or data[cur.pos] not in _WS:
        cur.fail("missing whitespace before raster data")
    cur.pos += 1
    need = w * h * planes
    if len(data) - cur.pos < need:
        cur.pos = len(data)
        cur.fail(f"truncated raster: need {need} bytes, file ends")
    arr = np.frombuffer(data, dtype=np.uint8, count=need, offset=cur.pos)
    if maxval < 255 and arr.max() > maxval:
        cur.pos += int(np.argmax(arr > maxval))
        cur.fail(f"sample above maxval {maxval}")
    return (arr.reshape(h, w, 3) if planes == 3 else arr.reshape(h, w)), maxval


def _load_png(path):
    try:
        from PIL import Image
    except ImportError:
        raise DataError(
            f"{path}: PNG input needs the optional Pillow decoder (magic b'\\x89PNG')") from None
    with Image.open(path) as img:
        if img.mode in ("L", "I;16", "I", "1"):
            return np.asarray(img.convert("L"), dtype=np.uint8)
        return np.asarray(img.convert("RGB"), dtype=np.uint8)


def load_image_channel(path, channel: str = "B") -> np.ndarray:
    """Load one color channel (or a grayscale plane) as float64 in [0, 1].

    PPM (P6) picks the requested channel; PGM (P5) and grayscale PNG ignore
    the selector.  Values are samples divided by the PNM header's maxval
    (255 for PNG), so maxval itself reads as 1.0.
    """
    if channel not in CHANNELS:
        raise DataError(f"unknown channel {channel!r}; expected R, G or B")
    # dispatch on the magic before reading the rest; unbuffered, so a PNM
    # comes back from one read with no buffer-join copy
    with open(path, "rb", buffering=0) as fh:
        head = fh.read(8)
        if head[:2] in (b"P5", b"P6"):
            fh.seek(0)
            arr, maxval = _parse_pnm(fh.read(), path)
        elif head == b"\x89PNG\r\n\x1a\n":
            arr, maxval = _load_png(path), 255
        else:
            raise DataError(f"{path}: unsupported image format (magic {head[:2]!r})")
    if arr.ndim == 3:
        arr = arr[:, :, CHANNELS[channel]]
    return np.divide(arr, maxval, dtype=np.float64)


def write_ppm(path, rgb: np.ndarray):
    """Write an (h, w, 3) uint8 array as binary PPM (P6, maxval 255)."""
    a = np.asarray(rgb)
    if a.ndim != 3 or a.shape[2] != 3 or a.dtype != np.uint8:
        raise DataError(f"write_ppm needs (h, w, 3) uint8, got {a.shape} {a.dtype}")
    h, w, _ = a.shape
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(a.tobytes())
