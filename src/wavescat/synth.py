"""Seeded synthetic 5-class image generator.

Stand-in corpus for desk-scale experiments: five procedurally distinct
texture/shape families over varied noise backgrounds.  The class signal
lives in the B channel (the pipeline's default input); R and G carry
independent low-amplitude noise.

Determinism: every image draws from default_rng([seed, class_idx, img_idx]),
so files are bitwise reproducible regardless of generation order.
"""

from __future__ import annotations

import os

import numpy as np

from .errors import DataError
from .formats import ManifestRecord, write_manifest
from .ppm import write_ppm

CLASSES = ("nest", "kite", "textile", "plastic", "background")


def _base(rng, h, w):
    """Noise background with a random linear gradient."""
    img = rng.uniform(0.0, 40.0, (h, w))
    gx, gy = rng.uniform(-30.0, 30.0, 2)
    yy, xx = np.mgrid[0:h, 0:w]
    img += gx * xx / w + gy * yy / h + rng.uniform(10.0, 50.0)
    return img


def _draw_stick(img, rng, cx, cy, span):
    h, w = img.shape
    ang = rng.uniform(0.0, np.pi)
    length = rng.uniform(0.4, 1.0) * span
    x0 = cx + rng.uniform(-0.25, 0.25) * span
    y0 = cy + rng.uniform(-0.25, 0.25) * span
    val = rng.uniform(150.0, 230.0)
    steps = max(2, int(2 * length))
    for t in np.linspace(-length / 2, length / 2, steps):
        xi = int(round(x0 + t * np.cos(ang)))
        yi = int(round(y0 + t * np.sin(ang)))
        if 0 <= yi < h and 0 <= xi < w:
            img[yi, xi] = val


def _nest(img, rng):
    h, w = img.shape
    cx, cy = rng.uniform(0.35, 0.65, 2) * (w, h)
    span = 0.55 * min(h, w)
    for _ in range(rng.integers(25, 45)):
        _draw_stick(img, rng, cx, cy, span)


def _kite(img, rng):
    h, w = img.shape
    cx, cy = rng.uniform(0.4, 0.6, 2) * (w, h)
    a = rng.uniform(0.24, 0.36) * w
    b = rng.uniform(0.24, 0.36) * h
    yy, xx = np.mgrid[0:h, 0:w]
    d = np.abs(xx - cx) / a + np.abs(yy - cy) / b
    body = rng.uniform(140.0, 200.0)
    img[d <= 1.0] = body
    img[(d > 1.0) & (d <= 1.15)] = body + 50.0  # bright rim


def _textile(img, rng):
    # hard stripes: crisp periodic edges carry the woven-fabric signature
    h, w = img.shape
    period = rng.uniform(5.0, 10.0)
    ang = rng.uniform(0.0, np.pi)
    phase = rng.uniform(0.0, 2 * np.pi)
    amp = rng.uniform(80.0, 120.0)
    yy, xx = np.mgrid[0:h, 0:w]
    t = (xx * np.cos(ang) + yy * np.sin(ang)) * (2 * np.pi / period) + phase
    img += amp * (np.sin(t) > 0.0)


def _fill_triangle(img, rng, cx, cy, r_lo, r_hi, val):
    h, w = img.shape
    angs = np.sort(rng.uniform(0.0, 2 * np.pi, 3))
    radii = rng.uniform(r_lo, r_hi, 3)
    px = cx + radii * np.cos(angs)
    py = cy + radii * np.sin(angs)
    yy, xx = np.mgrid[0:h, 0:w]
    s = [(xx - px[i]) * (py[j] - py[i]) - (yy - py[i]) * (px[j] - px[i])
         for i, j in ((0, 1), (1, 2), (2, 0))]
    inside = (s[0] <= 0) & (s[1] <= 0) & (s[2] <= 0)
    inside |= (s[0] >= 0) & (s[1] >= 0) & (s[2] >= 0)
    img[inside] = val


def _plastic(img, rng):
    # scattered flat shards: the sharp borders light up the band-pass planes
    h, w = img.shape
    span = min(h, w)
    for _ in range(rng.integers(8, 15)):
        cx = rng.uniform(0.1, 0.9) * w
        cy = rng.uniform(0.1, 0.9) * h
        val = rng.uniform(160.0, 240.0)
        _fill_triangle(img, rng, cx, cy, 0.04 * span, 0.11 * span, val)


_PAINTERS = {"nest": _nest, "kite": _kite, "textile": _textile,
             "plastic": _plastic, "background": lambda img, rng: None}


def render_image(label: str, rng, width: int, height: int) -> np.ndarray:
    """One (height, width, 3) uint8 image of the given family."""
    if label not in _PAINTERS:
        raise DataError(f"unknown synth class {label!r}; families: {', '.join(CLASSES)}")
    blue = _base(rng, height, width)
    _PAINTERS[label](blue, rng)
    img = np.empty((height, width, 3), dtype=np.uint8)
    img[:, :, 0] = rng.uniform(0.0, 60.0, (height, width)).astype(np.uint8)
    img[:, :, 1] = rng.uniform(0.0, 60.0, (height, width)).astype(np.uint8)
    img[:, :, 2] = np.clip(blue, 0.0, 255.0).astype(np.uint8)
    return img


def synth_dataset(out_dir, per_class: int = 20, width: int = 64, height: int = 64,
                  seed: int = 0, n_classes: int = 5) -> str:
    """Write per_class images for each family plus a manifest.tsv.

    Returns the manifest path.  Images are PPM (P6); manifest lines are
    `filename<TAB>label` relative to the manifest's directory.
    """
    if width < 64 or height < 64:
        raise DataError(f"synth dims must be at least 64x64, got {width}x{height}")
    if per_class < 1:
        raise DataError(f"per_class must be >= 1, got {per_class}")
    if not 1 <= n_classes <= len(CLASSES):
        raise DataError(f"n_classes must be in 1..{len(CLASSES)}, got {n_classes}")
    try:
        os.makedirs(out_dir, exist_ok=True)
    except OSError as e:
        raise DataError(f"cannot create output directory {out_dir}: {e}") from None
    records = []
    for ci, label in enumerate(CLASSES[:n_classes]):
        for ii in range(per_class):
            rng = np.random.default_rng([seed, ci, ii])
            img = render_image(label, rng, width, height)
            name = f"{label}_{ii:03d}.ppm"
            write_ppm(os.path.join(out_dir, name), img)
            records.append(ManifestRecord(name, label))
    manifest = os.path.join(out_dir, "manifest.tsv")
    write_manifest(manifest, records)
    return manifest
