"""Wavelet scattering cascades over single-channel images.

cascade_steps(config) is the one description of the cascade: an ordered
list of steps, each a decimating 2D convolution with a separable kernel
(or none), optionally followed by the modulus.  scatter() runs those steps
and flops.pipeline_flops() costs them.  Two variants exist:

  classic   U1 = |x * psi_1|, U_n = |U_(n-1) * psi_n|, S_n = U_n * phi_n
  improved  A1 = |x * phi_1|, A_k = |A_(k-1) * phi_k|,
            U_m = |A_(m-1) * psi_m|, S_m = U_m * phi_1

with S0 = x * phi_1 in both.  The modulus is taken after every convolution
of the improved low-pass chain; scale kernels run at unit DC gain so a
constant image survives the chain unchanged.  Every convolution decimates by
config.decimate per axis (output length ceil(n/decimate), first output
sample aligned at input index 0); the smoothing convolution that produces
S maps decimates once more unless smooth_decimate is off.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .errors import DataError
from .filters import (
    BASES,
    SCALE,
    WAVELET_DIAGONAL,
    Kernel2D,
    make_filter_pair,
    make_kernel2d,
)

BOUNDARIES = ("symmetric", "periodic")
VARIANTS = ("classic", "improved")
SMOOTH_WITH = ("first", "last")
# Feature files store the selection as one u64 bitmask over the 2*depth+1
# selectable planes, so depth 31 is the deepest cascade a file can describe.
MAX_DEPTH = 31


def validate_plane(plane) -> np.ndarray:
    """Coerce to a 2D float64 array and check the image-plane invariants."""
    a = np.asarray(plane, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DataError(f"image plane must be 2D and non-empty, got shape {a.shape}")
    if not np.isfinite(a).all():
        raise DataError("image plane contains non-finite values")
    return a


def selection_names(depth: int) -> tuple[str, ...]:
    """All selectable plane names in declared order: S0, U1..Um, S1..Sm."""
    return ("S0", *[f"U{i}" for i in range(1, depth + 1)],
            *[f"S{i}" for i in range(1, depth + 1)])


@dataclass(frozen=True)
class ScatterConfig:
    """Cascade shape: depth, per-level bases, boundary, decimation, variant,
    and which output planes feed the feature vector."""

    depth: int = 3
    level_bases: tuple[str, ...] = ("bior1.1", "bior2.2", "bior1.3")
    boundary: str = "symmetric"
    decimate: int = 2
    variant: str = "improved"
    selection: tuple[str, ...] = ("U1", "U2", "U3")
    smooth_with: str = "first"
    smooth_decimate: bool = True

    def __post_init__(self):
        object.__setattr__(self, "level_bases", tuple(self.level_bases))
        object.__setattr__(self, "selection", tuple(self.selection))
        if self.depth < 1:
            raise DataError(f"depth must be >= 1, got {self.depth}")
        if len(self.level_bases) != self.depth:
            raise DataError(
                f"need one basis per level: depth {self.depth}, got {len(self.level_bases)} bases")
        if self.depth > MAX_DEPTH:
            raise DataError(f"depth must be <= {MAX_DEPTH}, got {self.depth}")
        for b in self.level_bases:
            if b not in BASES:
                raise DataError(f"unknown wavelet basis {b!r}; supported: {', '.join(BASES)}")
        if self.boundary not in BOUNDARIES:
            raise DataError(f"unknown boundary mode {self.boundary!r}")
        if self.decimate < 1:
            raise DataError(f"decimate must be >= 1, got {self.decimate}")
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if self.smooth_with not in SMOOTH_WITH:
            raise DataError(f"smooth_with must be one of {SMOOTH_WITH}, got {self.smooth_with!r}")
        if not self.selection:
            raise DataError("empty selection: nothing to put in the feature vector")
        valid = set(selection_names(self.depth))
        for name in self.selection:
            if name not in valid:
                raise DataError(f"unknown selection {name!r}; valid: {', '.join(selection_names(self.depth))}")


@dataclass(frozen=True)
class ScatterOutput:
    """S0 plus the per-level modulus (U) and scattering (S) planes."""

    s0: np.ndarray
    u_levels: tuple[np.ndarray, ...]
    s_levels: tuple[np.ndarray, ...]


def _out_len(n: int, s: int) -> int:
    return -(-n // s)


def _pad_indices(n: int, pad_lo: int, pad_hi: int, boundary: str, kside, shape):
    if pad_lo > n or pad_hi > n:
        raise DataError(
            f"kernel side {kside} does not fit plane of shape {shape} "
            f"(needs {pad_lo}+{pad_hi} extension on an axis of {n})")
    if boundary == "symmetric":
        # half-sample mirror, single fold only: t<0 -> -t-1, t>=n -> 2n-1-t
        lo = np.arange(pad_lo - 1, -1, -1)
        hi = np.arange(n - 1, n - 1 - pad_hi, -1)
    else:
        lo = np.arange(-pad_lo, 0) % n
        hi = np.arange(n, n + pad_hi) % n
    return lo, hi


def _conv1d_decimated(x: np.ndarray, f: np.ndarray, origin: int, boundary: str,
                      s: int, axis: int, kside, shape) -> np.ndarray:
    """One decimating 1D pass along `axis`; fixed tap order keeps the
    per-output-pixel summation order deterministic."""
    n = x.shape[axis]
    k = len(f)
    m = _out_len(n, s)
    pad_lo = origin
    pad_hi = max(0, (m - 1) * s + (k - 1) - origin - (n - 1))
    lo, hi = _pad_indices(n, pad_lo, pad_hi, boundary, kside, shape)
    ext = np.concatenate((x.take(lo, axis), x, x.take(hi, axis)), axis=axis)
    lead = (slice(None),) * axis  # index prefix that reaches `axis`
    acc = f[0] * ext[lead + (slice(0, (m - 1) * s + 1, s),)]
    for t in range(1, k):
        acc += f[t] * ext[lead + (slice(t, t + (m - 1) * s + 1, s),)]
    return acc


def conv2_decimated(plane, kernel: Kernel2D, boundary: str = "symmetric",
                    decimate: int = 2) -> np.ndarray:
    """Convolve a plane with a separable 2D kernel and decimate.

    Parameters
    ----------
    plane : 2D array
        Input image plane.
    kernel : Kernel2D
        Separable kernel from make_kernel2d.
    boundary : str
        "symmetric" (half-sample mirror, single fold) or "periodic".
    decimate : int
        Stride per axis; output dims are ceil(n/decimate).

    Returns
    -------
    2D float64 array, out[i][j] = sum_kl taps[k][l] * ext[i*s + k - oy][j*s + l - ox]
    with the tap at the kernel origin aligned to input sample (i*s, j*s).
    """
    x = validate_plane(plane)
    if boundary not in BOUNDARIES:
        raise DataError(f"unknown boundary mode {boundary!r}")
    s = int(decimate)
    if s < 1:
        raise DataError(f"decimate must be >= 1, got {decimate}")
    kside = kernel.taps.shape
    f, o = kernel.factor, kernel.origin
    rows = _conv1d_decimated(x, f, o, boundary, s, axis=1, kside=kside, shape=x.shape)
    return _conv1d_decimated(rows, f, o, boundary, s, axis=0, kside=kside, shape=x.shape)


class Step(NamedTuple):
    """One cascade step: out = src * kernel, decimated by `decimate` per
    axis, then |.| when `modulus` is set.  `kernel` is ("phi" | "psi",
    level) with a 1-based level, or None for a modulus-only step."""

    out: str
    src: str
    kernel: tuple[str, int] | None
    modulus: bool
    decimate: int


@lru_cache(maxsize=64)
def cascade_steps(config: ScatterConfig) -> tuple[Step, ...]:
    """The cascade for `config` in run order; "x" is the input plane and
    every other source is the output of an earlier step."""
    d, s = config.depth, config.decimate
    steps = [Step("S0", "x", ("phi", 1), False, s)]
    if config.variant == "classic":
        steps += [Step(f"U{n}", f"U{n - 1}" if n > 1 else "x", ("psi", n), True, s)
                  for n in range(1, d + 1)]
        smooth = range(1, d + 1)
    else:
        if d > 1:  # A1 = |x * phi_1| shares the S0 convolution
            steps.append(Step("A1", "S0", None, True, 1))
        steps.append(Step("U1", "x", ("psi", 1), True, s))
        for m in range(2, d + 1):
            steps.append(Step(f"U{m}", f"A{m - 1}", ("psi", m), True, s))
            if m < d:
                steps.append(Step(f"A{m}", f"A{m - 1}", ("phi", m), True, s))
        smooth = [1] * d if config.smooth_with == "first" else range(1, d + 1)
    sd = s if config.smooth_decimate else 1
    steps += [Step(f"S{n}", f"U{n}", ("phi", k), False, sd)
              for n, k in zip(range(1, d + 1), smooth)]
    return tuple(steps)


def _kernels(config: ScatterConfig) -> dict[str, list[Kernel2D]]:
    pairs = [make_filter_pair(b) for b in config.level_bases]
    return {"phi": [make_kernel2d(p, SCALE, unit_dc=True) for p in pairs],
            "psi": [make_kernel2d(p, WAVELET_DIAGONAL) for p in pairs]}


def scatter(plane, config: ScatterConfig) -> ScatterOutput:
    """Run cascade_steps(config) on one plane."""
    planes = {"x": validate_plane(plane)}
    bank = _kernels(config)
    for step in cascade_steps(config):
        y = planes[step.src]
        if step.kernel is not None:
            kind, level = step.kernel
            y = conv2_decimated(y, bank[kind][level - 1], config.boundary, step.decimate)
        planes[step.out] = np.abs(y) if step.modulus else y
    levels = range(1, config.depth + 1)
    return ScatterOutput(planes["S0"], tuple(planes[f"U{n}"] for n in levels),
                         tuple(planes[f"S{n}"] for n in levels))


def feature_vector(output: ScatterOutput, selection) -> np.ndarray:
    """Flatten the selected planes into one vector.

    Planes are concatenated in declared order (S0, U1..Um, S1..Sm) regardless
    of the order names appear in `selection`; each plane is row-major.
    """
    wanted = set(selection)
    if not wanted:
        raise DataError("empty selection: nothing to put in the feature vector")
    valid = selection_names(len(output.u_levels))
    for name in wanted:
        if name not in valid:
            raise DataError(f"unknown selection {name!r}; valid: {', '.join(valid)}")
    planes = {"S0": output.s0}
    planes.update({f"U{i+1}": u for i, u in enumerate(output.u_levels)})
    planes.update({f"S{i+1}": p for i, p in enumerate(output.s_levels)})
    parts = [planes[name].ravel() for name in valid if name in wanted]
    return np.concatenate(parts)


def plane_dims(width: int, height: int, config: ScatterConfig) -> dict[str, tuple[int, int]]:
    """(width, height) of every plane cascade_steps(config) makes; S0, U
    and S dims are the same for both variants."""
    dims = {"x": (width, height)}
    for step in cascade_steps(config):
        w, h = dims[step.src]
        dims[step.out] = (_out_len(w, step.decimate), _out_len(h, step.decimate))
    del dims["x"]
    return dims


def feature_length(width: int, height: int, config: ScatterConfig) -> int:
    """Config-derived feature-vector length for a width x height input."""
    dims = plane_dims(width, height, config)
    wanted = set(config.selection)
    return sum(dims[n][0] * dims[n][1] for n in selection_names(config.depth) if n in wanted)
