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

Each convolution is a row pass and then a column pass.  The row pass of a
kernel with at least GEMM_MIN_TAPS taps (bior2.6's 13-tap low-pass) runs
as fixed-shape BLAS GEMMs; every other pass is a loop of one numpy
multiply and add per tap.  Both are deterministic and shift-equivariant
bit for bit, under any number of BLAS threads, but their roundings differ.
_pass_plan lays each pass out once per kernel, plane shape, boundary,
stride and axis, and picks its engine.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


@lru_cache(maxsize=MAX_DEPTH + 1)
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
        valid = selection_names(self.depth)
        for name in self.selection:
            if name not in valid:
                raise DataError(f"unknown selection {name!r}; valid: {', '.join(valid)}")
        # declared order, once each: the order feature files store it in
        object.__setattr__(self, "selection", tuple(n for n in valid if n in self.selection))


@dataclass(frozen=True)
class ScatterOutput:
    """S0 plus the per-level modulus (U) and scattering (S) planes."""

    s0: np.ndarray
    u_levels: tuple[np.ndarray, ...]
    s_levels: tuple[np.ndarray, ...]


def _out_len(n: int, s: int) -> int:
    return -(-n // s)


def _pads(n: int, k: int, origin: int, s: int) -> tuple[int, int, int]:
    """(output length, low extension, high extension) of one pass over an
    axis of n samples."""
    m = _out_len(n, s)
    return m, origin, max(0, (m - 1) * s + (k - 1) - origin - (n - 1))


# Output samples per block of a 1D pass (256 KiB of float64): the block's
# tap products stay in cache instead of streaming plane-sized temporaries.
# A GEMM row pass takes as many rows per GEMM as fit this many inputs.
_BLOCK = 1 << 15
# Row passes of kernels with at least this many taps run as GEMMs; on
# shorter kernels the GEMM loses on small planes (README's tap sweep).
GEMM_MIN_TAPS = 8
# Outputs per GEMM row (a tile), and the multiple that each GEMM's row
# count is padded to.  Every GEMM of a pass then has one shape, so OpenBLAS
# runs one kernel path for every output and shifts stay bitwise.
_TILE = 8
_TILE_ROWS = 64


# The default cascade makes 16 passes per plane shape, so 256 plans cover
# many configs and sizes.  A plan holds index arrays no longer than the
# kernel and, for the tap loop, one slice per tap per block.
@lru_cache(maxsize=256)
def _pass_plan(kernel: Kernel2D, in_shape: tuple[int, int], boundary: str, s: int,
               axis: int, block: int):
    """One decimating 1D pass of `kernel` along `axis` over planes of
    `in_shape`, laid out once: returns a function that maps such a plane to
    a freshly allocated output and never writes the plane.

    A row pass (axis 1) of a kernel with at least GEMM_MIN_TAPS taps runs as
    GEMMs over groups of about `block` inputs; every other pass is a tap
    loop over blocks of about `block` outputs, reading the plane in place
    when this axis needs no boundary extension.  The tap loop sums each
    output's taps in the fixed order 0..k-1, so its bits do not depend on
    the block size.  The GEMM rounds through fused multiply-adds, so its
    outputs differ from the tap loop's in the last bits (about 4e-16
    relative); it computes every output the same way, whatever the block
    size, the output's position or the number of BLAS threads."""
    coeffs, o = kernel.coefficients, kernel.origin
    k, n = len(coeffs), in_shape[axis]
    m, pad_lo, pad_hi = _pads(n, k, o, s)
    if boundary == "symmetric":
        # half-sample mirror, single fold only: t<0 -> -t-1, t>=n -> 2n-1-t
        lo = np.arange(pad_lo - 1, -1, -1)
        hi = np.arange(n - 1, n - 1 - pad_hi, -1)
    else:
        lo = np.arange(-pad_lo, 0) % n
        hi = np.arange(n, n + pad_hi) % n

    if axis == 1 and k >= GEMM_MIN_TAPS:
        # Each tile of _TILE outputs reads its window of `span` extended
        # inputs as one GEMM row.  Column b of the band holds the taps at
        # rows b*s .. b*s+k-1, so a window times the band is the tile.
        rows, span, tiles = in_shape[0], (_TILE - 1) * s + k, -(-m // _TILE)
        band = np.zeros((span, _TILE))
        for b in range(_TILE):
            band[b * s:b * s + k, b] = coeffs
        # the extended row (extension in front and behind) reaches the last
        # tile's last input, with zeros past the extension
        width = max((tiles - 1) * _TILE * s + span, o + n + pad_hi)
        group = min(rows, max(1, block // (tiles * span)))
        gemm_rows = -(-group * tiles // _TILE_ROWS) * _TILE_ROWS

        def gemm_pass(x: np.ndarray) -> np.ndarray:
            ext = np.zeros((group, width))
            a = np.zeros((gemm_rows, span))
            c = np.empty((gemm_rows, _TILE))
            windows = sliding_window_view(ext, span, axis=1)[:, :tiles * _TILE * s:_TILE * s]
            gathered = a[:group * tiles].reshape(group, tiles, span)
            out = np.empty((rows, m))
            for r0 in range(0, rows, group):
                src = x[r0:r0 + group]
                g = len(src)
                ext[:g, :o] = src[:, lo]
                ext[:g, o:o + n] = src
                ext[:g, o + n:o + n + pad_hi] = src[:, hi]
                # a last, shorter group leaves the previous group's finite
                # rows behind it in `a`; their outputs are dropped
                gathered[:g] = windows[:g]
                np.matmul(a, band, out=c)
                out[r0:r0 + g] = c[:g * tiles].reshape(g, tiles * _TILE)[:, :m]
            return out
        return gemm_pass

    rows, cols = out_shape = (m, in_shape[1]) if axis == 0 else (in_shape[0], m)
    step = max(1, block // cols)
    blocks = []  # (output rows, scratch rows, one input index per tap)
    for r0 in range(0, rows, step):
        r1 = min(r0 + step, rows)
        if axis == 0:
            taps = tuple(slice(r0 * s + t, (r1 - 1) * s + t + 1, s) for t in range(k))
        else:
            taps = tuple((slice(r0, r1), slice(t, t + (m - 1) * s + 1, s)) for t in range(k))
        blocks.append((slice(r0, r1), slice(0, r1 - r0), taps))

    def tap_loop(x: np.ndarray) -> np.ndarray:
        ext = np.concatenate((x.take(lo, axis), x, x.take(hi, axis)), axis) if pad_lo or pad_hi else x
        out = np.empty(out_shape)
        tmp = np.empty((min(step, rows), cols))
        for dst, scratch, taps in blocks:
            acc = np.multiply(ext[taps[0]], coeffs[0], out[dst])
            part = tmp[scratch]
            for src, c in zip(taps[1:], coeffs[1:]):
                np.add(acc, np.multiply(ext[src], c, part), acc)
        return out
    return tap_loop


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
    c, o = kernel.coefficients, kernel.origin
    for n in x.shape:  # the row pass keeps the row count, so both passes are checked here
        _, pad_lo, pad_hi = _pads(n, len(c), o, s)
        if pad_lo > n or pad_hi > n:
            raise DataError(
                f"kernel side {len(c)} does not fit plane of shape {x.shape} "
                f"(needs {pad_lo}+{pad_hi} extension on an axis of {n})")
    # _BLOCK is read per call and keys the plan, so patching it re-plans
    rows = _pass_plan(kernel, x.shape, boundary, s, 1, _BLOCK)(x)
    return _pass_plan(kernel, rows.shape, boundary, s, 0, _BLOCK)(rows)


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
        fresh = step.kernel is not None
        if fresh:
            kind, level = step.kernel
            y = conv2_decimated(y, bank[kind][level - 1], config.boundary, step.decimate)
        if step.modulus:
            # in place only on this step's own convolution output: a
            # modulus-only step's source (A1 = |S0|) is an output plane
            y = np.abs(y, out=y if fresh else None)
        planes[step.out] = y
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
    planes = zip(valid, (output.s0, *output.u_levels, *output.s_levels))
    return np.concatenate([p.ravel() for name, p in planes if name in wanted])


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
    return sum(dims[n][0] * dims[n][1] for n in config.selection)
