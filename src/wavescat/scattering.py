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

Each convolution is a row pass and then a column pass, both on one
engine, which _runs_as_gemm picks once per convolution: a kernel of at
least GEMM_MIN_TAPS taps (bior2.6's 13-tap low-pass), or of 3 or more
taps over a plane of at least GEMM_MIN_PIXELS samples, runs as two passes
of fixed-shape BLAS GEMMs (_gemm_pass).  Every other convolution is a
tap loop of numpy ufunc calls in bands of output rows (_band_plan), so no
plane-sized row-pass output is made.  The tap loop folds mirrored taps
(_tap_terms): every filter in the bank is linear-phase, so a pair of
bitwise equal or negated taps costs one add (or subtract) and one
multiply.  Both engines are deterministic and shift-equivariant bit for
bit, under any number of BLAS threads, but their roundings differ.
_conv_plan resolves a convolution's checks, engine and layout once per
kernel, plane shape, boundary and stride.

scatter() frees each intermediate A plane once its last consumer has run,
and feature_vector(..., out=) writes the selected planes straight into a
caller's float32 or float64 vector.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import DataError
from .filters import SCALE, WAVELET_DIAGONAL, Kernel2D, make_filter_pair, make_kernel2d

BOUNDARIES = ("symmetric", "periodic")
VARIANTS = ("classic", "improved")
SMOOTH_WITH = ("first", "last")
# The deepest cascade a config may ask for; it also sizes selection_names' cache.
MAX_DEPTH = 31


_FLOAT64 = np.dtype(np.float64)


def validate_plane(plane) -> np.ndarray:
    """Coerce to a 2D float64 array and check the image-plane invariants.
    Only real numbers pass: a complex plane is rejected, not cut to its
    real part, and so are text, ragged nestings and other objects."""
    try:
        a = np.asarray(plane)
    except ValueError as exc:  # a ragged nesting
        raise DataError(f"image plane is not an array: {exc}") from None
    if a.dtype is not _FLOAT64:
        if a.dtype.kind not in "biufO":
            raise DataError(f"image plane must hold real numbers, got dtype {a.dtype}")
        try:
            a = a.astype(np.float64)
        except (TypeError, ValueError, OverflowError) as exc:  # an object that is no real number
            raise DataError(f"image plane must hold real numbers: {exc}") from None
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DataError(f"image plane must be 2D and non-empty, got shape {a.shape}")
    # squares sum to a finite value only if every value is finite; where they
    # overflow (np.vdot, unlike np.dot, does not warn), each value is checked
    if not math.isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
        raise DataError("image plane contains non-finite values")
    return a


@lru_cache(maxsize=MAX_DEPTH + 1)
def selection_names(depth: int) -> tuple[str, ...]:
    """All selectable plane names in declared order: S0, U1..Um, S1..Sm."""
    return ("S0", *[f"U{i}" for i in range(1, depth + 1)],
            *[f"S{i}" for i in range(1, depth + 1)])


@dataclass(frozen=True)
class ScatterConfig:
    """Cascade shape: one basis per level (their count is the depth),
    boundary, decimation, variant, and which output planes feed the feature
    vector."""

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
        if not 1 <= self.depth <= MAX_DEPTH:
            raise DataError(f"need 1 to {MAX_DEPTH} bases, one per level, got {self.depth}")
        for b in self.level_bases:
            make_filter_pair(b)  # rejects an unknown basis
        _checked_stride(self.boundary, self.decimate)  # checks the boundary mode too
        if self.variant not in VARIANTS:
            raise DataError(f"unknown variant {self.variant!r}")
        if self.smooth_with not in SMOOTH_WITH:
            raise DataError(f"smooth_with must be one of {SMOOTH_WITH}, got {self.smooth_with!r}")
        valid = _check_selection(self.selection, self.depth)
        # declared order, once each: the order feature files store it in
        object.__setattr__(self, "selection", tuple(n for n in valid if n in self.selection))

    @property
    def depth(self) -> int:
        """The number of levels: one per basis."""
        return len(self.level_bases)


def _check_selection(selection, depth: int) -> tuple[str, ...]:
    """selection_names(depth), once `selection` is checked: non-empty, all among them."""
    if not selection:
        raise DataError("empty selection: nothing to put in the feature vector")
    valid = selection_names(depth)
    for name in selection:
        if name not in valid:
            raise DataError(f"unknown selection {name!r}; valid: {', '.join(valid)}")
    return valid


def _checked_stride(boundary: str, decimate: int) -> int:
    if boundary not in BOUNDARIES:
        raise DataError(f"unknown boundary mode {boundary!r}")
    try:
        s = operator.index(decimate)  # an integer, never a float cut to one
    except TypeError:
        raise DataError(f"decimate must be an integer, got {decimate!r}") from None
    if s < 1:
        raise DataError(f"decimate must be >= 1, got {decimate}")
    return s


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


def _check_fit(shape: tuple[int, int], kernel: Kernel2D, s: int):
    k = len(kernel.factor)
    for n in shape:  # the row pass keeps the row count, so both passes are checked here
        _, pad_lo, pad_hi = _pads(n, k, kernel.origin, s)
        if pad_lo > n or pad_hi > n:
            raise DataError(
                f"kernel side {k} does not fit plane of shape {shape} "
                f"(needs {pad_lo}+{pad_hi} extension on an axis of {n})")


# Row-pass outputs per band of a tap-loop convolution (256 KiB of float64):
# a band's row-pass output and its term scratch stay in cache instead of
# streaming plane-sized intermediates.
_BLOCK = 1 << 15
# The engine rule, from README's tap sweep: see _runs_as_gemm.  A plan keeps
# the _BLOCK and the engine it was built with, so patching _BLOCK or either
# constant takes effect on plans built after _conv_plan's cache is cleared.
GEMM_MIN_TAPS = 8
GEMM_MIN_PIXELS = 1 << 16
# Outputs per tile.  Every GEMM of a pass then has one shape, so OpenBLAS
# runs one kernel path for every output and shifts stay bitwise.
_TILE = 8


def _runs_as_gemm(taps: int, shape: tuple[int, int], s: int) -> bool:
    """Whether a convolution of `taps` taps at stride s over planes of
    `shape` runs as two tile-GEMM passes: with at least GEMM_MIN_TAPS taps,
    or with 3 or more on a plane of at least GEMM_MIN_PIXELS samples.
    Every other convolution is a banded tap loop, and so is every one over
    one row, or whose column pass's plane (shape[0] x ceil(cols/s)) has one
    column: there a GEMM would be a vector-matrix or matrix-vector product,
    which sums in another order."""
    rows, cols = shape
    return rows > 1 and cols > s and (
        taps >= GEMM_MIN_TAPS or (taps >= 3 and rows * cols >= GEMM_MIN_PIXELS))


def _extension(n: int, kernel: Kernel2D, boundary: str, s: int):
    """(output length, the input index of each sample of the extended axis)
    of one pass over n samples."""
    m, pad_lo, pad_hi = _pads(n, len(kernel.factor), kernel.origin, s)
    if boundary == "symmetric":
        # half-sample mirror, single fold only: t<0 -> -t-1, t>=n -> 2n-1-t
        lo = np.arange(pad_lo - 1, -1, -1)
        hi = np.arange(n - 1, n - 1 - pad_hi, -1)
    else:
        lo = np.arange(-pad_lo, 0) % n
        hi = np.arange(n, n + pad_hi) % n
    return m, np.concatenate((lo, np.arange(n), hi))


def _tap_terms(factor) -> list[tuple[int, int | None, np.ufunc | None]]:
    """The tap loop's terms in summation order, as (tap, mirror tap, fold).
    First each folded pair (t, k-1-t), by t: fold is np.add where the two
    taps are bitwise equal and np.subtract where they are bitwise negations,
    and the term is factor[t] * fold(x_t, x_mirror).  Then every other tap
    in index order, as (tap, None, None): the middle tap of an odd kernel,
    zero taps of either sign (which never fold) and the taps of pairs that
    do not mirror.  A kernel without mirrored pairs sums in order 0..k-1."""
    k, pairs, folded = len(factor), [], set()
    for t in range(k // 2):
        u = k - 1 - t
        a, b = float(factor[t]), float(factor[u])
        if a != 0 and (a == b or a == -b):  # for nonzero floats, == is bitwise
            pairs.append((t, u, np.add if a == b else np.subtract))
            folded.update((t, u))
    return pairs + [(t, None, None) for t in range(k) if t not in folded]


def _tap_plan(kernel: Kernel2D, m: int, s: int, axis: int):
    """The tap loop's terms for m outputs along `axis` of an extended input:
    per term, the input slice of its tap and of its mirror tap, the fold
    and the tap's coefficient."""
    taps = [slice(t, t + (m - 1) * s + 1, s) for t in range(len(kernel.factor))]
    if axis:
        taps = [(slice(None), tap) for tap in taps]
    return [(taps[t], None if u is None else taps[u], fold, kernel.coefficients[t])
            for t, u, fold in _tap_terms(kernel.factor)]


def _tap_sum(terms, ext: np.ndarray, out: np.ndarray, scratch: np.ndarray | None):
    """Write the sum of `terms` over `ext` into `out`, in the terms' order:
    the first term is made in `out`, and each later one is made in
    scratch[:len(out)] and added.  Each output's bits depend only on its
    own inputs, so they are the same in any band and any plane."""
    acc = term = out
    for i, (src, mirror, fold, c) in enumerate(terms):
        if i == 1:
            term = scratch[:len(out)]
        if fold is None:
            np.multiply(ext[src], c, term)
        else:
            np.multiply(fold(ext[src], ext[mirror], term), c, term)
        if i:
            np.add(acc, term, acc)


def _gemm_pass(kernel: Kernel2D, in_shape: tuple[int, int], boundary: str, s: int,
               axis: int):
    """One decimating 1D pass of `kernel` along `axis` over planes of
    `in_shape` as tile GEMMs, laid out once: returns a function that maps
    such a plane to a freshly allocated output and never writes the plane.

    On either axis the pass is one GEMM per tile of _TILE outputs across
    the whole plane: (rows x span) @ (span x _TILE) for a row pass (axis 1),
    (_TILE x span) @ (span x cols) for a column pass (axis 0).  The GEMM
    rounds through fused multiply-adds, so its outputs differ from the tap
    loop's in the last bits (about 4e-16 relative); it computes every output
    the same way, whatever the output's position or the number of BLAS
    threads."""
    coeffs, o = kernel.coefficients, kernel.origin
    k, n = len(coeffs), in_shape[axis]
    m, extended = _extension(n, kernel, boundary, s)
    out_shape = (m, in_shape[1]) if axis == 0 else (in_shape[0], m)
    # Tile j of _TILE outputs reads a window of `span` inputs, from input
    # j*hop - o on.  Column b of the band holds the taps at rows b*s ..
    # b*s+k-1, so a window times the band is the tile.  Tiles j0..j1-1
    # read their windows from the plane in place, and one stacked GEMM
    # writes them straight into the output.  Each edge tile's window is
    # gathered, through the extension, into a zeroed strip laid out as
    # the plane is, and one more stacked GEMM makes those tiles.  So
    # every GEMM of a pass has one shape and one layout.
    span, tiles, hop = (_TILE - 1) * s + k, -(-m // _TILE), _TILE * s
    band = np.zeros((span, _TILE))
    for b in range(_TILE):
        band[b * s:b * s + k, b] = coeffs
    j0 = min(tiles, -(-o // hop))
    j1 = max(j0, min(tiles, (n + o - span) // hop + 1))
    edges = [j for j in range(tiles) if not j0 <= j < j1]
    other = in_shape[1 - axis]
    window = (span, other) if axis == 0 else (other, span)

    def gemm(windows, out=None):
        """Tiles of a stack of windows, both laid out as the plane is: a
        row pass's tile j is out[:, 8j:8j+8], a column pass's out[8j:8j+8]."""
        if axis:
            return np.matmul(windows, band, out=out)
        return np.matmul(band.T, windows, out=out)

    def along(a):  # a plane or a tile with the pass axis first
        return a.swapaxes(0, axis)

    def gemm_pass(x: np.ndarray) -> np.ndarray:
        x = np.ascontiguousarray(x)  # BLAS reads rows of unit stride
        out = np.empty(out_shape)
        if j1 > j0:
            windows = sliding_window_view(x, window).reshape(-1, *window)[j0 * hop - o::hop]
            tiled = along(out)[j0 * _TILE:j1 * _TILE].reshape(j1 - j0, _TILE, other)
            gemm(windows[:j1 - j0], out=tiled.swapaxes(1, 1 + axis))  # along() per tile
        strips = np.zeros((len(edges), *window))
        for strip, j in zip(strips, edges):
            idx = extended[j * hop:j * hop + span]  # zeros past the extension
            along(strip)[:len(idx)] = along(x)[idx]
        for j, tile in zip(edges, gemm(strips)):
            along(out)[j * _TILE:(j + 1) * _TILE] = along(tile)[:m - j * _TILE]
        return out
    return gemm_pass


def _band_plan(kernel: Kernel2D, shape: tuple[int, int], boundary: str, s: int):
    """A tap-loop convolution, laid out once as bands of output rows:
    returns a function that maps a plane of `shape` to a freshly allocated
    output.

    A band of b output rows reads (b-1)*s + k input rows, halo included,
    through the row axis's extension index: a slice of the plane where
    they lie inside it in order, a gathered copy at a boundary.  The row
    pass makes just those rows into a band buffer of about _BLOCK samples,
    and the column pass reads that buffer and writes straight into the
    band's rows of the output.  Every band but a shorter last one shares
    one list of column-pass terms, and all share the row pass's."""
    k = len(kernel.factor)
    m_w, cols = _extension(shape[1], kernel, boundary, s)
    m_h, rows = _extension(shape[0], kernel, boundary, s)
    step = max(1, (_BLOCK // m_w - k) // s + 1)  # output rows per band
    row_terms, column_terms, bands = _tap_plan(kernel, m_w, s, 1), {}, []
    for r0 in range(0, m_h, step):
        b = min(step, m_h - r0)
        src = rows[r0 * s:(r0 + b - 1) * s + k]
        if (np.diff(src) == 1).all():
            src = slice(int(src[0]), int(src[-1]) + 1)
        if b not in column_terms:
            column_terms[b] = _tap_plan(kernel, b, s, 0)
        bands.append((slice(r0, r0 + b), src, column_terms[b]))
    # the first band reads the most input rows
    out_shape, mid_shape = (m_h, m_w), ((min(step, m_h) - 1) * s + k, m_w)

    def tap_loop(x: np.ndarray) -> np.ndarray:
        out, mid = np.empty(out_shape), np.empty(mid_shape)
        scratch = np.empty(mid_shape) if len(row_terms) > 1 else None
        for dst, src, terms in bands:
            band = x[src] if isinstance(src, slice) else x.take(src, 0)
            if len(cols) > shape[1]:  # the column axis is extended
                band = band.take(cols, 1)
            rows_out = mid[:len(band)]
            _tap_sum(row_terms, band, rows_out, scratch)
            _tap_sum(terms, rows_out, out[dst], scratch)
        return out
    return tap_loop


# One entry per convolution of a cascade: the default makes 8 per plane size.
# An entry holds index arrays no longer than the extended axes and, for a
# tap loop, one slice per tap per band length.
@lru_cache(maxsize=256)
def _conv_plan(kernel: Kernel2D, shape: tuple[int, int], boundary: str, decimate: int):
    """One conv2_decimated over planes of `shape`, once the stride, the
    boundary mode and the kernel's fit to both axes are checked: a function
    that maps such a plane to a fresh output.  Where _runs_as_gemm says so,
    it is a GEMM row pass and then a GEMM column pass over the whole plane;
    otherwise it is a tap loop in bands of output rows (_band_plan)."""
    s = _checked_stride(boundary, decimate)  # checks the boundary mode too
    _check_fit(shape, kernel, s)
    if not _runs_as_gemm(len(kernel.factor), shape, s):
        return _band_plan(kernel, shape, boundary, s)
    row_pass, column_pass = (_gemm_pass(kernel, shape, boundary, s, 1),
                             _gemm_pass(kernel, (shape[0], _out_len(shape[1], s)), boundary, s, 0))
    return lambda x: column_pass(row_pass(x))


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
    try:
        conv = _conv_plan(kernel, x.shape, boundary, decimate)
    except TypeError:  # an unhashable argument, which the checks reject by name
        _checked_stride(boundary, decimate)
        raise
    return conv(x)


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


def kernel_bank(config: ScatterConfig) -> dict[tuple[str, int], Kernel2D]:
    """The kernels scatter() runs, keyed by a step's kernel: (kind, level)."""
    bank = {}
    for n, pair in enumerate(map(make_filter_pair, config.level_bases), start=1):
        bank["phi", n] = make_kernel2d(pair, SCALE, unit_dc=True)
        bank["psi", n] = make_kernel2d(pair, WAVELET_DIAGONAL)
    return bank


@lru_cache(maxsize=64)
def _run_order(config: ScatterConfig) -> tuple[tuple[Step, bool], ...]:
    """cascade_steps(config), each step paired with whether it is the last
    consumer of its source, where that source is an intermediate A plane."""
    steps = cascade_steps(config)
    last = {step.src: i for i, step in enumerate(steps)}
    return tuple((step, step.src.startswith("A") and last[step.src] == i)
                 for i, step in enumerate(steps))


def scatter(plane, config: ScatterConfig) -> ScatterOutput:
    """Run cascade_steps(config) on one plane.  An intermediate A plane
    leaves the table once its last consumer has run, so it is freed while
    the rest of the cascade runs."""
    planes = {"x": validate_plane(plane)}
    bank = kernel_bank(config)
    for step, drop in _run_order(config):
        y = planes.pop(step.src) if drop else planes[step.src]
        fresh = step.kernel is not None
        if fresh:
            y = conv2_decimated(y, bank[step.kernel], config.boundary, step.decimate)
        if step.modulus:
            # in place only on this step's own convolution output: a
            # modulus-only step's source (A1 = |S0|) is an output plane
            y = np.abs(y, out=y if fresh else None)
        planes[step.out] = y
    levels = range(1, config.depth + 1)
    return ScatterOutput(planes["S0"], tuple(planes[f"U{n}"] for n in levels),
                         tuple(planes[f"S{n}"] for n in levels))


def feature_vector(output: ScatterOutput, selection, out: np.ndarray | None = None) -> np.ndarray:
    """Flatten the selected planes into one vector.

    Planes are concatenated in declared order (S0, U1..Um, S1..Sm) regardless
    of the order names appear in `selection`; each plane is row-major.  With
    `out`, a 1D float32 or float64 array of the vector's length, each plane
    is written into its slice of `out`, rounded as astype would round it,
    and `out` is returned; otherwise the vector is a new float64 array.
    """
    wanted = set(selection)
    valid = _check_selection(wanted, len(output.u_levels))
    picked = [p for name, p in zip(valid, (output.s0, *output.u_levels, *output.s_levels))
              if name in wanted]
    if out is not None:
        size = sum(p.size for p in picked)
        if not (isinstance(out, np.ndarray) and out.dtype in (np.float32, _FLOAT64)
                and out.shape == (size,)):
            got = f"{out.dtype} {out.shape}" if isinstance(out, np.ndarray) else type(out).__name__
            raise DataError(f"out must be a 1D float32 or float64 array of {size} values, "
                            f"got {got}")
    return np.concatenate([p.ravel() for p in picked], out=out)  # same_kind: rounds as astype


def plane_dims(width: int, height: int, config: ScatterConfig) -> dict[str, tuple[int, int]]:
    """(width, height) of every plane cascade_steps(config) makes; S0, U
    and S dims are the same for both variants.  Raises DataError where a
    kernel does not fit its source plane, as scatter() would."""
    dims = {"x": (width, height)}
    bank = kernel_bank(config)
    for step in cascade_steps(config):
        w, h = dims[step.src]
        if step.kernel is not None:
            _check_fit((h, w), bank[step.kernel], step.decimate)
        dims[step.out] = (_out_len(w, step.decimate), _out_len(h, step.decimate))
    del dims["x"]
    return dims


def feature_length(width: int, height: int, config: ScatterConfig) -> int:
    """Config-derived feature-vector length for a width x height input."""
    dims = plane_dims(width, height, config)
    return sum(dims[n][0] * dims[n][1] for n in config.selection)
