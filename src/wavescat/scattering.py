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

Each convolution is a row pass and then a column pass.  A pass runs as
fixed-shape BLAS GEMMs when its kernel has at least GEMM_MIN_TAPS taps
(bior2.6's 13-tap low-pass), or 3 or more taps over a plane of at least
GEMM_MIN_PIXELS samples; every other pass is a loop of one numpy multiply
and add per tap.  Both are deterministic and shift-equivariant bit for bit,
under any number of BLAS threads, but their roundings differ.
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
from .filters import SCALE, WAVELET_DIAGONAL, Kernel2D, make_filter_pair, make_kernel2d

BOUNDARIES = ("symmetric", "periodic")
VARIANTS = ("classic", "improved")
SMOOTH_WITH = ("first", "last")
# The deepest cascade a config may ask for; it also sizes selection_names' cache.
MAX_DEPTH = 31


def validate_plane(plane) -> np.ndarray:
    """Coerce to a 2D float64 array and check the image-plane invariants."""
    a = np.asarray(plane, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise DataError(f"image plane must be 2D and non-empty, got shape {a.shape}")
    # squares sum to a finite value only if every value is finite; where they
    # overflow (np.vdot, unlike np.dot, does not warn), each value is checked
    if not np.isfinite(np.vdot(a, a)) and not np.isfinite(a).all():
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
    if decimate < 1:
        raise DataError(f"decimate must be >= 1, got {decimate}")
    return int(decimate)


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


# Output samples per block of a tap-loop pass (256 KiB of float64): the
# block's tap products stay in cache instead of streaming plane-sized
# temporaries.
_BLOCK = 1 << 15
# The engine rule, from README's tap sweep: see _runs_as_gemm.  A plan keeps
# the _BLOCK and the engine it was built with, so patching _BLOCK or either
# constant takes effect on plans built after _pass_plan's cache is cleared.
GEMM_MIN_TAPS = 8
GEMM_MIN_PIXELS = 1 << 16
# Outputs per tile, and the rows of every row-pass GEMM.  Every GEMM of a
# pass then has one shape, so OpenBLAS runs one kernel path for every output
# and shifts stay bitwise.
_TILE = 8
_TILE_ROWS = 64


def _runs_as_gemm(taps: int, in_shape: tuple[int, int]) -> bool:
    """Whether a pass of `taps` taps over planes of `in_shape` runs as tile
    GEMMs: with at least GEMM_MIN_TAPS taps, or with 3 or more on a plane
    of at least GEMM_MIN_PIXELS samples.  Every other pass, and every pass
    over one column, where a column GEMM would be a matrix-vector product
    that sums in another order, is a tap loop."""
    rows, cols = in_shape
    return cols > 1 and (taps >= GEMM_MIN_TAPS or (taps >= 3 and rows * cols >= GEMM_MIN_PIXELS))


# The default cascade makes 16 passes per plane shape, so 256 plans cover
# many configs and sizes.  A plan holds index arrays no longer than the
# extended axis and, for the tap loop, one slice per tap per block.
@lru_cache(maxsize=256)
def _pass_plan(kernel: Kernel2D, in_shape: tuple[int, int], boundary: str, s: int,
               axis: int):
    """One decimating 1D pass of `kernel` along `axis` over planes of
    `in_shape`, laid out once: returns a function that maps such a plane to
    a freshly allocated output and never writes the plane.

    Where _runs_as_gemm says so, the pass runs as tile GEMMs: a row pass
    (axis 1) as one GEMM per tile per _TILE_ROWS rows, a column pass (axis 0)
    as one GEMM per tile over the whole width.  Every other pass is a tap
    loop over blocks of about _BLOCK outputs, reading the plane in place
    when this axis needs no boundary extension.  The tap loop sums each
    output's taps in the fixed order 0..k-1, so its bits do not depend on
    the block size.  The GEMM rounds through fused multiply-adds, so its
    outputs differ from the tap loop's in the last bits (about 4e-16
    relative); it computes every output the same way, whatever the
    output's position or the number of BLAS threads."""
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

    if _runs_as_gemm(k, in_shape):
        # Each tile of _TILE outputs reads a window of `span` extended
        # inputs.  Column b of the band holds the taps at rows b*s .. b*s+k-1,
        # so a window times the band is the tile.
        rows, cols = in_shape
        span, tiles, hop = (_TILE - 1) * s + k, -(-m // _TILE), _TILE * s
        band = np.zeros((span, _TILE))
        for b in range(_TILE):
            band[b * s:b * s + k, b] = coeffs
        if axis == 0:
            # Tile j's window starts at input row j*hop - o.  Tiles j0..j1-1
            # read their windows from the plane in place, through one stacked
            # GEMM of the band's transpose that writes the output in place.
            # Each edge tile's window is gathered, through the extension,
            # into a zeroed span x cols strip; every GEMM has one shape.
            j0 = min(tiles, -(-o // hop))
            j1 = max(j0, min(tiles, (n + o - span) // hop + 1))
            extended = np.concatenate((lo, np.arange(n), hi))  # input row of each extended row
            edges = [j for j in range(tiles) if not j0 <= j < j1]

            def gemm_column_pass(x: np.ndarray) -> np.ndarray:
                out = np.empty((m, cols))
                if j1 > j0:
                    windows = sliding_window_view(x, span, axis=0)[j0 * hop - o::hop][:j1 - j0]
                    np.matmul(band.T, windows.transpose(0, 2, 1),
                              out=out[j0 * _TILE:j1 * _TILE].reshape(j1 - j0, _TILE, cols))
                strips = np.zeros((len(edges), span, cols))
                for strip, j in zip(strips, edges):
                    idx = extended[j * hop:j * hop + span]  # zeros past the extension
                    strip[:len(idx)] = x[idx]
                for j, tile in zip(edges, np.matmul(band.T, strips)):
                    out[j * _TILE:(j + 1) * _TILE] = tile[:m - j * _TILE]
                return out
            return gemm_column_pass

        # _TILE_ROWS rows at a time are extended into one zeroed buffer, with
        # zeros past the extension up to the last tile's last input.  Tile t
        # of every row is one (_TILE_ROWS x span) window of that buffer, read
        # in place by one stacked GEMM.
        reach = max((tiles - 1) * hop + span, o + n + pad_hi)

        def gemm_row_pass(x: np.ndarray) -> np.ndarray:
            ext = np.zeros((_TILE_ROWS, reach))
            windows = sliding_window_view(ext, span, axis=1)[:, :tiles * hop:hop].transpose(1, 0, 2)
            c = np.empty((_TILE_ROWS, tiles * _TILE))
            tiled = c.reshape(_TILE_ROWS, tiles, _TILE).transpose(1, 0, 2)
            out = np.empty((rows, m))
            for r0 in range(0, rows, _TILE_ROWS):
                src = x[r0:r0 + _TILE_ROWS]
                g = len(src)
                ext[:g, :o] = src[:, lo]
                ext[:g, o:o + n] = src
                ext[:g, o + n:o + n + pad_hi] = src[:, hi]
                # a last, shorter group leaves the previous group's finite
                # rows behind it in `ext`; their outputs are dropped
                np.matmul(windows, band, out=tiled)
                out[r0:r0 + g] = c[:g, :m]
            return out
        return gemm_row_pass

    rows, cols = out_shape = (m, in_shape[1]) if axis == 0 else (in_shape[0], m)
    step = max(1, _BLOCK // cols)
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
    s = _checked_stride(boundary, decimate)  # checks the boundary mode too
    _check_fit(x.shape, kernel, s)
    rows = _pass_plan(kernel, x.shape, boundary, s, 1)(x)
    return _pass_plan(kernel, rows.shape, boundary, s, 0)(rows)


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


def scatter(plane, config: ScatterConfig) -> ScatterOutput:
    """Run cascade_steps(config) on one plane."""
    planes = {"x": validate_plane(plane)}
    bank = kernel_bank(config)
    for step in cascade_steps(config):
        y = planes[step.src]
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


def feature_vector(output: ScatterOutput, selection) -> np.ndarray:
    """Flatten the selected planes into one vector.

    Planes are concatenated in declared order (S0, U1..Um, S1..Sm) regardless
    of the order names appear in `selection`; each plane is row-major.
    """
    wanted = set(selection)
    valid = _check_selection(wanted, len(output.u_levels))
    planes = zip(valid, (output.s0, *output.u_levels, *output.s_levels))
    return np.concatenate([p.ravel() for name, p in planes if name in wanted])


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
