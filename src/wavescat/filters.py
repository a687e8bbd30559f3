"""Biorthogonal decomposition filter bank and separable 2D kernels.

Coefficients are frozen as exact dyadic-rational numerator tables from the
CDF spline construction: the synthesis (reconstruction) low-pass of biorNr.Nd
is the binomial spline filter of order Nr, and the analysis (decomposition)
low-pass is its dual, sqrt(2)/2^Nd * (1+z)^Nd * P(z) with P the degree-(L-1)
half-band completion polynomial, L = (Nr+Nd)/2.  Every tap is therefore an
integer multiple of sqrt(2)/2^k, which keeps the float tables reproducible
bit for bit.

High-pass filters follow the alternating-flip convention

    dec_hi[n] = (-1)^n       * rec_lo[1 - n]
    rec_hi[n] = (-1)^(n + c) * dec_lo[2c - 1 - n]

where c is the center of the product filter dec_lo*rec_lo (c = 1 for the
Nr=1 pairs, c = 0 for the Nr=2 pairs); _DEC_HI is the first formula
written out.  With this alignment the two-channel perfect-reconstruction
identities hold exactly:

    H(z)Ht(z) + G(z)Gt(z) = 2 z^c        (distortion is a pure delay)
    H(z)Ht(-z) + G(z)Gt(-z) = 0          (alias cancels)

tests/oracles.py checks both identities in exact rational arithmetic on
its own copy of the tables, and the tests pin these tables to it bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import DataError

SQRT2 = math.sqrt(2.0)

# Canonical basis order; also fixes the numeric ids used in file headers.
BASES = ("bior1.1", "bior2.2", "bior1.3", "bior2.6")

# (numerators, denominator, support_low): filter[n] = num[n - low] * sqrt(2) / den
_DEC_LO = {
    "bior1.1": ((1, 1), 2, 0),
    "bior2.2": ((-2, 4, 12, 4, -2), 16, -2),
    "bior1.3": ((-1, 1, 8, 8, 1, -1), 16, -2),
    "bior2.6": ((-5, 10, 34, -78, -123, 324, 700, 324, -123, -78, 34, 10, -5), 1024, -6),
}
_DEC_HI = {
    "bior1.1": ((1, -1), 2, 0),
    "bior2.2": ((1, -2, 1), 4, 0),
    "bior1.3": ((1, -1), 2, 0),
    "bior2.6": ((1, -2, 1), 4, 0),
}

SCALE = "scale"
WAVELET_DIAGONAL = "wavelet-diagonal"


@dataclass(frozen=True, eq=False)
class FilterPair:
    """1D decomposition filter pair for one biorthogonal basis.

    h and g are the low-pass and high-pass decomposition filters; *_origin is
    the array index of the tap at time 0, which fixes the alignment of the
    convolution output grid.
    """

    basis_name: str
    h: np.ndarray
    g: np.ndarray
    h_origin: int
    g_origin: int


@dataclass(frozen=True, eq=False)
class Kernel2D:
    """Separable 2D kernel: outer product of a 1D filter with itself.

    taps[i][j] = f[i] * f[j] with f = factor, which is h (scale kind) or g
    (wavelet-diagonal kind).  The convolution runs as two 1D passes over
    factor, so taps and dc_gain are only built when asked for.
    """

    factor: np.ndarray
    kind: str
    origin: int

    @cached_property
    def coefficients(self) -> tuple[np.ndarray, ...]:
        """The factor's taps as read-only 0-d float64 arrays, which a ufunc
        takes with less per-call work than numpy scalars; built once."""
        taps = np.array(self.factor, dtype=np.float64)
        taps.flags.writeable = False
        return tuple(taps[t, ...] for t in range(len(taps)))

    @property
    def taps(self) -> np.ndarray:
        taps = np.outer(self.factor, self.factor)
        taps.flags.writeable = False
        return taps

    @property
    def dc_gain(self) -> float:
        return float(self.taps.sum())


def _pair(name: str) -> FilterPair:
    """One basis's h and g from the two tables, as read-only float taps."""
    fields = {}
    for key, (nums, den, lo) in (("h", _DEC_LO[name]), ("g", _DEC_HI[name])):
        # exact: den is a power of two, so sqrt(2)/den only shifts the exponent
        fields[key] = np.asarray(nums, dtype=np.float64) * (SQRT2 / den)
        fields[key].flags.writeable = False
        fields[key + "_origin"] = -lo
    return FilterPair(name, **fields)


_PAIRS = {name: _pair(name) for name in BASES}


def make_filter_pair(basis_name: str) -> FilterPair:
    """Return the decomposition filter pair for one supported basis.

    Parameters
    ----------
    basis_name : str
        One of "bior1.1", "bior2.2", "bior1.3", "bior2.6".

    Returns
    -------
    FilterPair
        Immutable and built once at import; repeated calls return the same
        pair, however the argument is passed.
    """
    if basis_name not in BASES:
        raise DataError(f"unknown wavelet basis {basis_name!r}; supported: {', '.join(BASES)}")
    return _PAIRS[basis_name]


def make_kernel2d(pair: FilterPair, kind: str, unit_dc: bool = False) -> Kernel2D:
    """Build the separable 2D kernel phi = h(x)h or psi = g(x)g.

    With unit_dc the 1D factor is divided by its sum first, so the kernel
    passes constants through unchanged; the scattering cascade uses this for
    every scale kernel.  unit_dc on the zero-sum wavelet kernel is rejected.
    Kernels are cached: the same arguments, passed by position or by
    keyword, return the same kernel, which builds its coefficients once.
    Its factor is the pair's read-only h or g, or a read-only h / sum(h).
    """
    return _kernel2d(pair, kind, bool(unit_dc))


# The cached builder takes its arguments positionally from make_kernel2d,
# so a keyword call and a positional call share one entry.
@lru_cache(maxsize=3 * len(BASES))
def _kernel2d(pair: FilterPair, kind: str, unit_dc: bool) -> Kernel2D:
    if kind == SCALE:
        f, origin = pair.h, pair.h_origin
    elif kind == WAVELET_DIAGONAL:
        f, origin = pair.g, pair.g_origin
    else:
        raise DataError(f"unknown kernel kind {kind!r}; expected {SCALE!r} or {WAVELET_DIAGONAL!r}")
    if unit_dc:
        if kind != SCALE:
            raise DataError("unit_dc requires a scale kernel; the wavelet kernel has zero DC gain")
        f = pair.h / pair.h.sum()
        f.flags.writeable = False
    return Kernel2D(factor=f, kind=kind, origin=origin)


def dump_filter_lines():
    """Yield the filter-table dump: '# basis filter' headers, then one
    coefficient per line at 17 significant digits."""
    for name, pair in _PAIRS.items():
        for label, f in (("h", pair.h), ("g", pair.g)):
            yield f"# {name} {label}"
            for v in f:
                yield f"{v:.17g}"
