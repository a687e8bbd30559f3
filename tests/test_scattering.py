"""Decimating convolution and both scattering cascades against brute oracles."""

import contextlib
import inspect
import os
import subprocess
import sys
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from wavescat import scattering
from wavescat.errors import DataError
from wavescat.filters import (
    BASES,
    SCALE,
    WAVELET_DIAGONAL,
    Kernel2D,
    make_filter_pair,
    make_kernel2d,
)
from wavescat.scattering import (
    ScatterConfig,
    cascade_steps,
    conv2_decimated,
    feature_length,
    feature_vector,
    plane_dims,
    scatter,
    selection_names,
)


def _kern(name, kind):
    unit = kind == SCALE
    return make_kernel2d(make_filter_pair(name), kind, unit_dc=unit)


def _cfg(**kw):
    base = dict(level_bases=("bior1.1", "bior2.2"), selection=("U1", "U2"))
    base.update(kw)
    return ScatterConfig(**base)


# ---------------------------------------------------------------------------
# conv2_decimated


def test_conv_zero_plane_stays_zero():
    kern = _kern("bior2.2", SCALE)
    out = conv2_decimated(np.zeros((9, 7)), kern, "symmetric", 2)
    assert out.shape == (5, 4)
    assert np.array_equal(out, np.zeros((5, 4)))


@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("decimate", [1, 2, 3])
def test_conv_constant_plane_passes_unit_dc(name, decimate):
    kern = _kern(name, SCALE)
    c = 0.8125
    out = conv2_decimated(np.full((16, 16), c), kern, "symmetric", decimate)
    assert np.max(np.abs(out - c)) <= 1e-12


def test_conv_random_8x8_matches_brute():
    rng = np.random.default_rng(42)
    x = rng.random((8, 8))
    kern = _kern("bior1.1", SCALE)
    got = conv2_decimated(x, kern, "symmetric", 2)
    want = oracles.brute_conv2(x, kern.taps, kern.origin, "symmetric", 2)
    assert got.shape == (4, 4)
    assert oracles.rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("kind", [SCALE, WAVELET_DIAGONAL])
@pytest.mark.parametrize("boundary", ["symmetric", "periodic"])
def test_conv_matches_brute_all_kernels(name, kind, boundary):
    rng = np.random.default_rng(hash((name, kind, boundary)) % 2**32)
    kern = _kern(name, kind)
    for decimate in (1, 2, 3):
        h, w = rng.integers(8, 17, size=2)
        x = rng.standard_normal((h, w))
        got = conv2_decimated(x, kern, boundary, decimate)
        want = oracles.brute_conv2(x, kern.taps, kern.origin, boundary, decimate)
        assert got.shape == want.shape
        assert oracles.rel_err(got, want) <= 1e-12


def test_conv_output_dims_are_ceil():
    kern = _kern("bior1.1", SCALE)
    for h, w, s in [(7, 7, 2), (8, 9, 2), (5, 11, 3), (6, 6, 4), (3, 3, 1)]:
        out = conv2_decimated(np.ones((h, w)), kern, "symmetric", s)
        assert out.shape == (-(-h // s), -(-w // s))


def test_conv_rejects_kernel_larger_than_plane():
    kern = _kern("bior2.6", SCALE)  # needs a 6-sample low extension
    with pytest.raises(DataError, match=r"does not fit.*\(4, 4\)"):
        conv2_decimated(np.ones((4, 4)), kern, "symmetric", 2)


def test_conv_rejects_bad_arguments():
    kern = _kern("bior1.1", SCALE)
    for decimate in (0, 2.5, "2"):
        with pytest.raises(DataError, match="decimate"):
            conv2_decimated(np.ones((8, 8)), kern, "symmetric", decimate)
    with pytest.raises(DataError, match="boundary"):
        conv2_decimated(np.ones((8, 8)), kern, "mirror", 2)
    with pytest.raises(DataError, match="2D"):
        conv2_decimated(np.ones(8), kern, "symmetric", 2)
    with pytest.raises(DataError, match="non-finite"):
        conv2_decimated(np.full((8, 8), np.nan), kern, "symmetric", 2)


def test_validate_plane_passes_values_whose_squares_overflow():
    x = np.full((8, 9), 1e200)
    x[3, 4] = -1e200
    assert scattering.validate_plane(x).tobytes() == x.tobytes()
    x[7, 8] = np.nan  # the elementwise check behind the overflow still sees it
    with pytest.raises(DataError, match="non-finite"):
        scattering.validate_plane(x)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("index", [0, 36, 71])  # first, middle and last of 8x9
def test_validate_plane_rejects_a_non_finite_value_anywhere(value, index):
    x = np.random.default_rng(index).standard_normal((8, 9))
    x.flat[index] = value
    with pytest.raises(DataError, match="image plane contains non-finite values"):
        scattering.validate_plane(x)


def test_validate_plane_checks_exactly_the_values_of_a_strided_view():
    x = np.ones((8, 18))
    x[5, 1] = np.inf
    scattering.validate_plane(x[:, ::2])  # the inf is outside the view
    for view in (x[:, 1::2], x.T, x[::-1, 1:4]):
        with pytest.raises(DataError, match="non-finite"):
            scattering.validate_plane(view)


def test_conv_separable_equals_full_2d_sum():
    # rows-then-columns factorization against the plain quadruple loop
    rng = np.random.default_rng(3)
    x = rng.random((11, 13))
    for name in BASES:
        kern = _kern(name, WAVELET_DIAGONAL)
        got = conv2_decimated(x, kern, "periodic", 1)
        want = oracles.brute_conv2(x, kern.taps, kern.origin, "periodic", 1)
        assert oracles.rel_err(got, want) <= 1e-12


@pytest.mark.parametrize("name, boundary", [("bior1.1", "symmetric"), ("bior2.6", "periodic")],
                         ids=["unpadded", "padded"])
def test_conv_never_writes_input_and_returns_fresh_memory(name, boundary):
    kern = _kern(name, SCALE)
    x = np.random.default_rng(11).standard_normal((24, 32))
    before = x.tobytes()
    x.setflags(write=False)
    out = conv2_decimated(x, kern, boundary, 2)
    assert x.tobytes() == before
    assert not np.shares_memory(out, x)
    assert out.flags.writeable
    want = oracles.brute_conv2(x, kern.taps, kern.origin, boundary, 2)
    assert oracles.rel_err(out, want) <= 1e-12


def _reach(n, kern, s):
    """(low, high) extension that the brute oracle's lookups reach past an
    axis of n samples; 0 on both sides means the pass needs no padding."""
    m = -(-n // s)
    return kern.origin, max(0, (m - 1) * s + len(kern.factor) - 1 - kern.origin - (n - 1))


@st.composite
def _conv_cases(draw):
    name = draw(st.sampled_from(BASES))
    kind = draw(st.sampled_from([SCALE, WAVELET_DIAGONAL]))
    boundary = draw(st.sampled_from(["symmetric", "periodic"]))
    s = draw(st.integers(1, 4))
    kern = _kern(name, kind)
    fits = st.integers(1, 40).filter(lambda n: max(_reach(n, kern, s)) <= n)
    block = draw(st.integers(1, 64))  # output samples per block, to split small planes
    return name, kind, boundary, s, draw(fits), draw(fits), block, draw(st.integers(0, 2**32 - 1))


@contextlib.contextmanager
def _replanned(**constants):
    """Patch scattering's plan constants (_BLOCK, GEMM_MIN_*), which a plan
    reads when it is built; the plan cache is cleared on both sides of the
    patch, so plans built under it are dropped when it ends."""
    _clear_plans()
    try:
        with mock.patch.multiple(scattering, **constants):
            yield
    finally:
        _clear_plans()


def _clear_plans():
    """Drop every cached convolution plan, and with it both of its passes."""
    scattering._conv_plan.cache_clear()


@settings(deadline=None)
@given(_conv_cases(), st.booleans())
@example(("bior1.1", SCALE, "symmetric", 2, 16, 24, 64, 0), False)  # no padding on either axis
@example(("bior1.3", WAVELET_DIAGONAL, "periodic", 4, 12, 36, 5, 1), False)  # no padding either
@example(("bior2.6", SCALE, "periodic", 3, 20, 7, 3, 2), False)  # padded on both axes
@example(("bior1.1", WAVELET_DIAGONAL, "symmetric", 1, 1, 1, 1, 4), False)  # 1 px: cancels to 0
@example(("bior1.3", WAVELET_DIAGONAL, "symmetric", 2, 1, 3, 2, 5), False)
@example(("bior2.2", WAVELET_DIAGONAL, "symmetric", 1, 2, 3, 1, 0), True)  # only edge tiles
@example(("bior1.3", SCALE, "periodic", 2, 40, 37, 1, 1), True)  # interior and edge column tiles
def test_conv_matches_brute_property(case, gemm_on_small_planes):
    """Within criterion 4's bound of brute force; with gemm_on_small_planes,
    every pass of 3 or more taps runs as a GEMM however small its plane."""
    name, kind, boundary, s, h, w, block, seed = case
    kern = _kern(name, kind)
    x = np.random.default_rng(seed).standard_normal((h, w))
    small = 0 if gemm_on_small_planes else scattering.GEMM_MIN_PIXELS
    with _replanned(_BLOCK=block, GEMM_MIN_PIXELS=small):
        got = conv2_decimated(x, kern, boundary, s)
    want = oracles.brute_conv2(x, kern.taps, kern.origin, boundary, s)
    assert got.shape == want.shape
    assert oracles.scaled_err(got, want, kern.taps, x) <= 1e-12


def _unblocked_pass(x, f, origin, boundary, s, axis, fold=True):
    """One 1D pass the plainest way: extend the whole plane through
    oracles.fold, then sum one product per term over all of it.  With
    fold, the terms are the tap loop's: first f[t] * (x_t + x_(k-1-t)) for
    each pair of nonzero taps that are equal, or f[t] * (x_t - x_(k-1-t))
    where they are negations, by t; then x_t * f[t] for every other tap, in
    order.  Without fold, x_t * f[t] for every tap in order 0..k-1."""
    x = np.moveaxis(x, axis, 0)
    n, k = x.shape[0], len(f)
    m = -(-n // s)
    ext = x[[oracles.fold(t - origin, n, boundary) for t in range((m - 1) * s + k)]]

    def tap(t):
        return ext[t:t + (m - 1) * s + 1:s]

    terms, rest = [], list(range(k))
    for t in range(k // 2 if fold else 0):
        a, b = f[t], f[k - 1 - t]
        if a != 0 and (a == b or a == -b):
            terms.append(f[t] * (tap(t) + tap(k - 1 - t) if a == b else tap(t) - tap(k - 1 - t)))
            rest.remove(t)
            rest.remove(k - 1 - t)
    terms += [tap(t) * f[t] for t in rest]
    acc = terms[0]
    for term in terms[1:]:
        acc = acc + term
    return np.moveaxis(acc, 0, axis)


@settings(deadline=None)
@given(_conv_cases())
@example(("bior2.6", WAVELET_DIAGONAL, "symmetric", 1, 40, 40, 1, 3))  # one row per block
@example(("bior2.6", SCALE, "symmetric", 2, 40, 40, 1, 3))  # both passes are GEMMs
def test_planned_pass_is_bitwise_the_unblocked_pass(case):
    """The tap loop is bitwise the plainest pass that sums the same terms in
    the same order, whatever the block size.  A pass that the engine rule sends to a GEMM rounds otherwise
    (test_gemm_passes_are_shift_equivariant), so a convolution with a GEMM
    pass is held to brute force instead."""
    name, kind, boundary, s, h, w, block, seed = case
    kern = _kern(name, kind)
    x = np.random.default_rng(seed).standard_normal((h, w))
    with _replanned(_BLOCK=block):
        got = conv2_decimated(x, kern, boundary, s)
    k = len(kern.factor)
    if scattering._runs_as_gemm(k, x.shape) or scattering._runs_as_gemm(k, (h, -(-w // s))):
        want = oracles.brute_conv2(x, kern.taps, kern.origin, boundary, s)
        assert got.shape == want.shape
        assert oracles.scaled_err(got, want, kern.taps, x) <= 1e-12
        return
    rows = _unblocked_pass(x, kern.factor, kern.origin, boundary, s, axis=1)
    want = _unblocked_pass(rows, kern.factor, kern.origin, boundary, s, axis=0)
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


# Engine constants under which every pass runs as a tap loop.
_NO_GEMM = dict(GEMM_MIN_TAPS=1 << 30, GEMM_MIN_PIXELS=1 << 62)


@settings(deadline=None)
@given(_conv_cases())
@example(("bior2.6", SCALE, "symmetric", 1, 13, 13, 1, 0))  # 13 taps on a 13 px axis
@example(("bior2.6", WAVELET_DIAGONAL, "periodic", 3, 3, 39, 5, 1))
@example(("bior1.3", SCALE, "symmetric", 4, 17, 9, 2, 2))  # 6 taps, odd sides
@example(("bior2.2", SCALE, "periodic", 2, 35, 21, 3, 3))
@example(("bior1.1", WAVELET_DIAGONAL, "periodic", 3, 25, 7, 4, 4))  # the subtracting fold
def test_tap_loop_matches_brute_property(case):
    """With the engine rule patched so that no pass is a GEMM, the folded tap
    loop is within criterion 4's bound of brute force: every basis and kind,
    both boundaries, strides 1-4, 1-40 px sides and blocks of 1-64 outputs."""
    name, kind, boundary, s, h, w, block, seed = case
    kern = _kern(name, kind)
    x = np.random.default_rng(seed).standard_normal((h, w))
    with _replanned(_BLOCK=block, **_NO_GEMM):
        assert not scattering._runs_as_gemm(len(kern.factor), x.shape)
        got = conv2_decimated(x, kern, boundary, s)
    want = oracles.brute_conv2(x, kern.taps, kern.origin, boundary, s)
    assert got.shape == want.shape
    assert oracles.scaled_err(got, want, kern.taps, x) <= 1e-12


def test_every_bank_kernel_folds_every_pair():
    """Every filter of the bank is linear-phase: each tap is bitwise its
    mirror tap or its negation, so the tap loop folds all k // 2 pairs and
    keeps only an odd kernel's middle tap as a term of its own."""
    for name in BASES:
        for kind in (SCALE, WAVELET_DIAGONAL):
            f = _kern(name, kind).factor
            k = len(f)
            terms = scattering._tap_terms(f)
            assert [(t, u) for t, u, _ in terms] == (
                [(t, k - 1 - t) for t in range(k // 2)] + [(k // 2, None)] * (k % 2))
            want = np.subtract if (name, kind) in (("bior1.1", WAVELET_DIAGONAL),
                                                   ("bior1.3", WAVELET_DIAGONAL)) else np.add
            assert all(fold is want for _, u, fold in terms if u is not None)


def _mirrored(half, middle, sign):
    return np.concatenate((half, middle, sign * half[::-1]))


@pytest.mark.parametrize("boundary", ["symmetric", "periodic"])
def test_mirrored_kernel_is_bitwise_the_folded_pass(boundary):
    """Random kernels of 2-7 taps whose pairs mirror (equal or negated taps,
    some with a zero pair, which does not fold) run as tap loops bitwise
    equal to the folded unblocked pass; folding does change bits against
    the per-tap order for some of them."""
    rng = np.random.default_rng(12)
    x = rng.standard_normal((23, 31))
    moved = 0
    for k in range(2, 8):
        for sign in (1.0, -1.0):
            half = rng.standard_normal(k // 2)
            if k >= 4:
                half[1] = 0.0  # a zero pair stays two one-tap terms
            f = _mirrored(half, rng.standard_normal(k % 2), sign)
            kern = Kernel2D(factor=f, kind=SCALE, origin=int(rng.integers(0, k)))
            s = int(rng.integers(1, 4))
            with _replanned(_BLOCK=int(rng.integers(1, 200)), **_NO_GEMM):
                got = conv2_decimated(x, kern, boundary, s)
            rows = _unblocked_pass(x, f, kern.origin, boundary, s, axis=1)
            want = _unblocked_pass(rows, f, kern.origin, boundary, s, axis=0)
            assert got.tobytes() == want.tobytes()
            rows = _unblocked_pass(x, f, kern.origin, boundary, s, axis=1, fold=False)
            per_tap = _unblocked_pass(rows, f, kern.origin, boundary, s, axis=0, fold=False)
            moved += got.tobytes() != per_tap.tobytes()
    assert moved > 0


@pytest.mark.parametrize("boundary", ["symmetric", "periodic"])
def test_unmirrored_kernel_sums_its_taps_in_order(boundary):
    """A kernel none of whose pairs mirror is all one-tap terms: bitwise the
    per-tap pass in order 0..k-1, as before folding."""
    rng = np.random.default_rng(13)
    x = rng.standard_normal((29, 19))
    for k in range(2, 8):
        f = rng.standard_normal(k)
        assert all(t is None for _, t, _ in scattering._tap_terms(f))
        kern = Kernel2D(factor=f, kind=SCALE, origin=int(rng.integers(0, k)))
        s = int(rng.integers(1, 4))
        with _replanned(_BLOCK=int(rng.integers(1, 200)), **_NO_GEMM):
            got = conv2_decimated(x, kern, boundary, s)
        rows = _unblocked_pass(x, f, kern.origin, boundary, s, axis=1, fold=False)
        want = _unblocked_pass(rows, f, kern.origin, boundary, s, axis=0, fold=False)
        assert got.tobytes() == want.tobytes()


def test_a_convolution_is_resolved_once():
    """After the first call, a convolution of the same kernel, shape,
    boundary and stride neither checks the fit nor looks a pass up again;
    an argument that fails its checks is never cached and fails each time,
    with the same message as an unhashable one."""
    kern = _kern("bior2.2", SCALE)
    x = np.random.default_rng(14).standard_normal((20, 17))
    _clear_plans()
    want = conv2_decimated(x, kern, "symmetric", 2)
    with mock.patch.object(scattering, "_check_fit", side_effect=AssertionError), \
            mock.patch.object(scattering, "_pass_plan", side_effect=AssertionError):
        assert conv2_decimated(x, kern, "symmetric", 2).tobytes() == want.tobytes()
    for _ in range(2):
        with pytest.raises(DataError, match="decimate must be >= 1, got 0"):
            conv2_decimated(x, kern, "symmetric", 0)
        with pytest.raises(DataError, match=r"kernel side 5 does not fit plane of shape \(1, 17\)"):
            conv2_decimated(x[:1], kern, "symmetric", 2)
        with pytest.raises(DataError, match=r"unknown boundary mode \['symmetric'\]"):
            conv2_decimated(x, kern, ["symmetric"], 2)


# every kernel of 3 or more taps in the filter bank: 3, 5, 6 and 13 taps
_GEMM_KERNELS = (("bior2.2", WAVELET_DIAGONAL), ("bior2.2", SCALE), ("bior1.3", SCALE),
                 ("bior2.6", SCALE))


@st.composite
def _gemm_shift_cases(draw):
    """A periodic plane whose sides are multiples of the stride, a kernel of
    3 or more taps (one of the filter bank's or random taps), and a shift
    by a multiple of the stride on each axis."""
    s = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    if draw(st.booleans()):
        kern = _kern(*draw(st.sampled_from(_GEMM_KERNELS)))
    else:
        k = draw(st.integers(3, 16))
        kern = Kernel2D(factor=rng.standard_normal(k), kind=SCALE, origin=draw(st.integers(0, k - 1)))
    side = st.integers(1, 48 // s).map(lambda q: q * s).filter(
        lambda n: max(_reach(n, kern, s)) <= n)
    # 2 or more rows, and 2 or more columns per pass
    h, w = draw(side.filter(lambda n: n > 1)), draw(side.filter(lambda n: n > s))
    shift = (s * draw(st.integers(0, h // s - 1)), s * draw(st.integers(0, w // s - 1)))
    return kern, s, rng.standard_normal((h, w)), shift


def _shift_case(name, kind, s, h, w, shift, seed):
    x = np.random.default_rng(seed).standard_normal((h, w))
    return _kern(name, kind), s, x, shift


@settings(deadline=None, max_examples=150)
@given(_gemm_shift_cases())
# bior2.6's column pass at stride 2 on 80 rows: tile 0 and tile 4 are edge
# tiles, 1-3 interior; a 32-row roll moves outputs two tiles across that
# border.  The row pass's tiles split the same way along its 100 columns.
@example(_shift_case("bior2.6", SCALE, 2, 80, 100, (32, 10), 0))  # 50 columns
@example(_shift_case("bior2.6", SCALE, 2, 20, 34, (6, 10), 0))  # 17 columns
@example(_shift_case("bior2.6", SCALE, 2, 26, 130, (2, 64), 1))  # 65 columns
@example(_shift_case("bior2.2", WAVELET_DIAGONAL, 2, 70, 134, (18, 62), 2))  # 3 taps
@example(_shift_case("bior2.2", SCALE, 1, 67, 45, (21, 7), 3))  # 5 taps, stride 1
@example(_shift_case("bior1.3", SCALE, 3, 96, 201, (48, 99), 4))  # 6 taps, 67 columns
def test_gemm_passes_are_shift_equivariant(case):
    """Under the periodic boundary, shifting the input by (a*s, b*s) rolls
    the output by (a, b) bit for bit: every output of the GEMM row pass and
    the GEMM column pass is computed the same way wherever it sits in its
    tile or its GEMM, and whether its tile reads the plane in place or
    through an edge strip.  The engine rule's plane-size threshold is
    patched to 0, so every kernel here runs both passes as GEMMs; a plane
    of one row or one column would take the tap loop."""
    kern, s, x, (dy, dx) = case
    (h, w), k = x.shape, len(kern.factor)
    with _replanned(GEMM_MIN_PIXELS=0):
        assert scattering._runs_as_gemm(k, (h, w)) and scattering._runs_as_gemm(k, (h, w // s))
        base = conv2_decimated(x, kern, "periodic", s)
        moved = conv2_decimated(np.roll(x, (dy, dx), axis=(0, 1)), kern, "periodic", s)
        again = conv2_decimated(x, kern, "periodic", s)
    assert moved.tobytes() == np.roll(base, (dy // s, dx // s), axis=(0, 1)).tobytes()
    assert base.tobytes() == again.tobytes()


# 3, 5 and 13 taps
_ROW_GEMM_KERNELS = (("bior2.2", WAVELET_DIAGONAL), ("bior2.2", SCALE), ("bior2.6", SCALE))


@st.composite
def _row_gemm_cases(draw):
    """A kernel of 3, 5 or 13 taps, a boundary and a stride, and a plane of
    d = 1-3 rows above 2-130 more, with a width the kernel fits."""
    kern = _kern(*draw(st.sampled_from(_ROW_GEMM_KERNELS)))
    boundary = draw(st.sampled_from(["symmetric", "periodic"]))
    s = draw(st.integers(1, 3))
    h, d = draw(st.integers(2, 130)), draw(st.integers(1, 3))
    w = draw(st.integers(2, 100).filter(lambda n: max(_reach(n, kern, s)) <= n))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((d + h, w))
    return kern, boundary, s, x, d


def _row_case(name, kind, boundary, s, h, w, d, seed):
    x = np.random.default_rng(seed).standard_normal((d + h, w))
    return _kern(name, kind), boundary, s, x, d


@settings(deadline=None)
@given(_row_gemm_cases())
@example(_row_case("bior2.6", SCALE, "periodic", 2, 64, 100, 3, 0))  # interior and edge tiles
@example(_row_case("bior2.2", WAVELET_DIAGONAL, "symmetric", 1, 2, 17, 1, 1))  # 2 rows
def test_gemm_row_pass_rows_do_not_depend_on_plane_height(case):
    """A GEMM row pass makes each row of its output from that row alone, the
    same way whatever the plane's height: the rows of a plane below its
    first d are bitwise the row pass of those rows by themselves, and the
    plane in column-major order gives the same bytes.  The plane-size
    threshold is patched to 0, so every pass here is a GEMM; a plane of one
    row takes the tap loop, since a GEMM of one row is a vector-matrix
    product that sums in another order."""
    kern, boundary, s, x, d = case
    k = len(kern.factor)
    assert not scattering._runs_as_gemm(3, (1, 1 << 17))
    with _replanned(GEMM_MIN_PIXELS=0):
        assert scattering._runs_as_gemm(k, x[d:].shape)
        row_pass = scattering._pass_plan(kern, x.shape, boundary, s, 1)
        cut = scattering._pass_plan(kern, x[d:].shape, boundary, s, 1)(x[d:])
    whole = row_pass(x)
    assert whole[d:].tobytes() == cut.tobytes()
    assert row_pass(np.asfortranarray(x)).tobytes() == whole.tobytes()


@pytest.mark.parametrize("threads", ["1", "2"])
def test_gemm_pass_shift_test_holds_under_one_and_two_blas_threads(tmp_path, threads):
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join(p for p in (here, os.path.dirname(os.path.dirname(scattering.__file__)),
                                       os.environ.get("PYTHONPATH")) if p)
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, PYTHONPATH=path)
    code = ("import test_scattering as t; t.test_gemm_passes_are_shift_equivariant(); "
            "t.test_gemm_row_pass_rows_do_not_depend_on_plane_height()")
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env, check=True, timeout=300)


@pytest.mark.parametrize("name, kind", [("bior2.6", SCALE), ("bior2.2", WAVELET_DIAGONAL)],
                         ids=["13-tap", "3-tap"])
def test_gemm_convolution_allocates_no_plane_sized_buffer(name, kind):
    """At 720p both passes of the 13-tap low-pass and of the 3-tap high-pass
    are GEMMs that read their input in place: one conv2_decimated allocates
    its two pass outputs plus at most 1 MiB of edge strips, and no extension
    or gather buffer the size of a plane (a 720x640 plane is 3.7 MB)."""
    kern = _kern(name, kind)
    x = np.random.default_rng(6).standard_normal((720, 1280))
    conv2_decimated(x, kern, "symmetric", 2)  # builds and caches both plans
    tracemalloc.start()
    try:
        out = conv2_decimated(x, kern, "symmetric", 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows_out = 720 * 640 * 8  # the row pass's output, the column pass's input
    assert peak <= rows_out + out.nbytes + (1 << 20)
    assert scattering._runs_as_gemm(len(kern.factor), x.shape)
    assert scattering._runs_as_gemm(len(kern.factor), (720, 640))


def test_one_plan_per_kernel_shape_and_stride():
    pair = make_filter_pair("bior2.6")
    kern = make_kernel2d(pair, SCALE, True)
    x = np.random.default_rng(8).standard_normal((20, 30))
    plans = set()
    for s in (1, 2, 3):
        plan = scattering._conv_plan(kern, x.shape, "symmetric", s)
        assert plan is scattering._conv_plan(make_kernel2d(pair, SCALE, unit_dc=True), x.shape,
                                             "symmetric", s)
        plans.add(plan)
        want = _unblocked_pass(x, kern.factor, kern.origin, "symmetric", s, axis=1)
        assert oracles.rel_err(plan[0](x), want) <= 1e-12  # the GEMM row pass
    assert len(plans) == 3


def test_signed_zero_taps_keep_their_sign_in_the_coefficients():
    x = np.random.default_rng(3).standard_normal((6, 7))
    outs = set()
    for factor in ([0.0, 0.0], [-0.0, 0.0], [0.0, -0.0], [-0.0, -0.0]):
        kern = Kernel2D(factor=np.array(factor), kind=SCALE, origin=0)
        got = conv2_decimated(x, kern, "periodic", 1)
        rows = _unblocked_pass(x, kern.factor, 0, "periodic", 1, axis=1)
        want = _unblocked_pass(rows, kern.factor, 0, "periodic", 1, axis=0)
        assert got.tobytes() == want.tobytes()
        outs.add(got.tobytes())
    assert len(outs) > 1  # the zeros' signs do reach the output
    # GEMM row passes of kernels with one length and origin but other taps
    x = np.random.default_rng(4).standard_normal((20, 24))
    plans = set()
    for seed in range(3):
        taps = np.random.default_rng(seed).standard_normal(13)
        kern = Kernel2D(factor=taps, kind=SCALE, origin=6)
        got = conv2_decimated(x, kern, "periodic", 2)
        want = oracles.brute_conv2(x, kern.taps, kern.origin, "periodic", 2)
        assert oracles.scaled_err(got, want, kern.taps, x) <= 1e-12
        plans.add(scattering._conv_plan(kern, x.shape, "periodic", 2))
    assert len(plans) == 3


def test_patched_block_changes_the_plan_blocks():
    kern = _kern("bior2.2", SCALE)
    x = np.random.default_rng(5).standard_normal((24, 40))
    key = (kern, x.shape, "symmetric", 2)  # its row pass: 24 rows of 20 outputs

    def blocks(plan):
        return len(inspect.getclosurevars(plan[0]).nonlocals["blocks"])

    with _replanned(_BLOCK=1 << 15):  # all 480 outputs in one block
        whole, plan = conv2_decimated(x, kern, "symmetric", 2), scattering._conv_plan(*key)
    with _replanned(_BLOCK=20):  # one row of outputs per block
        split, blocked = conv2_decimated(x, kern, "symmetric", 2), scattering._conv_plan(*key)
    assert (blocks(plan), blocks(blocked)) == (1, 24)
    assert scattering._conv_plan(*key) is not blocked  # dropped when the patch ends
    assert whole.tobytes() == split.tobytes()


def test_pass_plan_cache_is_bounded():
    kern = _kern("bior1.1", SCALE)
    limit = scattering._conv_plan.cache_info().maxsize
    assert limit is not None
    for n in range(1, limit + 20):
        scattering._conv_plan(kern, (n, 8), "periodic", 1)
    assert scattering._conv_plan.cache_info().currsize <= limit
    assert selection_names.cache_info().maxsize is not None


def test_kernels_share_read_only_factors():
    pair = make_filter_pair("bior2.2")
    unit = [make_kernel2d(pair, SCALE, unit_dc=True).factor for _ in range(2)]
    assert unit[0] is unit[1]
    assert make_kernel2d(pair, SCALE).factor is pair.h
    assert make_kernel2d(pair, WAVELET_DIAGONAL).factor is pair.g
    for f in (unit[0], pair.h, pair.g):
        with pytest.raises(ValueError):
            f[0] = 0.0


def test_threads_extracting_one_plane_at_once_write_the_same_bytes():
    planes = [np.random.default_rng(i).random(shape)
              for i, shape in enumerate([(64, 64), (37, 53), (20, 31)])]
    cfg = ScatterConfig(variant="classic", boundary="periodic",
                        level_bases=("bior2.6", "bior2.2", "bior1.3"),
                        selection=tuple(selection_names(3)))
    want = [feature_vector(scatter(x, cfg), cfg.selection).tobytes() for x in planes]
    got = [[] for _ in range(4)]
    start = threading.Barrier(len(got))

    def work(out):
        start.wait()
        for _ in range(10):
            out.append([feature_vector(scatter(x, cfg), cfg.selection).tobytes()
                        for x in planes])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        _clear_plans()  # every thread builds the plans at once
        threads = [threading.Thread(target=work, args=(out,)) for out in got]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
    finally:
        sys.setswitchinterval(interval)
    assert got == [[want] * 10] * len(got)


# ---------------------------------------------------------------------------
# cascades


def test_variants_coincide_at_depth_1():
    improved = _cfg(level_bases=("bior2.2",), selection=("U1",))
    classic = _cfg(level_bases=("bior2.2",), selection=("U1",), variant="classic")
    assert cascade_steps(improved) == cascade_steps(classic)
    assert [s.out for s in cascade_steps(improved)] == ["S0", "U1", "S1"]


def test_inplace_modulus_never_reaches_s0():
    # improved depth >= 2 runs A1 = |S0| as a modulus-only step on the S0 plane
    cfg = _cfg(level_bases=("bior1.1", "bior2.2", "bior1.3"), selection=("U1",))
    x = np.random.default_rng(12).standard_normal((32, 32))
    x.setflags(write=False)
    out = scatter(x, cfg)
    want = conv2_decimated(x, _kern("bior1.1", SCALE), "symmetric", 2)
    assert out.s0.shape == want.shape and out.s0.tobytes() == want.tobytes()
    assert (out.s0 < 0).any()
    for u in out.u_levels:
        assert (u >= 0).all()


def test_classic_zero_image_all_planes_zero():
    cfg = _cfg(level_bases=("bior1.1", "bior2.2", "bior1.3"),
               variant="classic", selection=("U1", "U2", "U3"))
    out = scatter(np.zeros((32, 32)), cfg)
    for plane in (out.s0, *out.u_levels, *out.s_levels):
        assert np.array_equal(plane, np.zeros_like(plane))


@pytest.mark.parametrize("variant", ["classic", "improved"])
def test_constant_image_kills_u_planes(variant):
    cfg = _cfg(level_bases=("bior1.1", "bior2.2", "bior1.3"),
               variant=variant, selection=("U1", "U2", "U3"))
    c = 0.375
    out = scatter(np.full((32, 32), c), cfg)
    assert np.max(np.abs(out.s0 - c)) <= 1e-12
    for plane in (*out.u_levels, *out.s_levels):
        assert np.max(np.abs(plane)) <= 1e-12


def test_classic_16x16_depth2_matches_brute():
    rng = np.random.default_rng(11)
    x = rng.random((16, 16))
    cfg = _cfg(level_bases=("bior1.1", "bior1.1"), variant="classic")
    out = scatter(x, cfg)
    s0, u, sl = oracles.brute_scatter_classic(x, cfg.level_bases)
    assert oracles.rel_err(out.s0, s0) <= 1e-12
    for got, want in zip(out.u_levels, u):
        assert oracles.rel_err(got, want) <= 1e-12
    for got, want in zip(out.s_levels, sl):
        assert oracles.rel_err(got, want) <= 1e-12


def test_improved_16x16_depth3_matches_brute():
    rng = np.random.default_rng(12)
    x = rng.random((16, 16))
    cfg = ScatterConfig(level_bases=("bior1.1", "bior2.2", "bior1.3"),
                        variant="improved", selection=("U1", "U2", "U3"))
    out = scatter(x, cfg)
    s0, u, sl = oracles.brute_scatter_improved(x, cfg.level_bases)
    assert oracles.rel_err(out.s0, s0) <= 1e-12
    for got, want in zip(out.u_levels, u):
        assert oracles.rel_err(got, want) <= 1e-12
    for got, want in zip(out.s_levels, sl):
        assert oracles.rel_err(got, want) <= 1e-12


def _random_case(rng):
    """Feasible random cascade case on a 24..32 sized plane.

    bior2.6 needs a 6-sample extension, so it may not smooth the deepest
    plane of a depth-3 cascade (which can be as small as 3 samples).
    """
    depth = int(rng.integers(1, 4))
    variant = ("classic", "improved")[int(rng.integers(0, 2))]
    boundary = ("symmetric", "periodic")[int(rng.integers(0, 2))]
    smooth_with = ("first", "last")[int(rng.integers(0, 2))]
    while True:
        bases = tuple(BASES[i] for i in rng.integers(0, len(BASES), size=depth))
        if depth < 3:
            break
        smoother = bases[0] if variant == "improved" and smooth_with == "first" else bases[-1]
        if smoother != "bior2.6":
            break
    h, w = (int(v) for v in rng.integers(24, 33, size=2))
    x = rng.random((h, w))
    return x, ScatterConfig(level_bases=bases, boundary=boundary,
                            variant=variant, smooth_with=smooth_with,
                            selection=("U1",))


def test_random_cascades_match_brute():
    rng = np.random.default_rng(2024)
    seen = set()
    for _ in range(20):
        x, cfg = _random_case(rng)
        seen.update(cfg.level_bases)
        out = scatter(x, cfg)
        if cfg.variant == "classic":
            s0, u, sl = oracles.brute_scatter_classic(
                x, cfg.level_bases, cfg.boundary, cfg.decimate, cfg.smooth_decimate)
        else:
            s0, u, sl = oracles.brute_scatter_improved(
                x, cfg.level_bases, cfg.boundary, cfg.decimate,
                cfg.smooth_with, cfg.smooth_decimate)
        assert oracles.rel_err(out.s0, s0) <= 1e-12
        for got, want in zip(out.u_levels, u):
            assert oracles.rel_err(got, want) <= 1e-12
        for got, want in zip(out.s_levels, sl):
            assert oracles.rel_err(got, want) <= 1e-12
    assert seen == set(BASES)


def test_smooth_decimate_off_keeps_u_dims():
    x = np.random.default_rng(5).random((20, 20))
    cfg = _cfg(variant="improved", smooth_decimate=False)
    out = scatter(x, cfg)
    for u, s in zip(out.u_levels, out.s_levels):
        assert u.shape == s.shape


def test_order1_variants_identical():
    rng = np.random.default_rng(6)
    for name in BASES:
        x = rng.random((18, 14))
        classic = scatter(x, ScatterConfig(level_bases=(name,),
                                           variant="classic", selection=("U1",)))
        improved = scatter(x, ScatterConfig(level_bases=(name,),
                                            variant="improved", selection=("U1",)))
        assert np.array_equal(classic.s0, improved.s0)
        assert np.array_equal(classic.u_levels[0], improved.u_levels[0])
        assert np.array_equal(classic.s_levels[0], improved.s_levels[0])


def test_s0_is_linear():
    rng = np.random.default_rng(7)
    cfg = _cfg()
    x, y = rng.random((16, 16)), rng.random((16, 16))
    a, b = 1.75, -0.3
    lhs = scatter(a * x + b * y, cfg).s0
    rhs = a * scatter(x, cfg).s0 + b * scatter(y, cfg).s0
    assert np.max(np.abs(lhs - rhs)) <= 1e-10


def test_u_planes_nonnegative_property():
    rng = np.random.default_rng(8)
    for i in range(1000):
        depth = int(rng.integers(1, 3))
        bases = tuple(BASES[j] for j in rng.integers(0, 3, size=depth))
        variant = ("classic", "improved")[i % 2]
        cfg = ScatterConfig(level_bases=bases, variant=variant,
                            selection=("U1",))
        x = rng.standard_normal((int(rng.integers(8, 13)), int(rng.integers(8, 13))))
        out = scatter(x, cfg)
        for u in out.u_levels:
            assert (u >= 0).all()


def test_shift_equivariance_periodic_haar():
    # input shifted by 2^depth pixels -> level-m planes shift by 2^(depth-m),
    # bitwise under the periodic boundary since the summands are identical
    rng = np.random.default_rng(9)
    x = rng.random((32, 32))
    for variant in ("classic", "improved"):
        cfg = ScatterConfig(level_bases=("bior1.1", "bior1.1"),
                            boundary="periodic", variant=variant, selection=("U1", "U2"))
        base = scatter(x, cfg)
        for axis in (0, 1):
            moved = scatter(np.roll(x, 4, axis=axis), cfg)
            assert np.array_equal(moved.u_levels[0], np.roll(base.u_levels[0], 2, axis=axis))
            assert np.array_equal(moved.u_levels[1], np.roll(base.u_levels[1], 1, axis=axis))
            # S1 is decimated twice (level conv + smoothing), so 4 px -> 1 px
            assert np.array_equal(moved.s_levels[0], np.roll(base.s_levels[0], 1, axis=axis))
        # S2 carries three decimations; an 8 px input shift moves it 1 px
        moved8 = scatter(np.roll(x, 8, axis=0), cfg)
        assert np.array_equal(moved8.s_levels[1], np.roll(base.s_levels[1], 1, axis=0))


def test_determinism_bitwise():
    x = np.random.default_rng(10).random((24, 24))
    cfg = ScatterConfig()
    a, b = scatter(x, cfg), scatter(x, cfg)
    assert np.array_equal(a.s0, b.s0)
    for p, q in zip(a.u_levels + a.s_levels, b.u_levels + b.s_levels):
        assert np.array_equal(p, q)


# ---------------------------------------------------------------------------
# feature vector and dims


def test_feature_vector_single_plane_row_major():
    x = np.random.default_rng(13).random((8, 8))
    cfg = ScatterConfig(level_bases=("bior1.1",), selection=("U1",))
    out = scatter(x, cfg)
    vec = feature_vector(out, cfg.selection)
    assert out.u_levels[0].shape == (4, 4)
    assert vec.shape == (16,)
    assert np.array_equal(vec, out.u_levels[0].ravel())


def test_feature_vector_follows_declared_order():
    x = np.random.default_rng(14).random((16, 16))
    cfg = _cfg(variant="improved")
    out = scatter(x, cfg)
    # shuffled selection still concatenates as S0, U1, U2, S1, S2
    vec = feature_vector(out, selection=("S2", "U1", "S0"))
    want = np.concatenate([out.s0.ravel(), out.u_levels[0].ravel(),
                           out.s_levels[1].ravel()])
    assert np.array_equal(vec, want)


def test_feature_vector_rejects_bad_selection():
    x = np.random.default_rng(15).random((8, 8))
    out = scatter(x, ScatterConfig(level_bases=("bior1.1",), selection=("U1",)))
    with pytest.raises(DataError, match="empty selection"):
        feature_vector(out, selection=())
    with pytest.raises(DataError, match="U9"):
        feature_vector(out, selection=("U9",))


def test_feature_lengths_for_default_selection():
    cfg = ScatterConfig()  # depth 3, selection U1,U2,U3, decimate 2
    assert feature_length(64, 64, cfg) == 32 * 32 + 16 * 16 + 8 * 8 == 1344
    assert feature_length(1280, 720, cfg) == 640 * 360 + 320 * 180 + 160 * 90 == 302400


def test_plane_pixel_count_drops_64x_after_three_levels():
    cfg = ScatterConfig()
    dims = plane_dims(256, 256, cfg)
    assert dims["U3"] == (32, 32)
    assert (256 * 256) // (32 * 32) == 64


def test_plane_dims_match_actual_shapes():
    rng = np.random.default_rng(16)
    for h, w in [(17, 9), (16, 16), (25, 31)]:
        x = rng.random((h, w))
        for variant in ("classic", "improved"):
            cfg = ScatterConfig(level_bases=("bior1.1", "bior2.2"),
                                variant=variant, selection=("U1", "U2"))
            out = scatter(x, cfg)
            dims = plane_dims(w, h, cfg)
            assert out.s0.shape == (dims["S0"][1], dims["S0"][0])
            for n, u in enumerate(out.u_levels, start=1):
                assert u.shape == (dims[f"U{n}"][1], dims[f"U{n}"][0])
            for n, s in enumerate(out.s_levels, start=1):
                assert s.shape == (dims[f"S{n}"][1], dims[f"S{n}"][0])


def _outcome(call):
    try:
        call()
    except DataError as exc:
        return str(exc)
    return None


_small_configs = st.builds(
    ScatterConfig, level_bases=st.lists(st.sampled_from(BASES), min_size=1, max_size=3),
    variant=st.sampled_from(scattering.VARIANTS), boundary=st.sampled_from(scattering.BOUNDARIES),
    decimate=st.integers(1, 3), smooth_with=st.sampled_from(scattering.SMOOTH_WITH),
    smooth_decimate=st.booleans(), selection=st.just(("S0",)))


@settings(deadline=None, max_examples=150)
@given(st.integers(1, 40), st.integers(1, 40), _small_configs)
@example(8, 8, ScatterConfig(variant="classic", level_bases=("bior2.6", "bior1.3", "bior2.2"),
                             selection=("S0",)))  # 13 taps on the 4x4 U1
@example(40, 40, ScatterConfig(level_bases=("bior2.6",), selection=("S0",)))  # fits
def test_plane_dims_rejects_exactly_what_scatter_rejects(h, w, config):
    want = _outcome(lambda: scatter(np.ones((h, w)), config))
    assert _outcome(lambda: plane_dims(w, h, config)) == want
    assert want is None or want.startswith("kernel side")


def test_selection_names_declared_order():
    assert selection_names(3) == ("S0", "U1", "U2", "U3", "S1", "S2", "S3")


# ---------------------------------------------------------------------------
# config validation


def test_config_rejects_bad_values():
    with pytest.raises(DataError, match="need 1 to 31 bases, one per level, got 0"):
        ScatterConfig(level_bases=(), selection=())
    with pytest.raises(DataError, match="bior7.7"):
        ScatterConfig(level_bases=("bior7.7",), selection=("U1",))
    with pytest.raises(DataError, match="boundary"):
        ScatterConfig(boundary="clamp")
    for decimate in (0, 2.5, "2"):
        with pytest.raises(DataError, match="decimate"):
            ScatterConfig(decimate=decimate)
    with pytest.raises(DataError, match="variant"):
        ScatterConfig(variant="turbo")
    with pytest.raises(DataError, match="smooth_with"):
        ScatterConfig(smooth_with="middle")
    with pytest.raises(DataError, match="U5"):
        ScatterConfig(selection=("U5",))
    # selection_names' cache holds the names of every depth up to MAX_DEPTH
    with pytest.raises(DataError, match="need 1 to 31 bases, one per level, got 32"):
        ScatterConfig(level_bases=("bior1.1",) * 32, selection=("S32",))
    with pytest.raises(DataError, match="empty selection"):
        ScatterConfig(selection=())


def test_depth_is_the_number_of_bases():
    assert ScatterConfig().depth == 3
    assert ScatterConfig(level_bases=("bior2.6",) * 31, selection=("S31",)).depth == 31
    with pytest.raises(TypeError):
        ScatterConfig(depth=3)


def test_config_coerces_sequences_to_tuples():
    cfg = ScatterConfig(level_bases=["bior1.1", "bior2.2"], selection=["U1", "U2"])
    assert cfg.level_bases == ("bior1.1", "bior2.2")
    assert cfg.selection == ("U1", "U2")


def test_config_stores_selection_in_declared_order_once_each():
    assert ScatterConfig(selection=("S1", "U3", "S0", "U1", "U3")).selection == (
        "S0", "U1", "U3", "S1")
    assert ScatterConfig(selection=("U1", "U1")).selection == ("U1",)
