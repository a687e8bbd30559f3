"""Filter tables against exact rational oracles, PR identities, kernels."""

import numpy as np
import pytest

import oracles
from wavescat import filters
from wavescat.errors import DataError
from wavescat.filters import (
    BASES,
    SCALE,
    WAVELET_DIAGONAL,
    Kernel2D,
    dump_filter_lines,
    make_filter_pair,
    make_kernel2d,
)

ROOT2 = np.sqrt(2.0)


@pytest.mark.parametrize("name", BASES)
def test_tables_match_rational_oracle_bitwise(name):
    # num * (sqrt2/den) and float(Fraction(num, den)) * sqrt2 agree exactly
    # because every denominator is a power of two, so == is the right check.
    pair = make_filter_pair(name)
    h, hlo = oracles.float_filter(oracles.DEC_LO, name)
    g, glo = oracles.dec_hi_float(name)
    assert pair.h.tolist() == h
    assert pair.g.tolist() == g
    assert pair.h_origin == -hlo
    assert pair.g_origin == -glo


@pytest.mark.parametrize("name", BASES)
def test_perfect_reconstruction_exact(name):
    assert oracles.perfect_reconstruction_exact(name)


@pytest.mark.parametrize("name", BASES)
def test_sum_rules(name):
    pair = make_filter_pair(name)
    assert abs(pair.h.sum() - ROOT2) <= 1e-12
    assert abs(pair.g.sum()) <= 1e-12


def test_filter_lengths():
    assert [len(make_filter_pair(n).h) for n in BASES] == [2, 5, 6, 13]
    assert [len(make_filter_pair(n).g) for n in BASES] == [2, 3, 2, 3]


def test_high_pass_origins_are_zero():
    for name in BASES:
        assert make_filter_pair(name).g_origin == 0


def test_haar_pair_values():
    pair = make_filter_pair("bior1.1")
    half_root2 = ROOT2 / 2
    assert pair.h.tolist() == [half_root2, half_root2]
    assert pair.g.tolist() == [half_root2, -half_root2]
    assert pair.h_origin == 0 and pair.g_origin == 0


@pytest.mark.parametrize("name", BASES)
def test_low_pass_is_symmetric(name):
    h = make_filter_pair(name).h
    assert np.array_equal(h, h[::-1])


def test_unknown_basis_rejected():
    with pytest.raises(DataError, match=r"bior9\.9"):
        make_filter_pair("bior9.9")


def test_pair_is_cached_and_immutable():
    a = make_filter_pair("bior2.2")
    b = make_filter_pair("bior2.2")
    assert a is b
    with pytest.raises(ValueError):
        a.h[0] = 0.0


@pytest.mark.parametrize("name", BASES)
@pytest.mark.parametrize("kind,unit_dc", [(SCALE, False), (SCALE, True),
                                          (WAVELET_DIAGONAL, False)])
def test_kernel_is_exact_outer_product(name, kind, unit_dc):
    pair = make_filter_pair(name)
    kern = make_kernel2d(pair, kind, unit_dc=unit_dc)
    f = pair.h if kind == SCALE else pair.g
    if unit_dc:
        f = f / f.sum()
    assert np.array_equal(kern.taps, np.outer(f, f))
    assert np.array_equal(kern.factor, f)
    assert kern.kind == kind
    assert kern.origin == (pair.h_origin if kind == SCALE else pair.g_origin)
    assert kern.dc_gain == float(kern.taps.sum())


@pytest.mark.parametrize("kind,unit_dc", [(SCALE, False), (SCALE, True),
                                          (WAVELET_DIAGONAL, False)])
def test_kernel_coefficients_are_read_only_taps_built_once(kind, unit_dc):
    kern = make_kernel2d(make_filter_pair("bior2.6"), kind, unit_dc=unit_dc)
    coeffs = kern.coefficients
    assert coeffs is kern.coefficients
    assert [float(c) for c in coeffs] == kern.factor.tolist()
    for c in coeffs:
        assert c.shape == () and c.dtype == np.float64 and not c.flags.writeable
        with pytest.raises(ValueError):
            c[...] = 0.0


def test_kernel_coefficients_of_a_hand_built_kernel_are_read_only():
    kern = Kernel2D(factor=np.array([0.5, -0.25]), kind=SCALE, origin=0)
    assert [float(c) for c in kern.coefficients] == [0.5, -0.25]
    assert not any(c.flags.writeable for c in kern.coefficients)


def test_same_arguments_return_the_same_kernel():
    pair = make_filter_pair("bior2.2")
    for kind, unit_dc in [(SCALE, False), (SCALE, True), (WAVELET_DIAGONAL, False)]:
        a, b = (make_kernel2d(pair, kind, unit_dc=unit_dc) for _ in range(2))
        assert a is b
    assert make_kernel2d(pair, SCALE) is not make_kernel2d(pair, SCALE, unit_dc=True)
    assert filters._kernel2d.cache_info().maxsize is not None
    assert len(filters._PAIRS) == len(BASES)


def test_positional_and_keyword_calls_return_the_same_object():
    pair = make_filter_pair("bior2.2")
    assert make_filter_pair(basis_name="bior2.2") is pair
    kernel = make_kernel2d(pair, SCALE, True)
    assert make_kernel2d(pair, SCALE, unit_dc=True) is kernel
    assert make_kernel2d(pair=pair, kind=SCALE, unit_dc=True) is kernel
    assert make_kernel2d(pair, WAVELET_DIAGONAL) is make_kernel2d(pair, WAVELET_DIAGONAL, False)


def test_haar_kernel_values():
    pair = make_filter_pair("bior1.1")
    # raw taps are (sqrt2/2)^2, one rounding away from 1/2; the normalized
    # factor h/sum(h) is exactly 1/2 per tap, so the unit-DC kernel is exact
    raw = make_kernel2d(pair, SCALE)
    assert np.allclose(raw.taps, 0.5, rtol=0, atol=1e-15)
    assert abs(raw.dc_gain - 2.0) <= 4e-15
    unit = make_kernel2d(pair, SCALE, unit_dc=True)
    assert unit.taps.tolist() == [[0.25, 0.25], [0.25, 0.25]]
    assert unit.dc_gain == 1.0
    psi = make_kernel2d(pair, WAVELET_DIAGONAL)
    assert np.allclose(psi.taps, [[0.5, -0.5], [-0.5, 0.5]], rtol=0, atol=1e-15)


@pytest.mark.parametrize("name", BASES)
def test_unit_dc_scale_kernel_passes_constants(name):
    kern = make_kernel2d(make_filter_pair(name), SCALE, unit_dc=True)
    assert abs(kern.dc_gain - 1.0) <= 1e-12


@pytest.mark.parametrize("name", BASES)
def test_wavelet_kernel_has_zero_dc(name):
    kern = make_kernel2d(make_filter_pair(name), WAVELET_DIAGONAL)
    assert abs(kern.dc_gain) <= 1e-12


def test_unit_dc_on_wavelet_rejected():
    pair = make_filter_pair("bior1.1")
    with pytest.raises(DataError, match="unit_dc"):
        make_kernel2d(pair, WAVELET_DIAGONAL, unit_dc=True)


def test_unknown_kernel_kind_rejected():
    pair = make_filter_pair("bior1.1")
    with pytest.raises(DataError, match="kernel kind"):
        make_kernel2d(pair, "bandpass")


def test_kernel_taps_are_frozen():
    kern = make_kernel2d(make_filter_pair("bior1.3"), SCALE)
    with pytest.raises(ValueError):
        kern.taps[0, 0] = 1.0


def test_kernels_match_oracle_construction():
    for name in BASES:
        phi, psi, oh, og = oracles.oracle_kernels(name)
        lib_phi = make_kernel2d(make_filter_pair(name), SCALE, unit_dc=True)
        lib_psi = make_kernel2d(make_filter_pair(name), WAVELET_DIAGONAL)
        assert oracles.rel_err(lib_phi.taps, phi) <= 1e-15
        assert oracles.rel_err(lib_psi.taps, psi) <= 1e-15
        assert (lib_phi.origin, lib_psi.origin) == (oh, og)


def test_construction_is_deterministic():
    a = make_kernel2d(make_filter_pair("bior2.6"), SCALE, unit_dc=True)
    b = make_kernel2d(make_filter_pair("bior2.6"), SCALE, unit_dc=True)
    assert np.array_equal(a.taps, b.taps)
    assert a.dc_gain == b.dc_gain


def test_dump_filter_lines_round_trip():
    lines = list(dump_filter_lines())
    # one h block and one g block per basis, headers of the form "# name h"
    headers = [ln for ln in lines if ln.startswith("#")]
    assert headers == [f"# {name} {label}" for name in BASES for label in ("h", "g")]
    values = {}
    key = None
    for ln in lines:
        if ln.startswith("#"):
            key = tuple(ln[2:].split())
            values[key] = []
        else:
            values[key].append(float(ln))  # 17 significant digits round-trip
    for name in BASES:
        pair = make_filter_pair(name)
        assert values[(name, "h")] == pair.h.tolist()
        assert values[(name, "g")] == pair.g.tolist()
