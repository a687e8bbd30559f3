"""Arithmetic shared by the benchmark: percentiles, run-to-run spread, and the
operation and byte counts computed from array shapes.

Pure standard library, so the measured process can import it before numpy
without moving work into its set-up time.
"""

from __future__ import annotations

import math
import statistics

FLOAT64_BYTES = 8


def percentile(values, q: float) -> float:
    """q-th percentile (0..100) with linear interpolation between the two
    nearest ranks; the same rule as numpy.percentile's default."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile rank must be in [0, 100], got {q}")
    xs = sorted(values)
    rank = q / 100.0 * (len(xs) - 1)
    lo = math.floor(rank)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (rank - lo)


def quartile_spread(values) -> float:
    """Distance between the first and third quartile as a share of the
    median, with the quartiles of statistics.quantiles(values, n=4)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / med


def conv_cost(in_shape, out_shape, k: int) -> tuple[int, int]:
    """(FLOPs, computed bytes) of one single-channel k x k convolution.

    FLOPs follow flops.conv_flops on the output dims with C_in = C_out = 1
    and no bias: out_pixels * k^2.  Computed bytes are the compulsory float64
    traffic: the input plane read once and the output plane written once.
    Padded copies and the intermediate row pass are not counted.
    """
    n_in = in_shape[0] * in_shape[1]
    n_out = out_shape[0] * out_shape[1]
    return n_out * k * k, FLOAT64_BYTES * (n_in + n_out)


def fc_cost(dims) -> tuple[int, int]:
    """(FLOPs, computed weight bytes) of one forward pass through an MLP with
    layer widths dims: flops.fc_flops with bias per layer, and the float64
    weights and biases each read once."""
    flops = sum((dims[j] + 1) * dims[j + 1] for j in range(len(dims) - 1))
    return flops, FLOAT64_BYTES * flops
