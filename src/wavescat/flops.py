"""Analytic FLOPs cost model.

Counting rules (all exact integer arithmetic, no floats):

  conv2d   M1*M2*(K^2*C_in + bias)*C_out     on the output dims M1 x M2
  fc       (I + bias)*O
  avgpool  C_in*W_in*H_in*K^2                on the *input* dims
  maxpool  0 (comparisons only)
  relu     one op per element

Output sizes propagate through layers as floor((n - D(K-1) - 1 + 2P)/S) + 1.
Any count above 2^63-1 is rejected rather than silently wrapped.

The scattering pipeline accounting (pipeline_flops) costs the steps of
scattering.cascade_steps, the same list scatter() runs: each convolution
as a single-channel conv2d on its output dims with the kernel's true side
length, one op per element for each modulus, then the head via network_flops.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DataError, NumericError
from .filters import make_filter_pair
from .metrics import check_peak
from .mlp import HIDDEN
from .scattering import ScatterConfig, cascade_steps, feature_length, plane_dims

_MAX_COUNT = 2**63 - 1

LAYER_KINDS = ("conv2d", "avgpool", "maxpool", "fc", "relu")


@dataclass(frozen=True)
class LayerSpec:
    """One layer of a network spec; only the fields its kind uses matter."""

    kind: str
    k: int = 1          # kernel side (conv/pool)
    p: int = 0          # padding
    s: int = 1          # stride
    d: int = 1          # dilation
    c_in: int | None = None
    c_out: int | None = None
    i: int | None = None   # fc inputs (inferred from the running shape if omitted)
    o: int | None = None   # fc outputs
    n: int | None = None   # relu element count (inferred if omitted)
    bias: bool = True

    def __post_init__(self):
        if self.kind not in LAYER_KINDS:
            raise DataError(f"unknown layer kind {self.kind!r}; expected one of {LAYER_KINDS}")
        if self.k < 1 or self.s < 1 or self.d < 1 or self.p < 0:
            raise DataError(f"layer {self.kind}: need K,S,D >= 1 and P >= 0")


@dataclass(frozen=True)
class NetworkSpec:
    input_width: int
    input_height: int
    channels: int = 3
    layers: tuple[LayerSpec, ...] = ()

    def __post_init__(self):
        if self.input_width < 1 or self.input_height < 1 or self.channels < 1:
            raise DataError("network input dims and channels must be >= 1")


@dataclass(frozen=True)
class FlopsReport:
    """Per-layer counts (1-based layer index) and their exact-integer total."""

    per_layer: tuple[tuple[int, int], ...]
    total: int
    labels: tuple[str, ...]


def _checked(count: int, what: str) -> int:
    if count > _MAX_COUNT:
        raise NumericError(f"{what} count {count} overflows 2^63-1")
    return count


def conv_out_size(n: int, k: int, p: int = 0, s: int = 1, d: int = 1) -> int:
    """Output side of a conv/pool layer: floor((n - D(K-1) - 1 + 2P)/S) + 1."""
    if s < 1:
        raise DataError(f"stride must be >= 1, got {s}")
    out = (n - d * (k - 1) - 1 + 2 * p) // s + 1
    if out < 1:
        raise DataError(
            f"layer shrinks the image away: side {n} with K={k} P={p} S={s} D={d} gives {out}")
    return out


def conv_flops(m1: int, m2: int, k: int, c_in: int, c_out: int, bias: bool) -> int:
    if min(m1, m2, k, c_in, c_out) < 1:
        raise DataError("conv_flops arguments must all be >= 1")
    return _checked(m1 * m2 * (k * k * c_in + (1 if bias else 0)) * c_out, "conv")


def fc_flops(i: int, o: int, bias: bool) -> int:
    if i < 1 or o < 1:
        raise DataError("fc_flops needs I, O >= 1")
    return _checked((i + (1 if bias else 0)) * o, "fc")


def avgpool_flops(c_in: int, w_in: int, h_in: int, k: int) -> int:
    if min(c_in, w_in, h_in, k) < 1:
        raise DataError("avgpool_flops arguments must all be >= 1")
    return _checked(c_in * w_in * h_in * k * k, "avgpool")


def relu_flops(elements: int) -> int:
    if elements < 0:
        raise DataError(f"relu element count must be >= 0, got {elements}")
    return _checked(elements, "relu")


def network_flops(spec: NetworkSpec) -> FlopsReport:
    """Propagate shapes through the layer list and tally per-layer counts.

    The running shape is (channels, width, height) until an fc layer
    flattens it to (length,).
    """
    shape = (spec.channels, spec.input_width, spec.input_height)
    per_layer = []
    labels = []
    total = 0
    for idx, layer in enumerate(spec.layers, start=1):
        try:
            if layer.kind == "fc":
                if layer.o is None:
                    raise DataError("fc needs O")
                i = math.prod(shape)
                if layer.i is not None and layer.i != i:
                    raise DataError(f"fc I={layer.i} but the running shape flattens to {i}")
                n = fc_flops(i, layer.o, layer.bias)
                shape = (layer.o,)
                labels.append(f"fc {i}->{layer.o}")
            elif layer.kind == "relu":
                elems = layer.n if layer.n is not None else math.prod(shape)
                n = relu_flops(elems)
                labels.append(f"relu {elems}")
            else:  # conv2d, avgpool, maxpool: spatial in, spatial out
                if len(shape) == 1:
                    raise DataError(f"{layer.kind} after the network was flattened by an fc layer")
                c, w, h = shape
                if layer.kind == "conv2d":
                    if layer.c_in is not None and layer.c_in != c:
                        raise DataError(
                            f"conv2d C_in={layer.c_in} but the running shape has {c} channels")
                    if layer.c_out is None:
                        raise DataError("conv2d needs C_out")
                m1, m2 = (conv_out_size(side, layer.k, layer.p, layer.s, layer.d) for side in (w, h))
                if layer.kind == "conv2d":
                    n = conv_flops(m1, m2, layer.k, c, layer.c_out, layer.bias)
                    shape = (layer.c_out, m1, m2)
                    labels.append(f"conv2d K={layer.k} {c}->{layer.c_out} out {m1}x{m2}")
                else:
                    n = avgpool_flops(c, w, h, layer.k) if layer.kind == "avgpool" else 0
                    shape = (c, m1, m2)
                    labels.append(f"{layer.kind} K={layer.k} out {m1}x{m2}")
        except DataError as e:
            raise DataError(f"layer {idx} ({layer.kind}): {e}") from None
        per_layer.append((idx, n))
        total = _checked(total + n, "network total")
    return FlopsReport(tuple(per_layer), total, tuple(labels))


def theoretical_time(report: FlopsReport, peak_flops: float) -> float:
    """Total count divided by a device peak, in seconds."""
    return report.total / check_peak(peak_flops)


def parse_layer_line(line: str) -> LayerSpec:
    parts = line.split()
    kind = parts[0]
    kw: dict = {}
    keymap = {"K": "k", "P": "p", "S": "s", "D": "d", "C_in": "c_in",
              "C_out": "c_out", "I": "i", "O": "o", "N": "n", "bias": "bias"}
    for tok in parts[1:]:
        if "=" not in tok:
            raise DataError(f"expected key=value, got {tok!r}")
        key, val = tok.split("=", 1)
        if key not in keymap:
            raise DataError(f"unknown layer key {key!r}; valid: {', '.join(keymap)}")
        if key == "bias":
            if val not in ("0", "1", "true", "false"):
                raise DataError(f"bias must be 0/1/true/false, got {val!r}")
            kw["bias"] = val in ("1", "true")
        else:
            try:
                kw[keymap[key]] = int(val)
            except ValueError:
                raise DataError(f"layer key {key} needs an integer, got {val!r}") from None
    return LayerSpec(kind=kind, **kw)


def parse_layers(text: str) -> tuple[LayerSpec, ...]:
    """Parse the plain-text layer list: one `kind key=value ...` per line;
    blank lines and # comments are skipped."""
    layers = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        try:
            layers.append(parse_layer_line(line))
        except DataError as e:
            raise DataError(f"layer list line {lineno}: {e}") from None
    if not layers:
        raise DataError("layer list is empty")
    return tuple(layers)


def pipeline_flops(width: int, height: int, config: ScatterConfig, classes: int,
                   hidden=HIDDEN) -> FlopsReport:
    """Whole-pipeline count: every step of cascade_steps(config), plus the
    MLP head on the selected features, costed by network_flops."""
    if width < 1 or height < 1 or classes < 1:
        raise DataError("pipeline_flops needs width, height, classes >= 1")
    pairs = [make_filter_pair(b) for b in config.level_bases]
    sides = {"phi": [len(p.h) for p in pairs], "psi": [len(p.g) for p in pairs]}
    dims = plane_dims(width, height, config)
    per = []  # (label, flops)
    for step in cascade_steps(config):
        w, h = dims[step.out]
        if step.kernel is not None:
            kind, level = step.kernel
            per.append((f"{step.out} = {step.src}*{kind}_{level}",
                        conv_flops(w, h, sides[kind][level - 1], 1, 1, False)))
        if step.modulus:
            per.append((f"|{step.out}|", relu_flops(w * h)))
    layers = [spec for o in hidden for spec in (LayerSpec("fc", o=o), LayerSpec("relu"))]
    layers.append(LayerSpec("fc", o=classes))
    head = network_flops(NetworkSpec(feature_length(width, height, config), 1, 1, tuple(layers)))
    per += zip(head.labels, (n for _, n in head.per_layer))
    total = 0
    for _, n in per:
        total = _checked(total + n, "pipeline total")
    return FlopsReport(tuple((i + 1, n) for i, (_, n) in enumerate(per)), total,
                       tuple(label for label, _ in per))
