"""Per-layer tracing from outside the program.

Tracer.install() replaces each public wavescat function listed in PATCHES at
the place it is looked up (for example wavescat.pipeline.scatter, which is
what pipeline.extract_features calls) with a wrapper that records one span
per call: name, start, end, parent span, frame id, phase and a few counts
derived from argument and result shapes.  uninstall() restores every
original.  Spans stay in memory; the caller writes them out when the run
ends.  Nothing in the package itself is modified.
"""

from __future__ import annotations

import contextlib
import importlib
import itertools
import threading
import time

from calc import conv_cost, fc_cost


class Span:
    __slots__ = ("sid", "name", "start", "end", "parent", "frame", "phase", "attrs")

    def __init__(self, sid, name, start, end, parent, frame, phase, attrs):
        self.sid = sid
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.frame = frame
        self.phase = phase
        self.attrs = attrs

    @property
    def dur(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {"id": self.sid, "name": self.name, "start": self.start, "end": self.end,
                "parent": self.parent, "frame": self.frame, "phase": self.phase,
                **(self.attrs or {})}


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _conv_attrs(tracer, args, kwargs, out):
    plane = _arg(args, kwargs, 0, "plane")
    k = len(_arg(args, kwargs, 1, "kernel").factor)
    flops, nbytes = conv_cost(plane.shape, out.shape, k)
    if tracer.capture is not None:
        tracer.capture.append((plane, out, flops))
    return {"in_shape": plane.shape, "flops": flops, "bytes": nbytes}


def _scatter_attrs(tracer, args, kwargs, out):
    if tracer.capture is not None:
        tracer.captured_output = (out, _arg(args, kwargs, 1, "config"))
    return {"in_shape": _arg(args, kwargs, 0, "plane").shape}


def _forward_attrs(tracer, args, kwargs, out):
    flops, nbytes = fc_cost(_arg(args, kwargs, 0, "model").dims)
    return {"flops": flops, "bytes": nbytes}


def _model_attrs(tracer, args, kwargs, model):
    return {"bytes": fc_cost(model.dims)[1]}


def _decode_attrs(tracer, args, kwargs, plane):
    # computed raster size of the 3-channel 8-bit PPM the plane came from
    return {"bytes": 3 * plane.size}


def _train_attrs(tracer, args, kwargs, out):
    n = len(_arg(args, kwargs, 1, "features"))
    cfg = _arg(args, kwargs, 3, "config")
    return {"steps": -(-n // cfg.batch_size) * cfg.epochs}


def _extract_attrs(tracer, args, kwargs, report):
    return {"images": report.written + len(report.failures),
            "workers": _arg(args, kwargs, 0, "config").threads}


# (module where the name is looked up, attribute, span name, attrs function)
PATCHES = (
    ("wavescat.scattering", "validate_plane", "scattering.validate_plane", None),
    ("wavescat.scattering", "conv2_decimated", "scattering.conv2_decimated", _conv_attrs),
    ("wavescat.scattering", "make_kernel2d", "filters.make_kernel2d", None),
    ("wavescat.pipeline", "scatter", "scattering.scatter", _scatter_attrs),
    ("wavescat.pipeline", "feature_vector", "scattering.feature_vector", None),
    ("wavescat.pipeline", "extract_features", "pipeline.extract_features", None),
    ("wavescat.mlp", "mlp_forward", "mlp.mlp_forward", _forward_attrs),
    ("wavescat.pipeline", "mlp_forward", "mlp.mlp_forward", _forward_attrs),
    ("wavescat.pipeline", "train", "mlp.train", _train_attrs),
    ("wavescat.pipeline", "predict", "mlp.predict", None),
    ("wavescat.ppm", "load_image_channel", "ppm.load_image_channel", _decode_attrs),
    ("wavescat.pipeline", "load_image_channel", "ppm.load_image_channel", _decode_attrs),
    ("wavescat.formats", "load_model", "formats.load_model", _model_attrs),
    ("wavescat.pipeline", "load_model", "formats.load_model", _model_attrs),
    ("wavescat.pipeline", "save_model", "formats.save_model", None),
    ("wavescat.pipeline", "write_features", "formats.write_features", None),
    ("wavescat.pipeline", "read_features", "formats.read_features", None),
    ("wavescat.pipeline", "run_extract", "pipeline.run_extract", _extract_attrs),
    ("wavescat.pipeline", "run_train", "pipeline.run_train", None),
    ("wavescat.pipeline", "run_eval", "pipeline.run_eval", None),
)


class Tracer:
    """Span recorder.  Each thread keeps its own stack of open spans; a span
    opened on a worker thread with an empty stack takes the innermost open
    span of the main thread as its parent (run_extract's pool workers)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.frame = 0
        self.phase = ""
        self.capture = None          # list of (conv input, conv output, flops) or None
        self.captured_output = None  # (ScatterOutput, ScatterConfig) of the captured call
        self._ids = itertools.count(1)
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._saved: list = []

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if main else None
        sid = next(self._ids)
        stack.append(sid)
        return sid, parent, stack

    def call(self, name, fn, attrs, args, kwargs):
        sid, parent, stack = self._open()
        frame, phase = self.frame, self.phase
        start = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        extra = attrs(self, args, kwargs, out) if attrs is not None else None
        self.spans.append(Span(sid, name, start, end, parent, frame, phase, extra))
        return out

    @contextlib.contextmanager
    def span(self, name):
        """A span around a block of the harness's own code (for example one frame)."""
        sid, parent, stack = self._open()
        frame, phase = self.frame, self.phase
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(sid, name, start, end, parent, frame, phase, None))

    def wrap(self, fn, name, attrs):
        def wrapper(*args, **kwargs):
            return self.call(name, fn, attrs, args, kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attr, name, attrs in PATCHES:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            self._saved.append((module, attr, original))
            setattr(module, attr, self.wrap(original, name, attrs))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    @property
    def installed(self) -> bool:
        return bool(self._saved)


def children_of(spans) -> dict[int, list[Span]]:
    out: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            out.setdefault(s.parent, []).append(s)
    return out


def self_time(span: Span, children) -> float:
    """The span's duration minus the part of its interval that its child
    spans cover.  Overlapping children (pool workers) are counted once."""
    parts = sorted((max(c.start, span.start), min(c.end, span.end)) for c in children)
    covered, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in parts:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span.dur - covered


def selected_planes(output, selection) -> list:
    """The arrays of a ScatterOutput that feed the feature vector."""
    planes = {"S0": output.s0}
    planes.update({f"U{i + 1}": u for i, u in enumerate(output.u_levels)})
    planes.update({f"S{i + 1}": s for i, s in enumerate(output.s_levels)})
    return [planes[name] for name in selection]


def useful_conv_flops(convs, sinks) -> tuple[int, int]:
    """(FLOPs of the convolutions that feed a sink, FLOPs of all of them).

    convs holds (input, output, flops) in call order.  A convolution feeds an
    array when the array is its output or the modulus of its output, and it
    is useful when it feeds a sink or the input of a useful convolution.
    Producers run before their consumers, so one pass in reverse call order
    settles every convolution.
    """
    import numpy as np

    def feeds(out, arr):
        return arr is out or (arr.shape == out.shape and np.array_equal(arr, np.abs(out)))

    targets = list(sinks)
    useful = 0
    for inp, out, flops in reversed(convs):
        if any(feeds(out, t) for t in targets):
            useful += flops
            targets.append(inp)
    return useful, sum(c[2] for c in convs)
