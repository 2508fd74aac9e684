"""Span recorder that wraps the library's public entry points from outside.

`install()` replaces every public function of the six layer modules (and
`DiagonalResummer.resum`) with a wrapper that records one span per call:
name, layer, start, end, the index of the enclosing span, and the op the
benchmark was running.  The wrapper is bound under every name that held
the original function in any `brightghz` module, so calls made through a
name imported elsewhere (``nonclassicality.build_bghz``) are traced too.
The library's sources are not touched.

A few entry points also record what they decided: the Pade order used and
whether the ladder met the strict tolerance, the photon cutoff chosen, and
the number of function evaluations one bisection made.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("series_core", "pade", "state", "stokes", "nonclassicality", "cli")


@dataclass
class Span:
    name: str
    layer: str
    start: float
    parent: int | None
    op: int | None
    end: float = 0.0
    info: dict = field(default_factory=dict)


class Recorder:
    """Keeps every span in memory; `op` tags spans with the running op."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None

    def wrap(self, layer: str, name: str, fn, after=None, before=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            span = Span(name, layer, 0.0, parent, self.op)
            if before is not None:
                args, kwargs = before(span, args, kwargs)
            index = len(spans)
            spans.append(span)
            stack.append(index)
            span.start = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.monotonic()
                stack.pop()
            if after is not None:
                after(span, result)
            return result

        return traced

    def dump(self) -> list[dict]:
        return [
            {
                "id": i,
                "name": s.name,
                "layer": s.layer,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "op": s.op,
                **s.info,
            }
            for i, s in enumerate(self.spans)
        ]


def _after_resum(span: Span, result) -> None:
    span.info["order_used"] = result.order_used
    span.info["converged"] = bool(result.converged)


def _after_distribution(span: Span, result) -> None:
    span.info["cutoff"] = result.cutoff


def _before_crossing(span: Span, args, kwargs):
    span.info["evals"] = 0

    def counted(fn):
        @functools.wraps(fn)
        def inner(x):
            span.info["evals"] += 1
            return fn(x)

        return inner

    if args:
        args = (counted(args[0]),) + tuple(args[1:])
    else:
        kwargs = dict(kwargs, fn=counted(kwargs["fn"]))
    return args, kwargs


_AFTER = {
    "pade.resum": _after_resum,
    "state.photon_distribution": _after_distribution,
}
_BEFORE = {"nonclassicality.find_crossing": _before_crossing}


def _entry_points(module) -> list[str]:
    """Public functions of a layer; the CLI module has no __all__, only main."""
    names = getattr(module, "__all__", ["main"])
    return [
        n for n in names if callable(getattr(module, n)) and not isinstance(getattr(module, n), type)
    ]


def install(recorder: Recorder) -> None:
    """Wrap every layer's public functions, in every module that binds them."""
    modules = {layer: importlib.import_module(f"brightghz.{layer}") for layer in LAYERS}
    bound = [m for name, m in sys.modules.items() if name.split(".")[0] == "brightghz"]
    for layer, module in modules.items():
        for name in _entry_points(module):
            original = getattr(module, name)
            key = f"{layer}.{name}"
            wrapper = recorder.wrap(layer, key, original, _AFTER.get(key), _BEFORE.get(key))
            for other in bound:
                for attr, value in list(vars(other).items()):
                    if value is original:
                        setattr(other, attr, wrapper)
    resummer = modules["pade"].DiagonalResummer
    resummer.resum = recorder.wrap("pade", "pade.resum", resummer.resum, _after_resum)


def summarize(recorder: Recorder, clock, timed_start: float, timed_end: float) -> dict:
    """Per-layer metrics over the timed phase, plus set-up self time per layer.

    Times are in reference seconds of `clock` (see refclock.py); a span's
    self time is its duration less its child spans' durations.  Cache
    sizes are read from the module dicts at the end of the run.
    """
    spans = recorder.spans
    duration = [clock.seconds(s.start, s.end) for s in spans]
    own = list(duration)
    for i, s in enumerate(spans):
        if s.parent is not None:
            own[s.parent] -= duration[i]
    timed = [i for i, s in enumerate(spans) if s.start >= timed_start]
    setup = [i for i, s in enumerate(spans) if s.start < timed_start]
    timed_s = clock.seconds(timed_start, timed_end)

    def of(name):
        return [spans[i] for i in timed if spans[i].name == name]

    def calls(name):
        return len(of(name))

    def self_s(name):
        return sum(own[i] for i in timed if spans[i].name == name)

    resums = of("pade.resum")
    resum_ms = [1e3 * duration[i] for i in timed if spans[i].name == "pade.resum"]
    dists = of("state.photon_distribution")
    crossings = of("nonclassicality.find_crossing")
    state_mod, stokes_mod, nc_mod = (
        sys.modules[f"brightghz.{name}"] for name in ("state", "stokes", "nonclassicality")
    )
    blocks = stokes_mod._SHELL_BLOCKS
    cap = state_mod.CUTOFF_CAP

    metrics = {
        "series_core.c_series.calls": (calls("series_core.c_series"), "count"),
        "series_core.c_series.self_s": (self_s("series_core.c_series"), "s"),
        "pade.resum.calls": (len(resums), "count"),
        "pade.resum.self_s": (self_s("pade.resum"), "s"),
        "pade.resum.p50_ms": (statistics.median(resum_ms) if resum_ms else 0.0, "ms"),
        "pade.resum.order_mean": (
            statistics.fmean(s.info["order_used"] for s in resums) if resums else 0.0,
            "order",
        ),
        "pade.resum.strict_ratio": (
            sum(s.info["converged"] for s in resums) / len(resums) if resums else 0.0,
            "ratio",
        ),
        "state.build_bghz.calls": (calls("state.build_bghz"), "count"),
        "state.build_bghz.self_s": (self_s("state.build_bghz"), "s"),
        "state.photon_distribution.calls": (len(dists), "count"),
        "state.photon_distribution.self_s": (self_s("state.photon_distribution"), "s"),
        "state.cutoff_mean": (
            statistics.fmean(s.info["cutoff"] for s in dists) if dists else 0.0,
            "photons",
        ),
        "state.cutoff_cap_hits": (sum(s.info["cutoff"] >= cap for s in dists), "count"),
        "state.values_cached": (len(state_mod._VALUES), "count"),
        "stokes.stokes_expectation.calls": (calls("stokes.stokes_expectation"), "count"),
        "stokes.stokes_expectation.self_s": (self_s("stokes.stokes_expectation"), "s"),
        "stokes.tensor_t.self_s": (self_s("stokes.tensor_t"), "s"),
        "stokes.blocks_cached": (len(blocks), "count"),
        "stokes.max_shell": (max((k for _, k in blocks), default=0), "photons"),
        "nonclassicality.lossy_mermin_lhs.calls": (
            calls("nonclassicality.lossy_mermin_lhs"),
            "count",
        ),
        "nonclassicality.lossy_mermin_lhs.self_s": (
            self_s("nonclassicality.lossy_mermin_lhs"),
            "s",
        ),
        "nonclassicality.find_crossing.calls": (len(crossings), "count"),
        "nonclassicality.find_crossing.evals": (
            statistics.fmean(s.info["evals"] for s in crossings) if crossings else 0.0,
            "count",
        ),
        "nonclassicality.loss_tables_cached": (len(nc_mod._LOSS_TABLES), "count"),
        "cli.main.calls": (calls("cli.main"), "count"),
        "cli.main.self_s": (self_s("cli.main"), "s"),
    }
    layer_self = {
        layer: sum(own[i] for i in timed if spans[i].layer == layer) for layer in LAYERS
    }
    for layer in LAYERS:
        metrics[f"share.{layer}"] = (layer_self[layer] / timed_s, "ratio")
    metrics["share.unattributed"] = (1.0 - sum(layer_self.values()) / timed_s, "ratio")
    for layer in LAYERS:
        metrics[f"setup.{layer}.self_s"] = (
            sum(own[i] for i in setup if spans[i].layer == layer),
            "s",
        )
    return metrics
