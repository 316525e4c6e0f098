"""Per-layer timing of symwit from outside the package.

``install`` wraps every public function of each symwit module (plus a few
methods that carry serialization work) and rebinds the wrapper in every
symwit module that imported the original, so calls between modules are
attributed to the callee's layer.  A layer's self time is its busy time minus
the time its wrapped calls spend inside wrapped calls of other layers.  Work
counts are read from returned objects.  Nothing is wrapped unless
``install`` is called, so untraced runs execute the package unmodified.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("linalg", "symmetric", "compiler", "witnesses", "optimize", "counts", "cli")

# (layer, class, method) -> metric name of the method
METHODS = {
    ("compiler", "Schedule", "from_json"): "schedule_from_json",
    ("counts", "CountsDataset", "to_ndjson"): "to_ndjson",
    ("counts", "CountsDataset", "from_ndjson"): "from_ndjson",
}

# wrapped function -> (counter, how to read the count from its result)
COUNTERS = {
    "optimize.max_ppt": ("optimize.newton_steps", lambda r: r.report.iterations),
    "optimize.optimize_witness": ("optimize.lp_rounds", lambda r: r[1].iterations),
    "compiler.symmetrized_product_to_powers": ("compiler.terms_raw", len),
    "compiler.compile_operator": ("compiler.terms_merged", lambda r: len(r.terms)),
    "counts.simulate_counts": ("counts.records", lambda r: len(r.records)),
}


class _Frame:
    __slots__ = ("layer", "covered")

    def __init__(self, layer: str) -> None:
        self.layer = layer
        self.covered = 0.0  # time inside wrapped calls of other layers


class Tracer:
    """Accumulates busy time, self time, calls and counts per layer and function."""

    def __init__(self) -> None:
        self._stack: list[_Frame] = []
        self._active: dict[str, int] = defaultdict(int)
        self.reset()

    def reset(self) -> None:
        self.busy = defaultdict(float)      # "layer" or "layer.func" -> seconds
        self.self_time = defaultdict(float)  # "layer" -> seconds
        self.calls = defaultdict(int)        # "layer.func", or "layer" from outside it -> calls
        self.counts = defaultdict(int)       # counter name -> total

    def wrap(self, layer: str, name: str, fn):
        key = f"{layer}.{name}"
        counter = COUNTERS.get(key)
        stack, active = self._stack, self._active

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = _Frame(layer)
            parent = stack[-1] if stack else None
            stack.append(frame)
            active[key] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                active[key] -= 1
                self._close(key, frame, parent, elapsed)
            if counter is not None:
                self.counts[counter[0]] += int(counter[1](result))
            return result

        return traced

    def _close(self, key: str, frame: _Frame, parent: _Frame | None, elapsed: float) -> None:
        self.calls[key] += 1
        if self._active[key] == 0:  # outermost call of this function
            self.busy[key] += elapsed
        if parent is None or parent.layer != frame.layer:
            self.calls[frame.layer] += 1
            self.busy[frame.layer] += elapsed
            self.self_time[frame.layer] += elapsed - frame.covered
            if parent is not None:
                parent.covered += elapsed
        else:
            parent.covered += frame.covered

    def snapshot(self) -> dict:
        """All figures as one flat mapping of metric name to value."""
        out: dict[str, float] = {}
        for key, value in self.busy.items():
            out[f"{key}.busy_s"] = value
        for layer, value in self.self_time.items():
            out[f"{layer}.self_s"] = value
        for key, value in self.calls.items():
            out[f"{key}.calls"] = value
        out.update(self.counts)
        return out


def install(package_name: str = "symwit") -> Tracer:
    """Wrap the public functions of every layer module and rebind them package-wide."""
    tracer = Tracer()
    package = importlib.import_module(package_name)
    modules = {layer: importlib.import_module(f"{package_name}.{layer}") for layer in LAYERS}
    wrapped = {}
    for layer, module in modules.items():
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            wrapped[obj] = tracer.wrap(layer, name, obj)
    for module in (package, *modules.values()):
        for name, obj in list(vars(module).items()):
            if inspect.isfunction(obj) and obj in wrapped:
                setattr(module, name, wrapped[obj])
    for (layer, cls_name, method), metric in METHODS.items():
        cls = getattr(modules[layer], cls_name)
        raw = cls.__dict__[method]
        if isinstance(raw, classmethod):
            setattr(cls, method, classmethod(tracer.wrap(layer, metric, raw.__func__)))
        else:
            setattr(cls, method, tracer.wrap(layer, metric, raw))
    return tracer
