"""Per-layer tracing of the physec package from outside it.

`Tracer` wraps every public callable of each layer module: each name in the
module's `__all__` (or, for a module without one, each public function and
class it defines).  A function is replaced at every binding in the package,
so calls through `from .gmm import as_feature_matrix` in `mse` or through the
package namespace are traced like calls through `gmm` itself.  A class is
traced by wrapping its own `__init__` (or `__new__`, for tuple types) in
place, which every binding shares.  Enum classes are left alone: calling one
looks up an existing member and does no layer work.

Each call is a span.  A layer's self time is the time its spans ran minus the
time their child spans ran, so nested calls are counted once, by the layer
that did the work.  Time spent inside a generator that a traced call returns
is charged to the span that iterates it.  A few layers also get counters that
are read from the arguments and results of named calls (rows scored, EM
iterations, refits, accepted messages, trace bytes and records).
"""

from __future__ import annotations

import enum
import functools
import inspect
import os
import sys
import time

LAYERS = ("channel", "features", "gmm", "mse", "evaluation", "trace_io", "cli")

# Marker attribute set on every wrapper, holding its "layer.name" key.
TRACED_ATTR = "__bench_traced__"


def public_callables(module) -> list:
    """(name, object) for each public callable of a layer module."""
    names = getattr(module, "__all__", None)
    if names is None:
        names = [
            name
            for name, value in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(value) or inspect.isclass(value))
            and value.__module__ == module.__name__
        ]
    found = []
    for name in names:
        value = getattr(module, name)
        if inspect.isfunction(value):
            found.append((name, value))
        elif inspect.isclass(value) and not issubclass(value, enum.Enum):
            found.append((name, value))
    return found


def constructor_slot(cls):
    """Name of the class's own constructor method to wrap, or None."""
    for slot in ("__init__", "__new__"):
        if slot in vars(cls):
            return slot
    return None


class Tracer:
    """Install with `with Tracer("physec"):`; read `layer_metrics()` afterwards."""

    def __init__(self, package: str, layers=LAYERS, clock=time.perf_counter):
        self.package = package
        self.layers = tuple(layers)
        self.clock = clock
        # key -> [calls, total seconds, self seconds]
        self.calls: dict[str, list] = {}
        self._stack: list[list] = []
        self._depth: dict[str, int] = {}
        self._undo: list = []
        self.counters = {
            "score_s": 0.0,
            "score_calls": 0,
            "rows_scored": 0,
            "fit_s": 0.0,
            "em_iterations": 0,
            "update_attempts": 0,
            "refits": 0,
            "mse_classified": 0,
            "mse_accepted": 0,
            "write_s": 0.0,
            "read_s": 0.0,
            "bytes_written": 0,
            "records_read": 0,
        }

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def _package_modules(self) -> list:
        prefix = self.package + "."
        return [
            mod
            for name, mod in list(sys.modules.items())
            if mod is not None and (name == self.package or name.startswith(prefix))
        ]

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer is already installed")
        try:
            self._install()
        except BaseException:
            self.uninstall()
            raise

    def _install(self) -> None:
        replacements = {}  # id(original function) -> wrapper
        for layer in self.layers:
            module = sys.modules[f"{self.package}.{layer}"]
            for name, value in public_callables(module):
                if inspect.isclass(value):
                    self._wrap_class(layer, name, value)
                elif id(value) not in replacements:
                    replacements[id(value)] = self._wrap(value, self._layer_of(value, layer), name)
        for module in self._package_modules():
            namespace = vars(module)
            for name, value in list(namespace.items()):
                wrapper = replacements.get(id(value))
                if wrapper is not None:
                    namespace[name] = wrapper
                    self._undo.append((namespace.__setitem__, name, value))

    def _wrap_class(self, layer: str, name: str, cls) -> None:
        slot = constructor_slot(cls)
        if slot is None or traced_key(cls) is not None:
            return
        original = vars(cls)[slot]
        layer = self._layer_of(cls, layer)
        if isinstance(original, staticmethod):
            wrapper = staticmethod(self._wrap(original.__func__, layer, name))
        else:
            wrapper = self._wrap(original, layer, name)
        setattr(cls, slot, wrapper)
        self._undo.append((functools.partial(setattr, cls), slot, original))

    def _layer_of(self, obj, listed_in: str) -> str:
        """Layer that defines `obj`; re-exports count for their home module."""
        home = getattr(obj, "__module__", "") or ""
        layer = home[len(self.package) + 1:] if home.startswith(self.package + ".") else ""
        return layer if layer in self.layers else listed_in

    def uninstall(self) -> None:
        while self._undo:
            restore, name, original = self._undo.pop()
            restore(name, original)

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, layer: str, name: str):
        key = f"{layer}.{name}"
        stats = self.calls.setdefault(key, [0, 0.0, 0.0])
        group, observer = self._observer(layer, name)
        stack = self._stack
        depth = self._depth
        if group is not None:
            depth.setdefault(group, 0)
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            children = [0.0]
            stack.append(children)
            if group is not None:
                depth[group] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if group is not None:
                    depth[group] -= 1
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - children[0]
                if stack:
                    stack[-1][0] += elapsed
            if observer is not None and depth[group] == 0:
                observer(args, result, elapsed)
            return result

        setattr(traced, TRACED_ATTR, key)
        return traced

    def _observer(self, layer: str, name: str):
        """(group, callback) for calls that feed a counter; callbacks see only
        the outermost call of their group."""
        c = self.counters
        if layer == "gmm" and name.startswith("log_likelihood"):
            def scored(args, result, elapsed):
                c["score_s"] += elapsed
                c["score_calls"] += 1
                c["rows_scored"] += _row_count(args[1] if len(args) > 1 else None)
            return "gmm.score", scored
        if layer == "gmm" and name == "fit":
            def fitted(args, result, elapsed):
                c["fit_s"] += elapsed
                c["em_iterations"] += len(getattr(result, "em_log_likelihoods", ()))
            return "gmm.fit", fitted
        if layer == "gmm" and name == "update_block":
            def updated(args, result, elapsed):
                c["update_attempts"] += 1
                c["refits"] += result is not args[0]
            return "gmm.update", updated
        if layer == "mse" and name.startswith("classify"):
            def classified(args, result, elapsed):
                c["mse_classified"] += 1
                # "bob" is the value of Hypothesis.H0_BOB, the accepting decision
                c["mse_accepted"] += getattr(result.hypothesis, "value", None) == "bob"
            return "mse.classify", classified
        if layer == "trace_io" and name.startswith("write"):
            def wrote(args, result, elapsed):
                c["write_s"] += elapsed
                dest = args[1] if len(args) > 1 else None
                if isinstance(dest, (str, os.PathLike)):
                    c["bytes_written"] += os.path.getsize(dest)
            return "trace_io.write", wrote
        if layer == "trace_io" and name.startswith("read"):
            def read(args, result, elapsed):
                c["read_s"] += elapsed
                c["records_read"] += len(getattr(result, "records", ()))
            return "trace_io.read", read
        return None, None

    # -- results ----------------------------------------------------------------

    def layer_totals(self) -> dict:
        """layer -> (calls, self seconds)."""
        totals = {layer: [0, 0.0] for layer in self.layers}
        for key, (calls, _total, self_s) in self.calls.items():
            layer = key.split(".", 1)[0]
            totals[layer][0] += calls
            totals[layer][1] += self_s
        return totals

    def layer_metrics(self) -> dict:
        """The benchmark's per-layer metrics, name -> (value, unit)."""
        t = self.layer_totals()
        c = self.counters
        return {
            "channel.self_s": (t["channel"][1], "s"),
            "channel.calls": (t["channel"][0], "count"),
            "features.self_s": (t["features"][1], "s"),
            "features.calls": (t["features"][0], "count"),
            "gmm.score_s": (c["score_s"], "s"),
            "gmm.score_calls": (c["score_calls"], "count"),
            "gmm.rows_scored": (c["rows_scored"], "count"),
            "gmm.fit_s": (c["fit_s"], "s"),
            "gmm.em_iterations": (c["em_iterations"], "count"),
            "gmm.refit_ratio": (_ratio(c["refits"], c["update_attempts"]), "ratio"),
            "mse.self_s": (t["mse"][1], "s"),
            "mse.calls": (t["mse"][0], "count"),
            "mse.accept_ratio": (_ratio(c["mse_accepted"], c["mse_classified"]), "ratio"),
            "trace_io.write_s": (c["write_s"], "s"),
            "trace_io.read_s": (c["read_s"], "s"),
            "trace_io.bytes_written": (c["bytes_written"], "bytes"),
            "trace_io.records_read": (c["records_read"], "count"),
            "evaluation.self_s": (t["evaluation"][1], "s"),
            "cli.self_s": (t["cli"][1], "s"),
        }


def traced_key(obj):
    """The "layer.name" key of a traced function or class, else None."""
    if inspect.isclass(obj):
        slot = constructor_slot(obj)
        if slot is None:
            return None
        obj = vars(obj)[slot]
        obj = getattr(obj, "__func__", obj)
    return getattr(obj, TRACED_ATTR, None)


def _row_count(features) -> int:
    shape = getattr(features, "shape", None)
    if shape is not None:
        return int(shape[0]) if len(shape) > 1 else 1
    values = getattr(features, "values", None)  # a single feature vector
    if values is not None:
        return 1
    try:
        return len(features)
    except TypeError:
        return 0


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0
