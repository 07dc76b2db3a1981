"""Span and count tracing of dbarkit's layers, done from outside the package.

:meth:`Tracer.install` replaces each layer's public functions as the *other*
modules see them: the name bound in every other ``dbarkit`` module, plus the
methods that other modules reach through an instance (``MomentSequence``,
``BallMomentGrid``).  A call inside its own module is not a layer crossing
and stays unwrapped.  :meth:`Tracer.wrap_api` does the same for the
benchmark's own table of entry points.

Each wrapped call appends one span (name, start, end, parent) to flat arrays
kept in memory; counts are taken at the same boundaries.  An integrand handed
to ``quadrature`` is wrapped too, as a span of the layer that supplied it, so
quadrature's self time is its own machinery and not the caller's integrand.
A layer's self time is the length of its spans minus that of their children.
"""

import inspect
import json
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

LAYERS = ("cli", "spectrum", "weights", "special", "quadrature", "solver",
          "ball2d", "weights_nd")
# methods other modules call through an instance rather than a module name
CLASS_METHODS = {
    "weights": {"MomentSequence": ("__init__", "ensure", "log_moment", "moment",
                                   "log_ratio", "ratio", "log_convexity_defect")},
    "ball2d": {"BallMomentGrid": ("build", "log_moment")},
}
QUADRATURE_ENTRIES = ("adaptive_quad", "unbounded_radial_quad")
INTEGRAND = "integrand"

PER_LAYER = (
    ("special.calls", "count"), ("special.self_s", "s"),
    ("spectrum.eigenvalues", "count"), ("spectrum.self_s", "s"),
    ("cli.bytes_written", "B"), ("cli.self_s", "s"),
    ("weights.moments_extended", "count"), ("weights.self_s", "s"),
    ("weights.density_points", "count"),
    ("quadrature.integrals", "count"), ("quadrature.integrand_points", "count"),
    ("quadrature.points_per_integral", "points/integral"),
    ("quadrature.self_s", "s"),
    ("solver.calls", "count"), ("solver.log_ratio_calls_per_kernel", "calls/kernel"),
    ("solver.self_s", "s"),
    ("ball2d.calls", "count"), ("ball2d.self_s", "s"),
    ("weights_nd.weight_points", "count"), ("weights_nd.self_s", "s"),
)


def public_functions(module) -> dict:
    return {name: obj for name, obj in vars(module).items()
            if inspect.isfunction(obj) and obj.__module__ == module.__name__
            and not name.startswith("_")}


def _eigenvalues_delivered(name, args, kwargs, result) -> int:
    """Eigenvalues a spectrum call hands back: a table counts its rows, a
    partial sum its terms, a single eigenvalue one, a verdict none."""
    if name == "diagnostics":
        return int(result.lambdas.size)
    if name == "hs_partial_sum":
        return int(kwargs.get("N", args[1] if len(args) > 1 else 0)) + 1
    if name in ("eigenvalue", "gamma_ratio_difference"):
        return 1
    return 0


def _out_path(argv):
    argv = list(argv)
    return argv[argv.index("--out") + 1] if "--out" in argv else None


class Tracer:
    """Spans and counts of one traced round."""

    def __init__(self, modules: dict, tally):
        self.modules = modules          # short name -> dbarkit submodule
        self.tally = tally
        self.names: list = []
        self._ids: dict = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self.counts: dict = {}
        self.moment_sequences: list = []
        self._patches: list = []

    # -- spans ----------------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _count(self, key: str, n: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name: str, fn, on_call=None, on_return=None):
        """``fn`` recording a span called ``name`` per call."""
        nid = self._id(name)
        ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        stack = self._stack

        def traced(*args, **kwargs):
            if on_call is not None:
                args = on_call(args)
            i = len(starts)
            ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        return traced

    def _wrap_layer_function(self, layer: str, name: str, fn, caller: str):
        on_call = on_return = None
        if layer == "quadrature" and name in QUADRATURE_ENTRIES:
            integrand = f"{caller}.{INTEGRAND}"

            def count_points(args):
                self._count("quadrature.integrand_points", np.size(args[0]))
                return args

            def on_call(args):
                return (self.wrap(integrand, args[0], on_call=count_points),) + args[1:]
        elif layer == "spectrum":
            def on_return(args, kwargs, result):
                self._count("spectrum.eigenvalues",
                            _eigenvalues_delivered(name, args, kwargs, result))
        elif layer == "cli" and name == "main":
            def on_return(args, kwargs, result):
                out = _out_path(args[0] if args else kwargs.get("argv", ()))
                if out is not None:
                    self._count("cli.bytes_written", Path(out).stat().st_size)
        return self.wrap(f"{layer}.{name}", fn, on_call, on_return)

    # -- installing -------------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        origin = {}
        for layer in LAYERS:
            for name, fn in public_functions(self.modules[layer]).items():
                origin[id(fn)] = (layer, name)
        for caller, module in self.modules.items():
            for attr, obj in list(vars(module).items()):
                key = origin.get(id(obj))
                if key is not None and key[0] != caller:
                    self._patch(module, attr,
                                self._wrap_layer_function(*key, obj, caller))
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(self.modules[layer], cls_name)
                for meth in methods:
                    raw = cls.__dict__[meth]
                    on_return = None
                    if meth == "__init__":
                        def on_return(args, kwargs, result):
                            self.moment_sequences.append(args[0])
                    name = f"{layer}.{cls_name}.{meth}"
                    if isinstance(raw, classmethod):
                        wrapped = classmethod(self.wrap(name, raw.__func__))
                    else:
                        wrapped = self.wrap(name, raw, on_return=on_return)
                    self._patch(cls, meth, wrapped)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_api(self, api):
        """Copy of the benchmark's entry-point table with the layer
        functions wrapped as called from the benchmark."""
        table = dict(vars(api))
        for attr, obj in table.items():
            if inspect.isfunction(obj) and obj.__module__.startswith("dbarkit."):
                layer = obj.__module__.split(".", 1)[1]
                if layer in LAYERS:
                    table[attr] = self._wrap_layer_function(
                        layer, obj.__name__, obj, "bench")
        return type(api)(**table)

    # -- results ----------------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32),
                "parent": np.frombuffer(self.parent, dtype=np.int32),
                "start": np.frombuffer(self.start, dtype=np.float64),
                "end": np.frombuffer(self.end, dtype=np.float64)}

    def metrics(self) -> dict:
        """The per-layer metrics of the traced round."""
        a = self.arrays()
        nid, par = a["name_id"], a["parent"]
        dur = a["end"] - a["start"]
        has_parent = par >= 0
        own = dur - np.bincount(par[has_parent], weights=dur[has_parent],
                                minlength=dur.size)
        layer_of_name = np.array(
            [LAYERS.index(n.split(".")[0]) if n.split(".")[0] in LAYERS
             else len(LAYERS) for n in self.names] or [len(LAYERS)])
        is_call = np.array([not n.endswith("." + INTEGRAND)
                            for n in self.names] or [True])
        span_layer = layer_of_name[nid]
        self_s = np.bincount(span_layer, weights=own, minlength=len(LAYERS) + 1)
        calls = np.bincount(span_layer[is_call[nid]], minlength=len(LAYERS) + 1)

        def n_spans(name):
            return int(np.sum(nid == self._ids[name])) if name in self._ids else 0

        kernel = self._ids.get("solver.kernel_eval", -1)
        log_ratio = self._ids.get("weights.MomentSequence.log_ratio", -1)
        ratio_in_kernel = int(np.sum((nid == log_ratio) & has_parent
                                     & (nid[np.maximum(par, 0)] == kernel)))
        n_kernel = n_spans("solver.kernel_eval")
        counts = dict(self.counts)
        counts.update(self.tally.counts)
        integrals = int(calls[LAYERS.index("quadrature")])
        points = counts.get("quadrature.integrand_points", 0)
        values = {
            "special.calls": int(calls[LAYERS.index("special")]),
            "spectrum.eigenvalues": counts.get("spectrum.eigenvalues", 0),
            "cli.bytes_written": counts.get("cli.bytes_written", 0),
            "weights.moments_extended": sum(ms.computed_upto + 1
                                            for ms in self.moment_sequences),
            "weights.density_points": counts.get("weights.density_points", 0),
            "quadrature.integrals": integrals,
            "quadrature.integrand_points": points,
            "quadrature.points_per_integral": points / integrals if integrals else 0.0,
            "solver.calls": int(calls[LAYERS.index("solver")]),
            "solver.log_ratio_calls_per_kernel":
                ratio_in_kernel / n_kernel if n_kernel else 0.0,
            "ball2d.calls": int(calls[LAYERS.index("ball2d")]),
            "weights_nd.weight_points": counts.get("weights_nd.weight_points", 0),
        }
        for i, layer in enumerate(LAYERS):
            if f"{layer}.self_s" in dict(PER_LAYER):
                values[f"{layer}.self_s"] = float(self_s[i])
        return values

    def save(self, path: Path, rounds: list) -> None:
        """Write this round's spans and every traced round's metrics."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(path, **self.arrays(),
                            counts=json.dumps({**self.counts, **self.tally.counts}),
                            round_metrics=json.dumps(rounds))
