"""In-memory spans around the public functions of each acylsoliton module.

A Tracer replaces each traced function in its defining module and in every
acylsoliton module that imported it by name (for example `cli` and
`continuity`), so that nested calls nest.  Each span records its name, key,
start, end, parent and iteration id; spans stay in memory until the run
ends.  A layer's self time is its span's duration minus the durations of
its child spans.
"""

import importlib
import sys
import time
from collections import defaultdict

from acylsoliton.errors import ContinuityStalled


def h_label(h):
    """Grid spacing as a metric-name suffix: 0.001 -> 'h1e-3'."""
    mantissa, exponent = f"{h:.0e}".split("e")
    return f"h{mantissa}e{int(exponent)}"


class Tracer:
    def __init__(self):
        self.spans = []        # [id, iteration, name, key, start, end, parent]
        self.stack = []        # open span ids
        self.counts = defaultdict(int)
        self.iteration = 0
        self._patched = []     # (owner, attribute, original) for uninstall

    # ---- spans ----

    def open(self, name, key=""):
        span_id = len(self.spans)
        parent = self.stack[-1] if self.stack else None
        self.spans.append([span_id, self.iteration, name, key, time.perf_counter(), None, parent])
        self.stack.append(span_id)
        return span_id

    def close(self, span_id):
        self.spans[span_id][5] = time.perf_counter()
        self.stack.pop()

    def parent_name(self):
        return self.spans[self.stack[-2]][2] if len(self.stack) > 1 else None

    def records(self):
        """Spans as dicts with their self time, for the spans file."""
        child_time = defaultdict(float)
        for _, _, _, _, start, end, parent in self.spans:
            if parent is not None:
                child_time[parent] += end - start
        return [
            {"id": i, "iteration": it, "name": name, "key": key, "start": start,
             "end": end, "parent": parent, "self_s": (end - start) - child_time[i]}
            for i, it, name, key, start, end, parent in self.spans
        ]

    def self_times(self):
        """(name, key) -> summed self time over all spans."""
        totals = defaultdict(float)
        for span in self.records():
            totals[(span["name"], span["key"])] += span["self_s"]
        return totals

    # ---- wrapping ----

    def wrap(self, fn, name, key_of=None, count=None):
        """Wrap fn in a span; key_of(args, kwargs) names a sub-key, and
        count(result, exc, args, kwargs) updates self.counts."""
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer.open(name, key_of(args, kwargs) if key_of else "")
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if count:
                    count(None, exc, args, kwargs)
                raise
            else:
                if count:
                    count(result, None, args, kwargs)
                return result
            finally:
                tracer.close(span_id)

        traced.__wrapped__ = fn
        return traced

    def patch_function(self, module, attribute, name, key_of=None, count=None):
        original = getattr(module, attribute)
        wrapper = self.wrap(original, name, key_of, count)
        for mod_name, mod in list(sys.modules.items()):
            in_package = mod_name == "acylsoliton" or mod_name.startswith("acylsoliton.")
            if mod is None or not in_package:
                continue
            if getattr(mod, attribute, None) is original:
                self._patched.append((mod, attribute, original))
                setattr(mod, attribute, wrapper)

    def patch_method(self, cls, attribute, name, count=None):
        raw = cls.__dict__[attribute]
        if isinstance(raw, classmethod):
            replacement = classmethod(self.wrap(raw.__func__, name, count=count))
        else:
            replacement = self.wrap(raw, name, count=count)
        self._patched.append((cls, attribute, raw))
        setattr(cls, attribute, replacement)

    def uninstall(self):
        for owner, attribute, original in reversed(self._patched):
            setattr(owner, attribute, original)
        self._patched.clear()


def install(tracer):
    """Wrap the public functions whose per-layer metrics the benchmark reports."""
    # by module object: the package rebinds the name `spectrum` to the function
    (continuity, diagnostics, drift, gluing, grids, models, norms, spectrum, weights) = (
        importlib.import_module(f"acylsoliton.{name}")
        for name in ("continuity", "diagnostics", "drift", "gluing", "grids", "models",
                     "norms", "spectrum", "weights")
    )

    counts = tracer.counts

    def count_rows(result, exc, args, kwargs):
        if exc is None:
            grid_fn = result if result is not None else args[0]
            counts["grids.csv_rows"] += int(grid_fn.values.size)

    def count_modes(result, exc, args, kwargs):
        # an invariant spectrum without a quotient delegates to spectrum():
        # count the outermost call only
        if exc is None and tracer.parent_name() not in ("spectrum.spectrum",
                                                        "spectrum.invariant_spectrum"):
            counts["spectrum.modes"] += sum(mult for _, mult in result)
            counts["spectrum.distinct_mu"] += len(result)

    def count_weights(result, exc, args, kwargs):
        if exc is None:
            counts["weights.count"] += len(result.weights)

    def count_solves(result, exc, args, kwargs):
        counts["drift.solves"] += 1

    def solve_key(args, kwargs):
        model, forcing = args[0], args[1]
        return f"{model.kind.value}.{h_label(forcing.h)}"

    def count_continuity(result, exc, args, kwargs):
        key = solve_key(args, kwargs)
        if exc is None:
            records = result.records
        else:
            counts[f"continuity.failed.{key}"] += 1
            records = exc.records if isinstance(exc, ContinuityStalled) else []
        counts[f"continuity.newton_iterations.{key}"] += sum(r.newton_iterations for r in records)
        counts[f"continuity.s_steps.{key}"] += len(records)

    def grid_key(args, kwargs):
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        return h_label(grid[2])

    tracer.patch_method(grids.GridFunction, "to_csv", "grids.to_csv", count=count_rows)
    tracer.patch_method(grids.GridFunction, "from_csv", "grids.from_csv", count=count_rows)
    tracer.patch_function(models, "soliton_residual", "models.soliton_residual")
    tracer.patch_function(spectrum, "spectrum", "spectrum.spectrum", count=count_modes)
    tracer.patch_function(spectrum, "invariant_spectrum", "spectrum.invariant_spectrum",
                          count=count_modes)
    tracer.patch_function(spectrum, "spectrum_to_csv", "spectrum.spectrum_to_csv")
    tracer.patch_function(weights, "critical_weights", "weights.critical_weights",
                          count=count_weights)
    tracer.patch_function(weights, "fredholm_window_check", "weights.fredholm_window_check")
    tracer.patch_function(drift, "solve_mode", "drift.solve_mode", count=count_solves)
    tracer.patch_function(continuity, "continuity_solve", "continuity.continuity_solve",
                          key_of=solve_key, count=count_continuity)
    tracer.patch_function(continuity, "uniqueness_check", "continuity.uniqueness_check")
    tracer.patch_function(continuity, "ma_residual_radial", "continuity.ma_residual_radial")
    tracer.patch_function(gluing, "glued_model", "gluing.glued_model")
    tracer.patch_function(gluing, "auto_rho", "gluing.auto_rho")
    tracer.patch_function(gluing, "potential_of", "gluing.potential_of")
    tracer.patch_function(gluing, "glued_forcing", "gluing.glued_forcing")
    tracer.patch_function(diagnostics, "poincare_rayleigh", "diagnostics.poincare_rayleigh",
                          key_of=grid_key)
    tracer.patch_function(diagnostics, "verify_solution", "diagnostics.verify_solution")
    tracer.patch_function(norms, "decay_rate_fit", "norms.decay_rate_fit")
