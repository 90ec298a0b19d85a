"""Spans around the public functions of each mksurf layer, recorded from
the benchmark without editing the library.

`Tracer.install` wraps each function in TARGETS and rebinds every module
attribute under `mksurf` that refers to it, so a call from one layer into
another (say `mksurf.certify.search_integral`) goes through the wrapper and
nests as a child span. A span is (name, start, end, parent, request); a
function's self time is its span minus the time its child spans cover.
"""

import functools
import json
import sys
import time


def _positive(args, kwargs, result):
    return {"positive": 1 if result[0] else 0}


def _cells(args, kwargs, result):
    # search_integral scans 0 <= x1 <= x2 <= bound
    b = int(args[1] if len(args) > 1 else kwargs["bound"])
    return {"cells": (b + 1) * (b + 2) // 2}


def _classes(args, kwargs, result):
    return {"classes": len(result)}


def _reps(args, kwargs, result):
    return {"reps": len(result)}


def _hits(args, kwargs, result):
    return {"hits": 0 if result is None else 1}


# (module under mksurf, function, extra counters, whether calls are reported)
TARGETS = (
    ("quotients", "commutator_test_modq", _positive, True),
    ("quotients", "sl2_tuples", None, True),
    ("quotients", "trace_commutator_image", None, True),
    ("markoff", "search_integral", _cells, True),
    ("markoff", "search_localized", None, True),
    ("markoff", "class_data", _classes, True),
    ("markoff", "reduce_point", None, True),
    ("certify", "certify_hfz", None, False),
    ("certify", "certify_sint_failure", None, False),
    ("certify", "verify_hfe1", None, False),
    ("certify", "check_certificate", None, False),
    ("rings", "factorize", None, True),
    ("rings", "hilbert", None, True),
    ("quadforms", "hasse_profile", None, True),
    ("quadforms", "form_isotropic", None, True),
    ("words", "alg1_representatives", _reps, True),
    ("words", "factor_through_embedding", _hits, True),
    ("words", "psl2_class_reps", None, False),
    ("mat2", "commutator", None, True),
)

# extra counter -> (reported metric suffix, unit, better, divide by calls)
EXTRAS = {
    "positive": ("positive_frac", "frac", "higher", True),
    "cells": ("cells", "count", "lower", False),
    "classes": ("classes", "count", "higher", False),
    "reps": ("reps", "count", "higher", False),
    "hits": ("hit_frac", "frac", "higher", True),
}

# metrics of the whole traced run rather than one function
RUN_METRICS = (
    ("cli.import_s", "s", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
    ("trace.spans", "count", "lower"),
)


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    out = []
    for module, fn, extras, calls in TARGETS:
        base = "%s.%s" % (module, fn)
        if calls:
            out.append((base + ".calls", "count", "lower"))
        out.append((base + ".self_s", "s", "lower"))
        if extras is not None:
            key = extras.__name__.lstrip("_")
            suffix, unit, better, _ = EXTRAS[key]
            out.append((base + "." + suffix, unit, better))
    return out + list(RUN_METRICS)


class Tracer:
    def __init__(self):
        self.spans = []
        self.names = []
        self.stats = {}
        self.request = None
        self.recording = False
        self._stack = []
        self._saved = []
        self._wrappers = []

    def install(self):
        if not self._wrappers:
            for module, fn, extras, _ in TARGETS:
                orig = getattr(sys.modules["mksurf." + module], fn)
                self._wrappers.append((orig, self._wrap("%s.%s" % (module, fn), orig, extras)))
        modules = [m for n, m in list(sys.modules.items())
                   if n == "mksurf" or n.startswith("mksurf.")]
        for orig, wrapper in self._wrappers:
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is orig:
                        self._saved.append((mod, attr, orig))
                        setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, orig in reversed(self._saved):
            setattr(mod, attr, orig)
        self._saved = []

    def _wrap(self, name, fn, extras):
        tracer = self
        self.names.append(name)
        name_id = len(self.names) - 1
        stats = self.stats.setdefault(name, {"calls": 0, "self_s": 0.0})

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            parent = stack[-1][0] if stack else None
            tracer.spans.append(None)
            frame = [index, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if stack:
                    stack[-1][1] += end - start
                tracer.spans[index] = (name_id, start, end, parent, tracer.request)
                stats["calls"] += 1
                stats["self_s"] += (end - start) - frame[1]
            if extras is not None:
                for key, value in extras(args, kwargs, result).items():
                    stats[key] = stats.get(key, 0) + value
            return result

        return wrapper

    def metrics(self):
        out = {}
        for module, fn, extras, calls in TARGETS:
            base = "%s.%s" % (module, fn)
            st = self.stats.get(base, {"calls": 0, "self_s": 0.0})
            if calls:
                out[base + ".calls"] = st["calls"]
            out[base + ".self_s"] = st["self_s"]
            if extras is not None:
                key = extras.__name__.lstrip("_")
                suffix, _, _, ratio = EXTRAS[key]
                value = st.get(key, 0)
                if ratio:
                    value = value / st["calls"] if st["calls"] else 0.0
                out[base + "." + suffix] = value
        return out

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "request"],
                       "names": self.names, "spans": self.spans}, fh)
