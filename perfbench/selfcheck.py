"""Tiny-size self-check of the benchmark (about a minute).

    python3 perfbench/selfcheck.py

For each workload, on a cut-down round: an untraced and a traced run must
emit exactly the metric names and units BENCHMARK.json declares, with every
answer right; then a run with one library function made to answer wrongly
must count failures. BENCHMARK.json itself is checked against the limits
the benchmark contract sets.
"""

import argparse
import json
import os
import re
import sys

import env

env.use_checkout_source()
env.check_imported()

import run  # noqa: E402
import workloads  # noqa: E402
from mksurf import certify as C  # noqa: E402
from mksurf import markoff as M  # noqa: E402
from mksurf import quotients as Q  # noqa: E402
from mksurf import words as W  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def spec_errors(spec):
    errs = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        errs.append("top-level keys %r" % sorted(spec))
    for w in spec["workloads"]:
        if set(w) != {"name", "why"} or len(w["why"]) > 200 or "\n" in w["why"]:
            errs.append("workload %r" % w)
    if sorted(w["name"] for w in spec["workloads"]) != sorted(workloads.WORKLOADS):
        errs.append("workloads do not match workloads.py")
    names = []
    for m in spec["end_to_end"]:
        if set(m) != {"name", "unit", "better", "bound"} or not 0 < m["bound"] <= 0.25:
            errs.append("end_to_end %r" % m)
    for m in spec["per_layer"]:
        if set(m) != {"name", "unit", "better"}:
            errs.append("per_layer %r" % m)
    for m in spec["end_to_end"] + spec["per_layer"] + spec["workloads"]:
        names.append(m["name"])
        if not NAME.match(m["name"]) or ("unit" in m and not UNIT.match(m["unit"])):
            errs.append("name or unit of %r" % m)
        if "better" in m and m["better"] not in ("lower", "higher"):
            errs.append("better of %r" % m)
    if len(set(names)) != len(names):
        errs.append("a name is used twice")
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    if bounds.get("setup_s") != max(bounds.values()):
        errs.append("setup_s must carry the largest bound")
    if not isinstance(spec["run_seconds"], int) or not 1 <= spec["run_seconds"] <= 60:
        errs.append("run_seconds %r" % spec["run_seconds"])
    if not 1 <= len(spec["paths"]) <= 16 or any(
            not re.match(r"^[A-Za-z0-9_./-]{1,200}$", p) or p.startswith("/") or ".." in p
            for p in spec["paths"]):
        errs.append("paths %r" % spec["paths"])
    if len(spec["command"]) > 32 or any(len(a) > 200 for a in spec["command"]):
        errs.append("command %r" % spec["command"])
    return errs


TINY = {
    "oracle": lambda req: req[0] == "cli" or req[1] != 16,
    "classes": lambda req: req[0] == "cli" or abs(req[1]) < 10 ** 5,
    "words": lambda req: req[3] <= 8,
}


def tiny(wl):
    """Cut each round down to a few cheap requests."""
    full = wl.make_round
    keep = TINY.get(wl.name)
    if keep is None:
        wl.make_round = lambda r: full(r)[:4]
    else:
        wl.make_round = lambda r: [req for req in full(r) if keep(req)]
    return wl


def run_tiny(name, trace):
    args = argparse.Namespace(seed=1, seconds=0.1, trace=trace)
    measure = run.per_layer if trace else run.end_to_end
    loop, metrics = measure(args, tiny(workloads.WORKLOADS[name](1)), {})
    return loop, {k: unit for k, (_, unit) in metrics.items()}, metrics


# One library function per workload, patched to answer wrongly.
def _flip_commutator(orig):
    return lambda z, q, *a, **kw: (lambda r: (not r[0], r[1]))(orig(z, q, *a, **kw))


def _fail_replay(orig):
    return lambda d: (False, orig(d)[1])


def _stay_put(orig):
    return lambda point, *a, **kw: (point, [])


def _duplicate_first(orig):
    return lambda m, n, t: (lambda r: r + r[:1])(orig(m, n, t))


INJECT = {
    "oracle": (Q, "commutator_test_modq", _flip_commutator),
    "certify": (C, "check_certificate", _fail_replay),
    "classes": (M, "reduce_point", _stay_put),
    "words": (W, "alg1_representatives", _duplicate_first),
}


def main():
    with open(os.path.join(env.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = spec_errors(spec)
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            loop, units, metrics = run_tiny(name, trace)
            if units != declared[trace]:
                problems.append("%s trace=%d emits %r" % (name, trace, units))
            if loop.failed:
                problems.append("%s trace=%d failed: %r" % (name, trace, loop.reasons))
            if trace == 0 and any(v <= 0 for v, _ in metrics.values()):
                problems.append("%s: a zero end-to-end metric: %r" % (name, metrics))
        module, attr, make = INJECT[name]
        orig = getattr(module, attr)
        setattr(module, attr, make(orig))
        try:
            loop, _, metrics = run_tiny(name, 0)
        finally:
            setattr(module, attr, orig)
        if not loop.failed or metrics["ok_frac"][0] >= 1.0:
            problems.append("%s: injected wrong answer went unnoticed" % name)
        print("%-8s ok; injected wrong answers counted: %d of %d"
              % (name, loop.failed, len(loop.requests)), flush=True)
    for p in problems:
        print("FAIL", p)
    print("selfcheck", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
