"""mksurf benchmark: one closed-loop client per workload.

    python3 perfbench/run.py --workload {oracle,certify,classes,words} \\
        --seed N --seconds S --trace {0,1}

Runs the mksurf source of the checkout it sits in (`src/`). The client
sends the next request only when the previous answer is back; there are no
threads or pools. Inputs come from the seeded generator in workloads.py,
every answer is checked outside the timed region against reference.py, and
the last line of standard output is one JSON object

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

The line before it is a JSON object {"details": ...} with the environment,
the traffic the run sent, sample counts, the tail percentile, the
calibration and the unscaled times; the same record is written to
perfbench/out/.

Every time is scaled to a reference machine speed (speed.py): the shared
host this runs on changes speed by up to a factor of two, and the scaling
takes most of that out while keeping every change of mksurf. Request and
replay times are scaled by a calibration loop timed right before and
after every request and in bursts through the run, traced self times by
the run's mean calibration, and the set-up and CLI start-up probes
(setup_s, cli_cold_s, cli.import_s), which run in child processes, by a
fresh interpreter importing numpy timed right before and after each.

--trace 0 reports the end-to-end metrics of an untraced run:
  setup_s          median over fresh interpreters of `import mksurf` plus
                   the workload's warm-up calls (setup_probe.py)
  latency_p50_s    median request latency
  latency_tail_s   the highest percentile with at least 10 samples beyond
                   it (the 11th largest latency); percentile and sample count
                   are in the details
  throughput_rps   requests completed per second of request time
  ok_frac          share of attempted requests that returned and were right
                   (1 - failed_frac; failed_frac itself is 0 when all is
                   well, and the top-level `failed` count carries it)
  peak_rss_mb      peak resident memory of this process
  replay_p50_s     median time to replay an answer the way a user checks it:
                   check_certificate (certify), mat2.commutator on the
                   witness (oracle), apply_path on the descent path
                   (classes), word_trace of every representative (words)
  cli_cold_s       median wall time of a fresh `python -m mksurf.cli`
                   subprocess for the workload's command, over
                   PROBE_STATIONS dedicated runs (the CLI requests of
                   classes count as latency samples only)
The loop runs the number of whole rounds (workloads.py) that takes about
--seconds on the reference machine, after the workload's warm-up calls.

--trace 1 reports per-layer metrics (tracing.py) from a traced run of the
rounds that take about --seconds / 2, so its counts repeat exactly for a
seed. Each request also runs untraced right before or after its traced run;
trace.overhead_frac compares the two. Spans are written to perfbench/out/.

The `lifting` layer has no workload: each of its calls is O(1) and none
lies on a user's hot path.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import env
from speed import REFERENCE_S, START_PROBE, START_REFERENCE_S, Speed

# each station runs a set-up probe and a CLI probe
PROBE_STATIONS = 5
CLI_IMPORT_PROBES = 5
# a replay takes microseconds; each is timed this many times and the median kept
REPLAY_REPEAT = 5
TAIL_BEYOND = 10
PROBE_TIMEOUT_S = 60
MAX_REASONS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description="mksurf benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("oracle", "certify", "classes", "words"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _child(args):
    out = subprocess.run([sys.executable] + args, cwd=env.ROOT, env=env.child_env(),
                         capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError("probe %r failed: %s" % (args, out.stderr.strip()[-500:]))
    return out.stdout


def _probe(args):
    return float(_child(args).strip().splitlines()[-1])


def start_wall():
    t0 = time.perf_counter()
    _child(START_PROBE)
    return time.perf_counter() - t0


def bracketed(measures):
    """Run child-process probes one after another, with a fresh interpreter
    timed before, between and after them (speed.py). Each measure() returns
    the raw seconds of its probe, or None; the result is a (scaled, raw)
    pair, or None, for each."""
    walls = [start_wall()]
    raws = []
    for measure in measures:
        raws.append(measure())
        walls.append(start_wall())
    return [None if raw is None else
            (raw * START_REFERENCE_S * 2 / (walls[i] + walls[i + 1]), raw)
            for i, raw in enumerate(raws)]


def setup_probe(name):
    return _probe([os.path.join(env.HERE, "setup_probe.py"), name])


def cli_probe(loop):
    """Run the workload's CLI command through the loop (checked, not a
    latency sample): the wall time of its subprocess, or None if it did
    not run to the end."""
    samples = loop.wl.cli_samples
    done = len(samples)
    loop.one(loop.wl.cli_request(), sample=False)
    return samples[-1][1] - samples[-1][0] if len(samples) > done else None


def cli_import_samples():
    code = ("import time, sys; t = time.perf_counter(); import mksurf.cli; "
            "print(repr(time.perf_counter() - t))")
    return bracketed([lambda: _probe(["-c", code])] * CLI_IMPORT_PROBES)


class Loop:
    """The closed loop: run a request, time it, replay and check the answer.
    Times are kept as (start, end) for the speed calibration, which runs
    right before each request and right after its replays."""

    def __init__(self, wl, speed, tracer=None):
        self.wl = wl
        self.speed = speed
        self.tracer = tracer
        self.requests = []
        self.latency = []
        self.replay = []
        self.failed = 0
        self.reasons = []

    def _timed(self, fn):
        if self.tracer is not None:
            self.tracer.recording = True
        t0 = time.perf_counter()
        try:
            result = fn()
            return result, (t0, time.perf_counter())
        finally:
            if self.tracer is not None:
                self.tracer.recording = False

    def one(self, req, sample=True, check=True):
        wl = self.wl
        self.speed.tick()
        self.speed.bracket()
        if self.tracer is not None:
            self.tracer.request = len(self.requests)
        self.requests.append(req)
        timing = None
        try:
            answer, timing = self._timed(lambda: wl.execute(req))
            replayed = []
            for thunk in wl.replay(req, answer):
                runs = [self._timed(thunk) for _ in range(REPLAY_REPEAT)]
                replayed.append(runs[0][0])
                spans = sorted((t[1] - t[0], t) for _, t in runs)
                self.replay.append(spans[len(spans) // 2][1])
            reason = wl.check(req, answer, replayed) if check else None
        except Exception as exc:  # a request that raises counts as failed
            reason = "%r raised %s: %s" % (req[:2], type(exc).__name__, exc)
        self.speed.bracket()
        if sample and timing is not None:
            self.latency.append(timing)
            if wl.is_replay(req):
                self.replay.append(timing)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(reason)
        return timing[1] - timing[0] if timing else 0.0


def planned_requests(wl, seconds):
    """The requests of the whole rounds that take about `seconds` on the
    reference machine. They depend only on the seed and `seconds`, so a
    seed sends the same requests on every machine and every commit."""
    rounds = max(1, round(seconds / wl.round_s))
    return rounds, [req for _, batch in zip(range(rounds), wl.rounds()) for req in batch]


def spaced(i, n, k):
    """True at k positions spread evenly over i = 0 .. n-1."""
    return (i * k) // n != ((i + 1) * k) // n


def median(xs):
    # empty only when every request that feeds the metric failed
    return statistics.median(xs) if xs else 0.0


def percentile_rank(n):
    return 100.0 * (n - TAIL_BEYOND) / n if n > TAIL_BEYOND else 0.0


def timing_metrics(speed, latency, replay, setup, cli):
    """The time metrics from (start, end) samples and (scaled, raw) probe
    seconds, scaled to the reference speed when speed is given and as
    measured when it is None."""
    def seconds(samples):
        if speed is None:
            return [end - start for start, end in samples]
        return speed.scaled(samples)

    def probes(samples):
        return [scaled if speed else raw for scaled, raw in samples]

    lat = sorted(seconds(latency))
    n = len(lat)
    return {
        "setup_s": median(probes(setup)),
        "latency_p50_s": median(lat),
        "latency_tail_s": lat[max(0, n - 1 - TAIL_BEYOND)] if lat else 0.0,
        "throughput_rps": n / sum(lat) if lat else 0.0,
        "replay_p50_s": median(seconds(replay)),
        "cli_cold_s": median(probes(cli)),
    }


def speed_details(speed):
    return {"reference_s": REFERENCE_S, "calibration_runs": len(speed.took),
            "bursts": len(speed.state),
            "calibration_median_s": statistics.median(speed.took),
            "calibration_min_s": min(speed.took), "calibration_max_s": max(speed.took),
            "factor": speed.overall()}


def end_to_end(args, wl, details):
    rounds, requests = planned_requests(wl, args.seconds)
    wl.warmup()
    speed = Speed()
    loop = Loop(wl, speed)
    setup = []
    cli = []
    measured = 0.0
    # Set-up probes and CLI runs are spread over the run, so that their
    # medians see the same spells of machine speed as the requests.
    for i, req in enumerate(requests):
        measured += loop.one(req)
        if spaced(i, len(requests), PROBE_STATIONS):
            s, c = bracketed([lambda: setup_probe(wl.name), lambda: cli_probe(loop)])
            setup.append(s)
            if c is not None:
                cli.append(c)
    speed.tick(force=True)
    samples = (loop.latency, loop.replay, setup, cli)
    metrics = {name: (value, "1/s" if name == "throughput_rps" else "s")
               for name, value in timing_metrics(speed, *samples).items()}
    metrics.update({
        "ok_frac": (1.0 - loop.failed / len(loop.requests), "frac"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    })
    n = len(loop.latency)
    details.update({
        "rounds": rounds,
        "measured_s": measured,
        "unscaled": timing_metrics(None, *samples),
        "speed": speed_details(speed),
        "latency_samples": n,
        "latency_tail_percentile": percentile_rank(n),
        "replay_samples": len(loop.replay),
        "cli_samples": len(cli),
        "setup_samples_s": [raw for _, raw in setup],
        "failed_frac": loop.failed / len(loop.requests),
        "failures": loop.reasons,
        "traffic": wl.traffic(loop.requests),
    })
    return loop, metrics


def per_layer(args, wl, details):
    import tracing

    tracer = tracing.Tracer()
    speed = Speed()
    traced, plain = Loop(wl, speed, tracer), Loop(wl, speed)
    rounds, requests = planned_requests(wl, args.seconds / 2)
    wl.warmup()
    # Each request runs traced and untraced back to back, alternating which
    # goes first, so the overhead compares the same work at the same moment.
    for i, req in enumerate(requests):
        if i % 2:
            plain.one(req, check=False)
        tracer.install()
        try:
            traced.one(req)
        finally:
            tracer.uninstall()
        if not i % 2:
            plain.one(req, check=False)
    traced_s = sum(end - start for start, end in traced.latency)
    plain_s = sum(end - start for start, end in plain.latency)
    specs = {name: unit for name, unit, _ in tracing.metric_specs()}
    values = tracer.metrics()
    factor = speed.overall()
    for name in values:
        if name.endswith(".self_s"):
            values[name] *= factor
    values["cli.import_s"] = median([scaled for scaled, _ in cli_import_samples()])
    values["trace.overhead_frac"] = traced_s / plain_s - 1.0
    values["trace.spans"] = len(tracer.spans)
    os.makedirs(env.OUT, exist_ok=True)
    spans_path = os.path.join(env.OUT, "spans-%s-seed%d.json" % (wl.name, args.seed))
    tracer.dump(spans_path)
    details.update({
        "rounds": rounds,
        "traced_s": traced_s,
        "untraced_s": plain_s,
        "speed": speed_details(speed),
        "spans_file": os.path.relpath(spans_path, env.ROOT),
        "failed_frac": traced.failed / len(traced.requests),
        "failures": traced.reasons,
        "traffic": wl.traffic(traced.requests),
    })
    return traced, {name: (values[name], specs[name]) for name in specs}


def main(argv=None):
    args = parse_args(argv)
    env.use_checkout_source()
    env.check_imported()
    import workloads

    wl = workloads.WORKLOADS[args.workload](args.seed)
    details = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
               "trace": args.trace, "environment": env.environment(),
               "closed_loop": "one client, one request in flight, no threads or pools",
               "warm_caches": "reused: the workload's warm-up calls run before timing and "
                              "caches persist across requests (psl2_class_reps is "
                              "lru_cached and filled for every t words asks); set-up "
                              "probes and CLI runs start cold"}
    measure = per_layer if args.trace else end_to_end
    loop, metrics = measure(args, wl, details)
    result = {
        "correct": loop.failed == 0,
        "attempted": len(loop.requests),
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    os.makedirs(env.OUT, exist_ok=True)
    with open(os.path.join(env.OUT, "%s-seed%d-trace%d.json"
                           % (args.workload, args.seed, args.trace)), "w") as fh:
        json.dump({"details": details, "result": result}, fh, indent=1, default=str)
    print(json.dumps({"details": details}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
