#!/usr/bin/env python3
"""hptmaster benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Load model: a closed loop with one client.  One process makes sequential
calls into the library (no threads, no subprocess per call), so peak
memory belongs to the workload that ran.

With `--trace 0` the run reports the end-to-end metrics: set-up time (the
median of SETUP_PROBES cold set-ups, each a fresh interpreter running this
script with `--setup-only`, timed from its start to its exit), problems per
second over whole passes of the workload, median latency (each problem's
median over the passes, then the median over the problems), and peak
resident memory.  Times are in reference seconds (see `speed.py`): wall
times scaled by the machine's speed, sampled while they are measured.  The
wall-clock figures, failed problems and the latency tail are printed
beside them.

With `--trace 1` the run alternates untraced passes with passes that have
the library's public functions wrapped by `tracing.Tracer`, for
`--seconds` in all, and reports the per-layer metrics plus the tracing
overhead (traced minus untraced wall time over the same number of passes).

Every problem is checked: its exit code or verdict, any check inside the
library, and the sha256 of its report bytes against `reference.json`.
Inputs come from the workload seed modulo REFERENCE_SEEDS, the seeds the
reference covers.  The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`.
"""

import argparse
import hashlib
import importlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from types import SimpleNamespace

import speed
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
REFERENCE = os.path.join(HERE, "reference.json")
TRACE_DIR = os.path.join(HERE, "out")

LIBRARY = ("graded", "linalg", "complexes", "words", "dgla", "perturbation",
           "transfer", "bv", "deformation", "instances", "cli")
REFERENCE_SEEDS = 64
SETUP_PROBES = 5
WARMUP_S = 1.0
TAIL_LADDER = (50, 90, 95, 99, 99.9)
TAIL_BEYOND = 10
TRACE_METRICS = [("trace.untraced_s", "s"), ("trace.traced_s", "s"),
                 ("trace.overhead_s", "s")]


# -- set-up ------------------------------------------------------------------

def input_seed(seed):
    """The seed the workload's inputs are made from."""
    return seed % REFERENCE_SEEDS


def import_library():
    return SimpleNamespace(**{
        name: importlib.import_module("hptmaster." + name)
        for name in LIBRARY})


def set_up(workload, seed, workdir):
    """Import the library and build the workload's problems."""
    lib = import_library()
    return lib, workloads.WORKLOADS[workload](lib, input_seed(seed), workdir)


def probe_set_up(workload, seed):
    """One cold set-up in a fresh interpreter: (wall s, reference s), both
    without the time of the speed samples.

    The probe samples the machine's speed while it sets up and reports its
    samples on stdout; one sample just before it starts and one just after
    it ends are added to them.
    """
    argv = [sys.executable, os.path.abspath(__file__), "--workload", workload,
            "--seed", str(seed), "--seconds", "0", "--setup-only"]
    before = speed.sample()
    start = time.perf_counter()
    probe = subprocess.run(argv, stdout=subprocess.PIPE, check=True)
    after = speed.sample()
    meter = json.loads(probe.stdout)
    wall = time.perf_counter() - start - after - meter["spent"]
    return wall, speed.reference_seconds(
        wall, [before] + meter["samples"] + [after])


# -- checking ----------------------------------------------------------------

class Checker:
    """Counts attempted and failed problems.

    A problem fails when it raises, when its exit code or verdict differs
    from the expected one, or when its report digest differs from the
    reference or the reference has none for it.
    """

    def __init__(self, reference):
        self.reference = reference
        self.attempted = 0
        self.failed = 0

    def _fail(self, problem, why):
        self.failed += 1
        sys.stderr.write("FAILED %s: %s\n" % (problem.name, why))

    def error(self, problem, exc):
        self.attempted += 1
        self._fail(problem, "".join(
            traceback.format_exception_only(type(exc), exc)).strip())

    def record(self, problem, code, data):
        self.attempted += 1
        if code != problem.expected:
            self._fail(problem, "exit code or verdict %r, expected %r"
                       % (code, problem.expected))
            return
        digest = hashlib.sha256(data).hexdigest()
        want = self.reference.get(problem.name)
        if want is None:
            self._fail(problem, "no reference digest")
        elif digest != want:
            self._fail(problem, "report sha256 %s, reference %s"
                       % (digest, want))


def attempt(problem, checker, tracer=None, meter=None):
    """Run one problem and check it.

    Returns its time as (wall s, reference s), both without the time of
    the meter's samples; without a meter the two are the same.
    """
    mark = meter.mark() if meter else None
    start = time.perf_counter()
    try:
        outcome = problem.run()
    except Exception as exc:  # a failing problem must not stop the run
        outcome, error = None, exc
    else:
        error = None
    wall = time.perf_counter() - start
    if meter:
        wall, scaled = meter.measured(mark, wall)
    else:
        scaled = wall
    if error is None:
        try:
            code, data = problem.finish(outcome)
        except Exception as exc:
            error = exc
    if error is not None:
        checker.error(problem, error)
        return wall, scaled
    if tracer is not None:
        tracer.counters["cli.report_bytes"] += len(data)
    checker.record(problem, code, data)
    return wall, scaled


def warm_up(problems, checker):
    """Run problems in order, untimed, until WARMUP_S has passed."""
    start = time.perf_counter()
    for problem in problems:
        attempt(problem, checker)
        if time.perf_counter() - start >= WARMUP_S:
            break


def measure(problems, checker, seconds, meter):
    """Whole passes over the problems, as many as fit in `seconds`.

    Passes continue while the next one, taking as long as the slowest so
    far, would end within `seconds`; at least one runs.  Returns per pass
    the list of per-problem (wall, reference) times, and the total wall.
    """
    samples = []
    pass_walls = []
    start = time.perf_counter()
    while True:
        samples.append([attempt(problem, checker, meter=meter)
                        for problem in problems])
        wall = time.perf_counter() - start
        pass_walls.append(wall - sum(pass_walls))
        if wall + max(pass_walls) > seconds:
            print("pass wall times (s): "
                  + " ".join("%.3f" % w for w in pass_walls))
            print("pass reference times (s): " + " ".join(
                "%.3f" % sum(t[1] for t in times) for times in samples))
            return samples, wall


# -- statistics --------------------------------------------------------------

def tail(samples):
    """Highest ladder percentile with TAIL_BEYOND samples beyond it.

    Returns (percentile, value, samples beyond) or None when even the
    median has fewer samples beyond it.
    """
    ordered = sorted(samples)
    n = len(ordered)
    best = None
    for pct in TAIL_LADDER:
        rank = max(1, -(-pct * n // 100))        # nearest rank, 1-based
        beyond = n - int(rank)
        if beyond >= TAIL_BEYOND:
            best = (pct, ordered[int(rank) - 1], beyond)
    return best


def p50(per_pass, which):
    """Each problem's median over the passes, then the median over problems:
    a slow moment of the machine moves one sample, not the order statistic."""
    return statistics.median(
        statistics.median(times[which] for times in problem)
        for problem in zip(*per_pass))


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def metric(value, unit):
    return {"value": value, "unit": unit}


# -- runs --------------------------------------------------------------------

def end_to_end(problems, checker, seconds, meter, probes):
    per_pass, wall = measure(problems, checker, seconds, meter)
    samples = [t for times in per_pass for t in times]
    metrics = {
        "setup_s": metric(statistics.median(p[1] for p in probes), "s"),
        "problems_per_s": metric(len(samples) / sum(t[1] for t in samples),
                                 "1/s"),
        "latency_p50_s": metric(p50(per_pass, 1), "s"),
        "peak_rss_mb": metric(peak_rss_mb(), "MB"),
    }
    walls = {
        "setup_s": statistics.median(p[0] for p in probes),
        "problems_per_s": len(samples) / sum(t[0] for t in samples),
        "latency_p50_s": p50(per_pass, 0),
    }
    print("passes %d, problems timed %d, timed wall %.3f s, %d speed samples"
          % (len(per_pass), len(samples), wall, len(meter.samples)))
    print("%-16s %12s %12s" % ("", "reference", "wall"))
    for name, entry in metrics.items():
        print("%-16s %12.6g %12.6g %s" % (name, entry["value"],
                                          walls.get(name, entry["value"]),
                                          entry["unit"]))
    print("%-16s %12.6g ratio (%d failed of %d attempted)"
          % ("failed_ratio", checker.failed / checker.attempted,
             checker.failed, checker.attempted))
    found = tail([t[1] for t in samples])
    if found is None:
        print("%-16s %12s s (fewer than %d samples beyond the median of %d)"
              % ("latency_tail_s", "n/a", TAIL_BEYOND, len(samples)))
    else:
        pct, value, beyond = found
        print("%-16s %12.6g s (reference; p%g of %d samples, %d beyond)"
              % ("latency_tail_s", value, pct, len(samples), beyond))
    return metrics


def timed_pass(problems, checker, meter, tracer=None):
    """One pass: its summed (wall s, reference s)."""
    times = [attempt(problem, checker, tracer, meter) for problem in problems]
    return sum(t[0] for t in times), sum(t[1] for t in times)


def traced(problems, checker, seconds, lib, spans_path, meter):
    """Untraced and traced passes in turn, so that a change of machine
    speed falls on both sides alike.  Spans are timed on a clock that
    leaves out the yardstick samples taken inside them."""
    tracer = tracing.Tracer(clock=lambda: time.perf_counter() - meter.spent)
    untraced, traced = [0.0, 0.0], [0.0, 0.0]
    passes = 0
    start = time.perf_counter()
    while True:
        untraced = [a + b for a, b in
                    zip(untraced, timed_pass(problems, checker, meter))]
        tracer.install(vars(lib))
        try:
            traced = [a + b for a, b in
                      zip(traced, timed_pass(problems, checker, meter,
                                             tracer))]
        finally:
            tracer.uninstall()
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed * (passes + 1) / passes > seconds:
            break
    os.makedirs(os.path.dirname(spans_path), exist_ok=True)
    tracer.write_spans(spans_path)
    values = tracer.metrics()
    values["trace.untraced_s"] = untraced[1]
    values["trace.traced_s"] = traced[1]
    values["trace.overhead_s"] = traced[1] - untraced[1]
    for label, (plain, with_tracer) in (("wall", (untraced[0], traced[0])),
                                        ("reference", (untraced[1],
                                                       traced[1]))):
        print("passes %d untraced in %.3f s, traced in %.3f s %s "
              "(overhead %.1f%%)" % (passes, plain, with_tracer, label,
                                     100.0 * (with_tracer / plain - 1.0)))
    traced_wall = traced[0]
    print("%-48s %12s %12s %10s %7s" % ("span", "s", "self_s", "calls",
                                        "self%"))
    for name in tracing.SPANS:
        print("%-48s %12.6f %12.6f %10d %6.1f%%"
              % (name, values[name + ".s"], values[name + ".self_s"],
                 values[name + ".calls"],
                 100.0 * values[name + ".self_s"] / traced_wall))
    for name, value in tracer.counters.items():
        print("%-48s %12d" % (name, value))
    groups = {
        "extension (transfer.extend_contraction.s)":
            values["transfer.extend_contraction.s"],
        "perturbation.* self": sum(values[n + ".self_s"] for n in tracing.SPANS
                                   if n.startswith("perturbation.")),
        "complexes.* + linalg.* self": sum(
            values[n + ".self_s"] for n in tracing.SPANS
            if n.startswith(("complexes.", "linalg."))),
    }
    for label, value in groups.items():
        print("share of traced wall, %-42s %6.1f%%"
              % (label, 100.0 * value / traced_wall))
    units = dict(tracing.metric_names() + TRACE_METRICS)
    return {name: metric(values[name], unit) for name, unit in units.items()}


def load_reference(workload):
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the speed samples taken meanwhile "
                        "and exit (a set-up probe)")
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "hptmaster")):
        sys.stderr.write("error: no library sources at %s\n" % SRC)
        return 2
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix="work-", dir=HERE)
    try:
        meter = speed.Speedometer()
        if args.setup_only:
            meter.start()
            try:
                set_up(args.workload, args.seed, workdir)
            finally:
                meter.stop()
            print(json.dumps({"spent": meter.spent,
                              "samples": meter.samples}))
            return 0
        checker = Checker(load_reference(args.workload))
        probes = [] if args.trace else [
            probe_set_up(args.workload, args.seed)
            for _ in range(SETUP_PROBES)]
        meter.start()
        try:
            lib, problems = set_up(args.workload, args.seed, workdir)
            print("workload %s, seed %d (inputs from seed %d), "
                  "%d problems per pass"
                  % (args.workload, args.seed, input_seed(args.seed),
                     len(problems)))
            warm_up(problems, checker)
            if args.trace:
                spans_path = os.path.join(TRACE_DIR, "spans-%s-seed%d.jsonl"
                                          % (args.workload, args.seed))
                metrics = traced(problems, checker, args.seconds, lib,
                                 spans_path, meter)
            else:
                metrics = end_to_end(problems, checker, args.seconds, meter,
                                     probes)
        finally:
            meter.stop()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": checker.failed == 0,
                      "attempted": checker.attempted,
                      "failed": checker.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
