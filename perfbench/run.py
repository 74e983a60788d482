"""helikon benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a helikon checkout; the package is imported from its
src/ directory.  The workload runs in this process on one thread.

--trace 0 times whole passes of the workload's fixed work for about S
seconds (at least one pass) and reports the end-to-end metrics: pass_s, the
median pass; setup_s, the median set-up time of fresh interpreters; and
peak_rss_mb, this process's peak resident memory after its first pass.  Times
are scaled to a reference speed of the machine measured beside the work
(calibrate.py).  --trace 1 runs one untraced and one traced pass and
reports the per-layer metrics of the traced pass; its spans go to
.perfbench-out/ in the checkout.

Either way the outputs of the first pass are checked against independent
oracles (perfbench/oracles.py), every pass must reproduce the first pass's
outputs exactly, and the last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  --seed draws the points the
checks sample.
"""

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

import calibrate

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TRACE_DIR = os.path.join(ROOT, ".perfbench-out")
WORKLOADS = ("torus-solve", "torus-scan", "plane-embed")

# fresh interpreters timed for setup_s, after one untimed warm-up that
# leaves the bytecode caches written
SETUP_SAMPLES = 9
SINGLE_THREAD = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up in this interpreter and print it")
    return p.parse_args(argv)


def timed_setup(name):
    """Import numpy and helikon and set the workload up: (seconds, workload)."""
    t0 = time.perf_counter()
    import workloads

    wl = workloads.WORKLOADS[name](ROOT)
    return time.perf_counter() - t0, wl


def setup_probe(name):
    """Time one set-up in this fresh interpreter: (wall, at reference speed)."""
    before = calibrate.timed_slice(repeats=5)
    wall, _ = timed_setup(name)
    return wall, calibrate.scaled(wall, before, calibrate.timed_slice(repeats=5))


def setup_seconds(name):
    """Median set-up time over fresh interpreters: (wall, at reference speed)."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
           "--setup-only"]
    samples = []
    for k in range(SETUP_SAMPLES + 1):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                             check=True)
        if k:
            samples.append([float(v) for v in out.stdout.split()[-2:]])
    return tuple(statistics.median(col) for col in zip(*samples))


def one_pass(wl):
    """Run every operation once: (start, end, outputs, failed count)."""
    ops = wl.ops()
    outputs, failed = {}, 0
    t0 = time.perf_counter()
    for name, op in ops:
        try:
            outputs[name] = op()
        except Exception:  # a failed operation is counted, not fatal
            traceback.print_exc(file=sys.stderr)
            outputs[name] = None
            failed += 1
    return t0, time.perf_counter(), outputs, failed


class Passes:
    """Timed passes; keeps the first pass's outputs and everyone's fingerprints."""

    def __init__(self, wl):
        self.wl = wl
        self.intervals = []
        self.first = None
        self.prints = None
        self.attempted = 0
        self.failed = 0
        self.mismatches = []

    def run(self):
        """One pass; returns its wall seconds, sampling slices included."""
        t0, t1, outputs, failed = one_pass(self.wl)
        self.intervals.append((t0, t1))
        self.attempted += len(outputs)
        self.failed += failed
        prints = {name: None if out is None else self.wl.fingerprint(name, out)
                  for name, out in outputs.items()}
        if self.first is None:
            self.first, self.prints = outputs, prints
        else:
            self.mismatches += [
                f"pass {len(self.intervals)}: {name} differs from pass 1"
                for name in prints if prints[name] != self.prints[name]
            ]
        return t1 - t0

    def seconds(self, clock):
        """Per pass: ([wall seconds], [seconds at the reference speed])."""
        times = [clock.seconds(t0, t1) for t0, t1 in self.intervals]
        return [w for w, _ in times], [r for _, r in times]


def check(passes, seed):
    import numpy as np

    try:
        failures = passes.wl.check(passes.first, np.random.default_rng(seed))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        failures = ["a check raised"]
    failures = list(failures) + passes.mismatches
    for msg in failures:
        print(f"check failed: {msg}", file=sys.stderr)
    return not failures


def helikon_modules():
    return {name: mod for name, mod in sys.modules.items()
            if name == "helikon" or name.startswith("helikon.")}


def run_untraced(args):
    setup_wall, setup_s = setup_seconds(args.workload)
    _, wl = timed_setup(args.workload)
    passes = Passes(wl)
    lengths = []
    with calibrate.SpeedClock() as clock:
        start = time.perf_counter()
        while True:
            lengths.append(passes.run())
            if len(lengths) == 1:
                # later passes also hold the first pass's outputs for the
                # checks, so only the first shows one pass's memory
                peak_rss_mb = (resource.getrusage(resource.RUSAGE_SELF)
                               .ru_maxrss / 1024.0)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(lengths) > args.seconds:
                break
    walls, scaled = passes.seconds(clock)
    metrics = {
        "pass_s": (statistics.median(scaled), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    print(f"{args.workload}: set-up {setup_wall:.4f} s wall, {setup_s:.4f} s"
          f" scaled; {len(walls)} passes, wall "
          + " ".join(f"{w:.3f}" for w in walls) + ", scaled "
          + " ".join(f"{w:.3f}" for w in scaled), file=sys.stderr)
    return passes, metrics


def run_traced(args):
    import workloads  # noqa: F401  (loads helikon for the tracer)
    from tracing import Tracer

    tracer = Tracer(helikon_modules())
    tracer.install()
    try:
        _, wl = timed_setup(args.workload)
    finally:
        tracer.uninstall()
    load_s = tracer.metrics()["scene.load_s"][0]  # set-up's, not the pass's
    tracer.reset()

    passes = Passes(wl)
    with calibrate.SpeedClock() as clock:
        passes.run()
        tracer.install()
        try:
            passes.run()
        finally:
            tracer.uninstall()
    (_, wall), (untraced, traced) = passes.seconds(clock)
    # layer times at the reference speed, by the traced pass's own factor
    factor = traced / wall
    metrics = {name: (value * factor if unit == "s" else value, unit)
               for name, (value, unit) in tracer.metrics().items()}
    metrics["scene.load_s"] = (load_s * factor, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")

    os.makedirs(TRACE_DIR, exist_ok=True)
    path = os.path.join(TRACE_DIR, f"trace-{args.workload}-{args.seed}.json")
    tracer.dump(path, {"workload": args.workload, "seed": args.seed,
                       "untraced_pass_s": untraced, "traced_pass_s": traced,
                       "traced_pass_wall_s": wall})
    print(f"{args.workload}: spans written to {path}", file=sys.stderr)
    return passes, metrics


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "helikon", "__init__.py")):
        print(f"error: no helikon package under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)  # before numpy is imported, and inherited
    sys.path.insert(0, SRC)
    if args.setup_only:
        print(*setup_probe(args.workload))
        return 0

    passes, metrics = (run_traced if args.trace else run_untraced)(args)
    correct = check(passes, args.seed)
    print(json.dumps({
        "correct": correct,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
