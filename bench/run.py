"""raagme benchmark runner.

    python3 bench/run.py --workload {me-decide,ext-ball,cli-batch} --seed N
                         --seconds S --trace {0,1}

Run from the repository root: the package is imported from ./src.  One
process, one thread, one closed-loop client.  The workload's inputs are
generated from the seed as JSON/DOT text, set-up (import plus parsing) is
timed in fresh child processes, and then whole passes over the workload's
fixed query set run until S seconds have gone by (at least one pass).
Every answer is checked; the per-query check runs outside the timed call.
Times are scaled to a reference host speed (see calibration.py).

The last line of standard output is one JSON object: end-to-end metrics
with --trace 0, per-layer metrics (from spans around every public function
of every module) with --trace 1.  README.md explains the metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import calibration  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
SETUP_TIMEOUT_S = 60

END_TO_END = (("wall_s", "s"), ("query_p50_s", "s"), ("query_p90_s", "s"),
              ("failed_share", "ratio"), ("decided_share", "ratio"),
              ("setup_s", "s"), ("peak_rss_mb", "MB"))
# failed_share is 0 on a healthy workload; the result line carries it as
# the "failed" / "attempted" counts instead of as a metric
RESULT_METRICS = tuple(m for m in END_TO_END if m[0] != "failed_share")
# vertex labels and numbers, masked so that failures group by their kind
VARYING = re.compile(r"'[^']*'|[0-9]+")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def time_setup(src, bundle):
    """Median over fresh processes of the scaled import + parse time, and the raw times."""
    scaled, raw = [], []
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "setup_probe.py"), src, bundle],
                              capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True)
        seconds, unit = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        scaled.append(seconds * calibration.REFERENCE_S / unit)
    return statistics.median(scaled), raw


def import_package(src):
    sys.path.insert(0, src)
    import raagme
    import raagme.cli  # noqa: F401
    import raagme.formats  # noqa: F401
    if os.path.dirname(os.path.abspath(raagme.__file__)) != os.path.join(src, "raagme"):
        raise RuntimeError(f"imported raagme from {raagme.__file__}, not from {src}")
    return raagme


class Tally:
    """Outcome and timing of every query, plus the first pass's answers for comparison."""

    def __init__(self):
        self.samples = []    # (query ident, start, elapsed) in seconds
        self.pass_walls = []
        self.attempted = self.failed = self.wrong = self.decided = 0
        self.failures = Counter()
        self.first = {}      # query ident -> (serialized answer, decided)

    def record(self, q, answer, error):
        self.attempted += 1
        if error is not None:
            self.fail(q, f"{type(error).__name__}: {error}")
            return
        try:
            text = q.serialize(answer)
            if q.ident in self.first:
                seen, decided = self.first[q.ident]
                if text != seen:
                    raise workloads.CheckFailed("answer differs from the first pass")
            else:
                decided = bool(q.check(answer))
                self.first[q.ident] = (text, decided)
        except Exception as exc:  # a malformed answer is as wrong as a rejected one
            self.wrong += 1
            rejected = isinstance(exc, workloads.CheckFailed)
            self.fail(q, f"check: {exc if rejected else repr(exc)}")
            return
        self.decided += decided

    def fail(self, q, message):
        self.failed += 1
        self.failures[f"{q.kind}: {VARYING.sub('#', message)[:160]}"] += 1

    def times(self, factor=None):
        """Per-query times, scaled by ``factor(start, elapsed)`` when given."""
        return [(ident, elapsed * factor(start, elapsed) if factor else elapsed)
                for ident, start, elapsed in self.samples]

    @staticmethod
    def per_query(times):
        """Each query's median time over the passes, which filters out
        bursts of contention that hit one pass."""
        by_ident = {}
        for ident, t in times:
            by_ident.setdefault(ident, []).append(t)
        return [statistics.median(ts) for ts in by_ident.values()]

    @classmethod
    def wall(cls, times):
        """Time for the whole query set."""
        return sum(cls.per_query(times))


def run_passes(wl, seconds, tracer, track):
    """Whole passes until ``seconds`` have gone by; answers are checked after each pass."""
    tally = Tally()
    t0 = time.perf_counter()
    while not tally.pass_walls or time.perf_counter() - t0 < seconds:
        # the checks of the previous pass allocate heavily; start every pass
        # from the same collector state
        gc.collect()
        gc.freeze()
        ctx = {}
        outcomes = []
        for q in wl.pass_queries(len(tally.pass_walls), ctx):
            track.sample()
            if tracer:
                tracer.begin_query()
            error = answer = None
            start = time.perf_counter()
            try:
                answer = q.fn()
            except Exception as exc:  # a raising query is a failed query; keep going
                error = exc
            elapsed = time.perf_counter() - start
            if tracer:
                tracer.end_query()
            if error is None:
                ctx[q.ident] = answer
            outcomes.append((q, answer, error, start, elapsed))
        track.sample()
        tally.pass_walls.append(sum(o[4] for o in outcomes))
        for q, answer, error, start, elapsed in outcomes:
            tally.samples.append((q.ident, start, elapsed))
            tally.record(q, answer, error)
    return tally


def end_to_end(tally, track, setup_s):
    per_query = Tally.per_query(tally.times(track.factor))
    return {
        "wall_s": sum(per_query),
        "query_p50_s": quantile(per_query, 0.5),
        "query_p90_s": quantile(per_query, 0.9),
        "failed_share": tally.failed / tally.attempted,
        "decided_share": tally.decided / tally.attempted,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def report(args, tally, track, setup_raw, metrics, units):
    passes = len(tally.pass_walls)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}: "
          f"{passes} passes, {tally.attempted} queries ({tally.attempted // passes} per pass), "
          "one closed-loop client")
    print(f"  raw pass times (s): {' '.join(f'{w:.3f}' for w in tally.pass_walls)}; "
          f"raw wall {Tally.wall(tally.times()):.3f} s")
    print(f"  calibration unit: median {track.unit_median() * 1e3:.3f} ms over "
          f"{len(track.units)} samples (reference {calibration.REFERENCE_S * 1e3:.3f} ms)")
    print(f"  raw set-up samples (s): {' '.join(f'{s:.4f}' for s in setup_raw)}")
    print(f"  failed {tally.failed} (of which {tally.wrong} answers rejected by the checks), "
          f"decided {tally.decided}, attempted {tally.attempted}")
    for message, count in tally.failures.most_common(8):
        print(f"    {count:6d} x {message}")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.6f} {units[name]}")


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "raagme", "__init__.py")):
        print("bench: src/raagme not found; run from the repository root", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](args.seed)
    work = os.path.join(root, ".bench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        bundle = os.path.join(work, "documents.json")
        with open(bundle, "w", encoding="utf-8") as fh:
            json.dump(wl.document_texts(), fh)
        wl.write_files(work)
        raagme = import_package(src)
        setup_s, setup_raw = time_setup(src, bundle)
        wl.bind(raagme, [raagme.formats.parse_presentation(text, fmt)
                         for fmt, text in wl.document_texts()])
        tracer = None
        if args.trace:
            tracer = tracing.Tracer()
            tracer.install(raagme)
        track = calibration.SpeedTrack()
        tally = run_passes(wl, args.seconds, tracer, track)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if args.trace:
        metrics = tracer.per_layer(len(tally.pass_walls), track.factor,
                                   Tally.wall(tally.times(track.factor)))
        units = dict(tracing.metric_names())
        tracer.write(os.path.join(root, ".bench_trace"), args.workload)
    else:
        metrics = end_to_end(tally, track, setup_s)
        units = dict(END_TO_END)
    report(args, tally, track, setup_raw, metrics, units)
    if not args.trace:
        metrics = {k: v for k, v in metrics.items() if k in dict(RESULT_METRICS)}
    print(json.dumps({"correct": tally.wrong == 0, "attempted": tally.attempted,
                      "failed": tally.failed,
                      "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
