"""coadjoint benchmark: one workload per run, outputs checked, one JSON line.

    python3 perfbench/run.py --workload verify-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from ``src/``.
Every request is a closed loop with one caller: the next request is sent
when the previous report is back. ``--trace 0`` times the named workload
for ``--seconds`` (and at least MIN_ROUNDS rounds) and prints the
end-to-end metrics, every timing in reference seconds (see clock.py).
Every metric needs a value on every workload, so the run also makes
PROBE_ROUNDS small rounds of each other workload, spread between its own
rounds. ``--trace 1`` runs a fixed number of rounds once
untraced and once traced and prints the per-layer metrics; fixed rounds
make every count repeat exactly at one seed. Human-readable lines come
first; the last line of standard output is the JSON result.
"""

from __future__ import annotations

import os

# one caller on a 2-core machine: keep BLAS/OpenMP from starting threads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter, defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

from clock import CAL_REF, Clock  # noqa: E402
from spans import SPANS, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
WORKLOADS = ("verify-mix", "chart-sweep", "topology-charts")

# rounds a timed run makes at least: verify-mix needs 6 rounds (30 reports)
# for ten reports to lie beyond its tail percentile
MIN_ROUNDS = {"verify-mix": 6, "chart-sweep": 10, "topology-charts": 15}
# small rounds of each other workload a timed run makes, its probe; 60
# small topology rounds make 1080 queries, 21 of them beyond p98
PROBE_ROUNDS = {"verify-mix": 30, "chart-sweep": 40, "topology-charts": 60}
TRACE_ROUNDS = {"verify-mix": 2, "chart-sweep": 4, "topology-charts": 6}
# fixed tail percentiles, each with at least ten requests beyond it in a
# run of MIN_ROUNDS rounds
VERIFY_TAIL = 66.0
TOPOLOGY_TAIL = 98.0
SETUP_SAMPLES = 5
VERIFY_POINTS = 100          # the CLI default, which the verify reports use


class Pass:
    """Timings, work units and failures of the requests one loop made.

    A round repeats the same requests, slot by slot, with fresh inputs of
    equal cost. Every request keeps its own time, in reference seconds.
    Latencies are taken over all requests of a kind. A throughput takes
    each slot at its median time, weighted by how often the slot ran.
    Work units (grid rows, library calls, reports) whose output missed a
    check count against ``ok_ratio``; a request with a problem outside the
    known defects counts in ``failed``.
    """

    def __init__(self, clock):
        self.clock = clock
        self.seconds = defaultdict(list)      # slot -> [(seconds, calibration)]
        self.kind = {}                        # slot -> request kind
        self.units = {}                       # slot -> work units per request
        self.slot = 0                         # position in the current round
        self.attempted = 0
        self.failed = 0
        self.work = 0                         # work units checked
        self.work_failed = 0                  # of those, units that missed a check
        self.defects = Counter()              # known defect -> problems
        self.unexpected = []                  # problems outside KNOWN_DEFECTS
        self.csv_rows = 0
        self.rounds = 0
        self.digest = None

    def run(self, wl, ops):
        self.start_round(wl, ops)
        for op in ops:
            mark = self.clock.mark()
            self.record(op, mark, *wl.run_op(op))

    def start_round(self, wl, ops):
        self.digest = wl.digest(ops, self.digest)
        self.rounds += 1
        self.slot = 0

    def record(self, op, mark, elapsed, result, problems):
        if problems is None:
            problems = op.check(result)
            if op.kind.endswith("-grid") and result[0] == 0:
                self.csv_rows += result[1].count("\n") - 1
        self.seconds[self.slot].append((elapsed, mark))
        self.kind[self.slot] = op.kind
        self.units[self.slot] = op.units
        self.slot += 1
        self.attempted += 1
        self.work += op.units
        self.work_failed += failed_units(problems, op.units)
        unexpected = [p for p in problems or () if p.defect is None]
        self.failed += bool(unexpected)
        self.unexpected += [f"{op.label}: {p.text}" for p in unexpected]
        self.defects.update(p.defect for p in problems or () if p.defect)

    def slots(self, kinds):
        return [sl for sl, k in self.kind.items() if k in kinds]

    def times(self, slot):
        return [t * self.clock.scale(mark) for t, mark in self.seconds[slot]]

    def samples(self, *kinds):
        """The time of every request of these kinds."""
        return [t for sl in self.slots(kinds) for t in self.times(sl)]

    def rate(self, *kinds):
        """Work units per second, each slot at its median time."""
        work = busy = 0.0
        for sl in self.slots(kinds):
            n = len(self.seconds[sl])
            work += self.units[sl] * n
            busy += statistics.median(self.times(sl)) * n
        return work / busy

    def ok_ratio(self):
        return (self.work - self.work_failed) / self.work


def failed_units(problems, units):
    """Units of a request that missed a check: the rows its problems mask,
    or all of them when a problem concerns the whole request."""
    if not problems:
        return 0
    if any(p.rows is None for p in problems):
        return units
    return int(np.count_nonzero(np.logical_or.reduce([p.rows for p in problems])))


def percentile(values, q):
    values = sorted(values)
    pos = (len(values) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(values) - 1)
    return values[lo] + (values[hi] - values[lo]) * (pos - lo)


def verify_metrics(p):
    verify = p.samples("verify")
    return {"verify_report_s": (statistics.median(verify), "s"),
            "verify_report_tail_s": (percentile(verify, VERIFY_TAIL), "s")}


def chart_metrics(p):
    return {"dress_grid_pts_per_s": (p.rate("dress-grid"), "1/s"),
            "dress_pts_per_s": (p.rate("dress"), "1/s"),
            "potential_grid_pts_per_s": (p.rate("potential-grid"), "1/s"),
            "metric_grid_pts_per_s": (p.rate("metric-grid"), "1/s")}


def topology_metrics(p):
    queries = p.samples("classify", "betti")
    return {"topology_query_s": (statistics.median(queries), "s"),
            "topology_query_tail_s": (percentile(queries, TOPOLOGY_TAIL), "s"),
            "transition_ops_per_s": (p.rate("transition", "cocycle"), "1/s")}


# the end-to-end metrics each workload owns, from the pass that ran it
METRICS_OF = {"verify-mix": verify_metrics, "chart-sweep": chart_metrics,
              "topology-charts": topology_metrics}
TAIL_KINDS = {"verify_report": (VERIFY_TAIL, ("verify",)),
              "topology_query": (TOPOLOGY_TAIL, ("classify", "betti"))}


def sample_note(name, p):
    for prefix, (tail, kinds) in TAIL_KINDS.items():
        if name.startswith(prefix):
            n = len(p.samples(*kinds))
            q = tail if name.endswith("tail_s") else 50.0
            return (f"p{q:g} of {n} requests ({len(p.slots(kinds))} slots), "
                    f"{int(n * (1 - q / 100.0))} beyond")
    return f"{p.attempted} requests in {p.rounds} rounds"


def setup_once(clock, workload, seed):
    """Seconds one fresh interpreter takes to import, build and warm up.

    Calibrations right before and after bracket it; returns the seconds
    and the calibration in force, as a timed request keeps them.
    """
    clock.calibrate()
    mark = len(clock.cal) - 1
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_once.py"), workload, str(seed)],
        capture_output=True, text=True, timeout=120, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up run failed: {proc.stderr.strip()}")
    clock.calibrate()
    return float(proc.stdout.split()[-1]), mark


def report_pass(name, p, wl):
    print(f"{name}: {p.rounds} rounds, {p.attempted} requests, {p.failed} "
          f"failed unexpectedly; failed_ratio {1 - p.ok_ratio():.6f} "
          f"({p.work_failed} of {p.work} work units missed a check), "
          f"inputs sha256 {p.digest.hexdigest()[:16]}")
    for defect, n in sorted(p.defects.items()):
        print(f"  known defect {defect}: {n} problems; {wl.KNOWN_DEFECTS[defect]}")
    for text in p.unexpected[:20]:
        print(f"  UNEXPECTED {text}")


def run_probes(wl, seed, probes, share):
    """Bring every probe up to ``share`` of its PROBE_ROUNDS small rounds."""
    for name, probe in probes.items():
        while probe.rounds < math.ceil(PROBE_ROUNDS[name] * share):
            probe.run(wl, wl.ROUNDS[name](seed, probe.rounds, small=True))


def timed_run(wl, args):
    for op in wl.setup_ops(args.workload, args.seed):
        wl.run_op(op)
    clock = Clock()
    primary = Pass(clock)
    probes = {w: Pass(clock) for w in WORKLOADS if w != args.workload}
    setups = []

    def side_work(share):
        # set-up samples and probe rounds are spread over the run, so that
        # they meet the same mix of fast and slow host phases as the rounds
        while len(setups) < math.ceil(SETUP_SAMPLES * share):
            setups.append(setup_once(clock, args.workload, args.seed))
        run_probes(wl, args.seed, probes, share)

    round_fn = wl.ROUNDS[args.workload]
    t0 = time.perf_counter()
    while (primary.rounds < MIN_ROUNDS[args.workload]
           or time.perf_counter() - t0 < args.seconds):
        primary.run(wl, round_fn(args.seed, primary.rounds))
        side_work(min(1.0, (time.perf_counter() - t0) / args.seconds))
    measured = time.perf_counter() - t0
    side_work(1.0)
    clock.calibrate()
    setup_times = [t * clock.scale(mark) for t, mark in setups]
    setup_s = statistics.median(setup_times)
    passes = {args.workload: primary, **probes}
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    print(f"workload {args.workload}, seed {args.seed}: {primary.rounds} "
          f"rounds in {measured:.1f} s, set-ups and probe rounds between them; "
          f"calibration median {clock.speed() * 1e3:.3f} ms over {len(clock.cal)} "
          f"blocks, reference {CAL_REF * 1e3:g} ms")
    for name, p in passes.items():
        report_pass(name if name == args.workload else f"probe {name}", p, wl)
    metrics = {"setup_s": (setup_s, "s"), "peak_rss_mb": (rss_mb, "MB"),
               "ok_ratio": (primary.ok_ratio(), "ok/checked")}
    print(f"  setup_s samples: {', '.join(f'{x:.4f}' for x in setup_times)}")
    for workload, p in passes.items():
        metrics.update(METRICS_OF[workload](p))
        for name, (value, unit) in METRICS_OF[workload](p).items():
            print(f"  {name} = {value:.6g} {unit}  {sample_note(name, p)}")
    ok = not any(p.failed for p in passes.values())
    return ok, primary, metrics


def per_layer(tracer, traced):
    calls, failed = tracer.calls, tracer.failed
    self_s = tracer.self_times()
    counts = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    verify_iwasawa = sum(1 for s in tracer.spans
                         if s[0] == "decompose.iwasawa" and s[4] == "verify")
    out = {}
    for name in SPANS:
        out[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    for name in ("kahler.metric", "decompose.iwasawa", "orbit.dress",
                 "decompose.gauss_bruhat", "groups.WeylGroup.find",
                 "groups.weyl_group", "families.potentials", "cli.main"):
        out[f"{name}.calls"] = (calls[name], "count")
    for name in ("decompose.iwasawa", "decompose.gauss_bruhat"):
        out[f"{name}.failed"] = (failed[name], "count")
    out.update({
        "cohomology.pairing.potential_columns_used_ratio": (
            ratio(counts["pairing.columns_used"],
                  counts["pairing.columns_computed"]), "used/computed"),
        "kahler.metric.potential_rows_per_call": (
            ratio(counts["potentials.rows@metric"], calls["kahler.metric"]),
            "rows/call"),
        "quaternion.Quaternion.created": (counts["quaternions"], "count"),
        "orbit.dress.quaternions_per_call": (
            ratio(counts["quaternions@dress"], calls["orbit.dress"]),
            "quaternions/call"),
        "verify.iwasawa_per_point": (
            ratio(verify_iwasawa,
                  VERIFY_POINTS * len(traced.samples("verify"))),
            "calls/point"),
        "families.potentials.rows": (counts["potentials.rows"], "count"),
        "cli.csv_rows": (traced.csv_rows, "count"),
    })
    return out


def traced_run(wl, args):
    round_fn = wl.ROUNDS[args.workload]
    clock = Clock()
    plain, traced = Pass(clock), Pass(clock)
    for op in round_fn(args.seed, 0):        # fill every lazy cache first
        wl.run_op(op)
    tracer = Tracer()
    # each request runs untraced and traced, alternating which goes first,
    # so both see the same inputs and equally warm caches; the wrappers are
    # in place only around the traced call, so the untraced one and the
    # output checks run the library unpatched
    for r in range(TRACE_ROUNDS[args.workload]):
        ops = round_fn(args.seed, r)
        for p in (plain, traced):
            p.start_round(wl, ops)
        for i, op in enumerate(ops):
            for p in ((plain, traced) if i % 2 == 0 else (traced, plain)):
                mark = clock.mark()
                if p is traced:
                    tracer.op = op.kind
                    tracer.install()
                try:
                    outcome = wl.run_op(op)
                finally:
                    if p is traced:
                        tracer.uninstall()
                p.record(op, mark, *outcome)
    clock.calibrate()
    metrics = per_layer(tracer, traced)
    kinds = set(plain.kind.values())
    overhead = sum(traced.samples(*kinds)) / sum(plain.samples(*kinds)) - 1.0
    metrics["trace.overhead_ratio"] = (overhead, "traced/plain-1")

    print(f"workload {args.workload}, seed {args.seed}: {traced.rounds} "
          f"rounds run untraced and traced ({len(tracer.spans)} spans)")
    report_pass(args.workload, traced, wl)
    before = METRICS_OF[args.workload](plain)
    for name, (value, unit) in METRICS_OF[args.workload](traced).items():
        print(f"  tracing overhead on {name}: traced {value:.6g} - untraced "
              f"{before[name][0]:.6g} = {value - before[name][0]:+.4g} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    return not (plain.failed or traced.failed), traced, metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "coadjoint" / "__init__.py").is_file():
        print(f"no coadjoint sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads as wl

    run = traced_run if args.trace else timed_run
    correct, main_pass, metrics = run(wl, args)
    print(json.dumps({
        "correct": correct,
        "attempted": main_pass.attempted,
        "failed": main_pass.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
