"""Benchmark for satura: the cells the paper reports, timed end to end,
and with --trace 1 the time each workload spends in each module.

Run from the repository root (stdlib only, builds nothing):

    python3 perfbench/run.py --workload alt-cells --seed 2024 --seconds 30 --trace 0

Workloads, metrics and the reasons behind them are in perfbench/README.md;
metric names and units come from BENCHMARK.json.  The load is a closed
loop from this one process: a pass over the workload starts only after
the previous pass returned, and passes repeat until --seconds is spent.
Every result is checked against its reference; a mismatch counts as
failed and makes the exit code 1.  The last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.
"""

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

NPROC = len(os.sched_getaffinity(0))

# alt-cells: the paper's seeded cells over F_32771, in process, uncapped.
# Each cell is drawn at the seed itself and at ALT_DRAWS - 1 seeds split
# from it, so one pass does not hinge on a single draw's cost.
ALT_PRIME = 32771
ALT_CELLS = {7: 7, 6: 43}
ALT_DRAWS = 3
VERIFY_I = 6            # verify_groebner runs on this cell's basis at the seed

# alt-trials: one run_trials batch per pass.  The prime is the largest
# below 2**30, so an unlucky draw practically never turns up and any
# value other than 43 is a defect, not chance.  The price: products of
# two residues take two 30-bit CPython digits, where at the paper's 8191
# they take one (see perfbench/README.md for the measured cost).
TRIAL_PRIME = 1073741789
TRIAL_I = 6
TRIALS = 8

# pstar-q: rational Groebner bases of conics g4 draws plus the P* J_d^e
# tables.  The tables are the criterion-3 rows, cut to the entries that
# fit a pass (d=2 e<=4, d=3 e<=3).  The draws are fixed, not taken from
# --seed: their costs differ by up to 40 %, which would make a run's time
# depend on the seed more than on the program.
CONICS_SEED = 2024
CONICS_I = 4
CONICS_G = 9
CONICS_HF = (1, 4, 9, 9, 9, 9)
CONICS_DRAWS = 3
JDE_TABLES = {2: ((0, 28), (3, 25), (3, 25), (5, 23), (9, 19)),
              3: ((6, 78), (25, 59), (38, 46), (63, 21))}

# run in a fresh interpreter (problems are cached per process): import,
# build, then report "ready" and the seconds the build took
SETUP_PROBE = """
import sys, time
sys.path.insert(0, sys.argv[1])
import satura
start = time.perf_counter()
if sys.argv[2] == "pstar-q":
    satura.get_problem("conics-affine"), satura.conics_pstar_system()
else:
    satura.get_problem("alt")
print("ready", time.perf_counter() - start, flush=True)
"""


class Tracer:
    """Seconds and counts per layer for the calls this benchmark makes
    into satura.  Switched off, span() and count() do nothing, so one
    pass function serves the untraced and the traced run."""

    def __init__(self, on: bool):
        self.on = on
        self.times = {}
        self.counts = {}
        self.exact = {}     # other outputs that must replay, e.g. histograms

    def span(self, name):
        return self._span(name) if self.on else nullcontext()

    @contextmanager
    def _span(self, name):
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def add(self, name, seconds):
        self.times[name] = self.times.get(name, 0.0) + seconds

    def count(self, name, n):
        if self.on:
            self.counts[name] = self.counts.get(name, 0) + n


OFF = Tracer(False)


def import_satura():
    sys.path.insert(0, str(SRC))
    import satura
    if Path(satura.__file__).resolve().parent != SRC / "satura":
        raise ImportError(f"satura imported from {satura.__file__}, not {SRC}")
    return satura


def build_problems(sat, workload):
    """What the workload needs before its first pass; SETUP_PROBE times
    the same steps in a fresh process."""
    if workload == "pstar-q":
        return sat.get_problem("conics-affine"), sat.conics_pstar_system()
    return (sat.get_problem("alt"),)


def probe_setup(workload):
    """Seconds from starting a fresh interpreter to its problem being
    ready, and the part of them spent building the problem."""
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_PROBE, str(SRC), workload],
        stdout=subprocess.PIPE, text=True)
    with proc:
        words = proc.stdout.readline().split()
        elapsed = time.perf_counter() - start
    if proc.returncode != 0 or len(words) != 2 or words[0] != "ready":
        raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
    return elapsed, float(words[1])


def attempt(outcomes, label, check):
    """One checked unit of work, recorded as (label, seconds, ok); a raise
    or a wrong value counts as failed."""
    start = time.perf_counter()
    try:
        ok = bool(check())
    except Exception:
        traceback.print_exc()
        ok = False
    if not ok:
        print(f"MISMATCH {label}", file=sys.stderr)
    outcomes.append((label, time.perf_counter() - start, ok))


def gi_steps(tr, sat, inst, i, field, seed):
    """compute_gi's steps through public calls, one span per layer."""
    with tr.span("saturate.draw"):
        params = sat.draw_parameters(i, inst.n, inst.r, field, seed)
    with tr.span("saturate.system"):
        gens = sat.build_saturated_system(inst, params).generators
    with tr.span("groebner.buchberger"):
        basis = sat.buchberger(gens)
    with tr.span("groebner.quotient"):
        value = len(sat.quotient_basis(basis))
    tr.count("saturate.system_terms", sum(len(g.terms) for g in gens))
    tr.count("groebner.basis_len", len(basis))
    tr.count("groebner.basis_terms", sum(len(g.terms) for g in basis))
    tr.count("groebner.std_monomials", value)
    return value, basis, gens


# -- workloads: each pass returns one (label, seconds, ok) per checked unit

def alt_cells_pass(tr, sat, problems, seed):
    alt, = problems
    field = sat.prime_field(ALT_PRIME)
    outcomes = []
    for k in range(ALT_DRAWS):
        s = seed if k == 0 else sat.split_seed(seed, k)
        for i, ref in ALT_CELLS.items():
            if tr.on:   # compute_gi's own steps, so each lands in its layer
                check = lambda: gi_steps(tr, sat, alt, i, field, s)[0] == ref
            else:
                check = lambda: sat.compute_gi(alt, i, field, s).value == ref
            attempt(outcomes, f"alt g{i} at seed {s}", check)
    return outcomes


def alt_trials_pass(tr, sat, problems, seed, threads=NPROC):
    alt, = problems
    start = time.perf_counter()
    rep = sat.run_trials(alt, TRIAL_I, TRIAL_PRIME, TRIALS, seed,
                         threads=threads)
    share = (time.perf_counter() - start) / rep.trials
    if tr.on:
        tr.add("harness.trial_median", rep.time_stats["median"])
        tr.add("harness.overhead",
               rep.wall_time - rep.time_stats["mean"] * rep.trials / threads)
        tr.exact["histogram"] = dict(sorted(rep.histogram.items()))
    ref = sat.harness.REFERENCE_VALUES["alt"][TRIAL_I]
    trusted = rep.reference == ref and rep.reference_source == "table"
    outcomes = []
    for bucket, n in sorted(rep.histogram.items()):
        ok = trusted and bucket == str(ref)
        if not ok:
            print(f"MISMATCH alt-trials bucket {bucket}: {n}", file=sys.stderr)
        outcomes += [("run_trials batch", share, ok)] * n
    return outcomes


def pstar_pass(tr, sat, problems, seed):
    conics, combos = problems
    outcomes = []

    def conics_draw(k):
        value, basis, _ = gi_steps(tr, sat, conics, CONICS_I, sat.QQ,
                                   sat.split_seed(CONICS_SEED, k))
        with tr.span("hilbert.hf"):
            row = sat.affine_hilbert_function(basis, len(CONICS_HF) - 1).row()
        return value == CONICS_G and row == CONICS_HF

    for k in range(CONICS_DRAWS):
        attempt(outcomes, f"conics g{CONICS_I} over Q, draw {k}",
                lambda: conics_draw(k))
    n = combos[0].ring.nvars
    for d, table in JDE_TABLES.items():
        for e, ref in enumerate(table):
            def entry():
                with tr.span("hilbert.jde"):
                    got = sat.jde_dimension(combos, d, e)
                # derived from the inputs and (d, e), not counted inside
                # jde_dimension: no change to hilbert can move it
                tr.count("hilbert.jde_rows",
                         sum(math.comb(n + d + e - f.degree(), n)
                             for f in combos if f.degree() <= d + e))
                return tuple(got) == ref
            attempt(outcomes, f"P* J_{d}^{e}", entry)
    return outcomes


WORKLOADS = {
    "alt-cells": alt_cells_pass,
    "alt-trials": alt_trials_pass,
    "pstar-q": pstar_pass,
}


def measure(run_pass, seconds, workload):
    """Closed loop: passes back to back while the next one is expected to
    end within the budget (at least one pass).  Between passes, outside
    the timed passes, about one set-up probe per second of the run, so
    set-up is sampled across the run like the passes are."""
    passes, walls, probes = [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        passes.append(run_pass())
        walls.append(time.perf_counter() - t0)
        while len(probes) < time.perf_counter() - start:
            probes.append(probe_setup(workload))
        if time.perf_counter() - start + walls[-1] > seconds:
            return passes, walls, probes


def fastest_pass(passes):
    """Seconds of one pass with each checked unit at its fastest in the
    run.  The host's CPUs switch between fast and slow spells of seconds
    (see README.md); a unit's fastest time repeats between runs where a
    pass's median or mean does not."""
    best = {}
    for outcomes in passes:
        unit = {}
        for label, seconds, _ in outcomes:
            unit[label] = unit.get(label, 0.0) + seconds
        for label, seconds in unit.items():
            best[label] = min(seconds, best.get(label, seconds))
    return sum(best.values())


# -- the traced run -----------------------------------------------------

def verify_probe(tr, sat, basis, gens, outcomes, label):
    with tr.span("groebner.verify"):
        ok = sat.verify_groebner(basis, gens)
    # derived from basis_len: verify_groebner checks every pair
    tr.count("groebner.verify_pairs", len(basis) * (len(basis) - 1) // 2)
    attempt(outcomes, f"verify_groebner {label}", lambda: ok)


def layer_probes(workload, sat, problems, seed, outcomes, layers):
    """Per-layer work outside the timed passes, recorded into `layers`."""
    if workload == "alt-cells":
        _, basis, gens = gi_steps(OFF, sat, problems[0], VERIFY_I,
                                  sat.prime_field(ALT_PRIME), seed)
        verify_probe(layers, sat, basis, gens, outcomes, f"alt g{VERIFY_I}")
    elif workload == "pstar-q":
        _, basis, gens = gi_steps(OFF, sat, problems[0], CONICS_I, sat.QQ,
                                  sat.split_seed(CONICS_SEED, 0))
        verify_probe(layers, sat, basis, gens, outcomes, f"conics g{CONICS_I}")
    else:
        # replay every trial in process, at the seeds run_trials gives it
        ref = sat.harness.REFERENCE_VALUES["alt"][TRIAL_I]
        field = sat.prime_field(TRIAL_PRIME)
        for t in range(TRIALS):
            value, basis, gens = gi_steps(layers, sat, problems[0], TRIAL_I,
                                          field, sat.split_seed(seed, t))
            attempt(outcomes, f"replayed trial {t}", lambda: value == ref)
            if t == 0:
                verify_probe(layers, sat, basis, gens, outcomes, "trial 0")


def traced_run(workload, sat, problems, seed, seconds):
    """Untraced and traced passes in turn, then the layer probes.
    Alternating keeps the machine's slow drift out of the overhead."""
    run_pass = WORKLOADS[workload]
    off_walls, on_walls, tracers = [], [], []

    def pass_pair():
        t0 = time.perf_counter()
        outcomes = run_pass(OFF, sat, problems, seed)
        t1 = time.perf_counter()
        tracers.append(Tracer(True))
        outcomes += run_pass(tracers[-1], sat, problems, seed)
        off_walls.append(t1 - t0)
        on_walls.append(time.perf_counter() - t1)
        return outcomes

    passes, _, setups = measure(pass_pair, seconds, workload)
    outcomes = [o for p in passes for o in p]
    first = tracers[0]
    if any((t.counts, t.exact) != (first.counts, first.exact) for t in tracers):
        print("MISMATCH counts differ between identical passes", file=sys.stderr)
        outcomes.append(("counts replay", 0.0, False))

    probes = Tracer(True)
    layer_probes(workload, sat, problems, seed, outcomes, probes)

    # times: median over the traced passes, plus the probes' own work
    names = set(probes.times).union(*(t.times for t in tracers))
    metrics = {
        f"{name}_s": statistics.median(t.times.get(name, 0.0) for t in tracers)
        + probes.times.get(name, 0.0)
        for name in names}
    for counts in (first.counts, probes.counts):
        for name, n in counts.items():
            metrics[name] = metrics.get(name, 0) + n
    metrics["problems.build_s"] = min(b for _, b in setups)
    metrics["trace.overhead_s"] = statistics.median(
        on - off for on, off in zip(on_walls, off_walls))
    if workload == "alt-trials":
        # the serial batch between two pool batches, so drift cancels
        walls = []
        for threads in (NPROC, 1, NPROC):
            t0 = time.perf_counter()
            outcomes += alt_trials_pass(OFF, sat, problems, seed, threads)
            walls.append(time.perf_counter() - t0)
        metrics["harness.speedup"] = walls[1] / statistics.mean(walls[::2])
    return metrics, outcomes, first.exact


# -- output -------------------------------------------------------------

def loadavg():
    with open("/proc/loadavg") as fh:
        return fh.read().split()[:3]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def peak_rss_mb(workload):
    """Peak RSS of this process; on alt-trials plus that of its largest
    child, a run_trials pool worker (which outweighs a set-up probe).
    In process, the set-up probes are left out: they are the same size
    on every run and would dilute the run's own growth."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if workload == "alt-trials":
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "satura" / "__init__.py").is_file():
        print(f"perfbench: no satura sources under {SRC}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)

    machine = {"nproc": NPROC, "python": platform.python_version(),
               "cpu": cpu_model(), "loadavg_start": loadavg()}
    sat = import_satura()
    problems = build_problems(sat, args.workload)

    record = {}
    if args.trace:
        wanted = spec["per_layer"]
        found, outcomes, record = traced_run(args.workload, sat, problems,
                                             args.seed, args.seconds)
    else:
        wanted = spec["end_to_end"]
        run_pass = WORKLOADS[args.workload]
        passes, walls, setups = measure(
            lambda: run_pass(OFF, sat, problems, args.seed), args.seconds,
            args.workload)
        outcomes = [o for p in passes for o in p]
        wall = fastest_pass(passes)
        # the fastest probe, for the reason fastest_pass gives
        found = {"setup_s": min(s for s, _ in setups), "wall_s": wall,
                 "trials_per_s": len(outcomes) / len(passes) / wall,
                 "peak_rss_mb": peak_rss_mb(args.workload)}
        # the gap between mean and fastest pass shows a noisy run
        record.update(passes=len(walls), wall_mean_s=statistics.mean(walls),
                      setup_probes=len(setups))
    machine["loadavg_end"] = loadavg()

    names = {m["name"] for m in wanted}
    unknown = set(found) - names
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    # a layer this workload never calls reads 0
    metrics = {m["name"]: {"value": found.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    failed = sum(not ok for *_, ok in outcomes)
    attempted = len(outcomes)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, m in metrics.items():
        print(f"  {name:<26} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'fail_frac':<26} {failed / attempted:>14.6g} "
          f"({failed}/{attempted})")
    print(json.dumps({"machine": machine, **record}))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
